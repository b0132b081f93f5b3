"""Semidirect products pinned by SHA-256 digests of their carrier, their
tables (entries in insertion order) and `pair_of`, taken before the
tables were built per X-tuple; and `is_homomorphism` against maps that
differ from a homomorphism in one entry."""

import hashlib

import pytest

from aq.abgroups import FinAb
from aq.algebras import (
    AlgebraMap,
    FiniteAlgebra,
    cyclic_group,
    klein_four,
    symmetric_3,
)
from aq.beck import XModule, identity_map, semidirect_product
from aq.simplicial import VALIDATE_LEVEL_LIMIT, _power_xmodule

DIGESTS = {
    "Z3 trivial over S3":
        "989405ade7b59bdad33d8addbf6b74f08ed77e862e2e7222e49273e65e477870",
    "Z3 sign over S3":
        "42734355f686671dffd09f950dfc9895d84d149d4286684cfa0642ebb0c43a09",
    "Z2xZ4 trivial over V4":
        "9750d720f727c21330f81c5c5b66c6a302f9313cad27088f187fefb016576bcf",
    "Z2xZ4 twisted over V4":
        "ccd9c6d2ffaf5964b7a67353032ed5e0dc6019438c48280ea340a5ee23a2726f",
    "Z2^0 over Z2":
        "80f3691e7501113bfc9de5624c40b767464e13e2e66f82456a9dcc35a37fe1ef",
    "Z2^1 over Z2":
        "33e94a2b0808158852d07af03ce724540b716442df06308521653d011e3a8136",
    "Z2^2 over Z2":
        "1fd90550cfbe1ce68b2544cec5c1e88ea5e67e15ee591e056c2f00a6cb1d6ae7",
    "Z2^3 over Z2":
        "9409dd1c2e5c582e0a9fac96b2b8c105aa8c8d189d2656ff2b9b184aabb5ad57",
    "Z2^4 over Z2":
        "b31549335d6e15a086f1375e4c75359bdcd76a41000e72a62f605780f5bce338",
    "Z2^5 over Z2":
        "c1291eeaa939111ca2fa306d0b587d6d01d092cb89fde26081e846a9088c1e44",
    "Z2^6 over Z2":
        "5dfff719248110265068ab257d96c4c661b081d1fcdf357808341ba38c3aae79",
    "Z3sign^2 over Z2":
        "e53dc6b263c44da4e6296e3fa6e01514d5ad32d8e7c70107867b2af48dd186d8",
}


def _module(name):
    """The coefficients and the base of the case `name` of DIGESTS."""
    if name.endswith("over S3"):
        s3 = symmetric_3()
        if "trivial" in name:
            return XModule.trivial(s3, [3]), s3
        sign = {x: [[2]] if x in ("p021", "p102", "p210") else [[1]]
                for x in s3.carriers["g"]}
        return XModule(s3, FinAb([3]), sign), s3
    if name.endswith("over V4"):
        v4 = klein_four()
        if "trivial" in name:
            return XModule.trivial(v4, [2, 4]), v4
        a, b = [[1, 1], [0, 1]], [[1, 0], [0, 3]]
        act = {"e|e": [[1, 0], [0, 1]], "a|e": a, "e|a": b,
               "a|a": [[1, 3], [0, 3]]}
        return XModule(v4, FinAb([2, 4]), act), v4
    z2 = cyclic_group(2)
    if name.startswith("Z3sign"):
        k = XModule(z2, FinAb([3]), {"e": [[1]], "a": [[2]]})
    else:
        k = XModule.trivial(z2, [2])
    copies = int(name.split()[0].split("^")[1])
    return _power_xmodule(z2, k, copies), z2


def _product(name):
    k, x = _module(name)
    # validated as the Eilenberg-MacLane levels are
    small = k.carrier.order() * x.order() <= VALIDATE_LEVEL_LIMIT
    return semidirect_product(k, x, validate=small)


def _digest(sd):
    data = repr((list(sd.carriers["g"]),
                 [(op, list(tab.items())) for op, tab in sd.tables.items()],
                 list(sd.pair_of.items())))
    return hashlib.sha256(data.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_semidirect_product_tables_are_unchanged(name):
    assert _digest(_product(name)) == DIGESTS[name]


@pytest.mark.parametrize("op", ["e", "inv", "mul"])
def test_is_homomorphism_rejects_one_changed_table_entry(op):
    sd = _product("Z3 sign over S3")
    ident = identity_map(sd)
    assert ident.is_homomorphism()
    tables = {name: dict(tab) for name, tab in sd.tables.items()}
    last = list(tables[op])[-1]
    tables[op][last] = next(
        y for y in sd.carriers["g"] if y != tables[op][last])
    bad = FiniteAlgebra(sd.theory, "bad", sd.carriers, tables, validate=False)
    assert not AlgebraMap(sd, bad, ident.mapping, check=False).is_homomorphism()
    assert not AlgebraMap(bad, sd, ident.mapping, check=False).is_homomorphism()


def test_is_homomorphism_rejects_one_changed_map_entry():
    sd = _product("Z3 sign over S3")
    proj = sd.projection
    assert proj.is_homomorphism()
    sort = "g"
    for lab in sd.carriers[sort]:
        mapping = dict(proj.mapping[sort])
        mapping[lab] = next(x for x in sd.base.carriers[sort]
                            if x != mapping[lab])
        assert not AlgebraMap(sd, sd.base, {sort: mapping},
                              check=False).is_homomorphism(), lab
