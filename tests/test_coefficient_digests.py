"""Pinned SHA-256 digests of the free resolutions of seeded modules over
Z, Z/4, Z/6, Z[C2] and Z[C3], their differentials written out here as
dense R-matrices, and of the integer matrices and levels of Hom_R(F, K)
and F tensor_R K on them: trivial coefficients (with and without a free
summand over Z and the group rings) and, over a group ring, the group
ring itself.  The digests were recorded while resolutions still kept
dense R-matrices and Hom and tensor had routes of their own, so the
sparse relation and map columns are written out here as dense matrices;
any change to how resolutions are built or how coefficients meet them
must leave every entry as it is."""

import hashlib

import pytest

from aq.rings import CoefficientModule, free_resolution, with_coefficients
from aq.snf import cols_to_matrix
from test_dold_kan_digests import _dense
from test_normalized import COEFFS, RINGS, SEEDS, _seeded_module

EXTRA = {"Z": [0, 2], "Z/4": [4, 2], "Z/6": [6, 2], "Z[C2]": [0],
         "Z[C3]": [0, 2]}

DIGESTS = {
    "Z": (
        "a2dd8f54cdc2e30cc18e3baf9e26685446373e835e095e13cac6ebaf3d7ac463"),
    "Z/4": (
        "a7ca2c4d96d523de3bf5b7ee35597f5f7003720f29748ed3783b33c75ec02144"),
    "Z/6": (
        "0ff111a9454581384148bdff48e82c671578b69a631c26c1330dc4a6ee6bf5d6"),
    "Z[C2]": (
        "148cbf145370fdb7a2693224b9c375f9b0f1b11e7d9c5df5fe33b895ff6b2a8b"),
    "Z[C3]": (
        "208839f04902c2e704d218e7cc05dfcec2a680101578eaa52ee6eb9843c3f613"),
}


def _entry(x):
    return sorted(x.items()) if isinstance(x, dict) else x


def _material(name, seed):
    ring = RINGS[name]()
    ranks, diffs = free_resolution(_seeded_module(ring, seed), 4)
    out = [ranks, [[[_entry(x) for x in row]
                    for row in _dense(diffs[n], ranks[n - 1], ring.zero())]
                   for n in range(1, len(ranks))]]
    coeffs = [CoefficientModule.trivial(ring, COEFFS[name]),
              CoefficientModule.trivial(ring, EXTRA[name])]
    if ring.kind == "ZG":
        # Z[G] as a module over itself
        coeffs.append(CoefficientModule(
            ring, [0] * ring.zrank(),
            {h: ring.regular_block({h: 1}) for h in ring.group.elements}))
    for coeff in coeffs:
        for dual in (True, False):
            levels, maps = with_coefficients(ranks, diffs, coeff,
                                             len(ranks) - 1, dual=dual)
            out.append([
                [(lv.gens, cols_to_matrix(lv.rels, lv.gens)) for lv in levels],
                [None] + [cols_to_matrix(m, levels[n if dual else n - 1].gens)
                          for n, m in enumerate(maps) if n]])
    return repr(out)


@pytest.mark.parametrize("name", list(DIGESTS))
def test_resolutions_and_their_coefficient_matrices_are_pinned(name):
    h = hashlib.sha256()
    for ring_name, seed in SEEDS:
        if ring_name == name:
            h.update(_material(name, seed).encode())
    assert h.hexdigest() == DIGESTS[name]
