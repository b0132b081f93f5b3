"""The normalized loop-group complexes: homology and the cochain route on the
nondegenerate generators agree with the degenerate-quotient construction,
the fallback for resolutions whose degeneracies send generators to words,
and groups of order 8 realized from presentations."""

import os

import pytest

from aq.abgroups import FinAb
from aq.algebras import (
    cyclic_group,
    dihedral_4,
    find_isomorphism,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from aq.beck import XModule
from aq.fixtures import load_algebra, load_sres, parse_algebra
from aq.invariants import (
    cohomology,
    cohomology_via_em,
    der_cochain,
    homology,
    homology_with_coeffs,
)
from aq.resolutions import (
    _degenerate_quotient_complex,
    abelianized_complex,
    bar_resolution_group,
    check_certificate,
    loop_group_resolution,
    nondegenerate_generators,
)
from aq.simplicial import cohomotopy

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "V4": klein_four,
    "S3": symmetric_3,
}


def _sign_module(g, m):
    """Z/m on which the elements of order 2 act by -1: the sign
    character of S3 or of Z/2 (the groups it is used on)."""
    e = g.identity()
    act = {x: [[m - 1 if x != e and g.gmul(x, x) == e else 1]]
           for x in g.carriers["g"]}
    return XModule(g, FinAb([m]), act)


@pytest.mark.parametrize("name,truncation", [
    ("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z3", 3), ("Z4", 2), ("Z4", 3),
    ("V4", 2), ("V4", 3), ("S3", 2),
])
def test_normalized_complex_matches_the_degenerate_quotient(name, truncation):
    g = GROUPS[name]()
    v = loop_group_resolution(g, truncation=truncation)
    order = g.order()
    cells = nondegenerate_generators(v)
    # the nondegenerate (n+1)-tuples: no identity after the first entry
    assert [len(c) for c in cells] == [
        (order - 1) ** (n + 1) for n in range(truncation + 1)]
    degrees = range(truncation)
    for over in (None, g):
        normalized, ranks, ring = abelianized_complex(v, over=over)
        closure, full_ranks, _ = _degenerate_quotient_complex(v, over=over)
        assert ranks == [len(c) for c in cells]
        assert full_ranks == [len(lv.generators["g"]) for lv in v.levels]
        assert all(lv.nrels() == 0 for lv in normalized.levels)
        assert [lv.gens for lv in normalized.levels] == [
            r * ring.zrank() for r in ranks]
        assert normalized.homology(degrees) == closure.homology(degrees), over


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normalized_cochain_route_matches_unnormalized_cohomotopy(name):
    g = GROUPS[name]()
    v = loop_group_resolution(g, truncation=3 if g.order() <= 3 else 2)
    degrees = range(v.truncation)
    coeffs = [XModule.trivial(g, [2]), XModule.trivial(g, [3])]
    if name in ("Z2", "S3"):
        coeffs.append(_sign_module(g, 3))
    for k in coeffs:
        for x in (g, None):
            full = cohomotopy(der_cochain(v, k, x=x), degrees)
            assert cohomology(v, k, degrees, x=x) == full, (k.action, x)


def test_fallback_for_degeneracies_into_words():
    # z2res-basis.sres is z2res.sres in the level-1 basis u = t/a/e t/a/a,
    # w = t/a/a, so s_0 sends t/a to the word u w^-1
    z2 = load_algebra(os.path.join(FIXTURES, "z2.alg"))
    v = load_sres(os.path.join(FIXTURES, "z2res-basis.sres"))
    assert v.degens[0][0].mapping["g"]["t/a"] == (("u", 1), ("w", -1))
    assert nondegenerate_generators(v) is None
    cert = check_certificate(v, z2, rng=2)
    assert cert.valid, cert.checks
    loop = loop_group_resolution(z2, truncation=3)
    assert nondegenerate_generators(loop) is not None
    degrees = range(3)
    for k in (XModule.trivial(z2, [2]), _sign_module(z2, 3)):
        assert cohomology(v, k, degrees, x=z2, certificate=cert) == \
            cohomology(loop, k, degrees, x=z2)
        assert cohomology_via_em(v, k, 2, x=z2) == \
            cohomology_via_em(loop, k, 2, x=z2)
        assert homology_with_coeffs(v, k, degrees, x=z2) == \
            homology_with_coeffs(loop, k, degrees, x=z2)
    for x in (None, z2):
        assert homology(v, degrees, x=x) == homology(loop, degrees, x=x)


D4_PRESENTED = """algebra d4p {
  theory gp
  presentation {
    gens g : r s
    rel mul(r, mul(r, mul(r, r)))
    rel mul(s, s)
    rel mul(s, mul(r, mul(s, r)))
    realize bound = 64
  }
}"""

Q8_PRESENTED = """algebra q8p {
  theory gp
  presentation {
    gens g : i j
    rel mul(i, mul(i, mul(i, i)))
    rel mul(i, i) = mul(j, j)
    rel mul(j, mul(i, inv(j))) = inv(i)
    realize bound = 64
  }
}"""


@pytest.mark.parametrize("text,reference,modulus", [
    (D4_PRESENTED, dihedral_4, 2),
    (Q8_PRESENTED, quaternion_8, 3),
], ids=["D4-Z2", "Q8-Z3"])
def test_order_8_groups_from_presentations(text, reference, modulus):
    # realized by Todd-Coxeter; AQ degrees 0-1 by the cochain route and the
    # EM route, against the bar complex (AQ H^n = classical H^{n+1})
    g = parse_algebra(text)
    assert g.order() == 8
    assert find_isomorphism(g, reference()) is not None
    k = XModule.trivial(g, [modulus])
    v = loop_group_resolution(g, truncation=2)
    cert = check_certificate(v, g, rng=1)
    assert cert.valid, cert.checks
    cochain = cohomology(v, k, [0, 1], x=g, certificate=cert)
    bar = bar_resolution_group(g, k, 2)
    assert cochain[0] == bar[1]
    assert cochain[1] == bar[2] == cohomology_via_em(v, k, 1, x=g)
