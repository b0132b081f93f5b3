"""Deeper cross-checks: generated theories survive a DSL round trip, and
the full cohomology pipeline agrees with the classical oracles on a
nonabelian group (exercising the noncommutative group-ring path).
"""

from aq.abgroups import FGAbelianGroup
from aq.algebras import cyclic_group, klein_four, symmetric_3
from aq.beck import XModule, derivations, identity_map
from aq.dsl import parse_theory, print_theory
from aq.invariants import cohomology, cohomology_via_em, homology
from aq.resolutions import (
    bar_resolution_group,
    check_certificate,
    factor_set_cohomology,
    loop_group_resolution,
)
from aq.theories import (
    abelianization_theory,
    comma_theory,
    group_theory,
    module_theory,
    product_theory,
    abelian_theory,
)


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def _round_trip(theory):
    text = print_theory(theory)
    again = parse_theory(text)
    assert print_theory(again) == text
    assert again.sorts == theory.sorts
    assert [o.name for o in again.ops] == [o.name for o in theory.ops]
    assert len(again.equations) == len(theory.equations)


def test_generated_theories_round_trip_through_dsl():
    gp = group_theory()
    _round_trip(gp)
    _round_trip(abelianization_theory(gp))
    _round_trip(product_theory(abelian_theory("A"), gp))
    _round_trip(comma_theory(gp, cyclic_group(2)))
    _round_trip(comma_theory(gp, cyclic_group(3)))
    _round_trip(module_theory(gp, cyclic_group(2)))


def test_s3_cohomology_pipeline_vs_oracles():
    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=2)
    cert = check_certificate(v, s3, rng=1)
    assert cert.valid
    for moduli in ([2], [3]):
        k = XModule.trivial(s3, moduli)
        hs = cohomology(v, k, [0, 1], x=s3, certificate=cert)
        ders = derivations(identity_map(s3), k)
        assert hs[0] == ders.invariants(), moduli
        bar = bar_resolution_group(s3, k, 2)
        assert hs[1] == bar[2], (moduli, hs[1], bar[2])
    # classical values: H^2(S3; Z/2) = Z/2 and H^2(S3; Z/3) = 0
    assert bar_resolution_group(s3, XModule.trivial(s3, [2]), 2)[2] == G(2)
    assert bar_resolution_group(s3, XModule.trivial(s3, [3]), 2)[2] == G()


def test_s3_em_route_matches_cochain():
    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=2)
    k = XModule.trivial(s3, [2])
    hs = cohomology(v, k, [1], x=s3)
    assert cohomology_via_em(v, k, [1], x=s3)[1] == hs[1] == G(2)


def test_v4_cohomology_pipeline_vs_oracles():
    v4 = klein_four()
    v = loop_group_resolution(v4, truncation=2)
    cert = check_certificate(v, v4, rng=1)
    assert cert.valid
    k = XModule.trivial(v4, [2])
    hs = cohomology(v, k, [0, 1], x=v4, certificate=cert)
    assert hs[0] == G(2, 2)       # Hom(V4, Z/2)
    assert hs[1] == G(2, 2, 2)    # classical H^2(V4; Z/2)
    assert hs[1] == factor_set_cohomology(v4, k, 2)


def test_s3_homology_low_degree():
    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=2)
    hs = homology(v, [0, 1])
    # absolute AQ homology: degree 0 is the abelianization, degree 1 is
    # classical H_2(S3; Z) = 0
    assert hs[0] == G(2)
    assert hs[1] == G()
