"""Property-level invariants promised by the module contracts, beyond the
operation examples: normalization soundness, oracle agreement across the
whole small-fixture grid, resolution independence, and monotonicity of
certificates.
"""

from itertools import product

import pytest

from aq.abgroups import FGAbelianGroup
from aq.algebras import (
    AB,
    GP,
    FreeAlgebra,
    cyclic_group,
    enumerate_homs,
    klein_four,
    realize_presentation,
)
from aq.beck import XModule, derivations, identity_map
from aq.dsl import parse_term
from aq.invariants import cohomology, homology_with_coeffs
from aq.resolutions import (
    bar_resolution_group,
    check_certificate,
    factor_set_cohomology,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import CoefficientModule, RModulePresentation, Ring
from aq.theories import group_theory, module_theory


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def _words_up_to(alg, gens, length):
    """All normal forms of generator words of length <= `length`."""
    words = {alg.zero()}
    frontier = {alg.zero()}
    letters = [alg.gen(g) for g in gens] + [alg.inv(alg.gen(g)) for g in gens]
    for _ in range(length):
        nxt = set()
        for w in frontier:
            for letter in letters:
                nxt.add(alg.mul(w, letter))
        frontier = nxt - words
        words |= nxt
    return sorted(words)


@pytest.mark.parametrize("theory", [GP, AB])
def test_normalization_soundness_group_like(theory):
    # every theory equation holds under all substitutions by generator
    # words of length <= 4 (on two generators)
    free = FreeAlgebra(theory, ["a", "b"])
    words = _words_up_to(free, ["a", "b"], 4)
    for lhs, rhs in theory.equations:
        _, env = theory.infer_equation_sorts(lhs, rhs)
        names = sorted(env)
        # sample the substitution grid deterministically to keep it small
        pool = words[::max(1, len(words) // 6)]
        for combo in product(pool, repeat=len(names)):
            sub = dict(zip(names, combo))
            assert free.eval_term(lhs, sub) == free.eval_term(rhs, sub)


def test_normalization_soundness_module_theory():
    tx = module_theory(group_theory(), cyclic_group(2))
    free = FreeAlgebra(tx, ["m", "n"])
    words = _words_up_to(free, ["m", "n"], 3)
    acted = set(words)
    for w in list(acted):
        acted.add(free.act("act_a", w))
    words = sorted(acted)
    for lhs, rhs in tx.equations:
        _, env = tx.infer_equation_sorts(lhs, rhs)
        names = sorted(env)
        pool = words[::max(1, len(words) // 4)]
        for combo in product(pool, repeat=len(names)):
            sub = dict(zip(names, combo))
            assert free.eval_term(lhs, sub) == free.eval_term(rhs, sub)


def test_oracles_agree_on_full_small_grid():
    # |g| <= 4, |k| <= 3: bar and factor-set oracles agree on H^1 and H^2
    groups = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()]
    for g in groups:
        for moduli in ([2], [3]):
            k = XModule.trivial(g, moduli)
            bar = bar_resolution_group(g, k, 2)
            assert factor_set_cohomology(g, k, 1) == bar[1], (g.name, moduli)
            assert factor_set_cohomology(g, k, 2) == bar[2], (g.name, moduli)


def test_klein_four_h2_value():
    # H^2(V4; Z/2) = (Z/2)^3, a classical value, via both oracles
    v4 = klein_four()
    k = XModule.trivial(v4, [2])
    assert bar_resolution_group(v4, k, 2)[2] == G(2, 2, 2)
    assert factor_set_cohomology(v4, k, 2) == G(2, 2, 2)


def test_resolution_independence_module_fixtures():
    # two genuinely different certified resolutions of the same module
    # give the same cohomology and homology in the certified range
    ring = Ring("Z")
    direct = RModulePresentation.cyclic(ring, 4)
    # redundant presentation of the same module: <a, b | 4a, b>
    redundant = RModulePresentation(
        ring, 2, [[ring.from_int(4), ring.from_int(0)],
                  [ring.from_int(0), ring.from_int(1)]],
    )
    assert direct.invariants() == redundant.invariants() == G(4)
    v1 = resolve_module(direct, length=4)
    v2 = resolve_module(redundant, length=4)
    assert v1.dk_source.ranks != v2.dk_source.ranks  # different resolutions
    c1 = check_certificate(v1, direct, rng=3)
    c2 = check_certificate(v2, redundant, rng=3)
    assert c1.valid and c2.valid
    g = CoefficientModule.trivial(ring, [2])
    assert cohomology(v1, g, range(4)) == cohomology(v2, g, range(4))
    assert homology_with_coeffs(v1, g, range(4)) == \
        homology_with_coeffs(v2, g, range(4))


def test_certificate_monotone_in_range():
    # enlarging the range never converts fail into pass
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=3)
    sort = "g"
    gen = v.levels[0].generators[sort][0]
    v.degens[0][0].mapping[sort][gen] = v.levels[1].zero()
    c_small = check_certificate(v, z2, rng=1)
    c_large = check_certificate(v, z2, rng=2)
    assert not c_small.valid and not c_large.valid
    for key, ok in c_small.checks.items():
        if not ok:
            assert not c_large.checks[key]


def test_module_theory_hom_counts_match_direct_enumeration():
    # algebras over the Z[Z/2]-module theory: hom sets counted through the
    # generic engine match the module-theoretic counts
    tx = module_theory(group_theory(), cyclic_group(2))
    # F2[Z/2]: free rank 1 modulo 2
    f2z2 = realize_presentation(
        tx, ["m"], [parse_term("mul(m, m)")], bound=16, name="F2[Z2]",
    )
    assert f2z2.order() == 4
    # Z/2 with the trivial action
    triv = realize_presentation(
        tx, ["m"],
        [parse_term("mul(m, m)"), (parse_term("act_a(m)"), parse_term("m"))],
        bound=16, name="Z2triv",
    )
    assert triv.order() == 2
    # Hom(F2[Z2], F2[Z2]) = underlying set of F2[Z2] (free rank one)
    assert len(enumerate_homs(f2z2, f2z2)) == 4
    # Hom(F2[Z2], Z2triv) = underlying set of the target
    assert len(enumerate_homs(f2z2, triv)) == 2
    # Hom(Z2triv, F2[Z2]) = fixed points of the action = {0, m + a.m}
    assert len(enumerate_homs(triv, f2z2)) == 2
    # free module adjunction over the module theory
    from aq.algebras import adjunction_check

    assert adjunction_check(tx, ["t"], f2z2)
    assert adjunction_check(tx, ["t", "u"], triv)


def test_trivial_coefficients_h0_is_hom():
    # for a trivial module K, H^0_AQ(Y; K) has the order of Hom(Y, K)
    for m in (2, 3, 4):
        y = cyclic_group(m)
        v = loop_group_resolution(y, truncation=2)
        k = XModule.trivial(y, [2])
        h0 = cohomology(v, k, [0], x=y)[0]
        homs = enumerate_homs(y, cyclic_group(2))
        assert h0.order() == len(homs)


def test_derivation_group_closure_under_addition():
    z4 = cyclic_group(4)
    k = XModule.trivial(z4, [2])
    ders = derivations(identity_map(z4), k)
    keys = {d.key() for d in ders}
    for d1 in ders:
        for d2 in ders:
            assert ders.add(d1, d2).key() in keys
    assert ders.zero().key() in keys
