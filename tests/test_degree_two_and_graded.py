"""Degree-2 cohomology against the classical oracle, universal
coefficients over genuinely graded homology (several t columns at once),
and a scale guard for the Smith reduction."""

import random

from aq.abgroups import FGAbelianGroup
from aq.algebras import AlgebraError, cyclic_group
from aq.beck import XModule
from aq.invariants import cohomology, homology_with_coeffs
from aq.resolutions import bar_resolution_group, loop_group_resolution
from aq.rings import CoefficientModule, RModulePresentation, Ring
from aq.simplicial import ChainComplex, dold_kan, moore_homotopy
from aq.snf import _sparse_cols, smith_diagonal, smith_diagonal_naive
from aq.spectral import GradedModule, tor_e2, uct_e2


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_degree_two_group_cohomology_vs_bar():
    for m, kmod, expected in ((2, [2], G(2)), (3, [2], G()), (3, [3], G(3)),
                              (4, [2], G(2))):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=3)
        k = XModule.trivial(g, kmod)
        h2 = cohomology(v, k, [2], x=g)[2]
        bar3 = bar_resolution_group(g, k, 3)[3]
        assert h2 == bar3 == expected, (m, kmod, h2, bar3)


def _random_free_complex(rng, length):
    while True:
        ranks = [rng.randint(1, 3) for _ in range(length)]
        diffs = [None]
        for n in range(1, length):
            rows, cols = ranks[n - 1], ranks[n]
            mat = [[rng.randint(-4, 4) if n % 2 == 1 else 0
                    for _ in range(cols)] for _ in range(rows)]
            diffs.append(_sparse_cols(mat, cols))
        try:
            return ChainComplex(Ring("Z"), ranks, diffs)
        except AlgebraError:
            continue


def test_uct_and_tor_pages_on_graded_homology(seed=23, trials=8):
    # Y a random complex of free modules: H_* genuinely graded; the
    # two-column pages must be exact against direct (co)homology in every
    # total degree
    rng = random.Random(seed)
    ring = Ring("Z")
    for _ in range(trials):
        cx = _random_free_complex(rng, 4)
        v = dold_kan(cx, truncation=4)
        h_graded = moore_homotopy(v, range(4))
        components = {}
        for t, group in h_graded.items():
            divisors = [0] * group.rank + list(group.torsion)
            if not divisors:
                continue
            cols = [
                [ring.from_int(d if gi == i else 0)
                 for gi in range(len(divisors))]
                for i, d in enumerate(divisors) if d != 0
            ]
            components[t] = RModulePresentation(ring, len(divisors), cols)
        graded = GradedModule(ring, components)
        g = CoefficientModule.trivial(ring, [2])
        hs = cohomology(v, g, range(4))
        ht = homology_with_coeffs(v, g, range(4))
        page = uct_e2(graded, g, smax=3, tmax=3, cohomology_values=hs)
        assert page.consistent(), (cx.ranks, page.convergence)
        tpage = tor_e2(graded, g, smax=3, tmax=3, homology_values=ht)
        assert tpage.consistent(), (cx.ranks, tpage.convergence)


def test_snf_scale_guard(seed=5):
    rng = random.Random(seed)
    mat = [[rng.randint(-9, 9) for _ in range(20)] for _ in range(20)]
    assert smith_diagonal(mat) == smith_diagonal_naive(mat)
    big = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    diag = smith_diagonal(big)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
