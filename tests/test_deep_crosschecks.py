"""Heavier independent cross-checks: SNF against a fraction-free
determinant, the Fox chain rule over a noncommutative group ring, and
route agreement across every small module structure (not just trivial
actions)."""

import random

from aq.abgroups import FGAbelianGroup
from aq.algebras import AlgebraMap, FreeAlgebra, cyclic_group, symmetric_3, GP
from aq.beck import fox_columns, x_module_structures
from aq.invariants import cohomology, cohomology_via_em
from aq.resolutions import bar_resolution_group, loop_group_resolution
from aq.rings import Ring
from aq.snf import mat_mul, smith_diagonal, smith_diagonal_naive, smith_normal_form


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def bareiss_determinant(mat):
    """Fraction-free determinant: an implementation independent of both
    Smith reductions."""
    n = len(mat)
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def test_snf_invariant_product_is_determinant(seed=101, trials=60):
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
        det = bareiss_determinant(mat)
        diag = smith_diagonal(mat)
        prod = 1
        for d in diag:
            prod *= d
        if det == 0:
            assert len(diag) < n
        else:
            assert len(diag) == n and prod == abs(det)
        assert diag == smith_diagonal_naive(mat)


def test_snf_matches_naive_on_sparse_relation_shapes(seed=211, trials=24):
    # shaped like the relation matrices of the S3 certificate: mostly
    # wide, about 3% nonzeros, small entries; every fourth one tall
    rng = random.Random(seed)
    for trial in range(trials):
        nr, nc = rng.randint(8, 30), rng.randint(40, 180)
        if trial % 4 == 3:
            nr, nc = nc // 3, nr
        mat = [[0] * nc for _ in range(nr)]
        for _ in range(max(1, round(0.03 * nr * nc))):
            mat[rng.randrange(nr)][rng.randrange(nc)] = rng.choice(
                [-3, -2, -1, 1, 2, 3])
        u, d, v = smith_normal_form(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert smith_diagonal(mat) == smith_diagonal_naive(mat)


def test_fox_chain_rule_noncommutative():
    # over Z[S3] the realization conventions matter; the chain rule is the
    # sharp test of them
    rng = random.Random(17)
    s3 = symmetric_3()
    sort = "g"
    a = FreeAlgebra(GP, ["u", "v"])
    b = FreeAlgebra(GP, ["s", "t"])
    c = FreeAlgebra(GP, ["w"])
    ring = Ring("ZG", group=s3.group_table(sort))
    els = list(s3.carriers[sort])

    def rand_word(alg, length):
        word = alg.zero()
        for _ in range(length):
            g = rng.choice(alg.generators[sort])
            word = alg.mul(word, ((g, rng.choice([1, -1])),))
        return word

    for _ in range(25):
        m1 = AlgebraMap.from_generator_images(
            c, b, {"w": rand_word(b, rng.randint(1, 4))}
        )
        m2 = AlgebraMap.from_generator_images(
            b, a, {"s": rand_word(a, rng.randint(1, 4)),
                   "t": rand_word(a, rng.randint(1, 4))}
        )
        comp = AlgebraMap.from_generator_images(
            c, a, {"w": m2.apply_free_element(m1.mapping[sort]["w"])}
        )
        p_a = AlgebraMap.from_generator_images(
            a, s3, {"u": rng.choice(els), "v": rng.choice(els)}
        )
        p_b = AlgebraMap.from_generator_images(
            b, s3, {"s": p_a.apply_free_element(m2.mapping[sort]["s"]),
                    "t": p_a.apply_free_element(m2.mapping[sort]["t"])}
        )
        (col1,) = fox_columns(m1, over=p_b)
        cols2 = fox_columns(m2, over=p_a)
        (colc,) = fox_columns(comp, over=p_a)
        # left-module convention: inner coefficients multiply on the left
        acc = {}
        for t, y in col1:
            for i, x2 in cols2[t]:
                acc[i] = ring.add(acc.get(i, ring.zero()), ring.mul(y, x2))
        assert {i: c for i, c in acc.items() if c} == dict(colc)


def test_route_agreement_over_all_small_modules():
    # every module structure with carrier of order <= 3 over Z/2 and Z/3
    for m in (2, 3):
        x = cyclic_group(m)
        v = loop_group_resolution(x, truncation=2)
        for order in (2, 3):
            for k in x_module_structures(x, order):
                hs = cohomology(v, k, [0, 1], x=x)
                em = cohomology_via_em(v, k, [1], x=x)[1]
                assert em == hs[1], (m, order, k.action)
                bar = bar_resolution_group(x, k, 2)
                assert hs[1] == bar[2], (m, order, k.action)


def test_z4_on_z3_inversion_module():
    # Z/4 acting on Z/3 through the sign: H^* via pipeline and bar oracle
    from aq.abgroups import FinAb
    from aq.beck import XModule

    z4 = cyclic_group(4)
    action = {"e": [[1]], "a": [[2]], "a2": [[1]], "a3": [[2]]}
    k = XModule(z4, FinAb([3]), action)
    v = loop_group_resolution(z4, truncation=2)
    hs = cohomology(v, k, [0, 1], x=z4)
    bar = bar_resolution_group(z4, k, 2)
    assert hs[1] == bar[2]
    assert cohomology_via_em(v, k, [1], x=z4)[1] == hs[1]
