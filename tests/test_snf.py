import random

from aq.snf import (
    cokernel_diagonal,
    identity_matrix,
    invert_unimodular,
    kernel_basis,
    lattice_basis,
    mat_mul,
    mat_vec,
    smith_diagonal,
    smith_diagonal_naive,
    smith_normal_form,
    solve_integer,
)


def nonzero_diag(d):
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t]:
            out.append(d[t][t])
    return out


def check_snf(mat):
    u, d, v = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    # unimodularity: exact integer inverses exist
    assert mat_mul(u, invert_unimodular(u)) == identity_matrix(len(u))
    assert mat_mul(v, invert_unimodular(v)) == identity_matrix(len(v))
    diag = nonzero_diag(d)
    assert all(x > 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_hand_oracle_diag_2_3():
    # elementary ops: diag(2,3) ~ diag(1,6)
    assert check_snf([[2, 0], [0, 3]]) == [1, 6]


def test_hand_oracle_2x2():
    # det -8, gcd of entries 2 => invariants (2, 4)
    assert check_snf([[2, 4], [6, 8]]) == [2, 4]


def test_zero_matrix():
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]
    assert u == identity_matrix(2) and v == identity_matrix(2)


def test_mat_mul_shapes():
    assert mat_mul([[1, 2], [3, 4]], [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
    # an inner dimension of zero: the width comes from `cols`
    assert mat_mul([[], []], [], cols=3) == [[0, 0, 0], [0, 0, 0]]
    assert mat_mul([[], []], []) == [[], []]
    assert mat_mul([], [[1, 2]], cols=2) == []


def test_snf_matches_naive_on_random(seed=20240817, trials=120):
    rng = random.Random(seed)
    for _ in range(trials):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
        diag = check_snf(mat)
        assert diag == smith_diagonal_naive(mat)
        assert diag == smith_diagonal(mat)


def test_kernel_basis_is_exact(seed=7, trials=60):
    rng = random.Random(seed)
    for _ in range(trials):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        ker = kernel_basis(mat)
        for v in ker:
            assert mat_vec(mat, v) == [0] * nr
        # random integer kernel elements must be integer combos of the basis
        for v in ker:
            w = [3 * x for x in v]
            coords = solve_integer(
                [[kv[i] for kv in ker] for i in range(nc)], w
            )
            assert coords is not None


def test_solve_integer():
    assert solve_integer([[2, 0], [0, 3]], [4, 9]) == [2, 3]
    assert solve_integer([[2]], [3]) is None
    assert solve_integer([[2, 3]], [1]) is not None


def test_lattice_basis_spans():
    vecs = [[2, 0], [0, 2], [1, 1]]
    basis = lattice_basis(vecs, 2)
    mat = [[b[i] for b in basis] for i in range(2)]
    for v in vecs:
        assert solve_integer(mat, v) is not None
    # index of the lattice spanned by (2,0),(0,2),(1,1) in Z^2 is 2
    d = smith_diagonal(mat)
    prod = 1
    for x in d:
        prod *= x
    assert prod == 2


def test_cokernel_diagonal():
    tor, rank = cokernel_diagonal([[2, 0], [0, 3]], 2)
    assert tor == [6] and rank == 0
    tor, rank = cokernel_diagonal([[4], [0]], 2)
    assert tor == [4] and rank == 1
