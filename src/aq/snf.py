"""Exact integer matrix kernel: Smith normal form and lattice utilities.

Everything here works on plain integer matrices (lists of row lists) with
Python's arbitrary-precision ints, so no overflow is possible.  Two
independent Smith reductions are provided: `smith_normal_form` (the primary
one, tracking unimodular transforms) and `smith_diagonal_naive` (a second,
deliberately separate reduction used only to cross-check invariants).

This is the one home of the integer linear algebra every other module
uses: `identity_matrix`, `cols_to_matrix`, `mat_mul` and `mat_vec` for
building and multiplying matrices; `smith_normal_form`, `smith_diagonal`
and `cokernel_diagonal` for invariants; `kernel_basis`, `lattice_basis`,
`IntegerSolver` / `solve_integer` and `invert_unimodular` for lattices.
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def cols_to_matrix(cols, rows):
    """The matrix with `rows` rows whose columns are `cols`."""
    if not cols:
        return [[] for _ in range(rows)]
    return [[c[i] for c in cols] for i in range(rows)]


def mat_mul(a, b, cols=None):
    """The product a @ b.  `cols` is the width of the product; it is only
    needed when b has no rows, so that its width cannot be read off."""
    n, k = len(a), len(b)
    m = cols if cols is not None else (len(b[0]) if b else 0)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def mat_vec(a, v):
    return [sum(c * x for c, x in zip(row, v)) for row in a]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _add_row(m, src, dst, c):
    # row dst += c * row src
    row_s, row_d = m[src], m[dst]
    for j in range(len(row_d)):
        row_d[j] += c * row_s[j]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_col(m, src, dst, c):
    # col dst += c * col src
    for row in m:
        row[dst] += c * row[src]


def smith_normal_form(mat):
    """Return (U, D, V) with U*mat*V == D, U and V unimodular.

    D is diagonal with nonnegative entries in divisibility order (each
    entry divides the next; zeros come last).  The reduction always pivots
    on the globally smallest entry of the trailing submatrix and absorbs
    divisibility offenders into the pivot row, which keeps intermediate
    entries small.
    """
    a = [list(row) for row in mat]
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def pivot_search(k):
        # smallest nonzero |entry| in the trailing submatrix, deterministic
        best = None
        for i in range(k, nr):
            for j in range(k, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    k = 0
    while k < min(nr, nc):
        piv = pivot_search(k)
        if piv is None:
            break
        i, j = piv
        if i != k:
            _swap_rows(a, i, k)
            _swap_rows(u, i, k)
        if j != k:
            _swap_cols(a, j, k)
            _swap_cols(v, j, k)
        if a[k][k] < 0:
            _negate_row(a, k)
            _negate_row(u, k)

        # one folding pass; if anything survives, re-search the pivot
        # (its absolute value strictly decreased)
        changed = False
        for i in range(k + 1, nr):
            if a[i][k]:
                q = a[i][k] // a[k][k]
                if q:
                    _add_row(a, k, i, -q)
                    _add_row(u, k, i, -q)
                changed = changed or a[i][k] != 0
        for j in range(k + 1, nc):
            if a[k][j]:
                q = a[k][j] // a[k][k]
                if q:
                    _add_col(a, k, j, -q)
                    _add_col(v, k, j, -q)
                changed = changed or a[k][j] != 0
        if changed:
            continue
        # row and column are clear; make the pivot divide the rest
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _add_row(a, offender, k, 1)
            _add_row(u, offender, k, 1)
            continue
        k += 1

    # global-min pivoting with offender absorption already yields the
    # divisibility chain; normalize signs
    for t in range(min(nr, nc)):
        if a[t][t] < 0:
            _negate_row(a, t)
            _negate_row(u, t)
    return u, a, v


def smith_diagonal(mat):
    """Diagonal entries of the Smith form (nonzero ones only)."""
    _, d, _ = smith_normal_form(mat)
    out = []
    for t in range(min(len(d), len(d[0]) if d else 0)):
        if d[t][t] != 0:
            out.append(d[t][t])
    return out


def smith_diagonal_naive(mat):
    """Second, independent Smith reduction (no transforms, gcd folding).

    Used only to cross-check `smith_normal_form`; shares no code with it.
    """
    a = [list(row) for row in mat]
    diag = []
    while a and a[0] and any(any(x for x in row) for row in a):
        while True:
            # minimal nonzero entry becomes the pivot candidate
            bi = bj = None
            for i, row in enumerate(a):
                for j, x in enumerate(row):
                    if x and (bi is None or abs(x) < abs(a[bi][bj])):
                        bi, bj = i, j
            p = a[bi][bj]
            # euclid its column and row
            moved = False
            for i in range(len(a)):
                if i != bi and a[i][bj]:
                    q = a[i][bj] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[bi])]
                    moved = moved or a[i][bj] != 0
            if moved:
                continue
            for j in range(len(a[0])):
                if j != bj and a[bi][j]:
                    q = a[bi][j] // p
                    for row in a:
                        row[j] -= q * row[bj]
                    moved = moved or a[bi][j] != 0
            if moved:
                continue
            # row and column are clean; force divisibility of the rest
            offender = None
            for i, row in enumerate(a):
                if i == bi:
                    continue
                for j, x in enumerate(row):
                    if x % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[bi] = [x + y for x, y in zip(a[bi], a[offender])]
        diag.append(abs(p))
        a = [[x for j, x in enumerate(row) if j != bj]
             for i, row in enumerate(a) if i != bi]
    # the offender-folding guarantees each pivot divides the rest, so the
    # chain is already in divisibility order; sort is a defensive no-op
    return sorted(diag)


def kernel_basis(mat, cols=None):
    """Basis (list of integer vectors) of the lattice {x : mat @ x == 0}."""
    nr = len(mat)
    nc = cols if cols is not None else (len(mat[0]) if mat else 0)
    if nc == 0:
        return []
    if nr == 0:
        return identity_matrix(nc)
    _, d, v = smith_normal_form(mat)
    out = []
    for j in range(nc):
        dj = d[j][j] if j < min(nr, nc) else 0
        if dj == 0:
            out.append([v[i][j] for i in range(nc)])
    return out


class IntegerSolver:
    """Factors a matrix once so many mat @ x == rhs solves stay cheap."""

    def __init__(self, mat):
        self.nr = len(mat)
        self.nc = len(mat[0]) if mat else 0
        if self.nr:
            self.u, self.d, self.v = smith_normal_form(mat)

    def solve(self, rhs):
        if self.nr == 0:
            return [0] * self.nc
        ub = mat_vec(self.u, rhs)
        y = [0] * self.nc
        for i in range(self.nr):
            di = self.d[i][i] if i < min(self.nr, self.nc) else 0
            if di == 0:
                if ub[i] != 0:
                    return None
            else:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
        return mat_vec(self.v, y)


def solve_integer(mat, rhs):
    """An integer solution x of mat @ x == rhs, or None."""
    return IntegerSolver(mat).solve(rhs)


def lattice_basis(vectors, dim):
    """Basis of the lattice spanned by `vectors` (each of length dim)."""
    if not vectors:
        return []
    u, d, _ = smith_normal_form(cols_to_matrix(vectors, dim))
    uinv = invert_unimodular(u)
    out = []
    for j in range(min(dim, len(vectors))):
        dj = d[j][j]
        if dj != 0:
            out.append([dj * uinv[i][j] for i in range(dim)])
    return out


def invert_unimodular(u):
    """Exact inverse of a unimodular integer matrix."""
    n = len(u)
    a = [list(row) + e for row, e in zip(u, identity_matrix(n))]
    # fraction-free Gauss-Jordan works since all pivots end up +-1
    for k in range(n):
        piv = None
        for i in range(k, n):
            if abs(a[i][k]) == 1:
                piv = i
                break
        if piv is None:
            for i in range(k, n):
                if a[i][k] != 0:
                    piv = i
                    break
            # reduce column k until a unit pivot appears
            while abs(a[piv][k]) != 1:
                col = [(abs(a[i][k]), i) for i in range(k, n) if a[i][k] != 0]
                col.sort()
                _, i0 = col[0]
                for _, i1 in col[1:]:
                    q = a[i1][k] // a[i0][k]
                    a[i1] = [x - q * y for x, y in zip(a[i1], a[i0])]
                piv = i0
        a[k], a[piv] = a[piv], a[k]
        if a[k][k] == -1:
            a[k] = [-x for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                q = a[i][k]
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def cokernel_diagonal(mat, ambient_rank):
    """Invariants of Z^ambient_rank / colspan(mat) as (torsion list, free rank).

    Torsion entries are > 1 in ascending divisibility order.
    """
    if not mat or not mat[0]:
        return [], ambient_rank
    assert len(mat) == ambient_rank
    _, d, _ = smith_normal_form(mat)
    tor = []
    rank = ambient_rank
    for t in range(min(len(d), len(d[0]))):
        dt = d[t][t]
        if dt != 0:
            rank -= 1
            if dt > 1:
                tor.append(dt)
    return tor, rank
