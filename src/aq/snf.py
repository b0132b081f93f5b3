"""Exact integer matrix kernel: Smith normal form and lattice utilities.

Everything here works on plain integer matrices (lists of row lists) with
Python's arbitrary-precision ints, so no overflow is possible.  Two
independent Smith reductions are provided: `smith_normal_form` (the primary
one, tracking unimodular transforms) and `smith_diagonal_naive` (a second,
deliberately separate reduction used only to cross-check invariants).

This is the one home of the integer linear algebra every other module
uses.  Outside this module a map between free or presented modules is
kept only as sparse columns: per source generator, the (row, entry)
pairs of its nonzero entries.  Dense rows appear only at the kernel's
entry points, and `cols_to_matrix` is the one converter that builds them
from sparse columns.  The entry points are `smith_normal_form`,
`smith_diagonal` and `cokernel_diagonal` for invariants, and
`kernel_basis`, `lattice_basis`, `IntegerSolver` (an integer solution of
mat @ x == rhs, or None) and `invert_unimodular` for lattices; besides
them `identity_matrix`, `mat_mul` and `mat_vec` multiply the dense
matrices the kernel returns.  `rank_mod_p` reads sparse columns directly:
it is the rank over Z/p by column elimination, which is all that the
homology group of a complex of (Z/p)^g levels needs
(`presented.homology_groups`), as the Smith diagonal without transforms
is all that one of free levels needs.

Pivot rule of `smith_normal_form`: at step k the pivot is the entry of
least absolute value in the trailing submatrix, the first such entry in
row-major order; a +-1 is taken as soon as the search meets it, since no
entry is smaller.  Pivot row and column are cleared by Euclidean steps,
the pivot is re-searched while a remainder survives, and an entry not
divisible by the pivot (never one when the pivot is 1) has its row added
to the pivot row.  Rows and transforms are stored sparsely while the
elimination runs.  The same rule fixes U, D and V whichever of them are
built, and each entry point builds only the transforms it reads: none
for `smith_diagonal` and `cokernel_diagonal`, V for `kernel_basis` and
`lattice_basis`, U for `presented.Subquotient` and
`Presentation.diagonalized`, both for `IntegerSolver`,
which keeps them as sparse columns so that a solve touches only the
columns picked out by the nonzero entries of its right-hand side.
"""

from __future__ import annotations

from .errors import AlgebraError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def cols_to_matrix(cols, rows):
    """The dense matrix with `rows` rows whose sparse columns are `cols`
    (per column the (row, entry) pairs of its nonzero entries), as the
    kernel's entry points read it."""
    mat = [[0] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            mat[i][j] = x
    return mat


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


def _axpy(dst, src, c):
    """dst += c * src on sparse vectors ({index: nonzero entry} dicts)."""
    for j, x in src.items():
        y = dst.get(j, 0) + c * x
        if y:
            dst[j] = y
        else:
            del dst[j]


def _dense(vecs, n):
    """The length-n dense lists of the sparse vectors `vecs`."""
    out = []
    for vec in vecs:
        row = [0] * n
        for j, x in vec.items():
            row[j] = x
        out.append(row)
    return out


def smith_normal_form(mat, *, want_u=True, want_v=True):
    """Return (U, D, V) with U*mat*V == D, U and V unimodular.

    D is diagonal with nonnegative entries in divisibility order (each
    entry divides the next; zeros come last).  The reduction always pivots
    on the globally smallest entry of the trailing submatrix (the first one
    in row-major order), and absorbs divisibility offenders into the pivot
    row, which keeps intermediate entries small.  U (V) is built only when
    `want_u` (`want_v`) is set and is None otherwise; the ones built do not
    depend on which were asked for.
    """
    nr = len(mat)
    nc = len(mat[0]) if mat else 0
    # rows of the working matrix and of U, columns of V, all sparse
    a = [{j: x for j, x in enumerate(row) if x} for row in mat]
    u = [{i: 1} for i in range(nr)] if want_u else None
    v = [{j: 1} for j in range(nc)] if want_v else None

    def pivot_search(k):
        # rows >= k are zero left of column k.  The first row holding the
        # smallest |entry|, at its leftmost such column, is the row-major
        # first minimum; a unit in a row is a minimum, so stop there.
        best = None
        for i in range(k, nr):
            row = a[i]
            if row:
                m = min(map(abs, row.values()))
                if m == 1 or best is None or m < best[0]:
                    j = min(j for j, x in row.items() if x == m or x == -m)
                    if m == 1:
                        return i, j
                    best = (m, i, j)
        return best and best[1:]

    k = 0
    while k < min(nr, nc):
        piv = pivot_search(k)
        if piv is None:
            break
        i, j = piv
        if i != k:
            a[i], a[k] = a[k], a[i]
            if u:
                u[i], u[k] = u[k], u[i]
        if j != k:
            for row in a[k:]:
                x, y = row.pop(j, 0), row.pop(k, 0)
                if x:
                    row[k] = x
                if y:
                    row[j] = y
            if v:
                v[j], v[k] = v[k], v[j]
        row_k = a[k]
        if row_k[k] < 0:
            a[k] = row_k = {j: -x for j, x in row_k.items()}
            if u:
                u[k] = {j: -x for j, x in u[k].items()}
        p = row_k[k]

        # one folding pass; if anything survives, re-search the pivot
        # (its absolute value strictly decreased).  Each row (column)
        # operation reads only the pivot row (column), so their order
        # does not matter.
        changed = False
        for i in range(k + 1, nr):
            row = a[i]
            if k in row:
                q = row[k] // p
                if q:
                    _axpy(row, row_k, -q)
                    if u:
                        _axpy(u[i], u[k], -q)
                changed = changed or k in row
        col_k = [row for row in a[k:] if k in row]
        for j, x in list(row_k.items()):
            if j == k:
                continue
            q = x // p
            if q:
                for row in col_k:
                    y = row.get(j, 0) - q * row[k]
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                if v:
                    _axpy(v[j], v[k], -q)
            changed = changed or j in row_k
        if changed:
            continue
        # row and column are clear; make the pivot divide the rest
        # (nothing fails to be divisible by 1)
        if p != 1:
            offender = next((i for i in range(k + 1, nr)
                             if any(x % p for x in a[i].values())), None)
            if offender is not None:
                _axpy(row_k, a[offender], 1)
                if u:
                    _axpy(u[k], u[offender], 1)
                continue
        k += 1

    # global-min pivoting with offender absorption already yields the
    # divisibility chain, and every pivot was made positive
    d = [[0] * nc for _ in range(nr)]
    for t in range(min(nr, nc)):
        d[t][t] = a[t].get(t, 0)
    if u:
        u = _dense(u, nr)
    if v:
        v = [list(r) for r in zip(*_dense(v, nc))]
    return u, d, v


def smith_diagonal(mat):
    """Diagonal entries of the Smith form (nonzero ones only)."""
    _, d, _ = smith_normal_form(mat, want_u=False, want_v=False)
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


def rank_mod_p(cols, p):
    """The rank over Z/p, p prime, of the integer matrix with sparse
    columns `cols` (per column the (row, entry) pairs of its nonzero
    entries; a row may repeat, its entries add up).

    Gaussian elimination on the columns, with no transforms: each column
    is reduced by the pivot columns kept so far, always at its lowest
    row, and is kept as a pivot, scaled to 1 at that row, when anything
    survives."""
    pivots = {}
    for col in cols:
        acc = {}
        for i, x in col:
            acc[i] = acc.get(i, 0) + x
        vec = {i: x % p for i, x in acc.items() if x % p}
        while vec:
            r = min(vec)
            piv = pivots.get(r)
            if piv is None:
                inv = pow(vec[r], -1, p)
                pivots[r] = {i: x * inv % p for i, x in vec.items()}
                break
            c = vec[r]
            for i, x in piv.items():
                y = (vec.get(i, 0) - c * x) % p
                if y:
                    vec[i] = y
                else:
                    del vec[i]
    return len(pivots)


def kernel_basis(mat, cols=None):
    """Basis (list of integer vectors) of the lattice {x : mat @ x == 0}."""
    nr = len(mat)
    nc = cols if cols is not None else (len(mat[0]) if mat else 0)
    if nc == 0:
        return []
    if nr == 0:
        return identity_matrix(nc)
    _, d, v = smith_normal_form(mat, want_u=False)
    out = []
    for j in range(nc):
        dj = d[j][j] if j < min(nr, nc) else 0
        if dj == 0:
            out.append([v[i][j] for i in range(nc)])
    return out


def _sparse_cols(m, nc):
    """Column j of the dense matrix m as a list of its (row, entry) pairs."""
    cols = [[] for _ in range(nc)]
    for i, row in enumerate(m):
        for j, x in enumerate(row):
            if x:
                cols[j].append((i, x))
    return cols


class IntegerSolver:
    """Factors a matrix once so many mat @ x == rhs solves stay cheap.

    U and V are kept as sparse columns, so a solve costs the nonzeros of
    the columns that the nonzero entries of rhs (and of y) pick out.
    """

    def __init__(self, mat):
        self.nr = len(mat)
        self.nc = len(mat[0]) if mat else 0
        if self.nr:
            u, d, v = smith_normal_form(mat)
            self.u_cols = _sparse_cols(u, self.nr)
            self.diag = [d[t][t] for t in range(min(self.nr, self.nc))]
            self.v_cols = _sparse_cols(v, self.nc)

    def solve(self, rhs):
        if self.nr == 0:
            return [0] * self.nc
        # U rhs, then y = D^-1 U rhs, then V y
        ub = {}
        for j, x in enumerate(rhs):
            if x:
                for i, c in self.u_cols[j]:
                    ub[i] = ub.get(i, 0) + c * x
        diag = self.diag
        out = [0] * self.nc
        for i, b in ub.items():
            if not b:
                continue
            di = diag[i] if i < len(diag) else 0
            if di == 0 or b % di:
                return None
            yi = b // di
            for r, c in self.v_cols[i]:
                out[r] += c * yi
        return out


def lattice_basis(vectors, dim):
    """Basis of the lattice spanned by `vectors` (each of length dim).

    With U*A*V = D for the matrix A of the vectors, column j of A*V is
    d_j * U^-1 e_j, so the basis is read off V without inverting U."""
    if not vectors:
        return []
    _, d, v = smith_normal_form([list(row) for row in zip(*vectors)],
                                want_u=False)
    out = []
    for j in range(min(dim, len(vectors))):
        if d[j][j] != 0:
            col = [0] * dim
            for vec, vrow in zip(vectors, v):
                c = vrow[j]
                if c:
                    for i, x in enumerate(vec):
                        col[i] += c * x
            out.append(col)
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
    if len(mat) != ambient_rank:
        raise AlgebraError(
            f"cokernel_diagonal: {len(mat)} rows for ambient rank {ambient_rank}")
    _, d, _ = smith_normal_form(mat, want_u=False, want_v=False)
    tor = []
    rank = ambient_rank
    for t in range(min(len(d), len(d[0]))):
        dt = d[t][t]
        if dt != 0:
            rank -= 1
            if dt > 1:
                tor.append(dt)
    return tor, rank
