"""Finitely presented Z-modules, subquotients, and homology of complexes
of presented modules, with induced maps (functoriality) throughout.

Relations and maps are sparse columns: per relation, or per generator of
a map's source, the (row, entry) pairs of its nonzero entries.  Vectors
are dense, and so is what a Subquotient keeps for its solver.

Homology is read two ways.  A caller that needs only the isomorphism
class of each group (the certificate, Moore homotopy, homology with and
without coefficients, the cochain route, cohomotopy, the groups of an
E2 grid) takes `homology_groups` / `cohomology_groups`: one elimination
per differential, its Smith diagonal over free levels or its rank mod p
over (Z/p)^g levels, with no cycle lattice and no transforms.  A caller
that reads canonical coordinates (induced maps, the X-action, diagram
coefficients, the columns of an E2 grid) takes the Subquotients of
`homology_of_complex` / `cohomology_at`, and so do the oracles
(`bar_resolution_group`, `ext_groups`, `tor_groups`), so that they stay
independent of the elimination the main routes read.  Any other level,
such as Z/4 or Z + Z/2, goes through the Subquotient either way.
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, lcm

from .abgroups import FGAbelianGroup
from .errors import AlgebraError
from .snf import (
    IntegerSolver,
    _sparse_cols,
    cols_to_matrix,
    identity_matrix,
    invert_unimodular,
    kernel_basis,
    mat_vec,
    rank_mod_p,
    smith_diagonal,
    smith_normal_form,
)


class Presentation:
    """The Z-module Z^gens / (span of the relations).  Each relation is a
    sparse column, the (row, entry) pairs of its nonzero entries, and a
    module on no generators keeps none."""

    __slots__ = ("gens", "rels", "_solver")

    def __init__(self, gens, rels=()):
        self.gens = int(gens)
        self.rels = [list(col) for col in rels] if self.gens else []
        self._solver = None
        if any(not 0 <= i < self.gens for col in self.rels for i, _ in col):
            raise AlgebraError(
                f"Presentation: a relation has a row outside {gens} generators")

    @classmethod
    def from_moduli(cls, moduli):
        """Z/moduli[0] + Z/moduli[1] + ... (0 = Z): one relation column,
        of one entry, per nonzero modulus.  The relations are diagonal, so
        `diagonalized()` is known already."""
        pres = cls(len(moduli), [[(i, m)] for i, m in enumerate(moduli) if m])
        pres._solver = None, [abs(m) for m in moduli]
        return pres

    @classmethod
    def free(cls, rank):
        return cls(rank)

    def nrels(self):
        return len(self.rels)

    def invariants(self) -> FGAbelianGroup:
        if self.gens == 0:
            return FGAbelianGroup()
        return FGAbelianGroup.from_presentation_matrix(
            cols_to_matrix(self.rels, self.gens), self.gens)

    def diagonalized(self):
        """A pair (U, d) with U * (relation lattice) = d[0]Z + d[1]Z + ...,
        U unimodular and given as sparse columns of (row, entry) pairs,
        d of length `gens`.  Computed once per presentation.

        When every relation column has at most one nonzero entry (the m*I
        relations of from_moduli, say), the lattice already is the product
        of gcd(row i)*Z over the coordinates, and U is None (the identity);
        otherwise U and d come from one Smith reduction."""
        if self._solver is None:
            if all(len(col) <= 1 for col in self.rels):
                diag = [0] * self.gens
                for col in self.rels:
                    for i, x in col:
                        diag[i] = gcd(diag[i], x)
                self._solver = None, diag
            else:
                u, dmat, _ = smith_normal_form(
                    cols_to_matrix(self.rels, self.gens), want_v=False)
                diag = [dmat[t][t] if t < len(self.rels) else 0
                        for t in range(self.gens)]
                self._solver = _sparse_cols(u, self.gens), diag
        return self._solver

    def contains_in_relations(self, vec):
        """Is `vec` in the relation lattice (i.e. zero in the module)?
        A divisibility test per coordinate of U * vec."""
        ucols, diag = self.diagonalized()
        if ucols is not None:
            vec = _apply_columns(ucols, vec, self.gens)
        return all(x % m == 0 if m else x == 0 for x, m in zip(vec, diag))

    def direct_sum(self, other):
        shifted = [[(i + self.gens, x) for i, x in col] for col in other.rels]
        return Presentation(self.gens + other.gens, self.rels + shifted)

    def __repr__(self):
        return f"Presentation(gens={self.gens}, rels={self.nrels()})"


def _apply_columns(cols, vec, rows):
    """The image of the integer vector `vec` under the map with sparse
    columns `cols` into Z^rows."""
    out = [0] * rows
    for c, col in zip(vec, cols):
        if c:
            for r, x in col:
                out[r] += x * c
    return out


def _vectors(cols, rows):
    """The dense vectors in Z^rows of the sparse columns `cols`: the
    relation vectors that a Subquotient reads."""
    out = []
    for col in cols:
        vec = [0] * rows
        for i, x in col:
            vec[i] = x
        out.append(vec)
    return out


class Subquotient:
    """A subquotient L/B of Z^ambient: L spanned by `basis` columns,
    B by `rel_vectors` (ambient vectors that must lie in L).

    Provides canonical coordinates so that induced maps of chain maps can
    be written as sparse columns between canonical generator systems.
    """

    def __init__(self, ambient, basis_cols, rel_vectors):
        self.ambient = ambient
        self.basis = basis_cols  # list of length-`ambient` columns
        k = len(basis_cols)
        self._zmat = [list(row) for row in zip(*basis_cols)]
        rel_in_z = []
        for v in rel_vectors:
            y = self.express(v)
            if y is None:
                raise AlgebraError(
                    "Subquotient: relation vector not inside the subgroup lattice")
            rel_in_z.append(y)
        self.rels_z = rel_in_z
        self._generators = None
        if k:
            if rel_in_z:
                u, d, _ = smith_normal_form(
                    [list(row) for row in zip(*rel_in_z)], want_v=False)
                self._u = u
                self._diag = [
                    d[t][t] if t < min(len(d), len(d[0])) else 0 for t in range(k)
                ]
            else:
                self._u = identity_matrix(k)
                self._diag = [0] * k
        else:
            self._u = []
            self._diag = []

    def express(self, vec):
        """Coordinates of an ambient vector in the subgroup basis, or None."""
        if not self.basis:
            return [] if all(x == 0 for x in vec) else None
        solver = getattr(self, "_zsolver", None)
        if solver is None:
            solver = IntegerSolver(self._zmat)
            self._zsolver = solver
        return solver.solve(vec)

    def moduli(self):
        """The moduli of the canonical coordinates (`canon`), 0 for a free
        one, in order."""
        return [d for d in self._diag if d != 1]

    def invariants(self) -> FGAbelianGroup:
        tor = [d for d in self._diag if d > 1]
        rank = sum(1 for d in self._diag if d == 0)
        return FGAbelianGroup.from_divisors(tor + [0] * rank)

    def canon(self, vec):
        """Canonical reduced coordinates of an ambient vector (must lie in L)."""
        y = self.express(vec)
        if y is None:
            raise AlgebraError("Subquotient.canon: vector not in the cycle lattice")
        return self.canon_z(y)

    def canon_z(self, y):
        w = mat_vec(self._u, y) if self._u else []
        out = []
        for x, d in zip(w, self._diag):
            if d == 1:
                continue
            out.append(x % d if d else x)
        return tuple(out)

    def canonical_generators(self):
        """Ambient vectors generating the subquotient, matching canon coords.

        Computed once; callers read the returned vectors and never change them.
        """
        if self._generators is None:
            self._generators = []
            if self.basis:
                uinv = invert_unimodular(self._u)
                for j, d in enumerate(self._diag):
                    if d != 1:
                        y = [uinv[i][j] for i in range(len(self._diag))]
                        self._generators.append(mat_vec(self._zmat, y))
        return self._generators


def homology_of_complex(levels, diffs, degrees):
    """Homology of a presented-module chain complex.

    levels[n] is a Presentation; diffs[n] (for n >= 1) maps level n to
    level n-1, as sparse columns, one per generator of level n.  Returns
    {n: Subquotient} for n in `degrees`; each Subquotient lives in the
    ambient generators of level n.
    """
    out = {}
    for n in degrees:
        if n >= len(levels):
            raise AlgebraError(
                f"homology_of_complex: degree {n} beyond the {len(levels)} levels")
        out[n] = _homology_at(levels, diffs, n)
    return out


def cohomology_at(levels, deltas, n):
    """Cohomology at degree n of a cochain complex of presented modules
    (deltas[k]: level k-1 -> level k, as sparse columns, one per generator
    of level k-1), as a Subquotient of level n."""
    top = len(levels) - 1
    return homology_of_complex(*_flipped(levels, deltas), [top - n])[top - n]


def _flipped(levels, deltas):
    """The cochain complex read as a chain complex: its level top - n
    and the map out of it are level n and d_n of the result."""
    top = len(levels) - 1
    return (list(reversed(levels)),
            [None] + [deltas[k] for k in range(top, 0, -1)])


def _rows(cols, nrows, ucols=None):
    """The rows, as {column: entry} dicts, of U * m for the map m with
    sparse columns `cols` into Z^nrows and U given by its sparse columns
    `ucols` (the identity when None)."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for t, x in col:
            for i, c in ((t, 1),) if ucols is None else ucols[t]:
                row = rows[i]
                row[j] = row.get(j, 0) + c * x
    return rows


def cycle_lattice(pairs, g):
    """Basis of {v in Z^g : m v lies in the relation lattice of `target`
    for every (m, target) in `pairs`}, each m given by its g sparse
    columns; all of Z^g when nothing constrains v.

    With (U, d) = target.diagonalized(), the condition is (U m v)_i = 0
    where d_i = 0 and (U m v)_i = 0 mod d_i elsewhere.  The exact rows
    give a kernel basis K (the identity when there are none).  Each
    modular row, scaled by lam / d_i for lam the lcm of the moduli, times
    K is a row of N, and N w = 0 mod lam is to be solved for w.  With
    U' N V = S in Smith form, that holds iff s_j y_j = 0 mod lam for
    y = V^-1 w, so the lattice is K V diag(lam / gcd(lam, s_j)).
    """
    exact, modular = [], []
    for m, target in pairs:
        ucols, diag = target.diagonalized()
        for row, d in zip(_rows(m, target.gens, ucols), diag):
            if d == 0:
                exact.append([row.get(j, 0) for j in range(g)])
            elif d != 1:
                modular.append((row, d))
    basis = kernel_basis(exact, g) if exact else None
    if not modular:
        return identity_matrix(g) if basis is None else basis
    k = g if basis is None else len(basis)
    if k == 0:
        return []
    lam = lcm(*(d for _, d in modular))
    # per coordinate, the basis vectors nonzero there and their entries
    # (one unit vector each when there is no basis), so that a row of N
    # costs the basis entries at its own nonzeros
    if basis is None:
        at = [[(i, 1)] for i in range(g)]
    else:
        sparse = [[(i, b[i]) for i in compress(range(g), b)] for b in basis]
        at = [[] for _ in range(g)]
        for t, col in enumerate(sparse):
            for i, x in col:
                at[i].append((t, x))
    nmat = []
    for row, d in modular:
        scale = lam // d
        acc = [0] * k
        for i, x in row.items():
            for t, y in at[i]:
                acc[t] += scale * x * y
        nmat.append(acc)
    _, s, v = smith_normal_form(nmat, want_u=False)
    out = []
    for j in range(k):
        c = lam // gcd(lam, s[j][j] if j < len(nmat) else 0)
        if basis is None:
            out.append([c * v[i][j] for i in range(g)])
        else:
            vec = [0] * g
            for t, col in enumerate(sparse):
                y = c * v[t][j]
                if y:
                    for i, x in col:
                        vec[i] += y * x
            out.append(vec)
    return out


def common_prime(moduli):
    """p when every one of `moduli` is the one prime p, else 0."""
    p = moduli[0] if moduli and all(m == moduli[0] for m in moduli) else 0
    if p < 2 or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        return 0
    return p


def _level_kind(pres):
    """0 for a free level, p for (Z/p)^gens with p prime, -1 for any
    other presentation."""
    if not pres.rels:
        return 0
    if any(len(col) > 1 for col in pres.rels):
        return -1
    return common_prime(pres.diagonalized()[1]) or -1


def _composes_to_zero(dn, dn1, p):
    """Is d_n d_{n+1} zero (mod p when p is nonzero)?  Both are sparse
    columns, the rows of d_{n+1} numbering the columns of d_n."""
    for col in dn1:
        acc = {}
        for t, x in col:
            for r, y in dn[t]:
                acc[r] = acc.get(r, 0) + x * y
        if any(y % p if p else y for y in acc.values()):
            return False
    return True


def homology_groups(levels, diffs, degrees):
    """The homology groups {n: FGAbelianGroup} of the complex that
    `homology_of_complex` reads, from one elimination per differential,
    without transforms, shared by the two degrees that read it.

    Where levels n - 1 (when d_n is read) and n are free, H_n is
    Z^(g_n - rank d_n - rank d_{n+1}) plus the Smith diagonal entries
    > 1 of d_{n+1}.  Where both are (Z/p)^g for one prime p, H_n is
    (Z/p)^(g_n - rank_p d_n - rank_p d_{n+1}).  A level on no generators
    fits either kind.  Any other degree, and one where d_n d_{n+1} is not
    zero (mod p), is read from its Subquotient, which raises on the
    latter."""
    kinds = {}
    eliminated = {}

    def diff(k):
        return diffs[k] if 1 <= k < len(levels) and k < len(diffs) else None

    def kind(k):
        # None for a level on no generators, which fits either kind
        if k not in kinds:
            kinds[k] = _level_kind(levels[k]) if levels[k].gens else None
        return kinds[k]

    def elimination(k, p):
        # the rank mod p of d_k, or for p = 0 its nonzero Smith entries
        if (k, p) not in eliminated:
            eliminated[k, p] = (
                rank_mod_p(diffs[k], p) if p else
                smith_diagonal(cols_to_matrix(diffs[k], levels[k - 1].gens)))
        return eliminated[k, p]

    out = {}
    for n in degrees:
        if n >= len(levels):
            raise AlgebraError(
                f"homology_of_complex: degree {n} beyond the {len(levels)} levels")
        dn, dn1 = diff(n), diff(n + 1)
        read = {kind(k) for k in ((n - 1, n) if dn is not None else (n,))}
        read.discard(None)
        p = read.pop() if read else 0
        if read or p < 0 or (dn is not None and dn1 is not None
                              and not _composes_to_zero(dn, dn1, p)):
            out[n] = _homology_at(levels, diffs, n).invariants()
            continue
        reads = [k for k in (n, n + 1) if diff(k) is not None]
        g = levels[n].gens
        if p:
            out[n] = FGAbelianGroup(
                0, [p] * (g - sum(elimination(k, p) for k in reads)))
        else:
            out[n] = FGAbelianGroup(
                g - sum(len(elimination(k, 0)) for k in reads),
                [d for d in elimination(n + 1, 0) if d > 1]
                if dn1 is not None else [])
    return out


def cohomology_groups(levels, deltas, degrees):
    """The cohomology groups {n: FGAbelianGroup} of the cochain complex
    that `cohomology_at` reads, by `homology_groups` on the flipped
    complex."""
    top = len(levels) - 1
    flipped = homology_groups(*_flipped(levels, deltas),
                              [top - n for n in degrees])
    return {n: flipped[top - n] for n in degrees}


def _homology_at(levels, diffs, n):
    pn = levels[n]
    g = pn.gens
    if n == 0 or n >= len(diffs) or diffs[n] is None:
        cycles = identity_matrix(g)
    else:
        cycles = cycle_lattice([(diffs[n], levels[n - 1])], g)
    rel_cols = pn.rels
    if n + 1 < len(levels) and n + 1 < len(diffs) and diffs[n + 1] is not None:
        rel_cols = rel_cols + diffs[n + 1]
    return Subquotient(g, cycles, _vectors(rel_cols, g))


def induced_map(f, source: Subquotient, target: Subquotient):
    """The map induced on homology by a chain map component `f` (sparse
    columns, one per ambient generator of `source`), as sparse columns in
    canonical coordinates: one per canonical generator of `source`, rows
    numbered by the canonical coordinates of `target`."""
    return [[(i, x) for i, x in enumerate(
                target.canon(_apply_columns(f, gvec, target.ambient))) if x]
            for gvec in source.canonical_generators()]
