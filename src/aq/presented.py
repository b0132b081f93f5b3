"""Finitely presented Z-modules, subquotients, and homology of complexes
of presented modules, with induced maps (functoriality) throughout.
"""

from __future__ import annotations

from math import gcd, lcm

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
    smith_normal_form,
)


class Presentation:
    """The Z-module Z^gens / colspan(rels); rels has `gens` rows."""

    __slots__ = ("gens", "rels", "_solver")

    def __init__(self, gens, rels=None):
        self.gens = int(gens)
        self.rels = [list(r) for r in rels] if rels else [[] for _ in range(gens)]
        self._solver = None
        if len(self.rels) != self.gens and self.gens != 0:
            raise AlgebraError(
                f"Presentation: {len(self.rels)} relation rows for {gens} generators")

    @classmethod
    def from_moduli(cls, moduli):
        """Z/moduli[0] + Z/moduli[1] + ... (0 = Z): one relation column
        per nonzero modulus, built as its n x r rows directly.  The
        relations are diagonal, so `diagonalized()` is known already."""
        nonzero = [i for i, m in enumerate(moduli) if m != 0]
        rels = [[0] * len(nonzero) for _ in moduli]
        for c, i in enumerate(nonzero):
            rels[i][c] = moduli[i]
        pres = cls(len(moduli), rels)
        pres._solver = None, [abs(m) for m in moduli]
        return pres

    @classmethod
    def free(cls, rank):
        return cls(rank)

    def nrels(self):
        return len(self.rels[0]) if self.gens and self.rels and self.rels[0] else 0

    def rel_columns(self):
        return [[self.rels[i][j] for i in range(self.gens)] for j in range(self.nrels())]

    def invariants(self) -> FGAbelianGroup:
        if self.gens == 0:
            return FGAbelianGroup()
        return FGAbelianGroup.from_presentation_matrix(self.rels, self.gens)

    def diagonalized(self):
        """A pair (U, d) with U * (relation lattice) = d[0]Z + d[1]Z + ...,
        U unimodular and given as sparse columns of (row, entry) pairs,
        d of length `gens`.  Computed once per presentation.

        When every relation column has at most one nonzero entry (the m*I
        relations of from_moduli, say), the lattice already is the product
        of gcd(row i)*Z over the coordinates, and U is None (the identity);
        otherwise U and d come from one Smith reduction."""
        if self._solver is None:
            cols = self.rel_columns()
            if all(sum(1 for x in col if x) <= 1 for col in cols):
                self._solver = None, [gcd(*row) for row in self.rels]
            else:
                u, dmat, _ = smith_normal_form(self.rels, want_v=False)
                diag = [dmat[t][t] if t < len(cols) else 0
                        for t in range(self.gens)]
                self._solver = _sparse_cols(u, self.gens), diag
        return self._solver

    def contains_in_relations(self, vec):
        """Is `vec` in the relation lattice (i.e. zero in the module)?
        A divisibility test per coordinate of U * vec."""
        ucols, diag = self.diagonalized()
        if ucols is not None:
            vec = [row[0] for row in _transform(ucols, [[x] for x in vec], 1)]
        return all(x % m == 0 if m else x == 0 for x, m in zip(vec, diag))

    def direct_sum(self, other):
        gens = self.gens + other.gens
        cols = []
        for c in self.rel_columns():
            cols.append(c + [0] * other.gens)
        for c in other.rel_columns():
            cols.append([0] * self.gens + c)
        return Presentation(gens, cols_to_matrix(cols, gens))

    def __repr__(self):
        return f"Presentation(gens={self.gens}, rels={self.nrels()})"


class Subquotient:
    """A subquotient L/B of Z^ambient: L spanned by `basis` columns,
    B by `rel_vectors` (ambient vectors that must lie in L).

    Provides canonical coordinates so that induced maps of chain maps can
    be written as integer matrices between canonical generator systems.
    """

    def __init__(self, ambient, basis_cols, rel_vectors):
        self.ambient = ambient
        self.basis = basis_cols  # list of length-`ambient` columns
        k = len(basis_cols)
        self._zmat = cols_to_matrix(basis_cols, ambient)
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
                u, d, _ = smith_normal_form(cols_to_matrix(rel_in_z, k),
                                            want_v=False)
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
    level n-1, given on generators (shape g_{n-1} x g_n).  Returns
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
    (deltas[k]: level k-1 -> level k), as a Subquotient of level n."""
    # reuse the chain machinery by flipping the complex
    top = len(levels) - 1
    flipped_levels = list(reversed(levels))
    flipped_diffs = [None] + [deltas[k] for k in range(top, 0, -1)]
    return homology_of_complex(flipped_levels, flipped_diffs, [top - n])[top - n]


def _transform(ucols, rows, width):
    """U * rows, for U given as sparse columns and `rows` of length `width`."""
    out = [[0] * width for _ in ucols]
    for col, row in zip(ucols, rows):
        nz = [(j, x) for j, x in enumerate(row) if x]
        if nz:
            for i, c in col:
                out_i = out[i]
                for j, x in nz:
                    out_i[j] += c * x
    return out


def cycle_lattice(pairs, g):
    """Basis of {v in Z^g : m v lies in the relation lattice of `target`
    for every (m, target) in `pairs`}; all of Z^g when nothing constrains v.

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
        if ucols is not None:
            m = _transform(ucols, m, g)
        for row, d in zip(m, diag):
            if d == 0:
                exact.append(row)
            elif d != 1:
                modular.append((row, d))
    basis = kernel_basis(exact, g) if exact else None
    if not modular:
        return identity_matrix(g) if basis is None else basis
    k = g if basis is None else len(basis)
    if k == 0:
        return []
    lam = lcm(*(d for _, d in modular))
    nmat = []
    for row, d in modular:
        scale = lam // d
        if basis is None:
            nmat.append([scale * x for x in row])
        else:
            nz = [(i, x) for i, x in enumerate(row) if x]
            nmat.append([scale * sum(x * b[i] for i, x in nz) for b in basis])
    _, s, v = smith_normal_form(nmat, want_u=False)
    out = []
    for j in range(k):
        c = lam // gcd(lam, s[j][j] if j < len(nmat) else 0)
        if basis is None:
            out.append([c * v[i][j] for i in range(g)])
        else:
            col = [0] * g
            for t, b in enumerate(basis):
                y = c * v[t][j]
                if y:
                    for i, x in enumerate(b):
                        col[i] += y * x
            out.append(col)
    return out


def _homology_at(levels, diffs, n):
    pn = levels[n]
    g = pn.gens
    if n == 0 or n >= len(diffs) or diffs[n] is None:
        cycles = identity_matrix(g)
    else:
        cycles = cycle_lattice([(diffs[n], levels[n - 1])], g)
    rel_vectors = pn.rel_columns()
    if n + 1 < len(levels) and n + 1 < len(diffs) and diffs[n + 1] is not None:
        dup = diffs[n + 1]
        for j in range(levels[n + 1].gens):
            rel_vectors.append([dup[i][j] for i in range(g)])
    return Subquotient(g, cycles, rel_vectors)


def induced_map(f, source: Subquotient, target: Subquotient):
    """Matrix of the map induced on homology by a chain map component `f`
    (shape target_ambient x source_ambient), in canonical coordinates.
    """
    out = []
    for gvec in source.canonical_generators():
        v = mat_vec(f, gvec)
        out.append(list(target.canon(v)))
    # rows = target canonical coords
    if not out:
        return []
    return [list(col) for col in zip(*out)]
