"""Finitely presented Z-modules, subquotients, and homology of complexes
of presented modules, with induced maps (functoriality) throughout.
"""

from __future__ import annotations

from math import gcd

from .abgroups import FGAbelianGroup
from .errors import AlgebraError
from .snf import (
    IntegerSolver,
    cols_to_matrix,
    identity_matrix,
    invert_unimodular,
    kernel_basis,
    lattice_basis,
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
        n = len(moduli)
        rels = [[moduli[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rels = [
            [row[j] for j in range(n) if moduli[j] != 0] for row in rels
        ]
        return cls(n, rels)

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

    def contains_in_relations(self, vec):
        """Is `vec` in the relation lattice (i.e. zero in the module)?

        When every relation column has at most one nonzero entry (the m*I
        relations of from_moduli, say), the lattice is the product of
        gcd(row i)*Z over the coordinates and membership is a divisibility
        test; otherwise it is a solve, through one IntegerSolver."""
        if self.nrels() == 0:
            return all(x == 0 for x in vec)
        if self._solver is None:
            if all(sum(1 for x in col if x) <= 1 for col in self.rel_columns()):
                self._solver = [gcd(*row) for row in self.rels]
            else:
                self._solver = IntegerSolver(self.rels)
        if isinstance(self._solver, list):
            return all(x % m == 0 if m else x == 0
                       for x, m in zip(vec, self._solver))
        return self._solver.solve(vec) is not None

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


def cycle_lattice(pairs, g):
    """Basis of {v in Z^g : m v lies in the relation lattice of `target`
    for every (m, target) in `pairs`}; all of Z^g when nothing constrains v.
    """
    rels = [target.rel_columns() for _, target in pairs]
    width = g + sum(len(cols) for cols in rels)
    rows = []
    offset = g
    for (m, _), cols in zip(pairs, rels):
        for i, m_row in enumerate(m):
            row = list(m_row) + [0] * (width - g)
            for ci, col in enumerate(cols):
                row[offset + ci] = col[i]
            rows.append(row)
        offset += len(cols)
    if not rows:
        return identity_matrix(g)
    ker = kernel_basis(rows, width)
    return lattice_basis([v[:g] for v in ker], g)


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
