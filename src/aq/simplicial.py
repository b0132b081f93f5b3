"""Simplicial machinery: simplicial objects in three flavors (free/finite
algebras, presented abelian groups, free modules over a registered ring),
Moore homotopy and cohomotopy, the Dold-Kan correspondence, matching
objects, extended Eilenberg-MacLane objects, and the diagonal and total
complex of a bisimplicial abelian group.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .abgroups import FGAbelianGroup, FinAb, invariants_from_addition
from .algebras import (
    AlgebraError,
    AlgebraMap,
    find_isomorphism,
    quotient_by_normal_closure,
)
from .beck import XModule, fox_columns, semidirect_product
from .presented import (
    Presentation,
    _apply_columns,
    cohomology_groups,
    homology_groups,
    homology_of_complex,
)
from .rings import (
    CoefficientModule,
    Ring,
    _act_matrix,
    element_key,
    r_matrix_to_z,
    with_coefficients,
    z_presentation,
)

__all__ = [
    "SimplicialTheta", "SimplicialAbelian",
    "SimplicialFreeModule", "ChainComplex", "PresentedComplex",
    "dold_kan", "normalize_dk", "moore_homotopy", "nondegenerate_cells",
    "cohomotopy", "CosimplicialAbelian", "matching", "eilenberg_maclane",
    "BisimplicialAbelian", "diag", "total_complex",
]


class SimplicialIdentityError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# containers

class _SimplicialBase:
    """levels[n] and the truncation; a flavor keeps the faces d_i: level
    n -> n-1 and the degeneracies s_j: n -> n+1.

    A flavor supplies the hooks `_identity_maps()` (faces, degens),
    `_compose(outer, inner)`, `_identity_on(n)` and
    `_maps_equal(m1, m2, src_level, tgt_level)`."""

    def __init__(self, levels, truncation):
        self.levels = list(levels)
        self.truncation = truncation

    def check_identities(self):
        """All five simplicial identity families, mechanically, within the
        truncation; raises SimplicialIdentityError naming the failure."""
        t = self.truncation
        d, s = self._identity_maps()
        for n in range(2, t + 1):
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    lhs = self._compose(d[n - 1][i], d[n][j])
                    rhs = self._compose(d[n - 1][j - 1], d[n][i])
                    if not self._maps_equal(lhs, rhs, n, n - 2):
                        raise SimplicialIdentityError(
                            f"d_{i} d_{j} != d_{j-1} d_{i} at level {n}"
                        )
        for n in range(0, t):
            for j in range(n + 1):
                for i in range(n + 2):
                    lhs = self._compose(d[n + 1][i], s[n][j])
                    if i == j or i == j + 1:
                        rhs = self._identity_on(n)
                    elif i < j:
                        rhs = self._compose(s[n - 1][j - 1], d[n][i])
                    else:
                        rhs = self._compose(s[n - 1][j], d[n][i - 1])
                    if not self._maps_equal(lhs, rhs, n, n):
                        raise SimplicialIdentityError(
                            f"d_{i} s_{j} identity fails at level {n}"
                        )
        for n in range(0, t - 1):
            for i in range(n + 1):
                for j in range(i, n + 1):
                    lhs = self._compose(s[n + 1][i], s[n][j])
                    rhs = self._compose(s[n + 1][j + 1], s[n][i])
                    if not self._maps_equal(lhs, rhs, n, n + 2):
                        raise SimplicialIdentityError(
                            f"s_{i} s_{j} != s_{j+1} s_{i} at level {n}"
                        )


class SimplicialTheta(_SimplicialBase):
    """Simplicial algebras over a group-like theory; levels are FreeAlgebra
    (resolutions) or FiniteAlgebra (Eilenberg-MacLane objects), maps are
    AlgebraMaps."""

    def __init__(self, theory, levels, faces, degens, truncation,
                 augmentation=None):
        super().__init__(levels, truncation)
        self.faces = [list(f) if f else [] for f in faces]
        self.degens = [list(s) if s else [] for s in degens]
        self.theory = theory
        self.augmentation = augmentation  # AlgebraMap level0 -> X
        self._abelianizations = {}  # relative? -> SimplicialFreeModule

    def is_free_levelwise(self):
        return all(lv.is_free() for lv in self.levels)

    def _identity_maps(self):
        return self.faces, self.degens

    def _compose(self, outer: AlgebraMap, inner: AlgebraMap):
        src = inner.source
        sort = src.theory.sorts[0]
        if src.is_free():
            # a one-letter image g^+1 goes to the outer image of g
            outer_images, words = outer.mapping[sort], inner.mapping[sort]
            images = {
                g: outer_images[w[0][0]] if len(w := words[g]) == 1
                and w[0][1] == 1 else outer.apply_free_element(w)
                for g in src.generators[sort]
            }
            return AlgebraMap.from_generator_images(src, outer.target, images)
        mapping = {
            s: {x: outer.mapping[s][y] for x, y in m.items()}
            for s, m in inner.mapping.items()
        }
        return AlgebraMap(src, outer.target, mapping, check=False)

    def _identity_on(self, n):
        lv = self.levels[n]
        sort = lv.theory.sorts[0]
        if lv.is_free():
            return AlgebraMap.from_generator_images(
                lv, lv, {g: lv.gen(g) for g in lv.generators[sort]}
            )
        return AlgebraMap(
            lv, lv, {s: {x: x for x in lv.carriers[s]} for s in lv.theory.sorts},
            check=False,
        )

    def _maps_equal(self, m1, m2, n, tgt_level):
        lv = self.levels[n]
        sort = lv.theory.sorts[0]
        if lv.is_free():
            return all(
                m1.mapping[sort][g] == m2.mapping[sort][g]
                for g in lv.generators[sort]
            )
        return m1.mapping == m2.mapping

    def structure_maps(self, top):
        """The canonical maps level n -> X for n <= top: the augmentation,
        then each one after d_0 of the level above it."""
        if self.augmentation is None:
            raise AlgebraError(
                "structure map: the simplicial algebra has no augmentation")
        chain = [self.augmentation]
        for k in range(1, top + 1):
            chain.append(self._compose(chain[-1], self.faces[k][0]))
        return chain

    def abelianization(self, relative):
        """The abelianization of a free simplicial algebra: the free
        simplicial module on the same generators, over Z, or over Z[X]
        through the structure maps when `relative`.  Its columns are the
        sparse Fox derivatives of the faces and degeneracies
        (`fox_columns`).  Built once per object."""
        if relative not in self._abelianizations:
            sort = self.theory.sorts[0]
            over = (self.structure_maps(self.truncation) if relative
                    else [None] * (self.truncation + 1))
            ring = Ring("Z")
            if relative:
                x = self.augmentation.target
                ring = x.group_ring(sort)
            faces = [[]] + [
                [fox_columns(d, over=over[n - 1]) for d in self.faces[n]]
                for n in range(1, self.truncation + 1)
            ]
            degens = [
                [fox_columns(s, over=over[n + 1]) for s in self.degens[n]]
                for n in range(self.truncation)
            ] + [[]]
            ranks = [len(lv.generators[sort]) for lv in self.levels]
            self._abelianizations[relative] = SimplicialFreeModule(
                ring, ranks, faces, degens, self.truncation)
        return self._abelianizations[relative]


class _MatrixSimplicial(_SimplicialBase):
    """A flavor whose maps are matrices on generators with entries in
    `ring` (integers unless a subclass says otherwise), kept as sparse
    columns only: faces[n][i][j] lists the (row, entry) pairs of the
    nonzero entries of d_i on generator j of level n, degens[n][j] those
    of s_j on level n, rows numbered by the target level's generators."""

    ring = Ring("Z")

    def __init__(self, levels, faces, degens, truncation):
        super().__init__(levels, truncation)
        self._columns = ([list(f) for f in faces], [list(s) for s in degens])

    def columns(self):
        """(faces, degens) as sparse columns, in the form the constructor
        takes them."""
        return self._columns

    def _identity_maps(self):
        return self._columns

    def _compose(self, outer, inner):
        """outer . inner, one column per column of `inner`.  A unit inner
        column is the outer column it picks, the same object, uncopied;
        the others (all of them over Z/m, which reduces entries) are the
        {row: entry} dicts of `_compose_columns`."""
        if self.ring.kind == "Zmod":
            return _compose_columns(outer, inner, self.ring)
        one = self.ring.one()
        return [outer[col[0][0]] if len(col) == 1 and col[0][1] == one
                else _compose_columns(outer, [col], self.ring)[0]
                for col in inner]

    def _identity_on(self, n):
        one = self.ring.one()
        return [[(j, one)] for j in range(self.levels[n].gens)]


def _compose_columns(outer, inner, ring):
    """outer . inner on sparse columns, as one {row: entry} dict of the
    nonzero entries per column of `inner`.  Integer entries (reduced mod m
    over Z/m), or group-ring entries composed as left-module maps: the
    coefficient of the inner map multiplies on the left.  An inner column
    that is one entry equal to the ring's one, as nearly every Dold-Kan
    degeneracy column is, picks a copy of one outer column.  Columns hold
    each row at most once and only nonzero entries."""
    one = ring.one()
    out = []
    if ring.kind == "ZG":
        for col in inner:
            if len(col) == 1 and col[0][1] == one:
                out.append(dict(outer[col[0][0]]))
                continue
            acc = {}
            for t, a in col:
                for i, b in outer[t]:
                    acc[i] = ring.add(acc.get(i, {}), ring.mul(a, b))
            out.append({i: x for i, x in acc.items() if x})
        return out
    m = ring.m if ring.kind == "Zmod" else 0
    for col in inner:
        if len(col) == 1 and col[0][1] == one:
            if m:
                out.append({i: x for i, b in outer[col[0][0]]
                            if (x := b % m)})
            else:
                out.append(dict(outer[col[0][0]]))
            continue
        acc = {}
        for t, a in col:
            for i, b in outer[t]:
                acc[i] = acc.get(i, 0) + a * b
        if m:
            acc = {i: x % m for i, x in acc.items()}
        out.append({i: x for i, x in acc.items() if x})
    return out


class SimplicialAbelian(_MatrixSimplicial):
    """Levels are presented Z-modules, maps are integer columns on
    generators.  The simplicial identities are checked modulo the
    relations of the target level."""

    def _maps_equal(self, m1, m2, src_level, tgt_level):
        return _equal_mod_relations(m1, m2, self.levels[tgt_level])


def _equal_mod_relations(m1, m2, target: Presentation):
    """Whether two integer maps into the presented module `target` agree
    column by column modulo its relations.  A column is a {row: entry}
    dict of its nonzero entries, or their (row, entry) pairs."""
    for a, b in zip(m1, m2):
        if a != b and dict(a) != dict(b):
            col = [0] * target.gens
            for i, x in dict(a).items():
                col[i] += x
            for i, x in dict(b).items():
                col[i] -= x
            if not target.contains_in_relations(col):
                return False
    return True


class SimplicialFreeModule(_MatrixSimplicial):
    """Levels are free modules over a registered ring; maps are sparse
    R-columns.  The simplicial identities are checked over R: entries
    compose in the ring and compare as ring elements (over Z/m, modulo
    m)."""

    _reduced = None

    def __init__(self, ring: Ring, ranks, faces, degens, truncation):
        super().__init__([Presentation.free(r) for r in ranks], faces, degens,
                         truncation)
        self.ring = ring
        self.ranks = list(ranks)

    def is_free_levelwise(self):
        return True

    def abelianization(self, relative):
        """A free simplicial module is its own abelianization, absolute or
        relative."""
        return self

    def _maps_equal(self, m1, m2, src_level, tgt_level):
        """Equal as they are, or column by column as {row: entry} dicts
        (a column is a dict or its (row, entry) pairs, in any order)."""
        return m1 == m2 or len(m1) == len(m2) and all(
            a == b or dict(a) == dict(b) for a, b in zip(m1, m2))

    def normalized_complex(self):
        """(ranks, diffs): the normalized (Moore) complex through the
        truncation, the alternating face sums as sparse R-columns on
        `nondegenerate_cells`; on every generator when the degeneracies
        single out none, which is the unnormalized complex, of the same
        homotopy type.  The free complex every coefficient route reads."""
        cells = nondegenerate_cells(self) or [range(r) for r in self.ranks]
        return [len(c) for c in cells], _alternating_columns(self, cells)

    def reduced_complex(self):
        """(ranks, diffs): `normalized_complex()` reduced by unit pivots
        (`reduce_by_units`), chain homotopy equivalent to it, and checked
        to square to zero.  Built once and kept."""
        if self._reduced is None:
            red = reduce_by_units(self.ring, *self.normalized_complex())
            check_square_zero(self.ring, red[1])
            self._reduced = red
        return self._reduced


# ---------------------------------------------------------------------------
# chain complexes

class ChainComplex:
    """Nonnegatively graded complex of free modules over a ring;
    diffs[n]: degree n -> n-1 as sparse columns, per generator of degree
    n the (row, entry) pairs of its nonzero entries, rows numbered by the
    generators of degree n-1."""

    def __init__(self, ring: Ring, ranks, diffs):
        self.ring = ring
        self.ranks = list(ranks)
        self.diffs = [None] + [
            [list(c) for c in d] for d in diffs[1:]
        ] if diffs else [None]
        self.validate()

    def validate(self):
        """Each differential has a column per generator of its degree and
        rows within the rank below, and d d = 0 (`check_square_zero`)."""
        for n in range(1, len(self.ranks)):
            d = self.diffs[n]
            if len(d) != self.ranks[n] or any(
                not 0 <= i < self.ranks[n - 1] for col in d for i, _ in col
            ):
                raise AlgebraError(f"differential {n} has the wrong shape")
        check_square_zero(self.ring, self.diffs)

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.diffs[1:] == other.diffs[1:]
        )


class PresentedComplex:
    """Nonnegatively graded complex of presented Z-modules; diffs[n]:
    level n -> n-1 as sparse columns, one per generator of level n, rows
    numbered by the generators of level n-1 (diffs[0] is None)."""

    ring = Ring("Z")

    def __init__(self, levels, diffs):
        self.levels = list(levels)
        self.diffs = list(diffs)

    @property
    def ranks(self):
        return [lv.gens for lv in self.levels]

    def homology(self, degrees):
        return homology_groups(self.levels, self.diffs, degrees)

    def homology_subquotients(self, degrees):
        return homology_of_complex(self.levels, self.diffs, degrees)

    def __eq__(self, other):
        return (
            isinstance(other, PresentedComplex)
            and [(p.gens, p.rels) for p in self.levels]
            == [(p.gens, p.rels) for p in other.levels]
            and self.diffs[1:] == other.diffs[1:]
        )


# ---------------------------------------------------------------------------
# Dold-Kan

def surjections(n, k):
    """Monotone surjections [n] ->> [k] as value tuples, lexicographic: one
    per choice of the k steps (out of n) at which the value goes up."""
    return sorted(
        tuple(sum(1 for p in steps if p <= i) for i in range(n + 1))
        for steps in combinations(range(1, n + 1), k)
    )


@lru_cache(maxsize=None)
def dk_summands(n, top):
    """Summand index ((sigma, k), ...) of a Dold-Kan level at degree n."""
    return tuple((sigma, k) for k in range(min(n, top) + 1)
                 for sigma in surjections(n, k))


def _delta_coface(i, m):
    """The injection [m] -> [m+1] missing i, as a value tuple."""
    return tuple(v if v < i else v + 1 for v in range(m + 1))


def _sigma_codegen(j, m):
    """The surjection [m+1] -> [m] repeating j."""
    return tuple(v if v <= j else v - 1 for v in range(m + 2))


def _factor_epi_mono(values):
    """values: a monotone map [m] -> [k]; factor as delta . tau.

    Returns (tau values tuple, image tuple)."""
    image = sorted(set(values))
    rank = {v: i for i, v in enumerate(image)}
    tau = tuple(rank[v] for v in values)
    return tau, tuple(image)


def _dk_block(sigma, k, alpha):
    """Target summand and kind ('id' | 'd' | None) of the alpha-component
    out of summand (sigma, k)."""
    composite = tuple(sigma[a] for a in alpha)
    tau, image = _factor_epi_mono(composite)
    if image == tuple(range(k + 1)):
        return (tau, k), "id"
    if image == tuple(range(k)):
        return (tau, k - 1), "d"
    return None, None


@lru_cache(maxsize=None)
def _dk_plan(n, top, alpha):
    """The structure map alpha: [m] -> [n] of a Dold-Kan object on a
    complex of length `top`, summand by summand: (targets, kinds), per
    summand of level n in `dk_summands` order the index of its target
    summand at level m and the kind of its block ('id', 'd' or None).  It
    depends on the shape alone, so each is worked out once per process."""
    index = {sm: t for t, sm in enumerate(dk_summands(len(alpha) - 1, top))}
    blocks = [_dk_block(sigma, k, alpha) for sigma, k in dk_summands(n, top)]
    return (tuple(index[target] if kind else None for target, kind in blocks),
            tuple(kind for _, kind in blocks))


def dold_kan(cx, truncation=None):
    """The Dold-Kan simplicial object of a nonnegative chain complex.

    Accepts a ChainComplex (free modules over a ring) or a
    PresentedComplex, and tags the result with its summand layout so that
    normalize_dk can extract the complex back exactly.  The faces and
    degeneracies are built as sparse columns from the cached per-shape
    plans (`_dk_plan`): an 'id' block is a unit column per generator, a
    'd' block the shifted columns of the differential.
    """
    size, one = cx.ranks, cx.ring.one()
    top = len(size) - 1
    trunc = truncation if truncation is not None else top + 1

    layouts = [dk_summands(n, top) for n in range(trunc + 1)]
    starts = []
    for layout in layouts:
        pos = 0
        starts.append([])
        for _, k in layout:
            starts[-1].append(pos)
            pos += size[k]

    def structure_columns(n, alpha):
        first = starts[len(alpha) - 1]
        targets, kinds = _dk_plan(n, top, alpha)
        cols = []
        for (_, k), target, kind in zip(layouts[n], targets, kinds):
            if kind == "id":
                r0 = first[target]
                cols += [[(r0 + j, one)] for j in range(size[k])]
            elif kind == "d":
                r0 = first[target]
                cols += [[(r0 + i, x) for i, x in col]
                         for col in cx.diffs[k]]
            else:
                cols += [[] for _ in range(size[k])]
        return cols

    faces = [[]] + [
        [structure_columns(n, _delta_coface(i, n - 1)) for i in range(n + 1)]
        for n in range(1, trunc + 1)
    ]
    degens = [
        [structure_columns(n, _sigma_codegen(j, n)) for j in range(n + 1)]
        for n in range(trunc)
    ] + [[]]

    if isinstance(cx, PresentedComplex):
        levels = []
        for n in range(trunc + 1):
            acc = None
            for p in (cx.levels[k] for _, k in layouts[n]):
                acc = p if acc is None else acc.direct_sum(p)
            levels.append(acc if acc is not None else Presentation.free(0))
        out = SimplicialAbelian(levels, faces, degens, trunc)
    else:
        out = SimplicialFreeModule(
            cx.ring, [sum(size[k] for _, k in layout) for layout in layouts],
            faces, degens, trunc)
    out.dk_source = cx
    out.dk_offsets = [dict(zip(layout, first))
                      for layout, first in zip(layouts, starts)]
    return out


def normalize_dk(v):
    """Inverse of dold_kan on tagged objects: extract the normalized
    complex, which reproduces the source complex on the nose, from the
    face columns."""
    if not hasattr(v, "dk_source"):
        raise AlgebraError("normalize_dk needs a Dold-Kan tagged object")
    cx = v.dk_source
    size = cx.ranks
    faces, _ = v.columns()
    out_diffs = [None]
    for k in range(1, len(size)):
        # component of d_k from the identity summand at level k to the
        # identity summand at level k-1
        r0 = v.dk_offsets[k - 1][(tuple(range(k)), k - 1)]
        c0 = v.dk_offsets[k][(tuple(range(k + 1)), k)]
        out_diffs.append([[(i - r0, x) for i, x in faces[k][k][c0 + j]
                           if r0 <= i < r0 + size[k - 1]]
                          for j in range(size[k])])
    if isinstance(cx, PresentedComplex):
        return PresentedComplex(cx.levels, out_diffs)
    return ChainComplex(cx.ring, size, out_diffs)


def eilenberg_maclane_complex(group: FGAbelianGroup, n) -> PresentedComplex:
    """The complex with one group concentrated in degree n."""
    levels = [Presentation.free(0) for _ in range(n)] + [
        Presentation.from_moduli(list(group.torsion) + [0] * group.rank)
    ]
    diffs = [None] + [[[] for _ in range(levels[k].gens)]
                      for k in range(1, n + 1)]
    return PresentedComplex(levels, diffs)


def k_object(group: FGAbelianGroup, n, truncation=None):
    """K(A, n) as a simplicial abelian object."""
    return dold_kan(eilenberg_maclane_complex(group, n),
                    truncation=truncation or n + 2)


# ---------------------------------------------------------------------------
# Moore homotopy and cohomotopy

def nondegenerate_cells(v):
    """Per level, the indices of the generators that no degeneracy hits,
    when every degeneracy column of `v` (a SimplicialAbelian or a
    SimplicialFreeModule) is a single entry equal to the ring's one; else
    None.  Then the degenerate part of level n is
    spanned by the hit generators, so the normalized complex lives on the
    others.  Read from the degeneracy matrices alone."""
    one = v.ring.one()
    _, degens = v.columns()
    out = []
    for n, lv in enumerate(v.levels):
        hit = set()
        for s in degens[n - 1] if n >= 1 else []:
            for col in s:
                if len(col) != 1 or col[0][1] != one:
                    return None
                hit.add(col[0][0])
        out.append([i for i in range(lv.gens) if i not in hit])
    return out


def _level_relations(v, n, cells):
    """The sparse relation columns of level n of `v` restricted to the
    generators `cells`, rows numbered by their position in `cells`, and
    the columns left empty dropped: none for a free module, the level's
    own for a presented one."""
    if isinstance(v, SimplicialFreeModule):
        return []
    pos = {i: r for r, i in enumerate(cells)}
    return [r for r in ([(pos[i], x) for i, x in col if i in pos]
                        for col in v.levels[n].rels) if r]


def _restricted_complex(v, cells, rels):
    """The presented complex on the generators cells[n] of each level of
    `v`, modulo the relation columns rels[n] over the ring, whose
    differential at n is the alternating sum of the sparse face columns
    restricted to cells[n-1] x cells[n]; both realized over Z once."""
    return _realize(v.ring, [len(c) for c in cells], rels,
                    _alternating_columns(v, cells))


def _alternating_columns(v, cells):
    """Per level n >= 1 (None at 0), the sparse columns of the alternating
    sum of the faces of `v` restricted to cells[n-1] x cells[n]: per
    generator of cells[n], the (row, entry) pairs of its nonzero entries,
    rows numbered by their position in cells[n-1]."""
    ring = v.ring
    zero = ring.zero()
    faces, _ = v.columns()
    out = [None]
    for n in range(1, len(cells)):
        pos = {i: r for r, i in enumerate(cells[n - 1])}
        cols = []
        for j in cells[n]:
            acc = {}
            for k, face in enumerate(faces[n]):
                for i, entry in face[j]:
                    r = pos.get(i)
                    if r is not None:
                        acc[r] = ring.add(acc.get(r, zero), entry if k % 2 == 0
                                          else ring.neg(entry))
            cols.append([(r, x) for r, x in sorted(acc.items())
                         if not ring.is_zero(x)])
        out.append(cols)
    return out


def _realize(ring, ranks, rels, diffs):
    """The presented complex over Z of a complex of R-modules: level n is
    R^ranks[n] modulo the sparse relation columns rels[n], and diffs[n]
    are the sparse columns of the differential at n, as
    `_alternating_columns` gives them; each realized by `r_matrix_to_z`."""
    levels = [z_presentation(ring, r, rel) for r, rel in zip(ranks, rels)]
    out = [None] + [r_matrix_to_z(ring, diffs[n], ranks[n - 1])
                    for n in range(1, len(ranks))]
    return PresentedComplex(levels, out)


def reduce_by_units(ring, ranks, diffs):
    """A complex of free R-modules reduced by Gaussian elimination on unit
    entries of R (`Ring.unit_inverse`); the result is chain homotopy
    equivalent to it over R, so every additive functor gives it the same
    homology.

    ranks[n] is the rank in degree n and diffs[n] (n >= 1; diffs[0] is
    None) the sparse columns of d_n, as `_alternating_columns` gives them.
    From the top degree down, each column j of d_n in turn pivots on its
    unit entry u whose row i has the fewest entries (then the lowest i).
    Every other column k becomes d[.][k] - d[i][k] u^-1 d[.][j], and
    generator j of degree n and generator i of degree n-1 go, with row j
    of d_{n+1} and column i of d_{n-1}.  An entry r acts as x -> x r
    (`r_matrix_to_z`), so matrices compose in the opposite ring: that
    product order is the one that keeps d d = 0 (`check_square_zero`).
    Returns (ranks, diffs) in the same form."""
    zero = ring.zero()
    cols = [None] + [[dict(c) for c in d] for d in diffs[1:]]
    alive = [[True] * r for r in ranks]
    for n in range(len(ranks) - 1, 0, -1):
        d = cols[n]
        live = [j for j in range(ranks[n]) if alive[n][j]]
        rows = {}
        for j in live:
            for i in d[j]:
                rows.setdefault(i, set()).add(j)
        for j in live:
            col = d[j]
            best = None
            for i, u in col.items():
                inv = ring.unit_inverse(u)
                if inv is not None and (best is None or (len(rows[i]), i)
                                        < (len(rows[best[0]]), best[0])):
                    best = (i, inv)
            if best is None:
                continue
            i, inv = best
            neg_inv = ring.neg(inv)
            others = [(r, e) for r, e in col.items() if r != i]
            for r in col:
                rows[r].discard(j)
            for k in rows.pop(i):
                dk = d[k]
                f = ring.mul(dk.pop(i), neg_inv)
                for r, e in others:
                    x = ring.add(dk.get(r, zero), ring.mul(f, e))
                    if not ring.is_zero(x):
                        if r not in dk:
                            rows[r].add(k)
                        dk[r] = x
                    elif r in dk:
                        del dk[r]
                        rows[r].discard(k)
            alive[n][j] = alive[n - 1][i] = False
    pos = [{j: p for p, j in enumerate(j for j, a in enumerate(flags) if a)}
           for flags in alive]
    out = [None] + [
        [sorted((pos[n - 1][i], x) for i, x in cols[n][j].items()
                if i in pos[n - 1]) for j in pos[n]]
        for n in range(1, len(ranks))]
    return [len(p) for p in pos], out


def check_square_zero(ring, diffs):
    """Raise an AlgebraError naming the degree unless d_n d_{n+1} = 0 for
    every pair of the sparse differentials `diffs` (composed as
    `_compose_columns` composes simplicial maps)."""
    for n in range(1, len(diffs) - 1):
        if any(_compose_columns(diffs[n], diffs[n + 1], ring)):
            raise AlgebraError(
                f"d_{n} d_{n + 1} is not zero in degree {n}")


def trim_top(ranks, diffs, top):
    """A complex of free modules (ranks, diffs) through level `top`, its
    top differential cut to its distinct nonzero columns, in their order.
    Every degree n below the top keeps its groups, since it reads level
    n + 1 only through im d_{n+1}: H_n(F (x) K) through its image, and
    H^n(Hom(F, K)) through ker delta^n = Hom(F_n / im d_{n+1}, K).  The
    groups of the top degree itself change."""
    ranks, diffs = list(ranks[:top + 1]), list(diffs[:top + 1])
    top = len(ranks) - 1
    if top:
        seen, cols = set(), []
        for col in diffs[top]:
            key = tuple((i, element_key(x)) for i, x in col)
            if col and key not in seen:
                seen.add(key)
                cols.append(col)
        ranks[top], diffs[top] = len(cols), cols
    return ranks, diffs


def reduced_quotient(v, top):
    """The reduced complex of a SimplicialFreeModule `v`
    (`SimplicialFreeModule.reduced_complex`) through level `top`, read
    there only through its image (`trim_top`), realized over Z."""
    ranks, diffs = trim_top(*v.reduced_complex(), top)
    return _realize(v.ring, ranks, [[]] * len(ranks), diffs)


def _normalized_quotient(v, top):
    """The normalized (Moore) complex of a SimplicialAbelian or
    SimplicialFreeModule through level `top`, with the alternating-sum
    differential, and per level the generator indices it lives on.

    On the nondegenerate generators (`nondegenerate_cells`) level n is the
    quotient by the degenerate ones: free over the ring on the others, or
    presented by its relations restricted to them.  Otherwise every
    generator stays, modulo the degenerate images (`_degenerate_quotient`).
    """
    cells = nondegenerate_cells(v)
    if cells is None:
        return _degenerate_quotient(v, top)
    cells = cells[:top + 1]
    rels = [_level_relations(v, n, c) for n, c in enumerate(cells)]
    return _restricted_complex(v, cells, rels), cells


def _degenerate_quotient(v, top):
    """The degenerate-image quotient complex through level `top`, and per
    level its generator indices: every generator, modulo the level's
    relations and the degeneracy columns, each realized over Z as the
    submodule it spans (closed under the ring's Z-basis)."""
    _, degens = v.columns()
    cells = [range(lv.gens) for lv in v.levels[:top + 1]]
    rels = []
    for n, c in enumerate(cells):
        cols = _level_relations(v, n, c)
        for s in degens[n - 1] if n >= 1 else []:
            cols += s
        rels.append(cols)
    return _restricted_complex(v, cells, rels), cells


def _alternating_sum(maps):
    """The alternating sum maps[0] - maps[1] + ... of integer maps given
    as sparse columns, column by column."""
    out = []
    for cols in zip(*maps):
        acc = {}
        for k, col in enumerate(cols):
            for i, x in col:
                acc[i] = acc.get(i, 0) + (-x if k % 2 else x)
        out.append([(i, x) for i, x in sorted(acc.items()) if x])
    return out


def require_levels(v, degrees):
    """Raise an AlgebraError naming the degree and the truncation unless
    `v` has level max(degrees) + 1, where the boundaries of the top degree
    (or the coboundaries out of it) come from."""
    top = max(degrees, default=-1)
    if top + 1 > v.truncation:
        raise AlgebraError(
            f"degree {top} needs level {top + 1}, above the truncation "
            f"{v.truncation}")


def moore_homotopy(v, degrees):
    """Homotopy groups of a simplicial abelian object: homology of the
    normalized (Moore) complex, built through level max(degrees) + 1;
    for a free simplicial module, of its reduced complex
    (`reduced_quotient`), which squares to zero over its ring
    (`check_square_zero`) and so over Z, and is not checked again.
    """
    require_levels(v, degrees)
    top = max(degrees, default=0)
    if isinstance(v, SimplicialFreeModule):
        quo = reduced_quotient(v, top + 1)
        return homology_groups(quo.levels, quo.diffs, degrees, checked=True)
    quo, _ = _normalized_quotient(v, top + 1)
    return quo.homology(degrees)


def unnormalized_homotopy(v, degrees):
    """Homology of the raw alternating-sum complex on every generator,
    modulo the level relations (cross-check route)."""
    cells = [range(lv.gens) for lv in v.levels]
    rels = [_level_relations(v, n, c) for n, c in enumerate(cells)]
    return _restricted_complex(v, cells, rels).homology(degrees)


class CosimplicialAbelian:
    """levels[n]: Presentation; cofaces[n]: list of n+2 maps level n ->
    level n+1; codegens[n]: list of maps level n -> n-1; every map as
    sparse columns, one per generator of its source."""

    def __init__(self, levels, cofaces, codegens, truncation):
        self.levels = list(levels)
        self.cofaces = [list(c) for c in cofaces]
        self.codegens = [list(c) for c in codegens]
        self.truncation = truncation

    def total_cochain_complex(self) -> PresentedComplex:
        """Unnormalized complex with delta = alternating coface sum,
        delta^n: level n-1 -> n stored at index n, as `cohomology_at`
        reads it."""
        diffs = [None]
        for n in range(1, self.truncation + 1):
            diffs.append(_alternating_sum(self.cofaces[n - 1]))
        return PresentedComplex(list(self.levels), diffs)


def cohomotopy(w: CosimplicialAbelian, degrees):
    """Cohomotopy of a cosimplicial abelian object: cohomology of the
    associated cochain complex."""
    top = max(degrees)
    if top + 1 > w.truncation:
        raise AlgebraError("truncation too small")
    cx = w.total_cochain_complex()
    return cohomology_groups(cx.levels, cx.diffs, degrees)


# ---------------------------------------------------------------------------
# matching objects

def matching(v, n):
    """The n-th matching object of a simplicial abelian object with finite
    levels: compatible tuples (x_0, ..., x_n) with d_i x_j = d_{j-1} x_i
    for i < j.

    Returns (invariants of M_n, comparison map level_n -> M_n bijective?).
    Levels must be finite; this is the dual finite limit, enumerated
    exhaustively: for n >= 2 the compatible tuples are built one coordinate
    at a time, each x_j looked up by its faces among the elements of level
    n-1 (`_compatible_tuples`), in the lexicographic order of
    product(level n-1, repeat=n+1) but without forming that product.
    """
    if v.ring.kind != "Z":
        raise AlgebraError("matching: the maps must be integer columns")
    if n == 0:
        lv = v.levels[0]
        return FGAbelianGroup(), lv.invariants().is_trivial()
    below = _elements_of_presented(v.levels[n - 1])
    # moduli of the face targets, once per level
    moduli = {level: _moduli_of(v.levels[level])
              for level in range(max(n - 2, 0), n)}
    mods_below = moduli[n - 1]
    faces, _ = v.columns()

    def face(level, i, vec):
        mods = moduli[level - 1]
        return tuple(x % m if m else x
                     for x, m in zip(_apply_columns(faces[level][i], vec,
                                                    len(mods)), mods))

    # level 0 has no faces, so M_1 = X_0 x X_0; above, each face image of
    # an element of level n-1 is computed once
    if n == 1:
        tuples = list(product(below, repeat=2))
    else:
        tuples = _compatible_tuples(
            below, [{x: face(n - 1, i, x) for x in below} for i in range(n)])

    def add_tuples(a, b):
        return tuple(
            tuple((x + y) % (m or 1) if m else x + y
                  for x, y, m in zip(va, vb, mods_below))
            for va, vb in zip(a, b)
        )

    zero = tuple(
        tuple(0 for _ in range(v.levels[n - 1].gens)) for _ in range(n + 1)
    )
    inv = invariants_from_addition(tuples, add_tuples, zero)
    # canonical comparison x -> (d_0 x, ..., d_n x)
    level_els = _elements_of_presented(v.levels[n])
    images = set()
    injective = True
    for x in level_els:
        img = tuple(face(n, i, x) for i in range(n + 1))
        if img in images:
            injective = False
        images.add(img)
    bijective = injective and len(images) == len(tuples) and \
        images == set(tuples)
    return inv, bijective


def _compatible_tuples(below, img):
    """The tuples (x_0, ..., x_n) of elements of `below` with
    d_i x_j = d_{j-1} x_i for i < j, where img[i][x] = d_i x (n = len(img)),
    in the lexicographic order of product(below, repeat=n + 1).

    Built one coordinate at a time: x_j extends a compatible prefix exactly
    when (d_0 x_j, ..., d_{j-1} x_j) is (d_{j-1} x_0, ..., d_{j-1} x_{j-1}),
    so it is looked up among the elements of `below` grouped by their first
    j faces.  Each prefix is extended in the order of `below`, which keeps
    the tuples in lexicographic order."""
    tuples = [(x,) for x in below]
    for j in range(1, len(img) + 1):
        by_faces = {}
        for x in below:
            by_faces.setdefault(tuple(img[i][x] for i in range(j)),
                                []).append(x)
        tuples = [t + (x,) for t in tuples
                  for x in by_faces.get(tuple(img[j - 1][y] for y in t), ())]
    return tuples


def _moduli_of(pres: Presentation):
    """Moduli of a presentation whose relations are diagonal (0 = free)."""
    mods = [0] * pres.gens
    for col in pres.rels:
        if len(col) != 1:
            raise AlgebraError(
                "matching: a level presentation is not diagonal")
        ((i, x),) = col
        mods[i] = abs(x)
    return mods


def _elements_of_presented(pres: Presentation):
    mods = _moduli_of(pres)
    if not all(mods):
        raise AlgebraError("matching: a level is infinite")
    return [tuple(t) for t in product(*(range(m) for m in mods))]


# ---------------------------------------------------------------------------
# extended Eilenberg-MacLane objects

def _power_xmodule(x, k: XModule, copies) -> XModule:
    """K^copies with the diagonal (blockwise) X-action."""
    moduli = list(k.carrier.moduli) * copies
    dim = len(k.carrier.moduli)
    action = {}
    for xe, mat in k.action.items():
        big = [[0] * (dim * copies) for _ in range(dim * copies)]
        for c in range(copies):
            for i in range(dim):
                for j in range(dim):
                    big[c * dim + i][c * dim + j] = mat[i][j]
        action[xe] = big
    return XModule(x, FinAb(moduli), action, name=f"{k.name}^{copies}")


VALIDATE_LEVEL_LIMIT = 80


def _lift(x, cols, src, src_mod, tgt, tgt_mod):
    """The map src -> tgt of semidirect levels that is the integer map
    with sparse columns `cols` on the module part and the identity on
    X."""
    sort = x.theory.sorts[0]
    moduli = tgt_mod.carrier.moduli
    mapping = {}
    for ke in src_mod.elements():
        img = tgt_mod.carrier.reduce(tuple(
            _apply_columns(cols, ke, len(moduli)))) if moduli else ()
        for xe in x.carriers[sort]:
            mapping[src.label_of[(ke, xe)]] = tgt.label_of[(img, xe)]
    return AlgebraMap(src, tgt, {sort: mapping}, check=False)


def _semidirect_object(x, k: XModule, n, kernel, name):
    """The simplicial algebra K^c x| X over a Dold-Kan object `kernel` whose
    level i has c copies of K's generators: levels, lifted faces and
    degeneracies, and the augmentation onto X."""
    trunc = kernel.truncation
    sort = x.theory.sorts[0]
    dim = len(k.carrier.moduli)
    mods = [_power_xmodule(x, k, lv.gens // dim if dim else 0)
            for lv in kernel.levels]
    levels = [
        semidirect_product(
            km, x, name=f"{name}{i}",
            validate=(km.carrier.order() * len(x.carriers[sort])
                      <= VALIDATE_LEVEL_LIMIT),
        )
        for i, km in enumerate(mods)
    ]

    def lift(i, cols, j):
        return _lift(x, cols, levels[i], mods[i], levels[j], mods[j])

    kfaces, kdegens = kernel.columns()
    faces = [[]] + [[lift(i, kfaces[i][a], i - 1) for a in range(i + 1)]
                    for i in range(1, trunc + 1)]
    degens = [[lift(i, kdegens[i][a], i + 1) for a in range(i + 1)]
              for i in range(trunc)] + [[]]
    aug = AlgebraMap(
        levels[0], x,
        {sort: {lab: levels[0].pair_of[lab][1]
                for lab in levels[0].carriers[sort]}},
        check=False,
    )
    obj = SimplicialTheta(x.theory, levels, faces, degens, trunc,
                          augmentation=aug)
    obj.kernel_part = kernel
    obj.xmodule = k
    obj.base = x
    obj.degree = n
    obj.level_xmodules = mods
    return obj


def eilenberg_maclane(x, k: XModule, n, truncation=None):
    """The extended Eilenberg-MacLane object E^X(K, n): levels X below n,
    K x| X at n, degenerate sums above, faces from the Dold-Kan image of
    the module concentrated in degree n, semidirect with constant X."""
    if n < 1:
        raise AlgebraError("eilenberg_maclane needs n >= 1")
    trunc = truncation if truncation is not None else n + 2
    kernel = k_object(k.invariants(), n, truncation=trunc)
    return _semidirect_object(x, k, n, kernel, "E")


def em_pi_checks(em):
    """Homotopy prescription of an EM object: kernel Moore homotopy is K
    concentrated in the defining degree; pi_0 of the total object is X."""
    n = em.degree
    top = em.truncation - 1
    kernel_pis = moore_homotopy(em.kernel_part, range(top + 1))
    expected = {
        i: (em.xmodule.invariants() if i == n else FGAbelianGroup())
        for i in range(top + 1)
    }
    pi0_ok = _pi0_is_x(em)
    return {
        "kernel_pis": kernel_pis,
        "kernel_ok": kernel_pis == expected,
        "pi0_ok": pi0_ok,
    }


def _pi0_is_x(em):

    sort = em.base.theory.sorts[0]
    lvl0, lvl1 = em.levels[0], em.levels[1]
    relators = []
    for y in lvl1.carriers[sort]:
        d0 = em.faces[1][0].mapping[sort][y]
        d1 = em.faces[1][1].mapping[sort][y]
        relators.append(lvl0.gmul(d0, lvl0.ginv(d1, sort), sort))
    quo, _ = quotient_by_normal_closure(lvl0, relators)
    return find_isomorphism(quo, em.base) is not None


# ---------------------------------------------------------------------------
# bisimplicial objects: diagonal and total complex

class BisimplicialAbelian:
    """levels[p][q]: Presentation; hfaces[p][q][i]: (p,q) -> (p-1,q);
    vfaces[p][q][j]: (p,q) -> (p,q-1); degeneracies likewise; every map
    as sparse columns, one per generator of its source."""

    def __init__(self, levels, hfaces, vfaces, hdegens, vdegens, truncation):
        self.levels = levels
        self.hfaces = hfaces
        self.vfaces = vfaces
        self.hdegens = hdegens
        self.vdegens = vdegens
        self.truncation = truncation


def bisimplicial_from_double_complex(columns, hdiffs, truncation):
    """DK in both directions of a first-quadrant double complex.

    columns[s] is a PresentedComplex (the s-th column, graded by t);
    hdiffs[s]: chain map columns[s] -> columns[s-1] given per degree t,
    each component as sparse columns.
    Vertically, each column goes through dold_kan; horizontally, so does
    each row q, the complex s -> verticals[s].levels[q] whose differentials
    are the Dold-Kan images of the horizontal chain maps.  The vertical
    structure maps of the verticals are chain maps between rows, and act
    on each horizontal level through their Dold-Kan images.
    """
    z = Ring("Z")
    for s in range(1, len(columns)):
        for t in range(1, len(columns[s].levels)):
            lhs = _compose_columns(columns[s - 1].diffs[t], hdiffs[s][t], z)
            rhs = _compose_columns(hdiffs[s][t - 1], columns[s].diffs[t], z)
            if len(lhs) != len(rhs) or not _equal_mod_relations(
                    lhs, rhs, columns[s - 1].levels[t - 1]):
                raise AlgebraError(
                    f"horizontal differential at ({s},{t}) is not a chain map"
                )
    verticals = [dold_kan(c, truncation=truncation) for c in columns]
    rows = [
        dold_kan(PresentedComplex(
            [v.levels[q] for v in verticals],
            [None] + [_dk_map(verticals[s], verticals[s - 1], hdiffs[s], q)
                      for s in range(1, len(verticals))],
        ), truncation=truncation)
        for q in range(truncation + 1)
    ]
    span = range(truncation + 1)

    def vertical(p, q, target, maps):
        # maps[s][i]: the i-th structure map of verticals[s] at level q; for
        # each i these form a chain map of rows, row q -> row target
        return [_dk_map(rows[q], rows[target], comps, p)
                for comps in zip(*maps)]

    vfaces = [[v.columns()[0][q] for v in verticals] if q else None
              for q in span]
    vdegens = [[v.columns()[1][q] for v in verticals] if q < truncation
               else None for q in span]
    return BisimplicialAbelian(
        [[rows[q].levels[p] for q in span] for p in span],
        [[rows[q].columns()[0][p] if p else None for q in span]
         for p in span],
        [[vertical(p, q, q - 1, vfaces[q]) if q else None for q in span]
         for p in span],
        [[rows[q].columns()[1][p] if p < truncation else None for q in span]
         for p in span],
        [[vertical(p, q, q + 1, vdegens[q]) if q < truncation else None
          for q in span] for p in span],
        truncation,
    )


def _dk_map(src_dk, tgt_dk, components, level):
    """Sparse columns at a simplicial level of the Dold-Kan image of a
    chain map src_dk.dk_source -> tgt_dk.dk_source whose degree-k
    component has the sparse columns components[k]: it maps each summand
    (sigma, k) to (sigma, k)."""
    tgt_off = tgt_dk.dk_offsets[level]
    out = [[] for _ in range(src_dk.levels[level].gens)]
    for summand, c0 in src_dk.dk_offsets[level].items():
        r0 = tgt_off.get(summand)
        if r0 is not None:
            for j, col in enumerate(components[summand[1]]):
                out[c0 + j] = [(r0 + i, x) for i, x in col]
    return out


def diag(b: BisimplicialAbelian) -> SimplicialAbelian:
    """The diagonal simplicial abelian object."""
    trunc = b.truncation
    levels = [b.levels[n][n] for n in range(trunc + 1)]

    def composite(outer, inner):
        return [sorted(col.items())
                for col in _compose_columns(outer, inner, Ring("Z"))]

    faces = [[]] + [
        [composite(b.hfaces[n][n - 1][i], b.vfaces[n][n][i])
         for i in range(n + 1)] for n in range(1, trunc + 1)]
    degens = [
        [composite(b.hdegens[n][n + 1][j], b.vdegens[n][n][j])
         for j in range(n + 1)] for n in range(trunc)] + [[]]
    return SimplicialAbelian(levels, faces, degens, trunc)


def total_complex(b: BisimplicialAbelian) -> PresentedComplex:
    """Unnormalized total complex of the bisimplicial double complex."""
    trunc = b.truncation
    levels = []
    offsets = []
    for m in range(trunc + 1):
        pres = None
        off = {}
        pos = 0
        for p in range(m + 1):
            q = m - p
            off[(p, q)] = pos
            piece = b.levels[p][q]
            pos += piece.gens
            pres = piece if pres is None else pres.direct_sum(piece)
        offsets.append(off)
        levels.append(pres if pres is not None else Presentation.free(0))
    diffs = [None]
    for m in range(1, trunc + 1):
        # the column of a generator of (p, q) is its horizontal image in
        # (p-1, q) above its vertical image in (p, q-1), signed (-1)^p
        cols = []
        for p in range(m + 1):
            q = m - p
            h = _alternating_sum(b.hfaces[p][q]) if p else None
            v = _alternating_sum(b.vfaces[p][q]) if q else None
            rh = offsets[m - 1].get((p - 1, q))
            rv = offsets[m - 1].get((p, q - 1))
            sgn = 1 if p % 2 == 0 else -1
            for j in range(b.levels[p][q].gens):
                cols.append(([(rh + i, x) for i, x in h[j]] if p else [])
                            + ([(rv + i, sgn * x) for i, x in v[j]] if q
                               else []))
        diffs.append(cols)
    return PresentedComplex(levels, diffs)


# ---------------------------------------------------------------------------
# Hom duals: the EM route's derivation complex and the adjointness identity

def _free_ranks(levels, what):
    """Ranks of free levels; Hom duals on generators need them free."""
    if any(lv.nrels() for lv in levels):
        raise AlgebraError(f"{what}: the Hom dual needs free levels")
    return [lv.gens for lv in levels]


def hom_cochain_of_simplicial(v, coeff: CoefficientModule):
    """Hom(v, K) for `v` on free levels (a free simplicial module, or a
    simplicial abelian group with free levels such as `diag(b)`) and a
    module K over its ring: the cosimplicial abelian group with
    C^n = K^{rank v_n}, cofaces dual to the faces and codegeneracies dual
    to the degeneracies (none out of C^0)."""
    trunc = v.truncation
    ranks = _free_ranks(v.levels[:trunc + 1], "hom_cochain_of_simplicial")
    levels = [Presentation.from_moduli(list(coeff.moduli) * rk)
              for rk in ranks]
    faces, degens = v.columns()

    def dual(mat, rows, cols):
        # mat: level cols -> level rows; its dual: C^rows -> C^cols
        return _act_matrix(mat, coeff, range(ranks[rows]), range(ranks[cols]),
                           dual=True)

    cofaces = [[dual(f, n, n + 1) for f in faces[n + 1]]
               for n in range(trunc)]
    codegens = [[]] + [[dual(s, n, n - 1) for s in degens[n - 1]]
                       for n in range(1, trunc + 1)]
    return CosimplicialAbelian(levels, cofaces, codegens, trunc)


def hom_bicomplex_total_cohomology(b: BisimplicialAbelian, moduli, degrees):
    """Cohomology of the total complex of Hom(b, G) (free levels) below
    the truncation: Hom of the total complex is the total complex of the
    Hom bicomplex, with the same blocks and signs."""
    if max(degrees) + 1 > b.truncation:
        raise AlgebraError("truncation too small")
    cx = total_complex(b)
    ranks = _free_ranks(cx.levels, "hom_bicomplex_total_cohomology")
    levels, deltas = with_coefficients(
        ranks, cx.diffs, CoefficientModule.trivial(Ring("Z"), moduli),
        len(ranks) - 1, dual=True)
    return cohomology_groups(levels, deltas, degrees)
