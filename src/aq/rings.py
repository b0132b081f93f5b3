"""Registered coefficient rings (Z, Z/m, group rings Z[G] for finite G),
their modules, free resolutions and Ext/Tor through them, and the
invariants of a presentation by the naive Smith reduction, an independent
oracle.
"""

from __future__ import annotations

from math import gcd

from .abgroups import FGAbelianGroup
from .errors import AlgebraError
from .presented import Presentation, cohomology_at, homology_of_complex
from .snf import (
    cols_to_matrix,
    identity_matrix,
    kernel_basis,
    mat_mul,
    smith_diagonal_naive,
)


class GroupTable:
    """A finite group as an explicit multiplication table."""

    def __init__(self, elements, mul, identity):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.identity = identity
        self.index = {g: i for i, g in enumerate(self.elements)}
        if any(self.mul.get((g, h)) not in self.index
               for g in self.elements for h in self.elements):
            raise AlgebraError("group table is not total on its elements")
        self.inv = {}
        for g in self.elements:
            for h in self.elements:
                if self.mul[(g, h)] == identity:
                    self.inv[g] = h
                    break
        if len(self.inv) != len(self.elements):
            raise AlgebraError("not a group table: an element has no inverse")
        self.abelian = all(self.mul[(g, h)] == self.mul[(h, g)]
                           for g in self.elements for h in self.elements)
        # rows[g] is h -> gh, a bijection of the elements for each g
        self.rows = {g: {h: self.mul[(g, h)] for h in self.elements}
                     for g in self.elements}

    @classmethod
    def cyclic(cls, m, prefix="g"):
        if m < 1:
            raise AlgebraError(f"a cyclic group needs order >= 1, not {m}")
        els = [f"{prefix}{i}" for i in range(m)]
        mul = {(els[i], els[j]): els[(i + j) % m] for i in range(m) for j in range(m)}
        return cls(els, mul, els[0])

    def order(self):
        return len(self.elements)


def element_key(x):
    """A hashable key of a ring element: a Z[G] element as its sorted
    (label, coefficient) pairs, an integer as itself."""
    return tuple(sorted(x.items())) if isinstance(x, dict) else x


class Ring:
    """Z, Z/m, or Z[G]; elements are ints (Z, Z/m) or {label: int} dicts
    of nonzero coefficients."""

    def __init__(self, kind, m=None, group: GroupTable | None = None):
        if kind not in ("Z", "Zmod", "ZG"):
            raise AlgebraError(f"unknown ring kind {kind!r}")
        if kind == "Zmod" and not (isinstance(m, int) and m >= 2):
            raise AlgebraError(f"Z/m needs an integer m >= 2, not {m!r}")
        if kind == "ZG" and group is None:
            raise AlgebraError("a group ring needs a group")
        self.kind = kind
        self.m = m
        self.group = group

    def __repr__(self):
        if self.kind == "Z":
            return "Z"
        if self.kind == "Zmod":
            return f"Z/{self.m}"
        return f"Z[{'x'.join(self.group.elements)}]"

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.m == other.m
            and (self.group is other.group
                 or (self.group and other.group
                     and self.group.elements == other.group.elements
                     and self.group.mul == other.group.mul))
        )

    def zero(self):
        return {} if self.kind == "ZG" else 0

    def one(self):
        if self.kind == "ZG":
            return {self.group.identity: 1}
        return 1

    def from_int(self, n):
        if self.kind == "ZG":
            return {self.group.identity: n} if n else {}
        return n % self.m if self.kind == "Zmod" else n

    def from_group_element(self, g):
        if self.kind != "ZG":
            raise AlgebraError(f"{self!r} is not a group ring")
        return {g: 1}

    def add(self, a, b):
        if self.kind == "ZG":
            if not a:
                return dict(b)
            out = dict(a)
            for g, c in b.items():
                out[g] = out.get(g, 0) + c
                if out[g] == 0:
                    del out[g]
            return out
        s = a + b
        return s % self.m if self.kind == "Zmod" else s

    def neg(self, a):
        if self.kind == "ZG":
            return {g: -c for g, c in a.items()}
        return (-a) % self.m if self.kind == "Zmod" else -a

    def mul(self, a, b):
        if self.kind == "ZG":
            rows = self.group.rows
            # a one-term factor permutes the other's support: no two of
            # its terms meet, and no coefficient vanishes
            if len(a) == 1:
                ((g, c),) = a.items()
                row = rows[g]
                return {row[h]: c * d for h, d in b.items()}
            if len(b) == 1:
                ((h, d),) = b.items()
                return {rows[g][h]: c * d for g, c in a.items()}
            out = {}
            for g, c in a.items():
                row = rows[g]
                for h, d in b.items():
                    gh = row[h]
                    out[gh] = out.get(gh, 0) + c * d
            return {g: c for g, c in out.items() if c}
        p = a * b
        return p % self.m if self.kind == "Zmod" else p

    def is_zero(self, a):
        if self.kind == "ZG":
            return not a
        return (a % self.m if self.kind == "Zmod" else a) == 0

    def unit_inverse(self, a):
        """The inverse of `a` when it is a unit of the ring, else None:
        +-1 over Z, u prime to m over Z/m, +-g over Z[G]."""
        if self.kind == "ZG":
            if len(a) == 1:
                ((g, c),) = a.items()
                if c in (1, -1):
                    return {self.group.inv[g]: c}
            return None
        if self.kind == "Zmod":
            return pow(a, -1, self.m) if gcd(a, self.m) == 1 else None
        return a if a in (1, -1) else None

    def zrank(self):
        """Rank of the ring as a free Z-module (Z/m handled separately)."""
        return self.group.order() if self.kind == "ZG" else 1

    def element_zcol(self, a):
        """Coefficient column of `a` in the Z-basis of the ring."""
        if self.kind == "ZG":
            return [a.get(g, 0) for g in self.group.elements]
        return [a]

    def zcol_element(self, col):
        if self.kind == "ZG":
            return {
                g: c for g, c in zip(self.group.elements, col) if c
            }
        x = col[0]
        return x % self.m if self.kind == "Zmod" else x

    def regular_block(self, a):
        """Matrix of left multiplication by `a` on the ring's Z-basis."""
        n = self.zrank()
        out = [[0] * n for _ in range(n)]
        if self.kind == "ZG":
            for j, h in enumerate(self.group.elements):
                prod = self.mul(a, {h: 1})
                for g, c in prod.items():
                    out[self.group.index[g]][j] = c
        else:
            out[0][0] = a
        return out


# ---------------------------------------------------------------------------
# modules over a ring

class RModulePresentation:
    """coker( R^nrels -> R^gens ); rels stored as columns of R-elements."""

    def __init__(self, ring: Ring, gens, rel_cols):
        self.ring = ring
        self.gens = gens
        self.rel_cols = [list(c) for c in rel_cols]
        if any(len(c) != gens for c in self.rel_cols):
            raise AlgebraError(
                f"RModulePresentation: a relation column is not of length {gens}")

    @classmethod
    def cyclic(cls, ring, annihilator: int):
        """R/(n) for an integer n (0 gives the free rank-1 module)."""
        if annihilator == 0:
            return cls(ring, 1, [])
        return cls(ring, 1, [[ring.from_int(annihilator)]])

    def z_presentation(self) -> Presentation:
        """Underlying Z-module presentation (Z/m relations made explicit)."""
        return z_presentation(self.ring, self.gens, [
            [(i, x) for i, x in enumerate(col) if x] for col in self.rel_cols])

    def invariants(self) -> FGAbelianGroup:
        return self.z_presentation().invariants()


class CoefficientModule:
    """A f.g. module over a registered ring, given by Z-moduli (0 = Z
    summand) plus explicit action matrices for the group-ring case."""

    def __init__(self, ring: Ring, moduli, act=None):
        self.ring = ring
        self.moduli = list(moduli)
        self.dim = len(moduli)
        self.act = dict(act) if act else {}
        if ring.kind == "ZG":
            for g in ring.group.elements:
                if g not in self.act:
                    raise AlgebraError(f"missing action matrix for {g}")
        if ring.kind == "Zmod":
            for m in self.moduli:
                if m == 0 or ring.m % m:
                    raise AlgebraError(
                        f"Z/{ring.m}-module carrier must be {ring.m}-torsion "
                        f"(modulus {m})")
        self._validate()

    def _validate(self):
        if self.ring.kind != "ZG":
            return

        def congruent(diff, m):
            return diff == 0 if m == 0 else diff % m == 0

        grp = self.ring.group
        ident = self.act[grp.identity]
        if not all(
            congruent(ident[i][j] - (1 if i == j else 0), self._mod(i))
            for i in range(self.dim)
            for j in range(self.dim)
        ):
            raise AlgebraError("identity must act as the identity")
        for g in grp.elements:
            for h in grp.elements:
                gh = grp.mul[(g, h)]
                prod = mat_mul(self.act[g], self.act[h])
                for i in range(self.dim):
                    m = self._mod(i)
                    for j in range(self.dim):
                        diff = prod[i][j] - self.act[gh][i][j]
                        if not congruent(diff, m):
                            raise AlgebraError("action is not multiplicative")

    def _mod(self, i):
        return self.moduli[i]

    @classmethod
    def trivial(cls, ring, moduli):
        dim = len(moduli)
        act = None
        if ring.kind == "ZG":
            ident = identity_matrix(dim)
            act = {g: ident for g in ring.group.elements}
        return cls(ring, moduli, act)

    def act_of(self, r):
        """Integer action matrix of an arbitrary ring element."""
        if self.ring.kind == "ZG":
            out = [[0] * self.dim for _ in range(self.dim)]
            for g, c in r.items():
                blk = self.act[g]
                for i in range(self.dim):
                    for j in range(self.dim):
                        out[i][j] += c * blk[i][j]
            return out
        return [[r if i == j else 0 for j in range(self.dim)] for i in range(self.dim)]


# ---------------------------------------------------------------------------
# free resolutions over a registered ring

def free_resolution(module: RModulePresentation, length):
    """(ranks, diffs): free R-modules F_len -> ... -> F_0 with coker(d_1)
    isomorphic to `module`; diffs[n] lists the sparse columns of d_n: per
    generator of F_n, the (row, entry) pairs of its nonzero entries, rows
    numbered by the generators of F_{n-1}.
    """
    ring = module.ring
    ranks = [module.gens]
    diffs = [None]
    current = module.rel_cols  # dense columns: one entry per generator
    for n in range(length):
        if n:  # the kernel of d_n spans the image of d_n+1
            current = _kernel_columns(ring, diffs[-1], ranks[-2])
        current = [c for c in current if not all(ring.is_zero(x) for x in c)]
        ranks.append(len(current))
        diffs.append([[(i, x) for i, x in enumerate(c) if x] for c in current])
    return ranks, diffs


def _kernel_columns(ring, cols, ambient_rank):
    """R-generating columns of the kernel of the map R^k -> R^ambient
    whose sparse columns are `cols`, as dense columns of R-elements."""
    k = len(cols)
    if k == 0:
        return []
    zr = ring.zrank()
    zcols = r_matrix_to_z(ring, cols, ambient_rank)
    if ring.kind == "Zmod":
        m = ring.m
        ker = kernel_basis(cols_to_matrix(
            zcols + [[(i, m)] for i in range(ambient_rank)], ambient_rank),
            k + ambient_rank)
        out = []
        seen = set()
        for v in ker:
            col = [x % m for x in v[:k]]
            if any(col):
                key = tuple(col)
                if key not in seen:
                    seen.add(key)
                    out.append(col)
        return out
    ker = kernel_basis(cols_to_matrix(zcols, ambient_rank * zr), k * zr)
    out = []
    for v in ker:
        col = []
        for i in range(k):
            col.append(ring.zcol_element(v[i * zr:(i + 1) * zr]))
        if not all(ring.is_zero(x) for x in col):
            out.append(col)
    return out


def r_matrix_to_z(ring, cols, rows):
    """Sparse Z-columns of the R-matrix with `rows` rows whose sparse
    columns are `cols`, a left-module map.  Over Z[G] an entry r becomes
    the block of x -> x * r on the basis G, which makes the realization
    multiplicative (coefficients multiply on the left); over Z and Z/m
    the entries are copied."""
    if ring.kind != "ZG":
        return list(cols)
    grp = ring.group
    n = grp.order()
    out = []
    for col in cols:
        for h in grp.elements:
            out.append(sorted((i * n + grp.index[grp.mul[(h, g)]], c)
                              for i, r in col for g, c in r.items() if c))
    return out


def z_presentation(ring, gens, rel_cols):
    """The Z-module presentation of R^gens modulo the sparse R-columns
    `rel_cols`: the R-multiples of each relation realized by
    `r_matrix_to_z`, and over Z/m the relations m * e_i as well."""
    cols = r_matrix_to_z(ring, rel_cols, gens)
    if ring.kind == "Zmod":
        cols += [[(i, ring.m)] for i in range(gens)]
    return Presentation(gens * ring.zrank(), cols)


# ---------------------------------------------------------------------------
# coefficients on free complexes: Ext, Tor and the AQ cochain route

def _act_matrix(mat, coeff, rows, cols, dual=False):
    """Sparse integer columns of the sparse R-matrix `mat`, restricted to
    rows x cols, acting on coefficient blocks: block (r, c) is the action
    of entry (rows[r], cols[c]), placed at (c, r) when `dual`.  Each
    distinct entry's block is worked out once per call.  - (x) coeff
    (not `dual`) acts on the right, k.r = antipode(r).k with g -> g^-1
    (Brown, GTM 87, III.1), which over an abelian group is the left action."""
    dim = coeff.dim
    group = coeff.ring.group
    antipode = not dual and group is not None and not group.abelian
    pos = {i: r for r, i in enumerate(rows)}
    out = [[] for _ in range((len(rows) if dual else len(cols)) * dim)]
    blocks = {}
    for c, j in enumerate(cols):
        for i, entry in mat[j]:
            r = pos.get(i)
            if r is None:
                continue
            key = element_key(entry)
            blk = blocks.get(key)
            if blk is None:
                act = coeff.act_of({group.inv[g]: x for g, x in entry.items()}
                                   if antipode else entry)
                blk = blocks[key] = [(a, b, x) for a, row in enumerate(act)
                                     for b, x in enumerate(row) if x]
            br, bc = (c, r) if dual else (r, c)
            for a, b, x in blk:
                out[bc * dim + b].append((br * dim + a, x))
    return out


def with_coefficients(ranks, diffs, coeff: CoefficientModule, top,
                      dual=False):
    """Through degree `top`, the levels and maps of the complex of free
    R-modules (ranks, diffs), its differentials as sparse columns,
    tensored with `coeff` (maps[n]: level n -> n-1), or of its Hom into
    `coeff` when `dual` (maps[n]: level n-1 -> n), the maps as sparse
    integer columns."""
    ranks = ranks[:top + 1]
    levels = [Presentation.from_moduli(list(coeff.moduli) * r) for r in ranks]
    maps = [None] + [
        _act_matrix(diffs[n], coeff, range(ranks[n - 1]), range(ranks[n]),
                    dual=dual) for n in range(1, len(ranks))]
    return levels, maps


def ext_groups(module: RModulePresentation, coeff: CoefficientModule, top):
    """Ext^n_R(module, coeff) for 0 <= n <= top, by resolution + SNF."""
    ranks, diffs = free_resolution(module, top + 1)
    levels, deltas = with_coefficients(ranks, diffs, coeff, top + 1,
                                       dual=True)
    return [cohomology_at(levels, deltas, n).invariants()
            for n in range(top + 1)]


def tor_groups(module: RModulePresentation, coeff: CoefficientModule, top):
    """Tor_n^R(module, coeff) for 0 <= n <= top."""
    ranks, diffs = free_resolution(module, top + 1)
    levels, bnds = with_coefficients(ranks, diffs, coeff, top + 1)
    groups = homology_of_complex(levels, bnds, range(top + 1))
    return [groups[n].invariants() for n in range(top + 1)]


# ---------------------------------------------------------------------------
# independent oracle

def invariants_naive(pres: Presentation) -> FGAbelianGroup:
    """Invariants using the second (naive) Smith reduction."""
    if pres.gens == 0:
        return FGAbelianGroup()
    if pres.nrels() == 0:
        return FGAbelianGroup(pres.gens)
    diag = smith_diagonal_naive(cols_to_matrix(pres.rels, pres.gens))
    rank = pres.gens - len(diag)
    return FGAbelianGroup.from_divisors([d for d in diag if d > 1] + [0] * rank)


class RingDescriptorError(ValueError):
    """A ring descriptor that names no registered ring."""


def parse_ring(text) -> Ring:
    """Ring descriptors: 'Z', 'Z/m' (m >= 2), 'Z[Cm]' (cyclic group ring,
    m >= 1)."""
    text = text.strip()
    if text == "Z":
        return Ring("Z")
    if text.startswith("Z/"):
        kind, digits, least = "Zmod", text[2:], 2
    elif text.startswith("Z[C") and text.endswith("]"):
        kind, digits, least = "ZG", text[3:-1], 1
    else:
        raise RingDescriptorError(
            f"unknown ring descriptor {text!r} (expected Z, Z/m or Z[Cm])")
    if not (digits.isascii() and digits.isdigit()) or int(digits) < least:
        raise RingDescriptorError(
            f"ring descriptor {text!r} needs an integer m >= {least}")
    if kind == "Zmod":
        return Ring("Zmod", m=int(digits))
    return Ring("ZG", group=GroupTable.cyclic(int(digits)))
