"""Registered coefficient rings (Z, Z/m, group rings Z[G] for finite G),
their modules, free resolutions, and the classical Hom/Ext/Tor formulas
over Z used as independent oracles.
"""

from __future__ import annotations

from math import gcd

from .abgroups import FGAbelianGroup
from .presented import Presentation, cohomology_at, homology_of_complex
from .snf import identity_matrix, kernel_basis, mat_mul, smith_diagonal_naive


class GroupTable:
    """A finite group as an explicit multiplication table."""

    def __init__(self, elements, mul, identity):
        self.elements = tuple(elements)
        self.mul = dict(mul)
        self.identity = identity
        self.index = {g: i for i, g in enumerate(self.elements)}
        self.inv = {}
        for g in self.elements:
            for h in self.elements:
                if self.mul[(g, h)] == identity:
                    self.inv[g] = h
                    break
        assert len(self.inv) == len(self.elements), "not a group table"

    @classmethod
    def cyclic(cls, m, prefix="g"):
        els = [f"{prefix}{i}" for i in range(m)]
        mul = {(els[i], els[j]): els[(i + j) % m] for i in range(m) for j in range(m)}
        return cls(els, mul, els[0])

    def order(self):
        return len(self.elements)


class Ring:
    """Z, Z/m, or Z[G]; elements are ints (Z, Z/m) or {label: int} dicts."""

    def __init__(self, kind, m=None, group: GroupTable | None = None):
        assert kind in ("Z", "Zmod", "ZG")
        self.kind = kind
        self.m = m
        self.group = group
        if kind == "Zmod":
            assert m and m >= 2
        if kind == "ZG":
            assert group is not None

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
        assert self.kind == "ZG"
        return {g: 1}

    def add(self, a, b):
        if self.kind == "ZG":
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
            out = {}
            for g, c in a.items():
                for h, d in b.items():
                    gh = self.group.mul[(g, h)]
                    out[gh] = out.get(gh, 0) + c * d
            return {g: c for g, c in out.items() if c}
        p = a * b
        return p % self.m if self.kind == "Zmod" else p

    def is_zero(self, a):
        if self.kind == "ZG":
            return not a
        return (a % self.m if self.kind == "Zmod" else a) == 0

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

    def right_regular_block(self, a):
        """Matrix of right multiplication r -> r * a on the ring's Z-basis.

        This is the Z-realization of the map generated by a matrix entry
        of a left-module homomorphism (coefficients multiply on the left),
        so free-module maps convert through it.
        """
        n = self.zrank()
        out = [[0] * n for _ in range(n)]
        if self.kind == "ZG":
            for j, h in enumerate(self.group.elements):
                prod = self.mul({h: 1}, a)
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
        for c in self.rel_cols:
            assert len(c) == gens

    @classmethod
    def cyclic(cls, ring, annihilator: int):
        """R/(n) for an integer n (0 gives the free rank-1 module)."""
        if annihilator == 0:
            return cls(ring, 1, [])
        return cls(ring, 1, [[ring.from_int(annihilator)]])

    def z_presentation(self) -> Presentation:
        """Underlying Z-module presentation (Z/m relations made explicit)."""
        r = self.ring
        zr = r.zrank()
        g = self.gens * zr
        cols = []
        basis = r.group.elements if r.kind == "ZG" else [None]
        for c in self.rel_cols:
            for b in basis:
                col = []
                for entry in c:
                    shifted = entry if b is None else r.mul({b: 1}, entry)
                    col.extend(r.element_zcol(shifted))
                cols.append(col)
        if r.kind == "Zmod":
            for i in range(g):
                cols.append([r.m if j == i else 0 for j in range(g)])
        mat = [[c[i] for c in cols] for i in range(g)] if cols else None
        return Presentation(g, mat)

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
                assert g in self.act, f"missing action matrix for {g}"
        if ring.kind == "Zmod":
            for m in self.moduli:
                assert m != 0 and ring.m % m == 0, \
                    "Z/m-module carrier must be m-torsion"
        self._validate()

    def _validate(self):
        if self.ring.kind != "ZG":
            return

        def congruent(diff, m):
            return diff == 0 if m == 0 else diff % m == 0

        grp = self.ring.group
        ident = self.act[grp.identity]
        assert all(
            congruent(ident[i][j] - (1 if i == j else 0), self._mod(i))
            for i in range(self.dim)
            for j in range(self.dim)
        ), "identity must act as the identity"
        for g in grp.elements:
            for h in grp.elements:
                gh = grp.mul[(g, h)]
                prod = mat_mul(self.act[g], self.act[h])
                for i in range(self.dim):
                    m = self._mod(i)
                    for j in range(self.dim):
                        diff = prod[i][j] - self.act[gh][i][j]
                        assert congruent(diff, m), \
                            "action is not multiplicative"

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

    @classmethod
    def group_ring(cls, ring):
        """Z[G] as a module over itself (free rank one)."""
        assert ring.kind == "ZG"
        n = ring.zrank()
        act = {g: ring.regular_block({g: 1}) for g in ring.group.elements}
        return cls(ring, [0] * n, act)

    def presentation(self) -> Presentation:
        return Presentation.from_moduli(self.moduli)

    def invariants(self) -> FGAbelianGroup:
        return FGAbelianGroup.from_divisors(self.moduli)

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
    isomorphic to `module`; diffs[n] is the R-matrix of d_n (rows index
    F_{n-1} generators).
    """
    ring = module.ring
    ranks = [module.gens]
    diffs = [None]
    current = [list(c) for c in module.rel_cols]  # columns: gens entries
    for _ in range(length):
        current = [c for c in current if not all(ring.is_zero(x) for x in c)]
        ranks.append(len(current))
        if current:
            diffs.append([[current[j][i] for j in range(len(current))]
                          for i in range(ranks[-2])])
        else:
            diffs.append([[] for _ in range(ranks[-2])])
        current = _kernel_columns(ring, ranks[-2], current)
    return ranks, diffs


def _kernel_columns(ring, ambient_rank, cols):
    """R-generating columns of the kernel of the map R^k -> R^ambient
    whose matrix has the given columns."""
    k = len(cols)
    if k == 0:
        return []
    zr = ring.zrank()
    zmat = _r_matrix_to_z(ring, ambient_rank, cols)
    if ring.kind == "Zmod":
        m = ring.m
        rows = len(zmat)
        aug = [zmat[i] + [m if j == i else 0 for j in range(rows)]
               for i in range(rows)]
        ker = kernel_basis(aug, k + rows)
        out = []
        seen = set()
        for v in ker:
            col = [x % m for x in v[:k]]
            if any(col):
                key = tuple(col)
                if key not in seen:
                    seen.add(key)
                    out.append([c for c in col])
        return out
    ker = kernel_basis(zmat, k * zr)
    out = []
    for v in ker:
        col = []
        for i in range(k):
            col.append(ring.zcol_element(v[i * zr:(i + 1) * zr]))
        if not all(ring.is_zero(x) for x in col):
            out.append(col)
    return out


def _r_matrix_to_z(ring, rows, cols):
    """Z-matrix of the R-map with the given R-columns (each of length rows)."""
    zr = ring.zrank()
    if ring.kind == "Zmod":
        return [[cols[j][i] for j in range(len(cols))] for i in range(rows)]
    out = [[0] * (len(cols) * zr) for _ in range(rows * zr)]
    for j, col in enumerate(cols):
        for i, entry in enumerate(col):
            blk = ring.right_regular_block(entry)
            for a in range(zr):
                for b in range(zr):
                    out[i * zr + a][j * zr + b] = blk[a][b]
    return out


def r_matrix_to_z(ring, rmat, rows, cols):
    """Z-matrix for an R-matrix given as rows x cols nested lists."""
    columns = [[rmat[i][j] for i in range(rows)] for j in range(cols)]
    return _r_matrix_to_z(ring, rows, columns)


# ---------------------------------------------------------------------------
# Ext and Tor through a chosen free resolution

def hom_cochain_complex(ring, ranks, diffs, coeff: CoefficientModule):
    """Apply Hom_R(-, coeff) to a free resolution; returns (levels, deltas)
    where deltas[n] maps cochain degree n-1 to degree n."""
    levels = []
    deltas = [None]
    for n, rk in enumerate(ranks):
        levels.append(_power_presentation(coeff, rk))
        if n >= 1:
            d = diffs[n]
            rows, cols = ranks[n - 1], ranks[n]
            blocks = [[None] * rows for _ in range(cols)]
            for j in range(cols):
                for i in range(rows):
                    blocks[j][i] = coeff.act_of(d[i][j])
            deltas.append(_assemble_blocks(blocks, coeff.dim))
    return levels, deltas


def tensor_chain_complex(ring, ranks, diffs, coeff: CoefficientModule):
    """Apply - tensor_R coeff to a free resolution; returns (levels, bnds)."""
    levels = []
    bnds = [None]
    for n, rk in enumerate(ranks):
        levels.append(_power_presentation(coeff, rk))
        if n >= 1:
            d = diffs[n]
            rows, cols = ranks[n - 1], ranks[n]
            blocks = [[None] * cols for _ in range(rows)]
            for i in range(rows):
                for j in range(cols):
                    blocks[i][j] = coeff.act_of(d[i][j])
            bnds.append(_assemble_blocks(blocks, coeff.dim))
    return levels, bnds


def _power_presentation(coeff, rk):
    return Presentation.from_moduli(list(coeff.moduli) * rk)


def _assemble_blocks(blocks, dim):
    brows = len(blocks)
    bcols = len(blocks[0]) if brows else 0
    out = [[0] * (bcols * dim) for _ in range(brows * dim)]
    for bi in range(brows):
        for bj in range(bcols):
            blk = blocks[bi][bj]
            for a in range(dim):
                for b in range(dim):
                    out[bi * dim + a][bj * dim + b] = blk[a][b]
    return out


def ext_groups(module: RModulePresentation, coeff: CoefficientModule, top):
    """Ext^n_R(module, coeff) for 0 <= n <= top, by resolution + SNF."""
    ranks, diffs = free_resolution(module, top + 1)
    levels, deltas = hom_cochain_complex(module.ring, ranks, diffs, coeff)
    out = []
    for n in range(top + 1):
        out.append(cohomology_at(levels, deltas, n).invariants())
    return out


def tor_groups(module: RModulePresentation, coeff: CoefficientModule, top):
    """Tor_n^R(module, coeff) for 0 <= n <= top."""
    ranks, diffs = free_resolution(module, top + 1)
    levels, bnds = tensor_chain_complex(module.ring, ranks, diffs, coeff)
    groups = homology_of_complex(levels, bnds, range(top + 1))
    return [groups[n].invariants() for n in range(top + 1)]


# ---------------------------------------------------------------------------
# independent closed-form oracles over Z

def invariants_naive(pres: Presentation) -> FGAbelianGroup:
    """Invariants using the second (naive) Smith reduction."""
    if pres.gens == 0:
        return FGAbelianGroup()
    if pres.nrels() == 0:
        return FGAbelianGroup(pres.gens)
    diag = smith_diagonal_naive(pres.rels)
    rank = pres.gens - len(diag)
    return FGAbelianGroup.from_divisors([d for d in diag if d > 1] + [0] * rank)


def _pairwise(a: FGAbelianGroup, b: FGAbelianGroup, cyclic_rule, za_rule, az_rule, zz_rank):
    divisors = []
    for s in list(a.torsion) + [0] * a.rank:
        for t in list(b.torsion) + [0] * b.rank:
            if s and t:
                d = cyclic_rule(s, t)
            elif s == 0 and t:
                d = za_rule(t)
            elif s and t == 0:
                d = az_rule(s)
            else:
                d = 0 if zz_rank else 1
            if d != 1:
                divisors.append(d)
    return FGAbelianGroup.from_divisors(divisors)


def hom_z(a, b):
    return _pairwise(a, b, gcd, lambda t: t, lambda s: 1, True)


def ext_z(a, b):
    return _pairwise(a, b, gcd, lambda t: 1, lambda s: s, False)


def tor_z(a, b):
    return _pairwise(a, b, gcd, lambda t: 1, lambda s: 1, False)


def tensor_z(a, b):
    return _pairwise(a, b, gcd, lambda t: t, lambda s: s, True)


def parse_ring(text) -> Ring:
    """Ring descriptors: 'Z', 'Z/4', 'Z[C2]' (cyclic group ring)."""
    text = text.strip()
    if text == "Z":
        return Ring("Z")
    if text.startswith("Z/"):
        return Ring("Zmod", m=int(text[2:]))
    if text.startswith("Z[C") and text.endswith("]"):
        return Ring("ZG", group=GroupTable.cyclic(int(text[3:-1])))
    raise ValueError(f"unknown ring descriptor: {text!r}")
