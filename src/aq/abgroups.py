"""Finitely generated abelian groups: canonical invariants and concrete
finite carriers with enumerable elements.
"""

from __future__ import annotations

from itertools import product

from .errors import AlgebraError
from .snf import cokernel_diagonal


class FGAbelianGroup:
    """Isomorphism class (rank, torsion) of a f.g. abelian group.

    Torsion coefficients are >= 2 in ascending divisibility order; two
    values compare equal exactly when the groups are isomorphic.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank=0, torsion=()):
        torsion = [int(t) for t in torsion if t != 1]
        if rank < 0 or any(t < 2 for t in torsion):
            raise AlgebraError(
                f"FGAbelianGroup: rank {rank} must be >= 0 and torsion "
                f"{torsion} >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise AlgebraError(
                    f"torsion {torsion} not in divisibility order")
        self.rank = int(rank)
        self.torsion = tuple(torsion)

    @classmethod
    def from_divisors(cls, divisors):
        """Build from an arbitrary list of cyclic orders (0 means Z)."""
        rank = sum(1 for d in divisors if d == 0)
        rest = [abs(d) for d in divisors if d not in (0, 1, -1)]
        # fold into divisibility order prime by prime
        primes = {}
        for d in rest:
            for p, e in _factor(d).items():
                primes.setdefault(p, []).append(e)
        width = max((len(v) for v in primes.values()), default=0)
        torsion = []
        for i in range(width):
            t = 1
            for p, exps in primes.items():
                exps_sorted = sorted(exps)
                # align so the largest exponents multiply into the last factor
                idx = len(exps_sorted) - width + i
                if idx >= 0:
                    t *= p ** exps_sorted[idx]
            torsion.append(t)
        return cls(rank, torsion)

    @classmethod
    def from_presentation_matrix(cls, mat, ambient_rank):
        tor, rank = cokernel_diagonal(mat, ambient_rank)
        return cls(rank, tor)

    def order(self):
        """Group order; 0 encodes infinite."""
        if self.rank:
            return 0
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other):
        return FGAbelianGroup.from_divisors(
            [0] * (self.rank + other.rank) + list(self.torsion) + list(other.torsion)
        )

    def __eq__(self, other):
        if not isinstance(other, FGAbelianGroup):
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return f"FGAbelianGroup(rank={self.rank}, torsion={list(self.torsion)})"

    def __str__(self):
        parts = [f"Z/{t}" for t in self.torsion]
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FinAb:
    """A concrete finite abelian group prod_i Z/moduli[i], elements = tuples."""

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        if not all(m >= 1 for m in moduli):
            raise AlgebraError(f"FinAb moduli must be >= 1, not {list(moduli)}")
        self.moduli = tuple(int(m) for m in moduli)

    @classmethod
    def from_invariants(cls, group: FGAbelianGroup):
        if group.rank:
            raise AlgebraError(f"FinAb carriers must be finite, not {group}")
        return cls(group.torsion or ())

    def invariants(self):
        return FGAbelianGroup.from_divisors(self.moduli)

    def zero(self):
        return (0,) * len(self.moduli)

    def reduce(self, vec):
        return tuple(x % m for x, m in zip(vec, self.moduli))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def sub(self, a, b):
        return tuple((x - y) % m for x, y, m in zip(a, b, self.moduli))

    def smul(self, c, a):
        return tuple((c * x) % m for x, m in zip(a, self.moduli))

    def elements(self):
        return [tuple(t) for t in product(*(range(m) for m in self.moduli))]

    def order(self):
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def apply_matrix(self, mat, a):
        """Image of element `a` under an integer matrix into this group."""
        return tuple(
            sum(row[j] * a[j] for j in range(len(a))) % m
            for row, m in zip(mat, self.moduli)
        )

    def __eq__(self, other):
        return isinstance(other, FinAb) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"FinAb({list(self.moduli)})"


def invariants_from_addition(elements, add, zero):
    """Invariants of a finite abelian group given by an explicit addition.

    Works on any hashable element list; classic peel-off of a maximal-order
    cyclic summand, recursing on the quotient.  Each element is mapped to
    the representative of its coset once, so an addition in the quotient
    is one `add` and one lookup.
    """
    elements = list(elements)
    if len(elements) == 1:
        return FGAbelianGroup()

    def order_of(x):
        n, y = 1, x
        while y != zero:
            y = add(y, x)
            n += 1
        return n

    orders = {x: order_of(x) for x in elements}
    # the first element of maximal order: max keeps the first of equal keys
    gen = max(elements, key=orders.__getitem__)
    d = orders[gen]
    # cosets of <gen>, each represented by its first element
    cyclic = []
    y = zero
    for _ in range(d):
        cyclic.append(y)
        y = add(y, gen)
    rep_of = {}
    reps = []
    for x in elements:
        if x not in rep_of:
            reps.append(x)
            for c in cyclic:
                rep_of[add(x, c)] = x

    def q_add(a, b):
        return rep_of[add(a, b)]

    rest = invariants_from_addition(reps, q_add, rep_of[zero])
    return FGAbelianGroup.from_divisors(list(rest.torsion) + [d])
