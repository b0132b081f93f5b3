"""Inputs that several test modules share: seeded modules over the
registered rings and their coefficients, the sign module, presentations
of the groups of order 8, and the column helpers that build corrupted
simplicial objects and write sparse columns out as dense matrices.  Not
a test module, so pytest does not collect it, and a test module that
fails to import takes no other module with it."""

import copy
import random

from aq.abgroups import FinAb
from aq.algebras import cyclic_group
from aq.beck import XModule
from aq.rings import RModulePresentation, Ring
from aq.simplicial import SimplicialAbelian, SimplicialFreeModule

RINGS = {
    "Z": lambda: Ring("Z"),
    "Z/4": lambda: Ring("Zmod", m=4),
    "Z/6": lambda: Ring("Zmod", m=6),
    "Z[C2]": lambda: Ring("ZG", group=cyclic_group(2).group_table("g")),
    "Z[C3]": lambda: Ring("ZG", group=cyclic_group(3).group_table("g")),
}

COEFFS = {"Z": [3], "Z/4": [2], "Z/6": [3], "Z[C2]": [2], "Z[C3]": [3]}

# per ring, two seeds; the first gives nonzero (co)homology with COEFFS in
# degree 1 (over Z/6, a product of fields, every module is projective)
SEEDS = [("Z", 2), ("Z", 3), ("Z/4", 7), ("Z/4", 2), ("Z/6", 1), ("Z/6", 2),
         ("Z[C2]", 2), ("Z[C2]", 1), ("Z[C3]", 3), ("Z[C3]", 1)]


def _seeded_module(ring, seed):
    """A module on two generators with two seeded relation columns of
    small entries (group-ring entries with one or two terms)."""
    rng = random.Random(seed)

    def entry():
        if ring.kind != "ZG":
            return ring.from_int(rng.randint(-3, 3))
        els = ring.group.elements
        return ring.add({rng.choice(els): rng.choice((-2, -1, 1, 2))},
                        {rng.choice(els): rng.choice((-1, 0, 1))})

    return RModulePresentation(ring, 2, [[entry(), entry()] for _ in range(2)])


def _sign_module(g, m):
    """Z/m on which the elements of order 2 act by -1: the sign
    character of S3 or of Z/2 (the groups it is used on)."""
    e = g.identity()
    act = {x: [[m - 1 if x != e and g.gmul(x, x) == e else 1]]
           for x in g.carriers["g"]}
    return XModule(g, FinAb([m]), act)


D4_PRESENTED = """algebra d4p {
  theory gp
  presentation {
    gens g : r s
    rel mul(r, mul(r, mul(r, r)))
    rel mul(s, s)
    rel mul(s, mul(r, mul(s, r)))
    realize bound = 64
  }
}"""

Q8_PRESENTED = """algebra q8p {
  theory gp
  presentation {
    gens g : i j
    rel mul(i, mul(i, mul(i, i)))
    rel mul(i, i) = mul(j, j)
    rel mul(j, mul(i, inv(j))) = inv(i)
    realize bound = 64
  }
}"""


def _sparse_column(entries):
    """A {row: entry} dict as a sparse column: the (row, entry) pairs of
    its entries other than 0 (or the empty group-ring element), in row
    order.  Entries are kept as they are, unreduced."""
    return sorted(((i, x) for i, x in entries.items() if x),
                  key=lambda pair: pair[0])


def with_entry(v, kind, n, i, row, col, change):
    """A new simplicial object like `v` (its flavor, levels and Dold-Kan
    tags) built from a copy of its columns in which entry (row, col) of
    the face (`kind` "faces") or degeneracy ("degens") i at level n is
    change(entry), kept as `_sparse_column` keeps it."""
    faces, degens = copy.deepcopy(v.columns())
    maps = faces if kind == "faces" else degens
    entries = dict(maps[n][i][col])
    entries[row] = change(entries.get(row, v.ring.zero()))
    maps[n][i][col] = _sparse_column(entries)
    if isinstance(v, SimplicialFreeModule):
        w = SimplicialFreeModule(v.ring, v.ranks, faces, degens, v.truncation)
    else:
        w = SimplicialAbelian(v.levels, faces, degens, v.truncation)
    for tag in ("dk_source", "dk_offsets"):
        if hasattr(v, tag):
            setattr(w, tag, getattr(v, tag))
    return w


def _dense(cols, rows, zero):
    mat = [[zero] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            mat[i][j] = x
    return mat
