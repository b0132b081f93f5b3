"""Homology groups from one rank per differential, against the
Subquotient route they replace where only the group is read:
`snf.rank_mod_p` against the Smith diagonal of `smith_diagonal_naive`,
`presented.homology_groups` and `cohomology_groups` against
`homology_of_complex` and `cohomology_at` on seeded complexes, and the
Eilenberg-MacLane route by ranks against its Subquotient route.  The
oracles keep the Subquotient route.  The same comparisons run under
`python -O`, which strips asserts."""

import os
import random
import subprocess
import sys

import pytest

from aq import invariants, presented, snf
from aq.abgroups import FinAb
from aq.algebras import (
    AlgebraError,
    dihedral_4,
    quaternion_8,
    symmetric_3,
)
from aq.beck import XModule
from aq.invariants import cohomology_via_em
from aq.presented import (
    Presentation,
    cohomology_at,
    cohomology_groups,
    homology_groups,
    homology_of_complex,
)
from aq.resolutions import bar_resolution_group, loop_group_resolution
from aq.rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    ext_groups,
    tor_groups,
)
from aq.snf import cols_to_matrix, kernel_basis, rank_mod_p, smith_diagonal_naive


def _sparse_matrix(rng, rows, cols, density=0.4, bound=6):
    """Sparse columns of a seeded integer matrix; a row may repeat in a
    column."""
    out = []
    for _ in range(cols):
        col = [(rng.randrange(rows), rng.randint(-bound, bound))
               for _ in range(rows) if rows and rng.random() < density]
        out.append([(i, x) for i, x in col if x])
    return out


def rank_mismatches(seeds=range(40)):
    """Seeded matrices on which rank_mod_p differs from the number of
    Smith diagonal entries prime to p."""
    bad = []
    for seed in seeds:
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        m = _sparse_matrix(rng, rows, cols)
        dense = [[0] * cols for _ in range(rows)]
        for j, col in enumerate(m):
            for i, x in col:
                dense[i][j] += x
        diag = smith_diagonal_naive(dense) if rows and cols else []
        for p in (2, 3, 5):
            want = sum(1 for d in diag if d % p)
            if rank_mod_p(m, p) != want:
                bad.append((seed, p))
    return bad


def _columns(mat, width):
    """Sparse columns of a dense matrix (list of rows) `width` wide."""
    return [[(i, row[j]) for i, row in enumerate(mat) if row[j]]
            for j in range(width)]


def _free_complex(rng, ranks, mod=0):
    """Sparse differentials d_1..d_top of a seeded chain complex on the
    given ranks: d_{n+1} is a kernel basis of d_n times a seeded matrix,
    times 2 or 3 on some columns so that the homology has torsion, plus
    `mod` times a seeded matrix, so that d d = 0 only modulo `mod`."""
    diffs = [None]
    prev = None
    for n in range(1, len(ranks)):
        rows, cols = ranks[n - 1], ranks[n]
        if prev is None:
            mat = cols_to_matrix(_sparse_matrix(rng, rows, cols), rows)
        else:
            kernel = kernel_basis(cols_to_matrix(prev, ranks[n - 2]), rows)
            mat = [[0] * cols for _ in range(rows)]
            for j in range(cols):
                scale = rng.choice((1, 1, 2, 3))
                for b in kernel:
                    c = rng.randint(-2, 2) * scale
                    for i in range(rows):
                        mat[i][j] += c * b[i]
        if mod:
            for row in mat:
                for j in range(cols):
                    row[j] += mod * rng.randint(-1, 1)
        prev = _columns(mat, cols)
        diffs.append(prev)
    return diffs


# level moduli per kind: 0 is Z, a list is one modulus per generator
KINDS = {
    "free": lambda g: [0] * g,
    "Z/2": lambda g: [2] * g,
    "Z/3": lambda g: [3] * g,
    "Z/4": lambda g: [4] * g,
    "Z+Z/2": lambda g: [0, 2] * (g // 2) + [0] * (g % 2),
}

COMPLEXES = [
    # (kinds per level, ranks per level)
    (["free"] * 5, [3, 5, 6, 4, 2]),
    (["free"] * 4, [2, 0, 3, 3]),
    (["Z/2"] * 5, [3, 4, 5, 3, 1]),
    (["Z/3"] * 4, [2, 4, 0, 3]),
    (["Z/4"] * 4, [2, 3, 4, 2]),
    (["Z+Z/2"] * 4, [2, 4, 4, 2]),
    (["Z/2", "Z/2", "free", "free", "Z/3"], [2, 3, 4, 3, 2]),
    (["Z/3", "free", "free", "Z/3"], [0, 3, 3, 2]),
]


def _outcome(f):
    """The value of f(), or the message of the AlgebraError it raises."""
    try:
        return f()
    except AlgebraError as exc:
        return ("raises", str(exc))


def _transposed(cols, rows):
    """Sparse columns of the transpose of the map with columns `cols`
    into Z^rows."""
    out = [[] for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            out[i].append((j, x))
    return out


def homology_mismatches(seeds=range(12)):
    """Seeded complexes on which the rank route and the Subquotient route
    disagree, degree by degree and over all degrees at once, as homology
    and, on the transposed complex, as cohomology."""
    bad = []
    for seed in seeds:
        for kinds, ranks in COMPLEXES:
            rng = random.Random(seed)
            moduli = [KINDS[k](g) for k, g in zip(kinds, ranks)]
            prime = {2, 3} & {m for mods in moduli for m in mods}
            mod = prime.pop() if len(set(kinds)) == 1 and prime else 0
            diffs = _free_complex(rng, ranks, mod=mod if seed % 2 else 0)
            levels = [Presentation.from_moduli(m) for m in moduli]
            deltas = [None] + [_transposed(diffs[k], ranks[k - 1])
                               for k in range(1, len(ranks))]
            routes = {
                "homology": (
                    lambda ns: homology_groups(levels, diffs, ns),
                    lambda n: homology_of_complex(levels, diffs, [n])[n]),
                "cohomology": (
                    lambda ns: cohomology_groups(levels, deltas, ns),
                    lambda n: cohomology_at(levels, deltas, n)),
            }
            for what, (by_rank, subquotient) in routes.items():
                want = {}
                for n in range(len(levels)):
                    want[n] = _outcome(lambda: subquotient(n).invariants())
                    got = _outcome(lambda: by_rank([n])[n])
                    if got != want[n]:
                        bad.append((what, seed, kinds, n, got, want[n]))
                ns = [n for n in want if not isinstance(want[n], tuple)]
                if by_rank(ns) != {n: want[n] for n in ns}:
                    bad.append((what, seed, kinds, ns))
    return bad


def square_not_zero_mismatches():
    """Complexes with d_1 d_2 not zero (mod p): the message that each
    route raises, where the two differ."""
    bad = []
    d1 = [[(0, 1)], [(0, 1)]]
    d2 = [[(0, 1)]]
    for moduli in ([0], [3]):
        levels = [Presentation.from_moduli(moduli * g) for g in (1, 2, 1)]
        diffs = [None, d1, d2]
        got = _outcome(lambda: homology_groups(levels, diffs, [1]))
        want = _outcome(lambda: homology_of_complex(levels, diffs, [1]))
        if not isinstance(got, tuple) or got != want:
            bad.append((moduli, got, want))
    return bad


def _twisted(g, m):
    """Z/m on which the elements outside an index-2 cyclic subgroup act
    by -1."""
    e = g.identity()
    order = g.order()
    for a in g.carriers["g"]:
        powers = [e]
        while len(powers) < order and g.gmul(powers[-1], a) != e:
            powers.append(g.gmul(powers[-1], a))
        if 2 * len(powers) == order:
            break
    act = {x: [[1 if x in powers else m - 1]] for x in g.carriers["g"]}
    return XModule(g, FinAb([m]), act)


GROUPS = {"S3": symmetric_3, "D4": dihedral_4, "Q8": quaternion_8}

COEFFICIENTS = {
    "Z/2": lambda g: XModule.trivial(g, [2]),
    "Z/3": lambda g: XModule.trivial(g, [3]),
    "twisted Z/3": lambda g: _twisted(g, 3),
}


# (group, coefficients, degrees): every coefficient at degree 1 and, on
# S3, at degree 2; order 8 at degree 2 once, since its Subquotient route
# takes seconds there
EM_CASES = [
    ("S3", tuple(COEFFICIENTS), (1, 2)),
    ("D4", tuple(COEFFICIENTS), (1,)),
    ("Q8", tuple(COEFFICIENTS), (1,)),
    ("D4", ("twisted Z/3",), (2,)),
]


def em_mismatches(cases=EM_CASES):
    """Groups and coefficients on which the EM route by ranks differs
    from its Subquotient route."""
    bad = []
    for name, labels, degrees in cases:
        g = GROUPS[name]()
        v = loop_group_resolution(g, truncation=max(degrees) + 1)
        for label in labels:
            k = COEFFICIENTS[label](g)
            by_rank = cohomology_via_em(v, k, degrees, x=g)
            prime = invariants.common_prime
            invariants.common_prime = lambda moduli: 0
            try:
                subq = cohomology_via_em(v, k, degrees, x=g)
            finally:
                invariants.common_prime = prime
            if by_rank != subq:
                bad.append((name, label, by_rank, subq))
    return bad


def test_rank_mod_p_counts_the_smith_entries_prime_to_p():
    assert rank_mismatches() == []


def test_homology_and_cohomology_groups_match_the_subquotient_route():
    assert homology_mismatches() == []


def test_a_square_that_is_not_zero_raises_as_before():
    assert square_not_zero_mismatches() == []


@pytest.mark.parametrize("case", EM_CASES,
                         ids=[f"{c[0]}-{len(c[1])}-{c[2]}" for c in EM_CASES])
def test_the_em_route_by_ranks_matches_its_subquotient_route(case):
    assert em_mismatches([case]) == []


def test_the_oracles_keep_the_subquotient_route(monkeypatch):
    reached, subquotients = [], []

    def refuse(name):
        def f(*args, **kwargs):
            reached.append(name)
            raise AssertionError(name)
        return f

    for module, name in ((snf, "rank_mod_p"), (presented, "rank_mod_p"),
                         (invariants, "rank_mod_p"),
                         (presented, "homology_groups"),
                         (presented, "cohomology_groups")):
        monkeypatch.setattr(module, name, refuse(name))
    homology_at = presented._homology_at

    def recording(levels, diffs, n):
        subquotients.append(n)
        return homology_at(levels, diffs, n)

    monkeypatch.setattr(presented, "_homology_at", recording)
    g = symmetric_3()
    bar_resolution_group(g, XModule.trivial(g, [2]), 2)
    ring = Ring("Z")
    module = RModulePresentation(ring, 1, [[ring.from_int(4)]])
    coeff = CoefficientModule.trivial(ring, [2])
    ext_groups(module, coeff, 2)
    tor_groups(module, coeff, 2)
    assert reached == [] and len(subquotients) == 9


def test_the_comparisons_hold_under_python_O():
    here = os.path.dirname(__file__)
    src = os.path.join(here, "..", "src")
    code = ("import test_homology_by_rank as t\n"
            "print(t.rank_mismatches(), t.homology_mismatches(), "
            "t.square_not_zero_mismatches(), t.em_mismatches(t.EM_CASES[:1]))")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], check=True, capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here])))
    assert out.stdout.split() == ["[]", "[]", "[]", "[]"]
