import os
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations, product
from math import gcd, lcm, prod

import pytest

from aq.abgroups import FGAbelianGroup, FinAb, invariants_from_addition
from aq.errors import AlgebraError
from aq.presented import (
    Presentation,
    Subquotient,
    cycle_lattice,
    homology_of_complex,
    induced_map,
)
from aq.rings import (
    CoefficientModule,
    Ring,
    RModulePresentation,
    ext_groups,
    ext_z,
    free_resolution,
    hom_z,
    invariants_naive,
    tensor_z,
    tor_groups,
    tor_z,
)
from aq.snf import IntegerSolver, cols_to_matrix, kernel_basis, lattice_basis
from aq.spectral import random_columns


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_fg_abelian_group_canonical():
    assert G(2, 3) == G(6)
    assert G(2, 4) != G(8)
    assert str(G(0, 0, 2, 4)) == "Z/2 + Z/4 + Z^2"
    assert G().is_trivial()
    assert G(12, 60).torsion == (12, 60)
    assert G(4, 6).torsion == (2, 12)


def test_presentation_invariants():
    # Z^2 / <(2,0),(0,3)> = Z/6
    p = Presentation(2, [[(0, 2)], [(1, 3)]])
    assert p.invariants() == G(6)
    assert invariants_naive(p) == G(6)
    assert Presentation.free(3).invariants() == G(0, 0, 0)
    assert Presentation.from_moduli([2, 0, 4]).invariants() == G(2, 4, 0)


def test_homology_of_z4_complex():
    # 0 -> Z --4--> Z -> 0 has H_0 = Z/4, H_1 = 0
    levels = [Presentation.free(1), Presentation.free(1)]
    diffs = [None, [[(0, 4)]]]
    h = homology_of_complex(levels, diffs, [0, 1])
    assert h[0].invariants() == G(4)
    assert h[1].invariants() == G()


def test_homology_with_torsion_levels():
    # Z/8 --2--> Z/8 --4--> Z/8: homology at middle = ker(4)/im(2) = 0
    # ker(4: Z/8 -> Z/8) = 2Z/8, im(2) = 2Z/8
    levels = [Presentation.from_moduli([8])] * 3
    diffs = [None, [[(0, 4)]], [[(0, 2)]]]
    h = homology_of_complex(levels, diffs, [0, 1, 2])
    assert h[1].invariants() == G()
    assert h[0].invariants() == G(4)  # Z/8 / im(4) = Z/4
    assert h[2].invariants() == G(2)  # ker(2) = 4Z/8 = Z/2


def test_subquotient_canon_and_induced():
    # H = Z^2 / <(2,0)> = Z/2 + Z, doubling map induces x2
    amb = 2
    basis = [[1, 0], [0, 1]]
    sq = Subquotient(amb, basis, [[2, 0]])
    assert sq.invariants() == G(2, 0)
    assert sq.canon([2, 0]) == sq.canon([0, 0])
    assert sq.canon([1, 0]) != sq.canon([0, 0])
    f = [[(0, 3)], [(1, 1)]]
    # x3 is the identity on the Z/2 summand and on the Z summand
    assert induced_map(f, sq, sq) == [[(0, 1)], [(1, 1)]]
    gens = sq.canonical_generators()
    for gvec in gens:
        v = [3 * gvec[0], gvec[1]]
        assert sq.canon(v) is not None


def test_finab_and_table_invariants():
    k = FinAb([2, 4])
    assert k.order() == 8
    assert k.invariants() == G(2, 4)
    els = k.elements()
    assert len(els) == 8
    inv = invariants_from_addition(els, k.add, k.zero())
    assert inv == G(2, 4)


def test_invariants_from_addition_klein():
    k = FinAb([2, 2])
    inv = invariants_from_addition(k.elements(), k.add, k.zero())
    assert inv == G(2, 2)


def test_hom_ext_tor_tensor_formulas():
    assert hom_z(G(4), G(6)) == G(2)
    assert hom_z(G(0), G(0, 5)) == G(0, 5)
    assert ext_z(G(4), G(6)) == G(2)
    assert ext_z(G(4), G(0)) == G(4)
    assert ext_z(G(0), G(7)) == G()
    assert tor_z(G(4), G(6)) == G(2)
    assert tor_z(G(0), G(6)) == G()
    assert tensor_z(G(0, 3), G(0, 5)) == G(0, 3, 5)


def test_free_resolution_over_z():
    ring = Ring("Z")
    m = RModulePresentation.cyclic(ring, 4)  # Z/4
    ranks, diffs = free_resolution(m, 3)
    assert ranks[0] == 1 and ranks[1] == 1
    assert ranks[2] == 0  # kernel of x4 on Z is zero
    assert diffs[1] == [[(0, 4)]]


def test_ext_tor_z4_z2_over_z():
    ring = Ring("Z")
    m = RModulePresentation.cyclic(ring, 4)
    g = CoefficientModule.trivial(ring, [2])
    assert ext_groups(m, g, 3) == [G(2), G(2), G(), G()]
    assert tor_groups(m, g, 3) == [G(2), G(2), G(), G()]
    # against the closed-form oracle
    assert ext_groups(m, g, 1)[0] == hom_z(G(4), G(2))
    assert ext_groups(m, g, 1)[1] == ext_z(G(4), G(2))


def test_ext_periodic_over_z4():
    ring = Ring("Zmod", m=4)
    m = RModulePresentation.cyclic(ring, 2)  # Z/2 over Z/4
    g = CoefficientModule.trivial(ring, [2])
    exts = ext_groups(m, g, 4)
    assert exts == [G(2)] * 5
    tors = tor_groups(m, g, 4)
    assert tors == [G(2)] * 5


def test_ext_over_group_ring():
    # Z as trivial Z[C2]-module: H^n(C2; Z/2) = Ext^n(Z, Z/2) = Z/2 all n
    ring = Ring("ZG", group=__import__("aq.rings", fromlist=["GroupTable"]).GroupTable.cyclic(2))
    aug = RModulePresentation(
        ring, 1, [[{ring.group.elements[1]: 1, ring.group.identity: -1}]]
    )
    g = CoefficientModule.trivial(ring, [2])
    exts = ext_groups(aug, g, 3)
    assert exts == [G(2)] * 4


def test_random_complexes_dd_zero_invariance(seed=99, trials=25):
    # homology is invariant under adding a zero-glued summand shift
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 3)
        levels = [Presentation.free(rng.randint(1, 3)) for _ in range(n + 1)]
        diffs = [None]
        ok = True
        for k in range(1, n + 1):
            diffs.append([[] for _ in range(levels[k].gens)])
        h = homology_of_complex(levels, diffs, range(n + 1))
        for k in range(n + 1):
            assert h[k].invariants() == FGAbelianGroup(levels[k].gens)


def test_kernel_validation_raises_named_algebra_errors():
    with pytest.raises(AlgebraError, match="relation vector not inside"):
        Subquotient(2, [[2, 0]], [[1, 0]])
    sq = Subquotient(2, [[2, 0]], [[4, 0]])
    with pytest.raises(AlgebraError, match="not in the cycle lattice"):
        sq.canon([0, 1])
    with pytest.raises(AlgebraError, match="row outside 2 generators"):
        Presentation(2, [[(2, 1)]])
    with pytest.raises(AlgebraError, match="beyond the 1 levels"):
        homology_of_complex([Presentation.free(1)], [None], [1])


def test_subquotient_validation_does_not_depend_on_assert():
    # under `python -O`, which strips asserts, a relation vector outside
    # the lattice must still be named, not fail later with a TypeError
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("from aq.errors import AlgebraError\n"
            "from aq.presented import Subquotient\n"
            "try:\n"
            "    Subquotient(2, [[2, 0]], [[1, 0]])\n"
            "except AlgebraError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert "relation vector not inside the subgroup lattice" in out.stdout


def test_relation_membership_shortcut_matches_the_solver():
    # presentations whose relation columns have at most one nonzero entry
    # answer by divisibility; others, and the solver, must agree with them
    rng = random.Random(7)
    shortcuts = 0
    for trial in range(80):
        n = rng.randint(1, 5)
        cols = []
        for _ in range(rng.randint(1, 7)):
            col = [0] * n
            if rng.random() < 0.85:
                col[rng.randrange(n)] = rng.choice([-6, -4, -2, -1, 1, 2, 3, 5])
            cols.append(col)
        if trial % 2:
            cols.append([rng.randint(-3, 3) for _ in range(n)])
        pres = Presentation(n, [[(i, x) for i, x in enumerate(c) if x]
                                for c in cols])
        solver = IntegerSolver(cols_to_matrix(pres.rels, n))
        for _ in range(25):
            vec = [sum(rng.randint(-3, 3) * c[i] for c in cols)
                   for i in range(n)]
            if rng.random() < 0.5:
                vec[rng.randrange(n)] += rng.randint(-4, 4)
            want = solver.solve(vec) is not None
            assert pres.contains_in_relations(vec) == want, (cols, vec)
        diagonal = all(sum(1 for x in c if x) <= 1 for c in cols)
        assert (pres.diagonalized()[0] is None) == diagonal
        shortcuts += diagonal
    assert 30 <= shortcuts < 80


def _filtered_diagonal(moduli):
    """The columns of the n x n diagonal of the moduli, written out
    densely, with the zero columns dropped and the others made sparse."""
    n = len(moduli)
    cols = [[moduli[i] if i == j else 0 for i in range(n)] for j in range(n)]
    return Presentation(n, [[(i, x) for i, x in enumerate(col) if x]
                            for col in cols if any(col)])


def test_from_moduli_equals_the_filtered_diagonal():
    rng = random.Random(31)
    cases = [[], [0] * 7, [2] * 9, [0, 3, 0, 4, 1, 0]]
    cases += [[rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(rng.randint(1, 40))]
              for _ in range(20)]
    for moduli in cases:
        new, old = Presentation.from_moduli(moduli), _filtered_diagonal(moduli)
        assert (new.gens, new.rels, new.nrels()) == \
            (old.gens, old.rels, old.nrels()), moduli
        # the diagonal from_moduli records is the one worked out from rows
        assert new.diagonalized() == old.diagonalized() == (None, moduli)
    # a large mostly-free level: one relation column per nonzero modulus
    moduli = [rng.choice([0] * 49 + [5]) for _ in range(4000)]
    pres = Presentation.from_moduli(moduli)
    nonzero = [i for i, m in enumerate(moduli) if m]
    assert pres.gens == 4000 and pres.nrels() == len(nonzero) > 0
    assert pres.rels == [[(j, moduli[j])] for j in nonzero]
    assert Presentation.from_moduli([0] * 4000).rels == []


def _peak_bytes(build):
    """What `build()` returns, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_moduli_and_direct_sum_build_no_dense_rows():
    # one one-entry relation column per nonzero modulus: n x n dense rows
    # of a 4000-generator level peaked at 245 MiB
    bound = 4 * 2 ** 20
    pres, peak = _peak_bytes(lambda: Presentation.from_moduli([2] * 4000))
    assert peak < bound
    assert pres.rels == [[(i, 2)] for i in range(4000)]
    other = Presentation.from_moduli([2] * 4000)
    total, peak = _peak_bytes(lambda: pres.direct_sum(other))
    assert peak < bound
    assert total.gens == 8000
    assert total.rels == [[(i, 2)] for i in range(8000)]


def _stacked_cycle_lattice(pairs, g):
    """The [M | R] construction: the kernel of each m beside the relation
    columns of its target, cut to its first g coordinates and reduced to
    a basis."""
    width = g + sum(target.nrels() for _, target in pairs)
    rows, offset = [], g
    for m, target in pairs:
        for m_row, r_row in zip(cols_to_matrix(m, target.gens),
                                cols_to_matrix(target.rels, target.gens)):
            row = m_row + [0] * (width - g)
            row[offset:offset + len(r_row)] = r_row
            rows.append(row)
        offset += target.nrels()
    if not rows:
        return [[int(i == j) for i in range(g)] for j in range(g)]
    return lattice_basis([v[:g] for v in kernel_basis(rows, width)], g)


def _det(cols):
    g = len(cols)
    total = 0
    for perm in permutations(range(g)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(g) for j in range(i + 1, g))
        total += (-1) ** inversions * prod(cols[j][perm[j]] for j in range(g))
    return total


def _spans(basis, vectors, g):
    if not basis:
        return not any(map(any, vectors))
    solver = IntegerSolver([list(row) for row in zip(*basis)])
    return all(solver.solve(v) is not None for v in vectors)


def _seeded_pairs(rng, g, moduli_pool, diagonal):
    pairs = []
    for _ in range(rng.randint(1, 2)):
        if diagonal:
            target = Presentation.from_moduli(
                [rng.choice(moduli_pool) for _ in range(rng.randint(1, 4))])
        else:
            target = Presentation(2, rng.choice([
                [[(0, 2), (1, 2)], [(1, 4)]],     # columns (2, 2) and (0, 4)
                [[(0, 2), (1, 4)], [(0, 3)]],
                [[(0, 6), (1, 4)], [], [(0, 2)]],
                [[(0, 1), (1, 3)], [(0, 2), (1, 6)]],
            ]))
        m = random_columns(rng, target.gens, g, -5, 5)
        pairs.append((m, target))
    return pairs


def test_cycle_lattice_counts_the_solutions_modulo_the_moduli():
    # against finite diagonal targets the lattice contains lam * Z^g, and
    # its index is lam^g over the number of solutions of the congruences
    # in [0, lam)^g, counted by plain loops
    rng = random.Random(13)
    for _ in range(60):
        g = rng.randint(1, 3)
        pairs = _seeded_pairs(rng, g, [1, 2, 3, 4, 6], diagonal=True)
        dense = [(cols_to_matrix(m, t.gens), cols_to_matrix(t.rels, t.gens))
                 for m, t in pairs]
        moduli = [[gcd(*row) for row in rels] for _, rels in dense]
        lam = lcm(*(d for ds in moduli for d in ds))
        solutions = sum(
            all(sum(a * b for a, b in zip(row, v)) % d == 0
                for (m, _), ds in zip(dense, moduli)
                for row, d in zip(m, ds))
            for v in product(range(lam), repeat=g))
        basis = cycle_lattice(pairs, g)
        assert len(basis) == g
        assert abs(_det(basis)) * solutions == lam ** g, pairs
        for v in basis:
            assert all(t.contains_in_relations(
                [sum(a * b for a, b in zip(row, v)) for row in m])
                for (m, _), (_, t) in zip(dense, pairs))


def test_cycle_lattice_equals_the_stacked_construction():
    # free summands and targets whose relations are not diagonal: the
    # same lattice as the kernel of [M | R]
    rng = random.Random(17)
    for trial in range(80):
        g = rng.randint(0, 5)
        pairs = _seeded_pairs(rng, g, [0, 1, 2, 3, 4, 6],
                              diagonal=trial % 2 == 0)
        got = cycle_lattice(pairs, g)
        want = _stacked_cycle_lattice(pairs, g)
        assert len(got) == len(want), pairs
        assert _spans(got, want, g) and _spans(want, got, g), pairs
