"""`simplicial.matching` and `abgroups.invariants_from_addition` against
references written here: the matching object as the filtered product of
all (n+1)-tuples, and the peel-off that keys each coset by the frozenset
of its elements' reprs and recomputes that key on every addition.  The
same comparisons run under `python -O`, which strips asserts."""

import os
import subprocess
import sys
from itertools import product

import pytest

from aq import abgroups
from aq.abgroups import FGAbelianGroup, FinAb, invariants_from_addition
from aq.algebras import cyclic_group
from aq.beck import XModule
from aq.presented import _apply_columns
from aq.simplicial import (
    _compatible_tuples,
    _elements_of_presented,
    _moduli_of,
    eilenberg_maclane,
    k_object,
    matching,
)

G = FGAbelianGroup.from_divisors


def _reference_invariants(elements, add, zero, chosen):
    """Invariants by peel-off; appends each chosen generator to `chosen`."""
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
    gen = max(elements, key=lambda x: (orders[x], -elements.index(x)))
    chosen.append(gen)
    d = orders[gen]
    cyclic = []
    y = zero
    for _ in range(d):
        cyclic.append(y)
        y = add(y, gen)
    seen = {}
    reps = []
    for x in elements:
        key = frozenset(repr(add(x, c)) for c in cyclic)
        if key not in seen:
            seen[key] = len(reps)
            reps.append(x)

    def q_add(a, b):
        s = add(a, b)
        return reps[seen[frozenset(repr(add(s, c)) for c in cyclic)]]

    q_zero = reps[seen[frozenset(repr(c) for c in cyclic)]]
    rest = _reference_invariants(reps, q_add, q_zero, chosen)
    return FGAbelianGroup.from_divisors(list(rest.torsion) + [d])


def _face_images(v, level):
    """img[i][x] = d_i x for every element x of `level` (>= 1)."""
    faces, _ = v.columns()
    mods = _moduli_of(v.levels[level - 1])
    return [
        {x: tuple(c % m if m else c for c, m in zip(
            _apply_columns(faces[level][i], x, len(mods)), mods))
         for x in _elements_of_presented(v.levels[level])}
        for i in range(level + 1)
    ]


def _reference_matching(v, n):
    """(compatible tuples, invariants of M_n, level n -> M_n bijective?),
    the tuples kept from product(below, repeat=n + 1)."""
    below = _elements_of_presented(v.levels[n - 1])
    img = _face_images(v, n - 1) if n >= 2 else []
    tuples = [
        c for c in product(below, repeat=n + 1)
        if n < 2 or all(img[i][c[j]] == img[j - 1][c[i]]
                        for i in range(n + 1) for j in range(i + 1, n + 1))
    ]
    mods = _moduli_of(v.levels[n - 1])

    def add(a, b):
        return tuple(tuple((x + y) % m if m else x + y
                           for x, y, m in zip(va, vb, mods))
                     for va, vb in zip(a, b))

    zero = tuple(tuple(0 for _ in mods) for _ in range(n + 1))
    inv = _reference_invariants(tuples, add, zero, [])
    top = _face_images(v, n)
    images = [tuple(top[i][x] for i in range(n + 1)) for x in top[0]]
    bij = len(set(images)) == len(images) and set(images) == set(tuples)
    return tuples, inv, bij


def _objects():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    return {
        "K(Z/2,2)": k_object(G([2]), 2),
        "K(Z/3,1)": k_object(G([3]), 1),
        "E(Z/2,1) kernel": eilenberg_maclane(x, k, 1).kernel_part,
        "E(Z/2,2) kernel": eilenberg_maclane(x, k, 2).kernel_part,
    }


def matching_mismatches():
    """Every (object, n, what) where matching differs from the reference,
    for n = 1 up to the truncation."""
    out = []
    for name, v in _objects().items():
        for n in range(1, v.truncation + 1):
            tuples, inv, bij = _reference_matching(v, n)
            if n >= 2:
                below = _elements_of_presented(v.levels[n - 1])
                if _compatible_tuples(below, _face_images(v, n - 1)) \
                        != tuples:
                    out.append((name, n, "tuples"))
            if matching(v, n) != (inv, bij):
                out.append((name, n, "invariants or bijectivity"))
    return out


MODULI = [[2] * 6, [2, 4, 4], [3, 9], [2, 3, 4]]


def invariants_mismatches():
    """Every moduli list where invariants_from_addition differs from
    from_divisors or from the reference's generators (recorded through the
    `max` that picks them, the one call of `max` in abgroups with a key)."""
    out = []
    for moduli in MODULI:
        k = FinAb(moduli)
        want_gens = []
        want = _reference_invariants(k.elements(), k.add, k.zero(), want_gens)
        gens = []

        def recording_max(*args, **kwargs):
            out = max(*args, **kwargs)
            if "key" in kwargs:
                gens.append(out)
            return out

        abgroups.max = recording_max
        try:
            got = invariants_from_addition(k.elements(), k.add, k.zero())
        finally:
            del abgroups.max
        if not (got == want == G(moduli)) or gens != want_gens:
            out.append(moduli)
    return out


def test_matching_agrees_with_the_filtered_product():
    assert matching_mismatches() == []


def test_matching_counts_the_compatible_tuples():
    # |M_n| of K(Z/2, 2): a sanity check that the objects are not trivial
    v = _objects()["K(Z/2,2)"]
    assert [len(_reference_matching(v, n)[0]) for n in range(1, 5)] == \
        [1, 1, 16, 64]


def test_invariants_from_addition_agrees_with_the_reference():
    assert invariants_mismatches() == []


@pytest.mark.parametrize("moduli,calls", [([2] * 6, 258), ([2, 4, 4], 147)])
def test_invariants_from_addition_adds_once_per_quotient_addition(moduli,
                                                                  calls):
    # every addition in a quotient, at any depth, is one `add` and one
    # lookup per level: for (Z/2)^6 the orders, <gen> and the cosets take
    # m - 1 + 2 + m adds on each quotient of order m = 64, 32, ..., 2,
    # 258 in all; with the coset keys recomputed per addition it was 4354
    k = FinAb(moduli)
    count = [0]

    def add(a, b):
        count[0] += 1
        return k.add(a, b)

    assert invariants_from_addition(k.elements(), add, k.zero()) == G(moduli)
    assert count[0] <= calls


def test_the_comparisons_hold_under_python_O():
    here = os.path.dirname(__file__)
    src = os.path.join(here, "..", "src")
    code = ("import test_matching_and_invariants as t\n"
            "print(t.matching_mismatches(), t.invariants_mismatches())")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], check=True, capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here])))
    assert out.stdout.split() == ["[]", "[]"]
