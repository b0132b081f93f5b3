"""The group route read through the group's multiplication table: Z[G]
products, Fox derivatives over Z[X] and the words of the loop-group
resolution, each against its definition written out here from
`GroupTable.mul` or the group's own `gmul`."""

import random
from itertools import product

import pytest

from aq.algebras import (
    GP,
    AlgebraMap,
    FreeAlgebra,
    cyclic_group,
    dihedral_4,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from aq.beck import fox_columns
from aq.resolutions import loop_group_resolution

GROUPS = {"S3": symmetric_3, "D4": dihedral_4, "Q8": quaternion_8,
          "Z4": lambda: cyclic_group(4)}


def _double_sum(table, a, b):
    """sum of c_g d_h (gh) over the terms of a and b, zeros dropped."""
    out = {}
    for g, c in a.items():
        for h, d in b.items():
            gh = table.mul[(g, h)]
            out[gh] = out.get(gh, 0) + c * d
    return {g: c for g, c in out.items() if c}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_a_group_ring_product_is_the_double_sum(name):
    g = GROUPS[name]()
    ring = g.group_ring("g")
    table = ring.group
    rng = random.Random(f"zg-{name}")

    def element():
        support = rng.sample(table.elements, rng.randint(0, 4))
        return {x: rng.choice((-3, -2, -1, 1, 2, 5)) for x in support}

    shapes = set()
    for _ in range(400):
        a, b = element(), element()
        shapes.add((min(len(a), 2), min(len(b), 2)))
        assert ring.mul(a, b) == _double_sum(table, a, b), (a, b)
        total = ring.add(a, b)
        assert total == {x: a.get(x, 0) + b.get(x, 0) for x in {*a, *b}
                         if a.get(x, 0) + b.get(x, 0)}
        assert total is not a and total is not b
    # one-term factors on either side, the zero element, and the rest
    assert shapes == set(product((0, 1, 2), repeat=2))


def _reduced_word(rng, gens, length):
    word = []
    while len(word) < length:
        letter = (rng.choice(gens), rng.choice((1, -1)))
        if word and word[-1] == (letter[0], -letter[1]):
            continue
        word.append(letter)
    return tuple(word)


def _fox_by_letters(word, image, table):
    """The Fox derivatives of `word` over Z[X], one letter at a time by
    d(uv) = d(u) + p(u) d(v): a letter g has derivative 1 at g, and g^-1
    has -p(g)^-1 at g."""
    inv = {x: y for x in table.elements for y in table.elements
           if table.mul[(x, y)] == table.identity}
    derivative = {}
    prefix = table.identity  # p(u) for the letters u read so far
    for g, e in word:
        p = image[g] if e > 0 else inv[image[g]]
        own = {table.identity: 1} if e > 0 else {p: -1}
        term = _double_sum(table, {prefix: 1}, own)
        total = dict(derivative.get(g, {}))
        for x, c in term.items():
            total[x] = total.get(x, 0) + c
        derivative[g] = {x: c for x, c in total.items() if c}
        prefix = table.mul[(prefix, p)]
    return {g: d for g, d in derivative.items() if d}


@pytest.mark.parametrize("name", ["S3", "D4"])
def test_fox_columns_over_zx_follow_the_chain_rule(name):
    x = GROUPS[name]()
    table = x.group_ring("g").group
    rng = random.Random(f"fox-{name}")
    gens = ["u", "v", "w"]
    tgt = FreeAlgebra(GP, gens)
    words = [_reduced_word(rng, gens, rng.randint(1, 9)) for _ in range(60)]
    src = FreeAlgebra(GP, [f"t{i}" for i in range(len(words))])
    m = AlgebraMap.from_generator_images(
        src, tgt, {f"t{i}": w for i, w in enumerate(words)})
    assert any(e < 0 for w in words for _, e in w)
    for _ in range(5):
        image = {g: rng.choice(table.elements) for g in gens}
        over = AlgebraMap.from_generator_images(tgt, x, image)
        cols = fox_columns(m, over)
        for word, col in zip(words, cols):
            want = _fox_by_letters(word, image, table)
            assert dict(col) == {gens.index(g): d for g, d in want.items()}
        # over Z every prefix is 1: the exponent sums
        for word, col in zip(words, fox_columns(m, None)):
            sums = {}
            for g, e in word:
                sums[gens.index(g)] = sums.get(gens.index(g), 0) + e
            assert dict(col) == {i: c for i, c in sums.items() if c}


def _reference_loop_group(g, truncation):
    """Generator names in order, and the face, degeneracy and augmentation
    images, from the nerve formulas of `loop_group_resolution`'s
    docstring."""
    e = g.identity()
    els = list(g.carriers["g"])

    def t(tup):
        return () if tup[0] == e else (("t/" + "/".join(tup), 1),)

    def face(tup, j):
        if j == 0:
            return tup[1:]
        if j == len(tup):
            return tup[:-1]
        return tup[:j - 1] + (g.gmul(tup[j - 1], tup[j]),) + tup[j + 1:]

    def times_inverse(u, w):
        # u w^-1 for words of at most one letter
        inverse = tuple((x, -n) for x, n in reversed(w))
        return () if u and u == w else u + inverse

    tuples = [[(x,) + rest for x in els if x != e
               for rest in product(els, repeat=n)]
              for n in range(truncation + 1)]
    names = [[t(tup)[0][0] for tup in level] for level in tuples]
    faces = [[]] + [
        [{t(tup)[0][0]: times_inverse(t(face(tup, 1)), t(face(tup, 0)))
          if i == 0 else t(face(tup, i + 1)) for tup in tuples[n]}
         for i in range(n + 1)]
        for n in range(1, truncation + 1)]
    degens = [
        [{t(tup)[0][0]: t(tup[:j + 1] + (e,) + tup[j + 1:])
          for tup in tuples[n]} for j in range(n + 1)]
        for n in range(truncation)] + [[]]
    augmentation = {t((x,))[0][0]: x for x in els if x != e}
    return names, faces, degens, augmentation


@pytest.mark.parametrize("make", [symmetric_3, lambda: cyclic_group(4),
                                  klein_four], ids=["S3", "Z4", "V4"])
def test_the_loop_group_words_are_the_nerve_formulas(make):
    g = make()
    v = loop_group_resolution(g, truncation=3)
    names, faces, degens, augmentation = _reference_loop_group(g, 3)
    assert [lv.generators["g"] for lv in v.levels] == names
    for n in range(4):
        assert [list(f.mapping["g"].items()) for f in v.faces[n]] == \
            [list(f.items()) for f in faces[n]], n
        assert [list(s.mapping["g"].items()) for s in v.degens[n]] == \
            [list(s.items()) for s in degens[n]], n
    assert list(v.augmentation.mapping["g"].items()) == \
        list(augmentation.items())
    # d_0 is the one face whose images are not single letters
    assert any(len(w) != 1 for w in v.faces[3][0].mapping["g"].values())
