import os
import subprocess
import sys

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import (
    AlgebraMap,
    FreeAlgebra,
    cyclic_group,
    find_isomorphism,
    klein_four,
    symmetric_3,
)
from aq.beck import (
    XModule,
    brute_force_group_objects,
    classify_group_objects,
    derivations,
    formula_group_objects,
    fox_columns,
    identity_map,
    semidirect_product,
    x_module_structures,
)
from aq.algebras import GP


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def mod2_projection(m):
    z = cyclic_group(2 * m)
    z2 = cyclic_group(2)
    sort = "g"
    mapping = {}
    for i, el in enumerate(z.carriers[sort]):
        mapping[el] = "e" if i % 2 == 0 else "a"
    return AlgebraMap(z, z2, {sort: mapping})


def inversion_module(x, moduli=(3,)):
    """Z/3 with the generator of Z/2 acting by negation."""
    k = FinAb(list(moduli))
    action = {"e": [[1]], "a": [[-1 % moduli[0]]]}
    return XModule(x, k, action)


def test_semidirect_trivial_action_is_direct_product():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    sd = semidirect_product(k, x)
    assert sd.order() == 4
    assert find_isomorphism(sd, klein_four()) is not None


def test_semidirect_inversion_action_is_s3():
    x = cyclic_group(2)
    k = inversion_module(x)
    sd = semidirect_product(k, x)
    assert sd.order() == 6
    assert find_isomorphism(sd, symmetric_3()) is not None
    # projection is a homomorphism with kernel K
    assert sd.projection.is_homomorphism()


def test_semidirect_zero_module_is_x():
    x = cyclic_group(3)
    k = XModule.trivial(x, [1])
    sd = semidirect_product(k, x)
    assert find_isomorphism(sd, x) is not None


def test_derivations_z2_trivial():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    ders = derivations(identity_map(x), k)
    assert len(ders) == 2
    assert ders.invariants() == G(2)


def test_derivations_free_source_gives_whole_module():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    f = FreeAlgebra(GP, ["a"])
    p = AlgebraMap.from_generator_images(f, x, {"a": "a"})
    ders = derivations(p, k)
    assert len(ders) == 2
    assert ders.invariants() == G(2)


def test_derivations_swap_action():
    # K = Z/2 + Z/2 with coordinates swapped by the generator
    x = cyclic_group(2)
    k = XModule(x, FinAb([2, 2]), {"e": [[1, 0], [0, 1]], "a": [[0, 1], [1, 0]]})
    ders = derivations(identity_map(x), k)
    assert ders.invariants() == G(2)
    vals = sorted(d.values["a"] for d in ders)
    assert vals == [(0, 0), (1, 1)]


def test_trivial_action_derivations_are_homs():
    # with trivial K the derivation identity is just being a homomorphism
    x = cyclic_group(4)
    k = XModule.trivial(x, [2])
    ders = derivations(identity_map(x), k)
    from aq.algebras import enumerate_homs

    homs = enumerate_homs(x, cyclic_group(2))
    assert len(ders) == len(homs) == 2
def test_x_module_structures_of_order_2_over_z2():
    x = cyclic_group(2)
    mods = x_module_structures(x, 2)
    # Z/2 has only the trivial automorphism: exactly one module
    assert len(mods) == 1
    assert mods[0].invariants() == G(2)


def test_x_module_structures_of_order_3_over_z2():
    x = cyclic_group(2)
    mods = x_module_structures(x, 3)
    # trivial and inversion actions
    assert len(mods) == 2


def test_x_module_structures_do_not_depend_on_assert():
    # invalid actions are rejected by a raised AlgebraError, which
    # `python -O` keeps; it strips asserts
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("from aq.algebras import cyclic_group\n"
            "from aq.beck import x_module_structures\n"
            "print(len(x_module_structures(cyclic_group(3), 4)))")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "4"
    assert len(x_module_structures(cyclic_group(3), 4)) == 4


def test_brute_vs_formula_v4_over_z2():
    x = cyclic_group(2)
    v4 = klein_four()
    sort = "g"
    p = AlgebraMap(v4, x, {sort: {
        "e|e": "e", "e|a": "a", "a|e": "e", "a|a": "a"}})
    brute = brute_force_group_objects(p)
    formed = formula_group_objects(p)
    assert {s.key() for s in brute} == {s.key() for s in formed}
    assert len(brute) > 0


def test_brute_vs_formula_s3_over_z2():
    x = cyclic_group(2)
    s3 = symmetric_3()
    sort = "g"
    sign = {el: ("e" if el in ("e", "p120", "p201") else "a")
            for el in s3.carriers[sort]}
    # p120/p201 are the rotations (even permutations) in our labeling
    even = [el for el in s3.carriers[sort]
            if el == "e" or _is_even_perm(el)]
    sign = {el: ("e" if el in even else "a") for el in s3.carriers[sort]}
    p = AlgebraMap(s3, x, {sort: sign})
    brute = brute_force_group_objects(p)
    formed = formula_group_objects(p)
    assert {s.key() for s in brute} == {s.key() for s in formed}
    assert len(brute) > 0


def _is_even_perm(label):
    perm = tuple(int(c) for c in label[1:])
    inversions = sum(
        1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
    )
    return inversions % 2 == 0


def test_group_objects_over_trivial_base():
    # over the trivial group: group objects = unique abelian structure
    x = cyclic_group(1, name="1")
    z3 = cyclic_group(3)
    sort = "g"
    p = AlgebraMap(z3, x, {sort: {el: "e" for el in z3.carriers[sort]}})
    brute = brute_force_group_objects(p)
    # at most one group object structure per zero section; Z/3 has e fixed
    assert len(brute) == 1
    formed = formula_group_objects(p)
    assert {s.key() for s in brute} == {s.key() for s in formed}


def test_classify_group_objects_record():
    x = cyclic_group(2)
    v4 = klein_four()
    sort = "g"
    p = AlgebraMap(v4, x, {sort: {
        "e|e": "e", "e|a": "a", "a|e": "e", "a|a": "a"}})
    recs = classify_group_objects(x, [p])
    assert recs[0]["match"]
def test_abelianized_matrix_absolute_exponent_sums():
    src = FreeAlgebra(GP, ["y"])
    tgt = FreeAlgebra(GP, ["a", "b"])
    word = tgt.eval_term(__import__("aq.dsl", fromlist=["parse_term"]).parse_term(
        "mul(a, mul(b, mul(a, inv(b))))"
    ))
    m = AlgebraMap.from_generator_images(src, tgt, {"y": word})
    # exponent sums 2 in a and 0 in b, which the sparse column omits
    assert fox_columns(m, over=None) == [[(0, 2)]]


def test_abelianized_matrix_fox_over_x():
    # d/da (a*a) = 1 + a in Z[X] under the augmentation a -> a
    x = cyclic_group(2)
    src = FreeAlgebra(GP, ["y"])
    tgt = FreeAlgebra(GP, ["a"])
    m = AlgebraMap.from_generator_images(
        src, tgt, {"y": (("a", 1), ("a", 1))}
    )
    p = AlgebraMap.from_generator_images(tgt, x, {"a": "a"})
    assert fox_columns(m, over=p) == [[(0, {"e": 1, "a": 1})]]


def test_abelianized_matrix_fox_inverse():
    # d/da (a^-1) = -a^-1 = -a in Z[Z/2]
    x = cyclic_group(2)
    src = FreeAlgebra(GP, ["y"])
    tgt = FreeAlgebra(GP, ["a"])
    m = AlgebraMap.from_generator_images(src, tgt, {"y": (("a", -1),)})
    p = AlgebraMap.from_generator_images(tgt, x, {"a": "a"})
    assert fox_columns(m, over=p) == [[(0, {"a": -1})]]


def test_fox_chain_rule():
    # matrix of a composite = product of matrices (with mapped coefficients)
    import random

    from aq.rings import Ring

    rng = random.Random(4)
    x = cyclic_group(2)
    a = FreeAlgebra(GP, ["u", "v"])
    b = FreeAlgebra(GP, ["s", "t"])
    c = FreeAlgebra(GP, ["w"])

    def rand_word(alg, length):
        word = alg.zero()
        for _ in range(length):
            g = rng.choice(alg.generators["g"])
            e = rng.choice([1, -1])
            word = alg.mul(word, ((g, e),))
        return word

    for _ in range(20):
        m1 = AlgebraMap.from_generator_images(
            c, b, {"w": rand_word(b, rng.randint(1, 4))}
        )
        m2 = AlgebraMap.from_generator_images(
            b, a, {"s": rand_word(a, rng.randint(1, 4)),
                   "t": rand_word(a, rng.randint(1, 4))}
        )
        comp = AlgebraMap.from_generator_images(
            c, a, {"w": m2.apply_free_element(m1.mapping["g"]["w"])}
        )
        p_a = AlgebraMap.from_generator_images(a, x, {"u": "a", "v": "e"})
        p_b = AlgebraMap.from_generator_images(
            b, x, {"s": p_a.apply_free_element(m2.mapping["g"]["s"]),
                   "t": p_a.apply_free_element(m2.mapping["g"]["t"])}
        )
        ring = Ring("ZG", group=x.group_table("g"))
        cols1 = fox_columns(m1, over=p_b)
        cols2 = fox_columns(m2, over=p_a)
        colsc = fox_columns(comp, over=p_a)
        # colsc == cols2 . cols1 over the group ring, column by column
        for col1, colc in zip(cols1, colsc):
            acc = {}
            for t, y in col1:
                for i, x2 in cols2[t]:
                    acc[i] = ring.add(acc.get(i, ring.zero()), ring.mul(x2, y))
            assert {i: c for i, c in acc.items() if c} == dict(colc)
