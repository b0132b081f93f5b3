import json
import os
import random
import subprocess
import sys

import pytest

from aq.algebras import (
    AB,
    GP,
    AlgebraError,
    AlgebraMap,
    NotFiniteWithinBound,
    abelianization_table,
    adjunction_check,
    cyclic_group,
    direct_product,
    dihedral_4,
    enumerate_homs,
    find_isomorphism,
    free_algebra,
    klein_four,
    normalize,
    quaternion_8,
    quotient_by_normal_closure,
    realize_presentation,
    symmetric_3,
    trivial_group,
)
from aq.abgroups import FGAbelianGroup
from aq.dsl import parse_term
from aq.terms import App
from aq.theories import group_theory, module_theory


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_normalize_group_inverse_axiom():
    f = free_algebra(GP, ["a"])
    t = parse_term("mul(a, inv(a))")
    assert normalize(t, f) == App("e", ())


def test_normalize_group_reduced_words():
    f = free_algebra(GP, ["a", "b"])
    t = parse_term("mul(mul(a, b), inv(b))")
    assert normalize(t, f) == App("a", ())
    # idempotent
    assert normalize(normalize(t, f), f) == App("a", ())


def test_normalize_abelian_exponent_vectors():
    f = free_algebra(AB, ["a", "b"])
    t = parse_term("mul(mul(a, b), inv(a))")
    assert normalize(t, f) == App("b", ())


def test_normalize_module_action_composition():
    tx = module_theory(group_theory(), cyclic_group(2))
    f = free_algebra(tx, ["m"])
    t = parse_term("act_a(act_a(m))")
    assert normalize(t, f) == App("m", ())


def test_free_algebra_infinite_cyclic():
    f = free_algebra(GP, ["a"])
    x = f.eval_term(parse_term("mul(a, mul(a, a))"))
    assert x == (("a", 1), ("a", 1), ("a", 1))


def test_free_abelian_rank_two():
    f = free_algebra(AB, ["a", "b"])
    x = f.eval_term(parse_term("mul(b, mul(a, b))"))
    assert x == (("a", 1), ("b", 2))


def test_duplicate_generators_are_named_once_in_sorted_order():
    with pytest.raises(AlgebraError) as err:
        free_algebra(GP, ["b", "c", "a", "b", "a", "b"])
    assert str(err.value) == "duplicate generator a, b"
    # thousands of generators are checked in linear time
    names = [f"g{i}" for i in range(30000)]
    assert free_algebra(GP, names).gen_list == names
    with pytest.raises(AlgebraError, match="^duplicate generator g7$"):
        free_algebra(GP, names + ["g7"])


def test_free_on_empty_set_is_zero():
    f = free_algebra(GP, [])
    assert f.eval_term(parse_term("e()")) == ()


def test_builtin_groups_validate():
    for g in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four(),
              symmetric_3(), dihedral_4(), quaternion_8(), trivial_group()):
        assert g.order() in (1, 2, 3, 4, 6, 8)
        g.validate()


def test_enumerate_homs_free_to_z2():
    f = free_algebra(GP, ["a", "b"])
    homs = enumerate_homs(f, cyclic_group(2))
    assert len(homs) == 4


def test_enumerate_homs_z3_to_z4():
    homs = enumerate_homs(cyclic_group(3), cyclic_group(4))
    assert len(homs) == 1


def test_enumerate_homs_trivial_source():
    homs = enumerate_homs(trivial_group(), symmetric_3())
    assert len(homs) == 1


def test_enumerate_homs_s3_to_z2():
    homs = enumerate_homs(symmetric_3(), cyclic_group(2))
    assert len(homs) == 2  # trivial and sign


def test_adjunction_check_examples():
    assert adjunction_check(GP, ["a", "b"], cyclic_group(2))
    assert adjunction_check(GP, [], cyclic_group(6))
    assert adjunction_check(AB, ["a"], cyclic_group(3, theory=AB))


def test_adjunction_check_randomized():
    rng = random.Random(20240817)
    targets = [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four(),
               symmetric_3()]
    for _ in range(100):
        n = rng.randint(0, 3)
        gens = [f"t{i}" for i in range(n)]
        b = rng.choice(targets)
        assert adjunction_check(GP, gens, b)


def test_realize_presentation_z4():
    a = parse_term("a")
    rel = parse_term("mul(a, mul(a, mul(a, a)))")
    alg = realize_presentation(GP, ["a"], [rel], bound=64)
    assert alg.order() == 4
    iso = find_isomorphism(alg, cyclic_group(4))
    assert iso is not None


def test_realize_presentation_abelian_smith():
    # <a, b | 2a, 3b> over the abelian theory = Z/2 + Z/3 = Z/6
    rels = [parse_term("mul(a, a)"), parse_term("mul(b, mul(b, b))")]
    alg = realize_presentation(AB, ["a", "b"], rels, bound=64)
    assert alg.order() == 6
    # cross-check with the group-theory closure route
    alg2 = realize_presentation(
        GP, ["a", "b"],
        rels + [(parse_term("mul(a, b)"), parse_term("mul(b, a)"))],
        bound=64,
    )
    assert alg2.order() == 6
    assert find_isomorphism(alg, cyclic_group(6, theory=AB)) is not None


def test_realize_presentation_free_group_exceeds_bound():
    with pytest.raises(NotFiniteWithinBound):
        realize_presentation(GP, ["a"], [], bound=10)


def test_realize_presentation_module_theory():
    tx = module_theory(group_theory(), cyclic_group(2))
    # free rank-1 module over Z[Z/2] has 4 elements... it is infinite (Z^2)
    with pytest.raises(NotFiniteWithinBound):
        realize_presentation(tx, ["m"], [], bound=100)
    # m + a*m = 0 and 2m = 0 gives Z/2 with swap action trivialized
    rels = [parse_term("mul(m, m)")]
    alg = realize_presentation(tx, ["m"], rels, bound=100)
    assert alg.order() == 4  # Z/2[Z/2]-module: Z/2 x Z/2 with swap action
    assert "act_a" in alg.tables


def test_quotient_by_normal_closure_s3():
    s3 = symmetric_3()
    sort = "g"
    three_cycle = next(
        x for x in s3.carriers[sort]
        if x != "e" and s3.gmul(s3.gmul(x, x, sort), x, sort) == "e"
        and s3.gmul(x, x, sort) != "e"
    )
    quo, proj = quotient_by_normal_closure(s3, [three_cycle])
    assert quo.order() == 2
    assert proj.is_homomorphism()


def test_abelianization_table_oracle():
    assert abelianization_table(symmetric_3()) == G(2)
    assert abelianization_table(cyclic_group(4)) == G(4)
    assert abelianization_table(quaternion_8()) == G(2, 2)
    assert abelianization_table(dihedral_4()) == G(2, 2)


def test_direct_product_and_iso_search():
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert find_isomorphism(v4, klein_four()) is not None
    assert find_isomorphism(v4, cyclic_group(4)) is None


def test_free_to_free_map_fox_style_application():
    src = free_algebra(GP, ["y"])
    tgt = free_algebra(GP, ["a"])
    m = AlgebraMap.from_generator_images(src, tgt, {"y": tgt.eval_term(parse_term("mul(a, a)"))})
    word = src.eval_term(parse_term("mul(y, inv(y))"))
    assert m.apply_free_element(word) == ()


def test_enumerate_homs_over_restriction():
    # maps Z/4 -> Z/4 over Z/2 (both projecting mod 2)
    z4 = cyclic_group(4)
    z2 = cyclic_group(2)
    proj = AlgebraMap(z4, z2, {"g": {"e": "e", "a": "a", "a2": "e", "a3": "a"}})
    homs = enumerate_homs(z4, z4, over=(proj, proj))
    # x -> kx needs k odd: k in {1, 3}
    assert len(homs) == 2


# each table or module that fails a law, and the message naming its first
# failure, as `FiniteAlgebra.validate` and `XModule` raise it
_LAW_FAILURES = (
    "from aq.abgroups import FinAb\n"
    "from aq.algebras import GP, AlgebraError, FiniteAlgebra, cyclic_group\n"
    "from aq.beck import XModule\n"
    "els = ['e', 'a', 'b']\n"
    "mul = {(x, y): els[(i + j) % 3] for i, x in enumerate(els)\n"
    "       for j, y in enumerate(els)}\n"
    "inv = {(x,): els[-i % 3] for i, x in enumerate(els)}\n"
    "z2 = cyclic_group(2)\n"
    "cases = {\n"
    "    'associativity': lambda: FiniteAlgebra(GP, 'bad', {'g': els}, {\n"
    "        'mul': {**mul, ('a', 'b'): 'b', ('b', 'a'): 'a'}, 'inv': inv,\n"
    "        'e': {(): 'e'}}),\n"
    "    'inverse': lambda: FiniteAlgebra(GP, 'bad', {'g': els}, {\n"
    "        'mul': mul, 'inv': {**inv, ('b',): 'b'}, 'e': {(): 'e'}}),\n"
    "    'unit': lambda: FiniteAlgebra(GP, 'bad', {'g': els}, {\n"
    "        'mul': mul, 'inv': inv, 'e': {(): 'a'}}),\n"
    "    'identity acts': lambda: XModule(\n"
    "        z2, FinAb([3]), {'e': [[2]], 'a': [[2]]}),\n"
    "    'not multiplicative': lambda: XModule(\n"
    "        z2, FinAb([5]), {'e': [[1]], 'a': [[2]]}),\n"
    "}\n"
    "out = {}\n"
    "for name, build in cases.items():\n"
    "    try:\n"
    "        build()\n"
    "    except AlgebraError as exc:\n"
    "        out[name] = str(exc)\n"
    "print(json.dumps(out))\n"
)


def test_law_failures_name_their_first_failure_also_under_O():
    want = {
        "associativity": "bad: equation fails at {'x': 'a', 'y': 'a', "
                         "'z': 'a'}: mul(mul($x, $y), $z) = mul($x, mul($y, $z))",
        "inverse": "bad: equation fails at {'x': 'b'}: mul(inv($x), $x) = e()",
        "unit": "bad: equation fails at {'x': 'e'}: mul(e(), $x) = $x",
        "identity acts": "identity of X must act trivially",
        "not multiplicative": "X-action must be multiplicative",
    }
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", "import json\n" + _LAW_FAILURES],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        assert out.returncode == 0, (flags, out.stderr)
        assert json.loads(out.stdout) == want, flags
