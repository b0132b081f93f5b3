import pytest

from aq.dsl import DslSyntaxError, parse_term, parse_theory, print_theory
from aq.terms import App, Var, equations_equal_up_to_renaming
from aq.theories import (
    DuplicateNameError,
    OpDecl,
    SortingError,
    TheoryMap,
    abelian_theory,
    abelianization_theory,
    comma_theory,
    discrete_theory,
    group_theory,
    module_theory,
    product_theory,
    trivial_theory,
    validate_group_structure,
    zmod_module_theory,
)

GP_SOURCE = """
theory Gp {
  sort g
  op mul : g g -> g
  op inv : g -> g
  op e : -> g
  eq mul(mul($x, $y), $z) = mul($x, mul($y, $z))
  eq mul(e, $x) = $x
  eq mul($x, e) = $x
  eq mul(inv($x), $x) = e
  eq mul($x, inv($x)) = e
  group g { mul = mul, inv = inv, unit = e }
}
"""


def test_parse_group_theory():
    t = parse_theory(GP_SOURCE)
    assert t.name == "Gp"
    assert t.sorts == ("g",)
    assert len(t.ops) == 3
    assert len(t.equations) == 5
    assert t.class_tag == "group"


def test_round_trip_parse_print_parse():
    t1 = parse_theory(GP_SOURCE)
    text = print_theory(t1)
    t2 = parse_theory(text)
    assert print_theory(t2) == text
    assert t2.sorts == t1.sorts
    assert [o.name for o in t2.ops] == [o.name for o in t1.ops]
    assert len(t2.equations) == len(t1.equations)


def test_empty_theory_is_valid():
    t = parse_theory("theory Nothing { }")
    assert t.sorts == ()
    assert t.ops == []
    assert t.class_tag == "discrete"


def test_undeclared_sort_is_sorting_error():
    with pytest.raises(SortingError):
        parse_theory("theory T { sort g\n op mul : g g -> h }")


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as exc:
        parse_theory("theory T {\n  op mul g g -> g\n}")
    assert exc.value.line == 2


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateNameError):
        parse_theory("theory T { sort g g }")
    with pytest.raises(DuplicateNameError):
        parse_theory(
            "theory T { sort g\n op f : g -> g\n op f : g -> g }"
        )


def test_term_parsing_and_printing():
    t = parse_term("mul($x, inv($x))")
    assert t == App("mul", (Var("x"), App("inv", (Var("x"),))))


def test_validate_group_structure_on_gp_and_ab():
    gp = group_theory()
    w = validate_group_structure(gp)
    assert w and w.triples["g"] == ("mul", "inv", "e")
    assert not w.strength_flag
    ab = abelian_theory()
    w2 = validate_group_structure(ab)
    assert w2
    # all three ops are homomorphisms once the interchange laws are added
    tab = abelianization_theory(group_theory())
    w3 = validate_group_structure(tab)
    assert w3 and w3.strength_flag


def test_validate_group_structure_failure_report():
    t = parse_theory("theory Set1 { sort g }")
    w = validate_group_structure(t)
    assert not w
    assert w.missing["g"] == ["mul"]


def test_discrete_theory():
    for t in (group_theory(), abelian_theory()):
        d = discrete_theory(t)
        assert d.sorts == t.sorts
        assert d.ops == [] and d.equations == []
    two = parse_theory("theory Pair { sort a b }")
    assert len(discrete_theory(two).sorts) == 2


def test_product_theory_ab_gp():
    prod = product_theory(abelian_theory("A"), group_theory())
    # 3 group ops + 3 added abelian ops
    assert len(prod.ops) == 6
    names = {o.name for o in prod.ops}
    assert "A.mul" in names and "mul" in names
    # interchange: Eckmann-Hilton equations present
    assert any("A.mul" == eq[0].op or "A.mul" == eq[1].op
               for eq in prod.equations if not eq[0].is_var() and not eq[1].is_var())
    # every generated equation is well-sorted (validate would have raised)
    prod.validate()


def test_product_theory_on_graded_sets():
    two = parse_theory("theory Pair { sort a b }")
    prod = product_theory(abelian_theory("A"), two)
    # one copy of the 3 abelian ops per sort, no cross-sort ops
    assert len(prod.ops) == 6
    for op in prod.ops:
        assert len(set(op.args) | {op.result}) == 1


def test_product_with_trivial_theory_is_identity_up_to_renaming():
    prod = product_theory(trivial_theory("T"), group_theory())
    gp = group_theory()
    assert len(prod.ops) == len(gp.ops)
    assert len(prod.equations) == len(gp.equations)


def test_product_theory_localization_idempotence():
    ab = abelian_theory("A")
    once = product_theory(ab, group_theory())
    twice = product_theory(ab, once)
    # second application only renames: same op count modulo the new copies
    assert len(twice.ops) == len(once.ops) + 3
    # and adds no genuinely new equation shapes beyond renamed copies
    assert len(twice.equations) >= len(once.equations)


def test_abelianization_theory():
    tab = abelianization_theory(group_theory())
    assert tab.class_tag == "abelian"
    x, y = Var("x"), Var("y")
    comm = (App("mul", (x, y)), App("mul", (y, x)))
    assert tab.has_equation(comm)
    # idempotent up to renaming: no new equations on a second pass
    tab2 = abelianization_theory(tab)
    assert len(tab2.equations) == len(tab.equations)
    assert len(tab2.ops) == len(tab.ops)


def test_abelianization_of_module_theory_is_itself():
    from aq.algebras import cyclic_group

    tx = module_theory(group_theory(), cyclic_group(2))
    tx2 = abelianization_theory(tx)
    assert len(tx2.equations) == len(tx.equations)


def test_comma_theory_sort_counts():
    from aq.algebras import cyclic_group, trivial_group

    for m in (2, 3):
        t = comma_theory(group_theory(), cyclic_group(m))
        assert len(t.sorts) == m
    t1 = comma_theory(group_theory(), trivial_group())
    assert len(t1.sorts) == 1
    assert len(t1.ops) == 3  # mul@, inv@, e@ on the unique fiber


def test_comma_theory_mul_ops_indexed_by_pairs():
    from aq.algebras import cyclic_group

    t = comma_theory(group_theory(), cyclic_group(2))
    muls = [o for o in t.ops if o.name.startswith("mul@")]
    assert len(muls) == 4  # all pairs in Z/2
    t.validate()


def test_module_theory_z2():
    from aq.algebras import cyclic_group, trivial_group

    tx = module_theory(group_theory(), cyclic_group(2))
    assert tx.class_tag == "module"
    assert tx.ring.kind == "ZG"
    act_ops = [o for o in tx.ops if o.name.startswith("act_")]
    assert len(act_ops) == 2
    # action axioms: |X| * 2 (additivity + generator-composition) + 1 unit
    tab = abelianization_theory(group_theory())
    extra = len(tx.equations) - len(tab.equations)
    assert extra == 2 * 2 + 1
    # trivial base degenerates to the abelianized theory
    t0 = module_theory(group_theory(), trivial_group())
    assert not any(o.name.startswith("act_") for o in t0.ops)


def test_zmod_module_theory():
    t = zmod_module_theory(4)
    assert t.class_tag == "module" and t.ring.kind == "Zmod" and t.ring.m == 4


def test_theory_map_gp_to_ab():
    gp = group_theory()
    ab = abelian_theory()
    m = TheoryMap(
        gp, ab, {"g": "g"},
        {"mul": App("mul", (Var("x0"), Var("x1"))),
         "inv": App("inv", (Var("x0"),)),
         "e": App("e", ())},
    )
    img = m.apply_term(App("mul", (Var("a"), App("inv", (Var("a"),)))))
    assert img == App("mul", (Var("a"), App("inv", (Var("a"),))))


def test_theory_map_rejects_bad_image():
    gp = group_theory()
    ab = abelian_theory()
    with pytest.raises(Exception):
        TheoryMap(
            gp, ab, {"g": "g"},
            {"mul": App("mul", (Var("x0"), Var("x0"))),  # x*x is not a hom image
             "inv": App("inv", (Var("x0"),)),
             "e": App("e", ())},
        )


def test_equation_renaming_comparison():
    x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
    e1 = (App("mul", (x, y)), App("mul", (y, x)))
    e2 = (App("mul", (u, v)), App("mul", (v, u)))
    assert equations_equal_up_to_renaming(e1, e2)


def test_the_group_structure_is_derived_once_per_theory(monkeypatch):
    from aq import theories
    from aq.algebras import FiniteAlgebra, cyclic_group

    calls = []

    def counting(t):
        calls.append(t)
        return validate_group_structure(t)

    monkeypatch.setattr(theories, "validate_group_structure", counting)
    z2 = cyclic_group(2)
    t = group_theory()

    tables = dict(z2.tables, twice={(x,): z2.tables["mul"][(x, x)]
                                    for x in z2.carriers["g"]})

    def witness():
        return FiniteAlgebra(t, "z2", z2.carriers, tables).witness()

    first = witness()
    assert first and first.triples["g"] == ("mul", "inv", "e")
    assert witness() is first and len(calls) == 1
    # a theory changed afterwards derives its witness again
    right_inverse = t.equations.pop()
    assert not witness() and len(calls) == 2
    t.equations.append(right_inverse)
    again = witness()
    assert again and again is not first and len(calls) == 3
    t.group_witness = {}
    found = witness()
    assert found.triples["g"] == ("mul", "inv", "e") and len(calls) == 4
    t.ops.append(OpDecl("twice", ("g",), "g"))
    assert witness() is not found and len(calls) == 5
    assert witness() and len(calls) == 5
