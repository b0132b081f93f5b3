"""Edge paths: chain-form .sres fixtures, error positions, budget
exhaustion, and searches that leave no reference cycles."""

import os

import pytest

from aq.abgroups import FGAbelianGroup
from aq.algebras import (
    BudgetExhausted,
    FreeAlgebra,
    cyclic_group,
    enumerate_homs,
    GP,
)
from aq.beck import XModule
from aq.dsl import DslSyntaxError
from aq.fixtures import FixtureError, parse_sres, parse_xmodule
from aq.errors import AlgebraError
from aq.resolutions import factor_set_cohomology
from aq.rings import CoefficientModule, GroupTable, RModulePresentation, Ring
from aq.theories import SortingError


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_chain_form_sres_fixture():
    text = """
    sres zres {
      ring Z
      chain {
        ranks 1 1
        d 1 : [[4]]
      }
    }
    """
    v = parse_sres(text)
    v.check_identities()
    from aq.simplicial import moore_homotopy

    pis = moore_homotopy(v, range(2))
    assert pis[0] == G(4) and pis[1] == G()


def test_chain_form_sres_over_zmod():
    text = """
    sres zres {
      ring Z/4
      chain {
        ranks 1 1 1
        d 1 : [[2]]
        d 2 : [[2]]
      }
    }
    """
    v = parse_sres(text)
    from aq.simplicial import moore_homotopy

    pis = moore_homotopy(v, range(2))
    assert pis[0] == G(2) and pis[1] == G()
def test_sorting_error_names_term():
    from aq.dsl import parse_theory

    with pytest.raises(SortingError) as exc:
        parse_theory(
            "theory T { sort g\n op f : g -> g\n eq f($x, $y) = $x }"
        )
    assert "f(" in str(exc.value)


def test_dsl_error_position_in_term():
    from aq.dsl import parse_theory

    with pytest.raises(DslSyntaxError) as exc:
        parse_theory("theory T { sort g\n  eq mul($x = $x }")
    assert exc.value.line == 2


def test_xmodule_action_table_violation_rejected():
    text = """
    xmodule bad {
      base "z2.alg"
      carrier g : 2
      act e : [[1]]
      act a : [[1]]
      action mul (e, e) { (0,0)->1 (0,1)->1 (1,0)->1 (1,1)->0 }
    }
    """
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    with pytest.raises(FixtureError) as exc:
        parse_xmodule(text, base_dir=fixtures)
    assert "violates" in str(exc.value)


def test_enumerate_homs_budget_exhaustion():
    f = FreeAlgebra(GP, [f"t{i}" for i in range(6)])
    target = cyclic_group(4)
    # free sources enumerate assignments directly, so use a finite source
    big = cyclic_group(6)
    with pytest.raises(BudgetExhausted):
        enumerate_homs(big, target, budget=3)


def test_factor_set_budget_exhaustion():
    v4 = cyclic_group(4)
    k = XModule.trivial(v4, [3])
    with pytest.raises(BudgetExhausted):
        factor_set_cohomology(v4, k, 2, budget=10)


def test_searches_leave_no_reference_cycles():
    # a recursive closure refers to itself through its cell, a cycle that
    # only the cyclic garbage collector frees
    import gc

    from aq.dsl import parse_term
    from aq.simplicial import surjections
    from aq.terms import variables

    term = parse_term("f($x, g($y, $x), h($z))")
    z2 = cyclic_group(2)
    k = XModule.trivial(z2, [2])
    for call in (lambda: surjections(4, 2), lambda: variables(term),
                 lambda: factor_set_cohomology(z2, k, 2)):
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
    assert variables(term) == ["x", "y", "z"]
    assert factor_set_cohomology(z2, k, 2) == G(2)


def test_rings_and_their_modules_reject_invalid_input():
    with pytest.raises(AlgebraError, match="unknown ring kind"):
        Ring("Q")
    with pytest.raises(AlgebraError, match="m >= 2"):
        Ring("Zmod", m=1)
    with pytest.raises(AlgebraError, match="needs a group"):
        Ring("ZG")
    with pytest.raises(AlgebraError, match="order >= 1"):
        GroupTable.cyclic(0)
    with pytest.raises(AlgebraError, match="not total"):
        GroupTable(["e", "a"], {("e", "e"): "e"}, "e")
    idempotent = {(x, y): "a" if "a" in (x, y) else "e"
                  for x in "ea" for y in "ea"}
    with pytest.raises(AlgebraError, match="no inverse"):
        GroupTable(["e", "a"], idempotent, "e")
    with pytest.raises(AlgebraError, match="not of length 2"):
        RModulePresentation(Ring("Z"), 2, [[1]])
    zc2 = Ring("ZG", group=GroupTable.cyclic(2))
    with pytest.raises(AlgebraError, match="missing action matrix"):
        CoefficientModule(zc2, [3], {"g0": [[1]]})
    with pytest.raises(AlgebraError, match="not multiplicative"):
        CoefficientModule(zc2, [3], {"g0": [[1]], "g1": [[0]]})
    with pytest.raises(AlgebraError, match="4-torsion"):
        CoefficientModule.trivial(Ring("Zmod", m=4), [3])
