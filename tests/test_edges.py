"""Edge paths: chain-form .sres fixtures, the bidegree Ext fixture through
tot, latching/Moore rank bookkeeping on generated resolutions, error
positions, budget exhaustion, and searches that leave no reference
cycles."""

import os

import pytest

from aq.abgroups import FGAbelianGroup
from aq.algebras import (
    BudgetExhausted,
    cyclic_group,
    enumerate_homs,
    free_algebra,
    GP,
)
from aq.beck import XModule
from aq.dsl import DslSyntaxError
from aq.fixtures import FixtureError, parse_sres, parse_xmodule
from aq.errors import AlgebraError
from aq.resolutions import factor_set_cohomology, loop_group_resolution
from aq.rings import CoefficientModule, GroupTable, RModulePresentation, Ring
from aq.simplicial import (
    CosimplicialSimplicial,
    dold_kan,
    hom_cochain_of_simplicial,
    latching,
    tot_homotopy,
)
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


def test_tot_on_ext_bidegree_fixture():
    # Hom(resolution of Z/4, Z/2) as a bidegree object: the cochain data
    # sits in the cosimplicial direction, constant in the simplicial one;
    # total degrees -n carry H^n = (Z/2, Z/2, 0)
    from aq.presented import Presentation
    from aq.simplicial import PresentedComplex

    cx = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 4)]]]
    )
    v = dold_kan(cx, truncation=3)
    w_cochain = hom_cochain_of_simplicial(v, [2])
    trunc = 3
    zero_level = Presentation.free(0)
    levels = [[w_cochain.levels[s] if t == 0 else zero_level
               for t in range(trunc + 1)] for s in range(trunc + 1)]
    cofaces = [[w_cochain.cofaces[s] if (t == 0 and s < trunc) else
                [[] for _ in range(s + 2)]
                for t in range(trunc + 1)] for s in range(trunc + 1)]
    faces = [[[[] for _ in range(t + 1)] if t else []
              for t in range(trunc + 1)] for s in range(trunc + 1)]
    w = CosimplicialSimplicial(levels, cofaces, faces, trunc)
    pis = tot_homotopy(w, [0, -1, -2])
    assert pis[0] == G(2)
    assert pis[-1] == G(2)
    assert pis[-2] == G()


def test_latching_plus_moore_ranks_cover_levels():
    # degreewise-free resolutions split level n into the latching
    # (degenerate) part and the normalized part
    from aq.resolutions import abelianized_complex
    from aq.simplicial import _degenerate_quotient

    for m in (2, 3):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=3)
        closure, _ = _degenerate_quotient(v.abelianization(True), 3)
        normalized, ranks, _ = abelianized_complex(v, over=g)
        for n in (1, 2, 3):
            l_rank = len(latching(v, n).generators["g"])
            level_rank = len(v.levels[n].generators["g"])
            # the degenerate relation lattice has one free Z[X]-summand
            # per latching generator
            assert l_rank * _zr(g) == _degenerate_rank(closure.levels[n]), (m, n)
            assert l_rank < level_rank
            # latching rank + normalized rank = level rank
            assert l_rank + ranks[n] == level_rank, (m, n)
            assert normalized.levels[n].gens == ranks[n] * _zr(g)
            assert normalized.levels[n].nrels() == 0


def _degenerate_rank(pres):
    from aq.snf import cols_to_matrix, smith_diagonal

    if not pres.rels:
        return 0
    return len(smith_diagonal(cols_to_matrix(pres.rels, pres.gens)))


def _zr(g):
    return g.order()


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
    f = free_algebra(GP, [f"t{i}" for i in range(6)])
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
