"""Multi-sorted paths: graded-set and graded-abelian-group algebras
through the generic enumeration engine, and the per-operation action
accessor of modules."""

import os
import subprocess
import sys

import pytest

from aq.abgroups import FinAb
from aq.algebras import (
    AlgebraError,
    FiniteAlgebra,
    FreeAlgebra,
    cyclic_group,
    enumerate_homs,
)
from aq.beck import Derivation, XModule, identity_map
from aq.dsl import parse_theory
from aq.theories import abelian_theory, product_theory


def test_graded_set_homs_count():
    two = parse_theory("theory Pair { sort a b }")
    src = FiniteAlgebra(two, "S", {"a": ["x", "y"], "b": ["u"]}, {})
    tgt = FiniteAlgebra(two, "T", {"a": ["0", "1", "2"], "b": ["p", "q"]}, {})
    homs = enumerate_homs(src, tgt)
    assert len(homs) == 3 ** 2 * 2 ** 1


def _graded_abelian_algebra(theory, moduli_a, moduli_b, name):
    """A pair of cyclic groups as an algebra over the two-sorted
    graded-abelian theory (ops A.mul@s, A.inv@s, A.e@s)."""
    data = {"a": FinAb([moduli_a]), "b": FinAb([moduli_b])}
    carriers = {
        s: [str(el[0]) for el in k.elements()] for s, k in data.items()
    }
    tables = {}
    for s, k in data.items():
        m = k.moduli[0]
        tables[f"A.mul@{s}"] = {
            (str(x), str(y)): str((x + y) % m)
            for x in range(m) for y in range(m)
        }
        tables[f"A.inv@{s}"] = {(str(x),): str((-x) % m) for x in range(m)}
        tables[f"A.e@{s}"] = {(): "0"}
    return FiniteAlgebra(theory, name, carriers, tables)


def test_graded_abelian_group_homs():
    two = parse_theory("theory Pair { sort a b }")
    theory = product_theory(abelian_theory("A"), two)
    g1 = _graded_abelian_algebra(theory, 2, 3, "G1")
    g2 = _graded_abelian_algebra(theory, 2, 3, "G2")
    homs = enumerate_homs(g1, g2)
    # Hom(Z/2, Z/2) x Hom(Z/3, Z/3) componentwise
    assert len(homs) == 2 * 3
    g3 = _graded_abelian_algebra(theory, 4, 2, "G3")
    homs2 = enumerate_homs(g1, g3)
    # Hom(Z/2, Z/4) x Hom(Z/3, Z/2) = 2 * 1
    assert len(homs2) == 2


def test_graded_abelian_validation_catches_bad_table():
    two = parse_theory("theory Pair { sort a b }")
    theory = product_theory(abelian_theory("A"), two)
    g1 = _graded_abelian_algebra(theory, 2, 3, "G1")
    bad_tables = {op: dict(tab) for op, tab in g1.tables.items()}
    bad_tables["A.mul@a"][("1", "1")] = "1"  # breaks the inverse law
    with pytest.raises(Exception):
        FiniteAlgebra(theory, "bad", dict(g1.carriers), bad_tables)


def test_f_hat_at_identity_is_structure_map():
    # f(k, identity tuple) recovers the plain operation on the module
    x = cyclic_group(2)
    k = XModule(x, FinAb([3]), {"e": [[1]], "a": [[2]]})
    mul_hat = k.f_hat("mul", ("e", "e"))
    for k1 in k.elements():
        for k2 in k.elements():
            assert mul_hat((k1, k2)) == k.carrier.add(k1, k2)
    inv_hat = k.f_hat("inv", ("e",))
    for el in k.elements():
        assert inv_hat((el,)) == k.carrier.neg(el)
    assert k.f_hat("e", ())(()) == k.carrier.zero()


def test_derivation_validation_rejects_non_derivation():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    good = Derivation(identity_map(x), k, {"e": (0,), "a": (1,)})
    assert good.is_derivation()
    with pytest.raises(AlgebraError):
        Derivation(identity_map(x), k, {"e": (1,), "a": (0,)})


def test_derivation_validation_does_not_depend_on_assert():
    # `python -O` strips asserts; the check must still reject the map
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("from aq.algebras import AlgebraError, cyclic_group\n"
            "from aq.beck import Derivation, XModule, identity_map\n"
            "x = cyclic_group(2)\n"
            "k = XModule.trivial(x, [2])\n"
            "try:\n"
            "    Derivation(identity_map(x), k, {'e': (1,), 'a': (0,)})\n"
            "except AlgebraError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "derivation identity fails"


def test_free_algebra_over_two_sorted_discrete():
    two = parse_theory("theory Pair { sort a b }")
    f = FreeAlgebra(two, {"a": ["x"], "b": ["u", "v"]})
    tgt = FiniteAlgebra(two, "T", {"a": ["0", "1"], "b": ["p"]}, {})
    homs = enumerate_homs(f, tgt)
    assert len(homs) == 2 * 1 * 1
