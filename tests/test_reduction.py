"""The normalized complex reduced by unit pivots over its ring: pivots
are units of the ring, the reduced complex squares to zero (and a pivot
taken in the wrong product order does not), it gives the same homology
and cohomology as the unreduced complex on every loop-group, `.sres` and
module fixture, and the certificate and the main routes read it."""

import glob
import json
import os
import subprocess
import sys

import pytest

from aq import invariants, presented, resolutions, simplicial, snf
from aq.algebras import AlgebraError, cyclic_group, symmetric_3
from aq.beck import XModule
from aq.cli import main
from aq.fixtures import (
    load_algebra,
    load_sres,
    load_xmodule,
    parse_module_presentation,
)
from aq.invariants import (
    _coefficient,
    cohomology,
    cohomology_via_em,
    homology,
    homology_with_coeffs,
)
from aq.presented import cohomology_at
from aq.resolutions import (
    abelianized_complex,
    bar_resolution_group,
    check_certificate,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import CoefficientModule, Ring, with_coefficients
from aq.simplicial import (
    PresentedComplex,
    _alternating_columns,
    _normalized_quotient,
    check_square_zero,
    moore_homotopy,
    nondegenerate_cells,
    reduce_by_units,
)
from test_normalized import COEFFS, RINGS, SEEDS, _seeded_module

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _z_c2():
    return Ring("ZG", group=cyclic_group(2).group_table("g"))


@pytest.mark.parametrize("ring,entry,inverse", [
    (Ring("Z"), 2, None),
    (Ring("Z"), 1, 1),
    (Ring("Z"), -1, -1),
    (Ring("Zmod", m=4), 2, None),
    (Ring("Zmod", m=4), -1, 3),
    (Ring("Zmod", m=4), 3, 3),
    (Ring("Zmod", m=6), 5, 5),
    (_z_c2(), {"e": 1, "a": 1}, None),
    (_z_c2(), {"e": 2}, None),
    (_z_c2(), {"a": -1}, {"a": -1}),
    (_z_c2(), {"e": 1}, {"e": 1}),
], ids=["Z:2", "Z:1", "Z:-1", "Z/4:2", "Z/4:-1", "Z/4:3", "Z/6:5",
        "Z[C2]:1+g", "Z[C2]:2", "Z[C2]:-g", "Z[C2]:1"])
def test_a_pivot_is_a_unit_of_the_ring(ring, entry, inverse):
    assert ring.unit_inverse(entry) == inverse
    # the complex R --entry--> R: a unit cancels both generators, anything
    # else is kept
    ranks, diffs = reduce_by_units(ring, [1, 1], [None, [[(0, entry)]]])
    assert ranks == ([1, 1] if inverse is None else [0, 0])
    if inverse is None:
        assert diffs[1] == [[(0, entry)]]


def test_a_pivot_in_the_wrong_product_order_breaks_d_d():
    # an entry r acts as x -> x r, so matrices compose in the opposite
    # ring; eliminating in the other order (here: in the opposite ring of
    # Z[S3]) leaves a complex whose differentials no longer compose to 0
    class Opposite(Ring):
        def mul(self, a, b):
            return Ring.mul(self, b, a)

    ab = loop_group_resolution(symmetric_3(), truncation=3).abelianization(True)
    cells = nondegenerate_cells(ab)
    ranks = [len(c) for c in cells]
    diffs = _alternating_columns(ab, cells)
    check_square_zero(ab.ring, diffs)
    _, right = reduce_by_units(ab.ring, ranks, diffs)
    check_square_zero(ab.ring, right)
    _, wrong = reduce_by_units(Opposite("ZG", group=ab.ring.group), ranks,
                               diffs)
    with pytest.raises(AlgebraError, match=r"is not zero in degree \d+$"):
        check_square_zero(ab.ring, wrong)


def test_reduced_ranks_of_s3_are_pinned(monkeypatch):
    v = loop_group_resolution(symmetric_3(), truncation=3)
    g = v.target
    for relative, ranks in ((False, [1, 1, 1, 521]), (True, [2, 2, 1, 521])):
        ab = v.abelianization(relative)
        assert [len(c) for c in nondegenerate_cells(ab)] == [5, 25, 125, 625]
        assert ab.reduced_complex()[0] == ranks
        assert ab.reduced_complex() is ab.reduced_complex()

    # the certificate and the main routes never fall back to the unreduced
    # complex when there is a reduced one
    def unreduced(*args, **kwargs):
        raise AssertionError("the unreduced complex was built")

    monkeypatch.setattr(resolutions, "_normalized_quotient", unreduced)
    monkeypatch.setattr(simplicial, "_normalized_quotient", unreduced)
    monkeypatch.setattr(invariants, "der_cochain", unreduced)
    cert = check_certificate(v, g, rng=2)
    assert cert.valid, cert.checks
    k = XModule.trivial(g, [2])
    assert cohomology(v, k, range(3), x=g, certificate=cert)[2].torsion == (2,)
    homology(v, range(3), x=g)
    homology(v, range(3))
    homology_with_coeffs(v, k, range(3), x=g)
    module = resolve_module(_seeded_module(Ring("Zmod", m=4), 7), length=3)
    moore_homotopy(module, range(3))


def _fixture_names(pattern, keep=lambda text: True):
    out = []
    for path in sorted(glob.glob(os.path.join(FIXTURES, pattern))):
        with open(path) as fh:
            if keep(fh.read()):
                out.append(os.path.basename(path))
    return out


# every group fixture, and every `.sres` fixture but broken.sres, whose
# simplicial identities fail on purpose
GROUP_FIXTURES = _fixture_names("*.alg", lambda text: "theory gp" in text) \
    + [n for n in _fixture_names("*.sres") if n != "broken.sres"]


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_reduced_and_unreduced_agree_on_group_fixtures(name):
    # loop-group resolutions of the groups, the `.sres` resolutions as
    # given (both resolve Z/2); trivial Z/2 and Z/3 and every `.xmod`
    # fixture on a group it is a module over
    path = os.path.join(FIXTURES, name)
    if name.endswith(".sres"):
        v = load_sres(path)
        g = load_algebra(os.path.join(FIXTURES, "z2.alg"))
    else:
        g = load_algebra(path)
        v = loop_group_resolution(g, truncation=3 if g.order() <= 4 else 2)
    assert check_certificate(v, g, rng=v.truncation - 1).valid
    coeffs = [XModule.trivial(g, [2]), XModule.trivial(g, [3])]
    coeffs += [load_xmodule(p, base=g) for p in _xmods_over(g)]
    degrees = range(v.truncation)
    for x in (None, g):
        ab = v.abelianization(x is not None)
        unreduced, _, _ = abelianized_complex(v, over=x)
        # the Moore homotopy of a free simplicial module reads its reduced
        # complex
        assert moore_homotopy(ab, degrees) == unreduced.homology(degrees)
        for k in coeffs:
            hom, tensor = _unreduced_values(ab, _coefficient(k, x), degrees)
            assert cohomology(v, k, degrees, x=x) == hom, (x, k.action)
            assert homology_with_coeffs(v, k, degrees, x=x) == tensor, \
                (x, k.action)


def _unreduced_values(ab, coeff, degrees):
    """The cohomology and the homology in `degrees` of Hom into and tensor
    with `coeff` of the unreduced free complex of `ab`
    (`normalized_complex`)."""
    top = max(degrees) + 1
    levels, deltas = with_coefficients(*ab.normalized_complex(), coeff, top,
                                       dual=True)
    hom = {n: cohomology_at(levels, deltas, n).invariants() for n in degrees}
    levels, bnds = with_coefficients(*ab.normalized_complex(), coeff, top)
    return hom, PresentedComplex(levels, bnds).homology(degrees)


def _xmods_over(g):
    out = []
    for name in _fixture_names("*.xmod"):
        path = os.path.join(FIXTURES, name)
        if load_xmodule(path).base.carriers == g.carriers:
            out.append(path)
    return out


def _module_fixtures():
    with open(os.path.join(FIXTURES, "y-z4.alg")) as fh:
        yz4 = parse_module_presentation(fh.read())
    out = [("y-z4.alg", yz4, CoefficientModule.trivial(yz4.ring, [2]))]
    for ring_name, seed in SEEDS:
        ring = RINGS[ring_name]()
        out.append((f"{ring_name}-{seed}", _seeded_module(ring, seed),
                    CoefficientModule.trivial(ring, COEFFS[ring_name])))
    return out


@pytest.mark.parametrize("name,module,k", _module_fixtures(),
                         ids=lambda p: p if isinstance(p, str) else "")
def test_reduced_and_unreduced_agree_on_module_fixtures(name, module, k):
    v = resolve_module(module, length=4)
    degrees = range(4)
    unreduced, _ = _normalized_quotient(v, 4)
    assert moore_homotopy(v, degrees) == unreduced.homology(degrees)
    hom, tensor = _unreduced_values(v, k, degrees)
    assert cohomology(v, k, degrees) == hom
    assert homology_with_coeffs(v, k, degrees) == tensor


@pytest.mark.parametrize("modulus", [2, 3])
def test_s3_in_aq_degree_2_agrees_with_the_bar_complex(modulus, tmp_path):
    out = tmp_path / "out.json"
    code = main(["cohomology", "--theory", "gp", "--algebra",
                 os.path.join(FIXTURES, "s3.alg"), "--coeffs", str(modulus),
                 "--max-degree", "2", "--method", "cochain",
                 "--json", str(out)])
    assert code == 0
    got = json.loads(out.read_text())
    g = load_algebra(os.path.join(FIXTURES, "s3.alg"))
    bar = bar_resolution_group(g, XModule.trivial(g, [modulus]), 3)
    # AQ H^n is classical H^{n+1}
    for entry in got:
        n = entry["degree"]
        assert (entry["rank"], entry["torsion"]) == \
            (bar[n + 1].rank, list(bar[n + 1].torsion))


@pytest.mark.parametrize("modulus", [2, 3])
def test_s3_em_route_in_aq_degree_2_agrees_with_the_bar_complex(modulus):
    g = symmetric_3()
    k = XModule.trivial(g, [modulus])
    got = cohomology_via_em(loop_group_resolution(g, truncation=3), k, [2],
                            x=g)[2]
    # AQ H^2 is classical H^3
    want = bar_resolution_group(g, k, 3)[3]
    assert (got.rank, got.torsion) == (want.rank, want.torsion)


def test_cycle_lattices_hand_the_smith_kernel_no_relation_columns(monkeypatch):
    # both cohomology routes solve their cycle conditions modulo the
    # moduli of the targets: every Smith reduction run for a cycle
    # lattice on Z^g has at most g columns, none for a relation.  Over
    # Z/4, not a prime, both routes still solve cycle lattices
    shapes, inside = [], []
    smith = snf.smith_normal_form

    def recording_smith(mat, **kwargs):
        if inside:
            shapes.append((inside[-1], len(mat), len(mat[0]) if mat else 0))
        return smith(mat, **kwargs)

    lattice = presented.cycle_lattice

    def recording_lattice(pairs, g):
        inside.append(g)
        try:
            return lattice(pairs, g)
        finally:
            inside.pop()

    monkeypatch.setattr(snf, "smith_normal_form", recording_smith)
    monkeypatch.setattr(presented, "smith_normal_form", recording_smith)
    for module in (presented, invariants):
        monkeypatch.setattr(module, "cycle_lattice", recording_lattice)
    g = symmetric_3()
    v = loop_group_resolution(g, truncation=3)
    k = XModule.trivial(g, [4])
    assert cohomology(v, k, [2], x=g)[2] == \
        cohomology_via_em(v, k, [2], x=g)[2]
    assert shapes and all(cols <= width for width, _, cols in shapes), shapes


# each input check: the code that must raise, and what its message names
_INPUT_CHECKS = {
    "comma theory of a base that violates an equation": (
        "from aq.algebras import cyclic_group, FiniteAlgebra\n"
        "from aq.theories import comma_theory\n"
        "g = cyclic_group(2)\n"
        "tables = {op: dict(t) for op, t in g.tables.items()}\n"
        "tables['mul'][('a', 'a')] = 'a'\n"
        "bad = FiniteAlgebra(g.theory, 'bad', g.carriers, tables, "
        "validate=False)\n"
        "comma_theory(g.theory, bad)\n", "bad"),
    "group operations of a theory with no group structure": (
        "from aq.algebras import FiniteAlgebra\n"
        "from aq.theories import TheoryPresentation\n"
        "t = TheoryPresentation('Triv', ['g'], [], [])\n"
        "FiniteAlgebra(t, 'one', {'g': ['x']}, {}).identity()\n", "Triv"),
    "generators that do not generate": (
        "from aq.algebras import FiniteAlgebra, cyclic_group\n"
        "els = ['e', 'a', 'b']\n"
        "mul = {(x, y): 'b' for x in els for y in els}\n"
        "mul.update({('e', 'e'): 'e', ('e', 'a'): 'a', ('a', 'a'): 'e',\n"
        "            ('e', 'b'): 'a', ('a', 'b'): 'e'})\n"
        "tables = {'mul': mul, 'inv': {(x,): x for x in els},\n"
        "          'e': {(): 'e'}}\n"
        "bad = FiniteAlgebra(cyclic_group(2).theory, 'bad', {'g': els},\n"
        "                    tables, validate=False)\n"
        "bad.expressions()\n", "bad: the generators a, b of sort g"),
    "direct product across theories": (
        "from aq.algebras import cyclic_group, direct_product\n"
        "from aq.theories import group_theory\n"
        "other = cyclic_group(2, name='Z2h', theory=group_theory(sort='h'))\n"
        "direct_product(cyclic_group(2), other)\n", "Z2h has sorts h"),
    "semidirect product with coefficients over another base": (
        "from aq.algebras import cyclic_group\n"
        "from aq.beck import XModule, semidirect_product\n"
        "k = XModule.trivial(cyclic_group(2), [2])\n"
        "semidirect_product(k, cyclic_group(3))\n",
        "coefficients K are over Z2, not over Z3"),
}


@pytest.mark.parametrize("what", sorted(_INPUT_CHECKS))
def test_input_checks_raise_algebra_error_also_under_O(what):
    check, named = _INPUT_CHECKS[what]
    code = ("from aq.errors import AlgebraError\n"
            "try:\n"
            + "".join(f"    {line}\n" for line in check.splitlines())
            + "except AlgebraError as exc:\n"
            "    print('AlgebraError', exc)\n")
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code],
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=SRC))
        assert out.returncode == 0, (flags, out.stderr)
        assert out.stdout.startswith("AlgebraError "), (flags, out.stdout)
        assert named in out.stdout, (flags, out.stdout)

