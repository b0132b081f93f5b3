"""The normalized complexes: homology and the cochain route on the
nondegenerate generators agree with the degenerate-quotient construction,
for loop-group resolutions and for free simplicial modules; the fallbacks
for resolutions whose degeneracies send generators to words or to
anything but one unit entry; groups of order 8 realized from
presentations."""

import copy
import os
import random
import re

import pytest

from aq import simplicial
from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import (
    AlgebraError,
    cyclic_group,
    dihedral_4,
    find_isomorphism,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from aq.beck import XModule
from aq.fixtures import load_algebra, load_sres, parse_algebra
from aq.invariants import (
    cohomology,
    cohomology_via_em,
    der_cochain,
    homology,
    homology_with_coeffs,
)
from aq.resolutions import (
    abelianized_complex,
    bar_resolution_group,
    check_certificate,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    ext_groups,
    tor_groups,
    with_coefficients,
)
from aq.simplicial import (
    SimplicialAbelian,
    SimplicialFreeModule,
    SimplicialIdentityError,
    _degenerate_quotient,
    check_square_zero,
    cohomotopy,
    k_object,
    matching,
    moore_homotopy,
    nondegenerate_cells,
    unnormalized_homotopy,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "V4": klein_four,
    "S3": symmetric_3,
}


def _sign_module(g, m):
    """Z/m on which the elements of order 2 act by -1: the sign
    character of S3 or of Z/2 (the groups it is used on)."""
    e = g.identity()
    act = {x: [[m - 1 if x != e and g.gmul(x, x) == e else 1]]
           for x in g.carriers["g"]}
    return XModule(g, FinAb([m]), act)


@pytest.mark.parametrize("name,truncation", [
    ("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z3", 3), ("Z4", 2), ("Z4", 3),
    ("V4", 2), ("V4", 3), ("S3", 2),
])
def test_normalized_complex_matches_the_degenerate_quotient(name, truncation):
    g = GROUPS[name]()
    v = loop_group_resolution(g, truncation=truncation)
    order = g.order()
    cells = nondegenerate_cells(v.abelianization(False))
    # the nondegenerate (n+1)-tuples: no identity after the first entry
    assert [len(c) for c in cells] == [
        (order - 1) ** (n + 1) for n in range(truncation + 1)]
    degrees = range(truncation)
    for over in (None, g):
        ab = v.abelianization(over is not None)
        # the Fox chain rule: the columns compose as a simplicial module
        ab.check_identities()
        assert nondegenerate_cells(ab) == cells
        normalized, ranks, ring = abelianized_complex(v, over=over)
        closure, full_cells = _degenerate_quotient(ab, truncation)
        assert ranks == [len(c) for c in cells]
        assert [len(c) for c in full_cells] == [
            len(lv.generators["g"]) for lv in v.levels]
        assert all(lv.nrels() == 0 for lv in normalized.levels)
        assert [lv.gens for lv in normalized.levels] == [
            r * ring.zrank() for r in ranks]
        assert normalized.homology(degrees) == closure.homology(degrees), over


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_normalized_cochain_route_matches_unnormalized_cohomotopy(name):
    g = GROUPS[name]()
    v = loop_group_resolution(g, truncation=3 if g.order() <= 3 else 2)
    degrees = range(v.truncation)
    coeffs = [XModule.trivial(g, [2]), XModule.trivial(g, [3])]
    if name in ("Z2", "S3"):
        coeffs.append(_sign_module(g, 3))
    for k in coeffs:
        for x in (g, None):
            full = cohomotopy(der_cochain(v, k, x=x), degrees)
            assert cohomology(v, k, degrees, x=x) == full, (k.action, x)


def test_fallback_for_degeneracies_into_words():
    # z2res-basis.sres is z2res.sres in the level-1 basis u = t/a/e t/a/a,
    # w = t/a/a, so s_0 sends t/a to the word u w^-1
    z2 = load_algebra(os.path.join(FIXTURES, "z2.alg"))
    v = load_sres(os.path.join(FIXTURES, "z2res-basis.sres"))
    assert v.degens[0][0].mapping["g"]["t/a"] == (("u", 1), ("w", -1))
    for relative in (False, True):
        assert nondegenerate_cells(v.abelianization(relative)) is None
    cert = check_certificate(v, z2, rng=2)
    assert cert.valid, cert.checks
    loop = loop_group_resolution(z2, truncation=3)
    for relative in (False, True):
        assert nondegenerate_cells(loop.abelianization(relative)) is not None
    degrees = range(3)
    for k in (XModule.trivial(z2, [2]), _sign_module(z2, 3)):
        assert cohomology(v, k, degrees, x=z2, certificate=cert) == \
            cohomology(loop, k, degrees, x=z2)
        assert cohomology_via_em(v, k, [2], x=z2)[2] == \
            cohomology_via_em(loop, k, [2], x=z2)[2]
        assert homology_with_coeffs(v, k, degrees, x=z2) == \
            homology_with_coeffs(loop, k, degrees, x=z2)
    for x in (None, z2):
        assert homology(v, degrees, x=x) == homology(loop, degrees, x=x)


D4_PRESENTED = """algebra d4p {
  theory gp
  presentation {
    gens g : r s
    rel mul(r, mul(r, mul(r, r)))
    rel mul(s, s)
    rel mul(s, mul(r, mul(s, r)))
    realize bound = 64
  }
}"""

Q8_PRESENTED = """algebra q8p {
  theory gp
  presentation {
    gens g : i j
    rel mul(i, mul(i, mul(i, i)))
    rel mul(i, i) = mul(j, j)
    rel mul(j, mul(i, inv(j))) = inv(i)
    realize bound = 64
  }
}"""


@pytest.mark.parametrize("text,reference,modulus", [
    (D4_PRESENTED, dihedral_4, 2),
    (Q8_PRESENTED, quaternion_8, 3),
], ids=["D4-Z2", "Q8-Z3"])
def test_order_8_groups_from_presentations(text, reference, modulus):
    # realized by Todd-Coxeter; AQ degrees 0-1 by the cochain route and the
    # EM route, against the bar complex (AQ H^n = classical H^{n+1})
    g = parse_algebra(text)
    assert g.order() == 8
    assert find_isomorphism(g, reference()) is not None
    k = XModule.trivial(g, [modulus])
    v = loop_group_resolution(g, truncation=2)
    cert = check_certificate(v, g, rng=1)
    assert cert.valid, cert.checks
    cochain = cohomology(v, k, [0, 1], x=g, certificate=cert)
    bar = bar_resolution_group(g, k, 2)
    assert cochain[0] == bar[1]
    assert cochain[1] == bar[2] == cohomology_via_em(v, k, [1], x=g)[1]


RINGS = {
    "Z": lambda: Ring("Z"),
    "Z/4": lambda: Ring("Zmod", m=4),
    "Z/6": lambda: Ring("Zmod", m=6),
    "Z[C2]": lambda: Ring("ZG", group=cyclic_group(2).group_table("g")),
    "Z[C3]": lambda: Ring("ZG", group=cyclic_group(3).group_table("g")),
}

COEFFS = {"Z": [3], "Z/4": [2], "Z/6": [3], "Z[C2]": [2], "Z[C3]": [3]}

# per ring, two seeds; the first gives nonzero (co)homology with COEFFS in
# degree 1 (over Z/6, a product of fields, every module is projective)
SEEDS = [("Z", 2), ("Z", 3), ("Z/4", 7), ("Z/4", 2), ("Z/6", 1), ("Z/6", 2),
         ("Z[C2]", 2), ("Z[C2]", 1), ("Z[C3]", 3), ("Z[C3]", 1)]


def _seeded_module(ring, seed):
    """A module on two generators with two seeded relation columns of
    small entries (group-ring entries with one or two terms)."""
    rng = random.Random(seed)

    def entry():
        if ring.kind != "ZG":
            return ring.from_int(rng.randint(-3, 3))
        els = ring.group.elements
        return ring.add({rng.choice(els): rng.choice((-2, -1, 1, 2))},
                        {rng.choice(els): rng.choice((-1, 0, 1))})

    return RModulePresentation(ring, 2, [[entry(), entry()] for _ in range(2)])


@pytest.mark.parametrize("name,seed", SEEDS)
def test_normalized_module_route_matches_the_degenerate_quotient(
        name, seed, monkeypatch):
    ring = RINGS[name]()
    m = _seeded_module(ring, seed)
    v = resolve_module(m, length=3)
    cells = nondegenerate_cells(v)
    # on its nondegenerate generators, level n has the resolution's rank
    assert [len(c) for c in cells] == v.dk_source.ranks
    cert = check_certificate(v, m, rng=2)
    assert cert.valid, cert.checks
    degrees = range(3)
    quotient, all_cells = _degenerate_quotient(v, 3)
    assert [len(c) for c in all_cells] == v.ranks[:4]
    assert [lv.gens for lv in quotient.levels] == [
        r * ring.zrank() for r in v.ranks[:4]]
    assert homology(v, degrees) == quotient.homology(degrees)
    k = CoefficientModule.trivial(ring, COEFFS[name])
    assert cohomology(v, k, degrees) == \
        cohomotopy(der_cochain(v, k), degrees)
    normalized = homology_with_coeffs(v, k, degrees)
    assert _tensored(v.normalized_complex(), k) == normalized
    # where no generators are singled out, the free complex is the
    # unnormalized one, and it gives the same homology
    monkeypatch.setattr(simplicial, "nondegenerate_cells", lambda v: None)
    unnormalized = v.normalized_complex()
    assert unnormalized[0] == v.ranks
    assert _tensored(unnormalized, k) == normalized
    fresh = SimplicialFreeModule(ring, v.ranks, *v.columns(), v.truncation)
    assert homology_with_coeffs(fresh, k, degrees) == normalized
    assert cohomology(fresh, k, degrees) == cohomology(v, k, degrees)


def _tensored(free_complex, k, degrees=range(3)):
    """Homology in `degrees` of the free complex (ranks, diffs) tensored
    with the coefficients `k`."""
    levels, maps = with_coefficients(*free_complex, k, max(degrees) + 1)
    return simplicial.PresentedComplex(levels, maps).homology(degrees)


def _sparse_column(entries):
    """A {row: entry} dict as a sparse column: the (row, entry) pairs of
    its entries other than 0 (or the empty group-ring element), in row
    order.  Entries are kept as they are, unreduced."""
    return sorted(((i, x) for i, x in entries.items() if x),
                  key=lambda pair: pair[0])


def _rebased(v, n, a, b):
    """v with level n in the basis P = I + E_ab (e_b -> e_a + e_b): maps
    into level n become P times them (row a gains row b), maps out of it
    times P^-1 (column b loses column a)."""
    ring = v.ring

    def into(cols):
        out = []
        for col in cols:
            entries = dict(col)
            if b in entries:
                entries[a] = ring.add(entries.get(a, ring.zero()), entries[b])
            out.append(_sparse_column(entries))
        return out

    def out_of(cols):
        cols = list(cols)
        entries = dict(cols[b])
        for i, x in cols[a]:
            entries[i] = ring.add(entries.get(i, ring.zero()), ring.neg(x))
        cols[b] = _sparse_column(entries)
        return cols

    faces, degens = ([list(maps) for maps in kind] for kind in v.columns())
    faces[n] = [out_of(d) for d in faces[n]]
    faces[n + 1] = [into(d) for d in faces[n + 1]]
    degens[n - 1] = [into(s) for s in degens[n - 1]]
    degens[n] = [out_of(s) for s in degens[n]]
    return SimplicialFreeModule(ring, v.ranks, faces, degens, v.truncation)


def with_entry(v, kind, n, i, row, col, change):
    """A new simplicial object like `v` (its flavor, levels and Dold-Kan
    tags) built from a copy of its columns in which entry (row, col) of
    the face (`kind` "faces") or degeneracy ("degens") i at level n is
    change(entry), kept as `_sparse_column` keeps it."""
    faces, degens = copy.deepcopy(v.columns())
    maps = faces if kind == "faces" else degens
    entries = dict(maps[n][i][col])
    entries[row] = change(entries.get(row, v.ring.zero()))
    maps[n][i][col] = _sparse_column(entries)
    if isinstance(v, SimplicialFreeModule):
        w = SimplicialFreeModule(v.ring, v.ranks, faces, degens, v.truncation)
    else:
        w = SimplicialAbelian(v.levels, faces, degens, v.truncation)
    for tag in ("dk_source", "dk_offsets"):
        if hasattr(v, tag):
            setattr(w, tag, getattr(v, tag))
    return w


def _rebased_resolution(name):
    """(m, v, w): a seeded module over the ring `name`, its resolution v
    through level 3, and w, v with level 1 rebased so that s_0 sends a
    generator to the sum of two."""
    ring = RINGS[name]()
    m = _seeded_module(ring, 7 if name == "Z/4" else 3)
    v = resolve_module(m, length=3)
    cells = nondegenerate_cells(v)
    degenerate = [i for i in range(v.ranks[1]) if i not in cells[1]]
    return m, v, _rebased(v, 1, cells[1][0], degenerate[0])


@pytest.mark.parametrize("name", ["Z/4", "Z[C3]"])
def test_module_fallback_for_a_degeneracy_that_is_not_one_unit(name):
    m, v, w = _rebased_resolution(name)
    ring = v.ring
    assert nondegenerate_cells(w) is None
    cert = check_certificate(w, m, rng=2)
    assert cert.valid, cert.checks
    degrees = range(3)
    k = CoefficientModule.trivial(ring, COEFFS[name])
    assert homology(w, degrees) == homology(v, degrees)
    assert homology_with_coeffs(w, k, degrees) == \
        homology_with_coeffs(v, k, degrees)
    assert cohomology(w, k, degrees) == cohomology(v, k, degrees)
    assert cohomology_via_em(w, k, [2])[2] == cohomology_via_em(v, k, [2])[2]


def _check_reduced_fallback(ab):
    """The free simplicial module `ab` singles out no nondegenerate
    generators, yet its reduced complex exists, squares to zero and has
    the homology of the degenerate-image quotient below the truncation."""
    assert nondegenerate_cells(ab) is None
    ranks, diffs = ab.reduced_complex()
    assert [len(d) for d in diffs[1:]] == ranks[1:]
    check_square_zero(ab.ring, diffs)
    top = ab.truncation
    reference, _ = _degenerate_quotient(ab, top)
    assert simplicial.reduced_quotient(ab, top).homology(range(top)) == \
        reference.homology(range(top))


@pytest.mark.parametrize("relative", [False, True])
def test_a_resolution_with_degeneracies_into_words_has_a_reduced_complex(
        relative):
    v = load_sres(os.path.join(FIXTURES, "z2res-basis.sres"))
    _check_reduced_fallback(v.abelianization(relative))


@pytest.mark.parametrize("name", ["Z/4", "Z[C3]"])
def test_a_rebased_module_resolution_has_a_reduced_complex(name):
    _, _, w = _rebased_resolution(name)
    _check_reduced_fallback(w)


@pytest.mark.parametrize("name,seed", SEEDS[::2])
def test_module_routes_build_no_dense_matrices(name, seed):
    # a free resolution and its Dold-Kan object are built as sparse
    # columns, and so is every complex of presented modules that the
    # certificate, Ext, Tor and the module routes read: no map is a
    # dense matrix until the Smith kernel's entry points
    ring = RINGS[name]()
    m = _seeded_module(ring, seed)
    v = resolve_module(m, length=3)
    k = CoefficientModule.trivial(ring, COEFFS[name])
    degrees = range(3)
    assert check_certificate(v, m, rng=2).valid
    homology(v, degrees)
    homology_with_coeffs(v, k, degrees)
    cohomology(v, k, degrees)
    cohomology_via_em(v, k, [2])
    ext_groups(m, k, 2)
    tor_groups(m, k, 2)
    # the object and its source complex hold their maps only as columns
    # of (row, entry) pairs
    assert not hasattr(v, "faces") and not hasattr(v, "degens")
    assert all(isinstance(pair, tuple) and len(pair) == 2
               for maps in v.columns() for level in maps for m in level
               for column in m for pair in column)
    assert all(isinstance(pair, tuple) and len(pair) == 2
               for d in v.dk_source.diffs[1:] for column in d
               for pair in column)
    presented = [simplicial.reduced_quotient(v, 3),
                 simplicial._normalized_quotient(v, 3)[0]]
    for free_complex in (v.reduced_complex(), v.normalized_complex()):
        for dual in (True, False):
            levels, maps = with_coefficients(*free_complex, k, 3, dual=dual)
            presented.append(simplicial.PresentedComplex(levels, maps))
    for cx in presented:
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   for d in cx.diffs[1:] for column in d for pair in column)
        assert all(isinstance(pair, tuple) and len(pair) == 2
                   for lv in cx.levels for column in lv.rels
                   for pair in column)
    # a rebuild from corrupted columns fails the identity check
    w = with_entry(v, "faces", 2, 0, 0, 0, lambda x: ring.add(x, ring.one()))
    assert not check_certificate(w, m, rng=2).checks["simplicial_identities"]


@pytest.mark.parametrize("name,seed", SEEDS[::2])
def test_unnormalized_homotopy_of_a_free_module_matches_moore(name, seed):
    # the raw alternating-sum complex on every generator of a resolution,
    # over each ring, has the homotopy of the normalized complex
    v = resolve_module(_seeded_module(RINGS[name](), seed), length=3)
    assert unnormalized_homotopy(v, range(3)) == moore_homotopy(v, range(3))


def test_matching_refuses_a_free_module_over_another_ring():
    # matching enumerates integer levels; R-columns over Z/4 are not that
    v = resolve_module(RModulePresentation.cyclic(Ring("Zmod", m=4), 2),
                       length=3)
    with pytest.raises(AlgebraError,
                       match="^matching: the maps must be integer columns$"):
        matching(v, 1)


def test_dold_kan_blocks_are_worked_out_once_per_shape(monkeypatch):
    calls = []
    block = simplicial._dk_block
    monkeypatch.setattr(simplicial, "_dk_block",
                        lambda *a: calls.append(a) or block(*a))
    simplicial._dk_plan.cache_clear()
    ring = Ring("Zmod", m=4)
    resolve_module(RModulePresentation.cyclic(ring, 2), length=4)
    assert calls
    assert len(set(calls)) == len(calls)
    first = len(calls)
    for a in (2, 1):
        resolve_module(RModulePresentation.cyclic(Ring("Z"), a), length=4)
    assert len(calls) == first
    simplicial._dk_plan.cache_clear()


@pytest.mark.parametrize("name", sorted(RINGS))
def test_module_certificate_catches_a_corrupted_degeneracy(name):
    ring = RINGS[name]()
    m = _seeded_module(ring, 1)
    v = resolve_module(m, length=3)
    assert check_certificate(v, m, rng=2).valid
    w = with_entry(v, "degens", 1, 0, 0, 0, lambda x: ring.add(x, ring.one()))
    cert = check_certificate(w, m, rng=2)
    assert not cert.valid
    assert not cert.checks["simplicial_identities"]
    assert re.fullmatch(r"d_\d s_\d identity fails at level \d"
                        r"|s_\d s_\d != s_\d s_\d at level \d",
                        cert.detail["identity_failure"])


def test_module_certificate_catches_a_degeneracy_off_by_a_cycle():
    # over Z/4, Z/2 is resolved by multiplication by 2 in every degree, so
    # 2 times the nondegenerate generator of level 3 is killed by every
    # face.  Added to the top degeneracy s_0: 2 -> 3 on a degenerate
    # generator, it keeps every d_i s_j identity (the top degeneracies
    # enter them only under a face), and only the s_i s_j family sees it.
    ring = Ring("Zmod", m=4)
    m = RModulePresentation.cyclic(ring, 2)
    v = resolve_module(m, length=3)
    cells = nondegenerate_cells(v)
    (row,) = cells[3]
    col = next(c for c in range(v.ranks[2]) if c not in cells[2])
    w = with_entry(v, "degens", 2, 0, row, col, lambda x: x + 2)
    cert = check_certificate(w, m, rng=2)
    assert not cert.checks["simplicial_identities"]
    assert re.fullmatch(r"s_\d s_\d != s_\d s_\d at level 1",
                        cert.detail["identity_failure"])


def test_identity_check_works_modulo_the_relations():
    # K(Z/2, 1): a face entry changed by 2 is the same map, by 1 it is not
    v = k_object(FGAbelianGroup(0, [2]), 1, truncation=3)
    w = with_entry(v, "faces", 2, 0, 0, 0, lambda x: x + 2)
    w.check_identities()
    w = with_entry(w, "faces", 2, 0, 0, 0, lambda x: x + 1)
    with pytest.raises(SimplicialIdentityError, match=r"^d_"):
        w.check_identities()
