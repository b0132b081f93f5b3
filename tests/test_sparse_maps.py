"""Every map between presented modules is kept in one form: sparse
columns, one per generator of its source, each the (row, entry) pairs of
its nonzero entries with rows in range and each row at most once.  So are
the relations of every level.  Checked here on each kind of object that
builds such maps."""

import random

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import cyclic_group, symmetric_3
from aq.beck import XModule
from aq.invariants import der_cochain
from aq.presented import Presentation
from aq.resolutions import bar_cochain_complex, loop_group_resolution
from aq.rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    free_resolution,
    with_coefficients,
)
from aq.simplicial import (
    PresentedComplex,
    bisimplicial_from_double_complex,
    dold_kan,
    eilenberg_maclane_complex,
    k_object,
    normalize_dk,
    total_complex,
)
from aq.spectral import _tensor_double_complex


def _check_map(cols, sources, targets):
    assert isinstance(cols, list) and len(cols) == sources
    for col in cols:
        assert all(isinstance(pair, tuple) and len(pair) == 2 for pair in col)
        rows = [i for i, _ in col]
        assert all(0 <= i < targets for i in rows)
        assert len(set(rows)) == len(rows)
        assert all(isinstance(x, int) and x != 0 for _, x in col)


def _check_levels(levels):
    for lv in levels:
        assert isinstance(lv, Presentation)
        for col in lv.rels:
            _check_map([col], 1, lv.gens)


def _check_complex(levels, maps, cochain=False):
    """maps[n]: level n -> n-1, or level n-1 -> n when `cochain`."""
    _check_levels(levels)
    assert maps[0] is None
    for n in range(1, len(levels)):
        src, tgt = (n - 1, n) if cochain else (n, n - 1)
        _check_map(maps[n], levels[src].gens, levels[tgt].gens)


def _check_simplicial(v):
    _check_levels(v.levels)
    faces, degens = v.columns()
    gens = [lv.gens for lv in v.levels]
    for n in range(1, v.truncation + 1):
        assert len(faces[n]) == n + 1
        for face in faces[n]:
            _check_map(face, gens[n], gens[n - 1])
    for n in range(v.truncation):
        assert len(degens[n]) == n + 1
        for degen in degens[n]:
            _check_map(degen, gens[n], gens[n + 1])


def _boundary_complex():
    """[K + K -> K] for K = Z/2 + Z in degrees 2 -> 1, zero below."""
    levels = [Presentation.free(0), Presentation.from_moduli([2, 0]),
              Presentation.from_moduli([2, 0, 2, 0])]
    return PresentedComplex(levels, [
        None, [[], []], [[(0, 1)], [(1, 1)], [(0, -1)], [(1, -1)]]])


def test_dold_kan_objects_of_presented_complexes_keep_sparse_columns():
    cx = _boundary_complex()
    v = dold_kan(cx, truncation=4)
    _check_simplicial(v)
    back = normalize_dk(v)
    _check_complex(back.levels, back.diffs)
    assert back == cx
    em = eilenberg_maclane_complex(FGAbelianGroup.from_divisors([2, 0]), 2)
    _check_complex(em.levels, em.diffs)
    _check_simplicial(k_object(FGAbelianGroup.from_divisors([3]), 2))
def test_coefficient_complexes_keep_sparse_columns():
    group = cyclic_group(2).group_table("g")
    for ring, module, moduli in (
            (Ring("Z"), RModulePresentation.cyclic(Ring("Z"), 4), [2, 0]),
            (Ring("ZG", group=group),
             RModulePresentation(Ring("ZG", group=group), 1,
                                 [[{"e": 1, "a": -1}]]), [3])):
        ranks, diffs = free_resolution(module, 4)
        coeff = CoefficientModule.trivial(ring, moduli)
        for dual in (True, False):
            levels, maps = with_coefficients(ranks, diffs, coeff, 4, dual=dual)
            _check_complex(levels, maps, cochain=dual)


def test_derivation_cochains_keep_sparse_columns():
    g = symmetric_3()
    v = loop_group_resolution(g, truncation=2)
    for x, k in ((None, XModule.trivial(g, [2])),
                 (g, XModule.trivial(g, [3]))):
        w = der_cochain(v, k, x=x)
        _check_levels(w.levels)
        for n, cofaces in enumerate(w.cofaces):
            assert len(cofaces) == n + 2
            for coface in cofaces:
                _check_map(coface, w.levels[n].gens, w.levels[n + 1].gens)


def test_bisimplicial_and_total_complexes_keep_sparse_columns():
    rng = random.Random(3)
    for _ in range(4):
        b = bisimplicial_from_double_complex(
            *_tensor_double_complex(rng, 2, 2), 3)
        span = range(b.truncation + 1)
        for p in span:
            _check_levels(b.levels[p])
            for q in span:
                gens = b.levels[p][q].gens
                for maps, dp, dq in ((b.hfaces, -1, 0), (b.vfaces, 0, -1),
                                     (b.hdegens, 1, 0), (b.vdegens, 0, 1)):
                    for m in maps[p][q] or []:
                        _check_map(m, gens, b.levels[p + dp][q + dq].gens)
        cx = total_complex(b)
        _check_complex(cx.levels, cx.diffs)
def test_bar_cochain_complex_keeps_sparse_columns():
    s3, z2 = symmetric_3(), cyclic_group(2)
    for g, coeff in ((s3, XModule.trivial(s3, [2, 3])),
                     (z2, XModule(z2, FinAb([3]), {"e": [[1]], "a": [[2]]}))):
        levels, deltas = bar_cochain_complex(g, coeff, 2)
        _check_complex(levels, deltas, cochain=True)
