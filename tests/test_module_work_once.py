"""The module commands build, certify and read each resolution level once:
they resolve through level max-degree + 1, the EM route builds one
derivation complex for all its degrees, a module's homology reuses the
Moore homotopy its certificate computed, and the identity check compares
uncopied columns however they are written."""

import json
import os

import pytest

from aq import invariants, resolutions
from aq.algebras import cyclic_group
from aq.beck import XModule
from aq.cli import main
from aq.invariants import cohomology, cohomology_via_em, homology
from aq.resolutions import (
    check_certificate,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import CoefficientModule, RModulePresentation, parse_ring

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
RINGS = ["Z", "Z/4", "Z[C2]"]


def _counting(monkeypatch, modules, name):
    """Replace `name` in each of `modules` by one wrapper that records its
    calls; returns the list of calls."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _module_case():
    ring = parse_ring("Z")
    v = resolve_module(RModulePresentation.cyclic(ring, 4), length=3)
    return v, CoefficientModule.trivial(ring, [2]), None


def _group_case():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=3)
    return v, XModule.trivial(z2, [2]), z2


@pytest.mark.parametrize("case", [_module_case, _group_case],
                         ids=["module", "group"])
def test_the_em_route_builds_one_derivation_complex_for_all_degrees(
        case, monkeypatch):
    v, k, x = case()
    want = cohomology(v, k, [1, 2], x=x)
    calls = _counting(monkeypatch, [invariants], "der_cochain")
    got = cohomology_via_em(v, k, [1, 2], x=x)
    assert len(calls) == 1
    assert got == {1: want[1], 2: want[2]}
    assert cohomology_via_em(v, k, [], x=x) == {}
    assert len(calls) == 1


@pytest.mark.parametrize("spec", RINGS)
@pytest.mark.parametrize("face", [0, 3])
def test_a_corrupted_top_face_column_fails_the_certificate(spec, face):
    # a resolution of length top + 1, as the module commands build it: the
    # certificate checks the identities on its top level too
    top = 2
    ring = parse_ring(spec)
    module = RModulePresentation.cyclic(ring, 2)
    v = resolve_module(module, length=top + 1)
    assert check_certificate(v, module, rng=top).valid
    faces, _ = v.columns()
    col = faces[top + 1][face][-1]
    row = min(set(range(v.ranks[top])) - {i for i, _ in col})
    faces[top + 1][face][-1] = col + [(row, ring.one())]
    cert = check_certificate(v, module, rng=top)
    assert cert.checks["simplicial_identities"] is False
    assert not cert.valid
    assert "level" in cert.detail["identity_failure"]


@pytest.mark.parametrize("spec", RINGS)
def test_maps_equal_reads_pairs_and_dicts_alike(spec):
    ring = parse_ring(spec)
    v = resolve_module(RModulePresentation.cyclic(ring, 2), length=1)
    one = ring.one()
    two = ring.add(one, one)
    minus = ring.neg(one)
    pairs = [[(1, two), (0, minus)], [], [(2, one)]]
    dicts = [{0: minus, 1: two}, {}, {2: one}]
    assert v._maps_equal(pairs, dicts, 1, 0)
    assert v._maps_equal(dicts, pairs, 1, 0)
    assert v._maps_equal(pairs, [list(c) for c in pairs], 1, 0)
    assert not v._maps_equal(pairs, [{0: minus, 1: one}, {}, {2: one}], 1, 0)
    assert not v._maps_equal(pairs, [{0: minus}, {}, {2: one}], 1, 0)
    assert not v._maps_equal(pairs, [{1: two, 2: minus}, {}, {2: one}], 1, 0)
    assert not v._maps_equal(pairs, dicts[:2], 1, 0)
    assert not v._maps_equal(pairs[:2], dicts, 1, 0)


def test_module_homology_computes_moore_homotopy_once(monkeypatch, tmp_path):
    calls = _counting(monkeypatch, [resolutions, invariants], "moore_homotopy")
    out = tmp_path / "out.json"
    assert main(["homology", "--theory", "mod:Z", "--algebra",
                 os.path.join(FIXTURES, "y-z4.alg"), "--max-degree", "2",
                 "--json", str(out)]) == 0
    assert len(calls) == 1
    assert [(e["degree"], e["rank"], e["torsion"])
            for e in json.loads(out.read_text())] == \
        [(0, 0, [4]), (1, 0, []), (2, 0, [])]


def test_homology_reuses_only_its_own_objects_certificate(monkeypatch):
    ring = parse_ring("Z")
    module = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(module, length=3)
    w = resolve_module(module, length=3)
    cert = check_certificate(v, module, rng=1)
    calls = _counting(monkeypatch, [invariants], "moore_homotopy")
    assert homology(v, range(2), certificate=cert) == \
        {n: cert.detail["abelianized_homotopy"][n] for n in range(2)}
    assert calls == []
    # a degree past the certificate's range, or another object, is computed
    assert homology(v, range(3), certificate=cert)[2].is_trivial()
    assert homology(w, range(2), certificate=cert) == \
        homology(v, range(2), certificate=cert)
    assert len(calls) == 2
