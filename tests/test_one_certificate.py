"""One resolution certificate for group and module resolutions: it checks
the identities and degreewise freeness, and where both hold reads the
Moore homotopy of the abelianization over the target (a free simplicial
module is its own).  Its checks and that homotopy are pinned on the
loop-group resolutions, an `.sres` fixture and the seeded modules; group
and module homology reuse it under one rule."""

import os

import pytest

from aq import invariants
from aq.abgroups import FGAbelianGroup
from aq.algebras import cyclic_group, klein_four, symmetric_3
from aq.fixtures import load_algebra, load_sres
from aq.invariants import homology
from aq.resolutions import check_certificate, loop_group_resolution, \
    resolve_module
from aq.rings import RModulePresentation, parse_ring
from test_normalized import RINGS, SEEDS, _seeded_module

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
KEYS = ["simplicial_identities", "degreewise_free", "pi0",
        "abelianized_acyclic"]
GROUPS = {
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "V4": klein_four,
    "S3": symmetric_3,
}

# H_0 of each seeded module of `test_normalized` as (rank, torsion)
MODULE_H0 = {
    ("Z", 2): (1, [3]), ("Z", 3): (0, [3]),
    ("Z/4", 7): (0, [2]), ("Z/4", 2): (0, [4]),
    ("Z/6", 1): (0, [3]), ("Z/6", 2): (0, [3, 6]),
    ("Z[C2]", 2): (1, [2, 2]), ("Z[C2]", 1): (0, [2, 6]),
    ("Z[C3]", 3): (1, [9]), ("Z[C3]", 1): (0, [2, 6, 18]),
}


def _homotopy(cert):
    return {n: (g.rank, list(g.torsion))
            for n, g in sorted(cert.detail["abelianized_homotopy"].items())}


def _counting_moore_homotopy(monkeypatch):
    calls = []
    real = invariants.moore_homotopy

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invariants, "moore_homotopy", counted)
    return calls


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_certificate_reads_the_augmentation_ideal(name):
    g = GROUPS[name]()
    top = 3 if g.order() <= 4 else 2
    cert = check_certificate(loop_group_resolution(g, truncation=top), g,
                             rng=top - 1)
    assert list(cert.checks.items()) == [(k, True) for k in KEYS]
    assert _homotopy(cert) == {0: (g.order() - 1, []),
                               **{n: (0, []) for n in range(1, top)}}


def test_sres_certificates():
    g = load_algebra(os.path.join(FIXTURES, "z2.alg"))
    v = load_sres(os.path.join(FIXTURES, "z2res-basis.sres"))
    cert = check_certificate(v, g, rng=v.truncation - 1)
    assert list(cert.checks.items()) == [(k, True) for k in KEYS]
    assert _homotopy(cert) == {0: (1, []), 1: (0, []), 2: (0, [])}
    broken = load_sres(os.path.join(FIXTURES, "broken.sres"))
    cert = check_certificate(broken, g, rng=broken.truncation - 1)
    assert cert.checks == {"simplicial_identities": False,
                           "degreewise_free": True, "pi0": False,
                           "abelianized_acyclic": False}
    assert cert.detail == {"identity_failure":
                           "d_0 d_1 != d_0 d_0 at level 2"}


@pytest.mark.parametrize("name,seed", SEEDS)
def test_module_certificate_reads_the_module_itself(name, seed):
    m = _seeded_module(RINGS[name](), seed)
    v = resolve_module(m, length=3)
    assert v.abelianization(True) is v and v.abelianization(False) is v
    assert v.is_free_levelwise()
    cert = check_certificate(v, m, rng=2)
    assert list(cert.checks.items()) == [(k, True) for k in KEYS]
    assert _homotopy(cert) == {0: MODULE_H0[name, seed], 1: (0, []),
                               2: (0, [])}


def test_relative_group_homology_reuses_the_certificate(monkeypatch):
    g = klein_four()
    v = loop_group_resolution(g, truncation=3)
    cert = check_certificate(v, g, rng=1)
    calls = _counting_moore_homotopy(monkeypatch)
    relative = homology(v, range(2), x=g, certificate=cert)
    assert relative == {0: FGAbelianGroup(3), 1: FGAbelianGroup()}
    assert relative == cert.detail["abelianized_homotopy"]
    assert calls == []
    # the absolute homology is that of another abelianization, computed
    assert homology(v, range(2), certificate=cert) == \
        {0: FGAbelianGroup(0, [2, 2]), 1: FGAbelianGroup(0, [2])}
    assert len(calls) == 1
    # and so is a degree past the certificate's range
    assert homology(v, range(3), x=g, certificate=cert)[2].is_trivial()
    assert len(calls) == 2
    # no degrees, no groups, for either kind
    w = resolve_module(RModulePresentation.cyclic(parse_ring("Z"), 4), 2)
    assert homology(v, [], x=g) == homology(v, []) == homology(w, []) == {}


def test_a_module_resolution_failing_its_identities_reads_no_homotopy():
    ring = parse_ring("Z")
    module = RModulePresentation.cyclic(ring, 2)
    v = resolve_module(module, length=2)
    faces, _ = v.columns()
    col = faces[2][0][-1]
    row = min(set(range(v.ranks[1])) - {i for i, _ in col})
    faces[2][0][-1] = col + [(row, ring.one())]
    cert = check_certificate(v, module, rng=1)
    assert cert.checks == {"simplicial_identities": False,
                           "degreewise_free": True, "pi0": False,
                           "abelianized_acyclic": False}
    assert "abelianized_homotopy" not in cert.detail
    assert "level" in cert.detail["identity_failure"]
