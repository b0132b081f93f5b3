from aq.abgroups import FGAbelianGroup
from aq.invariants import cohomology, homology_with_coeffs
from aq.resolutions import resolve_module
from aq.rings import CoefficientModule, RModulePresentation, Ring
from aq.spectral import (
    GradedModule,
    bicomplex_checks,
    reverse_adams_e2,
    tor_e2,
    uct_e2,
)


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_uct_page_z4_z2_over_z():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    h = GradedModule.concentrated(y)
    g = CoefficientModule.trivial(ring, [2])
    # direct cohomology for the convergence report
    v = resolve_module(y, length=4)
    hs = cohomology(v, g, [0, 1, 2, 3])
    page = uct_e2(h, g, smax=3, tmax=3,
                  cohomology_values={n: hs[n] for n in range(4)})
    # grid: Hom = Z/2 at (0,0), Ext^1 = Z/2 at (1,0)
    assert page.entry(0, 0) == G(2)
    assert page.entry(1, 0) == G(2)
    assert page.entry(2, 0) == G()
    # total degree t - s: H^0 at 0, H^1 at -1
    assert page.consistent(), page.convergence


def test_uct_zero_input_gives_zero_page():
    ring = Ring("Z")
    h = GradedModule(ring, {})
    g = CoefficientModule.trivial(ring, [2])
    page = uct_e2(h, g, smax=3, tmax=3)
    assert page.grid == {}


def test_uct_periodic_over_z4():
    ring = Ring("Zmod", m=4)
    h = GradedModule.concentrated(RModulePresentation.cyclic(ring, 2))
    g = CoefficientModule.trivial(ring, [2])
    page = uct_e2(h, g, smax=4, tmax=2)
    for s in range(5):
        assert page.entry(s, 0) == G(2)


def test_tor_page_against_homology_with_coeffs():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    h = GradedModule.concentrated(y)
    g = CoefficientModule.trivial(ring, [2])
    v = resolve_module(y, length=4)
    hs = homology_with_coeffs(v, g, [0, 1, 2])
    page = tor_e2(h, g, smax=3, tmax=2, homology_values=hs)
    assert page.entry(0, 0) == G(2) and page.entry(1, 0) == G(2)
    assert page.consistent(), page.convergence


def test_tor_page_reads_tmax_as_the_uct_page_does():
    # H_0 = Z/4, H_1 = Z/2 with Z/2 coefficients: E2[0,1] = Z/2 sits on
    # the diagonal of degree 1, and tmax = 0 leaves it out of that row
    ring = Ring("Z")
    h = GradedModule(ring, {0: RModulePresentation.cyclic(ring, 4),
                            1: RModulePresentation.cyclic(ring, 2)})
    g = CoefficientModule.trivial(ring, [2])
    values = {0: G(2), 1: G(2, 2)}
    for page_of in (
            lambda tmax: uct_e2(h, g, 2, tmax, cohomology_values=values),
            lambda tmax: tor_e2(h, g, 2, tmax, homology_values=values)):
        assert page_of(0).entry(0, 1) == G(2)
        rows = {tmax: {row["degree"]: row for row in page_of(tmax).convergence}
                for tmax in (0, 1)}
        assert len(rows[1][1]["page"]) == 2 and rows[1][1]["consistent"]
        assert rows[0][1]["page"] == [G(2).to_json()]
        assert not rows[0][1]["consistent"]
        assert rows[0][0] == rows[1][0]


def test_tor_page_free_coefficients_single_column():
    ring = Ring("Z")
    h = GradedModule.concentrated(RModulePresentation.cyclic(ring, 4))
    g = CoefficientModule.trivial(ring, [0])
    page = tor_e2(h, g, smax=3, tmax=2)
    assert page.entry(0, 0) == G(4)
    assert all(s == 0 for (s, t) in page.grid)


def test_tor_page_free_h_collapses_to_tensor():
    ring = Ring("Z")
    h = GradedModule.concentrated(RModulePresentation(ring, 1, []))
    g = CoefficientModule.trivial(ring, [6])
    page = tor_e2(h, g, smax=2, tmax=1)
    assert page.entry(0, 0) == G(6)
    assert len(page.grid) == 1


def test_reverse_adams_homology_collapse():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    pi = GradedModule.concentrated(y)
    g = CoefficientModule.trivial(ring, [2])
    v = resolve_module(y, length=4)
    hs = homology_with_coeffs(v, g, [0, 1, 2, 3])
    page = reverse_adams_e2(pi, g, "homology", smax=3, comparison=hs)
    assert page.entry(0, 0) == G(2) and page.entry(1, 0) == G(2)
    assert page.consistent(), page.convergence


def test_reverse_adams_cohomology_collapse():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    pi = GradedModule.concentrated(y)
    g = CoefficientModule.trivial(ring, [2])
    v = resolve_module(y, length=4)
    hs = cohomology(v, g, [0, 1, 2, 3])
    page = reverse_adams_e2(pi, g, "cohomology", smax=3, comparison=hs)
    assert page.consistent(), page.convergence


def test_reverse_adams_zero_pi():
    ring = Ring("Z")
    pi = GradedModule(ring, {})
    g = CoefficientModule.trivial(ring, [2])
    page = reverse_adams_e2(pi, g, "homology", smax=3)
    assert page.grid == {}


def test_page_serialization_round_trip():
    ring = Ring("Z")
    h = GradedModule.concentrated(RModulePresentation.cyclic(ring, 4))
    g = CoefficientModule.trivial(ring, [2])
    page = uct_e2(h, g, smax=2, tmax=1)
    data = page.to_json()
    assert data["grid"][0]["group"] == {"rank": 0, "torsion": [2]}


def test_bicomplex_checks_pass():
    report = bicomplex_checks(trials=10)
    assert report["all_pass"], report


def _messages_under_both_modes(lines):
    """Run `lines` with and without `python -O` (which strips asserts) and
    return the printed lines of each run."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "\n".join([
        "from aq.errors import AlgebraError",
        "def fails(f):",
        "    try:",
        "        f()",
        "    except AlgebraError as exc:",
        "        print(exc)",
        *lines,
    ])
    return [
        subprocess.run([sys.executable, *flags, "-c", code], check=True,
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=src)).stdout.splitlines()
        for flags in ([], ["-O"])
    ]


def test_abelian_group_checks_do_not_depend_on_assert():
    runs = _messages_under_both_modes([
        "from aq.abgroups import FGAbelianGroup, FinAb",
        "fails(lambda: FGAbelianGroup(-1))",
        "fails(lambda: FGAbelianGroup(0, [0]))",
        "fails(lambda: FGAbelianGroup(0, [2, 3]))",
        "fails(lambda: FinAb.from_invariants(FGAbelianGroup(1, [2])))",
    ])
    for out in runs:
        assert out == [
            "FGAbelianGroup: rank -1 must be >= 0 and torsion [] >= 2",
            "FGAbelianGroup: rank 0 must be >= 0 and torsion [0] >= 2",
            "torsion [2, 3] not in divisibility order",
            "FinAb carriers must be finite, not Z/2 + Z",
        ]


def test_spectral_checks_do_not_depend_on_assert():
    runs = _messages_under_both_modes([
        "from aq.abgroups import FGAbelianGroup",
        "from aq.rings import CoefficientModule, RModulePresentation, Ring",
        "from aq.spectral import GradedModule, SpectralPage, reverse_adams_e2",
        "z = Ring('Z')",
        "pi = GradedModule.concentrated(RModulePresentation.cyclic(z, 2))",
        "g = CoefficientModule.trivial(z, [2])",
        "fails(lambda: SpectralPage({(-1, 0): FGAbelianGroup()}, 'first'))",
        "fails(lambda: reverse_adams_e2(pi, g, 'tensor', 2))",
        "z4 = RModulePresentation.cyclic(Ring('Zmod', m=4), 2)",
        "fails(lambda: GradedModule(z, {0: z4}))",
    ])
    for out in runs:
        assert out == [
            "grid entry (-1,0) lies outside the quadrant: indices must be >= 0",
            "reverse_adams_e2: variant must be homology or cohomology, "
            "not 'tensor'",
            "graded module: the component in degree 0 needs a degree >= 0 "
            "and the ring Z, not Z/4",
        ]
