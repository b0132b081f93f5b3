import random

import pytest

from aq.abgroups import FGAbelianGroup
from aq.algebras import (
    AlgebraError,
    BudgetExhausted,
    cyclic_group,
    dihedral_4,
    klein_four,
    quaternion_8,
    symmetric_3,
)
from aq.beck import XModule
from aq.resolutions import (
    bar_resolution_group,
    check_certificate,
    factor_set_cohomology,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    r_matrix_to_z,
)
from aq.simplicial import moore_homotopy
from aq.snf import _sparse_cols, cols_to_matrix, mat_mul
from inputs import with_entry


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_loop_group_resolution_z2_certificate():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=3)
    cert = check_certificate(v, z2, rng=2)
    assert cert.valid, cert.checks
    # levels are free on |G|^n (|G|-1) generators
    assert len(v.levels[0].generators["g"]) == 1
    assert len(v.levels[1].generators["g"]) == 2
    assert len(v.levels[2].generators["g"]) == 4


def test_loop_group_resolution_z3_and_z4():
    for m in (3, 4):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=2)
        cert = check_certificate(v, g, rng=1)
        assert cert.valid, (m, cert.checks, cert.detail)


def test_loop_group_resolution_s3():
    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=2)
    cert = check_certificate(v, s3, rng=1)
    assert cert.valid, (cert.checks, cert.detail)


def test_certificate_catches_broken_identity():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    # corrupt a degeneracy image
    sort = "g"
    gen = v.levels[0].generators[sort][0]
    v.degens[0][0].mapping[sort][gen] = v.levels[1].zero()
    cert = check_certificate(v, z2, rng=1)
    assert not cert.valid
    assert not cert.checks["simplicial_identities"]
    assert "identity_failure" in cert.detail
    assert "d_" in cert.detail["identity_failure"] or \
        "s_" in cert.detail["identity_failure"]


def _module_resolutions():
    z3 = cyclic_group(3)
    zc3 = Ring("ZG", group=z3.group_table("g"))
    a = z3.carriers["g"][1]
    # Z[C3]/(1 - a): the trivial module Z
    trivial = RModulePresentation(zc3, 1, [[zc3.add(zc3.one(), {a: -1})]])
    return [RModulePresentation.cyclic(Ring("Z"), 4),
            RModulePresentation.cyclic(Ring("Zmod", m=4), 2), trivial]


def test_module_certificate_catches_a_corrupted_face():
    for m in _module_resolutions():
        ring = m.ring
        v = resolve_module(m, length=3)
        assert check_certificate(v, m, rng=2).valid
        w = with_entry(v, "faces", 2, 0, 0, 0,
                       lambda x: ring.add(x, ring.one()))
        cert = check_certificate(w, m, rng=2)
        assert not cert.valid, ring
        assert not cert.checks["simplicial_identities"]
        assert cert.detail["identity_failure"].startswith("d_"), ring


def test_module_certificate_works_modulo_m():
    # over Z/4 an entry changed by 4 is the same ring element
    m = RModulePresentation.cyclic(Ring("Zmod", m=4), 2)
    v = resolve_module(m, length=3)
    w = with_entry(v, "faces", 2, 0, 0, 0, lambda x: x + 4)
    w.check_identities()
    assert check_certificate(w, m, rng=2).valid


def test_r_matrix_to_z_is_multiplicative_over_s3():
    ring = Ring("ZG", group=symmetric_3().group_table("g"))
    els = ring.group.elements
    rng = random.Random(3)

    def rmat(rows, cols):
        return [[{g: rng.randint(-2, 2) for g in rng.sample(els, 2)}
                 for _ in range(cols)] for _ in range(rows)]

    def compose(outer, inner, right_first):
        # left-module maps: inner coefficients multiply on the left
        out = [[ring.zero()] * len(inner[0]) for _ in outer]
        for i, row in enumerate(outer):
            for j in range(len(inner[0])):
                for t, a in enumerate(row):
                    b = inner[t][j]
                    prod = ring.mul(b, a) if right_first else ring.mul(a, b)
                    out[i][j] = ring.add(out[i][j], prod)
        return out

    def to_z(mat):
        # r_matrix_to_z reads and writes sparse columns
        return cols_to_matrix(
            r_matrix_to_z(ring, _sparse_cols(mat, len(mat[0])), len(mat)),
            len(mat) * len(els))

    naive_differs = False
    for _ in range(5):
        outer, inner = rmat(2, 3), rmat(3, 2)
        z = mat_mul(to_z(outer), to_z(inner))
        assert to_z(compose(outer, inner, True)) == z
        naive = to_z(compose(outer, inner, False))
        naive_differs = naive_differs or naive != z
    assert naive_differs  # S3 is not commutative, so the order matters


def test_resolve_module_z4_over_z():
    ring = Ring("Z")
    m = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(m, length=3)
    cert = check_certificate(v, m, rng=2)
    assert cert.valid
    # the underlying complex is 0 -> Z --4--> Z
    cx = v.dk_source
    assert cx.ranks[0] == 1 and cx.ranks[1] == 1 and cx.ranks[2] == 0
    assert cx.diffs[1] == [[(0, 4)]]


def test_resolve_module_z2_over_z4_periodic():
    ring = Ring("Zmod", m=4)
    m = RModulePresentation.cyclic(ring, 2)
    v = resolve_module(m, length=4)
    cert = check_certificate(v, m, rng=3)
    assert cert.valid
    assert v.dk_source.ranks[:4] == [1, 1, 1, 1]  # periodic x2 resolution


def test_resolve_free_module_identity_resolution():
    ring = Ring("Z")
    m = RModulePresentation(ring, 2, [])
    v = resolve_module(m, length=3)
    assert v.dk_source.ranks[1] == 0
    pis = moore_homotopy(v, range(3))
    assert pis[0] == G(0, 0)


def test_bar_resolution_h_star_z2():
    z2 = cyclic_group(2)
    k = XModule.trivial(z2, [2])
    hs = bar_resolution_group(z2, k, 3)
    # H*(Z/2; Z/2) = Z/2 in every degree
    assert hs == [G(2), G(2), G(2), G(2)]


def test_bar_resolution_h_star_z3_with_z2():
    z3 = cyclic_group(3)
    k = XModule.trivial(z3, [2])
    hs = bar_resolution_group(z3, k, 2)
    assert hs == [G(2), G(), G()]


def test_bar_resolution_integral_z2():
    # Z coefficients are infinite, so they go through a CoefficientModule
    z2 = cyclic_group(2)
    ring = Ring("ZG", group=z2.group_table("g"))
    coeff = CoefficientModule.trivial(ring, [0])
    hs = bar_resolution_group(z2, coeff, 3)
    # H*(Z/2; Z) = Z, 0, Z/2, 0
    assert hs == [G(0), G(), G(2), G()]


def test_bar_resolution_group_ring_coefficients():
    # H^0(G; Z[G]) = Z and H^n = 0 for n >= 1
    for m in (2, 3):
        g = cyclic_group(m)
        ring = Ring("ZG", group=g.group_table("g"))
        # Z[G] as a module over itself
        coeff = CoefficientModule(ring, [0] * m, {
            h: ring.regular_block({h: 1}) for h in ring.group.elements})
        hs = bar_resolution_group(g, coeff, 2)
        assert hs == [G(0), G(), G()], (m, hs)


def test_factor_set_h2_z2_z2():
    z2 = cyclic_group(2)
    k = XModule.trivial(z2, [2])
    assert factor_set_cohomology(z2, k, 2) == G(2)


def test_factor_set_h2_z3_z3():
    z3 = cyclic_group(3)
    k = XModule.trivial(z3, [3])
    assert factor_set_cohomology(z3, k, 2) == G(3)


def test_factor_set_h1_trivial_action_is_hom():
    # H^1 with trivial action = Hom(G, K)
    z4 = cyclic_group(4)
    k = XModule.trivial(z4, [2])
    assert factor_set_cohomology(z4, k, 1) == G(2)
    z3 = cyclic_group(3)
    k3 = XModule.trivial(z3, [2])
    assert factor_set_cohomology(z3, k3, 1) == G()


def test_oracles_agree_h1_h2():
    # bar and factor-set oracles agree on H^1, H^2 for small fixtures
    for m in (2, 3, 4):
        g = cyclic_group(m)
        for kmod in ([2], [3]):
            k = XModule.trivial(g, kmod)
            bar = bar_resolution_group(g, k, 2)
            assert factor_set_cohomology(g, k, 1) == bar[1], (m, kmod)
            assert factor_set_cohomology(g, k, 2) == bar[2], (m, kmod)


def test_factor_set_nontrivial_action():
    # Z/2 acting on Z/3 by inversion: H^1 = H^2 = 0
    z2 = cyclic_group(2)
    from aq.abgroups import FinAb

    k = XModule(z2, FinAb([3]), {"e": [[1]], "a": [[2]]})
    bar = bar_resolution_group(z2, k, 2)
    assert factor_set_cohomology(z2, k, 1) == bar[1] == G()
    assert factor_set_cohomology(z2, k, 2) == bar[2] == G()


def test_factor_set_reaches_s3_at_the_default_budget():
    # the backtracking search reaches a nonabelian group of order 6
    s3 = symmetric_3()
    for moduli in ([2], [3]):
        k = XModule.trivial(s3, moduli)
        bar = bar_resolution_group(s3, k, 2)
        assert factor_set_cohomology(s3, k, 1) == bar[1], moduli
        assert factor_set_cohomology(s3, k, 2) == bar[2], moduli


def test_factor_set_reaches_order_8_with_z2_coefficients():
    for g, h1, h2 in ((dihedral_4(), G(2, 2), G(2, 2, 2)),
                      (quaternion_8(), G(2, 2), G(2, 2))):
        k = XModule.trivial(g, [2])
        assert bar_resolution_group(g, k, 2)[1:] == [h1, h2], g.name
        assert factor_set_cohomology(g, k, 1) == h1, g.name
        assert factor_set_cohomology(g, k, 2) == h2, g.name


def test_factor_set_h2_klein_four_with_two_generator_coefficients():
    v4 = klein_four()
    k = XModule.trivial(v4, [2, 2])
    assert factor_set_cohomology(v4, k, 2) == G(2, 2, 2, 2, 2, 2)


def test_factor_set_budget_names_stage_and_nodes():
    # Z/3 with Z/3 searches normalized cochains: 3^2 coboundary candidates
    # fit a budget of 10, the second search node does not
    z3 = cyclic_group(3)
    with pytest.raises(BudgetExhausted, match=r"^factor-set H\^2 cocycle "
                       r"search: 11 nodes used, limit 10$"):
        factor_set_cohomology(z3, XModule.trivial(z3, [3]), 2, budget=10)
    z4 = cyclic_group(4)
    with pytest.raises(BudgetExhausted, match=r"^factor-set H\^2 "
                       r"coboundaries: 27 nodes used, limit 10$"):
        factor_set_cohomology(z4, XModule.trivial(z4, [3]), 2, budget=10)


def test_group_oracles_reject_invalid_arguments():
    z2 = cyclic_group(2)
    k = XModule.trivial(z2, [2])
    with pytest.raises(AlgebraError, match="degree 1 or 2, not 3"):
        factor_set_cohomology(z2, k, 3)
    with pytest.raises(AlgebraError, match="needs an XModule"):
        factor_set_cohomology(z2, k.coefficient_module(), 2)
    with pytest.raises(AlgebraError, match="XModule or a CoefficientModule"):
        bar_resolution_group(z2, [2], 2)


def test_factor_set_oracle_uses_nothing_from_the_linear_algebra():
    # the oracle can only disagree with the bar and Smith routes if it
    # shares no code with them
    import ast
    import inspect

    from aq import resolutions

    tree = ast.parse(inspect.getsource(resolutions.factor_set_cohomology))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    shared = sorted(
        name for name in names
        if getattr(getattr(resolutions, name, None), "__module__", None)
        in ("aq.snf", "aq.presented")
    )
    assert shared == []
    assert {"BudgetExhausted", "XModule", "invariants_from_addition"} <= names
