import pytest

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import cyclic_group, symmetric_3
from aq.beck import XModule, identity_map, derivations
from aq.invariants import (
    InvalidCertificate,
    cohomology,
    cohomology_via_em,
    homology,
    homology_with_coeffs,
)
from aq.resolutions import (
    bar_resolution_group,
    check_certificate,
    factor_set_cohomology,
    loop_group_resolution,
    resolve_module,
)
from aq.rings import CoefficientModule, RModulePresentation, Ring, ext_groups, tor_groups


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_h0_aq_is_derivations_z2():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    cert = check_certificate(v, z2, rng=1)
    k = XModule.trivial(z2, [2])
    hs = cohomology(v, k, [0, 1], x=z2, certificate=cert)
    ders = derivations(identity_map(z2), k)
    assert hs[0] == ders.invariants() == G(2)


def test_h1_aq_is_classical_h2_z2():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    k = XModule.trivial(z2, [2])
    hs = cohomology(v, k, [0, 1], x=z2)
    assert hs[1] == factor_set_cohomology(z2, k, 2) == G(2)


def test_group_aq_matches_oracles_grid():
    for m in (2, 3, 4):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=2)
        cert = check_certificate(v, g, rng=1)
        assert cert.valid
        for moduli in ([2], [3]):
            k = XModule.trivial(g, moduli)
            hs = cohomology(v, k, [0, 1], x=g, certificate=cert)
            bar = bar_resolution_group(g, k, 2)
            assert hs[0] == bar[1], (m, moduli)
            assert hs[1] == bar[2], (m, moduli)
            assert hs[0] == factor_set_cohomology(g, k, 1), (m, moduli)
            assert hs[1] == factor_set_cohomology(g, k, 2), (m, moduli)


def test_cohomology_requires_valid_certificate():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    sort = "g"
    gen = v.levels[0].generators[sort][0]
    v.degens[0][0].mapping[sort][gen] = v.levels[1].zero()
    cert = check_certificate(v, z2, rng=1)
    assert not cert.valid
    k = XModule.trivial(z2, [2])
    with pytest.raises(InvalidCertificate):
        cohomology(v, k, [0], x=z2, certificate=cert)


def test_module_theory_cohomology_is_ext():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(y, length=4)
    cert = check_certificate(v, y, rng=3)
    g = CoefficientModule.trivial(ring, [2])
    hs = cohomology(v, g, [0, 1, 2, 3], certificate=cert)
    ext = ext_groups(y, g, 3)
    assert [hs[i] for i in range(4)] == ext == [G(2), G(2), G(), G()]


def test_module_theory_cohomology_is_ext_over_z4():
    ring = Ring("Zmod", m=4)
    y = RModulePresentation.cyclic(ring, 2)
    v = resolve_module(y, length=4)
    g = CoefficientModule.trivial(ring, [2])
    hs = cohomology(v, g, [0, 1, 2, 3])
    ext = ext_groups(y, g, 3)
    assert [hs[i] for i in range(4)] == ext == [G(2)] * 4


def test_route_agreement_em_vs_cochain_groups():
    for m in (2, 3):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=3)
        for moduli in ([2], [3]):
            k = XModule.trivial(g, moduli)
            hs = cohomology(v, k, [0, 1, 2], x=g)
            for n in (1, 2):
                em = cohomology_via_em(v, k, [n], x=g)[n]
                assert em == hs[n], (m, moduli, n, em, hs[n])


def test_route_agreement_nontrivial_action():
    z2 = cyclic_group(2)
    k = XModule(z2, FinAb([3]), {"e": [[1]], "a": [[2]]})
    v = loop_group_resolution(z2, truncation=3)
    hs = cohomology(v, k, [0, 1, 2], x=z2)
    for n in (1, 2):
        assert cohomology_via_em(v, k, [n], x=z2)[n] == hs[n]
    # degree 0 is the full derivation group (classical H^1 divides out the
    # principal crossed homomorphisms, which vanish only for trivial K)
    ders = derivations(identity_map(z2), k)
    assert hs[0] == ders.invariants() == G(3)
    # above degree 0 the indexing shift against the bar oracle applies
    bar = bar_resolution_group(z2, k, 3)
    assert hs[1] == bar[2] and hs[2] == bar[3]


def test_route_agreement_module_theory():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(y, length=3)
    g = CoefficientModule.trivial(ring, [2])
    hs = cohomology(v, g, [0, 1, 2])
    assert cohomology_via_em(v, g, [1])[1] == hs[1] == G(2)
    assert cohomology_via_em(v, g, [2])[2] == hs[2] == G()


def test_em_route_zero_module():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    k = XModule.trivial(z2, [1])
    assert cohomology_via_em(v, k, [1], x=z2)[1] == G()


def test_em_route_matches_brute_force_simplicial_maps():
    # enumerate honest simplicial maps W -> E^X(K, 1) over X on a small
    # fixture and compare with the strict-cocycle description
    from itertools import product as iproduct

    from aq.simplicial import eilenberg_maclane
    from aq.invariants import der_cochain

    z2 = cyclic_group(2)
    k = XModule.trivial(z2, [2])
    v = loop_group_resolution(z2, truncation=2)
    em = eilenberg_maclane(z2, k, 1, truncation=2)
    sort = "g"

    # a simplicial map over X assigns to each level-n generator an element
    # of E_n in the fiber over its augmentation image; the kernel (K-part)
    # components are arbitrary functions, constrained by commutation
    lvl_gens = [v.levels[i].generators[sort] for i in range(3)]
    aug = v.structure_maps(2)

    def fiber_elements(i, g):
        xval = aug[i].mapping[sort][g] if i == 0 else \
            aug[i].apply_free_element(v.levels[i].gen(g))
        return [lab for lab in em.levels[i].carriers[sort]
                if em.levels[i].pair_of[lab][1] == xval]

    pools = []
    slots = []
    for i in range(3):
        for g in lvl_gens[i]:
            slots.append((i, g))
            pools.append(fiber_elements(i, g))

    def word_image(i, word, assign):
        acc = em.levels[i].identity(sort)
        for g, e in word:
            val = assign[(i, g)]
            if e < 0:
                val = em.levels[i].ginv(val, sort)
            acc = em.levels[i].gmul(acc, val, sort)
        return acc

    maps_found = set()
    for combo in iproduct(*pools):
        assign = dict(zip(slots, combo))
        ok = True
        for i in range(1, 3):
            for g in lvl_gens[i]:
                for a in range(i + 1):
                    lhs = word_image(
                        i - 1, v.faces[i][a].mapping[sort][g], assign
                    )
                    rhs = em.faces[i][a].mapping[sort][assign[(i, g)]]
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            for i in range(0, 2):
                for g in lvl_gens[i]:
                    for a in range(i + 1):
                        lhs = word_image(
                            i + 1, v.degens[i][a].mapping[sort][g], assign
                        )
                        rhs = em.degens[i][a].mapping[sort][assign[(i, g)]]
                        if lhs != rhs:
                            ok = False
        if ok:
            # record the level-1 K-components (the derivation cochain)
            key = tuple(
                em.levels[1].pair_of[assign[(1, g)]][0] for g in lvl_gens[1]
            )
            maps_found.add(key)

    # strict cocycles of the derivation complex at degree 1
    from aq.presented import cycle_lattice
    from aq.simplicial import _alternating_sum

    w = der_cochain(v, k, x=z2)
    stacked = [(w.codegens[1][0], w.levels[0]),
               (_alternating_sum(w.cofaces[1]), w.levels[2])]
    lattice = cycle_lattice(stacked, w.levels[1].gens)
    # enumerate the finite set of lattice points mod the moduli
    pts = set()
    for coeffs in iproduct(range(-2, 3), repeat=len(lattice)):
        vec = [0] * w.levels[1].gens
        for cc, bvec in zip(coeffs, lattice):
            for idx in range(len(vec)):
                vec[idx] += cc * bvec[idx]
        pts.add(tuple(x % 2 for x in vec))
    expected = {tuple((x,) for x in p) for p in pts}
    assert maps_found == expected

    # the path-object homotopy relation is an equivalence relation on the
    # enumerated maps: differences lie in the coboundary lattice of
    # normalized 0-cochains (C^0 is all of it), checked exhaustively
    delta0 = dict(_alternating_sum(w.cofaces[0])[0])  # its one column
    boundaries = set()
    for c in range(2):
        boundaries.add(tuple((delta0.get(r, 0) * c) % 2 for r in range(2)))

    def homotopic(f0, f1):
        diff = tuple((a[0] - b[0]) % 2 for a, b in zip(f0, f1))
        return diff in boundaries

    found = sorted(maps_found)
    for f0 in found:
        assert homotopic(f0, f0)
        for f1 in found:
            assert homotopic(f0, f1) == homotopic(f1, f0)
            for f2 in found:
                if homotopic(f0, f1) and homotopic(f1, f2):
                    assert homotopic(f0, f2)
    # class count agrees with the EM-route cohomology order
    classes = set()
    for f0 in found:
        canon = min(
            tuple((a[0] - b) % 2 for a, b in zip(f0, bb)) for bb in boundaries
        )
        classes.add(canon)
    em_h1 = cohomology_via_em(v, k, [1], x=z2)[1]
    assert len(classes) == em_h1.order()


def test_absolute_group_cohomology_matches_uct():
    # absolute case: coefficients are plain abelian groups, and the
    # cohomology obeys universal coefficients against the absolute
    # homology (computed independently from the abelianized complex)
    from aq.acceptance import closed_form_ext
    from test_presented import M

    def hom(a):
        return closed_form_ext(M(*[0] * a.rank, *a.torsion), [2], 0)

    def ext(a):
        return closed_form_ext(M(*[0] * a.rank, *a.torsion), [2], 1)

    for m in (2, 3, 4):
        y = cyclic_group(m)
        v = loop_group_resolution(y, truncation=3)
        g = CoefficientModule.trivial(Ring("Z"), [2])
        hs = cohomology(v, g, [0, 1, 2])
        h_low = homology(v, [0, 1, 2])
        assert hs[0] == hom(h_low[0])
        assert hs[1] == ext(h_low[0]).direct_sum(hom(h_low[1]))
        want2 = ext(h_low[1]).direct_sum(hom(h_low[2]))
        assert hs[2] == want2, (m, hs[2], want2)


def test_homology_h0_is_abelianization():
    from aq.algebras import abelianization_table

    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=1)
    hs = homology(v, [0])
    assert hs[0] == abelianization_table(s3) == G(2)
    z4 = cyclic_group(4)
    v4 = loop_group_resolution(z4, truncation=1)
    assert homology(v4, [0])[0] == G(4)


def test_homology_over_x_contractibility():
    # H_n(G/G; Z[G]) vanishes above degree 0 (the derived abelianization
    # is concentrated in degree 0); degree 0 is the augmentation ideal
    # Diff(G) = I[G], free of rank |G| - 1
    for m in (2, 3):
        g = cyclic_group(m)
        v = loop_group_resolution(g, truncation=3)
        ring = Ring("ZG", group=g.group_table("g"))
        zg = CoefficientModule(ring, [0] * m, {h: ring.regular_block({h: 1})
                                               for h in g.carriers["g"]})
        hs = homology_with_coeffs(v, zg, [0, 1, 2], x=g)
        assert hs[0] == FGAbelianGroup(m - 1), (m, hs)
        assert hs[1] == G() and hs[2] == G()


def test_homology_module_theory_is_identity_at_0():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(y, length=3)
    hs = homology(v, [0, 1, 2])
    assert hs[0] == G(4) and hs[1] == G() and hs[2] == G()


def test_homology_with_coeffs_is_tor():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(y, length=4)
    g = CoefficientModule.trivial(ring, [2])
    hs = homology_with_coeffs(v, g, [0, 1, 2, 3])
    tor = tor_groups(y, g, 3)
    assert [hs[i] for i in range(4)] == tor == [G(2), G(2), G(), G()]


def test_homology_with_free_coeffs_equals_homology():
    ring = Ring("Z")
    y = RModulePresentation.cyclic(ring, 4)
    v = resolve_module(y, length=3)
    free = CoefficientModule.trivial(ring, [0])
    assert homology_with_coeffs(v, free, [0, 1]) == homology(v, [0, 1])
def test_homology_with_action_tag():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    hs, actions = homology(v, [0], x=z2, with_action=True)
    # H_0 over X is the augmentation ideal: Z with the generator acting
    # by -1 (the sign representation)
    assert hs[0] == G(0)
    assert actions[0]["a"] == [[-1]]
    assert actions[0]["e"] == [[1]]
def test_coefficient_and_diagram_checks_do_not_depend_on_assert():
    # each check raises an AlgebraError that names it, under `python -O`
    # (which strips asserts) as well
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "\n".join([
        "from aq.algebras import AlgebraError, cyclic_group",
        "from aq.invariants import _coefficient",
        "from aq.resolutions import loop_group_resolution",
        "v = loop_group_resolution(cyclic_group(2), truncation=2)",
        "def fails(f):",
        "    try:",
        "        f()",
        "    except AlgebraError as exc:",
        "        print(exc)",
        "fails(lambda: _coefficient([2]))",
        "v.augmentation = None",
        "fails(lambda: v.structure_maps(1))",
    ])
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.splitlines() == [
            "coefficients must be an XModule or a CoefficientModule",
            "structure map: the simplicial algebra has no augmentation",
        ], flags


def _permutation_module(s3, p):
    """(Z/p)^3 with S3 permuting the coordinates: the label p021 is the
    permutation (0, 2, 1), acting by e_i -> e_p(i)."""
    action = {}
    for label in s3.carriers["g"]:
        perm = (0, 1, 2) if label == "e" else tuple(map(int, label[1:]))
        action[label] = [[int(perm[j] == i) for j in range(3)]
                         for i in range(3)]
    return XModule(s3, FinAb([p] * 3), action)


@pytest.mark.parametrize("p,expected", [
    (2, {0: G(2, 2, 2), 1: G(2), 2: G(2)}),
    (3, {0: G(3, 3), 1: G(), 2: G()}),
])
def test_homology_over_a_nonabelian_action_equals_cohomology(p, expected):
    """Over F_p the permutation module is self-dual, so homology with its
    coefficients equals cohomology degree by degree (Shapiro: both are
    those of C2 with Z/p, shifted by the derivations).  The tensor routes
    read the left action as a right one through g -> g^-1; with the left
    action itself d1 d2 is not zero mod p."""
    s3 = symmetric_3()
    v = loop_group_resolution(s3, truncation=3)
    k = _permutation_module(s3, p)
    degrees = range(3)
    assert cohomology(v, k, degrees, x=s3) == expected
    assert homology_with_coeffs(v, k, degrees, x=s3) == expected


def test_no_degrees_give_no_groups():
    z2 = cyclic_group(2)
    v = loop_group_resolution(z2, truncation=2)
    k = XModule.trivial(z2, [2])
    for x in (None, z2):
        assert cohomology(v, k, [], x=x) == {}
        assert homology_with_coeffs(v, k, [], x=x) == {}
        assert cohomology_via_em(v, k, [], x=x) == {}
        assert homology(v, [], x=x) == {}
