import hashlib
import random

import pytest

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import AlgebraError, cyclic_group
from aq.beck import XModule
from aq.presented import Presentation
from aq.rings import CoefficientModule, Ring
from aq.simplicial import (
    ChainComplex,
    CosimplicialAbelian,
    PresentedComplex,
    bisimplicial_from_double_complex,
    cohomotopy,
    diag,
    dold_kan,
    eilenberg_maclane,
    em_pi_checks,
    hom_bicomplex_total_cohomology,
    hom_cochain_of_simplicial,
    k_object,
    matching,
    moore_homotopy,
    normalize_dk,
    surjections,
    total_complex,
    unnormalized_homotopy,
)
from aq.snf import cols_to_matrix
from aq.spectral import random_columns
from inputs import with_entry


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_surjection_counts():
    # monotone surjections [n] ->> [k] are counted by binomial(n, k)
    assert len(surjections(2, 1)) == 2
    assert len(surjections(3, 1)) == 3
    assert len(surjections(4, 2)) == 6
    assert all(s[0] == 0 for s in surjections(3, 2))


def test_constant_simplicial_object_homotopy():
    # constant object c(A): A at degree 0, 0 above
    cx = PresentedComplex([Presentation.from_moduli([4])], [None])
    v = dold_kan(cx, truncation=3)
    v.check_identities()
    pis = moore_homotopy(v, range(3))
    assert pis[0] == G(4)
    assert pis[1] == G() and pis[2] == G()


def test_dk_of_multiplication_by_4():
    # 0 -> Z --4--> Z -> 0: pi_0 = Z/4, pi_1 = 0
    cx = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 4)]]]
    )
    v = dold_kan(cx, truncation=3)
    v.check_identities()
    pis = moore_homotopy(v, range(3))
    assert pis[0] == G(4) and pis[1] == G() and pis[2] == G()


def test_normalize_dk_reads_the_maps_as_they_are():
    # the faces of a Dold-Kan object are read back from its columns, so a
    # rebuild from edited columns reads back the edit
    cx = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 4)]]]
    )
    v = dold_kan(cx, truncation=3)
    assert normalize_dk(v) == cx
    v = with_entry(v, "faces", 1, 1, 0, 1, lambda x: 6)
    assert normalize_dk(v).diffs[1] == [[(0, 6)]]


def test_k_objects_have_right_homotopy():
    for group, n in [(G(0), 1), (G(2), 1), (G(3), 2), (G(0, 4), 2)]:
        v = k_object(group, n, truncation=n + 2)
        v.check_identities()
        pis = moore_homotopy(v, range(n + 2))
        for i in range(n + 2):
            assert pis[i] == (group if i == n else G()), (group, n, i, pis)


def test_k_z2_1_pi0_vanishes():
    v = k_object(G(2), 1, truncation=3)
    pis = moore_homotopy(v, range(2))
    assert pis[0] == G() and pis[1] == G(2)


def test_dold_kan_round_trip_random(seed=20240817, trials=200):
    rng = random.Random(seed)
    for _ in range(trials):
        length = rng.randint(1, 5)
        ranks = [rng.randint(0, 3) for _ in range(length)]
        ring = Ring("Z")
        diffs = [None]
        ok = True
        for n in range(1, length):
            rows, cols = ranks[n - 1], ranks[n]
            # d.d = 0: random maps in odd degrees, zero ones in even degrees
            diffs.append(random_columns(rng, rows, cols, -5, 5) if n % 2 == 1
                         else [[] for _ in range(cols)])
        try:
            cx = ChainComplex(ring, ranks, diffs)
        except AlgebraError:
            continue
        v = dold_kan(cx)
        back = normalize_dk(v)
        assert back == cx


def test_dold_kan_round_trip_presented(seed=11, trials=50):
    rng = random.Random(seed)
    for _ in range(trials):
        length = rng.randint(1, 4)
        levels = []
        for _ in range(length):
            moduli = [rng.choice([0, 2, 3, 4]) for _ in range(rng.randint(0, 2))]
            levels.append(Presentation.from_moduli(moduli))
        diffs = [None]
        for n in range(1, length):
            diffs.append([[] for _ in range(levels[n].gens)])
        cx = PresentedComplex(levels, diffs)
        v = dold_kan(cx)
        back = normalize_dk(v)
        assert back == cx
        # and the homotopy agrees with the complex homology
        pis = moore_homotopy(v, range(length))
        hom = cx.homology(range(length))
        assert pis == hom


def test_moore_matches_unnormalized():
    v = k_object(G(2), 2, truncation=4)
    a = moore_homotopy(v, range(4))
    b = unnormalized_homotopy(v, range(4))
    assert a == b


def test_simplicial_identities_checker_catches_breakage():
    v = k_object(G(2), 1, truncation=3)
    # corrupt d_0 at level 2
    v = with_entry(v, "faces", 2, 0, 0, 0, lambda x: x + 1)
    try:
        v.check_identities()
        raised = False
    except Exception as exc:
        raised = True
        assert "d_" in str(exc)
    assert raised


def test_cohomotopy_constant_and_zero():
    levels = [Presentation.from_moduli([5]) for _ in range(4)]
    cofaces = []
    for n in range(3):
        mats = []
        for i in range(n + 2):
            # constant cosimplicial object: all cofaces identity
            mats.append([[(0, 1)]])
        cofaces.append(mats)
    w = CosimplicialAbelian(levels, cofaces, [], 3)
    pis = cohomotopy(w, range(3))
    assert pis[0] == G(5) and pis[1] == G() and pis[2] == G()
    zero = CosimplicialAbelian(
        [Presentation.free(0) for _ in range(4)],
        [[[[] for _ in range(0)] or [[]] * 0 or [] for i in range(n + 2)]
         for n in range(3)],
        [], 3,
    )
    # all-zero object: build explicitly with empty matrices
    zero = CosimplicialAbelian(
        [Presentation.free(0) for _ in range(4)],
        [[[] for _ in range(n + 2)] for n in range(3)],
        [], 3,
    )
    z = cohomotopy(zero, range(3))
    assert all(z[i] == G() for i in range(3))


def test_cohomotopy_ext_fixture():
    # Hom(resolution of Z/4 over Z, Z/2) as a cosimplicial object via the
    # hom dual of the Dold-Kan image: H^0 = H^1 = Z/2, H^2 = 0
    cx = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 4)]]]
    )
    v = dold_kan(cx, truncation=3)
    w = hom_cochain_of_simplicial(v, CoefficientModule.trivial(Ring("Z"), [2]))
    pis = cohomotopy(w, range(3))
    assert pis[0] == G(2) and pis[1] == G(2) and pis[2] == G()


def test_cosimplicial_readers_name_the_degree_and_the_truncation():
    # no degrees is no groups; a degree whose coboundary leaves the
    # truncation is named with it
    from aq.spectral import _tensor_double_complex

    cx = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 4)]]]
    )
    w = hom_cochain_of_simplicial(dold_kan(cx, truncation=3),
                                  CoefficientModule.trivial(Ring("Z"), [2]))
    b = bisimplicial_from_double_complex(
        *_tensor_double_complex(random.Random(1), 2, 2), 3)
    for reader in (lambda d: cohomotopy(w, d),
                   lambda d: hom_bicomplex_total_cohomology(b, [2], d)):
        assert reader([]) == {}
        assert set(reader([2])) == {2}
        with pytest.raises(AlgebraError, match=r"^degree 3 needs level 4, "
                           r"above the truncation 3$"):
            reader([0, 3])


def test_matching_of_em_object():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    em = eilenberg_maclane(x, k, 1, truncation=3)
    kernel = em.kernel_part
    inv, bijective = matching(kernel, 3)
    assert bijective  # level n+2 equals its matching object
    inv2, bij2 = matching(kernel, 2)
    assert not bij2  # level n+1 is strictly bigger than M_{n+1}
    # level 0 has no faces, so M_1 = X_0 x X_0 = 0, smaller than level 1
    assert matching(kernel, 1) == (G(), False)
    assert matching(k_object(G(2), 2, truncation=4), 1) == (G(), True)


def test_matching_and_hom_dual_checks_do_not_depend_on_assert():
    # each input check raises an AlgebraError, under `python -O` (which
    # strips asserts) as well
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = "\n".join([
        "from aq.abgroups import FGAbelianGroup",
        "from aq.algebras import AlgebraError",
        "from aq.presented import Presentation",
        "from aq.rings import CoefficientModule, Ring",
        "from aq.simplicial import PresentedComplex, dold_kan, "
        "hom_cochain_of_simplicial, k_object, matching",
        "def fails(f):",
        "    try:",
        "        f()",
        "    except AlgebraError as exc:",
        "        print(exc)",
        "skew = PresentedComplex([Presentation(2, [[(0, 2), (1, 2)]])], [None])",
        "fails(lambda: matching(dold_kan(skew, truncation=2), 1))",
        "z = k_object(FGAbelianGroup(1), 1, truncation=3)",
        "fails(lambda: matching(z, 2))",
        "z2 = k_object(FGAbelianGroup.from_divisors([2]), 1, truncation=3)",
        "fails(lambda: hom_cochain_of_simplicial(",
        "    z2, CoefficientModule.trivial(Ring('Z'), [2])))",
    ])
    for flags in ([], ["-O"]):
        out = subprocess.run([sys.executable, *flags, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.splitlines() == [
            "matching: a level presentation is not diagonal",
            "matching: a level is infinite",
            "hom_cochain_of_simplicial: the Hom dual needs free levels",
        ], flags


def test_eilenberg_maclane_levels_z2():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    em = eilenberg_maclane(x, k, 1, truncation=3)
    em.check_identities()
    assert em.levels[0].order() == 2          # X
    assert em.levels[1].order() == 4          # K x| X
    assert em.levels[2].order() == 8          # (s0 K + s1 K) x| X
    checks = em_pi_checks(em)
    assert checks["kernel_ok"] and checks["pi0_ok"]


def test_eilenberg_maclane_nontrivial_action():
    x = cyclic_group(2)
    k = XModule(x, FinAb([3]), {"e": [[1]], "a": [[2]]})
    em = eilenberg_maclane(x, k, 1, truncation=3)
    em.check_identities()
    checks = em_pi_checks(em)
    assert checks["kernel_ok"] and checks["pi0_ok"]


def test_eilenberg_maclane_n2():
    x = cyclic_group(2)
    k = XModule.trivial(x, [2])
    em = eilenberg_maclane(x, k, 2, truncation=4)
    em.check_identities()
    checks = em_pi_checks(em)
    assert checks["kernel_ok"] and checks["pi0_ok"]


def test_em_trivial_base_is_plain_k_object():
    x = cyclic_group(1, name="1")
    k = XModule.trivial(x, [3])
    em = eilenberg_maclane(x, k, 1, truncation=3)
    em.check_identities()
    pis = moore_homotopy(em.kernel_part, range(3))
    assert pis[1] == G(3) and pis[0] == G() and pis[2] == G()
def _random_double_complex(rng, smax, tmax):
    # columns: vertical complexes of free modules with zero differentials
    # in alternating degrees; horizontal maps chain maps
    cols = []
    for s in range(smax + 1):
        levels = [Presentation.free(rng.randint(0, 2)) for _ in range(tmax + 1)]
        diffs = [None] + [[[] for _ in range(levels[t].gens)]
                          for t in range(1, tmax + 1)]
        cols.append(PresentedComplex(levels, diffs))
    hdiffs = [None]
    for s in range(1, smax + 1):
        per_degree = []
        for t in range(tmax + 1):
            rows = cols[s - 1].levels[t].gens
            colsn = cols[s].levels[t].gens
            if s % 2 == 1:
                per_degree.append(random_columns(rng, rows, colsn, -2, 2))
            else:
                per_degree.append([[] for _ in range(colsn)])
        hdiffs.append(per_degree)
    return cols, hdiffs


# SHA-256 digest of exact outputs, recorded from the earlier hand-written
# layouts (a horizontal Dold-Kan of its own and a separate Hom
# totalization) while the maps were dense matrices; the shared dold_kan,
# _dk_map and with_coefficients route must reproduce it bit for bit, its
# sparse columns written out densely here
BISIMPLICIAL_DIGEST = (
    "12f589d6b10f5abaa5e66ef96f7632cff3ab16c7de7d172ed5ea7d72572d2672")


def _dense_maps(b, maps, dp, dq):
    """maps[p][q] (a list of maps (p, q) -> (p + dp, q + dq), or None)
    with each map written out as a dense matrix."""
    return [[None if here is None else
             [cols_to_matrix(m, b.levels[p + dp][q + dq].gens) for m in here]
             for q, here in enumerate(row)] for p, row in enumerate(maps)]


def _bisimplicial_digest(seed=2024, trials=40):
    """Levels and all structure maps at truncation 3, and the Hom total
    cohomology with G = Z/2 and Z/3 + Z, of the double complexes that
    bicomplex_checks draws."""
    from aq.spectral import (
        _tensor_double_complex,
        _zero_vertical_double_complex,
    )

    rng = random.Random(seed)
    h = hashlib.sha256()
    for trial in range(trials):
        make = (_tensor_double_complex if trial % 2 == 0
                else _zero_vertical_double_complex)
        b = bisimplicial_from_double_complex(*make(rng, 2, 2), 3)
        h.update(repr((
            [[(p.gens, cols_to_matrix(p.rels, p.gens)) for p in row]
             for row in b.levels],
            _dense_maps(b, b.hfaces, -1, 0), _dense_maps(b, b.vfaces, 0, -1),
            _dense_maps(b, b.hdegens, 1, 0), _dense_maps(b, b.vdegens, 0, 1),
        )).encode())
        for g in ([2], [3, 0]):
            coh = hom_bicomplex_total_cohomology(b, g, range(3))
            h.update(repr(sorted((n, c.to_json())
                                 for n, c in coh.items())).encode())
    return h.hexdigest()


def test_eilenberg_zilber_on_random_bisimplicial(seed=5, trials=6):
    rng = random.Random(seed)
    for _ in range(trials):
        cols, hdiffs = _random_double_complex(rng, 2, 2)
        b = bisimplicial_from_double_complex(cols, hdiffs, truncation=3)
        d = diag(b)
        d.check_identities()
        tc = total_complex(b)
        pis = moore_homotopy(d, range(3))
        hs = tc.homology(range(3))
        assert pis == hs, (pis, hs)
    assert _bisimplicial_digest() == BISIMPLICIAL_DIGEST


def test_diag_constant_direction_collapses():
    # constant in the horizontal direction: diag = the vertical object
    rng = random.Random(7)
    col = PresentedComplex(
        [Presentation.from_moduli([2]), Presentation.free(1)],
        [None, [[(0, 2)]]],
    )
    b = bisimplicial_from_double_complex([col], [None], truncation=3)
    d = diag(b)
    v = dold_kan(col, truncation=3)
    assert moore_homotopy(d, range(3)) == moore_homotopy(v, range(3))


def test_diag_e2_page_resolutions_both_directions():
    # both directions resolve Z/2: pi_0 diag = Z/2
    col0 = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 2)]]]
    )
    col1 = PresentedComplex(
        [Presentation.free(1), Presentation.free(1)], [None, [[(0, 2)]]]
    )
    # horizontal differential (x2, x2) is a chain map between the columns
    hdiffs = [None, [[[(0, 2)]], [[(0, 2)]]]]
    b = bisimplicial_from_double_complex([col0, col1], hdiffs, truncation=3)
    d = diag(b)
    d.check_identities()
    pis = moore_homotopy(d, range(2))
    assert pis[0] == G(2)
    # against the total complex (Eilenberg-Zilber)
    assert total_complex(b).homology(range(2)) == pis
def test_adjointness_identity_on_fixtures(seed=13, trials=4):
    # Tot(Hom(V, G)) vs Hom(diag V, G): total cohomology against the
    # cochain cohomology of the diagonal, computed independently
    rng = random.Random(seed)
    for _ in range(trials):
        cols, hdiffs = _random_double_complex(rng, 2, 2)
        b = bisimplicial_from_double_complex(cols, hdiffs, truncation=3)
        for g in ([2], [0]):
            lhs = hom_bicomplex_total_cohomology(b, g, range(3))
            d = diag(b)
            w = hom_cochain_of_simplicial(
                d, CoefficientModule.trivial(Ring("Z"), g))
            rhs = cohomotopy(w, range(3))
            assert lhs == rhs, (lhs, rhs)
