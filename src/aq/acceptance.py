"""The acceptance suite: every criterion as a timed, self-contained check
returning a pass/fail record.  `aq accept` and tests/test_acceptance.py
both run these.
"""

from __future__ import annotations

import random
import time
from math import gcd

from .abgroups import FGAbelianGroup
from .algebras import (
    AlgebraError,
    AlgebraMap,
    adjunction_check,
    cyclic_group,
    dihedral_4,
    direct_product,
    find_isomorphism,
    klein_four,
    quaternion_8,
    quotient_by_normal_closure,
    symmetric_3,
    GP,
)
from .beck import (
    XModule,
    classify_group_objects,
    derivations,
    identity_map,
)
from .invariants import cohomology, cohomology_via_em, homology_with_coeffs
from .resolutions import (
    bar_resolution_group,
    check_certificate,
    factor_set_cohomology,
    loop_group_resolution,
    resolve_module,
)
from .rings import CoefficientModule, RModulePresentation, Ring, invariants_naive
from .simplicial import (
    eilenberg_maclane,
    em_pi_checks,
    matching,
    moore_homotopy,
)
from .spectral import (
    GradedModule,
    bicomplex_checks,
    random_columns,
    reverse_adams_e2,
    tor_e2,
    uct_e2,
)


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def _timed(fn):
    start = time.time()
    ok, detail = fn()
    return ok, detail, time.time() - start


# ---------------------------------------------------------------------------
# fixture surjections for the Beck classification

def classification_fixtures(quick=False):
    """(X, [p: Y -> X]) pairs with |Y| <= 8, all surjective."""
    sort = "g"
    out = []

    z2 = cyclic_group(2)
    ps = []
    ps.append(identity_map(z2))
    z4 = cyclic_group(4)
    ps.append(AlgebraMap(z4, z2, {sort: {
        el: ("e" if i % 2 == 0 else "a")
        for i, el in enumerate(z4.carriers[sort])
    }}))
    v4 = klein_four()
    ps.append(AlgebraMap(v4, z2, {sort: {
        el: el.split("|")[0] for el in v4.carriers[sort]
    }}))
    z6 = cyclic_group(6)
    ps.append(AlgebraMap(z6, z2, {sort: {
        el: ("e" if i % 2 == 0 else "a")
        for i, el in enumerate(z6.carriers[sort])
    }}))
    s3 = symmetric_3()

    def sign(label):
        if label == "e":
            return "e"
        perm = tuple(int(c) for c in label[1:])
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if perm[i] > perm[j])
        return "e" if inv % 2 == 0 else "a"

    ps.append(AlgebraMap(s3, z2, {sort: {
        el: sign(el) for el in s3.carriers[sort]
    }}))
    if not quick:
        z8 = cyclic_group(8)
        ps.append(AlgebraMap(z8, z2, {sort: {
            el: ("e" if i % 2 == 0 else "a")
            for i, el in enumerate(z8.carriers[sort])
        }}))
        d4 = dihedral_4()
        ps.append(AlgebraMap(d4, z2, {sort: {
            el: ("a" if el.startswith("s") else "e")
            for el in d4.carriers[sort]
        }}))
        q8 = quaternion_8()
        ps.append(AlgebraMap(q8, z2, {sort: {
            el: ("e" if el in ("e", "m", "i", "mi") else "a")
            for el in q8.carriers[sort]
        }}))
        z2xz4 = direct_product(z2, z4)
        ps.append(AlgebraMap(z2xz4, z2, {sort: {
            el: el.split("|")[0] for el in z2xz4.carriers[sort]
        }}))
    out.append((z2, ps))

    z3 = cyclic_group(3)
    ps3 = [identity_map(z3)]
    z6b = cyclic_group(6)
    z3_els = z3.carriers[sort]
    ps3.append(AlgebraMap(z6b, z3, {sort: {
        el: z3_els[i % 3] for i, el in enumerate(z6b.carriers[sort])
    }}))
    out.append((z3, ps3))

    ps4 = [identity_map(v4)]
    z2cubed = direct_product(direct_product(z2, z2), z2)
    ps4.append(AlgebraMap(z2cubed, v4, {sort: {
        el: el.rsplit("|", 1)[0] for el in z2cubed.carriers[sort]
    }}))
    z4xz2 = direct_product(z4, z2)

    def mod2_first(el):
        first, second = el.split("|")
        parity = "e" if first in ("e", "a2") else "a"
        return f"{parity}|{second}"

    ps4.append(AlgebraMap(z4xz2, v4, {sort: {
        el: mod2_first(el) for el in z4xz2.carriers[sort]
    }}))
    if not quick:
        d4 = dihedral_4()
        quo, proj = quotient_by_normal_closure(d4, ["r2"])
        iso = find_isomorphism(quo, v4)
        ps4.append(iso.compose(proj))
        q8 = quaternion_8()
        quo2, proj2 = quotient_by_normal_closure(q8, ["m"])
        iso2 = find_isomorphism(quo2, v4)
        ps4.append(iso2.compose(proj2))
    out.append((v4, ps4))
    return out


def criterion_1(quick=False):
    def run():
        records = []
        for x, fixtures in classification_fixtures(quick):
            for rec in classify_group_objects(x, fixtures):
                if not rec["match"]:
                    return False, f"mismatch for {rec['Y']} -> {rec['X']}"
                records.append(f"{rec['Y']}->{rec['X']}:{rec['brute_count']}")
        return True, f"structures per fixture: {', '.join(records)}"

    return _timed(run)


def criterion_2(quick=False):
    def run():
        rng = random.Random(20240817)
        targets = [cyclic_group(2), cyclic_group(3), cyclic_group(4),
                   klein_four(), symmetric_3(), cyclic_group(6)]
        for i in range(100):
            n = rng.randint(0, 3)
            gens = [f"t{k}" for k in range(n)]
            b = rng.choice(targets)
            if not adjunction_check(GP, gens, b):
                return False, f"instance {i} failed"
        return True, "100 randomized instances"

    return _timed(run)


# closed-form Ext/Tor over Z and Z/m: the independent second route,
# with invariants extracted by the second (naive) Smith reduction

def _decompose(module: RModulePresentation):
    inv = invariants_naive(module.z_presentation())
    ring = module.ring
    if ring.kind == "Z":
        return [0] * inv.rank + list(inv.torsion)
    # internal invariant: a module over Z/m is killed by m, so finite
    assert inv.rank == 0
    return list(inv.torsion)


def _ext_cyclic(ring, d, e, n):
    """Ext^n(R/(d), R/(e)) componentwise; 0 encodes a free summand."""
    if ring.kind == "Z":
        if d == 0:
            # Hom(Z, N) = N and Ext^{>0}(Z, -) = 0
            return e if n == 0 else 1
        if n == 0:
            return gcd(d, e) if e else 1  # Hom(Z/d, Z) is trivial
        if n == 1:
            return d if e == 0 else gcd(d, e)
        return 1
    m = ring.m
    d = d or m
    e = e or m
    if n == 0:
        return gcd(d, e)
    if d == m:
        return 1
    return gcd(m // d, e) * gcd(d, e) // e


def _tor_cyclic(ring, d, e, n):
    """Tor_n(R/(d), R/(e)) componentwise; 0 encodes a free summand."""
    if ring.kind == "Z":
        if n == 0:
            if d == 0 and e == 0:
                return 0  # Z tensor Z = Z
            if d == 0:
                return e
            if e == 0:
                return d
            return gcd(d, e)
        if n == 1:
            return gcd(d, e) if (d and e) else 1
        return 1
    m = ring.m
    d = d or m
    e = e or m
    if n == 0:
        return gcd(d, e)
    if d == m:
        return 1
    return gcd(d, e) * gcd(m // d, e) // e


def closed_form_ext(module, coeff_moduli, n):
    ring = module.ring
    out = []
    for d in _decompose(module):
        for e in coeff_moduli:
            val = _ext_cyclic(ring, d, e, n)
            if val == 0:
                out.append(0)
            elif val > 1:
                out.append(val)
    return FGAbelianGroup.from_divisors(out)


def closed_form_tor(module, coeff_moduli, n):
    ring = module.ring
    out = []
    for d in _decompose(module):
        for e in coeff_moduli:
            val = _tor_cyclic(ring, d, e, n)
            if val == 0:
                out.append(0)
            elif val > 1:
                out.append(val)
    return FGAbelianGroup.from_divisors(out)


def module_fixture_presentations(ring):
    """<a | 2a>, <a | 3a>, <a | 4a>, <a, b | 2b> over the given ring."""
    out = []
    for name, gens, rel in (
        ("Z2", 1, [2]), ("Z3", 1, [3]), ("Z4", 1, [4]), ("Z+Z2", 2, [0, 2]),
    ):
        if gens == 1:
            cols = [[ring.from_int(rel[0])]]
        else:
            cols = [[ring.from_int(rel[0]), ring.from_int(rel[1])]]
        mod = RModulePresentation(ring, gens, cols)
        mod.name = name
        out.append(mod)
    return out


def _coeff_moduli_over(ring, spec):
    """Carrier moduli of the fixture coefficient over the given ring."""
    if ring.kind == "Z":
        return list(spec)
    m = ring.m
    out = []
    for d in spec:
        d = d or m
        g = gcd(d, m)
        if g > 1:
            out.append(g)
    return out


def criterion_3(quick=False):
    def run():
        top = 4
        for ring in (Ring("Z"), Ring("Zmod", m=4)):
            for y in module_fixture_presentations(ring):
                v = resolve_module(y, length=top + 2)
                cert = check_certificate(v, y, rng=top)
                if not cert.valid:
                    return False, f"certificate failed for {y.name} over {ring}"
                for spec in ([2], [3], [4], [0, 2]):
                    moduli = _coeff_moduli_over(ring, spec)
                    coeff = CoefficientModule.trivial(ring, moduli)
                    hs = cohomology(v, coeff, range(top + 1), certificate=cert)
                    ht = homology_with_coeffs(v, coeff, range(top + 1),
                                              certificate=cert)
                    for n in range(top + 1):
                        want_ext = closed_form_ext(y, moduli, n)
                        want_tor = closed_form_tor(y, moduli, n)
                        if hs[n] != want_ext:
                            return False, (
                                f"H^{n}({y.name};{spec}) over {ring}: "
                                f"{hs[n]} != Ext {want_ext}"
                            )
                        if ht[n] != want_tor:
                            return False, (
                                f"H_{n}({y.name};{spec}) over {ring}: "
                                f"{ht[n]} != Tor {want_tor}"
                            )
        return True, "H^n = Ext^n and H_n = Tor_n for n <= 4, exact"

    return _timed(run)


def criterion_4(quick=False):
    def run():
        for m in (2, 3, 4):
            g = cyclic_group(m)
            v = loop_group_resolution(g, truncation=2)
            cert = check_certificate(v, g, rng=1)
            if not cert.valid:
                return False, f"certificate failed for Z/{m}"
            for moduli in ([2], [3]):
                k = XModule.trivial(g, moduli)
                hs = cohomology(v, k, [0, 1], x=g, certificate=cert)
                ders = derivations(identity_map(g), k)
                if hs[0] != ders.invariants():
                    return False, f"H^0 != Der for Z/{m}, K={moduli}"
                h2 = factor_set_cohomology(g, k, 2)
                if hs[1] != h2:
                    return False, f"H^1 != factor-set H^2 for Z/{m}, K={moduli}"
                bar = bar_resolution_group(g, k, 2)
                if bar[1] != factor_set_cohomology(g, k, 1) or bar[2] != h2:
                    return False, f"oracles disagree for Z/{m}, K={moduli}"
        return True, "H^0 = Der, H^1 = classical H^2; oracles agree"

    return _timed(run)


def criterion_5(quick=False):
    def run():
        group_sizes = (2, 3) if quick else (2, 3, 4)
        for m in group_sizes:
            g = cyclic_group(m)
            v = loop_group_resolution(g, truncation=3)
            for moduli in ([2], [3]):
                k = XModule.trivial(g, moduli)
                hs = cohomology(v, k, [1, 2], x=g)
                em = cohomology_via_em(v, k, [1, 2], x=g)
                for n in (1, 2):
                    if em[n] != hs[n]:
                        return False, f"routes differ: Z/{m}, K={moduli}, n={n}"
        # a nontrivial action fixture
        z2 = cyclic_group(2)
        from .abgroups import FinAb

        k = XModule(z2, FinAb([3]), {"e": [[1]], "a": [[2]]})
        v = loop_group_resolution(z2, truncation=3)
        hs = cohomology(v, k, [1, 2], x=z2)
        em = cohomology_via_em(v, k, [1, 2], x=z2)
        for n in (1, 2):
            if em[n] != hs[n]:
                return False, f"routes differ on the inversion module, n={n}"
        # module-theory fixtures
        ring = Ring("Z")
        y = RModulePresentation.cyclic(ring, 4)
        v = resolve_module(y, length=4)
        coeff = CoefficientModule.trivial(ring, [2])
        hs = cohomology(v, coeff, [1, 2])
        em = cohomology_via_em(v, coeff, [1, 2])
        for n in (1, 2):
            if em[n] != hs[n]:
                return False, f"routes differ on the module fixture, n={n}"
        return True, "cochain and EM routes agree in degrees 1-2"

    return _timed(run)


def criterion_6(quick=False):
    def run():
        from .simplicial import ChainComplex, dold_kan, k_object, normalize_dk

        rng = random.Random(20240817)
        trials = 50 if quick else 200
        done = 0
        while done < trials:
            length = rng.randint(1, 5)
            ranks = [rng.randint(0, 3) for _ in range(length)]
            diffs = [None]
            for n in range(1, length):
                rows, cols = ranks[n - 1], ranks[n]
                diffs.append(random_columns(rng, rows, cols, -5, 5)
                             if n % 2 == 1 else [[] for _ in range(cols)])
            try:
                cx = ChainComplex(Ring("Z"), ranks, diffs)
            except AlgebraError:
                continue
            done += 1
            v = dold_kan(cx)
            if normalize_dk(v) != cx:
                return False, "round trip failed"
        for group, n in ((G(0), 1), (G(2), 1), (G(3), 2), (G(0, 4), 2)):
            v = k_object(group, n, truncation=n + 2)
            pis = moore_homotopy(v, range(n + 2))
            for i in range(n + 2):
                want = group if i == n else G()
                if pis[i] != want:
                    return False, f"pi_{i} K({group},{n}) = {pis[i]}"
        # extended EM objects for n in {1, 2}
        x = cyclic_group(2)
        k = XModule.trivial(x, [2])
        for n in (1, 2):
            em = eilenberg_maclane(x, k, n, truncation=n + 2)
            em.check_identities()
            checks = em_pi_checks(em)
            if not (checks["kernel_ok"] and checks["pi0_ok"]):
                return False, f"EM homotopy prescription fails at n={n}"
            # levels: X below n, K x| X at n, degenerate sum at n+1,
            # matching object at n+2
            if em.levels[n].order() != k.carrier.order() * x.order():
                return False, "EM level n has the wrong order"
            if n >= 1 and em.levels[n - 1].order() != (
                x.order() if n - 1 < n else 0
            ):
                return False, "EM level below n must be X"
            expected_next = k.carrier.order() ** (n + 1) * x.order()
            if em.levels[n + 1].order() != expected_next:
                return False, "EM level n+1 is not the degenerate sum"
            inv, bij = matching(em.kernel_part, n + 2)
            if not bij:
                return False, f"EM level n+2 is not the matching object (n={n})"
        return True, f"{trials} round trips; pi_n(K(A,n)) = A; EM levels as prescribed"

    return _timed(run)


def criterion_7(quick=False):
    def run():
        ring = Ring("Z")
        for y in module_fixture_presentations(ring):
            v = resolve_module(y, length=6)
            coeff = CoefficientModule.trivial(ring, [2])
            hs = cohomology(v, coeff, range(5))
            ht = homology_with_coeffs(v, coeff, range(5))
            h = GradedModule.concentrated(y)
            page = uct_e2(h, coeff, smax=4, tmax=4, cohomology_values=hs)
            if not page.consistent():
                return False, f"UCT page inconsistent for {y.name}"
            tpage = tor_e2(h, coeff, smax=4, tmax=4, homology_values=ht)
            if not tpage.consistent():
                return False, f"Tor page inconsistent for {y.name}"
            ra_h = reverse_adams_e2(GradedModule.concentrated(y), coeff,
                                    "homology", smax=4, comparison=ht)
            ra_c = reverse_adams_e2(GradedModule.concentrated(y), coeff,
                                    "cohomology", smax=4, comparison=hs)
            if not (ra_h.consistent() and ra_c.consistent()):
                return False, f"reverse-Adams collapse fails for {y.name}"
        return True, "two-column exactness and reverse-Adams collapse, exact"

    return _timed(run)


def criterion_8(quick=False):
    def run():
        trials = 10 if quick else 50
        report = bicomplex_checks(trials=trials)
        if not report["all_pass"]:
            return False, str(report)
        return True, (f"{report['eilenberg_zilber_pass']}/{trials} EZ, "
                      f"{report['adjointness_pass']}/{trials} adjointness")

    return _timed(run)


CRITERIA = [
    ("1 Beck classification (brute force = (K, xi) formulas)", criterion_1),
    ("2 adjunction cardinalities (100 randomized)", criterion_2),
    ("3 module-theory AQ = Ext/Tor (Z and Z/4, n <= 4)", criterion_3),
    ("4 group AQ vs classical oracles (H^0 = Der, H^1 = H^2)", criterion_4),
    ("5 cochain route = EM route (degrees 1-2)", criterion_5),
    ("6 Dold-Kan and Moore machinery", criterion_6),
    ("7 spectral pages (UCT/Tor exactness, reverse-Adams collapse)", criterion_7),
    ("8 complete-setting checks (Eilenberg-Zilber, adjointness)", criterion_8),
]


def run_all(quick=False):
    out = []
    for name, fn in CRITERIA:
        ok, detail, seconds = fn(quick)
        out.append({
            "name": name,
            "pass": bool(ok),
            "detail": detail,
            "seconds": round(seconds, 2),
        })
    return out
