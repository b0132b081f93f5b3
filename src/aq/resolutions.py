"""Simplicial resolutions and the independent classical oracles.

Module-theory resolutions are produced automatically by iterated kernel
computation.  For group theories the engine generates a canonical
degreewise-free simplicial resolution from the loop group of the nerve
(free on finitely many generators in each degree, correct homotopy type),
and certifies it with the same checks applied to user-supplied fixtures.
"""

from __future__ import annotations

from itertools import product

from .abgroups import FGAbelianGroup, invariants_from_addition
from .algebras import (
    AlgebraError,
    AlgebraMap,
    BudgetExhausted,
    FiniteAlgebra,
    FreeAlgebra,
    enumerate_homs,
    realize_presentation,
)
from .beck import XModule, abelianized_matrix
from .presented import Presentation, cohomology_at
from .rings import (
    CoefficientModule,
    RModulePresentation,
    Ring,
    ext_groups,
    free_resolution,
    r_matrix_to_z,
    tor_groups,
)
from .simplicial import (
    ChainComplex,
    PresentedComplex,
    SimplicialFreeModule,
    SimplicialIdentityError,
    SimplicialTheta,
    dold_kan,
    moore_homotopy,
)
from .terms import App


# ---------------------------------------------------------------------------
# the loop-group resolution of a finite group

def _nerve_face(alg: FiniteAlgebra, tup, j):
    sort = alg.theory.sorts[0]
    k = len(tup)
    if j == 0:
        return tup[1:]
    if j == k:
        return tup[:-1]
    return tup[:j - 1] + (alg.gmul(tup[j - 1], tup[j], sort),) + tup[j + 1:]


def _nerve_degen(alg: FiniteAlgebra, tup, j):
    ident = alg.identity()
    return tup[:j] + (ident,) + tup[j:]


def _gen_name(tup):
    return "t/" + "/".join(tup)


def loop_group_resolution(g: FiniteAlgebra, truncation=2) -> SimplicialTheta:
    """A free simplicial resolution of a finite group: level n is free on
    the (n+1)-tuples of elements with nonidentity first coordinate, with
    the loop-group structure maps

        d_0 t(x) = t(d_1 x) t(d_0 x)^(-1),   d_i t(x) = t(d_{i+1} x),
        s_i t(x) = t(s_{i+1} x),             t(degenerate) = e.
    """
    sort = g.theory.sorts[0]
    ident = g.identity(sort)
    els = list(g.carriers[sort])

    def level_tuples(n):
        return [
            (first,) + rest
            for first in els if first != ident
            for rest in product(els, repeat=n)
        ]

    levels = []
    for n in range(truncation + 1):
        levels.append(FreeAlgebra(
            g.theory, {sort: [_gen_name(t) for t in level_tuples(n)]}
        ))

    def tau(level, tup):
        # image of a nerve simplex in the free level: degenerates die
        if tup[0] == ident:
            return levels[level].zero()
        return levels[level].gen(_gen_name(tup))

    faces = [[]]
    degens = []
    for n in range(truncation + 1):
        if n >= 1:
            fs = []
            for i in range(n + 1):
                images = {}
                for tup in level_tuples(n):
                    if i == 0:
                        w1 = tau(n - 1, _nerve_face(g, tup, 1))
                        w0 = tau(n - 1, _nerve_face(g, tup, 0))
                        images[_gen_name(tup)] = levels[n - 1].mul(
                            w1, levels[n - 1].inv(w0)
                        )
                    else:
                        images[_gen_name(tup)] = tau(
                            n - 1, _nerve_face(g, tup, i + 1)
                        )
                fs.append(AlgebraMap.from_generator_images(
                    levels[n], levels[n - 1], images
                ))
            faces.append(fs)
        if n < truncation:
            ds = []
            for j in range(n + 1):
                images = {
                    _gen_name(tup): tau(n + 1, _nerve_degen(g, tup, j + 1))
                    for tup in level_tuples(n)
                }
                ds.append(AlgebraMap.from_generator_images(
                    levels[n], levels[n + 1], images
                ))
            degens.append(ds)
        else:
            degens.append([])

    aug = AlgebraMap.from_generator_images(
        levels[0], g, {_gen_name((x,)): x for x in els if x != ident}
    )
    v = SimplicialTheta(g.theory, levels, faces, degens, truncation,
                        augmentation=aug)
    v.target = g
    return v


# ---------------------------------------------------------------------------
# abelianized chain complexes of free simplicial algebras

def abelianized_complex(v: SimplicialTheta, over=None):
    """The (relative or absolute) abelianization of a free simplicial
    algebra as a normalized presented complex over Z.

    over=None: coefficients Z (exponent sums).  over=X: coefficients in
    the group ring Z[X] through the structure maps, then restricted to Z.
    Returns (PresentedComplex, ranks, ring).
    """
    sort = v.theory.sorts[0]
    x = over
    ring = Ring("Z") if x is None else Ring("ZG", group=x.group_table(sort))
    zr = ring.zrank()
    augmentations = [None] * (v.truncation + 1)
    if x is not None:
        for n in range(v.truncation + 1):
            augmentations[n] = v.structure_map(n)
    levels = []
    diffs = [None]
    ranks = []
    for n in range(v.truncation + 1):
        rank = len(v.levels[n].generators[sort])
        ranks.append(rank)
        rels = []
        if n >= 1:
            for s in v.degens[n - 1]:
                mat = abelianized_matrix(s, over=augmentations[n])
                for j in range(ranks[n - 1]):
                    # quotient by the submodule generated by the degenerate
                    # image: close the column under the group-ring action
                    basis = ([None] if ring.kind == "Z"
                             else ring.group.elements)
                    for h in basis:
                        col = []
                        for i in range(rank):
                            entry = mat[i][j]
                            if h is not None:
                                entry = ring.mul({h: 1}, entry)
                            col.extend(ring.element_zcol(entry))
                        rels.append(col)
        levels.append(Presentation(
            rank * zr,
            [[c[i] for c in rels] for i in range(rank * zr)] if rels else None,
        ))
        if n >= 1:
            total = None
            for i, face in enumerate(v.faces[n]):
                mat = abelianized_matrix(face, over=augmentations[n - 1])
                zmat = r_matrix_to_z(ring, mat, len(mat),
                                     len(mat[0]) if mat else 0)
                if total is None:
                    total = zmat
                else:
                    sgn = 1 if i % 2 == 0 else -1
                    for r in range(len(zmat)):
                        for c in range(len(zmat[0]) if zmat else 0):
                            total[r][c] += sgn * zmat[r][c]
            diffs.append(total if total is not None else [])
    return PresentedComplex(levels, diffs), ranks, ring


# ---------------------------------------------------------------------------
# resolution certificates

class ResolutionCertificate:
    """Pass/fail record of the four decidable resolution checks; `valid`
    only when all four pass."""

    def __init__(self, target, obj, checks, rng, detail=None):
        self.target = target
        self.object = obj
        self.checks = dict(checks)
        self.range = rng
        self.detail = detail or {}

    @property
    def valid(self):
        return all(self.checks.values())

    def __repr__(self):
        marks = ", ".join(f"{k}={'pass' if ok else 'FAIL'}"
                          for k, ok in self.checks.items())
        return f"ResolutionCertificate({marks})"


def check_certificate(v, x, rng) -> ResolutionCertificate:
    """Run the decidable resolution checks: simplicial identities,
    degreewise freeness, pi_0 recovering the target, and acyclicity of the
    abelianization over the target in degrees 1..rng."""
    if isinstance(v, SimplicialFreeModule):
        return _check_module_certificate(v, x, rng)
    checks = {}
    detail = {}
    try:
        v.check_identities()
        checks["simplicial_identities"] = True
    except SimplicialIdentityError as exc:
        checks["simplicial_identities"] = False
        detail["identity_failure"] = str(exc)
    checks["degreewise_free"] = v.is_free_levelwise()
    checks["pi0"] = _pi0_matches(v, x) if checks["degreewise_free"] else False
    if checks["simplicial_identities"] and checks["degreewise_free"]:
        ok, got = _abelianized_acyclic(v, x, rng)
        checks["abelianized_acyclic"] = ok
        detail["abelianized_homotopy"] = got
    else:
        checks["abelianized_acyclic"] = False
    return ResolutionCertificate(x, v, checks, rng, detail)


def _pi0_matches(v: SimplicialTheta, x) -> bool:
    sort = v.theory.sorts[0]
    lvl0, lvl1 = v.levels[0], v.levels[1]
    gens = lvl0.generators[sort]
    rels = []
    for y in lvl1.generators[sort]:
        d0 = v.faces[1][0].mapping[sort][y]
        d1 = v.faces[1][1].mapping[sort][y]
        rels.append((lvl0.element_to_term(lvl0.mul(d0, lvl0.inv(d1))),
                     App("e", ())))
    try:
        quo = realize_presentation(v.theory, gens, rels,
                                   bound=4 * x.order() + 8)
    except AlgebraError:
        return False
    if quo.order() != x.order():
        return False
    # the augmentation must descend to an isomorphism
    p = v.augmentation
    for h in enumerate_homs(quo, x):
        if not h.is_bijective():
            continue
        if all(
            h.mapping[sort][quo.gen_images[g]] == p.mapping[sort][g]
            for g in gens
        ):
            return True
    return False


def _abelianized_acyclic(v: SimplicialTheta, x, rng):
    if rng + 1 > v.truncation:
        raise AlgebraError("certificate range exceeds the truncation")
    cx, ranks, ring = abelianized_complex(v, over=x)
    got = cx.homology(range(rng + 1))
    expected0 = FGAbelianGroup(x.order() - 1)
    ok = got[0] == expected0 and all(
        got[k].is_trivial() for k in range(1, rng + 1)
    )
    return ok, got


def _check_module_certificate(v: SimplicialFreeModule, module, rng):
    checks = {}
    detail = {}
    realized = v.to_abelian()
    try:
        realized.check_identities()
        checks["simplicial_identities"] = True
    except SimplicialIdentityError as exc:
        checks["simplicial_identities"] = False
        detail["identity_failure"] = str(exc)
    checks["degreewise_free"] = True  # free by construction of the container
    if rng + 1 > v.truncation:
        raise AlgebraError("certificate range exceeds the truncation")
    pis = moore_homotopy(realized, range(rng + 1))
    if isinstance(module, RModulePresentation):
        target_inv = module.invariants()
    else:
        target_inv = module
    checks["pi0"] = pis[0] == target_inv
    checks["abelianized_acyclic"] = all(
        pis[k].is_trivial() for k in range(1, rng + 1)
    )
    detail["abelianized_homotopy"] = pis
    return ResolutionCertificate(module, v, checks, rng, detail)


def resolve_module(module: RModulePresentation, length=4):
    """A free simplicial resolution of a finitely presented module over a
    registered ring, through the Dold-Kan correspondence; the certificate
    holds by construction but is re-checked."""
    ranks, diffs = free_resolution(module, length)
    cx = ChainComplex(module.ring, ranks, diffs)
    v = dold_kan(cx, truncation=length)
    v.resolution_of = module
    return v


# ---------------------------------------------------------------------------
# classical group-cohomology oracles

def bar_cochain_complex(g: FiniteAlgebra, coeff, top):
    """Normalized bar cochain complex computing H^n(G; K) for n <= top."""
    sort = g.theory.sorts[0]
    ident = g.identity(sort)
    els = [x for x in g.carriers[sort] if x != ident]
    act, moduli = _coefficient_data(g, coeff)
    dim = len(moduli)

    def tuples(n):
        return list(product(els, repeat=n))

    levels = []
    index = []
    for n in range(top + 2):
        tt = tuples(n)
        index.append({t: i for i, t in enumerate(tt)})
        levels.append(Presentation.from_moduli(moduli * len(tt)))
    deltas = [None]
    for n in range(1, top + 2):
        src = tuples(n - 1)
        tgt = tuples(n)
        mat = [[0] * (len(src) * dim) for _ in range(len(tgt) * dim)]

        def add_block(row_t, col_t, blk, sign):
            if col_t is None:
                return
            c0 = index[n - 1][col_t] * dim
            r0 = index[n][row_t] * dim
            for a in range(dim):
                for b in range(dim):
                    mat[r0 + a][c0 + b] += sign * blk[a][b]

        ident_blk = [[1 if a == b else 0 for b in range(dim)]
                     for a in range(dim)]
        for t in tgt:
            # (delta f)(g_1..g_n) = g_1 f(g_2..) + sum (-1)^i f(..g_i g_{i+1}..)
            #                      + (-1)^n f(g_1..g_{n-1})
            add_block(t, _norm_tuple(t[1:], ident), act[t[0]], 1)
            for i in range(1, n):
                merged = t[:i - 1] + (g.gmul(t[i - 1], t[i], sort),) + t[i + 1:]
                add_block(t, _norm_tuple(merged, ident), ident_blk,
                          1 if i % 2 == 0 else -1)
            add_block(t, _norm_tuple(t[:-1], ident), ident_blk,
                      1 if n % 2 == 0 else -1)
        deltas.append(mat)
    return levels, deltas


def _norm_tuple(t, ident):
    return None if any(x == ident for x in t) else t


def _coefficient_data(g: FiniteAlgebra, coeff):
    """(action matrices per group element, moduli) from an XModule or a
    CoefficientModule over Z[G]."""
    if isinstance(coeff, XModule):
        return dict(coeff.action), list(coeff.carrier.moduli)
    assert isinstance(coeff, CoefficientModule)
    return dict(coeff.act), list(coeff.moduli)


def bar_resolution_group(g: FiniteAlgebra, coeff, top, budget=10**7):
    """H^n(G; K) for 0 <= n <= top via the normalized bar complex."""
    sort = g.theory.sorts[0]
    size = (len(g.carriers[sort]) - 1) ** (top + 1)
    if size * max(1, len(_coefficient_data(g, coeff)[1])) > budget:
        raise BudgetExhausted("bar complex exceeds budget")
    levels, deltas = bar_cochain_complex(g, coeff, top)
    return [
        cohomology_at(levels, deltas, n).invariants() for n in range(top + 1)
    ]


def factor_set_cohomology(g: FiniteAlgebra, k, n, budget=10**6):
    """H^1 or H^2 of a finite group by explicit cocycle enumeration modulo
    coboundaries.  H^2 enumerates all functions G x G -> K when that fits
    the budget, otherwise the normalized ones (same cohomology)."""
    assert n in (1, 2)
    sort = g.theory.sorts[0]
    els = list(g.carriers[sort])
    ident = g.identity(sort)
    assert isinstance(k, XModule)
    kels = k.elements()
    kc = k.carrier

    if n == 1:
        def is_cocycle(f):
            return all(
                f[(g.gmul(a, b, sort),)] == kc.add(f[(a,)], k.act(a, f[(b,)]))
                for a in els for b in els
            )
        coboundaries = []
        for kv in kels:
            cob = {(a,): kc.sub(k.act(a, kv), kv) for a in els}
            coboundaries.append(tuple(sorted(cob.items())))
        keys = [(a,) for a in els]
    else:
        keys = [(a, b) for a in els for b in els]
        normalized_only = len(kels) ** len(keys) > budget
        if normalized_only:
            keys_free = [(a, b) for a in els for b in els
                         if a != ident and b != ident]
        else:
            keys_free = keys

        def is_cocycle(f):
            # a.f(b,c) - f(ab,c) + f(a,bc) - f(a,b) = 0
            for a in els:
                for b in els:
                    for c in els:
                        lhs = kc.add(
                            k.act(a, f[(b, c)]),
                            f[(a, g.gmul(b, c, sort))],
                        )
                        rhs = kc.add(
                            f[(g.gmul(a, b, sort), c)],
                            f[(a, b)],
                        )
                        if lhs != rhs:
                            return False
            return True

        # normalized cocycles pair with normalized coboundaries (h(e) = 0);
        # the full enumeration needs h(e) free
        coboundaries = []
        if normalized_only:
            h_domains = [e for e in els if e != ident]
        else:
            h_domains = list(els)
        for hvals in product(kels, repeat=len(h_domains)):
            h = {ident: kc.zero()}
            h.update(dict(zip(h_domains, hvals)))
            cob = {}
            for a in els:
                for b in els:
                    cob[(a, b)] = kc.sub(
                        kc.add(k.act(a, h[b]), h[a]),
                        h[g.gmul(a, b, sort)],
                    )
            coboundaries.append(tuple(sorted(cob.items())))
        coboundaries = sorted(set(coboundaries))
        keys = [(a, b) for a in els for b in els]

    # enumerate candidate cochains
    cocycles = []
    if n == 1:
        pools = [kels] * len(keys)
        for combo in product(*pools):
            f = dict(zip(keys, combo))
            if is_cocycle(f):
                cocycles.append(tuple(sorted(f.items())))
    else:
        fixed = {}
        if normalized_only:
            for a in els:
                fixed[(a, ident)] = kc.zero()
                fixed[(ident, a)] = kc.zero()
        free_keys = [kk for kk in keys if kk not in fixed]
        if len(kels) ** len(free_keys) > budget:
            raise BudgetExhausted("factor set enumeration exceeds budget")
        for combo in product(kels, repeat=len(free_keys)):
            f = dict(fixed)
            f.update(dict(zip(free_keys, combo)))
            if is_cocycle(f):
                cocycles.append(tuple(sorted(f.items())))

    def canon_of(z):
        zd = dict(z)
        return min(
            tuple(sorted((kk, kc.sub(zd[kk], dict(cob)[kk])) for kk in zd))
            for cob in coboundaries
        )

    classes = sorted({canon_of(z) for z in cocycles})

    def class_add(z1, z2):
        d1, d2 = dict(z1), dict(z2)
        return canon_of(tuple(sorted(
            (kk, kc.add(d1[kk], d2[kk])) for kk in d1
        )))

    zero = canon_of(tuple(sorted((kk, kc.zero()) for kk in keys)))
    return invariants_from_addition(classes, class_add, zero)


def ext_oracle(module: RModulePresentation, coeff: CoefficientModule, top):
    """Ext over a registered ring by projective resolution (second route)."""
    return ext_groups(module, coeff, top)


def tor_oracle(module: RModulePresentation, coeff: CoefficientModule, top):
    return tor_groups(module, coeff, top)
