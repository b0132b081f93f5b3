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
from .beck import XModule
from .presented import Presentation, cohomology_at
from .rings import (
    CoefficientModule,
    RModulePresentation,
    ext_groups,
    free_resolution,
    tor_groups,
)
from .simplicial import (
    ChainComplex,
    SimplicialFreeModule,
    SimplicialIdentityError,
    SimplicialTheta,
    _normalized_quotient,
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
    algebra as a normalized presented complex over Z, for the `--over`
    action route, which reads canonical coordinates on it.

    over=None: coefficients Z (exponent sums).  over=X: coefficients in
    the group ring Z[X] through the structure maps, then restricted to Z.
    The abelianization is a free simplicial module (`abelianization`), so
    this is its normalized complex (`_normalized_quotient`).  Returns
    (PresentedComplex, ranks, ring), ranks the generator counts per level
    of that complex.
    """
    ab = v.abelianization(over is not None)
    cx, cells = _normalized_quotient(ab, v.truncation)
    return cx, [len(c) for c in cells], ab.ring


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
    """Run the decidable resolution checks on a free simplicial algebra or
    module `v` over the target `x`: simplicial identities, degreewise
    freeness, pi_0 recovering the target, and acyclicity in degrees
    1..rng of the abelianization over the target (a free simplicial
    module is its own).  Where the identities and freeness hold, and a
    group resolution has an augmentation, the Moore homotopy of that
    abelianization through degree rng is kept in
    detail["abelianized_homotopy"]."""
    module = isinstance(v, SimplicialFreeModule)
    checks = {}
    detail = {}
    try:
        v.check_identities()
        checks["simplicial_identities"] = True
    except SimplicialIdentityError as exc:
        checks["simplicial_identities"] = False
        detail["identity_failure"] = str(exc)
    checks["degreewise_free"] = v.is_free_levelwise()
    # pi_0 of a group resolution by Todd-Coxeter, of a module's from H_0
    checks["pi0"] = not module and checks["degreewise_free"] \
        and _pi0_matches(v, x)
    checks["abelianized_acyclic"] = False
    if checks["simplicial_identities"] and checks["degreewise_free"] \
            and (module or v.augmentation is not None):
        pis = moore_homotopy(v.abelianization(True), range(rng + 1))
        detail["abelianized_homotopy"] = pis
        acyclic = all(pis[k].is_trivial() for k in range(1, rng + 1))
        if module:
            checks["pi0"] = pis[0] == x.invariants()
        else:
            # H_0 over X is the augmentation ideal, free on X minus e
            acyclic = acyclic and pis[0] == FGAbelianGroup(x.order() - 1)
        checks["abelianized_acyclic"] = acyclic
    return ResolutionCertificate(x, v, checks, rng, detail)


def _pi0_matches(v: SimplicialTheta, x) -> bool:
    if v.augmentation is None:
        return False
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
    """Normalized bar cochain complex computing H^n(G; K) for n <= top:
    its levels and its coboundaries as sparse columns."""
    sort = g.theory.sorts[0]
    ident = g.identity(sort)
    els = [x for x in g.carriers[sort] if x != ident]
    act, moduli = _coefficient_data(coeff)
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
        # one {row: entry} dict per column, summed over the terms of delta
        cols = [{} for _ in range(len(src) * dim)]

        def add_block(row_t, col_t, blk, sign):
            if col_t is None:
                return
            c0 = index[n - 1][col_t] * dim
            r0 = index[n][row_t] * dim
            for b in range(dim):
                col = cols[c0 + b]
                for a in range(dim):
                    if blk[a][b]:
                        col[r0 + a] = col.get(r0 + a, 0) + sign * blk[a][b]

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
        deltas.append([[(i, x) for i, x in sorted(col.items()) if x]
                       for col in cols])
    return levels, deltas


def _norm_tuple(t, ident):
    return None if any(x == ident for x in t) else t


def _coefficient_data(coeff):
    """(action matrices per group element, moduli) from an XModule or a
    CoefficientModule over Z[G]."""
    if isinstance(coeff, XModule):
        return dict(coeff.action), list(coeff.carrier.moduli)
    if not isinstance(coeff, CoefficientModule):
        raise AlgebraError(
            "group coefficients must be an XModule or a CoefficientModule")
    return dict(coeff.act), list(coeff.moduli)


def bar_resolution_group(g: FiniteAlgebra, coeff, top, budget=10**7):
    """H^n(G; K) for 0 <= n <= top via the normalized bar complex."""
    sort = g.theory.sorts[0]
    size = (len(g.carriers[sort]) - 1) ** (top + 1)
    cells = size * max(1, len(_coefficient_data(coeff)[1]))
    if cells > budget:
        raise BudgetExhausted(f"bar complex: {cells} cells, limit {budget}")
    levels, deltas = bar_cochain_complex(g, coeff, top)
    return [
        cohomology_at(levels, deltas, n).invariants() for n in range(top + 1)
    ]


def factor_set_cohomology(g: FiniteAlgebra, k, n, budget=10**6):
    """H^1 or H^2 of a finite group from the definition: cocycles modulo
    coboundaries.  The cocycles are found by a depth-first search over
    cochains that checks each cocycle equation as soon as its last entry is
    set.  H^2 searches all functions G x G -> K when |K|^(|G|^2) fits the
    budget, otherwise the normalized ones (same cohomology).  The budget
    counts search nodes and coboundary candidates."""
    if n not in (1, 2):
        raise AlgebraError(f"factor-set cohomology needs degree 1 or 2, not {n}")
    if not isinstance(k, XModule):
        raise AlgebraError("factor-set cohomology needs an XModule")
    sort = g.theory.sorts[0]
    els = list(g.carriers[sort])
    kels = k.elements()
    gi = {x: i for i, x in enumerate(els)}
    ki = {v: i for i, v in enumerate(kels)}
    G, K, N = range(len(els)), range(len(kels)), len(els)
    e, zero = gi[g.identity(sort)], ki[k.zero()]
    mul = [[gi[g.gmul(a, b, sort)] for b in els] for a in els]
    add = [[ki[k.carrier.add(u, v)] for v in kels] for u in kels]
    sub = [[ki[k.carrier.sub(u, v)] for v in kels] for u in kels]
    act = [[ki[k.act(a, v)] for v in kels] for a in els]
    used = 0

    def spend(count, stage):
        nonlocal used
        used += count
        if used > budget:
            raise BudgetExhausted(
                f"factor-set H^{n} {stage}: {used} nodes used, limit {budget}")

    # a cochain is a list of module indices, one slot per key: a for (a,),
    # N*a + b for (a, b); slot `nk` holds a constant 0, so that every
    # cocycle equation reads a.f(s1) + f(s2) == f(s3) + f(s4)
    nk = N ** n
    fixed = set()
    if n == 1:
        equations = [(a, b, a, mul[a][b], nk) for a in G for b in G]
        spend(len(kels), "coboundaries")
        coboundaries = {tuple(sub[act[a][h]][h] for a in G) for h in K}
    else:
        if len(kels) ** nk > budget:
            fixed = {N * a + e for a in G} | {N * e + a for a in G}
        equations = [(a, N * b + c, N * a + mul[b][c], N * mul[a][b] + c,
                      N * a + b) for a in G for b in G for c in G]
        h_free = [a for a in G if a != e or not fixed]
        spend(len(kels) ** len(h_free), "coboundaries")
        coboundaries = set()
        for vals in product(K, repeat=len(h_free)):
            h = [zero] * N
            for a, v in zip(h_free, vals):
                h[a] = v
            coboundaries.add(tuple(sub[add[act[a][h[b]]][h[a]]][h[mul[a][b]]]
                                   for a in G for b in G))

    free = [s for s in range(nk) if s not in fixed]
    step = {s: i for i, s in enumerate(free)}
    # checks[i + 1] holds the equations whose last free entry is free[i];
    # checks[0] those with no free entry
    checks = [[] for _ in range(len(free) + 1)]
    for eq in equations:
        checks[1 + max(step.get(s, -1) for s in eq[1:])].append(eq)
    f = [zero] * (nk + 1)
    cocycles = []

    def holds(eqs):
        return all(add[act[a][f[s1]]][f[s2]] == add[f[s3]][f[s4]]
                   for a, s1, s2, s3, s4 in eqs)

    # depth-first over the free entries; tried[i] counts the values tried
    # for free[i] (a loop, not a recursive closure, which would be a
    # reference cycle)
    tried = [0] if holds(checks[0]) else []
    while tried:
        i = len(tried) - 1
        if i == len(free):
            cocycles.append(tuple(f[:nk]))
            tried.pop()
        elif tried[i] == len(K):
            tried.pop()
        else:
            spend(1, "cocycle search")
            f[free[i]] = tried[i]
            tried[i] += 1
            if holds(checks[i + 1]):
                tried.append(0)

    # each class is the coset z + B of its first cocycle z
    rep = {}
    for z in cocycles:
        if z not in rep:
            for b in coboundaries:
                rep[tuple(sub[x][y] for x, y in zip(z, b))] = z

    def class_add(z1, z2):
        return rep[tuple(add[x][y] for x, y in zip(z1, z2))]

    return invariants_from_addition(sorted(set(rep.values())), class_add,
                                    rep[(zero,) * nk])


def ext_oracle(module: RModulePresentation, coeff: CoefficientModule, top):
    """Ext over a registered ring by projective resolution (second route)."""
    return ext_groups(module, coeff, top)


def tor_oracle(module: RModulePresentation, coeff: CoefficientModule, top):
    return tor_groups(module, coeff, top)
