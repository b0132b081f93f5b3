"""Andre-Quillen homology and cohomology of algebras over registered
theories, computed on certified simplicial resolutions.

Cohomology runs through the cochain route (cohomotopy of the derivation
cosimplicial group, using the free-level identification Der(F T, K) = K^T)
and, independently, through mapping into extended Eilenberg-MacLane
objects.  Homology is the homotopy of the (relative) abelianization.
"""

from __future__ import annotations

from .algebras import AlgebraError
from .beck import XModule, abelianized_matrix
from .presented import Presentation, Subquotient, cycle_lattice, induced_map
from .resolutions import abelianized_complex
from .rings import CoefficientModule, Ring
from .simplicial import (
    CosimplicialAbelian,
    PresentedComplex,
    SimplicialFreeModule,
    SimplicialTheta,
    _alternating_sum,
    cohomotopy,
    cohomotopy_subquotients,
    moore_homotopy,
)
from .snf import mat_mul, mat_vec


class InvalidCertificate(AlgebraError):
    pass


def _require_valid(cert):
    if cert is not None and not cert.valid:
        raise InvalidCertificate(f"certificate invalid: {cert.checks}")


def _coefficient(k, x=None):
    """The module view of the coefficients matching the coefficient ring
    of the computation: over a base X, integer modules lift to trivial
    group-ring modules; absolutely, a based module degrades to its
    underlying abelian group (the paper's trivial-module reading)."""
    if isinstance(k, XModule):
        if x is None:
            return CoefficientModule.trivial(
                Ring("Z"), list(k.carrier.moduli)
            )
        return k.coefficient_module()
    assert isinstance(k, CoefficientModule)
    if x is not None and k.ring.kind != "ZG":
        ring = Ring("ZG", group=x.group_table(x.theory.sorts[0]))
        return CoefficientModule.trivial(ring, list(k.moduli))
    return k


def _fox_matrices(v: SimplicialTheta, x):
    """Per level n >= 1, per face i, the group-ring Fox matrix of d_i
    (rows index level n-1 generators)."""
    augmentations = [v.structure_map(n) if x is not None else None
                     for n in range(v.truncation + 1)]
    out = [None]
    for n in range(1, v.truncation + 1):
        out.append([
            abelianized_matrix(face, over=augmentations[n - 1])
            for face in v.faces[n]
        ])
    return out


def _degen_fox_matrices(v: SimplicialTheta, x):
    augmentations = [v.structure_map(n) if x is not None else None
                     for n in range(v.truncation + 1)]
    out = []
    for n in range(v.truncation):
        out.append([
            abelianized_matrix(s, over=augmentations[n + 1])
            for s in v.degens[n]
        ])
    out.append([])
    return out


def _level_ranks(v):
    if isinstance(v, SimplicialTheta):
        sort = v.theory.sorts[0]
        return [len(lv.generators[sort]) for lv in v.levels]
    return [lv.gens for lv in v.levels]


def der_cochain(v, k, x=None) -> CosimplicialAbelian:
    """The cosimplicial abelian group n -> Der_{p_n}(V_n, K), with cofaces
    pulled back along the faces (the free-case identification K^T)."""
    coeff = _coefficient(k, x)
    dim = coeff.dim
    ranks = _level_ranks(v)
    levels = [
        Presentation.from_moduli(list(coeff.moduli) * r) for r in ranks
    ]
    if isinstance(v, SimplicialTheta):
        face_mats = _fox_matrices(v, x)
    else:
        face_mats = v.faces
    cofaces = []
    for n in range(v.truncation):
        mats = []
        for i in range(n + 2):
            fox = face_mats[n + 1][i]  # rows: T_n, cols: T_{n+1}
            big = [[0] * (ranks[n] * dim)
                   for _ in range(ranks[n + 1] * dim)]
            for t in range(ranks[n + 1]):
                for j in range(ranks[n]):
                    blk = coeff.act_of(fox[j][t])
                    for a in range(dim):
                        for b in range(dim):
                            big[t * dim + a][j * dim + b] = blk[a][b]
            mats.append(big)
        cofaces.append(mats)
    return CosimplicialAbelian(levels, cofaces, [], v.truncation)


def cohomology(v, k, degrees, x=None, certificate=None):
    """Andre-Quillen cohomology groups through the cochain route."""
    _require_valid(certificate)
    top = max(degrees)
    if top + 1 > v.truncation:
        raise AlgebraError("range needs levels up to degree+1")
    w = der_cochain(v, k, x=x)
    return cohomotopy(w, degrees)


def cohomology_subquotients(v, k, degrees, x=None):
    w = der_cochain(v, k, x=x)
    return cohomotopy_subquotients(w, degrees), w


def _dual_degen_matrices(v, k, x, coeff):
    """Codegeneracy duals s^j: C^n -> C^{n-1} for normalization."""
    dim = coeff.dim
    ranks = _level_ranks(v)
    if isinstance(v, SimplicialTheta):
        degen_mats = _degen_fox_matrices(v, x)
    else:
        degen_mats = v.degens
    out = []
    for n in range(len(ranks)):
        if n == 0:
            out.append([])
            continue
        mats = []
        for j in range(n):
            # s_j: V_{n-1} -> V_n, dual: C^n -> C^{n-1}
            mat = degen_mats[n - 1][j]  # rows: T_n, cols: T_{n-1}
            big = [[0] * (ranks[n] * dim)
                   for _ in range(ranks[n - 1] * dim)]
            for t in range(ranks[n - 1]):
                for jj in range(ranks[n]):
                    blk = coeff.act_of(mat[jj][t])
                    for a in range(dim):
                        for b in range(dim):
                            big[t * dim + a][jj * dim + b] = blk[a][b]
            mats.append(big)
        out.append(mats)
    return out


def cohomology_via_em(v, k, n, x=None, certificate=None):
    """Cohomology as homotopy classes of maps into the extended
    Eilenberg-MacLane object: strict simplicial maps over X (normalized
    cocycles of the derivation complex) modulo path-object homotopies
    (coboundaries of normalized cochains)."""
    _require_valid(certificate)
    if n + 1 > v.truncation:
        raise AlgebraError("degree needs levels up to n+1")
    coeff = _coefficient(k, x)
    w = der_cochain(v, k, x=x)
    duals = _dual_degen_matrices(v, k, x, coeff)
    amb = w.levels[n].gens
    # strict maps: normalized cochains killed by the cochain differential
    stacked = [(duals[n][j], w.levels[n - 1]) for j in range(n)]
    stacked.append((_alternating_sum(w.cofaces[n]), w.levels[n + 1]))
    z_lattice = cycle_lattice(stacked, amb)
    rel_vectors = w.levels[n].rel_columns()
    if n >= 1:
        prev_amb = w.levels[n - 1].gens
        prev_duals = [(duals[n - 1][j], w.levels[n - 2]) for j in range(n - 1)]
        n_lattice = cycle_lattice(prev_duals, prev_amb)
        delta_prev = _alternating_sum(w.cofaces[n - 1])
        for bvec in n_lattice:
            rel_vectors.append(mat_vec(delta_prev, bvec))
    sq = Subquotient(amb, z_lattice, rel_vectors)
    return sq.invariants()


# ---------------------------------------------------------------------------
# homology

def homology(v, degrees, x=None, certificate=None, with_action=False):
    """Homotopy of the (relative) abelianization of a free resolution.

    Group-like theories: values are the homotopy of the Fox-differential
    complex (over Z absolutely, over Z[X] relatively, reported as abelian
    groups, optionally with the X-action on canonical generators).
    Module theories: abelianization is the identity, so this is Moore
    homotopy of the resolution itself."""
    _require_valid(certificate)
    if isinstance(v, SimplicialFreeModule):
        return moore_homotopy(v, degrees)
    cx, ranks, ring = abelianized_complex(v, over=x)
    subq = cx.homology_subquotients(degrees)
    out = {nn: subq[nn].invariants() for nn in degrees}
    if with_action and x is not None:
        actions = {}
        for nn in degrees:
            zr = ring.zrank()
            acts = {}
            for h in ring.group.elements:
                blk = ring.regular_block({h: 1})
                big = [[0] * (ranks[nn] * zr) for _ in range(ranks[nn] * zr)]
                for c in range(ranks[nn]):
                    for a in range(zr):
                        for b in range(zr):
                            big[c * zr + a][c * zr + b] = blk[a][b]
                acts[h] = induced_map(big, subq[nn], subq[nn])
            actions[nn] = acts
        return out, actions
    return out


def _tensored_complex(v, coeff, x=None) -> PresentedComplex:
    """The abelianization tensored with a coefficient module, normalized
    by degeneracy images, as a presented complex."""
    dim = coeff.dim
    ranks = _level_ranks(v)
    if isinstance(v, SimplicialTheta):
        face_mats = _fox_matrices(v, x)
        degen_mats = _degen_fox_matrices(v, x)
    else:
        face_mats = v.faces
        degen_mats = v.degens
    levels = []
    diffs = [None]
    for n in range(v.truncation + 1):
        rels = []
        if n >= 1:
            for s in degen_mats[n - 1]:
                for j in range(ranks[n - 1]):
                    for unit in range(dim):
                        col = [0] * (ranks[n] * dim)
                        for i in range(ranks[n]):
                            blk = coeff.act_of(s[i][j])
                            for a in range(dim):
                                col[i * dim + a] += blk[a][unit]
                        rels.append(col)
        base = Presentation.from_moduli(list(coeff.moduli) * ranks[n])
        allrels = base.rel_columns() + rels
        levels.append(Presentation(
            ranks[n] * dim,
            [[c[i] for c in allrels] for i in range(ranks[n] * dim)]
            if allrels else None,
        ))
        if n >= 1:
            total = None
            for i, fox in enumerate(face_mats[n]):
                big = [[0] * (ranks[n] * dim)
                       for _ in range(ranks[n - 1] * dim)]
                for r in range(ranks[n - 1]):
                    for c in range(ranks[n]):
                        blk = coeff.act_of(fox[r][c])
                        for a in range(dim):
                            for b in range(dim):
                                big[r * dim + a][c * dim + b] = blk[a][b]
                if total is None:
                    total = big
                else:
                    sgn = 1 if i % 2 == 0 else -1
                    for r in range(len(big)):
                        for c in range(len(big[0]) if big else 0):
                            total[r][c] += sgn * big[r][c]
            diffs.append(total)
    return PresentedComplex(levels, diffs)


def homology_with_coeffs(v, g, degrees, x=None, certificate=None):
    """Homology with coefficients: tensor of the abelianization with a
    module over the relevant ring (free levels tensor by the
    generator-product rule), then homotopy."""
    _require_valid(certificate)
    coeff = _coefficient(g, x)
    return _tensored_complex(v, coeff, x=x).homology(degrees)


def tensor_free_generators(gens_t, gens_s):
    """The generator set of F(T) tensor F(S) = F(T x S)."""
    return [f"{a}*{b}" for a in gens_t for b in gens_s]


# ---------------------------------------------------------------------------
# diagram coefficients

def diagram_coefficients(v, nodes, edges, op, degrees, x=None,
                         certificate=None):
    """Pointwise (co)homology for a finite poset diagram of coefficient
    modules, with the induced maps between the values.

    nodes: {name: coefficient}; edges: {(src, dst): matrix} of additive
    equivariant maps between the carriers.  Returns values per node, an
    induced matrix per edge and degree, and a functoriality report for
    composable pairs.
    """
    _require_valid(certificate)
    assert op in ("cohomology", "homology")
    values = {}
    subquots = {}
    for name, coeff in nodes.items():
        if op == "cohomology":
            subq, _ = cohomology_subquotients(v, coeff, degrees, x=x)
        else:
            cx = _tensored_complex(v, _coefficient(coeff, x), x=x)
            subq = cx.homology_subquotients(degrees)
        subquots[name] = subq
        values[name] = {n: subq[n].invariants() for n in degrees}
    ranks = _level_ranks(v)
    induced = {}
    for (src, dst), alpha in edges.items():
        co_s = _coefficient(nodes[src], x)
        co_d = _coefficient(nodes[dst], x)
        per_degree = {}
        for n in degrees:
            big = [[0] * (ranks[n] * co_s.dim)
                   for _ in range(ranks[n] * co_d.dim)]
            for t in range(ranks[n]):
                for a in range(co_d.dim):
                    for b in range(co_s.dim):
                        big[t * co_d.dim + a][t * co_s.dim + b] = alpha[a][b]
            per_degree[n] = induced_map(
                big, subquots[src][n], subquots[dst][n]
            )
        induced[(src, dst)] = per_degree
    functorial = True
    for (a, b) in edges:
        for (bb, c) in edges:
            if bb != b or (a, c) not in edges:
                continue
            co_c = _coefficient(nodes[c], x)
            for n in degrees:
                m1 = induced[(a, b)][n]
                m2 = induced[(b, c)][n]
                m3 = induced[(a, c)][n]
                comp = mat_mul(m2, m1)
                if not _equal_mod_canon(comp, m3, subquots[c][n]):
                    functorial = False
    return {"values": values, "induced": induced, "functorial": functorial}


def _equal_mod_canon(m1, m2, subq: Subquotient):
    mods = [d for d in subq._diag if d != 1]
    if len(m1) != len(m2):
        return False
    for i in range(len(m1)):
        m = mods[i] if i < len(mods) else 0
        for j in range(len(m1[0]) if m1 else 0):
            diff = m1[i][j] - m2[i][j]
            if (diff % m != 0) if m else diff != 0:
                return False
    return True
