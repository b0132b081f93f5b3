"""Andre-Quillen homology and cohomology of algebras over registered
theories, computed on certified simplicial resolutions.

Every coefficient route reads one free complex of the free simplicial
module: Hom into, or tensor with, the coefficients (`with_coefficients`)
of its normalized complex, reduced by unit pivots where only the groups
are asked for.  Cohomology also runs, independently, through mapping into
extended Eilenberg-MacLane objects, on the derivation cosimplicial group
(the free-level identification Der(F T, K) = K^T).  Homology is the
homotopy of the (relative) abelianization.
"""

from __future__ import annotations

from .abgroups import FGAbelianGroup
from .algebras import AlgebraError
from .beck import XModule
from .presented import (
    Presentation,
    Subquotient,
    _apply_columns,
    _composes_to_zero,
    _vectors,
    cohomology_at,
    cohomology_groups,
    common_prime,
    cycle_lattice,
    homology_of_complex,
    induced_map,
)
from .resolutions import abelianized_complex
from .rings import CoefficientModule, Ring, _act_matrix, with_coefficients
from .simplicial import (
    CosimplicialAbelian,
    PresentedComplex,
    _alternating_sum,
    moore_homotopy,
    require_levels,
)
from .snf import cols_to_matrix, mat_mul, rank_mod_p


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
    if not isinstance(k, CoefficientModule):
        raise AlgebraError(
            "coefficients must be an XModule or a CoefficientModule")
    if x is not None and k.ring.kind != "ZG":
        return CoefficientModule.trivial(x.group_ring(x.theory.sorts[0]),
                                         list(k.moduli))
    return k


def der_cochain(v, k, x=None) -> CosimplicialAbelian:
    """The cosimplicial abelian group n -> Der_{p_n}(V_n, K) on every
    generator, with cofaces pulled back along the faces (the free-case
    identification K^T): the derivation complex of the EM route."""
    coeff = _coefficient(k, x)
    ab = v.abelianization(x is not None)
    ranks = ab.ranks
    levels = [Presentation.from_moduli(list(coeff.moduli) * r) for r in ranks]
    face_mats, _ = ab.columns()
    cofaces = [
        [_act_matrix(fox, coeff, range(ranks[n]), range(ranks[n + 1]),
                     dual=True)
         for fox in face_mats[n + 1]]
        for n in range(v.truncation)
    ]
    return CosimplicialAbelian(levels, cofaces, [], v.truncation)


def cohomology(v, k, degrees, x=None, certificate=None):
    """Andre-Quillen cohomology groups through the cochain route: Hom into
    the coefficients of the reduced complex
    (`SimplicialFreeModule.reduced_complex`)."""
    _require_valid(certificate)
    require_levels(v, degrees)
    levels, deltas = with_coefficients(
        *v.abelianization(x is not None).reduced_complex(), _coefficient(k, x),
        max(degrees, default=-1) + 1, dual=True)
    return cohomology_groups(levels, deltas, degrees)


def _dual_degen_matrices(v, x, coeff):
    """Codegeneracy duals s^j: C^n -> C^{n-1} for normalization."""
    ab = v.abelianization(x is not None)
    ranks = ab.ranks
    _, degen_mats = ab.columns()
    # s_j: V_{n-1} -> V_n (rows: T_n), dual: C^n -> C^{n-1}
    return [[]] + [
        [_act_matrix(degen_mats[n - 1][j], coeff, range(ranks[n]),
                     range(ranks[n - 1]), dual=True) for j in range(n)]
        for n in range(1, len(ranks))
    ]


def cohomology_via_em(v, k, degrees, x=None):
    """Cohomology as homotopy classes of maps into the extended
    Eilenberg-MacLane object: strict simplicial maps over X (normalized
    cocycles of the derivation complex) modulo path-object homotopies
    (coboundaries of normalized cochains).  {n: group} for each of
    `degrees`, all read off one derivation complex."""
    degrees = list(degrees)
    require_levels(v, degrees)
    if not degrees:
        return {}
    top = max(degrees)
    coeff = _coefficient(k, x)
    w = der_cochain(v, k, x=x)
    duals = _dual_degen_matrices(v, x, coeff)
    deltas = [_alternating_sum(cofaces) for cofaces in w.cofaces[:top + 1]]
    p = common_prime(list(coeff.moduli))
    if p and all(_composes_to_zero(deltas[n], deltas[n - 1], p)
                 for n in degrees if n >= 1):
        return _em_groups_mod_p(w.levels, duals, deltas, degrees, p)
    out = {}
    for n in degrees:
        amb = w.levels[n].gens
        # strict maps: normalized cochains killed by the cochain differential
        stacked = [(duals[n][j], w.levels[n - 1]) for j in range(n)]
        stacked.append((deltas[n], w.levels[n + 1]))
        z_lattice = cycle_lattice(stacked, amb)
        rel_vectors = _vectors(w.levels[n].rels, amb)
        if n >= 1:
            prev_amb = w.levels[n - 1].gens
            prev_duals = [(duals[n - 1][j], w.levels[n - 2])
                          for j in range(n - 1)]
            for bvec in cycle_lattice(prev_duals, prev_amb):
                rel_vectors.append(_apply_columns(deltas[n - 1], bvec, amb))
        out[n] = Subquotient(amb, z_lattice, rel_vectors).invariants()
    return out


def _em_groups_mod_p(levels, duals, deltas, degrees, p):
    """The EM route's groups when every level is (Z/p)^g and the
    coboundaries square to zero: with S_n the codegeneracy duals out of
    level n stacked, and r the rank mod p,
    dim H^n = g_n - r(S_n; delta^n) - (r(S_{n-1}; delta^{n-1}) - r(S_{n-1})),
    the normalized cocycles less the image of the normalized cochains."""
    ranks = {}

    def rank(n, with_delta):
        if (n, with_delta) not in ranks:
            maps = duals[n] + ([deltas[n]] if with_delta else [])
            below = levels[n - 1].gens if n else 0
            ranks[n, with_delta] = rank_mod_p(
                [[(r + j * below, x) for j, m in enumerate(maps)
                  for r, x in m[c]] for c in range(levels[n].gens)], p)
        return ranks[n, with_delta]

    out = {}
    for n in degrees:
        dim = levels[n].gens - rank(n, True)
        if n >= 1:
            dim -= rank(n - 1, True) - rank(n - 1, False)
        out[n] = FGAbelianGroup(0, [p] * dim)
    return out


# ---------------------------------------------------------------------------
# homology

def homology(v, degrees, x=None, certificate=None, with_action=False):
    """Homotopy of the (relative) abelianization of a free resolution:
    over Z absolutely, over Z[X] relatively, reported as abelian groups,
    optionally with the X-action on canonical generators.  A free
    simplicial module is its own abelianization, so for a module
    resolution this is its Moore homotopy.  Degrees that a valid
    certificate of the same abelianization read are taken from it."""
    _require_valid(certificate)
    require_levels(v, degrees)
    if not with_action or x is None:
        ab = v.abelianization(x is not None)
        # the certificate read the abelianization of its object over X
        pis = (certificate.detail["abelianized_homotopy"]
               if certificate is not None and certificate.object is v
               and v.abelianization(True) is ab else {})
        if degrees and all(n in pis for n in degrees):
            return {n: pis[n] for n in degrees}
        return moore_homotopy(ab, degrees)
    # the action is read in the canonical coordinates of the unreduced
    # complex, so its matrices stay those of the whole normalized complex
    cx, ranks, ring = abelianized_complex(v, over=x)
    subq = cx.homology_subquotients(degrees)
    out = {nn: subq[nn].invariants() for nn in degrees}
    actions = {}
    for nn in degrees:
        dim = len(subq[nn].canonical_generators())
        acts = {}
        for h in ring.group.elements:
            blk = _block_diagonal(ring.regular_block({h: 1}), ranks[nn])
            acts[h] = cols_to_matrix(induced_map(blk, subq[nn], subq[nn]), dim)
        actions[nn] = acts
    return out, actions


def _block_diagonal(block, copies):
    """Sparse columns of the block-diagonal map with `copies` copies of
    the dense matrix `block` on its diagonal."""
    rows, cols = len(block), len(block[0]) if block else 0
    return [[(c * rows + a, block[a][b]) for a in range(rows) if block[a][b]]
            for c in range(copies) for b in range(cols)]


def homology_with_coeffs(v, g, degrees, x=None, certificate=None):
    """Homology with coefficients: the reduced complex
    (`SimplicialFreeModule.reduced_complex`) tensored with a module over
    its ring (free levels tensor by the generator-product rule), then
    homology."""
    _require_valid(certificate)
    require_levels(v, degrees)
    levels, bnds = with_coefficients(
        *v.abelianization(x is not None).reduced_complex(), _coefficient(g, x),
        max(degrees, default=-1) + 1)
    return PresentedComplex(levels, bnds).homology(degrees)


def tensor_free_generators(gens_t, gens_s):
    """The generator set of F(T) tensor F(S) = F(T x S)."""
    return [f"{a}*{b}" for a in gens_t for b in gens_s]


# ---------------------------------------------------------------------------
# diagram coefficients

def diagram_coefficients(v, nodes, edges, op, degrees, x=None):
    """Pointwise (co)homology for a finite poset diagram of coefficient
    modules, with the induced maps between the values.

    nodes: {name: coefficient}; edges: {(src, dst): matrix} of additive
    equivariant maps between the carriers.  Returns values per node, an
    induced matrix per edge and degree, and a functoriality report for
    composable pairs.
    """
    if op not in ("cohomology", "homology"):
        raise AlgebraError(
            f"diagram coefficients: op must be cohomology or homology, not {op!r}")
    require_levels(v, degrees)
    # induced maps are read in the canonical coordinates of the
    # unreduced complex, as the X-action on homology is
    ranks, diffs = v.abelianization(x is not None).normalized_complex()
    top = max(degrees, default=-1) + 1
    values = {}
    subquots = {}
    for name, coeff in nodes.items():
        levels, maps = with_coefficients(ranks, diffs, _coefficient(coeff, x),
                                         top, dual=op == "cohomology")
        if op == "cohomology":
            subq = {n: cohomology_at(levels, maps, n) for n in degrees}
        else:
            subq = homology_of_complex(levels, maps, degrees)
        subquots[name] = subq
        values[name] = {n: subq[n].invariants() for n in degrees}
    induced = {}
    for (src, dst), alpha in edges.items():
        co_s = _coefficient(nodes[src], x)
        co_d = _coefficient(nodes[dst], x)
        if len(alpha) != co_d.dim or any(len(r) != co_s.dim for r in alpha):
            raise AlgebraError(f"diagram coefficients: the map of edge "
                               f"{src} -> {dst} is not {co_d.dim} x {co_s.dim}")
        per_degree = {}
        for n in degrees:
            target = subquots[dst][n]
            per_degree[n] = cols_to_matrix(
                induced_map(_block_diagonal(alpha, ranks[n]),
                            subquots[src][n], target),
                len(target.canonical_generators()))
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
    mods = subq.moduli()
    if len(m1) != len(m2):
        return False
    for i in range(len(m1)):
        m = mods[i] if i < len(mods) else 0
        for j in range(len(m1[0]) if m1 else 0):
            diff = m1[i][j] - m2[i][j]
            if (diff % m != 0) if m else diff != 0:
                return False
    return True
