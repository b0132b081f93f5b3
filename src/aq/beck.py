"""Beck modules over a fixed algebra: modules, derivations, semidirect
products, the classification of group objects in the slice category, and
abelianization of free algebras (with its Fox-derivative functoriality).
"""

from __future__ import annotations

from itertools import product

from .abgroups import FGAbelianGroup, FinAb, _factor, invariants_from_addition
from .algebras import (
    DEFAULT_BUDGET,
    GP,
    AB,
    AlgebraMap,
    AlgebraError,
    BudgetExhausted,
    FiniteAlgebra,
    FreeAlgebra,
    enumerate_homs,
)
from .rings import CoefficientModule, Ring
from .snf import identity_matrix, mat_mul
from .theories import abelianization_theory, module_theory


class XModule:
    """A module over a finite algebra X of a group-like theory: a finite
    abelian carrier with an action of (the underlying group of) X by
    additive automorphisms.  The per-operation action maps required by the
    slice-category picture are exposed through `f_hat`.
    """

    def __init__(self, base: FiniteAlgebra, carrier: FinAb, action=None,
                 name=None):
        self.base = base
        self.carrier = carrier
        self.name = name or "K"
        self.sort = base.theory.sorts[0]
        els = base.carriers[self.sort]
        if action is None:
            ident = identity_matrix(len(carrier.moduli))
            action = {x: ident for x in els}
        self.action = {x: [list(r) for r in action[x]] for x in els}
        kels = carrier.elements()
        # x -> {k: x.k}, read by `act` and the module-law checks
        self._acts = {
            x: {el: carrier.apply_matrix(mat, el) for el in kels}
            for x, mat in self.action.items()
        }
        self._validate(kels)

    def _validate(self, kels):
        acts = self._acts
        one = acts[self.base.identity(self.sort)]
        if any(one[el] != el for el in kels):
            raise AlgebraError("identity of X must act trivially")
        for x in self.base.carriers[self.sort]:
            ax = acts[x]
            for y in self.base.carriers[self.sort]:
                ay, axy = acts[y], acts[self.base.gmul(x, y, self.sort)]
                if any(ax[ay[el]] != axy[el] for el in kels):
                    raise AlgebraError("X-action must be multiplicative")
        if self.base.theory.strength_flag:
            # over an abelian theory every module action is forced trivial
            for x in self.base.carriers[self.sort]:
                if any(acts[x][el] != el for el in kels):
                    raise AlgebraError(
                        "modules over an abelian theory have trivial action"
                    )

    @classmethod
    def trivial(cls, base, moduli):
        return cls(base, FinAb(moduli))

    def act(self, x, el):
        return self._acts[x][el]

    def zero(self):
        return self.carrier.zero()

    def elements(self):
        return self.carrier.elements()

    def invariants(self) -> FGAbelianGroup:
        return self.carrier.invariants()

    def is_trivial_action(self):
        return all(
            self.act(x, el) == el
            for x in self.base.carriers[self.sort]
            for el in self.carrier.elements()
        )

    def f_hat(self, op, x_tuple):
        """The additive map f_hat(-, x): a function on carrier tuples."""
        opdecl = self.base.theory.op_index[op]
        mul, inv, unit = self.base.group_ops(self.sort)
        if op == mul:
            x1, _ = x_tuple
            return lambda ks: self.carrier.add(ks[0], self.act(x1, ks[1]))
        if op == inv:
            (x,) = x_tuple
            xinv = self.base.ginv(x, self.sort)
            return lambda ks: self.carrier.neg(self.act(xinv, ks[0]))
        if op == unit:
            return lambda ks: self.zero()
        raise AlgebraError(f"no module action for op {op!r}")

    def coefficient_module(self) -> CoefficientModule:
        """The group-ring-module view over Z[VX]."""
        return CoefficientModule(self.base.group_ring(self.sort),
                                 list(self.carrier.moduli), self.action)

    def module_isomorphisms(self, other):
        """All additive X-equivariant bijections self -> other."""
        if self.carrier.invariants() != other.carrier.invariants():
            return []
        if self.carrier.order() > 8:
            raise AlgebraError("additive bijection search limited to order <= 8")
        out = []
        for phi in _bijection_candidates(other.elements(), other.carrier.add,
                                         other.zero(), self.carrier):
            if all(
                phi[self.act(x, el)] == other.act(x, phi[el])
                for x in self.base.carriers[self.sort]
                for el in self.carrier.elements()
            ):
                out.append(phi)
        return out

    def __repr__(self):
        return f"XModule({self.name}: {self.invariants()} over {self.base.name})"


class Derivation:
    """A product-preserving function into a module satisfying the
    derivation identity with respect to a structure map p: Y -> X."""

    def __init__(self, p: AlgebraMap, module: XModule, values, check=True):
        self.p = p
        self.module = module
        self.values = dict(values)
        if check and not p.source.is_free() and not self.is_derivation():
            raise AlgebraError("derivation identity fails")

    def __call__(self, y):
        return self.values[y]

    def is_derivation(self):
        y_alg = self.p.source
        k = self.module
        sort = k.sort
        mul, inv, unit = y_alg.group_ops(sort)
        pm = self.p.mapping[sort]
        for op in (mul, inv, unit):
            decl = y_alg.theory.op_index[op]
            for tup in product(*(y_alg.carriers[s] for s in decl.args)):
                lhs = self.values[y_alg.apply(op, tup)]
                fh = k.f_hat(op, tuple(pm[y] for y in tup))
                rhs = fh(tuple(self.values[y] for y in tup))
                if lhs != rhs:
                    return False
        # remaining ops (module-theory actions etc.) have no Beck action
        return True

    def key(self):
        return tuple(sorted(self.values.items()))


class DerivationGroup:
    """Der_p(Y, K) with its pointwise abelian group structure."""

    def __init__(self, p, module, derivations):
        self.p = p
        self.module = module
        self.derivations = derivations

    def __len__(self):
        return len(self.derivations)

    def __iter__(self):
        return iter(self.derivations)

    def add(self, d1: Derivation, d2: Derivation) -> Derivation:
        k = self.module.carrier
        vals = {y: k.add(d1.values[y], d2.values[y]) for y in d1.values}
        return Derivation(self.p, self.module, vals, check=False)

    def zero(self):
        z = self.module.zero()
        return Derivation(
            self.p, self.module, {y: z for y in self.derivations[0].values},
            check=False,
        )

    def invariants(self) -> FGAbelianGroup:
        if not self.derivations:
            return FGAbelianGroup()
        keys = {d.key(): d for d in self.derivations}
        return invariants_from_addition(
            list(keys),
            lambda a, b: self.add(keys[a], keys[b]).key(),
            self.zero().key(),
        )


def derivations(p: AlgebraMap, k: XModule) -> DerivationGroup:
    """All derivations Y -> K with respect to p.

    Free Y: every generator assignment (the free-case identification).
    Finite Y: generator-driven enumeration, each candidate re-checked
    against the full derivation identity.
    """
    y_alg = p.source
    sort = k.sort
    if y_alg.is_free():
        gens = y_alg.generators[sort]
        out = []
        for combo in product(k.elements(), repeat=len(gens)):
            out.append(Derivation(p, k, dict(zip(gens, combo)), check=False))
        return DerivationGroup(p, k, out)

    gens, expr = y_alg.expressions(sort)
    pm = p.mapping[sort]
    ident = y_alg.identity(sort)
    out = []
    steps = 0
    for combo in product(k.elements(), repeat=len(gens)):
        steps += y_alg.order()
        if steps > DEFAULT_BUDGET:
            raise BudgetExhausted("derivation search budget exhausted")
        assign = dict(zip(gens, combo))
        vals = {ident: k.zero()}
        for el in y_alg.carriers[sort]:
            acc = k.zero()
            prefix = ident
            for g in expr[el]:
                # xi(prefix * g) = xi(prefix) + p(prefix) . xi(g)
                acc = k.carrier.add(acc, k.act(pm[prefix], assign[g]))
                prefix = y_alg.gmul(prefix, g, sort)
            vals[el] = acc
        cand = Derivation(p, k, vals, check=False)
        if cand.is_derivation():
            out.append(cand)
    return DerivationGroup(p, k, out)


def identity_map(x: FiniteAlgebra) -> AlgebraMap:
    return AlgebraMap(
        x, x, {s: {el: el for el in x.carriers[s]} for s in x.theory.sorts},
        check=False,
    )


# ---------------------------------------------------------------------------
# semidirect products

def _pair_label(klabel, xlabel):
    return f"{klabel}|{xlabel}"


def _k_label(el):
    return "0" if not any(el) else "k" + ".".join(str(c) for c in el)


class SemidirectProduct(FiniteAlgebra):
    """K semidirect X, with `pair_of`/`label_of` between its element labels
    and the pairs (k, x), and `xmodule` K over `base` X."""

    @property
    def projection(self):
        """The projection onto X, built on each use: kept as an attribute,
        the map would point back at the product, and that cycle keeps the
        product's tables alive until the cyclic garbage collector runs."""
        return AlgebraMap(
            self, self.base,
            {self.xmodule.sort: {lab: xe for lab, (_, xe) in self.pair_of.items()}},
            check=False,
        )


def semidirect_product(k: XModule, x: FiniteAlgebra, name=None, validate=True):
    """K semidirect X with tables (f(k, x), X(f)(x)), as a
    SemidirectProduct; its projection and its zero section are checked to
    be homomorphisms.

    The multiplication (k1, x1)(k2, x2) = (k1 + x1.k2, x1 x2) is read from
    three tables indexed by element position, K's addition (|K|^2 adds),
    the action x.k and X's multiplication, and written in the key order
    of product(pairs, repeat=2).  The other operations apply f_hat once
    per X-tuple.

    The action invariants were checked at XModule construction; with
    validate=True the product's tables are re-checked against the theory
    equations exhaustively (cubic in the order, so large Eilenberg-MacLane
    levels pass validate=False and rely on the module laws).
    """
    if k.base is not x and k.base.carriers != x.carriers:
        raise AlgebraError(
            f"semidirect_product: the coefficients {k.name} are over "
            f"{k.base.name}, not over {x.name}")
    sort = k.sort
    kels = k.elements()
    xels = x.carriers[sort]
    labels = {
        (ke, xe): _pair_label(_k_label(ke), xe)
        for ke in kels for xe in xels
    }
    pairs = list(labels)
    carrier = [labels[pk] for pk in pairs]
    mul = x.group_ops(sort)[0]
    tables = {}
    for op in x.theory.ops:
        if op.name == mul:
            tables[mul] = _semidirect_mul(k, x, kels, xels, labels)
            continue
        # f_hat(-, xs) and X(f)(xs) depend on the X-tuple alone
        per_x = {
            xs: (k.f_hat(op.name, xs), x.apply(op.name, xs))
            for xs in product(xels, repeat=len(op.args))
        }
        tab = {}
        for tup in product(pairs, repeat=len(op.args)):
            fh, xres = per_x[tuple(t[1] for t in tup)]
            res = (fh(tuple(t[0] for t in tup)), xres)
            tab[tuple(labels[t] for t in tup)] = labels[res]
        tables[op.name] = tab
    sd = SemidirectProduct(
        x.theory, name or f"{k.name}:{x.name}", {sort: carrier}, tables,
        validate=validate,
    )
    sd.pair_of = {v: pk for pk, v in labels.items()}
    sd.label_of = labels
    sd.xmodule = k
    sd.base = x
    zero_section = AlgebraMap(
        x, sd, {sort: {xe: labels[(k.carrier.zero(), xe)] for xe in xels}},
        check=False,
    )
    if not (sd.projection.is_homomorphism()
            and zero_section.is_homomorphism()):
        raise AlgebraError("not a homomorphism")
    return sd


def _semidirect_mul(k: XModule, x: FiniteAlgebra, kels, xels, labels):
    """The table of (k1, x1)(k2, x2) = (k1 + x1.k2, x1 x2) on the labels
    of the pairs, keys in the order of product(pairs, repeat=2)."""
    kpos = {ke: i for i, ke in enumerate(kels)}
    xpos = {xe: j for j, xe in enumerate(xels)}
    add = [[kpos[k.carrier.add(a, b)] for b in kels] for a in kels]
    act = {xe: [kpos[k.act(xe, ke)] for ke in kels] for xe in xels}
    xmul = {x1: [xpos[x.gmul(x1, x2, k.sort)] for x2 in xels] for x1 in xels}
    # lab[i][j]: the label of (kels[i], xels[j])
    lab = [[labels[(ke, xe)] for xe in xels] for ke in kels]
    xidx = range(len(xels))
    tab = {}
    for i1, row1 in enumerate(lab):
        add1 = add[i1]
        for j1, x1 in enumerate(xels):
            left, act1, prod1 = row1[j1], act[x1], xmul[x1]
            for i2, row2 in enumerate(lab):
                out = lab[add1[act1[i2]]]
                for j2 in xidx:
                    tab[(left, row2[j2])] = out[prod1[j2]]
    return tab


def hom_as_derivations(p: AlgebraMap, k: XModule):
    """The bijection Hom_{/X}(Y, K x| X) = Der_p(Y, K), with the group
    structures compared under the zero-derivation structure on the target.

    Returns a dict with both sides, the bijection, and check flags.
    """
    y_alg = p.source
    x = p.target
    sort = k.sort
    sd = semidirect_product(k, x)
    ders = derivations(p, k)
    homs = enumerate_homs(y_alg, sd, over=(p, sd.projection))
    # bijection: a hom phi corresponds to y -> k-component of phi(y)
    der_of_hom = {}
    for phi in homs:
        if y_alg.is_free():
            vals = {
                g: sd.pair_of[phi.mapping[sort][g]][0]
                for g in y_alg.generators[sort]
            }
        else:
            vals = {
                y: sd.pair_of[phi.mapping[sort][y]][0]
                for y in y_alg.carriers[sort]
            }
        der_of_hom[_hom_key(phi)] = tuple(sorted(vals.items()))
    der_keys = {d.key() for d in ders} if not y_alg.is_free() else {
        tuple(sorted(d.values.items())) for d in ders
    }
    bijective = (
        len(der_of_hom) == len(homs) == len(ders)
        and set(der_of_hom.values()) == der_keys
    )
    # group structures agree: mu-addition of homs matches pointwise addition
    additive = True
    if not y_alg.is_free():
        for phi1 in homs[:4]:
            for phi2 in homs[:4]:
                summed = {}
                for y in y_alg.carriers[sort]:
                    k1 = sd.pair_of[phi1.mapping[sort][y]][0]
                    k2 = sd.pair_of[phi2.mapping[sort][y]][0]
                    summed[y] = k.carrier.add(k1, k2)
                target = tuple(sorted(summed.items()))
                d1 = dict(der_of_hom[_hom_key(phi1)])
                d2 = dict(der_of_hom[_hom_key(phi2)])
                pointwise = tuple(sorted(
                    (y, k.carrier.add(d1[y], d2[y])) for y in d1
                ))
                if target != pointwise:
                    additive = False
    return {
        "homs": homs,
        "derivations": ders,
        "bijective": bijective,
        "additive_match": additive,
    }


def _hom_key(phi: AlgebraMap):
    return tuple(
        (s, tuple(sorted(m.items()))) for s, m in sorted(phi.mapping.items())
    )


# ---------------------------------------------------------------------------
# group objects in the slice over X

def fiber_product(p: AlgebraMap, q: AlgebraMap) -> FiniteAlgebra:
    """Y x_X Z for two maps into the same finite X (componentwise tables)."""
    y_alg, z_alg = p.source, q.source
    t = y_alg.theory
    carriers = {}
    for s in t.sorts:
        carriers[s] = [
            f"{a}&{b}"
            for a in y_alg.carriers[s] for b in z_alg.carriers[s]
            if p.mapping[s][a] == q.mapping[s][b]
        ]
    tables = {}
    for op in t.ops:
        tab = {}
        for tup in product(*(carriers[s] for s in op.args)):
            asplit = [x.split("&") for x in tup]
            ra = y_alg.apply(op.name, tuple(a for a, _ in asplit))
            rb = z_alg.apply(op.name, tuple(b for _, b in asplit))
            tab[tup] = f"{ra}&{rb}"
        tables[op.name] = tab
    fp = FiniteAlgebra(t, f"{y_alg.name}&{z_alg.name}", carriers, tables)
    sort = t.sorts[0]
    fp.pr1 = AlgebraMap(
        fp, y_alg, {sort: {x: x.split("&")[0] for x in carriers[sort]}}
    )
    fp.pr2 = AlgebraMap(
        fp, z_alg, {sort: {x: x.split("&")[1] for x in carriers[sort]}}
    )
    return fp


class GroupObjectStructure:
    """(zero section, multiplication, inverse) tables of a group object
    structure on p: Y -> X, serialized for set comparison."""

    def __init__(self, sigma, mu, rho):
        self.sigma = dict(sigma)
        self.mu = dict(mu)
        self.rho = dict(rho)

    def key(self):
        return (
            tuple(sorted(self.sigma.items())),
            tuple(sorted(self.mu.items())),
            tuple(sorted(self.rho.items())),
        )


def brute_force_group_objects(p: AlgebraMap):
    """Every group object structure on p: Y -> X, by exhaustive search
    over candidate multiplication tables on the fiber product (as algebra
    maps over X) with unit/associativity/inverse pruning."""
    y_alg, x = p.source, p.target
    sort = y_alg.theory.sorts[0]
    fp = fiber_product(p, p)
    q = AlgebraMap(
        fp, x,
        {sort: {el: p.mapping[sort][el.split("&")[0]] for el in fp.carriers[sort]}},
        check=False,
    )
    sections = [
        s for s in enumerate_homs(x, y_alg, over=(identity_map(x), p))
    ]
    out = []
    for mu in enumerate_homs(fp, y_alg, over=(q, p)):
        mumap = mu.mapping[sort]

        def m(a, b):
            return mumap[f"{a}&{b}"]

        for sigma in sections:
            sig = sigma.mapping[sort]
            if not all(
                m(sig[p.mapping[sort][y]], y) == y
                and m(y, sig[p.mapping[sort][y]]) == y
                for y in y_alg.carriers[sort]
            ):
                continue
            # associativity on fiber triples
            ok = True
            for a in y_alg.carriers[sort]:
                for b in y_alg.carriers[sort]:
                    if p.mapping[sort][a] != p.mapping[sort][b]:
                        continue
                    for c in y_alg.carriers[sort]:
                        if p.mapping[sort][c] != p.mapping[sort][a]:
                            continue
                        if m(m(a, b), c) != m(a, m(b, c)):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                continue
            # two-sided inverses, unique per element
            rho = {}
            for a in y_alg.carriers[sort]:
                unit = sig[p.mapping[sort][a]]
                cands = [
                    b for b in y_alg.carriers[sort]
                    if p.mapping[sort][b] == p.mapping[sort][a]
                    and m(a, b) == unit and m(b, a) == unit
                ]
                if len(cands) != 1:
                    rho = None
                    break
                rho[a] = cands[0]
            if rho is None:
                continue
            try:
                rho_map = AlgebraMap(y_alg, y_alg, {sort: rho})
            except AlgebraError:
                continue
            out.append(GroupObjectStructure(sig, mumap, rho))
    return out


def abelian_group_isomorphism_types(order):
    """Moduli lists of the abelian groups of a given order, deterministic."""
    if order == 1:
        return [[1]]
    out = []

    def partitions(n):
        if n == 0:
            yield []
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    per_prime = []
    for prime, exp in sorted(_factor(order).items()):
        per_prime.append([(prime, part) for part in partitions(exp)])
    for combo in product(*per_prime):
        width = max(len(part) for _, part in combo)
        moduli = []
        for i in range(width):
            m = 1
            for prime, part in combo:
                if i < len(part):
                    m *= prime ** part[i]
            moduli.append(m)
        out.append(sorted(moduli))
    return out


def x_module_structures(x: FiniteAlgebra, order):
    """All X-modules with carrier of the given order, up to equality of
    (moduli, action-matrix) data; deterministic order."""
    sort = x.theory.sorts[0]
    out = []
    for moduli in abelian_group_isomorphism_types(order):
        moduli = [m for m in moduli if m > 1] or [1]
        k = FinAb(moduli)
        autos = _automorphism_matrices(k)
        gens, expr = x.expressions(sort)
        for combo in product(range(len(autos)), repeat=len(gens)):
            mats = {}
            ok = True
            for el in x.carriers[sort]:
                m = identity_matrix(len(k.moduli))
                for g in expr[el]:
                    prod = mat_mul(autos[combo[gens.index(g)]], m)
                    m = [[x % mod for x in row]
                         for row, mod in zip(prod, k.moduli)]
                if el in mats and mats[el] != m:
                    ok = False
                    break
                mats[el] = m
            if not ok:
                continue
            # well-defined action: verify multiplicativity
            try:
                out.append(XModule(x, k, mats))
            except AlgebraError:
                continue
    # dedupe identical action data
    seen = set()
    uniq = []
    for km in out:
        key = (km.carrier.moduli,
               tuple(sorted((x_, tuple(map(tuple, m)))
                            for x_, m in km.action.items())))
        if key not in seen:
            seen.add(key)
            uniq.append(km)
    return uniq


def _automorphism_matrices(k: FinAb):
    """All additive automorphism matrices of a small finite abelian group."""
    n = len(k.moduli)
    els = k.elements()
    cands = []
    ranges = [range(m) for m in k.moduli for _ in range(n)]
    for flat in product(*ranges):
        mat = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        # well-defined: column j killed by moduli[j]
        if any(
            (mat[i][j] * k.moduli[j]) % k.moduli[i] != 0
            for i in range(n) for j in range(n)
        ):
            continue
        images = {el: k.apply_matrix(mat, el) for el in els}
        if len(set(images.values())) == len(els):
            cands.append(mat)
    return cands


def formula_group_objects(p: AlgebraMap):
    """Group object structures on p generated from (module, derivation)
    pairs pushed through every isomorphism K x| X -> Y over X."""
    y_alg, x = p.source, p.target
    sort = y_alg.theory.sorts[0]
    fiber_size = len(y_alg.carriers[sort]) // len(x.carriers[sort])
    out = {}
    for k in x_module_structures(x, fiber_size):
        sd = semidirect_product(k, x)
        ders = derivations(identity_map(x), k)
        isos = [
            h for h in enumerate_homs(sd, y_alg, over=(sd.projection, p))
            if h.is_bijective()
        ]
        if not isos:
            continue
        for xi in ders:
            # structure maps on K x| X from Prop-style formulas
            sig_sd = {}
            mu_sd = {}
            rho_sd = {}
            for xe in x.carriers[sort]:
                sig_sd[xe] = sd.label_of[(k.carrier.neg(xi(xe)), xe)]
            for ke1 in k.elements():
                for ke2 in k.elements():
                    for xe in x.carriers[sort]:
                        a = sd.label_of[(ke1, xe)]
                        b = sd.label_of[(ke2, xe)]
                        s = k.carrier.add(
                            k.carrier.add(ke1, ke2), xi(xe)
                        )
                        mu_sd[(a, b)] = sd.label_of[(s, xe)]
            for ke in k.elements():
                for xe in x.carriers[sort]:
                    a = sd.label_of[(ke, xe)]
                    val = k.carrier.sub(
                        k.carrier.neg(ke),
                        k.carrier.smul(2, xi(xe)),
                    )
                    rho_sd[a] = sd.label_of[(val, xe)]
            for h in isos:
                hm = h.mapping[sort]
                hinv = {v: a for a, v in hm.items()}
                sigma = {xe: hm[sig_sd[xe]] for xe in x.carriers[sort]}
                mu = {}
                for (a, b), c in mu_sd.items():
                    mu[f"{hm[a]}&{hm[b]}"] = hm[c]
                rho = {hm[a]: hm[b] for a, b in rho_sd.items()}
                st = GroupObjectStructure(sigma, mu, rho)
                out[st.key()] = st
    return list(out.values())


def classify_group_objects(x: FiniteAlgebra, fixtures):
    """For each surjection (Y, p) onto x in `fixtures`, compare the brute
    force list of group object structures with the formula-generated one.

    Returns per-fixture records; `match` is exact set equality of
    structure tables."""
    out = []
    for p in fixtures:
        brute = brute_force_group_objects(p)
        formed = formula_group_objects(p)
        bk = {s.key() for s in brute}
        fk = {s.key() for s in formed}
        out.append({
            "Y": p.source.name,
            "X": x.name,
            "brute_count": len(bk),
            "formula_count": len(fk),
            "match": bk == fk,
        })
    return out


# ---------------------------------------------------------------------------
# the kernel functor and its inverse

def kappa(p: AlgebraMap, structure: GroupObjectStructure) -> XModule:
    """The X-module carried by the zero section's fiber of a group object."""
    y_alg, x = p.source, p.target
    sort = y_alg.theory.sorts[0]
    ident_x = x.identity(sort)
    kels = [y for y in y_alg.carriers[sort] if p.mapping[sort][y] == ident_x]
    zero = structure.sigma[ident_x]

    def kadd(a, b):
        return structure.mu[f"{a}&{b}"]

    inv = invariants_from_addition(kels, kadd, zero)
    moduli = list(inv.torsion) or [1]
    finab = FinAb(moduli)
    # coordinatize: find an additive bijection finab -> kernel set
    coords = _coordinatize(kels, kadd, zero, finab)
    # conjugation action through arbitrary lifts (checked independent)
    action = {}
    for xe in x.carriers[sort]:
        lifts = [y for y in y_alg.carriers[sort] if p.mapping[sort][y] == xe]
        mats = None
        for lift in lifts:
            images = {}
            for kel in kels:
                conj = y_alg.gmul(
                    y_alg.gmul(lift, kel, sort), y_alg.ginv(lift, sort), sort
                )
                images[kel] = conj
            mat = _matrix_of(images, coords, finab)
            if mats is None:
                mats = mat
            else:
                # internal invariant: K is abelian, so every lift acts alike
                assert mats == mat, "conjugation action depends on the lift"
        action[xe] = mats
    km = XModule(x, finab, action, name=f"ker({y_alg.name})")
    km.fiber_coords = coords
    return km


def _coordinatize(kels, kadd, zero, finab: FinAb):
    """dict finab-element -> kernel label, additive."""
    for cand in _bijection_candidates(kels, kadd, zero, finab):
        return cand
    raise AlgebraError("could not coordinatize kernel")


def _bijection_candidates(kels, kadd, zero, finab):
    from itertools import permutations

    nonzero = [y for y in kels if y != zero]
    felements = finab.elements()
    fnonzero = [e for e in felements if any(e)]
    for perm in permutations(nonzero, len(fnonzero)):
        phi = {finab.zero(): zero}
        phi.update(dict(zip(fnonzero, perm)))
        ok = all(
            phi[finab.add(a, b)] == kadd(phi[a], phi[b])
            for a in felements for b in felements
        )
        if ok:
            yield phi


def _matrix_of(images, coords, finab: FinAb):
    """Matrix (in finab coordinates) of an additive self-map given on
    kernel labels."""
    inv_coords = {v: k for k, v in coords.items()}
    n = len(finab.moduli)
    cols = []
    for j in range(n):
        basis = tuple(1 if i == j else 0 for i in range(n))
        img = inv_coords[images[coords[basis]]]
        cols.append(img)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def lam(k: XModule) -> tuple:
    """K -> (semidirect product with the zero-derivation group structure)."""
    x = k.base
    sort = k.sort
    sd = semidirect_product(k, x)
    sigma = {xe: sd.label_of[(k.carrier.zero(), xe)] for xe in x.carriers[sort]}
    mu = {}
    for ke1 in k.elements():
        for ke2 in k.elements():
            for xe in x.carriers[sort]:
                a = sd.label_of[(ke1, xe)]
                b = sd.label_of[(ke2, xe)]
                mu[f"{a}&{b}"] = sd.label_of[(k.carrier.add(ke1, ke2), xe)]
    rho = {}
    for ke in k.elements():
        for xe in x.carriers[sort]:
            rho[sd.label_of[(ke, xe)]] = sd.label_of[(k.carrier.neg(ke), xe)]
    return sd, GroupObjectStructure(sigma, mu, rho)


def lambda_kappa_roundtrip(k: XModule) -> bool:
    """kappa(lam(K)) is isomorphic to K as an X-module."""
    sd, structure = lam(k)
    back = kappa(sd.projection, structure)
    return bool(k.module_isomorphisms(back))


def kappa_lambda_roundtrip(p: AlgebraMap, structure: GroupObjectStructure) -> bool:
    """lam(kappa(Y)) is isomorphic to Y over X."""
    km = kappa(p, structure)
    sd, _ = lam(km)
    isos = [
        h for h in enumerate_homs(sd, p.source, over=(sd.projection, p))
        if h.is_bijective()
    ]
    return bool(isos)


# ---------------------------------------------------------------------------
# abelianization of free algebras and its Fox-derivative functoriality

def fox_columns(m: AlgebraMap, over: AlgebraMap | None):
    """The abelianization of a map of free group-theory algebras, sparse:
    per source generator, the (target generator index, entry) pairs of the
    nonzero Fox derivatives of its image.  Entries lie in Z (absolute case,
    `over` None) or Z[X] (over p: target -> X)."""
    src, tgt = m.source, m.target
    sort = src.sort
    if over is None:
        ring = Ring("Z")

        def p_of(g, e):
            return 1
    else:
        x = over.target
        ring = x.group_ring(sort)
        pmap = over.mapping[sort]

        def p_of(g, e):
            val = pmap[g]
            if e < 0:
                val = x.ginv(val, sort)
            return val

    index = {g: i for i, g in enumerate(tgt.generators[sort])}
    cols = []
    for t in src.generators[sort]:
        coeffs = {}
        prefix = ring.one()
        for g, e in m.mapping[sort][t]:
            if e > 0:
                coeffs[g] = ring.add(coeffs.get(g, ring.zero()), prefix)
                prefix = _rmul_group(ring, prefix, p_of(g, 1))
            else:
                prefix = _rmul_group(ring, prefix, p_of(g, -1))
                coeffs[g] = ring.add(coeffs.get(g, ring.zero()),
                                     ring.neg(prefix))
        cols.append([(index[g], c) for g, c in coeffs.items() if c])
    return cols


def abelianized_matrix(m: AlgebraMap, over: AlgebraMap | None):
    """Matrix of the abelianization of a map of free group-theory algebras:
    `fox_columns` as a dense matrix, rows indexing target generators."""
    rows = len(m.target.generators[m.source.sort])
    zero = 0 if over is None else {}
    cols = fox_columns(m, over)
    out = [[zero] * len(cols) for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, entry in col:
            out[i][j] = entry
    return out


def _rmul_group(ring: Ring, acc, gelem):
    if ring.kind == "Z":
        return acc
    return ring.mul(acc, {gelem: 1})


def abelianize_free(f: FreeAlgebra, over: AlgebraMap | None = None):
    """A free algebra's abelianization: same generators over the
    abelianized theory (absolute) or the module theory over X (relative).
    """
    if over is None:
        theory_ab = AB if f.theory is GP else abelianization_theory(f.theory)
        return FreeAlgebra(theory_ab, dict(f.generators))
    x = over.target
    tx = module_theory(f.theory, x)
    return FreeAlgebra(tx, dict(f.generators))
