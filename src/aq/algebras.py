"""Free and finite algebras over registered theories: normal forms, the
free/forgetful adjunction, exhaustive hom enumeration (the universal
brute-force oracle), and realization of finite presentations.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from operator import itemgetter

from .abgroups import FinAb
from .errors import AlgebraError
from .presented import Subquotient, _vectors
from .rings import GroupTable, Ring, RModulePresentation, element_key
from .snf import identity_matrix, mat_vec
from .terms import App, Term, Var, term_str
from .theories import (
    TheoryPresentation,
    abelian_theory,
    group_theory,
)
from .toddcox import BoundExceeded, coset_enumeration, multiplication_table


class BudgetExhausted(AlgebraError):
    pass


class NotRegisteredError(AlgebraError):
    pass


class NotFiniteWithinBound(AlgebraError):
    pass


DEFAULT_BUDGET = 10**7

GP = group_theory()
AB = abelian_theory()


# ---------------------------------------------------------------------------
# free algebras

class FreeAlgebra:
    """Free algebra on a graded generating set, represented lazily through
    a normal-form engine chosen by the theory's registry tag.

    Normal forms: reduced words (groups), sorted (generator, coefficient)
    pairs over the theory's ring (abelian groups, as Z-modules, and
    modules over Z/m or Z[G]).
    """

    def __init__(self, theory: TheoryPresentation, generators):
        self.theory = theory
        if isinstance(generators, dict):
            self.generators = {s: list(g) for s, g in generators.items()}
        else:
            if len(theory.sorts) != 1:
                raise AlgebraError(
                    f"a generator list needs a one-sorted theory, "
                    f"not {len(theory.sorts)} sorts")
            self.generators = {theory.sorts[0]: list(generators)}
        for s in self.generators:
            if s not in theory.sorts:
                raise AlgebraError(f"unknown sort {s!r}")
        if theory.class_tag not in ("discrete", "group") and theory.ring is None:
            if any(self.generators.values()):
                raise NotRegisteredError(
                    f"no normal-form engine for theory class {theory.class_tag!r}"
                )
        names = [g for gs in self.generators.values() for g in gs]
        dups = sorted(g for g, c in Counter(names).items() if c > 1)
        if dups:
            raise AlgebraError(f"duplicate generator {', '.join(dups)}")
        for g in names:
            if g in theory.op_index:
                raise AlgebraError(f"generator {g!r} collides with an op name")
        self.gen_list = names
        self._gen_sort = {
            g: s for s, gs in self.generators.items() for g in gs
        }

    def is_free(self):
        return True

    @property
    def sort(self):
        # internal invariant: free algebras are built single-sorted
        assert len(self.theory.sorts) == 1
        return self.theory.sorts[0]

    # -- normal-form arithmetic -------------------------------------------

    def zero(self):
        return ()

    def gen(self, g):
        tag = self.theory.class_tag
        if tag == "discrete":
            return g
        if tag == "group":
            return ((g, 1),)
        return ((g, element_key(self.theory.ring.one())),)

    def mul(self, a, b):
        tag = self.theory.class_tag
        if tag == "group":
            word = list(a)
            for x in b:
                if word and word[-1][0] == x[0] and word[-1][1] == -x[1]:
                    word.pop()
                else:
                    word.append(x)
            return tuple(word)
        ring = self.theory.ring
        out = dict(a)
        for g, c in b:
            if g in out:
                s = ring.add(_thaw(out[g], ring), _thaw(c, ring))
                if ring.is_zero(s):
                    del out[g]
                    continue
                c = element_key(s)
            out[g] = c
        return tuple(sorted(out.items()))

    def inv(self, a):
        tag = self.theory.class_tag
        if tag == "group":
            return tuple((g, -e) for g, e in reversed(a))
        ring = self.theory.ring
        return tuple((g, element_key(ring.neg(_thaw(c, ring)))) for g, c in a)

    def act(self, op_name, a):
        """Unary module action op applied to a normal form."""
        ring = self.theory.ring
        # internal invariant: only module theories have act_ ops to call this
        assert ring is not None and op_name.startswith("act_")
        label = op_name[len("act_"):]
        r = ring.from_group_element(label)
        out = []
        for g, c in a:
            prod = ring.mul(r, _thaw(c, ring))
            if not ring.is_zero(prod):
                out.append((g, element_key(prod)))
        return tuple(sorted(out))

    def coefficients(self, word):
        """The R-column of a normal form over the theory's ring R: its
        coefficient at each generator, in generator order."""
        ring = self.theory.ring
        coeff = dict(word)
        return [_thaw(coeff[g], ring) if g in coeff else ring.zero()
                for g in self.gen_list]

    def eval_term(self, t: Term, env=None):
        env = env or {}
        if isinstance(t, Var):
            if t.name not in env:
                raise AlgebraError(f"unbound variable ${t.name}")
            return env[t.name]
        if t.op in self._gen_sort and not t.args:
            return self.gen(t.op)
        op = self.theory.op_index.get(t.op)
        if op is not None and len(t.args) != len(op.args):
            raise AlgebraError(f"arity mismatch in term {term_str(t)}")
        tag = self.theory.class_tag
        if tag == "group" or self.theory.ring is not None:
            witness = self.theory.group_witness[self.sort]
            mul, inv, unit = witness
            if t.op == mul:
                return self.mul(self.eval_term(t.args[0], env),
                                self.eval_term(t.args[1], env))
            if t.op == inv:
                return self.inv(self.eval_term(t.args[0], env))
            if t.op == unit:
                return self.zero()
            if t.op in self.theory.op_index:
                return self.act(t.op, self.eval_term(t.args[0], env))
        raise AlgebraError(f"cannot evaluate {term_str(t)} in free {tag} algebra")

    def element_to_term(self, a) -> Term:
        tag = self.theory.class_tag
        if tag == "discrete":
            return App(a, ())
        mul, inv, unit = self.theory.group_witness[self.sort]

        def power(base: Term, n: int) -> list:
            if n > 0:
                return [base] * n
            return [App(inv, (base,))] * (-n)

        factors = []
        if tag == "group":
            for g, e in a:
                factors.extend(power(App(g, ()), e))
        else:
            ring = self.theory.ring
            for g, c in a:
                coeff = _thaw(c, ring)
                if ring.kind == "ZG":
                    for h, n in sorted(coeff.items()):
                        base = App(g, ())
                        if h != ring.group.identity:
                            base = App(f"act_{h}", (base,))
                        factors.extend(power(base, n))
                else:
                    factors.extend(power(App(g, ()), coeff))
        if not factors:
            return App(unit, ())
        out = factors[0]
        for f in factors[1:]:
            out = App(mul, (out, f))
        return out

    def __repr__(self):
        return f"FreeAlgebra({self.theory.name}, {self.generators})"


def _thaw(frozen, ring):
    if ring.kind == "ZG":
        return dict(frozen)
    return frozen


# ---------------------------------------------------------------------------
# finite algebras

class FiniteAlgebra:
    """Explicit carriers and total operation tables, validated against the
    theory's equations exhaustively."""

    def __init__(self, theory: TheoryPresentation, name, carriers, tables,
                 validate=True):
        self.theory = theory
        self.name = name
        self.carriers = {s: tuple(els) for s, els in carriers.items()}
        self.tables = {op: dict(tab) for op, tab in tables.items()}
        self._witness = None
        self._group_rings = {}
        self.path = None  # the file it was read from (fixtures.load_algebra)
        if validate:
            self.validate()

    def is_free(self):
        return False

    def validate(self):
        t = self.theory
        if set(self.carriers) != set(t.sorts):
            raise AlgebraError(f"{self.name}: carriers must cover all sorts")
        for op in t.ops:
            tab = self.tables.get(op.name)
            if tab is None:
                raise AlgebraError(f"{self.name}: missing table for {op.name}")
            for tup in product(*(self.carriers[s] for s in op.args)):
                if tup not in tab or tab[tup] not in self.carriers[op.result]:
                    what = ("not total" if tup not in tab
                            else "leaves the carrier")
                    at = ",".join(map(str, tup))
                    raise AlgebraError(
                        f"{self.name}: table for {op.name} {what} at ({at})")
        for lhs, rhs in t.equations:
            _, env = t.infer_equation_sorts(lhs, rhs)
            names = sorted(env)
            slot = {v: i for i, v in enumerate(names)}
            left, right = self._compile(lhs, slot), self._compile(rhs, slot)
            for tup in product(*(self.carriers[env[v]] for v in names)):
                if left(tup) != right(tup):
                    raise AlgebraError(
                        f"{self.name}: equation fails at "
                        f"{dict(zip(names, tup))}: "
                        f"{term_str(lhs)} = {term_str(rhs)}"
                    )

    def _compile(self, t: Term, slot):
        """`t` as a function of an assignment tuple (variable v at
        position slot[v]) that looks each op up in its table."""
        if isinstance(t, Var):
            return itemgetter(slot[t.name])
        tab = self.tables[t.op]
        args = [self._compile(a, slot) for a in t.args]
        if not args:
            value = tab[()]
            return lambda tup: value
        if len(args) == 1:
            (f,) = args
            return lambda tup: tab[(f(tup),)]
        if len(args) == 2:
            f, g = args
            return lambda tup: tab[(f(tup), g(tup))]
        return lambda tup: tab[tuple(f(tup) for f in args)]

    def apply(self, op, tup):
        return self.tables[op][tuple(tup)]

    def witness(self):
        if self._witness is None:
            w = self.theory.group_structure()
            self._witness = w if w else False
        return self._witness

    def group_ops(self, sort):
        w = self.witness()
        if not w:
            raise AlgebraError(
                f"theory {self.theory.name} has no group structure")
        return w.triples[sort]

    def identity(self, sort=None):
        sort = sort or self.theory.sorts[0]
        _, _, unit = self.group_ops(sort)
        return self.apply(unit, ())

    def gmul(self, a, b, sort=None):
        sort = sort or self.theory.sorts[0]
        mul, _, _ = self.group_ops(sort)
        return self.apply(mul, (a, b))

    def ginv(self, a, sort=None):
        sort = sort or self.theory.sorts[0]
        _, inv, _ = self.group_ops(sort)
        return self.apply(inv, (a,))

    def order(self):
        n = 1
        for els in self.carriers.values():
            n *= len(els)
        return n

    def generating_set(self, sort=None):
        """Deterministic greedy generating set of the group at a sort."""
        sort = sort or self.theory.sorts[0]
        els = self.carriers[sort]
        gens = []
        closure = {self.identity(sort)}
        while len(closure) < len(els):
            nxt = next(x for x in els if x not in closure)
            gens.append(nxt)
            frontier = list(closure | {nxt})
            grown = set(closure | {nxt})
            while frontier:
                x = frontier.pop()
                for g in gens:
                    y = self.gmul(x, g, sort)
                    if y not in grown:
                        grown.add(y)
                        frontier.append(y)
            closure = grown
        return gens

    def expressions(self, sort=None):
        """Positive words in the generating set expressing every element."""
        sort = sort or self.theory.sorts[0]
        gens = self.generating_set(sort)
        ident = self.identity(sort)
        expr = {ident: []}
        queue = [ident]
        while queue:
            x = queue.pop(0)
            for g in gens:
                y = self.gmul(x, g, sort)
                if y not in expr:
                    expr[y] = expr[x] + [g]
                    queue.append(y)
        if len(expr) != len(self.carriers[sort]):
            raise AlgebraError(
                f"{self.name}: the generators {', '.join(gens)} of sort {sort} "
                f"reach {len(expr)} of its {len(self.carriers[sort])} elements "
                f"as products")
        return gens, expr

    def group_table(self, sort=None) -> GroupTable:
        sort = sort or self.theory.sorts[0]
        mul, _, _ = self.group_ops(sort)
        return GroupTable(
            self.carriers[sort],
            {(a, b): self.apply(mul, (a, b))
             for a in self.carriers[sort] for b in self.carriers[sort]},
            self.identity(sort),
        )

    def group_ring(self, sort) -> Ring:
        """Z[G] for the group G at `sort`, built once per sort."""
        if sort not in self._group_rings:
            self._group_rings[sort] = Ring("ZG", group=self.group_table(sort))
        return self._group_rings[sort]

    def __repr__(self):
        sizes = {s: len(e) for s, e in self.carriers.items()}
        return f"FiniteAlgebra({self.name}, {sizes})"


class AlgebraMap:
    """A homomorphism; finite sources carry a full element map per sort,
    free sources just generator images."""

    def __init__(self, source, target, mapping, check=True):
        self.source = source
        self.target = target
        self.mapping = {s: dict(m) for s, m in mapping.items()}
        if check and not source.is_free() and not self.is_homomorphism():
            raise AlgebraError("not a homomorphism")

    @classmethod
    def from_generator_images(cls, source: FreeAlgebra, target, images):
        """images: generator -> target element (single-sorted free source)."""
        return cls(source, target, {source.sort: dict(images)}, check=False)

    def apply_free_element(self, word):
        """Evaluate a free-group normal form through the generator images,
        into a finite group or a free group."""
        tgt = self.target
        images = self.mapping[self.source.sort]
        if tgt.is_free():
            # the images' letters in turn, reduced in one pass
            return tgt.mul(tgt.zero(), [
                x for g, e in word
                for x in (images[g] if e > 0 else tgt.inv(images[g]))])
        mul, inv, unit = tgt.group_ops(tgt.theory.sorts[0])
        mul, inv = tgt.tables[mul], tgt.tables[inv]
        acc = tgt.tables[unit][()]
        for g, e in word:
            val = images[g]
            if e < 0:
                val = inv[(val,)]
            acc = mul[(acc, val)]
        return acc

    def is_homomorphism(self):
        src, tgt = self.source, self.target
        for op in src.theory.ops:
            stab, ttab = src.tables[op.name], tgt.tables[op.name]
            res = self.mapping[op.result]
            doms = [src.carriers[s] for s in op.args]
            # the images of the tuples of doms, in the same order
            imgs = [[self.mapping[s][x] for x in dom]
                    for s, dom in zip(op.args, doms)]
            for tup, img in zip(product(*doms), product(*imgs)):
                if res[stab[tup]] != ttab[img]:
                    return False
        return True

    def is_bijective(self):
        return all(
            len(set(m.values())) == len(m) == len(self.target.carriers[s])
            for s, m in self.mapping.items()
        )

    def compose(self, other):
        """self after other (other: A -> B, self: B -> C)."""
        # internal invariant: only maps out of finite algebras are composed
        assert not other.source.is_free()
        mapping = {
            s: {x: self.mapping[s][y] for x, y in m.items()}
            for s, m in other.mapping.items()
        }
        return AlgebraMap(other.source, self.target, mapping, check=False)

    def __repr__(self):
        return f"AlgebraMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# hom enumeration: the universal brute-force oracle

def enumerate_homs(a, b: FiniteAlgebra, over=None, budget=DEFAULT_BUDGET):
    """All homomorphisms a -> b, deterministically ordered.

    a free: every generator assignment (the adjunction).  a finite: an
    exhaustive generator-driven search whose results are re-checked against
    all op tables.  over=(p, q) restricts to maps with q(f(x)) = p(x).
    """
    if a.is_free():
        return _free_homs(a, b, over)
    if _is_group_like(a):
        maps = _finite_group_homs(a, b, over, budget)
    else:
        maps = _finite_generic_homs(a, b, over, budget)
    for m in maps:
        # internal invariant: the searches keep only homomorphisms
        assert m.is_homomorphism(), "search produced a non-homomorphism"
    return maps


def _pool(b, sort, over, p_value):
    if over is None:
        return list(b.carriers[sort])
    _, q = over
    return [y for y in b.carriers[sort] if q.mapping[sort][y] == p_value]


def _free_homs(a: FreeAlgebra, b: FiniteAlgebra, over):
    slots = []
    for s in a.theory.sorts:
        for g in a.generators.get(s, []):
            if over is None:
                pool = list(b.carriers[s])
            else:
                p, q = over
                pool = _pool(b, s, over, p.mapping[s][g])
            slots.append(((s, g), pool))
    out = []
    for combo in product(*(pool for _, pool in slots)):
        images = {}
        for ((s, g), _), val in zip(slots, combo):
            images.setdefault(s, {})[g] = val
        out.append(AlgebraMap(a, b, images, check=False))
    return out


def _is_group_like(a: FiniteAlgebra):
    return len(a.theory.sorts) == 1 and bool(a.witness())


def _finite_group_homs(a, b, over, budget):
    sort = a.theory.sorts[0]
    gens, expr = a.expressions(sort)
    p = over[0] if over else None
    pools = [
        _pool(b, sort, over, p.mapping[sort][g] if p else None) for g in gens
    ]
    out = []
    steps = 0
    for combo in product(*pools):
        steps += len(a.carriers[sort])
        if steps > budget:
            raise BudgetExhausted("hom search budget exhausted")
        images = dict(zip(gens, combo))
        full = {}
        ok = True
        for x in a.carriers[sort]:
            val = b.identity(sort)
            for g in expr[x]:
                val = b.gmul(val, images[g], sort)
            full[x] = val
        cand = AlgebraMap(a, b, {sort: full}, check=False)
        if cand.is_homomorphism():
            if over is None or _respects_over(cand, over, a, sort):
                out.append(cand)
    return out


def _respects_over(cand, over, a, sort):
    p, q = over
    return all(
        q.mapping[sort][cand.mapping[sort][x]] == p.mapping[sort][x]
        for x in a.carriers[sort]
    )


def _finite_generic_homs(a, b, over, budget):
    slots = [(s, x) for s in a.theory.sorts for x in a.carriers[s]]
    p = over[0] if over else None
    pools = {
        (s, x): _pool(b, s, over, p.mapping[s][x] if p else None)
        for s, x in slots
    }
    out = []
    state = {s: {} for s in a.theory.sorts}
    steps = [0]

    ops_by_result = list(a.theory.ops)

    def consistent(s_new, x_new):
        for op in ops_by_result:
            for tup in product(*(a.carriers[t] for t in op.args)):
                involved = [(t, v) for t, v in zip(op.args, tup)]
                res = a.apply(op.name, tup)
                if all(v in state[t] for t, v in involved) and res in state[op.result]:
                    img = b.apply(
                        op.name, tuple(state[t][v] for t, v in involved)
                    )
                    if img != state[op.result][res]:
                        return False
        return True

    def rec(i):
        steps[0] += 1
        if steps[0] > budget:
            raise BudgetExhausted("hom search budget exhausted")
        if i == len(slots):
            out.append(AlgebraMap(a, b, {s: dict(m) for s, m in state.items()},
                                  check=False))
            return
        s, x = slots[i]
        for y in pools[(s, x)]:
            state[s][x] = y
            if consistent(s, x):
                rec(i + 1)
            del state[s][x]

    rec(0)
    return out


def adjunction_check(theta, generators, b: FiniteAlgebra) -> bool:
    """|Hom(F T, b)| must equal prod over sorts of |b_s| ^ |T_s|."""
    free = FreeAlgebra(theta, generators)
    expected = 1
    for s in theta.sorts:
        expected *= len(b.carriers[s]) ** len(free.generators.get(s, []))
    return len(enumerate_homs(free, b)) == expected


# ---------------------------------------------------------------------------
# realization of finite presentations

def realize_presentation(theta: TheoryPresentation, gens, rels, bound=256,
                         name=None):
    """Closure of generators under the theory operations modulo relations.

    rels: list of relator Terms (understood as = unit) or (lhs, rhs) pairs.
    Raises NotFiniteWithinBound when the quotient does not close within
    `bound` elements.
    """
    tag = theta.class_tag
    pairs = []
    for r in rels:
        if isinstance(r, tuple):
            pairs.append(r)
        else:
            pairs.append((r, App(theta.group_witness[theta.sorts[0]][2], ())))
    if tag == "group":
        return _realize_group(theta, list(gens), pairs, bound, name)
    if theta.ring is not None:
        return _realize_abelian_or_module(theta, list(gens), pairs, bound, name)
    raise NotRegisteredError(f"cannot realize presentations over {tag!r}")


def _realize_group(theta, gens, pairs, bound, name):
    free = FreeAlgebra(theta, gens)
    idx = {g: i for i, g in enumerate(gens)}
    relators = []
    for lhs, rhs in pairs:
        word = free.mul(free.eval_term(lhs), free.inv(free.eval_term(rhs)))
        relators.append([(idx[g], e) for g, e in word])
    try:
        table, reps = coset_enumeration(len(gens), relators, bound)
    except BoundExceeded:
        raise NotFiniteWithinBound(f"not finite within bound {bound}")
    mul = multiplication_table(table, reps)
    labels = [f"x{i}" for i in range(len(table))]
    sort = theta.sorts[0]
    mul_tab = {
        (labels[i], labels[j]): labels[mul[i][j]]
        for i in range(len(labels)) for j in range(len(labels))
    }
    inv_tab = {}
    for i in range(len(labels)):
        for j in range(len(labels)):
            if mul[i][j] == 0:
                inv_tab[(labels[i],)] = labels[j]
    alg = FiniteAlgebra(
        theta, name or "realized", {sort: labels},
        {"mul": mul_tab, "inv": inv_tab, "e": {(): labels[0]}},
    )
    alg.gen_images = {g: labels[table[0][2 * idx[g]]] for g in gens}
    return alg


def _realize_abelian_or_module(theta, gens, pairs, bound, name):
    free = FreeAlgebra(theta, gens)
    ring = theta.ring
    pres = RModulePresentation(ring, len(gens), [
        free.coefficients(free.mul(free.eval_term(lhs),
                                   free.inv(free.eval_term(rhs))))
        for lhs, rhs in pairs]).z_presentation()
    zr, dim = ring.zrank(), pres.gens
    one = ring.element_zcol(ring.one())
    # the relations first, then their other translates under the group:
    # the Smith reduction, and so each label, depends on this order
    first = one.index(1)
    order = sorted(range(pres.nrels()), key=lambda j: j % zr != first)
    sq = Subquotient(dim, identity_matrix(dim),
                     _vectors([pres.rels[j] for j in order], dim))
    inv = sq.invariants()
    if inv.rank > 0:
        raise NotFiniteWithinBound("quotient has free rank; not finite")
    if inv.order() > bound:
        raise NotFiniteWithinBound(f"order {inv.order()} exceeds bound {bound}")
    finab = FinAb.from_invariants(inv)

    def canon_of(vec):
        return finab.reduce(sq.canon(vec))

    labels = {}
    for el in finab.elements():
        labels[el] = "0" if not any(el) else "c" + ".".join(str(x) for x in el)
    sort = theta.sorts[0]
    carrier = [labels[el] for el in finab.elements()]
    el_of = {labels[el]: el for el in finab.elements()}
    mul_tab = {
        (labels[x], labels[y]): labels[finab.add(x, y)]
        for x in finab.elements() for y in finab.elements()
    }
    inv_tab = {(labels[x],): labels[finab.neg(x)] for x in finab.elements()}
    tables = {"mul": mul_tab, "inv": inv_tab, "e": {(): labels[finab.zero()]}}
    if ring.kind == "ZG":
        gens_amb = sq.canonical_generators()
        for h in ring.group.elements:
            block = ring.regular_block({h: 1})
            tab = {}
            for x in finab.elements():
                amb = [sum(c * v[i] for c, v in zip(x, gens_amb))
                       for i in range(dim)]
                acted = [y for b in range(0, dim, zr)
                         for y in mat_vec(block, amb[b:b + zr])]
                tab[(labels[x],)] = labels[canon_of(acted)]
            tables[f"act_{h}"] = tab
    alg = FiniteAlgebra(theta, name or "realized", {sort: carrier}, tables)
    alg.gen_images = {
        g: labels[canon_of([0] * (i * zr) + one + [0] * (dim - (i + 1) * zr))]
        for i, g in enumerate(gens)}
    alg.element_coords = el_of
    return alg


def entails_by_normalization(theory, eq):
    """True/False via the normal-form engine; None when undecidable here.

    For registered classes the theory equations are a confluent system, so
    comparing normal forms on formal generators decides the equation.
    """
    if theory.class_tag == "group" or theory.ring is not None:
        try:
            _, env = theory.infer_equation_sorts(*eq)
        except Exception:
            return False
        names = sorted(env)
        gens = {s: [] for s in theory.sorts}
        for i, v in enumerate(names):
            gens[env[v]].append(f"_v{i}")
        free = FreeAlgebra(theory, gens)
        envmap = {v: free.gen(f"_v{i}") for i, v in enumerate(names)}
        try:
            return free.eval_term(eq[0], envmap) == free.eval_term(eq[1], envmap)
        except AlgebraError:
            return None
    return None


# ---------------------------------------------------------------------------
# standard finite groups

def cyclic_group(m, name=None, theory=None):
    theory = theory or GP
    sort = theory.sorts[0]
    labels = ["e"] + [f"a{i}" if i > 1 else "a" for i in range(1, m)]
    mul = {
        (labels[i], labels[j]): labels[(i + j) % m]
        for i in range(m) for j in range(m)
    }
    inv = {(labels[i],): labels[(-i) % m] for i in range(m)}
    return FiniteAlgebra(
        theory, name or f"Z{m}", {sort: labels},
        {"mul": mul, "inv": inv, "e": {(): "e"}},
    )


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra, name=None):
    t = a.theory
    if b.theory is not t and b.theory.sorts != t.sorts:
        raise AlgebraError(
            f"direct_product: {a.name} has sorts {', '.join(t.sorts)} "
            f"(theory {t.name}), {b.name} has sorts "
            f"{', '.join(b.theory.sorts)} (theory {b.theory.name})")
    carriers = {
        s: [f"{x}|{y}" for x in a.carriers[s] for y in b.carriers[s]]
        for s in t.sorts
    }
    tables = {}
    for op in t.ops:
        tab = {}
        for tup in product(*(
            [(x, y) for x in a.carriers[s] for y in b.carriers[s]]
            for s in op.args
        )):
            xa = a.apply(op.name, tuple(x for x, _ in tup))
            xb = b.apply(op.name, tuple(y for _, y in tup))
            tab[tuple(f"{x}|{y}" for x, y in tup)] = f"{xa}|{xb}"
        tables[op.name] = tab
    return FiniteAlgebra(t, name or f"{a.name}x{b.name}", carriers, tables)


def klein_four():
    return direct_product(cyclic_group(2), cyclic_group(2), name="V4")


def symmetric_3():
    # permutations of {0,1,2} as labels
    import itertools

    perms = list(itertools.permutations(range(3)))
    label = {p: "e" if p == (0, 1, 2) else "p" + "".join(map(str, p)) for p in perms}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    labels = [label[p] for p in perms]
    mul = {
        (label[p], label[q]): label[compose(p, q)] for p in perms for q in perms
    }
    inv = {}
    for p in perms:
        for q in perms:
            if compose(p, q) == (0, 1, 2):
                inv[(label[p],)] = label[q]
    return FiniteAlgebra(GP, "S3", {GP.sorts[0]: labels},
                         {"mul": mul, "inv": inv, "e": {(): "e"}})


def dihedral_4():
    # <r, s | r^4, s^2, srsr> of order 8
    labels = ["e", "r", "r2", "r3", "s", "sr", "sr2", "sr3"]

    def mul_el(x, y):
        def parse(z):
            flip = z.startswith("s")
            rest = z[1:] if flip else z
            rot = 0 if rest in ("", "e") else (1 if rest == "r" else int(rest[1]))
            return flip, rot

        f1, r1 = parse(x)
        f2, r2 = parse(y)
        # (s^f1 r^r1)(s^f2 r^r2) = s^(f1+f2) r^(r2 + (-1)^(f2) r1)
        f = (f1 + f2) % 2
        r = (r2 + (r1 if not f2 else -r1)) % 4
        out = ("s" if f else "") + ("" if r == 0 else ("r" if r == 1 else f"r{r}"))
        return out or "e"

    mul = {(x, y): mul_el(x, y) for x in labels for y in labels}
    inv = {}
    for x in labels:
        for y in labels:
            if mul[(x, y)] == "e":
                inv[(x,)] = y
    return FiniteAlgebra(GP, "D4", {GP.sorts[0]: labels},
                         {"mul": mul, "inv": inv, "e": {(): "e"}})


def quaternion_8():
    labels = ["e", "m", "i", "mi", "j", "mj", "k", "mk"]
    # encode as pairs (sign, axis) with axis in {1, i, j, k}
    def enc(z):
        neg = z.startswith("m")
        return (-1 if neg else 1, z[1:] if neg else z or "e")

    basic = {
        ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"),
        ("e", "k"): (1, "k"),
        ("i", "e"): (1, "i"), ("j", "e"): (1, "j"), ("k", "e"): (1, "k"),
        ("i", "i"): (-1, "e"), ("j", "j"): (-1, "e"), ("k", "k"): (-1, "e"),
        ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
        ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j"),
    }

    def mul_el(x, y):
        sx, ax = enc(x)
        sy, ay = enc(y)
        s, a = basic[(ax if ax else "e", ay if ay else "e")]
        s *= sx * sy
        out = ("m" if s < 0 else "") + (a if a != "e" else "e")
        if out == "me":
            return "m"
        return out if out != "" else "e"

    # label "m" stands for -1
    def fix(z):
        return z

    mul = {(x, y): fix(mul_el(x, y)) for x in labels for y in labels}
    inv = {}
    for x in labels:
        for y in labels:
            if mul[(x, y)] == "e":
                inv[(x,)] = y
    return FiniteAlgebra(GP, "Q8", {GP.sorts[0]: labels},
                         {"mul": mul, "inv": inv, "e": {(): "e"}})


def quotient_by_normal_closure(alg: FiniteAlgebra, elements, name=None):
    """Quotient of a finite group by the normal closure of `elements`;
    returns (quotient algebra, projection AlgebraMap)."""
    sort = alg.theory.sorts[0]
    ident = alg.identity(sort)
    closure = {ident}
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        if x in closure:
            continue
        closure.add(x)
        for g in alg.carriers[sort]:
            conj = alg.gmul(alg.gmul(g, x, sort), alg.ginv(g, sort), sort)
            if conj not in closure:
                frontier.append(conj)
        for y in list(closure):
            for z in (alg.gmul(x, y, sort), alg.ginv(x, sort)):
                if z not in closure:
                    frontier.append(z)
    # cosets
    coset_of = {}
    reps = []
    for x in alg.carriers[sort]:
        if x in coset_of:
            continue
        members = sorted(alg.gmul(x, n, sort) for n in closure)
        rep = members[0]
        if rep not in coset_of:
            reps.append(rep)
        for m in members:
            coset_of[m] = rep
    labels = {r: f"q{idx}" for idx, r in enumerate(reps)}
    mul = {}
    for r1 in reps:
        for r2 in reps:
            mul[(labels[r1], labels[r2])] = labels[coset_of[alg.gmul(r1, r2, sort)]]
    inv = {(labels[r],): labels[coset_of[alg.ginv(r, sort)]] for r in reps}
    out = FiniteAlgebra(
        alg.theory, name or f"{alg.name}/N", {sort: [labels[r] for r in reps]},
        {"mul": mul, "inv": inv, "e": {(): labels[coset_of[ident]]}},
    )
    proj = AlgebraMap(
        alg, out, {sort: {x: labels[coset_of[x]] for x in alg.carriers[sort]}}
    )
    return out, proj


def abelianization_table(alg: FiniteAlgebra):
    """Abelianization of a finite group computed purely from its table."""
    sort = alg.theory.sorts[0]
    commutators = []
    for x in alg.carriers[sort]:
        for y in alg.carriers[sort]:
            c = alg.gmul(
                alg.gmul(x, y, sort),
                alg.gmul(alg.ginv(x, sort), alg.ginv(y, sort), sort),
                sort,
            )
            commutators.append(c)
    quo, _ = quotient_by_normal_closure(alg, commutators, name=f"{alg.name}_ab")
    from .abgroups import invariants_from_addition

    return invariants_from_addition(
        list(quo.carriers[sort]),
        lambda a, b: quo.gmul(a, b, sort),
        quo.identity(sort),
    )


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra):
    """An explicit isomorphism a -> b, or None (label-blind search)."""
    if any(
        len(a.carriers[s]) != len(b.carriers.get(s, ())) for s in a.theory.sorts
    ):
        return None
    for m in enumerate_homs(a, b):
        if m.is_bijective():
            return m
    return None
