"""Theory presentations for multi-sorted equational theories, the group
structure ("g-theory") machinery, and the derived theory constructions:
discrete, product, abelianization, comma, and module theories.
"""

from __future__ import annotations

from .errors import AlgebraError
from .rings import Ring
from .terms import (
    App,
    Term,
    Var,
    equations_equal_up_to_renaming,
    rename_canonical,
    substitute,
    term_str,
    variables,
)


class TheoryError(Exception):
    pass


class SortingError(TheoryError):
    """An ill-sorted term; the message names the offending term."""


class DuplicateNameError(TheoryError):
    pass


class OpDecl:
    __slots__ = ("name", "args", "result")

    def __init__(self, name, args, result):
        self.name = name
        self.args = tuple(args)
        self.result = result

    def __eq__(self, other):
        return (
            isinstance(other, OpDecl)
            and (self.name, self.args, self.result)
            == (other.name, other.args, other.result)
        )

    def __repr__(self):
        return f"OpDecl({self.name!r}, {list(self.args)!r}, {self.result!r})"


class TheoryPresentation:
    """Sorts, operations and equations, plus an optional per-sort group
    structure witness and a registry tag for the normal-form engine.

    class_tag is one of "discrete", "group", "abelian", "module", "enum";
    "module" carries the coefficient ring in `ring`.
    """

    def __init__(self, name, sorts, ops, equations, group_witness=None,
                 strength_flag=False, class_tag="enum", ring=None):
        self.name = name
        self.sorts = tuple(sorts)
        self.ops = list(ops)
        self.equations = list(equations)
        self.group_witness = dict(group_witness or {})
        self.strength_flag = strength_flag
        self.class_tag = class_tag
        self.ring = ring
        self.op_index = {}
        self._group_structure = None
        self.validate()

    def validate(self):
        if len(set(self.sorts)) != len(self.sorts):
            raise DuplicateNameError(f"duplicate sort in {self.name}")
        self.op_index = {}
        for op in self.ops:
            if op.name in self.op_index:
                raise DuplicateNameError(f"duplicate op {op.name!r} in {self.name}")
            for s in list(op.args) + [op.result]:
                if s not in self.sorts:
                    raise SortingError(
                        f"op {op.name!r} mentions undeclared sort {s!r}"
                    )
            self.op_index[op.name] = op
        for lhs, rhs in self.equations:
            self.infer_equation_sorts(lhs, rhs)
        for sort, (mul, inv, unit) in self.group_witness.items():
            missing = self.missing_group_axioms(sort, mul, inv, unit)
            if missing:
                raise TheoryError(
                    f"group witness on sort {sort!r} lacks axioms: {missing}"
                )

    # -- sorting ----------------------------------------------------------

    def sort_of(self, t: Term, env):
        """Sort of a term given a variable-sort environment; extends env."""
        if isinstance(t, Var):
            if t.name not in env:
                raise SortingError(f"cannot infer sort of variable ${t.name}")
            return env[t.name]
        op = self.op_index.get(t.op)
        if op is None:
            raise SortingError(f"unknown op in term {term_str(t)}")
        if len(t.args) != len(op.args):
            raise SortingError(f"arity mismatch in term {term_str(t)}")
        for a, expected in zip(t.args, op.args):
            if isinstance(a, Var):
                got = env.setdefault(a.name, expected)
                if got != expected:
                    raise SortingError(
                        f"variable ${a.name} used at sorts {got!r} and "
                        f"{expected!r} in {term_str(t)}"
                    )
            else:
                got = self.sort_of(a, env)
                if got != expected:
                    raise SortingError(f"ill-sorted term {term_str(t)}")
        return op.result

    def infer_equation_sorts(self, lhs, rhs):
        """Common result sort and variable environment of an equation."""
        env = {}
        # two passes so variables constrained on either side propagate
        for _ in range(2):
            ls = self.sort_of(lhs, env) if not isinstance(lhs, Var) else None
            rs = self.sort_of(rhs, env) if not isinstance(rhs, Var) else None
        if isinstance(lhs, Var):
            ls = env.get(lhs.name, rs)
            env.setdefault(lhs.name, ls)
        if isinstance(rhs, Var):
            rs = env.get(rhs.name, ls)
            env.setdefault(rhs.name, rs)
        if ls is None or rs is None or ls != rs:
            raise SortingError(
                f"equation sides have sorts {ls!r} != {rs!r}: "
                f"{term_str(lhs)} = {term_str(rhs)}"
            )
        return ls, env

    # -- group structure ---------------------------------------------------

    def group_axioms(self, sort, mul, inv, unit):
        x, y, z = Var("x"), Var("y"), Var("z")
        m = lambda a, b: App(mul, (a, b))
        e = App(unit, ())
        return {
            "associativity": (m(m(x, y), z), m(x, m(y, z))),
            "left-unit": (m(e, x), x),
            "right-unit": (m(x, e), x),
            "left-inverse": (m(App(inv, (x,)), x), e),
            "right-inverse": (m(x, App(inv, (x,))), e),
        }

    def group_structure(self):
        """`validate_group_structure` of this theory, derived once and
        again only when its sorts, ops, equations or witness have changed
        since."""
        key = (self.sorts, [(op.name, op.args, op.result) for op in self.ops],
               [tuple(eq) for eq in self.equations], dict(self.group_witness))
        if self._group_structure is None or self._group_structure[0] != key:
            self._group_structure = key, validate_group_structure(self)
        return self._group_structure[1]

    def has_equation(self, eq):
        return any(
            equations_equal_up_to_renaming(eq, other) for other in self.equations
        )

    def missing_group_axioms(self, sort, mul, inv, unit):
        mo = self.op_index.get(mul)
        io = self.op_index.get(inv)
        uo = self.op_index.get(unit)
        if not (mo and mo.args == (sort, sort) and mo.result == sort):
            return ["mul"]
        if not (io and io.args == (sort,) and io.result == sort):
            return ["inv"]
        if not (uo and uo.args == () and uo.result == sort):
            return ["unit"]
        missing = []
        for name, eq in self.group_axioms(sort, mul, inv, unit).items():
            if not self.has_equation(eq):
                missing.append(name)
        return missing

    # -- misc ---------------------------------------------------------------

    def add_equation_if_new(self, eq):
        if not self.has_equation(eq):
            self.equations.append(eq)

    def rename(self, name):
        return TheoryPresentation(
            name, self.sorts, self.ops, self.equations, self.group_witness,
            self.strength_flag, self.class_tag, self.ring,
        )

    def __repr__(self):
        return (
            f"TheoryPresentation({self.name!r}, sorts={len(self.sorts)}, "
            f"ops={len(self.ops)}, eqs={len(self.equations)}, tag={self.class_tag})"
        )


class GTheoryWitness:
    """Per-sort (mul, inv, unit) triples with all group axioms verified."""

    def __init__(self, theory, triples, strength_flag):
        self.theory = theory
        self.triples = dict(triples)
        self.strength_flag = strength_flag

    def __bool__(self):
        return True


class GTheoryFailure:
    def __init__(self, theory, missing):
        self.theory = theory
        self.missing = dict(missing)  # sort -> list of missing axiom names

    def __bool__(self):
        return False


class TheoryMap:
    """A map of theory presentations: sorts to sorts, ops to derived terms.

    op_map sends each source op to a target term over variables $x0..$xN
    standing for the op's arguments (in order).
    """

    def __init__(self, source, target, sort_map, op_map):
        self.source = source
        self.target = target
        self.sort_map = dict(sort_map)
        self.op_map = dict(op_map)
        self.validate(2)

    def apply_term(self, t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = [self.apply_term(a) for a in t.args]
        image = self.op_map[t.op]
        env = {f"x{i}": a for i, a in enumerate(args)}
        return substitute(image, {k: env.get(k, Var(k)) for k in _term_vars(image)})

    def validate(self, bound):
        for s in self.source.sorts:
            if self.sort_map.get(s) not in self.target.sorts:
                raise TheoryError(f"sort {s!r} not mapped into target")
        for op in self.source.ops:
            if op.name not in self.op_map:
                raise TheoryError(f"op {op.name!r} has no image")
            env = {f"x{i}": self.sort_map[a] for i, a in enumerate(op.args)}
            image = self.op_map[op.name]
            got = self.target.sort_of(image, dict(env))
            if got != self.sort_map[op.result]:
                raise SortingError(
                    f"image of op {op.name!r} has sort {got!r}"
                )
        for eq in self.source.equations:
            img = (self.apply_term(eq[0]), self.apply_term(eq[1]))
            if not self._holds_in_target(img, bound):
                raise TheoryError(
                    f"equation image fails in target: "
                    f"{term_str(img[0])} = {term_str(img[1])}"
                )

    def _holds_in_target(self, eq, bound):
        # syntactic presence, then normalization for registered classes,
        # then bounded substitution search
        if self.target.has_equation(eq):
            return True
        from .algebras import entails_by_normalization

        verdict = entails_by_normalization(self.target, eq, bound)
        return verdict is not False


def _term_vars(t):
    return set(variables(t))


# ---------------------------------------------------------------------------
# builtin theories

def group_theory(name="Gp", sort="g"):
    ops = [OpDecl("mul", (sort, sort), sort), OpDecl("inv", (sort,), sort),
           OpDecl("e", (), sort)]
    t = TheoryPresentation(name, [sort], ops, [], class_tag="group")
    axioms = t.group_axioms(sort, "mul", "inv", "e")
    t.equations = list(axioms.values())
    t.group_witness = {sort: ("mul", "inv", "e")}
    t.validate()
    return t


def abelian_theory(name="Ab"):
    t = group_theory(name)
    x, y = Var("x"), Var("y")
    t.equations.append((App("mul", (x, y)), App("mul", (y, x))))
    t.class_tag = "abelian"
    t.strength_flag = True
    t.ring = Ring("Z")
    t.validate()
    return t


def trivial_theory(name="Triv"):
    return TheoryPresentation(name, ["g"], [], [], class_tag="discrete")


def zmod_module_theory(m):
    """Theory of Z/m-modules: abelian groups killed by m."""
    t = abelian_theory(f"Mod-Z/{m}")
    x = Var("x")
    acc = x
    for _ in range(m - 1):
        acc = App("mul", (x, acc))
    t.equations.append((acc, App("e", ())))
    t.class_tag = "module"
    t.ring = Ring("Zmod", m=m)
    t.validate()
    return t


def validate_group_structure(t: TheoryPresentation):
    """Find or verify a (mul, inv, unit) triple per sort; failure reports
    the missing axioms per sort instead of raising."""
    triples = {}
    missing_report = {}
    for sort in t.sorts:
        if sort in t.group_witness:
            cands = [t.group_witness[sort]]
        else:
            muls = [o.name for o in t.ops if o.args == (sort, sort) and o.result == sort]
            invs = [o.name for o in t.ops if o.args == (sort,) and o.result == sort]
            units = [o.name for o in t.ops if o.args == () and o.result == sort]
            cands = [(m, i, u) for m in muls for i in invs for u in units]
            if not cands:
                missing_report[sort] = ["mul"] if not muls else (
                    ["inv"] if not invs else ["unit"])
                continue
        best = None
        for cand in cands:
            missing = t.missing_group_axioms(sort, *cand)
            if not missing:
                triples[sort] = cand
                best = None
                break
            if best is None or len(missing) < len(best[1]):
                best = (cand, missing)
        if sort not in triples:
            missing_report[sort] = best[1]
    if missing_report:
        return GTheoryFailure(t, missing_report)
    strength = _all_ops_homomorphic(t, triples)
    return GTheoryWitness(t, triples, strength)


def _all_ops_homomorphic(t, triples):
    for op in t.ops:
        if not op.args:
            continue
        if any(s not in triples for s in list(op.args) + [op.result]):
            return False
        mul_r = triples[op.result][0]
        eq = _interchange_equation(op, lambda s: (triples[s][0], 2))
        if eq is not None and not t.has_equation(eq):
            return False
    return True


def _interchange_equation(f: OpDecl, phi_of_sort):
    """f(g(x..), g(y..), ...) = g(f(x,y..), ...) for a graded op g."""
    g_res, arity = phi_of_sort(f.result)
    cols = []
    for k in range(arity):
        cols.append([Var(f"x{k}_{i}") for i in range(len(f.args))])
    lhs_args = []
    for i, s in enumerate(f.args):
        g_s, _ = phi_of_sort(s)
        lhs_args.append(App(g_s, tuple(cols[k][i] for k in range(arity))))
    lhs = App(f.name, tuple(lhs_args))
    rhs = App(g_res, tuple(App(f.name, tuple(cols[k])) for k in range(arity)))
    return (lhs, rhs)


def discrete_theory(t: TheoryPresentation):
    """Same sorts, no ops, no equations."""
    return TheoryPresentation(
        f"{t.name}^d", t.sorts, [], [], class_tag="discrete"
    )


def product_theory(phi: TheoryPresentation, theta: TheoryPresentation):
    """Add an S-graded copy of the (singly sorted) theory phi to theta and
    force all theta operations to commute with the new ones."""
    if len(phi.sorts) != 1:
        raise TheoryError("phi must be singly sorted")
    phi_sort = phi.sorts[0]

    def phi_op_name(op, sort):
        base = f"{phi.name}.{op}"
        return base if len(theta.sorts) == 1 else f"{base}@{sort}"

    ops = list(theta.ops)
    for sort in theta.sorts:
        for op in phi.ops:
            new = phi_op_name(op.name, sort)
            if any(o.name == new for o in ops):
                new = new + "'"
            ops.append(OpDecl(new, tuple(sort for _ in op.args), sort))

    out = TheoryPresentation(
        f"{phi.name}.{theta.name}", theta.sorts, ops,
        list(theta.equations),
        group_witness=theta.group_witness, class_tag="enum",
    )
    # phi's own equations, once per sort
    for sort in theta.sorts:
        rename = {op.name: phi_op_name(op.name, sort) for op in phi.ops}
        for lhs, rhs in phi.equations:
            out.add_equation_if_new((_rename_ops(lhs, rename), _rename_ops(rhs, rename)))
    # commuting squares: every theta op against every phi op
    for f in theta.ops:
        if not f.args:
            continue
        for g in phi.ops:
            eq = _interchange_equation(
                f, lambda s: (phi_op_name(g.name, s), len(g.args))
            )
            out.add_equation_if_new(eq)
    out.validate()
    return out


def _rename_ops(t: Term, rename):
    if isinstance(t, Var):
        return t
    return App(rename.get(t.op, t.op), tuple(_rename_ops(a, rename) for a in t.args))


def abelianization_theory(theta: TheoryPresentation):
    """Quotient presentation making every algebra an abelian group object:
    commutativity at each sort plus the commuting squares of all ops
    against the witnessed group structure."""
    witness = validate_group_structure(theta)
    if not witness:
        raise TheoryError(f"{theta.name} is not a g-theory: {witness.missing}")
    out = TheoryPresentation(
        f"{theta.name}_ab", theta.sorts, theta.ops, list(theta.equations),
        group_witness=theta.group_witness or {
            s: witness.triples[s] for s in theta.sorts},
        class_tag=theta.class_tag, ring=theta.ring, strength_flag=True,
    )
    new_eqs = []
    for sort in theta.sorts:
        mul, inv, unit = witness.triples[sort]
        x, y = Var("x"), Var("y")
        new_eqs.append((App(mul, (x, y)), App(mul, (y, x))))
    for f in theta.ops:
        if not f.args:
            continue
        for pick in (0, 1, 2):  # mul, inv, unit of each sort's witness
            new_eqs.append(_interchange_equation(
                f, lambda s: (witness.triples[s][pick], (2, 1, 0)[pick])
            ))
    from .algebras import entails_by_normalization

    for eq in new_eqs:
        if rename_canonical(eq)[0] == rename_canonical(eq)[1]:
            continue
        if entails_by_normalization(theta, eq) is True:
            continue
        out.add_equation_if_new(eq)
    if out.class_tag == "group":
        out.class_tag = "abelian"
        out.ring = Ring("Z")
    out.validate()
    return out


def comma_theory(theta: TheoryPresentation, x):
    """The theory of theta-algebras over the finite algebra x: sorts are
    indexed by elements of x, ops by element tuples (fiberwise ops)."""
    _require_finite(x, theta)
    sorts = []
    for s in theta.sorts:
        for c in x.carriers[s]:
            sorts.append(_fiber_sort(s, c))
    ops = []
    for f in theta.ops:
        for tup in _tuples(x, f.args):
            res = x.apply(f.name, tup)
            ops.append(OpDecl(
                _fiber_op(f.name, tup),
                tuple(_fiber_sort(s, c) for s, c in zip(f.args, tup)),
                _fiber_sort(f.result, res),
            ))
    out = TheoryPresentation(f"{theta.name}/{x.name}", sorts, ops, [],
                             class_tag="enum")
    for lhs, rhs in theta.equations:
        _, env = theta.infer_equation_sorts(lhs, rhs)
        names = sorted(env)
        for assignment in _tuples(x, [env[v] for v in names]):
            amap = dict(zip(names, assignment))
            new_l, lv = _fiber_term(theta, x, lhs, amap)
            new_r, rv = _fiber_term(theta, x, rhs, amap)
            if lv != rv:
                raise AlgebraError(
                    f"base algebra {x.name} violates the theory equation "
                    f"{term_str(lhs)} = {term_str(rhs)} at {amap}")
            out.add_equation_if_new((new_l, new_r))
    out.validate()
    return out


def _fiber_sort(sort, elem):
    return f"{sort}@{elem}"


def _fiber_op(op, tup):
    return f"{op}@{'.'.join(tup)}" if tup else f"{op}@"


def _fiber_term(theta, x, t: Term, assignment):
    """Annotate a term with base-algebra elements; returns (term, value)."""
    if isinstance(t, Var):
        return t, assignment[t.name]
    new_args = []
    vals = []
    for a in t.args:
        na, v = _fiber_term(theta, x, a, assignment)
        new_args.append(na)
        vals.append(v)
    value = x.apply(t.op, tuple(vals))
    return App(_fiber_op(t.op, tuple(vals)), tuple(new_args)), value


def _tuples(x, sorts):
    from itertools import product

    pools = [x.carriers[s] for s in sorts]
    return product(*pools) if pools else [()]


def module_theory(theta: TheoryPresentation, x):
    """Theta_X: the abelianized theory plus one unary action op per element
    of x, with unit/additivity/composition axioms.  Algebras are modules
    over the (graded) group ring of the underlying group of x."""
    _require_finite(x, theta)
    tab = abelianization_theory(theta)
    if x.order() == 1:
        return tab.rename(f"{theta.name}_{x.name}")
    witness = validate_group_structure(theta)
    if not witness:
        raise TheoryError("module_theory needs a g-theory")
    sorts = theta.sorts
    ops = list(tab.ops)
    for s in sorts:
        for c in x.carriers[s]:
            ops.append(OpDecl(_act_op(s, c, sorts), (s,), s))
    out = TheoryPresentation(
        f"{theta.name}_{x.name}", sorts, ops, list(tab.equations),
        group_witness=tab.group_witness, strength_flag=True, class_tag="enum",
    )
    v, w = Var("v"), Var("w")
    for s in sorts:
        mul, inv, unit = witness.triples[s]
        ident = x.identity(s)
        act = lambda c, t: App(_act_op(s, c, sorts), (t,))
        # unit element acts as the identity
        out.add_equation_if_new((act(ident, v), v))
        # every action is additive
        for c in x.carriers[s]:
            out.add_equation_if_new(
                (act(c, App(mul, (v, w))), App(mul, (act(c, v), act(c, w))))
            )
        # composition against a generating set suffices on a finite group
        gens = x.generating_set(s)
        for c in x.carriers[s]:
            for g in gens:
                out.add_equation_if_new(
                    (act(c, act(g, v)), act(x.apply(mul, (c, g)), v))
                )
    out.class_tag = "module"
    out.ring = x.group_ring(x.theory.sorts[0])
    out.validate()
    return out


def _act_op(sort, elem, sorts):
    return f"act_{elem}" if len(sorts) == 1 else f"act_{sort}@{elem}"


def _require_finite(x, theta):
    if getattr(x, "carriers", None) is None:
        raise TheoryError("base algebra must be finite (explicit carriers)")
    if x.theory.sorts != theta.sorts:
        raise TheoryError("base algebra is not an algebra of the given theory")
