"""Terms over a multi-sorted signature: variables and prefix applications."""

from __future__ import annotations


class Term:
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self):
        return hash(("var", self.name))

    def __repr__(self):
        return f"Var({self.name!r})"


class App(Term):
    __slots__ = ("op", "args")

    def __init__(self, op, args=()):
        self.op = op
        self.args = tuple(args)

    def __eq__(self, other):
        return isinstance(other, App) and self.op == other.op and self.args == other.args

    def __hash__(self):
        return hash(("app", self.op, self.args))

    def __repr__(self):
        return f"App({self.op!r}, {list(self.args)!r})"


def term_str(t: Term) -> str:
    if isinstance(t, Var):
        return f"${t.name}"
    return f"{t.op}({', '.join(term_str(a) for a in t.args)})"


def variables(t: Term):
    """Variable names in order of first occurrence."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.name not in out:
                out.append(u.name)
        else:
            stack.extend(reversed(u.args))
    return out


def substitute(t: Term, env) -> Term:
    if isinstance(t, Var):
        return env[t.name]
    return App(t.op, tuple(substitute(a, env) for a in t.args))


def rename_canonical(pair):
    """Rename the variables of an equation to v0, v1, ... in order of first
    occurrence across both sides; used for renaming-insensitive comparison."""
    lhs, rhs = pair
    order = variables(lhs)
    for name in variables(rhs):
        if name not in order:
            order.append(name)
    env = {name: Var(f"v{i}") for i, name in enumerate(order)}
    return substitute(lhs, env), substitute(rhs, env)


def equations_equal_up_to_renaming(eq1, eq2):
    a = rename_canonical(eq1)
    if a == rename_canonical(eq2):
        return True
    return a == rename_canonical((eq2[1], eq2[0]))
