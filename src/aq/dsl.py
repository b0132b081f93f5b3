"""Surface syntax for theory presentations (.thy files) and terms.

    theory Gp {
      sort g
      op mul : g g -> g
      op inv : g -> g
      op e : -> g
      eq mul(mul($x, $y), $z) = mul($x, mul($y, $z))
      ...
      group g { mul = mul, inv = inv, unit = e }
    }

Terms are prefix applications `f(t, ..., t)` with variables `$x`; a bare
identifier is accepted as sugar for a 0-ary application.
"""

from __future__ import annotations

from .terms import App, Term, Var, term_str
from .theories import OpDecl, TheoryPresentation


class DslSyntaxError(Exception):
    """A syntax error at line:col, prefixed by the file that holds it once
    a loader knows it (`parse_file`)."""

    def __init__(self, line, col, msg, path=None):
        where = f"{path}:{line}:{col}" if path else f"{line}:{col}"
        super().__init__(f"{where}: {msg}")
        self.line = line
        self.col = col
        self.msg = msg
        self.path = path


_IDENT_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.@/'|"
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def tokenize(text):
    """Tokens of a .thy or fixture text: identifiers (which may contain
    `.@/'|`), punctuation `-> { } ( ) : , = $ [ ] -`, and "quoted" strings
    that end on their own line; `#` starts a comment."""
    return list(_iter_tokens(text))


def _iter_tokens(text):
    """The tokens of `tokenize`, produced one at a time as they are read,
    ending with an `eof` token."""
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0 or "\n" in text[i:j]:
                raise DslSyntaxError(line, col, "unterminated string")
            yield _Token("string", text[i + 1:j], line, col)
            col += j - i + 1
            i = j + 1
            continue
        if text.startswith("->", i):
            yield _Token("punct", "->", line, col)
            i += 2
            col += 2
            continue
        if c in "{}():,=$[]-":
            yield _Token("punct", c, line, col)
            i += 1
            col += 1
            continue
        if c in _IDENT_CHARS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            yield _Token("ident", text[i:j], line, col)
            col += j - i
            i = j
            continue
        raise DslSyntaxError(line, col, f"unexpected character {c!r}")
    yield _Token("eof", "", line, col)


class _TokenPrefix(list):
    """The tokens of a text, tokenized only as far as a parser reads them:
    for reading the header of a file without tokenizing its body."""

    def __init__(self, text):
        super().__init__()
        self._stream = _iter_tokens(text)

    def __getitem__(self, i):
        while len(self) <= i:
            self.append(next(self._stream))
        return super().__getitem__(i)


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.text != text:
            raise DslSyntaxError(t.line, t.col, f"expected {text!r}, got {t.text!r}")
        return t

    def expect_ident(self):
        t = self.next()
        if t.kind != "ident":
            raise DslSyntaxError(t.line, t.col, f"expected identifier, got {t.text!r}")
        return t.text

    def parse_term(self) -> Term:
        t = self.peek()
        if t.text == "$":
            self.next()
            return Var(self.expect_ident())
        name = self.expect_ident()
        if self.peek().text == "(":
            self.next()
            args = []
            if self.peek().text != ")":
                args.append(self.parse_term())
                while self.peek().text == ",":
                    self.next()
                    args.append(self.parse_term())
            self.expect(")")
            return App(name, tuple(args))
        return App(name, ())

    def parse_theory(self) -> TheoryPresentation:
        self.expect("theory")
        name = self.expect_ident()
        self.expect("{")
        sorts, ops, equations = [], [], []
        witness = {}
        while self.peek().text != "}":
            tok = self.peek()
            kw = self.expect_ident()
            if kw == "sort":
                sorts.append(self.expect_ident())
                while self.peek().kind == "ident" and self.peek().text not in (
                    "sort", "op", "eq", "group",
                ):
                    sorts.append(self.expect_ident())
            elif kw == "op":
                opname = self.expect_ident()
                self.expect(":")
                args = []
                while self.peek().text != "->":
                    args.append(self.expect_ident())
                self.expect("->")
                ops.append(OpDecl(opname, tuple(args), self.expect_ident()))
            elif kw == "eq":
                lhs = self.parse_term()
                self.expect("=")
                rhs = self.parse_term()
                equations.append((lhs, rhs))
            elif kw == "group":
                sort = self.expect_ident()
                self.expect("{")
                fields = {}
                for i, field in enumerate(("mul", "inv", "unit")):
                    if i:
                        self.expect(",")
                    self.expect(field)
                    self.expect("=")
                    fields[field] = self.expect_ident()
                self.expect("}")
                witness[sort] = (fields["mul"], fields["inv"], fields["unit"])
            else:
                raise DslSyntaxError(tok.line, tok.col, f"unknown declaration {kw!r}")
        self.expect("}")
        self.expect_eof_or_more()
        return TheoryPresentation(name, sorts, ops, equations, witness)

    def expect_eof_or_more(self):
        t = self.peek()
        if t.kind != "eof":
            raise DslSyntaxError(t.line, t.col, f"trailing input {t.text!r}")


def parse_theory(text) -> TheoryPresentation:
    """Parse and validate a theory; recognizes registered classes so the
    normal-form machinery applies to standard presentations."""
    t = _Parser(tokenize(text)).parse_theory()
    _recognize_class(t)
    return t


def parse_file(path, parse, **kwargs):
    """parse(text of the file `path`, **kwargs).  A DslSyntaxError in that
    text is reported at path:line:col; one that already names a file (a
    file the text refers to, such as an .xmod `base`) keeps it."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text, **kwargs)
    except DslSyntaxError as exc:
        if exc.path is not None:
            raise
        raise DslSyntaxError(exc.line, exc.col, exc.msg, path) from None


def parse_term(text) -> Term:
    p = _Parser(tokenize(text))
    t = p.parse_term()
    p.expect_eof_or_more()
    return t


def _recognize_class(t: TheoryPresentation):
    from .theories import validate_group_structure

    if not t.ops:
        t.class_tag = "discrete"
        return
    if len(t.sorts) == 1 and len(t.ops) == 3:
        witness = validate_group_structure(t)
        if witness:
            mul, _, _ = witness.triples[t.sorts[0]]
            x, y = Var("x"), Var("y")
            if t.has_equation((App(mul, (x, y)), App(mul, (y, x)))):
                from .rings import Ring

                t.class_tag = "abelian"
                t.ring = Ring("Z")
                t.strength_flag = True
            else:
                t.class_tag = "group"


def print_theory(t: TheoryPresentation) -> str:
    lines = [f"theory {t.name} {{"]
    for s in t.sorts:
        lines.append(f"  sort {s}")
    for op in t.ops:
        args = " ".join(op.args)
        sep = " " if args else ""
        lines.append(f"  op {op.name} :{sep and ' ' + args or ''} -> {op.result}")
    for lhs, rhs in t.equations:
        lines.append(f"  eq {term_str(lhs)} = {term_str(rhs)}")
    for sort, (mul, inv, unit) in t.group_witness.items():
        lines.append(
            f"  group {sort} {{ mul = {mul}, inv = {inv}, unit = {unit} }}"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
