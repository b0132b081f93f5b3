"""Fixture file formats: .thy (theories, see dsl), .alg (finite algebras
by table or presentation), .xmod (modules over a base algebra), .sres
(simplicial resolutions by term images, or chain complexes by matrices).

All formats share the .thy tokenizer; matrices use dense integer rows in
brackets, terms use the DSL term syntax.
"""

from __future__ import annotations

import os

from .abgroups import FinAb
from .algebras import (
    AB,
    GP,
    AlgebraError,
    AlgebraMap,
    FiniteAlgebra,
    FreeAlgebra,
    cyclic_group,
    realize_presentation,
)
from .beck import XModule
from .dsl import DslSyntaxError, _Parser, parse_theory
from .rings import Ring, RingDescriptorError, parse_ring
from .simplicial import ChainComplex, SimplicialTheta, dold_kan
from .theories import TheoryPresentation, module_theory, zmod_module_theory


class FixtureError(Exception):
    pass


def builtin_theory(name: str) -> TheoryPresentation:
    if name == "gp":
        return GP
    if name == "ab":
        return AB
    if name.startswith("mod:"):
        try:
            ring = parse_ring(name[len("mod:"):])
        except RingDescriptorError as exc:
            raise FixtureError(f"unknown builtin theory {name!r}: {exc}") from exc
        if ring.kind == "Z":
            return AB
        if ring.kind == "Zmod":
            return zmod_module_theory(ring.m)
        return module_theory(GP, cyclic_group(ring.group.order()))
    raise FixtureError(f"unknown builtin theory {name!r}")


class _FixtureParser(_Parser):
    def parse_matrix(self):
        # [[1, 2], [3, 4]] with integer entries
        self.expect("[")
        rows = []
        while self.peek().text != "]":
            rows.append(self.parse_int_row())
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return rows

    def parse_int_row(self):
        self.expect("[")
        row = []
        while self.peek().text != "]":
            row.append(self.parse_int())
            if self.peek().text == ",":
                self.next()
        self.expect("]")
        return row

    def parse_int(self):
        tok = self.next()
        text = tok.text
        if text == "-":
            text = "-" + self.next().text
        try:
            return int(text)
        except ValueError:
            raise DslSyntaxError(tok.line, tok.col, f"expected integer, got {text!r}")

    def parse_string_ref(self):
        tok = self.next()
        if tok.kind != "string":
            raise DslSyntaxError(tok.line, tok.col, "expected a quoted path")
        return tok.text


def _tokenize_fixture(text):
    # extend the DSL tokenizer with brackets, minus signs and strings
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    ident_chars = set(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.@/'"
    )
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
            j = text.index('"', i + 1)
            tok = _Tok("string", text[i + 1:j], line, col)
            tokens.append(tok)
            col += j - i + 1
            i = j + 1
            continue
        if text.startswith("->", i):
            tokens.append(_Tok("punct", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "{}():,=$[]-":
            tokens.append(_Tok("punct", c, line, col))
            i += 1
            col += 1
            continue
        if c in ident_chars:
            j = i
            while j < n and text[j] in ident_chars:
                j += 1
            tokens.append(_Tok("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(line, col, f"unexpected character {c!r}")
    tokens.append(_Tok("eof", "", line, col))
    return tokens


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _theory_ref(p: _FixtureParser, base_dir):
    p.expect("theory")
    tok = p.peek()
    if tok.kind == "string":
        path = p.parse_string_ref()
        with open(os.path.join(base_dir, path)) as fh:
            return parse_theory(fh.read())
    name = p.expect_ident()
    if p.peek().text == ":":
        p.next()
        name += ":" + p.expect_ident()
        if p.peek().text == "[":
            p.next()
            name += "[" + p.expect_ident() + "]"
            p.expect("]")
    return builtin_theory(name)


def load_algebra(path) -> FiniteAlgebra:
    with open(path) as fh:
        text = fh.read()
    return parse_algebra(text, base_dir=os.path.dirname(path), source=path)


def _eval_at(free, term, where):
    """free.eval_term(term); a term it cannot evaluate is a fixture error
    at `where` (path:line of the entry holding the term)."""
    try:
        return free.eval_term(term)
    except AlgebraError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _free_at(theory, gens, where):
    """FreeAlgebra(theory, gens); a generator list it rejects is a fixture
    error at `where` (path:line of the entry that lists the generators)."""
    try:
        return FreeAlgebra(theory, gens)
    except AlgebraError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def parse_algebra(text, base_dir="", source="<algebra>") -> FiniteAlgebra:
    p = _FixtureParser(_tokenize_fixture(text))
    p.expect("algebra")
    name = p.expect_ident()
    p.expect("{")
    theory = _theory_ref(p, base_dir)
    kw = p.expect_ident()
    if kw == "table":
        alg = _parse_table_block(p, theory, name)
    elif kw == "presentation":
        alg = _parse_presentation_block(p, theory, name, source)
    else:
        raise FixtureError(f"unknown algebra block {kw!r}")
    p.expect("}")
    return alg


def _parse_table_block(p, theory, name):
    p.expect("{")
    carriers = {}
    tables = {}
    while p.peek().text != "}":
        kw = p.expect_ident()
        if kw == "sort":
            s = p.expect_ident()
            p.expect(":")
            els = []
            while p.peek().kind == "ident" and p.peek().text not in ("sort", "op"):
                els.append(p.expect_ident())
            carriers[s] = els
        elif kw == "op":
            opname = p.expect_ident()
            p.expect(":")
            tab = {}
            while p.peek().text == "(":
                p.expect("(")
                tup = []
                while p.peek().text != ")":
                    tup.append(p.expect_ident())
                    if p.peek().text == ",":
                        p.next()
                p.expect(")")
                p.expect("->")
                tab[tuple(tup)] = p.expect_ident()
            tables[opname] = tab
        else:
            raise FixtureError(f"unknown table entry {kw!r}")
    p.expect("}")
    return FiniteAlgebra(theory, name, carriers, tables)


def _parse_presentation_block(p, theory, name, source):
    p.expect("{")
    gens = []
    rels = []
    rel_lines = []
    bound = 256
    gens_line = None
    while p.peek().text != "}":
        line = p.peek().line
        kw = p.expect_ident()
        if kw == "gens":
            gens_line = gens_line or line
            p.expect_ident()  # sort name
            p.expect(":")
            while p.peek().kind == "ident" and p.peek().text not in (
                "gens", "rel", "realize",
            ):
                gens.append(p.expect_ident())
        elif kw == "rel":
            rel_lines.append(p.peek().line)
            lhs = p.parse_term()
            if p.peek().text == "=":
                p.next()
                rels.append((lhs, p.parse_term()))
            else:
                rels.append(lhs)
        elif kw == "realize":
            p.expect("bound")
            p.expect("=")
            bound = p.parse_int()
        else:
            raise FixtureError(f"unknown presentation entry {kw!r}")
    p.expect("}")
    free = _free_at(theory, gens, f"{source}:{gens_line}")
    for rel, line in zip(rels, rel_lines):
        for term in rel if isinstance(rel, tuple) else (rel,):
            _eval_at(free, term, f"{source}:{line}")
    return realize_presentation(theory, gens, rels, bound=bound, name=name)


def parse_module_presentation(text, base_dir="", source="<module>"):
    """A presentation-form .alg over a module theory, kept as an
    RModulePresentation (for the resolution pipeline)."""
    from .rings import RModulePresentation

    p = _FixtureParser(_tokenize_fixture(text))
    p.expect("algebra")
    name = p.expect_ident()
    p.expect("{")
    theory = _theory_ref(p, base_dir)
    ring = theory.ring if theory.ring else Ring("Z")
    kw = p.expect_ident()
    if kw != "presentation":
        raise FixtureError("module presentations need a presentation block")
    p.expect("{")
    gens = []
    rel_terms = []
    gens_line = None
    while p.peek().text != "}":
        line = p.peek().line
        kw2 = p.expect_ident()
        if kw2 == "gens":
            gens_line = gens_line or line
            p.expect_ident()
            p.expect(":")
            while p.peek().kind == "ident" and p.peek().text not in (
                "gens", "rel", "realize",
            ):
                gens.append(p.expect_ident())
        elif kw2 == "rel":
            line = p.peek().line
            lhs = p.parse_term()
            if p.peek().text == "=":
                p.next()
                rel_terms.append((lhs, p.parse_term(), line))
            else:
                rel_terms.append((lhs, None, line))
        elif kw2 == "realize":
            p.expect("bound")
            p.expect("=")
            p.parse_int()
        else:
            raise FixtureError(f"unknown presentation entry {kw2!r}")
    p.expect("}")
    p.expect("}")
    free = _free_at(theory, gens, f"{source}:{gens_line}")
    cols = []
    for lhs, rhs, line in rel_terms:
        where = f"{source}:{line}"
        word = _eval_at(free, lhs, where)
        if rhs is not None:
            word = free.mul(word, free.inv(_eval_at(free, rhs, where)))
        col = []
        wd = dict(word)
        for g in gens:
            c = wd.get(g, None)
            if c is None:
                col.append(ring.zero())
            else:
                from .algebras import _thaw

                col.append(_thaw(c, ring))
        cols.append(col)
    mod = RModulePresentation(ring, len(gens), cols)
    mod.name = name
    return mod


def load_xmodule(path, base=None) -> XModule:
    with open(path) as fh:
        text = fh.read()
    return parse_xmodule(text, base_dir=os.path.dirname(path), base=base,
                         source=path)


def parse_xmodule(text, base_dir="", base=None, source="<xmodule>") -> XModule:
    """The module of an .xmod text; a module that fails validation raises
    FixtureError at `source`:line of its first act entry (or its header)."""
    p = _FixtureParser(_tokenize_fixture(text))
    line = p.peek().line
    p.expect("xmodule")
    name = p.expect_ident()
    p.expect("{")
    moduli = None
    act = {}
    fhat_tables = []
    while p.peek().text != "}":
        kw = p.expect_ident()
        if kw == "base":
            path = p.parse_string_ref()
            loaded = load_algebra(os.path.join(base_dir, path))
            if base is None:
                base = loaded
        elif kw == "carrier":
            p.expect_ident()  # sort
            p.expect(":")
            moduli = []
            while p.peek().kind == "ident" and p.peek().text.isdigit():
                moduli.append(int(p.expect_ident()))
        elif kw == "act":
            if not act:
                line = p.peek().line
            el = p.expect_ident()
            p.expect(":")
            act[el] = p.parse_matrix()
        elif kw == "action":
            opname = p.expect_ident()
            p.expect("(")
            tup = []
            while p.peek().text != ")":
                tup.append(p.expect_ident())
                if p.peek().text == ",":
                    p.next()
            p.expect(")")
            p.expect("{")
            entries = {}
            while p.peek().text != "}":
                args = []
                if p.peek().text == "(":
                    p.expect("(")
                    while p.peek().text != ")":
                        args.append(p.expect_ident())
                        if p.peek().text == ",":
                            p.next()
                    p.expect(")")
                else:
                    args.append(p.expect_ident())
                p.expect("->")
                entries[tuple(args)] = p.expect_ident()
            p.expect("}")
            fhat_tables.append((opname, tuple(tup), entries))
        else:
            raise FixtureError(f"unknown xmodule entry {kw!r}")
    p.expect("}")
    if base is None:
        raise FixtureError("xmodule needs a base algebra")
    if moduli is None:
        raise FixtureError("xmodule needs a carrier")
    finab = FinAb([m for m in moduli if m > 1] or [1])
    if not act:
        act_mats = _derive_action_from_tables(base, finab, fhat_tables)
    else:
        act_mats = {el: m for el, m in act.items()}
        for el in base.carriers[base.theory.sorts[0]]:
            if el not in act_mats:
                raise FixtureError(f"missing act matrix for {el!r}")
    try:
        km = XModule(base, finab, act_mats, name=name)
    except AlgebraError as exc:
        raise FixtureError(f"{source}:{line}: xmodule {name}: {exc}") from exc
    _validate_fhat_tables(km, fhat_tables)
    return km


def _parse_carrier_element(token, finab):
    if token == "0":
        return finab.zero()
    coords = tuple(int(x) for x in token.split("."))
    assert len(coords) == len(finab.moduli)
    return finab.reduce(coords)


def _derive_action_from_tables(base, finab, fhat_tables):
    """x . k is read off the mul action table at the tuple (x, e)."""
    sort = base.theory.sorts[0]
    mul, _, _ = base.group_ops(sort)
    ident = base.identity(sort)
    per_element = {}
    for opname, tup, entries in fhat_tables:
        if opname != mul or len(tup) != 2 or tup[1] != ident:
            continue
        x = tup[0]
        dim = len(finab.moduli)
        cols = []
        for j in range(dim):
            basis = tuple(1 if i == j else 0 for i in range(dim))
            key = (_element_token(finab.zero()), _element_token(basis))
            img = entries.get(key)
            if img is None:
                raise FixtureError(
                    f"action table for ({x},{ident}) missing entry {key}"
                )
            cols.append(_parse_carrier_element(img, finab))
        per_element[x] = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    missing = [x for x in base.carriers[sort] if x not in per_element]
    if missing:
        raise FixtureError(f"cannot derive action for {missing}; add act blocks")
    return per_element


def _element_token(el):
    return "0" if not any(el) else ".".join(str(c) for c in el)


def _validate_fhat_tables(km: XModule, fhat_tables):
    """Explicit per-(op, tuple) tables must match the structural f_hat."""
    finab = km.carrier
    for opname, tup, entries in fhat_tables:
        fh = km.f_hat(opname, tup)
        for args, img in entries.items():
            ks = tuple(_parse_carrier_element(a, finab) for a in args)
            expected = fh(ks)
            got = _parse_carrier_element(img, finab)
            if expected != got:
                raise FixtureError(
                    f"action table for {opname}{tup} violates the module "
                    f"laws at {args}: expected {_element_token(expected)}"
                )


def load_sres(path):
    with open(path) as fh:
        text = fh.read()
    return parse_sres(text, base_dir=os.path.dirname(path), source=path)


def parse_sres(text, base_dir="", source="<sres>"):
    p = _FixtureParser(_tokenize_fixture(text))
    p.expect("sres")
    name = p.expect_ident()
    p.expect("{")
    tok = p.peek()
    if tok.text == "ring":
        p.next()
        try:
            ring = parse_ring(p.expect_ident())
        except RingDescriptorError as exc:
            raise FixtureError(f"{source}:{tok.line}: {exc}") from exc
        p.expect("chain")
        p.expect("{")
        p.expect("ranks")
        ranks = []
        while p.peek().kind == "ident" and p.peek().text.isdigit():
            ranks.append(p.parse_int())
        diffs = [None] + [None] * (len(ranks) - 1)
        while p.peek().text != "}":
            p.expect("d")
            idx = p.parse_int()
            p.expect(":")
            mat = p.parse_matrix()
            if ring.kind == "ZG":
                raise FixtureError("chain fixtures support Z and Z/m rings")
            diffs[idx] = mat
        p.expect("}")
        p.expect("}")
        for i in range(1, len(ranks)):
            if diffs[i] is None:
                diffs[i] = [[0] * ranks[i] for _ in range(ranks[i - 1])]
        cx = ChainComplex(ring, ranks, diffs)
        v = dold_kan(cx)
        v.name = name
        return v
    theory = _theory_ref(p, base_dir)
    over = None
    truncation = None
    level_gens = {}
    level_lines = {}
    faces = {}
    degens = {}
    augment = {}
    while p.peek().text != "}":
        line = p.peek().line
        kw = p.expect_ident()
        if kw == "over":
            over = load_algebra(os.path.join(base_dir, p.parse_string_ref()))
        elif kw == "truncation":
            truncation = p.parse_int()
        elif kw == "level":
            idx = p.parse_int()
            p.expect("{")
            p.expect("gens")
            p.expect_ident()
            p.expect(":")
            gens = []
            while p.peek().kind == "ident":
                gens.append(p.expect_ident())
            p.expect("}")
            level_gens[idx] = gens
            level_lines[idx] = line
        elif kw in ("face", "degen"):
            n = p.parse_int()
            i = p.parse_int()
            p.expect("{")
            images = {}
            while p.peek().text != "}":
                g = p.expect_ident()
                p.expect("->")
                images[g] = p.parse_term()
            p.expect("}")
            (faces if kw == "face" else degens)[(n, i)] = images
        elif kw == "augment":
            p.expect("{")
            while p.peek().text != "}":
                g = p.expect_ident()
                p.expect("->")
                augment[g] = p.expect_ident()
            p.expect("}")
        else:
            raise FixtureError(f"unknown sres entry {kw!r}")
    p.expect("}")
    if truncation is None:
        truncation = max(level_gens) if level_gens else 0
    levels = []
    for n in range(truncation + 1):
        if n not in level_gens:
            raise FixtureError(f"missing level {n}")
        levels.append(_free_at(theory, level_gens[n],
                               f"{source}:{level_lines[n]}"))
    face_maps = [[]]
    degen_maps = []
    for n in range(truncation + 1):
        if n >= 1:
            fs = []
            for i in range(n + 1):
                if (n, i) not in faces:
                    raise FixtureError(f"missing face {n} {i}")
                images = {
                    g: levels[n - 1].eval_term(t)
                    for g, t in faces[(n, i)].items()
                }
                fs.append(AlgebraMap.from_generator_images(
                    levels[n], levels[n - 1], images
                ))
            face_maps.append(fs)
        if n < truncation:
            ds = []
            for j in range(n + 1):
                if (n, j) not in degens:
                    raise FixtureError(f"missing degen {n} {j}")
                images = {
                    g: levels[n + 1].eval_term(t)
                    for g, t in degens[(n, j)].items()
                }
                ds.append(AlgebraMap.from_generator_images(
                    levels[n], levels[n + 1], images
                ))
            degen_maps.append(ds)
        else:
            degen_maps.append([])
    aug_map = None
    if over is not None:
        if set(augment) != set(level_gens[0]):
            raise FixtureError("augment block must cover level-0 generators")
        aug_map = AlgebraMap.from_generator_images(levels[0], over, augment)
    v = SimplicialTheta(theory, levels, face_maps, degen_maps, truncation,
                        augmentation=aug_map)
    v.name = name
    v.target = over
    return v


def write_sres(v: SimplicialTheta, name="resolution"):
    """Serialize a free simplicial algebra with term-image blocks."""
    from .terms import term_str

    sort = v.theory.sorts[0]
    lines = [f"sres {name} {{"]
    lines.append(f"  theory {'gp' if v.theory is GP else v.theory.name}")
    lines.append(f"  truncation {v.truncation}")
    for n, lv in enumerate(v.levels):
        lines.append(
            f"  level {n} {{ gens {sort} : " + " ".join(lv.generators[sort]) + " }"
        )
    for n in range(1, v.truncation + 1):
        for i, f in enumerate(v.faces[n]):
            lines.append(f"  face {n} {i} {{")
            for g in v.levels[n].generators[sort]:
                img = v.levels[n - 1].element_to_term(f.mapping[sort][g])
                lines.append(f"    {g} -> {term_str(img)}")
            lines.append("  }")
    for n in range(v.truncation):
        for j, s in enumerate(v.degens[n]):
            lines.append(f"  degen {n} {j} {{")
            for g in v.levels[n].generators[sort]:
                img = v.levels[n + 1].element_to_term(s.mapping[sort][g])
                lines.append(f"    {g} -> {term_str(img)}")
            lines.append("  }")
    if v.augmentation is not None:
        lines.append("  augment {")
        for g in v.levels[0].generators[sort]:
            lines.append(f"    {g} -> {v.augmentation.mapping[sort][g]}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
