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
from .dsl import (
    _IDENT_CHARS,
    DslSyntaxError,
    _Parser,
    _TokenPrefix,
    parse_file,
    parse_theory,
    tokenize,
)
from .rings import RModulePresentation, RingDescriptorError, parse_ring
from .simplicial import ChainComplex, SimplicialTheta, dold_kan
from .snf import _sparse_cols
from .theories import TheoryPresentation, module_theory, zmod_module_theory


class FixtureError(Exception):
    pass


_MODULE_THEORIES = {}  # (ring kind, m or group order) -> theory


def builtin_theory(name: str) -> TheoryPresentation:
    """gp, ab or mod:R; each is built once per process."""
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
        key = (ring.kind, ring.m or ring.group.order())
        if key not in _MODULE_THEORIES:
            _MODULE_THEORIES[key] = (
                zmod_module_theory(ring.m) if ring.kind == "Zmod"
                else module_theory(GP, cyclic_group(key[1])))
        return _MODULE_THEORIES[key]
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


def _theory_ref(p: _FixtureParser, base_dir):
    p.expect("theory")
    tok = p.peek()
    if tok.kind == "string":
        return parse_file(os.path.join(base_dir, p.parse_string_ref()),
                          parse_theory)
    name = p.expect_ident()
    if p.peek().text == ":":
        p.next()
        name += ":" + p.expect_ident() + _group_suffix(p)
    return builtin_theory(name)


def _group_suffix(p: _FixtureParser):
    """The `[Cm]` of a group-ring descriptor such as Z[Cm], which the lexer
    reads as three tokens after the `Z`; empty when none follows."""
    if p.peek().text != "[":
        return ""
    p.next()
    text = "[" + p.expect_ident() + "]"
    p.expect("]")
    return text


def load_algebra(path) -> FiniteAlgebra:
    alg = parse_file(path, parse_algebra, base_dir=os.path.dirname(path),
                     source=path)
    alg.path = os.path.realpath(path)
    return alg


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


def _algebra_header(p: _FixtureParser, base_dir):
    """`algebra NAME { theory REF`: the name, the theory and the line of
    the theory reference."""
    p.expect("algebra")
    name = p.expect_ident()
    p.expect("{")
    line = p.peek().line
    return name, _theory_ref(p, base_dir), line


def declared_theory(path) -> TheoryPresentation:
    """The theory that the `theory` line of an .alg file names, read from
    the tokens of the header alone: the body is tokenized once, by the
    parse that reads it."""
    def header_theory(text):
        p = _FixtureParser(_TokenPrefix(text))
        return _algebra_header(p, os.path.dirname(path))[1]

    return parse_file(path, header_theory)


def parse_algebra(text, base_dir="", source="<algebra>") -> FiniteAlgebra:
    p = _FixtureParser(tokenize(text))
    name, theory, _ = _algebra_header(p, base_dir)
    tok = p.peek()
    kw = p.expect_ident()
    if kw == "table":
        alg = _parse_table_block(p, theory, name, f"{source}:{tok.line}")
    elif kw == "presentation":
        alg = _parse_presentation_block(p, theory, name, source)
    else:
        raise DslSyntaxError(tok.line, tok.col,
                             f"unknown algebra block {kw!r}")
    p.expect("}")
    return alg


def _parse_table_block(p, theory, name, where):
    """The finite algebra of a `table` block; a table that is not total,
    leaves its carrier or fails an equation of the theory is a fixture
    error at `where` (path:line of the block)."""
    p.expect("{")
    carriers = {}
    tables = {}
    while p.peek().text != "}":
        tok = p.peek()
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
            raise DslSyntaxError(tok.line, tok.col,
                                 f"unknown table entry {kw!r}")
    p.expect("}")
    try:
        return FiniteAlgebra(theory, name, carriers, tables)
    except AlgebraError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _read_presentation_block(p):
    """The entries of a presentation block through its closing brace:
    the generators, the line of the first `gens` entry, per relation
    (lhs, rhs or None, line), and the `realize bound` (256 by default)."""
    p.expect("{")
    gens = []
    rels = []
    bound = 256
    gens_line = None
    while p.peek().text != "}":
        tok = p.peek()
        kw = p.expect_ident()
        if kw == "gens":
            gens_line = gens_line or tok.line
            p.expect_ident()  # sort name
            p.expect(":")
            while p.peek().kind == "ident" and p.peek().text not in (
                "gens", "rel", "realize",
            ):
                gens.append(p.expect_ident())
        elif kw == "rel":
            line = p.peek().line
            lhs = p.parse_term()
            rhs = None
            if p.peek().text == "=":
                p.next()
                rhs = p.parse_term()
            rels.append((lhs, rhs, line))
        elif kw == "realize":
            p.expect("bound")
            p.expect("=")
            bound = p.parse_int()
        else:
            raise DslSyntaxError(tok.line, tok.col,
                                 f"unknown presentation entry {kw!r}")
    p.expect("}")
    return gens, gens_line, rels, bound


def _evaluated_relations(theory, gens, gens_line, rels, source):
    """The free algebra on `gens` and each relation's sides evaluated
    there, (lhs, rhs or None); generators or a term it rejects are a
    fixture error at the path:line of their entry."""
    free = _free_at(theory, gens, f"{source}:{gens_line}")
    return free, [
        (_eval_at(free, lhs, f"{source}:{line}"),
         None if rhs is None else _eval_at(free, rhs, f"{source}:{line}"))
        for lhs, rhs, line in rels]


def _parse_presentation_block(p, theory, name, source):
    gens, gens_line, rels, bound = _read_presentation_block(p)
    # evaluated here only to report a bad term at its path:line
    _evaluated_relations(theory, gens, gens_line, rels, source)
    return realize_presentation(
        theory, gens, [lhs if rhs is None else (lhs, rhs)
                       for lhs, rhs, _ in rels], bound=bound, name=name)


def parse_module_presentation(text, base_dir="", source="<module>"):
    """A presentation-form .alg over a module theory, kept as an
    RModulePresentation (for the resolution pipeline)."""
    p = _FixtureParser(tokenize(text))
    name, theory, line = _algebra_header(p, base_dir)
    if theory.ring is None:
        raise FixtureError(
            f"{source}:{line}: theory {theory.name} is neither abelian nor "
            "a module theory")
    tok = p.peek()
    if p.expect_ident() != "presentation":
        raise DslSyntaxError(tok.line, tok.col, "module presentations need "
                             "a presentation block")
    gens, gens_line, rels, _ = _read_presentation_block(p)
    p.expect("}")
    free, sides = _evaluated_relations(theory, gens, gens_line, rels, source)
    mod = RModulePresentation(theory.ring, len(gens), [
        free.coefficients(lhs if rhs is None else free.mul(lhs, free.inv(rhs)))
        for lhs, rhs in sides])
    mod.name = name
    return mod


def load_module(path) -> RModulePresentation:
    return parse_file(path, parse_module_presentation,
                      base_dir=os.path.dirname(path), source=path)


def load_xmodule(path, base=None) -> XModule:
    return parse_file(path, parse_xmodule, base_dir=os.path.dirname(path),
                      base=base, source=path)


def parse_xmodule(text, base_dir="", base=None, source="<xmodule>") -> XModule:
    """The module of an .xmod text over `base`, or over the algebra its
    `base` entry names when `base` is None; a module that fails validation
    raises FixtureError at `source`:line of its first act entry (or its
    header)."""
    p = _FixtureParser(tokenize(text))
    line = header = p.peek().line
    p.expect("xmodule")
    name = p.expect_ident()
    p.expect("{")
    moduli = None
    act = {}
    fhat_tables = []
    while p.peek().text != "}":
        tok = p.peek()
        kw = p.expect_ident()
        if kw == "base":
            path = os.path.join(base_dir, p.parse_string_ref())
            # a `base` read from this same file is not read again; another
            # file is read, for its errors, and the `base` given kept
            if base is None or base.path != os.path.realpath(path):
                loaded = load_algebra(path)
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
            act_line = p.peek().line
            el = p.expect_ident()
            if el in act:
                raise FixtureError(f"{source}:{act_line}: act {el} is "
                                   f"given twice")
            p.expect(":")
            act[el] = p.parse_matrix(), act_line
        elif kw == "action":
            block_line = tok.line
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
                entry_line = p.peek().line
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
                entries[tuple(args)] = (p.expect_ident(), entry_line)
            p.expect("}")
            fhat_tables.append((opname, tuple(tup), entries, block_line))
        else:
            raise DslSyntaxError(tok.line, tok.col,
                                 f"unknown xmodule entry {kw!r}")
    p.expect("}")
    if base is None:
        raise FixtureError(f"{source}:{header}: xmodule needs a base algebra")
    if moduli is None:
        raise FixtureError(f"{source}:{header}: xmodule needs a carrier")
    finab = FinAb([m for m in moduli if m > 1] or [1])
    dim = len(finab.moduli)
    for el, (mat, act_line) in act.items():
        if el not in base.carriers[base.theory.sorts[0]]:
            raise FixtureError(f"{source}:{act_line}: {el!r} is not an "
                               f"element of {base.name}")
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise FixtureError(
                f"{source}:{act_line}: act {el} must be a {dim} x {dim} "
                f"matrix, one row and column per carrier modulus > 1")
    _check_action_blocks(base, fhat_tables, source)
    if not act:
        act_mats = _derive_action_from_tables(base, finab, fhat_tables, source)
        missing = [x for x in base.carriers[base.theory.sorts[0]]
                   if x not in act_mats]
        if missing:
            raise FixtureError(f"{source}:{header}: cannot derive action for "
                               f"{missing}; add act blocks")
    else:
        act_mats = {el: mat for el, (mat, _) in act.items()}
        for el in base.carriers[base.theory.sorts[0]]:
            if el not in act_mats:
                raise FixtureError(
                    f"{source}:{line}: missing act matrix for {el!r}")
    try:
        km = XModule(base, finab, act_mats, name=name)
    except AlgebraError as exc:
        raise FixtureError(f"{source}:{line}: xmodule {name}: {exc}") from exc
    _validate_fhat_tables(km, fhat_tables, source)
    return km


def _check_action_blocks(base, fhat_tables, source):
    """Each `action` block names an op of the base's theory and a tuple of
    base elements of that op's arity, and each of its entries takes that
    many carrier elements; else a fixture error at its path:line."""
    elements = base.carriers[base.theory.sorts[0]]
    arity = {op.name: len(op.args) for op in base.theory.ops}
    for opname, tup, entries, block_line in fhat_tables:
        where = f"{source}:{block_line}"
        if opname not in arity:
            raise FixtureError(f"{where}: {opname!r} is not an op of "
                               f"theory {base.theory.name}")
        if len(tup) != arity[opname]:
            raise FixtureError(f"{where}: {opname} takes {arity[opname]} "
                               f"elements, not {len(tup)}")
        for x in tup:
            if x not in elements:
                raise FixtureError(
                    f"{where}: {x!r} is not an element of {base.name}")
        for args, (_, line) in entries.items():
            if len(args) != arity[opname]:
                raise FixtureError(
                    f"{source}:{line}: an entry of action {opname} takes "
                    f"{arity[opname]} carrier elements, not {len(args)}")


def _parse_carrier_element(token, finab, where):
    """The carrier element `c1.c2...` (or `0`) of an action table entry at
    `where` (path:line), one integer coordinate per modulus."""
    if token == "0":
        return finab.zero()
    try:
        coords = tuple(int(x) for x in token.split("."))
    except ValueError:
        raise FixtureError(
            f"{where}: {token!r} is not a carrier element") from None
    if len(coords) != len(finab.moduli):
        raise FixtureError(
            f"{where}: {token!r} has {len(coords)} coordinates, the carrier "
            f"has {len(finab.moduli)}")
    return finab.reduce(coords)


def _derive_action_from_tables(base, finab, fhat_tables, source):
    """x . k is read off the mul action table at the tuple (x, e), for
    each x that has one; an entry missing from that table is a fixture
    error at the path:line of its `action` block."""
    sort = base.theory.sorts[0]
    mul, _, _ = base.group_ops(sort)
    ident = base.identity(sort)
    per_element = {}
    for opname, tup, entries, block_line in fhat_tables:
        if opname != mul or len(tup) != 2 or tup[1] != ident:
            continue
        x = tup[0]
        dim = len(finab.moduli)
        cols = []
        for j in range(dim):
            basis = tuple(1 if i == j else 0 for i in range(dim))
            key = (_element_token(finab.zero()), _element_token(basis))
            if key not in entries:
                raise FixtureError(
                    f"{source}:{block_line}: action table for ({x},{ident}) "
                    f"missing entry {key}")
            img, line = entries[key]
            cols.append(_parse_carrier_element(img, finab, f"{source}:{line}"))
        per_element[x] = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    return per_element


def _element_token(el):
    return "0" if not any(el) else ".".join(str(c) for c in el)


def _validate_fhat_tables(km: XModule, fhat_tables, source):
    """Explicit per-(op, tuple) tables must match the structural f_hat."""
    finab = km.carrier
    for opname, tup, entries, _ in fhat_tables:
        fh = km.f_hat(opname, tup)
        for args, (img, line) in entries.items():
            where = f"{source}:{line}"
            ks = tuple(_parse_carrier_element(a, finab, where) for a in args)
            expected = fh(ks)
            got = _parse_carrier_element(img, finab, where)
            if expected != got:
                raise FixtureError(
                    f"{where}: action table for {opname}{tup} violates the "
                    f"module laws at {args}: expected {_element_token(expected)}"
                )


def load_sres(path):
    return parse_file(path, parse_sres, base_dir=os.path.dirname(path),
                      source=path)


def parse_sres(text, base_dir="", source="<sres>"):
    p = _FixtureParser(tokenize(text))
    # the line that fixes the truncation: its entry, else the header
    truncation_line = p.peek().line
    p.expect("sres")
    name = p.expect_ident()
    p.expect("{")
    tok = p.peek()
    if tok.text == "ring":
        p.next()
        text = p.expect_ident() + _group_suffix(p)
        try:
            ring = parse_ring(text)
        except RingDescriptorError as exc:
            raise FixtureError(f"{source}:{tok.line}: {exc}") from exc
        if ring.kind == "ZG":
            # the integer matrices of a chain block cannot hold Z[G] entries
            raise FixtureError(f"{source}:{tok.line}: ring {text}: chain "
                               f"fixtures take Z or Z/m")
        p.expect("chain")
        p.expect("{")
        p.expect("ranks")
        ranks = []
        while p.peek().kind == "ident" and p.peek().text.isdigit():
            ranks.append(p.parse_int())
        diffs = [None] * len(ranks)
        while p.peek().text != "}":
            where = f"{source}:{p.peek().line}"
            p.expect("d")
            idx = p.parse_int()
            p.expect(":")
            mat = p.parse_matrix()
            if not 1 <= idx < len(ranks):
                raise FixtureError(
                    f"{where}: d {idx} is not a differential of ranks "
                    f"{' '.join(map(str, ranks))} (d 1 to d {len(ranks) - 1})")
            if diffs[idx] is not None:
                raise FixtureError(f"{where}: d {idx} is given twice")
            rows, cols = ranks[idx - 1], ranks[idx]
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise FixtureError(
                    f"{where}: d {idx} must be a {rows} x {cols} matrix")
            diffs[idx] = _sparse_cols(mat, cols)
        p.expect("}")
        p.expect("}")
        for i in range(1, len(ranks)):
            if diffs[i] is None:
                diffs[i] = [[] for _ in range(ranks[i])]
        cx = ChainComplex(ring, ranks, diffs)
        v = dold_kan(cx)
        v.name = name
        return v
    theory_line = p.peek().line
    theory = _theory_ref(p, base_dir)
    if theory.class_tag != "group":
        # the term-image form is read as a free simplicial group: faces
        # compose as words and abelianize by Fox derivatives
        raise FixtureError(
            f"{source}:{theory_line}: theory {theory.name} "
            f"({theory.class_tag}) is not a group theory, which the "
            f"term-image form needs (a module resolution is a ring and "
            f"chain block)")
    over = None
    truncation = None
    level_gens = {}
    level_lines = {}
    faces = {}
    degens = {}
    augment = {}
    augment_line = None
    while p.peek().text != "}":
        tok = p.peek()
        line = tok.line
        kw = p.expect_ident()
        if kw == "over":
            over_line = line
            over = load_algebra(os.path.join(base_dir, p.parse_string_ref()))
        elif kw == "truncation":
            truncation_line = line
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
                entry_line = p.peek().line
                g = p.expect_ident()
                p.expect("->")
                images[g] = (p.parse_term(), f"{source}:{entry_line}")
            p.expect("}")
            (faces if kw == "face" else degens)[(n, i)] = (
                images, f"{source}:{line}")
        elif kw == "augment":
            augment_line = line
            p.expect("{")
            while p.peek().text != "}":
                g = p.expect_ident()
                p.expect("->")
                augment[g] = p.expect_ident()
            p.expect("}")
        else:
            raise DslSyntaxError(tok.line, tok.col,
                                 f"unknown sres entry {kw!r}")
    p.expect("}")
    if truncation is None:
        truncation = max(level_gens) if level_gens else 0
    levels = []
    for n in range(truncation + 1):
        if n not in level_gens:
            raise FixtureError(f"{source}:{truncation_line}: missing level {n}")
        levels.append(_free_at(theory, level_gens[n],
                               f"{source}:{level_lines[n]}"))
    face_maps = [[]]
    degen_maps = []
    for n in range(truncation + 1):
        if n >= 1:
            fs = []
            for i in range(n + 1):
                if (n, i) not in faces:
                    raise FixtureError(
                        f"{source}:{level_lines[n]}: missing face {n} {i}")
                fs.append(_sres_map(faces[(n, i)], levels[n], levels[n - 1]))
            face_maps.append(fs)
        if n < truncation:
            ds = []
            for j in range(n + 1):
                if (n, j) not in degens:
                    raise FixtureError(
                        f"{source}:{level_lines[n]}: missing degen {n} {j}")
                ds.append(_sres_map(degens[(n, j)], levels[n], levels[n + 1]))
            degen_maps.append(ds)
        else:
            degen_maps.append([])
    aug_map = None
    if over is None and augment_line is not None:
        raise FixtureError(f"{source}:{augment_line}: an augment block needs "
                           f"the over line that names its target")
    if over is not None:
        if set(augment) != set(level_gens[0]):
            raise FixtureError(f"{source}:{augment_line or over_line}: "
                               "augment block must cover level-0 generators")
        aug_map = AlgebraMap.from_generator_images(levels[0], over, augment)
    v = SimplicialTheta(theory, levels, face_maps, degen_maps, truncation,
                        augmentation=aug_map)
    v.name = name
    v.target = over
    return v


def _sres_map(block, src, tgt):
    """The map of one `face`/`degen` block, ({generator: (term, where)},
    where): each generator of `src` needs exactly one image, a term over
    the generators of `tgt`."""
    images, where = block
    gens = set(src.generators[src.sort])
    for g, (_, at) in images.items():
        if g not in gens:
            raise FixtureError(f"{at}: {g} is not a generator of the source level")
    for g in src.generators[src.sort]:
        if g not in images:
            raise FixtureError(f"{where}: the block gives no image for {g}")
    return AlgebraMap.from_generator_images(
        src, tgt, {g: _eval_at(tgt, t, at) for g, (t, at) in images.items()})


def write_sres(v: SimplicialTheta, name="resolution", over=None):
    """Serialize a free simplicial algebra with term-image blocks.  Its
    augmentation, if any, needs `over`: the path of the target, relative
    to the written file, for the `over` line that `parse_sres` reads."""
    from .terms import term_str

    if (over is None) != (v.augmentation is None):
        raise AlgebraError("write_sres: give over exactly when the "
                           "resolution has an augmentation")
    sort = v.theory.sorts[0]
    lines = [f"sres {name} {{"]
    lines.append(f"  theory {'gp' if v.theory is GP else v.theory.name}")
    if over is not None:
        if '"' in over or "\n" in over:
            raise AlgebraError(f"write_sres: over {over!r} cannot be quoted")
        lines.append(f'  over "{over}"')
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


def write_alg(alg: FiniteAlgebra, name=None):
    """Serialize a finite algebra over a builtin theory as an `.alg`
    `table` block, with its carriers and table entries in their order;
    `parse_algebra` reads back the same carriers and tables."""
    theory = alg.theory
    refs = {GP: "gp", AB: "ab"}
    for (kind, n), t in _MODULE_THEORIES.items():
        refs[t] = f"mod:Z/{n}" if kind == "Zmod" else f"mod:Z[C{n}]"
    if theory not in refs:
        raise AlgebraError(f"write_alg: theory {theory.name} is not builtin")
    name = name or alg.name
    words = [name, *theory.sorts, *(op.name for op in theory.ops),
             *(x for els in alg.carriers.values() for x in els)]
    for w in words:
        if not w or not set(w) <= _IDENT_CHARS:
            raise AlgebraError(f"write_alg: {w!r} is not an identifier")
    lines = [f"algebra {name} {{", f"  theory {refs[theory]}", "  table {"]
    for s in theory.sorts:
        lines.append(f"    sort {s} : " + " ".join(alg.carriers[s]))
    for op in theory.ops:
        lines.append(f"    op {op.name} : " + " ".join(
            f"({','.join(tup)})->{val}"
            for tup, val in alg.tables[op.name].items()))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"
