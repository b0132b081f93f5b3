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
    parse_file,
    parse_theory,
    tokenize,
)
from .rings import RingDescriptorError, parse_ring
from .simplicial import ChainComplex, SimplicialTheta, dold_kan
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
        name += ":" + p.expect_ident()
        if p.peek().text == "[":
            p.next()
            name += "[" + p.expect_ident() + "]"
            p.expect("]")
    return builtin_theory(name)


def load_algebra(path) -> FiniteAlgebra:
    return parse_file(path, parse_algebra, base_dir=os.path.dirname(path),
                      source=path)


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
    """The theory that the `theory` line of an .alg file names."""
    def header_theory(text):
        p = _FixtureParser(tokenize(text))
        return _algebra_header(p, os.path.dirname(path))[1]

    return parse_file(path, header_theory)


def parse_algebra(text, base_dir="", source="<algebra>") -> FiniteAlgebra:
    p = _FixtureParser(tokenize(text))
    name, theory, _ = _algebra_header(p, base_dir)
    line = p.peek().line
    kw = p.expect_ident()
    if kw == "table":
        alg = _parse_table_block(p, theory, name, f"{source}:{line}")
    elif kw == "presentation":
        alg = _parse_presentation_block(p, theory, name, source)
    else:
        raise FixtureError(f"unknown algebra block {kw!r}")
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
    try:
        return FiniteAlgebra(theory, name, carriers, tables)
    except AlgebraError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


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

    p = _FixtureParser(tokenize(text))
    name, theory, line = _algebra_header(p, base_dir)
    if theory.ring is None:
        raise FixtureError(
            f"{source}:{line}: theory {theory.name} is neither abelian nor "
            "a module theory")
    ring = theory.ring
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
    return parse_file(path, parse_xmodule, base_dir=os.path.dirname(path),
                      base=base, source=path)


def parse_xmodule(text, base_dir="", base=None, source="<xmodule>") -> XModule:
    """The module of an .xmod text; a module that fails validation raises
    FixtureError at `source`:line of its first act entry (or its header)."""
    p = _FixtureParser(tokenize(text))
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
        act_mats = _derive_action_from_tables(base, finab, fhat_tables, source)
    else:
        act_mats = {el: m for el, m in act.items()}
        for el in base.carriers[base.theory.sorts[0]]:
            if el not in act_mats:
                raise FixtureError(f"missing act matrix for {el!r}")
    try:
        km = XModule(base, finab, act_mats, name=name)
    except AlgebraError as exc:
        raise FixtureError(f"{source}:{line}: xmodule {name}: {exc}") from exc
    _validate_fhat_tables(km, fhat_tables, source)
    return km


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
            if key not in entries:
                raise FixtureError(
                    f"action table for ({x},{ident}) missing entry {key}"
                )
            img, line = entries[key]
            cols.append(_parse_carrier_element(img, finab, f"{source}:{line}"))
        per_element[x] = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    missing = [x for x in base.carriers[sort] if x not in per_element]
    if missing:
        raise FixtureError(f"cannot derive action for {missing}; add act blocks")
    return per_element


def _element_token(el):
    return "0" if not any(el) else ".".join(str(c) for c in el)


def _validate_fhat_tables(km: XModule, fhat_tables, source):
    """Explicit per-(op, tuple) tables must match the structural f_hat."""
    finab = km.carrier
    for opname, tup, entries in fhat_tables:
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
                entry_line = p.peek().line
                g = p.expect_ident()
                p.expect("->")
                images[g] = (p.parse_term(), f"{source}:{entry_line}")
            p.expect("}")
            (faces if kw == "face" else degens)[(n, i)] = (
                images, f"{source}:{line}")
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
                fs.append(_sres_map(faces[(n, i)], levels[n], levels[n - 1]))
            face_maps.append(fs)
        if n < truncation:
            ds = []
            for j in range(n + 1):
                if (n, j) not in degens:
                    raise FixtureError(f"missing degen {n} {j}")
                ds.append(_sres_map(degens[(n, j)], levels[n], levels[n + 1]))
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
