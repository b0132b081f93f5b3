"""Every module-level function and every non-dunder method of a
module-level class in `src/aq` is used: some code in `src/aq` or `tests`
names it (a call, an attribute access or an import) outside its own
body.  Every module-level import of a module in `src/aq` (other than
`__init__.py` and `__future__`) is used there, listed in its `__all__`,
or imported from it by another module.  Every name a module-level
assignment in `src/aq` binds (other than `__all__` and `__slots__`) is
read somewhere in `src/aq` or `tests`.  Every parameter of a private
module-level function in `src/aq` is read in its body.  Every parameter
with a default, of a module-level function or a class method in `src/aq`,
is set by some call in `src/aq` or `tests` (the code that tests run in a
subprocess included).  No module in `src/aq` reads or sets a
`_`-prefixed attribute that only another module defines, other than on
`self` or `cls`.

A reference from a test is not use: every such function and method is
entered by some command of a fixed list run under a profiler, apart from
an allowlist whose entries each name their category.  Every `aq` name
that `perfbench/` reads exists, so that no deletion breaks the
benchmark."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "aq").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _references(node, own=frozenset()):
    """Names used under `node`; inside a definition its own name (a
    recursive call) does not count."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCS):
            yield from _references(child, own | {child.name})
            continue
        name = _name(child)
        if name is not None and name not in own:
            yield name
        yield from _references(child, own)


def _definitions(tree):
    """(label, node) of each module-level function and each non-dunder
    method of a module-level class."""
    for top in tree.body:
        if isinstance(top, FUNCS):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, FUNCS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{top.name}.{item.name}", item


def test_every_module_level_function_is_referenced():
    defined = []
    referenced = set()
    for path in SRC + TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in SRC:
            defined += [(path.name, name) for name, _ in _definitions(tree)]
        referenced.update(_references(tree))
    dead = sorted(f"{mod}:{name}" for mod, name in defined
                  if name.rsplit(".", 1)[-1] not in referenced)
    assert dead == [], f"unreferenced functions and methods: {dead}"


def _imported_names(tree):
    """(bound name, line) of each module-level import."""
    for top in tree.body:
        if isinstance(top, ast.Import):
            for alias in top.names:
                yield alias.asname or alias.name.split(".")[0], top.lineno
        elif isinstance(top, ast.ImportFrom) and top.module != "__future__":
            for alias in top.names:
                yield alias.asname or alias.name, top.lineno


def _exported(tree):
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in top.targets):
            return {c.value for c in ast.walk(top.value)
                    if isinstance(c, ast.Constant)}
    return set()


def test_every_module_level_import_is_used():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in SRC + TESTS}
    # module stem -> names other modules import from it (re-exports)
    reexported = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                stem = node.module.rsplit(".", 1)[-1]
                reexported.setdefault(stem, set()).update(
                    alias.name for alias in node.names)
    unused = []
    for path in SRC:
        if path.name == "__init__.py":
            continue
        tree = trees[path]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        used |= _exported(tree) | reexported.get(path.stem, set())
        unused += [f"{path.name}:{line}:{name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"unused imports: {unused}"


def _assigned_names(tree):
    """(name, line) of each name a module-level assignment binds."""
    for top in tree.body:
        if isinstance(top, ast.Assign):
            targets = top.targets
        elif isinstance(top, (ast.AnnAssign, ast.AugAssign)):
            targets = [top.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id, top.lineno


def _read_names(tree):
    """Names read under `tree`: loaded names and attributes, and imports."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load):
            yield _name(node)
        elif isinstance(node, ast.alias):
            yield _name(node)


def test_every_module_level_name_is_read():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in SRC + TESTS}
    read = set()
    for tree in trees.values():
        read.update(_read_names(tree))
    unread = [f"{path.name}:{line}:{name}"
              for path in SRC for name, line in _assigned_names(trees[path])
              if name not in read and name not in ("__all__", "__slots__")]
    assert unread == [], f"module-level names nothing reads: {unread}"


def _parameters(fn):
    args = fn.args
    return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if a is not None]


def test_every_parameter_of_a_private_function_is_read():
    unread = []
    for path in SRC:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(top, FUNCS) or not top.name.startswith("_") \
                    or top.name.endswith("__"):
                continue
            read = {node.id for stmt in top.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{top.lineno}:{top.name}({name})"
                       for name in _parameters(top) if name not in read]
    assert unread == [], f"parameters their function never reads: {unread}"



def _defaulted(fn):
    """(position, or None when keyword-only, and name) of each parameter
    of `fn` that has a default."""
    args = fn.args
    pos = [*args.posonlyargs, *args.args]
    first = len(pos) - len(args.defaults)
    return [(i, a.arg) for i, a in enumerate(pos) if i >= first] + [
        (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
        if d is not None]


def _callables(tree):
    """(label, the name a call uses, definition, arguments bound before the
    first one a call passes) of each module-level function and class
    method; a constructor is called by its class name."""
    for top in tree.body:
        if isinstance(top, FUNCS):
            yield top.name, top.name, top, 0
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, FUNCS):
                    static = any(_name(d) == "staticmethod"
                                 for d in item.decorator_list)
                    yield (f"{top.name}.{item.name}",
                           top.name if item.name == "__init__" else item.name,
                           item, 0 if static else 1)


def _passed(call):
    """(positional count, a `*` argument, keyword names, a `**` argument)."""
    return (len(call.args), any(isinstance(a, ast.Starred) for a in call.args),
            {k.arg for k in call.keywords if k.arg},
            any(k.arg is None for k in call.keywords))


def _forwarders(tree):
    """Functions like `parse_file(path, parse, **kwargs)` that call their
    parameter `parse` with their own `**kwargs`: name -> (position of that
    parameter, its name, positional count of the inner call, own
    parameter names)."""
    out = {}
    for top in tree.body:
        if not isinstance(top, FUNCS) or top.args.kwarg is None:
            continue
        params = [a.arg for a in top.args.args]
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _name(node.func) in params \
                    and any(k.arg is None and _name(k.value)
                            == top.args.kwarg.arg for k in node.keywords):
                fn = _name(node.func)
                out[top.name] = (params.index(fn), fn, len(node.args),
                                 set(params))
    return out


def _table_calls(tree):
    """Calls through the loop variable of `for ..., fn in TABLE`, with
    TABLE a module-level list or tuple: (each function name TABLE holds,
    the call)."""
    tables = {target.id: {n.id for n in ast.walk(top.value)
                          if isinstance(n, ast.Name)}
              for top in tree.body if isinstance(top, ast.Assign)
              and isinstance(top.value, (ast.List, ast.Tuple))
              for target in top.targets if isinstance(target, ast.Name)}
    for loop in ast.walk(tree):
        if isinstance(loop, ast.For) and isinstance(loop.iter, ast.Name) \
                and loop.iter.id in tables:
            bound = {n.id for n in ast.walk(loop.target)
                     if isinstance(n, ast.Name)}
            for call in ast.walk(loop):
                if isinstance(call, ast.Call) and _name(call.func) in bound:
                    for fn in tables[loop.iter.id]:
                        yield fn, call


def _code_in_strings(tree):
    """The string constants under `tree` that are Python code calling
    something, parsed: what a test runs in a subprocess."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "(" in node.value:
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                continue


def test_every_defaulted_parameter_is_set_by_some_call():
    src = {path: ast.parse(path.read_text(), filename=str(path))
           for path in SRC}
    trees = list(src.values())
    for path in TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        trees += [tree, *_code_in_strings(tree)]
    forwarders = {}
    for tree in src.values():
        forwarders.update(_forwarders(tree))
    calls = {}  # the name a call uses -> what each call passes
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _name(node.func)
            calls.setdefault(name, []).append(_passed(node))
            if name not in forwarders:
                continue
            at, param, npos, own = forwarders[name]
            target = node.args[at] if len(node.args) > at else next(
                (k.value for k in node.keywords if k.arg == param), None)
            _, _, keywords, dstar = _passed(node)
            calls.setdefault(_name(target), []).append(
                (npos, False, keywords - own, dstar))
        for fn, call in _table_calls(tree):
            calls.setdefault(fn, []).append(_passed(call))
    unset = []
    for path, tree in src.items():
        for label, name, fn, bound in _callables(tree):
            for i, param in _defaulted(fn):
                if not any(star or dstar or param in keywords
                           or (i is not None and npos + bound > i)
                           for npos, star, keywords, dstar in
                           calls.get(name, ())):
                    unset.append(f"{path.name}:{fn.lineno}:{label}({param})")
    assert unset == [], f"parameters with a default no call sets: {unset}"

def _private_attributes(tree):
    """The `_`-prefixed (not dunder) attribute names a module defines: its
    functions and methods, the names its class bodies bind and the
    attributes it stores."""
    for node in ast.walk(tree):
        names = []
        if isinstance(node, FUNCS):
            names = [node.name]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Store):
            names = [node.attr]
        elif isinstance(node, ast.ClassDef):
            names = [name.id for item in node.body
                     if isinstance(item, (ast.Assign, ast.AnnAssign))
                     for name in ast.walk(item)
                     if isinstance(name, ast.Name)
                     and isinstance(name.ctx, ast.Store)]
        yield from (name for name in names
                    if name.startswith("_") and not name.endswith("__"))


def test_no_module_reads_private_attributes_of_another():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in SRC}
    defined = {path: set(_private_attributes(tree))
               for path, tree in trees.items()}
    reads = []
    for path, tree in trees.items():
        foreign = set().union(*(names for other, names in defined.items()
                                if other != path)) - defined[path]
        reads += [f"{path.name}:{node.lineno}:{ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in foreign
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))]
    assert reads == [], f"private attributes read across modules: {reads}"


# ---------------------------------------------------------------------------
# every function serves a command

# Inputs that the guard's commands read beside the shipped fixtures,
# written to a temporary directory: the trivial group (its module theory is
# the abelianized theory, renamed), a Z[C2]-module whose relation reads the
# action, and a malformed module and a resolution of terms over a theory
# that is not a group theory for the error paths.
GUARD_FILES = {
    "one.alg": """algebra one {
  theory gp
  table {
    sort g : e
    op mul : (e,e)->e
    op inv : (e)->e
    op e : ()->e
  }
}
""",
    "zc2.alg": """algebra zc2 {
  theory mod:Z[C2]
  presentation {
    gens g : x
    rel mul(x, act_a(x))
  }
}
""",
    "bad-act.xmod": """xmodule bad {
  base "%s/fixtures/z2.alg"
  carrier g : 3
  act e : [[1]]
  act a : [[1, 0]]
}
""" % ROOT,
    "ab.sres": """sres ab {
  theory ab
  truncation 1
  level 0 { gens g : x }
  level 1 { gens g : y }
  face 1 0 { y -> x() }
  face 1 1 { y -> x() }
  degen 0 0 { x -> y() }
}
""",
}

# (exit code, command line) of every command the guard runs, in one
# process; {tmp} is the directory of GUARD_FILES.
GUARD_COMMANDS = [
    # the README
    (0, "check fixtures/z2res.sres"),
    (0, "theory module --theory gp --algebra fixtures/z2.alg"),
    (0, "cohomology --theory gp --algebra fixtures/z2.alg --coeffs "
        "fixtures/z2-triv.xmod --max-degree 1 --method both"),
    (0, "homology --theory mod:Z --algebra fixtures/y-z4.alg --coeffs 2 "
        "--max-degree 1"),
    (0, "oracle bar --group fixtures/z4.alg --coeffs 2 --max-degree 3"),
    (0, "oracle factor-set --group fixtures/z3.alg --coeffs 3 --degree 2"),
    (0, "ss uct --ring Z --module fixtures/y-z4.alg --coeffs 2 --smax 3 "
        "--check"),
    (0, "ss uct --ring Z --h 0:4 --h 1:2 --coeffs 2"),
    (0, "accept"),
    # every shipped fixture
    *((1 if name == "broken.sres" else 0, f"check fixtures/{name}")
      for name in sorted(p.name for p in (ROOT / "fixtures").iterdir())),
    # the other pages, oracles and constructions
    (0, "ss tor --ring Z --module fixtures/y-z4.alg --coeffs 2 --check"),
    (0, "ss rev-adams --ring Z --module fixtures/y-z4.alg --coeffs 2 "
        "--check"),
    (0, "ss uct --module fixtures/y-z4.alg --coeffs 2 --variant cohomology"),
    (0, "oracle ext --module fixtures/y-z4.alg --coeffs 2"),
    (0, "oracle tor --module fixtures/y-z4.alg --coeffs 2"),
    (0, "theory comma --theory gp --algebra fixtures/z2.alg"),
    (0, "theory product --theory gp --phi ab"),
    (0, "theory abelianize --theory gp"),
    (0, "theory module --theory gp --algebra {tmp}/one.alg"),
    # the other routes and inputs of cohomology and homology
    (0, "cohomology --theory ab --algebra fixtures/y-z4.alg --coeffs 2"),
    (0, "cohomology --theory gp --algebra fixtures/z4-presented.alg "
        "--coeffs 2 --method both"),
    (0, "cohomology --theory gp --algebra fixtures/z2.alg --coeffs "
        "fixtures/z3-inv.xmod --method both --max-degree 2"),
    (0, "cohomology --theory gp --algebra fixtures/z2.alg --coeffs "
        "fixtures/z2-table.xmod"),
    (0, "cohomology --theory gp --algebra fixtures/z2.alg --resolution "
        "fixtures/z2res.sres --coeffs 2"),
    (0, "homology --theory gp --algebra fixtures/s3.alg --max-degree 1"),
    (0, "homology --theory gp --algebra fixtures/z4.alg --over "
        "fixtures/z4.alg --max-degree 2"),
    (0, "homology --theory gp --algebra fixtures/z2.alg --resolution "
        "fixtures/z2res-basis.sres --over fixtures/z2.alg"),
    (0, "homology --theory mod:Z[C2] --algebra {tmp}/zc2.alg --coeffs 3"),
    (0, "check {tmp}/zc2.alg"),
    # Z/4 is injective over Z/4: a one-column page over a ring other than Z
    (0, "ss uct --module fixtures/m-z4.alg --coeffs 4 --check"),
    # malformed inputs
    (2, "check fixtures/missing.alg"),
    (2, "check {tmp}/bad-act.xmod"),
    (2, "check {tmp}/ab.sres"),
    (2, "cohomology --theory gp --algebra fixtures/ --coeffs 2"),
    (2, "cohomology --theory gp --algebra fixtures/z2.alg --coeffs 2,x"),
]

# The functions that no command reaches, each with its category.
CATEGORIES = {
    "oracle": "an oracle that tests compare the main routes against",
    "perfbench": "a name that perfbench/ reads",
    "writer": "a fixture writer, which round-trips through its reader",
    "constructor": "a constructor that tests build inputs with",
    "branch": "a branch of a served function for inputs no command builds",
}
UNREACHED = {
    "algebras.abelianization_table": "oracle",
    "simplicial.unnormalized_homotopy": "oracle",
    "snf.lattice_basis": "perfbench",
    "fixtures.write_sres": "writer",
    "fixtures.write_alg": "writer",
    "dsl.parse_term": "constructor",
    # enumerate_homs from a multi-sorted or non-group finite algebra
    "algebras._finite_generic_homs": "branch",
    # the identity check of a simplicial abelian group, modulo relations
    "simplicial.SimplicialAbelian._maps_equal": "branch",
    "presented.Presentation.contains_in_relations": "branch",
}

_PROFILE = """
import contextlib, io, json, sys
reached = set()
def record(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(record)
import aq.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(aq.cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _served_functions():
    """(path, first line, label) of each function `_definitions` finds in
    `src/aq`; the first line is that of the first decorator, as the code
    object has it."""
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        for label, fn in _definitions(tree):
            first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
            yield path.resolve(), first, f"{path.stem}.{label}"


def test_every_function_is_reached_by_a_command(tmp_path):
    for name, text in GUARD_FILES.items():
        (tmp_path / name).write_text(text)
    commands = [line.format(tmp=tmp_path).split()
                for _, line in GUARD_COMMANDS]
    out = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, "-c", _PROFILE,
         json.dumps(commands)],
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.returncode == 0, out.stderr
    run = json.loads(out.stdout)
    assert run["codes"] == [code for code, _ in GUARD_COMMANDS]
    reached = {(pathlib.Path(f).resolve(), line) for f, line in run["reached"]}
    unreached = {label for path, line, label in _served_functions()
                 if (path, line) not in reached}
    assert set(UNREACHED.values()) <= set(CATEGORIES)
    assert sorted(unreached - set(UNREACHED)) == [], \
        "functions that no command reaches"
    assert sorted(set(UNREACHED) - unreached) == [], \
        "allowlisted functions that a command reaches or that are gone"


# ---------------------------------------------------------------------------
# the names the benchmark reads

def _dotted(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) \
        else None


def _perfbench_reads():
    """(file, dotted aq name) of each name that a file of perfbench/
    reads: its imports from `aq`, the attributes it reads through them,
    and the `spans.TARGETS` that `Tracer.install` looks up."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}  # a name the file binds -> the aq name it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or "aq", a.name if a.asname else "aq")
                             for a in node.names if a.name.startswith("aq."))
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("aq."):
                bound.update((a.asname or a.name, f"{node.module}.{a.name}")
                             for a in node.names)
        yield from ((path.name, name) for name in bound.values())
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in bound:
                yield path.name, ".".join([bound[chain[0]], *chain[1:]])
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TARGETS"
                    for t in node.targets):
                scope = {}
                exec(compile(ast.Module([node], []), str(path), "exec"), scope)
                yield from ((path.name, f"aq.{module}.{qualname}")
                            for module, qualname in scope["TARGETS"])


def _resolve(name):
    """The object the dotted name `aq.x.y...` names: the longest prefix
    that is a module, then attributes; `Tracer.install` reads a method
    from its own class's __dict__."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = vars(obj)[attr] if isinstance(obj, type) \
                else getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_every_name_the_benchmark_reads_resolves():
    reads = sorted(set(_perfbench_reads()))
    assert any(f == "spans.py" for f, _ in reads)
    missing = []
    for path, name in reads:
        try:
            _resolve(name)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{path}: {name}")
    assert missing == [], f"names perfbench/ reads that aq lacks: {missing}"
