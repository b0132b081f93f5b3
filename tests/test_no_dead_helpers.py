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
`self` or `cls`."""

import ast
import pathlib

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
    for top in tree.body:
        if isinstance(top, FUNCS):
            yield top.name
        elif isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, FUNCS) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{top.name}.{item.name}"


def test_every_module_level_function_is_referenced():
    defined = []
    referenced = set()
    for path in SRC + TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path in SRC:
            defined += [(path.name, name) for name in _definitions(tree)]
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
