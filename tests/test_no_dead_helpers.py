"""Every module-level function in `src/aq` is used: some code in `src/aq`
or `tests` names it (a call, an attribute access or an import) outside
its own body."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "aq").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_module_level_function_is_referenced():
    defined = {}
    referenced = set()
    for path in SRC + TESTS:
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = top.name
                if path in SRC:
                    defined.setdefault(own, []).append(path.name)
            # a function's references to itself (recursion) do not count
            referenced.update(n for n in _names(top) if n != own)
    dead = sorted(f"{mod}:{name}" for name, mods in defined.items()
                  if name not in referenced for mod in mods)
    assert dead == [], f"unreferenced module-level functions: {dead}"
