"""A seeded mutation fuzz of the shipped fixtures: every edit of one to
three characters, through `aq check` and, for an `.alg` or `.xmod`, one
`aq cohomology` command, ends in exit 0, 1, 2 or 3, never in a Python
traceback."""

import contextlib
import io
import os
import pathlib
import random
import shutil

import pytest

from aq.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
NAMES = sorted(os.listdir(FIXTURES))
EDITS = 300  # per seed
# what an edit inserts: the characters of the fixtures, and a few more
ALPHABET = sorted(set().union(*(
    pathlib.Path(FIXTURES, name).read_text() for name in NAMES))
    | set("0123456789-,.;:()[]{}$\"/\\ \n"))
# the theory each .alg declares
THEORIES = {"y-z4.alg": "mod:Z", "m-z4.alg": "mod:Z/4"}


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        kind = rng.choice(("delete", "insert", "replace"))
        if kind == "insert" or i == len(text):
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
    return text


def _commands(name, path, z2):
    yield ["check", path]
    if name.endswith(".alg"):
        yield ["cohomology", "--theory", THEORIES.get(name, "gp"),
               "--algebra", path, "--coeffs", "2"]
    elif name.endswith(".xmod"):
        yield ["cohomology", "--theory", "gp", "--algebra", z2,
               "--coeffs", path]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_mutated_fixture_exits_0_to_3(seed, tmp_path):
    # edited in a copy of the fixtures directory, so that the files an
    # edited fixture refers to (`base`, `over`) are found beside it
    for name in NAMES:
        shutil.copy(os.path.join(FIXTURES, name), tmp_path / name)
    rng = random.Random(seed)
    codes = {}
    for k in range(EDITS):
        name = NAMES[k % len(NAMES)]
        path = tmp_path / name
        original = path.read_text()
        text = _mutate(rng, original)
        path.write_text(text)
        try:
            for argv in _commands(name, str(path), str(tmp_path / "z2.alg")):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = main(argv)
                    except Exception as exc:
                        raise AssertionError(
                            f"{argv[0]} of {name} edited to\n{text}") from exc
                assert code in (0, 1, 2, 3), (argv[0], name, text)
                assert "Traceback" not in err.getvalue(), (name, text)
                codes[code] = codes.get(code, 0) + 1
        finally:
            path.write_text(original)
    # the edits reach past the parser: some inputs still load and run
    assert codes.get(0) and codes.get(2), codes
