"""The truncated top of a reduced complex is read only through its image.

Degree n reads level n + 1 only through im d_{n+1}, so the certificate,
the cochain route and homology with coefficients cut the top differential
to its distinct nonzero columns (`simplicial.trim_top`).  These tests check
that the cut changes no group below the truncation, pin how many top
columns those routes read, and check what the certificate still catches
now that it checks d d = 0 once, over the ring, and composes one-letter
words by lookup.  The comparisons also run under `python -O`, which
strips asserts."""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager

from aq import invariants, presented, simplicial
from aq.algebras import cyclic_group, klein_four, symmetric_3
from aq.beck import XModule
from aq.fixtures import parse_algebra
from aq.invariants import cohomology, cohomology_via_em, homology_with_coeffs
from aq.resolutions import check_certificate, loop_group_resolution, \
    resolve_module
from aq.rings import CoefficientModule, Ring, r_matrix_to_z
from aq.simplicial import _compose_columns
from inputs import (COEFFS, D4_PRESENTED, Q8_PRESENTED, RINGS, SEEDS,
                    _seeded_module, _sign_module)


def _slice(ranks, diffs, top):
    return list(ranks[:top + 1]), list(diffs[:top + 1])


@contextmanager
def _untrimmed():
    """Every route reads the whole top level, as before the cut."""
    saved = simplicial.trim_top
    simplicial.trim_top = invariants.trim_top = _slice
    try:
        yield
    finally:
        simplicial.trim_top = invariants.trim_top = saved


def _groups(values):
    return {n: [g.rank, list(g.torsion)] for n, g in sorted(values.items())}


def _cases():
    """(label, resolution, target, coefficients, base) per seeded module
    and per group, S3 with the sign action on Z/3 as well."""
    for name, seed in SEEDS:
        ring = RINGS[name]()
        m = _seeded_module(ring, seed)
        yield (f"{name}:{seed}", resolve_module(m, length=3), m,
               [CoefficientModule.trivial(ring, COEFFS[name])], None)
    d4, q8 = parse_algebra(D4_PRESENTED), parse_algebra(Q8_PRESENTED)
    s3 = symmetric_3()
    for label, g, top, coeffs in (
            ("S3", s3, 3, [[2], [3], _sign_module(s3, 3)]),
            ("D4", d4, 2, [[2], [4]]), ("Q8", q8, 2, [[2], [3]])):
        coeffs = [k if isinstance(k, XModule) else XModule.trivial(g, k)
                  for k in coeffs]
        yield label, loop_group_resolution(g, truncation=top), g, coeffs, g


def _routes(v, target, coeffs, x):
    degrees = range(v.truncation)
    cert = check_certificate(v, target, rng=v.truncation - 1)
    out = {"certificate": _groups(cert.detail["abelianized_homotopy"])}
    for i, k in enumerate(coeffs):
        for base in {x, None}:
            out[f"cochain {i} {base is not None}"] = _groups(
                cohomology(v, k, degrees, x=base))
            out[f"tensor {i} {base is not None}"] = _groups(
                homology_with_coeffs(v, k, degrees, x=base))
    return out


def trim_report():
    """Per case, whether the trimmed and the untrimmed routes agree and
    how many columns the reduced top has, whole and cut."""
    report = {}
    for label, v, target, coeffs, x in _cases():
        trimmed = _routes(v, target, coeffs, x)
        with _untrimmed():
            whole = _routes(v, target, coeffs, x)
        ranks, diffs = v.abelianization(True).reduced_complex()
        top = v.truncation
        report[label] = [trimmed == whole, ranks[top],
                         simplicial.trim_top(ranks, diffs, top)[0][top]]
    return report


def test_the_trimmed_top_gives_every_group_below_the_truncation():
    report = trim_report()
    assert [label for label, (same, _, _) in report.items() if not same] == []
    # the groups' tops lose columns, so the comparison reads a real cut
    assert all(report[g][2] < report[g][1] for g in ("S3", "D4", "Q8"))
    assert _under_O("trim_report") == _json(report)


def corrupted_certificates():
    """The certificate's checks on S3's resolution with one image edited:
    a face d_1 image into another generator or into a two-letter word, and
    a degeneracy image into another generator."""
    g = symmetric_3()
    out = {}
    for edit in ("face", "two letters", "degeneracy"):
        v = loop_group_resolution(g, truncation=2)
        if edit == "degeneracy":
            images, level = v.degens[1][0].mapping["g"], v.levels[2]
        else:
            images, level = v.faces[2][1].mapping["g"], v.levels[1]
        gen, word = next(iter(images.items()))
        assert len(word) == 1 and word[0][1] == 1
        other = next(h for h in level.generators["g"] if h != word[0][0])
        images[gen] = ((other, 1),) if edit != "two letters" \
            else word + ((other, 1),)
        out[edit] = check_certificate(v, g, rng=1).checks
    return out


def test_edited_one_letter_images_fail_the_certificate():
    checks = corrupted_certificates()
    assert all(not c["simplicial_identities"] and not c["abelianized_acyclic"]
               for c in checks.values()), checks
    assert _under_O("corrupted_certificates") == _json(checks)


def multiplicativity_failures():
    """Seeded sparse A and B over Z[C3] and Z[S3] for which the realization
    over Z of A . B, composed as `_compose_columns` composes, is not the
    product of the realizations of A and B."""
    failures = []
    for g in (cyclic_group(3), symmetric_3()):
        ring = Ring("ZG", group=g.group_table("g"))
        els = ring.group.elements
        rng = random.Random(f"multiplicative {g.order()}")

        def matrix(rows, cols):
            out = []
            for _ in range(cols):
                col = []
                for i in range(rows):
                    entry = ring.add(
                        {rng.choice(els): rng.choice((-2, -1, 1, 2))},
                        {rng.choice(els): rng.choice((-1, 0, 1))})
                    if rng.random() < 0.6 and not ring.is_zero(entry):
                        col.append((i, entry))
                out.append(col)
            return out

        for trial in range(20):
            p, q, r = (rng.randint(1, 4) for _ in range(3))
            a, b = matrix(p, q), matrix(q, r)
            ab = [sorted(c.items()) for c in _compose_columns(a, b, ring)]
            product = _compose_columns(r_matrix_to_z(ring, a, p),
                                       r_matrix_to_z(ring, b, q), Ring("Z"))
            if [dict(c) for c in r_matrix_to_z(ring, ab, p)] != product:
                failures.append(f"order {g.order()} trial {trial}")
    return failures


def test_the_realization_over_z_is_multiplicative():
    # the certificate checks d d = 0 over the ring only; its realization
    # over Z squares to zero because realizing is multiplicative
    assert multiplicativity_failures() == []
    assert _under_O("multiplicativity_failures") == []


def _under_O(function):
    """The JSON value of `function()` of this module under `python -O`."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import json, sys\n"
            f"sys.path.insert(0, {here!r})\n"
            "import test_trimmed_top as t\n"
            f"print(json.dumps(t.{function}()))\n")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(here, "..", "src")))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _json(value):
    return json.loads(json.dumps(value))


# ---------------------------------------------------------------------------
# work counts


def _recorded(calls, real, read):
    """`real`, appending read(*args) to `calls` on each call."""
    def wrapper(*args, **kwargs):
        calls.append(read(*args))
        return real(*args, **kwargs)
    return wrapper


def test_the_routes_read_the_pinned_top_columns(monkeypatch):
    # the certificate realizes, and the cochain route takes Hom out of,
    # only the distinct nonzero top columns
    realized, homs = [], []
    monkeypatch.setattr(simplicial, "_realize", _recorded(
        realized, simplicial._realize, lambda ring, ranks, *_: ranks[-1]))
    monkeypatch.setattr(invariants, "with_coefficients", _recorded(
        homs, invariants.with_coefficients, lambda ranks, *_: ranks[-1]))
    pins = {}
    for name, g, top in (("S3", symmetric_3(), 2),
                         ("Z4", cyclic_group(4), 3), ("V4", klein_four(), 3)):
        v = loop_group_resolution(g, truncation=top)
        assert check_certificate(v, g, rng=top - 1).valid
        cohomology(v, XModule.trivial(g, [2]), range(top), x=g)
        whole = v.abelianization(True).reduced_complex()[0][top]
        pins[name] = (whole, realized.pop(), homs.pop())
        assert realized == homs == []
    assert pins == {"S3": (105, 13, 13), "Z4": (61, 1, 1), "V4": (63, 21, 21)}


def test_d_squared_is_checked_over_z_only_where_coefficients_enter(
        monkeypatch):
    calls = []
    for module in (presented, invariants):
        monkeypatch.setattr(module, "_composes_to_zero", _recorded(
            calls, module._composes_to_zero, lambda *args: args))
    g = symmetric_3()
    v = loop_group_resolution(g, truncation=3)
    # the reduced complex was checked over Z[S3] (`check_square_zero`)
    assert check_certificate(v, g, rng=2).valid
    assert calls == []
    k = _sign_module(g, 3)
    counts = {}
    for route in (cohomology, homology_with_coeffs, cohomology_via_em):
        route(v, k, range(3), x=g)
        counts[route.__name__] = len(calls)
        calls.clear()
    assert all(counts.values()), counts
