"""Seeded inputs, `aq` command lines and independent checks for each
workload.

`build(workload, seed, workdir)` writes the generated `.alg` / `.xmod`
files into `workdir` and returns one pass of `Job`s.  The seed is the
only input: job slots have fixed shapes and the seed picks groups,
coefficients and matrix entries within them, so every seed does
comparable work.  Each job's expected answer is computed here, before
any timing, by a route independent of the command it checks.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

from aq.abgroups import FGAbelianGroup
from aq.acceptance import closed_form_ext, closed_form_tor
from aq.beck import XModule, derivations, identity_map
from aq.fixtures import builtin_theory, load_algebra, load_xmodule
from aq.resolutions import bar_resolution_group, ext_oracle, tor_oracle
from aq.rings import (CoefficientModule, RModulePresentation, Ring,
                      invariants_naive)

WORKLOADS = ("group-loop", "module-many", "accept-quick")


@dataclass
class Job:
    """One `aq` command; `check(rc, payload)` returns an error or None."""

    argv: list
    check: Callable


# ---------------------------------------------------------------------------
# file writers

def _fold(atoms):
    term = atoms[-1]
    for atom in reversed(atoms[:-1]):
        term = f"mul({atom}, {term})"
    return term


def _power(gen, n):
    return _fold([gen] * n)


def _linear_term(coeffs):
    """Sum of (atom, integer) pairs as a right-nested `mul` word."""
    atoms = []
    for atom, c in coeffs:
        atoms += [atom if c > 0 else f"inv({atom})"] * abs(c)
    return _fold(atoms) if atoms else "e()"


def _alg_text(name, theory, gens, rels):
    lines = [f"algebra {name} {{", f"  theory {theory}", "  presentation {",
             "    gens g : " + " ".join(gens)]
    lines += [f"    rel {r}" for r in rels]
    lines += ["    realize bound = 64", "  }", "}"]
    return "\n".join(lines) + "\n"


def _write(workdir, filename, text):
    path = os.path.join(workdir, filename)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _same(group: FGAbelianGroup, entry):
    return entry["rank"] == group.rank and tuple(entry["torsion"]) == group.torsion


def _check_degrees(expected, em=False):
    """Check a `[{degree, rank, torsion, ...}]` payload degree by degree."""

    def check(rc, payload):
        if rc != 0:
            return f"exit {rc}"
        got = {e["degree"]: e for e in payload}
        if sorted(got) != sorted(expected):
            return f"degrees {sorted(got)} != {sorted(expected)}"
        for n, want in expected.items():
            if not _same(want, got[n]):
                return f"degree {n}: {got[n]} != {want}"
            if em and n >= 1 and not _same(want, got[n]["em_route"]):
                return f"degree {n} em route: {got[n]['em_route']} != {want}"
        return None

    return check


# ---------------------------------------------------------------------------
# group-loop: AQ cohomology of small groups through the loop group of the
# nerve, each group realized from a presentation by Todd-Coxeter

# name -> presentations (generators, relators, characters): the seed picks
# a presentation, and a twisted Z/3 acts by -1 through one of its
# characters onto {+1, -1}, each given on the generators
GROUPS = {
    "S3": [
        (["a", "b"], ["mul(a, a)", _power("b", 3), "mul(mul(a, b), mul(a, b))"],
         [{"a": -1, "b": 1}]),
        (["s", "t"], ["mul(s, s)", "mul(t, t)", _power("mul(s, t)", 3)],
         [{"s": -1, "t": -1}]),
    ],
    "Z4": [
        (["a"], [_power("a", 4)], [{"a": -1}]),
        (["a", "b"], ["mul(a, a) = b", "mul(b, b)"], [{"a": -1, "b": 1}]),
    ],
    "V4": [
        (["a", "b"], ["mul(a, a)", "mul(b, b)", rel],
         [{"a": -1, "b": 1}, {"a": 1, "b": -1}, {"a": -1, "b": -1}])
        for rel in ("mul(mul(a, b), mul(a, b))",
                    "mul(mul(a, b), mul(inv(a), inv(b)))")
    ],
}


def _write_twisted(workdir, tag, alg_path, g, character):
    """Z/3 on which the group `g` acts by -1 through `character`."""
    sign = {g.identity(): 1}
    frontier = [g.identity()]
    while frontier:
        x = frontier.pop()
        for gen, image in g.gen_images.items():
            y = g.gmul(x, image)
            if y not in sign:
                sign[y] = sign[x] * character[gen]
                frontier.append(y)
    lines = [f"xmodule {tag} {{", f'  base "{os.path.basename(alg_path)}"',
             "  carrier g : 3"]
    lines += [f"  act {el} : [[{1 if sign[el] == 1 else 2}]]"
              for el in g.carriers["g"]]
    lines.append("}")
    return _write(workdir, f"{tag}.xmod", "\n".join(lines) + "\n")


def _group_input(rng, workdir, tag, group, coeff_choice):
    """Write a seeded presentation of `group` and its coefficients; return
    (.alg path, --coeffs value, realized group, coefficient module)."""
    gens, rels, characters = rng.choice(GROUPS[group])
    alg_path = _write(workdir, f"{tag}.alg", _alg_text(tag, "gp", gens, rels))
    g = load_algebra(alg_path)
    if coeff_choice == "twisted":
        path = _write_twisted(workdir, f"{tag}k", alg_path, g,
                              rng.choice(characters))
        return alg_path, path, g, load_xmodule(path, base=g)
    m = int(coeff_choice[2:])
    return alg_path, str(m), g, XModule.trivial(g, [m])


def _group_job(rng, workdir, tag, group, top):
    coeff_choice = rng.choice(("Z/2", "Z/3", "twisted"))
    alg_path, coeffs, g, k = _group_input(rng, workdir, tag, group, coeff_choice)
    # AQ H^0 = Der(G, K); AQ H^n = classical H^{n+1} from the bar complex
    bar = bar_resolution_group(g, k, top + 1)
    expected = {0: derivations(identity_map(g), k).invariants()}
    expected.update({n: bar[n + 1] for n in range(1, top + 1)})
    argv = ["cohomology", "--theory", "gp", "--algebra", alg_path,
            "--coeffs", coeffs, "--max-degree", str(top), "--method", "both"]
    return Job(argv, _check_degrees(expected, em=True))


def _group_loop(rng, workdir):
    # the order-6 job is always S3: with Z/6 in its place the same slot
    # takes 10-20% longer, which spreads a pass's time over seeds
    return [
        _group_job(rng, workdir, "g6", "S3", 1),
        _group_job(rng, workdir, "g4", rng.choice(("Z4", "V4")), 2),
    ]


# ---------------------------------------------------------------------------
# module-many: many short jobs on seeded module presentations.  A slot fixes
# the ring, the shape and the isomorphism type of the module: its relation
# matrix is U * D * V for a fixed diagonal D and seeded elementary U and V,
# so the seed picks only the entries and every seed does comparable work.

# (ring, generators, relations, diagonal of D, coefficient moduli); a
# Z[Cm] entry lists the coefficients of 1, t, ..., t^(m-1).  Relations
# beyond the diagonal are redundant.  Each slot appears MODULE_REPS times
# per pass.
MODULE_SLOTS = [
    ("Z", 2, 2, [2, 6], [2]),
    ("Z", 2, 2, [3], [3]),
    ("Z", 3, 3, [1, 2, 4], [2]),
    ("Z", 3, 3, [2, 6], [0, 2]),
    ("Z/4", 2, 2, [2], [2]),
    ("Z/4", 3, 2, [1, 2], [4]),
    ("Z/6", 2, 2, [2, 3], [3]),
    ("Z/6", 2, 1, [3], [2]),
    ("Z[C2]", 2, 2, [[1, 1], [2, 0]], [3]),
    ("Z[C2]", 2, 2, [[1, 0], [1, -1]], [2]),
    ("Z[C3]", 2, 2, [[1, 0, 0], [1, 1, 1]], [2]),
]
MODULE_REPS = 4
MODULE_TOP = 2
MIX_STEPS = 2


def _ring_of(spec):
    """(Ring, theory name, element labels; 'e' is the unit)."""
    if spec == "Z":
        return Ring("Z"), "mod:Z", ("e",)
    ring = builtin_theory(f"mod:{spec}").ring
    labels = ring.group.elements if ring.kind == "ZG" else ("e",)
    return ring, f"mod:{spec}", labels


def _mul(x, y):
    """Product in Z[C_n] of coefficient lists (n = 1 is Z)."""
    n = len(x)
    out = [0] * n
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[(i + j) % n] += a * b
    return out


def _add_multiple(x, y, r):
    return [a + b for a, b in zip(x, _mul(r, y))]


def _seeded_relations(rng, n, gens, nrels, diag):
    """Relation columns of U * D * V over Z[C_n]."""
    def element():  # a unit, +-t^k
        r = [0] * n
        r[rng.randrange(n)] = rng.choice((-1, 1))
        return r

    diag = [d if isinstance(d, list) else [d] for d in diag]
    cols = [[list(diag[j]) if i == j and j < len(diag) else [0] * n
             for i in range(gens)] for j in range(nrels)]
    for j in range(len(diag), nrels):
        src = cols[j % len(diag)]
        cols[j] = [_add_multiple(a, b, element()) for a, b in zip(cols[j], src)]
    for _ in range(MIX_STEPS):
        if nrels > 1:
            j, k = rng.sample(range(nrels), 2)
            r = element()
            cols[j] = [_add_multiple(a, b, r) for a, b in zip(cols[j], cols[k])]
        if gens > 1:
            i, k = rng.sample(range(gens), 2)
            r = element()
            for col in cols:
                col[i] = _add_multiple(col[i], col[k], r)
    return cols


def _module_text(tag, theory, labels, cols):
    gens = [f"x{i}" for i in range(len(cols[0]))]
    rels = []
    for col in cols:
        pairs = [(gen if h == "e" else f"act_{h}({gen})", c)
                 for gen, entry in zip(gens, col)
                 for h, c in zip(labels, entry)]
        rels.append(_linear_term(pairs))
    return _alg_text(tag, theory, gens, rels)


def _module_presentation(ring, labels, cols):
    """The same module built directly, not through the fixture parser."""
    if ring.kind == "ZG":
        cols = [[{h: c for h, c in zip(labels, entry) if c} for entry in col]
                for col in cols]
    else:
        m = ring.m if ring.kind == "Zmod" else 0
        cols = [[entry[0] % m if m else entry[0] for entry in col]
                for col in cols]
    return RModulePresentation(ring, len(cols[0]), cols)


def _check_page(expected):
    """An `ss --check` page: exit 0, every convergence row consistent and
    row t = 0 equal to the expected Ext or Tor."""

    def check(rc, payload):
        if rc != 0:
            return f"exit {rc}"
        if not all(row["consistent"] for row in payload["convergence"]):
            return "inconsistent convergence row"
        cells = {(c["s"], c["t"]): c["group"] for c in payload["grid"]}
        for s, want in expected.items():
            got = cells.pop((s, 0), {"rank": 0, "torsion": []})
            if not _same(want, got):
                return f"E2[{s},0] = {got} != {want}"
        if cells:
            return f"unexpected cells {sorted(cells)}"
        return None

    return check


def _module_jobs(workdir, tag, spec, cols, moduli, rep, zcm_ss_oracle=False):
    """cohomology, homology with and without coefficients, then one
    `ss --check` page and one `oracle` command, which rotate with `rep`;
    over Z[Cm] the last two only with `zcm_ss_oracle`."""
    ring, theory, labels = _ring_of(spec)
    path = _write(workdir, f"{tag}.alg", _module_text(tag, theory, labels, cols))
    module = _module_presentation(ring, labels, cols)
    coeffs = ",".join(str(m) for m in moduli)
    top = MODULE_TOP
    degrees = range(top + 1)
    if ring.kind == "ZG":
        coeff = CoefficientModule.trivial(ring, moduli)
        ext = dict(enumerate(ext_oracle(module, coeff, top)))
        tor = dict(enumerate(tor_oracle(module, coeff, top)))
    else:
        ext = {n: closed_form_ext(module, moduli, n) for n in degrees}
        tor = {n: closed_form_tor(module, moduli, n) for n in degrees}
    # without coefficients a module's AQ homology is Tor^R(M, R): the
    # underlying abelian group of M in degree 0, by the naive Smith
    # reduction, and 0 above
    integral = {n: FGAbelianGroup() for n in degrees}
    integral[0] = invariants_naive(module.z_presentation())
    common = ["--theory", theory, "--algebra", path, "--max-degree", str(top)]
    ss = ["--ring", spec, "--module", path, "--coeffs", coeffs,
          "--smax", str(top), "--check"]
    pages = [(["uct"], ext), (["tor"], tor), (["rev-adams"], tor),
             (["rev-adams", "--variant", "cohomology"], ext)]
    kind, want = pages[rep % len(pages)]
    oracle = ("ext", ext) if rep % 2 == 0 else ("tor", tor)
    jobs = [
        Job(["cohomology", *common, "--coeffs", coeffs, "--method", "both"],
            _check_degrees(ext, em=True)),
        Job(["homology", *common, "--coeffs", coeffs], _check_degrees(tor)),
        Job(["homology", *common], _check_degrees(integral)),
    ]
    if ring.kind == "ZG" and not zcm_ss_oracle:
        # over Z[Cm] the `ss` and `oracle` commands stop with a KeyError:
        # `--ring Z[Cm]` names the group elements g0, g1, ... while
        # mod:Z[Cm] modules use e, a, a2, ...  A workload runs only
        # commands that succeed, so these run over Z and Z/m only;
        # test_zcm_ss_and_oracle_commands keeps the defect on record.
        return jobs
    return jobs + [
        Job(["ss", kind[0], *ss, *kind[1:]], _check_page(want)),
        Job(["oracle", oracle[0], "--ring", spec, "--module", path,
             "--coeffs", coeffs, "--max-degree", str(top)],
            _check_degrees(oracle[1])),
    ]


def _module_many(rng, workdir):
    jobs = []
    for rep in range(MODULE_REPS):
        for i, (spec, gens, nrels, diag, moduli) in enumerate(MODULE_SLOTS):
            n = len(_ring_of(spec)[2])
            cols = _seeded_relations(rng, n, gens, nrels, diag)
            jobs += _module_jobs(workdir, f"m{rep}_{i}", spec, cols, moduli, rep)
    return jobs


# ---------------------------------------------------------------------------
# accept-quick: the acceptance suite as users and CI run it; its inputs
# are fixed inside the suite, so the seed has no effect

def _check_acceptance(rc, payload):
    failing = [rec["name"] for rec in payload if not rec["pass"]]
    if rc != 0 or failing or len(payload) != 8:
        return f"exit {rc}, failing {failing}, {len(payload)} criteria"
    return None


def _accept_quick(rng, workdir):
    return [Job(["accept", "--quick"], _check_acceptance)]


_BUILDERS = {
    "group-loop": _group_loop,
    "module-many": _module_many,
    "accept-quick": _accept_quick,
}


def build(workload, seed, workdir):
    """Write the inputs for `seed` into `workdir`; return one pass of jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, workdir)
