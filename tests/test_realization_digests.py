"""Abelian groups are Z-modules: one normal-form engine and one
realization over Z serve `ab`, Z/m and Z[G] theories alike.

The SHA-256 pins below were computed before the abelian and module
engines were merged; they fix the carrier, every table and the generator
images of realized presentations, labels included.  Over Z[G] the labels
depend on the order in which the Smith reduction reads the relations and
their translates, and the Z[C2], Z[C3] and Z[C4] cases below change
labels when that order changes.  Both tests also run under `python -O`,
which strips asserts."""

import hashlib
import json
import os
import random
import subprocess
import sys

from aq.algebras import FreeAlgebra, NotFiniteWithinBound, realize_presentation
from aq.fixtures import builtin_theory
from aq.terms import App

THEORIES = ("ab", "mod:Z/4", "mod:Z/6", "mod:Z[C2]", "mod:Z[C3]",
            "mod:Z[C4]")

# (theory, seed) -> SHA-256 of the realized algebra, or of the
# NotFiniteWithinBound message
PINS = {
    "ab:0":
        "c6d3fa8b435c595ae16bbd38e020fef2b4e61f3bac9eb8b85d91db8714affd85",
    "ab:61":
        "a2d36e729dded8d1e11c3b7b7ca8e3ab33c115f2485139ac68240add1953782c",
    "ab:224":
        "4f1e9369515a351e68c705726316db2a5ff60c1f3963a85806a567add592bc32",
    "ab:3":
        "fad240b9969c2026ffdb17dd355e52370d2b0507b3afd2667a615da71498010e",
    "mod:Z/4:0":
        "1173dceb0a78fcf0ba39e51eb86dfee627cd502217aa04931a4bc8e86bd2d3d9",
    "mod:Z/4:54":
        "8974ae8a36e13456298aa01bcb998d330949fce1fe7e1935b8ca41ae3f1298e3",
    "mod:Z/4:1":
        "f1447404360005af16fb4526b55a554c33708bcf2baa113bc6e02dab483a79cf",
    "mod:Z/6:0":
        "a2c2286d4ded7a2d86507b5213acdb9a85414c35200f8bf081e1a4020506cbf9",
    "mod:Z/6:32":
        "33fbbaf0e2c0d3c94b048b0571ee1fe618e8a2c0b84e23af23e821dfeb5a5f72",
    "mod:Z[C2]:36":
        "1a96e86e7337641136ddf02e7a68a2ccb34b54f7c8a93a323ed4663749c53586",
    "mod:Z[C2]:98":
        "779217c7a0f3fe98d7f441c645d55cddcd46b2abbe4a4e6ff969e4c4f4eba391",
    "mod:Z[C2]:72":
        "9ed2cd1abbb9ef14d3b83cff24034aef680b4619993332f4bd9ddd61b5eae0a5",
    "mod:Z[C2]:2":
        "fad240b9969c2026ffdb17dd355e52370d2b0507b3afd2667a615da71498010e",
    "mod:Z[C3]:53":
        "9f4645af9e8164026ef961fc6d23953cd4a3fc808f3fec362a68a608e179f028",
    "mod:Z[C3]:45":
        "c44e74007a8328078b0f1bd74236c8afac258a4fe6ff246245f8c55aee7c9c17",
    "mod:Z[C3]:70":
        "c03a4d65ad524009fb4f579c66138b92f3bfa0eeecf647063a922dc47bc78f56",
    "mod:Z[C3]:10":
        "9211447ab19e233b6be38b8ee43e85bb1c867ed14a7032c0d69e7da9e9b59bb6",
    "mod:Z[C4]:47":
        "d9d733d216494c6d8d4e5086d3eff46e0966b35283e5e93a7aab462047541c0d",
    "mod:Z[C4]:37":
        "72c9742a2472d141efd1e5e62da8385ea9e07597c5eb9edfb35379b6b559faa3",
    "mod:Z[C4]:287":
        "b8945dc6a4b0de03f5efd65ab7951fa5ed2c1ff2a6f6b327aff56a176b73255c",
    "mod:Z[C4]:1":
        "4010315ae96a134f42f17285299fe96679c31a13fbd161858146c58099f3709a",
}


def _atoms(theta, gens):
    """Each generator and, over Z[G], its translates act_h(g), h != 1."""
    ring = theta.ring
    acts = [h for h in ring.group.elements if h != ring.group.identity] \
        if ring.kind == "ZG" else []
    return [base for g in gens for base in
            [App(g, ())] + [App(f"act_{h}", (App(g, ()),)) for h in acts]]


def _presentation(name, seed):
    """One or two generators and as many relators, or one more: shuffled
    words with coefficients in -2..2 at every atom."""
    rng = random.Random(f"{name}:{seed}")
    theta = builtin_theory(name)
    gens = [f"x{i}" for i in range(rng.randint(1, 2))]
    rels = []
    for _ in range(rng.randint(len(gens), len(gens) + 1)):
        factors = []
        for base in _atoms(theta, gens):
            c = rng.randint(-2, 2)
            factors += [base if c > 0 else App("inv", (base,))] * abs(c)
        rng.shuffle(factors)
        word = factors[0] if factors else App("e", ())
        for f in factors[1:]:
            word = App("mul", (f, word))
        rels.append(word)
    return theta, gens, rels


def _realized_digests():
    out = {}
    for key in PINS:
        name, seed = key.rsplit(":", 1)
        theta, gens, rels = _presentation(name, int(seed))
        try:
            alg = realize_presentation(theta, gens, rels, bound=64)
            sort = theta.sorts[0]
            blob = repr((alg.carriers[sort],
                         sorted((op, sorted(tab.items()))
                                for op, tab in alg.tables.items()),
                         sorted(alg.gen_images.items())))
        except NotFiniteWithinBound as exc:
            blob = str(exc)
        out[key] = hashlib.sha256(blob.encode()).hexdigest()
    return out


def _random_term(rng, theta, gens, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(_atoms(theta, gens) + [App("e", ())])
    pick = rng.randrange(3)
    if pick == 0:
        return App("inv", (_random_term(rng, theta, gens, depth - 1),))
    if pick == 1 and theta.ring.kind == "ZG":
        h = rng.choice(theta.ring.group.elements)
        return App(f"act_{h}", (_random_term(rng, theta, gens, depth - 1),))
    return App("mul", (_random_term(rng, theta, gens, depth - 1),
                       _random_term(rng, theta, gens, depth - 1)))


def _normal_form_failures():
    """Terms whose normal form (`element_to_term` of `eval_term`) is not a
    fixed point of normalizing, or does not evaluate back to itself."""
    failures = []
    for name in THEORIES:
        rng = random.Random(f"normal forms {name}")
        theta = builtin_theory(name)
        free = FreeAlgebra(theta, ["x0", "x1"])
        for i in range(40):
            t = _random_term(rng, theta, free.gen_list, 5)
            word = free.eval_term(t)
            nf = free.element_to_term(word)
            if free.element_to_term(free.eval_term(nf)) != nf:
                failures.append(f"{name} #{i}: normalizing is not idempotent")
            if free.eval_term(free.element_to_term(word)) != word:
                failures.append(f"{name} #{i}: element_to_term does not "
                                f"round-trip through eval_term")
    return failures


def _under_O(function):
    """The JSON value of `function()` of this module under `python -O`."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import json, sys\n"
            f"sys.path.insert(0, {here!r})\n"
            "import test_realization_digests as t\n"
            f"print(json.dumps(t.{function}()))\n")
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(here, "..", "src")))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_realized_abelian_and_module_presentations_keep_their_digests():
    assert _realized_digests() == PINS
    assert _under_O("_realized_digests") == PINS


def test_normal_forms_are_idempotent_and_round_trip_on_every_ring():
    assert _normal_form_failures() == []
    assert _under_O("_normal_form_failures") == []
