"""The `--json` output of the README examples, of `aq cohomology` and the
action matrices of `aq homology --over` on S3, of the coefficient routes
on the basis-changed Z/2 resolution `fixtures/z2res-basis.sres` (whose
degeneracies single out no nondegenerate generators), of the Tor and
reverse-Adams pages of `aq ss`, of a module theory's cohomology by both
routes and homology without coefficients, and of `aq accept --quick` is
pinned byte for byte by its SHA-256, so that a change of representation
inside the library cannot change what a user reads.  `aq accept` records how long each criterion took; those
`seconds` fields are the only bytes that differ from run to run, so they
are dropped before hashing."""

import hashlib
import json
import os

import pytest

from aq.cli import main

ROOT = os.path.join(os.path.dirname(__file__), "..")

COMMANDS = {
    "check": (
        ["check", "fixtures/z2res.sres"],
        "86b9b470c527d8ca4474addb48c21c9f9f5a3176a9118a3e612ff16ff00a11b2"),
    "theory-module": (
        ["theory", "module", "--theory", "gp", "--algebra", "fixtures/z2.alg"],
        "c4dcccd9ea36edb4b6a22c7069338f1fcc51d6d56b2cf15f58811eb19e4a5ec2"),
    "cohomology-z2": (
        ["cohomology", "--theory", "gp", "--algebra", "fixtures/z2.alg",
         "--coeffs", "fixtures/z2-triv.xmod", "--max-degree", "1",
         "--method", "both"],
        "002a67cb2f8c59795fb78d2c375441d80567398361e32006eb70d12cb348489b"),
    "homology-y-z4": (
        ["homology", "--theory", "mod:Z", "--algebra", "fixtures/y-z4.alg",
         "--coeffs", "2", "--max-degree", "1"],
        "23a8918289cc8c92400c78907af88b3b2b7e2980b5bf6f25433c5e4b5a0d2ae2"),
    "oracle-bar": (
        ["oracle", "bar", "--group", "fixtures/z4.alg", "--coeffs", "2",
         "--max-degree", "3"],
        "5b46471bb1f6d94af6acca02002bbe486aa2edcffaa09b319549342eab536909"),
    "oracle-factor-set": (
        ["oracle", "factor-set", "--group", "fixtures/z3.alg", "--coeffs", "3",
         "--degree", "2"],
        "890c7e6232945dda0a28881fbf8c4230c19b79cf887a4b6949a5704fee966277"),
    "ss-uct-module": (
        ["ss", "uct", "--ring", "Z", "--module", "fixtures/y-z4.alg",
         "--coeffs", "2", "--smax", "3", "--check"],
        "d4e7fb10898a09f680e14af9a7420ac193848b2816cfd74068e5faedad842625"),
    "ss-uct-graded": (
        ["ss", "uct", "--ring", "Z", "--h", "0:4", "--h", "1:2",
         "--coeffs", "2"],
        "4e0570d75e9f58e7e9d1d327d2513d7f959cf5c5a955d170e3a891cd879e768d"),
    "cohomology-s3": (
        ["cohomology", "--theory", "gp", "--algebra", "fixtures/s3.alg",
         "--coeffs", "2", "--max-degree", "1", "--method", "both"],
        "002a67cb2f8c59795fb78d2c375441d80567398361e32006eb70d12cb348489b"),
    "homology-s3-action": (
        ["homology", "--theory", "gp", "--algebra", "fixtures/s3.alg",
         "--over", "fixtures/s3.alg", "--max-degree", "1"],
        "34f4bd8995da98f56bb6c66a35fa97826ce8630f3278ac89b655bf5477ea2a30"),
    "homology-z2-basis-over": (
        ["homology", "--theory", "gp", "--algebra", "fixtures/z2.alg",
         "--resolution", "fixtures/z2res-basis.sres",
         "--over", "fixtures/z2.alg", "--max-degree", "2"],
        "bb37686ef959f0a0b07cf24499329b5b4e3b54805e582ad31e7136d3952aca85"),
    "homology-z2-basis-coeffs": (
        ["homology", "--theory", "gp", "--algebra", "fixtures/z2.alg",
         "--resolution", "fixtures/z2res-basis.sres",
         "--coeffs", "2", "--max-degree", "2"],
        "22471bb52e2737e254b4044ba9b1e8bc86b5f23ce3a6c93b6c2f55fb97a33873"),
    "cohomology-z2-basis": (
        ["cohomology", "--theory", "gp", "--algebra", "fixtures/z2.alg",
         "--resolution", "fixtures/z2res-basis.sres",
         "--coeffs", "2", "--max-degree", "2", "--method", "both"],
        "e69323268856314ca8f4d0bba2f848a40e9166da3f78c793675f8ea40c11a332"),
    "ss-tor-module": (
        ["ss", "tor", "--module", "fixtures/y-z4.alg", "--coeffs", "2",
         "--check"],
        "e51fada9edb68714c05c639cae5308b04a5f2b309a20e6318cc5b55bd84a3d62"),
    "ss-rev-adams-homology": (
        ["ss", "rev-adams", "--module", "fixtures/y-z4.alg", "--coeffs", "2",
         "--check", "--variant", "homology"],
        "413c0731769c32fabb8f888a9db244a06acb4bc7fbf2dc681b9e89efc46330dd"),
    "ss-rev-adams-cohomology": (
        ["ss", "rev-adams", "--module", "fixtures/y-z4.alg", "--coeffs", "2",
         "--check", "--variant", "cohomology"],
        "202fdd26234bc85809080f720ddda58bbc9d7cfe55ef2b3f73a0e846b06a25e6"),
    "ss-tor-graded": (
        ["ss", "tor", "--h", "0:4", "--h", "1:2", "--coeffs", "0,2"],
        "8f524879f5e0c7189cf82564aa3d2479e40bdd408f4e61dc92151cf177e64232"),
    "cohomology-y-z4-both": (
        ["cohomology", "--theory", "mod:Z", "--algebra", "fixtures/y-z4.alg",
         "--coeffs", "2", "--method", "both", "--max-degree", "2"],
        "455ef294d7267b5e6ce5c938875aeb68f3e5284e6f24ff42bcf35aad8d132e32"),
    "homology-y-z4-integral": (
        ["homology", "--theory", "mod:Z", "--algebra", "fixtures/y-z4.alg",
         "--max-degree", "2"],
        "0b5af3d5e3005b2a443f01bffaa1ecf0830a88c2497ec85cee2f817756f814cd"),
}

ACCEPT_QUICK = (
    "bf8e985da567ee3420f797a3b55a22d396a5754728ded8b488559ee8c83b7923")


def _json_of(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out.json"
    assert main(argv + ["--json", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_digest(name, tmp_path, monkeypatch):
    argv, digest = COMMANDS[name]
    data = _json_of(argv, tmp_path, monkeypatch)
    assert hashlib.sha256(data).hexdigest() == digest


def test_a_ring_other_than_the_modules_exits_2(tmp_path, monkeypatch,
                                               capsys):
    """`--ring` with `--module` must name the module's own ring: Z/4 for
    the Z-module y-z4 is a usage error naming both rings, and writes no
    `--json`.  So is `--ring Z[C2]`, whose elements are g0, g1, for a
    mod:Z[C2] module, whose elements are e, a."""
    monkeypatch.chdir(ROOT)
    zc2 = tmp_path / "zc2.alg"
    zc2.write_text("algebra m {\n  theory mod:Z[C2]\n  presentation {\n"
                   "    gens g : x\n    rel mul(x, act_a(x))\n  }\n}\n")
    out = tmp_path / "out.json"
    for argv, ring, module_ring in [
            (["ss", "uct", "--ring", "Z/4", "--module", "fixtures/y-z4.alg",
              "--check"], "Z/4", "Z"),
            (["oracle", "ext", "--ring", "Z/4", "--module",
              "fixtures/y-z4.alg"], "Z/4", "Z"),
            (["ss", "tor", "--ring", "Z[C2]", "--module", str(zc2)],
             "Z[g0xg1]", "Z[exa]"),
            (["oracle", "tor", "--ring", "Z[C2]", "--module", str(zc2)],
             "Z[g0xg1]", "Z[exa]")]:
        assert main(argv + ["--coeffs", "2", "--json", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"the ring {ring}, but --module" in err, err
        assert err.rstrip().endswith(f"is over {module_ring}"), err
        assert not out.exists()


def test_accept_quick_json_digest_without_seconds(tmp_path, monkeypatch):
    records = json.loads(_json_of(["accept", "--quick"], tmp_path,
                                  monkeypatch))
    for rec in records:
        del rec["seconds"]
    data = (json.dumps(records, sort_keys=True, indent=2) + "\n").encode()
    assert hashlib.sha256(data).hexdigest() == ACCEPT_QUICK
