import json
import os
import subprocess
import sys

import pytest

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import AlgebraError, cyclic_group, find_isomorphism
from aq.cli import _load_theory_arg, main
from aq.dsl import DslSyntaxError
from aq.fixtures import (
    load_algebra,
    load_sres,
    load_xmodule,
    parse_algebra,
    parse_module_presentation,
    write_alg,
    write_sres,
)
from aq.resolutions import check_certificate, loop_group_resolution

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def fx_text(name):
    with open(fx(name)) as fh:
        return fh.read()


def G(*divs):
    return FGAbelianGroup.from_divisors(divs)


def test_load_algebra_table():
    z2 = load_algebra(fx("z2.alg"))
    assert z2.order() == 2
    assert find_isomorphism(z2, cyclic_group(2)) is not None


def test_load_algebra_presentation():
    z4p = load_algebra(fx("z4-presented.alg"))
    assert z4p.order() == 4
    assert find_isomorphism(z4p, cyclic_group(4)) is not None


def test_load_xmodule_with_action_tables():
    km = load_xmodule(fx("z2-triv.xmod"))
    assert km.invariants() == G(2)
    assert km.is_trivial_action()


def test_xmodule_given_by_action_tables_alone():
    # z2-table.xmod has no act blocks: the action is read off its mul
    # tables at (x, e), and it is the module of z2-triv.xmod
    tables = load_xmodule(fx("z2-table.xmod"))
    acts = load_xmodule(fx("z2-triv.xmod"))
    for km in (tables, acts):
        assert (km.base.carriers, km.base.tables) == \
            (acts.base.carriers, acts.base.tables)
    assert (tables.carrier.moduli, tables.action) == \
        (acts.carrier.moduli, acts.action)


def test_cli_cohomology_is_the_same_for_either_z2_fixture(tmp_path, capsys):
    outputs = []
    for name in ("z2-triv.xmod", "z2-table.xmod"):
        out = tmp_path / f"{name}.json"
        assert main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                     "--coeffs", fx(name), "--max-degree", "1",
                     "--method", "both", "--json", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])[1]["em_route"] == {"rank": 0, "torsion": [2]}


@pytest.mark.parametrize("entry,message", [
    ("(0,1)->1.0", "'1.0' has 2 coordinates, the carrier has 1"),
    ("(0,1)->b", "'b' is not a carrier element"),
])
def test_a_bad_action_table_entry_is_a_fixture_error(tmp_path, entry, message):
    # an entry of the mul table at (a, e), moved to line 8 of the file;
    # also under `python -O`, which strips asserts
    bad = tmp_path / "bad.xmod"
    text = fx_text("z2-table.xmod").replace(
        '"z2.alg"', f'"{os.path.abspath(fx("z2.alg"))}"')
    bad.write_text(text.replace("{ (0,0)->0 (0,1)->1 (1,0)->1 (1,1)->0 }\n}",
                                f"{{ (0,0)->0\n {entry} }}\n}}"))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "aq.cli", "check", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, flags
        assert proc.stderr == f"error: {bad}:8: {message}\n", flags
        assert proc.stdout == "", flags


def test_load_xmodule_inversion():
    km = load_xmodule(fx("z3-inv.xmod"))
    assert km.invariants() == G(3)
    assert not km.is_trivial_action()


def test_load_module_presentation():
    with open(fx("y-z4.alg")) as fh:
        mod = parse_module_presentation(fh.read())
    assert mod.invariants() == G(4)


def test_load_sres_and_certificate():
    v = load_sres(fx("z2res.sres"))
    v.check_identities()
    cert = check_certificate(v, v.target, rng=2)
    assert cert.valid


def test_cli_cohomology_with_user_resolution(capsys):
    code = main([
        "cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
        "--coeffs", fx("z2-triv.xmod"), "--max-degree", "2",
        "--resolution", fx("z2res.sres"), "--method", "both",
    ])
    captured = capsys.readouterr()
    assert code == 0
    # H^*(Z/2; Z/2) = Z/2 in every degree
    assert "H^0 = Z/2" in captured.out
    assert "H^1 = Z/2" in captured.out
    assert "H^2 = Z/2" in captured.out


def test_cli_accept_quick(tmp_path, capsys):
    out = tmp_path / "accept.json"
    code = main(["accept", "--quick", "--json", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("[pass]") == 8
    data = json.loads(out.read_text())
    assert len(data) == 8 and all(rec["pass"] for rec in data)
    # the same records under `python -O`, which strips the asserts (such
    # as the re-check of every map `enumerate_homs` finds)
    out_o = tmp_path / "accept-O.json"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aq.cli", "accept", "--quick",
         "--json", str(out_o)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    data_o = json.loads(out_o.read_text())
    for recs in (data, data_o):
        for rec in recs:
            del rec["seconds"]
    assert data_o == data


def test_sres_round_trip():
    v = load_sres(fx("z2res.sres"))
    text = write_sres(v, name="z2res", over="z2.alg")
    import aq.fixtures as F

    v2 = F.parse_sres(text, base_dir=FIXTURES)
    v2.check_identities()
    # the augmentation and its target survive, and so does the certificate
    assert v2.augmentation.mapping == v.augmentation.mapping
    assert v2.target.carriers == v.target.carriers
    cert = check_certificate(v2, v2.target, rng=2)
    assert cert.valid, cert.checks
    # an augmentation cannot be written without the over line it needs
    with pytest.raises(AlgebraError, match="^write_sres: give over"):
        write_sres(v)


def _z2res_without_over(keep_augment):
    """z2res.sres without its over line, and without its augment block
    unless `keep_augment`."""
    text = fx_text("z2res.sres").replace('  over "z2.alg"\n', "")
    if not keep_augment:
        text = text.replace("  augment {\n    t/a -> a\n  }\n", "")
    return text


def test_an_sres_without_over_fails_the_pi0_check(tmp_path, capsys):
    path = tmp_path / "z2res-no-over.sres"
    path.write_text(_z2res_without_over(keep_augment=False))
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--resolution", str(path), "--coeffs", "2"])
    assert code == 1
    assert "resolution certificate failed: ['pi0', 'abelianized_acyclic']" \
        in capsys.readouterr().err


def test_an_augment_block_without_over_exits_2_at_its_line(tmp_path, capsys):
    text = _z2res_without_over(keep_augment=True)
    path = tmp_path / "z2res-no-over.sres"
    path.write_text(text)
    line = text.splitlines().index("  augment {") + 1
    assert main(["check", str(path)]) == 2
    assert f"{path}:{line}: an augment block needs the over line" in \
        capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--over", fx("z3.alg")],
                                   ["--coeffs", "2"]],
                         ids=["absolute", "over", "coeffs"])
def test_a_written_resolution_read_at_its_truncation_exits_1(
        extra, tmp_path, capsys):
    # Z/3 through level 2, written with its augmentation: degree 2 has no
    # boundaries there and is refused by every homology route; degree 1
    # agrees with the loop-group route
    z3 = fx("z3.alg")
    path = tmp_path / "z3t2.sres"
    path.write_text(write_sres(
        loop_group_resolution(load_algebra(z3), truncation=2), over=z3))
    argv = ["homology", "--theory", "gp", "--algebra", z3, *extra]
    assert main(argv + ["--resolution", str(path), "--max-degree", "2"]) == 1
    assert "degree 2 needs level 3, above the truncation 2" in \
        capsys.readouterr().err
    assert main(argv + ["--resolution", str(path), "--max-degree", "1",
                        "--json", str(tmp_path / "sres.json")]) == 0
    assert main(argv + ["--max-degree", "1",
                        "--json", str(tmp_path / "loop.json")]) == 0
    assert (tmp_path / "sres.json").read_text() == \
        (tmp_path / "loop.json").read_text()


@pytest.mark.parametrize("which", ["direct", "semidirect", "quotient",
                                   "z4-presented.alg", "y-z4.alg", "mod:Z/4"])
def test_alg_round_trip(which):
    # the reader validates the tables again
    from aq.algebras import (
        direct_product,
        quotient_by_normal_closure,
        symmetric_3,
    )
    from aq.beck import XModule, semidirect_product

    if which == "direct":
        alg = direct_product(cyclic_group(2), cyclic_group(3))
    elif which == "semidirect":
        s3 = symmetric_3()
        sign = {x: [[2]] if x in ("p021", "p102", "p210") else [[1]]
                for x in s3.carriers["g"]}
        alg = semidirect_product(XModule(s3, FinAb([3]), sign), s3)
    elif which == "quotient":
        alg, _ = quotient_by_normal_closure(symmetric_3(), ["p120"])
    elif which == "mod:Z/4":
        alg = parse_algebra("algebra m { theory mod:Z/4 presentation {\n"
                            "  gens g : a b\n  rel mul(a, a)\n} }\n")
    else:
        alg = load_algebra(fx(which))
    back = parse_algebra(write_alg(alg, name="alg"))
    assert back.carriers == alg.carriers
    assert back.tables == alg.tables
    assert back.theory is alg.theory


def test_write_alg_refuses_what_it_cannot_write():
    from aq.algebras import AlgebraError

    with pytest.raises(AlgebraError, match="'Z2:Z2' is not an identifier"):
        write_alg(cyclic_group(2), name="Z2:Z2")


def test_cli_check_fixtures(capsys):
    assert main(["check", fx("gp.thy")]) == 0
    assert main(["check", fx("z2.alg")]) == 0
    assert main(["check", fx("z2-triv.xmod")]) == 0
    assert main(["check", fx("z2res.sres")]) == 0
    capsys.readouterr()


def test_cli_parser_is_built_once_and_keeps_no_state(capsys):
    from aq import cli

    graded = ["ss", "uct", "--ring", "Z", "--h", "0:4", "--h", "1:2",
              "--coeffs", "2"]
    assert main(graded) == 0
    first = capsys.readouterr().out
    parser = cli._parser()
    # a repeated option's list starts empty on every call
    assert main(graded) == 0
    assert capsys.readouterr().out == first
    assert cli._parser() is parser
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: aq check ")


def test_cli_check_broken_sres_names_identity(capsys):
    code = main(["check", fx("broken.sres")])
    captured = capsys.readouterr()
    assert code == 1
    assert "d_" in captured.err


def test_cli_theory_constructions(capsys):
    assert main(["theory", "abelianize", "--theory", "gp"]) == 0
    out1 = capsys.readouterr().out
    assert "theory" in out1
    assert main(["theory", "comma", "--theory", "gp",
                 "--algebra", fx("z2.alg")]) == 0
    out2 = capsys.readouterr().out
    assert "@" in out2
    assert main(["theory", "module", "--theory", "gp",
                 "--algebra", fx("z2.alg")]) == 0
    out3 = capsys.readouterr().out
    assert "act_" in out3
    assert main(["theory", "product", "--theory", "gp", "--phi", "ab"]) == 0
    capsys.readouterr()


def test_cli_cohomology_group_both_routes(tmp_path, capsys):
    out = tmp_path / "coh.json"
    code = main([
        "cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
        "--coeffs", fx("z2-triv.xmod"), "--max-degree", "1",
        "--method", "both", "--json", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H^0 = Z/2" in captured.out
    assert "H^1 = Z/2" in captured.out
    data = json.loads(out.read_text())
    assert data[0] == {"degree": 0, "rank": 0, "torsion": [2]}
    assert data[1]["em_route"] == {"rank": 0, "torsion": [2]}


def test_cli_cohomology_module_theory(capsys):
    code = main([
        "cohomology", "--theory", "mod:Z", "--algebra", fx("y-z4.alg"),
        "--coeffs", "2", "--max-degree", "2", "--method", "both",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H^0 = Z/2" in captured.out and "H^1 = Z/2" in captured.out
    assert "H^2 = 0" in captured.out


def test_cli_homology_with_coeffs(capsys):
    code = main([
        "homology", "--theory", "mod:Z", "--algebra", fx("y-z4.alg"),
        "--coeffs", "2", "--max-degree", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H_0 = Z/2" in captured.out and "H_1 = Z/2" in captured.out


def test_cli_group_cohomology_moduli_shorthand(capsys):
    # integer-moduli coefficients over a group theory lift to the trivial
    # module over the group ring
    code = main([
        "cohomology", "--theory", "gp", "--algebra", fx("z4.alg"),
        "--coeffs", "3", "--max-degree", "1", "--method", "both",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H^0 = 0" in captured.out and "H^1 = 0" in captured.out
    code = main([
        "cohomology", "--theory", "gp", "--algebra", fx("z4.alg"),
        "--coeffs", "2", "--max-degree", "1",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H^0 = Z/2" in captured.out and "H^1 = Z/2" in captured.out


def test_cli_homology_abelianization(capsys):
    code = main([
        "homology", "--theory", "gp", "--algebra", fx("s3.alg"),
        "--max-degree", "0",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H_0 = Z/2" in captured.out


def test_cli_classical_indexing_shift(capsys):
    code = main([
        "cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
        "--coeffs", fx("z2-triv.xmod"), "--max-degree", "1",
        "--classical-indexing",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "H^2 = Z/2" in captured.out  # degree 1 reported classically


def test_cli_oracles(capsys):
    assert main(["oracle", "bar", "--group", fx("z2.alg"),
                 "--coeffs", "2", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "H^2" in out
    assert main(["oracle", "factor-set", "--group", fx("z3.alg"),
                 "--coeffs", "3", "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "Z/3" in out
    assert main(["oracle", "ext", "--ring", "Z", "--module", fx("y-z4.alg"),
                 "--coeffs", "2", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "Ext^1 = Z/2" in out
    assert main(["oracle", "tor", "--ring", "Z", "--module", fx("y-z4.alg"),
                 "--coeffs", "2", "--max-degree", "1"]) == 0
    capsys.readouterr()


def test_cli_spectral_pages(tmp_path, capsys):
    out = tmp_path / "page.json"
    code = main([
        "ss", "uct", "--ring", "Z", "--module", fx("y-z4.alg"),
        "--coeffs", "2", "--smax", "3", "--tmax", "2", "--check",
        "--json", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(out.read_text())
    assert data["quadrant"] == "second"
    assert any(cell["group"] == {"rank": 0, "torsion": [2]}
               for cell in data["grid"])
    assert all(row["consistent"] for row in data["convergence"])
    assert main(["ss", "rev-adams", "--ring", "Z", "--module",
                 fx("y-z4.alg"), "--coeffs", "2", "--variant", "homology",
                 "--smax", "2", "--check"]) == 0
    capsys.readouterr()


def test_cli_spectral_graded_input(capsys):
    code = main([
        "ss", "uct", "--ring", "Z", "--h", "0:4", "--h", "1:2",
        "--coeffs", "2", "--smax", "2", "--tmax", "2",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "E2[0,1] = Z/2" in captured.out
    assert "E2[1,1] = Z/2" in captured.out
    # neither --module nor --h is a usage error
    code = main(["ss", "tor", "--ring", "Z", "--coeffs", "2"])
    capsys.readouterr()
    assert code == 2


def test_cli_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        main([
            "cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
            "--coeffs", fx("z2-triv.xmod"), "--max-degree", "1",
            "--json", str(out),
        ])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_usage_error_exit_code(capsys):
    code = main(["check", "nonexistent.xyz"])
    capsys.readouterr()
    assert code == 2


def test_cli_entry_point_runs():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "aq.cli", "check", fx("z2.alg")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_cli_invalid_xmodule_exits_2_with_its_position(tmp_path, capsys):
    bad = tmp_path / "bad.xmod"
    bad.write_text("xmodule bad {\n"
                   f"  base \"{os.path.abspath(fx('z2.alg'))}\"\n"
                   "  carrier g : 3\n"
                   "  act e : [[2]]\n"
                   "  act a : [[1]]\n"
                   "}\n")
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--coeffs", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:4: xmodule bad: identity of X must act trivially" in err


def _action_table_xmodule(tmp_path, tables):
    bad = tmp_path / "bad.xmod"
    bad.write_text("xmodule bad {\n"
                   f"  base \"{os.path.abspath(fx('z2.alg'))}\"\n"
                   "  carrier g : 2\n"
                   + "".join(f"  action mul {t}\n" for t in tables) + "}\n")
    return bad


def test_cli_action_table_missing_an_entry_names_its_block(tmp_path, capsys):
    bad = _action_table_xmodule(tmp_path, [
        "(e, e) { (0,0)->0 (0,1)->1 (1,0)->1 (1,1)->0 }",
        "(a, e) { (0,0)->0 (1,0)->1 (1,1)->0 }"])
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--coeffs", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:5: action table for (a,e) missing entry ('0', '1')" in err


def test_cli_action_tables_missing_an_element_name_the_header(tmp_path,
                                                              capsys):
    bad = _action_table_xmodule(tmp_path, [
        "(e, e) { (0,0)->0 (0,1)->1 (1,0)->1 (1,1)->0 }"])
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--coeffs", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:1: cannot derive action for ['a']; add act blocks" in err


def test_cli_algebra_error_exits_1_naming_the_check(capsys):
    # the fixture resolution has too few levels for degree 3
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--resolution", fx("z2res.sres"), "--coeffs", "2",
                 "--max-degree", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "check failed: degree 3 needs level 4, above the truncation 3" \
        in err


@pytest.mark.parametrize("ring", ["Z/0", "Z/1", "Z/x", "Z[C0]", "Q"])
def test_cli_malformed_ring_exits_2_naming_the_option(ring, capsys):
    code = main(["oracle", "ext", "--ring", ring, "--module", fx("y-z4.alg"),
                 "--coeffs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: --ring: " in err and repr(ring) in err


@pytest.mark.parametrize("argv,message", [
    (["oracle", "ext", "--ring", "Z", "--module", fx("y-z4.alg"),
      "--coeffs", "2,x"], "--coeffs: expected moduli"),
    (["oracle", "ext", "--ring", "Z/4", "--module", fx("m-z4.alg"),
      "--coeffs", "3"], "--coeffs 3: Z/4-module carrier must be 4-torsion"),
    (["ss", "uct", "--ring", "Z/4", "--h", "0:2", "--coeffs", "3"],
     "--coeffs 3: Z/4-module carrier must be 4-torsion"),
    (["ss", "uct", "--ring", "Z", "--h", "0:x", "--coeffs", "2"],
     "--h: expected DEG:moduli"),
    (["oracle", "bar", "--group", fx("z2.alg"), "--coeffs", "0"],
     "--coeffs 0: FinAb moduli must be >= 1"),
    (["homology", "--theory", "mod:Z/1", "--algebra", fx("y-z4.alg")],
     "unknown builtin theory 'mod:Z/1': ring descriptor 'Z/1'"),
], ids=["not-an-integer", "oracle-torsion", "ss-torsion", "graded-spec",
        "group-coefficients", "theory-ring"])
def test_cli_malformed_options_exit_2(argv, message, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


def test_cli_coefficient_check_does_not_depend_on_assert():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "aq.cli", "ss", "uct", "--ring", "Z/4",
         "--h", "0:2", "--coeffs", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "must be 4-torsion" in proc.stderr


def test_cli_sres_with_malformed_ring_exits_2_with_its_position(tmp_path,
                                                                 capsys):
    bad = tmp_path / "bad.sres"
    bad.write_text("sres zres {\n"
                   "  ring Z/0\n"
                   "  chain {\n"
                   "    ranks 1 1\n"
                   "    d 1 : [[4]]\n"
                   "  }\n"
                   "}\n")
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:2: ring descriptor 'Z/0' needs an integer m >= 2" in err


def _chain_sres(path, ring, body):
    path.write_text("sres c {\n"
                    f"  ring {ring}\n"
                    "  chain {\n"
                    "    ranks 1 1 1\n"
                    + "".join(f"    {line}\n" for line in body)
                    + "  }\n"
                    "}\n")


def _check_with_and_without_asserts(path):
    """(returncode, stdout, stderr) of `aq check path`, the same under
    `python -O`, which strips asserts."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    runs = [subprocess.run(
        [sys.executable, *flags, "-m", "aq.cli", "check", str(path)],
        capture_output=True, text=True, env=env) for flags in ([], ["-O"])]
    outcomes = {(p.returncode, p.stdout, p.stderr) for p in runs}
    assert len(outcomes) == 1, outcomes
    return outcomes.pop()


@pytest.mark.parametrize("ring,body,line,message", [
    ("Z", ["d 3 : [[1]]"], 5,
     "d 3 is not a differential of ranks 1 1 1 (d 1 to d 2)"),
    ("Z", ["d 0 : [[1]]"], 5,
     "d 0 is not a differential of ranks 1 1 1 (d 1 to d 2)"),
    ("Z", ["d 1 : [[2]]", "d -1 : [[0]]"], 6,
     "d -1 is not a differential of ranks 1 1 1 (d 1 to d 2)"),
    ("Z/4", ["d 1 : [[2]]", "d 2 : [[2]]", "d 2 : [[0]]"], 7,
     "d 2 is given twice"),
    ("Z", ["d 1 : [[2, 1]]"], 5, "d 1 must be a 1 x 1 matrix"),
    ("Z", ["d 2 : [[2], [1]]"], 5, "d 2 must be a 1 x 1 matrix"),
], ids=["past-the-top", "degree-0", "negative", "repeated", "wide", "tall"])
def test_a_bad_chain_differential_exits_2_with_its_position(
        tmp_path, ring, body, line, message):
    bad = tmp_path / "bad.sres"
    _chain_sres(bad, ring, body)
    assert _check_with_and_without_asserts(bad) == (
        2, "", f"error: {bad}:{line}: {message}\n")


@pytest.mark.parametrize("ring,message", [
    ("Z[C2]", "ring Z[C2]: chain fixtures take Z or Z/m"),
    ("Z[C3]", "ring Z[C3]: chain fixtures take Z or Z/m"),
    ("Z[C0]", "ring descriptor 'Z[C0]' needs an integer m >= 1"),
    ("Z/1", "ring descriptor 'Z/1' needs an integer m >= 2"),
], ids=["zc2", "zc3", "zc0", "z-mod-1"])
def test_a_chain_over_a_ring_it_cannot_hold_exits_2_naming_the_ring(
        tmp_path, ring, message):
    bad = tmp_path / "bad.sres"
    _chain_sres(bad, ring, ["d 1 : [[2]]"])
    assert _check_with_and_without_asserts(bad) == (
        2, "", f"error: {bad}:2: {message}\n")


def test_a_chain_whose_square_is_not_zero_exits_1_naming_the_degree(
        tmp_path):
    bad = tmp_path / "bad.sres"
    _chain_sres(bad, "Z", ["d 1 : [[2]]", "d 2 : [[3]]"])
    assert _check_with_and_without_asserts(bad) == (
        1, "", "check failed: d_1 d_2 is not zero in degree 1\n")
    # over Z/4, 2 * 2 = 0 and the same chain is a complex
    good = tmp_path / "good.sres"
    _chain_sres(good, "Z/4", ["d 1 : [[2]]", "d 2 : [[2]]"])
    code, out, err = _check_with_and_without_asserts(good)
    assert (code, err) == (0, "")
    assert out == "sres: truncation 3, simplicial identities ok\n"


@pytest.mark.parametrize("rel,message", [
    ("mul(a, b)", "cannot evaluate b() in free group algebra"),
    ("mul(a, $x)", "unbound variable $x"),
], ids=["undeclared-generator", "variable"])
def test_cli_alg_relation_error_exits_2_with_its_position(rel, message,
                                                         tmp_path, capsys):
    text = fx_text("z4-presented.alg").replace(
        "rel mul(a, mul(a, mul(a, a)))", f"rel {rel}")
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:5: {message}" in err


def test_cli_module_relation_error_exits_2_with_its_position(tmp_path, capsys):
    bad_mod = tmp_path / "bad-mod.alg"
    bad_mod.write_text(fx_text("y-z4.alg").replace(
        "rel mul(a, mul(a, mul(a, a)))", "rel mul(a)"))
    code = main(["cohomology", "--theory", "mod:Z", "--algebra", str(bad_mod),
                 "--coeffs", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad_mod}:6: arity mismatch in term mul(a())" in err


@pytest.mark.parametrize("fixture,old,new,line", [
    ("z4-presented.alg", "gens g : a", "gens g : a a", 4),
    ("y-z4.alg", "gens g : a", "gens g : a a", 5),
    ("z2res.sres", "gens g : t/a/e t/a/a }", "gens g : t/a/e t/a/e }", 6),
], ids=["alg", "module", "sres"])
def test_cli_duplicate_generator_exits_2_with_its_position(
        fixture, old, new, line, tmp_path, capsys):
    (tmp_path / "z2.alg").write_text(fx_text("z2.alg"))  # the .sres base
    bad = tmp_path / fixture
    bad.write_text(fx_text(fixture).replace(old, new, 1))
    if fixture == "y-z4.alg":
        argv = ["cohomology", "--theory", "mod:Z", "--algebra", str(bad),
                "--coeffs", "2"]
    else:
        argv = ["check", str(bad)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:{line}: duplicate generator " in err


@pytest.mark.parametrize("old,new,message", [
    ("    t/a/a -> inv(t/a())", "    t/a/a -> inv(t/zz())",
     "11: cannot evaluate t/zz() in free group algebra"),
    ("    t/a/a -> t/a/a/e()", "    t/a/a -> t/zz/e()",
     "84: cannot evaluate t/zz/e() in free group algebra"),
    ("    t/a/e -> t/a()", "    t/zz -> t/a()",
     "10: t/zz is not a generator of the source level"),
    ("    t/a/a/a -> t/a/e()\n", "",
     "23: the block gives no image for t/a/a/a"),
], ids=["face-image", "degen-image", "face-source", "face-missing"])
def test_cli_sres_map_errors_exit_2_with_their_position(
        old, new, message, tmp_path, capsys):
    (tmp_path / "z2.alg").write_text(fx_text("z2.alg"))
    bad = tmp_path / "z2res.sres"
    text = fx_text("z2res.sres")
    assert old in text
    bad.write_text(text.replace(old, new, 1))
    code = main(["check", str(bad)])
    assert code == 2
    assert f"error: {bad}:{message}" in capsys.readouterr().err


def test_cli_factor_set_budget_exits_3_naming_the_stage(capsys):
    code = main(["oracle", "factor-set", "--group", fx("z3.alg"),
                 "--coeffs", "3", "--degree", "2", "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert ("budget exhausted: factor-set H^2 cocycle search: "
            "11 nodes used, limit 10") in err


def test_cli_bar_oracle_honors_the_budget(capsys):
    # the top bar cochain group of Z/4 to degree 3 has 3^4 = 81 cells
    argv = ["oracle", "bar", "--group", fx("z4.alg"), "--coeffs", "2",
            "--max-degree", "3"]
    assert main(argv + ["--budget", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "budget exhausted: bar complex: 81 cells, limit 1" in err
    assert main(argv + ["--budget", "80"]) == 3
    capsys.readouterr()
    assert main(argv + ["--budget", "81"]) == 0
    at_limit = capsys.readouterr().out
    assert at_limit.count("H^") == 4
    assert main(argv) == 0  # the default budget
    assert capsys.readouterr().out == at_limit


def test_cli_factor_set_degree_is_checked_without_assert():
    # under `python -O` the parent printed H^3(z3) = Z/3 from the degree-2
    # branch; the degree is an option error, exit 2
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "aq.cli", "oracle", "factor-set",
             "--group", fx("z3.alg"), "--coeffs", "3", "--degree", "3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, flags
        assert "--degree: factor-set computes degree 1 or 2, not 3" \
            in proc.stderr, flags
        assert proc.stdout == "", flags


def test_a_table_that_is_not_total_is_a_fixture_error(tmp_path):
    # z2.alg without (a,e)->a: an error at the table block's line, exit 2,
    # also under `python -O`, which strips asserts
    bad = tmp_path / "nontotal.alg"
    bad.write_text(fx_text("z2.alg").replace(" (a,e)->a", ""))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "aq.cli", "check", str(bad)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, flags
        assert proc.stderr == \
            f"error: {bad}:3: z2: table for mul not total at (a,e)\n", flags
        assert proc.stdout == "", flags


def test_identifiers_may_contain_a_bar(capsys):
    # v4.alg names its elements a|e, e|a, ... as direct_product does
    v4 = load_algebra(fx("v4.alg"))
    assert v4.order() == 4
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("v4.alg"),
                 "--coeffs", "2", "--max-degree", "1", "--method", "both"])
    out = capsys.readouterr().out
    assert code == 0
    # H^1 here is the classical H^2(V4; Z/2) = (Z/2)^3
    assert out.splitlines() == [
        "H^0 = Z/2 + Z/2",
        "H^1 = Z/2 + Z/2 + Z/2   (em route: Z/2 + Z/2 + Z/2)",
    ]


def test_unterminated_string_is_a_syntax_error(tmp_path, capsys):
    (tmp_path / "z2.alg").write_text(fx_text("z2.alg"))
    bad = tmp_path / "bad.xmod"
    bad.write_text('xmodule bad {\n  base "z2.alg\n  carrier g : 2\n}\n')
    code = main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {bad}:2:8: unterminated string" in err


def test_syntax_error_in_a_base_file_names_that_file(tmp_path, capsys):
    # the error is in the .alg that the .xmod names, not in the .xmod
    text = fx_text("z2.alg").replace("(a,e)->a (e,a)", "(a,e)->a ~ (e,a)")
    (tmp_path / "badbase.alg").write_text(text)
    good = tmp_path / "k.xmod"
    good.write_text('xmodule k {\n  base "badbase.alg"\n  carrier g : 2\n}\n')
    code = main(["check", str(good)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {tmp_path / 'badbase.alg'}:5:32: unexpected character '~'" \
        in err
    for loader, name, body in [
        (load_algebra, "bad.alg", text),
        (load_sres, "bad.sres", "sres r {\n  ring Z\n  chain { ranks 1 ~ }\n}\n"),
        (_load_theory_arg, "bad.thy", "theory T {\n  sort g ~\n}\n"),
    ]:
        path = tmp_path / name
        path.write_text(body)
        with pytest.raises(DslSyntaxError) as exc:
            loader(str(path))
        assert str(exc.value).startswith(f"{path}:"), (name, str(exc.value))


@pytest.mark.parametrize("argv,theory,declared", [
    (["cohomology", "--coeffs", "2", "--theory", "mod:Z[C2]", "--algebra",
      fx("y-z4.alg")], "mod:Z[C2]", "Ab"),
    (["cohomology", "--coeffs", "2", "--theory", "mod:Z/4", "--algebra",
      fx("y-z4.alg")], "mod:Z/4", "Ab"),
    (["homology", "--theory", "mod:Z", "--algebra", fx("z4-presented.alg")],
     "mod:Z", "Gp"),
    (["homology", "--theory", "gp", "--algebra", fx("y-z4.alg")],
     "gp", "Ab"),
    (["homology", "--theory", "gp", "--algebra", fx("z4.alg"),
      "--over", fx("y-z4.alg")], "gp", "Ab"),
], ids=["group-ring", "zmod", "module-on-group-file", "group-on-module-file",
        "over-module-file"])
def test_theory_option_must_match_the_declared_theory(argv, theory, declared,
                                                      capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"--theory {theory} " in err
    assert f"does not match theory {declared} declared by {argv[-1]}" in err


def test_module_presentation_rejects_a_group_theory():
    from aq.fixtures import FixtureError

    with pytest.raises(FixtureError) as exc:
        parse_module_presentation(fx_text("z4-presented.alg"),
                                  source="z4-presented.alg")
    assert str(exc.value).startswith("z4-presented.alg:2: theory Gp is "
                                     "neither abelian nor a module theory")


def test_builtin_module_theories_are_built_once():
    from aq.fixtures import builtin_theory

    for name in ("mod:Z/4", "mod:Z[C3]"):
        assert builtin_theory(name) is builtin_theory(name)
    assert builtin_theory("mod:Z/4") is not builtin_theory("mod:Z/2")


@pytest.mark.parametrize("argv,flag", [
    (["homology", "--theory", "mod:Z", "--algebra", fx("y-z4.alg"),
      "--max-degree", "-1"], "--max-degree"),
    (["ss", "tor", "--ring", "Z", "--module", fx("y-z4.alg"), "--coeffs", "2",
      "--smax", "-1", "--check"], "--smax"),
    (["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"), "--coeffs",
      "2", "--max-degree", "-1", "--method", "em"], "--max-degree"),
    (["oracle", "bar", "--group", fx("z4.alg"), "--coeffs", "2",
      "--max-degree", "-1"], "--max-degree"),
    (["check", fx("z2res.sres"), "--range", "-1"], "--range"),
    (["ss", "uct", "--module", fx("y-z4.alg"), "--coeffs", "2", "--check",
      "--tmax", "-1"], "--tmax"),
], ids=["homology", "ss-tor", "cohomology-em", "oracle-bar", "check-range",
        "ss-uct-tmax"])
def test_a_negative_degree_bound_is_a_usage_error(argv, flag, capsys):
    # exit 2 with the flag named, never a ValueError or IndexError (nor,
    # for an oracle, an empty answer with exit 0)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}: expected an integer >= 0, not '-1'" in err
    assert "Traceback" not in err


def test_over_with_a_module_theory_exits_2_naming_the_flag(tmp_path, capsys):
    # a module theory has no base algebra: --over is refused before its
    # file is read, so a lexical error in its body cannot pass unseen
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad {\n  theory mod:Z\n"
                   "  presentation { gens g : a ~ }\n}\n")
    for over in (str(bad), fx("y-z4.alg")):
        code = main(["homology", "--theory", "mod:Z", "--algebra",
                     fx("y-z4.alg"), "--over", over])
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert err.startswith(f"error: --over {over}: ")
        assert "--theory mod:Z is not one" in err


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
def test_resolution_with_a_module_theory_exits_2_naming_the_flag(
        exists, tmp_path, capsys):
    # a module theory resolves its module itself: --resolution is refused
    # before its file is read, and a missing path cannot pass unseen
    path = fx("z2res.sres") if exists else str(tmp_path / "missing.sres")
    code = main(["cohomology", "--theory", "mod:Z", "--algebra",
                 fx("y-z4.alg"), "--coeffs", "2", "--max-degree", "1",
                 "--resolution", path])
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith(f"error: --resolution {path}: only a group theory "
                          "reads a resolution")
    assert "--theory mod:Z is not one" in err


# (fixture, text replaced, replacement, line, message); a module
# presentation is read by `aq homology`, every other fixture by `aq check`
MALFORMED = {
    "algebra-block": ("z2.alg", "table {", "bogus {", 3,
                      "unknown algebra block 'bogus'"),
    "table-entry": ("z2.alg", "sort g", "sorts g", 4,
                    "unknown table entry 'sorts'"),
    "presentation-entry": ("z4-presented.alg", "realize", "realise", 6,
                           "unknown presentation entry 'realise'"),
    "module-presentation-entry": ("y-z4.alg", "realize", "realise", 7,
                                  "unknown presentation entry 'realise'"),
    "module-block": ("y-z4.alg", "presentation {", "table {", 4,
                     "module presentations need a presentation block"),
    "xmodule-entry": ("z2-triv.xmod", "carrier g", "karrier g", 4,
                      "unknown xmodule entry 'karrier'"),
    "xmodule-base": ("z2-triv.xmod", 'base "z2.alg"', "", 2,
                     "xmodule needs a base algebra"),
    "xmodule-carrier": ("z2-triv.xmod", "carrier g : 2", "", 2,
                        "xmodule needs a carrier"),
    "xmodule-act": ("z2-triv.xmod", "act a : [[1]]", "", 5,
                    "missing act matrix for 'a'"),
    "sres-entry": ("z2res.sres", "truncation 3", "bogus 3", 4,
                   "unknown sres entry 'bogus'"),
    "sres-level": ("z2res.sres", "level 2 {", "level 5 {", 4,
                   "missing level 2"),
    "sres-face": ("broken.sres", "face 1 1 { y -> x() }", "", 6,
                  "missing face 1 1"),
    "sres-degen": ("broken.sres", "degen 1 1 { y -> z() }", "", 6,
                   "missing degen 1 1"),
    "sres-augment": ("z2res.sres", "t/a -> a", "t/b -> a", 104,
                     "augment block must cover level-0 generators"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_fixture_exits_2_at_its_position(name, tmp_path, capsys):
    fixture, old, new, line, message = MALFORMED[name]
    (tmp_path / "z2.alg").write_text(fx_text("z2.alg"))  # the base file
    text = fx_text(fixture)
    assert text.count(old) == 1
    bad = tmp_path / f"bad-{fixture}"
    bad.write_text(text.replace(old, new))
    if name.startswith("module-"):
        argv = ["homology", "--theory", "mod:Z", "--algebra", str(bad)]
    else:
        argv = ["check", str(bad)]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and not out
    assert err.startswith(f"error: {bad}:{line}:")
    assert err.rstrip().endswith(message)


_AB_THY = """theory Ab {
  sort g
  op mul : g g -> g
  op inv : g -> g
  op e : -> g
  eq mul(mul($x, $y), $z) = mul($x, mul($y, $z))
  eq mul(e, $x) = $x
  eq mul($x, e) = $x
  eq mul(inv($x), $x) = e
  eq mul($x, inv($x)) = e
  eq mul($x, $y) = mul($y, $x)
  group g { mul = mul, inv = inv, unit = e }
}
"""


def test_module_presentations_read_their_theory_beside_them(
        tmp_path, monkeypatch, capsys):
    """`theory "ab.thy"` in sub/m.alg names sub/ab.thy for every command
    that reads the module, run from the parent directory; the results are
    those of the same module over mod:Z."""
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "ab.thy").write_text(_AB_THY)
    (sub / "m.alg").write_text(
        fx_text("y-z4.alg").replace("theory mod:Z", 'theory "ab.thy"'))
    runs = [(["homology", "--theory", "sub/ab.thy", "--algebra", "sub/m.alg"],
             ["homology", "--theory", "mod:Z", "--algebra", fx("y-z4.alg")]),
            (["ss", "uct", "--module", "sub/m.alg", "--check"],
             ["ss", "uct", "--module", fx("y-z4.alg"), "--check"]),
            (["oracle", "ext", "--module", "sub/m.alg"],
             ["oracle", "ext", "--module", fx("y-z4.alg")])]
    monkeypatch.chdir(tmp_path)
    for beside, builtin in runs:
        assert main(beside + ["--coeffs", "2"]) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert main(builtin + ["--coeffs", "2"]) == 0
        assert out == capsys.readouterr().out


_ZC2_SIGN = """algebra sign {
  theory mod:Z[C2]
  presentation {
    gens g : x
    rel mul(x, act_a(x))
  }
}
"""


@pytest.mark.parametrize("route,oracle,pages", [
    ("cohomology", "ext", [["uct"], ["rev-adams", "--variant", "cohomology"]]),
    ("homology", "tor", [["tor"], ["rev-adams"]])])
def test_zc2_ss_and_oracle_read_the_module_ring(tmp_path, capsys, route,
                                                 oracle, pages):
    """Without --ring, `ss --check` and `oracle ext|tor` over Z[C2] take
    the module's ring and agree with the module route (AQ of a module is
    Ext or Tor over its ring)."""
    path = tmp_path / "sign.alg"
    path.write_text(_ZC2_SIGN)

    def run(*argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--coeffs", "2", "--json", str(out)]) == 0, \
            capsys.readouterr().err
        return json.loads(out.read_text())

    direct = run(route, "--theory", "mod:Z[C2]", "--algebra", str(path),
                 "--max-degree", "2")
    assert run("oracle", oracle, "--module", str(path),
               "--max-degree", "2") == direct
    for page in pages:
        grid = run("ss", page[0], *page[1:], "--module", str(path),
                   "--smax", "2", "--check")
        assert all(row["consistent"] for row in grid["convergence"])
        row0 = {c["s"]: c["group"] for c in grid["grid"] if c["t"] == 0}
        assert [{"degree": s, **row0[s]} for s in sorted(row0)] == [
            d for d in direct if d["rank"] or d["torsion"]]


def test_oracle_ext_without_module_exits_2(capsys):
    assert main(["oracle", "ext", "--coeffs", "2"]) == 2
    assert "needs --module" in capsys.readouterr().err
