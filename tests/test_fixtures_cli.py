import json
import os
import subprocess
import sys

import pytest

from aq.abgroups import FGAbelianGroup, FinAb
from aq.algebras import cyclic_group, find_isomorphism
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
from aq.resolutions import check_certificate

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
    text = write_sres(v, name="z2res")
    import aq.fixtures as F

    v2 = F.parse_sres(text, base_dir=FIXTURES)
    v2.check_identities()


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


def test_cli_algebra_error_exits_1_naming_the_check(capsys):
    # the fixture resolution has too few levels for degree 3
    code = main(["cohomology", "--theory", "gp", "--algebra", fx("z2.alg"),
                 "--resolution", fx("z2res.sres"), "--coeffs", "2",
                 "--max-degree", "3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "check failed: range needs levels up to degree+1" in err


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
    (["oracle", "ext", "--ring", "Z/4", "--module", fx("y-z4.alg"),
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
