"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import aq.cli as cli  # noqa: E402
import aq.presented  # noqa: E402
import aq.snf  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# the README example: AQ cohomology of Z/2 with Z/2 coefficients
README_JOB = ["cohomology", "--theory", "gp",
              "--algebra", os.path.join(ROOT, "fixtures", "z2.alg"),
              "--coeffs", os.path.join(ROOT, "fixtures", "z2-triv.xmod"),
              "--max-degree", "1", "--method", "both"]

README_SPANS = {
    "cli.main",
    "algebras.realize_presentation",
    "algebras.enumerate_homs",
    "fixtures.load_algebra",
    "fixtures.load_xmodule",
    "resolutions.loop_group_resolution",
    "resolutions.check_certificate",
    "resolutions.abelianized_complex",
    "presented.homology_of_complex",
    "presented.Subquotient",
    "snf.smith_normal_form",
    "snf.IntegerSolver.solve",
    "snf.kernel_basis",
    "snf.lattice_basis",
    "invariants.cohomology",
    "invariants.cohomology_via_em",
    "invariants.der_cochain",
    "simplicial.cohomotopy",
}


def _traced(job_argv, json_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        rc, _, _ = run.run_job(cli, job_argv, json_path)
    finally:
        tracer.uninstall()
    return rc, tracer


def test_span_names_of_the_readme_job(tmp_path):
    rc, tracer = _traced(README_JOB, str(tmp_path / "out.json"))
    assert rc == 0
    assert {s[0] for s in tracer.spans} == README_SPANS
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and names.count("cli.main") == 1
    for i, (_, start, end, parent, job) in enumerate(tracer.spans):
        assert job == 1 and start <= end
        assert (parent == -1) == (i == 0)
        if parent >= 0:
            assert parent < i and tracer.spans[parent][1] <= start
    stats = tracer.stats
    assert stats["cli.main"]["calls"] == 1
    for name, st in stats.items():
        assert 0 <= st["self_s"] <= st["busy_s"] + 1e-9, name
    assert stats["snf.smith_normal_form"]["cells_in"] > 0


def test_uninstall_restores_every_binding():
    originals = (aq.snf.smith_normal_form, aq.presented.smith_normal_form,
                 aq.snf.IntegerSolver.solve, aq.presented.Subquotient.__init__,
                 cli.main)
    tracer = spans.Tracer()
    tracer.install()
    assert aq.presented.smith_normal_form is not originals[1]
    tracer.uninstall()
    assert (aq.snf.smith_normal_form, aq.presented.smith_normal_form,
            aq.snf.IntegerSolver.solve, aq.presented.Subquotient.__init__,
            cli.main) == originals


def test_traced_and_untraced_json_are_byte_identical(tmp_path):
    built = workloads.build("module-many", 3, str(tmp_path))
    # the first two copies of every slot: every command kind but two pages
    first_two = len(built) // workloads.MODULE_REPS * 2
    jobs = [README_JOB] + [j.argv for j in built[:first_two]]
    for i, argv in enumerate(jobs):
        plain, traced = tmp_path / f"{i}.json", tmp_path / f"{i}t.json"
        assert run.run_job(cli, argv, str(plain))[0] == 0, argv
        assert _traced(argv, str(traced))[0] == 0, argv
        assert plain.read_bytes() == traced.read_bytes(), argv


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="--ring Z[Cm] names the group elements g0, g1, ... "
                          "while mod:Z[Cm] modules use e, a, a2, ...: KeyError")
@pytest.mark.parametrize("rep", [0, 1])
@pytest.mark.parametrize("command", ["ss", "oracle"])
def test_zcm_ss_and_oracle_commands(tmp_path, command, rep):
    """The module-many jobs left out over Z[Cm]; once this passes they
    belong in the workload."""
    spec, gens, nrels, diag, moduli = next(
        s for s in workloads.MODULE_SLOTS if s[0] == "Z[C2]")
    rng = workloads.random.Random(rep)
    cols = workloads._seeded_relations(rng, 2, gens, nrels, diag)
    jobs = workloads._module_jobs(str(tmp_path), "zc2", spec, cols, moduli,
                                  rep, zcm_ss_oracle=True)
    job = next(j for j in jobs if j.argv[0] == command)
    path = str(tmp_path / "out.json")
    rc = run.run_job(cli, job.argv, path)[0]
    assert rc == 0, rc
    assert run.verify(job, rc, path) is None


def _snapshot(workload, seed, workdir):
    os.makedirs(workdir)
    jobs = workloads.build(workload, seed, workdir)
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name)) as fh:
            files[name] = fh.read()
    argvs = [[a.replace(workdir, "<dir>") for a in j.argv] for j in jobs]
    return argvs, files


def test_generators_are_deterministic_per_seed(tmp_path):
    for workload in ("group-loop", "module-many"):
        first = _snapshot(workload, 11, str(tmp_path / workload / "a"))
        again = _snapshot(workload, 11, str(tmp_path / workload / "b"))
        assert first == again
        seeds = [_snapshot(workload, s, str(tmp_path / workload / str(s)))
                 for s in range(4)]
        assert any(s != first for s in seeds)
        # every seed fills the same job slots
        assert {len(a) for a, _ in seeds} == {len(first[0])}


def test_tail_percentile():
    lat = [i / 1000 for i in range(200, 0, -1)]
    assert run.tail(lat) == ("p95", 0.19)
    assert run.tail(lat[:150]) == ("p90", 0.185)
    assert run.tail(lat[:19]) == ("max", 0.2)


def test_benchmark_json_names_every_workload_and_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer = [f"{name}.{key}" for name, key, _ in spans.metric_keys()]
    layer += ["trace.wall_s", "trace.overhead"]
    assert [m["name"] for m in bench["per_layer"]] == layer
