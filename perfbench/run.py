"""Benchmark of the `aq` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload group-loop --seed 1 --seconds 40 --trace 0

Each job is one `aq.cli.main(argv)` call with `--json` to a file, in this
one process with no threads: a closed loop with one client, the next job
starting when the previous one returns.  A pass runs every job of the
workload once; passes repeat while one more, at the mean pass time so far,
still ends within `--seconds`.  Every job's `--json` is checked against an
answer computed outside the timed region.

`--trace 0` runs at least one pass and prints the end-to-end metrics;
`setup_s` is the median of set-up probes made before the first pass and
after each pass, outside the timed passes.
`--trace 1` alternates untraced and traced passes, at least one of each,
and prints the per-layer metrics of the traced ones, per pass, with the
tracing overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
# set-up probes before the first pass and after each pass of an untraced
# run: the machine's speed changes within seconds, so probes spread over
# the run give a steadier median than one burst of probes
SETUP_PROBES_PER_GAP = 8
# job_tail_s is the highest of these percentiles with at least ten jobs
# of a pass beyond it, or the maximum with fewer than 20 jobs per pass
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)


def measure_setup(repeats):
    """Seconds, per fresh Python process, from its start until `aq.cli` is
    imported and the process reports ready."""
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import aq.cli; "
            "print('ready', flush=True)")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
        times.append(ready - start)
    return times


def run_job(cli, argv, json_path):
    """Run one command in-process; returns (exit code or traceback text,
    seconds, captured output)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv + ["--json", json_path])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed job, not a crash
        rc = traceback.format_exc(limit=-2)
    return rc, time.perf_counter() - start, sink.getvalue()


def run_pass(cli, jobs, workdir):
    gc.collect()
    paths = [os.path.join(workdir, f"job{i}.json") for i in range(len(jobs))]
    results = []
    start, cpu = time.perf_counter(), time.process_time()
    for job, path in zip(jobs, paths):
        results.append(run_job(cli, job.argv, path))
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    errors = []
    for job, path, (rc, _, output) in zip(jobs, paths, results):
        err = rc if isinstance(rc, str) else verify(job, rc, path)
        if err:
            last = output.strip().splitlines()[-1:] or [""]
            errors.append(f"{' '.join(job.argv)}: {err} {last[0]}")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return wall, cpu, [t for _, t, _ in results], errors


def verify(job, rc, path):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"exit {rc}, no --json output ({exc})"
    try:
        return job.check(rc, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed --json output ({type(exc).__name__}: {exc})"


def tail(latencies):
    """(label, value) of the job-latency tail of one pass; nearest rank."""
    ordered = sorted(latencies)
    for p in TAIL_LADDER:
        if len(ordered) * (100 - p) / 100 >= 10:
            rank = math.ceil(p / 100 * len(ordered))
            return f"p{p:g}", ordered[rank - 1]
    return "max", ordered[-1]


def per_layer(tracer, traced_walls, untraced_walls):
    """Per-layer metrics per traced pass, with the tracing overhead."""
    metrics = {}
    for name, key, unit in spans.metric_keys():
        value = tracer.stats.get(name, {}).get(key, 0) / len(traced_walls)
        metrics[f"{name}.{key}"] = {"value": value, "unit": unit}
    traced = statistics.median(traced_walls)
    metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead"] = {
        "value": traced / statistics.median(untraced_walls), "unit": "ratio"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "aq", "cli.py")):
        print(f"no aq sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import aq.cli as cli
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        return measure(cli, jobs, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, jobs, workdir, args):
    walls, cpus, pass_latencies, errors = [], [], [], []
    traced_walls, setup_times = [], []
    tracer = spans.Tracer() if args.trace else None
    begin = time.perf_counter()
    if tracer is None:
        setup_times += measure_setup(SETUP_PROBES_PER_GAP)
    while True:
        wall, cpu, lat, errs = run_pass(cli, jobs, workdir)
        walls.append(wall)
        cpus.append(cpu)
        pass_latencies.append(lat)
        errors += errs
        if tracer is None:
            setup_times += measure_setup(SETUP_PROBES_PER_GAP)
        if tracer is not None:
            tracer.install()
            try:
                wall, _, _, errs = run_pass(cli, jobs, workdir)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            errors += errs
        # stop unless one more round fits in --seconds at the mean round time
        elapsed = time.perf_counter() - begin
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    attempted = len(jobs) * (len(walls) + len(traced_walls))
    failed = len(errors)
    for err in errors[:20]:
        print(f"FAILED {err}", file=sys.stderr)

    if tracer is not None:
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(path)
        metrics = per_layer(tracer, traced_walls, walls)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(path)}")
    else:
        tails = [tail(lat) for lat in pass_latencies]
        label = tails[0][0]
        latencies = [t for lat in pass_latencies for t in lat]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_tail_s": {"value": statistics.median([v for _, v in tails]),
                           "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
            "jobs_ok_frac": {"value": (attempted - failed) / attempted,
                             "unit": "fraction"},
        }
        print(f"{args.workload} seed {args.seed}: {len(walls)} passes of "
              f"{len(jobs)} jobs; job_tail_s is the median over passes of "
              f"the {label} of {len(jobs)} jobs; {failed} of {attempted} "
              f"jobs failed")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
