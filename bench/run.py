"""Benchmark of ainfbench verdicts: end-to-end timings and traced per-layer numbers.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload relation-sweep --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke

One process runs one workload with a single client in a closed loop: the
steps of the workload (CLI verdicts through ``ainfbench.cli.main(argv)`` with
stdout captured, and library certificates) run one after another, and the
whole list is repeated until ``--seconds`` have passed.  Every outcome is
checked against a known answer (see ``workloads.py``).  A step's time is its
median over the run's passes, in reference seconds (see ``speed.py``);
``wall_s`` and ``cpu_s`` sum these, and ``verdict_s.p50`` / ``verdict_s.tail``
are percentiles over them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with no
instrumentation.  ``--trace 1`` runs one untraced pass, then two passes with
every layer wrapped (``tracer.py``), whose counts must agree exactly, then a
``--jobs 1`` / ``--jobs 2`` comparison, and reports the per-layer metrics.
The spans of the first traced pass are written to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import REFERENCE_S, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")

SETUP_RUNS = 9
STEP_LIMIT_S = 60
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 50)

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.perf_counter()\n"
    "import ainfbench.cli\n"
    "seconds = time.perf_counter() - start\n"
    "from speed import calibrate\n"
    "calibrate()\n"
    "print(seconds, calibrate()[0], ainfbench.cli.__file__)\n"
)


class StepTimeout(BaseException):
    """Raised by the alarm when a step runs past STEP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise StepTimeout()


# ---------------------------------------------------------------------------
# set-up


def measure_setup() -> float:
    """Median time of ``import ainfbench.cli`` in a fresh interpreter, in
    reference seconds (the speed loop runs right after it).

    One unmeasured import first writes the bytecode cache, which users also
    pay only once.
    """
    times = []
    for k in range(SETUP_RUNS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT / "bench")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ).stdout.split()
        if not Path(out[2]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported ainfbench from {out[2]}, not from {SRC}")
        if k:
            times.append(float(out[0]) * REFERENCE_S / float(out[1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# running steps


def src_lines() -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in (SRC / "ainfbench").glob("*.py"))


def strip_timings(value):
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def run_step(cli, step) -> tuple:
    """Run one step: (outcome, report with timings stripped).  The outcome
    holds the time, exit code, and any error or wrong answer."""
    out, err = io.StringIO(), io.StringIO()
    rc, value, error = None, None, None
    signal.setitimer(signal.ITIMER_REAL, STEP_LIMIT_S)
    start, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if step.argv is not None:
                rc = cli.main(step.argv)
            else:
                value = step.call()
    except StepTimeout:
        error = f"timeout after {STEP_LIMIT_S} s"
    except Exception:
        error = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
        signal.setitimer(signal.ITIMER_REAL, 0)
    if error is None and step.argv is not None:
        if rc == 2:
            error = "exit 2: " + err.getvalue().strip()
        else:
            try:
                value = json.loads(out.getvalue())
            except json.JSONDecodeError:
                error = "report is not JSON"
    wrong = None if error else step.check(rc, value)
    outcome = {"step": step.name, "seconds": seconds, "cpu_s": cpu, "rc": rc, "error": error, "wrong": wrong}
    return outcome, strip_timings(value)


def run_pass(cli, steps, tracer=None, timed=False) -> dict:
    """All steps once.  Reports are folded into a digest as they come, so
    that the benchmark's own memory does not grow with the number of passes.

    When ``timed``, the speed loop runs before the first step and after each
    step, and each outcome gets the mean (wall, cpu) loop time around its step."""
    wall, cpu = time.perf_counter(), time.process_time()
    outcomes = []
    digest = hashlib.sha256()
    before = calibrate() if timed else None
    for step in steps:
        if tracer is None:
            outcome, report = run_step(cli, step)
            if timed:
                after = calibrate()
                outcome["speed"] = tuple((x + y) / 2 for x, y in zip(before, after))
                before = after
        else:
            with tracer.root(f"bench.{step.name}"):
                outcome, report = run_step(cli, step)
        outcomes.append(outcome)
        digest.update(json.dumps([step.name, outcome["rc"], report], sort_keys=True).encode() + b"\n")
    return {
        "wall_s": time.perf_counter() - wall,
        "cpu_s": time.process_time() - cpu,
        "outcomes": outcomes,
        "digest": digest.hexdigest(),
    }


def tail(values):
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            return q, ordered[max(0, math.ceil(q / 100 * n) - 1)]
    return 100, ordered[-1]


def step_times(passes, cpu=False) -> list:
    """Per step, the median over passes of its time in reference seconds
    (see ``speed.py``): one sample per step of the workload."""
    key, which = ("cpu_s", 1) if cpu else ("seconds", 0)
    return [statistics.median(p["outcomes"][k][key] * REFERENCE_S / p["outcomes"][k]["speed"][which]
                              for p in passes)
            for k in range(len(passes[0]["outcomes"]))]


def failures(passes) -> tuple:
    wrong = sum(1 for p in passes for o in p["outcomes"] if o["wrong"])
    errors = sum(1 for p in passes for o in p["outcomes"] if o["error"])
    return wrong, errors


def describe_failures(passes) -> None:
    seen = set()
    for p in passes:
        for o in p["outcomes"]:
            reason = o["error"] or o["wrong"]
            if reason and (o["step"], reason) not in seen:
                seen.add((o["step"], reason))
                print(f"  FAILED {o['step']}: {reason}")


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(cli, workload, seconds: float, setup_s: float) -> dict:
    # Passes run while the next one, at the median length so far, still ends
    # before the deadline, so a run lasts about ``seconds`` (at least one pass).
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(cli, workload.steps, timed=True))
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() + typical > deadline:
            break
    samples = step_times(passes)
    q, tail_value = tail(samples)
    wrong, errors = failures(passes)
    attempted = sum(len(p["outcomes"]) for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(samples), "s"),
        "cpu_s": (sum(step_times(passes, cpu=True)), "s"),
        "verdict_s.p50": (statistics.median(samples), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    digests = {p["digest"] for p in passes}
    print(f"workload {workload.name}: {len(passes)} passes of {len(workload.steps)} steps, "
          f"one client, closed loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:12.6f} {unit}")
    walls = sorted(p["wall_s"] for p in passes)
    loops = sorted(o["speed"][0] for p in passes for o in p["outcomes"])
    print(f"  times are in reference seconds (speed.py); the speed loop took "
          f"min {loops[0] * 1e3:.3f}, median {statistics.median(loops) * 1e3:.3f}, "
          f"max {loops[-1] * 1e3:.3f} ms, reference {REFERENCE_S * 1e3:g} ms")
    print(f"  whole passes, speed loops included, took min {walls[0]:.3f}, "
          f"median {statistics.median(walls):.3f}, max {walls[-1]:.3f} s of measured time")
    print(f"  verdict_s.tail is p{q:g} of {len(samples)} samples (per-step medians over passes)")
    print(f"  wrong_verdicts   {wrong}")
    print(f"  error_rate       {errors / attempted:.6f} ({errors} of {attempted})")
    print(f"  report digest    {passes[0]['digest']}"
          + ("" if len(digests) == 1 else f"  NOT STABLE: {len(digests)} digests"))
    print(f"  src lines        {src_lines()} (context only)")
    describe_failures(passes)
    return {
        "correct": wrong == 0 and errors == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": wrong + errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def pool_speedup(cli, argv) -> tuple:
    """Serial time over ``--jobs 2`` time for one command, and whether the
    two reports agree apart from timings."""
    from workloads import Step

    (serial, report1), (pooled, report2) = [
        run_step(cli, Step(f"--jobs {jobs}", lambda rc, report: None, argv=argv + ["--jobs", str(jobs)]))
        for jobs in (1, 2)
    ]
    same = (serial["error"] is None and pooled["error"] is None
            and serial["rc"] == pooled["rc"] and report1 == report2)
    return serial["seconds"] / pooled["seconds"], same


def traced_run(cli, workload, trace_path: Path) -> dict:
    from tracer import LAYERS, Tracer

    reference = run_pass(cli, workload.steps)
    tracers, passes = [], [reference]
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(cli, workload.steps, tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    first, traced = tracers[0], passes[1]
    counts_repeat = first.counts() == tracers[1].counts()
    coverage = first.root_seconds() / traced["wall_s"]

    pools = {"pool.stasheff.speedup": 0.0, "pool.sod.speedup": 0.0}
    pools_agree = True
    if workload.pool is not None:
        argv, name = workload.pool
        pools[name], pools_agree = pool_speedup(cli, argv)

    inc, calls = first.inclusive, first.calls
    apply_labels = "ainf.AInfCategory.apply_labels"
    build_apply = ("auslander.build_auslander", "ainf.AInfCategory.apply")
    values = {
        "ainf.stasheff.s": inc["ainf.check_stasheff"],
        "ainf.tuples": calls["ainf.stasheff_defect"],
        "ainf.probes": calls[apply_labels],
        "ainf.probe_hit_ratio": _ratio(sum(v for (_, n), v in first.hits.items() if n == apply_labels),
                                       calls[apply_labels]),
        "ainf.validate.s": inc["ainf.validate_structure"],
        "auslander.build.s": first.self_time["auslander.build_auslander"],
        "auslander.products": first.edges[build_apply],
        "auslander.product_hit_ratio": _ratio(first.hits[build_apply], first.edges[build_apply]),
        "auslander.lifts.s": inc["auslander.verify_lift_independence"],
        "gamma.dim": first.measures["gamma.dim"],
        "gamma.entries": first.measures["gamma.entries"],
        "linalg.rref.calls": calls["linalg.rref"],
        "linalg.rref.rows": first.measures["linalg.rref.rows"],
        "linalg.quotient.s": inc["linalg.quotient_space"],
        "linalg.project.calls": calls["linalg.QuotientPresentation.project"],
        "linalg.project.s": inc["linalg.project"],
        "linalg.cohomology.s": inc["linalg.complex_cohomology"],
        "perfmod.sod.s": inc["perfmod.sod_report"],
        "perfmod.hom_complex.calls": calls["perfmod.hom_complex"],
        "perfmod.hom_complex.s": inc["perfmod.hom_complex"],
        "perfmod.end_comparison.s": inc["perfmod.end_comparison"],
        "hochschild.differential.s": inc["hochschild.hochschild_differential"],
        "hochschild.deform.s": inc["hochschild.deform_by_cocycle"],
        "hochschild.trivialization.s": inc["hochschild.coboundary_trivialization"],
        "filtration.appendix.s": inc["filtration.appendix_filtration"],
        "filtration.check.s": inc["filtration.check_filtration"],
        "specfile.parse_s": inc["specfile.parse"],
        "specfile.serialize_s": inc["specfile.serialize"],
        "specfile.bytes": first.measures["specfile.bytes"],
        "scalars.ops": first.scalar_ops(),
        **{f"{layer}.self_s": first.layer_self_seconds(layer) for layer in LAYERS if layer != "scalars"},
        **pools,
        "trace.wall_s": traced["wall_s"],
        "trace.overhead": traced["wall_s"] / reference["wall_s"] - 1,
        "trace.coverage": coverage,
    }
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items() if name in units}
    named_ok = set(values) == set(units)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"workload": workload.name, "spans": first.span_records(),
                                      "counts": first.counts()}) + "\n", encoding="utf-8")

    wrong, errors = failures(passes)
    attempted = sum(len(p["outcomes"]) for p in passes)
    digests_same = len({p["digest"] for p in passes}) == 1
    print(f"workload {workload.name}: traced, {len(workload.steps)} steps per pass")
    print(f"  untraced wall_s {reference['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s "
          f"(overhead {values['trace.overhead']:.1%})")
    print(f"  top-level spans cover {coverage:.1%} of the traced wall time")
    print(f"  counts repeat exactly between two traced passes: {counts_repeat}")
    print(f"  reports identical untraced and traced: {digests_same}")
    if workload.pool is not None:
        print(f"  {workload.pool[1]} {pools[workload.pool[1]]:.3f} "
              f"(--jobs 1 time / --jobs 2 time, reports agree: {pools_agree})")
    print(f"  spans written to {trace_path}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:14.6f} {m['unit']}")
    describe_failures(passes)
    if not named_ok:
        print(f"  METRICS DIFFER from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    ok = (wrong == 0 and errors == 0 and digests_same and counts_repeat and pools_agree
          and named_ok and 0.9 <= coverage <= 1.0 + 1e-9)
    return {"correct": ok, "attempted": attempted, "failed": wrong + errors, "metrics": metrics}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# entry points


def run(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    import workloads

    import ainfbench.cli as cli

    setup_s = None if trace else measure_setup()
    work = WORK / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.build(name, seed, work, small=small)
        if trace:
            return traced_run(cli, workload, WORK / f"trace-{name}-{seed}.json")
        return timed_run(cli, workload, seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke() -> int:
    """Every workload at tiny sizes, in both modes: each metric named in
    BENCHMARK.json is emitted and every verdict is the known answer."""
    spec = benchmark_spec()
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run(w["name"], seed=1, seconds=0, trace=bool(trace), small=True)
            got = set(result["metrics"])
            if got != wanted[trace] or not result["correct"]:
                ok = False
                print(f"SMOKE FAIL {w['name']} trace={trace}: correct={result['correct']}, "
                      f"missing {sorted(wanted[trace] - got)}, extra {sorted(got - wanted[trace])}")
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, check every metric")
    args = parser.parse_args(argv)

    if not (SRC / "ainfbench" / "cli.py").is_file():
        print(f"error: no ainfbench sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the package, and tests/corpus.py for acceptance criterion 7's algebra generator
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.smoke:
        return smoke()

    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        parser.error(f"--workload must be one of {', '.join(BUILDERS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
