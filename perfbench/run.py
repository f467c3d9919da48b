"""Benchmark of the xsim command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an xsim checkout; it imports the package from
``src/`` there and refuses to run without it. Workloads are defined in
``workloads.py``; metric names and units come from ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with no tracing installed.
It times fresh-interpreter set-up several times (median), makes one untimed
warm-up call, then repeats the workload's calls while the next call is
expected to end within ``--seconds``, and reports the 90th percentile of
each kind of call (see ``end_to_end``). ``--trace 1`` runs one untraced
pass and two traced passes of the same calls and reports the per-layer
metrics of ``tracing.py``; the two traced passes must agree exactly on
every computed count.

Every call's exit code and output are checked, and every repeat of a call
must reproduce the bytes of its first run. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it, prefixed ``#``, record the environment,
the tolerances, ungated figures and the spread within the run. The exit code
is 0 only if every check held.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Fresh interpreter: import the CLI and make one small call, timed from
# inside the child so interpreter start-up noise stays out.
SETUP_CHILD = r"""
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import xsim.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    rc = xsim.cli.main(["xprep_single", "--config", sys.argv[2], "--exact"])
elapsed = time.perf_counter() - start
print(rc, repr(elapsed), len(out.getvalue()))
"""
WARMUP_TARGET = {"kind": "spectral", "p": [0.4, 0.3, 0.2, 0.1], "theta": 0.3, "phi": 0.7}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    return env


class Runner:
    """Runs passes over one workload's calls and checks every output."""

    def __init__(self, cli, calls):
        self.cli = cli
        self.calls = calls
        self.reference = {}  # call index -> (digest, problems) from the first pass
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _invoke(self, call):
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(call.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            rc, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        return elapsed, rc, out.getvalue(), err.getvalue(), error

    def _verify(self, index, call, rc, stdout, stderr, error):
        if error is not None:
            return [f"raised:\n{error}"]
        if rc != 0:
            return [f"exit code {rc!r}, expected 0; stderr: {stderr.strip()[-300:]}"]
        try:
            files = tuple(path.read_text(encoding="utf-8") for path in call.out_files())
        except OSError as exc:
            return [f"missing output file: {exc}"]
        digest = workloads.digest(stdout, stderr, *files)
        if index in self.reference:
            first_digest, first_problems = self.reference[index]
            if digest != first_digest:
                return ["output differs from the first pass with the same seed"]
            return first_problems
        try:
            if call.experiment == "xprep_single":
                problems = workloads.check_xprep(call, *files)
            else:
                problems = workloads.check_csv(call, stdout, stderr)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems = [f"malformed output: {exc!r}"]
        self.reference[index] = (digest, problems)
        return problems

    def warm_up(self, argv):
        """One untimed call, so that lazy imports and first-call costs stay out of the passes."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(argv)
        if rc != 0:
            self.problems.append(f"warm-up call exited {rc}")

    def run_call(self, index, tracer=None) -> float:
        """Run and check one call; returns its wall time in seconds."""
        call = self.calls[index]
        if tracer is not None:
            tracer.context = "exact" if call.exact else "sampled"
        for path in call.out_files():
            path.unlink(missing_ok=True)
        elapsed, rc, stdout, stderr, error = self._invoke(call)
        self.attempted += 1
        problems = self._verify(index, call, rc, stdout, stderr, error)
        if problems:
            self.failed += 1
            self.problems.append(f"{call.experiment} ({' '.join(call.argv)}): {problems[0]}")
        return elapsed

    def run_pass(self, tracer=None) -> list:
        """Every call once, in order; returns (index, seconds) samples."""
        gc.collect()
        return [(i, self.run_call(i, tracer)) for i in range(len(self.calls))]

    def points_per_s(self, samples) -> float:
        return sum(self.calls[i].points for i, _ in samples) / sum(s for _, s in samples)


def measure_setup(config_path) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT), check=False,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "0" or int(fields[2]) == 0:
            raise RuntimeError(f"set-up child failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}")
        times.append(float(fields[1]))
    return times


def spread(values) -> float:
    """Interquartile range over median: the steadiness measure used throughout."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def end_to_end(runner, deadline_s, config_path) -> tuple:
    """One full pass, then the calls again in the same order while the next
    call is expected to end within the deadline.

    Call times are reported at their 90th percentile over the run, not at
    their median. On a shared 2-vCPU Xeon VM the CPU was measured switching
    between a fast speed and one about 1.6x slower. The slow speed showed up
    in every run, but the share of fast time did not. Run medians therefore
    flipped between the two speeds, while the 90th percentile repeated from
    run to run.
    """
    setup = measure_setup(config_path)
    runner.warm_up(["xprep_single", "--config", str(config_path), "--exact"])
    start = time.perf_counter()
    samples = runner.run_pass()
    last = dict(samples)
    index = 0
    while time.perf_counter() - start + last[index] <= deadline_s:
        if index == 0:
            gc.collect()
        last[index] = runner.run_call(index)
        samples.append((index, last[index]))
        index = (index + 1) % len(runner.calls)

    by_exp = {}
    for i, seconds in samples:
        by_exp.setdefault(runner.calls[i].experiment, []).append(seconds)
    call_ms = [1e3 * s for s in by_exp["xprep_single"]]
    metrics = {
        "setup_s": statistics.median(setup),
        "call_ms_p90": tracing.percentile(call_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for exp in workloads.SWEEPS:
        metrics[f"exp_s.{exp}"] = tracing.percentile(by_exp[exp], 90)
    notes = {
        "calls_timed": {exp: len(v) for exp, v in by_exp.items()},
        "setup_repeats": SETUP_REPEATS,
        "ungated": {
            "points_per_s": runner.points_per_s(samples),
            "call_ms_p50": tracing.percentile(call_ms, 50),
            **{f"exp_s_median.{e}": statistics.median(by_exp[e]) for e in workloads.SWEEPS},
        },
        "within_run_spread": {
            "setup_s": spread(setup),
            "call_ms": spread(call_ms),
            **{f"exp_s.{e}": spread(by_exp[e]) for e in workloads.SWEEPS},
        },
    }
    return metrics, notes


def per_layer(runner, workload) -> tuple:
    untraced = runner.run_pass()
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        patches, absent = tracing.install(tracer)
        try:
            samples = runner.run_pass(tracer)
        finally:
            tracing.uninstall(patches)
        passes.append((tracer, tracing.layer_metrics(tracer, absent), samples, absent))
    (tracer_a, metrics_a, samples_a, absent), (tracer_b, metrics_b, samples_b, _) = passes
    counts_a = tracing.exact_counts(tracer_a, metrics_a)
    counts_b = tracing.exact_counts(tracer_b, metrics_b)
    mismatched = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
    if mismatched:
        runner.problems.append(
            "computed counts differ between two traced passes of one seed: "
            + ", ".join(f"{k} {counts_a[k]} vs {counts_b.get(k)}" for k in mismatched))

    metrics = {k: (v if k in counts_a else (v + metrics_b[k]) / 2.0) for k, v in metrics_a.items()}
    untraced_pps = runner.points_per_s(untraced)
    traced_pps = runner.points_per_s(samples_a + samples_b)
    metrics["trace.points_per_s_untraced"] = untraced_pps
    metrics["trace.points_per_s_traced"] = traced_pps
    metrics["trace.overhead_share"] = 1.0 - traced_pps / untraced_pps
    WORK.mkdir(exist_ok=True)
    tracer_a.write_jsonl(WORK / f"trace-{workload}.jsonl")
    notes = {
        "absent_functions": absent,
        "mismatched_counts": mismatched,
        "wait_time": "none: the program is single-threaded, spans nest and nothing waits",
        "computed": "noise.gates_applied, noise.channel_applications, tomography.settings_measured, "
                    "tomography.shots_drawn and tomography.psd_* are computed from call arguments",
        "spans_file": str((WORK / f"trace-{workload}.jsonl").relative_to(ROOT)),
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xsim" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'xsim'} not found; run from the root of an xsim checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import xsim.cli

    if not Path(xsim.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported xsim from {xsim.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    calls = workloads.build(args.workload, args.seed)
    workloads.write_configs(calls, WORK)
    warmup = WORK / "warmup.json"
    warmup.write_text(json.dumps({"params": {"target": WARMUP_TARGET}}))
    runner = Runner(xsim.cli, calls)

    if args.trace:
        values, notes = per_layer(runner, args.workload)
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(runner, args.seconds, warmup)
        declared = spec["end_to_end"]
    names = {m["name"] for m in declared}
    if names != set(values):
        runner.problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
                               f"undeclared {sorted(set(values) - names)}")

    correct = not runner.problems
    for problem in runner.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print("# env " + json.dumps(environment(), sort_keys=True))
    print("# tolerances " + json.dumps({
        "exact_fidelity": workloads.EXACT_FIDELITY_TOL, "unit_interval": workloads.UNIT_TOL,
        "analytic_concurrence": workloads.ANALYTIC_TOL, "ideal_output": workloads.IDEAL_TOL,
        "zero_noise_leakage": workloads.LEAKAGE_TOL}, sort_keys=True))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                 "failed_ratio": runner.failed / max(runner.attempted, 1), **notes},
                                sort_keys=True))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
