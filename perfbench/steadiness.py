"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads paper_defaults,clean_tomography \
        --seeds 1-10 [--seconds 40] [--record perfbench/steadiness.json]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
reports for each metric the median of the runs and the interquartile range
as a share of that median (``statistics.quantiles(values, n=4)``), next to
the metric's bound from BENCHMARK.json. With ``--record`` it also writes
the table and the environment of the last run to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import HERE, ROOT, spread


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next((json.loads(l[len("# env "):]) for l in lines if l.startswith("# env ")), None)
    notes = next((json.loads(l[len("# run "):]) for l in lines if l.startswith("# run ")), {})
    return json.loads(lines[-1]), env, notes


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--record", help="write the table to this JSON file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, env = {}, None
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls, within = [], {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            result, env, notes = one_run(workload, seed, args.seconds)
            for name, value in notes.get("within_run_spread", {}).items():
                if name in within:
                    within[name].append(value)
            walls.append(time.perf_counter() - start)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "spread": spread(vals), "bound": bounds[name],
                          "values": vals}
            if within[name]:
                rows[name]["within_run_spread"] = statistics.median(within[name])
            print(f"{workload:24s} {name:28s} median {rows[name]['median']:12.6g}  "
                  f"spread {rows[name]['spread']:.4f}  bound {bounds[name]}  "
                  f"within-run {rows[name].get('within_run_spread', float('nan')):.4f}", flush=True)
        print(f"{workload:24s} run wall s: max {max(walls):.1f}  mean {statistics.mean(walls):.1f}", flush=True)
        table[workload] = {"metrics": rows, "run_wall_s": walls}
    if args.record:
        record = {"seeds": args.seeds, "seconds": args.seconds, "environment": env, "workloads": table}
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
