#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --workloads eval-mix,cli-session --seeds 1-5 --seconds 45
    python3 perfbench/sweep.py --seeds 1-10 --traced-seed 1 --out perfbench/results/BENCH_1.json

For every end-to-end metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
from BENCHMARK.json.  With --out it writes a BENCH trajectory record: the
environment, every run's metrics, and the per-layer metrics of one traced
run per workload.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from common import ROOT, environment_record

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
FULL = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "fail_frac", "worst_err_margin")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l[7:]) for l in lines if l.startswith("REPORT "))
    report["wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--traced-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", help="write the BENCH record here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"env": environment_record(), "seconds": seconds, "workloads": {}}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        runs = []
        for seed in _seeds(args.seeds):
            final, rep = run_once(workload, seed, seconds, 0)
            runs.append({"seed": seed, "correct": final["correct"], "attempted": final["attempted"],
                         "failed": final["failed"], "n_ops": rep["n_ops"], "wall_s": rep["wall_s"],
                         "metrics": rep["metrics"], "edge_failed": sum(not e["ok"] for e in rep.get("edge", []))})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={rep['metrics'][k]:.5g}" for k in FULL),
                  flush=True)
        stats = {}
        for name in FULL:
            values = [r["metrics"][name] for r in runs]
            stats[name] = spread(values) if len(values) >= 2 else {"median": values[0]}
            if name in bounds and "spread" in stats[name]:
                s = stats[name]["spread"]
                flag = "ok" if s < bounds[name] / 3 else ("within bound" if s <= bounds[name] else "TOO WIDE")
                print(f"  {name:<16} median {stats[name]['median']:.5g}  spread {s:.4f}  "
                      f"bound {bounds[name]}  {flag}")
        entry = {"runs": runs, "stats": stats}
        if args.traced_seed is not None:
            final, rep = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": final["correct"],
                               "wall_s": rep["wall_s"], "per_layer": final["metrics"]}
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
