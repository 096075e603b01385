"""Smoke mode (`python3 perfbench/run.py --smoke`): every workload at a tiny
size, traced and untraced.  Asserts that every metric is emitted with its
unit, that BENCHMARK.json lists exactly the metrics the benchmark emits,
and that the output checks flag deliberately corrupted references."""
from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import run
from common import ROOT

SMOKE_SECONDS = {"eval-mix": 0.6, "exact-tables": 0.2, "cli-session": 3.0}


class SmokeFailure(AssertionError):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)
    print(f"  ok  {message}")


def _quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def _run(workload: str, trace: bool, seed: int = 7) -> tuple[dict, dict]:
    seconds = SMOKE_SECONDS[workload]
    result = run.run_workload(workload, seed, seconds, trace, run.SMOKE)
    final = _quiet(run.report, result, seed, seconds, trace, {})
    return result, final


def check_benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    units = dict(run.END_TO_END)
    _expect(e2e == [(n, units[n]) for n in run.GATED], "BENCHMARK.json end_to_end matches the gated metrics")
    layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    _expect(layers == list(run.PER_LAYER), "BENCHMARK.json per_layer matches the emitted per-layer metrics")
    _expect({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json workloads exist")
    return bench


def check_emission(bench: dict) -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, final = _run(workload, trace)
            label = f"{workload} trace={int(trace)}"
            _expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            _expect(final["correct"] and final["failed"] == 0 and final["attempted"] >= 1,
                    f"{label}: correct, {final['attempted']} attempted, {final['failed']} failed")
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            got = [(n, m["unit"]) for n, m in final["metrics"].items()]
            _expect(got == [(m["name"], m["unit"]) for m in wanted], f"{label}: every metric with its unit")
            _expect(all(isinstance(m["value"], (int, float)) for m in final["metrics"].values()),
                    f"{label}: every value is a number")
            _expect(set(result["metrics"]) == {n for n, _ in run.END_TO_END},
                    f"{label}: report carries all six end-to-end metrics")


def check_corruption() -> None:
    def bend_first_ref(refs):
        value, scale = refs[0]
        return [(value * (1 + 1e-6), scale)] + refs[1:]

    result = run.run_eval_mix(7, 0.3, False, run.SMOKE, corrupt=bend_first_ref)
    _expect(result["failed"] > 0, f"eval-mix: a reference bent by 1e-6 is flagged ({result['failed']} ops)")

    def swap_table(kind, args, want):
        return ["table", "0" * 32, True] if kind == "expansion" and args[0] == 5 else want

    result = run.run_exact_tables(7, 0.0, False, run.SMOKE, corrupt=swap_table)
    _expect(result["failed"] == result["cycles"],
            f"exact-tables: a corrupted table digest is flagged once per cycle ({result['failed']})")

    argv = ["limit", "--family", "gamma", "--n", "2", "--q", "1", "--k", "1", "--probe", "--format", "json"]
    call = run._cli_call(argv, None)
    tables = []
    ok, _, _ = run.judge_cli(argv, call["code"], call["out"], tables)
    _expect(ok, "cli: a probe call passes against its closed form")
    ok, _, _ = run.judge_cli(argv, call["code"], call["out"], tables, corrupt=lambda t: t * Fraction(10001, 10000))
    _expect(not ok, "cli: the same call fails against a target moved by 1e-4 relative")


def main() -> int:
    print("perfbench smoke")
    try:
        bench = check_benchmark_json()
        check_emission(bench)
        check_corruption()
    except SmokeFailure as exc:
        print(f"SMOKE FAILED: {exc}")
        return 1
    print("smoke passed")
    return 0
