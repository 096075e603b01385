#!/usr/bin/env python3
"""polylim benchmark: three seeded, closed-loop, single-caller workloads.

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # table of all six metrics
    python3 perfbench/run.py --smoke                                # self-check at tiny size

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1 is the
separate traced run: it alternates untraced and traced segments and reports
the per-layer metrics and the tracing overhead.  Every output is checked against
references that share no code with polylim (see reference.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and every metric's definition.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

from common import (
    OUT_DIR, ROOT, WORKER, child_env, environment_record, median, pin_environment,
    quantile, require_checkout, run_worker,
)
import inputs
from tracer import merge

WORKLOADS = ("eval-mix", "exact-tables", "cli-session")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("fail_frac", "ratio"),
    ("worst_err_margin", "ratio"),
)
# fail_frac and worst_err_margin can legitimately be 0, so they are reported
# but not gated; the gated four are BENCHMARK.json's end_to_end list.
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms")

SUBCOMMANDS = ("coeffs", "eval-cot", "polygamma", "limit", "verify")
CHECK_NAMES = (
    "coefficient-sum-identity", "oracle-equivalence", "unified-piecewise-agreement",
    "finite-difference-consistency", "parity", "exact-harmonic-extraction",
    "bernoulli-recurrence", "recurrence-identity", "series-oracle-agreement",
    "reflection-identity", "sign-pattern", "path-bookkeeping",
    "exact-reciprocity", "polygamma-symmetry", "laurent-residue-unit",
    "theorem-probe-grid", "gamma-probe-grid", "pole-independence",
    "monotone-improvement",
)
PER_LAYER = (
    [("cli.import_s", "s"), ("cli.import_numpy_s", "s"), ("cli.overhead_ms", "ms"),
     ("cli.child_cpu_ms", "ms")]
    + [(f"cli.call_ms.{s}", "ms") for s in SUBCOMMANDS]
    + [("cotderiv.expansion_s", "s"), ("cotderiv.expansion_calls", "count"),
       ("cotderiv.coeff_bits", "bits"), ("cotderiv.coeff_us", "us"),
       ("cotderiv.eval_us", "us"), ("cotderiv.oracle_ms", "ms")]
    + [(f"polygamma.call_us.{r}", "us") for r in ("asymptotic", "shifted", "reflection")]
    + [(f"polygamma.calls.{r}", "count") for r in ("asymptotic", "shifted", "reflection")]
    + [("polygamma.shift_steps", "count"), ("polygamma.series_oracle_ms", "ms"),
       ("polygamma.reflection_residual_us", "us")]
    + [("kernels.power_sum_s", "s"), ("kernels.terms", "count"),
       ("kernels.bytes_computed", "bytes")]
    + [("limits.probe_us.gamma", "us"), ("limits.probe_us.polygamma", "us"),
       ("limits.self_us", "us"), ("limits.samples", "count"),
       ("limits.converged_frac", "ratio"), ("limits.probe_failures", "count"),
       ("limits.exact_us", "us")]
    + [(f"verify.suite_s.{s}", "s") for s in ("coeffs", "reflection", "limits")]
    + [(f"verify.check_ms.{c}", "ms") for c in CHECK_NAMES]
    + [("verify.checks_passed", "count")]
    + [("trace.ops", "count"), ("trace.ops_per_s", "1/s"),
       ("trace.untraced_ops_per_s", "1/s"), ("trace.overhead_frac", "ratio")]
    + [("check.fail_frac", "ratio"), ("check.worst_err_margin", "ratio"),
       ("check.edge_attempted", "count"), ("check.edge_failed", "count")]
)
UNIT_NS = {"s": 1e9, "ms": 1e6, "us": 1e3}

CLI_TIMEOUT_S = 60
CLI_SETUP_EVERY = 12


@dataclass(frozen=True)
class Size:
    """Run sizes; --smoke shrinks them."""

    eval_segments: int = 10
    eval_pool_scale: float = 1.0
    eval_blocks: int = inputs.EVAL_SCHEDULE_BLOCKS
    p_max: int = inputs.P_MAX
    import_repeats: int = 3


SMOKE = Size(eval_segments=2, eval_pool_scale=0.05, eval_blocks=4, p_max=24, import_repeats=1)


class Checker:
    """Collects per-op verdicts; fail_frac and worst_err_margin come from here."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.worst = 0.0
        self.reasons: list[str] = []

    def add(self, ok: bool, weight: int = 1, margin: float | None = None, reason: str = "") -> None:
        self.attempted += weight
        if margin is not None and math.isfinite(margin):
            self.worst = max(self.worst, margin)
        if not ok:
            self.failed += weight
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def _spans_path(name: str) -> str:
    return os.path.join(OUT_DIR, "trace", name)


def _clear_spans(workload: str) -> None:
    os.makedirs(os.path.join(OUT_DIR, "trace"), exist_ok=True)
    for path in glob.glob(_spans_path(f"{workload}-*")):
        os.remove(path)


def _latency_metrics(lat_ns: list, window_ns: int) -> dict:
    lat = sorted(lat_ns)
    return {
        "ops_per_s": len(lat) / (window_ns / 1e9),
        "op_p50_ms": quantile(lat, 0.5) / 1e6,
        "op_p90_ms": quantile(lat, 0.9) / 1e6,
        "n_ops": len(lat),
    }


# ---------------------------------------------------------------------------
# eval-mix


def run_eval_mix(seed: int, seconds: float, trace: bool, size: Size, corrupt=None) -> dict:
    import reference

    pool, schedule, edges = inputs.eval_mix(seed, size.eval_pool_scale, size.eval_blocks)
    refs = [reference.float_reference(kind, args) for kind, args in pool]
    if corrupt:
        refs = corrupt(refs)
    plan = ["U", "T"] * max(1, size.eval_segments // 2) if trace else ["U"] * size.eval_segments
    seg_s = seconds / len(plan)
    _clear_spans("eval-mix")
    setups, segments = {"U": [], "T": []}, {"U": [], "T": []}
    counts = [0] * len(pool)
    firsts, acc, edge_out, mismatches = None, {}, [], 0
    for k, mode in enumerate(plan):
        job = {"pool": pool, "schedule": schedule, "seconds": seg_s, "trace": mode == "T",
               "edges": edges if k == 0 else [],
               "spans_path": _spans_path(f"eval-mix-{k}.bin") if mode == "T" else None}
        setup, res = run_worker("stream", job)
        setups[mode].append(setup)
        segments[mode].append((res["lat_ns"], res["window_ns"]))
        counts = [a + b for a, b in zip(counts, res["counts"])]
        mismatches += res["n_mismatched"]
        if firsts is None:
            firsts = res["first"]
        elif res["first"] != firsts:
            mismatches += 1
        if res["edges"]:
            edge_out = res["edges"]
        if mode == "T":
            merge(acc, res["acc"])

    check = Checker()
    for (kind, args), summary, ref, n in zip(pool, firsts, refs, counts):
        ok, margin, reason = reference.judge(kind, args, summary, ref)
        check.add(ok, n, margin, f"{kind}{tuple(args)}: {reason}")
    if mismatches:  # these ops are already counted as attempted
        check.failed = min(check.attempted, check.failed + mismatches)
        check.reasons.append(f"{mismatches} outputs differed from the warm-up output")

    edge_rows = []
    for (kind, args), summary in zip(edges, edge_out):
        ok, margin, reason = reference.judge(kind, args, summary, reference.float_reference(kind, args))
        edge_rows.append({"op": kind, "args": args, "ok": ok, "reason": reason})

    result = _result("eval-mix", check, setups["U"], segments["U"])
    result["edge"] = edge_rows
    if trace:
        result["tracing"] = _trace_summary(segments)
        result["acc"] = acc
    return result


# ---------------------------------------------------------------------------
# exact-tables


def run_exact_tables(seed: int, seconds: float, trace: bool, size: Size, corrupt=None) -> dict:
    import reference

    tables = reference.cot_tables(size.p_max)
    _clear_spans("exact-tables")
    setups, segments = {"U": [], "T": []}, {"U": [], "T": []}
    acc = {}
    check = Checker()
    c = elapsed_ns = 0
    # Whole cycles only: every cycle builds the same set of tables, so the
    # mix per run is fixed; the run stops at the first cycle end past --seconds.
    while c < 2 or elapsed_ns < seconds * 1e9:
        mode = "T" if trace and c % 2 else "U"
        ops = inputs.exact_cycle(seed, c, size.p_max)
        job = {"ops": ops, "trace": mode == "T",
               "spans_path": _spans_path(f"exact-tables-{c}.bin") if mode == "T" else None}
        setup, res = run_worker("cycle", job)
        setups[mode].append(setup)
        segments[mode].append((res["lat_ns"], res["window_ns"]))
        elapsed_ns += res["window_ns"]
        if mode == "T":
            merge(acc, res["acc"])
        for (kind, args), summary in zip(ops, res["summaries"]):
            want = reference.exact_reference(kind, args, tables)
            if corrupt:
                want = corrupt(kind, args, want)
            check.add(summary == want, 1, None, f"{kind}{tuple(args)}: got {summary[:2]}")
        c += 1
    result = _result("exact-tables", check, setups["U"], segments["U"])
    result["cycles"] = c
    if trace:
        result["tracing"] = _trace_summary(segments)
        result["acc"] = acc
    return result


# ---------------------------------------------------------------------------
# cli-session


def _format_rational(value) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _opts(argv: list) -> dict:
    opts, key = {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            opts[key] = True
        elif key:
            opts[key] = tok
            key = None
    return opts


def judge_cli(argv: list, code: int, out: str, tables, corrupt=None) -> tuple[bool, float | None, str]:
    """Exit code and parsed stdout of one `polylim` call against references."""
    import reference

    sub, o = argv[0], _opts(argv)
    if code != 0:
        return False, None, f"exit code {code}"
    as_json = o.get("format") == "json"
    try:
        if sub == "verify":
            lines = out.strip().splitlines()
            m = re.match(r"^(\d+)/(\d+) checks passed in suite '(\w+)'$", lines[-1])
            ok = bool(m) and m.group(1) == m.group(2) and int(m.group(2)) == len(lines) - 1
            ok = ok and all(line.startswith("PASS ") for line in lines[:-1])
            return ok, None, lines[-1]
        if sub == "coeffs":
            order = int(o["order"])
            got = {}
            if as_json:
                for e in json.loads(out):
                    if e["sin_exponent"] != e["order"] + 1:
                        return False, None, "bad sin exponent"
                    got[e["order"]] = tuple((j, int(b)) for j, b in e["harmonics"])
            else:
                rows = out.strip().splitlines()
                if rows[0] != "order,sin_exponent,multiplier,coefficient":
                    return False, None, "bad CSV header"
                for row in rows[1:]:
                    p, s, j, b = (int(v) for v in row.split(","))
                    if s != p + 1:
                        return False, None, "bad sin exponent"
                    got.setdefault(p, []).append((j, b))
                got = {p: tuple(h) for p, h in got.items()}
            want = {p: tables[p] for p in range(1, order + 1)}
            if corrupt:
                want = corrupt(want)
            return got == want, None, f"coeffs table for orders 1..{order}"
        if sub == "limit":
            family = o["family"]
            args = [family, int(o["n"]), int(o["q"]), int(o.get("k", 0)), int(o.get("i", 0))]
            target = reference.probe_target(*args)
            if corrupt:
                target = corrupt(target)
            if "probe" in o:
                if as_json:
                    rep = json.loads(out)
                    summary = ["probe", float(rep["extrapolated"]), rep["converged"], len(rep["samples"])]
                else:
                    last = out.strip().splitlines()[-1].split(",")
                    summary = ["probe", float(last[5]), last[9] == "true", None]
                return reference.judge("probe", args, summary, (target, None))
            if as_json:
                value = json.loads(out)["value"]
                ok = (int(value["numerator"]), int(value["denominator"])) == (target.numerator, target.denominator)
            else:
                ok = out.strip() == _format_rational(target)
            return ok, None, f"limit {args}"
        if sub in ("polygamma", "eval-cot"):
            n, x = int(o["order"]), float(o["x"])
            if as_json:
                value = json.loads(out)["value"]
            else:
                value = float(out.strip().splitlines()[1].split(",")[2])
            kind = "polygamma" if sub == "polygamma" else "eval_cot_deriv"
            ref = reference.float_reference(kind, (n, x))
            if corrupt:
                ref = corrupt(ref)
            return reference.judge(kind, (n, x), ["f", value], ref)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return False, None, f"unparseable output: {exc!r}"
    return False, None, f"unknown subcommand {sub}"


def _cli_call(argv: list, traced_path: str | None) -> dict:
    if traced_path:
        cmd = [sys.executable, WORKER, "cli", traced_path, *argv]
    else:
        cmd = [sys.executable, "-m", "polylim", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    t1 = time.perf_counter_ns()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"argv": argv, "lat_ns": t1 - t0, "code": proc.returncode, "out": proc.stdout,
            "cpu_s": cpu}


def _cli_layer(calls: list, twinned: list) -> dict:
    """cli.* metrics from untraced subprocess calls.  For cli.overhead_ms each
    call in `twinned` is repeated in-process in a fresh worker, so the twin
    starts from cold caches as the subprocess does, and the difference is
    interpreter start, imports and argparse."""
    over = [(c["lat_ns"] - run_worker("inproc", {"argv": c["argv"]})[1]["lat_ns"]) / 1e6
            for c in twinned]
    layer = {"cli.overhead_ms": median(over),
             "cli.child_cpu_ms": 1e3 * sum(c["cpu_s"] for c in calls) / len(calls)}
    for sub in SUBCOMMANDS:
        lats = [c["lat_ns"] / 1e6 for c in calls if c["argv"][0] == sub]
        if lats:
            layer[f"cli.call_ms.{sub}"] = median(lats)
    return layer


def run_cli_session(seed: int, seconds: float, trace: bool, size: Size) -> dict:
    import reference

    blocks = inputs.cli_blocks(seed)
    tables = reference.cot_tables(inputs.CLI_MAX_COEFF_ORDER)
    _clear_spans("cli-session")
    _cli_call(["limit", "--family", "gamma", "--n", "1", "--q", "1"], None)  # warm the file cache
    setups, calls, segments = [], {"U": [], "T": []}, {"U": [], "T": []}
    # Whole blocks only, so every block has the same mix, with a set-up
    # measurement before every CLI_SETUP_EVERY-th call, so set-ups are
    # spread over the run.  Traced runs alternate untraced and traced
    # blocks, so a change in the host's speed during the run does not land
    # on one side.
    b = spent = 0
    while b < 2 or spent < seconds * 1e9:
        mode = "T" if trace and b % 2 else "U"
        done = []
        for i, argv in enumerate(blocks[b % len(blocks)]):
            if i % CLI_SETUP_EVERY == 0:
                setups.append(run_worker("setup", {})[0])
            n_traced = len(calls["T"]) + len(done)
            path = _spans_path(f"cli-session-{n_traced}.bin") if mode == "T" else None
            done.append(_cli_call(argv, path))
        calls[mode].extend(done)
        lat = [c["lat_ns"] for c in done]
        segments[mode].append((lat, sum(lat)))
        spent += sum(lat)
        b += 1
    check = Checker()
    for call in calls["U"] + calls["T"]:
        ok, margin, reason = judge_cli(call["argv"], call["code"], call["out"], tables)
        check.add(ok, 1, margin, f"polylim {' '.join(call['argv'])}: {reason}")
    result = _result("cli-session", check, setups, segments["U"])
    if trace:
        acc = {}
        for i in range(len(calls["T"])):
            with open(_spans_path(f"cli-session-{i}.bin.acc"), encoding="utf-8") as handle:
                merge(acc, json.load(handle))
        result["tracing"] = _trace_summary(segments)
        result["acc"] = acc
        # Twins for the first block only: one fresh worker per call.
        result["cli"] = _cli_layer(calls["U"], calls["U"][:len(blocks[0])])
    return result


# ---------------------------------------------------------------------------
# shared result assembly


def _result(workload: str, check: Checker, setups: list, segments: list) -> dict:
    """End-to-end metrics over every timed op of the run's segments (workers,
    cycles or blocks).  The host's speed changes in spells of 5-40 s; pooling
    the whole run weighs each spell by its length, where a median over
    segments would flip between spells."""
    lat = sorted(t for seg, _ in segments for t in seg)
    metrics = _latency_metrics(lat, sum(window for _, window in segments))
    metrics.update(
        setup_s=median(setups),
        fail_frac=check.failed / check.attempted if check.attempted else 1.0,
        worst_err_margin=check.worst,
    )
    n_ops = metrics.pop("n_ops")
    return {"workload": workload, "metrics": metrics, "n_ops": n_ops,
            "n_segments": len(segments), "n_setups": len(setups),
            "attempted": check.attempted, "failed": check.failed, "failures": check.reasons}


def _trace_summary(segments: dict) -> dict:
    def rate(mode):
        ops = sum(len(lat) for lat, _ in segments[mode])
        return ops, ops / (sum(window for _, window in segments[mode]) / 1e9)

    _, untraced = rate("U")
    ops, traced = rate("T")
    return {"trace.ops": ops, "trace.ops_per_s": traced,
            "trace.untraced_ops_per_s": untraced, "trace.overhead_frac": untraced / traced - 1.0}


def _import_times(repeats: int) -> dict:
    env = child_env()
    walls, numpy_cum = [], []
    code = "import time; t = time.perf_counter(); import polylim.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                             text=True, timeout=CLI_TIMEOUT_S, check=True)
        walls.append(float(out.stdout))
        prof = subprocess.run([sys.executable, "-X", "importtime", "-c", "import polylim.cli"],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        cum = 0
        for line in prof.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                cum = int(parts[1])
        numpy_cum.append(cum / 1e6)
    return {"cli.import_s": median(walls), "cli.import_numpy_s": median(numpy_cum)}


def _layer_values(acc: dict) -> dict:
    values = {}
    units = dict(PER_LAYER)
    for key, (total, n) in acc.get("mean", {}).items():
        if n and key in units:
            values[key] = total / n / UNIT_NS[units[key]]
    counts = acc.get("count", {})
    for key, total in counts.items():
        if key in units:
            values[key] = total
    done = counts.get("limits.probes_completed", 0)
    if done:
        values["limits.converged_frac"] = counts.get("limits.probes_converged", 0) / done
    return values


def per_layer(result: dict, size: Size) -> dict:
    """Every PER_LAYER metric for a traced run.  A layer the workload never
    reaches reads 0; cli-session reaches every layer."""
    values = _layer_values(result["acc"])
    values.update(result.get("cli", {}))
    values.update(_import_times(size.import_repeats))
    values.update(result["tracing"])
    values["check.fail_frac"] = result["metrics"]["fail_frac"]
    values["check.worst_err_margin"] = result["metrics"]["worst_err_margin"]
    edges = result.get("edge", [])
    values["check.edge_attempted"] = len(edges)
    values["check.edge_failed"] = sum(1 for e in edges if not e["ok"])
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


RUNNERS = {"eval-mix": run_eval_mix, "exact-tables": run_exact_tables, "cli-session": run_cli_session}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: Size = Size()) -> dict:
    run_worker("setup", {})  # untimed: compiles bytecode and warms the file cache
    result = RUNNERS[workload](seed, seconds, trace, size)
    if trace:
        result["per_layer"] = per_layer(result, size)
    return result


def _edge_line(edges: list) -> str:
    failed = [e for e in edges if not e["ok"]]
    kinds = {}
    for e in failed:
        reason = e["reason"]
        label = reason.split(":")[0] if reason.startswith("raised") else (
            "non-finite result" if "inf" in reason or "nan" in reason else "wrong value")
        if e["op"] == "probe" and "converged=True" in reason:
            label = "probe reported converged=True on a wrong value"
        kinds[label] = kinds.get(label, 0) + 1
    detail = ", ".join(f"{n} x {k}" for k, n in sorted(kinds.items()))
    return (f"edge inputs (documented domain, ROADMAP item 4; run once, outside the timed "
            f"stream and outside attempted/failed): {len(failed)}/{len(edges)} failed"
            + (f": {detail}" if detail else ""))


def report(result: dict, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    m = result["metrics"]
    print(f"perfbench workload={result['workload']} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"end-to-end over {result['n_ops']} timed ops in {result['n_segments']} segments "
          f"(untraced) and {result['n_setups']} set-ups:")
    for name, unit in END_TO_END:
        print(f"  {name:<18} {m[name]:.6g} {unit}")
    print(f"checked: {result['attempted']} ops attempted, {result['failed']} failed")
    for reason in result["failures"]:
        print(f"  FAIL {reason}")
    if result.get("edge"):
        print(_edge_line(result["edge"]))
    if trace:
        t = result["tracing"]
        print(f"tracing overhead: {t['trace.ops_per_s']:.6g} ops/s traced vs "
              f"{t['trace.untraced_ops_per_s']:.6g} untraced ({100 * t['trace.overhead_frac']:.1f}% slower)")
    full = {k: v for k, v in result.items() if k not in ("acc",)}
    full.update(seed=seed, seconds=seconds, trace=int(trace), env=env)
    print("REPORT " + json.dumps(full, sort_keys=True))
    if trace:
        metrics = result["per_layer"]
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": m[name], "unit": units[name]} for name in GATED}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of every workload")
    args = parser.parse_args(argv)
    require_checkout()
    pin_environment()
    if args.smoke:
        import selfcheck

        return selfcheck.main()
    if not args.workload:
        parser.error("--workload is required")
    env = environment_record()
    trace = bool(args.trace)
    if args.workload == "all":
        rows = {}
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, trace)
            report(result, args.seed, args.seconds, trace, env)
            rows[workload] = result["metrics"]
        print(f"{'metric':<18}" + "".join(f"{w:>16}" for w in WORKLOADS))
        for name, unit in END_TO_END:
            print(f"{name + ' [' + unit + ']':<18}" + "".join(f"{rows[w][name]:>16.6g}" for w in WORKLOADS))
        print(json.dumps(rows))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    print(json.dumps(report(result, args.seed, args.seconds, trace, env)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
