"""Worker interpreter for the benchmark.

    python perfbench/worker.py MODE            # job JSON on stdin, see below
    python perfbench/worker.py cli SPANS ARGV  # traced `polylim ARGV`

A worker imports polylim.cli, reads its job, warms up, prints READY (the
parent's setup_s ends there), runs its timed ops and prints one JSON line.
Modes: ``setup`` (nothing timed), ``stream`` (eval-mix segment), ``cycle``
(exact-tables cycle) and ``inproc`` (time one ``cli.main(argv)`` in-process).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from array import array

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
sys.path.insert(0, SRC)

# Warm-up for eval-mix: every table a polygamma or cotangent op in the pool
# can touch (orders 0..40) is built before timing starts.
WARM_MAX_ORDER = 40


def _ready() -> None:
    sys.stdout.write("READY\n")
    sys.stdout.flush()


def _check_origin(module) -> None:
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        print(f"worker: polylim imported from {module.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(3)


def _oracle_route(p):
    import polylim

    return polylim.harmonics_from_polynomial(p, polylim.oracle_expansion(p))


def build_call(kind: str, args):
    """(callable, args) for one op, resolved through the package root."""
    import polylim

    if kind == "probe":
        family, n, q, k, i = args
        spec = polylim.LimitSpec(
            family=polylim.FAMILY_GAMMA if family == "gamma" else polylim.FAMILY_POLYGAMMA,
            numerator_scale=n, denominator_scale=q, pole_index=k, derivative_order=i,
        )
        return polylim.probe_limit, (spec,)
    if kind == "oracle_route":
        return _oracle_route, tuple(args)
    return getattr(polylim, kind), tuple(args)


def _calls(ops, tracer):
    calls = []
    for kind, args in ops:
        fn, call_args = build_call(kind, args)
        if tracer:
            fn = tracer.wrap(fn, f"op.{kind}")
        calls.append((fn, call_args))
    return calls


def _run_once(fn, args):
    try:
        return fn(*args)
    except Exception as exc:  # the parent judges every outcome
        return exc


def stream(job, tracer, polylim_error):
    """eval-mix segment: warm every pool op, then cycle the schedule."""
    from outcomes import summarize

    import polylim

    pool = job["pool"]
    calls = _calls(pool, tracer)
    for p in range(1, WARM_MAX_ORDER + 1):
        polylim.expansion(p)
    first = [_run_once(fn, args) for fn, args in calls]
    if tracer:
        tracer.reset()
    _ready()

    schedule = job["schedule"]
    counts = [0] * len(calls)
    mismatched = 0
    lat = array("q")
    clock = time.perf_counter_ns
    begin = clock()
    deadline = begin + int(job["seconds"] * 1e9)
    t1 = begin
    while t1 < deadline:
        for idx in schedule:
            fn, args = calls[idx]
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:
                out = exc
            t1 = clock()
            lat.append(t1 - t0)
            counts[idx] += 1
            if out != first[idx]:
                ref = first[idx]
                if not (isinstance(out, Exception) and type(out) is type(ref) and str(out) == str(ref)):
                    mismatched += 1
            if t1 >= deadline:
                break
    window = t1 - begin
    edges = [summarize(kind, args, _run_once(*build_call(kind, args)), polylim_error)
             for kind, args in job.get("edges", [])]
    return {
        "window_ns": window,
        "lat_ns": lat.tolist(),
        "counts": counts,
        "first": [summarize(k, a, out, polylim_error) for (k, a), out in zip(pool, first)],
        "n_mismatched": mismatched,
        "edges": edges,
    }


def cycle(job, tracer, polylim_error):
    """exact-tables cycle: every op once, from cold caches."""
    from outcomes import summarize

    ops = job["ops"]
    calls = _calls(ops, tracer)
    _ready()
    clock = time.perf_counter_ns
    lat = []
    outs = []
    begin = t1 = clock()
    for fn, args in calls:
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:
            out = exc
        t1 = clock()
        lat.append(t1 - t0)
        outs.append(out)
    return {
        "window_ns": t1 - begin,
        "lat_ns": lat,
        "summaries": [summarize(k, a, out, polylim_error) for (k, a), out in zip(ops, outs)],
    }


def _run_cli(argv):
    import polylim.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return polylim.cli.main(argv)


def inproc(job, tracer, polylim_error):
    """Wall time of one cli.main(argv) in this fresh interpreter."""
    _ready()
    clock = time.perf_counter_ns
    t0 = clock()
    _run_cli(job["argv"])
    return {"lat_ns": clock() - t0}


def traced_cli(spans_path, argv) -> int:
    import polylim.cli
    from tracer import Tracer

    _check_origin(polylim.cli)
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(polylim.cli.main, "cli.main")(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    with open(spans_path + ".acc", "w", encoding="utf-8") as handle:
        json.dump(tracer.accumulate(), handle)
    return code


MODES = {"setup": None, "stream": stream, "cycle": cycle, "inproc": inproc}


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return traced_cli(sys.argv[2], sys.argv[3:])
    import polylim.cli
    from polylim.errors import PolylimError

    _check_origin(polylim.cli)
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    handler = MODES[mode]
    if handler is None:
        _ready()
        result = {}
    else:
        result = handler(job, tracer, PolylimError)
    if tracer:
        result["acc"] = tracer.accumulate()
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
