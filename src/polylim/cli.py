"""Command-line interface.

Subcommands: coeffs, eval-cot, polygamma, limit, verify.  Output is CSV by
default, JSON with --format json, written to stdout or --output.  Exit
codes: 0 success, 1 computational or verification failure or an --output
that cannot be written, 2 usage error.

This module alone defines the CSV and JSON layouts; the library's records
are plain data.  Exact integers print as decimal strings.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

from . import cotderiv, limits, verify
from .errors import MAX_EVAL_ORDER, MAX_TABLE_ORDER, PolylimError
from .polygamma import polygamma

# `coeffs` and the polygamma family of `limit` take the library's caps, checked
# here first so that exceeding one is a usage error (exit 2).  Only
# MAX_GAMMA_FACTORIAL is the CLI's own: it bounds printed digits, not work.
# The gamma family prints (max(n, q) * k)!-sized integers; 1000! has 2568
# digits, below Python's 4300-digit limit on int-to-str conversion.
MAX_GAMMA_FACTORIAL = 1000

_FAMILIES = {
    "gamma": limits.FAMILY_GAMMA,
    "polygamma": limits.FAMILY_POLYGAMMA,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polylim",
        description=(
            "Cotangent-derivative expansions, polygamma evaluation, and "
            "exact pole-ratio limits with numerical probes."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_io_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", dest="fmt"
        )
        p.add_argument("--output", default=None, help="write here instead of stdout")

    p = sub.add_parser("coeffs", help="expansion tables for orders 1..P")
    p.add_argument(
        "--order", type=int, required=True, help=f"P, at most {MAX_TABLE_ORDER}"
    )
    add_io_flags(p)

    p = sub.add_parser("eval-cot", help="evaluate a cotangent derivative")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x", type=float, required=True, help="argument in radians")
    add_io_flags(p)

    p = sub.add_parser("polygamma", help="evaluate a polygamma function")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    add_io_flags(p)

    p = sub.add_parser("limit", help="exact pole-ratio limit, optionally probed")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--i", type=int, default=0, help="derivative order")
    p.add_argument("--n", type=int, required=True, help="numerator scale")
    p.add_argument("--q", type=int, required=True, help="denominator scale")
    p.add_argument("--k", type=int, default=0, help="pole index")
    p.add_argument(
        "--probe",
        action="store_true",
        help="sample the ratio near the pole and extrapolate",
    )
    add_io_flags(p)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=verify.SUITE_NAMES, required=True)
    p.add_argument("--output", default=None, help="write here instead of stdout")

    return parser


@contextlib.contextmanager
def _sink(output: str | None):
    if output is None:
        yield sys.stdout
        return
    # Opening, writing and the flush at close can each fail: a missing
    # directory, a directory in place of a file, a full device.
    try:
        with open(output, "w", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise PolylimError(f"cannot write {output}: {exc.strerror or exc}") from None


def _emit(text: str, output: str | None) -> None:
    with _sink(output) as handle:
        handle.write(text)
        if not text.endswith("\n"):
            handle.write("\n")


def _json(value) -> str:
    """``value`` as indented JSON; json loads only for calls that print it."""
    import json

    return json.dumps(value, indent=2)


def _fraction_json(value) -> dict:
    """An exact rational as decimal-string numerator and denominator."""
    return {"numerator": str(value.numerator), "denominator": str(value.denominator)}


def _spec_json(spec: limits.LimitSpec) -> dict:
    return {
        "family": spec.family,
        "i": spec.derivative_order,
        "n": spec.numerator_scale,
        "q": spec.denominator_scale,
        "k": spec.pole_index,
    }


def _probe_csv(report: limits.ProbeReport) -> str:
    header, prefix = _record(_spec_json(report.spec), "csv").split("\n")
    lines = [f"{header},eps,sample"]
    lines += [
        f"{prefix},{eps!r},{sample!r}"
        for eps, sample in zip(report.epsilons, report.samples)
    ]
    lines.append(f"{header},extrapolated,target_num,target_den,abs_error,converged")
    lines.append(
        f"{prefix},{report.extrapolated!r},{report.target.numerator},"
        f"{report.target.denominator},{report.abs_error!r},"
        f"{'true' if report.converged else 'false'}"
    )
    return "\n".join(lines)


def _run_coeffs(args) -> int:
    # Written one order at a time: the whole table grows as about P**3.
    expansions = cotderiv.expansions_up_to(args.order)
    with _sink(args.output) as handle:
        if args.fmt == "json":
            # The same bytes as json.dumps(list_of_dicts, indent=2): each
            # element's lines indented two more spaces.
            separator = "[\n"
            for e in expansions:
                element = _json(
                    {
                        "order": e.order,
                        "sin_exponent": e.sin_exponent,
                        "harmonics": [[j, str(b)] for j, b in e.harmonics],
                    }
                )
                handle.write(separator + "  " + element.replace("\n", "\n  "))
                separator = ",\n"
            handle.write("\n]\n")
        else:
            handle.write("order,sin_exponent,multiplier,coefficient\n")
            for e in expansions:
                handle.write(
                    "".join(
                        f"{e.order},{e.sin_exponent},{j},{b}\n"
                        for j, b in e.harmonics
                    )
                )
    return 0


def _record(fields: dict, fmt: str) -> str:
    """One record: JSON, or a CSV header of the keys over one row."""
    if fmt == "json":
        return _json(fields)
    row = (repr(v) if isinstance(v, float) else str(v) for v in fields.values())
    return ",".join(fields) + "\n" + ",".join(row)


def _run_eval_cot(args) -> int:
    value = cotderiv.eval_cot_deriv(args.order, args.x)
    fields = {"order": args.order, "x": args.x, "value": value}
    _emit(_record(fields, args.fmt), args.output)
    return 0


def _run_polygamma(args) -> int:
    result = polygamma(args.order, args.x)
    fields = {
        "order": result.order,
        "x": result.argument,
        "value": result.value,
        "method": result.method,
        "shift_count": result.shift_count,
    }
    _emit(_record(fields, args.fmt), args.output)
    return 0


def _run_limit(args) -> int:
    spec = limits.LimitSpec(
        family=_FAMILIES[args.family],
        numerator_scale=args.n,
        denominator_scale=args.q,
        pole_index=args.k,
        derivative_order=args.i,
    )
    if args.probe:
        report = limits.probe_limit(spec)
        if args.fmt == "json":
            text = _json(
                {
                    "spec": _spec_json(spec),
                    "epsilons": list(report.epsilons),
                    "samples": list(report.samples),
                    "extrapolated": report.extrapolated,
                    "target": _fraction_json(report.target),
                    "abs_error": report.abs_error,
                    "converged": report.converged,
                }
            )
        else:
            text = _probe_csv(report)
    else:
        target = spec.target()
        if args.fmt == "json":
            text = _json({"spec": _spec_json(spec), "value": _fraction_json(target)})
        else:
            # 'p/q', or 'p' for an integer.
            text = str(target)
    _emit(text, args.output)
    return 0


def _run_verify(args) -> int:
    results = verify.run_suite(args.suite)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.detail})" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed in suite "
        f"'{args.suite}'"
    )
    _emit("\n".join(lines), args.output)
    return 1 if failed else 0


def _cap_violation(args) -> str | None:
    """Why the request exceeds the work a single call may demand, if it does.

    Values below a family's domain pass, so that the library reports them.
    """
    if args.subcommand == "coeffs" and args.order > MAX_TABLE_ORDER:
        return (
            f"argument --order: at most {MAX_TABLE_ORDER} for coeffs, "
            f"got {args.order}"
        )
    if args.subcommand != "limit":
        return None
    scale = max(args.n, args.q)
    if args.family == "gamma":
        if scale * max(args.k, 0) > MAX_GAMMA_FACTORIAL:
            return (
                f"argument --k: max(--n, --q) * --k is at most "
                f"{MAX_GAMMA_FACTORIAL} for the gamma family, got "
                f"{scale} * {args.k}"
            )
    elif args.i > MAX_EVAL_ORDER:
        return (
            f"argument --i: at most {MAX_EVAL_ORDER} for the polygamma "
            f"family, got {args.i}"
        )
    elif scale > limits.MAX_LIMIT_SCALE:
        return (
            f"argument --n/--q: at most {limits.MAX_LIMIT_SCALE} for the polygamma "
            f"family, got {scale}"
        )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    violation = _cap_violation(args)
    if violation:
        parser.error(violation)
    runners = {
        "coeffs": _run_coeffs,
        "eval-cot": _run_eval_cot,
        "polygamma": _run_polygamma,
        "limit": _run_limit,
        "verify": _run_verify,
    }
    try:
        return runners[args.subcommand](args)
    except PolylimError as exc:
        print(f"polylim: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
