"""Spans around polylim's public functions, installed from outside.

Each wrapped function is replaced under every name a polylim module binds it
to (``polygamma`` in limits, verify, cli and the package root;
``eval_cot_deriv_pi`` and ``shifted_power_sum`` in polylim.polygamma;
verify's ``_check_*`` functions in verify's globals; ...), so calls are seen
whichever way a caller looks the function up.  Spans (name, start, end,
parent) are kept in memory and written out when the worker ends; per-layer
accumulators are derived from them.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

REGIONS = {"asymptotic": "asymptotic", "shifted-asymptotic": "shifted", "reflection": "reflection"}

# Computed bytes per kernel term: the numpy path materialises the index
# range, the shifted bases and their powers, each 8 bytes per term.
KERNEL_ARRAYS = 3


def _hook_polygamma(args, out, exc, token):
    return None if exc else (out.method, out.shift_count)


def _hook_terms(args, out, exc, token):
    return args[2] if len(args) > 2 else None


def _pre_expansion(fn):
    return lambda args: fn.cache_info().misses


def _hook_expansion(fn):
    def hook(args, out, exc, token):
        if exc or fn.cache_info().misses == token:
            return None
        return sum(b.bit_length() for _, b in out.harmonics)
    return hook


def _hook_probe(args, out, exc, token):
    family = args[0].family.split("-")[0]
    if exc:
        return (family, None, None)
    return (family, len(out.samples), bool(out.converged))


def _hook_check(args, out, exc, token):
    return None if exc else (out.name, bool(out.passed))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.attrs: dict[int, object] = {}
        self.stack = [-1]

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None, pre=None):
        nid = self._nid(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sn, st, en, pa, stack = tracer.span_name, tracer.start, tracer.end, tracer.parent, tracer.stack
            idx = len(sn)
            sn.append(nid)
            pa.append(stack[-1])
            st.append(0)
            en.append(0)
            stack.append(idx)
            token = pre(args) if pre else None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                st[idx], en[idx] = t0, t1
                if hook:
                    tracer.attrs[idx] = hook(args, None, exc, token)
                raise
            t1 = clock()
            stack.pop()
            st[idx], en[idx] = t0, t1
            if hook:
                tracer.attrs[idx] = hook(args, out, None, token)
            return out

        return wrapper

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded polylim modules."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "polylim" or name.startswith("polylim.")}
        pg, cd = mods["polylim.polygamma"], mods["polylim.cotderiv"]
        lm, vf, kn = mods["polylim.limits"], mods["polylim.verify"], mods["polylim._kernels"]
        targets = [
            (pg.polygamma, "polygamma", _hook_polygamma, None),
            (pg.polygamma_series_oracle, "series_oracle", None, None),
            (pg.reflection_residual, "reflection_residual", None, None),
            (kn.shifted_power_sum, "power_sum", _hook_terms, None),
            (cd.eval_cot_deriv, "eval_cot", None, None),
            (cd.eval_cot_deriv_pi, "eval_cot", None, None),
            (cd.expansion, "expansion", _hook_expansion(cd.expansion), _pre_expansion(cd.expansion)),
            (cd.coeff, "coeff", None, None),
            (cd.coeff_unified, "coeff", None, None),
            (cd.oracle_expansion, "oracle", None, None),
            (cd.harmonics_from_polynomial, "oracle", None, None),
            (lm.probe_limit, "probe", _hook_probe, None),
            (lm.gamma_ratio_limit, "exact_limit", None, None),
            (lm.polygamma_ratio_limit, "exact_limit", None, None),
            (vf.coeffs_suite, "suite.coeffs", None, None),
            (vf.reflection_suite, "suite.reflection", None, None),
            (vf.limits_suite, "suite.limits", None, None),
        ]
        targets += [
            (fn, "check", _hook_check, None)
            for name, fn in sorted(vars(vf).items())
            if name.startswith("_check_") and callable(fn)
        ]
        for fn, name, hook, pre in targets:
            wrapper = self.wrap(fn, name, hook, pre)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)

    def accumulate(self) -> dict:
        """Per-layer accumulators: means as [sum_ns, n], counts as totals."""
        mean = defaultdict(lambda: [0, 0])
        count = defaultdict(int)
        names, sn, st, en, pa = self.names, self.span_name, self.start, self.end, self.parent
        child_ns = defaultdict(int)
        for idx in range(len(sn)):
            if pa[idx] >= 0:
                child_ns[pa[idx]] += en[idx] - st[idx]

        def add(key, dur):
            slot = mean[key]
            slot[0] += dur
            slot[1] += 1

        for idx in range(len(sn)):
            name = names[sn[idx]]
            dur = en[idx] - st[idx]
            attr = self.attrs.get(idx)
            if name == "polygamma":
                if attr:
                    region = REGIONS.get(attr[0], attr[0])
                    add(f"polygamma.call_us.{region}", dur)
                    count[f"polygamma.calls.{region}"] += 1
                    count["polygamma.shift_steps"] += attr[1]
            elif name == "series_oracle":
                add("polygamma.series_oracle_ms", dur)
            elif name == "reflection_residual":
                add("polygamma.reflection_residual_us", dur)
            elif name == "power_sum":
                add("kernels.power_sum_s", dur)
                terms = attr or 0
                count["kernels.terms"] += terms
                count["kernels.bytes_computed"] += terms * 8 * KERNEL_ARRAYS
            elif name == "eval_cot":
                add("cotderiv.eval_us", dur)
            elif name == "expansion":
                if attr is not None:
                    add("cotderiv.expansion_s", dur)
                    count["cotderiv.expansion_calls"] += 1
                    count["cotderiv.coeff_bits"] += attr
            elif name == "coeff":
                add("cotderiv.coeff_us", dur)
            elif name == "oracle":
                add("cotderiv.oracle_ms", dur)
            elif name == "probe":
                family, samples, converged = attr
                add(f"limits.probe_us.{family}", dur)
                add("limits.self_us", dur - child_ns[idx])
                if samples is None:
                    count["limits.probe_failures"] += 1
                else:
                    count["limits.samples"] += samples
                    count["limits.probes_completed"] += 1
                    count["limits.probes_converged"] += converged
            elif name == "exact_limit":
                add("limits.exact_us", dur)
            elif name.startswith("suite."):
                add(f"verify.suite_s.{name[6:]}", dur)
            elif name == "check" and attr:
                add(f"verify.check_ms.{attr[0]}", dur)
                count["verify.checks_passed"] += attr[1]
        return {"mean": dict(mean), "count": dict(count)}

    def dump(self, path: str) -> None:
        """One JSON header line (span names, span count), then the name ids
        (int32), starts and ends (int64 ns) and parent indices (int32, -1 for
        a root) as raw native-endian arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.span_name),
                      "arrays": ["name:i4", "start_ns:i8", "end_ns:i8", "parent:i4"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.start, self.end, self.parent):
                arr.tofile(handle)


def merge(into: dict, acc: dict) -> dict:
    for key, (total, n) in acc.get("mean", {}).items():
        slot = into.setdefault("mean", {}).setdefault(key, [0, 0])
        slot[0] += total
        slot[1] += n
    for key, total in acc.get("count", {}).items():
        counts = into.setdefault("count", {})
        counts[key] = counts.get(key, 0) + total
    return into
