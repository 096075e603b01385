"""Seeded input generation for the three workloads.

polylim never sees the seed, only the arguments generated here.  Mixes are
stratified (fixed counts per block, shuffled inside the block) so that the
op mix, and with it the latency percentiles, does not drift from seed to
seed; the seed picks the arguments and their order.
"""
from __future__ import annotations

import math
import random

# eval-mix: a block of 100 ops.  79% polygamma split over the three
# regions, 8% cotangent derivatives, 13% probes.  Polygamma-family probes
# (11%) are the slowest ops, so op_p90_ms falls inside their latencies
# rather than on the edge between two kinds of op; polygamma calls set
# op_p50_ms.
EVAL_BLOCK = (
    ("pg_asymptotic", 27),
    ("pg_shifted", 26),
    ("pg_reflection", 26),
    ("cot", 4),
    ("cot_pi", 4),
    ("probe_polygamma", 11),
    ("probe_gamma", 2),
)
EVAL_POOL = {
    "pg_asymptotic": 300,
    "pg_shifted": 300,
    "pg_reflection": 300,
    "cot": 60,
    "cot_pi": 60,
    "probe_polygamma": 60,
    "probe_gamma": 60,
}
EVAL_SCHEDULE_BLOCKS = 200
MAX_PG_ORDER = 20
MAX_COT_ORDER = 40
# Reflection-region and cotangent arguments keep this distance from poles.
POLE_MARGIN = 0.02

# exact-tables: every cycle builds every table 1..P_MAX from cold caches.
P_MAX = 220
ORACLE_MAX_ORDER = 30
ORACLE_EVERY = 16
GAMMA_MAX_K = 300

# cli-session: a block of 35 calls, shuffled: 4 small calls of each kind
# and 7 verify runs (20%).  The 5 that run the series-oracle kernel
# (`reflection` and `all`, 14%) are the slowest calls.  The 3 reflection
# runs fill the 86th to 94th percentiles, so op_p90_ms reads the middle of
# the reflection runs rather than the small calls or the edge between two
# kinds of call.
CLI_SMALL_KINDS = (
    "limit_gamma",
    "limit_polygamma",
    "probe_gamma",
    "probe_polygamma",
    "polygamma",
    "eval_cot",
    "coeffs",
)
CLI_SMALL_PER_KIND = 4
CLI_SUITES = ("coeffs", "limits", "reflection", "reflection", "reflection", "all", "all")
CLI_MAX_COEFF_ORDER = 60
CLI_BLOCKS = 40


def _off_pole(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        x = rng.uniform(lo, hi)
        if abs(x - round(x)) >= POLE_MARGIN:
            return x


def _frac_point(rng: random.Random, lo_int: int, hi_int: int) -> float:
    return rng.randint(lo_int, hi_int) + rng.uniform(POLE_MARGIN, 1.0 - POLE_MARGIN)


def _probe_args(rng: random.Random, family: str) -> list:
    i = rng.randint(0, 5) if family == "polygamma" else 0
    return [family, rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 6), i]


def eval_mix(seed: int, pool_scale: float = 1.0, blocks: int = EVAL_SCHEDULE_BLOCKS):
    """Returns (pool, schedule, edges).

    pool: list of [kind, args] ops; schedule: pool indices to cycle through;
    edges: documented-domain edge inputs, run once outside the timed stream.
    """
    rng = random.Random(f"eval-mix/{seed}")
    pool, by_slot = [], {}
    for slot, size in EVAL_POOL.items():
        by_slot[slot] = []
        for _ in range(max(2, int(size * pool_scale))):
            if slot == "pg_asymptotic":
                op = ["polygamma", [rng.randint(0, MAX_PG_ORDER), rng.uniform(10.0, 60.0)]]
            elif slot == "pg_shifted":
                op = ["polygamma", [rng.randint(0, MAX_PG_ORDER), rng.uniform(0.5, 10.0)]]
            elif slot == "pg_reflection":
                op = ["polygamma", [rng.randint(0, MAX_PG_ORDER), _off_pole(rng, -20.0, 0.5)]]
            elif slot == "cot":
                x = math.pi * _frac_point(rng, -3, 3)
                op = ["eval_cot_deriv", [rng.randint(0, MAX_COT_ORDER), x]]
            elif slot == "cot_pi":
                op = ["eval_cot_deriv_pi", [rng.randint(0, MAX_COT_ORDER), _frac_point(rng, -3, 3)]]
            else:
                op = ["probe", _probe_args(rng, slot.split("_")[1])]
            by_slot[slot].append(len(pool))
            pool.append(op)
    schedule = []
    for _ in range(blocks):
        block = [rng.choice(by_slot[slot]) for slot, count in EVAL_BLOCK for _ in range(count)]
        rng.shuffle(block)
        schedule.extend(block)
    return pool, schedule, edge_inputs(rng)


def edge_inputs(rng: random.Random) -> list:
    """ROADMAP item 4 territory: orders up to 170, |x| up to 1e300, x within
    1e-11..1e-9 of a pole, gamma probes with large n*k."""
    def near_pole_offset():
        return 10.0 ** rng.uniform(-11.0, -9.0)

    edges = []
    for _ in range(4):
        k = rng.randint(1, 10)
        edges.append(["polygamma", [rng.randint(40, 170), -k + near_pole_offset()]])
    for _ in range(2):
        edges.append(["eval_cot_deriv", [rng.randint(40, 170), near_pole_offset()]])
        edges.append(["eval_cot_deriv_pi", [rng.randint(40, 170), rng.randint(-5, 5) + near_pole_offset()]])
    for _ in range(4):
        edges.append(["polygamma", [rng.randint(2, 10), 10.0 ** rng.uniform(250.0, 300.0)]])
    for _ in range(2):
        edges.append(["polygamma", [rng.randint(150, 170), rng.uniform(0.5, 0.7)]])
        edges.append(["polygamma", [rng.randint(150, 170), rng.uniform(100.0, 1000.0)]])
    for _ in range(4):
        edges.append(["probe", ["gamma", rng.randint(5, 9), 1, rng.randint(20, 30), 0]])
    return edges


def _harmonic(rng: random.Random, p_max: int, unified: bool) -> list:
    p = rng.randint(2 if unified else 1, p_max)
    lo = 1 if p % 2 == 0 else (2 if unified else 0)
    return [p, rng.randrange(lo, p, 2)]


def exact_cycle(seed: int, cycle: int, p_max: int = P_MAX) -> list:
    """One cold-cache cycle: expansion(p) for every p in 1..p_max in seeded
    order, each interleaved with point requests and exact limits."""
    rng = random.Random(f"exact-tables/{seed}/{cycle}")
    orders = list(range(1, p_max + 1))
    rng.shuffle(orders)
    ops = []
    for n_group, p in enumerate(orders, start=1):
        group = [
            ["expansion", [p]],
            ["coeff", _harmonic(rng, p_max, False)],
            ["coeff_unified", _harmonic(rng, p_max, True)],
            ["coeff", _harmonic(rng, p_max, False)],
            ["gamma_ratio_limit", [rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, GAMMA_MAX_K)]],
            ["polygamma_ratio_limit", [rng.randint(0, 5), rng.randint(1, 6), rng.randint(1, 6)]],
        ]
        if n_group % ORACLE_EVERY == 0:
            group.append(["oracle_route", [rng.randint(1, min(ORACLE_MAX_ORDER, p_max))]])
        rng.shuffle(group)
        ops.extend(group)
    return ops


def _fmt(rng: random.Random) -> list:
    return ["--format", rng.choice(("csv", "json"))]


def _cli_small(rng: random.Random, kind: str) -> list:
    if kind in ("limit_gamma", "probe_gamma"):
        argv = ["limit", "--family", "gamma", "--n", str(rng.randint(1, 6)),
                "--q", str(rng.randint(1, 6)), "--k", str(rng.randint(0, 6))]
    elif kind in ("limit_polygamma", "probe_polygamma"):
        argv = ["limit", "--family", "polygamma", "--i", str(rng.randint(0, 5)),
                "--n", str(rng.randint(1, 6)), "--q", str(rng.randint(1, 6)),
                "--k", str(rng.randint(0, 6))]
    elif kind == "polygamma":
        lo, hi = rng.choice(((10.0, 60.0), (0.5, 10.0), (-20.0, 0.5)))
        x = _off_pole(rng, lo, hi) if hi <= 0.5 else rng.uniform(lo, hi)
        argv = ["polygamma", "--order", str(rng.randint(0, MAX_PG_ORDER)), "--x", repr(x)]
    elif kind == "eval_cot":
        x = math.pi * _frac_point(rng, 0, 3)
        argv = ["eval-cot", "--order", str(rng.randint(0, MAX_COT_ORDER)), "--x", repr(x)]
    else:
        argv = ["coeffs", "--order", str(rng.randint(1, CLI_MAX_COEFF_ORDER))]
    if kind.startswith("probe"):
        argv.append("--probe")
    return argv + _fmt(rng)


def cli_blocks(seed: int) -> list:
    """Blocks of argv lists for `python -m polylim`, in call order."""
    rng = random.Random(f"cli-session/{seed}")
    blocks = []
    for _ in range(CLI_BLOCKS):
        block = [_cli_small(rng, kind) for kind in CLI_SMALL_KINDS for _ in range(CLI_SMALL_PER_KIND)]
        block += [["verify", "--suite", suite] for suite in CLI_SUITES]
        rng.shuffle(block)
        blocks.append(block)
    return blocks
