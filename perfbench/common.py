"""Shared plumbing: checkout paths, the pinned child environment, the
environment record, quantiles and the parent side of the worker protocol."""
from __future__ import annotations

import importlib.util
import json
import os
import platform
import subprocess
import sys
import threading
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(BENCH_DIR, "worker.py")

# Variables that change what polylim computes; the benchmark measures the
# defaults, so they are removed for the benchmark and every child.
PINNED_UNSET = ("POLYLIM_BACKEND", "POLYLIM_PRECISION_TERMS")

# A worker that has not finished within this many seconds is killed.
WORKER_TIMEOUT_S = 120.0


def require_checkout() -> None:
    """Exit non-zero unless the polylim sources sit next to the benchmark."""
    if not os.path.isfile(os.path.join(SRC, "polylim", "__init__.py")):
        print(f"perfbench: no polylim sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in PINNED_UNSET}
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHOME", None)
    return env


def pin_environment() -> None:
    for name in PINNED_UNSET:
        os.environ.pop(name, None)


def environment_record() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy": version("numpy"),
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "git_revision": rev,
        "pinned_unset": list(PINNED_UNSET),
    }


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolated quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(sorted(values), 0.5)


class Worker:
    """A fresh interpreter running worker.py; setup_s is spawn-to-READY."""

    def __init__(self, mode: str, job: dict):
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, mode],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
        )
        self._watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.proc.stdin.write(json.dumps(job).encode() + b"\n")
        self.proc.stdin.flush()

    def _line(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker exited early with code {self.proc.returncode}")
        return line

    def wait_ready(self) -> float:
        if self._line().strip() != b"READY":
            self.close()
            raise RuntimeError("worker protocol error: expected READY")
        return time.perf_counter() - self.spawned

    def result(self) -> dict:
        payload = json.loads(self._line())
        self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker failed with code {self.proc.returncode}")
        return payload

    def close(self) -> None:
        self._watchdog.cancel()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_worker(mode: str, job: dict) -> tuple[float, dict]:
    worker = Worker(mode, job)
    try:
        setup = worker.wait_ready()
        return setup, worker.result()
    finally:
        if worker.proc.poll() is None:
            worker.proc.kill()
            worker.proc.wait()
