"""Clocks, percentiles, rounds and the result line shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Run results, traces and generated model stores (listed in .gitignore).
OUT = HERE / "out"

#: Caps of the benchmark suite (benchmarks/conftest.py): 400 rows, 24
#: features, T = 10 UADB iterations.
MAX_SAMPLES = 400
MAX_FEATURES = 24
N_ITERATIONS = 10


def process_age_s() -> float:
    """Seconds since this process started, from ``/proc`` (0.0 without it).

    The start time has clock-tick resolution (usually 10 ms); it lets
    ``setup_s`` include interpreter start-up, which every user pays.
    """
    try:
        with open("/proc/self/stat") as fh:
            # Fields after the parenthesised command name start at field 3;
            # field 22 is the start time in clock ticks since boot.
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


class SetupClock:
    """Times one cold set-up, from the process's start to :meth:`stop`.

    ``t0`` is the earliest ``perf_counter`` reading the caller took.
    """

    def __init__(self, t0: float | None = None):
        now = time.perf_counter()
        self._t0 = now if t0 is None else t0
        self._age_at_t0 = process_age_s() - (now - self._t0)
        self.seconds = None

    def stop(self) -> float:
        self.seconds = self._age_at_t0 + (time.perf_counter() - self._t0)
        return self.seconds


def run_rounds(seconds: float, round_fn) -> list:
    """Run ``round_fn(index)`` back to back and return each round's time.

    The first round always runs; another starts only while the last one's
    duration says it would end within ``seconds``, so a run measures whole
    rounds for at most about ``seconds``.
    """
    durations = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        round_fn(len(durations))
        durations.append(time.perf_counter() - t)
        if time.perf_counter() - start + durations[-1] > seconds:
            return durations


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, q: float) -> float:
    """The ``q`` quantile by nearest rank."""
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(q * len(ordered))) - 1])


#: Samples a p99 needs: ten of them then lie beyond it.
P99_MIN_SAMPLES = 1000


def p99_or_median(values) -> float:
    """p99 when at least ten samples lie beyond it, else the median.

    A sample too small to hold a tail supports the median alone.
    """
    if len(values) >= P99_MIN_SAMPLES:
        return nearest_rank(values, 0.99)
    return median(values)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, 0.0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The last line of a run: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


class Checks:
    """Collects correctness failures; a run is correct when none occur."""

    def __init__(self):
        self.failures: list = []

    def require(self, ok, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return bool(ok)

    @property
    def ok(self) -> bool:
        return not self.failures
