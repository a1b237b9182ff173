"""Summary statistics and run metadata for the benchmark.

Percentiles follow the choosing-metrics rule: a tail percentile is only
reported when at least ``MIN_BEYOND`` samples lie beyond it, so a p95
needs 200 samples.  A failed or refused request is passed in as
``math.inf``: it misses every latency limit and sits in the tail.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import time
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too small a sample."""


def min_samples(pct: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples beyond ``pct``."""
    return math.ceil(MIN_BEYOND / (1.0 - pct / 100.0) - 1e-9)


def percentile(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``.

    Raises :class:`TooFewSamples` for a tail percentile (above the
    median) with fewer than ``MIN_BEYOND`` samples beyond it.  Infinite
    values (failed requests) sort last, so a tail that reaches one reads
    as infinite.
    """
    if not values:
        raise TooFewSamples("no samples")
    if pct > 50 and len(values) < min_samples(pct):
        raise TooFewSamples(
            f"p{pct:g} needs at least {min_samples(pct)} samples "
            f"({MIN_BEYOND} beyond it), got {len(values)}"
        )
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def calibration_score(loops: int = 300_000) -> float:
    """Iterations per microsecond of a fixed pure-Python loop (best of 3).

    Recorded beside every run so a reader can tell a slower machine from
    a slower program; metrics are never divided by it.
    """
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(loops):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return loops / (best * 1e6)


def git_sha(root: str) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata(root: str) -> Dict[str, object]:
    """Machine and checkout facts recorded with every run."""
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "calibration_iter_per_us": round(calibration_score(), 3),
    }
