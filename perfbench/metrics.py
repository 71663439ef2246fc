"""Metric names and units, order statistics, and the environment record.

Standard library only: `run.py` and `steady.py` import this without NumPy.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path

# End-to-end metrics, from runs with tracing off; `BENCHMARK.json` lists the
# same names.  `fail_frac` is reported beside them (and as `failed` /
# `attempted` in the result line) but is not a bounded metric, because it is
# 0 on most workloads.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "task_p50_ms": ("ms", "lower"),
    "task_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics every traced run reports in its result line.  Unit costs
# come from the fixed probe set (`probes.py`), counts from the spans of the
# workload's own traced pass; `results/*.json` holds the rest.
PER_LAYER = {
    "cli.interp_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "transfer.apply.ms_per_call.M1024": ("ms", "lower"),
    "transfer.apply.ms_per_call.M2048": ("ms", "lower"),
    "transfer.apply.ms_per_call.M8192": ("ms", "lower"),
    "measure.density_function.ms": ("ms", "lower"),
    "measure.gn_sample.ns_per_sample": ("ns", "lower"),
    "rscc.contraction.s.k2": ("s", "lower"),
    "rscc.contraction.s.k3": ("s", "lower"),
    "rscc.simulate_paths.path_steps_per_s": ("1/s", "higher"),
    "rscc.shifted_path.s": ("s", "lower"),
    "rscc.q_kernel_interval.us": ("us", "lower"),
    "rscc.q_kernel_bruteforce.ms": ("ms", "lower"),
    "core.digits_rational.us_per_digit": ("us", "lower"),
    "core.evaluate.us": ("us", "lower"),
    "transfer.apply.calls": ("count", "lower"),
    "transfer.apply.branch_evals": ("count", "lower"),
    "gausskuzmin.applies_per_experiment": ("count", "lower"),
    "rscc.contraction.words": ("count", "lower"),
    "measure.density_function.calls": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.ncf_frac": ("frac", "higher"),
    "trace.bench_frac": ("frac", "lower"),
}

TAIL_BEYOND = 10


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail(samples: list) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic with
    at least TAIL_BEYOND samples above it; below 2 * TAIL_BEYOND samples no
    percentile above the median qualifies, so the median is reported."""
    s = sorted(samples)
    n = len(s)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(s), 50.0, n // 2
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def quartile_spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit(root: Path) -> str:
    head = _read(root / ".git" / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(root / ".git" / ref)
    if commit:
        return commit
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(root: Path, seed: int, trace: bool, versions: dict) -> dict:
    cpu = "unknown"
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_sizes": caches,
        "platform": platform.platform(),
        **versions,
        "git_commit": _git_commit(root),
        "seed": seed,
        "trace": trace,
    }
