"""Unit costs of single layers, timed by a fixed probe set in every traced run.

Each probe calls one public function on a fixed-size input generated from
the seed, REPEATS times, and reports the median, so the figures are the
same kind of number on every workload.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from time import perf_counter

from .metrics import metric
from .workloads import seeded_rationals

REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _child_ms(code: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter running `code`, or, when the
    code prints a number, the median of those in-process seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True).stdout.strip()
        times.append(float(out) if out else perf_counter() - t0)
    return 1e3 * statistics.median(times)


def run_probes(seed: int) -> dict:
    import numpy as np
    from ncf import core, measure, rscc, transfer

    out = {
        "cli.interp_ms": metric(_child_ms("pass", 5), "ms"),
        "cli.import_ms": metric(_child_ms(
            "import time; t = time.perf_counter(); import ncf.cli; "
            "print(time.perf_counter() - t)", REPEATS), "ms"),
    }
    rng = np.random.default_rng([seed, 99])
    params1 = core.NcfParams(1)
    for m in (1024, 2048, 8192):
        x = np.linspace(0.0, 1.0, m + 1)
        f = transfer.GridFunction(x + 0.1 * rng.normal() * np.sin(3.0 * x))
        out[f"transfer.apply.ms_per_call.M{m}"] = metric(
            1e3 * _median_time(lambda: transfer.apply_transfer(f, params1)), "ms")

    out["measure.density_function.ms"] = metric(1e3 * _median_time(
        lambda: measure.DensityFunction(lambda t: (1.0 + t / 2.0) / 1.25), 5), "ms")
    gm = measure.GaussMeasure(params1)
    out["measure.gn_sample.ns_per_sample"] = metric(1e9 * _median_time(
        lambda: measure.gn_sample(gm, rng, 1_000_000)) / 1_000_000, "ns")

    sys1 = rscc.make_ncf_rscc(params1)
    for k in (2, 3):
        out[f"rscc.contraction.s.k{k}"] = metric(_median_time(
            lambda: rscc.contraction_coefficients(sys1, k_max=k, rng=np.random.default_rng(seed))), "s")
    steps, paths = 30, 100_000
    out["rscc.simulate_paths.path_steps_per_s"] = metric(steps * paths / _median_time(
        lambda: rscc.simulate_paths(sys1, 0.5, steps, paths, rng=rng)), "1/s")
    out["rscc.shifted_path.s"] = metric(_median_time(
        lambda: rscc.shifted_path_probability(sys1, 0.5, steps, 1, [(1,)], n_paths=paths, rng=rng)), "s")
    points = [(float(a), float(b)) for a, b in
              zip(rng.uniform(0.0, 1.0, 2000), rng.uniform(1.0 / 64, 1.0, 2000))]

    def closed():
        for x, u in points:
            rscc.q_kernel_interval(sys1, x, u)

    def brute():
        for x, u in points[:50]:
            rscc.q_kernel_interval_bruteforce(sys1, x, u, i_max=2000)

    out["rscc.q_kernel_interval.us"] = metric(1e6 * _median_time(closed) / len(points), "us")
    out["rscc.q_kernel_bruteforce.ms"] = metric(1e3 * _median_time(brute) / 50, "ms")

    xs = seeded_rationals(random.Random(seed), 300)
    seqs = [core.digits(x, params1, 100_000) for x in xs]
    n_digits = sum(len(s) for s in seqs)
    out["core.digits_rational.us_per_digit"] = metric(1e6 * _median_time(
        lambda: [core.digits(x, params1, 100_000) for x in xs]) / n_digits, "us")
    out["core.evaluate.us"] = metric(1e6 * _median_time(
        lambda: [core.evaluate(s, params1) for s in seqs]) / len(seqs), "us")
    return out
