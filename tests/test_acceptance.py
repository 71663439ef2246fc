"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single pass/fail line; run with `pytest -s` (or read the
captured output) to see the summary lines.
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
from scipy import integrate

from ncf import (
    GaussMeasure,
    GridFunction,
    NcfParams,
    apply_transfer,
    contraction_coefficients,
    core,
    digits,
    evaluate,
    fixed_point,
    gn_cdf,
    integrate_against,
    lebesgue_measure,
    lipschitz_norm,
    make_mealy_rscc,
    make_ncf_rscc,
    q_cesaro,
    q_kernel_interval,
    run_experiment,
    tilted_measure,
)
from ncf.rscc import q_kernel_interval_bruteforce, shifted_path_probability


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_roundtrip_exactness():
    t0 = time.perf_counter()
    rnd = random.Random(20240824)
    points = []
    while len(points) < 1000:
        q = rnd.randrange(2, 1001)
        p = rnd.randrange(1, q + 1)
        points.append(Fraction(p, q))
    bad = 0
    for n in (1, 2, 3, 5, 10):
        params = NcfParams(n)
        for x in points:
            seq = digits(x, params, 100_000)
            if not seq.terminated or evaluate(seq, params) != x:
                bad += 1
    elapsed = time.perf_counter() - t0
    _report(1, bad == 0 and elapsed < 10.0,
            f"5000 rational roundtrips, {bad} mismatches, {elapsed:.1f}s")


def test_criterion_02_measure_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5):
        params = NcfParams(n)
        gm = GaussMeasure(params)
        sys_ = make_ncf_rscc(params)
        for u in np.linspace(1.0 / 64, 1.0, 64):
            u = float(u)
            brk = n / u - math.floor(n / u)
            pts = [brk] if 0.0 < brk < 1.0 else None
            val, _ = integrate.quad(
                lambda x: q_kernel_interval(sys_, float(x), u) * gm.density(x),
                0.0, 1.0, points=pts, limit=200, epsabs=1e-12)
            worst = max(worst, abs(val - (gn_cdf(u, gm) - gn_cdf(0.0, gm))))
    elapsed = time.perf_counter() - t0
    _report(2, worst < 1e-8 and elapsed < 30.0,
            f"kernel-integral invariance, max error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_kernel_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 5):
        sys_ = make_ncf_rscc(NcfParams(n))
        for x in np.linspace(0.0, 1.0, 128):
            for u in np.linspace(1.0 / 64, 1.0, 64):
                a = q_kernel_interval(sys_, float(x), float(u))
                b = q_kernel_interval_bruteforce(sys_, float(x), float(u),
                                                 i_max=2000)
                worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    _report(3, worst < 1e-12 and elapsed < 5.0,
            f"closed form vs branch sum on 128x64 grid, max {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_transfer_fixed_point_and_adjoint():
    t0 = time.perf_counter()
    unit_worst = 0.0
    for n in (1, 2, 5):
        out = apply_transfer(GridFunction.constant(1.0, 8192), NcfParams(n))
        unit_worst = max(unit_worst, float(np.max(np.abs(out.values - 1.0))))
    rng = np.random.default_rng(2024)
    x = np.linspace(0.0, 1.0, 8193)
    adjoint_worst = 0.0
    cases = [(1, 1000), (2, 1000), (5, 4000)]
    for j in range(20):
        n, i_max = cases[j % 3]
        params = NcfParams(n)
        gm = GaussMeasure(params)
        c = rng.normal(size=4)
        v = c[0] + c[1] * x + c[2] * x ** 2 + c[3] * np.sin(3 * x)
        f = GridFunction(v / lipschitz_norm(GridFunction(v)).total)
        gap = abs(integrate_against(apply_transfer(f, params, i_max=i_max), gm)
                  - integrate_against(f, gm))
        adjoint_worst = max(adjoint_worst, gap)
    elapsed = time.perf_counter() - t0
    _report(4, unit_worst <= 1e-14 and adjoint_worst < 1e-8 and elapsed < 2.0,
            f"unit fixed point {unit_worst:.2e}, adjoint gap {adjoint_worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_05_limit_distribution():
    t0 = time.perf_counter()
    sup_final = {}
    for n in (1, 2, 5):
        rep = run_experiment(lebesgue_measure(), NcfParams(n), n_max=40,
                             m=1024, rng=np.random.default_rng(0))
        sup_final[n] = rep.sup_errors[-1]
    xs = np.linspace(0.0, 1.0, 1001)
    classical = np.max(np.abs(gn_cdf(xs, GaussMeasure(NcfParams(1))) - np.log2(1 + xs)))
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-6 for e in sup_final.values()) and classical < 1e-12
    _report(5, ok and elapsed < 3.0,
            "sup error at n=40: "
            + ", ".join(f"N={n}: {e:.2e}" for n, e in sup_final.items())
            + f"; classical-law gap {classical:.2e}; {elapsed:.1f}s")


def test_criterion_06_geometric_rate():
    t0 = time.perf_counter()
    fits = {}
    for n, mu_name, mu in ((1, "uniform", lebesgue_measure()),
                           (2, "uniform", lebesgue_measure()),
                           (5, "uniform", lebesgue_measure()),
                           (1, "tilted", tilted_measure()),
                           (2, "tilted", tilted_measure())):
        rep = run_experiment(mu, NcfParams(n), n_max=40, m=1024,
                             rng=np.random.default_rng(0))
        fits[(n, mu_name)] = (rep.q_fit, max(abs(r) for r in rep.fit_residuals))
    ok = all(q is not None and 0.0 < q < 1.0 and res < 0.5
             for q, res in fits.values())
    q_classical = fits[(1, "uniform")][0]
    ok = ok and 0.25 < q_classical < 0.40
    elapsed = time.perf_counter() - t0
    _report(6, ok and elapsed < 6.0,
            f"q_fit in (0,1) for {len(fits)} cases, N=1 uniform q={q_classical:.4f}, "
            f"max residual {max(r for _, r in fits.values()):.3f}, {elapsed:.1f}s")


def test_criterion_07_contraction_certified():
    t0 = time.perf_counter()
    r1s = {}
    ok = True
    for n in range(1, 11):
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(n)))
        r1s[n] = rep.r_values[0]
        ok = ok and rep.certified and rep.r_values[0] < 1.0
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 15.0,
            f"certified for N=1..10, max r_1 {max(r1s.values()):.3f}, {elapsed:.1f}s")


def test_criterion_08_regularity_witness():
    t0 = time.perf_counter()
    ok = True
    worst_final = 0.0
    worst_ratio_gap = 0.0
    starts = [0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 1.0]
    for n in (1, 2, 5, 10):
        _, ratio_limit, orbits = core.lowest_branch_orbits(NcfParams(n), starts, 200)
        for curve in (np.fromiter(o, float, 200) for o in orbits):
            worst_final = max(worst_final, curve[-1])
            ok = ok and curve[-1] < 1e-12
            # the per-step ratio approaches the limit linearly in the distance
            # itself, so read it where the orbit is close but still well above
            # the rounding floor
            live = np.nonzero(curve > 1e-8)[0]
            if live.size > 2:
                j = int(live[-1])
                gap = abs(curve[j] / curve[j - 1] - ratio_limit)
                worst_ratio_gap = max(worst_ratio_gap, gap)
                ok = ok and gap < 1e-6
    elapsed = time.perf_counter() - t0
    _report(8, ok,
            f"orbit distance at n=200 max {worst_final:.2e}, ratio gap "
            f"{worst_ratio_gap:.2e}, {elapsed:.1f}s")


def test_criterion_09_mealy_exactness():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for alpha, beta in itertools.product((0.3, 0.6), (0.2, 0.9)):
        kernel = core.mealy_kernel(alpha, beta)
        ok = ok and np.array_equal(
            np.array(kernel), np.array([[alpha, 1 - alpha], [beta, 1 - beta]]))
        # Chapman-Kolmogorov as an exact identity over rationals
        k1 = core.mealy_kernel(Fraction(alpha), Fraction(beta))

        def matmul(a, b):
            return [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
                    for i in range(2)]

        powers = [k1]
        for _ in range(9):
            powers.append(matmul(powers[-1], k1))
        for i in range(1, 10):
            for j in range(1, 10 - i + 1):
                ok = ok and matmul(powers[i - 1], powers[j - 1]) == powers[i + j - 1]
        sys_ = make_mealy_rscc(alpha, beta)
        pi = core.mealy_cesaro(kernel, math.inf)[0]
        for s in (1.0, 2.0):
            for target, want in (([1.0], pi[0]), ([2.0], pi[1])):
                gap = abs(q_cesaro(sys_, 10**10, s, target) - want)
                worst = max(worst, gap)
                ok = ok and gap <= 1e-10
    elapsed = time.perf_counter() - t0
    _report(9, ok,
            f"exact kernel and Chapman-Kolmogorov, Cesaro gap {worst:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_10_stationary_event_law():
    t0 = time.perf_counter()
    quad_worst = 0.0
    for n in (1, 2, 5):
        params = NcfParams(n)
        gm = GaussMeasure(params)
        for i in range(n, n + 21):
            val, _ = integrate.quad(
                lambda x: (x + n) / ((x + i) * (x + i + 1)) * gm.density(x),
                0.0, 1.0, epsabs=1e-13)
            quad_worst = max(quad_worst, abs(val - core.digit_probability(i, gm.params)))
    sys_ = make_ncf_rscc(NcfParams(1))
    gm1 = GaussMeasure(NcfParams(1))
    rng = np.random.default_rng(20240824)
    mc_ok = True
    for i in (1, 2, 3):
        est = shifted_path_probability(sys_, 0.5, 30, 1, [(i,)],
                                       n_paths=100_000, rng=rng)
        mc_ok = mc_ok and abs(est.value - core.digit_probability(i, gm1.params)) <= 4 * est.se
    elapsed = time.perf_counter() - t0
    _report(10, quad_worst < 1e-10 and mc_ok,
            f"event-law quadrature max {quad_worst:.2e}, Monte Carlo within "
            f"4 SE, {elapsed:.1f}s")


def test_criterion_11_cli_determinism():
    t0 = time.perf_counter()
    commands = [
        ["expand", "--x", "3/7", "--n", "2"],
        ["eval", "--digits", "4,3", "--n", "2"],
        ["digit-law", "--n", "2", "--grid", "10"],
        ["invariance", "--n", "1", "--grid", "8"],
        ["transfer", "--n", "1", "--grid", "256", "--nmax", "5"],
        ["gap", "--n", "1", "--grid", "512", "--nmax", "15"],
        ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", "42"],
        ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6"],
        ["rscc-mealy", "--alpha", "0.3", "--beta", "0.6", "--dot"],
        ["contraction", "--n", "1", "--grid", "128", "--seed", "7"],
        ["regularity", "--n", "2", "--nmax", "100"],
    ]
    ok = True
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "ncf.cli"] + argv,
                               capture_output=True) for _ in range(2)]
        same = (runs[0].returncode == runs[1].returncode == 0
                and runs[0].stdout == runs[1].stdout)
        ok = ok and same
    elapsed = time.perf_counter() - t0
    _report(11, ok,
            f"{len(commands)} commands byte-identical across reruns, {elapsed:.1f}s")
