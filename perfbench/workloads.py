"""The benchmark's workloads: fixed task lists generated from a seed.

A task is one user-level call into `ncf` (or, in `cli-mix`, one `ncf.cli`
process).  `build` does all input generation, so a task only calls the
program; each task's `check` compares the returned value with an
independent reference from `refs` after the pass, outside the timed region.
The seed changes input values only, never how much work a pass does, so
runs with different seeds measure the same amount of work.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import refs

WORKLOADS = ("gk-iterate", "oneshot-fine", "cli-mix", "exact-mc")

# Failures the program is known to produce at the commit that added them.
# They stay in the workloads and count in `failed` until they are fixed.
KNOWN_DEFECTS = {
    "edge-expand-subnormal": "expand --x 1e-320 exits 1 with an OverflowError traceback",
    "edge-eval-low-digit": "eval --digits 1 --n 2 accepts a digit below N and exits 0 with value 2",
    # tagged by kernel_jumps() when the task is built, not after a miss
    "near-jump": ("q_cesaro's grid recursion interpolates the kernel across its jumps: "
                  "O(1) error for a source within about a grid cell of a jump of the "
                  "one- or two-step kernel"),
}


def known_defect(task_name: str) -> Optional[str]:
    """The known defect a failure of this task is, if any: a task's own name,
    or a tag in its last bracketed field (`q_cesaro[n=10,2,near-jump]`)."""
    tag = task_name.rsplit(",", 1)[-1].rstrip("]") if task_name.endswith("]") else None
    return KNOWN_DEFECTS.get(task_name) or KNOWN_DEFECTS.get(tag)


@dataclass
class Task:
    name: str
    call: Callable[[], object]
    # check(result) -> dict of accuracy figures; raises CheckFailed on a miss
    check: Callable[[object], dict]
    cli_argv: Optional[list] = None


@dataclass
class Workload:
    name: str
    tasks: list
    # Seconds per full-size pass on the machine the benchmark was tuned on
    # (2 vCPU Xeon).  A run makes a fixed number of passes, `--seconds`
    # divided by this, so the sample count does not follow machine load.
    pass_s: float
    min_passes: int = 1


class CheckFailed(Exception):
    """A task's result missed its reference."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _rng(seed: int, stream: int):
    import numpy as np
    return np.random.default_rng([seed, stream])


def seeded_rationals(rnd: random.Random, count: int) -> list:
    out = []
    for _ in range(count):
        q = rnd.randrange(2, 1001)
        out.append(Fraction(rnd.randrange(1, q + 1), q))
    return out


# ---------------------------------------------------------------------------
# gk-iterate: one grid, many operator applications


def _gk_iterate(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from ncf import core, gausskuzmin, rscc, transfer

    m = 128 if tiny else 1024
    n_max = 40
    cases = [(5, "lebesgue")] if tiny else [
        (1, "lebesgue"), (2, "lebesgue"), (5, "lebesgue"), (1, "tilted")]
    measures = {"lebesgue": gausskuzmin.lebesgue_measure(),
                "tilted": gausskuzmin.tilted_measure()}
    tasks = []
    for j, (n, mu_name) in enumerate(cases):
        params = core.NcfParams(n)
        mu = measures[mu_name]
        rng_seed = int(_rng(seed, 10 + j).integers(2**32))

        def call(mu=mu, params=params, rng_seed=rng_seed):
            return gausskuzmin.run_experiment(mu, params, n_max=n_max, m=m,
                                              rng=np.random.default_rng(rng_seed))

        def check(rep, n=n, mu_name=mu_name):
            res = max(abs(r) for r in rep.fit_residuals) if rep.fit_residuals else None
            gate(rep.sup_errors[-1] < 1e-6, f"sup error at n={n_max} is {rep.sup_errors[-1]:.3g}")
            gate(rep.q_fit is not None and 0.0 < rep.q_fit < 1.0 and res < 0.5,
                 f"rate fit q={rep.q_fit} residual={res}")
            if n == 1:
                gate(0.25 < rep.q_fit < 0.40, f"q_fit {rep.q_fit:.4f} outside (0.25, 0.40)")
            for cell in rep.method_agreement:
                gate(abs(cell["operator"] - cell["montecarlo"]) <= cell["band"],
                     f"spot check n={cell['n']} x={cell['x']} outside its Monte Carlo band")
            acc = {"gausskuzmin.sup_err_n40": rep.sup_errors[-1]}
            if (n, mu_name) == (1, "lebesgue"):
                acc["gausskuzmin.q_fit_err"] = abs(rep.q_fit - refs.WIRSING)
            return acc

        tasks.append(Task(f"run_experiment[N={n},{mu_name}]", call, check))

    # estimate_gap on two seeded smooth test functions dominated by their
    # linear part.  With these six long tasks a two-pass run has twelve, so
    # task_tail_ms (ten samples beyond it) lands inside the long tasks rather
    # than on the slowest of the short ones, a maximum that one stall moves.
    gm_m = 256 if tiny else 2048
    x = np.linspace(0.0, 1.0, gm_m + 1)
    params1 = core.NcfParams(1)

    def gap_check(est):
        gate(0.25 < est.q_hat < 0.40, f"q_hat {est.q_hat:.4f} outside (0.25, 0.40)")
        return {"transfer.gap_q_err": abs(est.q_hat - refs.WIRSING)}

    for j, c in enumerate(_rng(seed, 2).normal(size=(2, 2))):
        f = transfer.GridFunction(x + 0.2 * (c[0] * x ** 2 + c[1] * np.sin(3.0 * x)))
        tasks.append(Task(f"estimate_gap[N=1,{j}]",
                          lambda f=f: transfer.estimate_gap(f, params1, 10 if tiny else 30),
                          gap_check))

    # grid paths of the k-step and Cesaro kernels; the indicator-like kernel
    # is discontinuous in the source, so the grid error is O(1/M).  There are
    # more of these short tasks than long ones, so task_p50_ms is the median
    # of many similar calls rather than one long call.
    sys1 = rscc.make_ncf_rscc(params1)
    k = 3 if tiny else 10
    grid_tol = 2.0 / m
    pick = _rng(seed, 3)
    for j in range(1 if tiny else 5):
        src = float(pick.uniform(0.05, 0.95))
        a, b = sorted(float(t) for t in pick.uniform(0.0, 1.0, 2))

        def step_check(v, a=a, b=b):
            want = float(refs.invariant_cdf(b, 1) - refs.invariant_cdf(a, 1))
            gate(abs(v - want) <= grid_tol + 0.31 ** k,
                 f"q_step {v:.6f} vs invariant mass {want:.6f}")
            return {}

        tasks.append(Task(f"q_step[k={k},{j}]",
                          lambda src=src, a=a, b=b: rscc.q_step(sys1, k, src, (a, b), grid_m=m),
                          step_check))

        mc_seed = int(pick.integers(2**32))
        mc = {}

        def cesaro_check(v, src=src, a=a, b=b, mc_seed=mc_seed, mc=mc):
            if not mc:
                mc.update(zip(("mean", "se"), _cesaro_mc(src, a, b, k, mc_seed)))
            gate(abs(v - mc["mean"]) <= 4.0 * mc["se"] + grid_tol,
                 f"q_cesaro {v:.5f} vs Monte Carlo {mc['mean']:.5f} +- {mc['se']:.1g}")
            return {}

        # a known defect only where the grid can misread a kernel jump at
        # this source by more than half the grid term of the gate
        misread = sum(size for x, size, width in kernel_jumps(a, b, 1, m) if abs(src - x) <= width)
        tag = ",near-jump" if misread / k > 1.0 / m else ""
        tasks.append(Task(f"q_cesaro[n={k},{j}{tag}]",
                          lambda src=src, a=a, b=b: rscc.q_cesaro(sys1, k, src, (a, b), grid_m=m),
                          cesaro_check))
    return Workload("gk-iterate", tasks, pass_s=15.0)


def kernel_jumps(a: float, b: float, n: int, m: int, levels: int = 2) -> list:
    """Jumps in [0, 1] of x -> Q^(k)(x, [a, b)), k = 1..levels, for the
    N-continued-fraction chain: (position, size, half-width) triples.

    Q(x, [0, u)) jumps by p(x, i) where a branch point N/(x+i) crosses u,
    and Q^(k+1)(x) = sum_i p(x, i) Q^(k)(N/(x+i)) jumps where a branch point
    crosses a jump of Q^(k).  The half-width is the distance from a jump
    within which a grid of m cells misreads it: one cell at the source,
    plus a level-k window pulled back through the branch, whose slope is
    N/(x+i)^2."""
    def p(x, i):
        return (x + n) / ((x + i) * (x + i + 1.0))

    def crossings(y):
        # (x, i) in [0, 1] x {N, N+1, ...} with N/(x+i) = y
        if y <= 0.0:
            return []
        top = math.floor(n / y)
        return [(n / y - i, i) for i in range(max(n, top - 1), top + 1)
                if 0.0 <= n / y - i <= 1.0]

    level = [(x, p(x, i), 1.0 / m) for u in (a, b) for x, i in crossings(u)]
    out = list(level)
    for _ in range(levels - 1):
        level = [(x, p(x, i) * size, 1.0 / m + width * (x + i) ** 2 / n)
                 for y, size, width in level for x, i in crossings(y)]
        out += level
    return out


def _cesaro_mc(src: float, a: float, b: float, steps: int, seed: int,
               n_paths: int = 100_000):
    """Monte Carlo of (1/n) sum_k P(w_k in [a, b)) for the N=1 chain."""
    import numpy as np
    rng = np.random.default_rng(seed)
    w = np.full(n_paths, src)
    hits = np.zeros(n_paths)
    for _ in range(steps):
        w = refs.next_state_mc(w, rng.random(n_paths), 1)
        hits += (w >= a) & (w < b)
    share = hits / steps
    return float(np.mean(share)), float(np.std(share) / np.sqrt(n_paths))


# ---------------------------------------------------------------------------
# oneshot-fine: each fine grid is used once


def _oneshot_fine(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from ncf import core, gausskuzmin, transfer

    m = 256 if tiny else 8192
    x = np.linspace(0.0, 1.0, m + 1)
    params = {n: core.NcfParams(n) for n in (1, 2, 5)}
    tasks = []

    def unit_check(out):
        err = float(np.max(np.abs(out.values - 1.0)))
        gate(err <= 1e-14, f"max|U1-1| = {err:.3g}")
        return {"transfer.unit_err": err}

    for n in (1, 2, 5):
        tasks.append(Task(f"apply_transfer[unit,N={n}]",
                          lambda n=n: transfer.apply_transfer(
                              transfer.GridFunction.constant(1.0, m), params[n]),
                          unit_check))

    # adjoint identity: the invariant integral of f is preserved by one application
    coef = _rng(seed, 4).normal(size=(20, 4))
    cases = [(1, 1000), (2, 1000), (5, 4000)]
    for j in range(2 if tiny else 20):
        n, i_max = cases[j % 3]
        c = coef[j]
        v = c[0] + c[1] * x + c[2] * x ** 2 + c[3] * np.sin(3.0 * x)
        v = v / (np.max(np.abs(v)) + np.max(np.abs(np.diff(v))) * m)
        f = transfer.GridFunction(v)
        rho = refs.invariant_density(x, n)
        before = refs.simpson(v * rho, x)

        def adj_check(out, rho=rho, before=before):
            gap = abs(refs.simpson(out.values * rho, x) - before)
            gate(gap < 1e-8, f"adjoint gap {gap:.3g}")
            return {"transfer.adjoint_gap": gap}

        tasks.append(Task(f"apply_transfer[adjoint,N={n},i_max={i_max},{j}]",
                          lambda f=f, n=n, i_max=i_max: transfer.apply_transfer(
                              f, params[n], i_max=i_max),
                          adj_check))

    # (initial measure, density of its image, its CDF on [0, 1])
    measures = {"lebesgue": (gausskuzmin.lebesgue_measure(), refs.pushforward_lebesgue,
                             lambda t: t),
                "gauss": (gausskuzmin.gauss_initial(params[1]), refs.invariant_density,
                          lambda t: refs.invariant_cdf(t, 1)),
                "tilted": (gausskuzmin.tilted_measure(), refs.pushforward_tilted,
                           lambda t: (t + t * t / 4) / 1.25)}
    pick = _rng(seed, 5)
    tol = 1e-7
    for name, (mu, density_ref, cdf) in measures.items():
        ys = pick.uniform(0.0, 1.0, 16)
        want = density_ref(ys, 1)

        def pf_check(dens, ys=ys, want=want):
            got = np.array([dens(float(t)) for t in ys])
            err = float(np.max(np.abs(got - want) / want))
            gate(err < tol, f"pushforward density relative error {err:.3g}")
            return {"gausskuzmin.pushforward_err": err}

        tasks.append(Task(f"pushforward_density[{name}]",
                          lambda mu=mu: gausskuzmin.pushforward_density(mu, params[1], m=m),
                          pf_check))

    for name, (mu, _, cdf) in measures.items():
        xq = float(pick.uniform(0.05, 0.95))
        want = refs.first_step_cdf(xq, 1, cdf)

        def dist_check(v, want=want):
            gate(abs(v - want) < tol, f"distribution_at {v:.10f} vs {want:.10f}")
            return {"gausskuzmin.distribution_err": abs(v - want)}

        tasks.append(Task(f"distribution_at[operator,n=1,{name}]",
                          lambda mu=mu, xq=xq: gausskuzmin.distribution_at(
                              mu, 1, xq, params[1], method="operator", m=m),
                          dist_check))
    return Workload("oneshot-fine", tasks, pass_s=15.0)


# ---------------------------------------------------------------------------
# exact-mc: exact arithmetic, word enumeration and vectorised Monte Carlo


def _exact_mc(seed: int, tiny: bool) -> Workload:
    import numpy as np
    from ncf import core, rscc

    tasks = []
    rnd = random.Random(seed)
    for n in (1, 2, 3, 5, 10):
        params = core.NcfParams(n)
        for j, x in enumerate(seeded_rationals(rnd, 20 if tiny else 1000)):

            def call(x=x, params=params):
                seq = core.digits(x, params, 100_000)
                return seq, core.evaluate(seq, params)

            def check(out, x=x, n=n):
                seq, value = out
                ok = (seq.terminated and value == x and min(seq.digits) >= n
                      and refs.forward_value(seq.digits, n) == x)
                gate(ok, f"round trip of {x} with N={n} gave {value}")
                return {}

            tasks.append(Task(f"roundtrip[N={n},{j}]", call, check))

    pick = _rng(seed, 6)
    xs = [float(t) for t in pick.uniform(0.0, 1.0, 16 if tiny else 128)]
    us = [float(t) for t in pick.uniform(1.0 / 64, 1.0, 8 if tiny else 64)]
    for n in (1, 2, 5):
        sys_n = rscc.make_ncf_rscc(core.NcfParams(n))

        def kernel_grid(sys_n=sys_n):
            worst = 0.0
            for x in xs:
                for u in us:
                    a = rscc.q_kernel_interval(sys_n, x, u)
                    b = rscc.q_kernel_interval_bruteforce(sys_n, x, u, i_max=2000)
                    worst = max(worst, abs(a - b))
            return worst

        def kernel_check(worst):
            gate(worst < 1e-12, f"closed form vs branch sum {worst:.3g}")
            return {"rscc.kernel_err": worst}

        tasks.append(Task(f"q_kernel_grid[N={n}]", kernel_grid, kernel_check))

    def contraction_check(rep):
        gate(rep.certified and rep.r_values[0] < 1.0, f"not certified: r={rep.r_values}")
        return {}

    grid = 64 if tiny else 512
    for n, k_max in [(n, 2) for n in (range(1, 3) if tiny else range(1, 11))] + [(1, 3)]:
        sys_n = rscc.make_ncf_rscc(core.NcfParams(n))
        c_seed = int(pick.integers(2**32))
        tasks.append(Task(f"contraction[N={n},k={k_max}]",
                          lambda sys_n=sys_n, k_max=k_max, c_seed=c_seed:
                          rscc.contraction_coefficients(sys_n, k_max=k_max, grid=grid,
                                                        rng=np.random.default_rng(c_seed)),
                          contraction_check))

    sys1 = rscc.make_ncf_rscc(core.NcfParams(1))
    n_paths = 10_000 if tiny else 100_000
    for i in (1, 2, 3):
        w0 = float(pick.uniform(0.0, 1.0))
        s = int(pick.integers(2**32))

        def shifted_check(est, i=i):
            z = abs(est.value - refs.digit_law(i, 1)) / est.se
            gate(z <= 4.0, f"event {i} law {est.value:.5f} is {z:.1f} SE from the reference")
            return {"rscc.mc_z_max": z}

        tasks.append(Task(f"shifted_path_probability[i={i}]",
                          lambda w0=w0, i=i, s=s: rscc.shifted_path_probability(
                              sys1, w0, 30, 1, [(i,)], n_paths=n_paths,
                              rng=np.random.default_rng(s)),
                          shifted_check))

    w0 = float(pick.uniform(0.0, 1.0))
    s = int(pick.integers(2**32))

    def paths_check(w):
        z = 0.0
        for q in (0.25, 0.5, 0.75):
            p = float(refs.invariant_cdf(q, 1))
            z = max(z, abs(float(np.mean(w < q)) - p) / np.sqrt(p * (1 - p) / w.size))
        gate(z <= 4.0, f"terminal states {z:.1f} SE from the invariant CDF")
        return {"rscc.mc_z_max": z}

    tasks.append(Task("simulate_paths", lambda: rscc.simulate_paths(
        sys1, w0, 30, n_paths, rng=np.random.default_rng(s)), paths_check))

    for n, i in ((1, 1), (1, 2), (2, 3)):
        sys_n = rscc.make_ncf_rscc(core.NcfParams(n))

        def law_check(v, n=n, i=i):
            err = abs(v - refs.digit_law(i, n))
            gate(err < 1e-10, f"stationary law of event {i}, N={n}: error {err:.3g}")
            return {}

        tasks.append(Task(f"limit_path_law[N={n},i={i}]",
                          lambda sys_n=sys_n, i=i: rscc.limit_path_law(sys_n, 1, [(i,)]),
                          law_check))

    for j in range(2):
        alpha, beta = (round(float(t), 2) for t in pick.uniform(0.1, 0.9, 2))
        sys_m = rscc.make_mealy_rscc(alpha, beta)
        pi1 = beta / (1.0 - alpha + beta)
        for src in (1.0, 2.0):

            def mealy_check(v, pi1=pi1):
                gate(abs(v - pi1) <= 1e-10, f"Cesaro limit {v!r} vs {pi1!r}")
                return {}

            tasks.append(Task(f"mealy_cesaro[{j},from={int(src)}]",
                              lambda sys_m=sys_m, src=src: rscc.q_cesaro(sys_m, 10**10, src, [1.0]),
                              mealy_check))
    return Workload("exact-mc", tasks, pass_s=2.5)


# ---------------------------------------------------------------------------
# cli-mix: one process per call, as users run the command line


def _cli_mix(seed: int, tiny: bool) -> Workload:
    rnd = random.Random(seed)
    x = seeded_rationals(rnd, 1)[0]
    d1, d2 = rnd.randrange(2, 10), rnd.randrange(2, 10)
    alpha, beta = rnd.choice((0.2, 0.3, 0.4)), rnd.choice((0.5, 0.6, 0.7))
    s1, s2 = rnd.randrange(1000), rnd.randrange(1000)

    def expand_ok(out):
        gate(out["terminated"] and refs.forward_value(out["digits"], 2) == x,
             f"expansion of {x} does not evaluate back to it")

    def eval_ok(out):
        gate(Fraction(out["value"]) == refs.forward_value([d1, d2], 2), "wrong exact value")

    def gap_ok(out):
        gate(0.25 < out["q_hat"] < 0.40, f"q_hat {out['q_hat']} outside (0.25, 0.40)")

    def mealy_ok(out):
        gate(abs(out["stationary"][0] - beta / (1 - alpha + beta)) < 1e-12, "stationary law")

    def certified(out):
        gate(out["certified"], "contraction not certified")

    calls = [
        ("expand", ["expand", "--x", f"{x.numerator}/{x.denominator}", "--n", "2"], 0, expand_ok),
        ("eval", ["eval", "--digits", f"{d1},{d2}", "--n", "2"], 0, eval_ok),
        ("digit-law", ["digit-law", "--n", "2", "--grid", "10"], 0, None),
        ("invariance", ["invariance", "--n", "1", "--grid", "8"], 0, None),
        ("transfer", ["transfer", "--n", "1", "--grid", "256", "--nmax", "5"], 0, None),
        ("gap", ["gap", "--n", "1", "--grid", "512", "--nmax", "15"], 0, gap_ok),
        ("gk", ["gk", "--n", "1", "--nmax", "8", "--grid", "256", "--seed", str(s1)], 0, None),
        ("rscc-mealy", ["rscc-mealy", "--alpha", str(alpha), "--beta", str(beta)], 0, mealy_ok),
        ("rscc-mealy-dot", ["rscc-mealy", "--alpha", str(alpha), "--beta", str(beta), "--dot"], 0, None),
        ("contraction", ["contraction", "--n", "1", "--grid", "128", "--seed", str(s2)], 0, certified),
        ("regularity", ["regularity", "--n", "2", "--nmax", "100"], 0, None),
        ("edge-expand-zero", ["expand", "--x", "0"], 2, None),
        ("edge-eval-zero", ["eval", "--digits", "0"], 2, None),
        ("edge-expand-subnormal", ["expand", "--x", "1e-320"], 2, None),
        ("edge-eval-low-digit", ["eval", "--digits", "1", "--n", "2"], 2, None),
    ]
    if tiny:
        calls = [calls[0], calls[-1]]
    tasks = []
    for name, argv, want_code, content in calls:
        first = {}

        def check(out, want_code=want_code, content=content, first=first):
            code, stdout, stderr = out
            gate(code == want_code, f"exit code {code}, documented {want_code}"
                 + (f"; stderr ends {stderr.strip().splitlines()[-1]!r}" if stderr.strip() else ""))
            first.setdefault("stdout", stdout)
            gate(stdout == first["stdout"], "stdout differs from the first call of this argv")
            if content is not None:
                content(json.loads(stdout))
            return {}

        tasks.append(Task(name, lambda argv=argv: run_cli(argv), check, cli_argv=argv))
    return Workload("cli-mix", tasks, pass_s=14.0, min_passes=1 if tiny else 2)


def run_cli(argv: list, module: str = "ncf.cli", timeout: float = 120.0):
    """One CLI process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


_WORKLOAD_MAKERS = {"gk-iterate": _gk_iterate, "oneshot-fine": _oneshot_fine,
             "cli-mix": _cli_mix, "exact-mc": _exact_mc}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return _WORKLOAD_MAKERS[name](seed, tiny)


def uses_ncf(name: str) -> bool:
    """Whether the workload calls `ncf` in-process (cli-mix only spawns it)."""
    return name != "cli-mix"
