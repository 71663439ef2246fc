"""Property tests: invariants checked on drawn inputs, in bounded runs."""

import contextlib
import io
import math
import os
import tempfile
from fractions import Fraction

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from ncf import (  # noqa: E402
    FitError,
    NcfParams,
    contraction_coefficients,
    core,
    make_mealy_rscc,
    make_ncf_rscc,
    q_cesaro,
    q_kernel_interval,
    transfer,
)
from ncf.cli import main  # noqa: E402
from ncf.gausskuzmin import _iterate_map  # noqa: E402
from ncf.rscc import q_kernel_interval_bruteforce  # noqa: E402


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1, 10**6), n=st.integers(1, 10**6), data=st.data())
def test_rational_expansion_round_trips(q, n, data):
    # the exact orbit of p/q terminates (its denominators fall), every digit
    # is >= N, and the digits give back p/q as a value and a last convergent
    x = Fraction(data.draw(st.integers(1, q), label="p"), q)
    params = NcfParams(n)
    seq = core.digits(x, params, q)
    assert seq.terminated
    assert min(seq.digits) >= n
    assert core.evaluate(seq, params) == x
    assert core.convergents(seq, params)[-1] == x


_COMMAND_FLAGS = {  # command: (its required flags, its other flags)
    "expand": (["--x"], ["--n", "--max-len"]),
    "eval": (["--digits"], ["--n"]),
    "digit-law": ([], ["--n", "--grid"]),
    "invariance": ([], ["--n", "--grid"]),
    "transfer": ([], ["--n", "--grid", "--nmax"]),
    "gap": ([], ["--n", "--grid", "--nmax"]),
    "gk": ([], ["--n", "--grid", "--nmax", "--seed", "--mu", "--require-fit"]),
    "rscc-mealy": (["--alpha", "--beta"], ["--nmax", "--dot"]),
    "contraction": ([], ["--n", "--grid", "--seed", "--kmax"]),
    "regularity": ([], ["--n", "--nmax", "--starts"]),
    "no-such-command": ([], ["--n"]),
}
_ALL_FLAGS = sorted({f for required, other in _COMMAND_FLAGS.values() for f in required + other})
_SWITCHES = ("--dot", "--require-fit")
_SIZES = ("1", "2", "16", "0", "-1", "100000000")
_PROBABILITIES = ("0", "0.3", "1", "-0.0", "1.5", "-0.2", "nan", "inf")
# per-flag pools: values in each flag's domain, its edges and a few just
# outside it, so that fewer drawn argv stop at argparse; --out targets lie in
# the test's temporary directory: a fresh file, a file under a directory that
# does not exist, and the directory itself
_VALUES = {
    "--format": ("json", "csv"), "--out": ("<file>", "<missing>", "<dir>"),
    "--n": ("1", "2", "7", "1000", "0", "-1", "1" + "0" * 29, "1" + "0" * 400),
    "--grid": _SIZES, "--nmax": _SIZES + ("40",), "--kmax": _SIZES, "--max-len": _SIZES,
    "--alpha": _PROBABILITIES, "--beta": _PROBABILITIES,
    "--starts": ("0", "1", "0,0.25,1", "1e-320,0.5", "0.5,2", "-0.5", "nan", "0,,1", "x"),
    "--x": ("3/7", "1", "1/1", "0.5", "1e-300", "0", "1e-320", "2/3", "7/3", "-1/2", "1/0",
            "nan", "inf", "x"),
    "--digits": ("3", "4,3", "2,2,2", "1", "0", "-3", "3,,4", "", "1" + "0" * 29, "x"),
    "--seed": ("0", "42", "-1", "4294967296", "1" + "0" * 29, "1.5", "x"),
    "--mu": ("lebesgue", "gauss", "tilted", "cauchy", ""),
}


@st.composite
def _argvs(draw):
    """A command, its required flags, up to four of its other flags, --format
    or --out, and perhaps one flag it does not take, each with a drawn value."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, other = _COMMAND_FLAGS[command]
    chosen = required + draw(st.lists(st.sampled_from(other + ["--format", "--out"]),
                                      max_size=4))
    chosen += draw(st.lists(st.sampled_from(
        [f for f in _ALL_FLAGS if f not in required + other]), max_size=1))
    argv = [command]
    for flag in chosen:
        argv.append(flag)
        if flag not in _SWITCHES:
            argv.append(draw(st.sampled_from(_VALUES[flag])))
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=_argvs())
@example(argv=["expand", "--x", "3/7", "--out", "<missing>"]).via("an unwritable --out")
@example(argv=["expand", "--x", "3/7", "--out", "<dir>"]).via("a directory as --out")
@example(argv=["regularity", "--n", "1" + "0" * 400]).via("an --n with no float value")
def test_every_argv_has_a_documented_exit_code(argv):
    # main in-process on drawn argv: it returns, or argparse exits, with 0, 2,
    # 3 or 4, never a traceback
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("NCF_BUDGET", "100000")
        outs = {"<file>": os.path.join(tmp, "out.txt"),
                "<missing>": os.path.join(tmp, "missing", "out.txt"), "<dir>": tmp}
        argv = [outs.get(t, t) for t in argv]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 2, 3, 4), (argv, sink.getvalue()[-500:])


def _fit_rate_reference(errors):
    """The rate fit with its window over indices, np.median of the leading
    ratios and np.polyfit: (q, k, window, residuals), or None where
    fewer than 3 points are admissible."""
    floor, idx, ratios = 100 * np.finfo(float).eps, [], []
    for j, e in enumerate(errors):
        r = e / errors[idx[-1]] if idx else 0.0
        slower = len(ratios) >= 3 and r > min(0.95, 1.5 * np.median(ratios[:5]))
        if e <= floor or r > 0.99 or slower:
            break
        ratios += [r] if idx else []
        idx.append(j)
    if len(idx) < 3:
        return None
    ns = np.array(idx, dtype=float) + 1.0
    logs = np.log(errors[idx])
    slope, intercept = np.polyfit(ns, logs, 1)
    return (math.exp(slope), math.exp(intercept), (idx[0] + 1, idx[-1] + 1),
            logs - (slope * ns + intercept))


@settings(max_examples=300, deadline=None)
@given(e0=st.floats(1e-16, 1e6), steps=st.lists(st.floats(1e-3, 1.2), max_size=45))
@example(e0=1.0, steps=[0.3] * 40).via("a clean decay, to the noise floor")
@example(e0=0.5, steps=[0.4, 0.3, 0.35, 0.3, 0.9, 0.3]).via("a slower step: the window ends")
@example(e0=0.5, steps=[0.4, 0.3, 0.35, 0.3]).via("an even count of leading ratios")
@example(e0=0.5, steps=[0.5, 1.0]).via("two points: no fit")
def test_fit_rate_is_the_window_rule_and_polyfit(e0, steps):
    # finite, positive, mostly decaying curves: the same bits as the
    # reference, and a FitError in the same cases
    errors = e0 * np.cumprod([1.0, *steps])
    want = _fit_rate_reference(errors)
    if want is None:
        with pytest.raises(FitError):
            transfer.fit_rate(errors)
        return
    q, k, window, residuals = transfer.fit_rate(errors)
    assert (q.hex(), k.hex(), window) == (want[0].hex(), want[1].hex(), want[2])
    assert residuals.tobytes() == want[3].tobytes()


@pytest.mark.parametrize("errors,n", [
    ([1.0, np.nan, 0.1, 0.01, 0.001], 2),
    ([np.inf, 1.0, 0.1, 0.01], 1),
    ([1.0, 0.1, 0.01, 0.001, -np.inf, np.nan], 5),
])
def test_fit_rate_rejects_non_finite_errors(errors, n):
    # refused by name, before any fit: in the window, the fit returned q = nan
    with pytest.raises(FitError, match=rf"n = {n}\b"):
        transfer.fit_rate(np.array(errors))


def test_fit_rate_window_starts_at_one():
    # 10^-n falls below the noise floor 100 eps after n = 13
    q, k, window, residuals = transfer.fit_rate(0.1 ** np.arange(1.0, 21.0))
    assert window == (1, 13) and residuals.size == 13
    assert q == pytest.approx(0.1, rel=1e-12) and k == pytest.approx(1.0, rel=1e-10)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**6), m=st.integers(1, 512), data=st.data())
def test_branch_terms_are_stochastic(n, m, data):
    # with or without the cut-off: weights >= 0 that sum to 1 per row, at
    # points in [0, 1] that do not rise along a row
    i_max = data.draw(st.none() | st.integers(max(n - 1, 19), max(n - 1, 10**5)), label="i_max")
    x = np.linspace(0.0, 1.0, m + 1)
    for _, w, y in transfer._branch_terms(NcfParams(n), x, m, i_max):
        assert np.all(w >= 0) and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-14
        assert y.min() >= 0.0 and y.max() <= 1.0 and np.all(np.diff(y, axis=1) <= 0)


@settings(max_examples=150, deadline=None)
@given(log_n=st.floats(0.0, 6.0), m=st.integers(1, 1024), data=st.data())
def test_identity_is_the_trigamma_moment(log_n, m, data):
    # f(x) = x is linear everywhere, so every group enters by its exact
    # telescoped first moment, the fold too: (U f)(x) = N (x+N) (psi_1(x+N) -
    # 1/(x+N)), here at 30 digits, in the grid kernel and the point form alike
    n = round(10.0 ** log_n)
    i_max = data.draw(st.sampled_from([None, max(n - 1, 19), max(n - 1, 1000)]), label="i_max")
    params, f = NcfParams(n), transfer.GridFunction.from_callable(lambda x: x, m)
    nodes = slice(None, None, max(1, m // 8))
    x = f.nodes[nodes]
    with mpmath.workdps(30):
        want = np.array([float(n * (t + n) * (mpmath.psi(1, t + n) - 1 / (t + n)))
                         for t in map(mpmath.mpf, x)])
    assert np.max(np.abs(transfer.transfer_at(f, params, x, i_max) - want)) <= 5e-16
    # the groups' BLAS dot products, over up to M terms: 1.0e-15 seen in 6,500 draws
    grid = transfer.apply_transfer(f, params, i_max).values[nodes]
    assert np.max(np.abs(grid - want)) <= 2e-15


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10**6), m=st.integers(1, 512), seed=st.integers(0, 2**32 - 1))
@example(n=1, m=20, seed=0).via("a group mean rounded below its cell, by 1e-19 of weight")
def test_assembled_operator_is_stochastic(n, m, seed):
    # each step of iterates, which once stepped an assembled operator, maps
    # the constant 1 to 1 and is the branch sum at the nodes, for f of
    # Lipschitz norm 1 and 0 <= f
    one = next(transfer.iterates(transfer.GridFunction.constant(1.0, m), NcfParams(n), 1))
    assert np.max(np.abs(one - 1.0)) <= 1e-14
    v = np.random.default_rng(seed).random(m + 1)
    f = transfer.GridFunction(v / transfer.lipschitz_norm(transfer.GridFunction(v)).total)
    step = next(transfer.iterates(f, NcfParams(n), 1))
    want = transfer.transfer_at(f, NcfParams(n), f.nodes)
    assert step.min() >= 0.0 and np.max(np.abs(step - want)) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 5, 50, 1000]), m=st.integers(1, 512),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_grid_kernel_is_the_branch_sum(n, m, seed, data):
    # apply_transfer takes the terms by cell index and each group by its
    # telescoped mass and first moment; transfer_at evaluates f at each
    # term's point.  f has Lipschitz norm 1, as in criterion 04: a point
    # rounded by one ulp moves f(y) by ulp(y) |f'|, 1e-13 for the raw slopes
    # of random samples at i_max = N - 1
    i_max = data.draw(st.sampled_from([None, max(n - 1, 19), 1000]), label="i_max")
    v = np.random.default_rng(seed).random(m + 1) - 0.5
    f = transfer.GridFunction(v / transfer.lipschitz_norm(transfer.GridFunction(v)).total)
    got = transfer.apply_transfer(f, NcfParams(n), i_max).values
    want = transfer.transfer_at(f, NcfParams(n), f.nodes, i_max)
    assert np.max(np.abs(got - want)) <= 2e-15 * max(1.0, np.max(np.abs(f.values)))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**6),
       ys=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), max_size=50))
def test_vector_map_step_is_the_scalar_map(n, ys):
    # one step of the Monte Carlo paths is core's map to the bit, and fixes 0;
    # points below 1e-300 are left out, where N/y can overflow and core raises
    y = np.array([0.0] + [t for t in ys if t == 0.0 or t >= 1e-300])
    params = NcfParams(n)
    got = _iterate_map(y, 1, n)
    assert got.tolist() == [core.gauss_map(float(t), params) for t in y]


@settings(max_examples=60, deadline=None)
@given(alpha=st.integers(0, 100), beta=st.integers(0, 100), n=st.integers(1, 64))
@example(alpha=100, beta=1, n=3).via("eigenvalue 0.99, where 1 - lam^n cancels")
@example(alpha=50, beta=50, n=1).via("eigenvalue 0")
def test_finite_cesaro_is_the_exact_average(alpha, beta, n):
    # the two-state closed form against (1/n) sum_k K^k in exact rationals,
    # from both states to both states
    k = core.mealy_kernel(Fraction(alpha / 100), Fraction(beta / 100))
    p = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    acc = [[Fraction(0)] * 2 for _ in range(2)]
    for _ in range(n):
        p = [[sum(p[i][t] * k[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
        acc = [[acc[i][j] + p[i][j] for j in range(2)] for i in range(2)]
    sys_ = make_mealy_rscc(alpha / 100, beta / 100)
    for i, source in enumerate(sys_.states):
        for j, target in enumerate(sys_.states):
            got = q_cesaro(sys_, n, source, [target])
            assert abs(Fraction(got) - acc[i][j] / n) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 1000), x=st.floats(0.0, 1.0), data=st.data())
def test_closed_form_kernel_is_the_branch_sum(n, x, data):
    # u above N/(i_max + 1), so the oracle's explicit branches reach N/u;
    # both sides decide a branch point within rounding of u exactly
    i_max = 20000
    u = data.draw(st.floats(n / i_max, 1.0), label="u")
    sys_ = make_ncf_rscc(NcfParams(n))
    want = q_kernel_interval_bruteforce(sys_, x, u, i_max=i_max)
    assert abs(q_kernel_interval(sys_, x, u) - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 1000), j=st.integers(0, 2**20), j2=st.integers(0, 2**20))
@example(n=1, j=0, j2=1).via("the pair nearest the sup at N = 1")
def test_event_variation_is_at_most_a_quarter_over_n(n, j, j2):
    # R is the sup over state pairs of the total variation sum_i (P(w, i) -
    # P(w', i))+ over |w - w'|.  Here it is summed branch by branch at 40
    # digits up to 4N + 16, past which every branch has the sign of the
    # whole tail that follows (P(w, i)/P(w', i) is monotone in i and
    # crosses 1 near 2N); it stays at or below the system's R, 1/(4N), which
    # the tail {i >= 2N} approaches as w, w' -> 0
    assume(j != j2)
    assert contraction_coefficients(make_ncf_rscc(NcfParams(n)), k_max=1, grid=1).big_r \
        == 1 / (4 * n)
    with mpmath.workdps(40):
        w, w2, top = mpmath.mpf(j) / 2**20, mpmath.mpf(j2) / 2**20, 4 * n + 16

        def prob(v, i):
            return (v + n) / ((v + i) * (v + i + 1))

        def tail(v, m):
            return (v + n) / (v + m)

        d = [prob(w, i) - prob(w2, i) for i in range(n, top)]
        rest = tail(w, top) - tail(w2, top)
        assert d[-1] * rest > 0
        variation = sum(max(v, 0) for v in d) + max(rest, 0)
        assert variation / abs(w - w2) <= mpmath.mpf(1) / (4 * n)
        eps = mpmath.mpf(2) ** -20
        near = abs(tail(0, 2 * n) - tail(eps, 2 * n)) / eps
        assert abs(near * 4 * n - 1) <= 1e-5
