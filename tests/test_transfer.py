"""Transfer operator on grid functions: fixed point, adjoint identity, rate."""

import json
import math
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ncf import (
    BudgetExceededError,
    FitError,
    GaussMeasure,
    GridFunction,
    NcfParams,
    apply_transfer,
    estimate_gap,
    gn_cdf,
    integrate_against,
    lipschitz_norm,
)
from ncf import gausskuzmin, rscc, transfer
from ncf.cli import main


class TestSimpson:
    # scipy.integrate.simpson is the oracle of integrate_against: plain
    # Simpson on an even cell count, Cartwright's end correction on an odd one
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 255, 256, 1023, 1024, 8192])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_scipy(self, m, n):
        gm = GaussMeasure(NcfParams(n))
        for fn in (lambda x: np.cos(3.0 * x) + x * x, np.exp, lambda x: x):
            f = GridFunction.from_callable(fn, m)
            want = integrate.simpson(f.values * gm.density(f.nodes), x=f.nodes)
            assert abs(integrate_against(f, gm) - want) <= 1e-15


class TestGridFunction:
    def test_resolution_and_nodes(self):
        f = GridFunction.from_callable(lambda x: x * x, 8)
        assert f.resolution == 8
        assert f.nodes[0] == 0.0 and f.nodes[-1] == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([0.0, float("nan")]))

    def test_interpolation(self):
        f = GridFunction.from_callable(lambda x: x, 4)
        assert f(0.375) == pytest.approx(0.375)

    def test_nodes_are_a_fresh_copy(self):
        # a call reads the nodes of its size from a shared read-only array;
        # the public nodes stay the caller's own
        f = GridFunction.from_callable(lambda x: x, 4)
        x = f.nodes
        x[:] = 0.0
        assert f(0.375) == 0.375 and f.nodes[1] == 0.25
        assert not transfer._nodes(5).flags.writeable

    @pytest.mark.parametrize("values", [np.array([1 + 2j, 3]), np.array([1 + 0j, 3]), [0.5, 1j]])
    def test_rejects_complex_samples(self, values):
        # NumPy once dropped the imaginary parts with only a ComplexWarning
        with pytest.raises(ValueError, match="samples must be real"):
            GridFunction(values)

    @pytest.mark.parametrize("m", [-3, 0, 2.5])
    def test_constructors_reject_bad_m(self, m):
        # -3 ended in NumPy's "Number of samples, -2, must be non-negative."
        # and "negative dimensions are not allowed", 0 in a message that
        # named the samples, not m, and 2.5 in a TypeError that named nothing
        text = f"^m must be {'>= 1' if m < 1 else 'an integer'}, got {m}$"
        with pytest.raises(ValueError, match=text):
            GridFunction.from_callable(np.cos, m)
        with pytest.raises(ValueError, match=text):
            GridFunction.constant(1.0, m)


class TestApplyTransfer:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_unit_eigenfunction(self, n):
        params = NcfParams(n)
        out = apply_transfer(GridFunction.constant(1.0, 512), params)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-14

    def test_identity_function_at_zero(self):
        # node 0, f(x)=x: sum over branches of 1/(i(i+1)) * 1/i = zeta(2) - 1
        params = NcfParams(1)
        f = GridFunction.from_callable(lambda x: x, 512)
        out = apply_transfer(f, params, i_max=200_000)
        series = math.pi ** 2 / 6 - 1
        assert out.values[0] == pytest.approx(series, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_adjoint_identity(self, n):
        params = NcfParams(n)
        gm = GaussMeasure(params)
        rng = np.random.default_rng(42)
        x = np.linspace(0, 1, 8193)
        for _ in range(8):
            coeffs = rng.normal(size=4)
            f = GridFunction(coeffs[0] + coeffs[1] * x + coeffs[2] * x ** 2
                             + coeffs[3] * np.sin(3 * x))
            before = integrate_against(f, gm)
            after = integrate_against(apply_transfer(f, params), gm)
            assert abs(after - before) <= 1e-8

    def test_positivity(self):
        params = NcfParams(2)
        rng = np.random.default_rng(7)
        f = GridFunction(rng.random(513))
        out = apply_transfer(f, params)
        assert np.all(out.values >= 0)

    def test_oscillation_contracts(self):
        params = NcfParams(1)
        f = GridFunction.from_callable(lambda x: np.cos(4 * x), 512)
        prev = float(np.max(f.values) - np.min(f.values))
        for _ in range(8):
            f = apply_transfer(f, params)
            osc = float(np.max(f.values) - np.min(f.values))
            assert osc <= prev + 1e-15
            prev = osc

    @pytest.mark.parametrize("n,i_max", [(5, 2), (5, 0), (2, -1), (3, 1)])
    def test_cutoff_below_n_minus_one_rejected(self, n, i_max):
        # below N - 1 the folded tail mass (x+N)/(x+i_max+1) exceeds 1
        f = GridFunction.constant(1.0, 8)
        with pytest.raises(ValueError, match="i_max"):
            apply_transfer(f, NcfParams(n), i_max=i_max)
        with pytest.raises(ValueError, match="i_max"):
            transfer.transfer_at(np.cos, NcfParams(n), f.nodes, i_max)

    @pytest.mark.parametrize("n,i_max", [(1, 0), (1, 18), (5, 4), (5, 18)])
    def test_cutoff_below_nineteen_rejected(self, n, i_max):
        # below 20 the fold's mean would need branches one by one: no caller
        # cuts there, so the cut-off's least value is max(N - 1, 19)
        f = GridFunction.constant(1.0, 8)
        bound = r"i_max must be >= max\(N - 1, 19\) = 19"
        with pytest.raises(ValueError, match=bound):
            apply_transfer(f, NcfParams(n), i_max=i_max)
        with pytest.raises(ValueError, match=bound):
            transfer.transfer_at(np.cos, NcfParams(n), f.nodes, i_max)

    @pytest.mark.parametrize("m", [64, 1024])
    @pytest.mark.parametrize("i_max", [1000.5, 1000.0, "1000"], ids=["half", "float", "str"])
    def test_non_integer_cutoff_rejected(self, m, i_max):
        # 1000.5 answered silently at M = 64 and ended in a bare IndexError at
        # M = 1024; transfer_at raised TypeError
        f = GridFunction.constant(1.0, m)
        with pytest.raises(ValueError, match="i_max must be an integer"):
            apply_transfer(f, NcfParams(1), i_max=i_max)
        with pytest.raises(ValueError, match="i_max must be an integer"):
            transfer.transfer_at(f, NcfParams(1), [0.3], i_max)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("f", [np.cos, GridFunction.constant(1.0, 64)], ids=["callable", "grid"])
    def test_point_not_finite_rejected(self, f, x):
        # inf once gave nan with RuntimeWarnings, and nan gave nan silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^x must be finite"):
                transfer.transfer_at(f, NcfParams(1), [0.3, x])

    @pytest.mark.parametrize("x", [-1.0, -0.999, -1e-300, 1.0 + 2 ** -52, 3.0])
    @pytest.mark.parametrize("f", [np.cos, GridFunction.constant(1.0, 64)], ids=["callable", "grid"])
    def test_point_outside_the_domain_rejected(self, f, x):
        # at N=1, -1.0 gave nan with RuntimeWarnings, -0.999 gave 999.0 and
        # 3.0 gave 0.135: the branches N/(x+i) of a point off [0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\], got "):
                transfer.transfer_at(f, NcfParams(1), [0.3, x])

    @pytest.mark.parametrize("x", [0.3, [[0.3]], [[0.0, 0.5], [0.5, 1.0]]],
                             ids=["0-d", "1x1", "2x2"])
    @pytest.mark.parametrize("f", [np.cos, GridFunction.constant(1.0, 64)], ids=["callable", "grid"])
    def test_point_array_not_1d_rejected(self, f, x):
        # a 2-d x ended in a broadcasting ValueError that named nothing, and a
        # scalar in an IndexError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x must be a 1-d array, got \d-d$"):
                transfer.transfer_at(f, NcfParams(1), x)

    def test_numpy_integer_cutoff_accepted(self):
        f = _random_grid(1024, seed=4)
        want = apply_transfer(f, NcfParams(2), i_max=1000).values
        assert np.array_equal(apply_transfer(f, NcfParams(2), i_max=np.int64(1000)).values, want)

    @pytest.mark.parametrize("n", [20, 50])
    def test_cutoff_n_minus_one_is_all_tail(self, n):
        # no branch is kept; the tail carries mass exactly 1
        out = apply_transfer(GridFunction.constant(1.0, 8), NcfParams(n), i_max=n - 1)
        assert np.max(np.abs(out.values - 1.0)) <= 1e-15

    def test_resolution_mismatch(self):
        f = GridFunction.constant(1.0, 8)
        g = apply_transfer(f, NcfParams(1))
        assert g.resolution == f.resolution

    def test_richardson_resolution_convergence(self):
        # linear interpolation error is O(1/M^2): doubling M divides the
        # deviation from a fine reference by roughly 4
        params = NcfParams(1)

        def run(m):
            f = GridFunction.from_callable(lambda x: np.cos(3 * x), m)
            g = apply_transfer(f, params)
            probe = np.linspace(0.05, 0.95, 7)
            return np.array([float(g(t)) for t in probe])

        ref = run(8192)
        e512 = np.max(np.abs(run(512) - ref))
        e1024 = np.max(np.abs(run(1024) - ref))
        e2048 = np.max(np.abs(run(2048) - ref))
        for ratio in (e512 / e1024, e1024 / e2048):
            assert 1.0 < ratio < 16.0  # factor-of-2 band around 4


# Wirsing's constant, -lambda_2 of the N=1 operator (OEIS A038517)
_WIRSING = 0.3036630028987326586


def _random_grid(m, seed):
    return GridFunction(np.random.default_rng(seed).random(m + 1))


def _rest(t, n, branches):
    """Mass and mean point of the branches from N+branches on, at 30 digits:
    mass (t+N)/z and first moment N (t+N) (psi_1(z) - 1/z), z = t+N+branches.
    In binary64, psi_1(z) - 1/z cancels to about 2z eps."""
    with mpmath.workdps(30):
        tn = mpmath.mpf(float(t)) + n
        z = tn + branches
        return float(tn / z), float(n * z * (mpmath.psi(1, z) - 1 / z))


def _branch_by_branch(f, n, x, branches):
    """Sum over the branches i = N..N+branches-1 one by one, plus the rest
    folded at its exact mean (_rest).  Where the rest lands in cell 0, on
    which f is linear, this is the whole series."""
    i = np.arange(n, n + branches, dtype=float)
    mass, mean = np.array([_rest(t, n, branches) for t in x]).T
    return np.array([np.sum((t + n) / ((t + i) * (t + i + 1.0)) * f(n / (t + i)))
                     for t in x]) + mass * f(mean)


def _exact(f, n, x):
    """The whole series by _branch_by_branch: past 200,000 branches the rest
    lies in cell 0."""
    assert n / (n + 200_000) < 1.0 / f.resolution
    return _branch_by_branch(f, n, x, 200_000)


# apply_transfer's node block: 4 (_CHUNK // _CHEB) nodes
_BLOCK = 4 * (transfer._CHUNK // transfer._CHEB)


class TestNodeBlocks:
    """apply_transfer takes its nodes a block at a time, from the last, and
    carries each block's crossing sums into the next: every grid up to
    M = _BLOCK - 1 is one block."""

    @pytest.mark.parametrize("m", [_BLOCK + 1, 2 * _BLOCK + 1, 2 ** 15])
    @pytest.mark.parametrize("n", [1, 5, 1000])
    def test_blocks_match_branch_by_branch(self, n, m):
        # f is sin 3x, and its tangent at c below c, where the rest of the
        # first 20,000 branches lands; checked at both sides of every block's
        # first node and at nine nodes between: 4.4e-16 measured
        branches, x = 20_000, np.linspace(0.0, 1.0, m + 1)
        c = n / (n + branches) + 1.0 / m
        f = GridFunction(np.where(x < c, math.sin(3 * c) + 3 * math.cos(3 * c) * (x - c),
                                  np.sin(3 * x)))
        edges = np.arange(m + 1, 0, -_BLOCK)[1:]
        at = np.unique(np.concatenate((edges - 1, edges, np.linspace(0, m, 9).astype(int))))
        got = apply_transfer(f, NcfParams(n)).values[at]
        assert np.max(np.abs(got - _branch_by_branch(f, n, x[at], branches))) <= 2e-15
        one = apply_transfer(GridFunction.constant(1.0, m), NcfParams(n)).values
        assert np.max(np.abs(one - 1.0)) <= 1e-15

    @pytest.mark.parametrize("n,i_max", [(1, None), (1, 4000), (5, None), (5, 4000), (50, None),
                                         (50, 4000), (1000, None)])
    def test_carried_sums_match_one_block(self, n, i_max, monkeypatch):
        # a node block of 1,000 takes M = 8192 in 9 blocks, whose crossing
        # sums each carry into the next: 4.4e-16 from the one-block result
        # measured; not carrying them is 3.4e-8 to 1.9e-4 off
        f = GridFunction.from_callable(lambda x: np.sin(3.0 * x), 8192)
        one = apply_transfer(f, NcfParams(n), i_max).values
        monkeypatch.setattr(transfer, "_CHUNK", 2_500)
        assert 4 * (transfer._CHUNK // transfer._CHEB) == 1_000
        blocks = apply_transfer(f, NcfParams(n), i_max).values
        assert np.max(np.abs(blocks - one)) <= 1e-15


def _clenshaw_by_rows(c, i, s):
    """Clenshaw's recurrence a row of c at a time, each gathered on its own."""
    b1 = b2 = 0.0
    for k in range(c.shape[0] - 1, 0, -1):
        b1, b2 = c[k].take(i) + 2.0 * s * b1 - b2, b1
    return c[0].take(i) + s * b1 - b2


class TestNodePass:
    """apply_transfer's pass over the nodes gathers a block's columns once and
    takes its suffix sums in place: the same operations, in the same order, as
    a gather a row and reversed copies, so the same bits."""

    @pytest.mark.parametrize("rows,cols,i", [
        (10, 40, np.arange(40)),  # every column once
        (10, 40, np.array([3, 3, 0, 39, 3, 17, 0, 39, 39])),  # repeats
        (10, 40, np.array([11])),  # a single node
        (10, 1, np.zeros(25, np.intp)),  # a one-column table: no crossings
        (1, 6, np.array([5, 0, 5])),  # a constant series
    ])
    def test_clenshaw_matches_rows(self, rows, cols, i):
        rng = np.random.default_rng(rows * cols + i.size)
        c = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 8, size=(rows, 1))
        s = rng.uniform(-1.0, 1.0, size=i.size)
        c[:, 0] = 0.0  # a zero column: zeros of both signs in the recurrence
        want = _clenshaw_by_rows(c, i, s)
        assert transfer._clenshaw(c, i, s).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cols", [1, 2, 7, 2501])
    def test_suffix_sums_match_reversed_copies(self, cols):
        rng = np.random.default_rng(cols)
        ev, carry = rng.normal(size=(10, cols)), rng.normal(size=10)
        want = np.cumsum(ev[:, ::-1], axis=1)[:, ::-1] + carry[:, None]
        got = transfer._suffix_sums(ev, carry)
        assert got is ev and got.tobytes() == want.tobytes()


class TestPointRows:
    """apply_transfer takes its point terms as gathered rows, formed by
    _rows and summed by _gathered."""

    @pytest.mark.parametrize("m", [1, 2, 7, 1024])
    def test_rows_match_the_assembly_arithmetic(self, m):
        # places across [0, M], the ends and cell edges among them, and
        # masses over 40 binades
        rng = np.random.default_rng(m)
        p = np.concatenate((rng.uniform(0.0, m, size=(30, 5)),
                            [[0.0, 1.0, m - 1.0, m - 2.0 ** -40, float(m)]]))
        w = rng.uniform(0.5, 1.0, size=p.shape) * 2.0 ** rng.integers(-40, 0, size=p.shape)
        c = np.minimum(p, m - 1).astype(np.intp)
        hi = (p - c) * w
        lo = w - hi
        got = transfer._rows(p, w, m)
        assert got[0].dtype == np.intp and np.array_equal(got[0], c)
        assert got[1].tobytes() == lo.tobytes() and got[2].tobytes() == hi.tobytes()

    @pytest.mark.parametrize("rows,cols,order", [
        (9, 4, "C"), (9, 4, "F"),  # gathered singles, in both layouts
        (9, 1, "C"), (1, 1, "C"),  # a one-column table: the last term
        (9, 0, "C"),  # no singles: i_max = N - 1
    ])
    def test_gathered_matches_rows(self, rows, cols, order):
        rng = np.random.default_rng(rows + cols)
        m = 50
        v = rng.normal(size=m + 1)
        c = np.asarray(rng.integers(0, m, size=(rows, cols)), np.intp, order=order)
        lo, hi = (np.asarray(rng.normal(size=(rows, cols)), order=order) for _ in range(2))
        want = [sum((lo[r, k] * v[c[r, k]] + hi[r, k] * v[c[r, k] + 1] for k in range(cols)), 0.0)
                for r in range(rows)]
        got = transfer._gathered(v, c, lo, hi)
        assert got.shape == (rows,)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * np.max(np.abs(want), initial=1.0)


def _check_stochastic(n, m, i_max=None):
    """apply_transfer on m cells maps the constant 1 to 1."""
    one = apply_transfer(GridFunction.constant(1.0, m), NcfParams(n), i_max).values
    assert np.max(np.abs(one - 1.0)) <= 1e-14


class TestExactOperator:
    """On grid functions the operator sums every branch: the far branches
    landing in one cell enter as that cell's exact mass and mean point."""

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_branch_by_branch_sum(self, n, m):
        # the cut at i_max = max(1000, 100 N) was 2.1e-12 to 1.0e-8 off
        params = NcfParams(n)
        f = _random_grid(m, seed=10 * n + m)
        x = f.nodes[::4]  # every fourth node keeps the reference quick
        want = _exact(f, n, x)
        assert np.max(np.abs(transfer.transfer_at(f, params, x) - want)) <= 1e-14
        got = apply_transfer(f, params).values[::4]
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_trigamma_series_within_an_ulp(self):
        # S(z) = psi_1(z) - 1/z is u^2/2 + _cubic_rest(u) at u = 1/z, to within
        # 1 ulp from z = 20, the least z a term starts at, to 1e300; psi_1(z)
        # - 1/z cancels about log10 z digits, so mpmath works with that many more
        z = np.concatenate((np.linspace(20.0, 100.0, 17), np.geomspace(100.0, 1e300, 60)))
        u = 1.0 / z
        for v, got in zip(u.tolist(), (u * u / 2 + transfer._cubic_rest(u)).tolist()):
            with mpmath.workdps(20 + int(math.log10(1 / v))):
                want = float(mpmath.psi(1, 1 / mpmath.mpf(v)) - v)
            assert abs(got - want) <= math.ulp(want), 1 / v

    @pytest.mark.parametrize("n,m", [(1, 8192), (5, 8192), (1000, 1024)])
    def test_identity_is_the_trigamma_moment(self, n, m):
        # f(x) = x is linear everywhere, so every group enters exactly by its
        # telescoped first moment: (U f)(x) = N (x+N) (psi_1(x+N) - 1/(x+N))
        f = GridFunction.from_callable(lambda x: x, m)
        x = f.nodes[::m // 64]
        want = [_rest(t, n, 0)[1] for t in x]
        got = apply_transfer(f, NcfParams(n)).values[::m // 64]
        assert np.max(np.abs(got - want)) <= 5e-16  # 2.2e-16 measured

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 10**3, 10**6])
    def test_row_stochastic_for_every_n(self, n):
        m = 256
        for _, w, y in transfer._branch_terms(NcfParams(n), np.linspace(0, 1, m + 1), m):
            assert y.min() >= 0.0 and y.max() <= 1.0  # once N >= M, cell M's group
        _check_stochastic(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1024), (5, 8192), (1000, 2048), (10**6, 256)])
    def test_terms_per_row(self, n, m):
        # about 2 sqrt(NM) terms per row while N < M, and about M once N >= M
        x = np.linspace(0.0, 1.0, m + 1)
        terms = next(transfer._branch_terms(NcfParams(n), x, m))[1].shape[1]
        assert terms <= 2 * math.isqrt(n * m) + 21
        assert n < m or terms <= m + 1

    @pytest.mark.parametrize("m", [16, 1024])
    def test_refuses_n_m_past_binary64(self, m):
        # the last end NM has no binary64 value from 2^1024 - 2^970 on, where
        # transfer_at once ended in a bare OverflowError; one below, it answers
        f = GridFunction.from_callable(np.cos, m)
        below = (2 ** 1024 - 2 ** 970) // m - 1
        got = transfer.transfer_at(f, NcfParams(below), [0.0, 0.3, 1.0])
        assert np.all(np.isfinite(got)) and np.ptp(got) == 0.0  # the law no longer sees x
        with pytest.raises(ValueError, match=rf"M = {m} cells need N M < 2\^1024 - 2\^970"):
            transfer.transfer_at(f, NcfParams(below + 1), [0.3])


def _mp_branch_sum(f, n, x):
    """The operator on the grid function f at the points x, at 30 digits:
    the branches N..NM one by one, and the rest, which lands in cell 0, at
    its exact mass and first moment."""
    m = f.resolution
    with mpmath.workdps(30):
        v = [mpmath.mpf(float(t)) for t in f.values]
        out = []
        for t in map(mpmath.mpf, map(float, x)):
            total = mpmath.mpf(0)
            for i in range(n, n * m + 1):
                z = t + i
                my = n * m / z
                c = min(int(my), m - 1)
                total += (t + n) / (z * (z + 1)) * (v[c] + (my - c) * (v[c + 1] - v[c]))
            z = t + n * m + 1
            total += (t + n) * (v[0] / z + n * m * (mpmath.psi(1, z) - 1 / z) * (v[1] - v[0]))
            out.append(float(total))
        return np.array(out)


class TestGridKernel:
    """apply_transfer forms the groups once a call, as series in the node
    index, and the singles and the last term at every node: the operator
    at the nodes, as the point form transfer_at gives it."""

    @pytest.mark.parametrize("m", [1, 2, 3, 77, 1024, 8192])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 1000, 10**6, 10**20])
    def test_matches_the_operator_at_the_nodes(self, n, m):
        # every cut-off of interest: below, at and past I = max(N+1, 20), and
        # at and past NM, where it leaves no branch out.  f has Lipschitz norm
        # 1 and is linear where the fold lands, [0, N/(i_max+1)], so every cut
        # gives the whole operator.  M < 2048 also covers NM < I, where cell 0
        # is the only group, and N >= M; N = 10^20 puts NM past 2^63.  At
        # M = 8192 every 64th node keeps the point form quick
        params, first = NcfParams(n), max(n + 1, 20)
        x, v = np.linspace(0.0, 1.0, m + 1), np.random.default_rng(n + m).random(m + 1)
        at = slice(None, None, 64) if m > 2048 else slice(None)
        for i_max in (None, n - 1, 19, first - 1, first, n * m, n * m + 1):
            if i_max is not None and i_max < max(n - 1, 19):
                continue
            g = v if i_max is None else np.where(x <= n / (i_max + 1) + 1.0 / m, 0.25 + 0.5 * x, v)
            f = GridFunction(g / lipschitz_norm(GridFunction(g)).total)
            want = transfer.transfer_at(f, params, x[at], i_max)
            got = apply_transfer(f, params, i_max).values[at]
            assert np.max(np.abs(got - want)) <= 1e-14, i_max

    @pytest.mark.parametrize("n,m", [(10**160, 64), (10**300, 64), (10**303, 1024),
                                     (10**305, 1024), (10**306, 64)])
    def test_past_the_square_root_of_binary64(self, n, m):
        # f(x) = x is mapped to N (x+N) S(x+N) = 1/2 to rounding.  apply_transfer
        # was 0.5 off at N = 10^200, M = 64: its group masses u0 u1 cnt
        # underflowed in u0 u1 past x+i = 1e154, and M (x+i) overflowed once
        # N M^2 passed binary64 (N = 10^303 at M = 1024).  The point form,
        # which formed u0 - u1 instead, was right, and now shares its
        # formulas.  Near the top of binary64 both once lost bits alike where
        # the masses over x+N turned subnormal: 1.2e-12 at N = 10^305,
        # M = 1024 and 6.5e-12 at N = 10^306, M = 64
        params, f = NcfParams(n), GridFunction.from_callable(lambda x: x, m)
        with np.errstate(over="raise", invalid="raise"):
            for got in (apply_transfer(f, params).values, transfer.transfer_at(f, params, f.nodes)):
                assert np.max(np.abs(got - 0.5)) <= 1e-15

    def test_white_noise_against_thirty_digits(self):
        # raw white noise, slopes up to M: 8.3e-15 at the checked nodes, where
        # the per-node branch sum it replaced was 8.4e-15 off; the bound is
        # twice that
        self._check_white_noise(5)

    @pytest.mark.parametrize("n", [1, 2])
    def test_white_noise_small_n_against_thirty_digits(self, n):
        # 1.13e-14 at N=1 and 7.5e-15 at N=2, under the same bound as N=5
        self._check_white_noise(n)

    @staticmethod
    def _check_white_noise(n):
        m = 1024
        f = _random_grid(m, seed=2024)
        x = f.nodes[::64]
        got = apply_transfer(f, NcfParams(n)).values[::64]
        assert np.max(np.abs(got - _mp_branch_sum(f, n, x))) <= 1.7e-14


class TestGroupTerms:
    """_grid_terms forms each group's mass and offset by the formulas that
    apply_transfer sums: from the exact thresholds, u0 u1 cnt for the mass,
    and the offset from exact integer numerators."""

    @pytest.mark.parametrize("n", [1, 5])
    def test_against_forty_digits(self, n):
        # every 1024th node at M = 8192: the masses were 1.8e-14 (N=1) and
        # 4.6e-14 (N=5) off relative, from u0 - u1, and are now 3.2e-16; the
        # offsets b/a were 2.1e-14 and 5.7e-14 off, and are now 0.93e-14 and
        # 2.5e-14, the rest from NM (C(u0) - C(u1))
        m, nm = 8192, n * 8192
        first = max(n + 1, 20, math.isqrt(nm) + 1)
        js = np.arange(0, m + 1, 1024)
        mass = offset = 0.0
        with mpmath.workdps(40):
            s = lambda z: mpmath.psi(1, z) - 1 / z
            for r0, _, _, _, k, a, b in transfer._grid_terms(NcfParams(n), js.astype(float), m, None):
                for row, j in enumerate(js[r0:r0 + a.shape[0]]):
                    x = mpmath.mpf(int(j)) / m
                    for col, cell in enumerate(k.astype(int)):
                        # the branches i with NM/(x+i) in cell k, from I on
                        i0, i1 = (max(first, (nm * m // c - j) // m + 1) for c in (cell + 1, cell))
                        if i0 < i1:
                            want = 1 / (x + i0) - 1 / (x + i1)
                            mass = max(mass, abs(a[row, col] / want - 1))
                            moment = nm * (s(x + i0) - s(x + i1)) - cell * want
                            offset = max(offset, abs((b[row, col] - moment) / want))
        assert mass <= 1e-15
        assert offset <= 4e-14


class TestCutOperator:
    """With i_max the branches N..i_max are summed and the rest folds into one
    term at its exact mean; the branches below i_max are grouped on the
    cells, as without it."""

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_branch_by_branch_sum(self, n, m):
        # f is random, scaled to Lipschitz norm 1 as in criterion 04: a term
        # point rounded by one ulp moves f(y) by ulp(y) |f'|, and the slopes
        # of raw random samples (up to M) would make that 1e-13 at low cut-offs
        params = NcfParams(n)
        v = np.random.default_rng(7 * n + m).random(m + 1)
        f = GridFunction(v / lipschitz_norm(GridFunction(v)).total)
        x = f.nodes[::4]
        first = max(n + 1, 20, math.isqrt(n * m) + 1)
        for i_max in sorted({19, 20, first - 1, first, first + 1, 1000, 4000}):
            want = _branch_by_branch(f, n, x, i_max - n + 1)
            got = transfer.transfer_at(f, params, x, i_max)
            assert np.max(np.abs(got - want)) <= 1e-15, i_max  # 2.1e-16 measured

    @pytest.mark.parametrize("n,m,i_max", [(1, 1024, 1000), (2, 1024, 19), (5, 256, 35),
                                           (5, 256, 36), (5, 8192, 4000), (10**3, 256, 10**4)])
    def test_charge_at_most_the_exact_operators(self, n, m, i_max, monkeypatch):
        # a cut-off sum takes at most one term a point more than the exact
        # operator, about 2 sqrt(NM), however large i_max
        charges = []
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        x = np.linspace(0.0, 1.0, m + 1)
        next(transfer._branch_terms(NcfParams(n), x, m))
        next(transfer._branch_terms(NcfParams(n), x, m, i_max))
        exact, cut = charges
        assert cut <= exact + (m + 1)
        assert cut <= (m + 1) * (2 * math.sqrt(n * m) + 3)


class TestAssembledOperator:
    """iterates() takes n branch sums (apply_transfer's); the point form
    transfer_at is its oracle.  The class keeps the name it had when
    iterates could step an assembled operator, so that its test ids stay."""

    @pytest.mark.parametrize("i_max", [None, 1000, 4000])
    @pytest.mark.parametrize("m", [256, 1024, 2048])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_branch_sum_at_nodes(self, n, m, i_max):
        # with i_max the branches above it enter as one term at their exact
        # mean, which is exact for f linear where they land, [0, N/(i_max+1)]
        params = NcfParams(n)
        f = _random_grid(m, seed=n * m)
        if i_max is not None:
            near0 = f.nodes <= n / (i_max + 1) + 1.0 / m
            f = GridFunction(np.where(near0, 0.25 + 0.5 * f.nodes, f.values))
        if i_max is None:
            got = next(transfer.iterates(f, params, 1))
        else:
            got = apply_transfer(f, params, i_max).values
        want = transfer.transfer_at(f, params, f.nodes, i_max)
        assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("i_max", [None, 4000])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stochastic(self, n, i_max):
        m = 1024
        # the branch sum's terms, with and without the cut-off: weights >= 0
        # that sum to 1 per row, at points in [0, 1] that fall along a row
        for _, w, y in transfer._branch_terms(NcfParams(n), np.linspace(0, 1, m + 1), m, i_max):
            assert np.all(w >= 0) and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-14
            assert y.min() >= 0.0 and y.max() <= 1.0 and np.all(np.diff(y, axis=1) <= 0)
        _check_stochastic(n, m, i_max)

    # the ids end in the bytes of a former assembled layout, kept so the ids stay
    @pytest.mark.parametrize("n,m", [pytest.param(1, 1024, id="1-1024-1057800"),
                                     pytest.param(1000, 2048, id="1000-2048-44717376"),
                                     pytest.param(2000, 1024, id="2000-1024-8429600")])
    def test_fold_keeps_the_bytes(self, n, m, monkeypatch):
        # a run holds apply_transfer's tables in arrays of just the bytes
        # they are held at: 8 (6 (M+1) + 21 series) for the groups' and 24 (I
        # - N) (M+1) for the singles', at most 24 bytes a unit a step is
        # charged.  It gathers the single i = N, which lands in cell M - 1 at
        # x = 0, the last row, also once N >= M leaves no other
        monkeypatch.setattr(transfer, "_held", {})
        list(transfer.iterates(_random_grid(m, seed=n), NcfParams(n), 3))
        (_, _, first, *_), series, units = transfer._branch_sum(n, m, None)
        sizes = {key[0]: size for key, (size, _) in transfer._held.items()}
        assert sizes == {"groups": 8 * (6 * (m + 1) + 21 * series),
                         "singles": 24 * (first - n) * (m + 1)}
        held = tuple(tables for _, tables in transfer._held.values())
        assert sum(a.nbytes for a in _held_arrays(held)) == sum(sizes.values()) <= 24 * units
        (c, _, _), = transfer._held[("singles", n, m, max(n + 1, 20), transfer._CHUNK)][1][0]
        assert c.shape[1] >= 1 and c[-1, -1] == m - 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_forty_iterates_match_branch_sum(self, n):
        params = NcfParams(n)
        f = g = GridFunction.from_callable(lambda x: np.cos(5 * x) + x, 512)
        for k, h in enumerate(transfer.iterates(f, params, 40)):
            g = apply_transfer(g, params)
            assert np.max(np.abs(h - g.values)) <= 1e-13, k

    @pytest.mark.parametrize("n", [20, 50])
    def test_all_tail_cutoff(self, n):
        # i_max = N - 1 keeps no branch: one term carries every branch at
        # their exact mean, so the identity, linear everywhere, is mapped
        # exactly; the mean point was once clamped at 0
        params, m = NcfParams(n), 256
        f = GridFunction.from_callable(lambda x: x, m)
        got = transfer.transfer_at(f, params, f.nodes, n - 1)
        want = _exact(f, n, f.nodes[::4])
        assert np.max(np.abs(got[::4] - want)) <= 1e-15

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_short_runs_keep_branch_sum(self, steps):
        # every run takes branch sums, a short one at N=2, M=1024 too
        params = NcfParams(2)
        f = g = _random_grid(1024, seed=5)
        got = list(transfer.iterates(f, params, steps))
        assert len(got) == steps
        for h in got:
            g = apply_transfer(g, params)
            assert np.array_equal(h, g.values)

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_short_runs_are_a_long_runs_first_steps(self, steps, monkeypatch):
        # a short run is the first steps of a long one to the bit, its branch
        # sums charged together at the call, before the first is taken, and
        # each again as it is taken; a 0-step run is charged 0
        params, f, one = NcfParams(1), _random_grid(128, seed=5), 129 * 30 + 10 * 12
        want = list(transfer.iterates(f, params, 40))[:steps]
        charges = []
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        run = transfer.iterates(f, params, steps)
        assert charges == [steps * one]
        got = list(run)
        assert len(got) == steps and all(np.array_equal(g, w) for g, w in zip(got, want))
        assert charges == [steps * one] + [one] * steps


class TestOperatorWork:
    """_branch_terms and apply_transfer size, chunk and charge every
    evaluation of the operator."""

    def test_branch_sum_calls_f_in_chunks(self):
        params, m, i_max = NcfParams(5), 8192, 4000
        g = _random_grid(m, seed=3)
        sizes = []

        def f(y):
            sizes.append(y.size)
            return g(y)

        out = transfer.transfer_at(f, params, g.nodes, i_max)
        assert max(sizes) <= transfer._CHUNK
        # on the 2^-20 cells of a callable, 5 * 2^20 = 5242880: the branches
        # 5..2289, the cells 2289..1310 (5242880 // 4001) and cell 0, whose
        # group starts at 4001
        assert sum(sizes) == (m + 1) * (2285 + 980 + 1)
        want = _branch_by_branch(g, 5, g.nodes[::8], i_max - 5 + 1)
        assert np.max(np.abs(out[::8] - want)) <= 2e-15  # 4.4e-16 measured

    def test_branch_sum_peak_memory(self):
        # one branch sum at M=8192, N=5, i_max=4000 in a fresh interpreter
        # peaked at about 340 MB when it took 8,000,000 entries at a time; NumPy
        # alone takes about 30 MB.  VmHWM is the peak of this process only:
        # ru_maxrss would carry the spawning process's peak across exec.
        if not Path("/proc/self/status").exists():
            pytest.skip("VmHWM is read from /proc")
        import ncf
        src = str(Path(ncf.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import numpy as np; "
                "from ncf import GridFunction, NcfParams, apply_transfer; "
                "f = GridFunction(np.random.default_rng(0).random(8193)); "
                "apply_transfer(f, NcfParams(5), i_max=4000); "
                "print([l.split()[1] for l in open('/proc/self/status') "
                "if l.startswith('VmHWM:')][0])")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert int(r.stdout) / 1024 < 120

    @pytest.mark.parametrize("n", [1, 50])
    def test_branch_sum_peak_per_unit(self, n, monkeypatch):
        # apply_transfer takes its nodes, groups and thresholds a block at a
        # time: at M = 2^18 its traced peak is 1.0 (N=1) and 3.1 (N=50) bytes
        # a charged unit, where one pass over every node at once took 9.9
        # and 36.8
        charges = []
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        f = _random_grid(2 ** 18, seed=8)
        tracemalloc.start()
        try:
            apply_transfer(f, NcfParams(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / sum(charges) <= 6

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 1024), (5, 1024), (50, 256), (1000, 512),
                                     (10**6, 256)])
    def test_build_is_one_branch_sum(self, n, m, monkeypatch):
        # a run forms apply_transfer's tables in its first branch sum, one
        # pass each, and reads them held at every later step: at most 24
        # bytes for each unit a step is charged, the 40 charged at the call
        passes, charges = [], []
        for name in ("_tables", "_singles"):
            monkeypatch.setattr(transfer, name, lambda *args, name=name, form=getattr(transfer, name):
                                passes.append(name) or form(*args))
        monkeypatch.setattr(transfer, "_held", {})
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append((cost, what)))
        list(transfer.iterates(GridFunction.constant(1.0, m), NcfParams(n), 40))
        assert passes == ["_tables", "_singles"]
        (cost, what), = set(charges[1:])
        assert charges == [(40 * cost, what)] + [(cost, what)] * 40
        assert what == "transfer operator"
        assert sum(e[0] for e in transfer._held.values()) <= 24 * cost

    @pytest.mark.parametrize("n,i_max", [(1, None), (5, 4000), (5, 100), (5, 19)])
    def test_budget_counts_row_branch_entries(self, n, i_max, monkeypatch):
        # apply_transfer costs, at each point, its singles
        # N..I-1, I = max(N+1, 20), its last term and its _CHEB coefficients,
        # and _CHEB samples for each group and each threshold between them.
        # i_max leaves out the cells below NM // (i_max + 1), whose groups lie
        # above it (none once i_max >= NM); below I it leaves the branches
        # N..i_max and the last term
        params, m, cheb = NcfParams(n), 64, transfer._CHEB
        first = max(n + 1, 20)
        if i_max is None or i_max >= n * m:
            singles, groups, thresholds = first - n, n * m // first, n * m // first
        elif i_max + 1 > first:
            thresholds = n * m // first - n * m // (i_max + 1)
            singles, groups = first - n, thresholds + 1
        else:
            singles, groups, thresholds = i_max - n + 1, 0, 0
        cost = (m + 1) * (singles + 1 + cheb) + cheb * (groups + thresholds)
        f = GridFunction.constant(1.0, m)
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        apply_transfer(f, params, i_max)
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError, match="transfer operator"):
            apply_transfer(f, params, i_max)
        if i_max is None:  # iterates never cuts the branches, and charges its steps together
            monkeypatch.setenv("NCF_BUDGET", str(3 * cost))
            list(transfer.iterates(f, params, 3))
            monkeypatch.setenv("NCF_BUDGET", str(3 * cost - 1))
            with pytest.raises(BudgetExceededError, match="transfer operator"):
                transfer.iterates(f, params, 3)

    def test_one_charge_per_evaluation(self, monkeypatch):
        charges = []
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params, f = NcfParams(1), GridFunction.constant(1.0, 128)
        gausskuzmin.run_experiment(gausskuzmin.lebesgue_measure(), params, n_max=40, m=128)
        # the 129 points j/128 as the grid's samples, the 40 steps' products
        # by the 25 x 25 spectral matrix and by the 129 x 25 integrals, then
        # the matrix's build: 25 x 25 entries, each of the direct branches
        # 1..39 and the 25 monomials
        assert charges == [129, 40 * 25 * (25 + 129), 25 * 25 * (39 + 25)]
        charges.clear()
        gausskuzmin.run_experiment(gausskuzmin.lebesgue_measure(), NcfParams(1001), n_max=40, m=128,
                                   require_fit=False)
        # past N = 10^3 the grid's samples, then 40 branch sums, charged
        # together before the first and each as it is taken: at N=1001, M=128, at each of the 129
        # nodes the single 1001, the last term and 10 coefficients, and 10
        # samples for each of the groups of cells 127..1 and each threshold
        # between them
        assert charges == [129, 40 * (129 * 12 + 10 * 254)] + [129 * 12 + 10 * 254] * 40
        charges.clear()
        list(transfer.iterates(f, params, 2))
        # two branch sums: at each of the 129 nodes the singles 1..19, the last
        # term and 10 coefficients, and 10 samples for each of the 6 groups and
        # 6 thresholds
        assert charges == [2 * (129 * 30 + 10 * 12)] + [129 * 30 + 10 * 12] * 2

    def test_grid_kernel_takes_no_point_values(self, monkeypatch):
        # apply_transfer places every term by its cell index and every group
        # by its mass and first moment: it interpolates no point of f, and
        # takes no term's point form
        calls = []
        monkeypatch.setattr(GridFunction, "__call__", lambda f, y: calls.append("f(y)"))
        monkeypatch.setattr(transfer, "_branch_terms", lambda *args: calls.append("points"))
        f = _random_grid(1024, seed=2)
        for n, i_max in ((1, None), (5, None), (5, 4000), (5, 19), (20, 19), (1000, None)):
            apply_transfer(f, NcfParams(n), i_max)
        list(transfer.iterates(f, NcfParams(2), 3))
        assert calls == []

    def test_huge_grid_charged_before_sampling(self, monkeypatch):
        monkeypatch.setenv("NCF_BUDGET", "1000")
        with pytest.raises(BudgetExceededError, match="grid samples"):
            GridFunction.from_callable(np.cos, 10**12)


class TestOperatorSlot:
    """A run of iterates reads the tables apply_transfer holds for its grid,
    which the first step forms: read-only, charged as if formed, and giving
    a fresh run's bits.  The class keeps the name it had when an assembled
    operator had a slot of its own, so that its test ids stay."""

    @pytest.mark.parametrize("n,m", [(1, 128), (5, 64), (1000, 64)])
    def test_hit_is_a_fresh_build(self, n, m, monkeypatch):
        monkeypatch.setattr(transfer, "_held", {})
        params, f = NcfParams(n), _random_grid(m, seed=4)
        list(transfer.iterates(f, params, 3))
        held = dict(transfer._held)
        hit = list(transfer.iterates(f, params, 40))
        assert transfer._held == held  # read, not formed again
        transfer._held.clear()
        fresh = list(transfer.iterates(f, params, 40))
        assert all(np.array_equal(h, v) for h, v in zip(hit, fresh))

    def test_operator_is_read_only(self, monkeypatch):
        monkeypatch.setattr(transfer, "_held", {})
        list(transfer.iterates(_random_grid(64, seed=5), NcfParams(2), 3))
        assert {k[0] for k in transfer._held} == {"groups", "singles"}
        arrays = list(_held_arrays(tuple(tables for _, tables in transfer._held.values())))
        for e in arrays:
            with pytest.raises(ValueError, match="read-only"):
                e += 1
        assert arrays

    def test_hit_is_charged_as_a_build(self, monkeypatch):
        # N=1, M=64: at each of the 65 nodes the singles 1..19, the last term
        # and 10 coefficients, and 10 samples for each of the 3 groups and 3
        # thresholds, 3 steps; the charge comes before the lookup, so a
        # refusal is the same whether the tables are held or not
        monkeypatch.setattr(transfer, "_held", {})
        cost, f, params = 3 * (65 * 30 + 10 * 6), _random_grid(64, seed=7), NcfParams(1)
        for _ in ("cold", "held"):
            monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
            with pytest.raises(BudgetExceededError, match="transfer operator"):
                transfer.iterates(f, params, 3)
            monkeypatch.setenv("NCF_BUDGET", str(cost))
            list(transfer.iterates(f, params, 3))
        assert len(transfer._held) == 2

    def test_threads_on_two_grids_get_the_serial_results(self):
        # two threads stepping different grids at once read and form each
        # other's tables in one store; every run gives the serial run's bits
        cases = [(NcfParams(1), _random_grid(256, seed=8)), (NcfParams(2), _random_grid(128, seed=9))]
        want = [list(transfer.iterates(f, params, 30)) for params, f in cases]
        start = threading.Barrier(2)

        def runs(params, f):
            start.wait()
            return [list(transfer.iterates(f, params, 30)) for _ in range(20)]

        with ThreadPoolExecutor(2) as pool:
            got = [r.result() for r in [pool.submit(runs, *case) for case in cases]]
        for runs_, serial in zip(got, want):
            assert all(np.array_equal(g, w) for run in runs_ for g, w in zip(run, serial))



def _mp_spectral_row(n, r):
    """Row r of the spectral matrix at 40 digits and more: at the float nodes,
    the branches N..N+59 one by one, and the rest through the monomials of
    each L_c, with sum_{i >= I} 1/((x+i)^q (x+i+1)) = sum_{k=2..q} (-1)^(q-k)
    zeta(k, x+I) + (-1)^(q-1)/(x+I) exactly, mpmath's Hurwitz zeta at 120
    digits, which cover the cancellation of that sum."""
    with mpmath.workdps(120):
        xs = [mpmath.mpf(float(t)) for t in transfer._LOBATTO]
        x, first = xs[r], n + 60
        coef = []  # coef[c][k]: the coefficient of w^k in L_c(w)
        for c, xc in enumerate(xs):
            p, d = [mpmath.mpf(1)], mpmath.mpf(1)
            for j, xj in enumerate(xs):
                if j != c:
                    p = [a - xj * b for a, b in zip([0] + p, p + [0])]
                    d *= xc - xj
            coef.append([v / d for v in p])
        a = x + first
        s = [mpmath.fsum((-1) ** (q - k) * mpmath.zeta(k, a) for k in range(2, q + 1))
             + (-1) ** (q - 1) / a for q in range(1, len(xs) + 1)]
        row = []
        for p in coef:
            direct = mpmath.fsum((x + n) / ((x + i) * (x + i + 1))
                                 * mpmath.polyval(p[::-1], n / (x + i)) for i in range(n, first))
            row.append(float(direct + (x + n) * mpmath.fsum(
                v * mpmath.mpf(n) ** k * s[k] for k, v in enumerate(p))))
        return np.array(row)


def _cell_recipe(n):
    """The spectral matrix from the point terms of transfer_at on cells of
    2^-20: each term's weight on the Lagrange basis at its point, exact to
    the cells' O(h^2)."""
    x = transfer._LOBATTO
    out = np.zeros((x.size, x.size))
    for r0, w, y in transfer._branch_terms(NcfParams(n), x, transfer._CALLABLE_CELLS):
        out[r0:r0 + w.shape[0]] += np.einsum("rt,rtc->rc", w, transfer._lagrange(y))
    return out


class TestSpectralOperator:
    """_spectral(N): the operator as the collocation matrix at the 25
    Chebyshev-Lobatto points of [0, 1], in closed form, kept per N."""

    def test_wirsing_constant(self):
        # lambda_2 at N=1 is minus Wirsing's constant, 0.30366300289873265859...
        # (OEIS A038517)
        ev = np.linalg.eigvals(transfer._spectral(1))
        lam = ev[np.argsort(-np.abs(ev))]
        assert abs(lam[0] - 1.0) <= 1e-14
        assert abs(lam[1] + 0.3036630028987326586) <= 1e-14

    @pytest.mark.parametrize("n,r", [(1, 7), (5, 3)])
    def test_row_against_mpmath(self, n, r):
        assert np.max(np.abs(transfer._spectral(n)[r] - _mp_spectral_row(n, r))) <= 2e-15

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 1000])
    def test_rows_sum_to_one(self, n):
        assert np.max(np.abs(transfer._spectral(n).sum(axis=1) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_closed_form_is_the_cell_recipe(self, n):
        assert np.max(np.abs(transfer._spectral(n) - _cell_recipe(n))) <= 1e-10

    def test_kept_read_only(self):
        a = transfer._spectral(2)
        assert transfer._spectral(2) is a
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0

    def test_integral_rows_exact_for_the_basis(self):
        # int_0^x of the interpolant of x^p, p <= 24, is x^(p+1)/(p+1)
        x = np.linspace(0.0, 1.0, 65)
        w = transfer._integral_rows(x)
        for p in (0, 1, 7, 24):
            assert np.max(np.abs(w @ transfer._LOBATTO ** p - x ** (p + 1) / (p + 1))) <= 1e-15
        assert np.array_equal(transfer._grid_integrals(64), w)
        assert np.array_equal(transfer._integral_rows(0.3), transfer._integral_rows([0.3])[0])
        with pytest.raises(ValueError, match="read-only"):
            transfer._grid_integrals(64)[0, 0] = 1.0


class TestSpectralTail:
    """_spectral_tail(N, I): the branches i >= I of _spectral(N), those from
    N + 128 on by Gregory's end correction."""

    @pytest.mark.parametrize("n", [1, 5, 50, 1000])
    def test_from_n_is_the_spectral_matrix(self, n):
        assert np.max(np.abs(transfer._spectral_tail(n, n) - transfer._spectral(n))) <= 6e-15

    @pytest.mark.parametrize("moved", [0, 128, 500, 3000])
    @pytest.mark.parametrize("n", [1, 5, 50, 1000])
    def test_moved_starts_against_direct_sums(self, n, moved):
        # the 2000 branches from a start: the difference of two tails
        start = n + moved
        direct = transfer._spectral_rows(n, np.arange(start, start + 2000)).sum(axis=0)
        got = transfer._spectral_tail(n, start) - transfer._spectral_tail(n, start + 2000)
        assert np.max(np.abs(got - direct)) <= 2e-15

    @pytest.mark.parametrize("n", [1, 1000])
    @pytest.mark.parametrize("moved", [0, 128, 10 ** 6, 2 ** 60, 10 ** 300])
    def test_masses_telescope(self, n, moved):
        # T(I) 1 = sum_{i >= I} P_i(x) = (x+N)/(x+I); a start of 10^300 takes
        # P_i in the form that does not overflow
        x, start = transfer._LOBATTO, n + moved
        want = (x + n) / (x + float(start))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = transfer._spectral_tail(n, start).sum(axis=1)
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15


def _fresh(f, params, i_max=None):
    """apply_transfer's values from an empty table store, which it leaves as it was."""
    held = transfer._held
    transfer._held = {}
    try:
        return apply_transfer(f, params, i_max).values
    finally:
        transfer._held = held


def _held_arrays(tables):
    """Every array of the nested tuples of a held table set."""
    for e in tables:
        if isinstance(e, np.ndarray):
            yield e
        elif isinstance(e, tuple):
            yield from _held_arrays(e)


def _counting_tables(monkeypatch):
    """An empty table store, and the (N, M) of each group set formed."""
    formed, tables = [], transfer._tables
    monkeypatch.setattr(transfer, "_held", {})
    monkeypatch.setattr(transfer, "_tables", lambda n, m, layout: formed.append((n, m))
                        or tables(n, m, layout))
    return formed


def _counting_singles(monkeypatch):
    """The (N, M) of each singles' table formed."""
    formed, singles = [], transfer._singles
    monkeypatch.setattr(transfer, "_singles", lambda n, m, layout: formed.append((n, m))
                        or singles(n, m, layout))
    return formed


class TestHeldTables:
    """apply_transfer keeps the tables that read no f for the next call on
    their key: the group sets by (N, M, i_max), the singles' by (N, M, I).
    They are read-only, the least recently used dropped past 16 MiB, and a
    table larger than that formed a block at a time."""

    def test_alternating_keys_match_a_cleared_store(self, monkeypatch):
        hypothesis = pytest.importorskip("hypothesis")
        st, formed = hypothesis.strategies, _counting_tables(monkeypatch)
        singles = _counting_singles(monkeypatch)
        key = st.tuples(st.sampled_from([1, 2, 5, 50, 1000, 10**6]),
                        st.sampled_from([1, 2, 3, 64, 1024, 8192]), st.integers(0, 2))

        # the tables of two keys at M <= 8192 take at most 8.6 MB: all stay held
        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(st.lists(key, min_size=2, max_size=2, unique=True),
                          st.integers(0, 2 ** 32 - 1))
        def check(keys, seed):
            transfer._held.clear()
            rng = np.random.default_rng(seed)
            keys = [(n, m, (None, max(n - 1, 19), max(n - 1, 1000))[c]) for n, m, c in keys]
            formed.clear()
            singles.clear()
            for n, m, i_max in keys * 3:
                f = GridFunction(rng.normal(size=m + 1))
                got = apply_transfer(f, NcfParams(n), i_max).values
                assert np.array_equal(got, _fresh(f, NcfParams(n), i_max))
            # a fresh table for each check, and one a key: the singles' by (N, M, I)
            firsts = {(n, m, transfer._layout(n, m, i_max, False)[2]) for n, m, i_max in keys}
            assert len(formed) == 6 + len(set(keys)) and len(singles) == 6 + len(firsts)
            assert {k[0] for k in transfer._held} == {"groups", "singles"}

        check()

    def test_cutoffs_of_one_grid_share_the_singles(self, monkeypatch):
        # I = 20 at N=2 for every i_max >= 19: one singles' table for three
        # group sets, of which i_max=19 has none (its key ends in 20 as well)
        formed, singles = _counting_tables(monkeypatch), _counting_singles(monkeypatch)
        f = _random_grid(1024, seed=5)
        cutoffs = (None, 19, 1000)
        want = {i_max: _fresh(f, NcfParams(2), i_max) for i_max in cutoffs}
        formed.clear()
        singles.clear()
        for i_max in cutoffs * 2:
            assert np.array_equal(apply_transfer(f, NcfParams(2), i_max).values, want[i_max])
        assert formed == [(2, 1024)] * 3 and singles == [(2, 1024)]
        assert sorted(k[0] for k in transfer._held) == ["groups"] * 3 + ["singles"]

    def test_held_arrays_are_read_only(self, monkeypatch):
        formed, singles = _counting_tables(monkeypatch), _counting_singles(monkeypatch)
        f = _random_grid(1024, seed=9)
        want = apply_transfer(f, NcfParams(5), 4000).values
        arrays = {k[0]: list(_held_arrays(e)) for k, e in transfer._held.items()}
        # the singles' table: gathered rows (c, lo, hi) of one node block,
        # a column for each of 5..19
        assert formed == singles == [(5, 1024)] and len(arrays["groups"]) > 10
        assert [a.dtype.kind for a in arrays["singles"]] == ["i", "f", "f"]
        assert [a.shape for a in arrays["singles"]] == [(1025, 15)] * 3
        for a in arrays["groups"] + arrays["singles"]:
            with pytest.raises(ValueError, match="read-only"):
                a += 1
        assert np.array_equal(apply_transfer(f, NcfParams(5), 4000).values, want)
        assert formed == singles == [(5, 1024)]

    def test_sweep_stays_within_the_bound(self, monkeypatch):
        # at M=40,000 the singles' table takes 18.2 MB at N=1, not held, and
        # 14.4 MB at N=5, and N=1000's group set 15.3 MB; each table's count
        # of its bytes is the sum of its arrays'
        _counting_tables(monkeypatch)
        seen = set()
        for n in (1, 5, 50, 1000):
            for m in (1, 1024, 8192, 40_000):
                for i_max in (None, max(n - 1, 1000)):
                    apply_transfer(_random_grid(m, seed=n + m), NcfParams(n), i_max)
                    sizes = [sum(a.nbytes for a in _held_arrays(e[1:]))
                             for e in transfer._held.values()]
                    assert [e[0] for e in transfer._held.values()] == sizes
                    assert sum(sizes) <= transfer._HELD_BYTES == 16 << 20
                    seen |= set(transfer._held)
        assert len(seen) > 20 and len(transfer._held) < len(seen)

    def test_least_recently_used_goes_first(self, monkeypatch):
        # three keys' tables in a bound that holds N=1's and N=5's: the
        # tables not used since go first, group sets and singles' alike
        formed, singles = _counting_tables(monkeypatch), _counting_singles(monkeypatch)
        f = {n: _random_grid(8192, seed=n) for n in (1, 2, 5)}
        for n in f:
            apply_transfer(f[n], NcfParams(n))
        size = {k[:2]: e[0] for k, e in transfer._held.items()}
        assert size["groups", 1] < size["groups", 2] < size["groups", 5]
        assert size["singles", 1] > size["singles", 2] > size["singles", 5]
        monkeypatch.setattr(transfer, "_HELD_BYTES", sum(size[k, n] for k in ("groups", "singles")
                                                         for n in (1, 5)))
        transfer._held.clear()
        formed.clear()
        singles.clear()
        # 1 drops 2's groups, 5 2's singles; then 2 drops 5's and 1's groups
        for n in (2, 1, 5, 1, 2):
            apply_transfer(f[n], NcfParams(n))
        assert formed == singles == [(2, 8192), (1, 8192), (5, 8192), (2, 8192)]
        assert [k[:2] for k in transfer._held] == [("singles", 1), ("groups", 2), ("singles", 2)]

    def test_set_above_the_bound_is_not_held(self, monkeypatch):
        # N=1, M=2^18 takes 17.0 MB in its group set and 120 MB in its
        # singles' table: formed a block at a time, the store left as it was
        formed, singles = _counting_tables(monkeypatch), _counting_singles(monkeypatch)
        small, f = _random_grid(64, seed=1), _random_grid(2 ** 18, seed=2)
        apply_transfer(small, NcfParams(1))
        before = dict(transfer._held)
        want = apply_transfer(f, NcfParams(1)).values
        assert transfer._held == before
        assert np.array_equal(apply_transfer(f, NcfParams(1)).values, want)
        assert formed == singles == [(1, 64), (1, 2 ** 18), (1, 2 ** 18)]
        # a table that fits the bound exactly is held, one byte more is not
        size = {k[0]: e[0] for k, e in before.items()}
        groups = size["groups"]
        for bound, kept in ((groups - 1, []), (groups, ["groups"]),
                            (groups + size["singles"] - 1, ["groups"]),
                            (groups + size["singles"], ["groups", "singles"])):
            monkeypatch.setattr(transfer, "_HELD_BYTES", bound)
            transfer._held.clear()
            apply_transfer(small, NcfParams(1))
            assert [k[0] for k in transfer._held] == kept

    @pytest.mark.parametrize("n,m,kept", [(5, 40_000, "groups"), (50, 2 ** 18, "singles")])
    def test_tables_of_one_call_never_drop_each_other(self, n, m, kept, monkeypatch):
        # at N=5, M=40,000 the group set (5.3 MB) and the singles' table
        # (14.4 MB) each fit the bound but not both: the set, formed first,
        # stays.  At N=50, M=2^18 the group set (99 MB) does not fit and the
        # singles' table (6.3 MB) does
        formed, singles = _counting_tables(monkeypatch), _counting_singles(monkeypatch)
        f = _random_grid(m, seed=6)
        want = _fresh(f, NcfParams(n))
        formed.clear()
        singles.clear()
        for _ in range(2):
            assert np.array_equal(apply_transfer(f, NcfParams(n)).values, want)
        assert [k[0] for k in transfer._held] == [kept]
        assert (len(formed), len(singles)) == ((1, 2) if kept == "groups" else (2, 1))

    @pytest.mark.parametrize("n,i_max", [(1, None), (5, 4000), (50, None)])
    def test_hit_is_charged_as_a_miss(self, n, i_max, monkeypatch):
        formed = _counting_tables(monkeypatch)
        charges, f = [], _random_grid(512, seed=3)
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append((cost, what)))
        apply_transfer(f, NcfParams(n), i_max)
        apply_transfer(f, NcfParams(n), i_max)
        assert len(formed) == 1 and charges[0] == charges[1] and len(charges) == 2

    def test_budget_refused_before_any_table(self, monkeypatch):
        formed, thresholds = _counting_tables(monkeypatch), []
        f, params = _random_grid(1024, seed=4), NcfParams(5)
        counted = transfer._thresholds
        monkeypatch.setattr(transfer, "_thresholds", lambda *a: thresholds.append(a) or counted(*a))
        cost = 1025 * 26 + 10 * (2 * (5 * 1024 // 20))  # singles 5..19, groups and thresholds 256
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError, match="transfer operator"):
            apply_transfer(f, params)
        assert formed == thresholds == [] and transfer._held == {}
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        apply_transfer(f, params)
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError, match="transfer operator"):  # a hit, refused alike
            apply_transfer(f, params)
        assert formed == [(5, 1024)] and len(thresholds) == 1

    def test_threads_share_the_store(self, monkeypatch):
        # 4 threads over 12 small keys, two cut-offs on each of 6 grids, in a
        # bound that holds the two largest tables, switching every
        # microsecond: each result keeps its bits, and the store its bound
        _counting_tables(monkeypatch)
        keys = [(n, m, i_max) for n in (1, 2, 5) for m in (16, 64) for i_max in (None, 1000)]
        f = {k: _random_grid(k[1], seed=k[0]) for k in keys}
        want = {k: _fresh(f[k], NcfParams(k[0]), k[2]) for k in keys}
        for n, m, i_max in keys:
            apply_transfer(f[n, m, i_max], NcfParams(n), i_max)
        assert sorted(k[0] for k in transfer._held) == ["groups"] * 12 + ["singles"] * 6
        sizes = sorted(e[0] for e in transfer._held.values())
        monkeypatch.setattr(transfer, "_HELD_BYTES", sizes[-1] + sizes[-2])
        transfer._held.clear()
        errors = []

        def work(i):
            try:
                for r in range(300):
                    n, m, i_max = k = keys[(i + r) % len(keys)]
                    got = apply_transfer(f[k], NcfParams(n), i_max).values
                    if not np.array_equal(got, want[k]):
                        errors.append(k)
                    if sum(e[0] for e in list(transfer._held.values())) > transfer._HELD_BYTES:
                        errors.append("bound")
            except Exception as e:  # reported by the assertion below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert sum(e[0] for e in transfer._held.values()) <= transfer._HELD_BYTES


class TestHeldLayouts:
    """_grid_terms forms its layout, which reads no point, at every call, and
    holds nothing; error_curves holds its Lagrange rows by m, read-only; the
    grid iterates are read-only too, as the next step reads each.  The first
    two tests keep the names they had when the point form held its layouts
    in apply_transfer's store, so that their ids stay."""

    # groups and thresholds; a cut that ends a group; a cut below the
    # singles' end, so no groups; no singles either; N > M; 2^-20 cells
    @pytest.mark.parametrize("n,m,i_max", [(1, 1024, None), (1, 1024, 100), (5, 64, 19),
                                           (50, 256, 49), (1000, 512, None), (1, 2 ** 20, None)])
    def test_held_layout_is_a_fresh_one(self, n, m, i_max, monkeypatch):
        # two calls give the same bits and leave apply_transfer's tables held
        # as they were
        monkeypatch.setattr(transfer, "_held", {})
        apply_transfer(_random_grid(64, seed=1), NcfParams(1))
        before = dict(transfer._held)
        j = np.linspace(0.0, m, 257)  # the points x = j/M
        want = list(transfer._grid_terms(NcfParams(n), j, m, i_max))
        got = list(transfer._grid_terms(NcfParams(n), j, m, i_max))
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for g, w in zip(got, want) for a, b in zip(g, w))
        assert transfer._held == before

    def test_layout_above_the_bound_is_not_held(self, monkeypatch):
        # N=50 on 2^-20 cells: a layout of 0.35 MB, formed at every call of
        # the point form, drops nothing held even in a bound of one byte
        monkeypatch.setattr(transfer, "_held", {})
        x, params = np.linspace(0.0, 1.0, 33), NcfParams(50)
        want = transfer.transfer_at(np.cos, params, x)
        assert transfer._held == {}
        apply_transfer(_random_grid(64, seed=1), NcfParams(1))
        before = dict(transfer._held)
        monkeypatch.setattr(transfer, "_HELD_BYTES", 1)
        for _ in range(2):
            assert np.array_equal(transfer.transfer_at(np.cos, params, x), want)
            assert transfer._held == before

    @pytest.mark.parametrize("m", [1, 64, 2048])
    def test_held_lagrange_rows(self, m):
        rows = transfer._grid_lagrange(m)
        assert np.array_equal(rows, transfer._lagrange(transfer._nodes(m + 1)).T)
        assert transfer._grid_lagrange(m) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0

    @pytest.mark.parametrize("n,m,steps", [(1, 128, 3), (2, 1024, 2)])
    def test_iterates_are_read_only(self, n, m, steps):
        got = list(transfer.iterates(_random_grid(m, seed=3), NcfParams(n), steps))
        assert len(got) == steps
        for v in got:
            with pytest.raises(ValueError, match="read-only"):
                v[0] = 1.0

    def test_threads_on_layouts_and_tables_get_the_serial_results(self, monkeypatch):
        # one store holds apply_transfer's tables: one thread takes a grid
        # past _SPECTRAL_N through two branch sums (N = 1001, 1002), the other
        # a table set at N=5, M=8192 and a gap curve; every result is the
        # serial one's to the bit.  The name is kept from when the point
        # form's layouts shared the store, so that the id stays
        monkeypatch.setattr(transfer, "_held", {})
        f, g = _random_grid(8192, seed=11), GridFunction.from_callable(np.cos, 2048)

        def kernels():
            return [apply_transfer(g, NcfParams(transfer._SPECTRAL_N + n)).values for n in (1, 2)]

        def tables():
            est = estimate_gap(g, NcfParams(1), 30)
            return [apply_transfer(f, NcfParams(5)).values, est.sup_errors, est.lip_errors]

        want = [kernels(), tables()]
        transfer._held.clear()
        start = threading.Barrier(2)

        def runs(fn):
            start.wait()
            return [fn() for _ in range(5)]

        with ThreadPoolExecutor(2) as pool:
            got = [r.result() for r in [pool.submit(runs, fn) for fn in (kernels, tables)]]
        for runs_, serial in zip(got, want):
            assert all(np.array_equal(a, b) for run in runs_ for a, b in zip(run, serial))
        assert {k[0] for k in transfer._held} == {"groups", "singles"}


class TestLipschitzNorm:
    def test_constant(self):
        est = lipschitz_norm(GridFunction.constant(-3.5, 64))
        assert est.sup_part == 3.5
        assert est.slope_part == 0.0
        assert est.total == 3.5

    def test_identity(self):
        est = lipschitz_norm(GridFunction.from_callable(lambda x: x, 128))
        assert est.total == pytest.approx(2.0, abs=1e-12)

    def test_invariant_cdf(self):
        gm = GaussMeasure(NcfParams(1))
        est = lipschitz_norm(GridFunction.from_callable(lambda x: gn_cdf(x, gm), 4096))
        # max slope is the density at 0: 1/log 2
        assert est.total == pytest.approx(1 + 1 / math.log(2), abs=1e-3)


def _cesaro(f, steps, params):
    """(1/steps) times the sum of the first `steps` operator iterates of f."""
    return sum(transfer.iterates(f, params, steps)) / steps


class TestCesaro:
    def test_unit_function(self):
        out = _cesaro(GridFunction.constant(1.0, 256), 5, NcfParams(2))
        assert np.max(np.abs(out - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n,expect", [
        (1, 1 / math.log(2) - 1),
        (2, (1 - 2 * math.log(3 / 2)) / math.log(3 / 2)),
    ])
    def test_converges_to_mean_of_identity(self, n, expect):
        # quadrature oracle for the invariant mean of f(x)=x
        params = NcfParams(n)
        gm = GaussMeasure(params)
        oracle, _ = integrate.quad(lambda x: x * gm.density(x), 0, 1, epsabs=1e-13)
        assert oracle == pytest.approx(expect, abs=1e-11)
        f = GridFunction.from_callable(lambda x: x, 1024)
        prev = None
        for steps in (4, 16, 64):
            vals = _cesaro(f, steps, params)
            dev = float(np.max(np.abs(vals - expect)))
            if prev is not None:
                assert dev < prev
            prev = dev
        assert prev < 5e-3


class TestEstimateGap:
    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            estimate_gap(GridFunction.constant(1.0, 256), NcfParams(1), 10)

    def test_rejects_small_nmax(self):
        with pytest.raises(ValueError):
            estimate_gap(GridFunction.from_callable(lambda x: x, 256), NcfParams(1), 3)

    def test_classical_rate_band(self):
        # the decay rate for N=1 sits near the classical Gauss-Kuzmin-Wirsing
        # constant 0.3036 (external sanity anchor): within 0.09% on the
        # spectral iterates, 0.50% high on the grid's
        est = estimate_gap(GridFunction.from_callable(lambda x: x, 2048),
                           NcfParams(1), 30)
        assert abs(est.q_hat / _WIRSING - 1.0) <= 0.005
        assert np.max(np.abs(est.residuals)) < 0.5

    @pytest.mark.parametrize("grid", ["1", "2", "8"])
    def test_rate_at_coarse_grids(self, grid, capsys):
        # --grid is where the iterates are read, not a grid they are iterated
        # on: on a 2-node grid q_hat read 0.757, on 3 nodes 0.443
        assert main(["gap", "--grid", grid, "--nmax", "10"]) == 0
        q_hat = json.loads(capsys.readouterr().out)["q_hat"]
        assert abs(q_hat / _WIRSING - 1.0) <= 0.01

    @pytest.mark.parametrize("n,want", [(1, -_WIRSING), (1001, None)], ids=["N=1", "N=1001"])
    def test_gap_reports_lambda2(self, n, want, capsys):
        # the spectral matrix's second eigenvalue up to N = 1000, null past it
        assert main(["gap", "--n", str(n), "--grid", "64", "--nmax", "8"]) == 0
        lambda2 = json.loads(capsys.readouterr().out)["lambda2"]
        assert lambda2 == want if want is None else abs(lambda2 - want) <= 1e-14

    @pytest.mark.parametrize("n", list(range(1, 11)))
    def test_rate_below_one(self, n):
        est = estimate_gap(GridFunction.from_callable(lambda x: x, 512),
                           NcfParams(n), 20)
        assert 0.0 < est.q_hat < 1.0

    def test_sup_errors_decreasing_in_window(self):
        est = estimate_gap(GridFunction.from_callable(lambda x: x, 1024),
                           NcfParams(2), 25)
        lo, hi = est.n_window
        window = est.sup_errors[lo - 1:hi]
        assert np.all(np.diff(window) < 0)

    def test_transfer_command_curve_is_the_gap_curve(self, capsys):
        # `ncf transfer` and estimate_gap share one error-curve computation
        assert main(["transfer", "--n", "2", "--grid", "256", "--nmax", "12"]) == 0
        curve = json.loads(capsys.readouterr().out)["curve"]
        est = estimate_gap(GridFunction.from_callable(lambda x: x, 256), NcfParams(2), 12)
        assert [c["sup_error"] for c in curve] == est.sup_errors.tolist()
        assert [c["lipschitz_error"] for c in curve] == est.lip_errors.tolist()


def _grid_curves(f, params, n_max):
    """error_curves on the grid: integrate_against's c_f and the distances of
    the grid iterates from it."""
    c_f = integrate_against(f, GaussMeasure(params))
    e = np.array(list(transfer.iterates(f, params, n_max))) - c_f
    sup = np.max(np.abs(e), axis=1)
    return c_f, sup, sup + np.max(np.abs(np.diff(e, axis=1)), axis=1) * f.resolution


class TestErrorCurveRoutes:
    """error_curves iterates the spectral matrix up to N = 1000 where the
    interpolant at its 25 nodes resolves f, and the grid otherwise."""

    @pytest.mark.parametrize("f,n", [
        (_random_grid(256, seed=3), 1),  # white noise, which 25 nodes do not resolve
        (GridFunction.from_callable(lambda x: x, 64), 1001),  # past the spectral matrix
        (GridFunction.from_callable(lambda x: np.where(x < 0.5, 1.0, 0.0), 1024), 2),  # a jump
    ], ids=["noise", "N=1001", "step"])
    def test_grid_route_is_the_grid(self, f, n):
        got, want = transfer.error_curves(f, NcfParams(n), 20), _grid_curves(f, NcfParams(n), 20)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_spectral_route_takes_no_grid_operator(self, monkeypatch):
        monkeypatch.setattr(transfer, "apply_transfer", None)
        c_f, sup, lip = transfer.error_curves(GridFunction.from_callable(np.cos, 2048),
                                              NcfParams(1), 30)
        assert sup.shape == lip.shape == (30,)
        assert np.all(lip > sup) and sup[-1] < 1e-12  # the grid's floor at M = 2048 is 2.8e-8

    def test_spectral_curve_is_the_grid_limit(self):
        # the sup errors of f = x at N=1 against the grid's at M = 8192, whose
        # O(h^2), 7.4e-10, is 1.6e-6 of the error at n = 5 and 5.3e-6 at n = 6,
        # and against Richardson's extrapolation of M = 4096 and 8192
        fine, coarse = (GridFunction.from_callable(lambda x: x, m) for m in (8192, 4096))
        c_f, sup, _ = transfer.error_curves(fine, NcfParams(1), 6)
        grid = _grid_curves(fine, NcfParams(1), 6)
        limit = (4.0 * grid[1] - _grid_curves(coarse, NcfParams(1), 6)[1]) / 3.0
        assert abs(c_f - grid[0]) <= 1e-15
        assert np.max(np.abs(sup - grid[1])) <= 1e-9
        assert np.max(np.abs(sup / limit - 1.0)) <= 1e-7

    def test_resolved_affine_grid_takes_the_spectral_route(self):
        # c_f is the interpolant's integral: for f = a + b x, a + b (1/log 2 - 1)
        f = GridFunction.from_callable(lambda x: 2.0 - 3.0 * x, 16)
        c_f, sup, _ = transfer.error_curves(f, NcfParams(1), 40)
        assert abs(c_f - (2.0 - 3.0 * (1.0 / math.log(2.0) - 1.0))) <= 4e-16
        assert sup[-1] < 1e-15  # the grid's floor at M = 16 is 5.8e-4
