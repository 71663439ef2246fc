"""Transfer operator on grid functions: fixed point, adjoint identity, rate."""

import json
import math
import subprocess
import sys
import tracemalloc
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
from ncf import gausskuzmin, transfer
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


def _check_stochastic(op, m):
    """The assembled operator on m cells: entries >= 0, columns in [0, m],
    and the constant 1 mapped to 1."""
    dense, cols, lo, hi = op
    assert np.all(dense >= 0) and np.all(lo >= 0) and np.all(hi >= 0)
    assert dense.shape[1] <= m + 1 and cols.min() >= 0 and cols.max() + 1 <= m
    assert np.max(np.abs(transfer._step(op, np.ones(m + 1)) - 1.0)) <= 1e-14


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
        got = transfer._step(transfer._assemble(params, m), f.values)[::4]
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
        _check_stochastic(transfer._assemble(NcfParams(n), m), m)

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
    at the nodes, as _step of the assembled operator and transfer_at give it."""

    @pytest.mark.parametrize("m", [1, 2, 3, 77, 1024, 8192])
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 1000, 10**6, 10**20])
    def test_matches_the_operator_at_the_nodes(self, n, m):
        # every cut-off of interest: below, at and past I = max(N+1, 20), and
        # at and past NM, where it leaves no branch out.  f has Lipschitz norm
        # 1 and is linear where the fold lands, [0, N/(i_max+1)], so every cut
        # gives the whole operator.  M < 2048 also covers NM < I, where cell 0
        # is the only group, and N >= M; N = 10^20 puts NM past 2^63.  At
        # M = 8192 the point form stands in for the assembled operator, which
        # would not fit in memory at N >= 50
        params, first = NcfParams(n), max(n + 1, 20)
        x, v = np.linspace(0.0, 1.0, m + 1), np.random.default_rng(n + m).random(m + 1)
        op, at = (None, slice(None, None, 64)) if m > 2048 else (transfer._assemble(params, m),
                                                                  slice(None))
        for i_max in (None, n - 1, 19, first - 1, first, n * m, n * m + 1):
            if i_max is not None and i_max < max(n - 1, 19):
                continue
            g = v if i_max is None else np.where(x <= n / (i_max + 1) + 1.0 / m, 0.25 + 0.5 * x, v)
            f = GridFunction(g / lipschitz_norm(GridFunction(g)).total)
            want = (transfer.transfer_at(f, params, x[at], i_max) if op is None
                    else transfer._step(op, f.values))
            got = apply_transfer(f, params, i_max).values[at]
            assert np.max(np.abs(got - want)) <= 1e-14, i_max

    @pytest.mark.parametrize("n,m", [(10**160, 64), (10**300, 64), (10**303, 1024),
                                     (10**305, 1024), (10**306, 64)])
    def test_past_the_square_root_of_binary64(self, n, m):
        # f(x) = x is mapped to N (x+N) S(x+N) = 1/2 to rounding.  apply_transfer
        # was 0.5 off at N = 10^200, M = 64: its group masses u0 u1 cnt
        # underflowed in u0 u1 past x+i = 1e154, and M (x+i) overflowed once
        # N M^2 passed binary64 (N = 10^303 at M = 1024).  The assembly and
        # the point form, which formed u0 - u1 instead, were right, and now
        # share its formulas.  Near the top of binary64 all three lost bits
        # alike where the masses over x+N turned subnormal: 1.2e-12 at
        # N = 10^305, M = 1024 and 6.5e-12 at N = 10^306, M = 64
        params, f = NcfParams(n), GridFunction.from_callable(lambda x: x, m)
        with np.errstate(over="raise", invalid="raise"):
            for got in (apply_transfer(f, params).values, transfer.transfer_at(f, params, f.nodes),
                        transfer._step(transfer._assemble(params, m), f.values)):
                assert np.max(np.abs(got - 0.5)) <= 1e-15

    def test_white_noise_against_thirty_digits(self):
        # raw white noise, slopes up to M: 8.3e-15 at the checked nodes, where
        # the per-node branch sum it replaced was 8.4e-15 off; the bound is
        # twice that
        n, m = 5, 1024
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
    """iterates() steps an operator assembled once; the branch sum in
    transfer_at is its oracle."""

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
        op = transfer._assemble(params, m)
        want = transfer.transfer_at(f, params, f.nodes, i_max)
        assert np.max(np.abs(transfer._step(op, f.values) - want)) <= 1e-14

    @pytest.mark.parametrize("i_max", [None, 4000])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stochastic(self, n, i_max):
        m = 1024
        # the branch sum's terms, with and without the cut-off: weights >= 0
        # that sum to 1 per row, at points in [0, 1] that fall along a row
        for _, w, y in transfer._branch_terms(NcfParams(n), np.linspace(0, 1, m + 1), m, i_max):
            assert np.all(w >= 0) and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-14
            assert y.min() >= 0.0 and y.max() <= 1.0 and np.all(np.diff(y, axis=1) <= 0)
        dense, cols, lo, hi = op = transfer._assemble(NcfParams(n), m)
        _check_stochastic(op, m)
        # a column triple per single branch N..max(N+1, I // 3) - 1, and a
        # dense column per cell up to the first folded single's at x = 0
        # and the next, all of m + 1 rows
        first = max(n + 1, 20, math.isqrt(n * m) + 1)
        fold = max(n + 1, first // 3)
        assert dense.shape == (m + 1, n * m // fold + 2)
        assert cols.shape == lo.shape == hi.shape == (m + 1, fold - n)
        assert cols.max() + 1 == m  # x = 0, i = N lands on y = 1

    @pytest.mark.parametrize("n,m,before", [(1, 1024, 1_057_800), (1000, 2048, 44_717_376),
                                            (2000, 1024, 8_429_600)])
    def test_fold_keeps_the_bytes(self, n, m, before):
        # the bytes of the layout with every single gathered: the fold adds
        # the columns whose bytes the triples it drops held, and the single
        # i = N always stays gathered, also once N >= M leaves no other
        op = transfer._assemble(NcfParams(n), m)
        assert sum(a.nbytes for a in op) <= before
        assert op[1].shape[1] >= 1 and op[1][0, 0] == m - 1

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_forty_iterates_match_branch_sum(self, n):
        params = NcfParams(n)
        f = g = GridFunction.from_callable(lambda x: np.cos(5 * x) + x, 512)
        for k, h in enumerate(transfer.iterates(f, params, 40)):
            g = apply_transfer(g, params)
            assert np.max(np.abs(h.values - g.values)) <= 1e-13, k

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
        op = transfer._assemble(params, m)
        assert np.max(np.abs(transfer._step(op, f.values) - got)) <= 1e-15

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_short_runs_keep_branch_sum(self, steps):
        params = NcfParams(2)
        f = g = _random_grid(300, seed=5)
        got = list(transfer.iterates(f, params, steps))
        assert len(got) == steps
        for h in got:
            g = apply_transfer(g, params)
            assert np.array_equal(h.values, g.values)


class TestOperatorWork:
    """_branch_terms sizes, chunks and charges every evaluation of the
    operator: the branch sum and the assembly alike."""

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
        # the assembly reads one pass of the grid kernel to its end, and
        # keeps at most 3 floats a (row, term): 24 bytes for each unit it is
        # charged
        passes, ends, charges = [], [], []
        grid_terms = transfer._grid_terms

        def counting_terms(*args):
            passes.append(args)
            yield from grid_terms(*args)
            ends.append(args)

        monkeypatch.setattr(transfer, "_grid_terms", counting_terms)
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        op = transfer._assemble(NcfParams(n), m)
        assert len(passes) == 1 and ends == passes
        assert sum(a.nbytes for a in op) <= 24 * sum(charges)

    @pytest.mark.parametrize("n,i_max", [(1, None), (5, 4000), (5, 100), (5, 19)])
    def test_budget_counts_row_branch_entries(self, n, i_max, monkeypatch):
        # an assembly costs its points times its terms per row: the branches
        # N..I-1 and the groups of cells NM // I..0, with I = max(N+1, 20,
        # isqrt(NM) + 1).  apply_transfer costs, at each point, its singles
        # N..I-1, I = max(N+1, 20), its last term and its _CHEB coefficients,
        # and _CHEB samples for each group and each threshold between them.
        # i_max leaves out the cells below NM // (i_max + 1), whose groups lie
        # above it (none once i_max >= NM); below I it leaves the branches
        # N..i_max and the last term
        params, m, cheb = NcfParams(n), 64, transfer._CHEB
        first = max(n + 1, 20, math.isqrt(n * m) + 1)
        build = (m + 1) * (first - n + n * m // first + 1)
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
        if i_max is None:  # iterates never cuts the branches
            monkeypatch.setenv("NCF_BUDGET", str(build))
            list(transfer.iterates(f, params, 3))
            monkeypatch.setenv("NCF_BUDGET", str(build - 1))
            with pytest.raises(BudgetExceededError, match="transfer operator"):
                list(transfer.iterates(f, params, 3))

    def test_one_charge_per_evaluation(self, monkeypatch):
        charges = []
        monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(cost))
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params, f = NcfParams(1), GridFunction.constant(1.0, 128)
        gausskuzmin.run_experiment(gausskuzmin.lebesgue_measure(), params, n_max=40, m=128)
        # the grid's samples, the 40 steps' products, then one assembly for
        # them: at N=1, M=128 the branches 1..19 and the groups of cells 6..0
        assert charges == [129, 129 * 40, 129 * 26]
        charges.clear()
        list(transfer.iterates(f, params, 2))
        # two applications: at each of the 129 points the singles 1..19, the
        # last term and 10 coefficients, and 10 samples for each of the groups
        # of cells 6..1 and for each of their 6 thresholds
        assert charges == [129 * 30 + 10 * 12] * 2

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


def _counting_builds(monkeypatch):
    """An empty operator slot, and the (N, M, operators held) of each build."""
    builds, assemble = [], transfer._assemble

    def counting(params, m):
        builds.append((params.n_param, m, len(transfer._slot)))
        return assemble(params, m)

    monkeypatch.setattr(transfer, "_slot", {})
    monkeypatch.setattr(transfer, "_assemble", counting)
    return builds


class TestOperatorSlot:
    """iterates keeps the operator it last assembled, by (N, M), for the
    next run on that grid: one at a time, read-only, and charged as built."""

    @pytest.mark.parametrize("n,m", [(1, 128), (5, 64), (1000, 64)])
    def test_hit_is_a_fresh_build(self, n, m, monkeypatch):
        builds = _counting_builds(monkeypatch)
        params, f = NcfParams(n), _random_grid(m, seed=4)
        list(transfer.iterates(f, params, 3))
        hit = [g.values for g in transfer.iterates(f, params, 40)]
        assert builds == [(n, m, 0)]
        op, v = transfer._assemble(params, m), f.values  # a fresh build, outside the slot
        for h in hit:
            v = transfer._step(op, v)
            assert np.array_equal(h, v)

    def test_operator_is_read_only(self, monkeypatch):
        _counting_builds(monkeypatch)
        list(transfer.iterates(_random_grid(64, seed=5), NcfParams(2), 3))
        (op,) = transfer._slot.values()
        for a in op:
            with pytest.raises(ValueError, match="read-only"):
                a += 1

    def test_one_operator_at_a_time(self, monkeypatch):
        builds = _counting_builds(monkeypatch)
        f = _random_grid(64, seed=6)
        for n in (1, 2, 1):
            list(transfer.iterates(f, NcfParams(n), 3))
            assert list(transfer._slot) == [(n, 64)]
        assert builds == [(1, 64, 0), (2, 64, 0), (1, 64, 0)]

    def test_hit_is_charged_as_a_build(self, monkeypatch):
        # N=1, M=64: the branches 1..19 and the groups of cells 3..0
        builds = _counting_builds(monkeypatch)
        cost, f, params = 65 * 23, _random_grid(64, seed=7), NcfParams(1)
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        list(transfer.iterates(f, params, 3))
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        with pytest.raises(BudgetExceededError, match="transfer operator"):
            list(transfer.iterates(f, params, 3))
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        list(transfer.iterates(f, params, 3))
        assert builds == [(1, 64, 0)]


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
    return sum(g.values for g in transfer.iterates(f, params, steps)) / steps


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
        # constant 0.3036 (external sanity anchor)
        est = estimate_gap(GridFunction.from_callable(lambda x: x, 2048),
                           NcfParams(1), 30)
        assert 0.30 <= est.q_hat <= 0.32
        assert np.max(np.abs(est.residuals)) < 0.5

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
