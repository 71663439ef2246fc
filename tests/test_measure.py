"""Invariant measure: CDF, interval masses, sampling, digit law."""

import decimal
import math

import numpy as np
import pytest
from scipy import integrate, stats

from ncf import (
    DensityFunction,
    GaussMeasure,
    NcfParams,
    gn_cdf,
    gn_quantile,
    make_ncf_rscc,
    q_kernel_interval,
)
from ncf import core
from ncf.measure import _gauss_legendre, gn_sample


@pytest.fixture(params=[1, 2, 5])
def gm(request):
    return GaussMeasure(NcfParams(request.param))


class TestDensity:
    def test_normalized(self, gm):
        total, _ = integrate.quad(lambda x: gm.density(x), 0, 1, epsabs=1e-14)
        assert abs(total - 1.0) <= 1e-12

    def test_positive_decreasing(self, gm):
        x = np.linspace(0, 1, 101)
        d = gm.density(x)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 0)


class TestCdf:
    def test_endpoints(self, gm):
        assert gn_cdf(0.0, gm) == 0.0
        assert gn_cdf(1.0, gm) == pytest.approx(1.0, abs=1e-15)

    def test_half_value_n1(self):
        gm1 = GaussMeasure(NcfParams(1))
        assert gn_cdf(0.5, gm1) == pytest.approx(math.log(1.5) / math.log(2), abs=1e-15)

    def test_quadrature_cross_check(self, gm):
        for x in (0.1, 0.37, 0.5, 0.93):
            val, _ = integrate.quad(lambda t: gm.density(t), 0, x, epsabs=1e-13)
            assert gn_cdf(x, gm) == pytest.approx(val, abs=1e-11)

    def test_monotone(self, gm):
        x = np.linspace(0, 1, 200)
        assert np.all(np.diff(gn_cdf(x, gm)) > 0)

    def test_domain(self, gm):
        with pytest.raises(ValueError):
            gn_cdf(-0.1, gm)
        with pytest.raises(ValueError):
            gn_cdf(1.1, gm)

    @pytest.mark.parametrize("x", [math.nan, [0.2, math.nan]], ids=["scalar", "array"])
    def test_nan_rejected(self, gm, x):
        # NaN is neither < 0 nor > 1: it once passed the check and returned NaN
        with pytest.raises(ValueError, match="outside"):
            gn_cdf(x, gm)

    @pytest.mark.parametrize("n", [3, 10**4, 10**6, 10**9])
    def test_one_at_one_for_every_n(self, n):
        # log((N+1)/N) rounded the quotient first: gn_cdf(1) was 1 + 2.2e-16
        # at N=3, 1 + 8.2e-11 at N=10^6 and 1 - 8.3e-8 at N=10^9
        gm = GaussMeasure(NcfParams(n))
        assert 1.0 - 2.3e-16 <= gn_cdf(1.0, gm) <= 1.0
        assert np.all(gn_cdf(np.linspace(0.0, 1.0, 1001), gm) <= 1.0)

    @pytest.mark.parametrize("n", [1, 3, 10**4, 10**6, 10**9])
    def test_log_norm_to_rounding(self, n):
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            want = float((decimal.Decimal(n + 1) / n).ln())
        assert abs(GaussMeasure(NcfParams(n)).log_norm - want) <= 2.3e-16 * want


class TestMeasure:
    def test_full_and_empty(self, gm):
        assert gn_cdf(1, gm) - gn_cdf(0, gm) == pytest.approx(1.0, abs=1e-15)
        assert gn_cdf(0.4, gm) - gn_cdf(0.4, gm) == 0.0

    def test_interval_value_n2(self):
        gm2 = GaussMeasure(NcfParams(2))
        expect = math.log(15 / 14) / math.log(3 / 2)
        assert gn_cdf(1 / 2, gm2) - gn_cdf(1 / 3, gm2) == pytest.approx(expect, abs=1e-12)
        val, _ = integrate.quad(lambda t: gm2.density(t), 1 / 3, 1 / 2, epsabs=1e-13)
        assert val == pytest.approx(expect, abs=1e-10)


class TestSampling:
    def test_quantile_endpoints(self, gm):
        assert gn_quantile(0.0, gm) == 0.0
        assert gn_quantile(1.0 - 1e-12, gm) < 1.0
        assert gn_quantile(1.0, gm) == pytest.approx(1.0, abs=1e-12)

    # 1.5 once gave 1.83, -0.2 gave -0.13 and NaN gave nan, where gn_cdf raises
    @pytest.mark.parametrize("u", [1.5, -0.2, 1.0 + 1e-15, math.nan, math.inf,
                                   np.array([0.0, 0.5, 1.5]), np.array([[0.5], [math.nan]])])
    def test_quantile_outside_unit_interval_rejected(self, gm, u):
        with pytest.raises(ValueError, match=r"^gn_quantile argument outside \[0, 1\]$"):
            gn_quantile(u, gm)
        with pytest.raises(ValueError, match=r"^gn_cdf argument outside \[0, 1\]$"):
            gn_cdf(u, gm)

    @pytest.mark.parametrize("size", [None, 1, 1000])
    def test_sample_is_the_quantile_of_its_draws(self, gm, size):
        # gn_sample skips gn_quantile's check on its own draws, which lie in
        # [0, 1): the same bits, a float for size None
        got = gn_sample(gm, np.random.default_rng(8), size)
        want = gn_quantile(np.random.default_rng(8).random(size), gm)
        assert type(got) is type(want)
        assert np.array_equal(got, want)

    def test_inverse_consistency(self, gm):
        u = np.linspace(0, 1, 33)
        assert np.max(np.abs(gn_cdf(gn_quantile(u, gm), gm) - u)) <= 1e-12

    def test_ks_against_cdf(self, gm):
        rng = np.random.default_rng(12345)
        sample = gn_sample(gm, rng, 10**6)
        stat = stats.kstest(sample, lambda x: gn_cdf(x, gm)).statistic
        assert stat <= 1.63 / math.sqrt(10**6)


class TestDigitLaw:
    def test_sums_to_one(self, gm):
        n = gm.n
        head = sum(core.digit_probability(i, gm.params) for i in range(n, n + 2000))
        # telescoping tail: mass beyond i_max is log((i+1)/i * (N+1)/N ... )
        i_top = n + 2000
        tail = math.log((i_top + 1) / i_top) / gm.log_norm
        assert head + tail == pytest.approx(1.0, abs=1e-9)

    def test_known_values(self):
        gm1 = GaussMeasure(NcfParams(1))
        gm2 = GaussMeasure(NcfParams(2))
        assert core.digit_probability(1, gm1.params) == pytest.approx(
            math.log(4 / 3) / math.log(2), abs=1e-14)
        assert core.digit_probability(2, gm2.params) == pytest.approx(
            math.log(9 / 8) / math.log(3 / 2), abs=1e-14)

    def test_quadrature_oracle(self, gm):
        # mass of the first-digit cell (N/(i+1), N/i]
        n = gm.n
        for i in range(n, n + 6):
            val, _ = integrate.quad(lambda t: gm.density(t), n / (i + 1), n / i,
                                    epsabs=1e-13)
            assert core.digit_probability(i, gm.params) == pytest.approx(val, abs=1e-10)

    def test_decreasing_in_i(self, gm):
        vals = [core.digit_probability(i, gm.params) for i in range(gm.n, gm.n + 40)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_domain(self, gm):
        with pytest.raises(ValueError):
            core.digit_probability(gm.n - 1, gm.params)

    @pytest.mark.parametrize("n", [10**6, 10**9])
    def test_large_digits_to_rounding(self, n):
        # log((i+1)^2 / (i (i+2))) rounded the quotient to 1 from about i = 10^8
        gm = GaussMeasure(NcfParams(n))
        for i in (n, n + 1, 10 * n):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                d = decimal.Decimal
                want = float(((d(i + 1) ** 2) / (d(i) * d(i + 2))).ln()
                             / (d(n + 1) / d(n)).ln())
            assert abs(core.digit_probability(i, gm.params) - want) <= 1e-14 * want

    def test_independent_of_n_up_to_normalizer(self):
        gm1 = GaussMeasure(NcfParams(1))
        gm3 = GaussMeasure(NcfParams(3))
        for i in range(3, 30):
            lhs = core.digit_probability(i, gm1.params) * gm1.log_norm
            rhs = core.digit_probability(i, gm3.params) * gm3.log_norm
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monte_carlo_frequencies(self, gm):
        rng = np.random.default_rng(777)
        k = 10**6
        x = gn_sample(gm, rng, k)
        x = x[x > 0]
        first_digit = np.floor(gm.n / x)
        for i in range(gm.n, gm.n + 21):
            p = core.digit_probability(i, gm.params)
            freq = float(np.mean(first_digit == i))
            se = math.sqrt(p * (1 - p) / k)
            assert abs(freq - p) <= 4 * se + 1e-9


class TestMapInvarianceAtIntervalLevel:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_preimage_mass_matches(self, n):
        # the preimage of [0, u) under the map is a union of branch pieces
        # (N/(u+i), N/i] for i >= N, plus tail handled in closed form
        gm = GaussMeasure(NcfParams(n))
        for u in np.linspace(0.05, 1.0, 12):
            u = float(u)
            i_max = 5000
            total = 0.0
            for i in range(n, i_max):
                lo = n / (u + i)
                hi = min(n / i, 1.0)
                if hi > lo:
                    total += gn_cdf(hi, gm) - gn_cdf(lo, gm)
            # the sliver masses telescope beyond i_max: log(1 + u/i_max)
            total += math.log1p(u / i_max) / gm.log_norm
            assert total == pytest.approx(gn_cdf(u, gm) - gn_cdf(0.0, gm), abs=1e-9)


class TestDensityFunction:
    def test_accepts_normalized(self):
        DensityFunction(lambda x: 1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DensityFunction(lambda x: 2.0)

    def test_rejects_small_mass_error(self):
        with pytest.raises(ValueError):
            DensityFunction(lambda x: 1.0 + 1e-8)

    def test_accepts_array_evaluator(self, gm):
        dens = DensityFunction(gm.density)
        x = np.linspace(0.0, 1.0, 9)
        assert np.array_equal(dens(x), gm.density(x))
        assert dens(0.5) == gm.density(0.5)

    def test_scalar_evaluator_broadcasts(self):
        vals = DensityFunction(lambda x: 1.0)(np.linspace(0.0, 1.0, 5))
        assert vals.shape == (5,)
        assert np.all(vals == 1.0)


class TestGaussLegendre:
    # scipy's adaptive quad is the oracle of the fixed panels
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_invariance_integrand_matches_quad(self, n):
        params = NcfParams(n)
        gm = GaussMeasure(params)
        sys_ = make_ncf_rscc(params)
        for u in np.linspace(1.0 / 64, 1.0, 64):
            u = float(u)
            brk = n / u - math.floor(n / u)
            pts = [brk] if 0.0 < brk < 1.0 else None
            want, _ = integrate.quad(
                lambda x: q_kernel_interval(sys_, float(x), u) * gm.density(x),
                0.0, 1.0, points=pts, limit=200, epsabs=1e-14)
            # two pieces, one call on each side of the break
            edges = [0.0, *(pts or []), 1.0]
            got = sum(_gauss_legendre(
                lambda x: q_kernel_interval(sys_, x, u) * gm.density(x), a, b)
                for a, b in zip(edges, edges[1:]))
            assert abs(got - want) <= 1e-14

    def test_rule_is_leggauss_moved_to_the_unit_interval(self):
        # core's literals, bit for bit; measure's arrays are made from them
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert core.GL_NODES == tuple(((1.0 + nodes) / 2.0).tolist())
        assert core.GL_WEIGHTS == tuple((weights / 2.0).tolist())

    def test_breaks_and_panels(self):
        # a caller breaks the interval at a kink, with one call a piece, and
        # each call spreads its rule over its panels: a kink at a panel edge
        # is integrated exactly too
        f = lambda x: np.where(x < 0.3, 1.0, 3.0 * x * x)
        got = _gauss_legendre(f, 0.0, 0.3, panels=4) + _gauss_legendre(f, 0.3, 1.0, panels=4)
        assert got == pytest.approx(0.3 + (1.0 - 0.3 ** 3), abs=1e-15)
        g = lambda x: np.abs(x - 0.25)
        assert _gauss_legendre(g, 0.0, 1.0, panels=4) == pytest.approx(0.3125, abs=1e-15)
