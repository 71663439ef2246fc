"""Distribution of map iterates: limits, rates, operator vs simulation."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ncf import (
    DensityFunction,
    FitError,
    GaussMeasure,
    NcfParams,
    digits,
    distribution_at,
    gauss_initial,
    gn_cdf,
    lebesgue_measure,
    limit_path_law,
    make_ncf_rscc,
    run_experiment,
    tilted_measure,
)
from ncf import core, gausskuzmin, transfer
from ncf.gausskuzmin import density_from_grid, initial_grid_density, pushforward_density
from ncf.rscc import q_kernel_interval_bruteforce, shifted_path_probability


def _step_density():
    """1.6 on [0, 1/2), 0.4 on [1/2, 1]: a law whose f0 jumps, which the
    25-point spectral interpolant does not resolve."""
    return DensityFunction(lambda x: np.where(x < 0.5, 1.6, 0.4))


def _box_density():
    """0.9 plus 6.4 on [5/64, 6/64): a tenth of the mass in a box that holds
    none of the 25 nodes, which lie at 0.067 and 0.103 on either side."""
    return DensityFunction(lambda x: 0.9 + 6.4 * ((x >= 5 / 64) & (x < 6 / 64)))


def _bump_density():
    """0.9 plus a tenth of N(0.28, 0.003^2), between the nodes 0.25 and 0.309."""
    return DensityFunction(lambda x: 0.9 + 0.1 * np.exp(-((x - 0.28) / 0.003) ** 2 / 2)
                           / (0.003 * math.sqrt(2 * math.pi)))


def _inverse_density():
    """1/((x + 1/2) log 3): analytic, but the last Chebyshev coefficients of
    its f0 - 1 at the 25 nodes are 1.4e-14 to 1.9e-13, not at rounding."""
    return DensityFunction(lambda x: 1.0 / ((x + 0.5) * math.log(3.0)))


class TestLimitCdf:
    def test_classical_law(self):
        # N = 1 limit is log2(1 + x)
        for x in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert gn_cdf(x, GaussMeasure(NcfParams(1))) == pytest.approx(
                math.log2(1 + x), abs=1e-12)

    def test_general_form(self):
        for n in (2, 5):
            params = NcfParams(n)
            for x in (0.2, 0.7):
                want = math.log((x + n) / n) / math.log((n + 1) / n)
                assert gn_cdf(x, GaussMeasure(params)) == pytest.approx(want, abs=1e-12)


class TestInitialMeasures:
    def test_density_grid_roundtrip(self):
        # Lebesgue -> relative density -> Lebesgue returns the constant 1
        params = NcfParams(2)
        f0 = initial_grid_density(lebesgue_measure(), params, 512)
        h = density_from_grid(f0, params)
        for t in (0.0, 0.3, 0.8, 1.0):
            assert h(t) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_start_has_unit_relative_density(self):
        params = NcfParams(3)
        f0 = initial_grid_density(gauss_initial(params), params, 256)
        assert np.max(np.abs(f0.values - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_array_evaluation_equals_pointwise(self, n):
        # the grids are built by one array call; the arithmetic is that of a
        # call per point, so the values are equal bit for bit
        params = NcfParams(n)
        x = np.linspace(0.0, 1.0, 1025)
        for mu in (lebesgue_measure(), gauss_initial(params), tilted_measure()):
            pointwise = np.array([mu(float(t)) for t in x])
            assert np.array_equal(mu(x), pointwise)

    def test_tilted_density_normalized(self):
        val, _ = integrate.quad(tilted_measure(), 0, 1, epsabs=1e-13)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestPushforward:
    @pytest.mark.parametrize("n", [1, 2])
    def test_mass_preserved(self, n):
        # DensityFunction validates unit mass at construction
        h = pushforward_density(lebesgue_measure(), NcfParams(n))
        val, _ = integrate.quad(h, 0, 1, epsabs=1e-10, limit=200)
        assert val == pytest.approx(1.0, abs=1e-7)

    def test_invariant_density_is_fixed(self):
        params = NcfParams(1)
        gm = GaussMeasure(params)
        h = pushforward_density(gauss_initial(params), params, m=2048)
        for t in (0.1, 0.5, 0.9):
            assert h(t) == pytest.approx(float(gm.density(t)), abs=1e-6)


class TestDistributionAt:
    def test_n_zero_is_initial_cdf(self):
        params = NcfParams(1)
        for x in (0.0, 0.3, 0.7, 1.0):
            got = distribution_at(lebesgue_measure(), 0, x, params)
            assert got == pytest.approx(x, abs=1e-7)

    def test_one_step_uniform_series_oracle(self):
        # P(frac(1/U) < 1/2) telescopes to 2 - 2 log 2
        i = np.arange(1, 10**7, dtype=float)
        series = float(np.sum(1.0 / i - 1.0 / (i + 0.5)))
        closed = 2 - 2 * math.log(2)
        assert series == pytest.approx(closed, abs=1e-6)
        got = distribution_at(lebesgue_measure(), 1, 0.5, NcfParams(1), m=2048)
        assert got == pytest.approx(closed, abs=1e-6)

    def test_monotone_in_x(self):
        params = NcfParams(2)
        vals = [distribution_at(lebesgue_measure(), 3, x, params)
                for x in np.linspace(0.0, 1.0, 21)]
        assert vals[0] == pytest.approx(0.0, abs=1e-7)
        assert vals[-1] == pytest.approx(1.0, abs=1e-7)
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n_steps,x", [(1, 0.4), (3, 0.6), (5, 0.25)])
    def test_operator_agrees_with_montecarlo(self, n_steps, x):
        params = NcfParams(1)
        mu = tilted_measure()
        op = distribution_at(mu, n_steps, x, params)
        rng = np.random.default_rng(1234)
        k = 200_000
        mc = distribution_at(mu, n_steps, x, params, method="montecarlo",
                             n_paths=k, rng=rng)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / k)
        assert abs(op - mc) <= 4 * se + 1e-3

    def test_converges_to_limit(self):
        params = NcfParams(2)
        mu = lebesgue_measure()
        errs = [abs(distribution_at(mu, n, 0.4, params) - gn_cdf(0.4, GaussMeasure(params)))
                for n in (1, 3, 6, 12)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-6

    @pytest.mark.parametrize("m", [1, 2, 4, 1024])
    def test_operator_value_is_a_probability(self, m):
        # at N=1 the grid CDF at x = 1 read 1.0629 at m=1, 1.0180 at m=2, and
        # 1 + 7.3e-8 (Lebesgue, n=1) at the default m=1024; N=1 now takes the
        # spectral route, whose CDF passes 1 by rounding, and N=1001 the grid,
        # whose Lebesgue CDF reads 1 + 1.7e-10 at m=1 (n=1)
        for params in (NcfParams(1), NcfParams(1001)):
            for mu in (lebesgue_measure(), gauss_initial(params), tilted_measure()):
                for n in (0, 1, 3, 10):
                    for x in (0.0, 1.0):
                        assert 0.0 <= distribution_at(mu, n, x, params, m=m) <= 1.0

    @pytest.mark.parametrize("mu,x,want", [
        (_box_density(), 0.1, 0.19),
        (_bump_density(), 0.3, 0.27 + 0.05 * (1 + math.erf(0.02 / 0.003 / math.sqrt(2)))),
    ], ids=["box", "bump"])
    def test_mass_between_the_nodes_is_kept(self, mu, x, want):
        # f0 at the nodes is smooth here, and a route test that read it there
        # alone took the interpolant, which lost the feature's tenth of the
        # mass: F_0(0.1) read 0.09 for the box, and F_n(1) 0.9; the points
        # j/m see it, and the grid answers
        params = NcfParams(1)
        assert distribution_at(mu, 0, x, params) == pytest.approx(want, abs=1e-7)
        assert distribution_at(mu, 3, 1.0, params) == pytest.approx(1.0, abs=1e-6)

    def test_resolved_analytic_density_is_exact(self):
        # its f0 is resolved to 2e-13, far below a grid's 1/m^2: a cut at
        # rounding sent it to the grid, whose F_1(0.3) at m = 1024 was 3.4e-8
        # off.  F_1(x) = sum over i >= 1 of mu((1/(i + x), 1/i]), by mpmath
        with mpmath.workdps(30):
            want = float(mpmath.nsum(lambda i: mpmath.log((1 + 2 / i) / (1 + 2 / (i + 0.3))),
                                     [1, mpmath.inf]) / mpmath.log(3))
        got = distribution_at(_inverse_density(), 1, 0.3, NcfParams(1), m=1024)
        assert got == pytest.approx(want, abs=1e-15)

    def test_long_run_within_the_default_budget(self, monkeypatch):
        # the spectral route charges its iterates as read at the one x: at
        # n = 1000, m = 8192 the grid answered, and a charge as if read at
        # the 8193 points j/m, 2.05e8 units, exceeds the default budget
        monkeypatch.delenv("NCF_BUDGET", raising=False)
        got = distribution_at(lebesgue_measure(), 1000, 0.5, NcfParams(1), m=8192)
        assert got == pytest.approx(math.log2(1.5), abs=1e-15)

    def test_domain_errors(self):
        params = NcfParams(1)
        with pytest.raises(ValueError):
            distribution_at(lebesgue_measure(), -1, 0.5, params)
        for x in (1.5, math.nan, -math.inf):
            with pytest.raises(ValueError, match=rf"^x must lie in \[0, 1\], got {x!r}$"):
                distribution_at(lebesgue_measure(), 2, x, params)
        with pytest.raises(ValueError):
            distribution_at(lebesgue_measure(), 2, 0.5, params, method="exact")


class TestRunExperiment:
    def test_lebesgue_classical(self):
        rep = run_experiment(lebesgue_measure(), NcfParams(1),
                             rng=np.random.default_rng(7))
        assert rep.q_fit is not None and 0.25 <= rep.q_fit <= 0.40
        assert rep.theta_bound is not None and rep.theta_bound > 0
        lo, hi = rep.fit_window
        window = rep.sup_errors[lo - 1:hi]
        assert all(a > b for a, b in zip(window, window[1:]))
        assert rep.sup_errors[-1] < 1e-6
        assert max(abs(r) for r in rep.fit_residuals) < 0.5
        for cell in rep.method_agreement:
            assert abs(cell["operator"] - cell["montecarlo"]) <= cell["band"]
            assert cell["agrees"] is True

    def test_verdict_is_the_band(self, monkeypatch):
        # each spot check carries its verdict: |operator - montecarlo| <= band
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 100)
        rep = run_experiment(tilted_measure(), NcfParams(2), n_max=6, m=64,
                             require_fit=False, rng=np.random.default_rng(5))
        verdicts = [cell["agrees"] for cell in rep.method_agreement]
        assert verdicts == [abs(cell["operator"] - cell["montecarlo"]) <= cell["band"]
                            for cell in rep.method_agreement]
        assert all(type(v) is bool for v in verdicts)

    def test_invariant_start_is_flat(self):
        # starting from the invariant measure there is nothing to decay
        rep = run_experiment(gauss_initial(NcfParams(2)), NcfParams(2),
                             require_fit=False, rng=np.random.default_rng(9))
        assert max(rep.sup_errors) < 1e-7

    def test_invariant_start_requires_fit_flag(self):
        with pytest.raises(FitError):
            run_experiment(gauss_initial(NcfParams(2)), NcfParams(2),
                           rng=np.random.default_rng(9))

    @pytest.mark.parametrize("n", [2, 5])
    def test_tilted_start_decays(self, n):
        rep = run_experiment(tilted_measure(), NcfParams(n), n_max=30,
                             rng=np.random.default_rng(11))
        assert rep.q_fit is not None and 0.0 < rep.q_fit < 0.5
        assert rep.sup_errors[-1] < rep.sup_errors[0]

    def test_report_serializes(self):
        rep = run_experiment(lebesgue_measure(), NcfParams(1), n_max=10,
                             rng=np.random.default_rng(3))
        d = dataclasses.asdict(rep)
        assert set(d) == {"n_values", "sup_errors", "q_fit", "theta_bound",
                          "fit_window", "fit_residuals", "method_agreement"}
        assert len(d["sup_errors"]) == 10

    def test_rejects_small_nmax(self):
        with pytest.raises(ValueError):
            run_experiment(lebesgue_measure(), NcfParams(1), n_max=3)

    @pytest.mark.parametrize("n_max", [5, 8])
    def test_spot_checks_equal_distribution_at(self, n_max, monkeypatch):
        # the operator side of each spot check is the spectral CDF of the
        # experiment's own iterates, at the spot's exact x: G(x) plus the
        # integral over [0, x] of (f_n - 1) rho_N, f_n - 1 = A^n (f0 - 1)
        # interpolated at the nodes, here by a 20-point Gauss-Legendre rule;
        # n_max = 5 clamps the n = 6 check to n = 5.  distribution_at reads
        # it off the same route, to the bit
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params, mu, m = NcfParams(1), tilted_measure(), 256
        gm, x = GaussMeasure(params), transfer._LOBATTO
        f0 = gm.log_norm * (x + 1.0) * mu(x)
        rep = run_experiment(mu, params, n_max=n_max, m=m, require_fit=False)
        for cell in rep.method_agreement:
            en = np.linalg.matrix_power(transfer._spectral(1), cell["n"]) @ (f0 - 1.0)
            t = cell["x"] * np.array(core.GL_NODES)
            want = gn_cdf(cell["x"], gm) + cell["x"] * np.sum(
                np.array(core.GL_WEIGHTS) * (transfer._lagrange(t) @ en) * gm.density(t))
            assert abs(cell["operator"] - want) <= 1e-15
            assert cell["operator"] == distribution_at(mu, cell["n"], cell["x"], params, m=m)

    @pytest.mark.parametrize("n_param,mu", [(1001, tilted_measure()), (1, _step_density())],
                             ids=["past-a-thousand", "step"])
    def test_grid_spot_checks_equal_distribution_at(self, n_param, mu, monkeypatch):
        # on the grid route a spot is distribution_at's to the bit where both
        # runs take one form: at N = 1001 on 256 cells every run of up to 8
        # steps takes branch sums, at N = 1 every run of 2 or more the operator
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params, m = NcfParams(n_param), 256
        rep = run_experiment(mu, params, n_max=8, m=m, require_fit=False)
        for cell in rep.method_agreement:
            assert cell["operator"] == distribution_at(mu, cell["n"], cell["x"], params, m=m)

    @pytest.mark.parametrize("n_max,steps", [(40, [2, 2, 2]), (5, [2, 2, 1])])
    def test_spot_checks_step_one_sample(self, n_max, steps, monkeypatch):
        # one sample stepped on from spot to spot, 2 -> 4 -> 6 (or 5 when
        # n_max = 5 clamps the last spot): 6 map steps in all, not 2 + 4 + 6
        samples, taken = [], []
        sample, iterate = gausskuzmin._sample_initial, gausskuzmin._iterate_map

        def counting_sample(mu, n_paths, rng):
            samples.append(n_paths)
            return sample(mu, n_paths, rng)

        def counting_iterate(y, n, n_param):
            taken.append(n)
            return iterate(y, n, n_param)

        monkeypatch.setattr(gausskuzmin, "_sample_initial", counting_sample)
        monkeypatch.setattr(gausskuzmin, "_iterate_map", counting_iterate)
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        run_experiment(lebesgue_measure(), NcfParams(1), n_max=n_max, m=128,
                       require_fit=False, rng=np.random.default_rng(3))
        assert samples == [1000]
        assert taken == steps

    def test_spot_checks_charged_once(self, monkeypatch):
        # the Monte Carlo budget is charged once, for the 6 steps of the sample
        charges = []
        monkeypatch.setattr(gausskuzmin, "charge", lambda cost, what: charges.append(cost))
        run_experiment(lebesgue_measure(), NcfParams(1), n_max=8, m=128,
                       require_fit=False, rng=np.random.default_rng(3))
        assert charges == [6 * gausskuzmin._SPOT_PATHS]

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("mu", [lebesgue_measure(), tilted_measure()],
                             ids=["lebesgue", "tilted"])
    def test_spot_checks_are_honest_marginals(self, n, mu):
        # the spots share one sample, yet each estimate is the one a fresh
        # distribution_at draws from the same seed, so each band is marginal
        params = NcfParams(n)
        rep = run_experiment(mu, params, n_max=8, m=128, require_fit=False,
                             rng=np.random.default_rng(21))
        for cell in rep.method_agreement:
            assert cell["montecarlo"] == distribution_at(
                mu, cell["n"], cell["x"], params, method="montecarlo",
                n_paths=gausskuzmin._SPOT_PATHS, rng=np.random.default_rng(21))

    def test_one_operator_application_per_step(self, monkeypatch):
        # up to N = 10^3 the experiment iterates the spectral matrix: it
        # assembles no grid operator, steps none and applies none, and it
        # builds the matrix once per N, kept for the next experiment
        calls = []
        for name in ("_assemble", "_step", "apply_transfer"):
            monkeypatch.setattr(transfer, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        transfer._spectral.cache_clear()
        for seed, (n, mu) in enumerate([(1, lebesgue_measure()), (2, lebesgue_measure()),
                                        (1, tilted_measure()), (1000, tilted_measure())]):
            run_experiment(mu, NcfParams(n), n_max=40, m=128, require_fit=False,
                           rng=np.random.default_rng(seed))
        assert calls == []
        assert transfer._spectral.cache_info().misses == 3

    @pytest.mark.parametrize("mu", [lebesgue_measure(), tilted_measure()],
                             ids=["lebesgue", "tilted"])
    def test_switch_to_the_grid_past_a_thousand(self, mu, monkeypatch):
        # N = 10^3 iterates the spectral matrix, N = 10^3 + 1 the grid of m
        # cells: both answer, charge the points, the steps and the build in
        # that order, and their first errors agree within half a percent
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        builds, assemble, reps = [], transfer._assemble, {}
        transfer._operator.cache_clear()  # no grid operator from an earlier test
        monkeypatch.setattr(transfer, "_assemble",
                            lambda params, m: builds.append(params.n_param) or assemble(params, m))
        for n in (1000, 1001):
            charges = []
            monkeypatch.setattr(transfer, "charge", lambda cost, what: charges.append(what))
            reps[n] = run_experiment(mu, NcfParams(n), n_max=8, m=64, require_fit=False,
                                     rng=np.random.default_rng(5))
            assert charges == ["grid samples", "operator steps", "transfer operator"]
            assert len(reps[n].sup_errors) == 8
            assert all(cell["agrees"] for cell in reps[n].method_agreement)
        assert builds == [1001]
        assert reps[1001].sup_errors[0] == pytest.approx(reps[1000].sup_errors[0], rel=5e-3)

    def test_step_density_agrees_with_montecarlo(self):
        # the 25-point interpolant of the step's f0 is off by O(1) near the
        # jump: the spectral route's curve stalled at 3.9e-2, and every spot
        # missed its band (n = 2, x = 1/4: 0.3645 against 0.3225); the grid
        # route agrees, and its curve falls to the grid's floor
        rep = run_experiment(_step_density(), NcfParams(1), n_max=10, m=1024,
                             require_fit=False, rng=np.random.default_rng(0))
        assert all(cell["agrees"] for cell in rep.method_agreement)
        assert rep.sup_errors[-1] < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 5, 1000])
    def test_resolved_measures_take_the_spectral_route(self, n, monkeypatch):
        # up to N = 10^3 the three built-in measures, and 1/(x + 1/2), whose
        # f0 the 25 points resolve, take the spectral route in both callers:
        # no grid operator assembled, stepped or applied
        calls = []
        for name in ("_assemble", "_step", "apply_transfer"):
            monkeypatch.setattr(transfer, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params = NcfParams(n)
        for mu in (lebesgue_measure(), tilted_measure(), gauss_initial(params), _inverse_density()):
            run_experiment(mu, params, n_max=8, m=128, require_fit=False,
                           rng=np.random.default_rng(1))
            distribution_at(mu, 3, 0.5, params, m=128)
        assert calls == []

    @pytest.mark.parametrize("density", [_step_density, _box_density, _bump_density],
                             ids=["step", "box", "bump"])
    def test_unresolved_density_takes_the_grid(self, density, monkeypatch):
        # the f0 of a step, or of a box or a bump between the nodes, is not
        # resolved: both callers step the operator of the grid of m cells
        # (at N=1, M <= 128 a build is charged less than one branch sum),
        # each assembling it once
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        transfer._operator.cache_clear()  # no grid operator from an earlier test
        calls, assemble, apply = [], transfer._assemble, transfer.apply_transfer
        monkeypatch.setattr(transfer, "_assemble",
                            lambda params, m: calls.append(("_assemble", m)) or assemble(params, m))
        monkeypatch.setattr(transfer, "apply_transfer",
                            lambda f, params: calls.append(("apply_transfer", f.resolution))
                            or apply(f, params))
        params = NcfParams(1)
        run_experiment(density(), params, n_max=8, m=128, require_fit=False,
                       rng=np.random.default_rng(1))
        distribution_at(density(), 1, 0.5, params, m=64)
        assert calls == [("_assemble", 128), ("_assemble", 64)]

    def test_one_step_on_a_fine_grid_takes_the_branch_sum(self, monkeypatch):
        # at N=1, M=2^18 the operator's build alone is charged 2.7e8 units,
        # past the default budget, and one branch sum 8.1e6: a one-step run
        # takes the branch sum and builds nothing.  F_1(0.3) is the mass of
        # the branches' images of [0, 0.3): (1/1.3, 1] at 0.4, (1/(i+0.3), 1/i]
        # at 1.6 for i >= 2; the grid's jump cell costs O(h)
        monkeypatch.delenv("NCF_BUDGET", raising=False)
        monkeypatch.setattr(transfer, "_assemble", None)
        got = distribution_at(_step_density(), 1, 0.3, NcfParams(1), m=2 ** 18)
        want = 0.4 * (1 - 1 / 1.3) + 1.6 * float(mpmath.digamma(2.3) - mpmath.digamma(2))
        assert got == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_curve_reaches_rounding(self, n, monkeypatch):
        # the grid's curve stalled at 3.3e-8 (N=1, M=1024); the spectral one
        # falls to rounding and stays there (iterating f0 itself, it grew
        # again from n = 20, to 3.5e-12 at n = 2000, N=5), and at N=1 its
        # fit lies near Wirsing's constant
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        rep = run_experiment(lebesgue_measure(), NcfParams(n), n_max=200,
                             rng=np.random.default_rng(0))
        assert rep.sup_errors[39] < 1e-12
        assert max(rep.sup_errors[39:]) < 1e-15
        if n == 1:
            assert abs(rep.q_fit - 0.3036630028987326586) < 5e-4


def _unsorted_sample(mu, n_paths, rng):
    """The reference sampler: the uniforms looked up in the order drawn."""
    x = np.linspace(0.0, 1.0, gausskuzmin._INV_GRID + 1)
    cdf = gausskuzmin._cumulative_trapezoid(mu(x), x)
    cdf /= cdf[-1]
    return np.interp(rng.random(n_paths), cdf, x)


def _masked_map(y, n, n_param):
    """The reference map step: the nonzero points gathered, stepped and
    scattered back into zeros."""
    for _ in range(n):
        out = np.zeros_like(y)
        nz = y > 0.0
        q = n_param / y[nz]
        out[nz] = q - np.floor(q)
        y = out
    return y


class TestMonteCarloBitIdentity:
    """The sorted lookup and the unmasked step leave every Monte Carlo
    estimate equal, bit for bit, to the unsorted, masked reference."""

    @pytest.fixture
    def reference(self, monkeypatch):
        def use():
            monkeypatch.setattr(gausskuzmin, "_sample_initial", _unsorted_sample)
            monkeypatch.setattr(gausskuzmin, "_iterate_map", _masked_map)
        return use

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_distribution_at(self, n, reference):
        params = NcfParams(n)
        mus = (lebesgue_measure(), gauss_initial(params), tilted_measure())
        cases = [(mu, k, 0.1 + 0.2 * k / 3) for mu in mus for k in (0, 1, 3, 6)]

        def estimates():
            return [distribution_at(mu, k, x, params, method="montecarlo",
                                    rng=np.random.default_rng(100 * n + k))
                    for mu, k, x in cases]

        got = estimates()
        reference()
        assert got == estimates()

    @pytest.mark.parametrize("n,mu", [(1, lebesgue_measure()), (5, tilted_measure())])
    def test_run_experiment_spot_checks(self, n, mu, reference):
        # the three spot checks step one sample on from spot to spot
        def montecarlo():
            rep = run_experiment(mu, NcfParams(n), n_max=10, m=128,
                                 rng=np.random.default_rng(7), require_fit=False)
            return [cell["montecarlo"] for cell in rep.method_agreement]

        got = montecarlo()
        reference()
        assert got == montecarlo()

    def test_sample_is_the_same_multiset(self):
        mu = tilted_measure()
        got = gausskuzmin._sample_initial(mu, 10_000, np.random.default_rng(3))
        want = _unsorted_sample(mu, 10_000, np.random.default_rng(3))
        assert np.array_equal(got, np.sort(want))
        for n in (1, 1000):
            assert np.array_equal(gausskuzmin._iterate_map(want, 4, n),
                                  _masked_map(want, 4, n))


_CF = make_ncf_rscc(NcfParams(1))


@pytest.mark.parametrize("call,name", [
    (lambda: distribution_at(lebesgue_measure(), 1.0, 0.5, NcfParams(1)), "n"),
    # read by both routes, which sample f0 at the points j/m
    (lambda: distribution_at(lebesgue_measure(), 1, 0.5, NcfParams(1), m=2.0), "m"),
    # once nan with a RuntimeWarning
    (lambda: distribution_at(lebesgue_measure(), 2, 0.5, NcfParams(1), method="montecarlo",
                             n_paths=0), "n_paths"),
    (lambda: run_experiment(lebesgue_measure(), NcfParams(1), n_max=6.0, m=64), "n_max"),
    (lambda: transfer.estimate_gap(transfer.GridFunction.from_callable(lambda x: x, 64),
                                   NcfParams(1), 6.0), "n_max"),
    (lambda: digits(Fraction(3, 7), NcfParams(1), 3.0), "max_len"),
    # once generators that failed only when read
    (lambda: core.lowest_branch_orbits(NcfParams(1), [0.5], 2.0), "n_max"),
    (lambda: limit_path_law(_CF, 1.0, [(1,)]), "r"),
    (lambda: shifted_path_probability(_CF, 0.5, 2.0, 1, [(1,)], n_paths=100), "n"),
    (lambda: q_kernel_interval_bruteforce(_CF, 0.3, 0.5, i_max=0), "i_max"),
    # once 0.5652798, where the kernel is 0.5652174
    (lambda: q_kernel_interval_bruteforce(_CF, 0.3, 0.5, i_max=100.5), "i_max"),
], ids=["distribution_at-n", "distribution_at-m", "distribution_at-n_paths", "run_experiment-n_max",
        "estimate_gap-n_max", "digits-max_len", "lowest_branch_orbits-n_max",
        "limit_path_law-r", "shifted_path_probability-n", "bruteforce-i_max-0",
        "bruteforce-i_max-half"])
@pytest.mark.filterwarnings("error")
def test_count_argument_refused_by_name(call, name):
    # a count that is no integer, or below its least value, is a ValueError
    # naming the argument, not NumPy's or range's TypeError, nor an answer
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()
