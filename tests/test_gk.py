"""Distribution of map iterates: limits, rates, operator vs simulation."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from ncf import (
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
    pushforward_density,
    q_kernel_interval_bruteforce,
    run_experiment,
    shifted_path_probability,
    tilted_measure,
)
from ncf import core, gausskuzmin, transfer
from ncf.gausskuzmin import density_from_grid, initial_grid_density


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

    def test_domain_errors(self):
        params = NcfParams(1)
        with pytest.raises(ValueError):
            distribution_at(lebesgue_measure(), -1, 0.5, params)
        with pytest.raises(ValueError):
            distribution_at(lebesgue_measure(), 2, 1.5, params)
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
        # the operator side of each spot check is read off the experiment's
        # own iterates; n_max = 5 clamps the n = 6 check to n = 5
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        params, mu = NcfParams(1), tilted_measure()
        rep = run_experiment(mu, params, n_max=n_max, m=256, require_fit=False)
        for cell in rep.method_agreement:
            assert cell["operator"] == distribution_at(
                mu, cell["n"], cell["x"], params, method="operator", m=256)

    def test_one_operator_application_per_step(self, monkeypatch):
        # the operator is assembled once for the grid, kept for the next
        # experiment on it, and stepped once per n
        builds, steps, branch_sums = [], [], []
        assemble, step, apply = transfer._assemble, transfer._step, transfer.apply_transfer

        def counting_assemble(params, m):
            builds.append(m)
            return assemble(params, m)

        def counting_step(op, v):
            steps.append(v.size)
            return step(op, v)

        def counting_apply(*args, **kwargs):
            branch_sums.append(args[0].resolution)
            return apply(*args, **kwargs)

        monkeypatch.setattr(transfer, "_slot", {})  # no operator from an earlier test
        monkeypatch.setattr(transfer, "_assemble", counting_assemble)
        monkeypatch.setattr(transfer, "_step", counting_step)
        monkeypatch.setattr(transfer, "apply_transfer", counting_apply)
        monkeypatch.setattr(gausskuzmin, "_SPOT_PATHS", 1000)
        run_experiment(lebesgue_measure(), NcfParams(1), n_max=40, m=128,
                       rng=np.random.default_rng(3))
        assert builds == [128]
        assert steps == [129] * 40
        assert branch_sums == []
        run_experiment(gausskuzmin.tilted_measure(), NcfParams(1), n_max=40, m=128,
                       rng=np.random.default_rng(4))
        assert builds == [128]
        assert steps == [129] * 80
        assert branch_sums == []


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
        # the three spot checks draw from one generator in turn
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
], ids=["distribution_at-n", "distribution_at-n_paths", "run_experiment-n_max",
        "estimate_gap-n_max", "digits-max_len", "lowest_branch_orbits-n_max",
        "limit_path_law-r", "shifted_path_probability-n", "bruteforce-i_max-0",
        "bruteforce-i_max-half"])
@pytest.mark.filterwarnings("error")
def test_count_argument_refused_by_name(call, name):
    # a count that is no integer, or below its least value, is a ValueError
    # naming the argument, not NumPy's or range's TypeError, nor an answer
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()
