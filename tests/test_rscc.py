"""Place-dependent systems: kernels, contraction, regularity, path laws."""

import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from ncf import (
    BudgetExceededError,
    GaussMeasure,
    NcfParams,
    RsccSystem,
    contraction_coefficients,
    core,
    fixed_point,
    gn_cdf,
    kernel_matrix,
    limit_path_law,
    make_mealy_rscc,
    make_ncf_rscc,
    path_probability,
    q_cesaro,
    q_kernel,
    q_kernel_interval,
    q_step,
    q_step_mc,
    simulate_paths,
)
from ncf import rscc, transfer
from ncf.errors import charge
from ncf.rscc import q_kernel_interval_bruteforce, shifted_path_probability


@pytest.fixture(params=[1, 2, 5])
def ncf_sys(request):
    return make_ncf_rscc(NcfParams(request.param))


@pytest.fixture
def mealy_sys():
    return make_mealy_rscc(0.3, 0.6)


class TestNcfInstance:
    def test_probabilities_sum_to_one(self, ncf_sys):
        n = ncf_sys.params.n_param
        for w in (0.0, 0.3, 1.0):
            head = sum(path_probability(ncf_sys, w, (i,)) for i in range(n, n + 500))
            tail = float(rscc._tail_mass(n, w, n + 500))
            assert head + tail == pytest.approx(1.0, abs=1e-14)

    def test_transition_lands_in_state_space(self, ncf_sys):
        n = ncf_sys.params.n_param
        for w in (0.0, 0.5, 1.0):
            for i in range(n, n + 20):
                y = float(ncf_sys.transition(w, i))
                assert 0.0 < y <= 1.0

    def test_event_lipschitz_dominates_finite_differences(self, ncf_sys):
        # |du/dw| = N/(w+i)^2 <= N/i^2
        n = ncf_sys.params.n_param
        w = np.linspace(0.0, 1.0 - 1e-6, 64)
        h = 1e-6
        for i in range(n, n + 30):
            fd = np.abs(ncf_sys.transition(w + h, i) - ncf_sys.transition(w, i)) / h
            assert np.max(fd) <= n / (i * i) + 1e-9

    def test_sampler_matches_probabilities(self, ncf_sys):
        n = ncf_sys.params.n_param
        rng = np.random.default_rng(99)
        w = 0.4
        k = 200_000
        events = rscc._sample_event(n, np.full(k, w), rng.random(k))
        for i in range(n, n + 10):
            p = float(ncf_sys.probability(w, i))
            freq = float(np.mean(events == i))
            se = math.sqrt(p * (1 - p) / k)
            assert abs(freq - p) <= 4 * se + 1e-9

    def test_sampler_never_below_first_event(self, ncf_sys):
        n = ncf_sys.params.n_param
        rng = np.random.default_rng(1)
        events = rscc._sample_event(n, rng.random(10_000), rng.random(10_000))
        assert np.min(events) >= n


class TestPathProbability:
    def test_single_letter_is_one_step(self, ncf_sys):
        n = ncf_sys.params.n_param
        w = 0.25
        assert path_probability(ncf_sys, w, (n,)) == pytest.approx(
            float(ncf_sys.probability(w, n)), abs=1e-16)

    def test_product_along_orbit(self, ncf_sys):
        n = ncf_sys.params.n_param
        w = 0.7
        word = (n, n + 2, n + 1)
        manual = 1.0
        state = w
        for x in word:
            manual *= float(ncf_sys.probability(state, x))
            state = float(ncf_sys.transition(state, x))
        assert path_probability(ncf_sys, w, word) == pytest.approx(manual, rel=1e-14)

    def test_words_of_fixed_length_sum_to_one(self):
        sys = make_ncf_rscc(NcfParams(1))
        w = 0.5
        total = 0.0
        # enumerate two-letter words with the exact one-letter tail at each level
        for i in range(1, 400):
            head = path_probability(sys, w, (i,))
            wi = float(sys.transition(w, i))
            inner = sum(path_probability(sys, wi, (j,)) for j in range(1, 400))
            inner += float(rscc._tail_mass(1, wi, 400))
            total += head * inner
        total += float(rscc._tail_mass(1, w, 400))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_empty_word_rejected(self, ncf_sys):
        with pytest.raises(ValueError):
            path_probability(ncf_sys, 0.5, ())

    # at N=2 the letter 0 once gave the "probability" 3.33, 1 gave 0.667,
    # 2.5 gave 0.208 and -3 gave 0.667
    @pytest.mark.parametrize("word,message", [
        ((0,), "event must be >= 2, got 0"), ((1,), "event must be >= 2, got 1"),
        ((-3,), "event must be >= 2, got -3"), ((2, 1), "event must be >= 2, got 1"),
        ((2.5,), "event must be an integer, got 2.5"),
        ((2.0,), "event must be an integer, got 2.0"),
    ])
    def test_letters_must_be_events(self, word, message):
        sys_ = make_ncf_rscc(NcfParams(2))
        with pytest.raises(ValueError, match=f"^{message}$"):
            path_probability(sys_, 0.5, word)
        with pytest.raises(ValueError, match=f"^{message}$"):
            limit_path_law(sys_, len(word), [(2,) * len(word), word])
        with pytest.raises(ValueError, match=f"^{message}$"):
            shifted_path_probability(sys_, 0.5, 2, len(word), [word], n_paths=10)

    # the state 1.5 once gave 0.222, and NaN gave nan
    @pytest.mark.parametrize("w", [1.5, -0.25, math.nan, math.inf,
                                   np.array([0.5, 1.0 + 1e-16, 1.5])])
    def test_states_must_lie_in_the_unit_interval(self, w):
        with pytest.raises(ValueError, match=r"^state must lie in \[0, 1\], got "):
            path_probability(make_ncf_rscc(NcfParams(2)), w, (2,))

    def test_events_of_numpy_integer_type_pass(self):
        sys_ = make_ncf_rscc(NcfParams(2))
        w = np.array([0.0, 0.5, 1.0])
        want = path_probability(sys_, w, (2, 7))
        assert path_probability(sys_, w, (np.int64(2), np.uint8(7))).tobytes() == want.tobytes()


class TestQKernel:
    def test_closed_form_matches_bruteforce(self, ncf_sys):
        for x in (0.0, 0.3, 0.77, 1.0):
            for u in (0.08, 0.33, 0.5, 0.91, 1.0):
                a = q_kernel_interval(ncf_sys, x, u)
                b = q_kernel_interval_bruteforce(ncf_sys, x, u)
                assert a == pytest.approx(b, abs=1e-12)

    def test_endpoint_on_a_branch_point(self):
        # fl(0.08) > 2/25, so from x = 0 the branch i = 25 lands inside
        # [0, 0.08); both once left it out and returned 2/26
        sys_ = make_ncf_rscc(NcfParams(2))
        assert q_kernel_interval(sys_, 0.0, 0.08) == 0.08
        assert q_kernel_interval_bruteforce(sys_, 0.0, 0.08) == pytest.approx(0.08, abs=1e-16)

    def test_branch_points_as_endpoints_match_exact_rationals(self):
        # u = fl(N/(x+i)) puts a branch point within rounding of u: the branch
        # lands in [0, u) iff N < u (x+i), which only exact arithmetic decides
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(1, 1001))
            x = float(rng.random())
            u = n / (x + int(rng.integers(n, 11 * n + 1)))
            e = math.floor(n / Fraction(u) - Fraction(x)) + 1
            want = float((Fraction(x) + n) / (Fraction(x) + e))
            sys_ = make_ncf_rscc(NcfParams(n))
            got = q_kernel_interval(sys_, x, u)
            assert got == pytest.approx(want, abs=1e-15)
            assert q_kernel_interval(sys_, np.array([0.5, x]), u)[1] == got
            assert q_kernel_interval_bruteforce(sys_, x, u) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5, 1000, 2**40, 10**15, 10**20, 10**100, 10**300])
    def test_closed_form_is_exact(self, n):
        # Q(x, [0, u)) is (x+N)/(x+E) with E = floor(N/u - x) + 1 in exact
        # rationals at every N and u, past N/u = 2^49 too; where E has no
        # binary64 value, Q is taken as 0
        def exact(x, u):
            e = math.floor(Fraction(n) / Fraction(u) - Fraction(x)) + 1
            return (x + n) / (x + e) if e < 2 ** 1024 - 2 ** 970 else 0.0

        rnd = random.Random(n)
        xs = [0.0, 1.0, *(rnd.random() for _ in range(6))]
        us = [*(rnd.uniform(1e-3, 1.0) for _ in range(6)),
              *(2.0 ** -k for k in (0, 1, 3, 20, 48, 49, 50, 60, 200)),
              *(n / (x + rnd.randrange(n, 11 * n + 1)) for x in xs for _ in range(2))]
        sys_ = make_ncf_rscc(NcfParams(n))
        for u in us:
            want = [exact(x, u) for x in xs]
            assert [q_kernel_interval(sys_, x, u) for x in xs] == want, u
            assert q_kernel_interval(sys_, np.array(xs), u).tolist() == want, u

    def test_array_path_is_exact_past_two_to_the_49(self):
        # N/u = 2^50: the floats of N/u - x cannot place the jump; the kernel
        # takes it from the exact threshold
        sys_, u = make_ncf_rscc(NcfParams(1)), 2.0 ** -50
        x = np.linspace(0.0, 1.0, 8193)
        want = [(v + 1) / (v + (math.floor(1 / Fraction(u) - Fraction(v)) + 1))
                for v in x.tolist()]
        assert q_kernel_interval(sys_, x, u).tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 5, 2**40])
    @pytest.mark.parametrize("u", [2.0 ** -48, 2.0 ** -45, 2.0 ** -40, 1 / 3])
    def test_array_path_decides_near_ties_in_floats(self, n, u):
        # one float comparison with the jump decides every point as the exact
        # formula does, the near ties among them: at N=1, u = 2^-48, N/u - x
        # lies within its rounding of an integer at 4,895 of these 9,193 points
        sys_ = make_ncf_rscc(NcfParams(n))
        x = np.append(np.linspace(0.0, 1.0, 8193), np.random.default_rng(n).random(1000))
        p, q = u.as_integer_ratio()
        want = []
        for v in x.tolist():  # E = floor(N q/p - a/b) + 1 in integers, x = a/b
            a, b = v.as_integer_ratio()
            want.append((v + n) / (v + ((n * q * b - a * p) // (p * b) + 1)))
        assert q_kernel_interval(sys_, x, u).tolist() == want

    @pytest.mark.parametrize("n", [1, 10**20])
    def test_same_value_for_every_shape(self, n):
        # a float, a 0-d array and a 1-element array give the same value, the
        # first two as a Python float: one state in floats, arrays by np.where
        sys_ = make_ncf_rscc(NcfParams(n))
        for x, u in ((0.3, 0.2), (0.0, 1.0), (1.0, 2.0 ** -48), (0.77, n / (0.77 + n + 3))):
            got = [q_kernel_interval(sys_, v, u) for v in (x, np.array(x), np.array([x]))]
            assert [type(g) for g in got[:2]] == [float, float]
            assert got[0] == got[1] == got[2].item()
            assert got[2].shape == (1,)

    def test_array_path_at_the_least_subnormal(self):
        # N/u overflows to inf: no branch lands, and t - e was inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = q_kernel_interval(make_ncf_rscc(NcfParams(1)), np.linspace(0.0, 1.0, 9),
                                    5e-324)
        assert got.tolist() == [0.0] * 9

    def test_full_interval_has_mass_one(self, ncf_sys):
        for x in (0.25, 0.5, 1.0):
            assert q_kernel_interval(ncf_sys, x, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_open_target_at_left_endpoint(self, ncf_sys):
        # from x = 0 the lowest branch lands exactly at 1, outside [0, 1)
        n = ncf_sys.params.n_param
        assert q_kernel_interval(ncf_sys, 0.0, 1.0) == pytest.approx(
            n / (n + 1), abs=1e-15)

    def test_monotone_in_endpoint(self, ncf_sys):
        x = 0.4
        u = np.linspace(0.02, 1.0, 50)
        vals = [q_kernel_interval(ncf_sys, x, float(t)) for t in u]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_additivity(self, ncf_sys):
        x = 0.6
        parts = (q_kernel(ncf_sys, x, 0.0, 0.3)
                 + q_kernel(ncf_sys, x, 0.3, 0.8)
                 + q_kernel(ncf_sys, x, 0.8, 1.0))
        assert parts == pytest.approx(1.0, abs=1e-14)

    def test_invariance_of_stationary_measure(self, ncf_sys):
        # integrating the kernel against the invariant measure reproduces it
        gm = GaussMeasure(ncf_sys.params)
        n = ncf_sys.params.n_param
        for u in (0.15, 0.4, 0.62, 0.9):
            brk = n / u - math.floor(n / u)  # kernel is piecewise in x here
            pts = [brk] if 0 < brk < 1 else None
            val, _ = integrate.quad(
                lambda x: q_kernel_interval(ncf_sys, x, u) * gm.density(x),
                0.0, 1.0, epsabs=1e-13, points=pts)
            assert val == pytest.approx(gn_cdf(u, gm) - gn_cdf(0.0, gm), abs=1e-10)

    def test_domain_errors(self, ncf_sys):
        with pytest.raises(ValueError):
            q_kernel_interval(ncf_sys, -0.1, 0.5)
        with pytest.raises(ValueError):
            q_kernel_interval(ncf_sys, 0.5, 0.0)

    def test_reversed_interval_rejected(self, ncf_sys):
        # [0.8, 0.3) is no interval; each kernel once returned a negative mass
        with pytest.raises(ValueError, match="a <= b"):
            q_kernel(ncf_sys, 0.5, 0.8, 0.3)
        with pytest.raises(ValueError, match="a <= b"):
            q_step(ncf_sys, 3, 0.5, (0.8, 0.3), grid_m=64)
        with pytest.raises(ValueError, match="a <= b"):
            q_cesaro(ncf_sys, 4, 0.5, (0.8, 0.3), grid_m=64)
        with pytest.raises(ValueError, match="a <= b"):
            q_step_mc(ncf_sys, 3, 0.5, 0.8, 0.3, n_paths=1000)

    @pytest.mark.parametrize("a, b", [(0.2, math.nan), (math.nan, 0.6), (math.nan, math.nan)])
    def test_nan_endpoint_rejected(self, ncf_sys, a, b):
        # a <= b fails at a NaN end, where a > b passed: the kernels once
        # returned a negative mass, read NaN as 0, or counted no hit
        with pytest.raises(ValueError, match="a <= b"):
            q_kernel(ncf_sys, 0.5, a, b)
        with pytest.raises(ValueError, match="a <= b"):
            q_step(ncf_sys, 3, 0.5, (a, b), grid_m=64)
        with pytest.raises(ValueError, match="a <= b"):
            q_cesaro(ncf_sys, 3, 0.5, (a, b), grid_m=64)
        with pytest.raises(ValueError, match="a <= b"):
            q_step_mc(ncf_sys, 3, 0.5, a, b, n_paths=1000)


class TestQStep:
    def test_one_step_equals_closed_form(self):
        sys = make_ncf_rscc(NcfParams(2))
        # sources on grid nodes, so interpolation is exact
        for src in (0.0, 0.25, 0.5):
            got = q_step(sys, 1, src, (0.1, 0.7), grid_m=1024)
            want = q_kernel(sys, src, 0.1, 0.7)
            assert got == pytest.approx(want, abs=1e-13)

    def test_grid_matches_monte_carlo(self):
        sys = make_ncf_rscc(NcfParams(1))
        rng = np.random.default_rng(2024)
        grid_val = q_step(sys, 3, 0.3, (0.2, 0.6), grid_m=2048)
        mc = q_step_mc(sys, 3, 0.3, 0.2, 0.6, n_paths=200_000, rng=rng)
        assert abs(grid_val - mc.value) <= 4 * mc.se + 2e-3

    def test_mass_one_on_full_interval(self):
        sys = make_ncf_rscc(NcfParams(3))
        # exact at k = 1, and to rounding later, the jumps being carried
        # exactly (the grid recursion leaked up to 2e-3 at node 0)
        assert q_step(sys, 1, 0.5, (0.0, 1.0), grid_m=512) == pytest.approx(
            1.0, abs=1e-14)
        for k in (2, 4):
            val = q_step(sys, k, 0.5, (0.0, 1.0), grid_m=512)
            assert val == pytest.approx(1.0, abs=1e-14)

    def test_converges_to_stationary_mass(self):
        sys = make_ncf_rscc(NcfParams(1))
        gm = GaussMeasure(sys.params)
        want = gn_cdf(0.6, gm) - gn_cdf(0.2, gm)
        errs = [abs(q_step(sys, k, 0.3, (0.2, 0.6), grid_m=2048) - want)
                for k in (2, 4, 8)]
        assert errs[-1] < errs[0]
        # the kernel's own distance from the stationary mass at k = 8
        assert errs[-1] < 1e-4

    @pytest.mark.parametrize("source", [math.nan, math.inf, -0.1, 1.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_source_checked_with_an_empty_target(self, source, k):
        # b <= 0 never reads the kernel at the source: a NaN source gave nan
        # past k = 1, and 1.5 gave 0.0
        sys_ = make_ncf_rscc(NcfParams(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]"):
                q_step(sys_, k, source, (0.0, 0.0), grid_m=64)
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\]"):
                q_cesaro(sys_, k, source, (0.0, 0.0), grid_m=64)

    def test_rejects_bad_k(self, ncf_sys):
        for k in (0, 2.5):
            with pytest.raises(ValueError, match="^k must be "):
                q_step(ncf_sys, k, 0.5, (0.0, 0.5))

    @pytest.mark.parametrize("grid_m", [0, -3, 2.5])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rejects_bad_grid(self, k, grid_m, monkeypatch):
        # once accepted up to k = 2, and past it a NumPy or GridFunction error
        sys_ = make_ncf_rscc(NcfParams(1))
        monkeypatch.setattr(rscc, "q_kernel", _refuse)  # refused before any work
        text = f"grid_m must be {'>= 1' if grid_m < 1 else 'an integer'}"
        with pytest.raises(ValueError, match=text):
            q_step(sys_, k, 0.3, (0.2, 0.6), grid_m=grid_m)
        with pytest.raises(ValueError, match=text):
            q_cesaro(sys_, k, 0.3, (0.2, 0.6), grid_m=grid_m)

    def test_refuses_n_past_binary64_from_two_steps(self, monkeypatch):
        # the far branches' last end N 2^20 has no binary64 value from
        # N = 2^1004 - 2^950 on: a k >= 2 kernel once ended in a bare
        # OverflowError there; one step needs no such end
        sys_ = make_ncf_rscc(NcfParams(2 ** 1004 - 2 ** 950))
        assert q_step(sys_, 1, 0.3, (0.2, 0.6)) == pytest.approx(0.4, abs=1e-15)
        grid_terms = transfer._grid_terms
        monkeypatch.setattr(transfer, "_grid_terms", _refuse)  # refused before the terms
        for k in (2, 3):
            with pytest.raises(ValueError, match=r"M = 1048576 cells need N M < 2\^1024 - 2\^970"):
                q_step(sys_, k, 0.3, (0.2, 0.6), grid_m=16)
            with pytest.raises(ValueError, match=r"M = 1048576 cells need N M < 2\^1024 - 2\^970"):
                q_cesaro(sys_, k, 0.3, (0.2, 0.6), grid_m=16)
        # just below the bound on 16 cells, where the terms take no Python-int arrays
        monkeypatch.setattr(transfer, "_grid_terms", grid_terms)
        monkeypatch.setattr(transfer, "_CALLABLE_CELLS", 16)
        below = make_ncf_rscc(NcfParams((2 ** 1024 - 2 ** 970) // 16 - 1))
        assert q_step(below, 2, 0.3, (0.2, 0.6), grid_m=16) == pytest.approx(0.4, abs=1e-15)
        with pytest.raises(ValueError, match="M = 16 cells"):
            q_step(make_ncf_rscc(NcfParams((2 ** 1024 - 2 ** 970) // 16)), 2, 0.3, (0.2, 0.6))

    def test_two_steps_match_branch_by_branch_sum(self):
        # Q^(2)(source, [a, b)) sums the closed-form kernel over every branch
        # point N/(source+i); once cut at i = 1000 and folded in at one
        # midpoint mean, it was up to 1.4e-4 off at N=5
        n, branches = 5, 400_000
        sys_ = make_ncf_rscc(NcfParams(n))
        rng = np.random.default_rng(20)
        i = np.arange(n, n + branches, dtype=float)
        for _ in range(40):
            src = float(rng.random())
            a, b = np.sort(rng.random(2))
            # the rest enters at its exact mean, near 0, where the kernel is smooth
            z = src + n + branches
            rest = (src + n) / z * q_kernel(sys_, n * z * (special.polygamma(1, z) - 1 / z), a, b)
            want = np.sum((src + n) / ((src + i) * (src + i + 1.0))
                          * q_kernel(sys_, n / (src + i), a, b)) + rest
            assert abs(q_step(sys_, 2, src, (a, b)) - want) <= 1e-12


def _every_kernel_term(sys_, n, source, a, b, grid_m):
    """Q^(1..n) as the recursion computed them when every call took the
    two-step branch sum and built the grid, whatever n was, and then kept
    the first n terms: every step at the source by transfer_at, each grid
    iterate read as a callable, whose far branches group on 2^-20 cells."""
    def q1(y):
        return np.zeros_like(y) + q_kernel(sys_, y, a, b)

    params, at = sys_.params, np.array([float(source)])
    terms = [q_kernel(sys_, float(source), a, b),
             float(transfer.transfer_at(q1, params, at)[0])]
    grid = transfer.GridFunction.from_callable(q1, grid_m)
    terms += [float(transfer.transfer_at(lambda y, g=transfer.GridFunction(v): g(y), params, at)[0])
              for v in transfer.iterates(grid, params, n - 2)]
    return terms[:n]


def _refuse(*args, **kwargs):
    raise AssertionError("work this call does not need")


class TestShortRecursion:
    # q_step and q_cesaro compute only the kernel terms n reaches.  The grid
    # recursion serves N past transfer._SPECTRAL_N only: `past` is N's
    # distance above it
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("past", [1, 5])
    def test_equals_every_term_recursion(self, n, past):
        sys_ = make_ncf_rscc(NcfParams(transfer._SPECTRAL_N + past))
        rng = np.random.default_rng(100 + past)
        for _ in range(6):
            src = float(rng.random())
            a, b = (float(v) for v in np.sort(rng.random(2)))
            terms = _every_kernel_term(sys_, n, src, a, b, 256)
            # Q^(1) and Q^(2) to the bit; a grid iterate, read through one row
            # of node weights, moves by the summation order of its read
            tol = 0.0 if n < 3 else 1e-15
            assert abs(q_step(sys_, n, src, (a, b), grid_m=256) - terms[-1]) <= tol
            assert abs(q_cesaro(sys_, n, src, (a, b), grid_m=256) - sum(terms) / n) <= tol

    @pytest.mark.parametrize("past", [1, 2, 5, 50])
    def test_grid_terms_are_branch_sums_at_the_source(self, past, monkeypatch):
        # the source's point terms are taken once, on 2^-20 cells, for Q^(2)
        # and every grid iterate, and each term is still transfer_at of its
        # function read as a callable there: Q^(1) and Q^(2) to the bit, and
        # the grid iterates, read through one row of node weights, within
        # 1e-15, by the summation order of the reads
        sys_ = make_ncf_rscc(NcfParams(transfer._SPECTRAL_N + past))
        rng = np.random.default_rng(300 + past)
        cases = [(float(rng.random()), *(float(v) for v in np.sort(rng.random(2))),
                  int(rng.choice([16, 256, 1024]))) for _ in range(5)]
        wants = [_every_kernel_term(sys_, 10, *case) for case in cases]
        cells = []
        branch_terms = transfer._branch_terms
        monkeypatch.setattr(transfer, "_branch_terms",
                            lambda *args: cells.append(args[2]) or branch_terms(*args))
        monkeypatch.setattr(transfer, "transfer_at", _refuse)
        for case, want in zip(cases, wants):
            got = rscc._kernel_terms(sys_, 10, *case)
            assert got[:2] == want[:2]
            assert max(abs(g - w) for g, w in zip(got[2:], want[2:])) <= 1e-15
        assert cells == [transfer._CALLABLE_CELLS] * len(cases)  # one point-term set a call

    @pytest.mark.parametrize("grid_m", [16, 1000, 1024])
    @pytest.mark.parametrize("past", [1, 5, 50])
    def test_matches_the_grid_cell_route(self, past, grid_m):
        # the route that read each grid iterate at the source on the grid's
        # own cells, a second point-term set: Q^(1) and Q^(2) are its terms to
        # the bit, and Q^(k >= 3) lie within 1e-15, at 1000 cells too, which
        # do not divide 2^20
        sys_ = make_ncf_rscc(NcfParams(transfer._SPECTRAL_N + past))
        params, rng = sys_.params, np.random.default_rng(700 + past)
        for _ in range(4):
            src = float(rng.random())
            a, b = (float(v) for v in np.sort(rng.random(2)))

            def q1(y):
                return np.zeros_like(y) + q_kernel(sys_, y, a, b)

            at = np.array([src])
            grid = transfer.GridFunction.from_callable(q1, grid_m)
            want = [q_kernel(sys_, src, a, b), float(transfer.transfer_at(q1, params, at)[0])]
            want += [float(transfer.transfer_at(transfer.GridFunction(v), params, at)[0])
                     for v in transfer.iterates(grid, params, 8)]
            got = rscc._kernel_terms(sys_, 10, src, a, b, grid_m)
            assert got[:2] == want[:2]
            assert max(abs(g - w) for g, w in zip(got[2:], want[2:])) <= 1e-15

    def test_second_call_forms_no_layout(self, monkeypatch):
        # N = 2^10 on 2^-20 cells: the layout of the source's point terms,
        # 1.6 MB, is held for the next call on its key
        sys_ = make_ncf_rscc(NcfParams(2 ** 10))
        monkeypatch.setattr(transfer, "_held", {})
        want = q_step(sys_, 2, 0.3, (0.2, 0.6))
        monkeypatch.setattr(transfer, "_thresholds", _refuse)
        assert q_step(sys_, 2, 0.3, (0.2, 0.6)) == want
        assert q_cesaro(sys_, 2, 0.3, (0.2, 0.6)) == (q_kernel(sys_, 0.3, 0.2, 0.6) + want) / 2

    def test_no_grid_below_three_steps(self, monkeypatch):
        sys_ = make_ncf_rscc(NcfParams(transfer._SPECTRAL_N + 2))
        monkeypatch.setattr(transfer.GridFunction, "from_callable", _refuse)
        q_step(sys_, 2, 0.3, (0.1, 0.7))
        q_cesaro(sys_, 2, 0.3, (0.1, 0.7))
        monkeypatch.setattr(transfer, "transfer_at", _refuse)
        monkeypatch.setattr(transfer, "_branch_terms", _refuse)
        assert q_step(sys_, 1, 0.3, (0.1, 0.7)) == q_kernel(sys_, 0.3, 0.1, 0.7)
        assert q_cesaro(sys_, 1, 0.3, (0.1, 0.7)) == q_kernel(sys_, 0.3, 0.1, 0.7)


@pytest.mark.parametrize("fn,k,source", [(q_cesaro, 4, 1.0), (q_step, 6, 0.0)],
                         ids=["q_cesaro", "q_step"])
def test_whole_interval_has_mass_one(fn, k, source):
    # from a state above 0 every branch lands in [0, 1), and from 0 every
    # later state lies above 0, so both are 1.  The grid recursion missed it:
    # its node 0 held Q^(1)(0) = 1/2, and the far branches read the cell
    # [0, 1/M] between 1/2 and 1: 0.99983 and 0.99965 at M = 1024
    assert fn(make_ncf_rscc(NcfParams(1)), k, source, (0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


class TestQCesaroNearJump:
    # sources within about a grid cell of a jump of the one- or two-step
    # kernel, where interpolating the grid across the jump misread it; the
    # last four are the q_cesaro[n=10,.] tasks of the benchmark's gk-iterate
    # that the grid recursion failed, at seeds 3033, 3406, 5411 and 5493
    @pytest.mark.parametrize("source,a,b", [
        (0.38958496933757203, 0.3676879264513151, 0.4289573478325086),
        (0.4843347156369702, 0.7130512454106287, 0.881000475459319),
        (0.27133767320949903, 0.7865127852852144, 0.9152905165309599),
        (0.3470080586526752, 0.6229727548953878, 0.7424404062506842),
        (0.1591048430233845, 0.1928306608169278, 0.6506651377117445),
        (0.8589906691637565, 0.5654273634782184, 0.6059231019916032),
        (0.5981614262973743, 0.3965461545454889, 0.619147329546909),
        (0.18720467687926118, 0.166296057400947, 0.6481085039993115),
    ])
    def test_matches_monte_carlo_cesaro_average(self, source, a, b):
        sys = make_ncf_rscc(NcfParams(1))
        n, n_paths = 10, 100_000
        rng = np.random.default_rng(20240824)
        w = np.full(n_paths, source)
        hits = np.zeros(n_paths)
        for _ in range(n):
            w = sys.transition(w, rscc._sample_event(1, w, rng.random(n_paths)))
            hits += (w >= a) & (w < b)
        share = hits / n
        mean, se = float(np.mean(share)), float(np.std(share) / math.sqrt(n_paths))
        got = q_cesaro(sys, n, source, (a, b))
        assert abs(got - mean) <= 4 * se


class _Spectral48:
    """The exact route's state written apart from rscc, on 49 Chebyshev-Lobatto
    nodes: the operator built from N by 128 direct branches and Gregory's
    differences, C_F summed directly below N + 128 and taken as S - T(F+1)
    past it, and every jump decided by Fraction."""

    GREGORY = (Fraction(1, 2), Fraction(-1, 12), Fraction(1, 24), Fraction(-19, 720),
               Fraction(3, 160), Fraction(-863, 60480), Fraction(275, 24192),
               Fraction(-33953, 3628800), Fraction(8183, 1036800),
               Fraction(-3250433, 479001600), Fraction(4671, 788480))

    def __init__(self, n, k=48):
        j = np.arange(k + 1)
        self.n, self.x = n, np.sin(j * np.pi / (2 * k)) ** 2
        self.bary = (-1.0) ** j
        self.bary[[0, -1]] /= 2
        gl, glw = np.polynomial.legendre.leggauss(20)
        self.gl, self.glw = (gl + 1) / 2, glw / 2
        self.s = self.tail(n)
        self.rows_n = self.rows(np.arange(n, n + 128))

    def lagrange(self, y):
        d = y[..., None] - self.x
        hit = d == 0.0
        d[hit] = 1.0
        q = self.bary / d
        on = hit.any(axis=-1)
        q[on] = hit[on]
        return q / q.sum(axis=-1, keepdims=True)

    def rows(self, i):
        """B_i[r, c] = P_i(x_r) L_c(N/(x_r+i)), (branch, r, c)."""
        z = self.x[:, None] + np.asarray(i, dtype=float)
        mass = (self.x + self.n)[:, None] / z / (z + 1.0)
        return (mass[..., None] * self.lagrange(self.n / z)).transpose(1, 0, 2)

    def tail(self, start):
        """sum_{i >= start} B_i."""
        n, x = self.n, self.x[:, None]
        i0 = max(start, n + 128)
        out = self.rows(np.arange(start, i0)).sum(axis=0) if start < i0 else 0.0
        d = self.rows(float(i0) + np.arange(11.0))
        for g in self.GREGORY:
            out = out + float(g) * d[0]
            d = np.diff(d, axis=0)
        ui = n / (x + float(i0))
        u = ui * self.gl
        return out + np.einsum("rq,rqc->rc", self.glw * ui * (x + n) / (n + u), self.lagrange(u))

    def terms(self, steps, source, a, b):
        """Q^(1..steps)(source, [a, b))."""
        n, x, src = self.n, self.x, Fraction(source)
        part, jumps = np.zeros(x.size), []
        for u, sign in ((b, 1.0), (a, -1.0)):
            if u > 0:
                q = n / Fraction(u)
                z = x + math.floor(q)
                part = part + sign * (x + n) / (z + 1.0)
                jumps.append((sign * (x + n) / z / (z + 1.0), q - math.floor(q), True))
        ell, out = self.lagrange(np.array([float(source)]))[0], []
        for k in range(steps):
            out.append(float(ell @ (part + sum((g for g, p, strict in jumps
                                                if src > p or not strict and src == p),
                                               np.zeros(x.size)))))
            new, moved = self.s @ part, []
            for g, p, strict in jumps:
                if p == 0:  # every branch lands above 0
                    new = new + self.s @ g
                    continue
                f = math.floor(n / p)
                rho = n / p - f
                if strict and rho == 0:  # branch f - 1 lands on p at x = 1
                    f, rho = f - 1, Fraction(1)
                if f - n < 128:
                    c, bf = self.rows_n[:f - n + 1].sum(axis=0), self.rows_n[f - n]
                else:
                    c, bf = self.s - self.tail(f + 1), self.rows([f])[0]
                new = new + c @ g
                moved.append((-(bf @ g), rho, not strict))
            part, jumps = new, moved
        return out


def _two_step_sum(n, x, a, b):
    """Q^(2)(x, [a, b)) = sum_i P_i(x) Q^(1)(y_i, [a, b)), y_i = N/(x+i).  For
    an end u, N/u = f + phi: branch i takes Q^(1)'s piece (y+N)/(y+f) where
    y_i > phi, i.e. i < N/phi - x, decided by Fraction, and (y+N)/(y+f+1)
    elsewhere.  Over every branch the second sums in closed form, P_i(x)
    (y+N)/(y+f+1) being (x+N)(1/z - 1/(z+c)), z = x+i, c = N/(f+1): to
    (x+N)(psi(x+N+c) - psi(x+N)), by mpmath.  The branches below the
    crossing add P_i(x) P_f(y_i), their difference, by fsum."""
    total = 0.0
    for u, sign in ((b, 1), (a, -1)):
        if u <= 0:
            continue
        q = n / Fraction(u)
        f, phi = math.floor(q), q - math.floor(q)
        if phi:
            last = math.ceil(n / phi - Fraction(x)) - 1
        else:  # every y_i > 0 takes (y+N)/(y+f)
            f, last = f - 1, n - 1
        with mpmath.workdps(40):
            xm, c = mpmath.mpf(x), mpmath.mpf(n) / (f + 1)
            whole = float((xm + n) * (mpmath.digamma(xm + n + c) - mpmath.digamma(xm + n)))
        z = x + np.arange(n, last + 1, dtype=float)
        y = n / z
        below = math.fsum((x + n) / (z * (z + 1.0)) * (y + n) / ((y + f) * (y + f + 1.0)))
        total += sign * (whole + below)
    return total


class TestExactKernel:
    """Up to transfer._SPECTRAL_N the kernel's jumps are carried in closed
    form and the rest on the 25-point spectral operator (rscc._exact_terms)."""

    @pytest.mark.parametrize("big_n", [1, 2, 5, 50, 1000])
    def test_agrees_with_49_nodes(self, big_n, monkeypatch):
        # Q^(1..10) within 1e-14 of the same state on 49 nodes; (0.3, [0.2,
        # 0.6)) takes Gregory's tail: 0.2's float lies within 1e-17 of 1/5
        sys_, ref = make_ncf_rscc(NcfParams(big_n)), _Spectral48(big_n)
        tails, tail = [], transfer._spectral_tail
        monkeypatch.setattr(transfer, "_spectral_tail", lambda *a: tails.append(a) or tail(*a))
        rng = np.random.default_rng(900 + big_n)
        cases = [(0.3, 0.2, 0.6)] + [(float(rng.random()), *(float(v) for v in np.sort(rng.random(2))))
                                     for _ in range(8)]
        for src, a, b in cases:
            got = rscc._kernel_terms(sys_, 10, src, a, b, 1024)
            assert got[0] == q_kernel(sys_, src, a, b)
            assert max(abs(g - w) for g, w in zip(got, ref.terms(10, src, a, b))) <= 1e-14
        assert tails

    def test_reference_value(self):
        # the grid recursion read 0.3215194, 0.3216253 and 0.3216517 at M =
        # 1024, 4096 and 16384
        got = q_step(make_ncf_rscc(NcfParams(1)), 3, 0.3, (0.2, 0.5))
        assert got == pytest.approx(0.3216605680, abs=5e-11)

    # targets whose Q^(2) jumps at 1/2 (">="), and whose Q^(1) jumps at a p
    # with N/p an integer (">", R = 0), so that at x = 1 a branch lands on it
    @pytest.mark.parametrize("big_n,on_half,r_zero", [
        (1, 0.375, 0.75), (2, 0.4375, 0.75), (5, 0.75, 0.375), (1000, 0.484375, 0.75)])
    def test_two_steps_at_sources_on_ties(self, big_n, on_half, r_zero):
        sys_ = make_ncf_rscc(NcfParams(big_n))
        for b in (on_half, r_zero):
            for a in (0.0, 0.1):
                for src in (0.0, 0.5, 1.0):
                    want = _two_step_sum(big_n, src, a, b)
                    assert abs(q_step(sys_, 2, src, (a, b)) - want) <= 4e-15

    def test_a_strict_jump_with_no_remainder_drops_its_branch_at_one(self):
        # N = 1, [0, 5/8): Q^(3) jumps at 1/2 (">"), and 1/(x+1) lands on 1/2
        # at x = 1 only: Q^(4) at 1 drops branch 1 there, P_1(1) = 1/3 times
        # Q^(3)'s jump, and is continuous from the left otherwise
        sys_ = make_ncf_rscc(NcfParams(1))

        def q(k, x):
            return q_step(sys_, k, x, (0.0, 0.625))

        jump = q(3, math.nextafter(0.5, 1.0)) - q(3, 0.5)
        assert abs(jump) > 0.01
        assert abs(q(4, 1.0) - q(4, math.nextafter(1.0, 0.0)) + jump / 3) <= 1e-14

    @pytest.mark.parametrize("big_n", [1, 1000])
    def test_ends_far_below_every_branch(self, big_n):
        # an end of 1e-300 takes f = N 10^300, whose P_f would overflow as one
        # product; one of 5e-324, f = N 2^1074, has no binary64 value, and adds
        # no term, as Q^(1) = 0 there
        sys_ = make_ncf_rscc(NcfParams(big_n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from_zero = rscc._kernel_terms(sys_, 6, 0.3, 0.0, 0.6, 1024)
            assert max(abs(g - w) for g, w in zip(
                rscc._kernel_terms(sys_, 6, 0.3, 1e-300, 0.6, 1024), from_zero)) <= 1e-15
            assert rscc._kernel_terms(sys_, 6, 0.3, 5e-324, 0.6, 1024)[1:] == from_zero[1:]
            assert max(map(abs, rscc._kernel_terms(sys_, 6, 0.3, 0.0, 1e-300, 1024))) <= 1e-290

    def test_charged_before_any_table(self, monkeypatch):
        # the charge covers the products, the held blocks and S, and the
        # tails ((0.3, [0.2, 0.6)) at N = 3 takes one); one unit below it is
        # refused before a block or a tail is formed
        sys_, costs = make_ncf_rscc(NcfParams(3)), []
        monkeypatch.setattr(rscc, "charge", lambda cost, what: costs.append(cost) or charge(cost, what))
        want = q_step(sys_, 10, 0.3, (0.2, 0.6))
        (cost,) = costs
        monkeypatch.setenv("NCF_BUDGET", str(cost))
        transfer._spectral_blocks.cache_clear()
        assert q_step(sys_, 10, 0.3, (0.2, 0.6)) == want
        monkeypatch.setenv("NCF_BUDGET", str(cost - 1))
        transfer._spectral_blocks.cache_clear()
        monkeypatch.setattr(transfer, "_spectral_rows", _refuse)
        monkeypatch.setattr(transfer, "_spectral_tail", _refuse)
        with pytest.raises(BudgetExceededError, match="^kernel iterates"):
            q_step(sys_, 10, 0.3, (0.2, 0.6))

    def test_held_blocks_are_read_only(self):
        s, blocks = transfer._spectral_blocks(2)
        assert transfer._spectral_blocks(2)[1] is blocks
        assert transfer._spectral_blocks.cache_info().maxsize == 4
        k1 = transfer._K + 1
        assert blocks.shape == (128, 2 * k1, k1) and blocks.nbytes == 1_280_000
        for held in (s, blocks):
            with pytest.raises(ValueError, match="read-only"):
                held[0, 0] = 1.0
        # C_i on -B_i, i = N, N + 1; S's rows sum to 1
        b = transfer._spectral_rows(2, [2, 3])
        assert np.array_equal(blocks[0], np.concatenate((b[0], -b[0])))
        assert np.abs(blocks[1, :k1] - b[0] - b[1]).max() <= 1e-16
        assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-15


class TestMealy:
    def test_kernel_rows_sum_to_one(self, mealy_sys):
        k = kernel_matrix(mealy_sys)
        assert np.allclose(k.sum(axis=1), 1.0, atol=1e-15)
        assert np.array_equal(k, np.array(core.mealy_kernel(0.3, 0.6)))

    def test_stationary_is_fixed(self):
        kernel = core.mealy_kernel(0.3, 0.6)
        pi = np.array(core.mealy_cesaro(kernel, math.inf)[0])
        assert np.max(np.abs(pi @ np.array(kernel) - pi)) <= 1e-15
        assert pi.sum() == pytest.approx(1.0, abs=1e-15)

    def test_stationary_degenerate_rejected(self):
        with pytest.raises(ValueError):
            core.mealy_cesaro(core.mealy_kernel(1.0, 0.0), math.inf)

    def test_chapman_kolmogorov_exact(self):
        # in exact rational arithmetic K^(m+n) = K^m K^n with no error at all
        k = core.mealy_kernel(Fraction(0.3), Fraction(0.6))

        def matmul(a, b):
            return [[sum(a[i][t] * b[t][j] for t in range(2)) for j in range(2)]
                    for i in range(2)]

        k2 = matmul(k, k)
        k3 = matmul(k2, k)
        k5 = matmul(k2, k3)
        assert matmul(k3, k2) == k5
        assert all(sum(row) == Fraction(1) for row in k5)

    def test_exact_kernel_matches_float(self):
        exact = core.mealy_kernel(Fraction(0.3), Fraction(0.6))
        approx = np.array(core.mealy_kernel(0.3, 0.6))
        for i in range(2):
            for j in range(2):
                assert float(exact[i][j]) == pytest.approx(approx[i, j], abs=1e-15)

    def test_cesaro_reaches_stationary_at_huge_n(self, mealy_sys):
        pi = core.mealy_cesaro(core.mealy_kernel(0.3, 0.6), math.inf)[0]
        for source in (1.0, 2.0):
            for target, want in (([1.0], pi[0]), ([2.0], pi[1])):
                got = q_cesaro(mealy_sys, 10**10, source, target)
                assert abs(got - want) <= 1e-10

    def test_cesaro_small_n_matches_direct_sum(self, mealy_sys):
        k = kernel_matrix(mealy_sys)
        acc = np.zeros((2, 2))
        p = np.eye(2)
        for _ in range(12):
            p = p @ k
            acc += p
        want = (acc / 12)[0, 0]
        assert q_cesaro(mealy_sys, 12, 1.0, [1.0]) == pytest.approx(want, abs=1e-14)

    def test_cesaro_closed_form_consistent_with_direct(self, mealy_sys):
        # consecutive n of the closed form differ by O(1/n^2)
        a = q_cesaro(mealy_sys, 64, 1.0, [1.0])
        b = q_cesaro(mealy_sys, 65, 1.0, [1.0])
        # both sit within O(1/n) of the stationary value and near each other
        assert abs(a - b) <= 1e-2

    @pytest.mark.parametrize("w, word, what", [
        (5.0, (1, 2), "state"), (0.0, (1,), "state"), (math.nan, (1,), "state"),
        (np.array([1.0, 5.0]), (1,), "state"),
        (1.0, (3,), "event"), (1.0, (1, 0), "event"), (2.0, (2.5,), "event"),
    ])
    def test_unknown_states_and_events_rejected(self, mealy_sys, w, word, what):
        # state 5 was read as state 2, and event 3 as event 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{what} must be 1 or 2"):
                path_probability(mealy_sys, w, word)

    def test_array_of_states_passes(self, mealy_sys):
        got = path_probability(mealy_sys, np.array([1.0, 2.0, 1.0]), (2, 1))
        want = [path_probability(mealy_sys, w, (2, 1)) for w in (1.0, 2.0, 1.0)]
        assert got.tolist() == want

    def test_cesaro_source_must_be_a_state(self, mealy_sys):
        # once "tuple.index(x): x not in tuple"
        with pytest.raises(ValueError, match=r"^source must be one of the states \(1\.0, 2\.0\)"):
            q_cesaro(mealy_sys, 5, 3.0, [1.0])

    def test_cesaro_target_members_must_be_states(self, mealy_sys):
        # once 0.0: the member that is not a state was dropped
        with pytest.raises(ValueError, match=r"^target member must be one of the states \(1\.0, 2\.0\), got 3\.0$"):
            q_cesaro(mealy_sys, 5, 1.0, [3.0])
        with pytest.raises(ValueError, match=r"got 0\.5$"):
            q_cesaro(mealy_sys, 5, 1.0, (2.0, 0.5))

    def test_cesaro_needs_two_states(self):
        # the closed form is the two-state one; the package builds no other
        # finite system
        sys_ = RsccSystem(transition=lambda w, x: np.asarray(w, dtype=float) * 0.0 + x,
                          probability=lambda w, x: np.asarray(w, dtype=float) * 0.0 + 1 / 3,
                          events=(1, 2, 3), states=(1.0, 2.0, 3.0))
        assert kernel_matrix(sys_).shape == (3, 3)
        with pytest.raises(ValueError, match="two-state"):
            q_cesaro(sys_, 10, 1.0, [1.0])

    @pytest.mark.parametrize("call", [
        lambda s: q_step(s, 2, 1.0, (0.0, 0.5)),
        lambda s: shifted_path_probability(s, 1.0, 3, 1, [(1,)]),
        lambda s: contraction_coefficients(s, k_max=1),
    ], ids=["q_step", "shifted_path_probability", "contraction_coefficients"])
    def test_continued_fraction_routines_reject_it(self, mealy_sys, call, monkeypatch):
        # refused before any work is charged
        monkeypatch.setenv("NCF_BUDGET", "0")
        with pytest.raises(ValueError, match="needs the continued-fraction system"):
            call(mealy_sys)

    def test_dot_export(self):
        dot = core.mealy_dot(core.mealy_kernel(0.3, 0.6))
        assert dot.startswith("digraph")
        assert '1 -> 1 [label="1/0.3"];' in dot
        assert '1 -> 2 [label="2/0.7"];' in dot
        assert '2 -> 1 [label="1/0.6"];' in dot
        assert '2 -> 2 [label="2/0.4"];' in dot


class TestContraction:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_certified_for_ncf(self, n):
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(n)))
        assert rep.certified
        assert all(0.0 < r < 1.0 for r in rep.r_values)
        assert math.isfinite(rep.big_r) and rep.big_r > 0.0

    def test_submultiplicative(self):
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(1)), k_max=2)
        r1, r2 = rep.r_values
        assert r2 <= r1 * r1 + 0.05

    def test_r1_analytic_anchor(self):
        # sup over pairs of sum_i P(w,i) |u'| is attained near w = 0 where it
        # equals sum_{i>=1} 1/(i(i+1)) * 1/i^2 = zeta(3) - zeta(2) + 1
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(1)), k_max=1)
        anchor = 1.2020569031595942 - math.pi ** 2 / 6 + 1
        assert rep.r_values[0] == pytest.approx(anchor, abs=5e-3)

    def test_rejects_bad_kmax(self):
        for k_max in (0, 2.5):
            with pytest.raises(ValueError, match="k_max"):
                contraction_coefficients(make_ncf_rscc(NcfParams(1)), k_max=k_max)

    @pytest.mark.parametrize("grid", [0, -3, 2.5])
    def test_rejects_bad_grid(self, grid, monkeypatch):
        # once an IndexError at 0, NumPy's "Number of samples" at -3, and a
        # TypeError at 2.5; rejected before the charge
        monkeypatch.setattr(rscc, "charge", _refuse)
        with pytest.raises(ValueError, match="grid must"):
            contraction_coefficients(make_ncf_rscc(NcfParams(1)), grid=grid)

    @pytest.mark.parametrize("n", [1, 2, 5, 50, 1000, 10**6])
    def test_big_r_is_a_quarter_over_n(self, n):
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(n)), k_max=1, grid=8)
        assert rep.big_r == 1 / (4 * n)

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_anchored_pairs_beat_random_pairs(self, n):
        # every word map is Moebius with a difference quotient falling in w',
        # so for each w the pair (w, 0) reads r_k at least as high as (w, w')
        # for any w', and the anchored pairs as high as pairs drawn anywhere
        sys_ = make_ncf_rscc(NcfParams(n))
        rng = np.random.default_rng(20240824)
        drawn = rng.random(256), rng.random(256)
        w1, w2 = rscc._pair_grid(64)
        assert w1.tolist() == [j / 64 for j in range(1, 65)] + [0.0]
        assert w2.tolist() == [0.0] * 64 + [1 / 64]
        for k in (1, 2, 3):
            assert rscc._r_k_estimate(sys_, k, w1, w2) >= rscc._r_k_estimate(sys_, k, *drawn)
            for w in drawn[0][:2]:
                assert (rscc._r_k_estimate(sys_, k, np.array([w]), np.array([0.0]))
                        >= rscc._r_k_estimate(sys_, k, np.full(64, w), drawn[1][:64]))

    @pytest.mark.parametrize("grid", [1, 8, 512])
    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_blocked_leaves_are_the_stack_enumeration(self, n, grid):
        # the last letter over blocks of events adds the same leaves in the
        # order a stack of every word pops them: the same floats, bit for bit
        sys_ = make_ncf_rscc(NcfParams(n))
        w1, w2 = rscc._pair_grid(grid)
        for k in (1, 2, 3):
            width = max(2, round(2048 ** (1 / k)))
            total, stack = np.zeros_like(w1), [(0, w1, w2, np.ones_like(w1))]
            while stack:
                depth, a, b, prob = stack.pop()
                if depth == k:
                    total += prob * np.abs(a - b) / np.abs(w1 - w2)
                    continue
                m = n + width
                total += (prob * rscc._tail_mass(n, a, m) * (np.abs(a - b) / np.abs(w1 - w2))
                          * (n / (m * m)) * (n / (n * n)) ** (k - depth - 1))
                stack += [(depth + 1, sys_.transition(a, x), sys_.transition(b, x),
                           prob * sys_.probability(a, x)) for x in range(n, m)]
            assert rscc._r_k_estimate(sys_, k, w1, w2) == float(np.max(total)), k

    def test_enumeration_memory_stays_flat(self):
        # 2048 leaves of 2049 pairs: pushed all at once they held 101.6 MB
        tracemalloc.start()
        try:
            contraction_coefficients(make_ncf_rscc(NcfParams(1)), k_max=1, grid=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestRegularity:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_orbits_collapse_to_fixed_point(self, n):
        params = NcfParams(n)
        x_star, _, orbits = core.lowest_branch_orbits(params, [0.0, 0.25, 0.5, 1.0], 80)
        assert x_star == pytest.approx(fixed_point(params), abs=1e-15)
        for curve in (np.fromiter(o, float, 80) for o in orbits):
            assert curve[-1] <= 1e-14
            # strictly contracting until the rounding floor is reached
            above = curve > 1e-13
            assert np.all(curve[1:][above[1:]] < curve[:-1][above[1:]])

    def test_ratio_limit_matches_observed(self):
        _, ratio_limit, (orbit,) = core.lowest_branch_orbits(NcfParams(2), [0.1], 30)
        curve = np.fromiter(orbit, float, 30)
        observed = curve[15] / curve[14]
        assert observed == pytest.approx(ratio_limit, abs=1e-6)

    def test_analytic_ratio_formula(self):
        for n in (1, 2, 5):
            x_star, ratio_limit, _ = core.lowest_branch_orbits(NcfParams(n), [0.5], 5)
            assert ratio_limit == pytest.approx(n / (x_star + n) ** 2, abs=1e-15)
            assert 0.0 < ratio_limit < 1.0

    def test_orbit_steps_charged_before_allocation(self, monkeypatch):
        # one unit an orbit step, charged before any orbit is started
        params = NcfParams(1)
        monkeypatch.setenv("NCF_BUDGET", "30")
        core.lowest_branch_orbits(params, [0.0, 0.5, 1.0], 10)
        monkeypatch.setenv("NCF_BUDGET", "29")
        with pytest.raises(BudgetExceededError, match="regularity orbit steps"):
            core.lowest_branch_orbits(params, [0.0, 0.5, 1.0], 10)
        with pytest.raises(BudgetExceededError):
            core.lowest_branch_orbits(params, [0.5], 10**15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     -0.1, 1.5, 2.0])
    def test_start_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="start"):
            core.lowest_branch_orbits(NcfParams(1), [0.5, bad], 10)


class TestShiftedPathLaw:
    def test_ncf_approaches_digit_law(self):
        sys = make_ncf_rscc(NcfParams(1))
        gm = GaussMeasure(sys.params)
        rng = np.random.default_rng(31337)
        est = shifted_path_probability(sys, 0.5, 30, 1, [(1,)],
                                       n_paths=100_000, rng=rng)
        assert abs(est.value - core.digit_probability(1, gm.params)) <= 4 * est.se + 1e-4

    def test_word_length_validated(self, ncf_sys):
        with pytest.raises(ValueError):
            shifted_path_probability(ncf_sys, 0.5, 3, 2, [(1,)])

    def test_a_repeated_word_counts_once(self):
        # five copies of (2,) once gave 1.44, five times its estimate
        sys_ = make_ncf_rscc(NcfParams(2))
        once = shifted_path_probability(sys_, 0.5, 3, 1, [(2,)], n_paths=1000,
                                        rng=np.random.default_rng(5))
        five = shifted_path_probability(sys_, 0.5, 3, 1, [(2,)] * 5, n_paths=1000,
                                        rng=np.random.default_rng(5))
        assert five == once


class TestLimitPathLaw:
    # the ids number the cases as they were when two tail sets sat between
    # the second and the third
    @pytest.mark.parametrize("n,r,word_set", [
        pytest.param(1, 1, [(1,)], id="1-1-word_set0"),
        pytest.param(2, 1, [(i,) for i in range(2, 6)], id="2-1-word_set1"),
        pytest.param(1, 2, [(1, 1), (1, 7), (3, 2)], id="1-2-word_set4"),
        pytest.param(1, 2, [(1, 199)], id="1-2-word_set5"),
        pytest.param(2, 3, [(2, 3, 2), (4, 2, 9)], id="2-3-word_set6"),
    ])
    def test_matches_quad(self, n, r, word_set):
        # scipy's adaptive quad is the oracle of the fixed panels
        sys = make_ncf_rscc(NcfParams(n))
        gm = GaussMeasure(sys.params)

        def integrand(w):
            p = sum(path_probability(sys, w, word) for word in word_set)
            return float(p) * gm.density(w)

        want, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, limit=200)
        assert abs(limit_path_law(sys, r, word_set) - want) <= 1e-14

    def test_a_repeated_word_counts_once(self):
        # five copies of (2,) once gave 1.452, five times its law
        sys_ = make_ncf_rscc(NcfParams(2))
        assert limit_path_law(sys_, 1, [(2,)] * 5) == limit_path_law(sys_, 1, [(2,)])
        want = limit_path_law(sys_, 2, [(3, 2), (2, 5)])
        assert limit_path_law(sys_, 2, [(3, 2), (2, 5), (3, 2), [2, 5], (np.int64(3), 2)]) == want

    @pytest.mark.parametrize("r,word_set", [(2, [(1,)]), (1, [(1, 1)])])
    def test_word_set_must_match_r(self, r, word_set):
        # the words were once integrated whatever their length
        with pytest.raises(ValueError, match="length r"):
            limit_path_law(make_ncf_rscc(NcfParams(1)), r, word_set)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_letter_law_is_digit_law(self, n):
        sys = make_ncf_rscc(NcfParams(n))
        gm = GaussMeasure(sys.params)
        for i in range(n, n + 5):
            assert limit_path_law(sys, 1, [(i,)]) == pytest.approx(
                core.digit_probability(i, gm.params), abs=1e-10)

    def test_two_letter_words_sum_to_marginal(self):
        # summing the second letter recovers the one-letter law
        sys = make_ncf_rscc(NcfParams(1))
        gm = GaussMeasure(sys.params)
        total = sum(limit_path_law(sys, 2, [(1, j)]) for j in range(1, 200))
        # tail over the second letter, conditioned inside the quadrature
        tail = limit_path_law(sys, 1, [(1,)]) - total

        def integrand(w):
            w1 = float(sys.transition(w, 1))
            return (float(sys.probability(w, 1))
                    * (w1 + 1) / (w1 + 200) * gm.density(w))

        want_tail, _ = integrate.quad(integrand, 0, 1, epsabs=1e-12)
        assert tail == pytest.approx(want_tail, abs=1e-9)


class TestSimulatePaths:
    def test_terminal_states_in_range(self, ncf_sys):
        rng = np.random.default_rng(8)
        w = simulate_paths(ncf_sys, 0.5, 5, 1000, rng)
        assert np.all((w > 0.0) & (w <= 1.0))

    def test_rejects_no_paths(self, ncf_sys):
        # with no path there is no estimate: once a ZeroDivisionError, and at
        # 2.5 NumPy's TypeError
        for n_paths in (0, 2.5):
            with pytest.raises(ValueError, match="n_paths"):
                simulate_paths(ncf_sys, 0.5, 3, n_paths)
            with pytest.raises(ValueError, match="n_paths"):
                q_step_mc(ncf_sys, 3, 0.5, 0.2, 0.6, n_paths=n_paths)

    def test_deterministic_given_seed(self, ncf_sys):
        a = simulate_paths(ncf_sys, 0.5, 5, 100, np.random.default_rng(4))
        b = simulate_paths(ncf_sys, 0.5, 5, 100, np.random.default_rng(4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("source", [float("nan"), float("inf"), 1.5, -0.5])
    def test_source_outside_unit_interval_rejected(self, ncf_sys, source):
        # q_step_mc once gave 0.0 at a NaN source, and 0.41 and 0.32 at 1.5
        # and -0.5, where q_step raises
        with pytest.raises(ValueError, match="x must"):
            simulate_paths(ncf_sys, source, 3, 100)
        with pytest.raises(ValueError, match="x must"):
            q_step_mc(ncf_sys, 3, source, 0.2, 0.6, n_paths=100)
        with pytest.raises(ValueError, match="x must"):
            shifted_path_probability(ncf_sys, source, 2, 1, [(5,)], n_paths=100)

    def test_steps_and_k_checked(self, ncf_sys):
        # steps = -1 once returned the sources unstepped, and k = 0 the mass
        # 1; steps = 2.5 and k = 3.0 ended in range's TypeError
        for steps, k in ((-1, 0), (2.5, 3.0)):
            with pytest.raises(ValueError, match="steps"):
                simulate_paths(ncf_sys, 0.5, steps, 100)
            with pytest.raises(ValueError, match="k must"):
                q_step_mc(ncf_sys, k, 0.5, 0.0, 1.0, n_paths=100)
        # n = 1 takes no burn-in step
        assert np.array_equal(simulate_paths(ncf_sys, 0.5, 0, 3), [0.5, 0.5, 0.5])

    def test_finite_system_rejected(self, mealy_sys):
        # paths are sampled from the continued-fraction system's closed-form
        # inverse CDF; a finite system has none
        with pytest.raises(ValueError, match="continued-fraction system"):
            simulate_paths(mealy_sys, 1.0, 3, 100)
        with pytest.raises(ValueError, match="continued-fraction system"):
            q_step_mc(mealy_sys, 3, 1.0, 0.5, 1.5, n_paths=100)


class TestBitIdentity:
    # float-hex values recorded when RsccSystem still carried first_event,
    # tail_mass, event_lipschitz, sample_event and a state interval: the
    # closed forms in N that replaced them give the same floats.  The r_k
    # hold over the anchored pairs (w, 0) as well; R is exact, 1/(4N) for
    # the continued-fraction system.  The ids keep the test names they had
    # when R was sampled over 64 leading events, whose value each names
    @pytest.mark.parametrize("n,r_values,big_r", [
        pytest.param(1, ("0x1.191bb867b15e3p-1", "0x1.2153a34b616cep-4", "0x1.1953abfa38814p-6"),
                     "0x1.0000000000000p-2", id="1-r_values0-0x1.fc07f01fc0800p-3"),
        pytest.param(2, ("0x1.d0bf76ba15e68p-3", "0x1.821e971f84aa7p-6", "0x1.ca3cab97ef85dp-9"),
                     "0x1.0000000000000p-3", id="2-r_values1-0x1.fe01fe01fe000p-4"),
        pytest.param(5, ("0x1.39c44a4bf0170p-4", "0x1.1c6f22aa91ab0p-8", "0x1.028e5cca5666bp-11"),
                     "0x1.999999999999ap-5", id="5-r_values2-0x1.98f603fe67000p-5"),
    ])
    def test_contraction_coefficients(self, n, r_values, big_r):
        rep = contraction_coefficients(make_ncf_rscc(NcfParams(n)), k_max=3, grid=64, rng=np.random.default_rng(17))
        assert rep.r_values == tuple(float.fromhex(r) for r in r_values)
        assert rep.big_r == float.fromhex(big_r)
        assert rep.certified

    def test_simulate_paths(self):
        w = simulate_paths(make_ncf_rscc(NcfParams(2)), 0.5, 6, 6, np.random.default_rng(11))
        assert w.tolist() == [float.fromhex(h) for h in (
            "0x1.ba1d58fe34928p-2", "0x1.af85e5a30904ep-1", "0x1.560f46d363866p-1",
            "0x1.96ad3aca3c06fp-4", "0x1.4971090ce90f4p-1", "0x1.6b975406283bep-1")]

    @pytest.mark.parametrize("n,x,u,want", [(1, 0.3, 0.33, "0x1.9364d9364d937p-2"),
                                            (2, 0.77, 0.5, "0x1.29532fc3e417ap-1"),
                                            (5, 0.125, 0.91, "0x1.ac687d6343eb0p-1"),
                                            (3, 1.0, 0.07, "0x1.7d05f417d05f3p-4")])
    def test_branch_sum_off_ties(self, n, x, u, want):
        got = q_kernel_interval_bruteforce(make_ncf_rscc(NcfParams(n)), x, u)
        assert got == float.fromhex(want)
