"""Map, digit extraction, exact evaluation, convergents."""

import copy
import decimal
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from ncf import (
    DigitSequence,
    NcfParams,
    convergents,
    core,
    digits,
    evaluate,
    fixed_point,
    gauss_map,
    gauss_map_rational,
)


def test_params_validation():
    with pytest.raises(ValueError):
        NcfParams(0)
    with pytest.raises(ValueError):
        NcfParams(-3)
    with pytest.raises(ValueError, match=r"^n_param must be an integer >= 1, got 1\.0$"):
        NcfParams(1.0)
    # an integer type is read as the Python int: np.int64(3) was refused, and True stored
    for value, want in ((np.int64(3), 3), (True, 1)):
        n = NcfParams(value).n_param
        assert type(n) is int and n == want


@pytest.mark.parametrize("value,other,field,text", [
    (NcfParams(3), NcfParams(n_param=3), "n_param", "NcfParams(n_param=3)"),
    (DigitSequence((4, 3), True), DigitSequence(digits=(4, 3), terminated=True), "digits",
     "DigitSequence(digits=(4, 3), terminated=True)"),
], ids=["NcfParams", "DigitSequence"])
def test_value_objects(value, other, field, text):
    # built by position or keyword, equal and hashed by value, frozen, and
    # rebuilt whole by copy and pickle
    assert other == value and hash(other) == hash(value) and other is not value
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, field, 5)
    with pytest.raises(AttributeError):
        delattr(value, field)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value


def test_digit_sequence_runs_over_its_digits():
    seq = DigitSequence((4, 3), True)
    assert len(seq) == 2 and list(seq) == [4, 3]
    assert seq != DigitSequence((4, 3), False) and seq != (4, 3)
    assert NcfParams(2) != NcfParams(3)


class TestGaussMap:
    def test_fixes_zero(self):
        assert gauss_map(0.0, NcfParams(3)) == 0.0

    def test_rational_value(self):
        # 2/(3/4) = 8/3, floor 2, fractional part 2/3
        assert gauss_map(0.75, NcfParams(2)) == pytest.approx(2 / 3, abs=1e-15)
        assert gauss_map_rational(Fraction(3, 4), NcfParams(2)) == Fraction(2, 3)

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_fixed_point_is_fixed(self, n):
        params = NcfParams(n)
        x_star = fixed_point(params)
        assert 0 < x_star < 1
        assert abs(gauss_map(x_star, params) - x_star) <= 1e-12

    def test_domain_errors(self):
        p = NcfParams(1)
        # 1e-320: N/x overflows to inf
        for bad in (-0.1, 1.5, float("nan"), float("inf"), 1e-320):
            with pytest.raises(ValueError):
                gauss_map(bad, p)

    def test_range(self):
        p = NcfParams(3)
        rnd = random.Random(7)
        for _ in range(200):
            y = gauss_map(rnd.random(), p)
            assert 0.0 <= y < 1.0

    def test_float_agrees_with_rational(self):
        rnd = random.Random(11)
        for n in (1, 2, 5):
            p = NcfParams(n)
            for _ in range(100):
                q = rnd.randrange(2, 500)
                num = rnd.randrange(1, q)
                x = Fraction(num, q)
                exact = float(gauss_map_rational(x, p))
                approx = gauss_map(num / q, p)
                # rounding is relative to the quotient N/x, not the result
                assert abs(exact - approx) <= 4 * (n * q / num) * 2.3e-16


class TestGaussMapRational:
    def test_exact_examples(self):
        assert gauss_map_rational(Fraction(1, 2), NcfParams(1)) == 0
        assert gauss_map_rational(Fraction(2, 3), NcfParams(2)) == 0
        assert gauss_map_rational(Fraction(3, 7), NcfParams(1)) == Fraction(1, 3)


class TestDigits:
    def test_terminating_rational(self):
        seq = digits(Fraction(2, 3), NcfParams(2), 10)
        assert seq.digits == (3,)
        assert seq.terminated

    def test_golden_ratio_tail(self):
        x = (math.sqrt(5) - 1) / 2
        assert digits(x, NcfParams(1), 4).digits == (1, 1, 1, 1)

    def test_surd_period_two(self):
        x = math.sqrt(2) - 1
        assert digits(x, NcfParams(2), 4).digits == (4, 2, 4, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            digits(0.0, NcfParams(1), 5)

    def test_overflowing_digit_rejected(self):
        # N/x overflows to inf: no finite first digit exists in binary64
        with pytest.raises(ValueError):
            digits(1e-320, NcfParams(1), 5)
        with pytest.raises(ValueError):
            digits(5e-324, NcfParams(3), 3)

    def test_x_equal_one(self):
        for n in (1, 2, 7):
            seq = digits(Fraction(1), NcfParams(n), 5)
            assert seq.digits == (n,)
            assert seq.terminated

    def test_digits_at_least_n(self):
        rnd = random.Random(3)
        for n in (1, 3, 6):
            p = NcfParams(n)
            for _ in range(50):
                seq = digits(rnd.random(), p, 12)
                assert all(a >= n for a in seq.digits)

    def test_shift_property(self):
        # dropping the first digit matches expanding the image, away from
        # digit boundaries
        rnd = random.Random(19)
        p = NcfParams(2)
        checked = 0
        for _ in range(200):
            x = rnd.random()
            orbit_ok = True
            y = x
            for _ in range(7):
                q = p.n_param / y
                if abs(q - round(q)) < 1e-9:
                    orbit_ok = False
                    break
                y = q - math.floor(q)
            if not orbit_ok:
                continue
            full = digits(x, p, 7).digits
            shifted = digits(gauss_map(x, p), p, 6).digits
            assert full[1:] == shifted
            checked += 1
        assert checked > 100


class TestEvaluate:
    def test_single_digit(self):
        for n in (1, 2, 9):
            assert evaluate([n], NcfParams(n)) == 1

    def test_examples(self):
        assert evaluate([3], NcfParams(2)) == Fraction(2, 3)
        assert evaluate([4, 2], NcfParams(2)) == Fraction(2, 5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], NcfParams(1))

    def test_digit_below_n_rejected(self):
        with pytest.raises(ValueError):
            evaluate([1], NcfParams(2))
        with pytest.raises(ValueError):
            evaluate([3, 2], NcfParams(3))

    def test_roundtrip_random_rationals(self):
        rnd = random.Random(23)
        for n in (1, 2, 5, 10):
            p = NcfParams(n)
            for _ in range(100):
                q = rnd.randrange(2, 1000)
                num = rnd.randrange(1, q + 1)
                x = Fraction(num, q)
                seq = digits(x, p, 10_000)
                assert seq.terminated
                assert evaluate(seq, p) == x

    def test_convergence_to_irrational(self):
        rnd = random.Random(5)
        for n in (1, 4, 10):
            p = NcfParams(n)
            for _ in range(10):
                x = rnd.random()
                xf = Fraction(x)
                prev = None
                for k in (5, 10, 20, 40, 60):
                    approx = evaluate(digits(xf, p, k), p)
                    err = abs(xf - approx)
                    if prev is not None:
                        assert err <= prev
                    prev = err
                assert prev < Fraction(1, 10**10)


class TestConvergents:
    def test_prefix_evaluation_oracle(self):
        rnd = random.Random(31)
        for n in (1, 2, 5):
            p = NcfParams(n)
            for _ in range(30):
                ds = [rnd.randrange(n, n + 8) for _ in range(6)]
                convs = convergents(ds, p)
                for k, c in enumerate(convs, start=1):
                    assert c == evaluate(ds[:k], p)

    def test_digit_below_n_rejected(self):
        with pytest.raises(ValueError):
            convergents([2, 1], NcfParams(2))

    def test_examples(self):
        assert convergents([4, 2], NcfParams(2)) == [Fraction(1, 2), Fraction(2, 5)]
        assert convergents([1, 1, 1], NcfParams(1)) == [
            Fraction(1), Fraction(1, 2), Fraction(2, 3)]
        assert convergents([3], NcfParams(3)) == [Fraction(1)]


class TestFixedPoint:
    def test_known_values(self):
        assert fixed_point(NcfParams(1)) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
        assert fixed_point(NcfParams(4)) == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-15)

    def test_within_two_ulps_of_exact(self):
        # (-N + sqrt(N^2 + 4N))/2 cancelled: 336 ulps off at N = 10^4,
        # 2.3e7 at 10^8, and 0.0 from 10^17 on, where x* rounds to 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            for n in [*range(1, 2001), 10**4, 10**8, 10**12, 10**16, 10**17, 2**53, 10**18]:
                d = decimal.Decimal(n)
                want = (-d + (d * d + 4 * d).sqrt()) / 2
                got = fixed_point(NcfParams(n))
                assert abs(decimal.Decimal(got) - want) <= 2 * math.ulp(float(want)), n

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_iteration_oracle(self, n):
        # the inverse-branch iteration converges to the same point
        x = 0.0
        for _ in range(200):
            x = n / (x + n)
        assert abs(x - fixed_point(NcfParams(n))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_digit_at_fixed_point_is_constant_n(self, n):
        p = NcfParams(n)
        x_star = fixed_point(p)
        seq = digits(x_star, p, 5)
        assert seq.digits == (n,) * 5
        assert seq.digits[0] == math.floor(x_star + n)


class TestMealyCesaro:
    # an n with no binary64 value raised "int too large to convert to float"
    # from lam ** n, and for lam > 1/2 from n * log1p(lam - 1)
    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.6), (0.9, 0.2)],
                             ids=["lam<=1/2", "lam>1/2"])
    def test_past_binary64_is_the_stationary_law(self, alpha, beta):
        kernel = core.mealy_kernel(alpha, beta)
        stationary = core.mealy_cesaro(kernel, math.inf)
        assert core.mealy_cesaro(kernel, 10**400) == stationary
        assert core.mealy_cesaro(kernel, 10**300) == stationary  # to rounding already

    def test_identity_kernel_keeps_its_rows(self):
        assert core.mealy_cesaro(core.mealy_kernel(1.0, 0.0), 10**400) == [[1.0, 0.0], [0.0, 1.0]]
