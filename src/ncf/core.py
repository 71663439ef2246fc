"""N-continued-fraction expansions.

The interval map x -> N/x - floor(N/x) on [0,1] generates, for each integer
N >= 1, a continued-fraction expansion x = N/(a_1 + N/(a_2 + ...)) whose
digits a_k are integers >= N.  This module provides the map itself (float and
exact-rational paths), digit extraction, finite-expansion evaluation, the
convergent recurrence, the attracting point of x -> N/(x+N) and its orbits,
and the scalar closed forms of the first-digit law and the Mealy machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import charge

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class NcfParams:
    """The expansion parameter N >= 1."""

    n_param: int

    def __post_init__(self):
        if not isinstance(self.n_param, int) or self.n_param < 1:
            raise ValueError(f"n_param must be an integer >= 1, got {self.n_param!r}")


@dataclass(frozen=True)
class DigitSequence:
    """Partial quotients of an expansion; terminated means the orbit hit 0."""

    digits: tuple
    terminated: bool

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


def _check_unit_interval(x: Real) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x < 0 or x > 1:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")


def _finite_quotient(n: int, y: float) -> float:
    """N/y, rejecting the subnormal y for which it overflows to inf."""
    q = n / y
    if math.isinf(q):
        raise ValueError(f"N/x overflows at x = {y!r}: the digit has no binary64 value")
    return q


def gauss_map(x: float, params: NcfParams) -> float:
    """One step of the interval map N/x - floor(N/x); fixes 0."""
    _check_unit_interval(x)
    if x == 0:
        return 0.0
    q = _finite_quotient(params.n_param, x)
    return q - math.floor(q)


def gauss_map_rational(x: Fraction, params: NcfParams) -> Fraction:
    """Exact image of a rational under the map; the oracle for the float path."""
    _check_unit_interval(x)
    if x == 0:
        return Fraction(0)
    q = Fraction(params.n_param) / x
    return q - math.floor(q)


def digits(x: Real, params: NcfParams, max_len: int) -> DigitSequence:
    """First max_len digits a_k = floor(N / T^{k-1}(x)).

    Rational inputs are expanded exactly and always terminate (denominators
    strictly decrease); float inputs follow the binary64 orbit.  x = 0 is a
    domain error: its first digit would be infinite, and so is a float whose
    N/x overflows to inf.
    """
    _check_unit_interval(x)
    if x == 0:
        raise ValueError("digits undefined at x = 0 (first digit is infinite)")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    n = params.n_param
    exact = isinstance(x, (Fraction, int))
    y = Fraction(x) if exact else float(x)
    out = []
    for _ in range(max_len):
        q = n / y if exact else _finite_quotient(n, y)
        a = math.floor(q)
        out.append(a)
        y = q - a
        if not y:
            return DigitSequence(tuple(out), True)
    return DigitSequence(tuple(out), False)


def _convergent_terms(seq: Union[DigitSequence, Sequence[int]], params: NcfParams) -> list:
    """(p_k, q_k) for each digit prefix, by the integer recurrence
    p_k = a_k p_{k-1} + N p_{k-2}, q_k = a_k q_{k-1} + N q_{k-2}."""
    ds = tuple(seq)
    if not ds:
        raise ValueError("an empty digit sequence has no value")
    n = params.n_param
    if any(a < n for a in ds):
        raise ValueError(f"all digits must be >= N = {n}")
    p_prev2, p_prev = 1, 0
    q_prev2, q_prev = 0, 1
    out = []
    for a in ds:
        p_prev2, p_prev = p_prev, a * p_prev + n * p_prev2
        q_prev2, q_prev = q_prev, a * q_prev + n * q_prev2
        out.append((p_prev, q_prev))
    return out


def evaluate(seq: Union[DigitSequence, Sequence[int]], params: NcfParams) -> Fraction:
    """Exact value of the finite expansion N/(a_1 + N/(a_2 + ...)): its last
    convergent."""
    return Fraction(*_convergent_terms(seq, params)[-1])


def convergents(seq: Union[DigitSequence, Sequence[int]], params: NcfParams) -> list:
    """Successive values of the digit prefixes."""
    return [Fraction(p, q) for p, q in _convergent_terms(seq, params)]


def fixed_point(params: NcfParams) -> float:
    """The attracting point x* = (-N + sqrt(N^2 + 4N))/2 of x -> N/(x+N).

    Satisfies N/x* = x* + N, so the map fixes it: T(x*) = x*.
    """
    n = params.n_param
    return (-n + math.sqrt(n * n + 4 * n)) / 2


def lowest_branch_orbits(params: NcfParams, starts: Sequence[float], n_max: int):
    """x*, the per-step factor N/(x*+N)^2, and per start an iterator of
    |x_k - x*|, k = 1..n_max, along the orbit x -> N/(x+N), holding one point
    at a time; the starts are checked, and the steps charged, up front."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if bad := [s for s in starts if not 0.0 <= float(s) <= 1.0]:  # NaN fails too
        raise ValueError(f"starts must lie in [0, 1], got {bad[0]!r}")
    charge(len(starts) * n_max, "regularity_witness orbit steps")
    n, x_star = params.n_param, fixed_point(params)

    def orbit(x):
        for _ in range(n_max):
            x = n / (x + n)
            yield abs(x - x_star)

    return x_star, n / (x_star + n) ** 2, [orbit(float(s)) for s in starts]


def log_norm(params: NcfParams) -> float:
    """log((N+1)/N), the mass of 1/(x+N) on [0, 1]: the invariant density's normaliser."""
    return math.log1p(1.0 / params.n_param)


def digit_probability(i: int, params: NcfParams) -> float:
    """Probability that the first digit equals i under the invariant measure.

    The digit-i cell is (N/(i+1), N/i], so the mass is
    log((i+1)^2 / (i (i+2))) = log1p(1/(i (i+2))) over log((N+1)/N); the
    series over i >= N telescopes to 1.
    """
    if i < params.n_param:
        raise ValueError(f"digit must be >= N = {params.n_param}, got {i}")
    return math.log1p(1.0 / (i * (i + 2))) / log_norm(params)


def mealy_kernel(alpha, beta) -> list:
    """Kernel rows [alpha, 1 - alpha], [beta, 1 - beta] of the two-state Mealy machine."""
    if not (0 <= alpha <= 1 and 0 <= beta <= 1):
        raise ValueError("alpha and beta must lie in [0, 1]")
    return [[alpha, 1 - alpha], [beta, 1 - beta]]


def mealy_dot(kernel) -> str:
    """GraphViz digraph of a two-state kernel; edges labeled event/probability."""
    edges = [f'  {i} -> {k} [label="{k}/{kernel[i - 1][k - 1]!r}"];'  # u(i, k) = k
             for i in (1, 2) for k in (1, 2)]
    return "\n".join(["digraph mealy {", "  rankdir=LR;", "  node [shape=circle];",
                      *edges, "}"]) + "\n"
