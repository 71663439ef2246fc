"""N-continued-fraction expansions.

The interval map x -> N/x - floor(N/x) on [0,1] generates, for each integer
N >= 1, a continued-fraction expansion x = N/(a_1 + N/(a_2 + ...)) whose
digits a_k are integers >= N.  This module provides the map itself (float and
exact-rational paths), digit extraction, finite-expansion evaluation, the
convergent recurrence, the attracting point of x -> N/(x+N) and its orbits,
and the scalar closed forms the NumPy layers share: the first-digit law, the
state kernel's jump and its invariance integrals, and the Mealy machine's averages.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Sequence, Union

from .errors import charge, count

Real = Union[int, float, Fraction]

# the 20-point Gauss-Legendre rule on [0, 1]: leggauss(20) moved by (1 + x)/2, w/2
GL_NODES = (
    0.003435700407452502, 0.018014036361043095, 0.04388278587433703, 0.08044151408889061,
    0.1268340467699246, 0.1819731596367425, 0.24456649902458644, 0.3131469556422902,
    0.38610707442917747, 0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754136, 0.8180268403632576, 0.8731659532300754,
    0.9195584859111094, 0.956117214125663, 0.981985963638957, 0.9965642995925474)
GL_WEIGHTS = (
    0.008807003569575447, 0.020300714900193223, 0.031336024167054395, 0.04163837078835236,
    0.05096505990862035, 0.0590972659807593, 0.06584431922458844, 0.0710480546591912,
    0.07458649323630212, 0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
    0.0710480546591912, 0.06584431922458844, 0.0590972659807593, 0.05096505990862035,
    0.04163837078835236, 0.031336024167054395, 0.020300714900193223, 0.008807003569575447)


# Plain classes rather than dataclasses: `import dataclasses` brings in
# `inspect` and `ast`, several ms of every process that runs on `core` alone.
class NcfParams(namedtuple("NcfParams", "n_param")):
    """The expansion parameter N >= 1."""

    __slots__ = ()

    def __new__(cls, n_param: int):
        try:  # a NumPy integer or a bool is stored as the Python int
            n_param = count(n_param, "n_param", 1)
        except ValueError:
            raise ValueError(f"n_param must be an integer >= 1, got {n_param!r}") from None
        return super().__new__(cls, n_param)


class DigitSequence:
    """Partial quotients of an expansion; terminated means the orbit hit 0.

    Immutable, equal and hashed by value; len and iteration run over the
    digits (so it is no tuple: a namedtuple's copy and pickle iterate it)."""

    def __init__(self, digits: tuple, terminated: bool):
        self.__dict__.update(digits=digits, terminated=terminated)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is DigitSequence else NotImplemented

    def __hash__(self):
        return hash((self.digits, self.terminated))

    def __repr__(self):
        return f"DigitSequence(digits={self.digits!r}, terminated={self.terminated!r})"

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


def _check_unit_interval(x: Real) -> None:
    if not 0 <= x <= 1:  # NaN and the infinities too
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
    max_len = count(max_len, "max_len", 1)
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

    Satisfies N/x* = x* + N, so the map fixes it: T(x*) = x*.  Taken as
    2N/(N + sqrt(N^2 + 4N)), which does not cancel: the difference form is
    336 ulps off at N = 10^4 and 0.0 from N = 10^17 on, where x* rounds to 1.
    """
    n = params.n_param
    return 2 * n / (n + math.sqrt(n * n + 4 * n))


def lowest_branch_orbits(params: NcfParams, starts: Sequence[float], n_max: int):
    """x*, the per-step factor N/(x*+N)^2, and per start an iterator of
    |x_k - x*|, k = 1..n_max, along the orbit x -> N/(x+N), holding one point
    at a time; the starts are checked, and the steps charged, up front.

    The regularity witness: each step stays inside the support of the next
    kernel iterate, so |x_k - x*| bounds the distance from the supports to x*.
    """
    n_max = count(n_max, "n_max", 1)
    if bad := [s for s in starts if not 0.0 <= float(s) <= 1.0]:  # NaN fails too
        raise ValueError(f"starts must lie in [0, 1], got {bad[0]!r}")
    charge(len(starts) * n_max, "regularity orbit steps")
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


def _divide(n: int, u: Real) -> tuple:
    """N/u = f + r/p exactly, in Python ints, from u's own ratio p/q: (f, r, p)."""
    p, q = (u if hasattr(u, "as_integer_ratio") else float(u)).as_integer_ratio()  # NumPy ints
    f, r = divmod(n * q, p)
    return f, r, p


def _kernel_jump(n: int, u: Real) -> tuple:
    """The one jump of E = floor(N/u - x) + 1 over x in [0, 1]: with N/u = f + r/p exactly, E is
    f + 1 up to r/p and f past it.  Returns (largest float <= r/p, f + 1, f), inf past binary64."""
    f, r, p = _divide(n, u)
    phi = r / p
    a, b = phi.as_integer_ratio()
    phi = math.nextafter(phi, 0.0) if a * p > r * b else phi  # r/p rounded up: step down
    try:
        return phi, float(f + 1), float(f)
    except OverflowError:  # 2^1024 - 2^970 is the least integer float() rejects
        return phi, math.inf, float(f) if f < 2 ** 1024 - 2 ** 970 else math.inf


def invariance_rows(params: NcfParams, grid: int) -> list:
    """(u, integral of Q(x, [0, u)) against the invariant measure G, G([0, u)),
    their distance) at the points u of np.linspace(1/grid, 1, grid); the rule
    runs on each piece between the kernel's jumps, its values added by fsum."""
    n, norm = params.n_param, log_norm(params)
    # each point integrates over two pieces, split at its kernel jump
    charge(grid * 2 * len(GL_NODES), "invariance quadrature nodes")
    start, step = 1.0 / grid, (1.0 - 1.0 / grid) / max(grid - 1, 1)
    rows = []
    for j in range(grid):
        u = j * step + start if j < grid - 1 else 1.0
        phi, e_lo, e_hi = _kernel_jump(n, u)
        brk = n / u - math.floor(n / u)  # the jump, where a branch point crosses u, in floats
        edges = (0.0, brk, 1.0) if 0.0 < brk < 1.0 else (0.0, 1.0)
        val = math.fsum((b - a) * w * ((x + n) / (x + (e_lo if x <= phi else e_hi))
                                       * (1.0 / ((x + n) * norm)))
                        for a, b in zip(edges, edges[1:])
                        for x, w in zip([a + (b - a) * t for t in GL_NODES], GL_WEIGHTS))
        cdf = math.log1p(u / n) / norm  # u/N <= 1/N: at most 1
        rows.append((u, val, cdf, abs(val - cdf)))
    return rows


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


def mealy_cesaro(rows, n) -> list:
    """Rows of (1/n) sum_{k=1..n} K^k for two-state kernel rows K; at n = inf
    the stationary law pi = (K21, K12)/(K12 + K21) in each.  With lambda =
    K11 - K21, K^k = 1 pi + lambda^k (I - 1 pi), so row i is pi + (delta_i -
    pi) lambda (1 - lambda^n)/((1 - lambda) n); K = I (lambda = 1) is its own."""
    (k11, k12), (k21, _) = rows
    lam = k11 - k21
    if lam == 1 and n < math.inf:
        return [[1.0, 0.0], [0.0, 1.0]]
    if k12 + k21 == 0:
        raise ValueError("no unique stationary vector when alpha=1, beta=0")
    pi = (k21 / (k12 + k21), k12 / (k12 + k21))
    if n > sys.float_info.max:  # lam^n and n have no float: the average is pi to rounding
        n = math.inf
    # for lam near 1 and small n, lam^n rounds next to 1 and 1 - lam^n would
    # cancel its digits; expm1 keeps them, and lam - 1 is exact from lam = 1/2 on
    drop = -math.expm1(n * math.log1p(lam - 1.0)) if lam > 0.5 else 1 - lam ** n
    s = lam * drop / ((1 - lam) * n) if n < math.inf else 0.0
    return [[p + ((i == j) - p) * s for j, p in enumerate(pi)] for i in range(2)]
