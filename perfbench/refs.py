"""Reference values the benchmark checks results against.

Everything here is written from the mathematics, not from `ncf`, so that a
defect in the package cannot also hide in its reference.  NumPy is imported
lazily: the `cli-mix` child never loads it.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Second eigenvalue of the Gauss transfer operator (N = 1) in absolute value:
# the Gauss-Kuzmin-Wirsing constant (Wirsing 1974).
WIRSING = 0.3036630029

# Branch sums are taken explicitly up to this index; the rest by a
# midpoint integral, whose error is O(BRANCH_CUT**-3).
BRANCH_CUT = 200_000


def log_norm(n: int) -> float:
    return math.log((n + 1) / n)


def invariant_cdf(x, n: int):
    """G([0, x)) = log(1 + x/N) / log((N+1)/N)."""
    import numpy as np
    return np.log1p(np.asarray(x, dtype=float) / n) / log_norm(n)


def invariant_density(x, n: int):
    import numpy as np
    return 1.0 / ((np.asarray(x, dtype=float) + n) * log_norm(n))


def digit_law(i: int, n: int) -> float:
    """Invariant probability of the first digit i: the mass of (N/(i+1), N/i]."""
    return math.log((i + 1) ** 2 / (i * (i + 2))) / log_norm(n)


def forward_value(digits, n: int) -> Fraction:
    """Exact value of N/(a1 + N/(a2 + ...)) by the forward recurrence
    p_k = a_k p_{k-1} + N p_{k-2}, q_k = a_k q_{k-1} + N q_{k-2}."""
    p_prev2, p_prev, q_prev2, q_prev = 1, 0, 0, 1
    for a in digits:
        p_prev2, p_prev = p_prev, a * p_prev + n * p_prev2
        q_prev2, q_prev = q_prev, a * q_prev + n * q_prev2
    return Fraction(p_prev, q_prev)


def simpson(y, x) -> float:
    """Composite Simpson rule on an odd number of uniform nodes."""
    import numpy as np
    if len(x) % 2 == 0:
        raise ValueError("simpson needs an odd number of nodes")
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def _branch_powers(y, n: int, p: int):
    """sum_{i >= N} (y + i)**-p for each y, p >= 2."""
    import numpy as np
    y = np.asarray(y, dtype=float)[:, None]
    i = np.arange(n, BRANCH_CUT, dtype=float)[None, :]
    head = np.sum((y + i) ** -p, axis=1)
    tail = 1.0 / ((p - 1) * (y[:, 0] + BRANCH_CUT - 0.5) ** (p - 1))
    return head + tail


def pushforward_lebesgue(y, n: int):
    """Density of T(X), X uniform: sum_i N/(y+i)^2."""
    return n * _branch_powers(y, n, 2)


def pushforward_tilted(y, n: int):
    """Density of T(X), X with density (1 + x/2)/1.25."""
    return (n * _branch_powers(y, n, 2) + 0.5 * n * n * _branch_powers(y, n, 3)) / 1.25


def first_step_cdf(x: float, n: int, cdf) -> float:
    """P(T(X) < x) = sum_i [H(N/i) - H(N/(i+x))] for X with CDF H on [0, 1].

    The far branches are summed as H'(0) N log((K - 1/2 + x)/(K - 1/2)),
    with H'(0) taken by a one-sided difference.
    """
    import numpy as np
    i = np.arange(n, BRANCH_CUT, dtype=float)
    head = float(np.sum(cdf(n / i) - cdf(n / (i + x))))
    h0 = (cdf(1e-7) - cdf(0.0)) / 1e-7
    k = BRANCH_CUT - 0.5
    return head + h0 * n * math.log((k + x) / k)


def next_state_mc(w, u, n: int):
    """One step of the N-continued-fraction chain: event i with probability
    (w+N)/((w+i)(w+i+1)), drawn by inverting the tail mass (w+N)/(w+i)."""
    import numpy as np
    i = np.maximum(np.floor((w + n) / (1.0 - u) - w), n)
    return n / (w + i)
