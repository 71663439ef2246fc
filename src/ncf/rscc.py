"""Random systems with complete connections (place-dependent IFS).

A system is a state space W, an event alphabet X, a transition function
u(w, x) and a place-dependent probability P(w, x) with sum_x P(w, x) = 1
(Iosifescu & Grigorescu, 1990).  Instances provided here:

* the N-continued-fraction system on [0,1] with events i >= N,
  u(x, i) = N/(x+i) and P(x, i) = (x+N)/((x+i)(x+i+1))
  (N = 1 is the classical regular-continued-fraction system);
* a two-state Mealy machine with alphabet {1, 2}, u(i, j) = j and
  transition probabilities parameterized by (alpha, beta).

Every system has its path probabilities; a finite one also its kernel
matrix and, with two states, its Cesaro kernel averages.  The
continued-fraction system has one- and k-step state kernels and their Cesaro
averages, contraction-coefficient estimation, shifted path laws, and the
stationary path law computed by quadrature against the invariant measure.
The Mealy machine's kernel, stationary law and diagram, and the lowest-branch
orbits that witness regularity, are scalar closed forms in `core`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import NcfParams, _kernel_jump, mealy_cesaro, mealy_kernel
from .errors import charge, count
from .measure import GaussMeasure, _gauss_legendre
from . import core, transfer


@dataclass(frozen=True)
class RsccSystem:
    """Transition u and probabilities P, with the alphabet they act on.

    A finite system lists its `events` and its (real-embedded) `states`.  The
    continued-fraction system carries its `params` instead: its states are
    [0, 1], its events are i >= N, and its tail masses, event sampler and
    derivative envelope are closed forms in N.  Both callables accept numpy
    arrays in w.
    """

    transition: Callable
    probability: Callable
    events: tuple = ()
    states: tuple = ()
    params: Optional[NcfParams] = None

    @property
    def finite(self) -> bool:
        return self.params is None


@dataclass(frozen=True)
class ContractionReport:
    r_values: tuple
    big_r: float
    certified: bool


class Estimate(NamedTuple):
    value: float
    se: float


# ---------------------------------------------------------------------------
# instances


def make_ncf_rscc(params: NcfParams) -> RsccSystem:
    n = params.n_param

    def u(w, i):
        return n / (np.asarray(w, dtype=float) + i)

    def p(w, i):
        w = np.asarray(w, dtype=float)
        if np.max(i) < 2.0 ** 511:
            return (w + n) / ((w + i) * (w + i + 1.0))
        return (w + n) / (w + i) / (w + i + 1.0)  # the product would overflow

    return RsccSystem(transition=u, probability=p, params=params)


def _tail_mass(n: int, w, m: int):
    """P(w, {i >= m}) of the continued-fraction system: the branch masses
    telescope to (w+N)/(w+m)."""
    w = np.asarray(w, dtype=float)
    return (w + n) / (w + m)


def _sample_event(n: int, w, u01):
    """Smallest event i with P(w, {N..i}) > u01, by inverting the tail mass."""
    w = np.asarray(w, dtype=float)
    t = (w + n) / (1.0 - u01) - w - 1.0
    return np.maximum(np.floor(t) + 1.0, float(n))


def make_mealy_rscc(alpha: float, beta: float) -> RsccSystem:
    kernel = np.array(mealy_kernel(alpha, beta))  # raises outside [0, 1]

    def u(w, j):
        return np.asarray(w, dtype=float) * 0.0 + j

    def p(w, j):
        # the kernel entry from state w to state j = u(w, j)
        w = np.asarray(w, dtype=float)
        if not ((w == 1.0) | (w == 2.0)).all():
            raise ValueError(f"state must be 1 or 2, got {w}")
        if not (j == 1 or j == 2):
            raise ValueError(f"event must be 1 or 2, got {j!r}")
        row1, row2 = kernel[:, 0 if j == 1 else 1]
        return np.where(w == 1.0, row1, row2)

    return RsccSystem(transition=u, probability=p, events=(1, 2), states=(1.0, 2.0))


def _cf_n(sys: RsccSystem, what: str) -> int:
    """N of the continued-fraction system, which `what` needs."""
    if sys.finite:
        raise ValueError(f"{what} needs the continued-fraction system")
    return sys.params.n_param


# ---------------------------------------------------------------------------
# path probabilities


def _checked_words(sys: RsccSystem, r: int, word_set) -> list:
    """A word set as the list of its distinct r-letter words, in order: on the
    continued-fraction system every letter an event i >= N, by errors.count;
    a finite system's probability checks its own."""
    words = [tuple(word) for word in word_set]
    if not sys.finite:
        words = [tuple(count(x, "event", sys.params.n_param) for x in word) for word in words]
    words = list(dict.fromkeys(words))
    if any(len(word) != r for word in words):
        raise ValueError("every word must have length r")
    return words


def _word_set_probability(sys: RsccSystem, w, word_set) -> np.ndarray:
    """P_r(w, A) for a finite collection of checked words, vectorized over w:
    the products of one-step probabilities along their orbits."""
    total = np.zeros_like(np.asarray(w, dtype=float))
    for word in word_set:
        prob, state = 1.0, w
        for x in word:
            prob = prob * sys.probability(state, x)
            state = sys.transition(state, x)
        total = total + prob
    return total


def path_probability(sys: RsccSystem, w, word) -> float:
    """Product of one-step probabilities along the orbit of a word: on the
    continued-fraction system, of events i >= N from states w in [0, 1]."""
    letters = tuple(word)
    if not letters:
        raise ValueError("path probability needs a non-empty word")
    wa = np.asarray(w, dtype=float)
    if not (sys.finite or np.all((wa >= 0) & (wa <= 1))):  # NaN too
        raise ValueError(f"state must lie in [0, 1], got {w!r}")
    prob = _word_set_probability(sys, w, _checked_words(sys, len(letters), [letters]))
    return float(prob) if np.isscalar(w) else prob


# ---------------------------------------------------------------------------
# state kernels


def q_kernel_interval(sys: RsccSystem, x, u_end: float):
    """Q(x, [0, u_end)) of the continued-fraction system, a float at a state x, else an array:
    branch i lands in [0, u) iff N/(x+i) < u iff i >= E (`core._kernel_jump`), the masses
    telescope to (x+N)/(x+E).  Where E has no binary64 value, x + N and x + E carry no x,
    and Q is N/(f + 1), f = floor(N/u), correctly rounded."""
    n = _cf_n(sys, "q_kernel_interval")
    xa = np.asarray(x, dtype=float)
    if not (0.0 <= xa.min() and xa.max() <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not (0.0 < u_end <= 1.0):
        raise ValueError(f"u_end must lie in (0, 1], got {u_end}")
    phi, e_lo, e_hi = _kernel_jump(n, u_end)
    if e_lo == math.inf:
        q = n / (core._divide(n, u_end)[0] + 1)
        return np.full(xa.shape, q) if xa.ndim else q
    if xa.ndim:
        return (xa + n) / (xa + np.where(xa <= phi, e_lo, e_hi))
    x = float(xa)  # one state in plain floats: half the cost of the 0-d array
    return (x + n) / (x + (e_lo if x <= phi else e_hi))


_TIE = 2.0 ** -50  # N/(x+i) is within 2^-52 relative: a point this near u is decided exactly


def q_kernel_interval_bruteforce(sys: RsccSystem, x: float, u_end: float,
                                 i_max: int = 20000) -> float:
    """Branch-by-branch sum with the exact tail remainder; the oracle for the
    closed form above."""
    n = _cf_n(sys, "q_kernel_interval_bruteforce")
    i_max = count(i_max, "i_max", n)
    i = np.arange(n, i_max + 1, dtype=float)
    y = n / (x + i)
    inside = y < u_end
    for j in np.flatnonzero(np.abs(y - u_end) <= _TIE * u_end):
        inside[j] = n < Fraction(u_end) * (Fraction(x) + int(i[j]))
    total = float(np.sum(sys.probability(x, i)[inside]))
    # all branches beyond i_max land below u_end
    if n >= Fraction(u_end) * (Fraction(x) + i_max + 1):
        raise ValueError("i_max too small for this (x, u_end)")
    return total + float(_tail_mass(n, x, i_max + 1))


def q_kernel(sys: RsccSystem, x, a: float, b: float):
    """Q(x, [a, b)) for the continued-fraction system, by additivity; x is a
    state or an array of states."""
    if not a <= b:  # NaN at either end too
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    lo = q_kernel_interval(sys, x, a) if a > 0 else 0.0
    hi = q_kernel_interval(sys, x, b) if b > 0 else 0.0
    return hi - lo


def kernel_matrix(sys: RsccSystem) -> np.ndarray:
    """One-step state-to-state kernel of a finite system."""
    if not sys.finite:
        raise ValueError("kernel_matrix needs a finite state space")
    states = sys.states
    k = np.zeros((len(states), len(states)))
    for a, w in enumerate(states):
        for x in sys.events:
            wn = float(sys.transition(w, x))
            b = states.index(wn)
            k[a, b] += float(sys.probability(w, x))
    return k


def q_step(sys: RsccSystem, k: int, source: float, target,
           grid_m: int = 1024) -> float:
    """k-step kernel Q^(k)(source, [a, b)) of the continued-fraction system,
    `target` the pair (a, b), by the kernel recursion Q^(k+1) = U Q^(k) of
    `_kernel_terms`, exact in its jumps at every N; grid_m, still checked,
    sets nothing.  `q_step_mc` is the Monte Carlo estimate of the same
    kernel."""
    k = count(k, "k", 1)
    _cf_n(sys, "q_step")
    a, b = target
    return _kernel_terms(sys, k, source, a, b, grid_m)[-1]


def _kernel_terms(sys: RsccSystem, n: int, source: float, a: float, b: float,
                  grid_m: int) -> list:
    """Q^(k)(source, [a, b)) for k = 1..n: Q^(1) the closed form `q_kernel`,
    the later terms with the kernel's jumps carried exactly (_exact_terms).
    grid_m is checked and sets nothing."""
    core._check_unit_interval(source)
    count(grid_m, "grid_m", 1)
    x = float(source)
    terms = [q_kernel(sys, x, a, b)]
    if n == 1:
        return terms
    return terms + _exact_terms(sys.params.n_param, n, x, a, b)


def _exact_terms(n: int, steps: int, x: float, a: float, b: float) -> list:
    """Q^(k)(x, [a, b)), k = 2..steps, of N = n, with the kernel's jumps in
    closed form and the rest on the 25-point spectral operator S.

    With N/u = f + r/p exactly (core._divide), Q^(1)(y, [0, u)) = L(y) +
    g(y) 1[y > r/p], L = (y+N)/(y+f+1) and g = P_f(y).  So Q^(k) is an
    analytic part A plus, for each end of [a, b), a term g_j 1[y > p_j] or
    g_j 1[y >= p_j], its sign folded into g_j: A and each g_j held at the 25
    nodes _LOBATTO, each p_j as a ratio of Python ints.  With N/p = F + R/p
    exactly and B_i the rows of branch i (transfer._spectral_rows), one step
    maps the form to itself, the branches N..F-1 landing above p and branch
    F above p up to x < R/p (x <= R/p for ">="): A <- S A + sum_j C_F g_j,
    C_F = B_N + ... + B_F; g_j <- -B_F g_j; p_j <- R/p, ">" turning to ">="
    and ">=" to ">".  On a ">" jump with R = 0 branch F - 1 lands on p at x =
    1 only, so F - 1 and R/p = 1 take their place.  A jump at 0 folds S g_j
    into A.  An end whose f has no binary64 value adds the constant N/(f +
    1) to A and no jump.  S, and C_F and -B_F for F < N + 128, are held per N
    (transfer._spectral_blocks); past that C_F g = S g - T(F+1) g, by
    Gregory's tail T (transfer._spectral_tail).  Q^(k)(x) is the Lagrange row
    at x against A plus the g_j whose jumps x passes, decided exactly.
    Charges the products, the held blocks and S, and each tail's rows,
    before any of them is formed."""
    nodes, k1 = transfer._LOBATTO, transfer._K + 1
    xn, xd = x.as_integer_ratio()
    part, g, orbits = np.zeros(k1), [], []
    for u, sign in ((b, 1.0), (a, -1.0)):
        if u <= 0:
            continue
        f, r, p = core._divide(n, u)
        try:
            z = nodes + float(f)
        except OverflowError:  # Q^(1)(y, [0, u)) = N/(f + 1), as q_kernel_interval takes it
            part += sign * (n / (f + 1))
            continue
        part += sign * (nodes + n) / (z + 1.0)
        g.append(sign * transfer._branch_mass(n, z))
        # the jump's orbit, exactly: each step's branch F and whether x passes the jump
        # after it, and None where it folds into A and ends.  Its denominators fall from
        # u's numerator, so every F is at most N 2^53
        orbit, strict = [], True
        while r and len(orbit) < steps - 1:
            f, rest = divmod(n * p, r)
            if strict and not rest:
                f, rest = f - 1, r
            r, p, strict = rest, r, not strict
            orbit.append((f, xn * p > r * xd or not strict and xn * p == r * xd))
        if not r and len(orbit) < steps - 1:
            orbit.append((None, False))
        orbits.append(orbit)
    # past the 128 branches transfer._spectral_blocks holds, a step takes a tail
    tails = sum(f is not None and f - n >= 128 for orbit in orbits for f, _ in orbit)
    # (K+1)^2 a product, one a step and two a jump; the 2 x 128 block rows and S's 32
    # tail rows; each tail's 32 rows and B_F; and K+1 a read at x
    charge(k1 * k1 * ((steps - 1) * (1 + 2 * len(g)) + 2 * 128 + 32 + 33 * tails)
           + steps * (1 + len(g)) * k1, "kernel iterates")
    (s, held), out = transfer._spectral_blocks(n), np.empty((steps - 1, k1))
    for k in range(steps - 1):  # from Q^(k+1) to Q^(k+2)
        part = s @ part
        for j, orbit in enumerate(orbits):
            if k >= len(orbit):  # folded into A
                continue
            f = orbit[k][0]
            if f is None:
                part += s @ g[j]
            elif f - n < len(held):
                cb = held[f - n] @ g[j]
                part += cb[:k1]
                g[j] = cb[k1:]
            else:
                part += (s - transfer._spectral_tail(n, f + 1)) @ g[j]
                g[j] = -(transfer._spectral_rows(n, [f])[0] @ g[j])
        out[k] = part
        for j, orbit in enumerate(orbits):
            if k < len(orbit) and orbit[k][1]:
                out[k] += g[j]
    return (out @ transfer._lagrange(np.array([x]))[0]).tolist()


def simulate_paths(sys: RsccSystem, source: float, steps: int, n_paths: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """Terminal states of n_paths seeded chains run for `steps` steps."""
    n_paths, steps = count(n_paths, "n_paths", 1), count(steps, "steps", 0)
    n = _cf_n(sys, "simulate_paths")
    core._check_unit_interval(source)
    if rng is None:
        rng = np.random.default_rng(0)
    charge(steps * n_paths, "path simulation")
    w = np.full(n_paths, float(source))
    for _ in range(steps):
        w = sys.transition(w, _sample_event(n, w, rng.random(n_paths)))
    return w


def q_step_mc(sys: RsccSystem, k: int, source: float, a: float, b: float,
              n_paths: int = 100_000,
              rng: Optional[np.random.Generator] = None) -> Estimate:
    """Monte Carlo estimate of Q^(k)(source, [a, b)) with its standard error."""
    k = count(k, "k", 1)
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    w = simulate_paths(sys, source, k, n_paths, rng)
    hits = ((w >= a) & (w < b)).astype(float)
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1 - p), 1e-12) / n_paths)
    return Estimate(p, se)


def q_cesaro(sys: RsccSystem, n: int, source: float, target,
             grid_m: int = 1024) -> float:
    """(1/n) sum_{k<=n} Q^(k)(source, target).

    A two-state finite system, `target` a collection of states, takes
    `core.mealy_cesaro` of its kernel rows, exact to rounding at every n; the
    continued-fraction system, `target` the pair (a, b), averages the terms
    Q^(1..n)(source) of q_step's kernel recursion, `_kernel_terms`: exact in
    the kernel's jumps at every N; grid_m, still checked, sets nothing."""
    n = count(n, "n", 1)
    if sys.finite:
        if len(sys.states) != 2:
            raise ValueError("q_cesaro has a closed form for two-state systems only")
        if float(source) not in sys.states:
            raise ValueError(f"source must be one of the states {sys.states}, got {source!r}")
        members = [float(t) for t in target]
        for t in members:
            if t not in sys.states:
                raise ValueError(f"target member must be one of the states {sys.states}, got {t!r}")
        row = mealy_cesaro(kernel_matrix(sys).tolist(), n)[sys.states.index(float(source))]
        return float(sum(p for p, s in zip(row, sys.states) if s in members))
    a, b = target
    return sum(_kernel_terms(sys, n, source, a, b, grid_m)) / n


# ---------------------------------------------------------------------------
# contraction coefficients

_EVENT_CAP = 2048     # r_k cuts the alphabet to ~_EVENT_CAP^(1/k) letters
_MARGIN = 1e-6        # certified when some r_k < 1 - _MARGIN


def _width(k: int) -> int:
    """The leading events i = N..N+width-1 that r_k enumerates at each step."""
    return max(2, int(round(_EVENT_CAP ** (1.0 / k))))


def _pair_grid(grid: int):
    """The state pairs (w, w') over which r_k is read: (j/grid, 0) for j =
    1..grid, and (0, 1/grid).  Each word map is a Moebius map (a w + b)/(c w
    + d) with c, d >= 0, a product of the matrices [[0, N], [1, i]], so its
    difference quotient |ad - bc|/((c w + d)(c w' + d)) falls in w'; P_k(w,
    x) does not depend on w', so for each w the sup over w' lies at w' = 0.
    The sup over w is read on the grid."""
    charge(grid + 1, "contraction state pairs")  # before they are allocated
    nodes = np.linspace(0.0, 1.0, grid + 1)
    return np.append(nodes[1:], 0.0), np.append(np.zeros(grid), nodes[1])


def _r_k_estimate(sys: RsccSystem, k: int, w1: np.ndarray, w2: np.ndarray) -> float:
    """r_k over the pairs (w1, w2), by enumerating the words of _width(k)
    letters depth first.  The last letter is taken over blocks of events at
    once, of about transfer._CHUNK (event, pair) entries, and the leaves are
    added in the order the stack would pop them, last event first."""
    n, width = sys.params.n_param, _width(k)
    events, m = list(range(n, n + width)), n + width
    # float, not int64: past 2^63 the events would make an object array
    last = np.array(events[::-1], dtype=float)[:, None]
    block = max(1, transfer._CHUNK // w1.size)
    denom = np.abs(w1 - w2)
    total = np.zeros_like(w1)
    stack = [(0, w1, w2, np.ones_like(w1))]
    while stack:
        depth, a, b, prob = stack.pop()
        # events beyond the truncation, bounded by the derivative envelope
        # |du/dw| <= N/i^2 at this step and N/N^2 after it
        total += (prob * _tail_mass(n, a, m) * (np.abs(a - b) / denom)
                  * (n / (m * m)) * (n / (n * n)) ** (k - depth - 1))
        if depth == k - 1:
            for j in range(0, width, block):
                x = last[j:j + block]
                leaves = (prob * sys.probability(a, x)
                          * np.abs(sys.transition(a, x) - sys.transition(b, x)) / denom)
                for leaf in leaves:
                    total += leaf
            continue
        for x in events:
            stack.append((depth + 1, sys.transition(a, x), sys.transition(b, x),
                          prob * sys.probability(a, x)))
    return float(np.max(total))


def contraction_coefficients(sys: RsccSystem, k_max: int = 2, grid: int = 512,
                             rng: Optional[np.random.Generator] = None) -> ContractionReport:
    """The trajectory-contraction coefficients r_k of the continued-fraction
    system, read over the grid + 1 state pairs of _pair_grid, and the event
    Lipschitz constant R; certified when some r_k is bounded away from 1.
    Every r_k is charged before r_1 is computed.  rng has no effect: no pair
    is drawn at random.

    R = sup |P(w, A) - P(w', A)| / |w - w'| over event sets A and state pairs.
    P(w, i)/P(w', i) is monotone in i, so the sup over A is a tail
    difference, (m-N)|w-w'|/((w+m)(w'+m)) <= (m-N)/m^2 <= 1/(4N), approached
    at m = 2N as w, w' -> 0: R = 1/(4N)."""
    k_max, grid = count(k_max, "k_max", 1), count(grid, "grid", 1)
    n = _cf_n(sys, "contraction_coefficients")
    w1, w2 = _pair_grid(grid)
    for k in range(1, k_max + 1):
        charge(_width(k) ** k * w1.size * k, f"r_{k} word enumeration")
    r_values = tuple(_r_k_estimate(sys, k, w1, w2) for k in range(1, k_max + 1))
    certified = math.isfinite(r_values[0]) and any(r < 1.0 - _MARGIN for r in r_values)
    return ContractionReport(r_values=r_values, big_r=1 / (4 * n), certified=certified)


# ---------------------------------------------------------------------------
# shifted path laws and their limit


def shifted_path_probability(sys: RsccSystem, w: float, n: int, r: int, word_set,
                             n_paths: int = 100_000,
                             rng: Optional[np.random.Generator] = None) -> Estimate:
    """Probability that the events at positions n..n+r-1 of the
    continued-fraction system form a word in the set: the n-1 burn-in steps
    are simulated and the final word probability is taken conditionally on
    the terminal state, which removes the last layer of sampling noise.
    """
    n, r = count(n, "n", 1), count(r, "r", 1)
    word_set = _checked_words(sys, r, word_set)
    states = simulate_paths(sys, w, n - 1, n_paths, rng)
    vals = _word_set_probability(sys, states, word_set)
    mean = float(np.mean(vals))
    se = float(np.std(vals) / math.sqrt(n_paths))
    return Estimate(mean, se)


def limit_path_law(sys: RsccSystem, r: int, word_set) -> float:
    """Stationary law of r-letter words: quadrature of P_r(., A) against the
    invariant measure of the continued-fraction system."""
    _cf_n(sys, "limit_path_law")
    r = count(r, "r", 1)
    word_set = _checked_words(sys, r, word_set)
    gm = GaussMeasure(sys.params)
    # the integrand is rational with its poles at w <= -1
    return _gauss_legendre(
        lambda w: _word_set_probability(sys, w, word_set) * gm.density(w), 0.0, 1.0)
