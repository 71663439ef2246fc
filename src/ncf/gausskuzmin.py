"""Gauss-Kuzmin experiments: propagate an initial law under the interval map.

For an initial probability measure with density h on [0,1], the distribution
of the n-th map iterate is an integral of the n-th transfer-operator iterate
of f0(x) = log((N+1)/N) (x+N) h(x) against the invariant measure; f0 is the
density of the initial measure relative to the invariant one, so f0 -> 1 and
the distributions converge to the invariant CDF at a geometric rate.  The
harness computes the per-n sup error at the points j/m, fits the rate, and
cross-checks the operator route against seeded Monte Carlo orbit simulation.
It and distribution_at take one route (_laws).  Up to N = 10^3, where the
25-point Chebyshev interpolant of f0 is as close to it as a grid of m cells,
the iterates are the spectral operator's and each CDF the exact integral of
their interpolant; otherwise they are the grid's, whose CDF, a cumulative
trapezoid, is off by O(1/m^2) for a smooth f0 and by O(1/m) where f0 jumps."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NcfParams, _check_unit_interval
from .errors import FitError, charge, count
from .measure import DensityFunction, GaussMeasure, gn_cdf
from .transfer import (_BLOCK, _LOBATTO, _SPECTRAL_N, GridFunction, _grid_integrals, _integral_rows,
                       _resolves, _spectral_iterates, apply_transfer, fit_rate, iterates)


@dataclass(frozen=True)
class GkReport:
    n_values: tuple
    sup_errors: tuple
    q_fit: Optional[float]
    theta_bound: Optional[float]
    fit_window: Optional[tuple]
    fit_residuals: tuple
    method_agreement: tuple   # dicts with n, x, operator, montecarlo, band, agrees


def lebesgue_measure() -> DensityFunction:
    return DensityFunction(lambda x: 1.0)


def gauss_initial(params: NcfParams) -> DensityFunction:
    return DensityFunction(GaussMeasure(params).density)


def tilted_measure() -> DensityFunction:
    """Density proportional to 1 + x/2."""
    return DensityFunction(lambda x: (1.0 + x / 2.0) / 1.25)


def _relative_density(mu: DensityFunction, params: NcfParams):
    """f0 = d(mu)/d(invariant measure), as a function of x."""
    gm = GaussMeasure(params)
    return lambda x: gm.log_norm * (x + params.n_param) * mu(x)


def initial_grid_density(mu: DensityFunction, params: NcfParams, m: int) -> GridFunction:
    """f0 = d(mu)/d(invariant measure) sampled on the operator grid."""
    return GridFunction.from_callable(_relative_density(mu, params), m)


def density_from_grid(f0: GridFunction, params: NcfParams) -> DensityFunction:
    """Convert a grid density relative to the invariant measure back to a
    Lebesgue density."""
    gm = GaussMeasure(params)
    x = f0.nodes
    vals = f0.values / (gm.log_norm * (x + params.n_param))
    vals = vals / np.trapezoid(vals, x)  # remove the grid's O(h^2) mass drift
    return DensityFunction(lambda t: np.interp(t, x, vals), mass_tol=1e-6)


def pushforward_density(mu: DensityFunction, params: NcfParams, m: int = 1024) -> DensityFunction:
    """Density of the image measure after one map step."""
    f0 = initial_grid_density(mu, params, m)
    return density_from_grid(apply_transfer(f0, params), params)


# cells of the grid on which _sample_initial inverts the initial CDF
_INV_GRID = 4096
# Monte Carlo paths of each of run_experiment's spot checks
_SPOT_PATHS = 100_000


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integral of the samples y, along the last axis, from x[0] to each
    uniform node x[j]."""
    c = np.cumsum((y[..., :-1] + y[..., 1:]) * ((x[1] - x[0]) / 2.0), axis=-1)
    return np.concatenate([np.zeros(c.shape[:-1] + (1,)), c], axis=-1)


def _sample_initial(mu: DensityFunction, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling of the initial measure on a fine numeric grid.

    The uniforms are sorted in place before the lookup: sorted queries keep the
    binary searches of np.interp cache-warm, so at 100,000 paths the sort
    and the lookup together cost about a fifth of an unsorted lookup.  The
    paths are exchangeable, so the sample is the same multiset, every
    estimate (a count over the paths) is unchanged to the bit, and the
    generator consumes the same draws.
    """
    x = np.linspace(0.0, 1.0, _INV_GRID + 1)
    cdf = _cumulative_trapezoid(mu(x), x)
    cdf /= cdf[-1]
    u = rng.random(n_paths)
    u.sort()
    return np.interp(u, cdf, x)


def _iterate_map(y: np.ndarray, n: int, n_param: int) -> np.ndarray:
    """n steps of y -> frac(N/y), with 0 -> 0, on every path at once, in
    two buffers of its own: y itself is not written.

    Each step is one division, left as zero where y = 0, then the floor
    subtracted.  Every point gets the two operations of core.gauss_map, so
    the values, and the estimates, are unchanged to the bit.  From N/y = 2^53
    on the fraction is 0, so a path whose N/y would pass 2^1023, and might
    have no binary64 value, is left at 0 as y = 0 is; a step with no such
    path divides unmasked.
    """
    if n == 0:
        return y
    out, whole, guard = np.empty_like(y), np.empty_like(y), n_param * 2.0 ** -1023
    for _ in range(n):
        if y.min() > guard:
            np.divide(n_param, y, out=out)
        else:
            keep = y > guard
            np.divide(n_param, y, out=out, where=keep)
            out[~keep] = 0.0
        np.floor(out, out=whole)
        out -= whole
        y = out
    return out


def _orbit_fractions(mu: DensityFunction, spots, n_param: int, n_paths: int, rng=None):
    """For each (n, x) of spots, n ascending, the fraction of one sample's
    paths whose n-th map iterate is < x: one sample, drawn with rng (seed 0 if
    None), stepped on from spot to spot and charged once, by the last n."""
    charge(max(spots[-1][0], 1) * n_paths, "distribution_at montecarlo")
    y, done = _sample_initial(mu, n_paths, np.random.default_rng(0) if rng is None else rng), 0
    for n, x in spots:
        y, done = _iterate_map(y, n - done, n_param), n
        yield int(np.count_nonzero(y < x)) / n_paths


def distribution_at(mu: DensityFunction, n: int, x: float, params: NcfParams,
                    method: str = "operator", m: int = 1024,
                    n_paths: int = 100_000,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Probability that the n-th map iterate of a mu-distributed point is < x.
    The operator method reads F_n(x) off run_experiment's route (_laws), chosen
    at the points j/m, which are its grid on the grid route; the value, which
    may pass 1 by the grid's error or by rounding, is clipped to [0, 1]."""
    n = count(n, "n", 0)
    _check_unit_interval(x)
    if method == "operator":
        laws, _, read = _laws(mu, params, n, m, False)
        law = next(itertools.islice(laws, n, None))  # F_n, after F_0 .. F_n-1
        return min(max(read(x, law), 0.0), 1.0)
    if method == "montecarlo":
        n_paths = count(n_paths, "n_paths", 1)
        return next(_orbit_fractions(mu, ((n, x),), params.n_param, n_paths, rng))
    raise ValueError(f"unknown method {method!r}")


def _laws(mu: DensityFunction, params: NcfParams, n_max: int, m: int, on_points: bool):
    """The laws F_n, n = 0..n_max, on the one route of run_experiment and
    distribution_at, as (laws, deviation, read): a state per n, (f_n - 1)
    rho_N at the route's points; F_n - G at the points j/m for a block of
    states, a row each; and F_n at any x of [0, 1] from a state.  Where N <=
    _SPECTRAL_N and f0 is resolved, the points are the nodes and f_n - 1 the
    spectral iterates of f0 - 1 (as the matrix's row sums are 1 to a few ulps,
    f0's drifted by that a step), integrated exactly; otherwise the grid's,
    integrated by the cumulative trapezoid.  Charges f0's m + 1 samples, and
    the iterates as read at them if on_points, else at one x, first."""
    f0, gm = _relative_density(mu, params), GaussMeasure(params)
    f = GridFunction.from_callable(f0, m)
    if params.n_param <= _SPECTRAL_N:
        g = f0(_LOBATTO) - 1.0
        if _resolves(g, f.values - 1.0):
            g = _spectral_iterates(g, params, n_max, m if on_points else 0) * gm.density(_LOBATTO)
            return (iter(g), lambda states: states @ _grid_integrals(m).T,
                    lambda t, state: gn_cdf(t, gm) + float(_integral_rows(t) @ state))
    x = np.linspace(0.0, 1.0, m + 1)
    limit, density = gn_cdf(x, gm), gm.density(x)
    laws = ((v - 1.0) * density for v in itertools.chain([f.values], iterates(f, params, n_max)))
    return (laws, lambda states: limit + _cumulative_trapezoid(states, x) - limit,
            lambda t, state: float(np.interp(t, x, limit + _cumulative_trapezoid(state, x))))


def run_experiment(mu: DensityFunction, params: NcfParams, n_max: int = 40,
                   m: int = 1024, rng: Optional[np.random.Generator] = None,
                   require_fit: bool = True) -> GkReport:
    """Per-n sup error against the limit law at the m + 1 points j/m,
    geometric-rate fit, and operator-vs-Monte-Carlo spot checks, each agreeing
    within its band or not.  The operator side takes the route of _laws: the
    spectral operator's up to N = 10^3 where its interpolant resolves f0, and
    otherwise a grid's of m cells.  The spot checks
    share one sample, stepped 2 -> 4 -> 6, so their verdicts are correlated;
    but each estimate is bit for bit what distribution_at's montecarlo method
    returns from rng's state, so each band is a valid marginal band."""
    n_max, m = count(n_max, "n_max", 5), count(m, "m", 1)
    spots = tuple((min(n, n_max), x) for n, x in ((2, 0.25), (4, 0.5), (6, 0.75)))
    laws, deviation, read = _laws(mu, params, n_max, m, True)  # charged before forming the points
    limit = gn_cdf(np.linspace(0.0, 1.0, m + 1), GaussMeasure(params))
    next(laws)  # F_0, the initial law
    mask = limit >= 0.05  # where the error is read relative to the limit CDF
    # a block of n at a time: its sup and relative errors, and the spots' CDFs
    sup_errors, ratios, spot_cdfs = [], [], {}
    for k in range(0, n_max, _BLOCK):
        states = np.array(list(itertools.islice(laws, _BLOCK)))
        err = np.abs(deviation(states))
        sup_errors += err.max(axis=1).tolist()
        ratios += (err[:, mask] / limit[mask]).max(axis=1).tolist()
        for n, x in spots:
            if 0 <= n - 1 - k < len(states):
                spot_cdfs[n, x] = read(x, states[n - 1 - k])
    q_fit = theta_bound = window = None
    residuals = ()
    try:
        q_fit, _, window, fit_residuals = fit_rate(np.array(sup_errors))
    except FitError:
        if require_fit:
            raise
    else:
        residuals = tuple(float(r) for r in fit_residuals)
        # envelope constant of the error term relative to the limit CDF
        theta_bound = max(ratios[j] / q_fit ** (j + 1) for j in range(window[1]))
    cells = []
    mcs = _orbit_fractions(mu, spots, params.n_param, _SPOT_PATHS, rng)
    for (n_spot, x_spot), mc in zip(spots, mcs):
        op = spot_cdfs[n_spot, x_spot]  # read off the iterates above
        band = 4.0 * math.sqrt(max(mc * (1 - mc), 1e-12) / _SPOT_PATHS) + 1e-4
        cells.append({"n": n_spot, "x": x_spot, "operator": op, "montecarlo": mc,
                      "band": band, "agrees": abs(op - mc) <= band})
    return GkReport(
        n_values=tuple(range(1, n_max + 1)),
        sup_errors=tuple(sup_errors),
        q_fit=q_fit,
        theta_bound=theta_bound,
        fit_window=window,
        fit_residuals=residuals,
        method_agreement=tuple(cells),
    )
