"""Gauss-Kuzmin experiments: propagate an initial law under the interval map.

For an initial probability measure with density h on [0,1], the distribution
of the n-th map iterate is an integral of the n-th transfer-operator iterate
of f0(x) = log((N+1)/N) (x+N) h(x) against the invariant measure; f0 is the
density of the initial measure relative to the invariant one, so f0 -> 1 and
the distributions converge to the invariant CDF at a geometric rate.  The
harness computes the per-n sup error over an x grid, fits the rate, and
cross-checks the operator route against seeded Monte Carlo orbit simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NcfParams
from .errors import FitError, charge, count
from .measure import DensityFunction, GaussMeasure, gn_cdf
from .transfer import GridFunction, apply_transfer, fit_rate, iterates


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


def initial_grid_density(mu: DensityFunction, params: NcfParams, m: int) -> GridFunction:
    """f0 = d(mu)/d(invariant measure) sampled on the operator grid."""
    gm = GaussMeasure(params)
    return GridFunction.from_callable(
        lambda x: gm.log_norm * (x + params.n_param) * mu(x), m)


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
# points of the x grid on which run_experiment takes each sup error
_X_GRID = 257
# Monte Carlo paths of each of run_experiment's spot checks
_SPOT_PATHS = 100_000


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integral of the samples y from x[0] to each uniform node x[j]."""
    h = x[1] - x[0]
    return np.concatenate([[0.0], np.cumsum((y[:-1] + y[1:]) * (h / 2.0))])


def _cdfs_on_grid(fs, x: np.ndarray, gm: GaussMeasure):
    """Cumulative integral of each f of fs against the invariant measure at
    their common nodes x, one at a time.

    Split as closed-form CDF plus the cumulative trapezoid of (f - 1) times
    the density, so the quadrature error scales with |f - 1| rather than
    with the full integrand.  The CDF and the density at x are taken once.
    """
    cdf, density = gn_cdf(x, gm), gm.density(x)
    return (cdf + _cumulative_trapezoid((f.values - 1.0) * density, x) for f in fs)


def _sample_initial(mu: DensityFunction, n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF sampling of the initial measure on a fine numeric grid.

    The uniforms are sorted before the lookup: sorted queries keep the
    binary searches of np.interp cache-warm, so at 100,000 paths the sort
    and the lookup together cost about a fifth of an unsorted lookup.  The
    paths are exchangeable, so the sample is the same multiset, every
    estimate (a count over the paths) is unchanged to the bit, and the
    generator consumes the same draws.
    """
    x = np.linspace(0.0, 1.0, _INV_GRID + 1)
    cdf = _cumulative_trapezoid(mu(x), x)
    cdf /= cdf[-1]
    return np.interp(np.sort(rng.random(n_paths)), cdf, x)


def _iterate_map(y: np.ndarray, n: int, n_param: int) -> np.ndarray:
    """n steps of y -> frac(N/y), with 0 -> 0, on every path at once.

    Each step is one division, left as zero where y = 0, then the floor
    subtracted in place.  Every point gets the two operations of
    core.gauss_map, so the values, and the estimates, are unchanged to the
    bit.  From N/y = 2^53 on the fraction is 0, so a path whose N/y would
    pass 2^1023, and might have no binary64 value, is left at 0 as y = 0 is.
    """
    for _ in range(n):
        y = np.divide(n_param, y, out=np.zeros_like(y), where=y > n_param * 2.0 ** -1023)
        y -= np.floor(y)
    return y


def distribution_at(mu: DensityFunction, n: int, x: float, params: NcfParams,
                    method: str = "operator", m: int = 1024,
                    n_paths: int = 100_000,
                    rng: Optional[np.random.Generator] = None) -> float:
    """Probability that the n-th map iterate of a mu-distributed point is < x."""
    n = count(n, "n", 0)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if method == "operator":
        f = initial_grid_density(mu, params, m)
        for f in iterates(f, params, n):
            pass  # U^n f0, or f0 itself when n = 0
        return float(np.interp(x, f.nodes, next(_cdfs_on_grid([f], f.nodes, GaussMeasure(params)))))
    if method == "montecarlo":
        n_paths = count(n_paths, "n_paths", 1)
        charge(max(n, 1) * n_paths, "distribution_at montecarlo")
        if rng is None:
            rng = np.random.default_rng(0)
        y = _sample_initial(mu, n_paths, rng)
        y = _iterate_map(y, n, params.n_param)
        return float(np.mean(y < x))
    raise ValueError(f"unknown method {method!r}")


def run_experiment(mu: DensityFunction, params: NcfParams, n_max: int = 40,
                   m: int = 1024, rng: Optional[np.random.Generator] = None,
                   require_fit: bool = True) -> GkReport:
    """Per-n sup error against the limit law, geometric-rate fit, and
    operator-vs-Monte-Carlo spot checks, each agreeing within its band or not."""
    n_max = count(n_max, "n_max", 5)
    if rng is None:
        rng = np.random.default_rng(0)
    gm = GaussMeasure(params)
    xs = np.linspace(0.0, 1.0, _X_GRID)
    limit = gn_cdf(xs, gm)
    mask = limit >= 0.05  # where the error is read relative to the limit CDF
    spots = tuple((min(n, n_max), x) for n, x in ((2, 0.25), (4, 0.5), (6, 0.75)))
    f0 = initial_grid_density(mu, params, m)
    # one iterate at a time: a step keeps its sup and relative errors, a spot step its CDF
    sup_errors, ratios, spot_cdfs = [], [], {n: None for n, _ in spots}
    for n, cum in enumerate(_cdfs_on_grid(iterates(f0, params, n_max), f0.nodes, gm), 1):
        err = np.abs(np.interp(xs, f0.nodes, cum) - limit)
        sup_errors.append(float(np.max(err)))
        ratios.append(float(np.max(err[mask] / limit[mask])))
        if n in spot_cdfs:
            spot_cdfs[n] = cum
    q_fit = theta_bound = None
    window = None
    residuals = ()
    try:
        idx, slope, intercept, fit_residuals = fit_rate(np.array(sup_errors))
    except FitError:
        if require_fit:
            raise
    else:
        q_fit = float(math.exp(slope))
        residuals = tuple(float(r) for r in fit_residuals)
        window = (idx[0] + 1, idx[-1] + 1)
        # envelope constant of the error term relative to the limit CDF
        theta_bound = max(ratios[j] / q_fit ** (j + 1) for j in idx)
    cells = []
    for n_spot, x_spot in spots:
        # the operator side is read off the iterates above: U^n_spot f0
        op = float(np.interp(x_spot, f0.nodes, spot_cdfs[n_spot]))
        mc = distribution_at(mu, n_spot, x_spot, params, method="montecarlo",
                             n_paths=_SPOT_PATHS, rng=rng)
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
