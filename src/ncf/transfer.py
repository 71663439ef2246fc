"""Transfer operator of the N-continued-fraction map on grid functions.

A function on [0,1] is carried as samples at uniform nodes j/M.  One operator
application averages the function over the countable family of inverse
branches x -> N/(x+i), i >= N, with weights (x+N)/((x+i)(x+i+1)); the branch
series is truncated and the exact tail mass (x+N)/(x+i_max+1) is folded in
through the value at 0, which is the limit point of the far branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .core import NcfParams
from .errors import FitError
from .measure import GaussMeasure


@dataclass(frozen=True)
class GridFunction:
    """Samples at nodes j/M, j = 0..M."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("GridFunction needs a 1-d array of >= 2 samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("GridFunction samples must be finite")
        object.__setattr__(self, "values", v)

    @property
    def resolution(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    @classmethod
    def from_callable(cls, fn, m: int) -> "GridFunction":
        x = np.linspace(0.0, 1.0, m + 1)
        return cls(np.asarray(fn(x), dtype=float) * np.ones(m + 1))

    @classmethod
    def constant(cls, c: float, m: int) -> "GridFunction":
        return cls(np.full(m + 1, float(c)))

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)


@dataclass(frozen=True)
class LipschitzNormEstimate:
    sup_part: float
    slope_part: float

    @property
    def total(self) -> float:
        return self.sup_part + self.slope_part


@dataclass(frozen=True)
class GapEstimate:
    q_hat: float
    k_hat: float
    residuals: np.ndarray
    n_window: tuple
    sup_errors: np.ndarray
    lip_errors: np.ndarray


def default_branch_cutoff(params: NcfParams) -> int:
    """Truncation index: keeps the tail mass below the grid error."""
    return max(1000, 100 * params.n_param)


def transfer_at(f, params: NcfParams, x, i_max: Optional[int] = None) -> np.ndarray:
    """The transfer operator applied to f, evaluated at the points x.

    f is any function callable on arrays.  Weights are computed as
    telescoping differences (x+N)/(x+i) - (x+N)/(x+i+1) so that the constant
    function is reproduced to machine precision.  The truncated branch tail
    is folded in as tail mass times the value of f at the tail's mean branch
    point (near 0), which keeps the unit eigenfunction exact while cancelling
    the first-order truncation error.
    """
    n = params.n_param
    if i_max is None:
        i_max = default_branch_cutoff(params)
    x = np.asarray(x, dtype=float)[:, None]
    out = np.zeros(x.shape[0])
    block = max(1, 8_000_000 // x.shape[0])
    for lo in range(n, i_max + 1, block):
        i = np.arange(lo, min(lo + block, i_max + 1), dtype=float)[None, :]
        weights = (x + n) / (x + i) - (x + n) / (x + i + 1.0)
        y = n / (x + i)
        g = f(y.ravel()).reshape(y.shape)
        out += np.sum(weights * g, axis=1)
    xf = x[:, 0]
    tail = (xf + n) / (xf + i_max + 1)
    # first moment of the branch points over the tail, by midpoint integral
    m_half = xf + i_max + 0.5
    s1 = n * (xf + n) * (0.5 / m_half ** 2 - 1.0 / (3.0 * m_half ** 3))
    y_bar = s1 / tail
    out += tail * f(y_bar)
    return out


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator, at the nodes of f."""
    return GridFunction(transfer_at(f, params, f.nodes, i_max))


def iterates(f: GridFunction, params: NcfParams, n: int, i_max: Optional[int] = None):
    """Yield U f, U^2 f, ..., U^n f: every multi-step use of the operator."""
    for _ in range(n):
        f = apply_transfer(f, params, i_max=i_max)
        yield f


def lipschitz_norm(f: GridFunction) -> LipschitzNormEstimate:
    """Sup plus max slope over adjacent nodes; a lower bound for the true norm."""
    v = f.values
    sup_part = float(np.max(np.abs(v)))
    slope_part = float(np.max(np.abs(np.diff(v))) * f.resolution)
    return LipschitzNormEstimate(sup_part, slope_part)


def cesaro_operator(f: GridFunction, n: int, params: NcfParams) -> GridFunction:
    """(1/n) sum of the first n operator iterates, by running average."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return GridFunction(sum(g.values for g in iterates(f, params, n)) / n)


def integrate_against(f: GridFunction, gm: GaussMeasure) -> float:
    """Simpson integral of f against the invariant measure on the grid."""
    x = f.nodes
    return float(integrate.simpson(f.values * gm.density(x), x=x))


def _fit_window(errors: np.ndarray):
    """Indices of the admissible log-fit window: above the noise floor and
    still decaying geometrically.

    The curve flattens once discretization/rounding error dominates; the
    window is cut where the per-step ratio degrades markedly relative to the
    median ratio of the leading points.
    """
    floor = 100 * np.finfo(float).eps
    idx = []
    ratios = []
    for j, e in enumerate(errors):
        if e <= floor:
            break
        if idx:
            r = e / errors[idx[-1]]
            if r > 0.99:  # stalled: no usable geometric decay left
                break
            if len(ratios) >= 3 and r > min(0.95, 1.5 * np.median(ratios[:5])):
                break
            ratios.append(r)
        idx.append(j)
    return idx


def fit_rate(errors: np.ndarray):
    """Least-squares line through log(errors) against n = 1, 2, ... over the
    fit window.

    Returns (window indices, slope, intercept, residuals); the geometric rate
    is exp(slope).  Raises FitError when the window has fewer than 3 points.
    """
    idx = _fit_window(errors)
    if len(idx) < 3:
        raise FitError(
            f"only {len(idx)} admissible points before the error floor; "
            "cannot fit a geometric rate"
        )
    ns = np.array(idx, dtype=float) + 1.0
    logs = np.log(errors[idx])
    slope, intercept = np.polyfit(ns, logs, 1)
    return idx, slope, intercept, logs - (slope * ns + intercept)


def error_curves(f: GridFunction, params: NcfParams, n_max: int,
                 i_max: Optional[int] = None):
    """c_f and the sup and Lipschitz distances of U f, ..., U^n_max f from it.

    c_f is the integral of f against the invariant measure: the operator
    iterates of any Lipschitz f collapse to that constant.
    """
    c_f = integrate_against(f, GaussMeasure(params))
    sup_errors = np.empty(n_max)
    lip_errors = np.empty(n_max)
    for k, g in enumerate(iterates(f, params, n_max, i_max)):
        sup_errors[k] = float(np.max(np.abs(g.values - c_f)))
        lip_errors[k] = lipschitz_norm(GridFunction(g.values - c_f)).total
    return c_f, sup_errors, lip_errors


def estimate_gap(f: GridFunction, params: NcfParams, n_max: int,
                 i_max: Optional[int] = None) -> GapEstimate:
    """Fit the geometric decay rate of ||U^n f - c_f|| on the log scale.

    The sup-norm distance of the iterates from c_f decays like k q^n.
    """
    if n_max < 5:
        raise ValueError(f"n_max must be >= 5, got {n_max}")
    v = f.values
    if float(np.max(v) - np.min(v)) == 0.0:
        raise ValueError("gap estimation needs a non-constant function")
    _, sup_errors, lip_errors = error_curves(f, params, n_max, i_max)
    idx, slope, intercept, residuals = fit_rate(sup_errors)
    return GapEstimate(
        q_hat=float(math.exp(slope)),
        k_hat=float(math.exp(intercept)),
        residuals=residuals,
        n_window=(idx[0] + 1, idx[-1] + 1),
        sup_errors=sup_errors,
        lip_errors=lip_errors,
    )
