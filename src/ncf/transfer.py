"""Transfer operator of the N-continued-fraction map on grid functions.

A function on [0,1] is carried as samples at uniform nodes j/M.  One operator
application averages the function over the countable family of inverse
branches x -> N/(x+i), i >= N, with weights (x+N)/((x+i)(x+i+1)).  The far
branches accumulate at 0; those landing in one grid cell enter as one term,
their exact mass at their exact mean, so grid functions, linear on each
cell, get the whole series in about 2 sqrt(NM) terms a point.  On a grid the
operator is a fixed stochastic matrix: iterates() assembles it once, from
one branch sum at the nodes, as a dense block for the groups and rows of
equal width for the single branches, and steps it by their products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NcfParams
from .errors import FitError, charge
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
        charge(m + 1, "grid samples")
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
    """The branch cut-off of the former truncated operator, which it replaced."""
    return max(1000, 100 * params.n_param)


# (row, term) entries per chunk of operator work: the chunk size sets the
# temporaries of a branch sum and of an assembly
_CHUNK = 25_000
# cells of width 2^-20 group the far branches of a callable f
_CALLABLE_CELLS = 1 << 20


def _mean_over_n(u: np.ndarray) -> np.ndarray:
    """The mean point over N of the branches i = a..b, from the columns
    u = 1/(x+a) and, next, 1/(x+b+1) (the last column 0: b infinite), for
    x+a >= 20: (S(x+a) - S(x+b+1)) / (1/(x+a) - 1/(x+b+1)), with
    S(z) = psi_1(z) - 1/z = u^2/2 + u^3/6 + r(u), the trigamma series, exact
    to rounding there.  The two leading differences are factored, so no
    digits cancel; an empty group gets the limit of the factored part."""
    v = u * u
    r = v * v * u * (-1 / 30 + v * (1 / 42 + v * (-1 / 30 + v * (5 / 66 - v * 691 / 2730))))
    a, b = u[:, :-1], u[:, 1:]
    out = np.divide(r[:, :-1] - r[:, 1:], a - b, out=np.zeros_like(a), where=a > b)
    return out + (a + b) / 2.0 + (a * a + a * b + b * b) / 6.0


def _first_grouped(n: int, m: int) -> int:
    """I, the first branch grouped on m cells: every group mean stays below 1."""
    return max(n + 1, 20, math.isqrt(n * m) + 1)


def _branch_terms(params: NcfParams, x: np.ndarray, m: int, i_max: Optional[int] = None):
    """The operator at the points x as weighted point evaluations, exact for
    f linear on each of m equal cells.  The branches i < I = max(N+1, 20,
    isqrt(NM) + 1) are single terms.  Past I branch points lie less than a
    cell apart; those landing in cell k, i in (NM/(k+1) - x, NM/k - x], form
    one group i = a..b (cell 0's runs to infinity) of mass
    (x+N)(1/(x+a) - 1/(x+b+1)) at its mean point.  With i_max, every group
    starts at i_max + 1 at the latest: the branches above it fold into cell
    0's group, and the cells below NM // (i_max + 1), whose groups lie above
    it, are left out; once i_max + 1 < I there are no cells, only the
    singles N..i_max and the fold.  Charges len(x) times the terms per row,
    then yields (r0, w, y) for about _CHUNK entries (at least one row) at a
    time: (U f)(x[r0 + j]) is the sum of row j of w * f(y); along a row the
    points fall, and the weights telescope to 1."""
    n = params.n_param
    nm = n * m
    first = _first_grouped(n, m)
    if i_max is not None and i_max < n - 1:  # the fold's mass would exceed 1
        raise ValueError(f"i_max must be >= N - 1 = {n - 1}, got {i_max}")
    cut = math.inf if i_max is None else i_max + 1  # no group starts later
    if cut < first:  # the cells of a grid of none
        nm, first = 0, cut
    g = first - n  # the first group's column
    # k+1 for the cells nm // first..nm // cut, then cell 0
    k1 = np.append(np.arange(nm // first + 1, max(nm // cut, 1), -1, dtype=float), 1.0)
    terms = g + k1.size
    charge(len(x) * terms, "transfer operator")
    rows, singles = max(1, _CHUNK // terms), np.arange(n, first, dtype=float)
    if cut < 20:  # the fold's mean; S(z) = 1/(z^2 (z+1)) + S(z+1) carries z to 20
        s = sum(1.0 / ((x + j) ** 2 * (x + j + 1.0)) for j in range(cut, 20))
        u = 1.0 / (x[:, None] + [20, np.inf])
        tail = n * (x + cut) * (s + u[:, 0] * _mean_over_n(u)[:, 0])
    for r0 in range(0, len(x), rows):
        xr = x[r0:r0 + rows, None]
        z = np.empty((xr.shape[0], terms + 1))  # x + the first branch of each term
        np.add(xr, singles, out=z[:, :g])
        z[:, -1] = np.inf
        np.add(np.clip(np.floor(nm / k1 - xr) + 1.0, first, cut), xr, out=z[:, g:-1])
        w = np.divide(xr + n, z)
        w[:, :-1] -= w[:, 1:]  # telescoping
        w, y = w[:, :-1], np.divide(n, z[:, :-1])
        y[:, g:] = n * _mean_over_n(1.0 / z[:, g:]) if cut >= 20 else tail[r0:r0 + rows, None]
        yield r0, w, y


def transfer_at(f, params: NcfParams, x, i_max: Optional[int] = None) -> np.ndarray:
    """The transfer operator applied to f, evaluated at the points x.  This
    branch sum is the definition of the operator; iterates() steps its
    assembled matrix.  The far branches of a GridFunction are grouped on its
    cells, which is exact.  Those of any other f, called on arrays, are
    grouped on cells of width 2^-20, exact for f linear on each of them.
    With i_max, the branches above it fold into one term at their exact
    mean; those below it stay grouped, so the cut-off sum equals, to
    rounding, the one taken branch by branch, and costs no more terms than
    the exact one."""
    x = np.asarray(x, dtype=float)
    m = f.resolution if isinstance(f, GridFunction) else _CALLABLE_CELLS
    out = np.empty(x.shape[0])
    for r0, w, y in _branch_terms(params, x, m, i_max):
        out[r0:r0 + w.shape[0]] = np.sum(w * f(y.ravel()).reshape(y.shape), axis=1)
    return out


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator, at the nodes of f; with
    i_max, the branches above it enter as one term at their mean (see
    transfer_at)."""
    return GridFunction(transfer_at(f, params, f.nodes, i_max))


def _assemble(params: NcfParams, m: int):
    """The operator on grids of m cells, from one pass over the branch terms
    at the nodes: (dense, cols, lo, hi).  A term point in the cell
    [k/m, (k+1)/m] splits its weight t : 1-t between the columns k+1 and k.

    Group k's mean lies in cell k, and every row has the groups of the cells
    K..0, K = NM // I, so their weights fill dense, (m+1) x (K+2), by
    shifted slices; the fraction in the cell is clipped to [0, 1], which
    only absorbs rounding.  The singles N..I-1 keep one entry pair a term:
    row j puts lo[j] on the columns cols[j] and hi[j] on cols[j] + 1.
    Repeated columns in a row are summed by _step, not merged.
    """
    first = _first_grouped(params.n_param, m)
    g, k = first - params.n_param, params.n_param * m // first
    op = None
    for r0, w, y in _branch_terms(params, np.linspace(0.0, 1.0, m + 1), m):
        if op is None:  # after the charge: dense, cols, lo, hi
            op = (np.zeros((m + 1, k + 2)), np.empty((m + 1, g), dtype=np.intp),
                  np.empty((m + 1, g)), np.empty((m + 1, g)))
        dense, cols, lo, hi = (a[r0:r0 + w.shape[0]] for a in op)
        t = y * m
        np.minimum(t[:, :g], m - 1, out=cols, casting="unsafe")
        np.multiply(t[:, :g] - cols, w[:, :g], out=hi)
        np.subtract(w[:, :g], hi, out=lo)
        wg = w[:, :g - 1:-1]  # the groups of the cells 0..K
        t = np.clip(t[:, :g - 1:-1] - np.arange(k + 1), 0.0, 1.0)
        t *= wg
        dense[:, :-1] = wg - t
        dense[:, 1:] += t
    return op


def _step(op, v: np.ndarray) -> np.ndarray:
    """One operator application to the node values v, by the operator op."""
    dense, cols, lo, hi = op
    out = dense @ v[:dense.shape[1]]
    out += np.einsum("ij,ij->i", lo, v[cols]) + np.einsum("ij,ij->i", hi, v[1:][cols])
    return out


def iterates(f: GridFunction, params: NcfParams, n: int):
    """Yield U f, U^2 f, ..., U^n f: every multi-step use of the operator.
    From three steps on, the operator is assembled once for the grid of f,
    for about the cost of one branch sum, and each step is a matrix-vector
    product.  Shorter runs take the branch sum of apply_transfer."""
    if n < 3:
        for _ in range(n):
            f = apply_transfer(f, params)
            yield f
        return
    op = _assemble(params, f.resolution)
    v = f.values
    for _ in range(n):
        v = _step(op, v)
        yield GridFunction(v)


def lipschitz_norm(f: GridFunction) -> LipschitzNormEstimate:
    """Sup plus max slope over adjacent nodes; a lower bound for the true norm."""
    v = f.values
    return LipschitzNormEstimate(float(np.max(np.abs(v))),
                                 float(np.max(np.abs(np.diff(v))) * f.resolution))


def cesaro_operator(f: GridFunction, n: int, params: NcfParams) -> GridFunction:
    """(1/n) sum of the first n operator iterates, by running average."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return GridFunction(sum(g.values for g in iterates(f, params, n)) / n)


def integrate_against(f: GridFunction, gm: GaussMeasure) -> float:
    """Composite Simpson integral of f against the invariant measure on the
    grid.  An odd number of cells ends with Cartwright's correction for the
    last cell, h/12 (5 y[-1] + 8 y[-2] - y[-3]); one cell is a trapezoid."""
    y = f.values * gm.density(f.nodes)
    m = f.resolution
    if m == 1:
        return float((y[0] + y[1]) / 2.0)
    k = m - m % 2  # the cells covered by pairs
    total = np.sum(y[0:k - 1:2] + 4.0 * y[1:k:2] + y[2:k + 1:2]) / (3.0 * m)
    if m % 2:
        total += (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / (12.0 * m)
    return float(total)


def _fit_window(errors: np.ndarray):
    """Indices of the admissible log-fit window: above the noise floor, and
    cut where the per-step ratio degrades markedly against the median ratio
    of the leading points, as discretization or rounding error takes over."""
    floor = 100 * np.finfo(float).eps
    idx, ratios = [], []
    for j, e in enumerate(errors):
        r = e / errors[idx[-1]] if idx else 0.0
        slower = len(ratios) >= 3 and r > min(0.95, 1.5 * np.median(ratios[:5]))
        if e <= floor or r > 0.99 or slower:  # r > 0.99: no usable decay left
            break
        ratios += [r] if idx else []
        idx.append(j)
    return idx


def fit_rate(errors: np.ndarray):
    """Least-squares line through log(errors) against n = 1, 2, ... over the
    fit window: (window indices, slope, intercept, residuals); the geometric
    rate is exp(slope).  Raises FitError when the window has fewer than 3
    points."""
    idx = _fit_window(errors)
    if len(idx) < 3:
        raise FitError(f"only {len(idx)} admissible points before the error floor; "
                       "cannot fit a geometric rate")
    ns = np.array(idx, dtype=float) + 1.0
    logs = np.log(errors[idx])
    slope, intercept = np.polyfit(ns, logs, 1)
    return idx, slope, intercept, logs - (slope * ns + intercept)


def error_curves(f: GridFunction, params: NcfParams, n_max: int):
    """c_f and the sup and Lipschitz distances of U f, ..., U^n_max f from it:
    c_f is the integral of f against the invariant measure, the constant to
    which the operator iterates of any Lipschitz f collapse."""
    c_f = integrate_against(f, GaussMeasure(params))
    norms = [lipschitz_norm(GridFunction(g.values - c_f)) for g in iterates(f, params, n_max)]
    return c_f, np.array([e.sup_part for e in norms]), np.array([e.total for e in norms])


def estimate_gap(f: GridFunction, params: NcfParams, n_max: int) -> GapEstimate:
    """Fit the geometric decay rate on the log scale: the sup-norm distance
    ||U^n f - c_f|| of the iterates from c_f decays like k q^n."""
    if n_max < 5:
        raise ValueError(f"n_max must be >= 5, got {n_max}")
    if np.ptp(f.values) == 0.0:
        raise ValueError("gap estimation needs a non-constant function")
    _, sup_errors, lip_errors = error_curves(f, params, n_max)
    idx, slope, intercept, residuals = fit_rate(sup_errors)
    return GapEstimate(q_hat=float(math.exp(slope)), k_hat=float(math.exp(intercept)),
                       residuals=residuals, n_window=(idx[0] + 1, idx[-1] + 1),
                       sup_errors=sup_errors, lip_errors=lip_errors)
