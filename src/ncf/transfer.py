"""Transfer operator of the N-continued-fraction map on grid functions.

A function on [0,1] is carried as samples at uniform nodes j/M.  One operator
application averages the function over the countable family of inverse
branches x -> N/(x+i), i >= N, with weights (x+N)/((x+i)(x+i+1)); the branch
series is truncated and the exact tail mass (x+N)/(x+i_max+1) is folded in
through the value at the tail's mean branch point, near 0, where the far
branches accumulate.  On a grid the operator is a fixed stochastic matrix:
iterates() assembles it once and steps it as a sparse product.
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


# (row, branch) entries per chunk of operator work: the chunk size sets the
# peak memory of a branch sum and of an assembly
_CHUNK = 50_000
# matrix entries per block of an assembly: mapped on their own, blocks keep
# the heap to one chunk's temporaries, and at 2 MB an array stays below the
# 4 MB from which NumPy asks for huge pages, so untouched ends stay unmapped
_ASSEMBLY_BLOCK = 1 << 18


def _branch_terms(params: NcfParams, x: np.ndarray, i_max: Optional[int]):
    """The operator at the points x as weighted point evaluations.

    Charges len(x) (i_max - N + 2) budget units, then yields (r0, w, y) for
    about _CHUNK entries (at least one row) at a time: (U f)(x[r0 + j]) is
    the sum of row j of w * f(y), over the branches i = N..i_max and then the
    folded tail; along a row the points fall.  The weights telescope, so
    constants are reproduced to machine precision; the tail enters as its
    mass (x+N)/(x+i_max+1) at its mean branch point (near 0), which keeps the
    unit eigenfunction exact and cancels the first-order truncation error.
    """
    n = params.n_param
    if i_max is None:
        i_max = default_branch_cutoff(params)
    if i_max < n - 1:  # the tail mass would exceed 1
        raise ValueError(f"i_max must be >= N - 1 = {n - 1}, got {i_max}")
    i = np.arange(n, i_max + 2, dtype=float)
    charge(len(x) * i.size, "transfer operator")
    rows = max(1, _CHUNK // i.size)
    for r0 in range(0, len(x), rows):
        xr = x[r0:r0 + rows, None]
        w = (xr + n) / (xr + i)
        w[:, :-1] -= w[:, 1:]  # the last column stays the tail mass
        y = n / (xr + i)
        # first moment of the tail's branch points, by midpoint integral;
        # it falls below 0 only at N = 1, i_max = 0
        h = xr[:, 0] + i_max + 0.5
        s1 = n * (xr[:, 0] + n) * (0.5 / h ** 2 - 1.0 / (3.0 * h ** 3))
        y[:, -1] = np.maximum(s1 / w[:, -1], 0.0)
        yield r0, w, y


def transfer_at(f, params: NcfParams, x, i_max: Optional[int] = None) -> np.ndarray:
    """The transfer operator applied to f, evaluated at the points x.

    f is any function callable on arrays.  This branch sum is the definition
    of the operator; iterates() steps its assembled matrix.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape[0])
    for r0, w, y in _branch_terms(params, x, i_max):
        out[r0:r0 + w.shape[0]] = np.sum(w * f(y.ravel()).reshape(y.shape), axis=1)
    return out


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator, at the nodes of f."""
    return GridFunction(transfer_at(f, params, f.nodes, i_max))


def _entries(m: int, w: np.ndarray, y: np.ndarray):
    """A chunk of branch terms as matrix entries on grids of m cells: (entries
    per row, columns, values), one per (row, column).  A point in the cell
    [k/m, (k+1)/m] splits its weight t : 1-t between columns k+1 and k."""
    t = y * m
    k = t.astype(np.intp)
    np.minimum(k, m - 1, out=k)
    t -= k
    t *= w
    k += (np.arange(w.shape[0]) * (m + 1))[:, None]  # key: row (m+1) + column
    # the points fall along a row, so equal keys (all >= 0) form runs; the
    # runs' columns (k+1, k) never rise, and only a next run's k+1 repeats k
    key = k.ravel()
    s = np.flatnonzero(np.diff(key, prepend=-1))
    val = np.column_stack((np.add.reduceat(t.ravel(), s),
                           np.add.reduceat((w - t).ravel(), s))).ravel()
    key = np.column_stack((key[s] + 1, key[s])).ravel()
    s = np.flatnonzero(np.diff(key, prepend=-1))
    rows, cols = np.divmod(key[s], m + 1)
    return np.bincount(rows, minlength=w.shape[0]), cols, np.add.reduceat(val, s)


def _assemble(params: NcfParams, m: int, i_max: Optional[int]):
    """The operator on grids of m cells as a sparse matrix in compressed
    rows: (indptr, cols, data), row j in data[indptr[j]:indptr[j+1]].

    Row j holds the linear-interpolation weights of every branch point of
    node j/m, and of the tail point, times its branch weight, summed per
    column.  On grid functions it equals transfer_at at the nodes up to
    rounding.  Every row holds at least its tail entry.
    """
    chunks = _branch_terms(params, np.linspace(0.0, 1.0, m + 1), i_max)
    counts, cols, data = [], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    used = 0  # entries filled in the last block
    for count, col, val in (_entries(m, w, y) for _, w, y in chunks):
        if used + col.size > cols[-1].size:
            cols[-1], data[-1] = cols[-1][:used], data[-1][:used]
            cols.append(np.empty(max(_ASSEMBLY_BLOCK, col.size), dtype=np.intp))
            data.append(np.empty(cols[-1].size))
            used = 0
        counts.append(count)
        cols[-1][used:used + col.size] = col
        data[-1][used:used + col.size] = val
        used += col.size
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    # one list at a time, so the peak is three arrays of nnz
    cols = np.concatenate(cols[:-1] + [cols[-1][:used]])
    data = np.concatenate(data[:-1] + [data[-1][:used]])
    return indptr, cols, data


def _step(op, v: np.ndarray) -> np.ndarray:
    """One operator application to the node values v, by the matrix op."""
    indptr, cols, data = op
    w = v[cols]
    w *= data
    # no row is empty, so reduceat sums exactly the entries of each row
    return np.add.reduceat(w, indptr[:-1])


def iterates(f: GridFunction, params: NcfParams, n: int, i_max: Optional[int] = None):
    """Yield U f, U^2 f, ..., U^n f: every multi-step use of the operator.

    From three steps on, the operator is assembled once for the grid of f
    and stepped as a sparse matrix; the build costs one to three branch sums.
    Shorter runs take the branch sum of apply_transfer.
    """
    if n < 3:
        for _ in range(n):
            f = apply_transfer(f, params, i_max=i_max)
            yield f
        return
    op = _assemble(params, f.resolution, i_max)
    v = f.values
    for _ in range(n):
        v = _step(op, v)
        yield GridFunction(v)


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
    """Composite Simpson integral of f against the invariant measure on the
    grid.

    An odd number of cells ends with Cartwright's correction for the last
    cell, h/12 (5 y[-1] + 8 y[-2] - y[-3]); a single cell is a trapezoid.
    """
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


def error_curves(f: GridFunction, params: NcfParams, n_max: int):
    """c_f and the sup and Lipschitz distances of U f, ..., U^n_max f from it.

    c_f is the integral of f against the invariant measure: the operator
    iterates of any Lipschitz f collapse to that constant.
    """
    c_f = integrate_against(f, GaussMeasure(params))
    norms = [lipschitz_norm(GridFunction(g.values - c_f)) for g in iterates(f, params, n_max)]
    return c_f, np.array([e.sup_part for e in norms]), np.array([e.total for e in norms])


def estimate_gap(f: GridFunction, params: NcfParams, n_max: int) -> GapEstimate:
    """Fit the geometric decay rate of ||U^n f - c_f|| on the log scale.

    The sup-norm distance of the iterates from c_f decays like k q^n.
    """
    if n_max < 5:
        raise ValueError(f"n_max must be >= 5, got {n_max}")
    if np.ptp(f.values) == 0.0:
        raise ValueError("gap estimation needs a non-constant function")
    _, sup_errors, lip_errors = error_curves(f, params, n_max)
    idx, slope, intercept, residuals = fit_rate(sup_errors)
    return GapEstimate(
        q_hat=float(math.exp(slope)),
        k_hat=float(math.exp(intercept)),
        residuals=residuals,
        n_window=(idx[0] + 1, idx[-1] + 1),
        sup_errors=sup_errors,
        lip_errors=lip_errors,
    )
