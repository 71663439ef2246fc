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


def _branch_terms(params: NcfParams, x: np.ndarray, i_max: Optional[int], block: int):
    """The operator at the points x as weighted point evaluations.

    Yields (weights, points) pairs of shape (len(x), k): the branches
    i = N..i_max, at most `block` of them at a time, then the folded tail as
    one column.  (U f)(x) is the sum over the pairs of weights * f(points).
    Weights are telescoping differences (x+N)/(x+i) - (x+N)/(x+i+1), so the
    constant function is reproduced to machine precision.  The truncated
    tail enters as its mass (x+N)/(x+i_max+1) times the value at the tail's
    mean branch point (near 0), which keeps the unit eigenfunction exact
    while cancelling the first-order truncation error.
    """
    n = params.n_param
    if i_max is None:
        i_max = default_branch_cutoff(params)
    if i_max < n - 1:
        # the tail mass would exceed 1
        raise ValueError(f"i_max must be >= N - 1 = {n - 1}, got {i_max}")
    x = x[:, None]
    for lo in range(n, i_max + 1, block):
        i = np.arange(lo, min(lo + block, i_max + 1), dtype=float)[None, :]
        yield (x + n) / (x + i) - (x + n) / (x + i + 1.0), n / (x + i)
    tail = (x + n) / (x + i_max + 1)
    # first moment of the branch points over the tail, by midpoint integral
    m_half = x + i_max + 0.5
    s1 = n * (x + n) * (0.5 / m_half ** 2 - 1.0 / (3.0 * m_half ** 3))
    yield tail, s1 / tail


def transfer_at(f, params: NcfParams, x, i_max: Optional[int] = None) -> np.ndarray:
    """The transfer operator applied to f, evaluated at the points x.

    f is any function callable on arrays.  This branch sum is the definition
    of the operator; iterates() steps its assembled matrix.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[0])
    for w, y in _branch_terms(params, x, i_max, max(1, 8_000_000 // x.shape[0])):
        out += np.sum(w * f(y.ravel()).reshape(y.shape), axis=1)
    return out


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator, at the nodes of f."""
    return GridFunction(transfer_at(f, params, f.nodes, i_max))


# (row, branch) entries per chunk of the assembly: the chunk size sets the
# peak memory of a build
_ASSEMBLY_CHUNK = 50_000
# matrix entries per block: the chunks' small parts are merged into blocks
# this large, which the allocator maps on their own, so the parts' heap
# space is reused by the next chunks instead of pinning freed temporaries
_ASSEMBLY_BLOCK = 1_000_000


def _assemble(params: NcfParams, m: int, i_max: Optional[int]):
    """The operator on grids of m cells as a sparse matrix in compressed
    rows: (indptr, cols, data), row j in data[indptr[j]:indptr[j+1]].

    Row j holds the linear-interpolation weights of every branch point of
    node j/m, and of the tail point, times its branch weight, summed per
    column.  On grid functions it equals transfer_at at the nodes up to
    rounding.  Every row holds at least its tail entry.
    """
    i_top = default_branch_cutoff(params) if i_max is None else i_max
    block = max(1, i_top - params.n_param + 1)  # all branches in one block
    rows_per_chunk = max(1, _ASSEMBLY_CHUNK // block)
    nodes = np.linspace(0.0, 1.0, m + 1)
    counts, cols, data, part_cols, part_data = [], [], [], [], []
    for r0 in range(0, m + 1, rows_per_chunk):
        x = nodes[r0:r0 + rows_per_chunk]
        keys, vals = [], []
        for w, y in _branch_terms(params, x, i_max, block):
            # y lies in the cell [k/m, (k+1)/m]; entry key = row (m+1) + column
            my = y * m
            k = np.minimum(my.astype(np.intp), m - 1)
            t = my - k
            key = ((np.arange(x.size) * (m + 1))[:, None] + k).ravel()
            # branch points decrease along a row, so equal keys form runs
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            keys += [key[starts], key[starts] + 1]
            vals += [np.add.reduceat((w * (1.0 - t)).ravel(), starts),
                     np.add.reduceat((w * t).ravel(), starts)]
        # sum the entries of each (row, column); sorted keys are row-major
        keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
        rows, col = np.divmod(keys, m + 1)
        counts.append(np.bincount(rows, minlength=x.size))
        part_cols.append(col)
        part_data.append(np.bincount(inverse, weights=np.concatenate(vals)))
        if sum(p.size for p in part_cols) >= _ASSEMBLY_BLOCK or r0 + x.size > m:
            cols.append(np.concatenate(part_cols))
            data.append(np.concatenate(part_data))
            part_cols, part_data = [], []
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    # one list of blocks at a time, so the peak is three arrays of nnz
    cols = np.concatenate(cols)
    data = np.concatenate(data)
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
    and stepped as a sparse matrix; the build costs one to two branch sums.
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
