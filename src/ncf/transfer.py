"""Transfer operator of the N-continued-fraction map on grid functions.

A function on [0,1] is carried as samples at uniform nodes j/M.  One operator
application averages the function over the countable family of inverse
branches x -> N/(x+i), i >= N, with weights (x+N)/((x+i)(x+i+1)).  The far
branches accumulate at 0; those landing in one grid cell enter as one term,
by their exact mass and first moment, which both telescope, so grid
functions, linear on each cell, get the whole series in about 2 sqrt(NM)
terms a point.  One set of formulas forms every term from exact integer
thresholds: _grid_terms at each point, for the assembled operator and the
point form, and apply_transfer once a call, as Chebyshev series in the node
index.  iterates() assembles the operator once per (N, M), steps it by one
BLAS product plus gathered rows, and keeps it, read-only, until another
grid needs the slot: at most one is held.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NcfParams
from .errors import FitError, charge, count
from .measure import GaussMeasure


@dataclass(frozen=True)
class GridFunction:
    """Samples at nodes j/M, j = 0..M."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype.kind == "c":
            raise ValueError("GridFunction samples must be real")
        v = v.astype(float, copy=False)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("GridFunction needs a 1-d array of >= 2 samples")
        if not np.isfinite(v).all():
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
        m = count(m, "m", 1)
        charge(m + 1, "grid samples")
        x = np.linspace(0.0, 1.0, m + 1)
        return cls(np.asarray(fn(x), dtype=float) * np.ones(m + 1))

    @classmethod
    def constant(cls, c: float, m: int) -> "GridFunction":
        return cls(np.full(count(m, "m", 1) + 1, float(c)))

    def __call__(self, x):
        return np.interp(x, _nodes(self.values.size), self.values)


@functools.lru_cache(maxsize=4)
def _nodes(size: int) -> np.ndarray:
    """The nodes j/M of size = M + 1 samples, read-only, shared by every grid of that size."""
    x = np.linspace(0.0, 1.0, size)
    x.setflags(write=False)
    return x


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
# apply_transfer's series in the node index j on [0, M]: _CHEB terms, from
# samples at the Chebyshev points M _CHEB_AT, by the cosine matrix _CHEB_COEF.
# Their poles lie at least 39 half-widths from the middle of [0, M], where
# the terms fall like 78^-k: 10 are exact to rounding
_CHEB = 10
_CHEB_AT = np.array([(1.0 + math.cos(math.pi * (i + 0.5) / _CHEB)) / 2 for i in range(_CHEB)])
_CHEB_COEF = np.array([[(2 - (k == 0)) / _CHEB * math.cos(k * math.pi * (i + 0.5) / _CHEB)
                        for i in range(_CHEB)] for k in range(_CHEB)])


# the trigamma series' coefficients of u^3, u^5, ..., u^13
_CUBIC = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _cubic_rest(u: np.ndarray) -> np.ndarray:
    """S(z) - u^2/2 at u = 1/z, S(z) = psi_1(z) - 1/z, by the trigamma series:
    S exact to rounding for z >= 20, where every term starts (I, i_max + 1 >= 20)."""
    v = u * u
    out = _CUBIC[-1] * v
    for c in _CUBIC[-2::-1]:
        out += c
        out *= v
    return out * u


def _layout(n: int, m: int, i_max: Optional[int], per_point: bool):
    """The terms on m cells, counted, not formed: (NM, s, I, cut, K, low, terms
    a point).  Branch i of x sits at L = s (x+i), s = M / 2^e, e the least that
    keeps s NM below 2^1000, at u = M/L = 2^e/(x+i): masses and offsets over x+N
    are carried at 4^e, x+N at 4^-e, so none is subnormal.  The singles are
    N..I-1, I = max(N+1, 20), past isqrt(NM) per_point; the groups' cells fall
    from K = NM // I to 1, or low."""
    if i_max is not None:
        i_max = count(i_max, "i_max", 0)
        if i_max < max(n - 1, 19):  # fold mass <= 1, mean by _cubic_rest
            raise ValueError(f"i_max must be >= max(N - 1, 19) = {max(n - 1, 19)}, got {i_max}")
    nm, cut = n * m, math.inf if i_max is None else i_max + 1
    s = m if nm * m < 2 ** 1000 else math.ldexp(m, 1000 - (nm * m).bit_length())
    first = max(n + 1, 20, math.isqrt(nm) + 1 if per_point else 0)
    top, low = nm // first if first < cut else 0, 0 if cut > nm else nm // cut
    first = min(first, cut)
    return nm, s, first, cut, top, low, first - n + (top - low + (low > 0) if top else 0) + 1


def _thresholds(nm: int, first: int, cut, top: int, low: int):
    """The groups of _layout, exact, in Python ints past int64: the group of
    cell t-1 starts past branch q, q, r = divmod(NM, t), at x > r/t, and past
    q+1 below, where q lands in cell t.  Returns t = K..low+1, q, r, the ends
    at x > r/t (I, each q, and a cut that ends a group), and the cell each ends."""
    t = np.arange(top, low, -1)
    big = t if nm < 2 ** 63 else t.astype(object)
    q, r = nm // big, nm % big
    ends = np.concatenate(([first], q, [cut] if low else [])) if top else np.array([first])
    return t, q, r, ends, top + 1 - np.arange(ends.size)


def _masses(u0: np.ndarray, u1: np.ndarray, cnt) -> np.ndarray:
    """Over x+N, at 4^e, the masses u0 u1 cnt = 2^e (u0 - u1) of cnt branches between ends
    u = 2^e/(x+i)."""
    return u0 * (u1 * cnt)


def _places(ends: np.ndarray, s, nm: int) -> np.ndarray:
    """The places M y = NM s / L, in one rounding, of the single branches at L = s (x+i)."""
    return nm * s / ends


def _groups(j, u, cnt, k, c, m: int, nm: int):
    """The groups of cnt branches between consecutive ends u = M / L = 2^e v,
    v = 1/(x+i), on the first axis, at x = j/s, with k, the cell of the group
    an end ends, and c = s (NM - k i), exact, at each.  Returns C(u)
    (_cubic_rest) at the ends, and each group's mass a and offset b over x+N,
    at 4^e: b = a (NM (v0 + v1)/2 - k) + NM (C(v0) - C(v1)), M (NM v - k) = (c -
    k j) u, exact in k j.  Past e = 0, C(u) underflows to 0 and NM C(v) lies
    below the rounding of b."""
    jh = 134217729.0 * j  # Dekker's split: jh has 26 bits, so k jh is exact
    jh -= jh - j
    e, c = (c - k * jh - k * (j - jh)) * u, _cubic_rest(u)
    a = _masses(u[:-1], u[1:], cnt)
    return c, a, a * (e[:-1] + m + e[1:]) / (2 * m) + nm * (c[:-1] - c[1:])


def _mean(u: np.ndarray, c: np.ndarray, nm) -> np.ndarray:
    """The last term's place M y, its exact mean NM S(1/v) / v, S(1/v) = v^2/2 + C(v), from
    v = 1/(x+i) at its start: nm = NM / 2^e, u = 2^e v and c = C(u), 0 past e = 0."""
    return nm / 2 * u + nm * c / u


def _grid_terms(params: NcfParams, j: np.ndarray, m: int, i_max: Optional[int]):
    """The terms of the operator at x = j/M, exact for f linear on each of m
    cells, by apply_transfer's formulas: the one place they are formed for the
    assembly and the point form.  Charges len(j) times the terms a point, and
    yields chunks of about _CHUNK entries, a point a row: (r0, x+N, w, p, k, a,
    b), the masses w over x+N and places p of the singles and the last term,
    each adding w f_c + w (p - c) (f_{c+1} - f_c), c = min(floor(p), M-1), and
    the groups' cells k, masses a and offsets b, each a f_k + b (f_{k+1} - f_k)."""
    n = params.n_param
    nm, s, first, cut, top, low, terms = _layout(n, m, i_max, True)
    charge(len(j) * terms, "transfer operator")
    t, q, r, ends, k = _thresholds(nm, first, cut, top, low)
    c = s * (nm - k * ends).astype(float)[:, None]  # the ends down columns, the points along rows
    cnt, mr = np.diff(ends).astype(float)[:, None], (m * r / t).astype(float)[:, None]
    g, rows, k = first - n, max(1, _CHUNK // terms), k.astype(float)[:, None]
    at = s * np.append(n + np.arange(first - n, dtype=float), ends.astype(float))[:, None]
    for r0 in range(0, len(j), rows):
        jr = j[r0:r0 + rows]
        late = np.zeros((g + ends.size, jr.size))  # 1 where branch q still lands in cell t
        np.less_equal(jr, mr, out=late[g + 1:g + 1 + t.size])
        js = jr * (s / m)
        ends_x = at + js + s * late  # the singles' ends, then the groups'
        u = m / ends_x
        cr, a, b = _groups(js, u[g:], cnt + np.diff(late[g:], axis=0), k, c - s * k * late[g:], m,
                           nm)
        yield (r0, (jr / m + n) * (s / m) ** 2,
               np.append(_masses(u[:g], u[1:g + 1], 1.0), u[-1:] * (m / s), axis=0).T,
               np.append(_places(ends_x[:g], s, nm), _mean(u[-1:], cr[-1:], nm * s / m), axis=0).T,
               k[1:, 0], a.T, b.T)


def _branch_terms(params: NcfParams, x: np.ndarray, m: int, i_max: Optional[int] = None):
    """The terms of _grid_terms as point evaluations: (U f)(x[r0 + j]) is the
    sum of row j of w * f(y), for each (r0, w, y) yielded.  A point term sits
    at y = p/M, a group at its mean, M y = k + b/a, b clipped to [0, a], an
    empty group at its cell's edge: along a row the points fall."""
    if params.n_param * m >= 2 ** 1024 - 2 ** 970:  # the last end NM, past what float() takes
        raise ValueError(f"point terms on M = {m} cells need N M < 2^1024 - 2^970")
    for r0, xn, w, p, k, a, b in _grid_terms(params, m * x, m, i_max):
        t = np.divide(np.minimum(np.maximum(b, 0.0), a), a, out=np.zeros_like(a), where=a > 0)
        yield (r0, xn[:, None] * np.concatenate((w[:, :-1], a, w[:, -1:]), axis=1),
               np.concatenate((p[:, :-1], k + t, p[:, -1:]), axis=1) / m)


def transfer_at(f, params: NcfParams, x, i_max: Optional[int] = None) -> np.ndarray:
    """The transfer operator applied to f at the points x, by the terms of
    _grid_terms as point values.  The far branches of a GridFunction are
    grouped on its cells, which is exact; those of any other f, called on
    arrays, on cells of width 2^-20, exact for f linear on each.  With i_max
    >= max(N - 1, 19), the branches above it fold into one term at their
    exact mean, so the cut-off sum equals, to rounding, the branch-by-branch
    one, and costs no more terms than the exact one."""
    x = np.asarray(x, dtype=float)
    m = f.resolution if isinstance(f, GridFunction) else _CALLABLE_CELLS
    out = np.empty(x.shape[0])
    for r0, w, y in _branch_terms(params, x, m, i_max):
        out[r0:r0 + w.shape[0]] = np.sum(w * f(y.ravel()).reshape(y.shape), axis=1)
    return out


def _clenshaw(c: np.ndarray, i: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k c[k, i] T_k(s), by Clenshaw's recurrence, column i of c at each s."""
    b1 = b2 = 0.0
    for k in range(c.shape[0] - 1, 0, -1):
        b1, b2 = c[k].take(i) + 2.0 * s * b1 - b2, b1
    return c[0].take(i) + s * b1 - b2


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator at the nodes j/M of f: the
    terms of _grid_terms, by its formulas, with the groups formed once a
    call.  The singles N..I-1, I = max(N+1, 20), and the last term are point
    terms at every node.  Branch i of node j sits at L = M i + j, threshold t
    at M q + j, or M later where j < r_t = M r // t + 1 (_thresholds).  With
    every threshold at M q + j, the groups are analytic in j: one series in
    T_k(2j/M - 1), from _CHEB samples.  Where j < r_t the branch at M q + j
    lies in cell t, not t-1, which adds b (d_t - d_t-1), b its offset there:
    a series for each threshold.  Node j sums one series, the groups' plus
    the suffix sum of the thresholds' at r_t > j, a block of 4 (_CHUNK //
    _CHEB) nodes at a time.  Charges the point terms and coefficients at
    every node, and the samples."""
    n, m, v, d = params.n_param, f.resolution, f.values, np.diff(f.values)
    nm, sc, first, cut, top, low, _ = _layout(n, m, i_max, False)
    t, q, r, qb, ks = _thresholds(nm, first, cut, top, low)
    rt = (r * m // t + 1).astype(np.intp)
    charge((m + 1) * (first - n + 1 + _CHEB) + _CHEB * (qb.size - 1 + t.size), "transfer operator")
    x, per, jm = f.nodes, max(1, _CHUNK // _CHEB), sc * _CHEB_AT  # jm: the samples, scaled

    def point(u, p):
        """Point terms of mass u (x+N) at M y = p, over x+N, in place of p."""
        c = np.minimum(p.astype(np.intp), m - 1)
        p -= c
        p *= d[c]
        p += v[c]
        p *= u
        return p

    # the groups, summed at the samples along rows: the first sample, and the
    # others' differences from it, whose rounding the series then scales down
    base = np.zeros(_CHEB)
    for g0 in range(0, qb.size - 1, per):
        qs, k = qb[g0:g0 + per + 1, None], ks[g0:g0 + per + 1, None]
        _, a, b = _groups(jm, m / (jm + sc * qs.astype(float)), np.diff(qs, axis=0).astype(float),
                          k, sc * (nm - k * qs).astype(float), m, nm)
        k = k[1:, 0]
        base[0] += v[k] @ a[:, 0] + d[k] @ b[:, 0]
        base[1:] += v[k] @ (a[:, 1:] - a[:, :1]) + d[k] @ (b[:, 1:] - b[:, :1])
    coef = np.append(0.0, base[1:]) @ _CHEB_COEF.T
    coef[0] += base[0]
    # a block of nodes at a time, from the last, its nodes falling from j1 - 1:
    # the suffix sums of its crossings, by rising r_t, on the later blocks'
    order = np.argsort(rt, kind="stable")
    at, carry, out, block = rt[order], coef, np.empty(m + 1), 4 * per
    for j1 in range(m + 1, 0, -block):
        j0 = max(0, j1 - block)
        down = slice(j1 - 1, j0 - 1 if j0 else None, -1)
        j, s = np.arange(j1 - 1.0, j0 - 1.0, -1.0), x[down] * 2.0 - 1.0
        js = j * (sc / m)
        # the terms, the least first: the last term, from I, i_max + 1 or threshold 1
        u = m / (sc * float(qb[-1]) + js + sc * (top and not low and j < rt[-1]))
        acc = point(u * (m / sc), _mean(u, _cubic_rest(u), nm * sc / m))
        e0, e1 = np.searchsorted(at, [j0, j1])
        ev = np.zeros((_CHEB, e1 - e0 + 1))
        for s0 in range(e0, e1, per):
            sel = order[s0:min(e1, s0 + per)]
            ts, qs, rs = t[sel], q[sel], r[sel]
            lo = jm[:, None] + sc * qs.astype(float)  # branch q to q+1: a group of one in cell t
            _, a, b = _groups(jm[:, None], m / np.stack((lo, lo + sc)), 1.0,
                              np.stack((ts + 1, ts))[:, None],
                              sc * np.stack((rs - qs, rs - ts))[:, None].astype(float), m, nm)
            last = ts == 1  # the branch leaves the last term: it adds a v_1 + b d_1
            ev[:, s0 - e0:s0 - e0 + sel.size] = _CHEB_COEF @ (
                np.where(last, v[1], 0.0) * a[0] + np.where(last, d[ts], d[ts] - d[ts - 1]) * b[0])
        ev = np.cumsum(ev[:, ::-1], axis=1)[:, ::-1] + carry[:, None]  # column i: from e0 + i on
        acc += _clenshaw(ev, np.searchsorted(at[e0:e1], j, side="right"), s)
        carry = ev[:, 0]
        # the singles, from the last
        u = m / (sc * float(first) + js)
        for i in range(first - 1, n - 1, -1):
            lo = sc * float(i) + js
            u0 = m / lo
            acc += point(_masses(u0, u, 1.0), _places(lo, sc, nm))
            u = u0
        out[down] = acc * ((x[down] + n) * (sc / m) ** 2)
    return GridFunction(out)


def _assemble(params: NcfParams, m: int):
    """The operator on grids of m cells, from one pass of _grid_terms: (dense,
    cols, lo, hi).  The singles i = N..max(N+1, I // 3) - 1, which land
    highest, stay gathered: row j puts lo[j] on the columns cols[j] and hi[j]
    on cols[j] + 1, and _step sums repeated columns.  dense, (m+1) x W, takes
    the groups of the cells K..1, K = NM // I, by shifted slices, b clipped to
    [0, a] against rounding, and the other point terms on their two columns
    each.  Folding the single i adds about NM / i^2 columns and drops a triple:
    from I/3 on, about the 2I columns whose bytes its 2I/3 triples held, and a
    step reads each triple as 3 columns of one BLAS product."""
    op, n = None, params.n_param
    for r0, xn, w, p, _, a, b in _grid_terms(params, np.arange(m + 1.0), m, None):
        c, w = np.minimum(p, m - 1).astype(np.intp), xn[:, None] * w
        h = (p - c) * w
        w -= h  # a point term puts w - h on its cell and h on the next
        k, g = a.shape[1], c.shape[1] - 1  # the groups K..1, the singles N..I-1
        s = min(g, max(1, (n + g) // 3 - n))  # the singles kept gathered
        if op is None:  # after the charge: dense, cols, lo, hi; row 0 lands highest
            rows = (m + 1, s)
            op = (np.zeros((m + 1, max(k, c[0, s]) + 2)), np.empty(rows, np.intp),
                  np.empty(rows), np.empty(rows))
        dense, cols, lo, hi = (t[r0:r0 + xn.size] for t in op)
        cols[:], lo[:], hi[:] = c[:, :s], w[:, :s], h[:, :s]
        b = np.minimum(np.maximum(b, 0.0), a)
        dense[:, 1:k + 1] = (a - b)[:, ::-1]
        dense[:, 2:k + 2] += b[:, ::-1]
        dense[:, 1:k + 2] *= xn[:, None]
        # the folded singles, and the last term, whose mean lies in cell 0
        at = (c[:, s:] + np.arange(0, dense.size, dense.shape[1])[:, None]).ravel()
        dense += np.bincount(np.append(at, at + 1), np.append(w[:, s:], h[:, s:]),
                             dense.size).reshape(dense.shape)
    return op


def _step(op, v: np.ndarray) -> np.ndarray:
    """One operator application to the node values v, by the operator op."""
    dense, cols, lo, hi = op
    out = dense @ v[:dense.shape[1]]
    out += np.einsum("ij,ij->i", lo, v[cols]) + np.einsum("ij,ij->i", hi, v[1:][cols])
    return out


# the operator last assembled, by (N, M): one at a time
_slot = {}


def iterates(f: GridFunction, params: NcfParams, n: int):
    """Yield U f, U^2 f, ..., U^n f: every multi-step use of the operator.
    From three steps on, each step is a matrix-vector product by the operator
    of f's grid, built once per (N, M) for about the cost of one branch sum,
    kept until another grid needs the slot, and charged for its steps and, on
    every run, as if built.  Shorter runs take the branch sum of apply_transfer."""
    if n < 3:
        for _ in range(n):
            f = apply_transfer(f, params)
            yield f
        return
    charge(n * (f.resolution + 1), "operator steps")  # one unit a node a product
    key = (params.n_param, f.resolution)
    op = _slot.get(key)  # one lookup: a run in another thread may empty the slot
    if op is None:
        _slot.clear()  # hold no two operators, not even during the build
        op = _slot[key] = _assemble(params, f.resolution)
        for a in op:
            a.setflags(write=False)  # a step never writes the operator, nor may a caller
    else:  # the build's charge only, counted without forming a term
        charge((key[1] + 1) * _layout(*key, None, True)[-1], "transfer operator")
    v = f.values
    for _ in range(n):
        v = _step(op, v)
        yield GridFunction(v)


def lipschitz_norm(f: GridFunction) -> LipschitzNormEstimate:
    """Sup plus max slope over adjacent nodes; a lower bound for the true norm."""
    v = f.values
    return LipschitzNormEstimate(float(np.max(np.abs(v))),
                                 float(np.max(np.abs(np.diff(v))) * f.resolution))


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


def _median(xs) -> float:
    """np.median of a few floats, bit for bit, without loading numpy.ma."""
    if any(x != x for x in xs):  # a NaN, which np.median returns
        return math.nan
    s, k = sorted(xs), len(xs) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _fit_window(errors: np.ndarray):
    """Indices of the admissible log-fit window: above the noise floor, and
    cut where the per-step ratio degrades markedly against the median ratio
    of the leading points, as discretization or rounding error takes over."""
    floor = 100 * np.finfo(float).eps
    idx, ratios = [], []
    for j, e in enumerate(errors):
        r = e / errors[idx[-1]] if idx else 0.0
        slower = len(ratios) >= 3 and r > min(0.95, 1.5 * _median(ratios[:5]))
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
    n_max = count(n_max, "n_max", 5)
    if np.ptp(f.values) == 0.0:
        raise ValueError("gap estimation needs a non-constant function")
    _, sup_errors, lip_errors = error_curves(f, params, n_max)
    idx, slope, intercept, residuals = fit_rate(sup_errors)
    return GapEstimate(q_hat=float(math.exp(slope)), k_hat=float(math.exp(intercept)),
                       residuals=residuals, n_window=(idx[0] + 1, idx[-1] + 1),
                       sup_errors=sup_errors, lip_errors=lip_errors)
