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
index.  Both fast forms sum point terms as gathered rows (_rows): a cell c
with a weight on f_c and one on f_{c+1}.
One store holds, read-only, what reads no f: apply_transfer's series, by
(N, M, i_max), and its single branches' rows, by (N, M), and _grid_terms'
layout of thresholds and ends, by (N, M, i_max); the least recently used is
dropped past 16 MiB in all, and a larger table is formed at every call.
iterates() yields the node values of n branch sums, or, where its build and
steps are charged less, of n steps of the operator of f's grid, each one
BLAS product plus one gather; the operator is assembled once per (N, M) and
held, read-only, until another grid needs it (_operator): one at a time.
A second form leaves the grid: _spectral(N), the operator as the matrix of
collocation at 25 Chebyshev-Lobatto points, in closed form up to N = 10^3
and kept per N, read-only.  Its iterates of an analytic f converge
geometrically, not at the grid's O(h^2); _integral_rows integrates them
exactly.  error_curves and gausskuzmin iterate it where it resolves f or f0
(_resolves, _spectral_iterates).  Its rows branch by branch (_spectral_rows)
sum the branches from any start (_spectral_tail): those below N + 128
directly, and the rest by Gregory's end correction.  rscc's kernels hold,
per N, the first 128 with their prefix sums, and the operator built from
them (_spectral_blocks).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import NcfParams
from .errors import FitError, charge, count
from .measure import _GL_NODES, _GL_WEIGHTS, GaussMeasure, _gauss_legendre


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


# the trigamma series' coefficients of u^3, u^5, ..., u^13: the Bernoulli
# numbers B_2, B_4, ..., B_12
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


def _point_layout(n: int, m: int, layout):
    """_grid_terms' layout, which reads no point: the ends' offsets c = s (NM
    - k i) and the groups' counts down the first axis, the thresholds M r/t
    and the cells k, and the places' bases s i of the singles and of every
    end, each a column."""
    nm, s, first, cut, top, low, _ = layout
    t, q, r, ends, k = _thresholds(nm, first, cut, top, low)
    c = s * (nm - k * ends).astype(float)[:, None]  # the ends down columns, the points along rows
    cnt, mr = np.diff(ends).astype(float)[:, None], (m * r / t).astype(float)[:, None]
    at = s * np.append(n + np.arange(first - n, dtype=float), ends.astype(float))[:, None]
    return c, cnt, mr, k.astype(float)[:, None], at


def _grid_terms(params: NcfParams, j: np.ndarray, m: int, i_max: Optional[int]):
    """The terms of the operator at x = j/M, exact for f linear on each of m
    cells, by apply_transfer's formulas: the one place they are formed for the
    assembly and the point form, which charge len(j) times the terms a point.
    Yields chunks of about _CHUNK entries, a point a row: (r0, x+N, w, p, k, a,
    b), the masses w over x+N and places p of the singles and the last term,
    each adding w f_c + w (p - c) (f_{c+1} - f_c), c = min(floor(p), M-1), and
    the groups' cells k, masses a and offsets b, each a f_k + b (f_{k+1} - f_k).
    The layout, which reads no point (_point_layout), is held in apply_transfer's
    store by (N, M, i_max), read-only, where its 8 (4 E + T + I - N - 1) bytes,
    E ends and T thresholds, fit; else it is formed at every call."""
    n = params.n_param
    layout = nm, s, first, cut, top, low, terms = _layout(n, m, i_max, True)
    g, rows = first - n, max(1, _CHUNK // terms)
    size = 8 * (4 * (terms - g) + (top - low if top else 0) + g - 1)
    (c, cnt, mr, k, at), = _hold(("terms", n, m, i_max, _CHUNK), size,
                                 lambda: (_point_layout(n, m, layout),))
    for r0 in range(0, len(j), rows):
        jr = j[r0:r0 + rows]
        late = np.zeros((g + c.shape[0], jr.size))  # 1 where branch q still lands in cell t
        np.less_equal(jr, mr, out=late[g + 1:g + 1 + mr.shape[0]])
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
    charge(len(x) * _layout(params.n_param, m, i_max, True)[-1], "transfer operator")
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
    one, and costs no more terms than the exact one.  x is a 1-d array of
    points of [0, 1], the map's domain."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {x}")
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-d array, got {x.ndim}-d")
    if x.size and not 0.0 <= x.min() <= x.max() <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x[(x < 0.0) | (x > 1.0)]}")
    m = f.resolution if isinstance(f, GridFunction) else _CALLABLE_CELLS
    out = np.empty(x.shape[0])
    for r0, w, y in _branch_terms(params, x, m, i_max):
        out[r0:r0 + w.shape[0]] = np.sum(w * f(y.ravel()).reshape(y.shape), axis=1)
    return out


def _clenshaw(c: np.ndarray, i: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_k c[k, i] T_k(s), by Clenshaw's recurrence, column i of c at each s:
    b_k = c_k + 2 s b_k+1 - b_k+2, in three buffers, the columns gathered once."""
    c, s2 = c.take(i, axis=1), 2.0 * s
    b1, b2, t = np.zeros(s.shape), np.zeros(s.shape), np.empty(s.shape)
    for ck in c[:0:-1]:
        np.multiply(s2, b1, out=t)
        t += ck
        t -= b2
        b1, b2, t = t, b1, b2
    b1 *= s
    b1 += c[0]
    b1 -= b2
    return b1


def _suffix_sums(ev: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Column i of ev, in place, to the sum of its columns from i on, plus carry."""
    rev = ev[:, ::-1]
    np.cumsum(rev, axis=1, out=rev)
    ev += carry[:, None]
    return ev


def _rows(p: np.ndarray, w: np.ndarray, m: int):
    """Point terms of masses w at places M y = p as gathered rows: the cells
    c = min(floor(p), M-1), and the weights hi = (p - c) w on c + 1 and
    lo = w - hi on c, in place of w."""
    c = np.minimum(p, m - 1).astype(np.intp)
    hi = (p - c) * w
    w -= hi
    return c, w, hi


def _gathered(v: np.ndarray, c: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The sum along each row of the point terms (c, lo, hi): lo v[c] + hi v[c+1]."""
    return np.einsum("ij,ij->i", lo, v[c]) + np.einsum("ij,ij->i", hi, v[1:][c])


def _tables(n: int, m: int, layout):
    """apply_transfer's tables on (N, M, i_max), which read no f: two
    generators, of the group chunks and of the node blocks, which form them
    a chunk at a time.  A group chunk is (k, a, b): the cells k, the masses
    a and offsets b at the first sample, and the others' differences from
    it.  A node block is (down, s, scale, c, lo, hi, at, width, crossings):
    its nodes falling from j1 - 1, T_k's argument s, the scale of the sums,
    the last term's gathered rows, one column, the column of the suffix sums
    at each node, and the thresholds crossed in the block, a chunk
    (offset, t, a, b) at a time."""
    nm, sc, first, cut, top, low, _ = layout
    t, q, r, qb, ks = _thresholds(nm, first, cut, top, low)
    rt = (r * m // t + 1).astype(np.intp)
    x, per, jm = _nodes(m + 1), max(1, _CHUNK // _CHEB), sc * _CHEB_AT  # jm: the samples, scaled

    def groups():
        for g0 in range(0, qb.size - 1, per):
            qs, k = qb[g0:g0 + per + 1, None], ks[g0:g0 + per + 1, None]
            _, a, b = _groups(jm, m / (jm + sc * qs.astype(float)),
                              np.diff(qs, axis=0).astype(float), k,
                              sc * (nm - k * qs).astype(float), m, nm)
            a[:, 1:] -= a[:, :1]
            b[:, 1:] -= b[:, :1]
            yield ks[g0 + 1:g0 + per + 1].copy(), a, b

    def blocks():
        # from the last block: its crossings by rising r_t
        order = np.argsort(rt, kind="stable")
        at = rt[order]
        for j0, j1, j in _node_blocks(m):
            down = slice(j1 - 1, j0 - 1 if j0 else None, -1)
            # the last term, from I, i_max + 1 or threshold 1: one column of rows
            u = m / (sc * float(qb[-1]) + j * (sc / m) + sc * (top and not low and j < rt[-1]))
            last = _rows(_mean(u, _cubic_rest(u), nm * sc / m)[:, None], u[:, None] * (m / sc), m)
            e0, e1 = np.searchsorted(at, [j0, j1])
            crossings = []
            for s0 in range(e0, e1, per):
                sel = order[s0:min(e1, s0 + per)]
                ts, qs, rs = t[sel], q[sel], r[sel]
                # branch q to q+1: a group of one in cell t
                lo = jm[:, None] + sc * qs.astype(float)
                _, a, b = _groups(jm[:, None], m / np.stack((lo, lo + sc)), 1.0,
                                  np.stack((ts + 1, ts))[:, None],
                                  sc * np.stack((rs - qs, rs - ts))[:, None].astype(float), m, nm)
                crossings.append((s0 - e0, ts, a[0], b[0]))
            yield (down, x[down] * 2.0 - 1.0, (x[down] + n) * (sc / m) ** 2, *last,
                   np.searchsorted(at[e0:e1], j, side="right"), e1 - e0, tuple(crossings))

    return groups(), blocks()


def _node_blocks(m: int):
    """apply_transfer's node blocks, from the last, 4 (_CHUNK // _CHEB) nodes
    each: (j0, j1, j), the nodes j falling from j1 - 1 to j0."""
    block = 4 * max(1, _CHUNK // _CHEB)
    for j1 in range(m + 1, 0, -block):
        j0 = max(0, j1 - block)
        yield j0, j1, np.arange(j1 - 1.0, j0 - 1.0, -1.0)


def _singles(n: int, m: int, layout):
    """apply_transfer's single branches on (N, M, I), which read no f, nor
    i_max but through I: for each node block, their gathered rows, a column
    a branch from I - 1 down to N, each formed into a row of the transposes."""
    nm, sc, first = layout[:3]
    for _, _, j in _node_blocks(m):
        js, shape = j * (sc / m), (first - n, j.size)
        c, lo, hi = np.empty(shape, np.intp), np.empty(shape), np.empty(shape)
        u = m / (sc * float(first) + js)
        for r, i in enumerate(range(first - 1, n - 1, -1)):
            at = sc * float(i) + js
            u0 = m / at
            c[r], lo[r], hi[r] = _rows(_places(at, sc, nm), u0 * u, m)  # _masses of one branch
            u = u0
        yield c.T, lo.T, hi.T


def _freeze(tables) -> None:
    """Set every array of the nested tuples tables read-only."""
    for e in tables:
        if isinstance(e, np.ndarray):
            e.setflags(write=False)
        elif isinstance(e, tuple):
            _freeze(e)


# the tables that read no f, the least recently used first, (bytes, tables)
# each, read-only: apply_transfer's group sets by ("groups", N, M, i_max + 1,
# _CHUNK) and singles' by ("singles", N, M, I, _CHUNK), and _grid_terms'
# layouts by ("terms", N, M, i_max, _CHUNK); together at most _HELD_BYTES
_held = {}
_HELD_BYTES = 16 << 20
_held_lock = threading.Lock()


def _hold(key, size: int, make, beside=None):
    """The tables of key, from the store, or else make()'s, a tuple of
    iterables (generators, or a tuple of arrays).  Those are held, read-only,
    when their size bytes fit _HELD_BYTES beside the tables held for key
    beside, the least recently used dropped to make room, and else used as
    they come: so two tables of one call never drop each other."""
    with _held_lock:
        held = _held.pop(key, None)  # and back in last: the most recently used
        if held is not None:
            _held[key] = held
            return held[1]
        room = _HELD_BYTES - _held.get(beside, (0,))[0]
    if size > room:
        return make()
    tables = tuple(map(tuple, make()))
    _freeze(tables)
    with _held_lock:
        while _held and sum(e[0] for e in _held.values()) + size > _HELD_BYTES:
            del _held[next(iter(_held))]
        _held[key] = size, tables
    return tables


def _branch_sum(n: int, m: int, i_max: Optional[int]):
    """apply_transfer's _layout, series (the groups' and the crossings') and
    charge: the point terms and coefficients at every node, _CHEB a series."""
    layout = _layout(n, m, i_max, False)
    _, _, first, _, top, low, terms = layout
    series = terms - 1 - (first - n) + max(top - low, 0)
    return layout, series, (m + 1) * (first - n + 1 + _CHEB) + _CHEB * series


def apply_transfer(f: GridFunction, params: NcfParams, i_max: Optional[int] = None) -> GridFunction:
    """One application of the transfer operator at the nodes j/M of f: the
    terms of _grid_terms, by its formulas, with the groups formed once per
    (N, M, i_max).  The singles N..I-1, I = max(N+1, 20), and the last term
    are point terms at every node.  Branch i of node j sits at L = M i + j,
    threshold t at M q + j, or M later where j < r_t = M r // t + 1
    (_thresholds).  With every threshold at M q + j, the groups are analytic
    in j: one series in T_k(2j/M - 1), from _CHEB samples.  Where j < r_t
    the branch at M q + j lies in cell t, not t-1, which adds b (d_t -
    d_t-1), b its offset there: a series for each threshold.  Node j sums
    one series, the groups' plus the suffix sum of the thresholds' at r_t >
    j, a block of 4 (_CHUNK // _CHEB) nodes at a time.  Charges the point
    terms and coefficients at every node, and the samples, before any table
    is formed.

    Everything but the sums over f reads no f: _tables', by (N, M, i_max),
    the samples of the groups and crossings, the last term's rows and the
    series' columns; and _singles', by (N, M, I), which the i_max of one
    (N, M) share, the singles' gathered rows (c, lo, hi), 24 (I - N) bytes a
    node.  A call holds each, read-only, for the next call on its key, and
    keeps the most recently used within _HELD_BYTES, 16 MiB, in all; a table
    that does not fit, or not beside its call's group set, is not held, but
    formed and used a block at a time.  A held table gives the bits of a
    fresh one."""
    n, m, v, d = params.n_param, f.resolution, f.values, np.diff(f.values)
    layout, series, units = _branch_sum(n, m, i_max)
    first, cut = layout[2:4]
    charge(units, "transfer operator")
    # _tables' words: 6 a node, 21 a series; _singles' 3 a node a branch
    key = ("groups", n, m, cut, _CHUNK)
    groups, blocks = _hold(key, 8 * (6 * (m + 1) + 21 * series), lambda: _tables(n, m, layout))
    (singles,) = _hold(("singles", n, m, first, _CHUNK), 24 * (first - n) * (m + 1),
                       lambda: (_singles(n, m, layout),), key)

    # the groups, summed at the samples along rows: the first sample, and the
    # others' differences from it, whose rounding the series then scales down
    base = np.zeros(_CHEB)
    for k, a, b in groups:
        vk, dk = v[k], d[k]
        base[0] += vk @ a[:, 0] + dk @ b[:, 0]
        base[1:] += vk @ a[:, 1:] + dk @ b[:, 1:]
    coef = np.append(0.0, base[1:]) @ _CHEB_COEF.T
    coef[0] += base[0]
    # a block of nodes at a time, from the last: the terms, the least first,
    # and the suffix sums of its crossings on the later blocks'
    carry, out = coef, np.empty(m + 1)
    for (down, s, scale, *last, at, width, crossings), rows in zip(blocks, singles):
        acc = _gathered(v, *last)
        ev = np.zeros((_CHEB, width + 1))
        for e0, ts, a, b in crossings:
            leaves = ts == 1  # the branch leaves the last term: it adds a v_1 + b d_1
            np.matmul(_CHEB_COEF, np.where(leaves, v[1], 0.0) * a
                      + np.where(leaves, d[ts], d[ts] - d[ts - 1]) * b, out=ev[:, e0:e0 + ts.size])
        acc += _clenshaw(_suffix_sums(ev, carry), at, s)
        carry = ev[:, 0]
        acc += _gathered(v, *rows)  # the singles
        np.multiply(acc, scale, out=out[down])
    return GridFunction(out)


def _assemble(params: NcfParams, m: int):
    """The operator on grids of m cells, from one pass of _grid_terms: (dense,
    cols, weights).  The s singles i = N..max(N+1, I // 3) - 1, which land
    highest, stay gathered: row j puts weights[j] on the columns cols[j], the
    cells c of those singles and then c + 1, against their lo and then hi,
    three words a single as (c, lo, hi) took, the cells being int32 (a grid
    of 2^31 cells has no dense part that fits in memory); _step sums repeated
    columns.  dense, (m+1) x W, takes the groups of the cells K..1, K = NM //
    I, by shifted slices, b clipped to [0, a] against rounding, and the other
    point terms on their two columns each.  Folding the single i adds about
    NM / i^2 columns and drops its three words a row: from I/3 on, about the
    2I columns whose bytes its 2I/3 singles held, and a step reads each three
    words as 3 columns of one BLAS product."""
    op, n = None, params.n_param
    for r0, xn, w, p, _, a, b in _grid_terms(params, np.arange(m + 1.0), m, None):
        c, w, h = _rows(p, xn[:, None] * w, m)  # w on each cell, h on the next
        k, g = a.shape[1], c.shape[1] - 1  # the groups K..1, the singles N..I-1
        s = min(g, max(1, (n + g) // 3 - n))  # the singles kept gathered
        if op is None:  # after the charge: dense, cols, weights; row 0 lands highest
            rows = (m + 1, 2 * s)
            op = np.zeros((m + 1, max(k, c[0, s]) + 2)), np.empty(rows, np.int32), np.empty(rows)
        dense, cols, weights = (t[r0:r0 + xn.size] for t in op)
        cols[:, :s], cols[:, s:] = c[:, :s], c[:, :s] + 1
        weights[:, :s], weights[:, s:] = w[:, :s], h[:, :s]
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
    """One operator application to the node values v, by the operator op: one
    BLAS product by dense, and one gather of v at cols, summed along each row
    against weights."""
    dense, cols, weights = op
    out = dense @ v[:dense.shape[1]]
    out += np.einsum("ij,ij->i", weights, v.take(cols))
    return out


@functools.lru_cache(maxsize=1)
def _operator(n: int, m: int):
    """The operator of N = n on grids of m cells (_assemble), read-only: the
    one held, for the next run on that grid.  The one held before is dropped
    before the build, so no two are ever held."""
    _operator.cache_clear()
    op = _assemble(NcfParams(n), m)
    _freeze(op)
    return op


def iterates(f: GridFunction, params: NcfParams, n: int):
    """Yield the node values of U f, U^2 f, ..., U^n f, each read-only, as the
    next step reads it: every multi-step use of the operator.  A run whose
    build and n steps are charged more than n branch sums takes those
    (apply_transfer), and else n matrix-vector products by the operator of
    f's grid (_operator).  The form is chosen by (N, M, n) alone, never by
    what is held; runs in one form agree step for step to the bit, and the
    two forms differ at rounding.  An operator run charges its steps and the
    build before the lookup, built or held alike; a 0-step run, costing more
    than no branch sums, builds and charges nothing."""
    m, n_param = f.resolution, params.n_param
    build = (m + 1) * _layout(n_param, m, None, True)[-1]
    if build + n * (m + 1) > n * _branch_sum(n_param, m, None)[-1]:
        for _ in range(n):
            f = apply_transfer(f, params)
            f.values.setflags(write=False)
            yield f.values
        return
    charge(n * (m + 1), "operator steps")  # one unit a node a product
    charge(build, "transfer operator")
    op, v = _operator(n_param, m), f.values
    for _ in range(n):
        v = _step(op, v)
        v.setflags(write=False)
        yield v


# the spectral operator: collocation at the _K + 1 Chebyshev-Lobatto points
# (1 - cos(pi j/K))/2 of [0, 1], in closed form up to N = _SPECTRAL_N: its
# 19 N + 20 direct branches grow with N, to a 35 ms build at N = 1000, and
# past it the grid serves
_K, _SPECTRAL_N = 24, 1000
_LOBATTO = np.sin(np.arange(_K + 1) * (np.pi / (2 * _K))) ** 2
# their barycentric weights, and the cosine matrix from the samples there to
# the interpolant's Chebyshev coefficients in s = 2x - 1, _LOBATTO lying at
# s = -cos(pi j/K): each halved at the ends
_BARYCENTRIC = (-1.0) ** np.arange(_K + 1)
_CHEB_LOBATTO = np.cos(np.pi / _K * np.outer(np.arange(_K + 1), np.arange(_K + 1))) * (
    2.0 / _K * _BARYCENTRIC[:, None])
_BARYCENTRIC[[0, -1]] /= 2
_CHEB_LOBATTO[[0, -1]] /= 2
_CHEB_LOBATTO[:, [0, -1]] /= 2
_freeze((_LOBATTO, _BARYCENTRIC, _CHEB_LOBATTO))


def _lagrange(y: np.ndarray) -> np.ndarray:
    """The Lagrange basis on _LOBATTO at the points y, a row L_c(y), c = 0..K,
    for each: the barycentric form, and a unit row on an exact node."""
    d = y[..., None] - _LOBATTO
    hit = d == 0.0
    d[hit] = 1.0
    q = np.divide(_BARYCENTRIC, d, out=d)
    on = hit.any(axis=-1)
    q[on] = hit[on]
    q /= q.sum(axis=-1, keepdims=True)
    return q


@functools.lru_cache(maxsize=1)
def _monomials() -> np.ndarray:
    """C[m, c], the coefficient of w^m in L_c(w): the products of the factors
    (w - x_j), j != c, by np.convolve, over their value at x_c.  The nodes are
    nonnegative, so the coefficients, elementary symmetric functions of them,
    are formed without cancellation (an inverse Vandermonde matrix is not)."""
    out = np.empty((_K + 1, _K + 1))
    for c, xc in enumerate(_LOBATTO):
        p = functools.reduce(np.convolve, ([1.0, -x] for j, x in enumerate(_LOBATTO) if j != c))
        out[:, c] = p[::-1] / math.prod(xc - x for j, x in enumerate(_LOBATTO) if j != c)
    out.setflags(write=False)
    return out


def _zeta_scaled(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """a^s zeta(s, a), the Hurwitz zeta function, at each a down the rows and
    each s along the columns: a/(s-1) + 1/2 + sum_k B_2k (s)_2k-1 a^1-2k / (2k)!,
    Euler-Maclaurin with the Bernoulli numbers of _CUBIC.  At a >= 40, where
    _spectral takes it, the first term left out, below 1.4e-11 (s)_13 / 40^13,
    lies below the rounding of _spectral's sums, which scale s by 20^2-s."""
    out = a[:, None] / (s - 1.0) + 0.5
    c, u, v = s / 2.0, 1.0 / a[:, None], 1.0 / (a * a)[:, None]
    for k, b in enumerate(_CUBIC, 1):
        out += b * c * u
        c = c * (s + 2 * k - 1) * (s + 2 * k) / ((2 * k + 1) * (2 * k + 2))
        u = u * v
    return out


@functools.lru_cache(maxsize=16)
def _spectral(n: int) -> np.ndarray:
    """The transfer operator of N = n as the (K+1) x (K+1) collocation matrix
    at _LOBATTO, read-only: row r holds sum_i P_i(x_r) L_c(N/(x_r+i)), with
    P_i(x) = (x+N)/((x+i)(x+i+1)).  The branches N..I0-1, I0 = 20(N+1), are
    summed at the nodes; the rest, at w = N/(x+i) <= 1/20, through the
    monomials of L_c: (x+N) sum_m C[m, c] N^m S_m(x), S_m = sum_{i >= I0}
    1/((x+i)^(m+1) (x+i+1)) = sum_j (-1)^j zeta(m+2+j, x+I0), 12 terms in j,
    each below the last by (x+I0)^-1 <= 1/40."""
    # the direct branches, per at a time: about 4 _CHUNK (row, branch, column) entries
    x, i0, per = _LOBATTO, 20 * (n + 1), max(1, 4 * _CHUNK // (_K + 1) ** 2)
    out = np.zeros((_K + 1, _K + 1))
    for b0 in range(n, i0, per):
        z = x[:, None] + np.arange(b0, min(b0 + per, i0), dtype=float)
        out += np.einsum("ri,ric->rc", (x + n)[:, None] / (z * (z + 1.0)), _lagrange(n / z))
    a, terms = x + i0, 12
    zeta = _zeta_scaled(np.arange(2.0, _K + terms + 2), a)  # s = 2 .. K + terms + 1
    s = np.einsum("rmj,rj->rm", zeta[:, np.arange(_K + 1)[:, None] + np.arange(terms)],
                  (-1.0 / a)[:, None] ** np.arange(terms))  # (x+I0)^m+2 S_m
    s *= (n / a)[:, None] ** np.arange(_K + 1) / (a * a)[:, None]  # N^m S_m
    out += (x + n)[:, None] * (s @ _monomials())
    out.setflags(write=False)
    return out


def _branch_mass(n: int, z: np.ndarray) -> np.ndarray:
    """P_i(x) = (x+N)/((x+i)(x+i+1)) at z = x + i, x = _LOBATTO along z's first
    axis, in the form that does not overflow past 2^511, as make_ncf_rscc takes it."""
    xn = (_LOBATTO + n).reshape((-1,) + (1,) * (z.ndim - 1))
    return xn / (z * (z + 1.0)) if z.max() < 2.0 ** 511 else xn / z / (z + 1.0)


def _spectral_rows(n: int, i) -> np.ndarray:
    """_spectral(n)'s rows branch by branch: B_i[r, c] = P_i(x_r) L_c(N/(x_r+i)) at
    x = _LOBATTO, for each branch i of the 1-d i, an array (branch, r, c)."""
    z = _LOBATTO[:, None] + np.asarray(i, dtype=float)
    return (_branch_mass(n, z)[..., None] * _lagrange(n / z)).transpose(1, 0, 2)


@functools.lru_cache(maxsize=4)
def _spectral_blocks(n: int):
    """The operator of N = n as _spectral_tail builds it from N, and the
    branches that build sums directly, i = N..N+127, each as its prefix sum
    C_i = sum_{j=N}^{i} B_j stacked on -B_i (_spectral_rows), so that one
    product by block i - N gives C_i g and -B_i g: (S, blocks), read-only,
    the blocks (branch, 2K+2, K+1), 1.28 MB; four N are held.  S's rows sum
    to 1 within rounding, where _spectral(N)'s zeta tail leaves up to 4.7e-15."""
    b = _spectral_rows(n, np.arange(n, n + 128))
    c = np.cumsum(b, axis=0)
    out = c[-1] + _spectral_tail(n, n + 128), np.concatenate((c, -b), axis=1)
    _freeze(out)
    return out


@functools.lru_cache(maxsize=1)
def _gregory() -> np.ndarray:
    """Gregory's end correction sum_k G_k D^k h(I), k = 0..10, as weights on
    h(I), ..., h(I+10): D^k h(I) = sum_j (-1)^(k-j) C(k, j) h(I+j)."""
    g = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192,
         -33953 / 3628800, 8183 / 1036800, -3250433 / 479001600, 4671 / 788480)
    return np.array([math.fsum(c * (-1) ** (k - j) * math.comb(k, j) for k, c in enumerate(g[j:], j))
                     for j in range(len(g))])


def _spectral_tail(n: int, start: int) -> np.ndarray:
    """T(I) = sum_{i >= I} B_i (_spectral_rows), I = start >= N, a (K+1) x
    (K+1) matrix: the branches below N + 128 directly, and the rest from I0 =
    max(I, N + 128) by Gregory's end correction, sum_{i >= I0} h(i) =
    int_I0^inf h + sum_k G_k D^k h(I0), the differences D^k h(I0), k <= 10,
    taken as one weighted sum of h(I0..I0+10)
    (Hildebrand, Introduction to Numerical Analysis, 2nd ed., 1974, sec. 5.9).
    With u = N/(x+t) the integral of branch t is int_0^{N/(x+I0)} (x+N)/(N+u)
    h(u) du, h = L_c, whose integrand is analytic: measure's 20-point
    Gauss-Legendre rule.  T(N) is _spectral(N) to rounding; from N + 128 on
    no branch is summed directly, and past 2^53 the branches are taken in
    floats."""
    weights = _gregory()
    x, i0 = _LOBATTO[:, None], max(start, n + 128)
    z = x + (float(i0) + np.arange(weights.size, dtype=float))
    ui = n / (x + float(i0))
    u = ui * _GL_NODES
    w = np.concatenate((_branch_mass(n, z) * weights, _GL_WEIGHTS * ui * (x + n) / (n + u)), axis=1)
    y = np.concatenate((n / z, u), axis=1)
    out = np.einsum("rq,rqc->rc", w, _lagrange(y))
    if start < i0:
        out += _spectral_rows(n, np.arange(start, i0)).sum(axis=0)
    return out


def _lambda2(n: int) -> Optional[float]:
    """The eigenvalue of _spectral(n) second in modulus, the operator's
    lambda_2 (at N = 1 minus Wirsing's constant, 0.3036630028987...), or None
    past _SPECTRAL_N."""
    if n > _SPECTRAL_N:
        return None
    return float(sorted(np.linalg.eigvals(_spectral(n)), key=abs)[-2].real)


def _integral_rows(x) -> np.ndarray:
    """The integrals int_0^x L_c, c = 0..K, at each point x of [0, 1], a row
    each: exact for the interpolant, by its Chebyshev coefficients, whose
    T_k integrate to (T_k+1/(k+1) - T_k-1/(k-1))/2."""
    t = np.cos(np.multiply.outer(np.arccos(2.0 * np.asarray(x, dtype=float) - 1.0),
                                 np.arange(_K + 2.0)))
    t -= (-1.0) ** np.arange(_K + 2)  # from s = -1, where T_k = (-1)^k
    k = np.arange(2.0, _K + 1)
    q = np.concatenate((t[..., 1:2], t[..., 2:3] / 4,
                        t[..., 3:] / (2 * k + 2) - t[..., 1:-2] / (2 * k - 2)), axis=-1)
    return q @ (_CHEB_LOBATTO / 2)  # dx = ds/2


@functools.lru_cache(maxsize=2)
def _grid_integrals(m: int) -> np.ndarray:
    """_integral_rows at the m + 1 points j/m, read-only."""
    out = _integral_rows(_nodes(m + 1))
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=2)
def _grid_lagrange(m: int) -> np.ndarray:
    """The Lagrange basis at the m + 1 points j/m, a column each, read-only."""
    out = _lagrange(_nodes(m + 1))
    out.setflags(write=False)
    return out.T


# the interpolant at _LOBATTO resolves f where its last _TAIL Chebyshev
# coefficients, and its misses at the points j/m, lie within max(_RESOLVED,
# 1/m^2) of its largest coefficient or 1: it is as near to f as a grid of m cells
_TAIL, _RESOLVED = 4, 64 * np.finfo(float).eps


def _resolves(g: np.ndarray, v: np.ndarray) -> bool:
    """Whether the interpolant of the samples g at _LOBATTO resolves the
    function whose samples at the m + 1 points j/m are v.  The points catch a
    box or a narrow bump between the nodes, which a test at the nodes alone
    misses."""
    c, s, p, q = _CHEB_LOBATTO @ g, 2.0 * np.linspace(0.0, 1.0, v.size) - 1.0, 0.0, 0.0
    for ck in c[:0:-1]:  # Clenshaw's recurrence: the interpolant at x is c[0] + s p - q
        p, q = ck + 2.0 * s * p - q, p
    miss = np.abs(np.append(c[-_TAIL:], c[0] + s * p - q - v)).max()
    return miss <= max(_RESOLVED, (v.size - 1) ** -2.0) * max(np.abs(c).max(), 1.0)


def _spectral_iterates(f: np.ndarray, params: NcfParams, n: int, m: int) -> np.ndarray:
    """f, U f, ..., U^n f at _LOBATTO, rows of one array, from the samples f
    there, by _spectral(N), for a caller that reads each at the m + 1 points
    j/m by a row of 25 weights a point (_grid_integrals(m), or the Lagrange
    basis there), the caller having charged them as the grid's samples.
    Charges the n products by the matrix and by those rows, then the build,
    on every run, as if built, as iterates does."""
    n_param = params.n_param
    charge(n * (_K + 1) * (_K + m + 2), "operator steps")
    charge((_K + 1) ** 2 * (19 * n_param + 20 + _K + 1), "transfer operator")
    a, out = _spectral(n_param), np.empty((n + 1, _K + 1))
    out[0] = f
    for k in range(n):
        f = out[k + 1] = a @ f
    return out


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


def fit_rate(errors: np.ndarray):
    """The geometric rate of errors ~ k q^n, n = 1, 2, ...: a least-squares
    line through log(errors) over the window n = 1..size, which ends at the
    noise floor, or where the per-step ratio degrades markedly against the
    median ratio of the leading points, as discretization or rounding error
    takes over.  Returns (q, k, (1, size), residuals).  Raises FitError when
    an error is NaN or infinite, or the window has fewer than 3 points."""
    bad = np.flatnonzero(~np.isfinite(errors))
    if bad.size:
        raise FitError(f"the error at n = {bad[0] + 1} is {errors[bad[0]]}; "
                       "cannot fit a geometric rate")
    floor, size, ratios = 100 * np.finfo(float).eps, 0, []
    for e in errors:
        r = e / errors[size - 1] if size else 0.0
        s = sorted(ratios[:5])  # their median, np.median's bits, and numpy.ma stays unloaded
        slower = len(s) >= 3 and r > min(0.95, 1.5 * ((s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2))
        if e <= floor or r > 0.99 or slower:  # r > 0.99: no usable decay left
            break
        ratios += [r] if size else []
        size += 1
    if size < 3:
        raise FitError(f"only {size} admissible points before the error floor; "
                       "cannot fit a geometric rate")
    ns = np.arange(1.0, size + 1.0)
    logs = np.log(errors[:size])
    slope, intercept = np.polyfit(ns, logs, 1)
    return math.exp(slope), math.exp(intercept), (1, size), logs - (slope * ns + intercept)


# iterates a block holds, a row each, where their norms or errors are taken
# together: error_curves and gausskuzmin.run_experiment
_BLOCK = 16


def error_curves(f: GridFunction, params: NcfParams, n_max: int):
    """c_f and the sup and Lipschitz distances of U f, ..., U^n_max f from it,
    as lipschitz_norm takes them at the m + 1 nodes j/m of f: c_f is the
    integral of f against the invariant measure, the constant to which the
    operator iterates of any Lipschitz f collapse.  Where N <= _SPECTRAL_N and
    the interpolant of f at _LOBATTO resolves it (_resolves), c_f is the
    interpolant's integral, to rounding, and the iterates are the spectral
    iterates of its difference from c_f, read at the nodes by the Lagrange
    rows held for m (_grid_lagrange); otherwise c_f is
    integrate_against's and the iterates are the grid's.  The norms are taken
    over blocks of _BLOCK iterates at a time."""
    gm, m, blocks = GaussMeasure(params), f.resolution, None
    if params.n_param <= _SPECTRAL_N:
        # four panels of the rule take each L_c rho_N to rounding (one is 2.5e-14
        # off at N = 1); the rows are summed by NumPy, in one order on every machine
        g = f(_LOBATTO)
        c_f = _gauss_legendre(lambda x: (_lagrange(x) * g).sum(axis=1) * gm.density(x),
                              0.0, 1.0, panels=4)
        g -= c_f
        if _resolves(g, f.values - c_f):
            steps = _spectral_iterates(g, params, n_max, m)[1:]  # charged before the rows are read
            rows = _grid_lagrange(m)
            blocks = (steps[k:k + _BLOCK] @ rows for k in range(0, n_max, _BLOCK))
    if blocks is None:
        c_f, steps = integrate_against(f, gm), iterates(f, params, n_max)
        blocks = (np.array(list(itertools.islice(steps, _BLOCK))) - c_f
                  for _ in range(0, n_max, _BLOCK))
    sups, slopes = [], []
    for e in blocks:
        sups.append(np.max(np.abs(e), axis=1))
        slopes.append(np.max(np.abs(np.diff(e, axis=1)), axis=1) * m)
    sup = np.concatenate(sups)
    return c_f, sup, sup + np.concatenate(slopes)


def estimate_gap(f: GridFunction, params: NcfParams, n_max: int) -> GapEstimate:
    """Fit the geometric decay rate on the log scale: the sup-norm distance
    ||U^n f - c_f|| of the iterates from c_f, error_curves' at the nodes of
    f, on its route, decays like k q^n."""
    n_max = count(n_max, "n_max", 5)
    if np.ptp(f.values) == 0.0:
        raise ValueError("gap estimation needs a non-constant function")
    _, sup_errors, lip_errors = error_curves(f, params, n_max)
    q, k, window, residuals = fit_rate(sup_errors)
    return GapEstimate(q_hat=q, k_hat=k, residuals=residuals, n_window=window,
                       sup_errors=sup_errors, lip_errors=lip_errors)
