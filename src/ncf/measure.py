"""The invariant measure of the N-continued-fraction map.

Density 1/((x+N) log((N+1)/N)) on [0,1]: closed-form CDF and inverse-CDF
sampling.  The mass of [a, b] is gn_cdf(b) - gn_cdf(a); the induced law of
the first digit is `core.digit_probability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import GL_NODES, GL_WEIGHTS, NcfParams, log_norm

_GL_NODES, _GL_WEIGHTS = np.array(GL_NODES), np.array(GL_WEIGHTS)  # the rule on [0, 1]
# equal panels of the mass check: the piecewise-linear densities built from
# grids have a kink at every node, which one panel would not resolve
_MASS_PANELS = 64


def _gauss_legendre(f, a: float, b: float, panels: int = 1) -> float:
    """Integral of f over [a, b]: the 20-point Gauss-Legendre rule on
    `panels` equal panels.

    f is called once, on the array of all nodes.  An integrand analytic on
    [a, b], with no pole near it, is integrated to rounding.
    """
    h = (b - a) / panels
    x = a + h * (np.arange(panels)[:, None] + _GL_NODES)  # (panel, node)
    return float(np.sum(h * _GL_WEIGHTS * f(x.ravel()).reshape(x.shape)))


@dataclass(frozen=True)
class GaussMeasure:
    params: NcfParams
    log_norm: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "log_norm", log_norm(self.params))

    @property
    def n(self) -> int:
        return self.params.n_param

    def density(self, x):
        """dG/dx = 1/((x+N) log((N+1)/N)); strictly decreasing on [0,1]."""
        return 1.0 / ((np.asarray(x, dtype=float) + self.n) * self.log_norm)


@dataclass(frozen=True)
class DensityFunction:
    """A probability density on [0,1], checked to integrate to 1 at construction.

    The evaluator is called on arrays of points; one that returns a scalar,
    such as lambda x: 1.0, is broadcast to their shape.
    """

    evaluator: Callable
    mass_tol: float = 1e-9

    def __post_init__(self):
        total = _gauss_legendre(self, 0.0, 1.0, panels=_MASS_PANELS)
        if abs(total - 1.0) > self.mass_tol:
            raise ValueError(f"density integrates to {total!r}, not 1")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape) + self.evaluator(x)


def gn_cdf(x, gm: GaussMeasure):
    """log((x+N)/N) / log((N+1)/N), clamped to [0, 1]; 0 at x=0, 1 at x=1."""
    xa = np.asarray(x, dtype=float)
    if not np.all((xa >= 0) & (xa <= 1)):  # NaN too
        raise ValueError("gn_cdf argument outside [0, 1]")
    out = np.clip(np.log1p(xa / gm.n) / gm.log_norm, 0.0, 1.0)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def _quantile(u, gm: GaussMeasure):
    """gn_quantile at u known to lie in [0, 1], unchecked."""
    ua = np.asarray(u, dtype=float)
    out = gm.n * np.exp(ua * gm.log_norm) - gm.n
    return float(out) if np.isscalar(u) or ua.ndim == 0 else out


def gn_quantile(u, gm: GaussMeasure):
    """Exact inverse of gn_cdf: N ((N+1)/N)^u - N."""
    ua = np.asarray(u, dtype=float)
    if not np.all((ua >= 0) & (ua <= 1)):  # NaN too
        raise ValueError("gn_quantile argument outside [0, 1]")
    return _quantile(u, gm)


def gn_sample(gm: GaussMeasure, rng: np.random.Generator, size=None):
    """Inverse-CDF samples from an explicit seeded generator, whose draws lie
    in [0, 1) and so skip gn_quantile's check."""
    return _quantile(rng.random(size), gm)
