"""N-continued fractions: maps, invariant measure, transfer operator,
random systems with complete connections, and Gauss-Kuzmin experiments.

`core` and `errors` are pure Python and load with the package.  The four
NumPy layers load together on the first access to one of their names or to
the layer itself (PEP 562), so `ncf expand`, `eval`, `digit-law`,
`invariance`, `regularity` and `rscc-mealy` never import NumPy.
"""

from .core import (NcfParams, DigitSequence, gauss_map, gauss_map_rational, digits,
                   evaluate, convergents, fixed_point)
from .errors import BudgetExceededError, FitError

__version__ = "0.1.0"

_LAYERS = {
    "measure": ("GaussMeasure", "DensityFunction", "gn_cdf", "gn_quantile"),
    "transfer": ("GridFunction", "apply_transfer", "lipschitz_norm", "estimate_gap",
                 "integrate_against"),
    "rscc": ("RsccSystem", "make_ncf_rscc", "make_mealy_rscc", "path_probability",
             "simulate_paths", "q_kernel_interval", "q_kernel", "q_step",
             "q_step_mc", "q_cesaro", "kernel_matrix", "contraction_coefficients",
             "limit_path_law"),
    "gausskuzmin": ("lebesgue_measure", "gauss_initial", "tilted_measure", "distribution_at",
                    "run_experiment"),
}
# public name -> the NumPy layer that defines it
_LAZY = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = ["NcfParams", "DigitSequence", "gauss_map", "gauss_map_rational", "digits",
           "evaluate", "convergents", "fixed_point", *_LAZY, "BudgetExceededError", "FitError"]


def __getattr__(name):
    # Every layer loads on the first miss, not only the one asked for: a
    # caller that touches one layer finds the other three in sys.modules too.
    # (`from . import transfer` here would call this function again.)
    if name not in _LAZY and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    layers = {layer: importlib.import_module(f".{layer}", __name__) for layer in _LAYERS}
    globals().update((public, getattr(layers[layer], public))
                     for public, layer in _LAZY.items())
    return layers[name] if name in _LAYERS else globals()[name]


def __dir__():
    return sorted({*globals(), *__all__, *_LAYERS})
