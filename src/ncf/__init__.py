"""N-continued fractions: maps, invariant measure, transfer operator,
random systems with complete connections, and Gauss-Kuzmin experiments."""

from .core import (
    NcfParams,
    DigitSequence,
    gauss_map,
    gauss_map_rational,
    digits,
    evaluate,
    convergents,
    fixed_point,
)
from .measure import (
    GaussMeasure,
    DensityFunction,
    gn_cdf,
    gn_measure,
    gn_quantile,
    gn_sample,
    digit_law,
)
from .transfer import (
    GridFunction,
    LipschitzNormEstimate,
    GapEstimate,
    apply_transfer,
    lipschitz_norm,
    cesaro_operator,
    estimate_gap,
    integrate_against,
)
from .rscc import (
    RsccSystem,
    TailSet,
    MealySystem,
    ContractionReport,
    RegularityReport,
    Estimate,
    make_ncf_rscc,
    make_mealy_rscc,
    path_probability,
    act,
    event_set_probability,
    simulate_paths,
    q_kernel_interval,
    q_kernel_interval_bruteforce,
    q_kernel,
    q_step,
    q_step_mc,
    q_cesaro,
    kernel_matrix,
    contraction_coefficients,
    regularity_witness,
    shifted_path_probability,
    limit_path_law,
    mealy_dot_export,
)
from .gausskuzmin import (
    InitialMeasure,
    GkReport,
    lebesgue_measure,
    gauss_initial,
    tilted_measure,
    limit_cdf,
    pushforward_density,
    distribution_at,
    run_experiment,
)
from .errors import BudgetExceededError, FitError

__version__ = "0.1.0"
