"""Semi-parametric mean shrinkage for diagonal exponential families with
quadratic variance functions.

The library fits two classes of shrinkage estimators for n-by-p mean
matrices, by minimizing unbiased estimates of their risk over weights
that are box-bounded and monotone against the within-group sample sizes,
and ships a Monte Carlo harness that checks unbiasedness, risk-estimate-
to-loss closeness, and dominance empirically.
"""

from .families import (
    DataMatrix,
    Design,
    FamilyKind,
    FamilySpec,
    default_tau,
    make_family,
    sample_matrix,
    validate_mean_matrix,
    variance_function,
)
from .risk import aure, squared_error_loss, ure
from .optimize import (
    FitResult,
    RowOrder,
    isotonic_box_projection,
    minimize_aure,
    minimize_ure,
    sample_feasible_weights,
)
from .estimators import (
    EstimateMatrix,
    competitor,
    fit,
    minimize_true_loss,
    shrink_to_grand_mean,
    shrink_to_location,
)
from .harness import (
    AggregateRecord,
    ExperimentConfig,
    RateFit,
    ReplicationRecord,
    aggregate_records,
    estimate_sup_gap,
    estimate_sup_gap_grand_mean,
    fit_rate,
    read_records_csv,
    run_experiment,
    write_records_csv,
)

__version__ = "0.1.0"
