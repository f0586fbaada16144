"""The shrinkage estimator classes and the benchmark competitors.

Every estimator here is an entrywise convex combination
``theta_hat_ij = (1 - b_i) * Y_ij + b_i * target_j`` for some feasible
weights and target, so each entry lies between the observation and the
target.  Competitors instantiate fixed members of the feasible class for
dominance experiments; the loss-oracle competitor additionally needs the
true means and exists purely for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .families import DataMatrix
from .optimize import (
    FitResult,
    _MAX_ITER,
    _check_max_iter,
    _descend,
    check_feasible_location,
    check_feasible_weights,
    minimize_aure,
    minimize_ure,
)
from .risk import _loss_rows

__all__ = [
    "EstimateMatrix",
    "shrink_to_location",
    "shrink_to_grand_mean",
    "fit",
    "competitor",
    "minimize_true_loss",
]

COMPETITOR_KINDS = ("no_shrinkage", "half_to_zero", "oracle_loss")
FIT_MODES = ("location", "grand_mean")


@dataclass(frozen=True)
class EstimateMatrix:
    """The estimate ``(1 - b_i) Y_ij + b_i mu_j`` of ``data``, held as the
    weights ``b`` and target ``mu`` that produce it.

    The n-by-p matrix ``theta_hat`` is computed on first use and kept, as
    :class:`~nefshrink.families.DataMatrix` keeps its derived quantities, so
    a consumer that needs only ``(b, mu)`` never builds it.
    """

    data: DataMatrix
    b: np.ndarray
    mu: np.ndarray

    @cached_property
    def theta_hat(self) -> np.ndarray:
        """The shrunk n-by-p mean matrix."""
        return (1.0 - self.b)[:, None] * self.data.y + self.b[:, None] * self.mu


def shrink_to_location(data: DataMatrix, b, mu) -> EstimateMatrix:
    """Shrink each row toward ``mu``; ``(b, mu)`` must be feasible."""
    b = check_feasible_weights(b, data.order)
    return EstimateMatrix(data, b, check_feasible_location(mu, data))


def shrink_to_grand_mean(data: DataMatrix, b) -> EstimateMatrix:
    """Shrink each row toward the column means."""
    return EstimateMatrix(data, check_feasible_weights(b, data.order), data.column_means)


def fit(
    data: DataMatrix,
    mode: str = "location",
    max_iter: int = _MAX_ITER,
) -> tuple[FitResult, EstimateMatrix]:
    """Minimize the risk estimate of the requested class and return the
    fitted estimate with it.

    In location mode with several tie groups each descent start takes at
    most ``max_iter`` outer iterations
    (:func:`~nefshrink.optimize.minimize_ure`).  Location mode with one tie
    group is solved in closed form, and grand-mean mode is one exact
    projection; both report iteration 1 and have no descent to cap, but
    ``max_iter`` must still be at least 1.
    In grand-mean mode the target ``result.mu`` is ``data.column_means``, the
    computed column mean, with no box on it: for a constant column it can
    read one ulp outside ``data.data_range``.
    """
    if mode == "location":
        result = minimize_ure(data, max_iter)
        estimate = shrink_to_location(data, result.b, result.mu)
    elif mode == "grand_mean":
        _check_max_iter(max_iter)
        result = minimize_aure(data)
        estimate = shrink_to_grand_mean(data, result.b)
    else:
        raise ValueError(f"unknown fit mode {mode!r}; expected one of {FIT_MODES}")
    return result, estimate


def competitor(data: DataMatrix, kind: str, theta=None, loss_rows=None) -> EstimateMatrix:
    """Fixed members of the location class used in dominance experiments.

    ``no_shrinkage`` returns the observations (b = 0); ``half_to_zero``
    pulls halfway toward the zero vector (always inside the data box);
    ``oracle_loss`` picks feasible weights and target minimizing the true
    loss and therefore requires ``theta`` (evaluation only, not deployable),
    with ``loss_rows`` as :func:`minimize_true_loss` takes them.
    """
    if kind in ("no_shrinkage", "half_to_zero"):
        b = np.full(data.n, 0.0 if kind == "no_shrinkage" else 0.5)
        mu = np.zeros(data.p)
    elif kind == "oracle_loss":
        if theta is None:
            raise ValueError("the loss oracle competitor requires the true means")
        result = minimize_true_loss(data, theta, loss_rows=loss_rows)
        b, mu = result.b, result.mu
    else:
        raise ValueError(f"unknown competitor {kind!r}; expected one of {COMPETITOR_KINDS}")
    return EstimateMatrix(data, b, mu)


def minimize_true_loss(data: DataMatrix, theta, loss_rows=None) -> FitResult:
    """Feasible ``(b, mu)`` minimizing the realized loss against known means.

    With ``d_i = y_i - theta_i`` the loss is the row quadratic
    ``sum_i [||d_i||^2 - 2 b_i d_i . (y_i - mu) + b_i^2 ||y_i - mu||^2] / np``
    (:func:`~nefshrink.risk._loss_rows`), minimized by the risk-estimate
    fit's descent (:func:`~nefshrink.optimize._descend`) from full shrinkage
    toward the clipped grand mean, in at most ``_MAX_ITER`` outer
    iterations.  Only when that start ends at all-zero weights, a saddle
    where the target step cannot move ``mu``, does it descend once more,
    from half shrinkage toward the zero target (inside every data box), a
    start of :func:`~nefshrink.optimize.minimize_ure`: its first weight
    step is the best at that target, so the oracle then ends no higher than
    ``half_to_zero``.  The better of the two results is kept, the
    grand-mean one on ties.  Benchmark-side only.

    ``loss_rows``, when given, must be ``risk._loss_rows(data, theta)``, the
    loss rows the caller has already taken: they are used as they are, and
    ``theta`` is not read again.
    """
    rows = _loss_rows(data, theta) if loss_rows is None else loss_rows
    mu0 = np.clip(data.column_means, -data.data_range, data.data_range)
    result = _descend(data, *rows, _MAX_ITER, np.ones(data.n), mu0)
    if not result.b.any():
        restart = _descend(data, *rows, _MAX_ITER, np.full(data.n, 0.5), np.zeros(data.p))
        result = min(result, restart, key=lambda fit: fit.objective)
    return result
