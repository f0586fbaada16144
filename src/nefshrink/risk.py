"""Squared-error loss and the unbiased risk estimates.

For shrinkage weights ``b`` (one per row) and a target vector ``mu`` (one
per column), the location-shrinkage estimator is
``theta_hat_ij = (1 - b_i) * Y_ij + b_i * mu_j``.  Its realized loss is the
average squared deviation from the true means; :func:`ure` computes a
statistic whose expectation equals the risk (the expected loss) for any
fixed feasible ``(b, mu)``, and :func:`aure` does the same for the class
that shrinks toward the grand mean.  Both read the family only through
the surrogate row sums ``S_i`` that the :class:`~nefshrink.families.DataMatrix`
derives from its own family and keeps.  Neither estimate is clamped at
zero: negative values are legitimate, only the expectation matters.
"""

from __future__ import annotations

import numpy as np

from .families import DataMatrix

__all__ = ["squared_error_loss", "ure", "aure"]


def squared_error_loss(theta_hat, theta) -> float:
    """Average squared error ``(1/np) * sum_ij (theta_hat_ij - theta_ij)**2``."""
    theta_hat = np.atleast_2d(np.asarray(theta_hat, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta_hat.shape != theta.shape:
        raise ValueError(
            f"estimate shape {theta_hat.shape} does not match mean shape {theta.shape}"
        )
    return float(np.mean((theta_hat - theta) ** 2))


def _weight_vector(b, n: int) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (n,):
        raise ValueError(f"expected {n} shrinkage weights, got shape {b.shape}")
    return b


def _row_quadratic(b, a, lin, const, size: int) -> float:
    """``sum_i [b_i^2 a_i - 2 b_i lin_i + const_i] / size``, a quadratic in each row's
    weight.  With ``a_i = ||y_i - mu||^2`` and ``S_i`` the surrogate row sums,
    :func:`ure` is ``lin_i = const_i = S_i`` and :func:`aure` (at ``mu = Ybar``)
    ``lin_i = (1 - 1/n) S_i``, ``const_i = S_i``."""
    return float((b * b * a - 2.0 * b * lin + const).sum() / size)


def ure(data: DataMatrix, b, mu) -> float:
    """Unbiased estimate of the risk of shrinking toward the location ``mu``.

    ``(1/np) * sum_ij [ b_i^2 (Y_ij - mu_j)^2 + (1 - 2 b_i) V(Y_ij)/(tau_ij + nu2) ]``
    """
    b = _weight_vector(b, data.n)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape != (data.p,):
        raise ValueError(f"expected {data.p} target coordinates, got shape {mu.shape}")
    s = data.surrogate_row_sums
    return _row_quadratic(b, _target_row_norms(data, mu), s, s, data.y.size)


def aure(data: DataMatrix, b) -> float:
    """Unbiased estimate of the risk of shrinking toward the grand mean.

    ``(1/np) * sum_ij [ b_i^2 (Y_ij - Ybar_j)^2
    + (1 - 2 (1 - 1/n) b_i) V(Y_ij)/(tau_ij + nu2) ]``

    Requires ``n >= 2``; at ``b = 0`` it coincides with :func:`ure`.
    """
    rows = _aure_rows(data)
    return _row_quadratic(_weight_vector(b, data.n), *rows, data.y.size)


def _aure_rows(data: DataMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AURE's :func:`_row_quadratic` coefficients ``(a, lin, const)``:
    ``a_i = ||y_i - Ybar||^2``, ``lin_i = (1 - 1/n) S_i`` and ``const_i = S_i``.
    Requires ``n >= 2``."""
    if data.n < 2:
        raise ValueError("grand-mean shrinkage requires at least two rows")
    s = data.surrogate_row_sums
    return data.centered_row_norms, (1.0 - 1.0 / data.n) * s, s


def _target_row_norms(data: DataMatrix, mu: np.ndarray) -> np.ndarray:
    """``||y_i - mu||^2`` for a float target ``mu``: the matrix's kept
    ``centered_row_norms`` when ``mu`` is its column means bit for bit, else
    computed with the same arithmetic."""
    if mu.tobytes() == data.column_means.tobytes():
        return data.centered_row_norms
    return ((data.y - mu) ** 2).sum(axis=1)


def _loss_rows(data: DataMatrix, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The realized loss of shrinking toward ``mu`` as a row quadratic:
    with ``d_i = y_i - theta_i`` it is
    ``sum_i [b_i^2 ||y_i - mu||^2 - 2 b_i (lin_i - cross_i . mu) + const_i] / np``
    with ``lin_i = d_i . y_i``, ``cross_i = d_i`` and ``const_i = ||d_i||^2``."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.shape != data.y.shape:
        raise ValueError(
            f"mean shape {theta.shape} does not match the observation shape {data.y.shape}"
        )
    d = data.y - theta
    return (d * data.y).sum(axis=1), d, (d**2).sum(axis=1)
