"""Output checks written against the paper's formulas, not the program's code.

The risk estimates, the loss and the feasibility test are restated here
with numpy alone, so a change to ``nefshrink.risk`` or
``nefshrink.optimize`` cannot change the check that judges it.
"""

from __future__ import annotations

import numpy as np

# relative tolerance for values that differ only by float summation order
RTOL = 1e-9
# slack on the feasibility constraints
FEAS_TOL = 1e-12

# variance-function coefficients (nu0, nu1, nu2) per family
_NU = {"normal": (1.0, 0.0, 0.0), "poisson": (0.0, 1.0, 0.0)}


def nu(family: str, lam: float | None = None) -> tuple[float, float, float]:
    if family == "gamma":
        return (0.0, 0.0, 1.0 / lam)
    return _NU[family]


def close(value: float, reference: float, rtol: float = RTOL) -> bool:
    return abs(value - reference) <= rtol * (1.0 + abs(reference))


def not_above(value: float, reference: float, rtol: float = RTOL) -> bool:
    """A minimized objective may undercut its reference, never exceed it."""
    return value <= reference + rtol * (1.0 + abs(reference))


def _variance_terms(y, tau, coeffs):
    nu0, nu1, nu2 = coeffs
    return (nu0 + nu1 * y + nu2 * y * y) / (tau + nu2)


def ure(y, tau, b, mu, coeffs) -> float:
    """(1/np) sum_ij [b_i^2 (Y_ij - mu_j)^2 + (1 - 2 b_i) V(Y_ij)/(tau_ij + nu2)]."""
    b = np.asarray(b, dtype=float)[:, None]
    return float(np.mean(b**2 * (y - mu) ** 2 + (1.0 - 2.0 * b) * _variance_terms(y, tau, coeffs)))


def aure(y, tau, b, coeffs) -> float:
    """URE toward the column means, with the (1 - 1/n) correction."""
    n = y.shape[0]
    b = np.asarray(b, dtype=float)[:, None]
    factor = 1.0 - 2.0 * (1.0 - 1.0 / n) * b
    return float(np.mean(b**2 * (y - y.mean(axis=0)) ** 2 + factor * _variance_terms(y, tau, coeffs)))


def loss(y, b, mu, theta) -> float:
    """Average squared error of ``(1 - b_i) Y_ij + b_i mu_j`` against theta."""
    b = np.asarray(b, dtype=float)[:, None]
    return float(np.mean(((1.0 - b) * y + b * mu - theta) ** 2))


def feasibility_problem(b, mu, y, tau) -> str | None:
    """Why ``(b, mu)`` leaves the feasible set, or None when it is inside.

    Weights lie in [0, 1], do not rise as the tau row sum rises, and are
    equal on rows with equal sums; the target lies in the data box.
    """
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (y.shape[0],):
        return f"{b.size} weights for {y.shape[0]} rows"
    if b.min() < -FEAS_TOL or b.max() > 1.0 + FEAS_TOL:
        return "weights outside [0, 1]"
    sums = tau.sum(axis=1)
    order = np.argsort(-sums, kind="stable")
    step = np.diff(b[order])
    if np.any(step < -FEAS_TOL):
        return "weights rise with the tau row sum"
    ties = sums[order][1:] == sums[order][:-1]
    if np.any(np.abs(step[ties]) > FEAS_TOL):
        return "weights differ inside a tie group"
    if mu is not None and np.any(np.abs(mu) > np.abs(y).max() + FEAS_TOL):
        return "target outside the data box"
    return None
