"""Minimization of the risk estimates over the monotone feasible sets.

Feasible shrinkage weights live in the box [0, 1] and must be ordered
against the tau row sums: rows with a larger sum get no more shrinkage
than rows with a smaller sum, and rows with equal sums share one common
weight (the ordering applies in both directions for ties).  Both risk
estimates, and the realized loss, are per-row quadratics in the weights
once the target is fixed, so each weight step is a weighted isotonic
regression with box clipping, implemented here as pool-adjacent-violators
over the tie groups.  A target is fitted by one coordinate descent over
that row quadratic with a closed-form clipped target step; the URE fit
and the loss oracle differ only in the row coefficients they hand it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import DataMatrix, FamilySpec
from .risk import _row_quadratic, _surrogate_row_sums, grand_mean

__all__ = [
    "RowOrder",
    "SolverOptions",
    "FitResult",
    "isotonic_box_projection",
    "minimize_ure",
    "minimize_aure",
    "sample_feasible_weights",
    "check_feasible_weights",
    "check_feasible_location",
]


@dataclass(frozen=True)
class RowOrder:
    """Row permutation by descending tau row sums, with tie groups.

    Along ``permutation`` the feasible weights are nondecreasing; positions
    whose row sums tie form a group that must share a single value.
    """

    permutation: np.ndarray
    group_ids: np.ndarray  # group index per permutation position, nondecreasing

    @classmethod
    def from_row_sums(cls, sums) -> "RowOrder":
        sums = np.asarray(sums, dtype=float).reshape(-1)
        perm = np.argsort(-sums, kind="stable")
        ordered = sums[perm]
        # new group wherever the sorted sum strictly drops
        group_ids = np.concatenate([[0], np.cumsum(ordered[:-1] > ordered[1:])])
        return cls(permutation=perm, group_ids=group_ids.astype(int))

    @classmethod
    def from_tau(cls, tau) -> "RowOrder":
        return cls.from_row_sums(np.asarray(tau).sum(axis=1))

    @property
    def n(self) -> int:
        return self.permutation.size

    @property
    def n_groups(self) -> int:
        return int(self.group_ids[-1]) + 1 if self.n else 0

    def group_of_row(self) -> np.ndarray:
        """Group index per original row."""
        out = np.empty(self.n, dtype=int)
        out[self.permutation] = self.group_ids
        return out

    def expand_group_values(self, values) -> np.ndarray:
        """Map one value per group back to a per-row vector."""
        values = np.asarray(values, dtype=float)
        out = np.empty(self.n, dtype=float)
        out[self.permutation] = values[self.group_ids]
        return out

    def is_feasible(self, b) -> bool:
        b = np.asarray(b, dtype=float).reshape(-1)
        # written so that NaN fails the box test
        if b.shape != (self.n,) or not np.all((b >= 0.0) & (b <= 1.0)):
            return False
        # nondecreasing along the order, constant inside each tie group
        steps = np.diff(b[self.permutation])
        tied = np.diff(self.group_ids) == 0
        return bool(np.all(steps >= 0.0) and np.all(steps[tied] == 0.0))


def check_feasible_weights(b, order: RowOrder) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if not order.is_feasible(b):
        raise ValueError(
            "shrinkage weights are infeasible: they must be finite, lie in [0, 1] "
            "and be monotone against the tau row-sum ordering (equal within ties)"
        )
    return b


def check_feasible_location(mu, data_range: float) -> np.ndarray:
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if not np.all(np.abs(mu) <= data_range):
        raise ValueError(
            f"shrinkage target must be finite and within the data range "
            f"[{-data_range}, {data_range}]"
        )
    return mu


def isotonic_box_projection(targets, weights, order: RowOrder) -> np.ndarray:
    """Weighted least-squares fit of a feasible weight vector to ``targets``.

    Solves ``min sum_i w_i (b_i - t_i)^2`` subject to the box [0, 1] and the
    ordering constraint of ``order``.  Tie groups are collapsed to pooled
    points first, then adjacent violators are pooled along the order, and
    the result is clipped to [0, 1]; clipping after pooling is exact
    because the box bounds commute with monotone pooling.

    Pooling is one pass over the groups with a stack of blocks
    ``(value, sum w*t, sum w, sum t, count, groups covered)``: each group is
    pushed as a block and merged into the block below (sums added lower
    block first) while that block's value is larger, so the pass is linear.

    Coordinates with zero weight do not influence any pooled average: they
    take the value their block forces or, when no pooling touches them, the
    feasible value nearest their clipped target.  A block whose total
    weight is zero takes the plain mean of its member targets.
    """
    targets = np.asarray(targets, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if targets.shape != weights.shape or targets.size != order.n:
        raise ValueError("targets, weights and order must have matching length")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(weights))):
        raise ValueError("targets and weights must be finite")

    t = targets[order.permutation]
    w = weights[order.permutation]
    gids = order.group_ids
    n_groups = order.n_groups

    # per-block accumulators: weighted target sum, weight, plain target sum, count
    swt = np.bincount(gids, weights=w * t, minlength=n_groups)
    sw = np.bincount(gids, weights=w, minlength=n_groups)
    st = np.bincount(gids, weights=t, minlength=n_groups)
    cnt = np.bincount(gids, minlength=n_groups).astype(float)

    value = np.divide(swt, sw, out=st / cnt, where=sw > 0)
    stack: list[tuple] = []
    for cur in zip(
        value.tolist(), swt.tolist(), sw.tolist(), st.tolist(), cnt.tolist(),
        [1] * n_groups,
    ):
        while stack and stack[-1][0] > cur[0]:
            _, bwt, bw, bt, bc, bk = stack.pop()
            bwt, bw, bt, bc = bwt + cur[1], bw + cur[2], bt + cur[3], bc + cur[4]
            cur = (bwt / bw if bw > 0 else bt / bc, bwt, bw, bt, bc, bk + cur[5])
        stack.append(cur)

    blocks = np.array(stack)
    group_values = np.repeat(blocks[:, 0], blocks[:, 5].astype(int))
    return np.clip(order.expand_group_values(group_values), 0.0, 1.0)


def sample_feasible_weights(order: RowOrder, rng: np.random.Generator) -> np.ndarray:
    """Random feasible weight vector: sorted uniforms, one per tie group."""
    u = np.sort(rng.uniform(0.0, 1.0, order.n_groups))
    return order.expand_group_values(u)


@dataclass
class SolverOptions:
    """Knobs for the coordinate-descent location fit."""

    max_outer_iterations: int = 200
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations (max_iter) must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance (tol) must be positive")


@dataclass
class FitResult:
    """Fitted shrinkage weights and target with solver diagnostics."""

    b: np.ndarray
    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool
    target_kind: str = "location"  # "location" | "grand_mean"


def _quadratic_targets(a: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Unconstrained minimizers of ``a_i b^2 - 2 s_i b`` with zero-curvature fills.

    Flat coordinates (``a_i = 0``) push to 1 when the linear pull is toward
    shrinkage (``s_i > 0``), sit at 0.5 when the objective ignores them, and
    drop to 0 for a negative pull; the projection's zero-weight rule then
    yields the nearest feasible value.
    """
    targets = np.empty_like(a)
    pos = a > 0
    targets[pos] = s[pos] / a[pos]
    flat = ~pos
    targets[flat] = np.where(s[flat] > 0, 1.0, np.where(s[flat] == 0, 0.5, 0.0))
    return targets


def _weight_step(a, lin, const, order: RowOrder, size: int) -> tuple[np.ndarray, float]:
    """Feasible minimizer of :func:`~nefshrink.risk._row_quadratic` over the
    weights, and its value: one isotonic projection of the per-row
    stationary points with weights ``a_i``."""
    b = isotonic_box_projection(_quadratic_targets(a, lin), a, order)
    return b, _row_quadratic(b, a, lin, const, size)


def minimize_aure(data: DataMatrix, spec: FamilySpec) -> FitResult:
    """Exact minimizer of :func:`~nefshrink.risk.aure` over the feasible set.

    The objective is separable per row: ``A_i b_i^2 - 2 (1 - 1/n) S_i b_i``
    with ``A_i = sum_j (Y_ij - Ybar_j)^2`` and ``S_i`` the row sum of
    ``V(Y_ij)/(tau_ij + nu2)``, so a single weighted isotonic projection of
    the per-row stationary points solves it globally.
    """
    if data.n < 2:
        raise ValueError("grand-mean shrinkage requires at least two rows")
    ybar = grand_mean(data)
    a = ((data.y - ybar) ** 2).sum(axis=1)
    s = _surrogate_row_sums(data, spec)
    b, objective = _weight_step(
        a, (1.0 - 1.0 / data.n) * s, s, RowOrder.from_tau(data.tau), data.y.size
    )
    return FitResult(
        b=b,
        mu=ybar,
        objective=objective,
        iterations=1,
        converged=True,
        target_kind="grand_mean",
    )


# descend from every data row as a target candidate only for small matrices
_ROW_RESTART_CAP = 12


def minimize_ure(
    data: DataMatrix, spec: FamilySpec, opts: SolverOptions | None = None
) -> FitResult:
    """Minimize :func:`~nefshrink.risk.ure` jointly over weights and target.

    URE is the row quadratic that :func:`_coordinate_descent` minimizes,
    with ``lin_i = const_i = S_i`` and no cross term; the loss oracle runs
    the same descent on the realized loss.  Joint minimization is biconvex,
    not convex, and descent from the grand mean alone can miss targets that
    sit near one data cluster, so besides the descent's own starts it
    restarts with half shrinkage toward the zero vector and, for small
    matrices, toward every data row.  The weight step ignores a start's
    ``b``, so starts sharing a target share it, and starts that reach the
    same state are descended once; a restart that coincides with the grand
    mean or another row therefore costs no further projection.
    """
    s = _surrogate_row_sums(data, spec)
    targets = [np.zeros(data.p)]
    if data.n <= _ROW_RESTART_CAP:
        targets.extend(data.y)
    return _coordinate_descent(data, s, None, s, opts, targets)


def _coordinate_descent(
    data: DataMatrix, lin, cross, const, opts: SolverOptions | None, targets=()
) -> FitResult:
    """Minimize ``sum_i [b_i^2 ||y_i - mu||^2 - 2 b_i (lin_i - cross_i . mu)
    + const_i] / np`` over feasible ``(b, mu)``; ``cross = None`` means zero.

    Alternates the exact weight step at fixed ``mu`` with the exact target
    step ``mu = sum_i (b_i^2 y_i - b_i cross_i) / sum_i b_i^2`` clipped into
    the data box (the objective is a separable convex quadratic in each
    ``mu_j``).  A weight step is only accepted if it does not increase the
    objective, so the recorded value is nonincreasing; a start stops once
    an outer iteration gains less than ``opts.tolerance``.  Starts: no,
    half and full shrinkage toward the clipped grand mean, then half
    shrinkage toward each clipped entry of ``targets``; the best final
    iterate wins, the earliest start on ties.

    The weight step ignores the start's ``b``, so starts that share a
    target share their first weight step; only its acceptance test, the
    descent check and the convergence test of the first iteration are run
    per start.  After that the iterate ``(b, mu)`` fixes the rest of the
    descent, so starts that reach bitwise the same state are descended
    once and share its final iterate.
    """
    opts = opts or SolverOptions()
    size = data.y.size
    order = RowOrder.from_tau(data.tau)
    m_range = data.data_range
    mu0 = np.clip(grand_mean(data), -m_range, m_range)
    starts = [(np.full(data.n, c), mu0) for c in (0.5, 0.0, 1.0)]
    starts.extend((np.full(data.n, 0.5), np.clip(mu, -m_range, m_range)) for mu in targets)

    def rows_at(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = ((data.y - mu) ** 2).sum(axis=1)
        return a, lin if cross is None else lin - cross @ mu

    def target_step(b: np.ndarray) -> np.ndarray:
        b2 = b**2
        wsum = float(b2.sum())
        if wsum == 0.0:
            return mu0.copy()
        num = b2 @ data.y if cross is None else b2 @ data.y - b @ cross
        return np.clip(num / wsum, -m_range, m_range)

    def iterate(b, obj, a, lin_mu, candidate, cand_obj):
        """One outer iteration from ``b`` at the rows of its target, given
        the weight step there; returns the new iterate and its objective."""
        if cand_obj <= obj:
            b, obj_b = candidate, cand_obj
        else:
            obj_b = obj  # flat-direction fill would backtrack; keep iterate
        mu = target_step(b)
        a, lin_mu = rows_at(mu)
        obj_mu = _row_quadratic(b, a, lin_mu, const, size)
        _check_descent(obj_b, obj_mu)
        return b, mu, a, lin_mu, obj_mu

    def descend(b, mu, a, lin_mu, obj) -> FitResult:
        """Iterations 2, 3, ... from the state reached after iteration 1."""
        converged = False
        iterations = 1
        for iterations in range(2, opts.max_outer_iterations + 1):
            step = _weight_step(a, lin_mu, const, order, size)
            b, mu, a, lin_mu, obj_mu = iterate(b, obj, a, lin_mu, *step)
            converged = obj - obj_mu < opts.tolerance
            obj = obj_mu
            if converged:
                break
        return FitResult(b, mu, obj, iterations, converged)

    first_steps: dict[bytes, tuple] = {}  # clipped target -> its rows and weight step
    descents: dict[bytes, FitResult] = {}  # state after iteration 1 -> its descent
    best = None
    for b, mu in starts:
        key = mu.tobytes()
        if key not in first_steps:
            a, lin_mu = rows_at(mu)
            first_steps[key] = (a, lin_mu, *_weight_step(a, lin_mu, const, order, size))
        a, lin_mu, candidate, cand_obj = first_steps[key]
        obj = _row_quadratic(b, a, lin_mu, const, size)
        b, mu, a, lin_mu, obj_mu = iterate(b, obj, a, lin_mu, candidate, cand_obj)
        if obj - obj_mu < opts.tolerance:
            result = FitResult(b, mu, obj_mu, 1, True)
        else:
            state = b.tobytes() + mu.tobytes()
            if state not in descents:
                descents[state] = descend(b, mu, a, lin_mu, obj_mu)
            result = descents[state]
        if best is None or result.objective < best.objective:
            best = result
    return best


def _check_descent(before: float, after: float) -> None:
    if after > before + 1e-12 * (1.0 + abs(before)):
        raise RuntimeError(
            f"objective increased across a descent step ({before} -> {after})"
        )
