"""Minimization of the risk estimates over the monotone feasible sets.

Feasible shrinkage weights live in the box [0, 1] and must be ordered
against the tau row sums: rows with a larger sum get no more shrinkage
than rows with a smaller sum, and rows with equal sums share one common
weight (the ordering applies in both directions for ties).  Both risk
estimates, and the realized loss, are per-row quadratics in the weights
once the target is fixed, so each weight step is a weighted isotonic
regression with box clipping, implemented here as pool-adjacent-violators
over the tie groups: when every group has positive weight, whole
decreasing runs are pooled in vectorized passes first, and a stack
finishes the pooling.  A target is fitted by a coordinate descent over
that row quadratic with a closed-form clipped target step, run once per
start; the URE fit and the loss oracle hand it their own row
coefficients and starts, and each keeps its best result.
With a single tie group the URE fit needs no descent: its global
minimizer is one weight step at the clipped column mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import DataMatrix, RowOrder
from .risk import _aure_rows, _row_quadratic, _target_row_norms

__all__ = [
    "RowOrder",
    "FitResult",
    "isotonic_box_projection",
    "minimize_ure",
    "minimize_aure",
    "sample_feasible_weights",
    "check_feasible_weights",
    "check_feasible_location",
]


def check_feasible_weights(b, order: RowOrder) -> np.ndarray:
    b = np.asarray(b, dtype=float).reshape(-1)
    if not order.is_feasible(b):
        raise ValueError(
            "shrinkage weights are infeasible: they must be finite, lie in [0, 1] "
            "and be monotone against the tau row-sum ordering (equal within ties)"
        )
    return b


def check_feasible_location(mu, data: DataMatrix) -> np.ndarray:
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if not np.all(np.abs(mu) <= data.data_range):
        raise ValueError(
            f"shrinkage target must be finite and within the data range "
            f"[{-data.data_range}, {data.data_range}]"
        )
    if mu.size != data.p:
        raise ValueError(f"expected {data.p} target coordinates, got {mu.size}")
    return mu


def isotonic_box_projection(targets, weights, order: RowOrder) -> np.ndarray:
    """Weighted least-squares fit of a feasible weight vector to ``targets``.

    Solves ``min sum_i w_i (b_i - t_i)^2`` subject to the box [0, 1] and the
    ordering constraint of ``order``.  Tie groups are collapsed to pooled
    points first, then adjacent violators are pooled along the order, and
    the result is clipped to [0, 1]; clipping after pooling is exact
    because the box bounds commute with monotone pooling.

    Pooling adjacent violators in any order reaches the same fit.  When
    every tie group has positive weight, vectorized passes first merge each
    maximal strictly decreasing run of adjacent blocks at once, while a pass
    leaves at most 3/4 of the blocks (at most ``4 G`` block visits in
    all).  A stack of blocks ``(value, sum w*t, sum w, sum t, count,
    groups covered)`` then finishes in one pass over the remaining blocks:
    each is pushed and merged into the block below (sums added lower block
    first) while that block's value is larger, so the whole projection is
    linear.  With a tie group of zero weight there are no
    passes and the stack runs over the groups.  With a single tie group
    there is nothing to pool: the clipped value of the one block is
    returned directly, from the same sums.

    Coordinates with zero weight do not influence any pooled average: they
    take the value their block forces or, when no pooling touches them, the
    feasible value nearest their clipped target.  A block whose total
    weight is zero takes the plain mean of its member targets.
    """
    targets, weights = _projection_inputs(targets, weights, order)
    return _pool_adjacent_violators(targets, weights, weights * targets, order)


def _projection_inputs(targets, weights, order: RowOrder) -> tuple[np.ndarray, np.ndarray]:
    """Flat float ``targets`` and ``weights``, checked for the projection.

    Valid inputs pass on two reductions: the least weight is nonnegative,
    and ``targets @ weights`` is finite.  It is not when any entry is NaN
    or infinite: that entry's product is NaN or infinite (``0 * inf`` is
    NaN), and so is any sum with such a term.  Only inputs that fail (or
    whose products overflow) go through the entrywise checks, whose order
    fixes the message: a negative weight, ``-inf`` included, is reported
    before a NaN or an infinity."""
    targets = np.asarray(targets, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if targets.shape != weights.shape or targets.size != order.n:
        raise ValueError("targets, weights and order must have matching length")
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf, inf - inf, overflow
        if weights.size and weights.min() >= 0.0 and np.isfinite(targets @ weights):
            return targets, weights
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    if not (np.all(np.isfinite(targets)) and np.all(np.isfinite(weights))):
        raise ValueError("targets and weights must be finite")
    return targets, weights


def _pool_adjacent_violators(targets, weights, pulls, order: RowOrder) -> np.ndarray:
    """:func:`isotonic_box_projection` of checked inputs, with ``pulls`` in
    place of ``weights * targets`` in the blocks' weighted target sums, so
    a block with positive weight pools to ``sum pulls / sum weights``.

    A block of zero weight minimizes ``-2 b sum pulls`` over the box: it
    takes 1 for a positive pull sum, 0 for a negative one, and the plain
    mean of its targets only when the sum is 0, as it always is for the
    projection's own pulls ``weights * targets``."""
    perm = order.permutation
    gids = order.group_ids
    n_groups = order.n_groups

    # per-block accumulators: weighted target sum, weight, plain target sum, count
    swt = np.bincount(gids, weights=pulls[perm], minlength=n_groups)
    sw = np.bincount(gids, weights=weights[perm], minlength=n_groups)
    if n_groups == 1 and sw[0] > 0:
        # clipped as np.clip does, on a Python float: -0.0 stays -0.0
        return np.full(order.n, min(max(float(swt[0]) / float(sw[0]), 0.0), 1.0))
    if sw.all():
        value, swt, sw, covers = _pool_decreasing_runs(swt, sw)
        st = cnt = np.zeros(len(swt))  # read only by blocks of zero weight
    else:
        st = np.bincount(gids, weights=targets[perm], minlength=n_groups)
        cnt = np.bincount(gids, minlength=n_groups).astype(float)
        flat = np.where(swt == 0, st / cnt, (swt > 0).astype(float))
        value = np.divide(swt, sw, out=flat, where=sw > 0)
        covers = np.ones(n_groups, dtype=np.intp)
    stack: list[tuple] = []
    for cur in zip(
        value.tolist(), swt.tolist(), sw.tolist(), st.tolist(), cnt.tolist(),
        covers.tolist(),
    ):
        while stack and stack[-1][0] > cur[0]:
            _, bwt, bw, bt, bc, bk = stack.pop()
            bwt, bw, bt, bc = bwt + cur[1], bw + cur[2], bt + cur[3], bc + cur[4]
            cur = (bwt / bw if bw > 0 else bt / bc if bwt == 0 else float(bwt > 0),
                   bwt, bw, bt, bc, bk + cur[5])
        stack.append(cur)

    blocks = np.array(stack)
    group_values = np.repeat(blocks[:, 0], blocks[:, 5].astype(int))
    return np.clip(order.expand_group_values(group_values), 0.0, 1.0)


# pre-pooling passes go on while a pass keeps at most this share of the blocks;
# PAV milliseconds per round on perfbench's sim_grand_mean_ties / fit_cli ties
# case (2-vCPU VM, median of 7 rounds): stack alone 17.7 / 56.1, stop at 1/2
# 15.3 / 39.4, 3/4 10.2 / 9.9, 7/8 10.7 / 9.4
_PASS_KEEP = 0.75


def _pool_decreasing_runs(swt, sw) -> tuple[np.ndarray, ...]:
    """Pool every maximal strictly decreasing run of adjacent blocks at once,
    in passes, for blocks of positive weight ``sw``.

    Pooling adjacent violators in any order reaches the same fit, so each
    chain of violators can be merged whole.  A pass that would keep more
    than ``_PASS_KEEP`` of the blocks is not made, so the passes touch at
    most ``4 G`` blocks in all.  Returns the blocks' ``(value, sum w*t,
    sum w, groups covered)``.
    """
    n_groups = len(swt)
    first = np.arange(n_groups)  # each block's first group
    run_start = np.empty(n_groups, dtype=bool)  # one mask, reused by every pass
    run_start[0] = True
    while True:
        value = swt / sw
        blocks = len(value)
        np.less_equal(value[:-1], value[1:], out=run_start[1:blocks])
        starts = run_start[:blocks].nonzero()[0]
        if len(starts) > _PASS_KEEP * blocks:
            return value, swt, sw, np.diff(first, append=n_groups)
        swt, sw, first = np.add.reduceat(swt, starts), np.add.reduceat(sw, starts), first[starts]


def sample_feasible_weights(order: RowOrder, rng: np.random.Generator) -> np.ndarray:
    """Random feasible weight vector: sorted uniforms, one per tie group."""
    u = np.sort(rng.uniform(0.0, 1.0, order.n_groups))
    return order.expand_group_values(u)


# a descent start stops once an outer iteration gains less than this
_TOLERANCE = 1e-10
# the default budget of outer iterations per descent start
_MAX_ITER = 200


def _check_max_iter(max_iter: int) -> None:
    """Reject an outer-iteration budget per descent start below 1."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")


@dataclass
class FitResult:
    """Fitted shrinkage weights and target with solver diagnostics."""

    b: np.ndarray
    mu: np.ndarray
    objective: float
    iterations: int
    converged: bool


def _quadratic_targets(a: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unconstrained minimizers of ``a_i b^2 - 2 s_i b`` with zero-curvature
    fills, and the mask of the filled rows.

    Flat coordinates (``a_i = 0``), and those whose ``s_i / a_i`` overflows,
    push to 1 when the linear pull is toward shrinkage (``s_i > 0``), sit at
    0.5 when the objective ignores them, and drop to 0 for a negative pull;
    the projection's zero-weight rule then yields the nearest feasible
    value when no pooling touches a flat one.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        targets = s / a
    filled = ~np.isfinite(targets)
    targets[filled] = np.where(s[filled] > 0, 1.0, np.where(s[filled] == 0, 0.5, 0.0))
    return targets, filled


def _weight_step(a, lin, const, order: RowOrder, size: int) -> tuple[np.ndarray, float]:
    """Feasible minimizer of :func:`~nefshrink.risk._row_quadratic` over the
    weights, and its value: one isotonic projection of the per-row
    stationary points with weights ``a_i``.

    A pooled block's exact minimizer is ``sum lin_i / sum a_i``.  A row with
    a fill target, flat (``a_i = 0``, weight 0) or with ``lin_i / a_i``
    beyond the float range, does not carry its pull in ``a_i t_i``, so when
    one has a linear pull the projection's core pools ``lin_i`` for it
    directly (and ``a_i t_i``, as the projection does, for every other row);
    a block of flat rows alone then goes to the bound the sign of ``sum
    lin_i`` picks, and a block whose ``sum lin_i / sum a_i`` overflows to
    the bound its sign picks.  Without such a row that is the projection
    itself, which is called as is.
    """
    targets, filled = _quadratic_targets(a, lin)
    if np.any(lin[filled]):
        targets, a = _projection_inputs(targets, a, order)
        with np.errstate(over="ignore"):
            b = _pool_adjacent_violators(targets, a, np.where(filled, lin, a * targets), order)
    else:
        b = isotonic_box_projection(targets, a, order)
    return b, _row_quadratic(b, a, lin, const, size)


def minimize_aure(data: DataMatrix) -> FitResult:
    """Exact minimizer of :func:`~nefshrink.risk.aure` over the feasible set.

    The objective is separable per row: ``A_i b_i^2 - 2 (1 - 1/n) S_i b_i``
    with ``A_i = sum_j (Y_ij - Ybar_j)^2`` and ``S_i`` the row sum of
    ``V(Y_ij)/(tau_ij + nu2)``, so a single weighted isotonic projection of
    the per-row stationary points solves it globally.
    """
    b, objective = _weight_step(*_aure_rows(data), data.order, data.y.size)
    return FitResult(
        b=b,
        mu=data.column_means,
        objective=objective,
        iterations=1,
        converged=True,
    )


# descend from every data row as a target candidate only for small matrices
_ROW_RESTART_CAP = 12


def minimize_ure(data: DataMatrix, max_iter: int = _MAX_ITER) -> FitResult:
    """Minimize :func:`~nefshrink.risk.ure` jointly over weights and target.

    URE is the row quadratic that :func:`_descend` minimizes, with ``lin_i
    = const_i = S_i`` and no cross term; the loss oracle descends on the
    realized loss from starts of its own.

    With a single tie group (all tau row sums equal, as for an all-ones
    tau) every feasible ``b`` is a constant ``c``, and ``URE(c, mu) =
    [c^2 sum_i ||y_i - mu||^2 - 2 c sum_i S_i + sum_i S_i] / np``.  For
    every ``c > 0`` the column mean minimizes it
    over ``mu``, and at ``c = 0`` it does not depend on ``mu``, so the
    global minimum is ``c = clip(sum_i S_i / sum_i ||y_i - ybar||^2, 0, 1)``
    at ``mu = ybar``.  That fit is returned in closed form, as one weight
    step at the clipped column mean reported as iteration 1, with no
    descent; ``max_iter`` must still be at least 1.

    With several tie groups joint minimization is biconvex, not convex,
    and descent from the grand mean alone can miss targets that sit near
    one data cluster.  So the fit descends first from full shrinkage
    toward the clipped grand mean, then from half shrinkage toward the
    clipped zero vector and, for at most ``_ROW_RESTART_CAP`` rows, toward
    every clipped data row, in row order; each start takes at most
    ``max_iter`` outer iterations, and the best final iterate wins, the
    earliest start on ties.  The weight step at a fixed ``mu`` never reads
    ``b`` and is the exact minimizer over feasible ``b``, so any
    constant-weight start toward the grand mean takes the same first step;
    they part only where that step reads as an ascent by rounding, and
    there full shrinkage is the start whose target step still moves ``mu``
    (zero weights keep it).
    """
    _check_max_iter(max_iter)
    s = data.surrogate_row_sums
    m_range = data.data_range
    mu0 = np.clip(data.column_means, -m_range, m_range)
    if data.order.n_groups == 1:
        b, objective = _weight_step(_target_row_norms(data, mu0), s, s, data.order, data.y.size)
        return FitResult(b, mu0, objective, iterations=1, converged=True)
    targets = [np.zeros(data.p)]
    if data.n <= _ROW_RESTART_CAP:
        targets.extend(data.y)
    starts = [(np.ones(data.n), mu0)]
    starts.extend((np.full(data.n, 0.5), np.clip(mu, -m_range, m_range)) for mu in targets)
    return min((_descend(data, s, None, s, max_iter, b, mu) for b, mu in starts),
               key=lambda result: result.objective)  # the first of equal minima


def _descend(data: DataMatrix, lin, cross, const, max_iter: int, b, mu) -> FitResult:
    """Minimize ``sum_i [b_i^2 ||y_i - mu||^2 - 2 b_i (lin_i - cross_i . mu)
    + const_i] / np`` over feasible ``(b, mu)`` from the one start ``(b,
    mu)``, a feasible pair; ``cross = None`` means zero.

    Alternates the exact weight step at fixed ``mu`` with the exact target
    step ``mu = sum_i (b_i^2 y_i - b_i cross_i) / sum_i b_i^2`` clipped into
    the data box (the objective is a separable convex quadratic in each
    ``mu_j``); at all-zero weights the target resets to the clipped grand
    mean.  A weight step is only accepted if it does not increase the
    objective, so the recorded value is nonincreasing; the descent stops
    once an outer iteration gains less than ``_TOLERANCE`` (``converged``),
    or after ``max_iter`` outer iterations, which the public entries have
    checked to be at least 1.  It carries the rows of its current target
    from the target step into the next weight step, so it holds O(n) state
    whatever its iteration count.
    """
    size = data.y.size
    order = data.order
    m_range = data.data_range

    def rows_at(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(||y_i - mu||^2, lin_i - cross_i . mu)``."""
        return _target_row_norms(data, mu), lin if cross is None else lin - cross @ mu

    rows = rows_at(mu)
    obj = _row_quadratic(b, *rows, const, size)
    for iterations in range(1, max_iter + 1):
        candidate, cand_obj = _weight_step(*rows, const, order, size)
        if cand_obj <= obj:
            b, obj_b = candidate, cand_obj
        else:
            obj_b = obj  # flat-direction fill would backtrack; keep iterate
        b2 = b**2
        wsum = float(b2.sum())
        if wsum == 0.0:
            mu = np.clip(data.column_means, -m_range, m_range)
        else:
            num = b2 @ data.y if cross is None else b2 @ data.y - b @ cross
            mu = np.clip(num / wsum, -m_range, m_range)
        rows = rows_at(mu)
        obj_mu = _row_quadratic(b, *rows, const, size)
        _check_descent(obj_b, obj_mu)
        converged = obj - obj_mu < _TOLERANCE
        obj = obj_mu
        if converged:
            break
    return FitResult(b, mu, obj, iterations, converged)


def _check_descent(before: float, after: float) -> None:
    if after > before + 1e-12 * (1.0 + abs(before)):
        raise RuntimeError(
            f"objective increased across a descent step ({before} -> {after})"
        )
