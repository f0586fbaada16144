"""Reference implementations that the tests check the solvers against.

The lattice oracles enumerate the feasible set on a value lattice,
independently of the pool-adjacent-violators and coordinate-descent routes
they check; the tie-group weight step solves the collapsed problem with
scipy's isotonic regression; and the list-stack projection is the earlier
pool-adjacent-violators loop, kept as the reference for the block-stack
one (exact where that one makes no pre-pooling pass).  The moment and
risk oracles need the true means, so only tests can use them.
"""

import itertools
from math import comb

import numpy as np
from scipy.optimize import isotonic_regression

from nefshrink import (
    DataMatrix,
    FamilySpec,
    RowOrder,
    validate_mean_matrix,
    variance_function,
)
from nefshrink.families import _check_tau
from nefshrink.risk import _weight_vector


def theoretical_moments(spec: FamilySpec, theta, tau):
    """Exact mean and variance of an observation: ``(theta, V(theta)/tau)``.

    Accepts scalars or arrays; ``theta`` must lie strictly inside the mean
    domain and ``tau`` must pass the family's tau rule (positive integers,
    and one ``N_i`` per row for the trial families).
    """
    theta = validate_mean_matrix(spec, theta)
    _check_tau(tau, spec)
    return theta, variance_function(spec, theta) / tau


def true_risk(theta, b, mu, spec: FamilySpec, tau) -> float:
    """Exact risk of the location-shrinkage estimator for fixed ``(b, mu)``.

    ``(1/np) * sum_ij [ b_i^2 (theta_ij - mu_j)^2 + (1 - b_i)^2 V(theta_ij)/tau_ij ]``
    """
    theta = np.atleast_2d(validate_mean_matrix(spec, theta))
    tau = np.atleast_2d(np.asarray(tau, dtype=float))
    n, p = theta.shape
    b = _weight_vector(b, n)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.shape != (p,):
        raise ValueError(f"expected {p} target coordinates, got shape {mu.shape}")
    bias = b[:, None] ** 2 * (theta - mu) ** 2
    noise = (1.0 - b)[:, None] ** 2 * variance_function(spec, theta) / tau
    return float(np.mean(bias + noise))


def group_of_row(order: RowOrder) -> np.ndarray:
    """Tie-group index per original row."""
    out = np.empty(order.n, dtype=int)
    out[order.permutation] = order.group_ids
    return out


def _unit_grid(resolution: float) -> np.ndarray:
    if not 0 < resolution <= 1:
        raise ValueError("resolution must lie in (0, 1]")
    steps = int(np.floor(1.0 / resolution + 1e-9))
    return np.minimum(np.arange(steps + 1) * resolution, 1.0)


def _box_grid(bound: float, resolution: float) -> np.ndarray:
    steps = int(np.floor(2.0 * bound / resolution + 1e-9))
    return np.minimum(-bound + np.arange(steps + 1) * resolution, bound)


_MAX_ORACLE_POINTS = 30_000_000


def grid_oracle_ure(data: DataMatrix, resolution: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Exhaustive lattice minimizer of the location-shrinkage risk estimate.

    Enumerates every feasible monotone weight vector on a ``resolution``
    lattice over [0, 1]^n; for each one the best lattice target follows
    per column from the exact quadratic in ``mu_j`` (the lattice point
    nearest the clipped vertex).  Intended as a test oracle, so the size
    is guarded: ``n <= 5`` and ``p <= 3``.
    """
    if data.n > 5 or data.p > 3:
        raise ValueError("grid oracle guard: requires n <= 5 and p <= 3")
    order = RowOrder.from_tau(data.tau)
    bvals = _unit_grid(resolution)
    m_range = data.data_range
    mvals = _box_grid(m_range, resolution)
    n_b = len(bvals)
    n_groups = order.n_groups
    total = _n_monotone(n_b, n_groups)
    if total > _MAX_ORACLE_POINTS:
        raise ValueError(
            f"grid oracle guard: {total} monotone weight vectors at this resolution"
        )

    group_rows = group_of_row(order)
    s = data.surrogate_row_sums
    y = data.y
    y2 = y * y
    s_total = float(s.sum())
    np_scale = data.n * data.p
    lattice_top = mvals[-1]

    best_val = np.inf
    best_b = None
    best_mu = None
    combos = itertools.combinations_with_replacement(range(n_b), n_groups)
    while True:
        chunk = list(itertools.islice(combos, 200_000))
        if not chunk:
            break
        gb = bvals[np.asarray(chunk, dtype=np.intp)]  # (K, G) group values
        b = gb[:, group_rows]  # (K, n) row values
        w = b * b
        r = w.sum(axis=1)  # (K,)
        q = w @ y  # (K, p)
        pterm = w @ y2  # (K, p)
        with np.errstate(invalid="ignore", divide="ignore"):
            vertex = np.where(r[:, None] > 0, q / r[:, None], 0.0)
        vertex = np.clip(vertex, -m_range, lattice_top)
        idx = np.rint((vertex + m_range) / resolution).astype(np.intp)
        idx = np.clip(idx, 0, len(mvals) - 1)
        mu = mvals[idx]
        quad = pterm - 2.0 * mu * q + mu * mu * r[:, None]
        obj = (quad.sum(axis=1) + s_total - 2.0 * (b @ s)) / np_scale
        k = int(np.argmin(obj))
        if obj[k] < best_val:
            best_val = float(obj[k])
            best_b = b[k].copy()
            best_mu = mu[k].copy()
    return best_b, best_mu, best_val


def _n_monotone(n_values: int, n_groups: int) -> int:
    return comb(n_values + n_groups - 1, n_groups)


def grid_minimize_separable_quadratic(
    quad, lin, order: RowOrder, resolution: float
) -> tuple[np.ndarray, float]:
    """Exact lattice minimizer of ``sum_i quad_i b_i^2 + lin_i b_i`` over the
    feasible monotone set.

    Dynamic program over tie groups and lattice values; exhaustive over the
    lattice without enumerating vectors, so it stays an independent check
    of the pool-adjacent-violators route even at fine resolutions.
    """
    quad = np.asarray(quad, dtype=float).reshape(-1)
    lin = np.asarray(lin, dtype=float).reshape(-1)
    if quad.shape != lin.shape or quad.size != order.n:
        raise ValueError("coefficients and order must have matching length")
    grid = _unit_grid(resolution)
    n_vals = len(grid)
    gids_by_row = group_of_row(order)
    gq = np.bincount(gids_by_row, weights=quad, minlength=order.n_groups)
    gl = np.bincount(gids_by_row, weights=lin, minlength=order.n_groups)

    running = np.zeros(n_vals)
    parents = []
    for g in range(order.n_groups):
        cum = np.minimum.accumulate(running)
        strictly_new = running < np.concatenate(([np.inf], cum[:-1]))
        parent = np.where(strictly_new, np.arange(n_vals), -1)
        parent = np.maximum.accumulate(parent)
        parents.append(parent)
        running = gq[g] * grid * grid + gl[g] * grid + cum

    k = int(np.argmin(running))
    value = float(running[k])
    choice = np.empty(order.n_groups, dtype=int)
    for g in range(order.n_groups - 1, -1, -1):
        choice[g] = k
        k = int(parents[g][k])
    return order.expand_group_values(grid[choice]), value


def reference_weight_step(quad, lin, order: RowOrder) -> np.ndarray:
    """Feasible minimizer of ``sum_i quad_i b_i^2 - 2 lin_i b_i`` when every
    tie group has positive total curvature.

    A tie group shares one weight, so it is the single point
    ``(sum lin / sum quad, weight sum quad)``; the groups are fitted by
    scipy's isotonic regression along the order and clipped into [0, 1].
    Rows with ``quad_i = 0`` enter only through their group's sums.
    """
    rows = group_of_row(order)
    quad_g = np.bincount(rows, weights=quad, minlength=order.n_groups)
    lin_g = np.bincount(rows, weights=lin, minlength=order.n_groups)
    if not np.all(quad_g > 0):
        raise ValueError("every tie group needs positive total curvature")
    fitted = isotonic_regression(lin_g / quad_g, weights=quad_g, increasing=True).x
    return order.expand_group_values(np.clip(fitted, 0.0, 1.0))


def reference_isotonic_box_projection(targets, weights, order: RowOrder) -> np.ndarray:
    """List-stack pool-adjacent-violators form of
    :func:`nefshrink.isotonic_box_projection`, pooling left to right.

    Where the projection makes no pre-pooling pass (a tie group of zero
    weight, or a single group) it does the same arithmetic in the same
    order, and the two agree bit for bit.  When every group has positive
    weight the projection first pools whole decreasing runs; that reaches
    the same fit with sums added in another order, so the two then agree
    to rounding.
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

    # pool adjacent violators: stack of merged block accumulators
    stack: list[list[float]] = []
    for g in range(n_groups):
        cur = [swt[g], sw[g], st[g], cnt[g], float(g)]  # last slot: rightmost group
        while stack:
            prev = stack[-1]
            pv = prev[0] / prev[1] if prev[1] > 0 else prev[2] / prev[3]
            cv = cur[0] / cur[1] if cur[1] > 0 else cur[2] / cur[3]
            if pv <= cv:
                break
            stack.pop()
            cur = [prev[k] + cur[k] for k in range(4)] + [cur[4]]
        stack.append(cur)

    group_values = np.empty(n_groups)
    left = 0
    for blk in stack:
        right = int(blk[4])
        value = blk[0] / blk[1] if blk[1] > 0 else blk[2] / blk[3]
        group_values[left : right + 1] = value
        left = right + 1

    return np.clip(order.expand_group_values(group_values), 0.0, 1.0)
