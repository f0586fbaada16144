"""Monotone projection, risk-estimate minimizers, and their grid oracles."""

import gc
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nefshrink import (
    DataMatrix,
    FitResult,
    RowOrder,
    aure,
    isotonic_box_projection,
    make_family,
    minimize_aure,
    minimize_true_loss,
    minimize_ure,
    sample_feasible_weights,
    sample_matrix,
    squared_error_loss,
    ure,
    variance_function,
)

from nefshrink import estimators, families, optimize
from nefshrink.risk import _loss_rows

from conftest import family_case
from oracles import (
    grid_minimize_separable_quadratic,
    grid_oracle_ure,
    group_of_row,
    reference_isotonic_box_projection,
    reference_weight_step,
)


def enumerate_feasible(order, values):
    """Literal enumeration of monotone weight vectors over a value lattice."""
    for combo in itertools.combinations_with_replacement(values, order.n_groups):
        yield order.expand_group_values(np.array(combo))


def random_tau_instance(rng, n, p, kind="poisson"):
    """Instance with distinct-ish tau row sums so the ordering bites."""
    spec, theta, _ = family_case(kind, n, p, rng)
    if spec.trials is not None:
        raise ValueError("use a non-trial family here")
    tau = rng.integers(1, 4, (n, p))
    return sample_matrix(spec, theta, tau, seed=int(rng.integers(1 << 30)))


def is_feasible_loop(order, b):
    """Per-group loop form of ``RowOrder.is_feasible``, kept as its reference."""
    b = np.asarray(b, dtype=float).reshape(-1)
    if b.shape != (order.n,):
        return False
    if np.any(b < 0.0) or np.any(b > 1.0):
        return False
    along = b[order.permutation]
    if np.any(np.diff(along) < 0.0):
        return False
    for g in range(order.n_groups):
        vals = along[order.group_ids == g]
        if vals.max() - vals.min() > 0.0:
            return False
    return True


@st.composite
def orders_with_ties(draw):
    """A tie-heavy order and weights that walk by small steps inside each
    tie group, so a group can drift away from a single value."""
    n = draw(st.integers(1, 12))
    order = RowOrder.from_row_sums(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    levels = draw(st.lists(st.sampled_from([-0.1, 0.0, 0.2, 0.5, 0.8, 1.0]),
                           min_size=order.n_groups, max_size=order.n_groups))
    steps = draw(st.lists(st.sampled_from([0.0, 0.04, 0.08, -0.04]), min_size=n, max_size=n))
    walk = np.cumsum(steps)
    first = np.flatnonzero(np.diff(order.group_ids, prepend=-1))
    b = np.empty(n)
    b[order.permutation] = np.sort(levels)[order.group_ids] + walk - walk[first][order.group_ids]
    return order, b


@st.composite
def flat_row_cases(draw):
    """Row curvatures with random zeros and linear coefficients, on a
    random tie structure.  With ``spread`` every tie group keeps a row with
    curvature; otherwise whole groups may be flat.  Flat pulls take either
    sign: all zero, all positive, all negative, or mixed, so a group of
    flat rows alone may be pulled toward either bound."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = RowOrder.from_row_sums(rng.integers(1, draw(st.integers(1, n)) + 1, n))
    quad = rng.uniform(0.1, 3.0, n)
    quad[rng.uniform(size=n) < draw(st.sampled_from([0.2, 0.5, 0.8]))] = 0.0
    spread = draw(st.booleans())
    if spread:
        first = np.flatnonzero(np.diff(order.group_ids, prepend=-1))
        keep = order.permutation[first]  # one row per group
        quad[keep] = np.where(quad[keep] > 0, quad[keep], 1.0)
    lin = rng.uniform(-3.0, 3.0, n) * rng.uniform(0.0, 2.0, n) ** 3
    flat = quad == 0
    sign = draw(st.sampled_from([0.0, 1.0, -1.0, None]))  # None: mixed signs
    if sign is not None:
        lin[flat] = sign * np.abs(lin[flat])
    return order, quad, lin, spread


@st.composite
def projection_cases(draw):
    """Up to 60 rows with a random tie structure, targets outside [0, 1]
    and weights with random zeros, whole tie groups of zeros included.
    Targets and weights come from small per-case palettes, so pooled block
    values often tie exactly and the merge rule for ties is exercised."""
    n = draw(st.integers(1, 60))
    levels = draw(st.integers(1, n))
    order = RowOrder.from_row_sums(draw(st.lists(st.integers(1, levels), min_size=n, max_size=n)))
    target = st.floats(-2.0, 3.0) | st.sampled_from([-1.0, 0.0, 0.1, 0.3, 0.5, 0.7, 1.0, 2.0])
    weight = st.floats(0.0, 5.0) | st.sampled_from([0.0, 0.1, 0.3, 1.0, 3.0])
    t_palette = draw(st.lists(target, min_size=1, max_size=6))
    w_palette = draw(st.lists(weight, min_size=1, max_size=4))
    targets = np.array(draw(st.lists(st.sampled_from(t_palette), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(st.sampled_from(w_palette), min_size=n, max_size=n)))
    zero_groups = draw(st.lists(st.booleans(), min_size=order.n_groups, max_size=order.n_groups))
    weights[np.asarray(zero_groups)[group_of_row(order)]] = 0.0
    return order, targets, weights


@st.composite
def positive_projection_cases(draw):
    """Up to ~500 tie groups, every weight positive, so the projection
    pre-pools decreasing runs in passes.  Targets lie in [-0.5, 1.5], so
    some blocks clip; in some cases a leading share of the targets is
    sorted along the order, which leaves fewer violators and can skip the
    passes."""
    n = draw(st.integers(2, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = RowOrder.from_row_sums(rng.integers(1, draw(st.integers(1, 500)) + 1, n))
    targets = rng.uniform(-0.5, 1.5, n)
    along = targets[order.permutation]
    k = int(draw(st.sampled_from([0.0, 0.0, 0.5, 0.9, 1.0])) * n)
    along[:k] = np.sort(along[:k])
    targets[order.permutation] = along
    weights = rng.uniform(0.01, 3.0, n) * draw(st.sampled_from([1.0, 1e-3, 1e3]))
    return order, targets, weights


@st.composite
def descent_cases(draw, single_group=False):
    """Normal, Poisson or gamma data with tied or all-distinct tau row sums;
    with ``single_group`` every row has the same tau row (one tie group)."""
    kind = draw(st.sampled_from(["normal", "poisson", "gamma"]))
    n, p = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec, theta, _ = family_case(kind, n, p, rng)
    if single_group:
        tau = np.repeat(rng.integers(1, 4, (1, p)), n, axis=0)
    elif draw(st.booleans()):
        # every row copies one of a few tau rows, so row sums tie
        levels = rng.integers(1, 4, (draw(st.integers(1, 3)), p))
        tau = levels[rng.integers(0, len(levels), n)]
    else:
        tau = rng.integers(1, 4, (n, p))
        tau[:, 0] += 4 * p * rng.permutation(n)  # shifts larger than any other spread
    data = sample_matrix(spec, theta, tau.astype(float), seed=int(rng.integers(1 << 30)))
    return theta, data


class TestRowOrder:
    def test_permutation_descends_by_row_sums(self):
        order = RowOrder.from_row_sums([2.0, 4.0, 3.0])
        np.testing.assert_array_equal(order.permutation, [1, 2, 0])
        np.testing.assert_array_equal(order.group_ids, [0, 1, 2])

    def test_ties_share_groups(self):
        order = RowOrder.from_row_sums([3.0, 1.0, 3.0])
        np.testing.assert_array_equal(order.permutation, [0, 2, 1])
        np.testing.assert_array_equal(order.group_ids, [0, 0, 1])
        assert order.n_groups == 2

    def test_feasibility_predicate(self):
        order = RowOrder.from_row_sums([2.0, 4.0])  # requires b1 >= b2
        assert order.is_feasible([0.9, 0.4])
        assert not order.is_feasible([0.4, 0.9])
        assert not order.is_feasible([1.2, 0.4])
        tied = RowOrder.from_row_sums([2.0, 2.0])
        assert tied.is_feasible([0.4, 0.4])
        assert not tied.is_feasible([0.4, 0.5])
        assert not order.is_feasible([np.nan, np.nan])
        assert not order.is_feasible([np.nan, 0.4])
        assert not tied.is_feasible([np.nan, np.nan])
        assert not tied.is_feasible([np.inf, np.inf])

    @settings(max_examples=300, deadline=None)
    @given(orders_with_ties())
    def test_feasibility_matches_the_group_loop(self, case):
        order, b = case
        assert order.is_feasible(b) == is_feasible_loop(order, b)

    @settings(max_examples=300, deadline=None)
    @given(orders_with_ties(), st.integers(0, 11),
           st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1.0, 1.5, -1e-300]))
    def test_feasibility_with_one_odd_entry(self, case, at, odd):
        # the box is tested at the ends after the monotone test: a NaN or an
        # infinity anywhere still fails, as does any entry outside [0, 1]
        order, b = case
        b = b.copy()
        b[at % order.n] = odd
        assert order.is_feasible(b) == (is_feasible_loop(order, b) and np.isfinite(b).all())

    def test_kept_group_starts_and_tie_steps(self):
        order = RowOrder.from_row_sums([3.0, 1.0, 3.0, 2.0, 1.0])
        np.testing.assert_array_equal(order.group_starts, [0, 2, 3])
        np.testing.assert_array_equal(order.tied_steps, [True, False, False, True])
        assert order.group_starts is order.group_starts
        for array in (order.group_starts, order.tied_steps):
            assert not array.flags.writeable

    def test_expand_and_inverse(self):
        order = RowOrder.from_row_sums([3.0, 1.0, 3.0])
        np.testing.assert_array_equal(group_of_row(order), [0, 1, 0])
        np.testing.assert_array_equal(
            order.expand_group_values([0.2, 0.7]), [0.2, 0.7, 0.2]
        )


class TestIsotonicBoxProjection:
    def test_already_feasible_is_untouched(self):
        order = RowOrder.from_row_sums([2.0, 4.0])  # b1 >= b2
        out = isotonic_box_projection([0.9, 0.4], [1.0, 1.0], order)
        np.testing.assert_array_equal(out, [0.9, 0.4])

    def test_violating_pair_pools_to_mean(self):
        order = RowOrder.from_row_sums([2.0, 4.0])
        out = isotonic_box_projection([0.3, 0.8], [1.0, 1.0], order)
        np.testing.assert_allclose(out, [0.55, 0.55])

    def test_weighted_triple_matches_fine_grid(self):
        # exact lattice optimum at 1e-3 via the dynamic program
        order = RowOrder.from_row_sums([3.0, 2.0, 1.0])  # b1 <= b2 <= b3
        targets = np.array([1.4, 0.2, 0.5])
        weights = np.array([2.0, 1.0, 1.0])
        out = isotonic_box_projection(targets, weights, order)
        np.testing.assert_allclose(out, [0.875, 0.875, 0.875])
        b_grid, _ = grid_minimize_separable_quadratic(
            weights, -2.0 * weights * targets, order, 1e-3
        )
        assert np.abs(out - b_grid).max() < 2e-3

    def test_box_clip_after_pooling(self):
        order = RowOrder.from_row_sums([3.0, 2.0, 1.0])
        out = isotonic_box_projection([-0.5, 0.2, 1.7], [1.0, 1.0, 1.0], order)
        np.testing.assert_array_equal(out, [0.0, 0.2, 1.0])

    def test_zero_weight_passes_through_to_nearest_feasible(self):
        order = RowOrder.from_row_sums([3.0, 2.0, 1.0])  # b1 <= b2 <= b3
        # free middle coordinate above its feasible interval
        out = isotonic_box_projection([0.2, 0.9, 0.5], [1.0, 0.0, 1.0], order)
        np.testing.assert_allclose(out, [0.2, 0.5, 0.5])
        # free middle coordinate below its feasible interval
        out = isotonic_box_projection([0.3, 0.1, 0.8], [1.0, 0.0, 1.0], order)
        np.testing.assert_allclose(out, [0.3, 0.3, 0.8])
        # free middle coordinate inside its feasible interval
        out = isotonic_box_projection([0.2, 0.4, 0.8], [1.0, 0.0, 1.0], order)
        np.testing.assert_allclose(out, [0.2, 0.4, 0.8])

    def test_all_zero_weights_pool_to_plain_mean(self):
        order = RowOrder.from_row_sums([2.0, 1.0])
        out = isotonic_box_projection([0.9, 0.4], [0.0, 0.0], order)
        np.testing.assert_allclose(out, [0.65, 0.65])

    def test_tie_groups_share_one_value(self):
        order = RowOrder.from_row_sums([2.0, 2.0])
        out = isotonic_box_projection([0.9, 0.4], [1.0, 1.0], order)
        np.testing.assert_allclose(out, [0.65, 0.65])

    def test_idempotent_and_feasible_on_random_inputs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 8))
            order = RowOrder.from_row_sums(rng.integers(1, 4, n).astype(float))
            targets = rng.uniform(-0.5, 1.5, n)
            weights = rng.uniform(0.0, 3.0, n)
            weights[rng.uniform(size=n) < 0.25] = 0.0
            out = isotonic_box_projection(targets, weights, order)
            assert order.is_feasible(out)
            again = isotonic_box_projection(out, weights, order)
            # re-averaging a pooled tie group costs at most an ulp
            np.testing.assert_allclose(again, out, rtol=0, atol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(projection_cases())
    def test_matches_the_list_stack_reference(self, case):
        order, targets, weights = case
        out = isotonic_box_projection(targets, weights, order)
        reference = reference_isotonic_box_projection(targets, weights, order)
        if order.n_groups == 1 or not np.bincount(group_of_row(order), weights).all():
            # no pre-pooling passes: the same arithmetic in the same order
            assert np.array_equal(out, reference)
        else:
            # passes pool in another order, which moves only the summation order
            np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12)
        assert order.is_feasible(out)

    @settings(max_examples=200, deadline=None)
    @given(positive_projection_cases())
    def test_positive_weights_pool_in_passes_to_the_same_fit(self, case):
        order, targets, weights = case
        passes = []
        pool_runs = optimize._pool_decreasing_runs

        def spy(swt, sw):
            pooled = pool_runs(swt, sw)
            passes.append((len(swt), len(pooled[0])))
            return pooled

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize, "_pool_decreasing_runs", spy)
            out = isotonic_box_projection(targets, weights, order)

        # the passes run, and pool, exactly when the first keeps at most 3/4 of the groups
        swt = np.bincount(order.group_ids, weights=(weights * targets)[order.permutation])
        sw = np.bincount(order.group_ids, weights=weights[order.permutation])
        value = swt / sw
        kept = 1 + np.count_nonzero(value[:-1] <= value[1:])
        if order.n_groups == 1:
            assert passes == []
        else:
            [(before, after)] = passes
            assert before == order.n_groups
            assert (after < before) == (kept <= optimize._PASS_KEEP * order.n_groups)

        np.testing.assert_allclose(out, reference_isotonic_box_projection(targets, weights, order),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out, reference_weight_step(weights, weights * targets, order),
                                   rtol=1e-12, atol=1e-12)
        assert order.is_feasible(out)

        # optimality, whatever the pooling order: along the order the group values
        # rise, and no prefix of a run of equal values may move down (unless at 0)
        # nor any suffix up (unless at 1) and lower the weighted squared error
        fitted = out[order.permutation][np.flatnonzero(np.diff(order.group_ids, prepend=-1))]
        assert np.all(np.diff(fitted) >= 0.0)
        runs = np.flatnonzero(np.diff(fitted, prepend=np.nan) != 0.0)
        for run in np.split(np.arange(order.n_groups), runs[1:]):
            v = fitted[run[0]]
            residual = swt[run] - sw[run] * v
            tol = 1e-12 * (1.0 + np.sum(np.abs(swt[run]) + sw[run] * abs(v)))
            if v > 0.0:
                assert np.cumsum(residual).min() >= -tol
            if v < 1.0:
                assert np.cumsum(residual[::-1]).max() <= tol

    def test_pooling_is_linear_time(self):
        # a rising staircase of 2e5 singleton groups whose last group drags
        # every block into one; pooling that revisits blocks would take hours
        n = 200_000
        order = RowOrder.from_row_sums(np.arange(n, 0, -1))  # identity order
        targets = np.arange(1.0, n + 1.0)
        targets[-1] = 0.5 * n - targets[:-1].sum()  # weighted mean 0.5
        weights = np.ones(n)
        start = time.perf_counter()
        out = isotonic_box_projection(targets, weights, order)
        assert time.perf_counter() - start < 10.0
        expected = np.clip(np.average(targets, weights=weights), 0.0, 1.0)
        assert expected == 0.5
        np.testing.assert_array_equal(out, np.full(n, expected))

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_single_tie_group_matches_the_list_stack_reference(self, n):
        rng = np.random.default_rng(n)
        order = RowOrder.from_row_sums(np.full(n, 3.0))
        for weights in (rng.uniform(0.0, 2.0, n), np.zeros(n)):
            for targets in (rng.uniform(-2.0, 3.0, n), np.full(n, -0.0), np.full(n, 0.4)):
                out = isotonic_box_projection(targets, weights, order)
                assert out.tobytes() == reference_isotonic_box_projection(
                    targets, weights, order).tobytes()

    def test_validation_errors(self):
        order = RowOrder.from_row_sums([2.0, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            isotonic_box_projection([0.5, 0.5], [1.0, -1.0], order)
        with pytest.raises(ValueError, match="length"):
            isotonic_box_projection([0.5], [1.0], order)

    @settings(max_examples=300, deadline=None)
    @given(projection_cases(), st.booleans(), st.integers(0, 59),
           st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324, -0.0, 1e300]))
    @example((RowOrder.from_row_sums([1.0, 1.0]), np.full(2, 1e300), np.full(2, 1e300)),
             True, 0, 1e300)  # finite, but the products overflow
    def test_one_bad_entry_is_reported_as_the_entrywise_checks_do(self, case, in_weights,
                                                                  at, bad):
        # a negative weight, -inf included, is "nonnegative"; then NaN or an
        # infinity is "finite", wherever it sits; finite inputs pass
        order, targets, weights = case
        targets, weights = targets.copy(), weights.copy()
        (weights if in_weights else targets)[at % order.n] = bad

        def message(project):
            try:
                with np.errstate(over="ignore"):  # the example's pooled products
                    project(targets, weights, order)
            except ValueError as exc:
                return str(exc)
            return None

        expected = message(reference_isotonic_box_projection)
        assert message(isotonic_box_projection) == expected
        if in_weights and bad < 0.0:
            assert expected == "weights must be nonnegative"
        elif not np.isfinite(bad):
            assert expected == "targets and weights must be finite"


class TestWeightStep:
    @settings(max_examples=300, deadline=None)
    @given(flat_row_cases())
    def test_flat_rows_keep_their_linear_pull(self, case):
        # a flat row (zero curvature) still pulls on the block it pools into
        order, quad, lin, spread = case
        b, value = optimize._weight_step(quad, lin, np.zeros(order.n), order, 1)
        assert order.is_feasible(b)
        if spread:
            np.testing.assert_allclose(b, reference_weight_step(quad, lin, order),
                                       rtol=1e-12, atol=1e-12)
        # whole flat groups too: no lattice point beats the step
        _, lattice = grid_minimize_separable_quadratic(quad, -2.0 * lin, order, 1e-3)
        assert value <= lattice + 1e-12 * (1.0 + abs(lattice))

    @pytest.mark.parametrize("sums, quad, lin, expected", [
        ([3, 3], [0.0, 0.0], [-6.49, 0.98], [0.0, 0.0]),
        ([3, 3], [0.0, 0.0], [6.49, -0.98], [1.0, 1.0]),
        ([3, 3], [0.0, 0.0], [1.5, -1.5], [0.5, 0.5]),  # no net pull: mean of fills
        ([3, 3, 1], [0.0, 0.0, 2.0], [-6.49, 0.98, 1.0], [0.0, 0.0, 0.5]),
    ])
    def test_flat_block_takes_the_bound_its_pull_picks(self, sums, quad, lin, expected):
        order = RowOrder.from_row_sums(sums)
        quad, lin = np.array(quad), np.array(lin)
        b, value = optimize._weight_step(quad, lin, np.zeros(order.n), order, 1)
        np.testing.assert_array_equal(b, expected)
        assert value == pytest.approx(float(quad @ b**2 - 2.0 * lin @ b), rel=1e-15)
        _, lattice = grid_minimize_separable_quadratic(quad, -2.0 * lin, order, 1e-3)
        assert value <= lattice + 1e-12 * (1.0 + abs(lattice))

    @pytest.mark.parametrize("sums, quad, lin, expected", [
        ([3, 3], [1e-320, 1e-320], [1.0, 0.5], [1.0, 1.0]),
        ([3, 3], [1e-320, 1.0], [1.0, 0.5], [1.0, 1.0]),  # pools 1.5 / (1 + 1e-320)
        ([3, 1], [1e-320, 1.0], [-1.0, 0.5], [0.0, 0.5]),
    ])
    def test_overflowing_target_keeps_its_linear_pull(self, sums, quad, lin, expected):
        """A row whose ``lin_i / a_i`` overflows pools ``lin_i``, as a flat row
        does, with no overflow warning."""
        order = RowOrder.from_row_sums(sums)
        quad, lin = np.array(quad), np.array(lin)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b, value = optimize._weight_step(quad, lin, np.zeros(order.n), order, 1)
        np.testing.assert_array_equal(b, expected)
        assert value == pytest.approx(float(quad @ b**2 - 2.0 * lin @ b), rel=1e-15)


class TestSeparableGridOracle:
    def test_matches_literal_enumeration(self):
        rng = np.random.default_rng(3)
        values = np.linspace(0.0, 1.0, 21)  # 0.05 lattice
        for _ in range(25):
            n = int(rng.integers(1, 5))
            order = RowOrder.from_row_sums(rng.integers(1, 4, n).astype(float))
            quad = rng.uniform(0.0, 3.0, n)
            lin = rng.uniform(-3.0, 3.0, n)
            b_dp, val_dp = grid_minimize_separable_quadratic(quad, lin, order, 0.05)
            best = min(
                (float(quad @ (b**2) + lin @ b), tuple(b))
                for b in enumerate_feasible(order, values)
            )
            assert val_dp == pytest.approx(best[0], abs=1e-12)
            np.testing.assert_allclose(b_dp, best[1], atol=1e-12)


class TestMinimizeAure:
    def test_identical_rows_push_to_full_shrinkage(self):
        data = DataMatrix(np.tile([2.0, 3.0], (4, 1)), np.ones((4, 2)), make_family("poisson"))
        result = minimize_aure(data)
        np.testing.assert_array_equal(result.b, np.ones(4))
        assert result.converged

    def test_closed_form_two_row_case(self):
        data = DataMatrix([[0.0, 0.0], [10.0, 10.0]], np.ones((2, 2)), make_family("normal"))
        result = minimize_aure(data)
        np.testing.assert_allclose(result.b, [0.02, 0.02], rtol=1e-12)
        assert result.objective == pytest.approx(aure(data, result.b), abs=0)

    def test_dominates_coarse_lattice(self, rng):
        values = np.linspace(0.0, 1.0, 21)
        for trial in range(10):
            data = random_tau_instance(rng, 3, 2)
            result = minimize_aure(data)
            for b in enumerate_feasible(RowOrder.from_tau(data.tau), values):
                assert result.objective <= aure(data, b) + 1e-12

    def test_matches_fine_dynamic_program(self, rng):
        for trial in range(5):
            data = random_tau_instance(rng, 4, 2, kind="normal")
            result = minimize_aure(data)
            order = RowOrder.from_tau(data.tau)
            ybar = data.y.mean(axis=0)
            a = ((data.y - ybar) ** 2).sum(axis=1)
            spec = data.spec
            v = (spec.nu0 + spec.nu1 * data.y + spec.nu2 * data.y**2) / (data.tau + spec.nu2)
            s = (1.0 - 1.0 / data.n) * v.sum(axis=1)
            b_dp, _ = grid_minimize_separable_quadratic(a, -2.0 * s, order, 1e-4)
            assert abs(result.objective - aure(data, b_dp)) < 1e-8
            assert np.abs(result.b - b_dp).max() < 1e-3

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 30).flatmap(lambda n: st.permutations(range(n))),
        st.integers(1, 4),
        st.sampled_from(["normal", "poisson", "gamma"]),
        st.integers(0, 2**32 - 1),
    )
    # two rows sit exactly on ybar (flat rows) in a tie group; in the other
    # row order ybar is an ulp off and they keep their pull
    @example(perm=[*range(14), 15, 16, 14, *range(17, 21)], p=1, kind="poisson", seed=1)
    def test_row_permutation_equivariance(self, perm, p, kind, seed):
        data = random_tau_instance(np.random.default_rng(seed), len(perm), p, kind)
        result = minimize_aure(data)
        result_p = minimize_aure(DataMatrix(data.y[perm], data.tau[perm], data.spec))
        # bincount sums inside a tie group follow row order
        np.testing.assert_allclose(result_p.b, result.b[perm], rtol=1e-12, atol=0)
        assert result_p.objective == pytest.approx(result.objective, rel=1e-12)

    def test_needs_two_rows(self):
        data = DataMatrix([[1.0, 2.0]], np.ones((1, 2)), make_family("normal"))
        with pytest.raises(ValueError, match="two rows"):
            minimize_aure(data)


class TestMinimizeUre:
    def test_constant_matrix_fully_shrinks(self):
        data = DataMatrix(np.full((3, 2), 5.0), np.ones((3, 2)), make_family("normal"))
        result = minimize_ure(data)
        np.testing.assert_array_equal(result.b, np.ones(3))
        np.testing.assert_array_equal(result.mu, np.full(2, 5.0))
        assert result.objective == pytest.approx(-1.0)
        assert result.converged

    def test_single_row_fixed_point_and_oracle(self):
        data = DataMatrix([[2.0, -1.0]], np.ones((1, 2)), make_family("normal"))
        result = minimize_ure(data)
        # stationarity: b = clip(S/A(mu)), mu = clip(weighted mean) = Y when b > 0
        s = 2.0  # V = 1 per cell
        a = float(((data.y[0] - result.mu) ** 2).sum())
        if a > 0:
            assert result.b[0] == pytest.approx(min(1.0, max(0.0, s / a)))
        _, _, oracle_val = grid_oracle_ure(data, 1e-3)
        assert result.objective <= oracle_val + 1e-6

    def test_poisson_instance_beats_coarse_oracle(self, rng):
        data = random_tau_instance(rng, 3, 2)
        result = minimize_ure(data)
        _, _, oracle_val = grid_oracle_ure(data, 1e-2)
        assert result.objective <= oracle_val + 1e-6

    def test_two_sided_agreement_with_fine_oracle(self, rng):
        for trial in range(12):
            n = 1 + trial % 2
            data = random_tau_instance(rng, n, 2, kind="normal")
            result = minimize_ure(data)
            _, _, oracle_val = grid_oracle_ure(data, 1e-3)
            assert result.objective <= oracle_val + 1e-9
            assert oracle_val <= result.objective + 1e-4

    def test_output_feasible_and_consistent(self, rng):
        for trial in range(10):
            data = random_tau_instance(rng, 6, 3)
            result = minimize_ure(data)
            assert RowOrder.from_tau(data.tau).is_feasible(result.b)
            assert np.all(np.abs(result.mu) <= data.data_range)
            assert result.objective == ure(data, result.b, result.mu)

    def test_row_permutation_equivariance(self, rng):
        data = random_tau_instance(rng, 5, 2)
        result = minimize_ure(data)
        perm = np.random.default_rng(0).permutation(5)
        permuted = DataMatrix(data.y[perm], data.tau[perm], data.spec)
        result_p = minimize_ure(permuted)
        np.testing.assert_allclose(result_p.b, result.b[perm], atol=1e-12)
        assert result_p.objective == pytest.approx(result.objective, rel=1e-12)

    def test_surrogate_row_sums_derived_once_per_matrix(self, rng, monkeypatch):
        calls = []

        def counting(spec, t):
            calls.append(1)
            return variance_function(spec, t)

        data = random_tau_instance(rng, 6, 3)
        monkeypatch.setattr(families, "variance_function", counting)
        minimize_ure(data)
        assert len(calls) == 1
        minimize_aure(data)
        assert len(calls) == 1
        minimize_aure(DataMatrix(data.y, data.tau, data.spec))
        assert len(calls) == 2

    def test_iteration_budget_reports_nonconvergence(self, rng):
        data = random_tau_instance(rng, 8, 3)
        result = minimize_ure(data, max_iter=1)
        assert not result.converged
        assert RowOrder.from_tau(data.tau).is_feasible(result.b)


def loss_descent(data, theta, max_iter):
    """The loss oracle's grand-mean descent with a budget of ``max_iter`` outer
    iterations; :func:`minimize_true_loss` runs it with ``optimize._MAX_ITER``,
    and descends once more from the zero target when it ends at zero weights."""
    mu0 = np.clip(data.column_means, -data.data_range, data.data_range)
    return optimize._descend(data, *_loss_rows(data, theta), max_iter, np.ones(data.n), mu0)


class TestSharedDescent:
    @settings(max_examples=200, deadline=None)
    @given(descent_cases(), st.sampled_from([1, 2, 200]), st.booleans())
    def test_fits_are_feasible_and_descend_from_every_start(self, case, max_iter, constant):
        # URE and the realized loss are minimized by the same descent; n <= 12
        # adds a restart per row, and a constant matrix has flat rows (a_i = 0)
        theta, data = case
        if constant:
            data = DataMatrix(y=np.full_like(data.y, data.y[0, 0]), tau=data.tau, spec=data.spec)
        order = RowOrder.from_tau(data.tau)
        mu0 = np.clip(data.column_means, -data.data_range, data.data_range)

        def loss(b, mu):
            return squared_error_loss((1 - b)[:, None] * data.y + b[:, None] * mu, theta)

        oracle = loss_descent(data, theta, max_iter)
        if max_iter == optimize._MAX_ITER:
            restarted = minimize_true_loss(data, theta).objective
            if oracle.b.any():
                assert restarted == oracle.objective
            else:  # stuck at zero weights: the zero-target restart can only gain
                assert restarted <= oracle.objective
                half = loss(np.full(data.n, 0.5), np.zeros(data.p))
                assert restarted <= half + 1e-12 * (1.0 + half)
        fits = [(minimize_ure(data, max_iter), lambda b, mu: ure(data, b, mu)), (oracle, loss)]
        for result, objective in fits:
            assert order.is_feasible(result.b)
            assert np.all(np.abs(result.mu) <= data.data_range)
            for c in (0.5, 0.0, 1.0):
                start = objective(np.full(data.n, c), mu0)
                # the rounding slack _check_descent allows per step
                assert result.objective <= start + 1e-12 * (1.0 + abs(start))
        # the row form sums terms the size of the no-shrinkage loss; they cancel
        # where the oracle drives the loss to ~0 (n = 1: b = 1 and mu = theta)
        scale = squared_error_loss(data.y, theta)
        assert oracle.objective == pytest.approx(
            loss(oracle.b, oracle.mu), rel=1e-12, abs=1e-12 * scale)

    def test_flat_grand_mean_start_still_escapes(self):
        # the weight step at the flat grand mean is the fixed point b = 0;
        # the full-shrinkage start reads it as an ascent, keeps b = 1 and
        # descends from there
        theta, data = flat_start_case()
        assert minimize_true_loss(data, theta).objective == 0.6101659961418955

    def test_memory_does_not_grow_with_the_iteration_count(self):
        # a clustered normal matrix with 29 tie groups, on which both fits run
        # dozens of outer iterations; each start holds only its current iterate
        rng = np.random.default_rng(4)
        n, p, k = rng.integers(10, 200), rng.integers(1, 6), rng.integers(2, 6)
        centres = rng.normal(0.0, 5.0, (k, p))
        theta = centres[rng.integers(0, k, n)] + rng.normal(0.0, 0.1, (n, p))
        tau = rng.integers(1, 11, (n, p)).astype(float)
        data = sample_matrix(make_family("normal"), theta, tau, seed=4)
        assert (data.n, data.p) == (148, 5)
        minimize_ure(data)  # the matrix keeps its order and S_i from here on

        def peak(max_iter, fit):
            tracemalloc.start()
            try:
                result = fit(max_iter)
                return tracemalloc.get_traced_memory()[1], result
            finally:
                tracemalloc.stop()

        for fit in (lambda m: minimize_ure(data, m), lambda m: loss_descent(data, theta, m)):
            short, _ = peak(2, fit)
            long, result = peak(200, fit)
            assert result.iterations > 20
            assert long <= 2 * short

    def test_loss_oracle_projects_once_per_iteration(self, monkeypatch):
        # one grand-mean start and no restarts: one projection per outer
        # iteration
        rng = np.random.default_rng(2024)
        spec, theta, _ = family_case("poisson", 200, 5, rng)
        tau = rng.integers(1, 1001, (200, 5)).astype(float)  # randint:1,1000
        data = sample_matrix(spec, theta, tau, seed=7)
        calls = []

        def counting(*args):
            calls.append(1)
            return isotonic_box_projection(*args)

        monkeypatch.setattr(optimize, "isotonic_box_projection", counting)
        result = minimize_true_loss(data, theta)
        assert result.iterations > 1
        assert len(calls) == result.iterations

    def test_frees_its_state_without_the_cycle_collector(self):
        # the descent forms no reference cycle, so reference counting frees
        # each call's rows, weight steps and targets when it returns
        rng = np.random.default_rng(2024)
        spec, theta, _ = family_case("poisson", 400, 10, rng)
        tau = rng.integers(1, 1001, (400, 10)).astype(float)
        data = sample_matrix(spec, theta, tau, seed=7)
        minimize_ure(data)  # the matrix keeps its order and S_i from here on
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(20):
                minimize_true_loss(data, theta)
                minimize_ure(data)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert live < 1 << 20


def flat_start_case():
    """A constant Poisson matrix, where every row is flat at the grand mean.

    The loss oracle's pull sum there is -1.8e-15, so its weight step returns
    the fixed point b = 0 (loss 4.1067); the b = 1 start reads that step one
    ulp higher than its own objective, rejects it and reaches 0.6102."""
    rng = np.random.default_rng(4501)
    n, p = rng.integers(1, 21), rng.integers(1, 5)
    spec, theta, _ = family_case("poisson", n, p, rng)
    return theta, DataMatrix(y=np.full((n, p), 3.5), tau=np.ones((n, p)), spec=spec)


def rounding_residue_case():
    """A 7x3 Poisson draw with one tau row (3, 1, 3) whose sum S equals its
    spread up to an ulp, so c is 1 up to rounding and URE there,
    sum S (1 - c) / np, is rounding residue: the fit read 0.0 and the
    certificate 1.2688263138573217e-16."""
    counts = np.array([[3, 1, 12], [4, 2, 9], [1, 4, 6], [9, 3, 3], [7, 1, 4], [5, 5, 10],
                       [9, 3, 3]])
    tau = np.tile([3.0, 1.0, 3.0], (7, 1))
    return DataMatrix(counts / tau, tau, make_family("poisson"))


class TestSingleTieGroup:
    @pytest.mark.parametrize("n", [5, 40])
    def test_fits_in_closed_form_without_descent(self, n, monkeypatch):
        # one weight step at the clipped grand mean, reported as iteration 1;
        # no row sits on the grand mean, so the step is the public projection
        rng = np.random.default_rng(n)
        spec, theta, tau = family_case("normal", n, 3, rng)
        data = sample_matrix(spec, theta, tau, seed=5)
        calls = []

        def counting(*args):
            calls.append(1)
            return isotonic_box_projection(*args)

        def no_descent(*args):
            raise AssertionError("a single tie group needs no descent")

        monkeypatch.setattr(optimize, "isotonic_box_projection", counting)
        monkeypatch.setattr(optimize, "_descend", no_descent)
        result = minimize_ure(data)
        assert data.order.n_groups == 1
        assert len(calls) == 1
        assert result.iterations == 1 and result.converged

    @settings(max_examples=150, deadline=None)
    @given(descent_cases(single_group=True).map(lambda case: case[1]))
    @example(data=rounding_residue_case())
    def test_grand_mean_descent_is_global(self, data):
        # every feasible b is a constant c, and for every c > 0 the column
        # mean minimizes URE over mu, so the minimum is at mu = ybar and
        # c = clip(sum S / sum ||y_i - ybar||^2, 0, 1)
        s = data.surrogate_row_sums
        result = minimize_ure(data)
        # the best descent over the grand-mean, zero and every-row starts
        m_range = data.data_range
        starts = [(np.ones(data.n), np.clip(data.column_means, -m_range, m_range))]
        starts += [(np.full(data.n, 0.5), mu) for mu in (np.zeros(data.p), *data.y)]
        rich = min((optimize._descend(data, s, None, s, optimize._MAX_ITER, b, mu)
                    for b, mu in starts), key=lambda fit: fit.objective)
        assert result.objective <= rich.objective + 1e-12 * (1.0 + abs(rich.objective))
        ybar = data.column_means
        spread = float(((data.y - ybar) ** 2).sum())
        c = 1.0 if spread == 0.0 else min(max(float(s.sum()) / spread, 0.0), 1.0)
        certificate = ure(data, np.full(data.n, c), ybar)
        # at c = 1 both values are the rounding residue of cancelling terms this size
        scale = (float(s.sum()) + spread) / data.y.size
        assert result.objective == pytest.approx(certificate, rel=1e-12, abs=1e-12 * scale)
        # the fit is that constant at the clipped column mean; when URE is 0
        # for every c (no spread, all S_i = 0) the tie breaks at 0.5
        np.testing.assert_array_equal(
            result.mu, np.clip(ybar, -data.data_range, data.data_range))
        assert np.all(result.b == result.b[0])
        expected = 0.5 if spread == 0.0 and not s.any() else c
        assert result.b[0] == pytest.approx(expected, rel=1e-12)
        assert result.iterations == 1 and result.converged

    def test_several_tie_groups_keep_their_restarts(self, monkeypatch):
        seen = []
        descend = optimize._descend

        def recording(data, lin, cross, const, max_iter, b, mu):
            seen.append((b.copy(), mu.copy()))
            return descend(data, lin, cross, const, max_iter, b, mu)

        def starts_of(data):
            seen.clear()
            minimize_ure(data)
            return list(seen)

        monkeypatch.setattr(optimize, "_descend", recording)
        rng = np.random.default_rng(11)
        small, large = random_tau_instance(rng, 6, 3), random_tau_instance(rng, 13, 3)
        assert small.order.n_groups > 1 and large.order.n_groups > 1
        spec, theta, tau = family_case("poisson", 6, 3, rng)
        assert starts_of(sample_matrix(spec, theta, tau, seed=3)) == []  # one tie group
        # full shrinkage toward the clipped grand mean first, then half
        # shrinkage toward the zero target and, up to _ROW_RESTART_CAP rows,
        # toward every row in order
        m_range = small.data_range
        expected = [(np.ones(6), np.clip(small.column_means, -m_range, m_range)),
                    *((np.full(6, 0.5), mu) for mu in (np.zeros(3), *small.y))]
        got = starts_of(small)
        assert len(got) == 8
        for (b, mu), (want_b, want_mu) in zip(got, expected):
            np.testing.assert_array_equal(b, want_b)
            np.testing.assert_array_equal(mu, want_mu)
        got = starts_of(large)
        assert len(got) == 2
        np.testing.assert_array_equal(got[0][0], np.ones(13))
        np.testing.assert_array_equal(got[1][0], np.full(13, 0.5))
        assert not got[1][1].any()

    def test_the_earliest_start_wins_a_tie(self, monkeypatch):
        # every start ends at the same objective: the fit keeps the first
        # start's result, and the loss oracle keeps its grand-mean result
        # over the zero-target restart
        ends = []

        def tied(data, lin, cross, const, max_iter, b, mu):
            ends.append(FitResult(np.zeros(data.n), mu, 0.25, 1, True))
            return ends[-1]

        rng = np.random.default_rng(11)
        data = random_tau_instance(rng, 6, 3)
        monkeypatch.setattr(optimize, "_descend", tied)
        assert minimize_ure(data) is ends[0] and len(ends) == 8
        ends.clear()
        monkeypatch.setattr(estimators, "_descend", tied)
        assert minimize_true_loss(data, data.y) is ends[0] and len(ends) == 2


class TestGridOracleUre:
    def test_tiny_case_matches_literal_enumeration(self):
        data = DataMatrix([[2.0]], np.ones((1, 1)), make_family("normal"))
        b, mu, val = grid_oracle_ure(data, 0.5)
        best = np.inf
        for bv in (0.0, 0.5, 1.0):
            for mv in np.arange(-2.0, 2.0 + 0.25, 0.5):
                best = min(best, ure(data, [bv], [mv]))
        assert val == pytest.approx(best, abs=1e-15)
        assert val == ure(data, b, mu)

    def test_refinement_never_increases(self, rng):
        data = random_tau_instance(rng, 2, 2)
        _, _, coarse = grid_oracle_ure(data, 0.25)
        _, _, fine = grid_oracle_ure(data, 0.125)
        assert fine <= coarse

    def test_size_guards(self):
        spec = make_family("normal")
        big = DataMatrix(np.zeros((6, 2)) + 1.0, np.ones((6, 2)), spec)
        with pytest.raises(ValueError, match="n <= 5"):
            grid_oracle_ure(big, 0.5)
        wide = DataMatrix(np.ones((2, 4)), np.ones((2, 4)), spec)
        with pytest.raises(ValueError, match="n <= 5"):
            grid_oracle_ure(wide, 0.5)
        tall = DataMatrix(np.ones((5, 2)), np.arange(1, 11).reshape(5, 2), spec)
        with pytest.raises(ValueError, match="monotone weight vectors"):
            grid_oracle_ure(tall, 1e-3)


class TestSampleFeasibleWeights:
    def test_always_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            order = RowOrder.from_row_sums(rng.integers(1, 4, n).astype(float))
            b = sample_feasible_weights(order, rng)
            assert order.is_feasible(b)

    def test_deterministic_per_seed(self):
        order = RowOrder.from_row_sums([3.0, 2.0, 1.0])
        a = sample_feasible_weights(order, np.random.default_rng(11))
        b = sample_feasible_weights(order, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)


class TestIterationBudget:
    def test_budget_below_one_is_rejected(self, rng):
        data = random_tau_instance(rng, 4, 2)
        calls = [
            lambda: minimize_ure(data, max_iter=0),
            lambda: estimators.fit(data, "location", max_iter=0),
            lambda: estimators.fit(data, "grand_mean", max_iter=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="max_iter must be at least 1"):
                call()
