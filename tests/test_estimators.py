"""Shrinkage estimator assembly and the benchmark competitors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nefshrink import (
    DataMatrix,
    RowOrder,
    competitor,
    default_tau,
    estimate_sup_gap,
    fit,
    make_family,
    minimize_true_loss,
    sample_matrix,
    shrink_to_grand_mean,
    shrink_to_location,
    squared_error_loss,
    ure,
    aure,
)

from conftest import family_case
from oracles import grid_oracle_ure


@st.composite
def edge_cases(draw):
    """Normal, Poisson or gamma data with p = 1 or a few columns, some
    columns possibly constant, and tau all 1, all 1e9, or 1 next to 1e9."""
    kind = draw(st.sampled_from(["normal", "poisson", "gamma"]))
    n, p = draw(st.integers(1, 15)), draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec, theta, _ = family_case(kind, n, p, rng)
    levels = {"ones": [1.0], "huge": [1e9], "mixed": [1.0, 1e9]}[
        draw(st.sampled_from(["ones", "huge", "mixed"]))]
    tau = rng.choice(levels, (n, p))
    y = sample_matrix(spec, theta, tau, seed=int(rng.integers(1 << 30))).y
    constant = rng.uniform(size=p) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    y[:, constant] = y[0, constant]
    return DataMatrix(y, tau, spec)


NORMAL, POISSON = make_family("normal"), make_family("poisson")


class TestShrinkToLocation:
    def test_zero_weights_return_data(self, rng):
        y = rng.normal(size=(3, 2))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        est = shrink_to_location(data, np.zeros(3), np.zeros(2))
        np.testing.assert_array_equal(est.theta_hat, y)
        np.testing.assert_array_equal(est.b, np.zeros(3))
        np.testing.assert_array_equal(est.mu, np.zeros(2))

    def test_full_weights_return_target_rows(self, rng):
        y = rng.normal(size=(3, 2))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        mu = np.array([0.5, -0.5])
        est = shrink_to_location(data, np.ones(3), mu)
        np.testing.assert_array_equal(est.theta_hat, np.tile(mu, (3, 1)))

    def test_quarter_pull(self):
        data = DataMatrix([[4.0]], [[1]], NORMAL)
        est = shrink_to_location(data, [0.25], [0.0])
        assert est.theta_hat[0, 0] == 3.0

    def test_entries_between_data_and_target(self, rng):
        for kind in ("normal", "gamma"):
            spec, theta, tau = family_case(kind, 6, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=8)
            b = np.full(6, float(rng.uniform(0, 1)))
            mu = rng.uniform(-0.3, 0.3, 3)
            est = shrink_to_location(data, b, mu).theta_hat
            lo = np.minimum(data.y, mu)
            hi = np.maximum(data.y, mu)
            assert np.all(est >= lo - 1e-15) and np.all(est <= hi + 1e-15)

    def test_rejects_infeasible_weights(self):
        data = DataMatrix([[1.0], [2.0]], [[2], [1]], NORMAL)  # b1 <= b2 required
        with pytest.raises(ValueError, match="monotone"):
            shrink_to_location(data, [0.9, 0.1], [0.0])
        with pytest.raises(ValueError, match="monotone"):
            shrink_to_location(data, [1.5, 1.5], [0.0])
        with pytest.raises(ValueError, match="finite"):
            shrink_to_location(data, [np.nan, np.nan], [0.0])

    def test_rejects_target_outside_box(self):
        data = DataMatrix([[1.0, -2.0]], [[1, 1]], NORMAL)
        with pytest.raises(ValueError, match="data range"):
            shrink_to_location(data, [0.5], [3.0, 0.0])
        with pytest.raises(ValueError, match="data range"):
            shrink_to_location(data, [0.5], [np.nan, 0.0])


class TestShrinkToGrandMean:
    def test_full_weights_collapse_to_column_means(self, rng):
        y = rng.normal(size=(4, 2))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        est = shrink_to_grand_mean(data, np.ones(4))
        np.testing.assert_allclose(est.theta_hat, np.tile(y.mean(axis=0), (4, 1)))
        np.testing.assert_array_equal(est.mu, y.mean(axis=0))

    def test_zero_weights_return_data(self, rng):
        y = rng.normal(size=(4, 2))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        np.testing.assert_array_equal(shrink_to_grand_mean(data, np.zeros(4)).theta_hat, y)

    def test_midpoint_pull(self):
        data = DataMatrix([[0.0, 0.0], [2.0, 2.0]], np.ones((2, 2)), NORMAL)
        est = shrink_to_grand_mean(data, [0.5, 0.5])
        np.testing.assert_array_equal(est.theta_hat, [[0.5, 0.5], [1.5, 1.5]])

    def test_constant_weights_preserve_column_means(self, rng):
        y = rng.normal(size=(5, 3))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        est = shrink_to_grand_mean(data, np.full(5, 0.3))
        np.testing.assert_allclose(est.theta_hat.mean(axis=0), y.mean(axis=0))


class TestFit:
    def test_constant_matrix_estimate_equals_data(self):
        data = DataMatrix(np.full((3, 2), 4.0), np.ones((3, 2)), POISSON)
        result, est = fit(data, "location")
        np.testing.assert_allclose(est.theta_hat, data.y)
        np.testing.assert_array_equal(result.b, np.ones(3))

    def test_location_objective_matches_oracle_on_seeded_instance(self, rng):
        spec, theta, tau = family_case("normal", 2, 2, rng)
        data = sample_matrix(spec, theta, tau, seed=21)
        result, est = fit(data, "location")
        _, _, oracle_val = grid_oracle_ure(data, 1e-3)
        assert result.objective <= oracle_val + 1e-4
        assert oracle_val <= result.objective + 1e-4

    def test_grand_mean_mode_on_identical_rows(self):
        data = DataMatrix(np.tile([1.0, 3.0], (4, 1)), np.ones((4, 2)), POISSON)
        result, est = fit(data, "grand_mean")
        np.testing.assert_array_equal(result.b, np.ones(4))
        np.testing.assert_allclose(est.theta_hat, np.tile([1.0, 3.0], (4, 1)))

    def test_fitted_objective_consistency(self, rng):
        for mode in ("location", "grand_mean"):
            spec, theta, tau = family_case("gamma", 5, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=31)
            result, est = fit(data, mode)
            recomputed = (
                ure(data, result.b, result.mu) if mode == "location" else aure(data, result.b)
            )
            assert result.objective == recomputed
            expected = (1 - result.b)[:, None] * data.y + result.b[:, None] * result.mu
            np.testing.assert_array_equal(est.theta_hat, expected)

    @settings(max_examples=150, deadline=None)
    @given(edge_cases())
    def test_edge_inputs_fit_finite_feasible_and_consistent(self, data):
        for mode in ("location", "grand_mean")[: data.n]:  # grand mean needs two rows
            result, _ = fit(data, mode)
            assert np.all(np.isfinite(result.b)) and np.all(np.isfinite(result.mu))
            assert data.order.is_feasible(result.b)
            if mode == "location":  # the grand mean is a column mean, not boxed
                assert np.all(np.abs(result.mu) <= data.data_range)
                assert result.objective == ure(data, result.b, result.mu)
            else:
                assert result.objective == aure(data, result.b)

    def test_grand_mean_target_is_the_unboxed_column_mean(self):
        # the recorded case: seven equal entries whose computed mean reads
        # 2.0923816610000006, one ulp above the data range 2.092381661
        y = np.full((7, 1), 2.092381661)
        tau = np.ones((7, 1))
        tau[3] = 1e9
        data = DataMatrix(y, tau, POISSON)
        result, est = fit(data, "grand_mean")
        np.testing.assert_array_equal(result.mu, data.column_means)
        assert np.abs(result.mu).max() > data.data_range
        np.testing.assert_array_equal(shrink_to_grand_mean(data, result.b).theta_hat,
                                      est.theta_hat)

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    @pytest.mark.parametrize("kind", ["poisson", "gamma", "multinomial", "negmultinomial"])
    def test_rejects_observations_outside_the_support(self, rng, kind, mode):
        spec, theta, tau = family_case(kind, 3, 2, rng)
        y = np.array(theta)
        y[1, 0] = -0.25
        with pytest.raises(ValueError, match=f"^{kind} observations must be nonnegative$"):
            DataMatrix(y, tau, spec)
        y[1, 0] = 0.0  # the edge of the support
        data = DataMatrix(y, tau, spec)
        assert data.order.is_feasible(fit(data, mode)[0].b)

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_multinomial_observations_must_lie_in_the_unit_interval(self, mode):
        """Above 1, V(y) = y - y^2 turns negative; 0 and 1 are reachable shares."""
        spec, tau = make_family("multinomial", trials=4), np.full((2, 2), 4)
        with pytest.raises(ValueError, match=r"^multinomial observations must lie in \[0, 1\]$"):
            DataMatrix([[0.5, 2.0], [3.0, 0.25]], tau, spec)
        result, _ = fit(DataMatrix([[1.0, 0.0], [0.0, 1.0]], tau, spec), mode)
        assert np.all(np.isfinite(result.b))

    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_multinomial_rows_must_sum_to_at_most_one(self, mode):
        """No N-trial draw gives shares 0.9 and 0.9 in one row."""
        spec, tau = make_family("multinomial", trials=4), np.full((2, 2), 4)
        with pytest.raises(ValueError, match="^multinomial observation rows must sum to at most 1$"):
            DataMatrix([[0.9, 0.9], [0.1, 0.2]], tau, spec)
        result, _ = fit(DataMatrix([[0.5, 0.5], [0.1, 0.2]], tau, spec), mode)  # a full row
        assert np.all(np.isfinite(result.b))

    def test_sampled_multinomial_rows_pass(self):
        """A draw that uses all N trials sums its shares c_j / N to 1 up to
        rounding, and some such rows read one ulp above 1; every sampled
        row must still fit, in both modes."""
        above_one = 0
        for trials, p in [(2, 1), (7, 5), (10, 9), (13, 4), (49, 30)]:
            rng = np.random.default_rng(100 * trials + p)
            spec, n = make_family("multinomial", trials=trials), 300
            theta = rng.dirichlet(np.ones(p), n) * 0.99  # most draws use all N trials
            data = sample_matrix(spec, theta, default_tau(spec, n, p), seed=trials + p)
            above_one += np.count_nonzero(data.y.sum(axis=1) > 1.0)
            for mode in ("location", "grand_mean"):
                result, _ = fit(data, mode)
                assert data.order.is_feasible(result.b)
        assert above_one > 0

    def test_normal_observations_may_be_negative(self):
        data = DataMatrix([[-1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)), NORMAL)
        result, _ = fit(data, "location")
        assert RowOrder.from_tau(data.tau).is_feasible(result.b)

    def test_unknown_mode(self):
        data = DataMatrix([[1.0]], [[1]], NORMAL)
        with pytest.raises(ValueError, match="mode"):
            fit(data, "ridge")


class TestCompetitors:
    def test_no_shrinkage_returns_data(self, rng):
        y = rng.normal(size=(3, 2))
        data = DataMatrix(y, np.ones_like(y), NORMAL)
        est = competitor(data, "no_shrinkage")
        np.testing.assert_array_equal(est.theta_hat, y)
        np.testing.assert_array_equal(est.b, np.zeros(3))

    def test_half_to_zero_halves(self):
        data = DataMatrix([[2.0, -4.0]], [[1, 1]], NORMAL)
        est = competitor(data, "half_to_zero")
        np.testing.assert_array_equal(est.theta_hat, [[1.0, -2.0]])
        np.testing.assert_array_equal(est.b, [0.5])
        np.testing.assert_array_equal(est.mu, [0.0, 0.0])

    def test_oracle_loss_needs_theta(self):
        data = DataMatrix([[1.0]], [[1]], NORMAL)
        with pytest.raises(ValueError, match="true means"):
            competitor(data, "oracle_loss")

    def test_unknown_kind(self):
        data = DataMatrix([[1.0]], [[1]], NORMAL)
        with pytest.raises(ValueError, match="stein"):
            competitor(data, "stein")

    def test_oracle_loss_beats_lattice_competitors(self, rng):
        # grid search over feasible (b, mu) on the true loss, n = 3
        for trial in range(5):
            spec, theta, _ = family_case("normal", 3, 2, rng)
            tau = rng.integers(1, 4, (3, 2))
            data = sample_matrix(spec, theta, tau, seed=100 + trial)
            est = competitor(data, "oracle_loss", theta=theta)
            oracle_loss = squared_error_loss(est.theta_hat, theta)
            order = RowOrder.from_tau(data.tau)
            m = data.data_range
            bvals = np.linspace(0, 1, 11)
            mvals = np.linspace(-m, m, 9)
            for combo in itertools.combinations_with_replacement(bvals, order.n_groups):
                b = order.expand_group_values(np.array(combo))
                for mu in itertools.product(mvals, repeat=2):
                    candidate = (1 - b)[:, None] * data.y + b[:, None] * np.array(mu)
                    assert oracle_loss <= squared_error_loss(candidate, theta) + 1e-9


class TestMinimizeTrueLoss:
    def test_perfect_target_recovers_means(self, rng):
        # theta rows all equal: full shrinkage onto mu = theta row is lossless
        theta = np.tile([0.5, 1.5], (4, 1))
        spec = make_family("normal")
        data = sample_matrix(spec, theta, np.ones((4, 2)), seed=3)
        if data.data_range >= 1.5:  # target must stay inside the data box
            result = minimize_true_loss(data, theta)
            est = (1 - result.b)[:, None] * data.y + result.b[:, None] * result.mu
            assert squared_error_loss(est, theta) <= squared_error_loss(data.y, theta)

    def test_objective_is_realized_loss(self, rng):
        spec, theta, tau = family_case("poisson", 4, 2, rng)
        data = sample_matrix(spec, theta, tau, seed=13)
        result = minimize_true_loss(data, theta)
        est = (1 - result.b)[:, None] * data.y + result.b[:, None] * result.mu
        assert result.objective == pytest.approx(squared_error_loss(est, theta), abs=1e-15)
        assert RowOrder.from_tau(data.tau).is_feasible(result.b)

    def test_oracle_and_sup_gap_share_the_mean_shape_check(self, rng):
        spec, theta, tau = family_case("poisson", 4, 2, rng)
        data = sample_matrix(spec, theta, tau, seed=13)
        fitted, _ = fit(data)
        message = r"^mean shape \(4, 1\) does not match the observation shape \(4, 2\)$"
        with pytest.raises(ValueError, match=message):
            minimize_true_loss(data, theta[:, :1])
        with pytest.raises(ValueError, match=message):
            estimate_sup_gap(data, theta[:, :1], 2, 0, fitted)
