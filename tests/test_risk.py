"""Loss, unbiased risk estimates, and the closed-form risk oracle."""

import numpy as np
import pytest

from nefshrink import families
from nefshrink import (
    DataMatrix,
    FamilySpec,
    FamilyKind,
    RowOrder,
    aure,
    make_family,
    sample_matrix,
    shrink_to_grand_mean,
    shrink_to_location,
    squared_error_loss,
    ure,
    variance_function,
)

from conftest import ALL_FAMILIES, family_case
from oracles import true_risk


def ure_by_hand(y, tau, b, mu, nu):
    """Independent term-by-term sum of the location risk estimate."""
    n, p = len(y), len(y[0])
    total = 0.0
    for i in range(n):
        for j in range(p):
            v = nu[0] + nu[1] * y[i][j] + nu[2] * y[i][j] ** 2
            total += b[i] ** 2 * (y[i][j] - mu[j]) ** 2
            total += (1 - 2 * b[i]) * v / (tau[i][j] + nu[2])
    return total / (n * p)


def aure_by_hand(y, tau, b, nu):
    n, p = len(y), len(y[0])
    ybar = [sum(y[i][j] for i in range(n)) / n for j in range(p)]
    total = 0.0
    for i in range(n):
        for j in range(p):
            v = nu[0] + nu[1] * y[i][j] + nu[2] * y[i][j] ** 2
            total += b[i] ** 2 * (y[i][j] - ybar[j]) ** 2
            total += (1 - 2 * (1 - 1 / n) * b[i]) * v / (tau[i][j] + nu[2])
    return total / (n * p)


class TestSquaredErrorLoss:
    def test_exact_recovery_is_zero(self, rng):
        theta = rng.normal(size=(4, 3))
        assert squared_error_loss(theta, theta) == 0.0

    def test_single_cell(self):
        assert squared_error_loss([[3.0]], [[1.0]]) == 4.0

    def test_no_shrinkage_is_raw_deviation(self, rng):
        y = rng.normal(size=(5, 2))
        theta = rng.normal(size=(5, 2))
        assert squared_error_loss(y, theta) == pytest.approx(np.mean((y - theta) ** 2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            squared_error_loss([[1.0, 2.0]], [[1.0]])


class TestUre:
    def test_normal_no_shrinkage_is_one(self, rng):
        y = rng.normal(size=(3, 4))
        data = DataMatrix(y, np.ones_like(y), make_family("normal"))
        assert ure(data, np.zeros(3), np.zeros(4)) == pytest.approx(1.0)

    def test_normal_full_shrinkage_onto_data(self):
        data = DataMatrix(np.ones((2, 2)), np.ones((2, 2)), make_family("normal"))
        value = ure(data, [1.0, 1.0], [1.0, 1.0])
        assert value == -1.0

    def test_poisson_half_shrinkage(self):
        y = [[2.0, 3.0], [4.0, 1.0]]
        tau = [[1, 1], [1, 1]]
        expected = ure_by_hand(y, tau, [0.5, 0.5], [2.0, 2.0], (0.0, 1.0, 0.0))
        assert expected == 0.375  # frozen from the hand oracle
        data = DataMatrix(y, tau, make_family("poisson"))
        assert ure(data, [0.5, 0.5], [2.0, 2.0]) == expected

    def test_matches_hand_oracle_on_random_inputs(self, rng):
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, 4, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=1)
            b = np.full(4, float(rng.uniform(0, 1)))
            mu = rng.uniform(-1, 1, 3)
            by_hand = ure_by_hand(data.y.tolist(), data.tau.tolist(), b.tolist(),
                                  mu.tolist(), (spec.nu0, spec.nu1, spec.nu2))
            assert ure(data, b, mu) == pytest.approx(by_hand, rel=1e-12)

    def test_column_means_target_reads_the_kept_row_norms(self, rng):
        """At ``mu = column_means`` the curvature is the matrix's kept
        ``centered_row_norms``, the same arithmetic, so the same bits."""
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, 5, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=4)
            b = rng.uniform(0, 1, 5)
            mu = data.y.mean(axis=0)
            s = data.surrogate_row_sums
            direct = float((b * b * ((data.y - mu) ** 2).sum(axis=1) - 2.0 * b * s + s).sum()
                           / data.y.size)
            assert "centered_row_norms" not in vars(data)
            assert ure(data, b, mu) == direct
            assert "centered_row_norms" in vars(data)  # computed once, kept for AURE

    def test_quadratic_in_each_weight(self, rng):
        # three-point interpolation reproduces a fourth point to machine precision,
        # and the leading coefficient equals sum_j (Y_ij - mu_j)^2 / (n p)
        spec = make_family("poisson")
        theta = rng.uniform(0.5, 2.0, (3, 2))
        data = sample_matrix(spec, theta, np.ones((3, 2)), seed=9)
        mu = rng.uniform(0.0, 2.0, 2)
        base = rng.uniform(0, 1, 3)
        for i in range(3):
            def at(v):
                b = base.copy()
                b[i] = v
                return ure(data, b, mu)

            f0, f_half, f1 = at(0.0), at(0.5), at(1.0)
            lead = 2 * (f1 - 2 * f_half + f0)
            expected_lead = np.sum((data.y[i] - mu) ** 2) / data.y.size
            assert lead == pytest.approx(expected_lead, rel=1e-9, abs=1e-12)
            # quadratic through the three points evaluated at 0.3
            linear = f1 - f0 - lead
            assert at(0.3) == pytest.approx(f0 + 0.3 * linear + 0.09 * lead, rel=1e-12)

    def test_rejects_nonpositive_denominator(self):
        # checked when the matrix is built, before any risk estimate reads it
        bad = FamilySpec(FamilyKind.MULTINOMIAL, 0.0, 1.0, -1.0, trials=1)
        with pytest.raises(ValueError, match="positive"):
            DataMatrix([[0.25, 0.5]], [[1, 1]], bad)

    def test_weight_and_target_shapes(self):
        data = DataMatrix([[1.0, 2.0]], [[1, 1]], make_family("normal"))
        with pytest.raises(ValueError, match="weights"):
            ure(data, [0.5, 0.5], [0.0, 0.0])
        with pytest.raises(ValueError, match="target"):
            ure(data, [0.5], [0.0])


class TestSurrogateRowSums:
    @pytest.mark.parametrize("n, p", [(11, 4), (7, 37)])
    def test_row_blocks_sum_as_the_whole_matrix(self, rng, monkeypatch, n, p):
        monkeypatch.setattr(families, "_BLOCK_CELLS", 3 * p)  # blocks of 3 rows, one ragged
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, n, p, rng)
            data = sample_matrix(spec, theta, tau, seed=2)
            whole = (variance_function(spec, data.y) / (data.tau + spec.nu2)).sum(axis=1)
            assert np.array_equal(data.surrogate_row_sums, whole)


class TestAure:
    def test_no_shrinkage_is_one_for_normal(self, rng):
        y = rng.normal(size=(4, 3))
        data = DataMatrix(y, np.ones_like(y), make_family("normal"))
        assert aure(data, np.zeros(4)) == pytest.approx(1.0)

    def test_two_row_hand_value(self):
        data = DataMatrix([[0.0], [2.0]], np.ones((2, 1)), make_family("normal"))
        assert aure(data, [1.0, 1.0]) == 1.0

    def test_equals_ure_at_zero_weights(self, rng):
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, 5, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=2)
            mu = rng.uniform(-1, 1, 3)
            assert aure(data, np.zeros(5)) == pytest.approx(
                ure(data, np.zeros(5), mu), rel=1e-14
            )

    def test_matches_hand_oracle(self, rng):
        spec, theta, tau = family_case("gamma", 4, 2, rng)
        data = sample_matrix(spec, theta, tau, seed=3)
        b = np.full(4, 0.7)
        by_hand = aure_by_hand(data.y.tolist(), data.tau.tolist(), b.tolist(),
                               (spec.nu0, spec.nu1, spec.nu2))
        assert aure(data, b) == pytest.approx(by_hand, rel=1e-12)

    def test_gap_to_ure_at_grand_mean(self, rng):
        # aure(b) - ure(b, ybar) == (2/(n*n*p)) sum_ij b_i V(Y_ij)/(tau_ij + nu2)
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, 5, 3, rng)
            data = sample_matrix(spec, theta, tau, seed=4)
            b = np.full(5, float(rng.uniform(0, 1)))
            ybar = data.column_means
            v = (spec.nu0 + spec.nu1 * data.y + spec.nu2 * data.y**2) / (data.tau + spec.nu2)
            expected = 2.0 * float(b @ v.sum(axis=1)) / (5 * data.y.size)
            gap = aure(data, b) - ure(data, b, ybar)
            assert gap == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_needs_two_rows(self):
        data = DataMatrix([[1.0, 2.0]], [[1, 1]], make_family("normal"))
        with pytest.raises(ValueError, match="two rows"):
            aure(data, [0.5])


class TestTrueRisk:
    def test_zero_weights_leave_pure_variance(self, rng):
        spec, theta, tau = family_case("poisson", 4, 3, rng)
        value = true_risk(theta, np.zeros(4), np.zeros(3), spec, tau)
        assert value == pytest.approx(np.mean(theta / tau))

    def test_full_weights_leave_pure_bias(self, rng):
        spec, theta, tau = family_case("normal", 4, 3, rng)
        mu = rng.uniform(-1, 1, 3)
        value = true_risk(theta, np.ones(4), mu, spec, tau)
        assert value == pytest.approx(np.mean((theta - mu) ** 2))

    def test_poisson_half_to_zero(self):
        value = true_risk([[2.0]], [0.5], [0.0], make_family("poisson"), [[1]])
        assert value == 0.25 * 4.0 + 0.25 * 2.0 == 1.5

    def test_monte_carlo_agreement_smoke(self):
        # full-scale checks live in the acceptance suite
        spec = make_family("gamma", shape=2.0)
        theta = np.array([[1.0, 2.0], [3.0, 0.5]])
        tau = np.ones((2, 2))
        b = np.array([0.4, 0.4])
        mu = np.zeros(2)  # always inside the data box
        m = 4000
        losses = np.empty(m)
        for r in range(m):
            data = sample_matrix(spec, theta, tau, seed=(50, r))
            losses[r] = squared_error_loss(shrink_to_location(data, b, mu).theta_hat, theta)
        se = losses.std(ddof=1) / np.sqrt(m)
        assert abs(losses.mean() - true_risk(theta, b, mu, spec, tau)) < 5 * se

    def test_rejects_invalid_means(self):
        with pytest.raises(ValueError, match="positive"):
            true_risk([[-1.0]], [0.5], [0.0], make_family("poisson"), [[1]])


class TestGrandMean:
    def test_column_means(self):
        data = DataMatrix([[1.0, 2.0], [3.0, 4.0]], np.ones((2, 2)), make_family("normal"))
        np.testing.assert_array_equal(data.column_means, [2.0, 3.0])

    def test_constant_matrix(self):
        data = DataMatrix(np.full((3, 2), 7.0), np.ones((3, 2)), make_family("normal"))
        np.testing.assert_array_equal(data.column_means, [7.0, 7.0])

    def test_single_row(self):
        data = DataMatrix([[5.0, -1.0]], np.ones((1, 2)), make_family("normal"))
        np.testing.assert_array_equal(data.column_means, [5.0, -1.0])


class TestUnbiasednessSmoke:
    """Small-scale Monte Carlo versions of the unbiasedness identities."""

    @pytest.mark.parametrize("kind,offset", [("poisson", 10_000), ("multinomial", 20_000)])
    def test_ure_tracks_loss(self, kind, offset, rng):
        spec, theta, tau = family_case(kind, 8, 4, rng)
        b = np.full(8, 0.6)
        mu = theta.mean(axis=0) * 0.5
        m = 4000
        diffs = np.empty(m)
        for r in range(m):
            data = sample_matrix(spec, theta, tau, seed=offset + r)
            realized = squared_error_loss(shrink_to_location(data, b, mu).theta_hat, theta)
            diffs[r] = ure(data, b, mu) - realized
        se = diffs.std(ddof=1) / np.sqrt(m)
        assert abs(diffs.mean()) < 5 * se


class TestExactUnbiasedness:
    """URE and AURE are unbiased under any independent law with the family's
    first two moments.  Each cell here has a two-point law on ``{0, theta +
    v/theta}``, ``v = V(theta)/tau``, with probabilities ``v/(theta^2 + v)``
    and ``theta^2/(theta^2 + v)``: mean ``theta``, variance ``v``.  The
    average of estimate minus loss over all ``2^(np)`` outcomes is exact."""

    @pytest.mark.parametrize("kind", ALL_FAMILIES)
    def test_two_point_laws_average_to_zero(self, kind):
        n, p = 4, 3
        rng = np.random.default_rng(ALL_FAMILIES.index(kind))
        spec, theta, _ = family_case(kind, n, p, rng)
        if spec.trials is None:  # heteroscedastic: tau differs across cells
            tau = rng.integers(1, 6, (n, p)).astype(float)
        else:  # one N_i per row; small multinomial means keep every row at most 1
            tau = np.repeat([[4.0], [6.0], [5.0], [4.0]], p, axis=1)
            if kind == "multinomial":
                theta = rng.uniform(0.01, 0.05, (n, p))
        order = RowOrder.from_tau(tau)
        b = order.expand_group_values(np.linspace(0.2, 0.9, order.n_groups))
        mu = 0.5 * theta.mean(axis=0)
        v = variance_function(spec, theta) / tau
        high, p_high = theta + v / theta, theta**2 / (theta**2 + v)
        outcomes = (np.arange(2 ** (n * p))[:, None] >> np.arange(n * p)) & 1 == 1
        weights = np.where(outcomes, p_high.ravel(), 1.0 - p_high.ravel()).prod(axis=1)
        gaps = np.empty((len(outcomes), 2))
        losses = np.empty(len(outcomes))
        for k, cells in enumerate(outcomes):
            data = DataMatrix(np.where(cells.reshape(n, p), high, 0.0), tau, spec)
            losses[k] = squared_error_loss(data.y - b[:, None] * (data.y - mu), theta)
            grand_mean_loss = squared_error_loss(shrink_to_grand_mean(data, b).theta_hat, theta)
            gaps[k] = ure(data, b, mu) - losses[k], aure(data, b) - grand_mean_loss
        assert weights.sum() == pytest.approx(1.0, rel=1e-14)
        assert np.all(np.abs(weights @ gaps) <= 1e-12 * (weights @ losses))
