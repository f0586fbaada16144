"""Family descriptors, samplers, and moment oracles."""

import dataclasses
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nefshrink import (
    DataMatrix,
    Design,
    FamilyKind,
    FamilySpec,
    RowOrder,
    default_tau,
    make_family,
    sample_matrix,
    validate_mean_matrix,
    variance_function,
)

from nefshrink import families

from conftest import ALL_FAMILIES, family_case
from oracles import theoretical_moments


class TestMakeFamily:
    def test_variance_coefficient_triples(self):
        assert (make_family("normal").nu0, make_family("normal").nu1,
                make_family("normal").nu2) == (1.0, 0.0, 0.0)
        poisson = make_family("poisson")
        assert (poisson.nu0, poisson.nu1, poisson.nu2) == (0.0, 1.0, 0.0)
        gamma = make_family("gamma", shape=2.0)
        assert (gamma.nu0, gamma.nu1, gamma.nu2) == (0.0, 0.0, 0.5)
        multinomial = make_family("multinomial", trials=4)
        assert (multinomial.nu0, multinomial.nu1, multinomial.nu2) == (0.0, 1.0, -1.0)
        negmult = make_family("negmultinomial", trials=4)
        assert (negmult.nu0, negmult.nu1, negmult.nu2) == (0.0, 1.0, 1.0)

    def test_accepts_enum_and_token(self):
        from nefshrink import FamilyKind

        assert make_family(FamilyKind.NORMAL) == make_family("normal")

    def test_unknown_token(self):
        with pytest.raises(ValueError, match="weibull"):
            make_family("weibull")

    def test_gamma_needs_positive_shape(self):
        with pytest.raises(ValueError, match="positive"):
            make_family("gamma", shape=0.0)
        # lambda and 1/lambda must both be finite: 1/1e-320 overflows
        for shape in (float("nan"), float("inf"), -float("inf"), 1e-320):
            with pytest.raises(ValueError, match="^gamma shape lambda must be positive and finite"):
                make_family("gamma", shape=shape)
        assert np.isfinite(make_family("gamma", shape=1e-300).nu2)
        with pytest.raises(ValueError, match="shape"):
            make_family("gamma")
        with pytest.raises(ValueError, match="shape"):
            make_family("poisson", shape=1.0)

    def test_trial_count_floors(self):
        with pytest.raises(ValueError, match="N_i >= 2"):
            make_family("multinomial", trials=1)
        with pytest.raises(ValueError, match="N_i >= 1"):
            make_family("negmultinomial", trials=0)
        # the sampler draws N as an int64; an int past the float range is no count either
        for kind in ("multinomial", "negmultinomial"):
            for trials in (2**63, 10**20, 10**400, -(10**400)):
                with pytest.raises(ValueError, match=r"N_i < 2\*\*63$"):
                    make_family(kind, trials=trials)
            assert make_family(kind, trials=2**62).trials == 2**62
        with pytest.raises(ValueError, match="trials"):
            make_family("multinomial")
        with pytest.raises(ValueError, match="trials"):
            make_family("normal", trials=4)


class TestVarianceFunction:
    def test_normal_is_constant_one(self):
        assert variance_function(make_family("normal"), 7.0) == 1.0

    def test_poisson_is_identity(self):
        assert variance_function(make_family("poisson"), 3.0) == 3.0

    def test_gamma_is_scaled_square(self):
        assert variance_function(make_family("gamma", shape=2.0), 4.0) == 8.0

    def test_matches_moments_times_tau(self, rng):
        # machine-precision agreement on 1000 random (theta, tau) per family
        for kind in ALL_FAMILIES:
            spec, theta, _ = family_case(kind, 100, 10, rng)
            tau = rng.integers(1, 6, theta.shape) if spec.trials is None else np.full(theta.shape, 4)
            _, var = theoretical_moments(spec, theta, tau)
            np.testing.assert_allclose(var * tau, variance_function(spec, theta), rtol=1e-15)


class TestTheoreticalMoments:
    def test_negative_multinomial(self):
        mean, var = theoretical_moments(make_family("negmultinomial", trials=4), 2.0, 4)
        assert (mean, var) == (2.0, 1.5)

    def test_multinomial(self):
        mean, var = theoretical_moments(make_family("multinomial", trials=2), 0.5, 2)
        assert (mean, var) == (0.5, 0.125)

    def test_standardized_normal(self):
        mean, var = theoretical_moments(make_family("normal"), -3.0, 1)
        assert (mean, var) == (-3.0, 1.0)

    def test_rejects_boundary_means(self):
        with pytest.raises(ValueError, match="positive"):
            theoretical_moments(make_family("poisson"), 0.0, 1)
        with pytest.raises(ValueError, match="inside"):
            theoretical_moments(make_family("multinomial", trials=4), 1.0, 4)
        with pytest.raises(ValueError, match="positive"):
            theoretical_moments(make_family("gamma", shape=2.0), -1.0, 1)


class TestMeanDomain:
    def test_multinomial_row_mass(self):
        spec = make_family("multinomial", trials=4)
        validate_mean_matrix(spec, [[0.3, 0.3], [0.1, 0.2]])
        with pytest.raises(ValueError, match="sum"):
            validate_mean_matrix(spec, [[0.6, 0.4], [0.1, 0.2]])

    def test_normal_allows_any_finite(self):
        validate_mean_matrix(make_family("normal"), [[-1e6, 0.0, 1e6]])
        with pytest.raises(ValueError, match="finite"):
            validate_mean_matrix(make_family("normal"), [[np.inf]])


class TestSampler:
    def test_same_seed_same_matrix(self, rng):
        for kind in ALL_FAMILIES:
            spec, theta, tau = family_case(kind, 6, 3, rng)
            first = sample_matrix(spec, theta, tau, seed=123)
            second = sample_matrix(spec, theta, tau, seed=123)
            np.testing.assert_array_equal(first.y, second.y)
            assert not np.array_equal(first.y, sample_matrix(spec, theta, tau, seed=124).y)

    def test_poisson_zero_mean_row_degenerates(self):
        spec = make_family("poisson")
        theta = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        data = sample_matrix(spec, theta, np.ones_like(theta), seed=5)
        assert np.all(data.y[0] == 0.0)

    def test_poisson_monte_carlo_mean(self):
        # mean of 1e5 entries of Poisson(2)/1 within 3 * sqrt(2/1e5) of 2
        m = 100_000
        spec = make_family("poisson")
        theta = np.full((m, 1), 2.0)
        data = sample_matrix(spec, theta, np.ones((m, 1)), seed=11)
        assert abs(data.y.mean() - 2.0) < 3.0 * np.sqrt(2.0 / m)

    def test_multinomial_lattice_and_row_mass(self, rng):
        spec = make_family("multinomial", trials=4)
        theta = rng.uniform(0.05, 0.2, (50, 3))
        tau = np.full((50, 3), 4)
        data = sample_matrix(spec, theta, tau, seed=3)
        counts = data.y * 4
        np.testing.assert_array_equal(counts, np.round(counts))
        assert np.all(data.y >= 0) and np.all(data.y <= 1)
        assert np.all(data.y.sum(axis=1) <= 1.0)

    def test_multinomial_rejects_full_row_mass(self):
        spec = make_family("multinomial", trials=4)
        with pytest.raises(ValueError, match="sum"):
            sample_matrix(spec, [[0.5, 0.5]], [[4, 4]], seed=0)

    def test_trial_tau_must_be_row_constant(self):
        spec = make_family("negmultinomial", trials=4)
        with pytest.raises(ValueError, match="constant"):
            sample_matrix(spec, [[1.0, 1.0]], [[4, 3]], seed=0)

    def test_tau_must_be_positive_integers(self):
        spec = make_family("normal")
        with pytest.raises(ValueError, match="positive integers"):
            sample_matrix(spec, [[0.0]], [[0]], seed=0)
        with pytest.raises(ValueError, match="positive integers"):
            sample_matrix(spec, [[0.0]], [[1.5]], seed=0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            sample_matrix(make_family("normal"), [[0.0, 1.0]], [[1]], seed=0)


def reference_draw(spec, theta, tau, seed) -> np.ndarray:
    """The per-family generator calls of one draw, on one fresh generator."""
    rng = np.random.default_rng(seed)
    kind = spec.kind.value
    if kind == "normal":
        return rng.normal(theta, 1.0 / np.sqrt(tau))
    if kind == "poisson":
        return rng.poisson(tau * theta) / tau
    if kind == "gamma":
        return rng.gamma(tau * spec.shape, theta / (tau * spec.shape))
    counts = tau[:, 0].astype(int)
    if kind == "multinomial":
        pvals = np.hstack([theta, (1.0 - theta.sum(axis=1))[:, None]])
        return rng.multinomial(counts, pvals)[:, :theta.shape[1]] / counts[:, None]
    mix = rng.gamma(counts.astype(float), 1.0)
    return rng.poisson(mix[:, None] * theta) / counts[:, None]


# tau entries of one design: small, past 2**53 where float sums round, and huge
MIXED_TAU = (1, 2, 3, 7, 2**53 + 2, 2**62, 1e300)
NORMAL = make_family("normal")


class TestDesign:
    """A design checks (theta, tau) and derives the row order and the
    sampler's inputs once; each draw is that of the family's generator calls."""

    @pytest.mark.parametrize("kind", ALL_FAMILIES)
    def test_draws_are_those_of_the_generator_calls(self, kind):
        rng = np.random.default_rng(17)
        for trial in range(20):
            n, p = int(rng.integers(1, 30)), int(rng.integers(1, 6))
            spec, theta, tau = family_case(kind, n, p, rng)
            if spec.trials is None and trial % 2:
                tau = rng.integers(1, 6, (n, p)).astype(float)
            elif spec.trials is not None and trial % 2:
                tau = np.repeat(rng.integers(2, 9, (n, 1)), p, axis=1)
            design = Design(spec, theta, tau)
            for seed in (trial, np.random.SeedSequence(trial, spawn_key=(1, 2))):
                expected = reference_draw(spec, theta, np.asarray(tau, dtype=float), seed)
                assert np.array_equal(design.sample(seed).y, expected)
                assert np.array_equal(sample_matrix(spec, theta, tau, seed).y, expected)

    def test_draws_share_the_checked_tau_and_read_only_order(self):
        rng = np.random.default_rng(3)
        spec, theta, _ = family_case("poisson", 9, 3, rng)
        design = Design(spec, theta, rng.integers(1, 3, (9, 3)))
        first, second = design.sample(1), design.sample(2)
        assert design.tau.dtype == float
        assert first.tau is second.tau is design.tau
        assert first.order is second.order is design.order
        reference = RowOrder.from_tau(design.tau)
        np.testing.assert_array_equal(design.order.permutation, reference.permutation)
        np.testing.assert_array_equal(design.order.group_ids, reference.group_ids)
        copy = pickle.loads(pickle.dumps(design, protocol=4))
        np.testing.assert_array_equal(copy.sample(1).y, first.y)
        for order in (design.order, copy.order):
            for array in (order.permutation, order.group_ids):
                assert not array.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.integers(1, 6).flatmap(lambda n: st.integers(1, 4).flatmap(
            lambda p: st.lists(st.lists(st.sampled_from(MIXED_TAU), min_size=p, max_size=p),
                               min_size=n, max_size=n))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tau_only_row_sums_and_order_caches_are_derived_once(self, tau, seed):
        tau = np.array(tau)
        theta = np.random.default_rng(seed).uniform(-2.0, 2.0, tau.shape)
        design = Design(NORMAL, theta, tau)
        data = design.sample(seed)
        order = data.order
        # the design's row sums are the matrix's, and V(Y)/(tau + nu2) summed
        assert data.surrogate_row_sums is design.surrogate_row_sums
        rebuilt = DataMatrix(data.y, tau, NORMAL).surrogate_row_sums
        assert np.array_equal(design.surrogate_row_sums, rebuilt)
        by_variance = (variance_function(NORMAL, data.y) / (tau + NORMAL.nu2)).sum(axis=1)
        assert np.array_equal(design.surrogate_row_sums, by_variance)
        # the order's kept group starts and tie mask, against the sorted row sums
        sums = tau.astype(float).sum(axis=1)[order.permutation]
        starts = [k for k in range(len(sums)) if k == 0 or sums[k] != sums[k - 1]]
        assert np.array_equal(order.group_starts, starts)
        assert np.array_equal(order.tied_steps, sums[1:] == sums[:-1])
        copy = pickle.loads(pickle.dumps(design))
        assert copy.sample(seed).surrogate_row_sums is copy.surrogate_row_sums
        for kept in (design, copy):
            arrays = {"row_sums": kept.surrogate_row_sums, **vars(kept.order)}
            assert set(arrays) == {"row_sums", "permutation", "group_ids", "group_starts",
                                   "tied_steps"}
            for name, array in arrays.items():
                assert np.array_equal(array, {"row_sums": design.surrogate_row_sums,
                                              **vars(order)}[name]), name
                assert not array.flags.writeable, name

    @pytest.mark.parametrize("kind", ["poisson", "gamma", "multinomial", "negmultinomial"])
    def test_row_sums_that_read_observations_stay_per_draw(self, kind):
        spec, theta, tau = family_case(kind, 5, 3, np.random.default_rng(4))
        design = Design(spec, theta, tau)
        assert design.surrogate_row_sums is None
        data = design.sample(0)
        expected = (variance_function(spec, data.y) / (tau + spec.nu2)).sum(axis=1)
        assert np.array_equal(data.surrogate_row_sums, expected)

    def test_checks_theta_and_tau_once_and_each_draw(self):
        normal = make_family("normal")
        with pytest.raises(ValueError, match="positive integers"):
            Design(normal, [[0.0, 1.0]], [[1, 0]])
        with pytest.raises(ValueError, match="shape"):
            Design(normal, [[0.0, 1.0]], [[1]])
        with pytest.raises(ValueError, match="positive"):
            Design(make_family("gamma", shape=2.0), [[1.0, -1.0]], [[1, 1]])
        with pytest.raises(ValueError, match="constant"):
            Design(make_family("multinomial", trials=4), [[0.1, 0.1]], [[4, 3]])
        # a draw's observations are still checked: here against the scale bound
        design = Design(normal, np.full((2, 2), 1e300), np.ones((2, 2)))
        with pytest.raises(ValueError, match="observation scale"):
            design.sample(0)

    @pytest.mark.parametrize("kind, floor", [("multinomial", 2), ("negmultinomial", 1)])
    def test_trial_rows_hold_one_count_below_the_int64_cap(self, kind, floor):
        spec, theta = make_family(kind, trials=4), [[0.1, 0.2], [0.3, 0.1]]
        with pytest.raises(ValueError, match=f"^{kind} tau rows must be constant"):
            Design(spec, theta, [[4, 4], [4, 5]])
        for count in (floor - 1, 2.0**63, 1e300):
            with pytest.raises(ValueError, match=f"^{kind} trial counts .* N_i >= {floor} and"):
                Design(spec, theta, [[4, 4], [count, count]])
        # the largest power of two below 2**63 is drawn as an int64 count
        draw = Design(spec, theta, [[2**62, 2**62], [floor, floor]]).sample(0)
        assert np.all(np.isfinite(draw.y))

    def test_poisson_means_past_numpys_limit_fail_when_built(self):
        # numpy draws a mean up to int64 max - 10 sqrt(int64 max), and no float above it
        limit = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10
        spec = make_family("poisson")
        assert np.isfinite(Design(spec, [[1.0, limit]], [[1, 1]]).sample(0).y).all()
        above = np.nextafter(limit, np.inf)
        message = (f"poisson means tau * theta reach {above:.6g}, above numpy's Poisson "
                   "limit of about 9.2e18")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Design(spec, [[above / 4, 1.0]], [[4, 1]])


# tau entries that the rule must sort: below 1, fractional, not finite, past
# the trial families' int64 cap, and huge but valid for the other families
TAU_VALUES = (0.0, 0.5, 1.0, 2.0, 3.0, np.inf, np.nan, 2.0**62, 2.0**63, 1e300)


def outcome(build):
    """None when ``build()`` returns, else the message of its ValueError."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestTauRule:
    """A DataMatrix and a Design check tau by one rule, when they are built."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(ALL_FAMILIES),
           shape=st.tuples(st.integers(1, 4), st.integers(1, 3)),
           cells=st.lists(st.sampled_from(TAU_VALUES), min_size=12, max_size=12),
           constant_rows=st.booleans())
    def test_matrix_and_design_accept_and_reject_alike(self, kind, shape, cells, constant_rows):
        n, p = shape
        tau = np.array(cells[: n * p]).reshape(n, p)
        if constant_rows:
            tau = np.repeat(tau[:, :1], p, axis=1)
        spec, theta, _ = family_case(kind, n, p, np.random.default_rng(0))
        matrix = outcome(lambda: DataMatrix(theta, tau, spec))  # the means are observations too
        design = outcome(lambda: Design(spec, theta, tau))
        if matrix is None and kind == "poisson" and np.max(tau * theta) > 9.223372006484771e18:
            # a valid tau, but means that numpy cannot draw: only the design says so
            assert design == (f"poisson means tau * theta reach {np.max(tau * theta):.6g}, "
                              "above numpy's Poisson limit of about 9.2e18")
        else:
            assert matrix == design
        valid = bool(np.all((tau >= 1) & (tau < np.inf) & (tau == np.floor(tau))))
        if spec.trials is not None:
            floor = 2 if kind == "multinomial" else 1
            valid &= bool(np.all((tau == tau[:, :1]) & (tau >= floor) & (tau < 2.0**63)))
        assert (matrix is None) == valid, matrix

    @pytest.mark.parametrize("kind, last_row, message", [
        ("poisson", [1.0, 2.5], "tau entries must be finite positive integers"),
        ("multinomial", [3.0, 4.0], r"multinomial tau rows must be constant")])
    def test_every_row_block_is_checked(self, monkeypatch, kind, last_row, message):
        monkeypatch.setattr(families, "_BLOCK_CELLS", 4)  # two rows a block, the last ragged
        spec, theta, _ = family_case(kind, 5, 2, np.random.default_rng(0))
        tau = np.full((5, 2), 3.0)
        Design(spec, theta, tau)
        tau[-1] = last_row
        for build in (lambda: DataMatrix(theta, tau, spec), lambda: Design(spec, theta, tau)):
            with pytest.raises(ValueError, match=f"^{message}"):
                build()

    @pytest.mark.parametrize("kind", ["poisson", "multinomial"])
    def test_default_tau_is_checked_without_a_full_size_temporary(self, kind):
        # the whole-matrix integer test peaked at 8.6 MiB here; a block is 0.6 MiB
        spec = make_family(kind, trials=6 if kind == "multinomial" else None)
        tau = default_tau(spec, 100_000, 10)
        tracemalloc.start()
        try:
            families._check_tau(tau, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_hand_built_spec_needs_positive_tau_plus_nu2(self):
        spec = FamilySpec(FamilyKind.NORMAL, 1.0, 0.0, -1.0)
        for build in (lambda tau: DataMatrix([[0.0]], tau, spec),
                      lambda tau: Design(spec, [[0.0]], tau)):
            with pytest.raises(ValueError, match=r"^tau \+ nu2 must be positive"):
                build([[1]])
            build([[2]])


class TestSampledMoments:
    """Long-run sample moments against the closed-form oracles."""

    M = 120_000

    def _replicated(self, kind, seed):
        # one matrix with M identical rows = M independent replications
        rng = np.random.default_rng(seed)
        spec, theta_row, tau = family_case(kind, 1, 4, rng)
        theta = np.repeat(theta_row, self.M, axis=0)
        tau = np.repeat(tau[:1], self.M, axis=0)
        data = sample_matrix(spec, theta, tau, seed=seed)
        return spec, theta_row[0], tau[0], data.y

    @pytest.mark.parametrize("kind", ALL_FAMILIES)
    def test_mean_and_variance_match(self, kind):
        spec, theta, tau, draws = self._replicated(kind, seed=17)
        mean, var = theoretical_moments(spec, theta, tau)
        m = draws.shape[0]
        # mean within 4 standard errors
        se_mean = np.sqrt(var / m)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)
        # variance within 4 standard errors (empirical fourth-moment SE)
        centered = draws - mean
        sample_var = (centered**2).mean(axis=0)
        se_var = np.sqrt(((centered**2 - sample_var) ** 2).mean(axis=0) / m)
        assert np.all(np.abs(sample_var - var) < 4 * se_var)

    @pytest.mark.parametrize("kind", ALL_FAMILIES)
    def test_variance_surrogate_is_unbiased(self, kind):
        # mean of V(Y)/(tau + nu2) matches Var(Y) within 4 standard errors
        spec, theta, tau, draws = self._replicated(kind, seed=29)
        _, var = theoretical_moments(spec, theta, tau)
        surrogate = variance_function(spec, draws) / (tau + spec.nu2)
        m = draws.shape[0]
        se = np.sqrt(surrogate.var(axis=0, ddof=1) / m)
        # the normal family is degenerate: the surrogate is identically 1
        assert np.all(np.abs(surrogate.mean(axis=0) - var) <= 4 * se)


class TestDataMatrix:
    def test_shape_and_properties(self):
        data = DataMatrix([[1.0, -2.0], [3.0, 4.0]], np.ones((2, 2)), NORMAL)
        assert (data.n, data.p) == (2, 2)
        assert data.data_range == 4.0

    def test_rejects_mismatched_tau(self):
        with pytest.raises(ValueError, match="shape"):
            DataMatrix([[1.0, 2.0]], np.ones((2, 2)), NORMAL)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            DataMatrix([[np.nan]], [[1]], NORMAL)

    def test_fields_cannot_be_reassigned(self):
        data = DataMatrix([[1.0, 2.0]], [[1, 2]], NORMAL)
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.y = np.zeros((1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.tau = np.ones((1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.spec = make_family("poisson")

    def test_float_observations_are_not_copied(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert DataMatrix(y, np.ones((2, 2)), NORMAL).y is y

    def test_float_tau_is_not_copied(self):
        tau = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert DataMatrix(np.ones((2, 2)), tau, NORMAL).tau is tau

    def test_integer_tau_is_converted_and_fractional_tau_rejected(self):
        tau = np.array([[1, 2], [3, 1]])
        data = DataMatrix(np.ones((2, 2)), tau, NORMAL)
        assert data.tau.dtype == float
        np.testing.assert_array_equal(data.tau, tau)
        with pytest.raises(ValueError, match="positive integers"):
            DataMatrix(np.ones((2, 2)), np.array([[1.0, 2.5], [3.0, 1.0]]), NORMAL)
        with pytest.raises(ValueError, match="positive integers"):
            DataMatrix(np.ones((2, 2)), np.array([[1.0, 0.0], [3.0, 1.0]]), NORMAL)

    def test_poisson_observation_below_zero_is_rejected_at_construction(self):
        # before any estimator or risk estimate can read it
        with pytest.raises(ValueError, match="^poisson observations must be nonnegative$"):
            DataMatrix([[1.0, -1.0], [2.0, 0.0]], np.ones((2, 2)), make_family("poisson"))

    def test_multinomial_row_above_one_is_rejected_at_construction(self):
        spec, tau = make_family("multinomial", trials=4), np.full((2, 2), 4)
        with pytest.raises(ValueError, match="^multinomial observation rows must sum to at most 1$"):
            DataMatrix([[0.9, 0.9], [0.1, 0.2]], tau, spec)

    def test_derived_values_are_kept_read_only(self):
        data = DataMatrix([[1.0, 2.0], [3.0, 0.0], [2.0, 2.0]], [[1, 2], [2, 2], [1, 1]],
                          make_family("poisson"))
        kept = {
            "permutation": data.order.permutation,
            "group_ids": data.order.group_ids,
            "column_means": data.column_means,
            "row_sums": data.surrogate_row_sums,
        }
        assert data.order is data.order
        assert data.surrogate_row_sums is kept["row_sums"]
        np.testing.assert_array_equal(kept["permutation"], [1, 0, 2])
        np.testing.assert_array_equal(kept["column_means"], [2.0, 4.0 / 3.0])
        np.testing.assert_array_equal(kept["row_sums"], [2.0, 1.5, 4.0])  # sum y / tau
        for name, array in kept.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
