"""Experiment engine: config, seeding, sup-gap proxy, CSV, rate fits."""

import functools
import gc
import hashlib
import multiprocessing
import os
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nefshrink import (
    AggregateRecord,
    DataMatrix,
    Design,
    ExperimentConfig,
    FitResult,
    RowOrder,
    aggregate_records,
    aure,
    estimate_sup_gap,
    estimate_sup_gap_grand_mean,
    fit_rate,
    make_family,
    minimize_aure,
    minimize_ure,
    read_records_csv,
    run_experiment,
    sample_feasible_weights,
    sample_matrix,
    shrink_to_grand_mean,
    shrink_to_location,
    squared_error_loss,
    ure,
    write_records_csv,
)
from nefshrink import estimators, families, harness
from nefshrink.estimators import EstimateMatrix
from nefshrink.harness import _random_pairs, parse_config_text, records_csv_text

from conftest import ALL_FAMILIES, family_case
from oracles import theoretical_moments

CONFIG_TEXT = """
# small smoke experiment
family = normal
theta_rule = uniform:-1,1
n_grid = 4,6
p_rule = fixed:3
M = 3
seed = 99
mode = location
competitors = no_shrinkage,half_to_zero
K_grid = 3
"""


def small_config(**overrides):
    base = ExperimentConfig.from_dict(parse_config_text(CONFIG_TEXT))
    import dataclasses

    return dataclasses.replace(base, **overrides) if overrides else base


def oracle_config():
    """n = 2, 3 and 5 in one column, 20 replications each, scoring the loss
    oracle against half_to_zero and no_shrinkage."""
    return small_config(
        theta_rule="uniform:-1,1", n_grid=(2, 3, 5), p_rule="fixed:1", replications=20,
        seed=3, competitors=("half_to_zero", "oracle_loss", "no_shrinkage"),
        sup_gap_samples=0,
    )


def _spy_oracle_starts(monkeypatch) -> list:
    """Record the common starting weight of each descent the loss oracle runs:
    1.0 from the grand mean, 0.5 from the zero target."""
    starts = []
    descend = estimators._descend

    def spy(data, lin, cross, const, max_iter, b, mu):
        starts.append(float(b[0]))
        return descend(data, lin, cross, const, max_iter, b, mu)

    monkeypatch.setattr(estimators, "_descend", spy)
    return starts


class TestConfigParsing:
    def test_round_trip_from_text(self):
        config = small_config()
        assert config.family == "normal"
        assert config.n_grid == (4, 6)
        assert config.p_for(4) == 3
        assert config.replications == 3
        assert config.competitors == ("no_shrinkage", "half_to_zero")
        assert config.sup_gap_samples == 3

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="walrus"):
            ExperimentConfig.from_dict({"walrus": "1"})

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2")

    def test_missing_required_key(self):
        with pytest.raises(ValueError, match="family"):
            ExperimentConfig.from_dict({"theta_rule": "uniform:0,1"})

    def test_unknown_family_token_is_named(self):
        with pytest.raises(ValueError, match="cauchy"):
            small_config(family="cauchy")

    def test_family_parameters_are_checked_at_load(self):
        with pytest.raises(ValueError, match="shape is required for gamma"):
            small_config(family="gamma")
        with pytest.raises(ValueError, match="trials are required"):
            small_config(family="multinomial")

    def test_n_grid_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            small_config(n_grid=(1, 4))
        with pytest.raises(ValueError, match="increasing"):
            small_config(n_grid=(4, 4))

    def test_power_rule(self):
        config = small_config(p_rule="power:0.4")
        assert config.p_for(100) == int(np.floor(100**0.4))
        for rule in ("power", "power:0", "power:-1", "power:nan", "power:x", "fixed:0"):
            with pytest.raises(ValueError, match="needs a positive value"):
                small_config(p_rule=rule)
        # a p that overflows, or an infinite exponent, is one ValueError
        for rule in ("power:1000", "power:inf", "power:1e308"):
            with pytest.raises(ValueError, match=rf"^p rule '{rule}' gives no finite p at n = 4$"):
                small_config(p_rule=rule)
        # the exponent lives in the rule: there is no gamma key
        with pytest.raises(ValueError, match="^unknown config key 'gamma'$"):
            ExperimentConfig.from_dict({**parse_config_text(CONFIG_TEXT), "gamma": "0.4"})

    def test_power_rule_is_checked_at_every_n(self):
        # 4**10 * 4 cells fit an array index, 1000**10 * 1000 do not
        small_config(p_rule="power:10", n_grid=(2, 4))
        with pytest.raises(ValueError, match=r"^p rule 'power:10' gives more than \d+ cells "
                                             r"\(n \* p\) at n = 1000$"):
            small_config(p_rule="power:10", n_grid=(2, 4, 1000))

    @pytest.mark.parametrize("rule, n", [
        ("power:500", 2),  # 2**500 is a finite double, far past any array index
        ("power:3", 2_097_152),  # n * p = 2**84
        (f"fixed:{np.iinfo(np.intp).max // 2 + 1}", 2),  # n * p one past the largest index
    ])
    def test_p_rule_beyond_the_array_index_range_is_one_error(self, rule, n):
        # n * p is checked when the config loads, before any matrix is drawn
        limit = np.iinfo(np.intp).max
        with pytest.raises(ValueError, match=rf"^p rule '{rule}' gives more than {limit} cells "
                                             rf"\(n \* p\) at n = {n}$"):
            small_config(p_rule=rule, n_grid=(n,))
        # the largest p that fits at n = 2 loads
        small_config(p_rule=f"fixed:{limit // 2}", n_grid=(2,))

    def test_solver_settings_validation(self):
        # the descent's budget and tolerance are fit's own, not config keys
        for key in ("max_iter", "tol"):
            with pytest.raises(ValueError, match=f"^unknown config key '{key}'$"):
                ExperimentConfig.from_dict({**parse_config_text(CONFIG_TEXT), key: "150"})

    def test_mode_and_competitor_validation(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="both")
        with pytest.raises(ValueError, match="competitor"):
            small_config(competitors=("ridge",))
        with pytest.raises(ValueError, match="^competitor 'no_shrinkage' is listed twice$"):
            small_config(competitors=("no_shrinkage", "half_to_zero", "no_shrinkage"))


def fitted_pair(b, mu):
    """A :class:`FitResult` holding a given pair, for the sup-gap proxy's
    ``fitted`` argument; only its weights and target are read."""
    return FitResult(b=b, mu=mu, objective=np.nan, iterations=0, converged=False)


class TestSupGapProxy:
    def _normal_case(self, seed=5):
        rng = np.random.default_rng(seed)
        spec, theta, tau = family_case("normal", 6, 3, rng)
        return theta, sample_matrix(spec, theta, tau, seed=seed)

    def test_zero_samples_reduce_to_corners_and_fit(self):
        theta, data = self._normal_case()
        fitted = minimize_ure(data)
        mu_c = np.clip(data.column_means, -data.data_range, data.data_range)
        gaps = []
        for b, mu in [
            (np.zeros(6), mu_c),
            (np.ones(6), mu_c),
            (fitted.b, fitted.mu),
        ]:
            realized = squared_error_loss(shrink_to_location(data, b, mu).theta_hat, theta)
            gaps.append(abs(ure(data, b, mu) - realized))
        value = estimate_sup_gap(data, theta, 0, seed=1, fitted=fitted)
        assert value == pytest.approx(max(gaps), abs=1e-15)

    def test_no_shrinkage_corner_isolates_variance_mismatch(self):
        # at b = 0 the gap is |(1/np) sum [V(Y)/(tau+nu2) - (Y-theta)^2]|
        theta, data = self._normal_case(seed=6)
        expected = abs(
            np.mean(1.0 - (data.y - theta) ** 2)  # normal: V/(tau+nu2) = 1
        )
        realized = squared_error_loss(data.y, theta)
        mu_c = np.clip(data.column_means, -data.data_range, data.data_range)
        assert abs(ure(data, np.zeros(6), mu_c) - realized) == pytest.approx(
            expected, rel=1e-12
        )
        fitted = minimize_ure(data)
        assert estimate_sup_gap(data, theta, 0, seed=1, fitted=fitted) >= expected - 1e-15

    def test_vanishing_loss_leaves_absolute_risk_estimate(self):
        # theta rows all equal mu*: full shrinkage is lossless, gap = |ure|
        spec = make_family("normal")
        theta = np.tile([0.5, -0.5], (5, 1))
        data = sample_matrix(spec, theta, np.ones((5, 2)), seed=8)
        assert data.data_range >= 0.5
        b, mu = np.ones(5), theta[0]
        assert squared_error_loss(shrink_to_location(data, b, mu).theta_hat, theta) == 0.0
        value = estimate_sup_gap(data, theta, 0, seed=1, fitted=fitted_pair(b, mu))
        assert value >= abs(ure(data, b, mu)) - 1e-15

    def test_enlarging_the_sample_set_is_monotone_and_nested(self):
        theta, data = self._normal_case(seed=7)
        fitted = minimize_ure(data)
        values = [
            estimate_sup_gap(data, theta, k, seed=3, fitted=fitted)
            for k in (0, 2, 5, 10)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_deterministic_given_seed(self):
        theta, data = self._normal_case(seed=9)
        fitted = minimize_ure(data)
        a = estimate_sup_gap(data, theta, 6, seed=11, fitted=fitted)
        b = estimate_sup_gap(data, theta, 6, seed=11, fitted=fitted)
        assert a == b

    def test_a_seed_sequence_is_not_advanced(self):
        # spawning from the caller's SeedSequence advanced it, so a second call
        # with the same object drew other pairs (0.527 then 1.247 here)
        rng = np.random.default_rng(5)
        spec, theta, tau = family_case("normal", 20, 3, rng)
        data = sample_matrix(spec, theta, tau, seed=5)
        for gap_of, fitted in [(estimate_sup_gap, minimize_ure(data)),
                               (estimate_sup_gap_grand_mean, minimize_aure(data))]:
            seed = np.random.SeedSequence(5)
            first = gap_of(data, theta, 20, seed, fitted)
            assert gap_of(data, theta, 20, seed, fitted) == first
            assert seed.n_children_spawned == 0
            assert gap_of(data, theta, 20, 5, fitted) == first

    def test_grand_mean_variant(self):
        rng = np.random.default_rng(10)
        spec, theta, tau = family_case("poisson", 5, 3, rng)
        data = sample_matrix(spec, theta, tau, seed=10)
        fitted = minimize_aure(data)
        value = estimate_sup_gap_grand_mean(data, theta, 4, seed=2, fitted=fitted)
        assert value >= 0.0


def per_pair_sup_gap(data, theta, samples, seed, fitted, mode):
    """The sup-gap proxy pair by pair: shrink, risk estimate, loss."""
    order = RowOrder.from_tau(data.tau)
    m_range = data.data_range
    mu_c = np.clip(data.column_means, -m_range, m_range)
    pairs = [(np.zeros(data.n), mu_c), (np.ones(data.n), mu_c), (fitted.b, fitted.mu)]
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    for child in seed.spawn(samples):
        rng = np.random.default_rng(child)
        b = sample_feasible_weights(order, rng)
        pairs.append((b, rng.uniform(-m_range, m_range, data.p) if mode == "location" else None))
    gap = 0.0
    for b, mu in pairs:
        if mode == "location":
            realized = squared_error_loss(shrink_to_location(data, b, mu).theta_hat, theta)
            gap = max(gap, abs(ure(data, b, mu) - realized))
        else:
            realized = squared_error_loss(shrink_to_grand_mean(data, b).theta_hat, theta)
            gap = max(gap, abs(aure(data, b) - realized))
    return gap


class TestSupGapAgainstPerPairReference:
    def _tied_case(self, kind, seed):
        rng = np.random.default_rng(seed)
        spec, theta, _ = family_case(kind, 8, 3, rng)
        tau = rng.integers(1, 3, (8, 3))
        data = sample_matrix(spec, theta, tau, seed=seed)
        groups = RowOrder.from_tau(tau).n_groups
        assert 1 < groups < data.n
        return theta, data

    @pytest.mark.parametrize("kind", ["normal", "poisson"])
    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_matches_reference(self, kind, mode):
        theta, data = self._tied_case(kind, seed=12)
        if mode == "location":
            fitted = minimize_ure(data)
            value = estimate_sup_gap(data, theta, 6, seed=4, fitted=fitted)
        else:
            fitted = minimize_aure(data)
            value = estimate_sup_gap_grand_mean(data, theta, 6, seed=4, fitted=fitted)
        reference = per_pair_sup_gap(data, theta, 6, 4, fitted, mode)
        assert value == pytest.approx(reference, rel=1e-12, abs=0)

    def test_rejects_infeasible_or_nan_fitted_pair(self):
        theta, data = self._tied_case("poisson", seed=13)
        order = RowOrder.from_tau(data.tau)
        b = sample_feasible_weights(order, np.random.default_rng(0))
        mu = data.column_means
        rising = order.expand_group_values(np.linspace(1.0, 0.0, order.n_groups))
        nan_b = np.full(data.n, np.nan)
        bad_pairs = [(rising, mu), (nan_b, mu), (b, np.full(data.p, np.nan)), (b, mu[:-1])]
        for bad_b, bad_mu in bad_pairs:
            with pytest.raises(ValueError):
                estimate_sup_gap(data, theta, 2, seed=1, fitted=fitted_pair(bad_b, bad_mu))
        for bad_b in (rising, nan_b):
            with pytest.raises(ValueError):
                estimate_sup_gap_grand_mean(data, theta, 2, seed=1, fitted=fitted_pair(bad_b, mu))


def _tau_with_ties(kind: str, n: int, p: int, rng) -> np.ndarray:
    """Tau with one tie group ("one"), a few ("tied") or n ("distinct")."""
    if kind == "one":
        return np.ones((n, p))
    if kind == "tied":
        return rng.integers(1, 3, (n, p)).astype(float)
    tau = np.ones((n, p))
    tau[:, 0] = rng.permutation(n) + 1.0
    return tau


# seeds of every form the proxy takes: ints of one or more 32-bit words (past
# the 4-word pool from 2**128 on), lists of ints, and SeedSequences with spawn
# keys and a pool of 4 or 8 words, given as (entropy, spawn_key, pool_size)
_WORDS = st.integers(0, 2**32 - 1) | st.integers(2**32, 2**96) | st.integers(2**128, 2**300)
SEEDS = st.one_of(
    _WORDS,
    st.lists(_WORDS, min_size=1, max_size=5),
    st.tuples(_WORDS | st.lists(_WORDS, min_size=1, max_size=5),
              st.lists(_WORDS, min_size=1, max_size=4).map(tuple),
              st.sampled_from([4, 8])),
)


def _seed_of(spec):
    """A fresh seed object for a ``SEEDS`` draw, so a spawn never sees one
    that an earlier call has advanced."""
    if isinstance(spec, tuple):
        entropy, spawn_key, pool_size = spec
        return np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
    return spec


def _root_of(spec) -> np.random.SeedSequence:
    """A fresh ``SeedSequence`` for a ``SEEDS`` draw, as the proxy builds it."""
    seed = _seed_of(spec)
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


class TestChildStates:
    """The streams' states, computed for every child at once, are the states
    that ``spawn``'s children seed a ``PCG64`` with."""

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, count=st.integers(0, 40))
    @example(seed=(2**200 + 3, (0, 3, 3), 8), count=300)
    @example(seed=(7, (), 4), count=1)
    def test_each_state_is_the_spawned_childs(self, seed, count):
        states = harness._child_states(_root_of(seed), count)
        assert states.shape == (count, 4) and states.dtype == np.uint64
        children = _root_of(seed).spawn(count)
        for words, child in zip(states, children, strict=True):
            assert np.array_equal(words, child.generate_state(4, np.uint64))
            bits = np.random.PCG64(harness._child_seed_type()(words))
            assert bits.state == np.random.PCG64(child).state


class TestSupGapPerTieGroup:
    """The proxy sums its rows once per tie group and scores every pair from
    group values; the pairs and the value are those of the pair-by-pair path."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["normal", "poisson"]), n=st.integers(2, 10),
           p=st.integers(1, 4), ties=st.sampled_from(["one", "tied", "distinct"]),
           mode=st.sampled_from(["location", "grand_mean"]), samples=st.integers(0, 6),
           seed=SEEDS)
    @example(kind="normal", n=4, p=2, ties="tied", mode="location", samples=3,
             seed=([7, 2**40], (1, 2**33 + 5, 0), 4))
    @example(kind="poisson", n=5, p=3, ties="tied", mode="location", samples=300,
             seed=(2**130 + 1, (2, 17, 3), 8))
    def test_matches_the_per_pair_reference(self, kind, n, p, ties, mode, samples, seed):
        rng = np.random.default_rng(_seed_of(seed))
        spec, theta, _ = family_case(kind, n, p, rng)
        tau = _tau_with_ties(ties, n, p, rng)
        data = sample_matrix(spec, theta, tau, seed=rng)
        order = data.order
        assert order.n_groups == {"one": 1, "distinct": n}.get(ties, order.n_groups)
        # the sampled pairs: bit-identical to one stream's weights, then target
        weights, targets = _random_pairs(order.n_groups, p, data.data_range, samples,
                                         _seed_of(seed))
        assert weights.shape == (samples, order.n_groups) and targets.shape == (samples, p)
        for k, child in enumerate(_root_of(seed).spawn(samples)):
            stream = np.random.default_rng(child)
            expected_b = sample_feasible_weights(order, stream)
            expected_mu = stream.uniform(-data.data_range, data.data_range, p)
            assert np.array_equal(order.expand_group_values(weights[k]), expected_b)
            assert np.array_equal(targets[k], expected_mu)
        fitted = fitted_pair(sample_feasible_weights(order, rng),
                             rng.uniform(-data.data_range, data.data_range, p))
        gap_of = estimate_sup_gap if mode == "location" else estimate_sup_gap_grand_mean
        value = gap_of(data, theta, samples, _seed_of(seed), fitted)
        reference = per_pair_sup_gap(data, theta, samples, _seed_of(seed), fitted, mode)
        assert value == pytest.approx(reference, rel=1e-12, abs=0)


class TestRunExperiment:
    def test_record_layout_and_determinism(self):
        config = small_config()
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second
        # 2 sample sizes x 3 replications x (fit + 2 competitors)
        assert len(first) == 2 * 3 * 3
        assert [r.estimator for r in first[:3]] == ["fit", "no_shrinkage", "half_to_zero"]
        assert records_csv_text(first) == records_csv_text(second)

    def test_parallel_execution_is_byte_identical(self):
        config = small_config()
        serial = records_csv_text(run_experiment(config, workers=1))
        parallel = records_csv_text(run_experiment(config, workers=2))
        assert serial == parallel

    def test_seed_changes_output(self):
        base = records_csv_text(run_experiment(small_config()))
        reseeded = records_csv_text(run_experiment(small_config(seed=100)))
        assert base != reseeded

    def test_single_replication_fixed_theta(self, tmp_path):
        theta = np.arange(6, dtype=float).reshape(3, 2) / 10 + 0.1
        path = tmp_path / "theta.csv"
        np.savetxt(path, theta, delimiter=",")
        config = small_config(
            family="poisson",
            theta_rule=f"fixed:{path}",
            n_grid=(3,),
            p_rule="fixed:2",
            replications=1,
            competitors=(),
        )
        out1 = records_csv_text(run_experiment(config))
        out2 = records_csv_text(run_experiment(config))
        assert out1 == out2

    def test_theta_rule_domain_violation(self):
        config = small_config(family="poisson", theta_rule="uniform:-1,1")
        with pytest.raises(ValueError, match="domain"):
            run_experiment(config)

    def test_fixed_theta_shape_mismatch(self, tmp_path):
        path = tmp_path / "theta.csv"
        np.savetxt(path, np.ones((2, 2)), delimiter=",")
        config = small_config(theta_rule=f"fixed:{path}", n_grid=(4,))
        with pytest.raises(ValueError, match="shape"):
            run_experiment(config)

    def test_no_shrinkage_mean_loss_matches_variance_oracle(self):
        config = small_config(replications=400, n_grid=(12,), sup_gap_samples=0)
        rows = [r for r in run_experiment(config) if r.estimator == "no_shrinkage"]
        losses = np.array([r.loss for r in rows])
        spec = config.family_spec()
        theta = np.zeros((12, 3))  # any theta: normal variance is constant 1
        _, var = theoretical_moments(spec, theta, np.ones((12, 3)))
        se = losses.std(ddof=1) / np.sqrt(len(losses))
        assert abs(losses.mean() - var.mean()) < 4 * se

    def test_loss_oracle_is_never_above_half_to_zero(self, monkeypatch):
        # half_to_zero is a member of the oracle's class; at n <= 5 the oracle's
        # grand-mean start can end at zero weights, a saddle its target step
        # cannot leave, with no_shrinkage's loss (6 of these 60 replications
        # before the zero-target restart)
        starts = _spy_oracle_starts(monkeypatch)
        losses = {}
        for record in run_experiment(oracle_config()):
            losses.setdefault((record.n, record.rep), {})[record.estimator] = record.loss
        assert len(losses) == 60
        assert 0.5 in starts  # some replication took the zero-target restart
        for loss in losses.values():
            assert loss["oracle_loss"] <= loss["half_to_zero"] + 1e-12

    def test_a_stuck_loss_oracle_descends_once_more(self, monkeypatch):
        # each oracle call descends once from full shrinkage toward the grand
        # mean, and the 6 that end there at zero weights once more from half
        # shrinkage toward zero, not again from the grand mean
        starts = _spy_oracle_starts(monkeypatch)
        calls = []
        oracle = estimators.minimize_true_loss

        def counting(data, theta, loss_rows=None):
            calls.append(1)
            return oracle(data, theta, loss_rows=loss_rows)

        monkeypatch.setattr(estimators, "minimize_true_loss", counting)
        run_experiment(oracle_config())
        assert len(calls) == 60
        assert (len(starts), starts.count(1.0), starts.count(0.5)) == (66, 60, 6)

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="replications run in forked workers only where there is fork")
    @pytest.mark.parametrize("workers", [1, 2, 3, 6, 7, 500])
    def test_forks_at_most_one_worker_per_replication_and_cpu(self, monkeypatch, workers):
        """W = min(workers, replications, usable CPUs) workers are forked when
        W is at least 2, none otherwise, and the records are the serial ones."""
        config = small_config()  # 2 sample sizes x 3 replications: 6 tasks
        serial = run_experiment(config)
        context = multiprocessing.get_context("fork")
        started = []

        class CountedProcess(context.Process):
            def start(self):
                started.append(1)
                super().start()

        monkeypatch.setattr(context, "Process", CountedProcess)
        for cpus in (1, 2, 4):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            started.clear()
            assert run_experiment(config, workers=workers) == serial
            forked = min(workers, 6, cpus)
            assert len(started) == (forked if forked > 1 else 0), cpus
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="replications run in forked workers only where there is fork")
    def test_a_failed_replication_raises_the_serial_error(self, monkeypatch, capfd):
        """A worker whose replication raises exits; the parent then runs every
        replication itself, so the error it raises is the serial run's, and
        no worker is left."""
        run_replication = harness._run_replication

        def fail_at_the_last(config, task):
            if task[0] == 1 and task[2] == 2:
                raise ValueError(f"replication failed in process {os.getpid()}")
            return run_replication(config, task)

        monkeypatch.setattr(harness, "_run_replication", fail_at_the_last)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        for workers in (1, 2):
            with pytest.raises(ValueError, match=f"^replication failed in process {os.getpid()}$"):
                run_experiment(small_config(), workers=workers)
            assert multiprocessing.active_children() == []
        assert capfd.readouterr().err == ""

    def test_grand_mean_mode_runs(self):
        config = small_config(mode="grand_mean", competitors=("no_shrinkage",))
        fit_rows = [r for r in run_experiment(config) if r.estimator == "fit"]
        assert all(r.converged for r in fit_rows)

    def test_trial_family_tau_rule_guard(self):
        with pytest.raises(ValueError, match="^config key 'tau_rule': .* determined by N$"):
            small_config(
                family="negmultinomial",
                theta_rule="uniform:0.5,2",
                trials=4,
                tau_rule="randint:1,3",
            )


# Records CSVs pinned byte for byte.  A change that moves these bytes on
# purpose updates the digest and records the change in CHANGES.md.  All seven
# were last re-pinned when the loss became a row quadratic: only loss cells
# moved, by at most 9.4e-15 relative.
CONTRACT_CONFIGS = {
    # tied tau row sums and a restart from every row (n <= 12)
    "location_ties": ("""
family = poisson
theta_rule = uniform:0.5,2
n_grid = 4,8,12
p_rule = fixed:3
tau_rule = randint:1,2
M = 8
seed = 11
mode = location
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "d6999680b4ab0c370b3a588ab88fba6b35cd1d0776779b8c068b0d62e1de077a"),
    "grand_mean_oracle": ("""
family = poisson
theta_rule = uniform:0.5,2
n_grid = 50,100,200
p_rule = fixed:4
tau_rule = randint:1,1000
M = 4
seed = 12
mode = grand_mean
competitors = no_shrinkage,oracle_loss
K_grid = 4
""", "b0e61430a06000035c89132a32c4d9b2c2884d2d1c24306480cafb494e1dd332"),
    # a trial family: tau rows of N, the multinomial sampler and its support check;
    # one tie group, so its fit rows come from the closed-form location fit
    "multinomial_location": ("""
family = multinomial
N = 4
theta_rule = uniform:0.01,0.09
n_grid = 6,12,24
p_rule = fixed:5
M = 4
seed = 13
mode = location
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "0c3e1a51279a450338125ac0fb39269101f7e2230cdf31514ee05dfa0d58398b"),
    # the normal, gamma and negative multinomial samplers, which the configs
    # above do not reach
    "normal_location_ties": ("""
family = normal
theta_rule = uniform:-1,1
n_grid = 4,8,12
p_rule = fixed:3
tau_rule = randint:1,3
M = 4
seed = 14
mode = location
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "5d76c8eee1afd2a6cf693062c6a1d40a76e7ac739016d59a716d5699691a1dfe"),
    "gamma_ties": ("""
family = gamma
lambda = 2
theta_rule = uniform:0.5,2
n_grid = 4,8,12
p_rule = fixed:3
tau_rule = randint:1,3
M = 4
seed = 15
mode = location
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "4d4c7688e4917dabc16faeac356490f7c2d3aaa6bb9c86024d3c68c25ebd0cd1"),
    "negmultinomial_grand_mean": ("""
family = negmultinomial
N = 4
theta_rule = uniform:0.5,2
n_grid = 6,12,24
p_rule = fixed:4
M = 4
seed = 16
mode = grand_mean
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "550c2e560f1bbe91124d9942caac809b3e123d2e958f980990b078affe181fc8"),
    # the decay experiment's shape: normal with tau ones, one tie group (G = 1),
    # so the design's tau-only row sums and the shared zero target of the two
    # competitors
    "normal_location_one_group": ("""
family = normal
theta_rule = uniform:-2,2
n_grid = 5,10,20
p_rule = fixed:4
M = 4
seed = 17
mode = location
competitors = no_shrinkage,half_to_zero,oracle_loss
K_grid = 4
""", "d432d288aedefe80154d595325ef32bbb72acdbbe5188cf6bd6b1e481f74c161"),
}


class TestPerMatrixDerivations:
    @pytest.mark.parametrize("family", ["normal", "poisson"])
    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_order_and_row_sums_derived_once_per_replication(self, mode, family, monkeypatch):
        # the tau row order once per grid point, in the design its replications
        # share; the row sums once per replication, shared by the fit, the
        # sup-gap proxy and competitor scoring, or, for the normal family, whose
        # row sums depend on tau alone, once per grid point with no V(Y) at all;
        # the loss rows once per replication for the proxy, the loss oracle and
        # the scoring, never inside the oracle; the squared row distances to the
        # column means once per draw, shared by the fit and the scoring
        config = small_config(
            family=family, theta_rule=FAMILY_CONFIGS[family]["theta_rule"], mode=mode,
            competitors=("no_shrinkage", "half_to_zero", "oracle_loss"), tau_rule="randint:1,2",
        )
        calls = {"from_tau": 0, "row_sums": 0, "variance_function": 0, "loss_rows": 0,
                 "oracle_loss_rows": 0, "centered_row_norms": 0}
        from_tau, variance_function = RowOrder.from_tau.__func__, families.variance_function
        row_sums = families._surrogate_row_sums
        loss_rows, centered_row_norms = harness._loss_rows, DataMatrix.centered_row_norms.func

        def counting(key, fn):
            def counted(*args):
                calls[key] += 1
                return fn(*args)
            return counted

        norms = functools.cached_property(counting("centered_row_norms", centered_row_norms))
        norms.__set_name__(DataMatrix, "centered_row_norms")
        monkeypatch.setattr(DataMatrix, "centered_row_norms", norms)
        monkeypatch.setattr(harness, "_loss_rows", counting("loss_rows", loss_rows))
        monkeypatch.setattr(estimators, "_loss_rows", counting("oracle_loss_rows", loss_rows))

        def counting_from_tau(cls, tau):
            calls["from_tau"] += 1
            return from_tau(cls, tau)

        def counting_row_sums(*args):
            calls["row_sums"] += 1
            return row_sums(*args)

        def counting_variance_function(spec, t):
            calls["variance_function"] += 1
            return variance_function(spec, t)

        monkeypatch.setattr(RowOrder, "from_tau", classmethod(counting_from_tau))
        monkeypatch.setattr(families, "_surrogate_row_sums", counting_row_sums)
        monkeypatch.setattr(families, "variance_function", counting_variance_function)
        run_experiment(config)
        grid_points = len(config.n_grid)
        replications = config.replications * grid_points
        assert calls == {
            "from_tau": grid_points,
            "row_sums": grid_points if family == "normal" else replications,
            "variance_function": 0 if family == "normal" else replications,
            "loss_rows": replications,
            "oracle_loss_rows": 0,
            "centered_row_norms": replications,
        }

    def test_designs_and_their_orders_are_freed(self, monkeypatch):
        # nothing keeps a grid point's design, or what it derived, past the run
        refs = []

        class RecordedDesign(Design):
            def __init__(self, *args):
                super().__init__(*args)
                order = self.order
                derived = (self, order, order.group_starts, order.tied_steps,
                           self.surrogate_row_sums)
                refs.extend(weakref.ref(obj) for obj in derived)

        monkeypatch.setattr(harness, "Design", RecordedDesign)
        config = small_config(tau_rule="randint:1,2")  # normal: the design keeps S_i
        assert run_experiment(config)
        gc.collect()
        assert len(refs) == 5 * len(config.n_grid)
        assert [ref() for ref in refs] == [None] * len(refs)


FAMILY_CONFIGS = {
    "normal": {"theta_rule": "uniform:-1,1", "tau_rule": "randint:1,3"},
    "poisson": {"theta_rule": "uniform:0.5,2", "tau_rule": "randint:1,3"},
    "gamma": {"theta_rule": "uniform:0.5,2", "tau_rule": "randint:1,3", "lam": 2.0},
    "multinomial": {"theta_rule": "uniform:0.01,0.09", "trials": 4},
    "negmultinomial": {"theta_rule": "uniform:0.5,2", "trials": 4},
}


class TestScoringFromRows:
    """Each record is scored from the estimator's ``(b, mu)``: no estimate
    matrix is built, and the loss and risk are those of the public path."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("mode", ["location", "grand_mean"])
    def test_records_match_the_public_path(self, family, mode, monkeypatch):
        config = small_config(family=family, mode=mode, **FAMILY_CONFIGS[family],
                              competitors=("no_shrinkage", "half_to_zero", "oracle_loss"))
        drawn, estimates, accesses = [], [], []

        def spy_sample(design, seed):
            drawn.append((sample(design, seed), design.theta))
            return drawn[-1][0]

        def spy_fit(*args, **kwargs):
            result, estimate = estimators.fit(*args, **kwargs)
            estimates.append(estimate)
            return result, estimate

        def spy_competitor(*args, **kwargs):
            estimates.append(estimators.competitor(*args, **kwargs))
            return estimates[-1]

        theta_hat, sample = EstimateMatrix.theta_hat, Design.sample
        monkeypatch.setattr(Design, "sample", spy_sample)
        monkeypatch.setattr(harness, "fit", spy_fit)
        monkeypatch.setattr(harness, "competitor", spy_competitor)
        monkeypatch.setattr(EstimateMatrix, "theta_hat", property(
            lambda est: accesses.append(est) or theta_hat.func(est)))
        records = run_experiment(config)
        assert accesses == []
        per_rep = 1 + len(config.competitors)
        assert len(records) == len(estimates) == per_rep * len(drawn)
        for k, (record, est) in enumerate(zip(records, estimates)):
            data, theta = drawn[k // per_rep]
            assert est.data is data
            loss = squared_error_loss(est.theta_hat, theta)
            assert record.loss == pytest.approx(loss, rel=1e-12, abs=0)
            if record.estimator == "fit" and mode == "grand_mean":
                assert record.risk_estimate == aure(data, est.b)
            else:
                assert record.risk_estimate == ure(data, est.b, est.mu)


class TestRecordsContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_CONFIGS))
    def test_records_csv_bytes_are_pinned(self, name, tmp_path):
        text, digest = CONTRACT_CONFIGS[name]
        config = ExperimentConfig.from_dict(parse_config_text(text))
        path = tmp_path / "records.csv"
        write_records_csv(run_experiment(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCsvRoundTrip:
    def test_records_and_aggregates_round_trip(self, tmp_path):
        records = run_experiment(small_config())
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        assert read_records_csv(path) == records
        # the stored mean/se rows are exactly those the read records derive
        assert records_csv_text(read_records_csv(path)) == path.read_text()

    def test_aggregates_name_each_statistic_once(self):
        records = run_experiment(small_config())
        aggregates = aggregate_records(records)
        # 2 sample sizes x (fit + 2 competitors), in first-seen order
        assert [(a.n, a.estimator, a.count) for a in aggregates] == [
            (n, name, 3) for n in (4, 6) for name in ("fit", "no_shrinkage", "half_to_zero")
        ]
        header = records_csv_text(records).splitlines()[0].split(",")
        for a in aggregates:
            assert list(a.mean) == list(a.se) == header[4:]
            group = [r.loss for r in records if (r.n, r.estimator) == (a.n, a.estimator)]
            assert a.mean["loss"] == float(np.mean(group))

    def test_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)


def synthetic_aggregates(ns, values, estimator="fit"):
    return [
        AggregateRecord(
            n=n, p=10, estimator=estimator, count=10,
            mean={"loss": v, "risk_estimate": v, "sup_gap": v, "iters": 1.0, "converged": 1.0},
            se={"loss": 0.0, "risk_estimate": 0.0, "sup_gap": 0.0, "iters": 0.0,
                "converged": 0.0},
        )
        for n, v in zip(ns, values)
    ]


class TestFitRate:
    def test_exact_inverse_square_root(self):
        ns = [100, 200, 400, 800]
        rate = fit_rate(synthetic_aggregates(ns, [n**-0.5 for n in ns]))
        assert rate.slope == pytest.approx(-0.5, abs=1e-12)
        assert rate.stderr == pytest.approx(0.0, abs=1e-10)

    def test_constant_is_flat(self):
        ns = [100, 200, 400]
        rate = fit_rate(synthetic_aggregates(ns, [3.0, 3.0, 3.0]))
        assert rate.slope == pytest.approx(0.0, abs=1e-12)

    def test_excess_loss_path(self):
        ns = [100, 200, 400]
        aggs = synthetic_aggregates(ns, [2.0 + n**-1.0 for n in ns], "fit")
        aggs += synthetic_aggregates(ns, [2.0, 2.0, 2.0], "oracle_loss")
        rate = fit_rate(aggs, y="mean_excess_loss")
        assert rate.slope == pytest.approx(-1.0, abs=1e-12)

    def test_requires_three_points(self):
        ns = [100, 200]
        with pytest.raises(ValueError, match="three"):
            fit_rate(synthetic_aggregates(ns, [1.0, 0.5]))

    def test_rejects_nonpositive_values(self):
        ns = [100, 200, 400]
        with pytest.raises(ValueError, match="positive"):
            fit_rate(synthetic_aggregates(ns, [1.0, 0.0, 0.5]))

    def test_missing_estimator_rows(self):
        ns = [100, 200, 400]
        with pytest.raises(ValueError, match="oracle_loss"):
            fit_rate(synthetic_aggregates(ns, [1.0, 0.5, 0.25]), y="mean_excess_loss")
