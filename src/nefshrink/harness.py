"""Monte Carlo experiment engine with deterministic, order-independent seeding.

An experiment sweeps a grid of sample sizes: for each ``n`` it derives the
dimension ``p``, draws one fixed mean matrix and one tau matrix, and runs
``M`` independent replications, each of which samples data, fits the
configured shrinkage class, evaluates the fixed competitors, and records
losses, risk estimates, and a sampled proxy for the largest gap between
the risk estimate and the realized loss over the feasible set.  What
depends only on the grid point is derived once there, in a
:class:`~nefshrink.families.Design`: the checks of the mean and tau
matrices, the tau row order, the sampler's inputs and, for the normal
family, the surrogate row sums; a replication pays for its own draw, fit
and scoring.  Every random stream is derived from
the master seed through a spawn key ``(n_index, replication, purpose)``,
so results are byte-identical no matter how replications are scheduled.
Replications may run in forked workers that read the designs from the
parent's memory: :func:`_forked_workers`, sized by :func:`_worker_count`,
is the one way the package shares work between processes, here and in
the command line's loader and writer.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path

import numpy as np

from .estimators import COMPETITOR_KINDS, FIT_MODES, competitor, fit
from .families import (
    DataMatrix,
    Design,
    FamilySpec,
    default_tau,
    make_family,
    validate_mean_matrix,
)
from .optimize import FitResult, check_feasible_location, check_feasible_weights
from .risk import _loss_rows, _row_quadratic, _target_row_norms

__all__ = [
    "ExperimentConfig",
    "ReplicationRecord",
    "AggregateRecord",
    "RateFit",
    "estimate_sup_gap",
    "estimate_sup_gap_grand_mean",
    "run_experiment",
    "aggregate_records",
    "fit_rate",
    "records_csv_text",
    "write_records_csv",
    "read_records_csv",
]

# the per-replication statistics, each with the parser of its raw CSV cell;
# an aggregate row holds the mean and the standard error of every one
_STATS = {
    "loss": float,
    "risk_estimate": float,
    "sup_gap": float,
    "iters": int,
    "converged": lambda cell: cell == "True",
}
CSV_HEADER = ",".join(["rep", "n", "p", "estimator", *_STATS])

# stream purposes for seed derivation
_THETA, _TAU, _SAMPLE, _SUPGAP = 0, 1, 2, 3


def _substream(seed: int, n_index: int, rep: int, purpose: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(n_index, rep, purpose))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment."""

    family: str
    theta_rule: str
    n_grid: tuple[int, ...]
    p_rule: str
    lam: float | None = None
    trials: int | None = None
    tau_rule: str = "ones"
    replications: int = 100
    seed: int = 0
    mode: str = "location"
    competitors: tuple[str, ...] = ()
    sup_gap_samples: int = 20

    def __post_init__(self):
        self.family_spec()  # validate the family and its parameters eagerly
        if self.seed < 0:
            raise ValueError(f"config key 'seed': must be nonnegative, got {self.seed}")
        self.theta_bounds()  # and the theta and tau rules
        if self.tau_bounds() is not None and self.trials is not None:
            raise ValueError(f"config key 'tau_rule': {self.tau_rule!r} is not 'ones', but "
                             f"{self.family} tau is determined by N")
        if not self.n_grid:
            raise ValueError("n_grid must be non-empty")
        if any(n < 2 for n in self.n_grid):
            raise ValueError("n_grid entries must be at least 2")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replications < 1:
            raise ValueError("replication count must be at least 1")
        if self.mode not in FIT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {FIT_MODES}")
        for k, kind in enumerate(self.competitors):
            if kind not in COMPETITOR_KINDS:
                raise ValueError(
                    f"unknown competitor {kind!r}; expected one of {COMPETITOR_KINDS}"
                )
            if kind in self.competitors[:k]:
                raise ValueError(f"competitor {kind!r} is listed twice")
        if self.sup_gap_samples < 0:
            raise ValueError("K_grid must be nonnegative")
        for n in self.n_grid:  # validate the p rule eagerly, at every n
            self.p_for(n)

    def p_for(self, n: int) -> int:
        """``fixed:<p>`` gives every n the same p; ``power:<gamma>`` gives
        ``max(1, floor(n^gamma))``.  An n x p matrix must be indexable, so
        ``n * p`` above ``np.iinfo(np.intp).max`` is rejected."""
        kind, _, arg = self.p_rule.partition(":")
        if kind not in ("fixed", "power"):
            raise ValueError(
                f"unknown p rule {self.p_rule!r}; use 'fixed:<int>' or 'power:<gamma>'"
            )
        try:
            value = int(arg) if kind == "fixed" else float(arg)
        except ValueError:
            value = 0
        if not value > 0:
            raise ValueError(f"p rule {self.p_rule!r} needs a positive value after '{kind}:'")
        if kind == "fixed":
            p = value
        else:
            try:
                p = max(1, math.floor(n**value))
            except OverflowError:  # n**value is out of range, or value is inf
                raise ValueError(f"p rule {self.p_rule!r} gives no finite p at n = {n}") from None
        if n * p > np.iinfo(np.intp).max:
            raise ValueError(
                f"p rule {self.p_rule!r} gives more than {np.iinfo(np.intp).max} cells "
                f"(n * p) at n = {n}"
            )
        return p

    def theta_bounds(self) -> tuple[float, float] | None:
        """``(lo, hi)`` of a ``uniform:<lo>,<hi>`` theta rule, finite with a
        finite ``hi - lo >= 0``; None for ``fixed:<path>``."""
        name, _, args = self.theta_rule.partition(":")
        if name == "fixed":
            return None
        try:
            lo, hi = (float(tok) for tok in args.split(","))
        except ValueError:  # not two numbers
            lo = hi = math.nan
        if name != "uniform" or not 0.0 <= hi - lo < math.inf:
            raise ValueError(f"config key 'theta_rule': {self.theta_rule!r} is neither "
                             "'uniform:<lo>,<hi>' with finite lo <= hi nor 'fixed:<path>'")
        return lo, hi

    def tau_bounds(self) -> tuple[int, int] | None:
        """``(lo, hi)`` of a ``randint:<lo>,<hi>`` tau rule, integers with
        ``1 <= lo <= hi < 2**63``; None for ``ones``."""
        if self.tau_rule == "ones":
            return None
        name, _, args = self.tau_rule.partition(":")
        try:
            lo, hi = (int(tok) for tok in args.split(","))
        except ValueError:  # not two integers
            lo = hi = 0
        if name != "randint" or not 1 <= lo <= hi < 2**63:
            raise ValueError(f"config key 'tau_rule': {self.tau_rule!r} is neither 'ones' "
                             "nor 'randint:<lo>,<hi>' with integers 1 <= lo <= hi < 2**63")
        return lo, hi

    def family_spec(self) -> FamilySpec:
        return make_family(self.family, shape=self.lam, trials=self.trials)

    @classmethod
    def from_dict(cls, entries: dict[str, str]) -> "ExperimentConfig":
        spec = {
            "family": ("family", str),
            "lambda": ("lam", float),
            "N": ("trials", int),
            "theta_rule": ("theta_rule", str),
            "n_grid": ("n_grid", _int_tuple),
            "p_rule": ("p_rule", str),
            "tau_rule": ("tau_rule", str),
            "M": ("replications", int),
            "seed": ("seed", int),
            "mode": ("mode", str),
            "competitors": ("competitors", _token_tuple),
            "K_grid": ("sup_gap_samples", int),
        }
        kwargs = {}
        for key, value in entries.items():
            if key not in spec:
                raise ValueError(f"unknown config key {key!r}")
            name, convert = spec[key]
            try:
                kwargs[name] = convert(value)
            except ValueError as exc:
                raise ValueError(f"config key {key!r}: {exc}") from None
        for required in ("family", "theta_rule", "n_grid", "p_rule"):
            if required not in kwargs:
                raise ValueError(f"missing required config key {required!r}")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(parse_config_text(Path(path).read_text()))


def _int_tuple(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split(",") if tok.strip())


def _token_tuple(value: str) -> tuple[str, ...]:
    value = value.strip()
    if not value or value == "none":
        return ()
    return tuple(tok.strip() for tok in value.split(","))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat ``key = value`` configuration format ('#' comments)."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


@dataclass
class ReplicationRecord:
    rep: int
    n: int
    p: int
    estimator: str
    loss: float
    risk_estimate: float
    sup_gap: float
    iters: int
    converged: bool


@dataclass
class AggregateRecord:
    """The mean and standard error of each ``_STATS`` column over one
    (n, estimator) group of ``count`` records, keyed by the column name."""

    n: int
    p: int
    estimator: str
    count: int
    mean: dict[str, float]
    se: dict[str, float]


@dataclass
class RateFit:
    slope: float
    intercept: float
    stderr: float
    n_points: int


def estimate_sup_gap(
    data: DataMatrix, theta, samples: int, seed, fitted: FitResult, *, loss_rows=None
) -> float:
    """Sampled proxy for the largest |risk estimate - loss| over the
    location-shrinkage feasible set.

    Evaluates the gap at the no- and full-shrinkage corners toward the
    clipped grand mean, at the caller's fitted pair, and at ``samples``
    seeded random feasible pairs (monotone weights from sorted uniforms,
    targets uniform in the data box).  Random pairs are derived one stream
    per index, so enlarging ``samples`` keeps the smaller set as a prefix:
    stream k draws what ``default_rng`` draws from the k-th child that
    ``SeedSequence(seed).spawn`` gives, bit for bit, while the children's
    states are computed in one vectorized pass from numpy's fixed
    ``SeedSequence`` hash (NEP 19; the harness tests compare them with
    ``spawn``).  ``seed`` (an int, a sequence of ints or a
    ``numpy.random.SeedSequence``) is not advanced, so the same seed gives
    the same value on every call.
    Each pair costs O(G p) for G tie groups, after one O(n p) pass over the
    rows.  The result is a lower bound on the true supremum.

    ``loss_rows``, when given, must be ``risk._loss_rows(data, theta)``, the
    loss rows the caller has already taken: they are used as they are, and
    ``theta`` is not read again.  ``fitted`` is checked either way.
    """
    return _sup_gap(data, theta, samples, seed, fitted, True, loss_rows)


def estimate_sup_gap_grand_mean(
    data: DataMatrix, theta, samples: int, seed, fitted: FitResult, *, loss_rows=None
) -> float:
    """Grand-mean analogue of :func:`estimate_sup_gap` (weights only)."""
    if data.n < 2:
        raise ValueError("grand-mean shrinkage requires at least two rows")
    return _sup_gap(data, theta, samples, seed, fitted, False, loss_rows)


def _uint32_words(value) -> list[int]:
    """The 32-bit words that ``numpy.random.SeedSequence`` assembles from an
    int or a sequence of ints: each int least significant word first, 0 as
    one word."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        words = [value & 0xFFFFFFFF]
        while value > 0xFFFFFFFF:
            value >>= 32
            words.append(value & 0xFFFFFFFF)
        return words
    if isinstance(value, (list, tuple, range, np.ndarray)):
        return [word for item in value for word in _uint32_words(item)]
    raise TypeError(f"seed entropy must be integers, not {type(value).__name__}")


# numpy's SeedSequence hash, fixed by its stream-compatibility policy (NEP 19):
# the hashmix constants of the entropy mix and of generate_state, and the
# multipliers that mix a hashed word into a pool word
_MIX_INIT, _MIX_MULT = 0x43B0D7E5, 0x931E8875
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@cache
def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """Hash constants ``start`` to ``start + count - 1`` of a hashmix run,
    ``init * mult**i`` mod 2**32, as a read-only uint32 column.  Kept per
    argument tuple: one per entropy length and pool size in use, and all
    the harness's streams share one."""
    consts = [init * pow(mult, start + i, 1 << 32) & 0xFFFFFFFF for i in range(count)]
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


# generate_state(4, np.uint64) hashes 8 words, each with the next constant
_STATE_CONSTS = _hash_constants(_STATE_INIT, _STATE_MULT, 0, 9)


def _xorshift(words: np.ndarray) -> np.ndarray:
    return words ^ (words >> np.uint32(16))


def _child_states(root: np.random.SeedSequence, count: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each of the first ``count``
    children that ``root.spawn`` would give, one row per child, computed for
    all of them at once without spawning.

    Child k's entropy words are the run entropy zero-padded to the pool
    size, the spawn key, then k.  numpy hashes them in order with constants
    that depend only on how many words came before, so the pool that every
    word but k leaves is numpy's own ``SeedSequence(prefix).pool``, and k,
    a word past the pool, is hashmixed into each pool word in turn after
    the prefix's ``len(prefix) * pool_size`` hashmix calls.  When the root
    has a spawn key, as every harness stream does, numpy pads its run
    entropy the same way, so that pool is the root's own.  The state words
    then cycle the mixed pool, as ``generate_state`` does.
    """
    size = root.pool_size
    run, key = _uint32_words(root.entropy), _uint32_words(root.spawn_key)
    prefix = run + [0] * (size - len(run)) + key
    pool = root.pool if key else np.random.SeedSequence(prefix, pool_size=size).pool
    consts = _hash_constants(_MIX_INIT, _MIX_MULT, len(prefix) * size, size + 1)
    hashed = _xorshift((np.arange(count, dtype=np.uint32) ^ consts[:-1]) * consts[1:])
    mixed = _xorshift(np.uint32(_MIX_L) * pool[:, None] - np.uint32(_MIX_R) * hashed)
    words = _xorshift((mixed[np.arange(8) % size] ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:])
    # pairs of 32-bit words, low word first, as little-endian 64-bit words
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


@cache
def _child_seed_type() -> type:
    """A seed type that hands a bit generator one child's precomputed state
    words: ``PCG64`` seeds itself from ``generate_state(4, np.uint64)``.
    Built on first use, since naming ``numpy.random`` when this module is
    imported would import it, about 40 ms that ``nefshrink fit`` never
    spends."""

    class ChildState(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return ChildState


def _random_pairs(n_groups: int, p: int, m_range: float, samples: int, seed):
    """The ``samples`` random pairs of the proxy: sorted uniform weights, one
    per tie group (``samples`` x ``n_groups``), and targets uniform in
    ``[-m_range, m_range]`` (``samples`` x ``p``).

    Stream k is ``default_rng(child)`` for the k-th child that
    ``spawn(samples)`` gives a fresh ``SeedSequence(seed)`` (or ``seed``
    itself, when it is a ``SeedSequence`` that has spawned nothing yet).
    No child is built: :func:`_child_states` computes the state words of
    all of them in one vectorized pass, and each stream's ``PCG64`` seeds
    itself from its row.  So the caller's ``SeedSequence`` is not advanced,
    and a repeated call draws the same pairs.  This relies on numpy keeping
    the ``SeedSequence`` hash and ``PCG64``'s seeding fixed (NEP 19);
    ``TestSupGapPerTieGroup`` and ``TestChildStates`` in the harness tests
    compare the streams with ``spawn``'s.  Each stream makes one call,
    ``random(n_groups + p)``: the same doubles, in the same order, as
    :func:`~nefshrink.optimize.sample_feasible_weights` followed by
    ``uniform(-m_range, m_range, p)`` on that stream.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    child_seed = _child_seed_type()
    draws = np.empty((samples, n_groups + p))
    for row, state in zip(draws, _child_states(root, samples)):
        np.random.Generator(np.random.PCG64(child_seed(state))).random(out=row)
    return np.sort(draws[:, :n_groups], axis=1), -m_range + (2.0 * m_range) * draws[:, n_groups:]


def _sup_gap(data, theta, samples, seed, fitted: FitResult, location: bool, loss_rows) -> float:
    """Largest |risk estimate - loss| over the corners, the fitted pair and
    ``samples`` random pairs: URE against a per-pair target in the data box
    (``location``), or AURE with the target fixed at the grand mean.  The
    loss rows are ``loss_rows``, or are taken here when that is None.

    The ``b_i^2`` terms of the risk estimate and of the loss cancel, so
    each gap is linear in the weights:
    ``np * gap_k = sum_i r_i - 2 sum_i b_ki q_ki`` with
    ``r_i = S_i - ||y_i - theta_i||^2`` and
    ``q_ki = f S_i - (y_i - theta_i).(y_i - mu_k)``, where ``S_i`` are the
    row sums of ``V(Y)/(tau + nu2)`` and ``f`` is 1 for URE and
    ``1 - 1/n`` for AURE: ``r = S - const`` and
    ``q_k = f S - lin + cross @ mu_k`` in the loss rows of
    :func:`~nefshrink.risk._loss_rows`.  Feasible weights are constant on
    each tie group, so ``f S - lin`` and ``cross`` are summed once per group
    along ``RowOrder.permutation``, into ``h`` (G) and ``C`` (G x p), and
    every pair is scored at once from its group weights ``U`` (K x G) and
    targets ``T`` (K x p): ``np * gaps = R - 2 (U h + rowsum((U C) * T))``.
    Summing per row first keeps the terms of size ``np`` from cancelling
    against each other.
    """
    order = data.order
    m_range = data.data_range
    g = order.n_groups
    starts = order.group_starts
    fitted_b = check_feasible_weights(fitted.b, order)[order.permutation[starts]]
    random_b, random_mu = _random_pairs(g, data.p, m_range, samples, seed)
    weights = np.vstack([np.zeros(g), np.ones(g), fitted_b, random_b])
    if location:
        mu_center = np.clip(data.column_means, -m_range, m_range)
        fitted_mu = check_feasible_location(fitted.mu, data)
        targets = np.vstack([mu_center, mu_center, fitted_mu, random_mu])
    else:
        targets = data.column_means  # one row shared by every pair
    lin, cross, const = _loss_rows(data, theta) if loss_rows is None else loss_rows
    s = data.surrogate_row_sums
    factor = 1.0 if location else 1.0 - 1.0 / data.n
    h = np.add.reduceat((factor * s - lin)[order.permutation], starts)
    c = np.add.reduceat(cross[order.permutation], starts, axis=0)
    gaps = (s - const).sum() - 2.0 * (weights @ h + ((weights @ c) * targets).sum(axis=1))
    return float(np.abs(gaps).max()) / data.y.size


def _generate_theta(config: ExperimentConfig, spec: FamilySpec, n: int, p: int, seed_seq) -> np.ndarray:
    rule, bounds = config.theta_rule, config.theta_bounds()
    if bounds is None:
        theta = np.loadtxt(rule.partition(":")[2], delimiter=",", ndmin=2)
        if theta.shape != (n, p):
            raise ValueError(
                f"fixed theta matrix has shape {theta.shape}, expected {(n, p)}"
            )
    else:
        theta = np.random.default_rng(seed_seq).uniform(*bounds, (n, p))
    try:
        validate_mean_matrix(spec, theta)
    except ValueError as exc:
        raise ValueError(f"theta rule {rule!r} left the family mean domain: {exc}") from None
    return theta


def _generate_tau(config: ExperimentConfig, spec: FamilySpec, n: int, p: int, seed_seq) -> np.ndarray:
    """The rule's tau for ``n`` rows as floats, so the replications that
    share it are sampled without a copy each."""
    bounds = config.tau_bounds()
    if bounds is None:
        return default_tau(spec, n, p)
    lo, hi = bounds
    return np.random.default_rng(seed_seq).integers(lo, hi + 1, (n, p)).astype(float)


def _run_replication(
    config: ExperimentConfig, task: tuple[int, Design, int]
) -> list[ReplicationRecord]:
    """The records of one replication: a draw from the grid point's design,
    then the fit, the sup-gap proxy and the competitors.  The loss rows
    ``(d_i . y_i, d_i, ||d_i||^2)`` with ``d = y - theta`` are taken once,
    here, and handed to the proxy and the loss oracle.  Each estimator is
    then scored from its ``(b, mu)``, with no n-by-p estimate or residual:
    its loss and, for a competitor, its risk are
    :func:`~nefshrink.risk._row_quadratic` rows that share the curvature
    ``a_i = ||y_i - mu||^2``; the loss's linear term is
    ``d_i . y_i - d_i . mu``, and the risk is :func:`~nefshrink.risk.ure`
    at ``a``.  ``a`` and ``d . mu`` are taken once per distinct target, and
    at the column means ``a`` is the matrix's ``centered_row_norms``, which
    the fit has already derived."""
    ni, design, rep = task
    theta = design.theta
    data = design.sample(_substream(config.seed, ni, rep, _SAMPLE))
    result, estimate = fit(data, config.mode)
    loss_rows = lin, cross, const = _loss_rows(data, theta)
    sup_seed = _substream(config.seed, ni, rep, _SUPGAP)
    sup_gap_of = estimate_sup_gap if config.mode == "location" else estimate_sup_gap_grand_mean
    sup_gap = sup_gap_of(data, theta, config.sup_gap_samples, sup_seed, fitted=result,
                         loss_rows=loss_rows)
    scored = [("fit", estimate, result.objective, result.iterations, result.converged)]
    for kind in config.competitors:
        est = competitor(data, kind, theta=theta if kind == "oracle_loss" else None,
                         loss_rows=loss_rows)
        scored.append((kind, est, None, 0, True))
    s = data.surrogate_row_sums
    size = data.y.size
    at_target = {}  # target bytes -> (||y_i - mu||^2, d_i . y_i - d_i . mu)
    records = []
    for name, est, risk, iters, converged in scored:
        key = est.mu.tobytes()
        if key not in at_target:
            at_target[key] = _target_row_norms(data, est.mu), lin - cross @ est.mu
        a, lin_at = at_target[key]
        if risk is None:
            risk = _row_quadratic(est.b, a, s, s, size)
        loss = _row_quadratic(est.b, a, lin_at, const, size)
        records.append(
            ReplicationRecord(rep, data.n, data.p, name, loss, risk, sup_gap, iters, converged)
        )
    return records


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _worker_count(jobs: int) -> int:
    """Processes to share ``jobs`` jobs: min(usable CPUs, jobs), or 1 without
    the ``fork`` start method.  Fewer than 2 jobs never fork, so they are
    counted without importing ``multiprocessing``, which every command that
    never forks would pay for on start."""
    if jobs < 2:
        return 1
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(_usable_cpus(), jobs)


def _run_worker(work, job, conn) -> None:
    """A forked worker's target: ``work(job, conn)``; on failure exit with
    status 1 and no traceback, which the parent sees as end of file on ``conn``."""
    try:
        work(job, conn)
    except Exception as exc:  # the parent reports it, or falls back
        raise SystemExit(1) from exc


@contextlib.contextmanager
def _forked_workers(work, jobs):
    """Fork one worker per job, each running ``work(job, conn)`` with the
    sending end of its own pipe, and yield the receiving ends in job order.

    The workers read their jobs from the parent's memory, nothing is pickled;
    multiprocessing's fork, not os.fork, flushes stdout first, so the lines
    already printed are not written again by a worker.  The workers are
    killed and joined on the way out, on success or error.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    procs, pipes = [], []
    try:
        for job in jobs:
            receive, send = context.Pipe(duplex=False)
            pipes.append(receive)
            procs.append(context.Process(target=_run_worker, args=(work, job, send)))
            procs[-1].start()
            send.close()  # so a worker that dies shows as end of file
        yield pipes
    finally:
        for proc in procs:
            proc.kill()
            proc.join()
        for receive in pipes:
            receive.close()


def _send_records(run, tasks, conn) -> None:
    """Worker body: send the records of each task down ``conn``, in order."""
    for task in tasks:
        conn.send(run(task))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ReplicationRecord]:
    """Execute every replication of the configured experiment and return
    its records: per n, per replication, the fit's row, then one row per
    competitor in config order.

    Fully deterministic given ``(config, config.seed)``: replication
    streams are keyed by position, and records are collected in task
    order, so the output is identical for any ``workers`` count.  The mean
    and tau matrices of each grid point are checked, and its row order and
    sampler inputs derived, once, in the :class:`~nefshrink.families.Design`
    that its replications share.

    With W = ``_worker_count(min(workers, tasks))`` of at least 2, that is at
    most one process per replication and per usable CPU, W forked workers run
    the replications, worker k tasks k, k + W, ..., from the parent's memory,
    and each sends its records down its own pipe; the parent receives them in
    task order, round-robin.  If a worker fails or cannot be forked, every
    replication runs again in this process, so an error is the serial run's.
    Otherwise, and where there is no ``fork``, this process runs them in turn.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spec = config.family_spec()
    tasks = []
    for ni, n in enumerate(config.n_grid):
        p = config.p_for(n)
        theta = _generate_theta(config, spec, n, p, _substream(config.seed, ni, 0, _THETA))
        tau = _generate_tau(config, spec, n, p, _substream(config.seed, ni, 0, _TAU))
        design = Design(spec, theta, tau)
        tasks.extend((ni, design, rep) for rep in range(config.replications))
    run = partial(_run_replication, config)
    workers = _worker_count(min(workers, len(tasks)))
    if workers > 1:
        jobs = [tasks[k::workers] for k in range(workers)]
        try:
            with _forked_workers(partial(_send_records, run), jobs) as pipes:
                return [row for index in range(len(tasks)) for row in pipes[index % workers].recv()]
        except (EOFError, OSError):  # a worker died or was not forked: run again below
            pass
    records = []
    tasks.reverse()
    while tasks:  # a popped task's design is freed once its grid point is done
        records += run(tasks.pop())
    return records


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    if values.size < 2:
        return mean, float("nan")
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def aggregate_records(records: list[ReplicationRecord]) -> list[AggregateRecord]:
    """Per-(n, estimator) means and standard errors, in first-seen order."""
    groups: dict[tuple[int, str], list[ReplicationRecord]] = {}
    for record in records:
        groups.setdefault((record.n, record.estimator), []).append(record)
    out = []
    for (n, estimator), rows in groups.items():
        mean, se = {}, {}
        for stat in _STATS:
            mean[stat], se[stat] = _mean_se(np.array([float(getattr(r, stat)) for r in rows]))
        out.append(AggregateRecord(n, rows[0].p, estimator, len(rows), mean, se))
    return out


def _csv_line(*cells) -> str:
    """One CSV row; floats are written losslessly (``%.17g``)."""
    return ",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in cells)


def records_csv_text(records: list[ReplicationRecord]) -> str:
    """Serialize the records, then their :func:`aggregate_records` rows
    (rep = mean/se), losslessly."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(_csv_line(r.rep, r.n, r.p, r.estimator, *(getattr(r, s) for s in _STATS)))
    for a in aggregate_records(records):
        for kind, values in (("mean", a.mean), ("se", a.se)):
            lines.append(_csv_line(kind, a.n, a.p, a.estimator, *values.values()))
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[ReplicationRecord], path) -> None:
    Path(path).write_text(records_csv_text(records), newline="\n")


def read_records_csv(path) -> list[ReplicationRecord]:
    """Load the records of a records CSV.

    The mean/se rows are checked, then dropped: :func:`aggregate_records`
    derives them again.  A malformed row is reported with the path and its
    1-based line number."""
    lines = Path(path).read_text().rstrip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected records header in {path}")
    width = CSV_HEADER.count(",") + 1
    records: list[ReplicationRecord] = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != width:
            raise ValueError(f"{path} line {lineno}: expected {width} fields, got {len(cells)}")
        rep, n, p, estimator, *values = cells
        try:
            n, p = int(n), int(p)
            if rep in ("mean", "se"):
                list(map(float, values))  # checked only: aggregate_records derives them
            else:
                stats = {s: parse(v) for (s, parse), v in zip(_STATS.items(), values)}
                records.append(ReplicationRecord(int(rep), n, p, estimator, **stats))
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return records


def fit_rate(aggregates: list[AggregateRecord], y: str = "mean_sup_gap") -> RateFit:
    """Least squares of ``log(y)`` on ``log(n)`` across the sample-size grid.

    ``y`` is either the fit's mean sup-gap proxy or its mean excess loss
    over the loss oracle (``oracle_loss``), the two quantities the paper
    judges the fitted estimator by; other estimators' rows are not read.
    Requires at least three grid points and strictly positive values.
    """
    by_n: dict[int, dict[str, AggregateRecord]] = {}
    for agg in aggregates:
        by_n.setdefault(agg.n, {})[agg.estimator] = agg
    ns = sorted(by_n)
    ys = []
    for n in ns:
        rows = by_n[n]
        if "fit" not in rows:
            raise ValueError(f"no aggregate rows for estimator 'fit' at n={n}")
        if y == "mean_sup_gap":
            ys.append(rows["fit"].mean["sup_gap"])
        elif y == "mean_excess_loss":
            if "oracle_loss" not in rows:
                raise ValueError(f"no aggregate rows for reference 'oracle_loss' at n={n}")
            ys.append(rows["fit"].mean["loss"] - rows["oracle_loss"].mean["loss"])
        else:
            raise ValueError(f"unknown rate quantity {y!r}")
    if len(ns) < 3:
        raise ValueError("rate fitting needs at least three grid points")
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0):
        raise ValueError("rate fitting needs strictly positive values")
    lx = np.log(np.asarray(ns, dtype=float))
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    slope = float((lx_c @ (ly - ly.mean())) / (lx_c @ lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = len(ns) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    stderr = float(np.sqrt(sigma2 / (lx_c @ lx_c)))
    return RateFit(slope=slope, intercept=intercept, stderr=stderr, n_points=len(ns))
