"""Diagonal exponential-family models with quadratic variance functions.

Five families (normal, Poisson, gamma, multinomial, negative multinomial)
share the structure ``Var(Y_ij) = V(theta_ij) / tau_ij`` where
``V(t) = nu0 + nu1*t + nu2*t**2`` and the ``tau_ij`` are known positive
integer within-group sample sizes.  This module defines the family
descriptors, their mean domains and exact samplers, and the immutable
:class:`DataMatrix`: observations, their tau matrix and their family,
checked once against the family's support, which keeps what its consumers
derive from one matrix: the tau row order (:class:`RowOrder`), the data
range, the column means and the surrogate row sums ``S_i`` that the risk
estimates of :mod:`nefshrink.risk` read.  A :class:`Design` fixes the mean
and tau matrices of repeated draws: it checks them, derives the row order
(and, for the normal family, whose ``S_i`` depend on tau alone, the
surrogate row sums) and binds its family's draw function to the sampler's
inputs once, so each draw checks only its observations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property, partial

import numpy as np

__all__ = [
    "FamilyKind",
    "FamilySpec",
    "RowOrder",
    "DataMatrix",
    "Design",
    "make_family",
    "variance_function",
    "validate_mean_matrix",
    "default_tau",
    "sample_matrix",
]

class FamilyKind(str, Enum):
    """Lowercase serialization tokens for the five supported families."""

    NORMAL = "normal"
    POISSON = "poisson"
    GAMMA = "gamma"
    MULTINOMIAL = "multinomial"
    NEGMULTINOMIAL = "negmultinomial"


@dataclass(frozen=True)
class FamilySpec:
    """Variance structure of one family.

    Attributes
    ----------
    kind : FamilyKind
    nu0, nu1, nu2 : float
        Coefficients of the quadratic variance function
        ``V(t) = nu0 + nu1*t + nu2*t**2``.
    shape : float, optional
        Gamma shape parameter (``lambda``); absent for other families.
    trials : int, optional
        Trial count ``N`` of every row of the (negative) multinomial families;
        per-row counts ``N_i`` enter through a tau matrix with constant rows.
    """

    kind: FamilyKind
    nu0: float
    nu1: float
    nu2: float
    shape: float | None = None
    trials: int | None = None


def make_family(
    kind: str | FamilyKind,
    shape: float | None = None,
    trials: int | None = None,
) -> FamilySpec:
    """Build the :class:`FamilySpec` for one of the five families.

    ``shape`` must be supplied exactly for the gamma family and ``trials``
    exactly for the (negative) multinomial families.  The variance
    coefficients are fixed per family:

    ========================  ==============================
    normal                    (1, 0, 0)
    poisson                   (0, 1, 0)
    gamma(lambda)             (0, 0, 1/lambda)
    multinomial               (0, 1, -1)
    negative multinomial      (0, 1, 1)
    ========================  ==============================
    """
    try:
        kind = FamilyKind(kind)
    except ValueError:
        raise ValueError(f"unknown family token {kind!r}") from None

    if (shape is not None) != (kind is FamilyKind.GAMMA):
        raise ValueError("shape is required for gamma and forbidden otherwise")
    needs_trials = kind in (FamilyKind.MULTINOMIAL, FamilyKind.NEGMULTINOMIAL)
    if (trials is not None) != needs_trials:
        raise ValueError(
            "trials are required for multinomial/negmultinomial and forbidden otherwise"
        )

    if kind is FamilyKind.NORMAL:
        return FamilySpec(kind, 1.0, 0.0, 0.0)
    if kind is FamilyKind.POISSON:
        return FamilySpec(kind, 0.0, 1.0, 0.0)
    if kind is FamilyKind.GAMMA:
        shape = float(shape)
        if not (0.0 < shape < np.inf and 1.0 / shape < np.inf):
            raise ValueError(f"gamma shape lambda must be positive and finite, with a finite "
                             f"1/lambda; got {shape!r}")
        return FamilySpec(kind, 0.0, 0.0, 1.0 / shape, shape=shape)

    spec = FamilySpec(kind, 0.0, 1.0, -1.0 if kind is FamilyKind.MULTINOMIAL else 1.0)
    count = float(trials) if abs(trials) < 1e308 else np.inf  # 10**400: past float and cap
    _check_tau(count, spec)
    return replace(spec, trials=int(count))


def variance_function(spec: FamilySpec, t):
    """Evaluate ``V(t) = nu0 + nu1*t + nu2*t**2`` elementwise.

    Defined for all real ``t``; positivity is only guaranteed strictly
    inside the family's mean domain.
    """
    return spec.nu0 + spec.nu1 * t + spec.nu2 * t * t


def validate_mean_matrix(spec, theta, allow_poisson_boundary=False):
    """Check that every entry of ``theta`` lies in the family's mean domain.

    The domain is all reals for the normal family, the positive reals for
    Poisson, gamma and negative multinomial, and the open interval (0, 1)
    with strict row sums below 1 for the multinomial family.  Poisson
    entries equal to 0 are admitted only when ``allow_poisson_boundary``
    is set (a degenerate point-mass limit used by the sampler).
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("mean parameters must be finite")
    kind = spec.kind
    if kind is FamilyKind.NORMAL:
        return theta
    if kind is FamilyKind.POISSON:
        lo_ok = np.all(theta >= 0) if allow_poisson_boundary else np.all(theta > 0)
        if not lo_ok:
            raise ValueError("poisson means must be positive")
        return theta
    if kind in (FamilyKind.GAMMA, FamilyKind.NEGMULTINOMIAL):
        if not np.all(theta > 0):
            raise ValueError(f"{kind.value} means must be positive")
        return theta
    # multinomial: entries interior to (0, 1), strict row mass below 1
    if not (np.all(theta > 0) and np.all(theta < 1)):
        raise ValueError("multinomial means must lie strictly inside (0, 1)")
    if theta.ndim == 2 and not np.all(theta.sum(axis=1) < 1):
        raise ValueError("multinomial mean rows must sum to strictly less than 1")
    return theta


# cells per row block of a whole-matrix pass: a few MiB of temporaries at a time
_BLOCK_CELLS = 1 << 16


def _row_blocks(n: int, p: int):
    """Slices of consecutive rows of an n-by-p matrix, about ``_BLOCK_CELLS``
    cells each."""
    rows = max(1, _BLOCK_CELLS // p)
    return (slice(start, start + rows) for start in range(0, n, rows))


def _check_tau(tau, spec: FamilySpec) -> np.ndarray:
    """The one tau rule, of every matrix, design and trial count ``N``: finite
    positive integers with ``tau + nu2 > 0``; for a trial family one ``N_i`` per
    row, at least 2 (multinomial) or 1, and below 2**63, the sampler's int64.
    The row and integer tests run one row block at a time, so their
    temporaries stay near ``_BLOCK_CELLS`` cells, whatever the size of tau
    (a broadcast default tau has no cells of its own)."""
    tau = np.atleast_2d(np.asarray(tau))
    if not tau.size:  # the observations' check reports an empty matrix
        return tau.astype(float)
    low, high = tau.min(), tau.max()
    blocks = [tau[rows] for rows in _row_blocks(*tau.shape)]
    if spec.kind in (FamilyKind.MULTINOMIAL, FamilyKind.NEGMULTINOMIAL):
        name, floor = spec.kind.value, 2 if spec.kind is FamilyKind.MULTINOMIAL else 1
        if not (low >= floor and high < 2.0**63):
            raise ValueError(f"{name} trial counts must be positive integers with "
                             f"N_i >= {floor} and N_i < 2**63")
        if not all(np.all(block == block[:, :1]) for block in blocks):
            raise ValueError(f"{name} tau rows must be constant (one N_i per row)")
    if not (low >= 1 and high < np.inf
            and all(np.all(block == np.floor(block)) for block in blocks)):
        raise ValueError("tau entries must be finite positive integers")
    if not low + spec.nu2 > 0:
        raise ValueError("tau + nu2 must be positive for every entry")
    return tau.astype(float, copy=False)  # a float tau is kept as passed


def default_tau(spec: FamilySpec, n: int, p: int) -> np.ndarray:
    """Canonical tau matrix: all ones, or all ``N`` for trial-based families,
    as a read-only float view of one value."""
    return np.broadcast_to(float(spec.trials or 1), (n, p))


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

    @cached_property
    def group_starts(self) -> np.ndarray:
        """Each tie group's first position along ``permutation``, read-only."""
        return _read_only(np.flatnonzero(np.diff(self.group_ids, prepend=-1)))

    @cached_property
    def tied_steps(self) -> np.ndarray:
        """Which steps between adjacent positions along ``permutation`` stay
        inside one tie group, read-only."""
        return _read_only(np.diff(self.group_ids) == 0)

    def expand_group_values(self, values) -> np.ndarray:
        """Map one value per group back to a per-row vector."""
        values = np.asarray(values, dtype=float)
        out = np.empty(self.n, dtype=float)
        out[self.permutation] = values[self.group_ids]
        return out

    def is_feasible(self, b) -> bool:
        b = np.asarray(b, dtype=float).reshape(-1)
        if b.shape != (self.n,):
            return False
        # nondecreasing along the order, constant inside each tie group; then
        # the box holds if it holds at the two ends.  NaN fails a comparison,
        # and so does inf - inf, which is NaN
        ordered = b[self.permutation]
        with np.errstate(invalid="ignore"):
            steps = np.subtract(ordered[1:], ordered[:-1])
        return bool(np.all(steps >= 0.0) and np.all(steps[self.tied_steps] == 0.0)
                    and (not self.n or ordered[0] >= 0.0 and ordered[-1] <= 1.0))


def _tau_only(spec: FamilySpec) -> bool:
    """Whether ``V`` is the constant ``nu0``, so ``S_i`` depends on tau alone."""
    return spec.nu1 == 0.0 and spec.nu2 == 0.0


def _surrogate_row_sums(spec: FamilySpec, tau: np.ndarray, y) -> np.ndarray:
    """The read-only row sums ``S_i`` of ``V(y_ij)/(tau_ij + nu2)``, one row
    block at a time; ``y`` is not read when :func:`_tau_only` holds."""
    tau_only = _tau_only(spec)
    s = np.empty(tau.shape[0])
    for block in _row_blocks(*tau.shape):
        denom = tau[block] + spec.nu2  # positive: the tau rule's
        v = spec.nu0 if tau_only else variance_function(spec, y[block])
        s[block] = (v / denom).sum(axis=1)
    return _read_only(s)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _read_only_order(order: RowOrder) -> RowOrder:
    """``order`` with its arrays, the kept ones included, made read-only."""
    for array in vars(order).values():
        _read_only(array)
    return order


@dataclass(frozen=True)
class DataMatrix:
    """An n-by-p observation matrix together with its tau matrix and family.

    The tau matrix must pass the one tau rule (finite positive integers; in
    a trial family one ``N_i`` per row, 2 (or 1) ``<= N_i < 2**63``), and
    the observations must lie in the family's support: only the normal
    family admits negative observations, and a multinomial row holds shares
    of the ``N`` trials, entries in [0, 1] whose sum is at most 1, up to the
    rounding of ``p`` shares ``c_j / N`` whose counts sum to ``N``.  The
    largest absolute observation must be at most ``sqrt(max float / (8 n
    p))``, so that the risk estimates' sums of squared deviations stay finite.

    Immutable: the fields cannot be reassigned, and the quantities that
    consumers derive from the matrix (``order``, ``data_range``,
    ``column_means`` and ``surrogate_row_sums``) are computed on first use
    and kept, as read-only arrays.  A float ``y`` or ``tau`` is kept as
    passed, not copied, so it must not be changed after construction, or
    the kept values go stale.
    """

    y: np.ndarray
    tau: np.ndarray
    spec: FamilySpec

    def __post_init__(self):
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        tau = _check_tau(self.tau, self.spec)
        if y.shape != tau.shape:
            raise ValueError(
                f"observation shape {y.shape} does not match tau shape {tau.shape}"
            )
        object.__setattr__(self, "tau", tau)
        self._set_observations(y)

    @classmethod
    def _drawn(cls, y: np.ndarray, design: "Design") -> "DataMatrix":
        """The matrix of observations ``y`` drawn from ``design``: only ``y``
        is checked; the tau matrix, its row order and, when they depend on
        tau alone, the surrogate row sums are the design's, checked and
        derived once for all its draws."""
        data = object.__new__(cls)
        object.__setattr__(data, "tau", design.tau)
        object.__setattr__(data, "spec", design.spec)
        data.__dict__["order"] = design.order  # the cached_property's slot
        if design.surrogate_row_sums is not None:
            data.__dict__["surrogate_row_sums"] = design.surrogate_row_sums
        data._set_observations(y)
        return data

    def _set_observations(self, y: np.ndarray) -> None:
        """Check the float matrix ``y`` against the family's support and the
        scale bound, then keep it."""
        if y.size == 0:
            raise ValueError("observation matrix must be non-empty")
        if not np.all(np.isfinite(y)):
            raise ValueError("observations must be finite")
        kind = self.spec.kind
        if kind is not FamilyKind.NORMAL and np.any(y < 0):
            raise ValueError(f"{kind.value} observations must be nonnegative")
        if kind is FamilyKind.MULTINOMIAL:
            if np.any(y > 1):
                raise ValueError("multinomial observations must lie in [0, 1]")
            if np.any(y.sum(axis=1) > 1.0 + y.shape[1] * np.finfo(float).eps):
                raise ValueError("multinomial observation rows must sum to at most 1")
        object.__setattr__(self, "y", y)
        # each cell adds at most (2 max|y|)^2 to a squared deviation sum and
        # about 3 max|y|^2 more to a risk estimate's terms, all summed over y.size
        limit = np.sqrt(np.finfo(float).max / (8 * y.size))
        if self.data_range > limit:
            raise ValueError(
                f"observation scale {self.data_range:.3g} is too large: for {y.size} "
                f"entries the largest absolute observation must be at most {limit:.3g}"
            )

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.y.shape[1]

    @cached_property
    def order(self) -> RowOrder:
        """The tau row order that feasible weights follow."""
        return _read_only_order(RowOrder.from_tau(self.tau))

    @cached_property
    def data_range(self) -> float:
        """Largest absolute observation; box bound for shrinkage targets."""
        return float(np.abs(self.y).max())

    @cached_property
    def column_means(self) -> np.ndarray:
        """Column means ``Ybar_j``, the grand-mean shrinkage target."""
        return _read_only(self.y.mean(axis=0))

    @cached_property
    def surrogate_row_sums(self) -> np.ndarray:
        """Row sums ``S_i`` of ``V(Y_ij)/(tau_ij + nu2)``, the unbiased variance surrogate.

        Summed one block of about ``_BLOCK_CELLS`` cells of rows at a time, so
        the n-by-p temporaries never exist at full size; each row's sum is its
        own reduction, so the result is bit-identical to the whole-matrix sum.
        When ``nu1 = nu2 = 0`` (the normal family) ``V(Y_ij)`` is the constant
        ``nu0``, so ``S_i`` is ``nu0/(tau_ij + nu2)`` summed, read from tau
        alone: a :class:`Design` derives it once for all its draws.  For the
        finite observations within the scale bound that the matrix admits,
        ``nu0 + 0*y + 0*y*y`` is exactly ``nu0``, so the two ways agree bit
        for bit.
        """
        return _surrogate_row_sums(self.spec, self.tau, self.y)


# numpy draws no Poisson mean above int64 max - 10 sqrt(int64 max), about 9.2e18
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def _draw_normal(theta, scale, rng):
    """normal: the mean of ``tau`` unit-variance draws, i.e. ``N(theta,
    1/tau)``, with ``scale = 1/sqrt(tau)``."""
    # the doubles of rng.normal(theta, scale), without its broadcast loop
    return theta + scale * rng.standard_normal(theta.shape)


def _draw_poisson(lam, tau, rng):
    """poisson: ``Poisson(tau*theta)/tau``, with ``lam = tau*theta`` (theta =
    0 entries degenerate to 0)."""
    return rng.poisson(lam) / tau


def _draw_gamma(k, scale, rng):
    """gamma: shape ``k = tau*lambda``, scale ``theta/(tau*lambda)``."""
    return rng.gamma(k, scale)


def _draw_multinomial(counts, pvals, rng):
    """multinomial: a genuine ``N_i``-trial draw over the p categories plus
    an implicit remainder category (the last of ``pvals``), divided by
    ``N_i``."""
    return rng.multinomial(counts, pvals)[:, :-1] / counts[:, None]


def _draw_negmultinomial(theta, trials, rng):
    """negative multinomial: the exact gamma-Poisson mixture, divided by
    ``N_i`` (marginals negative binomial, positively coupled); a draw whose
    Poisson mean, about ``N_i * theta``, passes numpy's limit of about 9.2e18
    is a ``ValueError`` that names N and the largest theta."""
    mix = rng.gamma(trials, 1.0)  # the gamma mix's shapes are the counts
    try:
        return rng.poisson(mix[:, None] * theta) / trials[:, None]
    except ValueError:  # a mean above numpy's Poisson limit: theta is finite and positive
        raise ValueError(
            f"negmultinomial draw failed: its Poisson means are about N_i * theta, "
            f"and N = {int(trials.max())} with theta up to {theta.max():.6g} puts them "
            f"above numpy's Poisson limit of about 9.2e18"
        ) from None


class Design:
    """The fixed part of repeated draws: a family, a mean matrix ``theta``
    and a tau matrix, checked and prepared once.

    On construction ``theta`` is checked against the family's mean domain
    (Poisson means of 0 are admitted: they draw 0), ``tau`` is checked as
    :class:`DataMatrix` checks it, the tau row order is derived (its group
    starts and tie mask are kept on first use), and the family's draw
    function is bound to its inputs (``1/sqrt(tau)``, ``tau*theta``, the
    gamma shapes and scales, the trial counts).  When ``nu1 = nu2 = 0`` (the
    normal family) the surrogate row sums ``S_i`` depend on tau alone, and
    ``surrogate_row_sums`` holds them, read-only; for the other families it
    is None.
    A Poisson design whose largest ``tau*theta`` passes numpy's limit of
    about 9.2e18 is rejected here, with that mean named.  Each
    :meth:`sample` then pays only for its draw: its :class:`DataMatrix`
    shares the checked tau matrix, the read-only row order and any
    read-only row sums, and checks only its observations.  As with a
    :class:`DataMatrix`, a float ``theta`` or ``tau`` is kept as passed, so
    it must not be changed while the design is in use.
    """

    def __init__(self, spec: FamilySpec, theta, tau):
        theta = np.atleast_2d(np.asarray(theta, dtype=float))
        tau = _check_tau(tau, spec)
        if theta.shape != tau.shape:
            raise ValueError(
                f"theta shape {theta.shape} does not match tau shape {tau.shape}"
            )
        validate_mean_matrix(
            spec, theta, allow_poisson_boundary=spec.kind is FamilyKind.POISSON
        )
        # module functions, not closures: a pool's pickled design draws too
        kind = spec.kind
        if kind is FamilyKind.NORMAL:
            draw = partial(_draw_normal, theta, 1.0 / np.sqrt(tau))
        elif kind is FamilyKind.POISSON:
            lam = tau * theta
            if np.any(lam > _POISSON_LAM_MAX):
                raise ValueError(f"poisson means tau * theta reach {lam.max():.6g}, above "
                                 "numpy's Poisson limit of about 9.2e18")
            draw = partial(_draw_poisson, lam, tau)
        elif kind is FamilyKind.GAMMA:
            k = tau * spec.shape
            draw = partial(_draw_gamma, k, theta / k)
        elif kind is FamilyKind.MULTINOMIAL:
            counts = tau[:, 0].astype(np.int64)  # one checked N_i per row
            pvals = np.hstack([theta, (1.0 - theta.sum(axis=1))[:, None]])
            draw = partial(_draw_multinomial, counts, pvals)
        else:
            draw = partial(_draw_negmultinomial, theta, tau[:, 0])
        self.spec, self.theta, self.tau = spec, theta, tau
        self.order = _read_only_order(RowOrder.from_tau(tau))
        self.surrogate_row_sums = (
            _surrogate_row_sums(spec, tau, None) if _tau_only(spec) else None
        )
        self._draw = draw

    def __setstate__(self, state):
        # an unpickled array is writable again: a pool's copy keeps the order
        # and the row sums read-only
        self.__dict__.update(state)
        _read_only_order(self.order)
        if self.surrogate_row_sums is not None:
            _read_only(self.surrogate_row_sums)

    def sample(self, seed) -> DataMatrix:
        """One draw, as :func:`sample_matrix` describes it."""
        return DataMatrix._drawn(self._draw(np.random.default_rng(seed)), self)


def sample_matrix(spec: FamilySpec, theta, tau, seed) -> DataMatrix:
    """Draw one observation matrix with ``E(Y_ij) = theta_ij`` and
    ``Var(Y_ij) = V(theta_ij)/tau_ij``.

    Rows are independent.  Each family's entry law is stated with its draw
    function: ``_draw_normal``, ``_draw_poisson``, ``_draw_gamma``,
    ``_draw_multinomial`` and ``_draw_negmultinomial``.  Poisson means
    ``tau*theta`` past numpy's limit of about 9.2e18 are a ``ValueError``
    before any draw; a negative multinomial draw whose Poisson means, about
    ``N_i * theta``, pass that limit is one when it is drawn.

    Deterministic for a fixed ``seed`` (int or ``numpy.random.SeedSequence``);
    a fresh generator is created per call, so concurrent invocations never
    share state.  This is ``Design(spec, theta, tau).sample(seed)``: a
    caller that draws many matrices at one ``(theta, tau)`` builds the
    :class:`Design` once and calls its :meth:`~Design.sample`, with the
    same draws.
    """
    return Design(spec, theta, tau).sample(seed)
