"""Bandit policies.

The centerpiece is an epoch-budgeted Gaussian Thompson sampler: each arm may
release at most `phi_budget` fresh Gaussian models per epoch, after which the
best model drawn in the epoch is reused as a UCB-style index until the arm's
observation count doubles.  Baselines: plain Gaussian Thompson sampling, the
same with `b` extra pre-pulls per arm and variance scale `c`, and UCB1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .env import BLOCK_SIZE
from .privacy import (
    BUDGET_SCALE,
    MIN_HORIZON,
    GdpParam,
    _check_alpha,
    _check_b,
    _check_c,
    _check_horizon,
    eta_dp_ts_ucb,
    eta_m_ts_gaussian,
    eta_ts_gaussian,
)

__all__ = [
    "ArmState",
    "DpTsUcbConfig",
    "DpTsUcbPolicy",
    "GaussianThompsonPolicy",
    "MTsGaussianConfig",
    "Policy",
    "PolicyConfig",
    "TsGaussianConfig",
    "Ucb1Config",
    "Ucb1Policy",
    "VARIANTS",
    "Variant",
    "make_policy",
    "phi_budget",
]


def phi_budget(alpha: float, horizon: int) -> int:
    """Per-epoch cap on fresh Gaussian draws for one arm.

    ceil(BUDGET_SCALE * T^{0.5(1-alpha)} * ln(T)^{0.5(3-alpha)}); at alpha=1
    this is O(ln T), at alpha=0 it grows like sqrt(T) ln^1.5 T.
    """
    alpha = _check_alpha(alpha)
    T = float(_check_horizon(horizon))
    return math.ceil(
        BUDGET_SCALE * T ** (0.5 * (1.0 - alpha)) * math.log(T) ** (0.5 * (3.0 - alpha))
    )


# ---------------------------------------------------------------------------
# configuration


class Variant:
    """A policy variant: its name and CSV label, the horizons it accepts, its
    initialization rounds, its closed-form guarantee and its factory, which
    passes `rng` on unchanged.  A new policy is one more subclass in VARIANTS."""

    name: ClassVar[str]
    min_horizon: ClassVar[int] = 1

    def label(self) -> str:
        return self.name

    def init_rounds(self, n_arms: int) -> int:
        """Rounds consumed by the forced round-robin initialization."""
        return n_arms

    def gdp(self, horizon: int) -> GdpParam | None:
        """The Gaussian guarantee over the horizon; None claims none."""
        return None

    def build(self, n_arms: int, horizon: int, rng: np.random.Generator) -> Policy:
        raise NotImplementedError


@dataclass(frozen=True)
class DpTsUcbConfig(Variant):
    """Budgeted Gaussian Thompson sampling with UCB reuse."""

    alpha: float

    name = "dp-ts-ucb"
    min_horizon = MIN_HORIZON

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)

    def label(self) -> str:
        return f"dp-ts-ucb(alpha={self.alpha:g})"

    def gdp(self, horizon: int) -> GdpParam:
        return eta_dp_ts_ucb(self.alpha, horizon)

    def build(self, n_arms: int, horizon: int, rng: np.random.Generator) -> Policy:
        return DpTsUcbPolicy(n_arms, horizon, self.alpha, rng)


@dataclass(frozen=True)
class TsGaussianConfig(Variant):
    """Plain Gaussian Thompson sampling, theta_i ~ Normal(mu_hat_i, 1/n_i)."""

    name = "ts-gaussian"

    def gdp(self, horizon: int) -> GdpParam:
        return eta_ts_gaussian(horizon)

    def build(self, n_arms: int, horizon: int, rng: np.random.Generator) -> Policy:
        return GaussianThompsonPolicy(n_arms, rng, b=0, c=1.0)


@dataclass(frozen=True)
class MTsGaussianConfig(Variant):
    """Gaussian Thompson sampling with b extra pre-pulls per arm and model
    variance c/n_i."""

    b: int
    c: float

    name = "m-ts-gaussian"

    def __post_init__(self) -> None:
        _check_b(self.b)
        _check_c(self.c)

    def label(self) -> str:
        return f"m-ts-gaussian(b={self.b};c={self.c:.6g})"

    def init_rounds(self, n_arms: int) -> int:
        return (self.b + 1) * n_arms

    def gdp(self, horizon: int) -> GdpParam:
        return eta_m_ts_gaussian(horizon, self.b, self.c)

    def build(self, n_arms: int, horizon: int, rng: np.random.Generator) -> Policy:
        return GaussianThompsonPolicy(n_arms, rng, b=self.b, c=self.c)


@dataclass(frozen=True)
class Ucb1Config(Variant):
    """Deterministic UCB1 index policy, mu_hat_i + sqrt(2 ln t / n_i)."""

    name = "ucb1"

    def build(self, n_arms: int, horizon: int, rng: np.random.Generator) -> Policy:
        return Ucb1Policy(n_arms)


#: Every policy variant by name, in the order the command line lists them.
VARIANTS: dict[str, type[Variant]] = {
    v.name: v for v in (DpTsUcbConfig, TsGaussianConfig, MTsGaussianConfig, Ucb1Config)
}


@dataclass(frozen=True)
class PolicyConfig:
    """A policy variant pinned to the horizon it will be run for."""

    variant: Variant
    horizon: int

    def __post_init__(self) -> None:
        if type(self.variant) not in VARIANTS.values():
            raise ValueError(f"unknown policy variant: {self.variant!r}")
        _check_horizon(self.horizon, self.variant.min_horizon)

    def validate_for(self, n_arms: int) -> None:
        """Check instance-dependent preconditions (initialization must fit)."""
        if n_arms < 1:
            raise ValueError("need at least one arm")
        need = self.variant.init_rounds(n_arms)
        if need > self.horizon:
            raise ValueError(
                f"{self.label()} needs {need} initialization rounds "
                f"but the horizon is {self.horizon}"
            )

    def label(self) -> str:
        """Stable human-readable id used in CSV output (never contains commas)."""
        return self.variant.label()


# ---------------------------------------------------------------------------
# policies


class Policy:
    """Sequential contract: for t = 1..T call select(t), then feed the pulled
    arm's reward back through update(arm, reward).

    The first `init_rounds` selections pull the arms round-robin; `update`
    counts them off on `_init_cursor`.  Every later round, `_round(t)` writes
    one value per arm into `_theta` (a fresh or reused model, or an index) and
    returns the arm to pull.  A subclass writes `_round` and `update`; one
    that estimates each arm by the running mean of all its rewards feeds them
    through `_observe`."""

    def __init__(self, n_arms: int, init_rounds: int) -> None:
        self.n_arms = int(n_arms)
        self._init_rounds = init_rounds
        self._init_cursor = 0
        self._mu_hat = np.zeros(self.n_arms, dtype=np.float64)
        self._theta = np.empty(self.n_arms, dtype=np.float64)
        self._counts = [0] * self.n_arms
        self._mu = [0.0] * self.n_arms

    def select(self, t: int) -> int:
        if self._init_cursor < self._init_rounds:
            return self._init_cursor % self.n_arms
        return self._round(t)

    def select_with_models(self, t: int) -> tuple[int, np.ndarray]:
        """One post-initialization round; returns (arm, per-arm values)."""
        if self._init_cursor < self._init_rounds:
            raise RuntimeError("initialization rounds are not finished")
        return self._round(t), self._theta.copy()

    def _round(self, t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float) -> None:
        raise NotImplementedError

    def _observe(self, arm: int, reward: float) -> int:
        """Count one reward off the initialization rounds, if any are left,
        and fold it into the arm's count and running mean (mirrored into
        `_mu_hat`); returns the new count."""
        if self._init_cursor < self._init_rounds:
            self._init_cursor += 1
        n = self._counts[arm] + 1
        self._counts[arm] = n
        mu = self._mu[arm]
        mu += (reward - mu) / n
        self._mu[arm] = mu
        self._mu_hat[arm] = mu
        return n


@dataclass(frozen=True)
class ArmState:
    """Snapshot of one arm's epoch bookkeeping in DpTsUcbPolicy.

    n observations back the current mean estimate; `unprocessed` rewards (and
    their `pending_sum`) wait for the epoch to complete, which happens after
    exactly 2^epoch of them; `budget` fresh draws remain before the policy
    falls back to reusing `max_model`; `fresh_draws` models the arm has drawn
    over the whole run.
    """

    n: int
    mu_hat: float
    epoch: int
    unprocessed: int
    budget: int
    max_model: float
    pending_sum: float
    fresh_draws: int


#: Live sets of at most FEW arms draw one scalar `rng.normal(loc, scale)` per
#: arm; larger ones make one call on arrays.  A scalar call costs about 0.7 µs
#: and the array call about 8 µs whatever its length (numpy 2.4, Python 3.11,
#: a 2-vCPU VM), so the break-even is about 11 live arms.
FEW = 8


class DpTsUcbPolicy(Policy):
    """Gaussian Thompson sampling under a per-epoch fresh-model budget.

    Every round, each arm with budget left draws a fresh model
    theta_i ~ Normal(mu_hat_i, ln(T)^alpha / n_i) (a mandatory-sampling round
    for that arm); an arm whose budget is spent reuses the max model it drew
    this epoch.  The arm with the largest model is pulled.  Rewards accumulate
    in a pending buffer; once an arm's epoch has 2^r of them, the mean
    estimate is replaced by the buffer mean, the budget refills and the epoch
    max resets.  Every arm with budget left spends one fresh draw each round,
    whether or not it ends up pulled.

    Every round draws one variate per live arm from `rng.normal(loc, scale)`,
    in arm order: one scalar call per arm when at most FEW arms are live, one
    call on arrays otherwise.  A round without a live arm leaves `rng`
    untouched.  Budgets are not counted down round by round: an arm's budget
    is `expiry - rounds`, so the live set and the draw arguments are rebuilt
    only when an epoch closes or a budget runs out.
    """

    def __init__(
        self,
        n_arms: int,
        horizon: int,
        alpha: float,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(n_arms, n_arms)
        self.horizon = _check_horizon(horizon)
        self.alpha = _check_alpha(alpha)
        self.phi = phi_budget(alpha, horizon)
        self._rng = rng
        # ln(T)^alpha is fixed for the whole run; evaluate it once.
        self._ln_pow = math.log(float(horizon)) ** self.alpha
        k = self.n_arms
        self._epoch = [1] * k  # an arm in epoch r has n = 2^(r-1) observations
        self._unprocessed = [0] * k
        self._pending = [0.0] * k
        self._rounds = 0  # post-initialization rounds selected so far
        self._expiry = [self.phi] * k  # the round count at which the budget is spent
        self._closed_draws = [0] * k  # fresh draws of the arm's closed epochs
        self._scale = np.full(k, math.sqrt(self._ln_pow), dtype=np.float64)
        self._max_model = np.full(k, -math.inf, dtype=np.float64)
        # Python-float access to the per-arm scalar path's buffers
        self._theta_view = memoryview(self._theta)
        self._max_view = memoryview(self._max_model)
        # The live-arm cache, rebuilt by _refresh once _rounds reaches
        # _stale_at.  At most FEW live arms: _draws holds (arm, loc, scale)
        # for each, _live is None, and (_best, _top) is the first argmax of
        # the other arms' epoch maxima (_top is -inf when every arm is live).
        # More: _live indexes them and _live_loc/_live_scale are the normal()
        # arguments.  _theta holds the epoch max of every arm that does not
        # draw.
        self._stale_at = 0
        self._draws: list[tuple[int, float, float]] = []
        self._live: slice | np.ndarray | None = None
        self._live_loc = self._live_scale = self._mu_hat
        self._best, self._top = -1, -math.inf

    def arm_state(self, arm: int) -> ArmState:
        """Inspection snapshot of one arm's bookkeeping."""
        return ArmState(
            n=1 << (self._epoch[arm] - 1),
            mu_hat=float(self._mu_hat[arm]),
            epoch=self._epoch[arm],
            unprocessed=self._unprocessed[arm],
            budget=max(0, self._expiry[arm] - self._rounds),
            max_model=float(self._max_model[arm]),
            pending_sum=self._pending[arm],
            fresh_draws=self._closed_draws[arm] + self._epoch_draws(arm),
        )

    def _epoch_draws(self, arm: int) -> int:
        """Fresh draws the arm has made in its current epoch."""
        expiry = self._expiry[arm]
        return min(self._rounds, expiry) - (expiry - self.phi)

    def _round(self, t: int) -> int:
        if self._rounds >= self._stale_at:
            self._refresh()
        self._rounds += 1
        live = self._live
        if live is not None:
            theta = self._theta
            theta[live] = self._rng.normal(self._live_loc, self._live_scale)
            np.maximum(self._max_model, theta, out=self._max_model)
            return int(theta.argmax())
        normal, theta, epoch_max = self._rng.normal, self._theta_view, self._max_view
        best, top = -1, -math.inf
        for arm, loc, scale in self._draws:
            model = normal(loc, scale)
            theta[arm] = model
            if model > epoch_max[arm]:
                epoch_max[arm] = model
            if model > top:
                best, top = arm, model
        # numpy's argmax rule: on a tie the lower index wins
        if self._top > top or (self._top == top and self._best < best):
            return self._best
        return best

    def _refresh(self) -> None:
        """Rebuild the live-arm cache for the current round count."""
        rounds = self._rounds
        live = [arm for arm, expiry in enumerate(self._expiry) if expiry > rounds]
        self._stale_at = min((self._expiry[arm] for arm in live), default=math.inf)
        np.copyto(self._theta, self._max_model)
        if len(live) > FEW:
            self._live = slice(None) if len(live) == self.n_arms else np.array(live)
            self._live_loc = self._mu_hat[self._live]
            self._live_scale = self._scale[self._live]
            return
        self._live = None
        self._draws = [(arm, float(self._mu_hat[arm]), float(self._scale[arm])) for arm in live]
        maxes = self._theta.tolist()
        for arm in live:
            maxes[arm] = -math.inf
        self._best = max(range(self.n_arms), key=maxes.__getitem__)
        self._top = maxes[self._best]

    def update(self, arm: int, reward: float) -> None:
        if self._init_cursor < self._init_rounds:
            self._observe(arm, reward)  # the single round-robin pull seeds mu_hat, n=1
            return
        unprocessed = self._unprocessed[arm] + 1
        pending = self._pending[arm] + reward
        size = 1 << self._epoch[arm]
        if unprocessed < size:
            self._unprocessed[arm] = unprocessed
            self._pending[arm] = pending
            return
        self._mu_hat[arm] = pending / size
        self._scale[arm] = math.sqrt(self._ln_pow / size)
        self._max_model[arm] = -math.inf
        self._pending[arm] = 0.0
        self._unprocessed[arm] = 0
        self._epoch[arm] += 1
        self._closed_draws[arm] += self._epoch_draws(arm)
        self._expiry[arm] = self._rounds + self.phi
        self._stale_at = self._rounds


class GaussianThompsonPolicy(Policy):
    """Gaussian Thompson sampling: theta_i ~ Normal(mu_hat_i, c/n_i) for every
    arm every round, after pulling each arm b+1 times round-robin.  b=0, c=1
    is the plain baseline.

    Noise comes from blocks of `standard_normal` rows, one row per round;
    theta = scale * z + mu_hat is bit for bit what `rng.normal(mu_hat, scale)`
    would return at the same point of the stream."""

    def __init__(self, n_arms: int, rng: np.random.Generator, b: int = 0, c: float = 1.0) -> None:
        super().__init__(n_arms, (int(b) + 1) * int(n_arms))
        self.b = int(b)
        self.c = float(c)
        self._rng = rng
        self._scale = np.zeros(self.n_arms, dtype=np.float64)
        self._block_rows = max(1, BLOCK_SIZE // self.n_arms)
        self._noise = np.empty((0, self.n_arms))
        self._row = self._block_rows

    def _round(self, t: int) -> int:
        row = self._row
        if row == self._block_rows:
            self._noise = self._rng.standard_normal((self._block_rows, self.n_arms))
            row = 0
        self._row = row + 1
        theta = np.multiply(self._noise[row], self._scale, out=self._theta)
        theta += self._mu_hat
        return int(theta.argmax())

    def update(self, arm: int, reward: float) -> None:
        self._scale[arm] = math.sqrt(self.c / self._observe(arm, reward))


class Ucb1Policy(Policy):
    """UCB1: pull argmax of mu_hat_i + sqrt(2 ln t / n_i) after one pull each."""

    def __init__(self, n_arms: int) -> None:
        super().__init__(n_arms, n_arms)
        self._n = np.zeros(self.n_arms, dtype=np.float64)  # the counts, as divisors

    def _round(self, t: int) -> int:
        index = np.divide(2.0 * math.log(t), self._n, out=self._theta)
        np.sqrt(index, out=index)
        index += self._mu_hat
        return int(index.argmax())

    def update(self, arm: int, reward: float) -> None:
        self._n[arm] = self._observe(arm, reward)


def make_policy(config: PolicyConfig, n_arms: int, rng: np.random.Generator) -> Policy:
    """Instantiate the policy described by `config` for an n_arms instance."""
    config.validate_for(n_arms)
    return config.variant.build(n_arms, config.horizon, rng)
