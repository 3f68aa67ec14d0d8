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
    through `_observe`.

    The harness plays a block of rounds at a time through `play`.  Here it is
    the select/update loop; a subclass may override it to settle several
    rounds at once, provided it pulls the same arms and leaves its state and
    its generator exactly where that loop would."""

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

    def play(self, t0: int, uniforms: np.ndarray, means) -> np.ndarray:
        """Rounds t0, t0 + 1, ..., one per reward uniform: round t pulls
        `arm`, feeds `update` the Bernoulli reward `u < means[arm]`, and the
        pulled arms come back in round order."""
        select, update = self.select, self.update
        arms = []
        for t, u in enumerate(uniforms.tolist(), start=t0):
            arm = select(t)
            update(arm, 1.0 if u < means[arm] else 0.0)
            arms.append(arm)
        return np.array(arms, dtype=np.intp)

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

    Every round draws one variate per live arm (an arm with budget left) from
    one `rng.normal(loc, scale)` call on arrays, in arm order; a round
    without a live arm leaves `rng` untouched.  Budgets are not
    counted down round by round: an arm's budget is `expiry - rounds`, so the
    live set and the draw arguments are rebuilt only when an epoch closes or
    a budget runs out.

    `select`, `_round` and `update` are the per-round reference.  After the
    initialization rounds, `play` settles the stretches between two such
    events in bulk, whatever the size of the live set.  A chunk of at most
    `BLOCK_SIZE // live` rounds (at least one), and of no more than are left
    before a budget runs out, draws `standard_normal((rounds, live))`.
    `z * scale + loc` is bit for bit the per-round `rng.normal(loc, scale)`,
    and each row's first argmax over the live models and the best reused
    epoch max is the pull; with no live arm nothing is drawn and every round
    pulls that max.  If an epoch closes inside the chunk, the chunk is cut
    after that round: the generator's state is restored and exactly the
    variates of the rounds kept are drawn again, so `rng` stands where the
    per-round path leaves it.  The closing round's reward goes through
    `update`.

    `play` needs a real `np.random.Generator`; the per-round path needs only
    `normal(loc, scale)`.
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
        # The live-arm cache, rebuilt by _refresh once _rounds reaches
        # _stale_at: the live arms in arm order, their normal() arguments, and
        # (_best, _top), the first argmax of the other arms' epoch maxima.
        # _theta holds the epoch max of every arm that does not draw.
        self._stale_at = 0
        self._live = np.empty(0, dtype=np.intp)
        self._live_loc = self._live_scale = self._mu_hat[:0]
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
        if not len(self._live):
            return self._best  # _theta holds every arm's epoch max
        theta = self._theta
        theta[self._live] = self._rng.normal(self._live_loc, self._live_scale)
        np.maximum(self._max_model, theta, out=self._max_model)
        return int(theta.argmax())

    def _refresh(self) -> None:
        """Rebuild the live-arm cache for the current round count."""
        rounds = self._rounds
        live = [arm for arm, expiry in enumerate(self._expiry) if expiry > rounds]
        self._stale_at = min((self._expiry[arm] for arm in live), default=math.inf)
        self._live = np.array(live, dtype=np.intp)
        self._live_loc = self._mu_hat[self._live]
        self._live_scale = self._scale[self._live]
        np.copyto(self._theta, self._max_model)
        maxes = self._theta.tolist()
        for arm in live:
            maxes[arm] = -math.inf
        self._best = max(range(self.n_arms), key=maxes.__getitem__)
        self._top = maxes[self._best]

    def play(self, t0: int, uniforms: np.ndarray, means) -> np.ndarray:
        n = len(uniforms)
        arms = np.empty(n, dtype=np.intp)
        # the initialization rounds go through select/update
        i = min(n, self._init_rounds - self._init_cursor)
        arms[:i] = super().play(t0, uniforms[:i], means)
        payout = np.asarray(means, dtype=np.float64)
        while i < n:
            i = self._stride(i, uniforms, payout, arms)
        return arms

    def _stride(self, i: int, uniforms: np.ndarray, means: np.ndarray,
                arms: np.ndarray) -> int:
        """Settle the rounds from index i in chunks up to the next epoch close
        or budget expiry, or to the block end, and return the index where
        that stops."""
        if self._rounds >= self._stale_at:
            self._refresh()
        rng, n = self._rng, len(uniforms)
        # an epoch close, the only change to these, ends the stretch
        live_arms, loc, scale = self._live, self._live_loc, self._live_scale
        live = live_arms.tolist()
        rows = max(1, BLOCK_SIZE // max(1, len(live)))
        # The candidate pulls in arm order, so that argmax keeps _round's
        # tie rule: the live arms, and the best reused epoch max unless
        # every arm is live.
        every_arm_live = len(live) == self.n_arms
        candidates = live if every_arm_live else sorted(live + [self._best])
        columns = np.arange(len(candidates))
        live_columns = [candidates.index(arm) for arm in live]
        candidate_arms = np.array(candidates)
        epoch, unprocessed, pending = self._epoch, self._unprocessed, self._pending
        while True:
            # rewards each candidate still needs to close its epoch
            left = [(1 << epoch[arm]) - unprocessed[arm] for arm in candidates]
            m = min(rows, n - i, self._stale_at - self._rounds)
            may_close = min(left) <= m
            if may_close:
                state = rng.bit_generator.state
            models = rng.standard_normal((m, len(live)))
            models *= scale
            models += loc
            if every_arm_live:
                values = models
            else:
                values = np.empty((m, len(candidates)))
                values[:, live_columns] = models
                values[:, candidates.index(self._best)] = self._top
            column = values.argmax(axis=1)
            closed = False
            if may_close:
                reached = (np.cumsum(column[:, None] == columns, axis=0) == left).any(axis=1)
                row = int(reached.argmax())
                closed = bool(reached[row])
                if closed and row + 1 < m:
                    m = row + 1
                    rng.bit_generator.state = state
                    rng.standard_normal(m * len(live))
                    column, models = column[:m], models[:m]
            pulled = candidate_arms[column]
            paid = uniforms[i:i + m] < means[pulled]
            settled = m - closed  # a closing round goes through update
            counts = np.bincount(column[:settled], minlength=len(candidates)).tolist()
            sums = np.bincount(column[:settled], weights=paid[:settled],
                               minlength=len(candidates)).tolist()
            for arm, count, total in zip(candidates, counts, sums):
                unprocessed[arm] += count
                pending[arm] += total
            self._max_model[live_arms] = np.maximum(self._max_model[live_arms], models.max(axis=0))
            self._theta[live_arms] = models[-1]
            self._rounds += m
            arms[i:i + m] = pulled
            i += m
            if closed:
                self.update(candidates[column[-1]], 1.0 if paid[-1] else 0.0)
            if closed or i == n or self._rounds >= self._stale_at:
                return i

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
