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
    returns the arm to pull.  A subclass writes `_round` and `update`.  An
    arm's mean estimate is always s / n from its count n and reward sum s, as
    `_store` writes them back (RunningMeanPolicy.update writes the same
    inline).  Sums of 0/1 rewards are exact, so the mean does not depend on
    the order the rewards came in, and bulk code may take every row's state
    from `np.cumsum`.

    The harness plays a block of rounds at a time through `play`.  Here it is
    the select/update loop, which calls `_round` directly once the
    initialization is over; a subclass may override it to settle several
    rounds at once, provided it pulls the same arms and leaves its state and
    its generator exactly where that loop would.  Both overrides settle the
    initialization rounds through `_round_robin`; after them DpTsUcbPolicy
    settles the rounds between two changes of its live set at once, and
    RunningMeanPolicy windows of rounds whose winners stand."""

    def __init__(self, n_arms: int, init_rounds: int) -> None:
        self.n_arms = int(n_arms)
        self._init_rounds = init_rounds
        self._init_cursor = 0
        self._mu_hat = np.zeros(self.n_arms, dtype=np.float64)
        self._theta = np.empty(self.n_arms, dtype=np.float64)
        self._counts = [0] * self.n_arms
        self._sums = [0.0] * self.n_arms

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
        pulled arms come back in round order.

        This select/update loop is the per-round reference.  The overrides
        settle most rounds in bulk; RunningMeanPolicy still plays the rounds
        after a short run through this loop."""
        select = self.select if self._init_cursor < self._init_rounds else self._round
        update, arms = self.update, []
        for t, u in enumerate(uniforms.tolist(), start=t0):
            arm = select(t)
            update(arm, 1.0 if u < means[arm] else 0.0)
            arms.append(arm)
        return np.array(arms, dtype=np.intp)

    def _round(self, t: int) -> int:
        raise NotImplementedError

    def update(self, arm: int, reward: float) -> None:
        raise NotImplementedError

    def _round_robin(self, uniforms: np.ndarray, means, arms: np.ndarray) -> int:
        """Settle the initialization rounds at the head of a block at once:
        round j pulls arm (cursor + j) % K, written to arms[j], and each
        pulled arm's count and reward sum grow by its pulls and rewards
        through `_store`.  Returns the number of such rounds."""
        k = self.n_arms
        m = min(len(uniforms), self._init_rounds - self._init_cursor)
        if m == 0:  # no numpy work once the initialization is over
            return 0
        pulled = arms[:m]
        pulled[:] = (self._init_cursor + np.arange(m)) % k
        paid = uniforms[:m] < np.asarray(means)[pulled]
        counts = np.bincount(pulled, minlength=k).tolist()
        sums = np.bincount(pulled, weights=paid, minlength=k).tolist()
        for arm in pulled[:k].tolist():
            self._store(arm, self._counts[arm] + counts[arm], self._sums[arm] + sums[arm])
        self._init_cursor += m
        return m

    def _store(self, arm: int, n: int, s: float) -> None:
        """Write back an arm's count n and reward sum s settled in bulk: into
        the counts, the sums, `_mu_hat` (as s / n) and, through `_counted`,
        where `_round` reads the count."""
        self._counts[arm] = n
        self._sums[arm] = s
        self._mu_hat[arm] = s / n
        self._counted(arm, n)

    def _counted(self, arm: int, n: int) -> None:
        """Store an arm's new count where `_round` reads it (nothing here)."""


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
    max resets (`_close`).  Every arm with budget left spends one fresh draw
    each round, whether or not it ends up pulled.

    Every round draws one variate per live arm (an arm with budget left) from
    one `rng.normal(loc, scale)` call on arrays, in arm order; a round without
    a live arm leaves `rng` untouched.  An arm's budget is `expiry - rounds`,
    not counted down round by round.  The epoch size 2^r, the unprocessed
    count, the pending sum, the expiry, the model scale and the epoch max are
    arrays over the arms, and `_round` reads the live set and its draw
    arguments from them every round.

    `select`, `_round` and `update` are the per-round reference.  After the
    initialization rounds, `play` settles in bulk the stretches between two
    changes of the live set, whatever its size: a budget runs out, or a spent
    arm closes its epoch and comes back live.  `_refresh` builds each stretch's
    live set, draw arguments and best reused max, and `play` keeps them as
    locals.  The per-round `rng.normal(loc, scale)` reads the next `live`
    values of one flat stream of standard normals, whatever the row width, and
    `z * scale + loc` is bit for bit its result.  So `play` carries that stream
    in a buffer: a chunk is as many whole rows as the buffer holds, and no
    more than are left before a budget runs out, and each row's first argmax
    over the live models and the best reused epoch max is the pull.  With no
    live arm nothing is drawn and every round pulls that max.  Each chunk adds
    its pulls and rewards to the unprocessed counts and pending sums.  If an
    epoch closes inside the chunk, the chunk is cut after that round, and the
    rows after it stay in the buffer for the next chunk.  A live arm's close
    writes its new mean, scale and reset max into the stretch's arrays in
    place, and the stretch goes on; a spent arm's close ends it.  A buffer
    holding less than one row is refilled behind that leftover with the values
    the block's remaining rounds would use at the current width, at most
    `BLOCK_SIZE` and at least a row, and the generator's state is saved
    first.  When `play` returns with part of the last refill unused, it
    restores the state and draws the used part again, so `rng` stands where
    the per-round path leaves it.

    `play` needs `standard_normal` and `bit_generator` of a real
    `np.random.Generator`; the per-round path needs only `normal(loc, scale)`.
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
        self._size = np.full(k, 2, dtype=np.int64)  # 2^r in epoch r, whose mean has n = 2^(r-1)
        self._unprocessed = np.zeros(k, dtype=np.int64)
        self._pending = np.zeros(k, dtype=np.float64)
        self._rounds = 0  # post-initialization rounds selected so far
        self._expiry = np.full(k, self.phi, dtype=np.int64)  # the round count at which the budget is spent
        self._closed_draws = [0] * k  # fresh draws of the arm's closed epochs
        self._scale = np.full(k, math.sqrt(self._ln_pow), dtype=np.float64)
        self._max_model = np.full(k, -math.inf, dtype=np.float64)

    def arm_state(self, arm: int) -> ArmState:
        """Inspection snapshot of one arm's bookkeeping."""
        size = int(self._size[arm])
        return ArmState(
            n=size >> 1,
            mu_hat=float(self._mu_hat[arm]),
            epoch=size.bit_length() - 1,
            unprocessed=int(self._unprocessed[arm]),
            budget=max(0, int(self._expiry[arm]) - self._rounds),
            max_model=float(self._max_model[arm]),
            pending_sum=float(self._pending[arm]),
            fresh_draws=self._closed_draws[arm] + self._epoch_draws(arm),
        )

    def _epoch_draws(self, arm: int) -> int:
        """Fresh draws the arm has made in its current epoch."""
        expiry = int(self._expiry[arm])
        return min(self._rounds, expiry) - (expiry - self.phi)

    def _round(self, t: int) -> int:
        live = np.flatnonzero(self._expiry > self._rounds)
        self._rounds += 1
        theta = self._theta
        np.copyto(theta, self._max_model)  # an arm that does not draw reuses its epoch max
        if len(live):
            theta[live] = self._rng.normal(self._mu_hat[live], self._scale[live])
            np.maximum(self._max_model, theta, out=self._max_model)
        return int(theta.argmax())

    def _refresh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | float, int, float]:
        """The live set at the current round count: the live arms in arm
        order, their normal() arguments, the round count at which the first
        of their budgets runs out, and the first argmax of the other arms'
        epoch maxima with its value."""
        is_live = self._expiry > self._rounds
        live = np.flatnonzero(is_live)
        stale_at = int(self._expiry[live].min()) if len(live) else math.inf
        maxes = np.where(is_live, -math.inf, self._max_model)
        best = int(maxes.argmax())
        return live, self._mu_hat[live], self._scale[live], stale_at, best, float(maxes[best])

    def _close(self, arm: int) -> None:
        """Close the arm's epoch, whose 2^r rewards are all in: the pending
        mean becomes the estimate, the budget refills from this round and
        the epoch max resets."""
        size = int(self._size[arm])
        self._mu_hat[arm] = self._pending[arm] / size
        self._scale[arm] = math.sqrt(self._ln_pow / size)
        self._max_model[arm] = -math.inf
        self._pending[arm] = 0.0
        self._unprocessed[arm] = 0
        self._size[arm] = 2 * size
        self._closed_draws[arm] += self._epoch_draws(arm)
        self._expiry[arm] = self._rounds + self.phi

    def play(self, t0: int, uniforms: np.ndarray, means) -> np.ndarray:
        n, k = len(uniforms), self.n_arms
        arms = np.empty(n, dtype=np.intp)
        means = np.asarray(means, dtype=np.float64)
        i = self._round_robin(uniforms, means, arms)
        rng = self._rng
        # the carried variates, the next unused one, and (the generator's
        # state before the last refill, where that refill starts)
        normals, used, refill = np.empty(0), 0, None
        while i < n:
            # a stretch: the live set and the best reused max hold until a
            # budget runs out or a spent arm comes back live
            live_arms, loc, scale, stale_at, best, top = self._refresh()
            live = len(live_arms)
            maxima = self._max_model[live_arms]
            while i < n and self._rounds < stale_at:
                m = min(n - i, stale_at - self._rounds)
                if live:
                    if len(normals) - used < live:  # keep the leftover, shorter than a row
                        refill = (rng.bit_generator.state, len(normals) - used)
                        fresh = rng.standard_normal(max(min(BLOCK_SIZE, (n - i) * live), live))
                        normals, used = np.concatenate((normals[used:], fresh)), 0
                    m = min(m, (len(normals) - used) // live)
                    models = normals[used:used + m * live].reshape(m, live) * scale
                    models += loc
                    pulled = live_arms[models.argmax(axis=1)]
                    if live < k:  # the best reused max wins if larger, or tied at a lower arm
                        row_max = models.max(axis=1)
                        pulled[(row_max < top) | ((row_max == top) & (pulled > best))] = best
                else:
                    pulled = np.full(m, best)
                counts = np.bincount(pulled, minlength=k)
                left = self._size - self._unprocessed  # rewards each arm needs to close its epoch
                reached = counts >= left
                closed = reached.any()
                if closed:  # cut after the first round that closes an epoch
                    m = 1 + min(int((pulled == arm).nonzero()[0][left[arm] - 1])
                                for arm in reached.nonzero()[0].tolist())
                    pulled = pulled[:m]
                    counts = np.bincount(pulled, minlength=k)
                self._unprocessed += counts
                self._pending += np.bincount(
                    pulled, weights=uniforms[i:i + m] < means[pulled], minlength=k)
                if live:
                    np.maximum(maxima, models[:m].max(axis=0), out=maxima)
                    used += m * live
                arms[i:i + m] = pulled
                i += m
                self._rounds += m
                if closed:
                    # a live arm's budget lasts to stale_at at least; a spent
                    # arm's ran out before this stretch
                    arm = int(pulled[-1])
                    was_live = self._expiry[arm] >= self._rounds
                    self._close(arm)
                    if was_live:  # the live set stands: rewrite the arm's entries in place
                        j = live_arms.searchsorted(arm)
                        loc[j], scale[j], maxima[j] = self._mu_hat[arm], self._scale[arm], -math.inf
                    else:  # a spent arm comes back live
                        stale_at = self._rounds
            if live:
                self._max_model[live_arms] = maxima
        if refill is not None and used < len(normals):  # a used-up refill left rng in place
            state, fresh_at = refill
            rng.bit_generator.state = state
            rng.standard_normal(used - fresh_at)
        return arms

    def update(self, arm: int, reward: float) -> None:
        if self._init_cursor < self._init_rounds:
            self._init_cursor += 1
            self._store(arm, 1, reward)  # the single round-robin pull seeds mu_hat, n=1
            return
        self._unprocessed[arm] += 1
        self._pending[arm] += reward
        if self._unprocessed[arm] == self._size[arm]:
            self._close(arm)


#: A baseline window's first length in rows, and its short threshold: a
#: window that keeps fewer rows than this, and fewer than it held, is a
#: short run (see RunningMeanPolicy.play).
LEAD_ROWS = 16
#: The ulps by which numpy's vectorized log may differ from math.log.
LOG_ULPS = 4
#: How close a UCB1 leader's index may come to the best other arm's before a
#: window decides the row again with math.log.  A UCB1 index
#: mu + sqrt(2 ln t / n) is below 16 for any t below 2^63; a 2 ln t that is
#: LOG_ULPS ulps off, and the division, square root and addition that round
#: after it, move it by less than (LOG_ULPS + 3) ulps of 16, and both sides of
#: the comparison move.  About 5e-14.
UCB1_TIE_MARGIN = 2 * (LOG_ULPS + 3) * 16 * 2.0 ** -52


class RunningMeanPolicy(Policy):
    """A policy that estimates each arm by the mean s_k / n_k of all its
    rewards, so that a pull changes only the pulled arm's values.  A
    subclass writes `_round`, `_counted`, which stores an arm's new count
    where `_round` reads it, and `_window`, which settles a window of rounds
    in bulk (see `play`)."""

    def __init__(self, n_arms: int, init_rounds: int) -> None:
        super().__init__(n_arms, init_rounds)
        # the next window's length and the fallback's, carried from block to block
        self._rows = self._stretch = LEAD_ROWS

    def update(self, arm: int, reward: float) -> None:
        """Count one reward off the initialization rounds, if any are left,
        and add it to the arm's count and sum as `_store` would; inline,
        since most rounds at many arms come through here."""
        if self._init_cursor < self._init_rounds:
            self._init_cursor += 1
        n = self._counts[arm] + 1
        s = self._sums[arm] + reward
        self._counts[arm] = n
        self._sums[arm] = s
        self._mu_hat[arm] = s / n
        self._counted(arm, n)

    def _window(self, t: int, uniforms: np.ndarray, means: np.ndarray
                ) -> tuple[np.ndarray, int]:
        """Settle a prefix of rounds t, t + 1, ..., one per reward uniform,
        where a pull of `arm` is paid `u < means[arm]`, and write the pulled
        arms' counts and sums back through `_store`.  Returns the arms of
        the rows kept (at least one) and the number of rows the window held
        (at least that many, at most one per uniform)."""
        raise NotImplementedError

    def play(self, t0: int, uniforms: np.ndarray, means) -> np.ndarray:
        """The initialization rounds go through `_round_robin`; after them,
        `_window` settles the rounds in windows, and the next window starts
        at the first row it did not keep.  This is the one place that
        decides how long a window is and when rounds go to the select/update
        loop instead; `_window` only reports the rows it kept and held.

        - The first window holds LEAD_ROWS rows.  While a window keeps every
          row it held, the next holds twice as many rows; after a cut, the
          next holds as many as this one held, so that a policy whose runs
          end at its switches does not double up again after each of them.
          No window holds more than BLOCK_SIZE values.
        - A window that keeps fewer rows than LEAD_ROWS, and fewer than it
          held, is a short run.  Where the pulled arm switches often under
          the policy's own pulls (many arms, tied arms), windows cost more
          than they settle, so after a short run the next rounds go through
          Policy.play: LEAD_ROWS of them, twice as many after each further
          short run, up to BLOCK_SIZE.  A run that is not short starts the
          count again.
        - Both lengths are carried from block to block.

        The rule reads only the run lengths the policy sees, so the arms,
        the state and the generator end where the select/update loop leaves
        them, whichever rounds it sends where."""
        n, k = len(uniforms), self.n_arms
        arms = np.empty(n, dtype=np.intp)
        mean_of = np.asarray(means, dtype=np.float64)
        i = self._round_robin(uniforms, mean_of, arms)
        widest = max(1, BLOCK_SIZE // k)  # rows of at most BLOCK_SIZE values
        rows, stretch = self._rows, self._stretch
        while i < n:
            kept, held = self._window(t0 + i, uniforms[i:i + min(rows, widest, n - i)], mean_of)
            run = len(kept)
            arms[i:i + run] = kept
            i += run
            rows = min(2 * rows if run == held else held, widest)
            if run >= min(held, LEAD_ROWS):
                stretch = LEAD_ROWS
            elif i < n:  # a window may end with the block
                rounds = min(stretch, n - i)
                arms[i:i + rounds] = Policy.play(self, t0 + i, uniforms[i:i + rounds], means)
                i += rounds
                stretch = min(2 * stretch, BLOCK_SIZE)
        self._rows, self._stretch = rows, stretch
        return arms


class GaussianThompsonPolicy(RunningMeanPolicy):
    """Gaussian Thompson sampling: theta_i ~ Normal(mu_hat_i, c/n_i) for every
    arm every round, after pulling each arm b+1 times round-robin.  b=0, c=1
    is the plain baseline.

    Noise comes from blocks of `standard_normal` rows, one row per round;
    theta = scale * z + mu_hat is bit for bit what `rng.normal(mu_hat, scale)`
    would return at the same point of the stream.

    A window (see RunningMeanPolicy.play) takes its rows from the current
    noise block and ends at the block's end; the next block is drawn when a
    round first needs it, as `_round` draws it.  Each row pulls its first
    argmax under the window's start state, its frozen winner.  A pull
    changes only the pulled arm's value, so only the columns of the frozen
    winners, p of the K, can differ from the frozen values.  A cumsum over
    the pulls, (m + 1) rows by p columns, gives those arms' count n and
    reward sum s before each row; their columns are recomputed as
    sqrt(c / n) * z + s / n, bit for bit what `_round` would write there,
    and written over the frozen values, and the rows are kept up to the
    first whose argmax changed.  A switch comes from the noise the window
    already holds, and a pull moves the pulled arm's value by about 1/n, so
    a frozen winner seldom changes."""

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

    def _counted(self, arm: int, n: int) -> None:
        self._scale[arm] = math.sqrt(self.c / n)

    def _window(self, t: int, uniforms: np.ndarray, means: np.ndarray
                ) -> tuple[np.ndarray, int]:
        if self._row == self._block_rows:
            self._noise = self._rng.standard_normal((self._block_rows, self.n_arms))
            self._row = 0
        z = self._noise[self._row:self._row + len(uniforms)]
        m = len(z)
        values = z * self._scale
        values += self._mu_hat
        winners = values.argmax(axis=1)
        # the frozen winners, and each row's winner as a column among them
        pulled = np.flatnonzero(np.bincount(winners, minlength=self.n_arms))
        column = pulled.searchsorted(winners)
        # the pulled arms' counts and reward sums before row j, in row j;
        # row m holds them after the last row
        rows = np.arange(1, m + 1)
        ns = np.zeros((m + 1, len(pulled)), dtype=np.intp)
        ns[0] = [self._counts[arm] for arm in pulled.tolist()]
        ns[rows, column] = 1
        np.cumsum(ns, axis=0, out=ns)
        sums = np.zeros((m + 1, len(pulled)))
        sums[0] = [self._sums[arm] for arm in pulled.tolist()]
        sums[rows, column] = uniforms[:m] < means[winners]
        np.cumsum(sums, axis=0, out=sums)
        # a pull changes only the pulled arm's value
        changed = np.sqrt(self.c / ns[:m]) * z[:, pulled]
        changed += sums[:m] / ns[:m]
        values[:, pulled] = changed
        # row 0 always stands, so argmax finds the first changed row, if any
        kept = int((values.argmax(axis=1) != winners).argmax()) or m
        for arm, n, total in zip(pulled.tolist(), ns[kept].tolist(), sums[kept].tolist()):
            self._store(arm, n, total)
        self._row += kept
        return winners[:kept], m


class Ucb1Policy(RunningMeanPolicy):
    """UCB1: pull argmax of mu_hat_i + sqrt(2 ln t / n_i) after one pull each.

    A window (see RunningMeanPolicy.play) is a leader run.  Its rows'
    indexes are built once under the current counts, arm by arm as a
    (K, m) array.  Row 0 takes 2 ln t from `math.log`, as `_round` does, so
    its first argmax, the pull, is the leader exactly.  The later rows take
    2 ln t from numpy's vectorized log, which may round an ulp or so away
    from `math.log` (at t = 9170 and 19143, among others).  A pull changes
    only the pulled arm's index, so the other arms' indexes stay fixed while
    the leader keeps winning, and its own comes from its count and the
    cumsum of the rewards it is paid.  Row j stands while the leader's
    index is above the best arm before it and at least the best arm after
    it, which is numpy's first-argmax rule.  Where the leader's index is
    more than UCB1_TIE_MARGIN above or below the best other arm's, the
    vectorized log cannot change that outcome; a row within the margin is
    decided again by `_round`, with `math.log`, on the state the rows before
    it leave, and the run goes on if it stands.  A UCB1 switch comes from
    its own state, as a pulled leader's index drops, so a row frozen before
    that pull seldom stands after it, and Thompson's pass over switching
    rows would not pay here."""

    def __init__(self, n_arms: int) -> None:
        super().__init__(n_arms, n_arms)
        self._n = np.zeros(self.n_arms, dtype=np.float64)  # the counts, as divisors

    def _round(self, t: int) -> int:
        index = np.divide(2.0 * math.log(t), self._n, out=self._theta)
        np.sqrt(index, out=index)
        index += self._mu_hat
        return int(index.argmax())

    def _counted(self, arm: int, n: int) -> None:
        self._n[arm] = n

    def _window(self, t: int, uniforms: np.ndarray, means: np.ndarray
                ) -> tuple[np.ndarray, int]:
        m = len(uniforms)
        twolog = np.log(np.arange(t, t + m, dtype=np.float64))
        twolog *= 2.0
        twolog[0] = 2.0 * math.log(t)
        # the indexes arm by arm, row by row
        values = twolog / self._n[:, None]
        np.sqrt(values, out=values)
        values += self._mu_hat[:, None]
        leader = int(values[:, 0].argmax())
        values[leader] = -math.inf
        rest = np.maximum.reduce(values[:, 1:], axis=0)  # the best other index, per row
        # the leader's count and reward sum after each row, and its index
        # in the next row less the best other arm's
        n = self._counts[leader] + np.arange(1, m + 1)
        sums = self._sums[leader] + np.cumsum(uniforms < means[leader])
        gap = np.sqrt(twolog[1:] / n[:-1]) + sums[:-1] / n[:-1] - rest
        # row 0 always stands; the rows that may end the run are those cut
        # or within the margin, and the window's end
        ends = np.append(gap <= UCB1_TIE_MARGIN, True)
        run = 1 + int(ends.argmax())
        while run < m and gap[run - 1] >= -UCB1_TIE_MARGIN:
            # within the margin: `_round` decides the row, on the state the
            # rows before it leave
            self._store(leader, int(n[run - 1]), float(sums[run - 1]))
            if self._round(t + run) != leader:
                break
            run += 1 + int(ends[run:].argmax())
        self._store(leader, int(n[run - 1]), float(sums[run - 1]))
        return np.full(run, leader), m


def make_policy(config: PolicyConfig, n_arms: int, rng: np.random.Generator) -> Policy:
    """Instantiate the policy described by `config` for an n_arms instance."""
    config.validate_for(n_arms)
    return config.variant.build(n_arms, config.horizon, rng)
