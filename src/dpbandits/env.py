"""Bandit environments and deterministic random-stream plumbing."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_SIZE",
    "BanditInstance",
    "Purpose",
    "RngStream",
    "gaps",
    "sample_reward",
]


class Purpose(enum.IntEnum):
    """Stream purpose tags.  Environment rewards and policy noise never share
    a stream, so changing one policy's draw pattern cannot shift rewards."""

    REWARD = 0
    POLICY = 1
    TRIAL = 2


#: Random values the round loops draw from a generator per call.  Block draws
#: give the same values as one-at-a-time calls; this bounds the buffers at
#: 32 KiB whatever the horizon.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class RngStream:
    """A counter-based random stream addressed by (seed, key).

    Equal (seed, key) pairs reproduce the identical draw sequence and distinct
    keys give statistically independent streams, independent of thread count
    or evaluation order.  ``generator()`` materializes a fresh generator every
    call, so holding an RngStream is side-effect free.
    """

    seed: int
    key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seed, key = int(self.seed), tuple(int(k) for k in self.key)
        if seed < 0 or any(k < 0 for k in key):
            raise ValueError(f"stream seed and key parts must be non-negative, got {seed}, {key}")
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "seed", seed)

    def child(self, *parts: int) -> "RngStream":
        """Derive the sub-stream addressed by appending `parts` to the key."""
        return RngStream(self.seed, self.key + tuple(int(p) for p in parts))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class BanditInstance:
    """A stationary K-armed instance with Bernoulli rewards, means in [0, 1]."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.means)
        if not means:
            raise ValueError("an instance needs at least one arm")
        if any(not 0.0 <= m <= 1.0 for m in means):  # also rejects NaN
            raise ValueError(f"arm means must lie in [0, 1], got {means}")
        object.__setattr__(self, "means", means)

    @property
    def n_arms(self) -> int:
        return len(self.means)


def gaps(instance: BanditInstance) -> np.ndarray:
    """Per-arm suboptimality gaps max_j mu_j - mu_i; best arms get exactly 0."""
    means = np.asarray(instance.means, dtype=np.float64)
    return means.max() - means


def sample_reward(
    instance: BanditInstance,
    arm: int,
    rng: np.random.Generator,
) -> float:
    """One Bernoulli reward for `arm`, drawn statefully from `rng`."""
    if not 0 <= arm < instance.n_arms:
        raise IndexError(f"arm {arm} out of range for {instance.n_arms} arms")
    return 1.0 if rng.random() < instance.means[arm] else 0.0
