import copy
import math
from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from dpbandits import policies
from dpbandits.cli import expand_policies, parse_config
from dpbandits.env import BLOCK_SIZE, BanditInstance, RngStream
from dpbandits.harness import _drive
from dpbandits.policies import (
    BUDGET_SCALE,
    VARIANTS,
    DpTsUcbConfig,
    DpTsUcbPolicy,
    GaussianThompsonPolicy,
    MTsGaussianConfig,
    Policy,
    PolicyConfig,
    TsGaussianConfig,
    Ucb1Config,
    Ucb1Policy,
    make_policy,
    phi_budget,
)
from dpbandits.privacy import policy_gdp


def test_budget_scale_constant():
    assert BUDGET_SCALE == math.sqrt(2.0 * math.pi * math.e)


@pytest.mark.parametrize(
    "alpha, horizon, expected",
    [
        (1.0, 10**6, 58),
        (0.0, 10**6, 212221),
        (1.0, 1000, 29),
        (0.5, 10**4, 664),
        (1.0, 21, 13),
    ],
)
def test_phi_budget_values(alpha, horizon, expected):
    assert phi_budget(alpha, horizon) == expected


def test_phi_budget_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi_budget(-0.1, 1000)
    with pytest.raises(ValueError):
        phi_budget(1.2, 1000)
    with pytest.raises(ValueError):
        phi_budget(0.5, 20)  # ln T must clear 3, so horizons start at 21


def test_policy_config_validation():
    # each variant's own parameter and horizon checks run in test_variant_table
    with pytest.raises(ValueError):
        PolicyConfig(variant="nope", horizon=100)


def test_init_rounds_and_validate_for():
    assert DpTsUcbConfig(0.0).init_rounds(5) == 5
    assert MTsGaussianConfig(b=3, c=1.0).init_rounds(5) == 20
    with pytest.raises(ValueError):
        PolicyConfig(MTsGaussianConfig(b=100, c=1.0), 50).validate_for(2)
    with pytest.raises(ValueError):
        PolicyConfig(Ucb1Config(), 100).validate_for(0)


def test_labels_are_stable_and_comma_free():
    assert PolicyConfig(DpTsUcbConfig(0.5), 100).label() == "dp-ts-ucb(alpha=0.5)"
    assert (
        PolicyConfig(MTsGaussianConfig(2000, 60.46244990483342), 10**5).label()
        == "m-ts-gaussian(b=2000;c=60.4624)"
    )
    assert PolicyConfig(TsGaussianConfig(), 100).label() == "ts-gaussian"
    assert PolicyConfig(Ucb1Config(), 100).label() == "ucb1"
    for cfg in (
        PolicyConfig(DpTsUcbConfig(0.25), 100),
        PolicyConfig(MTsGaussianConfig(1, 1234.5678), 100),
    ):
        assert "," not in cfg.label()


# ---------------------------------------------------------------------------
# DpTsUcbPolicy epoch mechanics (K=2, T=21, alpha=1 keeps phi at 13)


def _fresh_dp_policy(seed=5):
    rng = RngStream(seed).generator()
    return DpTsUcbPolicy(2, 21, 1.0, rng)


def test_dp_policy_initial_state():
    policy = _fresh_dp_policy()
    assert policy.phi == 13
    for arm in (0, 1):
        s = policy.arm_state(arm)
        assert (s.n, s.mu_hat, s.epoch) == (1, 0.0, 1)
        assert (s.unprocessed, s.budget, s.pending_sum) == (0, 13, 0.0)
        assert s.max_model == -math.inf
        assert s.fresh_draws == 0


def test_dp_policy_round_robin_initialization():
    policy = _fresh_dp_policy()
    assert policy.select(1) == 0
    policy.update(0, 1.0)
    assert policy.select(2) == 1
    policy.update(1, 0.0)
    assert policy.arm_state(0).mu_hat == 1.0
    assert policy.arm_state(1).mu_hat == 0.0
    assert policy.arm_state(0).n == 1  # the init pull itself backs the estimate


def test_select_with_models_refuses_to_run_during_initialization():
    policy = _fresh_dp_policy()
    with pytest.raises(RuntimeError):
        policy.select_with_models(1)
    policy.update(0, 1.0)
    with pytest.raises(RuntimeError):
        policy.select_with_models(2)
    # every variant on 5 arms: the first init_rounds(5) selections go
    # round-robin, and select_with_models refuses until exactly that many
    # rewards have been fed
    k = 5
    for name in VARIANTS:
        variant = VARIANT_CASES[name][0]
        policy = make_policy(PolicyConfig(variant, 1000), k, RngStream(0).generator())
        for i in range(variant.init_rounds(k)):
            with pytest.raises(RuntimeError):
                policy.select_with_models(i + 1)
            assert policy.select(i + 1) == i % k, (name, i)
            policy.update(i % k, 0.5)
        arm, theta = policy.select_with_models(variant.init_rounds(k) + 1)
        assert 0 <= arm < k and theta.shape == (k,), name


def test_fresh_draws_match_a_twin_generator_bit_for_bit():
    policy = _fresh_dp_policy(seed=17)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    twin = RngStream(17).generator()
    scale = math.sqrt(math.log(21.0))
    expected = twin.normal(np.array([1.0, 0.0]), np.full(2, scale))
    arm, theta = policy.select_with_models(3)
    assert np.array_equal(theta, expected)
    assert arm == int(np.argmax(expected))


def test_every_armed_budget_is_consumed_each_round_even_when_not_pulled():
    policy = _fresh_dp_policy()
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    policy.select_with_models(3)
    assert policy.arm_state(0).budget == 12
    assert policy.arm_state(1).budget == 12


def test_epoch_max_tracks_the_largest_fresh_draw():
    policy = _fresh_dp_policy(seed=3)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    _, theta1 = policy.select_with_models(3)
    assert np.array_equal([policy.arm_state(a).max_model for a in (0, 1)], theta1)
    _, theta2 = policy.select_with_models(4)
    expected = np.maximum(theta1, theta2)
    assert np.array_equal([policy.arm_state(a).max_model for a in (0, 1)], expected)


def test_epoch_closes_after_exactly_two_to_the_epoch_rewards():
    policy = _fresh_dp_policy()
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    policy.select_with_models(3)  # spend one budget unit so the refill is visible
    policy.update(0, 1.0)
    s = policy.arm_state(0)
    assert (s.unprocessed, s.pending_sum, s.epoch, s.n) == (1, 1.0, 1, 1)
    assert s.budget == 12
    policy.update(0, 0.0)  # second pending reward closes epoch 1 (size 2)
    s = policy.arm_state(0)
    assert (s.n, s.mu_hat) == (2, 0.5)
    assert (s.epoch, s.unprocessed, s.pending_sum) == (2, 0, 0.0)
    assert s.budget == 13
    assert s.max_model == -math.inf
    # the other arm is untouched
    assert policy.arm_state(1).epoch == 1
    assert policy.arm_state(1).budget == 12


def test_mean_estimate_is_the_pending_block_mean_not_a_running_mean():
    policy = _fresh_dp_policy()
    policy.update(0, 1.0)  # init value, discarded at the first epoch close
    policy.update(1, 0.0)
    policy.update(0, 0.0)
    policy.update(0, 0.0)
    assert policy.arm_state(0).mu_hat == 0.0  # 0/2, the init 1.0 plays no part
    assert policy.arm_state(0).n == 2


def test_next_epoch_needs_twice_as_many_rewards():
    policy = _fresh_dp_policy()
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    for r in (1.0, 1.0):  # close epoch 1
        policy.update(0, r)
    for r in (1.0, 0.0, 1.0):  # three of the four epoch-2 rewards
        policy.update(0, r)
    assert policy.arm_state(0).epoch == 2
    assert policy.arm_state(0).unprocessed == 3
    policy.update(0, 1.0)
    s = policy.arm_state(0)
    assert (s.epoch, s.n, s.mu_hat) == (3, 4, 0.75)


def _spend_rounds(policy, rounds):
    """Run `rounds` post-initialization rounds without feeding rewards back."""
    for t in range(rounds):
        policy.select_with_models(3 + t)


def test_reuse_phase_draws_only_for_arms_with_budget_left():
    policy = _fresh_dp_policy(seed=9)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    _spend_rounds(policy, 5)  # budgets 8 and 8
    for r in (1.0, 0.0):  # close arm 1's epoch: its budget refills to 13
        policy.update(1, r)
    _spend_rounds(policy, 8)  # arm 0 spends its last draws; arm 1 has 5 left
    assert [policy.arm_state(a).budget for a in (0, 1)] == [0, 5]
    twin = RngStream(9).generator()
    twin.standard_normal(2 * 5 + 2 * 8)  # the draws made so far
    expected = twin.normal(np.array([0.5]), np.array([math.sqrt(math.log(21.0) / 2.0)]))
    reused = policy.arm_state(0).max_model
    arm, theta = policy.select_with_models(16)
    assert theta[0] == reused
    assert theta[1] == expected[0]
    assert policy.arm_state(0).budget == 0
    assert policy.arm_state(1).budget == 4


def test_exhausted_budgets_reuse_the_epoch_max_without_touching_the_rng():
    rng = RngStream(21).generator()
    policy = DpTsUcbPolicy(2, 21, 1.0, rng)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    _spend_rounds(policy, 13)  # phi = 13: both budgets are spent
    maxes = [policy.arm_state(a).max_model for a in (0, 1)]
    assert [policy.arm_state(a).budget for a in (0, 1)] == [0, 0]
    arm, theta = policy.select_with_models(16)
    assert arm == int(np.argmax(maxes))
    assert theta.tolist() == maxes
    arm2, theta2 = policy.select_with_models(17)
    assert (arm2, theta2.tolist()) == (arm, maxes)
    # no generator draws happened after the 26 fresh ones
    twin = RngStream(21).generator()
    twin.standard_normal(2 * 13)
    assert rng.random() == twin.random()


def test_epoch_close_shrinks_the_model_scale():
    policy = _fresh_dp_policy(seed=4)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    for r in (1.0, 0.0):
        policy.update(0, r)
    twin = RngStream(4).generator()
    scale = [math.sqrt(math.log(21.0) / 2.0), math.sqrt(math.log(21.0))]
    expected = twin.normal(np.array([0.5, 0.0]), np.array(scale))
    _, theta = policy.select_with_models(3)
    assert np.array_equal(theta, expected)


class NormalOnly:
    """A generator that offers only normal(loc, scale) and counts its variates."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def normal(self, loc, scale):
        out = self._rng.normal(loc, scale)
        self.draws += np.size(out)
        return out


@pytest.mark.parametrize("n_arms, horizon", [(5, 3000), (100, 3000)])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_each_round_draws_one_variate_per_live_arm(n_arms, horizon, alpha):
    rng = RngStream(n_arms).generator()
    counter = NormalOnly(rng)
    policy = DpTsUcbPolicy(n_arms, horizon, alpha, counter)
    rewards = np.random.default_rng(1)
    means = np.linspace(0.9, 0.1, n_arms)
    spent_rounds = 0
    for t in range(1, horizon + 1):
        live = sum(policy.arm_state(a).budget > 0 for a in range(n_arms))
        before, state = counter.draws, repr(rng.bit_generator.state)
        arm = policy.select(t)
        if t <= n_arms:
            assert counter.draws == before  # initialization draws nothing
        else:
            assert counter.draws - before == live
            if live == 0:
                spent_rounds += 1
                assert repr(rng.bit_generator.state) == state
        policy.update(arm, float(rewards.random() < means[arm]))
        assert sum(policy.arm_state(a).fresh_draws for a in range(n_arms)) == counter.draws
    assert (spent_rounds > 0) == (alpha == 1.0)


def test_fresh_draws_count_every_epoch_of_the_run():
    policy = _fresh_dp_policy()
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    _spend_rounds(policy, 5)
    assert [policy.arm_state(a).fresh_draws for a in (0, 1)] == [5, 5]
    for r in (1.0, 0.0):  # close arm 1's epoch after 5 of its 13 draws
        policy.update(1, r)
    assert policy.arm_state(1).fresh_draws == 5
    _spend_rounds(policy, 20)  # both budgets run out
    assert [policy.arm_state(a).fresh_draws for a in (0, 1)] == [13, 5 + 13]


def _reusing_policy(n_arms, n_live, rng):
    """K = n_arms at T=21, alpha=1 (phi=13) after every budget is spent and
    the epochs of arms 0, 2, 4, ... (n_live of them) have closed, so exactly
    those arms draw in the next round; the rest reuse their epoch max."""
    policy = DpTsUcbPolicy(n_arms, 21, 1.0, rng)
    for arm in range(n_arms):
        policy.update(arm, arm / n_arms)
    _spend_rounds(policy, 13)
    live = list(range(0, 2 * n_live, 2))
    for arm in live:
        for r in (1.0, 0.0):
            policy.update(arm, r)
    return policy, live


@pytest.mark.parametrize("n_live", [8, 9])
def test_both_draw_paths_release_a_twin_generators_models(n_live):
    n_arms = 2 * n_live + 1
    policy, live = _reusing_policy(n_arms, n_live, RngStream(31).generator())
    reused = [policy.arm_state(a).max_model for a in range(n_arms)]
    twin = RngStream(31).generator()
    twin.standard_normal(13 * n_arms)  # the rounds that spent the budgets
    loc = np.full(n_live, 0.5)
    scale = np.full(n_live, math.sqrt(math.log(21.0) / 2.0))
    for t in (16, 17):
        expected = np.array(reused)
        expected[live] = twin.normal(loc, scale)
        arm, theta = policy.select_with_models(t)
        assert np.array_equal(theta, expected)
        assert arm == int(np.argmax(expected))
        reused = [max(r, m) for r, m in zip(reused, expected)]
    assert [policy.arm_state(a).max_model for a in range(n_arms)] == reused


class MeanOnly:
    """A generator whose normal(loc, scale) returns loc, so models tie exactly."""

    def normal(self, loc, scale):
        return loc


@pytest.mark.parametrize("n_arms", [8, 9])
def test_tied_models_pull_the_lower_index_on_either_draw_path(n_arms):
    policy = DpTsUcbPolicy(n_arms, 1000, 0.0, MeanOnly())
    top = (1, n_arms - 1)
    for arm in range(n_arms):
        policy.update(arm, 0.9 if arm in top else 0.1)
    assert policy.select(n_arms + 1) == 1


def test_a_tie_between_a_reused_max_and_a_fresh_model_pulls_the_lower_index():
    # arm 1's epoch max and the fresh model of arm 0 or 2 are both 0.5
    for live, expected in ((0, 0), (2, 1)):
        policy = DpTsUcbPolicy(3, 21, 1.0, MeanOnly())
        for arm in range(3):
            policy.update(arm, 0.5 if arm == 1 else 0.0)
        _spend_rounds(policy, 13)
        for r in (1.0, 0.0):  # the live arm's mean becomes 0.5
            policy.update(live, r)
        assert policy.select(16) == expected


def test_alpha_zero_uses_unit_variance_models():
    rng = RngStream(0).generator()
    policy = DpTsUcbPolicy(2, 1000, 0.0, rng)
    policy.update(0, 1.0)
    policy.update(1, 0.0)
    # ln(T)^0 = 1, so the scale is 1/sqrt(n) = 1 regardless of the horizon
    twin = RngStream(0).generator()
    _, theta = policy.select_with_models(3)
    assert np.array_equal(theta, twin.normal(np.array([1.0, 0.0]), np.ones(2)))


# ---------------------------------------------------------------------------
# DpTsUcbPolicy.play against the per-round reference


class PerRound(DpTsUcbPolicy):
    """The reference: plays through Policy.play's select/update loop."""

    play = Policy.play


def _run_inputs(n_arms, horizon, seed):
    """Arm means and the reward uniforms of rounds 1..horizon for one seed."""
    means = tuple(np.random.default_rng(seed).uniform(0.05, 0.95, n_arms).tolist())
    return means, np.random.default_rng(seed + 1).random(horizon)


def _play_twins(n_arms, horizon, alpha, seed, cuts):
    """Rounds 1..horizon through DpTsUcbPolicy.play and through a PerRound
    twin on a twin generator, with the same rewards, in blocks that end after
    each round in `cuts` and at the horizon.  After every block the pulled
    arms and every arm_state must agree; after the last, the next round's
    select_with_models and one rng.random() from each generator.  Returns the
    strided policy's (last round, arm states, last pulled arm) per block."""
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    rng, twin_rng = RngStream(seed).generator(), RngStream(seed).generator()
    policy = DpTsUcbPolicy(n_arms, horizon, alpha, rng)
    twin = PerRound(n_arms, horizon, alpha, twin_rng)
    blocks, start = [], 1
    for stop in sorted({int(c) for c in cuts if 1 <= c < horizon} | {horizon}):
        block = uniforms[start - 1:stop]
        arms = policy.play(start, block, means)
        assert np.array_equal(arms, twin.play(start, block, means)), (start, stop)
        states = [policy.arm_state(a) for a in range(n_arms)]
        assert states == [twin.arm_state(a) for a in range(n_arms)], (start, stop)
        blocks.append((stop, states, int(arms[-1])))
        start = stop + 1
    arm, theta = policy.select_with_models(horizon + 1)
    twin_arm, twin_theta = twin.select_with_models(horizon + 1)
    assert arm == twin_arm and np.array_equal(theta, twin_theta)
    assert rng.random() == twin_rng.random()  # both generators stand at the same point
    return blocks


def _random_cuts(horizon, seed, longest=700):
    sizes = np.random.default_rng(seed + 2).integers(1, longest, horizon)
    return np.cumsum(sizes)


def _block_ends(horizon, cuts):
    """The last round of each block: after each round in `cuts`, and at the
    horizon."""
    return sorted({int(c) for c in cuts if 1 <= c < horizon} | {horizon})


def _close_rounds(n_arms, horizon, alpha, seed):
    """The rounds that close an epoch, from a per-round pass on _play_twins'
    inputs."""
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    twin = PerRound(n_arms, horizon, alpha, RngStream(seed).generator())
    closes, epochs = [], [1] * n_arms
    for t in range(1, horizon + 1):
        arm = twin.play(t, uniforms[t - 1:t], means)[0]
        if twin.arm_state(arm).epoch != epochs[arm]:
            epochs[arm] += 1
            closes.append(t)
    return closes


def _live(states):
    return sum(s.budget > 0 for s in states)


def _inside_a_stretch_with_no_live_arm(states, arm):
    """No arm is live and the last pulled arm's epoch needs more than one
    further reward, so the next round is settled in bulk by the same
    stretch."""
    s = states[arm]
    return _live(states) == 0 and 0 < s.unprocessed < (1 << s.epoch) - 1


@pytest.mark.parametrize("n_arms", [1, 2, 5, 12, 100])
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_play_matches_the_per_round_reference(n_arms, alpha):
    horizon = 1500 if n_arms == 100 else 3000
    for seed in range(2 if n_arms == 100 else 6):
        _play_twins(n_arms, horizon, alpha, seed, _random_cuts(horizon, seed))


@pytest.mark.parametrize("chunk", [1, 2, 3, 17])
@pytest.mark.parametrize("n_arms, alpha", [(2, 0.0), (5, 0.0), (5, 0.5), (12, 1.0)])
def test_play_matches_the_reference_with_short_chunks(monkeypatch, chunk, n_arms, alpha):
    # Chunks of a few rounds end on many of the epoch closes they cut at.
    monkeypatch.setattr(policies, "BLOCK_SIZE", chunk)
    for seed in range(3):
        _play_twins(n_arms, 2000, alpha, seed, _random_cuts(2000, seed))


def test_play_matches_the_reference_when_a_block_ends_on_an_epoch_close():
    # The rounds that close an epoch, from a per-round pass; a block that ends
    # there ends a chunk exactly on its close, and one that starts a whole
    # chunk, BLOCK_SIZE // n_arms rounds, before a close in a long stretch with
    # every arm live fills that chunk.
    n_arms, horizon, alpha, seed = 5, 6000, 0.0, 11
    closes = _close_rounds(n_arms, horizon, alpha, seed)
    chunk = BLOCK_SIZE // n_arms
    whole = [b - chunk for a, b in zip(closes, closes[1:]) if b - a > chunk]
    assert len(closes) > 20 and whole
    _play_twins(n_arms, horizon, alpha, seed, closes + whole)


def test_play_matches_the_reference_as_the_live_set_shrinks_and_grows():
    # K=12 at alpha=0.5, seed 1: all twelve arms live, then fewer, then more
    # again, seen at the ends of short blocks.
    blocks = _play_twins(12, 3000, 0.5, 1, _random_cuts(3000, 1, longest=40))
    live = [_live(states) for _, states, _ in blocks]
    assert live[0] == 12 and any(b > a for a, b in zip(live, live[1:]))


def test_play_matches_the_reference_when_blocks_end_inside_stage_a_stretches():
    # K=12 at alpha=1: after the first phi rounds no arm is live most of the
    # time, so many short blocks end inside a stretch with no live arm.
    blocks = _play_twins(12, 3000, 1.0, 7, _random_cuts(3000, 7, longest=40))
    assert sum(_inside_a_stretch_with_no_live_arm(states, arm)
               for _, states, arm in blocks) > 50


def test_play_matches_the_reference_with_every_arm_live():
    # alpha=0 at T=3000 gives phi > T, so no budget runs out: every arm stays
    # live, and the candidates are the live arms alone.  At K=12 and K=100 a
    # chunk is 341 and 40 rounds.
    for n_arms in (1, 2, 8, 12, 100):
        blocks = _play_twins(n_arms, 3000, 0.0, 3, _random_cuts(3000, 3))
        assert all(_live(states) == n_arms for _, states, _ in blocks)


def test_play_regret_at_checkpoints_inside_stage_a_stretches():
    # alpha=1 on two arms spends nearly every round with no arm live, so the
    # BLOCK_SIZE block ends and a checkpoint at every round fall inside such
    # stretches; the traces agree hex for hex.
    instance = BanditInstance((0.9, 0.7))
    horizon = 3 * BLOCK_SIZE + 50
    rounds = tuple(range(1, horizon + 1))
    traces = []
    for policy_class in (DpTsUcbPolicy, PerRound):
        policy = policy_class(2, horizon, 1.0, RngStream(4).generator())
        traces.append(_drive(policy, instance, horizon, rounds, np.random.default_rng(5)))
    (trace, pulls), (reference, reference_pulls) = traces
    assert [v.hex() for v in trace] == [v.hex() for v in reference]
    assert pulls == reference_pulls
    blocks = _play_twins(2, horizon, 1.0, 4, range(BLOCK_SIZE, horizon, BLOCK_SIZE))
    assert all(_inside_a_stretch_with_no_live_arm(states, arm)
               for _, states, arm in blocks[:-1])


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_play_matches_the_reference_with_several_closes_in_one_chunk(alpha):
    # K=100: a chunk with every arm live is BLOCK_SIZE // 100 = 40 rounds,
    # and early epochs close after 2, 4, 8 pulls, so one chunk reaches
    # several closes; the rounds after the first go back to the carried
    # variates for the next chunk.
    n_arms, horizon, seed = 100, 1500, 8
    chunk = BLOCK_SIZE // n_arms
    closes = _close_rounds(n_arms, horizon, alpha, seed)
    assert max(np.searchsorted(closes, np.array(closes) + chunk) - np.arange(len(closes))) >= 5
    _play_twins(n_arms, horizon, alpha, seed, _random_cuts(horizon, seed, longest=300))


def test_play_matches_the_reference_as_budgets_expire_after_in_place_closes():
    # K=100 at alpha=0 and T=5e4: phi is about 32,900 rounds, so every arm
    # is live while hundreds of epochs close in place, and then the budgets
    # of the arms that closed none since run out and the live set shrinks.
    n_arms, horizon = 100, 50_000
    blocks = _play_twins(n_arms, horizon, 0.0, 5, range(BLOCK_SIZE, horizon, BLOCK_SIZE))
    _, first, _ = blocks[0]
    assert _live(first) == n_arms and sum(s.epoch - 1 for s in first) > 100
    assert min(_live(states) for _, states, _ in blocks) < n_arms


def test_play_rebuilds_the_live_set_only_when_it_changes(monkeypatch):
    # A live arm's close refills its budget, so the live set stays; play
    # settles such closes in place, and rebuilds less often than epochs close.
    rebuilds = []
    refresh = DpTsUcbPolicy._refresh
    monkeypatch.setattr(DpTsUcbPolicy, "_refresh",
                        lambda self: rebuilds.append(self._rounds) or refresh(self))
    n_arms, horizon, seed = 100, 50_000, 5
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    policy = DpTsUcbPolicy(n_arms, horizon, 0.0, RngStream(seed).generator())
    for start in range(1, horizon + 1, BLOCK_SIZE):
        policy.play(start, uniforms[start - 1:start - 1 + BLOCK_SIZE], means)
    closes = sum(policy.arm_state(a).epoch - 1 for a in range(n_arms))
    assert len(rebuilds) < closes


@pytest.mark.parametrize("n_arms, alpha", [(12, 0.5), (2, 1.0)])
def test_the_per_round_reference_reads_only_the_epoch_state(monkeypatch, n_arms, alpha):
    # The reference that play's twins are checked against shares nothing
    # with play's live-set builder: with _refresh broken it still plays
    # through epoch closes, budget expiries and spent arms coming back live,
    # and pulls what play pulled before the break.
    horizon, seed = 3000, 1
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    played = DpTsUcbPolicy(n_arms, horizon, alpha, RngStream(seed).generator())
    arms = played.play(1, uniforms, means)

    def broken(self):
        raise AssertionError("the per-round reference called _refresh")

    monkeypatch.setattr(DpTsUcbPolicy, "_refresh", broken)
    counter = NormalOnly(RngStream(seed).generator())
    policy = PerRound(n_arms, horizon, alpha, counter)
    live = []
    for t in range(1, horizon + 1):
        assert policy.play(t, uniforms[t - 1:t], means)[0] == arms[t - 1], t
        live.append(_live([policy.arm_state(a) for a in range(n_arms)]))
    states = [policy.arm_state(a) for a in range(n_arms)]
    assert states == [played.arm_state(a) for a in range(n_arms)]
    assert sum(s.fresh_draws for s in states) == counter.draws
    assert sum(s.epoch - 1 for s in states) > 10
    assert any(b < a for a, b in zip(live, live[1:]))  # a budget runs out
    assert any(b > a for a, b in zip(live, live[1:]))  # a spent arm comes back live


def test_arm_state_holds_python_numbers():
    # The per-arm epoch state lives in numpy arrays; the snapshot converts it.
    n_arms, horizon, seed = 12, 3000, 2
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    policy = DpTsUcbPolicy(n_arms, horizon, 0.5, RngStream(seed).generator())
    policy.play(1, uniforms, means)
    for arm in range(n_arms):
        state = policy.arm_state(arm)
        assert [type(getattr(state, f.name)).__name__ for f in fields(state)] == [
            f.type for f in fields(state)]


class StandardNormalSpy:
    """Passes `standard_normal` and `bit_generator` through to a Generator,
    counts the values drawn and notes `policy`'s round count at each call."""

    def __init__(self, rng):
        self.bit_generator = rng.bit_generator
        self._rng = rng
        self.policy = None
        self.draws = 0
        self.rounds = []

    def standard_normal(self, size):
        self.rounds.append(self.policy._rounds)
        out = self._rng.standard_normal(size)
        self.draws += np.size(out)
        return out


def _spied_policy(n_arms, horizon, alpha, seed):
    spy = StandardNormalSpy(RngStream(seed).generator())
    spy.policy = DpTsUcbPolicy(n_arms, horizon, alpha, spy)
    return spy


@pytest.mark.parametrize("block_size, n_arms, alpha", [(7, 5, 0.0), (23, 12, 0.0), (10, 12, 0.5)])
def test_play_matches_the_reference_when_refills_fall_inside_a_row(
        monkeypatch, block_size, n_arms, alpha):
    # A refill of block_size values, which n_arms does not divide, leaves a
    # leftover shorter than a row that the next row starts with; closes land
    # in the first round after a refill.
    monkeypatch.setattr(policies, "BLOCK_SIZE", block_size)
    horizon, after_refill = 2000, 0
    for seed in range(3):
        _play_twins(n_arms, horizon, alpha, seed, _random_cuts(horizon, seed))
        means, uniforms = _run_inputs(n_arms, horizon, seed)
        spy = _spied_policy(n_arms, horizon, alpha, seed)
        spy.policy.play(1, uniforms, means)
        closes = set(_close_rounds(n_arms, horizon, alpha, seed))
        after_refill += sum(n_arms + r + 1 in closes for r in spy.rounds)
    assert after_refill > 30


def test_play_blocks_interleave_with_per_round_rounds():
    # Blocks through play alternate with blocks through select/update on the
    # same policy; each per-round block starts from the generator that play
    # left, so a generator left ahead by the carried variates would show.
    for n_arms, alpha in ((5, 0.0), (12, 0.5), (100, 0.0), (100, 1.0)):
        horizon, seed = 1500, 9
        means, uniforms = _run_inputs(n_arms, horizon, seed)
        rng, twin_rng = RngStream(seed).generator(), RngStream(seed).generator()
        policy = DpTsUcbPolicy(n_arms, horizon, alpha, rng)
        twin = PerRound(n_arms, horizon, alpha, twin_rng)
        start = 1
        for block, stop in enumerate(_block_ends(horizon, _random_cuts(horizon, seed, 150))):
            rounds = uniforms[start - 1:stop]
            play = policy.play if block % 2 else partial(Policy.play, policy)
            assert np.array_equal(play(start, rounds, means), twin.play(start, rounds, means))
            assert ([policy.arm_state(a) for a in range(n_arms)]
                    == [twin.arm_state(a) for a in range(n_arms)])
            start = stop + 1
        assert rng.random() == twin_rng.random()


class StateWrites:
    """Passes `standard_normal` and `random` through to a Generator, and
    `bit_generator.state` through a proxy that counts the writes to it."""

    def __init__(self, rng):
        self._rng = rng
        self.bit_generator = self
        self.writes = 0

    def standard_normal(self, size):
        return self._rng.standard_normal(size)

    def random(self):
        return self._rng.random()

    @property
    def state(self):
        return self._rng.bit_generator.state

    @state.setter
    def state(self, value):
        self.writes += 1
        self._rng.bit_generator.state = value


@pytest.mark.parametrize("n_arms", [5, 12])
def test_play_does_not_restore_the_generator_after_a_refill_used_to_its_end(n_arms):
    # alpha=0 at T=3000 keeps every arm live.  A block of at most
    # BLOCK_SIZE values refills once, with exactly the values its rows use:
    # the generator already stands where the per-round path leaves it, so
    # play writes no state.
    horizon, seed = 3000, 4
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    rng, twin_rng = StateWrites(RngStream(seed).generator()), RngStream(seed).generator()
    policy = DpTsUcbPolicy(n_arms, horizon, 0.0, rng)
    twin = PerRound(n_arms, horizon, 0.0, twin_rng)
    start, rows = 1, BLOCK_SIZE // n_arms
    for stop in range(n_arms, horizon, rows):
        block = uniforms[start - 1:stop]
        assert np.array_equal(policy.play(start, block, means), twin.play(start, block, means))
        assert ([policy.arm_state(a) for a in range(n_arms)]
                == [twin.arm_state(a) for a in range(n_arms)])
        start = stop + 1
    assert rng.writes == 0
    assert rng.random() == twin_rng.random()


@pytest.mark.parametrize("n_arms, alpha", [(5, 0.0), (12, 0.5), (100, 0.0), (100, 1.0)])
def test_play_draws_at_most_one_buffer_more_than_its_rounds_use(n_arms, alpha):
    # The rounds use one variate per live arm, the arms' fresh draws; play
    # carries the variates after an epoch close to the next chunk, and
    # redraws only the used part of its last refill when it returns.
    horizon, seed = 3000, 4
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    spy = _spied_policy(n_arms, horizon, alpha, seed)
    stops = _block_ends(horizon, _random_cuts(horizon, seed))
    start = 1
    for stop in stops:
        spy.policy.play(start, uniforms[start - 1:stop], means)
        start = stop + 1
    used = sum(spy.policy.arm_state(a).fresh_draws for a in range(n_arms))
    assert used <= spy.draws <= used + len(stops) * max(BLOCK_SIZE, n_arms)


def test_play_draws_no_more_than_its_rounds_can_use():
    # alpha=0 at T=3000 keeps every arm live, so each round uses K variates.
    # A refill draws no more than the block's remaining rounds use, so a
    # play call draws its rounds' variates, less than a row more, and again
    # the used part of its last refill.
    horizon, seed = 3000, 4
    for n_arms in (5, 12, 100):
        means, uniforms = _run_inputs(n_arms, horizon, seed)
        spy = _spied_policy(n_arms, horizon, 0.0, seed)
        stops = _block_ends(horizon, _random_cuts(horizon, seed, 150))
        start = 1
        for stop in stops:
            spy.policy.play(start, uniforms[start - 1:stop], means)
            start = stop + 1
        used = sum(spy.policy.arm_state(a).fresh_draws for a in range(n_arms))
        assert used == (horizon - n_arms) * n_arms
        assert spy.draws <= 2 * used + len(stops) * n_arms, n_arms


# ---------------------------------------------------------------------------
# Gaussian Thompson baselines


def test_plain_thompson_round_robin_then_normal_draws():
    rng = RngStream(2).generator()
    policy = GaussianThompsonPolicy(3, rng, b=0, c=1.0)
    for t, reward in enumerate((1.0, 0.0, 1.0), start=1):
        arm = policy.select(t)
        assert arm == t - 1
        policy.update(arm, reward)
    twin = RngStream(2).generator()
    expected = twin.normal(np.array([1.0, 0.0, 1.0]), np.ones(3))
    assert policy.select(4) == int(np.argmax(expected))


def test_pre_pulls_repeat_the_round_robin_b_plus_one_times():
    rng = RngStream(2).generator()
    policy = GaussianThompsonPolicy(3, rng, b=1, c=2.0)
    seen = []
    for t in range(1, 7):
        arm = policy.select(t)
        seen.append(arm)
        policy.update(arm, 1.0)
    assert seen == [0, 1, 2, 0, 1, 2]
    with pytest.raises(RuntimeError):
        GaussianThompsonPolicy(3, rng, b=1).select_with_models(1)
    # n = 2 per arm: mean 1 and scale sqrt(2/2) = 1, and no draws before now
    twin = RngStream(2).generator()
    _, theta = policy.select_with_models(7)
    assert np.array_equal(theta, twin.normal(np.ones(3), np.ones(3)))


@pytest.mark.parametrize("n_arms", [1, 5, 100])
def test_thompson_models_match_normal_draws_across_noise_blocks(n_arms):
    b, c = 2, 2.5
    rng = RngStream(n_arms).generator()
    twin = RngStream(n_arms).generator()
    policy = GaussianThompsonPolicy(n_arms, rng, b=b, c=c)
    rewards = np.random.default_rng(3)
    n = np.zeros(n_arms)
    sums = np.zeros(n_arms)
    init = (b + 1) * n_arms
    rows = BLOCK_SIZE // n_arms
    for t in range(1, init + 2 * rows + 3):  # into a third noise block
        if t <= init:
            arm = policy.select(t)
        else:
            arm, theta = policy.select_with_models(t)
            expected = twin.normal(sums / n, np.sqrt(c / n))
            assert np.array_equal(theta, expected), t
            assert arm == int(np.argmax(expected))
        reward = float(rewards.random() < 0.5)
        policy.update(arm, reward)
        n[arm] += 1
        sums[arm] += reward


def test_thompson_mean_estimate_is_incremental():
    rng = RngStream(2).generator()
    policy = GaussianThompsonPolicy(1, rng)
    for reward in (1.0, 1.0, 0.0, 0.0):
        policy.update(0, reward)
    # n = 4: the model is Normal(0.5, sqrt(1/4))
    twin = RngStream(2).generator()
    _, theta = policy.select_with_models(5)
    expected = twin.normal(np.array([0.5]), np.array([math.sqrt(1.0 / 4.0)]))
    assert theta[0] == pytest.approx(expected[0], abs=1e-15)


def test_model_variance_scales_with_c():
    rng = RngStream(2).generator()
    policy = GaussianThompsonPolicy(1, rng, c=9.0)
    policy.update(0, 1.0)
    twin = RngStream(2).generator()
    _, theta = policy.select_with_models(2)
    assert np.array_equal(theta, twin.normal(np.ones(1), np.full(1, 3.0)))


def test_ucb1_index_is_the_mean_plus_exploration_bonus():
    policy = Ucb1Policy(2)
    fed = ([0.0], [1.0] * 9)
    assert policy.select(1) == 0
    policy.update(0, 0.0)
    assert policy.select(2) == 1
    policy.update(1, 1.0)
    # indexes at t=3: [0 + sqrt(2 ln 3), 1 + sqrt(2 ln 3)]
    assert policy.select(3) == 1
    for _ in range(8):
        policy.update(1, 1.0)
    # at t=20 the bonus outweighs the gap in means: [2.45, 1.82]
    index = [sum(r) / len(r) + math.sqrt(2.0 * math.log(20.0) / len(r)) for r in fed]
    assert policy.select(20) == int(np.argmax(index)) == 0
    # the same index, as the policy's own numpy operations give it
    bonus = np.sqrt(np.divide(2.0 * math.log(20), np.array([1.0, 9.0])))
    assert np.array_equal(policy.select_with_models(20)[1], bonus + np.array([0.0, 1.0]))


def test_ucb1_breaks_ties_toward_the_lowest_arm():
    policy = Ucb1Policy(3)
    for arm in range(3):
        policy.update(arm, 1.0)
    assert policy.select(4) == 0


def test_equal_counts_and_successes_give_equal_means_in_any_reward_order():
    # A running mean depends on the reward order: [1, 0, 1] gives
    # 0.6666666666666666 and [1, 1, 0] 0.6666666666666667.  s / n does not,
    # so the two UCB1 arms tie and the next round pulls the lower one.
    orders = ((1.0, 0.0, 1.0), (1.0, 1.0, 0.0))
    policy = Ucb1Policy(2)
    for first, second in zip(*orders):
        policy.update(0, first)
        policy.update(1, second)
    assert policy._mu_hat[0].hex() == policy._mu_hat[1].hex()
    assert policy.select(7) == 0
    for rewards in orders:
        thompson = GaussianThompsonPolicy(1, RngStream(0).generator())
        for reward in rewards:
            thompson.update(0, reward)
        assert thompson._mu_hat[0] == sum(rewards) / len(rewards)


# ---------------------------------------------------------------------------
# the baselines' play against the per-round reference


class PerRoundThompson(GaussianThompsonPolicy):
    """The reference: plays through Policy.play's select/update loop."""

    play = Policy.play


class PerRoundUcb1(Ucb1Policy):
    """The reference: plays through Policy.play's select/update loop."""

    play = Policy.play


def _baselines(kind, n_arms, seed, b=0, c=1.0):
    """A baseline of one kind and its per-round twin on a twin generator."""
    if kind == "ucb1":
        return Ucb1Policy(n_arms), PerRoundUcb1(n_arms)
    return (GaussianThompsonPolicy(n_arms, RngStream(seed).generator(), b, c),
            PerRoundThompson(n_arms, RngStream(seed).generator(), b, c))


def _baseline_state(policy):
    """The counts, sums and means, and the array `_counted` writes the count
    into."""
    per_count = policy._scale if isinstance(policy, GaussianThompsonPolicy) else policy._n
    return (policy._counts, [v.hex() for v in policy._sums], policy._mu_hat.tobytes(),
            per_count.tobytes())


def _next_round(policy, t):
    """The next round's select_with_models and one rng.random(), taken on a
    copy so that the run goes on undisturbed; None during initialization."""
    if policy._init_cursor < policy._init_rounds:
        return None
    probe = copy.deepcopy(policy)
    arm, theta = probe.select_with_models(t)
    rng = getattr(probe, "_rng", None)
    return arm, theta.tobytes(), rng.random() if rng else None


def _play_baseline_twins(kind, means, horizon, seed, cuts, b=0, c=1.0, pair=None):
    """Rounds 1..horizon through the baseline's play and through its
    per-round twin, with the same rewards, in blocks that end after each
    round in `cuts` and at the horizon.  After every block the pulled arms,
    the counts, sums, means and count-derived arrays, the next round's
    select_with_models and the generators agree.  Returns the pulled arms.
    `pair` replaces the (policy, twin) that `_baselines` would build."""
    policy, twin = pair or _baselines(kind, len(means), seed, b, c)
    uniforms = np.random.default_rng(seed + 1).random(horizon)
    pulled, start = [], 1
    for stop in sorted({int(t) for t in cuts if 1 <= t < horizon} | {horizon}):
        block = uniforms[start - 1:stop]
        arms = policy.play(start, block, means)
        assert np.array_equal(arms, twin.play(start, block, means)), (start, stop)
        assert _baseline_state(policy) == _baseline_state(twin), (start, stop)
        assert _next_round(policy, stop + 1) == _next_round(twin, stop + 1), (start, stop)
        pulled += arms.tolist()
        start = stop + 1
    return pulled


def _switches(arms):
    """The rounds (1-based) after which the pulled arm changes."""
    return [t for t in range(1, len(arms)) if arms[t] != arms[t - 1]]


BASELINES = [("ts", 0, 1.0), ("m-ts", 3, 2.5), ("ucb1", 0, 1.0)]


@pytest.mark.parametrize("kind, b, c", BASELINES)
@pytest.mark.parametrize("n_arms", [1, 2, 5, 100])
def test_baseline_play_matches_the_per_round_reference(kind, b, c, n_arms):
    horizon = 1500 if n_arms == 100 else 4000
    for seed in range(2 if n_arms == 100 else 4):
        means, _ = _run_inputs(n_arms, horizon, seed)
        _play_baseline_twins(kind, means, horizon, seed, _random_cuts(horizon, seed), b, c)


def _settled_windows(monkeypatch):
    """Every Thompson window from now on whose frozen rows pick different
    arms, as (rows, rows kept, whether its rows reach the noise block's end)."""
    windows = []
    window = GaussianThompsonPolicy._window

    def recording(policy, t, uniforms, means):
        scale, mu_hat = policy._scale.copy(), policy._mu_hat.copy()
        pulled, rows = window(policy, t, uniforms, means)
        kept = len(pulled)
        start = policy._row - kept
        winners = (policy._noise[start:start + rows] * scale + mu_hat).argmax(axis=1)
        if (winners != winners[0]).any():
            windows.append((rows, kept, start + rows == policy._block_rows))
        return pulled, rows

    monkeypatch.setattr(GaussianThompsonPolicy, "_window", recording)
    return windows


@pytest.mark.parametrize("lead_rows", [1, policies.LEAD_ROWS])
@pytest.mark.parametrize("n_arms", [2, 5, 12, 100])
def test_settled_windows_match_the_per_round_reference(monkeypatch, n_arms, lead_rows):
    # Tied arms switch often, so the frozen rows of a window pick different
    # arms and their winners change under the window's own pulls: on its
    # second row, on its last row, and in between.  Settled windows run up
    # to the noise block's end, and the next one draws the next block.
    # LEAD_ROWS = 1 never ends a run short, so every window is settled,
    # K = 100's too.
    monkeypatch.setattr(policies, "LEAD_ROWS", lead_rows)
    windows = _settled_windows(monkeypatch)
    horizon = 1500 if n_arms == 100 else 3000
    means = (0.5,) * n_arms
    for seed in range(4):
        for kind, b, c in BASELINES[:2]:
            _play_baseline_twins(kind, means, horizon, seed, _random_cuts(horizon, seed), b, c)
    assert windows
    if lead_rows == 1:
        assert any(kept == 1 for rows, kept, _ in windows)
        assert any(kept == rows - 1 for rows, kept, _ in windows if rows > 2)
        assert any(kept == rows for rows, kept, at_end in windows if at_end)


@pytest.mark.parametrize("n_arms", [1, 3])
def test_a_thompson_window_that_keeps_every_row_on_one_arm_is_not_short(n_arms):
    # Arm 0 always pays and the others never do, and at c = 1e-6 their
    # models lie far apart: every row of the first window, LEAD_ROWS of
    # them, pulls arm 0 and stands.  A whole window is not a short run: the
    # next one holds twice as many rows, and no round went to Policy.play.
    means = np.array((1.0,) + (0.0,) * (n_arms - 1))
    policy = GaussianThompsonPolicy(n_arms, RngStream(0).generator(), b=0, c=1e-6)
    policy.play(1, np.zeros(n_arms), means)
    pulled = policy.play(n_arms + 1, np.zeros(policies.LEAD_ROWS), means)
    assert pulled.tolist() == [0] * policies.LEAD_ROWS
    assert (policy._rows, policy._stretch) == (2 * policies.LEAD_ROWS, policies.LEAD_ROWS)


class CoarseNormals:
    """A generator whose standard normals are rounded to whole numbers, so
    that Thompson models tie often: at z = 0 an arm's model is its mean."""

    def __init__(self, seed):
        self._rng = RngStream(seed).generator()

    def standard_normal(self, size):
        return np.round(self._rng.standard_normal(size))

    def random(self):
        return self._rng.random()


@pytest.mark.parametrize("means", [(0.5, 0.5), (0.5, 0.5, 0.5), (0.6, 0.5, 0.5, 0.6)])
def test_settled_windows_keep_the_first_argmax_through_ties(monkeypatch, means):
    # A row whose winner comes to tie a lower arm changes its winner to
    # that arm; a tie with a later arm keeps it.  LEAD_ROWS = 1 settles
    # every window.
    monkeypatch.setattr(policies, "LEAD_ROWS", 1)
    windows = _settled_windows(monkeypatch)
    k = len(means)
    for seed in range(6):
        pair = (GaussianThompsonPolicy(k, CoarseNormals(seed), 0, 1.0),
                PerRoundThompson(k, CoarseNormals(seed), 0, 1.0))
        _play_baseline_twins("ts", means, 2000, seed, _random_cuts(2000, seed, 300), pair=pair)
    assert any(kept < rows for rows, kept, _ in windows)


@pytest.mark.parametrize("kind, b, c", [
    ("ts", 0, 1.0), ("m-ts", 1, 2.5), ("m-ts", 2000, 9.0), ("ucb1", 0, 1.0), ("dp", 0, 0.5)])
def test_round_robin_cut_by_blocks_matches_the_per_round_reference(kind, b, c):
    # Blocks that end inside the forced round-robin, at and around its end
    # and, for b=2000, past the first BLOCK_SIZE rounds.  After every block
    # the cursor, counts, sums, means, the count-derived arrays and the
    # generator agree.
    n_arms, seed = 3, 11
    means, uniforms = _run_inputs(n_arms, 8000, seed)
    if kind == "dp":  # c is alpha
        policy, twin = (cls(n_arms, 8000, c, RngStream(seed).generator())
                        for cls in (DpTsUcbPolicy, PerRound))
    else:
        policy, twin = _baselines(kind, n_arms, seed, b, c)
    init = policy._init_rounds
    ends = {1, 2, n_arms + 1, init - 1, init, init + 1, init + 5, BLOCK_SIZE + 2, init + 50}
    start = 1
    for stop in sorted(t for t in ends if t <= init + 50):
        block = uniforms[start - 1:stop]
        assert np.array_equal(policy.play(start, block, means), twin.play(start, block, means))
        for p in (policy, twin):
            assert p._init_cursor == min(stop, init)
        assert policy._counts == twin._counts
        assert [v.hex() for v in policy._sums] == [v.hex() for v in twin._sums]
        for name in ("_mu_hat", "_scale", "_n"):
            if hasattr(policy, name):
                assert getattr(policy, name).tobytes() == getattr(twin, name).tobytes(), name
        rng = getattr(policy, "_rng", None)
        if rng is not None:
            assert copy.deepcopy(rng).random() == copy.deepcopy(twin._rng).random()
        start = stop + 1


def test_round_robin_reads_only_the_arms_it_writes():
    # a block of two rounds on three arms: the buffer's third entry is not
    # one of them
    policy = GaussianThompsonPolicy(3, RngStream(0).generator(), b=1)
    arms = np.full(4, 99)
    assert policy._round_robin(np.array([0.1, 0.9]), (0.5,) * 3, arms) == 2
    assert arms.tolist() == [0, 1, 99, 99]
    assert (policy._counts, policy._sums, policy._init_cursor) == ([1, 1, 0], [1.0, 0.0, 0.0], 2)


@pytest.mark.parametrize("kind, b, c", BASELINES)
@pytest.mark.parametrize("means", [(0.5, 0.5, 0.5), (1.0, 0.0), (0.0, 1.0), (0.5,) * 12])
def test_baseline_play_matches_the_reference_on_tied_and_certain_arms(kind, b, c, means):
    for seed in range(3):
        _play_baseline_twins(kind, means, 3000, seed, _random_cuts(3000, seed, longest=300), b, c)


@pytest.mark.parametrize("kind, b, c", BASELINES)
def test_baseline_play_matches_the_reference_when_blocks_end_on_a_switch(kind, b, c):
    # The switches from a first pass; blocks that end on a switch, one round
    # before it and one round after it.
    means, horizon, seed = (0.6, 0.55, 0.5, 0.45), 5000, 9
    arms = _play_baseline_twins(kind, means, horizon, seed, [], b, c)
    switches = _switches(arms)
    assert len(switches) > 50
    cuts = [t + d for t in switches[::3] for d in (-1, 0, 1)]
    assert _play_baseline_twins(kind, means, horizon, seed, cuts, b, c) == arms


@pytest.mark.parametrize("n_arms", [2, 5])
def test_thompson_play_matches_the_reference_across_noise_blocks(n_arms):
    # One arm that always pays and others that never do: the leader fills its
    # windows, which stop at each noise block's end.  Blocks end on those
    # ends and one round to either side.
    means = (1.0,) + (0.0,) * (n_arms - 1)
    rows = BLOCK_SIZE // n_arms
    horizon = n_arms + 3 * rows + 10
    ends = [n_arms + j * rows + d for j in (1, 2, 3) for d in (-1, 0, 1)]
    for kind, b, c in BASELINES[:2]:
        arms = _play_baseline_twins(kind, means, horizon, 0, ends, b, c)
        assert arms[-1] == 0


def test_matched_thompson_play_matches_the_reference_when_the_initialization_spans_blocks():
    # b=2000 on three arms is 6003 round-robin rounds, more than BLOCK_SIZE.
    means, horizon = (0.9, 0.8, 0.7), 9000
    cuts = list(range(BLOCK_SIZE, horizon, BLOCK_SIZE)) + [6002, 6003, 6004]
    _play_baseline_twins("m-ts", means, horizon, 1, cuts, 2000, 9.0)
    _play_baseline_twins("m-ts", means, horizon, 2, _random_cuts(horizon, 2), 2000, 9.0)


@pytest.mark.parametrize("lead_rows, longest_cut", [
    (1, 200), (1, 3), (2, 200), (3, 200), (16, 200), (100, 200)])
@pytest.mark.parametrize("block_size", [1, 7, 4096])
def test_baseline_play_matches_the_reference_with_short_windows_and_backoffs(
        monkeypatch, lead_rows, longest_cut, block_size):
    # lead_rows=1 never ends a run short, 100 ends most cuts short; a small
    # BLOCK_SIZE bounds every window, noise block and stretch to a few rows,
    # and longest_cut=3 ends a noise block every round or two.
    monkeypatch.setattr(policies, "LEAD_ROWS", lead_rows)
    monkeypatch.setattr(policies, "BLOCK_SIZE", block_size)
    cuts = _random_cuts(1500, 4, longest=longest_cut)
    for kind, b, c in BASELINES:
        for means in ((0.7, 0.6, 0.5), (0.5, 0.5)):
            _play_baseline_twins(kind, means, 1500, 4, cuts, b, c)


class ScriptedWindows(policies.RunningMeanPolicy):
    """Two arms whose windows keep and hold the rows a script names, with a
    log of the rows each window was offered and the rounds each stretch of
    the select/update loop played."""

    def __init__(self, script):
        super().__init__(2, 0)
        self.script, self.log = list(script), []

    def _window(self, t, uniforms, means):
        kept, held = self.script.pop(0)
        assert kept <= held <= len(uniforms)
        self.log.append(("window", len(uniforms)))
        return np.zeros(kept, dtype=np.intp), held

    def _round(self, t):
        if self.log[-1][0] == "loop":
            self.log[-1] = ("loop", self.log[-1][1] + 1)
        else:
            self.log.append(("loop", 1))
        return 0


def test_play_sizes_windows_and_stretches_from_the_rows_kept_and_held(monkeypatch):
    # The back-off rule alone: outputs match the reference under any rule,
    # so this pins the lengths.  Per step: the rows offered to the window,
    # the rows it keeps and holds, and the rounds then played through
    # Policy.play.
    monkeypatch.setattr(policies, "LEAD_ROWS", 4)
    monkeypatch.setattr(policies, "BLOCK_SIZE", 64)  # windows of at most 32 rows on two arms
    blocks = [
        [
            (4, 4, 4, 0),  # every row kept: the next window holds twice as many
            (8, 8, 8, 0),
            (16, 16, 16, 0),
            (32, 32, 32, 0),  # capped at BLOCK_SIZE values
            (32, 1, 32, 4),  # a short run: LEAD_ROWS rounds through the loop
            (32, 2, 6, 8),  # after a cut, the rows held, not twice the rows kept
            (6, 3, 6, 16),  # each further short run doubles the stretch
            (6, 1, 2, 32),  # short under min(held, LEAD_ROWS)
            (2, 1, 2, 64),
            (2, 1, 2, 64),  # the stretch stops at BLOCK_SIZE
            (2, 2, 2, 0),  # every row kept is not short, under LEAD_ROWS too
            (4, 3, 3, 0),  # every row held kept: twice the rows offered
            (8, 4, 8, 0),  # a cut keeping LEAD_ROWS rows is not short
            (8, 1, 8, 4),  # so the next short run's stretch starts again
            (3, 1, 3, 2),  # the block's end cuts the window and the stretch
        ],
        [
            (3, 1, 3, 16),  # the window length and the stretch carry over
            (3, 3, 3, 0),
        ],
    ]
    policy = ScriptedWindows((kept, held) for block in blocks for _, kept, held, _ in block)
    t, carried = 1, [(3, 16), (6, 4)]
    for block, state in zip(blocks, carried):
        n = sum(kept + loop for _, kept, _, loop in block)
        policy.log = []
        policy.play(t, np.ones(n), (0.5, 0.5))
        expected = []
        for offered, _, _, loop in block:
            expected += [("window", offered)] + ([("loop", loop)] if loop else [])
        assert policy.log == expected
        assert (policy._rows, policy._stretch) == state
        t += n


@pytest.mark.parametrize("kind, b, c", BASELINES)
def test_baseline_play_regret_at_every_round(kind, b, c):
    # _drive's blocks of BLOCK_SIZE, a checkpoint at every round: the traces
    # agree hex for hex.
    instance = BanditInstance((0.9, 0.8, 0.7))
    horizon = 2 * BLOCK_SIZE + 50
    rounds = tuple(range(1, horizon + 1))
    traces = [_drive(policy, instance, horizon, rounds, np.random.default_rng(5))
              for policy in _baselines(kind, 3, 4, b, c)]
    (trace, pulls), (reference, reference_pulls) = traces
    assert [v.hex() for v in trace] == [v.hex() for v in reference]
    assert pulls == reference_pulls


def test_a_leader_tied_by_a_later_arm_keeps_the_round_inside_its_window():
    # numpy's first argmax gives a tie to the lower index, so the window keeps
    # the leader's run going through a tie with a later arm.  UCB1 on two
    # arms that always pay, with counts 1 and 3: arm 0 leads, ties arm 1 on
    # its third round and loses on its fourth.
    policy = Ucb1Policy(2)
    for arm in (0, 1, 1, 1):
        policy.update(arm, 1.0)
    runs, window = [], policy._window
    policy._window = lambda *args: runs.append(window(*args)) or runs[-1]
    arms = policy.play(5, np.zeros(6), (1.0, 1.0))
    assert runs[0][0].tolist() == [0, 0, 0] and arms.tolist()[:4] == [0, 0, 0, 1]


def _nudged_log(ulps):
    """np.log with every value moved `ulps` ulps up (or down, if negative)."""
    log, toward = np.log, math.copysign(math.inf, ulps)

    def nudged(x, *args, **kwargs):
        y = log(x, *args, **kwargs)
        for _ in range(abs(ulps)):
            y = np.nextafter(y, toward)
        return y

    return nudged


NUDGES = [-4, -2, -1, 1, 2, 4]


@pytest.mark.parametrize("ulps", NUDGES)
def test_ucb1_play_matches_the_reference_under_a_nudged_vectorized_log(monkeypatch, ulps):
    # A window takes 2 ln t for its rows after the first from numpy's
    # vectorized log, which may round differently from math.log.  Moved a
    # few ulps either way, it leaves every pull, count and sum of near-tied
    # and exactly tied arms where the per-round twin leaves them.
    monkeypatch.setattr(np, "log", _nudged_log(ulps))
    for seed, means in enumerate([(0.5, 0.5), (0.5, 0.49, 0.5), (1.0, 1.0, 1.0)]):
        _play_baseline_twins("ucb1", means, 20000, seed, _random_cuts(20000, seed, 3000))


@pytest.mark.parametrize("leader", [0, 1])
@pytest.mark.parametrize("ulps", NUDGES)
def test_a_ucb1_row_tied_under_math_log_is_decided_with_math_log(monkeypatch, ulps, leader):
    # The leader is paid nothing; at the window's second round, with count
    # 64 and sum 16, its index ties the other arm's under math.log.  That
    # arm's sum is chosen for the tie, and its 2^20 pulls leave its index
    # almost unmoved by 2 ln t, so a nudged log breaks the tie one way or
    # the other.  As in the per-round twin, arm 0 keeps the tie and goes on
    # to lose the third round; arm 1 loses the tie.
    monkeypatch.setattr(np, "log", _nudged_log(ulps))
    big, other = 2 ** 20, 1 - leader
    kept = 2 - leader
    for t in range(9000, 9100, 7):
        twolog = 2.0 * math.log(t + 1)
        index = math.sqrt(twolog / 64) + 16 / 64
        bonus = math.sqrt(twolog / big)
        mean = index - bonus
        while bonus + mean != index:
            mean = math.nextafter(mean, math.inf if bonus + mean < index else -math.inf)
        policy = Ucb1Policy(2)
        policy.play(1, np.ones(2), (1.0, 1.0))
        policy._store(leader, 63, 16.0)
        policy._store(other, big, mean * big)
        twin, expected = copy.deepcopy(policy), []
        for s in range(t, t + 3):
            expected.append(twin.select(s))
            twin.update(expected[-1], 0.0)
        assert expected[:kept] == [leader] * kept and expected[kept] == other
        pulled, _ = policy._window(t, np.ones(3), np.zeros(2))
        assert pulled.tolist() == expected[:kept], t


def test_the_ucb1_tie_margin_covers_numpys_log():
    # The margin assumes numpy's vectorized log within LOG_ULPS ulps of
    # math.log, and indexes below 16.
    t = np.arange(1, 2_000_001)
    exact = np.array([2.0 * math.log(s) for s in t.tolist()])
    vectorized = 2.0 * np.log(t.astype(np.float64))
    assert (np.abs(vectorized - exact) <= policies.LOG_ULPS * np.spacing(exact)).all()
    assert 1.0 + math.sqrt(2.0 * math.log(2.0 ** 63)) < 16.0
    assert policies.UCB1_TIE_MARGIN == 2 * (policies.LOG_ULPS + 3) * np.spacing(16.0)


def _recorded_windows(monkeypatch, cls):
    """The rows kept by every window of `cls` from now on."""
    kept, window = [], cls._window

    def recording(policy, *args):
        result = window(policy, *args)
        kept.append(len(result[0]))
        return result

    monkeypatch.setattr(cls, "_window", recording)
    return kept


def _driven_arms(policy, means, horizon, seed):
    """The arms `policy` pulls through the harness's blocks of rounds."""
    blocks, play = [], policy.play
    policy.play = lambda *args: blocks.append(play(*args)) or blocks[-1]
    _drive(policy, BanditInstance(means), horizon, (horizon,), np.random.default_rng(seed))
    return np.concatenate(blocks), len(blocks)


@pytest.mark.parametrize("seed", [0, 1])
def test_ucb1_windows_follow_the_switches(monkeypatch, seed):
    # The paper's five arms at T = 1e5: a window ends at a cut, at its
    # length or at a block's end, and a cut keeps the next window as long as
    # the last, so there are no more windows than switches and blocks
    # together, and the windows settle most rounds.  Restarting at LEAD_ROWS
    # after each cut took 737 windows at seed 0, for 421 switches.
    kept = _recorded_windows(monkeypatch, Ucb1Policy)
    arms, blocks = _driven_arms(Ucb1Policy(5), (0.95, 0.75, 0.55, 0.35, 0.15), 100_000, seed)
    assert len(kept) <= len(_switches(arms.tolist())) + blocks
    assert sum(kept) > 0.9 * len(arms)


@pytest.mark.parametrize("seed", [0, 1])
def test_most_rounds_of_a_k100_thompson_run_settle_in_windows(monkeypatch, seed):
    # K = 100 means (2i+1)/200 at T = 5000: a window holds at most
    # BLOCK_SIZE // 100 rows, and one that keeps them all is not short, so
    # most rounds after the initialization settle in windows, not in
    # Policy.play.
    kept = _recorded_windows(monkeypatch, GaussianThompsonPolicy)
    means = tuple((2 * i + 1) / 200 for i in range(100))
    _driven_arms(GaussianThompsonPolicy(100, RngStream(seed).generator()), means, 5000, seed)
    assert sum(kept) > (5000 - 100) / 2


# ---------------------------------------------------------------------------
# the variant table

#: per variant: the instance `--alpha 0.5 --b 3 --c 2.5` expands to, its
#: initialization rounds on 5 arms, the policy class and attributes its factory
#: builds, and constructions that must be rejected.  A variant added to
#: VARIANTS without a case here fails test_variant_table.
VARIANT_CASES = {
    "dp-ts-ucb": (
        DpTsUcbConfig(0.5), 5, DpTsUcbPolicy, {"alpha": 0.5, "horizon": 1000},
        [lambda: DpTsUcbConfig(1.5), lambda: DpTsUcbConfig(-0.1),
         lambda: DpTsUcbConfig(math.nan)],
    ),
    "ts-gaussian": (TsGaussianConfig(), 5, GaussianThompsonPolicy, {"b": 0, "c": 1.0}, []),
    "m-ts-gaussian": (
        MTsGaussianConfig(3, 2.5), 20, GaussianThompsonPolicy, {"b": 3, "c": 2.5},
        [lambda: MTsGaussianConfig(-1, 1.0), lambda: MTsGaussianConfig(2.5, 1.0),
         lambda: MTsGaussianConfig(0, 0.0), lambda: MTsGaussianConfig(0, math.inf)],
    ),
    "ucb1": (Ucb1Config(), 5, Ucb1Policy, {"n_arms": 5}, []),
}


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_table(name):
    variant, init, policy_class, attributes, invalid = VARIANT_CASES[name]
    assert type(variant) is VARIANTS[name] and variant.name == name
    cli = parse_config(["privacy", "--policies", name, "--alpha", "0.5",
                        "--b", "3", "--c", "2.5", "--T", "1000"])
    assert cli.policies == (name,)
    assert [p.variant for p in expand_policies(cli)] == [variant]
    config = PolicyConfig(variant, 1000)
    assert config.label().startswith(name) and "," not in config.label()
    assert variant.init_rounds(5) == init
    rng = RngStream(0).generator()
    policy = make_policy(config, 5, rng)
    assert type(policy) is policy_class
    assert {k: getattr(policy, k) for k in attributes} == attributes
    assert getattr(policy, "_rng", rng) is rng  # the factory passes rng on unchanged
    assert (policy_gdp(config) is None) == (name == "ucb1")
    PolicyConfig(variant, variant.min_horizon)
    for horizon in (0, variant.min_horizon - 1, 10.5):
        with pytest.raises(ValueError):
            PolicyConfig(variant, horizon)
    with pytest.raises(ValueError):
        make_policy(config, 0, rng)  # no arms
    for build in invalid:
        with pytest.raises(ValueError):
            build()
