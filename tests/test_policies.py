import math

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


def _live(states):
    return sum(s.budget > 0 for s in states)


def _inside_stage_a(states, arm):
    """Inside stage A, a stretch with no live arm: no arm is live and the last
    pulled arm's epoch needs more than one further reward, so the next round
    is settled in bulk by the same stretch."""
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
    means, uniforms = _run_inputs(n_arms, horizon, seed)
    twin = PerRound(n_arms, horizon, alpha, RngStream(seed).generator())
    closes, epochs = [], [1] * n_arms
    for t in range(1, horizon + 1):
        arm = twin.play(t, uniforms[t - 1:t], means)[0]
        if twin.arm_state(arm).epoch != epochs[arm]:
            epochs[arm] += 1
            closes.append(t)
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
    # time, so many short blocks end inside a stage-A stretch.
    blocks = _play_twins(12, 3000, 1.0, 7, _random_cuts(3000, 7, longest=40))
    assert sum(_inside_stage_a(states, arm) for _, states, arm in blocks) > 50


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
    assert all(_inside_stage_a(states, arm) for _, states, arm in blocks[:-1])


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
    mu_hat = np.zeros(n_arms)
    init = (b + 1) * n_arms
    rows = BLOCK_SIZE // n_arms
    for t in range(1, init + 2 * rows + 3):  # into a third noise block
        if t <= init:
            arm = policy.select(t)
        else:
            arm, theta = policy.select_with_models(t)
            expected = twin.normal(mu_hat, np.sqrt(c / n))
            assert np.array_equal(theta, expected), t
            assert arm == int(np.argmax(expected))
        reward = float(rewards.random() < 0.5)
        policy.update(arm, reward)
        n[arm] += 1
        mu_hat[arm] += (reward - mu_hat[arm]) / n[arm]


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
