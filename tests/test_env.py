import numpy as np
import pytest

from dpbandits.env import (
    BanditInstance,
    Purpose,
    RngStream,
    gaps,
    sample_reward,
)


def test_same_seed_and_key_reproduce_the_sequence():
    a = RngStream(123, (4, 5)).generator().random(8)
    b = RngStream(123, (4, 5)).generator().random(8)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    a = RngStream(123, (0,)).generator().random(8)
    b = RngStream(123, (1,)).generator().random(8)
    assert not np.array_equal(a, b)


def test_distinct_seeds_give_distinct_streams():
    a = RngStream(0, (1,)).generator().random(8)
    b = RngStream(1, (1,)).generator().random(8)
    assert not np.array_equal(a, b)


def test_child_appends_key_parts():
    s = RngStream(9, (1,))
    assert s.child(2, 3) == RngStream(9, (1, 2, 3))
    assert s.child(Purpose.REWARD).key == (1, 0)


def test_generator_is_a_fresh_instance_every_call():
    s = RngStream(7)
    g1, g2 = s.generator(), s.generator()
    assert g1 is not g2
    assert g1.random() == g2.random()  # holding a stream has no draw state


def test_negative_key_part_rejected():
    with pytest.raises(ValueError):
        RngStream(0, (-1,))


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(-1)
    with pytest.raises(ValueError, match="non-negative"):
        RngStream(-(2**64), (1,))


def test_seeds_past_64_bits_get_their_own_streams():
    draws = {seed: tuple(RngStream(seed, (1,)).generator().random(4))
             for seed in (0, 2**64 - 1, 2**64, 2**64 + 1)}
    assert len(set(draws.values())) == 4
    # below 2**64 the stream is the plain SeedSequence of the seed
    twin = np.random.Generator(np.random.Philox(np.random.SeedSequence(2**64 - 1, spawn_key=(1,))))
    assert draws[2**64 - 1] == tuple(twin.random(4))


def test_purpose_tags_are_stable():
    # stream keys embed these values; changing them would silently reseed
    assert (Purpose.REWARD, Purpose.POLICY, Purpose.TRIAL) == (0, 1, 2)


def test_instance_validation():
    inst = BanditInstance((0.95, 0.75, 0.55))
    assert inst.n_arms == 3
    with pytest.raises(ValueError):
        BanditInstance(())
    with pytest.raises(ValueError):
        BanditInstance((0.5, 1.2))
    with pytest.raises(ValueError):
        BanditInstance((-0.01,))
    with pytest.raises(ValueError):
        BanditInstance((float("nan"),))


def test_means_are_coerced_to_a_float_tuple():
    inst = BanditInstance([1, 0])
    assert inst.means == (1.0, 0.0)
    assert isinstance(inst.means, tuple)


def test_gaps_on_the_benchmark_instance():
    inst = BanditInstance((0.95, 0.75, 0.55, 0.35, 0.15))
    assert np.allclose(gaps(inst), [0.0, 0.2, 0.4, 0.6, 0.8])
    assert gaps(BanditInstance((0.4, 0.4))).tolist() == [0.0, 0.0]


def test_sample_reward_bounds_and_degenerate_means():
    inst = BanditInstance((1.0, 0.0))
    rng = RngStream(0).generator()
    assert all(sample_reward(inst, 0, rng) == 1.0 for _ in range(20))
    assert all(sample_reward(inst, 1, rng) == 0.0 for _ in range(20))
    with pytest.raises(IndexError):
        sample_reward(inst, 2, rng)
    with pytest.raises(IndexError):
        sample_reward(inst, -1, rng)


def test_sample_reward_with_a_generator_is_stateful():
    inst = BanditInstance((0.5,))
    rng = RngStream(11).generator()
    draws = {sample_reward(inst, 0, rng) for _ in range(50)}
    assert draws == {0.0, 1.0}


def test_sample_reward_frequency_matches_the_mean():
    inst = BanditInstance((0.3,))
    rng = RngStream(42).generator()
    draws = [sample_reward(inst, 0, rng) for _ in range(20000)]
    # 4 sigma allowance on a Bernoulli(0.3) mean over 20000 draws
    assert abs(np.mean(draws) - 0.3) < 4 * np.sqrt(0.3 * 0.7 / 20000)
