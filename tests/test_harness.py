import concurrent.futures
import csv

import numpy as np
import pytest

from dpbandits import harness
from dpbandits.env import BLOCK_SIZE, BanditInstance, sample_reward
from dpbandits.harness import (
    DEFAULT_EPS_GRID,
    ExperimentSpec,
    default_checkpoints,
    pool_map,
    run_experiment,
    run_single,
    write_csv,
    write_privacy_csv,
    _drive,
)
from dpbandits.policies import (
    DpTsUcbConfig,
    MTsGaussianConfig,
    Policy,
    PolicyConfig,
    TsGaussianConfig,
    Ucb1Config,
)

BENCH = BanditInstance((0.95, 0.75, 0.55, 0.35, 0.15))


@pytest.mark.parametrize(
    "horizon, n_arms, expected",
    [
        (100, 5, (5, 7, 13, 25, 50, 100)),
        (10, 1, (1, 2, 3, 5, 10)),
        (1, 1, (1,)),
        (21, 2, (2, 3, 6, 11, 21)),
    ],
)
def test_default_checkpoints_grid(horizon, n_arms, expected):
    assert default_checkpoints(horizon, n_arms) == expected


def test_default_checkpoints_shape_properties():
    cps = default_checkpoints(10**5, 5)
    assert cps[0] == 5 and cps[-1] == 10**5
    assert all(b > a for a, b in zip(cps, cps[1:]))
    assert cps[-2] == 50000  # ceil-halving from T


def test_default_checkpoints_validation():
    with pytest.raises(ValueError):
        default_checkpoints(0, 1)
    with pytest.raises(ValueError):
        default_checkpoints(10, 11)
    with pytest.raises(ValueError):
        default_checkpoints(10, 0)


def test_spec_validation():
    cfg = PolicyConfig(Ucb1Config(), 100)
    spec = ExperimentSpec(instance=BENCH, policies=(cfg,), horizon=100, n_runs=3)
    assert spec.checkpoints == (5, 7, 13, 25, 50, 100)
    with pytest.raises(TypeError):  # the grid is always default_checkpoints(T, K)
        ExperimentSpec(instance=BENCH, policies=(cfg,), horizon=100, n_runs=3,
                       checkpoints=(5, 100))
    with pytest.raises(ValueError):
        ExperimentSpec(instance=BENCH, policies=(), horizon=100, n_runs=3)
    with pytest.raises(ValueError):
        ExperimentSpec(instance=BENCH, policies=(cfg,), horizon=200, n_runs=3)
    with pytest.raises(ValueError):
        ExperimentSpec(instance=BENCH, policies=(cfg,), horizon=100, n_runs=0)
    with pytest.raises(ValueError, match="share the label"):
        ExperimentSpec(instance=BENCH, policies=(cfg, cfg), horizon=100, n_runs=3)
    with pytest.raises(ValueError):  # init rounds cannot fit in the horizon
        ExperimentSpec(
            instance=BENCH,
            policies=(PolicyConfig(MTsGaussianConfig(b=30, c=1.0), 100),),
            horizon=100,
            n_runs=1,
        )


class AlwaysArm(Policy):
    """Deterministic stub: always pulls one fixed arm after no initialization."""

    def __init__(self, n_arms, arm):
        super().__init__(n_arms, 0)
        self.arm = arm
        self.updates = []

    def _round(self, t):
        return self.arm

    def update(self, arm, reward):
        self.updates.append((arm, reward))


def test_drive_accumulates_gap_regret_exactly():
    inst = BanditInstance((1.0, 0.5))  # gap of arm 1 is exactly 0.5
    policy = AlwaysArm(2, 1)
    rng = np.random.default_rng(0)
    trace, pulls = _drive(policy, inst, 8, (2, 4, 8), rng)
    assert trace == [1.0, 2.0, 4.0]
    assert pulls == [0, 8]
    assert len(policy.updates) == 8
    assert all(arm == 1 for arm, _ in policy.updates)


def test_drive_feeds_the_selected_arms_reward_back():
    inst = BanditInstance((1.0, 0.0))
    policy = AlwaysArm(2, 0)
    rng = np.random.default_rng(0)
    _drive(policy, inst, 5, (5,), rng)
    assert policy.updates == [(0, 1.0)] * 5  # mean 1.0 arm always pays 1.0


class Cycle(AlwaysArm):
    """Deterministic stub: pulls arm (t mod K) in round t."""

    def _round(self, t):
        return t % self.n_arms


def test_drive_rewards_match_sample_reward_across_reward_blocks():
    inst = BanditInstance((0.3, 0.5, 0.9))
    policy = Cycle(3, None)
    horizon = 3 * BLOCK_SIZE + 7  # into a fourth block of uniforms
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    _drive(policy, inst, horizon, (horizon,), rng)
    expected = [(t % 3, sample_reward(inst, t % 3, twin)) for t in range(1, horizon + 1)]
    assert policy.updates == expected
    assert rng.random() == twin.random()  # no uniform drawn beyond the horizon


class RandomArm(AlwaysArm):
    """Deterministic stub: pulls a seeded pseudo-random arm every round."""

    def __init__(self, n_arms, seed):
        super().__init__(n_arms, None)
        self._rng = np.random.default_rng(seed)

    def _round(self, t):
        return int(self._rng.integers(self.n_arms))


def test_drive_bookkeeping_matches_a_round_by_round_sum_hex_for_hex():
    # The gaps 0.1 and 0.2 of means 0.9, 0.8, 0.7 are not exact binary
    # fractions, so the running sum rounds at every term, and only a sum in
    # round order that carries over the block ends gives these bits.
    inst = BanditInstance((0.9, 0.8, 0.7))
    horizon = 3 * BLOCK_SIZE + 11
    checkpoints = (1, 2, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE, 3 * BLOCK_SIZE + 1, horizon)
    policy = RandomArm(3, 8)
    trace, pulls = _drive(policy, inst, horizon, checkpoints, np.random.default_rng(9))
    gap = [0.9 - 0.9, 0.9 - 0.8, 0.9 - 0.7]
    regret, expected, expected_pulls = 0.0, [], [0, 0, 0]
    for t, (arm, _) in enumerate(policy.updates, start=1):
        regret += gap[arm]
        expected_pulls[arm] += 1
        if t in checkpoints:
            expected.append(regret)
    assert len(policy.updates) == horizon
    assert [v.hex() for v in trace] == [v.hex() for v in expected]
    assert pulls == expected_pulls
    assert all(type(v) is float for v in trace) and all(type(n) is int for n in pulls)


def _small_spec(n_runs=3, T=300, seed=7):
    policies = (
        PolicyConfig(DpTsUcbConfig(1.0), T),
        PolicyConfig(Ucb1Config(), T),
    )
    return ExperimentSpec(
        instance=BENCH, policies=policies, horizon=T, n_runs=n_runs, base_seed=seed
    )


def test_run_single_is_deterministic():
    spec = _small_spec()
    assert run_single(spec, 0, 1) == run_single(spec, 0, 1)


def test_run_single_is_independent_of_other_policies_in_the_spec():
    spec = _small_spec()
    wider = ExperimentSpec(
        instance=BENCH,
        policies=spec.policies + (PolicyConfig(TsGaussianConfig(), spec.horizon),),
        horizon=spec.horizon,
        n_runs=spec.n_runs,
        base_seed=spec.base_seed,
    )
    assert run_single(spec, 0, 2) == run_single(wider, 0, 2)


def test_run_single_varies_with_seed_position_and_run():
    spec = _small_spec()
    base = run_single(spec, 0, 0)
    assert run_single(spec, 0, 1).regret != base.regret
    other_seed = ExperimentSpec(
        instance=BENCH,
        policies=spec.policies,
        horizon=spec.horizon,
        n_runs=spec.n_runs,
        base_seed=spec.base_seed + 1,
    )
    assert run_single(other_seed, 0, 0).regret != base.regret


def test_run_result_metadata():
    spec = _small_spec()
    dp = run_single(spec, 0, 2)
    assert dp.policy == "dp-ts-ucb(alpha=1)"
    assert dp.seed == 2  # the seed column is the run index
    assert dp.checkpoints == spec.checkpoints
    assert len(dp.regret) == len(spec.checkpoints)
    assert sum(dp.pulls) == spec.horizon
    assert run_single(spec, 1, 0).policy == "ucb1"


def test_regret_traces_are_nonnegative_and_nondecreasing():
    spec = _small_spec()
    for position in range(2):
        for run in range(3):
            r = run_single(spec, position, run)
            assert r.regret[0] >= 0.0
            assert all(b >= a for a, b in zip(r.regret, r.regret[1:]))


def test_aggregate_matches_numpy_mean_and_sample_std():
    spec = _small_spec(n_runs=4)
    result = run_experiment(spec, workers=1)
    for position, agg in enumerate(result.aggregates):
        traces = np.array([r.regret for r in result.runs if r.position == position])
        assert agg.n_runs == 4
        assert np.array_equal(agg.mean_regret, traces.mean(axis=0))
        assert np.array_equal(agg.std_regret, traces.std(axis=0, ddof=1))


def test_single_run_aggregate_reports_zero_std():
    spec = _small_spec(n_runs=1)
    result = run_experiment(spec, workers=1)
    assert all(v == 0.0 for agg in result.aggregates for v in agg.std_regret)


def test_runs_are_ordered_by_position_then_run_index():
    spec = _small_spec(n_runs=3)
    result = run_experiment(spec, workers=1)
    assert [(r.position, r.seed) for r in result.runs] == [
        (p, i) for p in range(2) for i in range(3)
    ]


def test_worker_count_never_changes_results():
    spec = _small_spec(n_runs=3)
    sequential = run_experiment(spec, workers=1)
    parallel = run_experiment(spec, workers=3)
    assert sequential.runs == parallel.runs
    assert sequential.aggregates == parallel.aggregates


def test_worker_validation():
    with pytest.raises(ValueError):
        run_experiment(_small_spec(n_runs=1), workers=0)


def test_the_process_pool_is_never_larger_than_the_task_list(monkeypatch):
    # the fork start method launches every max_workers process up front, so a
    # pool larger than the task list forks processes that never get a task
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    spec = _small_spec(n_runs=1)  # two (policy, run) tasks
    pooled = run_experiment(spec, workers=8)
    assert sizes == [2]
    assert run_experiment(spec, workers=2).runs == pooled.runs
    assert sizes == [2, 2]
    assert run_experiment(_small_spec(n_runs=3), workers=4).runs
    assert sizes == [2, 2, 4]
    inline = run_experiment(spec, workers=1)  # one worker runs in this process
    assert sizes == [2, 2, 4]
    assert inline.runs == pooled.runs


def test_pool_map_sizes_a_default_pool_by_the_cpus_and_the_tasks(monkeypatch):
    sizes = []

    class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    assert pool_map(abs, [-5, -1, -4, -2], None) == [5, 1, 4, 2]
    assert pool_map(abs, [-5, -1], None) == [5, 1]
    assert sizes == [3, 2]


def test_pool_map_runs_one_worker_or_one_task_inline_without_looking_up_the_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a pool started")

    # the pool class is looked up only where a pool would start
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert pool_map(str, [1, 2], 1) == ["1", "2"]
    assert pool_map(str, [7], 4) == ["7"]
    assert pool_map(str, [], None) == []
    with pytest.raises(AssertionError, match="a pool started"):
        pool_map(str, [1, 2], 2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        pool_map(str, [1, 2], 0)


def test_policies_behave_sanely_on_the_benchmark_instance():
    T = 2000
    policies = (
        PolicyConfig(DpTsUcbConfig(1.0), T),
        PolicyConfig(TsGaussianConfig(), T),
        PolicyConfig(Ucb1Config(), T),
    )
    spec = ExperimentSpec(instance=BENCH, policies=policies, horizon=T, n_runs=5, base_seed=0)
    result = run_experiment(spec, workers=1)
    for agg in result.aggregates:
        assert agg.mean_regret[-1] < 600.0  # far below the 1600 worst case
    for run in result.runs:
        assert run.pulls[0] == max(run.pulls)  # the best arm is pulled the most


# ---------------------------------------------------------------------------
# CSV contract


def _read_rows(path):
    with path.open(newline="") as handle:
        return list(csv.reader(handle))


def test_write_csv_layout_and_schemas(tmp_path):
    spec = _small_spec(n_runs=2)
    result = run_experiment(spec, workers=1)
    paths = write_csv(result, tmp_path / "out")
    assert sorted(paths) == ["aggregate", "per_run", "privacy"]

    per_run = _read_rows(paths["per_run"])
    assert per_run[0] == ["policy", "seed", "checkpoint", "regret"]
    assert len(per_run) == 1 + 2 * 2 * len(spec.checkpoints)
    assert per_run[1][0] == "dp-ts-ucb(alpha=1)"
    assert per_run[1][1] == "0" and per_run[1][2] == str(spec.checkpoints[0])

    aggregate = _read_rows(paths["aggregate"])
    assert aggregate[0] == ["policy", "checkpoint", "mean_regret", "std_regret", "n_runs"]
    assert len(aggregate) == 1 + 2 * len(spec.checkpoints)
    assert all(row[4] == "2" for row in aggregate[1:])

    privacy = _read_rows(paths["privacy"])
    assert privacy[0] == ["policy", "alpha", "T", "eta", "epsilon", "delta"]
    # dp rows only: ucb1 carries no guarantee, so 1 policy x 4 epsilons
    assert len(privacy) == 1 + len(DEFAULT_EPS_GRID)
    assert [row[4] for row in privacy[1:]] == ["0", "0.5", "1", "2"]
    assert all(row[1] == "1" for row in privacy[1:])  # alpha column filled for dp


def test_per_run_regret_roundtrips_through_the_csv(tmp_path):
    spec = _small_spec(n_runs=2)
    result = run_experiment(spec, workers=1)
    paths = write_csv(result, tmp_path)
    rows = _read_rows(paths["per_run"])[1:]
    run0 = [float(r[3]) for r in rows if r[0] == "dp-ts-ucb(alpha=1)" and r[1] == "0"]
    assert tuple(run0) == result.runs[0].regret  # .17g parses back bit-exact


def test_csv_output_is_byte_deterministic(tmp_path):
    spec = _small_spec(n_runs=2)
    first = write_csv(run_experiment(spec, workers=1), tmp_path / "a")
    second = write_csv(run_experiment(spec, workers=2), tmp_path / "b")
    for name in ("per_run", "aggregate", "privacy"):
        assert first[name].read_bytes() == second[name].read_bytes()


@pytest.mark.parametrize("existing", [False, True])
def test_an_interrupted_write_leaves_no_partial_csv(tmp_path, monkeypatch, existing):
    result = run_experiment(_small_spec(n_runs=2), workers=1)
    if existing:
        write_csv(result, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_fmt, calls = harness._fmt, []

    def interrupted_fmt(value):
        calls.append(value)
        if len(calls) > 5:  # part-way through per_run.csv's rows
            raise KeyboardInterrupt
        return real_fmt(value)

    monkeypatch.setattr(harness, "_fmt", interrupted_fmt)
    with pytest.raises(KeyboardInterrupt):
        write_csv(result, tmp_path)
    assert len(calls) == 6
    # no truncated per_run.csv and no temporary file; earlier files untouched
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("existing", [False, True])
def test_a_write_interrupted_in_aggregate_csv_leaves_no_partial_csv(
    tmp_path, monkeypatch, existing
):
    result = run_experiment(_small_spec(n_runs=2), workers=1)
    write_csv(result, tmp_path / "complete")
    complete = {p.name: p.read_bytes() for p in (tmp_path / "complete").iterdir()}
    out = tmp_path / "out"
    if existing:
        write_csv(result, out)
    per_run_values = sum(len(run.regret) for run in result.runs)
    real_fmt, calls = harness._fmt, []

    def interrupted_fmt(value):
        calls.append(value)
        if len(calls) > per_run_values + 3:  # part-way through aggregate.csv's rows
            raise KeyboardInterrupt
        return real_fmt(value)

    monkeypatch.setattr(harness, "_fmt", interrupted_fmt)
    with pytest.raises(KeyboardInterrupt):
        write_csv(result, out)
    assert len(calls) == per_run_values + 4
    # per_run.csv is complete; aggregate.csv and privacy.csv are the earlier
    # files or absent, and no temporary file remains
    expected = complete if existing else {"per_run.csv": complete["per_run.csv"]}
    assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


def test_privacy_csv_alpha_column_is_blank_for_non_budgeted_policies(tmp_path):
    T = 100
    policies = (
        PolicyConfig(TsGaussianConfig(), T),
        PolicyConfig(MTsGaussianConfig(b=2, c=1.5), T),
        PolicyConfig(Ucb1Config(), T),
    )
    rows = write_privacy_csv(policies, tmp_path / "privacy.csv", eps_grid=(0.0, 1.0))
    assert len(rows) == 4  # two guaranteed policies x two epsilons, no ucb1
    assert {row[0] for row in rows} == {"ts-gaussian", "m-ts-gaussian(b=2;c=1.5)"}
    assert all(row[1] == "" for row in rows)
    on_disk = _read_rows(tmp_path / "privacy.csv")
    assert on_disk[1:] == rows


def test_privacy_csv_delta_shrinks_with_epsilon(tmp_path):
    policies = (PolicyConfig(DpTsUcbConfig(1.0), 10**5),)
    rows = write_privacy_csv(policies, tmp_path / "privacy.csv")
    deltas = [float(row[5]) for row in rows]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    assert all(0.0 <= d <= 1.0 for d in deltas)
