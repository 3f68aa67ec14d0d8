"""Traced runs: per-layer timings taken around the benchmark's calls into each
dpbandits module, and the replays that check run_single from outside.

All layer times are wall-clock `perf_counter` spans in one process, so they
add up with each other.  The cost of reading the clock is measured once and
taken off every span.
"""
from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dpbandits import cli, harness, privacy, verify
from dpbandits.env import BanditInstance, Purpose, RngStream, sample_reward
from dpbandits.policies import make_policy

import checks

POLICY_CLASSES = ("dp-ts-ucb", "m-ts-gaussian", "ts-gaussian", "ucb1")
#: timed groups of verification checks
VERIFY_GROUPS = {
    "boost": ("boost",),
    "inverse-prob": ("inverse-prob",),
    "hoeffding": ("hoeffding",),
    "closed-form": ("gaussian-facts", "log-inequality"),
}
#: values per call in the privacy primitive timings
PRIMITIVE_VALUES = 10**6


def clock_overhead_ns(samples: int = 20001) -> float:
    """Median cost of one perf_counter_ns read as seen inside a span."""
    clock = time.perf_counter_ns
    spans = []
    for _ in range(samples):
        a = clock()
        b = clock()
        spans.append(b - a)
    return statistics.median(spans)


def experiment_spec(argv) -> harness.ExperimentSpec:
    """The ExperimentSpec `dpbandits run` builds for these arguments."""
    cfg = cli.parse_config(list(argv))
    return harness.ExperimentSpec(
        instance=BanditInstance(cfg.means),
        policies=cli.expand_policies(cfg),
        horizon=cfg.horizon,
        n_runs=cfg.runs,
        base_seed=cfg.seed,
    )


@dataclass
class Replay:
    trace: list[float]
    pulls: list[int]
    select_ns: float
    reward_ns: float
    update_ns: float


def _streams(spec, position, run_index):
    root = RngStream(spec.base_seed, (position, run_index))
    return root.child(Purpose.POLICY).generator(), root.child(Purpose.REWARD).generator()


def replay(spec, position: int, run_index: int, overhead_ns: float) -> Replay:
    """One (policy, run) through make_policy, Policy.select/update and
    sample_reward on run_single's streams, with a span around each call."""
    policy_rng, reward_rng = _streams(spec, position, run_index)
    instance = spec.instance
    policy = make_policy(spec.policies[position], instance.n_arms, policy_rng)
    gap = checks.gaps(instance.means)
    pulls = [0] * instance.n_arms
    regret, trace = 0.0, []
    remaining = iter(spec.checkpoints)
    next_cp = next(remaining)
    select, update, clock = policy.select, policy.update, time.perf_counter_ns
    select_ns = reward_ns = update_ns = 0
    for t in range(1, spec.horizon + 1):
        a = clock()
        arm = select(t)
        b = clock()
        reward = sample_reward(instance, arm, reward_rng)
        c = clock()
        update(arm, reward)
        d = clock()
        select_ns += b - a
        reward_ns += c - b
        update_ns += d - c
        pulls[arm] += 1
        regret += gap[arm]
        if t == next_cp:
            trace.append(regret)
            next_cp = next(remaining, 0)
    spent = spec.horizon * overhead_ns
    return Replay(trace, pulls, select_ns - spent, reward_ns - spent, update_ns - spent)


class _CountingGenerator:
    """Passes `normal` through to a Generator and counts the variates drawn."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.draws = 0

    def normal(self, loc, scale):
        out = self._rng.normal(loc, scale)
        self.draws += np.size(out)
        return out


def audit_budget(spec, position: int, run_index: int) -> list[str]:
    """Replay one dp-ts-ucb run, counting its Gaussian draws and reading
    arm_state around every pull; see checks.budget_failures."""
    cfg = spec.policies[position]
    policy_rng, reward_rng = _streams(spec, position, run_index)
    counter = _CountingGenerator(policy_rng)
    instance = spec.instance
    k = instance.n_arms
    policy = make_policy(cfg, k, counter)
    phi = checks.phi_budget(cfg.variant.alpha, spec.horizon)
    # An arm draws a fresh model in rounds start+1 .. start+phi, where start
    # is the round its current epoch began (round K for the first epoch).
    start = np.full(k, k, dtype=np.int64)
    pulls_in_epoch = [0] * k
    mismatches, epochs = 0, []
    for t in range(1, spec.horizon + 1):
        before = counter.draws
        arm = policy.select(t)
        live = 0 if t <= k else int(np.count_nonzero(t - start <= phi))
        mismatches += counter.draws - before != live
        state = policy.arm_state(arm)
        policy.update(arm, sample_reward(instance, arm, reward_rng))
        if t <= k:
            continue
        pulls_in_epoch[arm] += 1
        after = policy.arm_state(arm)
        if after.epoch != state.epoch:
            epochs.append((arm, state.epoch, pulls_in_epoch[arm], phi - state.budget))
            pulls_in_epoch[arm] = 0
            start[arm] = t
    return checks.budget_failures(phi, mismatches, epochs)


@dataclass
class RoundLayers:
    """Summed spans over a set of (policy, run) operations."""

    rounds: int = 0
    run_single_ns: float = 0.0
    select_ns: float = 0.0
    reward_ns: float = 0.0
    update_ns: float = 0.0
    class_ns: dict = field(default_factory=dict)
    class_rounds: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)
    failed: int = 0


def trace_rounds(spec, positions, overhead_ns: float) -> RoundLayers:
    """run_single, timed, then the timed replay and (for dp-ts-ucb) the budget
    audit, for run 0 .. n_runs-1 of each listed policy."""
    out = RoundLayers()
    gap = checks.gaps(spec.instance.means)
    for position in positions:
        name = spec.policies[position].variant.name
        for run_index in range(spec.n_runs):
            t0 = time.perf_counter_ns()
            result = harness.run_single(spec, position, run_index)
            elapsed = time.perf_counter_ns() - t0
            rep = replay(spec, position, run_index, overhead_ns)
            msgs = checks.replay_failures(result.regret, result.pulls, rep.trace, rep.pulls,
                                          gap, spec.horizon)
            if name == "dp-ts-ucb":
                msgs += audit_budget(spec, position, run_index)
            out.failed += bool(msgs)
            out.runs.append(result)
            out.rounds += spec.horizon
            out.run_single_ns += elapsed
            out.select_ns += rep.select_ns
            out.reward_ns += rep.reward_ns
            out.update_ns += rep.update_ns
            out.class_ns[name] = out.class_ns.get(name, 0.0) + elapsed
            out.class_rounds[name] = out.class_rounds.get(name, 0) + spec.horizon
    return out


def _aggregates(spec, runs):
    """Cross-run mean and ddof=1 std per policy, for the write_csv timing."""
    out = []
    for position, cfg in enumerate(spec.policies):
        traces = [r.regret for r in runs if r.position == position]
        columns = list(zip(*traces))
        out.append(harness.AggregateResult(
            policy=cfg.label(),
            position=position,
            checkpoints=spec.checkpoints,
            mean_regret=tuple(statistics.fmean(c) for c in columns),
            std_regret=tuple(statistics.stdev(c) if len(c) > 1 else 0.0 for c in columns),
            n_runs=len(traces),
        ))
    return tuple(out)


def _median_seconds(fn, repeats: int) -> float:
    spans = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        spans.append(time.perf_counter() - t0)
    return statistics.median(spans)


def time_write_csv(spec, runs, out_dir: Path) -> tuple[float, int]:
    """Median ms of write_csv over 20 calls, and the bytes it writes."""
    result = harness.ExperimentResult(spec=spec, runs=tuple(runs), aggregates=_aggregates(spec, runs))
    paths = harness.write_csv(result, out_dir)
    seconds = _median_seconds(lambda: harness.write_csv(result, out_dir), 20)
    return seconds * 1e3, sum(os.path.getsize(p) for p in paths.values())


def time_primitives(seed: int) -> tuple[float, float]:
    """ns per value of std_normal_quantile and std_normal_cdf on 1e6 values,
    median of 5 calls each."""
    rng = np.random.default_rng(seed)
    probabilities = rng.uniform(np.nextafter(0.0, 1.0), 1.0, PRIMITIVE_VALUES)
    points = rng.standard_normal(PRIMITIVE_VALUES)
    quantile = _median_seconds(lambda: privacy.std_normal_quantile(probabilities), 5)
    cdf = _median_seconds(lambda: privacy.std_normal_cdf(points), 5)
    return quantile * 1e9 / PRIMITIVE_VALUES, cdf * 1e9 / PRIMITIVE_VALUES


def time_privacy_table(policies, eps_grid) -> float:
    """µs per (policy, epsilon) row of the privacy table: policy_gdp, then
    gdp_to_dp at each epsilon; median of 200 tables."""
    etas = [privacy.policy_gdp(cfg) for cfg in policies]
    rows = sum(eta is not None for eta in etas) * len(eps_grid)

    def table():
        for cfg in policies:
            eta = privacy.policy_gdp(cfg)
            if eta is not None:
                for eps in eps_grid:
                    privacy.gdp_to_dp(eta, eps)

    return _median_seconds(table, 200) * 1e6 / max(rows, 1)


def time_resolve(argv) -> float:
    """Median ms of cli.parse_config on the workload's arguments, 50 calls."""
    return _median_seconds(lambda: cli.parse_config(list(argv)), 50) * 1e3


def trace_verify(trials: int, seed: int) -> tuple[dict, int, int]:
    """Time each verification family, and the boost family's peak traced
    memory; every report is checked.  Returns (metrics, attempted, failed)."""
    seconds, reports = {}, []
    for group, names in VERIFY_GROUPS.items():
        t0 = time.perf_counter()
        reports += verify.default_battery(trials, seed, names)
        seconds[group] = time.perf_counter() - t0
    tracemalloc.start()
    try:
        verify.default_battery(trials, seed, ("boost",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    attempted, failed = checks.battery_failures(reports)
    metrics = {
        "verify.boost_s": (seconds["boost"], "s"),
        "verify.inverse_prob_s": (seconds["inverse-prob"], "s"),
        "verify.hoeffding_s": (seconds["hoeffding"], "s"),
        "verify.closed_form_ms": (seconds["closed-form"] * 1e3, "ms"),
        "verify.boost_peak_mib": (peak / 2**20, "MiB"),
    }
    return metrics, attempted, failed


def traced_pass(argv, run_spec, probe_spec, trials: int, seed: int, out_dir: Path):
    """One pass over every layer.  A layer the workload does not exercise is
    measured on the probe (`probe_spec`, or `trials` verification trials), so
    every traced run reports every layer.  Returns (metrics, attempted, failed)."""
    overhead = clock_overhead_ns()
    metrics = {"cli.resolve_ms": (time_resolve(argv), "ms")}
    attempted = failed = 0

    spec = run_spec or probe_spec
    main = trace_rounds(spec, range(len(spec.policies)), overhead)
    missing = [p for p, cfg in enumerate(probe_spec.policies)
               if cfg.variant.name not in main.class_ns]
    extra = trace_rounds(probe_spec, missing, overhead)
    attempted += len(main.runs) + len(extra.runs)
    failed += main.failed + extra.failed
    us = 1e-3 / main.rounds
    metrics["policies.select_us_per_round"] = (main.select_ns * us, "us")
    metrics["policies.update_us_per_round"] = (main.update_ns * us, "us")
    metrics["env.reward_us_per_round"] = (main.reward_ns * us, "us")
    rest = main.run_single_ns - main.select_ns - main.reward_ns - main.update_ns
    metrics["harness.bookkeeping_us_per_round"] = (rest * us, "us")
    for name in POLICY_CLASSES:
        source = main if name in main.class_ns else extra
        metrics[f"harness.round_us.{name}"] = (
            source.class_ns[name] * 1e-3 / source.class_rounds[name], "us")
    write_ms, csv_bytes = time_write_csv(spec, main.runs, out_dir)
    metrics["harness.write_csv_ms"] = (write_ms, "ms")
    metrics["harness.csv_bytes"] = (csv_bytes, "bytes")

    quantile_ns, cdf_ns = time_primitives(seed)
    metrics["privacy.quantile_ns_per_value"] = (quantile_ns, "ns")
    metrics["privacy.cdf_ns_per_value"] = (cdf_ns, "ns")
    cfg = cli.parse_config(list(argv))
    metrics["privacy.table_us_per_row"] = (
        time_privacy_table(cli.expand_policies(cfg), cfg.eps_grid), "us")

    verify_metrics, verify_attempted, verify_failed = trace_verify(trials, seed)
    metrics.update(verify_metrics)
    return metrics, attempted + verify_attempted, failed + verify_failed
