"""Experiment driver: seeded runs, pseudo-regret traces at checkpoints,
cross-run aggregation, and the CSV output contract."""
from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .env import BLOCK_SIZE, BanditInstance, Purpose, RngStream, gaps
from .policies import Policy, PolicyConfig, make_policy
from .privacy import gdp_to_dp, policy_gdp

__all__ = [
    "AggregateResult",
    "ExperimentResult",
    "ExperimentSpec",
    "RunResult",
    "default_checkpoints",
    "pool_map",
    "run_experiment",
    "run_single",
    "write_csv",
]

DEFAULT_EPS_GRID = (0.0, 0.5, 1.0, 2.0)

#: privacy.csv's header, and the columns of `dpbandits privacy`'s table
PRIVACY_COLUMNS = ("policy", "alpha", "T", "eta", "epsilon", "delta")


def default_checkpoints(horizon: int, n_arms: int = 1) -> tuple[int, ...]:
    """Geometric grid ceil(T/2^k) down to the number of arms, plus round K
    (the first round every policy has finished its first pass) and T itself."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not 1 <= n_arms <= horizon:
        raise ValueError(f"need 1 <= n_arms <= horizon, got {n_arms}")
    points = {horizon, n_arms}
    value = horizon
    while value > n_arms:
        value = -(-value // 2)  # ceil(value / 2); iterating gives ceil(T / 2^k)
        if value > n_arms:
            points.add(value)
    return tuple(sorted(points))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines a benchmark's results bit-for-bit."""

    instance: BanditInstance
    policies: tuple[PolicyConfig, ...]
    horizon: int
    n_runs: int
    base_seed: int = 0
    checkpoints: tuple[int, ...] = field(init=False)  # default_checkpoints(T, K)

    def __post_init__(self) -> None:
        policies = tuple(self.policies)
        if not policies:
            raise ValueError("need at least one policy")
        for cfg in policies:
            if cfg.horizon != self.horizon:
                raise ValueError(
                    f"policy {cfg.label()} is pinned to horizon {cfg.horizon}, "
                    f"experiment runs to {self.horizon}"
                )
            cfg.validate_for(self.instance.n_arms)
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        object.__setattr__(self, "policies", policies)
        object.__setattr__(
            self, "checkpoints", default_checkpoints(self.horizon, self.instance.n_arms)
        )


@dataclass(frozen=True)
class RunResult:
    """One policy's trace for one seeded run."""

    policy: str
    position: int
    seed: int
    checkpoints: tuple[int, ...]
    regret: tuple[float, ...]
    pulls: tuple[int, ...]


@dataclass(frozen=True)
class AggregateResult:
    """Per-checkpoint mean and sample std of regret across a policy's runs."""

    policy: str
    position: int
    checkpoints: tuple[int, ...]
    mean_regret: tuple[float, ...]
    std_regret: tuple[float, ...]
    n_runs: int


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    runs: tuple[RunResult, ...]
    aggregates: tuple[AggregateResult, ...]


def _drive(
    policy: Policy,
    instance: BanditInstance,
    horizon: int,
    checkpoints: tuple[int, ...],
    reward_rng: np.random.Generator,
) -> tuple[list[float], list[int]]:
    """The round loop: the policy plays blocks of BLOCK_SIZE rounds, and the
    harness accumulates their pseudo-regret and pulls.

    Uniforms come from `reward_rng.random` in blocks of BLOCK_SIZE; each
    reward `u < mean` is the one sample_reward would draw at that point.
    `np.add.accumulate` sums in round order, and its first term carries the
    regret of the earlier blocks, so every checkpoint's value is the one a
    `regret += gap[arm]` loop gives."""
    gap = gaps(instance)
    pulls = np.zeros(instance.n_arms, dtype=np.int64)
    regret = 0.0
    trace: list[float] = []
    cp = 0
    for start in range(1, horizon + 1, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, horizon + 1)
        arms = policy.play(start, reward_rng.random(stop - start), instance.means)
        pulls += np.bincount(arms, minlength=instance.n_arms)
        running = gap[arms]
        running[0] += regret
        np.add.accumulate(running, out=running)
        while cp < len(checkpoints) and checkpoints[cp] < stop:
            trace.append(float(running[checkpoints[cp] - start]))
            cp += 1
        regret = float(running[-1])
    return trace, pulls.tolist()


def run_single(spec: ExperimentSpec, position: int, run_index: int) -> RunResult:
    """One seeded run of spec.policies[position].

    Streams are keyed (base_seed, position, run_index, purpose), so a run's
    results never depend on which other runs execute, or where.
    """
    cfg = spec.policies[position]
    root = RngStream(spec.base_seed, (position, run_index))
    policy = make_policy(cfg, spec.instance.n_arms, root.child(Purpose.POLICY).generator())
    reward_rng = root.child(Purpose.REWARD).generator()
    trace, pulls = _drive(policy, spec.instance, spec.horizon, spec.checkpoints, reward_rng)
    return RunResult(
        policy=cfg.label(),
        position=position,
        seed=run_index,
        checkpoints=spec.checkpoints,
        regret=tuple(trace),
        pulls=tuple(pulls),
    )


def _run_task(args: tuple[ExperimentSpec, int, int]) -> RunResult:
    return run_single(*args)


def _aggregate(spec: ExperimentSpec, runs: list[RunResult]) -> tuple[AggregateResult, ...]:
    out = []
    for position, cfg in enumerate(spec.policies):
        traces = np.array(
            [r.regret for r in runs if r.position == position], dtype=np.float64
        )
        mean = traces.mean(axis=0)
        if traces.shape[0] > 1:
            std = traces.std(axis=0, ddof=1)
        else:
            std = np.zeros_like(mean)
        out.append(
            AggregateResult(
                policy=cfg.label(),
                position=position,
                checkpoints=spec.checkpoints,
                mean_regret=tuple(float(v) for v in mean),
                std_regret=tuple(float(v) for v in std),
                n_runs=traces.shape[0],
            )
        )
    return tuple(out)


def pool_map(fn, tasks: list, workers: int | None) -> list:
    """[fn(task) for task in tasks] on a process pool of `workers` (None:
    machine CPUs; must be >= 1), capped at len(tasks), as pools start every
    worker they are given; one worker runs inline, without importing the
    pool's module.  Results come back in task order."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentResult:
    """All (policy, run) pairs on `workers` processes; results are identical for
    every worker count because each run owns its streams."""
    tasks = [
        (spec, position, run)
        for position in range(len(spec.policies))
        for run in range(spec.n_runs)
    ]
    runs = pool_map(_run_task, tasks, workers)
    return ExperimentResult(spec=spec, runs=tuple(runs), aggregates=_aggregate(spec, runs))


# ---------------------------------------------------------------------------
# CSV contract


def _fmt(value: float) -> str:
    # 17 significant digits: parses back to the identical float
    return format(float(value), ".17g")


@contextlib.contextmanager
def _open_writer(path: Path):
    """Text handle on the sibling file `path`.tmp, moved onto `path` by
    os.replace on a clean exit and deleted on any exception, so an
    interrupted write never leaves a file at `path` that looks complete."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path: Path, header, rows) -> None:
    """One CSV table at `path` through _open_writer; `rows` may be a generator,
    so an interrupt part-way through leaves no file behind."""
    with _open_writer(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_privacy_csv(
    policies: tuple[PolicyConfig, ...],
    path: Path,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
) -> list[list[str]]:
    """privacy.csv: one row per (policy, epsilon); policies without a
    Gaussian guarantee (ucb1) produce no rows.  Returns the body rows."""
    rows: list[list[str]] = []
    for cfg in policies:
        eta = policy_gdp(cfg)
        if eta is None:
            continue
        alpha = getattr(cfg.variant, "alpha", None)  # only dp-ts-ucb takes one
        alpha = "" if alpha is None else _fmt(alpha)
        for eps in eps_grid:
            point = gdp_to_dp(eta, eps)
            rows.append(
                [cfg.label(), alpha, str(cfg.horizon), _fmt(eta.eta), _fmt(eps), _fmt(point.delta)]
            )
    _write_table(path, PRIVACY_COLUMNS, rows)
    return rows


def write_csv(
    result: ExperimentResult,
    out_dir: str | Path,
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID,
) -> dict[str, Path]:
    """Write per_run.csv, aggregate.csv and privacy.csv under out_dir.

    Output is byte-deterministic: fixed row order (policy position, then run,
    then checkpoint), 17-significant-digit floats, "\\n" line endings.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in ("per_run", "aggregate", "privacy")}

    _write_table(paths["per_run"], ("policy", "seed", "checkpoint", "regret"), (
        [run.policy, str(run.seed), str(checkpoint), _fmt(regret)]
        for run in result.runs
        for checkpoint, regret in zip(run.checkpoints, run.regret)
    ))
    aggregate_columns = ("policy", "checkpoint", "mean_regret", "std_regret", "n_runs")
    _write_table(paths["aggregate"], aggregate_columns, (
        [agg.policy, str(checkpoint), _fmt(mean), _fmt(std), str(agg.n_runs)]
        for agg in result.aggregates
        for checkpoint, mean, std in zip(agg.checkpoints, agg.mean_regret, agg.std_regret)
    ))

    write_privacy_csv(result.spec.policies if result.runs else (), paths["privacy"], eps_grid)
    return paths
