"""dpbandits benchmark: one workload per invocation, in one process.

    python3 benchmarks/run.py --workload paper-k5 --seed 1 --seconds 30 --trace 0

With --trace 0 the workload is repeated for about --seconds and the
end-to-end metrics are reported: medians over the repetitions for cpu_s and
wall_s, one cold set-up for setup_s, and the process's peak resident set.
With --trace 1 the traced layer split runs instead (see layers.py) and the
per-layer metrics are reported.  Every repetition's outputs are checked
against values computed apart from the program (see checks.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from src/ next to this directory; without it the
benchmark exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent

#: the paper-fig5 preset's five-arm instance
PAPER_MEANS = (0.95, 0.75, 0.55, 0.35, 0.15)
#: K=100 evenly spaced means 0.005, 0.015, ..., 0.995
MANY_MEANS = tuple((2 * i + 1) / 200 for i in range(100))
ALL_POLICIES = "dp-ts-ucb,m-ts-gaussian,ts-gaussian,ucb1"


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    means: tuple[float, ...] = ()  # empty for a verify workload
    horizon: int = 0
    n_ops: int = 0  # (policy, run) simulations per repetition


def _run(horizon: int, means: tuple[float, ...], n_ops: int, *flags: str) -> Workload:
    argv = ("run", *flags, "--T", str(horizon), "--runs", "1", "--workers", "1")
    return Workload(argv, means, horizon, n_ops)


WORKLOADS = {
    # six policies, alpha=0 fresh draws and alpha=1 reuse, on 5-element arrays
    "paper-k5": _run(100_000, PAPER_MEANS, 6, "--preset", "paper-fig5", "--policies", ALL_POLICIES),
    # K-length vector work per round; no m-ts-gaussian (its init would not fit)
    "many-arms": _run(50_000, MANY_MEANS, 4, "--means", ",".join(map(repr, MANY_MEANS)),
                      "--alpha", "0,1", "--policies", "dp-ts-ucb,ts-gaussian,ucb1"),
    # vectorised Monte-Carlo in verify and privacy; no round loop
    "verify-1e6": Workload(("verify", "--trials", "1000000", "--checks", "all")),
}
#: what a traced run measures for layers its workload does not exercise
PROBE_ARGV = _run(20_000, PAPER_MEANS, 6, "--preset", "paper-fig5", "--policies", ALL_POLICIES).argv
PROBE_TRIALS = 10**5


def _seconds_since_process_start() -> float:
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # clock ticks after boot
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def _import_program() -> float:
    """Import dpbandits from ROOT/src; returns the import time in seconds."""
    src = ROOT / "src"
    if not (src / "dpbandits" / "__init__.py").is_file():
        raise SystemExit(f"error: no dpbandits sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import dpbandits
    elapsed = time.perf_counter() - t0
    if Path(dpbandits.__file__).resolve().parent != (src / "dpbandits").resolve():
        raise SystemExit(f"error: dpbandits imported from {dpbandits.__file__}, not {src}")
    return elapsed


def quiet(fn, *args):
    """Call fn with its standard output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _repeat(seconds: float, step) -> int:
    """Call step() until about `seconds` have passed, never starting a call
    that the mean duration so far says would end past it; at least once."""
    start = time.perf_counter()
    count = 0
    while True:
        step()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return count


def _end_to_end(workload: Workload, argv, seconds: float, out: Path) -> dict:
    from dpbandits import cli, verify

    if workload.means:
        def operation():
            return quiet(cli.main, argv)

        def check(code):
            return _check_run(workload, argv, code, out)
    else:
        cfg = cli.parse_config(argv)

        def operation():
            return verify.default_battery(cfg.trials, cfg.seed, cfg.checks)

        check = checks.battery_failures

    cpu, wall = [], []
    counts = {"attempted": 0, "failed": 0}

    def step():
        c0, w0 = time.process_time(), time.perf_counter()
        output = operation()
        cpu.append(time.process_time() - c0)
        wall.append(time.perf_counter() - w0)
        attempted, failed = check(output)
        counts["attempted"] += attempted
        counts["failed"] += failed

    setup = _seconds_since_process_start()
    reps = _repeat(seconds, step)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{reps} repetitions; cpu_s {cpu}; wall_s {wall}", file=sys.stderr)
    metrics = {
        "cpu_s": (statistics.median(cpu), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }
    return {**counts, "metrics": metrics}


def _check_run(workload: Workload, argv, code: int, out: Path) -> tuple[int, int]:
    """Check one repetition's CSVs; returns (attempted, failed) operations."""
    from dpbandits import cli

    if code != 0:
        return workload.n_ops, workload.n_ops
    other = out / "other-horizon"
    code = quiet(cli.main, ["privacy", *argv[1:], "--T", str(2 * workload.horizon),
                            "--out", str(other)])
    failures = checks.run_failures(
        checks.read_csv(out / "per_run.csv"),
        checks.read_csv(out / "aggregate.csv"),
        checks.read_csv(out / "privacy.csv"),
        checks.read_csv(other / "privacy.csv") if code == 0 else [],
        workload.means,
        workload.horizon,
    )
    for op, msgs in failures.items():
        for msg in msgs:
            print(f"FAIL {op}: {msg}", file=sys.stderr)
    failed = sum(bool(m) for m in failures.values()) + max(workload.n_ops - len(failures), 0)
    return workload.n_ops, min(failed, workload.n_ops)


def _traced(workload: Workload, argv, seed: int, seconds: float, out: Path, import_s: float) -> dict:
    from dpbandits import cli
    import layers

    if workload.means:
        run_spec, trials = layers.experiment_spec(argv), PROBE_TRIALS
    else:
        run_spec, trials = None, cli.parse_config(argv).trials
    probe_spec = layers.experiment_spec([*PROBE_ARGV, "--seed", str(seed)])
    passes = []

    def step():
        passes.append(layers.traced_pass(argv, run_spec, probe_spec, trials, seed, out))

    _repeat(seconds, step)
    print(f"{len(passes)} traced passes", file=sys.stderr)
    metrics = {"dpbandits.import_s": (import_s, "s")}
    for name, (_, unit) in passes[0][0].items():
        metrics[name] = (statistics.median(p[0][name][0] for p in passes), unit)
    return {
        "attempted": sum(p[1] for p in passes),
        "failed": sum(p[2] for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_s = _import_program()

    workload = WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    argv = [*workload.argv, "--seed", str(args.seed)]
    if workload.means:
        argv += ["--out", str(out)]
    try:
        if args.trace:
            result = _traced(workload, argv, args.seed, args.seconds, out, import_s)
        else:
            result = _end_to_end(workload, argv, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
