"""Command line interface.

Three subcommands: `run` executes a benchmark and writes per_run.csv,
aggregate.csv, privacy.csv and summary.txt; `verify` runs the Monte-Carlo
verification battery; `privacy` prints the guarantee table without running
anything.  Each takes, as flags and as --config keys, only the settings it
reads (COMMAND_KEYS).  Settings resolve in fixed precedence order: built-in
defaults, then --preset expansion, then the --config file, then explicit flags.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .env import BanditInstance
from .harness import DEFAULT_EPS_GRID, PRIVACY_COLUMNS, ExperimentResult, ExperimentSpec
from .harness import _fmt, _open_writer, run_experiment, write_csv, write_privacy_csv
from .policies import VARIANTS, DpTsUcbConfig, MTsGaussianConfig, PolicyConfig, Variant
from .privacy import match_c, policy_gdp
from .verify import BATTERY_CHECKS, MAX_TRIALS, MIN_TRIALS, McReport, default_battery

__all__ = ["CliConfig", "UsageError", "config_items", "main", "parse_config"]


class UsageError(Exception):
    """Bad flags, bad config keys, or out-of-domain values; exits with 2."""


POLICY_NAMES = tuple(VARIANTS)

#: pre-pull counts that performed best in the source experiments, per alpha
PAPER_BEST_B = {0.0: 1, 1.0: 2000}

_DEFAULT_MEANS = "0.95,0.75,0.55,0.35,0.15"

DEFAULTS = {
    "means": _DEFAULT_MEANS,
    "T": "100000",
    "alpha": "0",
    "policies": "dp-ts-ucb",
    "b": "0",
    "c": "match",
    "runs": "20",
    "seed": "0",
    "out": "results",
    "eps-grid": ",".join(_fmt(e) for e in DEFAULT_EPS_GRID),
    "workers": "",
    "trials": "100000",
    "checks": "all",
}

PRESETS = {
    # the alpha sweep of the budgeted policy on the five-arm instance
    "paper-fig3": {
        "means": _DEFAULT_MEANS,
        "T": "1000000",
        "alpha": "0,0.25,0.5,0.75,1",
        "policies": "dp-ts-ucb",
    },
    # against the pre-pulled baseline tuned for regret, c = 5 ln^alpha T, b=0
    "paper-fig4": {
        "means": _DEFAULT_MEANS,
        "T": "1000000",
        "alpha": "0,0.25,0.5,0.75,1",
        "policies": "dp-ts-ucb,m-ts-gaussian",
        "b": "0",
        "c": "regret",
    },
    # privacy-matched comparison: b from the source grid, c = match_c
    "paper-fig5": {
        "means": _DEFAULT_MEANS,
        "T": "1000000",
        "alpha": "0,1",
        "policies": "dp-ts-ucb,m-ts-gaussian",
        "b": "paper",
        "c": "match",
    },
}

_EXPERIMENT_KEYS = ("preset", "means", "T", "alpha", "policies", "b", "c", "runs", "seed",
                    "out", "eps-grid", "workers")

#: the settings each command reads, as flags and --config keys; privacy takes run's
COMMAND_KEYS = {"run": _EXPERIMENT_KEYS, "verify": ("seed", "trials", "checks"),
                "privacy": _EXPERIMENT_KEYS}

_HELP = {
    "config": "flat key = value settings file",
    "preset": f"one of {sorted(PRESETS)}",
    "means": "comma-separated arm means in [0, 1]",
    "T": "horizon (rounds per run)",
    "alpha": "comma-separated privacy exponents in [0, 1]",
    "policies": f"comma-separated subset of {list(POLICY_NAMES)}",
    "b": "pre-pull count for m-ts-gaussian, or 'paper'",
    "c": "variance scale for m-ts-gaussian, 'match' or 'regret'",
    "runs": "independent runs per policy",
    "seed": "base seed; every (policy, run) or check derives its own streams",
    "out": "output directory",
    "eps-grid": "comma-separated epsilons for privacy.csv",
    "workers": "worker processes (default: machine CPUs)",
    "trials": "Monte-Carlo trials per verification check",
    "checks": f"'all' or comma-separated subset of {list(BATTERY_CHECKS)}",
}

#: command -> (summary, flag help that differs from _HELP)
_COMMANDS = {
    "run": ("run a benchmark and write CSVs", {}),
    "verify": ("run the verification battery", {}),
    "privacy": ("print the privacy table",
                dict.fromkeys(("runs", "seed", "workers"), "accepted for run's command line; unused")),
}


@dataclass(frozen=True)
class CliConfig:
    """Fully resolved, typed settings for one invocation."""

    command: str
    means: tuple[float, ...]
    horizon: int
    alphas: tuple[float, ...]
    policies: tuple[str, ...]
    b: int | str  # a count, or "paper"
    c: float | str  # a scale, or "match" / "regret"
    runs: int
    seed: int
    out: str
    eps_grid: tuple[float, ...]
    workers: int | None
    trials: int
    checks: tuple[str, ...]


# ---------------------------------------------------------------------------
# parsing


def _parse_int(key: str, raw: str, minimum: int, maximum: int | None = None) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise UsageError(f"{key} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise UsageError(f"{key} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise UsageError(f"{key} must be <= {maximum}, got {value}")
    return value


def _parse_floats(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{key} must be a comma-separated list of numbers")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"{key} must be a comma-separated list of numbers, got {raw!r}") from None


def _parse_config_text(text: str, command: str) -> dict[str, str]:
    """Flat `key = value` lines, '#' comments; rejects keys the command does not read."""
    items: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        if key not in COMMAND_KEYS[command]:
            raise UsageError(f"config line {lineno}: {command} reads no key {key!r}")
        items[key] = value
    return items


def _merge_items(ns: argparse.Namespace) -> dict[str, str]:
    file_items: dict[str, str] = {}
    if ns.config is not None:
        file_items = _parse_config_text(Path(ns.config).read_text(), ns.command)
    flags = {key: getattr(ns, key.replace("-", "_")) for key in COMMAND_KEYS[ns.command]}
    flag_items = {k: v for k, v in flags.items() if v is not None}
    preset = flag_items.pop("preset", None) or file_items.pop("preset", None)
    merged = dict(DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}; valid: {sorted(PRESETS)}")
        merged.update(PRESETS[preset])
    merged.update(file_items)
    merged.update(flag_items)
    return merged


def _resolve(command: str, items: dict[str, str]) -> CliConfig:
    means = _parse_floats("means", items["means"])
    alphas = _parse_floats("alpha", items["alpha"])
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise UsageError(f"alpha must lie in [0, 1], got {a:g}")
    policies = tuple(p.strip() for p in items["policies"].split(",") if p.strip())
    if not policies:
        raise UsageError("policies must name at least one policy")
    for name in policies:
        if name not in POLICY_NAMES:
            raise UsageError(f"unknown policy {name!r}; valid: {list(POLICY_NAMES)}")
    raw_b = items["b"].strip()
    b: int | str = "paper" if raw_b == "paper" else _parse_int("b", raw_b, 0)
    raw_c = items["c"].strip()
    if raw_c in ("match", "regret"):
        c: float | str = raw_c
    else:
        try:
            c = float(raw_c)
        except ValueError:
            raise UsageError(
                f"c must be a number, 'match' or 'regret', got {raw_c!r}"
            ) from None
        if not (math.isfinite(c) and c > 0):
            raise UsageError(f"c must be positive and finite, got {c:g}")
    eps_grid = _parse_floats("eps-grid", items["eps-grid"])
    if not all(0 <= e < math.inf for e in eps_grid):  # also rejects NaN
        raise UsageError(f"eps-grid values must be finite and >= 0, got {items['eps-grid']!r}")
    raw_workers = items["workers"].strip()
    workers = None if not raw_workers else _parse_int("workers", raw_workers, 1)
    raw_checks = items["checks"].strip()
    if raw_checks == "all":
        checks = BATTERY_CHECKS
    else:
        checks = tuple(p.strip() for p in raw_checks.split(",") if p.strip())
        for name in checks:
            if name not in BATTERY_CHECKS:
                raise UsageError(f"unknown check {name!r}; valid: {list(BATTERY_CHECKS)}")
    return CliConfig(
        command=command,
        means=means,
        horizon=_parse_int("T", items["T"], 1),
        alphas=alphas,
        policies=policies,
        b=b,
        c=c,
        runs=_parse_int("runs", items["runs"], 1),
        seed=_parse_int("seed", items["seed"], 0),
        out=items["out"],
        eps_grid=eps_grid,
        workers=workers,
        trials=_parse_int("trials", items["trials"], MIN_TRIALS, MAX_TRIALS),
        checks=checks,
    )


def parse_config(argv: list[str]) -> CliConfig:
    """Resolve argv (plus any --config file and --preset) into a CliConfig."""
    ns = _parse_args(argv)
    return _resolve(ns.command, _merge_items(ns))


def config_items(cfg: CliConfig) -> dict[str, str]:
    """The settings its command reads, in the flat key-value form; re-parsing
    them reproduces the CliConfig exactly (preset expansion is idempotent)."""
    items = {
        "means": ",".join(_fmt(m) for m in cfg.means),
        "T": str(cfg.horizon),
        "alpha": ",".join(_fmt(a) for a in cfg.alphas),
        "policies": ",".join(cfg.policies),
        "b": str(cfg.b),
        "c": cfg.c if isinstance(cfg.c, str) else _fmt(cfg.c),
        "runs": str(cfg.runs),
        "seed": str(cfg.seed),
        "out": cfg.out,
        "eps-grid": ",".join(_fmt(e) for e in cfg.eps_grid),
        "workers": "" if cfg.workers is None else str(cfg.workers),
        "trials": str(cfg.trials),
        "checks": ",".join(cfg.checks),
    }
    return {k: v for k, v in items.items() if k in COMMAND_KEYS[cfg.command]}


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse argv with whole flag names only; a flag the command does not take
    is reported with that command's usage line (argparse exits with 2)."""
    parser = argparse.ArgumentParser(
        prog="dpbandits",
        description="Privacy-aware stochastic bandit benchmarks",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, (summary, helps) in _COMMANDS.items():
        commands[command] = cmd = sub.add_parser(command, help=summary, allow_abbrev=False)
        for key in ("config", *COMMAND_KEYS[command]):
            cmd.add_argument(f"--{key}", help={**_HELP, **helps}[key])
    ns, unknown = parser.parse_known_args(argv)
    if unknown:
        commands[ns.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    return ns


# ---------------------------------------------------------------------------
# commands


def expand_policies(cfg: CliConfig) -> tuple[PolicyConfig, ...]:
    """Expand the policy-name list into concrete configurations.

    dp-ts-ucb yields one entry per alpha, variants without parameters one
    entry.  m-ts-gaussian yields one entry when both b and c are fixed numbers,
    otherwise one per alpha with b from the source grid ('paper') and c from
    match_c ('match') or the regret recipe 5 ln^alpha T ('regret').
    """
    variants: list[Variant] = []
    for name in cfg.policies:
        if name == DpTsUcbConfig.name:
            variants.extend(DpTsUcbConfig(alpha) for alpha in cfg.alphas)
        elif name != MTsGaussianConfig.name:  # the variants without parameters
            variants.append(VARIANTS[name]())
        elif isinstance(cfg.b, int) and isinstance(cfg.c, float):
            variants.append(MTsGaussianConfig(cfg.b, cfg.c))
        else:
            for alpha in cfg.alphas:
                if cfg.b == "paper":
                    if alpha not in PAPER_BEST_B:
                        raise UsageError(
                            f"b='paper' only covers alpha in {sorted(PAPER_BEST_B)}; "
                            f"pass --b explicitly for alpha={alpha:g}"
                        )
                    b = PAPER_BEST_B[alpha]
                else:
                    b = cfg.b
                if cfg.c == "match":
                    c = match_c(alpha, cfg.horizon, b)
                elif cfg.c == "regret":
                    c = 5.0 * math.log(cfg.horizon) ** alpha
                else:
                    c = cfg.c
                variants.append(MTsGaussianConfig(b, c))
    return tuple(PolicyConfig(v, cfg.horizon) for v in variants)


@contextlib.contextmanager
def _library_rejections_are_usage_errors():
    """Settings the library rejects while the CLI builds from them are usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _summary_text(result: ExperimentResult) -> str:
    spec = result.spec
    lines = [
        f"instance means: {', '.join(format(m, 'g') for m in spec.instance.means)}",
        f"T={spec.horizon} runs={spec.n_runs} base_seed={spec.base_seed}",
        "",
        f"{'policy':<40} {'eta':>14} {'final regret':>14} {'std':>12}",
    ]
    for agg, cfg in zip(result.aggregates, spec.policies):
        eta = policy_gdp(cfg)
        eta_text = format(eta.eta, ".6f") if eta is not None else "-"
        lines.append(
            f"{agg.policy:<40} {eta_text:>14} {agg.mean_regret[-1]:>14.2f} "
            f"{agg.std_regret[-1]:>12.2f}"
        )
    return "\n".join(lines)


def _experiment(cfg: CliConfig) -> ExperimentSpec:
    """The experiment `cfg` describes, checked by the library, with cfg.out
    created: a rejected setting (exit 2) or an unusable directory (exit 3)
    fails before any work."""
    with _library_rejections_are_usage_errors():
        spec = ExperimentSpec(
            instance=BanditInstance(cfg.means),
            policies=expand_policies(cfg),
            horizon=cfg.horizon,
            n_runs=cfg.runs,
            base_seed=cfg.seed,
        )
    Path(cfg.out).mkdir(parents=True, exist_ok=True)
    return spec


def _cmd_run(cfg: CliConfig) -> int:
    result = run_experiment(_experiment(cfg), workers=cfg.workers)
    write_csv(result, cfg.out, cfg.eps_grid)
    summary = _summary_text(result)
    with _open_writer(Path(cfg.out) / "summary.txt") as handle:
        handle.write(summary + "\n")
    print(summary)
    return 0


def _render_reports(reports: list[McReport]) -> tuple[str, int]:
    lines = []
    for r in reports:
        comparison = "<=" if r.direction == "le" else ">="
        lines.append(
            f"{r.name:<44} estimate={r.estimate:<12.6g} {comparison} "
            f"bound={r.bound:<12.6g} se={r.mc_std_err:<10.3g} "
            f"{'PASS' if r.passed else 'FAIL'}"
        )
    failed = sum(not r.passed for r in reports)
    lines.append(f"{len(reports) - failed}/{len(reports)} checks passed")
    return "\n".join(lines), 0 if failed == 0 else 1


def _cmd_verify(cfg: CliConfig) -> int:
    reports = default_battery(cfg.trials, cfg.seed, cfg.checks)
    text, code = _render_reports(reports)
    print(text)
    return code


def _cmd_privacy(cfg: CliConfig) -> int:
    rows = write_privacy_csv(_experiment(cfg).policies, Path(cfg.out) / "privacy.csv", cfg.eps_grid)
    widths = [max([len(h), *(len(r[i]) for r in rows)]) for i, h in enumerate(PRIVACY_COLUMNS)]
    print("  ".join(h.ljust(w) for h, w in zip(PRIVACY_COLUMNS, widths)))
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad flags (2)
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _resolve(ns.command, _merge_items(ns))
        return {"run": _cmd_run, "verify": _cmd_verify, "privacy": _cmd_privacy}[ns.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
