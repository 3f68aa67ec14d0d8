"""Independent checks on dpbandits outputs.

Every expected value here is computed from the workload's inputs with the
standard library alone: instance means, round-robin sums, binomial sums and
`math.erfc`.  Nothing is read back from the program's own formulas or from
stored copies of earlier outputs.  Each check returns a list of failure
messages; an empty list means the output passed.
"""
from __future__ import annotations

import csv
import math
import re
import statistics

#: Monte-Carlo estimates must lie within Z standard errors of the exact value.
Z = 5.0
#: One-sided normal tail beyond Z; small counts are judged by an exact
#: binomial tail at this same level instead of a normal approximation.
TAIL = 0.5 * math.erfc(Z / math.sqrt(2.0))
#: Below this binomial variance the normal approximation is not trusted.
NORMAL_VARIANCE = 1000.0

# Inputs of the verification battery that its report names do not carry.
BOOST_MU = 0.95
INVERSE_MU1 = 0.95
INVERSE_GAP = 0.4
HOEFFDING_MU = 0.5
LOG_HORIZONS = (25, 10**3, 10**6)
LOG_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
#: boost 2x2x3, inverse-prob 4, Gaussian tails 6x2, log inequality 1, hoeffding 4
BATTERY_SIZE = 33


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def gaps(means) -> list[float]:
    best = max(means)
    return [best - m for m in means]


def init_rounds(label: str, n_arms: int) -> int:
    """Length of the forced round-robin a policy label implies: b+1 passes
    for the pre-pulled sampler, one pass for every other policy."""
    match = re.match(r"m-ts-gaussian\(b=(\d+);", label)
    return (int(match.group(1)) + 1 if match else 1) * n_arms


def _close(a: float, b: float, scale: float, rtol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(scale))


# ---------------------------------------------------------------------------
# run outputs: per_run.csv, aggregate.csv, privacy.csv


def trace_failures(points, gap, horizon: int, init: int) -> list[str]:
    """Checks on one (policy, run) regret trace, given as (checkpoint, regret)
    pairs in file order."""
    k = len(gap)
    checkpoints = [c for c, _ in points]
    if checkpoints != sorted(set(checkpoints)) or not checkpoints or checkpoints[-1] != horizon:
        return [f"checkpoints {checkpoints} are not increasing up to T={horizon}"]
    if k not in checkpoints:
        return [f"checkpoint K={k} is missing"]
    msgs = []
    # Inside the forced round-robin round t pulls arm (t-1) mod K, so the
    # regret is that pass's gap sum, accumulated in the same order.
    expected, t = 0.0, 0
    for c, regret in points:
        if c > init:
            break
        while t < c:
            expected += gap[t % k]
            t += 1
        if regret != expected:
            msgs.append(f"regret {regret!r} at round-robin checkpoint {c}, want {expected!r}")
    max_gap = max(gap)
    prev_c, prev_r = 0, 0.0
    for c, regret in points:
        step = regret - prev_r
        if step < 0.0:
            msgs.append(f"regret decreases from {prev_r!r} to {regret!r} at checkpoint {c}")
        elif step > (c - prev_c) * max_gap * (1.0 + 1e-12):
            msgs.append(f"regret grows by {step!r} over {c - prev_c} rounds at checkpoint {c}")
        prev_c, prev_r = c, regret
    uniform = horizon * math.fsum(gap) / k
    if points[-1][1] >= uniform:
        msgs.append(f"final regret {points[-1][1]!r} is not below uniform play {uniform!r}")
    return msgs


def aggregate_failures(traces, aggregate) -> dict[str, list[str]]:
    """aggregate.csv against mean and ddof=1 std of per_run.csv, per policy."""
    values: dict[tuple[str, int], list[float]] = {}
    for (label, _seed), points in sorted(traces.items(), key=lambda kv: kv[0][1]):
        for c, regret in points:
            values.setdefault((label, c), []).append(regret)
    msgs: dict[str, list[str]] = {}
    seen = set()
    for row in aggregate:
        key = (row["policy"], int(row["checkpoint"]))
        seen.add(key)
        runs = values.get(key)
        if runs is None:
            msgs.setdefault(key[0], []).append(f"aggregate row {key} has no per-run rows")
            continue
        mean = statistics.mean(runs)
        std = statistics.stdev(runs) if len(runs) > 1 else 0.0
        scale = max(abs(v) for v in runs)
        if int(row["n_runs"]) != len(runs):
            msgs.setdefault(key[0], []).append(f"n_runs {row['n_runs']} at {key}, want {len(runs)}")
        if not _close(float(row["mean_regret"]), mean, scale):
            msgs.setdefault(key[0], []).append(f"mean {row['mean_regret']} at {key}, want {mean!r}")
        if not _close(float(row["std_regret"]), std, scale):
            msgs.setdefault(key[0], []).append(f"std {row['std_regret']} at {key}, want {std!r}")
    for key in values.keys() - seen:
        msgs.setdefault(key[0], []).append(f"no aggregate row for {key}")
    return msgs


def gdp_delta(eta: float, epsilon: float) -> float:
    """delta(eps) of an eta-Gaussian guarantee,
    Phi(eta/2 - eps/eta) - e^eps Phi(-eta/2 - eps/eta)."""
    if eta == 0.0:
        return 0.0
    return (std_normal_cdf(0.5 * eta - epsilon / eta)
            - math.exp(epsilon) * std_normal_cdf(-0.5 * eta - epsilon / eta))


def privacy_failures(rows, rows_other_horizon) -> dict[str, list[str]]:
    """privacy.csv: delta from the closed form, in [0, 1], non-increasing in
    epsilon; and eta at alpha=1 equal to the table made at another horizon."""
    msgs: dict[str, list[str]] = {}
    by_label: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        label, eta = row["policy"], float(row["eta"])
        eps, delta = float(row["epsilon"]), float(row["delta"])
        want = gdp_delta(eta, eps)
        if not 0.0 <= delta <= 1.0:
            msgs.setdefault(label, []).append(f"delta {delta!r} at eps={eps:g} is outside [0, 1]")
        if abs(delta - want) > 1e-12 + 1e-9 * abs(want):
            msgs.setdefault(label, []).append(f"delta {delta!r} at eps={eps:g}, want {want!r}")
        by_label.setdefault(label, []).append((eps, delta))
    for label, points in by_label.items():
        deltas = [d for _, d in sorted(points)]
        if any(b > a for a, b in zip(deltas, deltas[1:])):
            msgs.setdefault(label, []).append(f"delta increases with epsilon: {deltas}")
    other = {(r["policy"], r["epsilon"]): float(r["eta"]) for r in rows_other_horizon
             if r["alpha"] and float(r["alpha"]) == 1.0}
    for row in rows:
        if not row["alpha"] or float(row["alpha"]) != 1.0:
            continue
        eta = float(row["eta"])
        eta_other = other.get((row["policy"], row["epsilon"]))
        if eta_other is None or not _close(eta, eta_other, eta):
            msgs.setdefault(row["policy"], []).append(
                f"eta {eta!r} at alpha=1 changes with T (other T: {eta_other!r})")
    return msgs


def run_failures(per_run, aggregate, privacy, privacy_other_horizon, means, horizon):
    """All run-output checks; failure messages keyed by (policy, seed)."""
    traces: dict[tuple[str, int], list[tuple[int, float]]] = {}
    for row in per_run:
        op = (row["policy"], int(row["seed"]))
        traces.setdefault(op, []).append((int(row["checkpoint"]), float(row["regret"])))
    gap = gaps(means)
    failures = {
        op: trace_failures(points, gap, horizon, init_rounds(op[0], len(gap)))
        for op, points in traces.items()
    }
    for by_label in (aggregate_failures(traces, aggregate),
                     privacy_failures(privacy, privacy_other_horizon)):
        for label, msgs in by_label.items():
            ops = [op for op in failures if op[0] == label] or [(label, -1)]
            for op in ops:
                failures.setdefault(op, []).extend(msgs)
    return failures


# ---------------------------------------------------------------------------
# traced replays


def replay_failures(program_trace, program_pulls, replay_trace, replay_pulls, gap,
                    horizon: int) -> list[str]:
    """A replay through the public round-loop API against run_single, and
    run_single's pull counts against its own trace."""
    msgs = []
    if tuple(program_trace) != tuple(replay_trace):
        msgs.append("replayed regret trace differs from run_single")
    if tuple(program_pulls) != tuple(replay_pulls):
        msgs.append(f"replayed pulls {tuple(replay_pulls)} differ from run_single {tuple(program_pulls)}")
    if sum(program_pulls) != horizon:
        msgs.append(f"pulls sum to {sum(program_pulls)}, want T={horizon}")
    regret = math.fsum(p * g for p, g in zip(program_pulls, gap))
    final = program_trace[-1]
    if abs(regret - final) > 1e-9 * max(abs(regret), 1e-300):
        msgs.append(f"sum of pulls x gaps {regret!r} != final regret {final!r}")
    return msgs


def budget_failures(phi: int, draw_mismatches: int, epochs) -> list[str]:
    """dp-ts-ucb epoch audit.

    `epochs` holds (arm, r, length, draws) per completed epoch: the epoch
    index r read from arm_state, the arm's pulls counted during it, and the
    fresh draws it made, phi minus the remaining budget read from arm_state.
    `draw_mismatches` counts rounds whose observed Gaussian draws differ
    from the number of arms that still had budget.
    """
    msgs = []
    if draw_mismatches:
        msgs.append(f"{draw_mismatches} rounds drew models for arms without budget, or skipped live arms")
    for arm, r, length, draws in epochs:
        if length != 1 << r:
            msgs.append(f"arm {arm} epoch {r} lasted {length} pulls, want {1 << r}")
        if not 0 <= draws <= phi:
            msgs.append(f"arm {arm} epoch {r} made {draws} fresh draws, budget {phi}")
    if not epochs:
        msgs.append("no epoch completed")
    return msgs


# ---------------------------------------------------------------------------
# verification reports


def _log_binom_pmf(n: int, k: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_pmf(n: int, k: int, p: float) -> float:
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    return math.exp(_log_binom_pmf(n, k, p))


def _binom_tail(n: int, p: float, k: int, step: int) -> float:
    """P(X >= k) for step=+1, P(X <= k) for step=-1, summed outward from k
    until the terms stop mattering."""
    total, j, mode = 0.0, k, n * p
    while 0 <= j <= n:
        term = binom_pmf(n, j, p)
        total += term
        past_mode = j > mode if step > 0 else j < mode
        if past_mode and term <= 1e-20 * total:
            break
        j += step
    return total


def frequency_agrees(count: int, trials: int, p: float) -> bool:
    """Whether `count` successes in `trials` fits Binomial(trials, p) at the
    Z-sigma level: |count - np| <= Z sd when the variance is large, else
    neither exact binomial tail beyond `count` is below the Z-sigma tail."""
    if p <= 0.0:
        return count == 0
    if p >= 1.0:
        return count == trials
    variance = trials * p * (1.0 - p)
    if variance >= NORMAL_VARIANCE:
        return abs(count - trials * p) <= Z * math.sqrt(variance)
    upper = _binom_tail(trials, p, count, +1)
    lower = _binom_tail(trials, p, count, -1)
    return min(upper, lower) >= TAIL


def mean_agrees(estimate: float, trials: int, mean: float, second_moment: float) -> bool:
    variance = max(second_moment - mean * mean, 0.0)
    return abs(estimate - mean) <= Z * math.sqrt(variance / trials) + 1e-12 * abs(mean)


def phi_budget(alpha: float, horizon: int) -> int:
    """ceil(sqrt(2 pi e) T^{(1-alpha)/2} ln(T)^{(3-alpha)/2}), the paper's
    per-epoch draw budget."""
    return math.ceil(math.sqrt(2.0 * math.pi * math.e) * horizon ** (0.5 * (1.0 - alpha))
                     * math.log(horizon) ** (0.5 * (3.0 - alpha)))


def exact_boost(alpha: float, horizon: int, s: int, mu: float = BOOST_MU) -> float:
    """P(max of phi Normal(mu_hat, ln^alpha(T)/s) models < mu), with mu_hat
    the mean of s Bernoulli(mu) rewards:
    sum_k Binom(k; s, mu) Phi((mu - k/s) / sigma)^phi."""
    phi = phi_budget(alpha, horizon)
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    return math.fsum(binom_pmf(s, k, mu) * std_normal_cdf((mu - k / s) / sigma) ** phi
                     for k in range(s + 1))


def exact_inverse_prob(alpha: float, horizon: int, s: int, shifted: bool,
                       mu1: float = INVERSE_MU1, gap: float = INVERSE_GAP) -> tuple[float, float]:
    """First and second moments of 1/Phi((mu_hat - target)/sigma) - 1."""
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    target = mu1 - 0.5 * gap if shifted else mu1
    first, second = [], []
    for k in range(s + 1):
        weight = binom_pmf(s, k, mu1)
        if weight == 0.0:
            continue
        value = 1.0 / std_normal_cdf((k / s - target) / sigma) - 1.0
        first.append(weight * value)
        second.append(weight * value * value)
    return math.fsum(first), math.fsum(second)


def exact_hoeffding(n: int, a: float, mu: float = HOEFFDING_MU) -> float:
    """P(|k/n - mu| >= a) under Binomial(n, mu), with the comparison made in
    the same floating-point arithmetic as the estimator."""
    return math.fsum(binom_pmf(n, k, mu) for k in range(n + 1) if abs(k / n - mu) >= a)


def log_margin() -> float:
    """max over the battery grid of ln^{1-alpha}(T) - (1-alpha) ln T - 1."""
    return max(math.exp((1.0 - a) * math.log(math.log(T))) - (1.0 - a) * math.log(T) - 1.0
               for T in LOG_HORIZONS for a in LOG_ALPHAS)


def battery_failures(reports) -> tuple[int, int]:
    """(attempted, failed) reports of one battery; a report the battery
    should have made but did not counts as failed."""
    failed = sum(bool(report_failures(r)) for r in reports)
    failed += max(BATTERY_SIZE - len(reports), 0)
    return BATTERY_SIZE, min(failed, BATTERY_SIZE)


_BOOST = re.compile(r"boost\(alpha=([^,]+),T=(\d+),s=(\d+)\)")
_INVERSE = re.compile(r"inverse-prob\(alpha=([^,]+),T=(\d+),s=(\d+),(shifted|plain)\)")
_HOEFFDING = re.compile(r"hoeffding\(n=(\d+),a=([^)]+)\)")
_TAIL = re.compile(r"gauss-tail-(lower|upper)\(z=([^)]+)\)")


def report_failures(report) -> list[str]:
    """One verification report (an McReport) against its exact value."""
    name, est, trials = report.name, report.estimate, report.trials
    msgs = [] if report.passed else [f"{name}: the program reports FAIL"]
    if m := _BOOST.fullmatch(name):
        p = exact_boost(float(m[1]), int(m[2]), int(m[3]))
        if not frequency_agrees(round(est * trials), trials, p):
            msgs.append(f"{name}: estimate {est!r} is off exact {p!r} by over {Z:g} SE")
    elif m := _INVERSE.fullmatch(name):
        mean, second = exact_inverse_prob(float(m[1]), int(m[2]), int(m[3]), m[4] == "shifted")
        if not mean_agrees(est, trials, mean, second):
            msgs.append(f"{name}: estimate {est!r} is off exact {mean!r} by over {Z:g} SE")
    elif m := _HOEFFDING.fullmatch(name):
        p = exact_hoeffding(int(m[1]), float(m[2]))
        if not frequency_agrees(round(est * trials), trials, p):
            msgs.append(f"{name}: estimate {est!r} is off exact {p!r} by over {Z:g} SE")
    elif m := _TAIL.fullmatch(name):
        tail = 0.5 * math.erfc(float(m[2]) / math.sqrt(2.0))
        if abs(est - tail) > 1e-14 * tail:
            msgs.append(f"{name}: tail {est!r} differs from erfc's {tail!r}")
    elif name == "log-inequality":
        margin = log_margin()
        if abs(est - margin) > 1e-12 or margin > 0.0:
            msgs.append(f"{name}: margin {est!r}, recomputed {margin!r}")
    else:
        msgs.append(f"unknown report {name!r}")
    return msgs
