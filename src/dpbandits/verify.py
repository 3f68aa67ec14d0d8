"""Monte-Carlo and closed-form verifiers for the concentration facts the
policies lean on: the max-boost guarantee behind budget reuse, the
inverse-probability moments that control optimism, Gaussian tail envelopes,
a logarithm inequality, and a Hoeffding sanity check.

Every verifier is deterministic given its stream and returns an McReport; a
check passes when its estimate falls on the required side of the bound with a
3 standard-error Monte-Carlo allowance (exact checks carry zero std error).
Each Monte-Carlo estimate depends on a trial only through its Binomial
outcome k, so a check draws how many trials gave each k in one multinomial
draw, at a cost set by the number of outcomes rather than of trials.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .env import Purpose, RngStream
from .policies import phi_budget
from .privacy import _check_alpha, _check_horizon, std_normal_cdf, std_normal_logcdf

__all__ = [
    "MAX_TRIALS",
    "MIN_TRIALS",
    "McReport",
    "check_gaussian_tail_facts",
    "default_battery",
    "inverse_prob_threshold",
    "log_inequality_margin",
    "mc_hoeffding",
    "mc_inverse_prob",
    "mc_max_boost",
]

MIN_TRIALS = 10**4
#: numpy's multinomial and binomial counts drift off their law near 1e15
#: trials and above; at 1e12 they hold
MAX_TRIALS = 10**12

_TRIAL_STREAM = RngStream(0, (Purpose.TRIAL,))

BATTERY_CHECKS = ("boost", "inverse-prob", "gaussian-facts", "log-inequality", "hoeffding")


@dataclass(frozen=True)
class McReport:
    """Outcome of one verification check.

    direction says which side of `bound` the estimate must fall on ("le" or
    "ge"); `passed` already includes the 3 * mc_std_err allowance.
    """

    name: str
    estimate: float
    trials: int
    mc_std_err: float
    bound: float
    direction: str
    passed: bool


def _report(name: str, estimate: float, trials: int, se: float, bound: float,
            direction: str = "le") -> McReport:
    passed = estimate <= bound + 3.0 * se if direction == "le" else estimate >= bound - 3.0 * se
    return McReport(name, float(estimate), int(trials), float(se), float(bound),
                    direction, bool(passed))


def _check_trials(trials: int) -> int:
    if not MIN_TRIALS <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in [{MIN_TRIALS}, {MAX_TRIALS}], got {trials}")
    return int(trials)


def _check_gap(horizon: int, gap: float) -> None:
    if not 0.0 < gap < 1.0:
        raise ValueError(f"gap must lie in (0, 1), got {gap}")
    if horizon * gap * gap <= math.e:
        raise ValueError(f"need T * gap^2 > e, got {horizon * gap * gap}")


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) probabilities of 0..n, built outward from the mode by
    the ratio of neighbouring terms, so nothing overflows; terms below the
    float range come out as 0."""
    mode = min(int((n + 1) * p), n)
    odds = p / (1.0 - p)
    k = np.arange(n + 1, dtype=float)
    up = (n - k[mode:n]) / (k[mode:n] + 1.0) * odds  # pmf[k+1] / pmf[k]
    down = k[1:mode + 1] / (n - k[1:mode + 1] + 1.0) / odds  # pmf[k-1] / pmf[k]
    pmf = np.concatenate((np.cumprod(down[::-1])[::-1], [1.0], np.cumprod(up)))
    return pmf / pmf.sum()


def _outcome_counts(rng: np.random.Generator, n: int, p: float, trials: int) -> np.ndarray:
    """How many of `trials` Binomial(n, p) draws gave each outcome 0..n: one
    multinomial draw, which has exactly the law of counting the draws."""
    return rng.multinomial(trials, _binomial_pmf(n, p))


def mc_max_boost(alpha: float, horizon: int, s: int, mu: float, trials: int,
                 stream: RngStream = _TRIAL_STREAM) -> McReport:
    """Failure frequency of {max of phi fresh Gaussian models < mu}.

    Each trial draws mu_hat = k/s, k ~ Binomial(s, mu), and stands for the
    maximum of phi_budget(alpha, T) models from Normal(mu_hat, ln(T)^alpha / s):
    in law that max is mu_hat + sigma * Phi^{-1}(U^{1/phi}) for a uniform U,
    which is increasing in U.  So given k the trial fails, max < mu, with
    probability exactly Phi((mu - k/s) / sigma)^phi, computed once per
    outcome k in {0..s} in log space (phi reaches ~2e5 on the default grid).
    The check draws how many trials gave each k, then how many of those
    failed, one Binomial(count, probability) per k: the failure count has
    the law of deciding every trial.  Bound: 3/T.
    """
    alpha = _check_alpha(alpha)
    horizon = _check_horizon(horizon)
    trials = _check_trials(trials)
    if s < 1 or s != int(s):
        raise ValueError(f"s must be a positive integer, got {s}")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    rng = stream.generator()
    phi = phi_budget(alpha, horizon)
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    counts = _outcome_counts(rng, int(s), mu, trials)
    below = np.exp(phi * std_normal_logcdf((mu - np.arange(s + 1) / s) / sigma))
    failures = int(rng.binomial(counts, below).sum())
    estimate = failures / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    name = f"boost(alpha={alpha:g},T={horizon},s={s})"
    return _report(name, estimate, trials, se, 3.0 / horizon)


def inverse_prob_threshold(alpha: float, horizon: int, gap: float) -> int:
    """Observation count after which the shifted inverse-probability moment
    obeys the 72/(T gap^2) bound:
    ceil(4 (1+sqrt 2)^2 ln(T gap^2) ln(T)^alpha / gap^2)."""
    alpha = _check_alpha(alpha)
    horizon = _check_horizon(horizon)
    _check_gap(horizon, gap)
    return math.ceil(
        4.0 * (1.0 + math.sqrt(2.0)) ** 2
        * math.log(horizon * gap * gap)
        * math.log(horizon) ** alpha
        / gap ** 2
    )


def mc_inverse_prob(alpha: float, horizon: int, s: int, mu1: float, gap: float,
                    trials: int, shifted: bool,
                    stream: RngStream = _TRIAL_STREAM) -> McReport:
    """Estimates E[1/P - 1] where P is the analytic chance that one fresh
    Gaussian model clears the target.

    mu_hat is the mean of s Bernoulli(mu1) rewards and
    P = Phi((mu_hat - target) / sigma) with sigma = sqrt(ln(T)^alpha / s); P
    is never estimated empirically, and nothing is truncated.  1/P - 1 is
    evaluated once per binomial outcome that some trial observed, and the
    sample mean and standard error are weighted by how many trials observed
    it.  The target is
    mu1 itself (shifted=False, bound 12.34, any s) or mu1 - gap/2
    (shifted=True, bound 72/(T gap^2), valid from inverse_prob_threshold on).
    Requires T * gap^2 > e.
    """
    alpha = _check_alpha(alpha)
    horizon = _check_horizon(horizon)
    trials = _check_trials(trials)
    if s < 1 or s != int(s):
        raise ValueError(f"s must be a positive integer, got {s}")
    if not 0.0 < mu1 < 1.0:
        raise ValueError(f"mu1 must lie in (0, 1), got {mu1}")
    _check_gap(horizon, gap)
    rng = stream.generator()
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    counts = _outcome_counts(rng, int(s), mu1, trials)
    target = mu1 - 0.5 * gap if shifted else mu1
    # unseen outcomes are skipped: their Phi may underflow, and 0 * inf is NaN
    seen = np.flatnonzero(counts)
    weights = counts[seen]
    values = 1.0 / std_normal_cdf((seen / s - target) / sigma) - 1.0
    estimate = float(weights @ values) / trials
    se = math.sqrt(float(weights @ (values - estimate) ** 2) / (trials - 1) / trials)
    bound = 72.0 / (horizon * gap * gap) if shifted else 12.34
    name = (
        f"inverse-prob(alpha={alpha:g},T={horizon},s={s},"
        f"{'shifted' if shifted else 'plain'})"
    )
    return _report(name, estimate, trials, se, bound)


def check_gaussian_tail_facts(z_grid=(0.1, 0.5, 1.0, 2.0, 3.0, 5.0)) -> list[McReport]:
    """Exact envelope checks on the upper tail 1 - Phi(z) for z > 0:

        (1/sqrt(2 pi)) * z/(z^2+1) * e^{-z^2/2}  <=  tail  <=  (1/2) e^{-z^2/2}
    """
    reports = []
    for z in z_grid:
        z = float(z)
        if z <= 0.0:
            raise ValueError(f"tail points must be positive, got {z}")
        tail = std_normal_cdf(-z)  # == 1 - Phi(z) without cancellation
        envelope = math.exp(-0.5 * z * z)
        lower = z / (z * z + 1.0) / math.sqrt(2.0 * math.pi) * envelope
        upper = 0.5 * envelope
        reports.append(_report(f"gauss-tail-lower(z={z:g})", tail, 0, 0.0, lower, "ge"))
        reports.append(_report(f"gauss-tail-upper(z={z:g})", tail, 0, 0.0, upper, "le"))
    return reports


def log_inequality_margin(horizons=(25, 10**3, 10**6),
                          alphas=(0.0, 0.25, 0.5, 0.75, 1.0)) -> float:
    """Worst value of ln^{1-alpha}(T) - ((1-alpha) ln T + 1) over the grid;
    the inequality holds iff this is <= 0 (equality at alpha = 1)."""
    worst = -math.inf
    for T, alpha in itertools.product(horizons, alphas):
        alpha = _check_alpha(alpha)
        T = _check_horizon(T)  # needs ln T > 3
        ln = math.log(T)
        worst = max(worst, ln ** (1.0 - alpha) - ((1.0 - alpha) * ln + 1.0))
    return worst


def mc_hoeffding(n: int, a: float, mu: float, trials: int,
                 stream: RngStream = _TRIAL_STREAM) -> McReport:
    """Frequency of |mean of n Bernoulli(mu) - mu| >= a against the two-sided
    Hoeffding bound 2 exp(-2 n a^2)."""
    trials = _check_trials(trials)
    if n < 1 or n != int(n):
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0, 1), got {a}")
    if not 0.0 < mu < 1.0:
        raise ValueError(f"mu must lie in (0, 1), got {mu}")
    rng = stream.generator()
    counts = _outcome_counts(rng, int(n), mu, trials)
    hit = np.abs(np.arange(n + 1) / n - mu) >= a
    estimate = int(counts[hit].sum()) / trials
    se = math.sqrt(estimate * (1.0 - estimate) / trials)
    bound = 2.0 * math.exp(-2.0 * n * a * a)
    return _report(f"hoeffding(n={n},a={a:g})", estimate, trials, se, bound)


def default_battery(trials: int = 10**5, seed: int = 0, checks=BATTERY_CHECKS) -> list[McReport]:
    """The standard verification battery, one deterministic substream per
    Monte-Carlo check, in listing order.  `checks` selects a subset by name;
    the closed-form checks consume no randomness."""
    checks = tuple(checks)
    unknown = [c for c in checks if c not in BATTERY_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid: {list(BATTERY_CHECKS)}")
    root = RngStream(seed, (Purpose.TRIAL,))
    reports = []
    if "boost" in checks:
        grid = itertools.product((0.0, 1.0), (10**3, 10**4), (1, 4, 16))
        for i, (alpha, horizon, s) in enumerate(grid):
            reports.append(mc_max_boost(alpha, horizon, s, 0.95, trials, stream=root.child(0, i)))
    if "inverse-prob" in checks:
        for i, s in enumerate((1, 2, 8)):
            reports.append(mc_inverse_prob(0.0, 100, s, 0.95, 0.4, trials, shifted=False,
                                           stream=root.child(1, i)))
        s_star = inverse_prob_threshold(0.0, 10**4, 0.4)
        reports.append(mc_inverse_prob(0.0, 10**4, s_star, 0.95, 0.4, trials, shifted=True,
                                       stream=root.child(1, 3)))
    if "gaussian-facts" in checks:
        reports.extend(check_gaussian_tail_facts())
    if "log-inequality" in checks:
        reports.append(_report("log-inequality", log_inequality_margin(), 0, 0.0, 0.0, "le"))
    if "hoeffding" in checks:
        grid = ((10, 0.1), (10, 0.3), (100, 0.1), (100, 0.2))
        for i, (n, a) in enumerate(grid):
            reports.append(mc_hoeffding(n, a, 0.5, trials, stream=root.child(2, i)))
    return reports
