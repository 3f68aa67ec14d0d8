import concurrent.futures
import math

import numpy as np
import pytest

from dpbandits import verify
from dpbandits.env import Purpose, RngStream
from dpbandits.policies import phi_budget
from dpbandits.privacy import std_normal_cdf, std_normal_quantile
from dpbandits.verify import (
    CHUNK,
    MIN_TRIALS,
    McReport,
    check_gaussian_tail_facts,
    default_battery,
    inverse_prob_threshold,
    log_inequality_margin,
    mc_hoeffding,
    mc_inverse_prob,
    mc_max_boost,
)


def _trials(seed: int) -> RngStream:
    return RngStream(seed, (Purpose.TRIAL,))


def test_min_trials_constant():
    assert MIN_TRIALS == 10**4


def test_reports_grant_a_three_sigma_allowance():
    good = mc_hoeffding(10, 0.3, 0.5, MIN_TRIALS, stream=_trials(0))
    assert isinstance(good, McReport)
    assert good.direction == "le"
    assert good.passed == (good.estimate <= good.bound + 3.0 * good.mc_std_err)


def test_mc_max_boost_validation():
    with pytest.raises(ValueError):
        mc_max_boost(0.0, 10**3, 1, 0.95, trials=100)  # too few trials
    with pytest.raises(ValueError):
        mc_max_boost(0.0, 20, 1, 0.95, trials=MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_max_boost(1.5, 10**3, 1, 0.95, trials=MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_max_boost(0.0, 10**3, 0, 0.95, trials=MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_max_boost(0.0, 10**3, 1, 1.0, trials=MIN_TRIALS)


def test_mc_max_boost_report_fields_and_determinism():
    a = mc_max_boost(1.0, 10**4, 4, 0.95, MIN_TRIALS, stream=_trials(7))
    b = mc_max_boost(1.0, 10**4, 4, 0.95, MIN_TRIALS, stream=_trials(7))
    assert a == b
    assert a.name == "boost(alpha=1,T=10000,s=4)"
    assert a.bound == 3.0 / 10**4
    assert a.trials == MIN_TRIALS
    assert a.passed


def test_closed_form_max_transform_reproduces_the_two_draw_mean():
    # E[max(Z1, Z2)] = 1/sqrt(pi); mirror the transform at phi = 2
    rng = RngStream(3).generator()
    n = 200_000
    u = 1.0 - rng.random(n)
    exceed = -np.expm1(np.log(u) / 2.0)
    top = -std_normal_quantile(exceed)
    target = 1.0 / math.sqrt(math.pi)
    assert abs(top.mean() - target) < 5.0 * top.std(ddof=1) / math.sqrt(n)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("s", [1, 4, 16])
def test_mc_max_boost_frequency_matches_the_exact_failure_probability(alpha, s):
    # mu_hat = k/s takes s+1 values, so the failure probability is exact:
    # P = sum_k Binom(k; s, mu) * Phi((mu - k/s) / sigma)^phi
    horizon, mu, trials = 21, 0.95, 200_000
    phi = phi_budget(alpha, horizon)
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    truth = sum(
        math.comb(s, k) * mu**k * (1.0 - mu) ** (s - k)
        * std_normal_cdf((mu - k / s) / sigma) ** phi
        for k in range(s + 1)
    )
    report = mc_max_boost(alpha, horizon, s, mu, trials, stream=_trials(11))
    se = math.sqrt(truth * (1.0 - truth) / trials)
    assert abs(report.estimate - truth) < 5.0 * se


def test_mc_max_boost_decides_every_trial_as_the_drawn_maximum_would():
    # twin stream: draw each trial's max through the closed-form transform
    # max = k/s - sigma * Phi^{-1}(1 - U^{1/phi}) and count max < mu
    alpha, horizon, s, mu, trials = 1.0, 21, 4, 0.95, 200_000
    phi = phi_budget(alpha, horizon)
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    rng = _trials(5).generator()
    k = rng.binomial(s, mu, size=trials)
    u = 1.0 - rng.random(trials)
    top = k / s - sigma * std_normal_quantile(-np.expm1(np.log(u) / phi))
    failures = int(np.count_nonzero(top < mu))
    report = mc_max_boost(alpha, horizon, s, mu, trials, stream=_trials(5))
    assert failures > 0
    assert failures / trials == report.estimate


def test_inverse_prob_threshold_value_and_validation():
    assert inverse_prob_threshold(0.0, 10**4, 0.4) == 1076
    with pytest.raises(ValueError):
        inverse_prob_threshold(0.0, 10**4, 1.0)
    with pytest.raises(ValueError):
        inverse_prob_threshold(0.0, 10**4, 0.0)
    with pytest.raises(ValueError):
        inverse_prob_threshold(0.0, 25, 0.3)  # T * gap^2 <= e


def test_mc_inverse_prob_validation():
    with pytest.raises(ValueError):
        mc_inverse_prob(0.0, 100, 1, 0.95, 0.4, trials=100, shifted=False)
    with pytest.raises(ValueError):
        mc_inverse_prob(0.0, 100, 0, 0.95, 0.4, trials=MIN_TRIALS, shifted=False)
    with pytest.raises(ValueError):
        mc_inverse_prob(0.0, 100, 1, 1.5, 0.4, trials=MIN_TRIALS, shifted=False)
    with pytest.raises(ValueError):
        mc_inverse_prob(0.0, 25, 1, 0.95, 0.3, trials=MIN_TRIALS, shifted=False)


def test_mc_inverse_prob_names_and_determinism():
    plain = mc_inverse_prob(0.0, 100, 2, 0.95, 0.4, MIN_TRIALS, shifted=False,
                            stream=_trials(1))
    again = mc_inverse_prob(0.0, 100, 2, 0.95, 0.4, MIN_TRIALS, shifted=False,
                            stream=_trials(1))
    assert plain == again
    assert plain.name == "inverse-prob(alpha=0,T=100,s=2,plain)"
    assert plain.bound == 12.34
    shifted = mc_inverse_prob(
        0.0, 10**4, 1076, 0.95, 0.4, MIN_TRIALS, shifted=True, stream=_trials(1)
    )
    assert shifted.name == "inverse-prob(alpha=0,T=10000,s=1076,shifted)"
    assert shifted.bound == 72.0 / (10**4 * 0.4 * 0.4)


def test_mc_inverse_prob_matches_the_exact_two_point_expectation():
    # s = 1, plain: mu_hat is Bernoulli(mu1), the expectation is in closed form
    mu1, trials = 0.95, 200_000
    e_low = 1.0 / std_normal_cdf(-mu1) - 1.0
    e_high = 1.0 / std_normal_cdf(1.0 - mu1) - 1.0
    truth = (1.0 - mu1) * e_low + mu1 * e_high
    report = mc_inverse_prob(0.0, 100, 1, mu1, 0.4, trials, shifted=False,
                             stream=_trials(2))
    assert abs(report.estimate - truth) < 5.0 * report.mc_std_err
    assert report.passed


@pytest.mark.parametrize(
    "horizon, s, shifted", [(100, 1, False), (100, 2, False), (100, 8, False), (10**4, 1076, True)]
)
def test_mc_inverse_prob_weighted_moments_match_the_per_trial_moments(horizon, s, shifted):
    mu1, gap, trials = 0.95, 0.4, 10**5
    rng = _trials(6).generator()
    mu_hat = rng.binomial(s, mu1, size=trials) / s
    target = mu1 - 0.5 * gap if shifted else mu1
    values = 1.0 / std_normal_cdf((mu_hat - target) / math.sqrt(1.0 / s)) - 1.0
    report = mc_inverse_prob(0.0, horizon, s, mu1, gap, trials, shifted=shifted,
                             stream=_trials(6))
    assert report.estimate == pytest.approx(values.mean(), rel=1e-12, abs=0.0)
    se = values.std(ddof=1) / math.sqrt(trials)
    assert report.mc_std_err == pytest.approx(se, rel=1e-12, abs=0.0)


def test_mc_inverse_prob_ignores_unseen_outcomes_whose_probability_underflows():
    # s = 1e4: Phi((0 - 0.95) / 0.01) underflows to 0, but no trial sees k = 0
    report = mc_inverse_prob(0.0, 10**4, 10**4, 0.95, 0.4, MIN_TRIALS, shifted=False,
                             stream=_trials(3))
    assert std_normal_cdf(-0.95 / 0.01) == 0.0
    assert math.isfinite(report.estimate) and math.isfinite(report.mc_std_err)
    assert report.passed


def test_analytic_clear_probability_matches_a_large_empirical_frequency():
    # ten million fresh models at one point: Phi is the frequency's limit
    mu_hat, sigma, target, n = 0.75, 0.5, 0.95, 10**7
    analytic = std_normal_cdf((mu_hat - target) / sigma)
    rng = RngStream(13).generator()
    empirical = np.mean(rng.normal(mu_hat, sigma, size=n) > target)
    se = math.sqrt(analytic * (1.0 - analytic) / n)
    assert abs(empirical - analytic) < 4.0 * se


def test_gaussian_tail_facts_hold_exactly_on_the_default_grid():
    reports = check_gaussian_tail_facts()
    assert len(reports) == 12
    assert all(r.passed for r in reports)
    assert all(r.trials == 0 and r.mc_std_err == 0.0 for r in reports)
    names = [r.name for r in reports]
    assert names[0] == "gauss-tail-lower(z=0.1)"
    assert names[1] == "gauss-tail-upper(z=0.1)"
    assert names[-1] == "gauss-tail-upper(z=5)"


def test_gaussian_tail_facts_report_the_true_tail_and_envelopes():
    (lower, upper) = check_gaussian_tail_facts(z_grid=(2.0,))
    tail = std_normal_cdf(-2.0)
    envelope = math.exp(-2.0)
    assert lower.estimate == tail and upper.estimate == tail
    assert lower.bound == 2.0 / 5.0 / math.sqrt(2.0 * math.pi) * envelope
    assert upper.bound == 0.5 * envelope
    assert lower.direction == "ge" and upper.direction == "le"
    assert lower.bound < tail < upper.bound


def test_gaussian_tail_facts_reject_nonpositive_points():
    with pytest.raises(ValueError):
        check_gaussian_tail_facts(z_grid=(1.0, 0.0))
    with pytest.raises(ValueError):
        check_gaussian_tail_facts(z_grid=(-2.0,))


def test_log_inequality_margin_is_zero_at_alpha_one_and_negative_below():
    assert log_inequality_margin(alphas=(1.0,)) == 0.0
    assert log_inequality_margin() <= 0.0
    # at alpha = 0 the ln T terms cancel exactly, leaving the -1 slack
    assert log_inequality_margin(horizons=(10**6,), alphas=(0.0,)) == -1.0
    assert log_inequality_margin(horizons=(10**6,), alphas=(0.5,)) < -4.0
    # brute recomputation of the worst point
    grid = [
        math.log(T) ** (1.0 - a) - ((1.0 - a) * math.log(T) + 1.0)
        for T in (25, 10**3, 10**6)
        for a in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert log_inequality_margin() == max(grid)


def test_log_inequality_rejects_tiny_horizons():
    with pytest.raises(ValueError):
        log_inequality_margin(horizons=(20,))


def test_mc_hoeffding_validation_and_fields():
    with pytest.raises(ValueError):
        mc_hoeffding(0, 0.1, 0.5, MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_hoeffding(10, 0.0, 0.5, MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_hoeffding(10, 0.1, 1.0, MIN_TRIALS)
    with pytest.raises(ValueError):
        mc_hoeffding(10, 0.1, 0.5, 999)
    report = mc_hoeffding(100, 0.2, 0.5, MIN_TRIALS, stream=_trials(4))
    assert report.name == "hoeffding(n=100,a=0.2)"
    assert report.bound == 2.0 * math.exp(-2.0 * 100 * 0.04)
    assert report.passed
    assert report == mc_hoeffding(100, 0.2, 0.5, MIN_TRIALS, stream=_trials(4))


def test_chunked_outcome_counts_equal_a_one_shot_draw():
    # trials is not a multiple of CHUNK, so the last chunk is a short one
    trials = 2 * CHUNK + 123
    rng = _trials(9).generator()
    counts = np.bincount(rng.binomial(10, 0.5, size=trials), minlength=11)
    # n = 10, a = 0.25, mu = 0.5: the event is k <= 2 or k >= 8
    hits = int(counts[:3].sum() + counts[8:].sum())
    report = mc_hoeffding(10, 0.25, 0.5, trials, stream=_trials(9))
    assert report.estimate == hits / trials

    s, mu1, target = 8, 0.95, 0.95
    rng = _trials(9).generator()
    counts = np.bincount(rng.binomial(s, mu1, size=trials), minlength=s + 1)
    seen = np.flatnonzero(counts)
    values = 1.0 / std_normal_cdf((seen / s - target) / math.sqrt(1.0 / s)) - 1.0
    estimate = float(counts[seen] @ values) / trials
    se = math.sqrt(float(counts[seen] @ (values - estimate) ** 2) / (trials - 1) / trials)
    report = mc_inverse_prob(0.0, 100, s, mu1, 0.4, trials, shifted=False, stream=_trials(9))
    assert (report.estimate, report.mc_std_err) == (estimate, se)


def test_mc_hoeffding_matches_the_exact_binomial_tail():
    # n = 10, a = 0.25, mu = 0.5: the event is |k - 5| >= 2.5, i.e. k <= 2 or
    # k >= 8, with exact probability 2 * (1 + 10 + 45) / 1024
    truth = 2.0 * (1 + 10 + 45) / 1024.0
    report = mc_hoeffding(10, 0.25, 0.5, 200_000, stream=_trials(8))
    se = math.sqrt(truth * (1.0 - truth) / 200_000)
    assert abs(report.estimate - truth) < 5.0 * se


def test_default_battery_layout():
    reports = default_battery(trials=MIN_TRIALS, seed=0)
    assert len(reports) == 33
    names = [r.name for r in reports]
    assert sum(n.startswith("boost(") for n in names) == 12
    assert sum(n.startswith("inverse-prob(") for n in names) == 4
    assert sum(n.startswith("gauss-tail-") for n in names) == 12
    assert names.count("log-inequality") == 1
    assert sum(n.startswith("hoeffding(") for n in names) == 4
    # boost first, hoeffding last, matching the battery's listing order
    assert names[0].startswith("boost(") and names[-1].startswith("hoeffding(")


def test_default_battery_passes_and_is_deterministic():
    first = default_battery(trials=MIN_TRIALS, seed=0)
    second = default_battery(trials=MIN_TRIALS, seed=0)
    assert first == second
    assert all(r.passed for r in first)
    reseeded = default_battery(trials=MIN_TRIALS, seed=1)
    changed = [a for a, b in zip(first, reseeded) if a.estimate != b.estimate]
    assert changed  # a new seed moves at least one Monte-Carlo estimate


def test_default_battery_check_selection():
    subset = default_battery(trials=MIN_TRIALS, checks=("gaussian-facts", "log-inequality"))
    assert len(subset) == 13
    assert all(r.trials == 0 for r in subset)  # closed-form checks draw nothing
    with pytest.raises(ValueError):
        default_battery(trials=MIN_TRIALS, checks=("boost", "nope"))


def test_default_battery_shifted_inverse_check_sits_at_the_threshold():
    (report,) = [
        r
        for r in default_battery(trials=MIN_TRIALS, checks=("inverse-prob",))
        if "shifted" in r.name
    ]
    assert f"s={inverse_prob_threshold(0.0, 10**4, 0.4)}" in report.name


def test_default_battery_reports_do_not_depend_on_the_worker_count():
    # 4 threads can outnumber the CPUs; 3 * CHUNK + 5 trials cross chunk ends
    trials = 3 * CHUNK + 5
    reports = [default_battery(trials, seed=3, workers=w) for w in (1, 2, 4)]
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0]) == 33


def test_default_battery_rejects_a_zero_worker_count():
    with pytest.raises(ValueError):
        default_battery(MIN_TRIALS, workers=0)


def test_a_battery_without_monte_carlo_checks_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("the closed-form checks started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    reports = default_battery(MIN_TRIALS, checks=("gaussian-facts", "log-inequality"), workers=4)
    assert reports == check_gaussian_tail_facts() + [reports[-1]]
    assert reports[-1].name == "log-inequality" and len(reports) == 13
    with pytest.raises(AssertionError, match="thread pool"):
        default_battery(MIN_TRIALS, checks=("hoeffding",), workers=2)


def test_the_thread_pool_is_never_larger_than_the_monte_carlo_task_list(monkeypatch):
    sizes = []

    class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    # four inverse-prob tasks; the 13 closed-form reports take no thread
    checks = ("inverse-prob", "gaussian-facts", "log-inequality")
    pooled = default_battery(MIN_TRIALS, checks=checks, workers=8)
    assert sizes == [4]
    assert pooled == default_battery(MIN_TRIALS, checks=checks, workers=1)
    assert sizes == [4]
    assert [r.trials > 0 for r in pooled] == [True] * 4 + [False] * 13
