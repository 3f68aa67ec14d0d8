import math
import threading

import numpy as np
import pytest

from dpbandits import verify
from dpbandits.env import Purpose, RngStream
from dpbandits.policies import phi_budget
from dpbandits.privacy import std_normal_cdf, std_normal_quantile
from dpbandits.verify import (
    MAX_TRIALS,
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


def _twin_counts(rng: np.random.Generator, n: int, p: float, trials: int) -> np.ndarray:
    # the checks' draw order: one multinomial over the outcomes 0..n
    return rng.multinomial(trials, verify._binomial_pmf(n, p))


def test_min_trials_constant():
    assert MIN_TRIALS == 10**4


def test_trials_beyond_the_cap_are_rejected():
    assert MAX_TRIALS == 10**12
    assert mc_hoeffding(10, 0.3, 0.5, MAX_TRIALS, stream=_trials(0)).trials == MAX_TRIALS
    with pytest.raises(ValueError, match="trials must lie in"):
        mc_hoeffding(10, 0.3, 0.5, MAX_TRIALS + 1)
    with pytest.raises(ValueError, match="trials must lie in"):
        default_battery(MAX_TRIALS + 1, checks=("boost",))


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
    alpha, horizon, s, mu, trials = 1.0, 21, 4, 0.95, 200_000
    phi = phi_budget(alpha, horizon)
    sigma = math.sqrt(math.log(horizon) ** alpha / s)
    report = mc_max_boost(alpha, horizon, s, mu, trials, stream=_trials(5))
    # twin stream: the outcome counts, then the failures among each count
    rng = _trials(5).generator()
    counts = _twin_counts(rng, s, mu, trials)
    below = np.array([std_normal_cdf((mu - k / s) / sigma) ** phi for k in range(s + 1)])
    failures = int(rng.binomial(counts, below).sum())
    assert failures > 0
    assert failures / trials == report.estimate
    # each trial's max through the closed-form transform
    # max = k/s - sigma * Phi^{-1}(1 - U^{1/phi}), on its own stream
    rng = _trials(6).generator()
    k = np.repeat(np.arange(s + 1), _twin_counts(rng, s, mu, trials))
    u = 1.0 - rng.random(trials)
    top = k / s - sigma * std_normal_quantile(-np.expm1(np.log(u) / phi))
    drawn = np.count_nonzero(top < mu) / trials
    se = math.sqrt(drawn * (1.0 - drawn) / trials)
    assert abs(report.estimate - drawn) < 5.0 * math.hypot(se, report.mc_std_err)


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
    counts = _twin_counts(_trials(6).generator(), s, mu1, trials)
    mu_hat = np.repeat(np.arange(s + 1), counts) / s
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


def test_outcome_counts_equal_a_one_shot_multinomial_draw():
    trials = 10**6 + 123
    counts = _twin_counts(_trials(9).generator(), 10, 0.5, trials)
    assert counts.sum() == trials
    # n = 10, a = 0.25, mu = 0.5: the event is k <= 2 or k >= 8
    hits = int(counts[:3].sum() + counts[8:].sum())
    report = mc_hoeffding(10, 0.25, 0.5, trials, stream=_trials(9))
    assert report.estimate == hits / trials

    s, mu1, target = 8, 0.95, 0.95
    counts = _twin_counts(_trials(9).generator(), s, mu1, trials)
    seen = np.flatnonzero(counts)
    values = 1.0 / std_normal_cdf((seen / s - target) / math.sqrt(1.0 / s)) - 1.0
    estimate = float(counts[seen] @ values) / trials
    se = math.sqrt(float(counts[seen] @ (values - estimate) ** 2) / (trials - 1) / trials)
    report = mc_inverse_prob(0.0, 100, s, mu1, 0.4, trials, shifted=False, stream=_trials(9))
    assert (report.estimate, report.mc_std_err) == (estimate, se)


def _exact_pmf(n: int, p: float) -> np.ndarray:
    # p = a / d exactly, and int / int rounds correctly, so each term is the
    # float nearest comb(n, k) p^k (1-p)^(n-k); comb(1076, 538) overflows a float
    a, d = p.as_integer_ratio()
    return np.array([math.comb(n, k) * a**k * (d - a) ** (n - k) / d**n for k in range(n + 1)])


@pytest.mark.parametrize("n", [1, 4, 16, 100, 1076])
@pytest.mark.parametrize("p", [0.95, 0.5])
def test_binomial_pmf_matches_math_comb(n, p):
    exact = _exact_pmf(n, p)
    pmf = verify._binomial_pmf(n, p)
    normal = exact >= np.finfo(float).tiny
    assert np.all(np.abs(pmf[normal] - exact[normal]) <= 1e-12 * exact[normal])
    assert np.all(pmf[~normal] < np.finfo(float).tiny)


@pytest.mark.parametrize("n, p", [(16, 0.95), (100, 0.5), (1076, 0.95)])
def test_outcome_counts_over_many_substreams_match_the_binomial_law(n, p):
    trials, streams = 10**6, 200
    root = _trials(21)
    total = sum(verify._outcome_counts(root.child(i).generator(), n, p, trials)
                for i in range(streams))
    draws = streams * trials
    pmf = _exact_pmf(n, p)
    # each count is Binomial(draws, pmf[k]); the + 1 lets an outcome that
    # expects far less than one draw come up once
    sd = np.sqrt(draws * pmf * (1.0 - pmf))
    assert np.all(np.abs(total - draws * pmf) <= 5.0 * sd + 1.0)
    assert total.sum() == draws


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


def test_default_battery_passes_at_a_trillion_trials():
    reports = default_battery(10**12, seed=0)
    assert len(reports) == 33 and all(r.passed for r in reports)
    # every Monte-Carlo report ran all its trials; the closed-form ones draw none
    closed_form = check_gaussian_tail_facts() + [reports[28]]
    assert reports[16:29] == closed_form and reports[28].name == "log-inequality"
    assert [r.trials for r in reports[:16] + reports[29:]] == [10**12] * 20


@pytest.fixture
def no_thread(monkeypatch):
    def start(self):
        raise AssertionError("the battery started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)


def test_a_battery_without_monte_carlo_checks_starts_no_thread(no_thread):
    reports = default_battery(MIN_TRIALS, checks=("gaussian-facts", "log-inequality"))
    assert reports == check_gaussian_tail_facts() + [reports[-1]]
    assert reports[-1].name == "log-inequality" and len(reports) == 13


def test_default_battery_starts_no_thread(no_thread):
    reports = default_battery(MIN_TRIALS, seed=3)
    assert len(reports) == 33 and all(r.passed for r in reports)
