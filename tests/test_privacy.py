import math

import mpmath
import numpy as np
import pytest

from dpbandits.policies import (
    BUDGET_SCALE,
    DpTsUcbConfig,
    MTsGaussianConfig,
    PolicyConfig,
    TsGaussianConfig,
    Ucb1Config,
)
from dpbandits.privacy import (
    DpPoint,
    GdpParam,
    compose,
    eta_dp_ts_ucb,
    eta_m_ts_gaussian,
    eta_ts_gaussian,
    gdp_to_dp,
    match_c,
    policy_gdp,
    std_normal_cdf,
    std_normal_logcdf,
    std_normal_quantile,
    tradeoff_G,
)

# reference values computed with mpmath at 60+ digits and rounded to float64
PHI_REFS = {1.0: 0.84134474606854294859, 1.96: 0.97500210485177956379, -3.0: 0.0013498980316300945267}
LOGPHI_REFS = {
    -1e100: -5.000000000000000159e+199,
    -1e3: -500007.82669481218431,
    -50.0: -1254.8313611394199013,
    -40.0: -804.60844201375378817,
    -37.5: -707.66898931750719107,
    -37.000001: -689.03062260387868588,
    -36.999999: -689.03054854990350059,
    -8.0: -35.013437159914549896,
    2.5: -0.006229025485860002381,
    8.0: -6.2209605742717860585e-16,
    37.0: -5.7255712225245768227e-300,
}
#: (eta, x) -> G_eta(x); x = 1e-17 rounds 1 - x to 1.0
TRADEOFF_REFS = {
    (1.0, 1e-17): 0.9999999999999665444455,
    (10.0, 1e-17): 0.06600705027626353457704,
    (38.0, 1e-300): 0.1703194324577618215003,
}
QUANTILE_REFS = {
    0.975: 1.9599639845400542355,
    1e-12: -7.0344838253011319298,
    1e-300: -37.047096299361199237,
    0.4999: -0.0002506628300880074923889,
    1e-310: -37.66306033194952373189,
}


def test_cdf_values_and_symmetry():
    assert std_normal_cdf(0.0) == 0.5
    for x, ref in PHI_REFS.items():
        assert std_normal_cdf(x) == pytest.approx(ref, rel=1e-15)
    xs = np.linspace(-6, 6, 25)
    assert np.allclose(std_normal_cdf(xs) + std_normal_cdf(-xs), 1.0, rtol=0, atol=1e-15)


def test_cdf_scalar_in_scalar_out():
    assert isinstance(std_normal_cdf(1.0), float)
    out = std_normal_cdf(np.array([0.0, 1.0]))
    assert out.shape == (2,)


@pytest.mark.parametrize("x, ref", sorted(LOGPHI_REFS.items()))
def test_logcdf_keeps_relative_precision_in_both_tails(x, ref):
    assert std_normal_logcdf(x) == pytest.approx(ref, rel=1e-12)


def test_logcdf_deep_tail_series_keeps_double_precision():
    # x < -37 runs the asymptotic series; 1e-15 relative sees each of its terms
    # down to 105 w^4 (4e-14 at the switch), where rel=1e-12 stops at 15 w^3
    xs = -np.concatenate([np.linspace(37.000001, 40.0, 61), np.geomspace(40.0, 1e150, 60)])
    with mpmath.workdps(40):
        refs = [float(mpmath.log(mpmath.ncdf(x))) for x in xs]
    assert std_normal_logcdf(xs) == pytest.approx(refs, rel=1e-15)


def test_logcdf_matches_log_of_cdf_in_the_bulk():
    # x <= 2 only: beyond that the naive log(Phi) side cancels, not ours
    xs = np.linspace(-5, 2, 41)
    assert np.allclose(std_normal_logcdf(xs), np.log(std_normal_cdf(xs)), rtol=1e-13, atol=0)


def test_logcdf_never_underflows_to_minus_inf_before_the_support_edge():
    xs = np.array([-100.0, -300.0])
    out = std_normal_logcdf(xs)
    assert np.isfinite(out).all()
    assert out[1] < out[0] < -4000


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.3, 1.0]))


def test_quantile_median_and_reference_points():
    assert std_normal_quantile(0.5) == 0.0
    for p, ref in QUANTILE_REFS.items():
        assert std_normal_quantile(p) == pytest.approx(ref, rel=1e-14)


def test_quantile_is_exactly_antisymmetric_where_the_complement_is_exact():
    for p in (0.25, 0.1, 0.975, 0.4):
        assert std_normal_quantile(1.0 - p) == -std_normal_quantile(p)


def test_quantile_cdf_roundtrip_within_forward_error():
    ps = np.array([1e-300, 1e-100, 1e-12, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.9999, 1 - 1e-12, 1 - 1e-16])
    x = std_normal_quantile(ps)
    back = std_normal_cdf(x)
    # the forward cdf itself carries ~eps * x^2 relative error in the tail
    tol = 8 * np.finfo(float).eps * (1 + x * x) * ps
    assert np.all(np.abs(back - ps) <= tol)


def test_quantile_vector_matches_scalar_calls():
    ps = np.array([0.01, 0.5, 0.99])
    vec = std_normal_quantile(ps)
    assert vec.tolist() == [std_normal_quantile(p) for p in ps]


def test_gdp_param_validation():
    assert GdpParam(0.0).eta == 0.0
    assert GdpParam(2).eta == 2.0
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            GdpParam(bad)


def test_dp_point_validation():
    DpPoint(0.0, 0.0)
    DpPoint(3.0, 1.0)
    with pytest.raises(ValueError):
        DpPoint(-1.0, 0.5)
    with pytest.raises(ValueError):
        DpPoint(math.inf, 0.5)
    with pytest.raises(ValueError):
        DpPoint(1.0, 1.0001)
    with pytest.raises(ValueError):
        DpPoint(1.0, -0.0001)


def test_tradeoff_curve_endpoints_are_exact():
    assert tradeoff_G(1.0, 0.0) == 1.0
    assert tradeoff_G(1.0, 1.0) == 0.0
    assert tradeoff_G(GdpParam(0.7), 0.0) == 1.0


def test_tradeoff_curve_domain_errors():
    with pytest.raises(ValueError):
        tradeoff_G(1.0, -0.01)
    with pytest.raises(ValueError):
        tradeoff_G(1.0, 1.01)
    with pytest.raises(ValueError):
        tradeoff_G(-1.0, 0.5)


def test_zero_noise_tradeoff_is_the_powerless_line():
    for x in (0.1, 0.25, 0.5, 0.9):
        assert tradeoff_G(0.0, x) == pytest.approx(1.0 - x, rel=1e-14)


def test_tradeoff_curve_formula_and_monotonicity():
    eta = 1.3
    xs = np.linspace(0.01, 0.99, 25)
    vals = [tradeoff_G(eta, x) for x in xs]
    direct = [std_normal_cdf(-std_normal_quantile(x) - eta) for x in xs]
    assert vals == direct
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # weaker guarantee (larger eta) lies strictly below
    assert all(tradeoff_G(2.0, x) < v for x, v in zip(xs, vals))


def test_tradeoff_curve_keeps_tiny_type_one_errors():
    for (eta, x), ref in TRADEOFF_REFS.items():
        assert tradeoff_G(eta, x) == pytest.approx(ref, rel=1e-13)
    assert tradeoff_G(1.0, 1e-300) == 1.0


def test_compose_is_root_sum_square_and_permutation_invariant():
    assert compose([3.0, 4.0]).eta == 5.0
    assert compose([]).eta == 0.0
    etas = [0.1, 2.7, 1e-8, 300.0, 0.33]
    forward = compose(etas).eta
    assert compose(etas[::-1]).eta == forward
    assert compose([GdpParam(e) for e in etas]).eta == forward
    per_round = compose([0.5] * 400)
    assert per_round.eta == pytest.approx(10.0, rel=1e-15)


def test_gdp_to_dp_reference_points():
    assert gdp_to_dp(1.0, 0.0).delta == pytest.approx(0.3829249225480261, rel=1e-12)
    assert gdp_to_dp(1.0, 1.0).delta == pytest.approx(0.1269367375066439, rel=1e-12)
    assert gdp_to_dp(GdpParam(1.0), 0.0).delta == gdp_to_dp(1.0, 0.0).delta


@pytest.mark.parametrize("epsilon", [1e20, 1e100, 1e300])
def test_gdp_to_dp_at_a_huge_epsilon_is_a_positive_zero(epsilon):
    delta = gdp_to_dp(eta_dp_ts_ucb(1.0, 1000), epsilon).delta
    assert delta == 0.0
    assert math.copysign(1.0, delta) == 1.0  # not -0.0, which the CSV writes as "-0"


def test_gdp_to_dp_zero_noise_is_perfectly_private():
    point = gdp_to_dp(0.0, 2.0)
    assert (point.epsilon, point.delta) == (2.0, 0.0)


def test_gdp_to_dp_delta_is_monotone_and_bounded():
    grid = [0.0, 0.5, 1.0, 2.0, 5.0, 20.0]
    for eta in (0.25, 1.0, 8.0, 1e6):
        deltas = [gdp_to_dp(eta, eps).delta for eps in grid]
        assert all(0.0 <= d <= 1.0 for d in deltas)
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
    # delta grows with eta at fixed epsilon
    by_eta = [gdp_to_dp(eta, 1.0).delta for eta in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(by_eta, by_eta[1:]))


def test_gdp_to_dp_survives_extreme_arguments():
    assert gdp_to_dp(1e6, 0.0).delta == 1.0  # clamp against sub-ulp spill
    assert gdp_to_dp(0.1, 700.0).delta == 0.0  # e^eps overflow stays in log space
    tiny = gdp_to_dp(0.1, 3.0).delta
    assert 0.0 < tiny < 1e-100  # ~7.3e-200, kept positive by the expm1 path


def test_gdp_to_dp_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        gdp_to_dp(1.0, -0.5)
    with pytest.raises(ValueError):
        gdp_to_dp(1.0, math.inf)


def test_budgeted_policy_noise_level_is_horizon_free_at_alpha_one():
    expected = math.sqrt(2.0 * BUDGET_SCALE)
    for horizon in (21, 1000, 10**5, 10**6):
        assert eta_dp_ts_ucb(1.0, horizon).eta == expected
    assert expected == pytest.approx(2.874971775208408, rel=1e-15)


def test_budgeted_policy_noise_level_reference_points():
    assert eta_dp_ts_ucb(0.5, 10**6).eta == pytest.approx(43.278399103193046, rel=1e-15)
    assert eta_dp_ts_ucb(0.0, 10**5).eta == pytest.approx(319.53825205291326, rel=1e-15)
    assert eta_dp_ts_ucb(0.5, 10**5).eta == pytest.approx(30.309461488973305, rel=1e-15)
    with pytest.raises(ValueError):
        eta_dp_ts_ucb(0.5, 20)
    with pytest.raises(ValueError):
        eta_dp_ts_ucb(1.1, 1000)


def test_baseline_noise_levels():
    assert eta_ts_gaussian(200).eta == math.sqrt(100.0)
    assert eta_ts_gaussian(1).eta == math.sqrt(0.5)
    with pytest.raises(ValueError):
        eta_ts_gaussian(0)
    assert eta_m_ts_gaussian(1000, 4, 2.0).eta == math.sqrt(100.0)
    with pytest.raises(ValueError):
        eta_m_ts_gaussian(1000, -1, 2.0)
    with pytest.raises(ValueError):
        eta_m_ts_gaussian(1000, 0, 0.0)


def test_match_c_reference_points():
    assert match_c(0.0, 10**6, 1) == pytest.approx(1.1780193520062376, rel=1e-15)
    assert match_c(1.0, 10**6, 2000) == pytest.approx(60.46244990483342, rel=1e-15)
    with pytest.raises(ValueError):
        match_c(0.5, 20, 0)
    with pytest.raises(ValueError):
        match_c(0.5, 1000, -2)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("horizon", [21, 1000, 10**5, 10**6])
@pytest.mark.parametrize("b", [0, 1, 500, 2000])
def test_matched_variance_equalizes_the_two_guarantees(alpha, horizon, b):
    c = match_c(alpha, horizon, b)
    matched = eta_m_ts_gaussian(horizon, b, c).eta
    target = eta_dp_ts_ucb(alpha, horizon).eta
    # radical-free algebra lands within one ulp, not bit-exact
    assert matched == pytest.approx(target, rel=5e-16)


def test_policy_gdp_dispatch():
    T = 10**5
    dp = policy_gdp(PolicyConfig(DpTsUcbConfig(0.5), T))
    assert dp.eta == eta_dp_ts_ucb(0.5, T).eta
    ts = policy_gdp(PolicyConfig(TsGaussianConfig(), T))
    assert ts.eta == eta_ts_gaussian(T).eta
    mts = policy_gdp(PolicyConfig(MTsGaussianConfig(3, 2.0), T))
    assert mts.eta == eta_m_ts_gaussian(T, 3, 2.0).eta
    assert policy_gdp(PolicyConfig(Ucb1Config(), T)) is None
