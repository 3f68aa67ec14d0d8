"""Gaussian trade-off privacy accounting.

Standard-normal primitives on the standard library (cdf and log-cdf through
`math.erfc`, the quantile through `statistics.NormalDist.inv_cdf`), the
trade-off curve G_eta, composition, the conversion from a Gaussian guarantee
to classical (epsilon, delta) points, the noise levels implied by each
policy, and the variance scale that equalizes two policies' guarantees.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .policies import PolicyConfig

__all__ = [
    "BUDGET_SCALE",
    "DpPoint",
    "GdpParam",
    "compose",
    "eta_dp_ts_ucb",
    "eta_m_ts_gaussian",
    "eta_ts_gaussian",
    "gdp_to_dp",
    "match_c",
    "policy_gdp",
    "std_normal_cdf",
    "std_normal_logcdf",
    "std_normal_quantile",
    "tradeoff_G",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_erfc = np.vectorize(math.erfc, otypes=[np.float64])
_inv_cdf = np.vectorize(NormalDist().inv_cdf, otypes=[np.float64])

#: Multiplier in the per-epoch sampling budget, sqrt(2 pi e), and the base of
#: the matched noise-level formulas below.
BUDGET_SCALE = math.sqrt(2.0 * math.pi * math.e)

#: Smallest usable horizon: ln(T) must exceed 3 for the budget/noise formulas.
MIN_HORIZON = 21


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def _check_horizon(horizon: int, minimum: int = MIN_HORIZON) -> int:
    if horizon != int(horizon) or int(horizon) < minimum:
        raise ValueError(f"horizon must be an integer >= {minimum}, got {horizon}")
    return int(horizon)


def _check_b(b: int) -> None:
    if b != int(b) or b < 0:
        raise ValueError(f"b must be a non-negative integer, got {b}")


def _check_c(c: float) -> None:
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"c must be positive and finite, got {c}")


# ---------------------------------------------------------------------------
# standard-normal primitives


def std_normal_cdf(x):
    """Phi(x) through the complementary error function; scalar or ndarray."""
    arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * _erfc(-arr / _SQRT2)
    return float(out) if arr.ndim == 0 else out


def std_normal_logcdf(x):
    """log Phi(x), accurate far into both tails.

    x > 0 goes through log1p(-Phi(-x)), where Phi(-x) carries full relative
    precision, so even results around -1e-300 are faithful.  The deep lower
    tail x < -37 uses the asymptotic series, which never underflows:

        log Phi(x) = -x^2/2 - log(-x sqrt(2 pi)) + log(1 - w + 3w^2 - 15w^3
                     + 105w^4 - 945w^5 + 10395w^6),  w = 1/x^2,

    whose first omitted term, 135135 w^7, is below 2e-17 there.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.empty_like(arr)
    hi = arr > 0.0
    deep = arr < -37.0
    mid = ~(hi | deep)
    if hi.any():
        out[hi] = np.log1p(-0.5 * _erfc(arr[hi] / _SQRT2))
    if mid.any():
        out[mid] = np.log(0.5 * _erfc(-arr[mid] / _SQRT2))
    if deep.any():
        t = arr[deep]
        w = (1.0 / t) ** 2
        series = w * (-1.0 + w * (3.0 + w * (-15.0 + w * (105.0 + w * (-945.0 + w * 10395.0)))))
        with np.errstate(over="ignore"):  # t^2 / 2 overflows to inf below t ~ -1.9e154
            out[deep] = np.log1p(series) - np.log(-t) - _LOG_SQRT_2PI - t * (0.5 * t)
    return float(out[0]) if np.asarray(x).ndim == 0 else out


def std_normal_quantile(p):
    """Phi^{-1}(p) for 0 < p < 1; scalar or ndarray.

    This is `statistics.NormalDist.inv_cdf`, Wichura's algorithm AS241,
    within a few ulps of the exact quantile across the whole open interval,
    deep lower tail included.
    """
    arr = np.asarray(p, dtype=np.float64)
    if not ((arr > 0.0) & (arr < 1.0)).all():  # NaN fails both comparisons
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    out = _inv_cdf(arr)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gaussian guarantees


@dataclass(frozen=True)
class GdpParam:
    """A Gaussian guarantee's noise level; eta = 0 is perfect privacy and
    larger eta is weaker."""

    eta: float

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not (math.isfinite(eta) and eta >= 0.0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        object.__setattr__(self, "eta", eta)


@dataclass(frozen=True)
class DpPoint:
    """One classical (epsilon, delta) point on a privacy curve."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")


def _eta_value(eta) -> float:
    return (eta if isinstance(eta, GdpParam) else GdpParam(eta)).eta


def tradeoff_G(eta, x: float) -> float:
    """The Gaussian trade-off curve G_eta(x) = Phi(Phi^{-1}(1 - x) - eta):
    the best type-II error at type-I error x.  G_0 is the powerless line 1-x.
    Evaluated as Phi(-Phi^{-1}(x) - eta), so a tiny x keeps its precision."""
    value = _eta_value(eta)
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"type-I error must lie in [0, 1], got {x}")
    if x == 0.0:
        return 1.0
    if x == 1.0:
        return 0.0
    return float(std_normal_cdf(-std_normal_quantile(x) - value))


def compose(etas) -> GdpParam:
    """Adaptive composition of Gaussian guarantees: the root-sum-square.

    fsum keeps the result exactly permutation-invariant.
    """
    squares = [(_eta_value(e)) ** 2 for e in etas]
    return GdpParam(math.sqrt(math.fsum(squares)))


def gdp_to_dp(eta, epsilon: float) -> DpPoint:
    """Tightest (epsilon, delta) implied by an eta-Gaussian guarantee:

        delta = Phi(eta/2 - eps/eta) - e^eps * Phi(-eta/2 - eps/eta).

    Both terms are taken in the log domain so e^eps * Phi(...) stays finite
    for any eps, and the subtraction runs through expm1 to keep tiny deltas
    accurate.  The result is clamped to [0, 1] only against sub-ulp spill.
    """
    value = _eta_value(eta)
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if value == 0.0:
        return DpPoint(epsilon, 0.0)
    log_hi = std_normal_logcdf(0.5 * value - epsilon / value)
    if log_hi == -math.inf:  # a huge eps underflows both terms to log 0
        return DpPoint(epsilon, 0.0)
    log_lo = epsilon + std_normal_logcdf(-0.5 * value - epsilon / value)
    # delta = e^a - e^b with b <= a; min() guards a one-ulp crossover, and
    # max(0.0, ...) keeps the first of equal values, so -0.0 becomes 0.0
    delta = -math.exp(log_hi) * math.expm1(min(log_lo - log_hi, 0.0))
    return DpPoint(epsilon, min(max(0.0, delta), 1.0))


# ---------------------------------------------------------------------------
# per-policy noise levels


def eta_dp_ts_ucb(alpha: float, horizon: int) -> GdpParam:
    """Noise level of the budgeted policy over a full horizon:
    sqrt(2 * BUDGET_SCALE * T^{0.5(1-alpha)} * ln(T)^{1.5(1-alpha)}).
    At alpha=1 this is the horizon-free constant sqrt(2 * BUDGET_SCALE)."""
    alpha = _check_alpha(alpha)
    T = float(_check_horizon(horizon))
    return GdpParam(
        math.sqrt(
            2.0 * BUDGET_SCALE * T ** (0.5 * (1.0 - alpha)) * math.log(T) ** (1.5 * (1.0 - alpha))
        )
    )


def eta_ts_gaussian(horizon: int) -> GdpParam:
    """Plain Gaussian Thompson sampling releases one unit-information model
    per round: eta = sqrt(T / 2)."""
    T = float(_check_horizon(horizon, minimum=1))
    return GdpParam(math.sqrt(0.5 * T))


def eta_m_ts_gaussian(horizon: int, b: int, c: float) -> GdpParam:
    """Pre-pulled Gaussian Thompson sampling: eta = sqrt(T / (c (b+1)))."""
    T = float(_check_horizon(horizon, minimum=1))
    _check_b(b)
    _check_c(c)
    return GdpParam(math.sqrt(T / (c * (b + 1))))


def match_c(alpha: float, horizon: int, b: int) -> float:
    """Variance scale that gives the pre-pulled baseline the same guarantee
    as the budgeted policy at this alpha:

        c = T^{0.5(1+alpha)} / (2 * BUDGET_SCALE * (b+1) * ln(T)^{1.5(1-alpha)})

    so that eta_m_ts_gaussian(T, b, match_c(alpha, T, b)) equals
    eta_dp_ts_ucb(alpha, T) identically.
    """
    alpha = _check_alpha(alpha)
    T = float(_check_horizon(horizon))
    _check_b(b)
    return T ** (0.5 * (1.0 + alpha)) / (
        2.0 * BUDGET_SCALE * (b + 1) * math.log(T) ** (1.5 * (1.0 - alpha))
    )


def policy_gdp(config: PolicyConfig) -> GdpParam | None:
    """The Gaussian guarantee a policy configuration carries over its horizon;
    None for UCB1, whose deterministic index offers no such guarantee."""
    return config.variant.gdp(config.horizon)
