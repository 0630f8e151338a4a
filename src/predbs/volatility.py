"""Volatility estimators and the variance risk premium.

Four ways to put a number on sigma_t from daily data:

* ``vix``        -- quoted index level, /100 for a decimal annual figure
* ``historical`` -- mean-subtracted sample stdev of log-returns (ddof=1)
* ``realized``   -- root mean square of log-returns, no mean subtraction
* ``garch``      -- one-step-ahead forecast from an AR(1)-GARCH(1,1) fit
                    with standardized Student-t innovations

All estimates carry both a daily and an annual figure linked by the
calendar-day convention sigma_annual = sigma_daily * sqrt(365).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.signal import lfilter
from scipy.special import gammaln

from .errors import EstimationError, InputError

__all__ = [
    "DAYS_PER_YEAR",
    "VOL_METHODS",
    "ReturnSeries",
    "VolEstimate",
    "GarchParams",
    "VrpResult",
    "historical_vol",
    "realized_vol",
    "vix_to_sigma",
    "fit_ar_garch",
    "garch_log_likelihood",
    "garch_forecast_vol",
    "simulate_ar_garch",
    "variance_risk_premium",
]

DAYS_PER_YEAR = 365.0
VOL_METHODS = ("vix", "historical", "realized", "garch")
_SQRT_DAYS = math.sqrt(DAYS_PER_YEAR)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log-returns R(t) = ln(S(t+dt)/S(t)) on ascending trading dates."""

    dates: tuple[date, ...]
    returns: np.ndarray

    def __post_init__(self):
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != returns.size:
            raise InputError("dates and returns must have equal length")
        if returns.size < 2:
            raise InputError("a return series needs at least 2 observations")
        if not np.all(np.isfinite(returns)):
            raise InputError("returns must be finite")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise InputError("dates must be strictly ascending")

    def __len__(self) -> int:
        return self.returns.size

    @property
    def as_of(self) -> date:
        return self.dates[-1]

    def last(self, window: int) -> np.ndarray:
        if window > len(self):
            raise InputError(f"window {window} exceeds series length {len(self)}")
        return self.returns[-window:]


@dataclass(frozen=True)
class VolEstimate:
    """A sigma_t value tagged with its estimation method and window."""

    method: str
    sigma_daily: float
    sigma_annual: float
    window: Optional[int] = None
    as_of: Optional[date] = None

    def __post_init__(self):
        if self.method not in VOL_METHODS:
            raise InputError(f"unknown method {self.method!r}")
        if self.sigma_daily < 0 or self.sigma_annual < 0:
            raise InputError("sigma must be >= 0")
        if not math.isclose(self.sigma_annual, self.sigma_daily * _SQRT_DAYS,
                            rel_tol=1e-12, abs_tol=1e-300):
            raise InputError("sigma_annual must equal sigma_daily * sqrt(365)")

    @classmethod
    def from_daily(cls, method: str, sigma_daily: float, window=None, as_of=None) -> "VolEstimate":
        return cls(method, sigma_daily, sigma_daily * _SQRT_DAYS, window, as_of)


def historical_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Mean-subtracted sample standard deviation (divisor n-1) of the last `window` returns."""
    if window < 2:
        raise InputError("historical window must be >= 2")
    r = series.last(window)
    sigma_daily = float(np.std(r, ddof=1))
    return VolEstimate.from_daily("historical", sigma_daily, window, series.as_of)


def realized_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Root mean square of the last `window` returns; no mean subtraction."""
    if window < 2:
        raise InputError("realized window must be >= 2")
    r = series.last(window)
    sigma_daily = float(math.sqrt(np.mean(r * r)))
    return VolEstimate.from_daily("realized", sigma_daily, window, series.as_of)


def vix_to_sigma(vix_quote: float, as_of: Optional[date] = None) -> VolEstimate:
    """Convert a VIX quote in index points (annualized % points) to sigma."""
    if not math.isfinite(vix_quote) or vix_quote < 0:
        raise InputError(f"vix quote must be >= 0, got {vix_quote}")
    annual = vix_quote / 100.0
    return VolEstimate("vix", annual / _SQRT_DAYS, annual, None, as_of)


# --------------------------------------------------------------------------
# AR(1)-GARCH(1,1) with standardized Student-t innovations
#
#   R_t = mu0 + phi R_{t-1} + eps_t,   eps_t = sigma_t z_t
#   sigma_t^2 = omega + a1 eps_{t-1}^2 + b1 sigma_{t-1}^2
#   z_t ~ t(nu) scaled to unit variance (nu > 2)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GarchParams:
    ar1: float
    mean: float
    omega: float
    alpha1: float
    beta1: float
    nu: float
    log_likelihood: float = math.nan

    def __post_init__(self):
        if self.omega <= 0:
            raise InputError("omega must be > 0")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise InputError("alpha1 and beta1 must be >= 0")
        if self.alpha1 + self.beta1 >= 1.0:
            raise InputError("alpha1 + beta1 must be < 1 (covariance stationarity)")
        if self.nu <= 2.0:
            raise InputError("nu must be > 2 (finite variance)")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha1 - self.beta1)


def _sigma2_recursion(eps2: np.ndarray, omega: float, a1: float, b1: float, s2_init: float) -> np.ndarray:
    """sigma^2_t = omega + a1 eps^2_{t-1} + b1 sigma^2_{t-1}, seeded with s2_init at t=0."""
    if eps2.size == 0:
        return np.empty(0)
    x = omega + a1 * eps2[:-1]
    y, _ = lfilter([1.0], [1.0, -b1], x, zi=np.array([b1 * s2_init]))
    return np.concatenate([[s2_init], y])


_PENALTY = 1e10


def _neg_loglik(params: np.ndarray, r: np.ndarray) -> float:
    mu0, phi, omega, a1, b1, nu = params
    if not np.all(np.isfinite(params)):
        return _PENALTY
    if omega <= 0 or a1 < 0 or b1 < 0 or a1 + b1 >= 0.999999 or nu <= 2.05 or abs(phi) >= 1:
        return _PENALTY
    eps = r[1:] - mu0 - phi * r[:-1]
    eps2 = eps * eps
    s2_init = float(np.mean(eps2))
    if s2_init <= 0:
        return _PENALTY
    s2 = _sigma2_recursion(eps2, omega, a1, b1, s2_init)
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0):
        return _PENALTY
    const = gammaln((nu + 1) / 2) - gammaln(nu / 2) - 0.5 * math.log(math.pi * (nu - 2))
    ll = np.sum(const - 0.5 * np.log(s2) - 0.5 * (nu + 1) * np.log1p(eps2 / (s2 * (nu - 2))))
    if not math.isfinite(ll):
        return _PENALTY
    return -ll


_RETURN_SCALE = 100.0  # optimize on percent returns so all parameters are O(1)


def _starting_points(r_scaled: np.ndarray) -> list[np.ndarray]:
    var = float(np.var(r_scaled))
    mean = float(np.mean(r_scaled))
    grid = [(0.05, 0.90), (0.10, 0.80), (0.02, 0.95), (0.15, 0.60), (0.05, 0.50)]
    starts = []
    for a0, b0 in grid:
        starts.append(np.array([mean, 0.0, var * (1.0 - a0 - b0), a0, b0, 8.0]))
    starts.append(np.array([mean, 0.0, var * 0.10, 0.05, 0.85, 5.0]))
    return starts


def fit_ar_garch(series: ReturnSeries) -> GarchParams:
    """Maximize the Student-t conditional log-likelihood by multi-start Nelder-Mead.

    Each start is iterated (simplex restarts from its own optimum) until the
    likelihood stops improving; the best stationarity-satisfying optimum wins,
    ties broken by lowest start index.
    """
    if len(series) < 250:
        raise InputError(f"need >= 250 observations to fit, got {len(series)}")
    r = series.returns * _RETURN_SCALE
    # variance floor on percent-scale returns; exactly-constant series leave
    # rounding dust of order 1e-35 in np.var, far below any real return series
    if float(np.var(r)) < 1e-16:
        raise EstimationError("degenerate likelihood: series variance is (numerically) zero")

    best_fun, best_x, converged = math.inf, None, False
    for x0 in _starting_points(r):
        x, fun = x0, math.inf
        ok = False
        for _ in range(6):
            res = minimize(
                _neg_loglik, x, args=(r,), method="Nelder-Mead",
                options=dict(maxiter=3000, maxfev=3000, xatol=1e-6, fatol=1e-8, adaptive=True),
            )
            if res.fun >= _PENALTY:
                break
            improved = fun - res.fun
            x, fun, ok = res.x, float(res.fun), True
            if improved < 1e-7:
                break
        if ok and fun < best_fun:
            best_fun, best_x, converged = fun, x, True

    if not converged or best_x is None:
        raise EstimationError("all optimizer starts failed", best=None)

    mu0, phi, omega, a1, b1, nu = best_x
    try:
        return GarchParams(
            ar1=float(phi),
            mean=float(mu0 / _RETURN_SCALE),
            omega=float(omega / _RETURN_SCALE**2),
            alpha1=float(a1),
            beta1=float(b1),
            nu=float(nu),
            log_likelihood=-best_fun + (len(series) - 1) * math.log(_RETURN_SCALE),
        )
    except InputError as exc:
        raise EstimationError(f"best optimum violates constraints: {exc}", best=best_x) from exc


def garch_log_likelihood(params: GarchParams, series: ReturnSeries) -> float:
    """Student-t conditional log-likelihood of `series` under `params` (natural return scale)."""
    x = np.array([
        params.mean * _RETURN_SCALE, params.ar1,
        params.omega * _RETURN_SCALE**2, params.alpha1, params.beta1, params.nu,
    ])
    nll = _neg_loglik(x, series.returns * _RETURN_SCALE)
    return -nll + (len(series) - 1) * math.log(_RETURN_SCALE)


def _filtered_sigma2(params: GarchParams, returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps = returns[1:] - params.mean - params.ar1 * returns[:-1]
    eps2 = eps * eps
    s2 = _sigma2_recursion(eps2, params.omega, params.alpha1, params.beta1, float(np.mean(eps2)))
    return eps2, s2


def garch_forecast_vol(params: GarchParams, series: ReturnSeries) -> VolEstimate:
    """One-step-ahead conditional sigma from the filtered recursion."""
    eps2, s2 = _filtered_sigma2(params, series.returns)
    s2_next = params.omega + params.alpha1 * eps2[-1] + params.beta1 * s2[-1]
    if not math.isfinite(s2_next) or s2_next <= 0:
        raise InputError("forecast variance is not positive; params invalid for this series")
    return VolEstimate.from_daily("garch", math.sqrt(s2_next), len(series), series.as_of)


def simulate_ar_garch(
    params: GarchParams, n: int, seed: int, burn: int = 500, start: Optional[date] = None
) -> ReturnSeries:
    """Simulate the AR-GARCH process from its stationary level (oracle for re-estimation tests)."""
    if n < 2:
        raise InputError("n must be >= 2")
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_t(params.nu, size=n + burn) * math.sqrt((params.nu - 2.0) / params.nu)
    out = np.empty(n + burn)
    s2 = params.unconditional_variance
    prev_r = params.mean / (1.0 - params.ar1)
    prev_eps = 0.0
    for t in range(n + burn):
        s2 = params.omega + params.alpha1 * prev_eps**2 + params.beta1 * s2
        eps = math.sqrt(s2) * z[t]
        out[t] = params.mean + params.ar1 * prev_r + eps
        prev_r, prev_eps = out[t], eps
    base = (start or date(2000, 1, 3)).toordinal()
    dates = tuple(date.fromordinal(base + i) for i in range(n))
    return ReturnSeries(dates=dates, returns=out[burn:])


@dataclass(frozen=True)
class VrpResult:
    """Implied-minus-realized annualized variance."""

    implied_variance: float
    realized_variance: float
    vrp: float

    def __post_init__(self):
        if self.vrp != self.implied_variance - self.realized_variance:
            raise InputError("vrp must equal implied_variance - realized_variance")


def variance_risk_premium(vix_quote: float, series: ReturnSeries, window: int) -> VrpResult:
    """VIX^2 implied variance minus annualized realized variance over `window` days."""
    implied = vix_to_sigma(vix_quote).sigma_annual ** 2
    daily_var = realized_vol(series, window).sigma_daily ** 2
    realized = daily_var * DAYS_PER_YEAR
    return VrpResult(implied_variance=implied, realized_variance=realized, vrp=implied - realized)
