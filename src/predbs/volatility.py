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
from dataclasses import dataclass, replace
from datetime import date
from typing import Optional

import numpy as np

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


def vix_to_sigma(vix_quote: float) -> VolEstimate:
    """Convert a VIX quote in index points (annualized % points) to sigma."""
    if not math.isfinite(vix_quote) or vix_quote < 0:
        raise InputError(f"vix quote must be >= 0, got {vix_quote}")
    annual = vix_quote / 100.0
    return VolEstimate("vix", annual / _SQRT_DAYS, annual)


# --------------------------------------------------------------------------
# AR(1)-GARCH(1,1) with standardized Student-t innovations
#
#   R_t = mu0 + phi R_{t-1} + eps_t,   eps_t = sigma_t z_t
#   sigma_t^2 = omega + a1 eps_{t-1}^2 + b1 sigma_{t-1}^2
#   z_t ~ t(nu) scaled to unit variance (nu > 2)
# --------------------------------------------------------------------------

def _admissible(omega: float, alpha1: float, beta1: float, nu: float) -> bool:
    """The model's parameter region: omega > 0, alpha1, beta1 >= 0, alpha1 + beta1 < 1
    (covariance stationarity) and nu > 2 (finite variance); False for NaN."""
    return omega > 0 and alpha1 >= 0 and beta1 >= 0 and alpha1 + beta1 < 1 and nu > 2


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
        if not _admissible(self.omega, self.alpha1, self.beta1, self.nu):
            raise InputError("GARCH parameters need omega > 0, alpha1 and beta1 >= 0, "
                             "alpha1 + beta1 < 1 (covariance stationarity) and nu > 2 (finite variance)")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha1 - self.beta1)

    def _vector(self) -> np.ndarray:
        return np.array([self.mean, self.ar1, self.omega, self.alpha1, self.beta1, self.nu])


def _filter(x, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residuals eps_1..eps_T, their squares and sigma^2_1..sigma^2_{T+1} at x = (mu0, phi, omega, a1, b1, nu).

    eps_t = r_t - mu0 - phi r_{t-1}; sigma^2_1 = mean(eps^2) and
    sigma^2_{t+1} = omega + a1 eps^2_t + b1 sigma^2_t, so the last entry is the
    one-step-ahead forecast.
    """
    from scipy.signal import lfilter  # deferred: scipy.signal is slow to import

    mu0, phi, omega, a1, b1 = x[:5]
    eps = r[1:] - mu0 - phi * r[:-1]
    eps2 = eps * eps
    s2_init = float(np.mean(eps2))
    y, _ = lfilter([1.0], [1.0, -b1], omega + a1 * eps2, zi=np.array([b1 * s2_init]))
    return eps, eps2, np.concatenate([[s2_init], y])


_PENALTY = 1e10


def _neg_loglik(params: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the returns `r` and its exact gradient.

    The value is _PENALTY (gradient zero) where the parameters are non-finite
    or not _admissible, or the sigma^2 path is not finite and positive.  The
    gradient is taken by the adjoint of the sigma^2 recursion: g_t, the total
    derivative of the log-likelihood in sigma^2_t, obeys the same filter run
    backwards, g_t = d ll_t / d sigma^2_t + b1 g_{t+1}.
    """
    x = params.tolist()  # Python floats: cheaper scalar arithmetic than numpy's
    mu0, phi, omega, a1, b1, nu = x
    penalty = (_PENALTY, np.zeros(6))
    if not (all(map(math.isfinite, x)) and _admissible(omega, a1, b1, nu)):
        return penalty
    eps, eps2, s2 = _filter(x, r)
    s2 = s2[:-1]
    if not np.all(np.isfinite(s2)) or np.any(s2 <= 0):
        return penalty
    from scipy.special import betaln, digamma

    # ln Gamma((nu+1)/2) - ln Gamma(nu/2) - ln sqrt(pi (nu-2)), with ln Gamma(1/2) = ln sqrt(pi):
    # betaln avoids the cancellation of the plain gammaln difference at large nu
    const = -betaln(nu / 2, 0.5) - 0.5 * math.log(nu - 2)
    u = eps2 / (s2 * (nu - 2))
    log1p_u = np.log1p(u)
    ll = np.sum(const - 0.5 * np.log(s2) - 0.5 * (nu + 1) * log1p_u)
    if not math.isfinite(ll):
        return penalty
    from scipy.signal import lfilter

    w = (nu + 1) * u / (1.0 + u)
    g = lfilter([1.0], [1.0, -b1], (0.5 * (w - 1.0) / s2)[::-1])[::-1]
    # total derivative in eps_t: its own term, sigma^2_{t+1} through a1 eps^2_t,
    # and s2_init = mean(eps^2)
    e = -(nu + 1) * eps / (s2 * (nu - 2) + eps2) + (2.0 * g[0] / eps.size) * eps
    e[:-1] += 2.0 * a1 * eps[:-1] * g[1:]
    dconst = 0.5 * (digamma((nu + 1) / 2) - digamma(nu / 2) - 1.0 / (nu - 2))
    grad = np.array([
        -np.sum(e),
        -np.dot(e, r[:-1]),
        np.sum(g[1:]),
        np.dot(eps2[:-1], g[1:]),
        np.dot(s2[:-1], g[1:]),
        eps.size * dconst + np.sum(0.5 * w / (nu - 2) - 0.5 * log1p_u),
    ])
    return -ll, -grad


def _starting_points(r_scaled: np.ndarray) -> list[np.ndarray]:
    var = float(np.var(r_scaled))
    mean = float(np.mean(r_scaled))
    grid = [(0.05, 0.90), (0.10, 0.80), (0.02, 0.95), (0.15, 0.60), (0.05, 0.50)]
    starts = []
    for a0, b0 in grid:
        starts.append(np.array([mean, 0.0, var * (1.0 - a0 - b0), a0, b0, 8.0]))
    starts.append(np.array([mean, 0.0, var * 0.10, 0.05, 0.85, 5.0]))
    return starts


# Feasible set of the gradient fit on (mu0, phi, omega, a1, b1, nu), strictly
# inside the _admissible region and |phi| < 1.  nu has no upper bound:
# near-Gaussian data put the optimum at nu in the millions.
_BOUNDS = [(None, None), (-0.999999, 0.999999), (1e-12, None), (0.0, 1.0), (0.0, 1.0), (2.05 + 1e-9, None)]


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call; benchmark/tracing.py wraps this module attribute."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def fit_ar_garch(series: ReturnSeries) -> GarchParams:
    """Maximize the Student-t conditional log-likelihood by multi-start SLSQP.

    Each start runs SLSQP with the analytic gradient of the likelihood (see
    _neg_loglik) inside _BOUNDS and `stationarity`, on returns standardized to
    unit variance so that every parameter is O(1) whatever the scale of the
    series.  The best optimum wins, ties broken by lowest start index; its
    reported log-likelihood is garch_log_likelihood at the returned parameters.
    """
    if len(series) < 250:
        raise InputError(f"need >= 250 observations to fit, got {len(series)}")
    # variance floor; exactly-constant series leave rounding dust of order 1e-35
    # in np.var, far below any real return series
    var = float(np.var(series.returns))
    if var < 1e-20:
        raise EstimationError("degenerate likelihood: series variance is (numerically) zero")
    sd = math.sqrt(var)
    z = series.returns / sd
    from scipy.optimize import LinearConstraint
    stationarity = LinearConstraint([[0.0, 0.0, 0.0, 1.0, 1.0, 0.0]], -np.inf, 0.999999 - 1e-9)

    best_fun, best_x = math.inf, None
    for x0 in _starting_points(z):
        res = minimize(
            _neg_loglik, x0, args=(z,), jac=True, method="SLSQP",
            bounds=_BOUNDS, constraints=[stationarity], options=dict(maxiter=500, ftol=1e-12),
        )
        fun = float(res.fun)
        if fun < _PENALTY and fun < best_fun:
            best_fun, best_x = fun, res.x

    if best_x is None:
        raise EstimationError("all optimizer starts failed")

    mu0, phi, omega, a1, b1, nu = best_x * np.array([sd, 1.0, var, 1.0, 1.0, 1.0])  # back to returns
    params = GarchParams(ar1=float(phi), mean=float(mu0), omega=float(omega),
                         alpha1=float(a1), beta1=float(b1), nu=float(nu))
    return replace(params, log_likelihood=garch_log_likelihood(params, series))


def garch_log_likelihood(params: GarchParams, series: ReturnSeries) -> float:
    """Student-t conditional log-likelihood of the daily log-returns `series` under `params`."""
    nll = _neg_loglik(params._vector(), series.returns)[0]
    if nll == _PENALTY:
        raise InputError("likelihood undefined: sigma^2 path is not finite and positive for this series")
    return float(-nll)


def garch_forecast_vol(params: GarchParams, series: ReturnSeries) -> VolEstimate:
    """One-step-ahead conditional sigma: the last entry of the filtered sigma^2 path."""
    s2_next = _filter(params._vector(), series.returns)[2][-1]
    if not math.isfinite(s2_next) or s2_next <= 0:
        raise InputError("forecast variance is not positive; params invalid for this series")
    return VolEstimate.from_daily("garch", math.sqrt(s2_next), len(series), series.as_of)


def simulate_ar_garch(params: GarchParams, n: int, seed: int, start: Optional[date] = None) -> ReturnSeries:
    """Simulate the AR-GARCH process from its stationary level (oracle for re-estimation tests).

    The first 500 draws are burn-in and discarded.  The AR(1) mean needs |ar1| < 1.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if not abs(params.ar1) < 1.0:
        raise InputError(f"simulation needs a stationary AR(1) mean, |ar1| < 1, got ar1={params.ar1}")
    burn = 500
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
