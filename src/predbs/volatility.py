"""Volatility estimators and the variance risk premium.

Four ways to put a number on sigma_t from daily data:

* ``vix``        -- quoted index level, /100 for a decimal annual figure
* ``historical`` -- mean-subtracted sample stdev of log-returns (ddof=1)
* ``realized``   -- root mean square of log-returns, no mean subtraction
* ``garch``      -- one-step-ahead forecast from an AR(1)-GARCH(1,1) fit
                    with standardized Student-t innovations

All estimates carry both a daily and an annual figure linked by the
calendar-day convention sigma_annual = sigma_daily * sqrt(365).  Each function
that calls numpy (or scipy) imports it in its body, so importing this module
loads neither: the vix method runs without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from operator import lt
from typing import Optional

from .errors import EstimationError, InputError
from .pricing import DAYS_PER_YEAR
from .sde import _philox

__all__ = [
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

VOL_METHODS = ("vix", "historical", "realized", "garch")
_SQRT_DAYS = math.sqrt(DAYS_PER_YEAR)


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log-returns R(t) = ln(S(t+dt)/S(t)) on ascending trading dates."""

    dates: tuple[date, ...]
    returns: np.ndarray

    def __post_init__(self):
        import numpy as np
        returns = np.asarray(self.returns, dtype=float)
        object.__setattr__(self, "returns", returns)
        object.__setattr__(self, "dates", tuple(self.dates))
        if len(self.dates) != returns.size:
            raise InputError("dates and returns must have equal length")
        if returns.size < 2:
            raise InputError("a return series needs at least 2 observations")
        if not np.all(np.isfinite(returns)):
            raise InputError("returns must be finite")
        if not all(map(lt, self.dates, self.dates[1:])):
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
        if not (0.0 <= self.sigma_daily < math.inf and 0.0 <= self.sigma_annual < math.inf):
            raise InputError(f"sigma must be finite and >= 0, got sigma_daily = {self.sigma_daily}, "
                             f"sigma_annual = {self.sigma_annual}")
        if not math.isclose(self.sigma_annual, self.sigma_daily * _SQRT_DAYS,
                            rel_tol=1e-12, abs_tol=1e-300):
            raise InputError("sigma_annual must equal sigma_daily * sqrt(365)")

    @classmethod
    def from_daily(cls, method: str, sigma_daily: float, window=None, as_of=None) -> "VolEstimate":
        return cls(method, sigma_daily, sigma_daily * _SQRT_DAYS, window, as_of)


def _in_units(r: np.ndarray) -> tuple[np.ndarray, int]:
    """r and e, with r scaled exactly by the power of two that brings max |r| into [1/2, 1): as sde._mean_and_se
    takes its input, so that second moments of any finite returns stay finite."""
    import numpy as np
    e = math.frexp(float(max(r.max(), -r.min())))[1]
    return np.ldexp(r, -e), e


def _estimate(method: str, sigma_units: float, e: int, window: int, series: ReturnSeries) -> VolEstimate:
    """The estimate whose daily sigma is sigma_units 2^e; VolEstimate refuses it past the float range."""
    try:
        sigma_daily = math.ldexp(sigma_units, e)
    except OverflowError:
        sigma_daily = math.inf
    return VolEstimate.from_daily(method, sigma_daily, window, series.as_of)


def historical_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Mean-subtracted sample standard deviation (divisor n-1) of the last `window` returns."""
    if window < 2:
        raise InputError("historical window must be >= 2")
    import numpy as np
    z, e = _in_units(series.last(window))
    return _estimate("historical", float(np.std(z, ddof=1)), e, window, series)


def realized_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Root mean square of the last `window` returns; no mean subtraction."""
    if window < 2:
        raise InputError("realized window must be >= 2")
    import numpy as np
    z, e = _in_units(series.last(window))
    return _estimate("realized", math.sqrt(np.mean(z * z)), e, window, series)


def vix_to_sigma(vix_quote: float) -> VolEstimate:
    """Convert a VIX quote in index points (annualized % points) to sigma."""
    if not math.isfinite(vix_quote) or vix_quote < 0:
        raise InputError(f"vix quote must be >= 0, got {vix_quote}")
    annual = abs(vix_quote) / 100.0  # a quote of -0.0 reads 0
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
    (covariance stationarity) and nu > 2 (finite variance; inf is the Gaussian limit); False for NaN."""
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
        import numpy as np
        return np.array([self.mean, self.ar1, self.omega, self.alpha1, self.beta1, 1.0 / self.nu])


def _passes(y: np.ndarray, tmp: np.ndarray) -> list[tuple]:
    """The views (d, y[d:], y[:-d], tmp[:y.size - d]) of each pass of _scan over y, at d = 1, 2, 4, ... < y.size."""
    return [(d, y[d:], y[:-d], tmp[:y.size - d]) for d in (1 << k for k in range((y.size - 1).bit_length()))]


def _scan(y: np.ndarray, b: float, passes: list[tuple]) -> np.ndarray:
    """The recurrence y_t = x_t + b y_{t-1} (y_0 = x_0) over x = y, in place, as a doubling scan (Hillis & Steele).

    After the pass at d, y_t holds sum_{k < 2d} b^k x_{t-k}; passes run at d = 1, 2, 4, ... until d >= y.size or
    b^d underflows to 0.  Each multiplier is b ** d (within 1 ulp), not repeated squaring (which doubles the error
    each time).  `passes` is _passes(y, tmp).  Overflow is left as inf or nan, under the caller's np.errstate.
    """
    import numpy as np
    for d, head, lag, tmp in passes:
        if (c := b ** d) == 0.0:
            break
        head += np.multiply(lag, c, out=tmp)
    return y


_PENALTY = 1e10
# ln Gamma(a + 1/2) - ln Gamma(a) - (ln a)/2 = sum_k _H[k] y^(2k+1), y = 1/(2a), to 1 ulp with its derivative at y <= 0.035
_H = (-1 / 4, 1 / 24, -1 / 20, 17 / 112, -31 / 36, 691 / 88, -5461 / 52)


def _t_constant(eta: float) -> tuple[float, float]:
    """C = ln Gamma((nu+1)/2) - ln Gamma(nu/2) - ln sqrt(pi (nu-2)) = -ln(2 pi)/2 - log1p(-2 eta)/2 + H(nu/2) and dC/deta at
    eta = 1/nu; H(a) = H(a+1) + log1p(1/a)/2 - log1p(1/(2a)), H'(a) = H'(a+1) + 1/(4a(a+1/2)(a+1)) carry a into _H's range."""
    y, h, dh = eta, 0.0, 0.0
    while y > 0.035:
        a = 0.5 / y
        h += 0.5 * math.log1p(1.0 / a) - math.log1p(y)
        dh += 0.125 / (eta * eta * a * (a + 0.5) * (a + 1.0))  # -(dH/da) da/deta
        y = 0.5 / (a + 1.0)
    y2, s, ds = y * y, 0.0, 0.0
    for k in reversed(range(len(_H))):
        s, ds = s * y2 + _H[k], ds * y2 + (2 * k + 1) * _H[k]
    q = y / eta if eta else 1.0  # d(shifted y)/d eta
    return (-0.5 * math.log(2 * math.pi) - 0.5 * math.log1p(-2.0 * eta) + h + y * s,
            1.0 / (1.0 - 2.0 * eta) - dh + q * q * ds)


class _Workspace:
    """Buffers and views for the sigma^2 filter and the likelihood of `size` returns, made once: a fit evaluates every
    point in one.  Temporaries are written with out= by the formulas' float operations, in order, so bits match.
    value leaves its intermediates in the buffers, and gradient forms the gradient from them, so a caller that needs
    the gradient at only some points (SLSQP's line search reads values alone) pays for it only there."""

    def __init__(self, size: int, likelihood: bool = True):
        import numpy as np
        n = size - 1
        self.eps, self.eps2, self.s2, self.tmp = np.empty(n), np.empty(n), np.empty(n + 1), np.empty(n + 1)
        self.s2_now, self.s2_next, self.s2_passes = self.s2[:-1], self.s2[1:], _passes(self.s2, self.tmp)
        self.last = None  # (params bytes, r, x, dC/deta or None at a penalty) of the value the buffers hold
        if likelihood:  # a forecast runs only the filter
            self.d, self.m, self.u, self.log1p_u, self.w, self.e, self.p, self.z, self.z2, self.q, self.t1, self.t2, \
                self.gr = (np.empty(n) for _ in range(13))  # gr: g = d ll / d sigma^2, reversed (see gradient)
            self.mask, self.g_next, self.g = np.empty(n, dtype=bool), np.empty(n - 1), self.gr[::-1]
            self.s2_rev, self.w_rev, self.g_tail, self.t1_head = self.s2[-2::-1], self.w[::-1], self.g[1:], self.t1[:-1]
            self.g_passes = _passes(self.gr, self.tmp)

    def filter(self, x, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals eps_1..eps_T, their squares and sigma^2_1..sigma^2_{T+1} at x = (mu0, phi, omega, a1, b1, eta):
        eps_t = r_t - mu0 - phi r_{t-1}; sigma^2_1 = mean(eps^2) and sigma^2_{t+1} = omega + a1 eps^2_t + b1 sigma^2_t,
        so the last entry is the one-step-ahead forecast.  Overflow is left as inf or nan, under the caller's
        np.errstate, for the caller's checks."""
        import numpy as np
        mu0, phi, omega, a1, b1 = x[:5]
        eps, eps2, s2 = self.eps, self.eps2, self.s2
        self.last = None  # the buffers no longer hold a value's intermediates
        np.subtract(np.subtract(r[1:], mu0, out=eps2), np.multiply(r[:-1], phi, out=eps), out=eps)
        np.multiply(eps, eps, out=eps2)
        s2[0] = eps2.sum() / eps.size
        np.add(np.multiply(eps2, a1, out=self.s2_next), omega, out=self.s2_next)
        return eps, eps2, _scan(s2, b1, self.s2_passes)

    def value(self, params: np.ndarray, r: np.ndarray) -> float:
        """The negative log-likelihood of _neg_loglik at params, or _PENALTY; what gradient(params, r) reads stays
        in the buffers and in self.last until the next value or filter."""
        x = params.tolist()  # Python floats: cheaper scalar arithmetic than numpy's
        nll, dconst = self._value(x, r)
        self.last = params.tobytes(), r, x, dconst
        return nll

    def _value(self, x: list[float], r: np.ndarray) -> tuple[float, Optional[float]]:
        """(-ll, dC/deta), or (_PENALTY, None).  What overflows (a sigma^2 path too small for its residuals) leaves
        ll non-finite, and so the penalty."""
        import numpy as np
        mu0, phi, omega, a1, b1, eta = x
        penalty = _PENALTY, None
        if not (all(map(math.isfinite, x)) and _admissible(omega, a1, b1, 1.0 / eta if eta else math.inf)):
            return penalty
        with np.errstate(over="ignore", invalid="ignore"):
            eps, eps2, _ = self.filter(x, r)
            s2, t1, t2 = self.s2_now, self.t1, self.t2
            if not 0.0 < s2.min() <= s2.max() < math.inf:  # False for NaN
                return penalty
            const, dconst = _t_constant(eta)
            d = np.multiply(s2, 1.0 - 2.0 * eta, out=self.d)
            m = np.divide(eps2, d, out=self.m)
            u = np.multiply(m, eta, out=self.u)
            log1p_u = np.log1p(u, out=self.log1p_u)
            t1.fill(1.0)
            ll = eps.size * const - 0.5 * np.log(s2, out=t2).sum() - 0.5 * (1.0 + eta) * np.dot(
                m, np.divide(log1p_u, u, out=t1, where=np.greater(u, 0, out=self.mask)))
        return (-ll, dconst) if math.isfinite(ll) else penalty

    def gradient(self, params: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The gradient of the negative log-likelihood at params (see _neg_loglik), zero at a penalty point.  It is
        formed from the intermediates of the last value call, which runs first if that call was at another point
        (bit for bit) or series, so the result does not depend on the order of calls.  Entries past the float range
        (a sigma^2 path far below the residuals, outside the fit's _BOUNDS) read inf or nan."""
        import numpy as np
        if self.last is None or self.last[0] != params.tobytes() or self.last[1] is not r:
            self.value(params, r)
        _, _, x, dconst = self.last
        if dconst is None:
            return np.zeros(6)
        a1, b1, eta = x[3:]
        eps, eps2, s2, d, m, u, log1p_u = self.eps, self.eps2, self.s2_now, self.d, self.m, self.u, self.log1p_u
        g, g_tail, t1, t2 = self.g, self.g_tail, self.t1, self.t2
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.divide(np.multiply(m, 1.0 + eta, out=self.w), np.add(u, 1.0, out=t1), out=self.w)
            # the adjoint runs the filter backwards, scanned as a reversed copy: numpy is slower on negative strides
            gr = np.multiply(np.subtract(self.w_rev, 1.0, out=self.gr), 0.5, out=self.gr)
            _scan(np.divide(gr, self.s2_rev, out=gr), b1, self.g_passes)
            # total derivative in eps_t: its own term, sigma^2_{t+1} through a1 eps^2_t, and s2_init = mean(eps^2)
            e = np.divide(np.multiply(eps, -(1.0 + eta), out=self.e),
                          np.add(d, np.multiply(eps2, eta, out=t1), out=t1), out=self.e)
            np.add(e, np.multiply(eps, 2.0 * g[0] / eps.size, out=t1), out=e)
            e[:-1] += np.multiply(np.multiply(eps[:-1], 2.0 * a1, out=self.t1_head), g_tail, out=self.t1_head)
            # eta: -m^2 R'(u)/2 = (m/(2 + u))^2 (1/(1 + z) + z Q), z = u/(2 + u),
            # Q = (atanh z - z)/z^3 or its series at small z
            p = np.divide(m, np.add(u, 2.0, out=t1), out=self.p)
            z = np.multiply(p, eta, out=self.z)
            z2 = np.multiply(z, z, out=self.z2)
            q = self.q  # the series 1/3 + z2 (1/5 + z2 (1/7 + z2 / 9)), then Q where z > 0.025
            np.add(np.divide(z2, 9, out=q), 1 / 7, out=q)
            np.add(np.multiply(z2, q, out=q), 1 / 5, out=q)
            np.add(np.multiply(z2, q, out=q), 1 / 3, out=q)
            np.divide(np.subtract(np.multiply(log1p_u, 0.5, out=t1), z, out=t1), np.multiply(z2, z, out=t2), out=q,
                      where=np.greater(z, 0.025, out=self.mask))
            self.g_next[...] = g_tail  # g_2..g_T in order: np.dot would copy the reversed view to call BLAS
            return -np.array([
                -e.sum(), -np.dot(e, r[:-1]),  # mu0, phi
                g_tail.sum(), np.dot(eps2[:-1], self.g_next), np.dot(s2[:-1], self.g_next),  # omega, a1, b1
                eps.size * dconst + np.dot(np.multiply(p, p, out=t2), np.add(
                    np.divide(1.0, np.add(z, 1.0, out=t1), out=t1), np.multiply(z, q, out=q), out=t1))
                - 1.5 * w.sum() / ((1.0 + eta) * (1.0 - 2.0 * eta)),
            ])


def _neg_loglik(params: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the returns `r` at x = (mu0, phi, omega, a1, b1, eta = 1/nu), and its gradient:
    ll_t = C(eta) - ln(sigma^2)/2 - (1 + eta) m R(eta m)/2, m = eps^2 / ((1 - 2 eta) sigma^2), R(u) = log1p(u)/u, R(0) = 1:
    eta = 0 is the Gaussian limit, and nothing cancels near it.  The value is _PENALTY (gradient zero) where x is
    non-finite or not _admissible, or the sigma^2 path is not finite and positive.  The gradient is exact:
    g_t = d ll / d sigma^2_t obeys the sigma^2 filter run backwards, g_t = d ll_t / d sigma^2_t + b1 g_{t+1}.
    It is evaluated in a _Workspace made for this call, value then gradient; fit_ar_garch evaluates every point in
    one that it keeps, and forms the gradient only at the points where SLSQP asks for one."""
    workspace = _Workspace(r.size)
    return workspace.value(params, r), workspace.gradient(params, r)


def _starting_points(r_scaled: np.ndarray) -> list[np.ndarray]:
    import numpy as np
    return [np.array([float(np.mean(r_scaled)), 0.0, float(np.var(r_scaled)) * (1.0 - 0.05 - 0.90), 0.05, 0.90, 1 / 8])]


# The fit's feasible set: strictly inside _admissible, |phi| < 1, and the Gaussian limit eta = 0 included
_BOUNDS = [(None, None), (-0.999999, 0.999999), (1e-12, None), (0.0, 1.0), (0.0, 1.0), (0.0, 1 / 2.05)]
# alpha1 + beta1 <= ub = 0.999999 - 1e-9, as scipy forms LinearConstraint(A = (0, 0, 0, 1, 1, 0), -inf, ub) for SLSQP:
# -(A x - ub), whose zero terms add exactly, and the row -A with its signed zeros
_STATIONARITY = {"type": "ineq", "fun": lambda x: (0.999999 - 1e-9) - (x[3] + x[4]),
                 "jac": lambda x, row=(-0.0, -0.0, -0.0, -1.0, -1.0, -0.0): row}


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first call; benchmark/tracing.py wraps this module attribute."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def fit_ar_garch(series: ReturnSeries) -> GarchParams:
    """Maximize the Student-t conditional log-likelihood by SLSQP from one start (restarted once if it fails).
    SLSQP runs on eta = 1/nu with the exact gradient (see _neg_loglik) inside _BOUNDS and _STATIONARITY, on returns
    standardized to unit variance so that every parameter is O(1), and evaluates every point in one _Workspace.  It
    reads the value at every point and the gradient only where it asks for one, formed from the buffers of the value
    at that point.  A fit that ends at eta = 0 returns nu = inf, the Gaussian limit.  The reported log-likelihood is
    garch_log_likelihood at the returned parameters."""
    if len(series) < 250:
        raise InputError(f"need >= 250 observations to fit, got {len(series)}")
    import numpy as np
    u, e = _in_units(series.returns)
    # the likelihood of the returns sums n squared residuals, each below (3 max |r|)^2 < 2^(2e + 4)
    if 2 * e + 4 + len(series).bit_length() > 1024:
        raise EstimationError("returns too large to fit: the likelihood's sums of squared residuals would overflow")
    # variance floor: exactly-constant series leave rounding dust of order 1e-35 in np.var, far below any real series
    var = math.ldexp(float(np.var(u)), 2 * e)
    if var < 1e-20:
        raise EstimationError("degenerate likelihood: series variance is (numerically) zero")
    sd = math.sqrt(var)
    z = series.returns / sd
    seen = [_PENALTY, *_starting_points(z)]  # the lowest value SLSQP evaluated, and where
    workspace = _Workspace(z.size)  # for every evaluation of the fit, and for its log-likelihood

    def nll(x, r):
        value = workspace.value(x, r)
        if value < seen[0]:
            seen[:] = value, x.copy()
        return value

    for _ in range(2):  # a run that does not converge restarts once, from the best point it evaluated
        if minimize(nll, seen[1], args=(z,), jac=workspace.gradient, method="SLSQP", bounds=_BOUNDS,
                    constraints=[_STATIONARITY], options=dict(maxiter=500, ftol=1e-12)).success:
            break
    if seen[0] >= _PENALTY:
        raise EstimationError("the optimizer found no parameters with a finite likelihood")

    mu0, phi, omega, a1, b1, eta = seen[1] * np.array([sd, 1.0, var, 1.0, 1.0, 1.0])  # back to returns
    params = GarchParams(ar1=float(phi), mean=float(mu0), omega=float(omega),
                         alpha1=float(a1), beta1=float(b1), nu=float(1.0 / eta) if eta > 0 else math.inf)
    return replace(params, log_likelihood=_log_likelihood(params, series, workspace))


def garch_log_likelihood(params: GarchParams, series: ReturnSeries) -> float:
    """Student-t conditional log-likelihood of the daily log-returns `series` under `params`."""
    return _log_likelihood(params, series, _Workspace(len(series)))


def _log_likelihood(params: GarchParams, series: ReturnSeries, workspace: _Workspace) -> float:
    """garch_log_likelihood, evaluated in `workspace`."""
    nll = workspace.value(params._vector(), series.returns)
    if nll == _PENALTY:
        raise InputError("likelihood undefined: sigma^2 path is not finite and positive for this series")
    return float(-nll)


def garch_forecast_vol(params: GarchParams, series: ReturnSeries) -> VolEstimate:
    """One-step-ahead conditional sigma: the last entry of the filtered sigma^2 path."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        s2_next = _Workspace(len(series), likelihood=False).filter(params._vector(), series.returns)[2][-1]
    if not math.isfinite(s2_next) or s2_next <= 0:
        raise InputError("forecast variance is not positive; params invalid for this series")
    return VolEstimate.from_daily("garch", math.sqrt(s2_next), len(series), series.as_of)


def simulate_ar_garch(params: GarchParams, n: int, seed: int, start: Optional[date] = None) -> ReturnSeries:
    """Simulate the AR-GARCH process from its stationary level (oracle for re-estimation tests).

    The first 500 draws are burn-in and discarded.  The AR(1) mean needs |ar1| < 1; nu = inf draws normals.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if not abs(params.ar1) < 1.0:
        raise InputError(f"simulation needs a stationary AR(1) mean, |ar1| < 1, got ar1={params.ar1}")
    import numpy as np
    burn = 500
    rng = _philox(seed)
    z = (rng.standard_normal(n + burn) if math.isinf(params.nu)
         else rng.standard_t(params.nu, size=n + burn) * math.sqrt((params.nu - 2.0) / params.nu))
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
    sigma_implied, sigma_daily = vix_to_sigma(vix_quote).sigma_annual, realized_vol(series, window).sigma_daily
    implied, realized = sigma_implied * sigma_implied, sigma_daily * sigma_daily * DAYS_PER_YEAR
    for name, variance in (("implied", implied), ("realized", realized)):
        if variance == math.inf:
            raise InputError(f"the annualized {name} variance overflows the float range")
    return VrpResult(implied_variance=implied, realized_variance=realized, vrp=implied - realized)
