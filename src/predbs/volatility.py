"""Volatility estimators and the variance risk premium.

Four ways to put a number on sigma_t from daily data:

* ``vix``        -- quoted index level, /100 for a decimal annual figure
* ``historical`` -- mean-subtracted sample stdev of log-returns (ddof=1)
* ``realized``   -- root mean square of log-returns, no mean subtraction
* ``garch``      -- one-step-ahead forecast from an AR(1)-GARCH(1,1) fit
                    with standardized Student-t innovations

All estimates carry both a daily and an annual figure linked by the
calendar-day convention sigma_annual = sigma_daily * sqrt(365).  numpy is bound
once, as the global np, and loads at the module's first numpy call; the fit's solver,
_sqp, loads at its first call.  Importing this module loads neither; vix runs without them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from operator import lt
from typing import Optional

from .errors import EstimationError, InputError
from .pricing import DAYS_PER_YEAR
from .sde import _Numpy

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
    "garch_forecast_vol",
    "variance_risk_premium",
]

np = _Numpy(globals())  # its own: sde's np, once loaded, rebinds only sde's global
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
    e = math.frexp(float(max(r.max(), -r.min())))[1]
    return np.ldexp(r, -e), e


def _windowed(method: str, series: ReturnSeries, window: int) -> VolEstimate:
    """historical_vol or realized_vol, formed in _in_units: past the float range, VolEstimate refuses the estimate."""
    if window < 2:
        raise InputError(f"{method} window must be >= 2")
    z, e = _in_units(series.last(window))
    sigma_units = float(np.std(z, ddof=1)) if method == "historical" else math.sqrt(np.mean(z * z))
    try:
        sigma_daily = math.ldexp(sigma_units, e)
    except OverflowError:
        sigma_daily = math.inf
    return VolEstimate.from_daily(method, sigma_daily, window, series.as_of)


def historical_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Mean-subtracted sample standard deviation (divisor n-1) of the last `window` returns."""
    return _windowed("historical", series, window)


def realized_vol(series: ReturnSeries, window: int) -> VolEstimate:
    """Root mean square of the last `window` returns; no mean subtraction."""
    return _windowed("realized", series, window)


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

    def _vector(self) -> np.ndarray:
        return np.array([self.mean, self.ar1, self.omega, self.alpha1, self.beta1, 1.0 / self.nu])


def _passes(y: np.ndarray, tmp: np.ndarray) -> list[tuple]:
    """The views (d, y[..., d:], y[..., :-d], tmp[..., :n - d]) of each pass of _scan over y's last axis, of length n,
    at d = 1, 2, 4, ... < n."""
    n = y.shape[-1]
    return [(d, y[..., d:], y[..., :-d], tmp[..., :n - d]) for d in (1 << k for k in range((n - 1).bit_length()))]


def _scan(y: np.ndarray, b: float, passes: list[tuple]) -> np.ndarray:
    """The recurrence y_t = x_t + b y_{t-1} (y_0 = x_0) along y's last axis over x = y, in place, as a doubling scan
    (Hillis & Steele).

    After the pass at d, y_t holds sum_{k < 2d} b^k x_{t-k}; passes run at d = 1, 2, 4, ... until d >= the axis'
    length or b^d underflows to 0.  Each multiplier is b ** d (within 1 ulp), not repeated squaring (which doubles the
    error each time).  `passes` is _passes(y, tmp).  Overflow is left as inf or nan, under the caller's np.errstate.
    """
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
    """The sigma^2 filter and the likelihood of `size` returns: a fit evaluates every point in one.  Each term is a
    fresh array, but for the two series the doubling scan runs over, sigma^2 and the adjoint g (see gradient), whose
    buffers and pass views are made here once: built per call, the views cost about as much as the scan.  value
    keeps what gradient and bhhh read in self.last, so a caller that needs the gradient at only some points (the
    solver's line search reads values alone) pays for it only there."""

    def __init__(self, size: int):
        self.s2, self.tmp, self.gr = np.empty(size), np.empty(size), np.empty(size - 1)  # gr: g, reversed
        self.s2_passes, self.g_passes = _passes(self.s2, self.tmp), _passes(self.gr, self.tmp)
        self.last = None  # (params bytes, r, x, -ll, terms) of the last value; terms is None at a penalty

    def filter(self, x, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residuals eps_1..eps_T, their squares and sigma^2_1..sigma^2_{T+1} at x = (mu0, phi, omega, a1, b1, eta):
        eps_t = r_t - mu0 - phi r_{t-1}; sigma^2_1 = mean(eps^2) and sigma^2_{t+1} = omega + a1 eps^2_t + b1 sigma^2_t,
        so the last entry is the one-step-ahead forecast.  Overflow is left as inf or nan, under the caller's
        np.errstate, for the caller's checks."""
        mu0, phi, omega, a1, b1 = x[:5]
        self.last = None  # s2 no longer holds a value's path
        eps = (r[1:] - mu0) - r[:-1] * phi
        eps2 = eps * eps
        self.s2[0] = eps2.sum() / eps.size
        self.s2[1:] = eps2 * a1 + omega
        return eps, eps2, _scan(self.s2, b1, self.s2_passes)

    def value(self, params: np.ndarray, r: np.ndarray) -> float:
        """The negative log-likelihood of the returns `r` at params x = (mu0, phi, omega, a1, b1, eta = 1/nu), the sum
        of -ll_t, ll_t = C(eta) - ln(sigma^2)/2 - (1 + eta) m R(eta m)/2, m = eps^2 / ((1 - 2 eta) sigma^2),
        R(u) = log1p(u)/u, R(0) = 1: eta = 0 is the Gaussian limit, and nothing cancels near it.  It is _PENALTY where
        x is non-finite or not _admissible, or the sigma^2 path is not finite and positive.  Called again at the same
        params (bit for bit) and series, with no filter between, it returns the value it holds."""
        if not self._holds(params, r):
            x = params.tolist()  # Python floats: cheaper scalar arithmetic than numpy's
            self.last = (params.tobytes(), r, x, *self._value(x, r))
        return self.last[3]

    def _holds(self, params: np.ndarray, r: np.ndarray) -> bool:
        return self.last is not None and self.last[0] == params.tobytes() and self.last[1] is r

    def _value(self, x: list[float], r: np.ndarray) -> tuple[float, Optional[tuple]]:
        """(-ll, (eps, eps2, d, m, u, log1p_u, dC/deta)), or (_PENALTY, None).  What overflows (a sigma^2 path too
        small for its residuals) leaves ll non-finite, and so the penalty."""
        mu0, phi, omega, a1, b1, eta = x
        penalty = _PENALTY, None
        if not (all(map(math.isfinite, x)) and _admissible(omega, a1, b1, 1.0 / eta if eta else math.inf)):
            return penalty
        with np.errstate(over="ignore", invalid="ignore"):
            eps, eps2, s2 = self.filter(x, r)
            s2 = s2[:-1]
            if not 0.0 < s2.min() <= s2.max() < math.inf:  # False for NaN
                return penalty
            const, dconst = _t_constant(eta)
            d = s2 * (1.0 - 2.0 * eta)
            m = eps2 / d
            u = m * eta
            log1p_u = np.log1p(u)
            ll = eps.size * const - 0.5 * np.log(s2).sum() - 0.5 * (1.0 + eta) * np.dot(
                m, np.divide(log1p_u, u, out=np.ones_like(u), where=u > 0))
        return (-ll, (eps, eps2, d, m, u, log1p_u, dconst)) if math.isfinite(ll) else penalty

    def _last_at(self, params: np.ndarray, r: np.ndarray) -> tuple:
        """self.last, after a value call at params on r if it holds another point's (bit for bit) or series'."""
        if not self._holds(params, r):
            self.value(params, r)
        return self.last

    def _terms(self, eta: float, terms: tuple) -> tuple[np.ndarray, ...]:
        """The per-observation partials gradient and bhhh share, from the terms of the last value: d ll_t / d sigma^2_t
        = (w_t - 1) / (2 sigma^2_t), w = (1 + eta) m / (1 + u); e_t = d ll_t / d eps_t through eps_t alone; and the
        eta term d ll_t / d eta = C'(eta) + p^2 k - 3 w / (2 (1 + eta)(1 - 2 eta)), where -m^2 R'(u)/2 = p^2 k,
        p = m/(2 + u), k = 1/(1 + z) + z Q, z = u/(2 + u) and Q = (atanh z - z)/z^3, or its series at small z."""
        eps, eps2, d, m, u, log1p_u, _ = terms
        w = m * (1.0 + eta) / (u + 1.0)
        e = eps * -(1.0 + eta) / (d + eps2 * eta)
        p = m / (u + 2.0)
        z = p * eta
        z2 = z * z
        q = ((z2 / 9 + 1 / 7) * z2 + 1 / 5) * z2 + 1 / 3
        np.divide(0.5 * log1p_u - z, z2 * z, out=q, where=z > 0.025)
        return (w - 1.0) * 0.5 / self.s2[:-1], e, w, p * p, 1.0 / (z + 1.0) + z * q

    def gradient(self, params: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The exact gradient of the negative log-likelihood at params (see value), zero at a penalty point:
        g_t = d ll / d sigma^2_t obeys the sigma^2 filter run backwards, g_t = d ll_t / d sigma^2_t + b1 g_{t+1}.  It is
        formed from the terms of the last value call, which runs first if that call was at another point (bit for
        bit) or series, so the result does not depend on the order of calls.  Entries past the float range (a sigma^2
        path far below the residuals, outside the fit's _BOUNDS) read inf or nan."""
        _, _, x, _, terms = self._last_at(params, r)
        if terms is None:
            return np.zeros(6)
        a1, b1, eta = x[3:]
        eps, eps2, *_, dconst = terms
        with np.errstate(over="ignore", invalid="ignore"):
            own, e, w, pp, k = self._terms(eta, terms)
            # the adjoint runs the filter backwards, scanned as a reversed copy: numpy is slower on negative strides
            self.gr[:] = own[::-1]
            g = _scan(self.gr, b1, self.g_passes)[::-1]
            # total derivative in eps_t: its own term, sigma^2_{t+1} through a1 eps^2_t, and s2_init = mean(eps^2)
            e = e + eps * (2.0 * g[0] / eps.size)
            e[:-1] += eps[:-1] * (2.0 * a1) * g[1:]
            g_next = g[1:].copy()  # g_2..g_T in order: np.dot would copy the reversed view to call BLAS
            return -np.array([
                -e.sum(), -np.dot(e, r[:-1]),  # mu0, phi
                g[1:].sum(), np.dot(eps2[:-1], g_next), np.dot(self.s2[:-2], g_next),  # omega, a1, b1
                eps.size * dconst + np.dot(pp, k) - 1.5 * w.sum() / ((1.0 + eta) * (1.0 - 2.0 * eta)),
            ])

    def bhhh(self, params: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The outer product sum_t s_t s_t' of the per-observation scores s_t = d ll_t / d params at params (Berndt,
        Hall, Hall & Hausman, Ann. Econ. Soc. Meas. 3, 1974), zero at a penalty point: positive semidefinite, and near
        the optimum of a well-specified model close to the negative log-likelihood's Hessian.  The sensitivities
        d sigma^2_t / d(mu0, phi, omega, a1, b1) obey the sigma^2 filter's own recurrence with multiplier b1, so all
        five run as one _scan; to them s_t adds eps_t's own terms and the eta term.  Like gradient, it reads the terms
        of the last value call, which runs first if that was elsewhere."""
        _, _, x, _, terms = self._last_at(params, r)
        if terms is None:
            return np.zeros((6, 6))
        a1, b1, eta = x[3:]
        eps, eps2, *_, dconst = terms
        n = eps.size
        scores = np.empty((6, n + 1))  # column t: s_t, the last (sigma^2_{T+1}, the forecast, in no ll_t) zero
        ds2, lag = scores[:5], r[:-1]  # d sigma^2_t / d(mu0, phi, omega, a1, b1), t = 1..T+1
        with np.errstate(over="ignore", invalid="ignore"):
            own, e, w, pp, k = self._terms(eta, terms)
            # sigma^2_1 = mean(eps^2), then omega + a1 eps^2_t + b1 sigma^2_t; d eps_t / d(mu0, phi) = -(1, r_{t-1})
            ds2[:, 0] = -2.0 * eps.sum() / n, -2.0 * np.dot(eps, lag) / n, 0.0, 0.0, 0.0
            ds2[0, 1:] = eps * (-2.0 * a1)
            ds2[1, 1:] = ds2[0, 1:] * lag
            ds2[2, 1:], ds2[3, 1:], ds2[4, 1:] = 1.0, eps2, self.s2[:-1]
            _scan(ds2, b1, _passes(ds2, np.empty_like(ds2)))
            ds2[:, :-1] *= own
            scores[0, :-1] -= e
            scores[1, :-1] -= e * lag
            scores[5, :-1] = k * pp - w * (1.5 / ((1.0 + eta) * (1.0 - 2.0 * eta))) + dconst
            scores[:, -1] = 0.0
            return scores @ scores.T


def _starting_points(r_scaled: np.ndarray) -> list[np.ndarray]:
    return [np.array([float(np.mean(r_scaled)), 0.0, float(np.var(r_scaled)) * (1.0 - 0.05 - 0.90), 0.05, 0.90, 1 / 8])]


# The fit's feasible set: strictly inside _admissible, |phi| < 1, and the Gaussian limit eta = 0 included
_BOUNDS = [(None, None), (-0.999999, 0.999999), (1e-12, None), (0.0, 1.0), (0.0, 1.0), (0.0, 1 / 2.05)]
# alpha1 + beta1 <= 0.999999 - 1e-9, strictly inside covariance stationarity, as (row, upper bound) for _sqp
_STATIONARITY = ((0.0, 0.0, 0.0, 1.0, 1.0, 0.0), 0.999999 - 1e-9)


def minimize(*args, **kwargs):
    """_sqp.minimize, the fit's SQP solver, imported on first call; benchmark/tracing.py wraps this module attribute."""
    from ._sqp import minimize
    return minimize(*args, **kwargs)


def fit_ar_garch(series: ReturnSeries) -> GarchParams:
    """Maximize the Student-t conditional log-likelihood by SQP (see _sqp) from one start (restarted once if it fails).
    It runs on eta = 1/nu with the exact gradient (see _Workspace.value) inside _BOUNDS and _STATIONARITY, on returns
    standardized to unit variance so that every parameter is O(1), and evaluates every point in one _Workspace.  Each
    run's first model of the Hessian is the BHHH matrix at its first point (see _Workspace.bhhh), which puts the
    parameters' curvatures, orders of magnitude apart, in scale: a fit on garch-vol's inputs takes about 14 values
    from it, 35 from B = I.  It reads the value at every point and the gradient only where it asks for one, formed from
    the terms of the value at that point.  A fit that ends at eta = 0 returns nu = inf, the Gaussian limit.  The
    reported log-likelihood is evaluated at the returned parameters on the unscaled returns."""
    if len(series) < 250:
        raise InputError(f"need >= 250 observations to fit, got {len(series)}")
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
    (start,) = _starting_points(z)  # one start: a second would need a fit that runs from each
    seen = [_PENALTY, start]  # the lowest value the solver evaluated, and where
    workspace = _Workspace(z.size)  # for every evaluation of the fit, and for its log-likelihood

    def nll(x, r):
        value = workspace.value(x, r)
        if value < seen[0]:
            seen[:] = value, x.copy()
        return value

    for _ in range(2):  # a run that does not converge restarts once, from the best point it evaluated
        if minimize(nll, seen[1], args=(z,), jac=workspace.gradient, bounds=_BOUNDS, row=_STATIONARITY,
                    maxiter=500, ftol=1e-12, B0=workspace.bhhh(seen[1], z)).success:
            break
    if seen[0] >= _PENALTY:
        raise EstimationError("the optimizer found no parameters with a finite likelihood")

    mu0, phi, omega, a1, b1, eta = seen[1] * np.array([sd, 1.0, var, 1.0, 1.0, 1.0])  # back to returns
    params = GarchParams(ar1=float(phi), mean=float(mu0), omega=float(omega),
                         alpha1=float(a1), beta1=float(b1), nu=float(1.0 / eta) if eta > 0 else math.inf)
    nll = workspace.value(params._vector(), series.returns)
    if nll == _PENALTY:
        raise InputError("likelihood undefined: sigma^2 path is not finite and positive for this series")
    return replace(params, log_likelihood=float(-nll))


def garch_forecast_vol(params: GarchParams, series: ReturnSeries) -> VolEstimate:
    """One-step-ahead conditional sigma: the last entry of the filtered sigma^2 path."""
    with np.errstate(over="ignore", invalid="ignore"):
        s2_next = _Workspace(len(series)).filter(params._vector(), series.returns)[2][-1]
    if not math.isfinite(s2_next) or s2_next <= 0:
        raise InputError("forecast variance is not positive; params invalid for this series")
    return VolEstimate.from_daily("garch", math.sqrt(s2_next), len(series), series.as_of)


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
