"""Closed-form call/put pricing with a predictability dividend yield.

Excess predictability p in [-1, 1] enters the classical lognormal pricer as a
continuous dividend yield q = p * sigma^2: positive p drains value from calls
exactly like a dividend stream, negative p adds it.  p = 0 recovers the
classical formula.  sigma is annualized and tau is in years throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InputError

__all__ = [
    "DAYS_PER_YEAR",
    "PricingInputs",
    "PriceResult",
    "norm_cdf",
    "dividend_yield_due_to_predictability",
    "call_price",
    "put_price",
    "dprice_dp",
]

DAYS_PER_YEAR = 365.0  # calendar-day convention: tau = days / 365, sigma_annual = sigma_daily sqrt(365)
_SQRT2 = math.sqrt(2.0)
_LOG_MAX = math.log(sys.float_info.max)


def _log_ratio(b: float, a: float) -> float:
    """ln(b / a) for b, a > 0.  The log of the quotient keeps the digits ln b - ln a loses for a ~ b; a quotient
    below the normal range (few digits left, or 0) or past it takes ln b - ln a instead."""
    m = b / a
    return math.log(m) if sys.float_info.min <= m < math.inf else math.log(b) - math.log(a)


def _scaled_exp(x: float, y: float) -> float:
    """x e^y as the pricer forms it, and inf where e^y alone would leave the float range."""
    return x * math.exp(y) if y <= _LOG_MAX else math.inf


def norm_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error below 1e-15, exactly 0 at -inf and 1 at +inf."""
    if math.isnan(x):
        raise InputError(f"norm_cdf requires a number, got {x}")
    return 0.5 * math.erfc(-x / _SQRT2)


def dividend_yield_due_to_predictability(p: float, sigma: float) -> float:
    """Continuous yield q = p * sigma^2 induced by excess predictability p; the one check of p and sigma."""
    if not -1.0 <= p <= 1.0:
        raise InputError(f"p must be in [-1, 1], got {p}")
    if not 0.0 <= sigma < math.inf:
        raise InputError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma * sigma == math.inf:
        raise InputError(f"sigma^2 overflows for sigma = {sigma}")
    return p * sigma * sigma


@dataclass(frozen=True)
class PricingInputs:
    """One pricing scenario; p and sigma as dividend_yield_due_to_predictability admits them.

    sigma == 0 and tau == 0 are admitted so calibration grids may touch
    expiry; the closed form then takes its no-diffusion limit.  The p = -1
    forward S e^{sigma^2 tau} and the discounted strike K e^{-r tau} must be
    finite floats: they bound every term of the closed form at any p.
    """

    spot: float
    strike: float
    tau: float
    rate: float
    sigma: float
    p: float = 0.0

    def __post_init__(self):
        vals = (self.spot, self.strike, self.tau, self.rate, self.sigma, self.p)
        if not all(map(math.isfinite, vals)):
            raise InputError("pricing inputs must be finite")
        if self.spot <= 0 or self.strike <= 0:
            raise InputError("spot and strike must be > 0")
        if self.tau < 0:
            raise InputError("tau must be >= 0")
        dividend_yield_due_to_predictability(self.p, self.sigma)
        if (_scaled_exp(self.spot, self.sigma * self.sigma * self.tau) == math.inf
                or _scaled_exp(self.strike, -self.rate * self.tau) == math.inf):
            raise InputError("scenario out of the float range: S e^{sigma^2 tau} and "
                             "K e^{-r tau} must be finite")

    @property
    def dividend_yield(self) -> float:
        return self.p * self.sigma * self.sigma  # p and sigma were checked on construction


@dataclass(frozen=True)
class PriceResult:
    """A price with its d_+- = [ln(S e^{-q tau} / (K e^{-r tau})) +- sigma^2 tau / 2] / (sigma sqrt(tau)).

    Without diffusion both take the formula's limit: +inf where S e^{-q tau} > K e^{-r tau}, else -inf.
    """

    price: float
    d_plus: float
    d_minus: float
    dividend_yield: float


def _p_free_terms(inputs: PricingInputs) -> tuple:
    """(S, ln(S/K), sigma sqrt(tau), sigma^2 tau / 2, K e^{-r tau}, -sigma^2 tau S, sigma, tau, r)."""
    s, k, tau, rate, sigma = inputs.spot, inputs.strike, inputs.tau, inputs.rate, inputs.sigma
    return (s, _log_ratio(s, k), sigma * math.sqrt(tau), 0.5 * sigma * sigma * tau,
            k * math.exp(-rate * tau), -sigma * sigma * tau * s, sigma, tau, rate)


def _closed_form(terms: tuple, p: float, w: int = 1) -> tuple[float, float, float, float]:
    """(price, d_+, d_-, dC/dp) at p on Python floats: the one statement of the closed form.

    w = +1 prices the call, w = -1 the put: w (S e^{-q tau} Phi(w d_+) - K e^{-r tau} Phi(w d_-)), with
    d_+- as PriceResult states them; without diffusion that is the discounted forward payoff.  Deep
    out of the money the two terms can cancel to a few ulp below zero, so the price is floored at 0.
    The slope is the call's at either w.  The calibration solve calls this once per iterate.
    """
    s, log_m, sig_sqrt_tau, half_var, disc_strike, neg_var_spot, sigma, tau, rate = terms
    q = p * sigma * sigma
    growth = math.exp(-q * tau)
    if sig_sqrt_tau == 0.0:
        dp = dm = math.inf if s * growth - disc_strike > 0 else -math.inf
    else:
        log_fwd = log_m + (rate - q) * tau
        dp, dm = (log_fwd + half_var) / sig_sqrt_tau, (log_fwd - half_var) / sig_sqrt_tau
    phi_plus = norm_cdf(dp)
    price = w * (s * growth * (phi_plus if w == 1 else norm_cdf(-dp)) - disc_strike * norm_cdf(w * dm))
    return price if price > 0.0 else 0.0, dp, dm, neg_var_spot * growth * phi_plus


def _price(inputs: PricingInputs, w: int) -> PriceResult:
    price, dp, dm, _ = _closed_form(_p_free_terms(inputs), inputs.p, w)
    return PriceResult(price=price, d_plus=dp, d_minus=dm, dividend_yield=inputs.dividend_yield)


def call_price(inputs: PricingInputs) -> PriceResult:
    """Call value S e^{-q tau} Phi(d_+) - K e^{-r tau} Phi(d_-) with q = p sigma^2."""
    return _price(inputs, 1)


def put_price(inputs: PricingInputs) -> PriceResult:
    """Put value K e^{-r tau} Phi(-d_-) - S e^{-q tau} Phi(-d_+).

    Equal to dividend-adjusted parity P = C - S e^{-q tau} + K e^{-r tau},
    without the cancellation that computing it from C would add.
    """
    return _price(inputs, -1)


def dprice_dp(inputs: PricingInputs) -> float:
    """Analytic dC/dp = -sigma^2 tau S e^{-p sigma^2 tau} Phi(d_+); -0.0 without diffusion.

    Up to sigma^2 tau times the p = -1 forward, so it can overflow where the price does not.
    """
    slope = _closed_form(_p_free_terms(inputs), inputs.p)[3]
    if slope == -math.inf:
        raise InputError("dC/dp overflows the float range")
    return slope
