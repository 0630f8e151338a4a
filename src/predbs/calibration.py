"""Back out excess predictability from market call prices.

The call price is continuous, strictly decreasing and convex in p, so on
[-1, 1] the equation model(p) = market has at most one root, which Newton
from p = -1 reaches without overshooting; the stop on p is
P_TOL + 8 ulp(1) |p|, and a solved quote reports the price of the Newton step
that found its root.  Quotes priced above the p = -1 model value or below the
p = +1 value clamp to the boundary with an explicit flag, which is what
produces the flat plateaus of a predictability surface.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from datetime import date
from operator import attrgetter
from typing import Optional

from .errors import InputError, QuoteRejectedError
from .pricing import DAYS_PER_YEAR, PricingInputs, _closed_form, _p_free_terms, call_price

__all__ = [
    "ClampStatus",
    "CalibrationPoint",
    "PredictabilitySurface",
    "SurfaceDiff",
    "implied_excess_predictability",
    "build_surface",
    "surface_diff",
]

P_TOL = 1e-10  # absolute tolerance on the root p
_ULP8 = 8 * math.ulp(1.0)  # relative tolerance on the root p
_NEWTON_STEPS = 40  # then bisect: 35 halvings narrow [-1, 1] below P_TOL


class ClampStatus(str, enum.Enum):
    __str__ = str.__str__  # str(flag), '%s' % flag and format(flag) are its value, as enum.StrEnum (3.11) makes them
    NONE = "none"
    AT_MINUS_ONE = "at_minus_one"
    AT_PLUS_ONE = "at_plus_one"


@dataclass(frozen=True)
class CalibrationPoint:
    moneyness: float
    tau: float
    p: float
    clamped: ClampStatus
    market_price: float
    model_price: float
    residual: float

    def __post_init__(self):
        if not -1.0 <= self.p <= 1.0:
            raise InputError(f"calibrated p must be in [-1, 1], got {self.p}")
        if not 0.0 < self.moneyness < math.inf:
            raise InputError(f"moneyness spot/strike must be finite and > 0, got {self.moneyness}")


def implied_excess_predictability(
    market_price: float,
    spot: float,
    strike: float,
    tau: float,
    rate: float,
    sigma: float,
) -> CalibrationPoint:
    """Solve model(p) = market_price for p in [-1, 1], clamping at the band edges.

    Raises InputError for a bad scenario, whatever the quote, and
    QuoteRejectedError when the quote sits outside even the deterministic
    no-arbitrage band of the pricer (above S e^{sigma^2 tau}, or not a
    positive price).

    The guarantee is on p.  For a quote priced at p to a normal float C,
    |p_hat - p| <= P_TOL + 8 ulp(1) |p| + 2 E(C) / |dC/dp|: P_TOL + 8 ulp(1) |p|
    is the Newton stop, and E(C) = ulp(A) (1 + m(d_+) D) + ulp(B) (1 + m(d_-) D)
    is the pricer's rounding of C = A - B, with A = S e^{-q tau} Phi(d_+),
    B = K e^{-r tau} Phi(d_-), m(d) = phi(d) / Phi(d) and
    D = (|ln(S/K)| + |(r - q) tau| + sigma^2 tau / 2) / (sigma sqrt(tau)).
    The price residual is about |dC/dp| (P_TOL + 8 ulp(1) |p|) plus that
    rounding; |dC/dp| = sigma^2 tau S e^{-q tau} Phi(d_+) can be large, so it
    is not bounded by any fixed fraction of spot.
    """
    inputs = PricingInputs(spot=spot, strike=strike, tau=tau, rate=rate, sigma=sigma, p=-1.0)
    hi = call_price(inputs).price  # p = -1 maximizes the call (negative dividend yield)
    if not math.isfinite(market_price):
        raise InputError(f"market price must be finite, got {market_price}")
    if market_price <= 0:
        raise QuoteRejectedError(f"market price must be > 0, got {market_price}")
    if sigma * math.sqrt(tau) == 0.0:
        # price is p-independent without diffusion: the root is not identified
        raise InputError("implied p is not identifiable at sigma*sqrt(tau) == 0")

    upper_bound = spot * math.exp(sigma * sigma * tau)  # S e^{-q tau} at q = -sigma^2
    if market_price > upper_bound:
        raise QuoteRejectedError(
            f"quote {market_price} above the p=-1 no-arbitrage bound {upper_bound}"
        )

    # the band edges price through call_price, the iterates through _closed_form on the same p-free terms
    if market_price > hi:
        p, flag, model = -1.0, ClampStatus.AT_MINUS_ONE, hi
    elif market_price < (lo := call_price(PricingInputs(spot=spot, strike=strike, tau=tau, rate=rate,
                                                         sigma=sigma, p=1.0)).price):
        p, flag, model = 1.0, ClampStatus.AT_PLUS_ONE, lo
    elif market_price == lo != hi:  # a quote at C(+1) is that edge; at C(-1) Newton stops at once
        p, flag, model = 1.0, ClampStatus.NONE, lo
    else:
        (p, model), flag = _newton(_p_free_terms(inputs), market_price), ClampStatus.NONE
    return CalibrationPoint(spot / strike, tau, p, flag, market_price, model, model - market_price)


def _newton(terms: tuple, market: float) -> tuple[float, float]:
    """The root p of C(p) = market for a quote with C(-1) >= market > C(+1), and C(p) there.

    C decreases and is convex in p (the normalized call is convex in ln(F/K), which is linear
    in p), so Newton from -1 climbs to the root without overshooting it.  The iterate is
    returned once its step is at most half the stop P_TOL + 8 ulp(1) |p|, so a root within
    that of -1 comes back as -1.0.  A step out of the bracket [a, b] (rounding, or a slope that
    underflows) and every step after the first _NEWTON_STEPS bisect it instead; a bracket
    narrower than the stop ends the solve at the iterate just priced.  The price returned is the
    last one _closed_form formed, which is call_price's at the root: the terms do not depend on p.
    """
    a, b = -1.0, 1.0  # C(a) >= market > C(b)
    x = -1.0
    price, _, _, slope = _closed_form(terms, x)
    for n in itertools.count():
        if price == market:
            return x, price
        stop = P_TOL + _ULP8 * abs(x)
        step = (price - market) / slope if -math.inf < slope < 0.0 else math.inf
        if abs(step) <= 0.5 * stop:
            return x, price
        x -= step
        if not a < x < b or n >= _NEWTON_STEPS:
            x = 0.5 * (a + b)
        price, _, _, slope = _closed_form(terms, x)
        if price > market:
            a = x
        else:
            b = x
        if b - a <= stop:
            return x, price


@dataclass(frozen=True)
class PredictabilitySurface:
    """Calibrated p over a (moneyness, tau) grid for one sigma estimate."""

    method: str
    spot: float
    rate: float
    as_of: Optional[date]
    points: tuple[CalibrationPoint, ...]
    failures: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "failures", tuple(self.failures))
        if not (0.0 < self.spot < math.inf and math.isfinite(self.rate)):
            raise InputError(f"surface spot must be finite and > 0 and rate finite, got {self.spot} and {self.rate}")
        keys = [(pt.moneyness, pt.tau) for pt in self.points]
        if len(set(keys)) != len(keys):
            raise InputError("surface grid points must be unique in (moneyness, tau)")

    def __len__(self) -> int:
        return len(self.points)

    def grid(self) -> dict[tuple[float, float], CalibrationPoint]:
        return {(pt.moneyness, pt.tau): pt for pt in self.points}

    def clamp_counts(self) -> dict[str, int]:
        counts = Counter(map(attrgetter("clamped"), self.points))  # by member: each .value is read once
        return {s.value: counts[s] for s in ClampStatus}


def build_surface(chain, rate: float, vol) -> PredictabilitySurface:
    """Calibrate every call quote of an option chain (a data_io.OptionChain) into a surface.

    vol supplies sigma_annual and method, as a volatility.VolEstimate does.
    Mid price is (bid+ask)/2, moneyness chain.spot/strike, tau calendar days
    to expiry / 365.  Quotes that cannot be calibrated (zero mids, rejected
    prices, a spot/strike outside the float range) are recorded in `failures`, not fatal.
    """
    if not math.isfinite(rate):
        raise InputError("risk_free_rate must be finite")
    spot = chain.spot
    quotes = [q for q in chain.quotes if q.right == "call"]
    if not quotes:
        raise InputError("option chain has no call quotes")
    sigma = vol.sigma_annual

    points: list[CalibrationPoint] = []
    failures: list[str] = []
    seen: set[tuple[float, float]] = set()
    for q in sorted(quotes, key=lambda q: (q.expiry_date, q.strike)):
        tau = (q.expiry_date - chain.quote_date).days / DAYS_PER_YEAR
        key = (spot / q.strike, tau)
        mid = q.mid
        if key in seen:
            failure = "duplicate (moneyness, tau) grid point, skipped"
        elif mid <= 0:
            failure = f"non-positive mid {mid}, skipped"
        else:
            try:
                pt = implied_excess_predictability(mid, spot, q.strike, tau, rate, sigma)
            except (InputError, QuoteRejectedError) as exc:
                failure = exc
            else:
                seen.add(key)
                points.append(pt)
                continue
        failures.append(f"expiry={q.expiry_date} strike={q.strike}: {failure}")
    return PredictabilitySurface(
        method=vol.method, spot=spot, rate=rate, as_of=chain.quote_date,
        points=tuple(points), failures=tuple(failures),
    )


@dataclass(frozen=True)
class SurfaceDiff:
    """Pointwise p_other - p_base on the grid intersection of two surfaces."""

    base_method: str
    other_method: str
    points: tuple[tuple[float, float, float], ...]  # (moneyness, tau, dp)


def surface_diff(base: PredictabilitySurface, other: PredictabilitySurface) -> SurfaceDiff:
    if base.spot != other.spot or base.rate != other.rate or base.as_of != other.as_of:
        raise InputError("surfaces must share spot, rate and as_of to difference")
    base_grid = base.grid()
    other_grid = other.grid()
    # (tau asc, moneyness desc) == (expiry, strike) order, matching build_surface
    common = sorted(set(base_grid) & set(other_grid), key=lambda k: (k[1], -k[0]))
    if not common:
        raise InputError("surfaces have no common (moneyness, tau) grid points")
    pts = tuple((m, t, other_grid[(m, t)].p - base_grid[(m, t)].p) for m, t in common)
    return SurfaceDiff(base_method=base.method, other_method=other.method, points=pts)
