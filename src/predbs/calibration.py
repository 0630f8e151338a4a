"""Back out excess predictability from market call prices.

The call price is continuous and strictly decreasing in p, so on [-1, 1]
the equation model(p) = market has at most one root: bracket it and hand
it to Brent.  Quotes priced above the p = -1 model value or below the
p = +1 value clamp to the boundary with an explicit flag, which is what
produces the flat plateaus of a predictability surface.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from datetime import date
from typing import Optional

from .errors import InputError, QuoteRejectedError
from .pricing import PricingInputs, call_price
from .volatility import DAYS_PER_YEAR, VolEstimate

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


class ClampStatus(str, enum.Enum):
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
    is Brent's tolerance, and E(C) = ulp(A) (1 + m(d_+) D) + ulp(B) (1 + m(d_-) D)
    is the pricer's rounding of C = A - B, with A = S e^{-q tau} Phi(d_+),
    B = K e^{-r tau} Phi(d_-), m(d) = phi(d) / Phi(d) and
    D = (|ln(S/K)| + |(r - q) tau| + sigma^2 tau / 2) / (sigma sqrt(tau)).
    The price residual is about |dC/dp| (P_TOL + 8 ulp(1) |p|) plus that
    rounding; |dC/dp| = sigma^2 tau S e^{-q tau} Phi(d_+) can be large, so it
    is not bounded by any fixed fraction of spot.
    """
    def model(p: float) -> float:
        return call_price(PricingInputs(spot=spot, strike=strike, tau=tau,
                                        rate=rate, sigma=sigma, p=p)).price

    hi = model(-1.0)  # p = -1 maximizes the call (negative dividend yield); checks the scenario
    if not math.isfinite(market_price):
        raise InputError(f"market price must be finite, got {market_price}")
    if market_price <= 0:
        raise QuoteRejectedError(f"market price must be > 0, got {market_price}")
    if sigma * math.sqrt(tau) == 0.0:
        # price is p-independent without diffusion: the root is not identified
        raise InputError("implied p is not identifiable at sigma*sqrt(tau) == 0")
    lo = model(+1.0)
    moneyness = spot / strike

    upper_bound = spot * math.exp(sigma * sigma * tau)  # S e^{-q tau} at q = -sigma^2
    if market_price > upper_bound:
        raise QuoteRejectedError(
            f"quote {market_price} above the p=-1 no-arbitrage bound {upper_bound}"
        )

    if market_price > hi:
        return CalibrationPoint(moneyness, tau, -1.0, ClampStatus.AT_MINUS_ONE,
                                market_price, hi, hi - market_price)
    if market_price < lo:
        return CalibrationPoint(moneyness, tau, +1.0, ClampStatus.AT_PLUS_ONE,
                                market_price, lo, lo - market_price)

    from scipy.optimize import brentq

    # model(p) - market changes sign over [-1, 1]; decreasing in p.
    f = lambda p: model(p) - market_price
    root = brentq(f, -1.0, 1.0, xtol=P_TOL, rtol=8 * math.ulp(1.0), maxiter=200)
    root = min(1.0, max(-1.0, float(root)))
    model_at_root = model(root)
    residual = model_at_root - market_price
    return CalibrationPoint(moneyness, tau, root, ClampStatus.NONE,
                            market_price, model_at_root, residual)


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
        keys = [(pt.moneyness, pt.tau) for pt in self.points]
        if len(set(keys)) != len(keys):
            raise InputError("surface grid points must be unique in (moneyness, tau)")

    def __len__(self) -> int:
        return len(self.points)

    def grid(self) -> dict[tuple[float, float], CalibrationPoint]:
        return {(pt.moneyness, pt.tau): pt for pt in self.points}

    def clamp_counts(self) -> dict[str, int]:
        counts = {s.value: 0 for s in ClampStatus}
        for pt in self.points:
            counts[pt.clamped.value] += 1
        return counts


def build_surface(chain, rate: float, vol: VolEstimate) -> PredictabilitySurface:
    """Calibrate every call quote of an option chain into a surface.

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
        label = f"expiry={q.expiry_date} strike={q.strike}"
        if key in seen:
            failures.append(f"{label}: duplicate (moneyness, tau) grid point, skipped")
            continue
        if q.mid <= 0:
            failures.append(f"{label}: non-positive mid {q.mid}, skipped")
            continue
        try:
            pt = implied_excess_predictability(q.mid, spot, q.strike, tau, rate, sigma)
        except (InputError, QuoteRejectedError) as exc:
            failures.append(f"{label}: {exc}")
            continue
        seen.add(key)
        points.append(pt)
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
