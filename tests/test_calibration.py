import math
from datetime import date

import numpy as np
import pytest

from predbs.calibration import (
    P_TOL,
    ClampStatus,
    PredictabilitySurface,
    build_surface,
    implied_excess_predictability,
    surface_diff,
)
from predbs.data_io import OptionChain, OptionQuote
from predbs.errors import InputError, QuoteRejectedError
from predbs.pricing import PricingInputs, call_price, dprice_dp
from predbs.volatility import VolEstimate


def model_price(spot, strike, tau, rate, sigma, p):
    return call_price(PricingInputs(spot=spot, strike=strike, tau=tau,
                                    rate=rate, sigma=sigma, p=p)).price


BASE = dict(spot=100.0, strike=100.0, tau=0.5, rate=0.03, sigma=0.2)


# ----------------------------------------------------------- single quote

def test_round_trip_p_zero():
    target = model_price(p=0.0, **BASE)
    point = implied_excess_predictability(target, **BASE)
    assert point.clamped is ClampStatus.NONE
    assert point.p == pytest.approx(0.0, abs=1e-9)


def test_round_trip_p_half():
    target = model_price(p=0.5, **BASE)
    point = implied_excess_predictability(target, **BASE)
    assert point.p == pytest.approx(0.5, abs=1e-8)
    assert abs(point.residual) <= 1e-9 * BASE["spot"]


def test_round_trip_randomized_grid():
    rng = np.random.default_rng(21)
    for _ in range(100):
        spot = rng.uniform(50, 250)
        kw = dict(
            spot=spot, strike=spot * rng.uniform(0.6, 1.6),
            tau=rng.uniform(0.02, 2.0), rate=rng.uniform(-0.01, 0.08),
            sigma=rng.uniform(0.05, 0.6),
        )
        p_true = rng.uniform(-0.999, 0.999)
        point = implied_excess_predictability(model_price(p=p_true, **kw), **kw)
        assert point.clamped is ClampStatus.NONE
        assert point.p == pytest.approx(p_true, abs=1e-8)
        assert abs(point.residual) <= 1e-9 * kw["spot"]


def test_clamp_low_side():
    # price above the p=-1 model value but below the no-arbitrage cap
    hi = model_price(p=-1.0, **BASE)
    cap = BASE["spot"] * math.exp(BASE["sigma"] ** 2 * BASE["tau"])
    target = (hi + cap) / 2.0
    point = implied_excess_predictability(target, **BASE)
    assert point.clamped is ClampStatus.AT_MINUS_ONE
    assert point.p == -1.0


def test_clamp_high_side():
    lo = model_price(p=1.0, **BASE)
    point = implied_excess_predictability(lo * 0.5, **BASE)
    assert point.clamped is ClampStatus.AT_PLUS_ONE
    assert point.p == 1.0


def test_quote_rejected_above_no_arb():
    cap = BASE["spot"] * math.exp(BASE["sigma"] ** 2 * BASE["tau"])
    with pytest.raises(QuoteRejectedError):
        implied_excess_predictability(cap * 1.01, **BASE)


def test_quote_rejected_nonpositive():
    with pytest.raises(QuoteRejectedError):
        implied_excess_predictability(0.0, **BASE)
    with pytest.raises(QuoteRejectedError):
        implied_excess_predictability(-3.0, **BASE)


@pytest.mark.parametrize("spot, strike", [(1e-300, 1e300), (1e300, 1e-300)])
def test_extreme_moneyness_calibrates(spot, strike):
    # spot / strike under- or overflows; the deep in-the-money call still identifies p
    kw = dict(spot=spot, strike=strike, tau=1.0, rate=0.05, sigma=0.2)
    if spot > strike:
        point = implied_excess_predictability(call_price(PricingInputs(p=0.3, **kw)).price, **kw)
        assert point.clamped is ClampStatus.NONE
        assert point.p == pytest.approx(0.3, abs=1e-9)
    else:  # every model price underflows to 0: any positive quote clamps at p = -1
        point = implied_excess_predictability(1e-301, **kw)
        assert point.clamped is ClampStatus.AT_MINUS_ONE and point.model_price == 0.0


def test_zero_diffusion_not_identifiable():
    with pytest.raises(InputError):
        implied_excess_predictability(5.0, spot=100.0, strike=100.0, tau=0.5,
                                      rate=0.03, sigma=0.0)
    with pytest.raises(InputError):
        implied_excess_predictability(5.0, spot=100.0, strike=100.0, tau=0.0,
                                      rate=0.03, sigma=0.2)


@pytest.mark.parametrize("args, error", [
    ((math.nan, 100.0, 100.0, 0.5, 0.03, 0.2), InputError),
    ((-1.0, math.nan, 100.0, 0.5, 0.03, 0.2), InputError),       # finiteness before price sign
    ((0.0, 100.0, 100.0, 0.5, 0.03, math.inf), InputError),
    ((-1.0, -5.0, 100.0, 0.5, 0.03, 0.2), QuoteRejectedError),   # price sign before spot sign
    ((0.0, 100.0, 100.0, -1.0, 0.03, 0.2), QuoteRejectedError),
    ((5.0, -5.0, 100.0, 0.5, 0.03, 0.2), InputError),
    ((5.0, 100.0, 0.0, 0.5, 0.03, 0.2), InputError),              # validated before spot / strike
    ((5.0, 100.0, 100.0, -0.5, 0.03, 0.2), InputError),
    ((5.0, 100.0, 100.0, 0.5, 0.03, -0.2), InputError),
    ((500.0, 100.0, 100.0, 0.5, 0.03, 0.2), QuoteRejectedError),
])
def test_invalid_quote_error_class(args, error):
    with pytest.raises(error):
        implied_excess_predictability(*args)


@pytest.mark.parametrize("market_price, kw", [
    # |dC/dp| ~ 2e5 at the root: the residual is 1.07e-7 x spot, yet within the p tolerance
    (24551.999490991522, dict(spot=23.996390678636494, strike=19.71372348926691, tau=2.912998964644583,
                              rate=0.07942521166767266, sigma=1.727380559142743)),
    (model_price(p=0.3, **BASE), BASE),
])
def test_residual_within_p_tolerance_bound(market_price, kw):
    pt = implied_excess_predictability(market_price, **kw)
    assert pt.clamped is ClampStatus.NONE
    slope = abs(dprice_dp(PricingInputs(p=pt.p, **kw)))
    rounding = 16 * math.ulp(max(kw["spot"] * math.exp(kw["sigma"] ** 2 * kw["tau"]), kw["strike"]))
    assert abs(pt.residual) <= slope * (P_TOL + 8 * math.ulp(1.0) * abs(pt.p)) + rounding


def test_expired_quote_recorded_as_failure_not_fatal():
    qd = date(2015, 1, 2)
    live = OptionQuote(quote_date=qd, expiry_date=date(2015, 4, 2), strike=100.0,
                       right="call", bid=9.0, ask=9.2)
    expired = OptionQuote(quote_date=qd, expiry_date=qd, strike=100.0,
                          right="call", bid=6.0, ask=6.2)
    chain = OptionChain(quote_date=qd, spot=100.0, quotes=(live, expired))
    vol = VolEstimate.from_daily("realized", 0.2 / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=0.02, vol=vol)
    assert len(surface) == 1
    assert len(surface.failures) == 1
    assert "identifiable" in surface.failures[0]


def test_monotone_response_to_market_price():
    prices = np.linspace(model_price(p=1.0, **BASE) * 0.5,
                         model_price(p=-1.0, **BASE) * 1.02, 40)
    ps = [implied_excess_predictability(float(c), **BASE).p for c in prices]
    assert all(b <= a + 1e-12 for a, b in zip(ps, ps[1:]))


# ---------------------------------------------------------------- surface

def synthetic_chain(spot, rate, sigma, p_of_m, moneyness_grid, expiries, quote_date):
    quotes = []
    for expiry in expiries:
        tau = (expiry - quote_date).days / 365.0
        for m in moneyness_grid:
            strike = spot / m
            p_true = p_of_m(m)
            c = model_price(spot=spot, strike=strike, tau=tau, rate=rate,
                            sigma=sigma, p=p_true)
            quotes.append(OptionQuote(quote_date=quote_date, expiry_date=expiry,
                                      strike=strike, right="call", bid=c, ask=c))
    return OptionChain(quote_date=quote_date, spot=spot, quotes=tuple(quotes))


P_STAR = lambda m: max(-1.0, min(1.0, 5.0 * (m - 0.95)))


def test_surface_recovers_generator_profile():
    spot, rate, sigma = 206.38, 0.0212, 0.15
    qd = date(2015, 1, 2)
    expiries = [date(2015, 3, 20), date(2015, 6, 19)]
    grid = np.round(np.linspace(0.60, 1.30, 15), 4)
    chain = synthetic_chain(spot, rate, sigma, P_STAR, grid, expiries, qd)
    vol = VolEstimate.from_daily("realized", sigma / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=rate, vol=vol)
    assert len(surface) == len(chain.quotes)
    assert not surface.failures
    for pt in surface.points:
        p_true = P_STAR(pt.moneyness)
        if abs(p_true) < 1.0:
            assert pt.p == pytest.approx(p_true, abs=1e-6)
        else:
            assert pt.p == pytest.approx(p_true, abs=1e-9)


def test_surface_single_quote():
    qd = date(2015, 1, 2)
    chain = synthetic_chain(100.0, 0.02, 0.2, lambda m: 0.0, [1.0], [date(2015, 4, 2)], qd)
    vol = VolEstimate.from_daily("historical", 0.2 / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=0.02, vol=vol)
    assert len(surface) == 1


def test_surface_moneyness_nondecreasing_with_increasing_generator():
    spot, rate, sigma = 100.0, 0.02, 0.25
    qd = date(2015, 1, 2)
    grid = np.linspace(0.7, 1.25, 12)
    chain = synthetic_chain(spot, rate, sigma, P_STAR, grid, [date(2015, 5, 1)], qd)
    vol = VolEstimate.from_daily("realized", sigma / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=rate, vol=vol)
    by_m = sorted(surface.points, key=lambda pt: pt.moneyness)
    ps = [pt.p for pt in by_m]
    assert all(b >= a - 1e-9 for a, b in zip(ps, ps[1:]))


def test_surface_determinism():
    qd = date(2015, 1, 2)
    chain = synthetic_chain(100.0, 0.02, 0.2, P_STAR, np.linspace(0.7, 1.3, 8),
                            [date(2015, 4, 2)], qd)
    vol = VolEstimate.from_daily("realized", 0.2 / math.sqrt(365.0), 252, qd)
    a = build_surface(chain, rate=0.02, vol=vol)
    b = build_surface(chain, rate=0.02, vol=vol)
    assert a == b


def test_surface_records_failures_not_fatal():
    qd = date(2015, 1, 2)
    expiry = date(2015, 4, 2)
    good = OptionQuote(quote_date=qd, expiry_date=expiry, strike=100.0,
                       right="call", bid=9.0, ask=9.2)
    stale = OptionQuote(quote_date=qd, expiry_date=expiry, strike=120.0,
                        right="call", bid=0.0, ask=0.0)
    chain = OptionChain(quote_date=qd, spot=100.0, quotes=(good, stale))
    vol = VolEstimate.from_daily("realized", 0.2 / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=0.02, vol=vol)
    assert len(surface) == 1
    assert len(surface.failures) == 1
    assert "non-positive mid" in surface.failures[0]


def test_surface_records_duplicate_grid_point():
    # build_surface: `failures.append(f"{label}: duplicate (moneyness, tau) grid point, skipped")`
    qd = date(2015, 1, 2)
    quote = OptionQuote(quote_date=qd, expiry_date=date(2015, 4, 2), strike=100.0,
                        right="call", bid=9.0, ask=9.2)
    chain = OptionChain(quote_date=qd, spot=100.0, quotes=(quote, quote))
    vol = VolEstimate.from_daily("realized", 0.2 / math.sqrt(365.0), 252, qd)
    surface = build_surface(chain, rate=0.02, vol=vol)
    assert len(surface) == 1
    assert surface.failures == ("expiry=2015-04-02 strike=100.0: duplicate (moneyness, tau) grid point, skipped",)


def test_surface_requires_calls():
    qd = date(2015, 1, 2)
    put = OptionQuote(quote_date=qd, expiry_date=date(2015, 4, 2), strike=100.0,
                      right="put", bid=5.0, ask=5.2)
    chain = OptionChain(quote_date=qd, spot=100.0, quotes=(put,))
    vol = VolEstimate.from_daily("realized", 0.01, 252, qd)
    with pytest.raises(InputError):
        build_surface(chain, rate=0.02, vol=vol)


# ------------------------------------------------------------------- diff

def make_surface(sigma, qd=date(2015, 1, 2), method="realized"):
    chain = synthetic_chain(100.0, 0.02, sigma, P_STAR, np.linspace(0.8, 1.2, 9),
                            [date(2015, 4, 2)], qd)
    vol = VolEstimate.from_daily(method, sigma / math.sqrt(365.0), 252, qd)
    return build_surface(chain, rate=0.02, vol=vol)


def test_diff_with_itself_is_zero():
    s = make_surface(0.2)
    diff = surface_diff(s, s)
    assert len(diff.points) == len(s)
    assert all(dp == 0.0 for _, _, dp in diff.points)


def test_diff_sign_matches_direct_recomputation():
    qd = date(2015, 1, 2)
    expiry = date(2015, 4, 2)
    spot, rate = 100.0, 0.02
    sigma_lo, sigma_hi = 0.18, 0.24
    chain = synthetic_chain(spot, rate, sigma_lo, P_STAR, np.linspace(0.85, 1.1, 7),
                            [expiry], qd)
    lo = build_surface(chain, rate, VolEstimate.from_daily("realized", sigma_lo / math.sqrt(365.0), 252, qd))
    hi = build_surface(chain, rate, VolEstimate.from_daily("vix", sigma_hi / math.sqrt(365.0), None, qd))
    diff = surface_diff(lo, hi)
    assert diff.base_method == "realized"
    assert diff.other_method == "vix"
    lo_grid, hi_grid = lo.grid(), hi.grid()
    for m, t, dp in diff.points:
        direct = hi_grid[(m, t)].p - lo_grid[(m, t)].p
        assert dp == direct


def test_diff_requires_matching_metadata():
    a = make_surface(0.2, qd=date(2015, 1, 2))
    b = make_surface(0.2, qd=date(2015, 1, 5))
    with pytest.raises(InputError):
        surface_diff(a, b)


def test_diff_requires_overlap():
    qd = date(2015, 1, 2)
    c1 = synthetic_chain(100.0, 0.02, 0.2, P_STAR, [0.9], [date(2015, 4, 2)], qd)
    c2 = synthetic_chain(100.0, 0.02, 0.2, P_STAR, [1.1], [date(2015, 4, 2)], qd)
    vol = VolEstimate.from_daily("realized", 0.2 / math.sqrt(365.0), 252, qd)
    s1 = build_surface(c1, 0.02, vol)
    s2 = build_surface(c2, 0.02, vol)
    with pytest.raises(InputError):
        surface_diff(s1, s2)


def test_surface_grid_uniqueness_enforced():
    pt = implied_excess_predictability(model_price(p=0.2, **BASE), **BASE)
    with pytest.raises(InputError):
        PredictabilitySurface(method="realized", spot=100.0, rate=0.02,
                              as_of=date(2015, 1, 2), points=(pt, pt))
