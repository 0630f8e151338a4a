import math
import sys
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import log_ndtr

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
from predbs.pricing import PricingInputs, call_price, d_plus_minus, dprice_dp, norm_cdf
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


@pytest.mark.parametrize("spot, strike", [(1e-150, 1e150), (1e150, 1e-150)])
def test_extreme_moneyness_calibrates(spot, strike):
    # spot / strike is 1e-300 or 1e300; the deep in-the-money call still identifies p
    kw = dict(spot=spot, strike=strike, tau=1.0, rate=0.05, sigma=0.2)
    if spot > strike:
        point = implied_excess_predictability(call_price(PricingInputs(p=0.3, **kw)).price, **kw)
        assert point.clamped is ClampStatus.NONE
        assert point.p == pytest.approx(0.3, abs=1e-9)
    else:  # every model price underflows to 0: any positive quote clamps at p = -1
        point = implied_excess_predictability(1e-301, **kw)
        assert point.clamped is ClampStatus.AT_MINUS_ONE and point.model_price == 0.0
    assert point.moneyness == spot / strike


@pytest.mark.parametrize("spot, strike", [(1e-300, 1e300), (1e300, 1e-300)])
def test_moneyness_outside_the_float_range_is_refused(spot, strike):
    # spot / strike underflows to 0 or overflows to inf: a surface could not hold or write the point
    with pytest.raises(InputError, match="moneyness spot/strike must be finite and > 0"):
        implied_excess_predictability(1e-301 if spot < strike else 1.0, spot, strike, 1.0, 0.05, 0.2)


def test_a_first_slope_that_overflows_bisects_instead_of_stepping():
    # at p = -1 dC/dp = -sigma^2 tau S e^{sigma^2 tau} Phi(d_+) overflows to -inf: that slope takes no Newton step,
    # so the solve bisects to the root p = 0 (a step of -0.0 from it would return -1.0 with model price 1e307)
    s = 1e307 / math.exp(100)
    point = implied_excess_predictability(3.7200738432895837e+263, s, s, 1.0, 0.0, 10.0)
    assert point.p == 0.0 and point.clamped is ClampStatus.NONE


def test_quote_whose_moneyness_overflows_is_a_surface_failure():
    qd = date(2015, 1, 2)
    quotes = tuple(OptionQuote(quote_date=qd, expiry_date=date(2016, 1, 2), strike=strike,
                               right="call", bid=bid, ask=bid) for strike, bid in ((1e300, 1e299), (1e-300, 1e300)))
    chain = OptionChain(quote_date=qd, spot=1e300, quotes=quotes)
    surface = build_surface(chain, rate=0.02, vol=VolEstimate.from_daily("vix", 0.2 / math.sqrt(365.0)))
    assert [pt.moneyness for pt in surface.points] == [1.0]
    assert len(surface.failures) == 1 and "moneyness" in surface.failures[0]


def test_zero_diffusion_not_identifiable():
    with pytest.raises(InputError):
        implied_excess_predictability(5.0, spot=100.0, strike=100.0, tau=0.5,
                                      rate=0.03, sigma=0.0)
    with pytest.raises(InputError):
        implied_excess_predictability(5.0, spot=100.0, strike=100.0, tau=0.0,
                                      rate=0.03, sigma=0.2)


@pytest.mark.parametrize("args, error", [
    ((math.nan, 100.0, 100.0, 0.5, 0.03, 0.2), InputError),
    ((-1.0, math.nan, 100.0, 0.5, 0.03, 0.2), InputError),       # the scenario before the quote
    ((0.0, 100.0, 100.0, 0.5, 0.03, math.inf), InputError),
    ((-1.0, -5.0, 100.0, 0.5, 0.03, 0.2), InputError),           # spot sign before price sign
    ((0.0, 100.0, 100.0, -1.0, 0.03, 0.2), InputError),
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


def pricer_rounding(inputs):
    """E(C) = ulp(A) (1 + m(d_+) D) + ulp(B) (1 + m(d_-) D) for C = A - B, m(d) = phi(d) / Phi(d).

    A = S e^{-q tau} Phi(d_+) and B = K e^{-r tau} Phi(d_-) round to their ulp,
    and an error of D ulp(1) in d moves Phi(d) by m(d) D ulp(1) relative.
    """
    s, k, tau, r, sigma = inputs.spot, inputs.strike, inputs.tau, inputs.rate, inputs.sigma
    q = inputs.dividend_yield
    dp, dm = d_plus_minus(inputs)
    a = s * math.exp(-q * tau) * norm_cdf(dp)
    b = k * math.exp(-r * tau) * norm_cdf(dm)
    big_d = (abs(math.log(s) - math.log(k)) + abs((r - q) * tau) + 0.5 * sigma * sigma * tau) / (sigma * math.sqrt(tau))
    mills = lambda d: math.exp(-0.5 * d * d - 0.5 * math.log(2 * math.pi) - float(log_ndtr(d)))
    return math.ulp(a) * (1 + mills(dp) * big_d) + math.ulp(b) * (1 + mills(dm) * big_d)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    tau=st.floats(1 / 365, 2.0),
    rate=st.floats(-0.01, 0.1),
    sigma=st.floats(0.01, 2.0),
    p=st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
)
def test_round_trip_within_conditioning_bound(spot, moneyness, tau, rate, sigma, p):
    # |p_hat - p| <= P_TOL + 8 ulp(1) |p| + 2 E(C) / |dC/dp|, the bound the solver's
    # docstring states for every quote priced to a normal float; a subnormal
    # Phi(d) is good only to 2^-1074 absolutely, an error E(C) does not count
    inputs = PricingInputs(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma, p=p)
    price = call_price(inputs).price
    if price < sys.float_info.min:
        return
    pt = implied_excess_predictability(price, spot, spot / moneyness, tau, rate, sigma)
    bound = P_TOL + 8 * math.ulp(1.0) * abs(p) + 2 * pricer_rounding(inputs) / abs(dprice_dp(inputs))
    assert abs(pt.p - p) <= bound


_P_WITH_EDGES = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.floats(-1.0, 1.0).map(lambda e: 10.0**e),
    tau=st.floats(1 / 365, 2.0),
    rate=st.floats(-0.01, 0.1),
    sigma=st.floats(0.01, 2.0),
    ps=st.lists(_P_WITH_EDGES, min_size=2, max_size=2, unique=True).map(sorted),
)
def test_call_strictly_decreases_in_p(spot, moneyness, tau, rate, sigma, ps):
    # C is convex in p, so C(p1) - C(p2) >= |dC/dp(p2)| (p2 - p1) for p1 < p2.  Where that exceeds the
    # rounding E(C) of both prices, the priced values are strictly ordered.  Closer pairs are not
    # asserted: p = 0 and 2.4e-278 price the same at spot = moneyness = tau = sigma = 1, and
    # C(1 - 2^-53) < C(1) by rounding at spot = moneyness = 1, tau = 1.7474444822320874, sigma = 1.5.
    kw = dict(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma)
    low, high = (PricingInputs(p=p, **kw) for p in ps)
    slope = dprice_dp(high)
    if slope != 0.0 and -slope * (high.p - low.p) > pricer_rounding(low) + pricer_rounding(high):
        assert call_price(low).price > call_price(high).price


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    tau=st.floats(1 / 365, 2.0),
    rate=st.floats(-0.01, 0.1),
    sigma=st.floats(0.01, 2.0),
)
# C(-1) = 1e-323 while dC/dp at -1 underflows to -0.0: no Newton step can start there
@example(spot=1.0, moneyness=0.9802212751629741, tau=1 / 365, rate=0.0, sigma=0.01)
def test_band_edges_are_classified_exactly(spot, moneyness, tau, rate, sigma):
    # a quote at C(-1) or C(+1) is the edge itself, one ulp beyond it clamps, and the
    # no-arbitrage cap S e^{sigma^2 tau} is admitted while one ulp above it is rejected
    kw = dict(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma)
    hi, lo = model_price(p=-1.0, **kw), model_price(p=1.0, **kw)
    cap = spot * math.exp(sigma * sigma * tau)

    def outcome(market):
        try:
            pt = implied_excess_predictability(market, **kw)
        except QuoteRejectedError:
            return "rejected"
        assert pt.market_price == market and pt.residual == pt.model_price - market
        return pt.p, pt.clamped

    if hi > 0.0:
        assert outcome(hi) == (-1.0, ClampStatus.NONE)
    above_hi = math.nextafter(hi, math.inf)
    assert outcome(above_hi) == ("rejected" if above_hi > cap else (-1.0, ClampStatus.AT_MINUS_ONE))
    if lo > 0.0:
        # at lo == hi the quote is at both edges; -1 is named first, as brentq named it
        assert outcome(lo) == (1.0 if lo < hi else -1.0, ClampStatus.NONE)
        below_lo = math.nextafter(lo, 0.0)
        assert outcome(below_lo) == ("rejected" if below_lo == 0.0 else (1.0, ClampStatus.AT_PLUS_ONE))
    assert outcome(cap) != "rejected"
    assert outcome(math.nextafter(cap, math.inf)) == "rejected"


@pytest.mark.parametrize("market_price, kw", [
    # dC/dp underflows to 0 on the way: an unguarded Newton step goes to p = -inf
    (2.87e-322, dict(spot=820.5281583470105, strike=2418.560942485686, tau=0.22898315684272533,
                     rate=0.024430760206949106, sigma=0.05840352232096964)),
    # the rounding of a subnormal price sends an unguarded Newton step to p = -1.2488571774739792
    (6.843e-321, dict(spot=907.8511188962876, strike=7419.728805506999, tau=0.004755034637356186,
                      rate=0.06010481491100516, sigma=0.7937777369560887)),
])
def test_subnormal_quote_is_solved_inside_the_band(market_price, kw):
    # p is not identified to the stated bound at such prices, but the solve stays in [-1, 1]
    pt = implied_excess_predictability(market_price, **kw)
    assert pt.clamped is ClampStatus.NONE and -1.0 <= pt.p <= 1.0
    assert pt.model_price == model_price(p=pt.p, **kw)


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
    # build_surface records a repeated (moneyness, tau) as a failure and calibrates it once
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
