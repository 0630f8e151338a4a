import math
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from predbs.errors import InputError
from predbs.pricing import (
    PricingInputs,
    _closed_form,
    _p_free_terms,
    call_price,
    dividend_yield_due_to_predictability,
    dprice_dp,
    norm_cdf,
    put_price,
)
import reference
from reference import pde_residual, quadrature_call


# ------------------------------------------------------------- norm_cdf

def test_norm_cdf_symmetry_point():
    assert norm_cdf(0.0) == 0.5


def test_norm_cdf_tail():
    assert norm_cdf(8.0) > 1.0 - 1e-15


def test_norm_cdf_at_one():
    # 0.8413447460685429 frozen from quadrature of the normal density
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)


def test_norm_cdf_against_quadrature_grid():
    for x in (-3.7, -1.2, -0.3, 0.4, 1.9, 2.6):
        expected, _ = quad(lambda z: math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), -40, x)
        assert norm_cdf(x) == pytest.approx(expected, abs=1e-13)


# (x, Phi(x)) to 50 significant digits, computed once with mpmath.ncdf at 60 digits; the last point, at 1.2e-16, errs
# more than any of 40,000 uniform points in [-38, 8.3]
NORM_CDF = [
    (-38.0, "2.8854283600687843083509704815669040946618177729456e-316"),
    (-30.0, "4.9067139271481870595338092565801904719969849413925e-198"),
    (-20.0, "2.7536241186062336950756227808574653328074977347593e-89"),
    (-12.5, "3.7325642988777133772258363380314108885007134024596e-36"),
    (-7.0, "1.2798125438858350043836236907808329980328441541987e-12"),
    (-3.7, "0.00010779973347738826148133554935882222694203913142421"),
    (-1.2, "0.11506967022170827664581337909622026933661382217563"),
    (-0.3, "0.3820885778110473669277263772362232612163123027741"),
    (0.4, "0.65542174161032417491412045695570933952093322756011"),
    (1.9, "0.97128344018399819477080796844463188088561676900949"),
    (4.5, "0.99999660232687526993959831255080912847648789523491"),
    (8.3, "0.99999999999999994794430255109745975424834233469791"),
    (1.1161111181075078, "0.86781271317812692484734741021680598095785310587407"),
]


@pytest.mark.parametrize("x, reference", NORM_CDF)
def test_norm_cdf_within_its_documented_bound_of_a_50_digit_reference(x, reference):
    assert abs(Decimal(norm_cdf(x)) - Decimal(reference)) <= Decimal("1e-15")  # Decimal(float) is exact


def test_norm_cdf_complement_identity():
    rng = np.random.default_rng(4)
    for x in rng.uniform(-6, 6, 50):
        assert norm_cdf(x) + norm_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_norm_cdf_at_infinity():
    assert norm_cdf(math.inf) == 1.0 and norm_cdf(-math.inf) == 0.0


def test_norm_cdf_rejects_nan():
    with pytest.raises(InputError):
        norm_cdf(float("nan"))


# ------------------------------------------------------- dividend yield

def test_dividend_yield_values():
    assert dividend_yield_due_to_predictability(0.0, 0.2) == 0.0
    assert dividend_yield_due_to_predictability(1.0, 0.2) == pytest.approx(0.04, abs=1e-17)
    assert dividend_yield_due_to_predictability(-1.0, 0.3) == pytest.approx(-0.09, abs=1e-17)


def test_dividend_yield_rejects_out_of_range_p():
    with pytest.raises(InputError):
        dividend_yield_due_to_predictability(1.5, 0.2)
    for p, sigma in [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.2), (math.inf, 0.2), (0.5, -0.1)]:
        with pytest.raises(InputError):
            dividend_yield_due_to_predictability(p, sigma)


# ------------------------------------------------------------------ d+-

def d_pair(inputs):
    result = call_price(inputs)
    return result.d_plus, result.d_minus


def test_price_result_d_symmetric_point():
    # S = K and q = r kill the log term: d_+- = +- sigma sqrt(tau) / 2
    inputs = PricingInputs(spot=100, strike=100, tau=1.0, rate=0.02, sigma=0.2, p=0.5)
    dp, dm = d_pair(inputs)
    assert dp == pytest.approx(0.1, abs=1e-15)
    assert dm == pytest.approx(-0.1, abs=1e-15)


def test_price_result_d_classical_reduction():
    inputs = PricingInputs(spot=110, strike=95, tau=0.7, rate=0.03, sigma=0.25, p=0.0)
    dp, dm = d_pair(inputs)
    expect_dp = (math.log(110 / 95) + (0.03 + 0.5 * 0.25**2) * 0.7) / (0.25 * math.sqrt(0.7))
    assert dp == pytest.approx(expect_dp, rel=1e-14)
    assert dp - dm == pytest.approx(0.25 * math.sqrt(0.7), rel=1e-14)


def test_price_result_d_market_point():
    # frozen from an independent long-hand evaluation of the displayed formula
    inputs = PricingInputs(spot=206.38, strike=200.0, tau=0.25, rate=0.0212, sigma=0.15, p=0.5)
    dp, dm = d_pair(inputs)
    assert dp == pytest.approx(0.48935684186042133, abs=1e-12)
    assert dm == pytest.approx(0.4143568418604213, abs=1e-12)


def test_price_result_d_degenerate():
    # without diffusion both d's are the formula's limit, +inf only where the forward gap is positive
    at_the_money = PricingInputs(spot=100, strike=100, tau=1.0, rate=0.0, sigma=0.0, p=0.0)
    assert d_pair(at_the_money) == (-math.inf, -math.inf)
    assert d_pair(PricingInputs(spot=120, strike=100, tau=0.0, rate=0.05, sigma=0.2)) == (math.inf, math.inf)
    assert d_pair(PricingInputs(spot=80, strike=100, tau=1.0, rate=0.05, sigma=0.0)) == (-math.inf, -math.inf)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.one_of(st.floats(0.5, 2.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    tau=st.one_of(st.just(0.0), st.floats(1 / 365, 2.0)),
    rate=st.floats(-0.01, 0.1),
    sigma=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
    p=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
)
def test_put_and_call_report_the_same_d(spot, moneyness, tau, rate, sigma, p):
    # PriceResult is the one public source of d_+-: the put's are the call's bit for bit, +-inf without diffusion
    inputs = PricingInputs(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma, p=p)
    call, put = call_price(inputs), put_price(inputs)
    assert (put.d_plus.hex(), put.d_minus.hex()) == (call.d_plus.hex(), call.d_minus.hex())


# ----------------------------------------------------------- call price

def test_call_classical_vs_quadrature_oracle():
    result = call_price(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=0.0))
    oracle = quadrature_call(100, 100, 1.0, 0.05, 0.2, 0.0)
    assert result.price == pytest.approx(oracle, rel=1e-8)


def test_call_with_predictability_vs_quadrature_oracle():
    inputs = PricingInputs(spot=206.38, strike=200.0, tau=0.25, rate=0.0212, sigma=0.15, p=0.5)
    oracle = quadrature_call(206.38, 200.0, 0.25, 0.0212, 0.15, inputs.dividend_yield)
    assert call_price(inputs).price == pytest.approx(oracle, rel=1e-8)


def test_call_deterministic_limit():
    result = call_price(PricingInputs(spot=120, strike=100, tau=1.0, rate=0.0, sigma=0.0, p=0.0))
    assert result.price == 20.0


def test_call_decreasing_in_p():
    base = dict(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.2)
    assert (
        call_price(PricingInputs(p=1.0, **base)).price
        < call_price(PricingInputs(p=0.0, **base)).price
    )


def test_call_monotonicity_grid():
    rng = np.random.default_rng(7)
    for _ in range(50):
        spot = rng.uniform(50, 200)
        strike = rng.uniform(50, 200)
        tau = rng.uniform(0.05, 2.0)
        rate = rng.uniform(-0.01, 0.08)
        sigma = rng.uniform(0.05, 0.6)
        p = rng.uniform(-1, 1)
        base = call_price(PricingInputs(spot, strike, tau, rate, sigma, p)).price
        assert call_price(PricingInputs(spot, strike, tau, rate, sigma, min(p + 0.1, 1.0))).price <= base
        assert call_price(PricingInputs(spot * 1.02, strike, tau, rate, sigma, p)).price > base
        assert call_price(PricingInputs(spot, strike * 1.02, tau, rate, sigma, p)).price < base


def test_call_bounds_grid():
    rng = np.random.default_rng(8)
    for _ in range(100):
        inputs = PricingInputs(
            spot=rng.uniform(20, 300), strike=rng.uniform(20, 300),
            tau=rng.uniform(0.01, 3.0), rate=rng.uniform(-0.02, 0.1),
            sigma=rng.uniform(0.01, 0.8), p=rng.uniform(-1, 1),
        )
        q = inputs.dividend_yield
        price = call_price(inputs).price
        lower = max(inputs.spot * math.exp(-q * inputs.tau)
                    - inputs.strike * math.exp(-inputs.rate * inputs.tau), 0.0)
        upper = inputs.spot * math.exp(-q * inputs.tau)
        assert lower - 1e-12 <= price <= upper + 1e-12


def test_call_classical_reduction_by_spot_substitution():
    # pricing at predictability p equals the classical pricer at spot S e^{-p sigma^2 tau}
    rng = np.random.default_rng(9)
    for _ in range(25):
        inputs = PricingInputs(
            spot=rng.uniform(50, 200), strike=rng.uniform(50, 200),
            tau=rng.uniform(0.05, 2.0), rate=rng.uniform(0.0, 0.08),
            sigma=rng.uniform(0.05, 0.5), p=rng.uniform(-1, 1),
        )
        shifted = PricingInputs(
            spot=inputs.spot * math.exp(-inputs.dividend_yield * inputs.tau),
            strike=inputs.strike, tau=inputs.tau, rate=inputs.rate,
            sigma=inputs.sigma, p=0.0,
        )
        assert call_price(inputs).price == pytest.approx(call_price(shifted).price, rel=1e-12)


# ------------------------------------------------------------ put price

def test_put_equals_call_atm_zero_rate():
    base = dict(spot=100, strike=100, tau=1.0, rate=0.0, sigma=0.2, p=0.0)
    call = call_price(PricingInputs(**base)).price
    put = put_price(PricingInputs(**base)).price
    assert put == pytest.approx(call, abs=1e-12)


def test_put_deterministic_limit():
    result = put_price(PricingInputs(spot=80, strike=100, tau=1.0, rate=0.0, sigma=0.0, p=0.0))
    assert result.price == 20.0


def test_parity_residual_grid():
    rng = np.random.default_rng(10)
    for _ in range(100):
        inputs = PricingInputs(
            spot=rng.uniform(20, 300), strike=rng.uniform(20, 300),
            tau=rng.uniform(0.01, 3.0), rate=rng.uniform(-0.02, 0.1),
            sigma=rng.uniform(0.01, 0.8), p=rng.uniform(-1, 1),
        )
        c = call_price(inputs).price
        p = put_price(inputs).price
        q = inputs.dividend_yield
        residual = c - p - inputs.spot * math.exp(-q * inputs.tau) \
            + inputs.strike * math.exp(-inputs.rate * inputs.tau)
        assert abs(residual) <= 1e-12 * max(1.0, inputs.spot)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    spot=st.floats(10.0, 1000.0),
    moneyness=st.floats(0.5, 2.0),
    tau=st.one_of(st.just(0.0), st.floats(1 / 365, 2.0)),
    rate=st.floats(-0.01, 0.1),
    # 10^-330 rounds to 0 and 10^-320 is subnormal; d_+- overflow to +-inf well before 1e-150
    sigma=st.one_of(st.just(0.0), st.floats(-330.0, -150.0).map(lambda e: 10.0**e)),
    p=st.floats(-1.0, 1.0),
)
def test_no_diffusion_limit_prices_and_parity(spot, moneyness, tau, rate, sigma, p):
    inputs = PricingInputs(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma, p=p)
    call, put = call_price(inputs).price, put_price(inputs).price
    assert math.isfinite(call) and math.isfinite(put) and call >= 0.0 and put >= 0.0
    fwd_spot = spot * math.exp(-inputs.dividend_yield * tau)
    fwd_strike = inputs.strike * math.exp(-rate * tau)
    assert abs((call - put) - (fwd_spot - fwd_strike)) <= 2 * math.ulp(max(fwd_spot, fwd_strike))


@settings(derandomize=True, max_examples=1_000, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.one_of(st.floats(0.5, 2.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    tau=st.floats(1 / 365, 2.0),
    rate=st.floats(-0.01, 0.1),
    sigma=st.floats(0.01, 2.0),
    p=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
)
def test_parity_with_diffusion_within_four_ulp(spot, moneyness, tau, rate, sigma, p):
    # C - P = S e^{-q tau} - K e^{-r tau}: the two prices round four products and two differences, and this
    # check two differences more, each by at most half an ulp of the larger term; both sides form e^{-q tau}
    # as the pricer does, so its rounding is common (400,000 random scenarios of this domain peaked at 2.0 ulp)
    inputs = PricingInputs(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma, p=p)
    call, put = call_price(inputs).price, put_price(inputs).price
    q = p * sigma * sigma
    fwd_spot, fwd_strike = spot * math.exp(-q * tau), inputs.strike * math.exp(-rate * tau)
    assert abs((call - put) - (fwd_spot - fwd_strike)) <= 4 * math.ulp(max(fwd_spot, fwd_strike))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    spot=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    strike=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    tau=st.one_of(st.just(0.0), st.floats(1e-6, 100.0)),
    rate=st.floats(-1e3, 1e3),
    sigma=st.one_of(st.just(0.0), st.floats(-320.0, 200.0).map(lambda e: 10.0**e)),
    p=st.floats(-1.0, 1.0),
)
def test_admitted_scenarios_price_finite(spot, strike, tau, rate, sigma, p):
    # a scenario is rejected with InputError or priced: finite prices >= 0, and a finite
    # dC/dp <= 0 unless dprice_dp itself reports the overflow as an InputError
    try:
        inputs = PricingInputs(spot=spot, strike=strike, tau=tau, rate=rate, sigma=sigma, p=p)
    except InputError:
        return
    assert 0.0 <= call_price(inputs).price < math.inf
    assert 0.0 <= put_price(inputs).price < math.inf
    try:
        assert -math.inf < dprice_dp(inputs) <= 0.0
    except InputError:
        pass


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    spot=st.floats(0.0, 4.0).map(lambda e: 10.0**e),
    moneyness=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    tau=st.floats(1 / 365, 2.0),
    rate=st.floats(-0.01, 0.1),
    sigma=st.floats(0.01, 2.0),
    p=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
)
def test_closed_form_on_the_p_free_terms_is_the_public_pricer(spot, moneyness, tau, rate, sigma, p):
    # the calibration solve forms the p-free terms once, from the p = -1 scenario it admits, and
    # evaluates _closed_form at each iterate: price and slope must be the public ones bit for bit
    kw = dict(spot=spot, strike=spot / moneyness, tau=tau, rate=rate, sigma=sigma)
    terms = _p_free_terms(PricingInputs(p=-1.0, **kw))
    inputs = PricingInputs(p=p, **kw)
    call, d_plus, d_minus, slope = _closed_form(terms, p)
    result = call_price(inputs)
    assert (call.hex(), d_plus, d_minus) == (result.price.hex(), result.d_plus, result.d_minus)
    assert _closed_form(terms, p, -1)[0].hex() == put_price(inputs).price.hex()
    try:
        assert slope.hex() == dprice_dp(inputs).hex()
    except InputError:
        assert slope == -math.inf


@pytest.mark.parametrize("price_fn, inputs", [
    # S e^{-q tau} Phi(d+) - K e^{-r tau} Phi(d-) cancels to -4.2e-322 deep out of the money
    (call_price, PricingInputs(spot=170.32048160633659, strike=243.8103773750866, tau=0.017463607167431644,
                               rate=0.03771460449368794, sigma=0.07072461086156555, p=-0.35852341417682143)),
    # the put's two terms cancel to -1.92e-321
    (put_price, PricingInputs(spot=688.7506380779761, strike=443.3638180373508, tau=0.018895054384523668,
                              rate=0.0502890472754307, sigma=0.08365187759157608, p=0.004320426004173372)),
])
def test_price_floored_at_zero(price_fn, inputs):
    price = price_fn(inputs).price
    assert price == 0.0 and math.copysign(1.0, price) == 1.0


@pytest.mark.parametrize("spot, strike", [(1e-300, 1e300), (1e300, 1e-300)])
def test_extreme_moneyness_prices(spot, strike):
    # spot / strike under- or overflows to 0 or inf; ln S - ln K does not
    inputs = PricingInputs(spot=spot, strike=strike, tau=1.0, rate=0.05, sigma=0.2, p=0.3)
    log_m = math.log(spot) - math.log(strike)
    d_plus, d_minus = d_pair(inputs)
    assert d_plus == pytest.approx((log_m + (0.05 - 0.012) + 0.02) / 0.2, rel=1e-15)
    assert d_minus == pytest.approx((log_m + (0.05 - 0.012) - 0.02) / 0.2, rel=1e-15)
    fwd_spot, fwd_strike = spot * math.exp(-0.012), strike * math.exp(-0.05)
    call, put = call_price(inputs).price, put_price(inputs).price
    deep_in = spot > strike
    assert call == (pytest.approx(fwd_spot - fwd_strike, rel=1e-15) if deep_in else 0.0)
    assert put == (0.0 if deep_in else pytest.approx(fwd_strike - fwd_spot, rel=1e-15))
    slope = dprice_dp(inputs)
    assert slope == (pytest.approx(-0.04 * fwd_spot, rel=1e-15) if deep_in else 0.0)


def test_subnormal_moneyness_prices_to_a_60_digit_reference():
    # S/K = 3e-324 rounds to the subnormal 4.9e-324, whose log is off by 0.5; ln S - ln K keeps every digit.
    # 3.5889815964298973e-85 is the closed form in mpmath at 60 digits; the log of that quotient priced 0.57% low
    price = call_price(PricingInputs(spot=3e-300, strike=1e24, tau=124.0, rate=0.0, sigma=2.0, p=-1.0)).price
    assert price == pytest.approx(3.5889815964298973e-85, rel=1e-13, abs=0)


# ------------------------------------------------------------- dC/dp

def test_dprice_dp_zero_sigma():
    assert dprice_dp(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.0, p=0.0)) == 0.0


def test_dprice_dp_strictly_negative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        inputs = PricingInputs(
            spot=rng.uniform(50, 200), strike=rng.uniform(50, 200),
            tau=rng.uniform(0.05, 2.0), rate=rng.uniform(0.0, 0.08),
            sigma=rng.uniform(0.05, 0.5), p=rng.uniform(-0.9, 0.9),
        )
        assert dprice_dp(inputs) < 0.0


def test_dprice_dp_overflow_is_an_input_error():
    # the call is finite, but |dC/dp| = 18 S e^{18} Phi(d_+) passes the largest float
    inputs = PricingInputs(spot=1e300, strike=1.0, tau=1.0, rate=0.0, sigma=math.sqrt(18.0), p=-1.0)
    assert math.isfinite(call_price(inputs).price)
    with pytest.raises(InputError, match="dC/dp overflows"):
        dprice_dp(inputs)


def test_dprice_dp_matches_finite_difference():
    inputs = PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=0.0)
    h = 1e-5
    up = call_price(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=h)).price
    dn = call_price(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=-h)).price
    fd = (up - dn) / (2 * h)
    assert dprice_dp(inputs) == pytest.approx(fd, rel=1e-6)


# --------------------------------------------------------- PDE residual

def test_pde_residual_classical_point():
    inputs = PricingInputs(spot=100, strike=100, tau=0.5, rate=0.05, sigma=0.2, p=0.0)
    assert abs(pde_residual(inputs)) <= 1e-6


def test_pde_residual_nonzero_p():
    inputs = PricingInputs(spot=100, strike=100, tau=0.5, rate=0.05, sigma=0.2, p=0.7)
    assert abs(pde_residual(inputs)) <= 1e-6


def test_pde_residual_grid():
    rng = np.random.default_rng(12)
    for p in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for _ in range(5):
            inputs = PricingInputs(
                spot=rng.uniform(60, 180), strike=rng.uniform(60, 180),
                tau=rng.uniform(0.1, 2.0), rate=rng.uniform(-0.01, 0.08),
                sigma=rng.uniform(0.08, 0.5), p=p,
            )
            assert abs(pde_residual(inputs)) <= 1e-6


def test_pde_residual_detects_mismatched_p(monkeypatch):
    # a pricer at p = 0.7 checked against the p = 0.3 equation leaves (0.7 - 0.3) sigma^2 x dC/dx behind
    inputs = PricingInputs(spot=100, strike=100, tau=0.5, rate=0.05, sigma=0.2, p=0.3)
    matched = abs(pde_residual(inputs))
    monkeypatch.setattr(reference, "call_price", lambda i: call_price(replace(i, p=0.7)))
    mismatched = abs(pde_residual(inputs))
    assert mismatched > 1e3 * max(matched, 1e-12)


def test_pde_residual_rejects_tiny_tau():
    inputs = PricingInputs(spot=100, strike=100, tau=0.005, rate=0.05, sigma=0.2, p=0.0)
    with pytest.raises(InputError):
        pde_residual(inputs)


# ------------------------------------------------------------ validation

def test_pricing_inputs_validation():
    with pytest.raises(InputError):
        PricingInputs(spot=-1, strike=100, tau=1.0, rate=0.0, sigma=0.2, p=0.0)
    with pytest.raises(InputError):
        PricingInputs(spot=100, strike=100, tau=1.0, rate=0.0, sigma=0.2, p=1.5)
    with pytest.raises(InputError):
        PricingInputs(spot=100, strike=100, tau=-0.5, rate=0.0, sigma=0.2, p=0.0)
    with pytest.raises(InputError):
        PricingInputs(spot=100, strike=100, tau=1.0, rate=float("inf"), sigma=0.2, p=0.0)


@pytest.mark.parametrize("kw", [
    # S e^{-q tau} = 100 e^{729}: math.exp raised a bare OverflowError
    dict(spot=100, strike=100, tau=1.0, rate=0.05, sigma=27.0, p=-1.0),
    # sigma^2 tau = inf: d_+- read inf - inf and norm_cdf raised on the nan
    dict(spot=100, strike=100, tau=4.0, rate=0.05, sigma=1e154, p=1.0),
    # K e^{-r tau} = inf: the put priced inf, the call inf - inf floored to 0
    dict(spot=100, strike=100, tau=1.0, rate=-709.5, sigma=0.2, p=0.0),
    # S e^{sigma^2 tau} = inf at p = -1: the call priced inf
    dict(spot=1e300, strike=1, tau=1.0, rate=0.0, sigma=5.5, p=-1.0),
])
def test_scenario_past_the_float_range_is_rejected(kw):
    with pytest.raises(InputError, match="float range"):
        PricingInputs(**kw)
