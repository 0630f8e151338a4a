import math
import tracemalloc
import warnings
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from predbs import volatility
from predbs.errors import EstimationError, InputError
from predbs.volatility import (
    VOL_METHODS,
    GarchParams,
    ReturnSeries,
    VolEstimate,
    VrpResult,
    fit_ar_garch,
    garch_forecast_vol,
    garch_log_likelihood,
    historical_vol,
    realized_vol,
    simulate_ar_garch,
    variance_risk_premium,
    vix_to_sigma,
)
from predbs.volatility import (_BOUNDS, _Workspace, _admissible, _neg_loglik, _passes, _scan, _starting_points,
                               _t_constant)


def make_series(returns):
    start = date(2014, 1, 6)
    dates = tuple(start + timedelta(days=i) for i in range(len(returns)))
    return ReturnSeries(dates=dates, returns=np.asarray(returns, dtype=float))


def standardized(series):
    """Returns scaled to unit variance, as fit_ar_garch hands them to the optimizer."""
    return series.returns / math.sqrt(np.var(series.returns))


# ------------------------------------------------------------ ReturnSeries

def test_return_series_validation():
    with pytest.raises(InputError):
        make_series([0.01])  # too short
    with pytest.raises(InputError):
        ReturnSeries(dates=(date(2020, 1, 2), date(2020, 1, 1)), returns=[0.0, 0.0])
    with pytest.raises(InputError):
        make_series([0.01, float("nan")])
    with pytest.raises(InputError, match="dates and returns must have equal length"):
        ReturnSeries(dates=(date(2020, 1, 2),), returns=[0.0, 0.0])


# ------------------------------------------------------- simple estimators

def test_historical_constant_returns_zero():
    series = make_series([0.01] * 40)
    assert historical_vol(series, 40).sigma_daily == 0.0


def test_historical_alternating_returns():
    # +-x alternating with even window: mean 0, stdev = x sqrt(n/(n-1))
    x, n = 0.02, 252
    series = make_series([x * (-1) ** i for i in range(n)])
    est = historical_vol(series, n)
    assert est.sigma_daily == pytest.approx(x * math.sqrt(n / (n - 1)), rel=1e-12)


def test_historical_iid_normal_within_15_percent():
    rng = np.random.Generator(np.random.Philox(key=505))
    s = 0.012
    series = make_series(rng.normal(0.0, s, size=252))
    est = historical_vol(series, 252)
    assert abs(est.sigma_daily - s) / s < 0.15


def test_historical_window_validation():
    series = make_series([0.01, -0.02, 0.03])
    with pytest.raises(InputError):
        historical_vol(series, 1)
    with pytest.raises(InputError):
        historical_vol(series, 10)
    with pytest.raises(InputError, match="realized window must be >= 2"):
        realized_vol(series, 1)


def test_realized_zero_returns():
    assert realized_vol(make_series([0.0] * 30), 30).sigma_daily == 0.0


def test_realized_single_nonzero_return():
    r, n = 0.05, 25
    series = make_series([0.0] * (n - 1) + [r])
    assert realized_vol(series, n).sigma_daily == pytest.approx(math.sqrt(r * r / n), rel=1e-14)


def test_realized_close_to_historical_for_zero_mean():
    rng = np.random.Generator(np.random.Philox(key=506))
    r = rng.normal(0.0, 0.01, size=500)
    r = r - r.mean()  # force exact zero mean: estimators then differ only by ddof
    series = make_series(r)
    hist = historical_vol(series, 500).sigma_daily
    real = realized_vol(series, 500).sigma_daily
    assert real == pytest.approx(hist * math.sqrt(499 / 500), rel=1e-12)


def test_realized_variance_identity():
    rng = np.random.Generator(np.random.Philox(key=507))
    r = rng.normal(0.0, 0.01, size=100)
    series = make_series(r)
    est = realized_vol(series, 100)
    assert est.sigma_daily**2 * 100 == pytest.approx(float(np.sum(r * r)), rel=1e-12)


def test_vix_conversion():
    assert vix_to_sigma(0.0).sigma_annual == 0.0
    minus_zero = vix_to_sigma(-0.0)  # reads 0, not -0
    assert math.copysign(1.0, minus_zero.sigma_annual) == math.copysign(1.0, minus_zero.sigma_daily) == 1.0
    est = vix_to_sigma(36.5)
    assert est.sigma_annual == 0.365
    assert est.sigma_daily == pytest.approx(0.365 / math.sqrt(365.0), rel=1e-15)
    assert est.sigma_daily == pytest.approx(0.019105, abs=5e-7)
    assert vix_to_sigma(19.20).sigma_annual == pytest.approx(0.192, rel=1e-15)
    with pytest.raises(InputError):
        vix_to_sigma(-1.0)


def test_annualization_consistency():
    series = make_series(np.sin(np.arange(60)) * 0.01)
    for est in (historical_vol(series, 60), realized_vol(series, 60), vix_to_sigma(22.0)):
        assert est.sigma_annual == pytest.approx(est.sigma_daily * math.sqrt(365.0), rel=1e-12)


def test_vol_estimate_rejects_inconsistent_pair():
    with pytest.raises(InputError):
        VolEstimate(method="vix", sigma_daily=0.01, sigma_annual=0.5)
    with pytest.raises(InputError):
        VolEstimate.from_daily("wat", 0.01)


@pytest.mark.parametrize("daily, annual", [(-0.01, -0.01 * math.sqrt(365.0)), (math.nan, math.nan),
                                           (math.inf, math.inf), (1e307, math.inf)])
def test_vol_estimate_refuses_a_negative_or_non_finite_sigma(daily, annual):
    with pytest.raises(InputError, match="sigma must be finite and >= 0"):
        VolEstimate(method="realized", sigma_daily=daily, sigma_annual=annual)


@pytest.mark.parametrize("k", [-1000, -900, 40, 500, 1000])
def test_simple_estimators_scale_exactly_with_a_power_of_two(k):
    # the moments are taken in units of 2^e ~ max |r|: squares of returns near 1e300 neither overflow
    # nor, near 1e-300, underflow
    series = make_series(np.random.Generator(np.random.Philox(key=509)).normal(0.0005, 0.01, size=300))
    scaled = make_series(np.ldexp(series.returns, k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in (historical_vol, realized_vol):
            base, est = estimator(series, 300), estimator(scaled, 300)
            assert est.sigma_daily == math.ldexp(base.sigma_daily, k)
            assert est.sigma_annual == math.ldexp(base.sigma_annual, k)


def test_extreme_returns_give_an_estimate_or_a_typed_error():
    big = make_series(1e160 * np.random.Generator(np.random.Philox(key=510)).standard_normal(300))
    huge = make_series([1.7e308, -1.7e308, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.9e160 < historical_vol(big, 300).sigma_daily < 1.1e160
        assert 0.9e160 < realized_vol(big, 300).sigma_daily < 1.1e160
        with pytest.raises(EstimationError, match="returns too large to fit"):
            fit_ar_garch(big)
        for estimator in (historical_vol, realized_vol):  # sigma_daily itself, or sigma_annual, overflows
            with pytest.raises(InputError, match="sigma must be finite and >= 0"):
                estimator(huge, 3)


def test_vol_estimate_rejects_unknown_method():
    for method in VOL_METHODS:
        assert VolEstimate.from_daily(method, 0.01).method == method
    with pytest.raises(InputError, match="unknown method"):
        VolEstimate.from_daily("psychic", 0.01)


# ------------------------------------------------------------------ GARCH

TRUE_PARAMS = GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0)


def test_garch_params_validation():
    with pytest.raises(InputError):
        GarchParams(ar1=0.0, mean=0.0, omega=-1e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    with pytest.raises(InputError):
        GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.2, beta1=0.85, nu=6.0)
    with pytest.raises(InputError):
        GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=1.5)
    with pytest.raises(InputError):
        GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=math.nan)
    # nu = inf is the Gaussian limit, eta = 1/nu = 0 in the likelihood's coordinates
    assert GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=math.inf)._vector()[5] == 0.0


@pytest.mark.parametrize("ar1", [1.0, -1.0, 1.5])
def test_simulation_needs_stationary_ar1(ar1):
    params = GarchParams(ar1=ar1, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    with pytest.raises(InputError, match=r"\|ar1\| < 1"):
        simulate_ar_garch(params, n=10, seed=1)


@pytest.mark.parametrize("seed", [-1, 1 << 128])
def test_simulation_refuses_a_seed_outside_the_philox_key_range(seed):
    with pytest.raises(InputError, match=r"seed must be in \[0, 2\^128\)"):
        simulate_ar_garch(TRUE_PARAMS, n=10, seed=seed)


def _dyadic(v: float) -> int:
    """v * 2^1074, an integer for every finite float."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def scan_error(got, xs, b, scale=1074):
    """max_t |got_t - y_t| / (eps rec_t), eps = 2^-52: got against the exact recurrence y_t = x_t + b y_{t-1}, where
    rec is the same recurrence on |x| and |b|.  The inputs are integers X_t = x_t 2^scale and b is a float, so
    b = B / 2^e and y_t = Y_t / 2^(scale + t e) with integer Y_t: exact, and without the gcds of Fraction."""
    B, den = b.as_integer_ratio()
    e, Y, A, worst = den.bit_length() - 1, 0, 0, 0.0
    for t, (X, g) in enumerate(zip(xs, got.tolist())):
        Y = (X << t * e) + B * Y
        A = (abs(X) << t * e) + abs(B) * A
        G = _dyadic(g) << (scale - 1074 + t * e)
        worst = max(worst, (abs(G - Y) << 52) / A if A else (math.inf if G != Y else 0.0))
    return worst


# The doubling scan's rounding error, with eps = 2^-52.  Each + and * rounds by at most eps/2 relative, and each
# multiplier b ** d is within 1 ulp, eps relative, of b^d.  The scan forms y_t as sum_k b^k x_{t-k} through
# L = ceil(log2 n) passes, so each term carries one factor (1 + delta) per rounding it went through: in every pass at
# most one addition, and in the passes where bit j of k is set, a product with the multiplier b^(2^j).  That is at
# most L (eps/2 + eps/2 + eps) = 2 L eps relative to |b^k x_{t-k}|, to first order, so |scan_t - y_t| <= 2 L eps rec_t
# with rec the recurrence on |x| and |b|.  The filter's inputs omega + a1 eps^2 take two more roundings (eps in all),
# and the last eps covers the second-order terms: (2L + 2) eps rec.  A multiplier that underflows to 0 ends the scan,
# dropping terms below 2^-1074 |x_{t-k}| each, far below eps rec_t for inputs of normal size like these.
def scan_bound(n: int) -> int:
    return 2 * (n - 1).bit_length() + 2


def test_sigma2_recursion_matches_naive_loop():
    rng = np.random.Generator(np.random.Philox(key=42))
    r = rng.normal(0.0, 0.01, size=201)
    omega, a1, b1 = 1e-6, 0.08, 0.9
    eps, eps2, fast = _Workspace(r.size).filter(np.array([1e-4, 0.1, omega, a1, b1, 6.0]), r)
    assert np.array_equal(eps, r[1:] - 1e-4 - 0.1 * r[:-1])
    assert fast[0] == np.mean(eps2)  # sigma^2_1, then sigma^2_2..sigma^2_T and the one-step forecast
    xs = [_dyadic(fast[0]) << 1074] + [(_dyadic(omega) << 1074) + _dyadic(a1) * _dyadic(e2) for e2 in eps2.tolist()]
    assert scan_error(fast, xs, b1, scale=2148) <= scan_bound(fast.size)


@pytest.mark.parametrize("n", [1, 2, 3, 777])
@pytest.mark.parametrize("b", [0.0, 1e-300, 0.3, 0.999999])
@pytest.mark.parametrize("signs", ["positive", "mixed"])  # the sigma^2 filter, and the adjoint of the likelihood
def test_scan_is_the_recurrence_within_its_bound(n, b, signs):
    x = np.random.Generator(np.random.Philox(key=n)).standard_normal(n)
    if signs == "positive":
        x = np.abs(x)
    got = x.copy()
    _scan(got, b, _passes(got, np.empty(n)))
    assert scan_error(got, [_dyadic(v) for v in x.tolist()], b) <= scan_bound(n)
    if b == 0.0 or n == 1:
        assert np.array_equal(got, x)  # no pass
    if b == 1e-300:
        assert np.array_equal(got[1:], x[1:] + b * x[:-1])  # one pass, then b^2 underflows


def test_garch_simulation_reestimation():
    series = simulate_ar_garch(TRUE_PARAMS, n=10_000, seed=2)
    fitted = fit_ar_garch(series)
    assert abs(fitted.omega - 1e-6) / 1e-6 <= 0.25
    assert abs(fitted.alpha1 - 0.08) / 0.08 <= 0.25
    assert abs(fitted.beta1 - 0.9) / 0.9 <= 0.25
    assert abs(fitted.nu - 6.0) / 6.0 <= 0.5


def test_garch_stored_log_likelihood_consistent():
    from predbs.volatility import garch_log_likelihood

    series = simulate_ar_garch(TRUE_PARAMS, n=1_000, seed=8)
    fitted = fit_ar_garch(series)
    assert fitted.log_likelihood == pytest.approx(
        garch_log_likelihood(fitted, series), rel=1e-12)


# (alpha1, beta1, omega / variance, nu) of the six starts the fit used to take the best of
SIX_STARTS = [(0.05, 0.90, 1.0 - 0.05 - 0.90, 8.0), (0.10, 0.80, 1.0 - 0.10 - 0.80, 8.0),
              (0.02, 0.95, 1.0 - 0.02 - 0.95, 8.0), (0.15, 0.60, 1.0 - 0.15 - 0.60, 8.0),
              (0.05, 0.50, 1.0 - 0.05 - 0.50, 8.0), (0.05, 0.85, 0.10, 5.0)]


def test_garch_fit_beats_every_start():
    from scipy.optimize import LinearConstraint, minimize

    series = simulate_ar_garch(TRUE_PARAMS, n=2_000, seed=5)
    fitted = fit_ar_garch(series)
    sd = math.sqrt(np.var(series.returns))
    r_scaled = series.returns / sd
    fitted_scaled = np.array([
        fitted.mean / sd, fitted.ar1, fitted.omega / sd**2, fitted.alpha1, fitted.beta1, 1 / fitted.nu,
    ])
    best_nll = _neg_loglik(fitted_scaled, r_scaled)[0]
    (start,) = _starting_points(r_scaled)
    assert best_nll <= _neg_loglik(start, r_scaled)[0]
    var, mean = float(np.var(r_scaled)), float(np.mean(r_scaled))
    stationarity = LinearConstraint([[0.0, 0.0, 0.0, 1.0, 1.0, 0.0]], -np.inf, 0.999999 - 1e-9)
    for a0, b0, omega0, nu0 in SIX_STARTS:
        res = minimize(_neg_loglik, np.array([mean, 0.0, var * omega0, a0, b0, 1 / nu0]), args=(r_scaled,),
                       jac=True, method="SLSQP", bounds=_BOUNDS, constraints=[stationarity],
                       options=dict(maxiter=500, ftol=1e-12))
        assert best_nll <= res.fun + 1e-9, (a0, b0, nu0)


@pytest.mark.parametrize("x", [
    [0.03, 0.0, 0.02, 0.08, 0.90, 1 / 6],         # interior
    [0.03, 0.0, 0.002, 0.10, 0.89999, 1 / 6],     # alpha1 + beta1 -> 1
    [0.03, 0.0, 0.05, 0.10, 0.85, 1 / 2.0501],    # nu near the fit's 2.05 bound
    [-0.02, 0.35, 0.03, 0.12, 0.80, 1 / 9],       # phi != 0
])
def test_neg_loglik_gradient_matches_central_difference(x):
    r = standardized(simulate_ar_garch(
        GarchParams(ar1=0.1, mean=2e-4, omega=2e-6, alpha1=0.08, beta1=0.9, nu=5.0), n=1_500, seed=21))
    x = np.array(x)
    grad = _neg_loglik(x, r)[1]
    for k in range(6):
        # 5-point stencil, step small enough to stay inside the admissible region
        h = 1e-6 * max(abs(x[k]), 1e-2)
        f = [_neg_loglik(x + j * h * np.eye(6)[k], r)[0] for j in (-2, -1, 1, 2)]
        fd = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-6, abs=1e-6 * np.max(np.abs(grad))), k


def test_neg_loglik_gradient_is_zero_at_penalty():
    r = standardized(simulate_ar_garch(TRUE_PARAMS, n=300, seed=4))
    value, grad = _neg_loglik(np.array([0.0, 0.0, 0.01, 0.5, 0.5, 1 / 6]), r)
    assert value == 1e10
    assert not np.any(grad)


def loop_log_likelihood(params, r):
    """The Student-t conditional log-likelihood written out one observation at a time."""
    nu = params.nu
    const = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(math.pi * (nu - 2))
    eps = [r[t] - params.mean - params.ar1 * r[t - 1] for t in range(1, len(r))]
    s2 = sum(e * e for e in eps) / len(eps)
    ll = 0.0
    for e in eps:
        ll += const - 0.5 * math.log(s2) - 0.5 * (nu + 1) * math.log1p(e * e / (s2 * (nu - 2)))
        s2 = params.omega + params.alpha1 * e * e + params.beta1 * s2
    return ll


@pytest.mark.parametrize("params", [
    GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=2.03),
    GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9199995, nu=6.0),
    GarchParams(ar1=1.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0),
    GarchParams(ar1=0.05, mean=3e-4, omega=2e-6, alpha1=0.1, beta1=0.85, nu=6.0),
])
def test_log_likelihood_is_the_likelihood_everywhere_admissible(params):
    series = simulate_ar_garch(TRUE_PARAMS, n=500, seed=9)
    assert garch_log_likelihood(params, series) == pytest.approx(
        loop_log_likelihood(params, series.returns.tolist()), rel=1e-9)


def test_log_likelihood_rejects_a_zero_variance_path():
    # returns the AR(1) mean explains exactly leave eps = 0 and sigma^2_1 = mean(eps^2) = 0
    series = make_series([0.001] * 300)
    with pytest.raises(InputError):
        garch_log_likelihood(GarchParams(ar1=0.0, mean=0.001, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0), series)


@pytest.mark.parametrize("nu", [1e7, 2.5e8, 1e12, math.inf])
def test_student_t_constant_at_large_nu(nu):
    r = np.array([0.0, 1.0])  # one residual eps = 1, with sigma^2 = mean(eps^2) = 1
    ll = -_neg_loglik(np.array([0.0, 0.0, 0.1, 0.1, 0.8, 1 / nu]), r)[0]
    if math.isinf(nu):  # the Gaussian limit: -ln(2 pi)/2 - eps^2 / (2 sigma^2)
        expected = -0.5 * math.log(2 * math.pi) - 0.5
    else:  # ln Gamma(a + 1/2) - ln Gamma(a) = 0.5 ln a - 1/(8a) + 1/(192 a^3) + O(a^-5), a = nu/2
        a = nu / 2
        rest = -0.5 * math.log(math.pi * (nu - 2)) - 0.5 * (nu + 1) * math.log1p(1 / (nu - 2))
        expected = 0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3) + rest
    assert ll == pytest.approx(expected, rel=0, abs=1e-14)


# (eta, C, dC/deta) of C(eta) = ln Gamma((nu+1)/2) - ln Gamma(nu/2) - ln sqrt(pi (nu-2)), eta = 1/nu,
# computed with mpmath at 70 digits or more (loggamma and digamma); the series cutoff is at eta = 0.035
T_CONSTANT = [
    (0.0, -0.9189385332046728, 0.75),
    (1e-300, -0.9189385332046728, 0.75),
    (1e-12, -0.9189385332039227, 0.750000000002),
    (0.0001, -0.9188635232032976, 0.7502000412580015),
    (0.01, -0.9113371378842449, 0.7704206607663678),
    (0.0349, -0.8914839334983461, 0.825189508582914),
    (0.0351, -0.8913188491811519, 0.8256537313071163),
    (0.07, -0.8610128794889834, 0.9133973159355933),
    (0.2, -0.7132067771717288, 1.4213204860013673),
    (0.4, -0.2119206372433997, 4.765856290865231),
    (0.48, 0.57427915428942, 24.771211920515036),
    (1 / 2.05, 0.8198437023137695, 40.77174783418552),
]


@pytest.mark.parametrize("eta, c, dc", T_CONSTANT)
def test_student_t_constant_matches_a_40_digit_reference(eta, c, dc):
    value, slope = _t_constant(eta)
    assert value == pytest.approx(c, rel=1e-14, abs=0)
    assert slope == pytest.approx(dc, rel=1e-14, abs=0)


# (eta, value, gradient) of _neg_loglik at (0.05, 0.2, 0.1, 0.1, 0.8, eta) on LIKELIHOOD_RETURNS, computed
# with mpmath at 80 digits: the likelihood written with loggamma, the gradient by mpmath.diff, and at
# eta = 0 the Gaussian limit with the eta-derivative sum_t (3/4 + m_t^2/4 - 3 m_t/2), m_t = eps_t^2 / sigma_t^2
LIKELIHOOD_RETURNS = np.array([0.3, -1.2, 0.8, 2.5, -0.4, 0.05, -1.9, 1.1, 0.6, -0.7])
LIKELIHOOD = [
    (0.0, 15.428855433513299, [-0.027943028395399364, 2.5115426121077773, -0.5270726132745419, 1.1578185171611, -1.0060856977901416, 2.7223486466133444]),
    (1e-09, 15.428855436235647, [-0.027943026694839366, 2.5115426195846657, -0.5270726193403292, 1.1578185043792812, -1.006085707670341, 2.7223486539457737]),
    (0.001, 15.4315814560684, [-0.026242611286144076, 2.5190258645712817, -0.5331460694964029, 1.1450215534590928, -1.0159784371326115, 2.729704172709096]),
    (0.0349, 15.528681499464307, [0.03135469236432481, 2.7807319013445158, -0.7484578727631751, 0.6925278069865805, -1.3667436072957095, 3.009130332674541]),
    (0.0351, 15.529283509411096, [0.03169492926602893, 2.78232509766528, -0.7497846195024614, 0.6897458961734884, -1.368905303539853, 3.010969543626933]),
    (0.125, 15.84626959837056, [0.18793721145798167, 3.570981992544283, -1.4247479952976154, -0.7186025149086629, -2.468924175494068, 4.1651644635612595]),
    (0.3, 17.057295758709824, [0.5265870281382516, 5.7739538194652615, -3.454768606232464, -4.917814636667901, -5.778654915288159, 11.772560024585486]),
    (0.48, 26.637389774933624, [-2.3562522938856763, 8.515667587640527, -9.446387840920655, -17.37388013663504, -15.547059905908725, 289.0011654332134]),
]


@pytest.mark.parametrize("eta, value, grad", LIKELIHOOD)
def test_neg_loglik_matches_a_40_digit_reference(eta, value, grad):
    got, got_grad = _neg_loglik(np.array([0.05, 0.2, 0.1, 0.1, 0.8, eta]), LIKELIHOOD_RETURNS)
    grad = np.array(grad)
    assert got == pytest.approx(value, rel=1e-14, abs=0)
    # the mu0 entry sums terms of both signs, so the gradient is held to 1e-14 of its largest entry;
    # the eta entry, where the cancellation near nu = inf used to be, to 1e-14 of itself
    assert np.max(np.abs(got_grad - grad)) <= 1e-14 * np.max(np.abs(grad))
    assert got_grad[5] == pytest.approx(grad[5], rel=1e-14, abs=0)


# one admissible region, and points past each of its edges: omega <= 0, alpha1 + beta1 >= 1 and eta >= 1/2
POINTS = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.99, 0.99), st.floats(-0.1, 2.0), st.floats(0.0, 0.6),
                   st.floats(0.0, 0.99), st.floats(0.0, 0.55)).map(np.array)
SPLIT_RETURNS = {n: standardized(simulate_ar_garch(TRUE_PARAMS, n=n, seed=n)) for n in (300, 5_000)}


@pytest.mark.parametrize("n", sorted(SPLIT_RETURNS))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(x=POINTS, y=POINTS)
def test_a_gradient_is_the_same_whatever_the_workspace_last_evaluated(n, x, y):
    # gradient reads the intermediates value left in the buffers: after a value at another point or on another
    # series, or after a bare filter, it must evaluate afresh, and a penalty point gives zeros
    r, other = SPLIT_RETURNS[n], SPLIT_RETURNS[n][::-1].copy()
    fresh = _Workspace(n)
    value, grad = fresh.value(x, r), fresh.gradient(x, r)
    assert (value == volatility._PENALTY) == (not np.any(grad))
    ws = _Workspace(n)
    stale = [_Workspace(n).gradient(x, r)]
    for leave in (lambda: ws.value(y, r), lambda: ws.value(x, other), lambda: (ws.value(x, r), ws.filter(y, r))):
        leave()
        stale.append(ws.gradient(x, r))
        assert ws.value(x, r) == value
    for got in stale:
        assert got.tobytes() == grad.tobytes()


def test_a_fit_forms_the_gradient_only_where_slsqp_asks_for_one(monkeypatch):
    # SLSQP's line search reads values alone: one gradient per njev, one value per nfev and one for the
    # reported log-likelihood, and no gradient re-evaluates its point
    calls, runs, minimize = {"value": 0, "gradient": 0}, [], volatility.minimize

    class Workspace(volatility._Workspace):
        def value(self, *args):
            calls["value"] += 1
            return super().value(*args)

        def gradient(self, *args):
            calls["gradient"] += 1
            return super().gradient(*args)

    def traced(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(volatility, "_Workspace", Workspace)
    monkeypatch.setattr(volatility, "minimize", traced)
    fit_ar_garch(simulate_ar_garch(TRUE_PARAMS, n=2_000, seed=3))
    nfev, njev = sum(run.nfev for run in runs), sum(run.njev for run in runs)
    assert calls == {"value": nfev + 1, "gradient": njev} and 0 < njev < nfev


def test_garch_fit_reaches_the_golden_optimum():
    # 998.0990969349358 is the multi-start Nelder-Mead optimum on this series
    from predbs.data_io import parse_return_series

    series = parse_return_series(Path(__file__).parent / "fixtures" / "golden" / "returns.csv")
    fitted = fit_ar_garch(series)
    assert fitted.log_likelihood >= 998.0990969349358 - 1e-6
    assert fitted.log_likelihood == garch_log_likelihood(fitted, series)


def test_garch_fit_is_equivariant_in_return_scale():
    series = simulate_ar_garch(TRUE_PARAMS, n=1_000, seed=6)
    base = fit_ar_garch(series)
    for c in (1e-3, 30.0):
        scaled = fit_ar_garch(make_series(series.returns * c))
        assert scaled.log_likelihood == pytest.approx(base.log_likelihood - 999 * math.log(c), abs=1e-6)
        for name in ("ar1", "alpha1", "beta1", "nu"):
            assert getattr(scaled, name) == pytest.approx(getattr(base, name), rel=1e-3), (c, name)
        assert scaled.omega == pytest.approx(base.omega * c * c, rel=1e-3)


def test_garch_gaussian_like_data():
    rng = np.random.Generator(np.random.Philox(key=77))
    series = make_series(rng.normal(0.0, 0.01, size=3000))
    fitted = fit_ar_garch(series)
    assert fitted.alpha1 + fitted.beta1 < 1.0
    sample_var = float(np.var(series.returns, ddof=1))
    assert abs(fitted.unconditional_variance - sample_var) / sample_var < 0.15


def test_garch_constant_series_degenerate():
    with pytest.raises(EstimationError):
        fit_ar_garch(make_series([0.001] * 300))


def test_garch_fit_without_a_finite_likelihood_is_refused(monkeypatch):
    # an optimizer that only evaluates inadmissible points (omega < 0) leaves no parameters to return
    monkeypatch.setattr(volatility, "minimize", lambda fun, x0, args, **kw: SimpleNamespace(
        success=fun(-x0, *args) < volatility._PENALTY))
    with pytest.raises(EstimationError, match="no parameters with a finite likelihood"):
        fit_ar_garch(simulate_ar_garch(TRUE_PARAMS, n=300, seed=1))


def test_a_fits_evaluations_after_its_first_allocate_less_than_one_series_array(monkeypatch):
    # the fit makes one workspace, for every evaluation and for its log-likelihood; with a fresh array per
    # temporary an evaluation peaked at about 18 series-sized arrays
    n, minimize, peaks, made = 5_000, volatility.minimize, [], []

    class Workspace(volatility._Workspace):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    def measured(f, peaks):
        def call(x, *a):
            tracemalloc.start()
            try:
                out = f(x, *a)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return out
        return call

    def traced(fun, x0, args, jac, **kwargs):  # values and gradients are measured apart
        return minimize(measured(fun, peaks), x0, args, jac=measured(jac, gradient_peaks), **kwargs)

    gradient_peaks = []
    monkeypatch.setattr(volatility, "_Workspace", Workspace)
    monkeypatch.setattr(volatility, "minimize", traced)
    fit_ar_garch(simulate_ar_garch(TRUE_PARAMS, n=n, seed=3))
    assert made == [(n,)] and len(peaks) > 10 and len(gradient_peaks) > 10
    assert max(peaks[1:]) < 8 * n and max(gradient_peaks) < 8 * n


def test_garch_requires_min_length():
    with pytest.raises(InputError):
        fit_ar_garch(make_series([0.01, -0.01] * 50))


def test_forecast_constant_variance_model():
    params = GarchParams(ar1=0.0, mean=0.0, omega=1e-4, alpha1=0.0, beta1=0.0, nu=8.0)
    series = make_series([0.01, -0.02, 0.005, 0.015, -0.01])
    est = garch_forecast_vol(params, series)
    assert est.sigma_daily == pytest.approx(math.sqrt(1e-4), rel=1e-14)
    assert est.method == "garch"


def test_forecast_past_the_float_range_is_refused():
    # sigma^2 = omega + 0.9 sigma^2 climbs to omega / 0.1 = 1e309
    params = GarchParams(ar1=0.0, mean=0.0, omega=1e308, alpha1=0.0, beta1=0.9, nu=8.0)
    with pytest.raises(InputError, match="forecast variance is not positive"):
        garch_forecast_vol(params, make_series([0.01, -0.02] * 15))


@pytest.mark.parametrize("refuse, message", [
    (garch_forecast_vol, "forecast variance is not positive"),
    (garch_log_likelihood, "likelihood undefined"),
], ids=["forecast", "likelihood"])
def test_squared_residuals_past_the_float_range_are_refused_without_a_warning(refuse, message):
    # eps^2 = (2e160)^2 overflows in the filter: a typed refusal, not numpy's RuntimeWarning
    with pytest.raises(InputError, match=message):
        refuse(TRUE_PARAMS, make_series([1e160, -1e160] * 15))


def test_a_sigma2_path_too_small_for_its_residuals_is_refused_without_a_warning():
    # sigma^2 = omega = 5e-324 after the first step: eps^2 / sigma^2 overflows in the likelihood
    params = GarchParams(ar1=0.0, mean=0.0, omega=5e-324, alpha1=0.0, beta1=0.0, nu=6.0)
    with pytest.raises(InputError, match="likelihood undefined"):
        garch_log_likelihood(params, make_series([0.01, -0.02] * 15))


def test_simulation_needs_two_returns():
    with pytest.raises(InputError, match="n must be >= 2"):
        simulate_ar_garch(TRUE_PARAMS, n=1, seed=1)


def test_forecast_responds_to_shock():
    series = simulate_ar_garch(TRUE_PARAMS, n=500, seed=3)
    shocked = make_series(np.concatenate([series.returns, [0.08]]))  # ~10-sigma day
    base = garch_forecast_vol(TRUE_PARAMS, series).sigma_daily
    after = garch_forecast_vol(TRUE_PARAMS, shocked).sigma_daily
    uncond = math.sqrt(TRUE_PARAMS.unconditional_variance)
    assert after > base
    assert after > uncond


def test_forecast_tracks_simulator_truth():
    # independent oracle: a local AR-GARCH simulator that records the true
    # next-step sigma; the filter (with true params) must track it on average
    params = TRUE_PARAMS
    rel_errors = []
    for rep in range(100):
        rng = np.random.Generator(np.random.Philox(key=10_000 + rep))
        n, burn = 500, 200
        z = rng.standard_t(params.nu, size=n + burn) * math.sqrt((params.nu - 2) / params.nu)
        s2 = params.unconditional_variance
        prev_eps = 0.0
        rets = np.empty(n + burn)
        for t in range(n + burn):
            s2 = params.omega + params.alpha1 * prev_eps**2 + params.beta1 * s2
            eps = math.sqrt(s2) * z[t]
            rets[t] = eps
            prev_eps = eps
        true_next_var = params.omega + params.alpha1 * prev_eps**2 + params.beta1 * s2
        series = make_series(rets[burn:])
        forecast = garch_forecast_vol(params, series).sigma_daily
        rel_errors.append(abs(forecast - math.sqrt(true_next_var)) / math.sqrt(true_next_var))
    assert float(np.mean(rel_errors)) < 0.20


def test_estimator_ordering_representable():
    # the four methods can realize realized <= {historical, garch} <= vix on a
    # single data set; nothing in the estimator arithmetic forbids it (zero-mean
    # data puts realized below historical via the ddof difference)
    rng = np.random.Generator(np.random.Philox(key=808))
    r = rng.normal(0.0, 0.01, size=300)
    r = r - r.mean()
    series = make_series(r)
    realized = realized_vol(series, 300)
    historical = historical_vol(series, 300)
    garch_like = garch_forecast_vol(
        GarchParams(ar1=0.0, mean=0.0,
                    omega=(realized.sigma_daily * 1.001) ** 2, alpha1=0.0, beta1=0.0, nu=8.0),
        series,
    )
    vix = vix_to_sigma(historical.sigma_annual * 110.0)  # quote above both
    assert realized.sigma_daily <= historical.sigma_daily <= vix.sigma_daily
    assert realized.sigma_daily <= garch_like.sigma_daily <= vix.sigma_daily


# -------------------------------------------------------------------- VRP

def test_vrp_cancels_at_matching_levels():
    # vix 20 <-> implied variance 0.04; constant daily returns at the matching level
    r_daily = 0.20 / math.sqrt(365.0)
    series = make_series([r_daily] * 252)
    result = variance_risk_premium(20.0, series, 252)
    assert result.vrp == pytest.approx(0.0, abs=1e-15)


def test_vrp_zero_vix():
    series = make_series([0.01] * 100)
    result = variance_risk_premium(0.0, series, 100)
    assert result.vrp == -result.realized_variance
    assert result.implied_variance == 0.0


def test_vrp_market_style_numbers():
    r_daily = 0.15 / math.sqrt(365.0)
    series = make_series([r_daily] * 252)
    result = variance_risk_premium(25.0, series, 252)
    assert result.implied_variance == pytest.approx(0.0625, abs=1e-17)
    assert result.realized_variance == pytest.approx(0.0225, abs=1e-15)
    assert result.vrp == pytest.approx(0.04, abs=1e-15)
    assert result.vrp == result.implied_variance - result.realized_variance


def test_vrp_antisymmetry():
    a, b = 0.0625, 0.0225
    fwd = VrpResult(implied_variance=a, realized_variance=b, vrp=a - b)
    swapped = VrpResult(implied_variance=b, realized_variance=a, vrp=b - a)
    assert fwd.vrp == -swapped.vrp
    with pytest.raises(InputError, match="vrp must equal implied_variance - realized_variance"):
        VrpResult(implied_variance=a, realized_variance=b, vrp=a)


@pytest.mark.parametrize("vix, r, name", [(1e160, 0.01, "implied"), (20.0, 1e160, "realized"),
                                          (20.0, 1e153, "realized")])  # 1e306 a day, 3.65e308 a year
def test_vrp_refuses_a_variance_past_the_float_range(vix, r, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"the annualized {name} variance overflows the float range"):
            variance_risk_premium(vix, make_series([r, -r, r]), 3)


# --------------------------------------------------- the Gaussian limit, nu = inf

def test_white_noise_fit_at_the_gaussian_limit():
    # on these N(0, 0.01) returns the fit ends at eta = 1/nu = 0
    rng = np.random.Generator(np.random.Philox(key=1006))
    series = make_series(rng.normal(0.0, 0.01, size=1000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = fit_ar_garch(series)
        assert fitted.nu == math.inf
        assert fitted.log_likelihood == garch_log_likelihood(fitted, series)
        sigma = garch_forecast_vol(fitted, series).sigma_daily
    assert math.isfinite(fitted.log_likelihood)
    assert 0.005 < sigma < 0.02


def test_simulation_at_the_gaussian_limit_draws_normals():
    params = GarchParams(ar1=0.0, mean=0.0, omega=1.0, alpha1=0.0, beta1=0.0, nu=math.inf)
    series = simulate_ar_garch(params, n=1_000, seed=12)
    # sigma^2 = omega = 1 on every step, so the returns are the innovations after the 500-draw burn-in
    assert np.array_equal(series.returns, np.random.Generator(np.random.Philox(key=12)).standard_normal(1_500)[500:])


def test_finite_nu_draws_reproduce_the_golden_returns():
    # tests/fixtures/golden/returns.csv was written once from these parameters and seed
    from predbs.data_io import parse_return_series

    params = GarchParams(ar1=0.05, mean=2e-4, omega=2e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    series = simulate_ar_garch(params, n=300, seed=2015, start=date(2014, 1, 2))
    golden = parse_return_series(Path(__file__).parent / "fixtures" / "golden" / "returns.csv")
    assert np.array_equal(series.returns, golden.returns) and series.dates == golden.dates


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    white=st.booleans(),
    n=st.integers(250, 2_000),
    eta=st.floats(1 / 40, 1 / 2.5),
    persistence=st.floats(0.0, 0.99),
    share_a1=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_admissible_or_refused(white, n, eta, persistence, share_a1, seed):
    # ROADMAP item 1: simulated AR(1)-GARCH(1,1)-t series (nu 2.5-40, alpha1 + beta1 <= 0.99) and white noise
    if white:
        series = make_series(np.random.Generator(np.random.Philox(key=seed)).normal(0.0, 0.01, size=n))
    else:
        a1 = persistence * share_a1
        params = GarchParams(ar1=0.05, mean=2e-4, omega=1e-4 * (1.0 - persistence), alpha1=a1,
                             beta1=persistence - a1, nu=1 / eta)
        series = simulate_ar_garch(params, n=n, seed=seed)
    try:
        fitted = fit_ar_garch(series)
    except EstimationError:
        return
    assert _admissible(fitted.omega, fitted.alpha1, fitted.beta1, fitted.nu)
    assert math.isfinite(fitted.log_likelihood)
    assert fitted.log_likelihood == garch_log_likelihood(fitted, series)
