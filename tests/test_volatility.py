import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from predbs.errors import EstimationError, InputError
from predbs.volatility import (
    DAYS_PER_YEAR,
    VOL_METHODS,
    GarchParams,
    ReturnSeries,
    VolEstimate,
    fit_ar_garch,
    garch_forecast_vol,
    garch_log_likelihood,
    historical_vol,
    realized_vol,
    simulate_ar_garch,
    variance_risk_premium,
    vix_to_sigma,
)
from predbs.volatility import _filter, _neg_loglik, _starting_points


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


@pytest.mark.parametrize("ar1", [1.0, -1.0, 1.5])
def test_simulation_needs_stationary_ar1(ar1):
    params = GarchParams(ar1=ar1, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    with pytest.raises(InputError, match=r"\|ar1\| < 1"):
        simulate_ar_garch(params, n=10, seed=1)


def test_sigma2_recursion_matches_naive_loop():
    rng = np.random.Generator(np.random.Philox(key=42))
    r = rng.normal(0.0, 0.01, size=201)
    omega, a1, b1 = 1e-6, 0.08, 0.9
    eps, eps2, fast = _filter(np.array([1e-4, 0.1, omega, a1, b1, 6.0]), r)
    assert np.array_equal(eps, r[1:] - 1e-4 - 0.1 * r[:-1])
    slow = np.empty(eps2.size + 1)  # sigma^2_1..sigma^2_T and the one-step forecast
    slow[0] = np.mean(eps2)
    for t in range(1, slow.size):
        slow[t] = omega + a1 * eps2[t - 1] + b1 * slow[t - 1]
    assert np.array_equal(fast, slow)


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


def test_garch_fit_beats_every_start():
    series = simulate_ar_garch(TRUE_PARAMS, n=2_000, seed=5)
    fitted = fit_ar_garch(series)
    sd = math.sqrt(np.var(series.returns))
    r_scaled = series.returns / sd
    fitted_scaled = np.array([
        fitted.mean / sd, fitted.ar1, fitted.omega / sd**2, fitted.alpha1, fitted.beta1, fitted.nu,
    ])
    best_nll = _neg_loglik(fitted_scaled, r_scaled)[0]
    for start in _starting_points(r_scaled):
        assert best_nll <= _neg_loglik(start, r_scaled)[0] + 1e-9


@pytest.mark.parametrize("x", [
    [0.03, 0.0, 0.02, 0.08, 0.90, 6.0],         # interior
    [0.03, 0.0, 0.002, 0.10, 0.89999, 6.0],     # alpha1 + beta1 -> 1
    [0.03, 0.0, 0.05, 0.10, 0.85, 2.0501],      # nu near the fit's 2.05 bound
    [-0.02, 0.35, 0.03, 0.12, 0.80, 9.0],       # phi != 0
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
    value, grad = _neg_loglik(np.array([0.0, 0.0, 0.01, 0.5, 0.5, 6.0]), r)
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


@pytest.mark.parametrize("nu", [1e7, 2.5e8, 1e12])
def test_student_t_constant_at_large_nu(nu):
    # ln Gamma(a + 1/2) - ln Gamma(a) = 0.5 ln a - 1/(8a) + 1/(192 a^3) + O(a^-5), a = nu/2
    a = nu / 2
    r = np.array([0.0, 1.0])  # one residual eps = 1, with sigma^2 = mean(eps^2) = 1
    rest = -0.5 * math.log(math.pi * (nu - 2)) - 0.5 * (nu + 1) * math.log1p(1 / (nu - 2))
    ll = -_neg_loglik(np.array([0.0, 0.0, 0.1, 0.1, 0.8, nu]), r)[0]
    assert ll == pytest.approx(0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a**3) + rest, rel=0, abs=1e-14)


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


def test_garch_requires_min_length():
    with pytest.raises(InputError):
        fit_ar_garch(make_series([0.01, -0.01] * 50))


def test_forecast_constant_variance_model():
    params = GarchParams(ar1=0.0, mean=0.0, omega=1e-4, alpha1=0.0, beta1=0.0, nu=8.0)
    series = make_series([0.01, -0.02, 0.005, 0.015, -0.01])
    est = garch_forecast_vol(params, series)
    assert est.sigma_daily == pytest.approx(math.sqrt(1e-4), rel=1e-14)
    assert est.method == "garch"


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
    from predbs.volatility import VrpResult

    a, b = 0.0625, 0.0225
    fwd = VrpResult(implied_variance=a, realized_variance=b, vrp=a - b)
    swapped = VrpResult(implied_variance=b, realized_variance=a, vrp=b - a)
    assert fwd.vrp == -swapped.vrp
