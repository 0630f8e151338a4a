"""Test-side oracles: reference implementations that the tests compare predbs against and that no program calls.

The CLI, the benchmark and its tracer use none of these, so they are test code, not package API.  The benchmark's
own oracles are benchmark/oracles.py, kept separate so that its checks do not rest on the code they check.  As in
the package, numpy loads at the first numpy call, so importing this module (as the golden record's generator does)
loads none.
"""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import date
from typing import Optional

from predbs.errors import InputError
from predbs.pricing import PricingInputs, call_price
from predbs.sde import _Numpy, _philox
from predbs.volatility import _PENALTY, GarchParams, ReturnSeries, _Workspace

np = _Numpy(globals())


def pde_residual(inputs: PricingInputs) -> float:
    """Left-hand side of the pricing PDE evaluated with central finite differences.

        0 = dC/dt + dC/dx (r - p sigma^2) x - r C + sigma^2 x^2 / 2 * d2C/dx2

    Time and spot derivatives come from 5-point central stencils with relative
    bumps (h*tau, h*spot), h = 1e-3, so the residual of the closed form is O(h^4).
    """
    h = 1e-3
    if inputs.tau < 10.0 * h:
        raise InputError(f"tau={inputs.tau} too close to expiry for stable differencing")

    s, tau = inputs.spot, inputs.tau
    ht, hs = h * tau, h * s

    def at(spot_x: float, tau_x: float) -> float:
        return call_price(replace(inputs, spot=spot_x, tau=tau_x)).price

    c0 = at(s, tau)
    # dC/dt = -dC/dtau
    dc_dtau = (-at(s, tau + 2 * ht) + 8 * at(s, tau + ht) - 8 * at(s, tau - ht) + at(s, tau - 2 * ht)) / (12 * ht)
    f2p, f1p, f1m, f2m = at(s + 2 * hs, tau), at(s + hs, tau), at(s - hs, tau), at(s - 2 * hs, tau)
    dc_ds = (-f2p + 8 * f1p - 8 * f1m + f2m) / (12 * hs)
    d2c_ds2 = (-f2p + 16 * f1p - 30 * c0 + 16 * f1m - f2m) / (12 * hs * hs)

    sig2 = inputs.sigma * inputs.sigma
    return (
        -dc_dtau
        + dc_ds * (inputs.rate - inputs.p * sig2) * s
        - inputs.rate * c0
        + 0.5 * sig2 * s * s * d2c_ds2
    )


def quadrature_call(spot: float, strike: float, tau: float, rate: float, sigma: float, q: float) -> float:
    """Discounted lognormal expectation of the call payoff, integrated by quad: the independent pricing oracle.

    The integrand's mass beyond z* + 45 (and beyond 45) is about e^-1000, so truncating there keeps quad's probes
    inside the range of math.exp.
    """
    from scipy.integrate import quad

    mu_log = (rate - q - 0.5 * sigma * sigma) * tau
    sd = sigma * math.sqrt(tau)
    z_star = (math.log(strike / spot) - mu_log) / sd

    def integrand(z):
        return (spot * math.exp(mu_log + sd * z) - strike) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    value, _ = quad(integrand, z_star, max(z_star + 45.0, 45.0), limit=200)
    return math.exp(-rate * tau) * value


def unconditional_variance(params: GarchParams) -> float:
    """The stationary variance omega / (1 - alpha1 - beta1) of the GARCH(1,1) innovations."""
    return params.omega / (1.0 - params.alpha1 - params.beta1)


def garch_log_likelihood(params: GarchParams, series: ReturnSeries) -> float:
    """Student-t conditional log-likelihood of the daily log-returns `series` under `params`, evaluated as
    fit_ar_garch evaluates it, in a fresh _Workspace."""
    nll = _Workspace(len(series)).value(params._vector(), series.returns)
    if nll == _PENALTY:
        raise InputError("likelihood undefined: sigma^2 path is not finite and positive for this series")
    return float(-nll)


def neg_loglik(params: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """The negative log-likelihood of the returns `r` at params (see _Workspace.value) and its gradient, evaluated in a
    _Workspace made for this call, value then gradient; fit_ar_garch evaluates every point in one that it keeps, and
    forms the gradient only at the points where its solver asks for one."""
    workspace = _Workspace(r.size)
    return workspace.value(params, r), workspace.gradient(params, r)


def log_likelihood_terms(params: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The conditional log-likelihoods ll_1..ll_T of the returns `r` at params x = (mu0, phi, omega, a1, b1,
    eta = 1/nu), whose sum is -neg_loglik(x, r)[0]: the unit-variance Student-t density written out with lgamma (the
    normal density at eta = 0), and the sigma^2 filter run as a plain loop from sigma^2_1 = mean(eps^2)."""
    mu0, phi, omega, a1, b1, eta = map(float, params)
    eps = (r[1:] - mu0 - phi * r[:-1]).tolist()
    s2 = [sum(e * e for e in eps) / len(eps)]
    for e in eps[:-1]:
        s2.append(omega + a1 * e * e + b1 * s2[-1])
    if eta == 0:
        return np.array([-0.5 * math.log(2 * math.pi * v) - e * e / (2 * v) for e, v in zip(eps, s2)])
    nu = 1 / eta
    c = math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2) - 0.5 * math.log(math.pi * (nu - 2))
    return np.array([c - 0.5 * math.log(v) - (nu + 1) / 2 * math.log1p(e * e / ((nu - 2) * v))
                     for e, v in zip(eps, s2)])


def simulate_ar_garch(params: GarchParams, n: int, seed: int, start: Optional[date] = None) -> ReturnSeries:
    """Simulate the AR-GARCH process from its stationary level (oracle for re-estimation tests).

    The first 500 draws are burn-in and discarded.  The AR(1) mean needs |ar1| < 1; nu = inf draws normals.
    """
    if n < 2:
        raise InputError("n must be >= 2")
    if not abs(params.ar1) < 1.0:
        raise InputError(f"simulation needs a stationary AR(1) mean, |ar1| < 1, got ar1={params.ar1}")
    burn = 500
    rng = _philox(seed)
    z = (rng.standard_normal(n + burn) if math.isinf(params.nu)
         else rng.standard_t(params.nu, size=n + burn) * math.sqrt((params.nu - 2.0) / params.nu))
    out = np.empty(n + burn)
    s2 = unconditional_variance(params)
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
