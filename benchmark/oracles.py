"""Reference computations the benchmark checks predbs against.

Nothing here imports predbs.  The pricer is the forward form of the
dividend-yield Black-Scholes formula evaluated with scipy's Cephes ``ndtr``
(predbs uses the spot form with ``math.erfc``); the GARCH simulator and
likelihood are plain Python loops; the stochastic integrals are numpy
Riemann sums with the interpolation written out by hand.

Tolerances follow the conditioning of each quantity.  A price is trusted to
``PRICE_ULPS`` units in the last place of ``max(S e^{sigma^2 tau}, K)``: the
largest size either of the two terms that cancel in the call formula takes
on the band p in [-1, 1] (for sigma^2 tau near 0 that is ``max(S, K)``).
An implied ``p`` is trusted to the solver's bracket width plus that price
error divided by ``|dC/dp|``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, ndtr

P_TOL = 1e-10            # the solver's bracket tolerance on p (brentq xtol)
P_RTOL = 8 * 2.0**-52    # brentq rtol: 8 ulp(1) relative to the root
PRICE_ULPS = 16          # price error budget, in ulp(max(S e^{sigma^2 tau}, K))

NONE, AT_MINUS_ONE, AT_PLUS_ONE, REJECT = 1, 2, 4, 8
FLAG_BITS = {"none": NONE, "at_minus_one": AT_MINUS_ONE, "at_plus_one": AT_PLUS_ONE}


def _arrays(*xs):
    return np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))


def call_put(spot, strike, tau, rate, sigma, p):
    """Call and put prices with yield q = p sigma^2, via the discounted forward.

    C = e^{-r tau} (F Phi(d1) - K Phi(d2)),  P = e^{-r tau} (K Phi(-d2) - F Phi(-d1)),
    F = S e^{(r - q) tau}.  Vectorized; p is not restricted to [-1, 1] so that
    finite differences may step past the band edge.
    """
    s, k, t, r, v, p = _arrays(spot, strike, tau, rate, sigma, p)
    sd = v * np.sqrt(t)
    fwd = s * np.exp((r - p * v * v) * t)
    disc = np.exp(-r * t)
    d1 = np.log(fwd / k) / sd + 0.5 * sd
    d2 = d1 - sd
    call = disc * (fwd * ndtr(d1) - k * ndtr(d2))
    put = disc * (k * ndtr(-d2) - fwd * ndtr(-d1))
    return call, put


def call(spot, strike, tau, rate, sigma, p):
    return call_put(spot, strike, tau, rate, sigma, p)[0]


def dcall_dp(spot, strike, tau, rate, sigma, p):
    """dC/dp = -sigma^2 tau S e^{-q tau} Phi(d1)."""
    s, k, t, r, v, p = _arrays(spot, strike, tau, rate, sigma, p)
    sd = v * np.sqrt(t)
    q = p * v * v
    d1 = (np.log(s / k) + (r - q) * t) / sd + 0.5 * sd
    return -v * v * t * s * np.exp(-q * t) * ndtr(d1)


def price_tol(spot, strike, tau, sigma):
    """Absolute price tolerance: PRICE_ULPS ulp of max(S e^{sigma^2 tau}, K)."""
    s, k, t, v = _arrays(spot, strike, tau, sigma)
    return PRICE_ULPS * np.spacing(np.maximum(s * np.exp(v * v * t), k))


def p_tol(p_a, p_b, spot, strike, tau, rate, sigma):
    """Bound on |p_a - p_b| for two roots of the same price, given its conditioning.

    |dC/dp| falls as p rises, so its smallest value on [p_a, p_b] sits at the
    larger end; the price error budget divided by it bounds the p error.
    """
    p_hi = np.minimum(np.maximum(p_a, p_b), 1.0)
    slope = np.abs(dcall_dp(spot, strike, tau, rate, sigma, p_hi))
    with np.errstate(divide="ignore"):
        cond = price_tol(spot, strike, tau, sigma) / slope
    return P_TOL + P_RTOL * np.maximum(np.abs(p_a), np.abs(p_b)) + cond


def band(spot, strike, tau, rate, sigma):
    """Edges of the attainable band: C(p=+1), C(p=-1) and the cap S e^{sigma^2 tau}."""
    s, k, t, r, v = _arrays(spot, strike, tau, rate, sigma)
    return call(s, k, t, r, v, 1.0), call(s, k, t, r, v, -1.0), s * np.exp(v * v * t)


def allowed_flags(mid, spot, strike, tau, rate, sigma):
    """Bit set of the clamp outcomes consistent with a quote's price.

    A quote within the price tolerance of a band edge may land on either
    side of it, so both outcomes are allowed there.
    """
    lo, hi, cap = band(spot, strike, tau, rate, sigma)
    mid = np.asarray(mid, float)
    tol = price_tol(spot, strike, tau, sigma)
    out = np.zeros(mid.shape, dtype=int)
    out |= np.where(mid > cap - tol, REJECT, 0)
    out |= np.where((mid > hi - tol) & (mid <= cap + tol), AT_MINUS_ONE, 0)
    out |= np.where((mid >= lo - tol) & (mid <= hi + tol), NONE, 0)
    out |= np.where(mid < lo + tol, AT_PLUS_ONE, 0)
    out |= np.where(mid <= 0, REJECT, 0)
    return out


# ---------------------------------------------------------------------------
# Student-t AR(1)-GARCH(1,1)
# ---------------------------------------------------------------------------

def garch_simulate(mean, ar1, omega, alpha1, beta1, nu, n, rng, burn=500):
    """Returns r_t = mean + ar1 r_{t-1} + sigma_t z_t, z unit-variance Student t."""
    z = rng.standard_t(nu, size=n + burn) * math.sqrt((nu - 2.0) / nu)
    out = np.empty(n + burn)
    s2 = omega / (1.0 - alpha1 - beta1)
    prev_r, prev_eps = mean / (1.0 - ar1), 0.0
    for t in range(n + burn):
        s2 = omega + alpha1 * prev_eps * prev_eps + beta1 * s2
        eps = math.sqrt(s2) * z[t]
        prev_r = mean + ar1 * prev_r + eps
        prev_eps = eps
        out[t] = prev_r
    return out[burn:]


def garch_filter(r, mean, ar1, omega, alpha1, beta1):
    """Residuals eps_t (t >= 1) and variances sigma2_t, sigma2_1 = mean(eps^2)."""
    r = [float(x) for x in r]
    eps = [r[t] - mean - ar1 * r[t - 1] for t in range(1, len(r))]
    s2 = [sum(e * e for e in eps) / len(eps)]
    for e in eps[:-1]:
        s2.append(omega + alpha1 * e * e + beta1 * s2[-1])
    return eps, s2


def garch_loglik(r, mean, ar1, omega, alpha1, beta1, nu):
    """Conditional log-likelihood of r_1..r_{n-1} given r_0, first variance mean(eps^2)."""
    eps, s2 = garch_filter(r, mean, ar1, omega, alpha1, beta1)
    const = float(gammaln((nu + 1) / 2) - gammaln(nu / 2)) - 0.5 * math.log(math.pi * (nu - 2))
    ll = 0.0
    for e, v in zip(eps, s2):
        ll += const - 0.5 * math.log(v) - 0.5 * (nu + 1) * math.log1p(e * e / (v * (nu - 2)))
    return ll


def garch_next_variance(r, mean, ar1, omega, alpha1, beta1):
    eps, s2 = garch_filter(r, mean, ar1, omega, alpha1, beta1)
    return omega + alpha1 * eps[-1] * eps[-1] + beta1 * s2[-1]


# ---------------------------------------------------------------------------
# Stochastic integrals of theta = B against B, on a coarse grid whose values
# between nodes come from a record of the same motion at twice the resolution
# ---------------------------------------------------------------------------

def riemann_integrals(fine_values, alpha):
    """(left-point, midpoint, offset-point) sums over the coarse grid fine[::2].

    Offset points t_j + 2 alpha h (h the fine step) are linearly interpolated
    between the two fine nodes around them.  Returns the sums and the sums of
    |terms|, the scale of their rounding error.
    """
    b = np.asarray(fine_values, float)
    coarse, mid = b[::2], b[1::2]
    db = np.diff(coarse)
    w = 2.0 * alpha
    if w <= 1.0:
        off = coarse[:-1] + w * (mid - coarse[:-1])
    else:
        off = mid + (w - 1.0) * (coarse[1:] - mid)
    terms = (coarse[:-1] * db, mid * db, off * db)
    return tuple(float(x.sum()) for x in terms), tuple(float(np.abs(x).sum()) for x in terms)
