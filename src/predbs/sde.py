"""Stochastic integral discretizations and GBM simulation.

Every stochastic integral here is one Riemann sum against a Brownian path B
on a uniform grid 0 = t_0 < ... < t_k = T, with the integrand theta a
function of time evaluated at an offset point of each step:

    alpha:      sum_j theta((1-a) t_j + a t_{j+1}) * (B_{j+1} - B_j)
    ito:        a = 0, theta(t_j)                            (left point)
    half:       a = 1/2, theta((t_j + t_{j+1})/2)            (midpoint)

For any a the offset sum converges to
2a * (midpoint) + (1 - 2a) * (left point).  A recorded path becomes a
function of time by linear interpolation between its nodes, which returns
the recorded values at the nodes themselves.

The price simulator uses the exact log-space scheme

    ln S_{j+1} = ln S_j + (mu + a sigma^2 - sigma^2/2) dt + sigma dB_j

so Monte Carlo tests see statistical error only, never Euler bias: the
offset-rule SDE with parameter a is the plain SDE with drift mu + a*sigma^2.

Randomness comes from counter-based Philox streams keyed by the config
seed, with path i owning row i of a fixed (paths, steps) draw layout, so
batches are bit-reproducible and independent of any internal parallelism.
The simulator draws that layout in row blocks, in O(paths + block) memory; statistics are fixed-order
block sums in O(block). The MC pricer samples the forward and forms its payoff on the one paths-long array.
Each function that calls numpy imports it in its body, so importing this module loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InputError
from .pricing import PricingInputs, call_price, _scaled_exp, dividend_yield_due_to_predictability

__all__ = [
    "BrownianPath",
    "IntegrandPath",
    "PathSimConfig",
    "PathBatch",
    "McCallEstimate",
    "ito_integral",
    "stratonovich_half_integral",
    "stratonovich_alpha_integral",
    "simulate_stratonovich_alpha",
    "mc_risk_neutral_call",
]

_BLOCK = 1 << 16  # normals the simulator draws at a time; blocks hold whole rows


def _philox(seed: int) -> np.random.Generator:
    """The Philox stream keyed by seed, the one draw source of the package; its key is an integer in [0, 2^128)."""
    if not 0 <= seed < 1 << 128:
        raise InputError(f"seed must be in [0, 2^128), got {seed}")
    import numpy as np
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class BrownianPath:
    """A Brownian motion sampled on a uniform grid; values[0] == 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        import numpy as np
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.shape != values.shape or times.size < 2:
            raise InputError("times and values must be 1-d arrays of equal length >= 2")
        dt = np.diff(times)
        if not np.all(dt > 0):
            raise InputError("times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=1e-12):
            raise InputError("times must be uniformly spaced")
        if values[0] != 0.0:
            raise InputError("Brownian path must start at 0")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise InputError("times and values must be finite")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @classmethod
    def sample(cls, steps: int, horizon: float, seed: int) -> "BrownianPath":
        """Draw a path with i.i.d. Normal(0, dt) increments from a seeded Philox stream."""
        if steps < 1 or horizon <= 0:
            raise InputError("steps must be >= 1 and horizon > 0")
        import numpy as np
        dt = horizon / steps
        inc = _philox(seed).normal(0.0, math.sqrt(dt), size=steps)
        times = np.linspace(0.0, horizon, steps + 1)
        values = np.concatenate([[0.0], np.cumsum(inc)])
        return cls(times, values)

    @classmethod
    def from_csv(cls, path) -> "BrownianPath":
        """Load a fixture path from CSV with header ``t,B``."""
        import numpy as np
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load Brownian path from {path}: {exc}") from exc
        if rows.shape[1] < 2:
            raise InputError(f"{path}: expected two columns t,B")
        return cls(rows[:, 0], rows[:, 1])

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,B\n")
            for t, b in zip(self.times, self.values):
                fh.write(f"{t:.17g},{b:.17g}\n")

    def subsample(self, steps: int) -> "BrownianPath":
        """Coarsen to `steps` intervals (must divide the native step count)."""
        native = self.times.size - 1
        if steps < 1 or native % steps != 0:
            raise InputError(f"cannot subsample {native} intervals to {steps}")
        k = native // steps
        return BrownianPath(self.times[::k], self.values[::k])


@dataclass(frozen=True)
class IntegrandPath:
    """An integrand theta as a function of time, evaluated on arrays of times."""

    evaluator: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_brownian(cls, b: BrownianPath, fine: Optional[BrownianPath] = None) -> "IntegrandPath":
        """theta = B, linearly interpolated between the nodes of `fine` (default `b`)."""
        import numpy as np
        rec = b if fine is None else fine
        return cls(lambda t: np.interp(t, rec.times, rec.values))

    def at(self, t: np.ndarray) -> np.ndarray:
        import numpy as np
        return np.asarray(self.evaluator(t), dtype=float)


def ito_integral(theta: IntegrandPath, b: BrownianPath) -> float:
    """Left-point stochastic integral sum_j theta(t_j) * dB_j (does not look ahead)."""
    return stratonovich_alpha_integral(theta, b, 0.0)


def stratonovich_alpha_integral(theta: IntegrandPath, b: BrownianPath, alpha: float) -> float:
    """Offset-point integral sum_j theta(t_j (1-alpha) + alpha t_{j+1}) * dB_j.

    alpha = 0 is `ito_integral` (the offset times are exactly t_j); alpha = 1/2
    is `stratonovich_half_integral`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha}")
    import numpy as np
    t_off = b.times[:-1] * (1.0 - alpha) + alpha * b.times[1:]
    return float(np.sum(theta.at(t_off) * np.diff(b.values)))


def stratonovich_half_integral(theta: IntegrandPath, b: BrownianPath) -> float:
    """Midpoint stochastic integral sum_j theta((t_j + t_{j+1})/2) * dB_j (looks ahead)."""
    return stratonovich_alpha_integral(theta, b, 0.5)


@dataclass(frozen=True)
class PathSimConfig:
    """Monte Carlo configuration for the price SDE simulators."""

    mu: float
    sigma: float
    alpha: float
    s0: float
    horizon: float
    steps: int = 252
    paths: int = 100_000
    seed: int = 42

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must be in [0, 1], got {self.alpha}")
        dividend_yield_due_to_predictability(0.0, self.sigma)  # the pricer's sigma domain
        if not (math.isfinite(drift := self.log_drift * self.horizon) and math.isfinite(self.s0)):  # mu, horizon too
            raise InputError(f"config values must be finite: s0 = {self.s0}, log_drift * horizon = {drift}")
        if self.s0 <= 0:
            raise InputError("s0 must be > 0")
        if self.horizon <= 0:
            raise InputError("horizon must be > 0")
        if self.steps < 1 or self.paths < 1:
            raise InputError("steps and paths must be >= 1")

    @property
    def log_drift(self) -> float:
        """Drift of ln S per year: mu + alpha sigma^2 - sigma^2/2."""
        var = self.sigma * self.sigma
        return self.mu + self.alpha * var - 0.5 * var


@dataclass(frozen=True)
class PathBatch:
    """Simulated ensemble: log-returns ln(S_T / S_0) and the producing config."""

    log_return: np.ndarray
    config: PathSimConfig

    @property
    def terminal(self) -> np.ndarray:
        import numpy as np
        return self.config.s0 * np.exp(self.log_return)

    def mean_log_return(self) -> tuple[float, float]:
        """Ensemble mean of ln(S_T / S_0) and its standard error."""
        return _mean_and_se(self.log_return)


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of x and its standard error std(ddof=1) / sqrt(n), in two passes of fixed-order block sums.

    Without spread (n = 1 included) there is no sampling error; std would show the mean's rounding.
    Taken on x scaled exactly by the power of two that brings max |x| into [1/2, 1): no overflow.
    """
    import numpy as np
    e, blocks = math.frexp(float(max(x.max(), -x.min())))[1], range(0, x.size, _BLOCK)
    mean = sum(float(np.sum(np.ldexp(x[i:i + _BLOCK], -e))) for i in blocks) / x.size
    ss = sum(float(np.sum((np.ldexp(x[i:i + _BLOCK], -e) - mean) ** 2)) for i in blocks)
    se = math.ldexp(math.sqrt(ss / (x.size - 1)) / math.sqrt(x.size), e) if np.ptp(x) > 0 else 0.0
    return math.ldexp(mean, e), se


def simulate_stratonovich_alpha(cfg: PathSimConfig) -> PathBatch:
    """Simulate the offset-convention SDE: the plain SDE with drift mu + alpha*sigma^2.

    alpha = 0 is the left-point (Ito) SDE dS = mu S dt + sigma S dB.
    The (paths, steps) draw comes in blocks of whole rows (path i owns row i): memory O(paths + block).
    """
    import numpy as np
    dt = cfg.horizon / cfg.steps
    inc_drift = cfg.log_drift * dt
    inc_vol = cfg.sigma * math.sqrt(dt)
    rng, rows, log_return = _philox(cfg.seed), max(1, _BLOCK // cfg.steps), np.empty(cfg.paths)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan, refused below
        for i in range(0, cfg.paths, rows):
            z = rng.standard_normal((min(rows, cfg.paths - i), cfg.steps))
            log_return[i:i + rows] = np.sum(inc_drift + inc_vol * z, axis=1)
    if not -math.inf < log_return.min() <= log_return.max() < math.inf:  # False for NaN
        raise InputError("the simulated log-return overflows the float range: "
                         f"sigma sqrt(horizon) = {cfg.sigma * math.sqrt(cfg.horizon)}")
    return PathBatch(log_return=log_return, config=cfg)


_log_exact = simulate_stratonovich_alpha  # the MC pricer's handle, untouched by wrappers of the public name


@dataclass(frozen=True)
class McCallEstimate:
    price: float
    std_error: float
    paths: int
    seed: int


def mc_risk_neutral_call(
    s0: float,
    strike: float,
    tau: float,
    rate: float,
    sigma: float,
    p: float,
    paths: int = 100_000,
    seed: int = 42,
) -> McCallEstimate:
    """Discounted Monte Carlo call price under the risk-neutral drift r - p*sigma^2.

    The predictability dividend yield p*sigma^2 lowers the drift exactly like a continuous dividend
    yield.  S_T = F e^{sigma B_tau - sigma^2 tau/2} samples the forward F = s0 e^{(r - q) tau} through
    the price simulator (mu = 0, s0 = 1, alpha = 0) in one log-exact step: statistical error only.
    """
    inputs = PricingInputs(spot=s0, strike=strike, tau=tau, rate=rate, sigma=sigma, p=p)
    cfg = PathSimConfig(mu=0.0, sigma=sigma, alpha=0.0, s0=1.0, horizon=tau, steps=1, paths=paths, seed=seed)
    if sigma == 0.0:  # no diffusion: the closed form is exact
        return McCallEstimate(price=call_price(inputs).price, std_error=0.0, paths=paths, seed=seed)
    fwd = _scaled_exp(s0, (rate - inputs.dividend_yield) * tau)
    if fwd == math.inf:  # E[(S_T - K)^+] is then past the float range too
        raise InputError("risk-neutral forward s0 e^((r - q) tau) overflows the float range")
    import numpy as np
    e, disc = math.frexp(max(fwd, strike))[1], math.exp(-rate * tau)
    # S_T and K in exact units of 2^e ~ max(F, K): an S_T near the largest float and a K far past F stay finite
    x = _log_exact(cfg).log_return  # this call's own batch: the payoff is formed over it in place
    np.exp(x, out=x)
    x *= math.ldexp(fwd, -e)
    x -= math.ldexp(strike, -e)
    mean, se = _mean_and_se(np.maximum(x, 0.0, out=x))
    try:  # a draw far out in the tail may still carry the estimate past the float range
        return McCallEstimate(math.ldexp(disc * mean, e), math.ldexp(disc * se, e), paths, seed)
    except OverflowError:
        raise InputError("Monte Carlo estimate overflows the float range") from None
