"""Stochastic integral discretizations and GBM simulation.

Three Riemann-sum stochastic integrals against a Brownian path B on a
uniform grid 0 = t_0 < ... < t_k = T:

    ito:        sum_j theta(t_j) * (B_{j+1} - B_j)          (left point)
    half:       sum_j theta((t_j + t_{j+1})/2) * dB_j        (midpoint)
    alpha:      sum_j theta(t_j (1-a) + a t_{j+1}) * dB_j    (offset point)

alpha = 0 reduces to the left-point rule and alpha = 1/2 to the midpoint
rule; for any a the offset sum converges to
2a * (midpoint) + (1 - 2a) * (left point).

The price simulator uses the exact log-space scheme

    ln S_{j+1} = ln S_j + (mu + a sigma^2 - sigma^2/2) dt + sigma dB_j

so Monte Carlo tests see statistical error only, never Euler bias: the
offset-rule SDE with parameter a is the plain SDE with drift mu + a*sigma^2.

Randomness comes from counter-based Philox streams keyed by the config
seed, with path i owning row i of a fixed (paths, steps) draw layout, so
batches are bit-reproducible and independent of any internal parallelism.
Ensemble means use numpy's pairwise summation (fixed reduction order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError
from .pricing import PricingInputs, call_price

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


def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class BrownianPath:
    """A Brownian motion sampled on a uniform grid; values[0] == 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
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
        dt = horizon / steps
        inc = _philox(seed).normal(0.0, math.sqrt(dt), size=steps)
        times = np.linspace(0.0, horizon, steps + 1)
        values = np.concatenate([[0.0], np.cumsum(inc)])
        return cls(times, values)

    @classmethod
    def from_csv(cls, path) -> "BrownianPath":
        """Load a fixture path from CSV with header ``t,B``."""
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
        if native % steps != 0:
            raise InputError(f"cannot subsample {native} intervals to {steps}")
        k = native // steps
        return BrownianPath(self.times[::k], self.values[::k])


@dataclass(frozen=True)
class IntegrandPath:
    """Integrand values on a Brownian path's grid, plus an off-grid evaluator.

    Without an explicit evaluator, intermediate points are linearly
    interpolated between grid values (the grid-limit definition gives no
    interpolation rule, so the simplest consistent one is used).
    """

    times: np.ndarray
    values: np.ndarray
    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.shape != values.shape or times.ndim != 1:
            raise InputError("times and values must be 1-d arrays of equal length")

    @classmethod
    def from_function(cls, f: Callable[[np.ndarray], np.ndarray], b: BrownianPath) -> "IntegrandPath":
        return cls(b.times, np.asarray(f(b.times), dtype=float), evaluator=f)

    @classmethod
    def from_brownian(cls, b: BrownianPath, fine: Optional[BrownianPath] = None) -> "IntegrandPath":
        """theta = B itself; pass a finer record of the same motion to evaluate between nodes."""
        if fine is None:
            return cls(b.times, b.values)
        ev = lambda t: np.interp(t, fine.times, fine.values)
        return cls(b.times, b.values, evaluator=ev)

    def at(self, t: np.ndarray) -> np.ndarray:
        if self.evaluator is not None:
            return np.asarray(self.evaluator(t), dtype=float)
        return np.interp(t, self.times, self.values)


def _check_grids(theta: IntegrandPath, b: BrownianPath) -> None:
    if theta.times.shape != b.times.shape:
        raise InputError(
            f"integrand grid ({theta.times.size}) does not match Brownian grid ({b.times.size})"
        )


def ito_integral(theta: IntegrandPath, b: BrownianPath) -> float:
    """Left-point stochastic integral sum_j theta(t_j) * dB_j (does not look ahead)."""
    return stratonovich_alpha_integral(theta, b, 0.0)


def stratonovich_alpha_integral(theta: IntegrandPath, b: BrownianPath, alpha: float) -> float:
    """Offset-point integral sum_j theta(t_j (1-alpha) + alpha t_{j+1}) * dB_j.

    alpha = 0 is `ito_integral` (the grid values themselves); alpha = 1/2 is
    `stratonovich_half_integral`.
    """
    _check_grids(theta, b)
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha}")
    db = np.diff(b.values)
    if alpha == 0.0:
        vals = theta.values[:-1]
    else:
        t_off = b.times[:-1] * (1.0 - alpha) + alpha * b.times[1:]
        vals = theta.at(t_off)
    return float(np.sum(vals * db))


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
        if not all(map(math.isfinite, (self.mu, self.sigma, self.alpha, self.s0, self.horizon))):
            raise InputError("config values must be finite")
        if not 0.0 <= self.alpha <= 1.0:
            raise InputError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.sigma < 0:
            raise InputError("sigma must be >= 0")
        if self.s0 <= 0:
            raise InputError("s0 must be > 0")
        if self.horizon <= 0:
            raise InputError("horizon must be > 0")
        if self.steps < 1 or self.paths < 1:
            raise InputError("steps and paths must be >= 1")

    @property
    def log_drift(self) -> float:
        """Drift of ln S per year: mu + alpha sigma^2 - sigma^2/2."""
        return self.mu + self.alpha * self.sigma**2 - 0.5 * self.sigma**2


@dataclass(frozen=True)
class PathBatch:
    """Simulated ensemble: terminal prices and the producing config."""

    terminal: np.ndarray
    config: PathSimConfig

    def mean_log_return(self) -> tuple[float, float]:
        """Ensemble mean of ln(S_T / S_0) and its standard error (pairwise sums)."""
        logs = np.log(self.terminal / self.config.s0)
        n = logs.size
        mean = float(np.mean(logs))
        if self.config.sigma == 0.0 or n < 2:
            return mean, 0.0  # deterministic ensemble: no sampling error
        return mean, float(np.std(logs, ddof=1) / math.sqrt(n))


def simulate_stratonovich_alpha(cfg: PathSimConfig) -> PathBatch:
    """Simulate the offset-convention SDE: the plain SDE with drift mu + alpha*sigma^2.

    alpha = 0 is the left-point (Ito) SDE dS = mu S dt + sigma S dB.
    """
    dt = cfg.horizon / cfg.steps
    inc_drift = cfg.log_drift * dt
    inc_vol = cfg.sigma * math.sqrt(dt)
    # path i owns row i of the Philox draw layout
    z = _philox(cfg.seed).standard_normal((cfg.paths, cfg.steps))
    terminal = cfg.s0 * np.exp(np.sum(inc_drift + inc_vol * z, axis=1))
    return PathBatch(terminal=terminal, config=cfg)


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

    The predictability dividend yield p*sigma^2 lowers the drift exactly like a
    continuous dividend yield.  Terminal prices are sampled exactly (one normal
    per path), so the estimate carries statistical error only.
    """
    inputs = PricingInputs(spot=s0, strike=strike, tau=tau, rate=rate, sigma=sigma, p=p)
    if tau <= 0:
        raise InputError("tau must be > 0")
    if paths < 1:
        raise InputError("paths must be >= 1")
    if sigma == 0.0:  # no diffusion: the closed form's deterministic branch is exact
        return McCallEstimate(price=call_price(inputs).price, std_error=0.0, paths=paths, seed=seed)
    q = inputs.dividend_yield
    disc = math.exp(-rate * tau)
    z = _philox(seed).standard_normal(paths)
    st = s0 * np.exp((rate - q - 0.5 * sigma * sigma) * tau + sigma * math.sqrt(tau) * z)
    payoff = np.maximum(st - strike, 0.0)
    price = disc * float(np.mean(payoff))
    se = disc * float(np.std(payoff, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return McCallEstimate(price=price, std_error=se, paths=paths, seed=seed)
