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
seed.  The simulator splits its paths into blocks of R = max(1, 2^16 // steps)
whole rows: block b holds paths [b R, (b+1) R) and draws its (rows, steps)
normals from its own stream, Philox(key=seed).jumped(b), whose counter starts
b 2^128 steps in, so block 0 is the seed's stream itself.  The blocks are
drawn in parallel, one thread per CPU the process may run on; no block reads
another's stream, so the batch is bit-identical however many threads draw it.
Memory is O(paths + threads max(2^16, steps)); statistics add the sums of
blocks of 2^16 correctly rounded (math.fsum).  The MC pricer draws one Philox
normal per path from the seed's stream and forms its payoff in place on it: up
to 2^16 paths this is the simulator's one-step draw, past that the simulator
reads jumped streams.
numpy is bound once, as the global np, and loads at the module's first numpy call: importing it loads no numpy.
"""

from __future__ import annotations

import math
import os
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


class _Numpy:
    """A module's global np until its first numpy call, which imports numpy and binds that global to numpy itself:
    importing the module loads no numpy, and every later read of np is a plain global (PEP 810's lazy import)."""

    def __init__(self, namespace: dict):
        self.namespace = namespace

    def __getattr__(self, name: str):
        import numpy
        self.namespace["np"] = numpy
        return getattr(numpy, name)


np = _Numpy(globals())


def _philox(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by seed, the one draw source of the package; its key is an integer in [0, 2^128).

    Stream b starts its 256-bit counter at b << 128, as Philox(key=seed).jumped(b) does: 2^128 counter steps past
    stream b - 1, so the streams of one seed do not overlap.  Stream 0 is the seed's own.
    """
    if not 0 <= seed < 1 << 128:
        raise InputError(f"seed must be in [0, 2^128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed, counter=stream << 128))


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
        rec = b if fine is None else fine
        return cls(lambda t: np.interp(t, rec.times, rec.values))


def ito_integral(theta: IntegrandPath, b: BrownianPath) -> float:
    """Left-point stochastic integral sum_j theta(t_j) * dB_j (does not look ahead)."""
    return stratonovich_alpha_integral(theta, b, 0.0)


def stratonovich_alpha_integral(theta: IntegrandPath, b: BrownianPath, alpha: float) -> float:
    """Offset-point integral sum_j theta(t_j (1-alpha) + alpha t_{j+1}) * dB_j.

    alpha = 0 is `ito_integral` (the offset times are exactly t_j); alpha = 1/2
    is `stratonovich_half_integral`.  A non-finite integrand value, or a sum past the float range, is refused.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InputError(f"alpha must be in [0, 1], got {alpha}")
    t_off = b.times[:-1] * (1.0 - alpha) + alpha * b.times[1:]
    values = np.asarray(theta.evaluator(t_off), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan, refused below
        total = float(np.sum(values * np.diff(b.values)))
    if math.isfinite(total):  # the increments are finite: a non-finite value makes the sum non-finite
        return total
    if not np.all(np.isfinite(values)):
        raise InputError("the integrand must be finite at every offset time")
    raise InputError(f"the integral overflows the float range: max |integrand| = {float(np.max(np.abs(values)))}")


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
        if not (1 <= self.steps < 1 << 60 and 1 <= self.paths < 1 << 60):  # 2^60 float64s: numpy's 2^63 bytes
            raise InputError(f"steps and paths must be >= 1 and < 2**60, got {self.steps} and {self.paths}")

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

    def mean_log_return(self) -> tuple[float, float]:
        """Ensemble mean of ln(S_T / S_0) and its standard error."""
        return _mean_and_se(self.log_return)


def _mean_and_se(x: np.ndarray) -> tuple[float, float]:
    """Mean of x and its standard error std(ddof=1) / sqrt(n), in two passes over blocks of 2^16, whose numpy sums
    add by math.fsum, correctly rounded: the result depends neither on the block order nor on the Python version (the
    builtin sum compensates from 3.12 on), and up to two blocks it is their plain sum.

    Without spread (n = 1 included) there is no sampling error; std would show the mean's rounding.
    Taken on x scaled exactly by the power of two that brings max |x| into [1/2, 1): no overflow.
    """
    e, blocks = math.frexp(float(max(x.max(), -x.min())))[1], range(0, x.size, _BLOCK)
    mean = math.fsum(float(np.sum(np.ldexp(x[i:i + _BLOCK], -e))) for i in blocks) / x.size
    ss = math.fsum(float(np.sum((np.ldexp(x[i:i + _BLOCK], -e) - mean) ** 2)) for i in blocks)
    se = math.ldexp(math.sqrt(ss / (x.size - 1)) / math.sqrt(x.size), e) if np.ptp(x) > 0 else 0.0
    return math.ldexp(mean, e), se


def simulate_stratonovich_alpha(cfg: PathSimConfig) -> PathBatch:
    """Simulate the offset-convention SDE: the plain SDE with drift mu + alpha*sigma^2.

    alpha = 0 is the left-point (Ito) SDE dS = mu S dt + sigma S dB.
    Block b of R = max(1, 2^16 // steps) whole rows (path i owns row i) draws from stream b of the seed, and the
    blocks are filled in parallel, one worker per CPU the process may use: the result does not depend on how many.
    Each worker reuses one block buffer: memory O(paths + workers max(2^16, steps)).
    """
    dt = cfg.horizon / cfg.steps
    inc_drift = cfg.log_drift * dt
    inc_vol = cfg.sigma * math.sqrt(dt)
    rows, log_return = max(1, _BLOCK // cfg.steps), np.empty(cfg.paths)
    blocks = -(-cfg.paths // rows)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(blocks, cpus)

    def fill(first: int) -> None:
        """Blocks first, first + workers, ...; numpy releases the GIL in the draw, the arithmetic and the sums."""
        z = np.empty((min(rows, cfg.paths), cfg.steps))
        with np.errstate(over="ignore", invalid="ignore"):  # per thread; an overflow reads inf or nan, refused below
            for b in range(first, blocks, workers):
                i = b * rows
                zb = z[:min(rows, cfg.paths - i)]
                _philox(cfg.seed, b).standard_normal(out=zb)
                zb *= inc_vol
                zb += inc_drift
                np.sum(zb, axis=1, out=log_return[i:i + rows])

    if workers == 1:
        fill(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fill, range(workers)))  # a worker's exception is raised here
    if not -math.inf < log_return.min() <= log_return.max() < math.inf:  # False for NaN
        raise InputError("the simulated log-return overflows the float range: "
                         f"sigma sqrt(horizon) = {cfg.sigma * math.sqrt(cfg.horizon)}")
    return PathBatch(log_return=log_return, config=cfg)


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
    yield.  S_T = F e^{sigma sqrt(tau) Z - sigma^2 tau/2} samples the forward F = s0 e^{(r - q) tau} exactly,
    from one Philox normal Z per path, and the payoff is formed in place on that draw: statistical error only.
    """
    inputs = PricingInputs(spot=s0, strike=strike, tau=tau, rate=rate, sigma=sigma, p=p)
    if not (tau > 0 and 1 <= paths < 1 << 60):  # 2^60 float64s: numpy's 2^63 bytes
        raise InputError(f"tau must be > 0 and paths >= 1 and < 2**60, got tau = {tau} and paths = {paths}")
    if sigma == 0.0:  # no diffusion: the closed form is exact
        return McCallEstimate(price=call_price(inputs).price, std_error=0.0, paths=paths, seed=seed)
    fwd = _scaled_exp(s0, (rate - inputs.dividend_yield) * tau)
    if fwd == math.inf:  # E[(S_T - K)^+] is then past the float range too
        raise InputError("risk-neutral forward s0 e^((r - q) tau) overflows the float range")
    e, disc = math.frexp(max(fwd, strike))[1], math.exp(-rate * tau)
    # S_T and K in exact units of 2^e ~ max(F, K): an S_T near the largest float and a K far past F stay finite
    x = _philox(seed).standard_normal(paths)  # ln(S_T / F) = sigma sqrt(tau) Z - sigma^2 tau / 2, in place
    x *= sigma * math.sqrt(tau)
    x -= 0.5 * (sigma * sigma) * tau
    np.exp(x, out=x)
    x *= math.ldexp(fwd, -e)
    x -= math.ldexp(strike, -e)
    mean, se = _mean_and_se(np.maximum(x, 0.0, out=x))
    try:  # a draw far out in the tail may still carry the estimate past the float range
        return McCallEstimate(math.ldexp(disc * mean, e), math.ldexp(disc * se, e), paths, seed)
    except OverflowError:
        raise InputError("Monte Carlo estimate overflows the float range") from None
