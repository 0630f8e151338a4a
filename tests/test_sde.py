import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from predbs.errors import InputError
from predbs.sde import (
    BrownianPath,
    IntegrandPath,
    PathBatch,
    PathSimConfig,
    _mean_and_se,
    ito_integral,
    mc_risk_neutral_call,
    simulate_stratonovich_alpha,
    stratonovich_alpha_integral,
    stratonovich_half_integral,
)
from predbs.pricing import PricingInputs, call_price


@pytest.fixture(scope="module")
def fixture_path(brownian_paths):
    return brownian_paths["brownian_T1_4096_seed7.csv"]


# ---------------------------------------------------------------- paths

def test_brownian_path_validation():
    with pytest.raises(InputError):
        BrownianPath(times=[0.0, 0.5, 0.7], values=[0.0, 0.1, 0.2])  # non-uniform
    with pytest.raises(InputError):
        BrownianPath(times=[0.0, 0.5, 1.0], values=[0.1, 0.2, 0.3])  # B(0) != 0
    with pytest.raises(InputError):
        BrownianPath(times=[0.0, 1.0, 0.5], values=[0.0, 0.1, 0.2])  # not increasing
    for times, values in (([0.0, 1.0], [0.0]), ([0.0], [0.0]), ([[0.0, 1.0]], [[0.0, 0.1]])):
        with pytest.raises(InputError, match="1-d arrays of equal length >= 2"):
            BrownianPath(times=times, values=values)
    with pytest.raises(InputError, match="times and values must be finite"):
        BrownianPath(times=[0.0, 0.5, 1.0], values=[0.0, math.nan, 0.2])
    for steps, horizon in ((0, 1.0), (4, 0.0)):
        with pytest.raises(InputError, match="steps must be >= 1 and horizon > 0"):
            BrownianPath.sample(steps=steps, horizon=horizon, seed=1)


def test_brownian_sample_reproducible():
    a = BrownianPath.sample(steps=128, horizon=1.0, seed=5)
    b = BrownianPath.sample(steps=128, horizon=1.0, seed=5)
    assert np.array_equal(a.values, b.values)
    assert a.values[0] == 0.0
    assert a.times[1] - a.times[0] == pytest.approx(1.0 / 128)


def test_subsample_divisibility(fixture_path):
    coarse = fixture_path.subsample(64)
    assert coarse.times.size == 65
    assert coarse.values[-1] == fixture_path.values[-1]
    for steps in (100, 0, -1, -4096):
        with pytest.raises(InputError, match="cannot subsample"):
            fixture_path.subsample(steps)


# ------------------------------------------------------------ integrals

def test_ito_constant_integrand_telescopes(fixture_path):
    theta = IntegrandPath(lambda t: np.ones_like(t))
    total = ito_integral(theta, fixture_path)
    assert total == pytest.approx(fixture_path.values[-1] - fixture_path.values[0], abs=1e-12)


def test_ito_zero_integrand(fixture_path):
    theta = IntegrandPath(lambda t: np.zeros_like(t))
    assert ito_integral(theta, fixture_path) == 0.0


def test_ito_brownian_vs_ito_formula_oracle(fixture_path):
    # single stored path: sum B dB = (B_T^2 - sum dB^2)/2, and E[sum dB^2] = T,
    # so the gap to (B_T^2 - T)/2 is O(sqrt(dt))
    theta = IntegrandPath.from_brownian(fixture_path)
    value = ito_integral(theta, fixture_path)
    T = float(fixture_path.times[-1])
    oracle = (fixture_path.values[-1] ** 2 - T) / 2.0
    bound = 4.0 * math.sqrt(2.0 * T * (fixture_path.times[1] - fixture_path.times[0])) / 2.0
    assert abs(value - oracle) < bound

    # ensemble: mean gap shrinks as 1/sqrt(n); check within 3 SE at 1e5 paths
    rng = np.random.Generator(np.random.Philox(key=99))
    n, steps = 100_000, 252
    dt = T / steps
    inc = rng.normal(0.0, math.sqrt(dt), size=(n, steps))
    b = np.concatenate([np.zeros((n, 1)), np.cumsum(inc, axis=1)], axis=1)
    ito_vals = np.sum(b[:, :-1] * np.diff(b, axis=1), axis=1)
    oracle_vals = (b[:, -1] ** 2 - T) / 2.0
    gap = ito_vals - oracle_vals
    se = gap.std(ddof=1) / math.sqrt(n)
    assert abs(gap.mean()) < 3.0 * se


def test_half_integral_constant(fixture_path):
    theta = IntegrandPath(lambda t: np.full_like(t, 2.5))
    expected = 2.5 * (fixture_path.values[-1] - fixture_path.values[0])
    assert stratonovich_half_integral(theta, fixture_path) == pytest.approx(expected, abs=1e-12)


def test_half_integral_brownian_chain_rule(fixture_path):
    # midpoint values interpolate to (B_j + B_{j+1})/2, so the sum telescopes
    # to B_T^2/2 exactly: the Stratonovich chain rule holds without correction
    theta = IntegrandPath.from_brownian(fixture_path)
    value = stratonovich_half_integral(theta, fixture_path)
    assert value == pytest.approx(fixture_path.values[-1] ** 2 / 2.0, abs=1e-10)


def test_half_integral_zero(fixture_path):
    theta = IntegrandPath(lambda t: np.zeros_like(t))
    assert stratonovich_half_integral(theta, fixture_path) == 0.0


def test_alpha_integral_reduces_to_ito_and_half(fixture_path):
    theta = IntegrandPath.from_brownian(fixture_path)
    assert stratonovich_alpha_integral(theta, fixture_path, 0.0) == ito_integral(theta, fixture_path)
    assert stratonovich_alpha_integral(theta, fixture_path, 0.5) == stratonovich_half_integral(
        theta, fixture_path
    )


def test_alpha_integral_rejects_bad_alpha(fixture_path):
    theta = IntegrandPath.from_brownian(fixture_path)
    with pytest.raises(InputError):
        stratonovich_alpha_integral(theta, fixture_path, 1.5)
    with pytest.raises(InputError):
        stratonovich_alpha_integral(theta, fixture_path, -0.1)


@pytest.mark.parametrize("integral", [
    ito_integral, stratonovich_half_integral, lambda theta, b: stratonovich_alpha_integral(theta, b, 0.3),
], ids=["ito", "half", "alpha"])
@pytest.mark.parametrize("value, message", [
    (1e308, r"integral overflows the float range: max \|integrand\| = 1e\+308"),  # 16 finite terms of 1e308
    (-1e308, r"integral overflows the float range: max \|integrand\| = 1e\+308"),
    (math.nan, "integrand must be finite at every offset time"),
    (math.inf, "integrand must be finite at every offset time"),
])
def test_integral_past_the_float_range_or_of_a_non_finite_integrand_is_refused(integral, value, message):
    b = BrownianPath(np.linspace(0.0, 1.0, 17), np.arange(17.0))  # unit increments
    with pytest.raises(InputError, match=message):
        integral(IntegrandPath(lambda t: np.full_like(t, value)), b)


def test_integral_refuses_one_non_finite_value_where_the_increment_is_zero():
    # nan * 0 is nan and inf * 0 is nan: a value over a flat step still reaches the sum
    b = BrownianPath(np.linspace(0.0, 1.0, 5), np.array([0.0, 1.0, 1.0, 2.0, 3.0]))
    for value in (math.nan, math.inf):
        with pytest.raises(InputError, match="integrand must be finite"):
            ito_integral(IntegrandPath(lambda t: np.where(t == 0.25, value, 1.0)), b)


@pytest.mark.parametrize("with_fine", [False, True])
def test_ito_of_recorded_path_is_the_left_point_sum(fixture_path, with_fine):
    # interpolation returns the recorded values at the nodes, so the Ito sum of
    # theta = B is the left-point sum over the grid values, bit for bit
    c = fixture_path.subsample(64)
    theta = IntegrandPath.from_brownian(c, fine=fixture_path if with_fine else None)
    assert ito_integral(theta, c) == float(np.sum(c.values[:-1] * np.diff(c.values)))


def test_integrand_recorded_on_another_grid_is_interpolated(fixture_path):
    # theta is a function of time: a 32-step record is evaluated between its nodes
    other = BrownianPath.sample(steps=32, horizon=1.0, seed=1)
    theta = IntegrandPath.from_brownian(other)
    want = float(np.sum(np.interp(fixture_path.times[:-1], other.times, other.values)
                        * np.diff(fixture_path.values)))
    assert ito_integral(theta, fixture_path) == want


def test_alpha_identity_exact_with_grid_interpolation(fixture_path):
    # with linear interpolation between grid values the three sums satisfy the
    # combination identity algebraically, at machine precision
    for steps in (64, 256, 1024):
        b = fixture_path.subsample(steps)
        theta = IntegrandPath.from_brownian(b)
        for alpha in (0.25, 0.75, 1.0):
            lhs = stratonovich_alpha_integral(theta, b, alpha)
            rhs = 2 * alpha * stratonovich_half_integral(theta, b) + (
                1 - 2 * alpha
            ) * ito_integral(theta, b)
            assert lhs == pytest.approx(rhs, abs=1e-11)


def test_alpha_identity_rms_decreases_for_brownian_integrand():
    # theta = B evaluated from a finer record of the same motion: the identity
    # error is a statistical O(sqrt(dt)) quantity; its ensemble RMS must shrink
    # under refinement (the deterministic order assertion lives with smooth
    # integrands, where the decay is second order)
    T, fine_steps, n_paths = 1.0, 4096, 256
    rng = np.random.Generator(np.random.Philox(key=321))
    dt = T / fine_steps
    inc = rng.normal(0.0, math.sqrt(dt), size=(n_paths, fine_steps))
    tf = np.linspace(0.0, T, fine_steps + 1)
    values = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(inc, axis=1)], axis=1)
    for alpha in (0.25, 0.75, 1.0):
        rms = []
        for steps in (64, 256, 1024):
            k = fine_steps // steps
            errs = np.empty(n_paths)
            for i in range(n_paths):
                fine = BrownianPath(tf, values[i])
                b = fine.subsample(steps)
                theta = IntegrandPath.from_brownian(b, fine=fine)
                lhs = stratonovich_alpha_integral(theta, b, alpha)
                rhs = 2 * alpha * stratonovich_half_integral(theta, b) + (
                    1 - 2 * alpha
                ) * ito_integral(theta, b)
                errs[i] = lhs - rhs
            rms.append(float(np.sqrt(np.mean(errs**2))))
        assert rms[0] > rms[1] > rms[2]


# ----------------------------------------------------------- simulators

def test_sim_config_validation():
    with pytest.raises(InputError):
        PathSimConfig(mu=0.0, sigma=0.2, alpha=1.5, s0=100, horizon=1.0)
    with pytest.raises(InputError):
        PathSimConfig(mu=0.0, sigma=-0.1, alpha=0.0, s0=100, horizon=1.0)
    with pytest.raises(InputError):
        PathSimConfig(mu=0.0, sigma=0.2, alpha=0.0, s0=-1, horizon=1.0)
    with pytest.raises(InputError, match="overflows"):
        PathSimConfig(mu=0.0, sigma=1e200, alpha=0.0, s0=100, horizon=1.0)
    # alpha, then sigma, are checked before the config's finiteness
    with pytest.raises(InputError, match=r"alpha must be in \[0, 1\], got nan"):
        PathSimConfig(mu=0.0, sigma=0.2, alpha=math.nan, s0=100, horizon=1.0)
    with pytest.raises(InputError, match="sigma must be finite and >= 0, got inf"):
        PathSimConfig(mu=0.0, sigma=math.inf, alpha=0.0, s0=100, horizon=1.0)


@pytest.mark.parametrize("bad, message", [
    (dict(mu=math.inf), "config values must be finite"),    # the check of s0 and log_drift * horizon
    (dict(mu=math.nan), "config values must be finite"),
    (dict(horizon=0.0), "horizon must be > 0"),               # `if self.horizon <= 0`
    (dict(horizon=-1.0), "horizon must be > 0"),
    (dict(steps=0), "steps and paths must be >= 1"),          # `if self.steps < 1 or self.paths < 1`
    (dict(paths=0), "steps and paths must be >= 1"),
    # finite fields whose log-return drift log_drift * horizon overflows: the simulator would report inf
    (dict(mu=1e308, horizon=10.0), r"config values must be finite: s0 = 100.0, log_drift \* horizon = inf"),
    (dict(mu=1e300, horizon=1e10, steps=1), r"log_drift \* horizon = inf"),
    (dict(horizon=math.inf), r"log_drift \* horizon = -inf"),
    (dict(horizon=math.nan), r"log_drift \* horizon = nan"),
    (dict(s0=math.inf), "config values must be finite: s0 = inf"),
])
def test_sim_config_rejects_bad_mu_horizon_steps_paths(bad, message):
    kw = dict(mu=0.0, sigma=0.2, alpha=0.0, s0=100.0, horizon=1.0, steps=4, paths=10)
    with pytest.raises(InputError, match=message):
        PathSimConfig(**{**kw, **bad})


@pytest.mark.parametrize("steps", [1, 4])
def test_simulated_log_return_past_the_float_range_is_refused(steps):
    # no drift at alpha = 1/2, but sigma sqrt(horizon) z = 1.3e308 z leaves the float range for |z| > 1.4;
    # over 4 steps the terms can stay finite while their sum does not
    cfg = PathSimConfig(mu=0.0, sigma=1.3e154, alpha=0.5, s0=1.0, horizon=1e308, steps=steps, paths=1000)
    message = r"log-return overflows the float range: sigma sqrt\(horizon\) = 1\.2999999999999999e\+308"
    with pytest.raises(InputError, match=message):
        simulate_stratonovich_alpha(cfg)


def test_overflow_in_a_worker_thread_is_refused_not_warned(monkeypatch):
    # three blocks of 16,384 rows on two workers: np.errstate does not pass into a new thread, so each worker
    # sets its own, and the overflow reaches the caller as the refusal above (a RuntimeWarning is an error here)
    _cpus(monkeypatch, 2)
    cfg = PathSimConfig(mu=0.0, sigma=1.3e154, alpha=0.5, s0=1.0, horizon=1e308, steps=4, paths=40_000)
    with pytest.raises(InputError, match="log-return overflows the float range"):
        simulate_stratonovich_alpha(cfg)


def test_std_error_is_zero_without_spread():
    # sigma sqrt(dt) z is below half an ulp of the drift step, so every path has the same
    # log-return; std(ddof=1) of them measured only the rounding of the mean (2.2e-19)
    cfg = PathSimConfig(mu=0.05, sigma=1e-20, alpha=0.0, s0=100.0, horizon=1.0, steps=4, paths=1000)
    batch = simulate_stratonovich_alpha(cfg)
    assert np.ptp(batch.log_return) == 0.0
    assert batch.mean_log_return()[1] == 0.0


def test_ito_gbm_deterministic_limit():
    cfg = PathSimConfig(mu=0.05, sigma=0.0, alpha=0.0, s0=100.0, horizon=1.0,
                        steps=16, paths=50, seed=3)
    batch = simulate_stratonovich_alpha(cfg)
    assert np.allclose(cfg.s0 * np.exp(batch.log_return), 100.0 * math.exp(0.05), rtol=1e-12)


def test_ito_gbm_martingale_when_driftless():
    cfg = PathSimConfig(mu=0.0, sigma=0.3, alpha=0.0, s0=100.0, horizon=1.0,
                        steps=64, paths=100_000, seed=11)
    terminal = cfg.s0 * np.exp(simulate_stratonovich_alpha(cfg).log_return)
    se = terminal.std(ddof=1) / math.sqrt(cfg.paths)
    assert abs(terminal.mean() - 100.0) < 3.0 * se


def test_ito_gbm_log_mean():
    cfg = PathSimConfig(mu=0.1, sigma=0.2, alpha=0.0, s0=100.0, horizon=1.0,
                        steps=64, paths=100_000, seed=17)
    mean, se = simulate_stratonovich_alpha(cfg).mean_log_return()
    assert abs(mean - 0.08) < 3.0 * se


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_alpha_sim_is_the_log_exact_scheme(alpha):
    # row i of the Philox draws drives path i; ln S steps by log_drift dt + sigma sqrt(dt) z
    cfg = PathSimConfig(mu=0.07, sigma=0.25, alpha=alpha, s0=50.0, horizon=0.5,
                        steps=32, paths=2000, seed=23)
    assert cfg.log_drift == 0.07 + alpha * 0.25**2 - 0.5 * 0.25**2
    dt = 0.5 / 32
    z = np.random.Generator(np.random.Philox(key=23)).standard_normal((2000, 32))
    expected = 50.0 * np.exp(np.sum(cfg.log_drift * dt + 0.25 * math.sqrt(dt) * z, axis=1))
    assert np.array_equal(cfg.s0 * np.exp(simulate_stratonovich_alpha(cfg).log_return), expected)


def _blocks_from_jumped_streams(cfg, sum_rows):
    """Block b of R = max(1, 2^16 // steps) rows, drawn from Philox(key=seed).jumped(b), through sum_rows."""
    rows = max(1, 2**16 // cfg.steps)
    out = np.empty(cfg.paths)
    for b, i in enumerate(range(0, cfg.paths, rows)):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(b))
        out[i:i + rows] = sum_rows(rng.standard_normal((min(rows, cfg.paths - i), cfg.steps)))
    return out


def _cpus(monkeypatch, n):
    """Let the process run on n CPUs, as the simulator counts them."""
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.mark.parametrize("steps, paths", [   # the simulator draws blocks of 2^16 // steps rows
    (252, 261),      # 260 rows a block: a ragged last block of one row
    (252, 1040),     # exactly four blocks
    (70001, 3),      # steps beyond the block: one row a block
    (1, 131073),     # one step, more paths than the block: two full blocks and one row
])
def test_simulator_is_one_draw_in_row_blocks(steps, paths):
    cfg = PathSimConfig(mu=0.07, sigma=0.3, alpha=0.4, s0=100.0, horizon=1.3,
                        steps=steps, paths=paths, seed=steps)
    dt = cfg.horizon / steps
    expected = _blocks_from_jumped_streams(
        cfg, lambda z: np.sum(cfg.log_drift * dt + cfg.sigma * math.sqrt(dt) * z, axis=1))
    assert simulate_stratonovich_alpha(cfg).log_return.tobytes() == expected.tobytes()


@pytest.mark.parametrize("steps, paths", [
    (252, 261),      # two blocks
    (1, 131073),     # three blocks, the last of one row
    (64, 20_000),    # twenty blocks: each of eight workers takes two or three
])
def test_log_return_does_not_depend_on_the_cpu_count(monkeypatch, steps, paths):
    cfg = PathSimConfig(mu=0.07, sigma=0.3, alpha=0.4, s0=100.0, horizon=1.3,
                        steps=steps, paths=paths, seed=5)
    got = {}
    for n in (1, 2, 3, 8):
        _cpus(monkeypatch, n)
        got[n] = simulate_stratonovich_alpha(cfg).log_return.tobytes()
    assert got[2] == got[1] and got[3] == got[1] and got[8] == got[1]


def test_simulator_memory_does_not_grow_with_steps(monkeypatch):
    # one (4096, 4096) draw is 128 MB and its temporaries as much again; each worker reuses one block
    # buffer of 16 rows (0.5 MiB) and forms the block in place, so the peak is the 32 KiB log_return and
    # 0.5 MiB a worker; one block-sized temporary a worker would add 0.5 MiB each
    cfg = PathSimConfig(mu=0.05, sigma=0.2, alpha=0.5, s0=100.0, horizon=1.0, steps=4096, paths=4096, seed=3)
    simulate_stratonovich_alpha(cfg)  # numpy loads numpy.random at its first use, about 1 MiB
    for workers in (1, 2, 4):
        _cpus(monkeypatch, workers)
        tracemalloc.start()
        try:
            simulate_stratonovich_alpha(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1 + 3 * workers) * 2**18


@pytest.mark.parametrize("n", [2, 500, 65_536])
def test_statistic_of_one_block_is_numpys(n):
    # up to one block of 2^16 values the block sums are np.mean's and np.std's pairwise sums
    x = 0.3 * np.random.Generator(np.random.Philox(key=n)).standard_normal(n) + 0.05
    assert _mean_and_se(x) == (float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(n)))


def test_statistic_adds_its_block_sums_correctly_rounded():
    # block sums 2^53, 1, -2^53 and 1: added left to right the first 1 rounds away and the mean reads half its value
    block = 1 << 16
    x = np.zeros(4 * block)
    x[:block], x[block], x[2 * block:3 * block], x[3 * block] = 2.0**37, 1.0, -2.0**37, 1.0
    assert _mean_and_se(x)[0] == 2.0 / x.size


def test_statistic_memory_does_not_grow_with_paths():
    # two passes over blocks hold one block (0.5 MB) at a time; one paths-long copy alone would be 7.6 MB
    cfg = PathSimConfig(mu=0.0, sigma=0.2, alpha=0.0, s0=1.0, horizon=1.0, steps=1, paths=1_000_000)
    batch = PathBatch(0.2 * np.random.Generator(np.random.Philox(key=5)).standard_normal(cfg.paths), cfg)
    tracemalloc.start()
    try:
        mean, se = batch.mean_log_return()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # past one block the sums are taken in another order: only the last digits may move
    assert mean == pytest.approx(float(np.mean(batch.log_return)), rel=1e-12, abs=1e-15)
    assert se == pytest.approx(float(np.std(batch.log_return, ddof=1)) / 1e3, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_log_return_is_the_offset_rule_stepped_directly(alpha):
    # The offset rule S_{j+1} - S_j = mu S_j dt + sigma ((1-a) S_j + a S_{j+1}) dB_j solves step by step to
    #     ln S_{j+1} - ln S_j = log1p(mu dt + (1-a) sigma dB_j) - log1p(-a sigma dB_j),
    # an oracle that never forms log_drift. On the simulator's own Philox rows its paired mean difference
    # from log_return is the scheme's bias: to fourth order in sigma dB (E dB^4 = 3 dt^2) it is, per step,
    #     dt^2 (-mu^2/2 + mu (1-a)^2 sigma^2 + 3/4 sigma^4 (a^4 - (1-a)^4)) + O(dt^3),
    # so over T / dt steps at most T dt (mu^2/2 + |mu| sigma^2 + 3/4 sigma^4) while sigma sqrt(dt) << 1
    # (here 0.013). An error of 1% in log_drift's alpha sigma^2 term moves the mean by 4e-4 alpha.
    mu, sigma, horizon, steps, paths, seed = 0.05, 0.2, 1.0, 252, 20_000, 61
    cfg = PathSimConfig(mu=mu, sigma=sigma, alpha=alpha, s0=1.0, horizon=horizon, steps=steps, paths=paths,
                        seed=seed)
    dt = horizon / steps

    def stepped(z):  # row i of the simulator's draws drives path i
        db = math.sqrt(dt) * z
        return np.sum(np.log1p(mu * dt + (1 - alpha) * sigma * db) - np.log1p(-alpha * sigma * db), axis=1)

    diff = _blocks_from_jumped_streams(cfg, stepped) - simulate_stratonovich_alpha(cfg).log_return
    se = float(np.std(diff, ddof=1)) / math.sqrt(paths)
    bias = horizon * dt * (mu**2 / 2 + abs(mu) * sigma**2 + 0.75 * sigma**4)
    assert abs(float(np.mean(diff))) < 4.0 * se + bias


@pytest.mark.parametrize("alpha,expected", [(1.0, 0.02), (0.5, 0.0)])
def test_alpha_sim_drift_correction(alpha, expected):
    cfg = PathSimConfig(mu=0.0, sigma=0.2, alpha=alpha, s0=100.0, horizon=1.0,
                        steps=64, paths=100_000, seed=29)
    mean, se = simulate_stratonovich_alpha(cfg).mean_log_return()
    assert abs(mean - expected) < 3.0 * se


def test_drift_regression_recovers_sigma_squared():
    # mean log-return is linear in alpha with slope sigma^2 T
    sigma, T = 0.2, 1.0
    alphas = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    means, ses = [], []
    for i, alpha in enumerate(alphas):
        cfg = PathSimConfig(mu=0.0, sigma=sigma, alpha=float(alpha), s0=100.0,
                            horizon=T, steps=32, paths=50_000, seed=100 + i)
        m, s = simulate_stratonovich_alpha(cfg).mean_log_return()
        means.append(m)
        ses.append(s)
    means, ses = np.array(means), np.array(ses)
    centered = alphas - alphas.mean()
    denom = float(np.sum(centered**2))
    slope = float(np.sum(centered * means) / denom)
    slope_se = math.sqrt(float(np.sum(centered**2 * ses**2))) / denom
    assert abs(slope - sigma**2 * T) < 3.0 * slope_se


def test_batch_reproducible_and_positive():
    cfg = PathSimConfig(mu=0.05, sigma=0.4, alpha=0.3, s0=10.0, horizon=2.0,
                        steps=128, paths=5000, seed=77)
    a = cfg.s0 * np.exp(simulate_stratonovich_alpha(cfg).log_return)
    b = cfg.s0 * np.exp(simulate_stratonovich_alpha(cfg).log_return)
    assert np.array_equal(a, b)
    assert np.all(a > 0)


@pytest.mark.parametrize("seed", [-1, 1 << 128])
@pytest.mark.parametrize("draw", [
    lambda seed: BrownianPath.sample(steps=4, horizon=1.0, seed=seed),
    lambda seed: simulate_stratonovich_alpha(PathSimConfig(mu=0.0, sigma=0.2, alpha=0.0, s0=1.0, horizon=1.0,
                                                           steps=2, paths=10, seed=seed)),
    lambda seed: mc_risk_neutral_call(100.0, 100.0, 1.0, 0.05, 0.2, 0.0, paths=10, seed=seed),
], ids=["brownian", "simulate", "mc_call"])
def test_seed_outside_the_philox_key_range_is_an_input_error(draw, seed):
    with pytest.raises(InputError, match=r"seed must be in \[0, 2\^128\), got "):
        draw(seed)
    draw((1 << 128) - 1)  # the largest key draws


# ------------------------------------------------------------ MC pricer

def test_mc_call_matches_closed_form():
    est = mc_risk_neutral_call(s0=100, strike=100, tau=1.0, rate=0.05, sigma=0.2,
                               p=0.0, paths=100_000, seed=42)
    exact = call_price(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05,
                                     sigma=0.2, p=0.0)).price
    assert abs(est.price - exact) < 3.0 * est.std_error


@pytest.mark.parametrize("s0, strike, tau, rate, sigma, p", [
    (100.0, 100.0, 1.0, 0.05, 0.2, 0.0),
    (100.0, 80.0, 0.25, 0.03, 0.7, -1.0),
    (50.0, 65.0, 2.0, -0.01, 1.3, 0.6),
])
def test_mc_call_is_the_simulator_at_one_step(s0, strike, tau, rate, sigma, p):
    # the pricer samples the forward F = s0 e^{(r - q) tau}: S_T = F e^{sigma B_tau - sigma^2 tau / 2}
    est = mc_risk_neutral_call(s0, strike, tau, rate, sigma, p, paths=500, seed=7)
    q = PricingInputs(spot=s0, strike=strike, tau=tau, rate=rate, sigma=sigma, p=p).dividend_yield
    cfg = PathSimConfig(mu=0.0, sigma=sigma, alpha=0.0, s0=s0 * math.exp((rate - q) * tau), horizon=tau,
                        steps=1, paths=500, seed=7)
    payoff = np.maximum(cfg.s0 * np.exp(simulate_stratonovich_alpha(cfg).log_return) - strike, 0.0)
    disc = math.exp(-rate * tau)
    assert est.price == disc * float(np.mean(payoff))
    assert est.std_error == disc * float(np.std(payoff, ddof=1) / math.sqrt(500))


@pytest.mark.parametrize("paths", [1, 2, 500, 65_536])
def test_mc_call_draws_one_philox_normal_per_path(paths):
    # path i reads only the i-th normal z_i of Philox(key=seed): S_T = F e^{sigma sqrt(tau) z_i - sigma^2 tau/2}
    s0, strike, tau, rate, sigma, p, seed = 100.0, 95.0, 0.75, 0.02, 0.3, -0.4, 11
    est = mc_risk_neutral_call(s0, strike, tau, rate, sigma, p, paths=paths, seed=seed)
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal(paths)
    fwd = s0 * math.exp((rate - p * sigma * sigma) * tau)
    payoff = np.maximum(fwd * np.exp(sigma * math.sqrt(tau) * z - 0.5 * sigma * sigma * tau) - strike, 0.0)
    disc = math.exp(-rate * tau)
    assert est.price == disc * float(np.mean(payoff))
    assert est.std_error == (disc * float(np.std(payoff, ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
@pytest.mark.parametrize("paths", [-1, 0, 1 << 60])
def test_mc_call_refuses_paths_outside_its_range_whatever_sigma(paths, sigma):
    # the draw is at least one path and fewer than 2^60 float64s (numpy's 2^63 bytes), checked before sigma = 0's branch
    with pytest.raises(InputError, match=r"paths >= 1 and < 2\*\*60, got tau = 1.0 and paths = "):
        mc_risk_neutral_call(100.0, 100.0, 1.0, 0.05, sigma, 0.0, paths=paths)


def test_mc_call_memory_is_the_one_batch():
    # the payoff is formed in place over the one paths-long draw (7.6 MiB at 1M paths); a second
    # paths-long array, such as the terminal prices F e^{...}, would bring the peak past 15 MiB
    mc_risk_neutral_call(100.0, 100.0, 1.0, 0.05, 0.2, 0.0, paths=10)  # first-call allocations are not the pricer's
    tracemalloc.start()
    try:
        mc_risk_neutral_call(100.0, 100.0, 1.0, 0.05, 0.2, 0.0, paths=1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_mc_call_zero_sigma_exact():
    est = mc_risk_neutral_call(s0=100, strike=90, tau=2.0, rate=0.03, sigma=0.0,
                               p=0.0, paths=10, seed=1)
    expected = math.exp(-0.06) * (100 * math.exp(0.06) - 90)
    assert est.price == pytest.approx(expected, rel=1e-14)
    assert est.std_error == 0.0


def test_mc_call_zero_sigma_is_closed_form_bitwise():
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        s0, strike, tau, rate, p = (rng.uniform(10, 1000, size=2).tolist()
                                    + [rng.uniform(0.01, 2), rng.uniform(-0.01, 0.1), rng.uniform(-1, 1)])
        est = mc_risk_neutral_call(s0=s0, strike=strike, tau=tau, rate=rate, sigma=0.0,
                                   p=p, paths=10, seed=1)
        exact = call_price(PricingInputs(spot=s0, strike=strike, tau=tau, rate=rate,
                                         sigma=0.0, p=p)).price
        assert est.price == exact and math.copysign(1.0, est.price) == 1.0
        assert est.std_error == 0.0


def test_mc_call_monotone_in_p():
    lo = mc_risk_neutral_call(s0=100, strike=100, tau=1.0, rate=0.05, sigma=0.2,
                              p=1.0, paths=20_000, seed=9)
    hi = mc_risk_neutral_call(s0=100, strike=100, tau=1.0, rate=0.05, sigma=0.2,
                              p=-1.0, paths=20_000, seed=9)
    assert lo.price < hi.price


@pytest.mark.parametrize("p", [-0.5, 0.0, 0.5])
def test_overflowing_sigma_squared_is_rejected_by_both_pricers(p):
    # with sigma^2 = inf the MC drift r - p sigma^2 - sigma^2 / 2 is inf - inf at p = -0.5: a nan price
    with pytest.raises(InputError, match=r"sigma\^2 overflows for sigma = 1e\+200"):
        call_price(PricingInputs(spot=100, strike=100, tau=1.0, rate=0.05, sigma=1e200, p=p))
    with pytest.raises(InputError, match=r"sigma\^2 overflows for sigma = 1e\+200"):
        mc_risk_neutral_call(100, 100, 1.0, 0.05, 1e200, p, paths=10)


@pytest.mark.parametrize("kw", [
    dict(sigma=1e3, p=-1.0),    # sigma^2 tau = 1e6: an overflow warning, then an infinite price
    dict(sigma=1e100, p=0.0),   # every S_T underflowed to 0: a silent price of 0.0
    dict(rate=1000.0),          # the forward s0 e^{r tau} overflows in every path
])
def test_mc_call_rejects_scenarios_past_the_float_range(kw):
    base = dict(s0=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=0.0, paths=10)
    with pytest.raises(InputError, match="float range"):
        mc_risk_neutral_call(**{**base, **kw})


@pytest.mark.parametrize("k", [-900, -40, -1, 1, 30, 700])
def test_mc_call_scales_exactly_with_a_power_of_two(k):
    base = mc_risk_neutral_call(100.0, 90.0, 0.5, 0.03, 0.4, 0.2, paths=300, seed=5)
    est = mc_risk_neutral_call(math.ldexp(100.0, k), math.ldexp(90.0, k), 0.5, 0.03, 0.4, 0.2, paths=300, seed=5)
    assert (est.price, est.std_error) == (math.ldexp(base.price, k), math.ldexp(base.std_error, k))


def test_mc_call_near_the_largest_float_is_finite():
    # sampled S_T reach about e^4.5 times the forward 1e307: an unscaled payoff overflows to inf, its SE to nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_risk_neutral_call(1e307, 1e307, 1.0, 0.0, 1.0, 0.0, paths=100_000)
    exact = call_price(PricingInputs(spot=1e307, strike=1e307, tau=1.0, rate=0.0, sigma=1.0, p=0.0)).price
    assert math.isfinite(est.price) and math.isfinite(est.std_error)
    assert abs(est.price - exact) < 4.0 * est.std_error


def test_mc_call_with_a_forward_near_the_exp_limit_is_finite():
    # the forward e^709 is finite, but s0 e^{(r - q) tau + sigma B_tau - sigma^2 tau / 2} passes exp's limit for
    # z > 1.3: the pricer samples F e^{sigma B_tau - sigma^2 tau / 2}, whose exp stays near 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_risk_neutral_call(1.0, 1.0, 1.0, 709.0, 1.0, 0.0, paths=1000)
    exact = call_price(PricingInputs(spot=1.0, strike=1.0, tau=1.0, rate=709.0, sigma=1.0, p=0.0)).price
    assert math.isfinite(est.price) and math.isfinite(est.std_error)
    assert abs(est.price - exact) < 4.0 * est.std_error


def test_mc_call_far_out_of_the_money_is_zero_without_overflow():
    # K / F = 1e400: in units of 2^e ~ F alone, K would leave the float range; in units ~ max(F, K) it is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_risk_neutral_call(1e-300, 1e100, 1.0, 0.05, 0.2, 0.0, paths=1000)
    assert (est.price, est.std_error) == (0.0, 0.0)


@pytest.mark.parametrize("sigma", [0.0, 0.2])
def test_mc_call_at_zero_horizon_is_rejected_whatever_sigma(sigma):
    # tau is checked before the closed-form branch for sigma = 0
    with pytest.raises(InputError, match="tau must be > 0"):
        mc_risk_neutral_call(100.0, 100.0, 0.0, 0.05, sigma, 0.0, paths=10)


def test_mc_estimate_past_the_float_range_is_an_input_error():
    # an admitted scenario (S e^{sigma^2 tau} = 1.77e308) whose two-path sample mean exceeds the largest float
    with pytest.raises(InputError, match="Monte Carlo estimate overflows the float range"):
        mc_risk_neutral_call(6.5e307, 1e-300, 1.0, 0.0, 1.0, -1.0, paths=2, seed=1)


def test_mc_call_input_validation():
    kw = dict(s0=100, strike=100, tau=1.0, rate=0.05, sigma=0.2, p=0.0, paths=10, seed=1)
    for bad in (dict(p=2.0), dict(s0=float("nan")), dict(rate=float("inf")), dict(s0=-1.0),
                dict(strike=0.0), dict(tau=0.0), dict(tau=-1.0), dict(sigma=-0.1), dict(paths=0)):
        with pytest.raises(InputError):
            mc_risk_neutral_call(**{**kw, **bad})
