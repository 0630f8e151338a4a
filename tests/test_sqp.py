"""The GARCH fit's own SQP solver (predbs._sqp): quadratics whose constrained minimizer is known in closed form, a
start on several constraints at once, and fits that must end no lower than scipy's SLSQP from the same start."""

import math

import numpy as np
import pytest

from predbs import _sqp
from predbs.volatility import _BOUNDS, _STATIONARITY, GarchParams, _starting_points, fit_ar_garch
from reference import neg_loglik, simulate_ar_garch

UB = _STATIONARITY[1]
LO = np.array([-math.inf if lo is None else lo for lo, _ in _BOUNDS])
HI = np.array([math.inf if hi is None else hi for _, hi in _BOUNDS])
# curvatures of the order of the likelihood's on standardized returns, and far from B = I, the solver's first model
# where the caller gives none
WEIGHTS = np.array([1e4, 3e5, 1e7, 5e4, 2e4, 8e5])
START = np.array([0.3, 0.1, 0.5, 0.05, 0.9, 0.125])


def quadratic(weights, centre, counts):
    """f(x) = (x - c)' W (x - c) / 2 and its gradient, counting the calls of each."""
    def value(x):
        counts["value"] += 1
        return 0.5 * float((x - centre) @ weights @ (x - centre))

    def gradient(x):
        counts["gradient"] += 1
        return weights @ (x - centre)
    return value, gradient


def assert_feasible(x):
    assert np.all(LO <= x) and np.all(x <= HI) and x[3] + x[4] <= UB, x


def on_row(centre):
    """The minimizer of sum_i w_i (x_i - c_i)^2 / 2 on alpha1 + beta1 = ub: w3 (x3 - c3) = w4 (x4 - c4) = -mu."""
    mu = (centre[3] + centre[4] - UB) / (1 / WEIGHTS[3] + 1 / WEIGHTS[4])
    return centre[:3] + [centre[3] - mu / WEIGHTS[3], centre[4] - mu / WEIGHTS[4], centre[5]]


# centre: minimizer, under separable weights, where the box clips each coordinate alone
CASES = {
    "interior": ([0.01, 0.2, 0.3, 0.1, 0.6, 0.2],) * 2,
    "one bound": ([0.01, 0.999999 + 1e-3, 0.3, 0.1, 0.6, 0.2], [0.01, 0.999999, 0.3, 0.1, 0.6, 0.2]),
    "row": ([0.01, 0.2, 0.3, 0.3, UB - 0.298, 0.2], on_row([0.01, 0.2, 0.3, 0.3, UB - 0.298, 0.2])),
    # alpha1's lower bound and the row: mu = w4 (c4 - ub) > 0 and alpha1's multiplier w3 (0 - c3) + mu > 0
    "vertex": ([0.01, 0.2, 0.3, -1e-3, UB + 1e-3, 0.2], [0.01, 0.2, 0.3, 0.0, UB, 0.2]),
}


@pytest.mark.parametrize("case", CASES)
def test_a_quadratic_reaches_its_closed_form_minimizer_at_a_feasible_point(case):
    # the run stops where f moves by less than 1e-12, as SLSQP's did: the minimum is reached to 1e-10 in f,
    # which puts x within sqrt(2e-10 / w) of the minimizer, w >= 1e4
    centre, want = map(np.array, CASES[case])
    counts = {"value": 0, "gradient": 0}
    value, gradient = quadratic(np.diag(WEIGHTS), centre, counts)
    res = _sqp.minimize(value, START, (), gradient, _BOUNDS, _STATIONARITY, 500, 1e-12)
    assert res.success
    assert_feasible(res.x)
    assert (res.nfev, res.njev) == (counts["value"], counts["gradient"]) and 0 < res.njev <= res.nfev
    assert res.fun - 0.5 * np.sum(WEIGHTS * (want - centre) ** 2) <= 1e-10
    assert np.max(np.abs(res.x - want)) <= 2e-7, res.x - want


def coupled_weights():
    """A strictly convex quadratic's Hessian that couples every coordinate, with curvatures of the order of WEIGHTS."""
    root = np.random.Generator(np.random.Philox(key=39)).normal(size=(6, 6)) * np.sqrt(WEIGHTS)
    return root.T @ root + np.diag(WEIGHTS)


def test_a_start_on_several_constraints_ends_at_the_minimizer():
    # phi at its lower bound, beta1 and eta at theirs and alpha1 + beta1 on the row: the working set must shed them,
    # under weights that couple every coordinate, without cycling
    weights = coupled_weights()
    centre = np.array([0.01, 0.2, 0.3, 0.1, 0.6, 0.2])
    counts = {"value": 0, "gradient": 0}
    value, gradient = quadratic(weights, centre, counts)
    res = _sqp.minimize(value, np.array([0.0, -0.999999, 0.05, UB, 0.0, 0.0]), (), gradient, _BOUNDS, _STATIONARITY,
                        50, 1e-12)
    assert res.success and res.nit <= 50
    assert_feasible(res.x)
    assert res.fun <= 1e-10


def test_a_model_started_at_the_exact_hessian_steps_to_an_interior_minimizer_at_once():
    # the first step is Newton's, -B0^-1 g, and lands on the minimizer to rounding; the second iteration's model
    # then predicts no decrease, so the run ends with two values and two gradients, at the start and the minimizer
    weights, centre = coupled_weights(), np.array(CASES["interior"][0])
    counts = {"value": 0, "gradient": 0}
    value, gradient = quadratic(weights, centre, counts)
    res = _sqp.minimize(value, START, (), gradient, _BOUNDS, _STATIONARITY, 500, 1e-12, B0=weights)
    assert res.success and (res.nfev, res.njev, res.nit) == (2, 2, 2) == (counts["value"], counts["gradient"], 2)
    assert res.fun <= 1e-20 and np.max(np.abs(res.x - centre)) <= 1e-12


@pytest.mark.parametrize("bad", ["negative definite", "indefinite", "singular", "nan", "inf"])
def test_a_first_model_that_is_not_finite_and_positive_definite_is_the_identity(bad):
    weights = coupled_weights()
    B0 = {"negative definite": -weights, "indefinite": weights - 2 * weights[0, 0] * np.eye(6),
          "singular": np.outer(weights[0], weights[0]), "nan": weights.copy(), "inf": weights.copy()}[bad]
    if bad in ("nan", "inf"):
        B0[2, 3] = B0[3, 2] = math.nan if bad == "nan" else math.inf
    runs = []
    for model in (None, B0):
        value, gradient = quadratic(weights, np.array(CASES["row"][0]), {"value": 0, "gradient": 0})
        runs.append(_sqp.minimize(value, START, (), gradient, _BOUNDS, _STATIONARITY, 500, 1e-12, B0=model))
    want, got = ((run.x.tobytes(), run.fun, run.nfev, run.njev, run.nit, run.success) for run in runs)
    assert got == want


def test_dot_adds_left_to_right_on_every_python():
    # the builtin sum compensates from Python 3.12 on and would return 2.0 here: the solver's bits would differ by
    # interpreter
    assert _sqp._dot([2.0**53, 1.0, -2.0**53, 1.0], [1.0] * 4) == 1.0


def s150(i):
    """Series i of 150: parameters drawn in order from one Philox stream, the series from its own seed."""
    rng = np.random.Generator(np.random.Philox(key=20261021))
    for _ in range(i + 1):
        eta = rng.uniform(1 / 40, 1 / 2.5)
        alpha1 = rng.uniform(0.0, 0.2)
        beta1 = rng.uniform(0.0, 0.99 - alpha1)
        n = int(rng.integers(250, 2001))
    params = GarchParams(ar1=0.05, mean=2e-4, omega=1e-4 * (1 - alpha1 - beta1), alpha1=alpha1, beta1=beta1,
                         nu=1 / eta)
    return simulate_ar_garch(params, n, seed=5000 + i)


@pytest.mark.parametrize("i", range(20))
def test_a_fit_ends_no_lower_than_slsqp_from_the_same_start(i):
    from scipy.optimize import LinearConstraint, minimize

    series = s150(i)
    fitted = fit_ar_garch(series)
    sd = math.sqrt(np.var(series.returns))
    z = series.returns / sd
    x = np.array([fitted.mean / sd, fitted.ar1, fitted.omega / sd**2, fitted.alpha1, fitted.beta1, 1 / fitted.nu])
    (start,) = _starting_points(z)
    slsqp = minimize(neg_loglik, start, args=(z,), jac=True, method="SLSQP", bounds=_BOUNDS,
                     constraints=[LinearConstraint([[0.0, 0.0, 0.0, 1.0, 1.0, 0.0]], -np.inf, UB)],
                     options=dict(maxiter=500, ftol=1e-12))
    assert neg_loglik(x, z)[0] <= slsqp.fun + 1e-6
