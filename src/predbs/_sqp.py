"""A small SQP method: minimize a smooth function of a few variables over box bounds and one linear inequality row.

It is the GARCH fit's optimizer (volatility.fit_ar_garch).  Each iteration

* takes the model's unconstrained minimizer d = -B^-1 g where it is feasible, and otherwise solves the quadratic
  model min 1/2 d'Bd + g'd under the bounds and the row (linear, so linearized exactly) by a primal active-set
  method (Nocedal & Wright, Numerical Optimization, 2nd ed., 2006, algorithm 16.3), started on the constraints x
  is on and the bounds that minimizer crosses (see _qp);
* backtracks along d until f falls by at least 0.1 of the decrease its slope predicts (the Armijo condition with
  SLSQP's fraction), each new step the minimizer of the quadratic through the last two values, kept in [0.1 t,
  0.5 t];
* updates B by Powell-damped BFGS (ibid., procedure 18.2), from the caller's B0 (the GARCH fit's is the BHHH
  outer product of per-observation scores, as Bollerslev, J. Econometrics 31, 1986, fitted GARCH), or from B = I where
  there is none or it is not finite and positive definite.

B is held as its inverse in product form, B^-1 = Z'Z, so that it stays positive definite in floating point however
ill-conditioned it grows, and each equality-constrained step is d = -B^-1 (g + C'lam), with lam from a system of one
row per working constraint (ibid., section 16.2).  As in SLSQP (Kraft, DFVLR-FB 88-28, 1988), the run stops when f
changes by less than ftol, or when the model predicts less, and starts B afresh where its direction gives no
descent.  Every point it evaluates lies in the feasible set exactly, and the gradient is asked for only at the
points it accepts, right after their value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_ARMIJO = 0.1  # SLSQP's fraction: at 1e-4 the fit took more iterations and evaluations
_BACKTRACKS = 20  # steps shrink at least 2-fold each: t stays above 1e-6 (SLSQP stops at 10 and takes the point)
_RESETS = 5  # as SLSQP's


@dataclass(frozen=True)
class Result:
    """The last accepted point and its value, the counts of values and gradients evaluated and of iterations, and
    whether the run converged."""

    x: np.ndarray
    fun: float
    nfev: int
    njev: int
    nit: int
    success: bool


def minimize(fun, x0, args, jac, bounds, row, maxiter: int, ftol: float, B0=None) -> Result:
    """Minimize fun(x, *args), whose gradient is jac(x, *args), over lo_i <= x_i <= hi_i (bounds: (lo, hi) pairs, None
    where there is none) and a @ x <= ub (row: (a, ub), a >= 0 and not all zero), from x0 moved into that set, with
    B0 (None for I) the first model of the Hessian."""
    lo = np.array([-math.inf if b is None else b for b, _ in bounds])
    hi = np.array([math.inf if b is None else b for _, b in bounds])
    a, ub = np.array(row[0], dtype=float), row[1]
    x = _onto_row(np.clip(np.asarray(x0, dtype=float), lo, hi), lo, a, ub)
    f, g, nfev, njev = fun(x, *args), jac(x, *args), 1, 1
    n, a_list, row_tol = x.size, a.tolist(), 4.0 * math.ulp(max(abs(ub), 1.0))  # a few rounding errors of a @ x
    Z, resets = _inverse_factor(B0, n), 0
    for nit in range(1, maxiter + 1):
        lower, upper, slack = lo - x, hi - x, ub - float(a @ x)
        H = Z.T @ Z
        d = -(H @ g)  # the model's unconstrained minimizer: the step wherever it is feasible
        if (lower <= d).all() and (d <= upper).all() and a @ d <= slack:
            Bd = -g
        else:
            try:
                d, Bd = map(np.array, _qp(H.tolist(), (-d).tolist(), (H @ a).tolist(), g.tolist(), lower.tolist(),
                                          upper.tolist(), a_list, slack, slack <= row_tol))
            except ZeroDivisionError:  # a working-set system that rounding left singular
                d = None
        slope = math.inf if d is None else float(g @ d)
        if -ftol < slope <= 0.0:  # the model predicts no decrease: x is a KKT point of it
            return Result(x, f, nfev, njev, nit, True)
        t = 1.0
        for _ in range(_BACKTRACKS if slope < 0 else 0):
            y = x + t * d
            y = _onto_row(np.minimum(np.maximum(y, lo, out=y), hi, out=y), lo, a, ub)
            fy = fun(y, *args)
            nfev += 1
            if fy <= f + _ARMIJO * t * slope:
                break
            step = -slope * t * t / (2.0 * (fy - f - slope * t))  # nan or 0 where fy is not finite
            t = min(step, 0.5 * t) if step >= 0.1 * t else 0.1 * t
        else:  # no descent along d: as SLSQP does, start B afresh, a few times at most
            resets += 1
            if resets > _RESETS:
                return Result(x, f, nfev, njev, nit, False)
            Z = np.eye(n)
            continue
        gy = jac(y, *args)
        njev += 1
        Z = _bfgs(Z, y - x, gy - g, t * Bd)
        change = f - fy
        x, f, g = y, fy, gy
        if abs(change) < ftol:
            return Result(x, f, nfev, njev, nit, True)
    return Result(x, f, nfev, njev, maxiter, False)


def _inverse_factor(B0, n: int) -> np.ndarray:
    """Z = L^-1 for B0 = LL', so that Z'Z = B0^-1; I where B0 is None, has an entry that is not finite, or is not
    positive definite enough for Cholesky to factor it and L to invert."""
    if B0 is not None and np.isfinite(B0).all():
        try:
            Z = np.linalg.inv(np.linalg.cholesky(B0))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.isfinite(Z).all():
                return Z
    return np.eye(n)


def _onto_row(y: np.ndarray, lo: np.ndarray, a: np.ndarray, ub: float) -> np.ndarray:
    """y, with a @ y <= ub exactly where rounding left it a few ulps over: the row's variable with the most room above
    its lower bound steps down."""
    over = a @ y - ub
    if over > 0:
        room = [a[i] * (y[i] - lo[i]) if a[i] > 0 else -math.inf for i in range(y.size)]
        j = room.index(max(room))
        y[j] -= over / a[j]
        while a @ y > ub:
            y[j] = np.nextafter(y[j], -math.inf)
    return y


def _qp(H, Hg, Ha, g, lower, upper, a, slack, on_row):
    """min 1/2 d'Bd + g'd over lower <= d <= upper and a @ d <= slack, where d = 0 is feasible, by a primal active-set
    method, given H = B^-1, Hg and Ha.  The working set holds d_i at lower_i (side[i] = -1) or upper_i (+1), and the
    row at equality (on_row).  It starts with the bounds active at d = 0 and those the unconstrained minimizer -Hg
    crosses, from the point that holds them if that point keeps the row (else with the active bounds alone, from
    d = 0), and with the row if on_row (the caller's: active at d = 0) and it is still active there.  Each pass forms
    the minimizer over the working set's equalities, d = -H (g + C'lam) (Nocedal & Wright, section 16.2), and steps
    towards it until a constraint blocks, which joins the set; at the minimizer, the constraint with the most
    negative multiplier leaves it.  Ties go to the lowest index (Bland's rule), and a constraint that blocks at once
    after leaving ends the solve at the minimizer it left: in exact arithmetic it cannot block.  Returns that
    minimizer d and Bd = -(g + C'lam); ZeroDivisionError where rounding leaves a working-set system singular or the
    passes run out.  All arguments but on_row are lists of Python floats: at this size each numpy call costs more
    than the arithmetic."""
    n, tol = len(g), -1e-12 * max(1.0, max(map(abs, g)))
    active = [-1 if lw == 0.0 else 1 if up == 0.0 else 0 for lw, up in zip(lower, upper)]
    guess = [s or (-1 if -h < lw else 1 if -h > up else 0) for s, h, lw, up in zip(active, Hg, lower, upper)]
    for side in (guess, active):
        d = [lw if s < 0 else up if s > 0 else 0.0 for s, lw, up in zip(side, lower, upper)]
        if _dot(a, d) <= slack:
            break
    on_row = on_row and _dot(a, d) == 0.0
    aHg, aHa, left = _dot(a, Hg), _dot(a, Ha), None
    for _ in range(4 * n + 4):
        held = [i for i, s in enumerate(side) if s]
        on_row = on_row and any(ai > 0 and not s for ai, s in zip(a, side))  # else the bounds alone hold the row
        # the working set's rows C are held at their values C d: C H C' lam = -C (d + Hg), target = -H (g + C'lam)
        target, lam = [-h for h in Hg], []
        if held or on_row:
            M = [[H[i][j] for j in held] for i in held]
            rhs = [-(d[i] + Hg[i]) for i in held]
            if on_row:
                for r, i in zip(M, held):
                    r.append(Ha[i])
                M.append([Ha[j] for j in held] + [aHa])
                rhs.append(-(_dot(a, d) + aHg))
            lam = _solve_spd(M, rhs)
            for m, c in zip(lam, [H[i] for i in held] + [Ha] * on_row):
                target = [t - m * h for t, h in zip(target, c)]
            for i in held:
                target[i] = d[i]
        p = [t - x for t, x in zip(target, d)]
        alpha, block = 1.0, None
        for i, (s, q, x, lw, up) in enumerate(zip(side, p, d, lower, upper)):
            if not s and q and (r := ((lw if q < 0 else up) - x) / q) < alpha:
                alpha, block = max(r, 0.0), i if q < 0 else n + i
        if not on_row and (ap := _dot(a, p)) > 0 and (r := (slack - _dot(a, d)) / ap) < alpha:
            alpha, block = max(r, 0.0), 2 * n
        if block is None:  # at the minimizer: a multiplier is lam_k at an upper bound or the row, -lam_k at a lower
            d, left, worst = target, None, tol
            for i, m in zip(held, lam):
                if side[i] * m < worst:
                    worst, left = side[i] * m, i if side[i] < 0 else n + i
            if on_row and lam[-1] < worst:
                left = 2 * n
        elif alpha == 0.0 and block == left:  # what just left blocks at once: back to the minimizer it left
            side, on_row, held, lam = last
            left = None
        else:
            d = [x + alpha * q for x, q in zip(d, p)]
            if block == 2 * n:
                on_row = True
            else:
                i = block % n
                side[i], d[i] = (1, upper[i]) if block >= n else (-1, lower[i])
            left = None
            continue
        if left is None:
            Bd = [-x for x in g]
            for i, m in zip(held, lam):
                Bd[i] -= m
            if on_row:
                Bd = [b - lam[-1] * ai for b, ai in zip(Bd, a)]
            return d, Bd
        last = list(side), on_row, held, lam
        if left == 2 * n:
            on_row = False
        else:
            side[left % n] = 0
    raise ZeroDivisionError("the active-set passes ran out")


def _dot(u, v) -> float:
    """sum_i u_i v_i over the shorter of u and v, added left to right from 0.0: the builtin sum compensates its
    additions from Python 3.12 on, so its bits would depend on the interpreter."""
    acc = 0.0
    for x, y in zip(u, v):
        acc += x * y
    return acc


def _solve_spd(M: list, b: list) -> list:
    """x with M x = b, for a small symmetric positive definite M, by Cholesky; ZeroDivisionError where M is not."""
    L = []
    for i, row in enumerate(M):
        Li = []
        for j, Lj in enumerate(L):
            Li.append((row[j] - _dot(Li, Lj)) / Lj[j])
        s = row[i] - _dot(Li, Li)
        if not s > 0:
            raise ZeroDivisionError("the working-set system is not positive definite")
        Li.append(math.sqrt(s))
        L.append(Li)
    z = []
    for Li, bi in zip(L, b):
        z.append((bi - _dot(Li, z)) / Li[-1])
    for i in reversed(range(len(L))):
        z[i] = (z[i] - _dot([Lm[i] for Lm in L[i + 1:]], z[i + 1:])) / L[i][i]
    return z


def _bfgs(Z: np.ndarray, s: np.ndarray, y: np.ndarray, Bs: np.ndarray) -> np.ndarray:
    """Z after the step s with gradient change y, where B^-1 = Z'Z and Bs is B s: the BFGS update of B with Powell's
    damping (where s'y < 0.2 s'Bs, y moves towards Bs until s'y = 0.2 s'Bs).  It is the product form of Dennis and
    More (SIAM Review 19, 1977), B = JJ' with J + (y - Jv) v'/v'v, v = sqrt(s'y / s'Bs) J's, applied to Z = J^-1
    through Sherman-Morrison: Z'Z stays positive definite, and Z'Z y = s."""
    sBs, sy = float(s @ Bs), float(s @ y)
    if not sBs > 0:
        return Z
    Zy, ZBs = Z @ y, Z @ Bs
    if sy < 0.2 * sBs:
        theta = 0.8 * sBs / (sBs - sy)
        Zy, sy = theta * Zy + (1.0 - theta) * ZBs, 0.2 * sBs
    return Z - np.outer((Zy - math.sqrt(sy / sBs) * ZBs) / sy, s)
