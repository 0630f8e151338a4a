"""The four benchmark workloads: inputs made from a seed, one timed op, and checks.

Each workload object offers

* ``warmup``     -- a JSON-able spec for ``setup_probe.warm_up``;
* ``round_len``  -- ops per round; runs always end on a whole round;
* ``rows_of_file`` -- data rows of each returns file it wrote, for the tracer;
* ``op(k)``      -- the k-th timed operation, returning ``(items, ok, record)``
  with ``record = (input index, outputs)``; ops on one input repeat exactly;
* ``check(first)`` -- a list of error strings, empty when every output is
  right, given ``{input index: outputs}`` of the first op on each input that
  did not fail.

Ops call predbs through module attributes (``pricing.call_price``, not the
package re-exports), so the tracer's wrappers see every call.  Checks run
after the timed phase and compare against ``oracles``, never against predbs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import zlib
from datetime import date, timedelta

import numpy as np

import oracles as O

PRICE_FLOOR = 1e-6   # quotes priced below this share of spot are left out
WINDOW = 252         # vol window (trading days) for realized/historical vol
DAYS = 365.0


def _rng(seed, name):
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _g(x):
    return format(float(x), ".17g")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _capture(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _solve_tol(p, args):
    """Price tolerance of a solved quote: rounding plus |dC/dp| times the solver's p tolerance."""
    spot, strike, tau, _, sigma = args
    return O.price_tol(spot, strike, tau, sigma) + np.abs(O.dcall_dp(*args, p)) * (O.P_TOL + O.P_RTOL)


def _calibration_faults(p, flag, market, args):
    """Masks of solved quotes that break the band, the +-1 clamp, or do not reprice."""
    edge = np.where(flag == O.AT_MINUS_ONE, -1.0, np.where(flag == O.AT_PLUS_ONE, 1.0, p))
    return {
        "clamp flag disagrees with the band": (flag & O.allowed_flags(market, *args)) == 0,
        "clamped p not at exactly +-1": edge != p,
        "unclamped p does not reprice the quote":
            (flag == O.NONE) & ~(np.abs(O.call(*args, p) - market) <= _solve_tol(p, args)),
    }


def _push_outside(rng, lo, hi, cap, above):
    """A price outside the band [lo, hi]: above it but under the cap, or below it."""
    if above:
        return hi + rng.uniform(0.001, 0.02) * (cap - hi)
    return lo * (1.0 - rng.uniform(0.02, 0.3))


# ---------------------------------------------------------------------------
# chain-surface
# ---------------------------------------------------------------------------

CHAIN_ROWS = (24, 80, 270, 900, 3000)
DIRTY_KINDS = ("crossed", "bad_date", "bad_strike", "negative_bid", "short_row",
               "other_quote_date", "bad_right", "expired", "nan_ask")


def _p_star(m, m_lo, m_hi):
    """Paper-shaped surface in moneyness S/K: -1, then a linear rise, then +1."""
    return float(np.clip(-1.0 + 2.0 * (m - m_lo) / (m_hi - m_lo), -1.0, 1.0))


class _Chain:
    pass


class ChainSurface:
    """The README pipeline: surface --method vix, surface --method realized, diff-surface."""

    name = "chain-surface"

    def __init__(self, predbs, seed, workdir, rows=CHAIN_ROWS):
        self.cli = predbs.cli
        rng = _rng(seed, self.name)
        self.chains = [self._make(rng, workdir, j, n) for j, n in enumerate(rows)]
        self.round_len = len(self.chains)
        self.rows_of_file = {c.returns_path: len(c.r) for c in self.chains}
        small = self.chains[0]
        self.warmup = {"argv": small.argvs[0][:-1] + [os.path.join(workdir, "warm_surface.csv")]}

    def _make(self, rng, workdir, j, n_rows):
        c = _Chain()
        c.spot = round(float(np.exp(rng.uniform(math.log(20), math.log(2000)))), 2)
        c.rate = round(float(rng.uniform(0.0, 0.06)), 4)
        c.vix = round(float(rng.uniform(15.0, 30.0)), 2)
        sigma = c.vix / 100.0
        qdate = date(2014, 1, 2) + timedelta(days=int(rng.integers(0, 1500)))
        n_exp = int(np.clip(round(math.sqrt(n_rows) / 2), 2, 30))
        days = {1}
        while len(days) < n_exp:
            days.add(int(round(math.exp(rng.uniform(math.log(2), math.log(730))))))
        days = sorted(days)
        m_lo, m_hi = 0.7, 1.45
        n_dirty = max(2, n_rows // 100)

        clean, used = [], set()
        while len(clean) < n_rows - n_dirty:
            d = days[int(rng.integers(len(days)))]
            strike = round(c.spot / math.exp(rng.uniform(math.log(0.5), math.log(2.0))), 2)
            if (d, strike) in used:
                continue
            tau, m = d / DAYS, c.spot / strike
            lo, hi, cap = (float(x) for x in O.band(c.spot, strike, tau, c.rate, sigma))
            right = "put" if len(clean) % 4 == 3 else "call"
            p_star, p_gen = _p_star(m, m_lo, m_hi), math.nan
            if right == "put":
                mid = float(O.call_put(c.spot, strike, tau, c.rate, sigma, p_star)[1])
            elif abs(p_star) == 1.0 or rng.uniform() < 0.03:
                above = p_star == -1.0 or (abs(p_star) < 1.0 and rng.uniform() < 0.5)
                mid = _push_outside(rng, lo, hi, cap, above)
            else:
                p_gen = min(max(p_star, -0.999), 0.999)
                mid = float(O.call(c.spot, strike, tau, c.rate, sigma, p_gen))
            if not mid >= PRICE_FLOOR * c.spot:
                continue
            used.add((d, strike))
            half = rng.uniform(0.0005, 0.005) * mid
            clean.append(dict(expiry=qdate + timedelta(days=d), strike=strike, right=right,
                              bid=_g(mid - half), ask=_g(mid + half), tau=tau, p_gen=p_gen))

        clean_rows = [[qdate.isoformat(), q["expiry"].isoformat(), _g(q["strike"]), q["right"],
                       q["bid"], q["ask"]] for q in clean]
        rows = [clean_rows[i] for i in rng.permutation(len(clean_rows))]
        for i in range(n_dirty):
            kind = DIRTY_KINDS[(j + i) % len(DIRTY_KINDS)]
            at = 1 + int(rng.integers(len(rows)))   # never first: it fixes the chain date
            rows.insert(at, self._dirty(kind, clean_rows[int(rng.integers(len(clean_rows)))], qdate))
        c.n_dirty = n_dirty

        # calls as predbs will see them: keyed by (moneyness, tau)
        calls = [q for q in clean if q["right"] == "call"]
        c.keys = [(c.spot / q["strike"], q["tau"]) for q in calls]
        c.strike = np.array([q["strike"] for q in calls])
        c.tau = np.array([q["tau"] for q in calls])
        c.mid = np.array([(float(q["bid"]) + float(q["ask"])) / 2.0 for q in calls])
        c.p_gen = np.array([q["p_gen"] for q in calls])
        c.items = 2 * len(calls)

        # a returns file for the realized leg
        n_ret = WINDOW + int(rng.integers(40, 160))
        r = rng.normal(0.0, 0.92 * sigma / math.sqrt(DAYS), n_ret)
        c.r = np.array([float(_g(x)) for x in r])
        c.sigma = {"vix": sigma,
                   "realized": math.sqrt(float(np.mean(c.r[-WINDOW:] ** 2))) * math.sqrt(DAYS)}

        path = lambda stem: os.path.join(workdir, f"{stem}_{j}.csv")
        c.chain_path, c.returns_path = path("chain"), path("returns")
        c.out = {"vix": path("surface_vix"), "realized": path("surface_realized"), "diff": path("diff")}
        with open(c.chain_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("quote_date,expiry,strike,right,bid,ask\n")
            fh.writelines(",".join(row) + "\n" for row in rows)
        with open(c.returns_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("date,log_return\n")
            fh.writelines(f"{(qdate - timedelta(days=n_ret - i)).isoformat()},{_g(x)}\n"
                          for i, x in enumerate(c.r))
        common = ["--chain", c.chain_path, "--spot", _g(c.spot), "--rate", _g(c.rate)]
        c.argvs = [
            ["surface", *common, "--method", "vix", "--vix", _g(c.vix), "--out", c.out["vix"]],
            ["surface", *common, "--method", "realized", "--returns", c.returns_path,
             "--window", str(WINDOW), "--out", c.out["realized"]],
            ["diff-surface", "--base", c.out["realized"], "--other", c.out["vix"], "--out", c.out["diff"]],
        ]
        return c

    @staticmethod
    def _dirty(kind, row, qdate):
        row = list(row)
        if kind == "crossed":
            row[4], row[5] = row[5], row[4]
        elif kind == "bad_date":
            row[1] = "2015-02-30"
        elif kind == "bad_strike":
            row[2] = "n/a"
        elif kind == "negative_bid":
            row[4] = "-0.5"
        elif kind == "short_row":
            row = row[:5]
        elif kind == "other_quote_date":
            row[0] = (qdate + timedelta(days=1)).isoformat()
        elif kind == "bad_right":
            row[3] = "straddle"
        elif kind == "expired":
            row[1] = (qdate - timedelta(days=3)).isoformat()
        elif kind == "nan_ask":
            row[5] = "nan"
        return row

    def op(self, k):
        j = k % len(self.chains)
        c = self.chains[j]
        runs = [_capture(self.cli.main, argv) for argv in c.argvs]
        return c.items, all(code == 0 for code, _, _ in runs), (j, runs)

    def check(self, first):
        errors = []
        for j, runs in first.items():
            errors += [f"chain {j}: {e}" for e in self._check_chain(self.chains[j], runs)]
        return errors

    def _check_chain(self, c, runs):
        errors = []
        for (_, out, err), method in zip(runs[:2], ("vix", "realized")):
            skipped = sum(line.startswith("skipped: ") for line in err.splitlines())
            if skipped != c.n_dirty:
                errors.append(f"{method}: {skipped} rows skipped, {c.n_dirty} planted")
            if "not calibrated" in err:
                errors.append(f"{method}: quotes failed to calibrate")
            summary = dict(line.split(None, 1) for line in out.splitlines() if line.strip())
            if abs(float(summary["sigma_annual"]) / c.sigma[method] - 1.0) > 1e-11:
                errors.append(f"{method}: sigma {summary['sigma_annual']} != {c.sigma[method]!r}")
        p = {m: self._check_surface(c, m, errors) for m in ("vix", "realized")}
        if None in p.values():
            return errors

        head, rows = _read_csv(c.out["diff"])
        want = sorted(p["vix"], key=lambda key: (key[1], -key[0]))
        got = [(float(m), float(t)) for m, t, _ in rows]
        if head != ["moneyness", "tau_years", "dp"] or got != want:
            errors.append("diff: grid differs from the surfaces' common grid")
        else:
            bad = sum(float(dp) != p["vix"][key] - p["realized"][key] for key, (_, _, dp) in zip(got, rows))
            if bad:
                errors.append(f"diff: {bad} dp values differ from p_vix - p_realized")
        return errors

    def _check_surface(self, c, method, errors):
        """Check one surface file; return its {(moneyness, tau): p} or None."""
        sigma = c.sigma[method]
        head, rows = _read_csv(c.out[method])
        with open(os.path.splitext(c.out[method])[0] + ".json", encoding="utf-8") as fh:
            meta = json.load(fh)
        if meta["method"] != method or meta["points"] != len(rows) or meta["failures"]:
            errors.append(f"{method}: sidecar {meta['method']}/{meta['points']} points/"
                          f"{len(meta['failures'])} failures")
        col = {name: i for i, name in enumerate(head)}
        got = {(float(r[col["moneyness"]]), float(r[col["tau_years"]])): r for r in rows}
        if len(got) != len(rows) or set(got) != set(c.keys):
            errors.append(f"{method}: surface grid differs from the chain's call quotes")
            return None
        rows = [got[key] for key in c.keys]
        p = np.array([float(r[col["p"]]) for r in rows])
        flag = np.array([O.FLAG_BITS.get(r[col["clamped"]], 0) for r in rows])
        market = np.array([float(r[col["market_price"]]) for r in rows])
        if np.any(market != c.mid):
            errors.append(f"{method}: {int(np.sum(market != c.mid))} market prices differ from the quote mids")

        args = (c.spot, c.strike, c.tau, c.rate, sigma)
        faults = _calibration_faults(p, flag, c.mid, args)
        if method == "vix":
            faults["misses the generating p"] = ~np.isnan(c.p_gen) & ~(np.abs(p - c.p_gen) <= O.p_tol(p, c.p_gen, *args))
        errors += [f"{method}: {int(np.sum(bad))} points: {what}" for what, bad in faults.items() if np.any(bad)]
        return dict(zip(c.keys, p.tolist()))


# ---------------------------------------------------------------------------
# quote-stream
# ---------------------------------------------------------------------------

class QuoteStream:
    """Independent quotes through the scalar API, one call at a time."""

    name = "quote-stream"

    def __init__(self, predbs, seed, workdir, pool=2000):
        self.pricing, self.calibration = predbs.pricing, predbs.calibration
        self.errors = predbs.errors
        rng = _rng(seed, self.name)
        cols = {k: [] for k in ("spot", "strike", "tau", "rate", "sigma", "p", "market", "pushed")}
        while len(cols["spot"]) < pool:
            s = float(np.exp(rng.uniform(math.log(10), math.log(1000))))
            k = s / float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            t = float(np.exp(rng.uniform(math.log(1 / DAYS), math.log(2.0))))
            r = float(rng.uniform(0.0, 0.08))
            v = float(np.exp(rng.uniform(math.log(0.05), math.log(1.0))))
            p = float(rng.uniform(-1.0, 1.0))
            c = float(O.call(s, k, t, r, v, p))
            if not c >= PRICE_FLOOR * s:
                continue
            i = len(cols["spot"])
            pushed = i % 10 == 0   # one quote in ten sits outside the band
            if pushed:
                lo, hi, cap = (float(x) for x in O.band(s, k, t, r, v))
                c = _push_outside(rng, lo, hi, cap, above=i % 20 == 0)
            for key, val in zip(cols, (s, k, t, r, v, p, c, pushed)):
                cols[key].append(val)
        order = rng.permutation(pool)
        self.q = {key: np.array(val)[order] for key, val in cols.items()}
        self.quotes = [tuple(float(self.q[key][i]) for key in ("spot", "strike", "tau", "rate", "sigma", "p"))
                       for i in range(pool)]
        self.market = self.q["market"].tolist()
        self.round_len = pool
        self.rows_of_file = {}
        first = dict(zip(("spot", "strike", "tau", "rate", "sigma", "p"), self.quotes[0]))
        self.warmup = {"quote": first, "market_price": self.market[0]}

    def op(self, k):
        i = k % self.round_len
        s, K, t, r, v, p = self.quotes[i]
        pricing = self.pricing
        inputs = pricing.PricingInputs(s, K, t, r, v, p)
        call = pricing.call_price(inputs).price
        put = pricing.put_price(inputs).price
        slope = pricing.dprice_dp(inputs)
        try:
            pt = self.calibration.implied_excess_predictability(self.market[i], s, K, t, r, v)
        except self.errors.PredbsError:
            return 1, False, None
        return 1, True, (i, (call, put, slope, pt.p, O.FLAG_BITS[pt.clamped.value], pt.model_price))

    def check(self, first):
        errors = []
        idx = np.array(sorted(first))
        out = np.array([first[i] for i in idx], dtype=float)
        call, put, slope, p_imp, flag, model = out.T
        q = {key: val[idx] for key, val in self.q.items()}
        args = (q["spot"], q["strike"], q["tau"], q["rate"], q["sigma"])
        c_o, p_o = O.call_put(*args, q["p"])
        tol = O.price_tol(q["spot"], q["strike"], q["tau"], q["sigma"])

        def report(bad, what):
            if np.any(bad):
                errors.append(f"{int(np.sum(bad))} of {len(idx)} quotes: {what}")

        report(~(np.abs(call - c_o) <= tol), "call price differs from the oracle")
        report(~(np.abs(put - p_o) <= tol), "put price differs from the oracle")
        fwd_gap = q["spot"] * np.exp(-q["p"] * q["sigma"] ** 2 * q["tau"]) - q["strike"] * np.exp(-q["rate"] * q["tau"])
        report(~(np.abs(call - put - fwd_gap) <= 2 * tol), "call - put breaks dividend-adjusted parity")

        # dC/dp against a five-point central difference of the oracle; the step moves
        # d1 by 1e-3, and the bound adds the differenced prices' rounding budget
        h = 1e-3 / (q["sigma"] * np.sqrt(q["tau"]))
        fd = sum(w * O.call(*args, q["p"] + j * h) for j, w in ((-2, 1), (-1, -8), (1, 8), (2, -1))) / (12 * h)
        report(~(np.abs(slope - fd) <= 1e-7 * np.abs(fd) + 1.5 * tol / h), "dprice_dp differs from the oracle's difference quotient")

        flag = flag.astype(int)
        for what, bad in _calibration_faults(p_imp, flag, q["market"], args).items():
            report(bad, what)
        free = flag == O.NONE
        report(free & ~q["pushed"] & ~(np.abs(p_imp - q["p"]) <= O.p_tol(p_imp, q["p"], *args)),
               "implied p misses the generating p")
        report(free & ~(np.abs(model - q["market"]) <= _solve_tol(p_imp, args)),
               "reported model price does not match the quote")
        return errors


# ---------------------------------------------------------------------------
# garch-vol
# ---------------------------------------------------------------------------

# Series lengths of one round, two files each, so a round times the fit at
# every length an optimizer change may scale differently over.
GARCH_OBS = (500, 1000, 2000, 5000, 500, 1000, 2000, 5000)


class GarchVol:
    """Read a returns file, then every sigma estimator and an AR(1)-GARCH(1,1)-t fit."""

    name = "garch-vol"

    def __init__(self, predbs, seed, workdir, lengths=GARCH_OBS):
        self.data_io, self.vol = predbs.data_io, predbs.volatility
        self.errors = predbs.errors
        rng = _rng(seed, self.name)
        self.files = []
        for j, n_obs in enumerate(lengths):
            a1 = float(rng.uniform(0.04, 0.12))
            b1 = float(min(rng.uniform(0.80, 0.93), 0.97 - a1))
            true = dict(mean=float(rng.uniform(-2e-4, 5e-4)), ar1=float(rng.uniform(-0.1, 0.1)),
                        omega=1e-4 * (1.0 - a1 - b1), alpha1=a1, beta1=b1, nu=float(rng.uniform(5.0, 10.0)))
            r = O.garch_simulate(**true, n=n_obs, rng=rng)
            start = date(2000, 1, 3) + timedelta(days=int(rng.integers(0, 3000)))
            dates = [start + timedelta(days=i) for i in range(n_obs + 1)]
            path = os.path.join(workdir, f"returns_{j}.csv")
            f = dict(path=path, true=true, vix=round(float(rng.uniform(12.0, 35.0)), 2), closes=j >= len(lengths) // 2)
            if f["closes"]:
                closes = [float(_g(x)) for x in rng.uniform(20, 500) * np.exp(np.concatenate([[0.0], np.cumsum(r)]))]
                body = [f"{d.isoformat()},{_g(c)}" for d, c in zip(dates, closes)]
                head = "date,close"
                f["dates"] = dates[1:]
                f["returns"] = np.diff(np.log(np.array(closes)))
                f["log_close"] = np.log(np.array(closes))
            else:
                values = [float(_g(x)) for x in r]
                body = [f"{d.isoformat()},{_g(x)}" for d, x in zip(dates[1:], values)]
                head = "date,log_return"
                f["dates"] = dates[1:]
                f["returns"] = np.array(values)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(head + "\n" + "\n".join(body) + "\n")
            f["rows"] = len(body)
            self.files.append(f)
        self.round_len = len(lengths)
        self.rows_of_file = {f["path"]: f["rows"] for f in self.files}
        p0 = self.files[0]["true"]
        garch = dict(ar1=p0["ar1"], mean=p0["mean"], omega=p0["omega"], alpha1=p0["alpha1"],
                     beta1=p0["beta1"], nu=p0["nu"])
        self.warmup = {"returns": self.files[0]["path"], "window": WINDOW, "garch": garch}

    def op(self, k):
        j = k % len(self.files)
        f, vol = self.files[j], self.vol
        try:
            series = self.data_io.parse_return_series(f["path"])
            hist = vol.historical_vol(series, WINDOW)
            real = vol.realized_vol(series, WINDOW)
            vrp = vol.variance_risk_premium(f["vix"], series, WINDOW)
            params = vol.fit_ar_garch(series)
            fc = vol.garch_forecast_vol(params, series)
        except self.errors.PredbsError:
            return len(f["returns"]), False, None
        # the series is kept as its fields: the dataclass compares arrays ambiguously
        return len(series), True, (j, (series.dates, tuple(series.returns), hist, real, vrp, params, fc))

    def check(self, first):
        errors = []
        for j, rec in first.items():
            errors += [f"file {j}: {e}" for e in self._check_file(self.files[j], rec)]
        return errors

    def _check_file(self, f, rec):
        dates, returns, hist, real, vrp, params, fc = rec
        returns = np.array(returns)
        errors = []
        r = f["returns"]
        if list(dates) != f["dates"] or len(returns) != len(r):
            return ["parsed dates differ from the file"]
        if f["closes"]:
            tol = 4 * (np.spacing(1.0) + np.spacing(np.maximum(np.abs(f["log_close"][1:]), np.abs(f["log_close"][:-1])))
                       + np.spacing(np.abs(r)))
            if np.any(~(np.abs(returns - r) <= tol)):
                errors.append("log-returns differ from diff(log(close))")
        elif not np.array_equal(returns, r):
            errors.append("parsed log-returns differ from the file")

        w = r[-WINDOW:]
        sqrt_days = math.sqrt(DAYS)

        def close(a, b, rel):
            return abs(a - b) <= rel * abs(b)

        for est, daily, what in ((hist, float(np.std(w, ddof=1)), "historical"),
                                 (real, math.sqrt(float(np.mean(w * w))), "realized")):
            if not (close(est.sigma_daily, daily, 1e-12) and close(est.sigma_annual, daily * sqrt_days, 1e-12)):
                errors.append(f"{what} vol {est.sigma_annual!r} != {daily * sqrt_days!r}")
        implied, realized = f["vix"] ** 2 / 1e4, DAYS * float(np.mean(w * w))
        if abs(vrp.vrp - (implied - realized)) > 1e-12 * (implied + realized):
            errors.append(f"vrp {vrp.vrp!r} != {implied - realized!r}")

        if not (params.alpha1 + params.beta1 < 1.0 and params.nu > 2.0):
            errors.append("fitted parameters are not stationary with finite variance")
        fitted = dict(mean=params.mean, ar1=params.ar1, omega=params.omega,
                      alpha1=params.alpha1, beta1=params.beta1)
        if params.omega > 0 and params.nu > 2.0:
            ll_fit = O.garch_loglik(r, **fitted, nu=params.nu)
            ll_true = O.garch_loglik(r, **f["true"])
            if not ll_fit >= ll_true - 1e-6:
                errors.append(f"log-likelihood at the fit {ll_fit!r} is below the generating one {ll_true!r}")
            if not close(params.log_likelihood, ll_fit, 1e-9):
                errors.append(f"reported log-likelihood {params.log_likelihood!r} != {ll_fit!r}")
            s_next = math.sqrt(O.garch_next_variance(r, **fitted))
            if not (close(fc.sigma_daily, s_next, 1e-10) and close(fc.sigma_annual, s_next * sqrt_days, 1e-10)):
                errors.append(f"forecast {fc.sigma_daily!r} != one-step recursion {s_next!r}")
        return errors


# ---------------------------------------------------------------------------
# mc-sim
# ---------------------------------------------------------------------------

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
# Draw seeds of the simulations, one round of ALPHAS per row.  The drift and MC
# checks are 4-standard-error tests; their z-scores depend only on these draws
# (not on mu, sigma, s0 or the horizon), and every table entry has |z| < 1.5.
SIM_SEEDS = ((101, 102, 103, 104, 105), (201, 202, 203, 204, 205))
MC_SETS = (
    dict(s0=100.0, strike=100.0, tau=1.0, rate=0.03, sigma=0.2, p=0.0, seed=11),
    dict(s0=100.0, strike=120.0, tau=0.5, rate=0.01, sigma=0.35, p=-0.6, seed=12),
    dict(s0=50.0, strike=40.0, tau=2.0, rate=0.05, sigma=0.25, p=0.8, seed=13),
    dict(s0=250.0, strike=260.0, tau=0.25, rate=0.02, sigma=0.6, p=0.3, seed=14),
    dict(s0=80.0, strike=60.0, tau=1.5, rate=0.04, sigma=0.15, p=-1.0, seed=15),
)


class McSim:
    """`predbs simulate` at the README size per alpha, plus the MC pricer and the integrals."""

    name = "mc-sim"

    def __init__(self, predbs, seed, workdir, paths=100_000, steps=252, mc_paths=200_000, fine_steps=2**17):
        self.cli, self.sde = predbs.cli, predbs.sde
        rng = _rng(seed, self.name)
        self.mu = round(float(rng.uniform(-0.05, 0.15)), 4)
        self.sigma = round(float(rng.uniform(0.1, 0.4)), 4)
        self.horizon = round(float(rng.uniform(0.5, 2.0)), 3)
        s0 = round(float(rng.uniform(50.0, 200.0)), 2)
        self.paths, self.steps, self.mc_paths = paths, steps, mc_paths
        self.argvs = [
            ["simulate", "--mu", _g(self.mu), "--sigma", _g(self.sigma), "--alpha", _g(a),
             "--s0", _g(s0), "--horizon", _g(self.horizon), "--steps", str(steps),
             "--paths", str(paths), "--seed", str(sim_seed), "--format", "json"]
            for row in SIM_SEEDS for a, sim_seed in zip(ALPHAS, row)]
        self.round_len = len(ALPHAS)
        self.rows_of_file = {}
        fine = self.sde.BrownianPath.sample(fine_steps, self.horizon, int(rng.integers(2**31)))
        self.fine_values = fine.values
        self.coarse = fine.subsample(fine_steps // 2)
        self.theta = self.sde.IntegrandPath.from_brownian(self.coarse, fine)
        self.items = paths * steps + mc_paths
        self.warmup = {"argv": ["simulate", "--mu", _g(self.mu), "--sigma", _g(self.sigma),
                                "--paths", "1000", "--steps", "16"]}

    def op(self, k):
        sde = self.sde
        code, out, err = _capture(self.cli.main, self.argvs[k % len(self.argvs)])
        mc = dict(MC_SETS[k % len(MC_SETS)])
        est = sde.mc_risk_neutral_call(**mc, paths=self.mc_paths)
        alpha = ALPHAS[k % len(ALPHAS)]
        ints = (sde.ito_integral(self.theta, self.coarse),
                sde.stratonovich_half_integral(self.theta, self.coarse),
                sde.stratonovich_alpha_integral(self.theta, self.coarse, alpha))
        return self.items, code == 0, (k % len(self.argvs), (out, est.price, est.std_error, ints))

    def check(self, first):
        errors = []
        sig2 = self.sigma**2
        drift_se = {}
        for i, (out, price, se, ints) in sorted(first.items()):
            alpha = ALPHAS[i % len(ALPHAS)]
            rep = json.loads(out)
            theory = self.mu + alpha * sig2 - sig2 / 2
            drift, drift_err = rep["mean_log_drift"], rep["std_error"]
            drift_se[i] = (alpha, drift, drift_err)
            if not abs(drift - theory) <= 4 * drift_err:
                errors.append(f"alpha={alpha}: drift {drift!r} is {abs(drift - theory) / drift_err:.1f} SE from {theory!r}")
            if abs(rep["theoretical_drift"] - theory) > 1e-12:
                errors.append(f"alpha={alpha}: reported theoretical drift {rep['theoretical_drift']!r} != {theory!r}")
            se_theory = self.sigma / math.sqrt(self.paths * self.horizon)
            if not abs(drift_err - se_theory) <= 0.02 * se_theory:
                errors.append(f"alpha={alpha}: std_error {drift_err!r} not within 2% of {se_theory!r}")

            mc = MC_SETS[i % len(MC_SETS)]
            exact = float(O.call(mc["s0"], mc["strike"], mc["tau"], mc["rate"], mc["sigma"], mc["p"]))
            if not abs(price - exact) <= 4 * se:
                errors.append(f"MC call set {i % len(MC_SETS)}: {price!r} is {abs(price - exact) / se:.1f} SE from {exact!r}")

            sums, _ = O.riemann_integrals(self.fine_values, alpha)
            for name, got, want in zip(("ito", "midpoint", "offset"), ints, sums):
                if not abs(got - want) <= 1e-12 * max(abs(want), self.horizon):
                    errors.append(f"{name} integral (alpha={alpha}) {got!r} != Riemann sum {want!r}")

        for r0 in range(0, max(first, default=-1) + 1, len(ALPHAS)):
            row = [drift_se.get(r0 + a) for a in range(len(ALPHAS))]
            if None in row:
                continue
            a = np.array([x[0] for x in row])
            w = (a - a.mean()) / np.sum((a - a.mean()) ** 2)
            slope = float(np.sum(w * np.array([x[1] for x in row])))
            slope_se = math.sqrt(float(np.sum((w * np.array([x[2] for x in row])) ** 2)))
            if not abs(slope - sig2) <= 4 * slope_se:
                errors.append(f"drift slope over alpha {slope!r} is {abs(slope - sig2) / slope_se:.1f} SE from sigma^2 {sig2!r}")
        return errors


WORKLOADS = {w.name: w for w in (ChainSurface, QuoteStream, GarchVol, McSim)}
