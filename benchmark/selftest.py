"""Self-test of the benchmark's checks at tiny sizes.

    python3 benchmark/selftest.py

Run from the root of a predbs checkout.  For each workload it runs a few ops
of predbs at tiny sizes and requires the checks to pass, then plants one
wrong answer at a time in the outputs (an implied p off by 1e-6, a price
scaled by 1 + 1e-6, a drift 10 standard errors off, ...) and requires the
checks to catch each.  It also holds the oracle pricer to a 40-digit mpmath
evaluation.  Prints one line per case and exits 1 if any case fails.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import shutil
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, WORK_DIR, import_predbs, timed_phase  # noqa: E402

predbs = import_predbs()
import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

failures = []


def expect(label, errors, needle=None):
    """needle None: errors must be empty; otherwise some error must contain needle."""
    ok = not errors if needle is None else any(needle in e for e in errors)
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": {errors[:3]}"))
    if not ok:
        failures.append(label)


def run_ops(wl, n):
    out = [wl.op(k) for k in range(n)]
    assert all(ok for _, ok, _ in out), "an op failed"
    return dict(rec for _, _, rec in out)


def mutate(first, fn):
    return {i: fn(i, out) for i, out in first.items()}


def oracle_vs_mpmath():
    mpmath.mp.dps = 40
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(300):
        s = float(np.exp(rng.uniform(math.log(5), math.log(5000))))
        k = s / float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        t = float(np.exp(rng.uniform(math.log(1 / 365), math.log(2.0))))
        r, v = float(rng.uniform(0, 0.08)), float(np.exp(rng.uniform(math.log(0.02), math.log(2.0))))
        p = float(rng.choice([-1.0, 1.0, rng.uniform(-1, 1)]))
        S, K, T, R, V, P = map(mpmath.mpf, (s, k, t, r, v, p))
        sd = V * mpmath.sqrt(T)
        d1 = (mpmath.log(S / K) + (R - P * V * V) * T) / sd + sd / 2
        exact = S * mpmath.exp(-P * V * V * T) * mpmath.ncdf(d1) - K * mpmath.exp(-R * T) * mpmath.ncdf(d1 - sd)
        worst = max(worst, abs(float(O.call(s, k, t, r, v, p)) - float(exact)) / float(O.price_tol(s, k, t, v)))
    expect(f"oracle call within a quarter of the price tolerance of mpmath (worst {worst:.3f})", [] if worst <= 0.25 else ["too far"])


def quote_stream(wd):
    wl = W.QuoteStream(predbs, 7, wd, pool=60)
    first = run_ops(wl, 60)
    expect("quote-stream: clean outputs pass", wl.check(first))

    def field(j, f):
        def fn(i, out):
            out = list(out)
            out[j] = f(out)
            return tuple(out)
        return fn

    free = lambda out: out[4] == O.NONE
    cases = [
        ("implied p + 1e-6", field(3, lambda o: o[3] + 1e-6 if free(o) else o[3]), "misses the generating p"),
        ("call x (1 + 1e-6)", field(0, lambda o: o[0] * (1 + 1e-6)), "call price differs"),
        ("put x (1 + 1e-6)", field(1, lambda o: o[1] * (1 + 1e-6)), "put price differs"),
        ("dprice_dp x (1 + 1e-4)", field(2, lambda o: o[2] * (1 + 1e-4)), "dprice_dp differs"),
        ("clamp flag none <-> at_minus_one", field(4, lambda o: O.AT_MINUS_ONE if free(o) else O.NONE),
         "clamp flag disagrees"),
        ("model price + 1e-6 x price", field(5, lambda o: o[5] * (1 + 1e-6)), "reported model price"),
    ]
    for label, fn, needle in cases:
        expect(f"quote-stream: catches {label}", wl.check(mutate(first, fn)), needle)


def repeats():
    class Drifting:
        round_len = 1

        def op(self, k):
            return 1, True, (0, k)   # one input, but a new output each time

    expect("runner: catches a repeat that differs from the first op", [] if timed_phase(Drifting(), 0, min_ops=2)["differ"] == 1 else ["missed"])


def rewrite_csv(path, fn):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [rows[0]] + [fn(row) for row in rows[1:]]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def chain_surface(wd):
    wl = W.ChainSurface(predbs, 7, wd, rows=(24, 60))
    first = run_ops(wl, 2)
    expect("chain-surface: clean outputs pass", wl.check(first))
    c = wl.chains[1]

    def nudge_p(row):
        if row[3] == "none":
            row[2] = repr(float(row[2]) + 1e-6)
        return row

    def flip_flag(row):
        if row[3] != "none":
            row[3] = "none"
        return row

    def bump_market(row):
        row[4] = repr(float(row[4]) * (1 + 1e-12))
        return row

    def bump_dp(row):
        row[2] = repr(float(np.nextafter(float(row[2]), 1.0)))
        return row

    cases = [
        ("vix p + 1e-6", "vix", nudge_p, "misses the generating p"),
        ("realized p + 1e-6", "realized", nudge_p, "does not reprice"),
        ("clamped point flagged none", "vix", flip_flag, "clamp flag disagrees"),
        ("market price x (1 + 1e-12)", "realized", bump_market, "market prices differ"),
        ("dp one ulp up", "diff", bump_dp, "dp values differ"),
    ]
    for label, leg, fn, needle in cases:
        run_ops(wl, 2)
        rewrite_csv(c.out[leg], fn)
        expect(f"chain-surface: catches {label}", wl.check(first), needle)
    run_ops(wl, 2)

    def drop_skip(i, runs):
        code, out, err = runs[0]
        lines = err.splitlines(keepends=True)
        first_skip = next(n for n, line in enumerate(lines) if line.startswith("skipped: "))
        return [(code, out, "".join(lines[:first_skip] + lines[first_skip + 1:]))] + runs[1:]

    expect("chain-surface: catches a skipped-row count one short", wl.check(mutate(first, drop_skip)), "rows skipped")


def garch_vol(wd):
    wl = W.GarchVol(predbs, 7, wd, lengths=(300, 400))
    first = run_ops(wl, 2)
    expect("garch-vol: clean outputs pass", wl.check(first))
    sqrt_days = math.sqrt(W.DAYS)

    def scale_vol(est, f):
        return dataclasses.replace(est, sigma_daily=est.sigma_daily * f, sigma_annual=est.sigma_daily * f * sqrt_days)

    def at(j, f):
        def fn(i, out):
            out = list(out)
            out[j] = f(out[j])
            return tuple(out)
        return fn

    def unstationary(p):
        fields = dataclasses.asdict(p)
        fields["beta1"] = 1.0 - p.alpha1
        return types.SimpleNamespace(**fields)

    cases = [
        ("returns + 1e-12", at(1, lambda r: tuple(x + 1e-12 for x in r)), "differ from"),
        ("historical vol x (1 + 1e-9)", at(2, lambda e: scale_vol(e, 1 + 1e-9)), "historical vol"),
        ("realized vol x (1 + 1e-9)", at(3, lambda e: scale_vol(e, 1 + 1e-9)), "realized vol"),
        ("vrp + 1e-9", at(4, lambda v: dataclasses.replace(v, implied_variance=v.implied_variance + 1e-9,
                                                          vrp=v.vrp + 1e-9)), "vrp"),
        ("alpha1 = beta1 = 0", at(5, lambda p: dataclasses.replace(p, alpha1=0.0, beta1=0.0)), "below the generating"),
        ("reported log-likelihood - 1e-3", at(5, lambda p: dataclasses.replace(p, log_likelihood=p.log_likelihood - 1e-3)),
         "reported log-likelihood"),
        ("alpha1 + beta1 = 1", at(5, unstationary), "not stationary"),
        ("forecast x (1 + 1e-9)", at(6, lambda e: scale_vol(e, 1 + 1e-9)), "forecast"),
    ]
    for label, fn, needle in cases:
        for j in (0, 1):   # a log_return file and a close file
            errors = wl.check({j: mutate(first, fn)[j]})
            expect(f"garch-vol: catches {label} ({'close' if wl.files[j]['closes'] else 'log_return'} file)",
                   errors, needle)


def mc_sim(wd):
    wl = W.McSim(predbs, 7, wd, paths=4000, steps=8, mc_paths=20000, fine_steps=2**10)
    first = run_ops(wl, 10)
    expect("mc-sim: clean outputs pass", wl.check(first))

    def report(f):
        def fn(i, out):
            rep = json.loads(out[0])
            f(rep, W.ALPHAS[i % len(W.ALPHAS)])
            return (json.dumps(rep),) + out[1:]
        return fn

    def add(key, f):
        return report(lambda rep, a: rep.__setitem__(key, f(rep, a)))

    cases = [
        ("drift + 10 SE", add("mean_log_drift", lambda r, a: r["mean_log_drift"] + 10 * r["std_error"]), "SE from"),
        ("std_error x 1.03", add("std_error", lambda r, a: r["std_error"] * 1.03), "not within 2%"),
        ("drift slope + 7 SE", add("mean_log_drift", lambda r, a: r["mean_log_drift"] + (a - 0.5) * 7 * r["std_error"]),
         "drift slope"),
        ("MC call + 10 SE", lambda i, out: (out[0], out[1] + 10 * out[2]) + out[2:], "MC call"),
        ("midpoint integral + 1e-9 horizon",
         lambda i, out: out[:3] + ((out[3][0], out[3][1] + 1e-9 * wl.horizon, out[3][2]),), "midpoint integral"),
    ]
    for label, fn, needle in cases:
        expect(f"mc-sim: catches {label}", wl.check(mutate(first, fn)), needle)


def main():
    wd = ROOT / WORK_DIR / f"selftest-{os.getpid()}"
    try:
        oracle_vs_mpmath()
        repeats()
        for name, test in (("quote-stream", quote_stream), ("chain-surface", chain_surface),
                           ("garch-vol", garch_vol), ("mc-sim", mc_sim)):
            sub = wd / name
            sub.mkdir(parents=True)
            test(str(sub))
    finally:
        shutil.rmtree(wd, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass
    print(f"{len(failures)} case(s) failed" if failures else "all cases passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
