"""Command-line entry point.

Subcommands: price, simulate, vol, vrp, calibrate, surface, diff-surface.
Summaries go to stdout (table, csv or json); data files go to --out paths.
Exit codes: 0 success, 1 domain, file or memory error, 2 usage error seen by the
parser.  A flag that only some subcommands or methods need exits 1 when missing:
--out for surface and diff-surface, --vix for method vix, --returns for the rest.
Identical invocations on identical inputs produce byte-identical output.
build_parser builds the parser once per process and shares it with main and
every other caller, so in-process callers pay for argparse only once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import calibration, data_io, pricing, sde, volatility
from .errors import PredbsError

__all__ = ["main", "build_parser"]


def _bounded_float(name: str, lo: float, hi: float):
    """argparse type: a float in [lo, hi], else a usage error naming `name`."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo:g}, {hi:g}], got {value}")
        return value
    return parse


def _render(fields: list[tuple[str, object]], fmt: str) -> str:
    """Deterministic rendering of an ordered field list; non-finite floats read inf, -inf, nan, and None ""."""
    if fmt == "json":
        doc = {k: v if isinstance(v, (str, int)) or isinstance(v, float) and math.isfinite(v) else _cell(v)
               for k, v in fields}
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        head = ",".join(k for k, _ in fields)
        row = ",".join(_cell(v) for _, v in fields)
        return f"{head}\n{row}\n"
    width = max(len(k) for k, _ in fields)
    return "".join(f"{k.ljust(width)}  {_cell(v)}\n" for k, v in fields)


def _cell(v: object) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return "" if v is None else str(v)


def _emit(args, fields: list[tuple[str, object]], to_file: bool = True) -> None:
    text = _render(fields, args.format)
    sys.stdout.write(text)
    if to_file and args.out:
        with data_io._overwrite(args.out) as fh:
            fh.write(text)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="write the result to this file as well; "
                     "surface and diff-surface require it and write their CSV there")
    sub.add_argument("--format", choices=("table", "csv", "json"), default="table")


def _add_scenario(sub: argparse.ArgumentParser) -> None:
    """The five floats of a pricing scenario, as price and calibrate take them."""
    sub.add_argument("--spot", type=float, required=True)
    sub.add_argument("--strike", type=float, required=True)
    sub.add_argument("--tau", type=float, required=True, help="time to maturity in years")
    sub.add_argument("--rate", type=float, required=True, help="continuous risk-free rate per year")
    sub.add_argument("--sigma", type=float, required=True, help="annualized volatility")


def _add_vol_source(sub: argparse.ArgumentParser) -> None:
    """Where vol and surface take sigma from: --method, and the --returns, --window or --vix it reads."""
    sub.add_argument("--method", choices=volatility.VOL_METHODS, required=True)
    sub.add_argument("--returns", default=None, help="CSV date,log_return or date,close")
    sub.add_argument("--window", type=int, default=252, help="trading days (historical/realized)")
    sub.add_argument("--vix", type=float, default=None, help="VIX quote in index points")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared after it: parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="predbs",
        description="Predictability-adjusted option pricing, simulation, estimation and calibration.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("price", help="closed-form call/put price with predictability yield")
    _add_scenario(sp)
    sp.add_argument("--p", type=_bounded_float("p", -1.0, 1.0), default=0.0,
                    help="excess predictability in [-1, 1]")
    sp.add_argument("--right", choices=("call", "put"), default="call")
    _add_common(sp)
    sp.set_defaults(func=cmd_price)

    sp = subs.add_parser("simulate", help="offset-convention GBM drift report")
    sp.add_argument("--mu", type=float, required=True, help="drift per year")
    sp.add_argument("--sigma", type=float, required=True)
    sp.add_argument("--alpha", type=_bounded_float("alpha", 0.0, 1.0), default=0.0,
                    help="integral offset in [0, 1]")
    sp.add_argument("--s0", type=float, default=100.0)
    sp.add_argument("--horizon", type=float, default=1.0, help="years")
    sp.add_argument("--steps", type=int, default=252)
    sp.add_argument("--paths", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=42, help="reproducibility seed (default 42)")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = subs.add_parser("vol", help="sigma estimate from a returns file or VIX quote")
    _add_vol_source(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_vol)

    sp = subs.add_parser("vrp", help="variance risk premium: VIX^2 minus realized variance")
    sp.add_argument("--vix", type=float, required=True)
    sp.add_argument("--returns", required=True)
    sp.add_argument("--window", type=int, default=252)
    _add_common(sp)
    sp.set_defaults(func=cmd_vrp)

    sp = subs.add_parser("calibrate", help="implied excess predictability for one quote")
    sp.add_argument("--market-price", type=float, required=True)
    _add_scenario(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_calibrate)

    sp = subs.add_parser("surface", help="calibrate a whole chain into a predictability surface")
    sp.add_argument("--chain", required=True, help="option chain CSV")
    sp.add_argument("--spot", type=float, required=True)
    sp.add_argument("--rate", type=float, required=True)
    _add_vol_source(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_surface)

    sp = subs.add_parser("diff-surface", help="pointwise p difference of two surface files")
    sp.add_argument("--base", required=True, help="surface CSV (p_1 leg)")
    sp.add_argument("--other", required=True, help="surface CSV (p_i leg)")
    _add_common(sp)
    sp.set_defaults(func=cmd_diff_surface)

    return parser


def cmd_price(args) -> None:
    inputs = pricing.PricingInputs(spot=args.spot, strike=args.strike, tau=args.tau,
                                   rate=args.rate, sigma=args.sigma, p=args.p)
    result = pricing.call_price(inputs) if args.right == "call" else pricing.put_price(inputs)
    _emit(args, [("right", args.right), *vars(result).items()])


def cmd_simulate(args) -> None:
    cfg = sde.PathSimConfig(mu=args.mu, sigma=args.sigma, alpha=args.alpha, s0=args.s0,
                            horizon=args.horizon, steps=args.steps, paths=args.paths,
                            seed=args.seed)
    batch = sde.simulate_stratonovich_alpha(cfg)
    mean_log, se_log = batch.mean_log_return()
    _emit(args, [
        ("mean_log_drift", mean_log / args.horizon),
        ("std_error", se_log / args.horizon),
        ("theoretical_drift", cfg.log_drift),
        ("paths", args.paths),
        ("steps", args.steps),
        ("seed", args.seed),
    ])


def _vol_estimate(method: str, returns_path, window: int, vix) -> volatility.VolEstimate:
    if method == "vix":
        if vix is None:
            raise PredbsError("--vix is required for method vix")
        return volatility.vix_to_sigma(vix)
    if returns_path is None:
        raise PredbsError(f"--returns is required for method {method}")
    series = data_io.parse_return_series(returns_path)
    if method == "historical":
        return volatility.historical_vol(series, window)
    if method == "realized":
        return volatility.realized_vol(series, window)
    params = volatility.fit_ar_garch(series)
    return volatility.garch_forecast_vol(params, series)


def cmd_vol(args) -> None:
    _emit(args, list(vars(_vol_estimate(args.method, args.returns, args.window, args.vix)).items()))


def cmd_vrp(args) -> None:
    series = data_io.parse_return_series(args.returns)
    _emit(args, list(vars(volatility.variance_risk_premium(args.vix, series, args.window)).items()))


def cmd_calibrate(args) -> None:
    point = calibration.implied_excess_predictability(
        args.market_price, args.spot, args.strike, args.tau, args.rate, args.sigma)
    _emit(args, [
        ("p", point.p),
        ("clamped", point.clamped.value),
        ("moneyness", point.moneyness),
        ("tau_years", point.tau),
        ("market_price", point.market_price),
        ("model_price", point.model_price),
        ("residual", point.residual),
    ])


def cmd_surface(args) -> None:
    if not args.out:
        raise PredbsError("surface requires --out for the surface CSV")
    est = _vol_estimate(args.method, args.returns, args.window, args.vix)
    chain = data_io.parse_option_chain(args.chain, spot=args.spot)
    for note in chain.skipped:
        print(f"skipped: {note}", file=sys.stderr)
    surface = calibration.build_surface(chain, rate=args.rate, vol=est)
    for note in surface.failures:
        print(f"not calibrated: {note}", file=sys.stderr)
    data_io.write_surface(surface, args.out)
    ps = [pt.p for pt in surface.points]
    counts = surface.clamp_counts()
    fields = [
        ("points", len(surface)),
        ("method", surface.method),
        ("sigma_annual", est.sigma_annual),
        ("p_min", min(ps, default=None)),
        ("p_max", max(ps, default=None)),
        ("clamped_minus_one", counts["at_minus_one"]),
        ("clamped_plus_one", counts["at_plus_one"]),
        ("failures", len(surface.failures)),
        ("out", str(args.out)),
    ]
    _emit(args, fields, to_file=False)  # --out holds the surface CSV, not the summary


def cmd_diff_surface(args) -> None:
    if not args.out:
        raise PredbsError("diff-surface requires --out for the diff CSV")
    base = data_io.read_surface(args.base)
    other = data_io.read_surface(args.other)
    diff = calibration.surface_diff(base, other)
    data_io.write_surface_diff(diff, args.out)
    dps = [dp for _, _, dp in diff.points]
    fields = [
        ("points", len(diff.points)),
        ("base_method", diff.base_method),
        ("other_method", diff.other_method),
        ("dp_min", min(dps)),
        ("dp_max", max(dps)),
        ("out", str(args.out)),
    ]
    _emit(args, fields, to_file=False)  # --out holds the diff CSV, not the summary


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (PredbsError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
