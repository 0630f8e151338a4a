"""Time a fresh interpreter's set-up: import predbs and predbs.cli, then one warm-up call.

    python3 benchmark/setup_probe.py ROOT WARMUP_JSON

ROOT is the checkout whose ``src`` holds predbs; WARMUP_JSON is the warm-up
spec a workload wrote.  Prints the seconds from just before ``import predbs``
to the end of the warm-up call.  run.py also imports ``warm_up`` to warm its
own process the same way.
"""

import contextlib
import io
import json
import sys
import time


def warm_up(spec):
    """Run the workload's warm-up call: the first use of every module it times."""
    import predbs
    import predbs.cli
    from predbs import calibration, data_io, pricing, volatility

    if "argv" in spec:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = predbs.cli.main(spec["argv"])
        if code != 0:
            raise RuntimeError(f"warm-up {spec['argv'][0]} exited {code}: {sink.getvalue()}")
    if "quote" in spec:
        q = spec["quote"]
        pricing.call_price(pricing.PricingInputs(**q))
        calibration.implied_excess_predictability(
            spec["market_price"], q["spot"], q["strike"], q["tau"], q["rate"], q["sigma"])
    if "returns" in spec:
        series = data_io.parse_return_series(spec["returns"])
        volatility.historical_vol(series, spec["window"])
        volatility.garch_forecast_vol(volatility.GarchParams(**spec["garch"]), series)


if __name__ == "__main__":
    root, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    warm_up(spec)
    print(repr(time.perf_counter() - t0))
