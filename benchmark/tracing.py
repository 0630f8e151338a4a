"""Spans around the calls into each predbs layer, and the per-layer metrics from them.

The tracer replaces module attributes with timing wrappers; predbs source is
not touched.  Wrapping the names a module imported (``calibration.call_price``,
``volatility.minimize``) records the calls a layer makes inside itself.  Spans
are kept in memory as ``[name, parent, start_ns, end_ns, info]`` and turned
into metrics when the run ends.  A span's self time is its duration minus the
durations of its child spans (calls are single-threaded and nest).
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import defaultdict

RAISED = "raised"


def _file_size(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr, name, info=None, alloc=False):
        """Replace owner.attr with a wrapper recording a span named `name`.

        `info(args, kwargs, result)` stores what the span produced (counted
        after its end time); `alloc` records the tracemalloc peak inside it.
        """
        orig = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            if alloc:
                tracemalloc.start()
            span[2] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                span[4] = RAISED
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if alloc:
                span[4] = (info(args, kwargs, result), peak)
            elif info is not None:
                span[4] = info(args, kwargs, result)
            return result

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def install(tracer, rows_of_file):
    """Wrap the public functions of each layer, and the names layers import from each other."""
    from predbs import calibration, cli, data_io, pricing, sde, volatility

    w = tracer.wrap
    for owner in (pricing, calibration):                 # calibration prices through its own name
        w(owner, "call_price", "pricing.call_price")
    w(pricing, "put_price", "pricing.put_price")
    w(pricing, "dprice_dp", "pricing.dprice_dp")

    w(calibration, "implied_excess_predictability", "calibration.implied_p",
      info=lambda a, k, r: r.clamped.value != "none")
    w(calibration, "build_surface", "calibration.build_surface")
    w(calibration, "surface_diff", "calibration.surface_diff")

    for fn in ("fit_ar_garch", "garch_forecast_vol", "realized_vol", "historical_vol",
               "variance_risk_premium", "vix_to_sigma"):
        w(volatility, fn, f"volatility.{fn}")
    w(volatility, "minimize", "volatility.minimize", info=lambda a, k, r: r.nfev)
    w(volatility, "_starting_points", "volatility.starts", info=lambda a, k, r: len(r))

    w(sde, "simulate_stratonovich_alpha", "sde.simulate", alloc=True,
      info=lambda a, k, r: r.config.paths * r.config.steps)
    w(sde, "mc_risk_neutral_call", "sde.mc_call", info=lambda a, k, r: r.paths)
    for fn in ("ito_integral", "stratonovich_half_integral", "stratonovich_alpha_integral"):
        w(sde, fn, "sde.integral")
    w(sde.PathBatch, "mean_log_return", "sde.mean_log_return")

    w(data_io, "parse_option_chain", "data_io.parse_option_chain",
      info=lambda a, k, r: (len(r.quotes) + len(r.skipped), len(r.skipped)))
    w(data_io, "parse_return_series", "data_io.parse_return_series",
      info=lambda a, k, r: rows_of_file[str(a[0])])
    w(data_io, "write_surface", "data_io.write_surface",
      info=lambda a, k, r: (len(a[0].points),
                            _file_size(a[1]) + _file_size(os.path.splitext(a[1])[0] + ".json")))
    w(data_io, "read_surface", "data_io.read_surface", info=lambda a, k, r: len(r.points))
    w(data_io, "write_surface_diff", "data_io.write_surface_diff", info=lambda a, k, r: _file_size(a[1]))

    w(cli, "main", "cli.main")


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("pricing.call_price.calls", "count"),
    ("pricing.call_price.us", "us"),
    ("pricing.put_price.us", "us"),
    ("pricing.dprice_dp.us", "us"),
    ("calibration.implied_p.us", "us"),
    ("calibration.implied_p.self_us", "us"),
    ("calibration.pricings_per_quote", "count"),
    ("calibration.build_surface.ms", "ms"),
    ("calibration.surface_diff.ms", "ms"),
    ("calibration.quotes_clamped", "%"),
    ("calibration.quotes_failed", "%"),
    ("volatility.fit_ar_garch.s", "s"),
    ("volatility.nfev_per_fit", "count"),
    ("volatility.restarts_per_fit", "count"),
    ("volatility.us_per_nfev", "us"),
    ("volatility.garch_forecast_vol.us", "us"),
    ("volatility.realized_vol.us", "us"),
    ("volatility.historical_vol.us", "us"),
    ("sde.simulate.s", "s"),
    ("sde.simulate.ns_per_path_step", "ns"),
    ("sde.simulate.peak_alloc_mb", "MB"),
    ("sde.mc_call.ns_per_path", "ns"),
    ("sde.integral.us", "us"),
    ("data_io.parse_option_chain.us_per_row", "us"),
    ("data_io.parse_return_series.us_per_row", "us"),
    ("data_io.write_surface.us_per_point", "us"),
    ("data_io.read_surface.us_per_point", "us"),
    ("data_io.rows_skipped", "count"),
    ("data_io.bytes_written", "B"),
    ("cli.main.self_ms", "ms"),
)


def _ratio(num, den, scale=1.0):
    """num/den, or 0 when the layer was never called on this workload."""
    return scale * num / den if den else 0.0


def layer_metrics(spans, ops, items):
    """Every per-layer metric from the spans of `ops` ops that completed `items` items."""
    dur = [s[3] - s[2] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[0]].append(i)

    def total(name):
        return sum(dur[i] for i in by[name])

    def mean(name, scale):
        return _ratio(total(name), len(by[name]), scale)

    def info(name):
        return [spans[i][4] for i in by[name] if spans[i][4] != RAISED]

    name_of = [s[0] for s in spans]
    implied = by["calibration.implied_p"]
    in_solve = [i for i in by["pricing.call_price"] if spans[i][1] >= 0 and name_of[spans[i][1]] == "calibration.implied_p"]
    fits = len(by["volatility.fit_ar_garch"])
    nfev = sum(info("volatility.minimize"))
    sims = info("sde.simulate")
    chains = info("data_io.parse_option_chain")
    surfaces_written = info("data_io.write_surface")
    top_integrals = [i for i in by["sde.integral"] if spans[i][1] < 0 or name_of[spans[i][1]] != "sde.integral"]
    returns_rows = sum(info("data_io.parse_return_series"))
    surface_points_read = sum(info("data_io.read_surface"))

    values = {
        "pricing.call_price.calls": _ratio(len(by["pricing.call_price"]), items),
        "pricing.call_price.us": mean("pricing.call_price", 1e-3),
        "pricing.put_price.us": mean("pricing.put_price", 1e-3),
        "pricing.dprice_dp.us": mean("pricing.dprice_dp", 1e-3),
        "calibration.implied_p.us": mean("calibration.implied_p", 1e-3),
        "calibration.implied_p.self_us": _ratio(sum(dur[i] - child[i] for i in implied), len(implied), 1e-3),
        "calibration.pricings_per_quote": _ratio(len(in_solve), len(implied)),
        "calibration.build_surface.ms": mean("calibration.build_surface", 1e-6),
        "calibration.surface_diff.ms": mean("calibration.surface_diff", 1e-6),
        "calibration.quotes_clamped": _ratio(sum(info("calibration.implied_p")), len(implied), 100.0),
        "calibration.quotes_failed": _ratio(len(implied) - len(info("calibration.implied_p")), len(implied), 100.0),
        "volatility.fit_ar_garch.s": mean("volatility.fit_ar_garch", 1e-9),
        "volatility.nfev_per_fit": _ratio(nfev, fits),
        "volatility.restarts_per_fit": _ratio(len(by["volatility.minimize"]) - sum(info("volatility.starts")), fits),
        "volatility.us_per_nfev": _ratio(total("volatility.fit_ar_garch"), nfev, 1e-3),
        "volatility.garch_forecast_vol.us": mean("volatility.garch_forecast_vol", 1e-3),
        "volatility.realized_vol.us": mean("volatility.realized_vol", 1e-3),
        "volatility.historical_vol.us": mean("volatility.historical_vol", 1e-3),
        "sde.simulate.s": mean("sde.simulate", 1e-9),
        "sde.simulate.ns_per_path_step": _ratio(total("sde.simulate"), sum(n for n, _ in sims)),
        "sde.simulate.peak_alloc_mb": max((peak for _, peak in sims), default=0) / 2**20,
        "sde.mc_call.ns_per_path": _ratio(total("sde.mc_call"), sum(info("sde.mc_call"))),
        "sde.integral.us": _ratio(sum(dur[i] for i in top_integrals), len(top_integrals), 1e-3),
        "data_io.parse_option_chain.us_per_row": _ratio(total("data_io.parse_option_chain"), sum(n for n, _ in chains), 1e-3),
        "data_io.parse_return_series.us_per_row": _ratio(total("data_io.parse_return_series"), returns_rows, 1e-3),
        "data_io.write_surface.us_per_point": _ratio(total("data_io.write_surface"), sum(n for n, _ in surfaces_written), 1e-3),
        "data_io.read_surface.us_per_point": _ratio(total("data_io.read_surface"), surface_points_read, 1e-3),
        "data_io.rows_skipped": _ratio(sum(n for _, n in chains), len(chains)),
        "data_io.bytes_written": _ratio(sum(n for _, n in surfaces_written) + sum(info("data_io.write_surface_diff")), ops),
        "cli.main.self_ms": _ratio(sum(dur[i] - child[i] for i in by["cli.main"]), len(by["cli.main"]), 1e-6),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def overhead(untraced_ns, traced_ns):
    """Relative extra wall time of the same ops with tracing on."""
    return sum(traced_ns) / sum(untraced_ns) - 1.0
