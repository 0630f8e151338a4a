"""predbs benchmark: one workload, timed for a fixed time, checked against oracles.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; predbs is imported from its ``src``.  The
workload's inputs are made from --seed into a work directory under the
checkout, which is removed at exit.  The timed phase runs whole rounds of the
workload's ops until --seconds have passed.  Ops cycle over the inputs; the
first output for each input is kept and checked after the timed phase, and
every repeat must equal it.
The last line of stdout is one JSON object:

    {"correct": bool, "attempted": ops, "failed": ops, "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones: set-up time (median of
fresh interpreters), items per second (median over rounds), median op
latency, and peak RSS.  With --trace 1 the same ops run with a
span around every call into a predbs layer and the metrics are the per-layer
ones; the line before the JSON gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 3
WORK_DIR = ".predbs_bench_work"


def fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_predbs():
    src = ROOT / "src"
    if not (src / "predbs" / "__init__.py").is_file():
        fail(f"no predbs package under {src}; run from the root of a predbs checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import predbs
    import predbs.cli
    if Path(predbs.__file__).resolve().parent != (src / "predbs").resolve():
        fail(f"imported predbs from {predbs.__file__}, not from {src}")
    return predbs


def setup_seconds(spec_path):
    """Median over fresh interpreters of import + warm-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(spec_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_phase(wl, seconds, min_ops=0):
    """Run whole rounds of ops until `seconds` have passed; return the op log."""
    gc.collect()
    clock = time.perf_counter_ns
    lat, rates, first = [], [], {}
    items = failed = differ = k = 0
    round_start = clock()
    round_items = 0
    deadline = round_start + int(seconds * 1e9)
    while k < max(min_ops, 1) or k % wl.round_len or clock() < deadline:
        t0 = clock()
        n, ok, record = wl.op(k)
        t1 = clock()
        lat.append(t1 - t0)
        k += 1
        if ok:  # items count completed work only
            items += n
            round_items += n
        if k % wl.round_len == 0:
            rates.append(round_items / ((t1 - round_start) * 1e-9))
            round_start, round_items = t1, 0
        if not ok:
            failed += 1
        elif first.setdefault(record[0], record[1]) != record[1]:
            differ += 1
    return dict(lat=lat, rates=rates, first=first, differ=differ, items=items, failed=failed, ops=k)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    predbs = import_predbs()
    import setup_probe
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    workdir = ROOT / WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](predbs, args.seed, str(workdir))
        spec_path = workdir / "warmup.json"
        spec_path.write_text(json.dumps(wl.warmup), encoding="utf-8")
        setup_probe.warm_up(wl.warmup)

        if not args.trace:
            setup_s = setup_seconds(spec_path)
            run = timed_phase(wl, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "items_per_s": {"value": statistics.median(run["rates"]), "unit": "items/s"},
                "op_p50_ms": {"value": statistics.median(run["lat"]) * 1e-6, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            # the same leading ops untraced, then traced, give the tracing overhead
            ref = timed_phase(wl, args.seconds / 4)
            tracer = tracing.Tracer()
            tracing.install(tracer, wl.rows_of_file)
            try:
                run = timed_phase(wl, args.seconds, min_ops=ref["ops"])
            finally:
                tracer.restore()
            n = ref["ops"]
            print(f"tracing overhead {100 * tracing.overhead(ref['lat'], run['lat'][:n]):+.1f}% "
                  f"over the first {n} ops ({sum(ref['lat']) * 1e-9:.3f} s untraced)")
            metrics = tracing.layer_metrics(tracer.spans, run["ops"], run["items"])

        errors = wl.check(run["first"])
        if args.trace:
            run["differ"] += sum(out != ref["first"].get(i, out) for i, out in run["first"].items())
        if run["differ"]:
            errors.append(f"{run['differ']} ops gave other outputs than an earlier op on the same input")
        for e in errors[:20]:
            print(f"check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": not errors, "attempted": run["ops"], "failed": run["failed"],
                          "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
