"""Run one workload over several seeds and report each metric's median and spread.

    python3 benchmark/spread.py --workload NAME --seeds 1-10

Spread is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4),
the figure BENCHMARK.json's bounds are compared against.  Also reports the
share of failed operations and whether every run was correct.  Each run lasts
BENCHMARK.json's run_seconds and reports the end-to-end metrics.  Run from the
root of a checkout; the raw results go to stdout as one JSON line per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = HERE.parent / "BENCHMARK.json"


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = ap.parse_args()
    seconds = str(json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"])

    results = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", seconds, "--trace", "0"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, **result}), flush=True)
        results.append(result)

    print(f"# {args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}, "
          f"failed share: {sorted({r['failed'] / r['attempted'] for r in results})}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"# {name:40s} median {med:14.6g} {first['unit']:8s} spread {spread:7.2%}")


if __name__ == "__main__":
    main()
