"""Golden CLI outputs: every subcommand in every output format, byte for byte.

Each case runs one or more `predbs.cli.main` invocations in a fresh working
directory and compares, against tests/fixtures/golden/cli_outputs.json:
the exit code and stdout of every invocation, stderr of every failing one,
and the bytes of every file the case leaves in that directory.

Inputs are the chain fixture and tests/fixtures/golden/returns.csv, written
once from `reference.simulate_ar_garch`; closes.csv (its closes from 100) and
returns_blank_nan.csv (it with a blank line and a later nan) are written
once from returns.csv.  returns_multiline.csv, written by hand, holds a
quoted cell that spans two lines before a nan on physical line 6, its fifth
record.  After a change that is meant to alter CLI
output, regenerate the record with

    PYTHONPATH=src python tests/test_golden_cli.py

and justify every changed byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from datetime import date
from pathlib import Path

import pytest

from predbs.cli import main
from predbs.volatility import GarchParams
from reference import simulate_ar_garch

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
RECORD = GOLDEN / "cli_outputs.json"
RETURNS = GOLDEN / "returns.csv"
CLOSES = GOLDEN / "closes.csv"
DIRTY_RETURNS = GOLDEN / "returns_blank_nan.csv"
MULTILINE_RETURNS = GOLDEN / "returns_multiline.csv"
CHAIN = FIXTURES / "chain_2015_mimic.csv"

PRICE = ["price", "--spot", "206.38", "--strike", "200", "--tau", "0.25",
         "--rate", "0.0212", "--sigma", "0.15", "--p", "0.5"]
SIM = ["simulate", "--mu", "0.05", "--sigma", "0.2", "--alpha", "0.5",
       "--paths", "500", "--steps", "16", "--seed", "7"]
CALIB = ["calibrate", "--market-price", "10.09", "--spot", "206.38", "--strike", "200",
         "--tau", "0.25", "--rate", "0.0212", "--sigma", "0.15"]
SURF = ["surface", "--chain", "{chain}", "--spot", "206.38", "--rate", "0.0212"]
SURF_VIX = SURF + ["--method", "vix", "--vix", "15", "--out", "vix.csv"]
SURF_REALIZED = SURF + ["--method", "realized", "--returns", "{returns}", "--out", "realized.csv"]
DIFF = ["diff-surface", "--base", "realized.csv", "--other", "vix.csv", "--out", "diff.csv"]

CASES: dict[str, list[list[str]]] = {
    "price_table": [PRICE],
    "price_csv": [PRICE + ["--format", "csv"]],
    "price_json_out": [PRICE + ["--format", "json", "--out", "price.json"]],
    "price_put_deep_otm": [["price", "--spot", "100", "--strike", "60", "--tau", "0.1",
                            "--rate", "0.02", "--sigma", "0.2", "--p", "0.3", "--right", "put"]],
    "price_p_out_of_range": [["price", "--spot", "100", "--strike", "100", "--tau", "1",
                              "--rate", "0.05", "--sigma", "0.2", "--p", "2"]],
    "simulate_table": [SIM],
    "simulate_csv": [SIM + ["--format", "csv"]],
    "simulate_json": [SIM + ["--format", "json"]],
    "simulate_log_drift_overflow": [["simulate", "--mu", "1e308", "--sigma", "0.2", "--paths", "10",
                                     "--horizon", "10"]],
    "simulate_diffusion_overflow": [["simulate", "--mu", "0", "--sigma", "1.3e154", "--alpha", "0.5",
                                     "--horizon", "1e308", "--steps", "1", "--paths", "1000"]],
    "vol_vix_table": [["vol", "--method", "vix", "--vix", "19.2"]],
    "vol_historical_csv": [["vol", "--method", "historical", "--returns", "{returns}",
                            "--window", "60", "--format", "csv"]],
    "vol_realized_json": [["vol", "--method", "realized", "--returns", "{returns}",
                           "--format", "json"]],
    "vol_garch_table": [["vol", "--method", "garch", "--returns", "{returns}"]],
    "vrp_table": [["vrp", "--vix", "25", "--returns", "{returns}"]],
    "vrp_csv": [["vrp", "--vix", "25", "--returns", "{returns}", "--window", "60",
                 "--format", "csv"]],
    "vrp_json": [["vrp", "--vix", "25", "--returns", "{returns}", "--format", "json"]],
    "vrp_vix_overflow": [["vrp", "--vix", "1e160", "--returns", "{returns}"]],
    "calibrate_table": [CALIB],
    "calibrate_csv": [CALIB + ["--format", "csv"]],
    "calibrate_json": [CALIB + ["--format", "json"]],
    "calibrate_rejected": [["calibrate", "--market-price", "500", "--spot", "100",
                            "--strike", "110", "--tau", "0.5", "--rate", "0.02",
                            "--sigma", "0.25"]],
    "surface_vix_table": [SURF_VIX],
    "surface_realized_csv": [SURF_REALIZED + ["--format", "csv"]],
    "surface_vix_json": [SURF_VIX + ["--format", "json"]],
    "surface_rate_nan": [SURF + ["--rate", "nan", "--method", "vix", "--vix", "15",
                                 "--out", "nan.csv"]],
    "surface_rate_inf": [SURF + ["--rate", "inf", "--method", "vix", "--vix", "15",
                                 "--out", "inf.csv"]],
    "diff_surface_table": [SURF_VIX, SURF_REALIZED, DIFF],
    "diff_surface_csv": [SURF_VIX, SURF_REALIZED, DIFF + ["--format", "csv"]],
    "diff_surface_json": [SURF_VIX, SURF_REALIZED, DIFF + ["--format", "json"]],
    "simulate_seed_out_of_range": [["simulate", "--mu", "0", "--sigma", "0.2", "--paths", "10",
                                    "--steps", "2", "--seed", "-1"]],
    "surface_out_json": [SURF + ["--method", "vix", "--vix", "15", "--out", "s.json"]],
    "vol_garch_closes_table": [["vol", "--method", "garch", "--returns", "{closes}"]],
    "vrp_returns_blank_then_nan": [["vrp", "--vix", "25", "--returns", "{dirty_returns}"]],
    "vol_historical_multiline_then_nan": [["vol", "--method", "historical", "--returns", "{multiline_returns}"]],
}


def _expand(argv: list[str]) -> list[str]:
    return [a.format(chain=CHAIN, returns=RETURNS, closes=CLOSES, dirty_returns=DIRTY_RETURNS,
                     multiline_returns=MULTILINE_RETURNS) for a in argv]


def _invoke(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(_expand(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    step = {"argv": argv, "exit_code": code, "stdout": out.getvalue()}
    if code != 0:
        step["stderr"] = err.getvalue()
    return step


def run_case(steps: list[list[str]], workdir: Path) -> dict:
    """Run the steps in `workdir` and return what they printed and left there."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    try:
        results = [_invoke(argv) for argv in steps]
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    files = {p.name: p.read_bytes().decode("utf-8") for p in sorted(workdir.iterdir())}
    return {"steps": results, "files": files}


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_record_covers_every_case(record):
    assert sorted(record) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name, record, tmp_path):
    assert run_case(CASES[name], tmp_path) == record[name]


def _write_returns_fixture(directory: Path) -> None:
    params = GarchParams(ar1=0.05, mean=2e-4, omega=2e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    series = simulate_ar_garch(params, n=300, seed=2015, start=date(2014, 1, 2))
    lines = ["date,log_return"] + [f"{d.isoformat()},{r:.17g}" for d, r in zip(series.dates, series.returns)]
    (directory / RETURNS.name).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_fixtures_from_returns(directory: Path) -> None:
    import math

    rows = [line.split(",") for line in (directory / RETURNS.name).read_text(encoding="utf-8").splitlines()[1:]]
    closes, close = ["date,close", "2014-01-01,100"], 100.0
    for d, r in rows:
        close *= math.exp(float(r))
        closes.append(f"{d},{close:.17g}")
    (directory / CLOSES.name).write_text("\n".join(closes) + "\n", encoding="utf-8")
    dirty = ["date,log_return"] + [f"{d},{'nan' if i == 39 else r}" for i, (d, r) in enumerate(rows)]
    dirty.insert(11, "")  # a blank line 12, so the nan is on line 42
    (directory / DIRTY_RETURNS.name).write_text("\n".join(dirty) + "\n", encoding="utf-8")


def test_generated_inputs_rebuild_byte_for_byte(tmp_path):
    _write_returns_fixture(tmp_path)
    _write_fixtures_from_returns(tmp_path)
    for committed in (RETURNS, CLOSES, DIRTY_RETURNS):
        assert (tmp_path / committed.name).read_bytes() == committed.read_bytes(), committed.name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    if not RETURNS.exists():  # inputs, written once; re-recording keeps them
        _write_returns_fixture(GOLDEN)
    if not CLOSES.exists():
        _write_fixtures_from_returns(GOLDEN)
    out = {}
    for case, case_steps in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            out[case] = run_case(case_steps, Path(tmp))
    RECORD.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
