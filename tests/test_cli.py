import contextlib
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from predbs.cli import main
from predbs.data_io import read_surface
from predbs.errors import PredbsError
from predbs.pricing import PricingInputs, call_price


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """json.loads that rejects the non-standard constants Infinity, -Infinity and NaN."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


PRICE_ARGS = ["price", "--spot", "100", "--strike", "100", "--tau", "1",
              "--rate", "0.05", "--sigma", "0.2", "--p", "0"]


# ------------------------------------------------------------------ price

def test_price_classical_table(capsys):
    code, out, err = run_cli(capsys, *PRICE_ARGS)
    assert code == 0
    expected = call_price(PricingInputs(100, 100, 1.0, 0.05, 0.2, 0.0)).price
    assert f"{expected:.12g}" in out
    assert "d_plus" in out


def test_price_json_format(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["price"] == pytest.approx(10.450583572185565, rel=1e-12)
    assert doc["dividend_yield"] == 0.0


def test_price_json_writes_infinite_d_as_string(capsys):
    # no diffusion and a positive forward gap: d_+ = d_- = +inf
    code, out, _ = run_cli(capsys, "price", "--spot", "120", "--strike", "100", "--tau", "1",
                           "--rate", "0", "--sigma", "0", "--format", "json")
    assert code == 0
    doc = strict_json(out)
    assert doc["d_plus"] == doc["d_minus"] == "inf"
    assert doc["price"] == 20.0


def test_price_csv_format(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS, "--format", "csv")
    assert code == 0
    head, row = out.strip().splitlines()
    assert head.split(",")[:2] == ["right", "price"]
    assert row.split(",")[0] == "call"


def test_price_put_parity(capsys):
    code, out, _ = run_cli(capsys, "price", "--spot", "100", "--strike", "100",
                           "--tau", "1", "--rate", "0", "--sigma", "0.2",
                           "--p", "0", "--right", "put", "--format", "json")
    call_doc = call_price(PricingInputs(100, 100, 1.0, 0.0, 0.2, 0.0)).price
    assert json.loads(out)["price"] == pytest.approx(call_doc, abs=1e-12)


def test_price_p_out_of_range_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["price", "--spot", "100", "--strike", "100", "--tau", "1",
              "--rate", "0.05", "--sigma", "0.2", "--p", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "[-1, 1]" in err


def test_price_market_constants_accepted(capsys):
    code, out, _ = run_cli(capsys, "price", "--spot", "206.38", "--strike", "200",
                           "--tau", "0.25", "--rate", "0.0212", "--sigma", "0.15",
                           "--p", "0.5", "--format", "json")
    assert code == 0
    assert json.loads(out)["price"] == pytest.approx(10.08980049744406, rel=1e-12)


def test_method_choices_are_vol_methods():
    from predbs.cli import build_parser
    from predbs.volatility import VOL_METHODS

    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    for name in ("vol", "surface"):
        method = next(a for a in subs[name]._actions if a.dest == "method")
        assert tuple(method.choices) == VOL_METHODS


@pytest.mark.parametrize("described, sharing, flags", [
    ("price", "calibrate", {"--tau", "--rate", "--sigma"}),
    ("vol", "surface", {"--returns", "--window", "--vix"}),
])
def test_a_shared_flag_carries_its_help_text_on_every_subcommand(described, sharing, flags):
    from predbs.cli import build_parser

    subs = next(a for a in build_parser()._actions if a.dest == "command").choices
    def helps(name):
        return {opt: a.help for a in subs[name]._actions for opt in a.option_strings}
    texts, shared = {opt: text for opt, text in helps(described).items() if text}, helps(sharing)
    common = texts.keys() & shared.keys()
    assert common >= flags
    assert {opt: shared[opt] for opt in common} == {opt: texts[opt] for opt in common}


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(PRICE_ARGS + ["--bogus", "1"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    from predbs import cli

    windows = []

    def record_window(method, returns_path, window, vix):
        windows.append(window)
        raise PredbsError("window recorded")

    monkeypatch.setattr(cli, "_vol_estimate", record_window)
    cli.build_parser.cache_clear()
    try:
        assert main(["vol", "--method", "historical", "--returns", "r.csv", "--window", "30"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(PRICE_ARGS + ["--bogus", "1"])
        assert exc.value.code == 2
        assert main(["surface", "--chain", "c.csv", "--spot", "100", "--rate", "0.05",
                     "--method", "historical", "--returns", "r.csv", "--out", "s.csv"]) == 1
        assert main(PRICE_ARGS) == 0
        built = cli.build_parser.cache_info().misses  # one per parser built
    finally:
        cli.build_parser.cache_clear()
    assert built == 1
    assert windows == [30, 252]  # the vol call's --window does not stick to the next call


@pytest.mark.parametrize("argv", [
    PRICE_ARGS,
    ["vol", "--method", "vix", "--vix", "20"],
    ["vrp", "--vix", "20", "--returns", "r.csv"],
    ["calibrate", "--market-price", "10", "--spot", "100", "--strike", "100",
     "--tau", "1", "--rate", "0.05", "--sigma", "0.2"],
    ["surface", "--chain", "c.csv", "--spot", "100", "--rate", "0.05", "--method", "vix",
     "--vix", "20", "--out", "s.csv"],
    ["diff-surface", "--base", "a.csv", "--other", "b.csv", "--out", "d.csv"],
], ids=lambda argv: argv[0])
def test_seed_only_on_simulate(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


# --------------------------------------------------------------- simulate

def test_simulate_zero_sigma_exact(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mu", "0.07", "--sigma", "0",
                           "--paths", "50", "--steps", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["mean_log_drift"] == pytest.approx(0.07, abs=1e-12)
    assert doc["std_error"] == 0.0
    assert doc["seed"] == 42


def test_simulate_ito_correction(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "0.2",
                           "--alpha", "0", "--paths", "40000", "--steps", "16",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["theoretical_drift"] == pytest.approx(-0.02)
    assert abs(doc["mean_log_drift"] - (-0.02)) < 3 * doc["std_error"]


def test_simulate_half_alpha_cancels_correction(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "0.2",
                           "--alpha", "0.5", "--paths", "40000", "--steps", "16",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["theoretical_drift"] == 0.0
    assert abs(doc["mean_log_drift"]) < 3 * doc["std_error"]


def test_simulate_large_sigma_reports_finite_numbers(capsys):
    # terminal prices underflow to 0 here; the report reads the log-returns directly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "1e3",
                                 "--paths", "100", "--steps", "4", "--format", "csv")
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert all(math.isfinite(float(x)) for x in row)
    assert float(row[2]) == -500000.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["1e140", "1e154"])
def test_simulate_huge_sigma_ensemble_statistics_stay_finite(sigma, capsys):
    # the log-returns' spread is rounding noise of size ulp(sigma^2 T): unscaled, its square
    # overflows at sigma = 1e140, and at 1e154 the sum of the returns does
    code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", sigma,
                             "--paths", "100", "--steps", "4", "--format", "json")
    assert code == 0 and err == ""
    doc = strict_json(out)
    assert math.isfinite(doc["mean_log_drift"]) and math.isfinite(doc["std_error"])
    assert doc["mean_log_drift"] == pytest.approx(doc["theoretical_drift"], rel=1e-12)


def test_simulate_overflowing_sigma_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "1e200",
                             "--paths", "100", "--steps", "4", "--format", "csv")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "sigma" in err


@pytest.mark.parametrize("seed", ["-1", str(1 << 128)])
def test_simulate_seed_outside_the_philox_key_range_is_domain_error(seed, capsys):
    code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "0.2", "--paths", "10",
                             "--steps", "2", "--seed", seed)
    assert code == 1 and out == ""
    assert err == f"error: seed must be in [0, 2^128), got {seed}\n"


def test_simulate_alpha_out_of_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mu", "0", "--sigma", "0.2", "--alpha", "1.5"])
    assert exc.value.code == 2
    assert "[0, 1]" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--mu", "0", "--sigma", "0.2", "--alpha", "half"])
    assert exc.value.code == 2
    assert "invalid float 'half'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--steps", "--paths"])
def test_simulate_past_numpys_array_limit_is_domain_error(flag, capsys):
    # 2^60 float64 values are 2^63 bytes, past numpy's limit: the config refuses them before any allocation
    code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "0.2", "--paths", "10", "--steps", "4",
                             flag, str(1 << 60))
    assert code == 1 and out == ""
    assert err.startswith("error: steps and paths must be >= 1 and < 2**60") and err.count("\n") == 1


@pytest.mark.parametrize("out", [".", "/"])
def test_surface_out_with_no_file_name_is_domain_error(out, fixtures_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, "surface", "--chain", str(fixtures_dir / "chain_2015_mimic.csv"),
                                "--spot", "206.38", "--rate", "0.0212", "--method", "vix", "--vix", "15", "--out", out)
    assert code == 1 and stdout == ""
    assert err == f"error: surface path {out} names no file\n"
    assert list(tmp_path.iterdir()) == []


def test_surface_with_a_sidecar_that_cannot_be_opened_writes_no_csv(fixtures_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").mkdir()
    code, stdout, _ = run_cli(capsys, "surface", "--chain", str(fixtures_dir / "chain_2015_mimic.csv"), "--spot",
                              "206.38", "--rate", "0.0212", "--method", "vix", "--vix", "15", "--out", "s.csv")
    assert code == 1 and stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_main_reports_an_exhausted_memory_as_domain_error(monkeypatch, capsys):
    from predbs import sde

    message = "Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64"

    def exhausted(cfg):
        raise MemoryError(message)

    monkeypatch.setattr(sde, "simulate_stratonovich_alpha", exhausted)
    code, out, err = run_cli(capsys, "simulate", "--mu", "0", "--sigma", "0.2", "--paths", str(10 ** 15))
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


# --------------------------------------------------------------- vol / vrp

@pytest.fixture()
def returns_csv(tmp_path):
    # constant daily log-return matching sigma_annual = 0.15 in realized terms
    r = 0.15 / math.sqrt(365.0)
    lines = ["date,log_return"]
    day, month = 1, 1
    for i in range(260):
        day += 1
        if day > 28:
            day, month = 1, month + 1
        lines.append(f"2014-{month:02d}-{day:02d},{r:.17g}")
    f = tmp_path / "returns.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f


def test_vol_realized(returns_csv, capsys):
    code, out, _ = run_cli(capsys, "vol", "--method", "realized",
                           "--returns", str(returns_csv), "--window", "252",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma_annual"] == pytest.approx(0.15, rel=1e-12)
    assert doc["window"] == 252


def test_vol_historical(returns_csv, capsys):
    code, out, _ = run_cli(capsys, "vol", "--method", "historical",
                           "--returns", str(returns_csv), "--window", "252",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["sigma_annual"] == pytest.approx(0.0, abs=1e-12)  # constant returns


def test_vol_vix_quote(capsys):
    code, out, _ = run_cli(capsys, "vol", "--method", "vix", "--vix", "19.2",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["sigma_annual"] == pytest.approx(0.192, rel=1e-12)


def test_vol_garch_method(tmp_path, capsys):
    from predbs.volatility import GarchParams
    from reference import simulate_ar_garch

    params = GarchParams(ar1=0.0, mean=0.0, omega=1e-6, alpha1=0.08, beta1=0.9, nu=6.0)
    series = simulate_ar_garch(params, n=300, seed=6)
    f = tmp_path / "garch_returns.csv"
    lines = ["date,log_return"] + [
        f"{d.isoformat()},{r:.17g}" for d, r in zip(series.dates, series.returns)
    ]
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "vol", "--method", "garch", "--returns", str(f),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "garch"
    assert doc["sigma_daily"] > 0
    assert doc["window"] == 300


def test_vol_vix_requires_quote(capsys):
    code, out, err = run_cli(capsys, "vol", "--method", "vix")
    assert code == 1
    assert "--vix" in err


def test_vol_missing_returns_file(capsys):
    code, _, err = run_cli(capsys, "vol", "--method", "realized",
                           "--returns", "/nope/missing.csv")
    assert code == 1
    assert "error" in err


def test_vrp_arithmetic(returns_csv, capsys):
    code, out, _ = run_cli(capsys, "vrp", "--vix", "25", "--returns",
                           str(returns_csv), "--window", "252", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["vrp"] == pytest.approx(0.04, abs=1e-14)


# ---------------------------------------------------------------- calibrate

def test_calibrate_round_trip(capsys):
    target = call_price(PricingInputs(100, 110, 0.5, 0.02, 0.25, 0.4)).price
    code, out, _ = run_cli(capsys, "calibrate", "--market-price", f"{target:.17g}",
                           "--spot", "100", "--strike", "110", "--tau", "0.5",
                           "--rate", "0.02", "--sigma", "0.25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == pytest.approx(0.4, abs=1e-8)
    assert doc["clamped"] == "none"


def test_calibrate_refuses_a_moneyness_that_overflows(capsys):
    code, out, err = run_cli(capsys, "calibrate", "--market-price", "1", "--spot", "1e300",
                             "--strike", "1e-300", "--tau", "1", "--rate", "0.05",
                             "--sigma", "0.2", "--format", "json")
    assert code == 1 and out == ""
    assert err == "error: moneyness spot/strike must be finite and > 0, got inf\n"


def test_surface_leaves_out_a_quote_whose_moneyness_overflows(tmp_path, capsys):
    chain = tmp_path / "chain.csv"
    chain.write_text("quote_date,expiry,strike,right,bid,ask\n"
                     "2015-01-02,2016-01-02,1e300,call,1e299,1e299\n"
                     "2015-01-02,2016-01-02,1e-300,call,1e300,1e300\n", encoding="utf-8")
    out_csv = tmp_path / "s.csv"
    code, out, err = run_cli(capsys, "surface", "--chain", str(chain), "--spot", "1e300", "--rate", "0.02",
                             "--method", "vix", "--vix", "20", "--out", str(out_csv), "--format", "json")
    assert code == 0, err
    assert "moneyness spot/strike must be finite and > 0, got inf" in err
    assert strict_json(out)["points"] == 1 and strict_json(out)["failures"] == 1
    rows = out_csv.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 2 and rows[1].startswith("1,") and "inf" not in out_csv.read_text(encoding="utf-8")
    assert len(read_surface(out_csv)) == 1


def test_calibrate_rejected_quote(capsys):
    code, _, err = run_cli(capsys, "calibrate", "--market-price", "500",
                           "--spot", "100", "--strike", "110", "--tau", "0.5",
                           "--rate", "0.02", "--sigma", "0.25")
    assert code == 1
    assert "no-arbitrage" in err


@pytest.mark.parametrize("argv", [
    ["price", "--spot", "100", "--strike", "100", "--tau", "1", "--rate", "0.05",
     "--sigma", "27", "--p", "-1"],
    ["calibrate", "--market-price", "10", "--spot", "100", "--strike", "100", "--tau", "1",
     "--rate", "0.05", "--sigma", "27"],
], ids=lambda argv: argv[0])
def test_scenario_past_the_float_range_is_domain_error(argv, capsys):
    # S e^{sigma^2 tau} = 100 e^{729}: both exited with an OverflowError traceback
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "float range" in err


# ------------------------------------------------------ surface / diff flow

def test_surface_and_diff_flow(fixtures_dir, tmp_path, capsys):
    chain = fixtures_dir / "chain_2015_mimic.csv"
    out_a = tmp_path / "surf_a.csv"
    code, out, err = run_cli(
        capsys, "surface", "--chain", str(chain), "--spot", "206.38",
        "--rate", "0.0212", "--method", "vix", "--vix", "15",
        "--out", str(out_a), "--format", "json",
    )
    assert code == 0, err
    summary = json.loads(out)
    assert summary["points"] == 52
    assert summary["sigma_annual"] == pytest.approx(0.15)
    assert summary["p_max"] == 1.0
    assert out_a.exists() and out_a.with_suffix(".json").exists()

    out_b = tmp_path / "surf_b.csv"
    run_cli(capsys, "surface", "--chain", str(chain), "--spot", "206.38",
            "--rate", "0.0212", "--method", "vix", "--vix", "15",
            "--out", str(out_b))

    # spot-check the written surface against the chain generator's p*(m)
    from predbs.data_io import read_surface
    surface = read_surface(out_a)
    p_star = lambda m: max(-1.0, min(1.0, 5.0 * (m - 0.95)))
    checked = 0
    for pt in surface.points:
        target = p_star(pt.moneyness)
        if abs(target) < 1.0:
            assert pt.p == pytest.approx(target, abs=1e-6)
            checked += 1
    assert checked > 10

    diff_out = tmp_path / "diff.csv"
    code, out, err = run_cli(capsys, "diff-surface", "--base", str(out_a),
                             "--other", str(out_b), "--out", str(diff_out),
                             "--format", "json")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["dp_min"] == 0.0 and doc["dp_max"] == 0.0
    assert diff_out.read_text(encoding="utf-8").splitlines()[0] == "moneyness,tau_years,dp"


def test_surface_notes_go_to_stderr(fixtures_dir, tmp_path, capsys):
    # cmd_surface: `print(f"skipped: {note}", ...)` and `print(f"not calibrated: {note}", ...)`
    chain = tmp_path / "chain.csv"
    chain.write_text((fixtures_dir / "chain_2015_mimic.csv").read_text(encoding="utf-8")
                     + "2015-01-02,2015-04-17,300,call,9,8\n"     # ask below bid: skipped by the parser
                     + "2015-01-02,2015-04-17,310,call,0,0\n", encoding="utf-8")    # zero mid: not calibrated
    code, out, err = run_cli(
        capsys, "surface", "--chain", str(chain), "--spot", "206.38", "--rate", "0.0212",
        "--method", "vix", "--vix", "15", "--out", str(tmp_path / "s.csv"), "--format", "json")
    assert code == 0
    assert err.splitlines() == [
        "skipped: option chain line 54: ask 8.0 below bid 9.0",
        "not calibrated: expiry=2015-04-17 strike=310.0: non-positive mid 0.0, skipped",
    ]
    summary = strict_json(out)
    assert summary["points"] == 52 and summary["failures"] == 1


def test_surface_requires_out(fixtures_dir, capsys):
    code, _, err = run_cli(capsys, "surface", "--chain",
                           str(fixtures_dir / "chain_2015_mimic.csv"),
                           "--spot", "206.38", "--rate", "0.0212",
                           "--method", "vix", "--vix", "15")
    assert code == 1
    assert "--out" in err
    code, _, err = run_cli(capsys, "diff-surface", "--base", "a.csv", "--other", "b.csv")
    assert (code, err) == (1, "error: diff-surface requires --out for the diff CSV\n")


def test_surface_method_requires_returns(fixtures_dir, capsys, tmp_path):
    code, _, err = run_cli(capsys, "surface", "--chain",
                           str(fixtures_dir / "chain_2015_mimic.csv"),
                           "--spot", "206.38", "--rate", "0.0212",
                           "--method", "realized", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert "--returns" in err


# ------------------------------------------------------------------ --out

def _price_table(capsys):
    code, out, _ = run_cli(capsys, *PRICE_ARGS)
    assert code == 0
    return out.encode()


@pytest.mark.parametrize("old_size", [3, 100_000])
def test_out_overwrites_exactly(tmp_path, capsys, old_size):
    out = tmp_path / "price.txt"
    out.write_bytes(b"9" * old_size)
    assert run_cli(capsys, *PRICE_ARGS, "--out", str(out))[0] == 0
    assert out.read_bytes() == _price_table(capsys)


def test_out_writes_through_a_symlink(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_bytes(b"9" * 10_000)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run_cli(capsys, *PRICE_ARGS, "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_bytes() == _price_table(capsys)


def test_out_creates_a_file_with_mode_0o666_less_the_umask(tmp_path, capsys):
    out = tmp_path / "price.txt"
    old = os.umask(0o027)
    try:
        code = run_cli(capsys, *PRICE_ARGS, "--out", str(out))[0]
    finally:
        os.umask(old)
    assert code == 0 and out.stat().st_mode & 0o777 == 0o640


def test_out_to_dev_null(capsys):
    code, out, err = run_cli(capsys, *PRICE_ARGS, "--out", os.devnull)
    assert code == 0 and err == "" and out.encode() == _price_table(capsys)


def test_out_to_a_directory_is_domain_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, *PRICE_ARGS, "--out", str(tmp_path))
    assert code == 1
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


# ------------------------------------------------------------ determinism

def test_cli_byte_identical_runs(fixtures_dir, tmp_path):
    chain = fixtures_dir / "chain_2015_mimic.csv"
    out = tmp_path / "surface.csv"
    outputs = []
    stdouts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "predbs.cli", "surface", "--chain", str(chain),
             "--spot", "206.38", "--rate", "0.0212", "--method", "vix",
             "--vix", "15", "--out", str(out), "--format", "csv"],
            capture_output=True, check=True,
        )
        stdouts.append(proc.stdout)
        outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        out.unlink()
        out.with_suffix(".json").unlink()
    assert stdouts[0] == stdouts[1]
    assert outputs[0] == outputs[1]


# ------------------------------------------------------- typed errors, fuzzed

# the extremes of the domain: signed zeros, subnormals, 1e154-1e308, infinities and nan
_SIGNED = st.sampled_from([1.0, -1.0])
EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(float.__mul__, st.floats(5e-324, 2.2250738585072009e-308), _SIGNED),
    st.builds(float.__mul__, st.floats(1e154, 1e308), _SIGNED),
)


def _value(ordinary: st.SearchStrategy) -> st.SearchStrategy:
    """An ordinary value three times in four, else an extreme: enough argv are valid to check what a success prints."""
    return st.integers(0, 3).flatmap(lambda k: ordinary if k else EXTREME)


def _float(lo: float, hi: float) -> st.SearchStrategy:
    return _value(st.floats(lo, hi))


def _options(**values) -> st.SearchStrategy:
    """argv of --name=value options (so that a value like -inf reaches the option's type) from strategies."""
    return st.fixed_dictionaries(values).map(lambda drawn: [f"--{k.replace('_', '-')}={v}" for k, v in drawn.items()])


@pytest.fixture(scope="module")
def fuzz_files(fixtures_dir, tmp_path_factory):
    """Inputs for the fuzzed argv: returns files, a chain, two surfaces, and the directory the runs write into."""
    work = tmp_path_factory.mktemp("cli_fuzz")
    golden = fixtures_dir / "golden"
    chain = fixtures_dir / "chain_2015_mimic.csv"
    for vix in ("15", "25"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["surface", "--chain", str(chain), "--spot", "206.38", "--rate", "0.0212", "--method", "vix",
                         "--vix", vix, "--out", str(work / f"vix{vix}.csv")]) == 0
    returns = [golden / "returns.csv", golden / "closes.csv", golden / "returns_blank_nan.csv", work / "missing.csv"]
    return {"work": work, "returns": st.sampled_from(returns), "chain": st.sampled_from([chain, work / "missing.csv"]),
            "surface": st.sampled_from([work / "vix15.csv", work / "vix25.csv", chain])}


def _argv(command: str, files: dict) -> st.SearchStrategy:
    window, seed, vix = _value(st.integers(2, 300)), st.integers(-2, 2**130), _float(0.0, 100.0)
    spot, rate, sigma = _float(1.0, 1e3), _float(-0.05, 0.2), _float(0.0, 2.0)
    body = {
        "price": _options(spot=spot, strike=spot, tau=_float(0.0, 5.0), rate=rate, sigma=sigma, p=_float(-1.0, 1.0),
                          right=st.sampled_from(["call", "put"])),
        "simulate": _options(mu=_float(-1.0, 1.0), sigma=sigma, alpha=_float(0.0, 1.0), s0=spot,
                             horizon=_float(1e-3, 5.0), steps=st.integers(-1, 300), paths=st.integers(-1, 300),
                             seed=seed),
        "vol": st.one_of(_options(method=st.just("vix"), vix=vix),
                         _options(method=st.sampled_from(["historical", "realized", "garch"]),
                                  returns=files["returns"], window=window)),
        "vrp": _options(vix=vix, returns=files["returns"], window=window),
        "calibrate": _options(market_price=_float(0.0, 50.0), spot=_float(50.0, 150.0), strike=_float(50.0, 150.0),
                              tau=_float(1e-3, 5.0), rate=rate, sigma=_float(0.01, 2.0)),
        "surface": st.one_of(
            _options(chain=files["chain"], spot=_float(100.0, 300.0), rate=rate, method=st.just("vix"), vix=vix),
            _options(chain=files["chain"], spot=_float(100.0, 300.0), rate=rate,
                     method=st.sampled_from(["historical", "realized"]), returns=files["returns"], window=window)),
        "diff-surface": _options(base=files["surface"], other=files["surface"]),
    }[command]
    if command in ("surface", "diff-surface"):  # --out holds the surface or diff CSV
        out = st.sampled_from([["--out", str(files["work"] / "out.csv")], ["--out", "."], ["--out", str(files["work"])]])
    else:
        out = st.sampled_from([[], ["--out", str(files["work"] / "out.txt")], ["--out", str(files["work"])]])
    return st.tuples(body, out, st.sampled_from(["table", "csv", "json"])).map(
        lambda t: [command, *t[0], *t[1], "--format", t[2]])


@pytest.mark.parametrize("command", ["price", "simulate", "vol", "vrp", "calibrate", "surface", "diff-surface"])
@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_keeps_its_errors_typed(command, fuzz_files, data):
    # every subcommand, on any argv: exit 0, 1 or 2 with no traceback, and a success prints no nan or inf
    # (price may: d_+- are infinite without diffusion)
    argv = data.draw(_argv(command, fuzz_files), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2), err.getvalue()
    if code == 0 and command != "price":
        assert re.search(r"(?<![a-z])(nan|inf)(?![a-z])", out.getvalue(), re.IGNORECASE) is None, out.getvalue()


# ---------------------------------------------------------------- imports

def test_cli_import_leaves_scipy_signal_unloaded(fixtures_dir, tmp_path):
    # scipy.signal and the scipy.stats it pulls in cost about 0.4 s and 27 MB to
    # import. No predbs module uses them (the GARCH filter is a numpy scan), so
    # neither loads on import, nor where the GARCH fit and forecast run
    returns, chain = fixtures_dir / "golden" / "returns.csv", fixtures_dir / "chain_2015_mimic.csv"
    runs = [["vol", "--method", "garch", "--returns", str(returns)],
            ["surface", "--chain", str(chain), "--spot", "206.38", "--rate", "0.0212", "--method", "garch",
             "--returns", str(returns), "--out", str(tmp_path / "garch.csv")]]
    probe = (
        "import contextlib, io, sys, predbs.cli\n"
        "loaded = lambda: [m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]\n"
        "print(loaded())\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert predbs.cli.main(argv) == 0\n"
        "    print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, encoding="utf-8")
    assert proc.stdout.split() == ["[]"] * 3


SURFACE_VIX = ["surface", "--chain", "{chain}", "--spot", "206.38", "--rate", "0.0212", "--method", "vix",
               "--vix", "15", "--out", "{tmp}/vix.csv"]


@pytest.mark.parametrize("argvs, unloaded, loaded", [
    ([], ["numpy", "scipy.optimize", "scipy.special", "scipy.linalg"], []),
    ([["simulate", "--mu", "0.05", "--sigma", "0.2", "--paths", "100", "--steps", "4"]], ["scipy.optimize"], ["numpy"]),
    ([PRICE_ARGS], ["numpy", "scipy.optimize"], []),
    ([["calibrate", "--market-price", "10.09", "--spot", "206.38", "--strike", "200", "--tau", "0.25",
       "--rate", "0.0212", "--sigma", "0.15"]], ["numpy", "scipy.optimize", "scipy.special", "scipy.linalg"], []),
    ([SURFACE_VIX], ["numpy", "scipy.optimize"], []),
    ([SURFACE_VIX, SURFACE_VIX[:-3] + ["20", "--out", "{tmp}/vix20.csv"],
      ["diff-surface", "--base", "{tmp}/vix.csv", "--other", "{tmp}/vix20.csv", "--out", "{tmp}/diff.csv"]],
     ["numpy", "scipy.optimize"], []),
    ([["vol", "--method", "realized", "--returns", "{returns}"]], ["scipy.optimize"], ["numpy"]),
    ([["vol", "--method", "garch", "--returns", "{returns}"]], ["scipy", "scipy.optimize"], ["numpy", "predbs._sqp"]),
], ids=["import", "simulate", "price", "calibrate", "surface-vix", "diff-surface", "vol-realized", "vol-garch"])
def test_cli_leaves_scipy_optimize_unloaded(argvs, unloaded, loaded, fixtures_dir, tmp_path):
    # no predbs module imports scipy (about 0.6 s and 24 MB to import for the
    # optimizer the GARCH fit used to call): the fit runs its own solver, which
    # loads at the fit's first call.  numpy (about 30 ms) loads only where an
    # array is made: not for the closed form, the calibration solve, a vix
    # surface or a diff; the sigma estimators load it
    argvs = [[a.format(chain=fixtures_dir / "chain_2015_mimic.csv", tmp=tmp_path,
                       returns=fixtures_dir / "golden" / "returns.csv") for a in argv] for argv in argvs]
    probe = (
        "import contextlib, io, sys, predbs.cli, predbs.data_io, predbs.volatility, predbs.sde\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert predbs.cli.main(argv) == 0\n"
        f"print(*[m for m in {unloaded + loaded!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, encoding="utf-8")
    assert proc.stdout.split() == loaded


def test_garch_vol_prints_its_golden_record_without_scipy(fixtures_dir):
    # scipy is a test dependency only: with every import of it refused, the fit prints the golden record
    golden = fixtures_dir / "golden"
    step = json.loads((golden / "cli_outputs.json").read_text(encoding="utf-8"))["vol_garch_table"]["steps"][0]
    argv = [a.format(returns=golden / "returns.csv") for a in step["argv"]]
    probe = (
        "import sys\n"
        "sys.modules['scipy'] = None  # an import of scipy, or of any of its submodules, raises ImportError\n"
        "import predbs.cli\n"
        f"sys.exit(predbs.cli.main({argv!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, check=True, encoding="utf-8")
    assert proc.stdout == step["stdout"]


def _fresh_import(statement: str) -> str:
    """stdout of `statement` run in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", statement], capture_output=True, check=True, encoding="utf-8").stdout


def test_package_import_loads_no_module():
    # the package root re-exports nothing: every name is imported from the module that defines it
    assert _fresh_import("import sys, predbs; print(*[m for m in sys.modules if m.startswith('predbs.')])") == "\n"


def test_scalar_pricer_and_solver_load_no_numpy():
    # the closed form and the implied-p Newton solve are math-only; numpy costs about 30 ms to import
    assert _fresh_import("import sys, predbs.pricing, predbs.calibration; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("module", ["calibration", "cli", "data_io", "errors", "pricing", "sde", "volatility"])
def test_each_module_imports_alone(module):
    # with nothing imported ahead of it, a missing import or an import cycle fails here
    assert _fresh_import(f"import predbs.{module}") == ""


def _code_objects(code: types.CodeType):
    """`code` and every code object nested in it: functions, lambdas, classes and comprehensions."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


@pytest.mark.parametrize("module", ["predbs", *(f"predbs.{m}" for m in
                                                ["calibration", "cli", "data_io", "errors", "pricing", "sde",
                                                 "volatility"])])
def test_numpy_is_bound_once_per_module(module):
    # numpy is imported in one place, _Numpy.__getattr__, at a module's first numpy call.  A module whose code reads
    # np binds it at import, np = _Numpy(globals()): an unbound read would fail with a NameError only when it runs
    from predbs.sde import _Numpy
    code_objects = list(_code_objects(importlib.util.find_spec(module).loader.get_code(module)))
    importers = [f"{c.co_name}:{c.co_firstlineno}" for c in code_objects if "numpy" in c.co_names]
    lazy_binding = f"__getattr__:{_Numpy.__getattr__.__code__.co_firstlineno}"
    assert importers == ([lazy_binding] if module == "predbs.sde" else [])
    assert ("np" in vars(importlib.import_module(module))) == any("np" in c.co_names for c in code_objects)


@pytest.mark.parametrize("module", [f"predbs.{m}" for m in
                                    ["calibration", "cli", "data_io", "pricing", "sde", "volatility"]])
def test_every_name_in_all_is_defined(module):
    # `from module import *` imports each name __all__ lists, and fails on one the module does not define
    public = importlib.import_module(module)
    assert [name for name in public.__all__ if not hasattr(public, name)] == []


def test_each_array_module_binds_numpy_at_its_own_first_numpy_call(fixtures_dir):
    # importing loads no numpy; a module's first numpy call binds its own np to numpy, read as a plain global after
    argvs = [["simulate", "--mu", "0.05", "--sigma", "0.2", "--paths", "100", "--steps", "4"],
             ["vol", "--method", "realized", "--returns", str(fixtures_dir / "golden" / "returns.csv")]]
    probe = (
        "import contextlib, io, sys, predbs.cli, predbs.sde, predbs.volatility\n"
        "def state():\n"
        "    np = sys.modules.get('numpy')\n"
        "    return [m.np is np or type(m.np).__name__ for m in (predbs.sde, predbs.volatility)], np is not None\n"
        "print(*state())\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert predbs.cli.main(argv) == 0\n"
        "    print(*state())\n"
    )
    assert _fresh_import(probe).splitlines() == ["['_Numpy', '_Numpy'] False", "[True, '_Numpy'] True",
                                                 "[True, True] True"]
