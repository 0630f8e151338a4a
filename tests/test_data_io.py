import gc
import io
import json
import math
import os
import re
import struct
import sys
import tempfile
import warnings
from datetime import date, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from predbs.calibration import CalibrationPoint, ClampStatus, PredictabilitySurface
from predbs.data_io import (
    CHAIN_HEADER,
    SURFACE_HEADER,
    OptionChain,
    OptionQuote,
    parse_option_chain,
    parse_return_series,
    read_surface,
    write_surface,
    write_surface_diff,
)
from predbs.calibration import SurfaceDiff
from predbs.errors import DataQualityError, InputError, ParseError, PredbsError


# ------------------------------------------------------------ option chain

def chain_text(rows):
    return "quote_date,expiry,strike,right,bid,ask\n" + "\n".join(rows) + "\n"


def test_parse_well_formed_chain():
    text = chain_text([
        "2015-01-02,2015-03-20,200,call,10.0,10.5",
        "2015-01-02,2015-03-20,210,call,4.8,5.0",
        "2015-01-02,2015-06-20,200,put,8.1,8.4",
    ])
    chain = parse_option_chain(io.StringIO(text), spot=206.38)
    assert len(chain.quotes) == 3
    assert chain.quote_date == date(2015, 1, 2)
    assert chain.quotes[0].mid == pytest.approx(10.25)
    assert chain.quotes[2].right == "put"
    assert not chain.skipped


def test_parse_chain_skips_crossed_market():
    text = chain_text([
        "2015-01-02,2015-03-20,200,call,10.0,10.5",
        "2015-01-02,2015-03-20,210,call,5.0,4.8",  # bid > ask
        "2015-01-02,2015-03-20,220,call,2.0,2.2",
    ])
    chain = parse_option_chain(io.StringIO(text), spot=206.38)
    assert len(chain.quotes) == 2
    assert len(chain.skipped) == 1
    assert "line 3" in chain.skipped[0]


def test_parse_chain_skips_mixed_quote_dates():
    text = chain_text([
        "2015-01-02,2015-03-20,200,call,10.0,10.5",
        "2015-01-05,2015-03-20,210,call,4.8,5.0",
    ])
    chain = parse_option_chain(io.StringIO(text), spot=206.38)
    assert len(chain.quotes) == 1
    assert "quote_date" in chain.skipped[0]


def test_parse_chain_2015_fixture(fixtures_dir):
    chain = parse_option_chain(fixtures_dir / "chain_2015_mimic.csv", spot=206.38)
    assert chain.quote_date == date(2015, 1, 2)
    expiries = sorted({q.expiry_date for q in chain.quotes})
    assert expiries[0] >= date(2015, 1, 2)
    assert expiries[-1] == date(2015, 6, 20)
    taus = [(q.expiry_date - chain.quote_date).days / 365.0 for q in chain.quotes]
    assert max(taus) == pytest.approx(0.4630136986, abs=1e-9)
    strikes = {q.strike for q in chain.quotes}
    assert min(strikes) == 80.0 and max(strikes) == 250.0


def test_parse_chain_missing_header():
    with pytest.raises(ParseError):
        parse_option_chain(io.StringIO("foo,bar\n1,2\n"), spot=100.0)


def test_parse_chain_empty_file():
    with pytest.raises(ParseError):
        parse_option_chain(io.StringIO(""), spot=100.0)


def test_parse_chain_header_only():
    # parse_option_chain: `raise ParseError(f"{what}: no data rows")`
    with pytest.raises(ParseError, match="option chain: no data rows"):
        parse_option_chain(io.StringIO("quote_date,expiry,strike,right,bid,ask\n"), spot=100.0)


def test_parse_chain_majority_bad_rows_is_fatal():
    text = chain_text([
        "2015-01-02,2015-03-20,200,call,10.0,10.5",
        "2015-01-02,2015-03-20,x,call,1,2",
        "2015-01-02,2015-03-20,220,call,9,8",
    ])
    with pytest.raises(DataQualityError):
        parse_option_chain(io.StringIO(text), spot=100.0)


def test_parse_chain_missing_file():
    with pytest.raises(ParseError):
        parse_option_chain("/nonexistent/file.csv", spot=100.0)


@pytest.mark.parametrize("kind", [str, Path])
@pytest.mark.parametrize("read", [parse_return_series, lambda path: parse_option_chain(path, spot=100.0), read_surface],
                         ids=["returns", "chain", "surface"])
def test_a_path_holding_a_nul_byte_is_a_parse_error(read, kind):
    # open() refuses it with ValueError, not OSError: the parsers are total over paths too
    with pytest.raises(ParseError, match=re.escape("cannot open a\x00b: embedded null byte")):
        read(kind("a\x00b"))


def test_parse_chain_bytes_stream():
    text = chain_text(["2015-01-02,2015-03-20,200,call,10.0,10.5"])
    for stream in (io.BytesIO(text.encode()), io.StringIO(text)):
        chain = parse_option_chain(stream, spot=206.38)
        assert len(chain.quotes) == 1
        gc.collect()
        assert not stream.closed  # the caller's stream is left open


def test_parse_chain_crlf():
    text = chain_text(["2015-01-02,2015-03-20,200,call,10.0,10.5"]).replace("\n", "\r\n")
    chain = parse_option_chain(io.BytesIO(text.encode()), spot=206.38)
    assert len(chain.quotes) == 1


def test_parse_chain_skips_row_short_of_a_later_column():
    # the required columns sit after an extra one, so a row one field short of
    # the header misses `ask` although it has as many fields as there are
    # required columns
    text = ("note,quote_date,expiry,strike,right,bid,ask\n"
            "x,2015-01-02,2015-03-20,200,call,10.0,10.5\n"
            "x,2015-01-02,2015-03-20,200,call,10.0\n")
    chain = parse_option_chain(io.StringIO(text), spot=100)
    assert len(chain.quotes) == 1
    assert chain.skipped == ("option chain line 3: expected 7 fields, got 6",)


@pytest.mark.parametrize("row, message", [
    ("2015-01-02,2015-03-20,210,call,5.0,4.8", "ask 4.8 below bid 5.0"),
    ("2015-01-02,2015-02-30,210,call,4.8,5.0", "bad date '2015-02-30'"),
    ("2015-01-02,2015-03-20,n/a,call,4.8,5.0", "bad number 'n/a'"),
    ("2015-01-02,2015-03-20,210,call,-0.5,5.0", "bid must be >= 0, got -0.5"),
    ("2015-01-02,2015-03-20,210,call,4.8", "expected 6 fields, got 5"),
    ("2015-01-03,2015-03-20,210,call,4.8,5.0", "quote_date 2015-01-03 differs from 2015-01-02"),
    ("2015-01-02,2015-03-20,210,straddle,4.8,5.0", "right must be call or put, got 'straddle'"),
    ("2015-01-02,2014-12-30,210,call,4.8,5.0", "expiry 2014-12-30 before quote date 2015-01-02"),
    ("2015-01-02,2015-03-20,210,call,4.8,nan", "bid and ask must be finite"),
    # two bad fields in one row: the message names the first in header order
    ("2015-01-02,2015-02-30,n/a,call,4.8,5.0", "bad date '2015-02-30'"),
    ("2015-01-02,2015-03-20,210,call,x,y", "bad number 'x'"),
], ids=["crossed", "bad_date", "bad_strike", "negative_bid", "short_row", "other_quote_date",
        "bad_right", "expired", "nan_ask", "bad_date_and_strike", "bad_bid_and_ask"])
def test_parse_chain_skip_message_of_each_dirty_row_kind(row, message):
    # the blank line counts: the dirty row is line 5
    text = chain_text(["2015-01-02,2015-03-20,200,call,10.0,10.5", "", "2015-01-02,2015-03-20,220,call,2.0,2.2", row])
    chain = parse_option_chain(io.StringIO(text), spot=206.38)
    assert len(chain.quotes) == 2
    assert chain.skipped == (f"option chain line 5: {message}",)


_EOL_IDS = {"\n": "lf", "\r\n": "crlf", "\r": "cr"}
# the line endings any source may use; a quoted cell holds them too
_EOLS = pytest.mark.parametrize("eol", list(_EOL_IDS), ids=list(_EOL_IDS.values()))
# each kind of source with each line ending; a byte stream's id is the line ending's alone
_SOURCE_EOLS = pytest.mark.parametrize("kind, eol", [
    pytest.param(kind, eol, id=name if kind == "bytes" else f"{kind}-{name}")
    for kind in ("bytes", "path", "text") for eol, name in _EOL_IDS.items()])


def as_source(kind, text, tmp_path):
    """`text` as a byte stream, as a UTF-8 file under tmp_path, or as a text stream."""
    if kind == "path":
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode())
        return path
    return io.BytesIO(text.encode()) if kind == "bytes" else io.StringIO(text)


@_SOURCE_EOLS
def test_parse_chain_names_the_physical_line_a_row_starts_on(tmp_path, kind, eol):
    # the first row's quoted right spans lines 2 and 3, so the bad strike, the chain's fifth record, is on line 6
    rows = ['2015-01-02,2015-03-20,200,"call' + eol + '",10.0,10.5', "2015-01-02,2015-03-20,210,call,4.8,5.0",
            "2015-01-02,2015-03-20,220,call,2.0,2.2", "2015-01-02,2015-03-20,bad,call,1,2"]
    text = eol.join(["quote_date,expiry,strike,right,bid,ask", *rows]) + eol
    chain = parse_option_chain(as_source(kind, text, tmp_path), spot=206.38)
    assert len(chain.quotes) == 3
    assert chain.skipped == ("option chain line 6: bad number 'bad'",)


def test_option_quote_validation():
    qd, ed = date(2015, 1, 2), date(2015, 3, 20)
    with pytest.raises(InputError):
        OptionQuote(qd, ed, strike=-5.0, right="call", bid=1.0, ask=2.0)
    with pytest.raises(InputError):
        OptionQuote(qd, ed, strike=100.0, right="straddle", bid=1.0, ask=2.0)
    with pytest.raises(InputError):
        OptionQuote(qd, date(2014, 12, 31), strike=100.0, right="call", bid=1.0, ask=2.0)
    with pytest.raises(InputError, match="bid and ask must be finite"):
        OptionQuote(qd, ed, strike=100.0, right="call", bid=math.nan, ask=2.0)
    with pytest.raises(InputError, match="bid must be >= 0"):
        OptionQuote(qd, ed, strike=100.0, right="call", bid=-1.0, ask=2.0)
    quote = OptionQuote(qd, ed, strike=100.0, right="call", bid=1.0, ask=2.0)
    with pytest.raises(InputError, match="spot must be > 0"):
        OptionChain(quote_date=qd, spot=0.0, quotes=(quote,))
    with pytest.raises(InputError, match="all quotes must share the chain quote_date"):
        OptionChain(quote_date=date(2015, 1, 5), spot=100.0, quotes=(quote,))
    with pytest.raises(ParseError, match="option chain: spot must be > 0, got -1.0"):
        parse_option_chain(io.StringIO(chain_text(["2015-01-02,2015-03-20,100,call,1.0,2.0"])), spot=-1.0)


# ------------------------------------------------------------ return series

def test_parse_returns_from_closes():
    text = "date,close\n2015-01-02,100\n2015-01-05,105\n2015-01-06,105\n"
    series = parse_return_series(io.StringIO(text))
    assert len(series) == 2
    # frozen from an independent evaluation of ln(105/100)
    assert series.returns[0] == pytest.approx(0.04879016416943205, abs=1e-16)
    assert series.returns[1] == 0.0


def test_parse_returns_constant_closes():
    text = "date,close\n" + "\n".join(f"2015-01-{d:02d},50" for d in range(2, 9))
    series = parse_return_series(io.StringIO(text))
    assert np.all(series.returns == 0.0)


@pytest.mark.parametrize("closes", [(100, 5e-324, 1), (1, 5e-324, 100), (1e5, 3e-317, 1e5)])
def test_parse_returns_from_closes_whose_quotient_leaves_the_normal_range(closes):
    # b / a underflows to 0, overflows to inf, or is subnormal (3e-322 holds 6 bits, so ln(b / a) is off by
    # 4.6e-3): such a return is ln b - ln a
    text = "date,close\n" + "".join(f"2015-01-0{2 + i},{c!r}\n" for i, c in enumerate(closes))
    series = parse_return_series(io.StringIO(text))
    assert series.returns.tolist() == [math.log(b) - math.log(a) for a, b in zip(closes, closes[1:])]


def test_parse_returns_log_return_mode():
    text = "date,log_return\n2015-01-02,0.01\n2015-01-05,-0.02\n"
    series = parse_return_series(io.StringIO(text))
    assert series.returns.tolist() == [0.01, -0.02]
    assert series.as_of == date(2015, 1, 5)


def test_parse_returns_shuffled_dates_fatal():
    text = "date,log_return\n2015-01-05,0.01\n2015-01-02,-0.02\n"
    with pytest.raises(ParseError):
        parse_return_series(io.StringIO(text))


def test_parse_returns_nonpositive_close_fatal():
    text = "date,close\n2015-01-02,100\n2015-01-05,-4\n2015-01-06,100\n"
    with pytest.raises(ParseError):
        parse_return_series(io.StringIO(text))


def test_parse_returns_counts_blank_lines_in_a_bad_rows_line_number():
    text = "date,log_return\n2015-01-02,0.01\n\n\n2015-01-05,0.02\n\n2015-01-06,nan\n"
    with pytest.raises(ParseError, match=r"^return series line 7: non-finite value 'nan'$"):
        parse_return_series(io.StringIO(text))


@_SOURCE_EOLS
def test_parse_returns_names_the_physical_line_a_row_starts_on(tmp_path, kind, eol):
    # the second row's quoted date spans lines 3 to 5 and line 6 is blank: the nan, the fifth record, is on line 7
    text = eol.join(["date,log_return", "2015-01-02,0.01", '"2015-01-05' + eol * 2 + '",0.02', "", "2015-01-06,nan"])
    with pytest.raises(ParseError, match=r"^return series line 7: non-finite value 'nan'$"):
        parse_return_series(as_source(kind, text + eol, tmp_path))


@pytest.mark.parametrize("kind", ["bytes", "path"])
@pytest.mark.parametrize("rows, tail, fault", [
    # past the first 8 KiB, where a decoder reading in chunks would name the fault's offset within its chunk
    (1000, b"\xff,0.02\n", "byte 0xff in position {}: invalid start byte"),
    # a sequence cut off by the end of the file, which that decoder names by its offset within the leftover bytes
    (1, b"\xe2\x82", "bytes in position {}-{}: unexpected end of data"),
], ids=["past_8_kib", "cut_at_the_end"])
def test_parse_returns_names_a_decode_fault_by_its_offset_in_the_file(tmp_path, kind, rows, tail, fault):
    head = ("date,log_return\n" + "2015-01-02,0.01\n" * rows).encode()
    path = tmp_path / "input.csv"
    path.write_bytes(head + tail)
    message = fault.format(len(head), len(head) + 1)
    with pytest.raises(ParseError, match=f"^return series: unreadable content: 'utf-8' codec can't decode {message}$"):
        parse_return_series(path if kind == "path" else io.BytesIO(path.read_bytes()))


@pytest.mark.parametrize("header, rows, message", [
    ("log_return", ["2015-01-05,0.01", "2015-01-02,0.02", "2015-01-06,x"],
     "line 3: dates not strictly ascending at 2015-01-02"),
    ("log_return", ["2015-01-02,0.01", "2015-01-05,x", "2015-01-03,0.02"], "line 3: bad number 'x'"),
    ("log_return", ["2015-01-02,0.01", "", "2015-01-05,inf", "2015-13-01,0.02"], "line 4: non-finite value 'inf'"),
    ("log_return", ["2015-01-02,0.01", "2015-01-03", "2015-01-04,nan"], "line 3: expected 2 fields, got 1"),
    ("close", ["2015-01-02,100", "2015-01-05,-1", "bad,3"], "line 3: non-positive close -1.0"),
    ("close", ["2015-01-02,100", "x,1", "2015-01-03,0"], "line 3: bad date 'x'"),
    ("close", ["2015-01-02,100", "2015-01-03,0", "2015-01-01,5"], "line 3: non-positive close 0.0"),
    ("close", ["2015-01-02,-1", "2015-01-05,-2", "2015-01-06,-3"], "line 2: non-positive close -1.0"),
    ("close", ["2015-01-05,100", "2015-01-02,101"], "line 3: dates not strictly ascending at 2015-01-02"),
    ("close", ["2015-01-05,100", "2015-01-02,101", "2015-01-06,102"],
     "line 3: dates not strictly ascending at 2015-01-02"),
])
def test_parse_returns_reports_the_first_faulty_line(header, rows, message):
    # two faults of different kinds: the message is the earlier line's, whichever kind a column meets first
    with pytest.raises(ParseError, match=f"^return series {re.escape(message)}$"):
        parse_return_series(io.StringIO("\n".join([f"date,{header}", *rows]) + "\n"))


@pytest.mark.parametrize("lead", ["", " ", "\ufeff", "\ufeff "], ids=["bare", "space", "bom", "bom_space"])
def test_parsers_strip_a_byte_order_mark_then_whitespace_from_a_header_cell(lead):
    chain = parse_option_chain(io.StringIO(lead + chain_text(["2015-01-02,2015-03-20,200,call,10.0,10.5"])), spot=100)
    assert len(chain.quotes) == 1
    series = parse_return_series(io.StringIO(lead + "date,log_return\n2015-01-02,0.01\n2015-01-05,-0.02\n"))
    assert series.returns.tolist() == [0.01, -0.02]


def test_parse_returns_bad_header():
    with pytest.raises(ParseError):
        parse_return_series(io.StringIO("when,what\n2015-01-02,1\n"))


# ---------------------------------------------------------------- surfaces

def random_surface(rng, n=25):
    points = []
    seen = set()
    while len(points) < n:
        m = float(np.round(rng.uniform(0.6, 1.6), 6))
        t = float(np.round(rng.uniform(0.05, 1.5), 6))
        if (m, t) in seen:
            continue
        seen.add((m, t))
        flag = (ClampStatus.NONE, ClampStatus.AT_MINUS_ONE, ClampStatus.AT_PLUS_ONE)[int(rng.integers(3))]
        p = {ClampStatus.AT_MINUS_ONE: -1.0, ClampStatus.AT_PLUS_ONE: 1.0}.get(
            flag, float(rng.uniform(-1, 1)))
        points.append(CalibrationPoint(
            moneyness=m, tau=t, p=p, clamped=flag,
            market_price=float(rng.uniform(0.1, 60)),
            model_price=float(rng.uniform(0.1, 60)),
            residual=float(rng.normal(0, 1e-10)),
        ))
    return PredictabilitySurface(
        method="realized", spot=float(rng.uniform(50, 250)), rate=0.0212,
        as_of=date(2015, 1, 2), points=tuple(points),
        failures=("line 9: crossed market",),
    )


def test_surface_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    surface = random_surface(rng)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    back = read_surface(out)
    assert back == surface  # dataclass equality: every float must round-trip exactly


def test_write_surface_refuses_a_path_that_is_its_own_sidecar(tmp_path):
    # the sidecar is the path with suffix .json: written second, it would replace the surface CSV
    with pytest.raises(InputError, match="metadata sidecar"):
        write_surface(random_surface(np.random.default_rng(31)), tmp_path / "surface.json")
    assert list(tmp_path.iterdir()) == []  # refused before anything is written


@pytest.mark.parametrize("path", [".", "", "/", Path("."), Path("/")])
def test_write_surface_refuses_a_path_with_no_file_name(path, tmp_path, monkeypatch):
    # Path(".").with_suffix(".json") raises ValueError: the sidecar of a nameless path has no name either
    monkeypatch.chdir(tmp_path)
    with pytest.raises(InputError, match="names no file"):
        write_surface(random_surface(np.random.default_rng(31)), path)
    assert list(tmp_path.iterdir()) == []  # refused before anything is written


def test_surface_round_trip_empty(tmp_path):
    surface = PredictabilitySurface(method="vix", spot=100.0, rate=0.02,
                                    as_of=date(2015, 1, 2), points=())
    out = tmp_path / "empty.csv"
    write_surface(surface, out)
    assert out.read_text(encoding="utf-8").strip() == "moneyness,tau_years,p,clamped,market_price,model_price,residual"
    back = read_surface(out)
    assert back.points == ()
    assert back.method == "vix"


def test_surface_read_ignores_extra_column_with_warning(tmp_path):
    rng = np.random.default_rng(33)
    surface = random_surface(rng, n=4)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[0] += ",note"
    body = [line + ",hello" for line in lines[1:]]
    out.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="ignoring unknown columns"):
        back = read_surface(out)
    assert back == surface


def test_surface_read_rejects_row_short_of_a_later_column(tmp_path):
    rng = np.random.default_rng(37)
    surface = random_surface(rng, n=2)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    lines[0] = "note," + lines[0]
    body = ["x," + line for line in lines[1:]]
    body[1] = body[1].rsplit(",", 1)[0]  # drop the residual
    out.write_text("\n".join([lines[0]] + body) + "\n", encoding="utf-8")
    with pytest.warns(UserWarning, match="ignoring unknown columns"):
        with pytest.raises(ParseError, match="line 3: expected 8 fields, got 7"):
            read_surface(out)


def test_surface_read_requires_sidecar(tmp_path):
    rng = np.random.default_rng(34)
    surface = random_surface(rng, n=3)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    (tmp_path / "surface.json").unlink()
    with pytest.raises(ParseError):
        read_surface(out)


def test_surface_read_rejects_bad_sidecar(tmp_path):
    rng = np.random.default_rng(36)
    surface = random_surface(rng, n=1)  # one point: "points": true and 1.0 would pass a loose count
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    (tmp_path / "surface.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        read_surface(out)
    (tmp_path / "surface.json").write_text('{"spot": 1.0, "rate": 0.0}', encoding="utf-8")  # no method
    with pytest.raises(ParseError):
        read_surface(out)
    for text in ('5', '["method", "spot", "rate", "points"]'):  # valid JSON, not an object
        (tmp_path / "surface.json").write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="not a JSON object"):
            read_surface(out)
    write_surface(surface, out)
    meta = (tmp_path / "surface.json").read_text(encoding="utf-8")
    for as_of in ('5', '"2015-13-45"'):
        (tmp_path / "surface.json").write_text(meta.replace('"2015-01-02"', as_of), encoding="utf-8")
        with pytest.raises(ParseError, match="invalid content"):
            read_surface(out)
    loaded = json.loads(meta)
    for key, value in (("failures", "abc"), ("failures", [1, 2]), ("failures", None), ("method", 5),
                       ("spot", math.nan), ("spot", -5.0), ("spot", True), ("spot", "100"),
                       ("rate", math.inf), ("rate", False), ("points", True), ("points", 1.0),
                       ("as_of", False), ("as_of", 0), ("as_of", "")):
        (tmp_path / "surface.json").write_text(json.dumps({**loaded, key: value}), encoding="utf-8")
        with pytest.raises(ParseError, match="invalid content|metadata sidecar says"):
            read_surface(out)
    (tmp_path / "surface.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="bad metadata sidecar"):
        read_surface(out)


def test_surface_read_rejects_truncated_file(tmp_path):
    rng = np.random.default_rng(52)
    surface = random_surface(rng, n=52)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    out.write_text("".join(lines[:-3]), encoding="utf-8")  # last 3 rows cut off; the sidecar still says 52
    with pytest.raises(ParseError, match="says 52 points, file has 49 rows"):
        read_surface(out)


def test_surface_read_rejects_bad_flag(tmp_path):
    rng = np.random.default_rng(35)
    surface = random_surface(rng, n=2)
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    text = out.read_text(encoding="utf-8")
    text = text.replace("none", "sometimes").replace("at_minus_one", "sometimes").replace("at_plus_one", "sometimes")
    out.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError):
        read_surface(out)


def test_surface_read_rejects_p_out_of_range(tmp_path):
    # CalibrationPoint: `raise InputError(f"calibrated p must be in [-1, 1], got {self.p}")`,
    # which read_surface turns into `raise ParseError(f"{what} line {line_no}: {exc}")`
    surface = PredictabilitySurface(
        method="realized", spot=100.0, rate=0.02, as_of=date(2015, 1, 2),
        points=(CalibrationPoint(moneyness=1.0, tau=0.25, p=0.5, clamped=ClampStatus.NONE,
                                 market_price=4.0, model_price=4.0, residual=0.0),))
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    out.write_text(out.read_text(encoding="utf-8").replace(",0.5,", ",1.5,"), encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 2: calibrated p must be in \[-1, 1\], got 1.5"):
        read_surface(out)


@pytest.mark.parametrize("moneyness, accepted", [
    ("inf", False), ("0", False), ("-1", False), ("1.7976931348623157e+308", True), ("5e-324", True),
])
def test_surface_read_takes_only_finite_positive_moneyness(tmp_path, moneyness, accepted):
    # CalibrationPoint refuses a moneyness that is not finite and > 0; read_surface reports the row
    surface = PredictabilitySurface(
        method="realized", spot=100.0, rate=0.02, as_of=date(2015, 1, 2),
        points=(CalibrationPoint(moneyness=1.25, tau=0.25, p=0.5, clamped=ClampStatus.NONE,
                                 market_price=4.0, model_price=4.0, residual=0.0),))
    out = tmp_path / "surface.csv"
    write_surface(surface, out)
    out.write_text(out.read_text(encoding="utf-8").replace("\n1.25,", f"\n{moneyness},"), encoding="utf-8")
    if accepted:
        assert read_surface(out).points[0].moneyness == float(moneyness)
    else:
        with pytest.raises(ParseError, match="line 2: moneyness spot/strike must be finite and > 0"):
            read_surface(out)


_ROW = "1.25,0.25,0.5,none,4,4,0"


@pytest.mark.parametrize("rows, message", [
    ([_ROW, "1.5,0.25,x,none,4,4,0", _ROW, "1.75,0.25,0.5,sometimes,4,4,0"], "line 3: bad number 'x'"),
    ([_ROW, "1.5,0.25,0.5,sometimes,4,4,0", _ROW, "1.75,0.25,x,none,4,4,0"], "line 3: unknown clamp flag 'sometimes'"),
    ([_ROW, "", "", "1.5,0.25,0.5,sometimes,4,4,0", "1.75,x,0.5,none,4,4,0"], "line 5: unknown clamp flag 'sometimes'"),
    (["1.25,0.25,0.5,none,4,4,z", "x,0.25,0.5,none,4,4,0"], "line 2: bad number 'z'"),
    ([_ROW, "1.5,0.25,1.5,none,4,4,0", "1.75,0.25,0.5,none,4"], "line 3: calibrated p must be in [-1, 1], got 1.5"),
    ([_ROW, "", "1.5,0.25,0.5,none,4,4", "0,0.25,0.5,none,4,4,0"], "line 4: expected 7 fields, got 6"),
    ([_ROW, "1.5,0.25,x,sometimes,4,4,0"], "line 3: unknown clamp flag 'sometimes'"),
])
def test_surface_read_reports_the_first_faulty_line(tmp_path, rows, message):
    # two faults of different kinds: the message is the earlier line's, and blank lines count in its number
    out = tmp_path / "surface.csv"
    out.write_text("\n".join([",".join(SURFACE_HEADER), *rows]) + "\n", encoding="utf-8")
    (tmp_path / "surface.json").write_text(json.dumps({"method": "vix", "spot": 1.0, "rate": 0.0, "points": 9}),
                                           encoding="utf-8")
    with pytest.raises(ParseError, match=f"^surface {re.escape(message)}$"):
        read_surface(out)


@_EOLS
def test_surface_read_names_the_physical_line_a_row_starts_on(tmp_path, eol):
    # the second row's quoted moneyness spans lines 3 and 4, so the bad p, the fourth record, is on line 5
    rows = [_ROW, '"1.5' + eol + '",0.25,0.5,none,4,4,0', "1.75,0.25,x,none,4,4,0"]
    out = tmp_path / "surface.csv"
    out.write_bytes((eol.join([",".join(SURFACE_HEADER), *rows]) + eol).encode())
    (tmp_path / "surface.json").write_text(json.dumps({"method": "vix", "spot": 1.0, "rate": 0.0, "points": 3}),
                                           encoding="utf-8")
    with pytest.raises(ParseError, match=r"^surface line 5: bad number 'x'$"):
        read_surface(out)


def test_write_surface_diff(tmp_path):
    diff = SurfaceDiff(base_method="realized", other_method="vix",
                       points=((1.0, 0.25, 0.125), (1.05, 0.25, -0.5)))
    out = tmp_path / "diff.csv"
    write_surface_diff(diff, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "moneyness,tau_years,dp"
    assert lines[1] == "1,0.25,0.125"
    assert len(lines) == 3


# ---------------------------------------------------- overwriting in place

_SURFACE = random_surface(np.random.default_rng(37))
_DIFF = SurfaceDiff(base_method="realized", other_method="vix",
                    points=tuple((1.0 + k / 64, 0.25, k / 128 - 0.25) for k in range(40)))
# each writer, as a call on its path, and the files it writes, by name
_WRITERS = {
    "surface": (lambda path: write_surface(_SURFACE, path), ("s.csv", "s.json")),
    "diff": (lambda path: write_surface_diff(_DIFF, path), ("d.csv",)),
}


def _fresh_bytes(tmp_path, writer):
    """What `writer` writes where no file was before, by file name."""
    write, names = _WRITERS[writer]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    write(fresh / names[0])
    return {name: (fresh / name).read_bytes() for name in names}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("old_size", [3, 100_000])
def test_writer_overwrites_exactly(tmp_path, writer, old_size):
    # a longer old file leaves no tail behind, a shorter one no gap
    write, names = _WRITERS[writer]
    expected = _fresh_bytes(tmp_path, writer)
    for name in names:
        (tmp_path / name).write_bytes(b"9" * old_size)
    write(tmp_path / names[0])
    assert {name: (tmp_path / name).read_bytes() for name in names} == expected


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writer_writes_through_a_symlink(tmp_path, writer):
    write, names = _WRITERS[writer]
    expected = _fresh_bytes(tmp_path, writer)
    (tmp_path / "target").mkdir()
    for name in names:
        (tmp_path / "target" / name).write_bytes(b"9" * 10_000)
        (tmp_path / name).symlink_to(tmp_path / "target" / name)
    write(tmp_path / names[0])
    for name in names:
        assert (tmp_path / name).is_symlink()
        assert (tmp_path / "target" / name).read_bytes() == expected[name]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_writer_creates_files_with_mode_0o666_less_the_umask(tmp_path, writer, umask):
    write, names = _WRITERS[writer]
    old = os.umask(umask)
    try:
        write(tmp_path / names[0])
    finally:
        os.umask(old)
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writer_opens_without_truncating(tmp_path, writer, monkeypatch):
    # truncating a file that has blocks costs tens of ms on ext4 mounted with discard; writers cut to length instead
    flags = []
    real_open = os.open

    def recording_open(path, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    write, names = _WRITERS[writer]
    write(tmp_path / names[0])
    assert len(flags) == len(names) and not any(flag & os.O_TRUNC for flag in flags)


class _UnreadablePoint:
    def __getattr__(self, name):
        raise RuntimeError("formatting failed")


def test_failed_write_leaves_a_prefix_and_no_stale_tail(tmp_path):
    expected = _fresh_bytes(tmp_path, "surface")["s.csv"]
    out = tmp_path / "s.csv"
    out.write_bytes(b"9" * 100_000)
    points = _SURFACE.points[:9] + (_UnreadablePoint(),) + _SURFACE.points[10:]
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_surface(SimpleNamespace(points=points), out)
    # the header and the nine rows written in full, cut there
    assert out.read_bytes() == b"".join(expected.splitlines(keepends=True)[:10])


@pytest.mark.parametrize("old", [None, b"9" * 10_000], ids=["absent", "old"])
def test_a_sidecar_that_cannot_be_opened_leaves_the_csv_as_it_was(tmp_path, old):
    (tmp_path / "s.json").mkdir()
    out = tmp_path / "s.csv"
    if old is not None:
        out.write_bytes(old)
    with pytest.raises(IsADirectoryError):
        write_surface(_SURFACE, out)
    assert (out.read_bytes() if out.exists() else None) == old


@pytest.mark.parametrize("fault", ["open", "write"])
@pytest.mark.parametrize("old", [None, b"9" * 10_000], ids=["absent", "old"])
def test_a_csv_that_cannot_be_written_leaves_the_sidecar_as_it_was(tmp_path, fault, old):
    # the sidecar is opened before the CSV, and cut to length only once written
    sidecar, out = tmp_path / "s.json", tmp_path / "s.csv"
    if old is not None:
        sidecar.write_bytes(old)
    if fault == "open":
        out.mkdir()
        with pytest.raises(IsADirectoryError):
            write_surface(_SURFACE, out)
    else:
        points = _SURFACE.points[:9] + (_UnreadablePoint(),) + _SURFACE.points[10:]
        with pytest.raises(RuntimeError, match="formatting failed"):
            write_surface(SimpleNamespace(points=points), out)
    assert (sidecar.read_bytes() if sidecar.exists() else None) == old


_FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POINTS = st.builds(
    CalibrationPoint, moneyness=_FINITE_POSITIVE, tau=_FINITE_POSITIVE, p=st.floats(-1.0, 1.0),
    clamped=st.sampled_from(ClampStatus), market_price=_FINITE_POSITIVE, model_price=_FINITE,
    residual=_FINITE,
)
_SURFACES = st.builds(
    PredictabilitySurface, method=st.text(), spot=_FINITE_POSITIVE, rate=_FINITE,
    as_of=st.none() | st.dates(), failures=st.lists(st.text(), max_size=3),
    points=st.lists(_POINTS, max_size=30, unique_by=lambda pt: (pt.moneyness, pt.tau)),
)


def _bits(surface):
    """The surface with every float as its IEEE 754 bytes, so -0.0 and 0.0 differ."""
    b = lambda x: struct.pack("<d", x)
    return (surface.method, b(surface.spot), b(surface.rate), surface.as_of, surface.failures, [
        (b(pt.moneyness), b(pt.tau), b(pt.p), pt.clamped, b(pt.market_price), b(pt.model_price),
         b(pt.residual)) for pt in surface.points])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(surface=_SURFACES, old_sizes=st.tuples(st.integers(0, 8_000), st.integers(0, 2_000)))
@example(surface=PredictabilitySurface(
    method="vix", spot=5e-324, rate=-0.0, as_of=date(1, 1, 1), failures=("",), points=(CalibrationPoint(
        moneyness=sys.float_info.max, tau=5e-324, p=-0.0, clamped=ClampStatus.AT_MINUS_ONE,
        market_price=5e-324, model_price=-0.0, residual=-5e-324),)), old_sizes=(8_000, 2_000))
def test_surface_survives_write_over_an_old_file_and_read(surface, old_sizes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "surface.csv"
        for file, size in zip((path, path.with_suffix(".json")), old_sizes):
            file.write_bytes((b"1,1,0,none,1,1,0\n" * (size // 16 + 1))[:size])
        write_surface(surface, path)
        assert _bits(read_surface(path)) == _bits(surface)


# ------------------------------------------------------------------- fuzz

def test_parsers_total_over_random_bytes():
    rng = np.random.default_rng(99)
    for _ in range(2000):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 120)), dtype=np.uint8))
        for parser in (lambda b: parse_option_chain(io.BytesIO(b), spot=100.0),
                       lambda b: parse_return_series(io.BytesIO(b))):
            try:
                parser(blob)
            except ParseError:
                pass  # structured rejection is the contract


def test_parsers_total_over_hostile_text():
    cases = [
        b"quote_date,expiry,strike,right,bid,ask\n\xff\xfe,x,y,z,1,2\n",
        b"date,log_return\n2015-01-02,1e999\n2015-01-03,0\n",
        b"date,close\n2015-01-02,nan\n2015-01-03,1\n2015-01-04,1\n",
        b"quote_date,expiry,strike,right,bid,ask\n2015-01-02,2015-03-20,1e309,call,1,2\n",
        "date,log_return\n2015-01-02,0.01\n2015-01-03,∞\n".encode(),
    ]
    for blob in cases:
        for parser in (lambda b: parse_option_chain(io.BytesIO(b), spot=100.0),
                       lambda b: parse_return_series(io.BytesIO(b))):
            try:
                parser(blob)
            except ParseError:
                pass


_FIELD = st.one_of(
    st.sampled_from(["", " ", "2015-13-01", "CALL", "1e309", "5e-324", "nan", "inf", "-inf", '"', '""',
                     "\ufeff", "\x00"]),
    st.floats().map(repr),
    st.text(max_size=6),
)
_JSON_VALUE = st.one_of(st.none(), st.booleans(), st.integers(-1, 6), st.floats(), st.text(max_size=12),
                        st.lists(st.text(max_size=4), max_size=2))
_HEADERS = [",".join(h) for h in (
    CHAIN_HEADER, ["date", "log_return"], ["date", "close"], SURFACE_HEADER,
    ["note"] + CHAIN_HEADER, SURFACE_HEADER[::-1] + ["extra"],
)]


def _valid_cell(name, row):
    if name in ("date", "quote_date"):  # ascending return dates, one chain date
        return st.just((date(2015, 1, 2) + timedelta(days=row if name == "date" else 0)).isoformat())
    return {
        "expiry": st.sampled_from(["2015-01-02", "2015-03-20", "2016-01-15"]),
        "right": st.sampled_from(["call", "put"]),
        "clamped": st.sampled_from([flag.value for flag in ClampStatus]),
        "p": st.floats(-1.0, 1.0).map(repr),
        "log_return": st.floats(-0.1, 0.1).map(repr),
    }.get(name, st.floats(0.0, 500.0).map(repr))


@st.composite
def _nearly_valid_files(draw):
    """A well-formed chain, returns or surface file and sidecar with at most one field per row spoiled."""
    header = draw(st.sampled_from(_HEADERS))
    rows = []
    for i in range(draw(st.integers(0, 5))):
        row = [draw(_valid_cell(name, i)) for name in header.split(",")]
        if draw(st.booleans()):
            j = draw(st.integers(0, len(row) - 1))
            row[j:j + 1] = draw(st.lists(_FIELD, max_size=2))  # replaced, dropped or split
        rows.append(",".join(row))
    meta = {"method": "vix", "spot": 100.0, "rate": 0.02, "as_of": "2015-01-02", "points": len(rows),
            "failures": []}
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(meta)))
        if draw(st.booleans()):
            meta[key] = draw(_JSON_VALUE)
        else:
            del meta[key]
    return "\n".join([header, *rows]).encode("utf-8", "surrogatepass"), json.dumps(meta).encode()


_FILES = st.one_of(
    _nearly_valid_files(),
    st.tuples(st.binary(max_size=120), st.one_of(st.none(), st.binary(max_size=40))),
)


_CLOSES_PAST_THE_FLOAT_RANGE = "date,close\n2015-01-02,{}\n2015-01-03,5e-324\n2015-01-04,{}\n"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(files=_FILES)
# consecutive closes whose quotient underflows to 0 or overflows to inf, where ln(b / a) is undefined
@example(files=(_CLOSES_PAST_THE_FLOAT_RANGE.format(100, 1).encode(), None))
@example(files=(_CLOSES_PAST_THE_FLOAT_RANGE.format(1, 100).encode(), None))
def test_parsers_total_on_arbitrary_files(files):
    # every reader either returns or raises a PredbsError subclass, whatever the file holds
    content, sidecar = files
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(content)
        if sidecar is not None:
            path.with_suffix(".json").write_bytes(sidecar)
        for read in (lambda: parse_option_chain(path, spot=100.0), lambda: parse_return_series(path),
                     lambda: read_surface(path)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # read_surface names unknown columns
                    read()
            except PredbsError:
                pass


# a valid row of each reader's file, and the numeric column a spoiled row holds "x" in
_VALID_ROWS = {
    "option chain": (CHAIN_HEADER, lambda i: ["2015-01-02", "2015-03-20", str(100 + i), "call", "1.0", "1.5"], "strike"),
    "return series": (["date", "log_return"], lambda i: [(date(2015, 1, 2) + timedelta(days=i)).isoformat(), "0.01"],
                      "log_return"),
    "surface": (SURFACE_HEADER, lambda i: _ROW.split(","), "p"),
}


@st.composite
def _files_with_one_spoiled_row(draw):
    """A chain, returns or surface file written row by row, and the physical line its spoiled row starts on.

    Any cell, the header's too, may be quoted around line breaks, which every reader strips from a cell, and
    blank lines may come before a row; the line count is kept here, without the csv module."""
    kind = draw(st.sampled_from(sorted(_VALID_ROWS)))
    header, valid_row, spoiled_column = _VALID_ROWS[kind]
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    n = draw(st.integers(2, 6))
    spoiled = draw(st.integers(0, n - 1))
    breaks = st.integers(0, 2)

    def cell(text):
        before, after = draw(breaks), draw(breaks)
        return (f'"{eol * before}{text}{eol * after}"' if before + after else text), before + after

    records, line = [], 1
    for i in range(-1, n):  # the header, then the rows
        blanks = draw(st.integers(0, 2)) if i >= 0 else 0
        records += [""] * blanks
        line += blanks
        if i == spoiled:
            start = line
        texts = header if i < 0 else valid_row(i)
        cells = [("x", 0) if i == spoiled and name == spoiled_column else cell(text) for name, text in zip(header, texts)]
        records.append(",".join(text for text, _ in cells))
        line += 1 + sum(n_breaks for _, n_breaks in cells)
    return kind, (eol.join(records) + eol).encode(), start


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=_files_with_one_spoiled_row())
def test_every_reader_names_the_physical_line_a_row_starts_on(case):
    kind, content, start = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(content)
        if kind == "option chain":
            assert parse_option_chain(path, spot=100.0).skipped == (f"option chain line {start}: bad number 'x'",)
        else:
            with pytest.raises(ParseError, match=f"^{kind} line {start}: bad number 'x'$"):
                (read_surface if kind == "surface" else parse_return_series)(path)
