"""CSV ingestion and persistence for chains, return series and surfaces.

Parsers are total: any byte stream either yields a validated value or raises
ParseError / DataQualityError with a line-level message, never an unrelated
exception.  Dirty rows are skipped with a diagnostic (real chain downloads
are dirty); files where more than half the rows fail are rejected outright.
Floats are serialized with 17 significant digits, by the row formats
_SURFACE_ROW and _DIFF_ROW, so write-then-read is the identity on binary64
values.  Outputs are overwritten in place and cut to length; like the
truncating open(path, "w") this replaces, that is not atomic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from operator import attrgetter, itemgetter, lt
from pathlib import Path
from typing import Iterator, Optional, TextIO, Union

from .calibration import CalibrationPoint, ClampStatus, PredictabilitySurface, SurfaceDiff
from .errors import DataQualityError, InputError, ParseError
from .pricing import _log_ratio
from .volatility import ReturnSeries

__all__ = [
    "OptionQuote",
    "OptionChain",
    "parse_option_chain",
    "parse_return_series",
    "write_surface",
    "read_surface",
    "write_surface_diff",
]

Source = Union[str, Path, TextIO, io.IOBase]

CHAIN_HEADER = ["quote_date", "expiry", "strike", "right", "bid", "ask"]
SURFACE_HEADER = ["moneyness", "tau_years", "p", "clamped", "market_price", "model_price", "residual"]
DIFF_HEADER = ["moneyness", "tau_years", "dp"]
# '%.17g' % x is format(x, ".17g"): 17 significant digits round-trip every binary64 value
_SURFACE_ROW = "%.17g,%.17g,%.17g,%s,%.17g,%.17g,%.17g\n"
_SURFACE_CELLS = attrgetter("moneyness", "tau", "p", "clamped", "market_price", "model_price", "residual")
_DIFF_ROW = "%.17g,%.17g,%.17g\n"
_CLAMP_FLAGS = {s.value: s for s in ClampStatus}
_CLAMP_TEXT = {s: s.value for s in ClampStatus}  # a dict lookup, not enum's Python-level .value, per row


@dataclass(frozen=True)
class OptionQuote:
    quote_date: date
    expiry_date: date
    strike: float
    right: str  # "call" | "put"
    bid: float
    ask: float

    def __post_init__(self):
        if self.right not in ("call", "put"):
            raise InputError(f"right must be call or put, got {self.right!r}")
        if not (math.isfinite(self.strike) and self.strike > 0):
            raise InputError(f"strike must be > 0, got {self.strike}")
        if not (math.isfinite(self.bid) and math.isfinite(self.ask)):
            raise InputError("bid and ask must be finite")
        if self.bid < 0:
            raise InputError(f"bid must be >= 0, got {self.bid}")
        if self.ask < self.bid:
            raise InputError(f"ask {self.ask} below bid {self.bid}")
        if self.expiry_date < self.quote_date:
            raise InputError(f"expiry {self.expiry_date} before quote date {self.quote_date}")

    @property
    def mid(self) -> float:
        return (self.bid + self.ask) / 2.0


@dataclass(frozen=True)
class OptionChain:
    quote_date: date
    spot: float
    quotes: tuple[OptionQuote, ...]
    skipped: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "quotes", tuple(self.quotes))
        object.__setattr__(self, "skipped", tuple(self.skipped))
        if not (math.isfinite(self.spot) and self.spot > 0):
            raise InputError(f"spot must be > 0, got {self.spot}")
        for q in self.quotes:
            if q.quote_date != self.quote_date:
                raise InputError("all quotes must share the chain quote_date")

    def __len__(self) -> int:
        return len(self.quotes)


def _read_csv(source: Source, what: str) -> tuple[list[str], list[list[str]]]:
    """Read a CSV source into its header and its rows as the reader gives them: row i, [] if blank, is line i + 2.

    Paths are opened and closed here; byte streams are decoded as UTF-8 and,
    like text streams, left open.  Header cells are stripped of whitespace
    and a leading byte-order mark.
    """
    should_close = isinstance(source, (str, Path))
    if should_close:
        try:
            fh = open(source, "r", encoding="utf-8", newline="")
        except OSError as exc:
            raise ParseError(f"cannot open {source}: {exc}") from exc
    elif isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        fh = io.TextIOWrapper(source, encoding="utf-8", newline="")
    else:
        fh = source
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{what}: file is empty")
        rows = list(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{what}: unreadable content: {exc}") from exc
    finally:
        if should_close:
            fh.close()
        elif fh is not source:
            fh.detach()  # a dropped wrapper would close the caller's byte stream
    return [h.strip().lstrip("\ufeff") for h in header], rows


def _column_index(header: list[str], expected: list[str], what: str) -> tuple[dict[str, int], int]:
    """Column position of each expected name, and the row length that reaches all of them."""
    missing = [col for col in expected if col not in header]
    if missing:
        raise ParseError(f"{what}: header {header} lacks required columns {missing}")
    idx = {col: header.index(col) for col in expected}
    return idx, max(idx.values()) + 1


def _parse_date(text: str, what: str, line_no: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ParseError(f"{what} line {line_no}: bad date {text!r}") from exc


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"{what} line {line_no}: bad number {text!r}") from exc


def parse_option_chain(source: Source, spot: float) -> OptionChain:
    """Parse a chain CSV with header quote_date,expiry,strike,right,bid,ask.

    Spot is supplied by the caller: chain files carry quotes only.  Rows that
    fail validation (crossed markets, bad dates, mismatched quote_date, ...)
    are skipped with a line-numbered diagnostic; more than 50% skipped rows is
    a DataQualityError.
    """
    what = "option chain"
    header, rows = _read_csv(source, what)
    rows = list(filter(itemgetter(1), enumerate(rows, start=2)))  # the non-blank rows, numbered by line
    idx, width = _column_index(header, CHAIN_HEADER, what)
    fields = itemgetter(*map(idx.__getitem__, CHAIN_HEADER))
    quotes: list[OptionQuote] = []
    skipped: list[str] = []
    chain_date: Optional[date] = None
    for line_no, row in rows:
        try:
            if len(row) < width:
                raise ParseError(f"{what} line {line_no}: expected {width} fields, got {len(row)}")
            qd_text, expiry_text, strike_text, right_text, bid_text, ask_text = fields(row)
            try:
                qd, expiry = date.fromisoformat(qd_text.strip()), date.fromisoformat(expiry_text.strip())
                strike, bid, ask = float(strike_text), float(bid_text), float(ask_text)
            except ValueError:  # again through the wrappers, which name the first bad field
                qd, expiry = _parse_date(qd_text, what, line_no), _parse_date(expiry_text, what, line_no)
                strike, bid, ask = (_parse_float(strike_text, what, line_no), _parse_float(bid_text, what, line_no),
                                    _parse_float(ask_text, what, line_no))
            quote = OptionQuote(qd, expiry, strike, right_text.strip().lower(), bid, ask)
            if chain_date is None:
                chain_date = quote.quote_date
            elif quote.quote_date != chain_date:
                raise ParseError(
                    f"{what} line {line_no}: quote_date {quote.quote_date} differs from {chain_date}"
                )
        except (ParseError, InputError) as exc:
            skipped.append(str(exc) if str(exc).startswith(what) else f"{what} line {line_no}: {exc}")
            continue
        quotes.append(quote)
    if not rows:
        raise ParseError(f"{what}: no data rows")
    if len(skipped) * 2 > len(rows):
        raise DataQualityError(
            f"{what}: {len(skipped)} of {len(rows)} rows rejected; first: {skipped[0]}"
        )
    try:
        return OptionChain(quote_date=chain_date, spot=spot, quotes=tuple(quotes), skipped=tuple(skipped))
    except InputError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def parse_return_series(source: Source) -> ReturnSeries:
    """Parse a returns CSV: header date,log_return, or date,close (auto log-differenced)."""
    what = "return series"
    header, rows = _read_csv(source, what)
    if header[:2] == ["date", "log_return"]:
        mode = "returns"
    elif header[:2] == ["date", "close"]:
        mode = "closes"
    else:
        raise ParseError(f"{what}: header must be date,log_return or date,close, got {header}")
    try:  # by column: any fault sends the parse to the walk below, which raises the first faulty row's error
        dates = list(map(date.fromisoformat, map(str.strip, map(itemgetter(0), filter(None, rows)))))
        values = list(map(float, map(itemgetter(1), filter(None, rows))))
    except (IndexError, ValueError):
        values = None
    if not (values is not None and all(map(math.isfinite, values)) and all(map(lt, dates, dates[1:]))
            and (mode == "returns" or not values or min(values) > 0)):
        last = None
        for line_no, row in filter(itemgetter(1), enumerate(rows, start=2)):
            if len(row) < 2:
                raise ParseError(f"{what} line {line_no}: expected 2 fields, got {len(row)}")
            d, v = _parse_date(row[0], what, line_no), _parse_float(row[1], what, line_no)
            if not math.isfinite(v):
                raise ParseError(f"{what} line {line_no}: non-finite value {row[1]!r}")
            if last is not None and d <= last:
                raise ParseError(f"{what} line {line_no}: dates not strictly ascending at {d}")
            if mode == "closes" and v <= 0:
                raise ParseError(f"{what} line {line_no}: non-positive close {v}")
            last = d
    if mode == "closes":
        if len(values) < 3:
            raise ParseError(f"{what}: need >= 3 closes to form >= 2 returns")
        dates, values = dates[1:], list(map(_log_ratio, values[1:], values))
    try:
        return ReturnSeries(dates=tuple(dates), returns=values)
    except InputError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _meta_path(path: Union[str, Path]) -> Path:
    return Path(path).with_suffix(".json")


@contextmanager
def _overwrite(path: Union[str, Path]) -> Iterator[TextIO]:
    """Text output over the old bytes of `path`; on exit, even a failed one, a regular file is cut to length.

    This skips the O_TRUNC of open(path, "w"): on ext4 mounted with discard it costs 30-60 ms at any size."""
    with open(path, "w", encoding="utf-8", newline="\n",
              opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def write_surface(surface: PredictabilitySurface, path: Union[str, Path]) -> None:
    """Write surface CSV plus a JSON metadata sidecar (same stem, .json), each overwritten in place
    and cut to length; like a truncating open(path, "w"), that is not atomic.  A .json path is refused:
    the sidecar would overwrite it."""
    if _meta_path(path) == Path(path):
        raise InputError(f"surface path {path} ends in .json, the metadata sidecar's own name")
    with _overwrite(path) as fh:
        fh.write(",".join(SURFACE_HEADER) + "\n")
        fh.writelines(_SURFACE_ROW % (m, t, p, _CLAMP_TEXT[flag], price, model, residual)
                      for m, t, p, flag, price, model, residual in map(_SURFACE_CELLS, surface.points))
    meta = {"method": surface.method, "spot": surface.spot, "rate": surface.rate,
            "as_of": surface.as_of.isoformat() if surface.as_of else None,
            "points": len(surface.points), "failures": list(surface.failures)}
    with _overwrite(_meta_path(path)) as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_surface(path: Union[str, Path]) -> PredictabilitySurface:
    """Read back a surface written by write_surface; unknown extra columns are ignored."""
    what = "surface"
    header, rows = _read_csv(path, what)
    idx, width = _column_index(header, SURFACE_HEADER, what)
    extra = [col for col in header if col not in SURFACE_HEADER]
    if extra:
        warnings.warn(f"{what} {path}: ignoring unknown columns {extra}", stacklevel=2)
    data = list(filter(None, rows))
    column = lambda col: map(itemgetter(idx[col]), data)
    floats = lambda col: map(float, column(col))
    try:  # by column: any fault sends the parse to the walk below, which raises the first faulty line's error
        points = list(map(CalibrationPoint, floats("moneyness"), floats("tau_years"), floats("p"),
                          map(_CLAMP_FLAGS.__getitem__, map(str.strip, column("clamped"))),
                          floats("market_price"), floats("model_price"), floats("residual")))
    except (IndexError, KeyError, ValueError):  # InputError is a ValueError
        points = None
    if points is None:
        points = []
        for line_no, row in filter(itemgetter(1), enumerate(rows, start=2)):
            if len(row) < width:
                raise ParseError(f"{what} line {line_no}: expected {width} fields, got {len(row)}")
            flag_text = row[idx["clamped"]].strip()
            try:
                flag = ClampStatus(flag_text)
            except ValueError as exc:
                raise ParseError(f"{what} line {line_no}: unknown clamp flag {flag_text!r}") from exc
            try:
                points.append(CalibrationPoint(
                    moneyness=_parse_float(row[idx["moneyness"]], what, line_no),
                    tau=_parse_float(row[idx["tau_years"]], what, line_no),
                    p=_parse_float(row[idx["p"]], what, line_no),
                    clamped=flag,
                    market_price=_parse_float(row[idx["market_price"]], what, line_no),
                    model_price=_parse_float(row[idx["model_price"]], what, line_no),
                    residual=_parse_float(row[idx["residual"]], what, line_no),
                ))
            except InputError as exc:
                raise ParseError(f"{what} line {line_no}: {exc}") from exc

    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ParseError(f"{what}: metadata sidecar {meta_file} not found")
    try:
        with open(meta_file, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"{what}: bad metadata sidecar: {exc}") from exc
    if not isinstance(meta, dict):
        raise ParseError(f"{what}: metadata sidecar is not a JSON object")
    for key in ("method", "spot", "rate", "points"):
        if key not in meta:
            raise ParseError(f"{what}: metadata lacks {key!r}")
    if meta["points"] != len(points):
        raise ParseError(f"{what}: metadata sidecar says {meta['points']!r} points, file has {len(points)} rows")
    try:
        as_of = date.fromisoformat(meta["as_of"]) if meta.get("as_of") else None
        return PredictabilitySurface(
            method=str(meta["method"]), spot=float(meta["spot"]), rate=float(meta["rate"]),
            as_of=as_of, points=tuple(points), failures=tuple(meta.get("failures", ())),
        )
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: invalid content: {exc}") from exc


def write_surface_diff(diff: SurfaceDiff, path: Union[str, Path]) -> None:
    with _overwrite(path) as fh:
        fh.write(",".join(DIFF_HEADER) + "\n")
        fh.writelines(_DIFF_ROW % (m, t, dp) for m, t, dp in diff.points)
