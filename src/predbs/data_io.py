"""CSV ingestion and persistence for chains, return series and surfaces.

Parsers are total: any source either yields a validated value or raises
ParseError / DataQualityError with a line-level message, never an unrelated
exception.  A message's "line N" is the physical line its record starts on,
the header being line 1, so a quoted cell may span lines.
Dirty rows are skipped with a diagnostic (real chain downloads are dirty);
files where more than half the rows fail are rejected outright.
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
from operator import attrgetter, itemgetter
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
# '%.17g' % x is format(x, ".17g"): 17 significant digits round-trip every binary64 value; '%s' % flag is its text
_SURFACE_ROW = ",".join("%s" if col == "clamped" else "%.17g" for col in SURFACE_HEADER) + "\n"
_SURFACE_CELLS = attrgetter(*(col.replace("tau_years", "tau") for col in SURFACE_HEADER))  # a point's cells, by column
_DIFF_ROW = "%.17g,%.17g,%.17g\n"
_CLAMP_FLAGS = {s.value: s for s in ClampStatus}


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


def _read_csv(source: Source, what: str) -> tuple[list[str], list[list[str]], list[int]]:
    """Read a CSV source into its header, its non-blank rows and the physical line each of those rows starts on.

    A path is opened and closed here; a stream is read to its end and left open.  Every source is read whole as
    bytes (a text stream's str encoded as UTF-8) and decoded as UTF-8 once, so a decode fault names its offset in
    the file; the text is split where a line ends at LF, CRLF or a bare CR.  Header cells are stripped of a leading
    byte-order mark, then of whitespace.
    """
    try:
        if isinstance(source, (str, Path)):
            try:
                with open(source, "rb") as fh:
                    data = fh.read()
            except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL byte
                raise ParseError(f"cannot open {source}: {exc}") from exc
        else:
            data = source.read()  # a text stream over undecodable bytes raises here
        text = (data.encode("utf-8") if isinstance(data, str) else data).decode("utf-8")
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{what}: file is empty")
        rows, lines = [], []
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                lines.append(start)
            start = reader.line_num + 1
    except (UnicodeError, csv.Error) as exc:  # encoding a text stream's str may raise UnicodeEncodeError
        raise ParseError(f"{what}: unreadable content: {exc}") from exc
    return [h.lstrip("\ufeff").strip() for h in header], rows, lines


def _column_index(header: list[str], expected: list[str], what: str) -> tuple[dict[str, int], int]:
    """Column position of each expected name, and the row length that reaches all of them."""
    missing = [col for col in expected if col not in header]
    if missing:
        raise ParseError(f"{what}: header {header} lacks required columns {missing}")
    idx = {col: header.index(col) for col in expected}
    return idx, max(idx.values()) + 1


def _parse_date(text: str) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError as exc:
        raise ValueError(f"bad date {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"bad number {text!r}") from exc


def parse_option_chain(source: Source, spot: float) -> OptionChain:
    """Parse a chain CSV with header quote_date,expiry,strike,right,bid,ask.

    Spot is supplied by the caller: chain files carry quotes only.  Rows that
    fail validation (crossed markets, bad dates, mismatched quote_date, ...)
    are skipped with a line-numbered diagnostic; more than 50% skipped rows is
    a DataQualityError.
    """
    what = "option chain"
    header, rows, lines = _read_csv(source, what)
    idx, width = _column_index(header, CHAIN_HEADER, what)
    fields = itemgetter(*map(idx.__getitem__, CHAIN_HEADER))
    quotes: list[OptionQuote] = []
    skipped: list[str] = []
    chain_date: Optional[date] = None
    for line_no, row in zip(lines, rows):
        try:
            if len(row) < width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            qd, expiry, strike, right, bid, ask = fields(row)
            quote = OptionQuote(_parse_date(qd), _parse_date(expiry), _parse_float(strike), right.strip().lower(),
                                _parse_float(bid), _parse_float(ask))
            if chain_date is None:
                chain_date = quote.quote_date
            elif quote.quote_date != chain_date:
                raise ValueError(f"quote_date {quote.quote_date} differs from {chain_date}")
        except ValueError as exc:  # InputError is a ValueError
            skipped.append(f"{what} line {line_no}: {exc}")
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
    header, rows, lines = _read_csv(source, what)
    closes = header[:2] == ["date", "close"]
    if not closes and header[:2] != ["date", "log_return"]:
        raise ParseError(f"{what}: header must be date,log_return or date,close, got {header}")
    try:  # by column: any fault sends the parse to the walk below, which raises the first faulty line's error
        dates = list(map(date.fromisoformat, map(str.strip, map(itemgetter(0), rows))))
        values = list(map(float, map(itemgetter(1), rows)))
        if not closes:
            return ReturnSeries(dates=tuple(dates), returns=values)
        if len(values) >= 3 and dates[0] < dates[1] and min(values) > 0:  # what a series of log-ratios cannot check
            return ReturnSeries(dates=tuple(dates[1:]), returns=list(map(_log_ratio, values[1:], values)))
    except (IndexError, ValueError) as exc:  # InputError is a ValueError, as is _log_ratio's domain error
        fault = exc
    last = None
    for line_no, row in zip(lines, rows):
        try:
            if len(row) < 2:
                raise ValueError(f"expected 2 fields, got {len(row)}")
            d, v = _parse_date(row[0]), _parse_float(row[1])
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {row[1]!r}")
            if last is not None and d <= last:
                raise ValueError(f"dates not strictly ascending at {d}")
            if closes and v <= 0:
                raise ValueError(f"non-positive close {v}")
        except ValueError as exc:
            raise ParseError(f"{what} line {line_no}: {exc}") from exc
        last = d
    if closes:  # with every line sound, only the count is left to fail
        raise ParseError(f"{what}: need >= 3 closes to form >= 2 returns")
    raise ParseError(f"{what}: {fault}") from fault  # every line sound: the series itself is refused


def _meta_path(path: Union[str, Path]) -> Path:
    return Path(path).with_suffix(".json")


def _open_over(path: Union[str, Path]) -> TextIO:
    """Text output over the old bytes of `path`, which stay until written over (see _cut_to_length).

    This skips the O_TRUNC of open(path, "w"): on ext4 mounted with discard it costs 30-60 ms at any size."""
    return open(path, "w", encoding="utf-8", newline="\n",
                opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666))


@contextmanager
def _cut_to_length(fh: TextIO) -> Iterator[TextIO]:
    """fh; on exit, even a failed one, a regular file is cut to the length written."""
    try:
        yield fh
    finally:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


@contextmanager
def _overwrite(path: Union[str, Path]) -> Iterator[TextIO]:
    """Text output over the old bytes of `path`, cut to length on exit, even a failed one (see _open_over)."""
    with _open_over(path) as fh, _cut_to_length(fh):
        yield fh


def write_surface(surface: PredictabilitySurface, path: Union[str, Path]) -> None:
    """Write surface CSV plus a JSON metadata sidecar (same stem, .json), each overwritten in place
    and cut to length; like a truncating open(path, "w"), that is not atomic.  A .json path is refused,
    since the sidecar would overwrite it, and so is a path with no file name, such as "." or "/".
    The sidecar is opened first and written last: one that cannot be opened leaves the CSV as it was,
    and a CSV that cannot be opened or written leaves the sidecar as it was (or absent, where it was)."""
    if not Path(path).name:
        raise InputError(f"surface path {path} names no file")
    meta_path = _meta_path(path)
    if meta_path == Path(path):
        raise InputError(f"surface path {path} ends in .json, the metadata sidecar's own name")
    fresh = not os.path.lexists(meta_path)
    with _open_over(meta_path) as sidecar:
        try:
            with _overwrite(path) as fh:
                fh.write(",".join(SURFACE_HEADER) + "\n")
                fh.writelines(_SURFACE_ROW % cells for cells in map(_SURFACE_CELLS, surface.points))
        except BaseException:
            if fresh:
                os.unlink(meta_path)
            raise
        meta = {"method": surface.method, "spot": surface.spot, "rate": surface.rate,
                "as_of": surface.as_of.isoformat() if surface.as_of else None,
                "points": len(surface.points), "failures": list(surface.failures)}
        with _cut_to_length(sidecar):
            json.dump(meta, sidecar, indent=2, sort_keys=True)
            sidecar.write("\n")


def read_surface(path: Union[str, Path]) -> PredictabilitySurface:
    """Read back a surface written by write_surface; unknown extra columns are ignored."""
    what = "surface"
    header, rows, lines = _read_csv(path, what)
    idx, width = _column_index(header, SURFACE_HEADER, what)
    extra = [col for col in header if col not in SURFACE_HEADER]
    if extra:
        warnings.warn(f"{what} {path}: ignoring unknown columns {extra}", stacklevel=2)
    def column(col: str) -> Iterator:
        cells = map(itemgetter(idx[col]), rows)
        return map(_CLAMP_FLAGS.__getitem__, map(str.strip, cells)) if col == "clamped" else map(float, cells)
    try:  # by column: any fault sends the parse to the walk below, which raises the first faulty line's error
        points = list(map(CalibrationPoint, *map(column, SURFACE_HEADER)))
    except (IndexError, KeyError, ValueError):  # InputError is a ValueError
        points = []
    if not points:  # a fault, or no rows: the walk reads every line
        for line_no, row in zip(lines, rows):
            try:
                if len(row) < width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                if (flag := row[idx["clamped"]].strip()) not in _CLAMP_FLAGS:
                    raise ValueError(f"unknown clamp flag {flag!r}")
                cells = [_CLAMP_FLAGS[flag] if c == "clamped" else _parse_float(row[idx[c]]) for c in SURFACE_HEADER]
                points.append(CalibrationPoint(*cells))
            except ValueError as exc:  # InputError is a ValueError
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
    if type(meta["points"]) is not int or meta["points"] != len(points):  # a JSON integer: true and 1.0 are not
        raise ParseError(f"{what}: metadata sidecar says {meta['points']!r} points, file has {len(points)} rows")
    method, spot, rate = meta["method"], meta["spot"], meta["rate"]
    as_of, failures = meta.get("as_of"), meta.get("failures", [])
    try:
        if not (isinstance(method, str) and {type(spot), type(rate)} <= {int, float}  # JSON numbers: not true or "100"
                and isinstance(failures, list) and all(isinstance(f, str) for f in failures)):
            raise TypeError(f"method must be a string, spot and rate numbers and failures a list of strings, "
                            f"got {method!r}, {spot!r}, {rate!r} and {failures!r}")
        return PredictabilitySurface(
            method=method, spot=float(spot), rate=float(rate),
            as_of=None if as_of is None else date.fromisoformat(as_of), points=tuple(points), failures=failures,
        )
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: invalid content: {exc}") from exc


def write_surface_diff(diff: SurfaceDiff, path: Union[str, Path]) -> None:
    with _overwrite(path) as fh:
        fh.write(",".join(DIFF_HEADER) + "\n")
        fh.writelines(_DIFF_ROW % (m, t, dp) for m, t, dp in diff.points)
