"""CSV ingestion for daily bars, book snapshots and basket positions.

All files are RFC-4180 CSV, UTF-8, with ISO-8601 dates. Parse errors carry
line numbers; domain-invariant failures (e.g. low > high) are reported
separately from malformed syntax.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from pathlib import Path

from . import errors
from .measures import DailyBar
from .orderbook import AdvContext, BookLevel, OrderBookSnapshot
from .portfolio import BasketPosition

BAR_HEADER = ["date", "open", "high", "low", "close", "volume"]
BOOK_HEADER = ["timestamp", "side", "level", "price", "volume"]
POSITION_HEADER = ["instrument", "beta", "lix"]


def _finite_float(text: str, line: int, column: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise errors.ParseError(f"{column} is not a number: {text!r}",
                                line=line, column=column) from None
    if not math.isfinite(v):
        raise errors.ParseError(f"{column} is not finite: {text!r}",
                                line=line, column=column)
    return v


def _open_rows(path, expected_header):
    """Yield (line, fields) for each non-blank data row after the header.

    `line` is the physical line the row ends on, so quoted fields spanning
    newlines do not shift later locations.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise errors.ParseError(f"{path}: empty file, expected header "
                                    f"{','.join(expected_header)}", line=1)
        if [h.strip().lower() for h in header] != expected_header:
            raise errors.ParseError(
                f"{path}: bad header {header!r}, expected {','.join(expected_header)}",
                line=1)
        for row in reader:
            if not row or row == [""]:
                continue
            if len(row) != len(expected_header):
                raise errors.ParseError(
                    f"expected {len(expected_header)} fields, got {len(row)}",
                    line=reader.line_num)
            yield reader.line_num, row
    except csv.Error as exc:
        raise errors.ParseError(f"{path}: malformed CSV: {exc}",
                                line=reader.line_num) from None


def parse_daily_bars(path, instrument_id: str | None = None) -> list[DailyBar]:
    """Read `date,open,high,low,close,volume` rows into validated bars.

    Bars are returned in ascending date order; duplicate dates are rejected.
    """
    instrument = instrument_id or Path(path).stem
    out = []
    seen = {}
    for i, row in _open_rows(path, BAR_HEADER):
        try:
            day = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            raise errors.ParseError(f"bad ISO-8601 date: {row[0]!r}",
                                    line=i, column="date") from None
        if day in seen:
            raise errors.ParseError(
                f"duplicate date {day}, first seen at line {seen[day]}",
                line=i, column="date")
        seen[day] = i
        o, h, l, c, v = (_finite_float(row[k + 1], i, BAR_HEADER[k + 1])
                         for k in range(5))
        try:
            out.append(DailyBar(instrument_id=instrument, date=day,
                                open=o, high=h, low=l, close=c, volume=v))
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(str(exc), line=i) from None
    out.sort(key=lambda b: b.date)
    return out


def write_daily_bars(bars, path) -> None:
    """Serialize bars so that parse_daily_bars round-trips them exactly."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(BAR_HEADER)
        for b in bars:
            w.writerow([b.date.isoformat(), repr(b.open), repr(b.high),
                        repr(b.low), repr(b.close), repr(b.volume)])


def parse_book_snapshots(path) -> list[OrderBookSnapshot]:
    """Read `timestamp,side,level,price,volume` rows into snapshots.

    Rows are grouped by timestamp; within a timestamp each side's levels
    must run contiguously from 1. Level 1 is the touch price.
    """
    groups: dict[float, dict[str, dict[int, BookLevel]]] = {}
    for i, row in _open_rows(path, BOOK_HEADER):
        ts = _finite_float(row[0], i, "timestamp")
        side = row[1].strip().upper()
        if side not in ("B", "A"):
            raise errors.ParseError(f"side must be B or A, got {row[1]!r}",
                                    line=i, column="side")
        try:
            level = int(row[2])
        except ValueError:
            raise errors.ParseError(f"level is not an integer: {row[2]!r}",
                                    line=i, column="level") from None
        if level < 1:
            raise errors.ParseError(f"level must be >= 1, got {level}",
                                    line=i, column="level")
        price = _finite_float(row[3], i, "price")
        volume = _finite_float(row[4], i, "volume")
        per_side = groups.setdefault(ts, {"B": {}, "A": {}})
        if level in per_side[side]:
            raise errors.ParseError(
                f"duplicate level {level} on side {side} at t={ts}", line=i)
        try:
            per_side[side][level] = BookLevel(price=price, volume=volume)
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(str(exc), line=i) from None

    snapshots = []
    for ts in sorted(groups):
        sides = {}
        for side in ("B", "A"):
            levels = groups[ts][side]
            expected = set(range(1, len(levels) + 1))
            if set(levels) != expected:
                missing = min(expected - set(levels))
                raise errors.GapInLevels(
                    f"side {side} at t={ts}: missing level {missing}")
            sides[side] = tuple(levels[k] for k in sorted(levels))
        try:
            snapshots.append(OrderBookSnapshot(timestamp=ts, bids=sides["B"],
                                               asks=sides["A"]))
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(f"t={ts}: {exc}")
    return snapshots


def parse_basket_positions(path) -> list[BasketPosition]:
    """Read `instrument,beta,lix` rows into basket positions."""
    out = []
    for i, row in _open_rows(path, POSITION_HEADER):
        beta = _finite_float(row[1], i, "beta")
        lix_value = _finite_float(row[2], i, "lix")
        try:
            out.append(BasketPosition(instrument_id=row[0].strip(),
                                      beta=beta, lix=lix_value))
        except errors.InvalidParams as exc:
            raise errors.InvariantViolation(str(exc), line=i) from None
    return out


def compute_adv(bars, window_days: int = 20,
                session_length: float = 28800.0) -> AdvContext:
    """Mean share volume over the trailing window, skipping zero-volume days."""
    bars = list(bars)
    if not bars:
        raise errors.EmptyDataset("no bars to compute ADV from")
    if window_days < 1:
        raise errors.InvalidParams(f"window_days must be >= 1, got {window_days}")
    window = bars[-window_days:]
    nonzero = [b.volume for b in window if b.volume > 0]
    if not nonzero:
        raise errors.AllZeroVolume(
            f"all {len(window)} bars in the ADV window have zero volume")
    return AdvContext(adv=sum(nonzero) / len(nonzero), window_days=window_days,
                      session_length=session_length)
