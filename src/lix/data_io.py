"""CSV ingestion for daily bars, book snapshots and basket positions.

All files are RFC-4180 CSV, UTF-8, with ISO-8601 dates. Parse errors carry
line numbers; domain-invariant failures (e.g. low > high) are reported
separately from malformed syntax. When a file has several faults, the first
in file order is reported.

Bar and snapshot files are read column-wise: `read_bars` and `read_books`
convert each column at once with Python's own `float`, `int` and
`date.fromisoformat`, check the rows with the records' vectorised
`rejects` masks, and return `Bars` and `Books` arrays. Only a faulty row
is looked at again on its own, to name its first fault. `parse_daily_bars` and `parse_book_snapshots` return the
same data as DailyBar and OrderBookSnapshot records.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from pathlib import Path

import numpy as np

from . import errors
from .measures import Bars, DailyBar
from .orderbook import AdvContext, BookLevel, Books, OrderBookSnapshot
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


def _date(text: str, line: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError:
        raise errors.ParseError(f"bad ISO-8601 date: {text!r}",
                                line=line, column="date") from None


def _side(text: str, line: int) -> str:
    side = text.strip().upper()
    if side not in ("B", "A"):
        raise errors.ParseError(f"side must be B or A, got {text!r}",
                                line=line, column="side")
    return side


def _level(text: str, line: int) -> int:
    try:
        level = int(text)
    except ValueError:
        raise errors.ParseError(f"level is not an integer: {text!r}",
                                line=line, column="level") from None
    if level < 1:
        raise errors.ParseError(f"level must be >= 1, got {level}",
                                line=line, column="level")
    return level


def _read_rows(path, expected_header):
    """(lines, rows, fault): every non-blank data row after the header.

    `lines[i]` is the physical line row i ends on, so quoted fields
    spanning newlines do not shift later locations. A row with the wrong
    number of fields, or malformed CSV, ends the read: `fault` is its
    ParseError (else None), for the caller to raise once it has found no
    fault in the rows before it.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    lines, rows, fault = [], [], None
    width = len(expected_header)
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
            if len(row) != width:
                if not row or row == [""]:
                    continue
                fault = errors.ParseError(f"expected {width} fields, got {len(row)}",
                                          line=reader.line_num)
                break
            lines.append(reader.line_num)
            rows.append(row)
    except csv.Error as exc:
        fault = errors.ParseError(f"{path}: malformed CSV: {exc}", line=reader.line_num)
    return lines, rows, fault


def _convert(texts, convert):
    """(values, bad): convert(text) of each text up to the first that raises
    ValueError, and that text's index (len(texts) if none raises)."""
    try:
        return list(map(convert, texts)), len(texts)
    except ValueError:
        values = []
        for text in texts:
            try:
                values.append(convert(text))
            except ValueError:
                break
        return values, len(values)


def _finite_rows(columns, stop):
    """(block, stop): the converted float columns as a float64 array of
    shape (len(columns), stop), cut before the first row holding a value
    that is not finite, and the number of rows kept."""
    block = np.array([col[:stop] for col in columns], dtype=float)
    finite = np.isfinite(block).all(axis=0)
    if not finite.all():
        stop = int(finite.argmin())
    return block[:, :stop], stop


def _first_repeat(keys) -> int:
    """Index of the first key equal to an earlier one, or len(keys)."""
    if len(set(keys)) == len(keys):
        return len(keys)
    seen = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)


def _columns(rows, width):
    return list(zip(*rows)) if rows else [()] * width


def read_bars(path, instrument_id: str | None = None) -> Bars:
    """Read `date,open,high,low,close,volume` rows into Bars.

    Bars are in ascending date order; duplicate dates are rejected, and each
    row must hold a valid DailyBar.
    """
    instrument = instrument_id or Path(path).stem
    lines, rows, fault = _read_rows(path, BAR_HEADER)
    texts = _columns(rows, len(BAR_HEADER))
    days, stop = _convert(list(map(str.strip, texts[0])), datetime.date.fromisoformat)
    stop = _first_repeat(days[:stop])
    numbers = []
    for col in texts[1:]:
        values, bad = _convert(col, float)
        numbers.append(values)
        stop = min(stop, bad)
    block, stop = _finite_rows(numbers, stop)
    o, h, l, c, v = block
    broken = DailyBar.rejects(o, h, l, c, v)
    if broken.any():  # the first broken bar's constructor names the fault
        i = int(broken.argmax())
        try:
            DailyBar(instrument, days[i], o[i].item(), h[i].item(), l[i].item(),
                     c[i].item(), v[i].item())
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(str(exc), line=lines[i]) from None
    if stop < len(rows):
        _raise_bar_row(rows[stop], lines[stop], days[:stop], lines)
    if fault is not None:
        raise fault
    order = sorted(range(len(days)), key=days.__getitem__)
    return Bars(instrument, tuple(days[i] for i in order), *block[:, order])


def _raise_bar_row(row, line, earlier_days, lines):
    # Raise the first fault of a bar row the column pass found faulty.
    day = _date(row[0], line)
    if day in earlier_days:
        first = lines[earlier_days.index(day)]
        raise errors.ParseError(f"duplicate date {day}, first seen at line {first}",
                                line=line, column="date")
    for k in range(1, len(BAR_HEADER)):
        _finite_float(row[k], line, BAR_HEADER[k])


def parse_daily_bars(path, instrument_id: str | None = None) -> list[DailyBar]:
    """Read `date,open,high,low,close,volume` rows into validated bars.

    Bars are returned in ascending date order; duplicate dates are rejected.
    """
    return list(read_bars(path, instrument_id))


def write_daily_bars(bars, path) -> None:
    """Serialize bars so that parse_daily_bars round-trips them exactly."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(BAR_HEADER)
        for b in bars:
            w.writerow([b.date.isoformat(), repr(b.open), repr(b.high),
                        repr(b.low), repr(b.close), repr(b.volume)])


def read_books(path) -> Books:
    """Read `timestamp,side,level,price,volume` rows into Books.

    Rows are grouped by timestamp; within a timestamp each side's levels
    must run contiguously from 1, each level must be a valid BookLevel and
    each book a valid OrderBookSnapshot. Level 1 is the touch price.
    """
    lines, rows, fault = _read_rows(path, BOOK_HEADER)
    texts = _columns(rows, len(BOOK_HEADER))
    ts, stop = _convert(texts[0], float)
    sides = list(map(str.upper, map(str.strip, texts[1])))
    if not {"B", "A"}.issuperset(sides):
        stop = min(stop, next(i for i, x in enumerate(sides) if x not in ("B", "A")))
    levels, bad = _convert(texts[2], int)
    stop = min(stop, bad)
    if levels and min(levels) < 1:
        stop = min(stop, next(i for i, x in enumerate(levels) if x < 1))
    price, bad = _convert(texts[3], float)
    stop = min(stop, bad)
    volume, bad = _convert(texts[4], float)
    stop = min(stop, bad)
    (ts, price, volume), stop = _finite_rows([ts, price, volume], stop)
    stamps = ts.tolist()
    repeat = _first_repeat(list(zip(stamps, sides, levels[:stop])))
    broken = BookLevel.rejects(price, volume)
    if broken.any() and broken.argmax() < repeat:  # its constructor names the fault
        i = int(broken.argmax())
        try:
            BookLevel(price[i].item(), volume[i].item())
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(str(exc), line=lines[i]) from None
    if repeat < stop:
        raise errors.ParseError(f"duplicate level {levels[repeat]} on side "
                                f"{sides[repeat]} at t={stamps[repeat]}",
                                line=lines[repeat])
    if stop < len(rows):
        _raise_book_row(rows[stop], lines[stop])
    if fault is not None:
        raise fault
    return _assemble_books(ts, stamps, sides, levels, price, volume)


def _raise_book_row(row, line):
    # Raise the first fault of a snapshot row the column pass found faulty.
    _finite_float(row[0], line, "timestamp")
    _side(row[1], line)
    _level(row[2], line)
    _finite_float(row[3], line, "price")
    _finite_float(row[4], line, "volume")


def _assemble_books(ts, stamps, sides, levels, price, volume) -> Books:
    # Group the checked rows into books sorted by timestamp, then check each
    # book as a whole. Equal timestamps (0.0 and -0.0 too) form one book,
    # named by its first row's spelling.
    n = len(ts)
    first_row = {}
    first = np.fromiter(map(first_row.setdefault, stamps, range(n)),
                        dtype=np.intp, count=n)
    heads = (first == np.arange(n)).nonzero()[0]
    order = np.argsort(ts[heads], kind="stable")
    n_books = len(heads)
    book_of_head = np.empty(n, dtype=np.intp)
    book_of_head[heads[order]] = np.arange(n_books)
    book = book_of_head[first]
    ask = np.fromiter(map("A".__eq__, sides), dtype=bool, count=n)
    key = 2 * book + ask  # (book, side), bids first
    counts = np.bincount(key, minlength=2 * n_books)
    # A side's distinct levels run 1..count exactly when none exceeds count.
    level = np.array([min(x, n + 1) for x in levels] if levels and max(levels) > n
                     else levels, dtype=np.intp)
    in_place = level <= counts[key]
    gap_key = int(key[~in_place].min()) if not in_place.all() else 2 * n_books

    depth = int(counts.max(initial=1))
    cells = (key * depth + level - 1)[in_place]
    arrays = []
    for values in (price, volume):
        flat = np.zeros(2 * n_books * depth)
        flat[cells] = values[in_place]
        arrays.append(flat.reshape(n_books, 2, depth))
    books = Books(ts[heads[order]], *arrays)

    # Books before the first gap are whole; the first broken one's
    # constructor names the fault.
    broken = OrderBookSnapshot.rejects(*arrays)
    if broken.any() and broken.argmax() < gap_key // 2:
        i = int(broken.argmax())
        try:
            books[i]
        except errors.InvariantViolation as exc:
            raise errors.InvariantViolation(f"t={books.timestamps[i].item()}: {exc}")
    if gap_key < 2 * n_books:
        present = {levels[j] for j in (key == gap_key).nonzero()[0].tolist()}
        missing = min(set(range(1, int(counts[gap_key]) + 1)) - present)
        raise errors.GapInLevels(f"side {'BA'[gap_key % 2]} at "
                                 f"t={books.timestamps[gap_key // 2].item()}: "
                                 f"missing level {missing}")
    return books


def parse_book_snapshots(path) -> list[OrderBookSnapshot]:
    """Read `timestamp,side,level,price,volume` rows into snapshots.

    Rows are grouped by timestamp; within a timestamp each side's levels
    must run contiguously from 1. Level 1 is the touch price.
    """
    return list(read_books(path))


def parse_basket_positions(path) -> list[BasketPosition]:
    """Read `instrument,beta,lix` rows into basket positions."""
    lines, rows, fault = _read_rows(path, POSITION_HEADER)
    out = []
    for i, row in zip(lines, rows):
        beta = _finite_float(row[1], i, "beta")
        lix_value = _finite_float(row[2], i, "lix")
        try:
            out.append(BasketPosition(instrument_id=row[0].strip(),
                                      beta=beta, lix=lix_value))
        except errors.InvalidParams as exc:
            raise errors.InvariantViolation(str(exc), line=i) from None
    if fault is not None:
        raise fault
    return out


def compute_adv(bars, window_days: int = 20,
                session_length: float = 28800.0) -> AdvContext:
    """Mean share volume over the trailing window, skipping zero-volume days.

    `bars` is a sequence of DailyBar, or Bars.
    """
    if not len(bars):
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
