"""CSV ingestion for daily bars, book snapshots and basket positions.

All files are RFC-4180 CSV, UTF-8, with ISO-8601 dates. Parse errors carry
line numbers; domain-invariant failures (e.g. low > high) are reported
separately from malformed syntax. When a file has several faults, the first
in file order is reported. A quoted field still open at the end of the file
is malformed.

Every kind of file is read by one function, `_read(path, header, bulk,
check_row)`, in two steps. First the whole file is checked in bulk: one
`csv` pass appends each row's fields to one flat list, numbering no lines
and keeping no row, so a clean file leaves no per-row container behind (and
no work for the cyclic garbage collector). The kind's `bulk` step takes
each column as a strided slice of that list (`fields[k::width]`), converts
it at once with Python's own `float` (straight into a float64 array), `int`
and `date.fromisoformat`, orders and groups keys with `np.unique` (bar
dates by ordinal, book rows by timestamp) and checks them for repeats, and
puts the rows through the records' checks (the vectorised `rejects` masks
of DailyBar, BookLevel and BasketPosition). A clean file becomes `Bars`,
`Books` or `Positions`; a book file whose rows pass has its first
whole-book fault (a gap, a crossed book) raised there.

A file that is not clean, or fails its bulk step, is scanned once for a
quoted field left open at its end, then read again with line numbers and
walked in file order: the kind's `check_row(row, line, seen)` runs its
scalar field checks, its duplicate check (on `seen`, shared by all rows)
and its record's constructor on each row as it reads it, and the walk stops
at the first fault: a field check's ParseError with its line, a record's own
fault as InvariantViolation with the line, or a structural one (a row of the
wrong width, malformed CSV). A walk that finds none (the file only had blank
rows, say) hands its flat fields back to `bulk`.
Indexing or iterating `Bars`, `Books` or `Positions` builds their records.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np

from . import errors
from .measures import Bars, DailyBar
from .orderbook import AdvContext, BookLevel, Books, OrderBookSnapshot
from .portfolio import BasketPosition, Positions

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


# The fields of CSV text (excel dialect, not strict) as far as each quoted
# field is closed: a match that stops short of the end stops at a quoted
# field still open at the end of the text.
_CLOSED_FIELDS = re.compile(r'(?:"(?:[^"]|"")*"|[^",\r\n][^,\r\n]*|[,\r\n])*')


def _check_header(reader, path, expected_header):
    header = next(reader, None)
    if header is None:
        raise errors.ParseError(f"{path}: empty file, expected header "
                                f"{','.join(expected_header)}", line=1)
    if [h.strip().lower() for h in header] != expected_header:
        raise errors.ParseError(
            f"{path}: bad header {header!r}, expected {','.join(expected_header)}",
            line=1)


def _read_rows(path, expected_header):
    """(text, fields): the file's text and its data rows' fields after the
    header, row after row in one flat list.

    A clean file is read in one `csv` pass that keeps no line numbers and
    no rows: each row's fields are appended to the list as it is read.
    `fields` is None when the file is not clean: a row is blank or has the
    wrong number of fields, or the CSV is malformed, a quoted field left
    open at the end of the file included. Only then are lines numbered:
    `_read` then reads the text again with `_numbered_rows`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise errors.ParseError(f"{path}: not valid UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    width = len(expected_header)
    fields = []
    try:
        _check_header(reader, path, expected_header)
        for row in reader:
            if len(row) != width:
                return text, None
            fields += row
    except csv.Error:
        return text, None
    return text, fields


def _numbered_rows(path, text, expected_header):
    """Each non-blank data row after the header as (line, row). `line` is
    the physical line the row ends on, so quoted fields spanning newlines do
    not shift later locations. A row of the wrong width, malformed CSV, or a
    quoted field still open at the end of the file (in place of the record
    it opens) raises its ParseError where the read reaches it.
    """
    path = Path(path)
    open_at_end = _CLOSED_FIELDS.match(text).end() < len(text)
    last = len(io.StringIO(text, newline="").readlines()) if open_at_end else None
    reader = csv.reader(io.StringIO(text, newline=""))
    width = len(expected_header)
    try:
        _check_header(reader, path, expected_header)
        for row in reader:
            if len(row) != width:
                if not row or row == [""]:
                    continue
                raise errors.ParseError(f"expected {width} fields, got {len(row)}",
                                        line=reader.line_num)
            if reader.line_num == last:  # the open record
                break
            yield reader.line_num, row
    except csv.Error as exc:
        raise errors.ParseError(f"{path}: malformed CSV: {exc}", line=reader.line_num) from None
    if open_at_end:
        raise errors.ParseError(f"{path}: malformed CSV: quoted field not closed "
                                f"at end of file", line=last)


def _read(path, header, bulk, check_row):
    """What `bulk` makes of the file's flat fields; else the first fault in
    file order, with its line.

    `bulk(fields)` orders and groups keyed rows (bar dates, book
    timestamps) with `np.unique`. It returns None when the fields fail its
    check; once they pass, it may raise a whole-book fault.
    `check_row(row, line, seen)` raises the row's first fault.
    """
    text, fields = _read_rows(path, header)
    result = None if fields is None else bulk(fields)
    if result is not None:
        return result
    seen, fields = {}, []
    for line, row in _numbered_rows(path, text, header):
        try:
            check_row(row, line, seen)
        except (errors.InvariantViolation, errors.InvalidParams) as exc:
            raise errors.InvariantViolation(str(exc), line=line) from None
        fields += row
    return bulk(fields)


def _columns(fields, width):
    return [fields[k::width] for k in range(width)]


def _floats(texts, count):
    # Python's float() of each of `count` texts, straight into a float64 array.
    return np.fromiter(map(float, texts), dtype=float, count=count)


def read_bars(path, instrument_id: str | None = None) -> Bars:
    """Read `date,open,high,low,close,volume` rows into Bars.

    Bars are in ascending date order; duplicate dates are rejected, and each
    row must hold a valid DailyBar.
    """
    instrument = instrument_id or Path(path).stem
    return _read(path, BAR_HEADER, functools.partial(_bars, instrument),
                 functools.partial(_check_bar_row, instrument))


def _bars(instrument, fields):
    # The rows as Bars in date order, or None when they fail the bulk check.
    texts = _columns(fields, len(BAR_HEADER))
    n = len(texts[0])
    try:
        days = list(map(datetime.date.fromisoformat, map(str.strip, texts[0])))
        block = _floats(itertools.chain.from_iterable(texts[1:]), 5 * n).reshape(5, n)
    except ValueError:
        return None
    ordinals = np.fromiter(map(datetime.date.toordinal, days), dtype=np.int64, count=n)
    order = np.unique(ordinals, return_index=True)[1]
    if len(order) < n or DailyBar.rejects(*block).any():
        return None
    return Bars(instrument, tuple(map(days.__getitem__, order.tolist())), *block[:, order])


def _check_bar_row(instrument, row, line, seen):
    day = _date(row[0], line)
    if day in seen:
        raise errors.ParseError(f"duplicate date {day}, first seen at line {seen[day]}",
                                line=line, column="date")
    seen[day] = line
    DailyBar(instrument, day,
             *(_finite_float(row[k], line, BAR_HEADER[k]) for k in range(1, 6)))


def write_daily_bars(bars, path) -> None:
    """Serialize bars so that read_bars round-trips them exactly."""
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
    return _read(path, BOOK_HEADER, _books, _check_book_row)


def _books(fields):
    # The rows as Books sorted by timestamp, or None when they fail the bulk
    # check; once they pass, the first book that is not whole raises its
    # fault. Equal timestamps (0.0 and -0.0 too) form one book, named by its
    # first row's spelling: with return_index, np.unique sorts stably.
    texts = _columns(fields, len(BOOK_HEADER))
    n = len(texts[0])
    sides = list(map(str.upper, map(str.strip, texts[1])))
    try:
        levels = list(map(int, texts[2]))
        ts, price, volume = (_floats(texts[k], n) for k in (0, 3, 4))
    except ValueError:
        return None
    try:
        level = np.array(levels, dtype=np.int64)
    except OverflowError:  # a level past int64: keep the exact ints
        level = np.array(levels, dtype=object)
    if not ({"B", "A"}.issuperset(sides) and (level >= 1).all()
            and np.isfinite(ts).all() and not BookLevel.rejects(price, volume).any()):
        return None
    ask = np.fromiter(map("A".__eq__, sides), dtype=bool, count=n)
    del texts, sides, levels  # freed before the books are built: a lower peak
    times, _, book = np.unique(ts, return_index=True, return_inverse=True)
    key = 2 * book + ask  # (book, side), bids first
    # A (timestamp, side, level) key repeats where neighbours in key order agree.
    order = np.lexsort((level, key))
    sorted_key, sorted_level = key[order], level[order]
    if ((sorted_key[1:] == sorted_key[:-1]) & (sorted_level[1:] == sorted_level[:-1])).any():
        return None

    n_books = len(times)
    counts = np.bincount(key, minlength=2 * n_books)
    # A side's distinct levels run 1..count exactly when none exceeds count.
    level = np.minimum(level, n + 1).astype(np.intp)
    in_place = level <= counts[key]
    gap_key = int(key[~in_place].min()) if not in_place.all() else 2 * n_books

    depth = int(counts.max(initial=1))
    cells = (key * depth + level - 1)[in_place]
    arrays = []
    for values in (price, volume):
        flat = np.zeros(2 * n_books * depth)
        flat[cells] = values[in_place]
        arrays.append(flat.reshape(n_books, 2, depth))
    books = Books(times, *arrays)

    # Books before the first gap are whole; the first broken one's
    # constructor raises the fault, with its timestamp.
    broken = OrderBookSnapshot.rejects(*arrays)
    if broken.any() and broken.argmax() < gap_key // 2:
        books[int(broken.argmax())]
    if gap_key < 2 * n_books:
        present = set(level[key == gap_key].tolist())
        missing = min(set(range(1, int(counts[gap_key]) + 1)) - present)
        raise errors.GapInLevels(f"side {'BA'[gap_key % 2]} at "
                                 f"t={books.timestamps[gap_key // 2].item()}: "
                                 f"missing level {missing}")
    return books


def _check_book_row(row, line, seen):
    ts = _finite_float(row[0], line, "timestamp")
    side = _side(row[1], line)
    level = _level(row[2], line)
    price = _finite_float(row[3], line, "price")
    volume = _finite_float(row[4], line, "volume")
    if (ts, side, level) in seen:
        raise errors.ParseError(f"duplicate level {level} on side {side} at t={ts}",
                                line=line)
    seen[ts, side, level] = line
    BookLevel(price, volume)


def parse_basket_positions(path) -> Positions:
    """Read `instrument,beta,lix` rows, each a valid BasketPosition, into Positions."""
    return _read(path, POSITION_HEADER, _positions, _check_position_row)


def _positions(fields):
    # The rows as Positions, or None when a value is not a number or
    # BasketPosition.rejects flags a row.
    names, betas, lixes = _columns(fields, len(POSITION_HEADER))
    try:
        block = _floats(itertools.chain(betas, lixes), 2 * len(names)).reshape(2, -1)
    except ValueError:
        return None
    if not BasketPosition.rejects(*block).any():
        return Positions(list(map(str.strip, names)), *block.tolist())


def _check_position_row(row, line, seen):
    beta = _finite_float(row[1], line, "beta")
    lix_value = _finite_float(row[2], line, "lix")
    BasketPosition(instrument_id=row[0].strip(), beta=beta, lix=lix_value)


def compute_adv(bars, window_days: int = 20) -> AdvContext:
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
        raise errors.AllZeroVolume(f"{window[0].date} to {window[-1].date}: all "
                                   f"{len(window)} bars in the ADV window have zero volume")
    return AdvContext(adv=sum(nonzero) / len(nonzero))
