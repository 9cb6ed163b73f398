"""The column readers against the row-wise reference parsers in io_oracle.

Files are generated from fixed seeds: clean ones, and ones with one to three
faults of the kinds a bar or snapshot file can have. The readers must return
the same records, or raise the same exception class with the same message
(the first fault in file order).
"""

import datetime
import gc
import io

import numpy as np
import pytest

import io_oracle
from lix import Books, data_io, errors, read_bars, read_books
from lix.cli import main

N_FILES = 300
HUGE_FIELD = "9" * 140_000  # over the csv module's field limit: csv.Error

BAR_FAULTS = ("header", "fields", "number", "non_finite", "date", "duplicate",
              "invariant", "utf8", "multiline", "unterminated", "huge")
BOOK_FAULTS = ("header", "fields", "number", "non_finite", "side", "level",
               "duplicate", "gap", "order", "crossing", "invariant", "utf8",
               "multiline", "unterminated", "huge")
# A quote still open at the end of the file: tested per kind below. (The
# mixed fuzz above meets it too, when "unterminated" hits the last field.)
OPEN_LAST = ("open_last",)


def _number(rng, x: float) -> str:
    """x spelled as one of the forms Python's float() reads back exactly."""
    form = rng.integers(0, 8)
    if form == 1:
        return f" {x!r} "
    if form == 2 and x == int(x) and abs(x) < 1e9:
        return f"{int(x):_d}"
    if form == 3:
        return f"{x:.17e}"
    if form == 4 and x >= 0:
        return f"+{x!r}"
    return repr(x)


def _clean_bar_rows(rng):
    n = int(rng.integers(0, 25))
    days = rng.choice(4000, size=n, replace=False)
    rows = []
    for d in days.tolist():
        low = float(np.round(rng.uniform(1, 100), int(rng.integers(0, 6))))
        high = low if rng.random() < 0.1 else low + float(rng.uniform(0, 5))
        o, c = (float(x) for x in rng.uniform(low, high, 2))
        volume = 0.0 if rng.random() < 0.1 else float(np.round(rng.lognormal(8, 2)))
        day = datetime.date(2000, 1, 1) + datetime.timedelta(days=d)
        spelled = f" {day} " if rng.random() < 0.1 else str(day)
        rows.append([spelled] + [_number(rng, x) for x in (o, high, low, c, volume)])
    return rows


def _clean_book_rows(rng):
    rows = []
    stamps = rng.choice(100, size=int(rng.integers(0, 7)), replace=False)
    for t in stamps.tolist():
        mid = float(rng.uniform(10, 1000))
        half = mid * float(rng.uniform(1e-4, 0.05))
        tick = half / 4
        depths = rng.integers(0, 5, 2)
        if depths.sum() == 0:
            depths[rng.integers(0, 2)] = 1
        spelled = rng.choice([repr(float(t)), str(t), f" {float(t):.3e}"])
        if t == 0:
            spelled = rng.choice(["0", "0.0", "-0.0", "-0"])
        for side, sign, depth in (("B", -1, depths[0]), ("A", 1, depths[1])):
            for k in range(int(depth)):
                price = mid + sign * (half + k * tick)
                side_text = rng.choice([side, side.lower(), f" {side} "])
                volume = float(np.round(rng.lognormal(6, 1.5), 2)) + 0.01
                rows.append([str(spelled), str(side_text), str(k + 1),
                             _number(rng, price), _number(rng, volume)])
    order = rng.permutation(len(rows))
    return [rows[i] for i in order.tolist()]


def _render(header, rows, rng):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
        if rng.random() < 0.05:
            lines.append("")  # a blank row, skipped but counted in line numbers
    end = rng.choice(["\n", "\r\n"])
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _fault_bar(rng, kind, rows):
    """Apply one fault to the bar rows in place; True when it rewrote the
    whole file (header, encoding) and the text must be built by the caller."""
    if kind in ("header", "utf8"):
        return True
    if not rows:
        rows.append(["2001-01-01", "50", "51", "49", "50", "1000"])
    i = int(rng.integers(0, len(rows)))
    row = rows[i]
    k = int(rng.integers(1, 6))
    if len(row) != len(data_io.BAR_HEADER):  # cut short by an earlier fault
        return False
    if kind == "fields":
        rows[i] = row[:int(rng.integers(1, 6))] if rng.random() < 0.5 else row + ["1"]
    elif kind == "number":
        row[k] = str(rng.choice(["x", "fifty", "", "1,5", "0x10", "1e"]))
    elif kind == "non_finite":
        row[k] = str(rng.choice(["nan", "inf", "-inf", "1e400", "NaN", "-Infinity"]))
    elif kind == "date":
        row[0] = str(rng.choice(["02/01/2020", "2020-13-01", "", "yesterday",
                                 "2020-02-30"]))
    elif kind == "duplicate":
        row[0] = rows[int(rng.integers(0, len(rows)))][0]
        if len(rows) == 1:
            rows.append(list(row))
    elif kind == "invariant":
        lo, hi = _as_float(row[3]), _as_float(row[2])
        which = rng.integers(0, 3)
        if which == 0 and lo is not None:
            row[1] = repr(lo - 1.0)
        elif which == 1 and hi is not None:
            row[4] = repr(hi + 1.0)
        else:
            row[5] = "-1"
    elif kind == "multiline":
        row[k] = f'"{row[k]}\n"' if rng.random() < 0.5 else f'"{row[k]}"'
        row[0] = f'"{row[0]}\r\n"' if rng.random() < 0.3 else row[0]
    elif kind == "unterminated":
        row[k] = '"' + row[k]
    elif kind == "huge":
        row[k] = HUGE_FIELD
    return False


def _fault_book(rng, kind, rows):
    if kind in ("header", "utf8"):
        return True
    if not rows:
        rows.extend([["0", "B", "1", "99", "10"], ["0", "A", "1", "101", "10"]])
    i = int(rng.integers(0, len(rows)))
    row = rows[i]
    if len(row) != len(data_io.BOOK_HEADER):  # cut short by an earlier fault
        return False
    same_book = [r for r in rows if len(r) == len(row) and _as_float(r[0]) == _as_float(row[0])]
    if kind == "fields":
        rows[i] = row[:int(rng.integers(1, 5))] if rng.random() < 0.5 else row + ["1"]
    elif kind == "number":
        row[int(rng.choice([0, 3, 4]))] = str(rng.choice(["x", "", "1,5", "1e"]))
    elif kind == "non_finite":
        row[int(rng.choice([0, 3, 4]))] = str(rng.choice(["nan", "inf", "-inf", "1e999"]))
    elif kind == "side":
        row[1] = str(rng.choice(["X", "", "bid", "S"]))
    elif kind == "level":
        row[2] = str(rng.choice(["0", "-1", "1.5", "x", "", "99999999999999999999999"]))
    elif kind == "duplicate":
        rows.insert(int(rng.integers(0, len(rows) + 1)), list(row))
    elif kind == "gap" and row[2].isdigit():
        row[2] = str(int(row[2]) + int(rng.integers(1, 4)))
    elif kind == "order":
        side = [r for r in same_book if r[1:2] == row[1:2]]
        other = side[int(rng.integers(0, len(side)))]
        row[3], other[3] = other[3], row[3]
    elif kind == "crossing":
        touch = [r for r in same_book if r[2] == "1"]
        for r in touch:
            r[3] = "100" if r[1].strip().upper() == "B" else "99.5"
    elif kind == "invariant":
        row[int(rng.choice([3, 4]))] = str(rng.choice(["0", "-1", "-0.0"]))
    elif kind == "multiline":
        row[1] = f'"{row[1]}\n"' if rng.random() < 0.5 else f'"{row[1]}"'
    elif kind == "unterminated":
        row[3] = '"' + row[3]
    elif kind == "open_last":
        rows[-1][-1] = '"' + rows[-1][-1]
    elif kind == "huge":
        row[3] = HUGE_FIELD
    return False


def _write_case(rng, path, header, clean, fault_kinds, apply_fault):
    rows = clean(rng)
    rewrite = None
    for _ in range(int(rng.integers(0, 4)) if fault_kinds else 0):
        kind = str(rng.choice(fault_kinds))
        if apply_fault(rng, kind, rows):
            rewrite = kind
    text = _render(header, rows, rng)
    if rewrite == "header":
        text = text.replace(header[int(rng.integers(0, len(header)))], "dote", 1)
    if rewrite == "utf8":
        cut = int(rng.integers(0, len(text) + 1))
        path.write_bytes(text[:cut].encode() + b"\xff\xfe" + text[cut:].encode())
        return
    path.write_bytes(text.encode("utf-8"))


def _outcome(parse, path):
    try:
        return "ok", repr(parse(path))
    except errors.LixError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_bar_reader_matches_row_parser(tmp_path, seed):
    rng = np.random.default_rng([seed, 11])
    path = tmp_path / "bars.csv"
    kinds = set()
    for _ in range(N_FILES):
        _write_case(rng, path, data_io.BAR_HEADER, _clean_bar_rows, BAR_FAULTS, _fault_bar)
        want = _outcome(io_oracle.parse_daily_bars, path)
        assert _outcome(lambda p: list(read_bars(p)), path) == want, path.read_bytes()
        kinds.add(want[0])
    assert {"ok", "ParseError", "InvariantViolation"} <= kinds


@pytest.mark.parametrize("seed", [1, 2])
def test_book_reader_matches_row_parser(tmp_path, seed):
    rng = np.random.default_rng([seed, 12])
    path = tmp_path / "book.csv"
    kinds = set()
    for i in range(N_FILES + 1):
        if i < N_FILES:
            _write_case(rng, path, data_io.BOOK_HEADER, _clean_book_rows, BOOK_FAULTS,
                        _fault_book)
        else:  # a crossed book, whatever the draws above gave
            _malformed_book_file(rng, "crossing", path)
        want = _outcome(io_oracle.parse_book_snapshots, path)
        assert _outcome(lambda p: list(read_books(p)), path) == want, path.read_bytes()
        kinds.add(want[0])
    assert {"ok", "ParseError", "InvariantViolation", "GapInLevels",
            "CrossedBook"} <= kinds


BAR = "date,open,high,low,close,volume\n"
BOOK = "timestamp,side,level,price,volume\n"

EDGE_CASES = [
    (BAR, ""),
    (BAR, "2020-01-02,50,51,49,50,1\n2020-01-02,x,51,49,50,1\n"),   # date before number
    (BAR, "2020-01-02,48,51,49,50,1\n2020-13-02,50,51,49,50,1\n"),  # invariant first
    (BAR, "2020-01-03,50,51,49,50,1\n2020-01-02,50,51\n"),          # fields after rows
    (BAR, "2020-01-03,50,51,49,50,1\n2020-01-02,50,51,49,nan,1\n2020-01-04,5\n"),
    (BAR, '"2020-01-03\n",50,51,49,50,1\n\n2020-01-02,50,51,49,50,-1\n'),
    (BOOK, ""),
    (BOOK, "0,B,1,99,10\n0,B,1,0,10\n"),                   # duplicate before invariant
    (BOOK, "0,B,1,0,10\n0,B,1,99,10\n"),
    (BOOK, "0,B,1,99,10\n-0.0,A,1,101,10\n5,a,1,101,1\n5,b,1,99,1\n"),
    (BOOK, "-0.0,B,1,99,10\n0,A,1,101,10\n0,A,2,100,10\n"),   # order, first spelling
    (BOOK, "1,B,1,99,10\n1,B,3,98,10\n0,A,1,100,1\n0,A,2,99,1\n"),  # order before gap
    (BOOK, "0,B,1,99,10\n0,B,3,98,10\n1,A,1,100,1\n1,A,2,99,1\n"),  # gap before order
    (BOOK, "0,A,1,101,10\n0,A,99999999999999999999999,102,10\n"),
    # Levels past the row count, or past int64, are keys like any other.
    (BOOK, "0,A,1,101,10\n0,A,7,102,10\n0,A,8,103,10\n"),
    (BOOK, "0,A,1,101,10\n0,A,99999999999999999999999,102,10\n"
           "0,A,99999999999999999999998,103,10\n"),
    (BOOK, "0,A,1,101,10\n0,A,99999999999999999999999,102,10\n"
           "0,A,99999999999999999999999,103,10\n"),
    (BOOK, "0,A,1,101,10\n0,A,9223372036854775808,102,10\n"
           "0,A,9223372036854775809,103,10\n"),
    (BOOK, "0,A,9223372036854775808,102,10\n0,A,9223372036854775808,103,10\n"),
    (BOOK, "0,B,1,99,10\n0,A,1,101,10\n1,B,2,98,1\n1,A,1,100,1\n"),  # gap on B
    (BOOK, "0,B,1,101,10\n0,A,1,101,10\n0,X,1,1,1\n"),     # row fault before crossing
    (BAR, '2020-01-02,50,51,49,50,1\n2020-01-03,x,51,49,50,"1\n'),  # open quote first
    (BAR, '2020-01-02,50,51,49,50,1\n2020-01-03,x,51,49,50,1\n"'),
    (BOOK, '0,B,1,99,10\n0,A,1,0,"10\n'),
]


@pytest.mark.parametrize("header,body", EDGE_CASES)
def test_reader_edge_cases_match_row_parser(tmp_path, header, body):
    path = tmp_path / "case.csv"
    path.write_text(header + body, encoding="utf-8")
    if header == BAR:
        parse, oracle = lambda p: list(read_bars(p)), io_oracle.parse_daily_bars
    else:
        parse, oracle = lambda p: list(read_books(p)), io_oracle.parse_book_snapshots
    assert _outcome(parse, path) == _outcome(oracle, path)


def test_readers_return_columns_of_the_records(tmp_path):
    rng = np.random.default_rng(13)
    bar_path, book_path = tmp_path / "bars.csv", tmp_path / "book.csv"
    for _ in range(50):
        _write_case(rng, bar_path, data_io.BAR_HEADER, _clean_bar_rows, (), None)
        _write_case(rng, book_path, data_io.BOOK_HEADER, _clean_book_rows, (), None)
        bars, books = read_bars(bar_path), read_books(book_path)
        assert repr(list(bars)) == repr(io_oracle.parse_daily_bars(bar_path))
        assert repr(list(books)) == repr(io_oracle.parse_book_snapshots(book_path))
        assert bars.dates == tuple(sorted(bars.dates))
        assert all(c.dtype == np.float64 and c.shape == (len(bars),)
                   for c in (bars.open, bars.high, bars.low, bars.close, bars.volume))
        depth = books.price.shape[2]
        assert books.price.shape == books.volume.shape == (len(books), 2, depth)
        # The same arrays, bit for bit (the sign of a zero too), as the
        # records' own layout.
        records = Books.of(list(books))
        for name in ("timestamps", "price", "volume"):
            got, want = getattr(books, name), getattr(records, name)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name


def _malformed_book_file(rng, kind, path):
    """A snapshot file with exactly one fault of the given kind."""
    rows = []
    while not rows:
        rows = _clean_book_rows(rng)
    if kind == "gap" and all(r[2] == "1" for r in rows):
        rows[0][2] = "2"
    elif kind == "order":
        # Two levels on one side of one book, in the wrong order.
        rows += [["7777", "B", "1", "50", "1"], ["7777", "B", "2", "51", "1"],
                 ["7777", "A", "1", "52", "1"]]
    elif kind == "crossing":
        rows += [["7777", "B", "1", "100", "1"], ["7777", "A", "1", "99.5", "1"]]
    else:
        _fault_book(rng, kind, rows)
    text = _render(data_io.BOOK_HEADER, rows, rng)
    if kind == "header":
        text = text.replace("level", "levle", 1)
    if kind == "utf8":
        path.write_bytes(b"\xff" + text.encode())
        return
    path.write_bytes(text.encode("utf-8"))


@pytest.mark.parametrize("kind", [k for k in BOOK_FAULTS + OPEN_LAST if k != "multiline"])
def test_malformed_snapshot_file_exits_2_with_a_location(tmp_path, kind):
    adv = tmp_path / "adv.csv"
    adv.write_text("date,open,high,low,close,volume\n2020-01-02,50,51,49,50,1000\n",
                   encoding="utf-8")
    rng = np.random.default_rng([14, (BOOK_FAULTS + OPEN_LAST).index(kind)])
    path = tmp_path / "book.csv"
    for _ in range(15):
        _malformed_book_file(rng, kind, path)
        out, err = io.StringIO(), io.StringIO()
        code = main(["lixi", str(path), "--adv-from", str(adv)], out=out, err=err)
        message = err.getvalue()
        assert code == 2, (code, path.read_bytes()[:200], message)
        assert out.getvalue() == ""
        assert message.startswith("error: ")
        assert any(loc in message for loc in ("(line ", "line 1", "UTF-8", "t=")), message


BENCH_BARS, BENCH_BOOKS, BENCH_LEVELS = 5000, 500, 10  # the bench's file sizes


def _bench_bar_rows():
    rng = np.random.default_rng(15)
    low = np.round(rng.uniform(1, 100, BENCH_BARS), 2)
    high = low + np.round(rng.uniform(0, 5, BENCH_BARS), 2)
    mid = (low + high) / 2
    volume = np.round(rng.lognormal(8, 2, BENCH_BARS))
    start = datetime.date(2000, 1, 1)
    return [[str(start + datetime.timedelta(days=i))] + [repr(x) for x in values]
            for i, values in enumerate(zip(mid.tolist(), high.tolist(), low.tolist(),
                                           mid.tolist(), volume.tolist()))]


def _bench_book_rows():
    rng = np.random.default_rng(16)
    rows = []
    for t in range(BENCH_BOOKS):
        mid = float(rng.uniform(10, 1000))
        tick = mid * 1e-4
        for side, sign in (("B", -1), ("A", 1)):
            for k in range(BENCH_LEVELS):
                rows.append([str(t), side, str(k + 1), repr(mid + sign * (k + 1) * tick),
                             repr(float(rng.integers(100, 10000)))])
    return rows


def _fault_last_bar(kind, rows):
    row = rows[-1]
    if kind == "fields":
        rows[-1] = row[:4]
    elif kind == "number":
        row[3] = "x"
    elif kind == "non_finite":
        row[5] = "inf"
    elif kind == "date":
        row[0] = "2020-02-30"
    elif kind == "duplicate":
        row[0] = rows[0][0]
    elif kind == "invariant":
        row[1] = repr(float(row[3]) - 1.0)
    elif kind == "multiline":
        row[2] = f'"{row[2]}\nx"'
    elif kind == "unterminated":
        row[3] = '"' + row[3]
    elif kind == "open_last":
        row[5] = '"' + row[5]
    elif kind == "huge":
        row[3] = HUGE_FIELD


def _fault_last_book(kind, rows):
    book = rows[-2 * BENCH_LEVELS:]  # the last book: bids 1..10, then asks 1..10
    row = book[-1]
    if kind == "fields":
        rows[-1] = row[:3]
    elif kind == "number":
        row[3] = "x"
    elif kind == "non_finite":
        row[0] = "nan"
    elif kind == "side":
        row[1] = "X"
    elif kind == "level":
        row[2] = "0"
    elif kind == "duplicate":
        rows.append(list(row))
    elif kind == "gap":
        row[2] = str(BENCH_LEVELS + 2)
    elif kind == "order":
        book[-1][3], book[-2][3] = book[-2][3], book[-1][3]
    elif kind == "crossing":
        book[0][3] = book[BENCH_LEVELS][3]
    elif kind == "invariant":
        row[4] = "0"
    elif kind == "multiline":
        row[1] = '"A\nX"'
    elif kind == "unterminated":
        row[3] = '"' + row[3]
    elif kind == "open_last":
        row[4] = '"' + row[4]
    elif kind == "huge":
        row[3] = HUGE_FIELD


def _write_bench_case(path, header, rows, kind):
    text = "\n".join(",".join(row) for row in [header] + rows) + "\n"
    if kind == "header":
        text = text.replace(header[2], "dote", 1)
    data = text.encode("utf-8")
    if kind == "utf8":  # inside the last row
        data = data[:-3] + b"\xff" + data[-3:]
    path.write_bytes(data)


@pytest.mark.parametrize("kind", ("clean",) + BAR_FAULTS + OPEN_LAST)
def test_bench_size_bar_file_matches_row_parser(tmp_path, kind):
    rows, path = _bench_bar_rows(), tmp_path / "bars.csv"
    _fault_last_bar(kind, rows)
    _write_bench_case(path, data_io.BAR_HEADER, rows, kind)
    want = _outcome(io_oracle.parse_daily_bars, path)
    assert (want[0] == "ok") == (kind == "clean"), want
    assert _outcome(lambda p: list(read_bars(p)), path) == want


@pytest.mark.parametrize("kind", ("clean",) + BOOK_FAULTS + OPEN_LAST)
def test_bench_size_book_file_matches_row_parser(tmp_path, kind):
    rows, path = _bench_book_rows(), tmp_path / "book.csv"
    _fault_last_book(kind, rows)
    _write_bench_case(path, data_io.BOOK_HEADER, rows, kind)
    want = _outcome(io_oracle.parse_book_snapshots, path)
    assert (want[0] == "ok") == (kind == "clean"), want
    assert _outcome(lambda p: list(read_books(p)), path) == want


@pytest.mark.parametrize("kind,text,location", [
    # A quoted field spans physical lines; the fault's line counts them all.
    ("bars", BAR + '"2020-01-02\n",50,51,49,50,1\n2020-01-03,50,51,49,50,1\n'
                   '2020-01-06,50,51,49,x,1\n', ("close is not a number: 'x'", 5)),
    ("bars", BAR + '2020-01-02,50,"51\r\n\r\n",49,50,1\n\n2020-01-03,50,51,49,50,1,9\n',
     ("expected 6 fields, got 7", 6)),
    ("books", BOOK + '0,"B\n\n",1,99,10\n0,A,1,101,10\n1,A,0,101,10\n',
     ("level must be >= 1, got 0", 6)),
])
def test_line_after_a_multiline_quoted_field(tmp_path, kind, text, location):
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(errors.ParseError) as exc:
        (read_bars if kind == "bars" else read_books)(path)
    assert (str(exc.value).split(" (line")[0], exc.value.line) == location


def test_clean_files_are_read_without_numbering_lines(tmp_path, monkeypatch):
    def numbered(*args):
        raise AssertionError("a clean file was read row by row")
    monkeypatch.setattr(data_io, "_numbered_rows", numbered)
    bar_path, book_path = tmp_path / "bars.csv", tmp_path / "book.csv"
    _write_bench_case(bar_path, data_io.BAR_HEADER, _bench_bar_rows(), "clean")
    _write_bench_case(book_path, data_io.BOOK_HEADER, _bench_book_rows(), "clean")
    pos_path = tmp_path / "positions.csv"
    pos_path.write_text("instrument,beta,lix\nA,0.25,7\nB,0.75,8.5\n", encoding="utf-8")
    assert len(read_bars(bar_path)) == BENCH_BARS
    assert len(read_books(book_path)) == BENCH_BOOKS
    assert len(data_io.parse_basket_positions(pos_path)) == 2


def _collections_while(read, path):
    """How many times the cyclic garbage collector runs during read(path)."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])
    gc.collect()
    gc.callbacks.append(count)
    try:
        read(path)
    finally:
        gc.callbacks.remove(count)
    return len(starts)


def test_clean_bench_size_files_leave_the_garbage_collector_idle(tmp_path):
    # The readers keep no per-row container alive, so reading a clean file
    # allocates too few tracked objects to start a collection.
    assert gc.isenabled()
    bar_path, book_path = tmp_path / "bars.csv", tmp_path / "book.csv"
    _write_bench_case(bar_path, data_io.BAR_HEADER, _bench_bar_rows(), "clean")
    _write_bench_case(book_path, data_io.BOOK_HEADER, _bench_book_rows(), "clean")
    assert _collections_while(read_bars, bar_path) == 0
    assert _collections_while(read_books, book_path) == 0
