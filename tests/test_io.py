import datetime

import pytest

from lix import (compute_adv, errors, lix_daily, lixi_tau,
                 parse_basket_positions, read_bars, read_books,
                 write_daily_bars)
from conftest import make_bar

GOOD_BARS = """date,open,high,low,close,volume
2013-11-20,50,51,50,50,10000000
2013-11-21,50.5,52,49,51,12000000
"""

GOOD_BOOK = """timestamp,side,level,price,volume
0,B,1,99,1000
0,A,1,101,1000
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParseDailyBars:
    def test_well_formed(self, tmp_path):
        bars = list(read_bars(write(tmp_path, "bars.csv", GOOD_BARS)))
        assert len(bars) == 2
        assert bars[0].date == datetime.date(2013, 11, 20)
        assert lix_daily(bars[0]).value == pytest.approx(8.69897, abs=1e-5)

    def test_open_below_low_flagged_with_line(self, tmp_path):
        bad = ("date,open,high,low,close,volume\n"
               "2013-11-20,49.5,51,50,50,10000000\n")
        with pytest.raises(errors.InvariantViolation) as exc:
            list(read_bars(write(tmp_path, "bars.csv", bad)))
        assert exc.value.line == 2

    def test_header_only_is_empty_list(self, tmp_path):
        assert list(read_bars(
            write(tmp_path, "bars.csv", "date,open,high,low,close,volume\n"))) == []

    def test_bad_header(self, tmp_path):
        with pytest.raises(errors.ParseError):
            list(read_bars(write(tmp_path, "bars.csv", "a,b,c\n1,2,3\n")))

    def test_duplicate_date(self, tmp_path):
        dup = GOOD_BARS + "2013-11-20,50,51,50,50,1\n"
        with pytest.raises(errors.ParseError) as exc:
            list(read_bars(write(tmp_path, "bars.csv", dup)))
        assert "duplicate" in str(exc.value)

    def test_non_numeric_field(self, tmp_path):
        bad = "date,open,high,low,close,volume\n2013-11-20,x,51,50,50,1\n"
        with pytest.raises(errors.ParseError) as exc:
            list(read_bars(write(tmp_path, "bars.csv", bad)))
        assert exc.value.line == 2

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"])
    def test_unicode_line_separator_stays_in_its_field(self, tmp_path, sep):
        # Only \n, \r and \r\n end a CSV row; other separators are field text.
        bad = f"date,open,high,low,close,volume\n2013-11-20,5{sep}0,51,50,50,1\n"
        with pytest.raises(errors.ParseError) as exc:
            list(read_bars(write(tmp_path, "bars.csv", bad)))
        assert (exc.value.line, exc.value.column) == (2, "open")

    def test_nan_rejected(self, tmp_path):
        bad = "date,open,high,low,close,volume\n2013-11-20,nan,51,50,50,1\n"
        with pytest.raises(errors.ParseError):
            list(read_bars(write(tmp_path, "bars.csv", bad)))

    def test_sorted_output(self, tmp_path):
        swapped = ("date,open,high,low,close,volume\n"
                   "2013-11-21,50,51,50,50,2\n"
                   "2013-11-20,50,51,50,50,1\n")
        bars = list(read_bars(write(tmp_path, "bars.csv", swapped)))
        assert [b.date.day for b in bars] == [20, 21]

    def test_round_trip(self, tmp_path):
        bars = [make_bar(open=50.123456789, high=51.5, low=49.000000001,
                         close=50.5, volume=123456.75,
                         day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
                for i in range(3)]
        path = tmp_path / "TEST.csv"  # the instrument is the file stem
        write_daily_bars(bars, path)
        parsed = list(read_bars(path))
        assert parsed == bars


class TestParseBookSnapshots:
    def test_round_trip_into_lixi(self, tmp_path):
        snaps = list(read_books(write(tmp_path, "book.csv", GOOD_BOOK)))
        assert len(snaps) == 1
        assert lixi_tau(snaps[0]).value == pytest.approx(5.0, abs=1e-12)

    def test_gap_in_levels(self, tmp_path):
        bad = ("timestamp,side,level,price,volume\n"
               "0,B,1,99,1000\n0,B,3,98,1000\n0,A,1,101,1000\n")
        with pytest.raises(errors.GapInLevels):
            list(read_books(write(tmp_path, "book.csv", bad)))

    def test_crossed_book(self, tmp_path):
        bad = ("timestamp,side,level,price,volume\n"
               "0,B,1,101,1000\n0,A,1,100,1000\n")
        with pytest.raises(errors.CrossedBook):
            list(read_books(write(tmp_path, "book.csv", bad)))

    def test_bad_side(self, tmp_path):
        bad = "timestamp,side,level,price,volume\n0,X,1,99,1000\n"
        with pytest.raises(errors.ParseError):
            list(read_books(write(tmp_path, "book.csv", bad)))

    def test_multiple_timestamps_sorted(self, tmp_path):
        text = ("timestamp,side,level,price,volume\n"
                "10,B,1,99,1\n10,A,1,101,1\n"
                "5,B,1,98,1\n5,A,1,102,1\n")
        snaps = list(read_books(write(tmp_path, "book.csv", text)))
        assert [s.timestamp for s in snaps] == [5.0, 10.0]


class TestParseBasketPositions:
    def test_good(self, tmp_path):
        text = "instrument,beta,lix\nAAA,0.5,6\nBBB,0.5,9\n"
        positions = parse_basket_positions(write(tmp_path, "pos.csv", text))
        assert len(positions) == 2
        assert positions[0].beta == 0.5

    def test_negative_weight(self, tmp_path):
        text = "instrument,beta,lix\nAAA,-0.5,6\n"
        with pytest.raises(errors.InvariantViolation):
            parse_basket_positions(write(tmp_path, "pos.csv", text))

    def test_line_after_multiline_quoted_field(self, tmp_path):
        # The first position's name spans physical lines 2-3.
        text = 'instrument,beta,lix\n"AAA\nclass B",0.5,6\nBBB,x,9\n'
        with pytest.raises(errors.ParseError) as exc:
            parse_basket_positions(write(tmp_path, "pos.csv", text))
        assert (exc.value.line, exc.value.column) == (4, "beta")

    @pytest.mark.parametrize("rows, error, message", [
        ("A,1,7\nB,0,8\n", errors.InvariantViolation,
         "weight for B must be positive, got 0.0 (line 3)"),
        ("A,1,nan\n", errors.ParseError, "lix is not finite: 'nan' (line 2, column lix)"),
        ("A,x,7\n", errors.ParseError, "beta is not a number: 'x' (line 2, column beta)"),
        # The bad weight comes before the short row, so it is the first fault.
        ("A,0,7\nB,1\n", errors.InvariantViolation,
         "weight for A must be positive, got 0.0 (line 2)"),
        ('"A\nclass B",1,7\nC,-1,8\n', errors.InvariantViolation,
         "weight for C must be positive, got -1.0 (line 4)"),
    ])
    def test_first_fault_with_its_line(self, tmp_path, rows, error, message):
        path = write(tmp_path, "pos.csv", "instrument,beta,lix\n" + rows)
        with pytest.raises(errors.LixError) as exc:
            parse_basket_positions(path)
        assert (type(exc.value), str(exc.value)) == (error, message)

    @pytest.mark.parametrize("rows, clean", [
        ("\nA,1,7\n\nB,2,8\n\n", "A,1,7\nB,2,8\n"),
        ('A,"0."5,7\n', "A,0.5,7\n"),
    ])
    def test_read_as_the_clean_file(self, tmp_path, rows, clean):
        got = parse_basket_positions(write(tmp_path, "got.csv", "instrument,beta,lix\n" + rows))
        want = parse_basket_positions(write(tmp_path, "want.csv",
                                            "instrument,beta,lix\n" + clean))
        assert got == want and got


class TestComputeAdv:
    def bars(self, volumes):
        return [make_bar(volume=v,
                         day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
                for i, v in enumerate(volumes)]

    def test_simple_mean(self):
        assert compute_adv(self.bars([10, 20, 30]), 3).adv == pytest.approx(20)

    def test_zero_days_skipped(self):
        assert compute_adv(self.bars([10, 0, 30]), 3).adv == pytest.approx(20)

    def test_trailing_window(self):
        assert compute_adv(self.bars([1000, 10, 20, 30]), 3).adv == pytest.approx(20)

    def test_all_zero(self):
        with pytest.raises(errors.AllZeroVolume):
            compute_adv(self.bars([0, 0, 0]), 3)

    def test_empty(self):
        with pytest.raises(errors.EmptyDataset):
            compute_adv([], 3)
