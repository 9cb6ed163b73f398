import contextlib
import csv
import io
import json
import re
import sys
import warnings

import numpy as np
import pytest

from lix.cli import build_parser, main

BARS = """date,open,high,low,close,volume
2013-11-20,50,51,50,50,10000000
"""

BOOK = """timestamp,side,level,price,volume
0,B,1,99,1000
0,A,1,101,1000
"""

ADV_BARS = """date,open,high,low,close,volume
2013-11-19,50,51,50,50,4000
2013-11-20,50,51,50,50,4000
"""

APPENDIX_B1 = "instrument,beta,lix\nONLY,1.0,7\n"
APPENDIX_B2 = "instrument,beta,lix\nA,0.3,8\nB,0.7,8\n"
APPENDIX_B3 = "instrument,beta,lix\nLOW,0.5,5\nHIGH,0.5,12\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestLixCommand:
    def test_single_date(self, tmp_path):
        code, out, err = run(["lix", write(tmp_path, "b.csv", BARS),
                              "--date", "2013-11-20"])
        assert code == 0
        assert "8.698970" in out

    def test_all_days(self, tmp_path):
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS +
                            "2013-11-21,50,52,49,51,2000000\n")])
        assert code == 0
        assert out.count("\n") == 2

    def test_json_format(self, tmp_path):
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--format", "json"])
        payload = json.loads(out)[0]
        assert payload["lix"] == pytest.approx(8.69897, abs=1e-5)

    def test_json_is_a_list_for_any_row_count(self, tmp_path):
        two = BARS + "2013-11-21,50,52,49,51,2000000\n"
        for text, n in ((BARS, 1), (two, 2)):
            code, out, _ = run(["lix", write(tmp_path, "b.csv", text),
                                "--format", "json"])
            assert code == 0
            assert [set(r) for r in json.loads(out)] == [{"date", "lix"}] * n

    def test_missing_file(self):
        code, _, err = run(["lix", "/nonexistent/bars.csv"])
        assert code == 2
        assert "error" in err

    def test_missing_date(self, tmp_path):
        code, _, err = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--date", "1999-01-01"])
        assert code == 2

    def test_underflowing_day_warned_and_skipped(self, tmp_path):
        bars = BARS + "2013-11-21,1,1e10,0.5,1,5e-324\n"
        code, out, err = run(["lix", write(tmp_path, "b.csv", bars)])
        assert (code, out) == (0, "2013-11-20  8.698970\n")
        assert err == ("warning: 2013-11-21: liquidity index must be finite, got -inf\n"
                       "warning: skipped 1 day(s) with undefined index\n")

    def test_degenerate_day_warned_and_skipped(self, tmp_path):
        bars = BARS + "2013-11-21,50,50,50,50,1000\n"
        code, out, err = run(["lix", write(tmp_path, "b.csv", bars)])
        assert code == 0
        assert "skipped 1" in err
        assert out.count("\n") == 1


class TestIntradayCommand:
    def test_reference(self):
        code, out, _ = run(["lix-intraday", "--cum-volume", "2500000",
                            "--last-price", "50", "--high", "50.5",
                            "--low", "50", "--elapsed", "3600",
                            "--session", "14400", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["lix_raw"] == pytest.approx(8.39794, abs=1e-5)
        assert payload["lix"] == pytest.approx(8.69897, abs=1e-5)


class TestIntradayOutOfRange:
    ARGV = ["lix-intraday", "--elapsed", "10", "--session", "100"]

    @pytest.mark.parametrize("flags,shown", [
        (["--cum-volume", "5e-324", "--last-price", "1", "--high", "1e10",
          "--low", "0.5"], "-inf"),
        (["--cum-volume", "1e308", "--last-price", "10", "--high", "10",
          "--low", "9.999999"], "inf")])
    def test_ratio_out_of_float_range_rejected(self, flags, shown):
        assert run(self.ARGV + flags) == (
            2, "", f"error: liquidity index must be finite, got {shown}\n")


class TestLixiCommand:
    def test_reference(self, tmp_path):
        code, out, _ = run(["lixi", write(tmp_path, "book.csv", BOOK),
                            "--adv-from", write(tmp_path, "adv.csv", ADV_BARS),
                            "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["lixi"] == pytest.approx(5.150515, abs=1e-6)

    def test_decompose(self, tmp_path):
        code, out, _ = run(["lixi", write(tmp_path, "book.csv", BOOK),
                            "--adv-from", write(tmp_path, "adv.csv", ADV_BARS),
                            "--decompose", "--format", "json"])
        payload = json.loads(out)[0]
        assert payload["spread_term"] == pytest.approx(1.69897, abs=1e-5)
        assert payload["depth_term"] == pytest.approx(1.650515, abs=1e-6)
        assert payload["adv_term"] == pytest.approx(1.80103, abs=1e-5)


    def test_all_zero_adv_window_named(self, tmp_path):
        adv = ("date,open,high,low,close,volume\n2013-11-18,50,51,50,50,4000\n"
               "2013-11-19,50,51,50,50,0\n2013-11-20,50,51,50,50,0\n")
        result = run(["lixi", write(tmp_path, "book.csv", BOOK),
                      "--adv-from", write(tmp_path, "adv.csv", adv), "--adv-window", "2"])
        assert result == (2, "", "error: 2013-11-19 to 2013-11-20: all 2 bars in the "
                          "ADV window have zero volume\n")

    def test_empty_adv_file_named(self, tmp_path):
        path = write(tmp_path, "adv.csv", "date,open,high,low,close,volume\n")
        code, out, err = run(["lixi", write(tmp_path, "book.csv", BOOK),
                              "--adv-from", path])
        assert (code, out, err) == (2, "", f"error: {path}: no data rows\n")

    def test_underflowing_adv_term_rejected(self, tmp_path):
        # ADV / displayed volume = 1e-30 / 2e300 underflows to 0.0
        book = "timestamp,side,level,price,volume\n0,B,1,99,1e300\n0,A,1,101,1e300\n"
        adv = "date,open,high,low,close,volume\n2013-11-19,50,51,50,50,1e-30\n"
        code, out, err = run(["lixi", write(tmp_path, "book.csv", book),
                              "--adv-from", write(tmp_path, "adv.csv", adv)])
        assert (code, out, err) == (
            2, "", "error: liquidity index must be finite, got -inf (t=0.0)\n")

    @pytest.mark.parametrize("flags", [[], ["--decompose"]])
    @pytest.mark.parametrize("rows, shown", [
        # price x volume and the total volume overflow to inf; both VWAPs
        # are inf, which has no finite index
        ("1,B,1,1e200,1e200\n1,B,2,5e199,1e308\n1,A,1,2e200,1e200\n1,A,2,3e200,1e308\n",
         "bid-side VWAP must be finite, got inf (t=1.0)"),
        # each side's volume overflows too: the bid VWAP is 1.5e308 / inf
        # and the ask VWAP inf / inf
        ("1,B,1,1,1e308\n1,B,2,0.5,1e308\n1,A,1,2,1e308\n1,A,2,3,1e308\n",
         "ask-side VWAP must be finite, got nan (t=1.0)"),
    ], ids=["inf-vwaps", "nan-vwaps"])
    def test_overflowing_book_reports_only_the_error(self, tmp_path, rows, shown, flags):
        book = "timestamp,side,level,price,volume\n" + rows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(["lixi", write(tmp_path, "book.csv", book),
                          "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)] + flags)
        assert result == (2, "", f"error: {shown}\n")
        assert caught == []

    @pytest.mark.parametrize("flags", [[], ["--decompose"]])
    def test_overflowing_vwaps_are_not_called_crossed(self, tmp_path, flags):
        # price x volume overflows on each side, though the best ask is
        # above the best bid: no VWAP is finite, and the book is not crossed
        book = ("timestamp,side,level,price,volume\n"
                "0,B,1,1e300,1e300\n0,B,2,9e299,1e300\n0,A,1,1.1e300,1e300\n")
        result = run(["lixi", write(tmp_path, "book.csv", book),
                      "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)] + flags)
        assert result == (2, "", "error: bid-side VWAP must be finite, got inf (t=0.0)\n")

    @pytest.mark.parametrize("flags", [[], ["--decompose"]])
    @pytest.mark.parametrize("rows, side", [
        ("3,B,1,0.0005,5e-324\n3,A,1,0.0015,5e-324\n", "bid"),
        ("3,B,1,0.0005,1\n3,A,1,0.0015,5e-324\n", "ask"),
    ], ids=["both", "ask"])
    def test_underflowing_vwaps_are_not_called_crossed(self, tmp_path, rows, side, flags):
        # price x volume underflows to 0, though the best ask is above the
        # best bid: a VWAP of 0.0 is not a price, and the book is not crossed
        book = "timestamp,side,level,price,volume\n" + rows
        result = run(["lixi", write(tmp_path, "book.csv", book),
                      "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)] + flags)
        assert result == (2, "", f"error: {side}-side VWAP must be positive, got 0.0 (t=3.0)\n")

    @pytest.mark.parametrize("rows, shown", [
        # the ask side's price x volume overflows
        ("0,B,1,1,1\n0,A,1,1e300,1e300\n", "ask-side VWAP must be finite, got inf"),
        # the displayed volume overflows, so LIXI does
        ("0,B,1,1,1e308\n0,A,1,1.5,1e308\n", "liquidity index must be finite, got inf"),
    ], ids=["vwap", "lixi"])
    def test_non_finite_lixi_names_its_book(self, tmp_path, rows, shown):
        book = "timestamp,side,level,price,volume\n" + rows
        result = run(["lixi", write(tmp_path, "book.csv", book),
                      "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)])
        assert result == (2, "", f"error: {shown} (t=0.0)\n")

    @pytest.mark.parametrize("rows, shown", [
        ("0,A,1,101,10\n1,B,1,99,10\n1,A,1,101,10\n", "bid side is empty (t=0.0)"),
        ("0,B,1,99,10\n0,B,2,100,10\n0,A,1,101,10\n",
         "bid prices not strictly descending at level 2 (t=0.0)"),
    ], ids=["one-sided", "unordered"])
    def test_undefined_book_named_by_its_timestamp_once(self, tmp_path, rows, shown):
        book = "timestamp,side,level,price,volume\n" + rows
        assert run(["lixi", write(tmp_path, "book.csv", book),
                     "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)]) == (
            2, "", f"error: {shown}\n")

    def test_books_of_unequal_depth(self, tmp_path):
        book = ("timestamp,side,level,price,volume\n"
                "0,B,1,99,1000\n0,A,1,101,1000\n0,A,2,102,500\n0,A,3,103,500\n"
                "1,B,2,98,10\n1,B,1,99,10\n1,A,1,100,10\n")
        code, out, _ = run(["lixi", write(tmp_path, "book.csv", book),
                            "--adv-from", write(tmp_path, "adv.csv", ADV_BARS),
                            "--decompose", "--format", "json", "--precision", "17"])
        from lix import AdvContext, lixi, lixi_decomposed, read_books
        ctx = AdvContext(4000)
        want = []
        for snap in list(read_books(tmp_path / "book.csv")):
            d = lixi_decomposed(snap, ctx)
            want.append({"timestamp": snap.timestamp, "lixi": lixi(snap, ctx).value,
                         "spread_term": d.spread_term, "depth_term": d.depth_term,
                         "adv_term": d.adv_term})
        assert code == 0
        assert json.loads(out) == [{k: round(v, 17) for k, v in row.items()}
                                   for row in want]


class TestCostCommand:
    ARGV = {"--shares": "2", "--price": "1", "--lix": "0", "--slice-t": "100",
            "--session": "100"}

    @pytest.mark.parametrize("flag,value", [
        ("--shares", "nan"), ("--shares", "inf"), ("--price", "nan"),
        ("--price", "inf"), ("--session", "inf"), ("--session", "nan")])
    def test_non_finite_input_rejected(self, flag, value):
        argv = dict(self.ARGV, **{flag: value})
        code, out, err = run(["cost", *(x for kv in argv.items() for x in kv)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flag,value", [
        ("--lix", "-400"), ("--lix", "400"), ("--shares", "1e200")])
    def test_out_of_range_result_rejected(self, flag, value):
        # finite inputs whose costs overflow or divide by an underflowed 10^LIX
        argv = dict(self.ARGV, **{flag: value})
        code, out, err = run(["cost", *(x for kv in argv.items() for x in kv)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "finite" in err

    def test_reference(self):
        code, out, _ = run(["cost", "--shares", "2", "--price", "1",
                            "--lix", "0", "--slice-t", "100",
                            "--session", "100", "--format", "json"])
        payload = json.loads(out)
        assert payload["cost_single_shot"] == pytest.approx(2.0)
        assert payload["cost_sliced"] == pytest.approx(1.0)
        assert payload["cost_per_unit"] == pytest.approx(0.5)


class TestBasketCommand:
    def test_appendix_b_fixtures(self, tmp_path):
        code, out, _ = run(["basket", write(tmp_path, "b1.csv", APPENDIX_B1),
                            "--format", "json"])
        assert json.loads(out)["lix"] == pytest.approx(7.0, abs=1e-9)

        code, out, _ = run(["basket", write(tmp_path, "b2.csv", APPENDIX_B2),
                            "--format", "json"])
        assert json.loads(out)["lix"] == pytest.approx(8.0, abs=1e-9)

        code, out, _ = run(["basket", write(tmp_path, "b3.csv", APPENDIX_B3),
                            "--format", "json"])
        assert json.loads(out)["lix"] >= 5.0 + 0.3

    def test_etf_leg(self, tmp_path):
        code, out, _ = run(["basket", write(tmp_path, "b1.csv",
                                            "instrument,beta,lix\nX,1.0,8\n"),
                            "--etf-lix", "5", "--format", "json"])
        assert json.loads(out)["lix_with_etf"] == pytest.approx(8.000434, abs=1e-6)

    def test_normalization_warning(self, tmp_path):
        text = "instrument,beta,lix\nA,2,7\nB,2,7\n"
        code, out, err = run(["basket", write(tmp_path, "p.csv", text),
                              "--format", "json"])
        assert code == 0
        assert "normalizing" in err
        assert json.loads(out)["lix"] == pytest.approx(7.0, abs=1e-9)

    def test_strict_mode_rejects(self, tmp_path):
        text = "instrument,beta,lix\nA,2,7\nB,2,7\n"
        code, _, err = run(["basket", write(tmp_path, "p.csv", text), "--strict"])
        assert code == 2

    def test_strict_fault_names_the_flag(self, tmp_path):
        text = "instrument,beta,lix\nA,4,7\nB,10.002,7\n"
        result = run(["basket", write(tmp_path, "p.csv", text), "--strict"])
        assert result == (2, "", "error: weights sum to 14.002, expected 1 within 1e-09 "
                          "when not normalizing; drop --strict to normalize\n")

    def test_overflowing_weight_sum_rejected(self, tmp_path):
        text = "instrument,beta,lix\nA,1e308,7\nB,1e308,7\n"
        result = run(["basket", write(tmp_path, "p.csv", text)])
        assert result == (2, "", "error: weights sum past the float range\n")

    def test_weight_underflowing_once_normalised_is_named(self, tmp_path):
        text = "instrument,beta,lix\nA,1e-320,7\nB,1e308,7\n"
        result = run(["basket", write(tmp_path, "p.csv", text)])
        assert result == (2, "", "error: weight for A (1e-320) underflows to 0 "
                          "once normalised by the weight sum 1e+308\n")


POSITION_FAULTS = ("header", "fields", "number", "non_finite", "beta", "quote",
                   "utf8", "underflow", "open_last")


def _malformed_position_file(rng, kind, path) -> str:
    """Write a positions file of 1-5 rows with one fault of the given kind;
    return the faulty row's instrument."""
    rows = [[f"I{k}", repr(float(rng.uniform(0.01, 2))), repr(float(rng.uniform(3, 11)))]
            for k in range(int(rng.integers(1, 6)))]
    row = rows[int(rng.integers(0, len(rows)))]
    instrument = row[0]
    column = int(rng.integers(1, 3))
    if kind == "fields":
        row[:] = row[:int(rng.integers(1, 3))] if rng.random() < 0.5 else row + ["1"]
    elif kind == "number":
        row[column] = str(rng.choice(["x", "", "1e", "0x10", "seven"]))
    elif kind == "non_finite":
        row[column] = str(rng.choice(["nan", "inf", "-inf", "1e400", "-Infinity"]))
    elif kind == "beta":
        row[1] = str(rng.choice(["0", "-0.0", "-1", "-1e-300"]))
    elif kind == "quote":
        # An unclosed quote swallows the rest of the file, delimiters
        # included, so the row comes up short.
        column = int(rng.integers(0, 2))
        row[column] = '"' + row[column]
    elif kind == "open_last":  # swallows no delimiter; still open at the end
        instrument = rows[-1][0]
        rows[-1][2] = '"' + rows[-1][2]
    elif kind == "underflow":  # positive, but 0 once divided by the sum
        row[1] = str(rng.choice(["5e-324", "1e-320", "1e-310"]))
        rows.insert(int(rng.integers(0, len(rows) + 1)), ["BIG", "1e308", "7"])
    text = "instrument,beta,lix\n" + "".join(",".join(r) + "\n" for r in rows)
    if kind == "header":
        text = text.replace(str(rng.choice(["instrument", "beta", "lix"])), "weight", 1)
    data = text.encode("utf-8")
    if kind == "utf8":
        cut = int(rng.integers(0, len(data) + 1))
        data = data[:cut] + b"\xff\xfe" + data[cut:]
    path.write_bytes(data)
    return instrument


@pytest.mark.parametrize("kind", POSITION_FAULTS)
def test_malformed_position_file_exits_2_with_a_location(tmp_path, kind):
    rng = np.random.default_rng([9, POSITION_FAULTS.index(kind)])
    path = tmp_path / "positions.csv"
    for _ in range(40):
        instrument = _malformed_position_file(rng, kind, path)
        code, out, err = run(["basket", str(path), "--etf-lix", "6"])
        assert (code, out) == (2, ""), (code, path.read_bytes(), err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if kind == "underflow":
            assert f"weight for {instrument} (" in err and "underflows" in err, err
        else:
            assert "line" in err.lower() or "utf-8" in err.lower(), err


class TestCompareCommand:
    def test_table(self, tmp_path):
        rows = ["date,open,high,low,close,volume"]
        for d in range(15, 20):
            rows.append(f"2013-11-{d},100,101,99,100,1000000")
        code, out, _ = run(["compare", write(tmp_path, "b.csv", "\n".join(rows)),
                            "--shares-outstanding", "100000000",
                            "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,value"
        values = dict(l.split(",") for l in lines[1:])
        assert float(values["hui_heubel"]) == pytest.approx(0.40404, abs=1e-5)
        assert float(values["amihud_illiq"]) == 0.0


    def test_overflowing_bars_report_only_the_values(self, tmp_path):
        # close x volume, the summed dollar volume and a close-to-close
        # ratio overflow to inf; inf / inf is NaN, which has no finite value
        bars = ("date,open,high,low,close,volume\n"
                "2020-01-01,1e-300,1e300,1e-300,1e-300,1e10\n"
                "2020-01-02,1e300,1e300,1e-300,1e300,1e300\n"
                "2020-01-03,1e300,1e300,1e-300,1e300,1\n"
                "2020-01-06,1e-300,1e300,1e-300,1e-300,1\n"
                "2020-01-07,1,2,1e-300,1,1e10\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(["compare", write(tmp_path, "b.csv", bars),
                          "--shares-outstanding", "1e6"])
        assert result == (2, "", "error: 2020-01-01 to 2020-01-07: hui_heubel must be "
                          "finite, got nan\n")
        assert caught == []

    def test_non_finite_hui_heubel_names_its_window(self, tmp_path):
        # the relative range of day 2 overflows
        days = ["1,2,1,1.5,10"] * 6
        days[1] = "1,1.7e308,1e-300,1,1"
        bars = "date,open,high,low,close,volume\n" + "".join(
            f"2020-01-0{d},{row}\n" for d, row in enumerate(days, 1))
        result = run(["compare", write(tmp_path, "b.csv", bars),
                      "--shares-outstanding", "1e6"])
        assert result == (2, "", "error: 2020-01-02 to 2020-01-06: hui_heubel must be "
                          "finite, got inf\n")

    def test_non_finite_amihud_names_its_bars(self, tmp_path):
        # the return into day 2 overflows; the Hui-Heubel window is fine
        days = ["1,2,1,1.5,10"] * 7
        days[:2] = ["1e-300,1,1e-300,1e-300,10", "1,1e300,1,1e300,10"]
        bars = "date,open,high,low,close,volume\n" + "".join(
            f"2020-01-0{d},{row}\n" for d, row in enumerate(days, 1))
        result = run(["compare", write(tmp_path, "b.csv", bars),
                      "--shares-outstanding", "1e6"])
        assert result == (2, "", "error: 2020-01-01 to 2020-01-07: amihud_illiq must be "
                          "finite, got inf\n")

    def test_zero_five_day_low_rejected(self, tmp_path):
        bars = ("date,open,high,low,close,volume\n2020-01-01,1,2,0,1,100\n"
                + "".join(f"2020-01-0{d},1,2,0.5,1,100\n" for d in range(2, 6)))
        result = run(["compare", write(tmp_path, "b.csv", bars),
                      "--shares-outstanding", "1e6"])
        assert result == (2, "", "error: 2020-01-01 to 2020-01-05: five-day low is 0.0, "
                          "so the relative range is undefined\n")

    @pytest.mark.parametrize("last_day,message", [
        ("50,50,50,50,100", "high == low == 50.0: price range is zero"),
        ("50,51,49,50,0", "volume is zero"),
    ])
    def test_undefined_last_day_named(self, tmp_path, last_day, message):
        bars = ("date,open,high,low,close,volume\n"
                + "".join(f"2020-01-0{d},50,51,49,50,100\n" for d in range(1, 6))
                + f"2020-01-06,{last_day}\n")
        result = run(["compare", write(tmp_path, "b.csv", bars),
                      "--shares-outstanding", "1e6"])
        assert result == (2, "", f"error: 2020-01-06: {message}\n")


class TestEmptyBarFile:
    @pytest.mark.parametrize("argv", [["lix"], ["compare", "--shares-outstanding", "1e8"]])
    def test_header_only_file_rejected(self, tmp_path, argv):
        path = write(tmp_path, "b.csv", "date,open,high,low,close,volume\n")
        code, out, err = run([argv[0], path] + argv[1:])
        assert (code, out, err) == (2, "", f"error: {path}: no data rows\n")


class TestCalibrateCommand:
    def test_small_run(self):
        code, out, _ = run(["calibrate-alpha", "--model", "rw",
                            "--paths", "2000", "--steps", "500", "--seed", "1"])
        assert code == 0
        payload = json.loads(out)
        assert 0.4 < payload["alpha_hat"] < 0.6
        assert payload["n_paths"] == 2000

    def test_bad_model(self):
        code, _, err = run(["calibrate-alpha", "--model", "bogus"])
        assert code == 2

    @pytest.mark.parametrize("dof", ["nan", "inf"])
    def test_non_finite_dof_rejected(self, dof):
        result = run(["calibrate-alpha", "--model", f"t:{dof}",
                      "--paths", "10", "--steps", "10"])
        assert result == (2, "", f"error: Student-t model needs a finite dof > 2, "
                          f"got {dof}\n")

    @pytest.mark.parametrize("vol", ["nan", "inf"])
    def test_non_finite_volatility_rejected(self, vol):
        result = run(["calibrate-alpha", "--vol", vol, "--paths", "10", "--steps", "10"])
        assert result == (2, "", f"error: volatility_per_step must be finite, "
                          f"got {vol}\n")

    def test_overflowing_model_rejected(self):
        code, out, err = run(["calibrate-alpha", "--model", "gauss", "--vol", "100",
                              "--paths", "10", "--steps", "10"])
        assert (code, out) == (2, "")
        assert "not finite" in err and "nan" not in err.lower()

    def test_overflowing_walk_reports_only_the_error(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(["calibrate-alpha", "--model", "rw", "--vol", "1e308",
                          "--paths", "10", "--steps", "10"])
        assert result == (2, "", "error: mean price range is not finite at "
                          "volatility_per_step 1e+308; the simulated prices overflow\n")
        assert caught == []

    def test_grid_colliding_at_steps_rejected(self):
        code, out, err = run(["calibrate-alpha", "--paths", "10", "--steps", "10",
                              "--grid", "0.1,0.12,1"])
        assert (code, out) == (2, "")
        assert "repeated steps" in err

    @pytest.mark.parametrize("grid, count", [("0.5", 1), (",", 0)])
    def test_grid_of_fewer_than_two_fractions_rejected(self, grid, count):
        result = run(["calibrate-alpha", "--grid", grid, "--paths", "4", "--steps", "20"])
        assert result == (2, "", f"error: need at least 2 time grid fractions, "
                          f"got {count}\n")

    def test_unallocatable_walk_rejected(self):
        # 2**61 float64 steps are 2**64 bytes: numpy refuses before allocating
        code, out, err = run(["calibrate-alpha", "--steps", str(2 ** 61), "--paths", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "steps_per_day" in err

    ARGV = ["calibrate-alpha", "--paths", "200", "--steps", "100",
            "--grid", "0.5,1.0"]

    def test_csv_format(self):
        code, out, _ = run(self.ARGV + ["--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha_hat", "stderr", "n_paths", "time_grid"]
        assert len(rows) == 2 and len(rows[1]) == len(rows[0])
        assert rows[1][2:] == ["200", "0.500000;1.000000"]

    def test_text_and_json_formats(self):
        code, out, _ = run(self.ARGV + ["--format", "text", "--precision", "2"])
        assert code == 0
        assert out.split("  ")[2:] == ["200", "0.50;1.00\n"]
        assert json.loads(run(self.ARGV)[1])["time_grid"] == [0.5, 1.0]


class TestStudyCommand:
    def test_small_run(self, tmp_path):
        points = str(tmp_path / "points.csv")
        code, out, _ = run(["study", "--instruments", "8", "--days", "4",
                            "--seed", "1", "--snapshots", "10",
                            "--points-csv", points])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"slope", "intercept", "r_squared",
                                "n_points", "n_dropped"}
        header = open(points).readline().strip()
        assert header == "instrument,mean_lix,mean_lixi"

    def test_csv_format(self):
        code, out, _ = run(["study", "--instruments", "5", "--days", "3",
                            "--seed", "1", "--snapshots", "5", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["slope", "intercept", "r_squared", "n_points",
                           "n_dropped"]
        assert len(rows) == 2 and len(rows[1]) == len(rows[0])


class TestDispatch:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_unknown_flag(self):
        assert run(["cost", "--bogus", "1"])[0] == 2

    def test_help_exits_zero(self):
        assert run(["--help"])[0] == 0

    def test_missing_command_named(self):
        code, out, err = run([])
        assert (code, out) == (2, "")
        assert err.endswith("error: the following arguments are required: command\n")

    @pytest.mark.parametrize("argv", [["lix"], ["frobnicate"], ["cost", "--bogus", "1"]])
    def test_usage_error_goes_to_the_given_stream(self, capsys, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: lix") and "error:" in err
        assert capsys.readouterr() == ("", "")

    def test_help_goes_to_the_given_stream(self, capsys):
        code, out, err = run(["lixi", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: lix lixi") and "--decompose" in out
        assert capsys.readouterr() == ("", "")

    def test_precision_flag(self, tmp_path):
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--precision", "2"])
        assert "8.70" in out and "8.698" not in out

    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_precision_rejected(self, tmp_path, value):
        code, out, err = run(["lix", write(tmp_path, "b.csv", BARS),
                              "--precision", value])
        assert code == 2
        assert out == ""
        assert "integer >= 0" in err  # argparse's usage error

    def test_precision_variable(self, tmp_path, monkeypatch):
        path = write(tmp_path, "b.csv", BARS)
        monkeypatch.setenv("LIX_PRECISION", "2")
        assert "8.70" in run(["lix", path])[1]
        monkeypatch.setenv("LIX_PRECISION", "3")
        assert "8.699" in run(["lix", path])[1]

    @pytest.mark.parametrize("value", ["abc", "-3", "2.5", ""])
    def test_bad_precision_variable_rejected(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LIX_PRECISION", value)
        code, out, err = run(["lix", write(tmp_path, "b.csv", BARS)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: LIX_PRECISION")

    def test_precision_flag_overrides_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIX_PRECISION", "abc")
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--precision", "2"])
        assert code == 0 and "8.70" in out

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["study", "--instruments", "5", "--days", "3", "--seed", "9",
                "--snapshots", "5"]
        assert run(argv) == run(argv)


class TestOpenQuoteAtEnd:
    """A quoted field still open at the end of the file is malformed CSV."""

    @pytest.mark.parametrize("argv,name,text", [
        (["basket"], "p.csv", 'instrument,beta,lix\nA,0.5,"7'),
        (["basket"], "p.csv", 'instrument,beta,lix\nB,0.5,8\nA,0.5,"7\n'),
        (["lix"], "b.csv", BARS + '2013-11-21,50,52,49,51,"1000'),
        (["lixi", "--adv-from", "ADV"], "s.csv", BOOK + '1,B,1,99,"1000\n'),
    ])
    def test_rejected_with_its_line(self, tmp_path, argv, name, text):
        path = write(tmp_path, name, text)
        argv = [a.replace("ADV", write(tmp_path, "adv.csv", ADV_BARS)) for a in argv]
        code, out, err = run(argv[:1] + [path] + argv[1:])
        line = text.rstrip("\n").count("\n") + 1
        assert (code, out) == (2, "")
        assert err == (f"error: {path}: malformed CSV: quoted field not closed at "
                       f"end of file (line {line})\n")

    def test_quote_closed_before_more_text_still_reads(self, tmp_path):
        # `"5"0` is 50 to the csv module's default (not strict) dialect.
        text = BARS.replace("-20,50,", '-20,"5"0,')
        code, out, _ = run(["lix", write(tmp_path, "b.csv", text), "--format", "csv"])
        assert (code, out) == (0, "date,lix\n2013-11-20,8.698970\n")


# Each subcommand's arguments with valid values for its numeric flags.
FLAG_BASES = {
    "lix": (["lix", "BARS"], {}),
    "lix-intraday": (["lix-intraday"], {
        "--cum-volume": "1e6", "--last-price": "50", "--high": "51", "--low": "49",
        "--elapsed": "3600", "--session": "23400", "--alpha": "0.5"}),
    "lixi": (["lixi", "BOOK", "--adv-from", "ADV"], {"--adv-window": "20",
                                                      "--alpha": "0.5"}),
    "cost": (["cost"], {"--shares": "1000", "--price": "50", "--lix": "8",
                        "--slice-t": "600", "--session": "23400", "--alpha": "0.5"}),
    "basket": (["basket", "POSITIONS"], {"--etf-lix": "8.5"}),
    "compare": (["compare", "WEEK"], {"--shares-outstanding": "1e8"}),
    "calibrate-alpha": (["calibrate-alpha"], {"--paths": "20", "--steps": "20",
                                              "--seed": "1", "--vol": "0.01"}),
    "study": (["study"], {"--instruments": "3", "--days": "3", "--seed": "1",
                          "--snapshots": "5"}),
}
FLAG_VALUES = ("nan", "inf", "-inf", "0", "-3", "1e308", "5e-324",
               "1234567890123456789012345", "x")
SIZE_FLAGS = ("--paths", "--steps", "--instruments", "--days", "--snapshots")
WEEK = "date,open,high,low,close,volume\n" + "".join(
    f"2013-11-{day},50,51,49.5,50,{4000 + day}\n" for day in range(18, 23))


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in FLAG_BASES.items()
    for flag in [*flags, "--precision"]])
def test_numeric_flag_fuzz_exits_0_with_finite_output_or_2(tmp_path, command, flag):
    files = {"BARS": write(tmp_path, "bars.csv", BARS),
             "BOOK": write(tmp_path, "book.csv", BOOK),
             "ADV": write(tmp_path, "adv.csv", ADV_BARS),
             "POSITIONS": write(tmp_path, "positions.csv", APPENDIX_B2),
             "WEEK": write(tmp_path, "week.csv", WEEK)}
    head, flags = FLAG_BASES[command]
    flags = {**flags, "--precision": "6"}
    for value in (None,) + FLAG_VALUES:  # None: every flag at its valid value
        if flag in SIZE_FLAGS and value and len(value) > 20:  # a huge run
            continue
        argv = [files.get(a, a) for a in head]
        for name, default in flags.items():
            argv += [name, value if name == flag and value else default]
        code, out, err = run(argv)
        assert value or code == 0, (argv, err)
        assert code in (0, 2), (argv, code, err)
        if code == 0:
            assert not re.search("nan|inf", out, re.IGNORECASE), (argv, out)
        else:
            assert out == "" and "error:" in err, (argv, out, err)


def test_precision_bounded_by_the_last_float_decimal_place(tmp_path):
    path = write(tmp_path, "b.csv", BARS)
    code, out, _ = run(["lix", path, "--precision", "1074"])
    assert code == 0 and out.rstrip("\n").endswith("0" * 1000)
    code, out, err = run(["lix", path, "--precision", "1075"])
    assert (code, out) == (2, "") and "at most 1074 decimal places" in err


def _parse(parser, argv):
    """(exit code, stdout, stderr, parsed arguments) of one parse_args call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = vars(parser.parse_args(argv)), 0
        except SystemExit as exc:
            args, code = None, exc.code
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize("columns", [None, "40", "200"])
@pytest.mark.parametrize("command", FLAG_BASES)
def test_one_command_parser_parses_as_the_full_one(monkeypatch, command, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    head, flags = FLAG_BASES[command]
    given = head[1:] + [a for pair in flags.items() for a in pair]
    shapes = [["-h"], given + ["--bogus"], given + ["extra"], [],
              given + ["--precision", "x"], given + ["--format", "xml"],
              given + ["--prec", "2"], ["--"] + given, ["--precision", "2"] + given]
    for shape in shapes:
        argv = [command] + shape
        assert _parse(build_parser(command), argv) == _parse(build_parser(), argv), argv


def test_argv_may_be_any_iterable_or_default_to_sys_argv(tmp_path, monkeypatch):
    path = write(tmp_path, "b.csv", BARS)
    want = run(["lix", path])
    assert want[0] == 0
    assert run(("lix", path)) == want
    assert run(iter(["lix", path])) == want
    monkeypatch.setattr(sys, "argv", ["lix", "lix", path])
    assert run(None) == want
