import csv
import io
import json
import warnings

import pytest

from lix.cli import main

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
            2, "", "error: liquidity index must be finite, got -inf\n")

    @pytest.mark.parametrize("flags", [[], ["--decompose"]])
    @pytest.mark.parametrize("rows, shown", [
        # price x volume and the total volume overflow to inf; both VWAPs
        # are inf and compare as crossed, as with Python floats
        ("1,B,1,1e200,1e200\n1,B,2,5e199,1e308\n1,A,1,2e200,1e200\n1,A,2,3e200,1e308\n",
         "ask-side VWAP inf <= bid-side VWAP inf (t=1.0)"),
        # each side's volume overflows too, so both VWAPs are inf / inf
        ("1,B,1,1,1e308\n1,B,2,0.5,1e308\n1,A,1,2,1e308\n1,A,2,3,1e308\n",
         "liquidity index must be finite, got nan"),
    ], ids=["inf-vwaps", "nan-vwaps"])
    def test_overflowing_book_reports_only_the_error(self, tmp_path, rows, shown, flags):
        book = "timestamp,side,level,price,volume\n" + rows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run(["lixi", write(tmp_path, "book.csv", book),
                          "--adv-from", write(tmp_path, "adv.csv", ADV_BARS)] + flags)
        assert result == (2, "", f"error: {shown}\n")
        assert caught == []

    def test_books_of_unequal_depth(self, tmp_path):
        book = ("timestamp,side,level,price,volume\n"
                "0,B,1,99,1000\n0,A,1,101,1000\n0,A,2,102,500\n0,A,3,103,500\n"
                "1,B,2,98,10\n1,B,1,99,10\n1,A,1,100,10\n")
        code, out, _ = run(["lixi", write(tmp_path, "book.csv", book),
                            "--adv-from", write(tmp_path, "adv.csv", ADV_BARS),
                            "--decompose", "--format", "json", "--precision", "17"])
        from lix import AdvContext, lixi, lixi_decomposed, parse_book_snapshots
        ctx = AdvContext(4000)
        want = []
        for snap in parse_book_snapshots(tmp_path / "book.csv"):
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
        # ratio overflow to inf; inf / inf is NaN, as with Python floats
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
        assert result == (0, "lix  9.698970\nhui_heubel  nan\namihud_illiq  nan\n", "")
        assert caught == []


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

    def test_precision_flag(self, tmp_path):
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--precision", "2"])
        assert "8.70" in out and "8.698" not in out

    @pytest.mark.parametrize("value", ["-1", "-2"])
    def test_negative_precision_rejected(self, tmp_path, capsys, value):
        code, out, _ = run(["lix", write(tmp_path, "b.csv", BARS),
                            "--precision", value])
        assert code == 2
        assert out == ""
        assert "integer >= 0" in capsys.readouterr().err  # argparse's usage error

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
