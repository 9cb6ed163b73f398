import datetime

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lix import MultiDayWindow, amihud_illiq, errors, hui_heubel, lix_daily
from conftest import make_bar


def bars_from(closes, volumes=None, high_pad=1.0, low_pad=1.0):
    volumes = volumes or [1e6] * len(closes)
    out = []
    for i, (c, v) in enumerate(zip(closes, volumes)):
        out.append(make_bar(open=c, high=c + high_pad, low=c - low_pad,
                            close=c, volume=v,
                            day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i)))
    return tuple(out)


def five_identical_bars(scale=1.0, volume=1e6):
    return tuple(
        make_bar(open=100 * scale, high=101 * scale, low=99 * scale,
                 close=100 * scale, volume=volume,
                 day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
        for i in range(5))


class TestHuiHeubel:
    def test_reference(self):
        w = MultiDayWindow(five_identical_bars(), shares_outstanding=1e8)
        assert hui_heubel(w) == pytest.approx((2 / 99) / (5e8 / 1e10), abs=1e-9)
        assert hui_heubel(w) == pytest.approx(0.40404, abs=1e-5)

    def test_split_with_stale_share_count(self):
        # 2-for-1 split: prices halve, traded volume doubles, but the data
        # vendor's shares-outstanding figure lags -> the measure halves
        before = hui_heubel(MultiDayWindow(five_identical_bars(),
                                           shares_outstanding=1e8))
        after = hui_heubel(MultiDayWindow(five_identical_bars(scale=0.5, volume=2e6),
                                          shares_outstanding=1e8))
        assert after / before == pytest.approx(0.5, abs=1e-9)

    def test_insufficient_data(self):
        w = MultiDayWindow(five_identical_bars()[:4], shares_outstanding=1e8)
        with pytest.raises(errors.InsufficientData):
            hui_heubel(w)

    def test_zero_range(self):
        bars = tuple(make_bar(open=100, high=100, low=100, close=100,
                              day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
                     for i in range(5))
        with pytest.raises(errors.ZeroRange):
            hui_heubel(MultiDayWindow(bars, shares_outstanding=1e8))

    def test_zero_dollar_volume(self):
        bars = tuple(make_bar(volume=0,
                              day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
                     for i in range(5))
        with pytest.raises(errors.ZeroDollarVolume):
            hui_heubel(MultiDayWindow(bars, shares_outstanding=1e8))

    @pytest.mark.parametrize("low_pad", [100, 150])
    def test_non_positive_low_rejected(self, low_pad):
        bars = bars_from([100, 100, 100, 100, 100], low_pad=low_pad)
        with pytest.raises(errors.NonPositivePrice, match="five-day low"):
            hui_heubel(MultiDayWindow(bars, shares_outstanding=1e8))

    @pytest.mark.parametrize("fault,bar", [
        (errors.ZeroRange, dict(high=100, low=100)),
        (errors.ZeroDollarVolume, dict(volume=0)),
        (errors.NonPositivePrice, dict(low=0)),
    ])
    def test_window_faults_name_the_window(self, fault, bar):
        bars = tuple(make_bar(**{"open": 100, "high": 101, "low": 99, "close": 100, **bar},
                              day=datetime.date(2020, 1, 1) + datetime.timedelta(days=i))
                     for i in range(6))
        with pytest.raises(fault, match="^2020-01-02 to 2020-01-06: "):
            hui_heubel(MultiDayWindow(bars, shares_outstanding=1e8))

    @pytest.mark.parametrize("volume,shares,got", [
        (5e-324, 1e8, "inf"),   # the turnover underflows to 0
        (1e6, 1e307, "inf"),    # shares x mean close overflows
        (1e308, 1e307, "nan"),  # dollar volume and shares x mean close are inf
    ])
    def test_non_finite_ratio_rejected(self, volume, shares, got):
        w = MultiDayWindow(five_identical_bars(volume=volume), shares_outstanding=shares)
        with pytest.raises(errors.InvalidParams, match=f"hui_heubel must be finite, got {got}"):
            hui_heubel(w)

    @given(k=st.floats(min_value=1e-3, max_value=1e3))
    def test_currency_invariance(self, k):
        base = hui_heubel(MultiDayWindow(five_identical_bars(),
                                         shares_outstanding=1e8))
        scaled = hui_heubel(MultiDayWindow(five_identical_bars(scale=k),
                                           shares_outstanding=1e8))
        assert scaled == pytest.approx(base, rel=1e-12)


class TestAmihud:
    def test_reference(self):
        w = MultiDayWindow(bars_from([100, 101]), shares_outstanding=1e8)
        assert amihud_illiq(w) == pytest.approx(0.01 / (101 * 1e6), rel=1e-9)
        assert amihud_illiq(w) == pytest.approx(9.90099e-11, rel=1e-5)

    def test_flat_closes_contribute_nothing(self):
        w = MultiDayWindow(bars_from([100, 100, 100]), shares_outstanding=1e8)
        assert amihud_illiq(w) == 0.0

    def test_round_trip_day_blind_spot(self):
        # wide-range day ending where it started: zero Amihud contribution,
        # finite range-based index
        bars = bars_from([100, 100], high_pad=10, low_pad=10)
        w = MultiDayWindow(bars, shares_outstanding=1e8)
        assert amihud_illiq(w) == 0.0
        assert lix_daily(bars[1]).value > 0

    def test_insufficient(self):
        with pytest.raises(errors.InsufficientData):
            amihud_illiq(MultiDayWindow(bars_from([100]), shares_outstanding=1e8))

    def test_zero_dollar_volume(self):
        w = MultiDayWindow(bars_from([100, 101], volumes=[1e6, 0]),
                           shares_outstanding=1e8)
        with pytest.raises(errors.ZeroDollarVolume):
            amihud_illiq(w)

    def test_zero_first_close_rejected(self):
        # the first return would divide by the zero close
        w = MultiDayWindow(bars_from([0, 101, 102]), shares_outstanding=1e8)
        with pytest.raises(errors.NonPositivePrice, match="2020-01-01"):
            amihud_illiq(w)

    def test_non_finite_result_rejected(self):
        # the close-to-close ratio overflows to inf
        w = MultiDayWindow(bars_from([1e-300, 1e300], volumes=[1.0, 1.0]),
                           shares_outstanding=1e8)
        with pytest.raises(errors.InvalidParams, match="amihud_illiq must be finite, got inf"):
            amihud_illiq(w)

    def test_equals_day_by_day_loop(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 50, 1000):
            closes = list(rng.lognormal(4, 1, n))
            bars = bars_from(closes, volumes=list(rng.lognormal(10, 3, n)))
            total = 0.0
            for prev, cur in zip(bars, bars[1:]):
                total += abs(cur.close / prev.close - 1.0) / (cur.close * cur.volume)
            w = MultiDayWindow(bars, shares_outstanding=1e8)
            assert amihud_illiq(w) == total / (n - 1)

    def test_nonnegative_and_inverse_ranking_vs_lix(self):
        # same volatility, varying volume: descending LIX ranking must equal
        # ascending Amihud ranking across the synthetic cross-section
        rankings = []
        for volume in (1e4, 1e5, 1e6, 1e7):
            bars = bars_from([100, 102, 99, 103], volumes=[volume] * 4)
            w = MultiDayWindow(bars, shares_outstanding=1e8)
            il = amihud_illiq(w)
            assert il >= 0
            rankings.append((lix_daily(bars[-1]).value, il))
        by_lix = sorted(rankings, key=lambda p: -p[0])
        by_illiq = sorted(rankings, key=lambda p: p[1])
        assert by_lix == by_illiq


class TestWindowType:
    def test_mixed_instruments(self):
        a = make_bar(instrument_id="A")
        b = make_bar(instrument_id="B", day=datetime.date(2020, 1, 2))
        with pytest.raises(errors.InvariantViolation):
            MultiDayWindow((a, b), shares_outstanding=1e8)

    def test_dates_strictly_increasing(self):
        a = make_bar(day=datetime.date(2020, 1, 2))
        b = make_bar(day=datetime.date(2020, 1, 2))
        with pytest.raises(errors.InvariantViolation):
            MultiDayWindow((a, b), shares_outstanding=1e8)
