import datetime
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lix import (Bars, DailyBar, IntradayWindow, LixKind, ScalingParams, errors,
                 lix_daily, lix_daily_many, lix_intraday_raw, time_scale_to_daily)
from conftest import make_bar

prices = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)
scales = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestLixDaily:
    def test_reference_value(self, reference_bar):
        idx = lix_daily(reference_bar)
        assert idx.value == pytest.approx(math.log10(5e8), abs=1e-12)
        assert idx.value == pytest.approx(8.69897, abs=1e-5)
        assert idx.kind is LixKind.DAILY

    def test_unit_case(self):
        bar = make_bar(open=1, high=2, low=1, close=1, volume=1)
        assert lix_daily(bar).value == 0.0

    def test_zero_range_rejected(self):
        bar = make_bar(open=50, high=50, low=50, close=50)
        with pytest.raises(errors.ZeroRange):
            lix_daily(bar)

    def test_zero_volume_rejected(self):
        with pytest.raises(errors.ZeroVolume):
            lix_daily(make_bar(volume=0))

    def test_nonpositive_price_rejected(self):
        bar = make_bar(open=0.0, high=1.0, low=0.0, close=0.0, volume=10)
        with pytest.raises(errors.NonPositivePrice):
            lix_daily(bar)

    @given(k=scales)
    def test_currency_invariance(self, k):
        base = lix_daily(make_bar()).value
        scaled = lix_daily(make_bar(open=50 * k, high=51 * k, low=50 * k,
                                    close=50 * k)).value
        assert scaled == pytest.approx(base, abs=1e-12)

    @given(v1=st.floats(min_value=1, max_value=1e9),
           v2=st.floats(min_value=1, max_value=1e9))
    def test_monotone_in_volume(self, v1, v2):
        if v1 == v2:
            return
        lo, hi = sorted((v1, v2))
        assert lix_daily(make_bar(volume=lo)).value < lix_daily(make_bar(volume=hi)).value

    @given(r1=st.floats(min_value=0.01, max_value=10),
           r2=st.floats(min_value=0.01, max_value=10))
    def test_antitone_in_range(self, r1, r2):
        if r1 == r2:
            return
        lo, hi = sorted((r1, r2))
        narrow = lix_daily(make_bar(open=50, low=50, high=50 + lo, close=50)).value
        wide = lix_daily(make_bar(open=50, low=50, high=50 + hi, close=50)).value
        assert narrow > wide


    def test_underflowing_ratio_rejected(self):
        # 5e-324 * 1 / (1e10 - 0.5) is 0.0: no finite index, a typed error
        bar = make_bar(open=1, high=1e10, low=0.5, close=1, volume=5e-324)
        with pytest.raises(errors.InvalidParams, match="got -inf"):
            lix_daily(bar)

    def test_overflowing_ratio_rejected(self):
        bar = make_bar(open=1e300, high=1e300, low=1e300 - 1e284, close=1e300,
                       volume=1e300)
        with pytest.raises(errors.InvalidParams, match="got inf"):
            lix_daily(bar)


class TestLixDailyMany:
    def test_equals_lix_daily_bar_by_bar(self):
        rng = np.random.default_rng(5)
        days = [datetime.date(2020, 1, 1) + datetime.timedelta(days=i)
                for i in range(400)]
        low = rng.lognormal(3, 2, 400)
        high = np.where(rng.random(400) < 0.1, low, low * rng.uniform(1, 1.1, 400))
        volume = np.where(rng.random(400) < 0.1, 0.0, rng.lognormal(10, 4, 400))
        close = np.where(rng.random(400) < 0.05, 0.0, high)
        low = np.where(close == 0, 0.0, low)
        bars = [DailyBar("T", d, float(h), float(h), float(lo), float(c), float(v))
                for d, h, lo, c, v in zip(days, high, low, close, volume)]
        bars[:2] = [DailyBar("T", days[i], 1.0, 1e10, 0.5, 1.0, 5e-324) for i in range(2)]
        got = lix_daily_many(Bars.of(bars))
        assert len(got) == len(bars)
        kinds = set()
        for bar, value in zip(bars, got):
            try:
                want = lix_daily(bar).value
            except errors.LixError as exc:
                assert (type(value), str(value)) == (type(exc), str(exc))
                kinds.add(type(exc))
            else:
                assert value == want
        assert kinds == {errors.ZeroRange, errors.ZeroVolume,
                         errors.NonPositivePrice, errors.InvalidParams}

    def test_bars_index_and_slice(self):
        bars = [make_bar(volume=v, day=datetime.date(2020, 1, 1 + v)) for v in range(4)]
        columns = Bars.of(bars)
        assert (len(columns), columns[2], list(columns)) == (4, bars[2], bars)
        assert list(columns[1:3]) == bars[1:3]


class TestIntraday:
    def test_reference_value(self):
        w = IntradayWindow(elapsed=3600, session_length=14400,
                           cum_volume=2_500_000, high_t=50.5, low_t=50,
                           last_price=50)
        assert lix_intraday_raw(w).value == pytest.approx(8.39794, abs=1e-5)

    def test_unit_case(self):
        w = IntradayWindow(elapsed=1, session_length=2, cum_volume=1,
                           high_t=2, low_t=1, last_price=1)
        assert lix_intraday_raw(w).value == 0.0

    def test_zero_volume(self):
        w = IntradayWindow(elapsed=1, session_length=2, cum_volume=0,
                           high_t=2, low_t=1, last_price=1)
        with pytest.raises(errors.ZeroVolume):
            lix_intraday_raw(w)

    def test_underflowing_ratio_rejected(self):
        w = IntradayWindow(elapsed=10, session_length=100, cum_volume=5e-324,
                           high_t=1e10, low_t=0.5, last_price=1)
        with pytest.raises(errors.InvalidParams, match="got -inf"):
            lix_intraday_raw(w)

    def test_invalid_window_shape(self):
        with pytest.raises(errors.InvalidInterval):
            IntradayWindow(elapsed=0, session_length=2, cum_volume=1,
                           high_t=2, low_t=1, last_price=1)
        with pytest.raises(errors.InvariantViolation):
            IntradayWindow(elapsed=1, session_length=2, cum_volume=1,
                           high_t=2, low_t=1, last_price=3)


class TestTimeScaling:
    def test_quarter_session(self):
        scaled = time_scale_to_daily(8.39794, t=3600, session_length=14400,
                                     params=ScalingParams(0.5))
        assert scaled.value == pytest.approx(8.69897, abs=1e-5)
        assert scaled.kind is LixKind.INTRADAY_SCALED

    def test_full_session_identity(self):
        assert time_scale_to_daily(5.0, 100, 100).value == 5.0

    def test_half_session(self):
        scaled = time_scale_to_daily(5.0, 50, 100, ScalingParams(0.5))
        assert scaled.value == pytest.approx(5.0 + 0.5 * math.log10(2), abs=1e-12)
        assert scaled.value == pytest.approx(5.150515, abs=1e-6)

    def test_invalid_interval(self):
        with pytest.raises(errors.InvalidInterval):
            time_scale_to_daily(5.0, 0, 100)
        with pytest.raises(errors.InvalidInterval):
            time_scale_to_daily(5.0, 101, 100)

    @given(t=st.floats(min_value=1, max_value=28800))
    def test_alpha_one_is_identity(self, t):
        assert time_scale_to_daily(7.0, t, 28800, ScalingParams(1.0)).value == 7.0

    @pytest.mark.parametrize("alpha", [0.5, 0.6])
    def test_exact_scaling_consistency(self, alpha):
        # cum volume linear in t and range growing as t^alpha reproduce the
        # full-day value from any window
        T = 28800.0
        bar = make_bar(open=50.2, high=51.0, low=50.0, close=50.6)
        daily = lix_daily(bar).value
        full_range = bar.high - bar.low
        anchor = (bar.close - bar.low) / full_range
        for k in range(1, 101):
            f = k / 100
            rng_t = full_range * f ** alpha
            low_t = bar.close - anchor * rng_t
            w = IntradayWindow(elapsed=f * T, session_length=T,
                               cum_volume=bar.volume * f,
                               high_t=low_t + rng_t, low_t=low_t,
                               last_price=bar.close)
            scaled = time_scale_to_daily(lix_intraday_raw(w), f * T, T,
                                         ScalingParams(alpha))
            assert scaled.value == pytest.approx(daily, abs=1e-10)


class TestTypes:
    def test_bar_invariants(self):
        with pytest.raises(errors.InvariantViolation):
            DailyBar("X", datetime.date(2020, 1, 1), 49.5, 51, 50, 50, 10)
        with pytest.raises(errors.InvariantViolation):
            DailyBar("X", datetime.date(2020, 1, 1), 50, 51, 50, 52, 10)
        with pytest.raises(errors.InvariantViolation):
            make_bar(volume=-1)

    def test_rejects_matches_the_constructor(self):
        # Few distinct values, so ties, inverted ranges, negative volumes
        # and non-finite fields are all common.
        rng = np.random.default_rng(11)
        pool = [-1.0, 0.0, 1.0, 2.0, 3.0, math.inf, -math.inf, math.nan]
        rows = rng.choice(pool, size=(5, 3000), p=[.17] * 5 + [.05] * 3)
        mask = DailyBar.rejects(*rows)
        for refused, values in zip(mask.tolist(), rows.T.tolist()):
            try:
                DailyBar("X", datetime.date(2020, 1, 1), *values)
            except errors.InvariantViolation:
                assert refused, values
            else:
                assert not refused, values
        assert 0 < mask.sum() < len(mask)

    def test_alpha_bounds(self):
        with pytest.raises(errors.InvalidParams):
            ScalingParams(0.0)
        with pytest.raises(errors.InvalidParams):
            ScalingParams(1.5)

    def test_nonfinite_index_rejected(self):
        from lix import LiquidityIndex
        with pytest.raises(errors.InvalidParams):
            LiquidityIndex(float("nan"), LixKind.DAILY)
        with pytest.raises(errors.InvalidParams):
            LiquidityIndex(float("inf"), LixKind.DAILY)
