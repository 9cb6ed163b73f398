"""Daily and intraday liquidity index (LIX) and its time scaling.

LIX is the base-10 log of consideration (volume x price) divided by the
price range over the measurement interval. Intraday values are mapped onto
the daily scale by assuming volume grows linearly with elapsed session time
while the price range grows like t**alpha (alpha = 1/2 for a random walk).

`DailyBar` is one day; `Bars` holds a file's days as columns, and
`lix_daily_many` computes the index over them without building a record
per day.
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import errors


class LixKind(enum.Enum):
    DAILY = "daily"
    INTRADAY_RAW = "intraday-raw"
    INTRADAY_SCALED = "intraday-scaled"
    INSTANTANEOUS = "instantaneous"
    BASKET = "basket"
    BASKET_WITH_ETF = "basket-with-etf"
    COMBINED = "combined"


@dataclass(frozen=True)
class LiquidityIndex:
    """A dimensionless base-10 log liquidity value with provenance."""

    value: float
    kind: LixKind

    def __post_init__(self):
        _finite_index(self.value)


def _finite_index(value: float) -> float:
    if not math.isfinite(value):
        raise errors.InvalidParams(f"liquidity index must be finite, got {value}")
    return value


def _log10(x: float) -> float:
    """math.log10 of a measure's ratio, which is >= 0 by its checks.

    A ratio that underflowed to 0 or overflowed to inf has no finite index
    and raises InvalidParams, as a non-finite LiquidityIndex does.
    """
    return _finite_index(math.log10(x) if x != 0 else -math.inf)


def as_lix_value(lix: LiquidityIndex | float) -> float:
    """Accept either a LiquidityIndex or a bare float on the log scale."""
    if isinstance(lix, LiquidityIndex):
        return lix.value
    v = float(lix)
    if not math.isfinite(v):
        raise errors.InvalidParams(f"liquidity value must be finite, got {v}")
    return v


@dataclass(frozen=True)
class DailyBar:
    """One trading day's OHLC prices and share volume for one instrument."""

    instrument_id: str
    date: datetime.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self):
        for name in ("open", "high", "low", "close", "volume"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise errors.InvariantViolation(f"{name} must be finite, got {v}")
        if not (self.low <= self.open <= self.high):
            raise errors.InvariantViolation(
                f"open {self.open} outside [low, high] = [{self.low}, {self.high}]")
        if not (self.low <= self.close <= self.high):
            raise errors.InvariantViolation(
                f"close {self.close} outside [low, high] = [{self.low}, {self.high}]")
        if self.volume < 0:
            raise errors.InvariantViolation(f"volume must be non-negative, got {self.volume}")

    @staticmethod
    def rejects(open, high, low, close, volume):
        """Where the checks above fail, over float64 columns of bars: the
        mask of the rows a DailyBar of those values would refuse."""
        finite = np.isfinite([open, high, low, close, volume]).all(axis=0)
        return ~(finite & (low <= open) & (open <= high) & (low <= close)
                 & (close <= high) & (volume >= 0))


@dataclass(frozen=True, eq=False)
class Bars:
    """One instrument's daily bars as columns, in ascending date order.

    `dates` is a tuple of distinct dates; the prices and volumes are float64
    arrays of the same length. The columns are not checked here: build
    Bars with `data_io.read_bars`, which checks every row as DailyBar does,
    or with `Bars.of` from DailyBar records. Indexing gives a DailyBar
    record, slicing gives Bars.
    """

    instrument_id: str
    dates: tuple
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: np.ndarray

    @classmethod
    def of(cls, bars) -> "Bars":
        """Columns of DailyBar records of one instrument, kept in their order."""
        bars = tuple(bars)
        instrument = bars[0].instrument_id if bars else ""
        return cls(instrument, tuple(b.date for b in bars),
                   *(np.array([getattr(b, name) for b in bars], dtype=float)
                     for name in ("open", "high", "low", "close", "volume")))

    def _columns(self):
        return self.open, self.high, self.low, self.close, self.volume

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Bars(self.instrument_id, self.dates[key],
                        *(c[key] for c in self._columns()))
        return DailyBar(self.instrument_id, self.dates[key],
                        *(float(c[key]) for c in self._columns()))

    def __iter__(self):
        for date, *values in zip(self.dates, *(c.tolist() for c in self._columns())):
            yield DailyBar(self.instrument_id, date, *values)


@dataclass(frozen=True)
class IntradayWindow:
    """Cumulative trading activity over the first `elapsed` seconds of a session."""

    elapsed: float
    session_length: float
    cum_volume: float
    high_t: float
    low_t: float
    last_price: float

    def __post_init__(self):
        if not (0 < self.elapsed <= self.session_length):
            raise errors.InvalidInterval(
                f"elapsed {self.elapsed} not in (0, session_length={self.session_length}]")
        if not (self.low_t <= self.last_price <= self.high_t):
            raise errors.InvariantViolation(
                f"last_price {self.last_price} outside [{self.low_t}, {self.high_t}]")
        if self.cum_volume < 0:
            raise errors.InvariantViolation(f"cum_volume must be non-negative, got {self.cum_volume}")


@dataclass(frozen=True)
class ScalingParams:
    """Range-scaling exponent: 1/2 for a random walk, ~0.6 under fat tails.

    alpha = 1 is admitted as the degenerate case where the range already
    scales linearly with time and the intraday correction vanishes.
    """

    alpha: float = 0.5

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise errors.InvalidParams(f"alpha must be in (0, 1], got {self.alpha}")


def _check_range_volume_price(high, low, volume, price):
    if high == low:
        raise errors.ZeroRange(f"high == low == {high}: price range is zero")
    if volume == 0:
        raise errors.ZeroVolume("volume is zero")
    if price <= 0:
        raise errors.NonPositivePrice(f"price must be positive, got {price}")


def _lix_ratio(volume, price, high, low):
    # Consideration over range, for floats and float64 arrays alike.
    return volume * price / (high - low)


def lix_daily(bar: DailyBar) -> LiquidityIndex:
    """Daily liquidity index: log10(volume x close / (high - low))."""
    _check_range_volume_price(bar.high, bar.low, bar.volume, bar.close)
    value = _log10(_lix_ratio(bar.volume, bar.close, bar.high, bar.low))
    return LiquidityIndex(value, LixKind.DAILY)


def lix_daily_many(bars: Bars) -> list:
    """Daily LIX of every bar, in order: the value of lix_daily(bar), or the
    LixError it raises for that bar."""
    with np.errstate(all="ignore"):  # undefined days are rerun one by one
        ratio = _lix_ratio(bars.volume, bars.close, bars.high, bars.low)
    checked = (bars.high != bars.low) & (bars.volume != 0) & (bars.close > 0)
    out = []
    for i, (x, ok) in enumerate(zip(ratio.tolist(), checked.tolist())):
        try:
            out.append(_log10(x) if ok else lix_daily(bars[i]).value)
        except errors.LixError as exc:
            out.append(exc)
    return out


def lix_intraday_raw(w: IntradayWindow) -> LiquidityIndex:
    """Unscaled intraday index over [0, t]; not comparable across windows.

    Use time_scale_to_daily to map the result onto the daily scale.
    """
    _check_range_volume_price(w.high_t, w.low_t, w.cum_volume, w.last_price)
    value = _log10(_lix_ratio(w.cum_volume, w.last_price, w.high_t, w.low_t))
    return LiquidityIndex(value, LixKind.INTRADAY_RAW)


def time_scale_to_daily(lix_t: LiquidityIndex | float, t: float, session_length: float,
                        params: ScalingParams = ScalingParams()) -> LiquidityIndex:
    """Map an intraday index measured over [0, t] onto the full-day scale.

    Adds (1 - alpha) * log10(T / t): the linear-volume assumption contributes
    log10(T/t) while the t**alpha range growth claws back alpha * log10(T/t).
    """
    if not (0 < t <= session_length):
        raise errors.InvalidInterval(
            f"elapsed {t} not in (0, session_length={session_length}]")
    value = as_lix_value(lix_t) + (1 - params.alpha) * math.log10(session_length / t)
    return LiquidityIndex(value, LixKind.INTRADAY_SCALED)
