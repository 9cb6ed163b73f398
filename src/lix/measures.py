"""Daily and intraday liquidity index (LIX) and its time scaling.

LIX is the base-10 log of consideration (volume x price) divided by the
price range over the measurement interval. Intraday values are mapped onto
the daily scale by assuming volume grows linearly with elapsed session time
while the price range grows like t**alpha (alpha = 1/2 for a random walk).
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass

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
        if not math.isfinite(self.value):
            raise errors.InvalidParams(f"liquidity index must be finite, got {self.value}")


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


def lix_daily(bar: DailyBar) -> LiquidityIndex:
    """Daily liquidity index: log10(volume x close / (high - low))."""
    _check_range_volume_price(bar.high, bar.low, bar.volume, bar.close)
    value = math.log10(bar.volume * bar.close / (bar.high - bar.low))
    return LiquidityIndex(value, LixKind.DAILY)


def lix_intraday_raw(w: IntradayWindow) -> LiquidityIndex:
    """Unscaled intraday index over [0, t]; not comparable across windows.

    Use time_scale_to_daily to map the result onto the daily scale.
    """
    _check_range_volume_price(w.high_t, w.low_t, w.cum_volume, w.last_price)
    value = math.log10(w.cum_volume * w.last_price / (w.high_t - w.low_t))
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
