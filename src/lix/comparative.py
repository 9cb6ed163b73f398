"""Classical volume-based liquidity measures for side-by-side comparison.

Hui-Heubel relates the five-day relative price range to turnover of the
float; Amihud's ILLIQ averages |daily return| per dollar traded. Both use
the dollar-volume proxy close * volume per day, and both read the window's
bars as columns. A window whose products or ratios overflow has no finite
value and raises InvalidParams, as a non-finite LIX does, naming the window
by its first and last date.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .measures import Bars, _finite_index

HUI_HEUBEL_DAYS = 5  # fixed by the cited definition; not configurable


@dataclass(frozen=True)
class MultiDayWindow:
    """Consecutive daily bars for one instrument plus its share count.

    `bars` is given as Bars or as DailyBar records, and kept as Bars.
    """

    bars: Bars
    shares_outstanding: float

    def __post_init__(self):
        if not isinstance(self.bars, Bars):
            records = tuple(self.bars)
            ids = {b.instrument_id for b in records}
            if len(ids) > 1:
                raise errors.InvariantViolation(
                    f"mixed instruments in window: {sorted(ids)}")
            object.__setattr__(self, "bars", Bars.of(records))
        if not len(self.bars):
            raise errors.EmptyDataset("window has no bars")
        dates = self.bars.dates
        for prev, cur in zip(dates, dates[1:]):
            if cur <= prev:
                raise errors.InvariantViolation(
                    f"dates not strictly increasing at {cur}")
        if not (math.isfinite(self.shares_outstanding) and self.shares_outstanding > 0):
            raise errors.InvalidParams(
                f"shares_outstanding must be positive, got {self.shares_outstanding}")


def hui_heubel(w: MultiDayWindow) -> float:
    """Hui-Heubel liquidity ratio over the trailing five days.

    ((P_high - P_low) / P_low) / ($V / (M * E(P))) with P_high/P_low the
    extreme daily high/low, $V the summed close * volume, E(P) the mean
    close. Depends on shares outstanding M, hence sensitive to stale M
    around stock splits.
    """
    if len(w.bars) < HUI_HEUBEL_DAYS:
        raise errors.InsufficientData(
            f"need {HUI_HEUBEL_DAYS} bars, got {len(w.bars)}")
    recent = w.bars[-HUI_HEUBEL_DAYS:]
    span = f"{recent.dates[0]} to {recent.dates[-1]}"
    p_high = max(recent.high.tolist())
    p_low = min(recent.low.tolist())
    if p_high == p_low:
        raise errors.ZeroRange(f"{span}: no price range over the five-day window")
    if p_low <= 0:
        raise errors.NonPositivePrice(f"{span}: five-day low is {p_low}, so the "
                                      f"relative range is undefined")
    with np.errstate(over="ignore"):  # an overflowing total is inf, as with floats
        dollar_volume = sum((recent.close * recent.volume).tolist())
    if dollar_volume <= 0:
        raise errors.ZeroDollarVolume(f"{span}: zero dollar volume over the five-day window")
    mean_close = sum(recent.close.tolist()) / len(recent)
    turnover = dollar_volume / (w.shares_outstanding * mean_close)
    # A turnover that underflowed to 0 leaves the ratio without a finite value.
    return _finite_index((p_high - p_low) / p_low / turnover if turnover else math.inf,
                         f"{span}: hui_heubel")


def amihud_illiq(w: MultiDayWindow) -> float:
    """Amihud illiquidity: mean over days of |simple return| / dollar volume.

    A volatile day whose close matches the previous close contributes zero,
    which is exactly the pathology the range-based index avoids.
    """
    bars = w.bars
    if len(bars) < 2:
        raise errors.InsufficientData("need at least 2 bars for a return")
    with np.errstate(over="ignore"):  # an overflowing product is inf, as with floats
        dollar_volume = bars.close[1:] * bars.volume[1:]
    unpriced = (dollar_volume <= 0).nonzero()[0].tolist()
    if bars.close[0] == 0 and unpriced[:1] != [0]:
        raise errors.NonPositivePrice(
            f"close is zero on {bars.dates[0]}, so the next day's return is undefined")
    if unpriced:
        raise errors.ZeroDollarVolume(f"zero dollar volume on {bars.dates[unpriced[0] + 1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as with floats
        terms = np.abs(bars.close[1:] / bars.close[:-1] - 1.0) / dollar_volume
    # Summed in day order, as a running total.
    return _finite_index(np.add.accumulate(terms)[-1].item() / len(terms),
                         f"{bars.dates[0]} to {bars.dates[-1]}: amihud_illiq")
