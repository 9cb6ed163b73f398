"""Order-book snapshots and the instantaneous liquidity index (LIXI).

LIXI reads liquidity off a single book snapshot: total displayed volume
times midprice, divided by the gap between the volume-weighted ask and bid
prices (the effective spread of an order that wipes out the book). An
ADV-based correction makes the value comparable to daily LIX.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

from . import errors
from .measures import LiquidityIndex, LixKind, ScalingParams


@dataclass(frozen=True)
class BookLevel:
    price: float
    volume: float

    def __post_init__(self):
        if not (math.isfinite(self.price) and self.price > 0):
            raise errors.InvariantViolation(f"level price must be positive, got {self.price}")
        if not (math.isfinite(self.volume) and self.volume > 0):
            raise errors.InvariantViolation(f"level volume must be positive, got {self.volume}")


@dataclass(frozen=True)
class OrderBookSnapshot:
    """Bid/ask ladders at an instant; level 1 is the touch on each side.

    Each side's full available ladder is used as-is; side depths need not
    match. Sides may be empty at construction, but LIXI computations require
    both sides populated.
    """

    timestamp: float
    bids: tuple[BookLevel, ...]
    asks: tuple[BookLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "bids", tuple(self.bids))
        object.__setattr__(self, "asks", tuple(self.asks))
        for i in range(1, len(self.bids)):
            if self.bids[i].price >= self.bids[i - 1].price:
                raise errors.InvariantViolation(
                    f"bid prices not strictly descending at level {i + 1} (t={self.timestamp})")
        for i in range(1, len(self.asks)):
            if self.asks[i].price <= self.asks[i - 1].price:
                raise errors.InvariantViolation(
                    f"ask prices not strictly ascending at level {i + 1} (t={self.timestamp})")
        if self.bids and self.asks and self.asks[0].price <= self.bids[0].price:
            raise errors.CrossedBook(
                f"best ask {self.asks[0].price} <= best bid {self.bids[0].price} "
                f"(t={self.timestamp})")

    @property
    def best_bid(self) -> float:
        return self.bids[0].price

    @property
    def best_ask(self) -> float:
        return self.asks[0].price

    @property
    def mid_price(self) -> float:
        # Touch midpoint, never the VWAP midpoint.
        return (self.best_ask + self.best_bid) / 2


@dataclass(frozen=True)
class AdvContext:
    """Average daily volume plus the session length it was observed over."""

    adv: float
    window_days: int = 20
    session_length: float = 28800.0

    def __post_init__(self):
        if not (math.isfinite(self.adv) and self.adv > 0):
            raise errors.InvalidAdv(f"adv must be positive, got {self.adv}")
        if self.window_days < 1:
            raise errors.InvalidParams(f"window_days must be >= 1, got {self.window_days}")
        if self.session_length <= 0:
            raise errors.InvalidParams(
                f"session_length must be positive, got {self.session_length}")


def _side_terms(levels):
    # (VWAP, total volume) of one side, in one pass over its levels.
    total = sum(lv.volume for lv in levels)
    return sum(lv.price * lv.volume for lv in levels) / total, total


def side_vwap(levels) -> float:
    """Volume-weighted average price over one side's levels."""
    levels = tuple(levels)
    if not levels:
        raise errors.EmptySide("no levels on this side of the book")
    return _side_terms(levels)[0]


def _book_terms(book: OrderBookSnapshot):
    """(VWAP gap, touch midprice, total displayed volume) of a book."""
    if not book.bids:
        raise errors.EmptySide("bid side is empty")
    if not book.asks:
        raise errors.EmptySide("ask side is empty")
    vwap_bid, bid_volume = _side_terms(book.bids)
    vwap_ask, ask_volume = _side_terms(book.asks)
    if vwap_ask <= vwap_bid:
        raise errors.CrossedBook(
            f"ask-side VWAP {vwap_ask} <= bid-side VWAP {vwap_bid} (t={book.timestamp})")
    return vwap_ask - vwap_bid, book.mid_price, bid_volume + ask_volume


def lixi_tau(book: OrderBookSnapshot) -> LiquidityIndex:
    """Instantaneous liquidity of one snapshot, on its own (tau) time scale."""
    gap, mid, total_volume = _book_terms(book)
    return LiquidityIndex(math.log10(total_volume * mid / gap), LixKind.INSTANTANEOUS)


def lixi(book: OrderBookSnapshot, ctx: AdvContext,
         params: ScalingParams = ScalingParams()) -> LiquidityIndex:
    """LIXI made comparable to daily LIX via the ADV time equivalence.

    The book's displayed volume is expected to trade in a fraction
    (V_bid + V_ask) / ADV of the session; time-scaling that interval adds
    (1 - alpha) * log10(ADV / (V_bid + V_ask)). The correction goes negative
    when displayed volume exceeds ADV; no clamping.
    """
    gap, mid, total_volume = _book_terms(book)
    value = (math.log10(total_volume * mid / gap)
             + (1 - params.alpha) * math.log10(ctx.adv / total_volume))
    return LiquidityIndex(value, LixKind.INSTANTANEOUS)


def relative_spread(book: OrderBookSnapshot) -> float:
    """VWAP spread divided by touch midprice; dimensionless and positive."""
    gap, mid, _ = _book_terms(book)
    return gap / mid


@dataclass(frozen=True)
class LixiDecomposition:
    """Tightness / depth / activity split of LIXI at alpha = 1/2."""

    spread_term: float
    depth_term: float
    adv_term: float
    total: float


def lixi_decomposed(book: OrderBookSnapshot, ctx: AdvContext) -> LixiDecomposition:
    """LIXI as -log10(s) + log10(V_bid + V_ask)/2 + log10(ADV)/2.

    Fixed at alpha = 1/2; the total is algebraically identical to
    lixi(book, ctx, ScalingParams(0.5)).
    """
    gap, mid, total_volume = _book_terms(book)
    spread_term = -math.log10(gap / mid)
    depth_term = 0.5 * math.log10(total_volume)
    adv_term = 0.5 * math.log10(ctx.adv)
    return LixiDecomposition(spread_term, depth_term, adv_term,
                             spread_term + depth_term + adv_term)
