"""Order-book snapshots and the instantaneous liquidity index (LIXI).

LIXI reads liquidity off a single book snapshot: total displayed volume
times midprice, divided by the gap between the volume-weighted ask and bid
prices (the effective spread of an order that wipes out the book). An
ADV-based correction makes the value comparable to daily LIX.

`Books` holds many snapshots as arrays, one (n_books, depth) price and
volume array per side. One kernel computes each book's VWAP gap, touch
midprice and total volume; `lixi_many` and `lixi_decomposed_many` read it
for a whole file, and `lixi_tau`, `lixi`, `relative_spread` and
`lixi_decomposed` are its views on one `OrderBookSnapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import errors
from .measures import LiquidityIndex, LixKind, ScalingParams, _log10


@dataclass(frozen=True)
class BookLevel:
    price: float
    volume: float

    def __post_init__(self):
        if not (math.isfinite(self.price) and self.price > 0):
            raise errors.InvariantViolation(f"level price must be positive, got {self.price}")
        if not (math.isfinite(self.volume) and self.volume > 0):
            raise errors.InvariantViolation(f"level volume must be positive, got {self.volume}")

    @staticmethod
    def rejects(price, volume):
        """Where the checks above fail, over float64 arrays of levels: the
        mask of the levels a BookLevel of those values would refuse.

        `data_io.read_books` uses it in its bulk check of a file. When it
        flags a level, the reader walks the rows in file order, and the
        first fault is named by a field check, the duplicate check or this
        constructor."""
        return ~(np.isfinite(price) & (price > 0) & np.isfinite(volume) & (volume > 0))


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

    @staticmethod
    def rejects(price, volume):
        """Where the checks above fail, over (n_books, 2, depth) arrays laid
        out as in Books, whose levels BookLevel accepts: the mask of the
        books whose levels an OrderBookSnapshot would refuse.

        `data_io.read_books` applies it once the rows have passed the bulk
        check. The first flagged book before any gap in levels is built as
        a record, whose constructor names the fault."""
        ladder = price * np.array([[-1.0], [1.0]])  # negated, bids ascend like asks
        return (((volume[:, :, 1:] > 0) & (ladder[:, :, 1:] <= ladder[:, :, :-1])).any(axis=(1, 2))
                | ((volume[:, :, 0] > 0).all(axis=1) & (price[:, 1, 0] <= price[:, 0, 0])))

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
    """Average daily volume for LIXI's ADV term, (1 - alpha) * log10(ADV / V).

    The session length cancels from that term, so it is not needed here.
    """

    adv: float

    def __post_init__(self):
        if not (math.isfinite(self.adv) and self.adv > 0):
            raise errors.InvalidAdv(f"adv must be positive, got {self.adv}")


@dataclass(frozen=True, eq=False)
class Books:
    """Order-book snapshots as arrays, in ascending timestamp order.

    `timestamps` has shape (n_books,). `price` and `volume` have shape
    (n_books, 2, depth >= 1): side 0 holds the bids and side 1 the asks,
    so `price[:, 0]` is the bid side's (n_books, depth) array, level 1 in
    column 0. A side with fewer than `depth` levels is padded with zero
    price and zero volume, so its levels are the leading columns with
    positive volume. The arrays are not checked here: build Books with
    `data_io.read_books`, which checks every level and book as BookLevel
    and OrderBookSnapshot do, or with `Books.of` from snapshot records.
    Indexing gives an OrderBookSnapshot record.
    """

    timestamps: np.ndarray
    price: np.ndarray
    volume: np.ndarray

    @classmethod
    def of(cls, snapshots) -> "Books":
        """Arrays of snapshot records, kept in their order."""
        snapshots = tuple(snapshots)
        depth = max([1] + [max(len(s.bids), len(s.asks)) for s in snapshots])
        cells = []
        for s in snapshots:
            for ladder in (s.bids, s.asks):
                for lv in ladder:
                    cells += (lv.price, lv.volume)
                cells += (0.0, 0.0) * (depth - len(ladder))
        cells = np.array(cells, dtype=float).reshape(len(snapshots), 2, depth, 2)
        return cls(np.array([s.timestamp for s in snapshots], dtype=float),
                   cells[..., 0], cells[..., 1])

    def __len__(self) -> int:
        return len(self.timestamps)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, i: int) -> OrderBookSnapshot:
        bids, asks = (tuple(BookLevel(p, v) for p, v in zip(prices, volumes) if v > 0)
                      for prices, volumes in zip(self.price[i].tolist(),
                                                 self.volume[i].tolist()))
        return OrderBookSnapshot(float(self.timestamps[i]), bids, asks)


def _side_terms(prices, volumes):
    # (VWAP, total volume) of each side of each book, shape (n_books, 2).
    # np.add.accumulate sums level by level from level 1, as a sequential
    # sum over the side's levels would; the padding adds exact zeros. Overflow
    # and an empty side are left to the callers' checks, as with Python floats.
    with np.errstate(all="ignore"):
        value = np.add.accumulate(prices * volumes, axis=2)[..., -1]
        total = np.add.accumulate(volumes, axis=2)[..., -1]
        return value / total, total


def side_vwap(levels) -> float:
    """Volume-weighted average price over one side's levels."""
    levels = tuple(levels)
    if not levels:
        raise errors.EmptySide("no levels on this side of the book")
    vwap, _ = _side_terms(np.array([[[lv.price for lv in levels]]]),
                          np.array([[[lv.volume for lv in levels]]]))
    return vwap.item()


def _at(books: Books, i: int) -> str:
    return f"(t={books.timestamps[i].item()})"


def _book_terms(books: Books):
    """(VWAP gap, touch midprice, total displayed volume) of every book, as
    float64 arrays, and {index: LixError} for the books they are undefined on."""
    vwap, side_volume = _side_terms(books.price, books.volume)
    vwap_bid, vwap_ask = vwap.T
    bid_volume, ask_volume = side_volume.T
    with np.errstate(all="ignore"):
        gap = vwap_ask - vwap_bid
        mid = (books.price[:, 1, 0] + books.price[:, 0, 0]) / 2
        volume = bid_volume + ask_volume
        undefined = ((bid_volume == 0) | (ask_volume == 0)
                     | ~(np.isfinite(vwap) & (vwap > 0)).all(axis=1) | (vwap_ask <= vwap_bid))
    faults = {}
    for i in undefined.nonzero()[0].tolist():
        at = _at(books, i)
        if bid_volume[i] == 0:
            faults[i] = errors.EmptySide(f"bid side is empty {at}")
        elif ask_volume[i] == 0:
            faults[i] = errors.EmptySide(f"ask side is empty {at}")
        elif not math.isfinite(vwap_bid[i]):
            faults[i] = errors.InvalidParams(
                f"bid-side VWAP must be finite, got {vwap_bid[i].item()} {at}")
        elif not math.isfinite(vwap_ask[i]):
            faults[i] = errors.InvalidParams(
                f"ask-side VWAP must be finite, got {vwap_ask[i].item()} {at}")
        elif not vwap_bid[i] > 0:  # price x volume underflowed to 0
            faults[i] = errors.InvalidParams(
                f"bid-side VWAP must be positive, got {vwap_bid[i].item()} {at}")
        elif not vwap_ask[i] > 0:
            faults[i] = errors.InvalidParams(
                f"ask-side VWAP must be positive, got {vwap_ask[i].item()} {at}")
        else:
            faults[i] = errors.CrossedBook(
                f"ask-side VWAP {vwap_ask[i].item()} <= bid-side VWAP "
                f"{vwap_bid[i].item()} {at}")
    return gap, mid, volume, faults


def _raise_or_value(result):
    if isinstance(result, errors.LixError):
        raise result
    return result


def _one_book_terms(book: OrderBookSnapshot):
    gap, mid, volume, faults = _book_terms(Books.of([book]))
    _raise_or_value(faults.get(0))
    return gap.item(), mid.item(), volume.item()


def _per_book(books: Books, faults: dict, value, *columns) -> list:
    """value(*terms) for each book's terms in `columns`, in order; a book in
    `faults` gets its fault, and a LixError `value` raises gets the book's
    timestamp."""
    out = []
    for i, terms in enumerate(zip(*columns)):
        try:
            out.append(faults[i] if i in faults else value(*terms))
        except errors.LixError as exc:
            out.append(type(exc)(f"{exc} {_at(books, i)}"))
    return out


def lixi_many(books: Books, ctx: AdvContext,
              params: ScalingParams = ScalingParams()) -> list:
    """LIXI of every book, in order: the value of lixi(book, ctx, params), or
    the LixError it raises for that book."""
    gap, mid, volume, faults = _book_terms(books)
    with np.errstate(all="ignore"):
        depth_ratio = volume * mid / gap
        adv_ratio = ctx.adv / volume
    scale = 1 - params.alpha
    return _per_book(books, faults, lambda x, y: _log10(x) + scale * _log10(y),
                     depth_ratio.tolist(), adv_ratio.tolist())


def lixi_tau(book: OrderBookSnapshot) -> LiquidityIndex:
    """Instantaneous liquidity of one snapshot, on its own (tau) time scale."""
    gap, mid, total_volume = _one_book_terms(book)
    return LiquidityIndex(_log10(total_volume * mid / gap), LixKind.INSTANTANEOUS)


def lixi(book: OrderBookSnapshot, ctx: AdvContext,
         params: ScalingParams = ScalingParams()) -> LiquidityIndex:
    """LIXI made comparable to daily LIX via the ADV time equivalence.

    The book's displayed volume is expected to trade in a fraction
    (V_bid + V_ask) / ADV of the session; time-scaling that interval adds
    (1 - alpha) * log10(ADV / (V_bid + V_ask)). The correction goes negative
    when displayed volume exceeds ADV; no clamping.
    """
    value = _raise_or_value(lixi_many(Books.of([book]), ctx, params)[0])
    return LiquidityIndex(value, LixKind.INSTANTANEOUS)


def relative_spread(book: OrderBookSnapshot) -> float:
    """VWAP spread divided by touch midprice; dimensionless and positive."""
    gap, mid, _ = _one_book_terms(book)
    return gap / mid


@dataclass(frozen=True)
class LixiDecomposition:
    """Tightness / depth / activity split of LIXI at alpha = 1/2."""

    spread_term: float
    depth_term: float
    adv_term: float
    total: float


def lixi_decomposed_many(books: Books, ctx: AdvContext) -> list:
    """LixiDecomposition of every book, in order, or the LixError
    lixi_decomposed raises for that book."""
    gap, mid, volume, faults = _book_terms(books)
    with np.errstate(all="ignore"):
        spread = gap / mid
    adv_term = 0.5 * _log10(ctx.adv)

    def decomposed(s, v):
        spread_term = -_log10(s)
        depth_term = 0.5 * _log10(v)
        return LixiDecomposition(spread_term, depth_term, adv_term,
                                 spread_term + depth_term + adv_term)
    return _per_book(books, faults, decomposed, spread.tolist(), volume.tolist())


def lixi_decomposed(book: OrderBookSnapshot, ctx: AdvContext) -> LixiDecomposition:
    """LIXI as -log10(s) + log10(V_bid + V_ask)/2 + log10(ADV)/2.

    Fixed at alpha = 1/2; the total is algebraically identical to
    lixi(book, ctx, ScalingParams(0.5)).
    """
    return _raise_or_value(lixi_decomposed_many(Books.of([book]), ctx)[0])
