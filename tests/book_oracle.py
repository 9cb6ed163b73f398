"""The order-book rule as it was written with a numpy mask and a fault table,
kept as an oracle for the one per-book pass in `lix.orderbook`.

`_book_terms` computes every book's VWAP gap, touch midprice and volume as
arrays, marks the books they are undefined on with one mask, and names each
marked book's fault in a second chain of checks; `_per_book` then walks the
books again. The one pass must give the same values under `==` and the same
faults, of the same type and with the same messages.
"""

from __future__ import annotations

import math

import numpy as np

from lix import errors
from lix.measures import _log10
from lix.orderbook import AdvContext, Books, LixiDecomposition, ScalingParams, _side_terms


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
    gap, mid, volume, faults = _book_terms(books)
    with np.errstate(all="ignore"):
        depth_ratio = volume * mid / gap
        adv_ratio = ctx.adv / volume
    scale = 1 - params.alpha
    return _per_book(books, faults, lambda x, y: _log10(x) + scale * _log10(y),
                     depth_ratio.tolist(), adv_ratio.tolist())


def lixi_decomposed_many(books: Books, ctx: AdvContext) -> list:
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
