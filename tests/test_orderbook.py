import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lix import (AdvContext, BookLevel, Books, OrderBookSnapshot, ScalingParams,
                 errors, lixi, lixi_decomposed, lixi_decomposed_many, lixi_many,
                 lixi_tau, relative_spread, side_vwap)
import book_oracle
from conftest import make_book


def random_book_strategy():
    level_count = st.integers(min_value=1, max_value=8)

    @st.composite
    def books(draw):
        mid = draw(st.floats(min_value=1.0, max_value=1000.0))
        half_spread = draw(st.floats(min_value=1e-4, max_value=0.4)) * mid
        n_bid = draw(level_count)
        n_ask = draw(level_count)
        tick = half_spread / 10
        bids = [(mid - half_spread - i * tick,
                 draw(st.floats(min_value=1, max_value=1e6)))
                for i in range(n_bid)]
        asks = [(mid + half_spread + i * tick,
                 draw(st.floats(min_value=1, max_value=1e6)))
                for i in range(n_ask)]
        return make_book(bids, asks)

    return books()


class TestSideVwap:
    def test_single_level(self):
        assert side_vwap([BookLevel(101, 1000)]) == 101

    def test_two_levels(self):
        got = side_vwap([BookLevel(101, 1000), BookLevel(102, 3000)])
        assert got == pytest.approx(101.75, abs=1e-12)

    def test_empty(self):
        with pytest.raises(errors.EmptySide):
            side_vwap([])

    @pytest.mark.parametrize("levels, message", [
        ([BookLevel(1e300, 1e300), BookLevel(9e299, 1e300)], "VWAP must be finite, got inf"),
        ([BookLevel(2.0, 1e308), BookLevel(1.0, 1e308)], "VWAP must be finite, got nan"),
        ([BookLevel(1e-300, 1e-300)], "VWAP must be positive, got 0.0")],
        ids=["value_overflow", "volume_overflow", "value_underflow"])
    def test_undefined_vwap(self, levels, message):
        with pytest.raises(errors.InvalidParams, match=f"^{message}$"):
            side_vwap(levels)


class TestLixiTau:
    def test_reference(self):
        book = make_book([(99, 1000)], [(101, 1000)])
        assert lixi_tau(book).value == pytest.approx(5.0, abs=1e-12)

    def test_small_book(self):
        book = make_book([(99.5, 1)], [(100.5, 1)])
        assert lixi_tau(book).value == pytest.approx(math.log10(200), abs=1e-12)

    def test_crossed_book_rejected_at_construction(self):
        with pytest.raises(errors.CrossedBook):
            make_book([(100, 10)], [(100, 10)])

    def test_one_bid_level_against_two_ask_levels(self):
        # bid VWAP 100 against ask VWAP 100.15: the VWAPs do not cross
        book = make_book([(100, 1000)], [(100.1, 1), (100.2, 1)])
        assert lixi_tau(book).value > 0  # sanity: valid book computes

    def test_empty_side(self):
        book = make_book([(99, 1000)], [])
        with pytest.raises(errors.EmptySide):
            lixi_tau(book)

    @given(k=st.floats(min_value=1e-3, max_value=1e3))
    def test_currency_invariance(self, k):
        base = lixi_tau(make_book([(99, 1000), (98, 500)],
                                  [(101, 1000), (102, 500)])).value
        scaled = lixi_tau(make_book([(99 * k, 1000), (98 * k, 500)],
                                    [(101 * k, 1000), (102 * k, 500)])).value
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_depth_monotonicity(self):
        # mirrored symmetric additions keep the VWAP spread fixed while
        # adding displayed volume; the index must not decrease
        base = make_book([(99, 1000)], [(101, 1000)])
        deeper = make_book([(99, 1000), (98, 500), (100, 500)][:1] + [],
                           [(101, 1000)])
        grown = make_book([(99, 2000)], [(101, 2000)])
        assert lixi_tau(grown).value >= lixi_tau(base).value

    def test_vwap_ordering(self):
        book = make_book([(99, 1000), (98, 2000)], [(101, 1000), (103, 2000)])
        vb, va = side_vwap(book.bids), side_vwap(book.asks)
        assert va >= book.best_ask >= book.mid_price >= book.best_bid >= vb


class TestLixi:
    def test_reference(self):
        book = make_book([(99, 1000)], [(101, 1000)])
        got = lixi(book, AdvContext(4000), ScalingParams(0.5))
        assert got.value == pytest.approx(5.150515, abs=1e-6)

    def test_adv_equal_to_depth_is_identity(self):
        book = make_book([(99, 1000)], [(101, 1000)])
        assert lixi(book, AdvContext(2000)).value == lixi_tau(book).value

    def test_negative_correction_allowed(self):
        book = make_book([(99, 5000)], [(101, 5000)])
        got = lixi(book, AdvContext(4000), ScalingParams(0.5))
        assert got.value < lixi_tau(book).value

    def test_invalid_adv(self):
        with pytest.raises(errors.InvalidAdv):
            AdvContext(0)
        with pytest.raises(errors.InvalidAdv):
            AdvContext(-10)


class TestRelativeSpread:
    def test_reference(self):
        assert relative_spread(make_book([(99, 1000)], [(101, 1000)])) \
            == pytest.approx(0.02, abs=1e-12)

    def test_tight(self):
        assert relative_spread(make_book([(99.99, 1)], [(100.01, 1)])) \
            == pytest.approx(0.0002, abs=1e-12)


class TestDecomposition:
    def test_reference_terms(self):
        d = lixi_decomposed(make_book([(99, 1000)], [(101, 1000)]),
                            AdvContext(4000))
        assert d.spread_term == pytest.approx(1.69897, abs=1e-5)
        assert d.depth_term == pytest.approx(1.650515, abs=1e-6)
        assert d.adv_term == pytest.approx(1.80103, abs=1e-5)
        assert d.total == pytest.approx(5.150515, abs=1e-6)

    def test_unit_spread_book(self):
        d = lixi_decomposed(make_book([(0.5, 10)], [(1.5, 10)]), AdvContext(20))
        assert d.spread_term == pytest.approx(0.0, abs=1e-12)
        assert d.depth_term == pytest.approx(0.5 * math.log10(20), abs=1e-12)
        assert d.adv_term == d.depth_term

    @given(book=random_book_strategy(),
           adv=st.floats(min_value=1, max_value=1e9))
    def test_identity_with_lixi(self, book, adv):
        ctx = AdvContext(adv)
        d = lixi_decomposed(book, ctx)
        assert d.total == pytest.approx(lixi(book, ctx, ScalingParams(0.5)).value,
                                        abs=1e-12)


def _reference_terms(book):
    # The per-level formulas LIXI was first written with: one pass per side,
    # summing level by level.
    def side(levels):
        total = weighted = 0.0
        for lv in levels:
            total += lv.volume
            weighted += lv.price * lv.volume
        return weighted / total, total
    vwap_bid, bid_volume = side(book.bids)
    vwap_ask, ask_volume = side(book.asks)
    return vwap_ask - vwap_bid, book.mid_price, bid_volume + ask_volume


def _rule_books(rng, n, depth=3):
    """n seeded books, valid as read_books would read them, that reach every
    check of the book rule.

    Price scales of 1e-300, 1 and 1e300 times side volume scales of 1e-300,
    1, 1e300 and 1e308 make price x volume underflow to 0 or overflow to inf,
    and two levels of 1e308 overflow a side's volume (a nan or 0 VWAP). A
    side of 0 levels is empty. One book in four has one level a side, its
    ask one ulp above its bid, so rounding can cross its VWAPs."""
    mid = rng.choice([1e-300, 1.0, 1e300], (n, 1, 1)) * rng.uniform(1, 10, (n, 1, 1))
    step = rng.uniform(1e-4, 0.3, (n, 1, 1)) * np.arange(1, depth + 1)
    price = mid * (1 + np.array([[-1 / (depth + 1)], [1.0]]) * step)
    volume = (rng.choice([1e-300, 1.0, 1e300, 1e308], (n, 2, 1))
              * rng.uniform(0.5, 1.5, (n, 2, depth)))
    tick = rng.random(n) < 1 / 4
    price[tick, 1, 0] = np.nextafter(price[tick, 0, 0], np.inf)
    levels = np.where(tick[:, None], 1, rng.integers(0, depth + 1, (n, 2)))
    padded = np.arange(depth) >= levels[:, :, None]
    price[padded] = volume[padded] = 0.0
    return Books(np.sort(rng.uniform(0, 1e5, n)), price, volume)


def _outcome(result):
    if isinstance(result, errors.LixError):
        return type(result), str(result)
    return result


def _branch(result):
    if isinstance(result, errors.CrossedBook):
        return "CrossedBook"
    if isinstance(result, errors.LixError):
        return str(result).rsplit(" (t=", 1)[0]
    return "defined"


class TestBookOracle:
    """The one per-book pass against book_oracle, the mask and fault table
    it replaced."""

    def test_random_books(self):
        rng = np.random.default_rng(25)
        books = _rule_books(rng, 10_000)
        live = books.volume > 0
        assert not BookLevel.rejects(books.price[live], books.volume[live]).any()
        assert not OrderBookSnapshot.rejects(books.price, books.volume).any()
        ctx, params = AdvContext(float(rng.lognormal(10, 2))), ScalingParams(0.6)
        want = book_oracle.lixi_many(books, ctx, params)
        assert list(map(_outcome, lixi_many(books, ctx, params))) == list(map(_outcome, want))
        assert (list(map(_outcome, lixi_decomposed_many(books, ctx)))
                == list(map(_outcome, book_oracle.lixi_decomposed_many(books, ctx))))
        assert {"defined", "bid side is empty", "ask side is empty", "CrossedBook",
                *(f"{side}-side VWAP must be {check}" for side in ("bid", "ask")
                  for check in ("finite, got inf", "finite, got nan", "positive, got 0.0")),
                } <= set(map(_branch, want))


def _random_books(rng, n):
    books = []
    for t in range(n):
        mid = float(rng.lognormal(3, 2))
        half = mid * float(rng.uniform(1e-5, 0.3))
        tick = half / 20
        depth = rng.integers(1, 13, 2)
        books.append(make_book(
            [(mid - half - i * tick, float(rng.lognormal(5, 3))) for i in range(depth[0])],
            [(mid + half + i * tick, float(rng.lognormal(5, 3))) for i in range(depth[1])],
            timestamp=float(t)))
    return books


class TestBooksKernel:
    def test_values_equal_per_level_formulas(self):
        rng = np.random.default_rng(8)
        snaps = _random_books(rng, 300)
        ctx = AdvContext(float(rng.lognormal(10, 2)))
        books = Books.of(snaps)
        values = lixi_many(books, ctx, ScalingParams(0.6))
        parts = lixi_decomposed_many(books, ctx)
        for snap, value, d in zip(snaps, values, parts):
            gap, mid, volume = _reference_terms(snap)
            assert value == (math.log10(volume * mid / gap)
                             + (1 - 0.6) * math.log10(ctx.adv / volume))
            assert value == lixi(snap, ctx, ScalingParams(0.6)).value
            assert lixi_tau(snap).value == math.log10(volume * mid / gap)
            assert relative_spread(snap) == gap / mid
            assert d == lixi_decomposed(snap, ctx)
            assert d.spread_term == -math.log10(gap / mid)
            assert d.depth_term == 0.5 * math.log10(volume)

    def test_books_pad_unequal_sides_and_give_records_back(self):
        snaps = [make_book([(99, 1)], [(101, 2), (102, 3)], timestamp=1.0),
                 make_book([(98, 4), (97, 5), (96, 6)], [], timestamp=2.0)]
        books = Books.of(snaps)
        assert books.volume[:, 0].tolist() == [[1, 0, 0], [4, 5, 6]]
        assert books.price[:, 1].tolist() == [[101, 102, 0], [0, 0, 0]]
        assert [books[0], books[1]] == snaps

    def test_undefined_books_give_their_error_in_place(self):
        # In the fourth book price x volume underflows to 0 on both sides. The
        # fifth has one level a side, its ask one ulp above its bid, and
        # rounding in price x volume / volume crosses its VWAPs.
        snaps = [make_book([(99, 1)], [(101, 1)]), make_book([(99, 1)], []),
                 make_book([], [(101, 1)]),
                 make_book([(0.0005, 5e-324)], [(0.0015, 5e-324)], timestamp=3.0),
                 make_book([(90.24131830353687, 30590.079974555232)],
                           [(90.24131830353689, 25445.9584488747)], timestamp=4.0),
                 make_book([(100, 1000)], [(100.5, 1)])]
        got = lixi_many(Books.of(snaps), AdvContext(10))
        assert [(type(v).__name__, str(v)) for v in got[1:5]] == [
            ("EmptySide", "ask side is empty (t=0.0)"),
            ("EmptySide", "bid side is empty (t=0.0)"),
            ("InvalidParams", "bid-side VWAP must be positive, got 0.0 (t=3.0)"),
            ("CrossedBook", "ask-side VWAP 90.24131830353687 <= bid-side VWAP "
                            "90.24131830353687 (t=4.0)")]
        assert got[0] == lixi(snaps[0], AdvContext(10)).value
        assert got[5] == lixi(snaps[5], AdvContext(10)).value

    def test_non_positive_touch_midprice_names_its_book(self):
        # Hand-built arrays, as neither read_books nor Books.of builds them:
        # positive VWAPs on touch prices -5 and 1, then -5 and 5.
        price = np.array([[[-5.0, 200.0], [1.0, 300.0]], [[-5.0, 200.0], [5.0, 300.0]]])
        books = Books(np.array([1.0, 2.0]), price, np.ones_like(price))
        for f in (lixi_many, lixi_decomposed_many):
            assert [(type(v), str(v)) for v in f(books, AdvContext(10))] == [
                (errors.NonPositivePrice, "touch midprice must be positive, got -2.0 (t=1.0)"),
                (errors.NonPositivePrice, "touch midprice must be positive, got 0.0 (t=2.0)")]

    def test_level_rejects_matches_the_constructor(self):
        pool = [-1.0, 0.0, 5e-324, 1.0, math.inf, -math.inf, math.nan]
        pairs = np.array([(p, v) for p in pool for v in pool]).T
        for refused, (p, v) in zip(BookLevel.rejects(*pairs).tolist(), pairs.T.tolist()):
            try:
                BookLevel(p, v)
            except errors.InvariantViolation:
                assert refused, (p, v)
            else:
                assert not refused, (p, v)

    def test_snapshot_rejects_matches_the_constructor(self):
        # Sides of 0-3 levels priced from a few ticks, so unordered ladders,
        # equal levels and crossed touches are all common.
        rng = np.random.default_rng(12)
        n, depth = 2000, 3
        price = rng.choice([1.0, 2.0, 3.0, 4.0], size=(n, 2, depth))
        volume = rng.choice([0.5, 7.0], size=(n, 2, depth))
        padded = np.arange(depth) >= rng.integers(0, depth + 1, size=(n, 2, 1))
        price[padded] = volume[padded] = 0.0
        books = Books(np.arange(n, dtype=float), price, volume)
        mask = OrderBookSnapshot.rejects(price, volume)
        for i, refused in enumerate(mask.tolist()):
            try:
                books[i]
            except errors.LixError:
                assert refused, books.price[i].tolist()
            else:
                assert not refused, books.price[i].tolist()
        assert 0 < mask.sum() < n

    def test_non_finite_terms_name_their_book(self):
        # The second book's VWAP spread over its tiny midprice overflows, and
        # its displayed volume x midprice over that spread underflows.
        books = Books.of([make_book([(99, 1)], [(101, 1)]),
                          make_book([(1e-300, 1)], [(2e-300, 1), (1e290, 1e10)],
                                    timestamp=2.5)])
        value, decomposed = (f(books, AdvContext(10))[1]
                             for f in (lixi_many, lixi_decomposed_many))
        assert (type(value), str(value)) == (
            errors.InvalidParams, "liquidity index must be finite, got -inf (t=2.5)")
        assert (type(decomposed), str(decomposed)) == (
            errors.InvalidParams, "liquidity index must be finite, got inf (t=2.5)")

    def test_overflowing_vwap_is_not_crossed(self):
        book = make_book([(1e300, 1e300), (9e299, 1e300)], [(1.1e300, 1e300)])
        with pytest.raises(errors.InvalidParams, match=r"^bid-side VWAP must be finite, "
                           r"got inf \(t=0\.0\)$"):
            lixi_tau(book)

    def test_underflowing_adv_term_rejected(self):
        book = make_book([(99, 1e300)], [(101, 1e300)])
        with pytest.raises(errors.InvalidParams, match="got -inf"):
            lixi(book, AdvContext(1e-30))
