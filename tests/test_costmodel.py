import pytest
from hypothesis import given, strategies as st

from lix import (ExecutionPlan, cost_per_unit, cost_single_shot, cost_sliced,
                 errors, price_impact)

plans = st.builds(
    ExecutionPlan,
    shares=st.floats(min_value=1, max_value=1e8),
    price=st.floats(min_value=0.01, max_value=1e4),
    lix=st.floats(min_value=0, max_value=12),
    slice_interval=st.floats(min_value=1, max_value=28800),
    session_length=st.just(28800.0),
    alpha=st.floats(min_value=0.1, max_value=1.0),
)


def plan(**kw):
    base = dict(shares=1, price=1, lix=0.0, slice_interval=100,
                session_length=100, alpha=0.5)
    base.update(kw)
    return ExecutionPlan(**base)


class TestPriceImpact:
    def test_inverts_daily_index(self):
        p = plan(shares=10_000_000, price=50, lix=8.698970004336019,
                 slice_interval=28800, session_length=28800)
        assert price_impact(p) == pytest.approx(1.0, rel=1e-12)

    def test_unit(self):
        assert price_impact(plan()) == 1.0

    def test_time_compression_doubles_impact(self):
        p = plan(shares=10_000_000, price=50, lix=8.698970004336019,
                 slice_interval=7200, session_length=28800)
        assert price_impact(p) == pytest.approx(2.0, rel=1e-12)


class TestCosts:
    def test_single_shot(self):
        assert cost_single_shot(plan(shares=2)) == pytest.approx(2.0)
        assert cost_single_shot(plan(shares=1)) == pytest.approx(0.5)

    def test_sliced(self):
        assert cost_sliced(plan(shares=2)) == pytest.approx(1.0)
        assert cost_sliced(plan(shares=1)) == cost_single_shot(plan(shares=1))
        p = plan(shares=100, price=50, lix=8.698970004336019,
                 slice_interval=28800, session_length=28800)
        assert cost_sliced(p) == pytest.approx(5e-6, rel=1e-9)

    def test_per_unit(self):
        assert cost_per_unit(plan(lix=0)) == 0.5
        assert cost_per_unit(plan(lix=6)) == pytest.approx(5e-7, rel=1e-12)
        p = plan(lix=6, slice_interval=25, session_length=100)
        assert cost_per_unit(p) == pytest.approx(1e-6, rel=1e-12)


class TestIdentities:
    @given(p=plans)
    def test_single_shot_is_n_times_sliced(self, p):
        assert cost_single_shot(p) == pytest.approx(p.shares * cost_sliced(p),
                                                    rel=1e-12)

    @given(p=plans)
    def test_sliced_is_notional_times_per_unit(self, p):
        assert cost_sliced(p) == pytest.approx(
            p.shares * p.price * cost_per_unit(p), rel=1e-12)

    @given(p=plans)
    def test_costs_positive(self, p):
        assert price_impact(p) > 0
        assert cost_single_shot(p) > 0
        assert cost_sliced(p) > 0
        assert cost_per_unit(p) > 0

    def test_per_unit_independent_of_size_and_price(self):
        values = {cost_per_unit(plan(shares=n, price=p, lix=7))
                  for n in (1, 100, 1e6) for p in (0.5, 50, 5000)}
        assert len(values) == 1

    def test_per_unit_decreasing_in_lix(self):
        xs = [cost_per_unit(plan(lix=l)) for l in (0, 2, 5, 8, 11)]
        assert xs == sorted(xs, reverse=True)


class TestValidation:
    def test_bad_interval(self):
        with pytest.raises(errors.InvalidInterval):
            plan(slice_interval=0)
        with pytest.raises(errors.InvalidInterval):
            plan(slice_interval=200, session_length=100)

    def test_bad_shares_price(self):
        with pytest.raises(errors.InvalidParams):
            plan(shares=0)
        with pytest.raises(errors.NonPositivePrice):
            plan(price=0)

    @pytest.mark.parametrize("fn", [price_impact, cost_single_shot,
                                    cost_sliced, cost_per_unit])
    def test_underflowed_index_rejected(self, fn):
        # 10^-400 is 0.0 and 10^400 overflows: no cost is representable
        with pytest.raises(errors.InvalidParams, match="finite"):
            fn(plan(lix=-400))

    def test_overflowing_cost_rejected(self):
        with pytest.raises(errors.InvalidParams, match="finite"):
            cost_single_shot(plan(shares=1e200))  # shares ** 2 overflows
        with pytest.raises(errors.InvalidParams, match="finite"):
            price_impact(plan(shares=1e300, price=1e10))  # inf, no exception
        assert price_impact(plan(shares=1e200)) == 1e200
