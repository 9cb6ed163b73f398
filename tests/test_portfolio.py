import io
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import basket_oracle
from lix import (BasketPosition, BasketSpec, LiquidityIndex, LixKind, Positions,
                 basket_lix, basket_with_etf_lix, cost_per_unit_value, errors,
                 parse_basket_positions, portfolio, venue_combine)
from lix.cli import main

lix_values = st.floats(min_value=-5, max_value=15, allow_nan=False)
weights = st.floats(min_value=1e-6, max_value=1.0)


def spec_of(*pairs, etf=None, strict=False):
    positions = [BasketPosition(f"I{i}", beta, lv)
                 for i, (beta, lv) in enumerate(pairs)]
    return BasketSpec.build(positions, etf_lix=etf, strict=strict)


basket_specs = st.lists(st.tuples(weights, lix_values), min_size=1, max_size=8) \
    .map(lambda pairs: spec_of(*pairs))


def _reference_neg_log10_weighted_inverse(pairs):
    # -log10(sum beta * 10^-L) as the algebra was first written, rescaled
    # around the smallest L.
    lmin = min(lv for _, lv in pairs)
    total = math.fsum(beta * 10.0 ** (lmin - lv) for beta, lv in pairs)
    return lmin - math.log10(total)


def _reference_log10_sum_of_powers(values):
    # log10(sum 10^L), rescaled around the largest L.
    lmax = max(values)
    total = math.fsum(10.0 ** (lv - lmax) for lv in values)
    return lmax + math.log10(total)


class TestBasketLix:
    def test_single_instrument(self):
        assert basket_lix(spec_of((1.0, 7.0))).value == pytest.approx(7.0, abs=1e-12)

    def test_equal_liquidity_any_split(self):
        assert basket_lix(spec_of((0.3, 8.0), (0.7, 8.0))).value \
            == pytest.approx(8.0, abs=1e-12)

    def test_mixed_liquidity(self):
        got = basket_lix(spec_of((0.5, 6.0), (0.5, 9.0))).value
        assert got == pytest.approx(-math.log10(5e-7 + 5e-10), abs=1e-12)
        assert got == pytest.approx(6.30060, abs=1e-5)

    def test_illiquid_floor_bound(self):
        # equal weights, LIX2 >> LIX1: basket sits just under LIX1 + log10(2),
        # short by log10(1 + 10^(L1-L2)), and clears the 0.3 floor
        got = basket_lix(spec_of((0.5, 5.0), (0.5, 12.0))).value
        assert got > 5.0 + 0.3
        assert got == pytest.approx(5.0 + math.log10(2), abs=1e-6)
        # with an extreme gap the shortfall drops below 1e-12
        extreme = basket_lix(spec_of((0.5, 5.0), (0.5, 20.0))).value
        assert extreme - 5.0 >= math.log10(2) - 1e-12

    def test_extreme_values_no_overflow(self):
        got = basket_lix(spec_of((0.5, -300.0), (0.5, 400.0))).value
        assert got == pytest.approx(-300.0 + math.log10(2), abs=1e-9)

    @given(spec=basket_specs)
    def test_bounds(self, spec):
        vals = [p.lix for p in spec.positions]
        got = basket_lix(spec).value
        assert min(vals) - 1e-9 <= got <= max(vals) + 1e-9

    @given(spec=basket_specs)
    def test_permutation_invariance(self, spec):
        reordered = BasketSpec(tuple(reversed(spec.positions)))
        assert basket_lix(reordered).value == basket_lix(spec).value

    @given(spec=basket_specs)
    def test_merge_consistency(self, spec):
        # splitting the first position into two equal halves changes nothing
        first = spec.positions[0]
        halves = (BasketPosition(first.instrument_id + "a", first.beta / 2, first.lix),
                  BasketPosition(first.instrument_id + "b", first.beta / 2, first.lix))
        split = BasketSpec(halves + spec.positions[1:])
        assert basket_lix(split).value == pytest.approx(basket_lix(spec).value,
                                                        abs=1e-12)

    @given(spec=basket_specs,
           t=st.floats(min_value=1, max_value=28800))
    def test_cost_algebra_consistency(self, spec, t):
        T = 28800.0
        weighted = sum(p.beta * cost_per_unit_value(p.lix, t, T)
                       for p in spec.positions)
        combined = cost_per_unit_value(basket_lix(spec).value, t, T)
        assert combined == pytest.approx(weighted, rel=1e-12)


class TestBasketWithEtf:
    def test_reference(self):
        got = basket_with_etf_lix(spec_of((1.0, 8.0), etf=5.0)).value
        assert got == pytest.approx(math.log10(1e8 + 1e5), abs=1e-12)
        assert got == pytest.approx(8.000434, abs=1e-6)

    def test_thin_etf_on_liquid_underlying(self):
        got = basket_with_etf_lix(spec_of((1.0, 9.0), etf=4.0)).value
        assert got == pytest.approx(math.log10(1e9 + 1e4), abs=1e-12)
        assert abs(got - 9.0) < 1e-5  # ETF as liquid as its single constituent

    def test_equal_legs(self):
        got = basket_with_etf_lix(spec_of((1.0, 7.0), etf=7.0)).value
        assert got == pytest.approx(7.30103, abs=1e-5)

    def test_missing_leg(self):
        with pytest.raises(errors.MissingEtfLeg):
            basket_with_etf_lix(spec_of((1.0, 7.0)))

    @given(spec=basket_specs, etf=lix_values)
    def test_dominates_both_legs(self, spec, etf):
        with_etf = BasketSpec(spec.positions, etf_lix=etf)
        combined = basket_with_etf_lix(with_etf).value
        legs = (basket_lix(spec).value, etf)
        assert combined >= max(legs)
        # strictness is representable only while 10^-gap stays above the
        # ulp of the larger leg; gaps within 12 decades are safely strict
        if max(legs) - min(legs) < 12:
            assert combined > max(legs)


class TestVenueCombine:
    def test_single(self):
        assert venue_combine([4.2]).value == pytest.approx(4.2, abs=1e-12)

    def test_equal_pair(self):
        assert venue_combine([7.0, 7.0]).value == pytest.approx(7.30103, abs=1e-5)

    def test_unequal_pair(self):
        assert venue_combine([8.0, 5.0]).value == pytest.approx(8.000434, abs=1e-6)

    def test_empty(self):
        with pytest.raises(errors.EmptyList):
            venue_combine([])

    @given(x=lix_values, n=st.integers(min_value=1, max_value=50))
    def test_n_equal_venues(self, x, n):
        assert venue_combine([x] * n).value == pytest.approx(x + math.log10(n),
                                                             abs=1e-12)


class TestAlgebraExactness:
    @staticmethod
    def random_lix(rng):
        return rng.choice([rng.uniform(-400, 400), rng.uniform(4, 10), 0.0, -0.0])

    def test_equals_the_reference_formulas_to_the_sign_of_zero(self):
        def same(got, want):
            return got == want and math.copysign(1, got) == math.copysign(1, want)
        rng = random.Random(2014)
        for _ in range(10_000):
            pairs = [(rng.uniform(1e-3, 2), self.random_lix(rng))
                     for _ in range(rng.randint(1, 6))]
            spec = spec_of(*pairs, etf=self.random_lix(rng))
            basket = _reference_neg_log10_weighted_inverse(
                [(p.beta, p.lix) for p in spec.positions])
            venues = [lv for _, lv in pairs]
            assert same(basket_lix(spec).value, basket), pairs
            assert same(basket_with_etf_lix(spec).value,
                        _reference_log10_sum_of_powers([basket, spec.etf_lix])), pairs
            assert same(venue_combine(venues).value,
                        _reference_log10_sum_of_powers(venues)), pairs


class TestWeights:
    def test_strict_rejects_unnormalized(self):
        pos = [BasketPosition("A", 0.5, 7.0), BasketPosition("B", 0.6, 8.0)]
        with pytest.raises(errors.UnnormalizedWeights):
            BasketSpec.build(pos, strict=True)

    @pytest.mark.parametrize("strict", [False, True])
    def test_overflowing_weight_sum_rejected(self, strict):
        pos = [BasketPosition("A", 1e308, 7.0), BasketPosition("B", 1e308, 7.0)]
        with pytest.raises(errors.InvalidParams, match="float range"):
            BasketSpec.build(pos, strict=strict)

    def test_normalize_mode(self):
        pos = [BasketPosition("A", 2.0, 7.0), BasketPosition("B", 2.0, 7.0)]
        spec = BasketSpec.build(pos)
        assert sum(p.beta for p in spec.positions) == pytest.approx(1.0, abs=1e-12)
        assert basket_lix(spec).value == pytest.approx(7.0, abs=1e-12)

    def test_weight_sum_is_the_sum_as_given(self):
        pos = [BasketPosition("A", 2.0, 7.0), BasketPosition("B", 2.0, 7.0)]
        assert BasketSpec.build(pos).weight_sum == 4.0
        assert BasketSpec.build(pos[:1], strict=False).weight_sum == 2.0

    def test_empty_basket(self):
        with pytest.raises(errors.EmptyBasket):
            BasketSpec.build([])

    def test_nonpositive_weight(self):
        with pytest.raises(errors.InvalidParams):
            BasketPosition("A", 0.0, 7.0)
        with pytest.raises(errors.InvalidParams):
            BasketPosition("A", -0.1, 7.0)


class TestPositions:
    def test_rejects_matches_the_constructor(self):
        # Few distinct values, so zero, negative, subnormal and non-finite
        # weights and values are all common.
        rng = np.random.default_rng(13)
        pool = [-1.0, -0.0, 0.0, 5e-324, 1.0, 1e308, math.inf, -math.inf, math.nan]
        rows = rng.choice(pool, size=(2, 3000))
        mask = BasketPosition.rejects(*rows)
        for refused, (beta, lix) in zip(mask.tolist(), rows.T.tolist()):
            try:
                BasketPosition("X", beta, lix)
            except errors.InvalidParams:
                assert refused, (beta, lix)
            else:
                assert not refused, (beta, lix)
        assert 0 < mask.sum() < len(mask)

    def test_records_round_trip(self):
        records = [BasketPosition("A", 0.25, 7.0),
                   BasketPosition("B", 2, LiquidityIndex(-0.0, LixKind.DAILY))]
        columns = Positions.of(records)
        assert (len(columns), list(columns), columns[1]) == (2, records, records[1])
        assert columns == Positions(["A", "B"], [0.25, 2], [7.0, records[1].lix])
        assert not Positions.of([])

    def test_a_basket_call_sums_its_positions_once(self, tmp_path, monkeypatch):
        n = 2500
        path = tmp_path / "positions.csv"
        path.write_text("instrument,beta,lix\n"
                        + "".join(f"P{i},{1 + i % 7},{4 + i % 5}\n" for i in range(n)))
        kernel, sizes = portfolio._log10_weighted_sum, []

        def counted(weights, exponents):
            sizes.append(len(exponents))
            return kernel(weights, exponents)

        monkeypatch.setattr(portfolio, "_log10_weighted_sum", counted)
        out, err = io.StringIO(), io.StringIO()
        assert main(["basket", str(path), "--etf-lix", "8.5"], out=out, err=err) == 0
        assert sizes == [n, 2]  # the basket leg once, then the ETF formula


def _signed(value):
    return value, math.copysign(1.0, value)


def _outcome(module, make, positions, etf, strict):
    """What `module`'s basket path makes of the positions: the spec's
    positions, weight sum and values with their signs, or the fault."""
    try:
        spec = module.BasketSpec.build(make(positions), etf_lix=etf, strict=strict)
        values = [module.basket_lix(spec).value]
        if etf is not None:
            values.append(module.basket_with_etf_lix(spec).value)
    except errors.LixError as exc:
        return type(exc), str(exc)
    return ([(p.instrument_id, p.beta, p.lix) for p in spec.positions],
            spec.weight_sum, list(map(_signed, values)))


def _records(module):
    return lambda rows: [module.BasketPosition(*row) for row in rows]


class TestAgainstTheRecordPath:
    """The columnar path against basket_oracle, the record path it replaced."""

    @staticmethod
    def random_lix(rng):
        value = rng.choice([rng.uniform(-400, 400), rng.uniform(4, 10), 0.0, -0.0])
        return LiquidityIndex(value, LixKind.DAILY) if rng.random() < 0.2 else value

    def random_basket(self, rng):
        n = rng.choice([1, 2, 3, 5, 8, 40])
        betas = [rng.choice([rng.uniform(1e-3, 2)] * 6 + [1e-320, 1e308, 0.0])
                 for _ in range(n)]
        strict = rng.random() < 0.3
        if strict and rng.random() < 0.7 and all(1e-3 <= b <= 2 for b in betas):
            betas = [b / math.fsum(betas) for b in betas]
        etf = rng.choice([None, -0.0, self.random_lix(rng)])
        return [(f"I{i}", b, self.random_lix(rng)) for i, b in enumerate(betas)], etf, strict

    CASES = {
        "zero": ([("A", 1.0, 0.0)], -0.0, False),
        "signed_zeros": ([("A", 0.5, 0.0), ("B", 1.5, -0.0)], -0.0, False),
        "signed_zeros_strict": ([("A", 0.25, -0.0), ("B", 0.75, 0.0)],
                                LiquidityIndex(-0.0, LixKind.DAILY), True),
        "underflow": ([("A", 1e-320, 7.0), ("B", 1e308, 7.0)], None, False),
        "subnormal": ([("A", 1e-320, 7.0), ("B", 1.0, 7.0)], 6.5, False),
        "underflow_strict": ([("A", 1e-320, 7.0), ("B", 1e308, 7.0)], None, True),
        "unnormalized_strict": ([("A", 0.5, 7.0), ("B", 0.6, LiquidityIndex(8.0, LixKind.DAILY))],
                                None, True),
        "overflow": ([("A", 1e308, 7.0), ("B", 1e308, 7.0)], 5.0, False),
        "empty": ([], 5.0, False),
    }

    @pytest.mark.parametrize("rows, etf, strict", CASES.values(), ids=CASES)
    def test_named_cases(self, rows, etf, strict):
        want = _outcome(basket_oracle, _records(basket_oracle), rows, etf, strict)
        assert _outcome(portfolio, _records(portfolio), rows, etf, strict) == want

    def test_random_baskets_from_records_and_columns(self):
        rng = random.Random(2020)
        kinds = set()
        for _ in range(10_000):
            rows, etf, strict = self.random_basket(rng)
            want = _outcome(basket_oracle, _records(basket_oracle), rows, etf, strict)
            assert _outcome(portfolio, _records(portfolio), rows, etf, strict) == want, rows
            if min(beta for _, beta, _ in rows) > 0:  # valid records: as columns too
                got = _outcome(portfolio, lambda rows: Positions(*map(list, zip(*rows))),
                               rows, etf, strict)
                assert got == want, rows
            kinds.add(want[0].__name__ if isinstance(want[0], type) else "value")
        assert kinds == {"value", "InvalidParams", "UnnormalizedWeights"}

    def test_random_baskets_from_files(self, tmp_path):
        rng = random.Random(2021)
        for k in range(300):
            rows, etf, strict = self.random_basket(rng)
            rows = [(name, beta, float(getattr(lix, "value", lix))) for name, beta, lix in rows]
            path = tmp_path / f"positions{k}.csv"
            path.write_text("instrument,beta,lix\n"
                            + "".join(f"{name},{beta!r},{lix!r}\n" for name, beta, lix in rows))
            if min(beta for _, beta, _ in rows) <= 0:
                continue  # a row the reader refuses, with its line
            want = _outcome(basket_oracle, _records(basket_oracle), rows, etf, strict)
            got = _outcome(portfolio, lambda _: parse_basket_positions(path), rows, etf, strict)
            assert got == want, rows
