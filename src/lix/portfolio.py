"""Liquidity algebra for baskets, ETFs and multi-venue instruments.

Basket liquidity is the index of a hypothetical single instrument whose
per-currency-unit transaction cost equals the money-weighted cost of trading
the basket: 10^-LIX_basket = sum_i beta_i * 10^-LIX_i. Non-logged liquidity
is additive across venues (shared price and range under no-arbitrage), which
also combines a basket leg with ETF-share liquidity. All three formulas are
log10 of a weighted sum of powers of ten, and share one kernel. Positions
stay columns (`Positions`) from the file to the kernel, which runs once per
basket.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import errors
from .measures import LiquidityIndex, LixKind, as_lix_value

WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class BasketPosition:
    instrument_id: str
    beta: float
    lix: LiquidityIndex | float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise errors.InvalidParams(
                f"weight for {self.instrument_id} must be positive, got {self.beta}")
        as_lix_value(self.lix)

    @staticmethod
    def rejects(beta, lix):
        """Where the checks above fail, over float64 columns: the mask of the
        rows a BasketPosition would refuse. `data_io.parse_basket_positions`
        walks a file it flags row by row, to name the first fault."""
        return ~((0 < beta) & (beta < math.inf) & (abs(lix) < math.inf))


@dataclass(frozen=True)
class Positions:
    """Basket positions as lists of one length: instrument ids, weights and
    LIX values as given (floats or LiquidityIndex). Not checked here: build
    them with `data_io.parse_basket_positions` or `Positions.of`. Indexing
    and iteration give BasketPosition records."""

    instrument_ids: list
    betas: list
    lixes: list

    @classmethod
    def of(cls, positions) -> "Positions":
        """Columns of BasketPosition records, kept in their order."""
        positions = tuple(positions)
        return cls([p.instrument_id for p in positions], [p.beta for p in positions],
                    [p.lix for p in positions])

    def __len__(self) -> int:
        return len(self.instrument_ids)

    def __getitem__(self, i: int) -> BasketPosition:
        return BasketPosition(self.instrument_ids[i], self.betas[i], self.lixes[i])

    def __iter__(self):
        return map(BasketPosition, self.instrument_ids, self.betas, self.lixes)


class BasketSpec:
    """Basket positions whose weights sum to 1 within WEIGHT_TOLERANCE.

    With `normalize`, every weight is divided by the sum instead (real
    position files rarely sum to 1); `weight_sum` keeps the sum as given.
    `columns` holds the positions (records or Positions) as Positions.
    """

    def __init__(self, positions, etf_lix=None, normalize=False):
        columns = positions if isinstance(positions, Positions) else Positions.of(positions)
        if not columns:
            raise errors.EmptyBasket("basket has no positions")
        try:
            total = math.fsum(columns.betas)
        except OverflowError:
            raise errors.InvalidParams("weights sum past the float range") from None
        if normalize:
            weights = [beta / total for beta in columns.betas]
            if 0.0 in weights:
                k = weights.index(0.0)
                raise errors.InvalidParams(
                    f"weight for {columns.instrument_ids[k]} ({columns.betas[k]}) underflows "
                    f"to 0 once normalised by the weight sum {total}")
            columns = Positions(columns.instrument_ids, weights, columns.lixes)
        elif abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise errors.UnnormalizedWeights(
                f"weights sum to {total}, expected 1 within {WEIGHT_TOLERANCE} "
                f"when not normalizing")
        if etf_lix is not None:
            as_lix_value(etf_lix)
        self.columns, self.etf_lix, self.weight_sum = columns, etf_lix, total

    @classmethod
    def build(cls, positions, etf_lix=None, strict=False) -> "BasketSpec":
        """Construct a basket, normalizing weights unless strict."""
        return cls(positions, etf_lix, normalize=not strict)

    @property
    def positions(self) -> tuple[BasketPosition, ...]:
        return tuple(self.columns)

    @functools.cached_property
    def _lix(self) -> LiquidityIndex:
        # basket_lix's value, summed once: basket_with_etf_lix reads it too.
        lixes = self.columns.lixes  # a float was checked by the reader or its record
        if not {float}.issuperset(map(type, lixes)):
            lixes = map(as_lix_value, lixes)
        xmax, t = _log10_weighted_sum(self.columns.betas, [-v for v in lixes])
        return LiquidityIndex(-xmax - t, LixKind.BASKET)


def _log10_weighted_sum(weights, exponents) -> tuple[float, float]:
    # log10(sum w * 10^x) as (xmax, t) with the sum xmax + t, rescaled around
    # the largest x so user inputs far outside [5, 10] cannot overflow 10^x.
    # fsum makes the result exactly permutation invariant. The basket negates
    # it as -xmax - t: -(xmax + t) would turn a basket at L = 0.0 into -0.0.
    xmax = max(exponents)
    total = math.fsum(w * 10.0 ** (x - xmax) for w, x in zip(weights, exponents))
    return xmax, math.log10(total)


def basket_lix(spec: BasketSpec) -> LiquidityIndex:
    """Money-weighted basket liquidity; ignores any ETF leg."""
    return spec._lix


def basket_with_etf_lix(spec: BasketSpec) -> LiquidityIndex:
    """Dual-nature ETF liquidity: basket leg plus ETF-share leg, additively."""
    if spec.etf_lix is None:
        raise errors.MissingEtfLeg("basket has no ETF-share liquidity leg")
    legs = (basket_lix(spec).value, as_lix_value(spec.etf_lix))
    xmax, t = _log10_weighted_sum((1.0, 1.0), legs)
    return LiquidityIndex(xmax + t, LixKind.BASKET_WITH_ETF)


def venue_combine(lix_values) -> LiquidityIndex:
    """Combine one instrument's liquidity across venues: log10(sum 10^L_i)."""
    values = [as_lix_value(v) for v in lix_values]
    if not values:
        raise errors.EmptyList("no liquidity values to combine")
    xmax, t = _log10_weighted_sum([1.0] * len(values), values)
    return LiquidityIndex(xmax + t, LixKind.COMBINED)
