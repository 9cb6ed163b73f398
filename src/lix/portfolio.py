"""Liquidity algebra for baskets, ETFs and multi-venue instruments.

Basket liquidity is the index of a hypothetical single instrument whose
per-currency-unit transaction cost equals the money-weighted cost of trading
the basket: 10^-LIX_basket = sum_i beta_i * 10^-LIX_i. Non-logged liquidity
is additive across venues (shared price and range under no-arbitrage), which
also combines a basket leg with ETF-share liquidity. All three formulas are
log10 of a weighted sum of powers of ten, and share one kernel.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

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

    def _reweighted(self, beta: float) -> "BasketPosition":
        # This position with weight `beta`, which the caller has checked:
        # the checks above are not run again.
        position = object.__new__(BasketPosition)
        position.__dict__.update(instrument_id=self.instrument_id, beta=beta,
                                 lix=self.lix)
        return position


@dataclass(frozen=True)
class BasketSpec:
    """Basket positions whose weights sum to 1 within WEIGHT_TOLERANCE.

    With `normalize`, every weight is divided by the sum instead (real
    position files rarely sum to 1); `weight_sum` keeps the sum as given.
    """

    positions: tuple[BasketPosition, ...]
    etf_lix: LiquidityIndex | float | None = None
    weight_sum: float = field(init=False, compare=False, repr=False)
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize):
        positions = tuple(self.positions)
        if not positions:
            raise errors.EmptyBasket("basket has no positions")
        try:
            total = math.fsum(p.beta for p in positions)
        except OverflowError:
            raise errors.InvalidParams("weights sum past the float range") from None
        if normalize:
            weights = [p.beta / total for p in positions]
            if 0.0 in weights:
                p = positions[weights.index(0.0)]
                raise errors.InvalidParams(
                    f"weight for {p.instrument_id} ({p.beta}) underflows to 0 "
                    f"once normalised by the weight sum {total}")
            positions = tuple(map(BasketPosition._reweighted, positions, weights))
        elif abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise errors.UnnormalizedWeights(
                f"weights sum to {total}, expected 1 within {WEIGHT_TOLERANCE} "
                f"when not normalizing")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "weight_sum", total)
        if self.etf_lix is not None:
            as_lix_value(self.etf_lix)

    @classmethod
    def build(cls, positions, etf_lix=None, strict=False) -> "BasketSpec":
        """Construct a basket, normalizing weights unless strict."""
        return cls(positions, etf_lix, normalize=not strict)


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
    xmax, t = _log10_weighted_sum([p.beta for p in spec.positions],
                                  [-as_lix_value(p.lix) for p in spec.positions])
    return LiquidityIndex(-xmax - t, LixKind.BASKET)


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
