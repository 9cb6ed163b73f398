"""The basket algebra as it was written over per-position records, kept as an
oracle for the columnar path in `lix.portfolio`.

Every position is a record; normalizing copies each one with its new weight
(`_reweighted`), and `basket_with_etf_lix` runs the basket sum again. The
columnar path must give the same values bit for bit, the sign of zero
included, and the same faults with the same messages.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

from lix import errors
from lix.measures import LiquidityIndex, LixKind, as_lix_value

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
        position = object.__new__(BasketPosition)
        position.__dict__.update(instrument_id=self.instrument_id, beta=beta,
                                 lix=self.lix)
        return position


@dataclass(frozen=True)
class BasketSpec:
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
        return cls(positions, etf_lix, normalize=not strict)


def _log10_weighted_sum(weights, exponents) -> tuple[float, float]:
    xmax = max(exponents)
    total = math.fsum(w * 10.0 ** (x - xmax) for w, x in zip(weights, exponents))
    return xmax, math.log10(total)


def basket_lix(spec: BasketSpec) -> LiquidityIndex:
    xmax, t = _log10_weighted_sum([p.beta for p in spec.positions],
                                  [-as_lix_value(p.lix) for p in spec.positions])
    return LiquidityIndex(-xmax - t, LixKind.BASKET)


def basket_with_etf_lix(spec: BasketSpec) -> LiquidityIndex:
    if spec.etf_lix is None:
        raise errors.MissingEtfLeg("basket has no ETF-share liquidity leg")
    legs = (basket_lix(spec).value, as_lix_value(spec.etf_lix))
    xmax, t = _log10_weighted_sum((1.0, 1.0), legs)
    return LiquidityIndex(xmax + t, LixKind.BASKET_WITH_ETF)
