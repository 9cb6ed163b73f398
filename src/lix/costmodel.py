"""Execution-cost estimates implied by a liquidity index value.

Trading n shares over time t moves the price by n*P / 10^LIX scaled by
(T/t)^(1-alpha); costs follow under the resilient-market assumption (price
reverts to P after each slice, which the formulas take as given).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import errors
from .measures import LiquidityIndex, ScalingParams, as_lix_value


@dataclass(frozen=True)
class ExecutionPlan:
    """Parameters of an order worked against a market of known liquidity.

    `slice_interval` is the time spent per slice for cost_sliced, and the
    total trading time for price_impact / cost_single_shot.
    """

    shares: float
    price: float
    lix: LiquidityIndex | float
    slice_interval: float
    session_length: float
    alpha: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.shares) and self.shares > 0):
            raise errors.InvalidParams(
                f"shares must be positive and finite, got {self.shares}")
        if not (math.isfinite(self.price) and self.price > 0):
            raise errors.NonPositivePrice(
                f"price must be positive and finite, got {self.price}")
        if not (0 < self.slice_interval <= self.session_length
                and math.isfinite(self.session_length)):
            raise errors.InvalidInterval(
                f"slice_interval {self.slice_interval} not in "
                f"(0, session_length={self.session_length}]")
        ScalingParams(self.alpha)
        as_lix_value(self.lix)  # reject non-finite

    @property
    def lix_value(self) -> float:
        return as_lix_value(self.lix)

    @property
    def time_factor(self) -> float:
        """(T/t)^(1-alpha): penalty for compressing trading into t < T."""
        return (self.session_length / self.slice_interval) ** (1 - self.alpha)


def _finite(cost):
    """Reject a cost of finite inputs that is out of float range (10^LIX
    overflowing or underflowing to 0, or an overflowing product) with a
    typed error instead of OverflowError, ZeroDivisionError or inf."""
    @functools.wraps(cost)
    def checked(plan: ExecutionPlan) -> float:
        try:
            value = cost(plan)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        if not math.isfinite(value):
            raise errors.InvalidParams(
                f"{cost.__name__} is not a finite number for shares={plan.shares:g}, "
                f"price={plan.price:g}, lix={plan.lix_value:g}")
        return value
    return checked


@_finite
def price_impact(plan: ExecutionPlan) -> float:
    """Price range created by trading all shares during the interval."""
    return plan.shares * plan.price / 10 ** plan.lix_value * plan.time_factor


@_finite
def cost_single_shot(plan: ExecutionPlan) -> float:
    """Worst-case cost of buying everything at once: quadratic in shares."""
    return 0.5 * plan.shares ** 2 * plan.price / 10 ** plan.lix_value * plan.time_factor


@_finite
def cost_sliced(plan: ExecutionPlan) -> float:
    """Cost under one-share slices with full price recovery between slices."""
    return 0.5 * plan.shares * plan.price / 10 ** plan.lix_value * plan.time_factor


@_finite
def cost_per_unit(plan: ExecutionPlan) -> float:
    """Sliced cost per currency unit invested; independent of n and P."""
    return 10 ** (-plan.lix_value) * 0.5 * plan.time_factor


def cost_per_unit_value(lix: LiquidityIndex | float, slice_interval: float,
                        session_length: float, alpha: float = 0.5) -> float:
    """cost_per_unit without shares/price, for basket-cost algebra."""
    plan = ExecutionPlan(shares=1.0, price=1.0, lix=lix,
                         slice_interval=slice_interval,
                         session_length=session_length, alpha=alpha)
    return cost_per_unit(plan)
