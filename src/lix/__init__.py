"""Liquidity index toolkit: daily/intraday LIX, order-book LIXI,
execution-cost estimates and basket/ETF liquidity algebra."""

from . import errors
from .comparative import MultiDayWindow, amihud_illiq, hui_heubel
from .costmodel import (ExecutionPlan, cost_per_unit, cost_per_unit_value,
                        cost_single_shot, cost_sliced, price_impact)
from .data_io import (compute_adv, parse_basket_positions, read_bars, read_books,
                      write_daily_bars)
from .measures import (Bars, DailyBar, IntradayWindow, LiquidityIndex, LixKind,
                       ScalingParams, lix_daily, lix_daily_many, lix_intraday_raw,
                       time_scale_to_daily)
from .orderbook import (AdvContext, BookLevel, Books, LixiDecomposition,
                        OrderBookSnapshot, lixi, lixi_decomposed,
                        lixi_decomposed_many, lixi_many, lixi_tau,
                        relative_spread, side_vwap)
from .portfolio import (BasketPosition, BasketSpec, basket_lix,
                        basket_with_etf_lix, venue_combine)

__all__ = [
    "errors",
    "Bars", "DailyBar", "IntradayWindow", "LiquidityIndex", "LixKind",
    "ScalingParams", "lix_daily", "lix_daily_many", "lix_intraday_raw",
    "time_scale_to_daily",
    "AdvContext", "BookLevel", "Books", "OrderBookSnapshot", "LixiDecomposition",
    "side_vwap", "lixi_tau", "lixi", "relative_spread", "lixi_decomposed",
    "lixi_many", "lixi_decomposed_many",
    "ExecutionPlan", "price_impact", "cost_single_shot", "cost_sliced",
    "cost_per_unit", "cost_per_unit_value",
    "BasketPosition", "BasketSpec", "basket_lix", "basket_with_etf_lix",
    "venue_combine",
    "MultiDayWindow", "hui_heubel", "amihud_illiq",
    "read_bars", "read_books", "write_daily_bars", "parse_basket_positions",
    "compute_adv",
]

__version__ = "0.1.0"
