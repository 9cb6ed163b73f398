"""Synthetic-data lab: range-scaling exponent estimation and the
instantaneous-vs-daily liquidity regression study.

The exponent alpha is estimated by simulating price paths, measuring the
mean running range at a grid of session fractions, and fitting
log10(mean range) against log10(realised fraction) by least squares. The
study generates a universe of synthetic instruments spanning several
decades of liquidity, measures each one both ways (daily index averaged over
days, snapshot index averaged over one day) and regresses one on the other.

All randomness is driven by numpy bit generators keyed as
SeedSequence([seed, stream]); path chunks use a fixed chunk size so results
are independent of how work is scheduled. Each chunk of 4096 paths is walked
a block of paths at a time through one reused buffer of about 1 MiB; the
chunk's ranges take 8 * len(grid) bytes per path, twice that while summed.
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .measures import DailyBar, IntradayWindow, ScalingParams, lix_daily
from .orderbook import AdvContext, BookLevel, Books, OrderBookSnapshot, lixi_many

_CHUNK_PATHS = 4096  # fixed so chunking never changes results
_BLOCK_BYTES = 2 ** 20  # a block of walked paths fits in a 2 MiB L2 cache


class WalkKind(enum.Enum):
    ARITHMETIC_RANDOM_WALK = "rw"
    GAUSSIAN_RETURNS = "gauss"
    STUDENT_T_RETURNS = "t"


@dataclass(frozen=True)
class PathModel:
    """Price-path generator settings.

    volatility_per_step is in price units for the arithmetic walk and in
    log-return units for the two return models. Zero volatility is admitted
    for degenerate fixtures (pure drift, or a flat path).
    """

    kind: WalkKind
    steps_per_day: int = 2000
    volatility_per_step: float = 0.01
    seed: int = 0
    dof: float | None = None
    drift_per_step: float = 0.0

    def __post_init__(self):
        if self.steps_per_day < 10:
            raise errors.InvalidParams(
                f"steps_per_day must be >= 10, got {self.steps_per_day}")
        if self.volatility_per_step < 0:
            raise errors.InvalidParams(
                f"volatility_per_step must be >= 0, got {self.volatility_per_step}")
        if self.kind is WalkKind.STUDENT_T_RETURNS:
            if self.dof is None or self.dof <= 2:
                raise errors.InvalidParams(
                    f"Student-t model needs dof > 2, got {self.dof}")
        if self.seed < 0:
            raise errors.InvalidParams(f"seed must be non-negative, got {self.seed}")


def _walk(model: PathModel, rng: np.random.Generator, start_price: float,
          out: np.ndarray) -> np.ndarray:
    """Fill out, a C-contiguous (rows, steps) array, with prices after each
    step (the start price excluded), drawing from rng; return it.

    The draw is scaled, shifted by the drift, summed and offset by the start
    price in place: the same float operations as start + cumsum(vol * z +
    drift) (or start * exp(...)), so the values are bit-identical to that
    formula. Draws are sequential, so filling successive row blocks of a
    matrix from one generator gives the values of filling it at once.
    """
    if model.volatility_per_step == 0:
        out.fill(0.0)
    elif model.kind is WalkKind.STUDENT_T_RETURNS:
        out[...] = rng.standard_t(model.dof, size=out.shape)
    else:
        rng.standard_normal(out=out)
    out *= model.volatility_per_step
    out += model.drift_per_step
    np.cumsum(out, axis=1, out=out)
    if model.kind is WalkKind.ARITHMETIC_RANDOM_WALK:
        out += start_price
    else:
        np.exp(out, out=out)
        out *= start_price
    return out


def simulate_paths(model: PathModel, n_paths: int, seed: int | None = None,
                   start_price: float = 100.0, stream: int = 0) -> np.ndarray:
    """(n_paths, steps + 1) price paths including the starting price."""
    s = model.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence([s, stream]))
    out = np.empty((n_paths, model.steps_per_day + 1))
    out[:, 0] = start_price
    out[:, 1:] = _walk(model, rng, start_price,
                       np.empty((n_paths, model.steps_per_day)))
    return out


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    stderr: float
    n_paths: int
    time_grid: tuple[float, ...]


def _ols(x: np.ndarray, y: np.ndarray):
    """Slope, intercept, R^2 and slope standard error of a simple OLS fit."""
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    if n < 2 or sxx == 0:
        raise errors.DegenerateRegression("need >= 2 distinct x values")
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    sse = float(np.sum(resid ** 2))
    syy = float(np.sum((y - ybar) ** 2))
    r_squared = 1.0 if syy == 0 else 1.0 - sse / syy
    stderr = math.sqrt(sse / (n - 2) / sxx) if n > 2 else 0.0
    return slope, float(intercept), min(max(r_squared, 0.0), 1.0), stderr


def estimate_alpha(model: PathModel, n_paths: int, time_grid) -> AlphaEstimate:
    """Fit the range-scaling exponent from the mean running range.

    Each grid fraction f is realised as step k = round(f * steps) (at least
    1); the running high-low range over the first k steps (start price
    included) is averaged across paths, and alpha_hat is the slope of
    log10(mean range) on log10(k / steps). Fractions that round to the same
    step are rejected. The requested fractions are echoed in `time_grid`.
    A mean range that is not finite (the prices overflow) raises
    InvalidParams, with no numpy warning.

    Deterministic given (model.seed, n_paths, grid): paths are generated in
    fixed-size chunks with per-chunk seed streams.
    """
    grid = tuple(float(f) for f in time_grid)
    if len(set(grid)) != len(grid) or len(grid) < 2:
        raise errors.DegenerateGrid("time grid fractions must be distinct")
    if any(not (0 < f <= 1) for f in grid):
        raise errors.DegenerateGrid("time grid fractions must lie in (0, 1]")
    if n_paths < 1:
        raise errors.InvalidParams("n_paths must be positive")

    steps = model.steps_per_day
    idx = np.array([max(1, round(f * steps)) for f in grid])
    cols, inv = np.unique(idx, return_inverse=True)
    if len(cols) != len(idx):
        raise errors.DegenerateGrid(
            f"time grid fractions {grid} round to repeated steps {idx.tolist()} "
            f"of {steps}; use more steps or a coarser grid")
    # The running extremes at the sorted grid steps are the extremes of the
    # blocks between consecutive steps, accumulated over the blocks and
    # joined with the start price; nothing past the last step is read. The
    # ranges are row-local, so each chunk is walked a block of paths at a
    # time through one reused buffer; they are summed over the whole chunk
    # at once, since summing per block would change the rounding.
    blocks = np.concatenate(([0], cols[:-1]))
    start_price = 100.0
    block_paths = max(1, _BLOCK_BYTES // (8 * steps))
    buf = np.empty((min(block_paths, n_paths), steps))
    sums = np.zeros(len(grid))
    done = 0
    chunk_index = 0
    # Prices that overflow are reported by the finite check below.
    with np.errstate(over="ignore", invalid="ignore"):
        while done < n_paths:
            m = min(_CHUNK_PATHS, n_paths - done)
            seq = np.random.SeedSequence([model.seed, chunk_index])
            rng = np.random.default_rng(seq)
            ranges = np.empty((m, len(cols)))
            for r in range(0, m, block_paths):
                walk = _walk(model, rng, start_price,
                             buf[:min(block_paths, m - r)])[:, :cols[-1]]
                hi = np.maximum.accumulate(
                    np.maximum.reduceat(walk, blocks, axis=1), axis=1)
                lo = np.minimum.accumulate(
                    np.minimum.reduceat(walk, blocks, axis=1), axis=1)
                ranges[r:r + len(walk)] = (np.maximum(hi, start_price)
                                           - np.minimum(lo, start_price))
            sums += ranges[:, inv].sum(axis=0)
            done += m
            chunk_index += 1

    mean_range = sums / n_paths
    if not np.all(np.isfinite(mean_range)):
        raise errors.InvalidParams(
            f"mean price range is not finite at volatility_per_step "
            f"{model.volatility_per_step}; the simulated prices overflow")
    if np.any(mean_range <= 0):
        raise errors.ZeroRange("mean price range is zero on part of the grid; "
                               "the model produces no price movement there")
    x = np.log10(idx / steps)
    y = np.log10(mean_range)
    slope, _, _, stderr = _ols(x, y)
    return AlphaEstimate(alpha_hat=slope, stderr=stderr,
                         n_paths=n_paths, time_grid=grid)


@dataclass(frozen=True)
class BookParams:
    """Snapshot generator settings for one synthetic instrument.

    Book depth is a fraction of daily volume; the target VWAP spread is the
    range expected over the book's turnover time, realized_range *
    sqrt(depth / ADV), so snapshot liquidity tracks the daily index by
    construction. Lognormal jitters provide scatter.
    """

    start_price: float = 100.0
    levels: int = 5
    depth_fraction: float = 0.02
    depth_jitter: float = 0.25
    spread_jitter: float = 0.15
    n_snapshots: int = 100
    n_windows: int = 100
    min_spread_fraction: float = 1e-6

    def __post_init__(self):
        if self.start_price <= 0 or self.levels < 1 or self.depth_fraction <= 0:
            raise errors.InvalidParams("invalid book parameters")
        if self.depth_jitter < 0 or self.spread_jitter < 0:
            raise errors.InvalidParams("jitters must be non-negative")
        if self.n_snapshots < 1 or self.n_windows < 1:
            raise errors.InvalidParams("need at least one snapshot and window")


def _snapshot_at(mid: float, total_depth: float, vwap_spread: float,
                 levels: int, timestamp: float) -> OrderBookSnapshot:
    # Level prices mid +/- (spread/2) * 2i/(k+1) with equal volumes give
    # side VWAPs exactly spread/2 away from mid and a strictly ordered book.
    per_level = total_depth / (2 * levels)
    half = vwap_spread / 2
    bids = tuple(BookLevel(mid - half * 2 * i / (levels + 1), per_level)
                 for i in range(1, levels + 1))
    asks = tuple(BookLevel(mid + half * 2 * i / (levels + 1), per_level)
                 for i in range(1, levels + 1))
    return OrderBookSnapshot(timestamp=timestamp, bids=bids, asks=asks)


def synth_session(model: PathModel, daily_volume: float, book_params: BookParams,
                  seed: int | None = None, instrument_id: str = "SYN",
                  day: datetime.date = datetime.date(2020, 1, 1),
                  session_length: float = 28800.0):
    """One simulated trading session.

    Returns (DailyBar, snapshots, windows): a price path summarized as a
    bar, book snapshots sampled uniformly through the day, and cumulative
    intraday windows with volume linear in elapsed time. Deterministic given
    the seed.
    """
    if daily_volume <= 0:
        raise errors.InvalidParams(f"daily_volume must be positive, got {daily_volume}")
    s = model.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence([s, 1]))
    prices = simulate_paths(model, 1, seed=s, start_price=book_params.start_price)[0]
    if prices.min() <= 0:
        raise errors.InvalidParams(
            "price path crossed zero; lower volatility or drift")
    steps = model.steps_per_day
    levels = book_params.levels

    bar = DailyBar(instrument_id=instrument_id, date=day,
                   open=float(prices[0]), high=float(prices.max()),
                   low=float(prices.min()), close=float(prices[-1]),
                   volume=float(daily_volume))
    realized_range = bar.high - bar.low

    snapshots = []
    for k in range(1, book_params.n_snapshots + 1):
        step = max(1, round(k * steps / book_params.n_snapshots))
        t = step / steps * session_length
        mid = float(prices[step])
        depth = daily_volume * book_params.depth_fraction
        if book_params.depth_jitter > 0:
            depth *= math.exp(book_params.depth_jitter * rng.standard_normal())
        spread = max(realized_range, book_params.min_spread_fraction * mid) \
            * math.sqrt(depth / daily_volume)
        if book_params.spread_jitter > 0:
            spread *= math.exp(book_params.spread_jitter * rng.standard_normal())
        # The deepest bid sits spread * levels / (levels + 1) below mid, so
        # this cap keeps it at or above 0.1 * mid at any depth.
        spread = min(spread, 0.9 * mid * (levels + 1) / levels)
        snapshots.append(_snapshot_at(mid, depth, spread, levels, t))

    hi = np.maximum.accumulate(prices)
    lo = np.minimum.accumulate(prices)
    windows = []
    for k in range(1, book_params.n_windows + 1):
        step = max(2, round(k * steps / book_params.n_windows))
        frac = step / steps
        windows.append(IntradayWindow(
            elapsed=frac * session_length, session_length=session_length,
            cum_volume=daily_volume * frac, high_t=float(hi[step]),
            low_t=float(lo[step]), last_price=float(prices[step])))
    return bar, snapshots, windows


def exact_scaling_session(bar: DailyBar, alpha: float, fractions,
                          session_length: float = 28800.0):
    """Intraday windows satisfying the linear-volume and t^alpha-range
    assumptions exactly, anchored to the given full-day bar.

    The window range at fraction f is (high - low) * f^alpha placed around
    the close so the f = 1 window reproduces the bar; last price is the
    close throughout. Useful as an oracle for the time-scaling rule.
    """
    if bar.high <= bar.low:
        raise errors.ZeroRange("full-day bar has no range")
    full_range = bar.high - bar.low
    anchor = (bar.close - bar.low) / full_range
    windows = []
    for f in fractions:
        if not (0 < f <= 1):
            raise errors.DegenerateGrid(f"fraction {f} outside (0, 1]")
        rng_t = full_range * f ** alpha
        low_t = bar.close - anchor * rng_t
        windows.append(IntradayWindow(
            elapsed=f * session_length, session_length=session_length,
            cum_volume=bar.volume * f, high_t=low_t + rng_t,
            low_t=low_t, last_price=bar.close))
    return windows


@dataclass(frozen=True)
class InstrumentParams:
    instrument_id: str
    model: PathModel
    base_volume: float
    book: BookParams
    volume_jitter: float = 0.2

    def __post_init__(self):
        if self.base_volume <= 0:
            raise errors.InvalidParams("base_volume must be positive")
        if self.volume_jitter < 0:
            raise errors.InvalidParams("volume_jitter must be >= 0")


@dataclass(frozen=True)
class RegressionReport:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    n_dropped: int = 0

    def __post_init__(self):
        if not (0 <= self.r_squared <= 1):
            raise errors.InvalidParams(f"r_squared {self.r_squared} outside [0, 1]")


@dataclass(frozen=True)
class StudyPoint:
    instrument_id: str
    mean_lix: float
    mean_lixi: float


def default_universe(n_instruments: int = 50, lix_range=(5.0, 10.0),
                     start_price: float = 100.0, steps_per_day: int = 250,
                     daily_range_fraction: float = 0.02,
                     seed: int = 0) -> list[InstrumentParams]:
    """Instruments with target liquidity evenly spaced across lix_range.

    Daily volume is chosen so volume * price / expected_range hits the
    target: the expected daily range of a Gaussian-return path is about
    price * sigma_day * sqrt(8/pi).
    """
    if n_instruments < 1:
        raise errors.InvalidParams("need at least one instrument")
    lo, hi = lix_range
    sigma_day = daily_range_fraction / math.sqrt(8 / math.pi)
    universe = []
    for i in range(n_instruments):
        target = lo if n_instruments == 1 else lo + (hi - lo) * i / (n_instruments - 1)
        expected_range = start_price * daily_range_fraction
        volume = expected_range * 10 ** target / start_price
        model = PathModel(kind=WalkKind.GAUSSIAN_RETURNS,
                          steps_per_day=steps_per_day,
                          volatility_per_step=sigma_day / math.sqrt(steps_per_day),
                          seed=seed)
        universe.append(InstrumentParams(
            instrument_id=f"SYN{i:03d}", model=model, base_volume=volume,
            book=BookParams(start_price=start_price)))
    return universe


def lixi_vs_lix_study(universe, days: int, seed: int,
                      snapshots_per_day: int = 100):
    """Regress one-day mean snapshot liquidity on multi-day mean daily index.

    Both averages are arithmetic means of log-scale values: daily LIX over
    `days` simulated sessions, LIXI (alpha = 1/2, ADV from the same
    sessions) over `snapshots_per_day` uniform snapshots of the last day
    whose session could be built (the final day unless it errors out). A
    day counts when its bar and one snapshot can be built. Instruments with
    no such day, or whose last such day fails with the full book or yields
    no snapshot index, are dropped and counted.

    Returns (RegressionReport, [StudyPoint]).
    """
    if days < 1:
        raise errors.InvalidParams("days must be >= 1")
    universe = list(universe)
    points = []
    dropped = 0
    params = ScalingParams(0.5)
    for i, inst in enumerate(universe):
        inst_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
        book = replace(inst.book, n_snapshots=snapshots_per_day, n_windows=1)
        # Only the last good day's snapshots are read, so every day is first
        # built with a one-snapshot book and that day is rebuilt with the
        # full one. The snapshot jitter has its own seed stream, so the
        # rebuilt day has the same bar and the snapshots it would have had.
        bar_only = replace(book, n_snapshots=1)
        lix_values = []
        volumes = []
        last = None
        for d in range(days):
            volume = inst.base_volume
            if inst.volume_jitter > 0:
                volume *= math.exp(inst.volume_jitter * inst_rng.standard_normal())
            day_seed = int(inst_rng.integers(0, 2 ** 62))
            date = datetime.date(2020, 1, 1) + datetime.timedelta(days=d)
            try:
                bar, _, _ = synth_session(inst.model, volume, bar_only, seed=day_seed,
                                          instrument_id=inst.instrument_id, day=date)
                lix_values.append(lix_daily(bar).value)
                volumes.append(volume)
                last = (volume, day_seed, date)
            except errors.LixError:
                continue
        if last is None:
            dropped += 1
            continue
        volume, day_seed, date = last
        try:
            _, last_day, _ = synth_session(inst.model, volume, book, seed=day_seed,
                                           instrument_id=inst.instrument_id, day=date)
        except errors.LixError:
            dropped += 1
            continue
        ctx = AdvContext(adv=sum(volumes) / len(volumes),
                         window_days=min(20, len(volumes)))
        lixi_values = [v for v in lixi_many(Books.of(last_day), ctx, params)
                       if not isinstance(v, errors.LixError)]
        if not lixi_values:
            dropped += 1
            continue
        points.append(StudyPoint(
            instrument_id=inst.instrument_id,
            mean_lix=sum(lix_values) / len(lix_values),
            mean_lixi=sum(lixi_values) / len(lixi_values)))

    if len(points) < 2:
        raise errors.DegenerateRegression(
            f"need >= 2 instruments with usable data, got {len(points)}")
    x = np.array([p.mean_lix for p in points])
    y = np.array([p.mean_lixi for p in points])
    slope, intercept, r_squared, _ = _ols(x, y)
    report = RegressionReport(slope=slope, intercept=intercept,
                              r_squared=r_squared, n_points=len(points),
                              n_dropped=dropped)
    return report, points
