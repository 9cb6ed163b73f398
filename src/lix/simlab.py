"""Synthetic-data lab: range-scaling exponent estimation and the
instantaneous-vs-daily liquidity regression study.

The exponent alpha is estimated by simulating price paths, measuring the
mean running range at a grid of session fractions, and fitting
log10(mean range) against log10(realised fraction) by least squares. The
study generates a universe of synthetic instruments spanning several
decades of liquidity, measures each one both ways (daily index averaged over
days, snapshot index averaged over one day) and regresses one on the other.
Walks stay offsets from their start price, their extremes are taken on the
offsets, and only the offsets read become prices (_price, by libm's exp), so
every value is the same on any CPU.

All randomness is drawn from numpy generators keyed by a list seed,
default_rng([seed, stream, ...]). estimate_alpha walks ~1 MiB chunks of
paths, each from its own stream, on two worker threads; its values depend on
the chunk size (_BLOCK_BYTES) but not on scheduling or the worker count.

A session draws its walk and its snapshot jitters from streams [day seed,
0] and [day seed, 1] (_day_draws), and _ladders lays out its books. One
helper (_session) builds a day: synth_session makes records of it, and the
study reads its last counted day's full book from it into Books. The study
walks its days in blocks of at most _BLOCK_BYTES of walk, checked with the
masks of the records' own checks, so a day no bar accepts is dropped
before its books are laid out. Its seeds and values are those of building
every day with synth_session.
"""

from __future__ import annotations

import concurrent.futures
import datetime
import enum
import functools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .measures import (Bars, DailyBar, IntradayWindow, ScalingParams, _finite_index,
                       lix_daily_many)
from .orderbook import AdvContext, BookLevel, Books, OrderBookSnapshot, lixi_many

_BLOCK_BYTES = 2 ** 20  # a chunk of walked paths fits in a 2 MiB L2 cache
_WORKERS = 2  # threads walking estimate_alpha's chunks; no value depends on it
_ROUND_CHUNKS = 1024  # chunk sums held at once, bounding their memory; no value depends on it

# Fixed settings of every synthetic session: its length in seconds (8
# hours), book depth as a fraction of daily volume, the log-scales of the
# lognormal depth and spread jitters, and a spread floor as a fraction of
# mid, which keeps the books of a flat path valid.
_SESSION_LENGTH = 28800.0
_DEPTH_FRACTION = 0.02
_DEPTH_JITTER = 0.25
_SPREAD_JITTER = 0.15
_MIN_SPREAD_FRACTION = 1e-6


class WalkKind(enum.Enum):
    ARITHMETIC_RANDOM_WALK = "rw"
    GAUSSIAN_RETURNS = "gauss"
    STUDENT_T_RETURNS = "t"


# Bound once: an enum member read costs ~170 ns on Python 3.11, and _price
# reads it for every point of a session it prices.
_ARITHMETIC = WalkKind.ARITHMETIC_RANDOM_WALK


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
        for name in ("volatility_per_step", "drift_per_step"):
            _finite_index(getattr(self, name), name)
        if self.volatility_per_step < 0:
            raise errors.InvalidParams(
                f"volatility_per_step must be >= 0, got {self.volatility_per_step}")
        if self.kind is WalkKind.STUDENT_T_RETURNS:
            if self.dof is None or not (math.isfinite(self.dof) and self.dof > 2):
                raise errors.InvalidParams(
                    f"Student-t model needs a finite dof > 2, got {self.dof}")
        if self.seed < 0:
            raise errors.InvalidParams(f"seed must be non-negative, got {self.seed}")


def _draw(model: PathModel, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with the model's raw draws from rng (zeros for zero
    volatility); return it. Draws are sequential, so filling successive row
    blocks of a matrix from one generator gives the values of filling it at
    once."""
    if model.volatility_per_step == 0:
        out.fill(0.0)
    elif model.kind is WalkKind.STUDENT_T_RETURNS:
        out[...] = rng.standard_t(model.dof, size=out.shape)
    else:
        rng.standard_normal(out=out)
    return out


def _offsets(model: PathModel, out: np.ndarray) -> np.ndarray:
    """Turn out, a C-contiguous (rows, steps) array of _draw's draws, into
    each step's offset from the start price, cumsum(vol * z + drift), in
    place; return it. An offset is a price change for the arithmetic walk
    and a log-return for the returns models."""
    out *= model.volatility_per_step
    out += model.drift_per_step
    np.cumsum(out, axis=1, out=out)
    return out


def _exp(x: float) -> float:
    # libm's exp, the same on every CPU; inf past the float range, as numpy gives
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _price(model: PathModel, start_price: float, offsets):
    """The prices at offsets (a float or an array) from the start price:
    start + x, or start * exp(x) for the returns models. Both maps are
    non-decreasing, so an extreme offset's price is the extreme price."""
    if model.kind is _ARITHMETIC:
        return start_price + offsets
    if isinstance(offsets, float):
        return start_price * _exp(offsets)
    return start_price * np.reshape([_exp(x) for x in offsets.ravel().tolist()], offsets.shape)


def _walk_buffer(model: PathModel, rows: int, steps: int) -> np.ndarray:
    """An uninitialised (rows, steps) float array; InvalidParams naming
    steps_per_day when numpy cannot allocate it."""
    try:
        return np.empty((rows, steps))
    except (ValueError, MemoryError):
        raise errors.InvalidParams(
            f"cannot allocate a walk of {rows} paths x {steps} steps "
            f"(steps_per_day {model.steps_per_day})") from None


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
    A mean range that is not finite (the prices overflow), or a walk
    buffer too large to allocate, raises InvalidParams, with no numpy
    warning.

    Deterministic given (model.seed, n_paths, grid): chunk c of
    max(1, _BLOCK_BYTES // (8 * steps)) paths draws from seed stream c and
    chunk sums are added in chunk order, so the values of a call of more
    than one chunk depend on _BLOCK_BYTES, not on scheduling or the worker
    count. Two threads walk alternate chunks through a buffer each, stop
    before their next chunk after a fault, and end before the call does.
    """
    grid = tuple(float(f) for f in time_grid)
    if len(grid) < 2:
        raise errors.DegenerateGrid(f"need at least 2 time grid fractions, got {len(grid)}")
    if len(set(grid)) != len(grid):
        raise errors.DegenerateGrid("time grid fractions must be distinct")
    if any(not (0 < f <= 1) for f in grid):
        raise errors.DegenerateGrid("time grid fractions must lie in (0, 1]")
    if n_paths < 1:
        raise errors.InvalidParams(f"n_paths must be >= 1, got {n_paths}")

    steps = model.steps_per_day
    chunk_paths = max(1, _BLOCK_BYTES // (8 * steps))
    n_chunks = -(-n_paths // chunk_paths)
    workers = min(_WORKERS, n_chunks)
    bufs = [_walk_buffer(model, min(chunk_paths, n_paths), steps) for _ in range(workers)]
    idx = np.array([max(1, round(f * steps)) for f in grid])
    cols, inv = np.unique(idx, return_inverse=True)
    if len(cols) != len(idx):
        raise errors.DegenerateGrid(
            f"time grid fractions {grid} round to repeated steps {idx.tolist()} "
            f"of {steps}; use more steps or a coarser grid")
    # The running extremes at the sorted grid steps are the extremes of the
    # blocks between consecutive steps, accumulated over the blocks, joined
    # with the start (offset 0.0) and priced; nothing past the last step is read.
    blocks = np.concatenate(([0], cols[:-1]))
    price_of = functools.partial(_price, model, 100.0)  # the start price
    sums = np.zeros(len(grid))
    stop = threading.Event()

    def walk_chunks(buf, chunks, rows):
        # np.errstate holds per thread; overflow is reported by the finite check.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for c, row in zip(chunks, rows):
                    if stop.is_set():
                        return
                    rng = np.random.default_rng([model.seed, c])
                    z = _draw(model, rng, buf[:min(chunk_paths, n_paths - c * chunk_paths)])
                    walk = _offsets(model, z)[:, :cols[-1]]
                    hi = np.maximum.accumulate(
                        np.maximum.reduceat(walk, blocks, axis=1), axis=1)
                    lo = np.minimum.accumulate(
                        np.minimum.reduceat(walk, blocks, axis=1), axis=1)
                    ranges = price_of(np.maximum(hi, 0.0)) - price_of(np.minimum(lo, 0.0))
                    row[...] = ranges[:, inv].sum(axis=0)
            except BaseException:
                stop.set()  # the other worker starts no further chunk
                raise

    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        try:
            for first in range(0, n_chunks, _ROUND_CHUNKS):
                chunks = range(first, min(first + _ROUND_CHUNKS, n_chunks))
                rows = np.empty((len(chunks), len(grid)))
                for future in [pool.submit(walk_chunks, bufs[w], chunks[w::workers],
                                           rows[w::workers]) for w in range(workers)]:
                    future.result()
                for row in rows:
                    sums += row
        finally:
            stop.set()  # an interrupt while waiting stops the workers too

    mean_range = sums / n_paths
    if not np.all(np.isfinite(mean_range)):
        raise errors.InvalidParams(
            f"mean price range is not finite at volatility_per_step "
            f"{model.volatility_per_step}; the simulated prices overflow")
    if np.any(mean_range <= 0):
        raise errors.ZeroRange("mean price range is zero on part of the grid; "
                               "the model produces no price movement there")
    # math.log10, not np.log10, whose last bits vary with the CPU
    x, y = (np.array([math.log10(v) for v in a.tolist()]) for a in (idx / steps, mean_range))
    slope, _, _, stderr = _ols(x, y)
    return AlphaEstimate(alpha_hat=slope, stderr=stderr,
                         n_paths=n_paths, time_grid=grid)


@dataclass(frozen=True)
class BookParams:
    """Snapshot generator settings for one synthetic instrument.

    Book depth is a fixed fraction of daily volume (_DEPTH_FRACTION); the
    target VWAP spread is the range expected over the book's turnover time,
    realized_range * sqrt(depth / ADV), so snapshot liquidity tracks the
    daily index by construction. Lognormal jitters provide scatter.
    """

    start_price: float = 100.0
    levels: int = 5
    n_snapshots: int = 100
    n_windows: int = 100

    def __post_init__(self):
        if self.start_price <= 0:
            raise errors.InvalidParams(f"start_price must be positive, got {self.start_price}")
        for name in ("levels", "n_snapshots", "n_windows"):
            if getattr(self, name) < 1:
                raise errors.InvalidParams(f"{name} must be >= 1, got {getattr(self, name)}")


def _day_draws(model: PathModel, day_seed: int, row: np.ndarray,
               n_snapshots: int) -> np.ndarray:
    """Fill row, one session's (steps,) walk, with its draws from seed
    stream [day_seed, 0]; return the (n_snapshots, 2) snapshot jitters from
    stream [day_seed, 1], each snapshot's depth jitter then its spread
    jitter. Every session, alone or in a block of days, is drawn here.
    Jitters numpy cannot allocate raise InvalidParams naming n_snapshots.
    """
    _draw(model, np.random.default_rng([day_seed, 0]), row)
    rng = np.random.default_rng([day_seed, 1])
    try:
        return rng.standard_normal((n_snapshots, 2))
    except (ValueError, MemoryError):
        raise errors.InvalidParams(
            f"cannot allocate the jitters of {n_snapshots} snapshots a day") from None


def _ladders(mid, daily_volume, day_range, jitter, levels: int):
    """The books of n snapshots: a (n, 2, levels) price array laid out as
    in Books, and the (n,) volume of each of their levels. mid,
    daily_volume and day_range (the day's high - low) are sequences of n
    floats, daily_volume positive; jitter is _day_draws' (n, 2) normals.

    Depth is a jittered _DEPTH_FRACTION of daily volume and the VWAP
    spread a jittered range over the book's turnover time (BookParams).
    Level prices mid +/- (spread/2) * 2i/(levels+1) with equal volumes give
    side VWAPs exactly spread/2 away from mid and a strictly ordered book.
    Each snapshot's depth and spread are worked out in Python floats, as
    cheap for synth_session's one-snapshot sessions as for many snapshots;
    the levels are laid out in numpy, whose + - * / round as Python's do.
    """
    terms = []
    for m, v, r, (z_depth, z_spread) in zip(mid, daily_volume, day_range, jitter.tolist()):
        depth = v * _DEPTH_FRACTION * math.exp(_DEPTH_JITTER * z_depth)
        spread = (max(r, _MIN_SPREAD_FRACTION * m) * math.sqrt(depth / v)
                  * math.exp(_SPREAD_JITTER * z_spread))
        # The deepest bid sits spread * levels / (levels + 1) below mid, so
        # this cap keeps it at or above 0.1 * mid at any depth. A mid past
        # the float range gets no spread: its levels are inf, not inf - inf.
        spread = min(spread, 0.9 * m * (levels + 1) / levels) if math.isfinite(m) else 0.0
        # the level formula's (spread / 2) * 2: not spread when spread is subnormal
        terms.append((m, spread / 2 * 2, depth / (2 * levels)))
    mid, width, level_volume = np.array(terms).reshape(-1, 3).T
    offset = width[:, None, None] * _signed_levels(levels) / (levels + 1)
    return mid[:, None, None] + offset, level_volume


@functools.cache
def _signed_levels(levels: int) -> np.ndarray:
    """Read-only [[-1, ..., -levels], [1, ..., levels]]: a bid's offset comes
    out negated exactly, and mid + -x is mid - x. Cached: built per call,
    its numpy calls would weigh on every one-snapshot synth_session."""
    signed = np.array([[-1.0], [1.0]]) * np.arange(1, levels + 1)
    signed.setflags(write=False)
    return signed


def _session(model: PathModel, book: BookParams, volume: float, day_seed: int):
    """The session seeded day_seed, of positive daily volume: its offsets
    from the start price on (0.0 first), their running high and low, the
    day's high and low prices, and the timestamps, Books-layout prices and
    level volumes of its book.n_snapshots snapshots, at steps spread
    uniformly through the day. The books are laid out whatever the walk;
    the caller's checks refuse a day they fail."""
    steps, n, start = model.steps_per_day, book.n_snapshots, book.start_price
    walk = _walk_buffer(model, 1, steps + 1)[0]
    walk[0] = 0.0
    jitter = _day_draws(model, day_seed, walk[1:], n)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller's checks refuse it
        _offsets(model, walk[None, 1:])
        hi = np.maximum.accumulate(walk)
        lo = np.minimum.accumulate(walk)
    high, low = _price(model, start, hi.item(-1)), _price(model, start, lo.item(-1))
    at = [max(1, round(k * steps / n)) for k in range(1, n + 1)]
    return (walk, hi, lo, high, low, [step / steps * _SESSION_LENGTH for step in at],
            *_ladders([_price(model, start, walk.item(step)) for step in at], [volume] * n,
                      [high - low] * n, jitter, book.levels))


def synth_session(model: PathModel, daily_volume: float, book_params: BookParams,
                  seed: int | None = None, instrument_id: str = "SYN",
                  day: datetime.date = datetime.date(2020, 1, 1)):
    """One simulated trading session of _SESSION_LENGTH seconds.

    Returns (DailyBar, snapshots, windows): a price path summarized as a
    bar, book snapshots sampled uniformly through the day, and cumulative
    intraday windows with volume linear in elapsed time. Deterministic given
    the seed.
    """
    if daily_volume <= 0:
        raise errors.InvalidParams(f"daily_volume must be positive, got {daily_volume}")
    walk, hi, lo, high, low, times, price, level_volume = _session(
        model, book_params, daily_volume, model.seed if seed is None else seed)
    if low <= 0:
        raise errors.InvalidParams("price path crossed zero; lower volatility or drift")

    start = book_params.start_price
    bar = DailyBar(instrument_id=instrument_id, date=day, open=float(start), high=high,
                   low=low, close=_price(model, start, walk.item(-1)),
                   volume=float(daily_volume))
    snapshots = [OrderBookSnapshot(t, *(tuple([BookLevel(p, v) for p in side]) for side in sides))
                 for t, sides, v in zip(times, price.tolist(), level_volume.tolist())]

    windows = []
    steps = model.steps_per_day
    for k in range(1, book_params.n_windows + 1):
        step = max(2, round(k * steps / book_params.n_windows))
        frac = step / steps
        windows.append(IntradayWindow(
            elapsed=frac * _SESSION_LENGTH, session_length=_SESSION_LENGTH,
            cum_volume=daily_volume * frac, high_t=_price(model, start, hi.item(step)),
            low_t=_price(model, start, lo.item(step)),
            last_price=_price(model, start, walk.item(step))))
    return bar, snapshots, windows


def exact_scaling_session(bar: DailyBar, alpha: float, fractions):
    """Intraday windows of a _SESSION_LENGTH-second session satisfying the
    linear-volume and t^alpha-range assumptions exactly, anchored to the
    given full-day bar.

    The window range at fraction f is (high - low) * f^alpha placed around
    the close so the f = 1 window reproduces the bar; last price is the
    close throughout. Useful as an oracle for the time-scaling rule.
    """
    ScalingParams(alpha)  # refuses an alpha outside (0, 1]
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
            elapsed=f * _SESSION_LENGTH, session_length=_SESSION_LENGTH,
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
            raise errors.InvalidParams(f"base_volume must be positive, got {self.base_volume}")
        if self.volume_jitter < 0:
            raise errors.InvalidParams(f"volume_jitter must be >= 0, got {self.volume_jitter}")


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


def default_universe(n_instruments: int = 50, start_price: float = 100.0,
                     seed: int = 0) -> list[InstrumentParams]:
    """Instruments with target liquidity evenly spaced across LIX 5 to 10.

    Each follows Gaussian returns over 250 steps a day, scaled so the
    expected daily range is 2% of the start price. Daily volume is chosen
    so volume * price / expected_range hits the target: the expected daily
    range of a Gaussian-return path is about price * sigma_day * sqrt(8/pi).
    """
    if n_instruments < 1:
        raise errors.InvalidParams(f"n_instruments must be >= 1, got {n_instruments}")
    lo, hi = 5.0, 10.0
    steps, range_fraction = 250, 0.02
    sigma_day = range_fraction / math.sqrt(8 / math.pi)
    universe = []
    for i in range(n_instruments):
        target = lo if n_instruments == 1 else lo + (hi - lo) * i / (n_instruments - 1)
        expected_range = start_price * range_fraction
        volume = expected_range * 10 ** target / start_price
        model = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=steps,
                          volatility_per_step=sigma_day / math.sqrt(steps),
                          seed=seed)
        universe.append(InstrumentParams(
            instrument_id=f"SYN{i:03d}", model=model, base_volume=volume,
            book=BookParams(start_price=start_price)))
    return universe


def _study_days(inst: InstrumentParams, book: BookParams, inst_rng, days: int):
    """The daily LIX and volume of each of `inst`'s days that count, in day
    order, and (volume, day seed) of the last of them, or None.

    A day counts when its session with a one-snapshot book and one window
    would build and its bar has a daily index. The days are walked in
    blocks of at most _BLOCK_BYTES of walk, one row a day, and each block's
    bars and books are checked with the masks of the records' own checks.
    """
    model, start = inst.model, book.start_price
    steps = model.steps_per_day
    walk = _walk_buffer(model, min(days, max(1, _BLOCK_BYTES // (8 * steps))), steps)
    lix_values, volumes, last = [], [], None
    for first in range(0, days, len(walk)):
        block = walk[:min(len(walk), days - first)]
        day_volumes, day_seeds, jitters = [], [], []
        for row in block:
            volume = inst.base_volume
            if inst.volume_jitter > 0:
                volume *= _exp(inst.volume_jitter * inst_rng.standard_normal())
            day_seeds.append(int(inst_rng.integers(0, 2 ** 62)))
            day_volumes.append(volume)
            jitters.append(_day_draws(model, day_seeds[-1], row, 1))
        with np.errstate(all="ignore"):  # a non-finite day fails the checks below
            _offsets(model, block)
            high = _price(model, start, np.maximum(block.max(axis=1), 0.0))
            low = _price(model, start, np.minimum(block.min(axis=1), 0.0))
            close = _price(model, start, block[:, -1])
        volume = np.array(day_volumes, dtype=float)
        open_ = np.full(len(block), float(start))
        # The one window spans the whole day, so it asks low <= close <=
        # high and a volume >= 0, which the bar's checks already ask.
        kept = ((volume > 0) & (low > 0)
                & ~DailyBar.rejects(open_, high, low, close, volume)).nonzero()[0]
        # The one snapshot sits at the close.
        price, level_volume = _ladders(close[kept].tolist(), [day_volumes[k] for k in kept],
                                       (high - low)[kept].tolist(),
                                       np.concatenate(jitters)[kept], book.levels)
        level_volume = np.broadcast_to(level_volume[:, None, None], price.shape)
        kept = kept[~BookLevel.rejects(price, level_volume).any(axis=(1, 2))
                    & ~OrderBookSnapshot.rejects(price, level_volume)].tolist()
        bars = Bars(inst.instrument_id,
                    tuple(datetime.date(2020, 1, 1) + datetime.timedelta(days=first + k)
                          for k in kept),
                    open_[kept], high[kept], low[kept], close[kept], volume[kept])
        for k, value in zip(kept, lix_daily_many(bars)):
            if not isinstance(value, errors.LixError):
                lix_values.append(value)
                volumes.append(day_volumes[k])
                last = (day_volumes[k], day_seeds[k])
    return lix_values, volumes, last


def _full_books(model: PathModel, book: BookParams, volume: float, day_seed: int):
    """The book.n_snapshots snapshots of the session seeded day_seed, as
    Books, or None when a level or book of them would be refused."""
    *_, times, price, level_volume = _session(model, book, volume, day_seed)
    level_volume = np.broadcast_to(level_volume[:, None, None], price.shape)
    if (BookLevel.rejects(price, level_volume).any()
            or OrderBookSnapshot.rejects(price, level_volume).any()):
        return None
    return Books(np.array(times), price, level_volume)


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

    The days are built as arrays, not as synth_session records: each
    instrument's days in blocks of walk rows (_study_days), and the last
    counted day once more with the full book by synth_session's helper
    (_session), straight into Books. The seeds, the draws and every value
    are those of building each day with synth_session, so the values do
    not depend on the block size.

    Returns (RegressionReport, [StudyPoint]).
    """
    if days < 1:
        raise errors.InvalidParams(f"days must be >= 1, got {days}")
    if seed < 0:
        raise errors.InvalidParams(f"seed must be non-negative, got {seed}")
    universe = list(universe)
    points = []
    dropped = 0
    params = ScalingParams(0.5)
    for i, inst in enumerate(universe):
        inst_rng = np.random.default_rng([seed, 2, i])
        book = replace(inst.book, n_snapshots=snapshots_per_day, n_windows=1)
        lix_values, volumes, last = _study_days(inst, book, inst_rng, days)
        if last is None:
            dropped += 1
            continue
        # Only the last counted day's snapshots are read. The snapshot
        # jitter has its own seed stream, so the rebuilt day has the same
        # bar and the snapshots it would have had.
        books = _full_books(inst.model, book, *last)
        if books is None:
            dropped += 1
            continue
        ctx = AdvContext(adv=sum(volumes) / len(volumes))
        lixi_values = [v for v in lixi_many(books, ctx, params)
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
