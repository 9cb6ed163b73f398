"""Oracles for `lix.simlab`, which walks its paths in place, in chunks and
in blocks of days, takes extremes on offsets and prices only those it reads,
and must give their values bit for bit: whole price paths, priced at every
step (simulate_paths, itself checked against the out-of-place formula of
paths_oracle), sessions worked out one Python float at a time, the alpha
fit over every step of whole paths, and the study built from records.
"""

from __future__ import annotations

import dataclasses
import datetime
import math

import numpy as np

from lix import errors, lix_daily, simlab
from lix.measures import DailyBar, IntradayWindow, ScalingParams
from lix.orderbook import AdvContext, BookLevel, Books, OrderBookSnapshot, lixi_many
from lix.simlab import WalkKind, _ols, synth_session


def simulate_paths(model, n_paths, seed=None, start_price=100.0, stream=0):
    """(n_paths, steps + 1) price paths including the starting price, from
    seed stream [seed, stream], walked in place by the library's own draw
    and walk."""
    s = model.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence([s, stream]))
    out = simlab._walk_buffer(model, n_paths, model.steps_per_day + 1)
    out[:, 0] = start_price
    walk = simlab._draw(model, rng, simlab._walk_buffer(model, n_paths, model.steps_per_day))
    out[:, 1:] = simlab._price(model, start_price, simlab._offsets(model, walk))
    return out


def paths_oracle(model, n_paths, seed, start_price, stream):
    """simulate_paths as the out-of-place formula start + cumsum(vol * z + drift)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    shape = (n_paths, model.steps_per_day)
    if model.volatility_per_step == 0:
        z = np.zeros(shape)
    elif model.kind is WalkKind.STUDENT_T_RETURNS:
        z = rng.standard_t(model.dof, size=shape) * model.volatility_per_step
    else:
        z = rng.standard_normal(shape) * model.volatility_per_step
    inc = z + model.drift_per_step
    out = np.empty((n_paths, model.steps_per_day + 1))
    out[:, 0] = start_price
    if model.kind is WalkKind.ARITHMETIC_RANDOM_WALK:
        out[:, 1:] = start_price + np.cumsum(inc, axis=1)
    else:
        out[:, 1:] = start_price * np.vectorize(math.exp)(np.cumsum(inc, axis=1))
    return out


def session_oracle(model, daily_volume, book_params, seed):
    """synth_session with each snapshot's depth, spread and levels worked
    out one Python float at a time from scalar jitter draws."""
    if daily_volume <= 0:
        raise errors.InvalidParams(f"daily_volume must be positive, got {daily_volume}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    prices = simulate_paths(model, 1, seed=seed, start_price=book_params.start_price)[0]
    if prices.min() <= 0:
        raise errors.InvalidParams("price path crossed zero; lower volatility or drift")
    steps, levels = model.steps_per_day, book_params.levels
    bar = DailyBar(instrument_id="SYN", date=datetime.date(2020, 1, 1),
                   open=float(prices[0]), high=float(prices.max()),
                   low=float(prices.min()), close=float(prices[-1]),
                   volume=float(daily_volume))
    snapshots = []
    for k in range(1, book_params.n_snapshots + 1):
        step = max(1, round(k * steps / book_params.n_snapshots))
        mid = float(prices[step])
        depth = daily_volume * 0.02
        depth *= math.exp(0.25 * rng.standard_normal())
        spread = max(bar.high - bar.low, 1e-6 * mid) * math.sqrt(depth / daily_volume)
        spread *= math.exp(0.15 * rng.standard_normal())
        spread = min(spread, 0.9 * mid * (levels + 1) / levels)
        half, per_level = spread / 2, depth / (2 * levels)
        snapshots.append(OrderBookSnapshot(
            timestamp=step / steps * 28800.0,
            bids=tuple(BookLevel(mid - half * 2 * i / (levels + 1), per_level)
                       for i in range(1, levels + 1)),
            asks=tuple(BookLevel(mid + half * 2 * i / (levels + 1), per_level)
                       for i in range(1, levels + 1))))
    hi, lo = np.maximum.accumulate(prices), np.minimum.accumulate(prices)
    windows = []
    for k in range(1, book_params.n_windows + 1):
        step = max(2, round(k * steps / book_params.n_windows))
        frac = step / steps
        windows.append(IntradayWindow(
            elapsed=frac * 28800.0, session_length=28800.0,
            cum_volume=daily_volume * frac, high_t=float(hi[step]),
            low_t=float(lo[step]), last_price=float(prices[step])))
    return bar, snapshots, windows


def chunk_paths(model):
    """estimate_alpha's chunk size B: the paths of one ~1 MiB walk block."""
    return max(1, simlab._BLOCK_BYTES // (8 * model.steps_per_day))


def alpha_oracle(model, n_paths, grid):
    """(alpha_hat, stderr) from running extremes over every step of whole
    simulate_paths chunks of B paths, read at the realised grid steps and
    added in chunk order."""
    steps = model.steps_per_day
    idx = np.array([max(1, round(f * steps)) for f in grid])
    sums = np.zeros(len(grid))
    b = chunk_paths(model)
    for chunk, done in enumerate(range(0, n_paths, b)):
        paths = simulate_paths(model, min(b, n_paths - done), stream=chunk)
        hi = np.maximum.accumulate(paths, axis=1)
        lo = np.minimum.accumulate(paths, axis=1)
        sums += (hi[:, idx] - lo[:, idx]).sum(axis=0)
    x, y = ([math.log10(v) for v in a.tolist()] for a in (idx / steps, sums / n_paths))
    slope, _, _, stderr = _ols(np.array(x), np.array(y))
    return slope, stderr


def study_oracle(universe, days, seed, snapshots_per_day=100):
    """lixi_vs_lix_study built from records: every day a synth_session with a
    one-snapshot book, the last good day again with the full one, read
    through Books.of."""
    universe = list(universe)
    points = []
    dropped = 0
    params = ScalingParams(0.5)
    for i, inst in enumerate(universe):
        inst_rng = np.random.default_rng(np.random.SeedSequence([seed, 2, i]))
        book = dataclasses.replace(inst.book, n_snapshots=snapshots_per_day, n_windows=1)
        bar_only = dataclasses.replace(book, n_snapshots=1)
        lix_values = []
        volumes = []
        last = None
        for d in range(days):
            volume = inst.base_volume
            if inst.volume_jitter > 0:
                try:
                    volume *= math.exp(inst.volume_jitter * inst_rng.standard_normal())
                except OverflowError:  # past the float range: no bar takes this volume
                    volume = math.inf
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
        ctx = AdvContext(adv=sum(volumes) / len(volumes))
        lixi_values = [v for v in lixi_many(Books.of(last_day), ctx, params)
                       if not isinstance(v, errors.LixError)]
        if not lixi_values:
            dropped += 1
            continue
        points.append(simlab.StudyPoint(
            instrument_id=inst.instrument_id,
            mean_lix=sum(lix_values) / len(lix_values),
            mean_lixi=sum(lixi_values) / len(lixi_values)))
    if len(points) < 2:
        raise errors.DegenerateRegression(
            f"need >= 2 instruments with usable data, got {len(points)}")
    slope, intercept, r_squared, _ = _ols(np.array([p.mean_lix for p in points]),
                                          np.array([p.mean_lixi for p in points]))
    return simlab.RegressionReport(slope=slope, intercept=intercept, r_squared=r_squared,
                                   n_points=len(points), n_dropped=dropped), points
