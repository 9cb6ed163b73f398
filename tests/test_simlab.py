import contextlib
import dataclasses
import datetime
import math
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from lix import errors, lix_daily, lix_intraday_raw, simlab, time_scale_to_daily
from lix.measures import ScalingParams
from lix.simlab import (AlphaEstimate, BookParams, InstrumentParams, PathModel,
                        WalkKind, _ols, default_universe, estimate_alpha,
                        exact_scaling_session, lixi_vs_lix_study, simulate_paths,
                        synth_session)

GRID = [i / 10 for i in range(1, 11)]

RW = PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=500,
               volatility_per_step=0.01, seed=0)


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
        out[:, 1:] = start_price * np.exp(np.cumsum(inc, axis=1))
    return out


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
    slope, _, _, stderr = _ols(np.log10(idx / steps), np.log10(sums / n_paths))
    return slope, stderr


ORACLE_CASES = {
    "rw": (PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=200,
                     volatility_per_step=0.01, seed=5), 300, GRID),
    "gauss": (PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=150,
                        volatility_per_step=0.002, seed=6, drift_per_step=1e-4),
              300, GRID),
    "t3": (PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=3, steps_per_day=150,
                     volatility_per_step=0.001, seed=7), 300, GRID),
    "drift_only": (PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=100,
                             volatility_per_step=0.0, drift_per_step=0.01, seed=0),
                   50, GRID),
    "unsorted_grid": (RW, 300, [0.7, 0.05, 1.0, 0.333, 0.5, 0.12]),
    # B is 3276 paths at 40 steps: a full chunk and one of 857 paths.
    "two_chunks": (PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=40,
                             volatility_per_step=0.01, seed=8), 4096 + 37, GRID),
}
# Path counts at the edges of estimate_alpha's chunks of B paths: one chunk,
# two, and three and four split unevenly over the two workers.
for _name, _model in {
        "rw": PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=500,
                        volatility_per_step=0.01, seed=9),
        "t3": PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=3, steps_per_day=1000,
                        volatility_per_step=0.001, seed=10)}.items():
    _b = chunk_paths(_model)
    for _label, _n in {"1": 1, "B-1": _b - 1, "B": _b, "B+1": _b + 1,
                       "2B+1": 2 * _b + 1, "3B+1": 3 * _b + 1}.items():
        ORACLE_CASES[f"{_name}_paths_{_label}"] = (_model, _n, GRID)


class TestBitIdentity:
    """The in-place walk and block extrema reproduce the full-path formulas
    to the last bit (0 ulps)."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_estimate_alpha_matches_full_path_oracle(self, case):
        model, n_paths, grid = ORACLE_CASES[case]
        est = estimate_alpha(model, n_paths, grid)
        assert (est.alpha_hat, est.stderr) == alpha_oracle(model, n_paths, grid)

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_simulate_paths_matches_out_of_place_formula(self, case):
        model = ORACLE_CASES[case][0]
        for seed, start, stream in [(None, 100.0, 0), (11, 37.5, 3)]:
            paths = simulate_paths(model, 9, seed=seed, start_price=start,
                                   stream=stream)
            expected = paths_oracle(model, 9, model.seed if seed is None else seed,
                                    start, stream)
            assert paths.shape == expected.shape
            assert (paths == expected).all()

    def test_study_golden(self):
        report, points = lixi_vs_lix_study(default_universe(4, seed=5), days=3,
                                           seed=5, snapshots_per_day=6)
        assert repr(report) == (
            "RegressionReport(slope=0.9779117490292107, intercept=0.18598377052660808, "
            "r_squared=0.9960315223853798, n_points=4, n_dropped=0)")
        assert [(p.mean_lix, p.mean_lixi) for p in points] == [
            (5.28161071040736, 5.274536884900969),
            (6.728461237420505, 6.933481752953465),
            (8.47558776923532, 8.352609883669185),
            (10.079720910474352, 10.073551389801603)]

    def test_study_reads_last_good_day_when_final_day_fails(self, monkeypatch):
        # A failed final day leaves the other days' draws as they were, so
        # the study equals the one that stops a day earlier.
        universe = default_universe(4, seed=5)
        expected = lixi_vs_lix_study(universe, days=3, seed=5, snapshots_per_day=6)
        final = datetime.date(2020, 1, 4)
        real = simlab.synth_session
        full_books = []

        def failing_final_day(model, volume, book, **kw):
            if kw["day"] == final:
                raise errors.InvalidParams("synthetic failure")
            if book.n_snapshots == 6:
                full_books.append(kw["day"])
            return real(model, volume, book, **kw)

        monkeypatch.setattr(simlab, "synth_session", failing_final_day)
        got = lixi_vs_lix_study(universe, days=4, seed=5, snapshots_per_day=6)
        assert got == expected
        assert full_books == [final - datetime.timedelta(days=1)] * 4


class TestEstimateAlpha:
    def test_deterministic(self):
        a = estimate_alpha(RW, 2000, GRID)
        b = estimate_alpha(RW, 2000, GRID)
        assert a == b

    def test_random_walk_near_half(self):
        est = estimate_alpha(RW, 20000, GRID)
        assert 0.45 < est.alpha_hat < 0.55

    def test_linear_drift_gives_one(self):
        model = PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=100,
                          volatility_per_step=0.0, drift_per_step=0.01, seed=0)
        est = estimate_alpha(model, 1000, GRID)
        assert est.alpha_hat == pytest.approx(1.0, abs=1e-9)

    def test_student_t_exceeds_half(self):
        model = PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=3,
                          steps_per_day=500, volatility_per_step=0.001, seed=3)
        est = estimate_alpha(model, 20000, GRID)
        assert est.alpha_hat - 0.5 > 3 * est.stderr

    def test_stderr_shrinks_with_paths(self):
        small = estimate_alpha(RW, 1000, GRID)
        large = estimate_alpha(RW, 100_000, GRID)
        assert large.stderr < small.stderr

    def test_degenerate_grid(self):
        with pytest.raises(errors.DegenerateGrid):
            estimate_alpha(RW, 1000, [0.5, 0.5, 1.0])
        with pytest.raises(errors.DegenerateGrid):
            estimate_alpha(RW, 1000, [0.0, 0.5, 1.0])
        with pytest.raises(errors.DegenerateGrid):
            estimate_alpha(RW, 1000, [0.5, 1.0, 1.5])
        ten_steps = dataclasses.replace(RW, steps_per_day=10)
        with pytest.raises(errors.DegenerateGrid):  # both round to step 1
            estimate_alpha(ten_steps, 100, [0.1, 0.12, 1.0])

    def test_regresses_on_realised_grid(self):
        # with 10 steps, f = 0.15 rounds to step 2 and measures f = 0.2
        model = dataclasses.replace(RW, steps_per_day=10)
        requested = estimate_alpha(model, 500, [0.15, 0.5, 1.0])
        realised = estimate_alpha(model, 500, [0.2, 0.5, 1.0])
        assert (requested.alpha_hat, requested.stderr) == (
            realised.alpha_hat, realised.stderr)
        assert requested.time_grid == (0.15, 0.5, 1.0)

    def test_overflowing_model_raises(self):
        # exp overflows to inf; the mean range must not reach the fit as inf
        model = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=10,
                          volatility_per_step=100.0, seed=0)
        with pytest.raises(errors.InvalidParams, match="volatility_per_step 100"):
            estimate_alpha(model, 10, GRID)

    @pytest.mark.parametrize("kind,vol", [(WalkKind.ARITHMETIC_RANDOM_WALK, 1e308),
                                          (WalkKind.GAUSSIAN_RETURNS, 100.0)])
    def test_overflow_raises_without_numpy_warnings(self, kind, vol):
        model = PathModel(kind=kind, steps_per_day=10, volatility_per_step=vol, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(errors.InvalidParams, match="not finite"):
                estimate_alpha(model, 10, GRID)
        assert caught == []

    def test_memory_is_one_buffer_per_worker(self):
        # 4096 paths x 1000 steps are 32.8 MB; two 131-path buffers are 2.1 MB
        model = dataclasses.replace(RW, steps_per_day=1000)
        tracemalloc.start()
        try:
            estimate_alpha(model, 4096, GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_flat_model_raises(self):
        model = PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=100,
                          volatility_per_step=0.0, seed=0)
        with pytest.raises(errors.ZeroRange):
            estimate_alpha(model, 100, GRID)

    def test_unallocatable_walk_raises(self):
        # 2**61 float64 steps are 2**64 bytes: numpy refuses before allocating
        model = dataclasses.replace(RW, steps_per_day=2 ** 61)
        with pytest.raises(errors.InvalidParams, match="steps_per_day"):
            estimate_alpha(model, 1, GRID)
        with pytest.raises(errors.InvalidParams, match="steps_per_day"):
            simulate_paths(model, 1)

    @pytest.mark.parametrize("model, error", [
        (RW, None),
        (PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=10,
                   volatility_per_step=100.0, seed=0), errors.InvalidParams),
        (PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=100,
                   volatility_per_step=0.0, seed=0), errors.ZeroRange),
    ], ids=["result", "overflow", "flat"])
    def test_no_thread_outlives_the_call(self, model, error):
        before = threading.active_count()
        with contextlib.nullcontext() if error is None else pytest.raises(error):
            estimate_alpha(model, 1000, GRID)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_fault_mid_chunk(self, monkeypatch):
        # RW's chunks are 262 paths, so 100 of them leave many chunks to walk
        # when chunk 2 (the first worker's) or chunk 3 (the second's) raises,
        # or when chunk 2 interrupts the waiting caller. Each walk after that
        # is slowed, so a worker that goes on past the chunk it has begun
        # shows.
        real_draw, real_prices = simlab._draw, simlab._prices
        current = threading.local()

        def draw(model, rng, out):
            current.chunk = rng.bit_generator.seed_seq.entropy[1]
            return real_draw(model, rng, out)

        def throw(error):
            raise error

        def interrupt_caller():
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        monkeypatch.setattr(simlab, "_draw", draw)
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            for failing, error, fault in [
                    (2, errors.InvalidParams, lambda: throw(errors.InvalidParams("synthetic"))),
                    (3, KeyboardInterrupt, lambda: throw(KeyboardInterrupt())),
                    (2, KeyboardInterrupt, interrupt_caller)]:
                faulted = threading.Event()
                walked_after = []

                def failing_chunk(*args):
                    if faulted.is_set():
                        walked_after.append(threading.get_ident())
                        time.sleep(0.05)
                    if current.chunk == failing:
                        faulted.set()
                        fault()
                    return real_prices(*args)

                monkeypatch.setattr(simlab, "_prices", failing_chunk)
                before = threading.active_count()
                with pytest.raises(error):
                    estimate_alpha(RW, 100 * chunk_paths(RW), GRID)
                assert threading.active_count() == before
                assert all(walked_after.count(t) <= 1 for t in walked_after), failing
        finally:
            signal.signal(signal.SIGINT, handler)

    @pytest.mark.parametrize("setting, value", [
        ("_WORKERS", 1), ("_WORKERS", 3),
        ("_ROUND_CHUNKS", 1), ("_ROUND_CHUNKS", 2), ("_ROUND_CHUNKS", 3)])
    @pytest.mark.parametrize("case", ["rw_paths_3B+1", "t3_paths_3B+1"])
    def test_values_do_not_depend_on_the_worker_count_or_round_size(
            self, monkeypatch, case, setting, value):
        model, n_paths, grid = ORACLE_CASES[case]
        default = estimate_alpha(model, n_paths, grid)
        monkeypatch.setattr(simlab, setting, value)
        other = estimate_alpha(model, n_paths, grid)
        assert (other.alpha_hat, other.stderr) == (default.alpha_hat, default.stderr)

    def test_huge_path_count_holds_one_round_of_sums(self, monkeypatch):
        # 10**15 paths of RW are 3.8e12 chunks, whose sums would take 300 TB.
        def failing_walk(*args):
            raise errors.InvalidParams("synthetic failure")

        monkeypatch.setattr(simlab, "_prices", failing_walk)
        with pytest.raises(errors.InvalidParams, match="synthetic failure"):
            estimate_alpha(RW, 10 ** 15, GRID)

    def test_concurrent_calls_keep_their_values(self):
        # Four callers, each with its own workers, switching threads often: a
        # draw that lands in the buffer being walked would change a value.
        model, n_paths, grid = ORACLE_CASES["rw_paths_B+1"]
        n_paths *= 3  # four blocks, so each buffer is drawn into twice
        expected = alpha_oracle(model, n_paths, grid)
        got = []

        def call():
            est = estimate_alpha(model, n_paths, grid)
            got.append((est.alpha_hat, est.stderr))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [expected] * 4


class TestPathModelValidation:
    def test_steps_minimum(self):
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=5)

    def test_student_t_needs_dof(self):
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=2.0)
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.STUDENT_T_RETURNS)

    @pytest.mark.parametrize("dof", [math.nan, math.inf])
    def test_student_t_needs_finite_dof(self, dof):
        # numpy's standard_t draws NaN for these
        with pytest.raises(errors.InvalidParams, match="dof"):
            PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=dof)

    @pytest.mark.parametrize("field", ["volatility_per_step", "drift_per_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_walk_parameters_must_be_finite(self, field, value):
        with pytest.raises(errors.InvalidParams,
                           match=f"^{field} must be finite, got {value}$"):
            PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, **{field: value})


class TestSynthSession:
    BOOK = BookParams(n_snapshots=5, n_windows=4)
    GOLDEN_BOOK = BookParams(levels=2, n_snapshots=5, n_windows=4)
    MODEL = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=100,
                      volatility_per_step=0.001, seed=0)

    def test_deterministic(self):
        a = synth_session(self.MODEL, 1e6, self.BOOK, seed=42)
        b = synth_session(self.MODEL, 1e6, self.BOOK, seed=42)
        assert a == b

    def test_golden(self):
        # Pins the bar, book prices and volumes, snapshot times and window
        # fields of one seeded session to the last bit.
        session = synth_session(self.MODEL, 1e6, self.GOLDEN_BOOK, seed=42)
        assert repr(session) == (
            "(DailyBar(instrument_id='SYN', date=datetime.date(2020, 1, 1), "
            'open=100.0, high=100.54960070855898, low=99.49856528752208, '
            'close=99.49856528752208, volume=1000000.0), '
            '[OrderBookSnapshot(timestamp=5760.0, '
            'bids=(BookLevel(price=99.87883781029285, volume=4554.122827347999), '
            'BookLevel(price=99.82351811652431, volume=4554.122827347999)), '
            'asks=(BookLevel(price=99.9894771978299, volume=4554.122827347999), '
            'BookLevel(price=100.04479689159844, volume=4554.122827347999))), '
            'OrderBookSnapshot(timestamp=11520.0, '
            'bids=(BookLevel(price=100.09975441121448, volume=5603.5927438340905), '
            'BookLevel(price=100.04633161538787, volume=5603.5927438340905)), '
            'asks=(BookLevel(price=100.20660000286769, volume=5603.5927438340905), '
            'BookLevel(price=100.2600227986943, volume=5603.5927438340905))), '
            'OrderBookSnapshot(timestamp=17280.0, '
            'bids=(BookLevel(price=100.34014521021821, volume=7585.0710021268105), '
            'BookLevel(price=100.28780943223512, volume=7585.0710021268105)), '
            'asks=(BookLevel(price=100.44481676618439, volume=7585.0710021268105), '
            'BookLevel(price=100.49715254416748, volume=7585.0710021268105))), '
            'OrderBookSnapshot(timestamp=23040.0, '
            'bids=(BookLevel(price=100.16326687655447, volume=4698.574403333579), '
            'BookLevel(price=100.1205525105635, volume=4698.574403333579)), '
            'asks=(BookLevel(price=100.24869560853642, volume=4698.574403333579), '
            'BookLevel(price=100.2914099745274, volume=4698.574403333579))), '
            'OrderBookSnapshot(timestamp=28800.0, '
            'bids=(BookLevel(price=99.45313107022973, volume=4201.021486256049), '
            'BookLevel(price=99.40769685293739, volume=4201.021486256049)), '
            'asks=(BookLevel(price=99.54399950481444, volume=4201.021486256049), '
            'BookLevel(price=99.58943372210678, volume=4201.021486256049)))], '
            '[IntradayWindow(elapsed=7200.0, session_length=28800.0, '
            'cum_volume=250000.0, high_t=100.09562057592183, '
            'low_t=99.66499110283645, last_price=99.91156415858032), '
            'IntradayWindow(elapsed=14400.0, session_length=28800.0, '
            'cum_volume=500000.0, high_t=100.45709666666667, '
            'low_t=99.66499110283645, last_price=100.45709666666667), '
            'IntradayWindow(elapsed=21600.0, session_length=28800.0, '
            'cum_volume=750000.0, high_t=100.54960070855898, '
            'low_t=99.66499110283645, last_price=100.13205488251819), '
            'IntradayWindow(elapsed=28800.0, session_length=28800.0, '
            'cum_volume=1000000.0, high_t=100.54960070855898, '
            'low_t=99.49856528752208, last_price=99.49856528752208)])')

    def test_zero_volatility_yields_flat_bar(self):
        model = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=100,
                          volatility_per_step=0.0, seed=0)
        bar, _, _ = synth_session(model, 1e6, self.BOOK, seed=1)
        assert bar.high == bar.low
        with pytest.raises(errors.ZeroRange):
            lix_daily(bar)

    def test_linear_volume(self):
        _, _, windows = synth_session(self.MODEL, 1e6, self.BOOK, seed=7)
        halfway = windows[1]  # k = 2 of 4
        assert halfway.elapsed == pytest.approx(halfway.session_length / 2)
        assert halfway.cum_volume == pytest.approx(5e5, rel=1e-9)

    def test_invariants_across_seeds(self):
        # bar/snapshot/window constructors validate their own invariants;
        # success across many seeds is the property under test
        for seed in range(1000):
            bar, snaps, windows = synth_session(self.MODEL, 1e6, self.BOOK,
                                                seed=seed)
            assert len(snaps) == self.BOOK.n_snapshots
            assert len(windows) == self.BOOK.n_windows
            assert bar.low <= bar.open <= bar.high

    @pytest.mark.parametrize("levels", [1, 5, 10])
    def test_volatile_books_stay_positive_at_any_depth(self, levels):
        # a wide realised range makes the spread cap bind on many snapshots
        model = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=100,
                          volatility_per_step=0.3, seed=0)
        book = BookParams(levels=levels)
        for seed in range(50):
            _, snaps, _ = synth_session(model, 1e6, book, seed=seed)
            assert len(snaps) == book.n_snapshots
            for snap in snaps:
                assert len(snap.bids) == len(snap.asks) == levels
                assert min(lvl.price for lvl in snap.bids) > 0


class TestExactScalingSession:
    def test_golden(self):
        bar, _, _ = synth_session(TestSynthSession.MODEL, 1e6,
                                  TestSynthSession.GOLDEN_BOOK, seed=42)
        assert repr(exact_scaling_session(bar, 0.5, [0.25, 1.0])) == (
            '[IntradayWindow(elapsed=7200.0, session_length=28800.0, '
            'cum_volume=250000.0, high_t=100.02408299804054, '
            'low_t=99.49856528752208, last_price=99.49856528752208), '
            'IntradayWindow(elapsed=28800.0, session_length=28800.0, '
            'cum_volume=1000000.0, high_t=100.54960070855898, '
            'low_t=99.49856528752208, last_price=99.49856528752208)]')

    @pytest.mark.parametrize("alpha", [0.5, 0.6])
    def test_reproduces_daily(self, alpha, reference_bar):
        bar = reference_bar
        fractions = [k / 100 for k in range(1, 101)]
        daily = lix_daily(bar).value
        for w in exact_scaling_session(bar, alpha, fractions):
            scaled = time_scale_to_daily(lix_intraday_raw(w), w.elapsed,
                                         w.session_length, ScalingParams(alpha))
            assert scaled.value == pytest.approx(daily, abs=1e-10)


class TestStudy:
    def test_self_regression_sanity(self):
        from lix.simlab import _ols
        import numpy as np
        x = np.array([5.0, 6.0, 7.5, 9.0, 10.0])
        slope, intercept, r2, _ = _ols(x, x)
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_small_study(self):
        universe = default_universe(10, seed=7)
        report, points = lixi_vs_lix_study(universe, days=5, seed=7,
                                           snapshots_per_day=20)
        assert report.n_points == 10
        assert report.r_squared >= 0.9
        assert 0.85 <= report.slope <= 1.15

    def test_one_instrument_is_degenerate(self):
        with pytest.raises(errors.DegenerateRegression):
            lixi_vs_lix_study(default_universe(1), days=3, seed=0)

    def test_price_scale_invariance(self):
        # multiplying every start price by a constant shifts both averages
        # equally; slope and R^2 must not move
        def run(price):
            universe = default_universe(10, start_price=price, seed=3)
            return lixi_vs_lix_study(universe, days=5, seed=3,
                                     snapshots_per_day=20)[0]
        a, b = run(100.0), run(700.0)
        assert b.slope == pytest.approx(a.slope, abs=1e-9)
        assert b.r_squared == pytest.approx(a.r_squared, abs=1e-9)

    def test_dropped_instruments_counted(self):
        flat = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=100,
                         volatility_per_step=0.0, seed=0)
        universe = default_universe(3, seed=0) + [
            InstrumentParams(instrument_id="FLAT", model=flat, base_volume=1e6,
                             book=BookParams(), volume_jitter=0.0)]
        report, points = lixi_vs_lix_study(universe, days=3, seed=0,
                                           snapshots_per_day=10)
        assert report.n_dropped == 1
        assert report.n_points == 3
