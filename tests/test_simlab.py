import dataclasses
import datetime
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


def alpha_oracle(model, n_paths, grid):
    """(alpha_hat, stderr) from running extremes over every step of whole
    simulate_paths chunks, read at the realised grid steps."""
    steps = model.steps_per_day
    idx = np.array([max(1, round(f * steps)) for f in grid])
    sums = np.zeros(len(grid))
    for chunk, done in enumerate(range(0, n_paths, 4096)):
        paths = simulate_paths(model, min(4096, n_paths - done), stream=chunk)
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
    "two_chunks": (PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=40,
                             volatility_per_step=0.01, seed=8), 4096 + 37, GRID),
}
# Path counts at the edges of estimate_alpha's walk blocks of B paths, one
# chunk and two.
for _name, _model in {
        "rw": PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=500,
                        volatility_per_step=0.01, seed=9),
        "t3": PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=3, steps_per_day=1000,
                        volatility_per_step=0.001, seed=10)}.items():
    _b = simlab._BLOCK_BYTES // (8 * _model.steps_per_day)
    for _label, _n in {"1": 1, "B-1": _b - 1, "B": _b, "B+1": _b + 1,
                       "4096+B+1": 4096 + _b + 1}.items():
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

    def test_memory_is_one_block_not_one_chunk(self):
        # one chunk of 4096 paths x 1000 steps would be a 32.8 MB buffer
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


class TestPathModelValidation:
    def test_steps_minimum(self):
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.ARITHMETIC_RANDOM_WALK, steps_per_day=5)

    def test_student_t_needs_dof(self):
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.STUDENT_T_RETURNS, dof=2.0)
        with pytest.raises(errors.InvalidParams):
            PathModel(kind=WalkKind.STUDENT_T_RETURNS)


class TestSynthSession:
    BOOK = BookParams(n_snapshots=5, n_windows=4)
    MODEL = PathModel(kind=WalkKind.GAUSSIAN_RETURNS, steps_per_day=100,
                      volatility_per_step=0.001, seed=0)

    def test_deterministic(self):
        a = synth_session(self.MODEL, 1e6, self.BOOK, seed=42)
        b = synth_session(self.MODEL, 1e6, self.BOOK, seed=42)
        assert a == b

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
