"""Tests for the Holt-Winters smoother, damped-trend forecast, and grid fit."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from csv_files import write_csv
from etsfore import classical as hw
from etsfore import cli
from etsfore.errors import DataError, DimensionError, DomainError

NAMES = ("alpha", "beta", "gamma", "phi")


def simulate(params, T, seed, sigma=0.6):
    """Self-consistent generator: one-step forecast plus innovation, states
    updated by the same smoothing recurrences (independent of hw_smooth)."""
    rng = np.random.default_rng(seed)
    base = [1.5, -0.5, -1.2, 0.2][: params.period]
    svals = list(np.array(base) - np.mean(base))
    e, b = 10.0, 0.3
    xs = []
    for t in range(1, T + 1):
        x = e + params.phi * b + svals[t - 1] + sigma * rng.normal()
        e_new = params.alpha * (x - svals[t - 1]) + (1 - params.alpha) * (e + b)
        b = params.beta * (e_new - e) + (1 - params.beta) * b
        svals.append(params.gamma * (x - e_new) + (1 - params.gamma) * svals[t - 1])
        e = e_new
        xs.append(x)
    return np.array(xs)


def smooth_loop(x, a, be, ga, p):
    """The scalar recurrence hw_smooth ran before it took candidate arrays,
    from default_init's seeds; kept as the oracle of the candidate axis."""
    xs = x.tolist()
    e0 = float(x[:p].mean())
    e, b, s = [e0], [0.0], (x[:p] - e0).tolist()
    for t in range(1, len(xs) + 1):
        xt, s_lag = xs[t - 1], s[t - 1]
        e.append(a * (xt - s_lag) + (1.0 - a) * (e[t - 1] + b[t - 1]))
        b.append(be * (e[t] - e[t - 1]) + (1.0 - be) * b[t - 1])
        s.append(ga * (xt - e[t]) + (1.0 - ga) * s_lag)
    return np.array(e), np.array(b), np.array(s)


def errors_loop(x, a, be, ga, ph, p):
    """One-step errors of one candidate, as one_step_errors computed them."""
    e, b, s = smooth_loop(x, a, be, ga, p)
    T = x.size
    return x - (e[:T] + ph * b[:T] + s[:T])


def time_order_sse(err):
    """Sum of squared errors, added in time order."""
    total = 0.0
    for v in (err * err).tolist():
        total += v
    return total


def fit_grid_loop(x, period, resolution, val_fraction=0.25, errors=errors_loop):
    """The per-candidate search hw_fit_grid replaced: visit the grid in
    ascending (alpha, beta, gamma, phi) order, score each tail by its
    time-order sum of squared errors over its length, and replace only on
    strict improvement. Returns (mse, (alpha, beta, gamma, phi))."""
    T = x.size
    n_val = max(1, int(round(val_fraction * T)))
    grid = hw.grid_values(resolution)
    best = None
    for a in grid["alpha"]:
        for be in grid["beta"]:
            for ga in grid["gamma"]:
                for ph in grid["phi"]:
                    err = errors(x, float(a), float(be), float(ga), float(ph), period)[T - n_val :]
                    mse = time_order_sse(err) / n_val
                    if best is None or mse < best[0]:
                        best = (mse, (a, be, ga, ph))
    return best


def near_overflow(rng, T, exponent):
    """Random signs, magnitudes in [0.5, 1) * 10**exponent: from 1e154 the
    squared errors overflow to inf, and at 1e308 the states reach inf - inf."""
    return rng.choice([-1.0, 1.0], size=T) * rng.uniform(0.5, 1.0, size=T) * 10.0**exponent


def fit_key(mse, params):
    """Bytes of the MSE and the four parameters, so NaN compares equal to NaN."""
    return np.array([mse, *params], dtype=np.float64).tobytes()


class TestHwSmooth:
    def test_constant_series_is_fixed_point(self):
        c = 4.25
        x = np.full(20, c)
        # default_init seeds a constant series at its fixed point
        init = hw.default_init(x, 4)
        assert init.level.tolist() == [c] and init.growth.tolist() == [0.0]
        assert init.seasonal.tolist() == [0.0] * 4
        state, _ = hw.hw_smooth(x, hw.HwParams(0.4, 0.3, 0.2, period=4))
        np.testing.assert_allclose(state.level, c)
        np.testing.assert_allclose(state.growth, 0.0)
        np.testing.assert_allclose(state.seasonal, 0.0)

    def test_full_update_limit_drops_prior_state(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=12)
        params = hw.HwParams(1 - 1e-12, 1 - 1e-12, 1 - 1e-12, period=3)
        # the final states of each prefix against those of the one before;
        # the oldest seasonal of a prefix is the next step's s_lag
        for t in range(5, 13):
            prev, _ = hw.hw_smooth(x[: t - 1], params)
            state, _ = hw.hw_smooth(x[:t], params)
            assert state.level[0] == pytest.approx(x[t - 1] - prev.seasonal[0], abs=1e-9)
            assert state.growth[0] == pytest.approx(state.level[0] - prev.level[0], abs=1e-9)
            assert state.seasonal[-1] == pytest.approx(x[t - 1] - state.level[0], abs=1e-9)

    def test_matches_step_by_step_recurrence(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=30)
        p = 5
        params = hw.HwParams(0.3, 0.2, 0.4, 0.9, period=p)
        init = hw.default_init(x, p)  # the seeds hw_smooth starts from
        # independent recurrence with python scalars, against the final
        # states of every prefix long enough to smooth
        e, b = init.level[0], init.growth[0]
        s = list(init.seasonal)
        for t in range(1, 31):
            s_lag = s[t - 1]
            e_new = params.alpha * (x[t - 1] - s_lag) + (1 - params.alpha) * (e + b)
            b = params.beta * (e_new - e) + (1 - params.beta) * b
            s.append(params.gamma * (x[t - 1] - e_new) + (1 - params.gamma) * s_lag)
            e = e_new
            if t > p:
                state, _ = hw.hw_smooth(x[:t], params)
                assert state.level.tolist() == [e] and state.growth.tolist() == [b]
                assert state.seasonal.tolist() == s[-p:]

    def test_too_short_series_rejected(self):
        with pytest.raises(DataError):
            hw.hw_smooth(np.ones(4), hw.HwParams(0.5, 0.5, 0.5, period=4))

    def test_reproducible(self):
        x = np.random.default_rng(2).normal(size=25)
        params = hw.HwParams(0.5, 0.4, 0.3, period=4)
        (a, sse_a), (b, sse_b) = (hw.hw_smooth(x, params, 10) for _ in range(2))
        assert np.array_equal(a.level, b.level)
        assert np.array_equal(a.seasonal, b.seasonal)
        assert sse_a.tobytes() == sse_b.tobytes()


class TestHwForecast:
    def _state(self, e, b, p=4, T=8):
        return hw.HwState(
            level=np.concatenate([np.zeros(T), [e]]),
            growth=np.concatenate([np.zeros(T), [b]]),
            seasonal=np.zeros(p + T),
            period=p,
        )

    def test_undamped_is_vanilla_linear_trend(self):
        state = self._state(5.0, 0.5)
        out = hw.hw_forecast(state, hw.HwParams(0.5, 0.5, 0.5, phi=1.0, period=4), 6)
        np.testing.assert_allclose(out, 5.0 + 0.5 * np.arange(1, 7))

    def test_damped_two_steps_by_hand(self):
        state = self._state(10.0, 1.0)
        out = hw.hw_forecast(state, hw.HwParams(0.5, 0.5, 0.5, phi=0.9, period=4), 2)
        np.testing.assert_allclose(out, [10.9, 11.71])

    def test_trend_contribution_reaches_asymptote(self):
        state = self._state(0.0, 1.0)
        params = hw.HwParams(0.5, 0.5, 0.5, phi=0.5, period=4)
        out = hw.hw_forecast(state, params, 60)
        assert abs(out[-1] - 0.5 / (1 - 0.5)) < 1e-9
        # monotone toward the bound; increments vanish once float64 saturates
        assert np.all(np.diff(out) >= 0)
        assert np.all(np.diff(out[:20]) > 0)
        assert np.all(out <= 0.5 / (1 - 0.5) + 1e-12)

    def test_seasonal_wraparound(self):
        p = 4
        T = 6
        seas = np.arange(p + T, dtype=float)
        state = hw.HwState(
            level=np.zeros(T + 1), growth=np.zeros(T + 1), seasonal=seas, period=p
        )
        out = hw.hw_forecast(state, hw.HwParams(0.5, 0.5, 0.5, phi=1.0, period=p), 9)
        # steps 1..4 read the last stored period (entries 6..9); step 5 wraps back
        np.testing.assert_allclose(out, [6, 7, 8, 9, 6, 7, 8, 9, 6])

    @pytest.mark.parametrize("p, T, h, phi", [(1, 5, 7, 0.8), (4, 6, 9, 1.0), (4, 10, 3, 0.5),
                                               (5, 12, 23, 0.9), (12, 30, 48, 0.97)])
    def test_bitwise_equal_to_step_loop(self, p, T, h, phi):
        """The per-step loop hw_forecast replaced stays here as its oracle."""
        rng = np.random.default_rng(T)
        state = hw.HwState(level=rng.normal(size=T + 1), growth=rng.normal(size=T + 1),
                           seasonal=rng.normal(size=T + p) * 1e3, period=p)
        params = hw.HwParams(0.5, 0.5, 0.5, phi=phi, period=p)
        damp = np.cumsum(phi ** np.arange(1, h + 1, dtype=np.float64))
        want = np.empty(h)
        for step in range(1, h + 1):
            wrap = T + step - p * math.ceil(step / p)
            want[step - 1] = state.level[-1] + damp[step - 1] * state.growth[-1] + \
                state.seasonal[wrap + p - 1]
        assert hw.hw_forecast(state, params, h).tobytes() == want.tobytes()

    @pytest.mark.parametrize("p, T, h", [(4, 30, 9), (5, 37, 23), (7, 45, 15), (12, 50, 48)])
    def test_final_states_forecast_as_full_length_states_did(self, p, T, h):
        # T % p != 0 and h > 2p: the forecast wraps twice from a phase the
        # series ends mid-way through; the oracle indexes smooth_loop's
        # full-length states as hw_forecast did before the states were final
        x = np.random.default_rng(T).normal(size=T) * 10.0
        params = hw.HwParams(0.3, 0.2, 0.6, phi=0.9, period=p)
        e, b, s = smooth_loop(x, 0.3, 0.2, 0.6, p)
        damp = np.cumsum(0.9 ** np.arange(1, h + 1, dtype=np.float64))
        step = np.arange(1, h + 1)
        wrap = T + step - p * -(-step // p)
        want = e[-1] + damp * b[-1] + s[wrap + p - 1]
        state, _ = hw.hw_smooth(x, params)
        assert hw.hw_forecast(state, params, h).tobytes() == want.tobytes()

    @pytest.mark.parametrize("h", [1, 3, 4, 30])
    def test_candidate_arrays_match_scalar_calls(self, h):
        x = np.random.default_rng(h).normal(size=50) * 20.0
        values = {k: np.array([0.2, 0.5, 0.9]) for k in ("alpha", "beta", "gamma")}
        for params in (hw.HwParams(**values, phi=np.array([0.6, 0.95, 1.0]), period=4),
                       hw.HwParams(*(v[:, None] for v in values.values()),
                                   phi=np.array([0.5, 0.8, 0.9, 1.0]), period=4)):
            out = hw.hw_forecast(hw.hw_smooth(x, params)[0], params, h)
            assert out.shape == (h,) + params.shape
            for j in np.ndindex(params.shape):
                one = hw.HwParams(*(np.broadcast_to(getattr(params, k), params.shape)[j]
                                    for k in NAMES), period=4)
                want = hw.hw_forecast(hw.hw_smooth(x, one)[0], one, h)
                assert out[(slice(None),) + j].tobytes() == want.tobytes()

    def test_zero_growth_constant_forecast(self):
        state = self._state(3.0, 0.0)
        out = hw.hw_forecast(state, hw.HwParams(0.2, 0.2, 0.2, phi=0.7, period=4), 10)
        np.testing.assert_allclose(out, 3.0)


class TestHwFitGrid:
    def test_recovers_generating_params_on_grid(self):
        # (params, trajectory seed) pairs verified identifiable from one series
        cases = [
            ((0.1, 0.1, 0.9, 0.5), 0),
            ((0.5, 0.5, 0.5, 1.0), 1),
            ((0.5, 0.1, 0.5, 1.0), 3),
            ((0.9, 0.9, 0.9, 1.0), 4),
            ((0.1, 0.5, 0.5, 0.75), 5),
        ]
        for tp, seed in cases:
            true = hw.HwParams(*tp, period=4)
            x = simulate(true, 400, seed)
            fit = hw.hw_fit_grid(x, 4, 3)
            got = (fit.params.alpha, fit.params.beta, fit.params.gamma, fit.params.phi)
            assert np.allclose(got, tp), f"{tp} -> {got}"
            assert not fit.degenerate

    def test_noiseless_damped_series_identifies_damping(self):
        true = hw.HwParams(0.5, 0.5, 0.5, 0.5, period=4)
        x = simulate(true, 200, 0, sigma=0.0)
        fit = hw.hw_fit_grid(x, 4, 3)
        assert fit.params.phi == pytest.approx(0.5)
        assert fit.val_mse < 1e-20

    def test_constant_series_flagged_with_zero_error(self):
        fit = hw.hw_fit_grid(np.full(40, 2.0), 4, 2)
        assert fit.degenerate
        assert fit.val_mse == pytest.approx(0.0, abs=1e-25)

    def test_single_point_grid_returns_that_point(self):
        x = simulate(hw.HwParams(0.5, 0.5, 0.5, 1.0, period=4), 60, 3)
        fit = hw.hw_fit_grid(x, 4, 1)
        vals = hw.grid_values(1)
        assert fit.params.alpha == vals["alpha"][0]
        assert fit.params.phi == vals["phi"][0]

    def test_tie_break_prefers_smaller_parameters(self):
        # constant series: every candidate scores 0, so the first wins
        fit = hw.hw_fit_grid(np.full(40, 1.0), 4, 3)
        vals = hw.grid_values(3)
        assert fit.params.alpha == vals["alpha"][0]
        assert fit.params.beta == vals["beta"][0]
        assert fit.params.gamma == vals["gamma"][0]
        assert fit.params.phi == vals["phi"][0]

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            hw.HwParams(0.0, 0.5, 0.5, period=4)
        with pytest.raises(DomainError):
            hw.HwParams(0.5, 0.5, 0.5, phi=1.2, period=4)

    @pytest.mark.parametrize("name, bad", [
        ("alpha", 1.0), ("beta", 0.0), ("gamma", np.nan), ("phi", np.nextafter(1.0, 2.0)),
        ("phi", 0.0), ("alpha", -np.inf),
    ])
    def test_one_element_out_of_domain_in_an_array(self, name, bad):
        values = {k: np.array([0.3, 0.5, 0.7]) for k in NAMES}
        values[name][1] = bad
        with pytest.raises(DomainError, match=f"{name} must lie in"):
            hw.HwParams(**values, period=4)

    def test_candidate_shapes_checked(self):
        assert hw.HwParams(np.full(3, 0.5), 0.5, 0.5, np.ones(3), period=2).shape == (3,)
        assert hw.HwParams(0.5, 0.5, 0.5, period=2).shape == ()
        with pytest.raises(DimensionError):
            hw.HwParams(np.full(3, 0.5), np.full(2, 0.5), 0.5, period=2)
        # any shapes that broadcast: (n, 1) rates against (R,) phi
        two_d = hw.HwParams(np.full((2, 1), 0.5), 0.5, 0.5, np.ones(3), period=2)
        assert two_d.shape == (2, 3) and two_d.rate_shape == (2, 1)

    @staticmethod
    @st.composite
    def series(draw):
        """A series, its period, grid resolution and validation fraction.

        Kinds: noise at scales 1e-3..1e3, a constant (every candidate
        ties), and magnitudes near the float64 limit, whose squared errors
        overflow to inf and whose states reach inf - inf = NaN.
        """
        p = draw(st.integers(1, 5))
        T = draw(st.integers(p + 2, 180))
        # 0.8 of 161..180 steps are tails of 129..144, past numpy's
        # 128-element pairwise-summation block
        val_fraction = draw(st.sampled_from([0.25, 0.1, 0.5, 0.8]))
        assume(T - max(1, int(round(val_fraction * T))) > p)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(["noise", "constant", "huge"]))
        if kind == "constant":
            x = np.full(T, draw(st.sampled_from([0.0, -2.5, 1e-300, 7.0])))
        elif kind == "huge":
            x = near_overflow(rng, T, draw(st.sampled_from([308, 300, 160])))
        else:
            t = np.arange(T)
            x = (rng.normal(size=T) + np.sin(2 * np.pi * t / p) + 0.01 * t)
            x *= 10.0 ** draw(st.floats(-3.0, 3.0))
        return x, p, draw(st.integers(1, 4)), val_fraction

    @settings(max_examples=60, deadline=None)
    @given(series())
    # inf and NaN scores, with an inf first candidate
    @example((near_overflow(np.random.default_rng(0), 40, 308), 2, 2, 0.25))
    # every candidate ties at 0; a tail of 144 steps
    @example((np.full(30, 3.0), 4, 3, 0.25))
    @example((np.sin(np.arange(180.0)), 3, 2, 0.8))
    def test_bitwise_equal_to_per_candidate_loop(self, case):
        x, p, res, val_fraction = case
        with np.errstate(all="ignore"):
            fit = hw.hw_fit_grid(x, p, res, val_fraction)
            want = fit_grid_loop(x, p, res, val_fraction)
        got = (fit.params.alpha, fit.params.beta, fit.params.gamma, fit.params.phi)
        assert fit_key(fit.val_mse, got) == fit_key(*want)
        assert fit.params.period == p

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tie_and_nan_rule_across_blocks(self, data):
        """Scores drawn from {0, 1, 2, inf, NaN} per channel: ties, a NaN
        first candidate and NaN or tied block heads, over 1 to 3 channels
        in blocks of 1 to 5 triples each. The blocks each draw runs are
        read back from the calls."""
        res = data.draw(st.integers(1, 3))
        C = data.draw(st.integers(1, 3))
        n = res**4
        scores = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 1.0, 2.0, np.inf, np.nan]), min_size=C * n, max_size=C * n)))
        scores = scores.reshape(C, n)
        grid = hw.grid_values(res)
        T, period = 12, 2
        x = np.tile(np.arange(C, dtype=np.float64), (T, 1))  # each column holds its index

        def index(params):
            pos = [np.searchsorted(grid[k], getattr(params, k)) for k in NAMES]
            return np.ravel_multi_index(pos, (res,) * 4)

        blocks = []

        def fake_smooth(x, params, scored):
            # (T, channels, 1) against (R, 1, triples) candidates
            channels = x[0, :, 0].astype(int)
            blocks.append((channels.tolist(), params.shape[-1]))
            shape = (1, channels.size, params.shape[-1])
            state = hw.HwState(np.zeros((1,) + shape), np.zeros((1,) + shape),
                               np.zeros((period,) + shape), period)
            # (R, channels, triples) errors
            e = np.moveaxis(scores[channels][:, index(params)[:, 0]], 0, 1)
            return state, e * e * scored  # each step's square, summed over the tail

        # triples per block from the block rule: every channel, and as many
        # triples as the budget holds of C (channel, triple) units, at least one
        depth = data.draw(st.integers(0, 5))
        unit = C * (period + 11 + 2 * res)
        budget = depth * unit + data.draw(st.integers(0, unit - 1))
        with mock.patch.object(hw, "hw_smooth", fake_smooth), \
                mock.patch.object(hw, "_BLOCK_WORDS", budget), np.errstate(all="ignore"):
            fits = hw.hw_fit_grid(x, period, res)
        depth = max(depth, 1)
        assert blocks == [(list(range(C)), min(depth, res**3 - lo))
                          for lo in range(0, res**3, depth)]
        for c, fit in enumerate(fits):
            def loop_errors(x, a, be, ga, ph, p):
                return np.full(T, scores[c, index(hw.HwParams(a, be, ga, ph, period=p))])

            with np.errstate(all="ignore"):
                want = fit_grid_loop(x[:, c], period, res, errors=loop_errors)
            got = (fit.params.alpha, fit.params.beta, fit.params.gamma, fit.params.phi)
            assert fit_key(fit.val_mse, got) == fit_key(*want)

    @staticmethod
    @st.composite
    def channels(draw):
        """A (T, C) fit part of 1 to 4 channels, each noise, a constant or
        near the float64 limit (inf and NaN scores); its period, grid
        resolution, and a block size in triples that may split the grid
        mid-way."""
        C = draw(st.integers(1, 4))
        p = draw(st.integers(1, 13))  # past 8, np.mean sums the first period pairwise
        T = draw(st.integers(2 * p + 2, 60))  # the fit part left after the tail exceeds p
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cols = []
        for _ in range(C):
            kind = draw(st.sampled_from(["noise", "constant", "huge"]))
            if kind == "constant":
                cols.append(np.full(T, draw(st.sampled_from([0.0, -2.5, 7.0]))))
            elif kind == "huge":
                cols.append(near_overflow(rng, T, draw(st.sampled_from([308, 160]))))
            else:
                cols.append(rng.normal(size=T) * 10.0 ** draw(st.floats(-3.0, 3.0)))
        res = draw(st.integers(1, 3))
        return np.stack(cols, axis=1), p, res, draw(st.integers(1, res**3))

    @settings(max_examples=60, deadline=None)
    @given(channels())
    # a constant and a near-overflow channel in blocks of two triples; a
    # period past 8, in blocks of three triples
    @example((np.stack([np.full(30, 2.0), near_overflow(np.random.default_rng(1), 30, 308),
                        np.sin(np.arange(30.0))], axis=1), 3, 3, 2))
    @example((np.random.default_rng(2).normal(size=(40, 2)) * 1e3, 12, 2, 3))
    def test_channels_fit_as_separate_series(self, case):
        x, p, res, depth = case
        budget = depth * x.shape[1] * (p + 11 + 2 * res)  # triples of every channel
        with mock.patch.object(hw, "_BLOCK_WORDS", budget), np.errstate(all="ignore"):
            fits = hw.hw_fit_grid(x, p, res)
        assert len(fits) == x.shape[1]
        for c, fit in enumerate(fits):
            with np.errstate(all="ignore"):
                one = hw.hw_fit_grid(np.ascontiguousarray(x[:, c]), p, res)
                smooth, _ = hw.hw_smooth(x[:, c], fit.params)
                # the range of a near-overflow example overflows
                constant = np.ptp(x[:, c]) == 0.0
            got = (fit.params.alpha, fit.params.beta, fit.params.gamma, fit.params.phi)
            want = (one.params.alpha, one.params.beta, one.params.gamma, one.params.phi)
            assert fit_key(fit.val_mse, got) == fit_key(one.val_mse, want)
            assert fit.degenerate == one.degenerate == constant
            for state in (fit.state, one.state):
                assert state.period == p
                for got_a, want_a in ((state.level, smooth.level), (state.growth, smooth.growth),
                                      (state.seasonal, smooth.seasonal)):
                    assert got_a.shape == want_a.shape and got_a.tobytes() == want_a.tobytes()

    def test_working_memory_bounded_by_budget_not_grid(self):
        x = np.random.default_rng(6).normal(size=200)
        tracemalloc.start()
        try:
            hw.hw_fit_grid(x, 4, 12)  # 20736 candidates
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all candidates at once would hold several 200 x 20736 float64 arrays (33 MB each)
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("T, resolution", [(3000, 2), (1000, 5), (3000, 5)])
    def test_working_memory_bounded_across_channels(self, T, resolution):
        # whatever the length, a block holds every channel and as many
        # triples as fit the budget: at grid 5, 124 triples of 64 units of
        # 12 + 11 + 10 words (2 MiB), then the last triple
        x = np.random.default_rng(7).normal(size=(T, 64))
        tracemalloc.start()
        try:
            fits = hw.hw_fit_grid(x, 12, resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the winners' states are the result, which the caller keeps
        kept = sum(a.nbytes for f in fits for a in (f.state.level, f.state.growth, f.state.seasonal))
        assert peak - kept < 3 * 2**20

    def test_etth1_sized_fit_is_one_pass(self):
        # ETTh1's first 75 %: 7 channels of 13 065 steps at period 24 and
        # grid 5 run as one recurrence, and each channel gets its 1-d fit
        rng = np.random.default_rng(11)
        t = np.arange(13065.0)[:, None]
        x = 5.0 * np.sin(2 * np.pi * t / 24 + np.arange(7)) + 0.001 * t
        x += rng.normal(size=x.shape)
        calls, smooth = [], hw.hw_smooth

        def count_smooth(*args):
            calls.append(args[1].shape)
            return smooth(*args)

        with mock.patch.object(hw, "hw_smooth", count_smooth):
            fits = hw.hw_fit_grid(x, 24, 5)
        assert calls == [(5, 1, 125)]  # (phi, 1, triples)
        for c, fit in enumerate(fits):
            one = hw.hw_fit_grid(np.ascontiguousarray(x[:, c]), 24, 5)
            got = (fit.params.alpha, fit.params.beta, fit.params.gamma, fit.params.phi)
            want = (one.params.alpha, one.params.beta, one.params.gamma, one.params.phi)
            assert fit_key(fit.val_mse, got) == fit_key(one.val_mse, want)
            for name in ("level", "growth", "seasonal"):
                assert getattr(fit.state, name).tobytes() == getattr(one.state, name).tobytes()


class TestCandidateAxis:
    """Every candidate of an array call gets the bits of its scalar call."""

    @staticmethod
    def candidates(n, seed):
        rng = np.random.default_rng(seed)
        return {k: rng.uniform(0.01, 0.99, n) for k in ("alpha", "beta", "gamma")} | {
            "phi": rng.uniform(0.01, 1.0, n)}

    @pytest.mark.parametrize("p", [1, 3, 7])
    def test_smooth_and_errors_match_scalar_calls(self, p):
        x = np.random.default_rng(p).normal(size=40) * 50.0
        values = self.candidates(9, p)
        values["phi"][0] = 1.0
        vec = hw.HwParams(**values, period=p)
        state, sse = hw.hw_smooth(x, vec, 17)
        assert state.level.shape == state.growth.shape == (1, 9)
        assert state.seasonal.shape == (p, 9) and sse.shape == (9,)
        for j in range(9):
            one = hw.HwParams(**{k: v[j] for k, v in values.items()}, period=p)
            s1, sse1 = hw.hw_smooth(x, one, 17)
            for got, want in ((state.level, s1.level), (state.growth, s1.growth),
                              (state.seasonal, s1.seasonal), (sse, sse1)):
                assert got[..., j].tobytes() == want.tobytes()
            e, b, s = smooth_loop(x, one.alpha, one.beta, one.gamma, p)
            assert (e[-1:].tobytes(), b[-1:].tobytes(), s[-p:].tobytes()) == (
                s1.level.tobytes(), s1.growth.tobytes(), s1.seasonal.tobytes())
            err = errors_loop(x, one.alpha, one.beta, one.gamma, one.phi, p)
            assert sse1.tobytes() == np.float64(time_order_sse(err[-17:])).tobytes()

    def test_one_step_errors_is_a_step_of_errors_loop(self):
        x = np.random.default_rng(4).normal(size=30) * 5.0
        e, b, s = smooth_loop(x, 0.3, 0.6, 0.2, 4)
        phi = np.array([0.5, 0.9, 1.0])
        want = np.stack([errors_loop(x, 0.3, 0.6, 0.2, ph, 4) for ph in phi], axis=1)
        for t in range(30):
            assert hw.one_step_errors(x[t], e[t], b[t], s[t], phi).tobytes() == want[t].tobytes()
            out = np.empty(3)
            assert hw.one_step_errors(x[t], e[t], b[t], s[t], phi, out=out) is out
            assert out.tobytes() == want[t].tobytes()

    def test_scalar_params_mixed_with_arrays_broadcast(self):
        x = np.random.default_rng(8).normal(size=30)
        values = self.candidates(4, 8)
        mixed = hw.HwParams(values["alpha"], 0.4, values["gamma"], 0.9, period=3)
        sse = hw.hw_smooth(x, mixed, 30)[1]
        for j in range(4):
            one = hw.HwParams(values["alpha"][j], 0.4, values["gamma"][j], 0.9, period=3)
            assert sse[j].tobytes() == hw.hw_smooth(x, one, 30)[1].tobytes()

    def test_states_do_not_depend_on_phi(self):
        x = np.random.default_rng(9).normal(size=40) * 5.0
        rates = [np.array([[0.1], [0.4], [0.8]]), 0.3, np.array([[0.2], [0.6], [0.9]])]
        states = [hw.hw_smooth(x, hw.HwParams(*rates, phi, period=4), 10)[0]
                  for phi in (0.5, np.array([0.5, 0.7]), np.array([0.6, 0.8, 0.95, 1.0]))]
        for state in states:
            assert state.level.shape == state.growth.shape == (1, 3, 1)
            assert state.seasonal.shape == (4, 3, 1)
            for got, want in zip((state.level, state.growth, state.seasonal),
                                 (states[0].level, states[0].growth, states[0].seasonal)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("p", [1, 5])
    def test_rates_against_phi_match_scalar_calls(self, p):
        x = np.random.default_rng(p).normal(size=36) * 30.0
        values = self.candidates(5, p)
        phi = np.array([0.5, 0.75, 0.9, 1.0])
        params = hw.HwParams(*(values[k][:, None] for k in ("alpha", "beta", "gamma")), phi,
                             period=p)
        sse = hw.hw_smooth(x, params, 12)[1]
        assert sse.shape == (5, 4)
        for j in range(5):
            for r in range(4):
                one = hw.HwParams(values["alpha"][j], values["beta"][j], values["gamma"][j],
                                  phi[r], period=p)
                assert sse[j, r].tobytes() == hw.hw_smooth(x, one, 12)[1].tobytes()
                err = errors_loop(x, one.alpha, one.beta, one.gamma, one.phi, p)
                assert sse[j, r].tobytes() == np.float64(time_order_sse(err[-12:])).tobytes()

    def test_cli_default_fit_is_one_call_over_both_channels(self, tmp_path, capsys):
        # the benchmark's request: `baseline --grid 5` on a 2-channel CSV of
        # 240 steps fits the first 192, scores its last 48 one step at a
        # time, and forecasts from the fit's states
        path = tmp_path / "two.csv"
        write_csv(np.random.default_rng(3).normal(size=(240, 2)), str(path))
        calls, errors = [], []
        one_step, smooth = hw.one_step_errors, hw.hw_smooth

        def count_errors(*args, out):
            errors.append(out.shape)
            return one_step(*args, out=out)

        def count_smooth(x, params, scored):
            calls.append((x.shape[1], params.shape, scored))
            return smooth(x, params, scored)

        with mock.patch.object(hw, "one_step_errors", count_errors), \
                mock.patch.object(hw, "hw_smooth", count_smooth):
            assert cli.main(["baseline", "--data", str(path), "--period", "12", "--grid", "5"]) == 0
        capsys.readouterr()
        assert calls == [(2, (5, 1, 125), 48)] and errors == [(5, 2, 125)] * 48
