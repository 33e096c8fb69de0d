"""Tests for the assembled forecasting network."""

import hashlib
import json
import re
import tracemalloc
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_model
from etsfore import autodiff as ad
from etsfore import data, esa, model
from etsfore.autodiff import Tensor
from etsfore.errors import ConfigError, DataError
from etsfore.model import (
    ModelConfig,
    ModelState,
    encoder_layer,
    feed_forward,
    forecast,
    forward,
    input_embed,
    level_pipeline,
    mse_loss,
    parameter_shapes,
    parameter_table,
)
from etsfore.trainer import Checkpoint, save_checkpoint

TINY = ModelConfig(
    lookback=16, horizon=4, channels=2, dim=8, ff_dim=16, layers=1, heads=2, top_k=2,
    dropout=0.2,
)
# The benchmark's desk configuration.
DESK = ModelConfig(
    lookback=192, horizon=48, dim=32, ff_dim=128, layers=2, heads=4, top_k=2, dropout=0.2
)


def tiny_state(seed=0):
    return ModelState.init(TINY, seed)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=16, horizon=4, dim=10, heads=4)

    def test_top_k_bound(self):
        with pytest.raises(ConfigError):
            ModelConfig(lookback=8, horizon=2, top_k=5)

    # an odd negative size passes the odd check; it must not reach numpy
    @pytest.mark.parametrize("kernel_size, rule", [
        (-1, "be positive"), (-3, "be positive"), (0, "be positive"), (4, "be odd"),
        (17, "be at most 2 x lookback - 1 = 15"),
    ])
    def test_bad_kernel_size_named(self, kernel_size, rule):
        with pytest.raises(ConfigError, match=f"model config: kernel_size must {rule}, "
                                              f"got {kernel_size}"):
            model.from_dict(ModelConfig, {"lookback": 8, "horizon": 2,
                                          "kernel_size": kernel_size}, "model")

    def test_round_trip_dict(self):
        cfg = model.from_dict(ModelConfig, asdict(TINY), "model")
        assert cfg == TINY

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="model: unknown keys.*wat"):
            model.from_dict(ModelConfig, {"lookback": 8, "horizon": 2, "wat": 1}, "model")

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="model: missing required keys.*horizon"):
            model.from_dict(ModelConfig, {"lookback": 8}, "model")

    def test_value_type_checked(self):
        for key, value in (("top_k", 1.5), ("dropout", "0.1"), ("heads", True), ("dim", None)):
            with pytest.raises(ConfigError, match=f"model.{key}: expected"):
                model.from_dict(ModelConfig, {"lookback": 8, "horizon": 2, key: value}, "model")
        # a float field takes a JSON integer
        assert model.from_dict(ModelConfig, {"lookback": 8, "horizon": 2, "dropout": 0}, "m").dropout == 0

    def test_non_finite_float_rejected(self):
        from etsfore.data import SplitSpec
        from etsfore.trainer import TrainConfig

        # json reads all of these; NaN would pass the base_lr > 0 check unseen
        for cls, text, key in (
            (TrainConfig, '{"base_lr": NaN}', "base_lr"),
            (TrainConfig, '{"base_lr": Infinity}', "base_lr"),
            (TrainConfig, '{"base_lr": -Infinity}', "base_lr"),
            (TrainConfig, '{"base_lr": 1e999}', "base_lr"),
            (ModelConfig, '{"lookback": 8, "horizon": 2, "dropout": NaN}', "dropout"),
            (SplitSpec, '{"train": NaN}', "train"),
        ):
            with pytest.raises(ConfigError, match=f"section.{key}: expected a finite number"):
                model.from_dict(cls, json.loads(text), "section")


class TestModelState:
    def test_shapes_fixed_by_config(self):
        state = tiny_state()
        for name, shape in parameter_shapes(TINY).items():
            assert state[name].shape == shape

    def test_special_group_is_exactly_the_rate_parameters(self):
        special = {n for n, _, init in parameter_table(TINY) if init == "rate"}
        assert special == {"enc0.esa.alpha_raw", "level.alpha_raw", "dec0.gamma_raw"}

    def test_wrong_shape_rejected(self):
        params = {n: Tensor(np.zeros(s), requires_grad=True) for n, s in parameter_shapes(TINY).items()}
        params["head.w_out"] = Tensor(np.zeros((3, 3)), requires_grad=True)
        with pytest.raises(Exception, match="head.w_out"):
            ModelState(TINY, params)


class TestParameterTable:
    """SHA-256 pins of the parameter names, shapes, init values and
    checkpoint bytes: a change to model.PARAMETERS, to an init kind or to the
    init draw order moves them."""

    @staticmethod
    def _digest(state):
        h = hashlib.sha256()
        for name, t in state.params.items():
            h.update(f"{name} {t.shape} ".encode())
            h.update(t.data.astype("<f8").tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("cfg, seed, digest", [
        (TINY, 0, "82a4c1ca808e0d70658231cecc91dc271d5fa53c738abcdb78d14fe7e791e730"),
        (TINY, 90017, "3e66e7d73b471f30b3864245d73ff901e5da49032765d77e9634f26cdff7bb43"),
        (DESK, 1, "fa6987cbc07be0fd2c63d6e537bd23a16aebbde281aeb5ccb8620ab97d379f02"),
    ], ids=["tiny-0", "tiny-90017", "desk-1"])
    def test_init_is_pinned(self, cfg, seed, digest):
        assert self._digest(ModelState.init(cfg, seed)) == digest

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        state = ModelState.init(TINY, 90017)
        ckpt = Checkpoint(
            config=TINY,
            params={name: t.data.astype(np.float32) for name, t in state.params.items()},
            norm_mean=np.array([0.5, -1.0]),
            norm_std=np.array([2.0, 0.25]),
        )
        p = tmp_path / "pinned.etsf"
        save_checkpoint(ckpt, str(p))
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "f93d6b8253dd42821490ece8f57a41fdfd03b49423b8cdc546fc4d3ae740d7fb"
        )


class TestInputEmbed:
    def test_zero_input_zero_embedding(self):
        state = tiny_state()
        out = input_embed(Tensor(np.zeros((16, 2))), state)
        np.testing.assert_array_equal(out.data, np.zeros((16, 8)))

    def test_length_preserved(self):
        state = tiny_state()
        for L in (1, 2, 5, 16):
            x = Tensor(np.random.default_rng(L).normal(size=(L, 2)))
            assert input_embed(x, state).shape == (L, 8)

    def test_non_finite_rejected(self):
        state = tiny_state()
        bad = np.zeros((16, 2))
        bad[3, 1] = np.nan
        with pytest.raises(DataError):
            input_embed(Tensor(bad), state)

    def test_gradient_through_embedding(self):
        state = tiny_state()
        x = Tensor(np.random.default_rng(1).normal(size=(16, 2)), requires_grad=True)

        def f(t):
            z = input_embed(t, state)
            return ad.tmean(ad.mul(z, z))

        assert ad.grad_check(f, x, eps=1e-5) < 1e-4


class TestEncoderLayer:
    def test_constant_residual_keeps_input_after_deseasonalizing(self):
        state = tiny_state()
        row = np.random.default_rng(2).normal(size=8)
        res_in = Tensor(np.tile(row, (16, 1)))
        _, _, s = encoder_layer(res_in, state, 0)
        np.testing.assert_array_equal(s.data, np.zeros((16, 8)))

    def test_output_shapes(self):
        state = tiny_state()
        res_in = Tensor(np.random.default_rng(3).normal(size=(16, 8)))
        res, b, s = encoder_layer(res_in, state, 0)
        res_out = feed_forward(res, b, state, 0)
        assert res.shape == res_out.shape == b.shape == s.shape == (16, 8)

    def test_gradient_through_one_layer(self):
        state = tiny_state()
        res_in = Tensor(np.random.default_rng(4).normal(size=(16, 8)), requires_grad=True)

        def f(t):
            res_out = feed_forward(*encoder_layer(t, state, 0)[:2], state, 0)
            return ad.tmean(ad.mul(res_out, res_out))

        assert ad.grad_check(f, res_in, eps=1e-5) < 1e-4


class TestLevelPipeline:
    def test_alpha_near_one_passes_raw_window_through(self):
        state = tiny_state()
        state.params["level.alpha_raw"].data[:] = 25.0  # rate ~ 1
        for n in ("enc0.level.w_season", "enc0.level.b_season",
                  "enc0.level.w_growth", "enc0.level.b_growth"):
            state.params[n].data[:] = 0.0
        x = Tensor(np.random.default_rng(5).normal(size=(16, 2)))
        latents = [Tensor(np.random.default_rng(6).normal(size=(16, 8)))]
        level = level_pipeline(x, latents, latents, state)
        np.testing.assert_allclose(level.data, x.data, atol=1e-8)

    def test_matches_recurrence_oracle_per_layer(self):
        state = tiny_state(seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(16, 2))
        s_lat = Tensor(rng.normal(size=(16, 8)))
        b_lat = Tensor(rng.normal(size=(16, 8)))
        level = level_pipeline(Tensor(x), [s_lat], [b_lat], state).data
        s_obs = s_lat.data @ state["enc0.level.w_season"].data + state["enc0.level.b_season"].data
        b_obs = b_lat.data @ state["enc0.level.w_growth"].data + state["enc0.level.b_growth"].data
        alpha = 1 / (1 + np.exp(-state["level.alpha_raw"].data))
        init = (x - s_obs)[0]
        expect = esa.level_recurrence(x, s_obs, b_obs, alpha, init)
        assert np.abs(level - expect).max() < 1e-9


def growth_damping(b_last, horizon, gammas):
    """The decoder's damping path at rates gammas, one per head, no dropout."""
    g = np.asarray(gammas, dtype=np.float64)
    b = np.asarray(b_last, dtype=np.float64)
    out = model._growth_damping_t(
        Tensor(b), horizon, Tensor(np.log(g / (1 - g))), len(g), b.shape[-1], 0.0, None
    )
    return out.data


class TestGrowthDamping:
    def test_partial_geometric_sums(self):
        out = growth_damping(np.array([1.0]), 3, np.array([0.5]))
        np.testing.assert_allclose(out, [[0.5], [0.75], [0.875]])

    def test_monotone_and_bounded_by_asymptote(self):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.05, 0.95, size=2)
        b = rng.normal(size=4)
        out = growth_damping(b, 60, g)
        mag = np.abs(out)
        assert np.all(np.diff(mag, axis=0) >= -1e-12)
        bound = np.repeat(g / (1 - g), 2) * np.abs(b)
        assert np.all(mag <= bound + 1e-9)

    def test_zero_growth_token(self):
        np.testing.assert_array_equal(growth_damping(np.zeros(4), 5, np.array([0.3, 0.7])), np.zeros((5, 4)))


class TestForecast:
    def test_component_shapes(self):
        state = tiny_state()
        dec = forecast(np.random.default_rng(10).normal(size=(16, 2)), state)
        for part in (dec.level, dec.growth, dec.seasonal, dec.total):
            assert part.shape == (4, 2)

    def test_zeroed_projections_reduce_to_repeated_level(self):
        state = tiny_state()
        state.params["head.w_out"].data[:] = 0.0
        dec = forecast(np.random.default_rng(11).normal(size=(16, 2)), state)
        np.testing.assert_array_equal(dec.growth, np.zeros((4, 2)))
        np.testing.assert_array_equal(dec.seasonal, np.zeros((4, 2)))
        np.testing.assert_array_equal(dec.total, dec.level)
        assert np.all(dec.level == dec.level[0])

    def test_composition_identity_exact(self):
        state = tiny_state(seed=12)
        dec = forecast(np.random.default_rng(13).normal(size=(16, 2)), state)
        np.testing.assert_array_equal(dec.total, dec.level + dec.growth + dec.seasonal)

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            forecast(np.zeros((15, 2)), tiny_state())

    def test_inference_deterministic(self):
        state = tiny_state(seed=14)
        x = np.random.default_rng(15).normal(size=(16, 2))
        a, b = forecast(x, state), forecast(x, state)
        assert np.array_equal(a.total, b.total)

    def test_dropout_runs_only_with_an_rng(self):
        state = tiny_state(seed=40)
        x = np.random.default_rng(41).normal(size=(16, 2))
        plain = forward(x, state).total.data
        np.testing.assert_array_equal(plain, forecast(x, state).total)
        assert not np.array_equal(plain, forward(x, state, np.random.default_rng(0)).total.data)

    def test_batched_matches_single(self):
        state = tiny_state(seed=16)
        xb = np.random.default_rng(17).normal(size=(3, 16, 2))
        batched = forecast(xb, state)
        for i in range(3):
            single = forecast(xb[i], state)
            np.testing.assert_array_equal(batched.total[i], single.total)


class TestDecompose:
    def test_component_sum_reproduces_total(self):
        state = tiny_state(seed=18)
        x = np.random.default_rng(19).normal(size=(16, 2))
        out = forecast(x, state)
        total = out.level + sum(out.stack_growth) + sum(out.stack_seasonal)
        assert np.abs(total - out.total).max() < 1e-10

    def test_stack_counts(self):
        cfg = ModelConfig(lookback=16, horizon=4, channels=1, dim=8, ff_dim=16,
                          layers=3, heads=2, top_k=2)
        state = ModelState.init(cfg, 20)
        out = forecast(np.random.default_rng(21).normal(size=(16, 1)), state)
        assert len(out.stack_growth) == 3 and len(out.stack_seasonal) == 3
        assert out.level_series.shape == (16, 1)

    def test_lookback_seasonal_latents_have_near_zero_mean(self):
        state = tiny_state(seed=22)
        x = Tensor(np.random.default_rng(23).normal(size=(16, 2)))
        # seasonal latents come from non-DC bases only
        z = input_embed(x, state)
        _, _, s = encoder_layer(z, state, 0)
        assert np.abs(s.data.mean(axis=0)).max() < 1e-9 * max(1.0, np.abs(z.data).max())


class TestHorizonSeasonalStructure:
    def test_horizon_continues_lookback_periodically(self):
        # single pure tone: shifting the index range by a full period repeats values
        state = tiny_state(seed=24)
        x = Tensor(np.random.default_rng(25).normal(size=(16, 2)))
        z = input_embed(x, state)
        from etsfore import freq

        near = freq.fourier_extrapolate(z, 1, np.arange(0, 4)).data
        far = freq.fourier_extrapolate(z, 1, np.arange(16, 20)).data
        np.testing.assert_allclose(near, far, atol=1e-9)


class TestFullGradient:
    def test_every_parameter_group_passes_fd_check(self):
        state = tiny_state(seed=26)
        rng = np.random.default_rng(27)
        x = rng.normal(size=(16, 2))
        y = rng.normal(size=(4, 2))

        def loss():
            return mse_loss(forward(x, state), y)

        for name, p in state.params.items():
            state.zero_grad()
            err = ad.grad_check(lambda t: loss(), p, eps=1e-5)
            assert err < 1e-4, f"{name}: rel err {err}"

    def test_training_path_two_layers_with_dropout(self):
        # forward as train() runs it: 2 layers, dropout, a batch. The rng is
        # re-seeded per evaluation so every one draws the same masks, and the
        # parameters leave their init so that no gradient is trivially zero.
        cfg = ModelConfig(lookback=16, horizon=4, channels=2, dim=8, ff_dim=16, layers=2,
                          heads=2, top_k=2, dropout=0.2)
        state = ModelState.init(cfg, seed=40)
        rng = np.random.default_rng(41)
        for p in state.params.values():
            p.data += rng.normal(0.0, 0.1, size=p.shape)
        x = rng.normal(size=(3, 16, 2))
        y = rng.normal(size=(3, 4, 2))

        def loss():
            return mse_loss(forward(x, state, np.random.default_rng(42)), y)

        state.zero_grad()
        loss().backward()
        # the last encoder layer's residual output reaches no forecast
        no_grad = {name for name, p in state.params.items() if p.grad is None}
        assert no_grad == {"enc1.ff.w1", "enc1.ff.b1", "enc1.ff.w2", "enc1.ff.b2",
                           "enc1.ln1.gamma", "enc1.ln1.beta", "enc1.ln2.gamma", "enc1.ln2.beta"}
        for name, p in state.params.items():
            state.zero_grad()
            err = ad.grad_check(lambda t: loss(), p, eps=1e-5)
            assert err < 1e-4, f"{name}: rel err {err}"


def forecast_arrays(x, state):
    """Every field of forecast's record, in a fixed order."""
    out = forecast(x, state)
    return [out.level, out.growth, out.seasonal, out.total,
            *out.stack_growth, *out.stack_seasonal, out.level_series]


def windows_per_block(cfg):
    return max(1, model._BLOCK_WORDS // (cfg.lookback * max(cfg.ff_dim, cfg.dim)))


class TestBlockedDecompose:
    def test_desk_blocks_match_per_window_calls(self):
        b = windows_per_block(DESK)
        n = 5 * b // 2  # two full blocks and a ragged half block
        x = np.random.default_rng(30).normal(size=(n, DESK.lookback, DESK.channels))
        state = ModelState.init(DESK, 31)
        sizes = []

        def counting_forward(xb, *args, **kwargs):
            sizes.append(len(xb))
            return forward(xb, *args, **kwargs)

        with mock.patch.object(model, "forward", counting_forward):
            batched = forecast_arrays(x, state)
        assert sizes == [b, b, n - 2 * b]
        for i in range(n):
            for whole, single in zip(batched, forecast_arrays(x[i], state)):
                np.testing.assert_array_equal(whole[i], single)

    def test_output_shapes(self):
        state = tiny_state(seed=32)
        L, H, m = TINY.lookback, TINY.horizon, TINY.channels
        rng = np.random.default_rng(33)
        with mock.patch.object(model, "_BLOCK_WORDS", 2 * L * TINY.ff_dim):  # 2 windows a block
            for lead in ((0,), (2, 3), ()):
                x = rng.normal(size=lead + (L, m))
                out = forecast(x, state)
                for part in (out.level, out.growth, out.seasonal, out.total,
                             *out.stack_growth, *out.stack_seasonal):
                    assert part.shape == lead + (H, m)
                assert out.level_series.shape == lead + (L, m)
                # a (2, 3) batch runs in three blocks, each window as if alone
                for idx in np.ndindex(*lead):
                    np.testing.assert_array_equal(out.total[idx], forecast(x[idx], state).total)

    def test_shape_mismatch_names_the_whole_input(self):
        state = tiny_state(seed=34)
        x = np.zeros((2, 3, TINY.lookback - 1, TINY.channels))
        with mock.patch.object(model, "_BLOCK_WORDS", 2 * TINY.lookback * TINY.ff_dim):
            with pytest.raises(DataError, match=re.escape(f"shape {x.shape} does not match")):
                forecast(x, state)

    def test_nan_in_last_block_rejected(self):
        state = tiny_state(seed=35)
        x = np.random.default_rng(36).normal(size=(7, TINY.lookback, TINY.channels))
        x[6, 3, 1] = np.nan
        with mock.patch.object(model, "_BLOCK_WORDS", 2 * TINY.lookback * TINY.ff_dim):
            with pytest.raises(DataError, match="non-finite"):
                forecast(x, state)

    def test_peak_memory_stays_at_one_block(self):
        b = windows_per_block(DESK)
        state = ModelState.init(DESK, 37)
        x = np.random.default_rng(38).normal(size=(8 * b, DESK.lookback, DESK.channels))
        peaks = []
        for windows in (x[:b], x):
            tracemalloc.start()
            try:
                forecast(windows, state)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


def dead_block(cfg):
    """Parameter names of the last encoder layer's ln1 -> feedforward -> ln2."""
    p = f"enc{cfg.layers - 1}"
    return {f"{p}.ff.{w}" for w in ("w1", "b1", "w2", "b2")} | {
        f"{p}.{ln}.{a}" for ln in ("ln1", "ln2") for a in ("gamma", "beta")
    }


def count_ff_sigmoids(cfg, run):
    """How many ad.sigmoid calls of run() take an (..., L, ff_dim) input."""
    shapes, sigmoid = [], ad.sigmoid

    def counting_sigmoid(a):
        shapes.append(a.shape)
        return sigmoid(a)

    with mock.patch.object(ad, "sigmoid", counting_sigmoid):
        run()
    assert shapes  # the patch took effect
    return sum(s[-2:] == (cfg.lookback, cfg.ff_dim) for s in shapes)


class TestDeadFeedForward:
    @pytest.mark.parametrize("layers", [1, 2])
    def test_nan_in_last_feedforward_changes_no_forecast(self, layers):
        cfg = replace(DESK, layers=layers)
        state = ModelState.init(cfg, 50)
        dead = dead_block(cfg)
        poisoned = ModelState(cfg, {
            name: Tensor(np.full(t.shape, np.nan)) if name in dead else t
            for name, t in state.params.items()
        })
        x = np.random.default_rng(51).normal(size=(12, cfg.lookback, cfg.channels))
        assert len(x) > windows_per_block(cfg)
        for clean, nan in zip(forecast_arrays(x, state), forecast_arrays(x, poisoned)):
            np.testing.assert_array_equal(clean, nan)

    def test_one_layer_inference_runs_no_feedforward(self):
        cfg = replace(TINY, layers=1)
        state = ModelState.init(cfg, 52)
        x = np.random.default_rng(53).normal(size=(3, cfg.lookback, cfg.channels))
        assert count_ff_sigmoids(cfg, lambda: forecast(x, state)) == 0
        # training keeps the block, whose dropout draw the rng stream depends on
        rng = np.random.default_rng(54)
        assert count_ff_sigmoids(cfg, lambda: forward(x, state, rng)) == 1

    def test_inference_runs_every_feedforward_but_the_last(self):
        cfg = replace(TINY, layers=3)
        state = ModelState.init(cfg, 55)
        x = np.random.default_rng(56).normal(size=(cfg.lookback, cfg.channels))
        assert count_ff_sigmoids(cfg, lambda: forecast(x, state)) == 2


class TestTrainingRngStream:
    def test_forward_draws_every_dropout_mask(self):
        # the embedding, each layer's seasonal, growth and feedforward hidden
        # (the last layer's too) and each decoder damping coefficient
        cfg = replace(TINY, layers=2)
        B = 3
        per_window = cfg.lookback * (cfg.dim * (1 + 2 * cfg.layers) + cfg.ff_dim * cfg.layers)
        draws = B * per_window + cfg.layers * cfg.horizon * cfg.dim
        state = ModelState.init(cfg, 57)
        x = np.random.default_rng(58).normal(size=(B, cfg.lookback, cfg.channels))
        rng, fresh = np.random.default_rng(59), np.random.default_rng(59)
        forward(x, state, rng)
        fresh.random(draws)
        assert rng.bit_generator.state == fresh.bit_generator.state


def assert_oracle_close(x, state):
    """Every forecast field within 1e-9 relative of the plain-numpy oracle."""
    ref = oracle_model.forward(x, state)
    want = [ref[key] for key in ("level", "growth", "seasonal", "total")]
    want += ref["stack_growth"] + ref["stack_seasonal"] + [ref["level_series"]]
    got = forecast_arrays(x, state)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape, f"output {i}"
        err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        assert err.size == 0 or err.max() <= 1e-9, f"output {i}: rel err {err.max():.3g}"


class TestForwardOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tiny_configs(self, draw):
        L = draw.draw(st.integers(1, 20), label="lookback")
        heads = draw.draw(st.integers(1, 4), label="heads")
        cfg = ModelConfig(
            lookback=L,
            horizon=draw.draw(st.integers(1, 2 * L + 1), label="horizon"),
            channels=draw.draw(st.integers(1, 3), label="channels"),
            dim=heads * draw.draw(st.integers(1, 3), label="dim per head"),  # 1: heads = dim
            ff_dim=draw.draw(st.integers(1, 12), label="ff_dim"),
            layers=draw.draw(st.integers(1, 3), label="layers"),
            heads=heads,
            top_k=draw.draw(st.sampled_from([0, L // 2, L // 4]), label="top_k"),
            kernel_size=draw.draw(st.sampled_from([k for k in (1, 3, 5) if k < 2 * L]),
                                  label="kernel_size"),
        )
        seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
        lead = draw.draw(st.sampled_from([(), (1,), (3,), (2, 2)]), label="batch")
        rng = np.random.default_rng(seed)
        state = ModelState.init(cfg, seed)
        # move rates, biases and layer-norm affines off their initial values
        for t in state.params.values():
            t.data += 0.5 * rng.normal(size=t.shape)
        # seeded normals: no two FA amplitudes tie within rounding
        assert_oracle_close(rng.normal(size=lead + (L, cfg.channels)), state)

    @pytest.mark.parametrize("seed", [1, 90017])
    def test_desk_windows(self, seed):
        # the benchmark's infer_batch windows and model; forecast runs the
        # 256 windows in many blocks, which the oracle never splits
        ds = data.synth_generate(256, 0.05, seed, DESK.lookback, DESK.horizon)
        stats = data.compute_stats(ds.values[:, : DESK.lookback])
        x = data.normalize(ds.values[:, : DESK.lookback], stats)
        assert_oracle_close(x, ModelState.init(DESK, 0))
