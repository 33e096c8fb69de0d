"""Tests for the assembled forecasting network."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from etsfore import autodiff as ad
from etsfore import esa, model
from etsfore.autodiff import Tensor
from etsfore.errors import ConfigError, DataError
from etsfore.model import (
    ModelConfig,
    ModelState,
    decompose,
    encoder_layer,
    forecast,
    forward,
    input_embed,
    is_special_parameter,
    level_pipeline,
    mse_loss,
    parameter_shapes,
)

TINY = ModelConfig(
    lookback=16, horizon=4, channels=2, dim=8, ff_dim=16, layers=1, heads=2, top_k=2,
    dropout=0.2,
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

        # json reads all of these; NaN would silently turn clipping off
        for cls, text, key in (
            (TrainConfig, '{"clip_norm": NaN}', "clip_norm"),
            (TrainConfig, '{"min_lr": Infinity}', "min_lr"),
            (TrainConfig, '{"base_lr": -Infinity}', "base_lr"),
            (TrainConfig, '{"eps": 1e999}', "eps"),
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
        names = set(parameter_shapes(TINY))
        special = {n for n in names if is_special_parameter(n)}
        assert special == {"enc0.esa.alpha_raw", "level.alpha_raw", "dec0.gamma_raw"}
        # partition is total and disjoint by construction of a single predicate
        assert all((n in special) != (not is_special_parameter(n)) for n in names)

    def test_wrong_shape_rejected(self):
        params = {n: Tensor(np.zeros(s), requires_grad=True) for n, s in parameter_shapes(TINY).items()}
        params["head.w_out"] = Tensor(np.zeros((3, 3)), requires_grad=True)
        with pytest.raises(Exception, match="head.w_out"):
            ModelState(TINY, params)


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
        res_out, b, s = encoder_layer(res_in, state, 0)
        assert res_out.shape == b.shape == s.shape == (16, 8)

    def test_gradient_through_one_layer(self):
        state = tiny_state()
        res_in = Tensor(np.random.default_rng(4).normal(size=(16, 8)), requires_grad=True)

        def f(t):
            res_out, b, s = encoder_layer(t, state, 0)
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
        Tensor(b), horizon, Tensor(np.log(g / (1 - g))), len(g), b.shape[-1], 0.0, False, None
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

    def test_batched_matches_single(self):
        state = tiny_state(seed=16)
        xb = np.random.default_rng(17).normal(size=(3, 16, 2))
        batched = forecast(xb, state)
        for i in range(3):
            single = forecast(xb[i], state)
            np.testing.assert_allclose(batched.total[i], single.total, atol=1e-12)


class TestDecompose:
    def test_component_sum_reproduces_total(self):
        state = tiny_state(seed=18)
        x = np.random.default_rng(19).normal(size=(16, 2))
        dec, growths, seasonals, _ = decompose(x, state)
        total = dec.level + sum(growths) + sum(seasonals)
        assert np.abs(total - dec.total).max() < 1e-10

    def test_stack_counts(self):
        cfg = ModelConfig(lookback=16, horizon=4, channels=1, dim=8, ff_dim=16,
                          layers=3, heads=2, top_k=2)
        state = ModelState.init(cfg, 20)
        _, growths, seasonals, level = decompose(np.random.default_rng(21).normal(size=(16, 1)), state)
        assert len(growths) == 3 and len(seasonals) == 3
        assert level.shape == (16, 1)

    def test_lookback_seasonal_latents_have_near_zero_mean(self):
        state = tiny_state(seed=22)
        x = Tensor(np.random.default_rng(23).normal(size=(16, 2)))
        fp = forward(x, state, training=False)
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
            return mse_loss(forward(x, state, training=False), y)

        for name, p in state.params.items():
            state.zero_grad()
            err = ad.grad_check(lambda t: loss(), p, eps=1e-5)
            assert err < 1e-4, f"{name}: rel err {err}"
