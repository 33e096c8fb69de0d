"""Tests for the optimizer, schedule, training loop, and checkpoint format."""

import json
import math
import tracemalloc
import zlib
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etsfore import autodiff as ad
from etsfore import data as etsdata
from etsfore import trainer
from etsfore.autodiff import Tensor
from etsfore.data import NormStats, SplitSpec, WindowPair
from etsfore.errors import ConfigError, DataError, DimensionError, TrainingError
from etsfore.model import (
    MAX_PARAMETER_VALUES, ModelConfig, ModelState, forward, mse_loss, parameter_shapes,
    parameter_table, value_count,
)
from etsfore.trainer import (
    Adam,
    Checkpoint,
    TrainConfig,
    evaluate,
    evaluate_state,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train,
)

TINY = ModelConfig(lookback=16, horizon=4, channels=1, dim=8, ff_dim=16,
                   layers=1, heads=2, top_k=2, dropout=0.0)


def sine_pairs(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n + 20)
    series = (np.sin(2 * np.pi * t / 8) + 0.05 * rng.normal(size=len(t)))[:, None]
    return [WindowPair(series[i : i + 16], series[i + 16 : i + 20], i + 16) for i in range(n)]


class TestAdam:
    def test_zero_gradient_leaves_fresh_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam({"p": (2,)})
        opt.step({"p": p}, lambda name: 0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_moments_decay_on_zero_gradient(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": (1,)})
        p.grad = np.array([2.0])
        opt.step({"p": p}, lambda name: 0.0)
        m1 = opt.m["p"].copy()
        p.grad = np.array([0.0])
        opt.step({"p": p}, lambda name: 0.0)
        np.testing.assert_allclose(opt.m["p"], 0.9 * m1)

    def test_first_step_is_signed_learning_rate(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        p.grad = np.array([5.0, -3.0])
        opt = Adam({"p": (2,)})
        opt.step({"p": p}, lambda name: 0.01)
        np.testing.assert_allclose(p.data, [-0.01, 0.01], rtol=1e-6)

    def test_three_step_scalar_trace(self):
        # frozen from an explicit scalar recurrence evaluated separately
        expected = [0.900000002, 0.8808501989417752, 0.846107430790882]
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam({"p": (1,)})
        for g, want in zip([0.5, -0.3, 0.2], expected):
            p.grad = np.array([g])
            opt.step({"p": p}, lambda name: 0.1)
            assert p.data[0] == pytest.approx(want, abs=1e-15)

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = Adam({"bad.weight": (1,)})
        with pytest.raises(TrainingError, match="bad.weight"):
            opt.step({"bad.weight": p}, lambda name: 0.1)


class TestSchedule:
    CFG = TrainConfig(base_lr=1e-3, epochs=15, warmup_epochs=3, batch_size=32)

    def test_warmup_endpoint_hits_base_lr(self):
        total = 150
        warmup = (total * 3) // 15
        lr, _ = lr_at(warmup - 1, total, self.CFG)
        assert lr == pytest.approx(1e-3)

    def test_warmup_is_linear(self):
        total = 150
        warmup = (total * 3) // 15
        for step in range(warmup):
            lr, _ = lr_at(step, total, self.CFG)
            assert lr == pytest.approx(1e-3 * (step + 1) / warmup)

    def test_final_step_reaches_min_lr(self):
        lr, _ = lr_at(149, 150, self.CFG)
        assert lr == pytest.approx(1e-30, abs=1e-32)

    def test_special_rate_constant_everywhere(self):
        rates = {lr_at(s, 150, self.CFG)[1] for s in range(0, 150, 7)}
        assert rates == {1e-3 * 100}

    def test_train_gives_the_rate_parameters_the_special_rate(self, monkeypatch):
        rates, adam_step = [], Adam.step

        def step(self, params, lr_of):
            rates.append({name: lr_of(name) for name in params})
            adam_step(self, params, lr_of)

        monkeypatch.setattr(Adam, "step", step)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8, seed=1)
        pairs = sine_pairs(20)
        train(TINY, cfg, pairs[:16], pairs[16:])
        special = {"enc0.esa.alpha_raw", "dec0.gamma_raw", "level.alpha_raw"}
        for k, by_name in enumerate(rates):
            main, rate = lr_at(k, len(rates), cfg)
            assert by_name == {name: rate if name in special else main
                               for name in parameter_shapes(TINY)}

    def test_cosine_is_monotone_after_warmup(self):
        total = 150
        warmup = (total * 3) // 15
        lrs = [lr_at(s, total, self.CFG)[0] for s in range(warmup - 1, total)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_step_bounds_checked(self):
        with pytest.raises(ConfigError):
            lr_at(151, 150, self.CFG)

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=3, warmup_epochs=3)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        pairs = sine_pairs(40)
        cfg = TrainConfig(epochs=0, warmup_epochs=0, batch_size=8, seed=5)
        ckpt, log = train(TINY, cfg, pairs[:30], pairs[30:])
        assert log == []
        init = ModelState.init(TINY, 5)
        for name, t in init.params.items():
            np.testing.assert_array_equal(ckpt.params[name], t.data.astype(np.float32))

    def test_loss_strictly_decreases_over_first_ten_steps(self):
        rng = np.random.default_rng(1)
        state = ModelState.init(TINY, 1)
        xb = np.stack([p.lookback for p in sine_pairs(8, seed=2)])
        yb = np.stack([p.target for p in sine_pairs(8, seed=2)])
        opt = Adam({n: t.shape for n, t in state.params.items()})
        losses = []
        for _ in range(11):
            state.zero_grad()
            loss = mse_loss(forward(xb, state), yb)
            losses.append(float(loss.data))
            loss.backward()
            opt.step(state.params, lambda name: 1e-3)
        assert all(a > b for a, b in zip(losses[:10], losses[1:11])), losses

    def test_single_batch_overfit_by_ten_x(self):
        state = ModelState.init(TINY, 3)
        pairs = sine_pairs(8, seed=3)
        xb = np.stack([p.lookback for p in pairs])
        yb = np.stack([p.target for p in pairs])
        opt = Adam({n: t.shape for n, t in state.params.items()})
        special = {n for n, _, init in parameter_table(TINY) if init == "rate"}
        first = None
        for step in range(200):
            state.zero_grad()
            loss = mse_loss(forward(xb, state), yb)
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step(state.params, lambda name: 1e-3 * (100 if name in special else 1))
        assert float(loss.data) < first / 10, (first, float(loss.data))

    def test_same_seed_runs_bit_identical(self):
        pairs = sine_pairs(48, seed=4)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=16, seed=9)
        _, log1 = train(TINY, cfg, pairs[:40], pairs[40:])
        _, log2 = train(TINY, cfg, pairs[:40], pairs[40:])
        assert log1 == log2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_reports_context(self):
        pairs = sine_pairs(8, seed=5)
        bad = [WindowPair(p.lookback * 1e300, p.target * 1e300, p.origin) for p in pairs]
        cfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=4, seed=0)
        with pytest.raises((TrainingError, DataError)):
            train(TINY, cfg, bad, bad)

    def test_empty_split_rejected(self):
        with pytest.raises(DataError):
            train(TINY, TrainConfig(epochs=1, warmup_epochs=0), sine_pairs(8), [])

    def test_evaluating_overfit_model_on_train_split_matches_train_loss(self):
        pairs = sine_pairs(16, seed=6)
        cfg = TrainConfig(epochs=8, warmup_epochs=1, batch_size=16, seed=2)
        ckpt, log = train(TINY, cfg, pairs, pairs)
        res = evaluate(ckpt, pairs)
        # best-val checkpoint was measured on the same split
        assert res["mse"] == pytest.approx(ckpt.best_val_mse, rel=1e-6)

    @pytest.mark.parametrize("cfg, windows, batch_size, over", [
        # 9 x 512 x 4096 values, one batch past the cap, and 8 x 512 x 4096, at it
        (dict(lookback=512, horizon=8, dim=8, ff_dim=4096), 9, 32, True),
        (dict(lookback=512, horizon=8, dim=8, ff_dim=4096), 8, 32, False),
        # a batch of 64 is cut to the 9 windows there are
        (dict(lookback=512, horizon=8, dim=8, ff_dim=4096), 9, 64, True),
        # the desk run, and criterion 7's, at 32 x 192 x 128 = 786,432 values
        (dict(lookback=192, horizon=48, dim=32, ff_dim=128), 64, 32, False),
        (dict(lookback=16, horizon=4, dim=8, ff_dim=16), 40, 16, False),  # TINY
    ])
    def test_largest_activation_is_capped_before_the_first_forward(self, monkeypatch, cfg,
                                                                   windows, batch_size, over):
        def first_forward(*args, **kwargs):
            raise RuntimeError("first forward")

        monkeypatch.setattr(trainer, "forward", first_forward)
        mcfg = ModelConfig(channels=1, layers=1, heads=2, top_k=2, **cfg)
        # one window repeated: the pairs allocate nothing per window
        pair = WindowPair(np.zeros((mcfg.lookback, 1)), np.zeros((mcfg.horizon, 1)), mcfg.lookback)
        tcfg = TrainConfig(epochs=1, warmup_epochs=0, batch_size=batch_size)
        count = min(windows, batch_size) * mcfg.lookback * max(mcfg.ff_dim, mcfg.dim)
        assert (count > trainer.MAX_ACTIVATION_VALUES) == over
        error = ConfigError if over else RuntimeError
        message = (f"activation of {count} values .* more than the "
                   f"{trainer.MAX_ACTIVATION_VALUES} allowed" if over else "first forward")
        with pytest.raises(error, match=message):
            train(mcfg, tcfg, [pair] * windows, [pair])


class TestEvaluate:
    def test_deterministic_across_calls(self):
        pairs = sine_pairs(12, seed=8)
        state = ModelState.init(TINY, 4)
        X = np.stack([p.lookback for p in pairs])
        Y = np.stack([p.target for p in pairs])
        a = evaluate_state(state, X, Y)
        b = evaluate_state(state, X, Y)
        assert a == b

    def test_empty_split_is_error_not_zero(self):
        state = ModelState.init(TINY, 4)
        with pytest.raises(DataError):
            evaluate_state(state, np.zeros((0, 16, 1)), np.zeros((0, 4, 1)))

    def test_raw_scale_metrics_use_stats(self):
        pairs = sine_pairs(6, seed=9)
        state = ModelState.init(TINY, 4)
        X = np.stack([p.lookback for p in pairs])
        Y = np.stack([p.target for p in pairs])
        stats = NormStats(mean=np.array([1.0]), std=np.array([2.0]))
        res = evaluate_state(state, X, Y, stats)
        assert res["mse_raw"] == pytest.approx(4.0 * res["mse"])
        assert res["mae_raw"] == pytest.approx(2.0 * res["mae"])

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_is_config_error(self, chunk):
        state = ModelState.init(TINY, 4)
        with pytest.raises(ConfigError, match=f"chunk must be >= 1, got {chunk}"):
            evaluate_state(state, np.zeros((3, 16, 1)), np.zeros((3, 4, 1)), chunk=chunk)

    def test_window_count_mismatch_raises_before_any_forecast(self, monkeypatch):
        def no_forecast(*args):
            raise AssertionError("forecast ran")

        monkeypatch.setattr(trainer, "forecast", no_forecast)
        state = ModelState.init(TINY, 4)
        with pytest.raises(DimensionError, match="3 windows but 2 targets"):
            evaluate_state(state, np.zeros((3, 16, 1)), np.zeros((2, 4, 1)))


DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def saved_bytes(tmp_path_factory):
    """A saved checkpoint of an untrained TINY model with a non-default split."""
    state = ModelState.init(TINY, 0)
    ckpt = Checkpoint(
        config=TINY,
        params={name: t.data.astype(np.float32) for name, t in state.params.items()},
        norm_mean=np.zeros(1),
        norm_std=np.ones(1),
        split=SplitSpec(0.5, 0.25, 0.25),
    )
    path = tmp_path_factory.mktemp("ckpt") / "model.etsf"
    save_checkpoint(ckpt, str(path))
    return path.read_bytes()


@pytest.fixture(scope="module")
def desk_bytes(tmp_path_factory):
    """A saved checkpoint of the desk configuration after one training step."""
    cfg = ModelConfig(lookback=192, horizon=48, channels=1, dim=32, ff_dim=128,
                      layers=2, heads=4, top_k=2, dropout=0.2)
    pairs = etsdata.synth_generate(9, 0.05, seed=0).window_pairs()
    ckpt, _ = train(cfg, TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, seed=0),
                    pairs[:8], pairs[8:])
    path = tmp_path_factory.mktemp("desk") / "desk.etsf"
    save_checkpoint(ckpt, str(path))
    return path.read_bytes()


class TestCheckpoint:
    def _trained(self, tmp_path):
        pairs = sine_pairs(24, seed=10)
        cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8, seed=11)
        ckpt, _ = train(TINY, cfg, pairs[:16], pairs[16:],
                        stats=NormStats(mean=np.zeros(1), std=np.ones(1)))
        path = tmp_path / "model.etsf"
        save_checkpoint(ckpt, str(path))
        return ckpt, path, pairs

    def test_round_trip_parameters_bit_exact(self, tmp_path):
        ckpt, path, _ = self._trained(tmp_path)
        back = load_checkpoint(str(path))
        assert set(back.params) == set(ckpt.params)
        for name in ckpt.params:
            assert back.params[name].dtype == np.float32
            np.testing.assert_array_equal(back.params[name], ckpt.params[name])

    def test_save_load_save_is_byte_identical(self, tmp_path):
        _, path, _ = self._trained(tmp_path)
        again = tmp_path / "again.etsf"
        save_checkpoint(load_checkpoint(str(path)), str(again))
        assert path.read_bytes() == again.read_bytes()

    def test_evaluate_after_reload_bit_identical(self, tmp_path):
        ckpt, path, pairs = self._trained(tmp_path)
        r1 = evaluate(load_checkpoint(str(path)), pairs[16:])
        r2 = evaluate(load_checkpoint(str(path)), pairs[16:])
        assert r1 == r2

    def test_header_fields_survive(self, tmp_path):
        ckpt, path, _ = self._trained(tmp_path)
        ckpt.split = SplitSpec(0.5, 0.25, 0.25)
        save_checkpoint(ckpt, str(path))
        back = load_checkpoint(str(path))
        assert back.config == ckpt.config
        np.testing.assert_array_equal(back.norm_mean, ckpt.norm_mean)
        np.testing.assert_array_equal(back.norm_std, ckpt.norm_std)
        assert back.split == ckpt.split
        # the run's result stays on the record train returned; the file keeps none
        assert ckpt.best_epoch >= 0
        assert back.best_epoch == -1 and math.isnan(back.best_val_mse)

    def test_older_versions_rejected(self, saved_bytes, tmp_path):
        # a version-1 file of an earlier etsfore, with Adam records and no
        # split, and version-2 and version-3 prefixes on a current body
        older = [(DATA / "ckpt_v1_with_adam.etsf", 1)]
        for version in (2, 3):
            p = tmp_path / f"v{version}.etsf"
            p.write_bytes(saved_bytes[:4] + version.to_bytes(4, "little") + saved_bytes[8:])
            older.append((p, version))
        for p, version in older:
            with pytest.raises(DataError, match=f"{p}: malformed checkpoint: "
                               f"unsupported checkpoint version {version}$"):
                load_checkpoint(str(p))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_truncation_raises_data_error(self, saved_bytes, tmp_path_factory, data):
        cut = data.draw(st.integers(0, len(saved_bytes) - 1))
        p = tmp_path_factory.getbasetemp() / "truncated.etsf"
        p.write_bytes(saved_bytes[:cut])
        with pytest.raises(DataError):
            load_checkpoint(str(p))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_bit_flip_raises_data_error(self, desk_bytes, tmp_path_factory, data):
        bit = data.draw(st.integers(0, 8 * len(desk_bytes) - 1))
        flipped = bytearray(desk_bytes)
        flipped[bit // 8] ^= 1 << (bit % 8)
        p = tmp_path_factory.getbasetemp() / "flipped.etsf"
        p.write_bytes(bytes(flipped))
        with pytest.raises(DataError):
            load_checkpoint(str(p))

    def test_checksum_ends_the_file(self, saved_bytes, tmp_path):
        body, crc = saved_bytes[:-4], saved_bytes[-4:]
        assert saved_bytes[4:8] == (4).to_bytes(4, "little")
        assert int.from_bytes(crc, "little") == zlib.crc32(body)
        # a parameter value changed in place keeps the layout valid
        p = tmp_path / "flipped.etsf"
        p.write_bytes(body[:-1] + bytes([body[-1] ^ 0x01]) + crc)
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: checksum mismatch"):
            load_checkpoint(str(p))

    def test_header_length_larger_than_the_file_rejected(self, saved_bytes, tmp_path):
        p = tmp_path / "huge.etsf"
        p.write_bytes(saved_bytes[:8] + b"\xff" * 4 + saved_bytes[12:])
        with pytest.raises(DataError, match=f"truncated header: {len(saved_bytes) - 12} "
                                            f"of {2**32 - 1} bytes"):
            load_checkpoint(str(p))

    def test_bad_normalization_stats_rejected(self, saved_bytes, tmp_path):
        p = tmp_path / "stats.etsf"
        # same-length edits of the JSON header: two values, then a NaN
        for bad in (b'"norm_std": [1,1]', b'"norm_std": [NaN]'):
            p.write_bytes(saved_bytes.replace(b'"norm_std": [1.0]', bad))
            with pytest.raises(DataError, match="norm_std is not 1 finite values"):
                load_checkpoint(str(p))

    @pytest.mark.parametrize("key", ["norm_mean", "norm_std"])
    def test_null_normalization_stats_rejected(self, saved_bytes, tmp_path, key):
        # every checkpoint holds the normalization its model's inputs went through
        p = tmp_path / "null.etsf"
        p.write_bytes(self._with_header_field(saved_bytes, key, "null"))
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: "
                                            f"header {key} is not 1 finite values$"):
            load_checkpoint(str(p))

    @pytest.mark.parametrize("case, message", [
        ("missing", r"^parameter head.w_out has shape None, the model config wants \(8, 1\)$"),
        ("extra", r"^parameter enc9.ff.w1 has shape \(2,\), the model config wants None$"),
        ("misshapen",
         r"^parameter enc0.ff.b1 has shape \(3,\), the model config wants \(16,\)$"),
    ], ids=["missing", "extra", "misshapen"])
    def test_parameter_records_must_match_the_config(self, tmp_path, case, message):
        # the config fixes the parameter set: save refuses any other and writes
        # nothing, and a ModelState refuses it with the same message
        state = ModelState.init(TINY, 0)
        params = {name: t.data.astype(np.float32) for name, t in state.params.items()}
        bad = {
            "missing": {k: v for k, v in params.items() if k != "head.w_out"},
            "extra": {**params, "enc9.ff.w1": np.zeros(2, dtype=np.float32)},
            "misshapen": {**params, "enc0.ff.b1": np.zeros(3, dtype=np.float32)},
        }[case]
        p = tmp_path / "records.etsf"
        with pytest.raises(DimensionError, match=message):
            save_checkpoint(Checkpoint(config=TINY, params=bad, norm_mean=np.zeros(1),
                                       norm_std=np.ones(1)), str(p))
        assert not p.exists()
        with pytest.raises(DimensionError, match=message):
            ModelState(TINY, {name: Tensor(arr.astype(np.float64)) for name, arr in bad.items()})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_record_rejected(self, tmp_path, bad):
        state = ModelState.init(TINY, 0)
        params = {name: t.data.astype(np.float32) for name, t in state.params.items()}
        params["enc0.ff.b1"][3] = bad
        p = tmp_path / "records.etsf"
        save_checkpoint(Checkpoint(config=TINY, params=params, norm_mean=np.zeros(1),
                                   norm_std=np.ones(1)), str(p))
        with pytest.raises(DataError, match="parameter enc0.ff.b1 has non-finite values"):
            load_checkpoint(str(p))

    def test_non_finite_header_value_rejected(self, saved_bytes, tmp_path):
        p = tmp_path / "nan.etsf"
        # same-length edits of the JSON header
        for old, new, where in (
            (b'"dropout": 0.0', b'"dropout": NaN', "header model.dropout"),
            (b'"val": 0.25', b'"val": NaN ', "header split.val"),
        ):
            assert old in saved_bytes
            p.write_bytes(saved_bytes.replace(old, new))
            with pytest.raises(DataError, match=f"{where}: expected a finite number"):
                load_checkpoint(str(p))

    @staticmethod
    def _header(saved: bytes) -> dict:
        return json.loads(saved[12 : 12 + int.from_bytes(saved[8:12], "little")])

    @staticmethod
    def _reframed(saved: bytes, raw: bytes) -> bytes:
        """saved with raw as its JSON header, re-framed with a valid CRC."""
        hlen = int.from_bytes(saved[8:12], "little")
        body = saved[:8] + len(raw).to_bytes(4, "little") + raw + saved[12 + hlen : -4]
        return body + zlib.crc32(body).to_bytes(4, "little")

    @classmethod
    def _with_header_field(cls, saved: bytes, key: str, text: str) -> bytes:
        """saved with header[key] set to the JSON text, re-framed with a valid CRC."""
        header = cls._header(saved)
        header[key] = "@"
        return cls._reframed(saved, json.dumps(header, sort_keys=True).replace('"@"', text).encode())

    def test_header_keys_are_exactly_the_saved_ones(self, saved_bytes, tmp_path):
        p = tmp_path / "keys.etsf"
        header = self._header(saved_bytes)
        del header["split"]  # older files had none, and it meant 0.7/0.1/0.2
        p.write_bytes(self._reframed(saved_bytes, json.dumps(header).encode()))
        with pytest.raises(DataError, match=r"header keys: missing \['split'\], unknown \[\]"):
            load_checkpoint(str(p))
        p.write_bytes(self._with_header_field(saved_bytes, "adam_step", "3"))
        with pytest.raises(DataError, match=r"header keys: missing \[\], unknown \['adam_step'\]"):
            load_checkpoint(str(p))

    @pytest.mark.parametrize("edit", [{"dim": 16}, {"layers": 2}, {"kernel_size": 1}])
    def test_payload_must_have_the_length_the_header_implies(self, saved_bytes, tmp_path, edit):
        p = tmp_path / "length.etsf"
        text = json.dumps({**self._header(saved_bytes)["model"], **edit})
        p.write_bytes(self._with_header_field(saved_bytes, "model", text))
        size = len(p.read_bytes())
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: file is {size} bytes, "
                                            f"its header implies [0-9]+$") as info:
            load_checkpoint(str(p))
        assert int(str(info.value).rsplit(" ", 1)[1]) != size

    def test_header_implying_a_billion_layers_rejected_before_listing_them(self, saved_bytes,
                                                                           tmp_path):
        p = tmp_path / "layers.etsf"
        text = json.dumps({**self._header(saved_bytes)["model"], "layers": 10**9})
        p.write_bytes(self._with_header_field(saved_bytes, "model", text))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"{p}: malformed checkpoint: model config "
                                                f"implies 486000000033 parameter values, more "
                                                f"than the {MAX_PARAMETER_VALUES} allowed$"):
                load_checkpoint(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_header_over_the_parameter_cap_rejected_before_the_length_check(self, saved_bytes,
                                                                            tmp_path):
        # a few KB whose header implies 4096 x 4096 matrices: a file of the
        # length it implies (about 129 MiB) would load but for the cap
        p = tmp_path / "wide.etsf"
        text = json.dumps({**self._header(saved_bytes)["model"], "dim": 4096, "heads": 1})
        p.write_bytes(self._with_header_field(saved_bytes, "model", text))
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: model config "
                                            f"implies 33742869 parameter values, more than "
                                            f"the {MAX_PARAMETER_VALUES} allowed$"):
            load_checkpoint(str(p))

    def test_header_kernel_wider_than_the_lookback_reaches_rejected(self, saved_bytes,
                                                                    tmp_path):
        p = tmp_path / "kernel.etsf"
        text = json.dumps({**self._header(saved_bytes)["model"], "kernel_size": 33})
        p.write_bytes(self._with_header_field(saved_bytes, "model", text))
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: model config: "
                                            f"kernel_size must be at most 2 x lookback - 1 = "
                                            f"31, got 33$"):
            load_checkpoint(str(p))

    @pytest.mark.parametrize("edit", [{}, {"layers": 1}, {"layers": 5, "channels": 3},
                                      {"dim": 12, "heads": 3, "ff_dim": 7, "kernel_size": 5},
                                      {"layers": 3, "kernel_size": 1}])
    def test_value_count_matches_the_parameter_shapes(self, edit):
        cfg = ModelConfig(**{**asdict(TINY), **edit})
        want = sum(math.prod(shape) for shape in parameter_shapes(cfg).values())
        assert value_count(cfg) == want

    def test_deeply_nested_header_rejected(self, saved_bytes, tmp_path):
        p = tmp_path / "deep.etsf"
        p.write_bytes(self._reframed(saved_bytes, b"[" * 100_000 + b"]" * 100_000))
        with pytest.raises(DataError, match=f"{p}: malformed checkpoint: header: invalid JSON: "
                                            f"nested too deeply$"):
            load_checkpoint(str(p))

    def test_header_with_a_bad_split_is_data_error(self, saved_bytes, tmp_path):
        p = tmp_path / "split.etsf"
        p.write_bytes(self._with_header_field(
            saved_bytes, "split", '{"test": 0.1, "train": 0.5, "val": 0.1}'))
        with pytest.raises(DataError, match="malformed checkpoint: split fractions must sum to 1"):
            load_checkpoint(str(p))

    def test_trailing_bytes_rejected(self, saved_bytes, tmp_path):
        p = tmp_path / "long.etsf"
        p.write_bytes(saved_bytes + b"\x00")
        with pytest.raises(DataError, match=f"file is {len(saved_bytes) + 1} bytes, "
                                            f"its header implies {len(saved_bytes)}$"):
            load_checkpoint(str(p))
        p.write_bytes(saved_bytes)
        assert load_checkpoint(str(p)).split == SplitSpec(0.5, 0.25, 0.25)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.etsf"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(str(p))


class TestCheckpointParsedOnce:
    """load_checkpoint reads the whole file on every call and parses each
    distinct content once; a file that fails is parsed every time."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []
        parse = trainer._parse_checkpoint
        monkeypatch.setattr(trainer, "_parse_checkpoint",
                            lambda path, raw: calls.append(path) or parse(path, raw))
        return calls

    @staticmethod
    def _edited(saved: bytes) -> bytes:
        """saved with the last parameter value's lowest byte changed and
        the checksum redone: a valid file, one value apart."""
        body = saved[:-4]
        body = body[:-4] + bytes([body[-4] ^ 0x01]) + body[-3:]
        return body + zlib.crc32(body).to_bytes(4, "little")

    def test_unchanged_bytes_are_parsed_once(self, saved_bytes, tmp_path, parses):
        p = tmp_path / "model.etsf"
        p.write_bytes(saved_bytes)
        first, second = load_checkpoint(str(p)), load_checkpoint(str(p))
        assert len(parses) == 1
        assert first.config == second.config and first.split == second.split
        want = {name: arr.copy() for name, arr in first.params.items()}
        for name in want:
            np.testing.assert_array_equal(second.params[name], want[name])
        # each call's arrays are the caller's own
        for ckpt in (first, second):
            for arr in (*ckpt.params.values(), ckpt.norm_mean, ckpt.norm_std):
                arr[...] = np.nan
        third = load_checkpoint(str(p))
        for name in want:
            np.testing.assert_array_equal(third.params[name], want[name])
        assert third.norm_std.tolist() == [1.0] and len(parses) == 1

    def test_a_one_byte_edit_is_parsed_again(self, saved_bytes, tmp_path, parses):
        p = tmp_path / "model.etsf"
        last = []
        for raw in (saved_bytes, self._edited(saved_bytes), saved_bytes):
            p.write_bytes(raw)
            last.append(load_checkpoint(str(p)).params["head.w_out"].flat[-1])
        assert len(parses) == 3
        assert last[0] == last[2] != last[1]

    def test_a_corrupted_file_raises_on_every_read(self, saved_bytes, tmp_path, parses):
        p = tmp_path / "model.etsf"
        body = self._edited(saved_bytes)[:-4]
        p.write_bytes(body + saved_bytes[-4:])  # the old checksum
        for _ in range(2):
            with pytest.raises(DataError, match=f"{p}: malformed checkpoint: checksum mismatch"):
                load_checkpoint(str(p))
        assert len(parses) == 2
        p.write_bytes(saved_bytes)
        assert load_checkpoint(str(p)).split == SplitSpec(0.5, 0.25, 0.25)
        assert len(parses) == 3
