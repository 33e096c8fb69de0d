"""Tests for the command-line surface: payload formats, exit codes, seeds."""

import json
import re
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from csv_files import write_csv
from etsfore import cli, data, model, trainer


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which Python's
    json reads and writes but JSON has no token for."""
    return json.loads(text, parse_constant=_no_constant)


def test_strict_json_refuses_non_json_numbers():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError, match=f"{token} is not JSON"):
            strict_json(f'{{"mse": {token}}}')
    assert strict_json('{"mse": null, "mae": 1e300}') == {"mse": None, "mae": 1e300}


@pytest.fixture()
def synth_file(tmp_path):
    path = tmp_path / "synth.csv"
    rc = cli.main(["synth", "--out", str(path), "--n", "40", "--noise", "0.05",
                   "--seed", "4", "--lookback", "24", "--horizon", "6"])
    assert rc == 0
    return path


@pytest.fixture()
def run_config(tmp_path):
    cfg = {
        "model": {"lookback": 24, "horizon": 6, "dim": 8, "ff_dim": 16, "layers": 1,
                  "heads": 2, "top_k": 2, "dropout": 0.1},
        "train": {"base_lr": 1e-3, "epochs": 2, "warmup_epochs": 1, "batch_size": 16,
                  "seed": 3},
        "split": {"train": 0.7, "val": 0.1, "test": 0.2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def timestamps_only(tmp_path):
    """A plain CSV whose only column is the timestamp: no value columns."""
    path = tmp_path / "ts.csv"
    path.write_text("timestamp\n" + "".join(f"2024-01-01T{h:02d}:00:00\n" for h in range(24)))
    return path


@pytest.fixture()
def trained_model(tmp_path, synth_file, run_config, capsys):
    out = tmp_path / "model.etsf"
    rc = cli.main(["train", "--config", str(run_config), "--data", str(synth_file),
                   "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    return out


class TestSynth:
    def test_regeneration_is_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            assert cli.main(["synth", "--out", str(p), "--n", "10", "--noise", "0",
                             "--seed", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_default_lengths_recorded_in_metadata_row(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        assert cli.main(["synth", "--out", str(p), "--n", "2"]) == 0
        meta = p.read_text().splitlines()[0]
        assert "lookback=192" in meta and "horizon=48" in meta

    def test_default_noise_level(self, tmp_path, capsys):
        p, explicit = tmp_path / "s.csv", tmp_path / "explicit.csv"
        assert cli.main(["synth", "--out", str(p), "--n", "2"]) == 0
        summary = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["noise"] == 0.05
        assert cli.main(["synth", "--out", str(explicit), "--n", "2", "--noise", "0.05"]) == 0
        assert p.read_bytes() == explicit.read_bytes()

    def test_summary_is_json(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        assert cli.main(["synth", "--out", str(p), "--n", "3", "--seed", "2"]) == 0
        payload = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["instances"] == 3

    # a --noise of 1e300 overflows the summary's std, one of 1e308 the values
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--n", "-1"), ("--lookback", "0"), ("--horizon", "0"),
        ("--seed", "-1"), ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-0.1"),
        ("--noise", "1e300"), ("--noise", "1e308"),
    ])
    def test_bad_flag_is_usage_error_naming_it(self, tmp_path, capsys, flag, value):
        p = tmp_path / "s.csv"
        assert cli.main(["synth", "--out", str(p), "--n", "2", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {flag} must" in captured.err
        assert not p.exists()

    def test_dataset_over_the_cell_cap_is_usage_error(self, tmp_path, capsys):
        # 10**12 x 240 cells would be a raw MemoryError at the first allocation
        p = tmp_path / "s.csv"
        assert cli.main(["synth", "--out", str(p), "--n", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not p.exists()
        assert ("error: --n x (--lookback + --horizon) must be at most "
                f"{data.MAX_INSTANCE_CELLS} cells, got 240000000000000") in captured.err


class TestTrain:
    def test_epoch_lines_are_json_with_expected_keys(self, tmp_path, synth_file,
                                                     run_config, capsys):
        out = tmp_path / "m.etsf"
        rc = cli.main(["train", "--config", str(run_config), "--data", str(synth_file),
                       "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        lines = [strict_json(s) for s in captured.out.strip().splitlines()]
        epochs = [l for l in lines if "epoch" in l]
        assert len(epochs) == 2
        assert set(epochs[0]) == {"epoch", "train_mse", "val_mse", "lr"}
        assert "checkpoint" in lines[-1]
        assert out.exists()

    def _train_error(self, tmp_path, synth_file, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        rc = cli.main(["train", "--config", str(cfg), "--data", str(synth_file),
                       "--out", str(tmp_path / "m.etsf")])
        assert rc == 1
        return capsys.readouterr().err

    def test_missing_config_key_named(self, tmp_path, synth_file, capsys):
        err = self._train_error(tmp_path, synth_file, capsys, {"model": {"lookback": 24}})
        assert "model: missing required keys ['horizon']" in err
        err = self._train_error(tmp_path, synth_file, capsys, {"train": {}})
        assert "model: missing required keys ['lookback', 'horizon']" in err

    def test_unknown_config_key_rejected(self, tmp_path, synth_file, capsys):
        model = {"lookback": 24, "horizon": 6}
        for config, where in (
            ({"model": {**model, "wat": 1}}, "model: unknown keys ['wat']"),
            ({"model": model, "train": {"wat": 1}}, "train: unknown keys ['wat']"),
            ({"model": model, "split": {"wat": 1}}, "split: unknown keys ['wat']"),
            ({"model": model, "wat": {}}, "unknown config sections: ['wat']"),
            ({"model": model, "train": []}, "train: expected a JSON object"),
        ):
            assert where in self._train_error(tmp_path, synth_file, capsys, config)

    def test_config_value_of_wrong_type_rejected(self, tmp_path, synth_file, capsys):
        model = {"lookback": 24, "horizon": 6, "dim": 8, "ff_dim": 16, "layers": 1, "heads": 2}
        for config, where in (
            ({"model": model, "train": {"epochs": 1, "warmup_epochs": 0, "base_lr": "x"}},
             "train.base_lr: expected float, got 'x'"),
            ({"model": {**model, "top_k": 1.5}}, "model.top_k: expected int, got 1.5"),
            ({"model": model, "train": {"base_lr": float("nan")}},
             "train.base_lr: expected a finite number, got nan"),
            ({"model": model, "train": {"base_lr": float("inf")}},
             "train.base_lr: expected a finite number, got inf"),
        ):
            assert where in self._train_error(tmp_path, synth_file, capsys, config)

    @pytest.mark.parametrize("kernel_size", [-1, -3, 0])
    def test_non_positive_kernel_size_named(self, tmp_path, synth_file, capsys, kernel_size):
        config = {"model": {"lookback": 24, "horizon": 6, "kernel_size": kernel_size}}
        err = self._train_error(tmp_path, synth_file, capsys, config)
        assert f"kernel_size must be positive, got {kernel_size}" in err

    # each of these would exhaust memory drawing its parameters
    @pytest.mark.parametrize("edit, count", [
        ({"dim": 10**6, "heads": 1}, 4000536000265),
        ({"ff_dim": 10**11}, 13000000004885),
        ({"layers": 10**8}, 1069800000129),
        ({"kernel_size": 1000001}, 32021461),
    ])
    def test_config_over_the_parameter_cap_named(self, tmp_path, synth_file, capsys, edit,
                                                 count):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"model": {"lookback": 24, "horizon": 6, **edit}}))
        rc = cli.main(["train", "--config", str(cfg), "--data", str(synth_file),
                       "--out", str(tmp_path / "m.etsf")])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (1, "")
        assert (f"error: model config implies {count} parameter values, more than the "
                f"{model.MAX_PARAMETER_VALUES} allowed") in captured.err

    @pytest.mark.parametrize("old, new, key", [
        ('"dim": 8', '"dim": 8, "dim": 16', "dim"),
        ('"epochs": 2', '"epochs": 2, "epochs": 1', "epochs"),
        ('"split": {', '"split": {}, "split": {', "split"),
    ])
    def test_repeated_config_key_is_config_error(self, tmp_path, synth_file, run_config,
                                                 capsys, old, new, key):
        run_config.write_text(run_config.read_text().replace(old, new))
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(run_config), "--data", str(synth_file),
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {run_config}: repeated key {key!r}\n"

    def test_bad_split_is_config_error(self, tmp_path, synth_file, capsys):
        config = {"model": {"lookback": 24, "horizon": 6},
                  "split": {"train": 0.5, "val": 0.1, "test": 0.1}}
        assert "split fractions must sum to 1" in self._train_error(
            tmp_path, synth_file, capsys, config
        )

    def test_out_naming_a_directory_is_usage_error(self, tmp_path, run_config, capsys):
        # rejected before the data is read: the data path does not exist
        rc = cli.main(["train", "--config", str(run_config), "--data",
                       str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert f"error: --out must not be a directory, got {tmp_path}" in captured.err

    @pytest.mark.parametrize("key", ["min_lr", "beta1", "beta2", "eps", "special_lr_mult",
                                     "clip_norm", "scale_aug_one_plus", "augment"])
    def test_fixed_recipe_key_is_unknown(self, tmp_path, synth_file, capsys, key):
        # the Adam and schedule constants are not run settings, and there is no clipping
        config = {"model": {"lookback": 24, "horizon": 6}, "train": {key: 1.0}}
        assert f"train: unknown keys ['{key}']" in self._train_error(
            tmp_path, synth_file, capsys, config
        )

    def test_readme_run_config_loads(self, tmp_path, monkeypatch):
        # the README's example config must pass the same checks as a user's
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = re.search(r"cat > run\.json <<'EOF'\n(.*?)\nEOF\n", readme, re.S)
        assert block is not None, "README has no run.json block"
        path = tmp_path / "run.json"
        path.write_text(block.group(1))
        monkeypatch.delenv("ETSFORE_SEED", raising=False)
        _, tcfg, _ = cli.load_run_config(str(path), 1)
        assert tcfg.seed == json.loads(block.group(1))["train"]["seed"]

    def test_zero_epochs_report_no_best_value(self, tmp_path, synth_file, run_config, capsys):
        cfg = json.loads(run_config.read_text())
        cfg["train"]["epochs"] = 0
        run_config.write_text(json.dumps(cfg))
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(run_config), "--data", str(synth_file),
                         "--out", str(out)]) == 0
        last = strict_json(capsys.readouterr().out.strip().splitlines()[-1])
        assert last == {"checkpoint": str(out), "best_epoch": -1, "best_val_mse": None}

    def test_activation_over_the_cap_is_usage_error(self, tmp_path, run_config, capsys,
                                                    monkeypatch):
        # 14 train windows x lookback 512 x ff_dim 4096 would reach numpy as
        # a 229 MiB activation, and main catches no MemoryError
        data_path, out = tmp_path / "s.csv", tmp_path / "m.etsf"
        assert cli.main(["synth", "--out", str(data_path), "--n", "20", "--lookback", "512",
                         "--horizon", "8"]) == 0
        cfg = json.loads(run_config.read_text())
        cfg["model"].update(lookback=512, horizon=8, ff_dim=4096)
        run_config.write_text(json.dumps(cfg))
        capsys.readouterr()
        monkeypatch.setattr(trainer, "forward", None)  # a forward would be a TypeError
        assert cli.main(["train", "--config", str(run_config), "--data", str(data_path),
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert (f"error: run config implies a largest training activation of {14 * 512 * 4096} "
                f"values (batch 14), more than the {trainer.MAX_ACTIVATION_VALUES} allowed\n"
                ) in captured.err

    def test_csv_without_value_columns_is_data_error(self, tmp_path, timestamps_only,
                                                     run_config, capsys):
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(run_config), "--data", str(timestamps_only),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: {timestamps_only}: no value columns" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("reader, channels", [("load_csv", 2), ("read_synth_csv", 1)],
                             ids=["plain", "instance"])
    def test_data_file_parsed_once_by_its_reader(self, tmp_path, synth_file, run_config,
                                                 capsys, monkeypatch, reader, channels):
        csv_path = synth_file
        if reader == "load_csv":
            csv_path = tmp_path / "plain.csv"
            t = np.arange(400)
            values = np.stack([np.sin(2 * np.pi * t / 12), np.cos(2 * np.pi * t / 7)], axis=1)
            write_csv(values, str(csv_path), names=["a", "b"])
        calls = []
        for name in ("load_csv", "read_synth_csv"):
            parse = getattr(data, name)
            monkeypatch.setattr(data, name, lambda path, name=name, parse=parse:
                                calls.append((name, path)) or parse(path))
        rc = cli.main(["train", "--config", str(run_config), "--data", str(csv_path),
                       "--out", str(tmp_path / "m.etsf")])
        assert rc == 0
        assert calls == [(reader, str(csv_path))]
        # a config without model.channels takes the file's
        assert trainer.load_checkpoint(str(tmp_path / "m.etsf")).config.channels == channels

    def test_instance_csv_is_read_before_the_config(self, tmp_path, synth_file, capsys):
        lines = synth_file.read_text().splitlines(keepends=True)
        lines[4] = "3,oops\n"
        synth_file.write_text("".join(lines))
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(tmp_path / "missing.json"), "--data",
                         str(synth_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (f"error: {synth_file}: line 5: malformed row: expected 31 fields, "
                "an integer index and 30 float values\n") == captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("val_value, error", [
        # the train part alternates 0 and 1e-150, std 5e-151, so 1e160 / std > 1.8e308
        (1e160, "channel 1: normalizing by mean 5.000000000000006e-151, "
                "std 5.000000000000005e-151 overflows float64"),
        (0.0, None),
    ], ids=["overflow", "control"])
    def test_normalization_overflow_is_data_error(self, tmp_path, run_config, capsys,
                                                  val_value, error):
        values = np.zeros((300, 2))
        values[1:210:2, 1] = 1e-150
        values[250, 1] = val_value
        p, out = tmp_path / "s.csv", tmp_path / "m.etsf"
        write_csv(values, str(p))
        rc = cli.main(["train", "--config", str(run_config), "--data", str(p), "--out", str(out)])
        captured = capsys.readouterr()
        if error is None:
            assert rc == 0
        else:
            assert (rc, captured.out, captured.err) == (2, "", f"error: {error}\n")
            assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_train_stats_overflow_is_data_error(self, tmp_path, run_config, capsys):
        # a std of inf would normalize every value to 0 and store a checkpoint
        # that load_checkpoint refuses
        values = np.zeros((300, 1))
        values[:210, 0] = np.tile([1e200, -1e200], 105)
        p, out = tmp_path / "s.csv", tmp_path / "m.etsf"
        write_csv(values, str(p))
        assert cli.main(["train", "--config", str(run_config), "--data", str(p),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: channel 0: mean or std overflows float64\n"
        assert captured.out == "" and not out.exists()

    def test_config_channels_other_than_the_data_is_data_error(self, tmp_path, synth_file,
                                                              run_config, capsys):
        cfg = json.loads(run_config.read_text())
        cfg["model"]["channels"] = 2
        run_config.write_text(json.dumps(cfg))
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(run_config), "--data", str(synth_file),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: data has 1 channels, the model config wants 2" in captured.err
        assert "training on" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_kernel_wider_than_the_lookback_reaches_is_config_error(self, tmp_path, synth_file,
                                                                   capsys):
        config = {"model": {"lookback": 24, "horizon": 6, "kernel_size": 49}}
        assert ("model config: kernel_size must be at most 2 x lookback - 1 = 47, got 49"
                in self._train_error(tmp_path, synth_file, capsys, config))

    def test_bad_env_seed_rejected(self, tmp_path, synth_file, run_config, capsys,
                                   monkeypatch):
        for value in ("abc", "-1", "7_0", " 7 ", "+7", "\u0667"):
            monkeypatch.setenv("ETSFORE_SEED", value)
            rc = cli.main(["train", "--config", str(run_config), "--data",
                           str(synth_file), "--out", str(tmp_path / "m.etsf")])
            assert rc == 1
            assert f"ETSFORE_SEED must be a non-negative integer, got '{value}'" in (
                capsys.readouterr().err
            )

    def test_env_seed_overrides_config(self, tmp_path, synth_file, run_config,
                                       capsys, monkeypatch):
        def first_epoch(out_path):
            rc = cli.main(["train", "--config", str(run_config), "--data",
                           str(synth_file), "--out", str(out_path)])
            assert rc == 0
            lines = capsys.readouterr().out.strip().splitlines()
            return strict_json(lines[0])["train_mse"]

        base = first_epoch(tmp_path / "a.etsf")
        monkeypatch.setenv("ETSFORE_SEED", "3")  # same as config: no change
        assert first_epoch(tmp_path / "b.etsf") == base
        monkeypatch.setenv("ETSFORE_SEED", "77")
        assert first_epoch(tmp_path / "c.etsf") != base


class TestEvaluate:
    def test_prints_metric_object(self, synth_file, trained_model, capsys):
        rc = cli.main(["evaluate", "--model", str(trained_model), "--data",
                       str(synth_file), "--split", "test"])
        assert rc == 0
        payload = strict_json(capsys.readouterr().out.strip())
        assert {"mse", "mae"} <= set(payload)
        assert payload["mse"] >= 0

    def test_uses_the_training_split(self, tmp_path, run_config, capsys, monkeypatch):
        # 20 instances split 0.5/0.25/0.25 leave 5 test windows; the default
        # split (0.7/0.1/0.2) would leave 4
        synth, out = tmp_path / "s20.csv", tmp_path / "m.etsf"
        assert cli.main(["synth", "--out", str(synth), "--n", "20", "--seed", "4",
                         "--lookback", "24", "--horizon", "6"]) == 0
        cfg = json.loads(run_config.read_text())
        cfg["split"] = {"train": 0.5, "val": 0.25, "test": 0.25}
        run_config.write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(run_config), "--data", str(synth),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        scored = []
        monkeypatch.setattr(trainer, "evaluate", lambda ckpt, pairs: scored.extend(pairs) or {})
        assert cli.main(["evaluate", "--model", str(out), "--data", str(synth)]) == 0
        stats = trainer.load_checkpoint(str(out)).stats
        test_pairs = data.read_synth_csv(str(synth)).window_pairs()[15:]
        assert len(scored) == len(test_pairs) == 5
        for got, want in zip(scored, test_pairs):
            np.testing.assert_array_equal(got.target, data.normalize(want.target, stats))

    def test_model_trained_without_stats_evaluates(self, tmp_path, synth_file, run_config,
                                                   capsys):
        # a library run on unnormalized pairs stores the identity normalization
        mcfg, tcfg, _ = cli.load_run_config(str(run_config), 1)
        pairs = data.read_synth_csv(str(synth_file)).window_pairs()
        ckpt, _ = trainer.train(mcfg, tcfg, pairs[:28], pairs[28:32])
        out = tmp_path / "m.etsf"
        trainer.save_checkpoint(ckpt, str(out))
        stats = trainer.load_checkpoint(str(out)).stats
        np.testing.assert_array_equal(stats.mean, np.zeros(1))
        np.testing.assert_array_equal(stats.std, np.ones(1))
        assert cli.main(["evaluate", "--model", str(out), "--data", str(synth_file)]) == 0
        payload = strict_json(capsys.readouterr().out.strip())
        assert payload["mse"] == payload["mse_raw"] >= 0

    @pytest.mark.parametrize("command", ["evaluate", "forecast", "decompose"])
    def test_checkpoint_commands_compute_no_stats(self, synth_file, trained_model, capsys,
                                                   monkeypatch, command):
        # the checkpoint's statistics normalize the windows; the file's are never taken
        calls = []
        monkeypatch.setattr(data, "compute_stats", lambda values: calls.append(1))
        assert cli.main([command, "--model", str(trained_model), "--data",
                         str(synth_file)]) == 0
        assert calls == []

    @pytest.mark.filterwarnings("error")
    def test_tiny_checkpoint_std_is_data_error(self, tmp_path, synth_file, trained_model,
                                               capsys):
        ckpt = trainer.load_checkpoint(str(trained_model))
        ckpt.norm_std = np.array([5e-324])  # positive and finite, as the header requires
        tiny = tmp_path / "tiny.etsf"
        trainer.save_checkpoint(ckpt, str(tiny))
        assert cli.main(["evaluate", "--model", str(tiny), "--data", str(synth_file)]) == 2
        captured = capsys.readouterr()
        mean = float(ckpt.norm_mean[0])
        assert captured.out == ""
        assert captured.err == (f"error: channel 0: normalizing by mean {mean!r}, std 5e-324 "
                                "overflows float64\n")

    def test_data_of_other_window_sizes_is_data_error(self, tmp_path, trained_model, capsys):
        # a 24/6 checkpoint on a 20/6 instance CSV: no config was passed
        other = tmp_path / "s20.csv"
        assert cli.main(["synth", "--out", str(other), "--n", "10", "--lookback", "20",
                         "--horizon", "6"]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--model", str(trained_model), "--data", str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dataset windows are 20/6, config wants 24/6\n"

    def test_deterministic(self, synth_file, trained_model, capsys):
        outs = []
        for _ in range(2):
            assert cli.main(["evaluate", "--model", str(trained_model), "--data",
                             str(synth_file), "--split", "val"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


class TestForecastDecompose:
    def _rows(self, capsys, args, fmt):
        assert cli.main(args + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = strict_json(out)
            return payload["columns"], np.array(payload["rows"])
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return cols, rows

    def test_json_and_csv_numerically_identical(self, synth_file, trained_model, capsys):
        args = ["forecast", "--model", str(trained_model), "--data", str(synth_file),
                "--at", "0"]
        cols_j, rows_j = self._rows(capsys, args, "json")
        cols_c, rows_c = self._rows(capsys, args, "csv")
        assert cols_j == cols_c
        np.testing.assert_array_equal(rows_j, rows_c)

    def test_decompose_columns_sum_to_total(self, synth_file, trained_model, capsys):
        args = ["decompose", "--model", str(trained_model), "--data", str(synth_file),
                "--at", "2"]
        cols, rows = self._rows(capsys, args, "json")
        level = rows[:, cols.index("level")]
        growth = rows[:, cols.index("growth")]
        seasonal = rows[:, cols.index("seasonal")]
        total = rows[:, cols.index("total")]
        assert np.abs(level + growth + seasonal - total).max() < 1e-10

    def test_decompose_has_per_stack_columns(self, synth_file, trained_model, capsys):
        cols, _ = self._rows(capsys, ["decompose", "--model", str(trained_model),
                                      "--data", str(synth_file), "--at", "0"], "json")
        assert "growth0" in cols and "seasonal0" in cols

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_forecast_is_numeric_failure(self, tmp_path, synth_file, trained_model,
                                                    capsys, fmt):
        # a finite checkpoint whose subnormal norm_std scales the window to
        # near the float64 limit: the forward overflows and no total is finite
        ckpt = trainer.load_checkpoint(str(trained_model))
        ckpt.norm_std = np.array([1e-308])
        overflow_model = tmp_path / "overflow.etsf"
        trainer.save_checkpoint(ckpt, str(overflow_model))
        with np.errstate(over="ignore", invalid="ignore"):
            rc = cli.main(["forecast", "--model", str(overflow_model), "--data",
                           str(synth_file), "--format", fmt])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite value in the horizon table" in captured.err

    @pytest.mark.parametrize("std, message", [
        ([-0.2], "header norm_std must be positive, got [-0.2]"),
        ([0.0], "header norm_std must be positive, got [0.0]"),
    ], ids=["std_negative", "std_zero"])
    def test_bad_norm_stats_are_data_error(self, tmp_path, synth_file, trained_model, capsys,
                                           std, message):
        # CRC-valid files, so only the header rule stands between a bad std
        # and a division by zero or a sign-flipped forecast
        ckpt = trainer.load_checkpoint(str(trained_model))
        ckpt.norm_std = np.array(std)
        bad_model = tmp_path / "bad_norm.etsf"
        trainer.save_checkpoint(ckpt, str(bad_model))
        assert cli.main(["forecast", "--model", str(bad_model), "--data", str(synth_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_record_is_data_error(self, tmp_path, synth_file, trained_model,
                                                       capsys, bad):
        ckpt = trainer.load_checkpoint(str(trained_model))
        ckpt.params["head.w_out"][0, 0] = bad
        nan_model = tmp_path / "nan.etsf"
        trainer.save_checkpoint(ckpt, str(nan_model))
        assert cli.main(["forecast", "--model", str(nan_model), "--data", str(synth_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parameter head.w_out has non-finite values" in captured.err

    def test_window_index_out_of_range(self, synth_file, trained_model, capsys):
        rc = cli.main(["forecast", "--model", str(trained_model), "--data",
                       str(synth_file), "--at", "4000"])
        assert rc == 2

    @pytest.fixture()
    def two_channel(self, tmp_path):
        """A plain two-channel CSV and an untrained checkpoint for it."""
        t = np.arange(300.0)
        values = np.stack([np.sin(t / 3), np.cos(t / 5) + 0.01 * t], axis=1)
        csv_path, model_path = tmp_path / "two.csv", tmp_path / "two.etsf"
        write_csv(values, str(csv_path), names=["a", "b"])
        cfg = model.ModelConfig(lookback=24, horizon=6, channels=2, dim=8, ff_dim=16,
                                layers=2, heads=2, top_k=2)
        stats = data.compute_stats(values[:210])
        state = model.ModelState.init(cfg, 5)
        trainer.save_checkpoint(trainer.Checkpoint(
            config=cfg, params={k: v.data.astype(np.float32) for k, v in state.params.items()},
            norm_mean=stats.mean, norm_std=stats.std), str(model_path))
        return csv_path, model_path

    @pytest.mark.parametrize("command", ["evaluate", "forecast"])
    @pytest.mark.parametrize("channels", [1, 3, "instance"])
    def test_data_of_other_channel_count_is_data_error(self, tmp_path, synth_file, two_channel,
                                                       capsys, command, channels):
        # one channel would broadcast over the model's two and make up the second
        data_path = synth_file
        if channels != "instance":
            data_path = tmp_path / "other.csv"
            write_csv(np.sin(np.arange(300.0)[:, None] / (1 + np.arange(channels))),
                      str(data_path))
        assert cli.main([command, "--model", str(two_channel[1]), "--data",
                         str(data_path)]) == 2
        captured = capsys.readouterr()
        have = 1 if channels == "instance" else channels
        assert captured.out == ""
        assert f"error: data has {have} channels, the model config wants 2" in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_forecast_is_decompose_restricted_to_its_columns(
            self, synth_file, trained_model, two_channel, capsys, fmt, channels):
        data_path, model_path = (synth_file, trained_model) if channels == 1 else two_channel
        args = ["--model", str(model_path), "--data", str(data_path), "--at", "3"]
        fc_cols, fc_rows = self._rows(capsys, ["forecast"] + args, fmt)
        dc_cols, dc_rows = self._rows(capsys, ["decompose"] + args, fmt)
        keep = [i for i, c in enumerate(dc_cols) if c in fc_cols]
        suffixes = [""] if channels == 1 else ["_ch0", "_ch1"]
        assert fc_cols == ["t"] + [f"{n}{c}" for n in ("total", "target") for c in suffixes]
        assert [dc_cols[i] for i in keep] == fc_cols
        np.testing.assert_array_equal(fc_rows, dc_rows[:, keep])

    def test_forecast_matches_decompose_total(self, synth_file, trained_model, capsys):
        fc_cols, fc_rows = self._rows(capsys, ["forecast", "--model", str(trained_model),
                                               "--data", str(synth_file), "--at", "1"], "json")
        dc_cols, dc_rows = self._rows(capsys, ["decompose", "--model", str(trained_model),
                                               "--data", str(synth_file), "--at", "1"], "json")
        np.testing.assert_array_equal(
            fc_rows[:, fc_cols.index("total")], dc_rows[:, dc_cols.index("total")]
        )


class TestBaseline:
    def test_constant_series_has_zero_error(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        write_csv(np.full((60, 1), 3.0), str(p))
        rc = cli.main(["baseline", "--data", str(p), "--period", "4", "--grid", "2"])
        assert rc == 0
        payload = strict_json(capsys.readouterr().out.strip())
        assert payload["mse"] == pytest.approx(0.0, abs=1e-20)
        assert payload["channels"][0]["degenerate"]

    def test_seasonal_series_beats_trivial_error(self, tmp_path, capsys):
        t = np.arange(80)
        x = 5 + 0.1 * t + 2 * np.sin(2 * np.pi * t / 4)
        p = tmp_path / "s.csv"
        write_csv(x[:, None], str(p))
        rc = cli.main(["baseline", "--data", str(p), "--period", "4", "--grid", "3"])
        assert rc == 0
        payload = strict_json(capsys.readouterr().out.strip())
        assert payload["mse"] < np.var(x)

    def test_each_channel_fits_as_its_own_csv(self, tmp_path, capsys):
        # one fit over every channel gives each channel what a 1-channel
        # CSV of its column gives; a constant channel and enough steps for
        # grid 5 to run more than one block
        rng = np.random.default_rng(5)
        t = np.arange(400)
        values = np.stack([5 + 0.02 * t * c + np.sin(2 * np.pi * t / 12 + c) + rng.normal(0, 0.3, t.size)
                           for c in range(4)] + [np.full(t.size, 2.5)], axis=1)
        request = ["--period", "12", "--grid", "5", "--test-fraction", "0.2"]
        write_csv(values, str(tmp_path / "all.csv"))
        assert cli.main(["baseline", "--data", str(tmp_path / "all.csv"), *request]) == 0
        payload = strict_json(capsys.readouterr().out)
        for c, entry in enumerate(payload["channels"]):
            path = tmp_path / f"ch{c}.csv"
            write_csv(values[:, c:c + 1], str(path))
            assert cli.main(["baseline", "--data", str(path), *request]) == 0
            alone = strict_json(capsys.readouterr().out)
            assert alone["channels"] == [entry | {"channel": 0}]
            assert alone["test_steps"] == payload["test_steps"]
        assert payload["channels"][4]["degenerate"]

    def test_overflowing_error_is_numeric_failure(self, tmp_path, capsys):
        # random signs at 1e200: every squared error overflows to infinity
        x = 1e200 * np.random.default_rng(0).choice([-1.0, 1.0], size=60)
        p = tmp_path / "big.csv"
        write_csv(x[:, None], str(p))
        with np.errstate(over="ignore"):
            rc = cli.main(["baseline", "--data", str(p), "--period", "4"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert 'error: non-finite value in output {"mse": Infinity, ' in captured.err

    @pytest.mark.parametrize("exponent", [308, 160])
    def test_near_overflow_series_exits_3_with_one_error_line(self, tmp_path, capsys, exponent):
        # at 1e160 the squared errors overflow, at 1e308 the states reach
        # inf - inf; numpy's RuntimeWarnings must not reach stderr
        rng = np.random.default_rng(exponent)
        x = rng.choice([-1.0, 1.0], size=(60, 1)) * rng.uniform(0.5, 1.0, size=(60, 1))
        p = tmp_path / "huge.csv"
        write_csv(x * 10.0**exponent, str(p))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["baseline", "--data", str(p), "--period", "4"])
        assert rc == 3 and caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: non-finite value in output {")

    def test_csv_without_value_columns_is_data_error(self, timestamps_only, capsys):
        assert cli.main(["baseline", "--data", str(timestamps_only), "--period", "4"]) == 2
        captured = capsys.readouterr()
        assert f"error: {timestamps_only}: no value columns" in captured.err
        assert captured.out == ""

    def test_timestamps_running_backwards_are_data_error(self, tmp_path, capsys):
        p = tmp_path / "back.csv"
        p.write_text("timestamp,v\n" + "".join(
            f"2024-01-{d:02d},{d % 4}\n" for d in (*range(1, 20), 18, *range(20, 29))
        ))
        assert cli.main(["baseline", "--data", str(p), "--period", "4"]) == 2
        captured = capsys.readouterr()
        assert (f"error: {p}: line 21: timestamp '2024-01-18' does not come after '2024-01-19'"
                in captured.err)
        assert captured.out == ""

    @pytest.mark.parametrize("line", [1, 3])
    def test_oversized_field_is_data_error(self, tmp_path, capsys, line):
        # past csv's field size limit, which stays where it is
        lines = ["v"] + [str(float(i)) for i in range(40)]
        lines[line - 1] = "9" * 200_000
        p = tmp_path / "big.csv"
        p.write_text("\n".join(lines) + "\n")
        assert cli.main(["baseline", "--data", str(p), "--period", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {p}: line {line}: field larger than field limit" in captured.err

    @pytest.mark.parametrize("flag, value, named", [
        ("--test-fraction", "nan", "--test-fraction"), ("--test-fraction", "inf", "--test-fraction"),
        ("--test-fraction", "-1", "--test-fraction"), ("--test-fraction", "0", "--test-fraction"),
        ("--test-fraction", "1", "--test-fraction"), ("--grid", "0", "--grid"),
        ("--period", "0", "period must be >= 1"),  # DomainError from the fit
    ])
    def test_bad_flag_is_usage_error_naming_it(self, tmp_path, capsys, flag, value, named):
        p = tmp_path / "s.csv"
        write_csv(np.arange(40.0)[:, None], str(p))
        rc = cli.main(["baseline", "--data", str(p), "--period", "4", flag, value])
        assert rc == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("grid, code", [
        ("32", 2), ("33", 1), ("100", 1), ("1000000000000", 1),
    ])
    def test_grid_over_the_cap_is_usage_error_before_the_data_is_read(self, tmp_path, capsys,
                                                                      grid, code):
        # --grid 100 is 10**8 candidates, and 10**12 would allocate 7 TiB in
        # grid_values; the data file is missing, which only a grid within the
        # cap gets far enough to find (exit 2)
        missing = tmp_path / "missing.csv"
        assert cli.main(["baseline", "--data", str(missing), "--period", "4",
                         "--grid", grid]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: --grid must lie in [1, 32], got {grid}" in captured.err) == (code == 1)


class TestBench:
    def test_schema(self, capsys):
        rc = cli.main(["bench-esa", "--lengths", "64,128", "--d", "2", "--repeats", "1"])
        assert rc == 0
        lines = [strict_json(s) for s in capsys.readouterr().out.strip().splitlines()]
        assert [l["L"] for l in lines] == [64, 128]
        for line in lines:
            assert set(line) == {"L", "naive_ms", "fast_ms"}
            assert line["naive_ms"] > 0 and line["fast_ms"] > 0

    def test_lengths_must_ascend(self, capsys):
        rc = cli.main(["bench-esa", "--lengths", "128,64", "--d", "2", "--repeats", "1"])
        assert rc == 1
        assert "error: --lengths must" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--lengths", "abc"), ("--lengths", ""), ("--lengths", "64,"), ("--lengths", "0,64"),
        ("--lengths", "-64,128"), ("--d", "0"), ("--repeats", "0"),
    ])
    def test_bad_flag_is_usage_error_naming_it(self, capsys, flag, value):
        argv = {"--lengths": "64,128", "--d": "2", "--repeats": "1", flag: value}
        assert cli.main(["bench-esa"] + [f"{k}={v}" for k, v in argv.items()]) == 1
        captured = capsys.readouterr()
        assert f"error: {flag} must" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        # a 71 PiB attention matrix, then one that is one row past the cap
        (["--lengths", "100000000"], "--lengths"), (["--lengths", "64,8192"], "--lengths"),
        # 5.8 TiB of values at the default lengths, then 2**26 + 1 words
        (["--d", "100000000000"], "--d"), (["--lengths", "4096", "--d", "16385"], "--d"),
    ])
    def test_size_over_the_cap_is_usage_error(self, capsys, monkeypatch, argv, flag):
        monkeypatch.setattr(cli, "bench_esa", lambda *a: pytest.fail("timed past the cap"))
        assert cli.main(["bench-esa", "--repeats", "1"] + argv) == 1
        captured = capsys.readouterr()
        assert f"error: {flag} must" in captured.err and captured.out == ""

    def test_criterion_sizes_are_within_the_cap(self, capsys):
        # acceptance criterion 6 times L = 4096 at d = 8
        assert cli.main(["bench-esa", "--lengths", "4096", "--d", "8", "--repeats", "1"]) == 0
        assert [strict_json(s)["L"] for s in capsys.readouterr().out.splitlines()] == [4096]


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert cli.main(["train"]) == 1  # missing required flags

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1

    def test_data_error_missing_file(self, tmp_path, run_config, capsys):
        rc = cli.main(["train", "--config", str(run_config), "--data",
                       "/nonexistent.csv", "--out", "/tmp/x.etsf"])
        assert rc == 2
        # the data file is read first, so a bad config does not change the code
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"lookback": 24}}))
        assert cli.main(["train", "--config", str(bad), "--data", "/nonexistent.csv",
                         "--out", "/tmp/x.etsf"]) == 2

    def test_checkpoint_without_a_parameter_record(self, tmp_path, synth_file,
                                                    trained_model, capsys):
        # head.w_out's (8, 1) float32 values come last; cut them, keep a valid CRC
        raw = trained_model.read_bytes()
        body = raw[: -4 - 8 * 4]
        broken = tmp_path / "broken.etsf"
        broken.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        rc = cli.main(["evaluate", "--model", str(broken), "--data", str(synth_file)])
        assert rc == 2
        assert (f"{broken}: malformed checkpoint: file is {len(raw) - 32} bytes, "
                f"its header implies {len(raw)}") in capsys.readouterr().err

    @staticmethod
    def _reframed(raw: bytes, edit) -> bytes:
        """raw with edit applied to its JSON header text, re-framed with a valid CRC."""
        hlen = int.from_bytes(raw[8:12], "little")
        text = edit(raw[12 : 12 + hlen])
        body = raw[:8] + len(text).to_bytes(4, "little") + text + raw[12 + hlen : -4]
        return body + zlib.crc32(body).to_bytes(4, "little")

    @classmethod
    def _reheadered(cls, raw: bytes, edit) -> bytes:
        """raw with edit applied to its parsed JSON header, re-framed with a valid CRC."""
        def rewrite(text):
            header = json.loads(text)
            edit(header)
            return json.dumps(header, sort_keys=True).encode()

        return cls._reframed(raw, rewrite)

    @pytest.mark.parametrize("case, message", [
        ("v1", "unsupported checkpoint version 1"),
        ("v2", "unsupported checkpoint version 2"),
        ("no_split", "header keys: missing ['split'], unknown []"),
        ("adam_key", "header keys: missing [], unknown ['adam_step']"),
        ("other_dim", "bytes, its header implies"),
        ("split_twice", "repeated key 'split'"),
        ("dim_twice", "repeated key 'dim'"),
    ])
    def test_checkpoint_layout_error_is_data_error(self, tmp_path, synth_file, trained_model,
                                                   capsys, case, message):
        raw = trained_model.read_bytes()
        model = trainer.load_checkpoint(str(trained_model)).config
        files = {
            "v1": Path(__file__).parent / "data" / "ckpt_v1_with_adam.etsf",
            "v2": raw[:4] + (2).to_bytes(4, "little") + raw[8:],
            "no_split": self._reheadered(raw, lambda h: h.pop("split")),
            "adam_key": self._reheadered(raw, lambda h: h.update(adam_step=3)),
            "other_dim": self._reheadered(raw, lambda h: h["model"].update(dim=2 * model.dim)),
            "split_twice": self._reframed(
                raw, lambda text: text.replace(b'"split": {', b'"split": {}, "split": {')),
            "dim_twice": self._reframed(
                raw, lambda text: text.replace(b'"dim": ', b'"dim": 8, "dim": ')),
        }
        path = files[case]
        if isinstance(path, bytes):
            (tmp_path / "old.etsf").write_bytes(path)
            path = tmp_path / "old.etsf"
        rc = cli.main(["evaluate", "--model", str(path), "--data", str(synth_file)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert f"{path}: malformed checkpoint: " in captured.err and message in captured.err

    def test_corrupted_checkpoint(self, tmp_path, synth_file, trained_model, capsys):
        raw = bytearray(trained_model.read_bytes())
        raw[-5] ^= 0x10  # a parameter value, so only the checksum can tell
        broken = tmp_path / "broken.etsf"
        broken.write_bytes(bytes(raw))
        rc = cli.main(["evaluate", "--model", str(broken), "--data", str(synth_file)])
        assert rc == 2
        assert f"{broken}: malformed checkpoint: checksum mismatch" in capsys.readouterr().err

    @staticmethod
    def _insert_non_utf8_byte(path, first_line: bool) -> None:
        raw = path.read_bytes()
        at = 0 if first_line else len(raw) - 4  # inside the last value
        path.write_bytes(raw[:at] + b"\xff" + raw[at:])

    @pytest.mark.parametrize("first_line", [True, False])
    def test_non_utf8_series_is_data_error(self, tmp_path, capsys, first_line):
        p = tmp_path / "s.csv"
        write_csv(np.arange(40.0)[:, None], str(p))
        self._insert_non_utf8_byte(p, first_line)
        assert cli.main(["baseline", "--data", str(p), "--period", "4"]) == 2
        captured = capsys.readouterr()
        line = 1 if first_line else 41  # the header, then 40 rows
        assert captured.out == "" and f"error: {p}: line {line}: not UTF-8 text" in captured.err

    @pytest.mark.parametrize("first_line", [True, False])
    def test_non_utf8_instance_csv_is_data_error(self, synth_file, trained_model, capsys,
                                                 first_line):
        self._insert_non_utf8_byte(synth_file, first_line)
        assert cli.main(["forecast", "--model", str(trained_model), "--data",
                         str(synth_file)]) == 2
        captured = capsys.readouterr()
        line = 1 if first_line else 41  # the metadata row, then 40 instances
        assert captured.out == ""
        assert f"error: {synth_file}: line {line}: not UTF-8 text" in captured.err

    def test_non_utf8_run_config_is_config_error(self, tmp_path, synth_file, run_config,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + run_config.read_bytes())
        assert cli.main(["train", "--config", str(bad), "--data", str(synth_file),
                         "--out", str(tmp_path / "m.etsf")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {bad}: not UTF-8 text" in captured.err

    def test_run_config_nested_past_recursion_limit_is_config_error(self, tmp_path,
                                                                   synth_file, capsys):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        assert cli.main(["train", "--config", str(bad), "--data", str(synth_file),
                         "--out", str(tmp_path / "m.etsf")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: invalid JSON: nested too deeply" in captured.err

    def test_instance_csv_cells_past_int64_is_data_error(self, synth_file, trained_model,
                                                         capsys):
        lines = synth_file.read_bytes().split(b"\n", 1)
        meta = lines[0].replace(b"lookback=24", b"lookback=10000000000000000000")
        synth_file.write_bytes(meta + b"\n" + lines[1])
        assert cli.main(["evaluate", "--model", str(trained_model), "--data",
                         str(synth_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: {synth_file}: line 1: metadata instances=40 x "
                "(lookback=10000000000000000000 + horizon=6) is 400000000000000000240 cells, "
                f"more than the {data.MAX_INSTANCE_CELLS} allowed" in captured.err)

    def test_stdout_is_pure_payload(self, tmp_path, synth_file, run_config, capsys):
        out = tmp_path / "m.etsf"
        assert cli.main(["train", "--config", str(run_config), "--data",
                         str(synth_file), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        for line in captured.out.strip().splitlines():
            strict_json(line)  # every stdout line parses, as strict JSON
        assert "training on" in captured.err


class TestParserReuse:
    def test_parser_built_once_and_commands_looked_up_per_call(self, tmp_path, capsys,
                                                                monkeypatch):
        cli._parser.cache_clear()
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        ran = []
        monkeypatch.setattr(cli, "cmd_baseline", lambda args: ran.append(args.grid) or 0)
        p = tmp_path / "s.csv"
        write_csv(np.arange(40.0)[:, None], str(p))
        for grid in ("2", "3"):
            assert cli.main(["baseline", "--data", str(p), "--period", "4", "--grid", grid]) == 0
        assert built == [1] and ran == [2, 3]

    def test_usage_error_leaves_the_next_request_as_a_fresh_one(self, tmp_path, capsys):
        p = tmp_path / "s.csv"
        x = 5 + 0.1 * np.arange(60) + np.sin(np.arange(60) * np.pi / 2)
        write_csv(x[:, None], str(p))
        request = ["baseline", "--data", str(p), "--period", "4", "--grid", "2"]
        cli._parser.cache_clear()
        fresh = cli.main(request), capsys.readouterr().out
        assert cli.main(["baseline", "--data", str(p), "--grid", "x"]) == 1
        assert "error: argument --grid: invalid int value" in capsys.readouterr().err
        assert (cli.main(request), capsys.readouterr().out) == fresh
        assert fresh[0] == 0 and strict_json(fresh[1])["test_steps"] == 12
