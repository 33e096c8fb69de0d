"""The four benchmark workloads.

Each workload builds its inputs from a seed (`setup`), runs one operation of
etsfore through its public API (`op`) and checks that operation's output
against an independent route (`check`). Timing, repetition and reporting
live in run.py; nothing here reads the clock.

An operation is one unit the workload's user waits for:

- train_desk:  one `trainer.train` call at the desk config;
- infer_batch: one `trainer.evaluate_state` call over 256 windows;
- serve_cli:   one in-process `etsfore forecast` / `decompose` request;
- baseline_hw: one in-process `etsfore baseline` request.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from datetime import datetime, timedelta

import numpy as np

from etsfore import classical, cli, data, model, trainer

# The paper's desk configuration (ROADMAP aim 1) and a shape-compatible toy
# one that lets the smoke test run every workload in about a second.
DESK = dict(lookback=192, horizon=48, dim=32, ff_dim=128, layers=2, heads=4, top_k=2, dropout=0.2)
TINY = dict(lookback=24, horizon=6, dim=8, ff_dim=16, layers=2, heads=2, top_k=2, dropout=0.2)

# Weights of the model under test in infer_batch and serve_cli. They are
# fixed so that the seed varies the traffic, not the model, and the
# forecast error stays comparable from seed to seed.
MODEL_SEED = 0
NOISE = 0.05
# Relative tolerance for "equal" float64 results reached by two routes
# through the same arithmetic (a few hundred rounding steps at most).
RTOL = 1e-9


def _close(a, b, rtol: float = RTOL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


def _mse(pred, target) -> float:
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(diff * diff))


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_table(text: str, fmt: str) -> tuple[list[str], np.ndarray]:
    if fmt == "json":
        obj = json.loads(text)
        return obj["columns"], np.asarray(obj["rows"], dtype=np.float64)
    lines = text.strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.asarray(rows, dtype=np.float64)


class Workload:
    name = ""
    probe = "numeric"  # hostspeed kernel closest to the workload's own mix

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.mcfg = model.ModelConfig(**(TINY if tiny else DESK))
        self.units_per_op = 1

    def setup(self) -> None:
        """Generate inputs and program state; may run several times."""
        raise NotImplementedError

    def op(self, k: int):
        """Operation number k; returns its raw output."""
        raise NotImplementedError

    def check(self, k: int, out) -> tuple[bool, float]:
        """(output correct, forecast MSE of this operation)."""
        raise NotImplementedError


class TrainDesk(Workload):
    """`trainer.train` on in-memory synthetic pairs with per-epoch validation."""

    name = "train_desk"
    # Kept across set-ups: each one rebuilds the same inputs from the seed.
    reference_log = None

    def setup(self) -> None:
        # The train:validation ratio (16:1) and the 4 steps per epoch follow
        # the desk run of acceptance criterion 7 (2000:128 windows), scaled
        # down so that a run times several calls.
        n_train, n_val = (16, 1) if self.tiny else (128, 8)
        cfg = self.mcfg
        ds = data.synth_generate(n_train + n_val, NOISE, self.seed, cfg.lookback, cfg.horizon)
        pairs = ds.window_pairs()
        stats = data.compute_stats(np.stack([p.lookback for p in pairs[:n_train]]))
        norm = [
            data.WindowPair(data.normalize(p.lookback, stats), data.normalize(p.target, stats), p.origin)
            for p in pairs
        ]
        self.train_pairs, self.val_pairs, self.stats = norm[:n_train], norm[n_train:], stats
        self.tcfg = trainer.TrainConfig(
            epochs=2, warmup_epochs=1, batch_size=4 if self.tiny else 32, seed=self.seed
        )
        self.units_per_op = n_train * self.tcfg.epochs

    def op(self, k: int):
        return trainer.train(self.mcfg, self.tcfg, self.train_pairs, self.val_pairs, self.stats)

    def check(self, k: int, out) -> tuple[bool, float]:
        ckpt, log = out
        finite = len(log) == self.tcfg.epochs and all(
            math.isfinite(e["train_mse"]) and math.isfinite(e["val_mse"]) for e in log
        )
        # every call sees the same seed and inputs, so the epoch logs must
        # match the first call's (the warm-up's) bit for bit
        if self.reference_log is None:
            self.reference_log = log
        return finite and log == self.reference_log, ckpt.best_val_mse


class InferBatch(Workload):
    """`trainer.evaluate_state` (no_grad, chunks of 256) over in-memory windows."""

    name = "infer_batch"

    def setup(self) -> None:
        n = 16 if self.tiny else 256
        cfg = self.mcfg
        ds = data.synth_generate(n, NOISE, self.seed, cfg.lookback, cfg.horizon)
        stats = data.compute_stats(ds.values[:, : cfg.lookback])
        self.X = data.normalize(ds.values[:, : cfg.lookback], stats)
        self.Y = data.normalize(ds.values[:, cfg.lookback :], stats)
        self.stats = stats
        self.state = model.ModelState.init(cfg, MODEL_SEED)
        self.units_per_op = n
        self.reference = None

    def _reference(self) -> dict[str, float]:
        pred = model.forecast(self.X, self.state).total
        diff = pred - self.Y
        raw = diff * self.stats.std
        return {
            "finite": bool(np.isfinite(pred).all()),
            "mse": float(np.mean(diff * diff)),
            "mae": float(np.mean(np.abs(diff))),
            "mse_raw": float(np.mean(raw * raw)),
            "mae_raw": float(np.mean(np.abs(raw))),
        }

    def op(self, k: int):
        return trainer.evaluate_state(self.state, self.X, self.Y, self.stats, chunk=256)

    def check(self, k: int, out) -> tuple[bool, float]:
        if self.reference is None:
            self.reference = self._reference()
        ref = self.reference
        ok = ref["finite"] and all(
            math.isfinite(out[key]) and _close(out[key], ref[key])
            for key in ("mse", "mae", "mse_raw", "mae_raw")
        )
        return ok, out["mse"]


class ServeCli(Workload):
    """In-process `etsfore forecast` / `decompose` requests against a saved checkpoint."""

    name = "serve_cli"
    probe = "python"
    KINDS = (("forecast", "json"), ("decompose", "csv"), ("forecast", "csv"), ("decompose", "json"))

    def setup(self) -> None:
        # 130 instances cover every phase of the two-tone season (lcm(10, 13))
        n = 12 if self.tiny else 130
        cfg = self.mcfg
        ds = data.synth_generate(n, NOISE, self.seed, cfg.lookback, cfg.horizon)
        self.data_path = os.path.join(self.workdir, "serve_synth.csv")
        self.model_path = os.path.join(self.workdir, "serve_model.etsf")
        data.write_synth_csv(ds, self.data_path)
        state = model.ModelState.init(cfg, MODEL_SEED)
        n_train = int(data.SplitSpec().train * n)
        stats = data.compute_stats(ds.values[:n_train, : cfg.lookback])
        self.ckpt = trainer.Checkpoint(
            config=cfg,
            params={name: t.data.astype(np.float32) for name, t in state.params.items()},
            norm_mean=stats.mean,
            norm_std=stats.std,
        )
        trainer.save_checkpoint(self.ckpt, self.model_path)
        self.values = ds.values
        self.n = n
        self.start = int(np.random.default_rng(self.seed).integers(n))
        self.references: dict[int, model.DecomposedForecast] = {}

    def request(self, k: int) -> tuple[str, str, int]:
        cmd, fmt = self.KINDS[k % len(self.KINDS)]
        # a stride coprime to n visits every window once per n requests
        return cmd, fmt, (self.start + 7 * k) % self.n

    def op(self, k: int):
        cmd, fmt, at = self.request(k)
        return _run_cli(
            [cmd, "--model", self.model_path, "--data", self.data_path,
             "--at", str(at), "--format", fmt]
        )

    def _window(self, at: int) -> tuple[np.ndarray, np.ndarray]:
        L = self.mcfg.lookback
        mean, std = self.ckpt.norm_mean, self.ckpt.norm_std
        return (self.values[at, :L] - mean) / std, (self.values[at, L:] - mean) / std

    def check(self, k: int, out) -> tuple[bool, float]:
        code, text = out
        if code != 0:
            return False, math.nan
        cmd, fmt, at = self.request(k)
        lookback, target = self._window(at)
        if at not in self.references:
            self.references[at] = model.forecast(lookback, self.ckpt.to_state())
        ref = self.references[at]
        try:
            columns, rows = _parse_table(text, fmt)
        except (ValueError, KeyError):
            return False, math.nan
        H = self.mcfg.horizon
        if rows.shape != (H, len(columns)) or not np.array_equal(rows[:, 0], np.arange(H)):
            return False, math.nan
        col = {name: rows[:, i : i + 1] for i, name in enumerate(columns)}
        if not {"total", "target"} <= col.keys():
            return False, math.nan
        ok = _close(col["total"], ref.total) and _close(col["target"], target)
        if cmd == "decompose":
            if not {"level", "growth", "seasonal"} <= col.keys():
                return False, math.nan
            parts = col["level"] + col["growth"] + col["seasonal"]
            ok = ok and _close(parts, col["total"], rtol=1e-12)
            ok = ok and all(_close(col[c], getattr(ref, c)) for c in ("level", "growth", "seasonal"))
        return ok, _mse(col["total"], target)


class BaselineHw(Workload):
    """In-process `etsfore baseline` on a timestamped multi-channel CSV."""

    name = "baseline_hw"
    probe = "python"

    def setup(self) -> None:
        T, self.channels, self.period, self.grid = (48, 2, 6, 2) if self.tiny else (240, 2, 12, 5)
        rng = np.random.default_rng(self.seed)
        t = np.arange(T, dtype=np.float64)
        phase = 2.0 * np.pi * t / self.period
        cols = []
        for c in range(self.channels):
            shape = np.sin(phase + c) + 0.4 * np.sin(2.0 * phase + 2.0 * c)
            cols.append(10.0 + 5.0 * c + 0.02 * t + 3.0 * shape + rng.normal(0.0, 0.3, T))
        self.values = np.stack(cols, axis=1)
        self.path = os.path.join(self.workdir, "baseline_series.csv")
        start = datetime(2024, 1, 1)
        with open(self.path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp"] + [f"ch{c}" for c in range(self.channels)])
            for i, row in enumerate(self.values):
                writer.writerow([(start + timedelta(hours=i)).isoformat()] + [repr(float(v)) for v in row])
        self.units_per_op = self.channels
        self.reference = None

    def op(self, k: int):
        return _run_cli(
            ["baseline", "--data", self.path, "--period", str(self.period), "--grid", str(self.grid)]
        )

    def check(self, k: int, out) -> tuple[bool, float]:
        code, text = out
        if code != 0:
            return False, math.nan
        try:
            result = json.loads(text)
            fitted = [
                (r["alpha"], r["beta"], r["gamma"], r["phi"]) for r in result["channels"]
            ]
            fit_len = len(self.values) - int(result["test_steps"])
        except (ValueError, KeyError, TypeError):
            return False, math.nan
        if self.reference is None:
            self.reference = []
            for c in range(self.channels):
                p = classical.hw_fit_grid(self.values[:fit_len, c], self.period, self.grid).params
                self.reference.append((p.alpha, p.beta, p.gamma, p.phi))
        ok = fitted == self.reference and math.isfinite(result["mse"])
        return ok, float(result["mse"])


WORKLOADS = {w.name: w for w in (TrainDesk, InferBatch, ServeCli, BaselineHw)}
