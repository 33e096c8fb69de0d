"""Optimization loop: Adam with two parameter groups (smoothing/damping rates
train at a fixed 100x rate, everything else follows linear warmup + cosine
annealing), plus evaluation and binary checkpointing.

A run sets the six keys of `TrainConfig`. The rest of the recipe is fixed
by module constants: Adam's decay rates and epsilon, the final main-group
learning rate and the special-group multiple.
"""

from __future__ import annotations

import io
import json
import math
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import NormStats, SplitSpec, WindowPair, augment_pair, metrics
from .errors import ConfigError, DataError, DimensionError, TrainingError
from .model import (
    ModelConfig,
    ModelState,
    forecast,
    forward,
    from_dict,
    is_special_parameter,
    mse_loss,
    parameter_shapes,
)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_LR = 1e-30  # the main group's rate at the final step
SPECIAL_LR_MULT = 100.0  # the special group's fixed rate, as a multiple of base_lr


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    epochs: int = 15
    warmup_epochs: int = 3
    batch_size: int = 32
    seed: int = 0
    augment: bool = False

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError(f"bad schedule: epochs={self.epochs}, batch_size={self.batch_size}")
        if self.epochs > 0 and not 0 <= self.warmup_epochs < self.epochs:
            raise ConfigError(
                f"warmup epochs {self.warmup_epochs} must be < total epochs {self.epochs}"
            )
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def lr_at(step: int, total_steps: int, cfg: TrainConfig) -> tuple[float, float]:
    """(main lr, special lr) at a 0-indexed optimizer step.

    Main: linear ramp to base_lr over the warmup span, then cosine decay
    reaching MIN_LR exactly at the final step. Special: SPECIAL_LR_MULT
    times base_lr, never scheduled.
    """
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = max(1, (total_steps * cfg.warmup_epochs) // cfg.epochs) if cfg.epochs else 0
    if step < warmup_steps:
        lr = cfg.base_lr * (step + 1) / warmup_steps
    else:
        span = max(1, total_steps - warmup_steps)
        progress = min(1.0, (step - warmup_steps + 1) / span)
        lr = MIN_LR + 0.5 * (cfg.base_lr - MIN_LR) * (1.0 + math.cos(math.pi * progress))
    return lr, cfg.base_lr * SPECIAL_LR_MULT


class Adam:
    """Bias-corrected Adam over a named parameter dict, with ADAM_BETA1,
    ADAM_BETA2 and ADAM_EPS."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.m = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.v = {name: np.zeros(shape) for name, shape in shapes.items()}
        self.t = 0

    def step(self, params: dict[str, "ad.Tensor"], lr_of) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise TrainingError(f"non-finite gradient in parameter {name}")
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data -= lr_of(name) * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# checkpoint format

CKPT_MAGIC = b"ETSF"
CKPT_VERSION = 2  # version 1 lacks the trailing CRC-32 and still loads
_DTYPES = {0: "<f8", 1: "<f4"}
_DTYPE_CODES = {np.dtype("float64"): 0, np.dtype("float32"): 1}


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]  # float32 payloads
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None
    split: SplitSpec = field(default_factory=SplitSpec)  # the split the model was trained on
    best_epoch: int = -1
    best_val_mse: float = math.nan

    def to_state(self) -> ModelState:
        tensors = {
            name: ad.Tensor(arr.astype(np.float64), requires_grad=True)
            for name, arr in self.params.items()
        }
        return ModelState(self.config, tensors)

    @property
    def stats(self) -> NormStats | None:
        if self.norm_mean is None:
            return None
        return NormStats(mean=self.norm_mean, std=self.norm_std)


def _write_record(buf: io.BytesIO, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    buf.write(struct.pack("<I", len(raw)))
    buf.write(raw)
    code = _DTYPE_CODES[arr.dtype]
    buf.write(struct.pack("<BB", code, arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<Q", dim))
    buf.write(np.ascontiguousarray(arr).tobytes())


def _read(buf: io.BytesIO, n: int, what: str) -> bytes:
    chunk = buf.read(min(n, sys.maxsize))  # a record's u64 dims can ask for more
    if len(chunk) != n:
        raise DataError(f"truncated {what}: {len(chunk)} of {n} bytes")
    return chunk


def _unpack(buf: io.BytesIO, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, _read(buf, struct.calcsize(fmt), what))


def _read_record(buf: io.BytesIO) -> tuple[str, np.ndarray]:
    (name_len,) = _unpack(buf, "<I", "record header")
    name = _read(buf, name_len, "record name").decode("utf-8")
    code, rank = _unpack(buf, "<BB", f"record {name}")
    shape = _unpack(buf, f"<{rank}Q", f"record {name}")
    dtype = np.dtype(_DTYPES[code])
    payload = _read(buf, math.prod(shape) * dtype.itemsize, f"record {name}")
    return name, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    header = {
        "model": asdict(ckpt.config),
        "split": asdict(ckpt.split),
        "norm_mean": None if ckpt.norm_mean is None else list(map(float, ckpt.norm_mean)),
        "norm_std": None if ckpt.norm_std is None else list(map(float, ckpt.norm_std)),
        "best_epoch": ckpt.best_epoch,
        "best_val_mse": None if math.isnan(ckpt.best_val_mse) else ckpt.best_val_mse,
    }
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CKPT_MAGIC)
    buf.write(struct.pack("<I", CKPT_VERSION))
    buf.write(struct.pack("<I", len(raw_header)))
    buf.write(raw_header)
    buf.write(struct.pack("<I", len(ckpt.params)))
    for name, arr in ckpt.params.items():
        _write_record(buf, name, arr.astype("<f4"))
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a malformed, truncated or corrupted file raises DataError.

    The parameter records must be exactly those of the header's model
    config, with their shapes and finite values. From version 2 a CRC-32 of
    all earlier bytes ends the file; it is checked once the layout has
    parsed, so a layout error keeps its own message. The header's norm_mean
    and norm_std are both null or both set, and norm_std is > 0. A header
    without a split, as older files have, means SplitSpec(). The Adam
    records and the Adam step and RNG state keys of older files are skipped.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    buf = io.BytesIO(raw)
    try:
        if buf.read(4) != CKPT_MAGIC:
            raise DataError("not a checkpoint file (bad magic)")
        (version,) = _unpack(buf, "<I", "version")
        if version not in (1, CKPT_VERSION):
            raise DataError(f"unsupported checkpoint version {version}")
        (hlen,) = _unpack(buf, "<I", "header length")
        header = json.loads(_read(buf, hlen, "header"))
        config = from_dict(ModelConfig, header["model"], "header model")
        norm = {}
        for key in ("norm_mean", "norm_std"):
            arr = header[key] if header[key] is None else np.asarray(header[key], dtype=np.float64)
            if arr is not None and (arr.shape != (config.channels,) or not np.isfinite(arr).all()):
                raise DataError(f"header {key} is not {config.channels} finite values")
            norm[key] = arr
        for key, other in (("norm_mean", "norm_std"), ("norm_std", "norm_mean")):
            if norm[key] is None and norm[other] is not None:
                raise DataError(f"header {key} is null but {other} is set")
        if norm["norm_std"] is not None and not (norm["norm_std"] > 0).all():
            raise DataError(f"header norm_std must be positive, got {header['norm_std']}")
        best_epoch = header.get("best_epoch", -1)
        if type(best_epoch) is not int or best_epoch < -1:  # bool is an int subclass
            raise DataError(f"header best_epoch must be an integer >= -1, got {best_epoch!r}")
        val = header.get("best_val_mse")
        # NaN fails the comparison; an int is compared exactly, without overflow
        if val is not None and not (type(val) in (int, float) and abs(val) <= sys.float_info.max):
            raise DataError(f"header best_val_mse must be a finite number or null, got {val!r}")
        ckpt = Checkpoint(
            config=config,
            params={},
            split=from_dict(SplitSpec, header.get("split", {}), "header split"),
            best_epoch=best_epoch,
            best_val_mse=math.nan if val is None else float(val),
            **norm,
        )
        (n_records,) = _unpack(buf, "<I", "record count")
        for _ in range(n_records):
            name, arr = _read_record(buf)
            if not name.startswith("adam."):
                ckpt.params[name] = arr
        end = buf.tell()
        (crc,) = _unpack(buf, "<I", "checksum") if version > 1 else (None,)
        if buf.read(1):
            raise DataError(f"trailing bytes after record {n_records}")
        if crc is not None and crc != zlib.crc32(raw[:end]):
            raise DataError("checksum mismatch (corrupted file)")
        expected = parameter_shapes(config)
        for name in sorted(set(expected) | set(ckpt.params)):
            if name not in ckpt.params:
                raise DataError(f"missing parameter record {name}")
            if name not in expected:
                raise DataError(f"unexpected parameter record {name}")
            if ckpt.params[name].shape != expected[name]:
                raise DataError(
                    f"parameter record {name} has shape {ckpt.params[name].shape}, "
                    f"expected {expected[name]}"
                )
            if not np.isfinite(ckpt.params[name]).all():
                raise DataError(f"parameter record {name} has non-finite values")
    # json, a header field or a record's name or dtype code can be malformed too
    except (DataError, ConfigError, ValueError, TypeError, KeyError) as e:
        raise DataError(f"{path}: malformed checkpoint: {e}") from None
    return ckpt


# ---------------------------------------------------------------------------
# training and evaluation


def _stack(pairs: list[WindowPair]) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.stack([p.lookback for p in pairs]),
        np.stack([p.target for p in pairs]),
    )


def evaluate_state(
    state: ModelState, X: np.ndarray, Y: np.ndarray, stats: NormStats | None = None,
    chunk: int = 256,
) -> dict[str, float]:
    """Inference-mode metrics over all windows; raw-scale values when stats given.

    X holds (n, L, m) lookback windows and Y their (n, H, m) targets. The
    forecasts come from `model.forecast`, `chunk` windows per call: chunk
    bounds how many windows one call's outputs hold, while `forecast`
    bounds each forward's working set by its own blocks, so any chunk >= 1
    gives the same bits. chunk < 1 raises ConfigError; X and Y of different
    lengths raise DimensionError before any forward runs.
    """
    if chunk < 1:
        raise ConfigError(f"evaluate_state: chunk must be >= 1, got {chunk}")
    if len(X) != len(Y):
        raise DimensionError(f"evaluate_state: {len(X)} windows but {len(Y)} targets")
    if len(X) == 0:
        raise DataError("cannot evaluate an empty split")
    pred = np.concatenate(
        [forecast(X[i : i + chunk], state).total for i in range(0, len(X), chunk)], axis=0
    )
    mse, mae = metrics(pred, Y)
    out = {"mse": mse, "mae": mae}
    if stats is not None:
        diff = (pred - Y) * stats.std
        out["mse_raw"] = float(np.mean(diff * diff))
        out["mae_raw"] = float(np.mean(np.abs(diff)))
    return out


def evaluate(ckpt: Checkpoint, pairs: list[WindowPair]) -> dict[str, float]:
    """Metrics of a stored model on a list of (already normalized) windows."""
    X, Y = _stack(pairs)
    return evaluate_state(ckpt.to_state(), X, Y, ckpt.stats)


def _snapshot_f32(arrs: dict[str, "ad.Tensor"]) -> dict[str, np.ndarray]:
    return {name: t.data.astype(np.float32) for name, t in arrs.items()}


def train(
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    train_pairs: list[WindowPair],
    val_pairs: list[WindowPair],
    stats: NormStats | None = None,
    log_fn=None,
) -> tuple[Checkpoint, list[dict]]:
    """Fit the model; returns the best-validation checkpoint and per-epoch log."""
    if not train_pairs:
        raise DataError("training split yields no windows")
    if not val_pairs:
        raise DataError("validation split yields no windows")
    X, Y = _stack(train_pairs)
    Xv, Yv = _stack(val_pairs)
    n = len(X)
    rng = np.random.default_rng(train_cfg.seed)
    state = ModelState.init(model_cfg, train_cfg.seed)
    adam = Adam({name: t.shape for name, t in state.params.items()})
    steps_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    log: list[dict] = []
    best_val = math.inf
    best = Checkpoint(
        config=model_cfg,
        params=_snapshot_f32(state.params),
        norm_mean=None if stats is None else stats.mean,
        norm_std=None if stats is None else stats.std,
    )
    step = 0
    for epoch in range(train_cfg.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        lr_main = train_cfg.base_lr
        for b0 in range(0, n, train_cfg.batch_size):
            idx = perm[b0 : b0 + train_cfg.batch_size]
            xb, yb = X[idx], Y[idx]
            if train_cfg.augment:
                xb, yb = xb.copy(), yb.copy()
                for i in range(len(idx)):
                    xb[i], yb[i] = augment_pair(xb[i], yb[i], rng)
            state.zero_grad()
            loss = mse_loss(forward(xb, state, rng), yb)
            if not np.isfinite(loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // train_cfg.batch_size}"
                )
            loss.backward()
            lr_main, lr_special = lr_at(step, total_steps, train_cfg)
            adam.step(
                state.params,
                lambda name: lr_special if is_special_parameter(name) else lr_main,
            )
            epoch_losses.append(float(loss.data))
            step += 1
        val = evaluate_state(state, Xv, Yv)
        entry = {
            "epoch": epoch,
            "train_mse": float(np.mean(epoch_losses)),
            "val_mse": val["mse"],
            "lr": lr_main,
        }
        log.append(entry)
        if log_fn is not None:
            log_fn(entry)
        if val["mse"] < best_val:
            best_val = val["mse"]
            best = replace(
                best, params=_snapshot_f32(state.params), best_epoch=epoch, best_val_mse=best_val
            )
    return best, log
