"""Optimization loop: Adam with two parameter groups (smoothing/damping rates
train at a fixed 100x rate, everything else follows linear warmup + cosine
annealing), plus evaluation and binary checkpointing.

A run sets the five keys of `TrainConfig`. The rest of the recipe is fixed
by module constants: Adam's decay rates and epsilon, the final main-group
learning rate and the special-group multiple.

A checkpoint is what inference reads and nothing else: the model config,
the split and the normalization the model was trained on, then the values
of the parameters that config fixes. A run's best epoch and validation MSE
stay on the in-memory record `train` returns; the file does not keep them,
and no file of an older layout loads.
"""

from __future__ import annotations

import json
import math
import reprlib
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .data import NormStats, SplitSpec, WindowPair, _parse_once, metrics
from .errors import ConfigError, DataError, DimensionError, TrainingError
from .model import (
    ModelConfig,
    ModelState,
    check_parameters,
    finite_number,
    forecast,
    forward,
    from_dict,
    mse_loss,
    parameter_shapes,
    parameter_table,
    read_json,
    value_count,
)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_LR = 1e-30  # the main group's rate at the final step
SPECIAL_LR_MULT = 100.0  # the special group's fixed rate, as a multiple of base_lr
# The most values the largest training activation, min(batch_size, train
# windows) x lookback x max(ff_dim, dim), may hold; the desk run's holds 786,432.
MAX_ACTIVATION_VALUES = 2**24


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    epochs: int = 15
    warmup_epochs: int = 3
    batch_size: int = 32
    seed: int = 0

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
CKPT_VERSION = 4
_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_HEADER_KEYS = {"model", "split", "norm_mean", "norm_std"}


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]  # float32 payloads
    norm_mean: np.ndarray  # the normalization the model's inputs went through
    norm_std: np.ndarray
    split: SplitSpec = field(default_factory=SplitSpec)  # the split the model was trained on
    # the run's result as `train` returns it; not stored in the file
    best_epoch: int = -1
    best_val_mse: float = math.nan

    def to_state(self) -> ModelState:
        tensors = {
            name: ad.Tensor(arr.astype(np.float64), requires_grad=True)
            for name, arr in self.params.items()
        }
        return ModelState(self.config, tensors)

    @property
    def stats(self) -> NormStats:
        return NormStats(mean=self.norm_mean, std=self.norm_std)


def save_checkpoint(ckpt: Checkpoint, path: str) -> None:
    """Write ckpt in the version-4 layout, its values in model.PARAMETERS
    order; parameters that are not exactly those of ckpt.config raise
    DimensionError (`model.check_parameters`) before anything is written."""
    shapes = check_parameters(ckpt.config, ckpt.params)
    header = {
        "model": asdict(ckpt.config),
        "split": asdict(ckpt.split),
        "norm_mean": list(map(float, ckpt.norm_mean)),
        "norm_std": list(map(float, ckpt.norm_std)),
    }
    raw_header = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(
        [_PREFIX.pack(CKPT_MAGIC, CKPT_VERSION, len(raw_header)), raw_header]
        + [np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes() for name in shapes]
    )
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint; a malformed, truncated or corrupted file raises DataError.

    The layout (version 4) is the magic, a u32 version and a u32 header
    length, the JSON header (model.read_json) with exactly the keys `model`,
    `split`, `norm_mean` and `norm_std`, then the values of every parameter
    in model.PARAMETERS order as little-endian float32, and last a CRC-32 of
    all earlier bytes. The checks run in that order: magic, version (older
    versions are unsupported), header, the file length the header implies,
    the CRC and last each parameter's finiteness. norm_mean and norm_std
    are each a list of `channels` JSON numbers (model.finite_number), and
    norm_std is > 0. The loaded record's best_epoch and best_val_mse are
    their defaults, -1 and NaN. The file is read in full on every call and
    parsed once per distinct content (`data._parse_once`).
    """
    return _parse_once(path, _parse_checkpoint)


def _parse_checkpoint(path: str, raw: bytes) -> Checkpoint:
    """load_checkpoint's parse of the file's bytes."""
    try:
        if raw[:4] != CKPT_MAGIC:
            raise DataError("not a checkpoint file (bad magic)")
        if len(raw) < _PREFIX.size:
            raise DataError(f"truncated file: {len(raw)} bytes")
        _, version, hlen = _PREFIX.unpack_from(raw)
        if version != CKPT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        at = _PREFIX.size + hlen  # where the parameter values begin
        if len(raw) < at:
            raise DataError(f"truncated header: {len(raw) - _PREFIX.size} of {hlen} bytes")
        header = read_json(raw[_PREFIX.size : at], "header")
        if header.keys() != _HEADER_KEYS:
            raise DataError(
                f"header keys: missing {sorted(_HEADER_KEYS - header.keys())}, "
                f"unknown {sorted(header.keys() - _HEADER_KEYS)}"
            )
        config = from_dict(ModelConfig, header["model"], "header model")
        split = from_dict(SplitSpec, header["split"], "header split")
        norm = {}
        for key in ("norm_mean", "norm_std"):
            if (type(header[key]) is not list or len(header[key]) != config.channels
                    or not all(map(finite_number, header[key]))):
                raise DataError(f"header {key} is not {config.channels} finite values")
            norm[key] = np.array(header[key], dtype=np.float64)
        if not (norm["norm_std"] > 0).all():
            raise DataError(
                f"header norm_std must be positive, got {reprlib.repr(header['norm_std'])}")
        # the length check runs before parameter_shapes(config), whose dict
        # grows with config.layers however few bytes the file holds
        size = at + 4 * value_count(config) + 4
        if len(raw) != size:
            raise DataError(f"file is {len(raw)} bytes, its header implies {size}")
        if int.from_bytes(raw[-4:], "little") != zlib.crc32(memoryview(raw)[:-4]):
            raise DataError("checksum mismatch (corrupted file)")
        params = {}
        for name, shape in parameter_shapes(config).items():
            arr = np.frombuffer(raw, "<f4", math.prod(shape), at).reshape(shape).copy()
            if not np.isfinite(arr).all():
                raise DataError(f"parameter {name} has non-finite values")
            params[name] = arr
            at += arr.nbytes
    except (DataError, ConfigError) as e:  # ConfigError: the JSON or a header field
        raise DataError(f"{path}: malformed checkpoint: {e}") from None
    return Checkpoint(config=config, params=params, split=split, **norm)


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
    """Fit the model; returns the best-validation checkpoint and per-epoch log.

    The checkpoint stores `stats`, which normalized the pairs; None stores
    the identity, mean 0 and std 1 per channel.
    """
    if not train_pairs:
        raise DataError("training split yields no windows")
    if not val_pairs:
        raise DataError("validation split yields no windows")
    batch = min(train_cfg.batch_size, len(train_pairs))
    count = batch * model_cfg.lookback * max(model_cfg.ff_dim, model_cfg.dim)
    if count > MAX_ACTIVATION_VALUES:
        raise ConfigError(f"run config implies a largest training activation of {count} values "
                          f"(batch {batch}), more than the {MAX_ACTIVATION_VALUES} allowed")
    X, Y = _stack(train_pairs)
    Xv, Yv = _stack(val_pairs)
    n = len(X)
    rng = np.random.default_rng(train_cfg.seed)
    state = ModelState.init(model_cfg, train_cfg.seed)
    adam = Adam({name: t.shape for name, t in state.params.items()})
    # the smoothing and damping rates, the table's "rate" kind, form the special group
    special = {name for name, _, init in parameter_table(model_cfg) if init == "rate"}
    steps_per_epoch = math.ceil(n / train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch

    log: list[dict] = []
    best_val = math.inf
    if stats is None:
        stats = NormStats(mean=np.zeros(model_cfg.channels), std=np.ones(model_cfg.channels))
    best = Checkpoint(
        config=model_cfg,
        params=_snapshot_f32(state.params),
        norm_mean=stats.mean,
        norm_std=stats.std,
    )
    step = 0
    for epoch in range(train_cfg.epochs):
        perm = rng.permutation(n)
        epoch_losses = []
        lr_main = train_cfg.base_lr
        for b0 in range(0, n, train_cfg.batch_size):
            idx = perm[b0 : b0 + train_cfg.batch_size]
            xb, yb = X[idx], Y[idx]
            state.zero_grad()
            loss = mse_loss(forward(xb, state, rng), yb)
            if not np.isfinite(loss.data):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, batch {b0 // train_cfg.batch_size}"
                )
            loss.backward()
            lr_main, lr_special = lr_at(step, total_steps, train_cfg)
            adam.step(state.params, lambda name: lr_special if name in special else lr_main)
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
