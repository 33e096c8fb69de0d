"""The forecasting network: embedding, cascaded seasonal/growth extraction,
level smoothing, and horizon decoding into level + damped growth + seasonal
components whose sum is the forecast.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from itertools import groupby
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from . import esa, freq
from .autodiff import Tensor
from .errors import ConfigError, DataError, DimensionError


@dataclass
class ModelConfig:
    lookback: int
    horizon: int
    channels: int = 1
    dim: int = 32
    ff_dim: int = 128
    layers: int = 2
    heads: int = 4
    top_k: int = 2
    dropout: float = 0.2
    kernel_size: int = 3

    def __post_init__(self):
        for name in ("lookback", "horizon", "channels", "dim", "ff_dim", "layers", "heads",
                     "kernel_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"model config: {name} must be positive, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"model dim {self.dim} must be divisible by heads {self.heads}")
        if not 0 <= self.top_k <= self.lookback // 2:
            raise ConfigError(
                f"top_k {self.top_k} must lie in [0, {self.lookback // 2}] for lookback {self.lookback}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.kernel_size % 2 == 0:
            raise ConfigError(f"model config: kernel_size must be odd, got {self.kernel_size}")
        if (count := value_count(self)) > MAX_PARAMETER_VALUES:
            raise ConfigError(f"model config implies {count} parameter values, more than "
                              f"the {MAX_PARAMETER_VALUES} allowed")
        # a wider kernel's outer taps only ever read the embedding's zero padding
        if self.kernel_size > 2 * self.lookback - 1:
            raise ConfigError(f"model config: kernel_size must be at most 2 x lookback - 1 = "
                              f"{2 * self.lookback - 1}, got {self.kernel_size}")


def from_dict(cls, d, where: str):
    """Build the config dataclass cls from a JSON object.

    The fields of cls fix the allowed keys, the required ones (those without
    a default) and the value types; a float field also takes a JSON integer
    but no NaN or infinity. A mismatch raises ConfigError naming `where` and
    the key.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {d!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = [
        name for name, f in known.items()
        if name not in d and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{where}: missing required keys {missing}")
    hints = get_type_hints(cls)
    for key, value in d.items():
        allowed = (float, int) if hints[key] is float else (hints[key],)
        # exact types, so that JSON true/false (a bool, an int subclass) fills no int field
        if type(value) not in allowed:
            raise ConfigError(f"{where}.{key}: expected {known[key].type}, got {value!r}")
        # json reads NaN, Infinity and 1e999; no field means anything by them
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{where}.{key}: expected a finite number, got {value!r}")
    return cls(**d)


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of every JSON read that from_dict checks, a run
    config or a checkpoint header: the object as a dict, or ValueError
    naming the first key it repeats, at any depth."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# Every learnable parameter once, in checkpoint and init-draw order: name,
# shape as ModelConfig fields, init kind. A run of entries named with "{n}"
# repeats as one block per layer n. "normal" draws N(0, 1/fan_in), fan_in the
# product of all but the last axis; "rate" is zero-init in the special group.
PARAMETERS = (
    ("embed.kernel", ("kernel_size", "channels", "dim"), "normal"),
    ("enc{n}.esa.w_in", ("dim", "dim"), "normal"),
    ("enc{n}.esa.b_in", ("dim",), "zeros"),
    ("enc{n}.esa.w_out", ("dim", "dim"), "normal"),
    ("enc{n}.esa.b_out", ("dim",), "zeros"),
    ("enc{n}.esa.alpha_raw", ("heads",), "rate"),
    ("enc{n}.esa.v0", ("dim",), "zeros"),
    ("enc{n}.ff.w1", ("dim", "ff_dim"), "normal"),
    ("enc{n}.ff.b1", ("ff_dim",), "zeros"),
    ("enc{n}.ff.w2", ("ff_dim", "dim"), "normal"),
    ("enc{n}.ff.b2", ("dim",), "zeros"),
    ("enc{n}.ln1.gamma", ("dim",), "ones"),
    ("enc{n}.ln1.beta", ("dim",), "zeros"),
    ("enc{n}.ln2.gamma", ("dim",), "ones"),
    ("enc{n}.ln2.beta", ("dim",), "zeros"),
    ("enc{n}.level.w_season", ("dim", "channels"), "normal"),
    ("enc{n}.level.b_season", ("channels",), "zeros"),
    ("enc{n}.level.w_growth", ("dim", "channels"), "normal"),
    ("enc{n}.level.b_growth", ("channels",), "zeros"),
    ("dec{n}.gamma_raw", ("heads",), "rate"),
    ("level.alpha_raw", ("channels",), "rate"),
    # bias-free so the per-component projection sums exactly to the total
    ("head.w_out", ("dim", "channels"), "normal"),
)
MAX_PARAMETER_VALUES = 2**24  # a ModelConfig implying more is a ConfigError


def parameter_table(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) of every parameter of cfg, in PARAMETERS order."""
    table, size = [], vars(cfg)
    for per_layer, run in groupby(PARAMETERS, lambda entry: "{n}" in entry[0]):
        rows = [(name, tuple(map(size.__getitem__, dims)), init) for name, dims, init in run]
        table += [(name.replace("{n}", n), shape, init) for n in map(str, range(cfg.layers))
                  for name, shape, init in rows] if per_layer else rows
    return table


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every learnable parameter, in PARAMETERS order."""
    return {name: shape for name, shape, _ in parameter_table(cfg)}


def value_count(cfg: ModelConfig) -> int:
    """Number of parameter values cfg implies, without listing any layer's."""
    return sum(math.prod(map(vars(cfg).get, dims)) * (cfg.layers if "{n}" in name else 1)
               for name, dims, _ in PARAMETERS)


def check_parameters(cfg: ModelConfig, params: dict) -> dict[str, tuple[int, ...]]:
    """parameter_shapes(cfg), once params (arrays or Tensors by name) has exactly
    those names and shapes; else DimensionError names the first mismatch in sorted order."""
    shapes = parameter_shapes(cfg)
    got = {name: t.shape for name, t in params.items()}
    if got != shapes:
        name = min(n for n in got.keys() | shapes.keys() if got.get(n) != shapes.get(n))
        raise DimensionError(f"parameter {name} has shape {got.get(name)}, "
                             f"the model config wants {shapes.get(name)}")
    return shapes


class ModelState:
    """Named parameter tensors plus the architecture they belong to."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = {name: params[name] for name in check_parameters(config, params)}

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0) -> "ModelState":
        """Each parameter at its init kind, the normal ones drawn in table order
        from one rng."""
        rng = np.random.default_rng(seed)
        params: dict[str, Tensor] = {}
        for name, shape, init in parameter_table(config):
            if init == "normal":
                data = rng.normal(0.0, 1.0 / np.sqrt(math.prod(shape[:-1])), size=shape)
            else:
                data = np.ones(shape) if init == "ones" else np.zeros(shape)
            params[name] = Tensor(data, requires_grad=True)
        return cls(config, params)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()


@dataclass
class DecomposedForecast:
    """total == level + growth + seasonal over the horizon, (..., H, m);
    growth and seasonal sum the per-layer stacks; level_series is the
    smoothed lookback, (..., L, m). `forward` fills it with Tensors,
    `forecast` with ndarrays."""

    level: Tensor | np.ndarray
    growth: Tensor | np.ndarray
    seasonal: Tensor | np.ndarray
    total: Tensor | np.ndarray
    level_series: Tensor | np.ndarray
    stack_growth: list
    stack_seasonal: list


def input_embed(x: Tensor, state: ModelState, rng=None) -> Tensor:
    """Map the lookback window to latent space with a temporal convolution."""
    x = ad.as_tensor(x)
    if not np.isfinite(x.data).all():
        raise DataError("input window contains non-finite values")
    z = ad.conv1d_temporal(x, state["embed.kernel"])
    return ad.dropout(z, state.config.dropout, rng)


def encoder_layer(res_in: Tensor, state: ModelState, n: int, rng=None):
    """One extraction stage: seasonal removal, then growth extraction.

    Returns (res, growth_latent, seasonal_latent), each (..., L, d): res is
    res_in less its seasonal latent, and `feed_forward(res, growth_latent,
    ...)` turns the pair into the next layer's input.
    """
    cfg = state.config
    p = f"enc{n}"
    lookback_idx = np.arange(cfg.lookback)
    s = freq.fourier_extrapolate(res_in, cfg.top_k, lookback_idx)
    s = ad.dropout(s, cfg.dropout, rng)
    res = ad.sub(res_in, s)
    b = esa.mh_esa(
        res,
        state[f"{p}.esa.alpha_raw"],
        state[f"{p}.esa.v0"],
        state[f"{p}.esa.w_in"],
        state[f"{p}.esa.b_in"],
        state[f"{p}.esa.w_out"],
        state[f"{p}.esa.b_out"],
        cfg.heads,
    )
    b = ad.dropout(b, cfg.dropout, rng)
    return res, b, s


def feed_forward(res: Tensor, b: Tensor, state: ModelState, n: int, rng=None) -> Tensor:
    """Layer n's residual output: ln2(r + FF(r)) with r = ln1(res - b)."""
    cfg = state.config
    p = f"enc{n}"
    res = ad.layer_norm(ad.sub(res, b), state[f"{p}.ln1.gamma"], state[f"{p}.ln1.beta"])
    hidden = ad.sigmoid(ad.linear(res, state[f"{p}.ff.w1"], state[f"{p}.ff.b1"]))
    hidden = ad.dropout(hidden, cfg.dropout, rng)
    ff = ad.linear(hidden, state[f"{p}.ff.w2"], state[f"{p}.ff.b2"])
    return ad.layer_norm(ad.add(res, ff), state[f"{p}.ln2.gamma"], state[f"{p}.ln2.beta"])


def level_pipeline(
    x: Tensor, seasonal_latents: list[Tensor], growth_latents: list[Tensor], state: ModelState
) -> Tensor:
    """Iterate the fast level update across layers, starting from the raw window."""
    alpha = ad.sigmoid(state["level.alpha_raw"])
    level = ad.as_tensor(x)
    for n, (s_lat, b_lat) in enumerate(zip(seasonal_latents, growth_latents)):
        p = f"enc{n}"
        s_obs = ad.linear(s_lat, state[f"{p}.level.w_season"], state[f"{p}.level.b_season"])
        b_obs = ad.linear(b_lat, state[f"{p}.level.w_growth"], state[f"{p}.level.b_growth"])
        init = ad.sub(level, s_obs)[..., 0:1, :]
        level = esa.level_smoothing(level, s_obs, b_obs, alpha, init)
    return level


def _growth_damping_t(
    b_last: Tensor, horizon: int, gamma_raw: Tensor, n_heads: int, d: int, p: float, rng,
) -> Tensor:
    gamma = ad.sigmoid(gamma_raw)
    powers = ad.pow_outer(gamma, np.arange(1, horizon + 1, dtype=np.float64))
    coef = ad.repeat_channels(ad.cumsum(powers, axis=0), d // n_heads)
    coef = ad.dropout(coef, p, rng)
    return ad.mul(coef, b_last)


def forward(x, state: ModelState, rng=None) -> DecomposedForecast:
    """Full forward pass of x: (..., L, m) normalized observations.

    Dropout runs exactly when an rng is passed, as in training.
    """
    cfg = state.config
    x = ad.as_tensor(x)
    if x.ndim < 2 or x.shape[-2] != cfg.lookback or x.shape[-1] != cfg.channels:
        raise DataError(
            f"input window shape {x.shape} does not match (lookback, channels) "
            f"= ({cfg.lookback}, {cfg.channels})"
        )
    z = input_embed(x, state, rng)
    seasonal_latents, growth_latents = [], []
    res = z
    for n in range(cfg.layers):
        res, b, s = encoder_layer(res, state, n, rng)
        growth_latents.append(b)
        seasonal_latents.append(s)
        # The last layer's residual output reaches no forecast, so inference
        # skips its feed-forward. Training still runs it: its hidden dropout
        # draw comes before the decoder's damping masks in the rng stream,
        # so dropping it would change the bits of every seeded training run.
        if n < cfg.layers - 1 or rng is not None:
            res = feed_forward(res, b, state, n, rng)

    level = level_pipeline(x, seasonal_latents, growth_latents, state)
    e_last = level[..., cfg.lookback - 1 : cfg.lookback, :]
    level_horizon = ad.broadcast_to(e_last, x.shape[:-2] + (cfg.horizon, cfg.channels))

    horizon_idx = np.arange(cfg.lookback, cfg.lookback + cfg.horizon)
    w_head = state["head.w_out"]
    stack_growth, stack_seasonal = [], []
    for n in range(cfg.layers):
        b_last = growth_latents[n][..., cfg.lookback - 1 : cfg.lookback, :]
        g_hor = _growth_damping_t(
            b_last, cfg.horizon, state[f"dec{n}.gamma_raw"], cfg.heads, cfg.dim,
            cfg.dropout, rng,
        )
        s_hor = freq.fourier_extrapolate(seasonal_latents[n], cfg.top_k, horizon_idx)
        stack_growth.append(ad.matmul(g_hor, w_head))
        stack_seasonal.append(ad.matmul(s_hor, w_head))

    growth_horizon = stack_growth[0]
    seasonal_horizon = stack_seasonal[0]
    for n in range(1, cfg.layers):
        growth_horizon = ad.add(growth_horizon, stack_growth[n])
        seasonal_horizon = ad.add(seasonal_horizon, stack_seasonal[n])
    total = ad.add(ad.add(level_horizon, growth_horizon), seasonal_horizon)
    return DecomposedForecast(
        level=level_horizon,
        growth=growth_horizon,
        seasonal=seasonal_horizon,
        total=total,
        level_series=level,
        stack_growth=stack_growth,
        stack_seasonal=stack_seasonal,
    )


# Windows per inference block are capped so that a block's largest
# activation, the (L, ff_dim) feed-forward hidden of each window (run by
# every layer but the last), holds at most this many float64 words (2 MiB, a per-core L2 cache). Every window's
# forward is independent of the others, so the split changes no bit of any
# output; only the temporaries stay cache-sized.
_BLOCK_WORDS = 1 << 18


def forecast(x, state: ModelState) -> DecomposedForecast:
    """Inference: the whole decomposed forecast of one (L, m) window or a batch.

    x is one (L, m) window or a batch (..., L, m); every field of the
    returned record is an observation-space ndarray with x's leading axes.

    A batch of more than max(1, _BLOCK_WORDS // (L * max(ff_dim, dim)))
    windows is flattened and run through `forward` that many windows at a
    time, under one no_grad, and each output is concatenated in order. The
    result is bit-identical to one forward over the whole batch, and each
    window's to forecasting it alone. A shape that does not end in (L, m)
    goes to `forward` whole, which raises DataError naming it; a non-finite
    window raises DataError from the block that holds it.
    """
    cfg = state.config
    x = ad.as_tensor(x).data
    per_block = max(1, _BLOCK_WORDS // (cfg.lookback * max(cfg.ff_dim, cfg.dim)))
    n = math.prod(x.shape[:-2])
    if x.shape[-2:] != (cfg.lookback, cfg.channels) or n <= per_block:
        blocks = [x]  # one window, a batch within one block, or a shape forward rejects
    else:
        flat = x.reshape((n,) + x.shape[-2:])
        blocks = [flat[i : i + per_block] for i in range(0, n, per_block)]
    outs = []
    with ad.no_grad():
        for block in blocks:
            out = forward(block, state)
            outs.append([t.data for t in (
                out.level, out.growth, out.seasonal, out.total,
                out.level_series, *out.stack_growth, *out.stack_seasonal,
            )])
    if len(outs) == 1:
        cols = outs[0]
    else:
        cols = [np.concatenate(col).reshape(x.shape[:-2] + col[0].shape[1:]) for col in zip(*outs)]
    level, growth, seasonal, total, level_series, *stacks = cols
    return DecomposedForecast(
        level, growth, seasonal, total, level_series, stacks[: cfg.layers], stacks[cfg.layers :]
    )


def mse_loss(out: DecomposedForecast, target) -> Tensor:
    target = ad.as_tensor(target)
    if target.shape != out.total.shape:
        raise DimensionError(
            f"target shape {target.shape} does not match forecast {out.total.shape}"
        )
    diff = ad.sub(out.total, target)
    return ad.tmean(ad.mul(diff, diff))
