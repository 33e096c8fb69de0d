"""Plain-numpy inference forward of the forecasting network: the model oracle.

Every step takes an independent route from the one `model.forward` runs:

- MH-ESA heads multiply by the explicit `esa.attention_matrix`;
- the level pipeline steps through `esa.level_recurrence`;
- frequency attention is an O(L^2) direct DFT, its bins chosen by a stable
  argsort of the amplitudes and synthesized as cosine pairs;
- the damped growth uses the closed-form geometric sum;
- linear maps, layer norm, sigmoid and the embedding's zero-padded,
  length-preserving convolution are written out as in a textbook.

Nothing here imports `esa.conv1d_fft`, `freq` or `autodiff`, so a fault in
the FFT kernels, the top-k ranking or the engine cannot hide in both routes.
Dropout runs only when `model.forward` is handed an rng, which
`model.forecast` never does, so it is left out.
"""

from __future__ import annotations

import numpy as np

from etsfore.esa import attention_matrix, level_recurrence


def sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def linear(x, w, b=None):
    y = np.einsum("...i,ij->...j", x, w)
    return y if b is None else y + b


def layer_norm(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def embed_conv(x, kernel):
    """out[t] = sum_j x[t + j - k//2] @ kernel[j], with x zero outside 0..L-1."""
    k = kernel.shape[0]
    L = x.shape[-2]
    out = np.zeros(x.shape[:-1] + (kernel.shape[-1],))
    for t in range(L):
        for j in range(k):
            src = t + j - k // 2
            if 0 <= src < L:
                out[..., t, :] += x[..., src, :] @ kernel[j]
    return out


def _angles(bins, j, L):
    """2*pi*(b*j mod L)/L, reduced in integers so large b*j lose no precision."""
    return 2.0 * np.pi * ((bins * j) % L) / L


def frequency_attention(x, k, j):
    """Seasonal pattern of x: (..., L, C) at integer indices j, by direct DFT.

    Takes the k largest-amplitude non-DC bins of each channel (ties toward
    the smaller bin) and sums their cosine pairs at every index in j; the
    Nyquist bin of an even L is its own pair and counts once.
    """
    L = x.shape[-2]
    F = L // 2 + 1
    ang = _angles(np.arange(F)[:, None], np.arange(L)[None, :], L)  # (F, L)
    re = np.cos(ang) @ x
    im = -np.sin(ang) @ x
    amp = np.hypot(re, im)
    bins = 1 + np.argsort(-amp[..., 1:, :], axis=-2, kind="stable")[..., :k, :]
    re_k = np.take_along_axis(re, bins, axis=-2)[..., None, :]  # (..., k, 1, C)
    im_k = np.take_along_axis(im, bins, axis=-2)[..., None, :]
    weight = np.where(2 * bins == L, 1.0, 2.0)[..., None, :]
    ang = _angles(bins[..., None, :], np.asarray(j)[:, None], L)  # (..., k, J, C)
    terms = weight * (re_k * np.cos(ang) - im_k * np.sin(ang))
    return terms.sum(axis=-3) / L


def mh_esa(z, p, prefix, n_heads):
    """Growth latent: smoothed successive differences of the projected input."""
    L, d = z.shape[-2], z.shape[-1]
    d_h = d // n_heads
    zp = linear(z, p[f"{prefix}.w_in"], p[f"{prefix}.b_in"])
    v0_row = np.broadcast_to(p[f"{prefix}.v0"], zp.shape[:-2] + (1, d))
    diffs = zp - np.concatenate([v0_row, zp[..., : L - 1, :]], axis=-2)
    alpha = sigmoid(p[f"{prefix}.alpha_raw"])
    heads = []
    for h in range(n_heads):
        # the differences are smoothed from a zero state: the v0 column drops
        A = attention_matrix(alpha[h], L)[:, 1:]
        heads.append(A @ diffs[..., h * d_h : (h + 1) * d_h])
    return linear(np.concatenate(heads, axis=-1), p[f"{prefix}.w_out"], p[f"{prefix}.b_out"])


def encoder_layer(res_in, p, n, cfg):
    q = f"enc{n}"
    s = frequency_attention(res_in, cfg.top_k, np.arange(cfg.lookback))
    res = res_in - s
    b = mh_esa(res, p, f"{q}.esa", cfg.heads)
    res = layer_norm(res - b, p[f"{q}.ln1.gamma"], p[f"{q}.ln1.beta"])
    hidden = sigmoid(linear(res, p[f"{q}.ff.w1"], p[f"{q}.ff.b1"]))
    ff = linear(hidden, p[f"{q}.ff.w2"], p[f"{q}.ff.b2"])
    res_out = layer_norm(res + ff, p[f"{q}.ln2.gamma"], p[f"{q}.ln2.beta"])
    return res_out, b, s


def damped_growth(b_last, gamma_raw, horizon, d):
    """b_last * sum_{i=1..h} gamma**i for h = 1..horizon, gamma per head."""
    gamma = sigmoid(gamma_raw)
    h = np.arange(1, horizon + 1, dtype=np.float64)[:, None]
    coef = gamma * (1.0 - gamma**h) / (1.0 - gamma)  # (horizon, heads)
    return np.repeat(coef, d // gamma.size, axis=-1) * b_last


def forward(x, state):
    """Inference forward of x: (..., L, m); returns the fields of
    `model.forecast`'s record by name."""
    cfg = state.config
    p = {name: t.data for name, t in state.params.items()}
    x = np.asarray(x, dtype=np.float64)
    L, H = cfg.lookback, cfg.horizon
    res = embed_conv(x, p["embed.kernel"])
    growth_latents, seasonal_latents = [], []
    for n in range(cfg.layers):
        res, b, s = encoder_layer(res, p, n, cfg)
        growth_latents.append(b)
        seasonal_latents.append(s)

    alpha = sigmoid(p["level.alpha_raw"])
    level = x
    for n, (s_lat, b_lat) in enumerate(zip(seasonal_latents, growth_latents)):
        q = f"enc{n}.level"
        s_obs = linear(s_lat, p[f"{q}.w_season"], p[f"{q}.b_season"])
        b_obs = linear(b_lat, p[f"{q}.w_growth"], p[f"{q}.b_growth"])
        level = level_recurrence(level, s_obs, b_obs, alpha, (level - s_obs)[..., 0, :])

    w_head = p["head.w_out"]
    stack_growth, stack_seasonal = [], []
    for n in range(cfg.layers):
        g = damped_growth(growth_latents[n][..., L - 1 : L, :], p[f"dec{n}.gamma_raw"], H, cfg.dim)
        s = frequency_attention(seasonal_latents[n], cfg.top_k, np.arange(L, L + H))
        stack_growth.append(linear(g, w_head))
        stack_seasonal.append(linear(s, w_head))
    level_horizon = np.broadcast_to(level[..., L - 1 : L, :], x.shape[:-2] + (H, cfg.channels))
    growth = np.sum(stack_growth, axis=0)
    seasonal = np.sum(stack_seasonal, axis=0)
    return {
        "level": level_horizon,
        "growth": growth,
        "seasonal": seasonal,
        "total": level_horizon + growth + seasonal,
        "stack_growth": stack_growth,
        "stack_seasonal": stack_seasonal,
        "level_series": level,
    }
