"""Exponential smoothing attention (ESA) kernels.

Attention weights decay geometrically with relative time lag, independent
of token content. The oracle materializes the L x (L+1) attention matrix
(O(L^2)); the fast path evaluates the same triangular product as an FFT
cross-correlation (O(L log L)). On top of the fast path sit the multi-head
growth extractor and the level-smoothing expansion.

`esa_fast_t` is the one fast path: the model, the benchmark command and
the oracle checks all run it. `attention_matrix`, `esa_naive` and
`level_recurrence` are plain-ndarray oracles; `conv1d_fft` carries the FFT
numerics that `conv1d_fft_t` wraps as a differentiable graph node.

The transforms run through freq's `_rfft`/`_irfft` pair: each column of a
(..., L, C) input becomes one row of a (..., C, n) array, zero-padded to n
(a C-contiguous copy where the columns are strided), every spectrum
product happens in that layout, and the samples kept are written straight
back into a (..., L, C) result.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, make_node
from .errors import DimensionError, DomainError
from .freq import _irfft, _rfft


def _next_fast_len(target: int) -> int:
    """Least n >= target whose prime factors are all <= 11, for target >= 1.

    These are the lengths pocketfft (numpy's FFT) splits into its fast
    radices; the value equals scipy.fft.next_fast_len(target). Beyond
    1000 the next such length is at most 2.3 % past target, so counting
    up (about 10 ms near 2**24) costs far less than the FFT it pads.
    """
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"smoothing parameter must lie in (0, 1), got {alpha}")
    return alpha


def attention_matrix(alpha: float, L: int) -> np.ndarray:
    """Explicit L x (L+1) smoothing-attention matrix.

    Column 0 weights the initial state; columns 1..L form a lower-triangular
    band where row t holds alpha*(1-alpha)**(t-j). Every row sums to 1.
    """
    alpha = _check_alpha(alpha)
    if L < 1:
        raise DimensionError(f"sequence length must be >= 1, got {L}")
    t = np.arange(1, L + 1, dtype=np.float64)[:, None]
    j = np.arange(1, L + 1, dtype=np.float64)[None, :]
    expo = t - j
    body = np.where(expo >= 0.0, alpha * (1.0 - alpha) ** np.maximum(expo, 0.0), 0.0)
    init_col = (1.0 - alpha) ** t
    return np.concatenate([init_col, body], axis=1)


def esa_naive(V: np.ndarray, alpha: float, v0: np.ndarray) -> np.ndarray:
    """Reference smoothing pass via the explicit attention-matrix product."""
    V = np.asarray(V, dtype=np.float64)
    L, d = V.shape[-2], V.shape[-1]
    v0 = np.asarray(v0, dtype=np.float64)
    if v0.shape != (d,):
        raise DimensionError(f"initial state shape {v0.shape} does not match value dim {d}")
    A = attention_matrix(alpha, L)
    v0_row = np.broadcast_to(v0, V.shape[:-2] + (1, d))
    return A @ np.concatenate([v0_row, V], axis=-2)


def conv1d_fft(V: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Causal cross-correlation of each column of V with a length-L weight.

    Equals the product of the lower-triangular Toeplitz matrix whose last
    row is `weight` with each column. weight may be (L,) or (L, 1), shared
    across columns, or (L, C) per column. Each column of V and of weight is
    zero-padded to the next fast FFT length n as one row of a (..., C, n)
    array; the spectra of V are multiplied in place by the conjugate
    spectra of weight and inverted along that last axis. Output step t is
    sample (t - L + 1) mod n of each inverted row, written straight into
    the (..., L, C) result.
    """
    V = np.asarray(V, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    if V.ndim < 2:
        raise DimensionError(f"value matrix must be at least 2-d, got shape {V.shape}")
    L = V.shape[-2]
    if L < 1:
        raise DimensionError(f"sequence length must be >= 1, got {L}")
    if w.shape not in ((L,), (L, 1), (L, V.shape[-1])):
        raise DimensionError(
            f"weight shape {w.shape} does not fit values {V.shape}: "
            f"expected ({L},), ({L}, 1) or ({L}, {V.shape[-1]})"
        )
    n = _next_fast_len(2 * L - 1)
    spec = _rfft(V, n)
    spec *= np.conj(_rfft(w.reshape(L, -1), n))
    rows = _irfft(spec, n)
    out = np.empty(V.shape)
    lanes = out.swapaxes(-1, -2)
    lanes[..., : L - 1] = rows[..., n - L + 1 :]
    lanes[..., L - 1] = rows[..., 0]
    return out


def level_recurrence(
    level_prev: np.ndarray,
    s_obs: np.ndarray,
    b_obs: np.ndarray,
    alpha: np.ndarray,
    init_level: np.ndarray,
) -> np.ndarray:
    """Direct per-step level recurrence; oracle for the fast path.

    e_t = alpha*(level_prev_t - s_t) + (1-alpha)*(e_{t-1} + b_{t-1}),
    seeded with e_0 = init_level and b_0 = 0.
    """
    v = np.asarray(level_prev, dtype=np.float64) - np.asarray(s_obs, dtype=np.float64)
    b = np.asarray(b_obs, dtype=np.float64)
    alpha = np.asarray(alpha, dtype=np.float64)
    L = v.shape[-2]
    out = np.empty_like(v)
    init = np.asarray(init_level, dtype=np.float64)
    if init.ndim == v.ndim:  # tolerate (..., 1, m) seeds
        init = init[..., 0, :]
    prev = np.broadcast_to(init, v.shape[:-2] + (v.shape[-1],)).copy()
    for t in range(L):
        growth = b[..., t - 1, :] if t > 0 else 0.0
        prev = alpha * v[..., t, :] + (1.0 - alpha) * (prev + growth)
        out[..., t, :] = prev
    return out


# ---------------------------------------------------------------------------
# differentiable wrappers


def conv1d_fft_t(V: Tensor, weight: Tensor) -> Tensor:
    """Differentiable conv1d_fft; gradients for V and weight run through FFTs too."""
    V, weight = ad.as_tensor(V), ad.as_tensor(weight)
    v, w = V.data, weight.data
    out = conv1d_fft(v, w)
    L = v.shape[-2]

    def vjp(g):
        # transpose of a causal Toeplitz product = time-reversed product
        gv = np.flip(conv1d_fft(np.flip(g, axis=-2), w), axis=-2)
        n = _next_fast_len(2 * L - 1)
        spec = _rfft(g, n)
        spec *= np.conj(_rfft(v, n))
        # gw[t] = correlation at lag L-1-t, gathered into a C-ordered
        # (..., L, C) array: summed as (..., C, L) rows, the batch and
        # column sums below would add in another order and move the bits
        gw = np.empty(v.shape)
        gw.swapaxes(-1, -2)[...] = _irfft(spec, n)[..., L - 1 :: -1]
        gw = gw.reshape((-1, L, gw.shape[-1])).sum(axis=0)
        if w.ndim == 1:
            gw = gw.sum(axis=-1)
        elif w.shape[1] == 1:
            gw = gw.sum(axis=-1, keepdims=True)
        return gv, gw

    return make_node(out, (V, weight), vjp)


def es_weights_t(alpha: Tensor, L: int) -> tuple[Tensor, Tensor]:
    """Decay and init-state weights as graph nodes; alpha is scalar or (m,)."""
    powers = np.arange(L, dtype=np.float64)
    one_minus = ad.sub(1.0, alpha)
    weight = ad.mul(alpha, ad.pow_outer(one_minus, powers[::-1]))
    init_weight = ad.pow_outer(one_minus, powers + 1.0)
    return weight, init_weight


def esa_fast_t(V: Tensor, alpha: Tensor, v0: Tensor | None) -> Tensor:
    """Differentiable fast smoothing pass; agrees with esa_naive to ~1e-12.

    alpha is a scalar shared by every column of V, or (m,) with one rate
    per column. v0 seeds the smoothing state; v0=None drops that term.
    """
    L = V.shape[-2]
    weight, init_weight = es_weights_t(alpha, L)
    out = conv1d_fft_t(V, weight)
    if v0 is not None:
        if init_weight.ndim == 1:  # scalar alpha: one (L, 1) column for all
            init_weight = ad.reshape(init_weight, (L, 1))
        out = ad.add(out, ad.mul(init_weight, v0))
    return out


def mh_esa(
    z: Tensor,
    alpha_raw: Tensor,
    v0: Tensor,
    w_in: Tensor,
    b_in: Tensor,
    w_out: Tensor,
    b_out: Tensor,
    n_heads: int,
    per_head: bool = False,
) -> Tensor:
    """Multi-head growth extraction from a latent residual.

    Projects z, takes successive time differences (v0 is the phantom
    predecessor of the first step), smooths each head's differences with
    its own decay rate, then mixes heads back with the output projection.
    The smoothing of the differences starts from a zero state: v0 is
    consumed entirely by the differencing.

    By default one correlation smooths all d columns, its (L, d) weight
    carrying head h's decay in head h's columns. per_head=True runs one
    correlation per head on that head's column slice instead; the two agree
    within 1e-12 relative (the per-column rate vector takes numpy's
    vector pow, which differs in the last bits from a per-head scalar).
    Training keeps the per-head form so that its bits stay fixed.
    """
    d = z.shape[-1]
    if d % n_heads != 0:
        raise DimensionError(f"model dim {d} is not divisible by {n_heads} heads")
    L = z.shape[-2]
    d_h = d // n_heads
    zp = ad.linear(z, w_in, b_in)
    v0_row = ad.broadcast_to(ad.reshape(v0, (1, d)), zp.shape[:-2] + (1, d))
    prev = ad.concat([v0_row, zp[..., : L - 1, :]], axis=-2) if L > 1 else v0_row
    diffs = ad.sub(zp, prev)
    alpha = ad.sigmoid(alpha_raw)
    if per_head:
        heads = []
        for h in range(n_heads):
            head = diffs[..., h * d_h : (h + 1) * d_h]
            heads.append(esa_fast_t(head, alpha[h], None))
        mixed = ad.concat(heads, axis=-1)
    else:
        weight = ad.repeat_channels(es_weights_t(alpha, L)[0], d_h)
        mixed = conv1d_fft_t(diffs, weight)
    return ad.linear(mixed, w_out, b_out)


def level_smoothing(
    level_prev: Tensor,
    s_obs: Tensor,
    b_obs: Tensor,
    alpha: Tensor,
    init_level: Tensor,
) -> Tensor:
    """Fast level update in observation space.

    Expands the recurrence e_t = alpha*(level_prev_t - s_t)
    + (1-alpha)*(e_{t-1} + b_{t-1}) into one esa_fast_t pass over the
    de-seasonalized series plus a growth-accumulation correlation. alpha is
    per-channel (m,); init_level seeds e_0.
    """
    level_prev, s_obs, b_obs = map(ad.as_tensor, (level_prev, s_obs, b_obs))
    if level_prev.shape != s_obs.shape or level_prev.shape != b_obs.shape:
        raise DimensionError(
            f"level/seasonal/growth shapes differ: {level_prev.shape}, {s_obs.shape}, {b_obs.shape}"
        )
    alpha = ad.as_tensor(alpha)
    if alpha.shape != (level_prev.shape[-1],):
        raise DimensionError(
            f"per-channel alpha shape {alpha.shape} does not match {level_prev.shape[-1]} channels"
        )
    L = level_prev.shape[-2]
    smoothed = esa_fast_t(ad.sub(level_prev, s_obs), alpha, init_level)
    # growth enters with lag >= 1: same decay profile, current step masked out
    desc = np.arange(L - 1, -1, -1, dtype=np.float64)
    one_minus = ad.sub(1.0, alpha)
    mask = np.ones((L, 1))
    mask[L - 1, 0] = 0.0
    aux_weight = ad.mul(ad.pow_outer(one_minus, desc), mask)
    aux = conv1d_fft_t(b_obs, aux_weight)
    return ad.add(smoothed, aux)
