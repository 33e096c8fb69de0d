"""Frequency attention: real DFT, top-K amplitude selection (mean term
excluded), and sinusoidal extrapolation over arbitrary index ranges.

Bin indices are 0-based throughout: bin 0 is the DC/mean term and is never
selectable; bin b has frequency b/L cycles per step. Each selected bin
contributes its conjugate pair as well, which doubles the real cosine term
(except the self-conjugate Nyquist bin of an even-length signal).

Every real FFT of the package, ESA's included, goes through `_rfft` and
`_irfft`: the time axis of a (..., L, C) array becomes the last axis of a
(..., C, n) array of rows, and pocketfft transforms along it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, make_node
from .errors import ConfigError, DimensionError


# Below every float64 key; a NaN amplitude ranks just above a taken bin.
_TAKEN = np.iinfo(np.int64).min
_NAN = _TAKEN + 1


def _rank_key(a: np.ndarray) -> np.ndarray:
    """int64 keys ordered like the floats in a, with NaN below -inf.

    argmax over these keys returns the first of equal maxima, so k rounds of
    argmax give the same bins as a stable descending sort, ties included.
    """
    key = (a + 0.0).view(np.int64)  # + 0.0 folds -0.0 onto +0.0
    # a negative float's bits order backwards: flip all but the sign bit
    np.bitwise_xor(key, np.int64(0x7FFF_FFFF_FFFF_FFFF), out=key, where=key < 0)
    key[np.isnan(a)] = _NAN
    return key


def topk_select(amplitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest amplitudes among bins 1..F-1.

    Ties break toward the smaller bin; NaN ranks last. Works per channel on (..., F, C)
    input; a plain (F,) vector returns a (k,) index array.
    """
    amp = np.asarray(amplitudes, dtype=np.float64)
    vec = amp.ndim == 1
    if vec:
        amp = amp[:, None]
    F = amp.shape[-2]
    if not 0 <= k <= F - 1:
        raise ConfigError(f"top-k count {k} must lie in [0, {F - 1}] for {F} bins")
    bins = np.empty(amp.shape[:-2] + (k, amp.shape[-1]), dtype=np.intp)
    key = _rank_key(amp[..., 1:, :])
    for r in range(k):
        best = key.argmax(axis=-2)[..., None, :]
        bins[..., r : r + 1, :] = 1 + best
        np.put_along_axis(key, best, _TAKEN, axis=-2)
    return bins[..., 0] if vec else bins


def _rfft(x: np.ndarray, n: int) -> np.ndarray:
    """Spectra of the columns of a (..., L, C) array zero-padded to n >= L.

    Returns (..., C, n // 2 + 1): one row per column, bins along the last
    axis. pocketfft pads strided rows slowly, so rows that need padding
    and are not contiguous (C > 1) are first copied into a C-contiguous
    zero-padded (..., C, n) buffer; other rows are transformed as the
    transposed view, which a copy would only slow down.
    """
    rows = x.swapaxes(-1, -2)
    L = rows.shape[-1]
    if n > L and not rows.flags.c_contiguous:
        buf = np.empty(rows.shape[:-1] + (n,))
        buf[..., :L] = rows
        buf[..., L:] = 0.0
        rows = buf
    return np.fft.rfft(rows, n=n, axis=-1)


def _irfft(spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _rfft: (..., C, n) samples, one row per column.

    Callers move the samples they keep back to (..., L, C) through
    .swapaxes(-1, -2) of these rows or of their own result.
    """
    return np.fft.irfft(spec, n=n, axis=-1)


def _project_selected(x: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Orthogonal projection of each channel onto its selected Fourier pairs.

    Zeroes every unselected coefficient (DC included) and inverts; the
    result on 0..L-1 is the periodic seasonal pattern, and the map is a
    symmetric projection, so it serves as its own adjoint in the backward
    pass. x is (..., L, C) and bins topk_select's (..., k, C); the
    (..., L, C) result is a transposed view of _irfft's rows.
    """
    L = x.shape[-2]
    c = _rfft(x, L)
    picks = bins.swapaxes(-1, -2)
    masked = np.zeros_like(c)
    np.put_along_axis(masked, picks, np.take_along_axis(c, picks, axis=-1), axis=-1)
    return _irfft(masked, L).swapaxes(-1, -2)


def fourier_extrapolate(x: Tensor, k: int, j_range: np.ndarray) -> Tensor:
    """Differentiable seasonal pattern of x: (..., L, C) at integer indices j_range.

    Sums the conjugate cosine pairs of the k largest non-DC bins per channel;
    any j is the length-L periodic continuation.
    A full non-DC selection reconstructs the de-meaned input on 0..L-1.
    The bin selection is recomputed from the forward values and held fixed
    under differentiation; gradients flow only through the coefficients,
    for which the map is linear in x.
    """
    x = ad.as_tensor(x)
    if x.ndim < 2:
        raise DimensionError(f"expected (..., L, C) input, got shape {x.shape}")
    L = x.shape[-2]
    j = np.asarray(j_range, dtype=np.intp)
    bins = topk_select(np.abs(_rfft(x.data, L)).swapaxes(-1, -2), k)
    residues = j % L
    # residues repeat once j spans more than L steps, as for a horizon
    # longer than the lookback, which ModelConfig allows
    distinct = np.unique(residues).size == residues.size
    # np.take gathers the view's rows into a C-ordered array
    out = np.take(_project_selected(x.data, bins), residues, axis=-2)
    shape = x.shape

    def vjp(g):
        gathered = np.zeros(shape)
        if distinct:
            gathered[..., residues, :] = g
        else:  # j wraps past L: several outputs share a residue
            np.add.at(gathered, (Ellipsis, residues, slice(None)), g)
        # autodiff copies the adjoint into a C-ordered (..., L, C) array
        return (_project_selected(gathered, bins),)

    return make_node(out, (x,), vjp)
