"""Frequency attention: real DFT, top-K amplitude selection (mean term
excluded), and sinusoidal extrapolation over arbitrary index ranges.

Bin indices are 0-based throughout: bin 0 is the DC/mean term and is never
selectable; bin b has frequency b/L cycles per step. Each selected bin
contributes its conjugate pair as well, which doubles the real cosine term
(except the self-conjugate Nyquist bin of an even-length signal).
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


def _project_selected(x: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Orthogonal projection of each channel onto its selected Fourier pairs.

    Zeroes every unselected coefficient (DC included) and inverts; the
    result on 0..L-1 is the periodic seasonal pattern, and the map is a
    symmetric projection, so it serves as its own adjoint in the backward
    pass.
    """
    L = x.shape[-2]
    c = np.fft.rfft(x, axis=-2)
    masked = np.zeros_like(c)
    np.put_along_axis(masked, bins, np.take_along_axis(c, bins, axis=-2), axis=-2)
    return np.fft.irfft(masked, n=L, axis=-2)


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
    bins = topk_select(np.abs(np.fft.rfft(x.data, axis=-2)), k)
    residues = j % L
    # no residue repeats while j spans at most L steps, as in every model call
    distinct = np.unique(residues).size == residues.size
    out = _project_selected(x.data, bins)[..., residues, :]
    shape = x.shape

    def vjp(g):
        gathered = np.zeros(shape)
        if distinct:
            gathered[..., residues, :] = g
        else:  # j wraps past L: several outputs share a residue
            np.add.at(gathered, (Ellipsis, residues, slice(None)), g)
        return (_project_selected(gathered, bins),)

    return make_node(out, (x,), vjp)
