"""Layout invariance of the FFT kernels.

The kernels copy the time axis of each (..., L, C) input into a contiguous
buffer before transforming, so a strided input must give the same bits as
its C-contiguous copy, in the forward pass and in every adjoint. The
strided inputs are the two the model hands them: a head slice of a wider
(B, L, 32) activation and the time-reversed view that the adjoint of
conv1d_fft_t feeds conv1d_fft. The last test pins the bits themselves:
each transform equals the same transform taken along the strided time
axis, and the weight adjoint sums over the batch and the columns in the
order of a C-ordered (..., L, C) array, the order training has always used.
"""

import numpy as np
import pytest

from etsfore import esa, freq
from etsfore.autodiff import Tensor

B, L, C = 3, 192, 8
VIEWS = {
    "head": lambda rng, length: rng.normal(size=(B, length, 32))[..., 8 : 8 + C],
    "reversed": lambda rng, length: np.flip(rng.normal(size=(B, length, C)), axis=-2),
}
WEIGHTS = {"shared": (L,), "column": (L, 1), "per_column": (L, C)}


def strided(view: str, seed: int, length: int = L) -> np.ndarray:
    return VIEWS[view](np.random.default_rng(seed), length)


def weight(kind: str) -> np.ndarray:
    return np.random.default_rng(1).normal(size=WEIGHTS[kind])


def assert_layout_invariant(kernel, *views):
    assert not any(v.flags.c_contiguous for v in views)
    got, want = kernel(*views), kernel(*(np.ascontiguousarray(v) for v in views))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("kind", WEIGHTS)
def test_conv1d_fft(view, kind):
    w = weight(kind)
    assert_layout_invariant(lambda v: [esa.conv1d_fft(v, w)], strided(view, 2))


@pytest.mark.parametrize("view", VIEWS)
@pytest.mark.parametrize("kind", WEIGHTS)
def test_conv1d_fft_t_adjoints(view, kind):
    w = weight(kind)

    def adjoints(v, g):
        vt, wt = Tensor(v, requires_grad=True), Tensor(w, requires_grad=True)
        esa.conv1d_fft_t(vt, wt).backward(g)
        return vt.grad, wt.grad

    assert_layout_invariant(adjoints, strided(view, 3), strided(view, 4))


@pytest.mark.parametrize("view", VIEWS)
def test_fourier_extrapolate(view):
    j = np.arange(L - 48, L + 48)

    def forward_and_adjoint(x, g):
        xt = Tensor(x, requires_grad=True)
        out = freq.fourier_extrapolate(xt, 2, j)
        out.backward(g)
        return out.data, xt.grad

    assert_layout_invariant(forward_and_adjoint, strided(view, 5), strided(view, 6, len(j)))


def time_axis_conv1d_fft_t(v, w, g):
    """conv1d_fft and its weight adjoint with every transform along axis -2."""
    n = esa._next_fast_len(2 * L - 1)
    fw = np.fft.rfft(w, n=n, axis=0)
    fw = fw[:, None] if w.ndim == 1 else fw
    y = np.fft.irfft(np.fft.rfft(v, n=n, axis=-2) * np.conj(fw), n=n, axis=-2)
    out = np.concatenate([y[..., n - L + 1 :, :], y[..., :1, :]], axis=-2)
    spec = np.fft.rfft(g, n=n, axis=-2) * np.conj(np.fft.rfft(v, n=n, axis=-2))
    gw = np.flip(np.fft.irfft(spec, n=n, axis=-2)[..., :L, :], axis=-2)
    gw = gw.reshape((-1, L, C)).sum(axis=0)
    if w.ndim == 1:
        gw = gw.sum(axis=-1)
    elif w.shape[1] == 1:
        gw = gw.sum(axis=-1, keepdims=True)
    return out, gw


@pytest.mark.parametrize("kind", WEIGHTS)
def test_conv1d_fft_t_bits_equal_the_time_axis_transforms(kind):
    w = weight(kind)
    v, g = np.random.default_rng(7).normal(size=(2, B, L, C))
    vt, wt = Tensor(v, requires_grad=True), Tensor(w, requires_grad=True)
    out = esa.conv1d_fft_t(vt, wt)
    out.backward(g)
    want_out, want_gw = time_axis_conv1d_fft_t(v, w, g)
    assert np.array_equal(out.data, want_out) and np.array_equal(wt.grad, want_gw)
