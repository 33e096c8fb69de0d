"""Tests for DFT, top-K amplitude selection, and sinusoidal extrapolation.

The production path runs through FFTs; oracles here are the O(L^2) direct
transform sum and the explicit per-bin cosine-pair synthesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from etsfore import autodiff as ad
from etsfore import freq
from etsfore.autodiff import Tensor
from etsfore.errors import ConfigError, DimensionError


def dft_direct(x):
    """O(L^2) transform oracle."""
    L = len(x)
    F = L // 2 + 1
    out = np.empty(F, dtype=complex)
    for k in range(F):
        out[k] = sum(x[n] * np.exp(-2j * np.pi * k * n / L) for n in range(L))
    return out


def cosine_synthesis(x_col, bins, j_range):
    """Explicit per-bin synthesis oracle: conjugate pair of cosines per bin,
    1/L normalization, self-conjugate term not doubled."""
    L = len(x_col)
    c = np.fft.rfft(x_col)
    out = np.zeros(len(j_range))
    for b in bins:
        amp, phase = np.abs(c[b]), np.angle(c[b])
        scale = 1.0 if (L % 2 == 0 and b == L // 2) else 2.0
        out += scale / L * amp * np.cos(2 * np.pi * (b / L) * np.asarray(j_range) + phase)
    return out


def pin_selection(monkeypatch, x, k=2):
    """Hold fourier_extrapolate's bin selection at the top k of x: (..., L, C),
    whatever input it is given, so that its map is linear."""
    bins = freq.topk_select(np.abs(np.fft.rfft(x, axis=-2)), k)
    monkeypatch.setattr(freq, "topk_select", lambda amplitudes, k: bins)


class TestDftReal:
    """The real DFT that frequency attention takes, np.fft.rfft, against the direct sum."""

    def test_constant_signal(self):
        np.testing.assert_allclose(np.fft.rfft([1, 1, 1, 1]), [4, 0, 0], atol=1e-12)

    def test_single_tone(self):
        np.testing.assert_allclose(np.fft.rfft([1, 0, -1, 0]), [0, 2, 0], atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        for L in (1, 2, 5, 16, 33, 64):
            x = rng.normal(size=L)
            np.testing.assert_allclose(np.fft.rfft(x), dft_direct(x), atol=1e-10)


def topk_stable_sort(amplitudes, k):
    """Stable descending argsort oracle: NaN last, ties to the smaller bin."""
    amp = np.asarray(amplitudes, dtype=np.float64)
    a = amp[:, None] if amp.ndim == 1 else amp
    bins = 1 + np.argsort(-a[..., 1:, :], axis=-2, kind="stable")[..., :k, :]
    return bins[..., 0] if amp.ndim == 1 else bins


# A small pool forces ties, signed zeros and non-finite values.
AMPLITUDE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def amplitudes_and_k(draw):
    F = draw(st.integers(1, 9))
    if draw(st.booleans()):
        shape = (F,)
    else:
        lead = draw(st.lists(st.integers(1, 3), max_size=2))
        shape = (*lead, F, draw(st.integers(1, 3)))
    amp = draw(hnp.arrays(np.float64, shape, elements=AMPLITUDE))
    return amp, draw(st.integers(0, F - 1))


class TestTopkSelect:
    @settings(max_examples=400, deadline=None)
    @given(amplitudes_and_k())
    def test_matches_stable_sort_oracle(self, case):
        amp, k = case
        kept = amp.copy()
        bins = freq.topk_select(amp, k)
        expect = topk_stable_sort(amp, k)
        assert bins.shape == expect.shape and bins.dtype == expect.dtype
        np.testing.assert_array_equal(bins, expect)
        assert amp.tobytes() == kept.tobytes()

    def test_nan_ranks_below_every_amplitude(self):
        amp = [0.0, np.nan, -np.inf, np.nan, 3.0, -0.0]
        assert list(freq.topk_select(amp, 5)) == [4, 5, 2, 1, 3]

    def test_mean_term_excluded(self):
        assert list(freq.topk_select([9.0, 0.0, 5.0, 3.0], 1)) == [2]

    @pytest.mark.parametrize("L", [8, 16, 192])
    def test_nyquist_bin_is_selectable(self, L):
        # README's differences from ETSformer, (b): for even L the bins
        # 1..F-1 include L/2, so a pure (-1)^t tone selects it
        x = (-1.0) ** np.arange(L)
        assert list(freq.topk_select(np.abs(np.fft.rfft(x)), 1)) == [L // 2]

    def test_ties_break_to_smaller_bin(self):
        assert list(freq.topk_select([2.0, 2.0, 2.0, 2.0, 2.0], 2)) == [1, 2]

    def test_k_zero_is_empty(self):
        assert freq.topk_select([1.0, 2.0, 3.0], 0).size == 0

    def test_k_too_large_rejected(self):
        with pytest.raises(ConfigError):
            freq.topk_select([1.0, 2.0, 3.0], 3)

    def test_per_channel_selection(self):
        amp = np.array([[9.0, 9.0], [1.0, 5.0], [5.0, 1.0]])
        bins = freq.topk_select(amp, 1)
        assert bins.shape == (1, 2)
        assert list(bins[0]) == [2, 1]

    def test_spectrum_selection_fields(self):
        x = np.cos(2 * np.pi * np.arange(16) / 8)
        c = np.fft.rfft(x)
        bins = freq.topk_select(np.abs(c), 1)
        phases = np.angle(c[bins])
        assert list(bins) == [2]
        np.testing.assert_allclose(bins / len(x), [1 / 8])
        np.testing.assert_allclose(np.abs(c[bins]), [8.0], atol=1e-12)
        np.testing.assert_allclose(phases, [0.0], atol=1e-12)
        assert np.all(phases > -np.pi) and np.all(phases <= np.pi)


class TestFourierExtrapolate:
    def test_constant_input_gives_zero(self):
        x = np.full((20, 3), 7.25)
        out = freq.fourier_extrapolate(x, 3, np.arange(20)).data
        np.testing.assert_array_equal(out, np.zeros((20, 3)))

    def test_pure_tone_reconstruction_and_extrapolation(self):
        j = np.arange(16)
        x = np.cos(2 * np.pi * j / 8)[:, None]
        out = freq.fourier_extrapolate(x, 1, np.arange(32)).data
        np.testing.assert_allclose(out[:, 0], np.cos(2 * np.pi * np.arange(32) / 8), atol=1e-9)

    def test_full_selection_reconstructs_demeaned_input_odd_length(self):
        rng = np.random.default_rng(2)
        L = 17
        x = rng.normal(size=(L, 2))
        out = freq.fourier_extrapolate(x, L // 2, np.arange(L)).data
        np.testing.assert_allclose(out, x - x.mean(axis=0), atol=1e-9)

    def test_full_selection_even_length_handles_self_conjugate_bin(self):
        rng = np.random.default_rng(3)
        L = 16
        x = rng.normal(size=(L, 1))
        out = freq.fourier_extrapolate(x, L // 2, np.arange(L)).data
        np.testing.assert_allclose(out, x - x.mean(axis=0), atol=1e-9)

    def test_matches_cosine_synthesis_oracle(self):
        rng = np.random.default_rng(4)
        for L in (8, 15, 24):
            x = rng.normal(size=(L, 2))
            j = np.arange(L, L + 10)
            out = freq.fourier_extrapolate(x, 2, j).data
            c = np.fft.rfft(x, axis=0)
            for col in range(2):
                bins = freq.topk_select(np.abs(c[:, col]), 2)
                np.testing.assert_allclose(out[:, col], cosine_synthesis(x[:, col], bins, j), atol=1e-9)

    def test_output_is_real_and_finite(self):
        rng = np.random.default_rng(5)
        out = freq.fourier_extrapolate(rng.normal(size=(12, 4)), 3, np.arange(30)).data
        assert np.isrealobj(out) and np.isfinite(out).all()

    def test_zero_mean_over_lookback(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(48, 3))
        out = freq.fourier_extrapolate(x, 5, np.arange(48)).data
        assert np.abs(out.mean(axis=0)).max() < 1e-9 * np.abs(x).max()

    def test_periodic_consistency(self):
        rng = np.random.default_rng(7)
        L = 24
        x = rng.normal(size=(L, 1))
        near = freq.fourier_extrapolate(x, 1, np.arange(0, 8)).data
        far = freq.fourier_extrapolate(x, 1, np.arange(L, L + 8)).data
        np.testing.assert_allclose(near, far, atol=1e-9)

    def test_linearity_with_pinned_selection(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(20, 2))
        pin_selection(monkeypatch, x)
        j = np.arange(20, 30)
        a = freq.fourier_extrapolate(3.5 * x, 2, j).data
        b = 3.5 * freq.fourier_extrapolate(x, 2, j).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_k_zero_gives_zeros(self):
        out = freq.fourier_extrapolate(np.ones((10, 2)), 0, np.arange(10)).data
        np.testing.assert_array_equal(out, np.zeros((10, 2)))

    def test_rejects_1d_input(self):
        with pytest.raises(DimensionError):
            freq.fourier_extrapolate(np.ones(10), 1, np.arange(10))

    def test_k_bound_enforced(self):
        with pytest.raises(ConfigError):
            freq.fourier_extrapolate(np.ones((10, 1)), 6, np.arange(10))

    def test_gradient_matches_finite_differences_with_fixed_selection(self, monkeypatch):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 14, 3)), requires_grad=True)
        pin_selection(monkeypatch, x.data)
        j = np.arange(14, 14 + 6)

        def f(t):
            s = freq.fourier_extrapolate(t, 2, j)
            return ad.tsum(ad.mul(s, s))

        assert ad.grad_check(f, x, eps=1e-5) < 1e-4

    def test_gradient_with_wrapping_indices(self, monkeypatch):
        # j spans more than L, so several outputs share a residue and their
        # adjoints must add up
        rng = np.random.default_rng(11)
        L = 7
        x = Tensor(rng.normal(size=(2, L, 2)), requires_grad=True)
        pin_selection(monkeypatch, x.data)
        j = np.arange(-3, 2 * L + 2)
        w = rng.normal(size=(2, len(j), 2))

        def f(t):
            s = freq.fourier_extrapolate(t, 2, j)
            return ad.tsum(ad.mul(ad.mul(s, s), w))

        assert ad.grad_check(f, x, eps=1e-5) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_edge_selections_match_oracles(self, data):
        """K = 0 gives zeros; K = L//2 (with the Nyquist bin on even L) keeps every
        non-DC bin, so it reconstructs the de-meaned input and continues it as
        the cosine synthesis does."""
        L = data.draw(st.integers(2, 24))
        C = data.draw(st.integers(1, 3))
        x = data.draw(hnp.arrays(np.float64, (L, C), elements=st.floats(-1e3, 1e3)))
        j0 = data.draw(st.integers(-2 * L, 2 * L))
        j = np.arange(j0, j0 + data.draw(st.integers(1, L)))
        xt = Tensor(x, requires_grad=True)
        zero = freq.fourier_extrapolate(xt, 0, j)
        ad.tsum(zero).backward()
        assert zero.data.shape == (len(j), C) and not zero.data.any()
        assert not xt.grad.any()
        full = freq.fourier_extrapolate(x, L // 2, j).data
        bins = np.arange(1, L // 2 + 1)
        scale = np.abs(x).max() + 1.0
        for col in range(C):
            np.testing.assert_allclose(
                full[:, col], cosine_synthesis(x[:, col], bins, j), atol=1e-9 * scale
            )
        demeaned = freq.fourier_extrapolate(x, L // 2, np.arange(L)).data
        np.testing.assert_allclose(demeaned, x - x.mean(axis=0), atol=1e-9 * scale)

    def test_gradient_k_zero(self):
        x = Tensor(np.random.default_rng(10).normal(size=(8, 1)), requires_grad=True)
        out = freq.fourier_extrapolate(x, 0, np.arange(8))
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, np.zeros((8, 1)))
