"""Tests for the exponential smoothing attention kernels.

The fast FFT path is always checked against an independent route: the
explicit attention-matrix product, a dense triangular multiply, or the
step-by-step recurrence.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from etsfore import autodiff as ad
from etsfore import esa
from etsfore.autodiff import Tensor
from etsfore.errors import DimensionError, DomainError


def triangular_multiply(V, weight):
    """O(L^2) oracle for conv1d_fft: dense lower-triangular Toeplitz product."""
    L = V.shape[0]
    W = np.zeros((L, L))
    for t in range(L):
        for j in range(t + 1):
            W[t, j] = weight[L - 1 - (t - j)]
    return W @ V


class TestEsWeights:
    def test_direct_arithmetic(self):
        w, iw = (t.data for t in esa.es_weights_t(0.5, 3))
        np.testing.assert_allclose(w, [0.125, 0.25, 0.5])
        np.testing.assert_allclose(iw, [0.5, 0.25, 0.125])

    def test_limit_all_weight_on_newest(self):
        w = esa.es_weights_t(1.0 - 1e-12, 5)[0].data
        np.testing.assert_allclose(w, [0, 0, 0, 0, 1], atol=1e-11)

    def test_geometric_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            alpha = rng.uniform(0.01, 0.99)
            L = int(rng.integers(1, 100))
            w, iw = (t.data for t in esa.es_weights_t(alpha, L))
            assert abs(w.sum() + iw[L - 1] - 1.0) < 1e-12


class TestAttentionMatrix:
    def test_domain(self):
        with pytest.raises(DomainError):
            esa.attention_matrix(0.0, 4)
        with pytest.raises(DomainError):
            esa.attention_matrix(1.0, 4)
        with pytest.raises(DimensionError):
            esa.attention_matrix(0.5, 0)

    def test_two_step_example(self):
        A = esa.attention_matrix(0.5, 2)
        np.testing.assert_allclose(A, [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            A = esa.attention_matrix(rng.uniform(0.05, 0.95), int(rng.integers(1, 65)))
            np.testing.assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)

    def test_recency_monotonicity(self):
        A = esa.attention_matrix(0.3, 16)
        for t in range(16):
            row = A[t, 1 : t + 2]  # nonzero band of row t
            assert np.all(np.diff(row) > 0)

    def test_right_shift_structure(self):
        alpha = 0.37
        A = esa.attention_matrix(alpha, 12)
        for t in range(1, 12):
            # body shifts right by one; vacated entry decays by (1-alpha)
            np.testing.assert_allclose(A[t, 2:], A[t - 1, 1:-1], atol=1e-15)
            np.testing.assert_allclose(A[t, 1], (1 - alpha) * A[t - 1, 1], atol=1e-15)
            assert A[t, t + 1] == pytest.approx(alpha)


class TestEsaNaive:
    def test_alpha_near_one_passes_values_through(self):
        rng = np.random.default_rng(2)
        V = rng.normal(size=(20, 3))
        np.testing.assert_allclose(esa.esa_naive(V, 1 - 1e-12, rng.normal(size=3)), V, atol=1e-9)

    def test_two_step_recurrence_by_hand(self):
        out = esa.esa_naive(np.array([[1.0], [2.0]]), 0.5, np.zeros(1))
        np.testing.assert_allclose(out, [[0.5], [1.25]])

    def test_zero_values_leave_decaying_initial_state(self):
        alpha = 0.3
        v0 = np.array([2.0, -1.0])
        out = esa.esa_naive(np.zeros((6, 2)), alpha, v0)
        expect = (1 - alpha) ** np.arange(1, 7)[:, None] * v0
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            esa.esa_naive(np.zeros((4, 3)), 0.5, np.zeros(2))


class TestConv1dFft:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        V = rng.normal(size=(10, 4))
        w = np.zeros(10)
        w[-1] = 1.0
        np.testing.assert_allclose(esa.conv1d_fft(V, w), V, atol=1e-12)

    def test_length_one(self):
        V = np.array([[3.0, -2.0]])
        np.testing.assert_allclose(esa.conv1d_fft(V, np.array([0.7])), 0.7 * V)

    def test_matches_triangular_multiply(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            L = int(rng.integers(1, 257))
            d = int(rng.integers(1, 9))
            V = rng.normal(size=(L, d))
            w = rng.normal(size=L)
            np.testing.assert_allclose(
                esa.conv1d_fft(V, w), triangular_multiply(V, w), atol=1e-9
            )

    def test_per_column_weights(self):
        rng = np.random.default_rng(5)
        V = rng.normal(size=(12, 3))
        w = rng.normal(size=(12, 3))
        out = esa.conv1d_fft(V, w)
        for c in range(3):
            np.testing.assert_allclose(
                out[:, c], triangular_multiply(V[:, c : c + 1], w[:, c])[:, 0], atol=1e-10
            )

    def test_weight_length_checked(self):
        # only (L,), (L, 1) and (L, C) weights fit (L, C) values
        for shape in ((3,), (), (4, 2, 1), (4, 3), (1, 4)):
            with pytest.raises(DimensionError, match=re.escape(f"weight shape {shape} does not fit values (4, 2)")):
                esa.conv1d_fft(np.zeros((4, 2)), np.zeros(shape))

    def test_empty_sequence_is_dimension_error(self):
        with pytest.raises(DimensionError, match="sequence length must be >= 1"):
            esa.conv1d_fft(np.zeros((0, 1)), np.zeros(0))

    def test_desk_lookback_pads_to_384(self, monkeypatch):
        lengths = []
        rfft = np.fft.rfft

        def spy(a, n=None, axis=-1):
            lengths.append(n)
            return rfft(a, n=n, axis=axis)

        monkeypatch.setattr(np.fft, "rfft", spy)
        esa.conv1d_fft(np.ones((192, 2)), np.ones(192))
        assert lengths == [384, 384]


class TestNextFastLen:
    def test_equals_scipy_next_fast_len(self):
        # scipy is a test dependency only: it is the oracle here
        from scipy.fft import next_fast_len

        targets = list(range(1, 20_001))
        targets += np.random.default_rng(25).integers(20_001, 2**26, size=30).tolist()
        targets += [2**24 - 1, 2**24, 2**24 + 1, 2**26]
        assert [esa._next_fast_len(t) for t in targets] == [next_fast_len(t) for t in targets]
        assert esa._next_fast_len(16_777_217) == 16_796_160


FINITE = st.floats(-1e3, 1e3, allow_nan=False)


class TestEsaFast:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_length_one_matches_naive(self, data):
        lead = data.draw(st.lists(st.integers(1, 3), max_size=2))
        d = data.draw(st.integers(1, 6))
        V = data.draw(hnp.arrays(np.float64, (*lead, 1, d), elements=FINITE))
        v0 = data.draw(hnp.arrays(np.float64, (d,), elements=FINITE))
        alpha = data.draw(st.floats(0.01, 0.99))
        with ad.no_grad():
            fast = esa.esa_fast_t(Tensor(V), alpha, Tensor(v0)).data
        naive = esa.esa_naive(V, alpha, v0)
        assert fast.shape == naive.shape == V.shape
        np.testing.assert_allclose(fast, naive, rtol=1e-12, atol=1e-9)

    def test_agrees_with_naive_across_lengths(self):
        rng = np.random.default_rng(6)
        for L in (1, 2, 3, 7, 64, 255, 256):
            V = rng.normal(size=(L, 5))
            alpha, v0 = rng.uniform(0.05, 0.95), rng.normal(size=5)
            with ad.no_grad():
                fast = esa.esa_fast_t(Tensor(V), alpha, Tensor(v0)).data
            diff = np.abs(fast - esa.esa_naive(V, alpha, v0)).max()
            assert diff < 1e-9, f"L={L}: {diff}"

    def test_two_step_example_matches_naive(self):
        with ad.no_grad():
            out = esa.esa_fast_t(Tensor([[1.0], [2.0]]), 0.5, Tensor(np.zeros(1))).data
        np.testing.assert_allclose(out, [[0.5], [1.25]])

    def test_randomized_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            L = int(rng.integers(1, 513))
            d = int(rng.integers(1, 17))
            V = rng.normal(size=(L, d))
            alpha, v0 = rng.uniform(0.02, 0.98), rng.normal(size=d)
            with ad.no_grad():
                fast = esa.esa_fast_t(Tensor(V), alpha, Tensor(v0)).data
            diff = np.abs(fast - esa.esa_naive(V, alpha, v0)).max()
            assert diff < 1e-9

    def test_per_channel_alpha_matches_naive_per_channel(self):
        # the level pipeline's form: alpha (m,) and v0 (m,), one rate per column
        rng = np.random.default_rng(20)
        for lead in ((), (3,), (2, 2)):
            for L in (1, 2, 17, 64):
                m = int(rng.integers(1, 6))
                V = rng.normal(size=(*lead, L, m))
                alpha, v0 = rng.uniform(0.05, 0.95, size=m), rng.normal(size=m)
                with ad.no_grad():
                    fast = esa.esa_fast_t(Tensor(V), Tensor(alpha), Tensor(v0)).data
                assert fast.shape == V.shape
                for c in range(m):
                    naive = esa.esa_naive(V[..., c : c + 1], alpha[c], v0[c : c + 1])
                    np.testing.assert_allclose(fast[..., c : c + 1], naive, rtol=1e-12, atol=1e-9)

    def test_fast_kernel_scales_quasilinearly_on_long_inputs(self):
        # 4x the length should cost nowhere near 16x (machine bound lives in
        # tests/acceptance_baseline.json; the O(L^2) half runs there too)
        import json
        import time
        from pathlib import Path

        bound = json.loads(
            (Path(__file__).parent / "acceptance_baseline.json").read_text()
        )["bench"]["fast_ratio_max"]
        rng = np.random.default_rng(8)
        times = {}
        for L in (2048, 8192):
            V, v0 = Tensor(rng.normal(size=(L, 4))), Tensor(np.zeros(4))
            with ad.no_grad():
                esa.esa_fast_t(V, 0.3, v0)  # warm caches
                best = np.inf
                for _ in range(10):
                    t0 = time.perf_counter()
                    esa.esa_fast_t(V, 0.3, v0)
                    best = min(best, time.perf_counter() - t0)
            times[L] = best
        assert times[8192] / times[2048] < bound, times


class TestMultiHeadEsa:
    def _params(self, d, n_h, seed):
        rng = np.random.default_rng(seed)
        return dict(
            alpha_raw=Tensor(rng.normal(size=n_h), requires_grad=True),
            v0=Tensor(rng.normal(size=d), requires_grad=True),
            w_in=Tensor(rng.normal(size=(d, d)) / np.sqrt(d), requires_grad=True),
            b_in=Tensor(rng.normal(size=d), requires_grad=True),
            w_out=Tensor(rng.normal(size=(d, d)) / np.sqrt(d), requires_grad=True),
            b_out=Tensor(rng.normal(size=d), requires_grad=True),
        )

    def test_constant_input_with_matching_v0_gives_bias_only(self):
        d, n_h, L = 6, 2, 8
        p = self._params(d, n_h, 8)
        z_row = np.random.default_rng(9).normal(size=d)
        z = Tensor(np.tile(z_row, (L, 1)))
        # phantom predecessor equal to the projected first row: all diffs vanish
        zp_row = z_row @ p["w_in"].data + p["b_in"].data
        p["v0"] = Tensor(zp_row, requires_grad=True)
        out = esa.mh_esa(z, p["alpha_raw"], p["v0"], p["w_in"], p["b_in"], p["w_out"], p["b_out"], n_h)
        np.testing.assert_allclose(out.data, np.tile(p["b_out"].data, (L, 1)), atol=1e-12)

    def test_single_head_equals_composition(self):
        d, L = 4, 9
        p = self._params(d, 1, 10)
        rng = np.random.default_rng(11)
        z = Tensor(rng.normal(size=(L, d)))
        out = esa.mh_esa(z, p["alpha_raw"], p["v0"], p["w_in"], p["b_in"], p["w_out"], p["b_out"], 1)
        # direct composition with plain arrays
        zp = z.data @ p["w_in"].data + p["b_in"].data
        diffs = zp - np.vstack([p["v0"].data, zp[:-1]])
        alpha = 1 / (1 + np.exp(-p["alpha_raw"].data[0]))
        w = esa.es_weights_t(alpha, L)[0].data
        smoothed = esa.conv1d_fft(diffs, w)
        expect = smoothed @ p["w_out"].data + p["b_out"].data
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_first_step_carries_no_init_state_term(self):
        # README's difference (c): each head smooths its differences from a
        # zero state, so step 0 is alpha_h * (zp_0 - v0) with no (1 - alpha_h) * v0
        d, n_h, L = 6, 3, 5
        p = self._params(d, n_h, 13)
        z = Tensor(np.random.default_rng(14).normal(size=(L, d)))
        out = esa.mh_esa(z, p["alpha_raw"], p["v0"], p["w_in"], p["b_in"], p["w_out"], p["b_out"], n_h)
        zp0 = z.data[0] @ p["w_in"].data + p["b_in"].data
        alpha = np.repeat(1 / (1 + np.exp(-p["alpha_raw"].data)), d // n_h)
        expect = (alpha * (zp0 - p["v0"].data)) @ p["w_out"].data + p["b_out"].data
        np.testing.assert_allclose(out.data[0], expect, rtol=0, atol=1e-12)

    def test_head_split_requires_divisibility(self):
        p = self._params(6, 4, 12)
        with pytest.raises(DimensionError):
            esa.mh_esa(Tensor(np.zeros((5, 6))), p["alpha_raw"], p["v0"],
                       p["w_in"], p["b_in"], p["w_out"], p["b_out"], 4)

    def test_alpha_gradient_matches_finite_differences(self):
        d, n_h, L = 8, 2, 10
        p = self._params(d, n_h, 13)
        z = Tensor(np.random.default_rng(14).normal(size=(L, d)))

        def f(a):
            return ad.tmean(esa.mh_esa(z, a, p["v0"], p["w_in"], p["b_in"],
                                       p["w_out"], p["b_out"], n_h))

        assert ad.grad_check(f, p["alpha_raw"], eps=1e-5) < 1e-4

    def test_batched_matches_per_window(self):
        d, n_h, L = 6, 3, 7
        p = self._params(d, n_h, 15)
        rng = np.random.default_rng(16)
        zb = rng.normal(size=(4, L, d))
        args = (p["alpha_raw"], p["v0"], p["w_in"], p["b_in"], p["w_out"], p["b_out"], n_h)
        batched = esa.mh_esa(Tensor(zb), *args).data
        for i in range(4):
            single = esa.mh_esa(Tensor(zb[i]), *args).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_one_transform_agrees_with_one_per_head(self, data):
        # the default weight carries each head's decay in that head's columns
        n_h = data.draw(st.integers(1, 4))
        d = n_h * data.draw(st.integers(1, 3))
        L = data.draw(st.integers(1, 12))
        lead = data.draw(st.lists(st.integers(1, 3), max_size=2))
        arr = lambda shape: data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-3, 3)))
        z, v0, b_in, b_out, w_in, w_out = (
            arr(shape) for shape in ((*lead, L, d), (d,), (d,), (d,), (d, d), (d, d)))
        alpha_raw = np.array(data.draw(st.lists(st.floats(-4, 4), min_size=n_h, max_size=n_h,
                                                unique=True)))
        args = [*map(Tensor, (z, alpha_raw, v0, w_in, b_in, w_out, b_out)), n_h]
        one = esa.mh_esa(*args).data
        per_head = esa.mh_esa(*args, per_head=True).data
        assert one.shape == per_head.shape == (*lead, L, d)
        assert np.abs(one - per_head).max() <= 1e-12 * np.abs(per_head).max()

    @pytest.mark.parametrize("per_head", [False, True])
    def test_gradients_match_finite_differences(self, per_head):
        d, n_h, L = 6, 3, 5
        p = self._params(d, n_h, 17)
        z = Tensor(np.random.default_rng(18).normal(size=(2, L, d)), requires_grad=True)
        names = ("alpha_raw", "v0", "w_in", "b_in", "w_out", "b_out")

        def loss(**given):
            args = {**p, "z": z, **given}
            out = esa.mh_esa(args["z"], *(args[k] for k in names), n_h, per_head=per_head)
            return ad.tmean(ad.mul(out, out))

        for name in ("z", *names):
            err = ad.grad_check(lambda t: loss(**{name: t}), z if name == "z" else p[name])
            assert err < 1e-6, f"{name}: rel err {err}"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_channel_per_head_matches_naive_composition(self, data):
        # heads == dim: every head smooths a single channel with its own rate
        d = data.draw(st.integers(1, 5))
        L = data.draw(st.integers(1, 12))
        lead = data.draw(st.lists(st.integers(1, 2), max_size=1))
        arr = lambda shape: data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-3, 3)))
        z, v0, b_in, b_out = arr((*lead, L, d)), arr((d,)), arr((d,)), arr((d,))
        w_in, w_out, alpha_raw = arr((d, d)), arr((d, d)), arr((d,))
        out = esa.mh_esa(*map(Tensor, (z, alpha_raw, v0, w_in, b_in, w_out, b_out)), d).data
        zp = z @ w_in + b_in
        diffs = zp - np.concatenate([np.broadcast_to(v0, (*lead, 1, d)), zp[..., :-1, :]], axis=-2)
        smoothed = np.concatenate(
            [esa.esa_naive(diffs[..., h : h + 1], 1 / (1 + np.exp(-alpha_raw[h])), np.zeros(1))
             for h in range(d)],
            axis=-1,
        )
        expect = smoothed @ w_out + b_out
        np.testing.assert_allclose(out, expect, rtol=1e-9, atol=1e-9)


class TestLevelSmoothing:
    def _random_case(self, rng, L=None, m=None, batch=()):
        L = L or int(rng.integers(1, 40))
        m = m or int(rng.integers(1, 4))
        return dict(
            level_prev=rng.normal(size=batch + (L, m)),
            s_obs=rng.normal(size=batch + (L, m)),
            b_obs=rng.normal(size=batch + (L, m)),
            alpha=rng.uniform(0.05, 0.95, size=m),
            init=rng.normal(size=m),
        )

    def test_fast_path_matches_recurrence(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            c = self._random_case(rng)
            fast = esa.level_smoothing(
                Tensor(c["level_prev"]), Tensor(c["s_obs"]), Tensor(c["b_obs"]),
                Tensor(c["alpha"]), Tensor(c["init"]),
            ).data
            slow = esa.level_recurrence(c["level_prev"], c["s_obs"], c["b_obs"], c["alpha"], c["init"])
            assert np.abs(fast - slow).max() < 1e-9

    def test_batched_matches_recurrence(self):
        rng = np.random.default_rng(18)
        c = self._random_case(rng, L=12, m=2, batch=(5,))
        init = c["level_prev"][..., 0:1, :] - c["s_obs"][..., 0:1, :]
        fast = esa.level_smoothing(
            Tensor(c["level_prev"]), Tensor(c["s_obs"]), Tensor(c["b_obs"]),
            Tensor(c["alpha"]), Tensor(init),
        ).data
        slow = esa.level_recurrence(c["level_prev"], c["s_obs"], c["b_obs"], c["alpha"], init)
        assert np.abs(fast - slow).max() < 1e-9

    def test_constant_deseasonalized_level_is_fixed_point(self):
        L, m = 10, 2
        c = np.array([1.5, -0.25])
        level_prev = np.tile(c, (L, 1)) + 0.0
        out = esa.level_smoothing(
            Tensor(level_prev), Tensor(np.zeros((L, m))), Tensor(np.zeros((L, m))),
            Tensor(np.array([0.3, 0.8])), Tensor(c),
        ).data
        np.testing.assert_allclose(out, np.tile(c, (L, 1)), atol=1e-12)

    def test_alpha_near_one_passes_level_through(self):
        rng = np.random.default_rng(19)
        level_prev = rng.normal(size=(8, 1))
        out = esa.level_smoothing(
            Tensor(level_prev), Tensor(np.zeros((8, 1))), Tensor(np.zeros((8, 1))),
            Tensor(np.array([1 - 1e-9])), Tensor(np.zeros(1)),
        ).data
        np.testing.assert_allclose(out, level_prev, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            esa.level_smoothing(
                Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 1))), Tensor(np.zeros((4, 2))),
                Tensor(np.array([0.5])), Tensor(np.zeros(1)),
            )
