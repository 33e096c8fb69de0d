"""Tests for the reverse-mode array engine.

Every primitive's adjoint is verified against central finite differences;
the spot-check values are closed forms.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from etsfore import autodiff as ad
from etsfore.autodiff import Tensor
from etsfore.errors import ConfigError, DimensionError, EvaluationError
from etsfore.model import ModelConfig, ModelState, forward, mse_loss


def fd_check(f, x, tol=1e-6, eps=1e-5):
    err = ad.grad_check(f, x, eps=eps)
    assert err < tol, f"adjoint vs finite differences: rel err {err}"


class TestLinear:
    def test_identity(self):
        y = ad.linear(Tensor([[1.0, 2.0]]), Tensor(np.eye(2)), Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(y.data, [[1.0, 2.0]])

    def test_zero_weights_give_bias(self):
        y = ad.linear(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 2))), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(y.data, [[3.0, 4.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(1, 3\).*\(2, 2\)"):
            ad.linear(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("x", [np.ones(2), np.array(1.0)])
    def test_left_operand_below_two_dims_rejected(self, x):
        # a (k,) operand used to run forward and fail in the VJP's swapaxes
        W = Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(x, requires_grad=True), W)
        with pytest.raises(DimensionError):
            ad.linear(Tensor(x, requires_grad=True), W, Tensor(np.zeros(3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        W = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)

        def loss(of):
            return lambda t: ad.tsum(ad.mul(y := ad.linear(*of(t)), y))

        fd_check(loss(lambda t: (t, W, b)), x)
        fd_check(loss(lambda t: (x, t, b)), W)
        fd_check(loss(lambda t: (x, W, t)), b)

    @staticmethod
    def linear_cases():
        rng = np.random.default_rng(18)
        x = rng.normal(size=(3, 4, 5))
        x[0, 0, :3] = [np.nan, np.inf, -0.0]
        b = rng.normal(size=6)
        b[:2] = [-0.0, -np.inf]
        return [
            (x, rng.normal(size=(5, 6)), b),
            (rng.normal(size=(6, 8))[::2, 1:6], rng.normal(size=(10, 4))[::2, ::2], -b[:2]),
            (np.array([[-0.0, 0.0]]), np.array([[1.0, -0.0], [-1.0, 0.0]]), np.array([-0.0, -0.0])),
        ]

    def test_bitwise_equal_to_matmul_then_add(self):
        """linear adds the bias in place; add(matmul(x, W), b) stays as the oracle."""
        for xd, Wd, bd in self.linear_cases():
            runs = []
            for f in (ad.linear, lambda x, W, b: ad.add(ad.matmul(x, W), b)):
                x, W, b = (Tensor(a, requires_grad=True) for a in (xd, Wd, bd))
                g = np.random.default_rng(20).normal(size=xd.shape[:-1] + Wd.shape[-1:])
                g.flat[0] = -0.0
                with np.errstate(invalid="ignore"):
                    y = f(x, W, b)
                    y.backward(g)
                runs.append([y.data, x.grad, W.grad, b.grad])
            for got, want in zip(*runs):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_inputs_never_written(self):
        for xd, Wd, bd in self.linear_cases():
            kept = [a.copy() for a in (xd, Wd, bd)]
            x, W, b = (Tensor(a, requires_grad=True) for a in (xd, Wd, bd))
            with np.errstate(invalid="ignore"):
                y = ad.linear(x, W, b)
                y.backward(np.ones(y.shape))
            for a, k in zip((xd, Wd, bd), kept):
                assert a.tobytes() == k.tobytes()


class TestConv1dTemporal:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(9, 1))
        kernel = np.array([0.0, 1.0, 0.0]).reshape(3, 1, 1)
        out = ad.conv1d_temporal(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, x)

    def test_zero_input(self):
        kernel = np.random.default_rng(2).normal(size=(3, 2, 4))
        out = ad.conv1d_temporal(Tensor(np.zeros((6, 2))), Tensor(kernel))
        np.testing.assert_array_equal(out.data, np.zeros((6, 4)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv1d_temporal(Tensor(np.zeros((4, 1))), Tensor(np.zeros((2, 1, 1))))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(3)
        for k in (1, 3, 5):
            x = rng.normal(size=(11, 3))
            kernel = rng.normal(size=(k, 3, 2))
            out = ad.conv1d_temporal(Tensor(x), Tensor(kernel)).data
            half = (k - 1) // 2
            expect = np.zeros((11, 2))
            for t in range(11):
                for dt in range(k):
                    src = t + dt - half
                    if 0 <= src < 11:
                        expect[t] += x[src] @ kernel[dt]
            np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(7, 2)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3)), requires_grad=True)
        fd_check(lambda t: ad.tsum(ad.mul(y := ad.conv1d_temporal(t, k), y)), x)
        fd_check(lambda t: ad.tsum(ad.mul(y := ad.conv1d_temporal(x, t), y)), k)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = ad.layer_norm(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros(3))

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 6)))
        beta = rng.normal(size=6)
        out = ad.layer_norm(x, Tensor(np.zeros(6)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (4, 6)))

    def test_output_statistics(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(2.0, 3.0, size=(16,)))
        out = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert abs(out.mean()) < 1e-9
        # variance is 1 up to the eps perturbation of the denominator
        assert abs(out.var() - 1.0) < 1e-4

    def test_empty_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.layer_norm(Tensor(np.zeros((3, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_affine_shape_checked(self):
        with pytest.raises(DimensionError, match=r"gamma \(1,\)"):
            ad.layer_norm(Tensor(np.ones((2, 3))), Tensor(np.ones(1)), Tensor(np.zeros(3)))

    @staticmethod
    def three_pass_layer_norm(x, gamma, beta, eps=1e-5):
        """Earlier formula with a fresh array per step, kept as the bitwise oracle."""
        mean = x.mean(axis=-1, keepdims=True)
        xm = x - mean
        inv = 1.0 / np.sqrt((xm * xm).mean(axis=-1, keepdims=True) + eps)
        return (x - mean) * inv * gamma + beta

    def test_bitwise_equal_to_three_pass_formula(self):
        rng = np.random.default_rng(21)
        x = rng.normal(scale=3.0, size=(4, 3, 6))
        x[0, 0] = 0.0
        x[0, 1] = -0.0
        x[0, 2, :2] = [np.nan, 1.0]
        x[1, 0, 3] = np.inf
        x[1, 1, 3] = -np.inf
        gamma, beta = rng.normal(size=6), rng.normal(size=6)
        gamma[:2], beta[:2] = [-0.0, 0.0], [-0.0, -0.0]
        cases = [
            (x, gamma, beta),
            (rng.normal(size=(6, 9))[::2, 1::2], gamma[:4], beta[:4]),  # non-contiguous
            (np.array([-0.0, 0.0, 2.0]), np.array([1.0, -1.0, -0.0]), np.array([-0.0, 0.0, 1.0])),
        ]
        for xd, gd, bd in cases:
            kept = [a.copy() for a in (xd, gd, bd)]
            with np.errstate(invalid="ignore"):
                out = ad.layer_norm(Tensor(xd), Tensor(gd), Tensor(bd)).data
                expect = self.three_pass_layer_norm(xd, gd, bd)
            assert out.shape == expect.shape and out.tobytes() == expect.tobytes()
            for a, k in zip((xd, gd, bd), kept):
                assert a.tobytes() == k.tobytes()

    def test_gradients(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        gamma = Tensor(rng.normal(size=8), requires_grad=True)
        beta = Tensor(rng.normal(size=8), requires_grad=True)
        fd_check(lambda t: ad.tsum(ad.mul(y := ad.layer_norm(t, gamma, beta), y)), x, tol=1e-5)
        fd_check(lambda t: ad.tsum(ad.mul(y := ad.layer_norm(x, t, beta), y)), gamma)
        fd_check(lambda t: ad.tsum(ad.mul(y := ad.layer_norm(x, gamma, t), y)), beta)


class TestSigmoid:
    def test_zero_maps_to_half(self):
        assert ad.sigmoid(Tensor(0.0)).data == 0.5

    def test_derivative_at_zero(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        out = ad.tsum(ad.sigmoid(x))
        out.backward()
        np.testing.assert_allclose(x.grad, 0.25)

    def test_saturation_without_overflow(self):
        out = ad.sigmoid(Tensor([50.0, -50.0])).data
        assert abs(out[0] - 1.0) < 1e-20
        assert abs(out[1]) < 1e-20
        big = ad.sigmoid(Tensor([1e4, -1e4])).data
        assert np.isfinite(big).all()

    def test_gradient(self):
        x = Tensor(np.random.default_rng(8).normal(size=(6,)), requires_grad=True)
        fd_check(lambda t: ad.tsum(ad.sigmoid(t)), x, tol=1e-7)

    @staticmethod
    def two_division_sigmoid(x):
        """Earlier two-division formula, kept as the bitwise oracle."""
        z = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def test_bitwise_equal_to_two_division_formula(self):
        rng = np.random.default_rng(17)
        cases = [
            rng.normal(scale=20.0, size=(7, 5)),
            rng.normal(size=(6, 4))[::2, 1:],  # non-contiguous view
            np.array([0.0, -0.0, 1e4, -1e4, 1.0, -1.0, 5e-324, -5e-324]),
            np.array([np.nan, -np.nan, np.inf, -np.inf]),
            np.array(0.7),
            np.array(-0.0),
        ]
        for x in cases:
            kept = x.copy()
            out = ad.sigmoid(Tensor(x)).data
            expect = self.two_division_sigmoid(x)
            assert isinstance(out, np.ndarray) and out.shape == x.shape
            assert out.tobytes() == expect.tobytes(), x
            assert x.tobytes() == kept.tobytes()

    def test_vjp_bitwise_equal_to_product_formula(self):
        """g * out * (1 - out), evaluated left to right, stays as the oracle."""
        rng = np.random.default_rng(22)
        edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 40.0, -40.0, 1.0])
        cases = [
            (rng.normal(scale=5.0, size=(4, 8)), np.tile(edge, (4, 1))),
            (rng.normal(size=(6, 4))[::2, 1:], rng.normal(size=(6, 6))[::2, ::2]),
            (edge, rng.normal(size=8)),
            (np.array(0.3), np.array(-0.0)),
        ]
        for xd, g in cases:
            x = Tensor(xd, requires_grad=True)
            out = ad.sigmoid(x)
            kept = g.copy()
            out.backward(g)
            with np.errstate(invalid="ignore"):
                expect = 0.0 + g * out.data * (1.0 - out.data)  # backward stores 0.0 + adjoint
            assert x.grad.shape == expect.shape and x.grad.tobytes() == expect.tobytes()
            assert g.tobytes() == kept.tobytes()


class TestDropout:
    def test_inference_is_exact_identity(self):
        x = Tensor(np.random.default_rng(9).normal(size=(4, 4)))
        assert ad.dropout(x, 0.5) is x  # no rng: inference

    def test_p_zero_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            ad.dropout(Tensor(np.ones(2)), 1.0, np.random.default_rng(0))

    def test_survivor_mean_within_binomial_band(self):
        n, p = 100_000, 0.2
        rng = np.random.default_rng(10)
        out = ad.dropout(Tensor(np.ones(n)), p, rng).data
        # mean of mask/(1-p) has std sqrt(p/((1-p)n))
        band = 3.0 * np.sqrt(p / ((1.0 - p) * n))
        assert abs(out.mean() - 1.0) < band

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones(50), requires_grad=True)
        out = ad.dropout(x, 0.3, rng)
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, out.data)

    def test_bitwise_equal_to_bool_mask_formula(self):
        """x * ((r >= p) / (1 - p)) from an identically seeded rng stays as the oracle."""
        edge = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324])
        rng = np.random.default_rng(23)
        cases = [
            np.tile(edge, (8, 4)),
            rng.normal(size=(6, 10))[::2, 1::3],  # non-contiguous
            np.array(-2.5),
        ]
        for xd in cases:
            for p in (0.2, 0.5, 0.9):
                ours, theirs = np.random.default_rng(24), np.random.default_rng(24)
                x = Tensor(xd, requires_grad=True)
                keep = (theirs.random(xd.shape) >= p) / (1.0 - p)
                g = np.random.default_rng(25).normal(size=xd.shape)
                with np.errstate(invalid="ignore"):
                    out = ad.dropout(x, p, ours)
                    out.backward(g)
                    assert out.data.tobytes() == (xd * keep).tobytes()
                    assert x.grad.tobytes() == (0.0 + g * keep).tobytes()
                assert ours.random() == theirs.random()  # same number of draws


class TestStructuralOps:
    def test_getitem_concat_roundtrip(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        y = ad.concat([x[..., :2], x[..., 2:]], axis=-1)
        np.testing.assert_array_equal(y.data, x.data)
        fd_check(lambda t: ad.tsum(ad.mul(c := ad.concat([t[..., :2], t[..., 2:]], axis=-1), c)), x)

    def test_getitem_basic_index_gradients(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        for idx in [np.s_[1:, ::2], np.s_[..., 3], np.s_[0], np.s_[None, 1:2, :, -1],
                    np.s_[np.int64(2), 1:3]]:
            x.zero_grad()
            y = x[idx]
            seed = rng.normal(size=y.shape)
            y.backward(seed)
            expect = np.zeros(x.shape)
            expect[idx] = seed
            np.testing.assert_array_equal(x.grad, expect)

    def test_getitem_repeated_advanced_index_accumulates(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        ad.tsum(x[[0, 0, 2]]).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0])
        x.zero_grad()
        x[np.array([2, 0, 2, 2])].backward(np.array([1.0, 10.0, 100.0, 1000.0]))
        np.testing.assert_array_equal(x.grad, [10.0, 0.0, 1101.0])
        m = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.tsum(m[:, [1, 1]]).backward()
        np.testing.assert_array_equal(m.grad, [[0, 2, 0], [0, 2, 0]])

    def test_cumsum_gradient(self):
        x = Tensor(np.random.default_rng(13).normal(size=(6, 2)), requires_grad=True)
        fd_check(lambda t: ad.tsum(ad.mul(c := ad.cumsum(t, axis=0), c)), x)

    def test_repeat_channels(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        out = ad.repeat_channels(x, 3)
        np.testing.assert_array_equal(out.data, [[1, 1, 1, 2, 2, 2]])
        fd_check(lambda t: ad.tsum(ad.mul(r := ad.repeat_channels(t, 3), r)), x)

    def test_pow_outer_values_and_gradient(self):
        base = Tensor(np.array([0.5, 0.25]), requires_grad=True)
        out = ad.pow_outer(base, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(out.data, [[1, 1], [0.5, 0.25], [0.25, 0.0625]])
        fd_check(lambda t: ad.tsum(ad.mul(p := ad.pow_outer(t, np.arange(4.0)), p)), base)

    def test_broadcast_and_mean_gradients(self):
        x = Tensor(np.random.default_rng(14).normal(size=(1, 3)), requires_grad=True)
        fd_check(lambda t: ad.tmean(ad.mul(b := ad.broadcast_to(t, (4, 5, 3)), b)), x)


class TestGradCheckUtility:
    def test_quadratic_adjoint(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        f = lambda t: ad.tsum(ad.mul(t, t))
        err = ad.grad_check(f, x, eps=1e-5)
        assert err < 1e-8
        x.zero_grad()
        f(x).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sigmoid_sum_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        err = ad.grad_check(lambda t: ad.tsum(ad.sigmoid(t)), x, eps=1e-5)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad, 0.25)

    def test_randomized_primitives_up_to_32x32(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(32, 32)), requires_grad=True)
        W = Tensor(rng.normal(size=(32, 8)) / 6)
        fd_check(lambda t: ad.tmean(ad.mul(s := ad.sigmoid(ad.matmul(t, W)), s)), x, tol=1e-4)


def zeros_plus_add_backward(root, seed):
    """Reference replay over graph records: every adjoint starts as zeros and is added to.

    Keyed by the id of each Tensor's record, `t._node`.
    """
    order, seen = [], set()

    def visit(node):
        if id(node) not in seen:
            seen.add(id(node))
            for p in node.parents:
                if p is not None:
                    visit(p)
            order.append(node)

    visit(root._node)
    grads = {id(root._node): np.asarray(seed, dtype=np.float64).reshape(root.shape)}
    for node in reversed(order):
        if node.vjp is None or id(node) not in grads:
            continue
        for parent, g in zip(node.parents, node.vjp(grads[id(node)])):
            if g is None or parent is None:
                continue
            acc = grads.setdefault(id(parent), np.zeros(parent.shape))
            acc += g
    return grads


class TestBackward:
    def test_diamond_graph_matches_zeros_plus_add_rule(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = ad.sigmoid(x)
        w = ad.add(ad.mul(y, x), y)  # y and x each reach two parents
        z = ad.add(w, w)  # add hands one array to both of its parents
        seed = rng.normal(size=(4, 3))
        seed[0, 0] = -0.0
        kept = seed.copy()
        ref = zeros_plus_add_backward(z, kept)  # before backward, which consumes the graph
        z.backward(seed)
        assert seed.tobytes() == kept.tobytes()
        for t in (x, y, w):
            assert t.grad.tobytes() == ref[id(t._node)].tobytes()
        np.testing.assert_array_equal(w.grad, 2.0 * kept)

    def test_second_backward_raises_before_any_grad(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        out = ad.tsum(ad.mul(x, x))
        out.backward()
        first = x.grad.copy()
        with pytest.raises(EvaluationError, match="graph already consumed by backward"):
            out.backward()
        assert x.grad.tobytes() == first.tobytes()

    def test_new_expression_on_consumed_intermediate_raises(self):
        x = Tensor(np.array([0.5, 3.0]), requires_grad=True)
        y = ad.sigmoid(x)
        ad.tsum(y).backward()
        x.zero_grad()
        with pytest.raises(EvaluationError, match="graph already consumed by backward"):
            ad.tsum(ad.mul(y, x)).backward()
        assert x.grad is None and y.grad is not None

    def test_intermediate_freed_when_backward_returns(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ad.sigmoid(x)
        alive = weakref.ref(y._node)
        out = ad.tsum(ad.mul(y, y))
        del y
        assert alive() is not None  # the graph still holds the record
        out.backward()
        assert alive() is None
        s = 1.0 / (1.0 + np.exp(-1.0))
        np.testing.assert_allclose(x.grad, 2.0 * s * s * (1.0 - s))

    def test_values_no_vjp_reads_die_before_backward(self):
        rng = np.random.default_rng(26)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        W = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        total = ad.add(x, x)  # add's VJP reads only shapes
        pre = ad.linear(x, W, b)  # sigmoid's VJP reads its output, not its input
        out = ad.add(ad.tsum(ad.sigmoid(total)), ad.tsum(ad.sigmoid(pre)))
        alive = [weakref.ref(o) for t in (total, pre) for o in (t, t.data)]
        del total, pre
        assert [r() for r in alive] == [None] * 4
        out.backward()
        s2, sp = (1.0 / (1.0 + np.exp(-v)) for v in (2.0 * x.data, x.data @ W.data + b.data))
        dp = sp * (1.0 - sp)
        np.testing.assert_allclose(x.grad, 2.0 * s2 * (1.0 - s2) + dp @ W.data.T, rtol=1e-12)
        np.testing.assert_allclose(W.grad, x.data.T @ dp, rtol=1e-12)
        np.testing.assert_allclose(b.grad, dp.sum(axis=0), rtol=1e-12)

    def test_dropout_record_keeps_one_byte_per_entry(self):
        n = 1 << 16
        x = Tensor(np.ones(n), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.tsum(ad.dropout(x, 0.3, np.random.default_rng(27)))
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert n <= retained < n + 4096, retained
        out.backward()
        keep = (np.random.default_rng(27).random(n) >= 0.3) / (1.0 - 0.3)
        assert x.grad.tobytes() == (0.0 + keep).tobytes()

    def test_no_record_outside_a_graph(self):
        w = Tensor(np.ones(3), requires_grad=True)
        assert ad.sigmoid(ad.add(Tensor(np.ones(3)), 1.0))._node is None
        with ad.no_grad():
            out = ad.sigmoid(ad.mul(w, w))
        assert out._node is None and out._vjp is None and not out.requires_grad
        out.backward(np.ones(3))
        assert out.grad is None and w.grad is None
        with pytest.raises(EvaluationError, match="does not require grad"):
            out.grad = np.ones(3)

    def test_grad_check_records_a_plain_tensor(self):
        x = Tensor(np.array([1.0, -2.0]))
        assert ad.grad_check(lambda t: ad.tsum(ad.mul(t, t)), x) < 1e-8
        assert x.requires_grad
        np.testing.assert_allclose(x.grad, [2.0, -4.0])

    def test_training_steps_retain_no_graph(self):
        cfg = ModelConfig(lookback=48, horizon=12, dim=16, ff_dim=32)
        state = ModelState.init(cfg, 3)
        rng = np.random.default_rng(4)
        xb = rng.normal(size=(8, cfg.lookback, cfg.channels))
        yb = rng.normal(size=(8, cfg.horizon, cfg.channels))
        retained, peaks = [], []  # traced bytes allocated since the first step began
        tracemalloc.start()
        try:
            for _ in range(3):
                tracemalloc.reset_peak()
                state.zero_grad()
                loss = mse_loss(forward(xb, state, rng), yb)  # held across steps, as in train
                loss.backward()
                current, peak = tracemalloc.get_traced_memory()
                retained.append(current)
                peaks.append(peak)
        finally:
            tracemalloc.stop()
        assert all(r < 0.05 * p for r, p in zip(retained, peaks)), (retained, peaks)
        assert all(abs(p - peaks[0]) <= 0.05 * peaks[0] for p in peaks[1:]), peaks


class TestDeterminism:
    def test_same_seed_replay_is_bit_identical(self):
        rng_data = np.random.default_rng(16)
        x = rng_data.normal(size=(8, 4))

        def run():
            rng = np.random.default_rng(99)
            t = Tensor(x, requires_grad=True)
            out = ad.tmean(ad.mul(d := ad.dropout(ad.sigmoid(t), 0.4, rng), d))
            out.backward()
            return out.data.copy(), t.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)
