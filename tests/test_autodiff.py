import warnings

import numpy as np
import pytest

from downgen import autodiff as ad
from downgen.autodiff import Tensor, backward

from gradcheck import finite_diff_grads, rel_error


def check_op(build, arrays, eps=1e-5, tol=1e-7):
    """build(leaves) -> scalar Tensor; compares backprop to central differences."""
    leaves = {k: Tensor(v) for k, v in arrays.items()}
    loss = build(leaves)
    backward(loss)
    analytic = {k: leaves[k].grad for k in arrays}

    def f(arrs):
        t = {k: Tensor(v) for k, v in arrs.items()}
        return float(build(t).data)

    numeric = finite_diff_grads(f, arrays, eps=eps)
    assert rel_error(analytic, numeric) < tol


class TestElementwise:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        arrays = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((4,))}
        check_op(lambda t: ad.mean(ad.square(t["a"] + t["b"])), arrays)

    def test_mul_broadcast(self):
        rng = np.random.default_rng(1)
        arrays = {"a": rng.standard_normal((2, 3, 4)), "b": rng.standard_normal((3, 1))}
        check_op(lambda t: ad.mean(t["a"] * t["b"]), arrays)

    def test_sub_neg(self):
        rng = np.random.default_rng(2)
        arrays = {"a": rng.standard_normal((5,)), "b": rng.standard_normal((5,))}
        check_op(lambda t: ad.mean(ad.square(t["a"] - t["b"])), arrays)

    def test_silu(self):
        rng = np.random.default_rng(3)
        arrays = {"a": rng.standard_normal((4, 4))}
        check_op(lambda t: ad.mean(ad.silu(t["a"])), arrays)

    def test_silu_extreme_inputs_finite(self):
        a = Tensor(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = ad.silu(a)
            backward(ad.mean(out))
        assert np.isfinite(out.data).all() and np.isfinite(a.grad).all()
        np.testing.assert_allclose(out.data[[0, -1]], [0.0, 800.0], rtol=1e-15)
        np.testing.assert_allclose(a.grad[[0, -1]] * a.data.size, [0.0, 1.0], rtol=1e-15)

    def test_mean_axes(self):
        rng = np.random.default_rng(4)
        arrays = {"a": rng.standard_normal((2, 3, 4))}
        check_op(lambda t: ad.mean(ad.square(ad.mean(t["a"], axes=(1, 2)))), arrays)


class TestShapes:
    def test_reshape_transpose(self):
        rng = np.random.default_rng(5)
        arrays = {"a": rng.standard_normal((2, 3, 4))}

        def build(t):
            x = ad.transpose(t["a"], (2, 0, 1))
            return ad.mean(ad.square(ad.reshape(x, (4, 6))))

        check_op(build, arrays)

    def test_concat(self):
        rng = np.random.default_rng(6)
        arrays = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 2))}
        check_op(lambda t: ad.mean(ad.square(ad.concat([t["a"], t["b"]], axis=1))), arrays)


class TestDense:
    def test_dense(self):
        rng = np.random.default_rng(7)
        arrays = {
            "x": rng.standard_normal((3, 5)),
            "w": rng.standard_normal((5, 4)),
            "b": rng.standard_normal(4),
        }
        check_op(lambda t: ad.mean(ad.square(ad.dense(t["x"], t["w"], t["b"]))), arrays)

    def test_dense_batched_leading_axes(self):
        rng = np.random.default_rng(8)
        arrays = {
            "x": rng.standard_normal((2, 3, 5)),
            "w": rng.standard_normal((5, 2)),
            "b": rng.standard_normal(2),
        }
        check_op(lambda t: ad.mean(ad.square(ad.dense(t["x"], t["w"], t["b"]))), arrays)


def conv2d_reference(x, w, b, stride):
    """Same-padded convolution as an explicit loop over output pixels and taps."""
    n, h, wd, _ = x.shape
    kh, kw = w.shape[:2]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    out = np.tile(b, (n, ho, wo, 1))
    for oy in range(ho):
        for ox in range(wo):
            for i in range(kh):
                for j in range(kw):
                    y, xx = oy * stride + i - kh // 2, ox * stride + j - kw // 2
                    if 0 <= y < h and 0 <= xx < wd:
                        out[:, oy, ox] += x[:, y, xx] @ w[i, j]
    return out


class TestConv:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_matches_loop_reference(self, k, stride):
        rng = np.random.default_rng(20 + 2 * k + stride)
        x = rng.standard_normal((2, 5, 7, 3))
        w = rng.standard_normal((k, k, 3, 4))
        b = rng.standard_normal(4)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride).data
        np.testing.assert_allclose(out, conv2d_reference(x, w, b, stride), rtol=1e-12, atol=1e-12)

    def test_conv2d_k5_stride2_gradients(self):
        rng = np.random.default_rng(30)
        arrays = {
            "x": rng.standard_normal((2, 5, 7, 3)),
            "w": rng.standard_normal((5, 5, 3, 4)) * 0.3,
            "b": rng.standard_normal(4),
        }
        check_op(lambda t: ad.mean(ad.square(ad.conv2d(t["x"], t["w"], t["b"], stride=2))),
                 arrays)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = np.random.default_rng(9 + stride)
        arrays = {
            "x": rng.standard_normal((2, 4, 4, 3)),
            "w": rng.standard_normal((3, 3, 3, 2)) * 0.5,
            "b": rng.standard_normal(2),
        }
        check_op(lambda t: ad.mean(ad.square(ad.conv2d(t["x"], t["w"], t["b"], stride=stride))),
                 arrays)

    def test_conv2d_1x1_spatial(self):
        rng = np.random.default_rng(11)
        arrays = {
            "x": rng.standard_normal((2, 1, 1, 4)),
            "w": rng.standard_normal((3, 3, 4, 2)) * 0.5,
            "b": rng.standard_normal(2),
        }
        check_op(lambda t: ad.mean(ad.square(ad.conv2d(t["x"], t["w"], t["b"]))), arrays)

    def test_upsample2(self):
        rng = np.random.default_rng(12)
        arrays = {"x": rng.standard_normal((2, 2, 3, 2))}
        check_op(lambda t: ad.mean(ad.square(ad.upsample2(t["x"]))), arrays)

    def test_conv_matches_direct_computation(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((1, 3, 3, 1))
        w = rng.standard_normal((3, 3, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(np.zeros(1))).data
        # centre output pixel of a same-padded 3x3 conv sees the full input
        expect = sum(x[0, i, j, 0] * w[i, j, 0, 0] for i in range(3) for j in range(3))
        assert abs(out[0, 1, 1, 0] - expect) < 1e-12


class TestBackwardMechanics:
    def test_grad_accumulates_over_reuse(self):
        a = Tensor(np.array(3.0))
        loss = a * a + a
        backward(loss)
        assert abs(a.grad - 7.0) < 1e-12

    def test_scalar_output_required(self):
        a = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            backward(a + 1.0)

    def test_deep_chain_iterative_traversal(self):
        a = Tensor(np.array(1.0))
        x = a
        for _ in range(5000):
            x = x + 0.0
        backward(ad.mean(x))
        assert a.grad == 1.0
