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

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_slice_axis(self, axis):
        rng = np.random.default_rng(7)
        arrays = {"a": rng.standard_normal((4, 3, 5))}
        lo = ad.slice_axis(arrays["a"], 0, 2, axis=axis).data
        np.testing.assert_array_equal(lo, np.split(arrays["a"], [2], axis=axis)[0])

        def build(t):
            # two slices of one leaf: their zero-filled gradients accumulate
            lo = ad.slice_axis(t["a"], 0, 2, axis=axis)
            hi = ad.slice_axis(t["a"], 1, 3, axis=axis)
            return ad.mean(ad.square(lo * hi))

        check_op(build, arrays)

    @pytest.mark.parametrize("axis", [0, 2, -1])
    def test_slice_group_sum(self, axis):
        rng = np.random.default_rng(8)
        arrays = {"a": rng.standard_normal((14, 3, 14))}
        # entries 2..14 read as [2, 3, 2]: entry i·2 + r sums (i·3 + k)·2 + r over k < 3
        part = np.moveaxis(arrays["a"], axis, 0)[2:14]
        want = np.moveaxis(np.stack([sum(part[(i * 3 + k) * 2 + r] for k in range(3))
                                     for i in range(2) for r in range(2)]), 0, axis)
        got = ad.slice_group_sum(arrays["a"], 2, 14, 2, 2, axis=axis).data
        np.testing.assert_allclose(got, want, rtol=1e-15)

        def build(t):
            s = ad.slice_group_sum(t["a"], 2, 14, 2, 2, axis=axis)
            return ad.mean(ad.square(s)) + ad.mean(ad.slice_axis(t["a"], 0, 4, axis=axis))

        check_op(build, arrays)


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


def conv2d_dx_reference(g, w, x_shape, stride):
    """Input gradient of the same-padded convolution, as an explicit loop."""
    n, h, wd, _ = x_shape
    kh, kw = w.shape[:2]
    dx = np.zeros(x_shape)
    for oy in range(g.shape[1]):
        for ox in range(g.shape[2]):
            for i in range(kh):
                for j in range(kw):
                    y, xx = oy * stride + i - kh // 2, ox * stride + j - kw // 2
                    if 0 <= y < h and 0 <= xx < wd:
                        dx[:, y, xx] += g[:, oy, ox] @ w[i, j].T
    return dx


def conv2d_dw_reference(x, g, w_shape, stride):
    """Kernel gradient of the same-padded convolution, as an explicit loop."""
    n, h, wd, _ = x.shape
    kh, kw = w_shape[:2]
    dw = np.zeros(w_shape)
    for oy in range(g.shape[1]):
        for ox in range(g.shape[2]):
            for i in range(kh):
                for j in range(kw):
                    y, xx = oy * stride + i - kh // 2, ox * stride + j - kw // 2
                    if 0 <= y < h and 0 <= xx < wd:
                        dw[i, j] += x[:, y, xx].T @ g[:, oy, ox]
    return dw


# images no larger than a 3x3 kernel: the shapes the unrolled kernel is built for
SMALL_HW = [(1, 1), (1, 3), (2, 2), (3, 3)]

# every conv2d kernel; each is checked on every test shape, whatever the dispatch
KERNELS = ["_conv2d_unrolled", "_conv2d_gathered", "_conv2d_taps"]


def run_kernel(name, x, w, b, stride):
    return getattr(ad, name)(*(ad._as_tensor(a) for a in (x, w, b)), stride)


def image_cases(leads, hws):
    """pytest params (*lead, hw). The first image size keeps the lead values' id;
    the others append HxW."""
    return [pytest.param(*lead, hw,
                         id="-".join(map(str, lead)) + (f"-{hw[0]}x{hw[1]}" if n else ""))
            for n, hw in enumerate(hws) for lead in leads]


class TestConv:
    @pytest.mark.parametrize("hw", [(5, 7), (8, 8)]
                             + [pytest.param(hw, id=f"{hw[0]}x{hw[1]}") for hw in SMALL_HW])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv2d_dx_matches_loop_reference(self, k, stride, hw):
        rng = np.random.default_rng(40 + 2 * k + stride + hw[0])
        x = Tensor(rng.standard_normal((2, *hw, 3)))
        w, b = rng.standard_normal((k, k, 3, 4)), rng.standard_normal(4)
        g = rng.standard_normal((2, (hw[0] - 1) // stride + 1, (hw[1] - 1) // stride + 1, 4))
        expect = conv2d_dx_reference(g, w, x.shape, stride)
        for name in KERNELS:
            dx, dw, db = run_kernel(name, x, w, b, stride).vjp(g)
            assert dw is None and db is None
            np.testing.assert_allclose(dx, expect, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("stride, hw", image_cases([(1,), (2,)], [(5, 7), (2, 2)]))
    def test_conv2d_data_input_gets_no_dx(self, stride, hw):
        rng = np.random.default_rng(50 + stride)
        x = rng.standard_normal((2, *hw, 3))
        w, b = rng.standard_normal((3, 3, 3, 4)), rng.standard_normal(4)
        g = rng.standard_normal((2, (hw[0] - 1) // stride + 1, (hw[1] - 1) // stride + 1, 4))
        for name in KERNELS:
            dx, dw, db = run_kernel(name, x, Tensor(w), Tensor(b), stride).vjp(g)
            _, dw_leaf, db_leaf = run_kernel(name, Tensor(x), Tensor(w), Tensor(b), stride).vjp(g)
            assert dx is None, name
            assert dw.tobytes() == dw_leaf.tobytes() and db.tobytes() == db_leaf.tobytes(), name

    @staticmethod
    def assert_kernels_match_loop_reference(rng, k, stride, hw, cin, cout):
        """Output, dx, dw and db of every kernel against the loop references."""
        x = rng.standard_normal((2, *hw, cin))
        w = rng.standard_normal((k, k, cin, cout))
        b = rng.standard_normal(cout)
        g = rng.standard_normal((2, (hw[0] - 1) // stride + 1, (hw[1] - 1) // stride + 1, cout))
        expect = {"out": conv2d_reference(x, w, b, stride),
                  "dx": conv2d_dx_reference(g, w, x.shape, stride),
                  "dw": conv2d_dw_reference(x, g, w.shape, stride),
                  "db": g.sum(axis=(0, 1, 2))}
        for name in KERNELS:
            y = run_kernel(name, Tensor(x), Tensor(w), Tensor(b), stride)
            dx, dw, db = y.vjp(g)
            for key, got in (("out", y.data), ("dx", dx), ("dw", dw), ("db", db)):
                np.testing.assert_allclose(got, expect[key], rtol=1e-12, atol=1e-12,
                                           err_msg=f"{name} {key}")

    @pytest.mark.parametrize("k, stride, hw", image_cases(
        [(k, stride) for k in (1, 3, 5) for stride in (1, 2)], [(5, 7), *SMALL_HW]))
    def test_conv2d_matches_loop_reference(self, k, stride, hw):
        # Cout > Cin: the gathered kernel's dx is col2im at either stride
        self.assert_kernels_match_loop_reference(np.random.default_rng(20 + 2 * k + stride),
                                                 k, stride, hw, 3, 4)

    @pytest.mark.parametrize("k, stride, hw", image_cases(
        [(k, stride) for k in (1, 3, 5) for stride in (1, 2)], [(5, 7), (8, 8), *SMALL_HW]))
    def test_conv2d_narrow_output_matches_loop_reference(self, k, stride, hw):
        # Cout < Cin: the gathered kernel's dx is the gather of the output
        # gradient at stride 1 and col2im at stride 2
        self.assert_kernels_match_loop_reference(np.random.default_rng(60 + 2 * k + stride),
                                                 k, stride, hw, 5, 2)

    @pytest.mark.parametrize("k, stride, hw", image_cases(
        [(k, stride) for k in (1, 3, 5) for stride in (1, 2)], [(5, 7), *SMALL_HW]))
    def test_unrolled_selector_picks_one_tap_per_pixel_pair(self, k, stride, hw):
        sel = ad._unrolled_selector(*hw, k, k, stride)
        ho, wo = (hw[0] - 1) // stride + 1, (hw[1] - 1) // stride + 1
        assert sel.shape == (hw[0] * hw[1] * ho * wo, k * k)
        assert set(np.unique(sel)) <= {0.0, 1.0} and (sel.sum(axis=1) <= 1).all()
        if hw == (1, 1):
            assert sel.tolist() == [[float(t == k * k // 2) for t in range(k * k)]]

    @pytest.mark.parametrize("shape, k, stride, kernel", [
        # small images: unrolled once there are H·W·Ho·Wo rows to serve
        ((16, 2, 2, 3), 3, 1, "_conv2d_unrolled"),
        ((15, 2, 2, 3), 3, 1, "_conv2d_gathered"),
        ((4, 2, 2, 3), 3, 2, "_conv2d_unrolled"),
        ((3, 2, 2, 3), 3, 2, "_conv2d_gathered"),
        ((1, 1, 1, 3), 3, 1, "_conv2d_unrolled"),
        ((2, 3, 3, 3), 3, 1, "_conv2d_gathered"),
        # larger images: gathered up to _GATHER_LIMIT elements, then per tap
        ((2, 8, 8, ad._GATHER_LIMIT // 128), 1, 1, "_conv2d_gathered"),
        ((2, 8, 8, ad._GATHER_LIMIT // 128 + 1), 1, 1, "_conv2d_taps"),
        ((2, 8, 8, 3), 3, 1, "_conv2d_gathered"),
    ])
    def test_conv2d_dispatch_rule(self, shape, k, stride, kernel):
        assert ad._conv2d_kernel(shape, (k, k, shape[-1], 4), stride).__name__ == kernel

    def test_conv2d_k5_stride2_gradients(self):
        rng = np.random.default_rng(30)
        arrays = {
            "x": rng.standard_normal((2, 5, 7, 3)),
            "w": rng.standard_normal((5, 5, 3, 4)) * 0.3,
            "b": rng.standard_normal(4),
        }
        check_op(lambda t: ad.mean(ad.square(ad.conv2d(t["x"], t["w"], t["b"], stride=2))),
                 arrays)

    @pytest.mark.parametrize("stride, hw", image_cases([(1,), (2,)], [(4, 4), (1, 1), (2, 2)]))
    def test_conv2d(self, stride, hw):
        rng = np.random.default_rng(9 + stride)
        arrays = {
            "x": rng.standard_normal((2, *hw, 3)),
            "w": rng.standard_normal((3, 3, 3, 2)) * 0.5,
            "b": rng.standard_normal(2),
        }
        check_op(lambda t: ad.mean(ad.square(ad.conv2d(t["x"], t["w"], t["b"], stride=stride))),
                 arrays)

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


def film_arrays(rng, rows):
    """x [3, 2, 2, 4], an embedding e [rows, 5] and the scale and shift denses."""
    return {"x": rng.standard_normal((3, 2, 2, 4)), "e": rng.standard_normal((rows, 5)),
            "ws": rng.standard_normal((5, 4)) * 0.5, "bs": rng.standard_normal(4),
            "wt": rng.standard_normal((5, 4)) * 0.5, "bt": rng.standard_normal(4)}


def film_composed(x, e, ws, bs, wt, bt):
    """FiLM as the seven nodes `film` replaces: two denses, two reshapes, add, mul, add."""
    scale, shift = ad.dense(e, ws, bs), ad.dense(e, wt, bt)
    rows, c = scale.shape
    return x * (ad.reshape(scale, (rows, 1, 1, c)) + 1.0) + ad.reshape(shift, (rows, 1, 1, c))


FILM_ARGS = ("x", "e", "ws", "bs", "wt", "bt")


class TestFilm:
    @pytest.mark.parametrize("rows, x_leaf", [(3, True), (1, True), (3, False), (1, False)],
                             ids=["per-row-leaf", "shared-leaf", "per-row-const",
                                  "shared-const"])
    def test_film_gradients(self, rows, x_leaf):
        rng = np.random.default_rng(70 + rows + 10 * x_leaf)
        arrays = film_arrays(rng, rows)
        x = arrays["x"] if x_leaf else arrays.pop("x")

        def build(t):
            return ad.mean(ad.square(ad.film(*(t.get(k, x) for k in FILM_ARGS))))

        check_op(build, arrays)

    def test_film_constant_x_gets_no_gradient(self):
        arrays = film_arrays(np.random.default_rng(75), 3)
        x = arrays.pop("x")
        out = ad.film(x, *(Tensor(arrays[k]) for k in FILM_ARGS[1:]))
        grads = out.vjp(np.ones_like(out.data))
        assert grads[0] is None and all(g is not None for g in grads[1:])

    @pytest.mark.parametrize("rows", [3, 1], ids=["per-row", "shared"])
    def test_film_matches_seven_node_composition(self, rows):
        rng = np.random.default_rng(80 + rows)
        arrays = film_arrays(rng, rows)
        weight = rng.standard_normal(arrays["x"].shape)
        results = []
        for fn in (ad.film, film_composed):
            leaves = {k: Tensor(v) for k, v in arrays.items()}
            out = fn(*(leaves[k] for k in FILM_ARGS))
            backward(ad.mean(out * weight))
            results.append((out.data, {k: leaves[k].grad for k in FILM_ARGS}))
        (out, grads), (expect, expect_grads) = results
        assert out.tobytes() == expect.tobytes()
        for k in FILM_ARGS:
            np.testing.assert_allclose(grads[k], expect_grads[k], rtol=1e-12, atol=1e-12,
                                       err_msg=k)


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

    def test_ops_on_constants_record_no_tape(self):
        c = ad.silu(ad.conv2d(np.ones((1, 3, 3, 2)), np.ones((3, 3, 2, 2)), np.zeros(2)))
        assert not c.requires_grad and c.parents == () and c.vjp is None

    def test_backward_skips_constant_subgraphs(self):
        rng = np.random.default_rng(14)
        a = Tensor(rng.standard_normal((2, 3)))
        c = ad.mean(ad.square(ad.dense(rng.standard_normal((2, 4)),
                                       rng.standard_normal((4, 3)), np.zeros(3))))
        loss = ad.mean(ad.square(a * c + ad.neg(c) + rng.standard_normal(3)))
        called, nodes, stack = [], {}, [loss]

        def spy(node, vjp):
            def recorded(g):
                called.append(node)
                return vjp(g)
            node.vjp = recorded

        while stack:
            node = stack.pop()
            if id(node) not in nodes:
                nodes[id(node)] = node
                stack.extend(node.parents)
                if node.vjp is not None:
                    spy(node, node.vjp)
        backward(loss)
        assert called and all(n.requires_grad for n in called)
        assert [n for n in nodes.values() if not n.requires_grad and n.vjp is not None] == []
        assert [n for n in nodes.values() if not n.requires_grad and n.grad is not None] == []
        assert a.grad is not None

    def test_only_leaves_keep_gradients(self):
        a = Tensor(np.array([0.5, -1.5]))
        h = ad.silu(a)
        loss = ad.mean(ad.square(h))
        backward(loss)
        assert a.grad is not None and h.grad is None and loss.grad is None

    def test_deep_chain_iterative_traversal(self):
        a = Tensor(np.array(1.0))
        x = a
        for _ in range(5000):
            x = x + 0.0
        backward(ad.mean(x))
        assert a.grad == 1.0
