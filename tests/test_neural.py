import dataclasses
from collections import Counter

import numpy as np
import pytest

from downgen import autodiff as ad
from downgen.autodiff import Tensor, backward
from downgen.nets import (
    ArchConfig,
    FOURIER_FREQS,
    DivergenceError,
    as_leaves,
    denoiser_arch,
    denoiser_cond,
    denoiser_forward,
    film,
    fourier_embed,
    fourier_features,
    init_params,
    load_checkpoint,
    precond_coeffs,
    save_checkpoint,
    truncated_normal,
    unet_forward,
    velocity_arch,
    velocity_forward,
)
from downgen.optim import BETA1, BETA2, BLOCK_ELEMENTS, EPS, OptimizerState, Schedule, adam_step

from gradcheck import finite_diff_grads, loss_and_grads, rel_error


def small_velocity_setup(seed=0, b=2, hw=4, v=2):
    arch = velocity_arch(v, levels=(4, 8))
    rng = np.random.default_rng(seed)
    params = init_params(rng, arch)
    yhat = rng.standard_normal((b, hw, hw, v))
    tau = rng.uniform(0.1, 0.9, b)
    mean = rng.standard_normal((b, hw, hw, v))
    std = 0.5 + rng.random((b, hw, hw, v))
    return arch, params, yhat, tau, mean, std


class TestFourierEmbed:
    def test_zero_input_features(self):
        feats = fourier_features(0.0)
        np.testing.assert_array_equal(feats[0, :16], 1.0)
        np.testing.assert_array_equal(feats[0, 16:], 0.0)

    def test_frequencies_log_spaced_and_read_only(self):
        s = np.array([0.0, 0.37, 1.0])
        angles = s[:, None] * np.logspace(0.0, 4.0, 16)[None, :]
        expect = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
        assert fourier_features(s).tobytes() == expect.tobytes()
        with pytest.raises(ValueError):
            FOURIER_FREQS[0] = 2.0

    def test_deterministic(self):
        arch = ArchConfig(in_channels=2, out_channels=2)
        params = init_params(np.random.default_rng(1), arch)
        a = fourier_embed(as_leaves(params), np.array([0.3, 0.7])).data
        b = fourier_embed(as_leaves(params), np.array([0.3, 0.7])).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_check(self):
        arch = ArchConfig(in_channels=2, out_channels=2)
        full = init_params(np.random.default_rng(2), arch)
        # randomize the dense weights under test (init is partly zero elsewhere)
        rng = np.random.default_rng(3)
        sub = {k: rng.standard_normal(full[k].shape) * 0.3
               for k in full if k.startswith("embed/")}

        def run(arrs):
            merged = dict(full)
            merged.update(arrs)
            leaves = as_leaves(merged)
            out = fourier_embed(leaves, np.array([0.25, 0.6]))
            return ad.mean(ad.square(out)), leaves

        loss, leaves = run(sub)
        backward(loss)
        analytic = {k: leaves[k].grad for k in sub}
        numeric = finite_diff_grads(lambda a: float(run(a)[0].data), sub)
        assert rel_error(analytic, numeric) < 1e-5


class TestFilm:
    def test_identity_at_zero_init(self):
        arch = ArchConfig(in_channels=2, out_channels=2, levels=(4, 8))
        params = init_params(np.random.default_rng(4), arch)
        leaves = as_leaves(params)
        x = np.random.default_rng(5).standard_normal((2, 3, 3, 4))
        e = fourier_embed(leaves, np.array([0.2, 0.8]))
        out = film(Tensor(x), e, leaves, "res0")
        np.testing.assert_array_equal(out.data, x)

    def test_affine_definition(self):
        rng = np.random.default_rng(6)
        arch = ArchConfig(in_channels=2, out_channels=2, levels=(4, 8))
        params = init_params(rng, arch)
        params["res0/film_scale/w"] = rng.standard_normal(params["res0/film_scale/w"].shape)
        params["res0/film_shift/b"] = rng.standard_normal(params["res0/film_shift/b"].shape)
        leaves = as_leaves(params)
        e = fourier_embed(leaves, np.array([0.5]))
        scale = e.data @ params["res0/film_scale/w"] + params["res0/film_scale/b"]
        shift = e.data @ params["res0/film_shift/w"] + params["res0/film_shift/b"]
        x = rng.standard_normal((1, 2, 2, 4))
        out = film(Tensor(x), e, leaves, "res0")
        expect = (1.0 + scale[0]) * x + shift[0]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        arch = ArchConfig(in_channels=2, out_channels=2, levels=(4, 8))
        full = init_params(rng, arch)
        sub = {k: rng.standard_normal(full[k].shape) * 0.2
               for k in full if k.startswith("res0/film") or k.startswith("embed/")}
        x = rng.standard_normal((2, 2, 2, 4))

        def run(arrs):
            merged = dict(full)
            merged.update(arrs)
            leaves = as_leaves(merged)
            e = fourier_embed(leaves, np.array([0.3, 0.9]))
            return ad.mean(ad.square(film(Tensor(x), e, leaves, "res0"))), leaves

        loss, leaves = run(sub)
        backward(loss)
        analytic = {k: leaves[k].grad for k in sub}
        numeric = finite_diff_grads(lambda a: float(run(a)[0].data), sub)
        assert rel_error(analytic, numeric) < 1e-5


class TestVelocityForward:
    def test_zero_final_layer_gives_zero_velocity(self):
        arch, params, yhat, tau, mean, std = small_velocity_setup()
        out = velocity_forward(as_leaves(params), yhat, tau, mean, std, arch)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_batch_permutation_equivariance(self):
        arch, params, yhat, tau, mean, std = small_velocity_setup(seed=8, b=3)
        rng = np.random.default_rng(9)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        out = velocity_forward(as_leaves(params), yhat, tau, mean, std, arch).data
        perm = np.array([2, 0, 1])
        out_p = velocity_forward(as_leaves(params), yhat[perm], tau[perm],
                                 mean[perm], std[perm], arch).data
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_shared_tau_and_stats_match_per_row_call(self):
        # one embedding row broadcast over the batch; only the dense GEMMs'
        # rounding may differ from running them on B identical rows
        arch, params, yhat, _, mean, std = small_velocity_setup(seed=12, b=5)
        rng = np.random.default_rng(13)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        shared = velocity_forward(params, yhat, np.array([0.4]), mean[:1], std[:1], arch).data
        per_row = velocity_forward(params, yhat, np.full(5, 0.4),
                                   np.broadcast_to(mean[:1], yhat.shape),
                                   np.broadcast_to(std[:1], yhat.shape), arch).data
        scale = np.abs(per_row).max()
        assert shared.shape == yhat.shape and scale > 0.01
        assert np.abs(shared - per_row).max() <= 1e-14 * scale

    def test_gradient_check_on_squared_norm(self):
        arch, params, yhat, tau, mean, std = small_velocity_setup(seed=10)
        rng = np.random.default_rng(11)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        # probe a representative subset of tensors (full check is the acceptance test)
        names = ["in/conv/w", "res0/film_scale/w", "down1/conv/w", "out/conv/w",
                 "cond_vec/dense/w", "embed/dense0/w", "ures0/conv2/b"]
        sub = {k: params[k] for k in names}

        def run(arrs):
            merged = dict(params)
            merged.update(arrs)
            leaves = as_leaves(merged)
            out = velocity_forward(leaves, yhat, tau, mean, std, arch)
            return ad.mean(ad.square(out)), leaves

        loss, leaves = run(sub)
        backward(loss)
        analytic = {k: leaves[k].grad for k in sub}
        numeric = finite_diff_grads(lambda a: float(run(a)[0].data), sub)
        assert rel_error(analytic, numeric) < 1e-4


class TestDenoiserForward:
    def test_precond_coefficients_at_unit_sigma(self):
        c_skip, c_out, c_in, c_noise = precond_coeffs(np.array([1.0]))
        assert abs(c_skip[0] - 0.5) < 1e-15
        assert abs(c_out[0] - 1.0 / np.sqrt(2.0)) < 1e-15
        assert abs(c_in[0] - 1.0 / np.sqrt(2.0)) < 1e-15
        assert abs(c_noise[0]) < 1e-15

    def test_precond_identities(self):
        sigma = np.logspace(-4, np.log10(80.0), 37)
        c_skip, c_out, c_in, c_noise = precond_coeffs(sigma)
        np.testing.assert_allclose(c_in ** 2 * (1 + sigma ** 2), 1.0, atol=1e-12)
        np.testing.assert_allclose(c_out ** 2 * (1 + sigma ** 2), sigma ** 2, rtol=1e-12)
        np.testing.assert_allclose(c_skip * (1 + sigma ** 2), 1.0, atol=1e-12)
        np.testing.assert_allclose(c_noise, 0.25 * np.log(sigma), atol=1e-12)

    def test_large_sigma_limits(self):
        c_skip, c_out, _, _ = precond_coeffs(np.array([1e6]))
        assert c_skip[0] < 1e-6
        assert abs(c_out[0] - 1.0) < 1e-6

    def test_zero_network_returns_skip_scaled_input(self):
        v, t = 2, 3
        arch = denoiser_arch(v, t, levels=(4, 8))
        params = init_params(np.random.default_rng(12), arch)
        rng = np.random.default_rng(13)
        z = rng.standard_normal((2, t, 4, 4, v))
        sigma = np.array([1.0, 3.0])
        out = denoiser_forward(as_leaves(params), z, sigma, np.zeros_like(z), arch).data
        c_skip = 1.0 / (1.0 + sigma ** 2)
        np.testing.assert_allclose(out, c_skip[:, None, None, None, None] * z, atol=1e-12)

    def test_nonpositive_sigma_rejected(self):
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(np.random.default_rng(14), arch)
        z = np.zeros((1, 2, 4, 4, 1))
        with pytest.raises(ValueError):
            denoiser_forward(as_leaves(params), z, np.array([0.0]), z, arch)

    def test_gradient_check(self):
        v, t = 1, 2
        arch = denoiser_arch(v, t, levels=(4, 8), )
        rng = np.random.default_rng(15)
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        z = rng.standard_normal((2, t, 4, 4, v))
        cond = rng.standard_normal((2, t, 4, 4, v))
        sigma = np.array([0.5, 2.0])
        names = ["in/conv/w", "out/conv/w", "res1/film_shift/w", "embed/dense1/w"]
        sub = {k: params[k] for k in names}

        def run(arrs):
            merged = dict(params)
            merged.update(arrs)
            leaves = as_leaves(merged)
            out = denoiser_forward(leaves, z, sigma, cond, arch)
            return ad.mean(ad.square(out)), leaves

        loss, leaves = run(sub)
        backward(loss)
        analytic = {k: leaves[k].grad for k in sub}
        numeric = finite_diff_grads(lambda a: float(run(a)[0].data), sub)
        assert rel_error(analytic, numeric) < 1e-4

    def test_daily_conditioning_equals_conv_of_repeated_windows(self):
        # the demo's SR input conv: 3 daily slices against the 144-channel
        # conditioning half of a 36-step window, whose 12 steps a day repeat the day
        arch = denoiser_arch(4, 36, levels=(16, 32, 64))
        rng = np.random.default_rng(24)
        params = init_params(rng, arch)
        daily = rng.standard_normal((4, 3, 8, 8, 4))
        g = rng.standard_normal((4, 8, 8, 16))
        outs, grads = [], []
        for cond in (daily, np.repeat(daily, 12, axis=1)):
            leaves = as_leaves(params)
            out = denoiser_cond(leaves, cond, arch)
            backward(ad.mean(out * g))
            outs.append(out.data)
            grads.append(leaves["in/conv/w"].grad)
        for got, want in (outs, grads):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the state half gets no gradient from the conditioning half
        assert not grads[0][:, :, :144].any()

    def test_daily_conditioning_gradient_check(self):
        v, t = 1, 4
        arch = denoiser_arch(v, t, levels=(4, 8))
        rng = np.random.default_rng(25)
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        z = rng.standard_normal((2, t, 4, 4, v))
        daily = rng.standard_normal((2, 2, 4, 4, v))   # 2 slices of 2 steps
        sigma = np.array([0.5, 2.0])
        sub = {"in/conv/w": params["in/conv/w"]}

        def run(arrs):
            leaves = as_leaves({**params, **arrs})
            return ad.mean(ad.square(denoiser_forward(leaves, z, sigma, daily, arch))), leaves

        loss, leaves = run(sub)
        backward(loss)
        numeric = finite_diff_grads(lambda a: float(run(a)[0].data), sub)
        assert rel_error({"in/conv/w": leaves["in/conv/w"].grad}, numeric) < 1e-4

    def test_conditioning_slices_not_dividing_window_rejected(self):
        arch = denoiser_arch(1, 4, levels=(4, 8))
        params = init_params(np.random.default_rng(26), arch)
        with pytest.raises(ValueError, match="not 3 groups"):
            denoiser_cond(params, np.zeros((1, 3, 4, 4, 1)), arch)


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        params = {"a": np.ones(3), "b": np.full((2, 2), 2.0)}
        before = {k: v.copy() for k, v in params.items()}
        state = OptimizerState(Schedule(peak_lr=0.1, warmup_steps=1, total_steps=10))
        adam_step(params, state, {k: np.zeros_like(v) for k, v in params.items()})
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_global_norm_clipping_scale(self):
        grads = {"a": np.array([6.0])}
        params = {"a": np.array([0.0])}
        state = OptimizerState(Schedule(peak_lr=1.0, warmup_steps=1, total_steps=10),
                               clip_norm=0.6)
        adam_step(params, state, grads)
        assert state.grad_norm == 6.0
        # after clipping the effective grad is 0.6 = 6.0 * 0.1; Adam normalizes
        # magnitude away, so instead check the stored first moment
        assert abs(state.m["a"][0] - 0.1 * 0.6) < 1e-12

    def test_moments_updated_in_place_bitwise(self):
        rng = np.random.default_rng(17)
        params = {"a": rng.standard_normal(4)}
        state = OptimizerState(Schedule(), clip_norm=1e9)
        state.ensure_buffers(params)
        m, v = state.m["a"], state.v["a"]
        for _ in range(3):
            g = rng.standard_normal(4)
            m_ref = BETA1 * m + (1.0 - BETA1) * g
            v_ref = BETA2 * v + (1.0 - BETA2) * g ** 2
            adam_step(params, state, {"a": g})
            assert state.m["a"] is m and state.v["a"] is v
            assert m.tobytes() == m_ref.tobytes() and v.tobytes() == v_ref.tobytes()

    def test_flat_update_matches_per_tensor_formula_bitwise(self):
        rng = np.random.default_rng(18)
        shapes = {"w": (3, 3, 2, 4), "b": (4,), "d": (5, 3)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        state = OptimizerState(Schedule(peak_lr=0.05, warmup_steps=2, total_steps=6),
                               clip_norm=1e3)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for step in range(1, 6):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            lr = adam_step(params, state, grads)
            assert lr == state.schedule.lr_at(step - 1) and state.grad_norm < state.clip_norm
            bc1, bc2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
            for k in sorted(ref):
                g = grads[k]
                m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
                v[k] = BETA2 * v[k] + (1.0 - BETA2) * g ** 2
                ref[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + EPS)
                assert params[k].tobytes() == ref[k].tobytes(), k
                assert state.m[k].tobytes() == m[k].tobytes()
                assert state.v[k].tobytes() == v[k].tobytes()

    def test_blocks_match_one_flat_vector_formula_bitwise(self):
        # 70 000 elements are a block of their own, beyond BLOCK_ELEMENTS; the
        # 30 000 and 5 after them share a second one. Unclipped, every block
        # updates as the whole flat vector would, and only the norm's sum
        # runs in another order.
        rng = np.random.default_rng(23)
        shapes = {"w": (70_000,), "d": (100, 300), "b": (5,)}
        assert shapes["w"][0] > BLOCK_ELEMENTS >= 30_005
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        p = np.concatenate([v.ravel() for v in params.values()])
        m, v = np.zeros_like(p), np.zeros_like(p)
        state = OptimizerState(Schedule(peak_lr=0.05, warmup_steps=2, total_steps=6),
                               clip_norm=1e9)
        for step in range(1, 5):
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            lr = adam_step(params, state, grads)
            g = np.concatenate([grads[k].ravel() for k in shapes])
            norm = np.sqrt(np.square(g).sum())
            assert abs(state.grad_norm - norm) <= 1e-15 * norm
            bc1, bc2 = 1.0 - BETA1 ** step, 1.0 - BETA2 ** step
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g ** 2
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            flat = {name: np.concatenate([d[k].ravel() for k in shapes])
                    for name, d in (("p", params), ("m", state.m), ("v", state.v))}
            assert flat["p"].tobytes() == p.tobytes()
            assert flat["m"].tobytes() == m.tobytes() and flat["v"].tobytes() == v.tobytes()

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj if obj.base is None else obj.base
            elif isinstance(obj, dict):
                yield from (a for x in obj.values() for a in arrays(x))
            elif isinstance(obj, (tuple, list)):
                yield from (a for x in obj for a in arrays(x))

        # parameters and two moments; the scratch holds one block
        held = {id(a): a for f in dataclasses.fields(state)
                for a in arrays(getattr(state, f.name))}
        assert sorted(a.size for a in held.values() if a.size >= p.size) == [p.size] * 3
        assert sum(a.size for a in held.values()) == 3 * p.size + 2 * 70_000

    def test_moments_are_views_of_one_buffer_each(self):
        params = {"a": np.zeros((2, 3)), "b": np.zeros(4), "c": np.zeros((1, 2, 2))}
        state = OptimizerState(Schedule())
        state.ensure_buffers(params)
        for moments in (state.m, state.v):
            base = moments["a"].base
            assert base is not None and base.size == 14
            assert all(moments[k].base is base and moments[k].shape == params[k].shape
                       for k in params)
        assert state.m["a"].base is not state.v["a"].base

    def test_grad_norm_recorded_before_clipping(self):
        params = {"a": np.zeros(2), "b": np.zeros(1)}
        state = OptimizerState(Schedule(), clip_norm=1.0)
        adam_step(params, state, {"a": np.array([3.0, 0.0]), "b": np.array([4.0])})
        assert state.grad_norm == 5.0
        assert state.m["a"][0] == pytest.approx(0.1 * 3.0 / 5.0, rel=1e-15)

    def test_separate_arrays_and_fresh_state_each_call(self):
        # how the benchmark's kernel sheet drives Adam: dicts of separate arrays,
        # a fresh state, repeated calls, and ensure_buffers for a checkpoint
        rng = np.random.default_rng(19)
        params = {k: rng.standard_normal(s) for k, s in (("w", (3, 3, 4, 8)), ("b", (8,)))}
        grads = {k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()}
        state = OptimizerState(Schedule(), clip_norm=0.6)
        before = {k: v.copy() for k, v in params.items()}
        for _ in range(3):
            adam_step(params, state, grads)
        assert state.step == 3
        assert all(np.isfinite(params[k]).all() and (params[k] != before[k]).any()
                   for k in params)
        fresh = OptimizerState(Schedule())
        fresh.ensure_buffers(params)
        assert fresh.step == 0 and set(fresh.m) == set(params)
        assert all(not fresh.m[k].any() and not fresh.v[k].any() for k in params)

    def test_quadratic_bowl_convergence(self):
        rng = np.random.default_rng(16)
        target = rng.standard_normal(5)
        params = {"x": np.zeros(5)}
        state = OptimizerState(Schedule(peak_lr=0.05, end_lr=1e-4, warmup_steps=50,
                                        total_steps=2000))
        for _ in range(2000):
            grads = {"x": 2.0 * (params["x"] - target)}
            adam_step(params, state, grads)
        assert np.abs(params["x"] - target).max() < 1e-3

    def test_non_finite_grads_rejected(self):
        params = {"a": np.zeros(2)}
        state = OptimizerState(Schedule())
        with pytest.raises(DivergenceError):
            adam_step(params, state, {"a": np.array([np.nan, 0.0])})

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, 1e200])
    def test_infinite_or_overflowing_grads_rejected(self, bad):
        params = {"a": np.zeros(2), "b": np.zeros(1)}
        state = OptimizerState(Schedule())
        with pytest.raises(DivergenceError):
            adam_step(params, state, {"a": np.array([0.0, 1.0]), "b": np.array([bad])})
        assert state.step == 0 and not params["b"].any()

    def test_params_are_views_of_one_flat_vector(self):
        rng = np.random.default_rng(20)
        params = {"w": rng.standard_normal((3, 3, 2, 4)), "b": rng.standard_normal(4)}
        before = {k: v.copy() for k, v in params.items()}
        state = OptimizerState(Schedule())
        adam_step(params, state, {k: np.zeros_like(v) for k, v in params.items()})
        base = params["w"].base
        assert base is not None and base.size == 76 and params["b"].base is base
        assert all(params[k].tobytes() == before[k].tobytes() for k in params)
        views = dict(params)
        adam_step(params, state, {k: np.ones_like(v) for k, v in params.items()})
        assert all(params[k] is views[k] for k in params)
        assert (params["b"] != before["b"]).all()

    def test_fresh_dict_with_same_keys_is_rebound(self):
        # stepping a fresh dict equals writing its values into the bound
        # arrays and stepping those: the state's vector never goes stale
        rng = np.random.default_rng(21)
        shapes = {"w": (2, 3), "b": (3,)}
        init = {k: rng.standard_normal(s) for k, s in shapes.items()}
        grads = [{k: rng.standard_normal(s) for k, s in shapes.items()} for _ in range(2)]
        fresh = {k: rng.standard_normal(s) for k, s in shapes.items()}
        runs = []
        for rebind in (True, False):
            params = {k: v.copy() for k, v in init.items()}
            state = OptimizerState(Schedule(peak_lr=0.1, warmup_steps=1, total_steps=10))
            adam_step(params, state, grads[0])
            if rebind:
                stepped = {k: v.copy() for k, v in fresh.items()}
            else:
                stepped = params
                for k in params:
                    np.copyto(params[k], fresh[k])
            adam_step(stepped, state, grads[1])
            assert all(stepped[k].base is params[k].base is not None for k in shapes)
            runs.append(stepped)
        assert all(runs[0][k].tobytes() == runs[1][k].tobytes() for k in shapes)

    def test_schedule_shape(self):
        sched = Schedule(peak_lr=1e-3, end_lr=1e-6, warmup_steps=100, total_steps=1000)
        assert sched.lr_at(0) == pytest.approx(1e-5)
        assert sched.lr_at(99) == pytest.approx(1e-3)
        assert sched.lr_at(100) == pytest.approx(1e-3)
        assert sched.lr_at(999) == pytest.approx(1e-6, rel=1e-2)
        lrs = [sched.lr_at(s) for s in range(100, 1000)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))


class TestDeterminismAndCheckpoint:
    def test_training_loop_determinism(self):
        def run():
            arch, params, yhat, tau, mean, std = small_velocity_setup(seed=17)
            state = OptimizerState(Schedule(peak_lr=1e-3, warmup_steps=2, total_steps=20))
            target = np.zeros_like(yhat)
            for _ in range(20):
                _, grads = loss_and_grads(lambda leaves: ad.mean(ad.square(
                    velocity_forward(leaves, yhat, tau, mean, std, arch) - Tensor(target + 1.0))),
                    params)
                adam_step(params, state, grads)
            return params

        a = run()
        b = run()
        for k in a:
            assert a[k].tobytes() == b[k].tobytes()

    def test_checkpoint_round_trip(self, tmp_path):
        _, params, *_ = small_velocity_setup(seed=18)
        meta = {"kind": "velocity", "step": 7}
        save_checkpoint(tmp_path / "ckpt", params, meta)
        arrays, meta2 = load_checkpoint(tmp_path / "ckpt", "velocity", lambda *doc: doc)
        assert meta2 == meta
        assert set(arrays) == set(params)
        for k in params:
            assert arrays[k].tobytes() == params[k].tobytes()

    def test_truncated_normal_bounds(self):
        rng = np.random.default_rng(19)
        x = truncated_normal(rng, (2000,), std=0.02)
        assert np.abs(x).max() <= 0.04 + 1e-12
        assert 0.01 < x.std() < 0.03


def tape_nodes(out):
    """Every node reachable from `out` through parents, leaves and constants
    included: the count the benchmark's kernel sheet reports."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


class TestUnetShapes:
    def test_demo_forward_tape_sizes(self):
        # one training forward of each net at the demo architectures; a change
        # that adds nodes to the tape has to update these counts
        rng = np.random.default_rng(23)
        arch = velocity_arch(4, levels=(16, 32))
        leaves = as_leaves(init_params(rng, arch))
        y = rng.standard_normal((3, 2, 2, 4))
        assert tape_nodes(velocity_forward(leaves, y, rng.random(3), y, y ** 2, arch)) == 70
        arch = denoiser_arch(4, 36, levels=(16, 32, 64))
        leaves = as_leaves(init_params(rng, arch))
        z = rng.standard_normal((2, 36, 4, 4, 4))
        assert tape_nodes(denoiser_forward(leaves, z, np.ones(2), z, arch)) == 113


    def test_output_shape_matches_out_channels(self):
        arch = ArchConfig(in_channels=5, out_channels=3, levels=(4, 8, 16))
        params = init_params(np.random.default_rng(20), arch)
        leaves = as_leaves(params)
        x = Tensor(np.random.default_rng(21).standard_normal((2, 8, 8, 5)))
        e = fourier_embed(leaves, np.array([0.1, 0.2]))
        out = unet_forward(leaves, x, e, arch)
        assert out.shape == (2, 8, 8, 3)

    @pytest.mark.parametrize("levels, side", [((4, 8), 1), ((4, 8, 16), 2), ((4, 8, 16), 6)])
    def test_grid_not_halving_per_level_refused(self, levels, side):
        # a side not divisible by 2^(levels - 1): an upsampled level would differ from
        # its skip, which numpy broadcasts when the skip's side is 1
        arch = ArchConfig(in_channels=2, out_channels=2, levels=levels)
        params = init_params(np.random.default_rng(24), arch)
        x = np.zeros((1, side, side, 2))
        with pytest.raises(ValueError, match="does not match skip") as exc:
            unet_forward(params, x, fourier_embed(params, np.array([0.1])), arch)
        assert f"divisible by 2^(levels - 1) = {2 ** (len(levels) - 1)}" in str(exc.value)

    def test_demo_convs_dispatch_table(self, monkeypatch):
        # which conv2d kernel runs at the demo architectures, per call:
        # (kernel, image side, rows, input channels)
        runs = []

        def recording(name):
            kernel = getattr(ad, name)

            def run(x, w, b, stride):
                runs.append((name, x.shape[1], x.shape[0], x.shape[3]))
                return kernel(x, w, b, stride)
            return run

        for name in ("_conv2d_unrolled", "_conv2d_gathered", "_conv2d_taps"):
            monkeypatch.setattr(ad, name, recording(name))
        rng = np.random.default_rng(22)
        # velocity net on the 2x2 coarse grid: 32 training rows, 375 transport rows
        arch = velocity_arch(4, levels=(16, 32))
        params = init_params(rng, arch)
        for rows in (32, 375):
            y = rng.standard_normal((rows, 2, 2, 4))
            velocity_forward(params, y, rng.random(rows), y, y ** 2, arch)
            assert len(runs) == 10 and {r[0] for r in runs} == {"_conv2d_unrolled"}
            runs.clear()
        # SR denoiser on 8x8 windows of 36 steps: 4 training rows unguided, and
        # 4 guided sampling windows, whose body runs on 8 rows
        taps, gathered = "_conv2d_taps", "_conv2d_gathered"
        arch = denoiser_arch(4, 36, levels=(16, 32, 64))
        params = init_params(rng, arch)
        z = rng.standard_normal((4, 36, 8, 8, 4))
        denoiser_forward(params, z, np.ones(4), z, arch)
        assert Counter(runs) == {(taps, 8, 4, 144): 2, (gathered, 8, 4, 16): 6,
                                 (gathered, 8, 4, 32): 1, (gathered, 4, 4, 32): 5,
                                 (gathered, 4, 4, 64): 1, (gathered, 2, 4, 64): 2}
        runs.clear()
        denoiser_forward(params, z, np.ones(4), z, arch, guidance=1.0)
        # up1's gathered matrix, 8·64·9·32 elements, is over the gather limit
        assert Counter(runs) == {(taps, 8, 4, 144): 2, (gathered, 8, 8, 16): 5,
                                 (taps, 8, 8, 32): 1, (gathered, 4, 8, 32): 5,
                                 (gathered, 4, 8, 64): 1, (gathered, 2, 8, 64): 2,
                                 (gathered, 8, 4, 16): 1}
