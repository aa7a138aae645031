import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downgen import multidiffusion, nets
from downgen.cli import _check_config
from downgen.config import ConfigError, default_config
from downgen.diffusion import (
    NoiseSchedule,
    SRModel,
    assemble_output,
    cfg_denoise,
    prepare_cond,
    sde_step_exponential,
)
from downgen.grid import Climatology, coarsen
from downgen.multidiffusion import (
    WindowLayout,
    consolidate,
    sample_chain,
    sample_long,
)
from downgen.nets import DivergenceError, denoiser_arch, denoiser_cond, init_params
from downgen.synthdata import SynthConfig, gen_fine_ensemble


def _sample_config(windows, length_days, window_days=3):
    cfg = default_config()
    cfg["sample"].update(windows=windows, length_days=length_days, start_day=0)
    cfg["sr"]["window_days"] = window_days
    cfg["synth"]["n_days"] = cfg["synth"]["train_days"] + length_days   # the window fits
    return cfg


class TestPartition:
    def test_single_window(self):
        layout = WindowLayout(1, 36, 12)
        assert layout.total_len == 36
        np.testing.assert_array_equal(layout.windows(np.arange(36)), [np.arange(36)])

    def test_sixteen_windows_total_396(self):
        assert WindowLayout(16, 36, 12).total_len == 396

    def test_two_windows_geometry(self):
        layout = WindowLayout(2, 36, 12)
        assert layout.total_len == 60
        # shared steps are [24, 36)
        np.testing.assert_array_equal(layout.windows(np.arange(60)),
                                      [np.arange(0, 36), np.arange(24, 60)])

    def test_length_scaling_formula(self):
        for m in range(1, 9):
            assert WindowLayout(m, 36, 12).total_len == m * 24 + 12
            _check_config(_sample_config(m, 2 * m + 1))   # in days: 3-day windows

    def test_inconsistent_length_rejected(self):
        with pytest.raises(ConfigError, match="cover 5 days, not sample.length_days = 6"):
            _check_config(_sample_config(2, 6))
        with pytest.raises(ConfigError, match="sr.window_days = 1 .*overlap must satisfy"):
            _check_config(_sample_config(2, 1, window_days=1))
        with pytest.raises(ValueError, match="overlap must satisfy"):
            WindowLayout(1, 36, 36)


class TestConsolidate:
    def test_identical_outputs_unchanged(self):
        rng = np.random.default_rng(3)
        layout = WindowLayout(2, 36, 12)
        traj = rng.standard_normal((60, 2, 2, 1))
        out = consolidate(np.stack([traj[:36], traj[24:]]), layout)
        np.testing.assert_array_equal(out, traj)

    def test_pair_average(self):
        rng = np.random.default_rng(4)
        layout = WindowLayout(2, 36, 12)
        ds = rng.standard_normal((2, 36, 2))
        out = consolidate(ds, layout)
        assert out[24:36].tobytes() == (0.5 * (ds[0, -12:] + ds[1, :12])).tobytes()
        np.testing.assert_array_equal(out[:24], ds[0, :24])
        np.testing.assert_array_equal(out[36:], ds[1, 12:])

    def test_three_windows_middle_both_edges(self):
        rng = np.random.default_rng(5)
        layout = WindowLayout(3, 36, 12)
        ds = rng.standard_normal((3, 36, 2))
        orig = ds.copy()
        out = consolidate(ds, layout)
        mid = layout.windows(out)[1]
        # middle window: left edge with window 0, right edge with window 2
        np.testing.assert_array_equal(mid[:12], 0.5 * (orig[0][-12:] + orig[1][:12]))
        np.testing.assert_array_equal(mid[-12:], 0.5 * (orig[1][-12:] + orig[2][:12]))
        # interior untouched, and the input is not modified
        np.testing.assert_array_equal(mid[12:24], orig[1][12:24])
        np.testing.assert_array_equal(ds, orig)

    @settings(max_examples=60, deadline=None)
    @given(n_windows=st.integers(1, 6), overlap=st.integers(1, 5),
           extra=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_windows_and_stitch_property(self, n_windows, overlap, extra, seed):
        window_len = 2 * overlap + extra
        layout = WindowLayout(n_windows, window_len, overlap)
        starts = [j * layout.stride for j in range(n_windows)]
        assert starts[-1] + window_len == layout.total_len
        ds = np.random.default_rng(seed).standard_normal((n_windows, window_len, 3))
        out = consolidate(ds, layout)
        assert out.shape == (layout.total_len, 3)
        owners = np.zeros(layout.total_len, dtype=int)
        for s in starts:
            owners[s: s + window_len] += 1
        assert owners.max() <= 2
        for j, s in enumerate(starts):
            for t in range(window_len):
                if owners[s + t] == 1:
                    assert out[s + t].tobytes() == ds[j, t].tobytes()
                elif t < overlap:
                    shared = 0.5 * (ds[j - 1, window_len - overlap + t] + ds[j, t])
                    assert out[s + t].tobytes() == shared.tobytes()
        views = layout.windows(out)
        assert views.shape == ds.shape
        for j, s in enumerate(starts):
            np.testing.assert_array_equal(views[j], out[s: s + window_len])


class TestSampleChain:
    """The chain on a stub denoiser that returns known arrays, one per call."""

    def test_first_step_first_order_then_2m_estimate(self, monkeypatch):
        sig = NoiseSchedule(n_grid=4).step_sigmas()
        outs = np.random.default_rng(40).standard_normal((3, 5))
        calls, steps, states = [], [], []

        def stub(z, sigma):
            calls.append(sigma)
            return outs[len(calls) - 1]

        def recording(z, sigma_hi, sigma_lo, d, eps):
            steps.append(d)
            return sde_step_exponential(z, sigma_hi, sigma_lo, d, eps)

        monkeypatch.setattr(multidiffusion, "sde_step_exponential", recording)
        sample_chain(stub, (5,), sig, np.random.default_rng(41),
                     on_step=lambda i, z: states.append(z))
        assert calls == list(sig[:-1])   # one denoiser call per step
        rng = np.random.default_rng(41)
        z0 = rng.standard_normal(5) * sig[0]
        first = sde_step_exponential(z0, sig[0], sig[1], outs[0], rng.standard_normal(5))
        assert states[0].tobytes() == first.tobytes()
        h = np.log(sig[:-1] / sig[1:])
        for i in (1, 2):
            est = outs[i] + (h[i] / (2.0 * h[i - 1])) * (outs[i] - outs[i - 1])
            assert steps[i].tobytes() == est.tobytes()

    def test_repeated_sigma_refused_before_any_denoiser_call(self):
        calls = []

        def stub(z, sigma):
            calls.append(sigma)
            return np.zeros_like(z)

        with pytest.raises(ValueError, match="not strictly decreasing"):
            sample_chain(stub, (3,), np.array([4.0, 2.0, 2.0, 1.0]), np.random.default_rng(0))
        assert calls == []


@pytest.fixture(scope="module")
def untrained_model():
    """SR model with random (untrained) weights on a small grid."""
    cfg = SynthConfig(nx=8, ny=8, n_days=40, rng_seed=30,
                      var_bases=(0.0, 50.0, 50.0, 0.0),
                      var_scales=(1.0, 1.0, 1.0, 1.0))
    truth = gen_fine_ensemble(cfg)
    spec = cfg.downsample
    coarse = coarsen(truth, spec)
    rng = np.random.default_rng(31)
    arch = denoiser_arch(4, 36, levels=(8, 16))
    params = init_params(rng, arch)
    for k in params:
        params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.02
    n_groups = 40 * 12
    clim = Climatology(40, 12,
                       np.zeros((n_groups, 8, 8, 4)), np.ones((n_groups, 8, 8, 4)))
    stats = Climatology(1, 1, coarse.data.mean(axis=0, keepdims=True),
                        coarse.data.std(axis=0, keepdims=True) + 0.1)
    model = SRModel(params, arch, clim, stats, NoiseSchedule(n_grid=24), spec, 3)
    return model, coarse


class TestSampleLong:
    def test_m1_bitwise_equals_plain_sampler(self, untrained_model):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 3 * 24)
        cond = prepare_cond(y, model.cond_stats, model.spec)   # daily: [3, 8, 8, 4]
        draw = sample_chain(
            lambda z, s: cfg_denoise(model.params, model.arch, z, s, cond, 1.0),
            (36,) + cond.shape[1:], model.schedule.step_sigmas(), np.random.default_rng(7))
        a = assemble_output(y, draw, model.residual_clim, model.spec)
        b = sample_long(model, y, 1, guidance=1.0, rng=np.random.default_rng(7))
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("m", [2, 4])
    def test_overlap_bitwise_identical_after_every_step(self, untrained_model, m):
        model, coarse = untrained_model
        days = 2 * m + 1
        y = coarse.time_slice(0, days * 24)
        overlap = 12
        checked = []

        def on_step(i, zs):
            for j in range(len(zs) - 1):
                assert zs[j][-overlap:].tobytes() == zs[j + 1][:overlap].tobytes()
            checked.append(i)

        sample_long(model, y, m, guidance=1.0, rng=np.random.default_rng(8),
                    on_step=on_step)
        assert len(checked) == model.schedule.n_grid - 1

    def test_deterministic(self, untrained_model):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 5 * 24)
        a = sample_long(model, y, 2, rng=np.random.default_rng(9))
        b = sample_long(model, y, 2, rng=np.random.default_rng(9))
        assert a.data.tobytes() == b.data.tobytes()

    def test_non_finite_denoiser_output_names_grid_index(self, untrained_model,
                                                         monkeypatch):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 5 * 24)
        calls = []

        def poisoned(params, arch, zs, sigma, conds, guidance):
            ds = cfg_denoise(params, arch, zs, sigma, conds, guidance)
            if len(calls) == 3:
                ds[1, 30, 0, 0, 0] = np.nan
            calls.append(sigma)
            return ds

        monkeypatch.setattr(multidiffusion, "cfg_denoise", poisoned)
        with pytest.raises(DivergenceError, match="^non-finite sampler state at grid index 3$"):
            sample_long(model, y, 2, rng=np.random.default_rng(11))
        assert len(calls) == 4

    @pytest.mark.parametrize("n_grid, m", [(3, 1), (9, 2)])
    def test_conditioning_conv_once_per_call(self, untrained_model, monkeypatch, n_grid, m):
        model, coarse = untrained_model
        model = dataclasses.replace(model, schedule=NoiseSchedule(n_grid=n_grid))
        y = coarse.time_slice(0, (2 * m + 1) * 24)
        calls = []

        def counting(leaves, cond, arch):
            calls.append(cond.shape)
            return denoiser_cond(leaves, cond, arch)

        monkeypatch.setattr(multidiffusion, "denoiser_cond", counting)
        monkeypatch.setattr(nets, "denoiser_cond", counting)
        sample_long(model, y, m, guidance=1.0, rng=np.random.default_rng(12))
        assert calls == [(m, 3, 8, 8, 4)]   # daily windows

    def test_wrong_conditioning_length_rejected(self, untrained_model):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 4 * 24)
        with pytest.raises(ValueError, match="layout needs"):
            sample_long(model, y, 2, rng=np.random.default_rng(0))

    def test_batched_step_matches_per_window_calls(self, untrained_model, monkeypatch):
        # one batched denoiser call per step; batching may reorder GEMM sums
        model, coarse = untrained_model
        y = coarse.time_slice(0, 9 * 24)
        calls = []

        def recording(params, arch, zs, sigma, conds, guidance):
            ds = cfg_denoise(params, arch, zs, sigma, conds, guidance)
            calls.append((zs.copy(), sigma, conds, ds.copy()))
            return ds

        monkeypatch.setattr(multidiffusion, "cfg_denoise", recording)
        sample_long(model, y, 4, guidance=1.0, rng=np.random.default_rng(10))
        assert len(calls) == model.schedule.n_grid - 1
        zs, sigma, conds, batched = calls[len(calls) // 2]
        assert batched.shape == zs.shape == (4, 36, 8, 8, 4)
        single = np.stack([cfg_denoise(model.params, model.arch, z, sigma, c, 1.0)
                           for z, c in zip(zs, conds)])
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)
