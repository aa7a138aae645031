import numpy as np
import pytest

from downgen import multidiffusion
from downgen.diffusion import NoiseSchedule, SRModel, SRNormalization, cfg_denoise, sample
from downgen.grid import Climatology, EnsembleStats, coarsen
from downgen.multidiffusion import (
    WindowLayout,
    combine,
    consolidate,
    consolidate_pair,
    partition,
    sample_long,
    shared_noise,
)
from downgen.nets import denoiser_arch, init_params
from downgen.synthdata import SynthConfig, gen_fine_ensemble


class TestPartition:
    def test_single_window(self):
        layout = partition(36, 36, 12)
        assert layout.n_windows == 1
        assert layout.starts == [0]
        assert layout.total_len == 36

    def test_sixteen_windows_total_396(self):
        layout = partition(396, 36, 12)
        assert layout.n_windows == 16
        assert layout.total_len == 396

    def test_two_windows_geometry(self):
        layout = partition(60, 36, 12)
        assert layout.n_windows == 2
        assert layout.starts == [0, 24]
        # shared steps are [24, 36)
        assert layout.starts[1] == 24 and layout.starts[0] + layout.window_len == 36

    def test_length_scaling_formula(self):
        for m in range(1, 9):
            total = m * 24 + 12
            assert partition(total, 36, 12).n_windows == m

    def test_inconsistent_length_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            partition(50, 36, 12)
        with pytest.raises(ValueError, match="exceed"):
            partition(36, 36, 36)


class TestSharedNoise:
    def test_overlap_slices_bitwise_equal(self):
        layout = partition(60, 36, 12)
        _, slices = shared_noise(layout, np.random.default_rng(0), (4, 4, 2))
        left = slices[0][-12:]
        right = slices[1][:12]
        assert left.tobytes() == right.tobytes()

    def test_non_overlap_uncorrelated(self):
        layout = partition(60, 36, 12)
        _, slices = shared_noise(layout, np.random.default_rng(1), (24, 36, 1))
        a = slices[0][:12].ravel()
        b = slices[1][12:24].ravel()
        assert a.size >= 10000
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05

    def test_single_window_plain_draw(self):
        layout = partition(36, 36, 12)
        field, slices = shared_noise(layout, np.random.default_rng(2), (2,))
        expect = np.random.default_rng(2).standard_normal((36, 2))
        np.testing.assert_array_equal(field, expect)
        np.testing.assert_array_equal(slices[0], expect)


class TestConsolidate:
    def test_identical_outputs_unchanged(self):
        rng = np.random.default_rng(3)
        layout = partition(60, 36, 12)
        d = rng.standard_normal((36, 2, 2, 1))
        left = d.copy()
        right = np.concatenate([d[-12:], rng.standard_normal((24, 2, 2, 1))])
        before = right[:12].copy()
        consolidate_pair(left, right, 12)
        np.testing.assert_array_equal(left, d)
        np.testing.assert_array_equal(right[:12], before)

    def test_pair_average(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((36, 2))
        b = rng.standard_normal((36, 2))
        ea = a[-12:].copy()
        eb = b[:12].copy()
        consolidate_pair(a, b, 12)
        np.testing.assert_allclose(a[-12:], 0.5 * (ea + eb), atol=0)
        assert a[-12:].tobytes() == b[:12].tobytes()

    def test_three_windows_middle_both_edges(self):
        rng = np.random.default_rng(5)
        layout = partition(84, 36, 12)
        ds = [rng.standard_normal((36, 2)) for _ in range(3)]
        orig = [d.copy() for d in ds]
        consolidate(ds, layout)
        # middle window: left edge with window 0, right edge with window 2,
        # each an average of the pre-update values
        np.testing.assert_array_equal(ds[1][:12], 0.5 * (orig[0][-12:] + orig[1][:12]))
        np.testing.assert_array_equal(ds[1][-12:], 0.5 * (orig[1][-12:] + orig[2][:12]))
        # interior untouched
        np.testing.assert_array_equal(ds[1][12:24], orig[1][12:24])


class TestCombine:
    def test_overlap_disagreement_detected(self):
        layout = partition(60, 36, 12)
        zs = [np.zeros((36, 2)), np.ones((36, 2))]
        with pytest.raises(AssertionError, match="diverged"):
            combine(zs, layout)

    def test_takes_left_window_values(self):
        layout = partition(60, 36, 12)
        a = np.arange(72, dtype=float).reshape(36, 2)
        b = np.concatenate([a[-12:], 100.0 + np.arange(48, dtype=float).reshape(24, 2)])
        out = combine([a, b], layout)
        np.testing.assert_array_equal(out[:36], a)
        np.testing.assert_array_equal(out[36:], b[12:])


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
    stats = EnsembleStats(coarse.data.mean(axis=0), coarse.data.std(axis=0) + 0.1)
    norm = SRNormalization(clim, stats)
    model = SRModel(params, arch, norm, NoiseSchedule(n_grid=24), spec, 3)
    return model, coarse


class TestSampleLong:
    def test_m1_bitwise_equals_plain_sampler(self, untrained_model):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 3 * 24)
        a = sample(model, y, guidance=1.0, rng=np.random.default_rng(7))
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

    def test_wrong_conditioning_length_rejected(self, untrained_model):
        model, coarse = untrained_model
        y = coarse.time_slice(0, 4 * 24)
        with pytest.raises(ValueError, match="layout needs"):
            sample_long(model, y, 2)

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
