import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from downgen import autodiff as ad, cli
from downgen.config import default_config, parse_config
from downgen.diffusion import (
    NoiseSchedule,
    SRTrainConfig,
    assemble_output,
    cfg_denoise,
    denoise_loss,
    fit_training_pair,
    load_sr,
    loss_weight,
    normalized_residual,
    perturb,
    save_sr,
    sde_step_exponential,
    sigma_steps_edm,
    train_sr,
)
from downgen.grid import (
    DAYS_PER_YEAR,
    DownsampleSpec,
    GridField,
    GridFormatError,
    coarsen,
    compute_climatology,
    cubic_upsample_space,
    interp_upsample,
    write_npy,
)
from downgen.multidiffusion import sample_chain, sample_long
from downgen.nets import as_leaves, denoiser_arch, denoiser_forward, init_params, load_checkpoint
from downgen.optim import OptimizerState, Schedule, adam_step
from downgen.synthdata import SynthConfig, gen_fine_ensemble

from dpmpp import estimate_3m
from gradcheck import finite_diff_grads, loss_and_grads, rel_error


def training_pair(x, spec, grouping):
    """`fit_training_pair`'s residual climatology and coarse field, with the
    normalized residual of every day of x from `normalized_residual`."""
    clim, coarse, up_days = fit_training_pair(x, spec, grouping)
    r_tilde = normalized_residual(x, up_days, clim, 0, len(up_days))
    return clim, r_tilde, coarse


def fine_field(data, dt_hours=2):
    t, nx, ny, nv = data.shape
    return GridField(data, 0, dt_hours, np.arange(nx, dtype=float),
                     30.0 + np.arange(ny, dtype=float),
                     tuple(f"v{i}" for i in range(nv)))


class TestSchedules:
    def test_edm_grid_endpoints(self):
        sig = sigma_steps_edm(256, 1e-4, 80.0, 7.0)
        assert sig[0] == pytest.approx(80.0, abs=1e-12)
        assert sig[-1] == pytest.approx(1e-4, rel=1e-12)

    def test_edm_grid_monotone_positive(self):
        sig = sigma_steps_edm(256, 1e-4, 80.0, 7.0)
        assert (sig > 0).all()
        assert (np.diff(sig) < 0).all()

    def test_tangent_boundaries_exact(self):
        sched = NoiseSchedule(kind="tangent")
        assert sched.tangent_sigma(0.0) == 0.0
        assert sched.tangent_sigma(1.0) == pytest.approx(80.0, abs=1e-12)

    def test_tangent_strictly_increasing(self):
        sched = NoiseSchedule(kind="tangent")
        tau = np.linspace(0.0, 1.0, 1000)
        sig = sched.tangent_sigma(tau)
        assert (np.diff(sig) > 0).all()

    def test_tangent_step_grid_usable(self):
        sched = NoiseSchedule(kind="tangent", n_grid=64)
        sig = sched.step_sigmas()
        assert sig[0] == pytest.approx(80.0, abs=1e-12)
        assert sig[-1] == sched.sigma_min
        assert (np.diff(sig) < 0).all()

    def test_loguniform_training_range(self):
        sched = NoiseSchedule()
        draws = sched.sample_train(np.random.default_rng(0), 10000)
        assert draws.min() >= 1e-4 and draws.max() <= 80.0
        # log-uniform: median of log ~ centre of the log range
        centre = 0.5 * (np.log(1e-4) + np.log(80.0))
        assert abs(np.median(np.log(draws)) - centre) < 0.2

    def test_loss_weight_positive_decreasing(self):
        sig = np.logspace(-4, np.log10(80), 100)
        w = loss_weight(sig)
        assert (w > 0).all()
        assert (np.diff(w) < 0).all()


class TestPerturb:
    def test_small_sigma_limit(self):
        rng = np.random.default_rng(1)
        z0 = rng.standard_normal((4, 4))
        eps = rng.standard_normal((4, 4))
        z = perturb(z0, 1e-12, eps)
        assert np.abs(z - z0).max() < 1e-10

    def test_variance_at_sigma_two(self):
        rng = np.random.default_rng(2)
        z = perturb(np.zeros(10000), 2.0, rng.standard_normal(10000))
        assert abs(z.var() - 4.0) < 0.2

    def test_fixed_eps_deterministic(self):
        z0 = np.ones((2, 2))
        eps = np.full((2, 2), 0.5)
        a = perturb(z0, 3.0, eps)
        b = perturb(z0, 3.0, eps)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, 2.5)

    def test_batched_sigma(self):
        z0 = np.zeros((3, 2, 2))
        eps = np.ones((3, 2, 2))
        out = perturb(z0, np.array([1.0, 2.0, 3.0]), eps)
        np.testing.assert_allclose(out[:, 0, 0], [1.0, 2.0, 3.0])


class TestSdeStep:
    def test_equal_sigmas_identity(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4))
        out = sde_step_exponential(z, 2.0, 2.0, rng.standard_normal((4, 4)),
                                   rng.standard_normal((4, 4)))
        np.testing.assert_array_equal(out, z)

    def test_sigma_lo_to_zero_limit(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal((4, 4))
        d = rng.standard_normal((4, 4))
        out = sde_step_exponential(z, 2.0, 1e-9, d, rng.standard_normal((4, 4)))
        assert np.abs(out - d).max() < 1e-8

    def test_coefficient_identity(self):
        for hi, lo in [(80.0, 50.0), (1.0, 0.3), (2e-4, 1e-4)]:
            r = lo ** 2 / hi ** 2
            assert r + (1.0 - r) == pytest.approx(1.0, abs=1e-15)

    def test_ordering_violation_rejected(self):
        z = np.zeros(3)
        with pytest.raises(ValueError):
            sde_step_exponential(z, 1.0, 2.0, z, z)
        with pytest.raises(ValueError):
            sde_step_exponential(z, 1.0, 0.0, z, z)


class TestResidualPairs:
    def _truth(self, n_days=8, nx=8, ny=8, seed=5):
        cfg = SynthConfig(nx=nx, ny=ny, n_days=n_days, rng_seed=seed,
                          var_bases=(0.0, 50.0, 50.0, 0.0),
                          var_scales=(1.0, 1.0, 1.0, 1.0))
        return gen_fine_ensemble(cfg)

    def test_time_constant_field_gives_zero_residual_normalized(self):
        rng = np.random.default_rng(6)
        pattern = rng.standard_normal((1, 8, 8, 2))
        x = fine_field(np.repeat(pattern, 48, axis=0))
        spec = DownsampleSpec(4, 12)
        _, r_tilde, _ = training_pair(x, spec, grouping=(1, 1))
        # residual equals its climatological mean everywhere -> normalized to 0
        # (tolerance: rounding amplified by the 1e-6 std floor)
        assert np.abs(r_tilde).max() < 1e-5

    def test_reconstruction_round_trip(self):
        x = self._truth(n_days=6)
        spec = DownsampleSpec(4, 12)
        clim, r_tilde, _ = training_pair(x, spec, grouping=(1, 12))
        coarse = coarsen(x, spec)
        up = interp_upsample(coarse, spec)
        times = x.time_coords
        recon = up.data + clim.lookup_mean(times) + clim.lookup_std(times) * r_tilde
        assert np.abs(recon - x.data).max() < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(coarse_nx=st.integers(1, 4), coarse_ny=st.integers(1, 4),
           factor=st.sampled_from([1, 2, 4]), steps_per_day=st.sampled_from([1, 4, 12]),
           n_days=st.integers(2, 6), n_vars=st.integers(1, 3), pooled_tod=st.booleans(),
           offset=st.floats(-300.0, 300.0), scale=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_assemble_output_inverts_fit_training_pair(self, coarse_nx, coarse_ny, factor,
                                                       steps_per_day, n_days, n_vars,
                                                       pooled_tod, offset, scale, seed):
        rng = np.random.default_rng(seed)
        shape = (n_days * steps_per_day, coarse_nx * factor, coarse_ny * factor, n_vars)
        x = fine_field(offset + scale * rng.standard_normal(shape), dt_hours=24 // steps_per_day)
        spec = DownsampleSpec(factor, steps_per_day)
        grouping = (1, 1 if pooled_tod else steps_per_day)
        clim, r_tilde, _ = training_pair(x, spec, grouping=grouping)
        out = assemble_output(coarsen(x, spec), r_tilde, clim, spec)
        assert np.abs(out.data - x.data).max() <= 1e-12 * np.abs(x.data).max()

    def test_normalized_residual_statistics(self):
        x = self._truth(n_days=60, seed=7)
        spec = DownsampleSpec(4, 12)
        _, r_tilde, _ = training_pair(x, spec, grouping=(1, 2))
        pixel_mean = r_tilde.mean(axis=0)
        pixel_std = r_tilde.std(axis=0)
        assert np.abs(pixel_mean).max() < 0.05
        assert np.abs(pixel_std - 1.0).max() < 0.05

    def test_residual_matches_out_of_place_expression_bitwise(self):
        # the residual is built in place on the upsampled field; it must equal
        # (x - upsample(coarsen(x)) - clim_mean) / clim_std as written out
        x = self._truth(n_days=10, seed=9)
        spec = DownsampleSpec(4, 12)
        clim, r_tilde, coarse = training_pair(x, spec, grouping=(1, 12))
        r = x.data - interp_upsample(coarsen(x, spec), spec).data
        expect = (r - clim.lookup_mean(x.time_coords)) / clim.lookup_std(x.time_coords)
        assert r_tilde.tobytes() == expect.tobytes()
        assert coarse.data.tobytes() == coarsen(x, spec).data.tobytes()

    @pytest.mark.parametrize("window_days", [1, 3])
    def test_windows_equal_slices_of_full_residual_bitwise(self, window_days):
        # train_sr builds each batch's windows alone. In 73 x 12 groups over a year,
        # days 0-4 and 5-9 fall in two day-of-year buckets, so a window at the first,
        # a middle or the last valid start day must equal those days of the residual
        # built over every day at once, each day normalized by its own group
        x = self._truth(n_days=DAYS_PER_YEAR, seed=10)
        spec = DownsampleSpec(4, 12)
        clim, coarse, up_days = fit_training_pair(x, spec, grouping=(73, 12))
        full = normalized_residual(x, up_days, clim, 0, DAYS_PER_YEAR)
        assert up_days.tobytes() == cubic_upsample_space(coarse.data, 4).tobytes()
        for start in (0, 4, DAYS_PER_YEAR - window_days):
            window = normalized_residual(x, up_days, clim, start, start + window_days)
            assert window.shape == (window_days * 12, 8, 8, 4)
            assert window.tobytes() == full[start * 12: (start + window_days) * 12].tobytes()

    def test_cond_normalization_uses_date_agnostic_stats(self):
        x = self._truth(n_days=10)
        spec = DownsampleSpec(4, 12)
        _, coarse, _ = fit_training_pair(x, spec, grouping=(1, 12))
        stats = compute_climatology(coarse, (1, 1))
        y_tilde = (coarse.data - stats.mean) / stats.std
        assert np.abs(y_tilde.mean(axis=0)).max() < 1e-10


class TestDenoiseLossAndCfg:
    def _weighted_mse(self, d, z0, sigmas):
        per = ((d - z0) ** 2).mean(axis=(1, 2, 3, 4))
        return float((loss_weight(sigmas) * per).mean())

    def test_perfect_denoiser_zero_loss_formula(self):
        rng = np.random.default_rng(8)
        z0 = rng.standard_normal((3, 2, 4, 4, 1))
        sig = np.array([0.5, 1.0, 2.0])
        assert self._weighted_mse(z0, z0, sig) == 0.0

    def test_zero_denoiser_loss_formula(self):
        rng = np.random.default_rng(9)
        z0 = rng.standard_normal((3, 2, 4, 4, 1))
        sig = np.array([0.5, 1.0, 2.0])
        expect = (loss_weight(sig) * (z0 ** 2).mean(axis=(1, 2, 3, 4))).mean()
        assert self._weighted_mse(np.zeros_like(z0), z0, sig) == pytest.approx(expect)

    def test_gradient_check(self):
        rng = np.random.default_rng(10)
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.05
        z0 = rng.standard_normal((2, 2, 4, 4, 1))
        cond = rng.standard_normal((2, 2, 4, 4, 1))
        sig = np.array([0.3, 1.7])
        eps = rng.standard_normal(z0.shape)
        keep = np.array([1.0, 0.0])
        names = ["in/conv/w", "out/conv/b", "res0/film_shift/w", "embed/dense0/w"]
        sub = {k: params[k] for k in names}

        def f(arrs):
            merged = dict(params)
            merged.update(arrs)
            return float(denoise_loss(merged, arch, z0, cond, sig, eps, keep).data)

        _, grads = loss_and_grads(
            lambda leaves: denoise_loss(leaves, arch, z0, cond, sig, eps, keep), params)
        numeric = finite_diff_grads(f, sub)
        assert rel_error({k: grads[k] for k in sub}, numeric) < 1e-4

    def test_cfg_g_zero_equals_conditional(self):
        rng = np.random.default_rng(11)
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.1
        z = rng.standard_normal((2, 4, 4, 1))
        cond = rng.standard_normal((2, 4, 4, 1))
        direct = denoiser_forward(as_leaves(params), z[None], np.array([1.5]),
                                  cond[None], arch).data[0]
        np.testing.assert_allclose(cfg_denoise(params, arch, z, 1.5, cond, 0.0),
                                   direct, atol=1e-12)

    def test_cfg_null_cond_equals_unconditional_for_any_g(self):
        rng = np.random.default_rng(12)
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.1
        z = rng.standard_normal((2, 4, 4, 1))
        null = np.zeros_like(z)
        uncond = denoiser_forward(as_leaves(params), z[None], np.array([1.5]),
                                  null[None], arch).data[0]
        for g in (0.0, 1.0, 3.0):
            np.testing.assert_allclose(cfg_denoise(params, arch, z, 1.5, null, g),
                                       uncond, atol=1e-12)

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.5])
    def test_cfg_linear_extrapolation_algebra(self, g):
        rng = np.random.default_rng(13)
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(rng, arch)
        for k in params:
            params[k] = params[k] + rng.standard_normal(params[k].shape) * 0.1
        z = rng.standard_normal((3, 2, 4, 4, 1))
        cond = rng.standard_normal((3, 2, 4, 4, 1))
        leaves = as_leaves(params)
        sigma = np.full(3, 0.7)
        dc = denoiser_forward(leaves, z, sigma, cond, arch).data
        du = denoiser_forward(leaves, z, sigma, np.zeros_like(cond), arch).data
        out = cfg_denoise(params, arch, z, 0.7, cond, g)
        np.testing.assert_allclose(out, (1.0 + g) * dc - g * du, atol=1e-12)

    def test_guided_call_shares_input_and_output_convs(self, monkeypatch):
        # the input conv's two halves and the output conv see the B windows;
        # only the U-net body runs over both branches' 2B rows
        rng = np.random.default_rng(15)
        arch = denoiser_arch(1, 2, levels=(4, 8))
        params = init_params(rng, arch)
        z = rng.standard_normal((3, 2, 4, 4, 1))
        cond = rng.standard_normal(z.shape)
        calls = []
        conv2d = ad.conv2d

        def recording(x, w, b, stride=1):
            calls.append((x.shape[0], w.shape[2]))
            return conv2d(x, w, b, stride)

        monkeypatch.setattr(ad, "conv2d", recording)
        cfg_denoise(params, arch, z, 0.7, cond, 1.0)
        half = arch.in_channels // 2
        assert calls[:2] == [(3, half), (3, half)]
        assert calls[-1] == (3, arch.levels[0])
        assert len(calls) == 11 and all(rows == 6 for rows, _ in calls[2:-1])


class TestSamplerOracles:
    def test_zero_denoiser_variance_follows_sigma(self):
        # with D == 0 the variance recursion collapses to var(z_i) = sigma_i^2
        sched = NoiseSchedule(n_grid=64)
        sig = sched.step_sigmas()
        rng = np.random.default_rng(14)
        z = sample_chain(lambda z, s: np.zeros_like(z), (20000,), sig, rng)
        assert abs(z.var() / sig[-1] ** 2 - 1.0) < 0.05

    def test_zero_denoiser_matches_linear_recursion_oracle(self):
        sched = NoiseSchedule(n_grid=64)
        sig = sched.step_sigmas()
        v = sig[0] ** 2
        for i in range(len(sig) - 1):
            r = sig[i + 1] ** 2 / sig[i] ** 2
            v = r ** 2 * v + (sig[i + 1] ** 2 / sig[i] ** 2) * (sig[i] ** 2 - sig[i + 1] ** 2)
        assert v == pytest.approx(sig[-1] ** 2, rel=1e-9)

    @pytest.mark.parametrize("n_grid", [256, default_config()["sr"]["n_grid"]])
    def test_analytic_gaussian_denoiser_restores_prior_variance(self, n_grid):
        # Tweedie oracle: for prior N(0, s^2), D*(z, sigma) = z s^2 / (s^2 + sigma^2).
        # The 3M chain ends 0.05% above the prior variance on 256 levels and 1.7%
        # above on 40, so also pin the empirical result to the exact recursion.
        # 10^5 draws put 3 SE at 1.3%, which tells it from the 2M recursion's
        # 4.5% on 40 levels.
        s2 = 4.0
        sig = NoiseSchedule(n_grid=n_grid).step_sigmas()
        rng = np.random.default_rng(0)
        z = sample_chain(lambda z, s: z * s2 / (s2 + s ** 2), (100_000,), sig, rng)
        assert abs(z.var() - s2) / s2 < 0.05
        v = _exact_3m_variance(sig, s2)
        mc_se = v * np.sqrt(2.0 / z.size)
        assert abs(z.var() - v) < 3.0 * mc_se

    @pytest.mark.parametrize("s2", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("n_grid", [24, 40, 256])
    def test_exact_3m_recursion_within_6_percent_from_24_levels(self, n_grid, s2):
        # the evidence for `diffusion.LEAST_N_GRID`, the floor of sr.n_grid: on 16 levels
        # the recursion ends at 0.66 of the prior variance, on 8 at 16.8
        sig = NoiseSchedule(n_grid=n_grid).step_sigmas()
        assert abs(_exact_3m_variance(sig, s2) / s2 - 1.0) < 0.06

    def test_fixed_rng_deterministic(self):
        sched = NoiseSchedule(n_grid=16)
        sig = sched.step_sigmas()
        a = sample_chain(lambda z, s: 0.5 * z, (50,), sig, np.random.default_rng(16))
        b = sample_chain(lambda z, s: 0.5 * z, (50,), sig, np.random.default_rng(16))
        np.testing.assert_array_equal(a, b)


def _exact_3m_variance(sig, s2):
    """Var z_N of the 3M chain on grid sig with the Tweedie oracle
    D(z, sigma) = g z, g = s2 / (s2 + sigma^2). Step i's estimate is linear in
    (d_i, d_{i-1}, d_{i-2}), with weights read off `estimate_3m` on unit
    vectors, so z_{i+1} = A z_i + B z_{i-1} + C z_{i-2} + noise, and the
    recursion tracks the covariance of (z_i, z_{i-1}, z_{i-2})."""
    g = s2 / (s2 + sig ** 2)
    cov = np.zeros((3, 3))
    cov[0, 0] = sig[0] ** 2
    for i in range(len(sig) - 1):
        r = sig[i + 1] ** 2 / sig[i] ** 2
        est = estimate_3m(sig, i, *np.eye(3))
        gains = np.array([g[i - k] if k <= i else 0.0 for k in range(3)])
        step = np.array([[r, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        step[0] += (1.0 - r) * est * gains
        cov = step @ cov @ step.T
        cov[0, 0] += r * (sig[i] ** 2 - sig[i + 1] ** 2)
    return cov[0, 0]


def small_truth():
    """A short 8x8 fine-truth series at 2-hourly cadence, for training-loop tests."""
    cfg = SynthConfig(nx=8, ny=8, n_days=40, rng_seed=31,
                      var_bases=(0.0, 50.0, 50.0, 0.0), var_scales=(1.0, 1.0, 1.0, 1.0))
    return gen_fine_ensemble(cfg)


@pytest.fixture(scope="module")
def toy_sr_model():
    """Small trained super-resolution model on synthetic truth."""
    cfg = SynthConfig(nx=8, ny=8, n_days=2 * DAYS_PER_YEAR, rng_seed=21,
                      seasonal_amp=1.0, diurnal_amp=0.4, noise_amp=0.6,
                      var_bases=(0.0, 50.0, 50.0, 0.0),
                      var_scales=(1.0, 1.0, 1.0, 1.0))
    truth = gen_fine_ensemble(cfg)
    tcfg = SRTrainConfig(steps=220, batch=4, levels=(8, 16), doy_buckets=36,
                         peak_lr=2e-3, warmup_steps=30, seed=21,
                         noise=NoiseSchedule(n_grid=64))
    model, log = train_sr(truth, tcfg)
    return cfg, truth, model, log


class TestTrainAndSample:
    def test_training_loss_decreases(self, toy_sr_model):
        _, _, _, log = toy_sr_model
        first = np.mean([l for _, l, *_ in log[:30]])
        last = np.mean([l for _, l, *_ in log[-30:]])
        assert last < first

    def test_sample_shape_and_determinism(self, toy_sr_model):
        cfg, truth, model, _ = toy_sr_model
        y_cond = coarsen(truth, cfg.downsample).time_slice(0, 3 * 24)
        a = sample_long(model, y_cond, 1, guidance=1.0, rng=np.random.default_rng(17))
        b = sample_long(model, y_cond, 1, guidance=1.0, rng=np.random.default_rng(17))
        assert a.data.shape == (36, 8, 8, 4)
        np.testing.assert_array_equal(a.data, b.data)

    def test_sample_coarse_consistency(self, toy_sr_model):
        cfg, truth, model, _ = toy_sr_model
        coarse = coarsen(truth, cfg.downsample)
        y_cond = coarse.time_slice(30 * 24, 33 * 24)
        out = sample_long(model, y_cond, 1, guidance=1.0, rng=np.random.default_rng(18))
        recoarse = coarsen(out, cfg.downsample)
        err = np.abs(recoarse.data - y_cond.data).mean()
        field_std = truth.data.std(axis=0).mean()
        assert err <= 0.1 * field_std

    def test_checkpoint_round_trip(self, toy_sr_model, tmp_path):
        cfg, truth, model, _ = toy_sr_model
        save_sr(model, tmp_path / "sr")
        back = load_sr(tmp_path / "sr")
        y_cond = coarsen(truth, cfg.downsample).time_slice(0, 3 * 24)
        a = sample_long(model, y_cond, 1, rng=np.random.default_rng(19))
        b = sample_long(back, y_cond, 1, rng=np.random.default_rng(19))
        np.testing.assert_array_equal(a.data, b.data)

    def test_checkpoint_written_by_training(self, tmp_path):
        truth = small_truth()
        cfg = SRTrainConfig(steps=3, levels=(4,), doy_buckets=1, seed=29,
                            noise=NoiseSchedule(n_grid=24))
        model, _ = train_sr(truth, cfg, out_dir=tmp_path / "sr")
        assert (tmp_path / "sr" / "loss.csv").exists()
        arrays, meta = load_checkpoint(tmp_path / "sr", "sr", lambda *doc: doc)
        assert {k for k in arrays if not k.startswith("param/")} == {
            "clim/mean", "clim/std", "cond_stats/mean", "cond_stats/std"}
        assert meta["step"] == cfg.steps
        assert meta == {"kind": "sr", "step": cfg.steps, "levels": [4], "window_days": 3,
                        "steps_per_day": 12, "schedule": dataclasses.asdict(cfg.noise)}
        back = load_sr(tmp_path / "sr")
        # rebuilt from the tensors and those few settings, as train_sr built them
        assert back.arch == model.arch
        assert back.spec == model.spec == DownsampleSpec(4, 12)
        assert back.window_days == model.window_days == cfg.window_days
        # every table comes back bitwise with its grouping; the one-group coarse
        # statistics are stored as [NX, NY, V]
        for clim, back_clim, grouping in ((model.residual_clim, back.residual_clim, (1, 12)),
                                          (model.cond_stats, back.cond_stats, (1, 1))):
            assert ((back_clim.doy_buckets, back_clim.tod_buckets)
                    == (clim.doy_buckets, clim.tod_buckets) == grouping)
            assert back_clim.mean.tobytes() == clim.mean.tobytes()
            assert back_clim.std.tobytes() == clim.std.tobytes()
        assert arrays["cond_stats/mean"].shape == arrays["cond_stats/std"].shape == (2, 2, 4)
        assert back.schedule == model.schedule
        for k in model.params:
            assert back.params[k].tobytes() == model.params[k].tobytes()

    def test_checkpoint_with_group_mask_refused(self, toy_sr_model, tmp_path):
        # checkpoints of a climatology that missed groups once carried a clim/valid
        # mask; one is refused naming its manifest, not loaded as if complete
        _, _, model, _ = toy_sr_model
        save_sr(model, tmp_path / "sr")
        manifest = tmp_path / "sr" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["tensors"] = sorted(doc["tensors"] + ["clim/valid"])
        manifest.write_text(json.dumps(doc))
        write_npy(np.ones(len(model.residual_clim.mean)), tmp_path / "sr" / "clim__valid.npy")
        with pytest.raises(GridFormatError, match=re.escape(
                f"{manifest}: an SR checkpoint holds no tensors ['clim/valid']")):
            load_sr(tmp_path / "sr")

    def test_matches_reference_loop_bitwise(self):
        # pins the draw order: one generator seeded from (seed, 3) initializes
        # the parameters, then every step draws window starts, noise levels,
        # noise and the dropout mask, and takes one clipped Adam step
        truth = small_truth()
        cfg = SRTrainConfig(steps=4, batch=3, levels=(4,), doy_buckets=1, seed=30,
                            warmup_steps=2)
        model, log = train_sr(truth, cfg)

        spec = DownsampleSpec(4, 12)
        _, r_tilde, coarse = training_pair(truth, spec, grouping=(1, 12))
        stats = compute_climatology(coarse, (1, 1))
        y_tilde = (coarse.data - stats.mean) / stats.std
        cond_days = cubic_upsample_space(y_tilde, 4)
        n_days, window = truth.n_times // 12, cfg.window_days * 12
        rng = np.random.default_rng(np.random.SeedSequence((30, 3)))
        arch = denoiser_arch(truth.data.shape[-1], window, levels=(4,))
        params = init_params(rng, arch)
        state = OptimizerState(Schedule(peak_lr=cfg.peak_lr, end_lr=cfg.end_lr,
                                        warmup_steps=2, total_steps=4),
                               clip_norm=cfg.clip_norm)
        ref_log = []
        for step in range(4):
            days = rng.integers(0, n_days - cfg.window_days + 1, 3)
            z0 = np.stack([r_tilde[d * 12: d * 12 + window] for d in days])
            cond = np.stack([cond_days[d: d + cfg.window_days] for d in days])
            sigmas = cfg.noise.sample_train(rng, 3)
            eps = rng.standard_normal(z0.shape)
            keep = (rng.random(3) >= cfg.p_uncond).astype(np.float64)
            loss, grads = loss_and_grads(
                lambda leaves: denoise_loss(leaves, arch, z0, cond, sigmas, eps, keep), params)
            lr = adam_step(params, state, grads)
            ref_log.append((step, loss, lr, state.grad_norm,
                            int(state.grad_norm > cfg.clip_norm)))
        assert log == ref_log
        assert set(model.params) == set(params)
        for k in params:
            assert model.params[k].tobytes() == params[k].tobytes()

    def test_wrong_window_length_rejected(self, toy_sr_model):
        cfg, truth, model, _ = toy_sr_model
        y_cond = coarsen(truth, cfg.downsample).time_slice(0, 5 * 24)
        with pytest.raises(ValueError, match="window"):
            sample_long(model, y_cond, 1, rng=np.random.default_rng(0))


class TestTrainSrMemory:
    @pytest.fixture(scope="class")
    def demo(self):
        # the demo-shaped truth and train-sr settings
        cfg = parse_config(Path(__file__).resolve().parent.parent / "configs" / "demo.ini")
        return cfg, gen_fine_ensemble(cli._synth_config(cfg))

    def test_peak_beyond_adam_within_two_truths(self, demo):
        # train-sr's working set, as the stage runs it on the demo: the training
        # period of the demo-shaped truth, 2 steps, traced from the slice on. Beyond
        # Adam's three flat parameter-sized vectors (parameters and two moments), the
        # peak holds the residual while its climatology is fitted, then the daily
        # fields and one step's tape; a full residual kept through training, tap
        # matrices kept on the tape or a conditioning repeated per step break the bound.
        cfg, truth = demo
        sr = dataclasses.replace(cli._sr_config(cfg), steps=2)
        tracemalloc.start()
        try:
            train = truth.time_slice(0, cli._train_hours(cfg))
            model, _ = train_sr(train, sr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(v.nbytes for v in model.params.values())
        assert peak - 3 * param_bytes <= 2 * train.data.nbytes

    def test_training_pair_peak_within_175_percent_of_slice(self, demo):
        # the residual is one slice-sized array while its climatology is fitted;
        # no further slice-sized array (a normalised copy, a per-step table) is built
        cfg, truth = demo
        sr = cli._sr_config(cfg)
        train = truth.time_slice(0, cli._train_hours(cfg))
        spec = DownsampleSpec(sr.spatial_factor, 24 // train.dt_hours)
        tracemalloc.start()
        try:
            fit_training_pair(train, spec, (sr.doy_buckets, spec.temporal_window))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * train.data.nbytes


class TestConditionalGaussianToy:
    def test_trained_sampler_matches_analytic_conditional(self):
        # residual = 0.8 * y + 0.6 * eps with scalar conditioning y per window:
        # the sampled conditional for fixed y* must approach N(0.8 y*, 0.36)
        rng = np.random.default_rng(22)
        arch = denoiser_arch(1, 1, levels=(4,))
        params = init_params(rng, arch)
        from downgen.optim import OptimizerState, Schedule, adam_step

        steps = 400
        state = OptimizerState(Schedule(peak_lr=3e-3, end_lr=1e-5, warmup_steps=40,
                                        total_steps=steps))
        sched = NoiseSchedule(sigma_max=20.0, n_grid=128)
        batch = 32
        shape = (batch, 1, 2, 2, 1)
        for _ in range(steps):
            y = rng.standard_normal((batch, 1, 1, 1, 1))
            cond = np.broadcast_to(y, shape).copy()
            z0 = 0.8 * cond + 0.6 * rng.standard_normal(shape)
            sig = sched.sample_train(rng, batch)
            eps = rng.standard_normal(shape)
            keep = np.ones(batch)
            _, grads = loss_and_grads(
                lambda leaves: denoise_loss(leaves, arch, z0, cond, sig, eps, keep), params)
            adam_step(params, state, grads)

        y_star = 1.1
        cond_star = np.full((1, 2, 2, 1), y_star)
        sig_grid = sched.step_sigmas()
        draws = []
        srng = np.random.default_rng(23)
        for _ in range(160):
            z = sample_chain(
                lambda z, s: cfg_denoise(params, arch, z, s, cond_star, 0.0),
                (1, 2, 2, 1), sig_grid, srng)
            draws.append(z.mean())
        draws = np.asarray(draws)
        assert abs(draws.mean() - 0.8 * y_star) < 0.1 * max(1.0, abs(0.8 * y_star))
        # pixel-mean of 4 correlated-by-conditioning pixels keeps std near 0.6
        assert abs(draws.std() - 0.6) < 0.25
