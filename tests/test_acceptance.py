"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Shared trained fixtures keep the whole suite within a desk-scale time budget:
a bias-correction task on a coarse 2x2 grid with trend + stationary biases,
and a super-resolution task on an 8x8 fine grid.
"""

import numpy as np
import pytest

from downgen import autodiff as ad
from downgen.autodiff import Tensor
from downgen.baselines import bcsd_pipeline, daily_means, qm_debias
from downgen.cli import main as cli_main
from downgen.diffusion import (
    NoiseSchedule,
    SRTrainConfig,
    assemble_output,
    cfg_denoise,
    denoise_loss,
    prepare_cond,
    train_sr,
)
from downgen.grid import (
    DownsampleSpec,
    GridField,
    coarsen,
    compute_climatology,
)
from downgen.metrics import (
    heat_index,
    heat_streak_prob,
    percentile_mae,
    temporal_psd_error,
    wasserstein1,
)
from downgen.cyclones import detect_cyclones, great_circle_distance
from downgen.multidiffusion import sample_chain, sample_long
from downgen.nets import (
    denoiser_arch,
    film,
    fourier_embed,
    init_params,
    velocity_arch,
    velocity_forward,
)
from downgen.reflow import (
    CouplingConfig,
    CouplingBatch,
    ReflowTrainConfig,
    reflow_loss,
    train_reflow,
    transport,
)
from downgen.synthdata import BiasSpec, SynthConfig, gen_biased_coarse_ensemble, gen_fine_ensemble

from gradcheck import finite_diff_grads, loss_and_grads, rel_error
from zonal import zonal_weighted_rolling_mean

NORM_UNITS = dict(var_bases=(0.0, 50.0, 50.0, 0.0), var_scales=(1.0, 1.0, 1.0, 1.0))


def criterion(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def debias_task():
    """Trend + stationary-bias ensemble with a trained flow, coarse 2x2 grid."""
    base = SynthConfig(nx=8, ny=8, n_days=4 * 360, n_members=2, rng_seed=101,
                       seasonal_amp=0.4, diurnal_amp=0.3, noise_amp=1.0,
                       noise_ar1=0.9, trend_per_year=0.4, **NORM_UNITS)
    fine = gen_fine_ensemble(base)
    spec = base.downsample
    coarse_truth = coarsen(fine, spec)
    train_hours = 2 * 360 * 24
    # one-sigma mean offset, measured on the coarse training truth
    sigma = float(coarse_truth.time_slice(0, train_hours).data.std(axis=0).mean())
    cfg = SynthConfig(nx=8, ny=8, n_days=4 * 360, n_members=2, rng_seed=101,
                      seasonal_amp=0.4, diurnal_amp=0.3, noise_amp=1.0,
                      noise_ar1=0.9, trend_per_year=0.4,
                      bias=BiasSpec(mean_offset=sigma, var_scale=1.5, corr_shrink=0.5),
                      **NORM_UNITS)
    members = gen_biased_coarse_ensemble(cfg, fine)
    tcfg = ReflowTrainConfig(steps=1500, chunks_per_batch=4, peak_lr=3e-3,
                             warmup_steps=100, levels=(16, 32), seed=101,
                             coupling=CouplingConfig(chunk_len_days=8,
                                                     season_window_days=15))
    model, log = train_reflow([m.time_slice(0, train_hours) for m in members],
                              coarse_truth.time_slice(0, train_hours), tcfg)
    transported = {m.member_id: transport(model, m, m.member_id, n_steps=100)
                   for m in members}
    return dict(cfg=cfg, fine=fine, coarse_truth=coarse_truth, members=members,
                model=model, log=log, transported=transported, sigma=sigma,
                train_hours=train_hours)


@pytest.fixture(scope="module")
def sr_task():
    """Trained residual super-resolution model on 2 years of 8x8 truth."""
    cfg = SynthConfig(nx=8, ny=8, n_days=2 * 360, rng_seed=202, seasonal_amp=1.0,
                      diurnal_amp=0.4, noise_amp=0.8, **NORM_UNITS)
    truth = gen_fine_ensemble(cfg)
    train_hours = 360 * 24
    tcfg = SRTrainConfig(steps=700, batch=4, levels=(16, 32, 64), doy_buckets=36,
                         peak_lr=2e-3, warmup_steps=80, seed=202,
                         noise=NoiseSchedule(n_grid=256))
    model, log = train_sr(truth.time_slice(0, train_hours), tcfg)
    return dict(cfg=cfg, truth=truth, model=model, log=log, train_hours=train_hours)


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------

def _directional_check(build, params, rng, eps=1e-5):
    """Directional central difference vs analytic gradient over all tensors of
    params, for the scalar Tensor build(leaves)."""
    _, grads = loss_and_grads(build, params)
    direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
    norm = np.sqrt(sum((d ** 2).sum() for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    analytic = sum((grads[k] * direction[k]).sum() for k in params)
    plus = {k: params[k] + eps * direction[k] for k in params}
    minus = {k: params[k] - eps * direction[k] for k in params}
    numeric = (loss_and_grads(build, plus)[0] - loss_and_grads(build, minus)[0]) / (2 * eps)
    denom = max(abs(analytic), abs(numeric), 1e-12)
    return abs(analytic - numeric) / denom


class TestCriterion1Gradients:
    N_SEEDS = 20

    def test_primitive_ops(self):
        builders = {
            "add": lambda t: ad.mean(ad.square(t["a"] + t["b"])),
            "mul": lambda t: ad.mean(t["a"] * t["b"]),
            "neg": lambda t: ad.mean(ad.square(-t["a"] + t["b"])),
            "silu": lambda t: ad.mean(ad.silu(t["a"] * t["b"])),
            "square": lambda t: ad.mean(ad.square(t["a"])),
            "mean_axes": lambda t: ad.mean(ad.square(ad.mean(t["a"], axes=(0,)))),
            "reshape": lambda t: ad.mean(ad.square(ad.reshape(t["a"], (6, 2)))),
            "transpose": lambda t: ad.mean(ad.square(ad.transpose(t["a"], (1, 0, 2)))),
            "concat": lambda t: ad.mean(ad.square(ad.concat([t["a"], t["b"]], axis=-1))),
            "slice_axis": lambda t: ad.mean(ad.square(ad.slice_axis(t["a"], 1, 3, axis=0)
                                                      * ad.slice_axis(t["b"], 0, 2, axis=0))),
        }
        worst = {}
        for name, build in builders.items():
            for seed in range(self.N_SEEDS):
                rng = np.random.default_rng(1000 + seed)
                arrays = {"a": rng.standard_normal((3, 2, 2)),
                          "b": rng.standard_normal((3, 2, 2))}
                _, analytic = loss_and_grads(build, arrays)
                numeric = finite_diff_grads(
                    lambda arrs: float(build({k: Tensor(v) for k, v in arrs.items()}).data),
                    arrays)
                err = rel_error(analytic, numeric)
                worst[name] = max(worst.get(name, 0.0), err)
        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        criterion(1, "gradient correctness (primitives)", not bad,
                  f"worst rel err {max(worst.values()):.2e} over "
                  f"{len(worst)} ops x {self.N_SEEDS} seeds")

    def test_dense_conv_ops(self):
        worst = 0.0
        for seed in range(self.N_SEEDS):
            rng = np.random.default_rng(2000 + seed)
            arrays = {
                "x": rng.standard_normal((2, 4, 4, 3)),
                "w1": rng.standard_normal((3, 3, 3, 4)) * 0.3,
                "b1": rng.standard_normal(4),
                "w2": rng.standard_normal((4, 5)),
                "b2": rng.standard_normal(5),
            }

            def build(t):
                h = ad.conv2d(t["x"], t["w1"], t["b1"], stride=2)
                h = ad.upsample2(h)
                return ad.mean(ad.square(ad.dense(h, t["w2"], t["b2"])))

            _, analytic = loss_and_grads(build, arrays)
            numeric = finite_diff_grads(
                lambda arrs: float(build({k: Tensor(v) for k, v in arrs.items()}).data),
                arrays)
            worst = max(worst, rel_error(analytic, numeric))
        criterion(1, "gradient correctness (conv/dense/upsample)", worst < 1e-4,
                  f"worst rel err {worst:.2e} over {self.N_SEEDS} seeds")

    def test_network_and_loss_gradients(self):
        v_arch = velocity_arch(2, levels=(4, 8))
        d_arch = denoiser_arch(1, 2, levels=(4, 8))
        worst = {"fourier_embed": 0.0, "film": 0.0, "velocity_forward": 0.0,
                 "reflow_loss": 0.0, "denoiser/denoise_loss": 0.0}
        for seed in range(self.N_SEEDS):
            rng = np.random.default_rng(3000 + seed)
            vp = init_params(rng, v_arch)
            for k in vp:
                vp[k] = vp[k] + rng.standard_normal(vp[k].shape) * 0.05
            yhat = rng.standard_normal((2, 4, 4, 2))
            tau = rng.uniform(0.1, 0.9, 2)
            sm = rng.standard_normal((2, 4, 4, 2))
            ss = 0.5 + rng.random((2, 4, 4, 2))

            worst["fourier_embed"] = max(worst["fourier_embed"], _directional_check(
                lambda leaves: ad.mean(ad.square(fourier_embed(leaves, tau))),
                {k: vp[k] for k in vp if k.startswith("embed/")}, rng))

            film_x = rng.standard_normal((2, 4, 4, v_arch.levels[0]))

            def film_loss(leaves):
                e = fourier_embed(leaves, tau)
                return ad.mean(ad.square(film(Tensor(film_x), e, leaves, "res0")))

            film_keys = [k for k in vp if k.startswith(("res0/film", "embed/"))]
            worst["film"] = max(worst["film"], _directional_check(
                film_loss, {k: vp[k] for k in film_keys}, rng))

            def vel_loss(leaves):
                return ad.mean(ad.square(velocity_forward(leaves, yhat, tau, sm, ss, v_arch)))

            worst["velocity_forward"] = max(worst["velocity_forward"],
                                            _directional_check(vel_loss, vp, rng))

            batch = CouplingBatch(y0=rng.standard_normal((4, 4, 4, 2)),
                                  y1=rng.standard_normal((4, 4, 4, 2)),
                                  stat_mean=rng.standard_normal((4, 4, 4, 2)),
                                  stat_std=0.5 + rng.random((4, 4, 4, 2)))
            rtau = rng.uniform(0.1, 0.9, 4)
            worst["reflow_loss"] = max(worst["reflow_loss"], _directional_check(
                lambda leaves: reflow_loss(leaves, v_arch, batch, rtau), vp, rng))

            dp = init_params(rng, d_arch)
            for k in dp:
                dp[k] = dp[k] + rng.standard_normal(dp[k].shape) * 0.05
            z0 = rng.standard_normal((2, 2, 4, 4, 1))
            cond = rng.standard_normal((2, 2, 4, 4, 1))
            sig = np.exp(rng.uniform(np.log(1e-2), np.log(10.0), 2))
            eps = rng.standard_normal(z0.shape)
            keep = (rng.random(2) >= 0.5).astype(float)
            worst["denoiser/denoise_loss"] = max(
                worst["denoiser/denoise_loss"],
                _directional_check(
                    lambda leaves: denoise_loss(leaves, d_arch, z0, cond, sig, eps, keep), dp,
                    rng))
        bad = {k: v for k, v in worst.items() if v >= 1e-4}
        criterion(1, "gradient correctness (networks and losses)", not bad,
                  "; ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 2. Tweedie / sampler oracle
# ---------------------------------------------------------------------------

class TestCriterion2Tweedie:
    def test_analytic_denoiser_sampler_variance(self):
        s2 = 4.0
        sigmas = NoiseSchedule(n_grid=256).step_sigmas()
        rng = np.random.default_rng(0)
        z = sample_chain(lambda z, s: z * s2 / (s2 + s ** 2), (10000,), sigmas, rng)
        rel = abs(z.var() - s2) / s2
        criterion(2, "Tweedie sampler oracle", rel < 0.05,
                  f"sample variance {z.var():.4f} vs prior {s2} (rel err {rel:.3f}, "
                  f"256-level grid, 10^4 draws)")


# ---------------------------------------------------------------------------
# 3. Multidiffusion coherence
# ---------------------------------------------------------------------------

class TestCriterion3Multidiffusion:
    @pytest.fixture()
    def quick_model(self, sr_task):
        import dataclasses
        model = dataclasses.replace(sr_task["model"],
                                    schedule=NoiseSchedule(n_grid=32))
        return model, sr_task["cfg"], sr_task["truth"]

    def test_overlap_coherence_and_reduction(self, quick_model):
        model, cfg, truth = quick_model
        coarse = coarsen(truth, cfg.downsample)
        overlap = model.spec.temporal_window
        failures = []
        for m in (2, 4, 8):
            days = 2 * m + 1
            y = coarse.time_slice(0, days * 24)
            steps = []

            def on_step(i, zs):
                for j in range(len(zs) - 1):
                    if zs[j][-overlap:].tobytes() != zs[j + 1][:overlap].tobytes():
                        failures.append((m, i, j))
                steps.append(i)

            sample_long(model, y, m, guidance=1.0,
                        rng=np.random.default_rng(40 + m), on_step=on_step)
            if len(steps) != model.schedule.n_grid - 1:
                failures.append((m, "steps", len(steps)))
        y1 = coarse.time_slice(0, 3 * 24)
        cond = prepare_cond(y1, model.cond_stats, model.spec)   # daily: 3 days
        draw = sample_chain(
            lambda z, s: cfg_denoise(model.params, model.arch, z, s, cond, 1.0),
            (model.window_days * overlap,) + cond.shape[1:], model.schedule.step_sigmas(),
            np.random.default_rng(77))
        a = assemble_output(y1, draw, model.residual_clim, model.spec)
        b = sample_long(model, y1, 1, guidance=1.0, rng=np.random.default_rng(77))
        identical = a.data.tobytes() == b.data.tobytes()
        criterion(3, "multidiffusion coherence", not failures and identical,
                  f"overlaps bitwise-identical after every step for M in (2,4,8); "
                  f"M=1 bitwise equals plain sampler: {identical}")


# ---------------------------------------------------------------------------
# 4. Reflow debiasing
# ---------------------------------------------------------------------------

def _eval_window(task):
    h0 = task["train_hours"]
    h1 = task["cfg"].n_days * 24
    return h0, h1


def _pixelwise_wd(pred: GridField, ref: GridField):
    return np.mean([wasserstein1(pred.data[..., v], ref.data[..., v])
                    for v in range(pred.data.shape[-1])])


def _rank_corr_gap(data, ref):
    """Mean |pairwise Spearman difference| across pixels and variable pairs."""

    def spearman_stack(d):
        t, nx, ny, nv = d.shape
        out = []
        for i in range(nx):
            for j in range(ny):
                ranks = np.argsort(np.argsort(d[:, i, j, :], axis=0), axis=0).astype(float)
                out.append(np.corrcoef(ranks.T))
        return np.asarray(out)

    a = spearman_stack(data)
    b = spearman_stack(ref)
    iu = np.triu_indices(data.shape[-1], k=1)
    return float(np.abs(a[:, iu[0], iu[1]] - b[:, iu[0], iu[1]]).mean())


class TestCriterion4Debias:
    def test_wd_reduction_and_rank_correlations(self, debias_task):
        h0, h1 = _eval_window(debias_task)
        truth = debias_task["coarse_truth"].time_slice(h0, h1)
        wd_identity, wd_flow, gaps = [], [], {}
        qm_buckets = (1, 1)
        for m in debias_task["members"]:
            member_eval = m.time_slice(h0, h1)
            flow_eval = debias_task["transported"][m.member_id].time_slice(h0, h1)
            wd_identity.append(_pixelwise_wd(member_eval, truth))
            wd_flow.append(_pixelwise_wd(flow_eval, truth))
            member_clim = compute_climatology(m.time_slice(0, h0), qm_buckets)
            target_clim = compute_climatology(
                debias_task["coarse_truth"].time_slice(0, h0), qm_buckets)
            qm_eval = qm_debias(member_eval, member_clim, target_clim)
            gaps.setdefault("member", []).append(
                _rank_corr_gap(member_eval.data, truth.data))
            gaps.setdefault("qm", []).append(_rank_corr_gap(qm_eval.data, truth.data))
            gaps.setdefault("flow", []).append(_rank_corr_gap(flow_eval.data, truth.data))
        reduction = 1.0 - np.mean(wd_flow) / np.mean(wd_identity)
        gap_member = np.mean(gaps["member"])
        gap_qm = np.mean(gaps["qm"])
        gap_flow = np.mean(gaps["flow"])
        closed = 1.0 - gap_flow / gap_member
        ok = (reduction >= 0.70) and (closed >= 0.30) and (gap_flow < gap_qm)
        criterion(4, "flow debiasing vs identity and QM", ok,
                  f"WD reduction {reduction:.1%} (need >=70%); rank-corr gap "
                  f"member {gap_member:.3f} / QM {gap_qm:.3f} / flow {gap_flow:.3f} "
                  f"(closed {closed:.1%}, need >=30%)")


# ---------------------------------------------------------------------------
# 5. Trend preservation
# ---------------------------------------------------------------------------

class TestCriterion5Trend:
    def test_zonal_trend_and_training_climatology(self, debias_task):
        cfg = debias_task["cfg"]
        h0, h1 = _eval_window(debias_task)
        band = (-90.0, 90.0)
        window = 360
        slopes = []
        for m in debias_task["members"]:
            flow = debias_task["transported"][m.member_id].time_slice(h0, h1)
            times, series = zonal_weighted_rolling_mean(flow, band, window)
            years = times / (24.0 * 360.0)
            slopes.append(np.polyfit(years, series[:, 0], 1)[0])
        slope = float(np.mean(slopes))
        trend_ok = abs(slope - cfg.trend_per_year) <= 0.25 * cfg.trend_per_year

        target_train = debias_task["coarse_truth"].time_slice(0, h0)
        tstats = compute_climatology(target_train, (1, 1))
        clim_errs = []
        for m in debias_task["members"]:
            flow_train = debias_task["transported"][m.member_id].time_slice(0, h0)
            clim_errs.append(np.abs(flow_train.data.mean(axis=0) - tstats.mean)
                             / tstats.std)
        clim_err = float(np.mean(clim_errs))
        clim_ok = clim_err <= 0.1
        criterion(5, "trend preservation", trend_ok and clim_ok,
                  f"zonal rolling-mean trend {slope:.3f}/yr vs injected "
                  f"{cfg.trend_per_year}/yr (within 25%: {trend_ok}); training-window "
                  f"climatology offset {clim_err:.3f} sigma (need <=0.1)")


# ---------------------------------------------------------------------------
# 6. BCSD exactness
# ---------------------------------------------------------------------------

class TestCriterion6Bcsd:
    def test_td_exactness_and_qm_moments(self):
        rng = np.random.default_rng(60)
        from downgen.baselines import bcsd_temporal_disagg

        pool = GridField(rng.standard_normal((30 * 12, 8, 8, 2)), 0, 2,
                         np.arange(8.0), 30 + np.arange(8.0), ("a", "b"))
        x_dm = GridField(rng.standard_normal((10, 8, 8, 2)), 0, 24,
                         np.arange(8.0), 30 + np.arange(8.0), ("a", "b"))
        out = bcsd_temporal_disagg(x_dm, pool, rng)
        daily = out.data.reshape(10, 12, 8, 8, 2).mean(axis=1)
        td_err = float(np.abs(daily - x_dm.data).max())

        n_train, n_eval = 3000, 3000
        shape = (2, 2, 1)
        member_train = GridField(2.0 + 3.0 * rng.standard_normal((n_train,) + shape),
                                 0, 24, np.arange(2.0), np.arange(2.0), ("a",), "m")
        member_eval = GridField(2.0 + 3.0 * rng.standard_normal((n_eval,) + shape),
                                0, 24, np.arange(2.0), np.arange(2.0), ("a",), "m")
        target_train = GridField(rng.standard_normal((n_train,) + shape), 0, 24,
                                 np.arange(2.0), np.arange(2.0), ("a",))
        member_clim = compute_climatology(member_train, (1, 1))
        target_clim = compute_climatology(target_train, (1, 1))
        mapped = qm_debias(member_eval, member_clim, target_clim)
        # Monte-Carlo standard errors: the mapped moments inherit estimation
        # noise from both the training fit and the fresh evaluation draw
        se_mean = np.sqrt(1.0 / n_train + 1.0 / n_eval)
        se_std = np.sqrt(1.0 / (2.0 * n_train) + 1.0 / (2.0 * n_eval))
        mean_err = float(np.abs(mapped.data.mean(axis=0) - target_clim.mean[0]).max())
        std_err = float(np.abs(mapped.data.std(axis=0) - target_clim.std[0]).max())
        qm_ok = mean_err < 3 * se_mean and std_err < 3 * se_std
        ok = td_err < 1e-12 and qm_ok
        criterion(6, "BCSD exactness and QM moments", ok,
                  f"TD daily-mean error {td_err:.2e} (need <1e-12); post-QM mean err "
                  f"{mean_err:.4f} (3se={3 * se_mean:.4f}), std err {std_err:.4f} "
                  f"(3se={3 * se_std:.4f})")


# ---------------------------------------------------------------------------
# 7. Metric oracles
# ---------------------------------------------------------------------------

class TestCriterion7Metrics:
    def test_metric_oracles(self):
        rng = np.random.default_rng(70)
        w1_err = 0.0
        for _ in range(20):
            a = rng.standard_normal(200)
            b = 0.3 + 1.2 * rng.standard_normal(200)
            w1_err = max(w1_err, abs(wasserstein1(a, b)
                                     - np.abs(np.sort(a) - np.sort(b)).mean()))
        pct_err = 0.0
        for _ in range(20):
            a = rng.standard_normal((150, 3))
            b = rng.standard_normal((120, 3))
            p = rng.uniform(1.0, 99.0)
            oracle = np.abs(np.percentile(a, p, axis=0)
                            - np.percentile(b, p, axis=0)).mean()
            pct_err = max(pct_err, abs(percentile_mae(a, b, p) - oracle))

        from test_metrics import noaa_regression_oracle
        hi_err = 0.0
        for tf in np.arange(80.5, 110.1, 1.5):
            for rh in np.arange(40.0, 100.1, 4.0):
                t_k = (tf - 32.0) / 1.8 + 273.15
                got = (heat_index(t_k, rh) - 273.15) * 1.8 + 32.0
                hi_err = max(hi_err, abs(got - noaa_regression_oracle(tf, rh)))

        streak_fails = 0
        for s in range(1000):
            srng = np.random.default_rng(7000 + s)
            n = int(srng.integers(5, 30))
            h = int(srng.integers(1, 5))
            tmax = srng.standard_normal(n)
            got = heat_streak_prob(tmax, 0.0, h, 0.0)
            exceed = tmax > 0.0
            days = set()
            for i in range(n - h + 1):
                if exceed[i: i + h].all():
                    days.update(range(i, i + h))
            if abs(got - len(days) / n) > 1e-15:
                streak_fails += 1
        ok = w1_err <= 1e-9 and pct_err <= 1e-12 and hi_err < 1.5 and streak_fails == 0
        criterion(7, "metric oracles", ok,
                  f"W1 vs sorted-quantile {w1_err:.1e} (<=1e-9); percentile MAE "
                  f"{pct_err:.1e} (<=1e-12); heat index {hi_err:.3f} F (<1.5); "
                  f"streak mismatches {streak_fails}/1000")


# ---------------------------------------------------------------------------
# 8. Cyclone tracker scenes
# ---------------------------------------------------------------------------

class TestCriterion8Cyclones:
    def test_constructed_scenes(self):
        lon = np.arange(0.0, 30.0, 0.5)
        lat = np.arange(10.0, 25.0, 0.5)

        def scene(n_steps, wind_speed=15.0, elevation_m=0.0):
            slp = np.empty((n_steps, lon.size, lat.size))
            for k in range(n_steps):
                d = great_circle_distance(15.0 + 0.5 * k, 17.5,
                                          lon[:, None], lat[None, :])
                slp[k] = 101325.0 - 500.0 * np.exp(-0.5 * (d / 2.0) ** 2)
            wind = np.full_like(slp, wind_speed)
            elev = np.full((lon.size, lat.size), elevation_m)
            return slp, wind, elev, 6 * np.arange(n_steps)

        results = {}
        slp, wind, elev, times = scene(11)  # 60 h compliant
        results["compliant"] = len(detect_cyclones(slp, wind, elev, lon, lat, times))
        slp, wind, elev, times = scene(9)  # 48 h: persistence violated
        results["persistence"] = len(detect_cyclones(slp, wind, elev, lon, lat, times))
        slp, wind, elev, times = scene(11, wind_speed=8.0)
        results["wind"] = len(detect_cyclones(slp, wind, elev, lon, lat, times))
        slp, wind, elev, times = scene(11, elevation_m=150.0)
        results["elevation"] = len(detect_cyclones(slp, wind, elev, lon, lat, times))
        ok = (results["compliant"] == 1 and results["persistence"] == 0
              and results["wind"] == 0 and results["elevation"] == 0)
        criterion(8, "cyclone tracker scenes", ok,
                  f"tracks: compliant={results['compliant']} (want 1), "
                  f"persistence-violated={results['persistence']}, "
                  f"weak-wind={results['wind']}, "
                  f"high-elevation={results['elevation']} (want 0 each)")


# ---------------------------------------------------------------------------
# 9. Coarse consistency of the trained super-resolution stage
# ---------------------------------------------------------------------------

class TestCriterion9CoarseConsistency:
    def test_sampler_beats_bcsd_on_conditioning_fidelity(self, sr_task):
        cfg, truth, model = sr_task["cfg"], sr_task["truth"], sr_task["model"]
        spec = cfg.downsample
        coarse = coarsen(truth, spec)
        train_hours = sr_task["train_hours"]
        field_std = float(truth.time_slice(0, train_hours).data.std(axis=0).mean())

        pool = truth.time_slice(0, train_hours)
        clim_flat = compute_climatology(coarse.time_slice(0, train_hours), (1, 1))
        fine_clim = compute_climatology(daily_means(pool), (12, 1))
        rng_bcsd = np.random.default_rng(90)

        err_gen, err_bcsd = [], []
        for w, start_day in enumerate((362, 366, 370)):
            y = coarse.time_slice(start_day * 24, (start_day + 3) * 24)
            out = sample_long(model, y, 1, guidance=1.0, rng=np.random.default_rng(91 + w))
            recoarse = coarsen(out, spec)
            err_gen.append(np.abs(recoarse.data - y.data).mean())
            bcsd_out = bcsd_pipeline(y, clim_flat, clim_flat, fine_clim, pool,
                                     rng_bcsd, spec)
            recoarse_b = coarsen(bcsd_out, spec)
            err_bcsd.append(np.abs(recoarse_b.data - y.data).mean())
        gen = float(np.mean(err_gen))
        bcsd = float(np.mean(err_bcsd))
        ok = gen <= 0.1 * field_std and gen < bcsd
        criterion(9, "coarse consistency", ok,
                  f"mean |coarsen(sample) - input| {gen:.4f} vs 0.1*std="
                  f"{0.1 * field_std:.4f}; BCSD same statistic {bcsd:.4f} "
                  f"(generative must be smaller)")

    def test_seam_statistics_invariant(self, sr_task):
        # multidiffusion seam check: temporal PSD error of overlapped-window
        # samples vs single-window samples differs by <10%. Single-window
        # chains replay exactly the noise slices the long chain consumes
        # (common random numbers), so the comparison isolates the
        # consolidation effect instead of draw-to-draw sampling noise.
        cfg, truth, model = sr_task["cfg"], sr_task["truth"], sr_task["model"]
        coarse = coarsen(truth, cfg.downsample)
        day0 = 362
        y_long = coarse.time_slice(day0 * 24, (day0 + 5) * 24)
        total_shape = (60,) + truth.data.shape[1:]

        class SlicedRng:
            """Replays a long run's global noise stream, sliced to one window."""

            def __init__(self, seed, start, window):
                self._rng = np.random.default_rng(seed)
                self._start, self._window = start, window

            def standard_normal(self, shape):
                full = self._rng.standard_normal(total_shape)
                return full[self._start: self._start + self._window]

        def window_pixels(data, start):
            # one 36-step window of the temperature channel, pixels as members
            return data[start: start + 36, :, :, 0].reshape(36, -1).T

        long_members, single_members = [], []
        for seed in range(4):
            long_out = sample_long(model, y_long, 2, guidance=1.0,
                                   rng=np.random.default_rng(5000 + seed))
            left = sample_long(model, coarse.time_slice(day0 * 24, (day0 + 3) * 24), 1,
                               guidance=1.0, rng=SlicedRng(5000 + seed, 0, 36))
            right = sample_long(model,
                                coarse.time_slice((day0 + 2) * 24, (day0 + 5) * 24), 1,
                                guidance=1.0, rng=SlicedRng(5000 + seed, 24, 36))
            long_members += [window_pixels(long_out.data, 0),
                             window_pixels(long_out.data, 24)]
            single_members += [window_pixels(left.data, 0),
                               window_pixels(right.data, 0)]
        ref = np.concatenate([window_pixels(truth.data, day0 * 12),
                              window_pixels(truth.data, (day0 + 2) * 12)])
        t_phys = 36.0 * 2.0
        err_long = temporal_psd_error(np.concatenate(long_members), ref, t_phys)
        err_single = temporal_psd_error(np.concatenate(single_members), ref, t_phys)
        rel = abs(err_long - err_single) / max(err_single, 1e-12)
        assert rel < 0.10, f"seam PSD deviation {rel:.1%}"


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------

E2E_CONFIG = """
[pipeline]
rng_seed = 77

[synth]
nx = 8
ny = 8
n_days = 372
train_days = 360
n_members = 2
noise_amp = 0.6
bias_mean_offset = 0.6
bias_corr_shrink = 0.4

[debias]
steps = 60
warmup_steps = 10
levels = 8,16
transport_steps = 10

[sr]
steps = 60
warmup_steps = 10
levels = 8,16
doy_buckets = 20
n_grid = 32

[sample]
length_days = 5
windows = 2
start_day = 3

[evaluate]
cyclones = true
"""


class TestCriterion10Determinism:
    def test_e2e_bit_identical_metric_csvs(self, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text(E2E_CONFIG)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = cli_main(["e2e", "--config", str(config), "--out", str(out)])
            assert code == 0
            outputs.append((
                (out / "metrics" / "metrics.csv").read_bytes(),
                (out / "metrics" / "comparison.csv").read_bytes(),
            ))
        identical = outputs[0] == outputs[1]
        criterion(10, "end-to-end determinism", identical,
                  "two e2e runs with the same seed produced bit-identical "
                  "metrics.csv and comparison.csv")
