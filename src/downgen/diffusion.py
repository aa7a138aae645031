"""Statistical super-resolution stage: residual targets, denoiser training with
climatology normalization and classifier-free guidance, and the first-order
exponential reverse-SDE sampler.

The model learns the climatology-normalized residual between fine-resolution
truth and the deterministic upsampling of its own coarsening. Samples are
assembled as upsampled input + residual climatology + scaled residual draw.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .grid import (
    DAYS_PER_YEAR,
    Climatology,
    DownsampleSpec,
    EnsembleStats,
    GridField,
    coarsen,
    compute_climatology,
    compute_ensemble_stats,
    cubic_upsample_space,
    interp_upsample,
    repeat_time,
)
from .nets import (
    ArchConfig,
    DivergenceError,
    as_leaves,
    collect_grads,
    denoiser_arch,
    denoiser_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .optim import OptimizerState, Schedule, adam_step
from .reflow import write_loss_log

_TRAIN_STREAM = 3


@dataclass
class NoiseSchedule:
    """Noise levels: LogUniform draws for training, a decreasing grid for sampling."""

    sigma_min: float = 1e-4
    sigma_max: float = 80.0
    n_grid: int = 256
    kind: str = "edm"   # "edm" (rho-spaced) or "tangent"
    rho: float = 7.0

    def sample_train(self, rng, n):
        return np.exp(rng.uniform(np.log(self.sigma_min), np.log(self.sigma_max), n))

    def tangent_sigma(self, tau):
        tau = np.asarray(tau, dtype=np.float64)
        return (np.tan(3.0 * tau - 1.5) - np.tan(-1.5)) / (np.tan(1.5) - np.tan(-1.5)) \
            * self.sigma_max

    def step_sigmas(self):
        if self.kind == "edm":
            return sigma_steps_edm(self.n_grid, self.sigma_min, self.sigma_max, self.rho)
        if self.kind == "tangent":
            tau = np.linspace(1.0, 0.0, self.n_grid)
            sig = self.tangent_sigma(tau)
            sig[-1] = self.sigma_min  # tangent schedule hits 0 at tau=0; floor for stepping
            if not (np.diff(sig) < 0).all():
                raise ValueError("tangent step grid is not strictly decreasing")
            return sig
        raise ValueError(f"unknown schedule kind {self.kind!r}")


def sigma_steps_edm(n=256, sigma_min=1e-4, sigma_max=80.0, rho=7.0):
    """Decreasing noise grid from sigma_max to sigma_min with rho-warped spacing."""
    if n < 2:
        raise ValueError("need at least two grid points")
    i = np.arange(n)
    return (sigma_max ** (1 / rho)
            + i / (n - 1) * (sigma_min ** (1 / rho) - sigma_max ** (1 / rho))) ** rho


def loss_weight(sigma):
    return 1.0 + 1.0 / np.asarray(sigma) ** 2


def perturb(z0, sigma, eps):
    """Gaussian perturbation z0 + sigma * eps with explicitly supplied noise."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma <= 0).any():
        raise ValueError("sigma must be positive")
    if sigma.ndim > 0:
        sigma = sigma.reshape(sigma.shape + (1,) * (z0.ndim - sigma.ndim))
    return z0 + sigma * eps


def sde_step_exponential(z, sigma_hi, sigma_lo, d, eps):
    """One reverse step of the first-order exponential solver (sigma_hi -> sigma_lo)."""
    if not 0.0 < sigma_lo <= sigma_hi:
        raise ValueError(f"need 0 < sigma_lo <= sigma_hi, got {sigma_lo}, {sigma_hi}")
    r = sigma_lo ** 2 / sigma_hi ** 2
    return r * z + (1.0 - r) * d + (sigma_lo / sigma_hi) * np.sqrt(
        sigma_hi ** 2 - sigma_lo ** 2) * eps


# ---------------------------------------------------------------------------
# Residual construction and normalization
# ---------------------------------------------------------------------------

@dataclass
class SRNormalization:
    """Climatology of the residual plus date-agnostic stats of the coarse input."""

    residual_clim: Climatology
    cond_stats: EnsembleStats


def residual_field(x: GridField, spec: DownsampleSpec) -> GridField:
    """r = x - upsample(coarsen(x)), as a field on the fine grid."""
    up = interp_upsample(coarsen(x, spec), spec)
    return x.with_data(x.data - up.data)


def fit_normalization(x: GridField, spec: DownsampleSpec,
                      grouping=(DAYS_PER_YEAR, None)) -> SRNormalization:
    """Fit residual climatology and coarse-input stats on training truth."""
    doy_buckets, tod_buckets = grouping
    if tod_buckets is None:
        tod_buckets = 24 // x.dt_hours
    resid = residual_field(x, spec)
    clim = compute_climatology(resid, (doy_buckets, tod_buckets))
    coarse = coarsen(x, spec)
    return SRNormalization(residual_clim=clim, cond_stats=compute_ensemble_stats(coarse))


def make_training_pair(x: GridField, norm: SRNormalization, spec: DownsampleSpec):
    """(normalized residual, normalized coarse input) from self-coarsened truth.

    The inversion x = upsample(y') + clim_mean + clim_std * r_tilde holds exactly.
    """
    coarse = coarsen(x, spec)
    up = interp_upsample(coarse, spec)
    r = x.data - up.data
    times = x.time_coords
    r_tilde = (r - norm.residual_clim.lookup_mean(times)) / norm.residual_clim.lookup_std(times)
    y_tilde = (coarse.data - norm.cond_stats.mean) / norm.cond_stats.std
    return r_tilde, y_tilde


def assemble_output(y_cond: GridField, residual_draw, norm: SRNormalization,
                    spec: DownsampleSpec) -> GridField:
    """x = upsample(y') + clim_mean[r] + clim_std[r] * draw, on the fine grid."""
    up = interp_upsample(y_cond, spec)
    times = up.time_coords
    mean = norm.residual_clim.lookup_mean(times)
    std = norm.residual_clim.lookup_std(times)
    return up.with_data(up.data + mean + std * residual_draw)


def prepare_cond(y_cond: GridField, norm: SRNormalization, spec: DownsampleSpec):
    """Normalize the coarse input and lift it to the fine grid for conditioning."""
    y_tilde = (y_cond.data - norm.cond_stats.mean) / norm.cond_stats.std
    return repeat_time(cubic_upsample_space(y_tilde, spec.spatial_factor),
                       spec.temporal_window)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class SRTrainConfig:
    steps: int = 800
    batch: int = 4
    window_days: int = 3
    spatial_factor: int = 4
    p_uncond: float = 0.15
    peak_lr: float = 1e-3
    end_lr: float = 1e-6
    warmup_steps: int = 100
    clip_norm: float = 0.6
    levels: tuple = (16, 32, 64)
    doy_buckets: int = DAYS_PER_YEAR
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)
    seed: int = 0


@dataclass
class SRModel:
    params: dict
    arch: ArchConfig
    norm: SRNormalization
    schedule: NoiseSchedule
    spec: DownsampleSpec
    window_days: int


def denoise_loss(params, arch: ArchConfig, z0, cond, sigmas, eps, keep_mask):
    """Weighted denoising MSE with per-sample conditioning dropout.

    z0, cond: [B, T, H, W, V]; sigmas, keep_mask: [B]; eps: like z0. Dropped
    samples see the null (zero) conditioning tensor.
    """
    z = perturb(z0, sigmas, eps)
    cond_masked = cond * keep_mask[:, None, None, None, None]
    leaves = as_leaves(params)
    d = denoiser_forward(leaves, z, sigmas, cond_masked, arch)
    per_sample = ad.mean(ad.square(d - Tensor(z0)), axes=(1, 2, 3, 4))
    loss = ad.mean(per_sample * Tensor(loss_weight(sigmas)))
    if not np.isfinite(loss.data):
        raise DivergenceError("non-finite denoising loss")
    backward(loss)
    return float(loss.data), collect_grads(leaves, params)


def train_sr(fine_truth: GridField, cfg: SRTrainConfig, out_dir=None):
    """Train the residual denoiser on self-coarsened fine truth.

    Returns (SRModel, log). Window length is cfg.window_days at fine cadence.
    """
    spec = DownsampleSpec(cfg.spatial_factor, 24 // fine_truth.dt_hours)
    steps_per_day = spec.temporal_window
    window = cfg.window_days * steps_per_day
    norm = fit_normalization(fine_truth, spec, grouping=(cfg.doy_buckets, steps_per_day))
    r_tilde, y_tilde = make_training_pair(fine_truth, norm, spec)
    cond_full = repeat_time(cubic_upsample_space(y_tilde, spec.spatial_factor),
                            spec.temporal_window)
    n_days = fine_truth.n_times // steps_per_day
    if n_days < cfg.window_days:
        raise ValueError("training series shorter than one window")
    n_vars = fine_truth.data.shape[-1]
    arch = denoiser_arch(n_vars, window, levels=cfg.levels)
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _TRAIN_STREAM)))
    params = init_params(rng, arch)
    state = OptimizerState(
        Schedule(peak_lr=cfg.peak_lr, end_lr=cfg.end_lr,
                 warmup_steps=cfg.warmup_steps, total_steps=cfg.steps),
        clip_norm=cfg.clip_norm)
    log = []
    for step in range(cfg.steps):
        starts = rng.integers(0, n_days - cfg.window_days + 1, cfg.batch) * steps_per_day
        z0 = np.stack([r_tilde[s: s + window] for s in starts])
        cond = np.stack([cond_full[s: s + window] for s in starts])
        sigmas = cfg.noise.sample_train(rng, cfg.batch)
        eps = rng.standard_normal(z0.shape)
        keep = (rng.random(cfg.batch) >= cfg.p_uncond).astype(np.float64)
        loss, grads = denoise_loss(params, arch, z0, cond, sigmas, eps, keep)
        lr = adam_step(params, state, grads)
        log.append((step, loss, lr))
    model = SRModel(params, arch, norm, cfg.noise, spec, cfg.window_days)
    if out_dir is not None:
        save_sr(model, out_dir, opt_state=state)
        write_loss_log(Path(out_dir) / "loss.csv", log)
    return model, log


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def cfg_denoise(params, arch: ArchConfig, z, sigma, cond, guidance):
    """Classifier-free guided denoiser: (1+g) D(z, s, cond) - g D(z, s, null).

    z: [..., T, H, W, V], one window or a stack of windows, all at noise level
    sigma; cond has the shape of z, or is None for unconditional denoising
    regardless of guidance strength. Every window and both guidance branches
    go through one batched denoiser call.
    """
    leaves = as_leaves(params)
    zb = z.reshape((-1,) + z.shape[-4:])
    cb = None if cond is None else cond.reshape(zb.shape)
    n = len(zb)
    if cb is None or guidance == 0.0:
        return denoiser_forward(leaves, zb, np.full(n, sigma), cb, arch).data.reshape(z.shape)
    out = denoiser_forward(leaves, np.concatenate([zb, zb]), np.full(2 * n, sigma),
                           np.concatenate([cb, np.zeros_like(cb)]), arch).data
    return ((1.0 + guidance) * out[:n] - guidance * out[n:]).reshape(z.shape)


def sample_chain(denoise_fn, shape, sigmas, rng):
    """Run the reverse chain from sigma_max noise down the given sigma grid.

    denoise_fn(z, sigma) -> denoised estimate. Returns the state at the final
    (smallest) sigma; the terminal condition is z ~ N(0, sigmas[0]^2 I).
    """
    z = rng.standard_normal(shape) * sigmas[0]
    for i in range(len(sigmas) - 1):
        d = denoise_fn(z, sigmas[i])
        eps = rng.standard_normal(shape)
        z = sde_step_exponential(z, sigmas[i], sigmas[i + 1], d, eps)
        if not np.isfinite(z).all():
            raise DivergenceError(f"non-finite sampler state at grid index {i}")
    return z


def sample(model: SRModel, y_cond: GridField, guidance=1.0, rng=None) -> GridField:
    """Draw one fine-resolution window conditioned on a coarse input window."""
    if rng is None:
        rng = np.random.default_rng(0)
    if y_cond.n_times != model.window_days:
        raise ValueError(f"expected a {model.window_days}-day coarse window, "
                         f"got {y_cond.n_times} steps")
    cond = prepare_cond(y_cond, model.norm, model.spec)
    sigmas = model.schedule.step_sigmas()

    def denoise_fn(z, sigma):
        return cfg_denoise(model.params, model.arch, z, sigma, cond, guidance)

    draw = sample_chain(denoise_fn, cond.shape, sigmas, rng)
    return assemble_output(y_cond, draw, model.norm, model.spec)


def save_sr(model: SRModel, ckpt_dir, opt_state=None) -> None:
    arrays = {f"param/{k}": v for k, v in model.params.items()}
    arrays["clim/mean"] = model.norm.residual_clim.mean
    arrays["clim/std"] = model.norm.residual_clim.std
    arrays["cond_stats/mean"] = model.norm.cond_stats.mean
    arrays["cond_stats/std"] = model.norm.cond_stats.std
    if model.norm.residual_clim.valid is not None:
        arrays["clim/valid"] = model.norm.residual_clim.valid.astype(np.float64)
    if opt_state is not None:
        for k, v in opt_state.m.items():
            arrays[f"adam_m/{k}"] = v
        for k, v in opt_state.v.items():
            arrays[f"adam_v/{k}"] = v
    meta = {
        "kind": "sr",
        "step": opt_state.step if opt_state is not None else 0,
        "arch": model.arch.to_json(),
        "clim_buckets": [model.norm.residual_clim.doy_buckets,
                         model.norm.residual_clim.tod_buckets],
        "schedule": {"sigma_min": model.schedule.sigma_min,
                     "sigma_max": model.schedule.sigma_max,
                     "n_grid": model.schedule.n_grid,
                     "kind": model.schedule.kind,
                     "rho": model.schedule.rho},
        "spec": [model.spec.spatial_factor, model.spec.temporal_window],
        "window_days": model.window_days,
    }
    save_checkpoint(ckpt_dir, arrays, meta)


def load_sr(ckpt_dir) -> SRModel:
    arrays, meta = load_checkpoint(ckpt_dir)
    params = {k[len("param/"):]: v for k, v in arrays.items() if k.startswith("param/")}
    valid = arrays["clim/valid"].astype(bool) if "clim/valid" in arrays else None
    clim = Climatology(meta["clim_buckets"][0], meta["clim_buckets"][1],
                       arrays["clim/mean"], arrays["clim/std"], valid=valid)
    norm = SRNormalization(clim, EnsembleStats(arrays["cond_stats/mean"],
                                               arrays["cond_stats/std"]))
    sched = NoiseSchedule(**meta["schedule"])
    spec = DownsampleSpec(meta["spec"][0], meta["spec"][1])
    return SRModel(params, ArchConfig.from_json(meta["arch"]), norm, sched, spec,
                   meta["window_days"])
