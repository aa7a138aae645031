"""Statistical super-resolution stage: residual targets, denoiser training with
climatology normalization, classifier-free guidance and the exponential
reverse-SDE step.

The model learns the climatology-normalized residual between fine-resolution
truth and the deterministic upsampling of its own coarsening. Samples are
assembled as upsampled input + residual climatology + scaled residual draw;
the reverse chain that draws them is `multidiffusion.sample_chain`, which
makes the step second order (SDE-DPM-Solver++(2M)) by the estimate it feeds it.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import backward  # noqa: F401  not called here; perfbench/tracing.py wraps it
from .grid import (
    DAYS_PER_YEAR,
    Climatology,
    DownsampleSpec,
    GridField,
    coarsen,
    compute_climatology,
    cubic_upsample_space,
    exact_keys,
    interp_upsample,
    require_at_least,
    require_positive,
)
from .nets import (
    ArchConfig,
    checkpoint_params,
    denoiser_arch,
    denoiser_forward,
    load_checkpoint,
    save_checkpoint,
)
from .optim import adam_step  # noqa: F401  not called here; perfbench/tracing.py wraps it
from .reflow import FitConfig, fit, one_group_table, write_loss_log

_TRAIN_STREAM = 3
RHO = 7.0   # the warp of the "edm" sampling grid, EDM's value


@dataclass
class NoiseSchedule:
    """Noise levels: LogUniform draws for training, a decreasing grid for sampling,
    for 0 < sigma_min < sigma_max and n_grid >= 2."""

    sigma_min: float = 1e-4
    sigma_max: float = 80.0
    n_grid: int = 256
    kind: str = "edm"   # "edm" (RHO-spaced) or "tangent"

    def __post_init__(self):
        self.n_grid = operator.index(self.n_grid)
        for name in ("sigma_min", "sigma_max"):
            setattr(self, name, float(getattr(self, name)))
        if self.kind not in ("edm", "tangent"):
            raise ValueError(f"kind must be 'edm' or 'tangent', not {self.kind!r}")
        require_at_least(self, 2, ("n_grid",))
        require_positive(self, ("sigma_min",))
        if not self.sigma_max > self.sigma_min:
            raise ValueError(f"sigma_max must exceed sigma_min = {self.sigma_min}, "
                             f"not {self.sigma_max}")

    def sample_train(self, rng, n):
        return np.exp(rng.uniform(np.log(self.sigma_min), np.log(self.sigma_max), n))

    def tangent_sigma(self, tau):
        tau = np.asarray(tau, dtype=np.float64)
        return (np.tan(3.0 * tau - 1.5) - np.tan(-1.5)) / (np.tan(1.5) - np.tan(-1.5)) \
            * self.sigma_max

    def step_sigmas(self):
        if self.kind == "edm":
            return sigma_steps_edm(self.n_grid, self.sigma_min, self.sigma_max, RHO)
        tau = np.linspace(1.0, 0.0, self.n_grid)
        sig = self.tangent_sigma(tau)
        sig[-1] = self.sigma_min  # tangent schedule hits 0 at tau=0; floor for stepping
        return sig   # `sample_chain` refuses it if the floor is not below sig[-2]


def sigma_steps_edm(n, sigma_min, sigma_max, rho):
    """Decreasing noise grid from sigma_max to sigma_min with rho-warped spacing, n >= 2."""
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
    return z0 + sigma.reshape(sigma.shape + (1,) * (z0.ndim - sigma.ndim)) * eps


def sde_step_exponential(z, sigma_hi, sigma_lo, d, eps):
    """One reverse step of the first-order exponential solver (sigma_hi -> sigma_lo):
    r z + (1 - r) d + sigma_lo sqrt(1 - r) eps with r = sigma_lo^2 / sigma_hi^2,
    the first-order SDE-DPM-Solver++ step for a data estimate d.
    `multidiffusion.sample_chain` passes as d its 2M-corrected estimate, which
    makes the chain second order at one denoiser call per step."""
    if not 0.0 < sigma_lo <= sigma_hi:
        raise ValueError(f"need 0 < sigma_lo <= sigma_hi, got {sigma_lo}, {sigma_hi}")
    r = sigma_lo ** 2 / sigma_hi ** 2
    return r * z + (1.0 - r) * d + (sigma_lo / sigma_hi) * np.sqrt(
        sigma_hi ** 2 - sigma_lo ** 2) * eps


# ---------------------------------------------------------------------------
# Residual construction and normalization
# ---------------------------------------------------------------------------

def fit_training_pair(x: GridField, spec: DownsampleSpec, grouping):
    """Fit the residual climatology on training truth, grouped by `grouping` =
    (doy_buckets, tod_buckets).

    Returns (clim, coarse, up_days): the climatology of the residual
    x - upsample(coarsen(x)), the coarse field coarsen(x), and its daily
    spatial upsampling [days, H, W, V], from which `normalized_residual`
    builds the normalized residual of any days. The full residual is held
    only while its climatology is fitted.
    """
    coarse = coarsen(x, spec)
    up_days = cubic_upsample_space(coarse.data, spec.spatial_factor)
    r = np.repeat(up_days, spec.temporal_window, axis=0)
    np.subtract(x.data, r, out=r)
    return compute_climatology(x.with_data(r), grouping), coarse, up_days


def normalized_residual(x: GridField, up_days, clim: Climatology, start, stop):
    """The normalized residual r~ of days [start, stop) of x, [steps, H, W, V].

    up_days is the daily upsampled coarse field of `fit_training_pair` and clim
    the residual climatology. r~ = (x - upsample(coarsen(x)) - clim_mean) / clim_std,
    element by element, so any days' r~ equals those days of the full range's
    bitwise, and x = upsample(y') + clim_mean + clim_std * r~ holds exactly.
    """
    steps_per_day = x.n_times // len(up_days)
    rows = slice(start * steps_per_day, stop * steps_per_day)
    r = np.repeat(up_days[start:stop], steps_per_day, axis=0)
    np.subtract(x.data[rows], r, out=r)
    times = x.time_coords[rows]
    r -= clim.lookup_mean(times)
    r /= clim.lookup_std(times)
    return r


def assemble_output(y_cond: GridField, residual_draw, residual_clim: Climatology,
                    spec: DownsampleSpec) -> GridField:
    """x = upsample(y') + clim_mean[r] + clim_std[r] * draw, on the fine grid."""
    up = interp_upsample(y_cond, spec)
    times = up.time_coords
    mean = residual_clim.lookup_mean(times)
    std = residual_clim.lookup_std(times)
    return up.with_data(up.data + mean + std * residual_draw)


def prepare_cond(y_cond: GridField, cond_stats: Climatology, spec: DownsampleSpec):
    """The conditioning field: the coarse daily input normalized by the
    one-group `cond_stats` and upsampled in space to the fine grid, [days, H,
    W, V]. It stays daily; a window of it is `nets.denoiser_cond`'s input."""
    y_tilde = (y_cond.data - cond_stats.mean) / cond_stats.std
    return cubic_upsample_space(y_tilde, spec.spatial_factor)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class SRTrainConfig(FitConfig):
    steps: int = 800
    batch: int = 4
    window_days: int = 3
    spatial_factor: int = 4
    p_uncond: float = 0.15
    doy_buckets: int = DAYS_PER_YEAR
    noise: NoiseSchedule = field(default_factory=NoiseSchedule)

    def __post_init__(self):
        require_at_least(self, 1, ("batch", "window_days", "doy_buckets"))
        if not 0.0 <= self.p_uncond < 1.0:
            raise ValueError(f"p_uncond must lie in [0, 1), not {self.p_uncond}")
        super().__post_init__()


@dataclass
class SRModel:
    params: dict
    arch: ArchConfig
    residual_clim: Climatology   # of the normalized residual, by calendar group
    cond_stats: Climatology      # of the coarse input, one group
    schedule: NoiseSchedule
    spec: DownsampleSpec
    window_days: int


def denoise_loss(leaves, arch: ArchConfig, z0, cond, sigmas, eps, keep_mask):
    """Weighted denoising MSE with per-sample conditioning dropout, as a scalar
    Tensor; leaves as for `nets.denoiser_forward`.

    z0: [B, T, H, W, V]; cond: [B, n, H, W, V] conditioning windows (see
    `nets.denoiser_cond`); sigmas, keep_mask: [B]; eps: like z0. Dropped
    samples see the null (zero) conditioning tensor.
    """
    z = perturb(z0, sigmas, eps)
    cond_masked = cond * keep_mask[:, None, None, None, None]
    d = denoiser_forward(leaves, z, sigmas, cond_masked, arch)
    per_sample = ad.mean(ad.square(d - z0), axes=(1, 2, 3, 4))
    return ad.mean(per_sample * loss_weight(sigmas))


def train_sr(fine_truth: GridField, cfg: SRTrainConfig, out_dir=None):
    """Train the residual denoiser on self-coarsened fine truth.

    `fit` runs the loop; each step draws window start days, noise levels,
    noise and the dropout mask, in that order. Returns (SRModel, log). A
    window is cfg.window_days of the normalized residual at fine cadence,
    built for each batch by `normalized_residual` (the full residual is not
    kept), conditioned on the same days of the daily `prepare_cond` field.
    """
    spec = DownsampleSpec(cfg.spatial_factor, 24 // fine_truth.dt_hours)
    steps_per_day = spec.temporal_window
    window = cfg.window_days * steps_per_day
    clim, coarse, up_days = fit_training_pair(fine_truth, spec,
                                              grouping=(cfg.doy_buckets, steps_per_day))
    cond_stats = compute_climatology(coarse, (1, 1))
    cond_days = prepare_cond(coarse, cond_stats, spec)
    n_days = fine_truth.n_times // steps_per_day
    if n_days < cfg.window_days:
        raise ValueError("training series shorter than one window")
    arch = denoiser_arch(fine_truth.data.shape[-1], window, levels=cfg.levels)

    def loss_fn(leaves, rng):
        days = rng.integers(0, n_days - cfg.window_days + 1, cfg.batch)
        z0 = np.stack([normalized_residual(fine_truth, up_days, clim, d, d + cfg.window_days)
                       for d in days])
        cond = np.stack([cond_days[d: d + cfg.window_days] for d in days])
        sigmas = cfg.noise.sample_train(rng, cfg.batch)
        eps = rng.standard_normal(z0.shape)
        keep = (rng.random(cfg.batch) >= cfg.p_uncond).astype(np.float64)
        return denoise_loss(leaves, arch, z0, cond, sigmas, eps, keep)

    params, log, state = fit(arch, cfg, _TRAIN_STREAM, loss_fn)
    model = SRModel(params, arch, clim, cond_stats, cfg.noise, spec, cfg.window_days)
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
    sigma; cond is the windows' conditioning [..., n, H, W, V] (see
    `nets.denoiser_cond`) or their `nets.denoiser_cond` [..., H, W,
    levels[0]]; all-zero conditioning is the null input. Every window goes
    through one `denoiser_forward` call, which forms the guided mix itself:
    the two branches share the input conv's state half and one output conv.
    """
    zb = z.reshape((-1,) + z.shape[-4:])
    cb = cond.reshape((-1,) + cond.shape[z.ndim - 4:])
    return denoiser_forward(params, zb, np.full(len(zb), sigma), cb, arch,
                            guidance).data.reshape(z.shape)


# the normalization statistics an SR checkpoint holds beside its param/ tensors
_SR_STATS = ("clim/mean", "clim/std", "cond_stats/mean", "cond_stats/std")


def save_sr(model: SRModel, ckpt_dir, opt_state=None) -> None:
    clim, cond = model.residual_clim, model.cond_stats
    arrays = {f"param/{k}": v for k, v in model.params.items()}
    arrays.update(zip(_SR_STATS, (clim.mean, clim.std, cond.mean[0], cond.std[0])))
    meta = {"kind": "sr", "step": getattr(opt_state, "step", 0), "levels": model.arch.levels,
            "window_days": model.window_days, "steps_per_day": model.spec.temporal_window,
            "schedule": asdict(model.schedule)}
    save_checkpoint(ckpt_dir, arrays, meta)


def _sr_model(arrays, meta) -> SRModel:
    """`train_sr`'s model. The spatial factor is the fine grid of clim/mean over the
    coarse grid of cond_stats/mean; the climatology has steps_per_day groups a day.
    A tensor beyond the parameters and the four statistics is refused, so an
    older checkpoint's mask of climatology groups never observed cannot load as
    if its climatology covered every group."""
    unread = sorted(k for k in arrays if not k.startswith("param/") and k not in _SR_STATS)
    if unread:
        raise ValueError(f"an SR checkpoint holds no tensors {unread}")
    clim_mean, cond = arrays["clim/mean"], one_group_table(arrays, "cond_stats")
    (nx, ny), (cx, cy) = clim_mean.shape[1:3], cond.mean.shape[1:3]
    factor = nx // max(cx, 1)
    if (cx * factor, cy * factor) != (nx, ny):
        raise ValueError(f"fine grid {nx}x{ny} is not a whole multiple of coarse grid {cx}x{cy}")
    spec = DownsampleSpec(factor, operator.index(meta["steps_per_day"]))
    window_days = operator.index(meta["window_days"])
    arch = denoiser_arch(clim_mean.shape[-1], window_days * spec.temporal_window, meta["levels"])
    clim = Climatology(len(clim_mean) // spec.temporal_window, spec.temporal_window, clim_mean,
                       arrays["clim/std"])
    sched = NoiseSchedule(**exact_keys(meta["schedule"], NoiseSchedule))
    return SRModel(checkpoint_params(arrays, arch), arch, clim, cond, sched, spec, window_days)


def load_sr(ckpt_dir) -> SRModel:
    return load_checkpoint(ckpt_dir, "sr", _sr_model)
