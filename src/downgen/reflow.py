"""Bias-correction stage: seasonal coupling, flow-matching training and the
ODE transport that maps biased coarse members onto the debiased distribution.

Training regresses a velocity field onto straight-line displacements between
coupled (member, target) snapshot pairs, both sides normalized by their own
training-period statistics; each step draws its pairs from a `CouplingPool`
of the normalized series, built once per training run. The transport map
integrates the learned ODE with fixed-step RK4 and denormalizes with the
target statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import backward
from .grid import (
    DAYS_PER_YEAR,
    Climatology,
    GridField,
    compute_climatology,
    day_of_year,
    require_at_least,
    require_positive,
)
from .nets import (
    TAU_FREQS,
    ArchConfig,
    DivergenceError,
    as_leaves,
    checkpoint_params,
    init_params,
    load_checkpoint,
    save_checkpoint,
    velocity_arch,
    velocity_forward,
)
from .optim import OptimizerState, Schedule, adam_step

_TRAIN_STREAM = 2
TAU_MIN = 1e-3   # training times are drawn from U(TAU_MIN, 1 - TAU_MIN)


@dataclass
class CouplingConfig:
    chunk_len_days: int = 8
    season_window_days: int = 15

    def __post_init__(self):
        require_at_least(self, 1, ("chunk_len_days",))
        require_at_least(self, 0, ("season_window_days",))


@dataclass
class FitConfig:
    """The settings `fit` reads, shared by both stages' training configs: steps
    and warmup_steps >= 0, peak_lr and clip_norm > 0, 0 <= end_lr <= peak_lr, and
    levels at least one channel count, each at least 1."""

    steps: int = 2000
    peak_lr: float = 1e-3
    end_lr: float = 1e-6
    warmup_steps: int = 100
    clip_norm: float = 0.6
    levels: tuple = (16, 32, 64)
    seed: int = 0

    def __post_init__(self):
        require_at_least(self, 0, ("steps", "warmup_steps"))
        require_positive(self, ("peak_lr", "clip_norm"))
        if not 0.0 <= self.end_lr <= self.peak_lr:
            raise ValueError(f"end_lr must lie in [0, peak_lr = {self.peak_lr}], "
                             f"not {self.end_lr}")
        if not (self.levels and min(self.levels) >= 1):
            raise ValueError(f"levels must be channel counts of at least 1, not {self.levels}")


@dataclass
class ReflowTrainConfig(FitConfig):
    chunks_per_batch: int = 4
    coupling: CouplingConfig = field(default_factory=CouplingConfig)

    def __post_init__(self):
        require_at_least(self, 1, ("chunks_per_batch",))
        super().__post_init__()


@dataclass
class ReflowModel:
    params: dict
    arch: ArchConfig
    member_stats: dict           # member_id -> one-group Climatology
    target_stats: Climatology    # one group, (1, 1)


@dataclass
class CouplingBatch:
    """Normalized snapshot pairs plus per-sample member statistic fields (read pooled)."""

    y0: np.ndarray         # [B, NX, NY, V] biased member snapshots (normalized)
    y1: np.ndarray         # [B, NX, NY, V] target snapshots (normalized)
    stat_mean: np.ndarray  # [B, NX, NY, V] member mean, in target-normalized units
    stat_std: np.ndarray   # [B, NX, NY, V] member std relative to the target's


def _normalized_member(data, stats: Climatology, target_stats: Climatology):
    """A member series normalized by its own statistics, with those statistics
    as dimensionless conditioning fields, [1, NX, NY, V] each.

    The raw mean/std can sit far from zero (pressure-scale values); expressing
    them relative to the target statistics keeps network inputs O(1).
    """
    return ((data - stats.mean) / stats.std,
            (stats.mean - target_stats.mean) / target_stats.std,
            stats.std / target_stats.std)


def _doy_distance(a, b):
    d = np.abs(a - b)
    return np.minimum(d, DAYS_PER_YEAR - d)


@dataclass
class CouplingPool:
    """What every coupling draw of one training run reads, computed once."""

    cfg: CouplingConfig
    members: list            # per member: (normalized series, days of year, mean, std fields)
    target: np.ndarray       # [T, NX, NY, V] normalized target series
    starts: np.ndarray       # target chunk starts
    start_doy: np.ndarray    # their days of year


def coupling_pool(members, member_stats, target, target_stats, cfg: CouplingConfig):
    """The `CouplingPool` of members and target: each member normalized by its
    own statistics, the target by the target statistics."""
    chunk = cfg.chunk_len_days
    if target.n_times < chunk:
        raise ValueError("target series shorter than one chunk")
    starts = np.arange(target.n_times - chunk + 1)
    per_member = []
    for member in members:
        series, mean_cond, std_cond = _normalized_member(
            member.data, member_stats[member.member_id], target_stats)
        per_member.append((series, day_of_year(member.time_coords), mean_cond, std_cond))
    return CouplingPool(cfg, per_member, (target.data - target_stats.mean) / target_stats.std,
                        starts, day_of_year(target.time_coords)[starts])


def sample_coupling(pool: CouplingPool, rng, n_chunks) -> CouplingBatch:
    """Draw contiguous chunk pairs with matching season (day-of-year window).

    Pairing is independent within the season window: no trajectory alignment
    between member and target is assumed. Members are sampled uniformly.
    Each chunk draws a member, its start, then a target start in the window.
    """
    chunk, window = pool.cfg.chunk_len_days, pool.cfg.season_window_days
    y0_parts, y1_parts, mean_parts, std_parts = [], [], [], []
    for _ in range(n_chunks):
        series, member_doy, mean_cond, std_cond = pool.members[
            int(rng.integers(len(pool.members)))]
        i0 = int(rng.integers(series.shape[0] - chunk + 1))
        valid = pool.starts[_doy_distance(pool.start_doy, member_doy[i0]) <= window]
        if valid.size == 0:
            raise ValueError(f"no target chunk within {window} days "
                             f"of day-of-year {member_doy[i0]}")
        j0 = int(valid[rng.integers(valid.size)])   # rng.choice(valid)'s draw, cheaper
        y0_parts.append(series[i0: i0 + chunk])
        y1_parts.append(pool.target[j0: j0 + chunk])
        mean_parts.append(np.broadcast_to(mean_cond, y0_parts[-1].shape))
        std_parts.append(np.broadcast_to(std_cond, y0_parts[-1].shape))
    return CouplingBatch(
        y0=np.concatenate(y0_parts),
        y1=np.concatenate(y1_parts),
        stat_mean=np.concatenate(mean_parts),
        stat_std=np.concatenate(std_parts),
    )


def reflow_loss(leaves, arch: ArchConfig, batch: CouplingBatch, tau):
    """Mean squared residual between displacement (y1 - y0) and the velocity,
    as a scalar Tensor; leaves as for `nets.velocity_forward`.

    tau: [B] interpolation times in (0, 1).
    """
    t = tau[:, None, None, None]
    y_tau = t * batch.y1 + (1.0 - t) * batch.y0
    v = velocity_forward(leaves, y_tau, tau, batch.stat_mean, batch.stat_std, arch)
    return ad.mean(ad.square(v - (batch.y1 - batch.y0)))


def integrate_velocity(model: ReflowModel, yhat0, stat_mean, stat_std, *, n_steps):
    """Fixed-step RK4 for dy/dtau = v(y, tau) from tau = 0 to 1, in normalized coordinates.

    yhat0: [B, NX, NY, V]; stat_mean/stat_std: [B, NX, NY, V], or
    [1, NX, NY, V] for statistics shared by all rows. Every velocity
    evaluation passes its tau once, as a [1] array shared by all rows.
    """
    h = 1.0 / n_steps
    y = yhat0.copy()

    def vel(state, t):
        return velocity_forward(model.params, state, np.array([t]), stat_mean, stat_std,
                                model.arch).data

    for i in range(n_steps):
        t = i * h
        k1 = vel(y, t)
        k2 = vel(y + 0.5 * h * k1, t + 0.5 * h)
        k3 = vel(y + 0.5 * h * k2, t + 0.5 * h)
        k4 = vel(y + h * k3, t + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise DivergenceError(f"non-finite state during transport at step {i}")
    return y


def transport(model: ReflowModel, y: GridField, member_id, *, n_steps) -> GridField:
    """Debias a member series: normalize, integrate the flow 0 -> 1, denormalize.

    The member's statistic fields go to `integrate_velocity` as they are,
    shaped [1, NX, NY, V], not broadcast over the series' days.
    """
    if member_id not in model.member_stats:
        raise ValueError(f"no statistics for member {member_id!r}")
    yhat, mean_cond, std_cond = _normalized_member(y.data, model.member_stats[member_id],
                                                   model.target_stats)
    out = integrate_velocity(model, yhat, mean_cond, std_cond, n_steps=n_steps)
    data = out * model.target_stats.std + model.target_stats.mean
    return y.with_data(data)


def train_reflow(members, target, cfg: ReflowTrainConfig, out_dir=None):
    """Train the velocity field on training-period member/target series.

    `fit` runs the loop; each step draws a coupling batch from the run's
    `coupling_pool` through `sample_coupling`, then its times.
    Returns (ReflowModel, log) where log holds `fit`'s rows.
    When out_dir is given, writes a checkpoint and the loss curve CSV there.
    """
    if not members:
        raise ValueError("empty training ensemble")
    member_stats = {m.member_id: compute_climatology(m, (1, 1)) for m in members}
    target_stats = compute_climatology(target, (1, 1))
    arch = velocity_arch(target.data.shape[-1], levels=cfg.levels)
    batch_size = cfg.chunks_per_batch * cfg.coupling.chunk_len_days
    pool = coupling_pool(members, member_stats, target, target_stats, cfg.coupling)

    def loss_fn(leaves, rng):
        batch = sample_coupling(pool, rng, cfg.chunks_per_batch)
        tau = rng.uniform(TAU_MIN, 1.0 - TAU_MIN, batch_size)
        return reflow_loss(leaves, arch, batch, tau)

    params, log, state = fit(arch, cfg, _TRAIN_STREAM, loss_fn)
    model = ReflowModel(params, arch, member_stats, target_stats)
    if out_dir is not None:
        save_reflow(model, out_dir, opt_state=state)
        write_loss_log(Path(out_dir) / "loss.csv", log)
    return model, log


def fit(arch: ArchConfig, cfg: FitConfig, stream, loss_fn):
    """The training loop of both stages: seeded init, then clipped Adam steps.

    One generator seeded from (cfg.seed, stream) initializes the parameters;
    each of cfg.steps steps then calls loss_fn(leaves, rng) -> scalar loss
    Tensor, which draws its batch from it, through `_loss_and_grads`. Returns
    (params, log, optimizer state); log has one (step, loss, lr, grad_norm,
    clipped) row per step, grad_norm the pre-clip global norm and clipped 1
    when it exceeded cfg.clip_norm.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))
    params = init_params(rng, arch)
    state = OptimizerState(
        Schedule(peak_lr=cfg.peak_lr, end_lr=cfg.end_lr,
                 warmup_steps=cfg.warmup_steps, total_steps=cfg.steps),
        clip_norm=cfg.clip_norm)
    log = []
    for step in range(cfg.steps):
        loss, grads = _loss_and_grads(params, loss_fn, rng)
        lr = adam_step(params, state, grads)
        del grads   # not held through the next step's forward and backward
        log.append((step, loss, lr, state.grad_norm, int(state.grad_norm > state.clip_norm)))
    return params, log, state


def _loss_and_grads(params, loss_fn, rng):
    """(loss, grads) of one training step: loss_fn(leaves, rng) on a tape of
    fresh leaves of params, refused if not finite, then walked by `backward`;
    a parameter the loss does not reach gets zeros. The tape is dropped on
    return."""
    leaves = as_leaves(params)
    loss = loss_fn(leaves, rng)
    if not np.isfinite(loss.data):
        raise DivergenceError("non-finite training loss")
    backward(loss)
    return float(loss.data), {k: np.zeros_like(v) if leaves[k].grad is None else leaves[k].grad
                              for k, v in params.items()}


def write_loss_log(path, log):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss", "lr", "grad_norm", "clipped"])
        for step, loss, lr, grad_norm, clipped in log:
            writer.writerow([step, repr(loss), repr(float(lr)), repr(grad_norm), clipped])


def one_group_table(arrays, name) -> Climatology:
    """The one-group table stored as `name/mean` and `name/std`, without its group axis."""
    return Climatology(1, 1, arrays[f"{name}/mean"][None], arrays[f"{name}/std"][None])


def save_reflow(model: ReflowModel, ckpt_dir, opt_state=None) -> None:
    arrays = {f"param/{k}": v for k, v in model.params.items()}
    for mid, stats in model.member_stats.items():
        arrays[f"member_stats/{mid}/mean"] = stats.mean[0]
        arrays[f"member_stats/{mid}/std"] = stats.std[0]
    arrays["target_stats/mean"] = model.target_stats.mean[0]
    arrays["target_stats/std"] = model.target_stats.std[0]
    meta = {"kind": "reflow", "step": getattr(opt_state, "step", 0), "levels": model.arch.levels,
            "tau_freqs": _tau_freq_range()}
    save_checkpoint(ckpt_dir, arrays, meta)


def _tau_freq_range():
    """The first and last of `nets.TAU_FREQS`: the range the tensors cannot show."""
    return [float(TAU_FREQS[0]), float(TAU_FREQS[-1])]


def _reflow_model(arrays, meta) -> ReflowModel:
    """`train_reflow`'s model: a member per `member_stats/<id>/` tensor pair, on the
    grid of the target statistics. A net whose tau embedding had other
    frequencies than `nets.TAU_FREQS` is refused: its tensors have the same shapes."""
    if meta.get("tau_freqs") != _tau_freq_range():
        raise ValueError(f"meta.tau_freqs is {meta.get('tau_freqs')!r}, not this velocity net's "
                         f"{_tau_freq_range()}: train the debias stage again")
    target_stats = one_group_table(arrays, "target_stats")
    arch = velocity_arch(target_stats.mean.shape[-1], levels=meta["levels"])
    members = sorted({name.split("/")[1] for name in arrays if name.startswith("member_stats/")})
    member_stats = {mid: one_group_table(arrays, f"member_stats/{mid}") for mid in members}
    for mid, stats in member_stats.items():
        if stats.mean.shape != target_stats.mean.shape:
            raise ValueError(f"member {mid!r} statistics of shape {stats.mean.shape}, target "
                             f"statistics of shape {target_stats.mean.shape}")
    return ReflowModel(checkpoint_params(arrays, arch), arch, member_stats, target_stats)


def load_reflow(ckpt_dir) -> ReflowModel:
    return load_checkpoint(ckpt_dir, "reflow", _reflow_model)
