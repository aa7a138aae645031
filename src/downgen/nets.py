"""Conditioned function approximators for the velocity field and the denoiser.

Both nets are small convolutional U-nets (3x3 kernels, stride-2 down,
nearest-up + conv, skip connections), each with the channels per level of
its own stage's `levels` setting. Scalar conditioning enters through a
Fourier embedding followed by per-block FiLM modulation: the velocity net
embeds the flow time on `TAU_FREQS` plus its pooled member statistics, the
denoiser its noise level on `FOURIER_FREQS` with gridded conditioning as input
channels. Everything is float64 with hand-written gradients.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .grid import decoding, read_json, read_npy, write_npy


class DivergenceError(RuntimeError):
    """Raised when a forward pass or training step produces non-finite values."""


KERNEL = 3       # side of every conv kernel
EMBED_DIM = 32   # width of the scalar-conditioning embedding
# The N_FREQS log-spaced frequencies of each scalar embedding, read-only: every caller
# shares them. The denoiser embeds c_noise = log(sigma)/4 on [1, 1e4]. The velocity net
# embeds the ODE time tau in [0, 1] on [1, 1e2], so that an RK4 step can resolve its
# shortest period: 2*pi/100 = 0.063, where 1e4 gives 6e-4, far below any step, and RK4
# loses its order.
N_FREQS = 16
FOURIER_FREQS = np.logspace(0.0, 4.0, N_FREQS)
TAU_FREQS = np.logspace(0.0, 2.0, N_FREQS)
FOURIER_FREQS.flags.writeable = False
TAU_FREQS.flags.writeable = False


@dataclass
class ArchConfig:
    """Descriptor for one U-net instance."""

    in_channels: int          # gridded input channels after concatenation
    out_channels: int
    levels: tuple = (16, 32, 64)
    cond_vec_dim: int = 0     # pooled conditioning vector length (0 = unused)

    def __post_init__(self):
        self.levels = tuple(map(operator.index, self.levels))


def truncated_normal(rng, shape, std=0.02, bound=2.0):
    """Normal(0, std) redrawn until inside +-bound*std."""
    out = rng.standard_normal(shape) * std
    mask = np.abs(out) > bound * std
    while mask.any():
        out[mask] = rng.standard_normal(mask.sum()) * std
        mask = np.abs(out) > bound * std
    return out


def layers(arch: ArchConfig) -> list:
    """(prefix, weight shape, zero-initialised) of every layer of `arch`, in
    initialisation order. Each layer holds `{prefix}/w` and a zero bias
    `{prefix}/b` as long as the weight's last axis."""
    chans = arch.levels

    def conv(prefix, cin, cout):
        return (prefix, (KERNEL, KERNEL, cin, cout), False)

    def resblock(prefix, c):
        return [conv(f"{prefix}/conv1", c, c), conv(f"{prefix}/conv2", c, c),
                (f"{prefix}/film_scale", (EMBED_DIM, c), True),
                (f"{prefix}/film_shift", (EMBED_DIM, c), True)]

    out = [("embed/dense0", (2 * N_FREQS, EMBED_DIM), False),
           ("embed/dense1", (EMBED_DIM, EMBED_DIM), False)]
    if arch.cond_vec_dim:
        out.append(("cond_vec/dense", (arch.cond_vec_dim, EMBED_DIM), False))
    out.append(conv("in/conv", arch.in_channels, chans[0]))
    for i, c in enumerate(chans):
        if i > 0:
            out.append(conv(f"down{i}/conv", chans[i - 1], c))
        out += resblock(f"res{i}", c)
    for i in range(len(chans) - 1, 0, -1):
        out.append(conv(f"up{i}/conv", chans[i], chans[i - 1]))
        out += resblock(f"ures{i - 1}", chans[i - 1])
    out.append(("out/conv", (KERNEL, KERNEL, chans[0], arch.out_channels), True))
    return out


def init_params(rng, arch: ArchConfig) -> dict:
    """Flat name -> array parameter store for one U-net.

    Hidden layers are truncated-normal; the final conv and all FiLM dense
    layers are zero-initialized so the network is exactly zero (and FiLM the
    identity) at the start of training.
    """
    p = {}
    for prefix, shape, zero in layers(arch):
        p[f"{prefix}/w"] = np.zeros(shape) if zero else truncated_normal(rng, shape)
        p[f"{prefix}/b"] = np.zeros(shape[-1])
    return p


def as_leaves(params) -> dict:
    """Wrap each parameter array in a leaf Tensor (one tape per loss call).

    The forward functions below take either these leaves, to record a tape
    for `backward`, or the parameter arrays themselves, which records none.
    """
    return {k: Tensor(v) for k, v in params.items()}


# ---------------------------------------------------------------------------
# Conditioning pathways
# ---------------------------------------------------------------------------

def fourier_features(s, freqs):
    """Pre-dense embedding [B, 2K]: cos then sin of s times the K `freqs`."""
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    angles = s[:, None] * freqs[None, :]
    return np.concatenate([np.cos(angles), np.sin(angles)], axis=1)


def fourier_embed(leaves, s, freqs) -> Tensor:
    """Fourier features on `freqs`, then two dense layers with SiLU between them."""
    feats = fourier_features(s, freqs)
    h = ad.silu(ad.dense(feats, leaves["embed/dense0/w"], leaves["embed/dense0/b"]))
    return ad.dense(h, leaves["embed/dense1/w"], leaves["embed/dense1/b"])


def film(x: Tensor, embed: Tensor, leaves, prefix) -> Tensor:
    """(1 + Dense(e)) * x + Dense(e), per channel; identity at zero init.

    embed is [B, E], or [1, E] for one embedding shared by every row of x.
    One tape node, `autodiff.film`.
    """
    return ad.film(x, embed,
                   leaves[f"{prefix}/film_scale/w"], leaves[f"{prefix}/film_scale/b"],
                   leaves[f"{prefix}/film_shift/w"], leaves[f"{prefix}/film_shift/b"])


def _resblock(h, embed, leaves, prefix):
    t = ad.silu(h)
    t = ad.conv2d(t, leaves[f"{prefix}/conv1/w"], leaves[f"{prefix}/conv1/b"])
    t = film(t, embed, leaves, prefix)
    t = ad.silu(t)
    t = ad.conv2d(t, leaves[f"{prefix}/conv2/w"], leaves[f"{prefix}/conv2/b"])
    return h + t


def unet_forward(leaves, x, embed: Tensor, arch: ArchConfig) -> Tensor:
    """Conv U-net with `arch.levels` levels and FiLM conditioning at every
    residual block: input conv, `unet_body`, output conv."""
    h = ad.conv2d(x, leaves["in/conv/w"], leaves["in/conv/b"])
    h = unet_body(leaves, h, embed, arch)
    return ad.conv2d(h, leaves["out/conv/w"], leaves["out/conv/b"])


def unet_body(leaves, h, embed: Tensor, arch: ArchConfig) -> Tensor:
    """The U-net between its input conv and its output conv: [B, H, W, levels[0]]
    in and out. H and W must be divisible by 2^(len(levels) - 1), so that each
    upsampled level matches its skip."""
    n = len(arch.levels)
    skips = []
    for i in range(n):
        if i > 0:
            h = ad.conv2d(h, leaves[f"down{i}/conv/w"], leaves[f"down{i}/conv/b"], stride=2)
        h = _resblock(h, embed, leaves, f"res{i}")
        if i < n - 1:
            skips.append(h)
    for i in range(n - 1, 0, -1):
        h = ad.upsample2(h)
        h = ad.conv2d(h, leaves[f"up{i}/conv/w"], leaves[f"up{i}/conv/b"])
        if h.shape != skips[i - 1].shape:
            raise ValueError(f"U-net level {i - 1}: upsampled {h.shape} does not match skip "
                             f"{skips[i - 1].shape}; each grid side must be divisible by "
                             f"2^(levels - 1) = {2 ** (n - 1)}")
        h = h + skips[i - 1]
        h = _resblock(h, embed, leaves, f"ures{i - 1}")
    return h


# ---------------------------------------------------------------------------
# Velocity field (bias-correction stage)
# ---------------------------------------------------------------------------

def velocity_arch(n_vars, levels=(16, 32, 64)) -> ArchConfig:
    # gridded input: the state alone; the member statistics enter pooled, through cond_vec
    return ArchConfig(in_channels=n_vars, out_channels=n_vars,
                      levels=levels, cond_vec_dim=2 * n_vars)


def velocity_forward(leaves, yhat, tau, stat_mean, stat_std, arch: ArchConfig) -> Tensor:
    """v(yhat, tau; member stats). All array arguments are plain numpy.

    yhat: [B, H, W, V]; tau: [B], or [1] for one time shared by all rows;
    stat_mean/stat_std: [B, H, W, V] member statistics, or [1, H, W, V] for
    statistics shared by all rows. They enter once, as their per-row spatial
    means through the `cond_vec/dense` term added to the tau embedding; the
    gridded input is yhat alone. With tau and both fields shared, the
    embedding, the pooled-statistics dense and every FiLM dense run on one
    row, and FiLM's [1, 1, 1, C] scale and shift broadcast over the batch.
    """
    embed = fourier_embed(leaves, tau, TAU_FREQS)
    pooled = np.concatenate([stat_mean.mean(axis=(1, 2)), stat_std.mean(axis=(1, 2))], axis=1)
    cond = ad.dense(pooled, leaves["cond_vec/dense/w"], leaves["cond_vec/dense/b"])
    out = unet_forward(leaves, yhat, embed + cond, arch)
    if not np.isfinite(out.data).all():
        raise DivergenceError("velocity network produced non-finite activations")
    return out


# ---------------------------------------------------------------------------
# Preconditioned denoiser (super-resolution stage)
# ---------------------------------------------------------------------------

def denoiser_arch(n_vars, window_steps, levels=(16, 32, 64)) -> ArchConfig:
    # window time is folded into channels: noisy residual + interpolated conditioning
    c = window_steps * n_vars
    return ArchConfig(in_channels=2 * c, out_channels=c, levels=levels)


def precond_coeffs(sigma):
    """Denoiser preconditioning coefficients for noise level sigma (> 0)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if (sigma <= 0).any():
        raise ValueError("noise level must be positive")
    c_skip = 1.0 / (1.0 + sigma ** 2)
    c_out = sigma / np.sqrt(1.0 + sigma ** 2)
    c_in = 1.0 / np.sqrt(1.0 + sigma ** 2)
    c_noise = 0.25 * np.log(sigma)
    return c_skip, c_out, c_in, c_noise


def _fold_time(a):
    """[B, T, H, W, V] -> [B, H, W, T*V]."""
    b, t, h, w, v = a.shape
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1, 4)).reshape(b, h, w, t * v)


def _unfold_time(x: Tensor, t, v) -> Tensor:
    b, h, w, _ = x.shape
    return ad.transpose(ad.reshape(x, (b, h, w, t, v)), (0, 3, 1, 2, 4))


def denoiser_cond(leaves, cond, arch: ArchConfig) -> Tensor:
    """The conditioning half of the input conv: [B, H, W, levels[0]], no bias.

    cond: [B, n, H, W, V] conditioning windows, each of whose n slices stands
    for (in_channels / 2) / (n·V) consecutive steps of the window: the daily
    field of `diffusion.prepare_cond` (n = window days), or a field at the
    window's own cadence (n = T). The half's weights are summed over each
    slice's steps in one tape node (`autodiff.slice_group_sum`): each slice
    is convolved once, which equals convolving it repeated at every step it
    stands for. The result
    depends on neither the noisy state nor sigma, so a sampler computes it
    once per call and passes it to `denoiser_forward` on every step.
    """
    c, v = arch.in_channels // 2, cond.shape[-1]
    w = ad.slice_group_sum(leaves["in/conv/w"], c, 2 * c, cond.shape[1], v, axis=2)
    return ad.conv2d(_fold_time(cond), w, np.zeros(arch.levels[0]))


def denoiser_forward(leaves, z, sigma, cond, arch: ArchConfig, guidance=0.0) -> Tensor:
    """Preconditioned denoiser D(z, sigma, cond), or with a nonzero guidance g
    the classifier-free guided (1+g) D(z, s, cond) - g D(z, s, null).

    z: [B, T, H, W, V] noisy residual window; sigma: [B]; cond: conditioning
    windows [B, n, H, W, V] (rank 5, see `denoiser_cond`) or their
    `denoiser_cond` [B, H, W, levels[0]] (rank 4). The null input is all-zero
    conditioning. Returns a tensor shaped like z.

    Guidance uses that the input conv is linear in its input channels and the
    output conv linear in its input. `in/conv/w` is split by input channel
    into a state half, run on c_in * z with the bias, and a conditioning half,
    run on cond only (`denoiser_cond`): the null input's all-zero
    conditioning is never convolved. With guidance, the state half serves both
    branches, the U-net body runs once over the 2B rows [conditional; null],
    and the output conv runs once, on the B rows of the mix
    (1+g) h_cond - g h_null of the body's output; its bias passes through
    exactly, as (1+g) - g = 1.
    """
    b, t, h, w, v = z.shape
    c_skip, c_out, c_in, c_noise = precond_coeffs(sigma)
    zf = _fold_time(z)
    c = zf.shape[-1]
    w_in = leaves["in/conv/w"]
    x = ad.conv2d(c_in[:, None, None, None] * zf, ad.slice_axis(w_in, 0, c, axis=2),
                  leaves["in/conv/b"])
    guided = guidance != 0.0
    xc = x + (denoiser_cond(leaves, cond, arch) if cond.ndim == z.ndim else cond)
    x = ad.concat([xc, x], axis=0) if guided else xc
    embed = fourier_embed(leaves, np.concatenate([c_noise, c_noise]) if guided else c_noise,
                          FOURIER_FREQS)
    hb = unet_body(leaves, x, embed, arch)
    if guided:
        hb = (ad.slice_axis(hb, 0, b, axis=0) * (1.0 + guidance)
              - ad.slice_axis(hb, b, 2 * b, axis=0) * guidance)
    raw = ad.conv2d(hb, leaves["out/conv/w"], leaves["out/conv/b"])
    out = c_skip[:, None, None, None] * zf + c_out[:, None, None, None] * raw
    if not np.isfinite(out.data).all():
        raise DivergenceError("denoiser produced non-finite activations")
    return _unfold_time(out, t, v)


# ---------------------------------------------------------------------------
# Checkpoints: one NPY per tensor plus a JSON manifest of the tensor names and meta
# ---------------------------------------------------------------------------

def _tensor_file(name):
    if not isinstance(name, str):
        raise TypeError(f"tensor name {name!r} is not a string")
    return name.replace("/", "__") + ".npy"


def save_checkpoint(ckpt_dir, arrays: dict, meta: dict) -> None:
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for name, array in arrays.items():
        write_npy(array, ckpt_dir / _tensor_file(name))
    with open(ckpt_dir / "manifest.json", "w", encoding="utf-8") as f:
        json.dump({"tensors": sorted(arrays), "meta": meta}, f, indent=1, sort_keys=True)
        f.write("\n")


def load_checkpoint(ckpt_dir, kind, build):
    """`build(tensors by name, meta)` of the checkpoint of `kind` in `ckpt_dir`,
    decoded under :func:`grid.decoding` of its manifest."""
    path = Path(ckpt_dir) / "manifest.json"
    manifest = read_json(path)
    with decoding(path):
        arrays = {n: read_npy(path.with_name(_tensor_file(n))) for n in manifest["tensors"]}
        meta = manifest["meta"]
        if meta["kind"] != kind:
            raise ValueError(f"a {meta['kind']!r} checkpoint, not {kind!r}")
        return build(arrays, meta)


def checkpoint_params(arrays, arch: ArchConfig) -> dict:
    """A checkpoint's `param/` tensors, which must be exactly the parameters of `arch`."""
    params = {k.removeprefix("param/"): v for k, v in arrays.items() if k.startswith("param/")}
    expected = {}
    for prefix, shape, _ in layers(arch):
        expected |= {f"{prefix}/w": shape, f"{prefix}/b": shape[-1:]}
    if {k: v.shape for k, v in params.items()} != expected:
        raise ValueError(f"the param/ tensors are not the parameters of {arch}: "
                         f"train this checkpoint's stage again")
    return params
