"""The reverse-SDE chain and long-trajectory sampling with overlapped windows.

`sample_chain` is the one reverse chain. `sample_long` runs it on a single
trajectory covering the whole requested length; its windows are views of
that trajectory. Every step denoises all windows in one batched call,
`consolidate` stitches the outputs back into one trajectory (each overlap
the average of its two windows, as in MultiDiffusion), and the chain takes
one third-order multistep SDE step with noise drawn once on the trajectory.
The step's correction combines three consolidated outputs element by element.
An overlap is stored once, so neighboring windows agree on it bitwise after
every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import SRModel, assemble_output, cfg_denoise, prepare_cond, sde_step_exponential
from .grid import GridField
from .nets import DivergenceError, denoiser_cond
from .parallel import pmap  # noqa: F401  not called here; perfbench/tracing.py wraps it


@dataclass
class WindowLayout:
    """The tiling rule: n_windows windows whose neighbors share `overlap` steps
    cover total_len steps. The CLI checks the sample window with it in days;
    `sample_long` windows the trajectory with it in fine steps and the daily
    conditioning in days."""

    n_windows: int
    window_len: int   # steps per window
    overlap: int      # shared steps between neighbors

    def __post_init__(self):
        if self.n_windows < 1 or self.window_len < 1:
            raise ValueError("need at least one window of positive length")
        if not 0 <= self.overlap <= self.window_len // 2:
            raise ValueError("overlap must satisfy 0 <= overlap <= window_len / 2")
        if self.n_windows > 1 and self.overlap == 0:
            raise ValueError("multiple windows require a positive overlap")

    @property
    def stride(self):
        return self.window_len - self.overlap

    @property
    def total_len(self):
        return self.n_windows * self.stride + self.overlap

    def windows(self, full):
        """Read-only view [n_windows, window_len, ...] of a [total_len, ...] array."""
        view = np.lib.stride_tricks.sliding_window_view(full, self.window_len, axis=0)
        return np.moveaxis(view[:: self.stride], -1, 1)


def consolidate(ds, layout: WindowLayout):
    """Stitch stacked window outputs [n_windows, window_len, ...] into one
    trajectory [total_len, ...]; each overlap becomes 0.5 * (left + right)."""
    n, stride = layout.n_windows, layout.stride
    out = np.empty((layout.total_len,) + ds.shape[2:])
    rows = out[: n * stride].reshape((n, stride) + ds.shape[2:])
    rows[:] = ds[:, :stride]
    out[n * stride:] = ds[-1, stride:]
    rows[1:, : layout.overlap] = 0.5 * (ds[:-1, stride:] + ds[1:, : layout.overlap])
    return out


def _multistep_weights(sigmas):
    """(a, b): the weights of `sample_chain`'s data estimate on a sigma grid,
    d_i + a[i] (d_i - d_{i-1}) + b[i] (d_{i-1} - d_{i-2}) at step i.

    With h_i = log(sigmas[i] / sigmas[i+1]), r_i = sigmas[i+1]^2 / sigmas[i]^2,
    phi2 = expm1(-2 h_i) / (2 h_i) + 1 and phi3 = phi2 / (2 h_i) - 1/2, the
    SDE-DPM-Solver++(3M) estimate d_i + (phi2 D1 - phi3 D2) / (1 - r_i) is
    written in the two differences: with r0 = h_{i-1} / h_i and
    r1 = h_{i-2} / h_i,
        a[i] = (phi2 (2 r0 + r1) - phi3) / (r0 (r0 + r1) (1 - r_i)),
        b[i] = (phi3 - phi2 r0) / (r1 (r0 + r1) (1 - r_i)).
    Step 1 has no d_{-1}: a[1] = phi2 / (r0 (1 - r_1)), b[1] = 0. Step 0 is
    first order: a[0] = b[0] = 0.
    """
    h = np.log(sigmas[:-1] / sigmas[1:])
    one_minus_r = 1.0 - (sigmas[1:] / sigmas[:-1]) ** 2
    phi2 = np.expm1(-2.0 * h) / (2.0 * h) + 1.0
    phi3 = phi2 / (2.0 * h) - 0.5
    a, b = np.zeros_like(h), np.zeros_like(h)
    a[1:2] = phi2[1:2] / (h[:1] / h[1:2] * one_minus_r[1:2])
    r0, r1 = h[1:-1] / h[2:], h[:-2] / h[2:]   # at steps i >= 2
    scale = (r0 + r1) * one_minus_r[2:]
    a[2:] = (phi2[2:] * (2.0 * r0 + r1) - phi3[2:]) / (r0 * scale)
    b[2:] = (phi3[2:] - phi2[2:] * r0) / (r1 * scale)
    return a, b


def sample_chain(denoise_fn, shape, sigmas, rng, on_step=None):
    """Run the reverse chain from sigma_max noise down the given sigma grid.

    denoise_fn(z, sigma) -> denoised estimate. Returns the state at the final
    (smallest) sigma; the terminal condition is z ~ N(0, sigmas[0]^2 I).
    on_step, if given, is called as on_step(grid_index, z) after every step.

    The chain is SDE-DPM-Solver++(3M) with eta = 1 (Lu et al. 2022, arXiv
    2211.01095; k-diffusion's `sample_dpmpp_3m_sde`): step i hands
    `sde_step_exponential` the estimate d_i + a[i] (d_i - d_{i-1})
    + b[i] (d_{i-1} - d_{i-2}) of `_multistep_weights`, from the last three
    denoiser outputs. Step 0 is first order and step 1 uses two outputs. The
    corrections reuse earlier steps' outputs, so every step costs one denoiser
    call. The grid must be strictly decreasing, or some step is empty.
    """
    if not (np.diff(sigmas) < 0).all():
        raise ValueError("sigma grid is not strictly decreasing")
    a, b = _multistep_weights(sigmas)
    z = rng.standard_normal(shape) * sigmas[0]
    d1 = d2 = None
    for i in range(len(sigmas) - 1):
        d = denoise_fn(z, sigmas[i])
        est = d if i == 0 else d + a[i] * (d - d1)
        if i >= 2:
            est += b[i] * (d1 - d2)
        eps = rng.standard_normal(shape)
        z = sde_step_exponential(z, sigmas[i], sigmas[i + 1], est, eps)
        if not np.isfinite(z).all():
            raise DivergenceError(f"non-finite sampler state at grid index {i}")
        if on_step is not None:
            on_step(i, z)
        d1, d2 = d, d1
    return z


def sample_long(model: SRModel, y_cond_long: GridField, n_windows, *, rng,
                guidance=1.0, on_step=None) -> GridField:
    """Sample an arbitrarily long fine trajectory from overlapped windows.

    y_cond_long: coarse daily input covering n_windows staggered windows of
    model.window_days with a one-day overlap (in fine steps: window_len =
    window_days * steps_per_day, overlap = steps_per_day). n_windows = 1 is
    the plain single-window sampler. rng draws all of the chain's noise.
    on_step, if given, is called as on_step(grid_index, window_states) after
    every SDE step, with the states as read-only views [n_windows,
    window_len, H, W, V] of the trajectory.
    The conditioning stays daily: the same layout in days windows the
    `prepare_cond` field, [n_windows, window_days, H, W, V]. The
    conditioning half of the denoiser's input conv does not change from step
    to step: it runs once on those windows, before the chain
    (`nets.denoiser_cond`), and every step's `cfg_denoise` gets its output.
    """
    spd = model.spec.temporal_window
    layout = WindowLayout(n_windows, model.window_days * spd, spd)
    days = WindowLayout(n_windows, model.window_days, 1)
    if y_cond_long.n_times != days.total_len:
        raise ValueError(f"conditioning series has {y_cond_long.n_times} days, layout needs "
                         f"{days.total_len} for {n_windows} windows of {model.window_days} days")
    cond_days = prepare_cond(y_cond_long, model.cond_stats, model.spec)
    conds = denoiser_cond(model.params, days.windows(cond_days), model.arch).data

    def denoise_fn(z, sigma):
        ds = cfg_denoise(model.params, model.arch, layout.windows(z), sigma, conds, guidance)
        return consolidate(ds, layout)

    step_fn = None if on_step is None else (lambda i, z: on_step(i, layout.windows(z)))
    shape = (layout.total_len,) + cond_days.shape[1:]
    draw = sample_chain(denoise_fn, shape, model.schedule.step_sigmas(), rng, step_fn)
    return assemble_output(y_cond_long, draw, model.residual_clim, model.spec)
