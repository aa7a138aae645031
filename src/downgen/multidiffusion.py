"""Long-trajectory sampling with overlapped denoising windows.

Each window runs its own reverse chain; after every denoiser evaluation the
overlapping slices of neighboring windows are replaced by their average, and
the stochastic step uses noise sliced from one global field so that overlap
slices stay bitwise identical throughout the chain. The window states are
kept as one stacked array, so every step denoises all windows in one batched
call, consolidates the overlaps and takes one SDE step over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import SRModel, assemble_output, cfg_denoise, prepare_cond, sde_step_exponential
from .grid import GridField
from .nets import DivergenceError
from .parallel import pmap  # noqa: F401  not called here; perfbench/tracing.py wraps it


@dataclass
class WindowLayout:
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

    @property
    def starts(self):
        return [j * self.stride for j in range(self.n_windows)]


def partition(total_len, window_len, overlap) -> WindowLayout:
    """Exact covering of [0, total_len) by fixed-overlap windows."""
    stride = window_len - overlap
    if stride <= 0:
        raise ValueError("window_len must exceed overlap")
    if (total_len - overlap) % stride:
        raise ValueError(
            f"total length {total_len} does not fit windows of {window_len} "
            f"with overlap {overlap}")
    m = (total_len - overlap) // stride
    layout = WindowLayout(m, window_len, overlap)
    assert layout.total_len == total_len
    return layout


def shared_noise(layout: WindowLayout, rng, tail_shape):
    """Draw one global noise field and slice it per window.

    Returns (global_field, [per-window copies]); overlap slices of neighboring
    windows are bitwise identical by construction.
    """
    field = rng.standard_normal((layout.total_len,) + tuple(tail_shape))
    slices = [field[s: s + layout.window_len].copy() for s in layout.starts]
    return field, slices


def consolidate_pair(d_left, d_right, overlap):
    """Replace the shared region of two adjacent denoiser outputs by its mean."""
    if d_left.shape != d_right.shape:
        raise ValueError("adjacent windows must share shape")
    mean = 0.5 * (d_left[-overlap:] + d_right[:overlap])
    d_left[-overlap:] = mean
    d_right[:overlap] = mean


def consolidate(ds, layout: WindowLayout):
    """Average every neighboring overlap, in place, using pre-update values.

    The left/right overlap regions inside one window are disjoint, so the
    pairwise sweep equals a simultaneous neighbor exchange.
    """
    for j in range(layout.n_windows - 1):
        consolidate_pair(ds[j], ds[j + 1], layout.overlap)


def sample_long(model: SRModel, y_cond_long: GridField, n_windows,
                guidance=1.0, rng=None, on_step=None) -> GridField:
    """Sample an arbitrarily long fine trajectory from overlapped windows.

    y_cond_long: coarse daily input covering n_windows staggered windows of
    model.window_days with a one-day overlap (in fine steps: window_len =
    window_days * steps_per_day, overlap = steps_per_day). on_step, if given,
    is called as on_step(grid_index, window_states) after every SDE step, with
    the states stacked as [n_windows, window_len, H, W, V].
    """
    if rng is None:
        rng = np.random.default_rng(0)
    spd = model.spec.temporal_window
    layout = WindowLayout(n_windows, model.window_days * spd, spd)
    expected_days = layout.total_len // spd
    if y_cond_long.n_times != expected_days:
        raise ValueError(f"conditioning series has {y_cond_long.n_times} days, "
                         f"layout needs {expected_days}")

    def windows(full):
        return np.stack([full[s: s + layout.window_len] for s in layout.starts])

    cond_full = prepare_cond(y_cond_long, model.norm, model.spec)
    conds = windows(cond_full)
    sigmas = model.schedule.step_sigmas()
    _, zs = shared_noise(layout, rng, cond_full.shape[1:])
    zs = np.stack(zs) * sigmas[0]
    for i in range(len(sigmas) - 1):
        ds = cfg_denoise(model.params, model.arch, zs, sigmas[i], conds, guidance)
        consolidate(ds, layout)
        eps_full = rng.standard_normal((layout.total_len,) + cond_full.shape[1:])
        zs = sde_step_exponential(zs, sigmas[i], sigmas[i + 1], ds, windows(eps_full))
        finite = np.isfinite(zs).reshape(layout.n_windows, -1).all(axis=1)
        if not finite.all():
            raise DivergenceError(f"non-finite state in window {int(np.argmin(finite))} "
                                  f"at grid index {i}")
        if on_step is not None:
            on_step(i, zs)
    draw = combine(zs, layout)
    return assemble_output(y_cond_long, draw, model.norm, model.spec)


def combine(zs, layout: WindowLayout):
    """Stitch window states into one trajectory; overlaps must agree bitwise."""
    tail = zs[0].shape[1:]
    out = np.empty((layout.total_len,) + tail)
    for j, s in enumerate(layout.starts):
        if j > 0:
            left = out[s: s + layout.overlap]
            if not np.array_equal(left, zs[j][: layout.overlap]):
                raise AssertionError("overlap slices diverged between neighboring windows")
            out[s + layout.overlap: s + layout.window_len] = zs[j][layout.overlap:]
        else:
            out[s: s + layout.window_len] = zs[j]
    return out
