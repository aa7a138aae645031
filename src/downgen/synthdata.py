"""Synthetic multiscale ensembles: fine-resolution "weather truth" plus
statistically biased coarse "climate model" members.

Fields combine a linear warming trend, seasonal and diurnal cycles and
spatially correlated noise with a power-law spectrum. Four variables mimic
(temperature, wind speed, humidity, pressure) roles via a fixed cross-variable
correlation; wind and humidity are clipped at zero. Member biases are
time-stationary (mean offset, variance inflation, spectral tilt, correlation
shrinkage) except for a seasonal phase shift. Every field is made in chunks of
whole days; a member is coarsened chunk by chunk and never held at fine size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .grid import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    STEPS_PER_DAY,
    DownsampleSpec,
    GridField,
    coarsen,
    coarsen_data,
    require_at_least,
    require_positive,
)

VAR_NAMES = ("temperature", "wind_speed", "humidity", "pressure")

# pairwise correlation of the latent noise across the four variables
VAR_CORR = np.array([
    [1.0, 0.5, 0.6, -0.4],
    [0.5, 1.0, 0.3, -0.2],
    [0.6, 0.3, 1.0, -0.3],
    [-0.4, -0.2, -0.3, 1.0],
])

# per-variable phase offsets (fraction of a cycle) for the seasonal/diurnal terms
SEASON_PHASE = np.array([0.0, 0.2, 0.05, 0.5])
DIURNAL_PHASE = np.array([0.0, 0.25, 0.6, 0.35])

_CLIP_AT_ZERO = slice(1, 3)  # wind speed, humidity

CHUNK_DAYS = 20   # whole days per generated chunk: it coarsens alone and stays in cache

_FINE_STREAM = 0
_MEMBER_STREAM = 1


@dataclass
class BiasSpec:
    """Stationary statistical bias applied to coarse ensemble members."""

    mean_offset: float = 0.0       # in normalized units (sigma of the noise)
    var_scale: float = 1.0         # multiplies noise variance
    spectral_tilt: float = 0.0     # added to the spectral slope
    season_phase_days: float = 0.0
    corr_shrink: float = 0.0       # blends the variable correlation toward identity

    def __post_init__(self):
        require_positive(self, ("var_scale",))
        if not 0.0 <= self.corr_shrink <= 1.0:
            raise ValueError(f"corr_shrink must lie in [0, 1], not {self.corr_shrink}")


@dataclass
class SynthConfig:
    nx: int = 16
    ny: int = 16
    n_days: int = 2 * DAYS_PER_YEAR
    n_members: int = 2
    spectral_slope: float = 2.0
    seasonal_amp: float = 1.0
    diurnal_amp: float = 0.3
    trend_per_year: float = 0.0
    noise_amp: float = 1.0
    noise_ar1: float = 0.0   # step-to-step noise persistence (weather memory)
    bias: BiasSpec = field(default_factory=BiasSpec)
    rng_seed: int = 0
    spatial_factor: int = 4
    var_bases: tuple = (288.0, 5.0, 0.008, 101325.0)
    var_scales: tuple = (3.0, 1.5, 0.002, 300.0)

    def __post_init__(self):
        require_at_least(self, 1, ("nx", "ny", "n_days", "n_members", "spatial_factor"))
        require_at_least(self, 0, ("seasonal_amp", "diurnal_amp", "noise_amp"))
        if not 0.0 <= self.noise_ar1 < 1.0:
            raise ValueError(f"noise_ar1 must lie in [0, 1), not {self.noise_ar1}")
        if self.nx % self.spatial_factor or self.ny % self.spatial_factor:
            raise ValueError(f"spatial_factor = {self.spatial_factor} must divide the fine "
                             f"grid, nx = {self.nx} by ny = {self.ny}")

    @property
    def dt_hours(self):
        return HOURS_PER_DAY // STEPS_PER_DAY

    @property
    def n_steps(self):
        return self.n_days * STEPS_PER_DAY

    @property
    def downsample(self):
        return DownsampleSpec(self.spatial_factor, STEPS_PER_DAY)

    def grid_coords(self):
        lon = np.linspace(0.0, 24.0, self.nx, endpoint=False)
        lat = np.linspace(25.0, 49.0, self.ny, endpoint=False) + 24.0 / (2 * self.ny)
        return lon, lat


@dataclass
class SynthPair:
    fine_truth: GridField
    coarse_biased: list
    coarse_truth: GridField


def _spectral_filter(nx, ny, slope):
    """rfft2 filter with power spectrum ~ k^(-slope), unit pixel variance."""
    kx = (np.arange(nx) + nx // 2) % nx - nx // 2   # np.fft.fftfreq(nx) * nx
    ky = np.arange(ny // 2 + 1)                     # np.fft.rfftfreq(ny) * ny
    k = np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
    with np.errstate(divide="ignore"):
        h = np.where(k > 0, k ** (-slope / 2.0), 0.0)
    # unit-variance normalization accounting for the real-FFT symmetry weights
    weights = np.full_like(h, 2.0)
    weights[:, 0] = 1.0
    if ny % 2 == 0:
        weights[:, -1] = 1.0
    power = (weights * h ** 2).sum() / (nx * ny)
    return h / np.sqrt(power) if power > 0 else h


@lru_cache(maxsize=None)
def _filter_operators(nx, ny, slope):
    """Read-only (fy, circ, gy) that apply `_spectral_filter(nx, ny, slope)` as
    three matrix products, built on first use in O(nx^2 ny) memory:

    - fy [ny, 2K], K = ny//2 + 1: the real DFT along y, (cos | -sin).
    - circ [K, nx, nx]: per y-frequency ky, the real circulant along x,
      IDFT_x diag(h[:, ky]) DFT_x, transposed to multiply from the right.
      It is real because h is even in kx.
    - gy [2K, ny]: irfft's real inverse along y, weighted 1 at DC and, for
      even ny, Nyquist, and 2 elsewhere; the imaginary rows at DC and
      Nyquist are zero, as irfft ignores those parts.
    """
    h = _spectral_filter(nx, ny, slope)
    k = h.shape[1]
    # angles from integer residues, reduced to [0, 2 pi) before any rounding
    ang_y = 2 * np.pi * (np.outer(np.arange(ny), np.arange(k)) % ny) / ny   # [y, ky]
    fy = np.concatenate([np.cos(ang_y), -np.sin(ang_y)], axis=1)
    re_w, im_w = np.full(k, 2.0), np.full(k, 2.0)
    re_w[0], im_w[0] = 1.0, 0.0
    if ny % 2 == 0:
        re_w[-1], im_w[-1] = 1.0, 0.0
    gy = fy.T * np.concatenate([re_w, im_w])[:, None] / ny
    lag = np.arange(nx)
    kernel = np.cos(2 * np.pi * (np.outer(lag, lag) % nx) / nx) @ h / nx   # [x' - x, ky]
    circ = kernel[(lag[None, :] - lag[:, None]) % nx].transpose(2, 0, 1).copy()  # [ky, x, x']
    for op in (fy, circ, gy):
        op.flags.writeable = False
    return fy, circ, gy


def _noise_chunks(rng, n_steps, nx, ny, slope, mix, ar1, chunk_steps):
    """Yield (lo, noise), noise [c, V, nx * ny] for steps lo .. lo + c - 1, c <=
    chunk_steps: power-law spatial spectrum, variables mixed by `mix` [V, V],
    optional AR(1) persistence (stationary covariance mix @ mix.T). The stream
    is drawn in order and the AR(1) step carries a copy of the last row, so
    the output does not depend on chunk_steps and each chunk may be changed
    in place. Each image is filtered by irfft2(rfft2(white) * h, s=(nx, ny)),
    h the `_spectral_filter`, as three matrix products from `_filter_operators`:
    the real DFT along y, the real and imaginary halves through the
    per-y-frequency circulant along x in one batched matmul, and irfft's real
    inverse along y; this matches that map to rounding and avoids the
    per-transform FFT overhead on 8-point axes."""
    fy, circ, gy = _filter_operators(nx, ny, slope)
    innov = np.sqrt(1.0 - ar1 ** 2)
    for lo in range(0, n_steps, chunk_steps):
        c = min(chunk_steps, n_steps - lo)
        white = rng.standard_normal((c, len(mix), nx, ny))
        spec_y = fy.T @ white.reshape(-1, ny).T                       # [2K, c*V*nx]
        spec_y = spec_y.reshape(2, len(circ), -1, nx) @ circ
        noise = np.matmul(mix, (spec_y.reshape(len(gy), -1).T @ gy).reshape(c, len(mix), -1))
        if ar1 > 0.0:
            if lo:
                noise[0] = ar1 * carry + innov * noise[0]
            for t in range(1, c):
                noise[t] = ar1 * noise[t - 1] + innov * noise[t]
            carry = noise[-1].copy()
        yield lo, noise


def _structured_signal(cfg: SynthConfig, season_phase_days=0.0):
    """Trend + seasonal + diurnal component, [T, V] in normalized units."""
    hours = np.arange(cfg.n_steps, dtype=np.float64) * cfg.dt_hours
    years = hours / (HOURS_PER_DAY * DAYS_PER_YEAR)
    doy = (hours / HOURS_PER_DAY + season_phase_days) / DAYS_PER_YEAR
    hod = hours / HOURS_PER_DAY
    trend = cfg.trend_per_year * years
    # cosine phase: orthogonal to the linear trend over complete cycles
    seasonal = cfg.seasonal_amp * np.cos(2 * np.pi * (doy[:, None] + SEASON_PHASE[None, :]))
    diurnal = cfg.diurnal_amp * np.cos(2 * np.pi * (hod[:, None] + DIURNAL_PHASE[None, :]))
    return trend[:, None] + seasonal + diurnal


def _member_corr_chol(shrink):
    corr = (1.0 - shrink) * VAR_CORR + shrink * np.eye(len(VAR_CORR))
    return np.linalg.cholesky(corr)


def _field_chunks(cfg: SynthConfig, stream, bias: BiasSpec):
    """Yield (lo, data), data [c, NX, NY, V] for steps lo .. lo + c - 1 of the
    fine field under `bias`, CHUNK_DAYS days at a time, drawn from the seed
    sequence (cfg.rng_seed, *stream): bases + scales * (structured + mean_offset
    + noise), clipped at zero for wind and humidity; `data` is a transposed
    view of the variable-major chunk."""
    rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, *stream)))
    scales = np.asarray(cfg.var_scales)
    amp = scales * cfg.noise_amp * np.sqrt(bias.var_scale)
    structured = _structured_signal(cfg, season_phase_days=bias.season_phase_days)
    level = np.asarray(cfg.var_bases) + scales * (structured + bias.mean_offset)   # [T, V]
    for lo, data in _noise_chunks(rng, cfg.n_steps, cfg.nx, cfg.ny,
                                  cfg.spectral_slope + bias.spectral_tilt,
                                  amp[:, None] * _member_corr_chol(bias.corr_shrink),
                                  cfg.noise_ar1, CHUNK_DAYS * STEPS_PER_DAY):
        data += level[lo:lo + len(data), :, None]
        np.maximum(data[:, _CLIP_AT_ZERO], 0.0, out=data[:, _CLIP_AT_ZERO])
        yield lo, data.reshape(len(data), -1, cfg.nx, cfg.ny).transpose(0, 2, 3, 1)


def member_name(idx):
    """The id of the member drawn from stream (_MEMBER_STREAM, idx)."""
    return f"m{idx:03d}"


def gen_fine_ensemble(cfg: SynthConfig) -> GridField:
    """Fine-resolution truth series, unbiased; deterministic given cfg.rng_seed."""
    data = np.empty((cfg.n_steps, cfg.nx, cfg.ny, len(VAR_NAMES)))
    for lo, chunk in _field_chunks(cfg, (_FINE_STREAM,), BiasSpec()):
        data[lo:lo + len(chunk)] = chunk
    return GridField(data, 0, cfg.dt_hours, *cfg.grid_coords(), VAR_NAMES, member_id="truth")


def gen_biased_coarse_ensemble(cfg: SynthConfig, fine: GridField) -> list:
    """Independent biased coarse members, each freshly sampled (no pairing with
    the truth) and coarsened chunk by chunk, so no fine member is held. The
    truth gives only the calendar and grid, through one coarsened day of it."""
    spec = cfg.downsample
    day = coarsen(fine.time_slice(fine.time0, fine.time0 + HOURS_PER_DAY), spec)
    return [replace(day, member_id=member_name(idx), data=np.concatenate(
                [coarsen_data(data, spec)
                 for _, data in _field_chunks(cfg, (_MEMBER_STREAM, idx), cfg.bias)]))
            for idx in range(cfg.n_members)]


def make_synth_pair(cfg: SynthConfig) -> SynthPair:
    fine = gen_fine_ensemble(cfg)
    return SynthPair(fine_truth=fine, coarse_biased=gen_biased_coarse_ensemble(cfg, fine),
                     coarse_truth=coarsen(fine, cfg.downsample))
