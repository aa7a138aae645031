"""Derived physical variables, distributional metrics and compound-event
statistics used to compare downscaled ensembles against reference data.

All distribution metrics compare a set of predicted samples against a set of
reference samples per pixel and average over pixels; sample counts on the two
sides may differ.
"""

from __future__ import annotations

import warnings

import numpy as np

# heat-index advisory thresholds (Kelvin): caution, extreme caution, danger,
# extreme danger
HEAT_ADVISORY_LEVELS = {
    "caution": 300.0,
    "extreme_caution": 305.0,
    "danger": 312.6,
    "extreme_danger": 325.0,
}
# the least periodogram value `temporal_psd_error` takes the log of
PSD_FLOOR = 1e-30


# ---------------------------------------------------------------------------
# Derived variables
# ---------------------------------------------------------------------------

def saturation_vapor_pressure(t):
    """August-Roche-Magnus saturation vapor pressure in hPa; t in Kelvin."""
    t = np.asarray(t, dtype=np.float64)
    return 6.112 * np.exp(17.67 * (t - 273.15) / (t - 29.65))


def relative_humidity(q, t, p, clip=False):
    """Relative humidity (percent) from specific humidity q (kg/kg), t (K), p (Pa).

    The saturation pressure constant is in hPa, so p is converted to hPa
    before forming the vapor pressure. The raw ratio is returned; pass
    clip=True to cap at 100 for reporting.
    """
    q = np.asarray(q, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if (q < 0).any() or (q >= 1).any():
        raise ValueError("specific humidity must lie in [0, 1)")
    if (t <= 29.65).any():
        raise ValueError("temperature out of range for the Magnus formula")
    p_hpa = np.asarray(p, dtype=np.float64) / 100.0
    e = q * p_hpa / (0.622 + 0.378 * q)
    rh = e / saturation_vapor_pressure(t) * 100.0
    return np.minimum(rh, 100.0) if clip else rh


def heat_index(t, rh):
    """NOAA heat index; t in Kelvin, rh in percent. Fahrenheit internally.

    The simple formula holds where its mean with the temperature is below 80 F;
    elsewhere the regression with its two adjustment terms replaces it.
    """
    t = np.asarray(t, dtype=np.float64)
    rh = np.asarray(rh, dtype=np.float64)
    if (rh < 0).any() or (rh > 100).any():
        raise ValueError("relative humidity must lie in [0, 100]")
    tf = (t - 273.15) * 1.8 + 32.0
    simple = 0.5 * (tf + 61.0 + (tf - 68.0) * 1.2 + 0.094 * rh)
    hi = (-42.379 + 2.04901523 * tf + 10.14333127 * rh
          - 0.22475541 * tf * rh - 0.00683787 * tf ** 2 - 0.05481717 * rh ** 2
          + 0.00122874 * tf ** 2 * rh + 0.00085282 * tf * rh ** 2
          - 0.00000199 * tf ** 2 * rh ** 2)
    low_rh = (rh < 13.0) & (tf > 80.0) & (tf < 112.0)
    hi = np.where(low_rh,
                  hi - (13.0 - rh) / 4.0 * np.sqrt(np.maximum(17.0 - np.abs(tf - 95.0), 0.0)
                                                   / 17.0),
                  hi)
    high_rh = (rh > 85.0) & (tf > 80.0) & (tf < 87.0)
    hi = np.where(high_rh, hi + (rh - 85.0) * (87.0 - tf) / 50.0, hi)
    hi = np.where((simple + tf) / 2.0 >= 80.0, hi, simple)
    return (hi - 32.0) / 1.8 + 273.15


def heat_advisory_exceedance(hi, level="danger"):
    """Fraction of samples whose heat index exceeds an advisory threshold."""
    return (np.asarray(hi) > HEAT_ADVISORY_LEVELS[level]).mean(axis=0)


# ---------------------------------------------------------------------------
# Pointwise distribution metrics
# ---------------------------------------------------------------------------

def _flatten_samples(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[:, None]
    return x.reshape(x.shape[0], -1)


def mab(pred, ref):
    """Mean absolute difference between per-pixel sample means."""
    p = _flatten_samples(pred)
    r = _flatten_samples(ref)
    if p.size == 0 or r.size == 0:
        raise ValueError("empty sample set")
    return float(np.abs(p.mean(axis=0) - r.mean(axis=0)).mean())


def wasserstein1(pred, ref):
    """Per-pixel 1-D Wasserstein-1 distance, averaged over pixels: the integral of
    |CDF difference| over the union of both sample sets, each pixel's CDFs
    counted along its sorted union."""
    p = _flatten_samples(pred)
    r = _flatten_samples(ref)
    if p.shape[0] == 0 or r.shape[0] == 0:
        raise ValueError("empty sample set")
    if p.shape[1] != r.shape[1]:
        raise ValueError("pred and ref must share the pixel grid")
    union = np.concatenate([p, r]).T
    order = np.argsort(union, axis=-1, kind="stable")
    grid = np.take_along_axis(union, order, axis=-1)
    # pred samples up to each union point; within a run of ties the count is
    # complete only at its last point, where the grid step is the only nonzero one
    count_p = np.cumsum(order < p.shape[0], axis=-1)[:, :-1]
    count_r = np.arange(1, grid.shape[1]) - count_p
    cdf_diff = np.abs(count_p / p.shape[0] - count_r / r.shape[0])
    return float(np.mean((cdf_diff * np.diff(grid, axis=-1)).sum(axis=-1)))


def percentile_mae(pred, ref, p):
    """Absolute difference of the p-th percentile (linear interpolation), pixel mean."""
    if not 0.0 < p < 100.0:
        raise ValueError("percentile must lie in (0, 100)")
    a = _flatten_samples(pred)
    b = _flatten_samples(ref)
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample set")
    return float(np.abs(np.percentile(a, p, axis=0) - np.percentile(b, p, axis=0)).mean())


# ---------------------------------------------------------------------------
# Correlation diagnostics
# ---------------------------------------------------------------------------

def correlation_matrix(series_map, center, box):
    """Pearson correlation of the centre pixel's series with each neighbor.

    series_map: [T, NX, NY]; box: half-width of the neighborhood. Neighbors
    with zero variance yield NaN entries. The centre entry is exactly one by
    definition.
    """
    t, nx, ny = series_map.shape
    if t < 3:
        raise ValueError("need at least 3 time samples")
    ci, cj = center
    if not (box <= ci < nx - box and box <= cj < ny - box):
        raise ValueError("neighborhood box exceeds the grid")
    # the neighborhood, [2 box + 1, 2 box + 1, T], contiguous in time so that each
    # sum over time adds in the order of the 1-D sum over one series
    hood = np.ascontiguousarray(np.moveaxis(
        series_map[:, ci - box: ci + box + 1, cj - box: cj + box + 1], 0, -1))
    anom = hood - hood.mean(axis=-1, keepdims=True)
    norm = np.sqrt((anom ** 2).sum(axis=-1))
    c_norm = norm[box, box]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (anom[box, box] * anom).sum(axis=-1) / (c_norm * norm)
    out = np.where((c_norm == 0.0) | (norm == 0.0), np.nan, corr).astype(np.float64)
    out[box, box] = 1.0
    return out


def spatial_corr_error(pred_map, ref_map, center, box):
    """Frobenius norm of the correlation-matrix difference around one location.

    Entries undefined on either side (zero-variance series) are excluded and
    reported through a warning.
    """
    p = correlation_matrix(pred_map, center, box)
    r = correlation_matrix(ref_map, center, box)
    valid = np.isfinite(p) & np.isfinite(r)
    excluded = int((~valid).sum())
    if excluded:
        warnings.warn(f"spatial_corr_error: {excluded} zero-variance entries excluded",
                      stacklevel=2)
    return float(np.sqrt(((p[valid] - r[valid]) ** 2).sum()))


def temporal_psd(series, t_phys):
    """Periodogram |X(f_k)|^2 / T over positive frequencies, mean removed."""
    series = np.asarray(series, dtype=np.float64)
    x = series - series.mean(axis=-1, keepdims=True)
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2 / t_phys
    return spec[..., 1:]


def temporal_psd_error(pred, ref, t_phys):
    """Mean |log ratio| between member-averaged periodograms.

    pred, ref: [members, T] ensembles of equal series length.
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    ref = np.atleast_2d(np.asarray(ref, dtype=np.float64))
    if pred.shape[-1] != ref.shape[-1]:
        raise ValueError("series lengths must match")
    p = np.maximum(temporal_psd(pred, t_phys).mean(axis=0), PSD_FLOOR)
    r = np.maximum(temporal_psd(ref, t_phys).mean(axis=0), PSD_FLOOR)
    return float(np.abs(np.log(p) - np.log(r)).mean())


# ---------------------------------------------------------------------------
# Compound events
# ---------------------------------------------------------------------------

def heat_streak_prob(tmax, clim_mean, h, delta):
    """Probability of a day belonging to an h-day span of exceedances.

    tmax: [N] or [N, ...] daily maxima; clim_mean: a baseline that broadcasts
    against tmax. Counts unique days inside any window of h consecutive days
    all exceeding clim_mean + delta: a float for [N], else one probability per
    trailing index.
    """
    tmax = np.asarray(tmax, dtype=np.float64)
    n = tmax.shape[0]
    member = np.zeros(tmax.shape, dtype=bool)
    if 1 <= h <= n:
        exceed = tmax > np.asarray(clim_mean) + delta
        window_full = np.lib.stride_tricks.sliding_window_view(exceed, h, axis=0).all(axis=-1)
        for k in range(h):
            member[k: k + window_full.shape[0]] |= window_full
    prob = member.sum(axis=0) / max(n, 1)
    return float(prob) if tmax.ndim == 1 else prob
