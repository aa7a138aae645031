"""Reference downscaling methods: Gaussian quantile mapping and the
bias-correction / spatial-disaggregation / temporal-disaggregation pipeline.

Quantile mapping is univariate and per pixel: it rescales anomalies relative
to the member's own climatology onto the target climatology's spread. The
pipeline upsamples the mapped quantiles with bicubic interpolation, adds the
fine-grid climatological mean, and replaces each day with a randomly chosen
same-day-of-year historical analog adjusted to match the prescribed daily mean.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Climatology,
    DownsampleSpec,
    GridField,
    coarsen,
    day_of_year,
    interp_upsample,
)


def qm_bias_correct(y: GridField, member_clim: Climatology,
                    target_clim: Climatology) -> GridField:
    """Map member anomalies onto the target spread: (y - mu_m) / sd_m * sd_t."""
    times = y.time_coords
    anom = (y.data - member_clim.lookup_mean(times)) / member_clim.lookup_std(times)
    return y.with_data(anom * target_clim.lookup_std(times))


def qm_debias(y: GridField, member_clim: Climatology,
              target_clim: Climatology) -> GridField:
    """Quantile mapping plus restoration of the target climatological mean."""
    quantile = qm_bias_correct(y, member_clim, target_clim)
    return quantile.with_data(quantile.data + target_clim.lookup_mean(y.time_coords))


def bcsd_spatial_disagg(y_quantile: GridField, fine_daily_clim: Climatology,
                        spec: DownsampleSpec) -> GridField:
    """Bicubic upsampling of the quantile field plus the fine climatological mean.

    Output stays at daily cadence on the fine spatial grid.
    """
    spatial_only = DownsampleSpec(spec.spatial_factor, 1)
    up = interp_upsample(y_quantile, spatial_only)
    mean = fine_daily_clim.lookup_mean(up.time_coords)
    if mean.shape[1:] != up.data.shape[1:]:
        raise ValueError(f"fine climatology grid {mean.shape[1:]} does not match "
                         f"upsampled field {up.data.shape[1:]}")
    return up.with_data(up.data + mean)


def bcsd_temporal_disagg(x_daily_mean: GridField, pool: GridField, rng) -> GridField:
    """Replace each day with a same-day-of-year analog re-centred on the daily mean.

    pool: fine-cadence historical truth; the analog's sub-daily anomaly pattern
    is kept bit-exactly, its daily mean is replaced by x_daily_mean's value.
    """
    steps_per_day = x_daily_mean.dt_hours // pool.dt_hours
    if steps_per_day * pool.dt_hours != x_daily_mean.dt_hours:
        raise ValueError("pool cadence must divide the daily cadence")
    if pool.n_times % steps_per_day:
        raise ValueError("analog pool must contain whole days")
    pool_days = pool.data.reshape((pool.n_times // steps_per_day, steps_per_day)
                                  + pool.data.shape[1:])
    pool_doy = day_of_year(pool.time_coords[::steps_per_day])
    by_doy = {}
    for idx, d in enumerate(pool_doy):
        by_doy.setdefault(int(d), []).append(idx)
    out = np.empty((x_daily_mean.n_times * steps_per_day,) + x_daily_mean.data.shape[1:])
    for day, t in enumerate(x_daily_mean.time_coords):
        doy = int(day_of_year(t))
        candidates = by_doy.get(doy)
        if not candidates:
            raise ValueError(f"analog pool has no day-of-year {doy}")
        pick = candidates[int(rng.integers(len(candidates)))]
        analog = pool_days[pick]
        anomaly = analog - analog.mean(axis=0)
        out[day * steps_per_day: (day + 1) * steps_per_day] = \
            anomaly + x_daily_mean.data[day]
    return GridField(out, x_daily_mean.time0, pool.dt_hours, x_daily_mean.lon,
                     x_daily_mean.lat, x_daily_mean.var_names, x_daily_mean.member_id)


def bcsd_pipeline(y: GridField, member_clim: Climatology, target_coarse_clim: Climatology,
                  fine_daily_clim: Climatology, pool: GridField, rng,
                  spec: DownsampleSpec) -> GridField:
    """Bias correction, spatial disaggregation, temporal disaggregation."""
    y_q = qm_bias_correct(y, member_clim, target_coarse_clim)
    x_dm = bcsd_spatial_disagg(y_q, fine_daily_clim, spec)
    return bcsd_temporal_disagg(x_dm, pool, rng)


def daily_means(fld: GridField) -> GridField:
    """Daily-mean view of a fine-cadence field (helper for climatology fitting)."""
    return coarsen(fld, DownsampleSpec(1, 24 // fld.dt_hours))
