"""Zonal-mean trend series of a field, shared by the trend acceptance test and
its unit tests."""

import numpy as np

from downgen.grid import GridField


def zonal_weighted_rolling_mean(fld: GridField, lat_band, window_steps):
    """cos(lat)-weighted spatial mean inside a latitude band, boxcar-filtered in time.

    Returns (times, values [T', V]) cropped by half a window on each side.
    """
    lo, hi = lat_band
    sel = np.nonzero((fld.lat >= lo) & (fld.lat <= hi))[0]
    if sel.size == 0:
        raise ValueError(f"latitude band [{lo}, {hi}] selects no rows")
    w = np.cos(np.deg2rad(fld.lat[sel]))
    w = w / w.sum()
    series = np.einsum("txyv,y->tv", fld.data[:, :, sel, :], w) / fld.data.shape[1]
    t = series.shape[0]
    if window_steps > t:
        raise ValueError(f"rolling window {window_steps} longer than series length {t}")
    kernel = np.full(window_steps, 1.0 / window_steps)
    out = np.stack([np.convolve(series[:, v], kernel, mode="valid")
                    for v in range(series.shape[1])], axis=1)
    times = fld.time_coords[(window_steps - 1) // 2:][: out.shape[0]]
    return times, out
