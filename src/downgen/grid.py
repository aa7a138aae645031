"""Gridded-field container, file I/O, climatology and the fixed resampling operators.

Fields are dense float64 arrays of shape [T, NX, NY, V] (time, longitude,
latitude, variable) with uniform integer-hour timestamps. The synthetic
calendar uses 360-day years and a bi-hourly base cadence (12 steps per day).
"""

from __future__ import annotations

import json
import math
import operator
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

HOURS_PER_DAY = 24
DAYS_PER_YEAR = 360
STEPS_PER_DAY = 12  # bi-hourly base cadence

STD_FLOOR = 1e-6


class GridFormatError(ValueError):
    """Raised when an array file, its sidecar or a checkpoint manifest is malformed."""


@contextmanager
def decoding(path):
    """A missing key, a missing file it names, a wrong type or a bad value met
    while objects are built from the document at `path` fails as a
    GridFormatError naming it; one that names its own file passes unchanged."""
    try:
        yield
    except GridFormatError:
        raise
    except (LookupError, TypeError, ValueError, FileNotFoundError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise GridFormatError(f"{path}: {detail}") from exc


def exact_keys(doc, cls):
    """`doc` as a dict whose keys are exactly the fields of the dataclass `cls`."""
    doc = dict(doc)
    names = {f.name for f in fields(cls)}
    if doc.keys() != names:
        raise ValueError(f"keys {sorted(doc)}, expected {sorted(names)}")
    return doc


def require_at_least(obj, least, names):
    """Refuse any of the fields `names` of `obj` below `least`, naming it first."""
    for name in names:
        if not getattr(obj, name) >= least:
            raise ValueError(f"{name} must be at least {least}, not {getattr(obj, name)}")


def require_positive(obj, names):
    """Refuse any of the fields `names` of `obj` not above 0, naming it first."""
    for name in names:
        if not getattr(obj, name) > 0:
            raise ValueError(f"{name} must be positive, not {getattr(obj, name)}")


@dataclass
class GridField:
    """Dense [T, NX, NY, V] array with coordinate metadata."""

    data: np.ndarray
    time0: int            # hours since epoch of the first step
    dt_hours: int
    lon: np.ndarray       # [NX] degrees
    lat: np.ndarray       # [NY] degrees
    var_names: tuple
    member_id: str | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.lon = np.asarray(self.lon, dtype=np.float64)
        self.lat = np.asarray(self.lat, dtype=np.float64)
        if isinstance(self.var_names, str) or not all(isinstance(v, str) for v in self.var_names):
            raise TypeError(f"var_names must be a sequence of names, not {self.var_names!r}")
        if not isinstance(self.member_id, (str, type(None))):
            raise TypeError(f"member_id must be a name or null, not {self.member_id!r}")
        self.var_names = tuple(self.var_names)
        if self.data.ndim != 4:
            raise ValueError(f"expected 4-axis [T, NX, NY, V] data, got shape {self.data.shape}")
        t, nx, ny, nv = self.data.shape
        if len(self.lon) != nx or len(self.lat) != ny or len(self.var_names) != nv:
            raise ValueError(
                f"coordinate lengths ({len(self.lon)}, {len(self.lat)}, {len(self.var_names)}) "
                f"do not match data shape {self.data.shape}"
            )
        self.time0 = operator.index(self.time0)
        self.dt_hours = operator.index(self.dt_hours)
        if self.dt_hours <= 0:
            raise ValueError("dt_hours must be a positive integer")
        if not np.isfinite(self.data).all():
            raise ValueError("field data contains non-finite values")

    @property
    def n_times(self):
        return self.data.shape[0]

    @property
    def time_coords(self):
        return self.time0 + self.dt_hours * np.arange(self.n_times, dtype=np.int64)

    def with_data(self, data):
        return replace(self, data=data)

    def time_slice(self, start, stop):
        """Restrict to timestamps in [start, stop) hours. The times are regular,
        so the steps kept are a contiguous range and the data is a read-only
        view of this field's: an in-place write to it fails rather than
        changing this field."""
        # each bound's first step at or after it, ceil((hours - time0) / dt), clipped
        lo, hi = (min(max(-((self.time0 - hours) // self.dt_hours), 0), self.n_times)
                  for hours in (start, stop))
        if hi <= lo:
            raise ValueError(f"time range [{start}, {stop}) selects no steps")
        data = self.data[lo:hi]
        data.flags.writeable = False
        return replace(self, data=data, time0=self.time0 + lo * self.dt_hours)


def group_index(times, grouping):
    """Climatology group of each timestamp under (doy_buckets, tod_buckets)."""
    doy_buckets, tod_buckets = grouping
    doy_b = (day_of_year(times) * doy_buckets) // DAYS_PER_YEAR
    tod_b = ((np.asarray(times) % HOURS_PER_DAY) * tod_buckets) // HOURS_PER_DAY
    return doy_b * tod_buckets + tod_b


def day_of_year(times):
    return (np.asarray(times) // HOURS_PER_DAY) % DAYS_PER_YEAR


@dataclass
class DownsampleSpec:
    """Fixed downsampling map: temporal window mean, then spatial block mean."""

    spatial_factor: int = 4
    temporal_window: int = STEPS_PER_DAY

    def __post_init__(self):
        if self.spatial_factor < 1 or self.temporal_window < 1:
            raise ValueError("downsample factors must be >= 1")


@dataclass
class Climatology:
    """Per-(day-of-year bucket, time-of-day bucket) pixel mean/std tables.

    Fitted by :func:`compute_climatology` on data that covers every group, so
    each lookup finds its group's statistics.
    """

    doy_buckets: int
    tod_buckets: int
    mean: np.ndarray  # [G, NX, NY, V] with G = doy_buckets * tod_buckets
    std: np.ndarray

    def __post_init__(self):
        if {len(self.mean), len(self.std)} != {self.doy_buckets * self.tod_buckets}:
            raise ValueError(f"climatology tables of {[len(self.mean), len(self.std)]} groups, "
                             f"not {self.doy_buckets} x {self.tod_buckets}")

    def lookup_mean(self, times):
        return self.mean[group_index(times, (self.doy_buckets, self.tod_buckets))]

    def lookup_std(self, times):
        return self.std[group_index(times, (self.doy_buckets, self.tod_buckets))]


@dataclass
class EnsembleStats:
    """Date-agnostic per-pixel mean/std of one source over the training period."""

    mean: np.ndarray  # [NX, NY, V]
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ValueError("mean/std shape mismatch")
        if not (self.std > 0).all():
            raise ValueError("std must be strictly positive")


# ---------------------------------------------------------------------------
# File I/O: NPY v1.0 payload + JSON sidecar manifest
# ---------------------------------------------------------------------------

def _sidecar_path(path):
    return Path(str(path) + ".json")


@contextmanager
def staged(path):
    """Yield a hidden `.partial` sibling of `path` to write; it replaces `path`
    only on success, so `path` exists only once it is complete."""
    tmp = path.with_name(f".{path.name}.partial")
    try:
        _remove(tmp)   # left by a killed run
        yield tmp
        os.replace(tmp, path)
    finally:
        _remove(tmp)


def _remove(path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def write_npy(data, path) -> None:
    """Write `data` as a little-endian float64 C-order NPY v1.0 file."""
    data = np.ascontiguousarray(data, dtype="<f8")
    if not np.isfinite(data).all():
        raise ValueError(f"refusing to write non-finite data to {path}")
    with open(path, "wb") as f:
        np.lib.format.write_array(f, data, version=(1, 0))


def read_npy(path) -> np.ndarray:
    """Read a file written by :func:`write_npy`, validating the format."""
    with open(path, "rb") as f, decoding(path):
        version = np.lib.format.read_magic(f)
        if version != (1, 0):
            raise GridFormatError(f"{path}: unsupported NPY version {version}")
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
        if dtype != np.dtype("<f8") or fortran_order:
            raise GridFormatError(f"{path}: expected little-endian float64 C-order payload")
        count = math.prod(shape)
        data = np.fromfile(f, dtype="<f8", count=count)
    if data.size != count:
        raise GridFormatError(f"{path}: truncated payload")
    return data.reshape(shape)


def write_array(fld: GridField, path) -> None:
    """Write the payload as NPY v1.0 plus a JSON sidecar, each :func:`staged`.

    The sidecar is renamed into place first, so the array file exists only once
    the field is complete.
    """
    path = Path(path)
    manifest = {"time0": fld.time0, "dt_hours": fld.dt_hours, "lon": fld.lon.tolist(),
                "lat": fld.lat.tolist(), "var_names": list(fld.var_names),
                "member_id": fld.member_id}
    # the inner context exits first: the sidecar is in place before the array
    with staged(path) as array_tmp, staged(_sidecar_path(path)) as sidecar_tmp:
        write_npy(fld.data, array_tmp)
        sidecar_tmp.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


def read_json(path):
    """The JSON document in `path`, decoded under :func:`decoding`."""
    with open(path, encoding="utf-8") as f, decoding(path):
        return json.load(f)


def read_array(path) -> GridField:
    """Read a field written by :func:`write_array`, validating the format."""
    path = Path(path)
    data = read_npy(path)
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise GridFormatError(f"missing sidecar manifest {sidecar}")
    manifest = read_json(sidecar)
    with decoding(sidecar):
        return GridField(data, manifest["time0"], manifest["dt_hours"], manifest["lon"],
                         manifest["lat"], manifest["var_names"], manifest.get("member_id"))


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def calendar_groups(times, grouping):
    """(group of each of `times`, sample count of each group) under `grouping`.

    A climatology covers its calendar: every group of `grouping` must receive
    at least two of `times`, and the first that does not is refused, named
    with its count.
    """
    gid = group_index(times, grouping)
    counts = np.bincount(gid, minlength=grouping[0] * grouping[1])
    short = np.flatnonzero(counts < 2)
    if short.size:
        g = int(short[0])
        raise ValueError(f"climatology group {g} of {len(counts)} receives {counts[g]} "
                         "sample(s), not at least 2")
    return gid, counts


def compute_climatology(fld: GridField, grouping) -> Climatology:
    """Grouped per-pixel sample mean and population std of `fld`.

    Each group's rows, gathered in time order by a stable sort, take two
    passes: the mean, then the mean of the squared deviations from it, so
    fields far from zero keep their digits. With one group, (1, 1), this is
    :func:`compute_ensemble_stats`. Every group must receive at least two
    samples (:func:`calendar_groups`).
    """
    gid, counts = calendar_groups(fld.time_coords, grouping)
    order = np.argsort(gid, kind="stable")
    end = np.cumsum(counts)
    mean = np.empty((len(counts),) + fld.data.shape[1:])
    std = np.empty_like(mean)
    for g, n in enumerate(counts):
        rows = fld.data[order[end[g] - n: end[g]]]
        mean[g] = rows.mean(axis=0)
        std[g] = np.maximum(rows.std(axis=0), STD_FLOOR)
    return Climatology(*grouping, mean, std)


def compute_ensemble_stats(fld: GridField) -> EnsembleStats:
    """Date-agnostic per-pixel mean/std over every step of `fld`: its one-group climatology."""
    clim = compute_climatology(fld, (1, 1))
    return EnsembleStats(mean=clim.mean[0], std=clim.std[0])


# ---------------------------------------------------------------------------
# Resampling operators (array level)
# ---------------------------------------------------------------------------

def coarsen_data(data, spec):
    """The downsampling map on [T, NX, NY, V] data: the mean over each window
    of spec.temporal_window steps, then over spatial_factor x spatial_factor
    blocks. Averaging in time first leaves the spatial mean a window-fold
    smaller array to reduce."""
    t, nx, ny, nv = data.shape
    f, w = spec.spatial_factor, spec.temporal_window
    if nx % f or ny % f:
        raise ValueError(f"grid {nx}x{ny} not divisible by spatial factor {f}")
    if t % w:
        raise ValueError(f"series length {t} not divisible by temporal window {w}")
    # a reduction keeps its input's axis order; C order gives every caller one layout
    data = np.ascontiguousarray(data.reshape(t // w, w, nx, ny, nv).mean(axis=1))
    return data.reshape(t // w, nx // f, f, ny // f, f, nv).mean(axis=(2, 4))


def _catmull_rom_matrix(n_coarse, factor):
    """[n_fine, n_coarse] interpolation matrix, Catmull-Rom with linear edge extrapolation.

    Rows sum to one (constants exact) and the kernel reproduces linear ramps
    exactly, including at the boundary via the extrapolated pad taps.
    """
    n_fine = n_coarse * factor
    if n_coarse == 1:
        return np.ones((n_fine, 1))
    w = np.zeros((n_fine, n_coarse + 4))  # 2-tap linear-extrapolation pad per side
    for i in range(n_fine):
        s = (i + 0.5) / factor - 0.5
        base = int(np.floor(s))
        p = s - base
        w0 = -0.5 * p**3 + p**2 - 0.5 * p
        w1 = 1.5 * p**3 - 2.5 * p**2 + 1.0
        w2 = -1.5 * p**3 + 2.0 * p**2 + 0.5 * p
        w3 = 0.5 * p**3 - 0.5 * p**2
        w[i, base + 1: base + 5] = (w0, w1, w2, w3)
    # Fold the pad taps back: pad[-k] = p0 - k (p1 - p0), pad[n-1+k] = p[n-1] + k (p[n-1] - p[n-2])
    mat = w[:, 2: 2 + n_coarse].copy()
    mat[:, 0] += 2.0 * w[:, 1] + 3.0 * w[:, 0]
    mat[:, 1] += -1.0 * w[:, 1] - 2.0 * w[:, 0]
    mat[:, -1] += 2.0 * w[:, n_coarse + 2] + 3.0 * w[:, n_coarse + 3]
    mat[:, -2] += -1.0 * w[:, n_coarse + 2] - 2.0 * w[:, n_coarse + 3]
    return mat


def cubic_upsample_space(data, factor):
    """Separable bicubic (Catmull-Rom) upsampling by `factor`; data [T, NX, NY, V]."""
    if factor == 1:
        return data.copy()
    _, nx, ny, _ = data.shape
    wx = _catmull_rom_matrix(nx, factor)
    wy = _catmull_rom_matrix(ny, factor)
    out = np.einsum("ic,tcjv->tijv", wx, data)
    return np.einsum("jd,tidv->tijv", wy, out)


def coarsen(fld: GridField, spec: DownsampleSpec) -> GridField:
    """The fixed downsampling map, `coarsen_data`: temporal window mean then
    spatial block mean."""
    data = coarsen_data(fld.data, spec)
    f = spec.spatial_factor
    lon = fld.lon.reshape(-1, f).mean(axis=1)
    lat = fld.lat.reshape(-1, f).mean(axis=1)
    return GridField(data, fld.time0, fld.dt_hours * spec.temporal_window,
                     lon, lat, fld.var_names, fld.member_id)


def interp_upsample(fld: GridField, spec: DownsampleSpec) -> GridField:
    """Deterministic upsampling: bicubic in space, nearest (replication) in time."""
    data = np.repeat(cubic_upsample_space(fld.data, spec.spatial_factor), spec.temporal_window,
                     axis=0)
    f = spec.spatial_factor
    if f > 1:
        dlon = (fld.lon[1] - fld.lon[0]) / f if len(fld.lon) > 1 else 1.0
        dlat = (fld.lat[1] - fld.lat[0]) / f if len(fld.lat) > 1 else 1.0
        lon = fld.lon[0] + dlon * (np.arange(len(fld.lon) * f) - (f - 1) / 2.0)
        lat = fld.lat[0] + dlat * (np.arange(len(fld.lat) * f) - (f - 1) / 2.0)
    else:
        lon, lat = fld.lon, fld.lat
    if fld.dt_hours % spec.temporal_window:
        raise ValueError("coarse dt not divisible by temporal window")
    return GridField(data, fld.time0, fld.dt_hours // spec.temporal_window,
                     lon, lat, fld.var_names, fld.member_id)
