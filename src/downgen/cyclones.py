"""Sea-level-pressure cyclone detection and track linking.

Candidates are strict local SLP minima with a closed contour (pressure rises
by a threshold within a fixed great-circle radius); nearby minima are merged
keeping the deeper one. Candidates are linked greedily across 6-hourly
snapshots, tolerating bounded gaps, and tracks must satisfy duration, wind
and elevation criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONTOUR_DELTA = 240.0       # Pa rise required within CONTOUR_RADIUS
CONTOUR_RADIUS = 4.0        # great-circle degrees
CONTOUR_RING_WIDTH = 1.0    # annulus thickness checked at the radius
MERGE_RADIUS = 2.0          # great-circle degrees
WIND_THRESHOLD = 10.0       # m/s
WIND_RADIUS = 2.0           # wind maximum searched within this radius, or at least
                            # on the minimum's adjacent pixels on a coarser grid
MIN_VALID_SNAPSHOTS = 8     # wind + elevation criterion
ELEVATION_MAX = 100.0       # m
MIN_DURATION_HOURS = 54.0
MAX_GAP_HOURS = 24.0
MAX_STEP_DISTANCE = 8.0     # linking distance, great-circle degrees


def great_circle_distance(lon1, lat1, lon2, lat2):
    """Central angle between two points, in degrees."""
    phi1, phi2 = np.deg2rad(lat1), np.deg2rad(lat2)
    dlmb = np.deg2rad(np.asarray(lon2) - np.asarray(lon1))
    cosang = np.sin(phi1) * np.sin(phi2) + np.cos(phi1) * np.cos(phi2) * np.cos(dlmb)
    return np.rad2deg(np.arccos(np.clip(cosang, -1.0, 1.0)))


@dataclass
class CycloneTrack:
    times: list = field(default_factory=list)      # hours
    lons: list = field(default_factory=list)
    lats: list = field(default_factory=list)
    slp_min: list = field(default_factory=list)    # Pa
    wind_max: list = field(default_factory=list)   # m/s
    elevation: list = field(default_factory=list)  # m

    def __len__(self):
        return len(self.times)

    @property
    def duration_hours(self):
        return self.times[-1] - self.times[0]


def _local_minima(slp2d):
    """Strict minima over the 8-neighborhood; boundary ring excluded."""
    c = slp2d[1:-1, 1:-1]
    smaller = np.ones_like(c, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            smaller &= c < slp2d[1 + di: slp2d.shape[0] - 1 + di,
                                 1 + dj: slp2d.shape[1] - 1 + dj]
    ii, jj = np.nonzero(smaller)
    return list(zip(ii + 1, jj + 1))


def find_candidates(slp2d, lon, lat):
    """Closed-contour minima at one snapshot, merged within MERGE_RADIUS.

    Returns a list of (i, j, slp) sorted by depth (deepest first).
    """
    lon2d = lon[:, None]
    lat2d = lat[None, :]
    passed = []
    for i, j in _local_minima(slp2d):
        dist = great_circle_distance(lon[i], lat[j], lon2d, lat2d)
        ring = (dist > CONTOUR_RADIUS - CONTOUR_RING_WIDTH) & (dist <= CONTOUR_RADIUS)
        if not ring.any():
            continue  # contour leaves the domain; cannot be verified closed
        if slp2d[ring].min() - slp2d[i, j] >= CONTOUR_DELTA:
            passed.append((i, j, float(slp2d[i, j])))
    passed.sort(key=lambda c: (c[2], c[0], c[1]))
    merged = []
    for i, j, p in passed:
        close = any(great_circle_distance(lon[i], lat[j], lon[mi], lat[mj])
                    <= MERGE_RADIUS for mi, mj, _ in merged)
        if not close:
            merged.append((i, j, p))
    return merged


def detect_cyclones(slp, wind, elevation, lon, lat, times):
    """Detect cyclone tracks from [T, NX, NY] SLP/wind snapshots.

    times are hours (typically 6-hourly); elevation is a static [NX, NY] map.
    Returns tracks satisfying every criterion; an empty list is valid.
    """
    slp = np.asarray(slp, dtype=np.float64)
    wind = np.asarray(wind, dtype=np.float64)
    elevation = np.asarray(elevation, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    lon2d = lon[:, None]
    lat2d = lat[None, :]

    open_tracks = []
    done_tracks = []
    for t_idx, t in enumerate(times):
        candidates = find_candidates(slp[t_idx], lon, lat)
        still_open = []
        for track in open_tracks:
            if t - track.times[-1] <= MAX_GAP_HOURS:
                still_open.append(track)
            else:
                done_tracks.append(track)
        open_tracks = still_open
        taken = set()
        # deepest candidates claim the nearest track first (deterministic order)
        for i, j, p in candidates:
            best = None
            best_dist = MAX_STEP_DISTANCE
            for k, track in enumerate(open_tracks):
                if k in taken:
                    continue
                d = great_circle_distance(lon[i], lat[j], track.lons[-1], track.lats[-1])
                if d <= best_dist:
                    best = k
                    best_dist = d
            near = great_circle_distance(lon[i], lat[j], lon2d, lat2d) <= WIND_RADIUS
            near[i - 1:i + 2, j - 1:j + 2] = True   # a minimum is never on the boundary
            wmax = float(wind[t_idx][near].max())
            elev = float(elevation[i, j])
            if best is None:
                track = CycloneTrack()
                open_tracks.append(track)
            else:
                taken.add(best)
                track = open_tracks[best]
            track.times.append(int(t))
            track.lons.append(float(lon[i]))
            track.lats.append(float(lat[j]))
            track.slp_min.append(p)
            track.wind_max.append(wmax)
            track.elevation.append(elev)
    done_tracks.extend(open_tracks)

    kept = []
    for track in done_tracks:
        if track.duration_hours < MIN_DURATION_HOURS:
            continue
        ok = sum(1 for w, e in zip(track.wind_max, track.elevation)
                 if w > WIND_THRESHOLD and e < ELEVATION_MAX)
        if ok < MIN_VALID_SNAPSHOTS:
            continue
        kept.append(track)
    return kept

