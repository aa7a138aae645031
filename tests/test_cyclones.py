import numpy as np
import pytest

from downgen.cyclones import (
    detect_cyclones,
    find_candidates,
    great_circle_distance,
)

LON = np.arange(0.0, 30.0, 0.5)
LAT = np.arange(10.0, 25.0, 0.5)
BASE_SLP = 101325.0


def gaussian_depression(center_lon, center_lat, depth=500.0, radius=2.0):
    d = great_circle_distance(center_lon, center_lat, LON[:, None], LAT[None, :])
    return BASE_SLP - depth * np.exp(-0.5 * (d / radius) ** 2)


def moving_scene(n_steps, start=(15.0, 17.5), speed=0.5, depth=500.0, radius=2.0,
                 wind_speed=15.0, elevation_m=0.0, skip_steps=()):
    """Depression moving east at `speed` deg/step, 6-hourly snapshots."""
    slp = np.empty((n_steps, LON.size, LAT.size))
    for k in range(n_steps):
        if k in skip_steps:
            slp[k] = BASE_SLP
        else:
            slp[k] = gaussian_depression(start[0] + speed * k, start[1], depth, radius)
    wind = np.full_like(slp, wind_speed)
    elev = np.full((LON.size, LAT.size), elevation_m)
    times = 6 * np.arange(n_steps)
    return slp, wind, elev, times


class TestGreatCircle:
    def test_same_point(self):
        assert great_circle_distance(12.0, 34.0, 12.0, 34.0) == 0.0

    def test_pole_to_pole(self):
        assert great_circle_distance(0.0, 90.0, 0.0, -90.0) == pytest.approx(180.0)

    def test_equatorial_quarter(self):
        assert great_circle_distance(0.0, 0.0, 90.0, 0.0) == pytest.approx(90.0)

    def test_symmetry(self):
        assert great_circle_distance(3.0, 40.0, 10.0, 45.0) == pytest.approx(
            great_circle_distance(10.0, 45.0, 3.0, 40.0))


class TestCandidates:
    def test_flat_field_no_candidates(self):
        slp = np.full((LON.size, LAT.size), BASE_SLP)
        assert find_candidates(slp, LON, LAT) == []

    def test_single_depression_found(self):
        slp = gaussian_depression(15.0, 17.5)
        cands = find_candidates(slp, LON, LAT)
        assert len(cands) == 1
        i, j, p = cands[0]
        assert LON[i] == 15.0 and LAT[j] == 17.5
        assert p == slp.min()

    def test_shallow_depression_fails_contour(self):
        slp = gaussian_depression(15.0, 17.5, depth=200.0)
        assert find_candidates(slp, LON, LAT) == []

    def test_nearby_minima_merged_keeping_deeper(self):
        slp = np.minimum(gaussian_depression(15.0, 17.5, depth=500.0, radius=0.7),
                         gaussian_depression(16.5, 17.5, depth=400.0, radius=0.7))
        cands = find_candidates(slp, LON, LAT)
        assert len(cands) == 1
        i, j, _ = cands[0]
        assert LON[i] == 15.0 and LAT[j] == 17.5

    def test_distant_minima_both_kept(self):
        slp = np.minimum(gaussian_depression(10.0, 17.5, depth=500.0, radius=1.2),
                         gaussian_depression(20.0, 17.5, depth=450.0, radius=1.2))
        cands = find_candidates(slp, LON, LAT)
        assert len(cands) == 2


class TestDetect:
    def test_flat_series_no_tracks(self):
        slp = np.full((12, LON.size, LAT.size), BASE_SLP)
        wind = np.full_like(slp, 15.0)
        elev = np.zeros((LON.size, LAT.size))
        assert detect_cyclones(slp, wind, elev, LON, LAT, 6 * np.arange(12)) == []

    def test_compliant_scene_yields_one_track_on_course(self):
        slp, wind, elev, times = moving_scene(11)  # 0..60 h
        tracks = detect_cyclones(slp, wind, elev, LON, LAT, times)
        assert len(tracks) == 1
        track = tracks[0]
        assert track.duration_hours == 60
        for k, (lo, la) in enumerate(zip(track.lons, track.lats)):
            assert abs(lo - (15.0 + 0.5 * k)) <= 0.5
            assert abs(la - 17.5) <= 0.5

    def test_48h_scene_fails_persistence(self):
        slp, wind, elev, times = moving_scene(9)  # 0..48 h
        assert detect_cyclones(slp, wind, elev, LON, LAT, times) == []

    def test_weak_wind_fails(self):
        slp, wind, elev, times = moving_scene(11, wind_speed=8.0)
        assert detect_cyclones(slp, wind, elev, LON, LAT, times) == []

    def test_high_elevation_fails(self):
        slp, wind, elev, times = moving_scene(11, elevation_m=150.0)
        assert detect_cyclones(slp, wind, elev, LON, LAT, times) == []

    def test_gap_within_24h_tolerated(self):
        slp, wind, elev, times = moving_scene(13, skip_steps=(5, 6))
        tracks = detect_cyclones(slp, wind, elev, LON, LAT, times)
        assert len(tracks) == 1
        assert tracks[0].duration_hours == 72
        assert len(tracks[0]) == 11

    def test_gap_beyond_24h_splits_and_fails(self):
        # 30 h hole: both fragments are shorter than 54 h
        slp, wind, elev, times = moving_scene(16, skip_steps=(6, 7, 8, 9, 10))
        assert detect_cyclones(slp, wind, elev, LON, LAT, times) == []

    def test_constant_slp_offset_invariance(self):
        slp, wind, elev, times = moving_scene(11)
        a = detect_cyclones(slp, wind, elev, LON, LAT, times)
        b = detect_cyclones(slp + 5000.0, wind, elev, LON, LAT, times)
        assert len(a) == len(b) == 1
        assert a[0].lons == b[0].lons and a[0].lats == b[0].lats
        np.testing.assert_allclose(np.array(b[0].slp_min) - np.array(a[0].slp_min),
                                   5000.0)

    def test_deterministic(self):
        slp, wind, elev, times = moving_scene(11)
        a = detect_cyclones(slp, wind, elev, LON, LAT, times)
        b = detect_cyclones(slp, wind, elev, LON, LAT, times)
        assert a[0].lons == b[0].lons and a[0].times == b[0].times
