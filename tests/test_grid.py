import json
import re

import numpy as np
import pytest

from downgen.grid import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    STD_FLOOR,
    STEPS_PER_DAY,
    Climatology,
    DownsampleSpec,
    GridField,
    GridFormatError,
    calendar_groups,
    coarsen,
    compute_climatology,
    compute_ensemble_stats,
    cubic_upsample_space,
    interp_upsample,
    read_array,
    group_index,
    write_array,
)
from downgen.nets import load_checkpoint, save_checkpoint
from zonal import zonal_weighted_rolling_mean


def make_field(data, dt_hours=2, time0=0, member_id=None):
    t, nx, ny, nv = data.shape
    lon = np.linspace(0.0, 10.0, nx, endpoint=False)
    lat = np.linspace(30.0, 40.0, ny, endpoint=False)
    names = tuple(f"v{i}" for i in range(nv))
    return GridField(data, time0, dt_hours, lon, lat, names, member_id)


def load_as_checkpoint(path):
    """`load_checkpoint` of a one-tensor checkpoint whose tensor file is `path`."""
    (path.parent / "manifest.json").write_text(json.dumps(
        {"tensors": [path.name.removesuffix(".npy")], "meta": {"kind": "t"}}))
    return load_checkpoint(path.parent, "t", lambda arrays, meta: arrays)


# fields and checkpoint tensors share one NPY codec and its validation
READERS = (read_array, load_as_checkpoint)


class TestGridField:
    def test_coordinate_length_mismatch_rejected(self):
        data = np.zeros((2, 3, 3, 1))
        with pytest.raises(ValueError, match="coordinate lengths"):
            GridField(data, 0, 2, np.arange(4), np.arange(3), ("a",))

    def test_nan_rejected(self):
        data = np.zeros((2, 3, 3, 1))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            make_field(data)

    def test_time_coords_uniform(self):
        fld = make_field(np.zeros((5, 2, 2, 1)), dt_hours=6, time0=12)
        assert fld.time_coords.tolist() == [12, 18, 24, 30, 36]

    @pytest.mark.parametrize("start, stop", [(0, 30), (13, 31), (20, 25), (-50, 19),
                                             (25, 500), (12, 13)])
    def test_time_slice_is_read_only_view(self, start, stop):
        data = np.random.default_rng(0).standard_normal((5, 2, 2, 1))
        fld = make_field(data, dt_hours=6, time0=12)   # times 12, 18, 24, 30, 36
        times = fld.time_coords
        idx = np.nonzero((times >= start) & (times < stop))[0]   # as a fancy-index copy
        part = fld.time_slice(start, stop)
        assert part.data.tobytes() == data[idx].tobytes()
        assert part.time0 == times[idx[0]]
        assert np.shares_memory(part.data, fld.data)
        with pytest.raises(ValueError, match="read-only"):
            part.data[0] = 0.0
        assert fld.data.flags.writeable

    @pytest.mark.parametrize("start, stop", [(0, 12), (37, 99), (19, 24), (30, 30)])
    def test_time_slice_of_no_step_rejected(self, start, stop):
        fld = make_field(np.zeros((5, 2, 2, 1)), dt_hours=6, time0=12)
        with pytest.raises(ValueError, match="selects no steps"):
            fld.time_slice(start, stop)


class TestIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fld = make_field(rng.standard_normal((4, 8, 8, 2)), member_id="m003")
        path = tmp_path / "x.npy"
        write_array(fld, path)
        back = read_array(path)
        assert back.data.tobytes() == fld.data.tobytes()
        assert back.time0 == fld.time0 and back.dt_hours == fld.dt_hours
        assert back.var_names == fld.var_names and back.member_id == "m003"
        np.testing.assert_array_equal(back.lon, fld.lon)
        np.testing.assert_array_equal(back.lat, fld.lat)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.npy"
        path.write_bytes(b"NOTNPY" + b"\x00" * 64)
        for reader in READERS:
            with pytest.raises(GridFormatError, match=re.escape(f"{path}: the magic string")):
                reader(path)

    @staticmethod
    def _rewrite_payload(tmp_path, payload, version=(1, 0)):
        """A valid field file whose NPY payload is replaced by `payload`."""
        path = tmp_path / "x.npy"
        write_array(make_field(np.zeros((2, 4, 4, 1))), path)
        with open(path, "wb") as f:
            np.lib.format.write_array(f, payload, version=version)
        return path

    @pytest.mark.parametrize("payload, version, message", [
        (np.zeros((2, 4, 4, 1)), (2, 0), "unsupported NPY version"),
        (np.zeros((2, 4, 4, 1), dtype="<f4"), (1, 0), "little-endian float64"),
        (np.zeros((2, 4, 4, 1), dtype=">f8"), (1, 0), "little-endian float64"),
        (np.asfortranarray(np.zeros((2, 4, 4, 1))), (1, 0), "C-order"),
    ], ids=["version-2.0", "float32", "big-endian", "fortran-order"])
    def test_unsupported_payload_rejected(self, tmp_path, payload, version, message):
        path = self._rewrite_payload(tmp_path, payload, version)
        for reader in READERS:
            with pytest.raises(GridFormatError, match=message) as exc:
                reader(path)
            assert str(path) in str(exc.value)

    def test_truncated_payload_rejected(self, tmp_path):
        path = self._rewrite_payload(tmp_path, np.zeros((2, 4, 4, 1)))
        path.write_bytes(path.read_bytes()[:-8])
        for reader in READERS:
            with pytest.raises(GridFormatError, match="truncated payload") as exc:
                reader(path)
            assert str(path) in str(exc.value)

    def test_nan_write_rejected(self, tmp_path):
        fld = make_field(np.zeros((2, 2, 2, 1)))
        fld.data[0, 0, 0, 0] = np.nan  # bypass constructor validation
        with pytest.raises(ValueError, match="non-finite"):
            write_array(fld, tmp_path / "x.npy")
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(tmp_path / "ckpt", {"w": fld.data}, {})
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_missing_sidecar_rejected(self, tmp_path):
        fld = make_field(np.zeros((2, 2, 2, 1)))
        path = tmp_path / "x.npy"
        write_array(fld, path)
        sidecar = tmp_path / "x.npy.json"
        sidecar.unlink()
        with pytest.raises(GridFormatError, match=re.escape(f"missing sidecar manifest {sidecar}")):
            read_array(path)

    def test_manifest_mismatch_rejected(self, tmp_path):
        fld = make_field(np.zeros((2, 4, 4, 1)))
        path = tmp_path / "x.npy"
        write_array(fld, path)
        sidecar = tmp_path / "x.npy.json"
        text = sidecar.read_text().replace('"v0"', '"v0", "v1"')
        sidecar.write_text(text)
        with pytest.raises(GridFormatError, match=re.escape(f"{sidecar}: coordinate lengths")):
            read_array(path)


class TestClimatology:
    def test_constant_field(self):
        data = np.full((DAYS_PER_YEAR * STEPS_PER_DAY, 2, 2, 1), 3.25)
        # two years so every (day, step) group has two samples
        fld = make_field(np.concatenate([data, data]))
        clim = compute_climatology(fld, (DAYS_PER_YEAR, STEPS_PER_DAY))
        np.testing.assert_allclose(clim.mean, 3.25)
        np.testing.assert_allclose(clim.std, STD_FLOOR)

    def test_alternating_sign(self):
        # single group: both buckets collapse to one, samples alternate +-1
        data = np.zeros((8, 2, 2, 1))
        data[::2] = 1.0
        data[1::2] = -1.0
        fld = make_field(data)
        clim = compute_climatology(fld, (1, 1))
        np.testing.assert_allclose(clim.mean, 0.0)
        np.testing.assert_allclose(clim.std, 1.0)

    def test_seasonal_sinusoid_group_means(self):
        # daily data, 2 years; group means must equal the closed-form bucket means
        n_days = 2 * DAYS_PER_YEAR
        doy = np.arange(n_days) % DAYS_PER_YEAR
        season = np.sin(2 * np.pi * doy / DAYS_PER_YEAR)
        data = np.broadcast_to(season[:, None, None, None], (n_days, 2, 2, 1)).copy()
        fld = make_field(data, dt_hours=24)
        buckets = 30
        clim = compute_climatology(fld, (buckets, 1))
        # independent oracle: enumerate days per bucket and average the sinusoid
        for b in range(buckets):
            days = [d for d in range(DAYS_PER_YEAR) if (d * buckets) // DAYS_PER_YEAR == b]
            expected = np.mean([np.sin(2 * np.pi * d / DAYS_PER_YEAR) for d in days])
            np.testing.assert_allclose(clim.mean[b], expected, atol=1e-12)

    def test_single_sample_group_rejected(self):
        fld = make_field(np.zeros((3, 2, 2, 1)), dt_hours=24)  # one sample per doy
        with pytest.raises(ValueError, match=re.escape(
                "climatology group 0 of 360 receives 1 sample(s), not at least 2")):
            compute_climatology(fld, (360, 1))

    def test_group_outside_the_data_refused(self):
        fld = make_field(np.zeros((4, 2, 2, 1)))  # 4 bi-hourly steps: day 0 only
        with pytest.raises(ValueError, match=re.escape(
                "climatology group 1 of 2 receives 0 sample(s), not at least 2")):
            compute_climatology(fld, (2, 1))  # second half of the year unseen

    def test_calendar_groups_counts_every_group(self):
        times = np.arange(DAYS_PER_YEAR * 2) * HOURS_PER_DAY   # two years of days
        gid, counts = calendar_groups(times, (36, 1))
        assert counts.tolist() == [20] * 36
        assert gid.tolist() == (np.arange(2 * DAYS_PER_YEAR) % DAYS_PER_YEAR // 10).tolist()


def climatology_masked(fld, grouping):
    """Grouped two-pass mean and std, each group's rows picked by a boolean
    mask, as a reference."""
    gid = group_index(fld.time_coords, grouping)
    mean = np.empty((grouping[0] * grouping[1],) + fld.data.shape[1:])
    std = np.empty_like(mean)
    for g in range(len(mean)):
        rows = fld.data[gid == g]
        mean[g] = rows.mean(axis=0)
        std[g] = np.maximum(rows.std(axis=0), STD_FLOOR)
    return mean, std


class TestClimatologyMatchesMasked:
    # hourly steps over one year: every bi-hourly (day, step) group seen twice;
    # some values are -0.0 or 0.0
    @pytest.mark.parametrize("grouping", [(DAYS_PER_YEAR, STEPS_PER_DAY), (36, 12),
                                          (4, 2), (1, 1)])
    def test_bitwise_equal_to_masked_two_pass(self, grouping):
        rng = np.random.default_rng(31)
        data = 5.0 + 3.0 * rng.standard_normal((DAYS_PER_YEAR * HOURS_PER_DAY, 2, 3, 2))
        data[::7, 0] = -0.0
        data[::5, 1] = 0.0
        fld = make_field(data, dt_hours=1)
        clim = compute_climatology(fld, grouping)
        mean, std = climatology_masked(fld, grouping)
        assert clim.mean.tobytes() == mean.tobytes()
        assert clim.std.tobytes() == std.tobytes()

    @pytest.mark.parametrize("grouping", [(36, 12), (4, 2), (1, 1)])
    def test_std_keeps_digits_at_large_offset(self, grouping):
        # 1e5 + z - 1e5 is exact (Sterbenz), so the masked std of the centred
        # field is a reference good to rounding
        rng = np.random.default_rng(32)
        data = 1e5 + rng.standard_normal((DAYS_PER_YEAR * HOURS_PER_DAY, 2, 3, 2))
        clim = compute_climatology(make_field(data, dt_hours=1), grouping)
        _, std = climatology_masked(make_field(data - 1e5, dt_hours=1), grouping)
        np.testing.assert_allclose(clim.std, std, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_mean, n_std", [(7, 8), (8, 7)])
    def test_table_of_other_length_than_groups_refused(self, n_mean, n_std):
        with pytest.raises(ValueError, match="not 4 x 2"):
            Climatology(4, 2, np.zeros((n_mean, 1, 1, 1)), np.ones((n_std, 1, 1, 1)))


class TestCoarsen:
    def test_constant(self):
        fld = make_field(np.full((12, 8, 8, 2), 7.5))
        out = coarsen(fld, DownsampleSpec(4, 12))
        assert out.data.shape == (1, 2, 2, 2)
        np.testing.assert_allclose(out.data, 7.5)

    def test_block_mean_arithmetic(self):
        data = np.zeros((1, 2, 2, 1))
        data[0, :, :, 0] = [[1.0, 3.0], [5.0, 7.0]]
        out = coarsen(make_field(data), DownsampleSpec(2, 1))
        assert out.data[0, 0, 0, 0] == 4.0

    def test_white_noise_variance_reduction(self):
        rng = np.random.default_rng(3)
        fld = make_field(rng.standard_normal((4, 128, 128, 1)))
        out = coarsen(fld, DownsampleSpec(4, 1))
        var = out.data.var()
        assert abs(var - 1.0 / 16.0) < 0.1 / 16.0

    @staticmethod
    def time_then_space(data, f, w):
        """Each window's steps summed in time order, then each block's cells in
        row-major order, each sum divided by its count."""
        t, nx, ny, nv = data.shape
        days = np.empty((t // w, nx, ny, nv))
        for d in range(t // w):
            acc = data[d * w].copy()
            for k in range(1, w):
                acc = acc + data[d * w + k]
            days[d] = acc / w
        acc = days[:, 0::f, 0::f].copy()
        for i in range(f):
            for j in range(f):
                if i or j:
                    acc = acc + days[:, i::f, j::f]
        return acc / (f * f)

    @pytest.mark.parametrize("f, w", [(4, 12), (2, 3), (1, 12), (4, 1)])
    def test_time_then_space_bitwise(self, f, w):
        data = np.random.default_rng(4).standard_normal((2 * w, 8, 8, 3))
        out = coarsen(make_field(data), DownsampleSpec(f, w))
        assert out.data.tobytes() == self.time_then_space(data, f, w).tobytes()

    def test_space_then_time_within_rounding_at_large_offset(self):
        data = 1e5 + np.random.default_rng(6).standard_normal((48, 8, 8, 4))
        blocks = data.reshape(48, 2, 4, 2, 4, 4).mean(axis=(2, 4))
        old = blocks.reshape(4, 12, 2, 2, 4).mean(axis=1)
        out = coarsen(make_field(data), DownsampleSpec(4, 12))
        np.testing.assert_allclose(out.data, old, rtol=1e-15, atol=0.0)

    def test_c_order_from_variable_major_input(self):
        data = np.random.default_rng(8).standard_normal((24, 3, 8, 8)).transpose(0, 2, 3, 1)
        out = coarsen(make_field(data), DownsampleSpec(4, 12))
        assert out.data.flags.c_contiguous
        expect = coarsen(make_field(data.copy()), DownsampleSpec(4, 12)).data
        assert out.data.tobytes() == expect.tobytes()

    def test_indivisible_rejected(self):
        fld = make_field(np.zeros((3, 6, 6, 1)))
        with pytest.raises(ValueError, match="divisible"):
            coarsen(fld, DownsampleSpec(4, 1))
        with pytest.raises(ValueError, match="divisible"):
            coarsen(fld, DownsampleSpec(2, 2))


class TestInterpUpsample:
    def test_constant(self):
        fld = make_field(np.full((2, 4, 4, 1), -2.5), dt_hours=24)
        out = interp_upsample(fld, DownsampleSpec(4, 12))
        assert out.data.shape == (24, 16, 16, 1)
        np.testing.assert_allclose(out.data, -2.5)

    def test_mean_shift_equivariance(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((2, 4, 4, 2))
        spec = DownsampleSpec(4, 3)
        a = interp_upsample(make_field(base, dt_hours=6), spec)
        b = interp_upsample(make_field(base + 3.5, dt_hours=6), spec)
        assert np.abs((b.data - a.data) - 3.5).max() < 1e-12

    def test_linear_ramp_exact(self):
        # block means of a linear ramp sit at block centres, so bicubic
        # upsampling with linear boundary extrapolation must restore the ramp
        nx = ny = 16
        f = 4
        x = np.arange(nx)
        y = np.arange(ny)
        ramp = 0.7 * x[:, None] - 1.3 * y[None, :] + 0.25
        fine = np.broadcast_to(ramp[None, :, :, None], (2, nx, ny, 1)).copy()
        fld = make_field(fine)
        spec = DownsampleSpec(f, 2)
        back = interp_upsample(coarsen(fld, spec), spec)
        assert np.abs(back.data - fine).max() < 1e-10

    def test_coarsen_of_upsample_returns_coarse_ramp(self):
        x = np.arange(4)
        ramp = (2.0 * x[:, None] + 0.5 * x[None, :])[None, :, :, None]
        coarse = make_field(np.broadcast_to(ramp, (1, 4, 4, 1)).copy(), dt_hours=24)
        spec = DownsampleSpec(4, 12)
        rec = coarsen(interp_upsample(coarse, spec), spec)
        assert np.abs(rec.data - coarse.data).max() < 1e-10


class TestZonalRollingMean:
    def test_constant(self):
        fld = make_field(np.full((20, 4, 4, 1), 2.0))
        _, out = zonal_weighted_rolling_mean(fld, (0.0, 90.0), 5)
        np.testing.assert_allclose(out, 2.0)
        assert out.shape[0] == 16

    def test_linear_trend_preserved(self):
        t = np.arange(30, dtype=float)
        data = np.broadcast_to((0.3 * t)[:, None, None, None], (30, 4, 4, 1)).copy()
        fld = make_field(data)
        times, out = zonal_weighted_rolling_mean(fld, (0.0, 90.0), 7)
        # boxcar of a line is the same line at the window centre
        expect = 0.3 * (np.arange(30 - 6) + 3)
        np.testing.assert_allclose(out[:, 0], expect, atol=1e-12)
        assert len(times) == len(out)

    def test_step_function_matches_convolution_oracle(self):
        series = np.zeros(40)
        series[20:] = 1.0
        data = np.broadcast_to(series[:, None, None, None], (40, 4, 6, 1)).copy()
        fld = make_field(data)
        _, out = zonal_weighted_rolling_mean(fld, (0.0, 90.0), 9)
        oracle = np.convolve(series, np.full(9, 1 / 9), mode="valid")
        np.testing.assert_allclose(out[:, 0], oracle, atol=1e-12)

    def test_window_too_long(self):
        fld = make_field(np.zeros((5, 2, 2, 1)))
        with pytest.raises(ValueError, match="window"):
            zonal_weighted_rolling_mean(fld, (0.0, 90.0), 6)


class TestEnsembleStats:
    def test_std_floor(self):
        stats = compute_ensemble_stats(make_field(np.ones((4, 2, 2, 1))))
        np.testing.assert_allclose(stats.std, STD_FLOOR)

    def test_equals_one_group_climatology_and_numpy_bitwise(self):
        rng = np.random.default_rng(33)
        fld = make_field(1e5 + rng.standard_normal((50, 2, 3, 2)))
        stats = compute_ensemble_stats(fld)
        clim = compute_climatology(fld, (1, 1))
        assert stats.mean.tobytes() == clim.mean[0].tobytes() == fld.data.mean(axis=0).tobytes()
        assert stats.std.tobytes() == clim.std[0].tobytes() == fld.data.std(axis=0).tobytes()
