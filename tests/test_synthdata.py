import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from downgen.cli import _synth_config
from downgen.config import parse_config
from downgen.grid import DAYS_PER_YEAR, HOURS_PER_DAY, coarsen
from downgen import synthdata
from downgen.synthdata import (
    VAR_CORR,
    BiasSpec,
    SynthConfig,
    gen_biased_coarse_ensemble,
    gen_fine_ensemble,
    make_synth_pair,
)

# normalized-unit config: scales 1 and bases far from the wind/humidity clip at
# zero, so amplitudes and correlations read off directly
NORM_UNITS = dict(var_bases=(0.0, 100.0, 100.0, 0.0), var_scales=(1.0, 1.0, 1.0, 1.0))
DEMO = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"


def wasserstein_sorted(a, b):
    a = np.sort(a)
    b = np.sort(b)
    return np.abs(a - b).mean()


class TestFineEnsemble:
    def test_all_amplitudes_zero_gives_constant(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=4, seasonal_amp=0.0, diurnal_amp=0.0,
                          noise_amp=0.0, trend_per_year=0.0, **NORM_UNITS)
        fld = gen_fine_ensemble(cfg)
        np.testing.assert_array_equal(fld.data, np.broadcast_to(cfg.var_bases, fld.data.shape))

    def test_trend_recovered_by_regression(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=10 * DAYS_PER_YEAR, seasonal_amp=0.5,
                          diurnal_amp=0.1, noise_amp=0.3, trend_per_year=0.02,
                          rng_seed=7, **NORM_UNITS)
        fld = gen_fine_ensemble(cfg)
        mean_series = fld.data[..., 0].mean(axis=(1, 2))
        years = fld.time_coords / (HOURS_PER_DAY * DAYS_PER_YEAR)
        slope = np.polyfit(years, mean_series, 1)[0]
        assert abs(slope - 0.02) < 0.002

    def test_seeded_twice_bit_identical(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=6, rng_seed=3)
        a = gen_fine_ensemble(cfg)
        b = gen_fine_ensemble(cfg)
        assert a.data.tobytes() == b.data.tobytes()

    def test_spectral_slope_recovered(self):
        cfg = SynthConfig(nx=64, ny=64, n_days=2, seasonal_amp=0.0, diurnal_amp=0.0,
                          spectral_slope=2.0, rng_seed=11, spatial_factor=4, **NORM_UNITS)
        fld = gen_fine_ensemble(cfg)
        # isotropic periodogram of the pressure channel, radially binned
        spec = np.abs(np.fft.fftn(fld.data[..., 3], axes=(1, 2))) ** 2
        spec = spec.mean(axis=0)
        kx = np.fft.fftfreq(64) * 64
        k = np.sqrt(kx[:, None] ** 2 + kx[None, :] ** 2)
        kbins = np.arange(2, 21)  # one decade: k in [2, 20]
        radial = np.array([spec[(k >= kb - 0.5) & (k < kb + 0.5)].mean() for kb in kbins])
        slope = -np.polyfit(np.log(kbins), np.log(radial), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_cross_variable_correlation(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=60, seasonal_amp=0.0, diurnal_amp=0.0,
                          rng_seed=5, **NORM_UNITS)
        fld = gen_fine_ensemble(cfg)
        flat = fld.data.reshape(-1, 4)
        corr = np.corrcoef(flat.T)
        assert np.abs(corr - VAR_CORR).max() < 0.05

    def test_clipping_nonnegative(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=20, noise_amp=3.0, rng_seed=9,
                          var_bases=(0.0, 0.5, 0.5, 0.0), var_scales=(1.0, 1.0, 1.0, 1.0))
        fld = gen_fine_ensemble(cfg)
        assert fld.data[..., 1].min() >= 0.0
        assert fld.data[..., 2].min() >= 0.0


class TestBiasedEnsemble:
    def test_zero_bias_matches_truth_distribution(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=90, n_members=1, seasonal_amp=0.0,
                          diurnal_amp=0.0, rng_seed=13, **NORM_UNITS)
        pair = make_synth_pair(cfg)
        member = pair.coarse_biased[0]
        n = member.data.shape[0]
        # WD estimator scale for identical distributions is ~ sigma/sqrt(n)
        tol = 3.0 / np.sqrt(n)
        for px in [(0, 0), (1, 1)]:
            wd = wasserstein_sorted(member.data[:, px[0], px[1], 0],
                                    pair.coarse_truth.data[:, px[0], px[1], 0])
            assert wd < tol

    def test_mean_offset_shifts_pixel_means(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=360, n_members=1, rng_seed=17,
                          bias=BiasSpec(mean_offset=1.0), **NORM_UNITS)
        pair = make_synth_pair(cfg)
        diff = pair.coarse_biased[0].data.mean(axis=0) - pair.coarse_truth.data.mean(axis=0)
        n_days = pair.coarse_truth.data.shape[0]
        # coarse daily means have small residual noise; allow generous sampling error
        assert np.abs(diff - 1.0).max() < 5.0 / np.sqrt(n_days)

    def test_members_pairwise_distinct(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=10, n_members=3, rng_seed=19)
        members = gen_biased_coarse_ensemble(cfg, gen_fine_ensemble(cfg))
        assert not np.array_equal(members[0].data, members[1].data)
        assert not np.array_equal(members[1].data, members[2].data)

    def test_var_scale_inflates_variance(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=240, n_members=1, seasonal_amp=0.0,
                          diurnal_amp=0.0, rng_seed=23, bias=BiasSpec(var_scale=2.0),
                          **NORM_UNITS)
        pair = make_synth_pair(cfg)
        ratio = pair.coarse_biased[0].data.var(axis=0) / pair.coarse_truth.data.var(axis=0)
        assert abs(np.median(ratio) - 2.0) < 0.4

    def test_corr_shrink_weakens_cross_correlation(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=240, n_members=1, seasonal_amp=0.0,
                          diurnal_amp=0.0, rng_seed=29, bias=BiasSpec(corr_shrink=0.7),
                          **NORM_UNITS)
        pair = make_synth_pair(cfg)
        flat = pair.coarse_biased[0].data.reshape(-1, 4)
        corr = np.corrcoef(flat.T)
        expected = 0.3 * VAR_CORR + 0.7 * np.eye(4)
        assert np.abs(corr - expected).max() < 0.1


class TestSynthPair:
    def test_coarse_truth_identity(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=12, rng_seed=31)
        pair = make_synth_pair(cfg)
        redo = coarsen(pair.fine_truth, cfg.downsample)
        assert redo.data.tobytes() == pair.coarse_truth.data.tobytes()

    def test_calendar_alignment(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=12, n_members=2, rng_seed=37)
        pair = make_synth_pair(cfg)
        for m in pair.coarse_biased:
            assert m.time0 == pair.coarse_truth.time0
            assert m.dt_hours == pair.coarse_truth.dt_hours
            assert m.data.shape == pair.coarse_truth.data.shape

    def test_ensemble_trend_preserved(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=6 * DAYS_PER_YEAR, n_members=3,
                          seasonal_amp=0.4, diurnal_amp=0.1, noise_amp=0.3,
                          trend_per_year=0.05, rng_seed=41,
                          bias=BiasSpec(mean_offset=0.5), **NORM_UNITS)
        fine = gen_fine_ensemble(cfg)
        members = gen_biased_coarse_ensemble(cfg, fine)
        slopes = []
        for m in members:
            series = m.data[..., 0].mean(axis=(1, 2))
            years = m.time_coords / (HOURS_PER_DAY * DAYS_PER_YEAR)
            slopes.append(np.polyfit(years, series, 1)[0])
        assert abs(np.mean(slopes) - 0.05) < 0.005


class TestValidation:
    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(seasonal_amp=-1.0)

    def test_bad_var_scale_rejected(self):
        with pytest.raises(ValueError):
            BiasSpec(var_scale=0.0)

    def test_indivisible_grid_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(nx=10, ny=16, spatial_factor=4)

    @pytest.mark.parametrize("name, value", [
        ("nx", 0), ("nx", -4), ("ny", 0), ("n_days", 0),
        ("n_members", 0), ("spatial_factor", 0)])
    def test_size_below_one_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, not {value}$"):
            SynthConfig(**{name: value})


class TestInPlaceAssembly:
    """Each field is assembled in place, chunk by chunk, on its variable-major
    noise; it must equal the out-of-place expressions of the same formula,
    operation for operation, on noise drawn in one chunk."""

    @staticmethod
    def reference(cfg, stream, bias):
        """[T, NX, NY, V]: bases + scales * (structured + mean_offset) + mix @ noise,
        clipped at zero for wind and humidity."""
        rng = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, *stream)))
        scales = np.asarray(cfg.var_scales)
        mix = (np.diag(scales * cfg.noise_amp * np.sqrt(bias.var_scale))
               @ synthdata._member_corr_chol(bias.corr_shrink))
        noise = noise_field(rng, cfg.n_steps, cfg.nx, cfg.ny,
                            cfg.spectral_slope + bias.spectral_tilt, mix, cfg.noise_ar1,
                            chunk_steps=cfg.n_steps)
        structured = synthdata._structured_signal(cfg, season_phase_days=bias.season_phase_days)
        level = np.asarray(cfg.var_bases) + scales * (structured + bias.mean_offset)
        data = np.ascontiguousarray(noise + level[:, None, None, :])   # as a stored field
        data[..., 1:3] = np.maximum(data[..., 1:3], 0.0)
        return data

    def test_assemble_matches_expression_bitwise(self):
        cfg = SynthConfig(nx=8, ny=4, n_days=3, noise_amp=2.0, var_bases=(288.0, 0.5, 0.5, 0.0),
                          var_scales=(3.0, 1.0, 1.0, 300.0))
        bias = BiasSpec(mean_offset=0.8, var_scale=1.3, corr_shrink=0.4, season_phase_days=4)
        expect = self.reference(cfg, (synthdata._MEMBER_STREAM, 0), bias)
        got = np.concatenate([chunk for _, chunk in synthdata._field_chunks(
            cfg, (synthdata._MEMBER_STREAM, 0), bias)])
        assert (expect[..., 1:3] == 0.0).any()   # the clip fires
        assert got.tobytes() == expect.tobytes()

    def test_synthetic_pair_matches_expressions_bitwise(self):
        # several chunks at AR 0.6: a carry aliased to the chunk changed in place fails
        cfg = SynthConfig(nx=8, ny=8, n_days=45, n_members=2, noise_amp=0.8, noise_ar1=0.6,
                          rng_seed=7, bias=BiasSpec(mean_offset=0.8, var_scale=1.3,
                                                    corr_shrink=0.4, season_phase_days=4))
        assert cfg.n_days > 2 * synthdata.CHUNK_DAYS
        fine = gen_fine_ensemble(cfg)
        expect = self.reference(cfg, (synthdata._FINE_STREAM,), BiasSpec())
        assert fine.data.tobytes() == expect.tobytes()
        for idx, member in enumerate(gen_biased_coarse_ensemble(cfg, fine)):
            data = self.reference(cfg, (synthdata._MEMBER_STREAM, idx), cfg.bias)
            expect = coarsen(fine.with_data(data), cfg.downsample).data
            assert member.data.tobytes() == expect.tobytes()


class TestMemory:
    def test_pair_peak_within_160_percent_of_truth(self):
        # members are coarsened chunk by chunk: no second fine-sized field is held
        cfg = _synth_config(parse_config(DEMO))
        tracemalloc.start()
        try:
            pair = make_synth_pair(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * pair.fine_truth.data.nbytes


class TestNoiseChunks:
    @pytest.mark.parametrize("ar1", [0.0, 0.6, 0.9])
    @pytest.mark.parametrize("nx, ny", [(8, 4), (5, 7)], ids=["8x4", "5x7"])
    def test_noise_independent_of_chunk_size_bitwise(self, nx, ny, ar1):
        # the generator fills its stream in order, so chunking the draw changes nothing
        chol = np.linalg.cholesky(VAR_CORR)
        n_steps = 300
        outs = {chunk: noise_field(np.random.default_rng(5), n_steps, nx, ny, 2.0, chol, ar1,
                                   chunk_steps=chunk).tobytes()
                for chunk in (1, 7, 256, 2048, n_steps + 1)}
        assert len(set(outs.values())) == 1


def noise_field(rng, n_steps, nx, ny, slope, mix, ar1, chunk_steps):
    """`_noise_chunks` joined into one [T, nx, ny, V] array."""
    chunks = list(synthdata._noise_chunks(rng, n_steps, nx, ny, slope, mix, ar1, chunk_steps))
    assert [lo for lo, _ in chunks] == list(range(0, n_steps, chunk_steps))
    noise = np.concatenate([chunk for _, chunk in chunks])
    return noise.reshape(n_steps, len(mix), nx, ny).transpose(0, 2, 3, 1)


def fft_noise(rng, n_steps, nx, ny, slope, corr_chol, ar1, chunk_steps):
    """`noise_field` with each chunk filtered by pocketfft."""
    h = synthdata._spectral_filter(nx, ny, slope)
    out = np.empty((n_steps, nx, ny, len(corr_chol)))
    for lo in range(0, n_steps, chunk_steps):
        hi = min(lo + chunk_steps, n_steps)
        white = rng.standard_normal((hi - lo, len(corr_chol), nx, ny))
        filtered = np.fft.irfft2(np.fft.rfft2(white) * h, s=(nx, ny))
        out[lo:hi] = np.einsum("vw,twxy->txyv", corr_chol, filtered)
    for t in range(1, n_steps):
        out[t] = ar1 * out[t - 1] + np.sqrt(1.0 - ar1 ** 2) * out[t]
    return out


class TestMatrixFilter:
    @pytest.mark.parametrize("ar1", [0.0, 0.6])
    @pytest.mark.parametrize("slope", [2.0, 2.0 + 0.7])
    @pytest.mark.parametrize("nx, ny", [(8, 8), (64, 64), (5, 7), (1, 4), (4, 1)],
                             ids=["8x8", "64x64", "5x7", "1x4", "4x1"])
    def test_matches_pocketfft_map(self, nx, ny, slope, ar1):
        chol = np.linalg.cholesky(VAR_CORR)
        args = (40, nx, ny, slope, chol)
        got = noise_field(np.random.default_rng(3), *args, ar1, chunk_steps=16)
        expect = fft_noise(np.random.default_rng(3), *args, ar1=ar1, chunk_steps=16)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("nx, ny", [(2, 2), (5, 7), (8, 4), (7, 5)])
    def test_filter_wavenumbers_match_fftfreq(self, nx, ny):
        kx = np.fft.fftfreq(nx) * nx
        ky = np.fft.rfftfreq(ny) * ny
        k = np.sqrt(kx[:, None] ** 2 + ky[None, :] ** 2)
        with np.errstate(divide="ignore"):
            h = np.where(k > 0, k ** -1.0, 0.0)
        got = synthdata._spectral_filter(nx, ny, 2.0)
        np.testing.assert_allclose(got / np.abs(got).max(), h / np.abs(h).max(), rtol=1e-14)

    def test_cached_operators_refuse_writes(self):
        ops = synthdata._filter_operators(8, 8, 2.0)
        assert synthdata._filter_operators(8, 8, 2.0) is ops
        for op in ops:
            with pytest.raises(ValueError):
                op[0] = 0.0
