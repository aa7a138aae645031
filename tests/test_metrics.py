import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downgen.metrics import (
    HEAT_ADVISORY_LEVELS,
    heat_advisory_exceedance,
    heat_index,
    heat_streak_prob,
    mab,
    percentile_mae,
    relative_humidity,
    saturation_vapor_pressure,
    spatial_corr_error,
    correlation_matrix,
    temporal_psd,
    temporal_psd_error,
    wasserstein1,
)
from test_bench_targets import TARGETS as BENCH_TARGETS


def noaa_regression_oracle(tf, rh):
    """Independently coded NOAA heat index (Fahrenheit in/out): the simple
    formula, or the regression where the simple formula's mean with tf is 80+."""
    simple = 0.5 * (tf + 61.0 + (tf - 68.0) * 1.2 + 0.094 * rh)
    if (simple + tf) / 2 < 80:
        return simple
    hi = (-42.379 + 2.04901523 * tf + 10.14333127 * rh - 0.22475541 * tf * rh
          - 0.00683787 * tf * tf - 0.05481717 * rh * rh + 0.00122874 * tf * tf * rh
          + 0.00085282 * tf * rh * rh - 0.00000199 * tf * tf * rh * rh)
    if rh < 13 and 80 < tf < 112:
        hi -= (13 - rh) / 4 * ((17 - abs(tf - 95)) / 17) ** 0.5
    elif rh > 85 and 80 < tf < 87:
        hi += (rh - 85) * (87 - tf) / 50
    return hi


class TestRelativeHumidity:
    def test_saturation_pressure_at_freezing(self):
        assert saturation_vapor_pressure(273.15) == pytest.approx(6.112, abs=1e-12)

    def test_zero_humidity(self):
        assert relative_humidity(0.0, 290.0, 101325.0) == 0.0

    def test_saturated_q_gives_100_percent(self):
        # q chosen analytically so e == e_s at T=293.15 K, P=1013.25 hPa
        q = 0.014471898286141411
        rh = relative_humidity(q, 293.15, 101325.0)
        assert abs(rh - 100.0) < 1e-9

    def test_clip_for_reporting(self):
        q = 0.02
        raw = relative_humidity(q, 293.15, 101325.0)
        assert raw > 100.0
        assert relative_humidity(q, 293.15, 101325.0, clip=True) == 100.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            relative_humidity(-0.1, 290.0, 101325.0)
        with pytest.raises(ValueError):
            relative_humidity(0.01, 20.0, 101325.0)


class TestHeatIndex:
    def test_simple_branch_value(self):
        t_k = (70.0 - 32.0) / 1.8 + 273.15
        hi = heat_index(t_k, 50.0)
        assert hi == pytest.approx(293.7333333333333, abs=1e-9)  # 69.05 F

    def test_matches_independent_oracle_on_grid(self):
        # grid points sit off the formula's branch boundaries (T=80/87 F,
        # RH=85%), where the published adjustments jump and the K<->F round
        # trip makes strict comparisons rounding-sensitive
        tf_grid = np.arange(80.5, 110.1, 1.5)
        rh_grid = np.arange(40.0, 100.1, 4.0)
        worst = 0.0
        for tf in tf_grid:
            for rh in rh_grid:
                t_k = (tf - 32.0) / 1.8 + 273.15
                got_f = (heat_index(t_k, rh) - 273.15) * 1.8 + 32.0
                worst = max(worst, abs(got_f - noaa_regression_oracle(tf, rh)))
        assert worst < 1.5

    def test_simple_branch_selected_when_regression_below_80(self):
        t_k = (75.0 - 32.0) / 1.8 + 273.15
        got_f = (heat_index(t_k, 50.0) - 273.15) * 1.8 + 32.0
        assert got_f == pytest.approx(noaa_regression_oracle(75.0, 50.0), abs=1e-9)
        assert got_f < 80.0

    def test_simple_formula_where_regression_out_of_range(self):
        # 59 F at 63%: the regression reads 82.4 F, but the simple formula's
        # mean with the temperature is 58.3 F, below the regression's range
        t_k = (59.0 - 32.0) / 1.8 + 273.15
        got_f = (heat_index(t_k, 63.0) - 273.15) * 1.8 + 32.0
        assert got_f == pytest.approx(0.5 * (59.0 + 61.0 + (59.0 - 68.0) * 1.2 + 0.094 * 63.0),
                                      abs=1e-9)
        assert got_f == pytest.approx(noaa_regression_oracle(59.0, 63.0), abs=1e-9)

    def test_monotone_in_temperature_at_fixed_rh(self):
        tf = np.arange(80.0, 110.1, 1.0)
        t_k = (tf - 32.0) / 1.8 + 273.15
        for rh in (40.0, 60.0, 80.0, 100.0):
            hi = heat_index(t_k, np.full_like(t_k, rh))
            assert (np.diff(hi) > 0).all()

    def test_advisory_levels(self):
        assert HEAT_ADVISORY_LEVELS["danger"] == 312.6
        hi = np.array([299.0, 301.0, 306.0, 313.0, 326.0])
        assert heat_advisory_exceedance(hi, "caution") == pytest.approx(4 / 5)
        assert heat_advisory_exceedance(hi, "danger") == pytest.approx(2 / 5)

    def test_rh_domain(self):
        with pytest.raises(ValueError):
            heat_index(300.0, 150.0)


class TestMab:
    def test_identical_sets(self):
        x = np.random.default_rng(0).standard_normal((20, 4, 4))
        assert mab(x, x.copy()) == 0.0

    def test_constant_shift(self):
        x = np.random.default_rng(1).standard_normal((50, 3, 3))
        assert mab(x + 2.0, x) == pytest.approx(2.0, abs=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((30, 2, 5))
        b = rng.standard_normal((40, 2, 5))
        oracle = np.abs(a.reshape(30, -1).mean(0) - b.reshape(40, -1).mean(0)).mean()
        assert mab(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mab(np.zeros((0, 2)), np.zeros((3, 2)))


class TestWasserstein:
    def test_identical_samples(self):
        x = np.random.default_rng(3).standard_normal((100, 3))
        assert wasserstein1(x, x.copy()) == 0.0

    def test_point_masses(self):
        assert wasserstein1(np.zeros(5), np.ones(5)) == pytest.approx(1.0, abs=1e-12)

    def test_sorted_quantile_oracle_equal_sizes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(200)
        b = 0.5 + 1.3 * rng.standard_normal(200)
        oracle = np.abs(np.sort(a) - np.sort(b)).mean()
        assert abs(wasserstein1(a, b) - oracle) < 1e-9

    def test_unequal_sizes_against_scipy_style_oracle(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(64)
        b = rng.standard_normal(37) + 0.3
        # quantile-function integral oracle on a fine probability grid
        ps = (np.arange(100000) + 0.5) / 100000
        qa = np.quantile(a, ps, method="inverted_cdf")
        qb = np.quantile(b, ps, method="inverted_cdf")
        oracle = np.abs(qa - qb).mean()
        assert abs(wasserstein1(a, b) - oracle) < 1e-3

    @given(st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_translation_covariance(self, c):
        rng = np.random.default_rng(6)
        a = rng.standard_normal(50)
        b = rng.standard_normal(60)
        assert abs(wasserstein1(a + c, b + c) - wasserstein1(a, b)) < 1e-12

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c = (rng.standard_normal(40) for _ in range(3))
            dab = wasserstein1(a, b)
            dba = wasserstein1(b, a)
            assert dab >= 0
            assert abs(dab - dba) < 1e-12
            assert dab <= wasserstein1(a, c) + wasserstein1(c, b) + 1e-12


def _w1_per_pixel(pred, ref):
    """wasserstein1 as one 1-D CDF integral per pixel, in a Python loop."""
    def single(a, b):
        grid = np.sort(np.concatenate([a, b]))
        cdf_a = np.searchsorted(np.sort(a), grid[:-1], side="right") / a.size
        cdf_b = np.searchsorted(np.sort(b), grid[:-1], side="right") / b.size
        return float(np.sum(np.abs(cdf_a - cdf_b) * np.diff(grid)))

    p, r = pred.reshape(len(pred), -1), ref.reshape(len(ref), -1)
    return float(np.mean([single(p[:, d], r[:, d]) for d in range(p.shape[1])]))


def _corr_per_neighbor(series_map, center, box):
    """correlation_matrix as one 1-D Pearson correlation per neighbor, in a loop."""
    ci, cj = center
    c = series_map[:, ci, cj]
    c_anom = c - c.mean()
    c_norm = np.sqrt((c_anom ** 2).sum())
    out = np.full((2 * box + 1, 2 * box + 1), np.nan)
    for di in range(-box, box + 1):
        for dj in range(-box, box + 1):
            n = series_map[:, ci + di, cj + dj]
            n_anom = n - n.mean()
            n_norm = np.sqrt((n_anom ** 2).sum())
            if c_norm != 0.0 and n_norm != 0.0:
                out[box + di, box + dj] = float((c_anom * n_anom).sum() / (c_norm * n_norm))
    out[box, box] = 1.0
    return out


class TestMatchesPerPixelLoop:
    """The array forms of wasserstein1 and correlation_matrix add in the order of
    the per-pixel loops they replace, so they match them bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal(self, dtype):
        rng = np.random.default_rng(40)
        # rounded to one decimal: ties within and across the two sample sets
        pred = np.round(rng.normal(size=(173, 5, 4)), 1).astype(dtype)
        ref = np.round(0.3 + 1.2 * rng.normal(size=(96, 5, 4)), 1).astype(dtype)
        assert wasserstein1(pred, ref) == _w1_per_pixel(pred, ref)
        assert wasserstein1(ref, pred) == _w1_per_pixel(ref, pred)
        series = (rng.normal(size=(300, 7, 6)) * 1e3 + 5e4).astype(dtype)
        series[:, 2, 3] = 7.0   # a zero-variance neighbor
        for box in (1, 2):
            want = _corr_per_neighbor(series, (3, 3), box)
            assert correlation_matrix(series, (3, 3), box).tobytes() == want.tobytes()


class TestPercentile:
    def test_identical(self):
        x = np.random.default_rng(8).standard_normal((50, 4))
        assert percentile_mae(x, x.copy(), 99.0) == 0.0

    @pytest.mark.parametrize("p", [5.0, 50.0, 99.0])
    def test_shift_by_constant(self, p):
        x = np.random.default_rng(9).standard_normal((200, 3))
        assert percentile_mae(x + 1.5, x, p) == pytest.approx(1.5, abs=1e-12)

    def test_direct_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((77, 2))
        b = rng.standard_normal((88, 2))
        oracle = np.abs(np.percentile(a, 90.0, axis=0)
                        - np.percentile(b, 90.0, axis=0)).mean()
        assert percentile_mae(a, b, 90.0) == pytest.approx(oracle, abs=1e-12)

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            percentile_mae(np.zeros((3, 1)), np.zeros((3, 1)), 0.0)


class TestSpatialCorr:
    def test_identical_maps_zero_error(self):
        x = np.random.default_rng(11).standard_normal((30, 7, 7))
        assert spatial_corr_error(x, x.copy(), (3, 3), 2) == 0.0

    def test_center_entry_exactly_one(self):
        x = np.random.default_rng(12).standard_normal((25, 5, 5))
        mat = correlation_matrix(x, (2, 2), 1)
        assert mat[1, 1] == 1.0
        assert np.nanmax(np.abs(mat)) <= 1.0 + 1e-12

    def test_hand_computed_three_by_three(self):
        t = 6
        x = np.zeros((t, 3, 3))
        base = np.array([1.0, 2.0, 0.5, -1.0, 0.25, 3.0])
        for i in range(3):
            for j in range(3):
                x[:, i, j] = (i + 1) * base + j * np.arange(t)
        mat = correlation_matrix(x, (1, 1), 1)

        def pearson(a, b):
            a = a - a.mean()
            b = b - b.mean()
            return (a * b).sum() / np.sqrt((a ** 2).sum() * (b ** 2).sum())

        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                expect = pearson(x[:, 1, 1], x[:, 1 + di, 1 + dj])
                assert mat[1 + di, 1 + dj] == pytest.approx(expect, abs=1e-12)

    def test_zero_variance_excluded_with_warning(self):
        x = np.random.default_rng(13).standard_normal((20, 3, 3))
        y = x.copy()
        y[:, 0, 0] = 5.0  # constant neighbor in the reference map
        with pytest.warns(UserWarning, match="zero-variance"):
            err = spatial_corr_error(x, y, (1, 1), 1)
        assert np.isfinite(err)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            correlation_matrix(np.zeros((2, 3, 3)), (1, 1), 1)


class TestTemporalPsd:
    def test_identical_zero_error(self):
        x = np.random.default_rng(14).standard_normal((4, 128))
        assert temporal_psd_error(x, x.copy(), 128.0) == 0.0

    def test_sinusoid_peak_bin(self):
        t = 128
        k0 = 7
        x = np.sin(2 * np.pi * k0 * np.arange(t) / t)
        spec = temporal_psd(x, float(t))
        # DFT oracle: all energy in bin k0 (index k0-1 after dropping DC)
        assert spec.argmax() == k0 - 1
        others = np.delete(spec, k0 - 1)
        assert others.max() < 1e-20 * spec.max() + 1e-12

    def test_white_noise_ensembles_small_error(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((1000, 64))
        b = rng.standard_normal((1000, 64))
        assert temporal_psd_error(a, b, 64.0) < 0.2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            temporal_psd_error(np.zeros((2, 10)), np.zeros((2, 12)), 10.0)


class TestHeatStreak:
    def test_all_below_threshold(self):
        assert heat_streak_prob(np.zeros(10), 0.0, 3, 1.0) == 0.0

    def test_single_run_of_exactly_h(self):
        tmax = np.zeros(10)
        tmax[4:7] = 5.0
        assert heat_streak_prob(tmax, 0.0, 3, 1.0) == pytest.approx(3 / 10)

    def test_overlapping_runs_unique_days(self):
        tmax = np.zeros(10)
        tmax[1:5] = 5.0  # days 1-4 above: windows (1,2,3) and (2,3,4)
        assert heat_streak_prob(tmax, 0.0, 3, 1.0) == pytest.approx(4 / 10)

    def test_h_one_is_exceedance_frequency(self):
        rng = np.random.default_rng(16)
        tmax = rng.standard_normal(500)
        p = heat_streak_prob(tmax, 0.0, 1, 0.5)
        assert p == pytest.approx((tmax > 0.5).mean())

    @given(st.integers(1, 5), st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_enumeration(self, h, bits):
        exceed = np.array([(bits >> k) & 1 for k in range(20)], dtype=bool)
        tmax = np.where(exceed, 2.0, -2.0)

        def brute(exceed):
            days = set()
            for i in range(20 - h + 1):
                if exceed[i: i + h].all():
                    days.update(range(i, i + h))
            return len(days) / 20

        assert heat_streak_prob(tmax, 0.0, h, 0.0) == pytest.approx(brute(exceed))
        # stacked [N, k]: the series beside its complement, one probability per column
        got = heat_streak_prob(np.stack([tmax, -tmax], axis=1), 0.0, h, 0.0)
        assert got.shape == (2,)
        assert got == pytest.approx([brute(exceed), brute(~exceed)])

    def test_series_shorter_than_h(self):
        assert heat_streak_prob(np.full(2, 9.9), 0.0, 3, 0.0) == 0.0


SRC = Path(__file__).resolve().parent.parent / "src" / "downgen"


def _named(node):
    """How often each identifier is named, as a variable or an attribute, under `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


class TestEveryFunctionReachable:
    """Every public function, class and method of the package is reached by a
    pipeline run: `src` names it outside its own definition, or the benchmark's
    tracer wraps it."""

    TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    NAMED = sum((_named(tree) for tree in TREES.values()), Counter())
    WRAPPED = {attr for _, _, attr in BENCH_TARGETS}

    @pytest.mark.parametrize("module", sorted(TREES))
    def test_named_by_cli_or_by_another_function_of_the_module(self, module):
        tree = self.TREES[module]
        defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        defs += [m for c in tree.body if isinstance(c, ast.ClassDef)
                 for m in c.body if isinstance(m, ast.FunctionDef)]
        unreached = [
            d.name for d in defs
            if not d.name.startswith("_") and d.name not in self.WRAPPED
            and self.NAMED[d.name] == _named(d)[d.name]
        ]
        assert unreached == [], f"{module}.py definitions no run reaches: {unreached}"


def _names_key_error(handler):
    """Whether an `except` clause catches KeyError by name, alone or in a tuple."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(n, ast.Name) and n.id == "KeyError" for n in caught)


class TestDecodeErrorsTranslatedOnce:
    """`grid.decoding` is the one place a decode error becomes a message naming its
    document; no `except` clause in `src` names KeyError."""

    @pytest.mark.parametrize("module", sorted(TestEveryFunctionReachable.TREES))
    def test_no_except_clause_names_key_error(self, module):
        tree = TestEveryFunctionReachable.TREES[module]
        lines = [h.lineno for h in ast.walk(tree)
                 if isinstance(h, ast.ExceptHandler) and h.type and _names_key_error(h)]
        assert lines == [], f"{module}.py catches KeyError at lines {lines}"
