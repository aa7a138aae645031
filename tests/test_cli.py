from pathlib import Path

import numpy as np
import pytest

from downgen.cli import _synth_config, main
from downgen.config import ConfigError, apply_overrides, default_config, parse_config
from downgen.grid import read_array
from downgen.report import read_metrics_csv

# toy pipeline configuration: small grids, one training year, few training steps
TINY = """
[pipeline]
rng_seed = 11

[synth]
nx = 8
ny = 8
n_days = 372
train_days = 360
n_members = 2
noise_amp = 0.6
bias_mean_offset = 0.6
bias_corr_shrink = 0.4

[debias]
steps = 40
warmup_steps = 10
levels = 8,16
transport_steps = 8

[sr]
steps = 40
warmup_steps = 10
levels = 8,16
doy_buckets = 20
n_grid = 24

[sample]
length_days = 5
windows = 2
start_day = 2

[evaluate]
plots = true
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


class TestConfig:
    def test_defaults_complete(self):
        cfg = default_config()
        assert cfg["sr"]["sigma_max"] == 80.0
        assert cfg["sample"]["guidance"] == 1.0

    def test_parse_and_types(self, tiny_config):
        cfg = parse_config(tiny_config)
        assert cfg["synth"]["nx"] == 8
        assert cfg["debias"]["levels"] == (8, 16)
        assert cfg["evaluate"]["plots"] is True

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[synth]\nspectral_sloop = 2\n")
        with pytest.raises(ConfigError, match="spectral_sloop"):
            parse_config(bad)

    def test_unknown_section_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(bad)

    def test_overrides(self):
        cfg = apply_overrides(default_config(), ["sample.guidance=2.5"])
        assert cfg["sample"]["guidance"] == 2.5

    def test_bad_override_shape(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            apply_overrides(default_config(), ["guidance=2.5"])

    def test_demo_synth_config_forwards_noise_ar1(self):
        demo = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
        assert _synth_config(parse_config(demo)).noise_ar1 == 0.6


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[synth]\nbogus = 1\n")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2

    def test_missing_inputs_exit_1(self, tmp_path):
        assert main(["train-debias", "--out", str(tmp_path / "r")]) == 1

    def test_gen_data_ok(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "data" / "fine_truth.npy").exists()
        assert (out / "config.ini").exists()
        assert (out / "manifest.json").exists()

    def test_write_once(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 1

    def test_config_mismatch_detected(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        code = main(["train-debias", "--config", str(tiny_config), "--out", str(out),
                     "--set", "synth.nx=16"])
        assert code == 1


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    config = root / "cfg.ini"
    config.write_text(TINY)
    out = root / "run"
    code = main(["e2e", "--config", str(config), "--out", str(out)])
    assert code == 0
    return out


class TestEndToEnd:
    def test_all_stage_outputs_present(self, e2e_run):
        for rel in ("data/fine_truth.npy", "models/debias/manifest.json",
                    "models/sr/manifest.json", "debiased/m000.npy",
                    "baselines/qm/m000.npy", "baselines/bcsd/bcsd.npy",
                    "samples/downgen.npy", "samples/qmsr.npy", "samples/sr.npy",
                    "metrics/metrics.csv", "metrics/comparison.csv"):
            assert (e2e_run / rel).exists(), rel

    def test_metrics_cover_all_methods(self, e2e_run):
        rows = read_metrics_csv(e2e_run / "metrics" / "metrics.csv")
        methods = {r["method"] for r in rows}
        assert methods == {"downgen", "bcsd", "qmsr", "sr"}
        metrics = {r["metric"] for r in rows}
        assert {"mab", "wd", "mae_p99", "psd_log_error",
                "heat_streak_sq_error"} <= metrics
        variables = {r["variable"] for r in rows}
        assert {"temperature", "wind_speed", "humidity", "pressure",
                "rel_humidity", "heat_index"} <= variables

    def test_comparison_csv_column_structure(self, e2e_run):
        header = (e2e_run / "metrics" / "comparison.csv").read_text().splitlines()[0]
        assert header == "metric,variable,downgen,bcsd,qmsr,sr"

    def test_sample_shapes_match_window(self, e2e_run):
        fld = read_array(e2e_run / "samples" / "downgen.npy")
        assert fld.data.shape == (5 * 12, 8, 8, 4)
        bcsd = read_array(e2e_run / "baselines" / "bcsd" / "bcsd.npy")
        assert bcsd.data.shape == fld.data.shape

    def test_svg_plots_emitted(self, e2e_run):
        svgs = list((e2e_run / "metrics").glob("*.svg"))
        assert len(svgs) >= 2
        text = svgs[0].read_text()
        assert text.startswith("<svg")

    def test_loss_logs_written(self, e2e_run):
        for model in ("debias", "sr"):
            lines = (e2e_run / "models" / model / "loss.csv").read_text().splitlines()
            assert lines[0] == "step,loss,lr"
            assert len(lines) == 41  # 40 steps


class TestDeterminism:
    def test_e2e_repeated_run_bit_identical_metrics(self, e2e_run, tmp_path):
        config = tmp_path / "cfg.ini"
        config.write_text(TINY)
        out = tmp_path / "run2"
        assert main(["e2e", "--config", str(config), "--out", str(out)]) == 0
        a = (e2e_run / "metrics" / "metrics.csv").read_bytes()
        b = (out / "metrics" / "metrics.csv").read_bytes()
        assert a == b
        a = (e2e_run / "metrics" / "comparison.csv").read_bytes()
        b = (out / "metrics" / "comparison.csv").read_bytes()
        assert a == b
