"""Pipeline orchestration: subcommand dispatch over write-once run directories.

Stages communicate exclusively through files under the run directory:

    data/       synthetic truth and biased members (gen-data)
    models/     trained checkpoints (train-debias, train-sr)
    debiased/   flow-transported members (debias)
    baselines/  quantile-mapped members and BCSD output (baseline-qm, baseline-bcsd)
    samples/    super-resolved windows per input source (sample)
    metrics/    metric CSVs, arrays and optional SVG plots (evaluate)

Exit codes: 0 ok, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .baselines import bcsd_pipeline, daily_means, qm_debias
from .config import ConfigError, apply_overrides, parse_config, default_config, write_resolved
from .diffusion import NoiseSchedule, SRTrainConfig, load_sr, train_sr
from .grid import (
    DownsampleSpec,
    GridField,
    compute_climatology,
    read_array,
    write_array,
)
from .metrics import (
    heat_index,
    heat_streak_prob,
    mab,
    percentile_mae,
    relative_humidity,
    temporal_psd_error,
    wasserstein1,
)
from .multidiffusion import partition, sample_long
from .cyclones import detect_cyclones
from .nets import DivergenceError
from .plots import curves_svg, heatmap_svg
from .reflow import CouplingConfig, ReflowTrainConfig, load_reflow, train_reflow, transport
from .report import MetricReport
from .synthdata import BiasSpec, SynthConfig, make_synth_pair

METHOD_ORDER = ["downgen", "bcsd", "qmsr", "sr"]
_SOURCE_TAGS = {"debiased": "downgen", "qm": "qmsr", "raw": "sr"}
_SOURCE_SEEDS = {"debiased": 0, "qm": 1, "raw": 2}
_BCSD_STREAM = 5


class StageError(Exception):
    """Stage precondition failure (missing inputs, existing outputs); exit 1."""


def _synth_config(cfg):
    s = cfg["synth"]
    return SynthConfig(
        nx=s["nx"], ny=s["ny"], n_days=s["n_days"], n_members=s["n_members"],
        spatial_factor=s["spatial_factor"], spectral_slope=s["spectral_slope"],
        seasonal_amp=s["seasonal_amp"], diurnal_amp=s["diurnal_amp"],
        trend_per_year=s["trend_per_year"], noise_amp=s["noise_amp"],
        noise_ar1=s["noise_ar1"],
        rng_seed=cfg["pipeline"]["rng_seed"],
        bias=BiasSpec(mean_offset=s["bias_mean_offset"], var_scale=s["bias_var_scale"],
                      spectral_tilt=s["bias_spectral_tilt"],
                      season_phase_days=s["bias_season_phase_days"],
                      corr_shrink=s["bias_corr_shrink"]),
    )


def _train_hours(cfg):
    return cfg["synth"]["train_days"] * 24


def _fresh_dir(path):
    path = Path(path)
    if path.exists():
        raise StageError(f"output {path} already exists (write-once run directory)")
    path.mkdir(parents=True)
    return path


def _require(path, hint):
    path = Path(path)
    if not path.exists():
        raise StageError(f"missing {path}; run `{hint}` first")
    return path


def _persist_config(cfg, run_dir):
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    target = run_dir / "config.ini"
    if target.exists():
        tmp = run_dir / "config.resolved.tmp"
        write_resolved(cfg, tmp)
        fresh = tmp.read_text(encoding="utf-8")
        tmp.unlink()
        if fresh != target.read_text(encoding="utf-8"):
            raise StageError("run directory was created with a different configuration")
    else:
        write_resolved(cfg, target)


def _update_manifest(run_dir, stage, outputs):
    path = Path(run_dir) / "manifest.json"
    manifest = {"stages": {}}
    if path.exists():
        manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["stages"][stage] = sorted(str(o) for o in outputs)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def _members(run_dir):
    member_dir = _require(Path(run_dir) / "data" / "members", "gen-data")
    return [read_array(p) for p in sorted(member_dir.glob("*.npy"))]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_gen_data(cfg, run_dir):
    out = _fresh_dir(Path(run_dir) / "data")
    pair = make_synth_pair(_synth_config(cfg))
    write_array(pair.fine_truth, out / "fine_truth.npy")
    write_array(pair.coarse_truth, out / "coarse_truth.npy")
    member_dir = out / "members"
    member_dir.mkdir()
    for m in pair.coarse_biased:
        write_array(m, member_dir / f"{m.member_id}.npy")
    _update_manifest(run_dir, "gen-data", [out])
    return 0


def stage_train_debias(cfg, run_dir):
    run_dir = Path(run_dir)
    target = read_array(_require(run_dir / "data" / "coarse_truth.npy", "gen-data"))
    members = _members(run_dir)
    t_hours = _train_hours(cfg)
    d = cfg["debias"]
    tcfg = ReflowTrainConfig(
        steps=d["steps"], chunks_per_batch=d["chunks_per_batch"],
        coupling=CouplingConfig(chunk_len_days=d["chunk_len_days"],
                                season_window_days=d["season_window_days"]),
        peak_lr=d["peak_lr"], end_lr=d["end_lr"], warmup_steps=d["warmup_steps"],
        clip_norm=d["clip_norm"], levels=d["levels"],
        seed=cfg["pipeline"]["rng_seed"])
    out = _fresh_dir(run_dir / "models" / "debias")
    train_reflow([m.time_slice(0, t_hours) for m in members],
                 target.time_slice(0, t_hours), tcfg, out_dir=out)
    _update_manifest(run_dir, "train-debias", [out])
    return 0


def stage_train_sr(cfg, run_dir):
    run_dir = Path(run_dir)
    truth = read_array(_require(run_dir / "data" / "fine_truth.npy", "gen-data"))
    s = cfg["sr"]
    tcfg = SRTrainConfig(
        steps=s["steps"], batch=s["batch"], window_days=s["window_days"],
        spatial_factor=cfg["synth"]["spatial_factor"], p_uncond=s["p_uncond"],
        peak_lr=s["peak_lr"], end_lr=s["end_lr"], warmup_steps=s["warmup_steps"],
        clip_norm=s["clip_norm"], levels=s["levels"], doy_buckets=s["doy_buckets"],
        noise=NoiseSchedule(sigma_min=s["sigma_min"], sigma_max=s["sigma_max"],
                            n_grid=s["n_grid"], kind=s["schedule_kind"]),
        seed=cfg["pipeline"]["rng_seed"])
    out = _fresh_dir(run_dir / "models" / "sr")
    train_sr(truth.time_slice(0, _train_hours(cfg)), tcfg, out_dir=out)
    _update_manifest(run_dir, "train-sr", [out])
    return 0


def stage_debias(cfg, run_dir):
    run_dir = Path(run_dir)
    model = load_reflow(_require(run_dir / "models" / "debias", "train-debias"))
    members = _members(run_dir)
    out = _fresh_dir(run_dir / "debiased")
    for m in members:
        result = transport(model, m, m.member_id,
                           n_steps=cfg["debias"]["transport_steps"])
        write_array(result, out / f"{m.member_id}.npy")
    _update_manifest(run_dir, "debias", [out])
    return 0


def stage_baseline_qm(cfg, run_dir):
    run_dir = Path(run_dir)
    target = read_array(_require(run_dir / "data" / "coarse_truth.npy", "gen-data"))
    members = _members(run_dir)
    t_hours = _train_hours(cfg)
    buckets = (cfg["baseline"]["qm_doy_buckets"], 1)
    target_clim = compute_climatology(target.time_slice(0, t_hours), buckets)
    out = _fresh_dir(run_dir / "baselines" / "qm")
    for m in members:
        member_clim = compute_climatology(m.time_slice(0, t_hours), buckets)
        write_array(qm_debias(m, member_clim, target_clim), out / f"{m.member_id}.npy")
    _update_manifest(run_dir, "baseline-qm", [out])
    return 0


def _sample_window_hours(cfg):
    start_day = cfg["synth"]["train_days"] + cfg["sample"]["start_day"]
    length = cfg["sample"]["length_days"]
    if start_day + length > cfg["synth"]["n_days"]:
        raise StageError("sample window extends past the generated series")
    return start_day * 24, (start_day + length) * 24


def stage_baseline_bcsd(cfg, run_dir):
    run_dir = Path(run_dir)
    truth = read_array(_require(run_dir / "data" / "fine_truth.npy", "gen-data"))
    target = read_array(run_dir / "data" / "coarse_truth.npy")
    members = {m.member_id: m for m in _members(run_dir)}
    member_id = cfg["sample"]["member"]
    if member_id not in members:
        raise StageError(f"unknown member {member_id!r}")
    t_hours = _train_hours(cfg)
    spec = DownsampleSpec(cfg["synth"]["spatial_factor"], 24 // truth.dt_hours)
    qm_buckets = (cfg["baseline"]["qm_doy_buckets"], 1)
    fine_buckets = (cfg["baseline"]["fine_clim_doy_buckets"], 1)
    member_clim = compute_climatology(members[member_id].time_slice(0, t_hours), qm_buckets)
    target_clim = compute_climatology(target.time_slice(0, t_hours), qm_buckets)
    pool = truth.time_slice(0, t_hours)
    fine_clim = compute_climatology(daily_means(pool), fine_buckets)
    h0, h1 = _sample_window_hours(cfg)
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg["pipeline"]["rng_seed"], _BCSD_STREAM)))
    result = bcsd_pipeline(members[member_id].time_slice(h0, h1), member_clim,
                           target_clim, fine_clim, pool, rng, spec)
    out = _fresh_dir(run_dir / "baselines" / "bcsd")
    write_array(result, out / "bcsd.npy")
    _update_manifest(run_dir, "baseline-bcsd", [out])
    return 0


def _load_sample_input(cfg, run_dir, source):
    member_id = cfg["sample"]["member"]
    run_dir = Path(run_dir)
    if source == "debiased":
        path = _require(run_dir / "debiased" / f"{member_id}.npy", "debias")
    elif source == "qm":
        path = _require(run_dir / "baselines" / "qm" / f"{member_id}.npy", "baseline-qm")
    elif source == "raw":
        path = _require(run_dir / "data" / "members" / f"{member_id}.npy", "gen-data")
    else:
        raise StageError(f"unknown sample source {source!r}")
    return read_array(path)


def stage_sample(cfg, run_dir, source="debiased"):
    run_dir = Path(run_dir)
    model = load_sr(_require(run_dir / "models" / "sr", "train-sr"))
    coarse = _load_sample_input(cfg, run_dir, source)
    h0, h1 = _sample_window_hours(cfg)
    window = coarse.time_slice(h0, h1)
    spd = model.spec.temporal_window
    n_windows = cfg["sample"]["windows"]
    layout = partition(cfg["sample"]["length_days"] * spd, model.window_days * spd, spd)
    if layout.n_windows != n_windows:
        raise StageError(
            f"length {cfg['sample']['length_days']} days implies "
            f"{layout.n_windows} windows, config says {n_windows}")
    rng = np.random.default_rng(np.random.SeedSequence(
        (cfg["pipeline"]["rng_seed"], 4, _SOURCE_SEEDS[source])))
    result = sample_long(model, window, n_windows, guidance=cfg["sample"]["guidance"],
                         rng=rng)
    tag = _SOURCE_TAGS[source]
    out_dir = Path(run_dir) / "samples"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{tag}.npy"
    if out.exists():
        raise StageError(f"output {out} already exists (write-once run directory)")
    write_array(result, out)
    _update_manifest(run_dir, f"sample-{tag}", [out])
    return 0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _method_outputs(run_dir):
    run_dir = Path(run_dir)
    found = {}
    for tag in ("downgen", "qmsr", "sr"):
        p = run_dir / "samples" / f"{tag}.npy"
        if p.exists():
            found[tag] = read_array(p)
    p = run_dir / "baselines" / "bcsd" / "bcsd.npy"
    if p.exists():
        found["bcsd"] = read_array(p)
    return found


def _derived_fields(fld: GridField):
    """(relative humidity %, heat index K) series from the four base variables."""
    t = fld.data[..., 0]
    q = fld.data[..., 2]
    p = fld.data[..., 3]
    rh = relative_humidity(np.clip(q, 0.0, 0.999), np.maximum(t, 180.0), p, clip=True)
    return rh, heat_index(np.maximum(t, 180.0), rh)


def evaluate_fields(cfg, truth_window: GridField, methods: dict,
                    train_truth: GridField) -> MetricReport:
    """Distribution, correlation and compound-event metrics per method."""
    e = cfg["evaluate"]
    report = MetricReport(period=f"h{truth_window.time0}+{truth_window.n_times}steps")
    names = list(truth_window.var_names)
    ref_derived = _derived_fields(truth_window) if e["derived"] else None
    spd = 24 // truth_window.dt_hours
    if e["streaks"]:
        tmax_clim = train_truth.data[..., 0].reshape(
            train_truth.n_times // spd, spd, *train_truth.data.shape[1:3]).max(axis=1).mean(axis=0)
        tmax_ref = truth_window.data[..., 0].reshape(
            truth_window.n_times // spd, spd, *truth_window.data.shape[1:3]).max(axis=1)
    for method, fld in sorted(methods.items()):
        if fld.data.shape != truth_window.data.shape:
            raise StageError(f"{method} output shape {fld.data.shape} does not match "
                             f"truth window {truth_window.data.shape}")
        for v, name in enumerate(names):
            pred = fld.data[..., v]
            ref = truth_window.data[..., v]
            report.add_scalar("mab", name, method, mab(pred, ref))
            report.add_scalar("wd", name, method, wasserstein1(pred, ref))
            report.add_scalar(f"mae_p{e['percentile']:g}", name, method,
                              percentile_mae(pred, ref, e["percentile"]))
            if e["psd"]:
                t_phys = float(fld.n_times * fld.dt_hours)
                pred_m = pred.reshape(fld.n_times, -1).T
                ref_m = ref.reshape(fld.n_times, -1).T
                report.add_scalar("psd_log_error", name, method,
                                  temporal_psd_error(pred_m, ref_m, t_phys))
        if e["derived"]:
            pred_rh, pred_hi = _derived_fields(fld)
            for dname, pred_d, ref_d in (("rel_humidity", pred_rh, ref_derived[0]),
                                         ("heat_index", pred_hi, ref_derived[1])):
                report.add_scalar("mab", dname, method, mab(pred_d, ref_d))
                report.add_scalar("wd", dname, method, wasserstein1(pred_d, ref_d))
                report.add_scalar(f"mae_p{e['percentile']:g}", dname, method,
                                  percentile_mae(pred_d, ref_d, e["percentile"]))
        if e["streaks"]:
            tmax_pred = fld.data[..., 0].reshape(
                fld.n_times // spd, spd, *fld.data.shape[1:3]).max(axis=1)
            h, delta = e["heat_streak_h"], e["heat_streak_delta"]
            nx, ny = tmax_pred.shape[1:]
            sq = [
                (heat_streak_prob(tmax_pred[:, i, j], tmax_clim[i, j], h, delta)
                 - heat_streak_prob(tmax_ref[:, i, j], tmax_clim[i, j], h, delta)) ** 2
                for i in range(nx) for j in range(ny)
            ]
            report.add_scalar("heat_streak_sq_error", "temperature", method,
                              float(np.mean(sq)))
        if e["cyclones"]:
            stride = max(1, 6 // fld.dt_hours)
            elev = np.zeros(fld.data.shape[1:3])
            tracks = detect_cyclones(fld.data[::stride, :, :, 3],
                                     fld.data[::stride, :, :, 1], elev,
                                     fld.lon, fld.lat, fld.time_coords[::stride])
            report.add_scalar("cyclone_count", "pressure", method, len(tracks))
    return report


def stage_evaluate(cfg, run_dir):
    run_dir = Path(run_dir)
    truth = read_array(_require(run_dir / "data" / "fine_truth.npy", "gen-data"))
    methods = _method_outputs(run_dir)
    if not methods:
        raise StageError("no method outputs found; run `sample`/`baseline-bcsd` first")
    h0, h1 = _sample_window_hours(cfg)
    report = evaluate_fields(cfg, truth.time_slice(h0, h1), methods,
                             truth.time_slice(0, _train_hours(cfg)))
    out = _fresh_dir(run_dir / "metrics")
    report.write(out)
    report.write_comparison(out / "comparison.csv", METHOD_ORDER)
    if cfg["evaluate"]["plots"]:
        truth_window = truth.time_slice(h0, h1)
        for method, fld in sorted(methods.items()):
            bias = fld.data[..., 0].mean(axis=0) - truth_window.data[..., 0].mean(axis=0)
            heatmap_svg(bias, out / f"bias_temperature_{method}.svg",
                        title=f"temperature mean bias: {method}")
        series = {m: f.data[..., 0].mean(axis=(1, 2)) for m, f in sorted(methods.items())}
        series["truth"] = truth_window.data[..., 0].mean(axis=(1, 2))
        curves_svg(truth_window.time_coords, series, out / "domain_mean_temperature.svg",
                   title="domain-mean temperature")
    _update_manifest(run_dir, "evaluate", [out])
    return 0


def stage_e2e(cfg, run_dir):
    stage_gen_data(cfg, run_dir)
    stage_train_debias(cfg, run_dir)
    stage_train_sr(cfg, run_dir)
    stage_debias(cfg, run_dir)
    stage_baseline_qm(cfg, run_dir)
    stage_baseline_bcsd(cfg, run_dir)
    for source in ("debiased", "qm", "raw"):
        stage_sample(cfg, run_dir, source=source)
    return stage_evaluate(cfg, run_dir)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

STAGES = {
    "gen-data": stage_gen_data,
    "train-debias": stage_train_debias,
    "train-sr": stage_train_sr,
    "debias": stage_debias,
    "baseline-qm": stage_baseline_qm,
    "baseline-bcsd": stage_baseline_bcsd,
    "evaluate": stage_evaluate,
    "e2e": stage_e2e,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="downgen",
        description="Generative statistical downscaling pipeline on synthetic ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["sample"]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE")
        if name == "sample":
            p.add_argument("--source", choices=sorted(_SOURCE_SEEDS),
                           default="debiased")
            p.add_argument("--length-days", type=int, default=None)
            p.add_argument("--windows", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        apply_overrides(cfg, args.overrides)
        if getattr(args, "length_days", None) is not None:
            cfg["sample"]["length_days"] = args.length_days
        if getattr(args, "windows", None) is not None:
            cfg["sample"]["windows"] = args.windows
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        _persist_config(cfg, args.out)
        if args.command == "sample":
            return stage_sample(cfg, args.out, source=args.source)
        return STAGES[args.command](cfg, args.out)
    except (StageError, DivergenceError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
