"""Pipeline orchestration: subcommand dispatch over write-once run directories.

Stages communicate exclusively through files under the run directory. `_stages()`
is the one list of the stages and their outputs, in `e2e` order: the subcommands,
`e2e`'s order, each stage's output path and the stage named by "run `X` first" on
a missing input are all read from it, and `_run` is the one caller of every stage.
Its outputs lie under:

    data/       synthetic truth and biased members (gen-data)
    models/     trained checkpoints (train-debias, train-sr)
    debiased/   flow-transported members (debias)
    baselines/  quantile-mapped members and BCSD output (baseline-qm, baseline-bcsd)
    samples/    super-resolved windows per input source (sample)
    metrics/    metric CSVs and optional SVG plots (evaluate)

A stage output exists only once it is complete: it is built under a hidden
`.partial` name and renamed into place on success. `_run` looks for a stage's
output before calling it: a single stage refuses an existing output before it
reads anything, and no output is deleted; a failed or killed stage leaves at most
a `.partial` that its rerun replaces. `e2e` skips, and names on stderr, each
stage whose output exists, so a killed `e2e` resumes with `e2e`.

Exit codes: 0 ok, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import bcsd_pipeline, daily_means, qm_debias
from .config import ConfigError, apply_overrides, parse_config, default_config, resolved_text
from .diffusion import NoiseSchedule, SRTrainConfig, load_sr, train_sr
from .grid import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    STEPS_PER_DAY,
    DownsampleSpec,
    GridField,
    GridFormatError,
    calendar_groups,
    compute_climatology,
    read_array,
    staged,
    write_array,
)
from .metrics import (
    heat_advisory_exceedance,
    heat_index,
    heat_streak_prob,
    mab,
    percentile_mae,
    relative_humidity,
    spatial_corr_error,
    temporal_psd_error,
    wasserstein1,
)
from .multidiffusion import WindowLayout, sample_long
from .cyclones import detect_cyclones
from .nets import DivergenceError
from .plots import curves_svg, heatmap_svg
from .reflow import CouplingConfig, ReflowTrainConfig, load_reflow, train_reflow, transport
from .report import MetricReport
from .synthdata import BiasSpec, SynthConfig, make_synth_pair, member_name

METHOD_ORDER = ["downgen", "bcsd", "qmsr", "sr"]
# sample source -> (method tag, _SAMPLE_STREAM sub-stream, input directory)
_SOURCES = {
    "debiased": ("downgen", 0, "debiased"),
    "qm": ("qmsr", 1, "baselines/qm"),
    "raw": ("sr", 2, "data/members"),
}
# top-level seed streams of the CLI's draws; synthdata, reflow and diffusion own 0-3
_SAMPLE_STREAM = 4
_BCSD_STREAM = 5
# fixed evaluation settings: the percentile of `mae_pXX`, and a heat streak as
# HEAT_STREAK_DAYS days with a daily maximum HEAT_STREAK_DELTA K above climatology
PERCENTILE = 99.0
HEAT_STREAK_DAYS = 3
HEAT_STREAK_DELTA = 0.5


class StageError(Exception):
    """Stage precondition failure (missing inputs, existing outputs); exit 1."""


def _built(cls, cfg, section, prefix="", **extras):
    """A `cls` whose fields are set by the keys of `section` named like them,
    with `prefix` where the section has that key, plus `extras`.

    A value that a rule of `cls` refuses is a ConfigError naming its key: each
    rule's message starts with the name of the field it refuses.
    """
    values = cfg[section]
    keys = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name if prefix + f.name in values else f.name
        if key in values and f.name not in extras:
            keys[f.name] = key
    try:
        return cls(**{name: values[key] for name, key in keys.items()}, **extras)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" ")
        if name not in keys:
            raise
        raise ConfigError(f"{section}.{keys[name]} {rule}") from exc


def _synth_config(cfg):
    return _built(SynthConfig, cfg, "synth", rng_seed=cfg["pipeline"]["rng_seed"],
                  bias=_built(BiasSpec, cfg, "synth", "bias_"))


def _reflow_config(cfg):
    return _built(ReflowTrainConfig, cfg, "debias",
                  coupling=_built(CouplingConfig, cfg, "debias"),
                  seed=cfg["pipeline"]["rng_seed"])


def _sr_config(cfg):
    return _built(SRTrainConfig, cfg, "sr", spatial_factor=cfg["synth"]["spatial_factor"],
                  noise=_built(NoiseSchedule, cfg, "sr", "schedule_"),
                  seed=cfg["pipeline"]["rng_seed"])


def _train_hours(cfg):
    return cfg["synth"]["train_days"] * 24


# (section, key, least value) of the keys that stages read directly, not through a
# stage config that refuses them itself. The training period is at least a year:
# BCSD's analog pool and QM over a whole member series need every day of the year.
_LEAST = [("pipeline", "rng_seed", 0), ("synth", "train_days", DAYS_PER_YEAR),
          ("sample", "start_day", 0), ("debias", "transport_steps", 1),
          ("baseline", "qm_doy_buckets", 1), ("baseline", "fine_clim_doy_buckets", 1)]
# (section, key, steps a day of the training series): the day-of-year buckets of a
# climatology fitted on the training period, with one time-of-day group per step
_CLIMATOLOGIES = [("sr", "doy_buckets", STEPS_PER_DAY), ("baseline", "qm_doy_buckets", 1),
                  ("baseline", "fine_clim_doy_buckets", 1)]


def _check_config(cfg):
    """Every rule a setting must keep, checked before any stage runs: the least
    values of `_LEAST`, the rules of the three stage configs, then the
    cross-key rules of the training period, the U-nets' depth and the sample
    settings."""
    for section, key, least in _LEAST:
        if cfg[section][key] < least:
            raise ConfigError(f"{section}.{key} must be at least {least}, "
                              f"not {cfg[section][key]}")
    for build in (_synth_config, _reflow_config, _sr_config):
        build(cfg)
    # the training period holds one debias chunk and one SR window, and covers the
    # calendar of each climatology fitted on it
    synth = cfg["synth"]
    train_days = synth["train_days"]
    for section, key in (("debias", "chunk_len_days"), ("sr", "window_days")):
        if cfg[section][key] > train_days:
            raise ConfigError(f"{section}.{key} = {cfg[section][key]} exceeds "
                              f"synth.train_days = {train_days}")
    for section, key, steps in _CLIMATOLOGIES:
        times = np.arange(train_days * steps) * (HOURS_PER_DAY // steps)
        try:
            calendar_groups(times, (cfg[section][key], steps))
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} = {cfg[section][key]} over synth.train_days "
                              f"= {train_days} days: {exc}") from exc
    # each U-net's grid sides halve once per level below the top
    f = synth["spatial_factor"]
    for section, grid, sides in (("debias", "coarse", (synth["nx"] // f, synth["ny"] // f)),
                                 ("sr", "fine", (synth["nx"], synth["ny"]))):
        levels = cfg[section]["levels"]
        halving = 2 ** (len(levels) - 1)
        if any(side % halving for side in sides):
            raise ConfigError(
                f"{section}.levels = {','.join(map(str, levels))} is too deep for the {grid} "
                f"grid {sides[0]} x {sides[1]}: each side must be divisible by "
                f"2^(levels - 1) = {halving}")
    # the sample member exists, its windows tile the sample length, and the sample
    # window ends within the series
    s, window_days = cfg["sample"], cfg["sr"]["window_days"]
    members = [member_name(idx) for idx in range(synth["n_members"])]
    if s["member"] not in members:
        raise ConfigError(f"sample.member = {s['member']} is none of synth.n_members: {members}")
    tiling = (f"sample.windows = {s['windows']} windows of sr.window_days = {window_days} "
              "that overlap by one day")
    try:
        days = WindowLayout(s["windows"], window_days, 1).total_len
    except ValueError as exc:
        raise ConfigError(f"{tiling}: {exc}") from exc
    if days != s["length_days"]:
        raise ConfigError(f"{tiling} cover {days} days, not sample.length_days = "
                          f"{s['length_days']}")
    end = train_days + s["start_day"] + s["length_days"]
    if end > synth["n_days"]:
        raise ConfigError(
            f"the sample window ends on day {end}, past synth.n_days = {synth['n_days']}: "
            "train_days + start_day + length_days must not exceed n_days")


def _output_path(run_dir, rel):
    """run_dir/rel, a stage output, with its parent directory made."""
    path = Path(run_dir) / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def _fresh_dir(run_dir, rel):
    """Yield a temporary directory for the output run_dir/rel; on success it is
    renamed into place."""
    with staged(_output_path(run_dir, rel)) as tmp:
        tmp.mkdir()
        yield tmp


def _require(run_dir, rel):
    """run_dir/rel, a stage input: a missing one names the stage whose output holds it."""
    path = Path(run_dir) / rel
    if not path.exists():
        stage = next(name for name, output, _ in _stages() if Path(rel).is_relative_to(output))
        raise StageError(f"missing {path}; run `{stage}` first")
    return path


def _persist_config(cfg, run_dir):
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    target = run_dir / "config.ini"
    text = resolved_text(cfg)
    if not target.exists():
        with staged(target) as tmp:
            tmp.write_text(text, encoding="utf-8")
    elif target.read_text(encoding="utf-8") != text:
        raise StageError("run directory was created with a different configuration")


def _members(run_dir):
    member_dir = _require(run_dir, "data/members")
    return [read_array(p) for p in sorted(member_dir.glob("*.npy"))]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def stage_gen_data(cfg, run_dir, output):
    with _fresh_dir(run_dir, output) as out:
        pair = make_synth_pair(_synth_config(cfg))
        write_array(pair.fine_truth, out / "fine_truth.npy")
        write_array(pair.coarse_truth, out / "coarse_truth.npy")
        member_dir = out / "members"
        member_dir.mkdir()
        for m in pair.coarse_biased:
            write_array(m, member_dir / f"{m.member_id}.npy")


def stage_train_debias(cfg, run_dir, output):
    train_cfg = _reflow_config(cfg)
    target = read_array(_require(run_dir, "data/coarse_truth.npy"))
    members = _members(run_dir)
    t_hours = _train_hours(cfg)
    with _fresh_dir(run_dir, output) as out:
        train_reflow([m.time_slice(0, t_hours) for m in members],
                     target.time_slice(0, t_hours), train_cfg, out_dir=out)


def stage_train_sr(cfg, run_dir, output):
    train_cfg = _sr_config(cfg)
    truth = read_array(_require(run_dir, "data/fine_truth.npy"))
    with _fresh_dir(run_dir, output) as out:
        train_sr(truth.time_slice(0, _train_hours(cfg)), train_cfg, out_dir=out)


def stage_debias(cfg, run_dir, output):
    model = load_reflow(_require(run_dir, "models/debias"))
    members = _members(run_dir)
    with _fresh_dir(run_dir, output) as out:
        for m in members:
            result = transport(model, m, m.member_id,
                               n_steps=cfg["debias"]["transport_steps"])
            write_array(result, out / f"{m.member_id}.npy")


def stage_baseline_qm(cfg, run_dir, output):
    target = read_array(_require(run_dir, "data/coarse_truth.npy"))
    members = _members(run_dir)
    t_hours = _train_hours(cfg)
    buckets = (cfg["baseline"]["qm_doy_buckets"], 1)
    target_clim = compute_climatology(target.time_slice(0, t_hours), buckets)
    with _fresh_dir(run_dir, output) as out:
        for m in members:
            member_clim = compute_climatology(m.time_slice(0, t_hours), buckets)
            write_array(qm_debias(m, member_clim, target_clim), out / f"{m.member_id}.npy")


def _sample_window_hours(cfg):
    start_day = cfg["synth"]["train_days"] + cfg["sample"]["start_day"]
    return start_day * 24, (start_day + cfg["sample"]["length_days"]) * 24


def stage_baseline_bcsd(cfg, run_dir, output):
    truth = read_array(_require(run_dir, "data/fine_truth.npy"))
    target = read_array(_require(run_dir, "data/coarse_truth.npy"))
    member = read_array(_require(run_dir, f"data/members/{cfg['sample']['member']}.npy"))
    t_hours = _train_hours(cfg)
    spec = DownsampleSpec(cfg["synth"]["spatial_factor"], 24 // truth.dt_hours)
    qm_buckets = (cfg["baseline"]["qm_doy_buckets"], 1)
    fine_buckets = (cfg["baseline"]["fine_clim_doy_buckets"], 1)
    member_clim = compute_climatology(member.time_slice(0, t_hours), qm_buckets)
    target_clim = compute_climatology(target.time_slice(0, t_hours), qm_buckets)
    pool = truth.time_slice(0, t_hours)
    fine_clim = compute_climatology(daily_means(pool), fine_buckets)
    h0, h1 = _sample_window_hours(cfg)
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg["pipeline"]["rng_seed"], _BCSD_STREAM)))
    result = bcsd_pipeline(member.time_slice(h0, h1), member_clim,
                           target_clim, fine_clim, pool, rng, spec)
    with _fresh_dir(run_dir, output) as out:
        write_array(result, out / "bcsd.npy")


def stage_sample(cfg, run_dir, output, source):
    _, stream, input_dir = _SOURCES[source]
    sr_dir = _require(run_dir, "models/sr")
    model = load_sr(sr_dir)
    if model.window_days != cfg["sr"]["window_days"]:
        raise GridFormatError(f"{sr_dir / 'manifest.json'}: window_days = {model.window_days}, "
                              f"not sr.window_days = {cfg['sr']['window_days']}")
    coarse = read_array(_require(run_dir, f"{input_dir}/{cfg['sample']['member']}.npy"))
    h0, h1 = _sample_window_hours(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(
        (cfg["pipeline"]["rng_seed"], _SAMPLE_STREAM, stream)))
    result = sample_long(model, coarse.time_slice(h0, h1), cfg["sample"]["windows"],
                         guidance=cfg["sample"]["guidance"], rng=rng)
    write_array(result, _output_path(run_dir, output))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _sample_output(tag):
    return f"samples/{tag}.npy"


def _method_outputs(run_dir):
    """Every method's output, each required: method tag -> GridField."""
    rels = {tag: _sample_output(tag) for tag, *_ in _SOURCES.values()}
    rels["bcsd"] = "baselines/bcsd/bcsd.npy"
    return {tag: read_array(_require(run_dir, rel)) for tag, rel in rels.items()}


def _derived_fields(fld: GridField):
    """(relative humidity %, heat index K) series from the four base variables."""
    t = fld.data[..., 0]
    q = fld.data[..., 2]
    p = fld.data[..., 3]
    rh = relative_humidity(np.clip(q, 0.0, 0.999), np.maximum(t, 180.0), p, clip=True)
    return rh, heat_index(np.maximum(t, 180.0), rh)


def _daily_tmax(fld: GridField):
    """[days, NX, NY] daily maximum temperature."""
    spd = 24 // fld.dt_hours
    return fld.data[..., 0].reshape(fld.n_times // spd, spd, *fld.data.shape[1:3]).max(axis=1)


def evaluate_fields(cfg, truth_window: GridField, methods: dict,
                    train_truth: GridField) -> MetricReport:
    """Distribution, correlation and compound-event metrics per method."""
    report = MetricReport(period=f"h{truth_window.time0}+{truth_window.n_times}steps")
    names = list(truth_window.var_names)
    ref_derived = _derived_fields(truth_window)
    nx, ny = truth_window.data.shape[1:3]
    center, box = (nx // 2, ny // 2), (min(nx, ny) - 1) // 2
    tmax_clim = _daily_tmax(train_truth).mean(axis=0)
    streak = (HEAT_STREAK_DAYS, HEAT_STREAK_DELTA)
    streak_ref = heat_streak_prob(_daily_tmax(truth_window), tmax_clim, *streak)
    for method, fld in sorted(methods.items()):
        if fld.data.shape != truth_window.data.shape:
            raise StageError(f"{method} output shape {fld.data.shape} does not match "
                             f"truth window {truth_window.data.shape}")
        series = [(name, fld.data[..., v], truth_window.data[..., v])
                  for v, name in enumerate(names)]
        series += zip(("rel_humidity", "heat_index"), _derived_fields(fld), ref_derived)
        for name, pred, ref in series:
            report.add_scalar("mab", name, method, mab(pred, ref))
            report.add_scalar("wd", name, method, wasserstein1(pred, ref))
            report.add_scalar(f"mae_p{PERCENTILE:g}", name, method,
                              percentile_mae(pred, ref, PERCENTILE))
            if name in names:
                t_phys = float(fld.n_times * fld.dt_hours)
                pred_m = pred.reshape(fld.n_times, -1).T
                ref_m = ref.reshape(fld.n_times, -1).T
                report.add_scalar("psd_log_error", name, method,
                                  temporal_psd_error(pred_m, ref_m, t_phys))
                report.add_scalar("spatial_corr_error", name, method,
                                  spatial_corr_error(pred, ref, center, box))
            if name == "heat_index":
                exceed = (heat_advisory_exceedance(pred, "caution")
                          - heat_advisory_exceedance(ref, "caution"))
                report.add_scalar("advisory_exceedance_mae", name, method,
                                  float(np.abs(exceed).mean()))
        sq = (heat_streak_prob(_daily_tmax(fld), tmax_clim, *streak) - streak_ref) ** 2
        report.add_scalar("heat_streak_sq_error", "temperature", method, float(np.mean(sq)))
        if cfg["evaluate"]["cyclones"]:
            stride = max(1, 6 // fld.dt_hours)
            elev = np.zeros(fld.data.shape[1:3])
            tracks = detect_cyclones(fld.data[::stride, :, :, 3],
                                     fld.data[::stride, :, :, 1], elev,
                                     fld.lon, fld.lat, fld.time_coords[::stride])
            report.add_scalar("cyclone_count", "pressure", method, len(tracks))
    return report


def stage_evaluate(cfg, run_dir, output):
    truth = read_array(_require(run_dir, "data/fine_truth.npy"))
    methods = _method_outputs(run_dir)
    h0, h1 = _sample_window_hours(cfg)
    report = evaluate_fields(cfg, truth.time_slice(h0, h1), methods,
                             truth.time_slice(0, _train_hours(cfg)))
    with _fresh_dir(run_dir, output) as out:
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


def _stages():
    """Every stage in `e2e` order: (name as typed, output under the run directory,
    function called with (cfg, run_dir, output)). The table is built at each read,
    so each stage is looked up by its module-level name then, and a wrapper set on
    a `stage_*` attribute (perfbench's tracer) sees the call."""
    return ([("gen-data", "data", stage_gen_data),
             ("train-debias", "models/debias", stage_train_debias),
             ("train-sr", "models/sr", stage_train_sr),
             ("debias", "debiased", stage_debias),
             ("baseline-qm", "baselines/qm", stage_baseline_qm),
             ("baseline-bcsd", "baselines/bcsd", stage_baseline_bcsd)]
            + [(f"sample --source {source}", _sample_output(tag),
                partial(stage_sample, source=source)) for source, (tag, *_) in _SOURCES.items()]
            + [("evaluate", "metrics", stage_evaluate)])


def _run(cfg, run_dir, typed):
    """Call the stage named `typed`, or each stage for `e2e`, if its output is
    absent. An existing output refuses a single stage before it reads anything,
    and `e2e` skips that stage, naming it on stderr. Each stage seeds itself from
    the config alone, so a resumed `e2e` writes the bytes of a fresh one."""
    for name, output, stage in _stages():
        path = Path(run_dir) / output
        if typed in (name, "e2e") and not path.exists():
            stage(cfg, run_dir, output)
        elif typed == "e2e":
            print(f"e2e: skipping {name}: {path} exists", file=sys.stderr)
        elif typed == name:
            raise StageError(f"output {path} already exists (write-once run directory)")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="downgen",
        description="Generative statistical downscaling pipeline on synthetic ensembles")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys([name.split()[0] for name, _, _ in _stages()] + ["e2e"]):
        p = sub.add_parser(command)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="SECTION.KEY=VALUE")
        if command == "sample":
            p.add_argument("--source", choices=list(_SOURCES), default="debiased")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        apply_overrides(cfg, args.overrides)
        _check_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    typed = " ".join([args.command] + (["--source", args.source] if "source" in args else []))
    try:
        _persist_config(cfg, args.out)
        _run(cfg, args.out, typed)
        return 0
    except (StageError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
