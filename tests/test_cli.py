import argparse
import configparser
import csv
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from downgen import cli, diffusion, metrics, nets, reflow, synthdata
from downgen.cli import _reflow_config, _sr_config, _synth_config, build_parser, main
from downgen.config import (
    SCHEMA,
    ConfigError,
    apply_overrides,
    default_config,
    parse_config,
    resolved_text,
)
from downgen.diffusion import NoiseSchedule, SRTrainConfig
from downgen.grid import STEPS_PER_DAY, GridField, read_array, write_array
from downgen.nets import (
    DivergenceError,
    denoiser_arch,
    denoiser_forward,
    init_params,
    velocity_arch,
    velocity_forward,
)
from downgen.reflow import CouplingConfig, ReflowTrainConfig
from downgen.synthdata import VAR_NAMES, BiasSpec, SynthConfig

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "configs" / "demo.ini"

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
bias_var_scale = 1.2
bias_corr_shrink = 0.4
bias_season_phase_days = 0

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
cyclones = false
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

    def test_demo_ini_is_the_defaults(self):
        parser = configparser.ConfigParser()
        parser.read(DEMO, encoding="utf-8")
        assert parser.sections() == []
        assert parse_config(DEMO) == default_config()

    def test_demo_synth_config_forwards_noise_ar1(self):
        assert _synth_config(parse_config(DEMO)).noise_ar1 == 0.6

    # keys that no stage config carries: stages read them from the config directly
    READ_BY_STAGES = {
        "synth.train_days": "every stage slices the training period with it",
        "debias.transport_steps": "the debias stage passes it to transport",
    }

    @pytest.mark.parametrize("section", ["pipeline", "synth", "debias", "sr"])
    def test_every_key_changes_resolved_stage_config(self, section):
        def stage_configs(cfg):
            return _synth_config(cfg), _reflow_config(cfg), _sr_config(cfg)

        base = default_config()
        for key, value in base[section].items():
            if f"{section}.{key}" in self.READ_BY_STAGES:
                continue
            cfg = default_config()
            cfg[section][key] = _changed(value)
            assert stage_configs(cfg) != stage_configs(base), f"{section}.{key}"

    # stage-config fields that no config key sets, and why each stays
    SET_BY_NO_KEY = {
        "SynthConfig.var_bases": "the acceptance fixtures use it",
        "SynthConfig.var_scales": "the acceptance fixtures use it",
    }

    # numeric stage-config fields that no rule bounds, and why any finite value is valid
    ANY_FINITE = {
        "SynthConfig.spectral_slope": "a power law of either slope is a spectrum",
        "SynthConfig.trend_per_year": "a warming or a cooling trend",
        "SynthConfig.bias.mean_offset": "an offset of either sign",
        "SynthConfig.bias.spectral_tilt": "added to the slope, which takes any value",
        "SynthConfig.bias.season_phase_days": "a phase shift of either sign",
    }

    def test_every_stage_config_field_set_by_a_key(self):
        """Every stage-config field is set by a key or listed in SET_BY_NO_KEY.
        Every numeric one set by a key has a rule, which `_check_config` applies
        naming that key, or is listed in ANY_FINITE. A config that
        `_check_config` accepts runs: it builds all three stage configs and runs
        one forward of each net (`_run_one_row`)."""
        def fields(cfg):
            return {path: value for obj in (_synth_config(cfg), _reflow_config(cfg),
                                            _sr_config(cfg))
                    for path, value in _leaf_fields(obj, type(obj).__name__)}

        def refused(section, key, value):
            """Whether `_check_config` refuses -1 or 0 (a level list of 0) for the key."""
            probes = [(0,)] if isinstance(value, tuple) else [type(value)(-1), type(value)(0)]
            for probe in probes:
                cfg = default_config()
                cfg[section][key] = probe
                try:
                    _check_and_run(cfg)
                except ConfigError as exc:
                    assert f"{section}.{key} " in str(exc), exc
                    return True
            return False

        base = fields(default_config())
        set_by_keys, ruled = set(), set()
        for section, keys in default_config().items():
            for key, value in keys.items():
                cfg = default_config()
                cfg[section][key] = _changed(value)
                changed = {path for path, v in fields(cfg).items() if v != base[path]}
                set_by_keys |= changed
                try:
                    _check_and_run(cfg)
                except ConfigError:
                    pass
                if changed and not isinstance(value, str) and refused(section, key, value):
                    ruled |= changed
        assert sorted(base.keys() - set_by_keys) == sorted(self.SET_BY_NO_KEY)
        numeric = {path for path in set_by_keys if not isinstance(base[path], str)}
        assert sorted(numeric - ruled) == sorted(self.ANY_FINITE)


def _check_and_run(cfg):
    """`_check_config(cfg)`, then, for a config it accepts, `_run_one_row(cfg)`."""
    cli._check_config(cfg)
    _run_one_row(cfg)


def _run_one_row(cfg):
    """One single-row forward of the velocity net on the coarse grid and of the
    denoiser on the fine grid, each with the config's levels and window."""
    synth, sr = _synth_config(cfg), _sr_config(cfg)
    rng = np.random.default_rng(0)
    n_vars, f = len(VAR_NAMES), synth.spatial_factor
    coarse = np.zeros((1, synth.nx // f, synth.ny // f, n_vars))
    arch = velocity_arch(n_vars, _reflow_config(cfg).levels)
    v = velocity_forward(init_params(rng, arch), coarse, np.array([0.5]), coarse,
                         np.ones_like(coarse), arch)
    assert v.shape == coarse.shape
    steps = sr.window_days * STEPS_PER_DAY
    arch = denoiser_arch(n_vars, steps, sr.levels)
    z = np.zeros((1, steps, synth.nx, synth.ny, n_vars))
    cond = np.zeros((1, sr.window_days) + z.shape[2:])
    d = denoiser_forward(init_params(rng, arch), z, np.array([1.0]), cond, arch)
    assert d.shape == z.shape


def _changed(value):
    """Another value of a config key's type, one that every stage-config rule accepts."""
    if isinstance(value, tuple):
        return value + (value[-1],)
    if isinstance(value, str):
        return "tangent" if value != "tangent" else "edm"
    if isinstance(value, int):
        return value * 2 or 1
    return value / 2 or 0.125


def _leaf_fields(obj, path):
    """(dotted path, value) of every field of a dataclass, nested ones walked."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_fields(value, f"{path}.{f.name}")
        else:
            yield f"{path}.{f.name}", value


# Reference stage-config builders: every key written out by hand.
def _reference_synth_config(cfg):
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


def _reference_reflow_config(cfg):
    d = cfg["debias"]
    return ReflowTrainConfig(
        steps=d["steps"], chunks_per_batch=d["chunks_per_batch"],
        coupling=CouplingConfig(chunk_len_days=d["chunk_len_days"],
                                season_window_days=d["season_window_days"]),
        peak_lr=d["peak_lr"], end_lr=d["end_lr"], warmup_steps=d["warmup_steps"],
        clip_norm=d["clip_norm"], levels=d["levels"],
        seed=cfg["pipeline"]["rng_seed"])


def _reference_sr_config(cfg):
    s = cfg["sr"]
    return SRTrainConfig(
        steps=s["steps"], batch=s["batch"], window_days=s["window_days"],
        spatial_factor=cfg["synth"]["spatial_factor"], p_uncond=s["p_uncond"],
        peak_lr=s["peak_lr"], end_lr=s["end_lr"], warmup_steps=s["warmup_steps"],
        clip_norm=s["clip_norm"], levels=s["levels"], doy_buckets=s["doy_buckets"],
        noise=NoiseSchedule(sigma_min=s["sigma_min"], sigma_max=s["sigma_max"],
                            n_grid=s["n_grid"], kind=s["schedule_kind"]),
        seed=cfg["pipeline"]["rng_seed"])


def _assert_same_fields(got, want, path):
    """Equal field by field, nested dataclasses included, with equal value types."""
    assert type(got) is type(want), path
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(b):
            _assert_same_fields(a, b, f"{path}.{f.name}")
        else:
            assert (type(a), a) == (type(b), b), f"{path}.{f.name}"


class TestStageConfigs:
    @pytest.mark.parametrize("source", ["default", "demo"])
    @pytest.mark.parametrize("build, reference", [
        (_synth_config, _reference_synth_config),
        (_reflow_config, _reference_reflow_config),
        (_sr_config, _reference_sr_config),
    ], ids=["synth", "reflow", "sr"])
    def test_built_by_field_name_equals_reference(self, source, build, reference):
        cfg = default_config() if source == "default" else parse_config(DEMO)
        _assert_same_fields(build(cfg), reference(cfg), build.__name__)


class TestReadmeMatchesCode:
    README = (ROOT / "README.md").read_text(encoding="utf-8")

    def test_every_config_key_named_exists(self):
        named = re.findall(rf"\b({'|'.join(SCHEMA)})\.(\w+)", self.README)
        assert named
        assert [f"{s}.{k}" for s, k in named if k not in SCHEMA[s]] == []

    def test_ini_example_runs(self, tmp_path):
        """The README's INI example is accepted and runs, as `_check_and_run` runs
        an accepted config."""
        (example,) = re.findall(r"```ini\n(.*?)```", self.README, re.S)
        path = tmp_path / "example.ini"
        path.write_text(example, encoding="utf-8")
        _check_and_run(parse_config(path))

    def test_every_manifest_key_named(self, e2e_run):
        """The `meta.<key>` names in the README are exactly the keys the two
        checkpoint writers put in their manifests."""
        written = {key for rel in (REFLOW, SR)
                   for key in json.loads((e2e_run / rel).read_text(encoding="utf-8"))["meta"]}
        assert set(re.findall(r"\bmeta\.(\w+)", self.README)) == written

    def test_cli_synopsis_parses(self):
        """Each `downgen ...` line of the README's code blocks, with the first
        of every `a|b` choice and each subcommand, is accepted by the parser, and
        the lines name every subcommand and `--source` choice the parser accepts."""
        lines = re.findall(r"^downgen .*$", self.README, re.M)
        assert any("--source" in line for line in lines)
        named, sources = set(), set()
        for line in lines:
            _, commands, *rest = line.replace("[", "").replace("]", "").split()
            named.update(commands.split("|"))
            sources.update(choice for option, choices in zip(rest, rest[1:])
                           if option == "--source" for choice in choices.split("|"))
            for command in commands.split("|"):
                argv = [command] + [tok.split("|")[0] for tok in rest]
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail(f"README synopsis not accepted: {argv}")
        (subcommands,) = [a.choices for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)]
        assert named == set(subcommands)
        (choices,) = [a.choices for a in subcommands["sample"]._actions if a.dest == "source"]
        assert sources == set(choices)


def _overrides():
    """Strategy for one `section.key=value` override of any schema key.

    Values are of the key's type; name-typed keys draw any one-line text, often
    with characters that mean something in INI syntax.
    """
    def values(section, key):
        default = SCHEMA[section][key][1]
        if isinstance(default, bool):
            return st.sampled_from(["true", "false", "yes", "off", "1", "0"])
        if isinstance(default, tuple):
            return st.lists(st.integers(1, 512), min_size=1, max_size=5).map(
                lambda v: ",".join(map(str, v)))
        if isinstance(default, int):
            return st.integers(-10 ** 9, 10 ** 9).map(str)
        if isinstance(default, float):
            return st.floats(allow_nan=False, allow_infinity=False).map(repr)
        chars = st.one_of(st.sampled_from("%$#;:=[](){}'\"._-"),
                          st.characters(blacklist_categories=("Z", "C")))
        return st.text(chars, min_size=1, max_size=12)

    keys = [(sec, key) for sec in SCHEMA for key in SCHEMA[sec]]
    names = [(sec, key) for sec, key in keys if isinstance(SCHEMA[sec][key][1], str)]
    return st.one_of(st.sampled_from(keys), st.sampled_from(names)).flatmap(
        lambda sk: values(*sk).map(lambda v: f"{sk[0]}.{sk[1]}={v}"))


class TestConfigRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_overrides(), max_size=12))
    def test_resolved_text_parses_back(self, tmp_path_factory, overrides):
        cfg = default_config()
        for item in overrides:
            try:
                apply_overrides(cfg, [item])
            except ConfigError:
                pass   # a refused value leaves cfg unchanged
        path = tmp_path_factory.mktemp("cfg") / "config.ini"
        path.write_text(resolved_text(cfg), encoding="utf-8")
        assert parse_config(path) == cfg

    @pytest.mark.parametrize("value", ["#m000", ";m000", "m0 #1", "m%00", "m 0"])
    def test_name_that_would_not_round_trip_refused(self, value):
        with pytest.raises(ConfigError, match="sample.member"):
            apply_overrides(default_config(), [f"sample.member={value}"])


def _edit_json(edit):
    """A corruption that decodes the JSON document, applies `edit` and encodes it again."""
    def corrupt(raw):
        doc = json.loads(raw)
        edit(doc)
        return json.dumps(doc).encode()
    return corrupt


def _drop(*keys):
    """A corruption that deletes doc[keys[0]]...[keys[-1]]."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return _edit_json(edit)


def _put(*keys, value):
    """A corruption that sets doc[keys[0]]...[keys[-1]] to `value`."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return _edit_json(edit)


def _edit_tensors(edit):
    """A corruption that applies `edit` to a checkpoint manifest's tensor name list."""
    return _edit_json(lambda doc: edit(doc["tensors"]))


def _edit_npy(edit):
    """A corruption that rewrites an NPY file's array as `edit(array)`."""
    def corrupt(raw):
        out = io.BytesIO()
        np.save(out, edit(np.load(io.BytesIO(raw))))
        return out.getvalue()
    return corrupt


# the documents a stage reads, in a copy of the module's TINY run
FIELD = "data/members/m000.npy"
SIDECAR = FIELD + ".json"
REFLOW = "models/debias/manifest.json"
SR = "models/sr/manifest.json"
TENSOR = "models/debias/target_stats__mean.npy"
CONFIG = "config.ini"
# Every key a loader reads, at every depth. `meta.step` and a sidecar's `member_id` are
# never required, so no row drops them.
READ_KEYS = {
    SIDECAR: [("time0",), ("dt_hours",), ("lon",), ("lat",), ("var_names",)],
    REFLOW: [("tensors",), ("meta",), ("meta", "kind"), ("meta", "levels"),
             ("meta", "tau_freqs")],
    SR: [("tensors",), ("meta",), ("meta", "kind"), ("meta", "levels"), ("meta", "window_days"),
         ("meta", "steps_per_day"), ("meta", "schedule"),
         *[("meta", "schedule", key) for key in ("sigma_min", "sigma_max", "n_grid", "kind")]],
}
# every tensor a loader reads, or one of a set it checks as a whole
READ_TENSORS = {
    REFLOW: ["target_stats/mean", "target_stats/std", "member_stats/m000/mean",
             "member_stats/m000/std", "param/in/conv/w"],
    SR: ["clim/mean", "clim/std", "cond_stats/mean", "cond_stats/std", "param/out/conv/w"],
}
WRONG_VALUES = [
    (SIDECAR, ("time0",), "0"), (SIDECAR, ("time0",), 0.5), (SIDECAR, ("time0",), 12.7),
    (SIDECAR, ("dt_hours",), None), (SIDECAR, ("dt_hours",), 2.9), (SIDECAR, ("lon",), 5),
    (SIDECAR, ("lat",), "x"), (SIDECAR, ("var_names",), 5), (SIDECAR, ("var_names",), "abcd"),
    (SIDECAR, ("member_id",), 5),
    (REFLOW, ("tensors",), []), (REFLOW, ("tensors",), 5), (REFLOW, ("tensors",), "x"),
    (REFLOW, ("meta",), 5), (REFLOW, ("meta", "kind"), "sr"), (REFLOW, ("meta", "levels"), 5),
    (REFLOW, ("meta", "levels"), None), (REFLOW, ("meta", "levels"), []),
    (REFLOW, ("meta", "levels"), "8,16"), (REFLOW, ("meta", "levels"), [8.0, 16]),
    (REFLOW, ("meta", "levels"), [8, 16, 32]), (REFLOW, ("meta", "tau_freqs"), [1.0, 10000.0]),
    (SR, ("meta",), 5), (SR, ("meta", "kind"), "reflow"), (SR, ("meta", "levels"), [8, "16"]),
    (SR, ("meta", "levels"), []), (SR, ("meta", "levels"), [8]),
    (SR, ("meta", "window_days"), "3"), (SR, ("meta", "window_days"), None),
    (SR, ("meta", "window_days"), 3.5), (SR, ("meta", "window_days"), 0),
    (SR, ("meta", "window_days"), 2), (SR, ("meta", "window_days"), 4),
    (SR, ("meta", "steps_per_day"), None), (SR, ("meta", "steps_per_day"), "12"),
    (SR, ("meta", "steps_per_day"), 0), (SR, ("meta", "steps_per_day"), 6),
    (SR, ("meta", "schedule"), 5), (SR, ("meta", "schedule", "n_grid"), "24"),
    (SR, ("meta", "schedule", "kind"), 5), (SR, ("meta", "schedule", "sigma_max"), "x"),
    (SR, ("meta", "schedule", "bogus"), 1), (SR, ("meta", "schedule", "n_grid"), 1),
    (SR, ("meta", "schedule", "sigma_min"), 0), (SR, ("meta", "schedule", "sigma_min"), 80.0),
    # sampling grids `_check_config` refuses for sr.n_grid and sr.schedule_kind
    (SR, ("meta", "schedule", "n_grid"), 8), (SR, ("meta", "schedule", "n_grid"), 23),
    (SR, ("meta", "schedule", "kind"), "tangent"),
]
# (tensor file, edit of its array, row id): tensors that disagree with the rest of
# their checkpoint, which fails naming its manifest
DISAGREEING_TENSORS = [
    # 239 climatology groups are not a whole number of days of 12 groups
    ("models/sr/clim__mean.npy", lambda a: a[:-1], "239-groups"),
    ("models/sr/clim__std.npy", lambda a: a[:-1], "239-groups"),
    ("models/sr/clim__mean.npy", lambda a: a[0], "3-axes"),
    # a 3-row coarse grid does not divide the 8-row fine grid
    ("models/sr/cond_stats__mean.npy", lambda a: np.concatenate([a, a[:1]]), "3x2-grid"),
    ("models/sr/cond_stats__std.npy", lambda a: a[..., :3], "3-variables"),
    ("models/sr/param__in__conv__w.npy", lambda a: a[..., :4], "4-channels"),
    ("models/debias/param__in__conv__w.npy", lambda a: a[..., :4], "4-channels"),
    # a velocity net that read the member statistics as 8 more input channels
    ("models/debias/param__in__conv__w.npy", lambda a: np.concatenate([a, a, a], axis=2),
     "12-input-channels"),
    ("models/debias/member_stats__m000__std.npy", lambda a: 0 * a, "zero"),
    ("models/sr/clim__std.npy", lambda a: 0 * a, "zero"),
    # a member's mean and std on one grid row, against the target statistics' two
    (("models/debias/member_stats__m000__mean.npy", "models/debias/member_stats__m000__std.npy"),
     lambda a: a[:1], "1-row-grid"),
]
WHOLE_DOCUMENT = [("truncated", lambda raw: raw[:13]), ("list", lambda raw: b"[]"),
                  ("empty-object", lambda raw: b"{}")]


def _files(rel):
    """The documents a corruption row rewrites: one, or a tuple of several."""
    return (rel,) if isinstance(rel, str) else rel


def _corruptions():
    """(document, corruption, what stderr names: None for the document) rows."""
    rows = [pytest.param(rel, corrupt, None, id=f"{rel}:{name}")
            for rel in (FIELD, SIDECAR, REFLOW, SR, TENSOR, CONFIG)
            for name, corrupt in WHOLE_DOCUMENT]
    rows += [pytest.param(rel, lambda raw: raw[:-8], None, id=f"{rel}:truncated-payload")
             for rel in (FIELD, TENSOR)]
    rows += [pytest.param(rel, _drop(*keys), None, id=f"{rel}:drop-{'.'.join(keys)}")
             for rel, paths in READ_KEYS.items() for keys in paths]
    rows += [pytest.param(rel, _edit_tensors(lambda names, name=name: names.remove(name)),
                          None, id=f"{rel}:drop-tensor-{name}")
             for rel, names in READ_TENSORS.items() for name in names]
    rows += [pytest.param(rel, _put(*keys, value=value), None,
                          id=f"{rel}:{'.'.join(keys)}={json.dumps(value)}")
             for rel, keys, value in WRONG_VALUES]
    return rows + [
        pytest.param(rel, _edit_tensors(lambda names, extra=extra: names.append(extra)), None,
                     id=f"{rel}:tensors+{json.dumps(extra)}")
        for rel in (REFLOW, SR) for extra in (5, "bogus")
    ] + [
        # a window of 6 days of 6 steps, or 12 of 3, has the trained 36 steps but is not
        # the run's sr.window_days
        pytest.param(SR, _edit_json(lambda doc, days=days, spd=spd: doc["meta"].update(
            window_days=days, steps_per_day=spd)), None,
            id=f"{SR}:meta.window_days,steps_per_day={days},{spd}")
        for days, spd in ((6, 6), (12, 3))
    ] + [
        pytest.param(rel, _edit_npy(edit), str(Path(_files(rel)[0]).parent / "manifest.json"),
                     id=f"{'+'.join(_files(rel))}:{name}")
        for rel, edit, name in DISAGREEING_TENSORS
    ] + [
        pytest.param(CONFIG, lambda raw: raw.replace(b"steps = 40", b"steps = x", 1), None,
                     id=f"{CONFIG}:debias.steps=x"),
        pytest.param(CONFIG, lambda raw: raw.replace(b"[sample]\n", b"[sample]\nbogus = 1\n"),
                     None, id=f"{CONFIG}:sample.bogus"),
        # a member the checkpoint has no statistics for fails naming the member
        pytest.param(SIDECAR, _put("member_id", value="m009"), "'m009'",
                     id=f"{SIDECAR}:member_id=m009"),
    ]


def test_seed_streams_distinct():
    """Every top-level seed stream (the second entry of a (seed, stream, ...)
    SeedSequence key) draws a sequence of its own."""
    streams = {f"{module.__name__}.{name}": value
               for module in (synthdata, reflow, diffusion, cli)
               for name, value in vars(module).items() if name.endswith("_STREAM")}
    assert len(streams) == 6 and len(set(streams.values())) == len(streams), streams


class TestExitCodes:
    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[synth]\nbogus = 1\n")
        assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2

    def test_missing_inputs_exit_1(self, tmp_path):
        assert main(["train-debias", "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize("stage", ["train-debias", "baseline-qm", "baseline-bcsd"])
    def test_missing_coarse_truth_names_gen_data(self, tiny_config, tmp_path, capsys, stage):
        """Each stage that reads `data/coarse_truth.npy` names it and `gen-data`
        when it is missing, and writes nothing."""
        out = tmp_path / "run"
        args = ["--config", str(tiny_config), "--out", str(out)]
        assert main(["gen-data"] + args) == 0
        missing = out / "data" / "coarse_truth.npy"
        missing.unlink()
        before = _tree(out)
        capsys.readouterr()
        assert main([stage] + args) == 1
        assert capsys.readouterr().err == f"error: missing {missing}; run `gen-data` first\n"
        assert _tree(out) == before

    def test_gen_data_ok(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "data" / "fine_truth.npy").exists()
        assert (out / "config.ini").exists()

    def test_corrupt_input_exits_1_naming_file(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["--config", str(tiny_config), "--out", str(out)]
        assert main(["gen-data"] + args) == 0
        path = out / "data" / "coarse_truth.npy"
        path.write_bytes(path.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["train-debias"] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{path}: truncated payload" in err

    @pytest.mark.parametrize("rel, corrupt, named", _corruptions())
    def test_corrupt_json_exits_1_naming_file(self, e2e_run, tmp_path, capsys, rel, corrupt,
                                              named):
        """A malformed document exits 1 naming it (2 for config.ini), with no traceback
        and no file written. The SR checkpoint is read by `sample`, the rest by `debias`."""
        # a copy by hard links: stages never write to a file in place, and a
        # corrupted document is unlinked before it is rewritten
        out = tmp_path / "run"
        shutil.copytree(e2e_run, out, copy_function=os.link)
        stage = "sample" if _files(rel)[0].startswith("models/sr/") else "debias"
        if stage == "debias":
            shutil.rmtree(out / "debiased")
        else:
            for stale in (out / "samples").glob("downgen.npy*"):
                stale.unlink()
        before = sorted(out.rglob("*"))
        for name in _files(rel):
            path = out / name
            raw = path.read_bytes()
            path.unlink()
            path.write_bytes(corrupt(raw))
        capsys.readouterr()
        code = main([stage, "--config", str(out / CONFIG), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == (2 if rel == CONFIG else 1), err
        assert err.startswith("config error:" if rel == CONFIG else "error:"), err
        assert (named or str(path)) in err
        assert "Traceback" not in err
        assert sorted(out.rglob("*")) == before

    # (overrides, the refusal's text, test id): every rule a setting must keep,
    # each refused before the first stage runs
    REFUSED = [
        (["sample.windows=3"], "sample.windows", "windows-do-not-tile-length"),
        (["sample.start_day=8"], "synth.n_days", "window-past-n-days"),
        (["sr.window_days=1", "sample.length_days=1"], "sr.window_days = 1", "one-day-windows"),
        (["sample.member=m009"], "sample.member = m009", "unknown-member"),
        (["synth.train_days=-5"], "synth.train_days must be at least 360, not -5",
         "no-training-days"),
        (["synth.train_days=180"], "synth.train_days must be at least 360, not 180",
         "half-year-training-period"),
        (["sample.start_day=-3"], "sample.start_day must be at least 0, not -3",
         "start-day-in-training-period"),
        (["debias.transport_steps=0"], "debias.transport_steps must be at least 1, not 0",
         "transport-steps-0"),
        (["debias.transport_steps=-2"], "debias.transport_steps must be at least 1, not -2",
         "transport-steps-minus-2"),
        (["baseline.qm_doy_buckets=0"], "baseline.qm_doy_buckets must be at least 1, not 0",
         "qm-doy-buckets-0"),
        (["baseline.fine_clim_doy_buckets=0"],
         "baseline.fine_clim_doy_buckets must be at least 1, not 0", "fine-clim-doy-buckets-0"),
        (["pipeline.rng_seed=-1"], "pipeline.rng_seed must be at least 0, not -1",
         "rng-seed-minus-1"),
        # stage-config rules
        (["synth.spatial_factor=0"], "synth.spatial_factor must be at least 1, not 0",
         "spatial-factor-0"),
        (["synth.nx=0"], "synth.nx must be at least 1, not 0", "nx-0"),
        (["synth.nx=-4"], "synth.nx must be at least 1, not -4", "nx-minus-4"),
        (["synth.nx=10"], "synth.spatial_factor = 4 must divide the fine grid, nx = 10 by ny = 8",
         "grid-not-divisible"),
        (["synth.seasonal_amp=-1"], "synth.seasonal_amp must be at least 0, not -1.0",
         "negative-amplitude"),
        (["synth.noise_ar1=1"], "synth.noise_ar1 must lie in [0, 1), not 1.0", "noise-ar1-1"),
        (["synth.bias_var_scale=0"], "synth.bias_var_scale must be positive, not 0.0",
         "bias-var-scale-0"),
        (["synth.bias_corr_shrink=2"], "synth.bias_corr_shrink must lie in [0, 1], not 2.0",
         "bias-corr-shrink-2"),
        (["debias.chunk_len_days=0"], "debias.chunk_len_days must be at least 1, not 0",
         "chunk-len-days-0"),
        (["debias.chunks_per_batch=0"], "debias.chunks_per_batch must be at least 1, not 0",
         "chunks-per-batch-0"),
        (["debias.season_window_days=-4"],
         "debias.season_window_days must be at least 0, not -4", "season-window-minus-4"),
        (["sr.batch=0"], "sr.batch must be at least 1, not 0", "sr-batch-0"),
        (["sr.doy_buckets=0"], "sr.doy_buckets must be at least 1, not 0", "doy-buckets-0"),
        (["sr.window_days=0"], "sr.window_days must be at least 1, not 0", "window-days-0"),
        (["sr.p_uncond=1.5"], "sr.p_uncond must lie in [0, 1), not 1.5", "p-uncond-1.5"),
        (["sr.n_grid=1"], "sr.n_grid must be at least 24, not 1", "n-grid-1"),
        (["sr.n_grid=23"], "sr.n_grid must be at least 24, not 23", "n-grid-23"),
        (["sr.sigma_min=0"], "sr.sigma_min must be positive, not 0.0", "sigma-min-0"),
        (["sr.sigma_max=1e-4"], "sr.sigma_max must exceed sigma_min = 0.0001, not 0.0001",
         "sigma-max-at-sigma-min"),
        (["sr.schedule_kind=cosine"], "sr.schedule_kind must be 'edm' or 'tangent', "
                                      "not 'cosine'", "unknown-schedule-kind"),
        (["sr.schedule_kind=tangent"], "sr.schedule_kind = tangent is refused: its last "
         "step, from about 10 to sigma_min, is too long for the sampler (ROADMAP item 17)",
         "tangent-schedule"),
        # the rules of the settings `fit` reads, one for each stage
        (["sr.steps=-3"], "sr.steps must be at least 0, not -3", "sr-steps-minus-3"),
        (["debias.steps=-3"], "debias.steps must be at least 0, not -3", "debias-steps-minus-3"),
        (["sr.levels=0"], "sr.levels must be channel counts of at least 1, not (0,)",
         "sr-levels-0"),
        (["debias.levels=16,0"], "debias.levels must be channel counts of at least 1, "
                                 "not (16, 0)", "debias-levels-16-0"),
        (["sr.clip_norm=0"], "sr.clip_norm must be positive, not 0.0", "sr-clip-norm-0"),
        (["debias.clip_norm=-1"], "debias.clip_norm must be positive, not -1.0",
         "debias-clip-norm-minus-1"),
        (["sr.peak_lr=-1"], "sr.peak_lr must be positive, not -1.0", "sr-peak-lr-minus-1"),
        (["sr.end_lr=-1"], "sr.end_lr must lie in [0, peak_lr = 0.002], not -1.0",
         "sr-end-lr-minus-1"),
        (["debias.end_lr=0.01"], "debias.end_lr must lie in [0, peak_lr = 0.002], not 0.01",
         "debias-end-lr-above-peak"),
        (["sr.warmup_steps=-5"], "sr.warmup_steps must be at least 0, not -5",
         "sr-warmup-minus-5"),
        (["debias.warmup_steps=-5"], "debias.warmup_steps must be at least 0, not -5",
         "debias-warmup-minus-5"),
        # the training period holds a chunk and a window, and covers each climatology
        (["debias.chunk_len_days=400"], "debias.chunk_len_days = 400 exceeds "
                                        "synth.train_days = 360", "chunk-past-training-period"),
        (["synth.n_days=800", "sr.window_days=400", "sample.windows=1",
          "sample.length_days=400"], "sr.window_days = 400 exceeds synth.train_days = 360",
         "window-past-training-period"),
        (["sr.doy_buckets=200"], "sr.doy_buckets = 200 over synth.train_days = 360 days: "
                                 "climatology group 48 of 2400 receives 1 sample(s)",
         "sr-doy-buckets-200"),
        (["baseline.qm_doy_buckets=200"], "baseline.qm_doy_buckets = 200 over "
         "synth.train_days = 360 days: climatology group 4 of 200 receives 1 sample(s)",
         "qm-doy-buckets-200"),
        (["baseline.fine_clim_doy_buckets=200"], "baseline.fine_clim_doy_buckets = 200 over "
         "synth.train_days = 360 days: climatology group 4 of 200 receives 1 sample(s)",
         "fine-clim-doy-buckets-200"),
        # each U-net's depth fits its grid
        (["debias.levels=16,32,64"], "debias.levels = 16,32,64 is too deep for the coarse "
                                     "grid 2 x 2", "debias-levels-too-deep"),
        (["synth.spatial_factor=8"], "debias.levels = 8,16 is too deep for the coarse "
                                     "grid 1 x 1", "spatial-factor-8"),
        (["sr.levels=8,16,32,64,128"], "sr.levels = 8,16,32,64,128 is too deep for the fine "
                                       "grid 8 x 8", "sr-levels-too-deep"),
        # every float key is finite
        (["synth.noise_amp=nan"], "bad value for synth.noise_amp: 'nan' (not a finite number)",
         "noise-amp-nan"),
        (["sample.guidance=inf"], "bad value for sample.guidance: 'inf' (not a finite number)",
         "guidance-inf"),
        (["debias.clip_norm=inf"], "bad value for debias.clip_norm: 'inf' (not a finite number)",
         "debias-clip-norm-inf"),
    ]

    @pytest.mark.parametrize("overrides, message", [case[:2] for case in REFUSED],
                             ids=[case[2] for case in REFUSED])
    def test_refused_settings_exit_2_writing_nothing(self, tiny_config, tmp_path, capsys,
                                                     overrides, message):
        """Each refused setting exits 2 from `e2e` with one `config error:` line
        naming its key, before any stage runs: no run directory is made."""
        out = tmp_path / "run"
        sets = [arg for override in overrides for arg in ("--set", override)]
        code = main(["e2e", "--config", str(tiny_config), "--out", str(out)] + sets)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert message in err
        assert not out.exists()

    def test_evaluate_refuses_partial_run(self, tiny_config, tmp_path, capsys):
        """`evaluate` needs all four method outputs: it names the first one
        missing and the stage that writes it, and writes no metrics."""
        out = tmp_path / "run"
        args = ["--config", str(tiny_config), "--out", str(out)]
        assert main(["gen-data"] + args) == 0
        assert main(["baseline-bcsd"] + args) == 0
        capsys.readouterr()
        assert main(["evaluate"] + args) == 1
        missing = out / "samples" / "downgen.npy"
        assert capsys.readouterr().err == (f"error: missing {missing}; "
                                           "run `sample --source debiased` first\n")
        assert not (out / "metrics").exists()

    def test_python_m_downgen_runs_the_cli(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "downgen", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: downgen")

    def test_cli_calls_stages_by_module_name(self, tmp_path, monkeypatch):
        """`main` reaches each stage through its `cli.stage_*` attribute, as
        perfbench's tracer, which wraps those attributes, needs: `e2e` in the
        table's order, and `sample --source qm` with its source."""
        calls = []

        def recorder(attr):
            def record(cfg, run_dir, output, **kwargs):
                calls.append((attr, output, kwargs))
                (Path(run_dir) / output).mkdir(parents=True)
                return 0
            return record

        for attr in list(vars(cli)):
            if attr.startswith("stage_"):
                monkeypatch.setattr(cli, attr, recorder(attr))
        assert main(["e2e", "--out", str(tmp_path / "run")]) == 0
        assert [(attr, output) for attr, output, _ in calls] == [
            ("stage_gen_data", "data"), ("stage_train_debias", "models/debias"),
            ("stage_train_sr", "models/sr"), ("stage_debias", "debiased"),
            ("stage_baseline_qm", "baselines/qm"), ("stage_baseline_bcsd", "baselines/bcsd"),
            ("stage_sample", "samples/downgen.npy"), ("stage_sample", "samples/qmsr.npy"),
            ("stage_sample", "samples/sr.npy"), ("stage_evaluate", "metrics")]
        assert [output for _, output, _ in calls] == [output for _, output, _ in cli._stages()]
        assert [kwargs.get("source") for _, _, kwargs in calls[6:9]] == ["debiased", "qm", "raw"]

        calls.clear()
        assert main(["sample", "--source", "qm", "--out", str(tmp_path / "one")]) == 0
        assert calls == [("stage_sample", "samples/qmsr.npy", {"source": "qm"})]

    def test_refused_stage_is_never_called(self, tmp_path, monkeypatch, capsys):
        """A single stage whose output exists exits 1 before its function is
        called, so it reads and computes nothing; `e2e` skips every such stage."""
        calls = []
        for attr in list(vars(cli)):
            if attr.startswith("stage_"):
                monkeypatch.setattr(cli, attr, lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "run"
        for name, output, _ in cli._stages():
            (out / output).parent.mkdir(parents=True, exist_ok=True)
            (out / output).touch()
            capsys.readouterr()
            assert main(name.split() + ["--out", str(out)]) == 1, name
            assert capsys.readouterr().err == (f"error: output {out / output} already "
                                               "exists (write-once run directory)\n")
            assert calls == [], name
        assert main(["e2e", "--out", str(out)]) == 0
        assert calls == []
        assert capsys.readouterr().err.count("e2e: skipping ") == len(cli._stages())

    def test_write_once(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 1

    def test_existing_output_refused_and_left_intact(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "data").mkdir(parents=True)
        notes = out / "data" / "my_notes.txt"
        notes.write_bytes(b"not written by any stage\n")
        code = main(["gen-data", "--config", str(tiny_config), "--out", str(out)])
        assert code == 1
        assert "already exists (write-once run directory)" in capsys.readouterr().err
        assert list((out / "data").iterdir()) == [notes]
        assert notes.read_bytes() == b"not written by any stage\n"

    def test_sample_sidecar_without_array_does_not_block_rerun(self, tmp_path):
        # left by a sample stage killed between renaming the sidecar and the array
        samples = tmp_path / "samples"
        samples.mkdir()
        (samples / "downgen.npy.json").write_text("left by a killed stage\n")
        path = cli._output_path(tmp_path, "samples/downgen.npy")
        fld = _fine_field(1, seed=0)
        write_array(fld, path)
        assert read_array(path).data.tobytes() == fld.data.tobytes()
        assert sorted(p.name for p in samples.iterdir()) == ["downgen.npy", "downgen.npy.json"]

    def test_failed_stage_leaves_rerunnable_run_dir(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = ["--config", str(tiny_config), "--out", str(out), "--set", "sr.steps=2"]
        assert main(["gen-data"] + args) == 0

        def fail(*_, out_dir=None, **__):
            (out_dir / "loss.csv").write_text("partial\n")
            raise DivergenceError("non-finite denoising loss")

        monkeypatch.setattr(cli, "train_sr", fail)
        assert main(["train-sr"] + args) == 1
        assert not (out / "models" / "sr").exists()
        assert list((out / "models").iterdir()) == []
        monkeypatch.undo()
        assert main(["train-sr"] + args) == 0
        assert (out / "models" / "sr" / "manifest.json").exists()

    def test_config_mismatch_detected(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["gen-data", "--config", str(tiny_config), "--out", str(out)]) == 0
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        config_text = (out / "config.ini").read_text()
        code = main(["train-debias", "--config", str(tiny_config), "--out", str(out),
                     "--set", "synth.nx=16"])
        assert code == 1
        assert "different configuration" in capsys.readouterr().err
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before
        assert (out / "config.ini").read_text() == config_text


def _fine_field(n_days, seed):
    """Bi-hourly 4x4 field of the four base variables with mild weather noise.

    The air is dry (relative humidity near 15%), so the heat index stays below
    the caution level unless the temperature is raised well above 300 K.
    """
    rng = np.random.default_rng(seed)
    shape = (n_days * 12, 4, 4)
    data = np.stack([290.0 + rng.normal(0.0, 1.0, shape),
                     5.0 + rng.normal(0.0, 1.0, shape),
                     0.002 + rng.normal(0.0, 0.0001, shape),
                     101325.0 + rng.normal(0.0, 100.0, shape)], axis=-1)
    return GridField(data, 0, 2, np.arange(4.0), 30.0 + np.arange(4.0), VAR_NAMES)


def _no_cyclones():
    cfg = default_config()
    cfg["evaluate"]["cyclones"] = False
    return cfg


class TestEvaluateFields:
    def test_truth_against_itself_reads_zero(self):
        truth = _fine_field(2, seed=1)
        report = cli.evaluate_fields(_no_cyclones(), truth, {"truth": truth},
                                     _fine_field(4, seed=2))
        rows = {(e.metric, e.variable): e.value for e in report.entries}
        assert {m for m, _ in rows} == {
            "mab", "wd", "mae_p99", "psd_log_error", "spatial_corr_error",
            "advisory_exceedance_mae", "heat_streak_sq_error"}
        assert {v for _, v in rows} == set(VAR_NAMES) | {"rel_humidity", "heat_index"}
        assert ("advisory_exceedance_mae", "heat_index") in rows
        assert all(("spatial_corr_error", v) in rows for v in VAR_NAMES)
        assert rows == {k: 0.0 for k in rows}

    def test_advisory_exceedance_counts_pixel_steps_over_caution(self):
        truth = _fine_field(2, seed=3)
        data = truth.data.copy()
        data[:3, 0, 0, 0] = 310.0   # 3 of 24 steps at one pixel
        data[6:12, 1, 2, 0] = 310.0  # 6 of 24 steps at another
        pred = truth.with_data(data)
        caution = 300.0
        assert (metrics._derived_fields(truth)[1] < caution).all()
        hot = metrics._derived_fields(pred)[1] > caution
        assert hot.sum() == 9 and hot[:3, 0, 0].all() and hot[6:12, 1, 2].all()
        report = cli.evaluate_fields(_no_cyclones(), truth, {"pred": pred},
                                     _fine_field(4, seed=4))
        # exceedance-fraction errors 3/24 and 6/24 at two of the 16 pixels
        expected = (3 / 24 + 6 / 24) / 16
        values = {(e.metric, e.variable, e.method): e.value for e in report.entries}
        assert values["advisory_exceedance_mae", "heat_index", "pred"] == expected


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
        assert list(e2e_run.rglob("*.partial")) == []
        assert not (e2e_run / "manifest.json").exists()

    def test_metrics_cover_all_methods(self, e2e_run):
        with open(e2e_run / "metrics" / "metrics.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        methods = {r["method"] for r in rows}
        assert methods == {"downgen", "bcsd", "qmsr", "sr"}
        metrics = {r["metric"] for r in rows}
        assert {"mab", "wd", "mae_p99", "psd_log_error", "heat_streak_sq_error",
                "advisory_exceedance_mae", "spatial_corr_error"} <= metrics
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
        cfg = parse_config(e2e_run / "config.ini")
        for model in ("debias", "sr"):
            lines = (e2e_run / "models" / model / "loss.csv").read_text().splitlines()
            assert lines[0] == "step,loss,lr,grad_norm,clipped"
            assert len(lines) == 41  # 40 steps
            clip_norm = cfg[model]["clip_norm"]
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
            assert [r[0] for r in rows] == list(range(40))
            assert all(r[4] == float(r[3] > clip_norm) for r in rows)


def _tree(root):
    """Every path under root, relative to it: a file's bytes, None for a directory."""
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestDeterminism:
    def test_loading_checkpoints_draws_no_random_numbers(self, e2e_run, monkeypatch):
        """A loader checks the `param/` tensors against the arch's shapes without
        initialising a net."""
        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint load drew a random net")
        monkeypatch.setattr(nets, "truncated_normal", refuse)
        for load, stage in ((reflow.load_reflow, "debias"), (diffusion.load_sr, "sr")):
            model = load(e2e_run / "models" / stage)
            assert set(model.params) == {f"{p}/{k}" for p, _, _ in nets.layers(model.arch)
                                         for k in "wb"}

    def test_killed_e2e_resumes_with_e2e(self, e2e_run, tmp_path, capsys):
        """`e2e` on a run killed in train-sr, which left `models/.sr.partial`,
        skips the finished stages, naming each, and ends byte-identical to a
        fresh run. `e2e` on the complete run skips every stage and writes nothing."""
        config = tmp_path / "cfg.ini"
        config.write_text(TINY)
        out = tmp_path / "run"
        args = ["--config", str(config), "--out", str(out)]
        assert main(["gen-data"] + args) == 0
        assert main(["train-debias"] + args) == 0
        stale = out / "models" / ".sr.partial"
        stale.mkdir()
        (stale / "loss.csv").write_text("left by a killed stage\n")
        capsys.readouterr()
        assert main(["e2e"] + args) == 0
        assert capsys.readouterr().err == (
            f"e2e: skipping gen-data: {out / 'data'} exists\n"
            f"e2e: skipping train-debias: {out / 'models' / 'debias'} exists\n")
        assert _tree(out) == _tree(e2e_run)

        stamps = {p: p.stat().st_mtime_ns for p in out.rglob("*")}
        assert main(["e2e"] + args) == 0
        skipped = [("gen-data", "data"), ("train-debias", "models/debias"),
                   ("train-sr", "models/sr"), ("debias", "debiased"),
                   ("baseline-qm", "baselines/qm"), ("baseline-bcsd", "baselines/bcsd"),
                   ("sample --source debiased", "samples/downgen.npy"),
                   ("sample --source qm", "samples/qmsr.npy"),
                   ("sample --source raw", "samples/sr.npy"), ("evaluate", "metrics")]
        assert capsys.readouterr().err == "".join(
            f"e2e: skipping {stage}: {out / rel} exists\n" for stage, rel in skipped)
        assert {p: p.stat().st_mtime_ns for p in out.rglob("*")} == stamps
        assert _tree(out) == _tree(e2e_run)

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
