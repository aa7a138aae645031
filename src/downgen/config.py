"""Pipeline configuration: INI sections with typed keys, strict validation.

Unknown sections or keys are rejected. `--set section.key=value` overrides are
applied after the file parse; the resolved configuration is persisted next to
every run's outputs so results can be reproduced from it alone.
"""

from __future__ import annotations

import configparser
import math
import re


class ConfigError(Exception):
    """Invalid configuration (unknown key, bad value); exit status 2."""


def _levels(text):
    out = tuple(int(v) for v in str(text).replace(" ", "").split(",") if v)
    if not out:
        raise ValueError("empty level list")
    return out


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _name(text):
    """A member id or schedule name. Comment, interpolation and other INI syntax
    characters are refused: they would not survive the resolved config."""
    t = str(text)
    if not re.fullmatch(r"[\w.-]+", t):
        raise ValueError(f"not a name of letters, digits, '_', '-' and '.': {t!r}")
    return t


# section -> key -> (parser, default). The defaults are the demonstration
# pipeline: one synthetic 360-day training year plus a short evaluation window.
SCHEMA = {
    "pipeline": {
        "rng_seed": (int, 7),
    },
    "synth": {
        "nx": (int, 8),
        "ny": (int, 8),
        "n_days": (int, 375),
        "train_days": (int, 360),
        "n_members": (int, 2),
        "spatial_factor": (int, 4),
        "spectral_slope": (_float, 2.0),
        "seasonal_amp": (_float, 1.0),
        "diurnal_amp": (_float, 0.3),
        "trend_per_year": (_float, 0.0),
        "noise_amp": (_float, 0.8),
        "noise_ar1": (_float, 0.6),
        "bias_mean_offset": (_float, 0.8),
        "bias_var_scale": (_float, 1.3),
        "bias_spectral_tilt": (_float, 0.0),
        "bias_season_phase_days": (_float, 4.0),
        "bias_corr_shrink": (_float, 0.4),
    },
    "debias": {
        "steps": (int, 400),
        "chunks_per_batch": (int, 4),
        "chunk_len_days": (int, 8),
        "season_window_days": (int, 15),
        "peak_lr": (_float, 2e-3),
        "end_lr": (_float, 1e-6),
        "warmup_steps": (int, 60),
        "clip_norm": (_float, 0.6),
        "levels": (_levels, (16, 32)),
        "transport_steps": (int, 10),
    },
    "sr": {
        "steps": (int, 400),
        "batch": (int, 4),
        "window_days": (int, 3),
        "p_uncond": (_float, 0.15),
        "peak_lr": (_float, 2e-3),
        "end_lr": (_float, 1e-6),
        "warmup_steps": (int, 50),
        "clip_norm": (_float, 0.6),
        "levels": (_levels, (16, 32, 64)),
        "doy_buckets": (int, 36),
        "sigma_min": (_float, 1e-4),
        "sigma_max": (_float, 80.0),
        "n_grid": (int, 40),
        "schedule_kind": (_name, "edm"),
    },
    "sample": {
        "guidance": (_float, 1.0),
        "length_days": (int, 9),
        "windows": (int, 4),
        "start_day": (int, 3),   # offset into the evaluation period
        "member": (_name, "m000"),
    },
    "baseline": {
        "qm_doy_buckets": (int, 1),
        "fine_clim_doy_buckets": (int, 12),
    },
    "evaluate": {
        "cyclones": (_bool, True),
        "plots": (_bool, True),
    },
}


def default_config():
    return {sec: {k: default for k, (_, default) in keys.items()}
            for sec, keys in SCHEMA.items()}


def parse_config(path) -> dict:
    """Parse an INI file against the schema; missing keys take defaults."""
    cfg = default_config()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as f:
            parser.read_file(f)
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(cfg, section, key, raw)
    except (OSError, configparser.Error, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def _apply(cfg, section, key, raw):
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key {section}.{key}")
    parse, _ = SCHEMA[section][key]
    try:
        cfg[section][key] = parse(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def apply_overrides(cfg, overrides):
    """Overrides in `section.key=value` form, applied in order."""
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        _apply(cfg, section.strip(), key.strip(), raw.strip())
    return cfg


def resolved_text(cfg) -> str:
    """The configuration as INI text, every schema key in schema order."""
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            val = cfg[section][key]
            if isinstance(val, tuple):
                val = ",".join(str(v) for v in val)
            lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)
