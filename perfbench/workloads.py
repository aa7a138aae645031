"""The benchmark's three workloads: set-up, one timed repetition, output checks.

Every input is generated from the seed. The stage configurations mirror what
``downgen.cli`` builds from ``configs/demo.ini`` (including that it does not
forward ``synth.noise_ar1``), so train, infer and e2e see the same data. They
are written out here rather than taken from the CLI's private helpers, which
the planned config refactor replaces.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from downgen import (baselines, cli, config, diffusion, grid, metrics, multidiffusion, reflow,
                     synthdata)
from downgen.diffusion import NoiseSchedule, SRTrainConfig
from downgen.reflow import CouplingConfig, ReflowTrainConfig
from downgen.synthdata import BiasSpec, SynthConfig
from tracing import STAGE_TARGETS

# Like tests/test_cli.py's TINY config: same data shapes, small nets and grids.
TINY_SETS = [
    "debias.steps=40", "debias.warmup_steps=10", "debias.levels=8,16",
    "debias.transport_steps=8", "sr.steps=40", "sr.warmup_steps=10", "sr.levels=8,16",
    "sr.doy_buckets=20", "sr.n_grid=24", "sample.length_days=5", "sample.windows=2",
    "sample.start_day=2",
]
# Training steps per timed repetition of `train` (velocity net, SR net).
TRAIN_STEPS = {"demo": (100, 40), "tiny": (20, 10)}
# Training steps before the checkpoints `infer` loads; inference cost does not
# depend on the weights (fixed RK4 steps, fixed sigma grid, no data branches).
INFER_SETUP_STEPS = 4
SOURCE_SEEDS = {"debiased": 0, "qm": 1, "raw": 2}   # as cli.stage_sample
E2E_STAGES = 10   # gen-data, train-debias, train-sr, debias, 2 baselines, 3 samples, evaluate


def config_sets(seed, size):
    return [f"pipeline.rng_seed={seed}"] + (TINY_SETS if size == "tiny" else [])


def load_config(root, seed, size):
    cfg = config.parse_config(Path(root) / "configs" / "demo.ini")
    return config.apply_overrides(cfg, config_sets(seed, size))


def synth_config(cfg):
    s = cfg["synth"]
    return SynthConfig(
        nx=s["nx"], ny=s["ny"], n_days=s["n_days"], n_members=s["n_members"],
        spatial_factor=s["spatial_factor"], spectral_slope=s["spectral_slope"],
        seasonal_amp=s["seasonal_amp"], diurnal_amp=s["diurnal_amp"],
        trend_per_year=s["trend_per_year"], noise_amp=s["noise_amp"],
        rng_seed=cfg["pipeline"]["rng_seed"],
        bias=BiasSpec(mean_offset=s["bias_mean_offset"], var_scale=s["bias_var_scale"],
                      spectral_tilt=s["bias_spectral_tilt"],
                      season_phase_days=s["bias_season_phase_days"],
                      corr_shrink=s["bias_corr_shrink"]))


def reflow_config(cfg, steps):
    d = cfg["debias"]
    return ReflowTrainConfig(
        steps=steps, chunks_per_batch=d["chunks_per_batch"],
        coupling=CouplingConfig(chunk_len_days=d["chunk_len_days"],
                                season_window_days=d["season_window_days"]),
        peak_lr=d["peak_lr"], end_lr=d["end_lr"], warmup_steps=d["warmup_steps"],
        clip_norm=d["clip_norm"], levels=d["levels"], seed=cfg["pipeline"]["rng_seed"])


def sr_config(cfg, steps):
    s = cfg["sr"]
    return SRTrainConfig(
        steps=steps, batch=s["batch"], window_days=s["window_days"],
        spatial_factor=cfg["synth"]["spatial_factor"], p_uncond=s["p_uncond"],
        peak_lr=s["peak_lr"], end_lr=s["end_lr"], warmup_steps=s["warmup_steps"],
        clip_norm=s["clip_norm"], levels=s["levels"], doy_buckets=s["doy_buckets"],
        noise=NoiseSchedule(sigma_min=s["sigma_min"], sigma_max=s["sigma_max"],
                            n_grid=s["n_grid"], kind=s["schedule_kind"]),
        seed=cfg["pipeline"]["rng_seed"])


def train_hours(cfg):
    return cfg["synth"]["train_days"] * 24


def sample_window_hours(cfg):
    start = cfg["synth"]["train_days"] + cfg["sample"]["start_day"]
    return start * 24, (start + cfg["sample"]["length_days"]) * 24


def make_data(cfg):
    """Synthetic pair plus its training-period slices."""
    pair = synthdata.make_synth_pair(synth_config(cfg))
    t = train_hours(cfg)
    return {"pair": pair,
            "members": [m.time_slice(0, t) for m in pair.coarse_biased],
            "target": pair.coarse_truth.time_slice(0, t),
            "truth": pair.fine_truth.time_slice(0, t)}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Rep:
    """One timed repetition: wall and CPU of its timed part, split by stage."""

    wall_s: float
    cpu_s: float
    debias_s: float
    sr_s: float
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)


class Workload:
    """Shared bookkeeping: named checks and bitwise identity across repetitions."""

    name = ""
    stage_targets = []
    min_reps = 2      # the first and last repetitions are compared bitwise

    def __init__(self, root, seed, size, run_dir):
        self.root, self.seed, self.size = Path(root), seed, size
        self.run_dir = Path(run_dir)
        self.cfg = load_config(root, seed, size)
        self.checks = {}
        self._first = {}

    def check(self, name, ok, ops=1):
        """Record a check; returns the number of ops it fails (0 when it passes)."""
        counts = self.checks.setdefault(name, [0, 0])
        counts[0 if ok else 1] += 1
        return 0 if ok else ops

    def same_as_first(self, op, value, ops=1):
        """Bitwise identity of `op`'s output with its first repetition's (checked from
        the second repetition on)."""
        if op not in self._first:
            self._first[op] = value
            return 0
        return self.check("rerun_identical", value == self._first[op], ops)

    def fail(self, name, exc, ops):
        self.checks.setdefault(f"raised:{name}", [0, 0])[1] += 1
        print(f"{self.name}: {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return ops


class Train(Workload):
    """Fixed-length velocity-net and SR-net training at the demo architectures."""

    name = "train"

    def __init__(self, *args):
        super().__init__(*args)
        self.steps = TRAIN_STEPS[self.size]

    def setup(self, index):
        data = make_data(self.cfg)
        data["rcfg"] = reflow_config(self.cfg, self.steps[0])
        data["scfg"] = sr_config(self.cfg, self.steps[1])
        return data

    def _train(self, label, fn, steps):
        """Run one training call; returns (seconds, failed steps, loss log)."""
        t0 = time.perf_counter()
        try:
            model, log = fn()
        except Exception as exc:  # benchmark boundary: count the op, keep measuring
            return time.perf_counter() - t0, self.fail(label, exc, steps), None
        seconds = time.perf_counter() - t0
        losses = np.array([row[1] for row in log])
        failed = self.check("loss_finite", np.isfinite(losses).all(),
                            int((~np.isfinite(losses)).sum()))
        params = [model.params[k] for k in sorted(model.params)]
        failed += self.same_as_first(label, digest(losses, *params), steps - failed)
        return seconds, failed, losses

    def rep(self, state, index, tracer):
        nd, ns = self.steps
        c0 = time.process_time()
        t0 = time.perf_counter()
        d_s, d_fail, d_loss = self._train("train_reflow", lambda: reflow.train_reflow(
            state["members"], state["target"], state["rcfg"]), nd)
        s_s, s_fail, s_loss = self._train("train_sr", lambda: diffusion.train_sr(
            state["truth"], state["scfg"]), ns)
        rep = Rep(time.perf_counter() - t0, time.process_time() - c0, d_s, s_s,
                  attempted=nd + ns, failed=d_fail + s_fail)
        for label, losses in (("reflow", d_loss), ("sr", s_loss)):
            if losses is not None:
                k = max(1, len(losses) // 10)
                rep.notes[f"{label}.loss_first_tenth"] = float(losses[:k].mean())
                rep.notes[f"{label}.loss_last_tenth"] = float(losses[-k:].mean())
        return rep

    def throughput(self, wall_s, debias_s, sr_s):
        return {"train_debias_steps_per_s": (self.steps[0] / debias_s, "1/s"),
                "train_sr_steps_per_s": (self.steps[1] / sr_s, "1/s")}


class Infer(Workload):
    """RK4 transport of every member, then overlapped-window sampling of three sources."""

    name = "infer"

    def setup(self, index):
        data = make_data(self.cfg)
        ckpt = self.run_dir / f"setup{index}"
        reflow.train_reflow(data["members"], data["target"],
                            reflow_config(self.cfg, INFER_SETUP_STEPS), out_dir=ckpt / "debias")
        diffusion.train_sr(data["truth"], sr_config(self.cfg, INFER_SETUP_STEPS),
                           out_dir=ckpt / "sr")
        data["rmodel"] = reflow.load_reflow(ckpt / "debias")
        data["smodel"] = diffusion.load_sr(ckpt / "sr")
        # quantile-mapped input of the sampled member, as cli.stage_baseline_qm
        member = self.cfg["sample"]["member"]
        buckets = (self.cfg["baseline"]["qm_doy_buckets"], 1)
        raw = {m.member_id: m for m in data["pair"].coarse_biased}[member]
        target_clim = grid.compute_climatology(data["target"], buckets)
        member_clim = grid.compute_climatology(
            raw.time_slice(0, train_hours(self.cfg)), buckets)
        data["qm"] = baselines.qm_debias(raw, member_clim, target_clim)
        data["raw"] = raw
        return data

    def rep(self, state, index, tracer):
        cfg, pair = self.cfg, state["pair"]
        h0, h1 = sample_window_hours(cfg)
        n_windows = cfg["sample"]["windows"]
        spd = state["smodel"].spec.temporal_window
        fine_shape = (cfg["sample"]["length_days"] * spd,) + pair.fine_truth.data.shape[1:]
        rep = Rep(0.0, 0.0, 0.0, 0.0)
        c0 = time.process_time()
        t0 = time.perf_counter()
        inputs = {"qm": state["qm"], "raw": state["raw"]}
        for m in pair.coarse_biased:
            rep.attempted += 1
            label = f"transport:{m.member_id}"
            try:
                out = reflow.transport(state["rmodel"], m, m.member_id,
                                       n_steps=cfg["debias"]["transport_steps"])
            except Exception as exc:  # benchmark boundary: count the op, keep measuring
                rep.failed += self.fail(label, exc, 1)
                continue
            bad = self.check("output_finite_and_shaped", out.data.shape == m.data.shape
                             and np.isfinite(out.data).all())
            rep.failed += bad or self.same_as_first(label, digest(out.data))
            if m.member_id == cfg["sample"]["member"]:
                inputs["debiased"] = out
        rep.debias_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        for source in ("debiased", "qm", "raw"):
            rep.attempted += 1
            label = f"sample_long:{source}"
            rng = np.random.default_rng(np.random.SeedSequence(
                (cfg["pipeline"]["rng_seed"], 4, SOURCE_SEEDS[source])))
            try:
                out = multidiffusion.sample_long(
                    state["smodel"], inputs[source].time_slice(h0, h1), n_windows,
                    guidance=cfg["sample"]["guidance"], rng=rng)
            except AssertionError as exc:   # multidiffusion.combine's overlap coherence
                rep.failed += self.check("overlap_coherent", False)
                print(f"infer: {label}: {exc}", file=sys.stderr)
                continue
            except Exception as exc:  # benchmark boundary: count the op, keep measuring
                rep.failed += self.fail(label, exc, 1)
                continue
            self.check("overlap_coherent", True)
            bad = self.check("output_finite_and_shaped", out.data.shape == fine_shape
                             and np.isfinite(out.data).all())
            rep.failed += bad or self.same_as_first(label, digest(out.data))
        rep.sr_s = time.perf_counter() - t1
        rep.wall_s = time.perf_counter() - t0
        rep.cpu_s = time.process_time() - c0
        return rep

    def throughput(self, wall_s, debias_s, sr_s):
        cfg = self.cfg
        member_days = cfg["synth"]["n_members"] * cfg["synth"]["n_days"]
        fine_days = len(SOURCE_SEEDS) * cfg["sample"]["length_days"]
        return {"debias_member_days_per_s": (member_days / debias_s, "member-days/s"),
                "sample_fine_days_per_s": (fine_days / sr_s, "fine-days/s")}


class E2E(Workload):
    """`downgen e2e` on configs/demo.ini, in process, into a fresh run directory."""

    name = "e2e"
    stage_targets = STAGE_TARGETS
    # One 30-40 s repetition per untraced run keeps a full measurement (22 runs
    # per workload) short; comparison.csv identity is checked wherever a run has
    # two repetitions, as every traced run does (one untraced, one traced).
    min_reps = 1

    def setup(self, index):
        """CLI start-up: a fresh interpreter imports the package and parses the config."""
        code = ("import sys; sys.path.insert(0, 'src'); import downgen.cli, downgen.config; "
                "downgen.config.parse_config('configs/demo.ini')")
        # no timeout: with one, Popen.wait polls every 50 ms and quantizes the time
        subprocess.run([sys.executable, "-c", code], cwd=self.root, check=True)
        return {}

    def rep(self, state, index, tracer):
        out = self.run_dir / f"e2e{index}"
        argv = ["e2e", "--config", str(self.root / "configs" / "demo.ini"), "--out", str(out)]
        for s in config_sets(self.seed, self.size):
            argv += ["--set", s]
        first_span = len(tracer.spans)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # benchmark boundary: count the ops, keep measuring
            self.fail("e2e", exc, 0)
            code = None
        rep = Rep(time.perf_counter() - t0, time.process_time() - c0, 0.0, 0.0,
                  attempted=E2E_STAGES)
        stage = {}
        for _, name, a, b, _, _ in tracer.spans[first_span:]:
            if name.startswith("cli."):
                stage[name] = stage.get(name, 0.0) + (b - a)
        rep.debias_s = stage.get("cli.train-debias", 0.0) + stage.get("cli.debias", 0.0)
        rep.sr_s = stage.get("cli.train-sr", 0.0) + stage.get("cli.sample", 0.0)
        try:
            rep.failed = self.check("exit_code_0", code == 0, E2E_STAGES)
            if rep.failed:
                return rep
            comparison = (out / "metrics" / "comparison.csv").read_bytes()
            rep.failed += self.same_as_first("comparison.csv", comparison)
            rep.failed += self.check("debiased_w1_below_raw", self._debiased_closer(out))
            rep.failed += self.check("downgen_wd_below_sr", self._wd_downgen_below_sr(comparison))
            rep.notes["grid.bytes_written"] = sum(
                p.stat().st_size for d in ("data", "debiased", "baselines", "samples")
                for p in (out / d).rglob("*") if p.is_file())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return rep

    def _debiased_closer(self, out):
        """Per variable, W1 to the coarse truth on the evaluated window: debiased < raw."""
        h0, h1 = sample_window_hours(self.cfg)
        member = self.cfg["sample"]["member"]
        truth = grid.read_array(out / "data" / "coarse_truth.npy").time_slice(h0, h1).data
        raw = grid.read_array(out / "data" / "members" / f"{member}.npy").time_slice(h0, h1).data
        deb = grid.read_array(out / "debiased" / f"{member}.npy").time_slice(h0, h1).data
        return all(metrics.wasserstein1(deb[..., v], truth[..., v])
                   < metrics.wasserstein1(raw[..., v], truth[..., v])
                   for v in range(truth.shape[-1]))

    @staticmethod
    def _wd_downgen_below_sr(comparison):
        rows = csv.DictReader(comparison.decode("utf-8").splitlines())
        row = next(r for r in rows if r["metric"] == "wd" and r["variable"] == "temperature")
        return float(row["downgen"]) < float(row["sr"])

    def throughput(self, wall_s, debias_s, sr_s):
        return {"e2e_s": (wall_s, "s")}


WORKLOADS = {"train": Train, "infer": Infer, "e2e": E2E}
