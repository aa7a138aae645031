"""Kernel sheet: single layers timed in isolation at the demo shapes.

It runs after the traced repetitions, with no wrappers installed, and is the
same on every workload: its inputs come from the demo configuration and the
run's seed, and its nets are built by two training steps.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path

import numpy as np

from downgen import autodiff, diffusion, multidiffusion, nets, optim, reflow
from downgen.autodiff import Tensor

import workloads


def timed(fn, min_reps, min_s):
    """Median wall seconds of `fn()` over at least `min_reps` calls and `min_s` seconds."""
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def conv_cases(smodel, rmodel, cfg):
    """(name, H, W, Cin, Cout, training batch, inference batch) at each U-net level."""
    nx = cfg["synth"]["nx"]
    coarse = nx // cfg["synth"]["spatial_factor"]
    sr_train = cfg["sr"]["batch"]
    vel_train = cfg["debias"]["chunks_per_batch"] * cfg["debias"]["chunk_len_days"]
    vel_infer = cfg["synth"]["n_days"]
    cases = []
    for prefix, arch, side, train_b, infer_b, with_out in (
            ("sr", smodel.arch, nx, sr_train, 2, True),           # CFG: both branches in one batch
            ("vel", rmodel.arch, coarse, vel_train, vel_infer, False)):
        levels = arch.levels
        cases.append((f"{prefix}-in", side, side, arch.in_channels, levels[0], train_b, infer_b))
        for i, c in enumerate(levels):
            cases.append((f"{prefix}-l{i}", side >> i, side >> i, c, c, train_b, infer_b))
        if with_out:
            cases.append((f"{prefix}-out", side, side, levels[0], arch.out_channels,
                          train_b, infer_b))
    return cases


def tape_nodes(out):
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def kernel_sheet(root, seed, scratch, quick=False):
    """name -> (value, unit) for every kernel in the sheet; checkpoints go under `scratch`."""
    reps, min_s = (2, 0.0) if quick else (5, 0.05)
    cfg = workloads.load_config(root, seed, "demo")
    data = workloads.make_data(cfg)
    rmodel, _ = reflow.train_reflow(data["members"], data["target"],
                                    workloads.reflow_config(cfg, 2))
    smodel, _ = diffusion.train_sr(data["truth"], workloads.sr_config(cfg, 2))
    rng = np.random.default_rng(seed)
    out = {}

    for name, h, w, cin, cout, train_b, infer_b in conv_cases(smodel, rmodel, cfg):
        wt = Tensor(rng.standard_normal((3, 3, cin, cout)) * 0.05)
        bias = Tensor(np.zeros(cout))
        x = Tensor(rng.standard_normal((train_b, h, w, cin)))
        y = autodiff.conv2d(x, wt, bias)
        g = rng.standard_normal(y.shape)
        fwd = timed(lambda: autodiff.conv2d(x, wt, bias), reps, min_s)
        bwd = timed(lambda: y.vjp(g), reps, min_s)
        xi = Tensor(rng.standard_normal((infer_b, h, w, cin)))
        inf = timed(lambda: autodiff.conv2d(xi, wt, bias), reps, min_s)
        flops = 2.0 * train_b * h * w * 9 * cin * cout
        key = f"autodiff.conv2d.{name}"
        out[f"{key}.train.fwd_us"] = (fwd * 1e6, "us")
        out[f"{key}.train.bwd_us"] = (bwd * 1e6, "us")
        out[f"{key}.infer.fwd_us"] = (inf * 1e6, "us")
        out[f"{key}.gflops"] = (flops / fwd / 1e9, "GFLOP/s")

    # one member's full series, normalized as reflow.transport does
    member = data["pair"].coarse_biased[0]
    stats = rmodel.member_stats[member.member_id]
    yhat = (member.data - stats.mean) / stats.std
    mean_c = np.broadcast_to((stats.mean - rmodel.target_stats.mean) / rmodel.target_stats.std,
                             yhat.shape)
    std_c = np.broadcast_to(stats.std / rmodel.target_stats.std, yhat.shape)
    vleaves = nets.as_leaves(rmodel.params)
    tau = np.full(yhat.shape[0], 0.5)
    vel = lambda: nets.velocity_forward(vleaves, yhat, tau, mean_c, std_c, rmodel.arch)
    out["nets.velocity_forward.transport_ms"] = (timed(vel, reps, min_s) * 1e3, "ms")
    out["autodiff.tape_nodes.velocity_forward"] = (tape_nodes(vel()), "count")
    out["reflow.rk4_step_ms"] = (timed(lambda: reflow.integrate_velocity(
        rmodel, yhat, mean_c, std_c, n_steps=1), reps, min_s) * 1e3, "ms")

    sleaves = nets.as_leaves(smodel.params)
    spd = smodel.spec.temporal_window
    z = rng.standard_normal((2, smodel.window_days * spd) + data["truth"].data.shape[1:])
    cond = rng.standard_normal(z.shape)
    sig = np.array([1.0, 1.0])
    den = lambda: nets.denoiser_forward(sleaves, z, sig, cond, smodel.arch)
    out["nets.denoiser_forward.cfg_ms"] = (timed(den, reps, min_s) * 1e3, "ms")
    out["autodiff.tape_nodes.denoiser_forward"] = (tape_nodes(den()), "count")

    for label, model in (("sr", smodel), ("vel", rmodel)):
        params = {k: v.copy() for k, v in model.params.items()}
        grads = {k: rng.standard_normal(v.shape) * 1e-3 for k, v in params.items()}
        state = optim.OptimizerState(optim.Schedule(), clip_norm=0.6)
        out[f"optim.adam_step.{label}_ms"] = (timed(
            lambda: optim.adam_step(params, state, grads), reps, min_s) * 1e3, "ms")

    # one multidiffusion step: sample_long at 6 grid points minus at 2, per extra step
    h0, h1 = workloads.sample_window_hours(cfg)
    window = member.time_slice(h0, h1)
    n_windows = cfg["sample"]["windows"]

    def sample_at(n_grid):
        model = dataclasses.replace(
            smodel, schedule=dataclasses.replace(smodel.schedule, n_grid=n_grid))
        return timed(lambda: multidiffusion.sample_long(
            model, window, n_windows, rng=np.random.default_rng(0)), min(reps, 3), 0.0)

    out["multidiffusion.step_ms"] = ((sample_at(6) - sample_at(2)) / 4 * 1e3, "ms")

    # both checkpoints with Adam buffers, as train_reflow/train_sr write them
    ckpt = Path(scratch) / "kernel-ckpt"

    def opt_state(model):
        state = optim.OptimizerState(optim.Schedule())
        state.ensure_buffers(model.params)
        return state

    sstate, rstate = opt_state(smodel), opt_state(rmodel)

    def save():
        diffusion.save_sr(smodel, ckpt / "sr", opt_state=sstate)
        reflow.save_reflow(rmodel, ckpt / "debias", opt_state=rstate)

    out["nets.save_checkpoint.s"] = (timed(save, reps, 0.0), "s")
    out["nets.load_checkpoint.s"] = (timed(lambda: (diffusion.load_sr(ckpt / "sr"),
                                                    reflow.load_reflow(ckpt / "debias")),
                                           reps, 0.0), "s")
    out["nets.checkpoint_bytes"] = (sum(p.stat().st_size for p in ckpt.rglob("*")
                                        if p.is_file()), "B")
    return out
