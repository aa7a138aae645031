import json

import numpy as np
import pytest

from downgen.diffusion import SRTrainConfig
from downgen.grid import GridField, compute_climatology, day_of_year
from downgen.nets import init_params, load_checkpoint, velocity_arch, velocity_forward
from downgen.optim import OptimizerState, Schedule, adam_step
from downgen.reflow import (
    TAU_MIN,
    CouplingConfig,
    ReflowTrainConfig,
    coupling_pool,
    load_reflow,
    reflow_loss,
    sample_coupling,
    save_reflow,
    train_reflow,
    transport,
)
from downgen.synthdata import SynthConfig, make_synth_pair

from gradcheck import finite_diff_grads, loss_and_grads, rel_error


def daily_field(data, member_id=None, time0=0):
    t, nx, ny, nv = data.shape
    lon = np.arange(nx, dtype=float)
    lat = 30.0 + np.arange(ny, dtype=float)
    names = tuple(f"v{i}" for i in range(nv))
    return GridField(data, time0, 24, lon, lat, names, member_id)


def toy_training_data(seed=0, n_days=120, nx=2, ny=2, nv=1, shift=0.0, scale=1.0):
    rng = np.random.default_rng(seed)
    member = daily_field(shift + scale * rng.standard_normal((n_days, nx, ny, nv)), "m000")
    target = daily_field(rng.standard_normal((n_days, nx, ny, nv)), "truth")
    return member, target


class TestFitSettings:
    """The rules of the settings `fit` reads hold alike in both stages' training
    configs, each message starting with the field it refuses."""

    @pytest.mark.parametrize("config", [ReflowTrainConfig, SRTrainConfig])
    @pytest.mark.parametrize("settings, field", [
        ({"steps": -1}, "steps"), ({"warmup_steps": -5}, "warmup_steps"),
        ({"peak_lr": 0.0}, "peak_lr"), ({"peak_lr": float("nan")}, "peak_lr"),
        ({"clip_norm": 0.0}, "clip_norm"), ({"end_lr": -1e-6}, "end_lr"),
        ({"peak_lr": 1e-3, "end_lr": 2e-3}, "end_lr"), ({"levels": ()}, "levels"),
        ({"levels": (8, 0)}, "levels")])
    def test_refused_by_field_name(self, config, settings, field):
        with pytest.raises(ValueError, match=f"^{field} must "):
            config(**settings)

    @pytest.mark.parametrize("config", [ReflowTrainConfig, SRTrainConfig])
    def test_least_values_accepted(self, config):
        config(steps=0, warmup_steps=0, end_lr=0.0, levels=(1,))


class TestSampleCoupling:
    def test_zero_window_matches_exact_doy(self):
        member, target = toy_training_data(seed=1, n_days=60)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        cfg = CouplingConfig(chunk_len_days=4, season_window_days=0)
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = sample_coupling(coupling_pool([member], stats, target, tstats, cfg), rng, 1)
            # with a single shared calendar and window 0, chunks coincide in doy;
            # values must come from the same day-of-year rows
            assert batch.y0.shape == batch.y1.shape == (4, 2, 2, 1)

    def test_chunk_len_one_is_snapshot_pairing(self):
        member, target = toy_training_data(seed=3)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        cfg = CouplingConfig(chunk_len_days=1, season_window_days=5)
        batch = sample_coupling(coupling_pool([member], stats, target, tstats, cfg),
                                np.random.default_rng(4), 3)
        assert batch.y0.shape[0] == 3

    def test_doy_differences_within_window(self):
        member, target = toy_training_data(seed=5, n_days=400)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        window = 7
        cfg = CouplingConfig(chunk_len_days=2, season_window_days=window)
        rng = np.random.default_rng(6)
        member_doys = day_of_year(member.time_coords)
        target_doys = day_of_year(target.time_coords)
        member_norm = (member.data - stats["m000"].mean) / stats["m000"].std
        target_norm = (target.data - tstats.mean) / tstats.std
        for _ in range(200):
            batch = sample_coupling(coupling_pool([member], stats, target, tstats, cfg), rng, 1)
            # identify drawn start days by matching the first snapshot values
            i0 = int(np.nonzero((member_norm == batch.y0[0]).all(axis=(1, 2, 3)))[0][0])
            j0 = int(np.nonzero((target_norm == batch.y1[0]).all(axis=(1, 2, 3)))[0][0])
            d = abs(int(member_doys[i0]) - int(target_doys[j0]))
            assert min(d, 360 - d) <= window

    def test_empty_window_rejected(self):
        member, _ = toy_training_data(seed=7, n_days=30)
        # target occupies a disjoint part of the year
        target = daily_field(np.random.default_rng(8).standard_normal((30, 2, 2, 1)),
                             "truth", time0=100 * 24)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        cfg = CouplingConfig(chunk_len_days=2, season_window_days=3)
        with pytest.raises(ValueError, match="no target chunk"):
            for _ in range(50):
                sample_coupling(coupling_pool([member], stats, target, tstats, cfg),
                                np.random.default_rng(9), 1)


def sample_coupling_loop(members, member_stats, target, target_stats, cfg, rng, n_chunks):
    """The coupling draw as a per-chunk loop that recomputes everything."""
    chunk = cfg.chunk_len_days
    target_doy = day_of_year(target.time_coords)
    parts = []
    for _ in range(n_chunks):
        member = members[int(rng.integers(len(members)))]
        stats = member_stats[member.member_id]
        i0 = int(rng.integers(member.n_times - chunk + 1))
        doy0 = day_of_year(member.time_coords[i0])
        starts = np.arange(target.n_times - chunk + 1)
        d = np.abs(target_doy[starts] - doy0)
        valid = starts[np.minimum(d, 360 - d) <= cfg.season_window_days]
        j0 = int(rng.choice(valid))
        y0 = (member.data[i0: i0 + chunk] - stats.mean) / stats.std
        y1 = (target.data[j0: j0 + chunk] - target_stats.mean) / target_stats.std
        mean = (stats.mean - target_stats.mean) / target_stats.std
        std = stats.std / target_stats.std
        parts.append((y0, y1, np.broadcast_to(mean, y0.shape), np.broadcast_to(std, y0.shape)))
    return [np.concatenate(p) for p in zip(*parts)]


class TestCouplingSampler:
    def test_matches_per_chunk_loop_bitwise(self):
        # draws from the pool train_reflow builds once match what the
        # per-chunk loop draws, from the same generator calls
        rng = np.random.default_rng(32)
        members = [daily_field(2.0 + 1.5 * rng.standard_normal((400, 2, 2, 2)), f"m{i:03d}",
                               time0=24 * 40 * i) for i in range(2)]
        target = daily_field(rng.standard_normal((380, 2, 2, 2)), "truth", time0=24 * 10)
        stats = {m.member_id: compute_climatology(m, (1, 1)) for m in members}
        tstats = compute_climatology(target, (1, 1))
        cfg = CouplingConfig(chunk_len_days=5, season_window_days=9)
        pool = coupling_pool(members, stats, target, tstats, cfg)
        rng_new, rng_ref = np.random.default_rng(33), np.random.default_rng(33)
        for _ in range(50):
            batch = sample_coupling(pool, rng_new, 4)
            ref = sample_coupling_loop(members, stats, target, tstats, cfg, rng_ref, 4)
            got = (batch.y0, batch.y1, batch.stat_mean, batch.stat_std)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestReflowLoss:
    def _setup(self, seed=10):
        member, target = toy_training_data(seed=seed)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        cfg = ReflowTrainConfig(steps=1, levels=(4, 8), seed=seed)
        model, _ = train_reflow([member], target, cfg)
        pool = coupling_pool([member], stats, target, tstats,
                             CouplingConfig(chunk_len_days=4, season_window_days=30))
        batch = sample_coupling(pool, np.random.default_rng(seed + 1), 2)
        return model, batch

    def test_zero_velocity_loss_is_displacement_power(self):
        member, target = toy_training_data(seed=11)
        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        cfg = ReflowTrainConfig(steps=0, levels=(4, 8), seed=11)
        model, _ = train_reflow([member], target, cfg)  # zero-init final layer
        pool = coupling_pool([member], stats, target, tstats,
                             CouplingConfig(chunk_len_days=4, season_window_days=30))
        batch = sample_coupling(pool, np.random.default_rng(12), 2)
        tau = np.random.default_rng(13).uniform(0.2, 0.8, 8)
        loss = float(reflow_loss(model.params, model.arch, batch, tau).data)
        assert abs(loss - np.mean((batch.y1 - batch.y0) ** 2)) < 1e-12

    def test_exact_constant_oracle_velocity_gives_zero_loss(self):
        model, batch = self._setup(seed=14)
        # zero all parameters, then set the output bias so v == 2.5 everywhere
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        model.params["out/conv/b"] = np.full_like(model.params["out/conv/b"], 2.5)
        batch.y1 = batch.y0 + 2.5  # deterministic coupling with displacement 2.5
        tau = np.full(batch.y0.shape[0], 0.4)
        loss = float(reflow_loss(model.params, model.arch, batch, tau).data)
        assert loss < 1e-24

    def test_gradient_check(self):
        model, batch = self._setup(seed=15)
        rng = np.random.default_rng(16)
        params = {k: v + rng.standard_normal(v.shape) * 0.05
                  for k, v in model.params.items()}
        tau = rng.uniform(0.1, 0.9, batch.y0.shape[0])
        names = ["in/conv/w", "out/conv/w", "res0/film_scale/w", "cond_vec/dense/b"]
        sub = {k: params[k] for k in names}

        def f(arrs):
            merged = dict(params)
            merged.update(arrs)
            return float(reflow_loss(merged, model.arch, batch, tau).data)

        _, grads = loss_and_grads(lambda leaves: reflow_loss(leaves, model.arch, batch, tau),
                                  params)
        numeric = finite_diff_grads(f, sub)
        analytic = {k: grads[k] for k in sub}
        assert rel_error(analytic, numeric) < 1e-4


class TestTransport:
    def test_zero_velocity_is_restandardization(self):
        member, target = toy_training_data(seed=17, shift=2.0, scale=3.0)
        model, _ = train_reflow([member], target,
                                ReflowTrainConfig(steps=0, levels=(4, 8), seed=17))
        out = transport(model, member, "m000", n_steps=10)
        stats = model.member_stats["m000"]
        expect = ((member.data - stats.mean) / stats.std) * model.target_stats.std \
            + model.target_stats.mean
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_constant_velocity_adds_displacement_exactly(self):
        member, target = toy_training_data(seed=18)
        model, _ = train_reflow([member], target,
                                ReflowTrainConfig(steps=0, levels=(4, 8), seed=18))
        for k in model.params:
            model.params[k] = np.zeros_like(model.params[k])
        model.params["out/conv/b"] = np.full_like(model.params["out/conv/b"], 1.25)
        stats = model.member_stats["m000"]
        yhat = (member.data - stats.mean) / stats.std
        out = transport(model, member, "m000", n_steps=16)
        expect = (yhat + 1.25) * model.target_stats.std + model.target_stats.mean
        np.testing.assert_allclose(out.data, expect, atol=1e-10)

    def test_unknown_member_rejected(self):
        member, target = toy_training_data(seed=19)
        model, _ = train_reflow([member], target,
                                ReflowTrainConfig(steps=0, levels=(4, 8), seed=19))
        with pytest.raises(ValueError, match="no statistics for member 'nope'"):
            transport(model, member, "nope", n_steps=10)

    def test_gaussian_toy_moment_matching(self):
        rng = np.random.default_rng(20)
        member = daily_field(2.0 + 2.0 * rng.standard_normal((1000, 1, 1, 1)), "m000")
        target = daily_field(rng.standard_normal((1000, 1, 1, 1)), "truth")
        cfg = ReflowTrainConfig(steps=500, levels=(4,), seed=20, peak_lr=2e-3,
                                chunks_per_batch=8)
        model, _ = train_reflow([member], target, cfg)
        out = transport(model, member, "m000", n_steps=25)
        assert abs(out.data.mean()) < 0.1
        assert abs(out.data.std() - 1.0) < 0.1

    def test_transport_matches_per_row_rk4_reference(self):
        # transport passes tau and the member statistics once per velocity
        # evaluation; the reference repeats both on every row
        member, target = toy_training_data(seed=23, nx=4, ny=4, nv=2, shift=1.0)
        model, _ = train_reflow([member], target,
                                ReflowTrainConfig(steps=0, levels=(4, 8), seed=23))
        rng = np.random.default_rng(24)
        for k in model.params:
            model.params[k] = model.params[k] + rng.standard_normal(model.params[k].shape) * 0.1
        stats, tstats = model.member_stats["m000"], model.target_stats
        y = (member.data - stats.mean) / stats.std
        mean_f = np.broadcast_to((stats.mean - tstats.mean) / tstats.std, y.shape)
        std_f = np.broadcast_to(stats.std / tstats.std, y.shape)

        def vel(state, t):
            return velocity_forward(model.params, state, np.full(len(state), t), mean_f, std_f,
                                    model.arch).data

        n_steps = 12
        h = 1.0 / n_steps
        for i in range(n_steps):
            t = i * h
            k1 = vel(y, t)
            k2 = vel(y + 0.5 * h * k1, t + 0.5 * h)
            k3 = vel(y + 0.5 * h * k2, t + 0.5 * h)
            k4 = vel(y + h * k3, t + h)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expect = y * tstats.std + tstats.mean
        out = transport(model, member, "m000", n_steps=n_steps).data
        assert np.abs(out - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_rk4_fourth_order_on_trained_net(self):
        # RK4's error falls as h^4 once its step resolves v's variation in tau.
        # n = 40 (h = 0.025) lies in that range on this net: over training seeds
        # 0-7 the order at n = 40 reads 4.0-4.6, while at n = 20 it still swings
        # from 1.2 to 7.0. A tau embedding with periods below the step
        # (frequencies up to 1e4) gives -0.2 on this seed.
        member, target = toy_training_data(seed=2)
        model, _ = train_reflow([member], target,
                                ReflowTrainConfig(steps=200, levels=(4, 8), seed=2))
        n = 40
        out = {k: transport(model, member, "m000", n_steps=k).data for k in (n, 2 * n, 8 * n)}
        err = {k: np.abs(out[k] - out[8 * n]).mean() for k in (n, 2 * n)}
        assert np.log2(err[n] / err[2 * n]) >= 3.5, err

    def test_transport_injective_on_batch(self):
        member, target = toy_training_data(seed=22)
        cfg = ReflowTrainConfig(steps=120, levels=(4, 8), seed=22, peak_lr=2e-3)
        model, _ = train_reflow([member], target, cfg)
        out = transport(model, member, "m000", n_steps=25)
        flat = out.data.reshape(out.data.shape[0], -1)
        # all 120 transported snapshots distinct
        assert len(np.unique(flat, axis=0)) == flat.shape[0]


class TestTrainReflow:
    def test_loss_halves_on_seasonal_pattern_task(self):
        # displacement is predictable from the state through the seasonal
        # coupling: member and target carry distinct spatial patterns whose
        # mix at time tau reveals the season, so most of the straight-line
        # displacement is learnable and the loss must drop well below half
        rng = np.random.default_rng(23)
        n_days = 720
        doy = np.arange(n_days) % 360
        season = 2.0 * np.cos(2 * np.pi * doy / 360.0)
        p_member = np.array([[1.0, 1.0], [1.0, 1.0]])[None, :, :, None]
        p_target = np.array([[1.0, -1.0], [1.0, -1.0]])[None, :, :, None]
        member = daily_field(season[:, None, None, None] * p_member
                             + 0.3 * rng.standard_normal((n_days, 2, 2, 1)), "m000")
        target = daily_field(season[:, None, None, None] * p_target
                             + 0.3 * rng.standard_normal((n_days, 2, 2, 1)), "truth")
        cfg = ReflowTrainConfig(steps=400, levels=(8, 16), seed=23, peak_lr=3e-3)
        _, log = train_reflow([member], target, cfg)
        first = np.mean([l for _, l, *_ in log[:20]])
        last = np.mean([l for _, l, *_ in log[-20:]])
        assert last < 0.5 * first

    def test_fixed_seed_reproducible(self):
        member, target = toy_training_data(seed=24)
        cfg = ReflowTrainConfig(steps=25, levels=(4, 8), seed=24)
        a, _ = train_reflow([member], target, cfg)
        b, _ = train_reflow([member], target, cfg)
        for k in a.params:
            assert a.params[k].tobytes() == b.params[k].tobytes()

    def test_gaussian_mixture_marginal_matching(self):
        # two-variable toy: unimodal source onto a bimodal target; the trained
        # flow must close at least 80% of the per-dimension Wasserstein gap
        rng = np.random.default_rng(27)
        n = 1200
        src = np.stack([2.0 + 0.8 * rng.standard_normal(n),
                        -1.0 + 0.8 * rng.standard_normal(n)], axis=1)
        comp = rng.integers(0, 2, n)
        tgt = np.stack([np.where(comp, 1.5, -1.5) + 0.4 * rng.standard_normal(n),
                        0.5 * rng.standard_normal(n)], axis=1)
        member = daily_field(src[:, None, None, :], "m000")
        target = daily_field(tgt[:, None, None, :])
        cfg = ReflowTrainConfig(steps=600, levels=(8,), seed=27, peak_lr=3e-3,
                                chunks_per_batch=8,
                                coupling=CouplingConfig(chunk_len_days=4,
                                                        season_window_days=360))
        model, _ = train_reflow([member], target, cfg)
        out = transport(model, member, "m000", n_steps=50)

        def wd(a, b):
            return np.mean([np.abs(np.sort(a[:, v]) - np.sort(b[:, v])).mean()
                            for v in range(2)])

        flat = out.data.reshape(n, 2)
        assert wd(flat, tgt) < 0.2 * wd(src, tgt)

    def test_zero_bias_transport_not_worse_than_identity(self):
        cfg = SynthConfig(nx=8, ny=8, n_days=240, n_members=1, rng_seed=25,
                          seasonal_amp=0.5, diurnal_amp=0.1,
                          var_bases=(0.0, 100.0, 100.0, 0.0),
                          var_scales=(1.0, 1.0, 1.0, 1.0))
        pair = make_synth_pair(cfg)
        member = pair.coarse_biased[0]
        tcfg = ReflowTrainConfig(steps=250, levels=(8, 16), seed=25, peak_lr=2e-3)
        model, _ = train_reflow([member], pair.coarse_truth, tcfg)
        out = transport(model, member, member.member_id, n_steps=25)
        tstats = model.target_stats

        def mean_pixel_wd(a, b):
            an = (a - tstats.mean) / tstats.std
            bn = (b - tstats.mean) / tstats.std
            sa = np.sort(an, axis=0)
            sb = np.sort(bn, axis=0)
            return np.abs(sa - sb).mean()

        wd_identity = mean_pixel_wd(member.data, pair.coarse_truth.data)
        wd_transport = mean_pixel_wd(out.data, pair.coarse_truth.data)
        assert wd_transport <= wd_identity + 0.05

    def test_checkpoint_round_trip(self, tmp_path):
        member, target = toy_training_data(seed=26)
        cfg = ReflowTrainConfig(steps=5, levels=(4, 8), seed=26)
        model, _ = train_reflow([member], target, cfg, out_dir=tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "loss.csv").exists()
        arrays, meta = load_checkpoint(tmp_path / "ckpt", "reflow", lambda *doc: doc)
        assert not [k for k in arrays if k.startswith("adam_")]
        assert meta["step"] == cfg.steps
        assert meta == {"kind": "reflow", "step": cfg.steps, "levels": [4, 8],
                        "tau_freqs": [1.0, 100.0]}
        back = load_reflow(tmp_path / "ckpt")
        # rebuilt from the tensors and meta.levels, as train_reflow built them
        assert back.arch == model.arch
        assert list(back.member_stats) == list(model.member_stats) == ["m000"]
        assert set(back.params) == set(model.params)
        for k in model.params:
            assert back.params[k].tobytes() == model.params[k].tobytes()
        # every one-group table comes back bitwise, stored without its group axis
        tables = [(model.target_stats, back.target_stats, "target_stats"),
                  (model.member_stats["m000"], back.member_stats["m000"], "member_stats/m000")]
        for stats, back_stats, name in tables:
            assert (back_stats.doy_buckets, back_stats.tod_buckets) == (1, 1)
            for field in ("mean", "std"):
                assert getattr(back_stats, field).tobytes() == getattr(stats, field).tobytes()
                assert arrays[f"{name}/{field}"].shape == target.data.shape[1:]
        out_a = transport(model, member, "m000", n_steps=5)
        out_b = transport(back, member, "m000", n_steps=5)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_checkpoint_without_tau_frequencies_refused(self, tmp_path):
        # a net trained on other tau frequencies has the same tensor shapes, so only
        # the manifest can tell; one without the key was trained on [1, 1e4]
        member, target = toy_training_data(seed=29)
        train_reflow([member], target, ReflowTrainConfig(steps=0, levels=(4, 8), seed=29),
                     out_dir=tmp_path)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["meta"]["tau_freqs"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=r"meta\.tau_freqs is None, not this velocity "
                                             r"net's \[1\.0, 100\.0\]"):
            load_reflow(tmp_path)

    def test_matches_reference_loop_bitwise(self):
        # pins the draw order: one generator seeded from (seed, 2) initializes
        # the parameters, then every step draws the coupling batch, then tau,
        # and takes one clipped Adam step on the warmup+cosine schedule
        member, target = toy_training_data(seed=28)
        cfg = ReflowTrainConfig(steps=4, levels=(4, 8), seed=28, warmup_steps=2)
        model, log = train_reflow([member], target, cfg)

        stats = {"m000": compute_climatology(member, (1, 1))}
        tstats = compute_climatology(target, (1, 1))
        rng = np.random.default_rng(np.random.SeedSequence((28, 2)))
        arch = velocity_arch(1, levels=(4, 8))
        params = init_params(rng, arch)
        state = OptimizerState(Schedule(peak_lr=cfg.peak_lr, end_lr=cfg.end_lr,
                                        warmup_steps=2, total_steps=4),
                               clip_norm=cfg.clip_norm)
        ref_log = []
        for step in range(4):
            batch = sample_coupling(coupling_pool([member], stats, target, tstats, cfg.coupling),
                                    rng, cfg.chunks_per_batch)
            tau = rng.uniform(TAU_MIN, 1.0 - TAU_MIN,
                              cfg.chunks_per_batch * cfg.coupling.chunk_len_days)
            loss, grads = loss_and_grads(lambda leaves: reflow_loss(leaves, arch, batch, tau),
                                         params)
            lr = adam_step(params, state, grads)
            ref_log.append((step, loss, lr, state.grad_norm,
                            int(state.grad_norm > cfg.clip_norm)))
        assert log == ref_log
        assert set(model.params) == set(params)
        for k in params:
            assert model.params[k].tobytes() == params[k].tobytes()
