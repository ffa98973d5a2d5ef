"""Editing procedures: guided inversion and the coupled-trajectory editor.

The load-bearing checks are the zero-knob reductions: each editor at zero
guidance strength must reproduce its plain pipeline bit-for-bit, because the
baselines are kept as independent loops rather than parameterizations of the
guided code.
"""

from dataclasses import replace

import numpy as np
import pytest

from otflow import (
    Condition,
    FieldRegistry,
    FlowEditConfig,
    GuidanceScales,
    InversionEditConfig,
    LatentCodec,
    NumericalAbort,
    RngSeed,
    TransportConfig,
    baseline_flowedit,
    controller_guided_velocity,
    denoise,
    make_time_grid,
    make_velocity,
    rf_invert,
    transport_enhanced_flowedit,
    transport_guided_inversion_edit,
)


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _two_cluster_registry():
    reg = FieldRegistry()
    rng = _rng(60)
    reg.add_points("a", rng.standard_normal((12, 2)) * 0.4 + np.array([-1.5, 0.0]))
    reg.add_points("b", rng.standard_normal((12, 2)) * 0.4 + np.array([1.5, 0.5]))
    return reg


def _transport(beta0, **kw):
    defaults = dict(phi=0.3, delta=0.01, clip_tau=1.0, orientation="elapsed")
    defaults.update(kw)
    return TransportConfig(beta0=beta0, **defaults)


def test_rng_seed_validation_and_determinism():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2 ** 64)
    with pytest.raises(ValueError):
        RngSeed(1.5)
    s = RngSeed(np.int64(7))
    assert s.seed == 7 and isinstance(s.seed, int)
    a = RngSeed(7).generator().standard_normal(5)
    b = RngSeed(7).generator().standard_normal(5)
    assert np.array_equal(a, b)
    c = RngSeed(8).generator().standard_normal(5)
    assert not np.array_equal(a, c)


def test_controller_guided_velocity_endpoints_and_blend():
    v_tar = np.array([1.0, 0.0])
    v_ref = np.array([0.0, 2.0])
    assert controller_guided_velocity(v_tar, v_ref, 0.0) is v_tar
    assert controller_guided_velocity(v_tar, v_ref, 1.0) is v_ref
    got = controller_guided_velocity(v_tar, v_ref, 0.6)
    assert np.allclose(got, v_tar + 0.6 * (v_ref - v_tar), atol=1e-15)
    with pytest.raises(ValueError):
        controller_guided_velocity(v_tar, v_ref, 1.2)
    with pytest.raises(ValueError):
        controller_guided_velocity(v_tar, v_ref, -0.1)


def test_inversion_config_validation():
    grid = make_time_grid(8, 1.0, 0.0)
    ok = dict(transport=_transport(0.0), grid=grid,
              condition_target=Condition.dataset("a"), scales=GuidanceScales())
    with pytest.raises(ValueError):
        InversionEditConfig(eta=1.5, **ok)
    with pytest.raises(ValueError):
        InversionEditConfig(eta=0.5, eta_window=(0.2, 0.8), **ok)
    with pytest.raises(ValueError):
        InversionEditConfig(eta=0.5, eta_window=(1.2, 0.0), **ok)
    fwd = dict(ok)
    fwd["grid"] = make_time_grid(8, 0.0, 1.0)
    with pytest.raises(ValueError):
        InversionEditConfig(eta=0.5, **fwd)


def test_flowedit_config_validation_and_defaults():
    grid = make_time_grid(10, 1.0, 0.0)
    ok = dict(transport=_transport(0.0), grid=grid, cond_src=Condition.dataset("a"),
              cond_tar=Condition.dataset("b"), scales=GuidanceScales())
    cfg = FlowEditConfig(seed=3, **ok)
    assert cfg.seed == RngSeed(3)   # plain ints are coerced
    assert cfg.n_max == 10          # defaults to every step active
    with pytest.raises(ValueError):
        FlowEditConfig(seed=0, n_avg=0, **ok)
    with pytest.raises(ValueError):
        FlowEditConfig(seed=0, n_min=5, n_max=3, **ok)
    with pytest.raises(ValueError):
        FlowEditConfig(seed=0, n_max=11, **ok)
    with pytest.raises(ValueError, match="^n_min must be an integer, got 2.5$"):
        FlowEditConfig(seed=0, n_min=2.5, **ok)
    with pytest.raises(ValueError, match="^n_max must be an integer, got 6.0$"):
        FlowEditConfig(seed=0, n_max=6.0, **ok)
    fwd = dict(ok)
    fwd["grid"] = make_time_grid(10, 0.0, 1.0)
    with pytest.raises(ValueError):
        FlowEditConfig(seed=0, **fwd)


def test_inversion_edit_zero_knobs_equals_plain_pipeline():
    # eta = 0, beta0 = 0 must reduce to invert-under-null then denoise-under-
    # target, computed here by composing the plain pipeline functions.
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(28, 1.0, 0.0)
    scales = GuidanceScales(w=2.0)
    cfg = InversionEditConfig(eta=0.0, transport=_transport(0.0), grid=grid,
                              condition_target=Condition.dataset("b"), scales=scales)
    x0 = np.array([-1.2, 0.3])
    res = transport_guided_inversion_edit(cfg, reg, codec, x0)

    null_field = make_velocity(reg, Condition.null(), scales)
    zT = rf_invert(null_field, x0, grid.reversed()).final_state
    tar_field = make_velocity(reg, Condition.dataset("b"), scales)
    plain = denoise(tar_field, zT, grid)
    assert np.array_equal(res.output, plain.final_state)
    assert np.array_equal(res.trajectory.states, plain.states)
    assert res.summary.transport_work == 0.0


@pytest.mark.parametrize("n_max, n_min", [(24, 4), (28, 0), (28, 28), (24, 24), (1, 1)],
                         ids=["switch-late", "no-switch", "switch-at-0", "switch-first-active",
                              "one-active-step"])
def test_flowedit_zero_beta_equals_baseline(n_max, n_min):
    # At beta0 = 0 the guided editor equals the independent baseline loop
    # bit for bit, wherever the switch to plain denoising falls on the
    # 28-step grid: at grid index 0, at the first active index, never, or
    # on the one active step.
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(28, 1.0, 0.0)
    scales = GuidanceScales(w_src=1.5, w_tar=5.5)
    common = dict(grid=grid, cond_src=Condition.dataset("a"),
                  cond_tar=Condition.dataset("b"), scales=scales, seed=11,
                  n_avg=2, n_max=n_max, n_min=n_min)
    x0 = np.array([-1.4, -0.1])
    guided = transport_enhanced_flowedit(
        FlowEditConfig(transport=_transport(0.0), **common), reg, codec, x0)
    base = baseline_flowedit(
        FlowEditConfig(transport=_transport(0.9), **common), reg, codec, x0)
    assert np.array_equal(guided.output, base.output)
    for column in ("states", "velocities", "transport_norms", "weights"):
        assert np.array_equal(getattr(guided.trajectory, column),
                              getattr(base.trajectory, column)), column
    assert guided.summary.transport_work == 0.0
    assert base.summary.transport_work == 0.0


def test_flowedit_same_condition_is_identity():
    # cond_src == cond_tar makes the difference velocity exactly zero at
    # every draw, so the state never moves.
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(16, 1.0, 0.0)
    cfg = FlowEditConfig(transport=_transport(0.0), grid=grid,
                         cond_src=Condition.dataset("a"), cond_tar=Condition.dataset("a"),
                         scales=GuidanceScales(w_src=3.0, w_tar=3.0), seed=5)
    x0 = np.array([-1.5, 0.2])
    res = transport_enhanced_flowedit(cfg, reg, codec, x0)
    assert res.summary.displacement_l2 == 0.0
    assert np.array_equal(res.output, x0)


def test_flowedit_single_atom_task_lands_on_target():
    # One atom per dataset makes both branch fields conditional-linear, so
    # the difference velocity is draw-independent and the editor must carry
    # u to D regardless of seed.
    reg = FieldRegistry()
    u = np.array([0.0, 0.0])
    D = np.array([3.0, 0.0])
    reg.add_points("u", u[None, :])
    reg.add_points("D", D[None, :])
    codec = LatentCodec.identity(2)
    grid = make_time_grid(28, 1.0, 0.0)
    outs = []
    for seed in (0, 123):
        cfg = FlowEditConfig(transport=_transport(0.0), grid=grid,
                             cond_src=Condition.dataset("u"), cond_tar=Condition.dataset("D"),
                             scales=GuidanceScales(), seed=seed)
        outs.append(transport_enhanced_flowedit(cfg, reg, codec, u).output)
    assert np.linalg.norm(outs[0] - D) <= 1e-9
    assert np.linalg.norm(outs[0] - outs[1]) <= 1e-9


def _gaussian_pair_registry():
    reg = FieldRegistry()
    reg.add_gaussian("a", np.array([-1.5, 0.0]), 0.16 * np.eye(2))
    reg.add_gaussian("b", np.array([1.5, 0.5]), 0.16 * np.eye(2))
    return reg


def test_inversion_transport_strength_scales_deviation():
    # The transport term enters the reverse step with the model velocity's
    # sign, so growing beta0 moves the output monotonically away from the
    # unguided endpoint and the logged work grows linearly (the direction is
    # clipped throughout this configuration).
    reg = _gaussian_pair_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(28, 1.0, 0.0)
    x0 = np.array([-1.3, 0.1])
    dev, work = [], []
    base = None
    for beta0 in (0.0, 0.05, 0.1, 0.2):
        cfg = InversionEditConfig(eta=0.0, transport=_transport(beta0), grid=grid,
                                  condition_target=Condition.dataset("b"),
                                  scales=GuidanceScales(w=2.0))
        res = transport_guided_inversion_edit(cfg, reg, codec, x0)
        if base is None:
            base = res.output
        dev.append(float(np.linalg.norm(res.output - base)))
        work.append(res.summary.transport_work)
    assert dev[0] == 0.0 and work[0] == 0.0
    assert all(d2 > d1 for d1, d2 in zip(dev, dev[1:]))
    assert all(w2 > w1 for w1, w2 in zip(work, work[1:]))


def test_inversion_transport_work_sums_the_clipped_norms():
    # Each row's transport_work is the sum over its trajectory columns of
    # weight * min(transport_norm, clip_tau) * |dt|.  The clip binds on the
    # first weighted steps (raw norms up to about 9x clip_tau) and not on the
    # later ones, so the sum of the raw norms would differ.
    reg = _gaussian_pair_registry()
    grid = make_time_grid(28, 1.0, 0.0)
    cfg = InversionEditConfig(eta=0.5, transport=_transport(0.2, clip_tau=10.0), grid=grid,
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=2.0))
    x0 = np.array([[-1.3, 0.1], [-1.7, -0.2], [-1.5, 0.4]])
    res = transport_guided_inversion_edit(cfg, reg, LatentCodec.identity(2), x0,
                                          beta0=np.array([0.1, 0.2, 0.4]))
    norms, weights = res.trajectory.transport_norms, res.trajectory.weights
    on = weights[:-1] > 0.0
    assert (on & (norms[:-1] > 10.0)).any() and (on & (norms[:-1] < 10.0)).any()
    dts = np.abs(np.diff(grid.points))
    for i, summary in enumerate(res.summary):
        want = sum(w * min(n, 10.0) * dt for w, n, dt in zip(weights[:-1, i], norms[:-1, i], dts))
        assert summary.transport_work == pytest.approx(want, rel=1e-12)
        raw = sum(w * n * dt for w, n, dt in zip(weights[:-1, i], norms[:-1, i], dts))
        assert raw > 1.01 * want


def test_flowedit_transport_pulls_toward_source():
    # FlowEdit's transport direction points from the source latent to the
    # current state, so under the signed reverse step it contracts the edit
    # toward the source: displacement falls strictly as beta0 grows while the
    # edit still lands on the target side.
    reg = FieldRegistry()
    reg.add_gaussian("src", np.array([-2.0, 0.0]), 0.16 * np.eye(2))
    reg.add_gaussian("tar", np.array([2.0, 0.0]), 0.16 * np.eye(2))
    codec = LatentCodec.identity(2)
    grid = make_time_grid(28, 1.0, 0.0)
    x0 = np.array([-2.3, 0.2])
    disp = []
    for beta0 in (0.0, 0.3, 0.7, 1.0):
        t = TransportConfig(beta0=beta0, phi=1.0, delta=0.01, clip_tau=1.0,
                            orientation="remaining")
        cfg = FlowEditConfig(transport=t, grid=grid, cond_src=Condition.dataset("src"),
                             cond_tar=Condition.dataset("tar"),
                             scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=7,
                             n_max=24)
        res = transport_enhanced_flowedit(cfg, reg, codec, x0)
        disp.append(res.summary.displacement_l2)
    assert all(d2 < d1 for d1, d2 in zip(disp, disp[1:]))
    assert disp[-1] > 3.0  # still an edit, not a collapse back to the source


def test_inversion_scalar_codec_scales_metrics():
    # decode is affine with scalar scale 2, so the data-space reconstruction
    # error is exactly twice the latent displacement.
    reg = _two_cluster_registry()
    codec = LatentCodec(np.full(2, 2.0), np.zeros(2))
    grid = make_time_grid(20, 1.0, 0.0)
    cfg = InversionEditConfig(eta=0.3, transport=_transport(0.1), grid=grid,
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=2.0))
    res = transport_guided_inversion_edit(cfg, reg, codec, np.array([-1.0, 0.4]))
    assert res.summary.reconstruction_l2 == pytest.approx(
        2.0 * res.summary.displacement_l2, rel=1e-12)


def test_inversion_default_target_is_source():
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(16, 1.0, 0.0)
    cfg = InversionEditConfig(eta=0.4, transport=_transport(0.1), grid=grid,
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=2.0))
    x0 = np.array([-1.1, -0.2])
    explicit = transport_guided_inversion_edit(cfg, reg, codec, x0, x_target=x0)
    default = transport_guided_inversion_edit(cfg, reg, codec, x0)
    assert np.array_equal(explicit.output, default.output)
    assert np.array_equal(explicit.trajectory.states, default.trajectory.states)


def test_inversion_eta_window_degenerate_equals_eta_zero():
    # A window of measure zero never activates the controller, matching
    # eta = 0 bit-for-bit.
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(16, 1.0, 0.0)
    base = dict(transport=_transport(0.1), grid=grid,
                condition_target=Condition.dataset("b"), scales=GuidanceScales(w=2.0))
    x0 = np.array([-1.6, 0.5])
    gated = transport_guided_inversion_edit(
        InversionEditConfig(eta=0.7, eta_window=(0.0, 0.0), **base), reg, codec, x0)
    off = transport_guided_inversion_edit(
        InversionEditConfig(eta=0.0, **base), reg, codec, x0)
    assert np.array_equal(gated.output, off.output)


def test_editors_deterministic_under_same_seed():
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(24, 1.0, 0.0)
    cfg = FlowEditConfig(transport=_transport(0.5, phi=1.0, orientation="remaining"),
                         grid=grid, cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"),
                         scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=9,
                         n_avg=3, n_max=20, n_min=2)
    x0 = np.array([-1.2, 0.0])
    r1 = transport_enhanced_flowedit(cfg, reg, codec, x0)
    r2 = transport_enhanced_flowedit(cfg, reg, codec, x0)
    assert np.array_equal(r1.output, r2.output)
    assert np.array_equal(r1.trajectory.states, r2.trajectory.states)
    assert r1.summary == r2.summary


def test_flowedit_records_skip_steps_without_motion():
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(10, 1.0, 0.0)
    cfg = FlowEditConfig(transport=_transport(0.0), grid=grid,
                         cond_src=Condition.dataset("a"), cond_tar=Condition.dataset("b"),
                         scales=GuidanceScales(), seed=1, n_max=6)
    x0 = np.array([-1.5, 0.0])
    res = transport_enhanced_flowedit(cfg, reg, codec, x0)
    # k = 10..7 > n_max = 6: the first four recorded states equal the start.
    for i in range(5):
        assert np.array_equal(res.trajectory.states[i], res.trajectory.states[0])
    assert not np.array_equal(res.trajectory.states[5], res.trajectory.states[0])


def test_editor_trajectories_carry_meta():
    # Each editor labels its trajectory (the flowedit pair with its seed).
    # flowedit at beta0 > 0 records the transport norm and weight of its
    # active steps and 0 on skipped, plain-denoising and final records.
    reg = _two_cluster_registry()
    codec = LatentCodec.identity(2)
    grid = make_time_grid(24, 1.0, 0.0)
    x0 = np.array([-1.2, 0.0])
    cfg = FlowEditConfig(transport=_transport(0.5, phi=1.0, orientation="remaining"),
                         grid=grid, cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"),
                         scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=9,
                         n_avg=3, n_max=20, n_min=2)
    traj = transport_enhanced_flowedit(cfg, reg, codec, x0).trajectory
    assert traj.meta == {"algorithm": "flowedit", "seed": 9}
    # Active grid indices j have n_min < 24 - j <= n_max, so j = 4..21; at
    # j = 4 the state still equals the source and the direction is 0.
    idle = np.r_[0:4, 22:25]
    for column in (traj.transport_norms, traj.weights):
        assert np.all(column[5:22] > 0.0) and not column[idle].any()
    assert traj.transport_norms[-1] == 0.0 and traj.weights[-1] == 0.0
    assert baseline_flowedit(cfg, reg, codec, x0).trajectory.meta == {
        "algorithm": "flowedit_baseline", "seed": 9}
    inv = InversionEditConfig(eta=0.3, transport=_transport(0.1), grid=grid,
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=2.0))
    traj = transport_guided_inversion_edit(inv, reg, codec, x0).trajectory
    assert traj.meta == {"algorithm": "invert_edit"}


@pytest.mark.parametrize("editor", [transport_enhanced_flowedit, baseline_flowedit])
def test_flowedit_state_abort_names_t_step_and_term(monkeypatch, editor):
    # Finite branch velocities whose first active step (grid index 4 under
    # n_max = 24) carries the state past the float range: a located "state"
    # abort, in the guided editor and in the baseline alike.
    from otflow import editors

    def src(z, t):
        return np.zeros_like(z)

    def tar(z, t):
        return np.full_like(z, 1e308)

    monkeypatch.setattr(editors, "_branch_fields", lambda cfg, registry: (src, tar))
    grid = make_time_grid(28, 1.0, 0.0)
    cfg = FlowEditConfig(transport=_transport(0.0), grid=grid, cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"), scales=GuidanceScales(), seed=7,
                         n_max=24)
    with np.errstate(over="ignore"), pytest.raises(NumericalAbort) as err:
        editor(cfg, _two_cluster_registry(), LatentCodec.identity(2), np.array([-1.79e308, 0.0]))
    assert str(err.value) == "euler_step produced a non-finite state"
    assert (err.value.t, err.value.step, err.value.term) == (float(grid.points[4]), 4, "state")


def _mixed_registry(dim):
    # Two Gaussians and a point set, so the Gaussian, point and mixture
    # kernels all run on the batch.
    rng = _rng(61, dim)
    reg = FieldRegistry()
    mean_a = np.zeros(dim)
    mean_a[0] = -1.5
    mean_b = np.zeros(dim)
    mean_b[:2] = (1.5, 0.5)
    reg.add_gaussian("a", mean_a, np.full((dim, dim), 0.05) + 0.2 * np.eye(dim))
    reg.add_gaussian("b", mean_b, 0.25 * np.eye(dim))
    reg.add_points("p", rng.standard_normal((16, dim)) * 0.4 + 1.0)
    return reg, rng


@pytest.mark.parametrize("dim", (2, 8))
def test_inversion_batch_rows_equal_single_calls(dim):
    # Every kernel of the editor loop is batch-invariant, so each row of a
    # (257, d) call with per-row beta0 must equal its own single-state call
    # bit for bit, and a beta0 = 0 row the editor run with beta0 = 0.
    reg, rng = _mixed_registry(dim)
    codec = LatentCodec(np.full(dim, 1.5), np.full(dim, 0.1))
    grid = make_time_grid(16, 1.0, 0.0)
    cfg = InversionEditConfig(eta=0.5, eta_window=(1.0, 0.4), grid=grid,
                              transport=_transport(0.3, phi=0.6),
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=3.0))
    x0 = rng.standard_normal((257, dim)) + 0.5
    beta0 = np.where(np.arange(257) % 5 == 0, 0.0, rng.uniform(0.0, 1.0, 257))
    batch = transport_guided_inversion_edit(cfg, reg, codec, x0, beta0=beta0)
    assert batch.output.shape == (257, dim) and batch.aborts == (None,) * 257
    assert batch.trajectory.weights.shape == (17, 257)
    off = replace(cfg, transport=_transport(0.0, phi=0.6))
    for i in range(257):
        row_cfg = replace(cfg, transport=_transport(float(beta0[i]), phi=0.6))
        single = transport_guided_inversion_edit(row_cfg, reg, codec, x0[i])
        assert np.array_equal(batch.output[i], single.output)
        for column in ("states", "velocities", "transport_norms", "weights"):
            assert np.array_equal(getattr(batch.trajectory, column)[:, i],
                                  getattr(single.trajectory, column)), column
        assert batch.summary[i] == single.summary
        if beta0[i] == 0.0:
            assert batch.summary[i].transport_work == 0.0
            plain = transport_guided_inversion_edit(off, reg, codec, x0[i])
            assert np.array_equal(batch.output[i], plain.output)
            assert batch.summary[i] == plain.summary
    assert np.array_equal(batch.trajectory.times, grid.points)


def _overflowing_inversion(beta0):
    # The invert_sweep shape: at beta0 = 1e300 the first reverse step throws
    # the state to ~1e298 and the second step's target velocity overflows.
    reg = FieldRegistry()
    reg.add_gaussian("a", np.array([-1.5, 0.0]), 0.25 * np.eye(2))
    reg.add_gaussian("b", np.array([1.5, 0.5]), 0.25 * np.eye(2))
    cfg = InversionEditConfig(eta=0.5, eta_window=(1.0, 0.75), grid=make_time_grid(28, 1.0, 0.0),
                              transport=_transport(beta0),
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=7.5))
    return cfg, reg, LatentCodec.identity(2)


def test_inversion_numerical_abort_names_step_and_term():
    cfg, reg, codec = _overflowing_inversion(1e300)
    x0 = np.array([-1.3, 0.1])
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        transport_guided_inversion_edit(cfg, reg, codec, x0)
    assert str(err.value) == "velocity non-finite at t=0.9642857142857143"
    assert (err.value.step, err.value.term, err.value.t) == (1, "velocity", 0.9642857142857143)

    # In a batch only the overflowing row leaves; its neighbours finish as
    # their own single calls do.
    x0s = np.array([x0, x0, [-1.0, 0.3]])
    with np.errstate(all="ignore"):
        batch = transport_guided_inversion_edit(cfg, reg, codec, x0s,
                                                beta0=np.array([0.2, 1e300, 0.0]))
    abort = batch.aborts[1]
    assert str(abort) == str(err.value) and (abort.step, abort.term) == (1, "velocity")
    assert batch.summary[1] is None and np.all(np.isnan(batch.output[1]))
    assert not np.any(np.isfinite(batch.trajectory.states[2:, 1]))
    for i, beta0 in ((0, 0.2), (2, 0.0)):
        single = transport_guided_inversion_edit(
            replace(cfg, transport=_transport(beta0)), reg, codec, x0s[i])
        assert batch.aborts[i] is None and batch.summary[i] == single.summary
        assert np.array_equal(batch.output[i], single.output)


def test_step_rows_keep_non_finite_rows_as_nan():
    # A finite velocity whose Euler step overflows is a "state" abort; both
    # kinds of row stay in the batch as NaN and the others step on.
    from otflow.core import _step_rows

    z = np.array([[1.0, 2.0], [3.0, 4.0], [1.5e308, 6.0]])
    v = np.array([[1.0, 1.0], [1.0, np.inf], [1.5e308, 1.0]])
    aborts = [None] * 3
    with np.errstate(over="ignore"):
        stepped = _step_rows(z, v, 0.5, 0.25, 3, aborts)
    assert stepped.shape == z.shape and np.array_equal(stepped[0], z[0] + 0.5 * v[0])
    assert np.all(np.isnan(stepped[1:]))
    velocity, state = aborts[1], aborts[2]
    assert (str(velocity), velocity.step, velocity.term) == ("velocity non-finite at t=0.25", 3,
                                                              "velocity")
    assert (str(state), state.step, state.term, state.t) == (
        "euler_step produced a non-finite state", 3, "state", 0.25)
    # At the next step the NaN rows are not reported again; a new failure is.
    later = _step_rows(stepped, np.array([[np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]), 0.5, 0.5, 4,
                       aborts)
    assert np.all(np.isnan(later)) and aborts[1] is velocity and aborts[2] is state
    assert (aborts[0].step, aborts[0].term, aborts[0].t) == (4, "velocity", 0.5)
    # One row is recorded the same way; the kernel raises nothing.
    one = [None]
    with np.errstate(over="ignore"):
        assert np.all(np.isnan(_step_rows(z[2:], v[2:], 0.5, 0.25, 3, one)))
    assert (one[0].t, one[0].step, one[0].term) == (0.25, 3, "state")


def test_inversion_batch_with_failing_rows_equals_single_calls():
    # 64 rows with per-row beta0: row 5 fails in the inversion phase (a
    # source of norm 1e200), row 40 in the edit phase (beta0 = 1e300).  The
    # failed rows stay in the batch as NaN; every other row equals its own
    # single-state call bit for bit, and each failed row's abort equals the
    # one its single call raises.
    cfg, reg, codec = _overflowing_inversion(0.0)
    rng = _rng(62)
    x0 = rng.standard_normal((64, 2)) * 0.5 + np.array([-1.5, 0.0])
    x0[5] = [1e200, 0.0]
    beta0 = rng.uniform(0.0, 1.0, 64)
    beta0[::7] = 0.0
    beta0[40] = 1e300
    with np.errstate(all="ignore"):
        batch = transport_guided_inversion_edit(cfg, reg, codec, x0, beta0=beta0)
    traj = batch.trajectory
    for i in range(64):
        row_cfg = replace(cfg, transport=_transport(float(beta0[i])))
        if i in (5, 40):
            with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
                transport_guided_inversion_edit(row_cfg, reg, codec, x0[i])
            abort = batch.aborts[i]
            assert (str(abort), abort.t, abort.step, abort.term) == (
                str(err.value), err.value.t, err.value.step, err.value.term)
            assert batch.summary[i] is None and np.all(np.isnan(batch.output[i]))
            # Edit-phase states are finite up to the failing step, NaN after;
            # an inversion-phase failure leaves them all NaN.
            first_nan = 0 if i == 5 else abort.step + 1
            assert np.all(np.isfinite(traj.states[:first_nan, i]))
            assert np.all(np.isnan(traj.states[first_nan:, i]))
            continue
        single = transport_guided_inversion_edit(row_cfg, reg, codec, x0[i])
        assert batch.aborts[i] is None and batch.summary[i] == single.summary
        assert np.array_equal(batch.output[i], single.output)
        for column in ("states", "velocities", "transport_norms", "weights"):
            assert np.array_equal(getattr(traj, column)[:, i],
                                  getattr(single.trajectory, column)), column


def _decode_overflow_setting():
    # Two unit-covariance Gaussians, the target's mean at (5, 5), and a codec
    # of scale 1e307: an edited latent of norm past about 18 is finite but
    # decodes past the largest double.
    reg = FieldRegistry()
    reg.add_gaussian("a", np.zeros(2), np.eye(2))
    reg.add_gaussian("b", np.array([5.0, 5.0]), np.eye(2))
    cfg = InversionEditConfig(eta=0.0, grid=make_time_grid(28, 1.0, 0.0),
                              transport=TransportConfig(beta0=0.2),
                              condition_target=Condition.dataset("b"), scales=GuidanceScales())
    return cfg, reg, LatentCodec(np.full(2, 1e307), np.zeros(2))


def test_inversion_batch_with_a_row_that_decodes_non_finite_equals_single_calls():
    # Row 4's beta0 = 1e3 ends its latent near (-1.3e3, -1.3e3): finite at
    # every step, so only its decoded output overflows.  It fails alone with
    # its single call's abort, located in the decode term at the grid's end,
    # and every other row equals its own single-state call bit for bit.
    cfg, reg, codec = _decode_overflow_setting()
    x0 = np.array([[0.0, 0.0], [1e307, -1e307], [-2e307, 5e306], [1.5e308, 1.5e308],
                   [3e306, 0.0]])
    beta0 = np.array([0.0, 0.2, 3.0, 0.5, 1e3])
    batch = transport_guided_inversion_edit(cfg, reg, codec, x0, beta0=beta0)
    traj = batch.trajectory
    for i in range(5):
        row_cfg = replace(cfg, transport=TransportConfig(beta0=float(beta0[i])))
        if i == 4:
            with pytest.raises(NumericalAbort) as err:
                transport_guided_inversion_edit(row_cfg, reg, codec, x0[i])
            abort = batch.aborts[i]
            assert str(err.value) == str(abort) == "decoded output is non-finite at t=0.0"
            assert (abort.t, abort.step, abort.term) == (0.0, 28, "decode")
            assert (err.value.t, err.value.step, err.value.term) == (0.0, 28, "decode")
            assert batch.summary[i] is None and np.all(np.isnan(batch.output[i]))
            assert np.all(np.isfinite(traj.states[:, i])) and np.abs(traj.states[-1, i]).min() > 1e3
            continue
        single = transport_guided_inversion_edit(row_cfg, reg, codec, x0[i])
        assert batch.aborts[i] is None and batch.summary[i] == single.summary
        assert np.all(np.isfinite(single.output))
        assert np.array_equal(batch.output[i], single.output)
        for column in ("states", "velocities", "transport_norms", "weights"):
            assert np.array_equal(getattr(traj, column)[:, i],
                                  getattr(single.trajectory, column)), column


@pytest.mark.parametrize("editor", [transport_enhanced_flowedit, baseline_flowedit])
def test_flowedit_decode_overflow_names_its_term(editor):
    # The coupled editor lands near the target's mean, (5, 5), which a codec
    # of scale 1e308 decodes past the largest double: the guided editor and
    # the baseline raise the same located abort, with no overflow warning.
    reg = _decode_overflow_setting()[1]
    grid = make_time_grid(28, 1.0, 0.0)
    cfg = FlowEditConfig(transport=_transport(0.0), grid=grid, cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"), scales=GuidanceScales(), seed=7)
    with pytest.raises(NumericalAbort) as err:
        editor(cfg, reg, LatentCodec(np.full(2, 1e308), np.zeros(2)), np.zeros(2))
    assert str(err.value) == "decoded output is non-finite at t=0.0"
    assert (err.value.t, err.value.step, err.value.term) == (0.0, 28, "decode")


def _huge_state_setting(kind):
    # Two 3-D Gaussians, or a Gaussian beside a 3-atom point set, and both
    # editors guided toward b at w = 3.
    reg = FieldRegistry().add_gaussian("a", np.array([-1.5, 0.0, 0.3]), 0.25 * np.eye(3))
    if kind == "gaussian":
        reg.add_gaussian("b", np.array([1.5, 0.5, -0.2]), 0.16 * np.eye(3))
    else:
        reg.add_points("b", np.array([[1.5, 0.5, -0.2], [1.0, 0.0, 0.0], [2.0, 1.0, 0.5]]))
    grid = make_time_grid(28, 1.0, 0.0)
    inversion = InversionEditConfig(eta=0.5, grid=grid, transport=_transport(0.0),
                                    condition_target=Condition.dataset("b"),
                                    scales=GuidanceScales(w=3.0))
    flowedit = FlowEditConfig(transport=_transport(0.0), grid=grid,
                              cond_src=Condition.dataset("a"), cond_tar=Condition.dataset("b"),
                              scales=GuidanceScales(w_src=3.0, w_tar=3.0), seed=0)
    return reg, ((transport_guided_inversion_edit, inversion, 0, 0.0),
                 (transport_enhanced_flowedit, flowedit, 1, float(grid.points[1])))


@pytest.mark.parametrize("norm", [1e160, 1e300])
@pytest.mark.parametrize("kind", ["gaussian", "mixed"])
def test_huge_state_keeps_its_velocity_abort(kind, norm):
    # At |z| ~ 1e160 the Gaussian log densities overflow and the field turns
    # NaN: a single state raises NumericalAbort on the velocity (invert_edit
    # in its inversion at step 0, flowedit at step 1), and in a 2-row batch
    # the huge row keeps that abort while the other equals its single call.
    reg, editors = _huge_state_setting(kind)
    codec = LatentCodec.identity(3)
    huge, ordinary = np.full(3, norm / np.sqrt(3.0)), np.array([-1.3, 0.1, 0.2])
    for editor, cfg, step, t in editors:
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
            editor(cfg, reg, codec, huge)
        assert (err.value.step, err.value.term, err.value.t) == (step, "velocity", t)
        with np.errstate(all="ignore"):
            batch = editor(cfg, reg, codec, np.array([huge, ordinary]))
        abort = batch.aborts[0]
        assert (str(abort), abort.step, abort.term, abort.t) == (str(err.value), step,
                                                                  "velocity", t)
        assert batch.summary[0] is None and np.all(np.isnan(batch.output[0]))
        single = editor(cfg, reg, codec, ordinary)
        assert batch.aborts[1] is None and batch.summary[1] == single.summary
        assert np.array_equal(batch.output[1], single.output)
        for column in ("states", "velocities", "transport_norms", "weights"):
            assert np.array_equal(getattr(batch.trajectory, column)[:, 1],
                                  getattr(single.trajectory, column)), column


def test_flowedit_numerical_abort_names_step_and_term():
    # With beta0 = 1e308 the transport term overflows once the state has
    # left the source: grid index 5, the second active step under n_max = 24.
    reg = FieldRegistry()
    reg.add_gaussian("src", np.array([-2.0, 0.0]), 0.16 * np.eye(2))
    reg.add_gaussian("tar", np.array([2.0, 0.0]), 0.16 * np.eye(2))
    cfg = FlowEditConfig(transport=_transport(1e308, phi=1.0, clip_tau=10.0),
                         grid=make_time_grid(28, 1.0, 0.0), cond_src=Condition.dataset("src"),
                         cond_tar=Condition.dataset("tar"),
                         scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=7, n_max=24)
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
        transport_enhanced_flowedit(cfg, reg, LatentCodec.identity(2), np.array([-2.3, 0.2]))
    assert str(err.value) == "velocity non-finite at t=0.8214285714285714"
    assert (err.value.step, err.value.term, err.value.t) == (5, "velocity", 0.8214285714285714)


def _flowedit_points_setting():
    # flowedit_points' shape: two 1024-point sets in d = 16, n_avg = 4, the
    # workload's transport and guidance weights, sources drawn from set a.
    rng = _rng(63)
    a = -1.0 + 0.5 * rng.standard_normal((1024, 16))
    b = 1.0 + 0.5 * rng.standard_normal((1024, 16))
    reg = FieldRegistry().add_points("a", a).add_points("b", b)
    cfg = FlowEditConfig(transport=_transport(0.0, phi=1.0, orientation="remaining"),
                         grid=make_time_grid(28, 1.0, 0.0), cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"),
                         scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=0, n_avg=4, n_max=24)
    return cfg, reg, a[rng.integers(0, 1024, 16)]


_TRAJECTORY_COLUMNS = ("states", "velocities", "transport_norms", "weights")


def test_flowedit_batch_rows_equal_single_calls():
    # A B = 16 batch with per-row beta0 and seeds: every kernel of the loop
    # is batch-invariant, so each row equals its own single-state call bit
    # for bit, and a beta0 = 0 row equals baseline_flowedit on its seed.
    cfg, reg, x0 = _flowedit_points_setting()
    codec = LatentCodec(np.full(16, 1.5), np.full(16, 0.1))
    beta0 = np.tile([0.0, 0.3, 0.6, 0.9], 4)
    seeds = [1000 + i for i in range(16)]
    batch = transport_enhanced_flowedit(cfg, reg, codec, x0, beta0=beta0, seeds=seeds)
    assert batch.output.shape == (16, 16) and batch.aborts == (None,) * 16
    assert batch.trajectory.weights.shape == (29, 16)
    assert batch.trajectory.meta == {"algorithm": "flowedit", "seeds": tuple(seeds)}
    for i in range(16):
        row_cfg = replace(cfg, transport=_transport(float(beta0[i]), phi=1.0,
                                                    orientation="remaining"), seed=seeds[i])
        single = transport_enhanced_flowedit(row_cfg, reg, codec, x0[i])
        assert np.array_equal(batch.output[i], single.output)
        assert batch.summary[i] == single.summary
        for column in _TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(batch.trajectory, column)[:, i],
                                  getattr(single.trajectory, column)), column
        if beta0[i] == 0.0:
            plain = baseline_flowedit(row_cfg, reg, codec, x0[i])
            assert np.array_equal(batch.output[i], plain.output)
            assert batch.summary[i] == plain.summary
            assert np.array_equal(batch.trajectory.states[:, i], plain.trajectory.states)
        else:
            assert batch.summary[i].transport_work > 0.0


def test_flowedit_batch_with_a_failing_row_equals_single_calls():
    # Row 2's beta0 = 1e300 throws its state to ~1e297, and a later step's
    # velocity overflows.  It stays in the batch as NaN with its single
    # call's abort; its neighbours, whose field calls share its blocks,
    # equal their own single-state calls bit for bit, through the last
    # n_min = 3 steps of plain denoising too.
    reg = _mixed_registry(2)[0]
    cfg = FlowEditConfig(transport=_transport(0.0, phi=1.0, orientation="remaining"),
                         grid=make_time_grid(28, 1.0, 0.0), cond_src=Condition.dataset("a"),
                         cond_tar=Condition.dataset("b"),
                         scales=GuidanceScales(w_src=1.5, w_tar=5.5), seed=0, n_avg=3, n_max=24,
                         n_min=3)
    codec = LatentCodec.identity(2)
    x0 = np.array([[-1.6, 0.1], [-1.4, -0.2], [-1.5, 0.0], [-1.2, 0.3], [-1.8, 0.2]])
    beta0 = np.array([0.3, 0.0, 1e300, 0.9, 0.6])
    seeds = [11, 12, 13, 14, 15]
    with np.errstate(all="ignore"):
        batch = transport_enhanced_flowedit(cfg, reg, codec, x0, beta0=beta0, seeds=seeds)
    traj = batch.trajectory
    for i in range(5):
        row_cfg = replace(cfg, transport=_transport(float(beta0[i]), phi=1.0,
                                                    orientation="remaining"), seed=seeds[i])
        if i == 2:
            with np.errstate(all="ignore"), pytest.raises(NumericalAbort) as err:
                transport_enhanced_flowedit(row_cfg, reg, codec, x0[i])
            abort = batch.aborts[i]
            assert (str(abort), abort.t, abort.step, abort.term) == (
                str(err.value), err.value.t, err.value.step, err.value.term)
            assert abort.term == "velocity" and abort.t == float(cfg.grid.points[abort.step])
            assert batch.summary[i] is None and np.all(np.isnan(batch.output[i]))
            assert np.all(np.isfinite(traj.states[:abort.step + 1, i]))
            assert np.all(np.isnan(traj.states[abort.step + 1:, i]))
            continue
        single = transport_enhanced_flowedit(row_cfg, reg, codec, x0[i])
        assert batch.aborts[i] is None and batch.summary[i] == single.summary
        assert np.array_equal(batch.output[i], single.output)
        for column in _TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(traj, column)[:, i],
                                  getattr(single.trajectory, column)), column


def test_flowedit_rejects_bad_batch_inputs():
    cfg, reg, x0 = _flowedit_points_setting()
    codec = LatentCodec.identity(16)
    with pytest.raises(ValueError, match="^beta0 must be 2 finite values >= 0$"):
        transport_enhanced_flowedit(cfg, reg, codec, x0[:2], beta0=np.array([0.1, -0.1]))
    with pytest.raises(ValueError, match="^seeds must hold 2 seeds, got 3$"):
        transport_enhanced_flowedit(cfg, reg, codec, x0[:2], seeds=[1, 2, 3])
    # A non-finite source is rejected up front, as the inversion editor does.
    with pytest.raises(ValueError, match="^state contains non-finite entries$"):
        transport_enhanced_flowedit(cfg, reg, codec, np.full(16, np.nan))
    batch = x0[:3].copy()
    batch[1, 5] = np.inf
    with pytest.raises(ValueError, match="^state contains non-finite entries$"):
        transport_enhanced_flowedit(cfg, reg, codec, batch)


@pytest.mark.parametrize("x0, beta0, match", [
    (np.array([np.nan, 0.1]), None, "^state contains non-finite entries$"),
    (np.array([[-1.3, 0.1], [-1.2, 0.0]]), np.array([0.1]), "^beta0 must be 2 finite values >= 0$"),
    (np.array([[-1.3, 0.1], [-1.2, 0.0]]), np.array([0.1, -0.1]),
     "^beta0 must be 2 finite values >= 0$"),
], ids=["non-finite-source", "beta0-length", "negative-beta0"])
def test_inversion_edit_rejects_bad_inputs(x0, beta0, match):
    cfg = InversionEditConfig(eta=0.0, transport=_transport(0.1), grid=make_time_grid(8, 1.0, 0.0),
                              condition_target=Condition.dataset("b"),
                              scales=GuidanceScales(w=2.0))
    with pytest.raises(ValueError, match=match):
        transport_guided_inversion_edit(cfg, _gaussian_pair_registry(), LatentCodec.identity(2),
                                        x0, beta0=beta0)
