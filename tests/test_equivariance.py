"""Orthogonal equivariance of the fields, the integrator, the inversion editor
and the verifiers' runs.

Every closed-form field here is a function of distances and inner products,
and the transport term's direction, norm and row-wise clip are too, so
rotating every dataset, state, source and target by an orthogonal Q rotates
every velocity, final state and edited output by Q and leaves the edit's
summary unchanged.  Floating point keeps this only to rounding: each check
allows a gap of _REL relative to the largest row norm of the unrotated
result.  A coordinate-fixed term (an entrywise clip, a bias that is not
rotated with the data) breaks it far above that bound.
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
    TransportConfig,
    make_time_grid,
    make_velocity,
    transport_enhanced_flowedit,
    transport_guided_inversion_edit,
)
from otflow.core import integrate_final
from otflow.metrics import guided_final_states, verify_discretization_bound

_REL = 1e-12
_DIMS = (2, 8, 16)
_CONDITIONS = (Condition.null(), Condition.dataset("g1"), Condition.dataset("g2"),
               Condition.dataset("p"))
# The verifiers' transport settings: unguided, guided with the clip
# inactive, and guided with the clip active.
_GUIDED = (TransportConfig(beta0=0.0, phi=0.6), TransportConfig(beta0=0.3, phi=0.6),
           TransportConfig(beta0=0.3, phi=0.6, clip_tau=0.05))


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _orthogonal(d):
    # A seeded Haar-random orthogonal matrix: Q of a Gaussian matrix's QR,
    # its columns' signs fixed by R's diagonal.
    q, r = np.linalg.qr(_rng(90, d).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _registries(d):
    # Two Gaussians with full covariances and a 24-point set, and the same
    # three rotated by Q: means and points as Q x, covariances as Q S Q^T.
    rng = _rng(91, d)
    q = _orthogonal(d)
    reg, rot = FieldRegistry(), FieldRegistry()
    for name, shift in (("g1", -1.0), ("g2", 1.0)):
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        mean, cov = shift + 0.3 * rng.standard_normal(d), a @ a.T + 0.2 * np.eye(d)
        reg.add_gaussian(name, mean, cov)
        cov_q = q @ cov @ q.T
        rot.add_gaussian(name, q @ mean, 0.5 * (cov_q + cov_q.T))
    points = 0.6 * rng.standard_normal((24, d)) + 0.5
    reg.add_points("p", points)
    rot.add_points("p", points @ q.T)
    return reg, rot, q, rng


def _gap(got, want):
    # The largest row gap over the largest row norm of the reference.
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    return np.linalg.norm(got - want, axis=-1).max() / np.linalg.norm(want, axis=-1).max()


@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("w", [0.0, 1.0, 2.5])
def test_velocity_is_rotation_equivariant(d, w):
    reg, rot, q, rng = _registries(d)
    z = 1.5 * rng.standard_normal((32, d))
    for condition in _CONDITIONS:
        scales = GuidanceScales(w=w)
        field, rotated = make_velocity(reg, condition, scales), make_velocity(rot, condition, scales)
        for t in (0.05, 0.3, 0.7, 1.0):
            gap = _gap(rotated(z @ q.T, t), field(z, t) @ q.T)
            assert gap <= _REL, (condition, t, gap)


@pytest.mark.parametrize("d", _DIMS)
def test_integrate_final_is_rotation_equivariant(d):
    # 28 reverse Euler steps from noise to t = 0 (clamped at the floor).
    reg, rot, q, rng = _registries(d)
    grid = make_time_grid(28, 1.0, 0.0)
    z = rng.standard_normal((32, d))
    for condition in _CONDITIONS:
        scales = GuidanceScales(w=2.5)
        final = integrate_final(make_velocity(reg, condition, scales), z, grid)
        rotated = integrate_final(make_velocity(rot, condition, scales), z @ q.T, grid)
        assert _gap(rotated, final @ q.T) <= _REL, condition


@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("clip_tau", [0.5, 1e6], ids=["clip-active", "clip-inactive"])
def test_inversion_edit_is_rotation_equivariant(d, clip_tau):
    # A batch of 32 sources with per-row beta0 (every fifth row 0), anchored
    # on separate targets, through a codec of one scale in every coordinate
    # (an elementwise scale or an offset would not commute with Q).
    reg, rot, q, rng = _registries(d)
    codec = LatentCodec(np.full(d, 1.5), np.zeros(d))
    cfg = InversionEditConfig(eta=0.6, eta_window=(1.0, 0.3), grid=make_time_grid(28, 1.0, 0.0),
                              transport=TransportConfig(beta0=0.0, phi=0.6, clip_tau=clip_tau),
                              condition_target=Condition.dataset("g2"),
                              scales=GuidanceScales(w=2.5))
    x0 = 0.8 * rng.standard_normal((32, d)) - 1.0
    x_target = 0.8 * rng.standard_normal((32, d)) + 1.0
    beta0 = np.where(np.arange(32) % 5 == 0, 0.0, rng.uniform(0.1, 2.0, 32))
    edit = transport_guided_inversion_edit(cfg, reg, codec, x0, x_target, beta0)
    rotated = transport_guided_inversion_edit(cfg, rot, codec, x0 @ q.T, x_target @ q.T, beta0)
    norms = edit.trajectory.transport_norms
    if clip_tau < 1.0:
        assert (norms > clip_tau).any()
    else:
        assert norms.max() < clip_tau
    assert edit.aborts == rotated.aborts == (None,) * 32
    assert _gap(rotated.output, edit.output @ q.T) <= _REL
    assert _gap(rotated.trajectory.states[-1], edit.trajectory.states[-1] @ q.T) <= _REL
    for field in ("reconstruction_l2", "displacement_l2", "transport_work"):
        got = np.array([getattr(s, field) for s in rotated.summary])
        want = np.array([getattr(s, field) for s in edit.summary])
        assert np.abs(got - want).max() <= _REL * np.abs(want).max(), field
    # The per-row strength moves the rows: a beta0 = 0 row equals a scalar
    # beta0 = 0 run, and the guided rows differ from it.
    plain = transport_guided_inversion_edit(replace(cfg), reg, codec, x0, x_target)
    assert np.array_equal(edit.output[beta0 == 0.0], plain.output[beta0 == 0.0])
    assert not np.array_equal(edit.output[beta0 > 0.0], plain.output[beta0 > 0.0])


@pytest.mark.parametrize("d", _DIMS)
def test_discretization_errors_are_rotation_invariant(d):
    # The check's local and global errors are norms of differences of nearly
    # equal states, so each is bounded against the largest input norm, not
    # against itself: rounding in the states is relative to their size.
    reg, rot, q, rng = _registries(d)
    z_init, z_target = rng.standard_normal(d), rng.standard_normal(d) + 1.0
    scale = max(1.0, np.linalg.norm(z_init), np.linalg.norm(z_target))
    scales = GuidanceScales(w=2.0)
    for condition in _CONDITIONS:
        for transport in _GUIDED:
            report, rotated = (
                verify_discretization_bound(make_velocity(r, condition, scales), transport,
                                            z_init @ m, z_target @ m, [10, 20, 40, 80])
                for r, m in ((reg, np.eye(d)), (rot, q.T)))
            assert [m[:2] for m in rotated.measured] == [m[:2] for m in report.measured]
            errors = np.array([[m[2] for m in r.measured] for r in (report, rotated)])
            assert errors.min() > 0.0
            gap = np.abs(errors[1] - errors[0]).max() / scale
            assert gap <= _REL, (condition, transport, gap)


@pytest.mark.parametrize("d", _DIMS)
def test_guided_arms_are_rotation_equivariant(d):
    # The convergence and edit-control arms: a 64-row noise bank denoised
    # under each transport setting.  Rotating the registry, the bank and the
    # target rotates every arm's final states, and leaves each arm's mean
    # squared error to the target and its mean squared displacement from the
    # unguided arm, both bounded against the largest squared state norm.
    reg, rot, q, rng = _registries(d)
    noise, z_target = rng.standard_normal((64, d)), rng.standard_normal(d) + 1.0
    grid, scales = make_time_grid(28, 1.0, 0.0), GuidanceScales(w=2.0)
    for condition in _CONDITIONS:
        arms = [[guided_final_states(r, condition, scales, grid, transport, z_target @ m,
                                     noise @ m)
                 for r, m in ((reg, np.eye(d)), (rot, q.T))] for transport in _GUIDED]
        (base, rotated_base), *_ = arms
        for transport, (out, rotated) in zip(_GUIDED, arms):
            assert _gap(rotated, out @ q.T) <= _REL, (condition, transport)
            size = max(np.linalg.norm(out, axis=1).max(), np.linalg.norm(z_target)) ** 2
            mse = [np.mean(np.sum((o - z_target @ m) ** 2, axis=1))
                   for o, m in ((out, np.eye(d)), (rotated, q.T))]
            disp = [np.mean(np.sum((o - b) ** 2, axis=1))
                    for o, b in ((out, base), (rotated, rotated_base))]
            assert abs(mse[1] - mse[0]) <= _REL * size, (condition, transport)
            assert abs(disp[1] - disp[0]) <= _REL * size, (condition, transport)
            assert (disp[0] > 0.0) == (transport.beta0 > 0.0)


def _moved(reg, c):
    # reg's datasets moved by c, in their order: Gaussian means and points
    # as x + c, covariances as they are.
    moved = FieldRegistry()
    for name in reg.names():
        if reg.kind(name) == "points":
            moved.add_points(name, reg.points(name) + c)
        else:
            mean, cov = reg.gaussian(name)
            moved.add_gaussian(name, mean + c, cov)
    return moved


@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("target", ["g2", "p"])
@pytest.mark.parametrize("clip_tau", [0.05, 1e6], ids=["clip-active", "clip-inactive"])
@pytest.mark.parametrize("beta0", [0.0, 0.3])
def test_flowedit_is_translation_equivariant(d, target, clip_tau, beta0):
    # Moving every dataset and source by c, with t = 0 the data end, moves a
    # state at time t by (1 - t) c and every field velocity, CFG blend
    # included, by -c.  FlowEdit's difference velocity and its transport
    # direction (z - z_src) / max(1 - t, delta) are differences, so they do
    # not move; each Euler step then carries the data-space state's shift c,
    # and the conversion to a coupled state at n_min gives (1 - t) c.  So
    # the output moves by c and the summary stays, to rounding relative to
    # the largest state norm.
    reg, _, _, rng = _registries(d)
    c = 0.7 * rng.standard_normal(d) + 0.5
    cfg = FlowEditConfig(transport=TransportConfig(beta0=beta0, phi=0.6, clip_tau=clip_tau),
                         grid=make_time_grid(28, 1.0, 0.0), cond_src=Condition.dataset("g1"),
                         cond_tar=Condition.dataset(target),
                         scales=GuidanceScales(w_src=1.5, w_tar=2.5), seed=7, n_avg=2, n_min=3)
    codec = LatentCodec.identity(d)
    x0 = 0.8 * rng.standard_normal((16, d)) - 1.0
    edit = transport_enhanced_flowedit(cfg, reg, codec, x0)
    moved = transport_enhanced_flowedit(cfg, _moved(reg, c), codec, x0 + c)
    if beta0 > 0.0:
        norms = edit.trajectory.transport_norms
        assert (norms > clip_tau).any() if clip_tau < 1.0 else norms.max() < clip_tau
    assert edit.aborts == moved.aborts == (None,) * 16
    size = max(np.linalg.norm(edit.trajectory.states, axis=-1).max(),
               np.linalg.norm(moved.trajectory.states, axis=-1).max())
    assert np.linalg.norm(moved.output - c - edit.output, axis=-1).max() <= _REL * size
    for field in ("reconstruction_l2", "displacement_l2", "transport_work"):
        got = np.array([getattr(s, field) for s in moved.summary])
        want = np.array([getattr(s, field) for s in edit.summary])
        assert np.abs(got - want).max() <= _REL * max(size, np.abs(want).max()), field


@pytest.mark.parametrize("d", _DIMS)
def test_integrate_final_is_translation_equivariant(d):
    # At beta0 = 0 the run is the field alone.  Moving every dataset by c
    # moves each field velocity by -c at a state moved by (1 - t) c, and an
    # Euler step from t to t + dt keeps that: (1 - t) c + dt (-c) is
    # (1 - t - dt) c.  The noise end does not move, so 28 reverse steps from
    # one noise bank to t = 0 end moved by c, to rounding relative to the
    # largest state norm.  Every grid time the fields read is at least 1/28,
    # above t_floor, so the floor's freeze plays no part.
    reg, _, _, rng = _registries(d)
    c = 0.7 * rng.standard_normal(d) + 0.5
    grid = make_time_grid(28, 1.0, 0.0)
    z = rng.standard_normal((32, d))
    moved_reg = _moved(reg, c)
    for condition in _CONDITIONS:
        scales = GuidanceScales(w=2.5)
        unguided = TransportConfig(beta0=0.0, phi=0.6)
        final = guided_final_states(reg, condition, scales, grid, unguided, z[0], z)
        moved = integrate_final(make_velocity(moved_reg, condition, scales), z, grid)
        size = max(np.linalg.norm(final, axis=1).max(), np.linalg.norm(moved, axis=1).max())
        assert np.linalg.norm(moved - c - final, axis=-1).max() <= _REL * size, condition


@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("target", ["g2", "p"])
@pytest.mark.parametrize("eta", [0.0, 0.6])
def test_inversion_edit_is_translation_equivariant_up_to_the_floor(d, target, eta, monkeypatch):
    # At beta0 = 0 every step but one commutes with moving the datasets and
    # sources by c: the fields and the CFG blend move by -c at a state moved
    # by (1 - t) c, the controller (z - z0) / t moves by -c too, and Euler
    # keeps the shift.  The one exception is the inversion's first call, at
    # t = 0, which the fields read at t_floor: there the moved state is
    # moved by c, not (1 - t_floor) c, so the moved field returns
    # v(x0 + t_floor c, t_floor) - c.  So the moved edit equals, to rounding,
    # the edit whose first inversion call reads x0 + t_floor c; and its gap
    # to the plain edit is that misplacement carried through the pipeline.
    # That gap was measured, not derived: at most 0.55 t_floor ||c|| over
    # these settings (d = 2, point-set target, eta = 0), so it is bounded
    # here by t_floor ||c||.
    from otflow import editors
    from otflow.fields import _T_FLOOR

    reg, _, _, rng = _registries(d)
    c = 0.7 * rng.standard_normal(d) + 0.5
    cfg = InversionEditConfig(eta=eta, eta_window=(1.0, 0.3), grid=make_time_grid(28, 1.0, 0.0),
                              transport=TransportConfig(beta0=0.0, phi=0.6),
                              condition_target=Condition.dataset(target),
                              scales=GuidanceScales(w=2.5))
    codec = LatentCodec.identity(d)
    x0 = 0.8 * rng.standard_normal((32, d)) - 1.0
    edit = transport_guided_inversion_edit(cfg, reg, codec, x0)
    moved = transport_guided_inversion_edit(cfg, _moved(reg, c), codec, x0 + c)
    bind = editors.make_velocity

    def first_read_moved(registry, condition, scales):
        field = bind(registry, condition, scales)
        if condition.kind != "null":
            return field
        return lambda z, t: field(z + _T_FLOOR * c if t == 0.0 else z, t)

    monkeypatch.setattr(editors, "make_velocity", first_read_moved)
    replay = transport_guided_inversion_edit(cfg, reg, codec, x0)
    assert edit.aborts == moved.aborts == replay.aborts == (None,) * 32
    size = max(np.linalg.norm(edit.trajectory.states, axis=-1).max(),
               np.linalg.norm(moved.trajectory.states, axis=-1).max())
    assert np.linalg.norm(moved.output - c - replay.output, axis=-1).max() <= _REL * size
    gap = np.linalg.norm(moved.output - c - edit.output, axis=-1).max()
    assert gap <= _T_FLOOR * np.linalg.norm(c)


class _RotatedDraws:
    # A generator whose standard normal draws are rotated by q along their
    # last axis; a standard normal law is rotation-invariant.
    def __init__(self, rng, q):
        self.rng, self.q = rng, q

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape) @ self.q.T


@pytest.mark.parametrize("d", _DIMS)
@pytest.mark.parametrize("target", ["g2", "p"])
@pytest.mark.parametrize("clip_tau", [0.05, 1e6], ids=["clip-active", "clip-inactive"])
@pytest.mark.parametrize("beta0", [0.0, 0.4])
def test_flowedit_is_rotation_equivariant_when_its_draws_rotate(d, target, clip_tau, beta0,
                                                                 monkeypatch):
    # FlowEdit draws its noise from each row's seeded generator.  With every
    # draw rotated by Q (RngSeed.generator wrapped), rotating the registry
    # and the sources rotates every noised state, both branch velocities,
    # the transport direction and its row-wise clip, so the output rotates
    # by Q and the summary stays, to rounding relative to the largest state
    # norm.
    from otflow import editors

    reg, rot, q, rng = _registries(d)
    cfg = FlowEditConfig(transport=TransportConfig(beta0=beta0, phi=0.6, clip_tau=clip_tau),
                         grid=make_time_grid(28, 1.0, 0.0), cond_src=Condition.dataset("g1"),
                         cond_tar=Condition.dataset(target),
                         scales=GuidanceScales(w_src=1.5, w_tar=2.5), seed=7, n_avg=2, n_min=3)
    codec = LatentCodec(np.full(d, 1.5), np.zeros(d))
    x0 = 0.8 * rng.standard_normal((16, d)) - 1.0
    edit = transport_enhanced_flowedit(cfg, reg, codec, x0)
    generator = editors.RngSeed.generator
    monkeypatch.setattr(editors.RngSeed, "generator",
                        lambda seed: _RotatedDraws(generator(seed), q))
    rotated = transport_enhanced_flowedit(cfg, rot, codec, x0 @ q.T)
    if beta0 > 0.0:
        norms = edit.trajectory.transport_norms
        assert (norms > clip_tau).any() if clip_tau < 1.0 else norms.max() < clip_tau
    assert edit.aborts == rotated.aborts == (None,) * 16
    size = np.linalg.norm(edit.trajectory.states, axis=-1).max()
    assert _gap(rotated.output, edit.output @ q.T) <= _REL
    assert _gap(rotated.trajectory.states[-1], edit.trajectory.states[-1] @ q.T) <= _REL
    for field in ("reconstruction_l2", "displacement_l2", "transport_work"):
        got = np.array([getattr(s, field) for s in rotated.summary])
        want = np.array([getattr(s, field) for s in edit.summary])
        assert np.abs(got - want).max() <= _REL * max(size, np.abs(want).max()), field
