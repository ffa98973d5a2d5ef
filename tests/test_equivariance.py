"""Orthogonal equivariance of the fields, the integrator and the inversion editor.

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
    GuidanceScales,
    InversionEditConfig,
    LatentCodec,
    TransportConfig,
    make_time_grid,
    make_velocity,
    transport_guided_inversion_edit,
)
from otflow.core import integrate_final

_REL = 1e-12
_DIMS = (2, 8, 16)
_CONDITIONS = (Condition.null(), Condition.dataset("g1"), Condition.dataset("g2"),
               Condition.dataset("p"))


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
