"""Transport guidance: schedule shape, direction arithmetic, clipping, gating.

The cosine schedule has closed-form anchor values S(0) = 1, S(phi/2) = 1/2,
S(s >= phi) = 0, and its steepest slope is pi / (2 phi); everything here is
checked against those exact facts, not against sampled reference curves.
"""

import math

import numpy as np
import pytest

from otflow import (
    TransportConfig,
    adaptive_weight,
    clip_norm,
    cosine_schedule,
    enhance_velocity,
    make_enhanced,
    transport_direction,
)
from otflow.fields import _T_FLOOR
from otflow.transport import _row_norms, kinks

PHIS = (0.1, 0.3, 0.7, 1.0)


@pytest.mark.parametrize("phi", PHIS)
def test_schedule_anchor_values(phi):
    assert abs(cosine_schedule(0.0, phi) - 1.0) <= 1e-12
    assert abs(cosine_schedule(phi, phi) - 0.0) <= 1e-12
    assert abs(cosine_schedule(phi / 2.0, phi) - 0.5) <= 1e-12


@pytest.mark.parametrize("phi", (0.1, 0.3, 0.7))
def test_schedule_is_zero_past_phi(phi):
    for s in np.linspace(phi, 1.0, 17):
        assert cosine_schedule(float(s), phi) <= 1e-12


@pytest.mark.parametrize("phi", PHIS)
def test_schedule_monotone_nonincreasing(phi):
    s = np.linspace(0.0, 1.0, 201)
    vals = [cosine_schedule(float(x), phi) for x in s]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("phi", PHIS)
def test_schedule_lipschitz_bound(phi):
    # |S'| peaks at pi / (2 phi) in the interior of the anneal window.
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(17)))
    bound = math.pi / (2.0 * phi)
    for _ in range(200):
        s1, s2 = rng.uniform(0.0, 1.0, size=2)
        lhs = abs(cosine_schedule(float(s1), phi) - cosine_schedule(float(s2), phi))
        assert lhs <= bound * abs(s1 - s2) + 1e-12


def test_schedule_domain_errors():
    with pytest.raises(ValueError):
        cosine_schedule(-0.01, 0.3)
    with pytest.raises(ValueError):
        cosine_schedule(1.01, 0.3)
    with pytest.raises(ValueError):
        cosine_schedule(0.5, 0.0)
    with pytest.raises(ValueError):
        cosine_schedule(0.5, 1.2)


def test_transport_direction_examples():
    z = np.zeros(2)
    z_target = np.array([1.0, 2.0])
    # remaining time 0.5
    assert np.allclose(transport_direction(z, z_target, 0.5, 0.01),
                       np.array([2.0, 4.0]), atol=1e-15)
    # near t = 1 the delta floor takes over: 1 - t = 0.005 < delta = 0.01
    assert np.allclose(transport_direction(z, z_target, 0.995, 0.01),
                       100.0 * z_target, atol=1e-9)


def test_transport_direction_validation():
    with pytest.raises(ValueError):
        transport_direction(np.zeros(2), np.zeros(3), 0.5, 0.01)
    with pytest.raises(ValueError):
        transport_direction(np.zeros((4, 2)), np.zeros(3), 0.5, 0.01)
    with pytest.raises(ValueError):
        transport_direction(np.zeros(2), np.zeros(2), 0.5, 0.0)


def test_clip_norm_below_threshold_untouched():
    v = np.array([0.3, -0.4])
    out = clip_norm(v, 10.0)
    assert np.array_equal(out, v)


def test_clip_norm_rescales_and_keeps_direction():
    v = np.array([30.0, -40.0])
    out = clip_norm(v, 5.0)
    assert abs(np.linalg.norm(out) - 5.0) <= 1e-12
    cos = np.dot(out, v) / (np.linalg.norm(out) * np.linalg.norm(v))
    assert abs(cos - 1.0) <= 1e-12
    # idempotent
    assert np.allclose(clip_norm(out, 5.0), out, atol=1e-15)


def test_clip_norm_batch():
    v = np.array([[3.0, 4.0], [0.3, 0.4]])
    out = clip_norm(v, 1.0)
    assert abs(np.linalg.norm(out[0]) - 1.0) <= 1e-12
    assert np.array_equal(out[1], v[1])
    with pytest.raises(ValueError):
        clip_norm(v, 0.0)


def test_adaptive_weight_orientations():
    cfg = TransportConfig(beta0=0.4, phi=0.3, orientation="elapsed")
    # at t = 1 nothing has elapsed: full strength
    assert adaptive_weight(1.0, cfg) == 0.4
    # elapsed fraction phi: annealed to zero
    assert adaptive_weight(1.0 - 0.3, cfg) <= 1e-13
    rem = TransportConfig(beta0=0.4, phi=0.3, orientation="remaining")
    assert adaptive_weight(0.0, rem) == 0.4
    assert adaptive_weight(0.3, rem) <= 1e-13


def test_adaptive_weight_window_gating():
    cfg = TransportConfig(beta0=1.0, phi=1.0, orientation="elapsed", window=(0.9, 0.4))
    assert adaptive_weight(0.95, cfg) == 0.0
    assert adaptive_weight(0.39, cfg) == 0.0
    assert adaptive_weight(0.7, cfg) > 0.0


@pytest.mark.parametrize("cfg, marks, want", [
    # Unguided: only t_floor and the marks, whatever the schedule says.
    (TransportConfig(beta0=0.0, phi=0.3, window=(0.9, 0.2)), (0.6,), [0.6, _T_FLOOR]),
    # Elapsed: the schedule ends at 1 - phi; 1 - delta; the default window
    # has no edge inside the span.
    (TransportConfig(beta0=0.2, phi=0.3, delta=0.01), (0.6,), [0.99, 0.7, 0.6, _T_FLOOR]),
    # Remaining: the schedule ends at phi; a window strictly inside (0, 1).
    (TransportConfig(beta0=0.2, phi=0.25, delta=0.5, orientation="remaining",
                     window=(0.8, 0.1)), (0.6,), [0.8, 0.6, 0.5, 0.25, 0.1, _T_FLOOR]),
    # A kink met twice is listed once: 1 - phi = 1 - delta = probe_t = 0.5.
    (TransportConfig(beta0=0.2, phi=0.5, delta=0.5, window=(1.0, 0.5)), (0.5,), [0.5, _T_FLOOR]),
    # phi = 1 ends the schedule at t = 0 and delta = 1 puts 1 - delta there:
    # span ends are not inside.
    (TransportConfig(beta0=0.2, phi=1.0, delta=1.0), (), [_T_FLOOR]),
], ids=["unguided", "elapsed", "remaining-window", "duplicates", "span-ends"])
def test_kinks_lists_each_kink_inside_the_span_once(cfg, marks, want):
    got = kinks(cfg, 1.0, 0.0, *marks)
    assert got == want
    assert all(0.0 < t < 1.0 for t in got)
    assert got == sorted(set(got), reverse=True)
    assert kinks(cfg, 0.0, 1.0, *marks) == want[::-1]
    # A part of the span holds only the kinks strictly inside it.
    assert kinks(cfg, 0.6, 0.25, *marks) == [t for t in want if 0.25 < t < 0.6]


def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(beta0=-0.1)
    with pytest.raises(ValueError):
        TransportConfig(beta0=0.1, phi=0.0)
    with pytest.raises(ValueError):
        TransportConfig(beta0=0.1, delta=0.0)
    with pytest.raises(ValueError):
        TransportConfig(beta0=0.1, clip_tau=-1.0)
    with pytest.raises(ValueError):
        TransportConfig(beta0=0.1, orientation="sideways")
    with pytest.raises(ValueError):
        TransportConfig(beta0=0.1, window=(0.2, 0.8))


def test_enhance_velocity_zero_weight_is_bit_exact():
    v = np.array([0.123456789, -9.87654321])
    cfg = TransportConfig(beta0=0.0)
    out, weight, raw_norm = enhance_velocity(v, np.zeros(2), np.ones(2), 0.5, cfg)
    assert np.array_equal(out, v)
    assert weight == 0.0 and raw_norm == 0.0


def test_enhance_velocity_at_target_is_bit_exact():
    v = np.array([1.0, 2.0])
    z = np.array([0.5, -0.5])
    cfg = TransportConfig(beta0=0.7, phi=1.0)
    out, weight, raw_norm = enhance_velocity(v, z, z.copy(), 0.5, cfg)
    assert np.array_equal(out, v)
    assert raw_norm == 0.0


def test_enhance_velocity_active_arithmetic():
    v = np.array([1.0, 0.0])
    z = np.zeros(2)
    z_target = np.array([0.0, 2.0])
    cfg = TransportConfig(beta0=0.5, phi=1.0, delta=0.01, clip_tau=100.0,
                          orientation="elapsed")
    t = 0.5
    out, weight, raw_norm = enhance_velocity(v, z, z_target, t, cfg)
    w = adaptive_weight(t, cfg)
    d = transport_direction(z, z_target, t, cfg.delta)
    assert np.array_equal(out, v + w * d)  # below clip threshold
    assert weight == w
    assert abs(raw_norm - np.linalg.norm(d)) <= 1e-12


def test_enhance_velocity_clipping_applies():
    v = np.zeros(2)
    z = np.zeros(2)
    z_target = np.array([100.0, 0.0])
    cfg = TransportConfig(beta0=1.0, phi=1.0, delta=0.01, clip_tau=2.0)
    out, weight, raw_norm = enhance_velocity(v, z, z_target, 1.0, cfg)
    assert abs(np.linalg.norm((out - v) / weight) - 2.0) <= 1e-12
    assert raw_norm > 2.0


@pytest.mark.parametrize("dim", (2, 16, 64))
def test_enhance_velocity_rows_do_not_depend_on_batch(dim):
    rng = np.random.Generator(np.random.PCG64(dim))
    v = rng.standard_normal((257, dim))
    z = 3.0 * rng.standard_normal((257, dim))
    z_target = rng.standard_normal(dim)
    t, delta = 0.4, 0.01
    d = transport_direction(z, z_target, t, delta)
    norms = np.linalg.norm(d, axis=-1)  # the reduction clip_norm clips with
    # clip about half the rows so both clip branches are compared
    cfg = TransportConfig(beta0=0.8, phi=1.0, delta=delta, clip_tau=float(np.median(norms)))
    out, weight, raw_norm = enhance_velocity(v, z, z_target, t, cfg)
    assert weight == adaptive_weight(t, cfg)
    assert np.array_equal(raw_norm, norms)
    for i in range(257):
        row_out, row_weight, row_norm = enhance_velocity(v[i], z[i], z_target, t, cfg)
        assert np.array_equal(out[i], row_out)
        assert row_weight == weight and row_norm == raw_norm[i]


def test_enhance_velocity_per_row_beta0_equals_scalar_calls():
    # Row i of a per-row-strength call must equal the scalar call with
    # cfg.beta0 = beta0[i]; zero-strength rows keep v_base (even -0.0) and
    # report weight and raw_norm 0, like a zero-weight scalar call.
    rng = np.random.Generator(np.random.PCG64(5))
    v = rng.standard_normal((64, 3))
    v[::4, 0] = -0.0
    z = 3.0 * rng.standard_normal((64, 3))
    z_target = rng.standard_normal(3)
    beta0 = np.where(np.arange(64) % 4 == 0, 0.0, rng.uniform(0.1, 2.0, 64))
    cfg = TransportConfig(beta0=0.5, phi=1.0, delta=0.01, clip_tau=4.0)
    t = 0.4
    out, weight, raw_norm = enhance_velocity(v, z, z_target, t, cfg, beta0=beta0)
    assert np.array_equal(weight, adaptive_weight(t, cfg, beta0))
    for i in range(64):
        row_cfg = TransportConfig(beta0=float(beta0[i]), phi=1.0, delta=0.01, clip_tau=4.0)
        row_out, row_weight, row_norm = enhance_velocity(v[i], z[i], z_target, t, row_cfg)
        assert np.array_equal(out[i], row_out)
        assert np.array_equal(np.signbit(out[i]), np.signbit(row_out))
        assert weight[i] == row_weight and raw_norm[i] == row_norm
    # outside the window every row is inactive and v_base comes back as is
    gated = TransportConfig(beta0=0.5, phi=1.0, window=(0.3, 0.0))
    out, weight, raw_norm = enhance_velocity(v, z, z_target, t, gated, beta0=beta0)
    assert out is v and weight == 0.0 and raw_norm == 0.0


def _field(z, t):
    # A deterministic stand-in base velocity.
    return np.sin(3.0 * np.asarray(z)) * (1.0 + t)


@pytest.mark.parametrize("batch", [False, True], ids=["state", "batch"])
def test_make_enhanced_equals_enhance_velocity(batch):
    # At t = 0.5 the rows' directions have norms 2.5, 5 and 10 against
    # clip_tau = 5: below, exactly at (a 3-4-5 triangle) and above it.  The
    # configs give a window whose edges t = 0.9 and 0.5 both weigh, s = phi
    # at t = 0.4 (weight exactly 0), and zero strength, for which the field
    # itself comes back.
    z_target = np.array([0.5, -1.0])
    z = z_target - np.array([[0.75, 1.0], [1.5, 2.0], [3.0, 4.0]])
    norms = np.linalg.norm(transport_direction(z, z_target, 0.5, 0.01), axis=-1)
    assert norms.tolist() == [2.5, 5.0, 10.0]
    configs = [TransportConfig(beta0=0.6, phi=0.6, clip_tau=5.0, window=(0.9, 0.5)),
               TransportConfig(beta0=0.6, phi=0.6, clip_tau=5.0),
               TransportConfig(beta0=0.0, phi=0.6, clip_tau=5.0)]
    assert adaptive_weight(0.5, configs[0]) > 0.0 and adaptive_weight(0.9, configs[0]) > 0.0
    assert adaptive_weight(0.4, configs[1]) == 0.0
    for cfg in configs:
        enhanced = make_enhanced(_field, z_target, cfg)
        assert (enhanced is _field) == (cfg.beta0 == 0.0)
        for t in (0.9, 0.5, 0.4, 0.95, 0.2):
            for zs in ([z] if batch else z):
                want = enhance_velocity(_field(zs, t), zs, z_target, t, cfg)[0]
                got = enhanced(zs, t)
                assert got.shape == zs.shape and np.array_equal(got, want)


def test_clip_norm_row_equals_its_batch_row():
    # clip_norm of a (d,) row equals that row of the (1, d) call: random
    # rows above and below tau, and (3, 4, 0, ...) exactly at tau = 5.
    rng = np.random.Generator(np.random.PCG64(11))
    for d in (2, 3, 8, 16, 64):
        rows = rng.standard_normal((400, d)) * rng.uniform(0.5, 4.0, (400, 1))
        tau = float(np.median(np.linalg.norm(rows, axis=-1)))
        for v in rows:
            assert np.array_equal(clip_norm(v, tau), clip_norm(v[None], tau)[0])
        edge = np.zeros(d)
        edge[:2] = (3.0, 4.0)
        assert np.array_equal(clip_norm(edge, 5.0), edge)
        assert np.array_equal(clip_norm(edge[None], 5.0)[0], edge)


def test_clip_norm_survives_norm_overflow():
    # np.linalg.norm overflows to inf on (3e200, 4e200); the clip still
    # scales the row to norm tau, and in a batch every row equals its own
    # single-row call bit for bit.
    with np.errstate(over="ignore"):
        out = clip_norm(np.array([3e200, 4e200]), 1.0)
    np.testing.assert_allclose(out, [0.6, 0.8], rtol=1e-15)
    rows = np.array([[3.0, 4.0], [3e200, 4e200], [0.3, 0.4], [-1e200, 2e200]])
    with np.errstate(over="ignore"):
        batch = clip_norm(rows, 1.0)
        for i, row in enumerate(rows):
            assert np.array_equal(batch[i], clip_norm(row, 1.0))
    np.testing.assert_allclose(np.linalg.norm(batch[[0, 1, 3]], axis=-1), 1.0, rtol=1e-15)
    assert np.array_equal(batch[2], rows[2])


def test_clip_norm_keeps_a_row_whose_norm_passes_the_largest_double():
    # (1.5e308, 1.5e308) has a norm above the largest double even rescaled;
    # it is clipped as v / max|v|, so it ends at norm tau in v's direction,
    # and in a batch every row equals its own single-row call bit for bit.
    out = clip_norm(np.array([1.5e308, 1.5e308]), 1.0)
    np.testing.assert_allclose(out, [np.sqrt(0.5)] * 2, rtol=1e-15)
    rows = np.array([[3.0, 4.0], [1.5e308, -1.5e308], [0.3, 0.4], [3e200, 4e200]])
    batch = clip_norm(rows, 2.0)
    for i, row in enumerate(rows):
        assert np.array_equal(batch[i], clip_norm(row, 2.0))
    np.testing.assert_allclose(np.linalg.norm(batch[[0, 1, 3]], axis=-1), 2.0, rtol=1e-15)
    np.testing.assert_allclose(batch[1], [np.sqrt(2.0), -np.sqrt(2.0)], rtol=1e-15)
    assert np.array_equal(batch[2], rows[2])


def test_clip_norm_leaves_a_row_with_an_inf_entry_non_finite():
    # Only finite rows are rescued: (inf, 1) keeps tau / inf, giving (nan, 0),
    # alone and beside a finite row.
    with np.errstate(invalid="ignore"):
        out = clip_norm(np.array([np.inf, 1.0]), 1.0)
        batch = clip_norm(np.array([[np.inf, 1.0], [3.0, 4.0]]), 1.0)
    assert np.isnan(out[0]) and out[1] == 0.0
    assert np.isnan(batch[0, 0]) and batch[0, 1] == 0.0
    np.testing.assert_allclose(batch[1], [0.6, 0.8], rtol=1e-15)


def test_enhance_velocity_clips_an_overflowing_direction():
    # At z = (2e200, -1e200) the direction's norm overflows np.linalg.norm;
    # the correction is still weight * clip_tau along the direction, with a
    # finite raw_norm, and in a batch the other rows equal their own calls.
    cfg = TransportConfig(beta0=0.5, phi=1.0, delta=0.01, clip_tau=4.0)
    t = 0.3
    v_base = np.array([0.25, -0.5])
    z = np.array([2e200, -1e200])
    with np.errstate(over="ignore"):
        out, weight, raw_norm = enhance_velocity(v_base, z, np.zeros(2), t, cfg)
    assert weight > 0.0
    np.testing.assert_allclose(raw_norm, math.sqrt(5.0) * 1e200 / 0.7, rtol=1e-15)
    np.testing.assert_allclose(out, v_base + weight * 4.0 * np.array([-2.0, 1.0]) / math.sqrt(5.0),
                               rtol=1e-15)
    zs = np.array([[1.0, 2.0], z, [-3.0, 0.5]])
    vs = np.array([[0.1, 0.2], v_base, [-0.3, 0.0]])
    with np.errstate(over="ignore"):
        out_b, weight_b, norm_b = enhance_velocity(vs, zs, np.zeros(2), t, cfg)
        for i in range(3):
            row_out, row_weight, row_norm = enhance_velocity(vs[i], zs[i], np.zeros(2), t, cfg)
            assert np.array_equal(out_b[i], row_out)
            assert weight_b == row_weight and norm_b[i] == row_norm


def _clip_where(v, n, tau):
    # The clip as a full product of every row with tau / n and a masked
    # select: the form the one-scale clip must equal bit for bit.
    rows, n = v.reshape(-1, v.shape[-1]), np.reshape(n, -1)
    over = n == np.inf
    if over.any():
        over &= np.isfinite(rows).all(axis=-1)
    if over.any():
        u = rows[over] / np.abs(rows[over]).max(axis=-1, keepdims=True)
        rows, n = rows.copy(), n.copy()
        rows[over], n[over] = u * (tau / np.linalg.norm(u, axis=-1, keepdims=True)), tau
    n = n[:, None]
    return np.where(n > tau, rows * (tau / np.maximum(n, 1e-300)), rows).reshape(v.shape)


def _enhance_where(v_base, z, z_target, t, cfg, beta0=None):
    # enhance_velocity with its two per-row selects at every weight, on
    # _clip_where.
    s_factor = adaptive_weight(t, cfg, 1.0)
    if s_factor == 0.0:
        return v_base, 0.0, 0.0
    d = transport_direction(z, z_target, t, cfg.delta)
    raw_norm = _row_norms(d)
    w = s_factor * np.asarray(cfg.beta0 if beta0 is None else beta0, dtype=float)
    on = w != 0.0
    v = np.where(on[..., None], v_base + w[..., None] * _clip_where(d, raw_norm, cfg.clip_tau),
                 v_base)
    return v, w, np.where(on, raw_norm, 0.0)


def _hard_rows(tau, d=4):
    # Rows below, at and above tau; zero, -0.0, NaN and +-inf entries; and
    # finite rows from 1e154 to 1e200, whose squared norms overflow.
    rng = np.random.Generator(np.random.PCG64(61))
    unit = rng.standard_normal((6, d))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    rows = [0.5 * tau * unit[0], tau * np.eye(d)[0], 2.0 * tau * unit[1], 1e3 * tau * unit[2],
            np.zeros(d), np.full(d, -0.0), np.array([-0.0, 0.0, -0.0, 1e-320][:d]),
            np.array([np.nan, 1.0, 0.0, -0.0][:d]), np.array([np.inf, 1.0, -0.0, 2.0][:d]),
            np.array([-np.inf, np.inf, 0.0, 1.0][:d]), np.full(d, np.nan)]
    rows += [s * unit[3 + i % 3] for i, s in enumerate((1e154, 3e160, 1e180, 1e200, -1e200))]
    rows += [np.array([1e200, -1e200, 1e154, -0.0][:d]), np.array([1e308, 1e308, 0.0, -0.0][:d])]
    return np.array(rows)


def _bits(x):
    # The raw bits of a float array, so -0.0 and NaN payloads compare too.
    return np.asarray(x, dtype=float).view(np.uint64)


def _warned(call):
    # call()'s result and the set of (category, message) it warned of.
    import warnings

    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        out = call()
    return out, {(w.category, str(w.message)) for w in caught}


@pytest.mark.parametrize("tau", [1e-300, 1.0, 1e308])
def test_clip_equals_the_where_form_bit_for_bit(tau):
    # The one-scale clip multiplies an unclipped row by exactly 1.0 and a
    # clipped row by the same tau / n the where-form used, so every entry,
    # sign bit and NaN included, is the where-form's, and it warns of
    # nothing the where-form does not.
    from otflow.transport import _clip

    rows = _hard_rows(tau)
    rng = np.random.Generator(np.random.PCG64(62))
    mags = 10.0 ** rng.uniform(-310, 308, (300, 1))
    fuzz = mags * rng.standard_normal((300, 4))
    fuzz[rng.random((300, 4)) < 0.05] = np.nan
    fuzz[rng.random((300, 4)) < 0.05] = -np.inf
    fuzz[rng.random((300, 4)) < 0.05] = -0.0
    for v in (rows, fuzz, rows[2], rows[5], rows[9]):
        n, _ = _warned(lambda: _row_norms(v))
        got, got_warn = _warned(lambda: _clip(v, n, tau))
        want, want_warn = _warned(lambda: _clip_where(v, n, tau))
        assert got.shape == want.shape == v.shape
        assert np.array_equal(_bits(got), _bits(want))
        assert got_warn <= want_warn


@pytest.mark.parametrize("tau", [1e-300, 1.0, 1e308])
@pytest.mark.parametrize("beta0", ["scalar", "zero", "per-row"])
def test_enhance_velocity_equals_the_where_form_bit_for_bit(tau, beta0):
    # A scalar nonzero weight skips both selects; a zero scalar and per-row
    # strengths holding zeros keep them.  Each gives the where-form's
    # velocity, weight and raw norm bit for bit, and warns of nothing it
    # does not.  At t = 0 under 'remaining' the weight is beta0 and the
    # direction is z_target - z over 1.0, so each hard row is the
    # direction as it stands.
    rows = _hard_rows(tau)
    cfg = TransportConfig(beta0=0.7, phi=0.5, clip_tau=tau, orientation="remaining")
    z = np.zeros_like(rows)
    v_base = np.random.Generator(np.random.PCG64(63)).standard_normal(rows.shape)
    strength = {"scalar": None, "zero": 0.0,
                "per-row": np.where(np.arange(len(rows)) % 3 == 0, 0.0, 1.3)}[beta0]
    if beta0 == "zero":
        cfg = TransportConfig(beta0=0.0, phi=0.5, clip_tau=tau, orientation="remaining")
        strength = None
    # The batch, then one state (d,) at the template's strength.
    for zs, targets, vs, b in ((z, rows, v_base, strength), (z[2], rows[2], v_base[2], None)):
        got, got_warn = _warned(lambda: enhance_velocity(vs, zs, targets, 0.0, cfg, b))
        want, want_warn = _warned(lambda: _enhance_where(vs, zs, targets, 0.0, cfg, b))
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.array_equal(_bits(g), _bits(w))
        assert got_warn <= want_warn
