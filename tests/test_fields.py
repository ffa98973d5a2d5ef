"""Oracle velocity fields and condition dispatch.

Cross-validation strategy: the empirical field is checked against a direct
softmax re-derivation and against single-atom closed forms; the Gaussian
field against the scalar-covariance closed form and, statistically, against
the empirical field built from a large sample of the same Gaussian.  The two
implementations never share intermediate code paths in these comparisons.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from otflow import fields
from otflow import (
    Condition,
    FieldRegistry,
    GuidanceScales,
    UnknownDatasetError,
    cfg_blend,
    conditional_linear_velocity,
    empirical_marginal_velocity,
    gaussian_marginal_velocity,
    make_time_grid,
    make_velocity,
    reference_integrate,
)
from otflow.core import integrate


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _softmax_field_reference(points, z, t):
    # Independent re-derivation: posterior over atoms is the softmax of
    # -||z - (1-t) x_i||^2 / (2 t^2); each atom contributes eps_i - x_i with
    # eps_i = (z - (1-t) x_i) / t.
    logits = np.array([-np.sum((z - (1 - t) * x) ** 2) / (2 * t * t) for x in points])
    w = np.exp(logits - logits.max())
    w = w / w.sum()
    vs = np.array([(z - (1 - t) * x) / t - x for x in points])
    return w @ vs


def test_empirical_matches_softmax_reference():
    points = _rng(5).standard_normal((8, 2)) * 1.5
    for t in (0.2, 0.5, 0.9):
        for seed in range(4):
            z = _rng(6, seed).standard_normal(2)
            got = empirical_marginal_velocity(points, z, t)
            want = _softmax_field_reference(points, z, t)
            assert np.linalg.norm(got - want) <= 1e-10


def test_empirical_single_atom_closed_form():
    # One atom collapses the posterior: v = (z - x) / t exactly.
    x = np.array([1.0, -2.0])
    z = np.array([0.4, 0.8])
    for t in (0.1, 0.5, 1.0):
        got = empirical_marginal_velocity(x[None, :], z, t)
        assert np.allclose(got, (z - x) / t, atol=1e-12)


def test_empirical_posterior_weights_normalize():
    # The field is a convex combination of per-atom fields; with all atoms
    # equal it must return that atom's field regardless of count.
    x = np.array([0.7, 0.7])
    points = np.tile(x, (16, 1))
    z = np.array([-0.3, 0.5])
    got = empirical_marginal_velocity(points, z, 0.4)
    assert np.allclose(got, (z - x) / 0.4, atol=1e-12)


@pytest.mark.parametrize("n", [12, 1024])
@pytest.mark.parametrize("d", [2, 16, 64])
def test_empirical_batch_matches_loop(d, n):
    # A row's velocity must not depend on the batch it is evaluated in, both
    # for the bare kernel and through a guided registry evaluation (entry
    # field blended with the pooled null field).
    b = 257
    points = _rng(7, d, n).standard_normal((n, d))
    other = 1.0 + _rng(9, d, n).standard_normal((n, d))
    zs = 0.7 * _rng(8, d, n).standard_normal((b, d))
    reg = FieldRegistry()
    reg.add_points("a", points)
    reg.add_points("b", other)
    cond, scales = Condition.dataset("a"), GuidanceScales(w=2.5)
    batch = empirical_marginal_velocity(points, zs, 0.3)
    batch_reg = make_velocity(reg, cond, scales)(zs, 0.3)
    for i in range(b):
        assert np.array_equal(batch[i], empirical_marginal_velocity(points, zs[i], 0.3))
        assert np.array_equal(batch_reg[i], make_velocity(reg, cond, scales)(zs[i], 0.3))


@pytest.mark.parametrize("offset, z_scale, t", [
    (0.0, 1e3, 1e-4), (1e3, 0.0, 1e-4), (1e3, 0.0, 0.3), (0.0, 1e3, 0.5),
])
def test_empirical_large_state_and_t_floor(offset, z_scale, t):
    # ||z|| ~ 1e3, either far from a unit cloud or near a cloud centred at
    # ||c|| ~ 1e3 (a non-degenerate posterior), and t at the registry's
    # t_floor.  The centred kernel must agree with the per-atom reference.
    d = 4
    rng = _rng(40, d)
    points = offset / np.sqrt(d) + rng.standard_normal((24, d))
    for seed in range(4):
        x = points[seed]
        eps = _rng(41, seed).standard_normal(d)
        z = (1 - t) * x + t * eps + z_scale * eps / np.linalg.norm(eps)
        assert 5e2 <= np.linalg.norm(z) <= 2e3
        got = empirical_marginal_velocity(points, z, t)
        want = _softmax_field_reference(points, z, t)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# Shifted logits -a^2 |o|^2 / 2 of atoms t o away from a base atom: above
# fields._LOG_FLOOR, between it and exp's underflow to zero (about -745), and
# below that.
_LADDER = (-0.5, -10.0, -100.0, -650.0, -715.0, -730.0, -760.0, -900.0, -1e4, -1e6)


def _ladder_set(t, d=16):
    # A base atom, atoms at the _LADDER's shifted logits from it along the
    # first axis and a cloud of 64 atoms, all at offsets scaled by t so that
    # the centred logits keep their precision at small t.
    rng = _rng(42, d)
    base = rng.standard_normal(d)
    ladder = np.zeros((len(_LADDER), d))
    ladder[:, 0] = np.sqrt(-2.0 * np.array(_LADDER)) / (1.0 - t)
    return base, base + t * np.concatenate([np.zeros((1, d)), ladder, 3.0 * rng.standard_normal((64, d))])


@pytest.mark.parametrize("t", [1e-4, 0.02, 0.1, 0.5])
@pytest.mark.parametrize("b", [1, 4, 5, 64])
def test_point_pass_clamp_keeps_the_softmax_bit_for_bit(b, t):
    # The clamp at _LOG_FLOOR before exp must leave m and s those of a plain
    # exp softmax over the same logits, flushed at _WEIGHT_FLOOR, with row 1
    # (when there is one) a NaN row beside the live ones.
    base, points = _ladder_set(t)
    pset = fields._PointSet(points)
    a = 1.0 - t
    zs = a * base + 0.02 * t * _rng(43, b).standard_normal((b, points.shape[1]))
    zs[1:2] = np.nan
    live = ~np.isnan(zs[:, 0])
    with np.errstate(invalid="ignore"):
        m, s, v = fields._point_pass(pset, zs, t)
        logits = fields._point_logits(pset, zs - a * pset.centre, a, t)[:b]
        m_ref = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - m_ref)
        e[e < fields._WEIGHT_FLOOR] = 0.0
    assert np.array_equal(m, m_ref, equal_nan=True)
    assert np.array_equal(s, e.sum(axis=1, keepdims=True), equal_nan=True)
    shifted = (logits - m_ref)[live]
    assert np.all(np.any(shifted > fields._LOG_FLOOR, axis=1))
    assert np.all(np.any((shifted < fields._LOG_FLOOR) & (shifted > -745.0), axis=1))
    assert np.all(np.any(shifted < -745.0, axis=1))
    assert np.all(np.isnan(v[~live]))
    for z, got in zip(zs[live], v[live]):
        want = _softmax_field_reference(points, z, t)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_point_pass_keeps_exp_off_its_underflow_path(monkeypatch):
    # Rows far from the set at t_floor (t = 0 is clamped there), one of them
    # NaN: nearly every shifted logit lies far below exp's underflow, and no
    # exp input may fall below _LOG_FLOOR.
    points = _rng(44).standard_normal((256, 16))
    zs = 5.0 + _rng(45).standard_normal((9, 16))
    zs[3] = np.nan
    seen, exp = [], np.exp

    def recording_exp(x, *args, **kwargs):
        seen.append(np.nanmin(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", recording_exp)
    with np.errstate(invalid="ignore"):
        v = empirical_marginal_velocity(points, zs, 0.0)
    assert seen and min(seen) >= fields._LOG_FLOOR
    assert np.all(np.isfinite(np.delete(v, 3, axis=0))) and np.all(np.isnan(v[3]))


def test_large_point_set_at_t_floor():
    # 16,384 atoms in d = 16 and 64 rows noised from atoms x_k at t = 1e-4:
    # each posterior is the one atom, so s is exactly 1 and v = (z - x_k) / t.
    n, d, t = 16384, 16, 1e-4
    points = _rng(46).standard_normal((n, d))
    k = _rng(47).integers(0, n, 64)
    zs = (1 - t) * points[k] + t * _rng(48).standard_normal((64, d))
    pset = fields._PointSet(points)
    m, s, v = fields._point_pass(pset, zs, t)
    assert np.all(np.isfinite(m)) and np.all(np.isfinite(v))
    assert np.all(s == 1.0)
    _assert_relative(v, (zs - points[k]) / t)
    for i in range(64):
        assert np.array_equal(v[i], empirical_marginal_velocity(points, zs[i], t))


def _pooled_reference(z, t, point_sets=(), gaussians=()):
    # Float64 softmax over every atom at one state z, in log space so that no
    # density underflows at d = 16: a point x is N(a x, t^2 I) at z_t, a
    # Gaussian (mean, cov) is N(a mean, a^2 cov + t^2 I), with a = 1 - t.
    a, d = 1.0 - t, z.shape[0]
    logs, vels = [], []
    for points in point_sets:
        diff = z - a * points
        logs.append(-np.einsum("nd,nd->n", diff, diff) / (2 * t * t) - d * np.log(t))
        vels.append(diff / t - points)
    for mean, cov in gaussians:
        C = a * a * cov + t * t * np.eye(d)
        delta = z - a * mean
        sol = np.linalg.solve(C, delta)
        logs.append([-0.5 * delta @ sol - 0.5 * np.linalg.slogdet(C)[1]])
        vels.append([(t * np.eye(d) - a * cov) @ sol - mean])
    logs = np.concatenate(logs)
    w = np.exp(logs - logs.max())
    return (w / w.sum()) @ np.concatenate(vels)


def _assert_relative(got, want, tol=1e-12):
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= tol * np.linalg.norm(want, axis=1)), err.max()


def _mixture(reg, z, t):
    # The registry's null mixture at state(s) z and time t, as make_velocity
    # calls it: the null velocity, shaped like z, and the (m + k, b, d) entry
    # velocities, Gaussians then point sets.
    t = fields._clamp_t(t)
    z = np.asarray(z, dtype=float)
    kernel = fields._GaussianKernel(reg._stacked) if reg._gaussians else None
    v, vels = reg._mixture(z.reshape(-1, z.shape[-1]), t, kernel)
    return v.reshape(z.shape), vels


def test_mixture_flushes_a_weight_below_the_floor():
    # FieldRegistry._mixture zeroes a component weight under _WEIGHT_FLOOR,
    # the floor _point_pass flushes its atom weights at.  The closed-form
    # kernels give no component a velocity far enough from the others' for
    # such a weight to move a bit, so a stand-in kernel puts Gaussian b
    # 695 below a in log density (a weight of about 1e-302) with a velocity
    # of 1e300: unflushed, it would add about 1e-2 to the null velocity.
    reg = (FieldRegistry().add_gaussian("a", np.zeros(2), np.eye(2))
           .add_gaussian("b", np.ones(2), np.eye(2)))
    vels = np.array([[[1.0, -2.0]], [[1e300, 0.0]]])
    v, got = reg._mixture(np.zeros((1, 2)), 0.5,
                          lambda zb, t: (np.array([[0.0, -695.0]]), vels))
    assert 0.0 < np.exp(-695.0) < fields._WEIGHT_FLOOR
    assert np.array_equal(v, [[1.0, -2.0]]) and got is vels


def _entry_field(reg, name, z, t):
    # Entry name's field from the public kernel that needs no registry, run
    # on the entry's own data.
    if reg.kind(name) == "gaussian":
        return gaussian_marginal_velocity(*reg.gaussian(name), z, t)
    return empirical_marginal_velocity(reg.points(name), z, t)


def _workload_sets(d=16, n=1024):
    # Two 1024-point sets in 16-D, flowedit_points' shape, and 257 states
    # noised from their atoms at t so that posteriors spread over atoms.
    t = 0.4
    a = _rng(60, 1).standard_normal((n, d))
    b = 1.0 + _rng(60, 2).standard_normal((n, d))
    pooled = np.concatenate([a, b])
    rows = _rng(61).integers(0, 2 * n, 257)
    zs = (1 - t) * pooled[rows] + t * _rng(62).standard_normal((257, d))
    return a, b, zs, t


# The point contractions are stacked per-row matmuls: these tests fail if a
# row's result ever depends on the batch it is evaluated in, at the point
# kernel's real size (n = 1024 per set, n = 2048 pooled, d = 16).
@pytest.mark.parametrize("b", [1, 4, 257])
def test_empirical_rows_do_not_depend_on_batch_at_workload_size(b):
    a, other, zs, t = _workload_sets()
    pooled = np.concatenate([a, other])
    zs = zs[:b]
    batch = empirical_marginal_velocity(pooled, zs, t)
    for i in range(b):
        assert np.array_equal(batch[i], empirical_marginal_velocity(pooled, zs[i], t))
    _assert_relative(batch, np.array([_pooled_reference(z, t, [pooled]) for z in zs]))


@pytest.mark.parametrize("b", [1, 4, 257])
def test_guided_point_rows_do_not_depend_on_batch_at_workload_size(b):
    # Dataset a at w = 5.5: its 1024-point field blended with the null field,
    # which pools both sets (n = 2048).
    a, other, zs, t = _workload_sets()
    zs = zs[:b]
    reg = FieldRegistry().add_points("a", a).add_points("b", other)
    cond, scales = Condition.dataset("a"), GuidanceScales(w=5.5)
    batch = make_velocity(reg, cond, scales)(zs, t)
    for i in range(b):
        assert np.array_equal(batch[i], make_velocity(reg, cond, scales)(zs[i], t))
    pooled = np.concatenate([a, other])
    v_null = np.array([_pooled_reference(z, t, [pooled]) for z in zs])
    v_a = np.array([_pooled_reference(z, t, [a]) for z in zs])
    _assert_relative(batch, v_null + 5.5 * (v_a - v_null))


@pytest.mark.parametrize("b", [1, 4, 257])
def test_mixture_point_rows_do_not_depend_on_batch_at_workload_size(b):
    # A 1024-point set beside a Gaussian: the null field is the mixture
    # kernel, whose point atoms are summed by the y_sum contraction.  Half
    # the states are noised from the points, half from the Gaussian.
    a, _, zs, t = _workload_sets()
    d = a.shape[1]
    rng = _rng(63)
    m = rng.standard_normal((d, d)) / 4
    mean, cov = 0.5 + 0.3 * rng.standard_normal(d), m @ m.T + 0.2 * np.eye(d)
    reg = FieldRegistry().add_points("p", a).add_gaussian("g", mean, cov)
    zs = np.concatenate([zs[:128], (1 - t) * reg.sample_gaussian("g", rng, 129)
                         + t * rng.standard_normal((129, d))])[:b]
    batch = make_velocity(reg, Condition.null(), GuidanceScales())(zs, t)
    for i in range(b):
        assert np.array_equal(batch[i],
                              make_velocity(reg, Condition.null(), GuidanceScales())(zs[i], t))
    _assert_relative(batch, np.array([_pooled_reference(z, t, [a], [(mean, cov)]) for z in zs]))


def _point_paths(a, other):
    # Every path through the point kernel's row blocks, as (zs, t) -> v:
    # the bare kernel, the pooled null, dataset a at w = 5.5, and the null
    # mixture of a beside a Gaussian.
    d = a.shape[1]
    m = _rng(64).standard_normal((d, d)) / 4
    reg = FieldRegistry().add_points("a", a).add_points("b", other)
    mix = (FieldRegistry().add_points("p", a)
           .add_gaussian("g", np.full(d, 0.5), m @ m.T + 0.2 * np.eye(d)))
    null, guided = GuidanceScales(), GuidanceScales(w=5.5)
    return {
        "empirical": lambda zs, t: empirical_marginal_velocity(a, zs, t),
        "null": lambda zs, t: make_velocity(reg, Condition.null(), null)(zs, t),
        "guided": lambda zs, t: make_velocity(reg, Condition.dataset("a"), guided)(zs, t),
        "mixture": lambda zs, t: make_velocity(mix, Condition.null(), null)(zs, t),
    }


# Rows are contracted in zero-padded blocks of fields._ROWS: a row's result
# must not depend on its position in the block, nor on the rows beside it,
# be they live, failed (NaN, as core._step_rows leaves them) or overflowing.
@pytest.mark.parametrize("path", ["empirical", "null", "guided", "mixture"])
@pytest.mark.parametrize("neighbours", ["random", "nan", "inf", "huge"])
def test_point_rows_do_not_depend_on_block_position_or_neighbours(path, neighbours):
    a, other, zs, t = _workload_sets()
    field = _point_paths(a, other)[path]
    d, b = a.shape[1], fields._ROWS
    fill = {
        "random": zs[10:10 + b],
        "nan": np.full((b, d), np.nan),
        "inf": np.where(np.arange(d) % 2, np.inf, -np.inf) * np.ones((b, 1)),
        "huge": 1e150 * zs[10:10 + b],
    }[neighbours]
    with np.errstate(all="ignore"):
        for row in zs[:3]:
            alone = field(row, t)
            for pos in range(b):
                batch = fill.copy()
                batch[pos] = row
                assert np.array_equal(field(batch, t)[pos], alone)


@pytest.mark.parametrize("offset, z_scale, t", [
    (0.0, 1e3, 1e-4), (1e3, 0.0, 1e-4), (1e3, 0.0, 0.3), (0.0, 1e3, 0.5),
])
def test_registry_point_paths_large_state_and_t_floor(offset, z_scale, t):
    # The settings of test_empirical_large_state_and_t_floor, through a
    # two-set registry: the augmented product folds ||y||^2 into the GEMM,
    # and the pooled null and the guided dataset field must still match the
    # per-atom reference.
    d = 4
    rng = _rng(40, d)
    points = offset / np.sqrt(d) + rng.standard_normal((24, d))
    other = offset / np.sqrt(d) + 1.0 + _rng(42, d).standard_normal((24, d))
    zs = []
    for seed in range(4):
        eps = _rng(41, seed).standard_normal(d)
        zs.append((1 - t) * points[seed] + t * eps + z_scale * eps / np.linalg.norm(eps))
    zs = np.array(zs)
    assert np.all((5e2 <= np.linalg.norm(zs, axis=1)) & (np.linalg.norm(zs, axis=1) <= 2e3))
    reg = FieldRegistry().add_points("a", points).add_points("b", other)
    pooled = np.concatenate([points, other])
    v_null = np.array([_pooled_reference(z, t, [pooled]) for z in zs])
    v_a = np.array([_pooled_reference(z, t, [points]) for z in zs])
    _assert_relative(make_velocity(reg, Condition.null(), GuidanceScales())(zs, t), v_null, 1e-10)
    _assert_relative(make_velocity(reg, Condition.dataset("a"), GuidanceScales(w=5.5))(zs, t),
                     v_null + 5.5 * (v_a - v_null), 1e-10)


def _three_sets(d=16, n=1024):
    # Three 1024-point sets in 16-D (_workload_sets' two and a narrower third
    # at the origin), and 257 states noised from their atoms at t.
    a, other, _, t = _workload_sets(d, n)
    third = 0.5 * _rng(60, 3).standard_normal((n, d))
    pooled = np.concatenate([a, other, third])
    rows = _rng(65).integers(0, 3 * n, 257)
    zs = (1 - t) * pooled[rows] + t * _rng(66).standard_normal((257, d))
    reg = FieldRegistry().add_points("a", a).add_points("b", other).add_points("c", third)
    return reg, (a, other, third), zs, t


def _combined_paths(reg):
    # The two fields built from one pass per point set: the combined null
    # branch of a guided evaluation, and set b at w = 5.5.
    return {
        "combined": lambda zs, t: _mixture(reg, zs, t)[0],
        "guided": lambda zs, t: make_velocity(reg, Condition.dataset("b"),
                                              GuidanceScales(w=5.5))(zs, t),
    }


# Batch sizes on both sides of the point kernel's block edge, fields._ROWS.
_BLOCK_EDGE_BATCHES = sorted({1, 4, fields._ROWS - 1, fields._ROWS, fields._ROWS + 1, 64, 257})


@pytest.mark.parametrize("b", _BLOCK_EDGE_BATCHES)
def test_three_set_rows_do_not_depend_on_batch_at_workload_size(b):
    reg, sets, zs, t = _three_sets()
    zs = zs[:b]
    v_null = np.array([_pooled_reference(z, t, sets) for z in zs])
    v_b = np.array([_pooled_reference(z, t, sets[1:2]) for z in zs])
    wants = {"combined": v_null, "guided": v_null + 5.5 * (v_b - v_null)}
    for path, field in _combined_paths(reg).items():
        batch = field(zs, t)
        for i in range(b):
            assert np.array_equal(batch[i], field(zs[i], t))
        _assert_relative(batch, wants[path])


@pytest.mark.parametrize("path", ["combined", "guided"])
@pytest.mark.parametrize("neighbours", ["random", "nan", "inf", "huge"])
def test_three_set_rows_do_not_depend_on_block_position_or_neighbours(path, neighbours):
    reg, _, zs, t = _three_sets()
    field = _combined_paths(reg)[path]
    d, b = zs.shape[1], fields._ROWS
    fill = {
        "random": zs[10:10 + b],
        "nan": np.full((b, d), np.nan),
        "inf": np.where(np.arange(d) % 2, np.inf, -np.inf) * np.ones((b, 1)),
        "huge": 1e150 * zs[10:10 + b],
    }[neighbours]
    with np.errstate(all="ignore"):
        for row in zs[:3]:
            alone = field(row, t)
            for pos in range(b):
                batch = fill.copy()
                batch[pos] = row
                assert np.array_equal(field(batch, t)[pos], alone)


@pytest.mark.parametrize("name, w", [("a", 1.5), ("b", 5.5)])
def test_flowedit_point_rows_do_not_depend_on_batch(name, w):
    # flowedit_points' own shape: two 1024-point sets in 16-D, a 64-row
    # batch, and its source and target conditions at w_src and w_tar.
    a, other, zs, t = _workload_sets()
    reg = FieldRegistry().add_points("a", a).add_points("b", other)
    field = make_velocity(reg, Condition.dataset(name), GuidanceScales(w=w))
    batch = field(zs[:64], t)
    for i in range(64):
        assert np.array_equal(batch[i], field(zs[i], t))


def _ladder_fields(kind):
    # A points-only, a Gaussian-plus-points and a two-Gaussian registry,
    # each evaluated at its null condition and at its first entry (point
    # set a, or Gaussian g) at w = 5.5.
    a, other, zs, t = _workload_sets()
    d = a.shape[1]
    m = _rng(67).standard_normal((d, d)) / 4
    reg = FieldRegistry()
    if kind == "gaussians":
        reg.add_gaussian("g", np.full(d, 0.5), m @ m.T + 0.2 * np.eye(d))
        reg.add_gaussian("h", np.full(d, -1.0), 0.3 * np.eye(d))
    elif kind == "points":
        reg.add_points("a", a).add_points("b", other)
    else:
        reg.add_points("a", a).add_gaussian("g", np.full(d, 0.5), m @ m.T + 0.2 * np.eye(d))
    bound = {"null": make_velocity(reg, Condition.null(), GuidanceScales()),
             "dataset": make_velocity(reg, Condition.dataset(reg.names()[0]),
                                      GuidanceScales(w=5.5))}
    return bound, zs[:fields._ROWS + 1], t


# The magnitude ladder over the field kernels: one row scaled far past any
# workload's states, at the first and the last position of a block, must
# leave every other row of its batch bit for bit as evaluated alone, and
# give what it gives alone, NaN entries included.  Beside a Gaussian the
# huge row itself turns NaN from 1e200.
@pytest.mark.parametrize("scale", [1e10, 1e50, 1e100, 1e150, 1e200, 1e250, 1e300])
@pytest.mark.parametrize("cond", ["null", "dataset"])
@pytest.mark.parametrize("kind", ["points", "mixed", "gaussians"])
def test_point_rows_beside_a_huge_row_do_not_depend_on_batch(kind, cond, scale):
    bound, zs, t = _ladder_fields(kind)
    field = bound[cond]
    with np.errstate(all="ignore"):
        alone = [field(z, t) for z in zs]
        for pos in (0, fields._ROWS - 1):
            batch = zs.copy()
            batch[pos] *= scale
            got = field(batch, t)
            assert np.array_equal(got[pos], field(batch[pos], t), equal_nan=True)
            for i in np.delete(np.arange(len(zs)), pos):
                assert np.array_equal(got[i], alone[i])


@pytest.mark.parametrize("w", [2.5, 5.5])
def test_guided_point_entry_shares_one_pass_per_set(w, monkeypatch):
    # At w != 1 a point-set condition reads its entry field and the combined
    # null field from one logits pass per registered set, and equals the two
    # branches evaluated apart; the pooled null kernel agrees to rounding.
    a, other, zs, t = _workload_sets()
    reg = FieldRegistry().add_points("a", a).add_points("b", other)
    zs = zs[:5]
    logits, calls = fields._point_logits, []
    monkeypatch.setattr(fields, "_point_logits", lambda *args: calls.append(1) or logits(*args))
    for name in ("a", "b"):
        for z in (zs, zs[0]):
            calls.clear()
            got = make_velocity(reg, Condition.dataset(name), GuidanceScales(w=w))(z, t)
            assert len(calls) == 2
            v_cond = _entry_field(reg, name, z, t)
            want = cfg_blend(_mixture(reg, z, t)[0], v_cond, w)
            assert got.shape == z.shape and np.array_equal(got, want)
            v_null = make_velocity(reg, Condition.null(), GuidanceScales())(z, t)
            pooled = cfg_blend(v_null, v_cond, w).reshape(-1, z.shape[-1])
            _assert_relative(got.reshape(-1, z.shape[-1]), pooled, 1e-13)


@pytest.mark.parametrize("t", [1e-4, 0.3])
def test_point_sets_far_apart_large_state_and_t_floor(t):
    # Two sets whose centres lie 1e3 apart and states at ||z|| ~ 1e3: noised
    # from atoms of the far set, or from atoms of the near set moved 1e3 away
    # in a random direction.  The cross-set offset is large, and the combined
    # null, the pooled null and the guided field must match the reference.
    d = 4
    shift = 1e3 / np.sqrt(d)
    points = shift + _rng(43, d).standard_normal((24, d))
    other = _rng(44, d).standard_normal((24, d))
    zs = []
    for seed in range(4):
        eps = _rng(45, seed).standard_normal(d)
        x = (points if seed % 2 == 0 else other + 1e3 * eps / np.linalg.norm(eps))[seed]
        zs.append((1 - t) * x + t * eps)
    zs = np.array(zs)
    assert np.all((5e2 <= np.linalg.norm(zs, axis=1)) & (np.linalg.norm(zs, axis=1) <= 2e3))
    reg = FieldRegistry().add_points("a", points).add_points("b", other)
    v_null = np.array([_pooled_reference(z, t, [points, other]) for z in zs])
    v_a = np.array([_pooled_reference(z, t, [points]) for z in zs])
    _assert_relative(_mixture(reg, zs, t)[0], v_null, 1e-10)
    _assert_relative(make_velocity(reg, Condition.null(), GuidanceScales())(zs, t), v_null, 1e-10)
    _assert_relative(make_velocity(reg, Condition.dataset("a"), GuidanceScales(w=5.5))(zs, t),
                     v_null + 5.5 * (v_a - v_null), 1e-10)


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_marginal_velocity(np.zeros((0, 2)), np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        empirical_marginal_velocity(np.zeros((3, 2)), np.zeros(3), 0.5)
    # The registry's prepared sets keep the state-dimension check.
    reg = FieldRegistry().add_points("a", np.zeros((3, 2)))
    for cond in (Condition.null(), Condition.dataset("a")):
        with pytest.raises(ValueError, match="state dim"):
            make_velocity(reg, cond, GuidanceScales())(np.zeros(3), 0.5)


@pytest.mark.parametrize("w", [1.0, 2.5])
@pytest.mark.parametrize("kind", ["gaussian", "points", "mixed"])
def test_bound_fields_reject_a_wrong_state_dim(kind, w):
    # Every binding names a state of the wrong dimension, single or batched,
    # before any kernel runs.
    regs, _ = _binding_registries(d=4)
    for cond in (Condition.null(), Condition.dataset("a"), Condition.dataset("b")):
        field = make_velocity(regs[kind], cond, GuidanceScales(w=w))
        for shape in ((3,), (5,), (7, 3), (7, 5)):
            with pytest.raises(ValueError, match=r"^state dim "):
                field(np.zeros(shape), 0.5)


def test_gaussian_identity_covariance_closed_form():
    # For cov = I the gain is scalar: v = (2t-1)/(2t^2-2t+1) (z - (1-t) mu) - mu.
    mu = np.array([2.0, -1.0])
    z = np.array([0.3, 0.9])
    for t in (0.25, 0.5, 0.75):
        gain = (2 * t - 1) / (2 * t * t - 2 * t + 1)
        want = gain * (z - (1 - t) * mu) - mu
        got = gaussian_marginal_velocity(mu, np.eye(2), z, t)
        assert np.allclose(got, want, atol=1e-12)


def test_gaussian_at_scaled_mean_returns_minus_mean():
    # z = (1-t) mu zeroes the linear term, leaving v = -mu.
    mu = np.array([1.5, 0.5, -3.0])
    cov = np.diag([0.5, 1.0, 2.0])
    for t in (0.2, 0.6):
        got = gaussian_marginal_velocity(mu, cov, (1 - t) * mu, t)
        assert np.allclose(got, -mu, atol=1e-12)


def test_gaussian_degenerate_covariance_matches_point_field():
    mu = np.array([0.5, -0.5])
    z = np.array([1.0, 1.0])
    got = gaussian_marginal_velocity(mu, np.zeros((2, 2)), z, 0.3)
    want = empirical_marginal_velocity(mu[None, :], z, 0.3)
    assert np.allclose(got, want, atol=1e-10)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        gaussian_marginal_velocity(np.zeros(2), np.zeros((3, 3)), np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        gaussian_marginal_velocity(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                                   np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        gaussian_marginal_velocity(np.zeros(2), -np.eye(2), np.zeros(2), 0.5)


@pytest.mark.parametrize("d, t, tol", [
    (1, 0.25, 0.10), (1, 0.5, 0.10), (1, 0.75, 0.10),
    (2, 0.25, 0.10), (2, 0.5, 0.10), (2, 0.75, 0.10),
    (8, 0.5, 0.15), (8, 0.75, 0.15),
])
def test_gaussian_agrees_with_large_sample_empirical(d, t, tol):
    # 4096 draws of N(mu, cov) as an empirical dataset: its field converges
    # to the Gaussian closed form.  Probes sit on the time-t marginal, where
    # the posterior is well covered by the sample; low dimensions get a 10%
    # band, d = 8 a wider one (posterior bandwidth shrinks with t, so small
    # t in high dimension is excluded as genuinely undersampled).
    rng = _rng(0, 20, d)
    A = rng.standard_normal((d, d)) * 0.3
    cov = A @ A.T + 0.5 * np.eye(d)
    mean = rng.standard_normal(d)
    samples = rng.multivariate_normal(mean, cov, size=4096)
    for _ in range(8):
        x = rng.multivariate_normal(mean, cov)
        eps = rng.standard_normal(d)
        z = (1 - t) * x + t * eps
        vg = gaussian_marginal_velocity(mean, cov, z, t)
        ve = empirical_marginal_velocity(samples, z, t)
        rel = np.linalg.norm(ve - vg) / (np.linalg.norm(vg) + 1.0)
        assert rel <= tol


@pytest.mark.parametrize("size", [None, 37])
@pytest.mark.parametrize("d", [1, 2, 8, 16])
def test_sample_gaussian_equals_multivariate_normal(d, size):
    # The factor kept at registration reproduces numpy's SVD-method draw bit
    # for bit, for a full-rank and a rank-deficient cov; sampled x0 and the
    # gen-data CSVs rely on it, so a numpy release that changes its method
    # fails here.
    rng = _rng(60, d)
    full = rng.standard_normal((d, d))
    low = rng.standard_normal((d, max(1, d // 3)))
    reg = FieldRegistry()
    reg.add_gaussian("full", rng.standard_normal(d), full @ full.T / d + 0.1 * np.eye(d))
    reg.add_gaussian("low_rank", rng.standard_normal(d), low @ low.T)
    for name in reg.names():
        mean, cov = reg.gaussian(name)
        for seed in range(300):
            want = _rng(seed).multivariate_normal(mean, cov, size)
            assert np.array_equal(reg.sample_gaussian(name, _rng(seed), size), want)


def _two_gaussian_registry(d, with_points):
    # Two Gaussians with full covariances, optionally a 12-point set
    # registered between them.
    rng = _rng(50, d, int(with_points))
    reg = FieldRegistry()
    for name, shift in (("g1", -0.5), ("g2", 0.5)):
        A = rng.standard_normal((d, d)) / np.sqrt(d)
        reg.add_gaussian(name, shift + 0.3 * rng.standard_normal(d), A @ A.T + 0.2 * np.eye(d))
        if with_points and name == "g1":
            reg.add_points("p", 0.5 * rng.standard_normal((12, d)))
    return reg


@pytest.mark.parametrize("with_points", [False, True])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_gaussian_and_mixture_rows_do_not_depend_on_batch(d, with_points):
    # Each row of a batched evaluation equals its single-row call bit for
    # bit: the entry's column at w = 1, the null mixture and the guided blend.
    b, t = 257, 0.4
    reg = _two_gaussian_registry(d, with_points)
    zs = 0.8 * _rng(51, d).standard_normal((b, d))
    for cond in (Condition.null(), Condition.dataset("g2")):
        for w in (1.0, 2.0):
            batch = make_velocity(reg, cond, GuidanceScales(w=w))(zs, t)
            for i in range(b):
                assert np.array_equal(batch[i],
                                      make_velocity(reg, cond, GuidanceScales(w=w))(zs[i], t))


@pytest.mark.parametrize("with_points", [False, True])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_guided_gaussian_entry_shares_the_null_kernel_call(d, with_points, monkeypatch):
    # At w != 1 a Gaussian entry's field is read from the null mixture's one
    # kernel call, and equals evaluating the two branches apart.
    t = 0.4
    reg = _two_gaussian_registry(d, with_points)
    zs = 0.8 * _rng(52, d).standard_normal((5, d))
    kernel, calls = fields._gaussian_velocity_eig, []
    monkeypatch.setattr(fields, "_gaussian_velocity_eig",
                        lambda *args: calls.append(1) or kernel(*args))
    for name in ("g1", "g2"):
        for z in (zs, zs[0]):
            calls.clear()
            got = make_velocity(reg, Condition.dataset(name), GuidanceScales(w=2.0))(z, t)
            assert len(calls) == 1
            v_null = make_velocity(reg, Condition.null(), GuidanceScales())(z, t)
            want = cfg_blend(v_null, _entry_field(reg, name, z, t), 2.0)
            assert got.shape == z.shape and np.array_equal(got, want)


def _workload_gaussians(setting):
    # Two Gaussians at a benchmark workload's shape, with its guidance weight:
    # invert_sweep's well separated 2-D pair of variance 0.25 at w = 7.5, or
    # verify_bounds' 8-D pair with one full covariance at w = 2.  Means are
    # jittered as the workloads jitter theirs.  1024 states, half noised
    # from each Gaussian, at each of a few times.
    if setting == "invert_sweep":
        d, w = 2, 7.5
        means = np.array([[-1.5, 0.0], [1.5, 0.5]])
        cov = 0.25 * np.eye(d)
    else:
        d, w = 8, 2.0
        means = np.zeros((2, d))
        means[0, 0], means[1, :2] = -1.5, (1.5, 0.5)
        cov = np.full((d, d), 0.05) + 0.25 * np.eye(d)
    means = means + 0.05 * _rng(70, d).standard_normal((2, d))
    reg = FieldRegistry().add_gaussian("a", means[0], cov).add_gaussian("b", means[1], cov)
    rng = _rng(71, d)
    x = np.concatenate([reg.sample_gaussian("a", rng, 512), reg.sample_gaussian("b", rng, 512)])
    eps = rng.standard_normal((1024, d))
    states = {t: (1 - t) * x + t * eps for t in (0.9, 0.4, 0.05)}
    return reg, [("gaussian", (m, cov)) for m in means], w, states


# Each benchmark workload's Gaussian setting at its batch sizes: invert_sweep
# evaluates one row or its 400-row sweep group, verify_bounds one row (the
# RK4 reference) or its 1024-row bank.
@pytest.mark.parametrize("setting, b", [("invert_sweep", 1), ("invert_sweep", 400),
                                        ("verify_bounds", 1), ("verify_bounds", 1024)])
def test_gaussian_rows_do_not_depend_on_batch_at_workload_shapes(setting, b):
    reg, entries, w, states = _workload_gaussians(setting)
    scales = GuidanceScales(w=w)
    for t, zs in states.items():
        zs = zs[:b]
        v_null = np.array([_mixture_reference(entries, z, t) for z in zs])
        v_b = np.array([_mixture_reference(entries[1:], z, t) for z in zs])
        for cond, want in ((Condition.null(), v_null),
                           (Condition.dataset("b"), v_null + w * (v_b - v_null))):
            batch = make_velocity(reg, cond, scales)(zs, t)
            for i in range(b):
                assert np.array_equal(batch[i], make_velocity(reg, cond, scales)(zs[i], t))
            _assert_relative(batch, want)


def _column_setting(setting):
    # A registry at a benchmark workload's shape and its states by time:
    # invert_sweep's or verify_bounds' two Gaussians, flowedit_points' two
    # 1024-point sets in 16-D, or those two sets registered after a Gaussian,
    # with half the states noised from the Gaussian.
    if setting in ("invert_sweep", "verify_bounds"):
        reg, _, _, states = _workload_gaussians(setting)
        return reg, states
    a, other, zs, t = _workload_sets()
    if setting == "points":
        return FieldRegistry().add_points("a", a).add_points("b", other), {t: zs}
    d, rng = a.shape[1], _rng(67)
    m = rng.standard_normal((d, d)) / 4
    reg = (FieldRegistry().add_gaussian("g", 0.5 + 0.3 * rng.standard_normal(d),
                                        m @ m.T + 0.2 * np.eye(d))
           .add_points("a", a).add_points("b", other))
    noised = (1 - t) * reg.sample_gaussian("g", rng, 128) + t * rng.standard_normal((128, d))
    return reg, {t: np.concatenate([zs[:129], noised])}


@pytest.mark.parametrize("setting", ["invert_sweep", "verify_bounds", "points", "mixed"])
def test_gaussian_entry_equals_its_null_column_at_workload_shapes(setting):
    # Each entry's column of the null mixture, and a dataset condition at
    # w = 1, equal the public kernel on that entry's own data bit for bit, at
    # b = 1, 4, 257 and at the whole state bank.
    reg, states = _column_setting(setting)
    for t, zs in states.items():
        for b in sorted({1, 4, 257, len(zs)}):
            vels = _mixture(reg, zs[:b], t)[1]
            for name in reg.names():
                want = _entry_field(reg, name, zs[:b], t)
                assert np.array_equal(vels[reg._column(name)], want)
                got = make_velocity(reg, Condition.dataset(name), GuidanceScales())(zs[:b], t)
                assert np.array_equal(got, want)


# The Gaussian kernel contracts rows in the point kernel's zero-padded blocks
# of fields._ROWS, so the same holds of it: a row's result depends neither on
# its position in the block nor on the rows beside it.
@pytest.mark.parametrize("neighbours", ["random", "nan", "inf", "huge"])
@pytest.mark.parametrize("cond", ["null", "guided"])
@pytest.mark.parametrize("with_points", [False, True])
@pytest.mark.parametrize("d", [2, 8, 64])
def test_gaussian_rows_do_not_depend_on_block_position_or_neighbours(d, with_points, cond,
                                                                      neighbours):
    t, b = 0.4, fields._ROWS
    reg = _two_gaussian_registry(d, with_points)
    condition = Condition.null() if cond == "null" else Condition.dataset("g2")
    field = make_velocity(reg, condition, GuidanceScales(w=2.0))
    zs = 0.8 * _rng(53, d).standard_normal((3 + b, d))
    fill = {
        "random": zs[3:],
        "nan": np.full((b, d), np.nan),
        "inf": np.where(np.arange(d) % 2, np.inf, -np.inf) * np.ones((b, 1)),
        "huge": 1e300 * zs[3:],
    }[neighbours]
    with np.errstate(all="ignore"):
        for row in zs[:3]:
            alone = field(row, t)
            for pos in range(b):
                batch = fill.copy()
                batch[pos] = row
                assert np.array_equal(field(batch, t)[pos], alone)


@pytest.mark.parametrize("s, tol", [(1e3, 3e-12), (1e6, 1e-9)])
def test_gaussian_field_is_translation_equivariant(s, tol):
    # Shifting every mean by s (on each coordinate) and every state by a s
    # shifts the field by -s.  The kernel centres the rows on each component
    # before its product, so the error stays near the rounding of s itself.
    # Measured at d = 8 (verify_bounds' setting, 256 noised states, null and
    # w = 2 guided, max over t): 1.0e-12 at s = 1e3 and 5.5e-10 at s = 1e6,
    # the same as projecting z - a mu per component; folding -a mu Q into the
    # product's bias row instead (no centring) gives 2.1e-9 at s = 1e6.
    d = 8
    means = np.zeros((2, d))
    means[0, 0], means[1, :2] = -1.5, (1.5, 0.5)
    means = means + 0.05 * _rng(70, d).standard_normal((2, d))
    cov = np.full((d, d), 0.05) + 0.25 * np.eye(d)

    def registry(shift):
        return (FieldRegistry().add_gaussian("a", means[0] + shift, cov)
                .add_gaussian("b", means[1] + shift, cov))

    reg, moved = registry(0.0), registry(s)
    rng = _rng(71, d)
    x = np.concatenate([reg.sample_gaussian("a", rng, 128), reg.sample_gaussian("b", rng, 128)])
    eps = rng.standard_normal((256, d))
    for t in (0.9, 0.4, 1e-4):
        zs = (1 - t) * x + t * eps
        for cond in (Condition.null(), Condition.dataset("b")):
            scales = GuidanceScales(w=2.0)
            want = make_velocity(reg, cond, scales)(zs, t)
            got = make_velocity(moved, cond, scales)(zs + (1 - t) * s, t) + s
            assert np.abs(got - want).max() <= tol


def test_conditional_linear_lands_exactly():
    z_ref = np.array([0.8, -1.3])
    z_start = np.array([3.0, 2.0])
    grid = make_time_grid(28, 1.0, 0.0)
    traj = integrate(lambda z, t: conditional_linear_velocity(z_ref, z, t), z_start, grid)
    # The per-step contraction telescopes: the final factor is 1 - dt/dt = 0,
    # so the landing error is pure float rounding.
    assert np.linalg.norm(traj.final_state - z_ref) <= 1e-12


def test_conditional_linear_t_floor():
    z_ref = np.zeros(2)
    z = np.ones(2)
    at_zero = conditional_linear_velocity(z_ref, z, 0.0)
    at_floor = conditional_linear_velocity(z_ref, z, fields._T_FLOOR)
    assert np.array_equal(at_zero, at_floor)


def test_cfg_blend_endpoints_and_extrapolation():
    vu = np.array([1.0, 0.0])
    vc = np.array([0.0, 1.0])
    assert cfg_blend(vu, vc, 0.0) is vu
    assert cfg_blend(vu, vc, 1.0) is vc
    got = cfg_blend(vu, vc, 7.5)
    assert np.allclose(got, vu + 7.5 * (vc - vu), atol=1e-15)
    with pytest.raises(ValueError):
        cfg_blend(vu, np.zeros(3), 2.0)
    with pytest.raises(ValueError):
        cfg_blend(vu, vc, np.inf)


def test_condition_constructors_and_validation():
    assert Condition.null().kind == "null"
    assert Condition.dataset("x").name == "x"
    with pytest.raises(ValueError):
        Condition(kind="bogus")
    with pytest.raises(ValueError):
        Condition(kind="dataset")
    with pytest.raises(ValueError):
        Condition(kind="reference")


def test_condition_is_a_hashable_value():
    # A condition is its (kind, name): equal pairs compare and hash equal.
    assert Condition.dataset("x") == Condition(kind="dataset", name="x")
    assert Condition.dataset("x") != Condition.dataset("y")
    assert Condition.null() != Condition.dataset("x")
    assert len({Condition.null(), Condition.null(), Condition.dataset("x")}) == 2


def test_registry_registration_rules():
    reg = FieldRegistry()
    reg.add_points("a", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        reg.add_points("a", np.ones((2, 2)))
    with pytest.raises(ValueError):
        reg.add_points("b", np.zeros((2, 3)))  # dim mismatch
    reg.add_gaussian("g", np.zeros(2), np.eye(2))
    assert reg.names() == ["a", "g"]
    assert reg.kind("a") == "points" and reg.kind("g") == "gaussian"
    assert reg.dim() == 2
    with pytest.raises(UnknownDatasetError):
        reg.points("missing")
    with pytest.raises(UnknownDatasetError):
        reg.kind("missing")
    assert issubclass(UnknownDatasetError, KeyError)


def test_null_condition_pools_point_datasets_bit_exactly():
    a = _rng(1).standard_normal((4, 2))
    b = _rng(2).standard_normal((6, 2))
    reg = FieldRegistry()
    reg.add_points("a", a)
    reg.add_points("b", b)
    z = np.array([0.2, -0.4])
    got = make_velocity(reg, Condition.null(), GuidanceScales())(z, 0.45)
    want = empirical_marginal_velocity(np.concatenate([a, b]), z, 0.45)
    assert np.array_equal(got, want)


def test_pooled_point_set_is_built_at_the_first_null_binding():
    # Registration and dataset-condition bindings build no pooled set; the
    # first null binding builds it and later null bindings share it.
    a = _rng(3).standard_normal((5, 3))
    b = _rng(4).standard_normal((7, 3))
    reg = FieldRegistry().add_points("a", a).add_points("b", b)
    assert reg._pooled is None
    z = _rng(5).standard_normal((4, 3))
    make_velocity(reg, Condition.dataset("b"), GuidanceScales(w=2.0))(z, 0.3)
    assert reg._pooled is None
    first = make_velocity(reg, Condition.null(), GuidanceScales())
    pooled = reg._pooled
    assert pooled is not None
    make_velocity(reg, Condition.null(), GuidanceScales())
    assert reg._pooled is pooled
    assert np.array_equal(first(z, 0.3), empirical_marginal_velocity(np.concatenate([a, b]), z, 0.3))


def test_add_points_drops_the_pooled_set_and_the_next_null_binding_pools_every_set():
    sets = [_rng(6 + i).standard_normal((3 + 2 * i, 2)) for i in range(3)]
    reg = FieldRegistry().add_points("a", sets[0]).add_points("b", sets[1])
    make_velocity(reg, Condition.null(), GuidanceScales())
    reg.add_points("c", sets[2])
    assert reg._pooled is None
    z = _rng(9).standard_normal((17, 2))
    got = make_velocity(reg, Condition.null(), GuidanceScales())(z, 0.55)
    assert np.array_equal(got, empirical_marginal_velocity(np.concatenate(sets), z, 0.55))


def test_registering_point_sets_holds_no_pooled_copy():
    # 8 sets of 10,000 x 16: the traced peak of registering them stays near
    # the prepared sets' own bases, with no pooled copy of their atoms, which
    # would at least double it.
    import tracemalloc

    sets = [_rng(10, i).standard_normal((10_000, 16)) for i in range(8)]
    reg = FieldRegistry()
    tracemalloc.start()
    try:
        for i, points in enumerate(sets):
            reg.add_points(f"s{i}", points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bases = sum(reg._points[f"s{i}"].basis.nbytes for i in range(8))
    assert peak < 1.25 * bases, (peak, bases)


def test_null_condition_single_gaussian_shortcut():
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    reg = FieldRegistry()
    reg.add_gaussian("d", mu, cov)
    z = np.array([0.3, 0.3])
    got = make_velocity(reg, Condition.null(), GuidanceScales())(z, 0.6)
    want = gaussian_marginal_velocity(mu, cov, z, 0.6)
    assert np.allclose(got, want, atol=1e-12)


def _mixture_reference(entries, z, t):
    # entries: list of ("points", arr) / ("gaussian", (mean, cov)).  Uniform
    # atom-level pooling with full log densities, re-derived independently.
    a = 1.0 - t
    dens, vels = [], []
    d = z.shape[0]
    for kind, payload in entries:
        if kind == "points":
            for x in payload:
                diff = z - a * x
                dens.append(float(np.exp(-np.sum(diff ** 2) / (2 * t * t)) / t ** d))
                vels.append(diff / t - x)
        else:
            mean, cov = payload
            C = a * a * cov + t * t * np.eye(d)
            delta = z - a * mean
            dens.append(float(np.exp(-0.5 * delta @ np.linalg.solve(C, delta))
                              / np.sqrt(np.linalg.det(C))))
            vels.append((t * np.eye(d) - a * cov) @ np.linalg.solve(C, delta) - mean)
    w = np.array(dens)
    w = w / w.sum()
    return w @ np.array(vels)


def test_null_condition_mixed_kinds_matches_reference():
    pts = np.array([[1.0, 1.0], [-1.0, 0.5], [0.0, -1.0]])
    mu = np.array([0.5, -0.5])
    cov = np.array([[0.6, 0.1], [0.1, 0.4]])
    reg = FieldRegistry()
    reg.add_points("p", pts)
    reg.add_gaussian("g", mu, cov)
    for t in (0.3, 0.6, 0.9):
        for seed in range(3):
            z = _rng(30, seed).standard_normal(2) * 0.7
            got = make_velocity(reg, Condition.null(), GuidanceScales())(z, t)
            want = _mixture_reference([("points", pts), ("gaussian", (mu, cov))], z, t)
            assert np.linalg.norm(got - want) <= 1e-9


def test_evaluate_dataset_condition_with_guidance():
    reg = FieldRegistry()
    reg.add_points("a", np.array([[1.0, 0.0]]))
    reg.add_points("b", np.array([[-1.0, 0.0]]))
    z = np.array([0.1, 0.2])
    t = 0.5
    v_null = make_velocity(reg, Condition.null(), GuidanceScales())(z, t)
    v_a = empirical_marginal_velocity(np.array([[1.0, 0.0]]), z, t)
    # w = 1 returns the conditional field untouched
    got1 = make_velocity(reg, Condition.dataset("a"), GuidanceScales(w=1.0))(z, t)
    assert np.array_equal(got1, v_a)
    got = make_velocity(reg, Condition.dataset("a"), GuidanceScales(w=3.0))(z, t)
    assert np.allclose(got, v_null + 3.0 * (v_a - v_null), atol=1e-12)
    with pytest.raises(UnknownDatasetError):
        make_velocity(reg, Condition.dataset("zzz"), GuidanceScales())(z, t)


def test_null_on_empty_registry_fails():
    reg = FieldRegistry()
    with pytest.raises(ValueError):
        make_velocity(reg, Condition.null(), GuidanceScales())(np.zeros(2), 0.5)


def test_make_velocity_binds_arguments():
    reg = FieldRegistry()
    reg.add_points("a", np.array([[1.0, 1.0]]))
    vel = make_velocity(reg, Condition.dataset("a"), GuidanceScales())
    z = np.array([0.0, 0.0])
    assert np.array_equal(vel(z, 0.5),
                          make_velocity(reg, Condition.dataset("a"), GuidanceScales())(z, 0.5))


def test_make_velocity_checks_the_guidance_weight_at_binding():
    # A dataset condition checks its weight once, when it binds; the null
    # condition reads no weight.
    reg = FieldRegistry().add_points("a", np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError, match="guidance weight must be finite"):
        make_velocity(reg, Condition.dataset("a"), SimpleNamespace(w=np.nan))
    z = np.zeros(2)
    assert np.array_equal(make_velocity(reg, Condition.null(), SimpleNamespace(w=np.nan))(z, 0.5),
                          make_velocity(reg, Condition.null(), GuidanceScales())(z, 0.5))


def _binding_registries(d=4):
    # A Gaussian-only, a points-only and a mixed registry in d dimensions,
    # each with two entries, and 257 states around them.
    rng = _rng(80, d)
    covs = [A @ A.T + 0.2 * np.eye(d) for A in rng.standard_normal((2, d, d)) / np.sqrt(d)]
    clouds = [shift + 0.5 * rng.standard_normal((12, d)) for shift in (-0.5, 0.5)]
    regs = {
        "gaussian": FieldRegistry().add_gaussian("a", -0.5 * np.ones(d), covs[0])
                                   .add_gaussian("b", 0.5 * np.ones(d), covs[1]),
        "points": FieldRegistry().add_points("a", clouds[0]).add_points("b", clouds[1]),
        "mixed": FieldRegistry().add_gaussian("a", -0.5 * np.ones(d), covs[0])
                                .add_points("b", clouds[1]),
    }
    return regs, 0.8 * rng.standard_normal((257, d))


@pytest.mark.parametrize("b", [1, 4, 257])
@pytest.mark.parametrize("kind", ["gaussian", "points", "mixed"])
def test_bound_field_equals_evaluate_across_its_time_memo(kind, b):
    # One binding called along a time sequence that hits its memo (a
    # repeated t; two times below t_floor, which clamp to the same t) and
    # misses it equals a fresh binding per call, bit for bit,
    # and each of its rows equals its own single-row call.
    regs, zs = _binding_registries()
    reg, zs = regs[kind], zs[:b]
    times = [0.3, 0.3, 1.0, 1e-6, 1e-5, 0.3, 1.0, 1.0]
    conditions = [(Condition.null(), 1.0), (Condition.dataset("a"), 1.0),
                  (Condition.dataset("b"), 1.0), (Condition.dataset("a"), 2.5),
                  (Condition.dataset("b"), 0.0)]
    for cond, w in conditions:
        scales = GuidanceScales(w=w)
        field, row_field = make_velocity(reg, cond, scales), make_velocity(reg, cond, scales)
        for t in times:
            got = field(zs, t)
            assert got.shape == zs.shape
            assert np.array_equal(got, make_velocity(reg, cond, scales)(zs, t))
            for i in range(b):
                assert np.array_equal(got[i], row_field(zs[i], t))
    for w in (1.0, 2.5):
        with pytest.raises(UnknownDatasetError):
            make_velocity(reg, Condition.dataset("nope"), GuidanceScales(w=w))(zs, 0.3)


@pytest.mark.parametrize("b", [1, 1024])
@pytest.mark.parametrize("cond", ["null", "dataset"])
def test_bound_field_results_never_alias_its_kernel_workspace(cond, b):
    # A binding keeps the Gaussian kernel's buffers across calls.  On a
    # one-Gaussian registry at w = 1 the dataset condition returns the
    # kernel's velocity column itself, which at b = 1 is a contiguous
    # (1, 1, d) slice of the product buffer.  Neither a second call nor a
    # write into a returned array may change an earlier result by a bit.
    d = 8
    rng = _rng(81, b)
    A = rng.standard_normal((d, d)) / np.sqrt(d)
    reg = FieldRegistry().add_gaussian("g", 0.3 * rng.standard_normal(d),
                                       A @ A.T + 0.2 * np.eye(d))
    condition = Condition.null() if cond == "null" else Condition.dataset("g")
    field = make_velocity(reg, condition, GuidanceScales())
    z1, z2 = rng.standard_normal((2, b, d))
    first = field(z1, 0.4)
    kept = first.copy()
    second = field(z2, 0.4)
    third = field(z2, 0.7)
    assert np.array_equal(first, kept)
    second[...] = np.nan
    third[...] = np.inf
    again = field(z1, 0.4)
    assert np.array_equal(first, kept) and np.array_equal(again, kept)
    first[...] = -1.0
    assert np.array_equal(field(z1, 0.4), kept) and np.array_equal(again, kept)
    assert np.array_equal(field(z2, 0.7), make_velocity(reg, condition, GuidanceScales())(z2, 0.7))


@pytest.mark.parametrize("with_points", [False, True])
def test_one_binding_across_batch_sizes_equals_fresh_bindings(with_points):
    # One binding, so one kernel workspace, called at batch sizes that grow,
    # shrink and repeat its padded row count.  Its 1024-row calls hold a NaN
    # row and a 1e300 row where the smaller calls after them have padding.
    # Each row equals a fresh binding's, bit for bit.
    d = 8
    reg = _two_gaussian_registry(d, with_points)
    zs = 0.8 * _rng(82, d).standard_normal((1024 + 33, d))
    zs[9], zs[24] = np.nan, 1e300
    calls = [(1024, 0.4), (5, 0.4), (1024, 0.7), (17, 0.7), (1, 0.4), (33, 1e-5)]
    for cond, w in ((Condition.null(), 1.0), (Condition.dataset("g1"), 1.0),
                    (Condition.dataset("g2"), 2.0)):
        scales = GuidanceScales(w=w)
        field = make_velocity(reg, cond, scales)
        with np.errstate(all="ignore"):
            for b, t in calls:
                zb = zs[:b] if b == 1024 else zs[1024:1024 + b]
                got = field(zb, t)
                assert got.shape == zb.shape
                assert np.array_equal(got, make_velocity(reg, cond, scales)(zb, t), equal_nan=True)


@pytest.mark.parametrize("n_fine, times", [(1, [1.0, 0.75, 0.5]),
                                            (2, [1.0, 0.875, 0.75, 0.625, 0.5])])
def test_rk4_steps_compute_the_gaussian_terms_once_per_time(n_fine, times, monkeypatch):
    # A binding's kernel keeps the terms of the last t it was called at.  An
    # RK4 step makes four field calls at three distinct times, its two
    # midpoint stages sharing one, and the next step starts at the time the
    # last one ended, so it adds two.
    reg = _two_gaussian_registry(8, True)
    terms, calls, seen = fields._gaussian_terms, [], []
    monkeypatch.setattr(fields, "_gaussian_terms",
                        lambda stack, t, ops: seen.append(t) or terms(stack, t, ops))
    for cond, w in ((Condition.null(), 1.0), (Condition.dataset("g2"), 2.0)):
        seen.clear()
        calls.clear()
        field = make_velocity(reg, cond, GuidanceScales(w=w))

        def counted(z, t):
            calls.append(t)
            return field(z, t)

        z0 = 0.8 * _rng(84).standard_normal((3, 8))
        got = reference_integrate(counted, z0, 1.0, 0.5, n_fine)
        assert len(calls) == 4 * n_fine and seen == times
        fresh = reference_integrate(
            lambda z, t: make_velocity(reg, cond, GuidanceScales(w=w))(z, t), z0, 1.0, 0.5, n_fine)
        assert np.array_equal(got, fresh)


@pytest.mark.parametrize("with_points", [False, True])
def test_two_interleaved_bindings_equal_fresh_bindings(with_points):
    # Each binding owns its kernel: two bindings of one registry, called in
    # turn at different times and batch sizes, never see each other's terms
    # or buffers.  Every result equals a fresh binding's, bit for bit.
    d = 8
    reg = _two_gaussian_registry(d, with_points)
    zs = 0.8 * _rng(85, d).standard_normal((1024, d))
    bound = [(Condition.null(), GuidanceScales()),
             (Condition.dataset("g1"), GuidanceScales(w=2.0))]
    fields_ = [make_velocity(reg, cond, scales) for cond, scales in bound]
    schedule = [(1024, 0.4, 0.7), (5, 0.7, 0.4), (1, 0.4, 0.4), (1024, 0.7, 1e-5),
                (1, 0.7, 1e-5), (5, 0.4, 0.4)]
    for b, *ts in schedule:
        for (cond, scales), field, t in zip(bound, fields_, ts):
            got = field(zs[:b], t)
            assert np.array_equal(got, make_velocity(reg, cond, scales)(zs[:b], t))


def test_repeated_1024_row_call_allocates_no_kernel_buffers():
    # Tooling guard for the kernel workspace: once bound and called, a call
    # at a repeated t allocates no (m, rows, d + 1) blocks or (m, rows, 2d)
    # product.  tracemalloc counts numpy's buffers whatever the allocator;
    # the peak must stay under m * rows * (3d + 1) doubles, where the
    # kernel's temporaries alone come to more.
    import tracemalloc

    d, b = 8, 1024
    reg = _two_gaussian_registry(d, False)
    zs = _rng(83, d).standard_normal((b, d))
    for cond, w in ((Condition.null(), 1.0), (Condition.dataset("g2"), 2.0)):
        field = make_velocity(reg, cond, GuidanceScales(w=w))
        field(zs, 0.4)
        tracemalloc.start()
        try:
            field(zs, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * b * (3 * d + 1) * 8, peak


def test_call_at_a_fresh_t_allocates_no_kernel_operand():
    # Tooling guard for the kernel's operand: it is allocated once, at
    # binding, and a fresh t writes its t-dependent blocks in place, so a
    # one-row call at a new t allocates no (m, d + 1, 2d) array.  At d = 128
    # the operand is 528 kB; the call's temporaries, the (m, d, d) scaled
    # eigenvectors and numpy's ufunc buffers, come to about 330 kB.
    import tracemalloc

    d = 128
    reg = _two_gaussian_registry(d, False)
    operand = 2 * (d + 1) * 2 * d * 8
    z = _rng(86, d).standard_normal((1, d))
    for cond, w in ((Condition.null(), 1.0), (Condition.dataset("g2"), 2.0)):
        field = make_velocity(reg, cond, GuidanceScales(w=w))
        field(z, 0.4)
        tracemalloc.start()
        try:
            field(z, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < operand, peak


def test_registry_t_floor_validation():
    with pytest.raises(ValueError):
        GuidanceScales(w=np.nan)


@pytest.mark.parametrize("call, match", [
    (lambda: gaussian_marginal_velocity(np.zeros(2), np.eye(2), np.zeros(2), np.nan),
     r"^t must be finite, got nan$"),
    (lambda: gaussian_marginal_velocity(np.zeros(2), np.eye(2), np.zeros(3), 0.5),
     r"^state dim 3 != gaussian dim 2$"),
    (lambda: conditional_linear_velocity(np.zeros(2), np.zeros(3), 0.5),
     r"^state dim 3 != reference dim 2$"),
    (lambda: FieldRegistry().add_points("a", np.zeros((0, 2))),
     r"^dataset 'a': points must be a non-empty \(n, d\) array$"),
], ids=["non-finite-t", "gaussian-dim", "reference-dim", "empty-points"])
def test_field_input_validation(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_registry_gaussian_of_unknown_name():
    reg = FieldRegistry()
    reg.add_points("a", np.array([[1.0, 1.0]]))
    for name in ("a", "nope"):
        with pytest.raises(UnknownDatasetError):
            reg.gaussian(name)
        with pytest.raises(UnknownDatasetError):
            reg.sample_gaussian(name, _rng(0))


def test_gaussian_kernel_zeroes_the_padding_rows_an_earlier_call_wrote():
    # The padding rows of the kernel's blocks stay zero: a call of fewer
    # rows in the same padded shape zeroes the live rows of the call before
    # it, so inf rows there reach no later product (inf * 0 in its matmul
    # would warn, an error here), and every result equals a fresh kernel's.
    d = 8
    reg = _two_gaussian_registry(d, False)
    kernel = fields._GaussianKernel(reg._stacked)
    zs = 0.8 * _rng(86, d).standard_normal((16, d))
    zs[9:12] = np.inf
    for b in (12, 3, 10, 16, 1):
        with np.errstate(all="ignore" if b > 9 else "raise"):
            got = kernel(zs[:b], 0.4)
            want = fields._GaussianKernel(reg._stacked)(zs[:b], 0.4)
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
        assert not kernel.blocks[:, b:, :d].any() and (kernel.blocks[:, :, d] == 1.0).all()
