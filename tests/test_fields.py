"""Oracle velocity fields and condition dispatch.

Cross-validation strategy: the empirical field is checked against a direct
softmax re-derivation and against single-atom closed forms; the Gaussian
field against the scalar-covariance closed form and, statistically, against
the empirical field built from a large sample of the same Gaussian.  The two
implementations never share intermediate code paths in these comparisons.
"""

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
    evaluate,
    gaussian_marginal_velocity,
    make_time_grid,
    make_velocity,
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
    batch_reg = evaluate(reg, zs, 0.3, cond, scales)
    for i in range(b):
        assert np.array_equal(batch[i], empirical_marginal_velocity(points, zs[i], 0.3))
        assert np.array_equal(batch_reg[i], evaluate(reg, zs[i], 0.3, cond, scales))


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


def test_empirical_validation():
    with pytest.raises(ValueError):
        empirical_marginal_velocity(np.zeros((0, 2)), np.zeros(2), 0.5)
    with pytest.raises(ValueError):
        empirical_marginal_velocity(np.zeros((3, 2)), np.zeros(3), 0.5)
    # The registry's prepared sets keep the state-dimension check.
    reg = FieldRegistry().add_points("a", np.zeros((3, 2)))
    for cond in (Condition.null(), Condition.dataset("a")):
        with pytest.raises(ValueError, match="state dim"):
            evaluate(reg, np.zeros(3), 0.5, cond, GuidanceScales())


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
    # bit: the entry Gaussian, the null mixture and the guided blend.
    b, t = 257, 0.4
    reg = _two_gaussian_registry(d, with_points)
    zs = 0.8 * _rng(51, d).standard_normal((b, d))
    for cond in (Condition.null(), Condition.dataset("g2")):
        for w in (1.0, 2.0):
            batch = evaluate(reg, zs, t, cond, GuidanceScales(w=w))
            for i in range(b):
                assert np.array_equal(batch[i], evaluate(reg, zs[i], t, cond, GuidanceScales(w=w)))


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
            got = evaluate(reg, z, t, Condition.dataset(name), GuidanceScales(w=2.0))
            assert len(calls) == 1
            want = cfg_blend(reg._null_velocity(z, t), reg._entry_velocity(name, z, t), 2.0)
            assert got.shape == z.shape and np.array_equal(got, want)


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
    at_zero = conditional_linear_velocity(z_ref, z, 0.0, t_floor=1e-4)
    at_floor = conditional_linear_velocity(z_ref, z, 1e-4, t_floor=1e-4)
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
    got = evaluate(reg, z, 0.45, Condition.null(), GuidanceScales())
    want = empirical_marginal_velocity(np.concatenate([a, b]), z, 0.45)
    assert np.array_equal(got, want)


def test_null_condition_single_gaussian_shortcut():
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    reg = FieldRegistry()
    reg.add_gaussian("d", mu, cov)
    z = np.array([0.3, 0.3])
    got = evaluate(reg, z, 0.6, Condition.null(), GuidanceScales())
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
            got = evaluate(reg, z, t, Condition.null(), GuidanceScales())
            want = _mixture_reference([("points", pts), ("gaussian", (mu, cov))], z, t)
            assert np.linalg.norm(got - want) <= 1e-9


def test_evaluate_dataset_condition_with_guidance():
    reg = FieldRegistry()
    reg.add_points("a", np.array([[1.0, 0.0]]))
    reg.add_points("b", np.array([[-1.0, 0.0]]))
    z = np.array([0.1, 0.2])
    t = 0.5
    v_null = evaluate(reg, z, t, Condition.null(), GuidanceScales())
    v_a = empirical_marginal_velocity(np.array([[1.0, 0.0]]), z, t)
    # w = 1 returns the conditional field untouched
    got1 = evaluate(reg, z, t, Condition.dataset("a"), GuidanceScales(w=1.0))
    assert np.array_equal(got1, v_a)
    got = evaluate(reg, z, t, Condition.dataset("a"), GuidanceScales(w=3.0))
    assert np.allclose(got, v_null + 3.0 * (v_a - v_null), atol=1e-12)
    with pytest.raises(UnknownDatasetError):
        evaluate(reg, z, t, Condition.dataset("zzz"), GuidanceScales())


def test_null_on_empty_registry_fails():
    reg = FieldRegistry()
    with pytest.raises(ValueError):
        evaluate(reg, np.zeros(2), 0.5, Condition.null(), GuidanceScales())


def test_make_velocity_binds_arguments():
    reg = FieldRegistry()
    reg.add_points("a", np.array([[1.0, 1.0]]))
    vel = make_velocity(reg, Condition.dataset("a"), GuidanceScales())
    z = np.array([0.0, 0.0])
    assert np.array_equal(vel(z, 0.5),
                          evaluate(reg, z, 0.5, Condition.dataset("a"), GuidanceScales()))


def test_registry_t_floor_validation():
    with pytest.raises(ValueError):
        FieldRegistry(t_floor=0.0)
    with pytest.raises(ValueError):
        GuidanceScales(w=np.nan)
