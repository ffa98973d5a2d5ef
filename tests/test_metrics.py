"""Distances, reference integrator, and bound verifiers.

The assignment-based W2 is cross-checked against two independent oracles:
exhaustive permutation search at small n and sorted matching in 1D (where
the optimal coupling is monotone).  The RK4 reference is checked against
closed-form solutions before it is trusted as the oracle elsewhere.
"""

import itertools
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import otflow
from otflow import (
    Condition,
    FieldRegistry,
    GuidanceScales,
    TransportConfig,
    cosine_schedule,
    gaussian_marginal_velocity,
    integrate,
    make_time_grid,
    l2_distance,
    reference_integrate,
    schedule_integral,
    w2_dirac_to_gaussian,
    w2_dirac_to_points,
    w2_empirical_exact,
    w2_gaussian,
    verify_convergence_bound,
    verify_discretization_bound,
    verify_edit_control_bound,
)
from otflow.fields import _T_FLOOR
from otflow.metrics import (_REF_STEPS, AssignmentPlan, VerifySetup, _as_cov, _paired_reference,
                            _row_l2, _segment_steps, _segments, gaussian_flow,
                            gaussian_velocity_coefficients)
from otflow.transport import kinks, make_enhanced


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


def _split_reference(velocity, z0, times, steps):
    # The states at every entry of times, z0 at times[0]: reference_integrate
    # on each segment between consecutive entries (_segments), in the given
    # numbers of steps.
    states = [np.asarray(z0, dtype=float)]
    for (a, b, seg), n in zip(_segments(velocity, times), steps):
        states.append(reference_integrate(seg, states[-1], a, b, n))
    return states


def test_import_does_not_load_scipy():
    # scipy.optimize takes longer to import than a small run takes; only
    # w2_empirical_exact uses scipy, and it imports it when called.
    src = os.path.dirname(os.path.dirname(otflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, otflow; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_l2_distance_basic():
    assert l2_distance(np.array([3.0, 4.0]), np.zeros(2)) == 5.0
    assert l2_distance(np.ones(4), np.ones(4)) == 0.0


def test_w2_gaussian_identical_is_zero():
    # The squared distance cancels to ~1e-15; taking the root inflates that
    # to ~1e-7, which is the honest floating-point floor for this quantity.
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert w2_gaussian(np.ones(2), cov, np.ones(2), cov) <= 1e-6


def test_w2_gaussian_mean_shift():
    # Equal covariances: the distance is the mean gap.
    assert abs(w2_gaussian(0.0, 1.0, 3.0, 1.0) - 3.0) <= 1e-9


def test_w2_gaussian_scale_only():
    # N(0, I) vs N(0, 4I) in 2D: W2^2 = tr(I + 4I - 2 * 2I) = 2.
    d = w2_gaussian(np.zeros(2), np.eye(2), np.zeros(2), 4.0 * np.eye(2))
    assert abs(d - np.sqrt(2.0)) <= 1e-9


def test_w2_gaussian_symmetry_and_triangle():
    for seed in range(5):
        rng = _rng(50, seed)
        means = [rng.standard_normal(2) for _ in range(3)]
        covs = []
        for _ in range(3):
            A = rng.standard_normal((2, 2)) * 0.5
            covs.append(A @ A.T + 0.2 * np.eye(2))
        d01 = w2_gaussian(means[0], covs[0], means[1], covs[1])
        d10 = w2_gaussian(means[1], covs[1], means[0], covs[0])
        assert abs(d01 - d10) <= 1e-9
        d12 = w2_gaussian(means[1], covs[1], means[2], covs[2])
        d02 = w2_gaussian(means[0], covs[0], means[2], covs[2])
        assert d02 <= d01 + d12 + 1e-9


def test_w2_gaussian_zero_cov_matches_dirac_form():
    p = np.array([2.0, -1.0])
    mean = np.array([0.5, 0.5])
    cov = np.array([[0.7, 0.1], [0.1, 0.3]])
    via_gaussian = w2_gaussian(p, np.zeros((2, 2)), mean, cov)
    assert abs(via_gaussian - w2_dirac_to_gaussian(p, mean, cov)) <= 1e-9


@pytest.mark.parametrize("d", [2, 16, 64])
def test_row_l2_equals_each_rows_linalg_norm(d):
    # One dot product per row: each norm equals np.linalg.norm of its row
    # alone bit for bit, at row magnitudes over 300 decades, and l2_distance
    # of one state is the same number.
    rng = _rng(5, d)
    rows = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-150, 150, (2000, 1))
    norms = _row_l2(rows)
    assert norms.shape == (2000,)
    assert np.array_equal(norms, [np.linalg.norm(row) for row in rows])
    assert all(l2_distance(row, np.zeros(d)) == norms[i] for i, row in enumerate(rows[:200]))


def test_l2_distance_of_two_arrays_is_one_distance_over_all_entries():
    rng = _rng(7, 5)
    a, b = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    dist = l2_distance(a, b)
    assert isinstance(dist, float) and dist == np.linalg.norm(a - b)
    assert l2_distance(np.asfortranarray(a), b) == np.linalg.norm(np.asfortranarray(a) - b)


@pytest.mark.parametrize("d", [2, 16])
def test_w2_dirac_to_gaussian_rows_equal_single_calls(d):
    rng = _rng(6, d)
    a = rng.standard_normal((d, d))
    cov, mean = a @ a.T + 0.1 * np.eye(d), rng.standard_normal(d)
    rows = rng.standard_normal((300, d)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
    w2 = w2_dirac_to_gaussian(rows, mean, cov)
    assert w2.shape == (300,)
    assert np.array_equal(w2, [w2_dirac_to_gaussian(row, mean, cov) for row in rows])


def test_distances_survive_overflow_on_finite_rows():
    # The squared norm of (1e200, 1e200) overflows; the rows are rescaled by
    # their largest entry, quietly, and the rows around them keep their own
    # values.
    big = np.array([1e200, 1e200])
    dist = l2_distance(big, np.zeros(2))
    w2 = w2_dirac_to_gaussian(big, np.zeros(2), np.eye(2))
    assert dist == w2 == np.sqrt(2.0) * 1e200
    rows = np.array([[3.0, 4.0], [1e200, 1e200], [-2e300, 1e300], [0.5, -0.25]])
    norms = _row_l2(rows)
    w2s = w2_dirac_to_gaussian(rows, np.zeros(2), np.eye(2))
    for i, row in enumerate(rows):
        assert norms[i] == l2_distance(row, np.zeros(2))
        assert w2s[i] == w2_dirac_to_gaussian(row, np.zeros(2), np.eye(2))
    assert np.all(np.isfinite(norms)) and np.all(np.isfinite(w2s))
    np.testing.assert_allclose(norms[2], np.sqrt(5.0) * 1e300, rtol=1e-15)
    assert norms[0] == 5.0 and w2s[0] == np.sqrt(27.0)
    # A row past the largest double, or with a non-finite entry, stays inf.
    with np.errstate(over="ignore", invalid="ignore"):
        far = _row_l2(np.array([[1.5e308, 1.5e308], [np.inf, 1.0]]))
    assert far.tolist() == [np.inf] * 2


def test_w2_dirac_to_points_hand_value():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    # mean squared distance (1 + 1 + 4) / 3 = 2
    assert abs(w2_dirac_to_points(np.zeros(2), pts) - np.sqrt(2.0)) <= 1e-12


def test_w2_dirac_to_points_survives_overflow():
    # The squared distances of (1e200,) * 3 to three atoms overflow; the
    # differences are rescaled by their largest entry, quietly, to what the
    # Gaussian form gives at the atoms' zero covariance.
    p = np.full(3, 1e200)
    w2 = w2_dirac_to_points(p, np.zeros((3, 3)))
    assert w2 == w2_dirac_to_gaussian(p, np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(w2, np.sqrt(3.0) * 1e200, rtol=1e-15)
    pts = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-1.0, 5.0, 2.0]])
    np.testing.assert_allclose(w2_dirac_to_points(p, pts), np.sqrt(3.0) * 1e200, rtol=1e-15)


def test_w2_empirical_matches_exhaustive_search():
    rng = _rng(41)
    a = rng.standard_normal((6, 2))
    b = rng.standard_normal((6, 2)) + 0.5
    best = min(
        sum(np.sum((a[i] - b[p[i]]) ** 2) for i in range(6))
        for p in itertools.permutations(range(6))
    )
    d, plan = w2_empirical_exact(a, b)
    assert abs(d - np.sqrt(best / 6)) <= 1e-9
    assert abs(plan.total_sq_cost - best) <= 1e-9


def test_w2_empirical_matches_sorted_matching_1d():
    # In 1D the optimal coupling is monotone, giving a closed-form check
    # at a size far beyond exhaustive search.
    rng = _rng(40)
    a = rng.standard_normal((256, 1))
    b = rng.standard_normal((256, 1)) * 2.0 + 1.0
    expected = float(np.sqrt(np.mean((np.sort(a[:, 0]) - np.sort(b[:, 0])) ** 2)))
    d, _ = w2_empirical_exact(a, b)
    assert abs(d - expected) <= 1e-9


def test_w2_empirical_permutation_invariance():
    rng = _rng(42)
    a = rng.standard_normal((12, 3))
    b = rng.standard_normal((12, 3))
    d1, _ = w2_empirical_exact(a, b)
    d2, _ = w2_empirical_exact(a[::-1], b[rng.permutation(12)])
    assert abs(d1 - d2) <= 1e-9


def test_w2_empirical_plan_consistency():
    rng = _rng(43)
    a = rng.standard_normal((10, 2))
    b = rng.standard_normal((10, 2))
    d, plan = w2_empirical_exact(a, b)
    recomputed = float(np.sum((a - b[plan.target_index]) ** 2))
    assert abs(recomputed - plan.total_sq_cost) <= 1e-9
    assert abs(d - np.sqrt(plan.total_sq_cost / 10)) <= 1e-12


def test_w2_empirical_validation():
    with pytest.raises(ValueError):
        w2_empirical_exact(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        w2_empirical_exact(np.zeros((2049, 1)), np.zeros((2049, 1)))
    bad = np.zeros((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        w2_empirical_exact(bad, np.zeros((3, 2)))


def test_assignment_plan_rejects_non_permutation():
    with pytest.raises(ValueError):
        AssignmentPlan(target_index=np.array([0, 0, 2]), total_sq_cost=1.0)


def test_reference_integrate_exponential():
    z = reference_integrate(lambda z, t: z, np.array([1.0]), 0.0, 1.0, 10_000)
    assert abs(z[0] - np.e) <= 1e-8


def test_reference_integrate_fourth_order():
    # v = cos(t) z has exact solution exp(sin t); halving the step must cut
    # the error by close to 2^4.
    exact = np.exp(np.sin(1.0))
    errs = {}
    for n in (8, 16):
        z = reference_integrate(lambda z, t: np.cos(t) * z, np.array([1.0]), 0.0, 1.0, n)
        errs[n] = abs(z[0] - exact)
    ratio = errs[8] / errs[16]
    assert 12.0 < ratio < 20.0


def _gaussian_8d():
    # An 8-D Gaussian, its own marginal field and a state at t = 1.
    rng = _rng(0)
    dim = 8
    spread = rng.standard_normal((dim, dim))
    cov = spread @ spread.T / dim + 0.1 * np.eye(dim)
    mean = rng.standard_normal(dim)
    z1 = rng.standard_normal(dim)

    def field(z, t):
        return gaussian_marginal_velocity(mean, cov, z, t)
    return mean, cov, z1, field


def test_reference_integrate_order_on_the_gaussian_flow():
    """RK4 on an 8-D Gaussian's own field against its closed-form flow.

    To t = 0.01 the field is smooth and the error falls by about 2^4 per
    halved step (1.6e-10 at 100 steps to 3.6e-14 at 800).  To t = 0 the
    field is frozen at t_floor below it, so the last step's stage at t = 0
    reads v(z, t_floor): against the flow without the freeze, which carries
    z1 to mean + cov^(1/2) z1, an error of order h, falling 4.0x per 4x
    steps.  Against the exact flow, whose frozen stretch is 8.4e-9 off that
    one, the straddling step errs 2.7e-7, 6.1e-8 and 9.1e-9 at 100, 400 and
    1600 steps (4.4x, 6.8x), where fourth order would give 256x.  Split at
    t_floor, the reference keeps fourth order
    (test_split_reference_is_fourth_order_down_to_t_0).
    """
    mean, cov, z1, field = _gaussian_8d()

    def errors(t_end, counts, want):
        return [np.linalg.norm(reference_integrate(field, z1, 1.0, t_end, n) - want)
                / np.linalg.norm(want) for n in counts]

    smooth = errors(0.01, (100, 200, 400, 800), gaussian_flow(mean, cov, z1, 1.0, 0.01))
    assert smooth[-1] < 1e-12
    assert all(coarse / fine >= 12.0 for coarse, fine in zip(smooth, smooth[1:]))
    lam, q = np.linalg.eigh(cov)
    frozen = errors(0.0, (100, 400, 1600), mean + q @ (np.sqrt(lam) * (q.T @ z1)))
    assert all(3.0 <= coarse / fine <= 5.0 for coarse, fine in zip(frozen, frozen[1:]))
    exact = errors(0.0, (100, 400, 1600), gaussian_flow(mean, cov, z1, 1.0, 0.0))
    assert all(4.0 <= coarse / fine <= 8.0 for coarse, fine in zip(exact, exact[1:]))


def test_split_reference_is_fourth_order_down_to_t_0():
    # Split at the kinks of an unguided field (t_floor alone), the
    # discretization check's reference converges to the closed-form flow at
    # fourth order all the way to t = 0.
    mean, cov, z1, field = _gaussian_8d()
    want = gaussian_flow(mean, cov, z1, 1.0, 0.0)
    times = [1.0, *kinks(TransportConfig(beta0=0.0), 1.0, 0.0), 0.0]
    assert times == [1.0, _T_FLOOR, 0.0]
    errs = [np.linalg.norm(_split_reference(field, z1, times, _segment_steps(times, n))[-1] - want)
            for n in (100, 200, 400)]
    assert all(coarse / fine >= 12.0 for coarse, fine in zip(errs, errs[1:]))


def test_gaussian_flow_composes_and_takes_rows():
    # 1 -> 0.5 -> 0 equals 1 -> 0, through the frozen stretch below t_floor
    # too; (B, d) rows are each their own (d,) flow; below t_floor the
    # exponential step matches RK4 on the frozen field.
    mean, cov, z1, field = _gaussian_8d()
    whole = gaussian_flow(mean, cov, z1, 1.0, 0.0)
    for mid in (0.5, 1e-4, 5e-5):
        parts = gaussian_flow(mean, cov, gaussian_flow(mean, cov, z1, 1.0, mid), mid, 0.0)
        assert np.linalg.norm(parts - whole) <= 1e-13 * np.linalg.norm(whole)
    rows = np.stack([z1, -z1, 2.0 * z1])
    batch = gaussian_flow(mean, cov, rows, 1.0, 0.3)
    for row, got in zip(rows, batch):
        assert np.allclose(got, gaussian_flow(mean, cov, row, 1.0, 0.3), rtol=1e-14, atol=0.0)
    start = gaussian_flow(mean, cov, z1, 1.0, _T_FLOOR)
    frozen = reference_integrate(field, start, _T_FLOOR, 0.0, 4)
    assert np.linalg.norm(frozen - whole) <= 1e-13 * np.linalg.norm(whole)


@pytest.mark.parametrize("d", [2, 8, 64])
@pytest.mark.parametrize("t", [1e-4, 0.3, 0.99])
def test_gaussian_velocity_coefficients_give_the_field(d, t):
    # The field's kernel against A z + b, with A from np.linalg.solve: two
    # derivations that share no code (worst seen 3.5e-15).
    rng = _rng(90, d)
    m = rng.standard_normal((d, d)) / np.sqrt(d)
    mean, cov = rng.standard_normal(d), m @ m.T + 0.1 * np.eye(d)
    x = rng.multivariate_normal(mean, cov, 64)
    zs = (1 - t) * x + t * rng.standard_normal((64, d))
    gain, offset = gaussian_velocity_coefficients(mean, cov, t)
    want = zs @ gain.T + offset
    got = gaussian_marginal_velocity(mean, cov, zs, t)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=1)), err.max()


def test_reference_integrate_validation():
    with pytest.raises(ValueError):
        reference_integrate(lambda z, t: z, np.zeros(1), 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        reference_integrate(lambda z, t: z, np.zeros(1), 0.0, 1.0, 2.5)


@pytest.mark.parametrize("phi", [6e-5, 1e-4, 3e-4, 0.1, 0.3, 0.7, 1.0])
def test_schedule_integral_closed_form(phi):
    # integral of S^2 over [0, 1] is (3/8) phi for phi <= 1: substituting
    # u = s/phi gives phi * integral of (cos(pi u / 2))^4 in disguise.  It
    # holds for narrow schedules too, where a midpoint rule on 1e4 panels of
    # [0, 1] reads 98% low at 6e-5: Simpson's rule on [0, phi], where S is
    # nonzero, agrees to 1e-12 relative.
    assert abs(schedule_integral(phi) - 0.375 * phi) <= 1e-8
    s = np.linspace(0.0, phi, 4001)
    vals = np.array([cosine_schedule(x, phi) ** 2 for x in s])
    simpson = (phi / 12000) * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum()
                               + 2 * vals[2:-1:2].sum())
    assert abs(schedule_integral(phi) - simpson) <= 1e-12 * phi


def test_euler_local_error_halves_quadratically():
    # Pinned probe on a curved oracle field: the one-step error factor under
    # dt halving must sit near 4 (second-order local truncation).
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    field = lambda z, t: gaussian_marginal_velocity(mu, cov, z, t)
    z = np.array([0.3, -0.2])
    t = 0.6
    errs = {}
    for dt in (0.1, 0.05):
        euler = z - dt * field(z, t)
        ref = reference_integrate(field, z, t, t - dt, 50)
        errs[dt] = l2_distance(euler, ref)
    assert 3.4 < errs[0.1] / errs[0.05] < 4.6


def _shared_setup(beta0_template=0.0, n_runs=64, seed=0):
    reg = FieldRegistry()
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    reg.add_gaussian("data", mu, cov)
    rng = _rng(seed, 2)
    z_target = rng.multivariate_normal(mu, cov)
    z_init = rng.standard_normal(2)
    transport = TransportConfig(beta0=beta0_template, phi=0.3, delta=0.01,
                                clip_tau=1.0, orientation="elapsed")
    setup = VerifySetup(
        registry=reg,
        condition=Condition.dataset("data"),
        scales=GuidanceScales(w=1.0),
        grid=make_time_grid(28, 1.0, 0.0),
        transport=transport,
        z_target=z_target,
        n_runs=n_runs,
        seed=seed,
    )
    return setup, z_init, z_target, reg, transport


def test_verify_discretization_bound_passes_on_oracle_field():
    setup, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    field = lambda z, t: gaussian_marginal_velocity(mu, cov, z, t)
    report = verify_discretization_bound(field, transport, z_init, z_target,
                                         [10, 20, 40, 80], probe_t=0.6)
    assert report.passed
    assert 1.8 <= report.fitted_constants["local_slope"] <= 2.2
    assert 0.8 <= report.fitted_constants["global_slope"] <= 1.2
    assert report.bound_kind == "discretization"


def test_verify_discretization_bound_needs_three_counts():
    setup, z_init, z_target, reg, transport = _shared_setup()
    field = lambda z, t: z
    with pytest.raises(ValueError):
        verify_discretization_bound(field, transport, z_init, z_target, [10, 20])


@pytest.mark.parametrize("probe_t", [1.5, 0.0, -0.2, 0.05, float("nan")])
def test_verify_discretization_bound_rejects_probe_step_outside_span(probe_t):
    # The coarsest probe step (dt = 0.1) from probe_t must stay in [0, 1];
    # outside it the field clamps t and the check would pass on nothing.
    setup, z_init, z_target, reg, transport = _shared_setup()
    field = lambda z, t: z
    with pytest.raises(ValueError, match="probe step"):
        verify_discretization_bound(field, transport, z_init, z_target, [10, 20, 40],
                                    probe_t=probe_t)


def _two_pass_discretization(field, transport, z_init, z_target, step_counts, probe_t):
    # The reference as separate passes from z_init through the same segments
    # and step counts: one to t = 0, one stopping at probe_t, and one from
    # the probe state to each probe step's end.
    enhanced = make_enhanced(field, z_target, transport)
    ends = [probe_t - 1.0 / n for n in step_counts]
    times = [1.0, *kinks(transport, 1.0, 0.0, probe_t, *ends), 0.0]
    steps = [2 * n for n in _segment_steps(times, _REF_STEPS // 2)]
    ref_final = _split_reference(enhanced, z_init, times, steps)[-1]
    stop = times.index(probe_t)
    probe_state = _split_reference(enhanced, z_init, times[:stop + 1], steps[:stop])[-1]
    measured = []
    for n, end in zip(step_counts, ends):
        dt = 1.0 / n
        traj_end = integrate(enhanced, z_init, make_time_grid(n, 1.0, 0.0)).final_state
        euler_sub = probe_state - dt * enhanced(probe_state, probe_t)
        last = times.index(end)
        ref_sub = _split_reference(enhanced, probe_state, times[stop:last + 1],
                                   steps[stop:last])[-1]
        measured.append(("local", dt, l2_distance(euler_sub, ref_sub)))
        measured.append(("global", dt, l2_distance(traj_end, ref_final)))
    return measured


# Per probe_t, with counts 5, 10, 20 and the transport of _shared_setup
# (kinks at 0.99 and 0.7, besides t_floor, probe_t and the probe steps'
# ends probe_t - 1/n): the reference's segment steps at full and at half
# counts.
_SCHEDULE = {0.6: ([2, 58, 20, 10, 10, 20, 80, 2], [1, 29, 10, 5, 5, 10, 40, 1]),
             1.0: ([2, 8, 10, 20, 20, 140, 2], [1, 4, 5, 10, 10, 70, 1])}


@pytest.mark.parametrize("probe_t", [0.6, 1.0])
def test_verify_discretization_bound_integrates_the_reference_once(probe_t):
    # One pass through probe_t and each probe step's end serves every
    # reference: 4 calls per step of its segments, which also carry the
    # half-count pass that gives reference_error as a second row, plus one
    # probe velocity shared by every step count and one call per distinct
    # time of the Euler runs, walked together (their grids nest, so the
    # finest grid's times).  The result matches separate passes.
    setup, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    calls = []

    def field(z, t):
        calls.append(t)
        return gaussian_marginal_velocity(mu, cov, z, t)

    counts = [5, 10, 20]
    report = verify_discretization_bound(field, transport, z_init, z_target, counts,
                                         probe_t=probe_t)
    full, half = _SCHEDULE[probe_t]
    times = [1.0, *kinks(transport, 1.0, 0.0, probe_t, *[probe_t - 1.0 / n for n in counts]), 0.0]
    assert _segment_steps(times, _REF_STEPS // 2) == half and full == [2 * n for n in half]
    walk = {t for n in counts for t in make_time_grid(n, 1.0, 0.0).points[:-1].tolist()}
    assert len(walk) == counts[-1]
    assert len(calls) == 4 * sum(full) + 1 + len(walk)
    expected = _two_pass_discretization(field, transport, z_init, z_target, counts, probe_t)
    assert [m[:2] for m in report.measured] == [m[:2] for m in expected]
    for (_, _, got), (_, _, want) in zip(report.measured, expected):
        assert abs(got - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("probe_t", [0.6, 1.0])
def test_paired_reference_equals_two_separate_passes(probe_t):
    # On criterion 07's setting (kinks at 0.99 and 0.7) and a two-Gaussian
    # dataset field at w = 2, the paired walk's full pass is the split pass
    # at twice the half counts, bit for bit at every kink, since every field
    # is row-invariant.  Its half pass reads the field at the full pass's
    # stage times, which can differ by an ulp from its own (at probe_t = 1),
    # so its end state equals the half-count split pass to 1e-12 relative.
    _, z_init, z_target, _, transport = _shared_setup(beta0_template=0.2)
    reg = FieldRegistry()
    reg.add_gaussian("a", np.array([1.0, -0.5]), np.array([[0.8, 0.2], [0.2, 0.5]]))
    reg.add_gaussian("b", np.array([-1.5, 0.5]), np.array([[0.3, -0.1], [-0.1, 0.6]]))
    field = otflow.make_velocity(reg, Condition.dataset("a"), GuidanceScales(w=2.0))
    enhanced = make_enhanced(field, z_target, transport)
    times = [1.0, *kinks(transport, 1.0, 0.0, probe_t), 0.0]
    half = _segment_steps(times, _REF_STEPS // 2)
    states, half_final = _paired_reference(enhanced, z_init, times, half)
    full = _split_reference(enhanced, z_init, times, [2 * n for n in half])
    assert len(states) == len(full) == len(times)
    for got, want in zip(states, full):
        assert np.array_equal(got, want)
    want = _split_reference(enhanced, z_init, times, half)[-1]
    assert l2_distance(half_final, want) <= 1e-12 * np.linalg.norm(want)


def test_discretization_reference_error_is_far_below_the_errors_it_measures():
    # On criterion 07's setting (transport kinks at t = 0.99 and 0.7) the
    # reference's stated error, ||z_n - z_(n/2)|| / 15, is below 1e-6 of the
    # smallest global error it measures (1.3e-11 against 1.3e-2), and within
    # a factor 3 of its distance to a 16x finer split pass.
    setup, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    field = otflow.make_velocity(reg, Condition.dataset("data"), GuidanceScales(w=1.0))
    report = verify_discretization_bound(field, transport, z_init, z_target, _COUNTS)
    error = report.fitted_constants["reference_error"]
    assert 0.0 < error < 1e-6 * min(e for series, _, e in report.measured if series == "global")
    enhanced = make_enhanced(field, z_target, transport)
    times = [1.0, *kinks(transport, 1.0, 0.0, 0.6, *[0.6 - 1.0 / n for n in _COUNTS]), 0.0]
    steps = [2 * n for n in _segment_steps(times, _REF_STEPS // 2)]
    ref = _split_reference(enhanced, z_init, times, steps)[-1]
    fine = _split_reference(enhanced, z_init, times, [16 * n for n in steps])[-1]
    assert error / 3.0 <= l2_distance(ref, fine) <= 3.0 * error


def test_local_references_are_far_below_the_local_errors(monkeypatch):
    # On criterion 07's setting, each probe step's local reference is the
    # reference walk's state at its end, probe_t - dt.  Against a 512-step
    # RK4 pass from the walk's probe state over the probe step, which holds
    # no kink, it lies within 1e-6 of the local error it measures (1.3e-8
    # at most).
    from otflow import metrics

    walks = []
    real = metrics._paired_reference

    def spy(velocity, z0, times, steps):
        states, half_final = real(velocity, z0, times, steps)
        walks.append((times, states))
        return states, half_final

    monkeypatch.setattr(metrics, "_paired_reference", spy)
    _, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    field = otflow.make_velocity(reg, Condition.dataset("data"), GuidanceScales(w=1.0))
    report = verify_discretization_bound(field, transport, z_init, z_target, _COUNTS)
    [(times, states)] = walks
    enhanced = make_enhanced(field, z_target, transport)
    probe_state = states[times.index(0.6)]
    local = [(dt, err) for series, dt, err in report.measured if series == "local"]
    for n, (dt, err) in zip(_COUNTS, local):
        assert dt == 1.0 / n and kinks(transport, 0.6, 0.6 - dt) == []
        want = reference_integrate(enhanced, probe_state, 0.6, 0.6 - dt, 512)
        assert l2_distance(states[times.index(0.6 - dt)], want) <= 1e-6 * err


def test_edit_control_rejects_a_phi_whose_schedule_integral_is_0():
    # 0.375 * phi rounds to 0 at the least subnormal phi; the bound divides
    # by the integral, so the verifier refuses such a phi before any run.
    setup, *_ = _shared_setup()
    with pytest.raises(ValueError, match="schedule integral of 0"):
        verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4], 5e-324)
    assert setup._arms == {}
    # The next subnormal up already gives a positive integral.
    assert schedule_integral(1e-323) > 0.0


@pytest.mark.parametrize("verify, arms, match", [
    (verify_convergence_bound, [0.0, 0.1, 1e160], r"beta0 = 1e\+160 has a square of inf"),
    (lambda setup, arms: verify_edit_control_bound(setup, arms, 0.3), [0.0, 1e-300, 0.1, 0.2],
     "beta0 = 1e-300 gives beta0\\^2 \\* schedule integral of 0 at phi = 0.3"),
], ids=["convergence", "edit_control"])
def test_verifiers_reject_arms_their_fits_cannot_take(verify, arms, match):
    # The convergence fit's design matrix holds beta0^2, which np.linalg.lstsq
    # cannot take as inf; the edit-control bound divides by beta0^2 times the
    # schedule integral, which must not round to 0.  Each verifier refuses
    # such an arm before any run, by the rule config checks at load.
    setup, *_ = _shared_setup()
    with pytest.raises(ValueError, match=match):
        verify(setup, arms)
    assert setup._arms == {}


def test_verify_arms_run_once_per_setup(monkeypatch):
    # Convergence and edit control on one setup integrate each distinct
    # (beta0, schedule) arm once: every beta0 = 0 arm is the unguided run,
    # and edit control at the template's phi reuses convergence's arms.  The
    # memo holds only (n_runs, d) arrays that own their data, and a report
    # at another phi equals that of a fresh setup, bit for bit.
    from otflow import metrics

    rows = []
    real = metrics.integrate_final

    def counting(velocity, z0, grid):
        rows.append(np.shape(z0)[0])
        return real(velocity, z0, grid)

    monkeypatch.setattr(metrics, "integrate_final", counting)
    setup, *_ = _shared_setup(n_runs=16)
    verify_convergence_bound(setup, [0.0, 0.1, 0.2, 0.4])
    verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4, 0.8], 0.3)
    assert rows == [16] * 5
    edit_phi = verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4], 0.6)
    assert rows == [16] * 8
    for arm in setup._arms.values():
        assert arm.shape == (16, 2) and arm.base is None and not arm.flags.writeable

    fresh = replace(setup)
    assert fresh._arms == {}
    assert edit_phi == verify_edit_control_bound(fresh, [0.0, 0.1, 0.2, 0.4], 0.6)


def test_covariance_symmetry_check():
    # Exact symmetry, or agreement to allclose's tolerance; NaN never passes.
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    nudged = cov + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert np.array_equal(_as_cov(nudged), nudged)
    with pytest.raises(ValueError, match="symmetric"):
        _as_cov(cov + np.array([[0.0, 1e-3], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="symmetric"):
        _as_cov(np.full((2, 2), np.nan))
    assert np.array_equal(_as_cov(np.full((2, 2), np.inf)), np.full((2, 2), np.inf))


def test_verify_convergence_bound_passes_and_validates():
    setup, *_ = _shared_setup()
    report = verify_convergence_bound(setup, [0.0, 0.1, 0.2, 0.4])
    assert report.passed
    assert report.fitted_constants["c_transport"] >= 0.0
    baseline = report.fitted_constants["baseline_mse"]
    assert abs(report.fitted_constants["eps_rf"] - baseline) <= 0.10 * baseline
    with pytest.raises(ValueError):
        verify_convergence_bound(setup, [0.1, 0.2, 0.4])


def test_verify_edit_control_bound_passes_and_validates():
    setup, *_ = _shared_setup()
    report = verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4, 0.8], 0.3)
    assert report.passed
    assert 1.5 <= report.slope <= 2.5
    measured = dict((b, v) for _, b, v in report.measured)
    assert measured[0.0] == 0.0
    with pytest.raises(ValueError):
        verify_edit_control_bound(setup, [0.0, 0.1, 0.2], 0.3)


def test_edit_control_passes_at_displacements_past_one_ulp_of_slack():
    # c_bound is the largest ratio over the arms, so every arm sits under
    # the rebuilt bound up to the rounding of c_bound * beta0^2 * integral.
    # Here the displacements pass 1e4, where one ulp is above 1e-12, and the
    # binding arm (beta0 = 100) lands 3.6e-12 over it; the report must pass.
    reg = FieldRegistry().add_gaussian("data", np.array([1.0, -0.5]),
                                       np.array([[0.8, 0.2], [0.2, 0.5]]))
    setup = VerifySetup(
        registry=reg,
        condition=Condition.dataset("data"),
        scales=GuidanceScales(w=1.0),
        grid=make_time_grid(28, 1.0, 0.0),
        transport=TransportConfig(beta0=0.0, phi=0.3, delta=0.01, clip_tau=10.0),
        z_target=np.array([0.5, 0.25]),
        n_runs=64,
        seed=1,
    )
    report = verify_edit_control_bound(setup, [0.0, 100.0, 200.0, 400.0, 800.0], 0.3)
    disp = {b: v for _, b, v in report.measured}
    consts = report.fitted_constants
    rebuilt = consts["c_bound"] * 100.0 * 100.0 * consts["schedule_integral"]
    assert disp[100.0] > rebuilt + consts["eps_schedule"] + 1e-12
    assert 1.5 <= report.slope <= 2.5 and disp[0.0] == 0.0
    assert report.passed


def test_edit_control_zero_arm_is_compared_with_itself():
    # By construction, not by measurement: verify_edit_control_bound takes
    # its unguided outputs from the beta0 = 0 arm and measures that same arm
    # against them, so eps_schedule is 0 and zero_displacement holds whatever
    # the arm holds.  Here the memoized unguided arm is replaced by arbitrary
    # states before the check runs; the zero entry still reads exactly 0.  An
    # independent unguided arm (another noise bank, say) would make these
    # figures measurements and must change this test on purpose.
    setup, *_ = _shared_setup(n_runs=16)
    junk = _rng(95).standard_normal((16, 2)) * 1e3
    junk.flags.writeable = False
    setup._arms[None] = junk
    report = verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4], 0.3)
    measured = {b: v for _, b, v in report.measured}
    assert measured[0.0] == 0.0 and report.fitted_constants["eps_schedule"] == 0.0
    assert report.tolerance_used["zero_displacement"] == 0.0
    assert setup._arms[None] is junk
    # The guided arms were measured against the junk, so they are huge.
    assert min(measured[b] for b in (0.1, 0.2, 0.4)) > 1e4


def _overflowing_arms(setup, beta0, transport=None):
    # Stand-in arms with finite states: the target, moved by beta0 along the
    # first axis, and by 1e155 from beta0 = 0.4 on, whose square overflows.
    shift = 1e155 if beta0 >= 0.4 else beta0
    return np.tile(setup.z_target + shift * np.eye(len(setup.z_target))[0], (setup.n_runs, 1))


@pytest.mark.parametrize("verify, term", [
    (lambda setup: verify_convergence_bound(setup, [0.0, 0.1, 0.2, 0.4]), "mse"),
    (lambda setup: verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4, 0.8], 0.3), "displacement"),
], ids=["convergence", "edit_control"])
def test_verify_arm_that_overflows_aborts_at_its_end(monkeypatch, verify, term):
    # RuntimeWarnings are errors under the suite's settings, so an unguarded
    # square would stop on its overflow warning before any located abort.
    monkeypatch.setattr(otflow.metrics, "_run_outputs", _overflowing_arms)
    setup, *_ = _shared_setup(n_runs=16)
    with pytest.raises(otflow.NumericalAbort) as err:
        verify(setup)
    assert str(err.value) == f"the beta0=0.4 arm's {term} is non-finite at t=0.0"
    assert (err.value.t, err.value.step, err.value.term) == (0.0, 28, term)


def test_noise_bank_is_deterministic():
    setup, *_ = _shared_setup()
    assert np.array_equal(setup.noise_bank(2), setup.noise_bank(2))
    other = VerifySetup(**{**setup.__dict__, "seed": 1})
    assert not np.array_equal(setup.noise_bank(2), other.noise_bank(2))


@pytest.mark.parametrize("call, match", [
    (lambda: l2_distance(np.zeros(2), np.zeros(3)), r"^shape mismatch \(2,\) vs \(3,\)$"),
    (lambda: w2_gaussian(np.zeros(2), np.zeros((2, 3)), np.zeros(2), np.eye(2)),
     r"^covariance must be square, got shape \(2, 3\)$"),
    (lambda: w2_gaussian(np.zeros(2), np.eye(2), np.zeros(2), [[1.0, 2.0], [2.0, 1.0]]),
     r"^matrix is not positive semidefinite \(min eigenvalue -1"),
    (lambda: w2_gaussian(np.zeros(3), np.eye(2), np.zeros(3), np.eye(2)),
     r"^mean/covariance dimensions disagree$"),
], ids=["l2-shapes", "non-square-cov", "non-psd-cov", "mean-cov-dims"])
def test_distance_input_validation(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_verify_discretization_probe_abort_names_its_step():
    # The probe is one Euler step through core's kernel: a non-finite probe
    # velocity aborts at probe_t, step 0 of the probe's one-step grid.  The
    # one probe call follows the 4 * 202 calls of the reference's paired
    # passes (_SCHEDULE); the step that uses it follows the walk of the
    # Euler runs, one call at each of the 20-step grid's times, in which the
    # 5-step and 10-step grids nest.
    _, z_init, z_target, _, transport = _shared_setup(beta0_template=0.2)
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    counts = [5, 10, 20]
    probe_call = 4 * 202
    calls = []

    def field(z, t):
        calls.append(t)
        v = gaussian_marginal_velocity(mu, cov, z, t)
        return np.full_like(v, np.nan) if len(calls) == probe_call + 1 else v

    with pytest.raises(otflow.NumericalAbort) as err:
        verify_discretization_bound(field, transport, z_init, z_target, counts, probe_t=0.6)
    assert calls[probe_call] == 0.6 and len(calls) == probe_call + 1 + counts[-1]
    assert (err.value.t, err.value.step, err.value.term) == (0.6, 0, "velocity")


# With counts 10-80 and probe_t = 0.6 the check makes its field calls in
# this order (numbered from 1): the full pass's segments [1, 0.99], [0.99,
# 0.7], [0.7, 0.6], [0.6, 0.5875], [0.5875, 0.575], [0.575, 0.55], [0.55,
# 0.5], [0.5, 1e-4] and [1e-4, 0] in 2, 58, 20, 2, 2, 6, 10, 100 and 2 RK4
# steps (calls 1-8, 9-240, 241-320, 321-328, 329-336, 337-360, 361-400,
# 401-800, 801-808), the half pass in half as many riding in them (8 calls
# per step), the probe (809), then the Euler runs, walked together, one
# call at each of the 80-step grid's times, in which the coarser grids
# nest (810-889).  In each 8 calls of a half step the 1st, 4th, 5th and
# 8th carry the half pass's state as a second row.
_COUNTS = [10, 20, 40, 80]


# The Euler runs' first call comes after the 808 reference calls and the
# probe call at counts 10-80 (see above).
_WALK_START = 4 * 202 + 1
_GRID = {n: make_time_grid(n, 1.0, 0.0).points for n in _COUNTS}


@pytest.mark.parametrize("poison, probe", [
    ({80: 0.5}, False),
    ({80: 0.5, 10: _GRID[10][8]}, False),  # run 80 at a time run 10 shares, run 10 later
    ({20: 0.5}, True),
    ({10: 0.5}, True),
    ({40: _GRID[40][1], 20: _GRID[20][19]}, False),
], ids=["one-run", "earlier-run-later", "probe-first", "run-first", "last-steps"])
def test_discretization_raises_the_abort_of_the_separate_runs(poison, probe):
    # The Euler runs are walked together, but the check raises what running
    # them one by one, in count order, would: per count, its run's abort,
    # then its probe step's.  poison maps a step count to the time at which
    # its run's field row is NaN; probe makes the probe velocity NaN.
    _, z_init, z_target, _, transport = _shared_setup(beta0_template=0.2)
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    grids = {n: _GRID[n][:-1].tolist() for n in _COUNTS}
    calls = []

    def walked(z, t):
        # The due runs' rows stack in count order; a run leaves the walk
        # after its poisoned step.
        calls.append(t)
        v = gaussian_marginal_velocity(mu, cov, z, t)
        if len(calls) == _WALK_START:
            return np.full_like(v, np.nan) if probe else v
        if len(calls) > _WALK_START:
            due = [n for n in _COUNTS if t in grids[n] and not poison.get(n, -1.0) > t]
            for row, n in enumerate(due):
                if poison.get(n) == t:
                    v.reshape(-1, 2)[row] = np.nan
        return v

    with pytest.raises(otflow.NumericalAbort) as err:
        verify_discretization_bound(walked, transport, z_init, z_target, _COUNTS, probe_t=0.6)
    assert all(t in grids[n] for n, t in poison.items())

    def separate():
        # The first abort of the separate runs, in count order.
        for n in _COUNTS:
            def one(z, t):
                v = gaussian_marginal_velocity(mu, cov, z, t)
                return np.full_like(v, np.nan) if poison.get(n) == t else v
            otflow.core.integrate_final(make_enhanced(one, z_target, transport), z_init,
                                        make_time_grid(n, 1.0, 0.0))
            if probe:
                otflow.euler_step(z_init, np.full(2, np.nan), -1.0 / n, 0.6, 0)

    with pytest.raises(otflow.NumericalAbort) as want:
        separate()
    got, want = err.value, want.value
    assert (str(got), got.t, got.step, got.term) == (str(want), want.t, want.step, want.term)


@pytest.mark.parametrize("poisoned, row, first, step, width", [
    (100, ..., 9, 22, 4),         # the full pass, segment [0.99, 0.7]
    (700, ..., 401, 74, 4),       # the full pass, segment [0.5, 1e-4]
    (181, 1, 9, 21, 8),           # the half pass, segment [0.99, 0.7]
    (348, ..., 337, 2, 4),        # the full pass, inside the probe steps
], ids=["head", "tail", "half", "local"])
def test_verify_discretization_reference_abort_names_its_step(poisoned, row, first, step, width):
    # A non-finite velocity inside the RK4 reference aborts that pass at its
    # own step (width calls each, counted from the first call of its
    # segment), at the time of the poisoned stage, with term "velocity".
    # The step's later stages still run; no other call follows.  The head,
    # tail and local cases poison both rows of a paired call (the full
    # pass's k4),
    # and the full pass's abort is raised; the half case poisons only the
    # second row of one (its k3, at the full pass's next k1), and the half
    # pass's abort comes after the full pass's two steps that carry it.
    _, z_init, z_target, _, transport = _shared_setup(beta0_template=0.2)
    mu = np.array([1.0, -0.5])
    cov = np.array([[0.8, 0.2], [0.2, 0.5]])
    calls = []

    def field(z, t):
        calls.append(t)
        v = gaussian_marginal_velocity(mu, cov, z, t)
        if len(calls) == poisoned:
            v[row] = np.nan
        return v

    with pytest.raises(otflow.NumericalAbort) as err:
        verify_discretization_bound(field, transport, z_init, z_target, _COUNTS, probe_t=0.6)
    assert (err.value.t, err.value.step, err.value.term) == (calls[poisoned - 1], step, "velocity")
    assert (poisoned - first) // width == step
    assert len(calls) == first + width * step + width - 1


def test_reference_integrate_abort_names_step_time_and_term():
    # The first non-finite stage of the failed step is reported as the
    # velocity term at its stage time; finite stages whose combination
    # overflows report the state term at the step's start time.
    calls = []

    def poisoned(z, t):
        calls.append(t)
        return np.full(2, np.nan) if len(calls) == 7 else z

    with pytest.raises(otflow.NumericalAbort) as err:
        reference_integrate(poisoned, np.ones(2), 0.0, 1.0, 10)
    assert (err.value.t, err.value.step, err.value.term) == (calls[6], 1, "velocity")
    assert calls[6] == 0.1 + 0.5 * 0.1 and len(calls) == 8

    def huge(z, t):
        calls.append(t)
        return np.full(2, 1e308) if len(calls) > 8 else z

    calls.clear()
    with np.errstate(over="ignore"), pytest.raises(otflow.NumericalAbort) as err:
        reference_integrate(huge, np.ones(2), 0.0, 1.0, 10)
    assert (err.value.t, err.value.step, err.value.term) == (0.1 + 0.1, 2, "state")
    assert len(calls) == 12


def test_discretization_check_leaves_numpy_ma_unloaded():
    # np.median's NaN check imports numpy.ma, about 12 ms of a fresh
    # `otflow verify`; the check's median of its local error ratios does not.
    src = os.path.dirname(os.path.dirname(otflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, numpy as np, otflow\n"
            "reg = otflow.FieldRegistry().add_gaussian('a', np.zeros(2), np.eye(2))\n"
            "field = otflow.make_velocity(reg, otflow.Condition.dataset('a'),"
            " otflow.GuidanceScales())\n"
            "rep = otflow.verify_discretization_bound(field, otflow.TransportConfig(beta0=0.2),"
            " np.ones(2), np.zeros(2), [10, 20, 40])\n"
            "print(rep.passed, [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "True []"


def test_discretization_lipschitz_scale_is_the_median_ratio():
    # The median of local error / dt^2 over the counts, equal to np.median's:
    # the middle value, or the mean of the middle pair.
    _, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    field = otflow.make_velocity(reg, Condition.dataset("data"), GuidanceScales())
    for counts in ([10, 20, 40], _COUNTS):
        rep = verify_discretization_bound(field, transport, z_init, z_target, counts)
        local = np.array([(dt, err) for series, dt, err in rep.measured if series == "local"])
        want = float(np.median(local[:, 1] / local[:, 0] ** 2))
        assert rep.fitted_constants["lipschitz_scale"] == want


def test_split_reference_reads_a_window_edge_on_each_segments_side():
    # The weight jumps at the window's edges (inclusive at both), and every
    # segment that ends at one evaluates a stage there; read inside the
    # segment, the split pass keeps fourth order across both jumps, where a
    # stage read at the edge itself gives an O(h) error (2x per halving).
    setup, z_init, z_target, reg, transport = _shared_setup(beta0_template=0.2)
    transport = replace(transport, window=(0.8, 0.3))
    field = otflow.make_velocity(reg, Condition.dataset("data"), GuidanceScales(w=1.0))
    enhanced = make_enhanced(field, z_target, transport)
    times = [1.0, *kinks(transport, 1.0, 0.0), 0.0]
    assert times == [1.0, 0.99, 0.8, 0.7, 0.3, _T_FLOOR, 0.0]
    exact = _split_reference(enhanced, z_init, times, _segment_steps(times, 3200))[-1]
    errs = [l2_distance(_split_reference(enhanced, z_init, times, _segment_steps(times, n))[-1],
                        exact) for n in (50, 100, 200)]
    assert all(coarse / fine >= 12.0 for coarse, fine in zip(errs, errs[1:]))
