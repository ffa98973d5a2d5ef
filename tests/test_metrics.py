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
from otflow.metrics import AssignmentPlan, VerifySetup, _as_cov
from otflow.transport import make_enhanced


def _rng(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


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


def test_w2_dirac_to_points_hand_value():
    pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
    # mean squared distance (1 + 1 + 4) / 3 = 2
    assert abs(w2_dirac_to_points(np.zeros(2), pts) - np.sqrt(2.0)) <= 1e-12


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


def test_reference_integrate_validation():
    with pytest.raises(ValueError):
        reference_integrate(lambda z, t: z, np.zeros(1), 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        reference_integrate(lambda z, t: z, np.zeros(1), 0.0, 1.0, 2.5)


@pytest.mark.parametrize("phi", [0.1, 0.3, 0.7, 1.0])
def test_schedule_integral_closed_form(phi):
    # integral of S^2 over [0, 1] is (3/8) phi for phi <= 1: substituting
    # u = s/phi gives phi * integral of (cos(pi u / 2))^4 in disguise.
    assert abs(schedule_integral(phi) - 0.375 * phi) <= 1e-8


def test_schedule_integral_orientation_independent():
    for phi in (0.2, 0.6):
        assert schedule_integral(phi, "elapsed") == schedule_integral(phi, "remaining")
    with pytest.raises(ValueError):
        schedule_integral(0.5, "sideways")


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
    # The reference as two separate RK4 passes from z_init, each of
    # 20 * max(step_counts) steps: one to t = 0, one to probe_t.
    enhanced = make_enhanced(field, z_target, transport)
    n_fine = 20 * max(step_counts)
    ref_final = reference_integrate(enhanced, z_init, 1.0, 0.0, n_fine)
    probe_state = reference_integrate(enhanced, z_init, 1.0, probe_t, n_fine)
    measured = []
    for n in step_counts:
        dt = 1.0 / n
        traj_end = integrate(enhanced, z_init, make_time_grid(n, 1.0, 0.0)).final_state
        euler_sub = probe_state - dt * enhanced(probe_state, probe_t)
        ref_sub = reference_integrate(enhanced, probe_state, probe_t, probe_t - dt, 50)
        measured.append(("local", dt, l2_distance(euler_sub, ref_sub)))
        measured.append(("global", dt, l2_distance(traj_end, ref_final)))
    return measured


@pytest.mark.parametrize("probe_t", [0.6, 1.0])
def test_verify_discretization_bound_integrates_the_reference_once(probe_t):
    # One RK4 pass through probe_t serves both references: 4 * n_fine field
    # calls, plus the Euler runs and, per step count, the probe step and its
    # 50-step reference.  The result matches two separate passes.
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
    n_fine = 20 * max(counts)
    assert len(calls) == 4 * n_fine + sum(counts) + len(counts) * (1 + 4 * 50)
    expected = _two_pass_discretization(field, transport, z_init, z_target, counts, probe_t)
    assert [m[:2] for m in report.measured] == [m[:2] for m in expected]
    for (_, _, got), (_, _, want) in zip(report.measured, expected):
        assert abs(got - want) <= 1e-10 * abs(want)


def test_verify_arms_run_once_per_setup(monkeypatch):
    # Convergence and edit control on one setup integrate each distinct
    # (beta0, schedule) arm once: every beta0 = 0 arm is the unguided run,
    # and edit control at the template's phi reuses convergence's arms.  The
    # memo holds only (n_runs, d) arrays that own their data, and a report
    # at another phi equals that of a fresh setup, bit for bit.
    from otflow import metrics

    rows = []
    real = metrics.integrate

    def counting(velocity, z0, grid):
        rows.append(np.shape(z0)[0])
        return real(velocity, z0, grid)

    monkeypatch.setattr(metrics, "integrate", counting)
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


def test_noise_bank_is_deterministic():
    setup, *_ = _shared_setup()
    assert np.array_equal(setup.noise_bank(2), setup.noise_bank(2))
    other = VerifySetup(**{**setup.__dict__, "seed": 1})
    assert not np.array_equal(setup.noise_bank(2), other.noise_bank(2))
