"""Distances, reference integration, and verification of the theory bounds.

Three empirical bounds are checked by fitting measured curves, never by
asserting absolute error values:

  discretization  local one-step error ~ L * dt^2 (slope 2), global ~ dt (slope 1)
  convergence     E ||z_out - z_target||^2 ~ eps_rf + c * beta0^2
  edit control    mean squared displacement between guided and unguided runs
                  bounded by c * beta0^2 * integral(S^2) + eps_schedule

Each trajectory the checks need is integrated once.  The discretization
check makes one RK4 reference pass that stops at probe_t for the probe state
and continues from there to the end of the span.  Convergence and edit
control share one VerifySetup, which integrates each distinct arm (one
transport strength and schedule over the noise bank) once and hands its
final states to both.

Wasserstein-2 comes in two dual forms kept deliberately separate: the closed
Gaussian (Bures) expression and an exact-assignment empirical distance, so
each can serve as the other's oracle in tests.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .core import integrate, make_time_grid
from .fields import make_velocity
from .transport import make_enhanced

_QUAD_PANELS = 10_000
_EMPIRICAL_CAP = 2048


def l2_distance(a, b):
    """Euclidean distance between two states."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def _as_cov(cov):
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    # The exact compare settles the common case without allclose's cost; a
    # NaN entry fails both.
    if not (np.array_equal(cov, cov.T) or np.allclose(cov, cov.T, atol=1e-10)):
        raise ValueError("covariance must be symmetric")
    return cov


def _psd_sqrt(mat):
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals.min() < -1e-8:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {eigvals.min()})")
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


def w2_gaussian(mean1, cov1, mean2, cov2):
    """Wasserstein-2 distance between two Gaussians (Bures metric).

    W2^2 = ||mu1 - mu2||^2 + tr(C1 + C2 - 2 (C2^{1/2} C1 C2^{1/2})^{1/2}).
    Scalars are accepted for 1-D means and (co)variances.
    """
    mean1 = np.atleast_1d(np.asarray(mean1, dtype=float))
    mean2 = np.atleast_1d(np.asarray(mean2, dtype=float))
    cov1 = _as_cov(cov1)
    cov2 = _as_cov(cov2)
    if mean1.shape != mean2.shape or cov1.shape[0] != mean1.shape[0]:
        raise ValueError("mean/covariance dimensions disagree")
    root2 = _psd_sqrt(cov2)
    cross = _psd_sqrt(root2 @ cov1 @ root2)
    trace_term = np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross)
    sq = float(np.sum((mean1 - mean2) ** 2) + max(trace_term, 0.0))
    return np.sqrt(sq)


@dataclass(frozen=True)
class AssignmentPlan:
    """Optimal pairing underlying an exact empirical W2: row i of the first
    cloud is matched to target_index[i] in the second."""

    target_index: np.ndarray
    total_sq_cost: float

    def __post_init__(self):
        idx = np.asarray(self.target_index)
        if sorted(idx.tolist()) != list(range(idx.shape[0])):
            raise ValueError("target_index must be a permutation")


def w2_empirical_exact(a, b):
    """Exact Wasserstein-2 between two equal-size point clouds.

    Solves the minimum-cost perfect matching under squared euclidean cost and
    returns (distance, AssignmentPlan).  Sizes must match and stay at or below
    2048 points (the assignment is O(n^3)).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"clouds must share shape (n, d), got {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0 or n > _EMPIRICAL_CAP:
        raise ValueError(f"cloud size must be in [1, {_EMPIRICAL_CAP}], got {n}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("clouds contain non-finite entries")
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist
    cost = cdist(a, b, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    order = np.argsort(rows)
    perm = cols[order]
    total = float(cost[rows, cols].sum())
    return float(np.sqrt(total / n)), AssignmentPlan(target_index=perm, total_sq_cost=total)


def w2_dirac_to_points(p, points):
    """W2 between a point mass at p and the uniform measure over points."""
    p = np.asarray(p, dtype=float)
    points = np.asarray(points, dtype=float)
    return float(np.sqrt(np.mean(np.sum((points - p) ** 2, axis=1))))


def w2_dirac_to_gaussian(p, mean, cov):
    """W2 between a point mass at p and N(mean, cov)."""
    p = np.asarray(p, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = _as_cov(cov)
    return float(np.sqrt(np.sum((p - mean) ** 2) + np.trace(cov)))


def reference_integrate(velocity, z0, t0, t1, n_fine):
    """Classical fixed-step RK4 from t0 to t1; the test-side reference oracle.

    Use at least 10x the production step count so the reference error is
    negligible next to the Euler error under test.
    """
    if not isinstance(n_fine, (int, np.integer)) or n_fine < 1:
        raise ValueError(f"n_fine must be a positive integer, got {n_fine!r}")
    z = np.asarray(z0, dtype=float)
    h = (float(t1) - float(t0)) / n_fine
    t = float(t0)
    for _ in range(n_fine):
        k1 = np.asarray(velocity(z, t))
        k2 = np.asarray(velocity(z + 0.5 * h * k1, t + 0.5 * h))
        k3 = np.asarray(velocity(z + 0.5 * h * k2, t + 0.5 * h))
        k4 = np.asarray(velocity(z + h * k3, t + h))
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return z


def schedule_integral(phi, orientation="elapsed"):
    """integral_0^1 S(s, phi)^2 ds by composite midpoint rule (1e4 panels).

    Both orientations are a change of variables s -> 1 - s away from each
    other, so the value is orientation-independent; closed form (3/8) * phi.
    """
    if orientation not in ("elapsed", "remaining"):
        raise ValueError(f"unknown orientation {orientation!r}")
    s = (np.arange(_QUAD_PANELS) + 0.5) / _QUAD_PANELS
    ratio = np.minimum(s / phi, 1.0)
    vals = (0.5 * (1.0 + np.cos(ratio * np.pi))) ** 2
    return float(vals.mean())


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound verification.

    measured holds (series, control, observed) triples; passed is a pure
    function of measured and the thresholds recorded in tolerance_used.
    """

    bound_kind: str
    measured: tuple
    fitted_constants: dict
    slope: float
    passed: bool
    tolerance_used: dict


@dataclass(frozen=True)
class VerifySetup:
    """Shared scaffolding for the convergence / edit-control verifiers.

    Runs start from n_runs seeded standard-normal noise states, denoise over
    grid with the condition's oracle field, and add the transport correction
    anchored on z_target, which on the reverse steps moves the states away
    from it; transport.beta0 acts as a template overridden per arm.

    An arm is one Euler run of the whole noise bank under one transport
    config.  The setup integrates each distinct arm once and keeps a copy of
    its final states, so verifiers run on the same setup share their arms.
    Every zero-strength arm is the same run, the unguided one, whatever its
    schedule.  The memo belongs to this instance: a copy made with
    dataclasses.replace starts empty.
    """

    registry: object
    condition: object
    scales: object
    grid: object
    transport: object
    z_target: np.ndarray
    n_runs: int = 64
    seed: int = 0
    _arms: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_arms", {})

    def noise_bank(self, dim):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        return rng.standard_normal((self.n_runs, dim))


def _fit_loglog_slope(x, y):
    coeffs = np.polyfit(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)), 1)
    return float(coeffs[0])


def check_probe_step(probe_t, step_counts, t_span=(1.0, 0.0)):
    """Raise ValueError unless the coarsest probe step lies inside t_span.

    verify_discretization_bound steps from probe_t toward t_span[1] by up to
    |t1 - t0| / min(step_counts); a step that left the span would run on the
    field's clamped times and fit nothing.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    end = probe_t + (t1 - t0) / min(step_counts)
    lo, hi = min(t0, t1), max(t0, t1)
    if not (lo <= probe_t <= hi and lo <= end <= hi):
        raise ValueError(f"probe step from t={probe_t} to t={end} leaves the time span "
                         f"[{lo}, {hi}]")


def verify_discretization_bound(field, transport_cfg, z_init, z_target, step_counts,
                                t_span=(1.0, 0.0), probe_t=0.6):
    """Check Euler error orders for the transport-guided ODE.

    Local one-step error against an RK4 reference should scale like dt^2
    (slope within [1.8, 2.2]); global end-state error like dt (slope within
    [0.8, 1.2]).  The probe step starts from the reference trajectory state at
    probe_t, away from the schedule and clipping kinks, and must stay inside
    t_span (check_probe_step).  One RK4 pass of 20 * max(step_counts) steps
    gives both references: its first steps end at probe_t, the rest continue
    from there to t1.
    """
    step_counts = sorted(int(n) for n in step_counts)
    if len(step_counts) < 3 or step_counts[0] < 1:
        raise ValueError("need at least three positive step counts to fit a slope")
    check_probe_step(probe_t, step_counts, t_span)
    enhanced = make_enhanced(field, z_target, transport_cfg)
    t0, t1 = t_span
    n_fine = 20 * max(step_counts)
    # At least one step whenever probe_t != t0, so the probe state is never
    # z_init at the wrong time; the check above leaves the tail >= 20 steps.
    n_probe = max(round(n_fine * abs(probe_t - t0) / abs(t1 - t0)), int(probe_t != t0))
    probe_state = np.asarray(z_init, dtype=float)
    if n_probe:
        probe_state = reference_integrate(enhanced, probe_state, t0, probe_t, n_probe)
    ref_final = reference_integrate(enhanced, probe_state, probe_t, t1, n_fine - n_probe)

    measured = []
    local_errs, global_errs, dts = [], [], []
    for n in step_counts:
        dt = abs(t1 - t0) / n
        grid = make_time_grid(n, t0, t1)
        traj = integrate(enhanced, np.asarray(z_init, dtype=float), grid)
        g_err = l2_distance(traj.final_state, ref_final)
        # One Euler step from the reference state vs a fine reference substep.
        signed = -dt if t1 < t0 else dt
        euler_sub = probe_state + signed * np.asarray(enhanced(probe_state, probe_t))
        ref_sub = reference_integrate(enhanced, probe_state, probe_t, probe_t + signed, 50)
        l_err = l2_distance(euler_sub, ref_sub)
        dts.append(dt)
        local_errs.append(l_err)
        global_errs.append(g_err)
        measured.append(("local", dt, l_err))
        measured.append(("global", dt, g_err))

    local_slope = _fit_loglog_slope(dts, local_errs)
    global_slope = _fit_loglog_slope(dts, global_errs)
    lipschitz_scale = float(np.median(np.asarray(local_errs) / np.asarray(dts) ** 2))
    tol = {"local_slope": (1.8, 2.2), "global_slope": (0.8, 1.2)}
    passed = (tol["local_slope"][0] <= local_slope <= tol["local_slope"][1]
              and tol["global_slope"][0] <= global_slope <= tol["global_slope"][1])
    return BoundReport(
        bound_kind="discretization",
        measured=tuple(measured),
        fitted_constants={"local_slope": local_slope, "global_slope": global_slope,
                          "lipschitz_scale": lipschitz_scale},
        slope=local_slope,
        passed=passed,
        tolerance_used=tol,
    )


def _run_outputs(setup, beta0, transport=None):
    """Final states of setup's noise bank under transport (default: the
    setup's template) at strength beta0, integrated on the first request
    and read-only, since every later caller gets the same array."""
    cfg = replace(setup.transport if transport is None else transport, beta0=float(beta0))
    # A zero weight leaves the base velocity untouched, so phi and the rest
    # of the schedule cannot change a zero-strength arm.
    key = None if cfg.beta0 == 0.0 else cfg
    if key not in setup._arms:
        velocity = make_velocity(setup.registry, setup.condition, setup.scales)
        enhanced = make_enhanced(velocity, setup.z_target, cfg)
        bank = setup.noise_bank(setup.z_target.shape[0])
        # A copy: final_state is a view that would keep the whole trajectory.
        final = integrate(enhanced, bank, setup.grid).final_state.copy()
        final.flags.writeable = False
        setup._arms[key] = final
    return setup._arms[key]


def verify_convergence_bound(setup, beta0_list):
    """Fit E||z_out - z_target||^2 ~ eps_rf + c * beta0^2 over transport strengths.

    Passes when the fitted intercept matches the directly measured beta0 = 0
    error within 10% and the fitted curvature is nonnegative.
    """
    beta0_list = [float(b) for b in beta0_list]
    if 0.0 not in beta0_list:
        raise ValueError("beta0_list must include 0 (the baseline arm)")
    mses = []
    for b in beta0_list:
        outs = _run_outputs(setup, b)
        mses.append(float(np.mean(np.sum((outs - setup.z_target) ** 2, axis=1))))
    design = np.stack([np.ones(len(beta0_list)), np.asarray(beta0_list) ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.asarray(mses), rcond=None)
    eps_rf, c_transport = float(coef[0]), float(coef[1])
    baseline = mses[beta0_list.index(0.0)]
    fitted = design @ coef
    spread = max(mses) - min(mses)
    resid_frac = float(np.max(np.abs(fitted - mses)) / spread) if spread > 0 else 0.0
    tol = {"eps_rf_rel": 0.10, "c_transport_min": 0.0}
    passed = c_transport >= 0.0 and abs(eps_rf - baseline) <= tol["eps_rf_rel"] * baseline
    return BoundReport(
        bound_kind="convergence",
        measured=tuple(("mean_sq_error", b, m) for b, m in zip(beta0_list, mses)),
        fitted_constants={"eps_rf": eps_rf, "c_transport": c_transport,
                          "baseline_mse": baseline, "residual_frac": resid_frac},
        slope=c_transport,
        passed=passed,
        tolerance_used=tol,
    )


def verify_edit_control_bound(setup, beta0_list, phi):
    """Check the quadratic edit-magnitude law against the schedule integral.

    Mean squared displacement between guided and unguided outputs (same seeds)
    must scale like beta0^2 (log-log slope within [1.5, 2.5]), vanish exactly
    at beta0 = 0, and sit below c * beta0^2 * integral(S^2) + eps for the
    fitted nonnegative constants.

    The arms come from setup's memo, so those that verify_convergence_bound
    already ran on the same setup (the beta0 = 0 arm, and any other when phi
    equals the template's) are not integrated again.  The beta0 = 0 entry
    therefore compares the shared unguided arm with itself, and the
    zero_displacement check no longer repeats a run; run-to-run determinism
    is pinned by acceptance criterion 10 and the benchmark's byte-identity
    gate.
    """
    beta0_list = [float(b) for b in beta0_list]
    positives = [b for b in beta0_list if b > 0.0]
    if len(positives) < 3:
        raise ValueError("need at least three positive beta0 values to fit a slope")
    transport = replace(setup.transport, phi=float(phi))
    base_out = _run_outputs(setup, 0.0, transport)
    integral = schedule_integral(phi, transport.orientation)
    disp = {}
    for b in beta0_list:
        outs = _run_outputs(setup, b, transport)
        disp[b] = float(np.mean(np.sum((outs - base_out) ** 2, axis=1)))
    slope = _fit_loglog_slope(positives, [disp[b] for b in positives])
    # Tightest nonnegative constants: eps from the baseline arm, c from the
    # worst ratio, so the bound holds with equality at the binding arm.
    eps_schedule = disp.get(0.0, 0.0)
    c_bound = max((disp[b] - eps_schedule) / (b * b * integral) for b in positives)
    c_bound = max(c_bound, 0.0)
    bound_ok = all(disp[b] <= c_bound * b * b * integral + eps_schedule + 1e-12 for b in positives)
    zero_ok = disp.get(0.0, 0.0) == 0.0
    tol = {"slope": (1.5, 2.5), "zero_displacement": 0.0}
    passed = tol["slope"][0] <= slope <= tol["slope"][1] and zero_ok and bound_ok
    return BoundReport(
        bound_kind="edit_control",
        measured=tuple(("mean_sq_displacement", b, disp[b]) for b in beta0_list),
        fitted_constants={"c_bound": c_bound, "eps_schedule": eps_schedule,
                          "schedule_integral": integral},
        slope=slope,
        passed=passed,
        tolerance_used=tol,
    )
