"""
Verifying the error-bound shapes
================================

Three measurable claims about the guided editor, each checked by a harness
that fits slopes or constants from controlled runs:

  discretization  local Euler error ~ dt^2, accumulated error ~ dt, both
                  against an RK4 reference sized by its own error estimate;
  convergence     reconstruction MSE is baseline + transport term, with the
                  fitted intercept matching the measured baseline;
  edit control    squared displacement scales ~ beta0^2 and vanishes at 0.

Everything runs on one anisotropic Gaussian bench in a couple of seconds.
"""

import numpy as np

from otflow import (Condition, FieldRegistry, GuidanceScales, TransportConfig,
                    VerifySetup, make_time_grid, make_velocity,
                    verify_convergence_bound, verify_discretization_bound,
                    verify_edit_control_bound)

reg = FieldRegistry()
reg.add_gaussian("data", np.array([1.0, -0.5]), np.array([[0.8, 0.2],
                                                          [0.2, 0.5]]))
cond = Condition.dataset("data")
scales = GuidanceScales(w=1.0)
grid = make_time_grid(28, 1.0, 0.0)
tcfg = TransportConfig(beta0=0.0, phi=0.3, clip_tau=1.0, orientation="elapsed")

rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 2])))
z_target = rng.multivariate_normal(*reg.gaussian("data"))
z_init = rng.standard_normal(2)

setup = VerifySetup(registry=reg, condition=cond, scales=scales, grid=grid,
                    transport=tcfg, z_target=z_target, n_runs=64, seed=0)

field = make_velocity(reg, cond, scales)
rep = verify_discretization_bound(
    field,
    TransportConfig(beta0=0.2, phi=0.3, clip_tau=1.0, orientation="elapsed"),
    z_init, z_target, [10, 20, 40, 80], probe_t=0.6)
print(f"discretization: passed={rep.passed}  "
      f"local slope {rep.fitted_constants['local_slope']:.3f}  "
      f"global slope {rep.fitted_constants['global_slope']:.3f}  "
      f"RK4 reference {rep.fitted_constants['reference_steps']} steps, "
      f"error {rep.fitted_constants['reference_error']:.1e}")

rep = verify_convergence_bound(setup, [0.0, 0.1, 0.2, 0.4])
print(f"convergence:    passed={rep.passed}  "
      f"eps_rf {rep.fitted_constants['eps_rf']:.4f}  "
      f"baseline {rep.fitted_constants['baseline_mse']:.4f}  "
      f"C_transport {rep.fitted_constants['c_transport']:.4f}")

rep = verify_edit_control_bound(setup, [0.0, 0.1, 0.2, 0.4, 0.8], 0.3)
print(f"edit control:   passed={rep.passed}  log-log slope {rep.slope:.4f}")

print("\nThe same checks run from the command line: otflow verify <config>")
