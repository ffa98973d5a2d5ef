"""Separate RK4 passes that the discretization check's paired walk must match.

Shared by the tests that hold metrics.verify_discretization_bound to a
reference built from reference_integrate alone.
"""

import numpy as np

from otflow import integrate, l2_distance, make_time_grid, reference_integrate
from otflow.metrics import _segment_steps, _segments
from otflow.transport import kinks, make_enhanced


def split_reference(velocity, z0, times, steps):
    # The states at every entry of times, z0 at times[0]: reference_integrate
    # on each segment between consecutive entries (_segments), in the given
    # numbers of steps.
    states = [np.asarray(z0, dtype=float)]
    for (a, b, seg), n in zip(_segments(velocity, times), steps):
        states.append(reference_integrate(seg, states[-1], a, b, n))
    return states


def two_pass_discretization(field, transport, z_init, z_target, step_counts, probe_t,
                            ref_steps):
    # The reference of about ref_steps RK4 steps as separate passes from
    # z_init through the same segments and step counts: one to t = 0, one
    # stopping at probe_t, and one from the probe state to each probe step's
    # end.
    enhanced = make_enhanced(field, z_target, transport)
    ends = [probe_t - 1.0 / n for n in step_counts]
    times = [1.0, *kinks(transport, 1.0, 0.0, probe_t, *ends), 0.0]
    steps = [2 * n for n in _segment_steps(times, ref_steps // 2)]
    ref_final = split_reference(enhanced, z_init, times, steps)[-1]
    stop = times.index(probe_t)
    probe_state = split_reference(enhanced, z_init, times[:stop + 1], steps[:stop])[-1]
    measured = []
    for n, end in zip(step_counts, ends):
        dt = 1.0 / n
        traj_end = integrate(enhanced, z_init, make_time_grid(n, 1.0, 0.0)).final_state
        euler_sub = probe_state - dt * enhanced(probe_state, probe_t)
        last = times.index(end)
        ref_sub = split_reference(enhanced, probe_state, times[stop:last + 1],
                                  steps[stop:last])[-1]
        measured.append(("local", dt, l2_distance(euler_sub, ref_sub)))
        measured.append(("global", dt, l2_distance(traj_end, ref_final)))
    return measured
