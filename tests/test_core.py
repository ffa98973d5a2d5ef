"""Core integration machinery: grids, Euler stepping, codecs, trajectories.

The quantitative checks lean on two independent oracles: the compound-growth
closed form for dz/dt = z (Euler gives (1 + 1/n)^n, whose relative error is
1/(2n) to leading order) and the variance-preserving Gaussian flow, whose
noising scale sqrt((1-t)^2 + t^2) returns to 1 at t = 1.
"""

from dataclasses import replace

import numpy as np
import pytest

from otflow import (
    Condition,
    FieldRegistry,
    GuidanceScales,
    LatentCodec,
    NumericalAbort,
    TransportConfig,
    denoise,
    euler_step,
    forward_noising,
    integrate,
    make_time_grid,
    make_velocity,
    rf_invert,
)
from otflow.core import _euler_update, _step_rows, integrate_final, integrate_finals
from otflow.transport import make_enhanced


def test_grid_points_and_dt():
    grid = make_time_grid(4, 1.0, 0.0)
    assert np.array_equal(grid.points, np.array([1.0, 0.75, 0.5, 0.25, 0.0]))
    assert grid.dt == 0.25
    assert grid.direction == "reverse"


def test_grid_28_steps_covers_unit_interval():
    grid = make_time_grid(28, 1.0, 0.0)
    assert grid.points.shape == (29,)
    assert grid.points[0] == 1.0 and grid.points[-1] == 0.0
    assert grid.dt == pytest.approx(1.0 / 28.0, abs=1e-15)


def test_grid_reversed_round_trip():
    grid = make_time_grid(7, 0.0, 1.0)
    back = grid.reversed()
    assert back.direction == "reverse"
    assert np.array_equal(back.points, grid.points[::-1])
    assert np.array_equal(back.reversed().points, grid.points)


@pytest.mark.parametrize("n_steps, t_start, t_end", [
    (0, 0.0, 1.0),
    (-3, 0.0, 1.0),
    (10, -0.1, 1.0),
    (10, 0.0, 1.5),
    (10, 0.5, 0.5),
    (28, 5e-324, 0.0),     # every step underflows to 0
    (28, 0.0, 5e-324),
])
def test_grid_validation(n_steps, t_start, t_end):
    with pytest.raises(ValueError):
        make_time_grid(n_steps, t_start, t_end)


def test_grid_rejects_float_step_count():
    with pytest.raises(ValueError):
        make_time_grid(4.0, 0.0, 1.0)


def test_euler_step_formula():
    z = np.array([1.0, -2.0])
    v = np.array([0.5, 0.25])
    out = euler_step(z, v, -0.1)
    assert np.array_equal(out, z + (-0.1) * v)


def test_euler_step_rejects_shape_mismatch_and_zero_step():
    with pytest.raises(ValueError):
        euler_step(np.zeros(2), np.zeros(3), 0.1)
    with pytest.raises(ValueError):
        euler_step(np.zeros(2), np.zeros(2), 0.0)


def test_euler_step_aborts_on_overflow():
    big = np.array([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericalAbort):
        euler_step(big, big, 10.0)


def test_forward_noising_endpoints():
    z0 = np.array([2.0, -1.0])
    eps = np.array([0.5, 3.0])
    assert np.array_equal(forward_noising(z0, 0.0, eps), z0)
    assert np.array_equal(forward_noising(z0, 1.0, eps), eps)
    mid = forward_noising(z0, 0.25, eps)
    assert np.allclose(mid, 0.75 * z0 + 0.25 * eps, atol=1e-15)
    with pytest.raises(ValueError):
        forward_noising(z0, 1.5, eps)
    # A (d,) state broadcasts against a (k, d) block of draws, row by row.
    block = np.array([[0.5, 3.0], [-1.0, 0.25], [2.0, 2.0]])
    noised = forward_noising(z0, 0.25, block)
    assert noised.shape == (3, 2)
    for row, eps_row in zip(noised, block):
        assert np.array_equal(row, forward_noising(z0, 0.25, eps_row))
    with pytest.raises(ValueError):
        forward_noising(z0, 0.25, np.zeros((3, 3)))


def test_integrate_exponential_oracle():
    # Euler on dz/dt = z over [0, 1] compounds to (1 + 1/n)^n; the relative
    # error against e is 1/(2n) to leading order, so 1000 steps must land
    # inside a (4e-4, 6e-4) bracket.  Both bounds matter: too accurate would
    # mean the integrator is not the first-order method it claims to be.
    grid = make_time_grid(1000, 0.0, 1.0)
    traj = integrate(lambda z, t: z, np.array([1.0]), grid)
    rel = abs(traj.final_state[0] - np.e) / np.e
    assert 4e-4 < rel < 6e-4


def test_integrate_constant_field_is_exact():
    c = np.array([0.3, -1.2])
    grid = make_time_grid(13, 1.0, 0.0)
    traj = integrate(lambda z, t: c, np.array([5.0, 5.0]), grid)
    assert np.allclose(traj.final_state, np.array([5.0, 5.0]) - c, atol=1e-12)


def test_integrate_batch_states():
    grid = make_time_grid(50, 0.0, 1.0)
    z0 = np.array([[1.0], [2.0], [-1.0]])
    traj = integrate(lambda z, t: z, z0, grid)
    assert traj.final_state.shape == (3, 1)
    growth = traj.final_state / z0
    assert np.allclose(growth, growth[0], atol=1e-12)


def test_integrate_aborts_on_non_finite_velocity():
    grid = make_time_grid(4, 1.0, 0.0)

    def bad(z, t):
        return np.array([np.nan]) if t < 0.6 else z

    with pytest.raises(NumericalAbort) as err:
        integrate(bad, np.array([1.0]), grid)
    assert err.value.t is not None and err.value.t < 0.6


def test_integrate_state_abort_names_t_step_and_term():
    # A finite velocity that overflows the state at grid index 3 (t = 0.25
    # on a 4-step reverse grid) aborts there, located like a velocity abort.
    grid = make_time_grid(4, 1.0, 0.0)

    def overflowing(z, t):
        return np.full_like(z, -1e308) if t < 0.3 else np.zeros_like(z)

    with np.errstate(over="ignore"), pytest.raises(NumericalAbort) as err:
        integrate(overflowing, np.array([1.7e308]), grid)
    assert str(err.value) == "euler_step produced a non-finite state"
    assert (err.value.t, err.value.step, err.value.term) == (0.25, 3, "state")


# One failing row of each kind, (state, velocity, reported term): the Euler
# kernel's whole-array test must hand each to its per-row masks.
_EULER_FAULTS = {
    "velocity-inf": ([1.0, 2.0], [np.inf, 1.0], "velocity"),
    "velocity-nan": ([1.0, 2.0], [1.0, np.nan], "velocity"),
    "state-overflow": ([1.5e308, 2.0], [1.5e308, 1.0], "state"),
    "velocity-and-state": ([1.5e308, 2.0], [1.5e308, -np.inf], "velocity"),
}


@pytest.mark.parametrize("fault", list(_EULER_FAULTS))
def test_euler_kernel_falls_back_to_row_masks_on_a_failed_step(fault):
    # The kernel tests the whole new state once and forms its per-row masks
    # only when that fails.  Every kind of failure is still caught and
    # located, the velocity term reported before the state term: euler_step
    # raises it, and the row kernel records it in a batch and for one row,
    # where the same rows go NaN as under the masks alone.
    z_bad, v_bad, term = _EULER_FAULTS[fault]
    with np.errstate(over="ignore"), pytest.raises(NumericalAbort) as err:
        euler_step(np.array(z_bad), np.array(v_bad), 0.5, t=0.25, step=3)
    assert (err.value.t, err.value.step, err.value.term) == (0.25, 3, term)
    z = np.array([[0.5, -1.0], z_bad, [3.0, 4.0], [-2.0, 1e300]])
    v = np.array([[1.0, 1.0], v_bad, [-2.0, 0.5], [7.0, -1e300]])
    aborts = [None] * 4
    with np.errstate(over="ignore"):
        stepped = _step_rows(z, v, 0.5, 0.25, 3, aborts)
        plain = z + 0.5 * v
    failed = ~np.isfinite(v).all(axis=1) | ~np.isfinite(plain).all(axis=1)
    assert np.array_equal(np.isnan(stepped).all(axis=1), failed)
    assert np.flatnonzero(failed).tolist() == [1]
    assert np.array_equal(stepped[~failed], plain[~failed])
    assert [a is None for a in aborts] == [True, False, True, True]
    assert (aborts[1].t, aborts[1].step, aborts[1].term) == (0.25, 3, term)
    one = [None]
    with np.errstate(over="ignore"):
        assert np.all(np.isnan(_step_rows(z[1:2], v[1:2], 0.5, 0.25, 3, one)))
    assert (one[0].t, one[0].step, one[0].term) == (0.25, 3, term)


def test_euler_kernel_clears_a_sound_step_without_row_masks():
    # A finite new state needs no masks, and is z + step * v bit for bit.
    z, v = np.random.default_rng(41).standard_normal((2, 1024, 8))
    z_next, bad_v, bad = _euler_update(z, v, -1.0 / 28)
    assert bad_v is None and bad is None
    assert np.array_equal(z_next, z + (-1.0 / 28) * v)
    assert np.array_equal(_step_rows(z, v, -1.0 / 28, 0.5, 0, [None] * 1024), z_next)


def _curved_field(z, t):
    # Nonlinear in z and t, so every step rounds differently.
    return np.sin(3.0 * z) * (0.5 + t) - 0.7 * z * z + np.cos(t)


@pytest.mark.parametrize("t_start, t_end", [(0.0, 1.0), (1.0, 0.0), (0.85, 0.2)])
@pytest.mark.parametrize("shape", [(3,), (17, 3)])
def test_integrate_final_equals_the_recorded_final_state(shape, t_start, t_end):
    grid = make_time_grid(28, t_start, t_end)
    z0 = np.random.default_rng(40).standard_normal(shape)
    got = integrate_final(_curved_field, z0, grid)
    want = integrate(_curved_field, z0, grid).final_state
    assert got.shape == shape and np.array_equal(got, want)
    assert got.base is None  # owns its data, as the verify arms' memo needs


@pytest.mark.parametrize("shape", [(1,), (4, 1)])
def test_integrate_final_aborts_where_integrate_does(shape):
    grid = make_time_grid(4, 1.0, 0.0)

    def bad(z, t):
        return np.full_like(z, np.nan) if t < 0.6 else z

    def overflowing(z, t):
        return np.full_like(z, -1e308) if t < 0.3 else np.zeros_like(z)

    for field, z0, term in ((bad, np.ones(shape), "velocity"),
                            (overflowing, np.full(shape, 1.7e308), "state")):
        aborts = []
        for run in (integrate, integrate_final):
            with np.errstate(over="ignore"), pytest.raises(NumericalAbort) as err:
                run(field, z0, grid)
            aborts.append((str(err.value), err.value.t, err.value.step, err.value.term))
        assert aborts[0] == aborts[1] and aborts[0][3] == term


def test_euler_step_reports_velocity_before_state():
    with pytest.raises(NumericalAbort) as err:
        euler_step(np.array([1.0, 2.0]), np.array([0.0, np.nan]), 0.5, t=0.5, step=2)
    assert str(err.value) == "velocity non-finite at t=0.5"
    assert (err.value.t, err.value.step, err.value.term) == (0.5, 2, "velocity")


def test_trajectory_records_step_consistency():
    # Record k must hold the state at times[k] and the velocity applied from
    # it: replaying euler_step bit for bit reproduces the recorded states.
    grid = make_time_grid(9, 1.0, 0.0)
    traj = integrate(lambda z, t: 0.5 * z - 1.0, np.array([2.0, -1.0]), grid)
    for k in range(grid.n_steps):
        step = traj.times[k + 1] - traj.times[k]
        replay = traj.states[k] + step * traj.velocities[k]
        assert np.array_equal(replay, traj.states[k + 1])
    assert np.array_equal(traj.velocities[-1], np.zeros(2))
    assert traj.transport_norms[-1] == 0.0 and traj.weights[-1] == 0.0
    assert traj.dim == 2


def test_trajectory_shape_validation():
    from otflow.core import Trajectory
    with pytest.raises(ValueError):
        Trajectory(times=np.zeros(3), states=np.zeros((2, 1)),
                   velocities=np.zeros((3, 1)), transport_norms=np.zeros(3),
                   weights=np.zeros(3))


def test_make_rng_of_one_key_draws_as_the_bare_seed():
    # make_rng(s) seeds SeedSequence([s]); RngSeed and VerifySetup streams
    # are defined as those of SeedSequence(s), so the two must agree.
    from otflow.core import make_rng

    for seed in (0, 7, 2 ** 32 + 1, 2 ** 63 + 5, 2 ** 64 - 1):
        bare = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        assert np.array_equal(make_rng(seed).standard_normal(16), bare.standard_normal(16))


# Key entries at each word boundary of numpy's int-to-uint32 conversion: one
# word, the largest one-word value, two words, the top bit of two words, the
# largest two-word value, and four words.
_KEY_ENTRIES = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 96 + 1)


def _list_seeded(key):
    return np.random.SeedSequence(list(key))


@pytest.mark.parametrize("key", [(e,) for e in _KEY_ENTRIES]
                         + [(e, 1) for e in _KEY_ENTRIES] + [(3, e, 2) for e in _KEY_ENTRIES]
                         + [_KEY_ENTRIES, (np.uint64(2 ** 64 - 1), np.int64(5)), ()])
def test_make_rng_draws_as_the_list_seeded_sequence(key):
    # make_rng hands SeedSequence the key as uint32 words; its streams must
    # be those numpy builds from the list of ints itself.
    from otflow.core import _seed_sequence, make_rng

    assert np.array_equal(_seed_sequence(*key).generate_state(8),
                          _list_seeded(key).generate_state(8))
    listed = np.random.Generator(np.random.PCG64(_list_seeded(key)))
    assert np.array_equal(make_rng(*key).standard_normal(16), listed.standard_normal(16))


@pytest.mark.parametrize("entry", _KEY_ENTRIES)
def test_derive_seed_is_the_list_seeded_sequence(entry):
    from otflow.runner import derive_seed

    for key in ((entry, 0, 0), (7, entry, 3), (0, 1, entry)):
        want = int(_list_seeded(key).generate_state(1, dtype=np.uint64)[0])
        assert derive_seed(*key) == want


def test_derive_seed_takes_integer_entries_only():
    # A sweep seed is keyed by integers, as make_rng's are: a float or a
    # string entry is a TypeError, not truncated to another key's seed, a
    # negative one a ValueError, and numpy integers key as Python ints.
    from otflow.runner import derive_seed

    for key in ((1.9, 0, 0), ("1", 0, 0), (0, 2.0, 0), (0, 0, "0")):
        with pytest.raises(TypeError):
            derive_seed(*key)
    for key in ((-1, 0, 0), (0, 0, -1)):
        with pytest.raises(ValueError):
            derive_seed(*key)
    assert derive_seed(np.int64(7), np.int64(3), np.uint8(1)) == derive_seed(7, 3, 1)
    assert derive_seed(np.uint64(2 ** 63), 0, np.int32(2)) == derive_seed(2 ** 63, 0, 2)


def test_seed_keys_reject_negative_and_non_integer_entries():
    from otflow.core import make_rng
    from otflow.runner import derive_seed

    for key in ((-1,), (3, -1), (2 ** 64, -(2 ** 40))):
        with pytest.raises(ValueError):
            make_rng(*key)
        with pytest.raises(ValueError):
            _list_seeded(key)
    with pytest.raises(ValueError):
        derive_seed(0, -1, 0)
    for key in ((1.5,), (2, 0.5)):
        with pytest.raises(TypeError):
            make_rng(*key)
        with pytest.raises(TypeError):
            _list_seeded(key)


def test_codec_round_trip():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    scale = rng.uniform(0.5, 2.0, size=4)
    offset = rng.standard_normal(4)
    codec = LatentCodec(scale=scale, offset=offset)
    for _ in range(100):
        x = 10.0 * rng.standard_normal(4)
        assert np.linalg.norm(codec.decode(codec.encode(x)) - x) <= 1e-12


def test_codec_identity_and_validation():
    codec = LatentCodec.identity(3)
    assert codec.dim == 3
    x = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(codec.encode(x), x)
    with pytest.raises(ValueError):
        LatentCodec(scale=np.array([1.0, 0.0]), offset=np.zeros(2))
    with pytest.raises(ValueError):
        LatentCodec(scale=np.ones(2), offset=np.zeros(3))


def _gaussian_null_field():
    from otflow import Condition, FieldRegistry, GuidanceScales, make_velocity
    reg = FieldRegistry()
    reg.add_gaussian("d", np.array([1.0, -0.5]), np.array([[0.8, 0.2], [0.2, 0.5]]))
    return make_velocity(reg, Condition.null(), GuidanceScales())


def test_invert_then_denoise_round_trip():
    # First-order global error: the 400-step round trip sits under 5e-3 and
    # the 100-step error is about 4x larger (measured 1.14e-2 vs 2.88e-3).
    field = _gaussian_null_field()
    z0 = np.array([0.7, -0.2])
    errs = {}
    for n in (100, 400):
        fwd = make_time_grid(n, 0.0, 1.0)
        zT = rf_invert(field, z0, fwd).final_state
        back = denoise(field, zT, fwd.reversed()).final_state
        errs[n] = np.linalg.norm(back - z0)
    assert errs[400] < 5e-3
    assert 3.0 < errs[100] / errs[400] < 5.0


def test_direction_guards():
    field = _gaussian_null_field()
    fwd = make_time_grid(10, 0.0, 1.0)
    with pytest.raises(ValueError):
        rf_invert(field, np.zeros(2), fwd.reversed())
    with pytest.raises(ValueError):
        denoise(field, np.zeros(2), fwd)


def test_codec_accepts_scalar_scale_and_offset():
    codec = LatentCodec(2.0, -1.0)
    assert codec.dim == 1
    assert np.array_equal(codec.scale, [2.0]) and np.array_equal(codec.offset, [-1.0])
    assert np.array_equal(codec.encode(np.array([3.0])), [2.0])
    assert np.array_equal(codec.decode(np.array([2.0])), [3.0])


@pytest.mark.parametrize("column", ["transport_norms", "weights"])
def test_trajectory_rejects_misshaped_column(column):
    traj = integrate(lambda z, t: -z, np.zeros(2), make_time_grid(3, 1.0, 0.0))
    with pytest.raises(ValueError, match=rf"^{column} must have shape \(4,\) or \(4,\)$"):
        replace(traj, **{column: np.zeros(3)})


def _workload_registries():
    # The verify workload's two 8-D Gaussians (means unjittered), and a
    # 64-point set in 8-D beside a Gaussian.
    d = 8
    cov = np.full((d, d), 0.05) + 0.25 * np.eye(d)
    mean_a, mean_b = np.zeros(d), np.zeros(d)
    mean_a[0], mean_b[:2] = -1.5, (1.5, 0.5)
    gaussians = FieldRegistry().add_gaussian("a", mean_a, cov).add_gaussian("b", mean_b, cov)
    rng = np.random.default_rng(44)
    points = FieldRegistry().add_gaussian("a", mean_a, cov).add_points(
        "b", mean_b + 0.5 * rng.standard_normal((64, d)))
    return {"gaussians": gaussians, "points": points}


def _walk_times(grids):
    return {t for grid in grids for t in grid.points[:-1].tolist()}


@pytest.mark.parametrize("registry", ["gaussians", "points"])
@pytest.mark.parametrize("clip_tau", [0.05, 10.0])
@pytest.mark.parametrize("beta0", [0.0, 0.3])
@pytest.mark.parametrize("counts", [(10, 20, 40, 80), (3, 7, 10)], ids=["nested", "not-nested"])
def test_integrate_finals_equals_each_runs_integrate_final(counts, beta0, clip_tau, registry):
    # Runs walked together under one velocity share its call at each time
    # their grids share, on their stacked rows, so the call count is the
    # number of distinct times; every field and transport row is
    # batch-invariant, so each run's final state is its own integrate_final
    # bit for bit.  At clip_tau 0.05 the clip is active at every guided step.
    reg = _workload_registries()[registry]
    field = make_velocity(reg, Condition.dataset("b"), GuidanceScales(w=2.0))
    rng = np.random.default_rng(45)
    z_init, z_target = rng.standard_normal(8), rng.standard_normal(8)
    enhanced = make_enhanced(field, z_target, TransportConfig(beta0=beta0, clip_tau=clip_tau))
    grids = [make_time_grid(n, 1.0, 0.0) for n in counts]
    rows = []

    def counted(z, t):
        rows.append(np.shape(z))
        return enhanced(z, t)

    finals = integrate_finals([counted] * len(grids), [z_init] * len(grids), grids)
    assert len(rows) == len(_walk_times(grids))
    assert rows[0] == (len(counts), 8)
    if counts == (10, 20, 40, 80):
        assert len(rows) == 80 and sum(r[0] if len(r) == 2 else 1 for r in rows) == 150
    for final, grid in zip(finals, grids):
        assert np.array_equal(final, integrate_final(enhanced, z_init, grid))


def test_integrate_finals_stacks_batches_of_any_size():
    # Runs of (3, 4), (1, 4) and (4,) states over forward grids: each gets
    # its own rows of every shared call back, in its own shape.
    grids = [make_time_grid(n, 0.1, 0.9) for n in (4, 8, 2)]
    rng = np.random.default_rng(46)
    z0s = [rng.standard_normal(s) for s in ((3, 4), (1, 4), (4,))]
    finals = integrate_finals([_curved_field] * 3, z0s, grids)
    for final, z0, grid in zip(finals, z0s, grids):
        assert final.shape == z0.shape
        assert np.array_equal(final, integrate_final(_curved_field, z0, grid))


def test_integrate_finals_rejects_grids_of_two_directions():
    with pytest.raises(ValueError, match="share a direction"):
        integrate_finals([_curved_field] * 2, [np.ones(2)] * 2,
                         [make_time_grid(4, 1.0, 0.0), make_time_grid(4, 0.0, 1.0)])


@pytest.mark.parametrize("counts", [(28, 28, 28), (10, 20, 40)], ids=["one-grid", "nested"])
def test_integrate_finals_calls_different_velocities_in_turn(counts):
    # Runs under different velocities, here one binding under three transport
    # strengths, make one call each at every time of their grids, one run
    # after another, before any call at the next time; each run's final
    # state is its own integrate_final bit for bit.
    reg = _workload_registries()["gaussians"]
    field = make_velocity(reg, Condition.dataset("b"), GuidanceScales(w=2.0))
    rng = np.random.default_rng(47)
    z0, z_target = rng.standard_normal((5, 8)), rng.standard_normal(8)
    calls = []
    velocities = []
    for i, beta0 in enumerate((0.0, 0.3, 0.6)):
        enhanced = make_enhanced(field, z_target, TransportConfig(beta0=beta0, clip_tau=1.0))
        velocities.append(lambda z, t, i=i, v=enhanced: calls.append((t, i)) or v(z, t))
    grids = [make_time_grid(n, 1.0, 0.0) for n in counts]
    finals = integrate_finals(velocities, [z0] * 3, grids)
    want = [(t, i) for t in sorted(_walk_times(grids), reverse=True)
            for i, grid in enumerate(grids) if t in grid.points[:-1].tolist()]
    assert calls == want
    for final, velocity, grid in zip(finals, velocities, grids):
        assert np.array_equal(final, integrate_final(velocity, z0, grid))


def test_integrate_final_holds_no_record_per_step():
    # integrate_final keeps only the state: the walk holds each run's next
    # step, so a 10^5-step run's traced peak stays under 1 MB, where a
    # record per step would take about 25 MB.
    import tracemalloc

    grid = make_time_grid(10 ** 5, 1.0, 0.0)
    v = np.ones(2)
    tracemalloc.start()
    try:
        final = integrate_final(lambda z, t: v, np.zeros(2), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(final, -1.0)
    assert peak < 2 ** 20, peak


def _poisoned_at(poison):
    # A row-wise field on (x, id) states: id, the run's tag, never moves,
    # and at time t the velocity of run id is NaN (poison[id] = (t,
    # "velocity")) or -1.7e308 (t, "state"), which steps a 20-step run's
    # state of 1.75e308 past the largest double.
    def field(z, t):
        v = np.stack([np.sin(z[..., 0]) * (0.5 + t) + np.cos(t), np.zeros(z.shape[:-1])], axis=-1)
        rows = v.reshape(-1, 2)
        for i, tag in enumerate(np.reshape(z, (-1, 2))[:, 1]):
            at, term = poison.get(int(tag), (None, None))
            if t == at:
                rows[i, 0] = np.nan if term == "velocity" else -1.7e308
        return v
    return field


@pytest.mark.parametrize("poison", [
    {3: (0.5, "velocity")},  # at a time run 0 shares
    {3: (0.5, "velocity"), 0: (make_time_grid(10, 1.0, 0.0).points[8], "velocity")},
    {1: (0.75, "state"), 2: (0.5, "velocity")},
], ids=["one", "earlier-run-later", "state-term"])
def test_integrate_finals_keeps_each_runs_abort(poison):
    # A failed run leaves the walk with the abort its integrate_final
    # raises (message, t, step, term); the other runs go on, bit for bit.
    grids = [make_time_grid(n, 1.0, 0.0) for n in (10, 20, 40, 80)]
    z0s = [np.array([1.75e308 if poison.get(i, (0, ""))[1] == "state" else 0.3, i])
           for i in range(4)]
    field = _poisoned_at(poison)
    with np.errstate(over="ignore"):
        finals = integrate_finals([field] * 4, z0s, grids)
        for i, (final, z0, grid) in enumerate(zip(finals, z0s, grids)):
            if i not in poison:
                assert np.array_equal(final, integrate_final(field, z0, grid))
                continue
            with pytest.raises(NumericalAbort) as err:
                integrate_final(field, z0, grid)
            want = err.value
            assert isinstance(final, NumericalAbort)
            assert ((str(final), final.t, final.step, final.term)
                    == (str(want), want.t, want.step, want.term))
            assert (final.t, final.term) == poison[i]
