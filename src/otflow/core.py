"""Core rectified-flow machinery: time grids, Euler stepping, noising, codecs.

Time convention: t = 0 is data, t = 1 is noise.  States evolve on the
straight-line interpolation path

    z_t = (1 - t) * z0 + t * eps,

and velocities follow the forward process, dz/dt = eps - x0.  Denoising
therefore integrates with a negative signed step (z_{t-dt} = z_t - dt * v)
and inversion with a positive one; both fall out of z + (t_next - t_now) * v
along a monotone time grid, so a single integrator serves both directions.

One step kernel, one record layout: every Euler loop in the package steps
and checks its state through _euler_update, locating a failure by the step's
t, grid index and term.  euler_step raises it (integrate, integrate_final);
the row kernels _step_rows and _decode_rows only record it (_fail_rows): a
failed row keeps its first NumericalAbort in the caller's aborts and goes NaN.
The kernel first tests the whole new state for finiteness in one pass: a
non-finite velocity entry always makes its state entry non-finite, so a
sound step costs that one test, and the per-row masks, which name the failed
rows and report a velocity term before a state term, are formed only when it
fails.

One Euler loop, _euler_steps, drives every integration in this module.  It
walks one run or several, each under its own velocity, through the union of
their grids' times: the runs due at a time under one velocity share its call
on their stacked rows, runs under different velocities call theirs in turn,
and each steps by euler_step with its own step and index.  integrate writes
its one run's Trajectory into the (n + 1, ...) arrays of _records;
integrate_final walks the same one run and keeps only the last state, for
callers that read nothing else (generate); and integrate_finals walks
several runs at once (the discretization check's Euler runs, under one
velocity, and the verify arms, under one each), which is exact because
every field row and transport row of the package is batch-invariant, so a
run's bits do not depend on the rows beside it.
"""

import operator
from dataclasses import dataclass, field

import numpy as np


class NumericalAbort(RuntimeError):
    """A trajectory produced a non-finite state or velocity.

    Carries where the run was aborted, each None where unknown: the
    integration time t, the index of the step on its grid, and the term that
    went non-finite: "velocity", "state" (the Euler-stepped state), "decode"
    (the decoded output), or a verify arm's "mse" or "displacement".
    """

    def __init__(self, message, t=None, step=None, term=None):
        super().__init__(message)
        self.t = t
        self.step = step
        self.term = term


def _seed_sequence(*key):
    """np.random.SeedSequence(list(key)), given its entropy as numpy builds
    it from a list of nonnegative ints: each int's little-endian 32-bit
    words, 0 being one word, in one uint32 array.  numpy still does all the
    mixing; only its per-int conversion, done in Python, is skipped.  A
    negative entry raises ValueError and a non-integer TypeError, as numpy
    does."""
    words = []
    for k in key:
        k = operator.index(k)
        if k < 0:
            raise ValueError("expected non-negative integer")
        while True:
            words.append(k & 0xFFFFFFFF)
            k >>= 32
            if not k:
                break
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def make_rng(*key):
    """The package's one generator family, PCG64 under SeedSequence(key)
    (from _seed_sequence): equal keys give identical streams across runs
    and platforms, and make_rng(s) draws as SeedSequence(s) does."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(*key)))


def _overflow_safe(norm, v):
    """norm(v, 1.0), a function of each row of v (its last axis) that can
    overflow to inf on a row whose entries are all finite; those rows alone
    are recomputed as m * norm(v / m, m), m = max|v| over the row, with no
    overflow warning for them."""
    with np.errstate(over="ignore"):
        n = norm(v, 1.0)
    if not np.isinf(n).any():
        return n
    m = np.abs(v).max(axis=-1, keepdims=True)
    with np.errstate(all="ignore"):
        scaled = m[..., 0] * norm(v / m, m[..., 0])
    # A row with a non-finite entry rescales to NaN and keeps its inf.
    return np.where(np.isinf(n) & ~np.isnan(scaled), scaled, n)


def _as_state(x, name="state"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with n_steps + 1 points from t_start to t_end."""

    n_steps: int
    t_start: float
    t_end: float
    points: np.ndarray = field(repr=False)

    @property
    def direction(self):
        """'forward' if time increases along the grid, else 'reverse'."""
        return "forward" if self.t_end > self.t_start else "reverse"

    @property
    def dt(self):
        return abs(self.t_end - self.t_start) / self.n_steps

    def reversed(self):
        """The same grid traversed in the opposite direction."""
        return TimeGrid(self.n_steps, self.t_end, self.t_start, self.points[::-1].copy())


def make_time_grid(n_steps, t_start, t_end):
    """Build a uniform TimeGrid.

    Args:
        n_steps: number of integration steps (>= 1); the grid has n_steps + 1 points.
        t_start: first grid time, in [0, 1].
        t_end: last grid time, in [0, 1]; must differ from t_start by enough
            that every step is nonzero and finite.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    for name, t in (("t_start", t_start), ("t_end", t_end)):
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {t}")
    if t_start == t_end:
        raise ValueError("t_start and t_end must differ")
    points = np.linspace(float(t_start), float(t_end), n_steps + 1)
    steps = np.diff(points)
    if not (np.isfinite(steps).all() and steps.all()):
        raise ValueError(f"t_start {t_start} and t_end {t_end} give a zero or non-finite "
                         f"step over {n_steps} steps")
    return TimeGrid(int(n_steps), float(t_start), float(t_end), points)


def _euler_update(z, v, signed_step):
    """z + signed_step * v, and per-row masks over the last axis: velocity
    non-finite, and velocity or new state non-finite; both masks are None
    when every entry of the new state is finite.

    A non-finite velocity entry makes its state entry non-finite (the step
    is finite and nonzero), so one test over the whole new state clears a
    sound step, and the masks are formed only when it fails."""
    z_next = z + signed_step * v
    if np.isfinite(z_next).all():
        return z_next, None, None
    axis = -1 if np.ndim(v) else None
    bad_v = ~np.isfinite(v).all(axis=axis)
    return z_next, bad_v, bad_v | ~np.isfinite(z_next).all(axis=axis)


def _abort(bad_v, t, step):
    """The NumericalAbort of a failed step; the velocity term is reported
    before the state term."""
    if bad_v:
        return NumericalAbort(f"velocity non-finite at t={t}", t=t, step=step, term="velocity")
    return NumericalAbort("euler_step produced a non-finite state", t=t, step=step, term="state")


def euler_step(z, v, signed_step, t=None, step=None):
    """One explicit Euler step: z + signed_step * v.

    The step sign carries the integration direction; grids hand the integrator
    t_next - t_now, so denoising (t decreasing) subtracts dt * v automatically.
    A non-finite velocity or new state raises NumericalAbort located at the
    given time t and grid index step.
    """
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if z.shape != v.shape:
        raise ValueError(f"state shape {z.shape} != velocity shape {v.shape}")
    if not np.isfinite(signed_step) or signed_step == 0.0:
        raise ValueError(f"signed_step must be finite and nonzero, got {signed_step}")
    z_next, bad_v, _ = _euler_update(z, v, signed_step)
    if bad_v is not None:
        raise _abort(bad_v.any(), t, step)
    return z_next


def _fail_rows(out, bad, aborts, abort):
    """out with its rows flagged in bad set to NaN; a flagged row i without
    an abort yet gets abort(i), so each row keeps its first, located one."""
    for i in np.flatnonzero(bad):
        if aborts[i] is None:
            aborts[i] = abort(i)
    out[bad] = np.nan
    return out


def _step_rows(z, v, dt, t, k, aborts):
    """Euler-step a (B, d) batch of independent rows.  A row whose velocity
    or new state is non-finite fails (_fail_rows), and stays in the batch."""
    z_next, bad_v, bad = _euler_update(z, v, dt)
    if bad is None:
        return z_next
    return _fail_rows(z_next, bad, aborts, lambda i: _abort(bad_v[i], t, k))


def _decode_rows(codec, z, grid, aborts):
    """codec.decode of a reverse loop's (B, d) final states z over grid, with
    no overflow warning.  A row without an abort is finite, so a row whose
    output is not is the codec's overflow, and fails (_fail_rows) in the
    decode term at the grid's end, as generate's cloud does."""
    with np.errstate(over="ignore"):
        output = codec.decode(z)
    t, step = grid.t_end, grid.n_steps
    return _fail_rows(output, ~np.isfinite(output).all(axis=1), aborts, lambda i: NumericalAbort(
        f"decoded output is non-finite at t={t}", t=t, step=step, term="decode"))


def forward_noising(z0, t, eps):
    """Interpolate toward noise: (1 - t) * z0 + t * eps.

    z0 and eps broadcast, so one (d,) state can be noised against a (k, d)
    block of draws; their last dimensions must agree.
    """
    z0 = np.asarray(z0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if z0.shape[-1:] != eps.shape[-1:]:
        raise ValueError(f"z0 shape {z0.shape} != eps shape {eps.shape}")
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return (1.0 - t) * z0 + t * eps


@dataclass(frozen=True)
class LatentCodec:
    """Invertible elementwise affine map between data space and latent space.

    encode(x) = (x - offset) / scale, decode(z) = z * scale + offset.
    """

    scale: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        scale = _as_state(self.scale, "scale")
        offset = _as_state(self.offset, "offset")
        if scale.shape != offset.shape:
            raise ValueError("scale and offset must have the same shape")
        # encode divides by scale, so 1 / scale must be finite too (a zero or
        # subnormal entry gives inf).
        with np.errstate(divide="ignore", over="ignore"):
            if not np.all(np.isfinite(1.0 / scale)):
                raise ValueError("codec scale entries must be nonzero with a finite reciprocal")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "offset", offset)

    @classmethod
    def identity(cls, dim):
        return cls(np.ones(dim), np.zeros(dim))

    @property
    def dim(self):
        return self.scale.shape[0]

    def encode(self, x):
        return (np.asarray(x, dtype=float) - self.offset) / self.scale

    def decode(self, z):
        return np.asarray(z, dtype=float) * self.scale + self.offset


@dataclass(frozen=True)
class Trajectory:
    """An integrated path: one record per grid point.

    Record k holds the state at times[k] and the velocity applied to step from
    times[k] to times[k+1]; the final record carries zero velocity.  The
    transport_norms/weights columns are zero for plain (unguided) runs.  For a
    batch of B states they hold one value per record, or one per record and
    row, (n, B), when each row has its own transport weight.
    """

    times: np.ndarray
    states: np.ndarray
    velocities: np.ndarray
    transport_norms: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("states", "velocities"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} must have one row per grid point")
        for name in ("transport_norms", "weights"):
            if getattr(self, name).shape not in ((n,), self.states.shape[:-1]):
                raise ValueError(f"{name} must have shape ({n},) or {self.states.shape[:-1]}")

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def dim(self):
        return self.states.shape[-1]


def _records(n_steps, shape, row_shape=()):
    """Trajectory columns for n_steps + 1 records: states NaN until written,
    velocities and the row_shape norms and weights 0 (as the last record)."""
    states = np.full((n_steps + 1,) + shape, np.nan)
    norms = np.zeros((n_steps + 1,) + row_shape)
    return states, np.zeros_like(states), norms, np.zeros_like(norms)


def _stacked_velocity(velocity, states, t):
    """velocity at t of several runs' states as one call on their stacked
    rows, split back into one array per state, each of its state's shape."""
    rows = [z.reshape(-1, z.shape[-1]) for z in states]
    v = np.asarray(velocity(np.concatenate(rows), t), dtype=float)
    parts = np.split(v, np.cumsum([len(r) for r in rows[:-1]]))
    return [part.reshape(z.shape) for part, z in zip(parts, states)]


def _euler_steps(velocities, zs, grids, aborts=None):
    """The one Euler loop: walks run i from state zs[i] under velocities[i]
    over grids[i], the grids all running one way, through the union of their
    times, holding only each run's next step, not a record per step.  At
    each time the runs whose next grid point it is share one call per
    velocity (a lone run's on its own state, several on their stacked rows),
    the velocities in run order, and each run steps through euler_step with
    its own step and grid index.  Yields (i, k, v, z): run i's step k, the
    velocity applied at grids[i].points[k] and the new state.  A failed step
    raises its NumericalAbort or, given the list aborts, is kept at
    aborts[i], and run i leaves the walk."""
    directions = {grid.direction for grid in grids}
    if len(directions) > 1:
        raise ValueError("runs walked together must share a direction")
    first = max if "reverse" in directions else min
    zs, ks = list(zs), [0] * len(grids)
    while True:
        # ks[i] is run i's next step; the walk's next time is the first of
        # the live runs' next grid points.
        live = [i for i, grid in enumerate(grids)
                if ks[i] < grid.n_steps and (aborts is None or aborts[i] is None)]
        if not live:
            return
        t = first(float(grids[i].points[ks[i]]) for i in live)
        groups = {}
        for i in live:
            if grids[i].points[ks[i]] == t:
                groups.setdefault(id(velocities[i]), []).append((i, ks[i]))
                ks[i] += 1
        for group in groups.values():
            velocity = velocities[group[0][0]]
            if len(group) == 1:
                vs = [np.asarray(velocity(zs[group[0][0]], t), dtype=float)]
            else:
                vs = _stacked_velocity(velocity, [zs[i] for i, _ in group], t)
            for (i, k), v in zip(group, vs):
                pts = grids[i].points
                try:
                    zs[i] = euler_step(zs[i], v, float(pts[k + 1] - pts[k]), t, k)
                except NumericalAbort as abort:
                    if aborts is None:
                        raise
                    aborts[i] = abort
                    continue
                yield i, k, v, zs[i]


def integrate(velocity, z0, grid):
    """Explicit Euler integration of dz/dt = velocity(z, t) along a grid.

    Args:
        velocity: callable (state, time) -> velocity, forward-process convention.
        z0: initial state at grid.points[0]; shape (d,) or (batch, d).
        grid: TimeGrid; the signed per-step difference sets the direction.

    Returns:
        Trajectory with n_steps + 1 records.
    """
    z = _as_state(z0)
    states, velocities, norms, weights = _records(grid.n_steps, z.shape)
    states[0] = z
    for _, k, v, z in _euler_steps([velocity], [z], [grid]):
        velocities[k] = v
        states[k + 1] = z
    return Trajectory(grid.points.copy(), states, velocities, norms, weights)


def integrate_final(velocity, z0, grid):
    """The state after the last step of integrate(velocity, z0, grid), bit
    for bit, with nothing recorded; a non-finite step raises the same
    NumericalAbort.  It is the one-run walk of the Euler loop that
    integrate and integrate_finals share (_euler_steps)."""
    z = _as_state(z0)
    for *_, z in _euler_steps([velocity], [z], [grid]):
        pass
    return z


def integrate_finals(velocities, z0s, grids):
    """[integrate_final(velocities[i], z0s[i], grids[i]) for each run i] in
    one walk of the Euler loop (_euler_steps): runs due at the same time
    under the same velocity share its call as stacked rows, and runs under
    different velocities call theirs one after another at that time.  Bit
    for bit those separate runs when each velocity's rows are
    batch-invariant, as every field and transport correction in the package
    is.  A run whose step fails leaves the walk, and its entry is the
    NumericalAbort integrate_final would raise, in place of a state; the
    other runs go on."""
    zs = [_as_state(z0) for z0 in z0s]
    aborts = [None] * len(zs)
    for i, _, _, z in _euler_steps(velocities, zs, grids, aborts):
        zs[i] = z
    return [z if abort is None else abort for z, abort in zip(zs, aborts)]


def rf_invert(velocity, z0, grid):
    """Integrate a data-side state forward to the noise side (inversion).

    The grid must run forward (t increasing); the final record approximates
    the noise-side latent z_T for the standard rectified-flow inversion.
    """
    if grid.direction != "forward":
        raise ValueError("rf_invert requires a forward grid (t increasing)")
    return integrate(velocity, z0, grid)


def denoise(velocity, z_start, grid):
    """Integrate a noise-side state back to the data side (plain denoising)."""
    if grid.direction != "reverse":
        raise ValueError("denoise requires a reverse grid (t decreasing)")
    return integrate(velocity, z_start, grid)
