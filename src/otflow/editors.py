"""The two editing procedures built on the flow core.

Both are reverse-time loops over a shared sign convention: every update is
z <- z + (t_next - t_now) * v_enh with t decreasing, so zeroing the guidance
knobs reduces each loop bit-exactly to the plain pipeline it extends.

transport_guided_inversion_edit  invert the source to noise with the pooled
    (unconditional) field, then denoise under the target condition with a
    reference-pulling controller plus the transport correction anchored on
    the encoded target state (on the reverse step it moves the state away
    from that anchor).  It takes one (d,) source or a (B, d) batch with a
    (B,) transport strength, so a sweep over beta0 is one call.
transport_enhanced_flowedit      evolve a coupled edit trajectory directly
    from the source: per step, noise the source, form the coupled target
    state, step along the conditional velocity difference plus a transport
    term that contracts the state toward the source latent; optionally hand
    the tail of the schedule to plain denoising of the coupled state.

Both editors get the correction from transport.enhance_velocity and record a
step's transport_norm and weight as 0 whenever its weight is zero.  Every
loop here steps through core's one Euler kernel (euler_step for one state,
core._LiveRows for the inversion editor's rows), so a non-finite velocity or
state aborts with the step's t, grid index and term, and writes its
trajectory into arrays preallocated by core._records.

baseline_flowedit is the unmodified difference-velocity pipeline, kept as a
separate loop so equivalence tests compare two implementations rather than
one code path against itself.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import Trajectory, _LiveRows, _records, euler_step, forward_noising
from .fields import Condition, cfg_blend, conditional_linear_velocity, make_velocity
from .metrics import l2_distance
from .transport import enhance_velocity


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed pinned to one generator family (PCG64 under SeedSequence),
    so equal seeds give identical noise streams across runs and platforms."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError(f"seed must be a nonnegative integer below 2**64, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    def generator(self):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))


@dataclass(frozen=True)
class EditSummary:
    """reconstruction_l2 compares the decoded output with the source input;
    displacement_l2 is the latent-space distance from the encoded source;
    transport_work is sum(weight * ||clipped direction|| * dt) over steps."""

    reconstruction_l2: float
    displacement_l2: float
    transport_work: float


@dataclass(frozen=True)
class EditResult:
    """What an editor returns.  A batched inversion edit holds (B, d) outputs
    and two per-row tuples: summary, None for a row that failed, and aborts,
    the row's NumericalAbort or None."""

    output: np.ndarray
    trajectory: object
    summary: EditSummary
    aborts: tuple = ()


@dataclass(frozen=True)
class InversionEditConfig:
    """Knobs for the inversion-based editor.

    eta blends the target-conditional velocity toward the reference-pulling
    field and is active only for t inside eta_window = (t_hi, t_lo); the
    transport term carries its own window inside transport.
    """

    eta: float
    transport: object
    grid: object
    condition_target: object
    scales: object
    eta_window: tuple = (1.0, 0.0)

    def __post_init__(self):
        check_eta(self.eta)
        hi, lo = self.eta_window
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"eta_window must satisfy 0 <= t_lo <= t_hi <= 1, got {self.eta_window}")
        if self.grid.direction != "reverse":
            raise ValueError("inversion editing needs a reverse grid (t decreasing)")


@dataclass(frozen=True)
class FlowEditConfig:
    """Knobs for the coupled-trajectory editor.

    Step indices count down from n_steps: indices above n_max are skipped
    (state untouched), indices at or below n_min run as plain denoising of
    the coupled state.  n_avg is the number of noise draws averaged into
    each difference-velocity estimate.  scales.w_src / scales.w_tar are the
    per-branch guidance weights.
    """

    transport: object
    grid: object
    cond_src: object
    cond_tar: object
    scales: object
    seed: RngSeed
    n_avg: int = 1
    n_max: int = None
    n_min: int = 0

    def __post_init__(self):
        if isinstance(self.seed, (int, np.integer)):
            object.__setattr__(self, "seed", RngSeed(int(self.seed)))
        if self.grid.direction != "reverse":
            raise ValueError("flowedit needs a reverse grid (t decreasing)")
        if self.n_max is None:
            object.__setattr__(self, "n_max", self.grid.n_steps)
        if not (isinstance(self.n_avg, (int, np.integer)) and self.n_avg >= 1):
            raise ValueError(f"n_avg must be a positive integer, got {self.n_avg!r}")
        if not 0 <= self.n_min <= self.n_max <= self.grid.n_steps:
            raise ValueError(
                f"need 0 <= n_min <= n_max <= n_steps, got n_min={self.n_min} "
                f"n_max={self.n_max} n_steps={self.grid.n_steps}")


def check_eta(eta):
    """Raise ValueError unless the controller strength eta lies in [0, 1]."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")


def controller_guided_velocity(v_tar, v_ref, eta):
    """Blend the target-conditional velocity toward the reference field.

    Returns v_tar + eta * (v_ref - v_tar); the endpoints pass the inputs
    through untouched so guidance-off runs stay bit-identical.
    """
    check_eta(eta)
    return cfg_blend(v_tar, v_ref, eta)


def transport_guided_inversion_edit(cfg, registry, codec, x0, x_target=None, beta0=None):
    """Invert source inputs to noise, then denoise with controller guidance
    and the transport correction anchored on the encoded targets.

    The correction is added in the forward-velocity convention, so on each
    reverse step it moves the state along z - z_target, away from the anchor.

    x0 is one source (d,) or a batch (B, d).  x_target, (d,) or (B, d),
    defaults to x0: anchoring transport on the source preserves its content
    while the condition steers semantics.  beta0 is a (B,) per-row transport
    strength, by default cfg.transport.beta0 for every row; schedule, window
    and clipping are shared, so row i's weight is beta0[i] * S(s).

    Every kernel the loop calls is batch-invariant, so each row's output,
    trajectory and summary equal its own single-state call bit for bit.
    Velocity and state are checked per row at every step of both phases:
    a single state raises NumericalAbort; in a batch the row leaves, its
    abort goes to aborts, its output is NaN, its summary None and its
    recorded states NaN after the failing step.

    The returned trajectory covers the reverse (editing) phase; the forward
    inversion feeds it.  For a batch its states and velocities are
    (n + 1, B, d), its transport_norms and weights (n + 1, B), and summary
    is a tuple with one EditSummary per row.
    """
    x0 = np.asarray(x0, dtype=float)
    single = x0.ndim == 1
    xb = np.atleast_2d(x0)
    n_rows, dim = xb.shape
    z0 = codec.encode(xb)
    if not np.all(np.isfinite(z0)):
        raise ValueError("state contains non-finite entries")
    z_target = z0 if x_target is None else codec.encode(np.broadcast_to(x_target, xb.shape))
    beta0 = np.full(n_rows, float(cfg.transport.beta0)) if beta0 is None \
        else np.asarray(beta0, dtype=float)
    if beta0.shape != (n_rows,) or not np.all(np.isfinite(beta0) & (beta0 >= 0.0)):
        raise ValueError(f"beta0 must be {n_rows} finite values >= 0")
    rows = _LiveRows(n_rows, single)

    null_field = make_velocity(registry, Condition.null(), cfg.scales)
    inv = cfg.grid.points[::-1]
    n = cfg.grid.n_steps
    z = z0
    for k in range(n):
        t = float(inv[k])
        z = rows.step(z, null_field(z, t), float(inv[k + 1] - inv[k]), t, k)

    target_field = make_velocity(registry, cfg.condition_target, cfg.scales)
    t_hi, t_lo = cfg.eta_window
    pts = cfg.grid.points
    states, velocities, norms, weights = _records(n, (n_rows, dim), (n_rows,))
    work = np.zeros(n_rows)
    states[0, rows.idx] = z
    for k in range(n):
        t = float(pts[k])
        dt = float(pts[k + 1] - pts[k])
        live = rows.idx
        v_tar = target_field(z, t)
        v_ref = conditional_linear_velocity(z0[live], z, t, registry.t_floor)
        eta_eff = cfg.eta if t_lo <= t <= t_hi else 0.0
        v_rf = controller_guided_velocity(v_tar, v_ref, eta_eff)
        v_enh, weight, raw_norm = enhance_velocity(v_rf, z, z_target[live], t, cfg.transport,
                                                   beta0[live])
        velocities[k, live] = v_enh
        norms[k, live] = raw_norm
        weights[k, live] = weight
        work[live] += weight * np.minimum(raw_norm, cfg.transport.clip_tau) * abs(dt)
        z = rows.step(z, v_enh, dt, t, k)
        states[k + 1, rows.idx] = z

    output = np.full((n_rows, dim), np.nan)
    output[rows.idx] = codec.decode(z)
    summary = tuple(None if abort is not None else EditSummary(
        reconstruction_l2=l2_distance(output[i], xb[i]),
        displacement_l2=l2_distance(states[n, i], z0[i]),
        transport_work=float(work[i]),
    ) for i, abort in enumerate(rows.aborts))
    meta = {"algorithm": "invert_edit"}
    if single:
        trajectory = Trajectory(pts.copy(), states[:, 0], velocities[:, 0], norms[:, 0],
                                weights[:, 0], meta)
        return EditResult(output=output[0], trajectory=trajectory, summary=summary[0])
    trajectory = Trajectory(pts.copy(), states, velocities, norms, weights, meta)
    return EditResult(output=output, trajectory=trajectory, summary=summary,
                      aborts=tuple(rows.aborts))


def _branch_fields(cfg, registry):
    src_field = make_velocity(registry, cfg.cond_src, replace(cfg.scales, w=cfg.scales.w_src))
    tar_field = make_velocity(registry, cfg.cond_tar, replace(cfg.scales, w=cfg.scales.w_tar))
    return src_field, tar_field


def transport_enhanced_flowedit(cfg, registry, codec, x0):
    """Run the coupled-trajectory editor with transport guidance.

    Per active step: draw n_avg noise samples, noise the source to t, form
    the coupled target states z_t_src + (z - z_src), average the conditional
    velocity difference over the draws (one batched call per branch), add
    the weighted clipped transport direction, and take the signed reverse
    step.  The transport direction equals (z - z_src) / max(1 - t, delta) by
    the coupling identity, so it is common to all draws, and the reverse step
    contracts the state toward z_src.  Indices above n_max leave the state
    untouched; at the first index <= n_min the state is converted once to a
    physical coupled state and the remaining steps run plain denoising under
    cond_tar.
    """
    x0 = np.asarray(x0, dtype=float)
    z_src = codec.encode(x0)
    z = z_src
    src_field, tar_field = _branch_fields(cfg, registry)
    rng = cfg.seed.generator()
    n = cfg.grid.n_steps
    pts = cfg.grid.points
    dim = z_src.shape[0]
    states, velocities, norms, weights = _records(n, z_src.shape)
    states[0] = z
    work = 0.0
    switched = False

    for j in range(n):
        t = float(pts[j])
        dt = float(pts[j + 1] - pts[j])
        k = n - j
        if k > cfg.n_max:
            states[j + 1] = z
            continue
        if k <= cfg.n_min:
            if not switched:
                eps = rng.standard_normal(dim)
                z = z + forward_noising(z_src, t, eps) - z_src
                switched = True
            v = tar_field(z, t)
            weight = raw_norm = 0.0
        else:
            draws = rng.standard_normal((cfg.n_avg, dim))
            z_t_src = forward_noising(z_src, t, draws)
            z_t_tar = z_t_src + (z - z_src)
            v_fe = (tar_field(z_t_tar, t) - src_field(z_t_src, t)).sum(axis=0) / cfg.n_avg
            v, weight, raw_norm = enhance_velocity(v_fe, z_src, z, t, cfg.transport)
        z = euler_step(z, v, dt, t, j)
        work += weight * min(raw_norm, cfg.transport.clip_tau) * abs(dt)
        velocities[j], norms[j], weights[j] = v, raw_norm, weight
        states[j + 1] = z

    output = codec.decode(z)
    summary = EditSummary(
        reconstruction_l2=l2_distance(output, x0),
        displacement_l2=l2_distance(z, z_src),
        transport_work=float(work),
    )
    meta = {"algorithm": "flowedit", "seed": cfg.seed.seed}
    trajectory = Trajectory(pts.copy(), states, velocities, norms, weights, meta)
    return EditResult(output=output, trajectory=trajectory, summary=summary)


def baseline_flowedit(cfg, registry, codec, x0):
    """The unmodified difference-velocity pipeline (no transport term).

    Kept as an independent loop with the same noise-draw discipline, so tests
    can require the guided editor at zero strength to match it bit-for-bit.
    """
    x0 = np.asarray(x0, dtype=float)
    z_src = codec.encode(x0)
    z = z_src
    src_field, tar_field = _branch_fields(cfg, registry)
    rng = cfg.seed.generator()
    n = cfg.grid.n_steps
    pts = cfg.grid.points
    dim = z_src.shape[0]
    states, velocities, norms, weights = _records(n, z_src.shape)
    states[0] = z
    switched = False

    for j in range(n):
        t = float(pts[j])
        dt = float(pts[j + 1] - pts[j])
        k = n - j
        if k > cfg.n_max:
            states[j + 1] = z
            continue
        if k <= cfg.n_min:
            if not switched:
                eps = rng.standard_normal(dim)
                z = z + forward_noising(z_src, t, eps) - z_src
                switched = True
            v = tar_field(z, t)
        else:
            draws = rng.standard_normal((cfg.n_avg, dim))
            z_t_src = forward_noising(z_src, t, draws)
            z_t_tar = z_t_src + (z - z_src)
            v = (tar_field(z_t_tar, t) - src_field(z_t_src, t)).sum(axis=0) / cfg.n_avg
        z = euler_step(z, v, dt, t, j)
        velocities[j] = v
        states[j + 1] = z

    output = codec.decode(z)
    summary = EditSummary(
        reconstruction_l2=l2_distance(output, x0),
        displacement_l2=l2_distance(z, z_src),
        transport_work=0.0,
    )
    meta = {"algorithm": "flowedit_baseline", "seed": cfg.seed.seed}
    trajectory = Trajectory(pts.copy(), states, velocities, norms, weights, meta)
    return EditResult(output=output, trajectory=trajectory, summary=summary)
