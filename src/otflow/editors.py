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
    the tail of the schedule to plain denoising of the coupled state.  It
    takes one (d,) source or a (B, d) batch with a (B,) transport strength
    and B noise seeds, so a sweep group is one call.

Both editors hand a per-step velocity, with its transport weight and norm
from transport.enhance_velocity (0 whenever the weight is zero), to one
reverse loop over (B, d) rows, a single state being the B = 1 case.  It
records into arrays preallocated by core._records, sums transport work, and
steps and decodes through core's row kernels _step_rows and _decode_rows,
which only record: a row whose velocity, state or decoded output goes
non-finite keeps its first NumericalAbort, located by t, step and term, and
runs on as NaN.  A single-state call raises that abort after decoding; a
batch returns each row's in EditResult.aborts.

baseline_flowedit is the unmodified difference-velocity pipeline, kept as a
separate loop (stepping through euler_step, which raises at once) so
equivalence tests compare two implementations rather than one code path
against itself.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import (Trajectory, _decode_rows, _records, _step_rows, euler_step, forward_noising,
                   make_rng)
from .fields import Condition, cfg_blend, conditional_linear_velocity, make_velocity
from .metrics import _row_l2, l2_distance
from .transport import enhance_velocity


@dataclass(frozen=True)
class RngSeed:
    """A 64-bit seed for core.make_rng, the one generator family, so equal
    seeds give identical noise streams across runs and platforms."""

    seed: int

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2 ** 64:
            raise ValueError(f"seed must be a nonnegative integer below 2**64, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    def generator(self):
        return make_rng(self.seed)


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
    """What an editor returns.  A batched edit holds (B, d) outputs, NaN for
    a failed row, and two per-row tuples: summary, None for a failed row,
    and aborts, the row's NumericalAbort or None."""

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
        for name in ("n_max", "n_min"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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


def _source_rows(codec, x0, beta0, transport):
    # Both editors' batch: (single, xb, z0, beta0, aborts), whether x0 is one
    # (d,) state, its (B, d) rows, their encoded states (finite), the (B,)
    # transport strengths (transport.beta0 by default) and empty aborts.
    x0 = np.asarray(x0, dtype=float)
    xb = np.atleast_2d(x0)
    z0 = codec.encode(xb)
    if not np.all(np.isfinite(z0)):
        raise ValueError("state contains non-finite entries")
    n_rows = len(xb)
    beta0 = np.full(n_rows, float(transport.beta0)) if beta0 is None \
        else np.asarray(beta0, dtype=float)
    if beta0.shape != (n_rows,) or not np.all(np.isfinite(beta0) & (beta0 >= 0.0)):
        raise ValueError(f"beta0 must be {n_rows} finite values >= 0")
    return x0.ndim == 1, xb, z0, beta0, [None] * n_rows


def _edit_loop(cfg, codec, source, z, step, meta):
    # Both editors' reverse loop over cfg.grid from the (B, d) state z:
    # step(k, t, z) gives the state to step from, its velocity v and the
    # transport weight and raw_norm; a row's work sums weight * min(raw_norm,
    # clip_tau) * |dt|.  All rows are summarised against their sources at
    # once, a failed row getting None; a single state returns its row alone,
    # or raises its abort.
    single, xb, z0, _, aborts = source
    pts = cfg.grid.points
    states, velocities, norms, weights = records = _records(cfg.grid.n_steps, z.shape, z.shape[:1])
    work = np.zeros(len(z))
    states[0] = z
    for k in range(cfg.grid.n_steps):
        t = float(pts[k])
        dt = float(pts[k + 1] - pts[k])
        z, v, weight, raw_norm = step(k, t, z)
        velocities[k], norms[k], weights[k] = v, raw_norm, weight
        work += weight * np.minimum(raw_norm, cfg.transport.clip_tau) * abs(dt)
        z = _step_rows(z, v, dt, t, k, aborts)
        states[k + 1] = z

    output = _decode_rows(codec, z, cfg.grid, aborts)
    rows = zip(aborts, _row_l2(output - xb).tolist(), _row_l2(z - z0).tolist(), work.tolist())
    summary = tuple(None if abort is not None else EditSummary(*values)
                    for abort, *values in rows)
    if single:
        if aborts[0] is not None:
            raise aborts[0]
        trajectory = Trajectory(pts.copy(), *(column[:, 0] for column in records), meta)
        return EditResult(output=output[0], trajectory=trajectory, summary=summary[0])
    return EditResult(output=output, trajectory=Trajectory(pts.copy(), *records, meta),
                      summary=summary, aborts=tuple(aborts))


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
    Velocity and state are checked per row at every step of both phases: a
    failed row stays in the batch, its abort goes to aborts, its output is
    NaN, its summary None and its recorded states and velocities NaN after
    the failing step; a single state raises its abort after the loop.

    The returned trajectory covers the reverse (editing) phase; the forward
    inversion feeds it.  For a batch its states and velocities are
    (n + 1, B, d), its transport_norms and weights (n + 1, B), and summary
    is a tuple with one EditSummary per row.
    """
    source = _source_rows(codec, x0, beta0, cfg.transport)
    _, xb, z0, beta0, aborts = source
    z_target = z0 if x_target is None else codec.encode(np.broadcast_to(x_target, xb.shape))

    null_field = make_velocity(registry, Condition.null(), cfg.scales)
    inv = cfg.grid.points[::-1]
    z = z0
    for k in range(cfg.grid.n_steps):
        t = float(inv[k])
        z = _step_rows(z, null_field(z, t), float(inv[k + 1] - inv[k]), t, k, aborts)

    target_field = make_velocity(registry, cfg.condition_target, cfg.scales)
    t_hi, t_lo = cfg.eta_window

    def step(k, t, z):
        v_tar = target_field(z, t)
        v_ref = conditional_linear_velocity(z0, z, t)
        eta_eff = cfg.eta if t_lo <= t <= t_hi else 0.0
        v_rf = controller_guided_velocity(v_tar, v_ref, eta_eff)
        return (z, *enhance_velocity(v_rf, z, z_target, t, cfg.transport, beta0))

    return _edit_loop(cfg, codec, source, z, step, {"algorithm": "invert_edit"})


def _branch_fields(cfg, registry):
    src_field = make_velocity(registry, cfg.cond_src, replace(cfg.scales, w=cfg.scales.w_src))
    tar_field = make_velocity(registry, cfg.cond_tar, replace(cfg.scales, w=cfg.scales.w_tar))
    return src_field, tar_field


def transport_enhanced_flowedit(cfg, registry, codec, x0, beta0=None, seeds=None):
    """Run the coupled-trajectory editor with transport guidance.

    Per active step: draw n_avg noise samples, noise the source to t, form
    the coupled target states z_t_src + (z - z_src), average the conditional
    velocity difference over the draws (one batched call per branch), add
    the weighted clipped transport direction, and take the signed reverse
    step.  The transport direction equals (z - z_src) / max(1 - t, delta) by
    the coupling identity, so it is common to all draws, and the reverse step
    contracts the state toward z_src.  Indices above n_max step with zero
    velocity (state untouched); at index n_min the state is converted once to
    a physical coupled state, and the steps from there on run plain
    denoising under cond_tar.

    x0 is one source (d,) or a batch (B, d).  beta0 is a (B,) per-row
    transport strength, by default cfg.transport.beta0 for every row, and
    seeds B per-row integer seeds, by default cfg.seed for every row.  Each
    step draws every row's (n_avg, d) block from that row's own generator,
    in row order, and makes one field call per branch on all B * n_avg
    coupled states.  The kernels are batch-invariant, so each row's output,
    trajectory and summary equal its own single-state call bit for bit.  In
    a batch a failed row stays as NaN, its abort goes to aborts and its
    summary is None, as in transport_guided_inversion_edit, whose record
    shapes a batch shares; a single state raises its abort after the loop.
    """
    source = _source_rows(codec, x0, beta0, cfg.transport)
    single, xb, z_src, beta0, _ = source
    n_rows, dim = xb.shape
    seeds = [cfg.seed] * n_rows if seeds is None else [RngSeed(s) for s in seeds]
    if len(seeds) != n_rows:
        raise ValueError(f"seeds must hold {n_rows} seeds, got {len(seeds)}")
    rngs = [s.generator() for s in seeds]
    src_field, tar_field = _branch_fields(cfg, registry)
    n = cfg.grid.n_steps

    def step(j, t, z):
        k = n - j
        if k > cfg.n_max:
            return z, np.zeros_like(z), 0.0, 0.0
        if k == cfg.n_min:
            eps = np.stack([rng.standard_normal(dim) for rng in rngs])
            z = z + forward_noising(z_src, t, eps) - z_src
        if k <= cfg.n_min:
            return z, tar_field(z, t), 0.0, 0.0
        draws = np.stack([rng.standard_normal((cfg.n_avg, dim)) for rng in rngs])
        z_t_src = forward_noising(z_src[:, None], t, draws)
        z_t_tar = z_t_src + (z - z_src)[:, None]
        v_fe = tar_field(z_t_tar.reshape(-1, dim), t) - src_field(z_t_src.reshape(-1, dim), t)
        v_fe = v_fe.reshape(draws.shape).sum(axis=1) / cfg.n_avg
        return (z, *enhance_velocity(v_fe, z_src, z, t, cfg.transport, beta0))

    meta = {"algorithm": "flowedit", "seed": seeds[0].seed} if single \
        else {"algorithm": "flowedit", "seeds": tuple(s.seed for s in seeds)}
    return _edit_loop(cfg, codec, source, z_src, step, meta)


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

    aborts = [None]
    output = _decode_rows(codec, z[None], cfg.grid, aborts)[0]
    if aborts[0] is not None:
        raise aborts[0]
    summary = EditSummary(
        reconstruction_l2=l2_distance(output, x0),
        displacement_l2=l2_distance(z, z_src),
        transport_work=0.0,
    )
    meta = {"algorithm": "flowedit_baseline", "seed": cfg.seed.seed}
    trajectory = Trajectory(pts.copy(), states, velocities, norms, weights, meta)
    return EditResult(output=output, trajectory=trajectory, summary=summary)
