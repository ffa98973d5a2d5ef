"""Transport correction: a weighted, clipped straight-line term added to a velocity.

The direction at time t is the straight-line transport rate

    d(z, t) = (z_target - z) / max(T - t, delta),        T = 1,

norm-clipped at clip_tau, and weighted by a cosine-annealed schedule

    S(s) = 0.5 * (1 + cos(min(s / phi, 1) * pi)),        s in [0, 1],

so the correction is weight(t) * clip(d), added to the velocity in the
forward (t increasing) convention.  A reverse step (t decreasing) therefore
moves the state along z - z_target, away from z_target.  The schedule
argument is the elapsed denoising fraction (1 - t) or the remaining fraction
(t), selected by TransportConfig.orientation; a hard [t_lo, t_hi] window gates
the weight to zero outside.  S decays from 1 at s = 0 to 0 at s >= phi with
maximum slope pi / (2 * phi).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _overflow_safe
from .fields import _T_FLOOR

_ORIENTATIONS = ("elapsed", "remaining")


@dataclass(frozen=True)
class TransportConfig:
    """Dials for the transport correction.

    window is (t_hi, t_lo): guidance is active only for t in [t_lo, t_hi].
    """

    beta0: float
    phi: float = 0.3
    delta: float = 0.01
    clip_tau: float = 10.0
    orientation: str = "elapsed"
    window: tuple = (1.0, 0.0)

    def __post_init__(self):
        check_beta0(self.beta0)
        check_phi(self.phi)
        if not (np.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (np.isfinite(self.clip_tau) and self.clip_tau > 0.0):
            raise ValueError(f"clip_tau must be positive, got {self.clip_tau}")
        if self.orientation not in _ORIENTATIONS:
            raise ValueError(f"orientation must be one of {_ORIENTATIONS}")
        t_hi, t_lo = self.window
        if not (0.0 <= t_lo <= t_hi <= 1.0):
            raise ValueError(f"window must satisfy 0 <= t_lo <= t_hi <= 1, got {self.window}")


def check_beta0(beta0):
    """Raise ValueError unless the transport strength beta0 is finite and >= 0."""
    if not (np.isfinite(beta0) and beta0 >= 0.0):
        raise ValueError(f"beta0 must be finite and >= 0, got {beta0}")


def check_phi(phi):
    """Raise ValueError unless the anneal width phi lies in (0, 1]."""
    if not (0.0 < phi <= 1.0):
        raise ValueError(f"phi must lie in (0, 1], got {phi}")


def cosine_schedule(s, phi):
    """Annealing factor S(s) = 0.5 * (1 + cos(min(s/phi, 1) * pi)).

    Args:
        s: schedule argument in [0, 1].
        phi: anneal width in (0, 1]; S reaches 0 at s = phi and stays there.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"schedule argument must lie in [0, 1], got {s}")
    check_phi(phi)
    return _cosine(s, phi)


def _cosine(s, phi):
    # cosine_schedule without its checks.
    return 0.5 * (1.0 + math.cos(min(s / phi, 1.0) * math.pi))


def kinks(cfg, t_from, t_to, *marks):
    """The times strictly inside the span from t_from to t_to where a field
    guided under cfg is not smooth in t, sorted from t_from toward t_to,
    each once.

    They are fields._T_FLOOR, below which the fields freeze, and the given
    marks; and, when cfg.beta0 > 0, the window edges, where the weight
    jumps, the schedule's end (t = 1 - phi for 'elapsed', t = phi for
    'remaining') and t = 1 - delta, where the direction's denominator
    max(1 - t, delta) stops moving.
    """
    times = [_T_FLOOR, *marks]
    if cfg.beta0 > 0.0:
        end = 1.0 - cfg.phi if cfg.orientation == "elapsed" else cfg.phi
        times += [*cfg.window, end, 1.0 - cfg.delta]
    lo, hi = sorted((t_from, t_to))
    return sorted({t for t in times if lo < t < hi}, reverse=t_from > t_to)


def transport_direction(z, z_target, t, delta):
    """Straight-line transport rate (z_target - z) / max(1 - t, delta).

    z is a state (d,) or a batch (B, d); z_target broadcasts against it.
    """
    z = np.asarray(z, dtype=float)
    z_target = np.asarray(z_target, dtype=float)
    if z.shape[-1:] != z_target.shape[-1:]:
        raise ValueError(f"state shape {z.shape} != target shape {z_target.shape}")
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    return (z_target - z) / max(1.0 - t, delta)


def adaptive_weight(t, cfg, beta0=None):
    """Schedule weight at time t: beta0 * S(arg, phi), zero outside the window.

    The schedule argument is 1 - t for the 'elapsed' orientation (strong early
    in denoising) and t for 'remaining' (strong near the data end).  beta0
    defaults to cfg.beta0; a (B,) array of per-row strengths gives (B,)
    weights under the one schedule and window of cfg.  TransportConfig
    checked phi and the window when it was built, and inside a window in
    [0, 1] the argument lies in [0, 1], so S runs without cosine_schedule's
    checks.
    """
    t_hi, t_lo = cfg.window
    if not (t_lo <= t <= t_hi):
        return 0.0
    s = (1.0 - t) if cfg.orientation == "elapsed" else t
    return (cfg.beta0 if beta0 is None else beta0) * _cosine(s, cfg.phi)


def clip_norm(v, tau):
    """Rescale v to euclidean norm tau when it exceeds tau; else return v as is."""
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    v = np.asarray(v, dtype=float)
    return _clip(v, _row_norms(v), tau)


def _row_norms(v):
    # Euclidean norms over the last axis.  np.linalg.norm overflows to inf on
    # finite rows with entries above about 1e154; core._overflow_safe
    # recomputes those rows alone as m * norm(v / m), m = max|v|.
    return _overflow_safe(lambda u, _: np.linalg.norm(u, axis=-1), v)


def _clip(v, n, tau):
    # clip_norm given v's row norms n, without its checks; a (d,) state is
    # clipped as a one-row batch.  Each row is multiplied by one scale,
    # tau / n where n > tau and exactly 1.0 elsewhere, so an unclipped row
    # keeps its bits (NaN, inf and -0.0 entries included) and warns of
    # nothing.  A finite row whose norm is inf even rescaled is clipped as
    # u = v / max|v|, its direction at a finite norm, times tau / ||u||, not
    # zeroed by tau / inf; a row with a non-finite entry is left to tau / inf
    # as before.
    rows, n = v.reshape(-1, v.shape[-1]), np.reshape(n, -1)
    over = n == np.inf
    if over.any():
        # The per-row finiteness test is read only on rows whose norm is inf.
        over &= np.isfinite(rows).all(axis=-1)
    if over.any():
        u = rows[over] / np.abs(rows[over]).max(axis=-1, keepdims=True)
        rows, n = rows.copy(), n.copy()
        rows[over], n[over] = u * (tau / np.linalg.norm(u, axis=-1, keepdims=True)), tau
    scale = np.where(n > tau, tau / np.maximum(n, 1e-300), 1.0)
    return (rows * scale[:, None]).reshape(v.shape)


def enhance_velocity(v_base, z, z_target, t, cfg, beta0=None):
    """Add the weighted, clipped transport correction to a base velocity.

    z is a state (d,) or a batch (B, d) with v_base of the same shape.  The
    weight of a row is S(s) * beta0, the schedule factor at t times the
    row's strength: beta0 is a (B,) array of per-row strengths for a (B, d)
    batch, or by default cfg.beta0, one weight shared by every row.
    Returns (velocity, weight, raw_norm), raw_norm being the per-row
    pre-clip norm of the direction, the same reduction clip_norm compares
    with clip_tau.  A row whose weight is zero keeps its v_base row
    untouched, with raw_norm 0.  When S(s) is zero (t outside the window,
    schedule annealed away) the result is (v_base, 0.0, 0.0) with v_base
    itself.  The term is added to every row, and the rows of zero weight
    are selected back out only when there are any.
    """
    s_factor = adaptive_weight(t, cfg, 1.0)
    if s_factor == 0.0:
        return v_base, 0.0, 0.0
    d = transport_direction(z, z_target, t, cfg.delta)
    raw_norm = _row_norms(d)
    w = s_factor * np.asarray(cfg.beta0 if beta0 is None else beta0, dtype=float)
    v = v_base + w[..., None] * _clip(d, raw_norm, cfg.clip_tau)
    off = w == 0.0
    if off.any():
        v, raw_norm = np.where(off[..., None], v_base, v), np.where(off, 0.0, raw_norm)
    return v, w, raw_norm


def make_enhanced(field, z_target, cfg):
    """Wrap a velocity field(z, t) with the transport correction anchored on
    z_target: enhanced(z, t) is enhance_velocity(field(z, t), z, z_target,
    t, cfg)[0].  At cfg.beta0 = 0 every weight is zero and that is field(z,
    t) itself, so field is returned unwrapped."""
    if cfg.beta0 == 0.0:
        return field

    def enhanced(z, t):
        return enhance_velocity(field(z, t), z, z_target, t, cfg)[0]
    return enhanced
