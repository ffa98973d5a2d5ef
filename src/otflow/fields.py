"""Closed-form oracle velocity fields and condition dispatch.

Every field returns the marginal velocity of the straight-line noising path,

    v(z, t) = E[eps - x0 | z_t = z] = (z - E[x0 | z_t = z]) / t,

in the forward convention (pointing toward noise).  For an empirical dataset
{x_i} the posterior over points is a softmax of -||z - (1-t) x_i||^2 / (2 t^2).
The point kernel works on the centred rows y_i = x_i - c, c = mean(x): with
a = 1 - t the logits (a / t^2) ((z - a c) . y_i - a ||y_i||^2 / 2) differ from
the exact ones by a per-row constant, and v = (z - c - sum_i w_i y_i) / t.
Centring keeps the expansion free of the ||z||^2 cancellation at large ||z||,
and no (batch, n, d) tensor is formed.

For a Gaussian N(mu, Sigma) the conditional expectation is linear in z:

    v = (t I - (1-t) Sigma) C^{-1} (z - (1-t) mu) - mu,   C = (1-t)^2 Sigma + t^2 I.

One kernel evaluates all Gaussians, stacked as Sigma = Q diag(lam) Q^T: it
projects y = Q^T (z - (1-t) mu) once per component for both the log density of
z_t and the velocity.  Both kernels contract with np.einsum, not BLAS matmul,
whose reduction order follows the operand shapes: with einsum a row's result
depends neither on its batch nor on the Gaussians stacked beside it.

Conditions select which field an evaluation uses: the null condition pools
every registered dataset, and a dataset condition blends that entry's field
with the null field at classifier-free guidance weight w.
"""

from dataclasses import dataclass

import numpy as np

# Posterior weights smaller than this are flushed to zero before renormalizing.
_WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class GuidanceScales:
    """Classifier-free guidance weights: w for single-condition evaluation,
    w_src / w_tar for the two sides of a coupled edit."""

    w: float = 1.0
    w_src: float = 1.0
    w_tar: float = 1.0

    def __post_init__(self):
        for name in ("w", "w_src", "w_tar"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"guidance scale {name} must be finite")


@dataclass(frozen=True)
class Condition:
    """What a velocity evaluation is conditioned on.

    kind 'null' pools all registered datasets; 'dataset' names one registry
    entry.
    """

    kind: str
    name: str = None

    def __post_init__(self):
        if self.kind not in ("null", "dataset"):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.kind == "dataset" and not self.name:
            raise ValueError("dataset condition requires a name")

    @classmethod
    def null(cls):
        return cls(kind="null")

    @classmethod
    def dataset(cls, name):
        return cls(kind="dataset", name=name)


def _clamp_t(t, t_floor):
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return min(max(float(t), t_floor), 1.0)


class _PointSet:
    """A point dataset prepared once for the centred kernel: the raw points,
    their centre c, the centred rows y = x - c and the squared norms ||y_i||^2.
    len() is the number of atoms."""

    __slots__ = ("points", "centre", "centred", "sq_norms")

    def __init__(self, points):
        self.points = points
        self.centre = points.mean(axis=0)
        self.centred = points - self.centre
        self.sq_norms = np.einsum("nd,nd->n", self.centred, self.centred)

    def __len__(self):
        return self.points.shape[0]


def _point_logits(pset, u, a, t):
    # -||z - a x_i||^2 / (2 t^2) + ||u||^2 / (2 t^2) with u = z - a c.
    return (a / (t * t)) * (np.einsum("bd,nd->bn", u, pset.centred) - (0.5 * a) * pset.sq_norms)


def empirical_marginal_velocity(points, z, t, t_floor=1e-4):
    """Marginal velocity of the uniform empirical distribution over points.

    Args:
        points: dataset array of shape (n, d), or a registry's prepared set.
        z: query state, shape (d,) or (batch, d).
        t: time in [0, 1], clamped below at t_floor.
        t_floor: positive clamp keeping the t^2 posterior variance nonzero.
    """
    pset = points
    if not isinstance(pset, _PointSet):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("points must be a non-empty (n, d) array")
        pset = _PointSet(points)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != pset.centred.shape[1]:
        raise ValueError(f"state dim {z.shape[-1]} != dataset dim {pset.centred.shape[1]}")
    t = _clamp_t(t, t_floor)
    zb = z.reshape(-1, z.shape[-1])
    logits = _point_logits(pset, zb - (1.0 - t) * pset.centre, 1.0 - t, t)
    logits -= logits.max(axis=1, keepdims=True)  # max-shift for stability
    w = np.exp(logits)
    w[w < _WEIGHT_FLOOR] = 0.0
    w /= w.sum(axis=1, keepdims=True)
    v = (zb - pset.centre - np.einsum("bn,nd->bd", w, pset.centred)) / t
    return v.reshape(z.shape)


def _gaussian_velocity_eig(means, eigvals, eigvecs, zb, t):
    # m stacked components ((m, d) means and eigenvalues, (m, d, d) eigenvectors)
    # at (b, d) states zb.  With a = 1 - t, c = a^2 lam + t^2, y = Q^T (z - a mu):
    #   log densities (b, m):  -(y . y / c + sum log c) / 2 + const
    #   velocities (b, m, d):  Q diag((t - a lam) / c) y - mu
    a = 1.0 - t
    c_eig = a * a * eigvals + t * t
    y = np.einsum("bmk,mkj->bmj", zb[:, None, :] - a * means, eigvecs)
    quad = np.einsum("bmj,bmj->bm", y * (1.0 / c_eig), y)
    log_dens = -0.5 * quad - 0.5 * np.log(c_eig).sum(axis=1)
    v = np.einsum("mij,bmj->bmi", eigvecs, y * ((t - a * eigvals) / c_eig)) - means
    return log_dens, v


def _gaussian_stack(mean, cov, where=""):
    # Validate (mean, cov); return cov and N(mean, cov) as a one-component
    # stack: (1, d) mean, (1, d) clipped eigenvalues, (1, d, d) eigenvectors.
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    for label, arr in (("mean", mean), ("cov", cov)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{where}{label} contains non-finite entries")
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"{where}cov must be ({d}, {d}), got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError(f"{where}cov must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals.min() < -1e-8:
        raise ValueError(f"{where}cov is not positive semidefinite (min eigenvalue {eigvals.min()})")
    return cov, (mean[None], np.clip(eigvals, 0.0, None)[None], eigvecs[None])


def _one_gaussian_velocity(one, z, t):
    # The velocity of a one-component stack at z, shaped like z.
    _, v = _gaussian_velocity_eig(*one, z.reshape(-1, z.shape[-1]), t)
    return v[:, 0].reshape(z.shape)


def gaussian_marginal_velocity(mean, cov, z, t, t_floor=1e-4):
    """Marginal velocity for data drawn from N(mean, cov).

    cov must be symmetric positive semidefinite; eigenvalues are clamped at
    zero, so a degenerate covariance degrades gracefully to the point field.
    """
    cov, one = _gaussian_stack(mean, cov)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != cov.shape[0]:
        raise ValueError(f"state dim {z.shape[-1]} != gaussian dim {cov.shape[0]}")
    return _one_gaussian_velocity(one, z, _clamp_t(t, t_floor))


def conditional_linear_velocity(z_ref, z, t, t_floor=1e-4):
    """Straight-line velocity of the path through z at time t that lands on z_ref.

    v = (z - z_ref) / max(t, t_floor); denoising this field with exact
    integration from any state at t = 1 reaches z_ref at t = 0.
    """
    z_ref = np.asarray(z_ref, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != z_ref.shape[-1]:
        raise ValueError(f"state dim {z.shape[-1]} != reference dim {z_ref.shape[-1]}")
    return (z - z_ref) / max(float(t), t_floor)


def cfg_blend(v_uncond, v_cond, w):
    """Classifier-free guidance blend v_uncond + w * (v_cond - v_uncond).

    w = 0 and w = 1 return the inputs untouched; w > 1 extrapolates.
    """
    if not np.isfinite(w):
        raise ValueError(f"guidance weight must be finite, got {w}")
    v_uncond = np.asarray(v_uncond, dtype=float)
    v_cond = np.asarray(v_cond, dtype=float)
    if v_uncond.shape != v_cond.shape:
        raise ValueError("blend inputs must share a shape")
    if w == 0.0:
        return v_uncond
    if w == 1.0:
        return v_cond
    return v_uncond + w * (v_cond - v_uncond)


class UnknownDatasetError(KeyError):
    pass


class FieldRegistry:
    """Named datasets (point sets and Gaussians) backing oracle fields.

    Register everything up front; entries are treated as immutable afterwards.
    Everything a field evaluation needs is computed at registration (point
    sets and the pooled null set are prepared for the centred kernel, Gaussians
    stacked for the einsum Gaussian kernel), so evaluations never mutate it and
    sweep cells that keep the datasets can share one registry.  That kernel's
    rows depend on neither the batch nor the other Gaussians, so an entry
    evaluated alone equals its column of the null mixture bit for bit.
    """

    def __init__(self, t_floor=1e-4):
        if not (np.isfinite(t_floor) and t_floor > 0.0):
            raise ValueError(f"t_floor must be positive, got {t_floor}")
        self.t_floor = float(t_floor)
        self._points = {}
        self._pooled = None
        # name -> (one-component stack, cov, index into the stacked arrays)
        self._gaussians = {}
        self._stacked = None
        self._order = []

    def add_points(self, name, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"dataset {name!r}: points must be a non-empty (n, d) array")
        if not np.all(np.isfinite(points)):
            raise ValueError(f"dataset {name!r}: points contain non-finite entries")
        self._check_new(name, points.shape[1])
        self._points[name] = _PointSet(points)
        self._order.append(name)
        self._pooled = _PointSet(np.concatenate([p.points for p in self._points.values()]))
        return self

    def add_gaussian(self, name, mean, cov):
        cov, one = _gaussian_stack(mean, cov, f"dataset {name!r}: ")
        self._check_new(name, cov.shape[0])
        self._gaussians[name] = (one, cov, len(self._gaussians))
        self._stacked = [np.concatenate(c) for c in zip(*(g[0] for g in self._gaussians.values()))]
        self._order.append(name)
        return self

    def _check_new(self, name, d):
        if name in self._points or name in self._gaussians:
            raise ValueError(f"dataset {name!r} already registered")
        if self._order and d != self.dim():
            raise ValueError(f"dataset {name!r} has dim {d}, registry has dim {self.dim()}")

    def dim(self):
        first = self._order[0]
        if first in self._points:
            return self._points[first].points.shape[1]
        return self._gaussians[first][1].shape[0]

    def names(self):
        return list(self._order)

    def has(self, name):
        return name in self._points or name in self._gaussians

    def kind(self, name):
        if name in self._points:
            return "points"
        if name in self._gaussians:
            return "gaussian"
        raise UnknownDatasetError(name)

    def points(self, name):
        if name not in self._points:
            raise UnknownDatasetError(name)
        return self._points[name].points

    def gaussian(self, name):
        if name not in self._gaussians:
            raise UnknownDatasetError(name)
        one, cov, _ = self._gaussians[name]
        return one[0][0], cov

    def _entry_velocity(self, name, z, t):
        if name in self._points:
            return empirical_marginal_velocity(self._points[name], z, t, self.t_floor)
        if name in self._gaussians:
            return _one_gaussian_velocity(self._gaussians[name][0], np.asarray(z, dtype=float),
                                          _clamp_t(t, self.t_floor))
        raise UnknownDatasetError(name)

    def _null_velocity(self, z, t):
        if not self._order:
            raise ValueError("registry has no datasets; cannot evaluate the null condition")
        if not self._gaussians:
            return empirical_marginal_velocity(self._pooled, z, t, self.t_floor)
        return self._mixture_velocity(z, t)[0]

    def _mixture_velocity(self, z, t):
        # Uniform pooling at atom level: each point and each whole Gaussian is
        # one mixture component.  Responsibilities need the full log densities
        # (including log-determinants) because component variances differ.
        # Returns the pooled velocity and the Gaussians' (b, m, d) velocities.
        t = _clamp_t(t, self.t_floor)
        a = 1.0 - t
        z = np.asarray(z, dtype=float)
        zb = z.reshape(-1, z.shape[-1])
        # Gaussian columns first, then each point set's atoms in registration
        # order.  Only reached with at least one Gaussian (see _null_velocity).
        gauss_dens, gauss_v = _gaussian_velocity_eig(*self._stacked, zb, t)
        log_r = [gauss_dens]
        for pset in self._points.values():
            u = zb - a * pset.centre
            base = np.einsum("bd,bd->b", u, u) / (2.0 * t * t) + zb.shape[1] * np.log(t)
            log_r.append(_point_logits(pset, u, a, t) - base[:, None])
        log_r = np.concatenate(log_r, axis=1)
        log_r -= log_r.max(axis=1, keepdims=True)
        r = np.exp(log_r)
        r[r < _WEIGHT_FLOOR] = 0.0
        r /= r.sum(axis=1, keepdims=True)
        col = len(self._gaussians)
        v = np.einsum("bn,bnd->bd", r[:, :col], gauss_v)
        for pset in self._points.values():
            # sum_i r_i ((z - a x_i)/t - x_i) = (R z - R c - sum_i r_i y_i) / t
            r_pts = r[:, col:col + len(pset)]
            col += len(pset)
            big_r = r_pts.sum(axis=1, keepdims=True)
            y_sum = np.einsum("bn,nd->bd", r_pts, pset.centred)
            v = v + (big_r * zb - big_r * pset.centre - y_sum) / t
        return v.reshape(z.shape), gauss_v


def evaluate(registry, z, t, condition, scales):
    """Dispatch a velocity evaluation through a condition.

    null: pooled field over every registered dataset.  dataset(name): that
    entry's field blended with the null field at scales.w; a Gaussian entry's
    field is then read from the null mixture's own kernel call.  A name the
    registry does not hold raises UnknownDatasetError.
    """
    if condition.kind == "null":
        return registry._null_velocity(z, t)
    if scales.w != 1.0 and condition.name in registry._gaussians:
        v_null, gauss_v = registry._mixture_velocity(z, t)
        k = registry._gaussians[condition.name][2]
        return cfg_blend(v_null, gauss_v[:, k].reshape(v_null.shape), scales.w)
    v_cond = registry._entry_velocity(condition.name, z, t)
    if scales.w == 1.0:
        return v_cond
    return cfg_blend(registry._null_velocity(z, t), v_cond, scales.w)


def make_velocity(registry, condition, scales):
    """Bind (registry, condition, scales) into a (z, t) -> v callable."""

    def velocity(z, t):
        return evaluate(registry, z, t, condition, scales)

    return velocity
