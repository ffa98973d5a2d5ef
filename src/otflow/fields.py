"""Closed-form oracle velocity fields and condition dispatch.

Every field returns the marginal velocity of the straight-line noising path,

    v(z, t) = E[eps - x0 | z_t = z] = (z - E[x0 | z_t = z]) / t,

in the forward convention (pointing toward noise).  For an empirical dataset
{x_i} the posterior over points is a softmax of -||z - (1-t) x_i||^2 / (2 t^2).
The point kernel works on the centred rows y_i = x_i - c, c = mean(x): with
a = 1 - t the logits (a / t^2) ((z - a c) . y_i - a ||y_i||^2 / 2) differ from
the exact ones by a per-row constant.  With m the row's max logit, its
weights are e_i = exp(logit_i - m) and s = sum_i e_i, and the field is
v = (z - c - sum_i e_i y_i / s) / t: the (batch, d) weighted sum is divided
by s, not the (batch, n) weights.  The shifted logits are clamped at
_LOG_FLOOR = -700 before exp, whose underflowing inputs (below about -708)
take a path several times slower; exp(-700) is still under _WEIGHT_FLOOR, so
the flush zeroes the same weights and e, m and s stay bit for bit those of a
plain exp.  Centring keeps the expansion free of the ||z||^2 cancellation at
large ||z||, and no (batch, n, d) tensor is formed.

For a Gaussian N(mu, Sigma) the conditional expectation is linear in z:

    v = (t I - (1-t) Sigma) C^{-1} (z - (1-t) mu) - mu,   C = (1-t)^2 Sigma + t^2 I.

One kernel evaluates all Gaussians, stacked as Sigma = Q diag(lam) Q^T.  With
a = 1 - t and c = a^2 lam + t^2, each component's time-only terms form one
(d + 1, 2d) right operand [[Q / sqrt(c), A], [0, -mu]], A = Q diag((t - a lam)
/ c) Q^T.  The operand is allocated once per binding, with its zero block and
-mu row, and each new t writes its two t-dependent blocks into it in place.
One product of the rows, centred on the component as [z - a mu, 1], with
that operand gives y / sqrt(c), y = Q^T (z - a mu), for the log density of
z_t, and the velocity A (z - a mu) - mu itself.
Centring each component on its own mean, rather than folding -a mu Q into
the bias row, keeps y free of cancellation when the means and states sit far
from the origin, and keeps each component's column a function of that
component's data only.

A row's result depends neither on its batch nor on the rows or Gaussians
evaluated beside it.  A plain (b, d) @ (d, n) matmul would not give that:
BLAS picks its reduction order from the operand shapes.  Every kernel
contraction is instead a stacked matmul, which numpy runs as one BLAS call
per stack item, each of the same fixed shape whatever b is.  The point
kernel pads its rows with zero rows to whole blocks of _ROWS and contracts
each block against a set: the logits as one (_ROWS, d + 1) @ (d + 1, n)
product of (a / t^2) [u, -a/2], scaled on that small left side, with the
basis, the centred rows over their squared norms, and the weighted sums as
(_ROWS, n) @ (n, d).  A row's result then
depends neither on its position in its block nor on what stands beside it
there: padding, live rows, or the NaN rows of failed trajectories.
_ROWS is 16.  A 64-row pass, as flowedit_points makes, then takes four BLAS
calls per contraction instead of the sixteen of 4-row blocks, and gives the
same bits.  Larger blocks gain little more, and at 64 rows OpenBLAS takes
another GEMM path for (64, 17) @ (17, 1024), which changes the rounding.
The price is padding: a call of fewer rows pays for a whole block.  The
Gaussian kernel blocks its rows by the same rule and makes one
(_ROWS, d + 1) @ (d + 1, 2d) product per block and component.  The
row-invariance tests in tests/test_fields.py, at every workload's shapes
and at each block position beside random, NaN, inf and huge rows, fail
should a numpy ever fold the stack into one GEMM.

Conditions select which field an evaluation uses.  make_velocity, the one
way to evaluate a registry, resolves them once at binding and returns the
same closure for every binding, which clamps t at _T_FLOOR and calls one of
two kernels.  A binding of a registry with Gaussians holds one
_GaussianKernel, which keeps the last t's terms and its buffers between
calls (see the class), so a binding must not be called from two threads at
once; every sweep runs serially.  The null condition of a registry of point
sets only makes one pass over their pooled atoms: it is
empirical_marginal_velocity on the concatenated sets bit for bit, which the
per-set mixture matches only to rounding (about 1e-13 relative).  The pooled
set is built at the first such binding, not at registration, and kept on the
registry for later ones, so a registry whose bindings never read it (every
dataset condition, every registry with Gaussians) never holds a copy of its
atoms.  Every other condition calls the null mixture, which has one
component per registered entry and gives the null field and each entry's own
field, its column, from one call.  A dataset condition blends its column
with the null field by cfg_blend at classifier-free guidance weight w, so at
w = 1 it is the column untouched.
A Gaussian is weighed by its log density from the one Gaussian kernel call.
A point set makes one softmax pass over its atoms, giving its max logit m,
the sum s of exp(logit - m) and its field, and is weighed by
exp(m + offset - top) s: its logits are exact up to the per-row constant
||z - a c_s||^2 / (2 t^2), and the offset
a (c_s - c_0) . (2 z - a (c_0 + c_s)) / (2 t^2) moves them to the first
set's without the ||z||^2 cancellation.  The offset is an elementwise product
summed along each row, as a (b, d) @ (d,) GEMV's reduction order would be
BLAS's pick for b.
"""

import math
from dataclasses import dataclass

import numpy as np

# Posterior weights smaller than this are flushed to zero before renormalizing.
_WEIGHT_FLOOR = 1e-300
# The point kernel clamps its max-shifted logits here before exp (see
# _point_pass); exp(-700) ~ 9.9e-305 is below _WEIGHT_FLOOR.
_LOG_FLOOR = -700.0
# Rows per block in the point and Gaussian kernels' contractions; why 16, see
# the module docstring.
_ROWS = 16
# Every field clamps t below here, keeping the t^2 posterior variance nonzero.
_T_FLOOR = 1e-4


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


def _clamp_t(t):
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return min(max(float(t), _T_FLOOR), 1.0)


class _PointSet:
    """A point dataset prepared once for the centred kernel: the raw points,
    their centre c, and the basis, a (d + 1, n) array whose first d rows are
    the centred rows y = x - c transposed and whose last row holds their
    squared norms ||y_i||^2.  centred is the (n, d) view of the basis's first
    d rows that the weighted sums read.  len() is the number of atoms."""

    __slots__ = ("points", "centre", "basis", "centred")

    def __init__(self, points):
        self.points = points
        self.centre = points.mean(axis=0)
        centred = points - self.centre
        self.basis = np.vstack([centred.T, np.einsum("nd,nd->n", centred, centred)])
        self.centred = self.basis[:-1].T

    def __len__(self):
        return self.points.shape[0]


def _row_blocks(x, width):
    # The (b, m) rows x, zero-padded to whole blocks of _ROWS (16) rows and
    # on the right to width columns, as a (k, _ROWS, width) stack.
    b, m = x.shape
    out = np.zeros((-(-b // _ROWS) * _ROWS, width))
    out[:b, :m] = x
    return out.reshape(-1, _ROWS, width)


def _point_logits(pset, u, a, t):
    # -||z - a x_i||^2 / (2 t^2) + ||u||^2 / (2 t^2) with u = z - a c: one
    # product (a / t^2) [u, -a/2] @ basis per row block, one fixed-shape
    # (16, d + 1) @ (d + 1, n) BLAS call each, the scale applied to the
    # (_ROWS, d + 1) left operand rather than to the (_ROWS, n) logits.
    # Returns (k * _ROWS, n) rows, those past u's b rows being padding.
    d = u.shape[1]
    aug = _row_blocks(u, d + 1)
    aug[:, :, d] = -0.5 * a
    aug *= a / (t * t)
    return (aug @ pset.basis).reshape(-1, len(pset))


def _point_pass(pset, zb, t):
    # One softmax pass of the (b, d) states zb over a prepared set at clamped
    # t: per row the max logit m and the sum s of e_i = exp(logit_i - m), each
    # (b, 1), and the set's own field (zb - c - sum_i e_i y_i / s) / t.
    b = zb.shape[0]
    logits = _point_logits(pset, zb - (1.0 - t) * pset.centre, 1.0 - t, t)
    # The softmax runs on the b live rows; the padding rows weigh nothing.
    w = logits[:b]
    m = w.max(axis=1, keepdims=True)  # max-shift for stability
    w -= m
    # exp takes a slow path on results that underflow (inputs below about
    # -708); exp(_LOG_FLOOR) is a normal double under _WEIGHT_FLOOR, so the
    # flush zeroes the same entries, and np.maximum keeps NaN rows NaN.
    np.maximum(w, _LOG_FLOOR, out=w)
    np.exp(w, out=w)
    w[w < _WEIGHT_FLOOR] = 0.0
    s = w.sum(axis=1, keepdims=True)
    logits[b:] = 0.0
    y_sum = (logits.reshape(-1, _ROWS, len(pset)) @ pset.centred).reshape(-1, zb.shape[1])
    return m, s, (zb - pset.centre - y_sum[:b] / s) / t


def empirical_marginal_velocity(points, z, t):
    """Marginal velocity of the uniform empirical distribution over points.

    States are evaluated in zero-padded blocks of _ROWS = 16 rows, so a single
    state costs one whole block, about what 16 states cost.

    Args:
        points: dataset array of shape (n, d).
        z: query state, shape (d,) or (batch, d).
        t: time in [0, 1], clamped below at _T_FLOOR.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != points.shape[1]:
        raise ValueError(f"state dim {z.shape[-1]} != dataset dim {points.shape[1]}")
    v = _point_pass(_PointSet(points), z.reshape(-1, z.shape[-1]), _clamp_t(t))[2]
    return v.reshape(z.shape)


def _gaussian_terms(stack, t, ops):
    # The time-only terms of a Gaussian stack (means, eigenvalues,
    # eigenvectors) at clamped t, with a = 1 - t and c = a^2 lam + t^2: the
    # (m, d) centres a mu, the (m, d + 1, 2d) right operands
    # [[Q / sqrt(c), A], [0, -mu]] with A = Q diag((t - a lam) / c) Q^T (one
    # stacked (m, d, d) product), and (1/2) sum log c.  ops is the kernel's
    # operand, whose zero block and -mu row do not depend on t: the two
    # t-dependent blocks are written into it in place.
    means, eigvals, eigvecs = stack
    d = means.shape[1]
    a = 1.0 - t
    c_eig = a * a * eigvals + t * t
    np.divide(eigvecs, np.sqrt(c_eig)[:, None, :], out=ops[:, :d, :d])
    np.matmul(eigvecs * ((t - a * eigvals) / c_eig)[:, None, :], eigvecs.transpose(0, 2, 1),
              out=ops[:, :d, d:])
    return a * means, ops, 0.5 * np.add.reduce(np.log(c_eig), axis=1)


def _gaussian_velocity_eig(terms, zb, blocks, prod):
    # m stacked components at (b, d) states zb, given their _gaussian_terms
    # at t, in a _GaussianKernel's blocks and product.  The rows go in blocks
    # of _ROWS, with a last column of ones, centred on each component (the
    # kernel keeps the padding rows zero): one fixed-shape (_ROWS, d + 1) @
    # (d + 1, 2d) product [z - a mu, 1] @ [[Q / sqrt(c), A], [0, -mu]] per
    # block and component gives y / sqrt(c), with y = Q^T (z - a mu), and the
    # velocity directly.
    #   log densities (b, m):  -(|y / sqrt(c)|^2 + sum log c) / 2 + const
    #   velocities (m, b, d):  A (z - a mu) - mu, a view of prod's last d
    #     columns, valid until the kernel's next call
    centres, ops, half_log_c = terms
    b, d = zb.shape
    m = len(ops)
    np.subtract(zb, centres[:, None], out=blocks[:, :b, :d])
    np.matmul(blocks.reshape(m, -1, _ROWS, d + 1), ops[:, None],
              out=prod.reshape(m, -1, _ROWS, 2 * d))
    ys = prod[:, :b, :d]
    log_r = np.einsum("mbj,mbj->bm", ys, ys)
    log_r *= -0.5
    log_r -= half_log_c
    return log_r, prod[:, :b, d:]


class _GaussianKernel:
    """The one Gaussian kernel of a stack of m components in d dimensions,
    as a make_velocity binding holds it.  Called at (b, d) states zb and a
    clamped t, it returns the (b, m) log densities and the (m, b, d)
    velocities of _gaussian_velocity_eig, the velocities a view of its
    product buffer that its next call overwrites.

    It keeps the stack's _gaussian_terms for the last t it was called at,
    and nothing of earlier times, so calls at a repeated time skip them: an
    RK4 step's midpoint stages, and the runs with different velocities that
    core's Euler loop walks together, which call in turn at one time (the
    verify arms).  Its (m, d + 1, 2d) operand is allocated once, with the
    zero block and the -mu row that no t changes, and a fresh t writes only
    its two t-dependent blocks into it.  It keeps the (m, rows, d + 1)
    centred blocks, whose last column is ones, and their (m, rows, 2d)
    product for the last padded row count, the only shape that can change,
    so a loop of equal batches allocates neither again.  The padding rows
    of the blocks, those past a call's b live rows, must be zero: the
    blocks are allocated zeroed, and a call zeroes only the rows from b up
    to the live row count of the call before it, the rows that call wrote,
    so a loop of equal batches zeroes none.  The kernel fills its buffers
    in place with the same fixed-shape products, so every bit is as with
    fresh buffers.  Its callers read the velocity view before they call
    again, and make_velocity's closure copies the one slice it would hand
    out (see there).  The object therefore holds state between calls and
    must not be called from two threads at once; every sweep runs
    serially."""

    __slots__ = ("stack", "t", "terms", "ops", "blocks", "prod", "live")

    def __init__(self, stack):
        self.stack = stack
        means = stack[0]
        m, d = means.shape
        self.ops = np.zeros((m, d + 1, 2 * d))
        self.ops[:, d, d:] = -means
        self.t = self.terms = self.blocks = self.prod = None
        self.live = 0

    def __call__(self, zb, t):
        if t != self.t:
            self.t, self.terms = t, _gaussian_terms(self.stack, t, self.ops)
        b, d = zb.shape
        rows = -(-b // _ROWS) * _ROWS
        if self.blocks is None or self.blocks.shape[1] != rows:
            m = len(self.stack[0])
            self.blocks = np.zeros((m, rows, d + 1))
            self.blocks[:, :, d] = 1.0
            self.prod = np.empty((m, rows, 2 * d))
        elif b < self.live:
            self.blocks[:, b:self.live, :d] = 0.0
        self.live = b
        return _gaussian_velocity_eig(self.terms, zb, self.blocks, self.prod)


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


def gaussian_marginal_velocity(mean, cov, z, t):
    """Marginal velocity for data drawn from N(mean, cov).

    cov must be symmetric positive semidefinite; eigenvalues are clamped at
    zero, so a degenerate covariance degrades gracefully to the point field.
    """
    cov, one = _gaussian_stack(mean, cov)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != cov.shape[0]:
        raise ValueError(f"state dim {z.shape[-1]} != gaussian dim {cov.shape[0]}")
    _, v = _GaussianKernel(one)(z.reshape(-1, z.shape[-1]), _clamp_t(t))
    return v[0].reshape(z.shape)


def conditional_linear_velocity(z_ref, z, t):
    """Straight-line velocity of the path through z at time t that lands on z_ref.

    v = (z - z_ref) / max(t, _T_FLOOR); denoising this field with exact
    integration from any state at t = 1 reaches z_ref at t = 0.
    """
    z_ref = np.asarray(z_ref, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != z_ref.shape[-1]:
        raise ValueError(f"state dim {z.shape[-1]} != reference dim {z_ref.shape[-1]}")
    return (z - z_ref) / max(float(t), _T_FLOOR)


def _check_weight(w):
    if not math.isfinite(w):
        raise ValueError(f"guidance weight must be finite, got {w}")


def _blend(v_uncond, v_cond, w):
    # cfg_blend's arithmetic on same-shape float arrays at a checked w.
    if w == 0.0:
        return v_uncond
    if w == 1.0:
        return v_cond
    out = v_cond - v_uncond
    out *= w
    out += v_uncond
    return out


def cfg_blend(v_uncond, v_cond, w):
    """Classifier-free guidance blend v_uncond + w * (v_cond - v_uncond).

    w = 0 and w = 1 return the inputs untouched; w > 1 extrapolates.
    """
    _check_weight(w)
    v_uncond = np.asarray(v_uncond, dtype=float)
    v_cond = np.asarray(v_cond, dtype=float)
    if v_uncond.shape != v_cond.shape:
        raise ValueError("blend inputs must share a shape")
    return _blend(v_uncond, v_cond, w)


class UnknownDatasetError(KeyError):
    pass


class FieldRegistry:
    """Named datasets (point sets and Gaussians) backing oracle fields.

    Register everything up front; entries are treated as immutable afterwards.
    What a field evaluation or a draw needs is computed at registration
    (each point set is prepared for the centred kernel, Gaussians are
    stacked for the one Gaussian kernel, and each Gaussian's sampling factor
    is taken from one SVD of its cov), so evaluations and draws never mutate
    it and sweep cells that keep the datasets can share one registry.  The
    one exception is the pooled set of all point sets' atoms, which only the
    null condition of a registry without Gaussians reads: make_velocity
    builds it at the first such binding and keeps it here, and add_points
    drops it.  That memo is the only thing a binding writes.  Two null
    bindings made at once from two threads would each build an equal set,
    one of which is kept, so the race costs memory, never bits; sweeps bind
    serially anyway.  Registering k sets of n atoms therefore costs O(kn)
    time and memory.  Every field but that pooled null
    makes one pass per point set and one Gaussian kernel call, and combines
    them into the null mixture (see the module docstring).  The kernels' rows
    depend on neither the batch nor the other entries (point and Gaussian
    contractions run on fixed-shape, zero-padded blocks of _ROWS rows, one
    product per block and set or component, the cross-set offsets row by
    row), so an entry's column of the null mixture equals
    gaussian_marginal_velocity or empirical_marginal_velocity on the entry's
    own data bit for bit.
    """

    def __init__(self):
        self._points = {}
        self._pooled = None
        # name -> (one-component stack, cov, index into the stacked arrays,
        # sampling factor (u sqrt(s))^T of cov = u diag(s) u^T)
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
        self._pooled = None
        return self

    def add_gaussian(self, name, mean, cov):
        cov, one = _gaussian_stack(mean, cov, f"dataset {name!r}: ")
        self._check_new(name, cov.shape[0])
        u, s, _ = np.linalg.svd(cov)
        self._gaussians[name] = (one, cov, len(self._gaussians), (u * np.sqrt(s)).T)
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
        one, cov = self._gaussians[name][:2]
        return one[0][0], cov

    def sample_gaussian(self, name, rng, size=None):
        """Draws from Gaussian name: one (d,) state when size is None, else a
        (size, d) array.  Equal bit for bit to rng.multivariate_normal(mean,
        cov, size) with numpy's default SVD method, whose factor is the one
        kept at registration, so no draw refactorizes cov."""
        mean, cov = self.gaussian(name)
        shape = cov.shape[:1] if size is None else (size, cov.shape[0])
        z = rng.standard_normal(shape).reshape(-1, cov.shape[0])
        return (mean + z @ self._gaussians[name][3]).reshape(shape)

    def draw_rows(self, name, rngs):
        """One (d,) row per generator: an atom at rng.integers(n), or a Gaussian
        row equal to sample_gaussian(name, rng) bit for bit."""
        if name in self._points:
            pts = self._points[name].points
            return pts[[rng.integers(len(pts)) for rng in rngs]]
        mean, cov = self.gaussian(name)
        z = np.array([rng.standard_normal(cov.shape[0]) for rng in rngs])
        return mean + (z[:, None] @ self._gaussians[name][3])[:, 0]

    def _pooled_set(self):
        # The _PointSet of every point set's atoms, concatenated in
        # registration order: built on the first call after the last
        # add_points and kept for the calls after it.
        if self._pooled is None:
            self._pooled = _PointSet(np.concatenate([p.points for p in self._points.values()]))
        return self._pooled

    def _column(self, name):
        # The entry's column in _mixture's entry velocities.
        if name in self._gaussians:
            return self._gaussians[name][2]
        if name in self._points:
            return len(self._gaussians) + list(self._points).index(name)
        raise UnknownDatasetError(name)

    def _mixture(self, zb, t, kernel):
        # The null field as a mixture with one component per registered
        # entry, beside each entry's own field, at (b, d) states zb and
        # clamped t, given the Gaussian stack's _GaussianKernel (None without
        # Gaussians): one kernel call and one _point_pass per point set (see
        # the module docstring).  A point set's offset moves its logits to
        # the first set's; beside Gaussians, subtracting
        # ||z - a c_0||^2 / (2 t^2) + d log t then makes them full log
        # densities, as the Gaussians' are (with the log-determinant, as
        # component variances differ).  Returns the
        # (b, d) null velocity and the (m + k, b, d) entry velocities: the m
        # Gaussians', then the k point sets' in registration order.
        m = len(self._gaussians)
        if m:
            log_r, vels = kernel(zb, t)
        if self._points:
            a = 1.0 - t
            c_0 = next(iter(self._points.values())).centre
            logs, all_v, sums, frame = [], [], [], 0.0
            if m:
                u = zb - a * c_0
                frame = (np.einsum("bd,bd->b", u, u) / (2.0 * t * t) + zb.shape[1] * np.log(t))[:, None]
                logs.append(log_r)
                all_v.append(vels)
            for pset in self._points.values():
                top, s, v = _point_pass(pset, zb, t)
                offset = ((2.0 * zb - a * (c_0 + pset.centre)) * (a * (pset.centre - c_0))).sum(
                    axis=1, keepdims=True) / (2.0 * t * t)
                logs.append(top + offset - frame)
                sums.append(s)
                all_v.append(v[None])
            log_r = logs[0] if len(logs) == 1 else np.concatenate(logs, axis=1)
            vels = all_v[0] if len(all_v) == 1 else np.concatenate(all_v)
        log_r -= np.maximum.reduce(log_r, axis=1, keepdims=True)
        r = np.exp(log_r, out=log_r)
        if self._points:
            r[:, m:] *= np.concatenate(sums, axis=1)
        r[r < _WEIGHT_FLOOR] = 0.0
        r /= np.add.reduce(r, axis=1, keepdims=True)
        return np.einsum("bn,nbd->bd", r, vels), vels


def make_velocity(registry, condition, scales):
    """Bind (registry, condition, scales) into a (z, t) -> v callable, the
    one way to evaluate a registry.

    Every binding returns the same closure: it clamps t at _T_FLOOR, checks
    the state's dimension (a ValueError), and calls one kernel.  A registry
    with Gaussians gives each binding its own _GaussianKernel, which holds
    state between calls (the last t's terms and its buffers), so one binding
    must not be called from two threads at once (see the class).  The
    kernel hands back its velocities as a view of its product buffer; the
    closure copies the one slice it would return as it stands, a dataset
    column at w = 1, so no result aliases the binding's workspace.  The
    null condition of a registry that holds only point sets makes one pass
    over their pooled atoms (_point_pass); the first such binding builds
    that pooled set and leaves it on the registry for the next ones, the
    one write a binding makes (see FieldRegistry).  Every other condition
    calls the null mixture (FieldRegistry._mixture): the null condition
    returns its null field, and a dataset condition blends the entry's
    column with it by cfg_blend's rule at scales.w, which binding checks
    once.  A name the registry does not hold raises UnknownDatasetError at
    binding, and the null condition of an empty registry a ValueError.
    Binding relies on the registry's rule that every dataset is registered
    before any field is used.
    """
    column = w = None
    if condition.kind == "dataset":
        column, w = registry._column(condition.name), scales.w
        _check_weight(w)
    elif not registry._order:
        raise ValueError("registry has no datasets; cannot evaluate the null condition")
    dim = registry.dim()
    kernel = None if registry._stacked is None else _GaussianKernel(registry._stacked)
    # One pass over the pooled atoms is the pooled kernel bit for bit, where
    # the per-set mixture agrees with it only to rounding.
    pooled = registry._pooled_set() if column is None and kernel is None else None

    def velocity(z, t):
        t = _clamp_t(t)
        z = np.asarray(z, dtype=float)
        if z.shape[-1] != dim:
            raise ValueError(f"state dim {z.shape[-1]} != registry dim {dim}")
        zb = z.reshape(-1, dim)
        if pooled is not None:
            return _point_pass(pooled, zb, t)[2].reshape(z.shape)
        v, vels = registry._mixture(zb, t, kernel)
        if column is not None:
            # At w = 1 the blend is the column itself, which on a registry of
            # Gaussians only is a view of the kernel's product buffer: copied,
            # so no result aliases the binding's workspace.
            v = vels[column].copy() if w == 1.0 else _blend(v, vels[column], w)
        return v.reshape(z.shape)

    return velocity
