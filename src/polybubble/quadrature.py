"""Integration engine for balls, half-balls, spheres and punctured regions,
with declared point singularities |x-x0|^{-sigma}.

Volume integrals: an axisymmetric 2-D reduction when the caller certifies
symmetry about a line through the relevant centers, otherwise scrambled Sobol
sampling with mixture importance weighting around each declared singular or
peaked point (8 independent replicates, spread twice their standard
deviation).  Sphere integrals: one product Gauss rule, cut to its polar
factor for axisymmetric integrands, or Sobol directions for n >= 5.
integrate_radial is the 1-D rule for radial integrands.

The volume and sphere integrators also take an integrand that returns an
(r, m) stack of rows for m points: each row is reduced along the last axis
exactly as a scalar integrand is, so one call on a stack gives, bit for bit,
the values and error estimates of r separate calls on one rule.

Deterministic tensor grids are infeasible for n in [7, 12], hence the QMC
fallback; all QMC results are reproducible bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .jets import Taylor

__all__ = [
    "AccuracyError",
    "Singularity",
    "Ball",
    "HalfBall",
    "SphereSurface",
    "BallMinusBalls",
    "QuadratureResult",
    "sphere_area",
    "ball_volume",
    "row_sq_norms",
    "AxisNodes",
    "as_points",
    "sq_dist",
    "sphere_moment_ratio",
    "integrate_radial",
    "integrate_axisymmetric",
    "integrate_volume",
    "integrate_surface",
]


class AccuracyError(RuntimeError):
    """Requested tolerance was not met; partial value attached."""

    def __init__(self, msg, result=None):
        super().__init__(msg)
        self.result = result


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n))


def ball_volume(n: int, radius: float = 1.0) -> float:
    return sphere_area(n) * radius**n / n


def row_sq_norms(a):
    """Row sums of a * a for an (N, n) array: squared Euclidean row norms,
    bit-identical to np.sum(a * a, axis=1); their sqrt is bit-identical to
    np.linalg.norm(a, axis=1).

    Below 8 columns the columns are added one at a time, in order: numpy
    sums a row of fewer than 8 entries sequentially, so the result is the
    same bit for bit, and the column loop avoids the reduction's per-row
    overhead.  From 8 columns on numpy sums in unrolled pairwise blocks,
    which the loop would not reproduce, so the reduction itself is used.
    """
    if not 0 < a.shape[1] < 8:
        return np.add.reduce(a * a, axis=1)
    col = a[:, 0]
    out = col * col
    for j in range(1, a.shape[1]):
        col = a[:, j]
        out += col * col
    return out


class AxisNodes:
    """The nodes origin + rho * U[node] of an axisymmetric rule, as its
    integrand receives them; U holds the unit vectors of the rule's phi
    directions.  len() and shape are those of the (m, n) points, which
    np.asarray builds on first use and returns as that same array on every
    read; sq_dist reads its distances from plane() without them."""

    def __init__(self, U, node, rho, origin):
        self.U, self.node, self.rho, self.origin = U, node, rho, origin
        self._pts = self._plane = None

    def __len__(self):
        return len(self.rho)

    @property
    def shape(self):
        return len(self.rho), len(self.origin)

    def __array__(self, dtype=None, copy=None):
        if self._pts is None:
            self._pts = self.U[self.node]
            self._pts *= self.rho[:, None]
            self._pts += self.origin
        return self._pts.astype(float if dtype is None else dtype, copy=bool(copy))

    def plane(self):
        """(x_1, x_2 * x_2) at every node, computed once, when U lies in the
        (x_1, x_2)-plane and the origin on the x_1 axis; else None."""
        if self._plane is None:
            self._plane = ()
            if not (self.U[:, 2:].any() or self.origin[1:].any()):
                s = self.U[self.node, 1] * self.rho
                self._plane = (self.U[self.node, 0] * self.rho + self.origin[0], s * s)
        return self._plane or None


def as_points(x):
    """x as an (m, n) batch of points: an AxisNodes batch or Taylor
    coordinates unchanged, anything else as an (m, n) float array."""
    return x if isinstance(x, (AxisNodes, Taylor)) else np.atleast_2d(np.asarray(x, float))


def sq_dist(x, c):
    """row_sq_norms(np.asarray(x) - c) for points x (an (m, n) array, one
    point or an AxisNodes).  From the plane() of an AxisNodes when c lies on
    the x_1 axis: the terms it leaves out are exact zeros, so the bits are
    the same."""
    x, c = as_points(x), np.asarray(c, float)
    plane = isinstance(x, AxisNodes) and not c[1:].any() and x.plane()
    if plane:
        dt = plane[0] - c[0]
        return dt * dt + plane[1]
    return row_sq_norms(np.asarray(x) - c)


def _read_only(*arrays):
    """The arrays of a rule that is built once and shared between callers,
    made read-only."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _newton_christoffel(x, beta):
    """(Newton step on p_m, sum_{j<m} p_j^2) at the points x, where p_j are
    the orthonormal polynomials of the Jacobi matrix with zero diagonal and
    squared off-diagonal beta = (beta_1, ..., beta_{m-1}), scaled to p_0 = 1.

    The monic pi_{j+1} = x pi_j - beta_j pi_{j-1} are run instead, with
    p_j^2 = g_j pi_j^2 and g_j = 1 / (beta_1 ... beta_j).  The derivative of
    p_m at a node is sum_{j<m} p_j^2 / (b_m p_{m-1}), b_m = sqrt(beta_m), by
    the Christoffel-Darboux identity, so the step is -g_{m-1} pi_m pi_{m-1}
    over the sum.
    """
    P = np.empty((len(beta) + 1, len(x)))
    P[0] = 1.0
    prev, p, c = 0.0, P[0], 0.0
    for j, bj in enumerate(beta.tolist(), 1):
        prev, p = p, np.subtract(x * p, c * prev, out=P[j])
        c = bj
    g = np.cumprod(np.concatenate([[1.0], 1.0 / beta]))
    s = g @ (P * P)
    return -g[-1] * (x * p - c * prev) * p / s, s


@lru_cache(maxsize=None)
def _gauss_jacobi(m: int, a: float):
    """Gauss nodes and weights of order m on [-1, 1] for the weight
    (1 - x^2)^a, a > -1, built once per (m, a) and shared between callers,
    hence read-only.

    Golub-Welsch.  The Jacobi matrix J of the orthonormal polynomials p_j
    has a zero diagonal and the off-diagonal sqrt(beta_j), with
    beta_j = j (j + 2a) / (4 (j + a)^2 - 1) and beta_1 = 1 / (3 + 2a) written
    out so that a = -1/2 is exact.  The nodes are symmetric about 0 (an odd
    order has one at 0 exactly); the squares of those > 0 are eigenvalues
    of the even-indexed part of J^2, a tridiagonal matrix of order
    ceil(m/2), and one Newton step dx polishes them.  The weights are the
    Christoffel numbers mu_0 / sum_{j<m} p_j(x)^2, with p_0 = 1 and
    mu_0 = int (1 - x^2)^a dx = Gamma(1/2) Gamma(a + 1) / Gamma(a + 3/2).
    The sum is taken before the step and carried to x + dx, not rounded, by
    the factor 1 + (2a + 2) x dx / (1 - x^2) that the Jacobi differential
    equation gives at a node.  Near x = +-1 the sum changes by a relative
    m^2 per unit of x, so a sum taken at the float node would be off by
    about 3e-13 at m = 128; this way the weights are within about 3e-14.
    The nodes < 0 and their weights are the mirror image.
    """
    j = np.arange(2.0, m)
    beta = np.concatenate([[1.0 / (3.0 + 2.0 * a)],
                           j * (j + 2.0 * a) / (4.0 * (j + a) ** 2 - 1.0)])[:m - 1]
    B, h = np.concatenate([[0.0], beta, [0.0]]), (m + 1) // 2
    even = (np.diag(B[0:2 * h:2] + B[1:2 * h:2])
            + np.diag(np.sqrt(B[1:2 * h - 2:2] * B[2:2 * h - 1:2]), -1))
    x = np.sqrt(np.maximum(np.linalg.eigvalsh(even), 0.0))
    x[:m % 2] = 0.0  # an odd order's middle node, exact
    step, s = _newton_christoffel(x, beta)
    s *= 1.0 + (2.0 * a + 2.0) * x * step / (1.0 - x * x)
    x += step
    w = math.gamma(0.5) * math.gamma(a + 1.0) / math.gamma(a + 1.5) / s
    return _read_only(np.concatenate([-x[::-1][:m // 2], x]),
                      np.concatenate([w[::-1][:m // 2], w]))


def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights of order m on [-1, 1]: the Jacobi
    weight at a = 0, read-only."""
    return _gauss_jacobi(m, 0.0)


def sphere_moment_ratio(alpha: tuple[int, ...]) -> Fraction:
    """Exact mean of the monomial x^alpha over the unit sphere S^{n-1}.

    Zero when any exponent is odd; otherwise
    prod_i (alpha_i - 1)!! / prod_{j=1}^{|alpha|/2} (n + 2j - 2).
    """
    n = len(alpha)
    if any(a % 2 for a in alpha):
        return Fraction(0)
    num = 1
    for a in alpha:
        for m in range(a - 1, 0, -2):
            num *= m
    den = 1
    tot = sum(alpha)
    for j in range(1, tot // 2 + 1):
        den *= n + 2 * j - 2
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Singularity:
    """Declared singular or sharply peaked point of an integrand.

    order is the sigma in |x-x0|^{-sigma} (0 for a merely peaked point),
    below the dimension len(point) (ValueError otherwise); scale is the
    peak width used to steer importance sampling.
    """

    point: tuple
    order: float = 0.0
    scale: float = 0.0

    def __post_init__(self):
        if self.order >= len(self.point):
            raise ValueError(f"singularity order {self.order} >= dimension {len(self.point)}")


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float
    singularities: tuple = ()

    @property
    def dim(self):
        return len(self.center)

    def contains(self, x):
        c = np.asarray(self.center)
        return np.sum((x - c) ** 2, axis=-1) <= self.radius**2

    def enclosing(self):
        return np.asarray(self.center, float), self.radius


@dataclass(frozen=True)
class HalfBall(Ball):
    """The Ball cut to {x_1 > center_1}."""

    def contains(self, x):
        return super().contains(x) & (x[..., 0] > self.center[0])


@dataclass(frozen=True)
class SphereSurface:
    center: tuple
    radius: float

    @property
    def dim(self):
        return len(self.center)

    def area(self):
        return sphere_area(self.dim) * self.radius ** (self.dim - 1)


@dataclass(frozen=True)
class BallMinusBalls:
    outer: Ball
    inner: tuple = ()
    singularities: tuple = ()

    def __post_init__(self):
        oc = np.asarray(self.outer.center, float)
        for b in self.inner:
            d = np.linalg.norm(np.asarray(b.center, float) - oc)
            if d + b.radius > self.outer.radius + 1e-12:
                raise ValueError("inner ball not inside outer ball")

    @property
    def dim(self):
        return self.outer.dim

    def contains(self, x):
        mask = self.outer.contains(x)
        for b in self.inner:
            c = np.asarray(b.center)
            mask &= np.sum((x - c) ** 2, axis=-1) >= b.radius**2
        return mask

    def enclosing(self):
        return self.outer.enclosing()


class _OnRead:
    """A dataclass field that its instance fills on the first read, with no
    default.  While the instance's attribute named pending holds a closure,
    reading the field calls the instance's _fill(), which sets every such
    field from that closure and drops it; after that, and on an instance
    built with pending None, the field holds what was set."""

    def __init__(self, pending: str):
        self.pending = pending

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        if getattr(obj, self.pending) is not None:
            obj._fill()
        return obj.__dict__[self.name]

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class QuadratureResult:
    """value and error_estimate are floats for a scalar integrand and arrays
    of the stack's leading shape for a stacked one.  The integrand receives
    an array-like batch of m points: np.asarray gives the (m, n) points.

    integrate_axisymmetric leaves error_estimate and samples_used to its
    coarse rule, which runs on the first read of either and is dropped
    then; the integrand is called again at that read."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray = _OnRead("coarse")
    method: str
    samples_used: int = _OnRead("coarse")
    coarse: Callable | None = field(default=None, repr=False, compare=False)

    def _fill(self):
        """error_estimate and samples_used from the pending coarse rule."""
        (self.error_estimate, self.samples_used), self.coarse = self.coarse(), None


def _rows(a):
    """A reduced integrand: a float for a scalar integrand, the array of
    row results for a stack."""
    a = np.asarray(a, float)
    return float(a) if a.ndim == 0 else a


def _refuse_unmet(res: QuadratureResult, tol: float | None) -> QuadratureResult:
    """res, or AccuracyError when the error estimate of any row exceeds
    tol * |value|; the message names the row furthest over."""
    if tol is None:
        return res
    err, val = np.ravel(res.error_estimate), np.ravel(res.value)
    over = err - tol * np.maximum(np.abs(val), 1e-300)
    bad = np.flatnonzero(over > 0)
    if bad.size:
        i = bad[np.argmax(over[bad])]
        raise AccuracyError(
            f"{res.method} error {err[i]:.3e} exceeds "
            f"tol*|value| = {tol * abs(val[i]):.3e}", res)
    return res


# ---------------------------------------------------------------------------
# Radial path
# ---------------------------------------------------------------------------

_RADIAL_RTOL = 1e-11  # relative tolerance of integrate_radial's adaptive rule


def integrate_radial(g, R: float, n: int) -> QuadratureResult:
    """omega_{n-1} * int_0^R g(r) r^{n-1} dr by one adaptive Gauss-Kronrod
    rule on [0, R] at relative tolerance _RADIAL_RTOL."""
    from scipy.integrate import quad  # loaded here: its only user in the module

    val, err = quad(lambda r: g(r) * r ** (n - 1), 0.0, R,
                    epsabs=1e-300, epsrel=_RADIAL_RTOL, limit=400)
    area = sphere_area(n)
    res = QuadratureResult(area * val, area * abs(err), "radial", 0)
    if not math.isfinite(res.value):
        raise AccuracyError("radial quadrature did not converge", res)
    return res


# ---------------------------------------------------------------------------
# Axisymmetric 2-D path
# ---------------------------------------------------------------------------

def _axis_frame(direction):
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    n = d.size
    # any unit vector orthogonal to d
    e = np.zeros(n)
    e[int(np.argmin(np.abs(d)))] = 1.0
    e = e - (e @ d) * d
    return d, e / np.linalg.norm(e)


def _require_on_axis(points, axis_point, axis_dir, scale: float, what: str):
    """ValueError naming what when a point lies farther than
    1e-10 * max(1, scale) from the line axis_point + t * axis_dir."""
    d = np.asarray(axis_dir, float)
    d = d / np.linalg.norm(d)
    for pt in points:
        off = np.asarray(pt, float) - np.asarray(axis_point, float)
        if np.linalg.norm(off - (off @ d) * d) > 1e-10 * max(1.0, scale):
            raise ValueError(f"{what} {tuple(map(float, pt))} is off the symmetry axis")


def _ray_panels(U, origin, domain, spheres, peak_cuts, plane, rho_max, floor):
    """Radial panels of the domain along every ray origin + rho * U[i], built
    in one array pass over all rays.

    The candidate cuts of a ray are 0, rho_max, the peak_cuts, its crossings
    with the spheres ((centre - origin, |centre - origin|^2 - r^2) pairs) and,
    when plane is not None, its crossing with x_1 = origin_1 + plane.  Spans
    between consecutive cuts that lie in the domain are kept; a span starting
    at the origin is graded geometrically toward it down to floor, and every
    panel is split into equal parts no longer than rho_max / 3.  Returns
    (ray, lo, hi): ray-major, rho increasing along each ray.
    """
    bq = -2.0 * np.vecdot(U[:, None, :], np.array([rel for rel, _ in spheres]))
    disc = bq * bq - 4 * np.array([cq for _, cq in spheres])
    # rays that miss a sphere (and, with plane, rays parallel to it) give NaN
    # lanes; they and repeated cuts give no span
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(disc)
        fixed = [0.0, rho_max, *peak_cuts]
        cols = [np.broadcast_to(fixed, (len(U), len(fixed))),
                np.maximum(0.0, (-bq - root) / 2), np.maximum(0.0, (-bq + root) / 2)]
        if plane is not None:
            t = plane / U[:, :1]
            cols.append(np.where((np.abs(U[:, :1]) > 1e-14) & (t > 0), t, np.nan))
        cand = np.concatenate(cols, axis=1)
        cand[~((cand >= 0.0) & (cand <= rho_max))] = np.nan
        cand.sort(axis=1)
        ray, j = np.nonzero(cand[:, 1:] - cand[:, :-1] >= 1e-15 * rho_max)
    lo, hi = cand[ray, j], cand[ray, j + 1]
    mid = 0.5 * (lo + hi)
    inside = np.asarray(domain.contains(origin + mid[:, None] * U[ray]), bool)
    ray, lo, hi = ray[inside], lo[inside], hi[inside]

    # spans at the origin get up to 24 panels with edges 0, h/2^23, ..., h/2, h;
    # edges at or below floor are set to 0, so their empty panels drop out;
    # ungraded spans end at hi itself, which lo + h can miss by an ulp
    h = hi - lo
    grade = (lo < 1e-13 * rho_max) & (h > floor)
    E = np.zeros((len(h), 25))
    E[:, -1] = h
    g = h[grade, None] * 2.0 ** -np.arange(23.0, 0.0, -1.0)
    E[grade, 1:-1] = np.where(g > floor, g, 0.0)
    edge = lo[:, None] + E
    edge[~grade, -1] = hi[~grade]
    keep = E[:, 1:] > E[:, :-1]
    ray = np.repeat(ray, keep.sum(axis=1))
    pa, pb = edge[:, :-1][keep], edge[:, 1:][keep]

    # equal parts, edges computed as np.linspace(pa, pb, parts + 1) does
    parts = np.maximum(1, np.ceil((pb - pa) / (rho_max / 3.0))).astype(int)
    k = np.repeat(np.arange(len(pa)), parts)
    j = np.arange(len(k)) - np.repeat(np.cumsum(parts) - parts, parts)
    lo = j * ((pb - pa) / parts)[k] + pa[k]
    hi = np.append(lo[1:], 0.0)
    hi[j == parts[k] - 1] = pb
    return ray[k], lo, hi


def integrate_axisymmetric(f, domain, axis_point, axis_dir, n_phi: int = 14,
                           n_rho: int = 14, feature_balls=()) -> QuadratureResult:
    """Volume integral of f certified symmetric about the line
    axis_point + t*axis_dir.  The domain's centre, the centres of its holes,
    those of the feature_balls and the declared singularities must lie on
    that axis (ValueError otherwise); the polar origin is the strongest
    singularity, or the enclosing center when there is none.

    Reduces to omega_{n-2} * iint f(rho,phi) rho^{n-1} sin^{n-2}(phi) in the
    meridian half-plane, using panelled Gauss-Legendre rules: phi panels are
    split at hole tangency angles and refined toward peaked directions, rho
    panels at domain cuts and refined toward the origin and peak radii.
    Each rule is built for all rays at once (_ray_panels), and its nodes are
    origin + rho * U, with the unit vector U = cos(phi) d + sin(phi) e of a
    direction computed once and shared by that direction's rho nodes.  f
    receives them as one AxisNodes batch, whose (m, n) points np.asarray
    builds only when f asks (sq_dist does not, on an e_1 axis).

    The error estimate is the difference against a coarsened rule (2/3 of
    the nodes per direction).  It is conservative and can overstate the
    error by orders of magnitude: for x_1^2 over B^6 it reads 5.0e-5
    relative while the true error is 8.5e-12.  Estimating against a finer
    rule is ROADMAP item 9.

    The call runs the fine rule only.  The coarse rule runs on the first
    read of the result's error_estimate or samples_used, which calls f on
    its nodes then: f must return the same values at that read as at the
    call, and an exception f raises on coarse nodes alone surfaces there.
    """
    n = domain.dim
    if n < 3:
        raise ValueError("axisymmetric reduction needs n >= 3")
    d, e = _axis_frame(axis_dir)
    c_enc, r_enc = domain.enclosing()
    p0 = np.asarray(axis_point, float)

    inner = list(domain.inner) if isinstance(domain, BallMinusBalls) else []
    cut_balls = inner + list(feature_balls)
    sings = [s for s in getattr(domain, "singularities", ())]
    for what, pts in (("domain center", [c_enc]),
                      ("hole or feature ball center", [b.center for b in cut_balls]),
                      ("declared singularity", [s.point for s in sings])):
        _require_on_axis(pts, p0, d, r_enc, what)

    origin = c_enc
    strongest = 0.0
    for s in sings:
        if s.order > strongest:
            strongest, origin = s.order, np.asarray(s.point, float)
    o_xi = (origin - c_enc) @ d  # signed axis offset from enclosing center
    rho_max_global = r_enc + abs(o_xi)

    half = isinstance(domain, HalfBall)
    if half and abs(abs(d[0]) - 1.0) > 1e-12:
        raise ValueError("half domains need the symmetry axis along e_1")

    # --- phi panel edges: kinks at hole/feature tangency angles, refinement
    # near peak directions (both as seen from the polar origin)
    kinks = {0.0, math.pi}
    refine_dirs = []  # (phi_c, angular width)
    peak_radii = []  # (distance from the polar origin, peak width)
    for b in cut_balls:
        cb = np.asarray(b.center, float) - origin
        ell = np.linalg.norm(cb)
        if ell > b.radius:
            phi_c = math.acos(np.clip((cb @ d) / ell, -1, 1))
            dphi = math.asin(min(1.0, b.radius / ell))
            kinks.update((max(0.0, phi_c - dphi), min(math.pi, phi_c + dphi)))
    for s in sings:
        sp = np.asarray(s.point, float) - origin
        ell = np.linalg.norm(sp)
        scale = s.scale if s.scale > 0 else 0.0
        if ell > 1e-14 and scale > 0:
            phi_c = math.acos(np.clip((sp @ d) / ell, -1, 1))
            refine_dirs.append((phi_c, scale / ell))
        if scale > 0:
            peak_radii.append((ell, scale))
    if half:
        kinks.add(0.5 * math.pi)
        if abs(o_xi) < r_enc:  # the ray to the rim circle {x_1 = c_1, |x - c| = r}
            kinks.add(math.atan2(r_enc, -o_xi))

    edges = set(kinks)
    for phi_c, w0 in refine_dirs:
        wgrow = w0
        while wgrow < math.pi:
            edges.update((max(0.0, phi_c - wgrow), min(math.pi, phi_c + wgrow)))
            wgrow *= 4.0
    edges = np.array(sorted(edges))
    wide = edges[1:] - edges[:-1] > 1e-14
    phi_lo, phi_hi = edges[:-1][wide, None], edges[1:][wide, None]

    floor0 = min([sc for _, sc in peak_radii], default=rho_max_global) * 1e-3
    floor0 = max(floor0, 1e-14 * rho_max_global)

    # --- radial cuts along a ray: the enclosing and cut spheres (relative
    # position to the origin, |rel|^2 - r^2), the peak shells, x_1 = c_1
    spheres = []
    for c, r in [(c_enc, r_enc)] + [(np.asarray(b.center, float), b.radius)
                                    for b in cut_balls]:
        rel = c - origin
        spheres.append((rel, rel @ rel - r * r))
    peak_cuts = {c for ell, sc in peak_radii for m in (1.0, 4.0, 16.0, 64.0)
                 for c in (max(0.0, ell - m * sc), min(rho_max_global, ell + m * sc))}
    plane = c_enc[0] - origin[0] if half else None

    def build(mphi, mrho):
        xg, wg = _gauss_legendre(mphi)
        xr, wr = _gauss_legendre(mrho)
        phi = (0.5 * (phi_hi - phi_lo) * (xg + 1.0) + phi_lo).ravel()
        wphi = (0.5 * (phi_hi - phi_lo) * wg).ravel()
        sin_phi = np.sin(phi)
        U = np.cos(phi)[:, None] * d + sin_phi[:, None] * e
        ray, lo, hi = _ray_panels(U, origin, domain, spheres, peak_cuts, plane,
                                  rho_max_global, floor0)
        h = 0.5 * (hi - lo)[:, None]
        rho = (h * (xr + 1.0) + lo[:, None]).ravel()
        wt = (h * wr * wphi[ray, None]).ravel()
        node = np.repeat(ray, mrho)
        vals = np.asarray(f(AxisNodes(U, node, rho, origin)), float)
        jac = rho ** (n - 1) * (sin_phi ** (n - 2))[node]
        return np.sum(wt * vals * jac, axis=-1), len(rho)

    area = sphere_area(n - 1)
    fine, m_fine = build(n_phi, n_rho)

    def coarse_rule():
        coarse, m_coarse = build(max(4, (2 * n_phi) // 3), max(4, (2 * n_rho) // 3))
        return _rows(area * abs(fine - coarse)), m_fine + m_coarse

    return QuadratureResult(_rows(area * fine), None, "axisymmetric", None,
                            coarse_rule)


# ---------------------------------------------------------------------------
# QMC mixture path
# ---------------------------------------------------------------------------

_REPLICATES = 8
_VOLUME_QMC_POINTS = 2**13  # Sobol points per replicate in a volume
_SURFACE_QMC_POINTS = 2**12  # Sobol directions per replicate on a sphere


def _sobol_directions(rng, m, n, lead=0):
    """m scrambled Sobol points of dimension lead + n: the first lead
    coordinates as drawn in [0, 1), the last n mapped through ndtri and
    normalised to directions uniform on S^{n-1}."""
    from scipy.special import ndtri
    from scipy.stats import qmc

    u = qmc.Sobol(d=lead + n, scramble=True, seed=rng).random(m)
    dirs = ndtri(np.clip(u[:, lead:], 1e-12, 1 - 1e-12))
    norms = np.sqrt(row_sq_norms(dirs))[:, None]
    norms[norms == 0] = 1.0
    return u[:, :lead], dirs / norms


def _replicate_result(reps, samples) -> QuadratureResult:
    """Mean of the replicate estimates; spread twice their standard deviation.
    A stack's replicates are kept as rows of (r, _REPLICATES), so each row is
    reduced as a scalar integrand's replicates are."""
    reps = np.stack(reps, axis=-1)
    return QuadratureResult(_rows(np.mean(reps, axis=-1)),
                            _rows(2.0 * np.std(reps, axis=-1, ddof=1)), "qmc", samples)


def _component_samples(kind, m, n, rng, center, r_lo, r_hi):
    """Draw m points for one mixture component."""
    head, dirs = _sobol_directions(rng, m, n, lead=1)
    u0 = np.clip(head[:, 0], 1e-12, 1 - 1e-12)
    if kind == "uniform":
        r = r_hi * u0 ** (1.0 / n)
    else:  # log-uniform radius
        r = r_lo * (r_hi / r_lo) ** u0
    return center + r[:, None] * dirs


def _component_pdf(kind, x, n, center, r_lo, r_hi):
    r = np.sqrt(row_sq_norms(x - center))
    area = sphere_area(n)
    if kind == "uniform":
        pdf = np.where(r <= r_hi, 1.0 / ball_volume(n, r_hi), 0.0)
    else:
        with np.errstate(divide="ignore"):
            pdf = np.where(
                (r >= r_lo) & (r <= r_hi),
                1.0 / (math.log(r_hi / r_lo) * area * np.maximum(r, 1e-300) ** n),
                0.0,
            )
    return pdf


def integrate_volume(f, domain, tol: float | None = None, seed: int = 0,
                     axis=None) -> QuadratureResult:
    """Volume integral of f over the domain.

    f maps an array-like batch of m points (np.asarray gives the (m, n)
    points) to an (m,) array, or to an (r, m) stack whose rows are
    integrated on the same rule.  Declared singularities
    must match f's actual singular set (caller contract).  axis=(point,
    direction) certifies axial symmetry: integrate_axisymmetric.  Otherwise
    scrambled-Sobol mixture importance sampling, about _VOLUME_QMC_POINTS
    points per replicate shared between the mixture components.  An error
    estimate above tol * |value| raises AccuracyError.
    """
    n = domain.dim
    if axis is not None:
        return _refuse_unmet(integrate_axisymmetric(f, domain, axis[0], axis[1]), tol)

    # QMC mixture importance sampling
    c_enc, r_enc = domain.enclosing()
    comps = [("uniform", c_enc, 0.0, r_enc)]
    for s in getattr(domain, "singularities", ()):
        p = np.asarray(s.point, float)
        scale = s.scale if s.scale > 0 else r_enc
        r_lo = max(1e-7 * scale, 1e-14 * r_enc)
        r_hi = np.linalg.norm(p - c_enc) + r_enc  # covers the whole domain
        comps.append(("log", p, r_lo, r_hi))
    w = np.full(len(comps), 1.0 / len(comps))

    reps = []
    m_per = 2 ** max(6, math.ceil(math.log2(max(1, _VOLUME_QMC_POINTS // len(comps)))))
    for rep in range(_REPLICATES):
        est = 0.0
        for j, (kind, center, r_lo, r_hi) in enumerate(comps):
            rng = np.random.default_rng([seed, rep, j])
            pts = _component_samples(kind, m_per, n, rng, center, r_lo, r_hi)
            inside = np.asarray(domain.contains(pts), bool)
            q = np.zeros(len(pts))
            for jj, (k2, c2, lo2, hi2) in enumerate(comps):
                q += w[jj] * _component_pdf(k2, pts, n, c2, lo2, hi2)
            vals = np.zeros(len(pts))
            if inside.any():
                fin = np.asarray(f(pts[inside]), float)
                vals = np.zeros(fin.shape[:-1] + vals.shape)
                vals[..., inside] = fin
            with np.errstate(invalid="ignore"):
                ratio = np.where(inside & (q > 0), vals / np.maximum(q, 1e-300), 0.0)
            est = est + w[j] * np.mean(ratio, axis=-1)
        reps.append(est)
    res = _replicate_result(reps, _REPLICATES * len(comps) * m_per)
    return _refuse_unmet(res, tol)


# ---------------------------------------------------------------------------
# Surface path
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sphere_rule(n: int, m: int, axial: bool = False):
    """Product Gauss rule on the unit sphere S^{n-1}: nodes (N, n) and
    positive weights (N,), which the integral divides by their sum.  Built
    once per (n, m, axial) and shared between callers, hence read-only.

    Gauss-Jacobi with m nodes in the cosine of the first polar angle (weight
    (1 - x^2)^{(n-3)/2}) times the rule on S^{n-2} scaled by the sine; S^1
    takes 2m equally spaced points.  With axial the recursion stops after
    the first factor and the nodes are (cos, sin) pairs in an axis frame,
    which is exact for integrands axisymmetric about that axis.
    """
    if n == 2 and not axial:
        th = (np.arange(2 * m) + 0.5) * (math.pi / m)
        return _read_only(np.stack([np.cos(th), np.sin(th)], axis=1),
                          np.ones(2 * m))
    x, w = _gauss_jacobi(m, 0.5 * (n - 3))
    s = np.sqrt(1 - x**2)
    if axial:
        return _read_only(np.stack([x, s], axis=1), w)
    u, v = _sphere_rule(n - 1, m)
    nodes = np.concatenate([np.repeat(x, len(v))[:, None],
                            (s[:, None, None] * u).reshape(-1, n - 1)], axis=1)
    return _read_only(nodes, np.outer(w, v).ravel())


def integrate_surface(f, sphere: SphereSurface, tol: float | None = None, *,
                      axis=None) -> QuadratureResult:
    """Area integral of f over a sphere.

    axis=direction certifies f axisymmetric about the line through the
    center: the 1-D Gauss-Jacobi factor of the product rule in the polar
    angle ("gauss-jacobi").  Otherwise the full product rule for n <= 4
    ("product-gauss") and _SURFACE_QMC_POINTS scrambled-Sobol directions
    per replicate for n >= 5 ("qmc", with the fixed seed 0).
    The product rules estimate their error against the rule with half the
    nodes per factor; f is called once, on the nodes of both rules together,
    so it must be pointwise: each value depends on its own node alone.  An
    error estimate above tol * |value| raises AccuracyError.
    """
    n = sphere.dim
    c = np.asarray(sphere.center, float)
    R = sphere.radius

    axial = axis is not None
    if axial or n <= 4:
        (uc, wc), (uf, wf) = (_sphere_rule(n, m, axial)
                              for m in ((48, 96) if axial else (24, 48)))
        u = np.concatenate([uc, uf])
        if axial:
            d, e = _axis_frame(axis)
            u = u[:, :1] * d + u[:, 1:] * e
        vals = np.asarray(f(c + R * u), float)
        coarse, fine = (np.sum(w * v, axis=-1) / np.sum(w) * sphere.area()
                        for w, v in ((wc, vals[..., :len(wc)]),
                                     (wf, vals[..., len(wc):])))
        method = "gauss-jacobi" if axial else "product-gauss"
        return _refuse_unmet(QuadratureResult(
            _rows(fine), _rows(abs(fine - coarse)), method, len(u)), tol)

    reps = []
    for rep in range(_REPLICATES):
        _, dirs = _sobol_directions(np.random.default_rng([0, rep]),
                                    _SURFACE_QMC_POINTS, n)
        vals = np.asarray(f(c + R * dirs), float)
        reps.append(np.mean(vals, axis=-1) * sphere.area())
    return _refuse_unmet(
        _replicate_result(reps, _REPLICATES * _SURFACE_QMC_POINTS), tol)
