"""Integration engine for balls, half-balls, spheres, punctured regions and
truncated (half-)space, with declared point singularities |x-x0|^{-sigma}.

Volume integrals: an axisymmetric 2-D reduction when the caller certifies
symmetry about a line through the relevant centers, otherwise scrambled Sobol
sampling with mixture importance weighting around each declared singular or
peaked point (8 independent replicates, spread twice their standard
deviation).  Sphere integrals: one product Gauss rule, cut to its polar
factor for axisymmetric integrands, or Sobol directions for n >= 5.
integrate_radial is the 1-D rule for radial integrands.

Deterministic tensor grids are infeasible for n in [7, 12], hence the QMC
fallback; all QMC results are reproducible bit-for-bit for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy import integrate as _sg
from scipy.special import gammaln, ndtri, roots_jacobi, roots_legendre

__all__ = [
    "AccuracyError",
    "Singularity",
    "Ball",
    "HalfBall",
    "SphereSurface",
    "BallMinusBalls",
    "TruncatedSpace",
    "QuadratureResult",
    "sphere_area",
    "ball_volume",
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
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n))


def ball_volume(n: int, radius: float = 1.0) -> float:
    return sphere_area(n) * radius**n / n


@lru_cache(maxsize=None)
def _gauss_legendre(m: int):
    """Gauss-Legendre nodes and weights of order m on [-1, 1], built once per
    order and shared between callers, hence read-only."""
    rule = roots_legendre(m)
    for a in rule:
        a.setflags(write=False)
    return rule


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

    order is the sigma in |x-x0|^{-sigma} (0 for a merely peaked point);
    scale is the peak width used to steer importance sampling.
    """

    point: tuple
    order: float = 0.0
    scale: float = 0.0


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
class HalfBall:
    """{x in B(center, radius) : x_1 > center_1}."""

    center: tuple
    radius: float
    singularities: tuple = ()

    @property
    def dim(self):
        return len(self.center)

    def contains(self, x):
        c = np.asarray(self.center)
        inside = np.sum((x - c) ** 2, axis=-1) <= self.radius**2
        return inside & (x[..., 0] > c[0])

    def enclosing(self):
        return np.asarray(self.center, float), self.radius


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


@dataclass(frozen=True)
class TruncatedSpace:
    """Ball of radius r_max about the origin, optionally cut to {x_1 > 0}."""

    dim_n: int
    r_max: float
    half: bool = False
    singularities: tuple = ()
    tail_bound: float = 0.0  # caller-supplied analytic bound on the tail

    @property
    def dim(self):
        return self.dim_n

    def contains(self, x):
        mask = np.sum(x**2, axis=-1) <= self.r_max**2
        if self.half:
            mask &= x[..., 0] > 0
        return mask

    def enclosing(self):
        return np.zeros(self.dim_n), self.r_max


@dataclass
class QuadratureResult:
    value: float
    error_estimate: float
    method: str
    samples_used: int = 0

    def __float__(self):
        return float(self.value)


def _refuse_unmet(res: QuadratureResult, tol: float | None) -> QuadratureResult:
    """res, or AccuracyError when its error estimate exceeds tol * |value|."""
    if tol is not None and res.error_estimate > tol * max(abs(res.value), 1e-300):
        raise AccuracyError(
            f"{res.method} error {res.error_estimate:.3e} exceeds "
            f"tol*|value| = {tol * abs(res.value):.3e}", res)
    return res


# ---------------------------------------------------------------------------
# Radial path
# ---------------------------------------------------------------------------

def integrate_radial(g, R: float, n: int, sigma: float = 0.0,
                     r_min: float = 0.0, tol: float = 1e-11,
                     feature_scales=()) -> QuadratureResult:
    """omega_{n-1} * int_{r_min}^R g(r) r^{n-1} dr with a center singularity
    of order sigma < n flattened by r = u^{1/(n-sigma)}.

    feature_scales lists radii of sharp interior features (peaks of width
    comparable to their distance from 0); the interval is split there so the
    adaptive rule cannot step over them.
    """
    if sigma >= n:
        raise ValueError(f"sigma={sigma} must be < n={n}")
    power = n - sigma if sigma else 1.0  # the integration variable is r^power
    if sigma == 0:
        def h(r):
            return g(r) * r ** (n - 1)
    else:
        beta = 1.0 / power
        expo = sigma * beta  # sigma/(n-sigma)

        def h(u):
            r = u**beta
            return beta * g(r) * u**expo

    u_lo, u_hi = r_min**power, R**power
    cuts = sorted({u_lo, u_hi}
                  | {float(np.clip(s**power, u_lo, u_hi))
                     for s0 in feature_scales if s0 > 0
                     for s in (0.3 * s0, s0, 3.0 * s0, 10.0 * s0)})
    val = err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a <= 0:
            continue
        v, e = _sg.quad(h, a, b, epsabs=1e-300, epsrel=tol, limit=400)
        val += v
        err += abs(e)
    area = sphere_area(n)
    res = QuadratureResult(area * val, area * err, "radial")
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
    axis_point + t*axis_dir.  All domain centers and declared singularities
    must lie on that axis; the polar origin is the strongest singularity, or
    the enclosing center when there is none.

    Reduces to omega_{n-2} * iint f(rho,phi) rho^{n-1} sin^{n-2}(phi) in the
    meridian half-plane, using panelled Gauss-Legendre rules: phi panels are
    split at hole tangency angles and refined toward peaked directions, rho
    panels at domain cuts and refined toward the origin and peak radii.
    Each rule is built for all rays at once (_ray_panels).

    The error estimate is the difference against a coarsened rule (2/3 of
    the nodes per direction).  It is conservative and can overstate the
    error by orders of magnitude: for x_1^2 over B^6 it reads 5.0e-5
    relative while the true error is 8.5e-12.  Estimating against a finer
    rule is ROADMAP item 7.
    """
    n = domain.dim
    if n < 3:
        raise ValueError("axisymmetric reduction needs n >= 3")
    d, e = _axis_frame(axis_dir)
    c_enc, r_enc = domain.enclosing()
    p0 = np.asarray(axis_point, float)

    def on_axis(pt):
        off = np.asarray(pt, float) - p0
        return np.linalg.norm(off - (off @ d) * d) <= 1e-10 * max(1.0, r_enc)

    if not on_axis(c_enc):
        raise ValueError("domain center is off the symmetry axis")

    sings = [s for s in getattr(domain, "singularities", ())]
    for s in sings:
        if not on_axis(s.point):
            raise ValueError("declared singularity off the symmetry axis")

    origin = c_enc
    strongest = 0.0
    for s in sings:
        if s.order > strongest:
            strongest, origin = s.order, np.asarray(s.point, float)
    o_xi = (origin - c_enc) @ d  # signed axis offset from enclosing center
    rho_max_global = r_enc + abs(o_xi)

    half = isinstance(domain, HalfBall) or (
        isinstance(domain, TruncatedSpace) and domain.half)
    if half and abs(abs(d[0]) - 1.0) > 1e-12:
        raise ValueError("half domains need the symmetry axis along e_1")

    inner = list(domain.inner) if isinstance(domain, BallMinusBalls) else []
    cut_balls = inner + list(feature_balls)

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

    sigma0 = max([s.order for s in sings
                  if np.linalg.norm(np.asarray(s.point, float) - origin) <= 1e-14],
                 default=0.0)
    if sigma0 >= n:
        raise ValueError("singularity order must stay below the dimension")
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
        U = np.cos(phi)[:, None] * d + np.sin(phi)[:, None] * e
        ray, lo, hi = _ray_panels(U, origin, domain, spheres, peak_cuts, plane,
                                  rho_max_global, floor0)
        h = 0.5 * (hi - lo)[:, None]
        rho = (h * (xr + 1.0) + lo[:, None]).ravel()
        wt = (h * wr * wphi[ray, None]).ravel()
        phi = np.repeat(phi[ray], mrho)
        pts = origin[None, :] + rho[:, None] * (
            np.cos(phi)[:, None] * d[None, :] + np.sin(phi)[:, None] * e[None, :])
        vals = np.asarray(f(pts), float)
        jac = rho ** (n - 1) * np.sin(phi) ** (n - 2)
        return float(np.sum(wt * vals * jac)), len(rho)

    area = sphere_area(n - 1)
    fine, m_fine = build(n_phi, n_rho)
    coarse, m_coarse = build(max(4, (2 * n_phi) // 3), max(4, (2 * n_rho) // 3))
    return QuadratureResult(area * fine, area * abs(fine - coarse),
                            "axisymmetric", m_fine + m_coarse)


# ---------------------------------------------------------------------------
# QMC mixture path
# ---------------------------------------------------------------------------

_REPLICATES = 8


def _sobol_directions(rng, m, n, lead=0):
    """m scrambled Sobol points of dimension lead + n: the first lead
    coordinates as drawn in [0, 1), the last n mapped through ndtri and
    normalised to directions uniform on S^{n-1}."""
    from scipy.stats import qmc

    u = qmc.Sobol(d=lead + n, scramble=True, seed=rng).random(m)
    dirs = ndtri(np.clip(u[:, lead:], 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return u[:, :lead], dirs / norms


def _replicate_result(reps, samples, tail=0.0) -> QuadratureResult:
    """Mean of the replicate estimates; spread twice their standard deviation."""
    reps = np.asarray(reps)
    return QuadratureResult(float(np.mean(reps)),
                            2.0 * float(np.std(reps, ddof=1)) + tail, "qmc", samples)


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
    r = np.linalg.norm(x - center, axis=-1)
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
                     n_points: int = 2**13, axis=None) -> QuadratureResult:
    """Volume integral of f over the domain.

    f maps an (m, n) point array to an (m,) array.  Declared singularities
    must match f's actual singular set (caller contract).  axis=(point,
    direction) certifies axial symmetry: integrate_axisymmetric.  Otherwise
    scrambled-Sobol mixture importance sampling.  An error estimate above
    tol * |value| raises AccuracyError.
    """
    n = domain.dim
    for s in getattr(domain, "singularities", ()):
        if s.order >= n:
            raise ValueError(f"singularity order {s.order} >= dimension {n}")
    tail = getattr(domain, "tail_bound", 0.0)

    if axis is not None:
        res = integrate_axisymmetric(f, domain, axis[0], axis[1])
        res.error_estimate += tail
        return _refuse_unmet(res, tol)

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
    m_per = 2 ** max(6, math.ceil(math.log2(max(1, n_points // len(comps)))))
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
                vals[inside] = np.asarray(f(pts[inside]), float)
            with np.errstate(invalid="ignore"):
                ratio = np.where(inside & (q > 0), vals / np.maximum(q, 1e-300), 0.0)
            est += w[j] * float(np.mean(ratio))
        reps.append(est)
    res = _replicate_result(reps, _REPLICATES * len(comps) * m_per, tail)
    return _refuse_unmet(res, tol)


# ---------------------------------------------------------------------------
# Surface path
# ---------------------------------------------------------------------------

def _sphere_rule(n: int, m: int, axial: bool = False):
    """Product Gauss rule on the unit sphere S^{n-1}: nodes (N, n) and
    positive weights (N,), which the integral divides by their sum.

    Gauss-Jacobi with m nodes in the cosine of the first polar angle (weight
    (1 - x^2)^{(n-3)/2}) times the rule on S^{n-2} scaled by the sine; S^1
    takes 2m equally spaced points.  With axial the recursion stops after
    the first factor and the nodes are (cos, sin) pairs in an axis frame,
    which is exact for integrands axisymmetric about that axis.
    """
    if n == 2 and not axial:
        th = (np.arange(2 * m) + 0.5) * (math.pi / m)
        return np.stack([np.cos(th), np.sin(th)], axis=1), np.ones(2 * m)
    x, w = roots_jacobi(m, 0.5 * (n - 3), 0.5 * (n - 3))
    s = np.sqrt(1 - x**2)
    if axial:
        return np.stack([x, s], axis=1), w
    u, v = _sphere_rule(n - 1, m)
    nodes = np.concatenate([np.repeat(x, len(v))[:, None],
                            (s[:, None, None] * u).reshape(-1, n - 1)], axis=1)
    return nodes, np.outer(w, v).ravel()


def integrate_surface(f, sphere: SphereSurface, tol: float | None = None,
                      seed: int = 0, n_points: int = 2**12,
                      axis=None) -> QuadratureResult:
    """Area integral of f over a sphere.

    axis=direction certifies f axisymmetric about the line through the
    center: the 1-D Gauss-Jacobi factor of the product rule in the polar
    angle ("gauss-jacobi").  Otherwise the full product rule for n <= 4
    ("product-gauss") and scrambled-Sobol directions for n >= 5 ("qmc").
    The product rules estimate their error against the rule with half the
    nodes per factor; an error estimate above tol * |value| raises
    AccuracyError.
    """
    n = sphere.dim
    c = np.asarray(sphere.center, float)
    R = sphere.radius

    axial = axis is not None
    if axial or n <= 4:
        if axial:
            d, e = _axis_frame(axis)
        ests, used = [], 0
        for m in ((48, 96) if axial else (24, 48)):
            u, w = _sphere_rule(n, m, axial)
            if axial:
                u = u[:, :1] * d + u[:, 1:] * e
            vals = np.asarray(f(c + R * u), float)
            ests.append(float(np.sum(w * vals) / np.sum(w)) * sphere.area())
            used += len(w)
        coarse, fine = ests
        method = "gauss-jacobi" if axial else "product-gauss"
        return _refuse_unmet(
            QuadratureResult(fine, abs(fine - coarse), method, used), tol)

    reps = []
    for rep in range(_REPLICATES):
        _, dirs = _sobol_directions(np.random.default_rng([seed, rep]), n_points, n)
        vals = np.asarray(f(c + R * dirs), float)
        reps.append(float(np.mean(vals)) * sphere.area())
    return _refuse_unmet(_replicate_result(reps, _REPLICATES * n_points), tol)
