"""Integration engine for balls, half-balls, spheres, punctured regions and
truncated (half-)space, with declared point singularities |x-x0|^{-sigma}.

Three volume paths, tried in this order:

* radial reduction (1-D adaptive quadrature, singularity flattened by the
  substitution r = u^{1/(n-sigma)}) when the caller certifies the integrand
  is radial about a center compatible with the domain;
* an axisymmetric 2-D reduction when the caller certifies symmetry about a
  line through the relevant centers;
* scrambled Sobol sampling with mixture importance weighting around each
  declared singular/peaked point, 8 independent replicates, spread reported
  as twice the replicate standard deviation.

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
from scipy.special import gammaln, roots_legendre
from scipy.stats import qmc

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


def _check_sigmas(domain):
    n = domain.dim
    for s in getattr(domain, "singularities", ()):
        if s.order >= n:
            raise ValueError(f"singularity order {s.order} >= dimension {n}")


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
    if sigma == 0:
        # regular integrand: integrate in r directly
        def h(r):
            return g(r) * r ** (n - 1)

        u_lo, u_hi = r_min, R
        cuts = sorted({u_lo, u_hi}
                      | {float(np.clip(s, u_lo, u_hi))
                         for s0 in feature_scales if s0 > 0
                         for s in (0.3 * s0, s0, 3.0 * s0, 10.0 * s0)})
    else:
        beta = 1.0 / (n - sigma)
        expo = sigma * beta  # sigma/(n-sigma)

        def h(u):
            r = u**beta
            return beta * g(r) * u**expo

        u_lo, u_hi = r_min ** (n - sigma), R ** (n - sigma)
        cuts = sorted({u_lo, u_hi}
                      | {float(np.clip(s ** (n - sigma), u_lo, u_hi))
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


def _geometric_panels(a: float, b: float, floor: float) -> list[tuple[float, float]]:
    """Split [a, b] into up to 24 panels geometrically graded toward a."""
    h = b - a
    if h <= floor:
        return [(a, b)]
    edges = sorted({0.0, h} | {h * 2.0 ** -j for j in range(1, 24)
                               if h * 2.0 ** -j > floor})
    return [(a + lo, a + hi) for lo, hi in zip(edges[:-1], edges[1:])]


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
    The error estimate is the difference against a coarsened rule.
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

    edges = set(kinks)
    for phi_c, w0 in refine_dirs:
        wgrow = w0
        while wgrow < math.pi:
            edges.update((max(0.0, phi_c - wgrow), min(math.pi, phi_c + wgrow)))
            wgrow *= 4.0
    edges = sorted(edges)
    phi_panels = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 1e-14]

    sigma0 = max([s.order for s in sings
                  if np.linalg.norm(np.asarray(s.point, float) - origin) <= 1e-14],
                 default=0.0)
    if sigma0 >= n:
        raise ValueError("singularity order must stay below the dimension")
    floor0 = min([sc for _, sc in peak_radii], default=rho_max_global) * 1e-3
    floor0 = max(floor0, 1e-14 * rho_max_global)

    # --- radial cuts along a ray: the enclosing and cut spheres (relative
    # position to the origin, |rel|^2 - r^2), the peak shells, x_1 = 0
    spheres = []
    for c, r in [(c_enc, r_enc)] + [(np.asarray(b.center, float), b.radius)
                                    for b in cut_balls]:
        rel = c - origin
        spheres.append((rel, rel @ rel - r * r))
    peak_cuts = {c for ell, sc in peak_radii for m in (1.0, 4.0, 16.0, 64.0)
                 for c in (max(0.0, ell - m * sc), min(rho_max_global, ell + m * sc))}
    max_len = rho_max_global / 3.0

    def ray_panels(u):
        """(lo, hi) radial panels of the domain along origin + rho * u."""
        cand = {0.0, rho_max_global} | peak_cuts
        for rel, cq in spheres:
            bq = -2.0 * (u @ rel)
            disc = bq * bq - 4 * cq
            if disc >= 0:
                cand.update((max(0.0, (-bq - math.sqrt(disc)) / 2),
                             max(0.0, (-bq + math.sqrt(disc)) / 2)))
        if half and abs(u[0]) > 1e-14 and -origin[0] / u[0] > 0:
            cand.add(-origin[0] / u[0])
        cand = sorted(float(c) for c in cand if 0.0 <= c <= rho_max_global)
        spans = [(lo, hi) for lo, hi in zip(cand[:-1], cand[1:])
                 if hi - lo >= 1e-15 * rho_max_global]
        mids = np.array([0.5 * (lo + hi) for lo, hi in spans])
        panels = []
        for (lo, hi), inside in zip(spans, domain.contains(origin + mids[:, None] * u)):
            if not inside:
                continue
            for pa, pb in (_geometric_panels(lo, hi, floor0)
                           if lo < 1e-13 * rho_max_global else [(lo, hi)]):
                # equal parts, edges computed as np.linspace(pa, pb, parts + 1) does
                parts = max(1, math.ceil((pb - pa) / max_len))
                step = (pb - pa) / parts
                cuts = [j * step + pa for j in range(parts)] + [pb]
                panels += zip(cuts[:-1], cuts[1:])
        return panels

    def build(mphi, mrho):
        xg, wg = _gauss_legendre(mphi)
        xr, wr = _gauss_legendre(mrho)
        rows = []  # (phi, phi weight, rho panel)
        for a, b in phi_panels:
            for phi, wphi in zip(0.5 * (b - a) * (xg + 1.0) + a, 0.5 * (b - a) * wg):
                u = math.cos(phi) * d + math.sin(phi) * e
                rows += [(phi, wphi, lo, hi) for lo, hi in ray_panels(u)]
        phi, wphi, lo, hi = np.array(rows).T[:, :, None]
        h = 0.5 * (hi - lo)
        rho = (h * (xr + 1.0) + lo).ravel()
        wt = (h * wr * wphi).ravel()
        phi = np.repeat(phi, mrho)
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

def _component_samples(kind, m, n, rng, center, r_lo, r_hi):
    """Draw m points for one mixture component."""
    sob = qmc.Sobol(d=n + 1, scramble=True, seed=rng)
    u = sob.random(m)
    z = np.clip(u[:, 1:], 1e-12, 1 - 1e-12)
    from scipy.special import ndtri
    dirs = ndtri(z)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs /= norms
    u0 = np.clip(u[:, 0], 1e-12, 1 - 1e-12)
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
                     n_points: int = 2**13, replicates: int = 8,
                     radial_center=None, axis=None) -> QuadratureResult:
    """Volume integral of f over the domain.

    f maps an (m, n) point array to an (m,) array.  Declared singularities
    must match f's actual singular set (caller contract).  radial_center
    certifies f radial about that center; axis=(point, direction) certifies
    axial symmetry.  Otherwise scrambled-Sobol mixture importance sampling.
    tol is the relative tolerance of the radial rule; an axisymmetric or QMC
    error estimate above tol * |value| raises AccuracyError.
    """
    _check_sigmas(domain)
    n = domain.dim

    # certified radial about the domain center: 1-D reduction
    if radial_center is not None:
        c = np.asarray(radial_center, float)
        c_enc, r_enc = domain.enclosing()
        concentric = np.linalg.norm(c - c_enc) <= 1e-12 * max(1.0, r_enc)
        holes_ok = True
        r_min = 0.0
        if isinstance(domain, BallMinusBalls):
            for b in domain.inner:
                if np.linalg.norm(np.asarray(b.center, float) - c) > 1e-12:
                    holes_ok = False
                else:
                    r_min = max(r_min, b.radius)
        if concentric and holes_ok and not isinstance(domain, (HalfBall,)):
            sigma = 0.0
            feats = []
            for s in getattr(domain, "singularities", ()):
                if np.linalg.norm(np.asarray(s.point, float) - c) <= 1e-12:
                    sigma = max(sigma, s.order)
                    if s.scale > 0:
                        feats.append(s.scale)
            half = isinstance(domain, TruncatedSpace) and domain.half

            def g(r):
                x = c.copy()
                if r > 0:
                    x = c + r * np.eye(n)[min(1, n - 1) if half else 0]
                return float(np.asarray(f(x[None, :])).ravel()[0])

            res = integrate_radial(g, r_enc, n, sigma=sigma, r_min=r_min,
                                   tol=(tol or 1e-11), feature_scales=feats)
            if half:
                res.value *= 0.5
                res.error_estimate *= 0.5
            res.error_estimate += getattr(domain, "tail_bound", 0.0)
            return res

    if axis is not None:
        res = integrate_axisymmetric(f, domain, axis[0], axis[1])
        res.error_estimate += getattr(domain, "tail_bound", 0.0)
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
    total_samples = 0
    for rep in range(replicates):
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
            total_samples += m_per
        reps.append(est)
    reps = np.asarray(reps)
    value = float(np.mean(reps))
    spread = 2.0 * float(np.std(reps, ddof=1))
    spread += getattr(domain, "tail_bound", 0.0)
    res = QuadratureResult(value, spread, "qmc", total_samples)
    return _refuse_unmet(res, tol)


# ---------------------------------------------------------------------------
# Surface path
# ---------------------------------------------------------------------------

def _surface_product_gauss(f, sphere, m):
    """Product Gauss rule on S^{n-1} for n in {2, 3, 4}; exact for low degree."""
    n = sphere.dim
    c = np.asarray(sphere.center, float)
    R = sphere.radius
    if n == 2:
        th = (np.arange(m) + 0.5) * (2 * math.pi / m)
        pts = c + R * np.stack([np.cos(th), np.sin(th)], axis=1)
        vals = np.asarray(f(pts), float)
        return float(np.mean(vals)) * sphere.area()
    if n == 3:
        xs, wx = _gauss_legendre(m)  # cos(theta) in [-1, 1]
        th = (np.arange(2 * m) + 0.5) * (2 * math.pi / (2 * m))
        ct = xs[:, None]
        st = np.sqrt(1 - ct**2)
        pts = np.stack(
            [np.broadcast_to(ct, (m, 2 * m)),
             st * np.cos(th)[None, :],
             st * np.sin(th)[None, :]], axis=-1)
        vals = np.asarray(f(c + R * pts.reshape(-1, 3)), float).reshape(m, 2 * m)
        avg = float(np.sum(wx[:, None] * vals) / (2 * m)) / 2.0
        return avg * sphere.area()
    if n == 4:
        from scipy.special import roots_jacobi
        x1, w1 = roots_jacobi(m, 0.5, 0.5)  # weight (1-x^2)^{1/2}
        x2, w2 = _gauss_legendre(m)
        th = (np.arange(2 * m) + 0.5) * (2 * math.pi / (2 * m))
        pts = []
        wts = []
        for a, wa in zip(x1, w1):
            s1 = math.sqrt(1 - a * a)
            for b, wb in zip(x2, w2):
                s2 = math.sqrt(1 - b * b)
                for t in th:
                    pts.append([a, s1 * b, s1 * s2 * math.cos(t), s1 * s2 * math.sin(t)])
                    wts.append(wa * wb / (2 * m))
        pts = np.asarray(pts)
        wts = np.asarray(wts)
        vals = np.asarray(f(c + R * pts), float)
        # int over S^3 of 1: sum wts * 2пи ... normalize against constant
        ones = np.sum(wts)
        return float(np.sum(wts * vals) / ones) * sphere.area()
    raise ValueError("product rule limited to n <= 4")


def integrate_surface(f, sphere: SphereSurface, tol: float | None = None,
                      seed: int = 0, n_points: int = 2**12,
                      replicates: int = 8, axis=None) -> QuadratureResult:
    """Area integral of f over a sphere.

    Product Gauss rules in the angles for n <= 4; scrambled low-discrepancy
    directions for n >= 5.  axis=direction certifies f axisymmetric about
    the line through the center: 1-D Gauss-Jacobi in the polar angle.
    """
    n = sphere.dim
    c = np.asarray(sphere.center, float)
    R = sphere.radius

    if axis is not None:
        d, e = _axis_frame(axis)
        from scipy.special import roots_jacobi
        lam = 0.5 * (n - 2)  # weight (1-x^2)^{(n-3)/2} in x = cos(theta)
        for m in (48, 96):
            x, wts = roots_jacobi(m, lam - 0.5, lam - 0.5)
            pts = c + R * (x[:, None] * d[None, :] + np.sqrt(1 - x**2)[:, None] * e[None, :])
            vals = np.asarray(f(pts), float)
            est = float(np.sum(wts * vals) / np.sum(wts)) * sphere.area()
            if m == 48:
                prev = est
        return QuadratureResult(est, abs(est - prev), "gauss-jacobi", 144)

    if n <= 4:
        coarse = _surface_product_gauss(f, sphere, 24)
        fine = _surface_product_gauss(f, sphere, 48)
        return QuadratureResult(fine, abs(fine - coarse), "product-gauss")

    from scipy.special import ndtri
    reps = []
    for rep in range(replicates):
        rng = np.random.default_rng([seed, rep])
        sob = qmc.Sobol(d=n, scramble=True, seed=rng)
        z = np.clip(sob.random(n_points), 1e-12, 1 - 1e-12)
        dirs = ndtri(z)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = np.asarray(f(c + R * dirs), float)
        reps.append(float(np.mean(vals)) * sphere.area())
    reps = np.asarray(reps)
    value = float(np.mean(reps))
    spread = 2.0 * float(np.std(reps, ddof=1))
    res = QuadratureResult(value, spread, "qmc", replicates * n_points)
    return _refuse_unmet(res, tol)
