"""Concrete bubble objects: localized rescaled profiles with smooth cutoffs,
positive comparison bubbles and theta weights, explicit kernel elements of the
linearized critical equation, decay-slope measurements, and the lower-order
coefficient integrals used by the sign condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import integrate as _sg

from .fields import (ProductProfile, RadialTermField, RationalProfile,
                     cutoff_profile)
from .jets import Jet
from .quadrature import Ball, sphere_area
from .radial import (RadialFunction, bubble_constant,
                     make_bubble, radial_derivative)

__all__ = [
    "UnsupportedDomainError",
    "DivergentIntegralError",
    "BubbleSpec",
    "CutoffSpec",
    "TensorSpec",
    "BallChart",
    "theta",
    "positive_bubble",
    "eval_V",
    "bubble_field",
    "bubble_jet",
    "check_decay",
    "kernel_elements",
    "compute_IA",
    "check_sign_condition",
]


class UnsupportedDomainError(ValueError):
    """Boundary charts are only available on the unit ball."""


class DivergentIntegralError(ValueError):
    """The requested integral diverges for these (n, k, p)."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass
class BubbleSpec:
    """One bubble: kind, orders (n, k), center, scale and profile.

    profile is "standard" for the positive flat profile, or any object with
    value(points)/jet(x, order) methods (an external jet provider, trusted as
    a solution; no PDE check is imposed on it).
    """

    kind: str  # "interior" | "boundary"
    n: int
    k: int
    center: np.ndarray
    mu: float
    profile: object = "standard"

    def __post_init__(self):
        self.center = np.asarray(self.center, float)
        if self.kind not in ("interior", "boundary"):
            raise ValueError(f"unknown bubble kind {self.kind!r}")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.n <= 2 * self.k:
            raise ValueError("need n > 2k")

    @property
    def a(self) -> float:
        return bubble_constant(self.n, self.k)

    def to_json(self) -> str:
        prof = self.profile if isinstance(self.profile, str) else "external"
        return json.dumps({"kind": self.kind, "n": self.n, "k": self.k,
                           "center": list(map(float, self.center)),
                           "mu": self.mu, "profile": prof})

    @classmethod
    def from_json(cls, text: str) -> "BubbleSpec":
        d = json.loads(text)
        return cls(d["kind"], d["n"], d["k"], d["center"], d["mu"],
                   d.get("profile", "standard"))


@dataclass
class CutoffSpec:
    """The bump chi: exactly 1 on B(0,1/2), exactly 0 outside B(0,1), smooth.

    chi(x) = psi(2(|x|-1/2)) with psi(t) = e^{-1/(1-t)} / (e^{-1/(1-t)} + e^{-1/t})
    clamped outside (0, 1).
    """

    profile: object = dc_field(default_factory=cutoff_profile)

    def __call__(self, rho):
        return self.profile.d(0, np.asarray(rho, float))


# ---------------------------------------------------------------------------
# Boundary chart on the unit ball
# ---------------------------------------------------------------------------

class BallChart:
    """Inward geodesic-normal chart sigma_b at a boundary point of B(0,1).

    sigma_b(z) = (1 - z_1) * exp-map on the sphere of z' from b; z_1 >= 0 is
    the inward normal coordinate, z' tangent coordinates at b.
    """

    def __init__(self, b):
        b = np.asarray(b, float)
        if abs(np.linalg.norm(b) - 1.0) > 1e-10:
            raise UnsupportedDomainError("chart base point must lie on the unit sphere")
        self.b = b / np.linalg.norm(b)
        n = b.size
        # orthonormal tangent frame via QR of a completed basis
        M = np.eye(n)
        M[:, 0] = self.b
        Q, _ = np.linalg.qr(M)
        # ensure first column is exactly +b
        if Q[:, 0] @ self.b < 0:
            Q[:, 0] *= -1
        self.frame = Q[:, 1:]  # n x (n-1)

    def forward(self, z):
        z = np.atleast_2d(np.asarray(z, float))
        z1 = z[:, 0]
        zp = z[:, 1:]
        ang = np.linalg.norm(zp, axis=1)
        out = np.empty((len(z), self.b.size))
        safe = ang > 1e-300
        dirs = np.zeros_like(zp)
        dirs[safe] = zp[safe] / ang[safe, None]
        tang = dirs @ self.frame.T
        sphere_pt = np.cos(ang)[:, None] * self.b[None, :] + np.sin(ang)[:, None] * tang
        out[:] = (1.0 - z1)[:, None] * sphere_pt
        return out

    def inverse(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        r = np.linalg.norm(x, axis=1)
        z1 = 1.0 - r
        y = x / np.maximum(r, 1e-300)[:, None]
        cosang = np.clip(y @ self.b, -1.0, 1.0)
        ang = np.arccos(cosang)
        w = y - cosang[:, None] * self.b[None, :]
        wn = np.linalg.norm(w, axis=1)
        dirs = np.zeros_like(w)
        ok = wn > 1e-14
        dirs[ok] = w[ok] / wn[ok, None]
        zp = ang[:, None] * (dirs @ self.frame)
        return np.concatenate([z1[:, None], zp], axis=1)


# ---------------------------------------------------------------------------
# Pointwise objects
# ---------------------------------------------------------------------------

def theta(spec: BubbleSpec, x) -> np.ndarray:
    """mu + |x - center|; always >= mu > 0."""
    x = np.atleast_2d(np.asarray(x, float))
    return spec.mu + np.linalg.norm(x - spec.center, axis=1)


def positive_bubble(spec: BubbleSpec | None, x) -> np.ndarray:
    """(mu / (mu^2 + a_{n,k} |x - center|^2))^{(n-2k)/2}.

    With spec=None this is the index-0 convention: identically 1.
    """
    x = np.atleast_2d(np.asarray(x, float))
    if spec is None:
        return np.ones(len(x))
    r2 = np.sum((x - spec.center) ** 2, axis=1)
    expo = 0.5 * (spec.n - 2 * spec.k)
    return (spec.mu / (spec.mu**2 + spec.a * r2)) ** expo


def _interior_field(spec: BubbleSpec, bdist: float) -> RadialTermField:
    prof = RationalProfile(make_bubble(spec.n, spec.k), spec.a)
    chi = cutoff_profile()
    combined = ProductProfile([(chi, bdist), (prof, spec.mu)])
    amp = spec.mu ** (-0.5 * (spec.n - 2 * spec.k))
    return RadialTermField.radial(spec.n, spec.center, combined, mu=1.0,
                                  amplitude=amp)


def bubble_field(spec: BubbleSpec, domain: Ball) -> RadialTermField:
    """The localized bubble V as an exact radial field (interior, standard)."""
    if spec.kind != "interior" or spec.profile != "standard":
        raise UnsupportedDomainError("exact fields need interior standard bubbles")
    c, R = np.asarray(domain.center, float), domain.radius
    bdist = R - np.linalg.norm(spec.center - c)
    if bdist <= 0:
        raise ValueError("bubble center outside the domain")
    return _interior_field(spec, bdist)


def eval_V(spec: BubbleSpec, x, domain: Ball) -> np.ndarray:
    """Cutoff-localized rescaled profile:

    interior: chi((x-x0)/dist(x0, boundary)) mu^{-(n-2k)/2} v((x-x0)/mu)
    boundary: chi(sigma^{-1}(x)) mu^{-(n-2k)/2} v(sigma^{-1}(x)/mu)
    """
    x = np.atleast_2d(np.asarray(x, float))
    amp = spec.mu ** (-0.5 * (spec.n - 2 * spec.k))
    chi = cutoff_profile()
    if spec.kind == "interior":
        c, R = np.asarray(domain.center, float), domain.radius
        bdist = R - np.linalg.norm(spec.center - c)
        if bdist <= 0:
            raise ValueError("bubble center outside the domain")
        z = x - spec.center
        rho = np.linalg.norm(z, axis=1)
        cut = chi.d(0, rho / bdist)
        if spec.profile == "standard":
            prof = RationalProfile(make_bubble(spec.n, spec.k), spec.a)
            vals = prof.d(0, rho / spec.mu)
        else:
            vals = np.asarray(spec.profile.value(z / spec.mu), float)
        return cut * amp * vals
    # boundary bubble: needs the unit-ball chart
    c, R = np.asarray(domain.center, float), domain.radius
    if np.linalg.norm(c) > 1e-12 or abs(R - 1.0) > 1e-12:
        raise UnsupportedDomainError("boundary charts implemented for the unit ball only")
    chart = BallChart(spec.center)
    z = chart.inverse(x)
    cut = chi.d(0, np.linalg.norm(z, axis=1))
    if spec.profile == "standard":
        prof = RationalProfile(make_bubble(spec.n, spec.k), spec.a)
        vals = prof.d(0, np.linalg.norm(z, axis=1) / spec.mu)
    else:
        vals = np.asarray(spec.profile.value(z / spec.mu), float)
    return cut * amp * vals


def bubble_jet(spec: BubbleSpec, x, order: int, domain: Ball | None = None) -> Jet:
    """Exact partial derivatives of V at x up to the given order <= 2k."""
    if order > 2 * spec.k:
        raise ValueError(f"order {order} exceeds 2k = {2 * spec.k}")
    if spec.profile != "standard":
        raise ValueError("jets only for the standard positive profile")
    if spec.kind != "interior":
        raise UnsupportedDomainError("exact jets implemented for interior bubbles")
    dom = domain if domain is not None else Ball((0.0,) * spec.n, 1.0)
    return bubble_field(spec, dom).jet(np.asarray(x, float), order)


# ---------------------------------------------------------------------------
# Decay slopes
# ---------------------------------------------------------------------------

def check_decay(n: int, k: int, l: int, radii=None) -> dict:
    """Log-log slope of |nabla^l B| along large radii vs the target 2k-n-l."""
    if not 0 <= l <= 2 * k:
        raise ValueError("need 0 <= l <= 2k")
    if radii is None:
        radii = np.geomspace(1e3, 1e5, 7)
    radii = np.asarray(radii, float)
    if radii.max() < 1e3 or np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be increasing with max >= 1e3")
    F = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), bubble_constant(n, k)))
    pts = np.zeros((len(radii), n))
    pts[:, 0] = radii
    mags = F.tensor_norm(l, pts) if l > 0 else np.abs(F.value(pts))
    slope = float(np.polyfit(np.log(radii), np.log(mags), 1)[0])
    target = 2 * k - n - l
    return {"n": n, "k": k, "l": l, "slope": slope, "target": target,
            "deviation": abs(slope - target)}


# ---------------------------------------------------------------------------
# Kernel elements of the linearized equation at the standard bubble
# ---------------------------------------------------------------------------

def _r_shift(rf: RadialFunction) -> RadialFunction:
    """Multiply a radial function by r (p -> p+1 termwise)."""
    return RadialFunction(rf.n, rf.M,
                          {(p + 1, t, e): c for (p, t, e), c in rf.terms.items()})


def kernel_elements(n: int, k: int) -> list[RadialTermField]:
    """The n+1 explicit kernel fields at v = B:

    Z_0 = (n-2k)/2 B + x . grad B   (dilation),
    Z_i = d_i B                     (translations, i = 1..n).
    """
    from fractions import Fraction

    a = bubble_constant(n, k)
    B = make_bubble(n, k)
    z0_rf = B * Fraction(n - 2 * k, 2) + _r_shift(radial_derivative(B))
    fields = [RadialTermField.radial(n, np.zeros(n), RationalProfile(z0_rf, a))]
    # d_i B = x_i * h(rho), h = -(n-2k) a (1+a r^2)^{-(n-2k+2)/2}
    h_rf = RadialFunction(n, n - 2 * k, {(0, 1, 1): -(n - 2 * k)})
    for i in range(n):
        beta0 = tuple(1 if j == i else 0 for j in range(n))
        fields.append(RadialTermField(n, np.zeros(n),
                                      [(beta0, RationalProfile(h_rf, a))]))
    return fields


# ---------------------------------------------------------------------------
# Lower-order coefficient integrals I_A at the standard bubble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorSpec:
    """Constant symmetric (2p,0)-tensor in a supported class.

    kind "iso": data is the scalar multiple of the canonical inner product.
    kind "diag": p=1 -> data is the vector (a_i); p=2 -> the matrix (a_ij)
    acting as sum a_ij (d_ij u)^2.
    """

    p: int
    kind: str
    data: object

    def __post_init__(self):
        if self.kind not in ("iso", "diag"):
            raise ValueError(f"unsupported tensor class {self.kind!r}")
        if self.p > 2:
            raise ValueError("tensor classes implemented for p <= 2 only")
        if self.p == 0 and self.kind != "iso":
            raise ValueError("p = 0 tensors are scalars")


def _radial_moment(h) -> float:
    """int_0^inf h(r) dr by adaptive quadrature."""
    val, _ = _sg.quad(h, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def compute_IA(tensor: TensorSpec, n: int, k: int, p: int,
               half_space: bool = False, mu: float = 1.0) -> float:
    """int A_p(grad^p u, grad^p u) for u the (mu-rescaled) standard bubble,
    over R^n, or over R^n_+ with the restricted bubble as stand-in weight.

    Requires n > 4k - 2p so that grad^p B is square integrable.
    """
    if not 0 <= p <= k - 1:
        raise ValueError("need 0 <= p <= k-1")
    if tensor.p != p:
        raise ValueError("tensor order does not match p")
    if n <= 4 * k - 2 * p:
        raise DivergentIntegralError(
            f"integral diverges: need n > 4k-2p = {4 * k - 2 * p}, got n={n}")
    a = bubble_constant(n, k)
    prof = RationalProfile(make_bubble(n, k), a)
    amp = mu ** (-0.5 * (n - 2 * k))

    def g0(r):
        return amp * prof.d(0, r / mu)

    def g1(r):
        return amp / mu * prof.d(1, r / mu)

    def g2(r):
        return amp / mu**2 * prof.d(2, r / mu)

    area = sphere_area(n)
    if p == 0:
        lam = float(tensor.data)
        val = lam * area * _radial_moment(lambda r: g0(r) ** 2 * r ** (n - 1))
    elif p == 1:
        m1 = area * _radial_moment(lambda r: g1(r) ** 2 * r ** (n - 1))
        if tensor.kind == "iso":
            val = float(tensor.data) * m1
        else:
            ai = np.asarray(tensor.data, float)
            if ai.shape != (n,):
                raise ValueError("diagonal p=1 tensor needs n entries")
            val = float(np.sum(ai)) / n * m1
    else:  # p == 2
        if tensor.kind == "iso":
            lam = float(tensor.data)
            val = lam * area * _radial_moment(
                lambda r: (g2(r) ** 2 + (n - 1) * (g1(r) / r) ** 2) * r ** (n - 1)
                if r > 0 else 0.0)
        else:
            aij = np.asarray(tensor.data, float)
            if aij.shape != (n, n):
                raise ValueError("diagonal p=2 tensor needs an n x n matrix")
            off = float(np.sum(aij) - np.trace(aij))
            dia = float(np.trace(aij))

            def integrand(r):
                if r == 0:
                    return 0.0
                A = g2(r) - g1(r) / r
                C = g1(r) / r
                term_off = off * A**2 / (n * (n + 2))
                term_dia = dia * (3 * A**2 / (n * (n + 2)) + 2 * A * C / n + C**2)
                return (term_off + term_dia) * r ** (n - 1)

            val = area * _radial_moment(integrand)
    return 0.5 * val if half_space else val


def check_sign_condition(samples: list[TensorSpec], n: int, k: int, p: int) -> dict:
    """Sign verdict for the coefficient integrals at the standard bubble.

    Only the standard-bubble instance is computable: the underlying condition
    quantifies over all finite-energy solutions of the limiting equations, so
    a "positive"/"negative" verdict here is necessary, not sufficient.
    Any vanishing integral yields "violated" with the witness attached.
    """
    values = []
    for ts in samples:
        for half in (False, True):
            values.append((ts, half, compute_IA(ts, n, k, p, half_space=half)))
    eps = 1e-14
    if any(abs(v) <= eps * (1 + abs(v)) for _, _, v in values):
        wit = [rec for rec in values if abs(rec[2]) <= eps][:1]
        return {"verdict": "violated", "witness": wit, "values": values}
    signs = {v > 0 for _, _, v in values}
    if len(signs) > 1:
        return {"verdict": "violated", "witness": None, "values": values}
    return {"verdict": "positive" if values[0][2] > 0 else "negative",
            "witness": None, "values": values}
