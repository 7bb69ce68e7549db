"""Concrete bubble objects: localized rescaled profiles with smooth cutoffs,
positive comparison bubbles and theta weights, explicit kernel elements of the
linearized critical equation, decay-slope measurements, and the lower-order
coefficient integrals used by the sign condition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import (CutoffProfile, ProductProfile, RadialTermField,
                     RationalProfile)
from .quadrature import Ball, integrate_radial, sq_dist
from .radial import (RadialFunction, bubble_constant, critical_exponent,
                     make_bubble, radial_derivative)

__all__ = [
    "DivergentIntegralError",
    "BubbleSpec",
    "TensorSpec",
    "theta",
    "positive_bubble",
    "bubble_field",
    "check_decay",
    "kernel_elements",
    "compute_IA",
    "check_sign_condition",
]


class DivergentIntegralError(ValueError):
    """The requested integral diverges for these (n, k, p)."""


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

def _json_object(d, what: str, keys=None) -> dict:
    """d when it is a parsed JSON object whose keys all lie in keys (any
    key when keys is None); ValueError otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(d).__name__}")
    extra = [key for key in d if keys is not None and key not in keys]
    if extra:
        raise ValueError(f"{what} takes no key {extra[0]!r}")
    return d


@dataclass
class BubbleSpec:
    """One interior bubble with the standard positive profile: orders (n, k),
    center (n,) and scale.  kind is "interior", the only kind there is."""

    kind: str
    n: int
    k: int
    center: np.ndarray
    mu: float

    def __post_init__(self):
        self.center = np.asarray(self.center, float)
        if self.kind != "interior":
            raise ValueError(f"unknown bubble kind {self.kind!r} "
                             "(only interior bubbles exist)")
        critical_exponent(self.n, self.k)
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if self.center.shape != (self.n,):
            raise ValueError(f"bubble center needs shape ({self.n},), "
                             f"got {self.center.shape}")
        if not np.isfinite(self.center).all():
            raise ValueError("bubble center entries must be finite")

    @property
    def a(self) -> float:
        return bubble_constant(self.n, self.k)

    def to_json(self) -> str:
        return json.dumps({"kind": self.kind, "n": self.n, "k": self.k,
                           "center": list(map(float, self.center)),
                           "mu": self.mu, "profile": "standard"})

    @classmethod
    def from_dict(cls, d: dict) -> "BubbleSpec":
        """The spec of a parsed JSON record with the keys to_json writes; its
        optional "profile" must be "standard"."""
        _json_object(d, "bubble", ("kind", "n", "k", "center", "mu", "profile"))
        spec = cls(d["kind"], d["n"], d["k"], d["center"], d["mu"])
        if d.get("profile", "standard") != "standard":
            raise ValueError(f"unknown bubble profile {d['profile']!r} "
                             "(only the standard profile exists)")
        return spec


# ---------------------------------------------------------------------------
# Pointwise objects
# ---------------------------------------------------------------------------

def theta(spec: BubbleSpec, x) -> np.ndarray:
    """mu + |x - center| at the points x: an (m, n) array, one point or the
    AxisNodes of an axisymmetric rule (quadrature.sq_dist); always >= mu > 0."""
    return spec.mu + np.sqrt(sq_dist(x, spec.center))


def positive_bubble(spec: BubbleSpec, x) -> np.ndarray:
    """(mu / (mu^2 + a_{n,k} |x - center|^2))^{(n-2k)/2}.

    x takes what theta takes.
    """
    r2 = sq_dist(x, spec.center)
    expo = 0.5 * (spec.n - 2 * spec.k)
    return (spec.mu / (spec.mu**2 + spec.a * r2)) ** expo


def _localized(spec: BubbleSpec, domain: Ball, unit: RadialTermField,
               scale: float = 1.0) -> RadialTermField:
    """The field F = unit, given at unit scale about 0, localized at spec:
    scale chi((x-x0)/d) mu^{-(n-2k)/2} F((x-x0)/mu), d = dist(x0, boundary),
    with the cutoff chi (fields.CutoffProfile: 1 on |z| <= 1/2, 0 on
    |z| >= 1) wrapped around every component of F."""
    c, R = np.asarray(domain.center, float), domain.radius
    bdist = R - np.linalg.norm(spec.center - c)
    if bdist <= 0:
        raise ValueError("bubble center outside the domain")
    chi = CutoffProfile()
    comps = [(comp.beta0, ProductProfile([(chi, bdist / spec.mu), (comp.profile, 1.0)]),
              comp.coeff) for comp in unit.components]
    amp = scale * spec.mu ** (-0.5 * (spec.n - 2 * spec.k))
    return RadialTermField(spec.n, spec.center, comps, mu=spec.mu, amplitude=amp)


def bubble_field(spec: BubbleSpec, domain: Ball) -> RadialTermField:
    """The localized bubble V(x) = chi((x-x0)/d) mu^{-(n-2k)/2} B((x-x0)/mu)
    as an exact radial field: _localized applied to the unit bubble B.  Its
    .value gives V at points and its .jet the exact partials of V."""
    unit = RadialTermField.radial(spec.n, np.zeros(spec.n),
                                  RationalProfile(make_bubble(spec.n, spec.k), spec.a))
    return _localized(spec, domain, unit)


# ---------------------------------------------------------------------------
# Decay slopes
# ---------------------------------------------------------------------------

_DECAY_RADII = np.geomspace(1e3, 1e5, 7)  # where check_decay fits its slope


def check_decay(n: int, k: int, l: int) -> dict:
    """Log-log slope of |nabla^l B| at the radii _DECAY_RADII (1e3 ... 1e5)
    vs the target 2k-n-l."""
    if not 0 <= l <= 2 * k:
        raise ValueError("need 0 <= l <= 2k")
    F = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), bubble_constant(n, k)))
    pts = np.zeros((len(_DECAY_RADII), n))
    pts[:, 0] = _DECAY_RADII
    mags = F.tensor_norm(l, pts) if l > 0 else np.abs(F.value(pts))
    slope = float(np.polyfit(np.log(_DECAY_RADII), np.log(mags), 1)[0])
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


def compute_IA(tensor: TensorSpec, n: int, k: int, *,
               half_space: bool = False) -> float:
    """int A_p(grad^p u, grad^p u) for u the standard bubble and p = tensor.p,
    over R^n, or over R^n_+ with the restricted bubble as stand-in weight.

    Requires 0 <= p <= k-1, and n > 4k - 2p so that grad^p B is square
    integrable.
    """
    p = tensor.p
    if not 0 <= p <= k - 1:
        raise ValueError("need 0 <= p <= k-1")
    if n <= 4 * k - 2 * p:
        raise DivergentIntegralError(
            f"integral diverges: need n > 4k-2p = {4 * k - 2 * p}, got n={n}")
    a = bubble_constant(n, k)
    B0 = make_bubble(n, k)
    B1 = radial_derivative(B0)
    B2 = radial_derivative(B1)

    if p == 0:
        lam = float(tensor.data)
        val = lam * integrate_radial(lambda r: B0(r, a) ** 2, np.inf, n).value
    elif p == 1:
        m1 = integrate_radial(lambda r: B1(r, a) ** 2, np.inf, n).value
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
            val = lam * integrate_radial(
                lambda r: B2(r, a) ** 2 + (n - 1) * (B1(r, a) / r) ** 2 if r > 0 else 0.0,
                np.inf, n).value
        else:
            aij = np.asarray(tensor.data, float)
            if aij.shape != (n, n):
                raise ValueError("diagonal p=2 tensor needs an n x n matrix")
            off = float(np.sum(aij) - np.trace(aij))
            dia = float(np.trace(aij))

            def integrand(r):
                if r == 0:
                    return 0.0
                A = B2(r, a) - B1(r, a) / r
                C = B1(r, a) / r
                term_off = off * A**2 / (n * (n + 2))
                term_dia = dia * (3 * A**2 / (n * (n + 2)) + 2 * A * C / n + C**2)
                return term_off + term_dia

            val = integrate_radial(integrand, np.inf, n).value
    return 0.5 * val if half_space else val


def check_sign_condition(samples: list[TensorSpec], n: int, k: int) -> dict:
    """Sign verdict for the coefficient integrals at the standard bubble, for
    samples that share one tensor order p (ValueError otherwise).

    Only the standard-bubble instance is computable: the underlying condition
    quantifies over all finite-energy solutions of the limiting equations, so
    a "positive"/"negative" verdict here is necessary, not sufficient.
    Any vanishing integral yields "violated" with the witness attached.
    """
    if len({ts.p for ts in samples}) != 1:
        raise ValueError("the samples must share one tensor order p")
    values = []
    for ts in samples:
        for half in (False, True):
            values.append((ts, half, compute_IA(ts, n, k, half_space=half)))
    eps = 1e-14
    if any(abs(v) <= eps * (1 + abs(v)) for _, _, v in values):
        wit = [rec for rec in values if abs(rec[2]) <= eps][:1]
        return {"verdict": "violated", "witness": wit, "values": values}
    signs = {v > 0 for _, _, v in values}
    if len(signs) > 1:
        return {"verdict": "violated", "witness": None, "values": values}
    return {"verdict": "positive" if values[0][2] > 0 else "negative",
            "witness": None, "values": values}
