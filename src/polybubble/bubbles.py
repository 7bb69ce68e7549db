"""Concrete bubble objects: the interior bubble spec, positive comparison
bubbles and theta weights, and decay-slope measurements of the unit bubble.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fields import RadialTermField, RationalProfile
from .quadrature import sq_dist
from .radial import bubble_constant, critical_exponent, make_bubble

__all__ = [
    "BubbleSpec",
    "theta",
    "positive_bubble",
    "check_decay",
]


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
