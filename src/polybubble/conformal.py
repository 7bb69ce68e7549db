"""Cayley transform between the unit ball and the upper half-space
{x_1 > 0}, with numerical checks of its exact identities: the distance
identity and the critical-norm and derivative-norm invariances.

Every derivative is exact up to rounding: the map, the transform and the
profiles take Taylor coordinates (jets.Taylor) through the code that
evaluates them at points, and Laplacian powers and their gradients come
from the Taylor coefficients of t -> f(x + t theta) averaged over a finite
set of directions theta (_taylor_derivative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Taylor
from .quadrature import (Ball, HalfBall, _sphere_rule, as_points,
                         integrate_axisymmetric, row_sq_norms)
from .radial import critical_exponent

__all__ = [
    "SingularPointError",
    "CayleyMap",
    "HalfSpaceBump",
    "GaussianXPow",
    "check_distance_identity",
    "check_norm_invariance",
]

_INVARIANCE_TOL = 1e-5  # relative difference check_norm_invariance accepts
_GAUSS_CUT = 5.0  # GaussianXPow's norm integrals stop at _GAUSS_CUT + |c|


class SingularPointError(ValueError):
    """The map is singular at y = -e_1."""


@dataclass
class CayleyMap:
    """phi(y) = (y+e_1)/|y+e_1|^2 - e_1/2 maps B(0,1) onto {x_1 > 0}.

    phi(0) = e_1/2 and the boundary sphere minus {-e_1} goes to {x_1 = 0}.
    phi and cayley_transform take an (m, n) batch of points or Taylor
    coordinates of one.
    """

    n: int

    @property
    def e1(self):
        e = np.zeros(self.n)
        e[0] = 1.0
        return e

    def _shifted(self, y):
        """w = y + e_1 and |w|^2, shared by phi and cayley_transform."""
        w = as_points(y) + self.e1
        return w, row_sq_norms(w)

    def _phi(self, w, nw2):
        if np.any(nw2 < 1e-28):
            raise SingularPointError("phi is singular at y = -e_1")
        return w / nw2[:, None] - 0.5 * self.e1

    def phi(self, y):
        return self._phi(*self._shifted(y))

    def phi_inv(self, x):
        x = as_points(x)
        w = x + 0.5 * self.e1
        nw2 = row_sq_norms(w)
        if np.any(nw2 < 1e-28):
            raise SingularPointError("phi_inv is singular at x = -e_1/2")
        return w / nw2[:, None] - self.e1

    def cayley_transform(self, u, k: int, y):
        """u*(y) = |y+e_1|^{2k-n} u(phi(y)) for a provider u on the half-space."""
        w, nw2 = self._shifted(y)
        return np.sqrt(nw2) ** (2 * k - self.n) * u.value(self._phi(w, nw2))


def check_distance_identity(x, y) -> float:
    """| |phi(x)-phi(y)| * |x+e_1| * |y+e_1| - |x-y| | for interior points."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    cm = CayleyMap(x.size)
    px = cm.phi(x[None, :])[0]
    py = cm.phi(y[None, :])[0]
    lhs = np.linalg.norm(px - py) * np.linalg.norm(x + cm.e1) * np.linalg.norm(y + cm.e1)
    return abs(lhs - np.linalg.norm(x - y))


# ---------------------------------------------------------------------------
# Test profiles on the half-space.  value(x) takes an (m, n) batch of points
# or Taylor coordinates of one, through the same code.
# ---------------------------------------------------------------------------

class HalfSpaceBump:
    """Smooth compactly supported bump exp(-1/(1 - |x-c|^2/R^2)) in B(c, R),
    c = 0.6 e_1, R = 0.35, a support ball strictly inside the half-space."""

    radius = 0.35

    def __init__(self, n: int):
        self.n = n
        self.center = np.zeros(n)
        self.center[0] = 0.6
        self.support_radius = float(np.linalg.norm(self.center) + self.radius)
        self.feature_balls = [Ball(tuple(self.center), self.radius)]

    def value(self, x):
        x = as_points(x)
        s2 = row_sq_norms(x - self.center) / self.radius**2
        out = 0.0 * s2
        inside = s2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
        return out


class GaussianXPow:
    """x_1^k exp(-|x - c|^2) with c on the e_1 axis, vanishing to order k on
    {x_1 = 0}."""

    def __init__(self, n: int, k: int, shift: float = 0.0):
        self.n = n
        self.k = k
        self.center = np.zeros(n)
        self.center[0] = shift
        self.support_radius = _GAUSS_CUT + abs(shift)
        self.feature_balls = [Ball(tuple(self.center), 1.5),
                              Ball(tuple(self.center), 3.0)]

    def value(self, x):
        x = as_points(x)
        return x[:, 0] ** self.k * np.exp(-row_sq_norms(x - self.center))


# ---------------------------------------------------------------------------
# Derivatives from directional Taylor coefficients
# ---------------------------------------------------------------------------

def _direction_rule(n: int, degree: int):
    """Directions theta (one of each pair +-theta) and weights whose weighted
    sum of any even polynomial of degree <= degree in theta is its mean over
    S^{n-1}: the axes to degree 3; the axes and the (e_i +- e_j)/sqrt 2 to
    degree 5; beyond that the product Gauss rule, with both of each pair."""
    eye = np.eye(n)
    if degree <= 3:
        return eye, np.full(n, 1.0 / n)
    if degree <= 5:
        i, j = np.triu_indices(n, 1)
        diag = np.concatenate([eye[i] + eye[j], eye[i] - eye[j]]) / math.sqrt(2)
        w = np.concatenate([np.full(n, (4.0 - n) / (n * (n + 2))),
                            np.full(len(diag), 2.0 / (n * (n + 2)))])
        return np.concatenate([eye, diag]), w
    nodes, w = _sphere_rule(n, degree // 2 + 1)
    return nodes, w / w.sum()


def _taylor_derivative(f, pts, j: int):
    """Delta^m f (j = 2m, shape (N,)) or grad Delta^m f (j = 2m + 1, shape
    (N, n)) at pts (N, n), from the j-th Taylor coefficient c_j(theta) of
    t -> f(pts + t theta), through the exact identities

        mean_theta d_theta^{2m} f = (2m-1)!! / (n (n+2) ... (n+2m-2)) Delta^m f,
        mean_theta theta d_theta^{2m+1} f
            = (2m+1)!! / (n (n+2) ... (n+2m)) grad Delta^m f,

    with d_theta^j f = j! c_j and the mean taken by a rule exact to degree
    j + (j odd).  f maps Taylor coordinates of points to a series; the
    directions are evaluated one at a time.
    """
    n = pts.shape[1]
    dirs, weights = _direction_rule(n, j + j % 2)
    scale = math.factorial(j) * math.prod((n + 2 * i) / (2 * i + 1)
                                          for i in range((j + 1) // 2))
    line = Taylor.line(pts, 0.0, j)
    acc = 0.0
    for theta, w in zip(dirs, weights):
        line.c[1] = theta  # t -> pts + t theta
        cj = f(line).c[j]
        acc = acc + w * (cj[:, None] * theta if j % 2 else cj)
    return scale * acc


# ---------------------------------------------------------------------------
# Norm invariance
# ---------------------------------------------------------------------------

def check_norm_invariance(u, n: int, k: int) -> dict:
    """Both invariances of the Cayley transform for a decaying profile u:

    critical:   int_B |u*|^{2#} = int_{R^n_+} |u|^{2#}
    derivative: int_B |(-D)^{k/2} u*|^2 = int_{R^n_+} |(-D)^{k/2} u|^2

    each passing at relative difference below _INVARIANCE_TOL.

    (-D)^{k/2} means grad (-Delta)^{(k-1)/2} for odd k.  The integrand is
    (Delta^m u)^2 for k = 2m and |grad Delta^m u|^2 for k = 2m + 1, taken
    exactly from order-k Taylor expansions of the profile and of its
    transform along a direction rule (_taylor_derivative).  Each side is
    done independently on its own rule, both integrands of a side as one
    stack.
    """
    cm = CayleyMap(n)
    two_sharp = critical_exponent(n, k)
    e1 = cm.e1

    def ustar(y):
        return cm.cayley_transform(u, k, y)

    ball = Ball((0.0,) * n, 1.0)
    half = HalfBall((0.0,) * n, u.support_radius)
    axis = (np.zeros(n), e1)

    # feature spheres on the half-space side map to spheres on the ball side
    # (the inverse map is a Moebius transformation); both axis crossings of
    # the image sphere determine it.
    feats_half = list(getattr(u, "feature_balls", ()))
    feats_ball = []
    for b in feats_half:
        c1 = b.center[0]
        lo = cm.phi_inv(np.array([[c1 - b.radius] + [0.0] * (n - 1)]))[0][0]
        hi = cm.phi_inv(np.array([[c1 + b.radius] + [0.0] * (n - 1)]))[0][0]
        ctr = [0.5 * (lo + hi)] + [0.0] * (n - 1)
        rad = 0.5 * abs(hi - lo)
        if rad > 1e-12:
            feats_ball.append(Ball(tuple(ctr), rad))

    def side(f, domain, feats):
        """[critical, derivative] integrals of the profile f over domain."""
        def rows(x):
            x = np.asarray(x)
            d = _taylor_derivative(f, x, k)
            return np.stack([np.abs(f(x)) ** two_sharp,
                             row_sq_norms(d) if k % 2 else d * d])
        return integrate_axisymmetric(rows, domain, *axis, feature_balls=feats,
                                      n_phi=20, n_rho=20).value

    lhs = side(ustar, ball, feats_ball)
    rhs = side(u.value, half, feats_half)
    crit, deriv = ((a, b, abs(a - b) / max(abs(b), 1e-300))
                   for a, b in zip(lhs.tolist(), rhs.tolist()))
    return {
        "critical": crit,
        "derivative": deriv,
        "tol": _INVARIANCE_TOL,
        "passed": (crit[2] < _INVARIANCE_TOL) and (deriv[2] < _INVARIANCE_TOL),
    }
