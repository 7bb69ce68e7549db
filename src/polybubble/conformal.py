"""Cayley transform between the unit ball and the upper half-space
{x_1 > 0}, with numerical checks of its exact identities: the distance
identity, critical-norm and derivative-norm invariance, and the conjugation
of iterated Laplacians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import fd_laplacian_iter, fd_partial
from .quadrature import (Ball, TruncatedSpace, integrate_axisymmetric,
                         row_sq_norms)

__all__ = [
    "SingularPointError",
    "CayleyMap",
    "HalfSpaceBump",
    "GaussianXPow",
    "check_distance_identity",
    "check_norm_invariance",
    "check_laplacian_conjugation",
]

_INVARIANCE_TOL = 1e-5  # relative difference check_norm_invariance accepts
_GAUSS_CUT = 5.0  # GaussianXPow's norm integrals stop at _GAUSS_CUT + |c|


class SingularPointError(ValueError):
    """The map is singular at y = -e_1."""


@dataclass
class CayleyMap:
    """phi(y) = (y+e_1)/|y+e_1|^2 - e_1/2 maps B(0,1) onto {x_1 > 0}.

    phi(0) = e_1/2 and the boundary sphere minus {-e_1} goes to {x_1 = 0}.
    """

    n: int

    @property
    def e1(self):
        e = np.zeros(self.n)
        e[0] = 1.0
        return e

    def phi(self, y):
        y = np.atleast_2d(np.asarray(y, float))
        w = y + self.e1
        nw2 = row_sq_norms(w)
        if np.any(nw2 < 1e-28):
            raise SingularPointError("phi is singular at y = -e_1")
        return w / nw2[:, None] - 0.5 * self.e1

    def phi_inv(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        w = x + 0.5 * self.e1
        nw2 = row_sq_norms(w)
        if np.any(nw2 < 1e-28):
            raise SingularPointError("phi_inv is singular at x = -e_1/2")
        return w / nw2[:, None] - self.e1

    def jacobian_factor(self, y):
        """|y + e_1|; |det D phi| = this to the power -2n."""
        y = np.atleast_2d(np.asarray(y, float))
        return np.sqrt(row_sq_norms(y + self.e1))

    def cayley_transform(self, u, k: int, y):
        """u*(y) = |y+e_1|^{2k-n} u(phi(y)) for a provider u on the half-space."""
        y = np.atleast_2d(np.asarray(y, float))
        fac = self.jacobian_factor(y) ** (2 * k - self.n)
        return fac * np.asarray(u.value(self.phi(y)), float)


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
# Test profiles on the half-space
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
        self.tail_bound = 0.0
        self.feature_balls = [Ball(tuple(self.center), self.radius)]

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        s2 = row_sq_norms(x - self.center) / self.radius**2
        out = np.zeros(len(x))
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
        # crude analytic tail bound for the norm integrals beyond the cut
        self.tail_bound = math.exp(-(_GAUSS_CUT**2)) * self.support_radius ** (2 * k + n)
        self.feature_balls = [Ball(tuple(self.center), 1.5),
                              Ball(tuple(self.center), 3.0)]

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        return x[:, 0] ** self.k * np.exp(-row_sq_norms(x - self.center))


# ---------------------------------------------------------------------------
# Norm invariance
# ---------------------------------------------------------------------------

def check_norm_invariance(u, n: int, k: int) -> dict:
    """Both invariances of the Cayley transform for a decaying profile u:

    critical:   int_B |u*|^{2#} = int_{R^n_+} |u|^{2#}
    derivative: int_B |(-D)^{k/2} u*|^2 = int_{R^n_+} |(-D)^{k/2} u|^2

    each passing at relative difference below _INVARIANCE_TOL.

    (-D)^{k/2} means grad (-Delta)^{(k-1)/2} for odd k.  Derivatives are
    taken by Richardson-extrapolated finite differences of the profile and
    of its transform; each integral is done independently on its own side.
    """
    cm = CayleyMap(n)
    two_sharp = 2.0 * n / (n - 2 * k)
    e1 = cm.e1

    def ustar(y):
        return cm.cayley_transform(u, k, y)

    ball = Ball((0.0,) * n, 1.0)
    half = TruncatedSpace(n, u.support_radius, half=True,
                          tail_bound=getattr(u, "tail_bound", 0.0))
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

    qopt = dict(n_phi=20, n_rho=20)
    lhs_c = integrate_axisymmetric(lambda y: np.abs(ustar(y)) ** two_sharp,
                                   ball, *axis, feature_balls=feats_ball, **qopt)
    rhs_c = integrate_axisymmetric(lambda x: np.abs(u.value(x)) ** two_sharp,
                                   half, *axis, feature_balls=feats_half, **qopt)
    rel_c = abs(lhs_c.value - rhs_c.value) / max(abs(rhs_c.value), 1e-300)

    def deriv_sq(value, pts, h0):
        # |(-Delta)^{k/2}|^2 with Richardson in h
        if k % 2:
            m = (k - 1) // 2

            def vmid(q):
                return fd_laplacian_iter(value, q, m, h0)

            def grad_sq(h):
                return sum(fd_partial(vmid, pts, (i,), h) ** 2 for i in range(n))

            return (4 * grad_sq(h0 / 2) - grad_sq(h0)) / 3
        m = k // 2
        l1 = fd_laplacian_iter(value, pts, m, h0)
        l2 = fd_laplacian_iter(value, pts, m, h0 / 2)
        return ((4 * l2 - l1) / 3) ** 2

    h_ball, h_half = 2e-3, 2e-3
    lhs_d = integrate_axisymmetric(lambda y: deriv_sq(ustar, y, h_ball),
                                   ball, *axis, feature_balls=feats_ball, **qopt)
    rhs_d = integrate_axisymmetric(lambda x: deriv_sq(u.value, x, h_half),
                                   half, *axis, feature_balls=feats_half, **qopt)
    rel_d = abs(lhs_d.value - rhs_d.value) / max(abs(rhs_d.value), 1e-300)

    return {
        "critical": (lhs_c.value, rhs_c.value, rel_c),
        "derivative": (lhs_d.value, rhs_d.value, rel_d),
        "tol": _INVARIANCE_TOL,
        "passed": (rel_c < _INVARIANCE_TOL) and (rel_d < _INVARIANCE_TOL),
    }


def check_laplacian_conjugation(v, y, k: int, h: float | None = None) -> dict:
    """Residual of (-Delta)^k v*(y) = |y+e_1|^{-n-2k} (-Delta)^k v(phi(y))
    via finite-difference Laplacians with Richardson extrapolation.

    Returns the residual together with an FD truncation estimate taken from
    the difference of the two step sizes; near y = -e_1 the conditioning
    degrades and a warning flag is set.
    """
    y = np.asarray(y, float)
    n = y.size
    cm = CayleyMap(n)
    if h is None:
        h = 1e-3 * (1.0 + np.linalg.norm(y + cm.e1))

    def ustar(q):
        return cm.cayley_transform(v, k, q)

    x = cm.phi(y[None, :])[0]
    fac = np.linalg.norm(y + cm.e1) ** (-(n + 2 * k))

    def both(hh):
        lhs = fd_laplacian_iter(ustar, y, k, hh)
        rhs = fac * fd_laplacian_iter(v.value, x, k, hh)
        return lhs, rhs

    (l1, r1) = both(h)
    (l2, r2) = both(h / 2)
    lhs = (4 * l2 - l1) / 3
    rhs = (4 * r2 - r1) / 3
    fd_err = (abs(l2 - l1) + abs(r2 - r1)) / 3
    return {
        "residual": abs(lhs - rhs),
        "fd_error": fd_err,
        "lhs": lhs,
        "rhs": rhs,
        "conditioning_warning": bool(np.linalg.norm(y + cm.e1) < 1e-2),
    }
