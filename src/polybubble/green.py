"""Polyharmonic Dirichlet Green functions of the unit ball and the upper
half-space, in Boggio form with the kernel normalized to kappa = 1, and the
conformal conjugation identity relating the two.

G(x,y) = |x-y|^{2k-n} int_1^{sqrt(1+psi)} (t^2-1)^{k-1} t^{1-n} dt, with
psi(x,y) = (1-|x|^2)(1-|y|^2)/|x-y|^2 on the ball and 4 x_1 y_1/|x-y|^2 on
the half-space.  kappa_{k,n} is never pinned down numerically in the source
material and every identity implemented here is kappa-homogeneous, so the
normalized kernel is used throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .conformal import CayleyMap
from .radial import critical_exponent

__all__ = [
    "psi_ball",
    "psi_half",
    "kernel_integral",
    "green_ball",
    "green_half",
    "check_conformal_relation",
]


def psi_ball(x, y) -> float:
    """(1-|x|^2)(1-|y|^2)/|x-y|^2 for distinct points of the unit ball."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d2 = float(np.sum((x - y) ** 2))
    if d2 == 0.0:
        raise ValueError("psi is singular on the diagonal x = y")
    return float((1.0 - x @ x) * (1.0 - y @ y) / d2)


def psi_half(x, y) -> float:
    """4 x_1 y_1 / |x-y|^2 for distinct points of the half-space {x_1 > 0}."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d2 = float(np.sum((x - y) ** 2))
    if d2 == 0.0:
        raise ValueError("psi is singular on the diagonal x = y")
    return float(4.0 * x[0] * y[0] / d2)


def kernel_integral(s: float, k: int, n: int) -> float:
    """int_1^s (t^2-1)^{k-1} t^{1-n} dt in closed form.

    Binomial expansion gives sum_j C(k-1,j)(-1)^{k-1-j} [t^{2j+2-n}/(2j+2-n)],
    where 2j+2-n <= 2k-n < 0 for every j < k.
    """
    if s < 1.0:
        raise ValueError("need s >= 1")
    critical_exponent(n, k)
    total = 0.0
    for j in range(k):
        c = math.comb(k - 1, j) * (-1.0) ** (k - 1 - j)
        e = 2 * j + 2 - n
        total += c * (s**e - 1.0) / e
    return total


def _green(x, y, k, psi) -> float:
    n = len(x)
    d = float(np.linalg.norm(x - y))
    if d == 0.0:
        raise ValueError("Green function evaluated on the diagonal")
    s = math.sqrt(1.0 + psi(x, y))
    return d ** (2 * k - n) * kernel_integral(s, k, n)


def green_ball(x, y, k: int) -> float:
    """G_B(x, y) in R^n, n = len(x), for interior points of the unit ball."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x @ x >= 1.0 or y @ y >= 1.0:
        raise ValueError("points must be interior to the unit ball")
    return _green(x, y, k, psi_ball)


def green_half(x, y, k: int) -> float:
    """G_{R^n_+}(x, y) in R^n, n = len(x), for points with x_1, y_1 > 0."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x[0] <= 0.0 or y[0] <= 0.0:
        raise ValueError("points must be interior to the half-space")
    return _green(x, y, k, psi_half)


def check_conformal_relation(x, y, k: int) -> float:
    """Relative residual of
    G_B(x,y) = |x+e_1|^{2k-n} |y+e_1|^{2k-n} G_{R^n_+}(phi(x), phi(y)),
    n = len(x), which is independent of the kappa normalization."""
    x, y = xy = np.array([x, y], float)
    n = len(x)
    cm = CayleyMap(n)
    gb = green_ball(x, y, k)
    px, py = cm.phi(xy)
    fac = (np.linalg.norm(x + cm.e1) * np.linalg.norm(y + cm.e1)) ** (2 * k - n)
    gh = fac * green_half(px, py, k)
    return abs(gb - gh) / abs(gb)
