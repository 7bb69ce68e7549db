"""Exact derivative machinery for radial-type fields on R^n.

Everything a bubble computation needs is a finite sum of components

    z^{beta0} * G(s),      z = (x - center)/mu,   s = |z|^2,

with G a smooth function of s.  Since d_i s = 2 z_i, every mixed partial is
again a sum of terms z^beta * G^{(m)}(s): no negative power of |z| appears,
so one formula holds at the centre and away from it.  The termization of each
partial derivative is done symbolically once and cached; evaluation is
vectorized over point batches.  A profile's chain(m, s) is the list
[G(s), G'(s), ..., G^{(m)}(s)]: rational profiles chain the exact d/d(r^2) of
the radial algebra kernel, the smooth cutoff composes Taylor-mode series in s.

A PointBatch holds z, s and one chain per component for one set of points,
each computed once: every partial taken on the batch (every entry of a Jet,
every multiset of a tree's derivative tensor) reuses them.  The batch is the
only cache of values, and it lives as long as its owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .jets import Jet
from .quadrature import row_sq_norms
from .radial import RadialFunction, square_derivative

__all__ = [
    "RationalProfile",
    "SeriesProfile",
    "ProductProfile",
    "cutoff_profile",
    "PointBatch",
    "RadialTermField",
]


# ---------------------------------------------------------------------------
# Profiles G(s), s = r^2, with derivative chains
# chain(m, s) = [G(s), G'(s), ..., G^{(m)}(s)]
# ---------------------------------------------------------------------------

class RationalProfile:
    """G(s) = f(sqrt(s)) for a RadialFunction f at a fixed a-value.

    The chain G, G', G'', ... is built by radial.square_derivative, which
    needs every r-power of f even (it raises RepresentationError otherwise).
    """

    def __init__(self, rf: RadialFunction, a_value: float):
        self.rf = rf
        self.a_value = float(a_value)
        self._chain = [rf]

    def _deriv(self, m: int) -> RadialFunction:
        while len(self._chain) <= m:
            self._chain.append(square_derivative(self._chain[-1]))
        return self._chain[m]

    def chain(self, m: int, s):
        r = np.sqrt(s)
        return [self._deriv(j)(r, self.a_value) for j in range(m + 1)]


class SeriesProfile:
    """Profile defined by a Taylor-mode series oracle in s.

    series(s, m) must return the Taylor coefficients [c_0..c_m] of G at s,
    so that the j-th derivative is j! c_j.  A coefficient must not depend on
    the truncation order m: one call per point gives the whole chain.
    """

    def __init__(self, series):
        self._series = series

    def chain(self, m: int, s):
        s = np.asarray(s, float)
        coeffs = np.array([self._series(float(v), m) for v in s.ravel()],
                          float).reshape(-1, m + 1)
        facts = np.array([factorial(j) for j in range(m + 1)], float)
        return [col.reshape(s.shape) if s.shape else float(col[0])
                for col in (coeffs * facts).T]


class ProductProfile:
    """Pointwise product of profiles g_i(r / r_i), i.e. of G_i(s / r_i^2).

    factors is a list of (profile, r_i); the j-th s-derivative of factor i
    carries r_i^{-2j}.
    """

    def __init__(self, factors):
        self.factors = list(factors)

    def chain(self, m: int, s):
        s = np.asarray(s, float)
        tables = []
        for prof, r in self.factors:
            scale = r * r
            tables.append([g / scale**j
                           for j, g in enumerate(prof.chain(m, s / scale))])
        return [_leibniz(tables, j, s) for j in range(m + 1)]


def _leibniz(tables, m: int, s):
    """m-th derivative of the product whose factors' derivative tables are
    given, by the Leibniz rule over all factors."""
    total = np.zeros_like(s)

    def rec(idx, m_left, coeff, acc):
        nonlocal total
        if idx == len(tables) - 1:
            total = total + coeff * acc * tables[idx][m_left]
            return
        for j in range(m_left + 1):
            rec(idx + 1, m_left - j, coeff * comb(m_left, j),
                acc * tables[idx][j])

    rec(0, m, 1.0, np.ones_like(s))
    return total if total.shape else float(total)


# ---------------------------------------------------------------------------
# Smooth cutoff: 1 on [0, 1/2], 0 on [1, inf)
# ---------------------------------------------------------------------------

def _exp_ninv_series(u0: float, m: int):
    """Taylor coefficients of e^{-1/u} at u0 > 0 up to order m."""
    # series of -1/u at u0
    c = [-((-1.0) ** j) * u0 ** (-(j + 1)) for j in range(m + 1)]
    # exp of a series
    E = [math.exp(c[0])] + [0.0] * m
    for j in range(1, m + 1):
        E[j] = sum(i * c[i] * E[j - i] for i in range(1, j + 1)) / j
    return E


def _cutoff_series(t: float, m: int):
    """Taylor coefficients of psi(t) = f(1-t)/(f(1-t)+f(t)), f(u)=e^{-1/u}."""
    if t <= 0.0:
        return [1.0] + [0.0] * m
    if t >= 1.0:
        return [0.0] * (m + 1)
    A = _exp_ninv_series(1.0 - t, m)
    A = [a * (-1.0) ** j for j, a in enumerate(A)]  # compose with 1-t
    B = _exp_ninv_series(t, m)
    S = [a + b for a, b in zip(A, B)]
    D = [A[0] / S[0]] + [0.0] * m
    for j in range(1, m + 1):
        D[j] = (A[j] - sum(S[i] * D[j - i] for i in range(1, j + 1))) / S[0]
    return D


def _cutoff_s_series(s: float, m: int):
    """Taylor coefficients in s of psi(2 sqrt(s) - 1): psi's series at
    t0 = 2 sqrt(s) - 1 composed with that of 2 sqrt(s + h) - 1 - t0."""
    r = math.sqrt(s)
    t0 = 2.0 * r - 1.0
    psi = _cutoff_series(t0, m)
    if t0 <= 0.0 or t0 >= 1.0:
        return psi  # a plateau: exactly [1, 0, ...] or [0, ...]
    # 2 sqrt(s + h) = sum_j delta_j h^j with delta_j = 2 r C(1/2, j) s^-j
    delta = [2.0 * r]
    for j in range(1, m + 1):
        delta.append(delta[-1] * (1.5 - j) / (j * s))
    out = [psi[0]] + [0.0] * m
    power = [1.0] + [0.0] * m  # (t - t0)^i as a series in h
    for i in range(1, m + 1):
        power = [sum(power[l] * delta[j - l] for l in range(j))
                 for j in range(m + 1)]
        for j in range(i, m + 1):
            out[j] += psi[i] * power[j]
    return out


def cutoff_profile() -> SeriesProfile:
    """chi(rho) = psi(2 rho - 1) as a function of s = rho^2: exactly 1 on
    s <= 1/4, exactly 0 on s >= 1."""
    return SeriesProfile(_cutoff_s_series)


# ---------------------------------------------------------------------------
# Termization of partial derivatives
# ---------------------------------------------------------------------------

# term: (coeff, beta (exponent tuple), m) for coeff * z^beta * G^(m)(s)
_TERM_CACHE: dict = {}


def _termize(n: int, beta0: tuple[int, ...], alpha: tuple[int, ...]):
    """Terms of d^alpha [z^beta0 G(s)], s = |z|^2, by the two-branch rule

        d_i z^beta G^(m) = beta_i z^(beta - e_i) G^(m) + 2 z^(beta + e_i) G^(m+1).
    """
    key = (n, beta0, alpha)
    if key in _TERM_CACHE:
        return _TERM_CACHE[key]
    terms = {(beta0, 0): 1.0}
    for i in alpha:
        new: dict = {}
        for (beta, m), c in terms.items():
            if beta[i] > 0:
                down = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                new[down, m] = new.get((down, m), 0.0) + c * beta[i]
            up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            new[up, m + 1] = new.get((up, m + 1), 0.0) + 2.0 * c
        terms = new
    out = [(c, beta, m) for (beta, m), c in terms.items()]
    _TERM_CACHE[key] = out
    return out


@dataclass
class _Component:
    beta0: tuple[int, ...]
    profile: RationalProfile | SeriesProfile | ProductProfile
    coeff: float = 1.0


class PointBatch:
    """One point batch of a RadialTermField: z, s and, per component, the
    profile chain up to the highest order any partial has asked for.

    Pass it as the points of field.partial.  order is the chain length to
    compute on first use (a Jet's order), so that later partials of higher
    order do not evaluate the profile again.  shape is that of the points.
    """

    def __init__(self, field, points, order: int = 0):
        pts = np.atleast_2d(np.asarray(points, float))
        self.field = field
        self.shape = pts.shape
        self.order = order
        self.z = (pts - field.center) / field.mu
        self.s = row_sq_norms(self.z)
        self._chains: dict[int, list] = {}

    def chain(self, i: int, m: int) -> list:
        """[G, G', ..., G^(m')] of component i at s, for some m' >= m."""
        ch = self._chains.get(i)
        if ch is None or len(ch) <= m:
            profile = self.field.components[i].profile
            ch = self._chains[i] = profile.chain(max(m, self.order), self.s)
        return ch


class RadialTermField:
    """Field F(x) = amplitude * sum_c coeff_c (z^{beta0_c}) G_c(|z|^2), with
    z = (x - center)/mu.  Exact partial derivatives of any order.
    """

    def __init__(self, n: int, center, components, mu: float = 1.0,
                 amplitude: float = 1.0):
        self.n = n
        self.center = np.asarray(center, float)
        self.mu = float(mu)
        self.amplitude = float(amplitude)
        self.components: list[_Component] = [
            c if isinstance(c, _Component) else _Component(*c) for c in components
        ]

    @classmethod
    def radial(cls, n, center, profile, mu=1.0, amplitude=1.0):
        zero = tuple([0] * n)
        return cls(n, center, [_Component(zero, profile)], mu, amplitude)

    # -- evaluation ---------------------------------------------------------

    def value(self, points):
        return self.partial((), points)

    __call__ = value

    def partial(self, alpha, points):
        """Mixed partial for the index multiset alpha, vectorized.  points is
        an (m, n) array or a PointBatch of this field."""
        alpha = tuple(sorted(alpha))
        if not isinstance(points, PointBatch):
            points = PointBatch(self, points)
        elif points.field is not self:
            raise ValueError("point batch belongs to another field")
        z = points.z
        acc = np.zeros(len(z))
        for i, comp in enumerate(self.components):
            terms = _termize(self.n, comp.beta0, alpha)
            m_max = max(m for _, _, m in terms)
            dchain = points.chain(i, m_max)
            for cc, beta, m in terms:
                v = cc * dchain[m]
                for coord, e in enumerate(beta):
                    if e:
                        v = v * z[:, coord] ** e
                acc += comp.coeff * v
        return self.amplitude * acc * self.mu ** (-len(alpha))

    # -- tensors and jets ----------------------------------------------------

    def tensor_norm(self, l: int, points):
        """Frobenius norm of the order-l derivative tensor, vectorized."""
        pts = np.atleast_2d(points)
        return Jet(self, pts, l, PointBatch(self, pts, l)).tensor_norm(l)

    def jet(self, x, order: int) -> Jet:
        """Jet at x whose entries all share one PointBatch."""
        return Jet(self, x, order, PointBatch(self, x, order))
