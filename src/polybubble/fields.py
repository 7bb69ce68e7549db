"""Exact derivative machinery for radial-type fields on R^n.

Everything a bubble computation needs is a finite sum of components

    z^{beta0} * g(|z|),      z = (x - center)/mu,

whose mixed partials are again sums of terms z^beta * g^{(m)}(rho) rho^{-s}.
The termization of each partial derivative is done symbolically once and
cached; evaluation is vectorized over point batches.  Profiles supply exact
univariate derivative chains: rational profiles come from the radial algebra
kernel, the smooth cutoff uses Taylor-mode series differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .jets import Jet
from .radial import RadialFunction, radial_derivative

__all__ = [
    "ScalarProfile",
    "RationalProfile",
    "SeriesProfile",
    "ProductProfile",
    "cutoff_profile",
    "RadialTermField",
]


# ---------------------------------------------------------------------------
# Univariate profiles with derivative chains
# ---------------------------------------------------------------------------

class ScalarProfile:
    """A smooth function of rho >= 0 with derivatives of any order."""

    def d(self, m: int, rho):
        raise NotImplementedError

    def taylor_even(self, j_max: int):
        """Coefficients G_j with g(rho) = sum_j G_j rho^{2j} near 0."""
        raise NotImplementedError


class RationalProfile(ScalarProfile):
    """Profile backed by a RadialFunction evaluated at a fixed a-value."""

    def __init__(self, rf: RadialFunction, a_value: float):
        self.rf = rf
        self.a_value = float(a_value)
        self._chain = [rf]

    def _deriv(self, m: int) -> RadialFunction:
        while len(self._chain) <= m:
            self._chain.append(radial_derivative(self._chain[-1]))
        return self._chain[m]

    def d(self, m: int, rho):
        return self._deriv(m)(rho, self.a_value)

    def taylor_even(self, j_max: int):
        G = [0.0] * (j_max + 1)
        a = self.a_value
        for (p, t), c in self.rf.terms.items():
            if p % 2:
                raise ValueError("profile with odd r-powers is not smooth at 0")
            q = Fraction(self.rf.M + 2 * t, 2)
            cval = c(a)
            for j in range(j_max + 1 - p // 2):
                binom = 1.0
                for i in range(j):  # binom(-q, j) iteratively
                    binom *= float(-q - i) / (i + 1)
                G[j + p // 2] += cval * binom * a**j
        return G


class SeriesProfile(ScalarProfile):
    """Profile defined by a Taylor-mode series oracle.

    series(rho, m) must return the Taylor coefficients [c_0..c_m] of the
    profile at rho, so that the m-th derivative is m! c_m.
    """

    def __init__(self, series, even_taylor=None):
        self._series = series
        self._even = even_taylor

    def d(self, m: int, rho):
        rho = np.asarray(rho, float)
        flat = rho.ravel()
        out = np.empty_like(flat)
        for i, r in enumerate(flat):
            out[i] = factorial(m) * self._series(float(r), m)[m]
        return out.reshape(rho.shape) if rho.shape else float(out[0])

    def taylor_even(self, j_max: int):
        if self._even is None:
            raise ValueError("no even-Taylor data for this profile")
        return self._even(j_max)


class ProductProfile(ScalarProfile):
    """Pointwise product of profiles, each pre-composed with rho -> rho/s."""

    def __init__(self, factors):
        # factors: list of (profile, inner_scale)
        self.factors = list(factors)

    def d(self, m: int, rho):
        rho = np.asarray(rho, float)
        tables = []
        for prof, s in self.factors:
            tab = [prof.d(j, rho / s) / s**j for j in range(m + 1)]
            tables.append(tab)
        # Leibniz over all factors
        total = np.zeros_like(rho)

        def rec(idx, m_left, coeff, acc):
            nonlocal total
            if idx == len(tables) - 1:
                total = total + coeff * acc * tables[idx][m_left]
                return
            for j in range(m_left + 1):
                rec(idx + 1, m_left - j, coeff * comb(m_left, j),
                    acc * tables[idx][j])

        rec(0, m, 1.0, np.ones_like(rho))
        return total if total.shape else float(total)

    def taylor_even(self, j_max: int):
        Gs = []
        for prof, s in self.factors:
            G = prof.taylor_even(j_max)
            Gs.append([g / s ** (2 * j) for j, g in enumerate(G)])
        out = Gs[0]
        for G in Gs[1:]:
            new = [0.0] * (j_max + 1)
            for i, gi in enumerate(out):
                for j, gj in enumerate(G):
                    if i + j <= j_max:
                        new[i + j] += gi * gj
            out = new
        return out


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


def cutoff_profile() -> SeriesProfile:
    """chi(rho) = psi(2 rho - 1): exactly 1 on rho <= 1/2, 0 on rho >= 1."""

    def series(rho, m):
        base = _cutoff_series(2.0 * rho - 1.0, m)
        return [b * 2.0**j for j, b in enumerate(base)]

    def even(j_max):
        return [1.0] + [0.0] * j_max  # identically 1 near the origin

    return SeriesProfile(series, even)


# ---------------------------------------------------------------------------
# Termization of partial derivatives
# ---------------------------------------------------------------------------

# term: (coeff, beta (exponent tuple), m, s) for coeff * z^beta * g^(m) * rho^{-s}
_TERM_CACHE: dict = {}


def _termize(n: int, beta0: tuple[int, ...], alpha: tuple[int, ...]):
    key = (n, beta0, alpha)
    if key in _TERM_CACHE:
        return _TERM_CACHE[key]
    terms = {(beta0, 0, 0): 1.0}
    for i in alpha:
        new: dict = {}

        def add(k2, c):
            if c != 0.0:
                new[k2] = new.get(k2, 0.0) + c

        for (beta, m, s), c in terms.items():
            if beta[i] > 0:
                b2 = list(beta)
                b2[i] -= 1
                add((tuple(b2), m, s), c * beta[i])
            b3 = list(beta)
            b3[i] += 1
            add((tuple(b3), m + 1, s + 1), c)
            if s:
                add((tuple(b3), m, s + 2), -c * s)
        terms = new
    out = [(c, beta, m, s) for (beta, m, s), c in terms.items()]
    _TERM_CACHE[key] = out
    return out


@dataclass
class _Component:
    beta0: tuple[int, ...]
    profile: ScalarProfile
    coeff: float = 1.0


class RadialTermField:
    """Field F(x) = amplitude * sum_c coeff_c (z^{beta0_c}) g_c(|z|), with
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

    def _z_rho(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        z = (pts - self.center) / self.mu
        rho = np.linalg.norm(z, axis=1)
        return z, rho

    def value(self, points):
        z, rho = self._z_rho(points)
        tot = np.zeros(len(z))
        for c in self.components:
            mono = np.ones(len(z))
            for coord, e in enumerate(c.beta0):
                if e:
                    mono *= z[:, coord] ** e
            tot += c.coeff * mono * c.profile.d(0, rho)
        return self.amplitude * tot

    __call__ = value

    def partial(self, alpha, points):
        """Mixed partial for the index multiset alpha, vectorized."""
        alpha = tuple(sorted(alpha))
        z, rho = self._z_rho(points)
        near = rho <= 1e-10
        out = np.zeros(len(z))
        if (~near).any():
            zf, rf = z[~near], rho[~near]
            acc = np.zeros(len(zf))
            for comp in self.components:
                terms = _termize(self.n, comp.beta0, alpha)
                m_max = max((m for _, _, m, _ in terms), default=0)
                dchain = [comp.profile.d(m, rf) for m in range(m_max + 1)]
                for cc, beta, m, s in terms:
                    v = cc * dchain[m]
                    for coord, e in enumerate(beta):
                        if e:
                            v = v * zf[:, coord] ** e
                    if s:
                        v = v / rf**s
                    acc += comp.coeff * v
            out[~near] = acc
        if near.any():
            out[near] = self._partial_at_center(alpha)
        return self.amplitude * out * self.mu ** (-len(alpha))

    def _partial_at_center(self, alpha):
        """Exact limit of the partial at z = 0 via even Taylor data."""
        ex = [0] * self.n
        for i in alpha:
            ex[i] += 1
        tot = 0.0
        for comp in self.components:
            need = [e - b for e, b in zip(ex, comp.beta0)]
            if any(v < 0 or v % 2 for v in need):
                continue
            mvec = [v // 2 for v in need]
            j = sum(mvec)
            G = comp.profile.taylor_even(j)
            w = factorial(j)
            for m in mvec:
                w //= factorial(m)
            afact = 1.0
            for e in ex:
                afact *= factorial(e)
            tot += comp.coeff * G[j] * w * afact
        return tot

    # -- tensors and jets ----------------------------------------------------

    def tensor_norm(self, l: int, points):
        """Frobenius norm of the order-l derivative tensor, vectorized."""
        return Jet(self, np.atleast_2d(points), l).tensor_norm(l)

    def jet(self, x, order: int) -> Jet:
        return Jet(self, x, order)
