"""Exact derivative machinery for radial-type fields on R^n.

Everything a bubble computation needs is a finite sum of components

    z^{beta0} * G(s),      z = (x - center)/mu,   s = |z|^2,

with G a smooth function of s.  Since d_i s = 2 z_i and Delta s = 2n, every
mixed partial of every Laplacian iterate is again a sum of terms
z^beta s^j G^{(m)}(s): no negative power of |z| appears, so one formula holds
at the centre and away from it.  Delta stays in this form because z . z = s
(see _termize), so d^alpha Delta^i of a component is one term list, not a sum
of C(n+i-1, i) partials of order 2i.  The termization is done symbolically
once and cached; evaluation is vectorized over point batches.  A profile's
chain(m, s) is the list [G(s), G'(s), ..., G^{(m)}(s)]: rational profiles
chain the exact d/d(r^2) of the radial algebra kernel; the smooth cutoff and
products of profiles are truncated-Taylor arithmetic (jets.Taylor) over all
points of the batch.

A PointBatch holds z, s, the powers z_i^e and s^j and one chain per
component for one set of points, each computed once: every partial taken on
the batch (every entry of a Jet, every multiset of a tree's derivative
tensor) reuses them.  The batch is the only cache of values, and it lives as
long as its owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .jets import Jet, Taylor
from .quadrature import as_points, row_sq_norms
from .radial import RadialFunction, square_derivative

__all__ = [
    "RationalProfile",
    "ProductProfile",
    "CutoffProfile",
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


def _factorials(m: int, ndim: int):
    """0!, 1!, ..., m! shaped (m + 1, 1, ..., 1) with ndim unit axes: the
    factors between Taylor coefficients and derivatives."""
    return np.array([factorial(j) for j in range(m + 1)],
                    float).reshape((-1,) + (1,) * ndim)


class ProductProfile:
    """Pointwise product of profiles g_i(r / r_i), i.e. of G_i(s / r_i^2).

    factors is a list of (profile, r_i).  The chain is one truncated-Taylor
    product in h of the factors' series G_i((s + h) / r_i^2), whose j-th
    coefficient is G_i^{(j)} / (j! r_i^{2j}).
    """

    def __init__(self, factors):
        self.factors = list(factors)

    def chain(self, m: int, s):
        s = np.asarray(s, float)
        facts = _factorials(m, s.ndim)
        j = np.arange(m + 1.0).reshape(facts.shape)
        prod = 1.0
        for prof, r in self.factors:
            g = np.array(prof.chain(m, s / (r * r)))
            prod = Taylor(g / (facts * (r * r) ** j)) * prod
        return [c[()] for c in prod.c * facts]


# ---------------------------------------------------------------------------
# Smooth cutoff: 1 on [0, 1/2], 0 on [1, inf)
# ---------------------------------------------------------------------------

class CutoffProfile:
    """chi(rho) = psi(2 rho - 1) as a function of s = rho^2, with
    psi(t) = f(1-t) / (f(1-t) + f(t)), f(u) = e^{-1/u}: exactly 1 on
    s <= 1/4, exactly 0 on s >= 1.  On the ramp the chain is one Taylor
    composition in h for all points: psi(2 sqrt(s + h) - 1).
    """

    def chain(self, m: int, s):
        s = np.asarray(s, float)
        flat = s.reshape(-1)
        t0 = 2.0 * np.sqrt(flat) - 1.0
        out = np.zeros((m + 1, len(flat)))
        out[0, t0 <= 0.0] = 1.0
        ramp = (t0 > 0.0) & (t0 < 1.0)
        t = 2.0 * Taylor.line(flat[ramp], 1.0, m) ** 0.5 - 1.0
        f1 = np.exp(-1.0 / (1.0 - t))
        out[:, ramp] = (f1 / (f1 + np.exp(-1.0 / t))).c * _factorials(m, 1)
        return [row.reshape(s.shape)[()] for row in out]


# ---------------------------------------------------------------------------
# Termization of partial derivatives
# ---------------------------------------------------------------------------

# term: (coeff, beta (exponent tuple), j, m) for coeff * z^beta * s^j * G^(m)(s)
_TERM_CACHE: dict = {}


def _add(terms: dict, key, c: float):
    terms[key] = terms.get(key, 0.0) + c


def _termize(n: int, beta0: tuple[int, ...], alpha: tuple[int, ...], lap: int = 0):
    """Terms of d^alpha Delta^lap [z^beta0 G(s)], s = |z|^2, in z-units.

    Delta acts first, lap times, by

        Delta z^b s^j G^(m) = sum_i b_i (b_i - 1) z^(b - 2e_i) s^j G^(m)
                              + j (4|b| + 2n + 4j - 4) z^b s^(j-1) G^(m)
                              + (4|b| + 2n + 8j) z^b s^j G^(m+1)
                              + 4 z^b s^(j+1) G^(m+2),

    then each index of alpha by

        d_i z^b s^j G^(m) = b_i z^(b - e_i) s^j G^(m) + 2 z^(b + e_i) s^j G^(m+1)
                            + 2j z^(b + e_i) s^(j-1) G^(m).

    With lap = 0 every j is 0, so the last branch never fires and the terms
    are those of the d_i rule alone, in the same order.
    """
    key = (n, beta0, alpha, lap)
    if key in _TERM_CACHE:
        return _TERM_CACHE[key]
    terms = {(beta0, 0, 0): 1.0}
    for _ in range(lap):
        new: dict = {}
        for (beta, j, m), c in terms.items():
            for i, b in enumerate(beta):
                if b > 1:
                    down = beta[:i] + (b - 2,) + beta[i + 1:]
                    _add(new, (down, j, m), c * b * (b - 1))
            nb = 4 * sum(beta) + 2 * n
            if j:
                _add(new, (beta, j - 1, m), c * j * (nb + 4 * j - 4))
            _add(new, (beta, j, m + 1), c * (nb + 8 * j))
            _add(new, (beta, j + 1, m + 2), 4.0 * c)
        terms = new
    for i in alpha:
        new = {}
        for (beta, j, m), c in terms.items():
            if beta[i] > 0:
                down = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
                _add(new, (down, j, m), c * beta[i])
            up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
            _add(new, (up, j, m + 1), 2.0 * c)
            if j:
                _add(new, (up, j - 1, m), 2.0 * j * c)
        terms = new
    out = [(c, beta, j, m) for (beta, j, m), c in terms.items()]
    _TERM_CACHE[key] = out
    return out


@dataclass
class _Component:
    beta0: tuple[int, ...]
    profile: RationalProfile | CutoffProfile | ProductProfile
    coeff: float = 1.0


class PointBatch:
    """One point batch of a RadialTermField: z, s, the column powers z_i^e
    and the powers s^j its partials use and, per component, the profile
    chain up to the highest order any partial has asked for.

    Pass it as the points of field.partial.  order is the chain length to
    compute on first use (a Jet's order), so that later partials of higher
    order do not evaluate the profile again.  shape is that of the points.
    """

    def __init__(self, field, points, order: int = 0):
        pts = as_points(points)
        self.field = field
        self.shape = pts.shape
        self.order = order
        self.z = (pts - field.center) / field.mu
        self.s = row_sq_norms(self.z)
        self._chains: dict[int, list] = {}
        self._powers: dict[tuple[int, int], np.ndarray] = {}
        self._s_powers: dict[int, np.ndarray] = {}

    def power(self, coord: int, e: int) -> np.ndarray:
        """z[:, coord] ** e, computed on first use."""
        p = self._powers.get((coord, e))
        if p is None:
            p = self._powers[coord, e] = self.z[:, coord] ** e
        return p

    def s_power(self, j: int) -> np.ndarray:
        """s ** j, computed on first use."""
        p = self._s_powers.get(j)
        if p is None:
            p = self._s_powers[j] = self.s ** j
        return p

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
        self.components = [_Component(*c) for c in components]

    @classmethod
    def radial(cls, n, center, profile, mu=1.0, amplitude=1.0):
        return cls(n, center, [((0,) * n, profile)], mu, amplitude)

    # -- evaluation ---------------------------------------------------------

    def value(self, points):
        return self.partial((), points)

    __call__ = value

    def partial(self, alpha, points, lap: int = 0):
        """d^alpha Delta^lap F for the index multiset alpha, vectorized.
        points is an (m, n) array or a PointBatch of this field."""
        alpha = tuple(sorted(alpha))
        if not isinstance(points, PointBatch):
            points = PointBatch(self, points)
        elif points.field is not self:
            raise ValueError("point batch belongs to another field")
        acc = np.zeros(len(points.z))
        for i, comp in enumerate(self.components):
            terms = _termize(self.n, comp.beta0, alpha, lap)
            m_max = max(m for *_, m in terms)
            dchain = points.chain(i, m_max)
            for cc, beta, j, m in terms:
                v = cc * dchain[m]
                for coord, e in enumerate(beta):
                    if e:
                        v = v * points.power(coord, e)
                if j:
                    v = v * points.s_power(j)
                acc += comp.coeff * v
        return self.amplitude * acc * self.mu ** (-len(alpha) - 2 * lap)

    # -- tensors and jets ----------------------------------------------------

    def tensor_norm(self, l: int, points):
        """Frobenius norm of the order-l derivative tensor, vectorized."""
        return self.jet(as_points(points), l).tensor_norm(l)

    def jet(self, x, order: int) -> Jet:
        """Jet at x whose entries all share one PointBatch."""
        return Jet(self, x, order, PointBatch(self, x, order))
