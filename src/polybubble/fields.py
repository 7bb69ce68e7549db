"""Exact derivative machinery for radial fields on R^n.

A field is one profile about a centre,

    F(x) = G(s),      z = x - center,   s = |z|^2,

with G a smooth function of s.  Since d_i s = 2 z_i and Delta s = 2n, every
mixed partial of every Laplacian iterate is a sum of terms
z^beta s^j G^{(m)}(s): no negative power of |z| appears, so one formula holds
at the centre and away from it.  Delta stays in this form because z . z = s
(see _termize), so d^alpha Delta^i F is one term list, not a sum of
C(n+i-1, i) partials of order 2i.  The termization is done symbolically
once and cached; evaluation is vectorized over point batches.  A profile's
chain(m, s) is the list [G(s), G'(s), ..., G^{(m)}(s)]: a rational profile
chains the exact d/d(r^2) of the radial algebra kernel.

A PointBatch holds z, s, the powers z_i^e and s^j and the profile's chain
for one set of points, each computed once: every partial taken on the batch
(every entry of a Jet, every multiset of a tensor norm) reuses them.  The
batch is the only cache of values, and it lives as long as its owner.
"""

from __future__ import annotations

import numpy as np

from .jets import Jet
from .quadrature import as_points, row_sq_norms
from .radial import RadialFunction, square_derivative

__all__ = [
    "RationalProfile",
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


# ---------------------------------------------------------------------------
# Termization of partial derivatives
# ---------------------------------------------------------------------------

# term: (coeff, beta (exponent tuple), j, m) for coeff * z^beta * s^j * G^(m)(s)
_TERM_CACHE: dict = {}


def _add(terms: dict, key, c: float):
    terms[key] = terms.get(key, 0.0) + c


def _termize(n: int, alpha: tuple[int, ...], lap: int = 0):
    """Terms of d^alpha Delta^lap [G(s)], s = |z|^2.

    Delta acts first, lap times, by

        Delta s^j G^(m) = j (2n + 4j - 4) s^(j-1) G^(m)
                          + (2n + 8j) s^j G^(m+1) + 4 s^(j+1) G^(m+2),

    then each index of alpha by

        d_i z^b s^j G^(m) = b_i z^(b - e_i) s^j G^(m) + 2 z^(b + e_i) s^j G^(m+1)
                            + 2j z^(b + e_i) s^(j-1) G^(m).

    With lap = 0 every j is 0, so the last branch never fires and the terms
    are those of the d_i rule alone, in the same order.
    """
    key = (n, alpha, lap)
    if key in _TERM_CACHE:
        return _TERM_CACHE[key]
    zero = (0,) * n
    terms = {(zero, 0, 0): 1.0}
    for _ in range(lap):
        new: dict = {}
        for (beta, j, m), c in terms.items():
            if j:
                _add(new, (beta, j - 1, m), c * j * (2 * n + 4 * j - 4))
            _add(new, (beta, j, m + 1), c * (2 * n + 8 * j))
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


class PointBatch:
    """One point batch of a RadialTermField: z, s, the column powers z_i^e
    and the powers s^j its partials use and the profile chain up to the
    highest order any partial has asked for.

    Pass it as the points of field.partial.  order is the chain length to
    compute on first use (a Jet's order), so that later partials of higher
    order do not evaluate the profile again.  shape is that of the points.
    """

    def __init__(self, field, points, order: int = 0):
        pts = as_points(points)
        self.field = field
        self.shape = pts.shape
        self.order = order
        self.z = pts - field.center
        self.s = row_sq_norms(self.z)
        self._chain: list = []
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

    def chain(self, m: int) -> list:
        """[G, G', ..., G^(m')] at s, for some m' >= m."""
        if len(self._chain) <= m:
            self._chain = self.field.profile.chain(max(m, self.order), self.s)
        return self._chain


class RadialTermField:
    """Field F(x) = G(|x - center|^2) of one profile G.  Exact partial
    derivatives of any order."""

    def __init__(self, n: int, center, profile: RationalProfile):
        self.n = n
        self.center = np.asarray(center, float)
        self.profile = profile

    @classmethod
    def radial(cls, n, center, profile):
        """The field of profile about center: the constructor by name."""
        return cls(n, center, profile)

    # -- evaluation ---------------------------------------------------------

    def value(self, points):
        return self.partial((), points)

    def partial(self, alpha, points, lap: int = 0):
        """d^alpha Delta^lap F for the index multiset alpha, vectorized.
        points is an (m, n) array or a PointBatch of this field."""
        alpha = tuple(sorted(alpha))
        if not isinstance(points, PointBatch):
            points = PointBatch(self, points)
        elif points.field is not self:
            raise ValueError("point batch belongs to another field")
        terms = _termize(self.n, alpha, lap)
        dchain = points.chain(max(m for *_, m in terms))
        acc = np.zeros(len(points.z))
        for cc, beta, j, m in terms:
            v = cc * dchain[m]
            for coord, e in enumerate(beta):
                if e:
                    v = v * points.power(coord, e)
            if j:
                v = v * points.s_power(j)
            acc += v
        return acc

    # -- tensors and jets ----------------------------------------------------

    def tensor_norm(self, l: int, points):
        """Frobenius norm of the order-l derivative tensor, vectorized."""
        return self.jet(as_points(points), l).tensor_norm(l)

    def jet(self, x, order: int) -> Jet:
        """Jet at x whose entries all share one PointBatch."""
        return Jet(self, x, order, PointBatch(self, x, order))
