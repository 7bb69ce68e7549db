"""Jets: lazily computed partial derivatives of a field at one point or a
batch of points, plus finite-difference oracles used throughout the test
suite.

A jet caches one entry per *multiset* of coordinate indices, so symmetry of
mixed partials is structural rather than checked entry-by-entry.  Each entry
is one vectorized call of the field's partial over all points, made on first
use; a field may hand the jet a point batch of its own, so that what every
entry shares (for fields.RadialTermField: z, s and each profile's derivative
chain) is computed once.  Accessors derive Laplacian iterates and their
gradients/Hessians from these entries.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial

import numpy as np

__all__ = [
    "multisets",
    "multiset_multiplicity",
    "Jet",
    "fd_partial",
    "fd_laplacian",
    "fd_laplacian_iter",
]


def multisets(n: int, order: int):
    """All index multisets of exactly the given order over n coordinates."""
    return list(combinations_with_replacement(range(n), order))


def multiset_multiplicity(alpha: tuple[int, ...]) -> int:
    """Number of distinct orderings of the multiset (tensor-entry count)."""
    m = factorial(len(alpha))
    for i in set(alpha):
        m //= factorial(alpha.count(i))
    return m


@lru_cache(maxsize=None)
def _lap_terms(n: int, i: int):
    """Delta^i = sum_m w_m d^{2m}: (index tuple of d^{2m}, multinomial w_m)
    over the multi-indices m with |m| = i."""
    return tuple((tuple(c for c in alpha for _ in range(2)),
                  multiset_multiplicity(alpha))
                 for alpha in combinations_with_replacement(range(n), i))


class Jet:
    """Partial derivatives up to a fixed order of a field at x, where x is
    one point (n,) or a batch (m, n).

    field.partial(alpha, points) must accept an (m, n) batch.  points, when
    given, replaces that batch in every call: the field's own batch object
    for the points of x.  Every accessor returns an array shaped like x
    without its last axis (a scalar for one point), followed by the tensor
    axes of the quantity.
    """

    def __init__(self, field, x, order: int, points=None):
        self.field = field
        self.x = np.asarray(x, float)
        self.n = self.x.shape[-1]
        self.order = order
        self._points = np.atleast_2d(self.x) if points is None else points
        self._cache: dict[tuple[int, ...], np.ndarray] = {}

    def partial(self, alpha):
        alpha = tuple(sorted(alpha))
        if len(alpha) > self.order:
            raise ValueError(f"jet order {self.order} too low for a partial"
                             f" of order {len(alpha)}")
        if alpha not in self._cache:
            vals = np.asarray(self.field.partial(alpha, self._points), float)
            self._cache[alpha] = vals.reshape(self.x.shape[:-1])[()]
        return self._cache[alpha]

    def value(self):
        return self.partial(())

    def _vector(self, entry):
        out = np.empty(self.x.shape)
        for j in range(self.n):
            out[..., j] = entry((j,))
        return out

    def _symmetric(self, entry):
        out = np.empty(self.x.shape + (self.n,))
        for a in range(self.n):
            for b in range(a, self.n):
                out[..., a, b] = out[..., b, a] = entry((a, b))
        return out

    def grad(self) -> np.ndarray:
        return self._vector(self.partial)

    def hessian(self) -> np.ndarray:
        return self._symmetric(self.partial)

    # -- Laplacian iterates --------------------------------------------------

    def lap_iter(self, i: int, extra=()):
        """(-Delta)^i u, optionally with extra derivative indices applied."""
        extra = tuple(extra)
        if 2 * i + len(extra) > self.order:
            raise ValueError(f"jet order {self.order} too low for (-Delta)^{i}"
                             f" with {len(extra)} extra derivatives")
        tot = 0.0
        for idx, w in _lap_terms(self.n, i):
            tot = tot + w * self.partial(extra + idx)
        return (-1.0) ** i * tot

    def grad_lap(self, i: int) -> np.ndarray:
        return self._vector(lambda j: self.lap_iter(i, extra=j))

    def hess_lap(self, i: int) -> np.ndarray:
        return self._symmetric(lambda ab: self.lap_iter(i, extra=ab))

    def tensor_norm(self, l: int):
        """Frobenius norm of the order-l derivative tensor."""
        tot = 0.0
        for alpha in multisets(self.n, l):
            tot = tot + multiset_multiplicity(alpha) * self.partial(alpha) ** 2
        return np.sqrt(tot)


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------

def fd_partial(f, x, alpha, h: float = 1e-4):
    """Central finite difference of the mixed partial given by the index
    multiset alpha, at one point (n,) or a batch (m, n).  f maps an (m, n)
    array to an (m,) array."""
    x = np.asarray(x, float)
    alpha = tuple(alpha)
    if not alpha:
        vals = np.asarray(f(np.atleast_2d(x)), float)
        return vals.reshape(x.shape[:-1])[()]
    i, rest = alpha[0], alpha[1:]
    xp = x.copy()
    xm = x.copy()
    xp[..., i] += h
    xm[..., i] -= h
    return (fd_partial(f, xp, rest, h) - fd_partial(f, xm, rest, h)) / (2 * h)


def fd_laplacian(f, x, h: float = 1e-4):
    """Second-order central FD Laplacian at one point (n,) or a batch (m, n).

    f maps an (m, n) array to an (m,) array; the whole (2n+1)-point stencil
    of every point goes to f in one call.
    """
    x = np.asarray(x, float)
    pts = np.atleast_2d(x)
    n = pts.shape[1]
    steps = np.zeros((2 * n + 1, n))
    steps[1::2] = h * np.eye(n)
    steps[2::2] = -h * np.eye(n)
    stencil = pts[:, None, :] + steps
    vals = np.asarray(f(stencil.reshape(-1, n)), float).reshape(len(pts), -1)
    lap = (np.sum(vals[:, 1:], axis=1) - 2 * n * vals[:, 0]) / h**2
    return lap.reshape(x.shape[:-1])[()]


def fd_laplacian_iter(f, x, k: int, h: float = 1e-3):
    """(-Delta)^k via nested FD Laplacians (O(h^2) per level), at one point
    (n,) or a batch (m, n)."""
    if k == 0:
        x = np.asarray(x, float)
        vals = np.asarray(f(np.atleast_2d(x)), float)
        return vals.reshape(x.shape[:-1])[()]
    return -fd_laplacian(lambda q: fd_laplacian_iter(f, q, k - 1, h), x, h)
