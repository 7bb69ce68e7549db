"""Jets: lazily computed partial derivatives of a field at one point or a
batch of points, and truncated univariate Taylor arithmetic.

A jet caches one entry per Laplacian power and *multiset* of coordinate
indices, d^alpha Delta^i u, so symmetry of mixed partials is structural
rather than checked entry-by-entry.  Each entry is one vectorized call of
the field's partial(alpha, points, lap=i) over all points, made on first
use; a field may hand the jet a point batch of its own, so that what every
entry shares (for fields.RadialTermField: z, s and each profile's derivative
chain) is computed once.  A Laplacian iterate is one entry, its gradient n
entries and its Hessian n(n+1)/2: the field applies Delta itself.

A Taylor series carries the derivatives of t -> f(x + t dx) up to a fixed
order through any f written with +, -, *, /, real powers, exp and sqrt
(Griewank-Utke-Walther, Math. Comp. 69, 2000): the same code that evaluates
f at points evaluates its directional derivatives, with no finite
differences and no second formula per function.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial

import numpy as np

__all__ = [
    "multisets",
    "multiset_multiplicity",
    "Jet",
    "Taylor",
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


class Jet:
    """Partial derivatives up to a fixed order of a field at x, where x is
    one point (n,) or a batch (m, n).

    field.partial(alpha, points, lap) must accept an (m, n) batch and return
    d^alpha Delta^lap of the field there.  points, when
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
        self._cache: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}

    def partial(self, alpha, lap: int = 0):
        """d^alpha Delta^lap u."""
        alpha = tuple(sorted(alpha))
        if len(alpha) + 2 * lap > self.order:
            raise ValueError(f"jet order {self.order} too low for a partial"
                             f" of order {len(alpha) + 2 * lap}")
        key = (lap, alpha)
        if key not in self._cache:
            vals = np.asarray(self.field.partial(alpha, self._points, lap=lap), float)
            self._cache[key] = vals.reshape(self.x.shape[:-1])[()]
        return self._cache[key]

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

    # -- Laplacian iterates --------------------------------------------------

    def lap_iter(self, i: int, extra=()):
        """(-Delta)^i u, optionally with extra derivative indices applied."""
        return (-1.0) ** i * self.partial(extra, lap=i)

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
# Truncated univariate Taylor arithmetic
# ---------------------------------------------------------------------------

class Taylor:
    """Truncated Taylor series sum_j c[j] t^j, j <= order, at many points at
    once: c has shape (order + 1,) + shape.  +, -, *, /, real powers, np.exp
    and np.sqrt act on the truncated series, so a function written for float
    arrays maps Taylor.line(x, dx, order) to the series of t -> f(x + t dx),
    whose j-th derivative at 0 is j! c[j].  Coefficient j depends only on
    coefficients <= j of the inputs: the same bits at every order.  A number
    or array is a constant series, indexing acts on the trailing axes, and a
    comparison compares constant terms, so masks serve points and series.
    """

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    @classmethod
    def line(cls, x, dx, order: int) -> "Taylor":
        """The series of t -> x + t dx.  Its trailing axes are stored in
        reverse order, so that a column x[:, j] of a point batch is
        contiguous; numpy keeps that layout through the arithmetic."""
        x = np.asarray(x, float)
        c = np.zeros((order + 1,) + x.shape[::-1]).transpose(0, *range(x.ndim, 0, -1))
        c[0] = x
        if order:
            c[1] = dx
        return cls(c)

    @property
    def shape(self):
        return self.c.shape[1:]

    def __getitem__(self, key):
        return Taylor(self.c[(slice(None),) + np.index_exp[key]])

    def __setitem__(self, key, value: "Taylor"):
        self.c[(slice(None),) + np.index_exp[key]] = value.c

    def __lt__(self, other):
        return self.c[0] < other

    def __neg__(self):
        return Taylor(-self.c)

    def __add__(self, other):
        if isinstance(other, Taylor):
            return Taylor(self.c + other.c)
        c = self.c.copy(order="K")
        c[0] += other
        return Taylor(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Taylor):
            return Taylor(self.c * other)
        a, b = self.c, other.c
        out = np.empty_like(a, shape=a.shape[:1]
                            + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
        for j in range(len(out)):  # the Cauchy product, in order of i
            row = np.multiply(a[0], b[j], out=out[j, ...])
            for i in range(1, j + 1):
                row += a[i] * b[j - i]
        return Taylor(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (other ** -1.0 if isinstance(other, Taylor) else 1.0 / other)

    def __rtruediv__(self, other):
        return self ** -1.0 * other

    def __pow__(self, alpha):
        """Repeated products for a whole alpha >= 1 (any constant term), else
        a b' = alpha a' b, which needs a nonzero constant term."""
        if alpha >= 1 and float(alpha).is_integer():
            out = self
            for _ in range(int(alpha) - 1):
                out = out * self
            return out
        a0 = self.c[0]
        return self._recur(a0 ** alpha, lambda i, j: (alpha + 1) * i - j, a0)

    def exp(self) -> "Taylor":
        """exp of the series, by e' = a' e."""
        return self._recur(np.exp(self.c[0]), lambda i, j: i, 1)

    def _recur(self, b0, w, d) -> "Taylor":
        """The series b with constant term b0 and, for j >= 1,
        b_j = sum_{i=1}^{j} w(i, j) a_i b_{j-i} / (j d), a = self."""
        a = self.c
        b = np.empty_like(a)
        b[0] = b0
        for j in range(1, len(a)):
            tot = w(1, j) * a[1] * b[j - 1]
            for i in range(2, j + 1):
                tot += w(i, j) * a[i] * b[j - i]
            np.divide(tot, j * d, out=b[j, ...])
        return Taylor(b)

    _UFUNCS = {np.add: "add", np.subtract: "sub", np.multiply: "mul",
               np.true_divide: "truediv", np.exp: "exp", np.sqrt: "sqrt"}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        """numpy's calls on a series: an ndarray left of an operator, np.exp,
        np.sqrt, and np.add.reduce (row_sq_norms from 8 columns)."""
        name = self._UFUNCS.get(ufunc)
        if method == "reduce" and name == "add" and set(kwargs) <= {"axis"}:
            axis = kwargs.get("axis", 0)
            return Taylor(np.add.reduce(self.c, axis=axis + (axis >= 0)))
        if method != "__call__" or kwargs or name is None:
            return NotImplemented
        if len(inputs) == 1:
            return self.exp() if name == "exp" else self ** 0.5
        a, b = inputs
        return (getattr(a, f"__{name}__")(b) if a is self
                else getattr(b, f"__r{name}__")(a))
