"""Exact algebra of radial functions closed under the n-dimensional Laplacian.

Functions are finite sums

    f(r) = sum_j  c_j * a^{e_j} * r^{p_j} * (1 + a r^2)^{-(M + 2 t_j)/2},

with exact rational coefficients c_j and integer powers e_j of a formal
symbol ``a``, stored as one dict keyed by (p, t, e).  The base decay exponent
is stored doubled (``M``) so that half-integer decay (odd n) stays integral.
The flat bubble profile is the single term c = 1 at (p, t, e) = (0, 0, 0)
with M = n - 2k; substituting a = a_{n,k} recovers (1 + a_{n,k} r^2)^{-(n-2k)/2}.

Everything here is exact: iterated Laplacians, derivatives in r and in r^2,
and the power-reduction identity a r^2 (1+a r^2)^{-1} = 1 - (1+a r^2)^{-1}
never touch floating point.  Only calling a RadialFunction produces floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "RadialFunction",
    "ExactCheckResult",
    "RepresentationError",
    "bubble_constant",
    "bubble_constant_product",
    "critical_exponent",
    "make_bubble",
    "laplacian",
    "radial_derivative",
    "square_derivative",
    "power_reduce",
    "check_bubble_identity",
]


class RepresentationError(ValueError):
    """A requested operation leaves the representable class."""


def critical_exponent(n: int, k: int) -> float:
    """Critical Sobolev exponent 2n/(n-2k): the one check of the orders, which
    raises ValueError unless n and k are integers with 1 <= k and 2k < n."""
    if not (isinstance(n, (int, np.integer)) and isinstance(k, (int, np.integer))
            and 1 <= k and 2 * k < n):
        raise ValueError(f"need integers 1 <= k and 2k < n, got n={n}, k={k}")
    return 2.0 * n / (n - 2 * k)


def bubble_constant_product(n: int, k: int) -> int:
    """prod_{l=-k}^{k-1} (n + 2l), the k-th power of 1/a_{n,k}."""
    critical_exponent(n, k)
    out = 1
    for l in range(-k, k):
        out *= n + 2 * l
    return out


def bubble_constant(n: int, k: int) -> float:
    """The scale constant a_{n,k} = (prod_{l=-k}^{k-1}(n+2l))^{-1/k}."""
    return bubble_constant_product(n, k) ** (-1.0 / k)


# ---------------------------------------------------------------------------
# Radial functions
# ---------------------------------------------------------------------------

def _collect(pairs) -> dict[tuple[int, int, int], Fraction]:
    """Sum (key, coefficient) contributions into one term dict.

    A zero contribution is skipped before it is inserted, so keys keep the
    order of their first nonzero contribution (which fixes the summation
    order of RadialFunction.__call__); RadialFunction drops sums that cancel.
    """
    out: dict[tuple[int, int, int], Fraction] = {}
    for key, c in pairs:
        if c:
            out[key] = out.get(key, 0) + c
    return out


@dataclass
class RadialFunction:
    """Sum of terms c * a^e * r^p * (1 + a r^2)^{-(M+2t)/2} in dimension n.

    Terms are keyed by (p, t, e) with exact Fraction coefficients c; zero
    coefficients are pruned on construction.  M + 2t <= 0 encodes constants
    and polynomial factors in a r^2, which power reduction of low-decay
    inputs legitimately produces.
    """

    n: int
    M: int
    terms: dict[tuple[int, int, int], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (p, t, e), c in self.terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            if p < 0:
                raise RepresentationError(f"negative r-power p={p}")
            clean[(int(p), int(t), int(e))] = c
        self.terms = clean

    def __add__(self, other: "RadialFunction") -> "RadialFunction":
        if (self.n, self.M) != (other.n, other.M):
            raise ValueError("incompatible n or M")
        return RadialFunction(self.n, self.M, _collect(
            [*self.terms.items(), *other.terms.items()]))

    def __mul__(self, other) -> "RadialFunction":
        """Product with a rational scalar."""
        other = Fraction(other)
        return RadialFunction(self.n, self.M,
                              {key: c * other for key, c in self.terms.items()})

    __rmul__ = __mul__

    def __call__(self, r, a_value: float):
        """Pointwise value at radius r (scalar or array) with a = a_value > 0."""
        if a_value <= 0:
            raise ValueError("a_value must be positive")
        r = np.asarray(r, dtype=float)
        w = 1.0 + a_value * r**2
        tot = np.zeros_like(r)
        for (p, t, e), c in self.terms.items():
            q = self.M + 2 * t
            tot = tot + float(c) * float(a_value) ** e * r**p * w ** (-0.5 * q)
        return tot if tot.shape else float(tot)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def make_bubble(n: int, k: int) -> RadialFunction:
    """Flat profile (1 + a r^2)^{-(n-2k)/2}; equals the standard bubble at a=a_{n,k}."""
    critical_exponent(n, k)
    return RadialFunction(n, n - 2 * k, {(0, 0, 0): 1})


def laplacian(f: RadialFunction) -> RadialFunction:
    """Exact -Delta f, with Delta g = g'' + (n-1)/r g' on radial functions.

    Each input term maps to at most three terms:
        -p(p+n-2) r^{p-2},  +q(2p+n) a r^p w^{-1},  -q(q+2) a^2 r^{p+2} w^{-2}
    all times the original w-power (q = M + 2t).  A term with p = 1 would
    produce r^{-1}, which is outside the class.
    """
    n = f.n

    def parts():
        for (p, t, e), c in f.terms.items():
            q = f.M + 2 * t
            if p == 1:
                raise RepresentationError("laplacian of an r^1 term leaves the class")
            if p >= 2:
                yield (p - 2, t, e), c * (-p * (p + n - 2))
            yield (p, t + 1, e + 1), c * (q * (2 * p + n))
            yield (p + 2, t + 2, e + 2), c * (-q * (q + 2))

    return RadialFunction(n, f.M, _collect(parts()))


def radial_derivative(f: RadialFunction) -> RadialFunction:
    """Exact d/dr; term count grows by at most a factor two."""

    def parts():
        for (p, t, e), c in f.terms.items():
            if p >= 1:
                yield (p - 1, t, e), c * p
            yield (p + 1, t + 1, e + 1), c * -(f.M + 2 * t)

    return RadialFunction(f.n, f.M, _collect(parts()))


def square_derivative(f: RadialFunction) -> RadialFunction:
    """Exact d/d(r^2) = (1/(2r)) d/dr, for f with every r-power even.

    Each term maps to  (p/2) r^{p-2}  and  -(q/2) a r^p w^{-1},  times the
    original w-power (q = M + 2t).  An odd r-power is not a function of r^2
    and raises RepresentationError.
    """

    def parts():
        for (p, t, e), c in f.terms.items():
            if p % 2:
                raise RepresentationError(f"odd r-power p={p}: not a function of r^2")
            if p:
                yield (p - 2, t, e), c * Fraction(p, 2)
            yield (p, t + 1, e + 1), c * Fraction(-(f.M + 2 * t), 2)

    return RadialFunction(f.n, f.M, _collect(parts()))


def power_reduce(f: RadialFunction) -> RadialFunction:
    """Rewrite so every term has p = 0, via a r^2 w^{-1} = 1 - w^{-1}.

    Requires every r-power even.  Pointwise values are unchanged for every
    r and a != 0; coefficients pick up negative powers of a.
    """

    def parts():
        for (p, t, e), c in f.terms.items():
            if p % 2:
                raise RepresentationError(f"odd r-power p={p} cannot be reduced")
            s = p // 2
            for m in range(s + 1):
                sign = -1 if (s - m) % 2 else 1
                yield (0, t - m, e - s), c * (sign * math.comb(s, m))

    return RadialFunction(f.n, f.M, _collect(parts()))


@dataclass
class ExactCheckResult:
    """Outcome of the symbolic bubble PDE check.

    passed is True iff there are no off-target terms and the leading
    coefficient is exactly prod_{l=-k}^{k-1}(n+2l) * a^k, i.e. reduces to 1
    under the defining relation a^k * prod(n+2l) = 1.  numeric_residual is
    max |(-Delta)^k B - B^{2#-1}| / B^{2#-1} in floats at r in {0, .5, 1, 2, 10}.
    """

    passed: bool
    leading_coefficient: dict[int, Fraction]  # {a-exponent: coefficient}
    residual_terms: list[tuple[int, int, int, Fraction]]  # (p, t, e, c)
    numeric_residual: float


def check_bubble_identity(n: int, k: int) -> ExactCheckResult:
    """Certify (-Delta)^k B = B^{2#-1} symbolically.

    Computes (-Delta)^k of the flat profile, power-reduces, and matches the
    target monomial C(a) * (1+a r^2)^{-(n+2k)/2}.  The check passes iff the
    residual term list is empty and C(a) = prod_{l=-k}^{k-1}(n+2l) * a^k.
    """
    B = h = make_bubble(n, k)
    for _ in range(k):
        h = laplacian(h)
    a, ts = bubble_constant(n, k), critical_exponent(n, k)
    numeric = max(abs(h(r, a) - B(r, a) ** (ts - 1.0))
                  / max(abs(B(r, a) ** (ts - 1.0)), 1e-300)
                  for r in (0.0, 0.5, 1.0, 2.0, 10.0))
    g = power_reduce(h)
    # target w-exponent: (n+2k)/2, i.e. M + 2t = n + 2k with M = n - 2k
    target = (0, 2 * k)
    leading = {e: c for (p, t, e), c in g.terms.items() if (p, t) == target}
    residuals = [(p, t, e, c) for (p, t, e), c in g.terms.items()
                 if (p, t) != target]
    passed = not residuals and leading == {k: bubble_constant_product(n, k)}
    return ExactCheckResult(passed, leading, residuals, numeric)
