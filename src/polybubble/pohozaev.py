"""Polyharmonic Pohozaev identity on balls and annuli.

The identity couples a bulk pairing of E(u) = (-Delta)^k u - f |u|^{p-2} u
with the dilation generator against a boundary functional P_k.  With
v_i = (-Delta)^i u, D_i = (-Delta)^i ((x-xi).grad u) = (x-xi).grad v_i
+ 2i v_i and j = k-1-i, its density on a sphere with normal nu is
sum_{i<k/2} [(n-2k)/2 (d_nu v_i v_j - v_i d_nu v_j) + d_nu D_i v_j
- D_i d_nu v_j], plus 1/2 (x-xi, nu) v_{k/2}^2 for even k, or for k = 2m+1
1/2 (x-xi, nu) v_{m+1} v_m + 1/2 (v_m d_nu w - w d_nu v_m), w = (x-xi).grad v_m.
Under Dirichlet data it collapses, for either parity of k, to the density
-1/2 (x-xi, nu) |(-Delta)^{k/2} u|^2, with grad v_m for (-Delta)^{k/2} u
when k is odd (the source's printed (-1)^k sign is wrong for even k, as
the exact-path tests show).  _boundary_density writes both densities once;
two evaluators read them:

* exact -- polynomial jets u and f with |u|^p polynomial (even integer p, or
  u certified nonnegative) on a ball or annulus: every term is a rational
  sphere/ball moment, rounded once; data symmetric about e_1, with xi and
  every boundary centre on that axis, run in the variables (x_1, |x'|^2);
* quadrature -- generic jet providers, at the nodes of the quadrature
  module's rules (axisymmetric ones when an axis is declared).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np

from .jets import Jet
from .quadrature import (Ball, BallMinusBalls, SphereSurface, _require_on_axis,
                         as_points, integrate_surface, integrate_volume,
                         sphere_area, sphere_moment_ratio)

__all__ = [
    "MultiPoly",
    "PolynomialJet",
    "manufactured_dirichlet",
    "e_operator",
    "x_grad_laplacian",
    "pohozaev_lhs",
    "pohozaev_rhs",
    "pohozaev_residual",
    "PohozaevReport",
    "Jet",
]


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials with exact coefficients
# ---------------------------------------------------------------------------

_BITS = 8                    # one exponent field per byte of a packed key
_MASK = (1 << _BITS) - 1     # also the largest degree a key can hold


def _unit(n: int, i: int) -> int:
    """Packed key of x_i: exponent field i and the total-degree field n."""
    return (1 << (_BITS * i)) + (1 << (_BITS * n))


def _pack(n: int, e) -> int:
    """Packed key of the monomial x^e."""
    if len(e) != n or min(e, default=0) < 0:
        raise ValueError(f"{e} is no exponent tuple of length {n}")
    if sum(e) > _MASK:
        raise OverflowError(f"degree above {_MASK} does not fit a key")
    return sum(a * _unit(n, i) for i, a in enumerate(e))


class _CoeffView(Mapping):
    """Read-only {exponent tuple: Fraction} view of a MultiPoly."""

    def __init__(self, p):
        self._p = p

    def __getitem__(self, e):
        try:
            return Fraction(self._p.terms[_pack(self._p.n, e)], self._p.den)
        except (ValueError, OverflowError):
            raise KeyError(e) from None

    def __iter__(self):
        return map(self._p._exps, self._p.terms)

    def __len__(self):
        return len(self._p.terms)


class MultiPoly:
    """Polynomial sum c_e x^e over multi-indices e with exact rational
    coefficients, stored as integer numerators `terms` over one positive
    common denominator `den` (kept in lowest terms).

    A monomial x^e is packed into one int key, sum_i e_i * _unit(n, i):
    field i holds e_i and field n the total degree |e|, so multiplying two
    monomials adds their keys.  Degrees are kept <= _MASK, hence no field
    ever carries into the next.  Instances are immutable.

    The exact Pohozaev path also uses a plain two-variable MultiPoly as the
    axial form A(t, rho) of a function on R^n symmetric about e_1,
    f(x) = A(x_1, |x'|^2); its operators, which need the ambient n, are
    those of _Axial, and _axial_form converts exactly.
    """

    __slots__ = ("n", "den", "terms")

    def __init__(self, n: int, coeffs: dict | None = None):
        cc = {tuple(e): Fraction(c) for e, c in (coeffs or {}).items()}
        den = math.lcm(*(c.denominator for c in cc.values()))
        self._set(n, {_pack(n, e): c.numerator * (den // c.denominator)
                      for e, c in cc.items()}, den)

    def _set(self, n, terms, den):
        terms = {key: c for key, c in terms.items() if c}
        g = math.gcd(den, *terms.values())
        if g > 1:
            den //= g
            terms = {key: c // g for key, c in terms.items()}
        self.n, self.den, self.terms = n, den, terms

    @classmethod
    def _make(cls, n, terms, den=1):
        p = object.__new__(cls)
        p._set(n, terms, den)
        return p

    def _exps(self, key):
        return tuple(key.to_bytes(self.n + 1, "little")[:-1])

    @property
    def coeffs(self):
        return _CoeffView(self)

    @classmethod
    def const(cls, n, c):
        q = Fraction(c)
        return cls._make(n, {0: q.numerator}, q.denominator)

    @classmethod
    def coordinate(cls, n, i):
        return cls._make(n, {_unit(n, i): 1})

    @classmethod
    def abs2(cls, n):
        """|x|^2."""
        return cls._make(n, {2 * _unit(n, i): 1 for i in range(n)})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.n, other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {key: c * a for key, c in self.terms.items()}
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c * b
        return MultiPoly._make(self.n, out, den)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            q = Fraction(other)
            return MultiPoly._make(
                self.n, {e: c * q.numerator for e, c in self.terms.items()},
                self.den * q.denominator)
        if self.degree() + other.degree() > _MASK:
            raise OverflowError(f"degree above {_MASK} does not fit a key")
        out: dict = {}
        get = out.get
        rhs = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        return MultiPoly._make(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, m: int):
        """Repeated multiplication by self: for the dense powers used here
        each step costs |p^j| * |p|, below the |p^j|^2 of squaring."""
        if m < 0 or m != int(m):
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.const(self.n, 1)
        for _ in range(int(m)):
            out = out * self
        return out

    def diff(self, i: int):
        unit, s = _unit(self.n, i), _BITS * i
        return MultiPoly._make(self.n, {
            e - unit: c * ((e >> s) & _MASK)
            for e, c in self.terms.items() if (e >> s) & _MASK}, self.den)

    def laplacian(self):
        return sum((self.diff(i).diff(i) for i in range(self.n)), MultiPoly(self.n))

    def degree(self):
        return max(self.terms, default=0) >> (_BITS * self.n)

    def translate(self, c):
        """p(x + c) with exact shift entries c, one variable at a time:
        (x_i + a/b)^e = b^-emax sum_j C(e, j) x_i^(e-j) a^j b^(emax-j)."""
        out = self
        for i, ci in enumerate(c):
            ci = Fraction(ci)
            if not ci:
                continue
            a, b = ci.numerator, ci.denominator
            unit, s = _unit(self.n, i), _BITS * i
            emax = max(((e >> s) & _MASK for e in out.terms), default=0)
            terms: dict = {}
            for e, coef in out.terms.items():
                ei = (e >> s) & _MASK
                for j in range(ei + 1):
                    terms[e - j * unit] = (terms.get(e - j * unit, 0) + coef
                                           * math.comb(ei, j) * a**j * b**(emax - j))
            out = MultiPoly._make(self.n, terms, out.den * b**emax)
        return out

    def eval(self, points):
        pts = as_points(points)
        out = np.zeros(len(pts))
        for key, c in self.terms.items():
            mono = np.full(len(pts), c / self.den)  # one correct rounding
            for i, ei in enumerate(self._exps(key)):
                if ei:
                    mono *= pts[:, i] ** ei
            out += mono
        return out


# exact moments -------------------------------------------------------------

@lru_cache(maxsize=None)
def _double_factorials(dmax: int):
    """The (a - 1)!! for a <= dmax, as a tuple shared between callers."""
    dfact = [1, 1]  # dfact[a] = (a - 1)!!
    for a in range(2, dmax + 1):
        dfact.append(dfact[a - 2] * (a - 1))
    return tuple(dfact)


@lru_cache(maxsize=None)
def _axis_means(n: int, dmax: int):
    """The means M_m of x_1^{2m} over S^{n-1}, m <= dmax // 2, as integers
    N_m over one denominator D: (N, D).  Built once per (n, dmax) and
    shared between callers, hence a tuple."""
    M = [sphere_moment_ratio((2 * m,) + (0,) * (n - 1))
         for m in range(dmax // 2 + 1)]
    D = math.lcm(*(x.denominator for x in M))
    return tuple(x.numerator * (D // x.denominator) for x in M), D


def _moment(poly: MultiPoly, center, radius: float, n: int, ball: bool):
    """Integral of poly over the sphere (ball=False) or the ball (ball=True)
    of radius `radius` about `center`, with an |.|-sum for the budget.

    The sphere mean of x^e is zero unless every e_i is even, and then it is
    the mean N_{|e|/2} / D of x_1^|e| from _axis_means times
    prod_i (e_i - 1)!! / (|e| - 1)!!.  Each term's exact rational is
    rounded to a float once.
    """
    if np.linalg.norm(np.asarray(center, float)) > 0:
        poly = poly.translate([_exact(v) for v in center])
    dmax = poly.degree()
    N, D = _axis_means(n, dmax)
    dfact = _double_factorials(dmax)
    odd = sum(1 << (_BITS * i) for i in range(n))
    area = sphere_area(n)
    val = 0.0
    abs_sum = 0.0
    for key, c in poly.terms.items():
        if key & odd:
            continue
        *e, d = key.to_bytes(n + 1, "little")
        num = c * N[d // 2]
        den = D * dfact[d] * poly.den
        for a in e:
            num *= dfact[a]
        q = d + n - (not ball)  # radius power; 1/q is the radial integral
        contrib = num / den * area * radius**q / (q if ball else 1)
        val += contrib
        abs_sum += abs(contrib)
    return val, abs_sum


def _exact(v) -> Fraction:
    """A float entry (a centre, shift or sign/radius) as an exact rational."""
    return Fraction(float(v)).limit_denominator(10**12)


# ---------------------------------------------------------------------------
# Exact algebras: n Cartesian variables, or the axial pair (x_1, |x'|^2)
# ---------------------------------------------------------------------------

class _Cartesian:
    """The operators of the exact path on MultiPolys in x_1 ... x_n.
    Points a, b are lists of exact rationals; moment centres are floats."""

    def __init__(self, n: int):
        self.n = n

    def lap(self, p):
        return p.laplacian()

    def dot_grad(self, p, a):
        """(x - a) . grad p; the entries of a must be exact."""
        return sum(((MultiPoly.coordinate(self.n, i) - Fraction(a[i])) * p.diff(i)
                    for i in range(self.n)), MultiPoly(self.n))

    def grad_sq(self, p):
        """|grad p|^2."""
        return sum((d * d for d in map(p.diff, range(self.n))), MultiPoly(self.n))

    def shifted_dot(self, a, b):
        """(x - a) . (x - b)."""
        X = [MultiPoly.coordinate(self.n, i) for i in range(self.n)]
        return sum(((X[i] - a[i]) * (X[i] - b[i]) for i in range(self.n)),
                   MultiPoly(self.n))

    def moment(self, p, center, radius: float, ball: bool):
        return _moment(p, center, radius, self.n, ball)


_T, _RHO = _unit(2, 0), _unit(2, 1)  # packed keys of t and rho


def _axial_exps(key):
    """(a, b) of the axial monomial t^a rho^b."""
    return key & _MASK, (key >> _BITS) & _MASK


def _x_degree(key):
    """a + 2b, the degree of t^a rho^b as a homogeneous polynomial in x."""
    return (key >> (2 * _BITS)) + ((key >> _BITS) & _MASK)


class _Axial:
    """The same operators on the axial form of a function on R^n symmetric
    about e_1: the two-variable MultiPoly A(t, rho) with
    f(x) = A(x_1, |x'|^2), x' = (x_2, ..., x_n).  Every point and centre
    lies on the e_1 axis, so only its first entry is read.  The ambient
    dimension n enters the Laplacian and the moments only."""

    def __init__(self, n: int):
        self.n = n

    def lap(self, p):
        """f_tt + 4 rho f_rhorho + 2(n-1) f_rho, term by term:
        t^a rho^b -> a(a-1) t^(a-2) rho^b + 2b(2b+n-3) t^a rho^(b-1)."""
        out: dict = {}
        for key, c in p.terms.items():
            a, b = _axial_exps(key)
            if a > 1:
                out[key - 2 * _T] = out.get(key - 2 * _T, 0) + c * a * (a - 1)
            if b:
                out[key - _RHO] = (out.get(key - _RHO, 0)
                                   + c * 2 * b * (2 * b + self.n - 3))
        return MultiPoly._make(2, out, p.den)

    def dot_grad(self, p, a):
        """(t - a_1) f_t + 2 rho f_rho: the Euler part t f_t + 2 rho f_rho
        scales each term by its degree in x."""
        euler = MultiPoly._make(2, {key: c * _x_degree(key)
                                    for key, c in p.terms.items()}, p.den)
        return euler - p.diff(0) * a[0] if a[0] else euler

    def grad_sq(self, p):
        """f_t^2 + 4 rho f_rho^2."""
        ft, fr = p.diff(0), p.diff(1)
        return ft * ft + MultiPoly.coordinate(2, 1) * fr * fr * 4

    def shifted_dot(self, a, b):
        """(t - a_1)(t - b_1) + rho."""
        t = MultiPoly.coordinate(2, 0)
        return (t - a[0]) * (t - b[0]) + MultiPoly.coordinate(2, 1)

    def moment(self, p, center, radius: float, ball: bool):
        """Integral over the sphere or ball of radius `radius` about
        center = c e_1, with an |.|-sum for the budget.

        After the shift t -> t + c, t^a rho^b is homogeneous of degree
        d = a + 2b in x, and rho = 1 - t^2 on the unit sphere.  Its sphere
        mean is therefore sum_j (-1)^j C(b, j) M_{a+2j}, with M_m the mean
        of x_1^m from sphere_moment_ratio (zero for odd a), kept here as
        integers N_m over one denominator D.  The radius enters as
        radius^(d+n-1), or radius^(d+n)/(d+n) on the ball, as in _moment.
        Each term's exact rational is rounded to a float once.
        """
        if center[0]:
            p = p.translate([_exact(center[0]), 0])
        n = self.n
        N, D = _axis_means(n, max(map(_x_degree, p.terms), default=0))
        area = sphere_area(n)
        val = 0.0
        abs_sum = 0.0
        for key, c in p.terms.items():
            a, b = _axial_exps(key)
            if a % 2:
                continue
            num = sum((-1) ** j * math.comb(b, j) * N[a // 2 + j]
                      for j in range(b + 1))
            q = a + 2 * b + n - (not ball)
            contrib = (c * num / (D * p.den)
                       * area * radius**q / (q if ball else 1))
            val += contrib
            abs_sum += abs(contrib)
        return val, abs_sum


def _axial_form(p: MultiPoly) -> MultiPoly | None:
    """The axial form A(t, rho) with p(x) = A(x_1, |x'|^2) exactly, or None
    when p has none.

    rho^b = sum_{|m| = b} b!/prod m_i! prod_{i>=2} x_i^(2 m_i), so p converts
    exactly when every term x^e has e_2 ... e_n even and, for each
    (a, b) = (e_1, (e_2 + ... + e_n)/2), all C(b+n-2, n-2) monomials of that
    shape are present, each with the coefficient q_ab b!/prod (e_i/2)! for
    one q_ab.  Within one (a, b) that makes c_e prod (e_i/2)! the same
    integer for every term, and q_ab is it over b! den.
    """
    n = p.n
    if n < 2:
        return None
    odd = sum(1 << (_BITS * i) for i in range(1, n))  # low bits of e_2 ... e_n
    q: dict = {}  # packed axial key -> c_e prod (e_i/2)!
    count: dict = {}
    for key, c in p.terms.items():
        if key & odd:
            return None
        a, *rest, d = key.to_bytes(n + 1, "little")
        for e in rest:
            if e > 2:
                c *= math.factorial(e // 2)
        ab = a * _T + (d - a) // 2 * _RHO
        if q.setdefault(ab, c) != c:
            return None
        count[ab] = count.get(ab, 0) + 1
    bmax = max((_axial_exps(ab)[1] for ab in q), default=0)
    for ab, m in count.items():
        if m != math.comb(_axial_exps(ab)[1] + n - 2, n - 2):
            return None
    L = math.factorial(bmax)
    return MultiPoly._make(2, {ab: c * (L // math.factorial(_axial_exps(ab)[1]))
                               for ab, c in q.items()}, L * p.den)


def _exact_algebra(polys, xi, pieces):
    """The axial algebra and the axial forms of polys when xi and every
    boundary centre lie on the e_1 axis and every poly converts; else the
    Cartesian algebra and polys unchanged."""
    n = polys[0].n
    if all(not np.any(x[1:]) for x in [xi] + [c for c, _, _ in pieces]):
        forms = [_axial_form(p) for p in polys]
        if all(f is not None for f in forms):
            return _Axial(n), forms
    return _Cartesian(n), polys


def _neg_laplacians(alg, p, k: int):
    """[p, -Delta p, ..., (-Delta)^k p] in the algebra alg."""
    out = [p]
    for _ in range(k):
        out.append(-alg.lap(out[-1]))
    return out


# ---------------------------------------------------------------------------
# Polynomial jet provider
# ---------------------------------------------------------------------------

class PolynomialJet:
    """Jet provider backed by an exact polynomial.

    nonneg certifies u >= 0 on the domain of interest, enabling the exact
    |u|^p path for odd integer p as well.
    """

    def __init__(self, poly: MultiPoly, nonneg: bool = False):
        self.poly = poly
        self.n = poly.n
        self.nonneg = nonneg
        self._dcache: dict = {(0, ()): poly}

    def _dpoly(self, alpha, lap: int = 0) -> MultiPoly:
        """d^alpha Delta^lap of the polynomial, exact."""
        key = (lap, tuple(sorted(alpha)))
        if key not in self._dcache:
            _, alpha = key
            self._dcache[key] = (self._dpoly(alpha[1:], lap).diff(alpha[0]) if alpha
                                 else self._dpoly((), lap - 1).laplacian())
        return self._dcache[key]

    def value(self, points):
        return self.poly.eval(points)

    def partial(self, alpha, points, lap: int = 0):
        return self._dpoly(alpha, lap).eval(points)

    def jet(self, x, order: int) -> Jet:
        return Jet(self, x, order)


def manufactured_dirichlet(k: int, n: int, poly: MultiPoly | None = None) -> PolynomialJet:
    """u = (1 - |x|^2)^k * poly: vanishes with all derivatives of order
    < k on the unit sphere, with exact polynomial jets."""
    base = (MultiPoly.const(n, 1) - MultiPoly.abs2(n)) ** k
    if poly is not None:
        base = base * poly
    return PolynomialJet(base, nonneg=poly is None)


# ---------------------------------------------------------------------------
# Jet-level operators
# ---------------------------------------------------------------------------

def e_operator(jet: Jet, f_value, p_exp: float, k: int):
    """E(u)(x) = (-Delta)^k u - f |u|^{p-2} u from a jet of order >= 2k
    (f_value broadcasts against the jet's points)."""
    if p_exp < 2:
        raise ValueError("need p >= 2")
    u = jet.value()
    return jet.lap_iter(k) - f_value * np.abs(u) ** (p_exp - 2.0) * u


def _dot(a, b):
    """Inner product over the last axis, batched over the leading ones."""
    return np.sum(a * b, axis=-1)


def _matvec(H, v):
    return np.einsum("...ab,...b->...a", H, v)


def x_grad_laplacian(jet: Jet, i: int, xi):
    """(-Delta)^i ((x-xi) . grad u) and its gradient, via the commutator
    Delta^i(x . grad u) = x . grad Delta^i u + 2i Delta^i u."""
    if 2 * i + 2 > jet.order:
        raise ValueError("jet order too low for this iterate")
    dx = jet.x - np.asarray(xi, float)
    g = jet.grad_lap(i)
    value = _dot(dx, g) + 2 * i * jet.lap_iter(i)
    gradient = (2 * i + 1) * g + _matvec(jet.hess_lap(i), dx)
    return value, gradient


# ---------------------------------------------------------------------------
# Boundary pieces
# ---------------------------------------------------------------------------

def _boundary_pieces(domain):
    """(center, radius, orientation): +1 outward sphere, -1 inner sphere."""
    if type(domain) is Ball:  # a HalfBall, a cut Ball, has a flat face too
        return [(np.asarray(domain.center, float), domain.radius, +1.0)]
    if isinstance(domain, BallMinusBalls):
        out = [(np.asarray(domain.outer.center, float), domain.outer.radius, +1.0)]
        for b in domain.inner:
            out.append((np.asarray(b.center, float), b.radius, -1.0))
        return out
    raise ValueError("Pohozaev domains are balls or balls-minus-balls")


def _is_polynomial_setup(u, f, p_exp: float = 2.0) -> bool:
    """Whether the exact path applies: u and f (or f None) are PolynomialJets
    and |u|^{p-2} u = u^{p-1} is a polynomial, p an even integer or an
    integer with u certified nonneg."""
    return (isinstance(u, PolynomialJet) and (f is None or isinstance(f, PolynomialJet))
            and p_exp == int(p_exp) and (p_exp % 2 == 0 or u.nonneg))


def _rule_opts(quad_opts, domain):
    """The keyword arguments of the volume rule and of every sphere rule for
    one quad_opts.  Its axis, a direction or a (point, direction) pair, goes
    to the volume rule as a pair (through the domain's centre for a
    direction) and to each sphere, integrated about its own centre, as the
    direction; tol goes to every rule, seed to the volume rule only.  A
    sphere whose centre is off the axis line would be integrated about
    another line, so that is a ValueError."""
    vol = dict(quad_opts or {})
    sphere = {key: v for key, v in vol.items() if key != "seed"}
    if vol.get("axis") is not None:
        if np.ndim(vol["axis"]) == 1:
            vol["axis"] = (domain.enclosing()[0], vol["axis"])
        _require_on_axis([c for c, _, _ in _boundary_pieces(domain)], *vol["axis"],
                         domain.enclosing()[1], "boundary sphere centre")
        sphere["axis"] = vol["axis"][1]
    return vol, sphere


# ---------------------------------------------------------------------------
# LHS: the boundary functional P_k
# ---------------------------------------------------------------------------

def _boundary_density(n: int, k: int, q, simplified: bool):
    """The density of P_k, or with simplified=True of its Dirichlet form, on
    one boundary sphere (module docstring), from a view q of u there:
    _poly_views or _node_view.  Its dyadic coefficients are exact in a MultiPoly."""
    if simplified:
        return -0.5 * q.xnu() * q.sq()
    acc = 0.0
    for i in range(k // 2):
        j = k - i - 1
        dnu_j = q.dnu(j)
        acc += 0.5 * (n - 2 * k) * (q.dnu(i) * q.v(j) - q.v(i) * dnu_j)
        D, dnu_D = q.D(i)
        acc += dnu_D * q.v(j) - D * dnu_j
    if k % 2 == 0:
        return acc + 0.5 * q.xnu() * q.sq()
    m = (k - 1) // 2
    w, dnu_w = q.w()
    return (acc + 0.5 * q.xnu() * q.v(m + 1) * q.v(m)
            + 0.5 * (q.v(m) * dnu_w - w * q.dnu(m)))


def _poly_views(alg, v, xi):
    """The exact path's views for _boundary_density: view(c, R, sign) reads
    the polynomials of the algebra alg on the sphere of radius R about c,
    where d_nu g = sign/R (x - c).grad g.  v lists (-Delta)^i u, i <= k;
    D_i, w and sq, which no sphere changes, are built once, on first use."""
    k, m = len(v) - 1, (len(v) - 2) // 2
    kept, make = {}, {
        "D": lambda: [alg.dot_grad(v[i], xi) + 2 * i * v[i] for i in range(k // 2)],
        "w": lambda: alg.dot_grad(v[m], xi),
        "sq": lambda: alg.grad_sq(v[m]) if k % 2 else v[k // 2] * v[k // 2]}

    def common(name):
        return kept[name] if name in kept else kept.setdefault(name, make[name]())

    def view(c, R, sign):
        c, s = [_exact(t) for t in c], _exact(sign / R)

        def dnu(p):
            return s * alg.dot_grad(p, c)

        return SimpleNamespace(
            v=v.__getitem__, dnu=lambda i: dnu(v[i]), sq=lambda: common("sq"),
            D=lambda i: (common("D")[i], dnu(common("D")[i])),
            w=lambda: (common("w"), dnu(common("w"))),
            xnu=lambda: alg.shifted_dot(xi, c) * s)
    return view


def _node_view(u, k: int, xi, pts, c, R, sign):
    """The quadrature path's view for _boundary_density: arrays at the nodes
    pts of the sphere of radius R about c, read from u's jet of order 2k."""
    jet, m = u.jet(pts, 2 * k), (k - 1) // 2
    dx, nu, grads = pts - xi, sign * (pts - c) / R, {}

    def grad(i):
        return grads[i] if i in grads else grads.setdefault(i, jet.grad_lap(i))

    def D(i):
        val, grad_D = x_grad_laplacian(jet, i, xi)
        return val, _dot(grad_D, nu)

    def w():
        return _dot(dx, grad(m)), _dot(grad(m) + _matvec(jet.hess_lap(m), dx), nu)

    return SimpleNamespace(
        v=jet.lap_iter, dnu=lambda i: _dot(grad(i), nu), D=D, w=w, xnu=lambda: _dot(dx, nu),
        sq=lambda: _dot(grad(m), grad(m)) if k % 2 else jet.lap_iter(k // 2) ** 2)


def pohozaev_lhs(u, domain, xi, k: int, simplified: bool = False,
                 quad_opts: dict | None = None):
    """The boundary functional P_k(domain; u), or with simplified=True its
    Dirichlet form: _boundary_density integrated over each boundary sphere,
    exactly for a PolynomialJet u (in the axial variables when u converts,
    see _axial_form), else by one sphere rule per boundary sphere with the
    options _rule_opts makes from quad_opts.  Returns (value, abs_budget).
    """
    xi = np.asarray(xi, float)
    pieces = _boundary_pieces(domain)

    if _is_polynomial_setup(u, None):
        alg, (upoly,) = _exact_algebra([u.poly], xi, pieces)
        view = _poly_views(alg, _neg_laplacians(alg, upoly, k), [_exact(t) for t in xi])
        total, budget = map(sum, zip(*(alg.moment(
            _boundary_density(u.n, k, view(c, R, sign), simplified), c, R, ball=False)
            for c, R, sign in pieces)))
        return total, 1e-12 * budget

    _, sphere_opts = _rule_opts(quad_opts, domain)
    return _sphere_sums(lambda pts, c, R, sign: _boundary_density(
        u.n, k, _node_view(u, k, xi, pts, c, R, sign), simplified), pieces, sphere_opts)


def _sphere_sums(density, pieces, sphere_opts):
    """Summed (value, error estimate) of density(pts, c, R, sign) over each
    boundary sphere (c, R, sign) of pieces, one integrate_surface call each."""
    res = [integrate_surface(partial(density, c=c, R=R, sign=s), SphereSurface(tuple(c), R),
                             **sphere_opts) for c, R, s in pieces]
    return sum(r.value for r in res), sum(r.error_estimate for r in res)


# ---------------------------------------------------------------------------
# RHS terms
# ---------------------------------------------------------------------------

def pohozaev_rhs(u, f, p_exp: float, domain, xi, k: int,
                 quad_opts: dict | None = None):
    """The four right-hand terms (T1 bulk E(u), T2 boundary f|u|^p,
    T3 volume f|u|^p, T4 grad-f volume).  Returns (terms, budget).

    PolynomialJets u and f take the exact path when |u|^{p-2} u is a
    polynomial (_is_polynomial_setup), in the axial variables when u and f
    both convert exactly (as in pohozaev_lhs); other data take the
    quadrature path.

    On the quadrature path _rule_opts maps quad_opts onto the volume rule
    (T1, T3, T4) and onto the rule of each boundary sphere (T2)."""
    if p_exp < 2:
        raise ValueError("need p >= 2")
    xi = np.asarray(xi, float)
    n = u.n
    coef_T3 = 0.5 * (n - 2 * k) - n / p_exp
    pieces = _boundary_pieces(domain)

    if _is_polynomial_setup(u, f, p_exp):
        p = int(p_exp)
        fpoly = f.poly if f is not None else MultiPoly.const(n, 1)
        alg, (upoly, fpoly) = _exact_algebra([u.poly, fpoly], xi, pieces)
        # for even p or nonneg u: |u|^{p-2} u = u^{p-1} and |u|^p = u^p
        upm1 = upoly ** (p - 1)
        up = upm1 * upoly
        xi_f = [_exact(v) for v in xi]

        Eu = _neg_laplacians(alg, upoly, k)[k] - fpoly * upm1
        mult = Fraction(n - 2 * k, 2) * upoly + alg.dot_grad(upoly, xi_f)

        def vol(poly):
            """Outer ball minus the inner ones."""
            parts = [(sign, *alg.moment(poly, c, R, ball=True)) for c, R, sign in pieces]
            return sum(s * v for s, v, _ in parts), sum(a for _, _, a in parts)

        T1, a1 = vol(mult * Eu)
        T3v, a3 = vol(fpoly * up)
        T4v, a4 = vol(alg.dot_grad(fpoly, xi_f) * up)

        def surf(c, R, sign):
            xnu = alg.shifted_dot(xi_f, [_exact(t) for t in c])
            return alg.moment(xnu * fpoly * up * _exact(sign / (R * p_exp)), c, R, ball=False)

        T2, a2 = map(sum, zip(*(surf(*piece) for piece in pieces)))
        budget = 1e-12 * (a1 + a2 + abs(coef_T3) * a3 + a4 / p_exp)
        return (T1, T2, coef_T3 * T3v, -T4v / p_exp), budget

    # quadrature path
    vol_opts, sphere_opts = _rule_opts(quad_opts, domain)

    def f_val(pts):
        return (np.ones(len(pts)) if f is None
                else np.asarray(f.value(pts), float))

    def bulk(pts):
        """The T1, T3 and (with f) T4 integrands as one stack.  After T1's
        comes the scale of its rounding, |mult| (|(-Delta)^k u| + |f| |u|^{p-1}),
        with the nonlinear term read back as (-Delta)^k u - E(u)."""
        pts = np.asarray(pts)
        jet = u.jet(pts, 2 * k)
        fv = f_val(pts)
        dx = pts - xi
        mult = 0.5 * (n - 2 * k) * jet.value() + _dot(dx, jet.grad())
        up = np.abs(jet.value()) ** p_exp
        lap, Eu = jet.lap_iter(k), e_operator(jet, fv, p_exp, k)
        rows = [mult * Eu, np.abs(mult) * (np.abs(lap) + np.abs(lap - Eu)), fv * up]
        if f is not None:
            grad_f = np.stack([f.partial((i,), pts) for i in range(n)], axis=1)
            rows.append(_dot(dx, grad_f) * up)
        return np.stack(rows)

    res = integrate_volume(bulk, domain, **vol_opts)
    # without f there is no T4 row, and T4 is 0
    T1, size, T3v, T4v = [*res.value.tolist(), 0.0][:4]
    e1, _, e3, e4 = [*res.error_estimate.tolist(), 0.0][:4]
    T2, e2 = _sphere_sums(lambda pts, c, R, sign: (
        np.sum((pts - xi) * (sign * (pts - c) / R), axis=1) * f_val(pts)
        * np.abs(np.asarray(u.value(pts), float)) ** p_exp / p_exp), pieces, sphere_opts)
    budget = e1 + e2 + abs(coef_T3) * e3 + e4 / p_exp + np.finfo(float).eps * size
    return (T1, T2, coef_T3 * T3v, -T4v / p_exp), budget


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass
class PohozaevReport:
    k: int
    n: int
    xi: np.ndarray
    lhs: float
    T1: float
    T2: float
    T3: float
    T4: float
    residual_abs: float
    residual_rel: float
    budget: float
    simplified_gap: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k, "n": self.n, "xi": list(map(float, self.xi)),
            "terms": {"lhs": self.lhs, "T1": self.T1, "T2": self.T2,
                      "T3": self.T3, "T4": self.T4},
            "residual_abs": self.residual_abs,
            "residual_rel": self.residual_rel,
            "budget": self.budget,
            "simplified_gap": self.simplified_gap,
        }, indent=2)


def pohozaev_residual(u, f, p_exp: float, domain, xi, k: int,
                      dirichlet: bool = False,
                      quad_opts: dict | None = None) -> PohozaevReport:
    """Evaluate both sides of the identity and report the residual.

    residual_rel is |lhs - sum T_i| / max(|lhs|, max_i |T_i|, tiny).  With
    dirichlet=True the report also carries the gap between the full P_k and
    its Dirichlet form, which holds for every k (module docstring).
    quad_opts goes unchanged to pohozaev_lhs and pohozaev_rhs.
    """
    xi = np.asarray(xi, float)
    lhs, b_lhs = pohozaev_lhs(u, domain, xi, k, quad_opts=quad_opts)
    (T1, T2, T3, T4), b_rhs = pohozaev_rhs(u, f, p_exp, domain, xi, k,
                                           quad_opts=quad_opts)
    rhs = T1 + T2 + T3 + T4
    res = abs(lhs - rhs)
    scale = max(abs(lhs), abs(T1), abs(T2), abs(T3), abs(T4), 1e-30)
    gap = None
    if dirichlet:
        simp, _ = pohozaev_lhs(u, domain, xi, k, simplified=True,
                               quad_opts=quad_opts)
        gap = abs(lhs - simp)
    return PohozaevReport(k, u.n, xi, lhs, T1, T2, T3, T4, res, res / scale,
                          b_lhs + b_rhs, gap)
