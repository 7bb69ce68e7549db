"""Polyharmonic Pohozaev identity on balls and annuli.

The identity couples a bulk pairing of E(u) = (-Delta)^k u - f |u|^{p-2} u
with the dilation generator against a boundary functional P_k built from
iterated Laplacians.  For Dirichlet data P_k collapses, for either parity of
k, to (-1)^k/2 * int (x-xi, nu) |(-Delta)^{k/2} u|^2, where (-Delta)^{k/2}
means grad (-Delta)^{(k-1)/2} when k is odd.

Two evaluation paths:

* exact -- when u and f are polynomial jets, |u|^p is polynomial (even
  integer p, or integer p with u certified nonnegative) and the domain is a
  ball or annulus, every term reduces to rational sphere/ball moments and
  the only error is final float rounding;
* quadrature -- generic jet providers are integrated with the engine from
  the quadrature module (axisymmetric rules when an axis is declared).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .jets import Jet
from .quadrature import (Ball, BallMinusBalls, SphereSurface,
                         integrate_axisymmetric, integrate_surface,
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

class MultiPoly:
    """Polynomial sum c_e x^e over multi-indices e, coefficients Fraction."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        cc = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c) if not isinstance(c, Fraction) else c
                if c != 0:
                    cc[tuple(e)] = c
        self.coeffs = cc

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: Fraction(c)})

    @classmethod
    def coordinate(cls, n, i):
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    @classmethod
    def abs2(cls, n):
        """|x|^2."""
        out = {}
        for i in range(n):
            e = [0] * n
            e[i] = 2
            out[tuple(e)] = Fraction(1)
        return cls(n, out)

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.n, other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.n, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly)
                       else MultiPoly.const(self.n, -Fraction(other)))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out: dict = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return MultiPoly(self.n, out)
        q = Fraction(other)
        return MultiPoly(self.n, {e: c * q for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0 or m != int(m):
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.const(self.n, 1)
        base = self
        m = int(m)
        while m:
            if m & 1:
                out = out * base
            base = base * base if m > 1 else base
            m >>= 1
        return out

    def diff(self, i: int):
        out = {}
        for e, c in self.coeffs.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), Fraction(0)) + c * e[i]
        return MultiPoly(self.n, out)

    def laplacian(self):
        out = MultiPoly(self.n)
        for i in range(self.n):
            out = out + self.diff(i).diff(i)
        return out

    def neg_laplacian_iter(self, m: int):
        p = self
        for _ in range(m):
            p = -p.laplacian()
        return p

    def x_dot_grad(self, xi):
        """(x - xi) . grad p as a polynomial; xi entries must be exact."""
        out = MultiPoly(self.n)
        for i in range(self.n):
            di = self.diff(i)
            out = out + MultiPoly.coordinate(self.n, i) * di - Fraction(xi[i]) * di
        return out

    def degree(self):
        return max((sum(e) for e in self.coeffs), default=0)

    def translate(self, c):
        """p(x + c) with exact shift entries c."""
        c = [Fraction(v) for v in c]
        if all(v == 0 for v in c):
            return self
        out = MultiPoly(self.n)
        for e, coef in self.coeffs.items():
            term = MultiPoly.const(self.n, coef)
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                lin = MultiPoly.coordinate(self.n, i) + MultiPoly.const(self.n, c[i])
                term = term * lin**ei
            out = out + term
        return out

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, float))
        out = np.zeros(len(pts))
        for e, c in self.coeffs.items():
            mono = np.full(len(pts), float(c))
            for i, ei in enumerate(e):
                if ei:
                    mono *= pts[:, i] ** ei
            out += mono
        return out


# exact moments -------------------------------------------------------------

def _sphere_moment(poly: MultiPoly, radius: float, n: int):
    """(exact-rational mean over S^{n-1}(0,1) scaled) integral over the
    sphere of radius `radius` centred at 0, with an |.|-sum for the budget."""
    area = sphere_area(n)
    val = 0.0
    abs_sum = 0.0
    for e, c in poly.coeffs.items():
        ratio = sphere_moment_ratio(e)
        if ratio == 0:
            continue
        contrib = float(c * ratio) * area * radius ** (sum(e) + n - 1)
        val += contrib
        abs_sum += abs(contrib)
    return val, abs_sum


def _ball_moment(poly: MultiPoly, radius: float, n: int):
    area = sphere_area(n)
    val = 0.0
    abs_sum = 0.0
    for e, c in poly.coeffs.items():
        ratio = sphere_moment_ratio(e)
        if ratio == 0:
            continue
        d = sum(e) + n
        contrib = float(c * ratio) * area * radius**d / d
        val += contrib
        abs_sum += abs(contrib)
    return val, abs_sum


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
        self._dcache: dict = {(): poly}

    def _dpoly(self, alpha) -> MultiPoly:
        alpha = tuple(sorted(alpha))
        if alpha not in self._dcache:
            self._dcache[alpha] = self._dpoly(alpha[1:]).diff(alpha[0])
        return self._dcache[alpha]

    def value(self, points):
        return self.poly.eval(points)

    def partial(self, alpha, points):
        return self._dpoly(alpha).eval(points)

    def jet(self, x, order: int) -> Jet:
        return Jet(self, x, order)


def manufactured_dirichlet(k: int, n: int, poly: MultiPoly | None = None) -> PolynomialJet:
    """u = (1 - |x|^2)^k * poly: vanishes with all derivatives of order
    < k on the unit sphere, with exact polynomial jets."""
    base = (MultiPoly.const(n, 1) - MultiPoly.abs2(n)) ** k
    if poly is not None:
        base = base * poly
    nonneg = poly is None
    return PolynomialJet(base, nonneg=nonneg)


# ---------------------------------------------------------------------------
# Jet-level operators
# ---------------------------------------------------------------------------

def e_operator(jet: Jet, f_value, p_exp: float, k: int | None = None):
    """E(u)(x) = (-Delta)^k u - f |u|^{p-2} u from a jet of order >= 2k
    (f_value broadcasts against the jet's points)."""
    if p_exp < 2:
        raise ValueError("need p >= 2")
    if k is None:
        k = jet.order // 2
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
    if isinstance(domain, Ball):
        return [(np.asarray(domain.center, float), domain.radius, +1.0)]
    if isinstance(domain, BallMinusBalls):
        out = [(np.asarray(domain.outer.center, float), domain.outer.radius, +1.0)]
        for b in domain.inner:
            out.append((np.asarray(b.center, float), b.radius, -1.0))
        return out
    raise ValueError("Pohozaev domains are balls or balls-minus-balls")


def _is_polynomial_setup(u, f) -> bool:
    return isinstance(u, PolynomialJet) and (f is None or isinstance(f, PolynomialJet))


# ---------------------------------------------------------------------------
# LHS: the boundary functional P_k
# ---------------------------------------------------------------------------

def _lhs_polys(u: PolynomialJet, xi, k: int):
    """All polynomial ingredients of P_k: v_i = (-Delta)^i u, the commutator
    fields D_i, and helpers shared by both parities."""
    n = u.n
    v = [u.poly.neg_laplacian_iter(i) for i in range(k + 1)]
    D = []
    for i in range(max(0, k // 2)):
        D.append(v[i].x_dot_grad(xi) + 2 * i * v[i])
    return v, D


def _sphere_poly_integral(poly: MultiPoly, center, radius, n):
    """Integral over the sphere S(center, radius); recenters if needed."""
    if np.linalg.norm(np.asarray(center, float)) > 0:
        poly = poly.translate([Fraction(c).limit_denominator(10**12)
                               for c in np.asarray(center, float)])
    return _sphere_moment(poly, radius, n)


def pohozaev_lhs(u, domain, xi, k: int, simplified: bool = False,
                 quad_opts: dict | None = None):
    """The boundary functional P_k(domain; u).

    simplified=True evaluates instead the Dirichlet form
    (-1)^k/2 * int (x-xi, nu) |(-Delta)^{k/2} u|^2, valid when u carries
    Dirichlet data on the boundary of the domain (odd k uses the gradient
    interpretation of the half-power).

    Returns (value, abs_budget).
    """
    xi = np.asarray(xi, float)
    n = u.n
    pieces = _boundary_pieces(domain)

    if _is_polynomial_setup(u, None):
        xi_f = [Fraction(v).limit_denominator(10**12) for v in xi]
        v, D = _lhs_polys(u, xi_f, k)
        total, budget = 0.0, 0.0
        for (c, R, sign) in pieces:
            # on the sphere: nu = sign (x - c)/R, d_nu g = grad g . nu
            def dnu(poly):
                out = MultiPoly(n)
                for i in range(n):
                    xi_c = MultiPoly.coordinate(n, i) - Fraction(c[i]).limit_denominator(10**12)
                    out = out + poly.diff(i) * xi_c
                return out * Fraction(sign / R).limit_denominator(10**12)

            x_minus_xi_nu = MultiPoly(n)
            for i in range(n):
                xi_c = MultiPoly.coordinate(n, i) - Fraction(c[i]).limit_denominator(10**12)
                xmx = MultiPoly.coordinate(n, i) - xi_f[i]
                x_minus_xi_nu = x_minus_xi_nu + xmx * xi_c
            x_minus_xi_nu = x_minus_xi_nu * Fraction(sign / R).limit_denominator(10**12)

            if simplified:
                # Dirichlet collapse: P_k = -1/2 int (x-xi, nu) |(-D)^{k/2} u|^2
                # for every k.  For odd k this is the (-1)^k/2 convention of
                # the source; for even k the printed (-1)^k sign there is
                # inconsistent with the full identity (the surviving
                # commutator boundary term equals -2 R_k, flipping R_k's
                # sign), as the exact-path tests demonstrate.
                if k % 2 == 0:
                    sq = v[k // 2] * v[k // 2]
                else:
                    m = (k - 1) // 2
                    sq = MultiPoly(n)
                    for i in range(n):
                        di = v[m].diff(i)
                        sq = sq + di * di
                integrand = Fraction(-1, 2) * x_minus_xi_nu * sq
                val, ab = _sphere_poly_integral(integrand, c, R, n)
                total += val
                budget += ab
                continue

            integrand = MultiPoly(n)
            half_nm2k = Fraction(n - 2 * k, 2)
            for i in range(k // 2):
                integrand = integrand + half_nm2k * (
                    dnu(v[i]) * v[k - i - 1] - v[i] * dnu(v[k - i - 1]))
                integrand = integrand + (
                    dnu(D[i]) * v[k - i - 1] - D[i] * dnu(v[k - i - 1]))
            if k % 2 == 0:
                integrand = integrand + Fraction(1, 2) * x_minus_xi_nu * v[k // 2] * v[k // 2]
            else:
                m = (k - 1) // 2
                integrand = integrand + Fraction(1, 2) * x_minus_xi_nu * v[m + 1] * v[m]
                w = v[m].x_dot_grad(xi_f)
                integrand = integrand + Fraction(1, 2) * (v[m] * dnu(w) - w * dnu(v[m]))
            val, ab = _sphere_poly_integral(integrand, c, R, n)
            total += val
            budget += ab
        return total, 1e-12 * budget

    # quadrature path for generic jet providers
    qo = quad_opts or {}
    total, err = 0.0, 0.0
    for (c, R, sign) in pieces:
        def integrand(pts):
            jet = u.jet(pts, 2 * k)
            nu = sign * (pts - c) / R
            dx = pts - xi
            dxnu = _dot(dx, nu)
            if simplified:
                if k % 2 == 0:
                    s = jet.lap_iter(k // 2) ** 2
                else:
                    g = jet.grad_lap((k - 1) // 2)
                    s = _dot(g, g)
                return -0.5 * dxnu * s
            acc = 0.0
            for i in range(k // 2):
                vi = jet.lap_iter(i)
                gi = jet.grad_lap(i)
                vki = jet.lap_iter(k - i - 1)
                gki = jet.grad_lap(k - i - 1)
                acc += 0.5 * (n - 2 * k) * (_dot(gi, nu) * vki - vi * _dot(gki, nu))
                Dval, Dgrad = x_grad_laplacian(jet, i, xi)
                acc += _dot(Dgrad, nu) * vki - Dval * _dot(gki, nu)
            if k % 2 == 0:
                acc += 0.5 * dxnu * jet.lap_iter(k // 2) ** 2
            else:
                m = (k - 1) // 2
                acc += 0.5 * dxnu * jet.lap_iter(m + 1) * jet.lap_iter(m)
                gm = jet.grad_lap(m)
                w = _dot(dx, gm)
                grad_w = gm + _matvec(jet.hess_lap(m), dx)
                acc += 0.5 * (jet.lap_iter(m) * _dot(grad_w, nu)
                              - w * _dot(gm, nu))
            return acc

        res = integrate_surface(integrand, SphereSurface(tuple(c), R), **qo)
        total += res.value
        err += res.error_estimate
    return total, err


# ---------------------------------------------------------------------------
# RHS terms
# ---------------------------------------------------------------------------

def _abs_power_poly(u: PolynomialJet, p_exp):
    """|u|^p as an exact polynomial, or None when not representable."""
    if p_exp != int(p_exp):
        return None
    p = int(p_exp)
    if p % 2 == 0 or u.nonneg:
        return u.poly**p
    return None


def pohozaev_rhs(u, f, p_exp: float, domain, xi, k: int,
                 quad_opts: dict | None = None):
    """The four right-hand terms (T1 bulk E(u), T2 boundary f|u|^p,
    T3 volume f|u|^p, T4 grad-f volume).  Returns (terms, budget)."""
    if p_exp < 2:
        raise ValueError("need p >= 2")
    xi = np.asarray(xi, float)
    n = u.n
    coef_T3 = 0.5 * (n - 2 * k) - n / p_exp
    pieces = _boundary_pieces(domain)

    if _is_polynomial_setup(u, f):
        up = _abs_power_poly(u, p_exp)
        upm1 = (_abs_power_poly(u, p_exp - 1)
                if (u.nonneg or (p_exp - 1) % 2 == 0 or (int(p_exp) - 2) % 2 == 0)
                else None)
        # |u|^{p-2} u = u^{p-1} for even integer p, or nonneg u
        if p_exp == int(p_exp) and (int(p_exp) % 2 == 0 or u.nonneg):
            upm1 = u.poly ** (int(p_exp) - 1)
        if up is None or upm1 is None:
            raise ValueError("non-polynomial |u|^p; use the quadrature path")
        xi_f = [Fraction(v).limit_denominator(10**12) for v in xi]
        fpoly = f.poly if f is not None else MultiPoly.const(n, 1)

        Eu = u.poly.neg_laplacian_iter(k) - fpoly * upm1
        mult = Fraction(n - 2 * k, 2) * u.poly + u.poly.x_dot_grad(xi_f)
        T1_poly = mult * Eu
        T3_poly = fpoly * up
        T4_poly = MultiPoly(n)
        for i in range(n):
            xmx = MultiPoly.coordinate(n, i) - xi_f[i]
            T4_poly = T4_poly + xmx * fpoly.diff(i)
        T4_poly = T4_poly * up

        def vol(poly):
            val, ab = 0.0, 0.0
            if isinstance(domain, Ball):
                v0, a0 = _ball_int(poly, domain.center, domain.radius, n)
                return v0, a0
            v0, a0 = _ball_int(poly, domain.outer.center, domain.outer.radius, n)
            val, ab = v0, a0
            for b in domain.inner:
                v1, a1 = _ball_int(poly, b.center, b.radius, n)
                val -= v1
                ab += a1
            return val, ab

        def _ball_int(poly, c, R, nn):
            if np.linalg.norm(np.asarray(c, float)) > 0:
                poly = poly.translate([Fraction(v).limit_denominator(10**12)
                                       for v in np.asarray(c, float)])
            return _ball_moment(poly, R, nn)

        T1, a1 = vol(T1_poly)
        T3v, a3 = vol(T3_poly)
        T3 = coef_T3 * T3v
        T4v, a4 = vol(T4_poly)
        T4 = -T4v / p_exp
        T2, a2 = 0.0, 0.0
        for (c, R, sign) in pieces:
            xnu = MultiPoly(n)
            for i in range(n):
                xi_c = MultiPoly.coordinate(n, i) - Fraction(float(c[i])).limit_denominator(10**12)
                xmx = MultiPoly.coordinate(n, i) - xi_f[i]
                xnu = xnu + xmx * xi_c
            integrand = xnu * fpoly * up * Fraction(sign / (R * p_exp)).limit_denominator(10**12)
            v2, ab2 = _sphere_poly_integral(integrand, c, R, n)
            T2 += v2
            a2 += ab2
        budget = 1e-12 * (a1 + a2 + abs(coef_T3) * a3 + a4 / p_exp)
        return (T1, T2, T3, T4), budget

    # quadrature path
    qo = quad_opts or {}
    axis = qo.pop("axis", None)

    def f_val(pts):
        return (np.ones(len(pts)) if f is None
                else np.asarray(f.value(pts), float))

    def grad_f(pts):
        if f is None:
            return np.zeros_like(pts)
        return np.stack([f.partial((i,), pts) for i in range(n)], axis=1)

    def bulk1(pts):
        jet = u.jet(pts, 2 * k)
        mult = 0.5 * (n - 2 * k) * jet.value() + _dot(pts - xi, jet.grad())
        return mult * e_operator(jet, f_val(pts), p_exp, k)

    def bulk3(pts):
        return f_val(pts) * np.abs(np.asarray(u.value(pts), float)) ** p_exp

    def bulk4(pts):
        return (np.sum((pts - xi) * grad_f(pts), axis=1)
                * np.abs(np.asarray(u.value(pts), float)) ** p_exp)

    def volume(fn):
        if axis is not None:
            res = integrate_axisymmetric(fn, domain, axis[0], axis[1])
        else:
            from .quadrature import integrate_volume
            res = integrate_volume(fn, domain, **qo)
        return res.value, res.error_estimate

    T1, e1 = volume(bulk1)
    T3v, e3 = volume(bulk3)
    T4v, e4 = (0.0, 0.0) if f is None else volume(bulk4)
    T2, e2 = 0.0, 0.0
    for (c, R, sign) in pieces:
        def surf(pts, c=c, R=R, sign=sign):
            nu = sign * (pts - c) / R
            return (np.sum((pts - xi) * nu, axis=1) * f_val(pts)
                    * np.abs(np.asarray(u.value(pts), float)) ** p_exp / p_exp)

        sres = integrate_surface(surf, SphereSurface(tuple(c), R),
                                 axis=(axis[1] if axis is not None else None))
        T2 += sres.value
        e2 += sres.error_estimate
    budget = e1 + e2 + abs(coef_T3) * e3 + e4 / p_exp
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
    its collapsed (-1)^k/2-form (the sign matters: the k-odd collapse has a
    (-1)^k factor that older references drop).
    """
    xi = np.asarray(xi, float)
    # the volume rule takes axis = (point, direction); a boundary sphere is
    # integrated about its own centre and takes the direction only
    lhs_opts = dict(quad_opts or {})
    if lhs_opts.get("axis") is not None:
        lhs_opts["axis"] = lhs_opts["axis"][1]
    lhs, b_lhs = pohozaev_lhs(u, domain, xi, k, quad_opts=lhs_opts)
    (T1, T2, T3, T4), b_rhs = pohozaev_rhs(u, f, p_exp, domain, xi, k,
                                           quad_opts=dict(quad_opts or {}))
    rhs = T1 + T2 + T3 + T4
    res = abs(lhs - rhs)
    scale = max(abs(lhs), abs(T1), abs(T2), abs(T3), abs(T4), 1e-30)
    gap = None
    if dirichlet:
        simp, _ = pohozaev_lhs(u, domain, xi, k, simplified=True,
                               quad_opts=lhs_opts)
        gap = abs(lhs - simp)
    return PohozaevReport(k, u.n, xi, lhs, T1, T2, T3, T4, res, res / scale,
                          b_lhs + b_rhs, gap)
