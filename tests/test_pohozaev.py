"""Pohozaev identity: jet operators against FD oracles, exact manufactured
tests (computed with rational moments frozen against an independent
brute-force path), the k=1 hand-coded boundary expression, subdomain and
shifted-center variants, the parity of the Dirichlet collapse, and the
axial (x_1, |x'|^2) exact path against the quadrature path."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from polybubble import pohozaev
from polybubble.fields import RadialTermField, RationalProfile
from polybubble.pohozaev import (MultiPoly, PolynomialJet, _Axial, _axial_form,
                                 e_operator, manufactured_dirichlet,
                                 pohozaev_lhs, pohozaev_residual,
                                 pohozaev_rhs, x_grad_laplacian)
from polybubble.quadrature import (Ball, BallMinusBalls, HalfBall, SphereSurface,
                                   integrate_surface, sphere_area)
from polybubble.radial import bubble_constant, critical_exponent, make_bubble

from fd_oracles import fd_laplacian_iter, fd_partial


# -- polynomial engine ---------------------------------------------------------

def test_multipoly_algebra():
    n = 3
    p = MultiPoly.const(n, 1) - MultiPoly.abs2(n)
    q = p * p
    x = np.array([[0.2, -0.1, 0.3]])
    r2 = float(np.sum(x**2))
    assert q.eval(x)[0] == pytest.approx((1 - r2) ** 2, rel=1e-14)
    assert (p**3).eval(x)[0] == pytest.approx((1 - r2) ** 3, rel=1e-14)
    # Laplacian of |x|^2 is 2n
    lap = MultiPoly.abs2(n).laplacian()
    assert lap.coeffs == {(0,) * n: Fraction(2 * n)}


# Reference algebra on {exponent tuple: Fraction} dicts, the representation
# MultiPoly had before its integer kernel.

def _ref_clean(p):
    return {e: c for e, c in p.items() if c != 0}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def _ref_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[e2] = out.get(e2, Fraction(0)) + c * e[i]
    return _ref_clean(out)


def _random_poly(rng, n, terms=5, max_exp=3):
    return {tuple(rng.randint(0, max_exp) for _ in range(n)):
            Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(terms)}


@pytest.mark.parametrize("seed", range(8))
def test_multipoly_matches_fraction_reference(seed):
    """Every operation of the integer kernel gives the coefficients of the
    Fraction reference: non-integer scalars, powers and exact cancellation
    to zero."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a, b = _random_poly(rng, n), _random_poly(rng, n)
    A, B = MultiPoly(n, a), MultiPoly(n, b)
    assert dict(A.coeffs) == _ref_clean(a)
    assert dict((A + B).coeffs) == _ref_add(a, b)
    assert dict((A - B).coeffs) == _ref_add(a, {e: -c for e, c in b.items()})
    assert dict((A * B).coeffs) == _ref_mul(a, b)
    assert dict((A**3).coeffs) == _ref_mul(_ref_mul(a, a), a)
    q = Fraction(rng.randint(-20, 20) or 1, rng.randint(2, 30))
    assert dict((q * A).coeffs) == _ref_clean({e: q * c for e, c in a.items()})
    assert dict((A + q).coeffs) == _ref_add(a, {(0,) * n: q})
    for i in range(n):
        assert dict(A.diff(i).coeffs) == _ref_diff(a, i)
    lap = {}
    for i in range(n):
        lap = _ref_add(lap, _ref_diff(_ref_diff(a, i), i))
    assert dict(A.laplacian().coeffs) == lap
    # exact cancellation leaves the zero polynomial
    zero = (A + B) - A - B
    assert dict(zero.coeffs) == {} and zero.degree() == 0
    assert dict((A * B - B * A).coeffs) == {}
    # the store stays in lowest terms over a positive common denominator
    for p in (A + B, A * B, q * A, A.diff(0), zero):
        assert p.den > 0 and math.gcd(p.den, *p.terms.values()) == 1
    x = np.array([[0.3, -0.7, 0.2, 0.9][:n]])
    ref = sum(float(c) * np.prod([x[0, i] ** e[i] for i in range(n)])
              for e, c in _ref_clean(a).items())
    assert A.eval(x)[0] == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_multipoly_coeffs_is_a_read_only_view():
    p = MultiPoly(2, {(1, 0): Fraction(1, 3), (0, 2): Fraction(-2)})
    view = p.coeffs
    assert len(view) == 2 and view[(1, 0)] == Fraction(1, 3)
    assert (5, 5) not in view and view.get((9, 0, 0)) is None
    with pytest.raises(TypeError):
        view[(1, 0)] = Fraction(1)


def test_multipoly_degree_guard():
    """Degrees a packed exponent field cannot hold are refused, never
    wrapped into the neighbouring field."""
    x = MultiPoly.coordinate(2, 0)
    y = MultiPoly.coordinate(2, 1)
    big = x**200 * y**55
    assert big.degree() == 255 and dict(big.coeffs) == {(200, 55): 1}
    with pytest.raises(OverflowError):
        big * x
    with pytest.raises(OverflowError):
        MultiPoly(2, {(256, 0): 1})


def _sympy_expr(sp, p, xs):
    return sum(sp.Rational(c.numerator, c.denominator)
               * sp.prod([x**a for x, a in zip(xs, e)])
               for e, c in p.coeffs.items())


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (3, 5)])
def test_laplacian_iterates_against_sympy(k, n):
    sp = pytest.importorskip("sympy")
    xs = sp.symbols(f"x0:{n}")
    u = manufactured_dirichlet(
        k, n, MultiPoly.coordinate(n, 0) * Fraction(2, 3) + Fraction(1, 7))
    expr, p = _sympy_expr(sp, u.poly, xs), u.poly
    for _ in range(k + 1):
        ours = {e: sp.Rational(c.numerator, c.denominator)
                for e, c in p.coeffs.items()}
        assert sp.Poly(expr, *xs).as_dict() == ours
        expr, p = sp.expand(-sum(sp.diff(expr, x, 2) for x in xs)), -p.laplacian()


@pytest.mark.parametrize("n", [3, 4])
def test_moments_against_sympy(n):
    """Sphere and ball integrals of an axial polynomial A(x_1, |x'|^2) with
    odd and even terms about the origin (_Axial.moment), against sympy
    integration in hyperspherical coordinates."""
    sp = pytest.importorskip("sympy")
    rho, R = sp.symbols("rho R", positive=True)
    angles = sp.symbols(f"t0:{n - 1}")
    # x = rho * (unit vector), dS = prod_j sin(t_j)^(n-2-j) dt
    unit, s = [], sp.Integer(1)
    for t in angles[:-1]:
        unit.append(s * sp.cos(t))
        s *= sp.sin(t)
    unit += [s * sp.cos(angles[-1]), s * sp.sin(angles[-1])]
    jac = sp.prod([sp.sin(t) ** (n - 2 - j) for j, t in enumerate(angles[:-1])])
    limits = [(t, 0, sp.pi) for t in angles[:-1]] + [(angles[-1], 0, 2 * sp.pi)]
    A = MultiPoly(2, {(2, 1): Fraction(3, 5), (0, 0): Fraction(-1, 3),
                      (1, 0): Fraction(2), (3, 1): Fraction(5, 3),
                      (0, 2): Fraction(1, 7)})
    expr = _sympy_expr(sp, _cartesian_of(A, n), [rho * ui for ui in unit])
    sphere = sp.integrate(sp.expand(expr * jac), *limits)
    for r in (1.0, 0.5):
        want_s = float((sphere * rho ** (n - 1)).subs(rho, sp.Rational(r)))
        want_b = float(sp.integrate(sphere * rho ** (n - 1), (rho, 0, sp.Rational(r))))
        got_s, _ = _Axial(n).moment(A, r, ball=False)
        got_b, _ = _Axial(n).moment(A, r, ball=True)
        assert got_s == pytest.approx(want_s, rel=1e-13)
        assert got_b == pytest.approx(want_b, rel=1e-13)


def test_manufactured_dirichlet_boundary_flatness():
    """u and all derivatives up to order k-1 vanish identically on the
    sphere (exact polynomial evaluation)."""
    k, n = 2, 5
    u = manufactured_dirichlet(k, n)
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(20, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    assert np.abs(u.value(dirs)).max() < 1e-13
    for i in range(n):
        assert np.abs(u.partial((i,), dirs)).max() < 1e-12


def test_manufactured_jets_match_fd():
    k, n = 2, 4
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 2)
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.4, 0.4, n)
    jet = u.jet(x, 2 * k)
    # double Richardson at a large step: exact for degree <= 7 polynomials
    # and far from the roundoff floor, so tol 1e-9 is attainable
    for alpha in [(0,), (1, 2), (0, 0, 3), (2, 2, 3, 3)]:
        h = 0.2
        F = [fd_partial(lambda p: u.value(p), x, alpha, h=h / 2**j)
             for j in range(3)]
        R1 = [(4 * F[j + 1] - F[j]) / 3 for j in range(2)]
        fd = (16 * R1[1] - R1[0]) / 15
        assert jet.partial(alpha) == pytest.approx(fd, rel=1e-9, abs=1e-9)


def test_poly_laplacian_degree_count():
    """(-Delta)^k u is a polynomial of the expected degree."""
    k, n = 2, 4
    u = manufactured_dirichlet(k, n)  # degree 2k polynomial
    assert u.poly.degree() == 2 * k
    assert u.poly.laplacian().laplacian().degree() == 0  # constant
    k2, n2 = 3, 5
    u2 = manufactured_dirichlet(k2, n2, MultiPoly.coordinate(n2, 0))
    assert u2.poly.degree() == 2 * k2 + 1
    assert u2.poly.laplacian().laplacian().laplacian().degree() == 1


# -- jet operators -------------------------------------------------------------

def test_e_operator_harmonic_and_zero():
    n = 3
    # harmonic polynomial x1^2 - x2^2, f = 0, k = 1
    h = MultiPoly(n, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(-1)})
    jet = PolynomialJet(h).jet(np.array([0.3, 0.2, -0.1]), 2)
    assert e_operator(jet, 0.0, 2.0, k=1) == pytest.approx(0.0, abs=1e-14)
    zero = PolynomialJet(MultiPoly.const(n, 0)).jet(np.zeros(n), 2)
    assert e_operator(zero, 1.0, 2.0, k=1) == 0.0


def test_e_operator_bubble_annihilation():
    """The flat profile solves the critical equation: E(B) = 0 to 1e-10."""
    n, k = 5, 1
    a = bubble_constant(n, k)
    F = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), a))
    ts = critical_exponent(n, k)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=n) * 0.5
        jet = F.jet(x, 2 * k)
        assert abs(e_operator(jet, 1.0, ts, k=k)) < 1e-10


def test_e_operator_rejects_small_p():
    n = 3
    jet = PolynomialJet(MultiPoly.abs2(n)).jet(np.zeros(n), 2)
    with pytest.raises(ValueError):
        e_operator(jet, 1.0, 1.5, k=1)


def test_x_grad_laplacian_identity_cases():
    n = 3
    # i = 0 is the plain dilation pairing
    p = MultiPoly.abs2(n)
    jet = PolynomialJet(p).jet(np.array([0.5, -0.2, 0.1]), 4)
    val, grad = x_grad_laplacian(jet, 0, np.zeros(n))
    x = jet.x
    assert val == pytest.approx(2 * float(x @ x), rel=1e-13)
    assert np.allclose(grad, 4 * x)


def test_x_grad_laplacian_commutator_vs_fd():
    """The commutator identity against nested FD Laplacians of the raw
    product (x - xi) . grad u (Richardson)."""
    n = 4
    coeffs = {(2, 0, 1, 0): Fraction(3, 2), (0, 3, 0, 1): Fraction(-7, 10),
              (1, 1, 1, 1): Fraction(3, 10), (0, 0, 4, 0): Fraction(1, 4)}
    u = PolynomialJet(MultiPoly(n, coeffs))
    xi = np.array([0.1, -0.2, 0.0, 0.3])
    x0 = np.array([0.4, 0.1, -0.3, 0.2])
    jet = u.jet(x0, 6)

    def g(pts):
        grads = np.stack([u.partial((j,), pts) for j in range(n)], axis=1)
        return np.sum((pts - xi) * grads, axis=1)

    for i in (0, 1, 2):
        val, _ = x_grad_laplacian(jet, i, xi)
        fd1 = fd_laplacian_iter(g, x0, i, h=2e-2)
        fd2 = fd_laplacian_iter(g, x0, i, h=1e-2)
        fd = (4 * fd2 - fd1) / 3
        assert val == pytest.approx(fd, rel=1e-8, abs=1e-7)


def test_jet_accessor_consistency():
    """lap_iter/grad_lap/hess_lap agree with explicit contractions of the
    raw table (trace identities)."""
    n = 3
    u = manufactured_dirichlet(1, n, MultiPoly.coordinate(n, 1))
    x = np.array([0.2, 0.1, -0.3])
    jet = u.jet(x, 4)
    lap1 = -(jet.partial((0, 0)) + jet.partial((1, 1)) + jet.partial((2, 2)))
    assert jet.lap_iter(1) == pytest.approx(lap1, rel=1e-13)
    H = jet.hess_lap(0)
    assert jet.lap_iter(1) == pytest.approx(-np.trace(H), rel=1e-13)
    g = jet.grad_lap(1)
    for j in range(n):
        explicit = -(jet.partial((0, 0, j)) + jet.partial((1, 1, j))
                     + jet.partial((2, 2, j)))
        assert g[j] == pytest.approx(explicit, rel=1e-12, abs=1e-14)


def _radial_bubble(n, k):
    return RadialTermField.radial(
        n, np.zeros(n), RationalProfile(make_bubble(n, k), bubble_constant(n, k)))


@pytest.mark.parametrize("provider", ["radial", "polynomial"])
def test_batch_jet_matches_single_point_jets(provider):
    """One jet over m points equals m single-point jets entry for entry
    (the batch includes the centre, where the radial field takes its
    Taylor-limit branch)."""
    n = 5
    u = (_radial_bubble(n, 2) if provider == "radial"
         else manufactured_dirichlet(2, n, MultiPoly.coordinate(n, 0) + 2))
    pts = np.random.default_rng(4).normal(size=(6, n)) * 0.5
    pts[0] = 0.0
    batch = u.jet(pts, 4)
    accessors = [lambda j: j.value(), lambda j: j.grad(), lambda j: j.hess_lap(0)]
    accessors += [lambda j, i=i: j.lap_iter(i) for i in range(3)]
    accessors += [lambda j, i=i: j.grad_lap(i) for i in range(2)]
    accessors += [lambda j, i=i: j.hess_lap(i) for i in range(2)]
    accessors += [lambda j, l=l: j.tensor_norm(l) for l in range(5)]
    singles = [u.jet(x, 4) for x in pts]
    for get in accessors:
        got = get(batch)
        assert got.shape == (len(pts),) + np.shape(get(singles[0]))
        np.testing.assert_array_equal(got, [get(s) for s in singles])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_fd_laplacian_iter_batch_matches_points(k):
    n = 3
    u = manufactured_dirichlet(1, n, MultiPoly.coordinate(n, 1) + 1)
    pts = np.random.default_rng(5).uniform(-0.5, 0.5, size=(4, n))
    batch = fd_laplacian_iter(u.value, pts, k, h=1e-2)
    assert batch.shape == (len(pts),)
    np.testing.assert_array_equal(
        batch, [fd_laplacian_iter(u.value, x, k, h=1e-2) for x in pts])


@pytest.mark.parametrize("alpha", [(), (1,), (0, 2)])
def test_fd_partial_batch_matches_points(alpha):
    n = 3
    u = manufactured_dirichlet(1, n, MultiPoly.coordinate(n, 1) + 1)
    pts = np.random.default_rng(6).uniform(-0.5, 0.5, size=(4, n))
    batch = fd_partial(u.value, pts, alpha, h=1e-2)
    assert batch.shape == (len(pts),)
    np.testing.assert_array_equal(
        batch, [fd_partial(u.value, x, alpha, h=1e-2) for x in pts])


# -- the identity itself --------------------------------------------------------

def brute_force_report(u, p_exp, k, n, xi, domain):
    """Independent oracle: all terms by generic surface/volume quadrature
    through the jet interface (never touching the exact moment path)."""
    lhs, _ = pohozaev_lhs(u, domain, xi, k, quad_opts={})
    # force the quadrature branch by wrapping the provider
    class Wrap:
        def __init__(self, u):
            self.u = u
            self.n = u.n

        def value(self, pts):
            return self.u.value(pts)

        def partial(self, alpha, pts):
            return self.u.partial(alpha, pts)

        def jet(self, x, order):
            return self.u.jet(x, order)

    w = Wrap(u)
    lhs_q, err_q = pohozaev_lhs(w, domain, xi, k)
    terms_q, berr = pohozaev_rhs(w, None, p_exp, domain, xi, k)
    return lhs_q, err_q, terms_q, berr


def test_identity_k1_n3_against_brute_force():
    """Frozen oracle values: the exact path must agree with independent
    quadrature of every term, and the residual must vanish."""
    k, n = 1, 3
    u = manufactured_dirichlet(k, n)
    dom = Ball((0.0,) * n, 1.0)
    rep = pohozaev_residual(u, None, 2.0, dom, np.zeros(n), k, dirichlet=True)
    assert rep.residual_rel < 1e-12
    assert rep.simplified_gap < 1e-10
    lhs_q, err_q, terms_q, berr = brute_force_report(u, 2.0, k, n,
                                                     np.zeros(n), dom)
    assert rep.lhs == pytest.approx(lhs_q, abs=5 * max(err_q, 1e-10))
    assert rep.T1 == pytest.approx(terms_q[0], abs=5 * max(berr, 1e-8))
    # hand values: u = 1 - r^2 on B^3: P_1 = -1/2 int (x.nu)(du/dn)^2
    #            = -1/2 * 4 * area(S^2) = -8 pi
    assert rep.lhs == pytest.approx(-8 * math.pi, rel=1e-12)


def test_identity_k1_hand_coded_boundary_expression():
    """k=1 cross-check: hand-coded classical boundary terms
    R_1 = 1/2 int (x-xi,nu) (-Du) u + 1/2 int [u d_nu((x-xi).grad u)
          - ((x-xi).grad u) d_nu u], on a non-Dirichlet polynomial."""
    n = 3
    poly = MultiPoly(n, {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1, 2),
                         (0, 2, 0): Fraction(1, 3)})
    u = PolynomialJet(poly)
    xi = np.array([0.2, 0.0, -0.1])
    dom = Ball((0.0,) * n, 1.0)

    def hand(pts):
        out = np.empty(len(pts))
        for idx, x in enumerate(pts):
            jet = u.jet(x, 3)
            nu = x / np.linalg.norm(x)
            dxnu = float((x - xi) @ nu)
            uval = jet.value()
            g = jet.grad()
            H = jet.hess_lap(0)
            w = float((x - xi) @ g)
            grad_w = g + H @ (x - xi)
            lap = jet.lap_iter(1)
            out[idx] = (0.5 * dxnu * lap * uval
                        + 0.5 * (uval * float(grad_w @ nu)
                                 - w * float(g @ nu)))
        return out

    oracle = integrate_surface(hand, SphereSurface((0.0,) * n, 1.0))
    ours, _ = pohozaev_lhs(u, dom, xi, 1)
    assert ours == pytest.approx(oracle.value, rel=1e-10)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (3, 7)])
def test_identity_manufactured_all_orders(k, n):
    u = manufactured_dirichlet(k, n)
    dom = Ball((0.0,) * n, 1.0)
    for xi_off in (0.0, 0.3):
        xi = np.zeros(n)
        xi[0] = xi_off
        rep = pohozaev_residual(u, None, 2.0, dom, xi, k, dirichlet=True)
        assert rep.residual_rel < max(rep.budget, 1e-10)
        assert rep.simplified_gap <= 10 * max(rep.budget, 1e-9)


def test_identity_annulus_subdomain():
    """The identity survives replacing the ball by an annular subdomain."""
    k, n = 2, 6
    u = manufactured_dirichlet(k, n)
    ann = BallMinusBalls(Ball((0.0,) * n, 1.0), (Ball((0.0,) * n, 0.5),))
    rep = pohozaev_residual(u, None, 2.0, ann, np.zeros(n), k)
    assert rep.residual_rel < max(rep.budget, 1e-10)


def test_identity_nonconstant_f_and_T_term_structure():
    k, n = 2, 5
    poly = MultiPoly.const(n, 1) + MultiPoly.coordinate(n, 0) * Fraction(1, 2)
    u = manufactured_dirichlet(k, n, poly)
    fconst = None  # f = 1
    dom = Ball((0.0,) * n, 1.0)
    rep = pohozaev_residual(u, fconst, 2.0, dom, np.zeros(n), k)
    assert rep.T4 == 0.0  # grad f = 0
    fpoly = PolynomialJet(MultiPoly.const(n, 1)
                          + MultiPoly.abs2(n) * Fraction(1, 4))
    rep2 = pohozaev_residual(u, fpoly, 2.0, dom, np.zeros(n), k)
    assert rep2.T4 != 0.0
    assert rep2.residual_rel < max(rep2.budget, 1e-10)


def test_T3_vanishes_at_critical_exponent():
    """(n-2k)/2 - n/p = 0 exactly at p = 2#."""
    k, n = 2, 6  # 2# = 6, an even integer: exact path applies
    u = manufactured_dirichlet(k, n)
    dom = Ball((0.0,) * n, 1.0)
    (T1, T2, T3, T4), _ = pohozaev_rhs(u, None, 6.0, dom, np.zeros(n), k)
    assert T3 == 0.0


def test_xi_affine_structure():
    """lhs and rhs are affine in xi: two evaluations predict a third.  The
    data are not symmetric about xi's axis, so the xi terms do not vanish."""
    k, n = 2, 5
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
    dom = Ball((0.0,) * n, 1.0)

    def lhs_at(t):
        xi = np.zeros(n)
        xi[0] = t
        return pohozaev_lhs(u, dom, xi, k)[0]

    l0, l1 = lhs_at(0.0), lhs_at(0.4)
    mid = lhs_at(0.2)
    assert l1 != pytest.approx(l0, rel=1e-6)
    assert mid == pytest.approx(0.5 * (l0 + l1), rel=1e-10)


def test_dirichlet_collapse_sign_is_minus_half_for_even_k():
    """Regression for the parity slip: for k=2 the collapse factor is -1/2;
    the printed (-1)^k/2 form differs from the verified P_k by exactly
    2|P_k|."""
    k, n = 2, 6
    u = manufactured_dirichlet(k, n)
    dom = Ball((0.0,) * n, 1.0)
    full, _ = pohozaev_lhs(u, dom, np.zeros(n), k)
    simp, _ = pohozaev_lhs(u, dom, np.zeros(n), k, simplified=True)
    assert simp == pytest.approx(full, rel=1e-12)
    plus_half_form = -simp  # what (+1/2) would give
    assert abs(full - plus_half_form) == pytest.approx(2 * abs(full), rel=1e-12)
    # hand value: P_2 = -32 |S^5| for u = (1-r^2)^2 in R^6
    assert full == pytest.approx(-32.0 * sphere_area(6), rel=1e-12)


def test_odd_k_collapse_matches_paper_sign_convention():
    """For odd k the verified factor -1/2 IS the corrected (-1)^k/2."""
    k, n = 3, 7
    u = manufactured_dirichlet(k, n)
    dom = Ball((0.0,) * n, 1.0)
    full, _ = pohozaev_lhs(u, dom, np.zeros(n), k)
    simp, _ = pohozaev_lhs(u, dom, np.zeros(n), k, simplified=True)
    assert simp == pytest.approx(full, rel=1e-9)
    assert ((-1) ** k) / 2 == -0.5  # the parity factor coincides here


def test_bubble_rhs_T1_vanishes():
    """u = exact bubble, f = 1, p = 2#: the bulk pairing with E(u) is zero
    (quadrature path with axisymmetric reduction)."""
    n, k = 7, 1
    a = bubble_constant(n, k)
    u = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), a))
    u.n = n
    dom = Ball((0.0,) * n, 1.0)
    ts = critical_exponent(n, k)
    opts = {"axis": (np.zeros(n), np.eye(n)[0])}
    (T1, T2, T3, T4), budget = pohozaev_rhs(u, None, ts, dom, np.zeros(n), k,
                                            quad_opts=opts)
    assert abs(T3) < 1e-12 and T4 == 0.0
    assert abs(T1) <= 10 * max(budget, 1e-9)
    assert T2 > 0
    # the options are read, not consumed: the same dict gives the same terms
    assert "axis" in opts
    again = pohozaev_rhs(u, None, ts, dom, np.zeros(n), k, quad_opts=opts)
    assert again == ((T1, T2, T3, T4), budget)


@pytest.mark.parametrize("with_f", [False, True], ids=["axis", "qmc-with-f"])
def test_rhs_quadrature_path_makes_one_volume_call(monkeypatch, with_f):
    """T1, the size of T1's rounding, T3 and, with f, T4 come from one
    integrate_volume call on one rule, as the rows of one stack."""
    n, k = 5, 1
    u = _radial_bubble(n, k)
    u.n = n
    calls = []
    integrate_volume = pohozaev.integrate_volume

    def spy(fn, domain, **kw):
        res = integrate_volume(fn, domain, **kw)
        calls.append(res.value.shape)
        return res

    monkeypatch.setattr(pohozaev, "integrate_volume", spy)
    f = _radial_bubble(n, k) if with_f else None
    opts = None if with_f else {"axis": (np.zeros(n), np.eye(n)[0])}
    (T1, T2, T3, T4), _ = pohozaev_rhs(u, f, critical_exponent(n, k),
                                       Ball((0.0,) * n, 1.0), 0.2 * np.eye(n)[0],
                                       k, quad_opts=opts)
    assert calls == [(4,) if with_f else (3,)]
    assert (T4 != 0.0) == with_f
    assert all(isinstance(t, float) for t in (T1, T2, T3, T4))


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_bubble_residual_quadrature_path(n, k):
    """The full identity for the exact bubble on the quadrature path: the
    volume axis (point, direction) is accepted and the residual vanishes."""
    xi = np.zeros(n)
    xi[0] = 0.2
    rep = pohozaev_residual(_radial_bubble(n, k), None, critical_exponent(n, k),
                            Ball((0.0,) * n, 1.0), xi, k,
                            quad_opts={"axis": (np.zeros(n), np.eye(n)[0])})
    assert rep.residual_rel < 1e-12


# the default range of bubble-check: 1 <= k <= 4, 2k < n <= 12
_BUBBLE_CHECK_RANGE = [(n, k) for k in range(1, 5) for n in range(2 * k + 1, 13)]


@pytest.mark.parametrize("n,k", _BUBBLE_CHECK_RANGE)
def test_bubble_suite_over_the_bubble_check_range(n, k):
    """What `pohozaev --suite bubble` runs, over every (n, k) bubble-check
    covers: the residual within 1e-12 and the CLI's gate on T1."""
    rep = pohozaev_residual(_radial_bubble(n, k), None, critical_exponent(n, k),
                            Ball((0.0,) * n, 1.0), np.zeros(n), k,
                            quad_opts={"axis": (np.zeros(n), np.eye(n)[0])})
    assert rep.residual_rel <= 1e-12
    assert abs(rep.T1) <= 10 * rep.budget


@pytest.mark.parametrize("dom, axis", [
    (BallMinusBalls(Ball((0.0,) * 5, 1.0), (Ball((0.0, 0.3, 0.0, 0.0, 0.0), 0.2),)),
     np.eye(5)[0]),
    (Ball((0.0,) * 5, 1.0), (np.array([0.0, 0.3, 0.0, 0.0, 0.0]), np.eye(5)[0])),
], ids=["hole", "outer-sphere"])
def test_quadrature_path_refuses_spheres_off_the_axis(dom, axis):
    """Each sphere rule integrates about the line through its own centre, so
    a boundary sphere off the certified axis is refused on both sides."""
    n, k = 5, 1
    u = _radial_bubble(n, k)
    with pytest.raises(ValueError, match="boundary sphere centre"):
        pohozaev_lhs(u, dom, np.zeros(n), k, quad_opts={"axis": axis})
    with pytest.raises(ValueError, match="boundary sphere centre"):
        pohozaev_rhs(u, None, critical_exponent(n, k), dom, np.zeros(n), k,
                     quad_opts={"axis": axis})


def test_half_balls_are_refused():
    """A HalfBall is a Ball cut by a plane, whose flat face is no boundary
    sphere: both sides refuse it."""
    n, k = 5, 1
    u, half = manufactured_dirichlet(k, n), HalfBall((0.0,) * n, 1.0)
    with pytest.raises(ValueError, match="Pohozaev domains"):
        pohozaev_lhs(u, half, np.zeros(n), k)
    with pytest.raises(ValueError, match="Pohozaev domains"):
        pohozaev_rhs(u, None, 2.0, half, np.zeros(n), k)


def test_both_axis_forms_reach_every_rule(monkeypatch):
    """A direction and a (point, direction) pair give bit-identical values
    on all three functions, and every sphere rule, T2's included, receives
    the direction and the tol of quad_opts."""
    n, k = 5, 1
    u = _radial_bubble(n, k)
    e1 = np.eye(n)[0]
    dom = Ball((0.0,) * n, 1.0)
    xi, ts = 0.2 * e1, critical_exponent(n, k)
    for call in (lambda o: pohozaev_lhs(u, dom, xi, k, quad_opts=o),
                 lambda o: pohozaev_rhs(u, None, ts, dom, xi, k, quad_opts=o),
                 lambda o: pohozaev_residual(u, None, ts, dom, xi, k,
                                             quad_opts=o).to_json()):
        assert call({"axis": e1}) == call({"axis": (np.zeros(n), e1)})
    calls = []

    def spy(fn, sphere, **kw):
        calls.append(sorted(kw))
        return integrate_surface(fn, sphere, **kw)

    monkeypatch.setattr(pohozaev, "integrate_surface", spy)
    pohozaev_residual(u, None, ts, dom, xi, k,
                      quad_opts={"axis": (np.zeros(n), e1), "tol": 1.0})
    assert calls == [["axis", "tol"]] * 2  # the P_k sphere, then T2's


@pytest.mark.parametrize("opts", [{"seed": 0}, {"axes": np.eye(5)[0]},
                                  {"axis": np.eye(5)[0], "seed": 0},
                                  {"seed": 0, "bogus": 1}])
def test_quad_opts_refuses_keys_other_than_axis_and_tol(opts):
    """quad_opts takes axis and tol only: any other key, a misspelling or
    the volume rule's seed, is a ValueError that names it on either side,
    on the quadrature path and on the exact path, which reads no quad_opts."""
    n, k = 5, 1
    dom = Ball((0.0,) * n, 1.0)
    key = next(key for key in opts if key != "axis")
    for u in (_radial_bubble(n, k), manufactured_dirichlet(k, n)):
        with pytest.raises(ValueError, match=f"'{key}'"):
            pohozaev_lhs(u, dom, np.zeros(n), k, quad_opts=opts)
        with pytest.raises(ValueError, match=f"'{key}'"):
            pohozaev_rhs(u, None, critical_exponent(n, k), dom, np.zeros(n), k,
                         quad_opts=opts)


def test_the_axial_form_is_converted_once_per_jet(monkeypatch):
    """A PolynomialJet converts its polynomial to the axial form when it is
    built; a Dirichlet residual on it, whose three evaluations take the
    exact path, converts nothing more."""
    calls, convert = [], pohozaev._axial_form
    monkeypatch.setattr(pohozaev, "_axial_form", lambda p: calls.append(p) or convert(p))
    n, k = 5, 2
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
    assert calls == [u.poly] and u.axial is not None
    moments, moment = [], _Axial.moment
    monkeypatch.setattr(_Axial, "moment", lambda *a, **kw: moments.append(a) or moment(*a, **kw))
    rep = pohozaev_residual(u, None, 2.0, Ball((0.0,) * n, 1.0), 0.3 * np.eye(n)[0], k,
                            dirichlet=True)
    assert len(calls) == 1 and moments and rep.residual_rel < 1e-12


class _NotAPolynomialJet:
    """A PolynomialJet's jets behind the generic provider interface: its
    data take the quadrature path."""

    def __init__(self, u):
        self.u, self.n = u, u.n

    def __getattr__(self, name):
        return getattr(self.u, name)


@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("k,n", [(1, 3), (2, 5), (3, 7)])
def test_quadrature_path_matches_exact_path(k, n, shift):
    """The exact and the quadrature evaluator of the identity's one set of
    formulas agree on criterion 5's manufactured data (the non-radial
    u (1 + x_1) at the shifted xi): P_k and the Dirichlet form within 1e-12,
    T1-T4 within 1e-10, of max(|P_k|, max_i |T_i|)."""
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1 if shift else None)
    dom = Ball((0.0,) * n, 1.0)
    xi = shift * np.eye(n)[0]

    def terms(u, **kw):
        return np.array([pohozaev_lhs(u, dom, xi, k, **kw)[0],
                         pohozaev_lhs(u, dom, xi, k, simplified=True, **kw)[0],
                         *pohozaev_rhs(u, None, 2.0, dom, xi, k, **kw)[0]])

    exact = terms(u)
    quad = terms(_NotAPolynomialJet(u),
                 quad_opts={"axis": (np.zeros(n), np.eye(n)[0])})
    scale = max(abs(exact[0]), *abs(exact[2:]))
    assert np.all(np.abs(quad - exact) <= scale * np.array([1e-12] * 2 + [1e-10] * 4))


def test_polynomial_data_with_a_non_polynomial_power_take_the_quadrature_path():
    """A PolynomialJet whose |u|^{p-2} u is no polynomial (odd p, u not
    certified nonneg) takes the quadrature path with the caller's quad_opts,
    as the same data behind the generic interface do, and meets the
    identity there."""
    n, k = 5, 1
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
    args = (3.0, Ball((0.0,) * n, 1.0), 0.3 * np.eye(n)[0], k)
    opts = {"axis": (np.zeros(n), np.eye(n)[0])}
    assert (pohozaev_rhs(u, None, *args, quad_opts=opts)
            == pohozaev_rhs(_NotAPolynomialJet(u), None, *args, quad_opts=opts))
    assert pohozaev_residual(u, None, *args, quad_opts=opts).residual_rel < 1e-10


@pytest.mark.parametrize("hole", [False, True], ids=["ball", "annulus"])
@pytest.mark.parametrize("n", [3, 4])
def test_quadrature_path_matches_cartesian_exact_path(n, hole):
    """Polynomial data symmetric about e_2, not e_1, take the quadrature path,
    as the same data behind the generic interface do; with no axis declared
    its product-Gauss sphere rules give P_k and its Dirichlet form within
    1e-12 relative of the exact path on the same data rotated onto e_1
    (k = 1, u (1 + x_2), xi = 0.2 e_2, and the centred hole B(0, 0.3))."""
    k = 1
    dom = Ball((0.0,) * n, 1.0)
    if hole:
        dom = BallMinusBalls(dom, (Ball((0.0,) * n, 0.3),))
    u2, u1 = (manufactured_dirichlet(k, n, MultiPoly.coordinate(n, i) + 1) for i in (1, 0))
    xi2, xi1 = 0.2 * np.eye(n)[1], 0.2 * np.eye(n)[0]
    for simplified in (False, True):
        quad, _ = pohozaev_lhs(u2, dom, xi2, k, simplified=simplified)
        assert quad == pohozaev_lhs(_NotAPolynomialJet(u2), dom, xi2, k, simplified=simplified)[0]
        exact, _ = pohozaev_lhs(u1, dom, xi1, k, simplified=simplified)
        assert quad == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("case", ["xi-off-axis", "hole-off-origin"])
def test_polynomial_data_the_axial_algebra_refuses_take_the_quadrature_path(case):
    """e_1-axial PolynomialJet data with xi off the e_1 axis, or with a
    boundary sphere centred on that axis but off the origin, give, bit for
    bit, what the same data behind the generic interface give with the same
    quad_opts, and meet the identity within that path's budget."""
    n, k = 3, 1
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
    dom, xi, opts = Ball((0.0,) * n, 1.0), np.array([0.1, 0.2, 0.0]), {}
    if case == "hole-off-origin":
        dom = BallMinusBalls(dom, (Ball((0.2, 0.0, 0.0), 0.3),))
        xi, opts = 0.2 * np.eye(n)[0], {"axis": np.eye(n)[0]}
    rep = pohozaev_residual(u, None, 2.0, dom, xi, k, quad_opts=opts)
    assert rep.to_json() == pohozaev_residual(_NotAPolynomialJet(u), None, 2.0, dom, xi, k,
                                              quad_opts=opts).to_json()
    assert rep.residual_abs <= rep.budget


def test_quadrature_path_on_the_line():
    """On the line the boundary is S^0, two points: data off the axial
    algebra (a boundary centre off the origin) meet the identity within the
    quadrature path's budget."""
    rep = pohozaev_residual(manufactured_dirichlet(1, 1), None, 2.0,
                            Ball((0.5,), 1.0), np.zeros(1), 1)
    assert rep.residual_abs <= rep.budget


def test_report_json_schema():
    k, n = 1, 3
    u = manufactured_dirichlet(k, n)
    rep = pohozaev_residual(u, None, 2.0, Ball((0.0,) * n, 1.0),
                            np.zeros(n), k)
    import json

    d = json.loads(rep.to_json())
    assert set(d) >= {"k", "n", "xi", "terms", "residual_abs",
                      "residual_rel", "budget"}
    assert set(d["terms"]) == {"lhs", "T1", "T2", "T3", "T4"}


# -- axial exact path ------------------------------------------------------------

def _cartesian_of(A, n):
    """The Cartesian polynomial A(x_1, |x'|^2) in n variables."""
    x1 = MultiPoly.coordinate(n, 0)
    rho = MultiPoly.abs2(n) - x1 * x1
    return sum((c * x1 ** a * rho ** b for (a, b), c in A.coeffs.items()),
               MultiPoly(n))


def _random_axial(seed):
    rng = random.Random(seed)
    return MultiPoly(2, {(rng.randrange(5), rng.randrange(4)):
                         Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for _ in range(6)})


@pytest.mark.parametrize("n", [2, 3, 6])
@pytest.mark.parametrize("seed", range(3))
def test_axial_form_round_trip_and_operators(n, seed):
    """A(x_1, |x'|^2) expanded in n variables converts back to A, and the
    axial Laplacian, (x - a e_1).grad and |grad|^2 are the axial forms of
    the Cartesian ones."""
    A = _random_axial(seed)
    p = _cartesian_of(A, n)
    assert dict(_axial_form(p).coeffs) == dict(A.coeffs)
    alg = _Axial(n)
    a = Fraction(3, 7)
    grad_sq = sum((d * d for d in map(p.diff, range(n))), MultiPoly(n))
    dot_grad = sum(((MultiPoly.coordinate(n, i) - (a if i == 0 else 0)) * p.diff(i)
                    for i in range(n)), MultiPoly(n))
    for axial, cart in ((alg.lap(A), p.laplacian()),
                        (alg.dot_grad(A, a), dot_grad),
                        (alg.grad_sq(A), grad_sq)):
        assert dict(_axial_form(cart).coeffs) == dict(axial.coeffs)


def _reference_moment(n, p, radius, ball):
    """_Axial.moment as a per-term loop that sums each sphere mean afresh."""
    N, D = pohozaev._axis_means(n, max(map(pohozaev._x_degree, p.terms), default=0))
    area = sphere_area(n)
    val = 0.0
    abs_sum = 0.0
    for key, c in p.terms.items():
        a, b = pohozaev._axial_exps(key)
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


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
@pytest.mark.parametrize("seed", range(4))
def test_moment_matches_the_per_term_reference_bit_for_bit(n, seed):
    """The memoised sphere means change no bit of a moment or its |.|-sum:
    random axial polynomials of x-degree up to 40 (no rho at n = 1), odd
    and even t powers, on balls and spheres of three radii."""
    rng = random.Random(1000 * n + seed)
    for _ in range(5):
        terms = {}
        for _ in range(rng.randint(1, 30)):
            b = 0 if n == 1 else rng.randint(0, 20)
            terms[(rng.randint(0, 40 - 2 * b), b)] = Fraction(
                rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        A = MultiPoly(2, terms)
        for radius in (1.0, 0.5, 0.3):
            for ball in (False, True):
                assert (_Axial(n).moment(A, radius, ball)
                        == _reference_moment(n, A, radius, ball))


def _sphere_view(q, s):
    """The unit outward view q on a sphere where d_nu and (x - xi).nu carry
    the factor s = sign/R."""
    return SimpleNamespace(
        v=q.v, sq=q.sq, dnu=lambda i: s * q.dnu(i), xnu=lambda: q.xnu() * s,
        D=lambda i: (q.D(i)[0], s * q.D(i)[1]), w=lambda: (q.w()[0], s * q.w()[1]))


@pytest.mark.parametrize("simplified", [False, True])
@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("k", [2, 3])
def test_exact_lhs_builds_one_density_per_datum(monkeypatch, k, shift, simplified):
    """On an annulus the exact P_k builds its boundary density once and
    scales it by sign/R per sphere, bit for bit the sum over spheres of a
    density built at each (R, sign)."""
    n = 7
    u = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
    dom = BallMinusBalls(Ball((0.0,) * n, 1.0), (Ball((0.0,) * n, 0.5),))
    xi = shift * np.eye(n)[0]
    calls, density = [], pohozaev._boundary_density
    monkeypatch.setattr(pohozaev, "_boundary_density",
                        lambda *a: calls.append(a) or density(*a))
    got = pohozaev_lhs(u, dom, xi, k, simplified=simplified)
    assert len(calls) == 1
    alg = _Axial(n)
    q = pohozaev._poly_view(alg, pohozaev._neg_laplacians(alg, u.axial, k),
                            pohozaev._exact(shift))
    parts = [alg.moment(density(n, k, _sphere_view(q, pohozaev._exact(sign / R)), simplified),
                        R, ball=False) for R, sign in ((1.0, 1.0), (0.5, -1.0))]
    assert got == (parts[0][0] + parts[1][0], 1e-12 * (parts[0][1] + parts[1][1]))


def test_axial_form_refuses_non_axial_polys():
    """The conversion is exact: an odd power of x_2 ... x_n, a missing
    monomial of |x'|^(2b) or a coefficient off the multinomial refuses."""
    n = 4
    x1, x2 = MultiPoly.coordinate(n, 0), MultiPoly.coordinate(n, 1)
    one = MultiPoly.const(n, 1)
    assert _axial_form(x1 * x1 - x2 * x2) is None
    assert _axial_form((one - MultiPoly.abs2(n)) * x2) is None
    squares = [MultiPoly.coordinate(n, i) ** 2 for i in range(1, n)]
    rho = MultiPoly.abs2(n) - x1 * x1
    assert _axial_form(rho * rho) is not None
    # |x'|^4 without its cross terms, and with them at weight 1 instead of 2
    assert _axial_form(sum((s * s for s in squares), MultiPoly(n))) is None
    assert _axial_form(sum((s * t for i, s in enumerate(squares)
                            for t in squares[i:]), MultiPoly(n))) is None
    # in the plane x_2^2 is all of |x'|^2
    assert dict(_axial_form(MultiPoly.coordinate(2, 0) ** 2
                            - MultiPoly.coordinate(2, 1) ** 2).coeffs) == {
        (2, 0): 1, (0, 1): -1}
    # on the line there is no x', and every polynomial is its own form
    assert dict(_axial_form(MultiPoly(1, {(3,): Fraction(2, 3), (0,): -1})).coeffs) == {
        (3, 0): Fraction(2, 3), (0, 0): -1}


def _swap12(p):
    """p with x_1 and x_2 exchanged."""
    return MultiPoly(p.n, {(e[1], e[0]) + e[2:]: c for e, c in p.coeffs.items()})


def _oracle_inputs():
    """(label, u, f, domain, xi, k): criterion 5's inputs, the annulus test
    and the non-constant-f test."""
    out = []
    for k in (1, 2, 3):
        for n in (3, 5, 7):
            if n <= 2 * k:
                continue
            ball = Ball((0.0,) * n, 1.0)
            xi = np.zeros(n)
            xi[0] = 0.3
            shifted = manufactured_dirichlet(k, n, MultiPoly.coordinate(n, 0) + 1)
            ann = BallMinusBalls(ball, (Ball((0.0,) * n, 0.5),))
            out += [(f"k{k}n{n}xi0", manufactured_dirichlet(k, n), None, ball,
                     np.zeros(n), k),
                    (f"k{k}n{n}xi0.3", shifted, None, ball, xi, k),
                    (f"k{k}n{n}annulus", manufactured_dirichlet(k, n), None, ann,
                     np.zeros(n), k)]
    n = 6
    out.append(("annulus-k2n6", manufactured_dirichlet(2, n), None,
                BallMinusBalls(Ball((0.0,) * n, 1.0), (Ball((0.0,) * n, 0.5),)),
                np.zeros(n), 2))
    n = 5
    u = manufactured_dirichlet(2, n, MultiPoly.const(n, 1)
                               + MultiPoly.coordinate(n, 0) * Fraction(1, 2))
    f = PolynomialJet(MultiPoly.const(n, 1) + MultiPoly.abs2(n) * Fraction(1, 4))
    out.append(("nonconstant-f", u, f, Ball((0.0,) * n, 1.0), np.zeros(n), 2))
    return out


def _terms(u, f, dom, xi, k, **kw):
    lhs, _ = pohozaev_lhs(u, dom, xi, k, **kw)
    simp, _ = pohozaev_lhs(u, dom, xi, k, simplified=True, **kw)
    T, _ = pohozaev_rhs(u, f, 2.0, dom, xi, k, **kw)
    return np.array([lhs, simp, *T])


@pytest.mark.parametrize("label,u,f,dom,xi,k", _oracle_inputs(),
                         ids=[c[0] for c in _oracle_inputs()])
def test_axial_path_matches_cartesian_path(monkeypatch, label, u, f, dom, xi, k):
    """lhs, the simplified lhs and T1-T4 of e_1-axial data on the exact path
    agree with the quadrature path, axial about e_2, on the same data with
    the Cartesian coordinates x_1 and x_2 exchanged: P_k and its Dirichlet
    form within 1e-12, T1-T4 within 1e-11, of max(|lhs|, max_i |T_i|).
    Exchanged data that are not radial are no longer e_1-axial; radial data
    are unchanged by the exchange, so the exchanged jet's axial form is
    dropped."""
    axial_moments = []
    moment = _Axial.moment

    def spy(self, *args, **kwargs):
        axial_moments.append(args)
        return moment(self, *args, **kwargs)

    monkeypatch.setattr(_Axial, "moment", spy)
    axial = _terms(u, f, dom, xi, k)
    assert axial_moments
    axial_moments.clear()

    su = PolynomialJet(_swap12(u.poly), nonneg=u.nonneg)
    sf = None if f is None else PolynomialJet(_swap12(f.poly))
    sxi = xi[[1, 0, *range(2, len(xi))]]
    su.axial = None
    quad = _terms(su, sf, dom, sxi, k, quad_opts={"axis": np.eye(len(xi))[1]})
    assert not axial_moments
    scale = max(abs(axial[0]), *np.abs(axial[2:]))
    assert np.all(np.abs(axial - quad) <= scale * np.array([1e-12] * 2 + [1e-11] * 4))
