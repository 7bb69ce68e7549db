"""Cayley transform: map algebra, exact identities, Jacobian determinant and
norm invariances."""

import numpy as np
import pytest

from polybubble.conformal import (CayleyMap, GaussianXPow, HalfSpaceBump,
                                  SingularPointError, check_distance_identity,
                                  check_norm_invariance)
from polybubble.green import psi_ball, psi_half
from polybubble.quadrature import as_points


def ball_points(n, m, seed=0, rmax=0.9):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(m, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rmax * rng.uniform(0.02, 1.0, size=(m, 1)) ** (1.0 / n)


def test_phi_special_points():
    cm = CayleyMap(3)
    assert np.allclose(cm.phi(np.zeros((1, 3)))[0], [0.5, 0, 0])
    e2 = np.array([[0.0, 1.0, 0.0]])
    out = cm.phi(e2)[0]
    assert out[0] == pytest.approx(0.0, abs=1e-15)  # boundary to boundary
    assert np.allclose(out, [0.0, 0.5, 0.0])


def test_phi_singular_point():
    cm = CayleyMap(3)
    with pytest.raises(SingularPointError):
        cm.phi(np.array([[-1.0, 0.0, 0.0]]))


def test_norm_invariance_refuses_k5_before_any_evaluation():
    """k = 5 needs a degree-6 direction rule, which does not exist: the
    check refuses before it evaluates the profile."""
    calls = []

    class Counted(GaussianXPow):
        def value(self, x):
            calls.append(x)
            return super().value(x)

    with pytest.raises(ValueError, match="degree 5, so at derivative order k <= 4"):
        check_norm_invariance(Counted(11, 5), 11, 5)
    assert calls == []


def test_phi_maps_into_half_space():
    cm = CayleyMap(5)
    ys = ball_points(5, 200, seed=1)
    assert np.all(cm.phi(ys)[:, 0] > 0)


def test_phi_inv_examples():
    cm = CayleyMap(4)
    assert np.allclose(cm.phi_inv(np.array([[0.5, 0, 0, 0]]))[0], 0.0,
                       atol=1e-15)
    # boundary of the half-space goes to the unit sphere
    x = np.array([[0.0, 0.3, -0.2, 0.1]])
    assert np.linalg.norm(cm.phi_inv(x)[0]) == pytest.approx(1.0, rel=1e-14)


def test_roundtrip_both_ways():
    for n in (3, 5):
        cm = CayleyMap(n)
        ys = ball_points(n, 100, seed=2)
        assert np.abs(cm.phi_inv(cm.phi(ys)) - ys).max() < 1e-12
        xs = np.abs(ball_points(n, 50, seed=3)) + 0.01
        assert np.abs(cm.phi(cm.phi_inv(xs)) - xs).max() < 1e-12


def test_phi_inv_norm_identity():
    """|phi_inv(x) + e_1| = 1/|x + e_1/2| on the closed half-space."""
    cm = CayleyMap(3)
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, size=(50, 3))
    xs[:, 0] = np.abs(xs[:, 0])
    lhs = np.linalg.norm(cm.phi_inv(xs) + cm.e1, axis=1)
    rhs = 1.0 / np.linalg.norm(xs + 0.5 * cm.e1, axis=1)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_distance_identity_sweep():
    """1000 random interior pairs, residual < 1e-12."""
    n = 3
    pts = ball_points(n, 2000, seed=5)
    worst = 0.0
    for a, b in zip(pts[:1000], pts[1000:]):
        worst = max(worst, check_distance_identity(a, b))
    assert worst < 1e-12
    assert check_distance_identity(pts[0], pts[0]) == pytest.approx(0.0)


def test_psi_invariance():
    """psi_inf(phi(x), phi(y)) = psi(x, y), tol 1e-10."""
    n = 5
    cm = CayleyMap(n)
    pts = ball_points(n, 80, seed=6)
    for a, b in zip(pts[:40], pts[40:]):
        if np.linalg.norm(a - b) < 1e-3:
            continue
        pa, pb = cm.phi(a[None, :])[0], cm.phi(b[None, :])[0]
        assert psi_half(pa, pb) == pytest.approx(psi_ball(a, b), rel=1e-10)


def test_jacobian_determinant():
    """|det D phi(y)| = |y+e_1|^{-2n} via an FD Jacobian."""
    n = 3
    cm = CayleyMap(n)
    h = 1e-6
    for y in ball_points(n, 10, seed=7):
        J = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            J[:, j] = (cm.phi((y + e)[None, :])[0]
                       - cm.phi((y - e)[None, :])[0]) / (2 * h)
        det = abs(np.linalg.det(J))
        expected = np.linalg.norm(y + cm.e1) ** (-2 * n)
        assert det == pytest.approx(expected, rel=1e-6)


def test_cayley_transform_values():
    # constant profile with 2k-n = -1: u* (0) = c
    class Const:
        def value(self, x):
            return np.full(len(x), 3.7)

    cm = CayleyMap(3)
    out = cm.cayley_transform(Const(), 1, np.zeros((1, 3)))[0]
    assert out == pytest.approx(3.7, rel=1e-14)


def test_cayley_transform_of_bubble_composition():
    """u = flat profile on the half-space, y = 0: u*(0) = |e_1|^{2k-n} B(e_1/2)."""
    from polybubble.fields import RadialTermField, RationalProfile
    from polybubble.radial import bubble_constant, make_bubble

    n, k = 3, 1
    a = bubble_constant(n, k)
    B = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), a))
    cm = CayleyMap(n)
    out = cm.cayley_transform(B, k, np.zeros((1, n)))[0]
    expected = (1 + a * 0.25) ** (-0.5 * (n - 2 * k))
    assert out == pytest.approx(expected, rel=1e-14)


class _Zero:
    support_radius = 1.0

    def value(self, x):
        return 0.0 * as_points(x)[:, 0]


def test_norm_invariance_zero_profile():
    rep = check_norm_invariance(_Zero(), 3, 1)
    assert rep["critical"][0] == 0.0 and rep["critical"][1] == 0.0
    assert rep["derivative"][0] == 0.0 and rep["derivative"][1] == 0.0


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_norm_invariance_profiles(n, k):
    """Critical and derivative norms are preserved to < 1e-5 relative."""
    profiles = [GaussianXPow(n, k), GaussianXPow(n, k, shift=0.7)]
    if k == 1:
        profiles.append(HalfSpaceBump(n))
    for u in profiles:
        rep = check_norm_invariance(u, n, k)
        assert rep["critical"][2] < 1e-5, type(u).__name__
        assert rep["derivative"][2] < 1e-5, type(u).__name__


def test_norm_invariance_makes_one_call_per_side(monkeypatch):
    """Each side's critical and derivative integrals come from one
    integrate_axisymmetric call, as a stack of two rows."""
    from polybubble import conformal

    calls = []
    integrate = conformal.integrate_axisymmetric

    def spy(f, domain, *args, **kwargs):
        res = integrate(f, domain, *args, **kwargs)
        calls.append((type(domain).__name__, res.value.shape))
        return res

    monkeypatch.setattr(conformal, "integrate_axisymmetric", spy)
    rep = check_norm_invariance(GaussianXPow(3, 1, shift=0.7), 3, 1)
    assert calls == [("Ball", (2,)), ("HalfBall", (2,))]
    assert rep["passed"] is True
    assert all(isinstance(v, float) for v in rep["critical"] + rep["derivative"])


def test_norm_invariance_makes_one_integrand_call_per_side(monkeypatch):
    """Only the values are read, so each side calls its integrand once: the
    coarse rule of the error estimate never runs."""
    from polybubble import conformal

    calls = []
    integrate = conformal.integrate_axisymmetric

    def spy(f, domain, *args, **kwargs):
        side = type(domain).__name__

        def counted(x):
            calls.append(side)
            return f(x)

        return integrate(counted, domain, *args, **kwargs)

    monkeypatch.setattr(conformal, "integrate_axisymmetric", spy)
    rep = check_norm_invariance(GaussianXPow(3, 1, shift=0.7), 3, 1)
    assert calls == ["Ball", "HalfBall"]
    assert rep["passed"] is True


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (7, 3)])
def test_norm_invariance_derivative_rows_are_tight(n, k):
    """The Taylor derivatives leave the GaussianXPow derivative rows at
    quadrature accuracy: <= 1e-10 relative (measured 7.1e-13 ... 1.3e-11)."""
    for u in (GaussianXPow(n, k), GaussianXPow(n, k, shift=0.7)):
        rep = check_norm_invariance(u, n, k)
        assert rep["derivative"][2] <= 1e-10, (n, k, u.center[0])
