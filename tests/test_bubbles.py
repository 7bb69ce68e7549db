"""Bubble objects: pointwise formulas, localized profiles, exact jets vs
finite differences, decay slopes, kernel elements, and the coefficient
integrals with their scale covariance."""

import json

import numpy as np
import pytest

from polybubble.bubbles import (BubbleSpec, DivergentIntegralError,
                                TensorSpec, bubble_field, check_decay,
                                check_sign_condition, compute_IA,
                                kernel_elements, positive_bubble, theta)
from polybubble.fields import (CutoffProfile, ProductProfile, RationalProfile,
                               RadialTermField)
from polybubble.jets import multisets
from polybubble.quadrature import Ball, integrate_radial, sphere_area
from polybubble.radial import (bubble_constant, critical_exponent, make_bubble,
                               radial_derivative)

from fd_oracles import fd_laplacian_iter, fd_partial

N, K = 7, 1


def spec_at(mu, center=None, n=N, k=K):
    c = np.zeros(n) if center is None else np.asarray(center, float)
    return BubbleSpec("interior", n, k, c, mu)


def test_theta_examples():
    s = spec_at(0.1)
    assert theta(s, s.center[None, :])[0] == pytest.approx(0.1)
    x = np.zeros((1, N))
    x[0, 0] = 1.0
    assert theta(s, x)[0] == pytest.approx(1.1)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(100, N))
    assert np.all(theta(s, pts) >= s.mu)


def test_positive_bubble_center():
    s = spec_at(0.25)
    val = positive_bubble(s, s.center[None, :])[0]
    assert val == pytest.approx(s.mu ** (-0.5 * (N - 2 * K)), rel=1e-14)


def test_positive_bubble_theta_sandwich():
    """mu^{(n-2k)/2} theta^{2k-n} brackets B with finite measured constants
    (of size a_{n,k}^{+-(n-2k)/2}, about 7.2e3 here)."""
    s = spec_at(1e-2)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(500, N)) * 0.9
    ratio = positive_bubble(s, pts) / (s.mu ** (0.5 * (N - 2 * K))
                                       * theta(s, pts) ** (2 * K - N))
    assert np.all(np.isfinite(ratio))
    a_scale = bubble_constant(N, K) ** (-0.5 * (N - 2 * K))
    assert ratio.max() < 4 * a_scale and ratio.min() > 0.25 / a_scale


def test_cutoff_s_derivatives_chain_rule():
    """G(s) = chi(sqrt(s)): each G^(m)(s), m <= 6, equals (d/(2 rho drho))^m
    chi, with chi's rho-derivatives from a Taylor series in rho of
    psi(2 rho - 1) (no square root, unlike the s-composition); on the
    plateaus s <= 1/4 and s >= 1 the values are exactly 1 / 0."""
    from math import factorial

    from polybubble.fields import CutoffProfile
    from polybubble.jets import Taylor

    G, M = CutoffProfile(), 6
    # near the plateaus G^(m) is a small difference of large series terms,
    # so each check also allows 1e-14 of max |G^(m)| over the ramp
    scale = [np.abs(g).max() for g in G.chain(M, np.linspace(0.25, 1.0, 301))]
    for s in (0.26, 0.3, 0.45, 0.6, 0.8, 0.97):
        rho = np.sqrt(s)
        t = 2.0 * Taylor.line(rho, 1.0, M) - 1.0
        f1 = np.exp(-1.0 / (1.0 - t))
        psi = f1 / (f1 + np.exp(-1.0 / t))
        chi = [factorial(j) * c for j, c in enumerate(psi.c)]  # chi^(j)(rho)
        expr = {(0, 0): 1.0}  # {(p, j): c} for sum c rho^-p chi^(j)
        for m in range(M + 1):
            terms = [c * rho**-p * chi[j] for (p, j), c in expr.items()]
            assert (abs(G.chain(m, s)[m] - sum(terms))
                    <= 1e-12 * sum(map(abs, terms)) + 1e-14 * scale[m])
            new = {}
            for (p, j), c in expr.items():
                if p:
                    new[p + 2, j] = new.get((p + 2, j), 0.0) - c * p / 2
                new[p + 1, j + 1] = new.get((p + 1, j + 1), 0.0) + c / 2
            expr = new
    inner, outer = np.array([0.0, 0.1, 0.25]), np.array([1.0, 1.5, 4.0])
    assert np.all(G.chain(0, inner)[0] == 1.0) and np.all(G.chain(0, outer)[0] == 0.0)
    for m in range(1, M + 1):
        assert np.all(G.chain(m, inner)[m] == 0.0) and np.all(G.chain(m, outer)[m] == 0.0)


def test_eval_V_support_and_center():
    dom = Ball((0.0,) * N, 1.0)
    s = spec_at(1e-2)
    V = bubble_field(s, dom)
    far = np.ones((1, N)) * 0.9  # |far| > dist to boundary => chi = 0
    assert V.value(far)[0] == 0.0
    ctr = V.value(s.center[None, :])[0]
    assert ctr == pytest.approx(s.mu ** (-0.5 * (N - 2 * K)), rel=1e-13)


def test_eval_V_rescaling_invariance():
    """V is exactly the stated rescaling of the profile where chi = 1."""
    dom = Ball((0.0,) * N, 1.0)
    a = bubble_constant(N, K)
    for mu in (1e-1, 1e-2):
        s = spec_at(mu)
        x = np.zeros((1, N))
        x[0, 0] = 0.2
        direct = bubble_field(s, dom).value(x)[0]
        expected = mu ** (-0.5 * (N - 2 * K)) * (1 + a * (0.2 / mu) ** 2) ** (
            -0.5 * (N - 2 * K))
        assert direct == pytest.approx(expected, rel=1e-12)


def test_eval_V_energy_converges_to_profile_norm():
    """int |grad V|^2 over the ball -> int_{R^n} |grad B|^2 as mu -> 0."""
    dom = Ball((0.0,) * N, 1.0)
    a = bubble_constant(N, K)
    dB = radial_derivative(make_bubble(N, K))
    from scipy.integrate import quad

    full, _ = quad(lambda t: dB(t, a) ** 2 * t ** (N - 1), 0, np.inf)
    full *= sphere_area(N)
    devs = []
    for mu in (1e-1, 1e-2, 1e-3):
        F = bubble_field(spec_at(mu), dom)
        res = integrate_radial(
            lambda r: F.tensor_norm(1, np.array([[r] + [0.0] * (N - 1)]))[0] ** 2,
            1.0, N)
        devs.append(abs(res.value - full) / full)
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-3


@pytest.mark.parametrize("m", range(5))
def test_axial_partials_match_radial_derivatives_near_center(m):
    """d_1^m of the n = 7, k = 2 bubble field on the e_1 axis is the m-th
    r-derivative of the profile, to 1e-12 relative down to |z| = 1e-9."""
    n, k = 7, 2
    a = bubble_constant(n, k)
    ref = make_bubble(n, k)
    F = RadialTermField.radial(n, np.zeros(n), RationalProfile(ref, a))
    for _ in range(m):
        ref = radial_derivative(ref)
    radii = np.array([1e-9, 1e-7, 1e-5, 1e-3, 0.3])
    pts = np.zeros((len(radii), n))
    pts[:, 0] = radii
    np.testing.assert_allclose(F.partial((0,) * m, pts), ref(radii, a),
                               rtol=1e-12, atol=0)


def test_bubble_jet_gradient_zero_at_center():
    s = spec_at(0.05)
    jet = bubble_field(s, Ball((0.0,) * N, 1.0)).jet(s.center, 2)
    assert np.allclose(jet.grad(), 0.0)
    assert jet.value() == pytest.approx(s.mu ** (-0.5 * (N - 2 * K)), rel=1e-12)


def _richardson_partial(f, x, alpha, h):
    f1 = fd_partial(f, x, alpha, h)
    f2 = fd_partial(f, x, alpha, h / 2)
    return (4 * f2 - f1) / 3


def test_bubble_jet_matches_value_and_fd():
    """Richardson-extrapolated FD oracle at 20 sample points, tol 1e-8."""
    dom = Ball((0.0,) * N, 1.0)
    s = spec_at(0.5, center=[0.1] + [0.0] * (N - 1))
    F = bubble_field(s, dom)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.uniform(-0.15, 0.15, N)
        jet = F.jet(x, 2)
        assert jet.value() == pytest.approx(F.value(x[None, :])[0], rel=1e-12)
        for alpha in [(0,), (3,), (0, 1), (2, 2)]:
            fd = _richardson_partial(lambda p: F.value(p), x, alpha, 1e-3)
            # 1e-8 relative to the order-l tensor magnitude (tiny individual
            # entries sit at the FD noise floor otherwise)
            scale = max(abs(jet.partial(alpha)), jet.tensor_norm(len(alpha)))
            assert abs(jet.partial(alpha) - fd) <= 1e-8 * scale


@pytest.mark.parametrize("n,k", [(7, 1), (5, 2), (9, 2)])
@pytest.mark.parametrize("mu", [0.01, 0.05, 0.2])
@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_bubble_field_matches_one_profile_in_x(n, k, mu, shift):
    """bubble_field, the unit bubble localized in z = (x - x0)/mu, equals V
    built as one radial profile in x - x0, the product of the cutoff at
    radius d and B at radius mu: in value and every jet entry up to order 2,
    on the plateau, on the cutoff ramp and outside it, each to 1e-13 of the
    larger of |entry| and the order-l tensor norm."""
    center = np.zeros(n)
    center[0] = shift
    spec = spec_at(mu, center, n, k)
    d = 1.0 - shift
    ref = RadialTermField.radial(n, center, ProductProfile(
        [(CutoffProfile(), d), (RationalProfile(make_bubble(n, k), spec.a), mu)]),
        mu=1.0, amplitude=mu ** (-0.5 * (n - 2 * k)))
    rng = np.random.default_rng(n + k)
    radii = np.array([0.0, 0.5 * mu, 0.3 * d, 0.6 * d, 0.75 * d, 0.9 * d, 1.1 * d])
    dirs = rng.normal(size=(len(radii), n))
    pts = center + radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    got, want = bubble_field(spec, Ball((0.0,) * n, 1.0)).jet(pts, 2), ref.jet(pts, 2)
    for l in range(3):
        norm = want.tensor_norm(l)
        for alpha in multisets(n, l):
            entry = want.partial(alpha)
            assert np.all(np.abs(got.partial(alpha) - entry)
                          <= 1e-13 * np.maximum(np.abs(entry), norm))


def test_bubble_jet_symmetry_and_order_guard():
    s = spec_at(0.2)
    jet = bubble_field(s, Ball((0.0,) * N, 1.0)).jet([0.05] * N, 2)
    assert jet.partial((0, 1)) == jet.partial((1, 0))
    with pytest.raises(ValueError):
        jet.partial((0, 1, 2))


@pytest.mark.parametrize("n,k,l,target", [(7, 1, 0, -5), (5, 2, 1, -2),
                                          (9, 2, 3, -8)])
def test_check_decay_slopes(n, k, l, target):
    rep = check_decay(n, k, l)
    assert rep["target"] == 2 * k - n - l == target
    assert rep["deviation"] < 0.05


def test_check_decay_preconditions():
    with pytest.raises(ValueError):
        check_decay(7, 1, 5)


def test_kernel_elements_basics():
    n, k = 5, 1
    zs = kernel_elements(n, k)
    assert len(zs) == n + 1
    z0_at_0 = zs[0].value(np.zeros((1, n)))[0]
    assert z0_at_0 == pytest.approx((n - 2 * k) / 2.0, rel=1e-14)
    for i in range(1, n + 1):
        assert zs[i].value(np.zeros((1, n)))[0] == 0.0


def test_kernel_elements_solve_linearized_equation():
    """FD oracle: (-Delta)^k Z = (2#-1) B^{2#-2} Z, Richardson-extrapolated."""
    n, k = 5, 1
    a = bubble_constant(n, k)
    ts = critical_exponent(n, k)
    B = RadialTermField.radial(n, np.zeros(n),
                               RationalProfile(make_bubble(n, k), a))
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, n)) * 0.6
    for Z in kernel_elements(n, k)[:3]:
        for x in pts:
            l1 = fd_laplacian_iter(Z.value, x, k, h=2e-3)
            l2 = fd_laplacian_iter(Z.value, x, k, h=1e-3)
            lhs = (4 * l2 - l1) / 3
            rhs = (ts - 1) * B.value(x[None, :])[0] ** (ts - 2) \
                * Z.value(x[None, :])[0]
            assert lhs == pytest.approx(rhs, abs=1e-8)


def test_compute_IA_p0_against_quadrature_oracle():
    from scipy.integrate import quad

    n, k = 7, 1
    a = bubble_constant(n, k)
    oracle, _ = quad(lambda r: (1 + a * r * r) ** -5.0 * r**6, 0, np.inf,
                     epsrel=1e-12)
    oracle *= sphere_area(n)
    val = compute_IA(TensorSpec(0, "iso", 1.0), n, k)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_compute_IA_zero_and_sign():
    assert compute_IA(TensorSpec(0, "iso", 0.0), 7, 1) == 0.0
    assert compute_IA(TensorSpec(0, "iso", -2.0), 7, 1) < 0
    assert compute_IA(TensorSpec(0, "iso", 3.0), 7, 1) > 0


def test_compute_IA_diagonal_and_isotropic_match():
    n, k = 9, 2
    iso = compute_IA(TensorSpec(1, "iso", 1.0), n, k)
    diag = compute_IA(TensorSpec(1, "diag", np.ones(n)), n, k)
    assert diag == pytest.approx(iso, rel=1e-10)
    half = compute_IA(TensorSpec(1, "iso", 1.0), n, k, half_space=True)
    assert half == pytest.approx(0.5 * iso, rel=1e-12)


def test_compute_IA_p2_hessian_decomposition():
    """Isotropic p=2 oracle: |Hess B|_F^2 = B''^2 + (n-1)(B'/r)^2."""
    from scipy.integrate import quad

    n, k = 11, 3
    a = bubble_constant(n, k)
    dB = radial_derivative(make_bubble(n, k))
    ddB = radial_derivative(dB)

    def integrand(r):
        if r == 0:
            return 0.0
        return (ddB(r, a) ** 2 + (n - 1) * (dB(r, a) / r) ** 2) * r ** (n - 1)

    oracle, _ = quad(integrand, 0, np.inf, epsrel=1e-11)
    val = compute_IA(TensorSpec(2, "iso", 1.0), n, k)
    assert val == pytest.approx(sphere_area(n) * oracle, rel=1e-8)


@pytest.mark.parametrize("n, k", [(9, 3), (12, 3), (13, 4)])
def test_compute_IA_p2_diagonal_of_ones_is_the_hessian_norm(n, k):
    """With every a_ij = 1, sum a_ij (d_ij B)^2 = |D^2 B|^2, so the diagonal
    p=2 branch must give the isotropic value at lambda = 1."""
    diag = compute_IA(TensorSpec(2, "diag", np.ones((n, n))), n, k)
    iso = compute_IA(TensorSpec(2, "iso", 1.0), n, k)
    assert diag == pytest.approx(iso, rel=1e-13)


def test_compute_IA_diagonal_shape_refusals():
    with pytest.raises(ValueError, match="p=1 tensor needs n entries"):
        compute_IA(TensorSpec(1, "diag", np.ones(8)), 9, 2)
    with pytest.raises(ValueError, match="p=2 tensor needs an n x n matrix"):
        compute_IA(TensorSpec(2, "diag", np.ones(9)), 9, 3)


def test_compute_IA_divergence_guard():
    with pytest.raises(DivergentIntegralError):
        compute_IA(TensorSpec(0, "iso", 1.0), 4, 1)  # n = 4k
    with pytest.raises(ValueError):
        compute_IA(TensorSpec(1, "iso", 1.0), 7, 1)  # p > k-1


def test_check_sign_condition_verdicts():
    pos = check_sign_condition([TensorSpec(0, "iso", 1.0),
                                TensorSpec(0, "iso", 2.5)], 7, 1)
    assert pos["verdict"] == "positive"
    neg = check_sign_condition([TensorSpec(0, "iso", -1.0)], 7, 1)
    assert neg["verdict"] == "negative"
    mixed = check_sign_condition([TensorSpec(0, "iso", 1.0),
                                  TensorSpec(0, "iso", -1.0)], 7, 1)
    assert mixed["verdict"] == "violated"
    zero = check_sign_condition([TensorSpec(0, "iso", 0.0)], 7, 1)
    assert zero["verdict"] == "violated" and zero["witness"]


def test_check_sign_condition_needs_one_tensor_order():
    """p is read from the samples, so they must share it."""
    with pytest.raises(ValueError, match="one tensor order"):
        check_sign_condition([TensorSpec(0, "iso", 1.0),
                              TensorSpec(1, "iso", 1.0)], 9, 2)
    with pytest.raises(ValueError, match="one tensor order"):
        check_sign_condition([], 9, 2)


def test_check_sign_condition_diagonal_positive():
    rep = check_sign_condition([TensorSpec(1, "diag", np.linspace(0.5, 2, 9))],
                               9, 2)
    assert rep["verdict"] == "positive"


def test_bubble_spec_json_roundtrip():
    s = spec_at(0.05, center=[0.1, 0.2] + [0.0] * (N - 2))
    s2 = BubbleSpec.from_dict(json.loads(s.to_json()))
    assert s2.kind == s.kind and s2.mu == s.mu
    assert np.allclose(s2.center, s.center)
