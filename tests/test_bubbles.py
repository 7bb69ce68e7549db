"""Bubble objects: pointwise formulas, exact jets of the unit bubble vs
finite differences and under rescaling, and decay slopes."""

import json

import numpy as np
import pytest

from polybubble.bubbles import BubbleSpec, check_decay, positive_bubble, theta
from polybubble.fields import RationalProfile, RadialTermField
from polybubble.jets import multisets
from polybubble.radial import bubble_constant, make_bubble, radial_derivative

from fd_oracles import fd_partial

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


def _unit_bubble(center):
    """The unit bubble B(x - center) of (N, K) as an exact radial field."""
    prof = RationalProfile(make_bubble(N, K), bubble_constant(N, K))
    return RadialTermField.radial(N, center, prof)


def test_bubble_jet_gradient_zero_at_center():
    c = np.full(N, 0.05)
    jet = _unit_bubble(c).jet(c, 2)
    assert np.allclose(jet.grad(), 0.0)
    assert jet.value() == pytest.approx(1.0, rel=1e-12)


def _richardson_partial(f, x, alpha, h):
    f1 = fd_partial(f, x, alpha, h)
    f2 = fd_partial(f, x, alpha, h / 2)
    return (4 * f2 - f1) / 3


def test_bubble_jet_matches_value_and_fd():
    """Richardson-extrapolated FD oracle at 20 sample points, tol 1e-8."""
    F = _unit_bubble([0.1] + [0.0] * (N - 1))
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
    """The bubble at scale mu about x0, mu^{-(n-2k)/2} B(z) with
    z = (x - x0)/mu, is one rational profile in x - x0, the flat profile at
    a/mu^2: its value is positive_bubble, and each order-l jet entry is
    mu^{-(n-2k)/2 - l} times the unit bubble's entry at z, up to order 2,
    near the centre and out to beyond the domain, each to 1e-13 of the
    larger of |entry| and the order-l tensor norm."""
    center = np.zeros(n)
    center[0] = shift
    spec = spec_at(mu, center, n, k)
    amp = mu ** (-0.5 * (n - 2 * k))
    in_x = RadialTermField.radial(
        n, center, RationalProfile(make_bubble(n, k), spec.a / mu ** 2))
    in_z = RadialTermField.radial(
        n, np.zeros(n), RationalProfile(make_bubble(n, k), spec.a))
    d = 1.0 - shift
    rng = np.random.default_rng(n + k)
    radii = np.array([0.0, 0.5 * mu, 0.3 * d, 0.6 * d, 0.75 * d, 0.9 * d, 1.1 * d])
    dirs = rng.normal(size=(len(radii), n))
    pts = center + radii[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    np.testing.assert_allclose(amp * in_x.value(pts), positive_bubble(spec, pts),
                               rtol=1e-13, atol=0)
    got, want = in_x.jet(pts, 2), in_z.jet((pts - center) / mu, 2)
    for l in range(3):
        scale = amp * mu ** -l
        norm = scale * want.tensor_norm(l)
        for alpha in multisets(n, l):
            entry = scale * want.partial(alpha)
            assert np.all(np.abs(amp * got.partial(alpha) - entry)
                          <= 1e-13 * np.maximum(np.abs(entry), norm))


def test_bubble_jet_symmetry_and_order_guard():
    jet = _unit_bubble(np.zeros(N)).jet([0.05] * N, 2)
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


def test_bubble_spec_json_roundtrip():
    s = spec_at(0.05, center=[0.1, 0.2] + [0.0] * (N - 2))
    s2 = BubbleSpec.from_dict(json.loads(s.to_json()))
    assert s2.kind == s.kind and s2.mu == s.mu
    assert np.allclose(s2.center, s.center)
