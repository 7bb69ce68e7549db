"""Green functions: kernel formulas against 1-D quadrature, positivity,
symmetry, boundary decay, the classical k=1 image-formula oracle, and the
conformal conjugation identity."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from polybubble.green import (check_conformal_relation, green_ball,
                              green_half, kernel_integral, psi_ball, psi_half)


def ball_points(n, m, seed=0, rmax=0.85):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(m, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rmax * rng.uniform(0.02, 1.0, size=(m, 1)) ** (1.0 / n)


def test_psi_examples():
    x = np.zeros(3)
    y = np.array([0.5, 0.0, 0.0])
    assert psi_ball(x, y) == pytest.approx(3.0, rel=1e-14)
    assert psi_ball(x, y) == psi_ball(y, x)
    xh = np.array([0.0, 0.2, 0.1])
    yh = np.array([0.4, 0.0, 0.0])
    assert psi_half(xh, yh) == 0.0  # x_1 = 0
    with pytest.raises(ValueError):
        psi_ball(x, x)


@pytest.mark.parametrize("k,n,s", [(1, 3, 2.0), (2, 6, 2.0), (2, 5, 3.0),
                                   (3, 9, 1.7), (4, 12, 1.3)])
def test_kernel_integral_vs_quadrature(k, n, s):
    ours = kernel_integral(s, k, n)
    oracle, _ = quad(lambda t: (t * t - 1) ** (k - 1) * t ** (1 - n), 1.0, s,
                     epsrel=1e-13)
    assert ours == pytest.approx(oracle, abs=1e-12)


def test_kernel_integral_edge_cases():
    assert kernel_integral(1.0, 2, 6) == 0.0  # empty interval
    assert kernel_integral(1.0, 1, 3) == 0.0
    # k=1, n=3: int_1^2 t^-2 dt = 1/2
    assert kernel_integral(2.0, 1, 3) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        kernel_integral(0.5, 1, 3)


def test_green_positivity_many_pairs():
    """Both kernels positive on 10^4 random admissible pairs."""
    for (n, k) in [(3, 1), (5, 2), (9, 3), (12, 4)]:
        pts = ball_points(n, 2600, seed=n)
        for a, b in zip(pts[:1300], pts[1300:]):
            if np.linalg.norm(a - b) < 1e-6:
                continue
            assert green_ball(a, b, k) > 0
            xa = a.copy()
            xb = b.copy()
            xa[0] = abs(xa[0]) + 0.01
            xb[0] = abs(xb[0]) + 0.01
            assert green_half(xa, xb, k) > 0


def test_green_symmetry():
    a = np.array([0.2, -0.1, 0.3, 0.0, 0.1])
    b = np.array([-0.4, 0.2, 0.0, 0.1, -0.2])
    g1 = green_ball(a, b, 2)
    g2 = green_ball(b, a, 2)
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_green_vanishes_at_boundary():
    """G_B(x, y) decreases monotonically to 0 as y approaches the sphere."""
    x = np.array([0.1, 0.2, -0.1])
    direction = np.array([0.0, 0.0, 1.0])
    vals = [green_ball(x, (1.0 - eps) * direction, 1)
            for eps in (0.3, 0.1, 0.03, 0.01, 0.003)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_green_coincident_and_exterior_errors():
    x = np.array([0.1, 0.0, 0.0])
    with pytest.raises(ValueError):
        green_ball(x, x, 1)
    with pytest.raises(ValueError):
        green_ball(x, np.array([1.5, 0, 0]), 1)
    with pytest.raises(ValueError):
        green_half(x, np.array([-0.2, 0, 0]), 1)


def test_classical_image_formula_k1_n3():
    """Independent oracle: G(x,y) = c (|x-y|^{-1} - (|x| |y - x/|x|^2|)^{-1}),
    one global constant fitted on the first pair."""

    def classical(x, y):
        x = np.asarray(x)
        y = np.asarray(y)
        star = x / (x @ x)
        return (1.0 / np.linalg.norm(x - y)
                - 1.0 / (np.linalg.norm(x) * np.linalg.norm(y - star)))

    pts = ball_points(3, 100, seed=2)
    pairs = [(a, b) for a, b in zip(pts[:50], pts[50:])
             if np.linalg.norm(a - b) > 1e-3 and np.linalg.norm(a) > 1e-2]
    c = classical(*pairs[0]) / green_ball(*pairs[0], 1)
    for a, b in pairs:
        ours = c * green_ball(a, b, 1)
        assert ours == pytest.approx(classical(a, b), rel=1e-10)


def test_near_diagonal_limit():
    """G_B |x-y|^{n-2k} tends to the full kernel integral as y -> x."""
    n, k = 5, 2
    x = np.array([0.3, -0.1, 0.2, 0.0, 0.1])
    # s -> infinity limit of the kernel integral (psi blows up on the diagonal)
    full = sum(math.comb(k - 1, j) * (-1.0) ** (k - 1 - j)
               * (0.0 - 1.0) / (2 * j + 2 - n) for j in range(k))
    d = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    vals = []
    for eps in (1e-3, 1e-4, 1e-5):
        y = x + eps * d
        vals.append(green_ball(x, y, k) * eps ** (n - 2 * k))
    # approach is first order in eps; the last sample meets the tolerance
    assert abs(vals[1] - full) < abs(vals[0] - full)
    assert vals[-1] == pytest.approx(full, rel=1e-4)


@pytest.mark.parametrize("n,k", [(3, 1), (5, 2)])
def test_conformal_relation(n, k):
    """100 random pairs, relative residual < 1e-10."""
    pts = ball_points(n, 210, seed=3)
    count = 0
    i = 0
    while count < 100:
        a, b = pts[i], pts[i + 1]
        i += 2
        if np.linalg.norm(a - b) < 1e-3:
            continue
        assert check_conformal_relation(a, b, k) < 1e-10
        count += 1
    # symmetric pair about the origin
    a = np.array([0.3] + [0.0] * (n - 1))
    assert check_conformal_relation(a, -a, k) < 1e-10
