"""Truncated Taylor arithmetic: coefficients against closed forms, their
independence of the truncation order, and point code run on series."""

from math import comb, factorial

import numpy as np
import pytest

from polybubble.jets import Taylor
from polybubble.quadrature import row_sq_norms

U0 = np.array([0.3, 0.7, 1.9])
ORDER = 6


def _lah(n, k):
    """Unsigned Lah number L(n, k)."""
    return comb(n - 1, k - 1) * factorial(n) // factorial(k)


def _closed_forms(j):
    """j-th Taylor coefficients at U0 of exp(-1/u), (1+u)/(1-u) and u^alpha."""
    # d^j/du^j e^{-1/u} = e^{-1/u} sum_k L(j, k) (-1)^{j+k} u^{-j-k}
    exp_ninv = np.exp(-1.0 / U0) * (
        sum(_lah(j, k) * (-1.0) ** (j + k) * U0 ** (-j - k)
            for k in range(1, j + 1)) if j else 1.0) / factorial(j)
    quotient = (1 + U0) / (1 - U0) if j == 0 else 2.0 / (1 - U0) ** (j + 1)
    alpha = 7 / 3
    binom = np.prod([(alpha - i) / (i + 1) for i in range(j)])
    return [exp_ninv, quotient, binom * U0 ** (alpha - j)]


def test_taylor_matches_closed_forms_to_order_6():
    u = Taylor.line(U0, 1.0, ORDER)
    series = [np.exp(-1.0 / u), (1 + u) / (1 - u), u ** (7 / 3)]
    for j in range(ORDER + 1):
        for got, want in zip(series, _closed_forms(j)):
            np.testing.assert_allclose(got.c[j], want, rtol=1e-12, atol=0)


def test_taylor_coefficients_do_not_depend_on_the_order():
    def f(u):
        return np.exp(-1.0 / (2.0 - u)) / (u * u + np.sqrt(u)) ** 1.5

    full = f(Taylor.line(U0, 1.0, ORDER)).c
    for order in range(ORDER):
        np.testing.assert_array_equal(f(Taylor.line(U0, 1.0, order)).c,
                                      full[:order + 1])


@pytest.mark.parametrize("n", [3, 9])  # both branches of row_sq_norms
def test_point_code_runs_on_taylor_coordinates(n):
    """|x + t theta - c|^2 = |x-c|^2 + 2 t (x-c).theta + t^2 |theta|^2, and
    masks and ndarray-on-the-left arithmetic keep the series."""
    rng = np.random.default_rng(0)
    x, theta, c = rng.normal(size=(5, n)), rng.normal(size=n), rng.normal(size=n)
    s = row_sq_norms(Taylor.line(x, theta, 3) - c)
    np.testing.assert_allclose(s.c[0], row_sq_norms(x - c), rtol=1e-14)
    np.testing.assert_allclose(s.c[1], 2 * (x - c) @ theta, rtol=1e-13)
    np.testing.assert_allclose(s.c[2], theta @ theta, rtol=1e-14)
    assert np.all(s.c[3] == 0.0)
    out = 0.0 * s
    inside = s < np.median(s.c[0])
    out[inside] = np.ones(1) / s[inside]
    assert np.all(out.c[:, ~inside] == 0.0)
    np.testing.assert_array_equal(out.c[:, inside], (1.0 / s[inside]).c)
    np.testing.assert_array_equal((np.full(5, 2.0) - s).c, (2.0 - s).c)
