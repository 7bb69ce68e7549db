"""Exact radial algebra: construction, Laplacians, power reduction, and the
symbolic bubble PDE check against closed forms and finite differences."""

import argparse
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybubble.radial import (RadialFunction, RepresentationError,
                               bubble_constant, bubble_constant_product,
                               check_bubble_identity, critical_exponent,
                               laplacian, make_bubble, power_reduce,
                               radial_derivative)


def test_make_bubble_structure():
    b = make_bubble(3, 1)
    assert b.M == 1 and b.terms == {(0, 0, 0): 1}
    b52 = make_bubble(5, 2)
    assert b52.M == 1 and list(b52.terms) == [(0, 0, 0)]


def test_make_bubble_eval_at_zero():
    assert make_bubble(3, 1)(0.0, 1.0 / 3.0) == 1.0


def test_make_bubble_invalid_params():
    with pytest.raises(ValueError):
        make_bubble(2, 1)
    with pytest.raises(ValueError):
        make_bubble(5, 0)


_ORDERS = "need integers 1 <= k and 2k < n"


@pytest.mark.parametrize("n,k", [(7, 1.5), (7.0, 1), (4, 2), (3, 0)])
def test_every_order_check_is_critical_exponent(tmp_path, capsys, n, k):
    """Orders that are not integers with 1 <= k and 2k < n get the one
    message of critical_exponent from every entry point that takes them,
    and from bubble-check and cayley-green before either computes or writes
    anything (non-integer orders cannot pass argparse, so those commands
    get them in a namespace; integer ones also go through main)."""
    from polybubble import cli
    from polybubble.bubbles import BubbleSpec
    from polybubble.green import kernel_integral
    from polybubble.solver import ProblemParams

    calls = [lambda: critical_exponent(n, k), lambda: make_bubble(n, k),
             lambda: bubble_constant_product(n, k),
             lambda: ProblemParams(n, k, 0, -0.5),
             lambda: BubbleSpec("interior", n, k, np.zeros(7), 0.1),
             lambda: kernel_integral(2.0, k, n)]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(_ORDERS)):
            call()
    out = str(tmp_path / "runs")
    ns = argparse.Namespace(n=n, k=k, n_max=12, k_max=4, pairs=5, seed=0, out=out)
    for cmd in (cli.cmd_bubble_check, cli.cmd_cayley_green):
        assert cmd(ns) == 2
        err = capsys.readouterr().err
        assert _ORDERS in err and len(err.strip().splitlines()) == 1
    if isinstance(n, int) and isinstance(k, int):
        for command in ("bubble-check", "cayley-green"):
            argv = ["--out", out, command, "--n", str(n), "--k", str(k)]
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert _ORDERS in err and len(err.strip().splitlines()) == 1
            assert os.listdir(os.path.join(out, command)) == []


def test_integer_orders_may_be_numpy_integers():
    n, k = np.int64(7), np.int64(1)
    assert critical_exponent(n, k) == critical_exponent(7, 1)
    assert make_bubble(n, k).terms == make_bubble(7, 1).terms
    assert bubble_constant_product(n, k) == bubble_constant_product(7, 1)


def test_eval_examples():
    b = make_bubble(3, 1)
    assert b(1.0, 1.0 / 3.0) == pytest.approx((4.0 / 3.0) ** -0.5, rel=1e-14)
    assert b(1e8, 1.0 / 3.0) < 1e-7  # decay at infinity


def test_laplacian_of_r_squared():
    n = 5
    f = RadialFunction(n, 0, {(2, 0, 0): 1})
    g = laplacian(f)
    # -Delta r^2 = -2n
    assert g.terms == {(0, 0, 0): -2 * n}


def test_laplacian_constant_is_zero():
    f = RadialFunction(4, 0, {(0, 0, 0): 1})
    assert not laplacian(f).terms


def test_laplacian_closed_form_k1():
    # -Delta (1+ar^2)^{-(n-2)/2} = n(n-2) a (1+ar^2)^{-(n+2)/2}
    for n in (3, 5, 8):
        f = make_bubble(n, 1)
        g = power_reduce(laplacian(f))
        assert g.terms == {(0, 2, 1): n * (n - 2)}


def test_laplacian_rejects_odd_power():
    f = RadialFunction(3, 1, {(1, 0, 0): 1})
    with pytest.raises(RepresentationError):
        laplacian(f)


def test_radial_derivative_examples():
    f = RadialFunction(3, 0, {(0, 0, 0): 1})
    assert not radial_derivative(f).terms
    # d/dr (1+ar^2)^{-q/2} = -a q r (1+ar^2)^{-(q+2)/2}
    g = RadialFunction(3, 3, {(0, 0, 0): 1})  # q = 3
    dg = radial_derivative(g)
    assert dg.terms == {(1, 1, 1): -3}


def test_radial_derivative_bubble_at_one():
    b = make_bubble(3, 1)
    db = radial_derivative(b)
    a = 1.0 / 3.0
    exact = -(1.0 / 3.0) * (4.0 / 3.0) ** -1.5
    assert db(1.0, a) == pytest.approx(exact, rel=1e-14)
    # central finite difference oracle
    h = 1e-5
    fd = (b(1.0 + h, a) - b(1.0 - h, a)) / (2 * h)
    assert db(1.0, a) == pytest.approx(fd, abs=1e-10)


def test_power_reduce_defining_identity():
    # r^2 (1+ar^2)^{-1} = a^{-1} - a^{-1} (1+ar^2)^{-1}
    f = RadialFunction(3, 2, {(2, 0, 0): 1})
    g = power_reduce(f)
    assert g.terms == {(0, -1, -1): 1, (0, 0, -1): -1}


def test_power_reduce_idempotent():
    f = power_reduce(laplacian(make_bubble(5, 1)))
    assert power_reduce(f).terms == f.terms


def test_power_reduce_rejects_odd():
    f = RadialFunction(3, 1, {(1, 0, 0): 1})
    with pytest.raises(RepresentationError):
        power_reduce(f)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-2, 2), st.integers(-3, 3)),
                min_size=1, max_size=4),
       st.integers(0, 19))
def test_power_reduce_preserves_values(terms, pt_idx):
    """Property: evaluation is pointwise identical after reduction, also
    when the terms carry mixed powers of a."""
    n = 5
    built = {}
    for (s, t, e, c) in terms:
        key = (2 * s, t, e)
        built[key] = built.get(key, 0) + c
    f = RadialFunction(n, 2, built)
    g = power_reduce(f)
    assert all(p == 0 for (p, _, _) in g.terms)
    rng = np.random.default_rng(pt_idx)
    r = rng.uniform(0.0, 3.0)
    a = rng.uniform(0.1, 2.0)
    assert g(r, a) == pytest.approx(f(r, a), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n,k", [(3, 1), (6, 2), (9, 3), (12, 4)])
def test_a_exponent_bookkeeping(n, k):
    """The flat bubble is a function of a r^2, so each term's a-power is half
    its total r-degree: (p + 2j)/2 after j Laplacians, (p + j)/2 after j
    r-derivatives; power reduction moves all of it into a^j."""
    g = d = make_bubble(n, k)
    for j in range(1, k + 1):
        g = laplacian(g)
        assert all(2 * e == p + 2 * j for (p, _, e) in g.terms), j
        assert all(e == j for (_, _, e) in power_reduce(g).terms), j
    for j in range(1, 7):
        d = radial_derivative(d)
        assert all(2 * e == p + j for (p, _, e) in d.terms), j


@pytest.mark.parametrize("n,k,coef", [(3, 1, 3), (7, 1, 35), (5, 2, 105)])
def test_check_bubble_identity_examples(n, k, coef):
    res = check_bubble_identity(n, k)
    assert res.passed
    assert res.residual_terms == []
    assert res.leading_coefficient == {k: coef}
    assert bubble_constant_product(n, k) == coef


def test_check_bubble_identity_high_precision_52():
    # numeric cross-check at a = 105^{-1/2}
    n, k = 5, 2
    a = 105.0 ** -0.5
    b = make_bubble(n, k)
    g = laplacian(laplacian(b))
    ts = critical_exponent(n, k)
    for r in (0.0, 0.7, 1.3, 4.0):
        assert g(r, a) == pytest.approx(b(r, a) ** (ts - 1), rel=1e-10)


def test_bubble_identity_full_range():
    for k in range(1, 5):
        for n in range(2 * k + 1, 13):
            assert check_bubble_identity(n, k).passed, (n, k)


def test_laplacian_fd_richardson_slope():
    """-Delta f agrees with a second-order FD Laplacian at O(h^2):
    Richardson slope >= 1.9 between h=1e-2 and h=1e-3."""
    n, k = 6, 2
    a = bubble_constant(n, k)
    f = make_bubble(n, k)
    g = laplacian(f)
    r0 = 0.8

    def fd_lap(h):
        # radial Laplacian: f'' + (n-1)/r f'
        fpp = (f(r0 + h, a) - 2 * f(r0, a) + f(r0 - h, a)) / h**2
        fp = (f(r0 + h, a) - f(r0 - h, a)) / (2 * h)
        return -(fpp + (n - 1) / r0 * fp)

    e1 = abs(fd_lap(1e-2) - g(r0, a))
    e2 = abs(fd_lap(1e-3) - g(r0, a))
    slope = math.log10(e1 / e2)
    assert slope >= 1.9


def test_bubble_constant_values():
    assert bubble_constant(3, 1) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert bubble_constant(5, 2) == pytest.approx(105.0 ** -0.5, rel=1e-15)
