"""Point batches of exact radial fields: every entry of a Jet and of a
tensor norm evaluates z, s and the profile's derivative chain once per point
batch, and gives the same bits as a one-off partial.  Laplacian iterates,
which the fields apply in closed form, match the sum of pure partials over
multisets."""

from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from polybubble import radial
from polybubble.fields import PointBatch, RadialTermField, RationalProfile
from polybubble.jets import multiset_multiplicity, multisets
from polybubble.pohozaev import MultiPoly, manufactured_dirichlet
from polybubble.quadrature import _sphere_rule
from polybubble.radial import bubble_constant, make_bubble


def _radial_bubble(n, k, center=None):
    prof = RationalProfile(make_bubble(n, k), bubble_constant(n, k))
    return RadialTermField.radial(n, np.zeros(n) if center is None else center,
                                  prof)


def _off_centre_bubble():
    """The n = 7, k = 2 bubble about a centre off the origin."""
    return _radial_bubble(7, 2, np.full(7, 0.05))


@pytest.mark.parametrize("make, order, npts", [
    (lambda: _radial_bubble(9, 3), 6, 3),
    (_off_centre_bubble, 4, 6),
])
def test_jet_entries_match_one_off_partials_bitwise(make, order, npts):
    F = make()
    rng = np.random.default_rng(11)
    pts = 0.3 * rng.normal(size=(npts, F.n))
    pts[0] = F.center  # the centre is no special case
    jet = F.jet(pts, order)
    for o in range(order + 1):
        for alpha in multisets(F.n, o):
            np.testing.assert_array_equal(jet.partial(alpha),
                                          F.partial(alpha, pts))
    one = F.jet(pts[1], order)  # one point: scalar entries
    for alpha in multisets(F.n, 2):
        assert one.partial(alpha) == F.partial(alpha, pts[1:2])[0]


def test_tensor_norm_evaluates_the_profile_chain_once():
    """The profile's chain is one vectorised call per point batch, at the
    order of the batch."""
    F = _off_centre_bubble()
    calls = []
    chain = F.profile.chain
    F.profile.chain = lambda m, s: calls.append((m, np.shape(s))) or chain(m, s)
    pts = F.center + 0.4 * np.random.default_rng(2).uniform(-1, 1, (200, 7))
    norm = F.tensor_norm(4, pts)
    assert calls == [(4, (200,))]
    assert np.all(np.isfinite(norm)) and np.any(norm > 0)


def test_point_batch_computes_each_column_power_once():
    F = _radial_bubble(5, 2, np.full(5, 0.1))
    pts = np.random.default_rng(3).normal(size=(4, F.n))
    batch = PointBatch(F, pts)
    p = batch.power(2, 3)
    assert batch.power(2, 3) is p
    np.testing.assert_array_equal(p, batch.z[:, 2] ** 3)
    F.partial((2, 2), batch)
    assert batch.power(2, 3) is p


@pytest.mark.parametrize("make", [lambda: _radial_bubble(7, 2)])
def test_jet_evaluates_each_rational_order_once(make, monkeypatch):
    F = make()
    calls = []
    call = radial.RadialFunction.__call__

    def counted(self, r, a):
        calls.append(self)
        return call(self, r, a)

    monkeypatch.setattr(radial.RadialFunction, "__call__", counted)
    order = 4
    jet = F.jet(np.random.default_rng(4).normal(size=(5, F.n)), order)
    for i in (0, 2, 1):  # the Laplacian iterates touch orders 0, 4, 2
        jet.lap_iter(i)
    jet.tensor_norm(3)
    assert len(calls) <= order + 1
    assert len(set(map(id, calls))) == len(calls)


def test_point_batch_refuses_another_field():
    F, G = _radial_bubble(5, 1), _radial_bubble(5, 1)
    batch = PointBatch(F, np.ones((2, 5)))
    assert batch.shape == (2, 5)
    with pytest.raises(ValueError):
        G.partial((0,), batch)


def test_sphere_rule_is_shared_and_read_only():
    for args in ((2, 8, False), (4, 8, False), (5, 8, True)):
        u, w = _sphere_rule(*args)
        assert _sphere_rule(*args)[0] is u
        for a in (u, w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0


# -- Laplacian iterates against the multiset sum --------------------------------

def _lap_terms(n, i):
    """Delta^i = sum_m w_m d^{2m} over the multisets m of order i: (index
    tuple of d^{2m}, multinomial w_m)."""
    return [(tuple(c for c in alpha for _ in range(2)), multiset_multiplicity(alpha))
            for alpha in combinations_with_replacement(range(n), i)]


def _multiset_lap(partial, n, i, extra=()):
    """(-Delta)^i d^extra as the sum of C(n+i-1, i) pure partials of order
    2i + |extra|, and the same sum of their absolute values."""
    vals = [w * partial(tuple(extra) + idx) for idx, w in _lap_terms(n, i)]
    return (-1.0) ** i * sum(vals), sum(np.abs(v) for v in vals)


@pytest.mark.parametrize("make", [
    lambda n: _radial_bubble(n, 1),
    lambda n: _radial_bubble(n, 1, np.full(n, -0.1))],
    ids=["rational", "off-centre"])
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_lap_iter_matches_the_multiset_sum(make, n):
    """lap_iter, grad_lap and hess_lap (its entries on four axes) for i <= 3
    against the multiset sums of the same jet's pure partials, to 2e-14 of
    the sum of the terms' magnitudes (the two sums round apart; the worst
    seen is 3.3e-15).  The points sit at the centre and at three distances
    from it."""
    F = make(n)
    rng = np.random.default_rng(n)
    dirs = rng.normal(size=(4, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = F.center + np.array([0.0, 0.3, 0.7, 0.9])[:, None] * dirs
    jet = F.jet(pts, 8)
    axes = sorted({0, 1, 2, n - 1})
    for i in range(4):
        cases = [((), jet.lap_iter(i))]
        g, H = jet.grad_lap(i), jet.hess_lap(i)
        cases += [((a,), g[:, a]) for a in range(n)]
        cases += [((a, b), H[:, a, b]) for a in axes for b in axes if a <= b]
        for extra, got in cases:
            want, scale = _multiset_lap(jet.partial, n, i, extra)
            assert np.all(np.abs(got - want) <= 2e-14 * scale), (i, extra)
    assert np.count_nonzero(jet.lap_iter(3)) >= 2


def test_laplacian_entries_take_one_field_call_each(monkeypatch):
    """(-Delta)^i u is one partial call, its gradient n and its Hessian
    n(n+1)/2; the multiset sum took C(n+i-1, i) calls per entry."""
    F, n = _radial_bubble(7, 2), 7
    calls = []
    partial = F.partial
    monkeypatch.setattr(F, "partial", lambda *a, **kw: calls.append(a[0]) or partial(*a, **kw))
    jet = F.jet(np.zeros((2, n)), 6)
    jet.lap_iter(2)
    assert len(calls) == 1
    jet.grad_lap(2)
    assert len(calls) == 1 + n
    jet.hess_lap(2)
    jet.lap_iter(2)
    assert len(calls) == 1 + n + n * (n + 1) // 2


@pytest.mark.parametrize("n", [3, 5])
def test_polynomial_laplacian_is_exact(n):
    """PolynomialJet's Laplacian iterates are the exact MultiPoly Laplacians:
    equal to the multiset sum of exact partials as polynomials, and, at
    points, to the float multiset sum to 2e-14 of its terms' magnitudes."""
    poly = MultiPoly(n, {(1,) + (0,) * (n - 1): Fraction(1, 3),
                         (0, 2) + (0,) * (n - 2): Fraction(-2, 7)}) + 1
    u = manufactured_dirichlet(2, n, poly)
    pts = 0.4 * np.random.default_rng(n).normal(size=(5, n))
    jet = u.jet(pts, 7)
    for i in range(4):
        for extra in [(), (0,)]:
            exact = sum((u._dpoly(extra + idx) * w for idx, w in _lap_terms(n, i)),
                        MultiPoly(n))
            assert u._dpoly(extra, i).terms == exact.terms
            assert u._dpoly(extra, i).den == exact.den
            want, scale = _multiset_lap(jet.partial, n, i, extra)
            assert np.all(np.abs(jet.lap_iter(i, extra) - want) <= 2e-14 * scale)
