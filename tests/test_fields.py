"""Point batches of exact radial fields: every entry of a Jet, a tensor norm
and a tree's derivative tensor evaluates z, s and each profile's derivative
chain once per point batch, and gives the same bits as a one-off partial."""

import numpy as np
import pytest

from polybubble import radial
from polybubble.bubbles import BubbleSpec, bubble_field, kernel_elements
from polybubble.fields import (PointBatch, RadialTermField, RationalProfile,
                               cutoff_profile)
from polybubble.jets import multiset_multiplicity, multisets
from polybubble.quadrature import Ball, _sphere_rule
from polybubble.radial import bubble_constant, make_bubble
from polybubble.tree import TreeConfig, _tree_fields, eval_tree


def _radial_bubble(n, k, mu=1.0):
    prof = RationalProfile(make_bubble(n, k), bubble_constant(n, k))
    return RadialTermField.radial(n, np.zeros(n), prof, mu=mu)


def _cutoff_bubble():
    """The n = 7, k = 2, mu = 0.1 bubble of the unit ball: cutoff times
    rational profile, a two-factor ProductProfile."""
    spec = BubbleSpec("interior", 7, 2, np.full(7, 0.05), 0.1)
    return bubble_field(spec, Ball((0.0,) * 7, 1.0))


def _kernel_translation():
    F = kernel_elements(5, 2)[2]  # d_2 B: one component z_2 * h(s)
    assert F.components[0].beta0 != (0,) * 5
    return F


@pytest.mark.parametrize("make, order, npts", [
    (lambda: _radial_bubble(9, 3, mu=0.7), 6, 3),
    (_cutoff_bubble, 4, 6),
    (_kernel_translation, 3, 6),
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


def test_eval_tree_matches_per_multiset_partials():
    cfg = TreeConfig([BubbleSpec("interior", 7, 2, np.zeros(7), 0.1),
                      BubbleSpec("interior", 7, 2, np.full(7, 0.1), 0.02)],
                     nu={(0, 0): 0.01, (1, 3): 0.02})
    x = 0.3 * np.random.default_rng(5).normal(size=(8, 7))
    for l in (1, 2, 3):
        tot = np.zeros(len(x))
        for alpha in multisets(7, l):
            entry = np.zeros(len(x))
            for F in _tree_fields(cfg):
                entry += F.partial(alpha, x)
            tot += multiset_multiplicity(alpha) * entry**2
        np.testing.assert_array_equal(eval_tree(cfg, x, l), np.sqrt(tot))


def test_cutoff_chain_does_not_depend_on_its_length():
    G = cutoff_profile()
    s = np.linspace(0.0, 1.2, 241)
    chains = [G.chain(m, s) for m in range(7)]
    for m in range(7):
        for j in range(m + 1):
            np.testing.assert_array_equal(chains[m][j], chains[j][j])
    assert G.chain(3, 0.5)[2] == chains[2][2][100]  # scalar in, scalar out


def _count_series_calls(F):
    """Wrap the cutoff factor's series oracle of F; return the call list."""
    (chi, _), _ = F.components[0].profile.factors
    calls = []
    series = chi._series

    def counted(s, m):
        calls.append(m)
        return series(s, m)

    chi._series = counted
    return calls


def test_tensor_norm_makes_one_series_call_per_point():
    F = _cutoff_bubble()
    calls = _count_series_calls(F)
    pts = F.center + 0.4 * np.random.default_rng(2).uniform(-1, 1, (200, 7))
    norm = F.tensor_norm(4, pts)
    assert len(calls) == 200 and set(calls) == {4}
    assert np.all(np.isfinite(norm)) and np.any(norm > 0)


@pytest.mark.parametrize("make", [lambda: _radial_bubble(7, 2),
                                  _kernel_translation])
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
