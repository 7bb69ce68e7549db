"""Closed-form oracle for the solver's start block: the 4-term even Taylor
expansion at the origin with its derivative columns written out by hand."""

import numpy as np

from polybubble.solver import _block_cols


def closed_form_start(params, d, eps):
    """4-term even Taylor expansion at the origin fixing y(eps), as the full
    (2k, _block_cols(k)) block: column 0 is y(eps), the others its
    closed-form derivatives in d and mu.  The coefficients c2, c4 are linear
    in w = (d, N(d_0) - mu d_p) and in F2 = N'(d_0) c2_0 - mu c2_p, so each
    row carries its derivatives once those of w and F2 are known."""
    n, k, p, mu = params.n, params.k, params.p, params.mu
    ts = params.two_sharp
    a = abs(d[0]) ** (ts - 2.0)
    N1 = (ts - 1.0) * a
    N2 = N1 * (ts - 2.0) / d[0] if d[0] != 0.0 else 0.0
    N3 = N2 * (ts - 3.0) / d[0] if d[0] != 0.0 else 0.0
    dmu, dd = k + 1, k + 2  # the d/dmu column and the (0, 0) column
    W = np.zeros((k + 1, _block_cols(k)))
    W[:k, 0] = d
    W[:k, 1:k + 1] = np.eye(k)
    W[k, 0] = a * d[0] - mu * d[p]
    W[k, 1 + p] -= mu
    W[k, 1] += N1
    W[k, dmu] = -d[p]
    W[k, dd] = N2
    C2 = -W[1:] / (2.0 * n)
    F2 = N1 * C2[0] - mu * C2[p]
    F2[1] += N2 * C2[0, 0]
    F2[dmu] -= C2[p, 0]
    F2[dd:dd + k] += N2 * C2[0, 1:k + 1]  # the (0, j) columns
    F2[dd] += N2 * C2[0, 1] + N3 * C2[0, 0]
    C4 = -np.vstack([C2[1:], F2]) / (4.0 * (n + 2))
    Y = np.empty((2 * k, _block_cols(k)))
    Y[0::2] = W[:k] + C2 * eps**2 + C4 * eps**4
    Y[1::2] = 2 * C2 * eps + 4 * C4 * eps**3
    return Y
