"""Finite-difference oracles for the tests: central differences of a
function that maps an (m, n) array of points to (m,) values."""

import numpy as np


def fd_partial(f, x, alpha, h: float = 1e-4):
    """Central finite difference of the mixed partial given by the index
    multiset alpha, at one point (n,) or a batch (m, n).  f maps an (m, n)
    array to an (m,) array."""
    x = np.asarray(x, float)
    alpha = tuple(alpha)
    if not alpha:
        vals = np.asarray(f(np.atleast_2d(x)), float)
        return vals.reshape(x.shape[:-1])[()]
    i, rest = alpha[0], alpha[1:]
    xp = x.copy()
    xm = x.copy()
    xp[..., i] += h
    xm[..., i] -= h
    return (fd_partial(f, xp, rest, h) - fd_partial(f, xm, rest, h)) / (2 * h)


def fd_laplacian(f, x, h: float = 1e-4):
    """Second-order central FD Laplacian at one point (n,) or a batch (m, n).

    f maps an (m, n) array to an (m,) array; the whole (2n+1)-point stencil
    of every point goes to f in one call.
    """
    x = np.asarray(x, float)
    pts = np.atleast_2d(x)
    n = pts.shape[1]
    steps = np.zeros((2 * n + 1, n))
    steps[1::2] = h * np.eye(n)
    steps[2::2] = -h * np.eye(n)
    stencil = pts[:, None, :] + steps
    vals = np.asarray(f(stencil.reshape(-1, n)), float).reshape(len(pts), -1)
    lap = (np.sum(vals[:, 1:], axis=1) - 2 * n * vals[:, 0]) / h**2
    return lap.reshape(x.shape[:-1])[()]


def fd_laplacian_iter(f, x, k: int, h: float = 1e-3):
    """(-Delta)^k via nested FD Laplacians (O(h^2) per level), at one point
    (n,) or a batch (m, n)."""
    if k == 0:
        x = np.asarray(x, float)
        vals = np.asarray(f(np.atleast_2d(x)), float)
        return vals.reshape(x.shape[:-1])[()]
    return -fd_laplacian(lambda q: fd_laplacian_iter(f, q, k - 1, h), x, h)
