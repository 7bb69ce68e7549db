"""The ball and the half-space are conformally the same problem.

The Moebius-type map phi(y) = (y+e_1)/|y+e_1|^2 - e_1/2 sends the unit ball
onto {x_1 > 0} and conjugates the two polyharmonic Dirichlet problems.  This
script checks the exact distance identity, both norm invariances, and the
conjugation of the two Boggio-form Green functions.
"""

import numpy as np

from polybubble import (CayleyMap, GaussianXPow, check_conformal_relation,
                        check_distance_identity, check_norm_invariance,
                        green_ball, green_half, psi_ball, psi_half)

rng = np.random.default_rng(0)


def ball_pt(n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v) * 0.8 * rng.uniform(0.1, 1) ** (1 / n)


# --- the map and its exact metric identity ---------------------------------

n = 5
cm = CayleyMap(n)
y = ball_pt(n)
print("phi(0) =", cm.phi(np.zeros((1, n)))[0], " (= e_1/2)")
print("round trip |phi_inv(phi(y)) - y| =",
      np.abs(cm.phi_inv(cm.phi(y[None, :]))[0] - y).max())

worst = max(check_distance_identity(ball_pt(n), ball_pt(n))
            for _ in range(500))
print(f"distance identity |phi(x)-phi(y)| |x+e1| |y+e1| = |x-y|: "
      f"worst residual {worst:.2e} over 500 pairs")

# psi_inf(phi x, phi y) = psi(x, y): the Green kernels share their profile
x1, x2 = ball_pt(n), ball_pt(n)
p1, p2 = cm.phi(x1[None, :])[0], cm.phi(x2[None, :])[0]
print(f"psi invariance: {abs(psi_half(p1, p2) - psi_ball(x1, x2)):.2e}")

# --- norm invariance of the transform --------------------------------------

print("\ncritical and derivative norm invariance (independent quadrature")
print("on each side; derivative side from exact Taylor expansions):")
for (nn, kk) in [(3, 1), (5, 2)]:
    u = GaussianXPow(nn, kk)
    rep = check_norm_invariance(u, nn, kk)
    print(f"  (n,k)=({nn},{kk}): critical rel err {rep['critical'][2]:.1e}, "
          f"derivative rel err {rep['derivative'][2]:.1e}")

# --- Green functions and their conjugation ---------------------------------
# (each takes the dimension from its points: n = 5 here, n = 3 below)

print("\nGreen function of the ball at a sample pair (k=2, n=5):",
      green_ball(x1, x2, 2))
print("Green function of the half-space at its image pair:  ",
      green_half(p1, p2, 2))
worst = max(check_conformal_relation(ball_pt(3), ball_pt(3), 1)
            for _ in range(200))
print(f"conjugation identity G_B = w(x) w(y) G_half(phi x, phi y): "
      f"worst relative residual {worst:.2e} over 200 pairs")
