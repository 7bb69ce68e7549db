"""The weighted-norm apparatus and its integral lemmas, measured.

The linear theory controls solutions through a weight Psi built from the
bubbles, two weighted norms, and a handful of convolution estimates
(a Giraud lemma and friends).  None of the constants is explicit, so the
honest desk check is: compute both sides by quadrature and watch the ratios
stay bounded -- and decay where the lemma says o(1).
"""

import math

import numpy as np

from polybubble import (Ball, BubbleSpec, Region, TreeConfig,
                        convolution_bound_verify, eta_sequences, giraud_verify,
                        positive_bubble, psi_weight, star_norm)
from polybubble.tree import stratified_samples
from polybubble.fields import RadialTermField, RationalProfile
from polybubble.radial import bubble_constant, make_bubble

n, k = 7, 1


def single(mu):
    return TreeConfig([BubbleSpec("interior", n, k, np.zeros(n), mu)])


# --- the weight and the norms -----------------------------------------------

cfg = single(1e-2)
grid = stratified_samples(Region(cfg.domain, [], cfg.domain), cfg, 400, seed=0)
print(f"Psi on a {len(grid)}-point grid: min {psi_weight(cfg, grid).min():.3e}, "
      f"max {psi_weight(cfg, grid).max():.3e}")

a = bubble_constant(n, k)
B1 = RadialTermField.radial(n, np.zeros(n), RationalProfile(make_bubble(n, k), a),
                            mu=1e-2, amplitude=1e-2 ** (-0.5 * (n - 2 * k)))
print(f"star norm of the bubble itself: {star_norm(B1, cfg, grid):.3f}"
      "  (each derivative is its own weight -> order one)")

# --- eta control sequences decay along the concentration sweep --------------
# (eta2 is a sup over two evaluation points on the axis; eta4 is max |nu|,
# 0 here since the configurations carry no kernel coefficients)

print("\neta sequences along mu = 1e-1, 1e-2, 1e-3:")
for mu in (1e-1, 1e-2, 1e-3):
    es = eta_sequences(single(mu))
    print(f"  mu={mu:5.0e}: eta1={es['eta1']:9.4f} eta2={es['eta2']:9.5f} "
          f"eta3={es['eta3']:8.4f} eta4={es['eta4']}")

# --- Giraud's lemma: three cases, and the log factor is not optional --------

dom = Ball((0.0,) * 5, 1.0)
x = np.zeros(5)
x[0] = 0.2
y = np.zeros(5)
y[0] = -0.1
print("\nGiraud ratios Z/bound (gamma < 0, = 0, > 0):")
for gamma in (-0.5, 0.0, 1.0):
    rats = [giraud_verify(gamma, 2.0, mu, x, y, dom)["ratio"]
            for mu in (1e-1, 1e-2, 1e-3)]
    print(f"  gamma={gamma:5.1f}: " + "  ".join(f"{r:8.3f}" for r in rats))
print("gamma = 0 without the log factor (ratio grows like log(1/mu)):")
rats = [giraud_verify(0.0, 2.0, mu, x, y, dom, with_log=False)["ratio"]
        for mu in (1e-1, 1e-3, 1e-5)]
print("  " + "  ".join(f"{r:8.2f}" for r in rats))

# --- the punctured convolution decays like M^{-2k} --------------------------

print("\npunctured convolution: LHS/B(x) along M = mu^{-1/2}")
lhs, Ms = [], []
for mu in (1e-2, 1e-3, 1e-4):
    cc = single(mu)
    M = mu**-0.5
    xx = np.zeros(n)
    xx[0] = math.sqrt(mu)
    row = convolution_bound_verify("trou", cc, {"i": 0, "l": 0, "M": M,
                                                "x_points": [xx]})[0]
    den = positive_bubble(cc.bubbles[0], xx[None, :])[0]
    lhs.append(row["lhs"] / den)
    Ms.append(M)
    print(f"  M = {M:6.1f}: {lhs[-1]:.4g}")
slope = np.polyfit(np.log(Ms), np.log(lhs), 1)[0]
print(f"fitted slope {slope:.3f}  (theory: -2k = {-2 * k})")
