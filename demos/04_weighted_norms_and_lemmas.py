"""The weighted-norm apparatus and its integral lemmas, measured.

The linear theory controls solutions through a weight Psi built from the
bubbles, the eta control sequences, and a handful of convolution estimates
(a Giraud lemma and friends).  None of the constants is explicit, so the
honest desk check is: compute both sides by quadrature and watch the ratios
stay bounded -- and decay where the lemma says o(1).
"""

import math

import numpy as np

from polybubble import (Ball, BubbleSpec, Region, TreeConfig,
                        convolution_bound_verify, eta_sequences, giraud_verify,
                        positive_bubble, psi_weight)
from polybubble.tree import stratified_samples

n, k = 7, 1


def single(mu):
    return TreeConfig([BubbleSpec("interior", n, k, np.zeros(n), mu)])


# --- the weight -------------------------------------------------------------

cfg = single(1e-2)
grid = stratified_samples(Region(cfg.domain, [], cfg.domain), cfg, 400, seed=0)
print(f"Psi on a {len(grid)}-point grid: min {psi_weight(cfg, grid).min():.3e}, "
      f"max {psi_weight(cfg, grid).max():.3e}")

# --- eta control sequences decay along the concentration sweep --------------
# (eta2 is a sup over two evaluation points on the axis)

print("\neta sequences along mu = 1e-1, 1e-2, 1e-3:")
for mu in (1e-1, 1e-2, 1e-3):
    es = eta_sequences(single(mu))
    print(f"  mu={mu:5.0e}: eta1={es['eta1']:9.4f} eta2={es['eta2']:9.5f} "
          f"eta3={es['eta3']:8.4f}")

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
