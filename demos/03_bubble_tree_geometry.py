"""Bubble trees: who dominates where.

A family of bubbles concentrating at different speeds partitions the domain
into influence regions: each bubble rules a ball of radius r^i around its
center, punctured at the faster bubbles' dominance balls rho^{ji}.  This
script classifies two canonical configurations -- a nested tower and a
separated comparable pair -- and measures the dominance and interaction
constants the theory says stay bounded.
"""

import numpy as np

from polybubble import (FamilyLaw, TreeConfig, check_dominance, classify,
                        epsilon, interaction_sup)

n, k = 7, 1

# --- a tower: mu^1 = 1/alpha, mu^2 = 1/alpha^2 at the same center ----------

tower = FamilyLaw([1.0, 1.0], [1.0, 2.0], [[0.0] * n, [0.0] * n])
cfg = TreeConfig.from_family(tower, alpha=100.0, n=n, k=k)
data = classify(cfg)
print("tower at alpha = 100:")
print(f"  scales: {[b.mu for b in cfg.bubbles]}")
print(f"  structure eps^(01) = {epsilon(cfg, 0, 1):.1f}   (-> infinity)")
print(f"  slower sets: {data.slower}, faster sets: {data.faster}")
print(f"  radius of influence r^0 = {data.r[0]:.4f} (= sqrt(mu^0))")
print(f"  inner dominance ball rho^(10) = {data.rho[(1, 0)]:.2e}"
      f"  ({data.rho[(1, 0)] / data.r[0]:.1%} of r^0)")

# the influence region of the big bubble is its ball minus the inner hole
print("  region 0:", data.regions[0].describe())

# --- measured dominance and interaction constants ---------------------------

for alpha in (1e2, 1e3, 1e4):
    cfg = TreeConfig.from_family(tower, alpha, n, k)
    data = classify(cfg)
    dom = check_dominance(cfg, data, 0, seed=0)[0]  # l = 0
    inter = interaction_sup(cfg, data, 0, seed=0)
    print(f"alpha = {alpha:6.0f}: dominance constant {dom['constant']:7.2f}, "
          f"interaction lhs {inter['lhs']:.3e}, ratio to bound "
          f"{inter['ratio']:.1f}")

# --- a separated comparable pair: disjoint influence balls ------------------

c1 = [0.4] + [0.0] * (n - 1)
c2 = [-0.4] + [0.0] * (n - 1)
sep = FamilyLaw([1.0, 0.8], [1.0, 1.0], [c1, c2])
cfg = TreeConfig.from_family(sep, alpha=1000.0, n=n, k=k)
data = classify(cfg)
d = float(np.linalg.norm(cfg.bubbles[0].center - cfg.bubbles[1].center))
s01, s10 = data.s[(0, 1)], data.s[(1, 0)]
print(f"\nseparated pair: s^(01) + s^(10) = {s01 + s10:.4f} < {d} = |x0-x1|")
print("  -> the influence balls are exactly disjoint"
      f" (m_limits: {data.m})")
