"""The blow-up mechanism at desk scale.

For -Delta u - lambda u = u^{2#-1} on the unit ball in R^7, the positive
ground state blows up as lambda -> 0+: its center value diverges, the
profile converges to a rescaled bubble, and the lower-order integral
int u^2 scales like mu^{2(k-p)} = mu^2 in the fitted bubble scale.  That
scaling balance is the engine of the compactness proof; here it is run as
an actual experiment.
"""

from polybubble import (ProblemParams, continuation, newton_solve,
                        pohozaev_scaling, synthetic_bubble_branch)

# --- solve at lambda = 0.5, then continue toward the critical coefficient ---

params = ProblemParams(n=7, k=1, p=0, mu=-0.5)  # mu = -lambda
print("Newton on the shooting map at lambda = 0.5 ...")
sol = newton_solve(params, [1.2e4], rtol=1e-9)
print(f"  ground state: u(0) = {sol.d[0]:.2f}, boundary mismatch "
      f"{abs(sol.mismatch[0]):.1e}, LSODA re-integration check "
      f"{sol.collocation_residual:.1e}")

grid = [-0.5, -0.25, -0.1, -0.05, -0.02]
branch, flag = continuation(params, grid, sol, rtol=1e-9)
print(f"\ncontinuation ({flag}):")
print(f"{'lambda':>8} {'sup norm':>12} {'energy':>12} {'mu_fit':>9} "
      f"{'fit resid':>10} {'int u^2':>10} {'LSODA':>9}")
for b in branch:
    print(f"{-b.mu_param:8.3f} {b.sup_norm:12.4g} {b.energy:12.6g} "
          f"{b.mu_fit:9.5f} {b.fit_residual:10.2e} {b.poho_term:10.4g} "
          f"{b.collocation_residual:9.1e}")

slope = pohozaev_scaling(branch)
print(f"\nfitted scaling exponent of int u^2 vs mu_fit: {slope:.3f}"
      f"  (mechanism predicts 2(k-p) = 2)")
print("energy saturates at the bubble level while the sup norm diverges --")
print("exactly the quantized loss of compactness.")

# --- the same exponent on synthetic exact-bubble branches --------------------

print("\nsynthetic exact-bubble branches (no PDE solve):")
for (k, p, n) in [(1, 0, 7), (2, 0, 9), (2, 1, 9)]:
    br = synthetic_bubble_branch(n, k, p, [2e-3, 1e-3, 5e-4, 2e-4, 1e-4])
    s = pohozaev_scaling(br)
    print(f"  (k,p,n)=({k},{p},{n}): slope {s:.4f}  target {2 * (k - p)}")
