"""The flat profile solves its critical equation -- exactly.

B(x) = (1 + a|x|^2)^{-(n-2k)/2} satisfies (-Delta)^k B = B^{2#-1} when a is
the right constant.  The radial algebra kernel applies k exact Laplacians,
power-reduces, and certifies the identity as a polynomial statement in the
formal symbol a: no floating point is involved until we ask for numbers.
"""

from polybubble import (bubble_constant, bubble_constant_product,
                        check_bubble_identity, check_decay,
                        critical_exponent, laplacian, make_bubble)

# --- symbolic certification over the whole admissible range ---------------

print("symbolic check of (-Delta)^k B = B^{2#-1}:")
for k in range(1, 5):
    for n in range(2 * k + 1, 13):
        res = check_bubble_identity(n, k)
        assert res.passed, (n, k)
    print(f"  k={k}: all n in ({2*k}, 12] pass")

# The leading coefficient is the monomial prod(n+2l) * a^k, which reduces to
# 1 under the defining relation for a_{n,k}.  For (5,2):
res = check_bubble_identity(5, 2)
lead = " + ".join(f"{c}*a^{e}" for e, c in sorted(res.leading_coefficient.items()))
print(f"\n(5,2) leading coefficient: {lead}"
      f"  (105 = 1*3*5*7 = {bubble_constant_product(5, 2)})")

# --- and numerically, at the actual irrational a ---------------------------

n, k = 5, 2
a = bubble_constant(n, k)          # 105^{-1/2}, irrational
B = make_bubble(n, k)
lhs = B
for _ in range(k):
    lhs = laplacian(lhs)
ts = critical_exponent(n, k)
print(f"\nnumeric residuals at a = 105^(-1/2) = {a:.6f}:")
for r in (0.0, 0.5, 1.0, 2.0, 10.0):
    rel = abs(lhs(r, a) - B(r, a) ** (ts - 1)) / B(r, a) ** (ts - 1)
    print(f"  r = {r:4.1f}: {rel:.2e}")

# --- sharp decay of the profile and its derivatives ------------------------

print("\nlog-log decay slopes of |grad^l B| (target 2k - n - l):")
for (nn, kk) in [(7, 1), (5, 2), (9, 2)]:
    for l in range(2 * kk):
        rep = check_decay(nn, kk, l)
        print(f"  (n,k,l)=({nn},{kk},{l}): slope {rep['slope']:8.4f}"
              f"  target {rep['target']}")
