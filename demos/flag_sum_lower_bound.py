"""
The flag-weighted sum and the lower bound it yields
===================================================

Every ordered tuple of independent vectors carries a nested chain of
spans; the sizes of their intersections with the vector set form a flag.
Weighting tuples by (1 - sum of top-member weights) / (product of flag
counts) gives a sum that is independent of the weights, and twice that
sum is a lower bound on the chamber count.
"""

from fractions import Fraction

from flagbound.arrangement import chamber_count, generate_sign_vectors
from flagbound.flags import (
    WeightVector,
    enumerate_tuples,
    flag_lower_bound,
    flag_weighted_sum,
)

H = generate_sign_vectors(2)
print("tuples over the n=2 set, with flag counts and products:")
for t, flag in enumerate_tuples(H):
    print(f"  indices {t.indices}  counts {flag.counts}  "
          f"product {flag.product}  top {flag.top_members}")

# three very different weight vectors, same sum
uniform = WeightVector.uniform(4)
lopsided = WeightVector.from_items([1, 0, 0, 0])
third = Fraction(-1, 3)
signed = WeightVector.from_items([Fraction(2), third, third, third])

for label, p in (("uniform", uniform), ("degenerate", lopsided),
                 ("negative entries", signed)):
    print(f"weighted sum with {label} weights: {flag_weighted_sum(H, p)}")

for n in (1, 2, 3):
    bound = flag_lower_bound(n, WeightVector.uniform(2**n))
    actual = chamber_count(generate_sign_vectors(n))
    print(f"n={n}: lower bound {bound} <= chamber count {actual}")
