"""
Order-minimal tuples and why their number ignores the order
===========================================================

Fix a total order on the vectors.  A tuple of independent vectors is
order-minimal when each entry is the smallest vector (in that order)
inside the span it starts, and the overall smallest vector of the set
stays outside the tuple's span.  The number of such tuples is the rank
of a homology group, so shuffling the order never changes it.
"""

from flagbound.arrangement import generate_sign_vectors
from flagbound.flags import (
    OrderPermutation,
    WeightVector,
    minimal_tuple_count,
    minimal_tuples,
    monte_carlo_expectation,
)

H = generate_sign_vectors(2)
print("minimal tuples under the index order:")
for t in sorted(minimal_tuples(H), key=lambda t: t.indices):
    print(f"  {t.indices}")

print("counts under ten shuffled orders:")
counts = []
for seed in range(10):
    order = OrderPermutation.random(len(H), seed)
    counts.append(minimal_tuple_count(H, order))
print(f"  {counts}")

H3 = generate_sign_vectors(3)
base = minimal_tuple_count(H3)
print(f"n=3 count under the index order: {base}")
same = all(minimal_tuple_count(H3, OrderPermutation.random(8, s)) == base
           for s in range(10))
print(f"identical under ten random orders: {same}")

# sampling random orders estimates the same number with zero variance
mean, stderr = monte_carlo_expectation(H3, WeightVector.uniform(8), 200, 1)
print(f"sampled mean over 200 random orders: {mean} (stderr {stderr})")
