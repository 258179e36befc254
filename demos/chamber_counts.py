"""
Counting the chambers of the sign-vector arrangement
====================================================

The vectors (1, ±1, ..., ±1) are the normals of a central hyperplane
arrangement.  Its chambers are in bijection with threshold Boolean
functions, so counting them two independent ways (and brute-forcing the
functions themselves) gives a three-way consistency check.
"""

from flagbound.arrangement import (
    chamber_count,
    chamber_count_dr,
    generate_sign_vectors,
    schlafli_bound,
)
from flagbound.threshold import count_threshold_functions

for n in range(1, 5):
    H = generate_sign_vectors(n)
    via_mobius = chamber_count(H)          # Zaslavsky: sum of |mu| over flats
    via_sweep = chamber_count_dr(H)        # deletion/restriction recursion
    print(f"n={n}: {len(H)} normals in R^{n + 1}")
    print(f"  chambers via intersection lattice: {via_mobius}")
    print(f"  chambers via deletion/restriction: {via_sweep}")
    if n <= 4:
        census = count_threshold_functions(n)
        print(f"  threshold functions by brute force: {census}")
    print(f"  classical upper bound: {schlafli_bound(n)}")
