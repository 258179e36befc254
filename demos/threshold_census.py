"""
Brute-force census of threshold functions
=========================================

A Boolean function is threshold when some affine form over its ±1-encoded
inputs is nonnegative exactly on its true points.  Feasibility is decided
by exact Fourier-Motzkin elimination, so no floating point is involved.
The census gives an independent check on the chamber counts, and the
bounds report assembles everything into one row.
"""

from flagbound.threshold import (
    BooleanFunction,
    bounds_report,
    count_threshold_functions,
    is_threshold,
)

AND = BooleanFunction(2, (0, 0, 0, 1))
XOR = BooleanFunction(2, (0, 1, 1, 0))
print(f"AND is threshold: {is_threshold(AND)}")
print(f"XOR is threshold: {is_threshold(XOR)}")
print(f"negated XOR is threshold: {is_threshold(XOR.negated())}")

for n in (1, 2, 3):
    print(f"threshold functions of {n} variables: "
          f"{count_threshold_functions(n)} of {2**2**n}")

print()
print("n  lower  2*minimal  chambers  census  upper")
for n in (1, 2, 3, 4):
    r = bounds_report(n)
    census = "-" if r.brute_force is None else r.brute_force
    print(f"{r.n}  {r.lower_bound}  {r.two_lambda}  {r.chambers}  "
          f"{census}  {r.schlafli}")
