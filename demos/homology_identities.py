"""
Homology ranks of the proper-span complex
=========================================

The subsets of the vector set that span a proper subspace form a
simplicial complex.  Its top reduced homology rank equals the
order-minimal tuple count, over any coefficient field, and the same
construction restricted to a flat recovers the absolute value of the
lattice Mobius function flat by flat.
"""

from flagbound.arrangement import FlatTable, build_lattice, generate_sign_vectors
from flagbound.flags import minimal_tuple_count
from flagbound.homology import homology_rank, mobius_via_homology

for n in (1, 2, 3):
    H = generate_sign_vectors(n)
    lam = minimal_tuple_count(H)
    ranks = {str(fld): homology_rank(H, n - 1, fld) for fld in (2, 3, "Q")}
    print(f"n={n}: minimal tuple count {lam}, ranks by field {ranks}")

H = generate_sign_vectors(2)
table = FlatTable(H)
lattice = build_lattice(H, table)
print("flat-by-flat comparison at n=2:")
for dim, fids in enumerate(table.fids_by_dim()[1:], start=1):
    for fid in fids:
        mu = lattice.mobius[fid]
        via_rank = mobius_via_homology(table, fid)
        print(f"  flat dim {dim} members {table.members(fid)}: "
              f"mu {mu}, homology rank {via_rank}")
