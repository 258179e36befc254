"""Exact lower and upper bounds on the number of threshold functions.

The count of threshold functions equals the number of chambers of the
arrangement normal to the sign vectors (1, b_1, .., b_n), b_i = +-1.
Four independent routes to that number and its bounds live here: lattice
chamber counting, a deletion-restriction recursion, a weighted sum over
combinatorial flags whose doubled value is a lower bound, and a direct
census by exact separability tests.
"""

from .arrangement import (
    FlatTable,
    IntersectionLattice,
    VectorSet,
    build_lattice,
    chamber_count,
    chamber_count_dr,
    ensure_table,
    generate_sign_vectors,
    read_vector_set,
    schlafli_bound,
    write_vector_set,
)
from .errors import GuardError
from .exactlin import (
    SubspaceBasis,
    contains,
    rank,
    span,
)
from .flags import (
    FullFlag,
    IndexTuple,
    OrderPermutation,
    WeightVector,
    count_admissible_orders,
    enumerate_tuples,
    flag_lower_bound,
    flag_weighted_sum,
    flag_weighted_sum_by_enumeration,
    minimal_tuple_count,
    minimal_tuples,
    monte_carlo_expectation,
    read_weight_vector,
    write_weight_vector,
)
from .homology import (
    ComplexSlice,
    build_complex_slice,
    homology_rank,
    mobius_via_homology,
)
from .threshold import (
    BooleanFunction,
    BoundsReport,
    bounds_report,
    count_threshold_functions,
    is_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BooleanFunction",
    "BoundsReport",
    "ComplexSlice",
    "FlatTable",
    "FullFlag",
    "GuardError",
    "IndexTuple",
    "IntersectionLattice",
    "OrderPermutation",
    "SubspaceBasis",
    "VectorSet",
    "WeightVector",
    "bounds_report",
    "build_complex_slice",
    "build_lattice",
    "chamber_count",
    "chamber_count_dr",
    "contains",
    "count_admissible_orders",
    "count_threshold_functions",
    "ensure_table",
    "enumerate_tuples",
    "flag_lower_bound",
    "flag_weighted_sum",
    "flag_weighted_sum_by_enumeration",
    "generate_sign_vectors",
    "homology_rank",
    "is_threshold",
    "minimal_tuple_count",
    "minimal_tuples",
    "mobius_via_homology",
    "monte_carlo_expectation",
    "rank",
    "read_vector_set",
    "read_weight_vector",
    "schlafli_bound",
    "span",
    "write_vector_set",
    "write_weight_vector",
]
