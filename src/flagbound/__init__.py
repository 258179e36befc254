"""Exact lower and upper bounds on the number of threshold functions.

The count of threshold functions equals the number of chambers of the
arrangement normal to the sign vectors (1, b_1, .., b_n), b_i = +-1.
Five independent routes to that number and its bounds live here: lattice
chamber counting, a deletion-restriction recursion, a weighted sum over
combinatorial flags whose doubled value is a lower bound, homology ranks
of the proper-span complex, and a direct census by exact separability
tests.

The package exports the quick-start names; everything else is imported
from its submodule (arrangement, exactlin, flags, homology, threshold).
"""

from .arrangement import VectorSet, chamber_count, chamber_count_dr, generate_sign_vectors
from .errors import GuardError
from .flags import WeightVector, flag_lower_bound, minimal_tuple_count
from .homology import homology_rank
from .threshold import bounds_report, count_threshold_functions

__version__ = "0.1.0"

__all__ = [
    "GuardError",
    "VectorSet",
    "WeightVector",
    "bounds_report",
    "chamber_count",
    "chamber_count_dr",
    "count_threshold_functions",
    "flag_lower_bound",
    "generate_sign_vectors",
    "homology_rank",
    "minimal_tuple_count",
]
