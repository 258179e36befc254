"""Census of threshold functions and the combined bounds report.

A function on the n-cube is a threshold function when some affine form is
nonnegative exactly on its true points.  Feasibility of that sign pattern
is decided exactly, so the census is an oracle completely independent of
the lattice and flag machinery it is reconciled against.  The census is an
exhaustive search over the truth-table prefix tree, pruned by that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator

from .arrangement import (
    FlatTable,
    chamber_count,
    ensure_table,
    generate_sign_vectors,
    schlafli_bound,
)
from .errors import GuardError
from .flags import WeightVector, flag_weighted_sum, minimal_tuple_count

__all__ = [
    "BooleanFunction",
    "BoundsReport",
    "is_threshold",
    "count_threshold_functions",
    "bounds_report",
]

SINGLE_CALL_MAX_N = 10
CENSUS_MAX_N = 4
REPORT_MAX_N = 5


@dataclass(frozen=True)
class BooleanFunction:
    """Truth table over the canonical sign-vector input order; truth[k] is
    1 where the function is true on input k and 0 where it is false."""

    n: int
    truth: tuple[int, ...]

    def __post_init__(self):
        if len(self.truth) != 1 << self.n:
            raise ValueError(
                f"truth table has {len(self.truth)} entries, expected {1 << self.n}"
            )
        if any(b not in (0, 1) for b in self.truth):
            raise ValueError("truth entries must be 0 or 1")

    @classmethod
    def from_int(cls, n: int, code: int) -> "BooleanFunction":
        """Truth table from the bits of code; bit k gives input k."""
        size = 1 << n
        if not 0 <= code < 1 << size:
            raise ValueError(f"code {code} out of range for n={n}")
        return cls(n, tuple((code >> k) & 1 for k in range(size)))

    def negated(self) -> "BooleanFunction":
        return BooleanFunction(self.n, tuple(1 - b for b in self.truth))


def _normalized(a: tuple[int, ...], b: int) -> tuple[tuple[int, ...], int]:
    g = gcd(*a, b)
    if g > 1:
        a = tuple(x // g for x in a)
        b = b // g
    return a, b


def _feasible(rows: Iterable[tuple[tuple[int, ...], int]], nvars: int) -> bool:
    """Exact satisfiability of {sum a_j x_j >= b} over the rationals by
    variable elimination; positive cross-multipliers keep every step an
    equivalence, so the answer is exact."""
    system: dict[tuple[int, ...], int] = {}
    for a, b in rows:
        a, b = _normalized(a, b)
        if not any(a):
            if b > 0:
                return False
            continue
        prev = system.get(a)
        if prev is None or b > prev:
            system[a] = b
    while system:
        counts = [[0, 0] for _ in range(nvars)]
        for a in system:
            for j, x in enumerate(a):
                if x > 0:
                    counts[j][0] += 1
                elif x < 0:
                    counts[j][1] += 1
        active = [j for j in range(nvars) if counts[j][0] or counts[j][1]]
        if not active:
            return True
        j = min(active, key=lambda k: counts[k][0] * counts[k][1])
        pos = []
        neg = []
        keep: dict[tuple[int, ...], int] = {}
        for a, b in system.items():
            if a[j] > 0:
                pos.append((a, b))
            elif a[j] < 0:
                neg.append((a, b))
            else:
                keep[a] = b
        for ap, bp in pos:
            for an, bn in neg:
                mp = -an[j]
                mn = ap[j]
                a = tuple(mp * x + mn * y for x, y in zip(ap, an))
                b = mp * bp + mn * bn
                a, b = _normalized(a, b)
                if not any(a):
                    if b > 0:
                        return False
                    continue
                prev = keep.get(a)
                if prev is None or b > prev:
                    keep[a] = b
        system = keep
    return True


@lru_cache(maxsize=None)
def _input_vectors(n: int) -> tuple[tuple[int, ...], ...]:
    return generate_sign_vectors(n).vectors


def _margin_row(v: tuple[int, ...], bit: int) -> tuple[tuple[int, ...], int]:
    """The row input v adds to the margin system: >= 0 where the function
    is true, <= -1 (as -v >= 1) where it is false."""
    return (v, 0) if bit else (tuple(-x for x in v), 1)


def is_threshold(f: BooleanFunction) -> bool:
    """Whether some affine form is >= 0 exactly on the function's true
    inputs.

    The strict system (>= 0 on true points, < 0 on false ones) is decided
    through the margin form (>= 0 and <= -1): any strictly feasible form
    scales into the margin form, so the two agree exactly.
    """
    if f.n > SINGLE_CALL_MAX_N:
        raise GuardError("is_threshold.n", f"n <= {SINGLE_CALL_MAX_N}", f.n)
    rows = [_margin_row(v, bit) for v, bit in zip(_input_vectors(f.n), f.truth)]
    return _feasible(rows, f.n + 1)


def _threshold_codes(n: int) -> Iterator[int]:
    """Every threshold truth-table code (bit k = input k, as in
    `BooleanFunction.from_int`), depth first over the prefix tree of the
    inputs in `_input_vectors` order.  A child prefix is entered only when
    its rows are feasible; every extension of an infeasible system is
    infeasible, so the pruning is exact."""
    vectors = _input_vectors(n)

    def walk(rows: list, code: int) -> Iterator[int]:
        k = len(rows)
        if k == len(vectors):
            yield code
            return
        for bit in (0, 1):
            child = rows + [_margin_row(vectors[k], bit)]
            if _feasible(child, n + 1):
                yield from walk(child, code | bit << k)

    return walk([], 0)


def count_threshold_functions(n: int) -> int:
    """Count of threshold functions of n variables, by the pruned search
    over all 2^(2^n) truth tables."""
    if not 1 <= n <= CENSUS_MAX_N:
        raise GuardError("count_threshold_functions.n", f"1 <= n <= {CENSUS_MAX_N}", n)
    return sum(1 for _ in _threshold_codes(n))


@dataclass(frozen=True)
class BoundsReport:
    """Lower and upper bounds around the chamber count, with the census
    when within reach."""

    n: int
    lower_bound: Fraction
    two_lambda: int
    chambers: int
    brute_force: int | None
    schlafli: int


def bounds_report(
    n: int,
    p: WeightVector | None = None,
    table: FlatTable | None = None,
) -> BoundsReport:
    """Assemble the bound chain 2 * flag sum = 2 * minimal tuples
    <= chambers <= cell bound, raising if any link fails.  p None means
    uniform weights."""
    if not 1 <= n <= REPORT_MAX_N:
        raise GuardError("bounds_report.n", f"1 <= n <= {REPORT_MAX_N}", n)
    H = generate_sign_vectors(n)
    table = ensure_table(H, table)
    if p is None:
        p = WeightVector.uniform(len(H))
    lower = 2 * flag_weighted_sum(H, p, table)
    two_lambda = 2 * minimal_tuple_count(H, table=table)
    chambers = chamber_count(H, table)
    brute = count_threshold_functions(n) if n <= CENSUS_MAX_N else None
    upper = schlafli_bound(n)
    if lower != two_lambda:
        raise RuntimeError(f"flag sum bound {lower} != tuple bound {two_lambda}")
    if not two_lambda <= chambers <= upper:
        raise RuntimeError(
            f"bound chain violated: {two_lambda} <= {chambers} <= {upper}"
        )
    if brute is not None and brute != chambers:
        raise RuntimeError(f"census {brute} != chamber count {chambers}")
    return BoundsReport(
        n=n,
        lower_bound=lower,
        two_lambda=two_lambda,
        chambers=chambers,
        brute_force=brute,
        schlafli=upper,
    )
