"""Census of threshold functions and the combined bounds report.

A function on the n-cube is a threshold function when some affine form is
nonnegative exactly on its true points.  Feasibility of that sign pattern
is decided exactly, so the census is an oracle completely independent of
the lattice and flag machinery it is reconciled against.  The census is an
exhaustive search over the truth-table prefix tree, pruned by that test.
Only the half with the first input true is walked, as negation maps it onto
the other.  Most children are decided without a solve, by an integer
witness that the prefix carries or by the infeasible core of an earlier
solve; the rest are solved on the new row's hyperplane, one variable down:
1,115 solves for the 5,515 children at n = 4.
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
# Guard on the Fourier-Motzkin pairs of one `_feasible` call, charged as
# sum |pos| * |neg| before each elimination forms its pairs.  FM formed about
# 300,000 pairs a second (2 CPUs), so a call stops within about 3.5 s.  The
# largest solve charges 23 in the n = 4 census, 448 in the n = 5 census and
# 3,010 for the 5-variable majority function; the 6-variable one is charged
# 7,774,511 by one elimination and stops here after 0.5 s.
MAX_FM_PAIRS = 10**6
# Cap on `_separate`'s passes over its rows, the last pass moving nothing.
# The most any call makes is 10 in the n = 4 census (22 in the n = 5 walk),
# so 100 is ten times the largest census count; past it the rows were not
# strictly feasible and the loop would never end.
MAX_SEPARATE_ROUNDS = 100


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


def _feasible(rows: Iterable[tuple[tuple[int, ...], int]], nvars: int) -> int:
    """Exact satisfiability of {sum a_j x_j >= b} over the rationals by
    variable elimination; positive cross-multipliers keep every step an
    equivalence, so the answer is exact.

    Returns 0 when the system is feasible.  Otherwise returns the core: the
    bitmask of the row positions whose nonnegative combination is the
    contradiction 0 >= b > 0 found, so those rows alone are infeasible.
    Raises GuardError past MAX_FM_PAIRS.
    """
    system: dict[tuple[int, ...], int] = {}
    cores: dict[tuple[int, ...], int] = {}
    for i, (a, b) in enumerate(rows):
        a, b = _normalized(a, b)
        if not any(a):
            if b > 0:
                return 1 << i
            continue
        prev = system.get(a)
        if prev is None or b > prev:
            system[a] = b
            cores[a] = 1 << i
    pairs = 0
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
            return 0
        j = min(active, key=lambda k: counts[k][0] * counts[k][1])
        pairs += counts[j][0] * counts[j][1]
        if pairs > MAX_FM_PAIRS:
            raise GuardError("threshold.fm_pairs", f"<= {MAX_FM_PAIRS}", pairs)
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
        # cores[a] is the OR of the cores of the rows a was derived from; a
        # derived row is 0 in every eliminated column, so it never meets the
        # key of an eliminated row and `cores` needs no reset.
        for ap, bp in pos:
            cp = cores[ap]
            for an, bn in neg:
                mp = -an[j]
                mn = ap[j]
                a = tuple(mp * x + mn * y for x, y in zip(ap, an))
                b = mp * bp + mn * bn
                a, b = _normalized(a, b)
                if not any(a):
                    if b > 0:
                        return cp | cores[an]
                    continue
                prev = keep.get(a)
                if prev is None or b > prev:
                    keep[a] = b
                    cores[a] = cp | cores[an]
        system = keep
    return 0


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
    return not _feasible(rows, f.n + 1)


def _separate(
    rows: list[tuple[tuple[int, ...], int]], y: tuple[int, ...]
) -> tuple[int, ...]:
    """Perceptron steps from y (y += u on any row u with u.y <= 0) until
    u.y > 0 for every margin row (u, b).  Called only on feasible rows:
    after `_child_core` proves them so, or after a tie, where y meets them
    already.  Every input has first coordinate 1, so a margin solution plus
    half the first unit vector is a strict one, and Novikoff's bound makes
    the loop finite from any start.  Raises RuntimeError after
    MAX_SEPARATE_ROUNDS passes over the rows, as rows that are not strictly
    feasible mean a wrong feasibility answer, not a hard input."""
    for _ in range(MAX_SEPARATE_ROUNDS):
        moved = False
        for u, _ in rows:
            if sum(x * z for x, z in zip(u, y)) <= 0:
                y = tuple(x + z for x, z in zip(y, u))
                moved = True
        if not moved:
            return y
    raise RuntimeError(
        f"no strict separation of {len(rows)} rows after {MAX_SEPARATE_ROUNDS} rounds"
    )


def _child_core(
    rows: list[tuple[tuple[int, ...], int]], row: tuple[tuple[int, ...], int]
) -> int:
    """The core of rows + [row] (0 when feasible), decided on the hyperplane
    u.x = b of row (u, b), as `_threshold_codes`'s kernel rule says.  u_0 =
    +-1, as every input has first coordinate 1, so x_0 = u_0 (b - sum_{j>=1}
    u_j x_j) keeps the rows integer, one variable down."""
    u, b = row
    restricted = []
    for a, c in rows:
        m = a[0] * u[0]
        restricted.append((tuple(x - m * w for x, w in zip(a[1:], u[1:])), c - m * b))
    core = _feasible(restricted, len(u) - 1)
    return core | 1 << len(rows) if core else 0


def _threshold_codes(n: int) -> Iterator[int]:
    """Every threshold truth-table code (bit k = input k, as in
    `BooleanFunction.from_int`), depth first over the prefix tree of the
    inputs in `_input_vectors` order.  A child prefix is entered only when
    its rows are feasible; every extension of an infeasible system is
    infeasible, so the pruning is exact.

    Only the half of the tree with input 0 true is walked, and each leaf
    yields its code and the complement: -y strictly separates not-f
    whenever y strictly separates f.

    Each prefix carries an integer witness y with u.y > 0 for each of its
    margin rows (u, b), so y meets the rows themselves.  A child with new
    row (u, b) is decided by the first of four rules, each resting on a
    proof:
    - witness: when u.y > 0, y is the child's witness;
    - tie: when the child's input is true and u.y = 0, y meets the child's
      rows, and `_separate` moves it onto them strictly;
    - core: when the child agrees with an earlier infeasible child of the
      same depth on that child's core rows, those rows alone are infeasible;
    - kernel: otherwise u.y < b, and `_child_core` decides the child on
      the hyperplane u.x = b: a segment from y to any child solution stays
      in the parent's polyhedron and crosses it, so the child is feasible
      exactly when the parent's rows meet it.  y meets every subset of the
      parent's rows, so the same segment makes a core found there, plus the
      child's own row, a core of the child; it is stored.  `_separate`
      moves y onto a feasible child's rows.
    """
    vectors = _input_vectors(n)
    full = (1 << len(vectors)) - 1
    # per depth, (core, code & core) of each infeasible child found there;
    # a core holds its child's own row, as the parent is feasible, so a
    # deeper prefix can match it only below a prefix that matched first
    cores: list[list[tuple[int, int]]] = [[] for _ in vectors]

    def walk(rows: list, code: int, y: tuple[int, ...]) -> Iterator[int]:
        k = len(rows)
        if k == len(vectors):
            yield code
            yield full ^ code
            return
        vy = sum(x * z for x, z in zip(vectors[k], y))
        for bit in (0, 1):
            child = code | bit << k
            row = _margin_row(vectors[k], bit)
            child_rows = rows + [row]
            if (vy >= 0) if bit else (vy < 0):
                z = _separate(child_rows, y) if vy == 0 else y
                yield from walk(child_rows, child, z)
            elif not any((child ^ c) & core == 0 for core, c in cores[k]):
                core = _child_core(rows, row)
                if core:
                    cores[k].append((core, child & core))
                else:
                    yield from walk(child_rows, child, _separate(child_rows, y))

    # the first unit vector has v.y = 1 on every input, so it witnesses
    # input 0's true row: the root's true child needs no solve
    return walk([_margin_row(vectors[0], 1)], 1, (1,) + (0,) * n)


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
