"""Census of threshold functions and the combined bounds report.

A function on the n-cube is a threshold function when some affine form is
nonnegative exactly on its true points.  Feasibility of that sign pattern
is decided exactly, so the census is an oracle completely independent of
the lattice and flag machinery it is reconciled against.  The census is an
exhaustive search over the truth-table prefix tree, pruned by that test;
it walks the sign vectors of any vector set, so on other sets it counts
their chambers.  Only the half with the first input true is walked, as
negation maps it onto the other.  Most children are decided without a
solve, by an integer witness that the prefix carries or by the infeasible
core of an earlier solve; the rest are solved on the new row's hyperplane,
one variable down, and a feasible solve returns the child's witness: 1,115
solves for the 5,515 children at n = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator

from .arrangement import (
    FlatTable,
    VectorSet,
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
    "check_report_n",
]

SINGLE_CALL_MAX_N = 10
CENSUS_MAX_N = 4
REPORT_MAX_N = 5
# Guard on the Fourier-Motzkin pairs of one `_feasible` call, charged as
# sum |pos| * |neg| before each elimination forms its pairs.  FM formed about
# 300,000 pairs a second (2 CPUs), so a call stops within about 3.5 s.  The
# largest solve charges 23 in the n = 4 census, 269 in the n = 5 census and
# 3,010 for the 5-variable majority function; the 6-variable one is charged
# 7,774,511 by one elimination and stops here after 0.5 s.
MAX_FM_PAIRS = 10**6


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


def _feasible(
    rows: Iterable[tuple[tuple[int, ...], int]], nvars: int
) -> tuple[int, tuple[tuple[int, ...], int] | None]:
    """Exact satisfiability of {sum a_j x_j >= b} over the rationals by
    variable elimination; positive cross-multipliers keep every step an
    equivalence, so the answer is exact.

    Returns (0, (x, scale)) when the system is feasible: integers with
    scale > 0 and a.x >= b * scale on every row, so x / scale solves it.
    Otherwise returns (core, None): the bitmask of the row positions whose
    nonnegative combination is the contradiction 0 >= b > 0 found, so those
    rows alone are infeasible.  Raises GuardError past MAX_FM_PAIRS.
    """
    system: dict[tuple[int, ...], int] = {}
    cores: dict[tuple[int, ...], int] = {}
    for i, (a, b) in enumerate(rows):
        a, b = _normalized(a, b)
        if not any(a):
            if b > 0:
                return 1 << i, None
            continue
        prev = system.get(a)
        if prev is None or b > prev:
            system[a] = b
            cores[a] = 1 << i
    pairs = 0
    steps = []
    while system:
        counts = [[0, 0] for _ in range(nvars)]
        for a in system:
            for j, x in enumerate(a):
                if x > 0:
                    counts[j][0] += 1
                elif x < 0:
                    counts[j][1] += 1
        active = [j for j in range(nvars) if counts[j][0] or counts[j][1]]
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
        steps.append((j, pos or neg))
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
                        return cp | cores[an], None
                    continue
                prev = keep.get(a)
                if prev is None or b > prev:
                    keep[a] = b
                    cores[a] = cp | cores[an]
        system = keep
    # Back-substitution (Schrijver 1986, section 12.2), last elimination
    # first: x_j takes its tightest lower bound, or its tightest upper one
    # when it has none.  Each lower and upper bound on x_j gave a derived
    # row that the later variables meet, so no lower bound exceeds an upper
    # one.  Row a bounds x_j by t / a_j, t = b * scale - a.x (x_j still 0),
    # the tightest has the largest t / |a_j|, and the point is scaled by that
    # |a_j| to stay integer.
    x = [0] * nvars
    scale = 1
    for j, bounds in reversed(steps):
        t = m = None
        for a, b in bounds:
            ta = b * scale - sum(c * z for c, z in zip(a, x))
            if m is None or ta * m > t * abs(a[j]):
                t, m, aj = ta, abs(a[j]), a[j]
        x = [m * z for z in x]
        x[j] = t if aj > 0 else -t
        scale *= m
    return 0, (tuple(x), scale)


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
    return not _feasible(rows, f.n + 1)[0]


def _child_solve(
    rows: list[tuple[tuple[int, ...], int]], u: tuple[int, ...]
) -> tuple[int, tuple[int, ...] | None]:
    """(core, None) when rows + [(u, 1)] are infeasible, else (0, y), y an
    integer point meeting them all, decided on the hyperplane u.x = 1 as
    `_threshold_codes`'s kernel rule says.  x_c = (1 - sum_{j!=c} u_j x_j) /
    u_c, c the first nonzero coordinate of u, with each row scaled by |u_c|
    keeps the rows integer; a solution is lifted back, scaled by |u_c|."""
    c = next(j for j, z in enumerate(u) if z)
    m = abs(u[c])
    s = 1 if u[c] > 0 else -1
    rest = u[:c] + u[c + 1:]
    restricted = []
    for a, b in rows:
        k = s * a[c]
        a = a[:c] + a[c + 1:]
        restricted.append((tuple(m * x - k * w for x, w in zip(a, rest)), m * b - k))
    core, point = _feasible(restricted, len(rest))
    if core:
        return core | 1 << len(rows), None
    x, scale = point
    xc = s * (scale - sum(w * z for w, z in zip(rest, x)))
    return 0, tuple(m * z for z in x[:c]) + (xc,) + tuple(m * z for z in x[c:])


def _threshold_codes(H: VectorSet) -> Iterator[int]:
    """The sign vector of every chamber of H's arrangement, as a code with
    bit k set where w_k.x > 0, depth first over the prefix tree of H's
    vectors in order.  On E_n these are the threshold truth-table codes (bit
    k = input k, as in `BooleanFunction.from_int`), as a threshold function
    has a form that is nonzero on every input.

    A prefix's rows are (u, 1) for its vectors, u = w_k where bit k is set
    and -w_k where it is clear: homogeneous, so any solution meets them
    strictly.  A child prefix is entered only when its rows are feasible;
    every extension of an infeasible system is infeasible, so the pruning
    is exact.  Only the half of the tree with bit 0 set is walked, and each
    leaf yields its code and the complement: -x lies in the opposite chamber.

    Each prefix carries an integer witness y with u.y > 0 on each of its
    rows, so a multiple of y meets them.  A child with new row (u, 1) is
    decided by the first of three rules, each resting on a proof:
    - witness: when u.y > 0, y is the child's witness;
    - core: when the child agrees with an earlier infeasible child of the
      same depth on that child's core rows, those rows alone are infeasible;
    - kernel: otherwise u.y <= 0 < 1, and `_child_solve` decides the child
      on the hyperplane u.x = 1: a segment from that multiple of y to any
      child solution stays in the parent's polyhedron and crosses it, so
      the child is feasible exactly when the parent's rows meet it there.
      The multiple meets every subset of the parent's rows, so the same
      segment makes a core found there, plus the child's own row, a core of
      the child; it is stored.  A feasible child's solution is its witness.
    """
    vectors = H.vectors
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
        w = vectors[k]
        wy = sum(x * z for x, z in zip(w, y))
        for bit in (0, 1):
            child = code | bit << k
            u = w if bit else tuple(-x for x in w)
            if (wy > 0) if bit else (wy < 0):
                yield from walk(rows + [(u, 1)], child, y)
            elif not any((child ^ c) & core == 0 for core, c in cores[k]):
                core, z = _child_solve(rows, u)
                if core:
                    cores[k].append((core, child & core))
                else:
                    yield from walk(rows + [(u, 1)], child, z)

    # w_0.w_0 > 0, so w_0 witnesses the root's true child without a solve
    return walk([(vectors[0], 1)], 1, vectors[0])


def count_threshold_functions(n: int) -> int:
    """Count of threshold functions of n variables, by the pruned search
    over all 2^(2^n) truth tables."""
    if not 1 <= n <= CENSUS_MAX_N:
        raise GuardError("count_threshold_functions.n", f"1 <= n <= {CENSUS_MAX_N}", n)
    return sum(1 for _ in _threshold_codes(generate_sign_vectors(n)))


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


def check_report_n(n: int) -> None:
    """Raise bounds_report's guard on n, which callers can check first."""
    if not 1 <= n <= REPORT_MAX_N:
        raise GuardError("bounds_report.n", f"1 <= n <= {REPORT_MAX_N}", n)


def bounds_report(
    n: int,
    p: WeightVector | None = None,
    table: FlatTable | None = None,
) -> BoundsReport:
    """Assemble the bound chain 2 * flag sum = 2 * minimal tuples
    <= chambers <= cell bound, raising if any link fails.  p None means
    uniform weights."""
    check_report_n(n)
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
