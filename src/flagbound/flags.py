"""Ordered independent tuples, their nested-span flags, and the weighted
flag sum.

The central identity implemented here: over all ordered linearly
independent (d-1)-tuples of a spanning vector set, the sum of
(1 - weight of the top span's members) / (product of nested member
counts) does not depend on the weight vector, and equals the number of
tuples whose every suffix span has its order-minimal vector in the tuple
itself (minimal_tuple_count).  Twice that value is a lower bound on the
chamber count.  Under the identity order it is |mu(0, top)| of the flat
table's Mobius values; minimal_tuple_counts takes many orders in one chain
walk, one lane of an integer per flat for each order.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from .arrangement import (
    FlatTable,
    VectorSet,
    build_lattice,
    chain_lane_width,
    ensure_table,
    generate_sign_vectors,
    packed_decreasing_chains,
)
from .errors import GuardError

__all__ = [
    "IndexTuple",
    "FullFlag",
    "WeightVector",
    "OrderPermutation",
    "enumerate_tuples",
    "flag_weighted_sum",
    "flag_weighted_sum_by_enumeration",
    "flag_lower_bound",
    "minimal_tuple_count",
    "minimal_tuple_counts",
    "order_passes",
    "minimal_tuples",
    "count_admissible_orders",
    "monte_carlo_expectation",
    "read_weight_vector",
]

ADMISSIBLE_ORDERS_MAX_T = 8
RANDOM_WEIGHT_MAX_DENOMINATOR = 100
# Lane bits of one pass of minimal_tuple_counts.  Per order, an E_5 pass
# took 3.3 ms at 512 bits (15 orders), 1.3 ms at 2,048 (62), 1.1 ms at
# 4,096 (124) and 1.1 ms at 8,192 (248), process time on 2 CPUs; a pass
# holds two ints of that many bits per flat, so past 2,048 bits memory
# grows for little gain.
PACKED_WALK_BITS = 2048
# Lane bits priced as one walk of the table's cover edges by order_passes,
# which rounds each pass's lanes up to whole walks.
ORDER_WALK_BITS = 256


@dataclass(frozen=True)
class IndexTuple:
    """Ordered tuple of distinct vector indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError(f"repeated index in {self.indices}")
        if self.indices and min(self.indices) < 0:
            raise ValueError(f"negative index in {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


@dataclass(frozen=True)
class FullFlag:
    """Member counts of an ordered tuple's nested suffix spans.

    counts holds the number of set vectors inside each suffix span,
    outermost span first; product is their product; top_members lists the
    vectors lying in the outermost (full-tuple) span.
    """

    counts: tuple[int, ...]
    product: int
    top_members: tuple[int, ...]


@dataclass(frozen=True)
class WeightVector:
    """Exact rational weights summing to 1; entries may be negative."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.weights) != 1:
            raise ValueError(f"weights sum to {sum(self.weights)}, expected 1")

    @classmethod
    def from_items(cls, items: Iterable) -> "WeightVector":
        return cls(tuple(Fraction(x) for x in items))

    @classmethod
    def uniform(cls, count: int) -> "WeightVector":
        return cls((Fraction(1, count),) * count)

    @classmethod
    def random(cls, count: int, seed: int) -> "WeightVector":
        """count - 1 entries uniform in [-2, 2] with bounded denominator;
        the last entry makes the total exactly 1."""
        rng = random.Random(seed)
        head = []
        for _ in range(count - 1):
            den = rng.randint(1, RANDOM_WEIGHT_MAX_DENOMINATOR)
            head.append(Fraction(rng.randint(-2 * den, 2 * den), den))
        return cls(tuple(head) + (1 - sum(head, Fraction(0)),))

    @property
    def nonnegative(self) -> bool:
        return all(w >= 0 for w in self.weights)

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Fraction:
        return self.weights[i]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.weights)


def _as_weights(p, count: int) -> WeightVector:
    if not isinstance(p, WeightVector):
        p = WeightVector.from_items(p)
    if len(p) != count:
        raise ValueError(f"expected {count} weights, got {len(p)}")
    return p


@dataclass(frozen=True)
class OrderPermutation:
    """Total order on vector indices: order[k] is the index ranked k."""

    order: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError(f"{self.order} is not a permutation of 0..{len(self.order) - 1}")

    @classmethod
    def identity(cls, count: int) -> "OrderPermutation":
        return cls(tuple(range(count)))

    @classmethod
    def random(cls, count: int, seed: int) -> "OrderPermutation":
        order = list(range(count))
        random.Random(seed).shuffle(order)
        return cls(tuple(order))

    def __len__(self) -> int:
        return len(self.order)


def enumerate_tuples(
    H: VectorSet, table: FlatTable | None = None
) -> Iterator[tuple[IndexTuple, FullFlag]]:
    """Yield every ordered linearly independent (d-1)-tuple with its flag.

    Depth-first from the innermost suffix outward: the last tuple entry is
    chosen first, so flats of shared suffixes are computed once via the
    interning table.  A candidate already inside the current span cannot
    grow the rank and is skipped.
    """
    table = ensure_table(H, table)
    n = H.ambient_dim - 1
    T = len(H)
    chosen: list[int] = []
    counts: list[int] = []

    def walk(fid: int, product: int) -> Iterator[tuple[IndexTuple, FullFlag]]:
        if len(chosen) == n:
            yield (
                IndexTuple(tuple(reversed(chosen))),
                FullFlag(tuple(reversed(counts)), product, table.members(fid)),
            )
            return
        mask = table.masks[fid]
        for i in range(T):
            if (mask >> i) & 1:
                continue
            cid = table.extend(fid, i)
            c = table.counts[cid]
            chosen.append(i)
            counts.append(c)
            yield from walk(cid, product * c)
            chosen.pop()
            counts.pop()

    yield from walk(table.zero_fid, 1)


def _flag_sum_coefficients(table: FlatTable) -> tuple[Fraction, list[Fraction]]:
    """(total, per_index): the weighted flag sum equals
    total - sum_i p_i * per_index[i] for any weight vector p.

    A tuple corresponds to the chain of its suffix spans: a chain
    F_1 < .. < F_{d-1} is shared by prod_l (c(F_l) - c(F_{l-1})) tuples, each
    with flag product prod_l c(F_l), c(F) the number of vectors in F.  So a
    coatom's share, the sum over its chains of prod_l (c(F_l) - c(F_{l-1}))
    / c(F_l), comes from one forward pass over the flats in id order, each
    share an integer scaled by L^dim(F), L the lcm of the member counts.
    The pair does not depend on the weights, so it is kept on the table as
    `_flag_sums`.
    """
    if table._flag_sums is not None:
        return table._flag_sums
    table.close()
    counts = table.counts
    n = table.vs.ambient_dim - 1
    lcm = math.lcm(*counts[1:])  # flat 0 has no members
    share = [0] * len(counts)
    share[table.zero_fid] = 1
    total = 0
    per_index = [0] * len(table.vs)
    for fid, dim in enumerate(table.dims):
        if dim < n:
            for cid in table.covers(fid):
                share[cid] += share[fid] * (counts[cid] - counts[fid]) * (lcm // counts[cid])
        elif dim == n:
            total += share[fid]
            for i in table.members(fid):
                per_index[i] += share[fid]
    scale = lcm**n
    table._flag_sums = (Fraction(total, scale), [Fraction(x, scale) for x in per_index])
    return table._flag_sums


def flag_weighted_sum(H: VectorSet, p, table: FlatTable | None = None) -> Fraction:
    """Sum over ordered independent tuples of
    (1 - weight of the top span's members) / flag product.

    Evaluated from the coatoms' shares (_flag_sum_coefficients), so the
    rational arithmetic touches each vector once instead of each tuple.
    """
    p = _as_weights(p, len(H))
    table = ensure_table(H, table)
    total, per_index = _flag_sum_coefficients(table)
    acc = total
    for i, w in enumerate(p):
        if w:
            acc -= w * per_index[i]
    return acc


def flag_weighted_sum_by_enumeration(
    H: VectorSet, p, table: FlatTable | None = None
) -> Fraction:
    """Reference path: the same sum taken tuple by tuple, no grouping."""
    p = _as_weights(p, len(H))
    table = ensure_table(H, table)
    acc = Fraction(0)
    for _, flag in enumerate_tuples(H, table):
        top_weight = sum((p[j] for j in flag.top_members), Fraction(0))
        acc += (1 - top_weight) / flag.product
    return acc


def flag_lower_bound(n: int, p, table: FlatTable | None = None) -> Fraction:
    """Twice the weighted flag sum of the sign-vector set: a lower bound on
    the number of threshold functions of n variables.  A given table must
    be built for that set."""
    return 2 * flag_weighted_sum(generate_sign_vectors(n), p, table)


def minimal_tuple_count(
    H: VectorSet,
    order: OrderPermutation | None = None,
    table: FlatTable | None = None,
) -> int:
    """Number of ordered independent tuples in which every suffix span's
    order-minimal member sits at the tuple position that created it, and
    whose full span avoids the order-first vector of the whole set.

    Each qualifying tuple is reconstructed from its chain of suffix spans:
    per chain at most one tuple qualifies (the minimal member at each step
    is unique), and one does exactly when every step adds the minimal
    member of the span it reaches.  So the count is the number of
    decreasing chains into the top flat, the last flat by id: their last
    step adds the order-first vector, so the coatom it leaves misses that
    vector.  arrangement.packed_decreasing_chains counts those chains and
    says why they number |mu(0, top)| in every order.  Under the identity
    order they are read from the Mobius values that build_lattice computes
    once per table; any other order is one minimal_tuple_counts lane.
    """
    table = ensure_table(H, table)
    if order is None or order == OrderPermutation.identity(len(H)):
        return abs(build_lattice(H, table).mobius[-1])
    return minimal_tuple_counts(H, [order], table)[0]


def order_passes(H: VectorSet, count: int = 0) -> tuple[int, int, int]:
    """How minimal_tuple_counts walks `count` orders of H: (width, lanes,
    walks), the bits of one order's lane (chain_lane_width), the orders in
    a pass (PACKED_WALK_BITS // width, at least one) and the walks the
    passes cost, one per ORDER_WALK_BITS of each pass's lanes, rounded up."""
    width = chain_lane_width(H)
    lanes = max(1, PACKED_WALK_BITS // width)
    full, rest = divmod(count, lanes)
    walks = full * -(-lanes * width // ORDER_WALK_BITS) - (-rest * width // ORDER_WALK_BITS)
    return width, lanes, walks


def minimal_tuple_counts(
    H: VectorSet,
    orders: Iterable[OrderPermutation],
    table: FlatTable | None = None,
) -> list[int]:
    """minimal_tuple_count under each of `orders`, in their order, from the
    top flat's lanes of arrangement.packed_decreasing_chains.  The orders
    are drawn lazily, one pass of order_passes(H)'s lanes at a time."""
    table = ensure_table(H, table)
    T = len(H)
    width, lanes, _ = order_passes(H)
    ones = (1 << width) - 1
    orders = iter(orders)
    out: list[int] = []
    while batch := list(itertools.islice(orders, lanes)):
        for order in batch:
            if len(order) != T:
                raise ValueError(f"order on {len(order)} indices, set has {T}")
        top = packed_decreasing_chains(table, [o.order for o in batch])[-1]
        out.extend(top >> (k * width) & ones for k in range(len(batch)))
    return out


def _qualifies(
    table: FlatTable, indices: tuple[int, ...], pos: Sequence[int], first: int
) -> bool:
    """Order-minimality of a tuple: ranks strictly increase along it, each
    suffix span's minimal member is the entry that extended it, and the
    order-first vector stays outside the full span."""
    if any(pos[a] >= pos[b] for a, b in zip(indices, indices[1:])):
        return False
    fid = table.zero_fid
    n = len(indices)
    for l in range(1, n + 1):
        entry = indices[n - l]
        fid = table.extend(fid, entry)
        if min(table.members(fid), key=pos.__getitem__) != entry:
            return False
    return not (table.masks[fid] >> first) & 1


def minimal_tuples(
    H: VectorSet,
    order: OrderPermutation | None = None,
    table: FlatTable | None = None,
) -> set[IndexTuple]:
    """The qualifying tuples themselves, by filtering the full enumeration
    through the explicit per-suffix minimality checks."""
    table = ensure_table(H, table)
    if order is None:
        order = OrderPermutation.identity(len(H))
    if len(order) != len(H):
        raise ValueError(f"order on {len(order)} indices, set has {len(H)}")
    pos = [0] * len(H)
    for k, j in enumerate(order.order):
        pos[j] = k
    out = set()
    for it, _ in enumerate_tuples(H, table):
        if _qualifies(table, it.indices, pos, order.order[0]):
            out.add(it)
    return out


def count_admissible_orders(
    H: VectorSet, W, i: int, table: FlatTable | None = None
) -> int:
    """Exhaustively count the orders ranking index i first under which the
    fixed tuple W qualifies (as in minimal_tuples).

    The closed form (T-1)! / flag product is what the exhaustive count is
    checked against in tests; this routine never uses it.
    """
    T = len(H)
    if T > ADMISSIBLE_ORDERS_MAX_T:
        raise GuardError(
            "count_admissible_orders.T", f"T <= {ADMISSIBLE_ORDERS_MAX_T}", T
        )
    if not isinstance(W, IndexTuple):
        W = IndexTuple(tuple(W))
    table = ensure_table(H, table)
    n = H.ambient_dim - 1
    if len(W) != n:
        raise ValueError(f"expected a {n}-tuple, got {len(W)} indices")
    if not 0 <= i < T:
        raise ValueError(f"index {i} out of range")
    fid = table.zero_fid
    for j in W.indices:
        fid = table.extend(fid, j)
    if table.dims[fid] != n:
        raise ValueError(f"tuple {W.indices} is linearly dependent")
    if (table.masks[fid] >> i) & 1:
        raise ValueError(f"vector {i} lies in the tuple's span")
    rest = [j for j in range(T) if j != i]
    count = 0
    pos = [0] * T
    for perm in itertools.permutations(rest):
        for k, j in enumerate(perm):
            pos[j] = k + 1
        count += _qualifies(table, W.indices, pos, i)
    return count


def monte_carlo_expectation(
    H: VectorSet,
    p,
    samples: int,
    seed: int,
    table: FlatTable | None = None,
) -> tuple[Fraction, float]:
    """Sample orders whose first element is drawn from p (rest uniform) and
    average the qualifying-tuple count; returns (exact mean, stderr).

    The count is the same for every order, so the standard error is zero;
    the sampler exists to exercise that expectation argument, not to
    estimate anything noisy.
    """
    p = _as_weights(p, len(H))
    if not p.nonnegative:
        raise ValueError("sampling requires nonnegative weights")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    T = len(H)
    rng = random.Random(seed)
    denom = math.lcm(*(w.denominator for w in p))
    cumulative = list(itertools.accumulate(int(w * denom) for w in p))

    def draw() -> Iterator[OrderPermutation]:
        for _ in range(samples):
            i = bisect_right(cumulative, rng.randrange(denom))
            rest = [j for j in range(T) if j != i]
            rng.shuffle(rest)
            yield OrderPermutation((i, *rest))

    values = minimal_tuple_counts(H, draw(), table)
    total = sum(values)
    total_sq = sum(v * v for v in values)
    mean = Fraction(total, samples)
    if samples > 1:
        variance = (Fraction(total_sq) - samples * mean * mean) / (samples - 1)
        stderr = math.sqrt(float(variance) / samples)
    else:
        stderr = 0.0
    return mean, stderr


def read_weight_vector(source: str | TextIO) -> WeightVector:
    """Parse one rational `a/b` or integer per line; '#' lines are comments."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_weight_vector(fh)
    entries = []
    for ln in source:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            entries.append(Fraction(ln))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad weight line {ln!r}") from exc
    if not entries:
        raise ValueError("empty weight file")
    return WeightVector(tuple(entries))
