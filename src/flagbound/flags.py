"""Ordered independent tuples, their nested-span flags, and the weighted
flag sum.

The central identity implemented here: over all ordered linearly
independent (d-1)-tuples of a spanning vector set, the sum of
(1 - weight of the top span's members) / (product of nested member
counts) does not depend on the weight vector, and equals the number of
tuples whose every suffix span has its order-minimal vector in the tuple
itself (minimal_tuple_count).  Twice that value is a lower bound on the
chamber count.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from .arrangement import FlatTable, VectorSet, ensure_table, generate_sign_vectors
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
    "minimal_tuples",
    "count_admissible_orders",
    "monte_carlo_expectation",
    "read_weight_vector",
    "write_weight_vector",
]

ADMISSIBLE_ORDERS_MAX_T = 8


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
    def random(cls, count: int, seed: int, max_denominator: int = 100) -> "WeightVector":
        """count - 1 entries uniform in [-2, 2] with bounded denominator;
        the last entry makes the total exactly 1."""
        rng = random.Random(seed)
        head = []
        for _ in range(count - 1):
            den = rng.randint(1, max_denominator)
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
    """Total order on vector indices, stored with its inverse.

    order[k] is the index ranked k; position[i] is the rank of index i.
    """

    order: tuple[int, ...]
    position: tuple[int, ...]

    def __post_init__(self):
        t = len(self.order)
        if len(self.position) != t or any(
            self.position[self.order[k]] != k for k in range(t)
        ):
            raise ValueError("position is not the inverse of order")

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "OrderPermutation":
        order = tuple(order)
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"{order} is not a permutation of 0..{len(order) - 1}")
        position = [0] * len(order)
        for k, i in enumerate(order):
            position[i] = k
        return cls(order, tuple(position))

    @classmethod
    def identity(cls, count: int) -> "OrderPermutation":
        idx = tuple(range(count))
        return cls(idx, idx)

    @classmethod
    def random(cls, count: int, seed: int) -> "OrderPermutation":
        order = list(range(count))
        random.Random(seed).shuffle(order)
        return cls.from_order(order)

    @property
    def first(self) -> int:
        return self.order[0]

    def minimum(self, indices: Iterable[int]) -> int:
        return min(indices, key=self.position.__getitem__)

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

    One chain walk over the cover diagram groups the ordered independent
    (d-1)-tuples by {top flat: {flag product: tuple count}}: a tuple
    corresponds to the chain of its suffix spans, a chain
    F_1 < .. < F_{d-1} is shared by exactly
    prod_l (count(F_l) - count(F_{l-1})) tuples, and every tuple on one
    chain has the same flag product prod_l count(F_l), where count is the
    number of vectors lying in a flat.  The pair does not depend on the
    weights, so it is kept on the table as `_flag_sums`.
    """
    cached = getattr(table, "_flag_sums", None)
    if cached is not None:
        return cached
    layer: dict[int, dict[int, int]] = {table.zero_fid: {1: 1}}
    for _ in range(table.vs.ambient_dim - 1):
        nxt: dict[int, dict[int, int]] = {}
        for fid, prods in layer.items():
            c_lo = table.counts[fid]
            for cid in table.covers(fid):
                c_hi = table.counts[cid]
                mult = c_hi - c_lo
                acc = nxt.setdefault(cid, {})
                for prod, cnt in prods.items():
                    key = prod * c_hi
                    acc[key] = acc.get(key, 0) + cnt * mult
        layer = nxt
    total = Fraction(0)
    per_index = [Fraction(0)] * len(table.vs)
    for top_fid, by_product in layer.items():
        share = sum(Fraction(cnt, prod) for prod, cnt in by_product.items())
        total += share
        for i in table.members(top_fid):
            per_index[i] += share
    table._flag_sums = (total, per_index)
    return total, per_index


def flag_weighted_sum(H: VectorSet, p, table: FlatTable | None = None) -> Fraction:
    """Sum over ordered independent tuples of
    (1 - weight of the top span's members) / flag product.

    Grouped evaluation: tuples sharing (top flat, flag product) are counted
    by one chain walk over the flat table, so the rational arithmetic touches
    each group once instead of each tuple.
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
    is unique), so the count is one forward pass over the flats in
    increasing dimension, each flat's path count pushed to the covers whose
    minimal member is the newly added vector.  Flat ids are not in
    dimension order once a lazy walk has built part of the table, hence
    the pass goes by fids_by_dim.
    """
    table = ensure_table(H, table)
    T = len(H)
    if order is None:
        order = OrderPermutation.identity(T)
    if len(order) != T:
        raise ValueError(f"order on {len(order)} indices, set has {T}")
    pos = order.position
    n = H.ambient_dim - 1
    by_dim = table.fids_by_dim()
    masks = table.masks
    minimal = [0] * len(masks)
    for fid in range(len(masks)):
        mem = table.members(fid)
        if mem:
            minimal[fid] = min(mem, key=pos.__getitem__)
    paths = [0] * len(masks)
    paths[table.zero_fid] = 1
    for fids in by_dim[:n]:
        for fid in fids:
            count = paths[fid]
            if count:
                fmask = masks[fid]
                for cid in table.covers(fid):
                    if not (fmask >> minimal[cid]) & 1:
                        paths[cid] += count
    first = order.first
    return sum(paths[fid] for fid in by_dim[n] if not (masks[fid] >> first) & 1)


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
    pos = order.position
    first = order.first
    out = set()
    for it, _ in enumerate_tuples(H, table):
        if _qualifies(table, it.indices, pos, first):
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
    table = ensure_table(H, table)
    table.close()
    T = len(H)
    rng = random.Random(seed)
    denom = math.lcm(*(w.denominator for w in p))
    cumulative = list(itertools.accumulate(int(w * denom) for w in p))
    total = 0
    total_sq = 0
    for _ in range(samples):
        i = bisect_right(cumulative, rng.randrange(denom))
        rest = [j for j in range(T) if j != i]
        rng.shuffle(rest)
        order = OrderPermutation.from_order([i, *rest])
        value = minimal_tuple_count(H, order, table)
        total += value
        total_sq += value * value
    mean = Fraction(total, samples)
    if samples > 1:
        variance = (Fraction(total_sq) - samples * mean * mean) / (samples - 1)
        stderr = math.sqrt(float(variance) / samples)
    else:
        stderr = 0.0
    return mean, stderr


def write_weight_vector(target: str | TextIO, p: WeightVector) -> None:
    """One exact rational per line, integers without the /1."""
    def _emit(fh: TextIO) -> None:
        for w in p:
            fh.write(f"{w}\n")

    if isinstance(target, str):
        with open(target, "w", encoding="ascii") as fh:
            _emit(fh)
    else:
        _emit(target)


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
