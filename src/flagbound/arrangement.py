"""Central hyperplane arrangements given by their normal vectors.

Provides the sign-pattern vector set E, the lattice of flats (spans of
subsets of the normals) with its Mobius function, the Zaslavsky chamber
count, and an independent deletion-restriction region counter used as an
oracle against it.  The Mobius values are decreasing-chain counts, and one
pass over the flats counts those chains for many orders of the vectors at
once, one lane of an integer per flat for each order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Sequence, TextIO

from .errors import GuardError
from .exactlin import Vector, primitive, rank

__all__ = [
    "VectorSet",
    "FlatTable",
    "charge_sign_vector_atoms",
    "ensure_table",
    "generate_sign_vectors",
    "chain_lane_width",
    "packed_decreasing_chains",
    "build_lattice",
    "chamber_count",
    "chamber_count_dr",
    "schlafli_bound",
    "read_vector_set",
    "write_vector_set",
]

SIGN_VECTORS_MAX_N = 20
SCHLAFLI_MAX_N = 62
# Guard on the flats of one table, checked as each flat is added.  Measured
# by tracemalloc after close(), a flat costs about 376 B at T = 32 (E_5) and
# 368 B at T = 64 (64 integer vectors in R^4).  A flat whose covers are not
# built yet also holds its images, and on the sign-vector sets that guard
# (MAX_PENDING_IMAGES) stops first.  A mask of T bits needs no charge here:
# a table gets past its atoms only if their T(T - 1)(d + 12) contraction
# steps fit under MAX_CONTRACTION_STEPS, so T < 3,800 and a mask < 480 B.
MAX_FLATS = 600_000
# Guard on the fraction-free contraction steps of one table: each new cover
# steps every other class of its parent, so T vectors in general position in
# R^2 cost T(T - 1) steps for only T + 2 flats.  A full step on images of
# width w takes up to about 0.14 µs * (w + 12) while the packed images are
# narrow: 0.9 µs at w = 3 and 0.8 µs at w = 98 with 5-bit digits (2 CPUs).
# Wide digits cost more: at w = 98 with the 848-bit digits of dense vectors
# in R^100 a step takes 36 µs, twice its charge.  A step whose vector is 0
# on the pivot takes about 0.2 µs, and one at w = 2 does no arithmetic
# (0.1 µs).  Every step is charged w + 12 all the same: the charge
# over-counts the cheaper forms on purpose, so that one unit serves every
# form and the limit does not depend on which form runs.  E_5 is charged
# 2,562,412, and 8,000 vectors (1, k) in R^2 stop here after 1.6-2.6 s at
# 24 MB, 600 vectors (1, k, k^2) in R^3 after 1.7 s at 52 MB, 150 vectors
# (1, k, k^2, k^3) in R^4 after 3.5-4.2 s at 186 MB, and 40 random vectors
# of R^6 with entries in +-10^6 after 12.5-13.8 s at 491 MB.
MAX_CONTRACTION_STEPS = 2 * 10**8
# Guard on what the flats whose covers are not built yet hold, checked as
# each flat is added: an image of a k-dimensional flat is charged its d - k
# entries, each one unit per 128 bits of digit (at least one), plus T // 64
# for its member bits, up to T bits.  The atoms' member bits take about
# T^2/16 bytes (4.5 B a unit for 16,384 vectors in R^3), so they are charged
# before they are built.  E_5 peaks at 114,018.  At the limit peak RSS runs
# from 19 MB to 0.3 GB (2 CPUs): the coordinates of R^100 or R^200 (3-bit
# digits) stop here after 0.14-0.22 s at 19-21 MB, 1,000 vectors
# (1, k, k^2) in R^3 after 0.9 s at 55-64 MB, `chambers --n 7` after 1.2 s
# at 112 MB, `--n 6` after 3.4-3.5 s at 223 MB, 100 random vectors of R^100
# with entries in +-3 (874-bit digits, 6 units an entry) after 2.7 s at
# 174 MB, and 24 random vectors of R^10 with entries in +-10^6 (340-bit
# digits, 2 units an entry) after 8.8 s at 293 MB.  E_15 to E_20 stop at
# their atoms, which charge_sign_vector_atoms charges from n alone:
# `chambers`, `lambda` and `homology --n 20` exit in about 0.1 s at 16 MB.
MAX_PENDING_IMAGES = 10**7
# Guard on the restriction steps of one deletion-restriction count, charged
# in MAX_CONTRACTION_STEPS's unit: m(m - 1)/2 steps at w + 12 per uncached
# set of m normals in R^w, before its loop, whichever form each step takes.
# DR ran 8-18 million units a second (2 CPUs): E_6 is charged 15,818,527
# (1.4-2.0 s); the coordinate vectors of R^100 stop here after 11-13 s at
# 89 MB, E_7 after 19-22 s at 143 MB.
MAX_DR_STEPS = 2 * 10**8


@dataclass(frozen=True)
class VectorSet:
    """An ordered set of arrangement normals w_0..w_{T-1} spanning R^d.

    Zero vectors and parallel pairs are rejected: coincident hyperplanes
    would double-count atoms of the lattice, and the flag enumeration
    indexes distinct vectors.
    """

    vectors: tuple[Vector, ...]
    ambient_dim: int

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("empty vector set")
        d = self.ambient_dim
        seen: dict[Vector, int] = {}
        for i, v in enumerate(self.vectors):
            if len(v) != d:
                raise ValueError(f"vector {i} has length {len(v)}, expected {d}")
            if not any(v):
                raise ValueError(f"vector {i} is zero")
            p = primitive(v)
            if p in seen:
                raise ValueError(f"vectors {seen[p]} and {i} are parallel")
            seen[p] = i
        if len(self.vectors) < d:
            raise ValueError(
                f"{len(self.vectors)} vectors cannot span R^{d}"
            )
        if rank(self.vectors) != d:
            raise ValueError(f"vectors do not span R^{self.ambient_dim}")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "VectorSet":
        vecs = tuple(tuple(int(x) for x in row) for row in rows)
        return cls(vecs, len(vecs[0]) if vecs else 0)

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> Vector:
        return self.vectors[i]

    def __iter__(self):
        return iter(self.vectors)


def generate_sign_vectors(n: int) -> VectorSet:
    """All 2^n vectors (1, b_1, .., b_n) with b_i = +-1, in canonical order.

    These are the normals whose arrangement's chambers are in bijection
    with the threshold functions of n variables.  Vector k has b_{j+1} = +1
    when bit j of k (most significant bit first) is 0, and -1 when it is 1;
    so k = 0 is the all-plus vector and k = 2^n - 1 the all-minus one.
    """
    if not 1 <= n <= SIGN_VECTORS_MAX_N:
        raise GuardError("generate_sign_vectors.n", f"1 <= n <= {SIGN_VECTORS_MAX_N}", n)
    vecs = tuple((1,) + b for b in itertools.product((1, -1), repeat=n))
    return VectorSet(vecs, n + 1)


def schlafli_bound(n: int) -> int:
    """Upper bound 2 * sum_{i<=n} C(2^n - 1, i) on the sign-vector
    arrangement's chamber count, counting cells cut from a sphere by
    general-position great circles."""
    if not 1 <= n <= SCHLAFLI_MAX_N:
        raise GuardError("schlafli_bound.n", f"1 <= n <= {SCHLAFLI_MAX_N}", n)
    m = (1 << n) - 1
    return 2 * sum(math.comb(m, i) for i in range(n + 1))


def _restrict(h: Vector, ys: Sequence[Vector]) -> set[Vector]:
    """The primitive images in R^w / span(h) of the vectors ys, none of them
    h or parallel to it: one fraction-free step on h's first nonzero
    coordinate c, then c dropped.  At w = 2 every image is a nonzero vector
    of R^1, whose one primitive vector is (1,), so no arithmetic is done.
    When y[c] = 0 the step gives h[c] * y, whose primitive form is y's, so y
    without entry c is made primitive directly."""
    if len(h) == 2:
        return {(1,)} if ys else set()
    c = next(k for k, x in enumerate(h) if x)
    a = h[c]
    out: set[Vector] = set()
    for y in ys:
        b = y[c]
        if b:
            z = [a * u - b * v for u, v in zip(y, h)]
            del z[c]
        else:
            z = y[:c] + y[c + 1:]
        out.add(primitive(z))
    return out


def _digit_bits(square: int) -> int:
    """Bits of one balanced signed digit of a packed image (FlatTable) that
    holds a * y - b * h for entries a, b, y, h of absolute value at most
    sqrt(square): 2 * square fits in B - 1 bits, so the digit stays within
    +-(2^(B - 1) - 1)."""
    return (2 * square).bit_length() + 1


def _pack(v: Vector, bits: int) -> int:
    """v as one int, entry k the balanced digit of weight 2^(bits (len(v) - 1 - k))."""
    z = 0
    for x in v:
        z = (z << bits) + x
    return z


def _content(z: int, bits: int) -> int:
    """The gcd of the balanced digits of a packed image, read from the
    lowest digit up until it is 1."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    g = 0
    while z and g != 1:
        x = z & mask
        z >>= bits
        if x >= half:  # a negative digit borrowed one from the next
            x -= mask + 1
            z += 1
        g = math.gcd(g, x)
    return g


def _restrict_packed(h: int, ys: dict[int, int], w: int, bits: int) -> dict[int, int]:
    """The table's restriction step for a flat whose quotient is R^w: each
    image in R^w / span(h) of the packed ys other than h (FlatTable, digits
    of `bits` bits) maps to the union of their member bits.  The pivot is
    h's leading digit, at bit h.bit_length() // bits * bits since h > 0,
    and the step leaves a zero there instead of dropping it, so the
    coordinates eliminated so far are zero digits and each image keeps the
    frame of R^d.  A y whose pivot digit is 0 is kept as it is; any other
    becomes a * y - b * h, made positive, and divided by its digit content
    unless its lowest nonzero digit is +-1.  At w = 2 every image is 1."""
    if w == 2:
        others = [b for y, b in ys.items() if y is not h]
        return {1: reduce(or_, others)} if others else {}
    shift = h.bit_length() // bits * bits
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    rnd = (1 << shift) >> 1  # rounds y >> shift to y's pivot digit
    off = rnd + (half << shift)  # and adds half to it, so the mask reads b + half
    a = (h + rnd) >> shift
    out: dict[int, int] = {}
    for y, ybits in ys.items():
        if y is h:
            continue
        b = ((y + off) >> shift & mask) - half
        if b:
            z = a * y - b * h
            if z < 0:
                z = -z
            unit = z & mask
            if not unit:
                low = (z & -z).bit_length() - 1
                unit = z >> (low - low % bits) & mask
            if unit != 1 and unit != mask:
                g = _content(z, bits)
                if g != 1:
                    z //= g
        else:
            z = y
        prev = out.get(z)  # an unmerged vector's bits are shared, not copied
        out[z] = ybits if prev is None else prev | ybits
    return out


def _pending_images(pending: int, count: int, dim: int, d: int, t: int, units: int = 1) -> int:
    """`pending` plus the charge of `count` images of a flat of dimension
    `dim` in a table of t vectors in R^d, whose entries are `units` each,
    or minus it if count < 0, as MAX_PENDING_IMAGES says; a GuardError past
    the limit."""
    pending += count * ((d - dim) * units + t // 64)
    if pending > MAX_PENDING_IMAGES:
        raise GuardError("arrangement.pending_images", f"<= {MAX_PENDING_IMAGES}", pending)
    return pending


def charge_sign_vector_atoms(n: int) -> None:
    """Raise what FlatTable(generate_sign_vectors(n)) raises on charging its
    atoms, from n alone, before the 2^n vectors are built.  An n out of
    range is left to generate_sign_vectors.  E_n's digits are under 128
    bits (86 at n = 20), so each entry is one unit."""
    if 1 <= n <= SIGN_VECTORS_MAX_N:
        t = 1 << n
        _pending_images(0, t, 0, n + 1, t)


class FlatTable:
    """Interning table for the flats (distinct spans of subsets) of a VectorSet.

    A flat is its member bitmask (bit i set iff w_i lies in it), stored under
    a small integer id; id 0 is the zero subspace.  Covers come from the
    contraction of the arrangement to the flat: the flats covering F are the
    spans of F and one class of its non-members, two non-members sharing a
    cover iff their images in R^d / F are parallel.  A flat keeps one
    primitive integer image per class until its covers are built, so no
    cover needs a membership or rank test.  The covers of a flat are built
    only after those of every flat with a smaller id, so flat ids ascend with
    dimension and a table numbers its flats the same way whichever walk built
    it.  rows[fid] is a basis of the flat, not a canonical one.  The table is
    a cache: it never affects results, only the cost of obtaining them.

    An image is one int: its d coordinates are balanced signed digits of B
    bits, the first coordinate the most significant (_pack), so the int is
    positive iff its first nonzero coordinate is, and two images are equal
    iff their vectors are.  A coordinate eliminated by a step stays as a
    zero digit (_restrict_packed).  No digit overflows: B is _digit_bits(M^2)
    for M = N^max(d - 2, 1), N the largest norm of a vector.  An image of a
    class of a k-dimensional flat F is proportional to the vector of
    (k + 1)-minors of (f_1, .., f_k, y) on F's pivot columns and one more,
    for members f_i spanning F and y in the class (Cramer's rule), so its
    primitive entries are at most their Hadamard bound, N^(k + 1).  The step
    does arithmetic only at w = d - k >= 3, where that is at most M, so a
    step's a * y - b * h, for entries a, b of the images h, y, is at most
    2 M^2.
    """

    def __init__(self, vs: VectorSet):
        self.vs = vs
        self._ids: dict[int, int] = {}
        self.rows: list[tuple[Vector, ...]] = []
        self.masks: list[int] = []
        self.counts: list[int] = []
        self.dims: list[int] = []
        # Covers of flats 0..len(_covers) - 1, the prefix built so far.
        self._covers: list[list[int]] = []
        # Image in R^d / F -> member bits, for each flat F whose covers are
        # not built yet; their entries are bounded by MAX_PENDING_IMAGES.
        self._classes: dict[int, dict[int, int]] = {}
        self.pending_images = 0
        # mu by flat id, set by the mobius property; a cached_property would
        # write __dict__, which slows the table's attribute loads (CPython 3.11).
        self._mobius: list[int] | None = None
        # The weight-free flag-sum pair, set by flags._flag_sum_coefficients.
        self._flag_sums: tuple | None = None
        # Fraction-free steps so far, charged as MAX_CONTRACTION_STEPS says.
        self.contraction_steps = 0
        # A VectorSet has no parallel pair, so each atom is its own class,
        # charged before it is built (MAX_PENDING_IMAGES).
        square = max(sum(x * x for x in w) for w in vs.vectors)
        self._digit_bits = _digit_bits(square ** max(vs.ambient_dim - 2, 1))
        self.zero_fid = self._add(0, (), {})
        self._charge_images(len(vs), 0)
        self._classes[self.zero_fid] = {
            _pack(primitive(w), self._digit_bits): 1 << i for i, w in enumerate(vs.vectors)
        }

    def _charge_images(self, count: int, dim: int) -> None:
        self.pending_images = _pending_images(
            self.pending_images, count, dim, self.vs.ambient_dim, len(self.vs),
            self._digit_bits // 128 or 1,
        )

    def _add(self, mask: int, rows: tuple[Vector, ...], classes: dict[int, int]) -> int:
        fid = len(self.masks)
        if fid >= MAX_FLATS:
            raise GuardError("arrangement.flats", f"<= {MAX_FLATS}", fid + 1)
        self._charge_images(len(classes), len(rows))
        self._ids[mask] = fid
        self.rows.append(rows)
        self.masks.append(mask)
        self.counts.append(mask.bit_count())
        self.dims.append(len(rows))
        self._classes[fid] = classes
        return fid

    def _contract(self, fid: int, image: int, bits: int, classes: dict[int, int]) -> int:
        """Add the cover of flat fid spanned with the class `bits`, whose image
        in R^d / F is `image`, holding the other classes restricted to it."""
        w = self.vs.ambient_dim - self.dims[fid]
        steps = self.contraction_steps + (len(classes) - 1) * (w + 12)
        if steps > MAX_CONTRACTION_STEPS:
            raise GuardError(
                "arrangement.contraction_steps", f"<= {MAX_CONTRACTION_STEPS}", steps
            )
        self.contraction_steps = steps
        i = (bits & -bits).bit_length() - 1
        rows = self.rows[fid] + (self.vs.vectors[i],)
        images = _restrict_packed(image, classes, w, self._digit_bits)
        return self._add(self.masks[fid] | bits, rows, images)

    def covers(self, fid: int) -> list[int]:
        """Ids of the flats one dimension up reachable by adjoining a vector."""
        built = self._covers
        while len(built) <= fid:
            f = len(built)
            classes = self._classes.pop(f)
            self._charge_images(-len(classes), self.dims[f])
            mask = self.masks[f]
            out = []
            for image, bits in classes.items():
                cid = self._ids.get(mask | bits)
                if cid is None:
                    cid = self._contract(f, image, bits, classes)
                out.append(cid)
            out.sort()
            built.append(out)
        return built[fid]

    def extend(self, fid: int, i: int) -> int:
        """Id of span(flat + w_i).  Dimension grows iff i is not a member."""
        bit = 1 << i
        if self.masks[fid] & bit:
            return fid
        return next(cid for cid in self.covers(fid) if self.masks[cid] & bit)

    def close(self) -> None:
        """Materialize every flat and the full cover (Hasse) diagram."""
        while self._classes:
            self.covers(len(self.masks) - 1)

    def fids_by_dim(self) -> list[list[int]]:
        self.close()
        out: list[list[int]] = [[] for _ in range(self.vs.ambient_dim + 1)]
        for fid, dim in enumerate(self.dims):
            out[dim].append(fid)
        return out

    def members(self, fid: int) -> tuple[int, ...]:
        mask = self.masks[fid]
        return tuple(i for i in range(len(self.vs.vectors)) if (mask >> i) & 1)

    @property
    def mobius(self) -> list[int]:
        """mu(0, F) by flat id, with mu(0) = 1 and, for t > 0,
        sum_{s <= t} mu(s) = 0, where s <= t is containment of member
        masks: (-1)^dim(F) times F's decreasing chains in index order,
        computed once per table."""
        if self._mobius is None:
            chains = packed_decreasing_chains(self, [range(len(self.vs))])
            self._mobius = [-c if dim & 1 else c for c, dim in zip(chains, self.dims)]
        return self._mobius

    def chamber_count(self) -> int:
        """Chambers via Zaslavsky: the sum of |mu(0, F)| over all flats."""
        return sum(abs(m) for m in self.mobius)


def ensure_table(H: VectorSet, table: FlatTable | None = None) -> FlatTable:
    """Reuse a caller-provided flat table after checking it matches H."""
    if table is None:
        return FlatTable(H)
    if table.vs is not H and table.vs != H:
        raise ValueError("flat table was built for a different vector set")
    return table


def chain_lane_width(H: VectorSet) -> int:
    """Bits of one order's lane in packed_decreasing_chains: the T rank bits
    of a flat or the T^d bound on a chain count, whichever is wider, and one
    more bit for the carry of the nonzero test."""
    T, d = len(H), H.ambient_dim
    return max(T, (T**d).bit_length()) + 1


def packed_decreasing_chains(table: FlatTable, orders: Sequence[Sequence[int]]) -> list[int]:
    """Per flat F, the chains 0 < .. < F of covers in which each step adds
    the least member, in an order, of the flat it reaches, counted for
    several orders in one forward pass over the flats in id order (which
    ascends with dimension): lane k of F's int, of width chain_lane_width
    bits from bit k * width, holds the count under orders[k], so with one
    order the int is the count.  The count is |mu(0, F)| in every order: by
    Weisner's theorem on F's least member a, mu(0, F) = -sum mu(0, G) over
    the lower covers G of F that miss a (Stanley, EC1 3.9; the decreasing
    chains of Bjorner's minimal labeling).

    Per flat, ranked[F] holds F's members relabelled by rank, bit r of lane
    k set when orders[k][r] is in F: the OR over F's members of a pattern
    per vector.  In each lane, (r - rep) & ~r keeps the ranks before F's
    least member (rep holds a 1 at the bottom of each lane, and every lane
    of a flat other than 0 is nonzero, so no borrow crosses a lane); flat 0
    has no member and takes every rank.  The step from F to its cover c
    adds c's least member, as a decreasing chain needs, when c holds a rank
    before F's least member: adding 2^T - 1 to each lane of
    ranked[c] & below carries into the lane's bit T exactly when the lane
    is nonzero, and (.. >> T) & rep moves those carries to the bottom of
    their lanes.  Those lanes of F's count pass to c.

    The lanes never overflow.  A chain of covers 0 < .. < F is fixed by a
    sequence of at most d vectors, one new member of each step, so no
    count exceeds T^d and each fits in (T^d).bit_length() bits; a rank
    lane plus 2^T - 1 is below 2^(T + 1).  A width of max(T, (T^d).bit_length()) + 1 holds both,
    the extra bit taking the carry of the nonzero test.  A flat whose count
    is 0 in every lane, or that holds the order-first vector of every
    order, passes nothing and is skipped."""
    table.close()
    T = len(table.vs)
    width = chain_lane_width(table.vs)
    rep = sum(1 << (k * width) for k in range(len(orders)))
    ranks = rep * ((1 << T) - 1)
    ones = (1 << width) - 1
    pattern = [0] * T
    for k, order in enumerate(orders):
        for r, i in enumerate(order):
            pattern[i] |= 1 << (k * width + r)
    ranked = []
    for mask in table.masks:
        r = 0
        while mask:
            low = mask & -mask
            r |= pattern[low.bit_length() - 1]
            mask ^= low
        ranked.append(r)
    chains = [0] * len(ranked)
    chains[table.zero_fid] = rep
    for r, count, covers in zip(ranked, chains, table._covers):
        below = (r - rep) & ~r if r else ranks
        if not (count and below):
            continue
        for cid in covers:
            live = ((ranked[cid] & below) + ranks) >> T & rep
            if live == rep:
                chains[cid] += count
            elif live:
                chains[cid] += count & live * ones
    return chains


def build_lattice(H: VectorSet, table: FlatTable | None = None) -> FlatTable:
    """The closed flat table of H with its Mobius values computed."""
    table = ensure_table(H, table)
    table.mobius
    return table


def chamber_count(H: VectorSet, table: FlatTable | None = None) -> int:
    """Number of chambers via Zaslavsky: sum of |mu(0,t)| over all flats."""
    return build_lattice(H, table).chamber_count()


def _dr_regions(normals: frozenset[Vector], dim: int, memo: dict, steps: list[int]) -> int:
    """Regions cut from R^dim by distinct primitive `normals`.  Deleting the
    sorted normals h_m, .., h_1 in turn gives r = 1 + sum_j r(restriction of
    {h_i : i < j} to h_j), so only the restrictions recurse, each one
    dimension down.  steps[0] is the charge so far, as MAX_DR_STEPS says."""
    key = (dim, normals)
    cached = memo.get(key)
    if cached is not None:
        return cached
    total = steps[0] + len(normals) * (len(normals) - 1) // 2 * (dim + 12)
    if total > MAX_DR_STEPS:
        raise GuardError("arrangement.dr_steps", f"<= {MAX_DR_STEPS}", total)
    steps[0] = total
    out = 1
    lower: list[Vector] = []  # {h_i : i < j}
    for h in sorted(normals):
        out += _dr_regions(frozenset(_restrict(h, lower)), dim - 1, memo, steps)
        lower.append(h)
    memo[key] = out
    return out


def chamber_count_dr(H: VectorSet) -> int:
    """Region count by deletion-restriction; independent of the lattice path.

    r(A) = r(A minus h) + r(A restricted to h), looped over the deletions so
    that only the restrictions recurse, at most d deep.  Each restriction is
    exact: one fraction-free step onto the hyperplane, parallels merged.
    """
    normals = frozenset(primitive(v) for v in H.vectors)
    return _dr_regions(normals, H.ambient_dim, {}, [0])


def write_vector_set(target: str | TextIO, vs: VectorSet) -> None:
    """Write `T d` on the first line, then one vector of d integers per line."""
    def _emit(fh: TextIO) -> None:
        fh.write(f"{len(vs)} {vs.ambient_dim}\n")
        for v in vs.vectors:
            fh.write(" ".join(str(x) for x in v) + "\n")

    if isinstance(target, str):
        with open(target, "w", encoding="ascii") as fh:
            _emit(fh)
    else:
        _emit(target)


def read_vector_set(source: str | TextIO) -> VectorSet:
    """Parse the vector-set format; lines starting with '#' are comments."""
    if isinstance(source, str):
        with open(source, "r", encoding="ascii") as fh:
            return read_vector_set(fh)
    lines = [ln.strip() for ln in source]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty vector-set file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'T d'")
    try:
        t, d = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != t:
        raise ValueError(f"expected {t} vectors, found {len(lines) - 1}")
    vecs = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d:
            raise ValueError(f"vector line {ln!r} does not have {d} entries")
        try:
            vecs.append(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"non-integer entry in line {ln!r}") from exc
    return VectorSet(tuple(vecs), d)
