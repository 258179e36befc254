"""Central hyperplane arrangements given by their normal vectors.

Provides the sign-pattern vector set E, the lattice of flats (spans of
subsets of the normals) with its Mobius function, the Zaslavsky chamber
count, and an independent deletion-restriction region counter used as an
oracle against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .errors import GuardError
from .exactlin import Vector, _insert, primitive, rank

__all__ = [
    "VectorSet",
    "IntersectionLattice",
    "FlatTable",
    "ensure_table",
    "generate_sign_vectors",
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
# by tracemalloc after close(), a flat costs about 630 B at T = 32 (E_5) and
# 610 B at T = 64 (64 integer vectors in R^4), or 1.2 KB and 1.4 KB with
# every extend step and member tuple filled in.  A flat whose covers are not
# built yet also holds its images, 3.3 KB a flat over the first 100,000
# flats of E_6.  `chambers --n 6` reaches this limit after about 58 s at
# 1.04 GB peak RSS (2 CPUs).
MAX_FLATS = 600_000
# Guard on the fraction-free contraction steps of one table: each new cover
# costs one step per other class of its parent, so T vectors in general
# position in R^2 cost T(T - 1) steps for only T + 2 flats.  A step took
# 1.9 µs on 2,000 vectors (1, k) in R^2 (3,998,000 steps in 7.6 s, 2 CPUs),
# so the limit is about 40 s of steps there.  E_5 takes 166,044 steps; E_6
# has taken 15.1 million when it reaches MAX_FLATS, so `chambers --n 6`
# still stops on the flat guard.
MAX_CONTRACTION_STEPS = 2 * 10**7


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
        if not vecs:
            raise ValueError("empty vector set")
        return cls(vecs, len(vecs[0]))

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
    vecs = []
    for k in range(1 << n):
        bits = [(k >> (n - 1 - j)) & 1 for j in range(n)]
        vecs.append((1,) + tuple(1 - 2 * b for b in bits))
    return VectorSet(tuple(vecs), n + 1)


def schlafli_bound(n: int) -> int:
    """Upper bound 2 * sum_{i<=n} C(2^n - 1, i) on the sign-vector
    arrangement's chamber count, counting cells cut from a sphere by
    general-position great circles."""
    if not 1 <= n <= SCHLAFLI_MAX_N:
        raise GuardError("schlafli_bound.n", f"1 <= n <= {SCHLAFLI_MAX_N}", n)
    m = (1 << n) - 1
    return 2 * sum(math.comb(m, i) for i in range(n + 1))


class FlatTable:
    """Interning table for the flats (distinct spans of subsets) of a VectorSet.

    A flat is keyed by its member bitmask (bit i set iff w_i lies in it) and
    stored under a small integer id; id 0 is the zero subspace.  Covers come
    from the contraction of the arrangement to the flat: the flats covering F
    are the spans of F and one class of its non-members, two non-members
    sharing a cover iff their images in R^d / F are parallel.  Each flat keeps
    one primitive integer image per class until its covers are built, so no
    cover needs a membership or rank test.  The table is a cache: it never
    affects results, only the cost of obtaining them.
    """

    def __init__(self, vs: VectorSet):
        self.vs = vs
        self._ids: dict[int, int] = {}
        self.rows: list[tuple[Vector, ...]] = []
        self.masks: list[int] = []
        self.counts: list[int] = []
        self.dims: list[int] = []
        self._covers: list[list[int] | None] = []
        # Image in R^d / F -> member bits, for each flat F whose covers are
        # not built yet.
        self._classes: dict[int, dict[Vector, int]] = {}
        self._steps: dict[int, tuple[int, ...]] = {}
        self._members_memo: dict[int, tuple[int, ...]] = {}
        # The lattice with its Mobius values, set by build_lattice.
        self._lattice: IntersectionLattice | None = None
        # Fraction-free steps taken so far, bounded by MAX_CONTRACTION_STEPS.
        self.contraction_steps = 0
        # A VectorSet has no parallel pair, so each atom is its own class.
        atoms = {primitive(w): 1 << i for i, w in enumerate(vs.vectors)}
        self.zero_fid = self._add(0, (), atoms)

    def _add(self, mask: int, rows: tuple[Vector, ...], classes: dict[Vector, int]) -> int:
        fid = len(self.masks)
        if fid >= MAX_FLATS:
            raise GuardError("arrangement.flats", f"<= {MAX_FLATS}", fid + 1)
        self._ids[mask] = fid
        self.rows.append(rows)
        self.masks.append(mask)
        self.counts.append(mask.bit_count())
        self.dims.append(len(rows))
        self._covers.append(None)
        self._classes[fid] = classes
        return fid

    def _contract(self, fid: int, image: Vector, bits: int, classes: dict[Vector, int]) -> int:
        """Add the cover of flat fid spanned with the class `bits`, whose
        image in R^d / F is `image`.  The other classes' images pass to
        R^d / (F + image) by one fraction-free step on a coordinate c where
        image is nonzero, c then dropped; the c with the least |image[c]|
        keeps the entries small."""
        steps = self.contraction_steps + len(classes) - 1
        if steps > MAX_CONTRACTION_STEPS:
            raise GuardError(
                "arrangement.contraction_steps", f"<= {MAX_CONTRACTION_STEPS}", steps
            )
        self.contraction_steps = steps
        c = min((k for k, x in enumerate(image) if x), key=lambda k: abs(image[k]))
        a = image[c]
        sub: dict[Vector, int] = {}
        for y, ybits in classes.items():
            if y is image:
                continue
            b = y[c]
            z = [a * u - b * v for u, v in zip(y, image)]
            del z[c]
            z = primitive(z)
            sub[z] = sub.get(z, 0) | ybits
        i = (bits & -bits).bit_length() - 1
        rows = _insert(self.rows[fid], self.vs.vectors[i])
        return self._add(self.masks[fid] | bits, rows, sub)

    def covers(self, fid: int) -> list[int]:
        """Ids of the flats one dimension up reachable by adjoining a vector."""
        out = self._covers[fid]
        if out is None:
            classes = self._classes.pop(fid)
            mask = self.masks[fid]
            out = []
            for image, bits in classes.items():
                cid = self._ids.get(mask | bits)
                if cid is None:
                    cid = self._contract(fid, image, bits, classes)
                out.append(cid)
            out.sort()
            self._covers[fid] = out
        return out

    def extend(self, fid: int, i: int) -> int:
        """Id of span(flat + w_i).  Dimension grows iff i is not a member."""
        step = self._steps.get(fid)
        if step is None:
            mask = self.masks[fid]
            out = [fid] * len(self.vs.vectors)
            for cid in self.covers(fid):
                bits = self.masks[cid] ^ mask
                while bits:
                    low = bits & -bits
                    out[low.bit_length() - 1] = cid
                    bits ^= low
            step = self._steps[fid] = tuple(out)
        return step[i]

    def close(self) -> None:
        """Materialize every flat and the full cover (Hasse) diagram."""
        fid = 0
        while self._classes:
            self.covers(fid)
            fid += 1

    def fids_by_dim(self) -> list[list[int]]:
        self.close()
        out: list[list[int]] = [[] for _ in range(self.vs.ambient_dim + 1)]
        for fid in range(len(self.rows)):
            out[self.dims[fid]].append(fid)
        return out

    def members(self, fid: int) -> tuple[int, ...]:
        out = self._members_memo.get(fid)
        if out is None:
            mask = self.masks[fid]
            out = tuple(i for i in range(len(self.vs.vectors)) if (mask >> i) & 1)
            self._members_memo[fid] = out
        return out


class IntersectionLattice:
    """The flats of one FlatTable, named by their ids and ordered by
    inclusion, with Mobius values from the zero flat.

    mobius[fid] satisfies mu(0) = 1 and, for t > 0, sum_{s <= t} mu(s) = 0.
    """

    def __init__(self, table: FlatTable, mobius: list[int]):
        # The masks, not the table: the table holds on to this lattice.
        self._masks = table.masks
        self.mobius = mobius

    def leq(self, s: int, t: int) -> bool:
        """Containment of member masks, which for flats coincides with
        subspace inclusion."""
        return self._masks[s] & ~self._masks[t] == 0

    def chamber_count(self) -> int:
        return sum(abs(m) for m in self.mobius)


def ensure_table(H: VectorSet, table: FlatTable | None = None) -> FlatTable:
    """Reuse a caller-provided flat table after checking it matches H."""
    if table is None:
        return FlatTable(H)
    if table.vs is not H and table.vs != H:
        raise ValueError("flat table was built for a different vector set")
    return table


def build_lattice(H: VectorSet, table: FlatTable | None = None) -> IntersectionLattice:
    """Enumerate all flats by closure from the atoms and solve the Mobius
    recursion mu(t) = -sum_{s<t} mu(s) bottom-up by dimension, once per
    table: the lattice is kept on the table and returned again."""
    table = ensure_table(H, table)
    if table._lattice is not None:
        return table._lattice
    table.close()
    nflats = len(table.rows)
    children: list[list[int]] = [[] for _ in range(nflats)]
    for fid in range(nflats):
        for cid in table.covers(fid):
            children[cid].append(fid)
    mobius = [0] * nflats
    mobius[table.zero_fid] = 1
    order = sorted(range(nflats), key=lambda f: table.dims[f])
    for fid in order:
        if fid == table.zero_fid:
            continue
        # Proper down-set of fid via the reversed cover diagram.
        seen = {fid}
        stack = [fid]
        total = 0
        while stack:
            for s in children[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
                    total += mobius[s]
        mobius[fid] = -total
    table._lattice = IntersectionLattice(table, mobius)
    return table._lattice


def chamber_count(H: VectorSet, table: FlatTable | None = None) -> int:
    """Number of chambers via Zaslavsky: sum of |mu(0,t)| over all flats."""
    return build_lattice(H, table).chamber_count()


def _hyperplane_basis(h: Vector) -> list[Vector]:
    """Integer basis of the hyperplane orthogonal to h."""
    j = next(k for k, x in enumerate(h) if x != 0)
    a = h[j]
    d = len(h)
    basis = []
    for k in range(d):
        if k == j:
            continue
        v = [0] * d
        v[k] = a
        v[j] = -h[k]
        basis.append(tuple(v))
    return basis


def _dr_regions(normals: frozenset[Vector], dim: int, memo: dict) -> int:
    if not normals:
        return 1
    key = (dim, normals)
    cached = memo.get(key)
    if cached is not None:
        return cached
    h = max(normals)
    rest = normals - {h}
    deleted = _dr_regions(rest, dim, memo)
    basis = _hyperplane_basis(h)
    induced = set()
    for w in rest:
        u = tuple(sum(b[k] * w[k] for k in range(dim)) for b in basis)
        if any(u):
            induced.add(primitive(u))
    restricted = _dr_regions(frozenset(induced), dim - 1, memo)
    out = deleted + restricted
    memo[key] = out
    return out


def chamber_count_dr(H: VectorSet) -> int:
    """Region count by deletion-restriction; independent of the lattice path.

    r(A) = r(A minus h) + r(A restricted to h), with the restriction taken
    exactly: the remaining normals are projected onto an integer basis of
    the hyperplane, zero projections dropped and parallels merged.
    """
    normals = frozenset(primitive(v) for v in H.vectors)
    return _dr_regions(normals, H.ambient_dim, {})


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
