"""Exact rational linear algebra: ranks, canonical subspace bases, membership.

Everything here is exact.  Subspaces are identified by their reduced
row-echelon basis, which is unique, so two bases describe the same subspace
iff they compare equal.  Internally rows are kept as primitive integer
vectors (content 1, positive pivot); the rational RREF with unit pivots is
recovered by dividing each row by its pivot entry.  The primitive form and
the rational RREF determine each other, so hashing on either is equivalent.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[int, ...]

__all__ = [
    "Vector",
    "SubspaceBasis",
    "span",
    "contains",
    "rank",
    "primitive",
]


def _as_vector(v: Sequence[int]) -> Vector:
    return tuple(int(x) for x in v)


def primitive(v: Sequence[int]) -> Vector:
    """Scale an integer vector to content 1 with positive leading entry.

    The zero vector is returned unchanged.  Two vectors are parallel iff
    their primitive forms coincide.
    """
    g = gcd(*v)
    if g == 0:
        return tuple(v)
    for x in v:
        if x:
            if x < 0:
                g = -g
            break
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _pivot_col(row: Vector) -> int:
    for j, x in enumerate(row):
        if x != 0:
            return j
    raise ValueError("zero row has no pivot")


def _reduce(rows: Sequence[tuple[int, Vector]], v: Sequence[int]) -> list[int]:
    """Reduce v against echelon rows, given as (pivot column, row) pairs,
    by fraction-free elimination.

    Returns an integer vector; it is zero iff v lies in the row span.
    """
    w = list(v)
    for c, row in rows:
        wc = w[c]
        if wc:
            p = row[c]
            w = [p * a - wc * b for a, b in zip(w, row)]
    return w


def _insert(
    rows: list[tuple[int, Vector]], v: Sequence[int]
) -> list[tuple[int, Vector]]:
    """Absorb v into an RREF row set of (pivot column, row) pairs; the
    rows come back unchanged when v already lies in their span."""
    w = _reduce(rows, v)
    if not any(w):
        return rows
    new = primitive(w)
    c = _pivot_col(new)
    # Clear the new pivot column in the existing rows to restore full RREF;
    # a row with a nonzero there has its pivot left of c, so it keeps it.
    fixed = []
    for pivot, row in rows:
        if row[c]:
            p = new[c]
            rc = row[c]
            row = primitive(tuple(p * a - rc * b for a, b in zip(row, new)))
        fixed.append((pivot, row))
    fixed.append((c, new))
    fixed.sort()
    return fixed


@dataclass(frozen=True)
class SubspaceBasis:
    """Canonical basis of a linear subspace of Q^d.

    ``rows`` holds the primitive integer form of the reduced row-echelon
    basis; ``basis`` exposes the rational RREF itself (unit pivots).  The
    zero subspace has an empty row set.
    """

    ambient_dim: int
    rows: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational reduced row-echelon basis with pivot entries 1."""
        out = []
        for row in self.rows:
            p = row[_pivot_col(row)]
            out.append(tuple(Fraction(x, p) for x in row))
        return tuple(out)

    def __contains__(self, v: Sequence[int]) -> bool:
        return contains(self, v)


def _common_dim(vectors: Sequence[Sequence[int]], ambient_dim: int | None) -> int:
    if vectors:
        d = len(vectors[0])
        for v in vectors:
            if len(v) != d:
                raise ValueError(f"mixed vector lengths {d} and {len(v)}")
        if ambient_dim is not None and ambient_dim != d:
            raise ValueError(f"vectors of length {d} with ambient_dim={ambient_dim}")
        return d
    if ambient_dim is None:
        raise ValueError("ambient_dim is required for an empty span")
    return ambient_dim


def span(
    vectors: Sequence[Sequence[int]], ambient_dim: int | None = None
) -> SubspaceBasis:
    """Canonical basis of the linear span of integer vectors.

    An empty input yields the zero subspace; its ambient dimension must then
    be given explicitly.
    """
    d = _common_dim(vectors, ambient_dim)
    if d < 1:
        raise ValueError(f"ambient dimension must be >= 1, got {d}")
    rows: list[tuple[int, Vector]] = []
    for v in vectors:
        rows = _insert(rows, _as_vector(v))
        if len(rows) == d:  # the whole space: its RREF is the identity
            break
    return SubspaceBasis(d, tuple(row for _, row in rows))


def contains(s: SubspaceBasis, v: Sequence[int]) -> bool:
    """Exact membership test; the zero vector lies in every subspace."""
    if len(v) != s.ambient_dim:
        raise ValueError(
            f"vector of length {len(v)} against ambient dimension {s.ambient_dim}"
        )
    rows = [(_pivot_col(row), row) for row in s.rows]
    return not any(_reduce(rows, _as_vector(v)))


def rank(vectors: Sequence[Sequence[int]], ambient_dim: int | None = None) -> int:
    """Rank of the vector list viewed as a matrix."""
    return span(vectors, ambient_dim).dim
