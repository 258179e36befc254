"""Exact integer linear algebra: primitive vectors and ranks.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import Sequence

Vector = tuple[int, ...]

__all__ = ["Vector", "primitive", "rank"]


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


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a list of integer vectors of one length, viewed as a matrix.

    One fraction-free echelon elimination (Bareiss 1968), keeping each
    primitive row beside its pivot column, that stops once the rows fill
    the whole space.  The rank does not depend on the order the vectors are
    reduced in, so index 0 and the powers of two below the count go first:
    on the sign vectors E_n the first 2^(n-1) lie in one hyperplane, and
    those n + 1 already span.
    """
    if not vectors:
        return 0
    d = len(vectors[0])
    count = len(vectors)
    order = chain(
        (0,),
        (1 << j for j in range((count - 1).bit_length())),
        (i for i in range(count) if i & (i - 1)),
    )
    rows: list[tuple[int, Vector]] = []
    for i in order:
        if len(rows) == d:
            break
        w = vectors[i]
        if len(w) != d:
            raise ValueError(f"mixed vector lengths {d} and {len(w)}")
        for c, row in rows:
            wc = w[c]
            if wc:
                p = row[c]
                w = [p * a - wc * b for a, b in zip(w, row)]
        if any(w):
            w = primitive(w)
            rows.append((next(j for j, x in enumerate(w) if x), w))
    return len(rows)
