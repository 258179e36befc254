"""Reduced simplicial homology of the proper-span complex of a vector set.

A subset of the vectors is a simplex exactly when its span is a proper
subspace of the ambient space.  Ranks of the reduced homology of this
complex reproduce lattice data: in degree (ambient - 2) the rank equals
the magnitude of the top Mobius value, and restricting to any flat gives
that flat's Mobius magnitude.  The same ranks match minimal_tuple_count,
which is what ties the weighted flag sum to chamber counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .arrangement import Flat, FlatTable, VectorSet, ensure_table
from .errors import GuardError

__all__ = [
    "ComplexSlice",
    "build_complex_slice",
    "homology_rank",
    "mobius_via_homology",
]

# Bound on the boundary nonzeros a slice may hold, counted as k per stored
# k-subset while the layers are enumerated.  A slice costs about 81 bytes
# per nonzero (the E_5 top slice: 3,106,880 nonzeros, 240 MB peak under
# tracemalloc, Python 3.11), so a slice at the limit stays near 1 GB.
MAX_BOUNDARY_NONZEROS = 10**7


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p**0.5) + 1):
        if p % q == 0:
            return False
    return True


def _check_field(fld) -> int | str:
    if isinstance(fld, str):
        if fld.upper() == "Q":
            return "Q"
        if fld.isdigit():
            fld = int(fld)
        else:
            raise ValueError(f"unknown field {fld!r}, expected a prime or 'Q'")
    if not _is_prime(fld):
        raise ValueError(f"{fld} is not prime")
    return fld


@dataclass(frozen=True, eq=False)
class ComplexSlice:
    """Three consecutive simplex layers with the boundary maps between them.

    For target degree m: faces have m vertices, simplices m+1, cofaces m+2
    (the empty simplex counts as a face layer entry in the reduced complex).
    boundary_out maps the middle layer down, boundary_in maps the top layer
    into it.  Each is a sparse column per simplex of the upper layer,
    {row in the lower layer: +-1}, with the alternating face signs.
    """

    degree: int
    faces: tuple[tuple[int, ...], ...]
    simplices: tuple[tuple[int, ...], ...]
    cofaces: tuple[tuple[int, ...], ...]
    boundary_out: tuple[dict[int, int], ...]
    boundary_in: tuple[dict[int, int], ...]


def _subsets_with_proper_span(
    table: FlatTable, sizes: Sequence[int], reduced: bool
) -> dict[int, list[tuple[int, ...]]]:
    """All vector subsets of the given sizes spanning a proper subspace,
    each as a sorted index tuple, in lexicographic order."""
    d = table.vs.ambient_dim
    T = len(table.vs)
    wanted = {k for k in sizes if k >= 0}
    max_size = max(wanted, default=-1)
    out: dict[int, list[tuple[int, ...]]] = {k: [] for k in sizes}
    if max_size < 0:
        return out
    nonzeros = 0
    current: list[int] = []

    def record(k: int, item: tuple[int, ...]) -> None:
        nonlocal nonzeros
        out[k].append(item)
        nonzeros += k
        if nonzeros > MAX_BOUNDARY_NONZEROS:
            raise GuardError(
                "homology.boundary_nonzeros", f"<= {MAX_BOUNDARY_NONZEROS}", nonzeros
            )

    def walk(fid: int, start: int) -> None:
        k = len(current)
        if k in wanted and (k > 0 or reduced):
            record(k, tuple(current))
        if k == max_size:
            return
        for i in range(start, T):
            cid = table.extend(fid, i)
            if table.dims[cid] == d:
                continue
            current.append(i)
            walk(cid, i + 1)
            current.pop()

    walk(table.zero_fid, 0)
    return out


def _boundary_columns(
    faces: Sequence[tuple[int, ...]], simplices: Sequence[tuple[int, ...]]
) -> tuple[dict[int, int], ...]:
    """Signed incidence of each simplex with its one-smaller faces, as one
    {face row: +-1} column per simplex."""
    index = {f: r for r, f in enumerate(faces)}
    columns = []
    for s in simplices:
        col = {}
        sign = 1
        for drop in range(len(s)):
            row = index.get(s[:drop] + s[drop + 1 :])
            if row is not None:
                col[row] = sign
            sign = -sign
        columns.append(col)
    return tuple(columns)


def build_complex_slice(
    H: VectorSet,
    m: int,
    table: FlatTable | None = None,
    reduced: bool = True,
) -> ComplexSlice:
    """Materialize the degree-m slice of the proper-span complex of H."""
    table = ensure_table(H, table)
    layers = _subsets_with_proper_span(table, (m, m + 1, m + 2), reduced)
    faces = tuple(layers[m])
    simplices = tuple(layers[m + 1])
    cofaces = tuple(layers[m + 2])
    return ComplexSlice(
        degree=m,
        faces=faces,
        simplices=simplices,
        cofaces=cofaces,
        boundary_out=_boundary_columns(faces, simplices),
        boundary_in=_boundary_columns(simplices, cofaces),
    )


def _rank_mod_p(columns: Sequence[dict[int, int]], p: int) -> int:
    """Rank over GF(p) by sparse column elimination, pivoting on each
    column's largest row."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {r: v % p for r, v in col.items()}
        while col:
            r = max(col)
            other = pivots.get(r)
            if other is None:
                inv = pow(col[r], -1, p)
                pivots[r] = {k: v * inv % p for k, v in col.items()}
                break
            c = col[r]
            for k, v in other.items():
                x = (col.get(k, 0) - c * v) % p
                if x:
                    col[k] = x
                else:
                    del col[k]
    return len(pivots)


def _rank_exact(columns: Sequence[dict[int, int]]) -> int:
    """Rank over the rationals: sparse integer elimination, content removed
    after every combination so entries stay small."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            r = max(col)
            other = pivots.get(r)
            if other is None:
                content = gcd(*col.values())
                if col[r] < 0:
                    content = -content
                pivots[r] = {k: v // content for k, v in col.items()}
                break
            a, b = other[r], col[r]
            merged = {k: a * v for k, v in col.items()}
            for k, v in other.items():
                merged[k] = merged.get(k, 0) - b * v
            col = {k: v for k, v in merged.items() if v}
            if col:
                content = gcd(*col.values())
                col = {k: v // content for k, v in col.items()}
    return len(pivots)


def _rank(columns: Sequence[dict[int, int]], fld: int | str) -> int:
    if fld == "Q":
        return _rank_exact(columns)
    return _rank_mod_p(columns, fld)


def _reduced_rank(
    H: VectorSet,
    m: int,
    fld: int | str,
    table: FlatTable | None,
    reduced: bool,
) -> int:
    sl = build_complex_slice(H, m, table, reduced)
    middle = len(sl.simplices)
    if middle == 0:
        return 0
    rank_out = _rank(sl.boundary_out, fld)
    rank_in = _rank(sl.boundary_in, fld)
    return middle - rank_out - rank_in


def homology_rank(
    H: VectorSet,
    m: int,
    fld: int | str = 2,
    table: FlatTable | None = None,
    reduced: bool = True,
) -> int:
    """Rank of the degree-m reduced homology of the proper-span complex,
    as nullity(boundary_out) - rank(boundary_in) over the given field."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    fld = _check_field(fld)
    return _reduced_rank(H, m, fld, table, reduced)


def _restrict_to_flat(H: VectorSet, u: Flat) -> VectorSet:
    """The member vectors of u rewritten in integer coordinates over a
    basis of u, so the flat becomes a full-dimensional set of its own."""
    rows = u.subspace.rows
    pivot_cols = [next(j for j, x in enumerate(r) if x) for r in rows]
    rewritten = []
    for idx in u.members:
        w = H[idx]
        coords = [
            Fraction(w[pc], rows[k][pc]) for k, pc in enumerate(pivot_cols)
        ]
        den = 1
        for c in coords:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in coords]
        content = gcd(*ints)
        rewritten.append(tuple(v // content for v in ints))
    return VectorSet(tuple(rewritten), u.dim)


def mobius_via_homology(H: VectorSet, u: Flat, fld: int | str = 2) -> int:
    """Magnitude of the Mobius value of a flat, read off as the rank of the
    restricted complex's reduced homology in degree (dim u - 2).

    For a one-dimensional flat the restricted complex is empty and the
    degree is -1; the empty simplex alone survives, giving rank 1.
    """
    if u.dim < 1:
        raise ValueError("flat must have dimension >= 1")
    fld = _check_field(fld)
    sub = _restrict_to_flat(H, u)
    return _reduced_rank(sub, u.dim - 2, fld, None, True)
