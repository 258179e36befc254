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
from math import gcd
from typing import Sequence

from .arrangement import FlatTable, VectorSet, ensure_table
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
# Bound on the subsets the walk tests (a visited subset plus one candidate,
# proper span or not), the walk's own work, which the nonzero guard misses
# when a high degree records nothing.  A test costs about 0.45 µs
# (2^23 - 1 tests in 3.8 s for 22 vectors (1, k, 0) and (0, 0, 1) at degree
# 40, 2 CPUs, Python 3.11); the same set with 30 vectors in the plane stops
# on this limit after 52 s.  The E_5 top slice tests 1,149,016 subsets and
# `homology --n 5 --degree 40` 7,753,135.
MAX_WALKED_SUBSETS = 10**8
# Bound on a prime field's order: _is_prime tests by trial division up to
# sqrt(p): 4 ms at 2^31 - 1 (2 CPUs, Python 3.11), so about 2 minutes at
# 2^61 - 1.
MAX_FIELD_PRIME = 2**31


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
    if fld > MAX_FIELD_PRIME:
        raise GuardError("homology.field", f"<= {MAX_FIELD_PRIME}", fld)
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
    table: FlatTable,
    candidates: Sequence[int],
    dim: int,
    sizes: Sequence[int],
) -> dict[int, list[tuple[int, ...]]]:
    """All subsets of the candidate vectors, of the given sizes, whose span
    has dimension below dim, each as a sorted index tuple, in lexicographic
    order.  The candidates must span a subspace of dimension dim."""
    count = len(candidates)
    wanted = {k for k in sizes if k >= 0}
    max_size = max(wanted, default=-1)
    out: dict[int, list[tuple[int, ...]]] = {k: [] for k in sizes}
    if max_size < 0:
        return out
    nonzeros = 0
    tested = 0
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
        nonlocal tested
        k = len(current)
        if k in wanted:
            record(k, tuple(current))
        if k == max_size:
            return
        tested += count - start
        if tested > MAX_WALKED_SUBSETS:
            raise GuardError("homology.walked_subsets", f"<= {MAX_WALKED_SUBSETS}", tested)
        for j in range(start, count):
            i = candidates[j]
            cid = table.extend(fid, i)
            if table.dims[cid] == dim:
                continue
            current.append(i)
            walk(cid, j + 1)
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


def _slice(table: FlatTable, candidates: Sequence[int], dim: int, m: int) -> ComplexSlice:
    layers = _subsets_with_proper_span(table, candidates, dim, (m, m + 1, m + 2))
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


def build_complex_slice(H: VectorSet, m: int, table: FlatTable | None = None) -> ComplexSlice:
    """Materialize the degree-m slice of the reduced proper-span complex
    of H, the empty simplex included."""
    table = ensure_table(H, table)
    return _slice(table, range(len(H)), H.ambient_dim, m)


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


def _slice_rank(sl: ComplexSlice, fld: int | str) -> int:
    """nullity(boundary_out) - rank(boundary_in) over the given field."""
    middle = len(sl.simplices)
    if middle == 0:
        return 0
    return middle - _rank(sl.boundary_out, fld) - _rank(sl.boundary_in, fld)


def homology_rank(
    H: VectorSet,
    m: int,
    fld: int | str = 2,
    table: FlatTable | None = None,
) -> int:
    """Rank of the degree-m reduced homology of the proper-span complex,
    as nullity(boundary_out) - rank(boundary_in) over the given field."""
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    fld = _check_field(fld)
    return _slice_rank(build_complex_slice(H, m, table), fld)


def mobius_via_homology(table: FlatTable, fid: int, fld: int | str = 2) -> int:
    """Magnitude of the Mobius value of flat fid of the table, read off as
    the rank of the reduced homology, in degree (dim - 2), of the complex of
    its member subsets with a proper span.  The flats below fid are the
    lattice of the arrangement localized at fid, so this is the top-degree
    complex of that localization, walked inside the same table.

    For a one-dimensional flat the complex is empty and the degree is -1;
    the empty simplex alone survives, giving rank 1.
    """
    dim = table.dims[fid]
    if dim < 1:
        raise ValueError("flat must have dimension >= 1")
    fld = _check_field(fld)
    return _slice_rank(_slice(table, table.members(fid), dim, dim - 2), fld)
