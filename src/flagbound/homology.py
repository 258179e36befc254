"""Reduced simplicial homology of the proper-span complex of a vector set.

A subset of the vectors is a simplex exactly when its span is a proper
subspace, that is, when it lies in a hyperplane flat, so the complex is
generated by those flats' member sets.  Ranks of its reduced homology
reproduce lattice data: in degree (ambient - 2) the rank equals the
magnitude of the top Mobius value, and restricting to any flat gives
that flat's Mobius magnitude.  The same ranks match minimal_tuple_count,
which is what ties the weighted flag sum to chamber counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Iterable, Sequence

from .arrangement import FlatTable, VectorSet, ensure_table
from .errors import GuardError

__all__ = [
    "ComplexSlice",
    "build_complex_slice",
    "homology_rank",
    "mobius_via_homology",
    "slice_rank",
]

# Bound on the boundary nonzeros a slice may hold, counted as k per
# k-subset of each pool before any layer is generated (a subset lying in
# several lower covers counts once per cover).  A slice costs about 83
# bytes per nonzero (the E_5 top slice: 3,106,880 nonzeros, 258 MB peak
# under tracemalloc while it is built, Python 3.11), so a slice at the
# limit stays near 1 GB.
MAX_BOUNDARY_NONZEROS = 10**7
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


def _proper_span_layers(
    table: FlatTable, mask: int, dim: int, sizes: Sequence[int]
) -> list[list[tuple[int, ...]]]:
    """For each k in sizes (ascending), the k-subsets of the members of the
    dim-dimensional flat with member mask `mask` whose span lies strictly
    below that flat, as sorted index tuples in lexicographic order.

    A span is proper exactly when the subset lies in a lower cover of the
    flat (the crosscut complex of Rota and Folkman).  So below size dim
    every k-subset of the members qualifies, and from dim up the layer is
    the union of the k-subsets of the lower covers' members.  The boundary
    nonzeros, k per k-subset of each pool, are counted before anything is
    generated, and the sizes below dim before the lower covers close the
    table.
    """
    members = tuple(i for i in range(len(table.vs)) if (mask >> i) & 1)
    lower: list[tuple[int, ...]] | None = None
    pools_by_size = []
    nonzeros = 0
    for k in sizes:
        if k < 0:
            pools = []
        elif k < dim:
            pools = [members]
        else:
            if lower is None:
                lower = [
                    table.members(g) for g in table.fids_by_dim()[dim - 1]
                    if table.masks[g] & ~mask == 0
                ]
            pools = lower
        # combinations(pool, k) fills k index slots before it checks the
        # pool's size, so a pool smaller than k is dropped here.
        pools = [pool for pool in pools if len(pool) >= k]
        nonzeros += sum(k * comb(len(pool), k) for pool in pools)
        if nonzeros > MAX_BOUNDARY_NONZEROS:
            raise GuardError(
                "homology.boundary_nonzeros", f"<= {MAX_BOUNDARY_NONZEROS}", nonzeros
            )
        pools_by_size.append(pools)
    return [
        list(combinations(pools[0], k)) if len(pools) == 1
        else sorted({s for pool in pools for s in combinations(pool, k)})
        for k, pools in zip(sizes, pools_by_size)
    ]


def _mask(s: tuple[int, ...]) -> int:
    return sum(1 << i for i in s)


def _boundary_columns(
    index: dict[int, int], simplices: Sequence[tuple[int, ...]], masks: Iterable[int]
) -> tuple[dict[int, int], ...]:
    """Signed incidence of each simplex with its one-smaller faces, as one
    {face row: +-1} column per simplex.  Faces are looked up in `index` by
    member bitmask (`masks` gives the simplices'): dropping a vertex clears
    one bit, and every face of a proper-span set has a proper span."""
    columns = []
    for s, mask in zip(simplices, masks):
        col = {}
        sign = 1
        for i in s:
            col[index[mask ^ 1 << i]] = sign
            sign = -sign
        columns.append(col)
    return tuple(columns)


def _slice(table: FlatTable, mask: int, dim: int, m: int) -> ComplexSlice:
    """Each bitmask is computed once; the middle layer's serve both maps."""
    layers = _proper_span_layers(table, mask, dim, (m, m + 1, m + 2))
    faces, simplices, cofaces = map(tuple, layers)
    face_index = {_mask(f): r for r, f in enumerate(faces)}
    index = {_mask(s): r for r, s in enumerate(simplices)}
    return ComplexSlice(
        degree=m,
        faces=faces,
        simplices=simplices,
        cofaces=cofaces,
        boundary_out=_boundary_columns(face_index, simplices, index),
        boundary_in=_boundary_columns(index, cofaces, map(_mask, cofaces)),
    )


def build_complex_slice(H: VectorSet, m: int, table: FlatTable | None = None) -> ComplexSlice:
    """Materialize the degree-m slice of the reduced proper-span complex
    of H, the empty simplex included."""
    table = ensure_table(H, table)
    return _slice(table, (1 << len(H)) - 1, H.ambient_dim, m)


def _pivots_mod_p(columns: Sequence[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Sparse column elimination over GF(p), pivoting on each column's
    largest row: the reduced columns, keyed by their pivot row."""
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
    return pivots


def _pivots_exact(columns: Sequence[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Sparse integer elimination over the rationals, keyed as
    `_pivots_mod_p`.  A pivot is stored without content and with a positive
    leading entry a.  Against a = 1 a column is updated in place; otherwise
    it is scaled by a first and its content removed after, so entries stay
    small."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = dict(col)
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
            if a != 1:
                col = {k: a * v for k, v in col.items()}
            for k, v in other.items():
                x = col.get(k, 0) - b * v
                if x:
                    col[k] = x
                else:
                    del col[k]
            if a != 1 and col:
                content = gcd(*col.values())
                col = {k: v // content for k, v in col.items()}
    return pivots


def _pivots(columns: Sequence[dict[int, int]], fld: int | str) -> dict[int, dict[int, int]]:
    if fld == "Q":
        return _pivots_exact(columns)
    return _pivots_mod_p(columns, fld)


def _cleared(sl: ComplexSlice, fld: int | str) -> tuple[int, list[dict[int, int]]]:
    """rank(boundary_in), and the columns of boundary_out that clearing
    (Chen and Kerber 2011) keeps: those at no pivot row of boundary_in.  A
    pivot with largest row j is a cycle c with c_j != 0, so boundary_out(c)
    = 0 makes column j a combination of earlier columns, and the kept ones
    have the full rank over every field.  The pivots are dropped on return,
    before boundary_out is reduced."""
    pivots = _pivots(sl.boundary_in, fld)
    return len(pivots), [col for j, col in enumerate(sl.boundary_out) if j not in pivots]


def slice_rank(sl: ComplexSlice, fld: int | str = 2) -> int:
    """Rank of the slice's homology, nullity(boundary_out) -
    rank(boundary_in), over the given field; boundary_in is reduced first,
    and clears columns of boundary_out."""
    fld = _check_field(fld)
    if not sl.simplices:
        return 0
    rank_in, kept = _cleared(sl, fld)
    return len(sl.simplices) - len(_pivots(kept, fld)) - rank_in


def homology_rank(
    H: VectorSet,
    m: int,
    fld: int | str = 2,
    table: FlatTable | None = None,
) -> int:
    """Rank of the degree-m reduced homology of the proper-span complex,
    as nullity(boundary_out) - rank(boundary_in) over the given field.
    The reduced complex starts at degree -1, the empty simplex."""
    if m < -1:
        raise ValueError(f"degree must be >= -1, got {m}")
    fld = _check_field(fld)
    return slice_rank(build_complex_slice(H, m, table), fld)


def mobius_via_homology(table: FlatTable, fid: int, fld: int | str = 2) -> int:
    """Magnitude of the Mobius value of flat fid of the table, read off as
    the rank of the reduced homology, in degree (dim - 2), of the complex of
    its member subsets with a proper span.  The flats below fid are the
    lattice of the arrangement localized at fid, so this is the top-degree
    complex of that localization, built from the same table.

    For a one-dimensional flat the complex is empty and the degree is -1;
    the empty simplex alone survives, giving rank 1.
    """
    dim = table.dims[fid]
    if dim < 1:
        raise ValueError("flat must have dimension >= 1")
    fld = _check_field(fld)
    return slice_rank(_slice(table, table.masks[fid], dim, dim - 2), fld)
