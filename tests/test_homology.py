import random

import pytest

import flagbound.homology
from flagbound.arrangement import FlatTable, build_lattice, generate_sign_vectors
from flagbound.errors import GuardError
from flagbound.exactlin import rank
from flagbound.flags import minimal_tuple_count
from flagbound.homology import (
    ComplexSlice,
    _boundary_columns,
    _cleared,
    _mask,
    _pivots,
    build_complex_slice,
    homology_rank,
    mobius_via_homology,
    slice_rank,
)

from conftest import random_spanning_set


def test_rank_examples(sign_tables):
    expected = {1: 1, 2: 3, 3: 23}
    for n, want in expected.items():
        H, table = sign_tables[n]
        assert homology_rank(H, n - 1, table=table) == want


def test_rank_matches_minimal_count(sign_tables):
    for n in (1, 2, 3):
        H, table = sign_tables[n]
        assert homology_rank(H, n - 1, table=table) \
            == minimal_tuple_count(H, table=table)


def test_field_agreement(sign_tables):
    for n in (1, 2, 3):
        H, table = sign_tables[n]
        ranks = {homology_rank(H, n - 1, fld, table) for fld in (2, 3, "7", "Q")}
        assert len(ranks) == 1


def test_field_agreement_random_set():
    H = random_spanning_set(3, 6, 41)
    ranks = {homology_rank(H, 2, fld) for fld in (2, 5, "q")}
    assert len(ranks) == 1


def test_slice_shapes_n2():
    H = generate_sign_vectors(2)
    sl = build_complex_slice(H, 1)
    assert sl.degree == 1
    assert len(sl.faces) == 4
    assert len(sl.simplices) == 6
    assert len(sl.cofaces) == 0
    assert len(sl.boundary_out) == 6
    assert all(row < 4 for col in sl.boundary_out for row in col)
    assert len(sl.boundary_in) == 0


def test_boundary_of_boundary_vanishes(sign_tables):
    for n in (2, 3):
        H, table = sign_tables[n]
        for m in range(1, n):
            sl = build_complex_slice(H, m, table)
            for col in sl.boundary_in:
                composed: dict[int, int] = {}
                for mid, sign in col.items():
                    for row, v in sl.boundary_out[mid].items():
                        composed[row] = composed.get(row, 0) + sign * v
                assert not any(composed.values())


def test_faces_are_closed(sign_tables):
    H, table = sign_tables[3]
    sl = build_complex_slice(H, 2, table)
    face_set = set(sl.faces)
    for simplex in sl.simplices:
        for drop in range(len(simplex)):
            assert simplex[:drop] + simplex[drop + 1:] in face_set


def _columns(faces, simplices):
    """`_boundary_columns` between two layers given as vertex tuples."""
    index = {_mask(f): r for r, f in enumerate(faces)}
    return _boundary_columns(index, simplices, map(_mask, simplices))


def test_torsion_of_projective_plane():
    # the 6-vertex RP^2: H_1 = Z/2 and H_2 = 0, so both degrees rank 1 over
    # GF(2) and 0 over GF(3) and Q; reducing its triangles over Q meets a
    # pivot with leading entry 2
    triangles = [(0, 1, 2), (0, 1, 5), (0, 2, 3), (0, 3, 4), (0, 4, 5),
                 (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5)]
    edges = sorted({(t[i], t[j]) for t in triangles for i, j in ((0, 1), (0, 2), (1, 2))})
    vertices = [(v,) for v in range(6)]
    assert len(edges) == 15
    assert 2 in {col[r] for r, col in _pivots(_columns(edges, triangles), "Q").items()}
    for degree, layers in ((1, (vertices, edges, triangles)), (2, (edges, triangles, []))):
        faces, simplices, cofaces = map(tuple, layers)
        sl = ComplexSlice(degree, faces, simplices, cofaces,
                          _columns(faces, simplices), _columns(simplices, cofaces))
        assert [slice_rank(sl, fld) for fld in (2, 3, "Q")] == [1, 0, 0]


def test_clearing_keeps_boundary_out_rank(sign_tables):
    # boundary_out's column at each pivot row of boundary_in is a combination
    # of earlier columns, so skipping those columns keeps its rank
    cases = [(*sign_tables[n], n - 1) for n in (2, 3, 4)]
    for H in (random_spanning_set(3, 6, 41), random_spanning_set(3, 8, 5),
              random_spanning_set(4, 10, 7)):
        cases.append((H, None, H.ambient_dim - 2))
    skipped = 0
    for H, table, m in cases:
        sl = build_complex_slice(H, m, table)
        for fld in (2, 3, "Q"):
            _, kept = _cleared(sl, fld)
            assert len(_pivots(kept, fld)) == len(_pivots(sl.boundary_out, fld))
            skipped += len(sl.boundary_out) - len(kept)
    assert skipped > 0


def test_exact_kernel_matches_exactlin_rank():
    # integer columns with leading entries other than +-1 take the kernel's
    # scale-and-content step; exactlin.rank is the reference
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[rng.choice((0, 0, 1, -1, 2, -3, 4)) for _ in range(rows)]
                 for _ in range(cols)]
        sparse = [{r: v for r, v in enumerate(col) if v} for col in dense]
        assert len(_pivots(sparse, "Q")) == rank(dense, rows)


def test_empty_degree_gives_zero():
    H = generate_sign_vectors(2)
    assert homology_rank(H, 5) == 0


def test_reduced_vs_unreduced():
    H1 = generate_sign_vectors(1)
    assert homology_rank(H1, 0) == 1
    H2 = generate_sign_vectors(2)
    assert homology_rank(H2, 1) == 3


def test_field_validation():
    H = generate_sign_vectors(2)
    for bad in (4, 1, 0, -3, "six", "4"):
        with pytest.raises(ValueError):
            homology_rank(H, 1, fld=bad)
    with pytest.raises(ValueError):
        homology_rank(H, -2)


def _assert_mobius_via_homology(H, table):
    L = build_lattice(H, table)
    for fid, mu in enumerate(L.mobius):
        if table.dims[fid] < 1:
            continue
        assert mobius_via_homology(table, fid) == abs(mu)


def test_mobius_via_homology_matches_lattice(sign_tables):
    for n in (1, 2):
        _assert_mobius_via_homology(*sign_tables[n])


def test_mobius_via_homology_random_set():
    for H in (random_spanning_set(3, 6, 43), random_spanning_set(4, 10, 7)):
        _assert_mobius_via_homology(H, FlatTable(H))


def test_mobius_atom_is_one():
    table = FlatTable(generate_sign_vectors(2))
    atom = table.covers(table.zero_fid)[0]
    assert mobius_via_homology(table, atom) == 1


def test_mobius_rejects_bottom():
    table = FlatTable(generate_sign_vectors(2))
    with pytest.raises(ValueError):
        mobius_via_homology(table, table.zero_fid)


def test_simplex_store_guard(monkeypatch):
    monkeypatch.setattr(flagbound.homology, "MAX_BOUNDARY_NONZEROS", 3)
    with pytest.raises(GuardError):
        build_complex_slice(generate_sign_vectors(2), 1)


def test_slice_counts_before_closing_table():
    # Below the top dimension every k-subset has a proper span, so a low
    # degree needs no flat; a high one is counted (5·C(64,5) nonzeros for
    # the faces alone) and refused before the lower covers are built.
    H = generate_sign_vectors(6)
    table = FlatTable(H)
    sl = build_complex_slice(H, 1, table)
    assert (len(sl.faces), len(sl.simplices), len(sl.cofaces)) == (64, 2016, 41664)
    assert len(table.masks) == 1
    with pytest.raises(GuardError):
        build_complex_slice(H, 5, table)
    assert len(table.masks) == 1
