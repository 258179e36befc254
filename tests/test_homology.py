import pytest

import flagbound.homology
from flagbound.arrangement import FlatTable, build_lattice, generate_sign_vectors
from flagbound.errors import GuardError
from flagbound.flags import minimal_tuple_count
from flagbound.homology import (
    build_complex_slice,
    homology_rank,
    mobius_via_homology,
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
        homology_rank(H, -1)


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
