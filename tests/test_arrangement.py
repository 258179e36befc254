import io
import random
from collections import Counter

import pytest

import flagbound.arrangement
from flagbound.arrangement import (
    FlatTable,
    IntersectionLattice,
    VectorSet,
    _dr_regions,
    build_lattice,
    chamber_count,
    chamber_count_dr,
    generate_sign_vectors,
    read_vector_set,
    schlafli_bound,
    write_vector_set,
)
from flagbound.errors import GuardError
from flagbound.exactlin import SubspaceBasis, span

from conftest import random_spanning_set


def test_generate_n1():
    assert list(generate_sign_vectors(1)) == [(1, 1), (1, -1)]


def test_generate_n2():
    assert list(generate_sign_vectors(2)) == [
        (1, 1, 1),
        (1, 1, -1),
        (1, -1, 1),
        (1, -1, -1),
    ]


def test_generate_sizes_and_first_coordinate():
    for n in range(1, 5):
        vs = generate_sign_vectors(n)
        assert len(vs) == 2**n
        assert all(v[0] == 1 for v in vs)
        assert all(set(v[1:]) <= {1, -1} for v in vs)
        assert len(set(vs)) == len(vs)


def test_generate_pairwise_non_parallel():
    vs = generate_sign_vectors(4)
    assert len(vs) == 16
    # first coordinate is +1 throughout, so parallel would mean equal
    assert len({v for v in vs}) == 16


def test_generate_guard():
    for bad in (0, -3, 21):
        with pytest.raises(GuardError):
            generate_sign_vectors(bad)


def test_vector_set_validation():
    with pytest.raises(ValueError):
        VectorSet.from_rows([(1, 0), (0, 1, 1)])
    with pytest.raises(ValueError):
        VectorSet.from_rows([(1, 0), (0, 0)])
    with pytest.raises(ValueError):
        VectorSet.from_rows([(1, 1), (-2, -2)])
    with pytest.raises(ValueError):
        VectorSet.from_rows([(1, 1, 0), (1, -1, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        VectorSet.from_rows([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        VectorSet.from_rows([])


def test_lattice_n1_structure():
    H = generate_sign_vectors(1)
    table = FlatTable(H)
    L = build_lattice(H, table)
    assert sorted(table.dims) == [0, 1, 1, 2]
    top = table.dims.index(2)
    assert table.members(table.zero_fid) == ()
    assert table.members(top) == (0, 1)
    assert L.mobius[table.zero_fid] == 1
    assert L.mobius[top] == 1
    assert sorted(L.mobius) == [-1, -1, 1, 1]
    assert L.chamber_count() == 4


def test_lattice_n2_mobius_multiset():
    L = build_lattice(generate_sign_vectors(2))
    values = sorted(L.mobius)
    assert values == [-3, -1, -1, -1, -1, 1, 1, 1, 1, 1, 1, 1]
    assert sum(abs(v) for v in values) == 14
    assert L.chamber_count() == 14


def test_atoms_match_vector_count(sign_tables):
    for n, (H, table) in sign_tables.items():
        atoms = table.fids_by_dim()[1]
        assert len(atoms) == len(H)
        for f in atoms:
            assert len(table.members(f)) == 1


def test_mobius_defining_identity(sign_tables):
    for n in (1, 2, 3):
        H, table = sign_tables[n]
        L = build_lattice(H, table)
        fids = range(len(table.rows))
        for t in fids:
            total = sum(L.mobius[s] for s in fids if L.leq(s, t))
            assert total == (1 if t == table.zero_fid else 0)


def test_leq_is_member_containment():
    H = generate_sign_vectors(2)
    table = FlatTable(H)
    L = build_lattice(H, table)
    by_dim = table.fids_by_dim()
    bottom, top = table.zero_fid, by_dim[3][0]
    for f in range(len(table.rows)):
        assert L.leq(bottom, f)
        assert L.leq(f, top)
        assert L.leq(f, f)
    lines, planes = by_dim[1], by_dim[2]
    for p in planes:
        below = [l for l in lines if L.leq(l, p)]
        assert len(below) == len(table.members(p))


def test_chamber_counts_small(sign_tables):
    expected = {1: 4, 2: 14, 3: 104}
    for n, want in expected.items():
        H, table = sign_tables[n]
        assert chamber_count(H, table) == want
        assert chamber_count_dr(H) == want


def test_deletion_restriction_base_case():
    # a single hyperplane splits 3-space into two parts; VectorSet
    # requires a spanning set, so probe the recursion directly
    assert _dr_regions(frozenset({(1, 0, 0)}), 3, {}) == 2
    assert _dr_regions(frozenset(), 3, {}) == 1


def test_schlafli_values_and_guard():
    assert schlafli_bound(1) == 4
    assert schlafli_bound(2) == 14
    assert schlafli_bound(3) == 128
    for bad in (0, 63):
        with pytest.raises(GuardError):
            schlafli_bound(bad)


def test_chambers_within_schlafli(sign_tables):
    for n, (H, table) in sign_tables.items():
        c = chamber_count(H, table)
        s = schlafli_bound(n)
        assert c <= s
        if n <= 2:
            assert c == s
        else:
            assert c < s


def test_flat_members_are_exactly_contained_vectors(sign_tables):
    cases = [sign_tables[n] for n in (2, 3, 4)]
    for seed in range(3):
        H = random_spanning_set(4, 12, seed)
        cases.append((H, FlatTable(H)))
    for H, table in cases:
        table.close()
        for f in range(len(table.rows)):
            sub = SubspaceBasis(H.ambient_dim, table.rows[f])
            members = table.members(f)
            inside = tuple(i for i, v in enumerate(H) if v in sub)
            assert members == inside
            assert span([H[i] for i in members], H.ambient_dim) == sub


def test_e5_lattice_sizes():
    table = FlatTable(generate_sign_vectors(5))
    by_dim = [len(fids) for fids in table.fids_by_dim()]
    assert by_dim == [1, 32, 496, 2800, 5780, 3254, 1]
    assert sum(by_dim) == 12364
    assert sum(len(table.covers(f)) for f in range(len(table.rows))) == 89878


def test_lattice_built_once_per_table():
    H = generate_sign_vectors(3)
    table = FlatTable(H)
    assert build_lattice(H, table) is build_lattice(H, table)
    assert chamber_count(H, table) == 104
    assert build_lattice(H) is not build_lattice(H)


def test_contraction_steps_counted_and_guarded(monkeypatch):
    # Ten vectors in general position in R^2: each atom is one contraction
    # of the zero flat, which steps the other nine classes; the top flat is
    # one class of an atom and costs no step.
    vs = VectorSet(tuple((1, k) for k in range(10)), 2)
    table = FlatTable(vs)
    table.close()
    assert table.contraction_steps == 10 * 9
    e4 = FlatTable(generate_sign_vectors(4))
    e4.close()
    assert e4.contraction_steps == 4558
    monkeypatch.setattr(flagbound.arrangement, "MAX_CONTRACTION_STEPS", 89)
    with pytest.raises(GuardError):
        FlatTable(vs).close()


def test_flat_table_interning(sign_tables):
    H, table = sign_tables[2]
    a = table.extend(table.zero_fid, 0)
    b = table.extend(table.zero_fid, 0)
    assert a == b
    again = table.extend(a, 1)
    swapped = table.extend(table.extend(table.zero_fid, 1), 0)
    assert again == swapped


def test_flat_table_members_sorted(sign_tables):
    H, table = sign_tables[3]
    for dim_fids in table.fids_by_dim():
        for fid in dim_fids:
            ms = table.members(fid)
            assert list(ms) == sorted(ms)


def test_random_sets_zaslavsky_matches_sweep():
    cases = [(3, 5, 0), (3, 6, 1), (3, 7, 2), (4, 6, 3), (4, 8, 4)]
    for dim, count, seed in cases:
        H = random_spanning_set(dim, count, seed)
        assert chamber_count(H) == chamber_count_dr(H)


def test_vector_set_file_roundtrip(tmp_path):
    H = generate_sign_vectors(2)
    path = tmp_path / "e2.txt"
    write_vector_set(str(path), H)
    back = read_vector_set(str(path))
    assert list(back) == list(H)
    text = path.read_text()
    assert text.splitlines()[0] == "4 3"


def test_vector_set_stream_roundtrip():
    H = random_spanning_set(3, 5, 9)
    buf = io.StringIO()
    write_vector_set(buf, H)
    buf.seek(0)
    assert list(read_vector_set(buf)) == list(H)


def test_read_vector_set_comments_and_blanks():
    src = io.StringIO("# comment\n\n2 2\n1 1\n\n# another\n1 -1\n")
    assert list(read_vector_set(src)) == [(1, 1), (1, -1)]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "2\n1 1\n1 -1\n",  # short header
        "x 2\n1 1\n1 -1\n",  # non-numeric header
        "3 2\n1 1\n1 -1\n",  # row count mismatch
        "2 2\n1 1\n1 -1\n0 1\n",  # extra row
        "2 2\n1 1\n1 -1 3\n",  # width mismatch
        "2 2\n1 1\na b\n",  # non-integer entry
        "2 2\n1 1\n2 2\n",  # parallel rows rejected by validation
    ],
)
def test_read_vector_set_malformed(text):
    with pytest.raises(ValueError):
        read_vector_set(io.StringIO(text))


def test_vector_set_sequence_protocol():
    H = generate_sign_vectors(1)
    assert len(H) == 2
    assert H[0] == (1, 1)
    assert H[1] == (1, -1)
    assert [v for v in H] == [(1, 1), (1, -1)]


def test_shared_table_is_reused():
    H = generate_sign_vectors(2)
    table = FlatTable(H)
    c1 = chamber_count(H, table)
    L = build_lattice(H, table)
    assert c1 == L.chamber_count() == 14
