import io
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import flagbound.arrangement
from flagbound.arrangement import (
    FlatTable,
    VectorSet,
    _digit_bits,
    _dr_regions,
    _pack,
    _restrict,
    _restrict_packed,
    build_lattice,
    chamber_count,
    chamber_count_dr,
    generate_sign_vectors,
    read_vector_set,
    schlafli_bound,
    write_vector_set,
)
from flagbound.errors import GuardError
from flagbound.exactlin import primitive, rank
from flagbound.flags import OrderPermutation, WeightVector, flag_weighted_sum, minimal_tuple_counts
from flagbound.homology import homology_rank
from flagbound.threshold import _threshold_codes

from conftest import fraction_rref, random_spanning_set


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
    cases = [sign_tables[n] for n in (1, 2, 3, 4)]
    cases += [(H, FlatTable(H)) for H in (random_spanning_set(3, 8, 41),
                                          random_spanning_set(4, 9, 42))]
    for H, table in cases:
        L = build_lattice(H, table)
        masks = table.masks
        fids = range(len(table.rows))
        for t in fids:
            total = sum(L.mobius[s] for s in fids if masks[s] & ~masks[t] == 0)
            assert total == (1 if t == table.zero_fid else 0)


def test_leq_is_member_containment():
    H = generate_sign_vectors(2)
    table = FlatTable(H)
    masks = table.masks

    def leq(s, t):
        return masks[s] & ~masks[t] == 0

    by_dim = table.fids_by_dim()
    bottom, top = table.zero_fid, by_dim[3][0]
    for f in range(len(table.rows)):
        assert leq(bottom, f)
        assert leq(f, top)
        assert leq(f, f)
    lines, planes = by_dim[1], by_dim[2]
    for p in planes:
        below = [l for l in lines if leq(l, p)]
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
    assert _dr_regions(frozenset({(1, 0, 0)}), 3, {}, [0]) == 2
    assert _dr_regions(frozenset(), 3, {}, [0]) == 1


def test_deletion_restriction_many_lines():
    # 1,000 lines through the origin of R^2 cut it into 2,000 sectors; one
    # recursion per deleted line would pass Python's recursion limit
    H = VectorSet(tuple((1, k) for k in range(1000)), 2)
    assert chamber_count_dr(H) == 2000


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
    for dim, count, seed in ((4, 10, 3), (5, 9, 4)):
        H = random_spanning_set(dim, count, seed, bound=10**6)
        cases.append((H, FlatTable(H)))
    for H, table in cases:
        table.close()
        for f in range(len(table.rows)):
            assert len(table.rows[f]) == table.dims[f]
            rows = list(table.rows[f])
            r = rank(rows)
            assert r == table.dims[f]
            members = table.members(f)
            inside = tuple(i for i, v in enumerate(H) if rank(rows + [v]) == r)
            assert members == inside
            assert fraction_rref([H[i] for i in members]) == fraction_rref(rows)


def test_e5_lattice_sizes():
    table = FlatTable(generate_sign_vectors(5))
    by_dim = [len(fids) for fids in table.fids_by_dim()]
    assert by_dim == [1, 32, 496, 2800, 5780, 3254, 1]
    assert sum(by_dim) == 12364
    assert sum(len(table.covers(f)) for f in range(len(table.rows))) == 89878
    assert table.contraction_steps == 2_562_412


def test_e5_deletion_restriction_charge():
    # The charge of MAX_DR_STEPS's unit on E_5, pinned so that no shortcut
    # in the restriction step moves it
    steps = [0]
    assert _dr_regions(frozenset(generate_sign_vectors(5)), 6, {}, steps) == 94572
    assert steps[0] == 393_130


def test_lattice_built_once_per_table():
    H = generate_sign_vectors(3)
    table = FlatTable(H)
    assert build_lattice(H, table) is build_lattice(H, table)
    assert chamber_count(H, table) == 104
    assert build_lattice(H) is not build_lattice(H)


def test_contraction_steps_counted_and_guarded(monkeypatch):
    # Ten vectors in general position in R^2: each atom is one contraction
    # of the zero flat, which steps the other nine classes, each charged its
    # width 2 plus 12; the top flat is one class of an atom and costs no step.
    vs = VectorSet(tuple((1, k) for k in range(10)), 2)
    table = FlatTable(vs)
    table.close()
    assert table.contraction_steps == 10 * 9 * (2 + 12)
    e4 = FlatTable(generate_sign_vectors(4))
    e4.close()
    assert e4.contraction_steps == 70028
    monkeypatch.setattr(flagbound.arrangement, "MAX_CONTRACTION_STEPS", 10 * 9 * 14 - 1)
    with pytest.raises(GuardError):
        FlatTable(vs).close()


def test_pending_images_counted_in_entries():
    # The coordinate vectors of R^12: the zero flat holds 12 images of
    # width 12; an atom's 11 images have width 11.
    d = 12
    vs = VectorSet(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)), d)
    table = FlatTable(vs)
    assert table.pending_images == 12 * 12
    table.covers(table.zero_fid)
    assert table.pending_images == 12 * 11 * 11
    table.close()
    assert table.pending_images == 0


def test_atoms_charged_before_they_are_built(monkeypatch):
    # 130 vectors (1, k) in R^2: each of the zero flat's 130 images is
    # charged its width 2 plus 130 // 64 = 2 for its member bits.
    vs = VectorSet(tuple((1, k) for k in range(130)), 2)
    assert FlatTable(vs).pending_images == 130 * (2 + 2)
    monkeypatch.setattr(flagbound.arrangement, "MAX_PENDING_IMAGES", 130 * 4 - 1)

    def build(v):
        raise AssertionError("an atom was built before the guard")

    monkeypatch.setattr(flagbound.arrangement, "primitive", build)
    with pytest.raises(GuardError):
        FlatTable(vs)


def test_pending_images_charged_by_digit_width():
    # An entry is one unit per 128 bits of digit, at least one: six vectors
    # with entries near 2^64 in R^6 take digits of 515 bits, four units an
    # entry.  E_n's digits, which charge_sign_vector_atoms charges one unit
    # an entry, are under 128 bits up to n = 20.
    big = 1 << 64
    vs = VectorSet(tuple(tuple(big + i if i == j else i * j for j in range(6))
                         for i in range(6)), 6)
    table = FlatTable(vs)
    assert table._digit_bits == 515
    assert table.pending_images == 6 * 6 * 4
    table.close()
    assert chamber_count(vs) == chamber_count_dr(vs) == 64
    for n in range(1, 21):
        assert _digit_bits((n + 1) ** max(n - 1, 1)) < 128


def test_restriction_step_against_rref():
    # The images in R^w / span(h), checked against the Fraction RREF oracle,
    # which shares no code with the step: y1 and y2 share an image iff
    # rank{h, y1, y2} = 2.  Each y is s h + t g for g from a pool of three,
    # so many of them share one.
    rng = random.Random(13)

    def draw(w):
        v = ()
        while not any(v):
            v = tuple(rng.randint(-4, 4) for _ in range(w))
        return v

    for _ in range(40):
        w = rng.randint(2, 5)
        h = draw(w)
        pool = [draw(w) for _ in range(3)]
        ys = []
        for _ in range(12):
            s, t, g = rng.randint(-3, 3), rng.choice((-2, -1, 1, 3)), rng.choice(pool)
            y = tuple(s * a + t * b for a, b in zip(h, g))
            if len(fraction_rref([h, y])) == 2 and y not in ys:
                ys.append(y)
        owner = {}
        for y in ys:
            (z,) = _restrict(h, [y])
            assert len(z) == w - 1 and math.gcd(*z) == 1
            owner[y] = z
        assert _restrict(h, ys) == set(owner.values())
        for y1 in owner:
            for y2 in owner:
                assert (owner[y1] == owner[y2]) == (len(fraction_rref([h, y1, y2])) == 2)


def test_restriction_step_shortcuts():
    # Width 2, where every image is (1,), and a zero entry on h's pivot,
    # where the image is y without it made primitive; each y's class is
    # pinned and checked against the Fraction RREF oracle.
    cases = [
        ((-3, 2), {(1, 0): (1,), (2, -5): (1,), (0, 1): (1,)}),
        ((2, 5), {(1, -1): (1,)}),
        ((2, 5), {}),
        # (0, 2, 4) is not primitive; (2, 1, 0) takes the full step and
        # lands in the class of (0, 1, 2)
        ((1, 1, 1), {(0, 2, 4): (1, 2), (0, 1, 2): (1, 2), (0, -3, 3): (1, -1),
                     (2, 1, 0): (1, 2), (3, 0, -1): (3, 4)}),
        ((0, 2, -1), {(5, 0, 10): (1, 2), (-1, 0, -2): (1, 2), (1, 1, 0): (2, 1)}),
    ]
    for h, owner in cases:
        assert _restrict(h, list(owner)) == set(owner.values())
        for y, z in owner.items():
            assert _restrict(h, [y]) == {z}
        for y1 in owner:
            for y2 in owner:
                assert (owner[y1] == owner[y2]) == (len(fraction_rref([h, y1, y2])) == 2)


def _unpack(z, bits, w):
    """The w balanced digits of a packed image, most significant first."""
    out = []
    for _ in range(w):
        x = z % (1 << bits)
        if x >= 1 << (bits - 1):
            x -= 1 << bits
        out.append(x)
        z = (z - x) >> bits
    assert z == 0
    return tuple(reversed(out))


def test_packed_restriction_step_against_rref():
    # The table's step on packed images, for primitive images as the table
    # holds them: the results, unpacked with h's pivot digit (which it
    # leaves 0) dropped, are _restrict's images of the same vectors without
    # h, and the classes are checked against the Fraction RREF oracle as in
    # the test above.  The digits
    # are _digit_bits of the largest entry; the second half of the cases
    # draw entries of +-M and +-(M - 1) for M = 2^k - 1, so that
    # a * y - b * h reaches about 2 M^2, the most that width holds.
    rng = random.Random(13)

    def draw(w, big):
        v = ()
        while not any(v):
            if big:
                v = tuple(rng.choice((-big, 1 - big, 0, big - 1, big)) for _ in range(w))
            else:
                v = tuple(rng.randint(-4, 4) for _ in range(w))
        return primitive(v)

    for case in range(80):
        w = rng.randint(2, 5)
        big = (1 << rng.randint(2, 40)) - 1 if case >= 40 else 0
        h = draw(w, big)
        pool = [draw(w, 0) for _ in range(3)]
        ys = {h: 1}
        for _ in range(12):
            if big:
                y = draw(w, big)
            else:
                s, t, g = rng.randint(-3, 3), rng.choice((-2, -1, 1, 3)), rng.choice(pool)
                y = primitive(tuple(s * a + t * b for a, b in zip(h, g)))
            if len(fraction_rref([h, y])) == 2:
                ys.setdefault(y, 1 << len(ys))
        width = _digit_bits(max(abs(x) for y in ys for x in y) ** 2)
        pys = {_pack(y, width): b for y, b in ys.items()}
        packed = _restrict_packed(next(iter(pys)), pys, w, width)  # h is ys's first key
        c = next(k for k, x in enumerate(h) if x)
        images = {}
        for z, b in packed.items():
            if w == 2:
                assert z == 1
                images[(1,)] = b
                continue
            digits = _unpack(z, width, w)
            assert digits[c] == 0
            images[digits[:c] + digits[c + 1:]] = b
        assert set(images) == _restrict(h, [y for y in ys if y != h])
        owner = {}
        for z, bits in images.items():
            assert len(z) == w - 1 and math.gcd(*z) == 1 and primitive(z) == z
            for y, bit in ys.items():
                if bits & bit:
                    owner[y] = z
        assert h not in owner
        assert sorted(owner) == sorted(y for y in ys if y is not h)
        for y1 in owner:
            for y2 in owner:
                assert (owner[y1] == owner[y2]) == (len(fraction_rref([h, y1, y2])) == 2)


def test_lattice_and_deletion_restriction_use_separate_steps(monkeypatch):
    # The table steps packed images and deletion-restriction steps tuples;
    # each route still counts E_4 with the other's step refusing to run.
    H = generate_sign_vectors(4)

    def refuse(*args):
        raise AssertionError("the other route's restriction step ran")

    with monkeypatch.context() as m:
        m.setattr(flagbound.arrangement, "_restrict", refuse)
        assert chamber_count(H) == 1882
    monkeypatch.setattr(flagbound.arrangement, "_restrict_packed", refuse)
    assert chamber_count_dr(H) == 1882


def _traced_functions(run):
    """The flagbound functions (code objects) that run() calls."""
    root = str(Path(flagbound.__file__).parent)
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_route_map_deletion_restriction_shares_only_primitive():
    # Each route on E_4, the set built outside the trace: deletion-
    # restriction shares no function with the four table routes (the
    # lattice count, lambda, the flag sum and homology) but primitive,
    # which makes its images primitive and the table its atoms, and the
    # census shares none with any of the five.  A route that gains a shared
    # function fails here.
    def names(codes):
        return {f"{Path(c.co_filename).stem}.{c.co_name}" for c in codes}

    H = generate_sign_vectors(4)
    orders = [OrderPermutation.random(len(H), s) for s in range(3)]
    p = WeightVector.uniform(len(H))
    dr = _traced_functions(lambda: chamber_count_dr(H))
    census = _traced_functions(lambda: sum(1 for _ in _threshold_codes(H)))
    assert names(census & dr) == set()
    tables = {
        "chamber_count": lambda: chamber_count(H),
        "minimal_tuple_counts": lambda: minimal_tuple_counts(H, orders),
        "flag_weighted_sum": lambda: flag_weighted_sum(H, p),
        "homology_rank": lambda: homology_rank(H, H.ambient_dim - 2),
    }
    for name, run in tables.items():
        route = _traced_functions(run)
        assert names(dr & route) == {"exactlin.primitive"}, name
        assert names(census & route) == set(), name


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
    cases = [(3, 5, 0), (3, 6, 1), (3, 7, 2), (4, 6, 3), (4, 8, 4),
             (4, 16, 5), (5, 10, 6), (4, 12, 7)]
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
