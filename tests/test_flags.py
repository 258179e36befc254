import io
import math
from fractions import Fraction

import pytest

from flagbound.arrangement import FlatTable, VectorSet, chamber_count, generate_sign_vectors
from flagbound.errors import GuardError
from flagbound.exactlin import span
from flagbound.flags import (
    IndexTuple,
    OrderPermutation,
    WeightVector,
    count_admissible_orders,
    enumerate_tuples,
    flag_lower_bound,
    flag_weighted_sum,
    flag_weighted_sum_by_enumeration,
    minimal_tuple_count,
    minimal_tuples,
    monte_carlo_expectation,
    read_weight_vector,
    write_weight_vector,
)

from conftest import random_spanning_set


def test_enumerate_n1():
    got = [(t.indices, f.counts, f.product) for t, f in
           enumerate_tuples(generate_sign_vectors(1))]
    assert sorted(got) == [((0,), (1,), 1), ((1,), (1,), 1)]


def test_enumerate_n2_all_pairs():
    seen = {}
    for t, f in enumerate_tuples(generate_sign_vectors(2)):
        seen[t.indices] = (f.counts, f.product, f.top_members)
    assert len(seen) == 12
    for (i, j), (counts, product, top) in seen.items():
        assert i != j
        assert counts == (2, 1)
        assert product == 2
        assert top == tuple(sorted((i, j)))


def test_enumerate_n3_specific_flag():
    H = generate_sign_vectors(3)
    assert H[0] == (1, 1, 1, 1)
    assert H[2] == (1, 1, -1, 1)
    assert H[4] == (1, -1, 1, 1)
    assert H[6] == (1, -1, -1, 1)
    found = {t.indices: f for t, f in enumerate_tuples(H)}
    f = found[(0, 2, 4)]
    assert f.counts == (4, 2, 1)
    assert f.product == 8
    assert len(f.top_members) == 4
    assert 6 in f.top_members


def test_flag_invariants(sign_tables):
    for n in (2, 3):
        H, table = sign_tables[n]
        for t, f in enumerate_tuples(H, table):
            assert f.product == math.prod(f.counts)
            assert all(a > b for a, b in zip(f.counts, f.counts[1:]))
            assert f.counts[-1] == 1
            # no 2-dim span of sign vectors holds a third one
            if len(f.counts) >= 2:
                assert f.counts[-2] == 2
            assert len(f.top_members) == f.counts[0]
            assert set(t.indices) <= set(f.top_members)


def test_sum_n1_any_p():
    H = generate_sign_vectors(1)
    assert flag_weighted_sum(H, (Fraction(1, 2), Fraction(1, 2))) == 1
    assert flag_weighted_sum(H, (Fraction(2), Fraction(-1))) == 1


def test_sum_n2_examples():
    H = generate_sign_vectors(2)
    assert flag_weighted_sum(H, WeightVector.uniform(4)) == 3
    assert flag_weighted_sum(H, (1, 0, 0, 0)) == 3
    third = Fraction(-1, 3)
    assert flag_weighted_sum(H, (Fraction(2), third, third, third)) == 3


def test_sum_independent_of_p(sign_tables):
    for n in (2, 3):
        H, table = sign_tables[n]
        values = {flag_weighted_sum(H, WeightVector.random(len(H), s), table)
                  for s in range(10)}
        assert len(values) == 1


def test_grouped_sum_matches_enumeration(sign_tables):
    H, table = sign_tables[2]
    for s in range(3):
        p = WeightVector.random(4, s)
        assert (flag_weighted_sum(H, p, table)
                == flag_weighted_sum_by_enumeration(H, p, table))
    R = random_spanning_set(3, 6, 17)
    p = WeightVector.random(6, 0)
    assert flag_weighted_sum(R, p) == flag_weighted_sum_by_enumeration(R, p)


def test_weight_vector_errors():
    with pytest.raises(ValueError):
        WeightVector.from_items([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        flag_weighted_sum(generate_sign_vectors(2), (1, 0, 0))
    with pytest.raises(ValueError):
        flag_weighted_sum(generate_sign_vectors(2), (1, 1, 0, 1))


def test_weight_vector_random_profile():
    for s in range(10):
        p = WeightVector.random(6, s)
        assert sum(p.weights) == 1
        assert all(Fraction(-2) <= w <= Fraction(2) for w in p.weights[:-1])
    assert WeightVector.random(6, 1).weights == WeightVector.random(6, 1).weights


def test_lower_bound_examples():
    assert flag_lower_bound(1, (Fraction(1, 2), Fraction(1, 2))) == 2
    assert flag_lower_bound(2, WeightVector.uniform(4)) == 6
    third = Fraction(-1, 3)
    assert flag_lower_bound(2, (Fraction(2), third, third, third)) == 6


def test_lower_bound_rejects_table_for_other_set(sign_tables):
    _, table = sign_tables[3]
    with pytest.raises(ValueError):
        flag_lower_bound(4, WeightVector.uniform(16), table)


def test_minimal_counts(sign_tables):
    expected = {1: 1, 2: 3, 3: 23}
    for n, want in expected.items():
        H, table = sign_tables[n]
        assert minimal_tuple_count(H, table=table) == want


def test_minimal_sets_small():
    assert sorted(t.indices for t in minimal_tuples(generate_sign_vectors(1))) \
        == [(1,)]
    assert sorted(t.indices for t in minimal_tuples(generate_sign_vectors(2))) \
        == [(1, 2), (1, 3), (2, 3)]


def test_minimal_set_size_matches_count(sign_tables):
    for n in (1, 2, 3):
        H, table = sign_tables[n]
        for s in range(3):
            order = OrderPermutation.random(len(H), s)
            assert (len(minimal_tuples(H, order, table))
                    == minimal_tuple_count(H, order, table))


def test_order_invariance(sign_tables):
    for n in (2, 3):
        H, table = sign_tables[n]
        base = minimal_tuple_count(H, table=table)
        for s in range(20):
            order = OrderPermutation.random(len(H), s)
            assert minimal_tuple_count(H, order, table) == base


def test_minimal_count_after_lazy_tuple_walk():
    # The tuple walk builds the table depth first, so its flat ids are out
    # of dimension order before minimal_tuple_count closes it; a pass in id
    # order would miss paths.
    cases = [generate_sign_vectors(3), generate_sign_vectors(4), random_spanning_set(5, 10, 5)]
    for H in cases:
        table = FlatTable(H)
        list(enumerate_tuples(H, table))
        assert table.dims != sorted(table.dims)
        fresh = FlatTable(H)
        for order in [None] + [OrderPermutation.random(len(H), s) for s in range(3)]:
            assert (minimal_tuple_count(H, order, table)
                    == minimal_tuple_count(H, order, fresh))


def suffix_minimal_tuples(H, order, include_first_condition):
    """Reference predicate: each tuple entry is the order-minimal member of
    the sub-span it starts, optionally also requiring the order-first
    vector of H to fall outside the tuple's span."""
    out = set()
    vecs = list(H)
    for t, _ in enumerate_tuples(H):
        idx = t.indices
        ok = True
        for l in range(len(idx)):
            s = span([vecs[i] for i in idx[l:]])
            members = [i for i in range(len(vecs)) if vecs[i] in s]
            if order.minimum(members) != idx[l]:
                ok = False
                break
        if ok and include_first_condition:
            top = span([vecs[i] for i in idx])
            if vecs[order.first] in top:
                ok = False
        if ok and not include_first_condition:
            if any(order.position[i] == 0 for i in idx):
                ok = False
        if ok:
            out.add(t)
    return out


def test_minimality_condition_forms_agree():
    # the explicit outside-the-span form and the positions-not-first form
    # select the same tuples once the sub-span minimality holds
    cases = [generate_sign_vectors(2), random_spanning_set(3, 5, 21)]
    for H in cases:
        for s in range(4):
            order = OrderPermutation.random(len(H), s)
            explicit = suffix_minimal_tuples(H, order, True)
            positional = suffix_minimal_tuples(H, order, False)
            assert explicit == positional
            assert minimal_tuples(H, order) == explicit


def test_minimal_tuples_positions_increase():
    H = generate_sign_vectors(3)
    for s in range(3):
        order = OrderPermutation.random(len(H), s)
        for t in minimal_tuples(H, order):
            pos = [order.position[i] for i in t.indices]
            assert pos == sorted(pos)
            assert all(q >= 1 for q in pos)


def test_count_admissible_orders_examples():
    H2 = generate_sign_vectors(2)
    assert count_admissible_orders(H2, (0, 1), 2) == 3
    H1 = generate_sign_vectors(1)
    assert count_admissible_orders(H1, (1,), 0) == 1


def test_count_admissible_orders_exhaustive_e2():
    H = generate_sign_vectors(2)
    table = None
    flags = {t.indices: f for t, f in enumerate_tuples(H)}
    checked = 0
    for W, f in flags.items():
        for i in range(4):
            if i in f.top_members:
                continue
            count = count_admissible_orders(H, W, i, table)
            assert count * f.product == math.factorial(3)
            checked += 1
    assert checked == 24


def test_count_admissible_orders_random_sets():
    for dim, count, seed in ((3, 5, 31), (3, 6, 32)):
        H = random_spanning_set(dim, count, seed)
        vecs = list(H)
        for W, f in ((t.indices, f) for t, f in enumerate_tuples(H)):
            top = span([vecs[i] for i in W])
            for i in range(len(vecs)):
                if vecs[i] in top:
                    continue
                assert (count_admissible_orders(H, W, i)
                        * f.product == math.factorial(len(vecs) - 1))


def test_count_admissible_orders_errors():
    with pytest.raises(GuardError):
        count_admissible_orders(generate_sign_vectors(4), (0, 1, 2, 3), 4)
    with pytest.raises(ValueError):
        count_admissible_orders(generate_sign_vectors(2), (0, 1), 0)
    with pytest.raises(ValueError):
        count_admissible_orders(generate_sign_vectors(2), (0, 1), 9)
    H = VectorSet.from_rows(
        [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(ValueError):
        count_admissible_orders(H, (0, 1, 2), 3)


def test_monte_carlo_constant(sign_tables):
    H2, t2 = sign_tables[2]
    mean, stderr = monte_carlo_expectation(H2, WeightVector.uniform(4), 500, 0, t2)
    assert mean == 3
    assert stderr == 0.0
    H3, t3 = sign_tables[3]
    mean, stderr = monte_carlo_expectation(H3, WeightVector.uniform(8), 50, 1, t3)
    assert mean == minimal_tuple_count(H3, table=t3) == 23
    assert stderr == 0.0


def test_monte_carlo_single_sample():
    mean, stderr = monte_carlo_expectation(
        generate_sign_vectors(2), WeightVector.uniform(4), 1, 9)
    assert mean.denominator == 1
    assert stderr == 0.0


def test_monte_carlo_degenerate_weights():
    H = generate_sign_vectors(2)
    mean, _ = monte_carlo_expectation(H, (1, 0, 0, 0), 40, 2)
    assert mean == 3


def test_monte_carlo_errors():
    H = generate_sign_vectors(2)
    third = Fraction(-1, 3)
    with pytest.raises(ValueError):
        monte_carlo_expectation(H, (Fraction(2), third, third, third), 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_expectation(H, WeightVector.uniform(4), 0, 0)


def test_index_tuple_validation():
    with pytest.raises(ValueError):
        IndexTuple((1, 1))
    with pytest.raises(ValueError):
        IndexTuple((-1, 2))
    t = IndexTuple((2, 0))
    assert len(t) == 2
    assert list(t) == [2, 0]


def test_order_permutation_validation():
    o = OrderPermutation.from_order((2, 0, 1))
    assert o.position == (1, 2, 0)
    assert o.first == 2
    assert o.minimum((0, 1)) == 0
    assert OrderPermutation.identity(3).order == (0, 1, 2)
    with pytest.raises(ValueError):
        OrderPermutation.from_order((0, 0, 1))
    with pytest.raises(ValueError):
        OrderPermutation((0, 1), (1, 0))
    assert (OrderPermutation.random(6, 4).order
            == OrderPermutation.random(6, 4).order)


def test_weight_file_roundtrip(tmp_path):
    p = WeightVector.from_items(
        [Fraction(1, 3), Fraction(1, 6), Fraction(3, 2), Fraction(-1)])
    path = tmp_path / "w.txt"
    write_weight_vector(str(path), p)
    assert read_weight_vector(str(path)) == p


def test_weight_file_stream_and_comments():
    src = io.StringIO("# weights\n1/2\n\n1/4\n1/4\n")
    assert read_weight_vector(src).weights == (
        Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    with pytest.raises(ValueError):
        read_weight_vector(io.StringIO("1/2\n1/3\n"))
    with pytest.raises(ValueError):
        read_weight_vector(io.StringIO("1/2\nhalf\n"))


def test_bound_vs_chambers(sign_tables):
    for n in (1, 2, 3, 4):
        H, table = sign_tables[n]
        lam = minimal_tuple_count(H, table=table)
        assert 2 * lam <= chamber_count(H, table)
