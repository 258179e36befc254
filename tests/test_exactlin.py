import random
from fractions import Fraction

import pytest

import flagbound.exactlin
from flagbound.exactlin import (
    SubspaceBasis,
    contains,
    primitive,
    rank,
    span,
)


def fraction_rref(vectors):
    """Naive oracle: reduced row echelon form over Fraction, unit pivots."""
    rows = [list(map(Fraction, v)) for v in vectors]
    width = len(rows[0]) if rows else 0
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [tuple(row) for row in rows[:r]]


def test_span_empty_is_zero_subspace():
    s = span([], ambient_dim=2)
    assert s.dim == 0
    assert s.rows == ()


def test_span_of_plane_is_identity_rows():
    s = span([(1, 1), (1, -1)])
    assert s.dim == 2
    assert s.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_span_of_parallel_vectors():
    s = span([(1, 1, 1), (2, 2, 2)])
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(1), Fraction(1)),)


def test_contains_zero_vector_everywhere():
    assert contains(span([], ambient_dim=2), (0, 0))
    assert contains(span([(1, 1)]), (0, 0))


def test_contains_rejects_outside_vector():
    s = span([(1, 1, 1), (1, 1, -1)])
    assert not contains(s, (1, -1, 1))


def test_contains_accepts_combination():
    s = span([(1, 1, 1, 1), (1, 1, -1, 1), (1, -1, 1, 1)])
    assert contains(s, (1, -1, -1, 1))


def test_rank_examples():
    assert rank([(1, 1), (1, -1)]) == 2
    assert rank([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]) == 3
    assert rank([(1, 1), (-1, -1)]) == 1


def test_span_stops_at_full_rank(monkeypatch):
    # Once d rows are held the span is the whole space, so the vectors after
    # them are not reduced.
    calls = []
    insert = flagbound.exactlin._insert
    monkeypatch.setattr(
        flagbound.exactlin, "_insert", lambda rows, v: calls.append(v) or insert(rows, v)
    )
    vecs = [(1, 1, 0), (2, 2, 0), (0, 1, 0), (0, 3, 5)] + [(k, 1, 2) for k in range(50)]
    assert span(vecs).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(calls) == 4
    assert rank(vecs) == 3
    assert len(calls) == 8


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        span([(1, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        span([], ambient_dim=None)
    with pytest.raises(ValueError):
        contains(span([(1, 1)]), (1, 1, 1))


def test_primitive_normalization():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((-2, 4)) == (1, -2)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((0, -3, 9)) == (0, 1, -3)


def test_canonical_idempotence_and_permutation_invariance():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 5)
        vecs = [
            tuple(rng.randint(-10, 10) for _ in range(d))
            for _ in range(rng.randint(0, 6))
        ]
        s = span(vecs, ambient_dim=d)
        again = span([tuple(int(x * r[0].denominator) for x in r) for r in s.basis]
                     or [], ambient_dim=d)
        assert span(s.rows, ambient_dim=d) == s
        assert again.dim == s.dim
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert span(shuffled, ambient_dim=d) == s
        for v in vecs:
            assert contains(s, v)


def test_exactness_against_fraction_oracle():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 5)
        vecs = [
            tuple(rng.randint(-10, 10) for _ in range(d))
            for _ in range(rng.randint(0, 7))
        ]
        oracle = fraction_rref(vecs)
        s = span(vecs, ambient_dim=d)
        assert s.dim == len(oracle)
        assert list(s.basis) == oracle


def test_subspace_identity_is_field_equality():
    a = span([(1, 2, 3), (0, 1, 1)])
    b = span([(1, 3, 4), (2, 5, 7)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.rows == b.rows


def test_membership_operator():
    s = span([(1, 0, 1)])
    assert (2, 0, 2) in s
    assert (1, 1, 1) not in s


def test_basis_rows_are_unit_pivot_rref():
    s = span([(2, 4, 2), (2, 0, 0)])
    for row in s.basis:
        lead = next(x for x in row if x)
        assert lead == 1
    cols = [next(j for j, x in enumerate(row) if x) for row in s.basis]
    assert cols == sorted(cols)
    for j, c in enumerate(cols):
        assert [row[c] for row in s.basis].count(1) == 1
        assert all(s.basis[i][c] == 0 for i in range(len(cols)) if i != j)


def test_zero_subspace_first_class():
    z = SubspaceBasis(3, ())
    assert z.dim == 0
    assert contains(z, (0, 0, 0))
    assert not contains(z, (1, 0, 0))
