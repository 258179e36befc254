import random

import pytest

from flagbound.arrangement import generate_sign_vectors
from flagbound.exactlin import primitive, rank

from conftest import fraction_rref


class CountingReads:
    """A sequence that counts how many of its elements are read."""

    def __init__(self, items):
        self.items = items
        self.reads = 0

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads += 1
        return self.items[i]

    def __iter__(self):
        for v in self.items:
            self.reads += 1
            yield v


def test_span_empty_is_zero_subspace():
    assert rank([]) == 0


def test_span_of_parallel_vectors():
    assert rank([(1, 1, 1), (2, 2, 2)]) == 1


def test_contains_zero_vector_everywhere():
    # v lies in the span of S iff rank(S + [v]) == rank(S)
    assert rank([(0, 0)]) == rank([]) == 0
    assert rank([(1, 1), (0, 0)]) == rank([(1, 1)]) == 1


def test_contains_rejects_outside_vector():
    s = [(1, 1, 1), (1, 1, -1)]
    assert rank(s + [(1, -1, 1)]) == rank(s) + 1


def test_contains_accepts_combination():
    s = [(1, 1, 1, 1), (1, 1, -1, 1), (1, -1, 1, 1)]
    assert rank(s + [(1, -1, -1, 1)]) == rank(s) == 3


def test_rank_examples():
    assert rank([(1, 1), (1, -1)]) == 2
    assert rank([(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]) == 3
    assert rank([(1, 1), (-1, -1)]) == 1


def test_span_stops_at_full_rank():
    # Once d rows are held they span the whole space, so no later vector is
    # read: here the width, then indices 0, 1, 2 and 4.
    vecs = CountingReads(
        [(1, 1, 0), (2, 2, 0), (0, 1, 0), (0, 3, 5)] + [(k, 1, 2) for k in range(50)])
    assert rank(vecs) == 3
    assert vecs.reads == 5


def test_rank_of_sign_vectors_reads_n_plus_two():
    # E_n's first 2^(n-1) vectors lie in the hyperplane x_0 = x_1, but index
    # 0 and the powers of two span R^(n+1).
    n = 12
    vecs = CountingReads(generate_sign_vectors(n).vectors)
    assert rank(vecs) == n + 1
    assert vecs.reads <= n + 2


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        rank([(1, 1), (1, 1, 1)])
    with pytest.raises(ValueError):
        rank([(1, 0), (0, 1, 5)])


def test_primitive_normalization():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((-2, 4)) == (1, -2)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((0, -3, 9)) == (0, 1, -3)


def test_exactness_against_fraction_oracle():
    # Random lists, rank-deficient ones (combinations of fewer than d
    # vectors) and ones whose last vector leaves the hyperplane spanned by
    # the rest, with entries up to 10^6 in size; each also shuffled.
    rng = random.Random(7)

    def draw(d, bound):
        return tuple(rng.randint(-bound, bound) for _ in range(d))

    def combinations_of(basis, count, d):
        out = []
        for _ in range(count):
            coefs = [rng.randint(-3, 3) for _ in basis]
            out.append(tuple(sum(c * b[j] for c, b in zip(coefs, basis)) for j in range(d)))
        return out

    cases = [[]]
    while len(cases) < 240:
        d = rng.randint(1, 5)
        bound = rng.choice((1, 10, 10**6))
        kind = len(cases) % 3
        if kind == 0:
            vecs = [draw(d, bound) for _ in range(rng.randint(1, 7))]
        elif kind == 1:
            basis = [draw(d, bound) for _ in range(rng.randint(0, d - 1))]
            vecs = combinations_of(basis, rng.randint(1, 7), d)
            assert len(fraction_rref(vecs)) < d
        else:
            basis = [draw(d, bound) for _ in range(d - 1)]
            vecs = combinations_of(basis, rng.randint(d - 1, 7), d) + [draw(d, bound)]
            if len(fraction_rref(vecs[:-1])) != d - 1 or len(fraction_rref(vecs)) != d:
                continue
        cases.append(vecs)
    full_at_last = 0
    for vecs in cases:
        want = len(fraction_rref(vecs))
        assert rank(vecs) == want
        shuffled = vecs[:]
        rng.shuffle(shuffled)
        assert rank(shuffled) == want
        if vecs and want == len(vecs[0]) > len(fraction_rref(vecs[:-1])):
            full_at_last += 1
    assert full_at_last >= 60
