import random
from fractions import Fraction

import pytest

from flagbound.arrangement import FlatTable, VectorSet, generate_sign_vectors
from flagbound.exactlin import primitive, rank


def fraction_rref(vectors):
    """Naive oracle: reduced row echelon form over Fraction, unit pivots.
    It is canonical, so two lists span one subspace iff their forms agree."""
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


def random_spanning_set(dim: int, count: int, seed: int, bound: int = 3) -> VectorSet:
    """Deterministic random VectorSet: integer entries in [-bound, bound],
    zero vectors and parallel pairs rejected, redrawn until it spans."""
    attempt = 0
    while True:
        rng = random.Random(seed * 1_000_003 + attempt)
        picked: list[tuple[int, ...]] = []
        directions = set()
        tries = 0
        while len(picked) < count and tries < 10000:
            tries += 1
            v = tuple(rng.randint(-bound, bound) for _ in range(dim))
            if not any(v):
                continue
            p = primitive(v)
            if p in directions:
                continue
            directions.add(p)
            picked.append(v)
        if len(picked) == count and rank(picked) == dim:
            return VectorSet(tuple(picked), dim)
        attempt += 1


@pytest.fixture(scope="session")
def sign_tables():
    """Shared (VectorSet, FlatTable) pairs for n = 1..4."""
    out = {}
    for n in range(1, 5):
        vs = generate_sign_vectors(n)
        out[n] = (vs, FlatTable(vs))
    return out
