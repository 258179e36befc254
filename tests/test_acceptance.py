"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion NN <name>: PASS/FAIL" line (visible under `pytest -s`;
`pytest -v` shows the same verdicts as test outcomes).  All comparisons
are exact; the only tolerances here are wall-clock budgets.
"""

import contextlib
import math
import time
from fractions import Fraction

from flagbound.arrangement import (
    build_lattice,
    chamber_count,
    chamber_count_dr,
    generate_sign_vectors,
    schlafli_bound,
)
from flagbound.flags import (
    OrderPermutation,
    WeightVector,
    count_admissible_orders,
    enumerate_tuples,
    flag_lower_bound,
    flag_weighted_sum,
    minimal_tuple_count,
    minimal_tuples,
    monte_carlo_expectation,
)
from flagbound.homology import homology_rank, mobius_via_homology
import flagbound.threshold
from flagbound.threshold import (
    BooleanFunction,
    _threshold_codes,
    count_threshold_functions,
    is_threshold,
)

from conftest import random_spanning_set


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def ten_weight_vectors(count):
    vectors = [WeightVector.random(count, seed) for seed in range(10)]
    negatives = sum(1 for p in vectors if any(w < 0 for w in p.weights))
    assert negatives >= 3
    return vectors


def test_criterion_01_ground_truth_chain(sign_tables, monkeypatch):
    with criterion(1, "ground truth chain"):
        start = time.monotonic()
        expected = {1: 4, 2: 14, 3: 104, 4: 1882}
        # FM calls of the pruned census, whose witnesses and stored cores
        # decide the other children; the exhaustive loop makes 2^(2^n)
        expected_calls = {1: 3, 2: 17, 3: 127, 4: 2110}
        feasible = flagbound.threshold._feasible
        calls = [0]

        def counted(rows, nvars):
            calls[0] += 1
            return feasible(rows, nvars)

        monkeypatch.setattr(flagbound.threshold, "_feasible", counted)
        for n in range(1, 5):
            H, table = sign_tables[n]
            calls[0] = 0
            census = count_threshold_functions(n)
            assert calls[0] == expected_calls[n]
            lattice = chamber_count(H, table)
            sweep = chamber_count_dr(H)
            assert census == lattice == sweep == expected[n]
        assert time.monotonic() - start <= 600


def test_criterion_02_weighted_sum_identity(sign_tables):
    with criterion(2, "weighted sum equals minimal count"):
        start = time.monotonic()
        for n in range(1, 5):
            H, table = sign_tables[n]
            lam = minimal_tuple_count(H, table=table)
            for p in ten_weight_vectors(len(H)):
                assert flag_weighted_sum(H, p, table) == lam
        assert time.monotonic() - start <= 300


def test_criterion_03_order_independence(sign_tables):
    with criterion(3, "order independence"):
        for n in range(1, 5):
            H, table = sign_tables[n]
            base = minimal_tuple_count(H, table=table)
            for seed in range(20):
                order = OrderPermutation.random(len(H), seed)
                assert minimal_tuple_count(H, order, table) == base
                if seed < 5:
                    assert len(minimal_tuples(H, order, table)) == base


def test_criterion_04_mobius_by_flat(sign_tables):
    with criterion(4, "homology recovers Mobius values"):
        for n in range(1, 4):
            H, table = sign_tables[n]
            lattice = build_lattice(H, table)
            for fid, mu in enumerate(lattice.mobius):
                if table.dims[fid] < 1:
                    continue
                assert mobius_via_homology(table, fid) == abs(mu)


def test_criterion_05_homology_field_agreement(sign_tables):
    with criterion(5, "homology rank over three fields"):
        for n in range(1, 5):
            H, table = sign_tables[n]
            lam = minimal_tuple_count(H, table=table)
            for fld in (2, 3, "Q"):
                assert homology_rank(H, n - 1, fld, table) == lam


def test_criterion_06_permutation_count(sign_tables):
    with criterion(6, "closed-form permutation count"):
        H2, t2 = sign_tables[2]
        checked = 0
        for t, f in enumerate_tuples(H2, t2):
            for i in range(len(H2)):
                if i in f.top_members:
                    continue
                got = count_admissible_orders(H2, t.indices, i, t2)
                assert got * f.product == math.factorial(len(H2) - 1)
                checked += 1
        assert checked == 24
        for count, seed in ((5, 61), (6, 62), (5, 63), (6, 64), (5, 65)):
            H = random_spanning_set(3, count, seed)
            budget = math.factorial(len(H) - 1)
            for t, f in enumerate_tuples(H):
                for i in range(len(H)):
                    if i in f.top_members:
                        continue
                    got = count_admissible_orders(H, t.indices, i)
                    assert got * f.product == budget


def test_criterion_07_bound_chain(sign_tables):
    with criterion(7, "lower and upper bound chain"):
        for n in range(1, 5):
            H, table = sign_tables[n]
            lam = minimal_tuple_count(H, table=table)
            chambers = chamber_count(H, table)
            for p in ten_weight_vectors(len(H)) + [WeightVector.uniform(len(H))]:
                assert flag_lower_bound(n, p, table) == 2 * lam
            assert 2 * lam <= chambers <= schlafli_bound(n)


def test_criterion_08_sampled_constancy(sign_tables):
    with criterion(8, "sampled indicator is constant"):
        for n in (2, 3):
            H, table = sign_tables[n]
            lam = minimal_tuple_count(H, table=table)
            mean, stderr = monte_carlo_expectation(
                H, WeightVector.uniform(len(H)), 10**4, 2026, table)
            assert mean == lam
            assert stderr == 0.0


def test_criterion_09_performance_path():
    with criterion(9, "large-instance agreement"):
        start = time.monotonic()
        H = generate_sign_vectors(5)
        lam = minimal_tuple_count(H)
        assert flag_weighted_sum(H, WeightVector.uniform(len(H))) == lam
        chambers = chamber_count(H)
        assert chambers == chamber_count_dr(H)
        assert 2 * lam <= chambers
        assert count_threshold_functions(3) \
            == chamber_count(generate_sign_vectors(3)) == 104
        # the exhaustive loop over all 65,536 truth tables is the reference
        # for the pruned census
        exhaustive = {c for c in range(1 << 16)
                      if is_threshold(BooleanFunction.from_int(4, c))}
        assert set(_threshold_codes(4)) == exhaustive
        assert time.monotonic() - start <= 1800


def test_criterion_10_random_arrangements():
    with criterion(10, "random arrangement robustness"):
        cases = [(3, 5 + k % 4, 70 + k) for k in range(10)]
        cases += [(4, 6 + k % 4, 80 + k) for k in range(10)]
        assert len(cases) == 20
        for dim, count, seed in cases:
            H = random_spanning_set(dim, count, seed)
            lam = minimal_tuple_count(H)
            for s in range(3):
                assert flag_weighted_sum(H, WeightVector.random(count, s)) == lam
            for s in range(5):
                order = OrderPermutation.random(count, s)
                assert minimal_tuple_count(H, order) == lam
            assert chamber_count(H) == chamber_count_dr(H)
