import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import flagbound.threshold
from flagbound.arrangement import VectorSet, chamber_count, chamber_count_dr, generate_sign_vectors
from flagbound.errors import GuardError
from flagbound.threshold import (
    BooleanFunction,
    _feasible,
    _input_vectors,
    _margin_row,
    _threshold_codes,
    bounds_report,
    count_threshold_functions,
    is_threshold,
)

from conftest import random_spanning_set


def test_constant_functions_are_threshold():
    for n in (1, 2, 3):
        size = 2**n
        assert is_threshold(BooleanFunction(n, (1,) * size))
        assert is_threshold(BooleanFunction(n, (0,) * size))


def test_parity_is_not_threshold():
    xor = BooleanFunction(2, (0, 1, 1, 0))
    xnor = BooleanFunction(2, (1, 0, 0, 1))
    assert not is_threshold(xor)
    assert not is_threshold(xnor)


def test_all_n1_functions_are_threshold():
    for code in range(4):
        assert is_threshold(BooleanFunction.from_int(1, code))


def test_counts_small():
    assert count_threshold_functions(1) == 4
    assert count_threshold_functions(2) == 14
    assert count_threshold_functions(3) == 104


def test_pruned_codes_match_exhaustive_loop():
    # the exhaustive loop over every truth table is the reference
    for n in (1, 2, 3):
        exhaustive = {c for c in range(1 << (1 << n))
                      if is_threshold(BooleanFunction.from_int(n, c))}
        assert set(_threshold_codes(generate_sign_vectors(n))) == exhaustive


def test_feasible_returns_core():
    xor = BooleanFunction(2, (0, 1, 1, 0))
    rows = [_margin_row(v, bit) for v, bit in zip(_input_vectors(2), xor.truth)]
    assert _feasible(rows, 3) == (0b1111, None)
    core, point = _feasible(rows[:3], 3)
    assert core == 0 and point is not None


def test_feasible_point_or_core_on_random_systems():
    # a feasible answer carries a point meeting every row; an infeasible one
    # a core whose rows alone are infeasible.  Half the systems are built
    # with no lower bound on x_0, so its back-substitution takes an upper one
    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    only_upper = 0
    for trial in range(200):
        nvars = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, 7)):
            a = [rng.randint(-3, 3) for _ in range(nvars)]
            if trial % 2:
                a[0] = -abs(a[0])
            rows.append((tuple(a), rng.randint(-3, 3)))
        if trial % 2 and any(a[0] for a, _ in rows):
            only_upper += 1
        core, point = _feasible(rows, nvars)
        outcomes[not core] += 1
        if core:
            assert point is None
            assert core < 1 << len(rows)
            alone = [row for i, row in enumerate(rows) if core >> i & 1]
            assert _feasible(alone, nvars)[0]
        else:
            x, scale = point
            assert scale > 0 and all(type(z) is int for z in x)
            assert all(sum(c * z for c, z in zip(a, x)) >= b * scale for a, b in rows)
    assert min(outcomes.values()) > 20
    assert only_upper > 50


def test_stored_cores_are_infeasible_alone(monkeypatch):
    # the walk stores the cores `_child_solve` returns; each core must be
    # infeasible alone over the full n + 1 variables, and the hyperplane
    # system must agree with the child's own rows
    child_solve = flagbound.threshold._child_solve
    for n in (1, 2, 3):
        calls = []

        def recorded(rows, u):
            core, y = child_solve(rows, u)
            calls.append((rows + [(u, 1)], core))
            return core, y

        monkeypatch.setattr(flagbound.threshold, "_child_solve", recorded)
        count = sum(1 for _ in _threshold_codes(generate_sign_vectors(n)))
        assert count == (4, 14, 104)[n - 1]
        assert calls
        if n > 1:
            assert any(core for _, core in calls)
        for child_rows, core in calls:
            assert bool(core) == bool(_feasible(child_rows, n + 1)[0])
            if core:
                assert core >> (len(child_rows) - 1) & 1
                alone = [row for i, row in enumerate(child_rows) if core >> i & 1]
                assert _feasible(alone, n + 1)[0]


def _grid(k: int, n: int) -> VectorSet:
    """The points of {0..k-1}^n lifted to (1, x)."""
    return VectorSet(tuple((1,) + p for p in itertools.product(range(k), repeat=n)), n + 1)


def test_census_counts_grid_chambers():
    # the census counts the chambers of any vector set; on the lifted grids
    # it must equal the lattice and deletion-restriction
    for k, n, expected in ((3, 2, 58), (4, 2, 174), (5, 2, 402), (6, 2, 838), (3, 3, 2702)):
        H = _grid(k, n)
        census = sum(1 for _ in _threshold_codes(H))
        assert census == chamber_count(H) == chamber_count_dr(H) == expected


def test_negation_half_yields_each_code_once():
    sets = [generate_sign_vectors(n) for n in (1, 2, 3, 4)]
    sets += [random_spanning_set(3, 8, 5), random_spanning_set(4, 9, 6)]
    for H in sets:
        codes = list(_threshold_codes(H))
        full = (1 << len(H)) - 1
        assert len(codes) == len(set(codes))
        assert {full ^ c for c in codes} == set(codes)
        assert 2 * sum(c & 1 for c in codes) == len(codes)


def test_fm_pair_guard_stops_majority_of_six():
    # the 6-variable majority function: one elimination forms millions of
    # pairs, so the guard stops the call before it forms them
    n = 6
    f = BooleanFunction(n, tuple(int(sum(v[1:]) >= 0) for v in _input_vectors(n)))
    start = time.monotonic()
    with pytest.raises(GuardError) as exc:
        is_threshold(f)
    assert exc.value.guard == "threshold.fm_pairs"
    assert time.monotonic() - start < 30


def test_witnesses_satisfy_their_prefix(monkeypatch):
    # the witness `_child_solve` returns for a feasible child is an integer
    # point strictly on the positive side of each of the child's rows
    child_solve = flagbound.threshold._child_solve
    calls = [0]

    def checked(rows, u):
        core, y = child_solve(rows, u)
        if not core:
            assert all(type(z) is int for z in y)
            assert all(sum(x * z for x, z in zip(a, y)) > 0 for a, _ in rows + [(u, 1)])
            calls[0] += 1
        return core, y

    monkeypatch.setattr(flagbound.threshold, "_child_solve", checked)
    for H in (generate_sign_vectors(3), random_spanning_set(3, 8, 5), _grid(4, 2)):
        assert sum(1 for _ in _threshold_codes(H)) == chamber_count(H)
    assert calls[0] > 0


def test_negation_closure():
    for code in range(16):
        f = BooleanFunction.from_int(2, code)
        assert is_threshold(f) == is_threshold(f.negated())
    g = BooleanFunction.from_int(3, 0b00010111)
    assert is_threshold(g) == is_threshold(g.negated())
    assert count_threshold_functions(3) % 2 == 0


def test_input_flip_closure():
    # permuting the truth table by x -> x xor mask flips input signs,
    # which cannot change separability
    n = 3
    for code in (0b00010111, 0b01100110, 0b11110000, 0b10000001):
        f = BooleanFunction.from_int(n, code)
        base = is_threshold(f)
        for mask in (1, 2, 4, 5):
            flipped = BooleanFunction(
                n, tuple(f.truth[k ^ mask] for k in range(2**n)))
            assert is_threshold(flipped) == base


def test_feasibility_against_integer_grid():
    # oracle: every sign pattern of an integer weight vector in [-9, 9]^4
    # over the augmented inputs, ties counting as true
    vs = np.array(_input_vectors(3), dtype=np.int64)
    alphas = np.array(
        list(itertools.product(range(-9, 10), repeat=4)), dtype=np.int64)
    patterns = (alphas @ vs.T >= 0).astype(np.uint8)
    achievable = {tuple(int(x) for x in row)
                  for row in np.unique(patterns, axis=0)}
    hits = 0
    for code in range(256):
        f = BooleanFunction.from_int(3, code)
        got = is_threshold(f)
        assert got == (f.truth in achievable)
        hits += got
    assert hits == 104


def test_from_int_roundtrip():
    f = BooleanFunction.from_int(2, 0b0110)
    assert f.truth == (0, 1, 1, 0)
    assert f.n == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1, 2, 0))
    with pytest.raises(ValueError):
        BooleanFunction(2, (0, 1))
    with pytest.raises(ValueError):
        BooleanFunction.from_int(2, 16)
    with pytest.raises(ValueError):
        BooleanFunction.from_int(2, -1)


def test_guards():
    with pytest.raises(GuardError):
        count_threshold_functions(5)
    with pytest.raises(GuardError):
        count_threshold_functions(0)
    with pytest.raises(GuardError):
        is_threshold(BooleanFunction(11, (0,) * 2048))


def test_bounds_report_n1():
    r = bounds_report(1)
    assert (r.lower_bound, r.two_lambda, r.chambers, r.brute_force, r.schlafli) \
        == (2, 2, 4, 4, 4)


def test_bounds_report_n2():
    r = bounds_report(2)
    assert r.lower_bound == Fraction(6)
    assert r.two_lambda == 6
    assert r.chambers == r.brute_force == r.schlafli == 14


def test_bounds_report_n3_custom_weights():
    r = bounds_report(3)
    assert (r.two_lambda, r.chambers, r.brute_force, r.schlafli) \
        == (46, 104, 104, 128)
    from flagbound.flags import WeightVector
    r2 = bounds_report(3, p=WeightVector.random(8, 2))
    assert r2.lower_bound == 46


def test_bounds_report_errors():
    with pytest.raises(GuardError):
        bounds_report(6)
    with pytest.raises(GuardError):
        bounds_report(0)
    with pytest.raises(ValueError):
        bounds_report(2, p="bogus")
