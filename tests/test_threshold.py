import itertools
from fractions import Fraction

import numpy as np
import pytest

import flagbound.threshold
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
        assert set(_threshold_codes(n)) == exhaustive


def test_feasible_returns_core():
    xor = BooleanFunction(2, (0, 1, 1, 0))
    rows = [_margin_row(v, bit) for v, bit in zip(_input_vectors(2), xor.truth)]
    assert _feasible(rows, 3) == 0b1111
    assert _feasible(rows[:3], 3) == 0


def test_stored_cores_are_infeasible_alone(monkeypatch):
    for n in (1, 2, 3):
        cores = []

        def recorded(rows, nvars):
            core = _feasible(rows, nvars)
            if core:
                cores.append((rows, core))
            return core

        monkeypatch.setattr(flagbound.threshold, "_feasible", recorded)
        count = sum(1 for _ in _threshold_codes(n))
        assert count == (4, 14, 104)[n - 1]
        if n > 1:
            assert cores
        for rows, core in cores:
            alone = [row for i, row in enumerate(rows) if core >> i & 1]
            assert _feasible(alone, n + 1)


def test_witnesses_satisfy_their_prefix(monkeypatch):
    # the walk hands `_separate` the parent's witness with the child's rows
    separate = flagbound.threshold._separate
    calls = [0]

    def checked(rows, y):
        assert all(sum(x * z for x, z in zip(u, y)) > 0 for u, _ in rows[:-1])
        out = separate(rows, y)
        assert all(type(z) is int for z in out)
        assert all(sum(x * z for x, z in zip(u, out)) > 0 for u, _ in rows)
        assert all(sum(x * z for x, z in zip(u, out)) >= b for u, b in rows)
        calls[0] += 1
        return out

    monkeypatch.setattr(flagbound.threshold, "_separate", checked)
    for n in (1, 2, 3):
        assert sum(1 for _ in _threshold_codes(n)) == (4, 14, 104)[n - 1]
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
