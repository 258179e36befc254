import itertools
from fractions import Fraction

import numpy as np
import pytest

from flagbound.errors import GuardError
from flagbound.threshold import (
    BooleanFunction,
    _input_vectors,
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
