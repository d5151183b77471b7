"""Float64 kernel: guarded products of many small and large factors."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from bcdexact.stable import (
    EXACT_RATIONAL,
    FLOAT64_STABLE,
    FactoredProduct,
    NumericMode,
    stable_term_product,
    sum_term_values,
)


def test_mode_constants():
    assert not FLOAT64_STABLE.is_exact
    assert EXACT_RATIONAL.is_exact
    assert [field.name for field in dataclasses.fields(NumericMode)] == ["kind"]


def test_mode_coerce_accepts_names_and_instances():
    assert NumericMode.coerce("float") == FLOAT64_STABLE
    assert NumericMode.coerce("rational") == EXACT_RATIONAL
    assert NumericMode.coerce(FLOAT64_STABLE) is FLOAT64_STABLE
    with pytest.raises(ValueError):
        NumericMode.coerce("decimal")


def test_empty_product_is_one():
    assert stable_term_product([], [], 16.0) == 1.0


def test_matches_direct_product_on_benign_input():
    small = [0.5, 0.25, 0.9]
    large = [3.0, 7.5]
    direct = math.prod(small) * math.prod(large)
    assert stable_term_product(small, large, 16.0) == pytest.approx(direct, rel=1e-15)


def test_rejects_out_of_range_factors():
    with pytest.raises(ValueError):
        stable_term_product([1.5], [], 16.0)
    with pytest.raises(ValueError):
        stable_term_product([0.0], [], 16.0)
    with pytest.raises(ValueError):
        stable_term_product([], [0.5], 16.0)


def test_survives_products_that_overflow_if_grouped_naively():
    # 400 large factors of 100 overflow float64 on their own (1e800); the
    # 800 small factors of 0.1 underflow on their own (1e-800).  Together
    # the product is exactly 1.
    small = [0.1] * 800
    large = [100.0] * 400
    assert stable_term_product(small, large, 4800.0) == pytest.approx(1.0, rel=1e-12)


def test_interleaving_matches_exact_rational_on_random_mixes():
    rng = random.Random(20260814)
    for _ in range(25):
        small = [rng.randint(1, 1000) / 1000 for _ in range(rng.randint(0, 120))]
        large = [1 + rng.randint(0, 5000) / 10 for _ in range(rng.randint(0, 60))]
        exact = Fraction(1)
        for f in small + large:
            exact *= Fraction(f)
        got = stable_term_product(small, large, 4.0 * max(len(small) + len(large), 4))
        value = float(got)
        if exact == 0 or float(exact) == 0.0:
            assert value == 0.0
        else:
            assert value == pytest.approx(float(exact), rel=1e-12)


def test_underflowing_tail_returns_a_factored_product():
    result = stable_term_product([1e-200] * 3, [], 16.0)
    assert isinstance(result, FactoredProduct)
    mantissa, exponent = result.frexp()
    assert 0.5 <= abs(mantissa) < 1.0
    # value is 1e-600: exponent base 2 is about -600 * log2(10)
    assert exponent == pytest.approx(-600 * math.log2(10), abs=2)


def test_sum_term_values_plain_floats():
    assert sum_term_values([0.25, 0.5, 0.125]) == pytest.approx(0.875)


def test_sum_term_values_rescales_factored_terms():
    tiny = stable_term_product([1e-200] * 3, [], 16.0)  # 1e-600
    assert isinstance(tiny, FactoredProduct)
    total = sum_term_values([tiny, 1.0])
    assert total == pytest.approx(1.0)


def test_sum_term_values_comparable_factored_terms():
    # two equal subnormal-range terms must add to twice the value on the
    # common scale even though each alone reads as zero
    a = stable_term_product([1e-155] * 2, [], 16.0)
    b = stable_term_product([1e-155] * 2, [], 16.0)
    total = sum_term_values([a, b])
    # 2e-310 is subnormal but still nonzero in float64
    assert total == pytest.approx(2e-310, rel=1e-6)
