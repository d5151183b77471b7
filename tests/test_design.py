"""Parameter handling: validation, derived quantities, parsing."""

import math
from fractions import Fraction

import pytest

from bcdexact.design import DesignParams, parse_probability, transition_prob


def test_accepts_the_full_closed_range():
    DesignParams(0.5)
    DesignParams(1.0)
    DesignParams(Fraction(2, 3))


@pytest.mark.parametrize("bad", [0.49, -0.1, 1.0001, 2, Fraction(1, 3)])
def test_rejects_probabilities_outside_range(bad):
    with pytest.raises(ValueError):
        DesignParams(bad)


def test_complement_and_ratio():
    params = DesignParams(Fraction(2, 3))
    assert params.q == Fraction(1, 3)
    assert params.r == Fraction(2, 1)
    assert params.half == Fraction(1, 2)

    fparams = DesignParams(0.8)
    assert fparams.q == pytest.approx(0.2)
    assert fparams.r == pytest.approx(4.0)
    assert fparams.half == 0.5


def test_deterministic_coin_has_infinite_ratio():
    assert DesignParams(1.0).r == math.inf
    assert DesignParams(Fraction(1)).r == math.inf
    assert DesignParams(Fraction(1)).is_deterministic


def test_fair_coin_flags():
    assert DesignParams(0.5).is_fair
    assert DesignParams(Fraction(1, 2)).is_fair
    assert not DesignParams(0.6).is_fair


def test_exactness_flag_follows_the_value_type():
    assert DesignParams(Fraction(3, 5)).is_exact
    assert not DesignParams(0.6).is_exact


def test_int_one_becomes_exact():
    assert DesignParams(1).is_exact
    assert DesignParams(1).p == Fraction(1)


def test_as_exact_refuses_floats():
    with pytest.raises(ValueError):
        DesignParams(0.7).as_exact()
    assert DesignParams(Fraction(7, 10)).as_exact().p == Fraction(7, 10)


def test_parse_probability_decimal_and_fraction_forms():
    assert parse_probability("0.7") == pytest.approx(0.7)
    assert parse_probability("2/3", exact=True) == Fraction(2, 3)
    assert parse_probability("0.7", exact=True) == Fraction(7, 10)
    assert isinstance(parse_probability("2/3"), float)


def test_parse_probability_rejects_junk():
    with pytest.raises(ValueError):
        parse_probability("seven tenths")


def test_transition_prob_by_imbalance_sign():
    params = DesignParams(Fraction(2, 3))
    assert transition_prob(params, 0) == Fraction(1, 2)
    assert transition_prob(params, -3) == Fraction(2, 3)
    assert transition_prob(params, 5) == Fraction(1, 3)


def test_transition_prob_float_mode():
    params = DesignParams(0.8)
    assert transition_prob(params, 0) == 0.5
    assert transition_prob(params, -1) == pytest.approx(0.8)
    assert transition_prob(params, 2) == pytest.approx(0.2)
