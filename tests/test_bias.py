"""Selection-bias series, closed-form total, and accidental-bias form.

Rational expectations were frozen from the path oracle in
tests/bruteforce.py.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import bruteforce as bf
from bcdexact.bias import (
    accidental_bias,
    asymptotic_excess,
    selection_bias_report,
    selection_bias_step,
    total_bias_closed_form,
)
from bcdexact.covariance import sigma, two_p_eigenvector
from bcdexact.design import DesignParams

P23 = DesignParams(Fraction(2, 3))
P35 = DesignParams(Fraction(3, 5))


FROZEN_STEPS = [
    # (j, p, P(lagging-arm guess correct at draw j))
    (1, Fraction(2, 3), Fraction(1, 2)),
    (2, Fraction(2, 3), Fraction(2, 3)),
    (3, Fraction(2, 3), Fraction(5, 9)),
    (2, Fraction(3, 5), Fraction(3, 5)),
    (5, Fraction(3, 5), Fraction(687, 1250)),
]


@pytest.mark.parametrize("j,p,expected", FROZEN_STEPS)
def test_step_probability_matches_frozen_oracle(j, p, expected):
    assert selection_bias_step(j, DesignParams(p)) == expected
    assert bf.guess_prob(j, p) == expected
    as_float = selection_bias_step(j, DesignParams(float(p)))
    assert as_float == pytest.approx(float(expected), abs=1e-15)


def test_even_draws_always_concede_p():
    for p in (Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)):
        params = DesignParams(p)
        for j in (2, 4, 6, 10):
            assert selection_bias_step(j, params) == p


def test_step_rejects_nonpositive_draw_index():
    with pytest.raises(ValueError):
        selection_bias_step(0, P23)


FROZEN_TOTALS = [
    (5, Fraction(3, 5), Fraction(3487, 1250)),
    (6, Fraction(2, 3), Fraction(587, 162)),
]


@pytest.mark.parametrize("n,p,expected", FROZEN_TOTALS)
def test_total_matches_frozen_oracle(n, p, expected):
    report = selection_bias_report(n, DesignParams(p))
    assert report.total == expected
    assert bf.expected_guesses(n, p) == expected
    assert total_bias_closed_form(n, DesignParams(p)) == expected


def test_per_step_sum_equals_the_closed_form_exactly():
    for p in (Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)):
        params = DesignParams(p)
        for n in (1, 2, 3, 7, 12, 25):
            report = selection_bias_report(n, params)
            assert report.total == total_bias_closed_form(n, params), (
                n,
                p,
            )


def test_per_step_sum_tracks_the_closed_form_in_float():
    for p in (0.6, 0.8, 0.95):
        params = DesignParams(p)
        for n in (10, 55, 140):
            report = selection_bias_report(n, params)
            assert report.total == pytest.approx(
                total_bias_closed_form(n, params), abs=1e-10
            )


def test_report_excess_and_average():
    report = selection_bias_report(5, P35)
    assert report.excess == Fraction(3487, 1250) - Fraction(5, 2)
    assert report.average_excess == report.excess / 5
    assert len(report.per_step) == 5


REFERENCE_AVERAGE_EXCESS = [
    # rounded to three places
    (5, 0.6, "0.058"),
    (100, 0.7, "0.141"),
]


@pytest.mark.parametrize("n,p,digits", REFERENCE_AVERAGE_EXCESS)
def test_average_excess_reference_points(n, p, digits):
    report = selection_bias_report(n, DesignParams(p))
    assert f"{report.average_excess:.3f}" == digits


def test_fair_coin_never_beats_chance():
    report = selection_bias_report(9, DesignParams(Fraction(1, 2)))
    assert report.total == Fraction(9, 2)
    assert report.excess == 0


FROZEN_ASYMPTOTIC_EXCESS = [
    (Fraction(3, 5), Fraction(1, 12)),
    (Fraction(2, 3), Fraction(1, 8)),
    (Fraction(4, 5), Fraction(3, 16)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(1), Fraction(1, 4)),
]


@pytest.mark.parametrize("p,expected", FROZEN_ASYMPTOTIC_EXCESS)
def test_asymptotic_excess_values(p, expected):
    assert asymptotic_excess(DesignParams(p)) == expected
    assert asymptotic_excess(DesignParams(float(p))) == pytest.approx(
        float(expected), abs=1e-15
    )


def test_average_excess_converges_to_the_limit():
    params = DesignParams(0.8)
    limit = asymptotic_excess(params)
    gaps = [
        abs(selection_bias_report(n, params).average_excess - limit)
        for n in (20, 80, 320)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def test_accidental_bias_of_the_known_eigenvector_is_2p():
    for n, p in [(2, 0.6), (7, 0.75), (24, 0.9)]:
        cov = sigma(n, DesignParams(p))
        assert accidental_bias(two_p_eigenvector(n), cov) == pytest.approx(
            2 * p, abs=1e-12
        )


def test_accidental_bias_rejects_bad_covariates():
    cov = sigma(4, DesignParams(0.7))
    with pytest.raises(ValueError):
        accidental_bias(np.ones(4), cov)  # not unit length
    with pytest.raises(ValueError):
        accidental_bias(np.array([1.0, 0.0, 0.0]), cov)  # wrong length
    with pytest.raises(ValueError, match="unit length"):
        accidental_bias(np.array([math.nan, 0.0, 0.0, 0.0]), cov)  # no norm at all
