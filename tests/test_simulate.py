"""Simulation, exhaustive enumeration, and linear rank statistics."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import bcdexact.simulate
import bruteforce as bf
from bcdexact.bias import selection_bias_step
from bcdexact.covariance import joint_assignment, sigma, two_p_eigenvector
from bcdexact.design import DesignParams
from bcdexact.exact import pmf_at, pmf_dn, var_dn
from bcdexact.simulate import (
    ENUMERATION_CAP,
    McEstimate,
    ScoreVector,
    TreatmentSequence,
    enumerate_exact,
    generate_sequence,
    mc_estimate,
    parse_statistic,
    rank_pvalue_mc,
    rank_statistic,
    rank_statistic_variance,
    stat_balance,
    stat_correct_guess,
    stat_imbalance_sq,
    stat_product,
)

P23 = DesignParams(Fraction(2, 3))


def test_treatment_sequence_validation_and_paths():
    seq = TreatmentSequence(np.array([1, -1, -1, 1]), P23)
    assert len(seq) == 4
    assert list(seq.imbalance_path) == [1, 0, -1, 0]
    with pytest.raises(ValueError):
        TreatmentSequence(np.array([1, 0, -1]), P23)
    with pytest.raises(ValueError):
        TreatmentSequence(np.array([], dtype=int), P23)


def test_generate_sequence_is_deterministic_in_the_seed():
    a = generate_sequence(40, DesignParams(0.7), seed=11)
    b = generate_sequence(40, DesignParams(0.7), seed=11)
    c = generate_sequence(40, DesignParams(0.7), seed=12)
    assert np.array_equal(a.assignments, b.assignments)
    assert not np.array_equal(a.assignments, c.assignments)


def test_deterministic_coin_forces_alternation():
    seq = generate_sequence(30, DesignParams(1.0), seed=3)
    path = seq.imbalance_path
    assert np.all(np.abs(path) <= 1)
    assert np.all(path[1::2] == 0)  # every even draw restores balance


# ---------------------------------------------------------------------------
# exhaustive enumeration against the closed forms


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_enumerated_balance_mass_is_exact(n):
    assert enumerate_exact(n, P23, stat_balance(), "rational") == pmf_at(n, 0, P23)


@pytest.mark.parametrize("p", [Fraction(3, 5), Fraction(9, 10)])
def test_enumerated_variance_is_exact(p):
    params = DesignParams(p)
    for n in (3, 6, 9):
        assert enumerate_exact(n, params, stat_imbalance_sq(), "rational") == var_dn(
            n, params
        )


def test_enumerated_pair_product_is_the_covariance_entry():
    params = DesignParams(Fraction(7, 10))
    cov = sigma(6, params)
    for i, j in [(1, 2), (2, 5), (3, 6)]:
        assert enumerate_exact(6, params, stat_product(i, j), "rational") == cov.entry(
            i, j
        )


def test_enumerated_guess_rate_is_the_per_step_bias():
    params = DesignParams(Fraction(3, 5))
    for j in (1, 2, 5, 7):
        assert enumerate_exact(j, params, stat_correct_guess(j), "rational") == (
            selection_bias_step(j, params)
        )


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(7, 10), Fraction(1)])
def test_enumeration_matches_the_longhand_paths(p):
    # tests/bruteforce.py writes the transition rule out path by path
    params = DesignParams(p)

    def exact(n, stat):
        value = enumerate_exact(n, params, stat, "rational")
        assert type(value) is Fraction
        return value

    for n in range(1, 11):
        assert exact(n, stat_balance()) == bf.pmf(n, p).get(0, 0)
        assert exact(n, stat_imbalance_sq()) == bf.variance(n, p)
        assert exact(n, stat_correct_guess(n)) == bf.guess_prob(n, p)
    for i, j in combinations(range(1, 11), 2):
        assert exact(10, stat_product(i, j)) == bf.sigma_entry(i, j, p), (i, j)


def test_float_enumeration_tracks_the_exact_route():
    exact = enumerate_exact(10, P23, stat_imbalance_sq(), "rational")
    assert enumerate_exact(10, DesignParams(2 / 3), stat_imbalance_sq()) == (
        pytest.approx(float(exact), rel=1e-13)
    )


def test_float_enumeration_of_a_fraction_p_rounds_p_and_q_each():
    # float(1 - float(p)) is not float(q) here, so rebuilding the params
    # from float(p) gives -0.001353074410647275
    value = enumerate_exact(11, DesignParams(Fraction(501, 997)), stat_product(2, 9))
    assert (type(value), value) == (float, -0.0013530744106472637)


def test_rational_enumeration_refuses_a_float_p():
    with pytest.raises(ValueError):
        enumerate_exact(3, DesignParams(0.7), stat_balance(), "rational")


def test_enumeration_cap_is_enforced():
    with pytest.raises(ValueError):
        enumerate_exact(ENUMERATION_CAP + 1, P23, stat_balance())
    with pytest.raises(ValueError):
        enumerate_exact(0, P23, stat_balance())


def test_parse_statistic_names(monkeypatch):
    assert parse_statistic("balance", 8).name == "balance"
    assert parse_statistic("variance", 8).name == "variance"
    assert parse_statistic("selection-bias", 8).name == "guess@8"
    assert parse_statistic("cov(2, 5)", 8).name == "cov(2,5)"
    params = DesignParams(0.7)
    exact = {
        "balance": float(pmf_dn(8, params).mass(0)),
        "variance": float(var_dn(8, params)),
        "selection-bias": float(selection_bias_step(8, params)),
        "cov(2, 5)": 4.0 * joint_assignment(2, 5, params) - 1.0,
    }
    for text, value in exact.items():
        assert parse_statistic(text, 8).exact(8, params) == value
    # the balance reads its one mass, not the whole law of D_8
    read = []
    monkeypatch.setattr(bcdexact.simulate, "pmf_at",
                        lambda *args: read.append(args[:2]) or pmf_at(*args))
    assert parse_statistic("balance", 8).exact(8, params) == exact["balance"]
    assert read == [(8, 0)]
    with pytest.raises(ValueError):
        parse_statistic("cov(5,2)", 8)
    with pytest.raises(ValueError):
        parse_statistic("cov(1,9)", 8)
    with pytest.raises(ValueError):
        parse_statistic("entropy", 8)


def test_stat_product_validates_indices():
    with pytest.raises(ValueError):
        stat_product(3, 3)
    with pytest.raises(ValueError):
        stat_product(0, 2)


# ---------------------------------------------------------------------------
# Monte Carlo


def test_seeded_monte_carlo_results_are_pinned():
    # 50,000 replicates in batches of 8192 end in a partial batch of 848;
    # 10,000 in batches of 3000 end in one of 1000
    est = mc_estimate(12, DesignParams(0.7), stat_balance(), 50_000, seed=2024,
                      batch_size=1 << 13)
    assert est.point == 0.58426
    scores = [1.0, 2.0, -0.5, 3.0]
    pv = rank_pvalue_mc(scores, 2.5, DesignParams(0.7), 10_000, seed=11, batch_size=3000)
    assert pv == 0.686931306869313


def test_mc_estimate_lands_near_the_exact_value():
    exact = float(pmf_at(12, 0, DesignParams(0.7)))
    est = mc_estimate(12, DesignParams(0.7), stat_balance(), 60_000, seed=7)
    assert abs(est.point - exact) < 5 * est.std_error
    assert est.std_error > 0


def test_standard_error_shrinks_like_root_replicates():
    small = mc_estimate(10, DesignParams(0.6), stat_imbalance_sq(), 4096, seed=5)
    big = mc_estimate(10, DesignParams(0.6), stat_imbalance_sq(), 16 * 4096, seed=5)
    assert 3.2 < small.std_error / big.std_error < 4.8


def test_mc_estimate_validates_inputs():
    with pytest.raises(ValueError):
        mc_estimate(5, P23, stat_balance(), replicates=1, seed=0)
    with pytest.raises(ValueError):
        mc_estimate(0, P23, stat_balance(), replicates=100, seed=0)
    with pytest.raises(ValueError):
        mc_estimate(5, P23, stat_balance(), replicates=100, seed=0, batch_size=0)


def test_deterministic_coin_pins_the_neighbour_product():
    est = mc_estimate(6, DesignParams(1.0), stat_product(1, 2), 5_000, seed=1)
    assert est.point == -1.0
    assert est.std_error == 0.0


def test_mc_estimate_takes_parsed_statistics():
    stat = parse_statistic("selection-bias", 8)
    est = mc_estimate(8, DesignParams(0.8), stat, 4_000, seed=9)
    exact = float(selection_bias_step(8, DesignParams(0.8)))
    assert abs(est.point - exact) < 6 * est.std_error
    with pytest.raises(TypeError):
        mc_estimate(8, DesignParams(0.8), "balance", 4_000, seed=9)


# ---------------------------------------------------------------------------
# rank statistics


def test_score_vector_centering_rules():
    with pytest.raises(ValueError):
        ScoreVector(np.array([1.0, 2.0]), centered=True)
    sv = ScoreVector.from_values([1.0, 2.0, 6.0], center=True)
    assert sv.centered
    assert sv.as_array().sum() == pytest.approx(0.0, abs=1e-12)
    plain = ScoreVector.from_values([1.0, 2.0])
    assert not plain.centered
    with pytest.raises(ValueError):
        ScoreVector(np.zeros((2, 2)))


def test_midranks_average_ties_and_center():
    sv = ScoreVector.centered_ranks([3.1, 1.0, 4.7, 1.0, 2.2])
    assert list(sv.as_array()) == [1.0, -1.5, 2.0, -1.5, 0.0]
    assert len(sv) == 5


def test_rank_statistic_and_its_variance():
    scores = ScoreVector.from_values([2.0, -1.0, 0.5])
    seq = TreatmentSequence(np.array([1, -1, 1]), P23)
    assert rank_statistic(scores, seq) == pytest.approx(3.5)
    assert rank_statistic(scores, np.array([1, 1, -1])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        rank_statistic(scores, np.array([1, -1]))

    fair = sigma(3, DesignParams(0.5))
    assert rank_statistic_variance(scores, fair) == pytest.approx(2.0**2 + 1 + 0.25)
    with pytest.raises(ValueError):
        rank_statistic_variance(scores, sigma(4, DesignParams(0.5)))


def test_variance_of_the_eigenvector_contrast_is_2p():
    scores = two_p_eigenvector(6)
    cov = sigma(6, DesignParams(0.75))
    assert rank_statistic_variance(scores, cov) == pytest.approx(1.5, abs=1e-12)


def test_pvalue_edge_cases():
    scores = ScoreVector.from_values([1.0, 1.0, 1.0, 1.0])
    reps = 999
    everything = rank_pvalue_mc(scores, 0.0, DesignParams(0.7), reps, seed=2)
    assert everything == 1.0
    nothing = rank_pvalue_mc(scores, 10.0, DesignParams(0.7), reps, seed=2)
    assert nothing == pytest.approx(1 / (reps + 1))
    assert rank_pvalue_mc(scores, 0.0, DesignParams(0.7), 1, seed=2) == 1.0
    with pytest.raises(ValueError):
        rank_pvalue_mc(scores, 1.0, DesignParams(0.7), 0, seed=2)
    with pytest.raises(ValueError):
        rank_pvalue_mc(scores, 1.0, DesignParams(0.7), 10, seed=2, batch_size=0)


def test_pvalue_is_calibrated_under_the_null():
    # W = T_1 - T_2 has Var 2p; |W| is 0 or 2, with P(|W| = 2) = 1 - p at
    # equilibrium...n = 2 makes it exact: P(T_1 != T_2) = p.
    scores = ScoreVector.from_values([1.0, -1.0])
    params = DesignParams(0.8)
    pv = rank_pvalue_mc(scores, 2.0, params, 100_000, seed=4)
    assert pv == pytest.approx(0.8, abs=0.01)
