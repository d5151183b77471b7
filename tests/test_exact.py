"""Closed-form imbalance distribution against the path-walk oracle.

Expected rationals below were frozen from tests/bruteforce.py (exhaustive
2^n path enumeration with Fraction weights) before the closed forms were
written, so the two routes share no code.
"""

import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest

import bcdexact.exact
import bruteforce as bf
from bcdexact.cli import RATIONAL_N_CAP
from bcdexact.design import DesignParams
from bcdexact.exact import (
    SCAN_N_MAX,
    StationaryDist,
    _dp_rows,
    _integer_masses,
    _scaled_power,
    _two_sided_scan,
    asymptotic_var,
    dp_pmf_dn,
    pmf_at,
    pmf_dn,
    pmf_masses,
    steady_state_threshold,
    steady_state_threshold_table,
    var_dn,
)
from bcdexact.tables import threshold_grid

P23 = DesignParams(Fraction(2, 3))
P35 = DesignParams(Fraction(3, 5))
P710 = DesignParams(Fraction(7, 10))
P910 = DesignParams(Fraction(9, 10))

FROZEN_MASSES = [
    # (n, p, {k: exact mass}); one signed side listed, symmetry tested apart
    (2, Fraction(2, 3), {0: Fraction(2, 3), 2: Fraction(1, 6)}),
    (5, Fraction(3, 5), {5: Fraction(8, 625), 3: Fraction(66, 625), 1: Fraction(477, 1250)}),
    (
        6,
        Fraction(7, 10),
        {
            6: Fraction(243, 200000),
            4: Fraction(2079, 100000),
            2: Fraction(6909, 40000),
            0: Fraction(30527, 50000),
        },
    ),
    (4, Fraction(9, 10), {4: Fraction(1, 2000), 2: Fraction(27, 500), 0: Fraction(891, 1000)}),
    (3, Fraction(1, 2), {3: Fraction(1, 8), 1: Fraction(3, 8)}),
    (10, Fraction(2, 3), {0: Fraction(10432, 19683)}),
]


@pytest.mark.parametrize("n,p,masses", FROZEN_MASSES)
def test_rational_masses_match_frozen_oracle_values(n, p, masses):
    params = DesignParams(p)
    for k, expected in masses.items():
        assert pmf_at(n, k, params) == expected
        assert pmf_at(n, -k, params) == expected


def test_forced_alternation_pins_the_walk_to_zero_and_one():
    one = DesignParams(Fraction(1))
    assert pmf_at(3, 1, one) == Fraction(1, 2)
    assert pmf_at(3, -1, one) == Fraction(1, 2)
    assert pmf_at(3, 3, one) == 0
    assert pmf_at(4, 0, one) == 1
    assert pmf_at(4, 2, one) == 0


def test_fair_coin_gives_binomial_masses():
    params = DesignParams(Fraction(1, 2))
    for n in (1, 2, 5, 8, 13):
        for k in range(-n, n + 1):
            if (n - k) % 2:
                continue
            expected = Fraction(math.comb(n, (n + k) // 2), 2**n)
            assert pmf_at(n, k, params) == expected


def test_off_support_masses_are_zero():
    assert pmf_at(4, 1, P23) == 0
    assert pmf_at(4, 6, P23) == 0
    assert pmf_at(5, 0, P23) == 0.0
    assert pmf_at(3, -7, DesignParams(0.7)) == 0.0


def test_zero_draws_is_a_point_mass_at_zero():
    assert pmf_at(0, 0, P23) == 1
    assert pmf_at(0, 2, P23) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
@pytest.mark.parametrize(
    "p", [Fraction(1, 2), Fraction(3, 5), Fraction(2, 3), Fraction(7, 10), Fraction(9, 10), Fraction(1)]
)
def test_three_routes_agree_exactly_in_rational_mode(n, p):
    params = DesignParams(p)
    closed = pmf_dn(n, params)
    recurrence = dp_pmf_dn(n, params)
    walk = bf.pmf(n, p)
    for k in range(-n, n + 1):
        if (n - k) % 2:
            continue
        assert closed.mass(k) == recurrence.mass(k) == walk.get(k, Fraction(0))


@pytest.mark.parametrize(
    "p", [Fraction(1, 2), Fraction(513, 1000), Fraction(2, 3), Fraction(949, 1000), Fraction(1)]
)
def test_exact_masses_equal_the_recurrence_up_to_the_rational_cap(p):
    # at p = 1 the masses with k > 1 have no summand (q = 0), so they take
    # the count = 0 edge of the closed form
    params = DesignParams(p)
    for n, row in enumerate(_dp_rows(RATIONAL_N_CAP, params)):
        ks = range(n % 2, n + 1, 2)
        masses = pmf_masses([(n, k) for k in ks], params)
        assert all(type(mass) is Fraction for mass in masses), n
        assert masses == [row[k] for k in ks], n


INTEGER_PS = [Fraction(1, 2), Fraction(51, 100), Fraction(7, 10), Fraction(713, 1000),
              Fraction(999, 1000), Fraction(1)]


@pytest.mark.parametrize("p", INTEGER_PS, ids=str)
def test_integer_masses_are_the_recurrence_times_their_scale(p):
    # every (m, k) with m < 64, P(D_m = k) (2B)^m as an int
    params = DesignParams(p)
    points = [(m, k) for m in range(64) for k in range(m % 2, m + 1, 2)]
    masses = _integer_masses(points, params)
    assert all(type(mass) is int for mass in masses)
    rows = list(_dp_rows(63, params))
    assert masses == [rows[m][k] * (2 * p.denominator) ** m for m, k in points]


@pytest.mark.parametrize("p", INTEGER_PS, ids=str)
def test_points_that_share_a_horner_pass_keep_their_own_summand_counts(p):
    # (10, 2), (12, 0), (9, 3) and (11, 1) all have a = 6 but need 5, 6, 4
    # and 6 summands; (0, 0) is the empty walk and (5, 7) lies off the support
    params = DesignParams(p)
    points = [(10, 2), (12, 0), (9, 3), (11, 1), (0, 0), (5, 7)]
    masses = pmf_masses(points, params)
    assert masses == [pmf_masses([point], params)[0] for point in points]
    assert masses == [dp_pmf_dn(n, params).mass(k) for n, k in points]
    shuffled = [(n, k) for n in range(40) for k in range(-n, n + 1)]
    random.Random(7).shuffle(shuffled)
    assert pmf_masses(shuffled, params) == [pmf_at(n, k, params) for n, k in shuffled]


@pytest.mark.parametrize("n", [1, 4, 7, 25, 60])
@pytest.mark.parametrize("p", [0.5, 0.6, 2 / 3, 0.8, 1.0])
def test_float_routes_track_each_other(n, p):
    params = DesignParams(p)
    closed = pmf_dn(n, params)
    recurrence = dp_pmf_dn(n, params)
    for k in closed.support():
        a, b = closed.mass(k), recurrence.mass(k)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-280)


@pytest.mark.parametrize("n", [12, 57, 121, 200])
@pytest.mark.parametrize("pf", [Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)])
def test_float_kernel_matches_exact_rationals_to_twelve_digits(n, pf):
    float_params = DesignParams(float(pf))
    exact_params = DesignParams(pf)
    for k in range(n % 2, n + 1, max(2, n // 6)):
        exact = pmf_at(n, k, exact_params)
        approx = pmf_at(n, k, float_params)
        if exact == 0:
            assert approx == 0.0
        else:
            # float p vs exact p differ at 1e-16 in the inputs themselves;
            # 1e-12 leaves room for that plus kernel roundoff at n=200
            assert approx == pytest.approx(float(exact), rel=1e-12)


def test_distribution_normalizes_and_is_symmetric():
    for n, p in [(7, Fraction(3, 5)), (12, Fraction(9, 10)), (9, Fraction(1, 2))]:
        dist = pmf_dn(n, DesignParams(p))
        assert sum(dist.masses.values()) == 1
        for k in dist.support():
            assert dist.mass(k) == dist.mass(-k)
            if k > 0:
                assert dist.two_sided(k) == 2 * dist.mass(k)
        assert dist.two_sided(0) == dist.mass(0)


def test_two_draw_variance_is_four_q():
    assert var_dn(2, P23) == 4 * Fraction(1, 3)
    assert var_dn(2, DesignParams(0.7)) == pytest.approx(1.2)


FROZEN_VARIANCES = [
    (2, Fraction(3, 5), Fraction(8, 5)),
    (7, Fraction(7, 10), Fraction(7616, 3125)),
    (10, Fraction(3, 5), Fraction(2026744, 390625)),
]


@pytest.mark.parametrize("n,p,expected", FROZEN_VARIANCES)
def test_variances_match_frozen_oracle_values(n, p, expected):
    assert var_dn(n, DesignParams(p)) == expected


def test_variance_of_forced_alternation_is_parity_indicator():
    one = DesignParams(Fraction(1))
    assert var_dn(4, one) == 0
    assert var_dn(7, one) == 1


def test_variance_grows_with_n_within_parity():
    params = DesignParams(0.7)
    evens = [var_dn(n, params) for n in range(2, 40, 2)]
    odds = [var_dn(n, params) for n in range(1, 39, 2)]
    assert all(a < b for a, b in zip(evens, evens[1:]))
    assert all(a < b for a, b in zip(odds, odds[1:]))


def test_variance_decreases_with_p():
    for n in (6, 11):
        values = [var_dn(n, DesignParams(p)) for p in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# stationary distribution and its limits


def test_stationary_masses_for_two_thirds():
    dist = StationaryDist(P23)
    assert dist.pi(0) == Fraction(1, 4)
    assert dist.pi(1) == Fraction(3, 8)
    assert dist.two_sided_limit(1) == Fraction(3, 4)
    assert dist.two_sided_limit(0) == Fraction(1, 2)


def test_stationary_masses_sum_to_one():
    for p in (Fraction(3, 5), Fraction(7, 10), Fraction(9, 10)):
        dist = StationaryDist(DesignParams(p))
        total = dist.pi(0) + sum(dist.pi(j) for j in range(1, 400))
        assert float(total) == pytest.approx(1.0, abs=1e-12)


def test_stationary_rejects_the_fair_coin():
    with pytest.raises(ValueError):
        StationaryDist(DesignParams(Fraction(1, 2)))


def test_stationary_deterministic_limits():
    dist = StationaryDist(DesignParams(Fraction(1)))
    assert dist.pi(0) == Fraction(1, 2)
    assert dist.pi(1) == Fraction(1, 2)
    assert dist.pi(2) == 0


@pytest.mark.parametrize("p,last", [(0.99, 153), (0.7, 836)])
def test_stationary_refuses_a_float_power_that_overflows(p, last):
    # r ** (last + 2) overflows a float, so pi(last + 1) has no float route;
    # pi(last) keeps its value, which at p = 0.7 is 0.0 (2 * r ** 837 is inf)
    dist = StationaryDist(DesignParams(p))
    r = p / (1 - p)
    assert dist.pi(last) == (r * r - 1) / (2 * r ** (last + 1))
    with pytest.raises(ValueError, match=rf"pi\({last + 1}\) at p = {p}\b"):
        dist.pi(last + 1)
    with pytest.raises(ValueError, match=rf"pi\({last + 1}\)"):
        dist.two_sided_limit(-(last + 1))
    # a Fraction p has no overflow
    exact = StationaryDist(DesignParams(Fraction(str(p))))
    assert 0 < exact.pi(last + 1) < exact.pi(last)


def test_finite_masses_converge_to_the_two_sided_limit():
    dist = StationaryDist(P910)
    for k in (0, 1, 2):
        finite = pmf_dn(60 + (k % 2), DesignParams(0.9)).two_sided(k)
        assert finite == pytest.approx(float(dist.two_sided_limit(k)), rel=1e-9)


def test_asymptotic_variance_values():
    assert asymptotic_var(DesignParams(Fraction(3, 5)), "even") == Fraction(1248, 100)
    assert asymptotic_var(DesignParams(Fraction(3, 5)), "odd") == Fraction(313, 25)
    assert asymptotic_var(DesignParams(Fraction(9, 10)), "odd") == Fraction(7048, 6400)
    assert asymptotic_var(DesignParams(0.8), "even") == pytest.approx(1.208888888888889)
    assert asymptotic_var(DesignParams(Fraction(1)), "even") == 0
    assert asymptotic_var(DesignParams(Fraction(1)), "odd") == 1


def test_asymptotic_variance_rejects_fair_coin_and_bad_parity():
    with pytest.raises(ValueError):
        asymptotic_var(DesignParams(Fraction(1, 2)), "even")
    with pytest.raises(ValueError):
        asymptotic_var(P23, "sideways")


def test_finite_variance_approaches_the_limit():
    params = DesignParams(0.9)
    limit = float(asymptotic_var(DesignParams(Fraction(9, 10)), "even"))
    assert var_dn(80, params) == pytest.approx(limit, rel=1e-10)


LIMIT_P = (Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))


def test_finite_odd_variance_rises_to_the_limit_from_below():
    # Var(D_n) over odd n at p = 9/10 climbs 1, 1.08, 1.096, ... and must
    # close on the odd limit from below, so no limit at or above 1.105 fits
    params = DesignParams(Fraction(9, 10))
    limit = asymptotic_var(params, "odd")
    odds = [var_dn(n, params) for n in range(1, 40, 2)]
    assert all(a < b for a, b in zip(odds, odds[1:]))
    assert odds[-1] < limit
    assert limit - odds[-1] < Fraction(1, 10**10)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("p", LIMIT_P)
def test_asymptotic_variance_is_the_stationary_second_moment(p, parity):
    # sum of k^2 * lim P(|D_n| = k) over k of the parity, from the stationary
    # masses alone.  Consecutive terms t_k, t_{k+2} have the ratio
    # ((k+2)/k)^2 / r^2, which falls with k, so past the last summed index K
    # the tail is at most t_K * rho / (1 - rho) with rho the ratio at K.
    dist = StationaryDist(DesignParams(p))
    r = p / (1 - p)
    last = 400 if parity == "even" else 401
    partial = sum(k * k * dist.two_sided_limit(k) for k in range(last % 2, last + 1, 2))
    rho = Fraction(last + 2, last) ** 2 / (r * r)
    tail = last * last * dist.two_sided_limit(last) * rho / (1 - rho)
    assert rho < 1 and tail < Fraction(1, 10**60)
    assert partial < asymptotic_var(DesignParams(p), parity) <= partial + tail


@pytest.mark.parametrize("p", LIMIT_P)
def test_odd_limit_by_hand_from_the_stationary_law(p):
    # over odd k = 2m+1 the limit masses are (1 - x) x^m with x = (q/p)^2,
    # so E[D^2] = (1 - x) * sum (2m+1)^2 x^m = (1 + 6x + x^2) / (1 - x)^2
    x = ((1 - p) / p) ** 2
    assert asymptotic_var(DesignParams(p), "odd") == (1 + 6 * x + x * x) / (1 - x) ** 2


# ---------------------------------------------------------------------------
# convergence thresholds


@pytest.mark.parametrize(
    "k,p,tol,expected",
    [
        (0, 0.8, 0.01, 8),
        (0, 0.9, 0.001, 6),
        (2, 0.7, 0.05, 4),
        (25, 0.7, 0.10, 85),
        (1, 0.8, 0.10, 1),
    ],
)
def test_threshold_reference_points(k, p, tol, expected):
    assert steady_state_threshold(k, DesignParams(p), tol) == expected


def test_threshold_can_run_out_of_horizon():
    assert steady_state_threshold(50, DesignParams(0.6), 0.001, n_max=500) is None


def test_threshold_needs_a_biased_coin():
    with pytest.raises(ValueError):
        steady_state_threshold(0, DesignParams(0.5), 0.01)


@pytest.mark.parametrize("tol", [0.0, -0.01, math.nan, -math.inf])
def test_threshold_refuses_a_tolerance_that_is_not_positive(tol):
    params = DesignParams(0.7)
    for call in (lambda: steady_state_threshold(0, params, tol),
                 lambda: steady_state_threshold_table([0, 1], params, [0.01, tol]),
                 lambda: threshold_grid(tolerances=[tol])):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            call()


def test_threshold_takes_an_infinite_tolerance_as_settled_at_once():
    assert steady_state_threshold(0, DesignParams(0.7), math.inf) == 2
    assert steady_state_threshold_table([1], DesignParams(0.7), [math.inf]) == [[1]]


def test_threshold_persistence_not_first_touch():
    # the smallest n whose relative error dips under tol must keep every
    # later same-parity n under tol as well
    k, params, tol = 0, DesignParams(0.7), 0.01
    n_star = steady_state_threshold(k, params, tol, n_max=300)
    limit = float(StationaryDist(DesignParams(Fraction(7, 10))).two_sided_limit(k))
    for n in range(n_star, 301, 2):
        mass = pmf_dn(n, params).two_sided(k)
        assert abs(mass - limit) / limit <= tol


def test_thresholds_scan_once_for_every_tolerance(monkeypatch):
    tols = (0.10, 0.05, 0.01, 0.001)
    scans = []
    scan = bcdexact.exact._two_sided_scan
    monkeypatch.setattr(bcdexact.exact, "_two_sided_scan",
                        lambda *args: scans.append(args) or scan(*args))
    [found] = steady_state_threshold_table([25], DesignParams(0.7), tols)
    assert len(scans) == 1
    assert found == [steady_state_threshold(25, DesignParams(0.7), tol) for tol in tols]
    assert found[0] == 85
    # the grid scans every k of a p in one call
    ps = (0.6, 0.7, 0.9)
    scans.clear()
    rows = threshold_grid(p_values=ps, tolerances=tols)
    assert len(scans) == len(ps)
    for k in (0, 1, 2, 25, 50):
        for p in ps:
            [want] = steady_state_threshold_table([k], DesignParams(p), tols)
            assert [r["n_threshold"] for r in rows if (r["k"], r["p"]) == (k, p)] == want


def scalar_scan(pairs, p):
    """P(|D_n| = k) for each (n, k) of pairs by the scalar ratio loop: the
    scan as the package ran it before the lane kernel (the oracle).

    Each mass starts at q**(k-1) and ends with p**((n-k)//2), both rescaled
    by `_scaled_power`, and runs `term *= q * r1 * r2 * r3; total += term`.
    The factor q * r1 * r2 * r3 of step l depends only on n + k and l, so
    it is computed once per (n + k, l); the running product and the total
    fold from the left, as the loop does.
    """
    q = 1.0 - p
    factors = {}
    out = []
    for n, k in pairs:
        a = (n + k) // 2
        if k > 0:
            steps = (n - k) // 2
            term, shift = _scaled_power(q, k - 1)
        else:
            steps, term, shift = n // 2 - 1, 1.0, 0
        if n + k not in factors:
            factors[n + k] = [
                q
                * ((n + k - 2 * l - 2) / (n + k - 2 * l))
                * ((n + k + 2 * l) / (n + k + 2 * l + 2))
                * ((a + l + 1) / (l + 1))
                for l in range(a - 1)
            ]
        terms = itertools.accumulate(factors[n + k][:max(steps, 0)], operator.mul, initial=term)
        total = functools.reduce(operator.add, terms)
        p_power, p_shift = _scaled_power(p, (n - k) // 2)
        out.append(math.ldexp(p_power * total, shift + p_shift))
    return out


def lane_scan(pairs, p):
    """The lane kernel on (n, k) pairs, as a list."""
    n, k = zip(*pairs)
    return _two_sided_scan(n, k, p)


@pytest.mark.parametrize("p", [0.55, 0.9])
def test_scan_lanes_equal_the_scalar_loop(p):
    # two-sided masses: halving them loses bits on subnormal masses
    pairs = [(m, k) for k in range(1000) for m in range(k, 1000, 2)]
    assert lane_scan(pairs, p) == scalar_scan(pairs, p)


def test_scan_lanes_at_the_edges():
    # q == 0, one-lane calls, lanes with no ratio step, and p = 1/2
    for p in (1.0, 0.5, 0.51, 0.999):
        pairs = [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (7, 7), (40, 0), (41, 3)]
        assert lane_scan(pairs, p) == scalar_scan(pairs, p)
        for pair in pairs:
            assert lane_scan([pair], p) == scalar_scan([pair], p)
    with pytest.raises(ValueError, match="parity"):
        _two_sided_scan([5], [2], 0.7)
    with pytest.raises(ValueError, match="parity"):
        _two_sided_scan([3], [5], 0.7)


def unscaled_scan(k, p, n):
    """The scan as first written: q**(k-1) and p**((n-k)//2) unscaled."""
    q = 1.0 - p
    if k:
        a, n_extra, term = (n + k) // 2, (n - k) // 2, q ** (k - 1)
    else:
        a, n_extra, term = n // 2, n // 2 - 1, 1.0
    total = term
    for l in range(n_extra):
        term *= (q * ((n + k - 2 * l - 2) / (n + k - 2 * l))
                 * ((n + k + 2 * l) / (n + k + 2 * l + 2)) * ((a + l + 1) / (l + 1)))
        total += term
    return p ** ((n - k) // 2) * total


@pytest.mark.parametrize("p", [0.55, 0.7, 0.9, 0.99])
def test_scan_keeps_its_bits_where_the_start_is_normal(p):
    compared = 0
    for n in (41, 120, 256, 257):
        ks = [k for k in range(n % 2, n + 1, 2) if not k or (1.0 - p) ** (k - 1) >= sys.float_info.min]
        assert lane_scan([(n, k) for k in ks], p) == [unscaled_scan(k, p, n) for k in ks]
        compared += len(ks)
    assert compared > 100


P_LADDER = [round(0.51 + 0.02 * i, 2) for i in range(25)]


@pytest.mark.parametrize("n", [500, 1000])
def test_scan_meets_the_recurrence_at_large_n(n):
    # the unscaled start q**(k-1) underflowed here: 1.6e-8 off at n = 500,
    # p = 0.83, and 0 for masses near 1e-250 at n = 1000, p = 0.55 .. 0.7
    ks = range(n % 2, n + 1, 2)
    for p in P_LADDER:
        law = dp_pmf_dn(n, DesignParams(p))
        for k, got in zip(ks, lane_scan([(n, k) for k in ks], p)):
            want = law.two_sided(k)
            if want >= 1e-290:
                assert abs(got - want) <= 1e-12 * want, (n, p, k, got, want)


@pytest.mark.parametrize("p", [0.5000001, 0.51, 0.99])
def test_scan_meets_the_recurrence_at_its_horizon(p):
    law = dp_pmf_dn(SCAN_N_MAX, DesignParams(p))
    ks = range(0, SCAN_N_MAX + 1, 10)
    for k, got in zip(ks, lane_scan([(SCAN_N_MAX, k) for k in ks], p)):
        want = law.two_sided(k)
        if want >= 1e-290:
            assert abs(got - want) <= 1e-12 * want, (p, k, got, want)
