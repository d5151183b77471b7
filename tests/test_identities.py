"""Combinatorial identities behind the closed forms.

Both recurrences below are the algebra that collapses the telescoping
sums in the imbalance distribution; they are checked here in pure integer
arithmetic (both sides multiplied through by the denominators), so any
failure is a genuine counterexample rather than roundoff.
"""

import math
from fractions import Fraction

import pytest

from bcdexact.covariance import FirstVisitTable, first_visit
from bcdexact.design import DesignParams
from bcdexact.exact import StationaryDist, pmf_dn, pmf_masses, var_dns


def _even_step_identity_holds(n: int, l: int) -> bool:
    # [(n-2l)/(n+2l)] C(n/2+l, l) + [(n-2l+4)/(n+2l)] C(n/2+l, l-1)
    #   == [(n+2-2l)/(n+2+2l)] C(n/2+1+l, l)
    # cleared of denominators (n+2l)(n+2+2l):
    half = n // 2
    lhs = (n - 2 * l) * (n + 2 + 2 * l) * math.comb(half + l, l) + (
        n - 2 * l + 4
    ) * (n + 2 + 2 * l) * math.comb(half + l, l - 1)
    rhs = (n + 2 - 2 * l) * (n + 2 * l) * math.comb(half + 1 + l, l)
    return lhs == rhs


def _offset_step_identity_holds(n: int, k: int, l: int) -> bool:
    # [(n+k-2l+3)/(n+k+2l-1)] C((n+k+1)/2+l-1, l-1)
    #   + [(n+k-2l-1)/(n+k+2l-1)] C((n+k-1)/2+l, l)
    #   == [(n+k-2l+1)/(n+k+2l+1)] C((n+k+1)/2+l, l)
    # cleared of denominators (n+k+2l-1)(n+k+2l+1):
    s = n + k
    upper = (s + 1) // 2
    lhs = (s - 2 * l + 3) * (s + 2 * l + 1) * math.comb(upper + l - 1, l - 1) + (
        s - 2 * l - 1
    ) * (s + 2 * l + 1) * math.comb(upper - 1 + l, l)
    rhs = (s - 2 * l + 1) * (s + 2 * l - 1) * math.comb(upper + l, l)
    return lhs == rhs


@pytest.mark.parametrize("n", range(4, 81, 2))
def test_even_step_identity_exact_integers(n):
    for l in range(1, n // 2):
        assert _even_step_identity_holds(n, l), (n, l)


def test_even_step_identity_spot_checks_large_n():
    for n in (150, 200):
        for l in range(1, n // 2):
            assert _even_step_identity_holds(n, l), (n, l)


@pytest.mark.parametrize("n", range(3, 41))
def test_offset_step_identity_exact_integers(n):
    for k in range(2, n + 1):
        if (n + k) % 2 == 0:
            continue
        for l in range(1, (n - k + 1) // 2 + 1):
            assert _offset_step_identity_holds(n, k, l), (n, k, l)


def test_offset_step_identity_spot_checks_large_n():
    for n in (121, 160):
        for k in range(2, n + 1, 7):
            if (n + k) % 2 == 0:
                continue
            for l in range(1, (n - k + 1) // 2 + 1):
                assert _offset_step_identity_holds(n, k, l), (n, k, l)


# ---------------------------------------------------------------------------
# first-visit cumulative identity: a walk started one step from balance
# either returns immediately (prob p) or moves to distance two and must
# come back from there with two fewer steps of budget


@pytest.mark.parametrize("n", [2, 3, 5, 10, 37, 100, 200])
@pytest.mark.parametrize("p", [0.5, 0.6, 2 / 3, 0.8, 0.95, 1.0])
def test_first_visit_split_identity_float(n, p):
    params = DesignParams(p)
    table = FirstVisitTable(params)
    lhs = table.f_hat(1, n - 1)
    rhs = p + (1 - p) * table.f_hat(2, n - 2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 21, 60])
def test_first_visit_split_identity_exact(n):
    params = DesignParams(Fraction(2, 3))
    table = FirstVisitTable(params)
    assert table.f_hat(1, n - 1) == Fraction(2, 3) + Fraction(1, 3) * table.f_hat(2, n - 2)


def test_first_visit_cumulative_is_monotone_and_bounded():
    table = FirstVisitTable(DesignParams(0.8))
    previous = 0.0
    for u in range(0, 200):
        value = table.f_hat(3, u)
        assert previous <= value <= 1.0 + 1e-15
        previous = value


def test_first_visit_from_anywhere_is_eventually_certain():
    # positive drift toward balance makes the return probability 1; by
    # step 500 the missing tail is far below double precision
    table = FirstVisitTable(DesignParams(0.8))
    assert 1.0 - table.f_hat(1, 500) < 1e-12
    assert 1.0 - table.f_hat(4, 500) < 1e-12


def test_single_step_masses_match_transition_probabilities():
    params = DesignParams(Fraction(7, 10))
    # one step from distance one: returning means drawing toward balance
    assert first_visit(1, 1, params) == Fraction(7, 10)
    assert first_visit(-1, 1, params) == Fraction(7, 10)
    # from distance two the soonest return is two steps
    assert first_visit(2, 2, params) == Fraction(49, 100)
    assert first_visit(2, 1, params) == 0


# ---------------------------------------------------------------------------
# moments of the imbalance from the balance masses P0(m) = P(D_m = 0):
#   E|D_{m+1}|  = E|D_m| + 2p P0(m) - (2p - 1)
#   E[D_{m+1}^2] = E[D_m^2] + 1 - 2(2p - 1) E|D_m|
# so the variance table (E[D_n^2] = Var(D_n)) follows from the balance
# masses that selection bias reads.


@pytest.mark.parametrize(
    "p", [Fraction(7, 10), Fraction(713, 1000), Fraction(51, 100), Fraction(1)], ids=str
)
def test_imbalance_moments_follow_from_the_balance_masses(p):
    params = DesignParams(p)
    ns = [*range(64), 128, 256]
    balance = pmf_masses([(m, 0) for m in range(max(ns))], params)
    abs_moment, square = [Fraction(0)], [Fraction(0)]  # E|D_0|, E[D_0^2]
    for m, p0 in enumerate(balance):
        abs_moment.append(abs_moment[m] + 2 * p * p0 - (2 * p - 1))
        square.append(square[m] + 1 - 2 * (2 * p - 1) * abs_moment[m])
    assert [square[n] for n in ns] == var_dns(ns, params)
    for n in range(40):
        law = pmf_dn(n, params).masses
        assert abs_moment[n] == sum(abs(k) * mass for k, mass in law.items()), n


@pytest.mark.parametrize("p", [0.6, 0.7, 0.9])
def test_stationary_mean_imbalances_of_both_parities_sum_to_one_over_the_drift(p):
    # the limit of the second moment step, taken along even and odd n
    dist = StationaryDist(DesignParams(p))
    even = math.fsum(k * dist.two_sided_limit(k) for k in range(0, 300, 2))
    odd = math.fsum(k * dist.two_sided_limit(k) for k in range(1, 300, 2))
    assert even + odd == pytest.approx(1 / (2 * p - 1), rel=1e-12)

