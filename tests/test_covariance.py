"""Assignment covariance: joints, conditionals, matrix structure, spectrum.

Expected rationals were frozen from the exhaustive path oracle in
tests/bruteforce.py before the closed-form routes existed.
"""

from fractions import Fraction

import numpy as np
import pytest

import bcdexact.covariance
import bruteforce as bf
from bcdexact.cli import FLOAT_SIGMA_N_CAP
from bcdexact.covariance import (
    AssignmentCovariance,
    ConvergenceError,
    FirstVisitTable,
    _first_return_table,
    _imbalance_laws,
    _round_robin,
    cond_assignment,
    eigen_spectrum,
    first_visit,
    joint_assignment,
    max_eigen_report,
    sigma,
    two_p_eigenvector,
    verify_2p_eigenpair,
)
from bcdexact.design import DesignParams
from bcdexact.exact import _two_sided_scan, dp_pmf_dn, pmf_dn
from bcdexact.stable import FLOAT64_STABLE
from test_exact import scalar_scan

P23 = DesignParams(Fraction(2, 3))
P35 = DesignParams(Fraction(3, 5))
P710 = DesignParams(Fraction(7, 10))


FROZEN_FIRST_VISITS = [
    # (k, steps, p, probability of first touching balance exactly then)
    (1, 3, Fraction(2, 3), Fraction(4, 27)),
    (1, 2, Fraction(2, 3), Fraction(0)),
    (2, 2, Fraction(2, 3), Fraction(4, 9)),
    (2, 4, Fraction(3, 5), Fraction(108, 625)),
    (-2, 4, Fraction(3, 5), Fraction(108, 625)),
    (3, 5, Fraction(7, 10), Fraction(21609, 100000)),
    (1, 5, Fraction(1, 2), Fraction(1, 16)),
]


@pytest.mark.parametrize("k,steps,p,expected", FROZEN_FIRST_VISITS)
def test_first_visit_matches_frozen_oracle(k, steps, p, expected):
    assert first_visit(k, steps, DesignParams(p), "rational") == expected
    assert first_visit(k, steps, DesignParams(float(p))) == pytest.approx(
        float(expected), abs=1e-15
    )


def test_first_visit_against_oracle_sweep():
    for p in (Fraction(3, 5), Fraction(2, 3), Fraction(9, 10)):
        params = DesignParams(p)
        for k in (1, 2, 3):
            for steps in range(0, 9):
                assert first_visit(k, steps, params, "rational") == bf.first_visit(
                    k, steps, p
                ), (k, steps, p)


FROZEN_CONDITIONALS = [
    # P(T_m = +1 | D_n = k)
    (4, 1, 1, Fraction(2, 3), Fraction(4, 9)),
    (5, 2, -2, Fraction(3, 5), Fraction(141, 250)),
    (6, 3, 1, Fraction(7, 10), Fraction(11, 25)),
    (3, 2, 0, Fraction(9, 10), Fraction(1, 2)),
]


@pytest.mark.parametrize("m,n,k,p,expected", FROZEN_CONDITIONALS)
def test_conditional_assignment_matches_frozen_oracle(m, n, k, p, expected):
    assert cond_assignment(m, n, k, DesignParams(p), "rational") == expected
    assert bf.cond_plus(m, n, k, p) == expected  # oracle agrees with itself


def test_conditional_on_an_impossible_event_is_zero():
    assert cond_assignment(4, 2, 1, P23, "rational") == 0  # parity-impossible
    assert cond_assignment(5, 2, 4, P23, "rational") == 0  # out of range


def test_conditional_requires_a_later_draw():
    with pytest.raises(ValueError):
        cond_assignment(2, 2, 0, P23, "rational")


FROZEN_JOINTS = [
    # P(T_n = +1, T_m = +1)
    (1, 2, Fraction(2, 3), Fraction(1, 6)),
    (1, 3, Fraction(2, 3), Fraction(2, 9)),
    (2, 3, Fraction(7, 10), Fraction(11, 50)),
    (2, 5, Fraction(7, 10), Fraction(2347, 10000)),
    (3, 7, Fraction(3, 5), Fraction(2989, 12500)),
    (1, 2, Fraction(1, 2), Fraction(1, 4)),
]


@pytest.mark.parametrize("n,m,p,expected", FROZEN_JOINTS)
def test_joint_assignment_matches_frozen_oracle(n, m, p, expected):
    assert joint_assignment(n, m, DesignParams(p), "rational") == expected


def test_fair_coin_joints_factorize_everywhere():
    params = DesignParams(Fraction(1, 2))
    for n, m in [(1, 2), (2, 5), (3, 4), (4, 9)]:
        assert joint_assignment(n, m, params, "rational") == Fraction(1, 4)


FROZEN_SIGMA_ENTRIES = [
    (1, 3, Fraction(2, 3), Fraction(-1, 9)),
    (2, 4, Fraction(7, 10), Fraction(-3, 25)),
    (3, 7, Fraction(3, 5), Fraction(-136, 3125)),
    (1, 4, Fraction(1), Fraction(0)),
]


@pytest.mark.parametrize("i,j,p,expected", FROZEN_SIGMA_ENTRIES)
def test_covariance_entries_match_frozen_oracle(i, j, p, expected):
    cov = sigma(max(i, j), DesignParams(p), "rational")
    assert cov.entry(i, j) == expected


def test_two_by_two_matrix_shape():
    cov = sigma(2, DesignParams(Fraction(4, 5)), "rational")
    assert cov.entry(1, 1) == 1
    assert cov.entry(2, 2) == 1
    assert cov.entry(1, 2) == cov.entry(2, 1) == Fraction(-3, 5)  # 1 - 2p


def test_fair_coin_gives_the_identity_matrix():
    cov = sigma(5, DesignParams(0.5))
    assert np.allclose(cov.as_array(), np.eye(5), atol=0)


def test_forced_alternation_pairs_neighbours():
    cov = sigma(6, DesignParams(Fraction(1)), "rational")
    for i in range(1, 7):
        for j in range(i + 1, 7):
            expected = Fraction(-1) if (j == i + 1 and i % 2 == 1) else Fraction(0)
            assert cov.entry(i, j) == expected, (i, j)


def test_entries_do_not_depend_on_the_horizon():
    small = sigma(4, P710, "rational")
    large = sigma(9, P710, "rational")
    for i in range(1, 5):
        for j in range(1, 5):
            assert small.entry(i, j) == large.entry(i, j)
    assert large.principal(4).entry(2, 3) == small.entry(2, 3)


def test_matrix_is_symmetric_with_unit_diagonal():
    for p in (0.6, 0.85):
        cov = sigma(20, DesignParams(p))
        arr = cov.as_array()
        assert np.array_equal(arr, arr.T)
        assert np.array_equal(np.diag(arr), np.ones(20))


def test_paired_block_entries_are_equal_exactly():
    cov = sigma(10, P23, "rational")
    for a in range(1, 6):
        for b in range(a + 1, 6):
            corner = cov.entry(2 * a - 1, 2 * b - 1)
            assert corner == cov.entry(2 * a - 1, 2 * b)
            assert corner == cov.entry(2 * a, 2 * b - 1)
            assert corner == cov.entry(2 * a, 2 * b)


def test_matrix_against_exhaustive_enumeration():
    for p in (Fraction(3, 5), Fraction(9, 10)):
        cov = sigma(6, DesignParams(p), "rational")
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert cov.entry(i, j) == bf.sigma_entry(i, j, p), (i, j, p)


def _per_entry_sigma(n, params, mode=FLOAT64_STABLE):
    """Upper triangle of Sigma from one joint_assignment call per entry."""
    laws = {m: pmf_dn(m, params, mode) for m in range(n)}
    table = FirstVisitTable(params, mode)
    return {
        (i, j): 4 * joint_assignment(i, j, params, mode, lambda m, k: laws[m].mass(k), table) - 1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


@pytest.mark.parametrize("p", [0.5, 0.55, 0.7, 0.9, 0.95, 1.0])
def test_float_rows_match_the_per_entry_route(p):
    n = 64
    params = DesignParams(p)
    cov = sigma(n, params)
    for (i, j), want in _per_entry_sigma(n, params).items():
        assert abs(cov.entry(i, j) - want) <= 1e-14, (i, j)


@pytest.mark.parametrize("p", [Fraction(3, 5), Fraction(7, 10), Fraction(19, 20)])
def test_rational_rows_equal_the_per_entry_route_and_enumeration(p):
    n = 16
    params = DesignParams(p)
    cov = sigma(n, params, "rational")
    for (i, j), want in _per_entry_sigma(n, params, "rational").items():
        assert cov.entry(i, j) == want, (i, j)
    for i, j in [(1, 2), (2, 7), (3, 8), (5, 9), (8, 10), (1, 10)]:
        assert cov.entry(i, j) == bf.sigma_entry(i, j, p), (i, j)


@pytest.mark.parametrize("p", [0.5, 0.55, 0.95, 1.0])
def test_row_sources_hold_at_the_float_size_cap(p):
    """The closed-form scan and the first-return recurrence stay accurate at
    the largest float Sigma the command line builds."""
    params = DesignParams(p)
    for m in (FLOAT_SIGMA_N_CAP - 1, FLOAT_SIGMA_N_CAP):
        oracle = dp_pmf_dn(m, params)
        ks = range(m % 2, m + 1, 2)
        for k, got in zip(ks, _two_sided_scan([m] * len(ks), ks, p)):
            want = oracle.two_sided(k)
            if want >= 1e-290:
                assert abs(got - want) <= 1e-12 * want, (m, k)
    table = _first_return_table(FLOAT_SIGMA_N_CAP, params, 1.0)
    visits = FirstVisitTable(params)
    top = FLOAT_SIGMA_N_CAP - 1
    for m, u in [(1, 0), (1, 1), (1, 2), (2, 40), (7, 99), (30, top), (128, top), (top, top)]:
        assert table[m, u] == pytest.approx(visits.f_hat(m, u), rel=1e-12, abs=1e-300), (m, u)


def test_float_laws_keep_the_k_major_key_order():
    # _row_weights sums each law in its key order, so the order fixes Sigma's bits
    laws = _imbalance_laws(20, DesignParams(0.7), FLOAT64_STABLE)
    for m, law in enumerate(laws):
        assert list(law) == [j for k in range(m % 2, m + 1, 2) for j in ((k, -k) if k else (0,))]


@pytest.mark.parametrize("n", [48, 256])
@pytest.mark.parametrize("p", [0.7, 0.9])
def test_float_sigma_equals_sigma_from_the_scalar_scan(n, p, monkeypatch):
    params = DesignParams(p)
    fast = sigma(n, params).matrix
    monkeypatch.setattr(bcdexact.covariance, "_two_sided_scan",
                        lambda m, k, p: scalar_scan(zip(m, k), p))
    assert np.array_equal(fast, sigma(n, params).matrix)


def test_quadratic_form_and_validation():
    cov = sigma(4, DesignParams(0.75))
    z = np.array([1.0, 0.0, 0.0, 0.0])
    assert cov.quadratic_form(z) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        cov.quadratic_form(np.ones(3))


def test_rational_mode_requires_rational_p():
    with pytest.raises(ValueError):
        sigma(3, DesignParams(0.7), "rational")


# ---------------------------------------------------------------------------
# spectrum


def test_two_by_two_spectrum_is_2p_and_2q():
    for p in (0.6, 0.7, 0.95):
        spectrum = eigen_spectrum(sigma(2, DesignParams(p)))
        assert spectrum[0] == pytest.approx(2 * p, abs=1e-12)
        assert spectrum[1] == pytest.approx(2 - 2 * p, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 6, 7, 16, 33])
def test_round_robin_meets_every_pair_once_per_sweep(n):
    steps = _round_robin(n)
    assert len(steps) == n - 1 + n % 2
    seen = []
    for i, j in steps:
        assert len(i) == len(j) == n // 2
        assert np.all(i < j)
        assert len(set(i) | set(j)) == n - n % 2  # disjoint within the step
        seen += zip(i.tolist(), j.tolist())
    assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize("n", [3, 8, 17, 30, 33, 65])
@pytest.mark.parametrize("p", [0.5, 0.7, 0.9, 1.0])
def test_jacobi_agrees_with_the_library_solver(n, p):
    arr = sigma(n, DesignParams(p)).as_array()
    mine = eigen_spectrum(arr)
    reference = np.sort(np.linalg.eigvalsh(arr))[::-1]
    assert np.allclose(mine, reference, atol=1e-9)


def test_spectrum_preserves_the_trace():
    arr = sigma(12, DesignParams(0.8)).as_array()
    assert eigen_spectrum(arr).sum() == pytest.approx(12.0, abs=1e-9)


def test_eigen_rejects_nonsquare_and_asymmetric_input():
    with pytest.raises(ValueError):
        eigen_spectrum(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigen_spectrum(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_eigen_raises_when_rotation_budget_is_exhausted():
    arr = sigma(6, DesignParams(0.7)).as_array()
    with pytest.raises(ConvergenceError):
        eigen_spectrum(arr, max_rotations=2)


def test_known_eigenvector_of_the_covariance():
    for n, p in [(2, 0.6), (11, 0.75), (40, 0.9)]:
        residual = verify_2p_eigenpair(sigma(n, DesignParams(p)))
        assert residual <= 1e-12
    v = two_p_eigenvector(5)
    assert v[0] == pytest.approx(np.sqrt(2) / 2)
    assert v[1] == pytest.approx(-np.sqrt(2) / 2)
    assert np.all(v[2:] == 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_largest_eigenvalue_report_is_a_report_not_an_assertion():
    report = max_eigen_report(DesignParams(0.7), eigen_spectrum(sigma(8, DesignParams(0.7))))
    assert report.n == 8
    assert report.two_p == pytest.approx(1.4)
    assert abs(report.gap) <= 1e-8
    assert report.agrees
    # the fields stay available even if some future horizon disagreed;
    # nothing in the library asserts the maximality claim
    assert hasattr(report, "lambda_max")


def test_principal_view_is_a_real_submatrix():
    cov = sigma(12, DesignParams(0.8))
    sub = cov.principal(5)
    assert isinstance(sub, AssignmentCovariance)
    assert sub.n == 5
    assert np.array_equal(sub.as_array(), cov.as_array()[:5, :5])
