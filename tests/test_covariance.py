"""Assignment covariance: joints, conditionals, matrix structure, spectrum.

Expected rationals were frozen from the exhaustive path oracle in
tests/bruteforce.py before the closed-form routes existed.
"""

import tracemalloc
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
    _first_returns,
    _round_robin,
    _row_weights,
    cond_assignment,
    eigen_spectrum,
    first_visit,
    joint_assignment,
    max_eigen_report,
    sigma,
    two_p_eigenvector,
    verify_2p_eigenpair,
)
from bcdexact.design import DesignParams, transition_prob
from bcdexact.exact import _two_sided_scan, dp_pmf_dn, pmf_dn
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
    assert first_visit(k, steps, DesignParams(p)) == expected
    assert first_visit(k, steps, DesignParams(float(p))) == pytest.approx(
        float(expected), abs=1e-15
    )


def test_first_visit_against_oracle_sweep():
    for p in (Fraction(3, 5), Fraction(2, 3), Fraction(9, 10)):
        params = DesignParams(p)
        for k in (1, 2, 3):
            for steps in range(0, 9):
                assert first_visit(k, steps, params) == bf.first_visit(
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
    assert cond_assignment(m, n, k, DesignParams(p)) == expected
    assert bf.cond_plus(m, n, k, p) == expected  # oracle agrees with itself


def test_conditional_on_an_impossible_event_is_zero():
    assert cond_assignment(4, 2, 1, P23) == 0  # parity-impossible
    assert cond_assignment(5, 2, 4, P23) == 0  # out of range


def test_conditional_requires_a_later_draw():
    with pytest.raises(ValueError):
        cond_assignment(2, 2, 0, P23)


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
    assert joint_assignment(n, m, DesignParams(p)) == expected


def test_fair_coin_joints_factorize_everywhere():
    params = DesignParams(Fraction(1, 2))
    for n, m in [(1, 2), (2, 5), (3, 4), (4, 9)]:
        assert joint_assignment(n, m, params) == Fraction(1, 4)


FROZEN_SIGMA_ENTRIES = [
    (1, 3, Fraction(2, 3), Fraction(-1, 9)),
    (2, 4, Fraction(7, 10), Fraction(-3, 25)),
    (3, 7, Fraction(3, 5), Fraction(-136, 3125)),
    (1, 4, Fraction(1), Fraction(0)),
]


@pytest.mark.parametrize("i,j,p,expected", FROZEN_SIGMA_ENTRIES)
def test_covariance_entries_match_frozen_oracle(i, j, p, expected):
    cov = sigma(max(i, j), DesignParams(p))
    assert cov.entry(i, j) == expected


def test_two_by_two_matrix_shape():
    cov = sigma(2, DesignParams(Fraction(4, 5)))
    assert cov.entry(1, 1) == 1
    assert cov.entry(2, 2) == 1
    assert cov.entry(1, 2) == cov.entry(2, 1) == Fraction(-3, 5)  # 1 - 2p


def test_fair_coin_gives_the_identity_matrix():
    cov = sigma(5, DesignParams(0.5))
    assert np.allclose(cov.as_array(), np.eye(5), atol=0)


def test_forced_alternation_pairs_neighbours():
    cov = sigma(6, DesignParams(Fraction(1)))
    for i in range(1, 7):
        for j in range(i + 1, 7):
            expected = Fraction(-1) if (j == i + 1 and i % 2 == 1) else Fraction(0)
            assert cov.entry(i, j) == expected, (i, j)


def test_entries_do_not_depend_on_the_horizon():
    small = sigma(4, P710)
    large = sigma(9, P710)
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
    cov = sigma(10, P23)
    for a in range(1, 6):
        for b in range(a + 1, 6):
            corner = cov.entry(2 * a - 1, 2 * b - 1)
            assert corner == cov.entry(2 * a - 1, 2 * b)
            assert corner == cov.entry(2 * a, 2 * b - 1)
            assert corner == cov.entry(2 * a, 2 * b)


def test_matrix_against_exhaustive_enumeration():
    for p in (Fraction(3, 5), Fraction(9, 10)):
        cov = sigma(6, DesignParams(p))
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert cov.entry(i, j) == bf.sigma_entry(i, j, p), (i, j, p)


def _per_entry_sigma(n, params):
    """Upper triangle of Sigma from one joint_assignment call per entry."""
    laws = {m: pmf_dn(m, params) for m in range(n)}
    table = FirstVisitTable(params)
    return {
        (i, j): 4 * joint_assignment(i, j, params, lambda m, k: laws[m].mass(k), table) - 1
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
    cov = sigma(n, params)
    for (i, j), want in _per_entry_sigma(n, params).items():
        assert cov.entry(i, j) == want, (i, j)
    for i, j in [(1, 2), (2, 7), (3, 8), (5, 9), (8, 10), (1, 10)]:
        assert cov.entry(i, j) == bf.sigma_entry(i, j, p), (i, j)


@pytest.mark.parametrize("p", [Fraction(713, 1000), Fraction(1, 2), Fraction(99, 100), Fraction(1)])
def test_rational_sigma_equals_the_per_entry_route_at_n_32(p):
    n = 32
    params = DesignParams(p)
    cov = sigma(n, params)
    assert all(type(x) is Fraction for x in cov.matrix.flat)
    assert all(cov.entry(i, i) == 1 for i in range(1, n + 1))
    for (i, j), want in _per_entry_sigma(n, params).items():
        assert cov.entry(i, j) == want == cov.entry(j, i), (i, j)


def test_rational_sigma_at_the_cap_equals_the_per_entry_route_at_both_ends_of_each_row():
    n = 64
    params = DesignParams(Fraction(501, 1000))
    cov = sigma(n, params)
    laws = {m: pmf_dn(m, params) for m in range(n)}
    table = FirstVisitTable(params)
    for i in range(1, n):
        for j in sorted({i + 1, (i + 1 + n) // 2, n}):
            want = 4 * joint_assignment(i, j, params, lambda m, k: laws[m].mass(k), table) - 1
            assert cov.entry(i, j) == want == cov.entry(j, i), (i, j)


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
    table, _ = _first_returns(FLOAT_SIGMA_N_CAP, params)
    visits = FirstVisitTable(params)
    top = FLOAT_SIGMA_N_CAP - 1
    for m, u in [(1, 0), (1, 1), (1, 2), (2, 40), (7, 99), (30, top), (128, top), (top, top)]:
        assert table[m, u] == pytest.approx(visits.f_hat(m, u), rel=1e-12, abs=1e-300), (m, u)


def scalar_first_returns(n, params):
    """F[m, u] = fhat_m(u) in float64, one row of the ratio recurrence at a time."""
    p, q = params.p, params.q
    f = np.zeros((n, n))
    f[0, 0] = 1.0
    for m in range(1, n):
        term = p**m
        for l in range(m, n, 2):
            f[m, l] = term
            a, b = (l + m) // 2, (l - m) // 2
            term = term * (l * (l + 1)) / ((a + 1) * (b + 1)) * (p * q)
    return np.cumsum(f, axis=1)


def scalar_exact_first_returns(n, params):
    """G[m, u] = fhat_m(u) B^(n-1) on integers for p = A/B, one row at a time."""
    big_a, big_b = params.p.numerator, params.p.denominator
    big_q = big_b - big_a
    g = np.zeros((n, n), dtype=object)
    g[0, 0] = 1
    for m in range(1, n):
        term = big_a**m
        for l in range(m, n, 2):
            g[m, l] = term
            a, b = (l + m) // 2, (l - m) // 2
            term = term * (l * (l + 1)) * big_a * big_q // ((a + 1) * (b + 1))
    scale = np.array([big_b ** (n - 1 - l) for l in range(n)], dtype=object)
    return np.cumsum(g * scale, axis=1)


@pytest.mark.parametrize("p", [0.5, 0.55, 0.7, 0.713, 0.9, 0.99, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 13, 64, 255, 256])
def test_float_first_returns_keep_the_scalar_loops_bits(n, p):
    params = DesignParams(p)
    table, top = _first_returns(n, params)
    assert top == 1
    assert table.dtype == np.float64
    assert table.tobytes() == scalar_first_returns(n, params).tobytes()


@pytest.mark.parametrize(
    "p", [Fraction(1, 2), Fraction(51, 100), Fraction(7, 10), Fraction(713, 1000), Fraction(1)],
    ids=str,
)
@pytest.mark.parametrize("n", [1, 2, 3, 13, 32, 64])
def test_rational_first_returns_equal_the_scalar_loop(n, p):
    params = DesignParams(p)
    table, scale = _first_returns(n, params)
    assert scale == [p.denominator**u for u in range(n)]
    assert table.shape == (n, n)
    assert all(type(x) is int for x in table.flat)
    # column u is at its natural scale B^u; the oracle has every column at B^(n-1)
    rescaled = table * np.array([p.denominator ** (n - 1 - u) for u in range(n)], dtype=object)
    assert list(rescaled.flat) == list(scalar_exact_first_returns(n, params).flat)


@pytest.mark.parametrize(
    "p", [0.5, 0.55, 0.7, 0.9, 1.0, Fraction(7, 10), Fraction(713, 1000)], ids=str
)
def test_row_weights_equal_a_scalar_loop_over_each_law(p):
    # a float row keeps its bits only if each sum adds its terms in this order
    params = DesignParams(p)
    scale = 2 * p.denominator if params.is_exact else 1  # rational laws and t_k on integers
    t = lambda k: transition_prob(params, k) * scale
    for n in (1, 2, 40):
        laws = np.zeros((n - 1, n - 1), dtype=object if params.is_exact else float)
        for m in range(n - 1):
            for k, mass in pmf_dn(m, params).masses.items():
                if k >= 0:
                    laws[m, k] = int(mass * scale**m) if params.is_exact else mass
        weights, consts = _row_weights(laws, t(0), t(1), t(-1))
        assert weights.shape == (n - 1, n) and consts.shape == (n - 1,)
        for m, law in enumerate(laws):
            w, c = [params.zero] * n, params.zero
            for k in [0] + [sign * j for j in range(1, n - 1) for sign in (1, -1)]:
                w[abs(k + 1)] += law[abs(k)] * t(k) * (t(0) - t(k + 1))
                c += law[abs(k)] * t(k) * t(k + 1)
            assert np.array_equal(weights[m], np.array(w, dtype=laws.dtype)), (n, m)
            assert consts[m] == c, (n, m)


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


# ---------------------------------------------------------------------------
# spectrum


def test_two_by_two_spectrum_is_2p_and_2q():
    for p in (0.6, 0.7, 0.95):
        spectrum = eigen_spectrum(sigma(2, DesignParams(p)))
        assert spectrum[0] == pytest.approx(2 * p, abs=1e-12)
        assert spectrum[1] == pytest.approx(2 - 2 * p, abs=1e-12)


@pytest.mark.parametrize("n", [*range(2, 131), 255, 256])
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
    # The order of the steps fixes the spectrum's bits; each step's pairs keep
    # the frozen order too.
    frozen = bf.round_robin_pairs(n)
    assert len(frozen) == len(steps)
    for (i, j), (fi, fj) in zip(steps, frozen):
        assert i.tolist() == fi.tolist() and j.tolist() == fj.tolist()


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


def test_eigen_names_an_empty_or_non_finite_matrix():
    with pytest.raises(ValueError, match="at least one row"):
        eigen_spectrum(np.zeros((0, 0)))
    for bad in (np.inf, -np.inf, np.nan):
        arr = np.eye(2)
        arr[0, 1] = arr[1, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            eigen_spectrum(arr)
    arr = np.eye(3)
    arr[2, 2] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        eigen_spectrum(arr)


def test_a_spectrum_call_leaves_no_memory_behind():
    # One off-diagonal pair makes each call build its whole schedule and run
    # one full sweep: milliseconds at sizes where a solve of Sigma takes seconds.
    arrays = []
    for n in range(225, 254, 4):
        arr = np.diag(np.arange(1.0, n + 1))
        arr[0, -1] = arr[-1, 0] = 1e-3
        arrays.append(arr)
    eigen_spectrum(sigma(8, DesignParams(0.7)))  # numpy's first-call state is not the solver's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for arr in arrays:
            eigen_spectrum(arr)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024


# The stacked steps must give the bits of the step-by-step solver frozen in
# tests/bruteforce.py: every entry is round(c x) + round(-s y), which is
# round(c x) - round(s y).
@pytest.mark.parametrize("p", [0.5, 0.51, 0.55, 0.7, 0.9, 0.999, 1.0, Fraction(5, 7)])
def test_spectrum_bits_match_the_frozen_solver_on_sigma(p):
    for n in range(1, 65):
        arr = sigma(n, DesignParams(p)).as_array()
        assert eigen_spectrum(arr).tobytes() == bf.jacobi_spectrum(arr).tobytes(), n


def tied_symmetric(rng, n):
    """A symmetric matrix whose diagonal takes two values, so many pairs tie.

    A tie with a negative a_ij makes tau = 0 / (2 a_ij) = -0.0, which must
    still rotate with t > 0.
    """
    half = rng.normal(size=(n, n))
    arr = (half + half.T) / 2
    np.fill_diagonal(arr, rng.choice([0.5, 1.0], size=n))
    return arr


def test_spectrum_bits_match_the_frozen_solver_on_ties():
    rng = np.random.default_rng(25)
    tied = [tied_symmetric(rng, n) for n in (2, 3, 4, 5, 9, 16, 17, 31)]
    integers = [rng.integers(-2, 3, size=(n, n)) for n in (3, 8, 13)]
    tied += [np.triu(m) + np.triu(m, 1).T for m in integers]
    tied.append(np.array([[1.0, -0.5], [-0.5, 1.0]]))  # tau = -0.0 at once
    for arr in tied:
        assert eigen_spectrum(arr).tobytes() == bf.jacobi_spectrum(arr).tobytes(), arr.shape
    assert eigen_spectrum(tied[-1]) == pytest.approx([1.5, 0.5], abs=1e-15)


@pytest.mark.parametrize("budget", [1, 2, 50])
def test_an_exhausted_budget_names_the_frozen_solver_s_count_and_norm(budget):
    arr = sigma(12, DesignParams(0.7)).as_array()
    with pytest.raises(ConvergenceError) as mine:
        eigen_spectrum(arr, max_rotations=budget)
    with pytest.raises(RuntimeError) as frozen:
        bf.jacobi_spectrum(arr, max_rotations=budget)
    assert str(mine.value) == str(frozen.value)


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
