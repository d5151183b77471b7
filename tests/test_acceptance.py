"""Acceptance gate: one test per shipping criterion.

Every test prints one `[criterion NN] PASS|FAIL ...` line (run pytest
with -s or check the captured output) and carries the full violation
list in its assertion message.  Reference digits are the frozen target
values the library must reproduce; comparisons run in exact rational
arithmetic with inclusive bounds so that cells sitting exactly on a
rounding boundary are judged by algebra, not by float luck.
"""

import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from bcdexact import tables
from bcdexact.bias import (
    asymptotic_excess,
    selection_bias_report,
    selection_bias_step,
    total_bias_closed_form,
)
from bcdexact.covariance import (
    FirstVisitTable,
    eigen_spectrum,
    sigma,
    two_p_eigenvector,
    verify_2p_eigenpair,
)
from bcdexact.design import DesignParams
from bcdexact.exact import asymptotic_var, dp_pmf_dn, pmf_at, pmf_dn, var_dn
from bcdexact.simulate import (
    mc_estimate,
    rank_statistic_variance,
    stat_balance,
    stat_correct_guess,
    stat_imbalance_sq,
    stat_product,
)

FLOAT_P_GRID = (0.5, 0.6, 2 / 3, 0.7, 0.8, 0.9, 1.0)
RATIONAL_P_GRID = (
    Fraction(1, 2),
    Fraction(3, 5),
    Fraction(2, 3),
    Fraction(7, 10),
    Fraction(4, 5),
    Fraction(9, 10),
    Fraction(1),
)
TABLE_P = (Fraction(3, 5), Fraction(7, 10), Fraction(4, 5), Fraction(9, 10))

# Frozen reference digits for the three published-style grids, one string
# per p in TABLE_P order; the None key is the large-n limit row.
REFERENCE_VARIANCE_DIGITS = {
    "even": {
        10: ("5.19", "2.55", "1.18", "0.46"),
        20: ("7.65", "2.91", "1.21", "0.46"),
        50: ("10.78", "3.04", "1.21", "0.46"),
        100: ("12.10", "3.04", "1.21", "0.46"),
        200: ("12.45", "3.04", "1.21", "0.46"),
        None: ("12.48", "3.04", "1.21", "0.46"),
    },
    "odd": {
        5: ("3.30", "2.15", "1.45", "1.10"),
        15: ("6.63", "2.95", "1.56", "1.10"),
        25: ("8.52", "3.13", "1.57", "1.10"),
        75: ("11.73", "3.20", "1.57", "1.10"),
        # p = 0.9 was frozen as 1.11, but its limit is exactly 881/800 = 1.10125
        None: ("12.52", "3.21", "1.57", "1.10"),
    },
}
REFERENCE_EXCESS_DIGITS = {
    5: ("0.058", "0.107", "0.146", "0.177"),
    10: ("0.070", "0.129", "0.178", "0.217"),
    15: ("0.072", "0.129", "0.173", "0.207"),
    20: ("0.075", "0.136", "0.183", "0.220"),
    25: ("0.076", "0.135", "0.179", "0.213"),
    50: ("0.080", "0.140", "0.186", "0.221"),
    75: ("0.081", "0.140", "0.185", "0.219"),
    100: ("0.081", "0.141", "0.187", "0.222"),
    200: ("0.082", "0.142", "0.187", "0.222"),
    None: ("0.083", "0.143", "0.188", "0.222"),
}
# k -> p -> smallest settled n for tolerances (10%, 5%, 1%, 0.1%);
# None encodes the ">500" sentinel.
REFERENCE_THRESHOLD_INTS = {
    0: {0.6: (20, 34, 74, 146), 0.7: (6, 8, 18, 34), 0.8: (2, 4, 8, 14), 0.9: (2, 2, 4, 6)},
    1: {0.6: (19, 33, 73, 145), 0.7: (5, 7, 17, 33), 0.8: (1, 3, 7, 13), 0.9: (1, 1, 3, 5)},
    2: {0.6: (14, 28, 68, 140), 0.7: (4, 4, 8, 22), 0.8: (4, 4, 8, 14), 0.9: (2, 4, 6, 8)},
    25: {0.6: (183, 211, 279, 379), 0.7: (85, 93, 113, 141), 0.8: (53, 57, 65, 77), 0.9: (37, 39, 43, 49)},
    50: {0.6: (342, 380, 464, None), 0.7: (158, 168, 194, 226), 0.8: (100, 104, 116, 130), 0.9: (70, 72, 78, 86)},
}


def _report(num: int, violations: list, description: str):
    status = "PASS" if not violations else "FAIL"
    print(f"[criterion {num:02d}] {status} {description}")
    assert not violations, f"criterion {num}:\n" + "\n".join(violations)


def test_criterion_01_variance_reference_grid():
    band = Fraction(1, 200)  # +/- 0.005, inclusive: two-place rounding
    violations = []

    t0 = time.perf_counter()
    grid = tables.variance_grid()
    elapsed = time.perf_counter() - t0
    float_cells = {(r["parity"], r["n"], r["p"]): r["variance"] for r in grid}

    for parity, ladder in REFERENCE_VARIANCE_DIGITS.items():
        for n, digits in ladder.items():
            for p_exact, text in zip(TABLE_P, digits):
                exact_params = DesignParams(p_exact)
                if n is None:
                    value = asymptotic_var(exact_params, parity)
                else:
                    value = var_dn(n, exact_params, "rational")
                diff = abs(value - Fraction(text))
                if diff > band:
                    violations.append(
                        f"cell (parity={parity}, n={'inf' if n is None else n}, "
                        f"p={float(p_exact)}): computed {value} = {float(value)}, "
                        f"reference digits {text}, |diff| = {float(diff)} > 0.005"
                    )
                float_value = float_cells[(parity, n, float(p_exact))]
                float_gap = abs(float_value - float(value))
                if float_gap > 1e-9:
                    violations.append(
                        f"float route drifted from the rational route at "
                        f"(parity={parity}, n={n}, p={float(p_exact)}): {float_gap}"
                    )
    if elapsed >= 10.0:
        violations.append(f"grid took {elapsed:.2f} s, budget is 10 s single-threaded")

    _report(
        1,
        violations,
        "terminal-imbalance variance grid, 36 finite + 8 limit cells within 0.005, under 10 s",
    )


def test_criterion_02_selection_bias_reference_grid():
    band = Fraction(1, 2000)  # +/- 0.0005, inclusive: three-place rounding
    violations = []

    t0 = time.perf_counter()
    grid = tables.selection_bias_grid()
    elapsed = time.perf_counter() - t0
    float_cells = {(r["n"], r["p"]): r["average_excess"] for r in grid}

    for n, digits in REFERENCE_EXCESS_DIGITS.items():
        for p_exact, text in zip(TABLE_P, digits):
            exact_params = DesignParams(p_exact)
            if n is None:
                value = asymptotic_excess(exact_params)
            else:
                value = selection_bias_report(n, exact_params, "rational").average_excess
            diff = abs(value - Fraction(text))
            if diff > band:
                violations.append(
                    f"cell (n={'inf' if n is None else n}, p={float(p_exact)}): "
                    f"computed {value} = {float(value)}, reference {text}, "
                    f"|diff| = {float(diff)} > 0.0005"
                )
            float_gap = abs(float_cells[(n, float(p_exact))] - float(value))
            if float_gap > 1e-9:
                violations.append(
                    f"float route drifted from the rational route at "
                    f"(n={n}, p={float(p_exact)}): {float_gap}"
                )
    if elapsed >= 10.0:
        violations.append(f"grid took {elapsed:.2f} s, budget is 10 s single-threaded")

    _report(
        2,
        violations,
        "guessing-advantage grid, 36 finite + 4 limit cells within 0.0005, under 10 s",
    )


def test_criterion_03_threshold_reference_grid():
    violations = []
    t0 = time.perf_counter()
    grid = tables.threshold_grid()
    elapsed = time.perf_counter() - t0

    assert len(grid) == 80
    for row in grid:
        tol_index = tables.THRESHOLD_TOL_GRID.index(row["tol"])
        want = REFERENCE_THRESHOLD_INTS[row["k"]][row["p"]][tol_index]
        if row["n_threshold"] != want:
            violations.append(
                f"threshold (k={row['k']}, p={row['p']}, tol={row['tol']}): "
                f"computed {row['n_threshold']}, reference {want}"
            )
    if elapsed >= 60.0:
        violations.append(f"grid took {elapsed:.2f} s, budget is 60 s")

    _report(
        3,
        violations,
        "all 80 settling thresholds exact, including the >500 sentinel, under 60 s",
    )


def test_criterion_04_known_eigenpair_across_horizons():
    violations = []
    for p in FLOAT_P_GRID:
        params = DesignParams(p)
        cov = sigma(50, params)
        for n in range(2, 51):
            view = cov.principal(n)
            residual = verify_2p_eigenpair(view)
            if residual > 1e-10:
                violations.append(f"residual {residual} at (n={n}, p={p})")
            gap = float(np.min(np.abs(eigen_spectrum(view) - 2.0 * p)))
            if gap > 1e-8:
                violations.append(f"2p missing from spectrum at (n={n}, p={p}): gap {gap}")

    _report(
        4,
        violations,
        "contrast eigenvector: residual <= 1e-10 and 2p in the spectrum, n in [2,50], full p grid",
    )


def _enumerate_masses_and_pairs(n: int, params: DesignParams, exact: bool):
    """All 2^n paths once: per-depth imbalance masses and pair products.

    Returns (masses, pairs) where masses[j][d] = P(D_j = d) for 1 <= j <= n
    and pairs[(i, j)] = E[T_i T_j] for 1 <= i < j <= n.
    """
    if exact:
        p, q, half, zero = Fraction(params.p), Fraction(params.q), Fraction(1, 2), Fraction(0)
    else:
        p, q, half, zero = float(params.p), float(params.q), 0.5, 0.0
    masses = [dict() for _ in range(n + 1)]
    pairs = {(i, j): zero for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    t_path = [0] * n

    def walk(depth, d, weight):
        if depth:
            masses[depth][d] = masses[depth].get(d, zero) + weight
        if depth == n:
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    pairs[(i, j)] += weight * (t_path[i - 1] * t_path[j - 1])
            return
        up = half if d == 0 else (p if d < 0 else q)
        for t, w in ((1, up), (-1, 1 - up)):
            if not w:
                continue
            t_path[depth] = t
            walk(depth + 1, d + t, weight * w)

    walk(0, 0, zero + 1)
    return masses, pairs


def test_criterion_05_three_route_oracle_equivalence():
    violations = []
    n_top = 12
    for p_exact in RATIONAL_P_GRID:
        for exact in (True, False):
            params = DesignParams(p_exact if exact else float(p_exact))
            mode = "rational" if exact else "float64"
            masses, pairs = _enumerate_masses_and_pairs(n_top, params, exact)
            for n in range(1, n_top + 1):
                closed = pmf_dn(n, params, mode)
                recur = dp_pmf_dn(n, params, mode)
                support = sorted(set(closed.support()) | set(masses[n]))
                for k in support:
                    a, b, c = closed.mass(k), recur.mass(k), masses[n].get(k, 0)
                    if exact:
                        agree = a == b == c
                    else:
                        agree = abs(a - b) <= 1e-12 and abs(a - c) <= 1e-12
                    if not agree:
                        violations.append(
                            f"pmf routes disagree at (n={n}, k={k}, p={params.p}, "
                            f"{mode}): closed={a} recurrence={b} enumerated={c}"
                        )
            cov = sigma(n_top, params, mode)
            for (i, j), product in pairs.items():
                entry = cov.entry(i, j)
                ok = entry == product if exact else abs(entry - product) <= 1e-12
                if not ok:
                    violations.append(
                        f"covariance entry ({i},{j}) at p={params.p} ({mode}): "
                        f"closed={entry} enumerated={product}"
                    )

    _report(
        5,
        violations,
        "closed form, forward recurrence, and 2^n enumeration agree (exact when rational), n <= 12",
    )


def _even_step_identity_holds(n: int, l: int) -> bool:
    half = n // 2
    lhs = (n - 2 * l) * (n + 2 + 2 * l) * math.comb(half + l, l) + (
        n - 2 * l + 4
    ) * (n + 2 + 2 * l) * math.comb(half + l, l - 1)
    return lhs == (n + 2 - 2 * l) * (n + 2 * l) * math.comb(half + 1 + l, l)


def _offset_step_identity_holds(n: int, k: int, l: int) -> bool:
    s = n + k
    upper = (s + 1) // 2
    lhs = (s - 2 * l + 3) * (s + 2 * l + 1) * math.comb(upper + l - 1, l - 1) + (
        s - 2 * l - 1
    ) * (s + 2 * l + 1) * math.comb(upper - 1 + l, l)
    return lhs == (s - 2 * l + 1) * (s + 2 * l - 1) * math.comb(upper + l, l)


def test_criterion_06_integer_identities_and_first_visit_split():
    violations = []
    for n in range(4, 201, 2):
        for l in range(1, n // 2):
            if not _even_step_identity_holds(n, l):
                violations.append(f"even-step identity fails at (n={n}, l={l})")
    for n in range(3, 201):
        for k in range(2, n + 1):
            if (n + k) % 2 == 0:
                continue
            for l in range(1, (n - k + 1) // 2 + 1):
                if not _offset_step_identity_holds(n, k, l):
                    violations.append(f"offset identity fails at (n={n}, k={k}, l={l})")

    for p in FLOAT_P_GRID:
        table = FirstVisitTable(DesignParams(p))
        for n in range(2, 201):
            lhs = table.f_hat(1, n - 1)
            rhs = p + (1 - p) * table.f_hat(2, n - 2)
            if abs(lhs - rhs) > 1e-12:
                violations.append(
                    f"first-visit split identity off by {abs(lhs - rhs)} at (n={n}, p={p})"
                )

    _report(
        6,
        violations,
        "recurrence identities exact in integers and first-visit split within 1e-12, n <= 200",
    )


def test_criterion_07_covariance_structure():
    violations = []
    for p_exact in RATIONAL_P_GRID:
        arr = sigma(64, DesignParams(float(p_exact))).as_array()
        if not np.array_equal(arr, arr.T):
            violations.append(f"not symmetric at p={float(p_exact)}")
        if not np.all(np.diag(arr) == 1.0):
            violations.append(f"diagonal not all ones at p={float(p_exact)}")
        min_eig = float(eigen_spectrum(arr)[-1])
        if min_eig < -1e-8:
            violations.append(f"min eigenvalue {min_eig} at p={float(p_exact)}")

        cov = sigma(64, DesignParams(p_exact), "rational")
        for a in range(1, 33):
            for b in range(a + 1, 33):
                corner = cov.entry(2 * a - 1, 2 * b - 1)
                if not (
                    corner
                    == cov.entry(2 * a - 1, 2 * b)
                    == cov.entry(2 * a, 2 * b - 1)
                    == cov.entry(2 * a, 2 * b)
                ):
                    violations.append(
                        f"pair block ({a},{b}) not constant at p={float(p_exact)}"
                    )

    _report(
        7,
        violations,
        "covariance symmetric, unit diagonal, PSD, and exactly block-constant, n = 64, full p grid",
    )


def test_criterion_08_monte_carlo_concordance():
    violations = []
    jobs = os.cpu_count() or 1
    replicates = 1_000_000

    t0 = time.perf_counter()
    for p in (0.6, 0.8):
        params = DesignParams(p)
        cases = [
            ("terminal balance mass, n=20", 20, stat_balance(), float(pmf_at(20, 0, params))),
            ("imbalance variance, n=10", 10, stat_imbalance_sq(), float(var_dn(10, params))),
            ("assignment product (3,7)", 7, stat_product(3, 7), float(sigma(7, params).entry(3, 7))),
            ("guess success at draw 25", 25, stat_correct_guess(25), float(selection_bias_step(25, params))),
        ]
        for name, n, stat, exact in cases:
            est = mc_estimate(n, params, stat, replicates, seed=20_200 + n, jobs=jobs)
            z = abs(est.point - exact) / est.std_error
            if z > 4.0:
                violations.append(
                    f"{name} at p={p}: estimate {est.point}, exact {exact}, "
                    f"|z| = {z:.2f} > 4"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        violations.append(f"battery took {elapsed:.1f} s, budget is 120 s")

    _report(
        8,
        violations,
        "10^6-replicate Monte Carlo within 4 standard errors on all four statistics, under 2 min",
    )


def test_criterion_09_selection_bias_dual_routes():
    violations = []
    for p in FLOAT_P_GRID:
        params = DesignParams(p)
        steps = selection_bias_report(300, params).per_step
        for n in range(1, 301):
            total = math.fsum(steps[:n])
            closed = total_bias_closed_form(n, params)
            gap = abs(total - closed)
            if gap > 1e-10:
                violations.append(f"per-step vs closed form gap {gap} at (n={n}, p={p})")

    _report(
        9,
        violations,
        "per-step sums equal the closed-form totals within 1e-10 for n <= 300, full p grid",
    )


def test_criterion_10_external_example_documented_and_substituted():
    violations = []
    readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme_path, "r", encoding="utf-8") as fh:
        readme = fh.read()
    for marker in ("non-reproducible", "-31", "100.52"):
        if marker not in readme:
            violations.append(f"README.md does not mark the external example ({marker!r})")

    # substitute fixture: the contrast vector's variance is exactly 2p
    for p in FLOAT_P_GRID:
        params = DesignParams(p)
        for n in (2, 10, 32):
            scores = two_p_eigenvector(n)
            value = rank_statistic_variance(scores, sigma(n, params))
            if abs(value - 2.0 * p) > 1e-10:
                violations.append(
                    f"quadratic form {value} differs from 2p at (n={n}, p={p})"
                )

    _report(
        10,
        violations,
        "external-data example marked non-reproducible; substitute quadratic-form fixture holds",
    )
