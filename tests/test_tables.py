"""Reference grids: rendered digits, threading, and the rounding helper."""

from fractions import Fraction

import pytest

import bcdexact.bias
import bcdexact.exact
from bcdexact.bias import selection_bias_report
from bcdexact.design import DesignParams
from bcdexact.exact import pmf_masses, var_dns
from bcdexact.stable import NumericMode
from bcdexact.tables import (
    DEFAULT_P_GRID,
    GUESS_N_GRID,
    THRESHOLD_K_GRID,
    THRESHOLD_TOL_GRID,
    VARIANCE_EVEN_N,
    VARIANCE_ODD_N,
    round_half_even,
    selection_bias_grid,
    threshold_grid,
    variance_grid,
)

# Digits the grids are expected to render, keyed by row, one string per p
# in DEFAULT_P_GRID order.  The None key is the large-n limit row.
REFERENCE_VARIANCE_EVEN = {
    10: ("5.19", "2.55", "1.18", "0.46"),
    20: ("7.65", "2.91", "1.21", "0.46"),
    50: ("10.78", "3.04", "1.21", "0.46"),
    100: ("12.10", "3.04", "1.21", "0.46"),
    200: ("12.45", "3.04", "1.21", "0.46"),
    # the p = 0.7 limit is exactly 3.045, a rounding tie; the float route
    # computes 3.045 + 1.3e-15 and correct rounding of that lands on 3.05
    None: ("12.48", "3.05", "1.21", "0.46"),
}
REFERENCE_VARIANCE_ODD = {
    5: ("3.30", "2.15", "1.45", "1.10"),
    15: ("6.63", "2.95", "1.56", "1.10"),
    25: ("8.52", "3.13", "1.57", "1.10"),
    75: ("11.73", "3.20", "1.57", "1.10"),
    # the p = 0.9 limit is exactly 1.10125, so two places give 1.10; the
    # finite-n column above it converges to the same digits
    None: ("12.52", "3.21", "1.57", "1.10"),
}
REFERENCE_AVG_EXCESS = {
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
# k -> p -> thresholds for tolerances 10%, 5%, 1%, 0.1%
REFERENCE_THRESHOLDS = {
    0: {0.6: (20, 34, 74, 146), 0.7: (6, 8, 18, 34), 0.8: (2, 4, 8, 14), 0.9: (2, 2, 4, 6)},
    1: {0.6: (19, 33, 73, 145), 0.7: (5, 7, 17, 33), 0.8: (1, 3, 7, 13), 0.9: (1, 1, 3, 5)},
    2: {0.6: (14, 28, 68, 140), 0.7: (4, 4, 8, 22), 0.8: (4, 4, 8, 14), 0.9: (2, 4, 6, 8)},
    25: {0.6: (183, 211, 279, 379), 0.7: (85, 93, 113, 141), 0.8: (53, 57, 65, 77), 0.9: (37, 39, 43, 49)},
    50: {0.6: (342, 380, 464, None), 0.7: (158, 168, 194, 226), 0.8: (100, 104, 116, 130), 0.9: (70, 72, 78, 86)},
}


def test_round_half_even_breaks_ties_to_even():
    assert round_half_even(0.125, 2) == "0.12"
    assert round_half_even(0.375, 2) == "0.38"
    assert round_half_even(12.5, 0) == "12"
    assert round_half_even(1.0, 2) == "1.00"
    assert round_half_even(-0.875, 2) == "-0.88"
    with pytest.raises(ValueError):
        round_half_even(1.0, -1)


def test_variance_grid_renders_the_reference_digits():
    rows = variance_grid()
    assert len(rows) == 44
    for row in rows:
        table = (
            REFERENCE_VARIANCE_EVEN if row["parity"] == "even" else REFERENCE_VARIANCE_ODD
        )
        want = table[row["n"]][DEFAULT_P_GRID.index(row["p"])]
        assert row["rounded"] == want, row
        assert row["rounded"] == round_half_even(row["variance"], 2)


def test_variance_grid_rejects_mixed_parity():
    with pytest.raises(ValueError):
        variance_grid(even_n=(10, 11))
    with pytest.raises(ValueError):
        variance_grid(odd_n=(4,))


def test_variance_grid_row_order_is_stable():
    rows = variance_grid(even_n=(4,), odd_n=(3,), p_values=(0.6, 0.9))
    shape = [(r["parity"], r["n"], r["p"]) for r in rows]
    assert shape == [
        ("even", 4, 0.6),
        ("even", 4, 0.9),
        ("even", None, 0.6),
        ("even", None, 0.9),
        ("odd", 3, 0.6),
        ("odd", 3, 0.9),
        ("odd", None, 0.6),
        ("odd", None, 0.9),
    ]


def one_law_variance(n, params, mode):
    """Var(D_n) from a pmf_masses call over the law of D_n alone (the oracle)."""
    mode = NumericMode.coerce(mode)
    ks = range(1 if n % 2 else 2, n + 1, 2)
    masses = pmf_masses([(n, k) for k in ks], params, mode)
    return mode.sum(k * k * 2 * v for k, v in zip(ks, masses))


@pytest.mark.parametrize("mode,ps", [("float", (0.55, 0.6, 0.95, 0.999)),
                                     ("rational", (Fraction(7, 10),))])
def test_variance_grid_reads_both_ladders_off_one_batch_per_p(mode, ps, monkeypatch):
    even, odd = ((4, 10, 0), (1, 7)) if mode == "rational" else (VARIANCE_EVEN_N, VARIANCE_ODD_N)
    batches = []
    masses = bcdexact.exact.pmf_masses
    monkeypatch.setattr(bcdexact.exact, "pmf_masses",
                        lambda *args: batches.append(args[0]) or masses(*args))
    rows = variance_grid(even_n=even, odd_n=odd, p_values=ps, mode=mode)
    assert len(batches) == len(ps)
    assert sorted({n for n, _ in batches[0]}) == sorted(n for n in (*even, *odd) if n > 0)
    cells = [row for row in rows if row["n"] is not None]
    assert len(cells) == len(ps) * (len(even) + len(odd))
    for row in cells:
        want = one_law_variance(row["n"], DesignParams(row["p"]), mode)
        assert row["variance"] == float(want), row
    found = var_dns([*even, *odd], DesignParams(ps[0]), mode)
    assert found == [one_law_variance(n, DesignParams(ps[0]), mode) for n in (*even, *odd)]
    with pytest.raises(ValueError, match="n must be >= 0, got -2"):
        var_dns([4, -2], DesignParams(ps[0]), mode)


def test_selection_bias_grid_renders_the_reference_digits():
    rows = selection_bias_grid()
    assert len(rows) == 40
    for row in rows:
        want = REFERENCE_AVG_EXCESS[row["n"]][DEFAULT_P_GRID.index(row["p"])]
        assert row["rounded"] == want, row


@pytest.mark.parametrize("mode,ps", [("float", (0.6, 0.93)), ("rational", (Fraction(7, 10),))])
def test_selection_bias_grid_reads_each_n_off_one_batch_per_p(mode, ps, monkeypatch):
    ns = (5, 12, 1, 40) if mode == "rational" else (*GUESS_N_GRID, 3, 260)
    batches = []
    masses = bcdexact.bias.pmf_masses
    monkeypatch.setattr(bcdexact.bias, "pmf_masses",
                        lambda *args: batches.append(args[0]) or masses(*args))
    rows = selection_bias_grid(n_values=ns, p_values=ps, mode=mode)
    assert [len(points) for points in batches] == [max(ns)] * len(ps)
    cells = [row for row in rows if row["n"] is not None]
    assert [(row["n"], row["p"]) for row in cells] == [(n, p) for n in ns for p in ps]
    for row in cells:
        report = selection_bias_report(row["n"], DesignParams(row["p"]), mode)
        assert row["average_excess"] == float(report.average_excess), row


def test_threshold_grid_matches_the_reference_integers():
    rows = threshold_grid()
    assert len(rows) == 80
    for row in rows:
        tol_index = THRESHOLD_TOL_GRID.index(row["tol"])
        want = REFERENCE_THRESHOLDS[row["k"]][row["p"]][tol_index]
        assert row["n_threshold"] == want, row


def test_grid_defaults_cover_the_usual_ladders():
    assert THRESHOLD_K_GRID == (0, 1, 2, 25, 50)
    assert VARIANCE_EVEN_N == (10, 20, 50, 100, 200)
    assert VARIANCE_ODD_N == (5, 15, 25, 75)
    assert GUESS_N_GRID == (5, 10, 15, 20, 25, 50, 75, 100, 200)
    assert DEFAULT_P_GRID == (0.6, 0.7, 0.8, 0.9)
