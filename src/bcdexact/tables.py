"""Reference grids: convergence thresholds, variances, selection bias.

Three ready-made summaries over the usual bias grid p in {0.6, 0.7, 0.8,
0.9}: how fast the imbalance distribution settles into its steady state,
the exact variance of the terminal imbalance with its large-n limit, and
the experimenter's expected per-draw guessing advantage.  Each grid comes
back as a list of plain dict rows so the CLI can dump CSV or JSON without
knowing anything about the math.
"""

from __future__ import annotations

import decimal
from typing import Sequence

from .bias import asymptotic_excess, selection_bias_reports
from .design import DesignParams
from .exact import asymptotic_var, steady_state_threshold_table, var_dns
from .stable import FLOAT64_STABLE, NumericMode

__all__ = [
    "DEFAULT_P_GRID",
    "THRESHOLD_K_GRID",
    "THRESHOLD_TOL_GRID",
    "VARIANCE_EVEN_N",
    "VARIANCE_ODD_N",
    "GUESS_N_GRID",
    "round_half_even",
    "threshold_grid",
    "variance_grid",
    "selection_bias_grid",
]

DEFAULT_P_GRID = (0.6, 0.7, 0.8, 0.9)
THRESHOLD_K_GRID = (0, 1, 2, 25, 50)
THRESHOLD_TOL_GRID = (0.10, 0.05, 0.01, 0.001)
VARIANCE_EVEN_N = (10, 20, 50, 100, 200)
VARIANCE_ODD_N = (5, 15, 25, 75)
GUESS_N_GRID = (5, 10, 15, 20, 25, 50, 75, 100, 200)


def round_half_even(x: float, places: int) -> str:
    """Fixed-point decimal string with ties going to the even digit."""
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    quantum = decimal.Decimal(1).scaleb(-places)
    return str(decimal.Decimal(x).quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def threshold_grid(
    k_values: Sequence[int] = THRESHOLD_K_GRID,
    p_values: Sequence[float] = DEFAULT_P_GRID,
    tolerances: Sequence[float] = THRESHOLD_TOL_GRID,
    n_max: int = 500,
) -> list[dict]:
    """Smallest n at which P(|D_n| = k) has settled to its limit.

    One row per (k, p, tolerance) with the first same-parity n whose
    relative error against the limiting two-sided mass stays within the
    tolerance for good; rows that never settle by n_max carry None.  Each
    p scans the masses of every k once for all the tolerances.
    """
    found = [
        steady_state_threshold_table(k_values, DesignParams(p), tolerances, n_max=n_max)
        for p in p_values
    ]
    return [
        {"k": k, "p": p, "tol": tol, "n_threshold": n}
        for i, k in enumerate(k_values)
        for p, table in zip(p_values, found)
        for tol, n in zip(tolerances, table[i])
    ]


def variance_grid(
    even_n: Sequence[int] = VARIANCE_EVEN_N,
    odd_n: Sequence[int] = VARIANCE_ODD_N,
    p_values: Sequence[float] = DEFAULT_P_GRID,
    mode: NumericMode | str = FLOAT64_STABLE,
    places: int = 2,
) -> list[dict]:
    """Var(D_n) on an even and an odd ladder of n, plus the n->inf row.

    The limit rows have n = None; `rounded` is the half-even fixed-point
    rendering used for display.  Each p reads both ladders off one batch.
    """
    ladders = (("even", even_n, 0), ("odd", odd_n, len(even_n)))  # offsets in the var_dns list
    for parity, ns, _ in ladders:
        for n in ns:
            if n % 2 != (0 if parity == "even" else 1):
                raise ValueError(f"{n} is not {parity}")
    found = [var_dns([*even_n, *odd_n], DesignParams(p), mode) for p in p_values]
    rows = []
    for parity, ns, start in ladders:
        cells = [(n, p, vs[start + i]) for i, n in enumerate(ns) for p, vs in zip(p_values, found)]
        cells += [(None, p, asymptotic_var(DesignParams(p), parity)) for p in p_values]
        rows += [
            {
                "parity": parity,
                "n": n,
                "p": p,
                "variance": float(value),
                "rounded": round_half_even(float(value), places),
            }
            for n, p, value in cells
        ]
    return rows


def selection_bias_grid(
    n_values: Sequence[int] = GUESS_N_GRID,
    p_values: Sequence[float] = DEFAULT_P_GRID,
    mode: NumericMode | str = FLOAT64_STABLE,
    places: int = 3,
) -> list[dict]:
    """Average per-draw excess guessing success, with the n->inf row.

    Each p computes its balance masses once, for the largest n, and reads
    every n's report off them.
    """
    mode = NumericMode.coerce(mode)
    excess = [
        [report.average_excess for report in selection_bias_reports(n_values, DesignParams(p), mode)]
        for p in p_values
    ]
    cells = [(n, p, excess[j][i]) for i, n in enumerate(n_values) for j, p in enumerate(p_values)]
    cells += [(None, p, asymptotic_excess(DesignParams(p))) for p in p_values]
    return [
        {
            "n": n,
            "p": p,
            "average_excess": float(value),
            "rounded": round_half_even(float(value), places),
        }
        for n, p, value in cells
    ]
