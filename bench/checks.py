"""Output checks: every job's CSV output against an independent route.

Each checker parses what the CLI printed and compares it with a route the
command itself does not take:

* imbalance law, variance and `table2` cells: the forward recurrence
  `dp_pmf_dn`, relative error <= 1e-12 on masses >= 1e-290;
* `threshold` cells: the persistence rule applied to masses of a
  recurrence on |D_n| written here, itself pinned to `dp_pmf_dn` at n_max;
* `selection-bias` and `table3`: the closed-form double sum
  `total_bias_closed_form`;
* `eigen`: `numpy.linalg.eigvalsh`, the trace (eigenvalues sum to n) and the
  2p eigenpair residual; `accidental-bias` of the 2p eigenvector is 2p;
* rational `sigma`: exact Fraction equality with 2^j path enumeration
  (`enumerate_exact`) for the job's sampled entries i < j <= 12;
* `simulate`: the printed exact value against the routes above and the
  z score of the estimate; `ranktest`: the p-value lies in [1/(R+1), 1].

A checker returns the health figures it measured and raises CheckFailed on
a mismatch.  Checks run outside the timed interval.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import numpy as np

from bcdexact.bias import total_bias_closed_form
from bcdexact.covariance import sigma
from bcdexact.design import DesignParams
from bcdexact.exact import dp_pmf_dn
from bcdexact.simulate import enumerate_exact, stat_product

REL_TOL = 1e-12
MASS_FLOOR = 1e-290
EIGEN_TOL = 1e-9
RESIDUAL_TOL = 1e-12
MAX_ABS_Z = 6.0
HEALTH = (  # what the checks measure, reported as the maximum over a run
    "exact.max_rel_err_vs_dp",
    "bias.route_rel_gap",
    "covariance.eig_abs_err_vs_eigvalsh",
    "covariance.two_p_residual",
    "simulate.max_abs_z",
)

# default ladders of the grid commands (the CLI's own defaults)
THRESHOLD_K = (0, 1, 2, 25, 50)
THRESHOLD_TOL = (0.1, 0.05, 0.01, 0.001)
THRESHOLD_N_MAX = 500
VARIANCE_N = {"even": (10, 20, 50, 100, 200), "odd": (5, 15, 25, 75)}
GUESS_N = (5, 10, 15, 20, 25, 50, 75, 100, 200)


class CheckFailed(Exception):
    """A job's output disagrees with the independent route."""


def _float_params(p: str) -> DesignParams:
    return DesignParams(float(Fraction(p)))


def _rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckFailed(f"header {lines[:1]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:]]


def _labelled(text: str, labels: tuple[str, ...]) -> dict[str, str]:
    rows = _rows(text, "label,value")
    got = tuple(label for label, _ in rows)
    if got != labels:
        raise CheckFailed(f"labels {got}, expected {labels}")
    return dict(rows)


def _close(what: str, got: float, want: float, tol: float = REL_TOL, floor: float = 0.0) -> float:
    """Relative error of got against want (scaled by at least floor)."""
    scale = max(abs(want), floor)
    err = abs(got - want) / scale if scale else abs(got - want)
    if not err <= tol:
        raise CheckFailed(f"{what}: {got!r} vs {want!r} (error {err:.3e} > {tol:g})")
    return err


def _rounded(value: float, places: int) -> str:
    quantum = decimal.Decimal(1).scaleb(-places)
    return str(decimal.Decimal(value).quantize(quantum, rounding=decimal.ROUND_HALF_EVEN))


def _odds(p: str) -> Fraction:
    p = Fraction(p)
    return p / (1 - p)


def _dp_variance(n: int, params: DesignParams) -> float:
    law = dp_pmf_dn(n, params)
    return math.fsum(k * k * law.mass(k) for k in law.support())


# ---------------------------------------------------------------------------
# imbalance law


def check_pmf(job, text: str) -> dict:
    law = dp_pmf_dn(job.n, _float_params(job.p))
    rows = _rows(text, "k,probability")
    ks = [int(k) for k, _ in rows]
    if ks != list(range(-job.n, job.n + 1, 2)):
        raise CheckFailed(f"support {ks[:3]}..., expected -n..n in steps of 2")
    worst = 0.0
    for k, value in zip(ks, (float(v) for _, v in rows)):
        want = law.mass(k)
        if want >= MASS_FLOOR:
            worst = max(worst, _close(f"P(D_{job.n}={k})", value, want))
        elif value >= MASS_FLOOR:
            raise CheckFailed(f"P(D_{job.n}={k}) = {value!r}, recurrence gives {want!r}")
    return {"exact.max_rel_err_vs_dp": worst}


def check_var(job, text: str) -> dict:
    value = float(_labelled(text, ("variance",))["variance"])
    err = _close(f"Var(D_{job.n})", value, _dp_variance(job.n, _float_params(job.p)))
    return {"exact.max_rel_err_vs_dp": err}


def check_table2(job, text: str) -> dict:
    params = _float_params(job.p)
    r = _odds(job.p)
    limits = {
        "even": float(4 * r * (r * r + 1) / (r * r - 1) ** 2),
        "odd": float(8 * r * r / (r * r - 1) ** 2 + 1),
    }
    rows = _rows(text, "parity,n,p,variance,rounded")
    expected = [(parity, str(n)) for parity in ("even", "odd") for n in (*VARIANCE_N[parity], "")]
    if [(row[0], row[1]) for row in rows] != expected:
        raise CheckFailed("table2 rows are not the default n ladders plus limit rows")
    worst = 0.0
    for parity, n, p, variance, rounded in rows:
        if float(p) != params.p:
            raise CheckFailed(f"table2 p column {p!r}, expected {job.p}")
        value = float(variance)
        if rounded != _rounded(value, 2):
            raise CheckFailed(f"table2 rounded {rounded!r} for {variance}")
        if n:
            worst = max(worst, _close(f"Var(D_{n})", value, _dp_variance(int(n), params)))
        else:
            _close(f"{parity} variance limit", value, limits[parity])
    return {"exact.max_rel_err_vs_dp": worst}


def _abs_imbalance_rows(n_max: int, p: float) -> np.ndarray:
    """rows[n, k] = P(|D_n| = k), by the forward recurrence on |D_n|.

    From 0 the walk moves to 1 surely; from k >= 1 it moves toward 0 with
    probability p and away with q.
    """
    q = 1.0 - p
    rows = np.zeros((n_max + 1, n_max + 2))
    rows[0, 0] = 1.0
    for n in range(1, n_max + 1):
        prev, cur = rows[n - 1], rows[n]
        cur[0] = p * prev[1]
        cur[1] = prev[0] + p * prev[2]
        cur[2:] = q * prev[1:-1]
        cur[2:-1] += p * prev[3:]
    return rows


def _persistence_threshold(masses, ns, target: float, tol: float):
    """First n after the last one whose relative gap to target exceeds tol."""
    last_bad = -1
    for i, mass in enumerate(masses):
        ok = target == 0.0 if mass == 0.0 else abs(target - mass) / mass <= tol
        if not ok:
            last_bad = i
    if last_bad == len(masses) - 1:
        return math.inf
    return ns[last_bad + 1]


def check_threshold(job, text: str) -> dict:
    p = float(Fraction(job.p))
    rows_by_n = _abs_imbalance_rows(THRESHOLD_N_MAX, p)
    law = dp_pmf_dn(THRESHOLD_N_MAX, DesignParams(p))
    for k in (0, 2, 50):
        _close(f"|D_{THRESHOLD_N_MAX}| recurrence at k={k}",
               rows_by_n[THRESHOLD_N_MAX, k], law.two_sided(k))
    r = float(_odds(job.p))
    rows = _rows(text, "k,p,tol,n_threshold")
    expected = [(str(k), str(tol)) for k in THRESHOLD_K for tol in THRESHOLD_TOL]
    if [(row[0], row[2]) for row in rows] != expected:
        raise CheckFailed("threshold rows are not the default k x tol grid")
    for k_text, p_text, tol_text, shown in rows:
        if float(p_text) != p:
            raise CheckFailed(f"threshold p column {p_text!r}, expected {job.p}")
        k, tol = int(k_text), float(tol_text)
        target = (r - 1) / r if k == 0 else (r * r - 1) / r ** (k + 1)
        start = 2 if k == 0 else k
        ns = range(start, THRESHOLD_N_MAX + 1, 2)
        masses = rows_by_n[start::2, k]
        # a cell whose gap sits within 1e-9 of tol may go either way
        lo = _persistence_threshold(masses, ns, target, tol * (1 + 1e-9))
        hi = _persistence_threshold(masses, ns, target, tol * (1 - 1e-9))
        got = math.inf if shown == f">{THRESHOLD_N_MAX}" else int(shown)
        if not lo <= got <= hi:
            raise CheckFailed(f"threshold k={k} tol={tol}: {shown}, expected {lo}..{hi}")
    return {}


# ---------------------------------------------------------------------------
# selection bias


def check_selection_bias(job, text: str) -> dict:
    labels = ("expected_correct_total", "closed_form_total", "excess", "average_excess")
    values = {k: float(v) for k, v in _labelled(text, labels).items()}
    closed = total_bias_closed_form(job.n, _float_params(job.p))
    gap = _close("expected correct guesses", values["expected_correct_total"], closed)
    _close("closed_form_total", values["closed_form_total"], closed)
    _close("excess", values["excess"], closed - job.n / 2)
    _close("average_excess", values["average_excess"], (closed - job.n / 2) / job.n)
    return {"bias.route_rel_gap": gap}


def check_table3(job, text: str) -> dict:
    params = _float_params(job.p)
    r = _odds(job.p)
    rows = _rows(text, "n,p,average_excess,rounded")
    if [row[0] for row in rows] != [*map(str, GUESS_N), ""]:
        raise CheckFailed("table3 rows are not the default n ladder plus the limit row")
    gap = 0.0
    for n, p, value, rounded in rows:
        if float(p) != params.p:
            raise CheckFailed(f"table3 p column {p!r}, expected {job.p}")
        if rounded != _rounded(float(value), 3):
            raise CheckFailed(f"table3 rounded {rounded!r} for {value}")
        if n:
            closed = total_bias_closed_form(int(n), params)
            want = (closed - int(n) / 2) / int(n)
            gap = max(gap, _close(f"average excess at n={n}", float(value), want))
        else:
            _close("average excess limit", float(value), float((r - 1) / (4 * r)))
    return {"bias.route_rel_gap": gap}


# ---------------------------------------------------------------------------
# covariance and spectrum


def check_eigen(job, text: str) -> dict:
    n, two_p = job.n, 2 * float(Fraction(job.p))
    rows = _rows(text, "index,eigenvalue")
    labels = [label for label, _ in rows]
    tail = ["two_p_eigenpair_residual", "lambda_max", "two_p", "gap", "agrees_within_1e-8"]
    if labels != [*map(str, range(1, n + 1)), *tail]:
        raise CheckFailed("eigen rows are not lambda(1..n) plus the 2p report")
    spectrum = np.array([float(v) for _, v in rows[:n]])
    report = dict(rows[n:])
    want = np.linalg.eigvalsh(sigma(n, _float_params(job.p)).as_array())[::-1]
    err = float(np.max(np.abs(spectrum - want)))
    if not err <= EIGEN_TOL:
        raise CheckFailed(f"eigenvalues differ from eigvalsh by {err:.3e}")
    _close("eigenvalue sum", math.fsum(spectrum), float(n), tol=EIGEN_TOL)
    residual = float(report["two_p_eigenpair_residual"])
    if not residual <= RESIDUAL_TOL:
        raise CheckFailed(f"2p eigenpair residual {residual:.3e}")
    _close("lambda_max", float(report["lambda_max"]), spectrum[0])
    _close("two_p", float(report["two_p"]), two_p)
    return {"covariance.eig_abs_err_vs_eigvalsh": err, "covariance.two_p_residual": residual}


def check_accidental_bias(job, text: str) -> dict:
    value = float(_labelled(text, ("quadratic_form",))["quadratic_form"])
    residual = abs(value - 2 * float(Fraction(job.p)))
    if not residual <= RESIDUAL_TOL:
        raise CheckFailed(f"v' Sigma v = {value!r} for the 2p eigenvector v")
    return {"covariance.two_p_residual": residual}


def check_sigma(job, text: str) -> dict:
    n = job.n
    rows = _rows(text, ",".join(f"c{j}" for j in range(1, n + 1)))
    if len(rows) != n or any(len(row) != n for row in rows):
        raise CheckFailed(f"sigma is not {n} x {n}")
    params = DesignParams(Fraction(job.p))
    for i in range(n):
        if rows[i][i] != "1/1":
            raise CheckFailed(f"sigma({i + 1},{i + 1}) = {rows[i][i]}")
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise CheckFailed(f"sigma is not symmetric at ({i + 1},{j + 1})")
    for i, j in job.pairs:
        want = enumerate_exact(j, params, stat_product(i, j), "rational")
        if Fraction(rows[i - 1][j - 1]) != want:
            raise CheckFailed(f"sigma({i},{j}) = {rows[i - 1][j - 1]}, enumeration gives {want}")
    return {}


# ---------------------------------------------------------------------------
# Monte Carlo


def _exact_statistic(statistic: str, n: int, p: str) -> float:
    params = _float_params(p)
    if statistic == "balance":
        return dp_pmf_dn(n, params).mass(0)
    if statistic == "variance":
        return _dp_variance(n, params)
    if statistic == "selection-bias":
        balanced = dp_pmf_dn(n - 1, params).mass(0)
        return 0.5 * balanced + params.p * (1 - balanced)
    i, j = (int(x) for x in statistic[4:-1].split(","))
    return enumerate_exact(j, params, stat_product(i, j))


def check_simulate(job, text: str) -> dict:
    labels = ("estimate", "std_error", "exact", "abs_z", "replicates")
    values = {k: float(v) for k, v in _labelled(text, labels).items()}
    statistic = job.argv[job.argv.index("--statistic") + 1]
    want = _exact_statistic(statistic, job.n, job.p)
    _close(f"exact {statistic}", values["exact"], want, floor=1e-3)
    if values["replicates"] != job.reps:
        raise CheckFailed(f"replicates {values['replicates']}, expected {job.reps}")
    gap = abs(values["estimate"] - want)
    z = gap / values["std_error"] if values["std_error"] > 0 else (0.0 if gap == 0 else math.inf)
    if not max(z, values["abs_z"]) <= MAX_ABS_Z:
        raise CheckFailed(f"Monte Carlo estimate is {z:.2f} standard errors from {want!r}")
    # both z scores divide a gap by a standard error near 1e-3, which turns
    # the 1e-15 gap between the two exact routes into ~1e-12 in z
    _close("abs_z", values["abs_z"], z, tol=1e-9, floor=1.0)
    return {"simulate.max_abs_z": values["abs_z"]}


def check_ranktest(job, text: str) -> dict:
    labels = ("sd_exact", "variance_exact", "w_observed", "z_score", "p_value_mc", "replicates")
    values = {k: float(v) for k, v in _labelled(text, labels).items()}
    reps = job.reps
    if values["replicates"] != reps:
        raise CheckFailed(f"replicates {values['replicates']}, expected {reps}")
    pv = values["p_value_mc"]
    if not 1 / (reps + 1) <= pv <= 1:
        raise CheckFailed(f"p-value {pv!r} outside [1/(R+1), 1]")
    _close("sd_exact^2", values["sd_exact"] ** 2, values["variance_exact"])
    _close("z_score", values["z_score"], values["w_observed"] / values["sd_exact"], floor=1.0)
    return {}


CHECKERS = {
    "pmf": check_pmf,
    "var": check_var,
    "table2": check_table2,
    "threshold": check_threshold,
    "selection-bias": check_selection_bias,
    "table3": check_table3,
    "eigen": check_eigen,
    "accidental-bias": check_accidental_bias,
    "sigma": check_sigma,
    "simulate": check_simulate,
    "ranktest": check_ranktest,
}


def check_golden(text: str, golden) -> dict:
    """A default grid must reproduce its golden file byte for byte."""
    if text.encode() != golden.read_bytes():
        raise CheckFailed(f"default grid differs from {golden.name}")
    return {}


def check(job, text: str) -> dict:
    """Health figures of one job's output; raises CheckFailed on a mismatch."""
    return CHECKERS[job.command](job, text)
