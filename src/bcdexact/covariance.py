"""Covariance structure of the +/-1 assignment sequence.

Assignments are pairwise correlated through the imbalance walk.  For
n < m the joint probability of two treatment-A assignments is

    P(T_n = 1, T_m = 1) = sum_k [ (1/2 - t_{k+1}) fhat_{k+1}(m-n-1) + t_{k+1} ]
                               * P(D_{n-1} = k) * t_k

where t_k = P(T = +1 | imbalance k) and fhat_k(u) is the probability that
the walk returns from k to balance within u steps.  The covariance matrix
then has unit diagonal and sigma_ij = 4 P(T_i = 1, T_j = 1) - 1, because
each assignment is marginally a fair coin.

The return probabilities come from the first-passage law of the biased
walk (toward balance with probability p, away with q):

    f_k(u) = (|k|/u) C(u, (u+|k|)/2) p^((u+|k|)/2) q^((u-|k|)/2)

for u >= |k| of matching parity, else 0.  This is exactly the summand
l = (u-|k|)/2 of the closed form of P(D_{u+|k|} = 0) in `exact`, so
`first_visit` reads it from `exact._term`.  Its float overflow guard stays
at 4u for u steps, not the 4(u+|k|) of D_{u+|k|}.

sigma(n) always carries the vector v = (sqrt(2)/2, -sqrt(2)/2, 0, ..., 0)
as an eigenvector with eigenvalue 2p; `verify_2p_eigenpair` measures the
residual and `eigen_spectrum` computes the whole spectrum with round-robin
Jacobi rotation sweeps (no library eigensolver, so tests can cross-check
against one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .design import DesignParams, Number, transition_prob
from .exact import _term, _two_sided_scan, pmf_dn
from .stable import FLOAT64_STABLE, NumericMode

__all__ = [
    "AssignmentCovariance",
    "ConvergenceError",
    "FirstVisitTable",
    "cond_assignment",
    "eigen_spectrum",
    "first_visit",
    "joint_assignment",
    "max_eigen_report",
    "sigma",
    "two_p_eigenvector",
    "verify_2p_eigenpair",
]


class ConvergenceError(RuntimeError):
    """Rotation sweep failed to reach the residual tolerance in its budget."""


def first_visit(
    k: int,
    steps: int,
    params: DesignParams,
    mode: NumericMode | str = FLOAT64_STABLE,
) -> Number:
    """P(first return to balance from imbalance k takes exactly `steps`).

    k = 0 is the degenerate visit: 1 at steps = 0, else 0.  Off-parity or
    too-short step counts have probability 0.
    """
    mode = NumericMode.coerce(mode)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    k = abs(k)
    if k == 0:
        return mode.one if steps == 0 else mode.zero
    if steps < k or (steps - k) % 2:
        return mode.zero
    params = mode.design(params)
    if params.q == 0 and steps > k:
        return mode.zero
    return mode.sum([_term(steps + k, 0, (steps - k) // 2, params, mode, steps)])


class FirstVisitTable:
    """Cumulative first-return probabilities fhat_k(u), memoized per k.

    fhat_k(u) = sum_{l <= u} f_k(l) is the chance the walk re-balances from
    k within u steps; fhat_0 is identically 1.  Rows grow lazily, so one
    table can serve every horizon that shows up while filling a covariance
    matrix.
    """

    def __init__(self, params: DesignParams, mode: NumericMode | str = FLOAT64_STABLE):
        self.params = params
        self.mode = NumericMode.coerce(mode)
        self._rows: dict[int, list[Number]] = {}

    def f_hat(self, k: int, horizon: int) -> Number:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        k = abs(k)
        if k == 0:
            return self.mode.one
        row = self._rows.setdefault(k, [self.mode.zero])  # fhat_k(0) = 0
        while len(row) <= horizon:
            u = len(row)
            row.append(row[-1] + first_visit(k, u, self.params, self.mode))
        return row[horizon]


def cond_assignment(
    m: int,
    n: int,
    k: int,
    params: DesignParams,
    mode: NumericMode | str = FLOAT64_STABLE,
    table: FirstVisitTable | None = None,
) -> Number:
    """P(T_m = +1 | D_n = k) for m > n >= 1.

    Conditioning on an impossible event (|k| > n or wrong parity) returns 0
    by convention.  The walk either re-balances within m - n - 1 steps, in
    which case the next toss is fair, or it is still on k's side of zero
    and the toss favours the lagging arm:

        (1/2 - t_k) * fhat_k(m - n - 1) + t_k
    """
    mode = NumericMode.coerce(mode)
    params = mode.design(params)
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= n < m, got n={n}, m={m}")
    if abs(k) > n or (n - k) % 2:
        return mode.zero
    if table is None:
        table = FirstVisitTable(params, mode)
    t_k = mode.cast(transition_prob(params, k))
    return (mode.half - t_k) * table.f_hat(k, m - n - 1) + t_k


def joint_assignment(
    n: int,
    m: int,
    params: DesignParams,
    mode: NumericMode | str = FLOAT64_STABLE,
    pmf_provider: Callable[[int, int], Number] | None = None,
    table: FirstVisitTable | None = None,
) -> Number:
    """P(T_n = +1, T_m = +1) for 1 <= n < m.

    Decomposes over the imbalance k just before draw n; each term is the
    chance of sitting at k, times t_k for drawing +1, times the conditional
    chance (cond_assignment) that draw m is +1 given the post-draw
    imbalance k + 1.  A caller filling many entries may share the law
    P(D_m = k) as pmf_provider(m, k) and the first-return table.
    """
    mode = NumericMode.coerce(mode)
    params = mode.design(params)
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= n < m, got n={n}, m={m}")
    if pmf_provider is None:
        law = pmf_dn(n - 1, params, mode)
        pmf_provider = lambda _, k: law.mass(k)
    if table is None:
        table = FirstVisitTable(params, mode)

    terms = []
    for k in range(-(n - 1), n, 2):
        mass = pmf_provider(n - 1, k)
        if not mass:
            continue
        t_k = mode.cast(transition_prob(params, k))
        terms.append(cond_assignment(m, n, k + 1, params, mode, table) * mass * t_k)
    return mode.sum(terms)


@dataclass(frozen=True)
class AssignmentCovariance:
    """Covariance matrix Sigma of (T_1, ..., T_n); entries are 1-indexed.

    Entries do not depend on the horizon n: sigma(i, j) is the same in
    every matrix large enough to contain it, so `principal` can carve out
    the matrix of a shorter trial for free.
    """

    n: int
    params: DesignParams
    matrix: np.ndarray  # dtype float64, or object (Fraction) in exact mode

    def entry(self, i: int, j: int) -> Number:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"indices out of range 1..{self.n}: ({i}, {j})")
        return self.matrix.item(i - 1, j - 1)  # a Python float or Fraction

    def as_array(self) -> np.ndarray:
        return self.matrix.astype(float, copy=False)

    def principal(self, n: int) -> "AssignmentCovariance":
        if not 1 <= n <= self.n:
            raise ValueError(f"principal size must be in 1..{self.n}")
        return AssignmentCovariance(n, self.params, self.matrix[:n, :n])

    def quadratic_form(self, z: np.ndarray) -> float:
        z = np.asarray(z, dtype=float)
        a = self.as_array()
        return float(z @ a @ z)


def _first_return_table(n: int, params: DesignParams, one: Number) -> np.ndarray:
    """F[m, u] = fhat_m(u) for 0 <= m, u < n, as cumulative sums over steps.

    Each row of first-return masses comes from the ratio recurrence

        f_m(m) = p^m,  f_m(l + 2) = f_m(l) * l (l + 1) / ((a + 1)(b + 1)) * p q

    with a = (l + m)/2 steps toward balance and b = (l - m)/2 away, so no
    binomial is ever formed.  Row 0 is the degenerate visit, fhat_0 = 1.
    """
    p, q = params.p, params.q
    f = np.full((n, n), 0 * one)  # object dtype for Fractions, else float64
    f[0, 0] = one
    for m in range(1, n):
        term = one * p**m
        for l in range(m, n, 2):
            f[m, l] = term
            a, b = (l + m) // 2, (l - m) // 2
            term = term * (l * (l + 1)) / ((a + 1) * (b + 1)) * (p * q)
    return np.cumsum(f, axis=1)


def _imbalance_laws(n: int, params: DesignParams, mode: NumericMode):
    """Signed laws {k: P(D_m = k)} for m = 0 .. n - 1.

    Float mode reads every mass off one call of the closed-form ratio scan
    over all (m, k), and fills each law k by k, +k before -k; rational
    mode uses the exact pmf_dn.
    """
    if mode.is_exact:
        return [dict(pmf_dn(m, params, mode).masses) for m in range(n)]
    lane_m = [m for k in range(n) for m in range(k, n, 2)]
    lane_k = [k for k in range(n) for _ in range(k, n, 2)]
    laws: list[dict[int, Number]] = [{} for _ in range(n)]
    for m, k, two_sided in zip(lane_m, lane_k, _two_sided_scan(lane_m, lane_k, params.p)):
        if k:
            laws[m][k] = laws[m][-k] = two_sided / 2
        else:
            laws[m][0] = two_sided
    return laws


def _row_weights(i: int, law: dict[int, Number], params: DesignParams, zero: Number):
    """Weights w(m) over m = |k + 1| and the constant c of Sigma row i.

    With P_k = P(D_{i-1} = k), the joint P(T_i = 1, T_j = 1) is
    sum_m w(m) fhat_m(j - i - 1) + c, where

        w(m) = sum_{|k+1| = m} P_k t_k (1/2 - t_{k+1}),  c = sum_k P_k t_k t_{k+1}.

    Only m of the parity of i (and m <= i) can carry weight.
    """
    w = np.full(i + 1, zero)
    c = zero
    half = params.half
    for k, mass in law.items():
        t_k, t_up = transition_prob(params, k), transition_prob(params, k + 1)
        w[abs(k + 1)] += mass * t_k * (half - t_up)
        c += mass * t_k * t_up
    return w, c


def sigma(
    n: int,
    params: DesignParams,
    mode: NumericMode | str = FLOAT64_STABLE,
) -> AssignmentCovariance:
    """Covariance matrix of the first n assignments, sigma_ij = 4 P_ij - 1.

    Row i above the diagonal is one vector-matrix product over the
    cumulative first-return table: sigma_{i, i+1+u} = 4 (w_i . F[:, u] +
    c_i) - 1 for u = 0 .. n - i - 1.  The lower triangle mirrors the upper
    one, so the matrix is exactly symmetric with an exact unit diagonal.
    joint_assignment computes the same entries one at a time and is kept
    as the cross-check.
    """
    mode = NumericMode.coerce(mode)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # float mode computes with float params, whatever type p came in as
    params = DesignParams(mode.cast(mode.design(params).p))
    table = _first_return_table(n, params, mode.one)
    out = np.full((n, n), mode.one)
    for i, law in enumerate(_imbalance_laws(n - 1, params, mode), start=1):
        w, c = _row_weights(i, law, params, mode.zero)
        m = slice(i % 2, i + 1, 2)
        out[i - 1, i:] = 4 * (w[m] @ table[m, : n - i] + c) - 1
    upper = np.triu_indices(n, 1)
    out[upper[::-1]] = out[upper]
    return AssignmentCovariance(n=n, params=params, matrix=out)


# ---------------------------------------------------------------------------
# spectrum


def _off_norm(a: np.ndarray) -> float:
    strict = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(strict * strict)))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One Jacobi sweep as steps of disjoint index pairs (i < j).

    The round-robin tournament ordering of Brent & Luk (1985): index 0
    stays put while the others rotate one seat per step, so every pair
    meets exactly once per sweep and no index appears twice in a step.
    Even n takes n - 1 steps of n/2 pairs.  Odd n is padded with a dummy
    index n whose pairs are dropped: n steps of (n - 1)/2 pairs.
    """
    size = n + n % 2
    seats = list(range(size))
    steps = []
    for _ in range(size - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(seats[: size // 2], seats[::-1])
            if max(a, b) < n
        ]
        steps.append(tuple(np.array(side, dtype=np.intp) for side in zip(*pairs)))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return steps


JACOBI_TOL = 1e-10  # off-diagonal Frobenius norm at which the sweeps stop


def eigen_spectrum(
    cov: AssignmentCovariance | np.ndarray,
    max_rotations: int | None = None,
) -> np.ndarray:
    """All eigenvalues, descending, via round-robin Jacobi rotation sweeps.

    Each rotation zeroes one off-diagonal pair through an orthogonal
    similarity, preserving the trace and (by Wielandt-Hoffman) pinning the
    eigenvalue error to the off-diagonal Frobenius norm, which must fall
    below JACOBI_TOL.  A sweep runs the steps of `_round_robin`; the
    rotations of one step act on disjoint rows and columns, so they
    commute and are applied together as one array update.  Raises
    ConvergenceError if the rotation budget (default 100 n^2) runs out
    first.
    """
    a = cov.as_array() if isinstance(cov, AssignmentCovariance) else np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    a = np.array(a, dtype=float)  # working copy
    if n == 1:
        return np.array([a[0, 0]])
    if max_rotations is None:
        max_rotations = 100 * n * n

    skip = JACOBI_TOL / (2.0 * n)
    schedule = _round_robin(n)
    rotations = 0
    while _off_norm(a) > JACOBI_TOL:
        for i, j in schedule:
            apq = a[i, j]
            active = np.abs(apq) > skip
            count = int(np.count_nonzero(active))
            if not count:
                continue
            if rotations + count > max_rotations:
                raise ConvergenceError(
                    f"no convergence after {rotations} rotations "
                    f"(off-diagonal norm {_off_norm(a):.3e} > tol {JACOBI_TOL:g})"
                )
            rotations += count
            i, j, apq = i[active], j[active], apq[active]
            tau = (a[j, j] - a[i, i]) / (2.0 * apq)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            row_i, row_j = a[i, :], a[j, :]
            a[i, :] = c[:, None] * row_i - s[:, None] * row_j
            a[j, :] = s[:, None] * row_i + c[:, None] * row_j
            col_i, col_j = a[:, i], a[:, j]
            a[:, i] = col_i * c - col_j * s
            a[:, j] = col_i * s + col_j * c
            a[i, j] = a[j, i] = 0.0
    return np.sort(np.diag(a))[::-1]


def two_p_eigenvector(n: int) -> np.ndarray:
    """Unit vector (sqrt(2)/2, -sqrt(2)/2, 0, ..., 0) of length n >= 2."""
    if n < 2:
        raise ValueError("need n >= 2")
    v = np.zeros(n)
    v[0] = math.sqrt(2.0) / 2.0
    v[1] = -v[0]
    return v


def verify_2p_eigenpair(cov: AssignmentCovariance) -> float:
    """Residual || sigma v - 2p v ||_2 for the contrast of the first two draws.

    The first two assignments satisfy sigma_12 = 1 - 2p and every later
    column sees them symmetrically, which is exactly why v is an
    eigenvector with eigenvalue 2p.
    """
    v = two_p_eigenvector(cov.n)  # refuses n < 2
    resid = cov.as_array() @ v - 2.0 * float(cov.params.p) * v
    return float(np.linalg.norm(resid))


@dataclass(frozen=True)
class MaxEigenReport:
    """Diagnostic for the conjecture that 2p is the largest eigenvalue."""

    n: int
    p: float
    lambda_max: float
    two_p: float

    @property
    def gap(self) -> float:
        return self.lambda_max - self.two_p

    @property
    def agrees(self) -> bool:
        return abs(self.gap) <= 1e-8


def max_eigen_report(params: DesignParams, spectrum: np.ndarray) -> MaxEigenReport:
    """Compare the top of the descending spectrum of Sigma(n) with 2p.

    Whether 2p is always the maximum is an open question, so this is a
    report for inspection, never an assertion: callers log the gap instead
    of failing on it.
    """
    return MaxEigenReport(
        n=len(spectrum),
        p=float(params.p),
        lambda_max=float(spectrum[0]),
        two_p=2.0 * float(params.p),
    )
