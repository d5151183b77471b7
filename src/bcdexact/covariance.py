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

`sigma` builds each row from the law of D_{i-1} and a table of cumulative
first-return masses: in float64 for a float p, and on integer numerators
for a Fraction p = A/B, where every mass, first-return mass and t_k has a
power of B or 2B as its denominator, so each entry is one Fraction.  The
rational laws come as ints from `exact._integer_masses` and each column u
of the table is at its natural scale B^u.  Rows
in both arithmetics take their weights from one `_row_weights` and their
first-return table from one `_first_returns`.

sigma(n) always carries the vector v = (sqrt(2)/2, -sqrt(2)/2, 0, ..., 0)
as an eigenvector with eigenvalue 2p; `verify_2p_eigenpair` measures the
residual and `eigen_spectrum` computes the whole spectrum with round-robin
Jacobi rotation sweeps (no library eigensolver, so tests can cross-check
against one).  Each call builds the schedule from the seat formula and
keeps nothing once it returns; each step rotates all of its disjoint pairs
with one stacked gather, multiply, sum and scatter per side, elementwise,
so every entry has the bits of c x - s y.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .design import DesignParams, Number, transition_prob
from .exact import _integer_masses, _term, _two_sided_scan, pmf_dn

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


def first_visit(k: int, steps: int, params: DesignParams) -> Number:
    """P(first return to balance from imbalance k takes exactly `steps`).

    k = 0 is the degenerate visit: 1 at steps = 0, else 0.  Off-parity or
    too-short step counts have probability 0.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    k = abs(k)
    if k == 0:
        return params.one if steps == 0 else params.zero
    if steps < k or (steps - k) % 2:
        return params.zero
    if params.q == 0 and steps > k:
        return params.zero
    return params.sum([_term(steps + k, 0, (steps - k) // 2, params, steps)])


class FirstVisitTable:
    """Cumulative first-return probabilities fhat_k(u), memoized per k.

    fhat_k(u) = sum_{l <= u} f_k(l) is the chance the walk re-balances from
    k within u steps; fhat_0 is identically 1.  Rows grow lazily, so one
    table can serve every horizon that shows up while filling a covariance
    matrix.
    """

    def __init__(self, params: DesignParams):
        self.params = params
        self._rows: dict[int, list[Number]] = {}

    def f_hat(self, k: int, horizon: int) -> Number:
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        k = abs(k)
        if k == 0:
            return self.params.one
        row = self._rows.setdefault(k, [self.params.zero])  # fhat_k(0) = 0
        while len(row) <= horizon:
            u = len(row)
            row.append(row[-1] + first_visit(k, u, self.params))
        return row[horizon]


def cond_assignment(
    m: int,
    n: int,
    k: int,
    params: DesignParams,
    table: FirstVisitTable | None = None,
) -> Number:
    """P(T_m = +1 | D_n = k) for m > n >= 1.

    Conditioning on an impossible event (|k| > n or wrong parity) returns 0
    by convention.  The walk either re-balances within m - n - 1 steps, in
    which case the next toss is fair, or it is still on k's side of zero
    and the toss favours the lagging arm:

        (1/2 - t_k) * fhat_k(m - n - 1) + t_k
    """
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= n < m, got n={n}, m={m}")
    if abs(k) > n or (n - k) % 2:
        return params.zero
    if table is None:
        table = FirstVisitTable(params)
    t_k = transition_prob(params, k)
    return (params.half - t_k) * table.f_hat(k, m - n - 1) + t_k


def joint_assignment(
    n: int,
    m: int,
    params: DesignParams,
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
    if not 1 <= n < m:
        raise ValueError(f"need 1 <= n < m, got n={n}, m={m}")
    if pmf_provider is None:
        law = pmf_dn(n - 1, params)
        pmf_provider = lambda _, k: law.mass(k)
    if table is None:
        table = FirstVisitTable(params)

    terms = []
    for k in range(-(n - 1), n, 2):
        mass = pmf_provider(n - 1, k)
        if not mass:
            continue
        t_k = transition_prob(params, k)
        terms.append(cond_assignment(m, n, k + 1, params, table) * mass * t_k)
    return params.sum(terms)


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


def _first_returns(n: int, params: DesignParams):
    """(F, scale) with F[m, u] = fhat_m(u) * scale[u] for 0 <= m, u < n.

    Each row of first-return masses comes from the ratio recurrence

        f_m(m) = p^m,  f_m(l + 2) = f_m(l) * l (l + 1) / ((a + 1)(b + 1)) * p q

    with a = (l + m)/2 steps toward balance and b = (l - m)/2 away, so no
    binomial is ever formed.  Row 0 is the degenerate visit, fhat_0 = 1.
    A float p runs it in float64, and F is unscaled (scale = 1).  A
    Fraction p = A/B runs g_m(l) = f_m(l) B^l on integers, with A for p,
    A (B - A) for p q and `//` for the division: the quotient is
    g_m(l + 2)/(A (B - A)), a ballot number times a power of A and of
    B - A, so it divides exactly.  Column u is then at its natural scale
    B^u, F[:, u] = F[:, u - 1] B + g(u), and scale holds B^0 .. B^(n-1).
    Step b advances every row m with m + 2b < n at once, so each float row
    makes its scalar loop's multiplies in that order.
    """
    if params.is_exact:
        big_a, big_b = params.p.numerator, params.p.denominator
        p, pq, div, dtype = big_a, big_a * (big_b - big_a), operator.floordiv, object
    else:
        p, pq, div, dtype = params.p, params.p * params.q, operator.truediv, float
    f = np.zeros((n, n), dtype=dtype)
    f[0, 0] = 1
    k = np.arange(n + 1).astype(dtype)  # Python ints for a Fraction p
    rising = k * (k + 1)
    term = np.array([p**j for j in range(1, n)], dtype=dtype)  # a numpy power of A wraps
    for b in range(n // 2):
        lanes = n - 1 - 2 * b  # rows m = 1 .. lanes reach l = m + 2b < n
        term = term[:lanes]
        f.reshape(-1)[n + 1 + 2 * b :: n + 1][:lanes] = term  # f[m, m + 2b]
        # l (l + 1) at l = m + 2b and a + 1 = m + b + 1, for m = 1 .. lanes
        term = div(term * rising[1 + 2 * b : n], k[b + 2 : n + 1 - b] * (b + 1)) * pq
    if not params.is_exact:
        return np.cumsum(f, axis=1), 1
    for u in range(1, n):  # rows m > u are 0 up to column u
        f[: u + 1, u] += f[: u + 1, u - 1] * big_b
    return f, [big_b**u for u in range(n)]


def _row_weights(laws: np.ndarray, t_fair, t_up, t_down):
    """Weights W[i - 1, m] over m = |k + 1| and constants c[i - 1] of Sigma's rows.

    laws[i - 1, k] = P(D_{i-1} = +-k) for k >= 0, on any common scale per
    row, and t_k is t_fair at k = 0, t_up above and t_down below.  The
    joint P(T_i = 1, T_j = 1) is sum_m W[i - 1, m] fhat_m(j - i - 1) +
    c[i - 1], where, with P_k the law,

        w(m) = sum_{|k+1| = m} P_k t_k (t_fair - t_{k+1}),  c = sum_k P_k t_k t_{k+1}.

    Only m of the parity of i (and m <= i) can carry weight.  Each w(m)
    adds its k = m - 1 term and then its k = -m - 1 term, and c adds the
    terms for k = 0, 1, -1, 2, -2, ... in sequence, so a float row has the
    bits of that scalar loop.
    """
    size = len(laws)
    t_k = np.full(size, t_up, dtype=laws.dtype)  # t_k at k = 0, 1, 2, ...
    t_k[:1] = t_fair
    t_next = np.full(size, t_down, dtype=laws.dtype)  # t_{k+1} at k = -1, -2, ...
    t_next[:1] = t_fair
    ahead = laws * t_k  # P_k t_k at k = 0, 1, 2, ...
    behind = laws[:, 1:] * t_down  # P_k t_k at k = -1, -2, ...
    weights = np.zeros((size, size + 1), dtype=laws.dtype)
    weights[:, 1:] += ahead * (t_fair - t_up)
    weights[:, :-2] += behind * (t_fair - t_next[:-1])
    # c starts at 0; columns 2j + 1 and 2j + 2 hold k = j and k = -j (none at j = 0)
    terms = np.zeros((size, 2 * size + 1), dtype=laws.dtype)
    terms[:, 1::2] = ahead * t_up
    terms[:, 4::2] = behind * t_next[:-1]
    return weights, np.cumsum(terms, axis=1)[:, -1]


def sigma(n: int, params: DesignParams) -> AssignmentCovariance:
    """Covariance matrix of the first n assignments, sigma_ij = 4 P_ij - 1.

    Row i above the diagonal is one vector-matrix product over the
    cumulative first-return table: sigma_{i, i+1+u} = 4 (w_i . F[:, u] +
    c_i) - 1 for u = 0 .. n - i - 1, with w_i and c_i from `_row_weights`
    and F from `_first_returns` in the arithmetic of p.  A float p builds
    it in float64 from one closed-form scan of the laws.  A Fraction
    p = A/B builds the same rows on integers: the laws times (2B)^(i-1)
    straight from `exact._integer_masses`, T_k = 2B t_k (B, 2(B - A) or
    2A) and column u of the table times B^u, so entry (i, i+1+u) is
    (4x - d)/d with d = (2B)^(i+1) B^u: one Fraction per entry.  The
    lower triangle mirrors the upper one, so the matrix is exactly
    symmetric with an exact unit diagonal.  joint_assignment computes the
    same entries one at a time and is kept as the cross-check.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lane_m = [m for m in range(n - 1) for _ in range(m % 2, m + 1, 2)]
    lane_k = [k for m in range(n - 1) for k in range(m % 2, m + 1, 2)]
    table, scale = _first_returns(n, params)
    if params.is_exact:
        big_a, big_b = params.p.numerator, params.p.denominator
        laws = np.zeros((n - 1, n - 1), dtype=object)
        masses = _integer_masses(list(zip(lane_m, lane_k)), params)
        laws[lane_m, lane_k] = np.array(masses, dtype=object)
        weights, consts = _row_weights(laws, big_b, 2 * (big_b - big_a), 2 * big_a)
        out = np.full((n, n), Fraction(1))
    else:
        laws = np.zeros((n - 1, n - 1))
        laws[lane_m, lane_k] = _two_sided_scan(lane_m, lane_k, params.p)
        laws[:, 1:] /= 2
        weights, consts = _row_weights(laws, params.half, params.q, params.p)
        out = np.ones((n, n))
    for i in range(1, n):
        m = slice(i % 2, i + 1, 2)
        x = weights[i - 1, m] @ table[m, : n - i]
        if params.is_exact:
            # entry (i, i+1+u) is (4 x_u + (4 c_i - d) B^u) / (d B^u), d = (2B)^(i+1)
            d = (2 * big_b) ** (i + 1)
            shift = 4 * consts[i - 1] - d
            out[i - 1, i:] = [Fraction(4 * v + shift * s, d * s) for v, s in zip(x.tolist(), scale)]
        else:
            out[i - 1, i:] = 4 * (x + consts[i - 1]) - 1
    upper = np.triu_indices(n, 1)
    out[upper[::-1]] = out[upper]
    return AssignmentCovariance(n=n, params=params, matrix=out)


# ---------------------------------------------------------------------------
# spectrum


def _off_norm(a: np.ndarray) -> float:
    strict = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(strict * strict)))


def _round_robin(n: int) -> np.ndarray:
    """One Jacobi sweep as a (steps, 2, pairs) array of index pairs (i < j).

    The round-robin tournament ordering of Brent & Luk (1985), built from
    the seat formula: with size = n + n % 2, at step t seat 0 holds index 0
    and seat s >= 1 holds (s - 1 - t) mod (size - 1) + 1, and seat s plays
    seat size - 1 - s.  Every pair meets exactly once per sweep and no
    index appears twice in a step.  Even n takes n - 1 steps of n/2 pairs.
    Odd n is padded with a dummy index n whose pair is dropped from each
    step: n steps of (n - 1)/2 pairs.
    """
    size = n + n % 2
    t = np.arange(size - 1)[:, None]
    seats = (np.arange(size) - 1 - t) % (size - 1) + 1
    seats[:, 0] = 0
    a, b = seats[:, : size // 2], seats[:, : size // 2 - 1 : -1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keep = hi < n  # drops the dummy index of an odd n
    return np.stack((lo[keep], hi[keep])).reshape(2, size - 1, -1).swapaxes(0, 1)


def _stacked(table: np.ndarray) -> tuple[np.ndarray, ...]:
    """Views of one step's index table of k disjoint pairs (i, j).

    The rows are i, j, i, i, j, j, then the flat positions of a_ii, a_jj,
    a_ij and a_ji, k entries each.  The views are [i; j] (the rows, then
    the columns, a step rewrites), [i; i; j; j] (those it reads) and the
    flat positions of [a_ii; a_jj], of a_ij and of [a_ij; a_ji].
    """
    flat = table.reshape(-1)
    k = table.shape[1]
    return flat[: 2 * k], flat[2 * k : 6 * k], flat[6 * k : 8 * k], table[8], flat[8 * k :]


JACOBI_TOL = 1e-10  # off-diagonal Frobenius norm at which the sweeps stop


def eigen_spectrum(
    cov: AssignmentCovariance | np.ndarray,
    max_rotations: int | None = None,
) -> np.ndarray:
    """All eigenvalues, descending, via round-robin Jacobi rotation sweeps.

    Each rotation zeroes one off-diagonal pair through an orthogonal
    similarity, preserving the trace and (by Wielandt-Hoffman) pinning the
    eigenvalue error to the off-diagonal Frobenius norm, which must fall
    below JACOBI_TOL.  A sweep runs the steps of `_round_robin`, whose
    stacked index tables (see `_stacked`) are built once per call and
    dropped when it returns; the rotations of one step act on disjoint
    rows and columns, so they commute and are applied together.  Each
    side of a step is one gather of the stacked rows (then columns)
    [i; i; j; j], one multiply by the stacked coefficients [c; s; -s; c],
    one sum of the two halves and one scatter to [i; j]: c x - s y and
    s x + c y, each entry rounded as round(c x) + round(-s y) =
    round(c x) - round(s y).  Raises ConvergenceError if the rotation
    budget (default 100 n^2) runs out first, and ValueError for an empty,
    non-square, non-finite or asymmetric matrix.
    """
    a = cov.as_array() if isinstance(cov, AssignmentCovariance) else np.asarray(cov, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        raise ValueError("matrix must have at least one row")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    a = np.array(a, dtype=float, order="C")  # working copy
    if n == 1:
        return np.array([a[0, 0]])
    if max_rotations is None:
        max_rotations = 100 * n * n

    skip = JACOBI_TOL / (2.0 * n)
    flat = a.reshape(-1)  # a view: a is C-contiguous
    sides = (a, a.T)
    i, j = _round_robin(n).swapaxes(0, 1)
    tables = np.stack((i, j, i, i, j, j, i * (n + 1), j * (n + 1), i * n + j, j * n + i), axis=1)
    steps = [(table, _stacked(table)) for table in tables]
    rotations = 0
    while _off_norm(a) > JACOBI_TOL:
        for table, (pair, rows, diag, upper, off) in steps:
            apq = flat.take(upper)
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
            if count < len(apq):
                pair, rows, diag, upper, off = _stacked(table[:, active])
                apq = apq[active]
            diagonal = flat.take(diag)
            tau = (diagonal[count:] - diagonal[:count]) / (2.0 * apq)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = t * c
            coef = np.concatenate((c, s, -s, c))[:, None]
            half = 2 * count
            for side in sides:  # rows, then columns as the rows of a.T
                x = side.take(rows, axis=0)
                x *= coef
                side[pair] = x[:half] + x[half:]
            flat.put(off, 0.0)
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
