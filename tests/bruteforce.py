"""Exact brute-force reference implementations used only by the test suite.

Everything here works by enumerating sign paths with fractions.Fraction
weights and the biased-coin transition rule written out longhand.  None of
the closed-form expressions from the package are used, so these functions
are legitimate independent oracles (slow, exponential in n).

`jacobi_spectrum` is the other kind of oracle: a frozen copy of the
round-robin Jacobi solver as it stood before its steps were stacked, kept
so that tests can require the package's spectrum to match it bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np

HALF = Fraction(1, 2)


def step_prob(p: Fraction, d: int, t: int) -> Fraction:
    """Probability that the next assignment is t (+1/-1) given imbalance d."""
    if d == 0:
        return HALF
    q = 1 - p
    if d > 0:
        return q if t == 1 else p
    return p if t == 1 else q


def path_weight(p: Fraction, path: tuple[int, ...]) -> Fraction:
    w = Fraction(1)
    d = 0
    for t in path:
        w *= step_prob(p, d, t)
        if w == 0:
            return w
        d += t
    return w


def all_paths(n: int):
    return product((1, -1), repeat=n)


def pmf(n: int, p: Fraction) -> dict[int, Fraction]:
    """Exact law of D_n by full path enumeration."""
    out: dict[int, Fraction] = {}
    for path in all_paths(n):
        w = path_weight(p, path)
        if w:
            d = sum(path)
            out[d] = out.get(d, Fraction(0)) + w
    return out


def variance(n: int, p: Fraction) -> Fraction:
    return sum(w * d * d for d, w in pmf(n, p).items())


def joint_plus(n: int, m: int, p: Fraction) -> Fraction:
    """P(T_n = +1 and T_m = +1), n < m, by enumeration of length-m paths."""
    total = Fraction(0)
    for path in all_paths(m):
        if path[n - 1] == 1 and path[m - 1] == 1:
            total += path_weight(p, path)
    return total


def cond_plus(m: int, n: int, k: int, p: Fraction) -> Fraction:
    """P(T_m = +1 | D_n = k) for m > n, by enumeration."""
    hit = Fraction(0)
    mass = Fraction(0)
    for path in all_paths(m):
        if sum(path[:n]) != k:
            continue
        w = path_weight(p, path)
        mass += w
        if path[m - 1] == 1:
            hit += w
    if mass == 0:
        return Fraction(0)
    return hit / mass


def sigma_entry(i: int, j: int, p: Fraction) -> Fraction:
    """Cov(T_i, T_j) = E[T_i T_j] for the +/-1 assignments."""
    if i == j:
        return Fraction(1)
    lo, hi = min(i, j), max(i, j)
    total = Fraction(0)
    for path in all_paths(hi):
        total += path_weight(p, path) * path[lo - 1] * path[hi - 1]
    return total


def first_visit(k: int, steps: int, p: Fraction) -> Fraction:
    """P(walk started at k != 0 first hits 0 after exactly `steps` moves).

    Away-from-zero moves happen with probability q, toward-zero with p;
    paths that touch 0 early are excluded.
    """
    if k == 0:
        return Fraction(1) if steps == 0 else Fraction(0)
    if steps == 0:
        return Fraction(0)
    q = 1 - p
    total = Fraction(0)
    for path in product((1, -1), repeat=steps):
        d = k
        w = Fraction(1)
        ok = True
        for idx, t in enumerate(path):
            toward = (d > 0 and t == -1) or (d < 0 and t == 1)
            w *= p if toward else q
            d += t
            if d == 0:
                ok = idx == steps - 1
                break
        else:
            ok = False
        if ok and d == 0:
            total += w
    return total


def guess_prob(j: int, p: Fraction) -> Fraction:
    """P(the 'guess the least-frequent arm' strategy is right at draw j)."""
    total = Fraction(0)
    for path in all_paths(j):
        prefix, last = path[:-1], path[-1]
        d = sum(prefix)
        if d < 0:
            guess = 1
        elif d > 0:
            guess = -1
        else:
            guess = last  # tie: guessing uniformly, credit half below
        if guess != last:
            continue
        w = path_weight(p, path)
        total += w * (HALF if d == 0 else 1)
    return total


def expected_guesses(n: int, p: Fraction) -> Fraction:
    return sum(guess_prob(j, p) for j in range(1, n + 1))


# ---------------------------------------------------------------------------
# the Jacobi spectrum, frozen


def round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The Brent & Luk round-robin sweep as steps of disjoint pairs (i < j)."""
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


def _off_norm(a: np.ndarray) -> float:
    strict = a - np.diag(np.diag(a))
    return float(np.sqrt(np.sum(strict * strict)))


def jacobi_spectrum(a: np.ndarray, max_rotations: int | None = None) -> np.ndarray:
    """Descending eigenvalues of a valid symmetric matrix by Jacobi sweeps.

    Each step gathers the rows i and j (then the columns) of its pairs one
    side at a time and writes c x - s y and s x + c y back.  A budget that
    runs out raises RuntimeError with the package's ConvergenceError text.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    if max_rotations is None:
        max_rotations = 100 * n * n
    tol = 1e-10
    skip = tol / (2.0 * n)
    schedule = round_robin_pairs(n)
    rotations = 0
    while _off_norm(a) > tol:
        for i, j in schedule:
            apq = a[i, j]
            active = np.abs(apq) > skip
            count = int(np.count_nonzero(active))
            if not count:
                continue
            if rotations + count > max_rotations:
                raise RuntimeError(
                    f"no convergence after {rotations} rotations "
                    f"(off-diagonal norm {_off_norm(a):.3e} > tol {tol:g})"
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
