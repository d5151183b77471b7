"""Exact law of the treatment imbalance under the biased-coin rule.

D_n is the difference between the two group sizes after n assignments.  Its
distribution is symmetric, supported on {-n, -n+2, ..., n}, and has the
closed form (k and n of equal parity, 0 < k <= n)

    P(D_n = +-k) = (1/2) p^((n-k)/2)
                   * sum_{l=0}^{(n-k)/2} (n+k-2l)/(n+k+2l)
                                         * C((n+k)/2 + l, l) * q^(k+l-1)

and, for even n,

    P(D_n = 0) = p^(n/2)
                 * sum_{l=0}^{n/2 - 1} (n-2l)/(n+2l) * C(n/2 + l, l) * q^l.

A Fraction p = A/B gets each mass times (2B)^n as an int from one
integer evaluator, `_integer_masses`: every summand's ratio times
binomial is a ballot number of a = (n + k)/2 alone, so one Horner pass
per a, on ballot numbers taken each from the last, sums every mass of that
a.  `pmf_masses` makes one Fraction per mass from it, and the rational
rows of `covariance.sigma` read the ints directly.  A float p
evaluates each summand in float64 through the guarded product kernel in
`stable`, which replays the kernel on all the summands a call needs at
once.  A forward recurrence on the same law (`dp_pmf_dn`) is kept as an
independent cross-check route, on Fractions, and is never substituted for
the closed form.

The absolute imbalance |D_n| is an ergodic birth-death chain whose
stationary law pi has the geometric form pi_0 = (r-1)/(2r),
pi_j = (r^2-1)/(2 r^(j+1)) with r = p/q; `steady_state_threshold` locates
the sample size from which the finite-n law stays within a given relative
tolerance of that limit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import stable
from .design import DesignParams, Number
from .stable import replay_term_products, stable_term_product

__all__ = [
    "ImbalancePMF",
    "StationaryDist",
    "asymptotic_var",
    "dp_pmf_dn",
    "pmf_at",
    "pmf_dn",
    "pmf_masses",
    "steady_state_threshold",
    "steady_state_threshold_table",
    "term_factors",
    "var_dn",
    "var_dns",
]


# ---------------------------------------------------------------------------
# closed-form point masses

def term_factors(
    n: int, k: int, l: int, params: DesignParams
) -> tuple[list[float], list[float]]:
    """Factor decomposition of the l-th summand of the closed form.

    Returns (small, large): small factors lie in (0, 1] (probabilities,
    reciprocals of 1..l, the leading ratio and the 1/2 for k > 0), large
    factors are the binomial numerators (n+k)/2 + 1 .. (n+k)/2 + l.  For
    k > 0 there are (n+k)/2 + 2l small factors; for k = 0 there are
    n/2 + 2l.  Terms that are identically zero (q == 0 with a positive
    q-power) must be skipped by the caller; a zero is not a valid factor.
    """
    p = float(params.p)
    q = float(params.q)
    if k > 0:
        a = (n + k) // 2
        small = [0.5, (n + k - 2 * l) / (n + k + 2 * l)]
        small += [p] * ((n - k) // 2)
        small += [q] * (k + l - 1)
    else:
        a = n // 2
        small = [(n - 2 * l) / (n + 2 * l)]
        small += [p] * (n // 2)
        small += [q] * l
    small += [1.0 / s for s in range(2, l + 1)]
    large = [float(a + s) for s in range(1, l + 1)]
    return small, large


def _term(n: int, k: int, l: int, params: DesignParams, steps: int) -> Number:
    """The l-th summand of P(D_n = k), k >= 0, in the arithmetic of p.

    For a float p the guarded product of `term_factors` in the window
    M = 4 steps (a FactoredProduct if it banks).  A Fraction p is asked
    only for k = 0 (the first-return masses of `covariance.first_visit`;
    rational laws sum in `_integer_masses`), and gets that summand exactly.
    """
    if not params.is_exact:
        return stable_term_product(*term_factors(n, k, l, params), 4.0 * steps)
    p, q = params.p, params.q
    return Fraction(n - 2 * l, n + 2 * l) * math.comb(n // 2 + l, l) * p ** (n // 2) * q**l


def _summand_count(n: int, k: int, q) -> int:
    """How many summands l of P(D_n = k), 0 <= k <= n of n's parity, can be
    nonzero: all of the closed form's, or only l = 0 at q = 0."""
    if not q:
        return 1
    return (n - k) // 2 + 1 if k else n // 2


def _integer_masses(points: Sequence[tuple[int, int]], params: DesignParams) -> list[int]:
    """P(D_n = k) (2B)^n as an int for each (n, k), 0 <= k <= n of n's
    parity, at a Fraction p = A/B in lowest terms.

    With a = (n + k)/2, summand l's ratio times binomial (a - l)/(a + l)
    C(a + l, l) is an integer, the ballot number b_l, and it depends on a
    alone: b_0 = 1 and b_(l+1) = b_l (a - l - 1)(a + l) / ((a - l)(l + 1)).
    So with Q = B - A, one Horner pass per a, acc = (acc + b_l Q^l) B,
    gives acc_c = B^c times the sum of the first c summands' ratio,
    binomial and q-power for every point of that a at once.  With
    e = (n - k)/2 and c = `_summand_count` summands, the mass times (2B)^n
    is

        A^e Q^(k-1) acc_c 2^(n-1) B^(e+1-c)   (k > 0)
        A^e acc_c 2^n B^(e-c)                 (k = 0),

    where c = e + 1 (k > 0) or e (k = 0), so the power of B is 1, except
    at q = 0.  The empty walk, n = 0, has mass 1.
    """
    big_a, big_b = params.p.numerator, params.p.denominator
    big_q = big_b - big_a
    counts = [_summand_count(n, k, big_q) for n, k in points]
    by_a: dict[int, list[tuple[int, int]]] = {}
    for i, ((n, k), count) in enumerate(zip(points, counts)):
        by_a.setdefault((n + k) // 2, []).append((count, i))
    accs = [0] * len(points)
    for a, wanted in by_a.items():
        wanted.sort(reverse=True)  # pop the fewest summands first
        acc, term = 0, 1  # term = b_l Q^l
        for l in range(wanted[0][0]):
            if l:
                term = term * (big_q * (a - l) * (a + l - 1)) // ((a - l + 1) * l)
            acc = (acc + term) * big_b
            while wanted and wanted[-1][0] == l + 1:
                accs[wanted.pop()[1]] = acc
    masses = []
    for (n, k), count, acc in zip(points, counts, accs):
        e = (n - k) // 2
        if not n:
            masses.append(1)
        elif k:
            masses.append((big_a**e * big_q ** (k - 1) * acc * big_b ** (e + 1 - count)) << n - 1)
        else:
            masses.append((big_a**e * acc * big_b ** (e - count)) << n)
    return masses


def pmf_at(n: int, k: int, params: DesignParams) -> Number:
    """P(D_n = k) from the closed form; 0 off the parity support."""
    return pmf_masses([(n, k)], params)[0]


def pmf_masses(points: Sequence[tuple[int, int]], params: DesignParams) -> list[Number]:
    """P(D_n = k) for each (n, k) of points, in order, from the closed form.

    A Fraction p = A/B sums every point in integers (`_integer_masses`) and
    makes one Fraction of each, over (2B)^n.  A float p
    replays the guarded kernel on the summands of whole points, at most
    LANE_BATCH of them at a time (`_replayed_masses`), so its working set
    stays bounded however many points a call asks for.  Every float mass
    is the same float the kernel gives summand by summand in the window
    M = 4n.
    """
    masses: list = []
    wanted = []  # (index, n, k, summands)
    q = params.q
    for n, k in points:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        k = abs(k)
        # at q == 0 only the summand free of q is nonzero, and only for k <= 1
        if k > n or (n - k) % 2 or not (q or k <= 1):
            masses.append(params.zero)
        elif n == 0:
            masses.append(params.one)
        else:
            wanted.append((len(masses), n, k, _summand_count(n, k, q)))
            masses.append(None)
    if not wanted:
        return masses

    index, n, k, counts = zip(*wanted)
    if params.is_exact:
        two_b = 2 * params.p.denominator
        for i, nj, mass in zip(index, n, _integer_masses(list(zip(n, k)), params)):
            masses[i] = Fraction(mass, two_b**nj)
        return masses
    # whole points, in the fewest chunks of at most LANE_BATCH summands,
    # each filled up to about an equal share of the call's summands
    chunks = max(-(-sum(counts) // stable.LANE_BATCH), 1)
    share = -(-sum(counts) // chunks)
    start = 0
    while start < len(index):
        stop, lanes = start + 1, counts[start]
        while (stop < len(index) and lanes < share
               and lanes + counts[stop] <= stable.LANE_BATCH):
            lanes += counts[stop]
            stop += 1
        chunk = slice(start, stop)
        found = _replayed_masses(n[chunk], k[chunk], counts[chunk], params)
        for i, mass in zip(index[chunk], found):
            masses[i] = mass
        start = stop
    return masses


def _replayed_masses(n, k, counts, params: DesignParams) -> list[float]:
    """P(D_n[j] = k[j]) from one replay of summands l < counts[j] of each point.

    The few summands that bank under the underflow guard are re-run
    through `_term`, and `sum_term_values` adds each point's values; where
    none banks, that sum is the fsum of the replayed floats.
    """
    bounds = [0, *itertools.accumulate(counts)]
    # the lane arrays are passed, not kept: the replay holds the only copy
    values = replay_term_products(
        np.repeat(n, counts),
        np.repeat(k, counts),
        np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts),  # l
        float(params.p),
        float(params.q),
        np.repeat([4.0 * m for m in n], counts),
    )
    banked = np.flatnonzero(values < stable.UNDERFLOW_GUARD).tolist()
    if not banked:
        return [math.fsum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    terms = values.tolist()
    for lane in banked:
        j = bisect.bisect_right(bounds, lane) - 1
        terms[lane] = _term(n[j], k[j], lane - bounds[j], params, n[j])
    return [stable.sum_term_values(terms[a:b]) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class ImbalancePMF:
    """Distribution of D_n on its parity support, symmetric in k."""

    n: int
    params: DesignParams
    masses: Mapping[int, Number]

    def mass(self, k: int) -> Number:
        return self.masses.get(k, self.params.zero)

    def two_sided(self, k: int) -> Number:
        """P(|D_n| = |k|)."""
        k = abs(k)
        return self.mass(0) if k == 0 else 2 * self.mass(k)

    def support(self) -> list[int]:
        return sorted(self.masses)


def pmf_dn(n: int, params: DesignParams) -> ImbalancePMF:
    """Full law of D_n via the closed form, one point mass per support k."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    ks = range(n % 2, n + 1, 2)
    masses: dict[int, Number] = {}
    for k, v in zip(ks, pmf_masses([(n, k) for k in ks], params)):
        masses[k] = v
        if k:
            masses[-k] = v
    return ImbalancePMF(n=n, params=params, masses=masses)


def _dp_rows(n: int, params: DesignParams) -> Iterable[list[Number]]:
    """Rows of signed masses [P(D_j = 0), P(D_j = 1), ..., P(D_j = j)].

    Forward recurrence: the mass at 0 collects both neighbours (2p * mass
    at 1), the mass at 1 gets half of the balanced mass plus p times the
    mass at 2, interior k gets q * mass(k-1) + p * mass(k+1), and the
    extreme k = j+1 is reached only from j with probability q.
    """
    p, q = params.p, params.q
    half, zero = params.half, params.zero
    row: list[Number] = [params.one]
    yield row
    for j in range(n):
        prev = row + [zero, zero]  # pad so prev[k+1] is always valid
        row = [zero] * (j + 2)
        row[0] = 2 * p * prev[1]
        row[1] = half * prev[0] + p * prev[2]
        for k in range(2, j + 1):
            row[k] = q * prev[k - 1] + p * prev[k + 1]
        if j >= 1:
            # top state j+1 is reachable only from j, and only via the
            # away-from-balance branch; at j = 0 the k = 1 rule above
            # already accounts for the fair first toss
            row[j + 1] = q * prev[j]
        yield row


def dp_pmf_dn(n: int, params: DesignParams) -> ImbalancePMF:
    """Law of D_n via the forward recurrence (cross-check route)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    for row in _dp_rows(n, params):
        pass
    masses: dict[int, Number] = {}
    for k in range(n % 2, n + 1, 2):
        masses[k] = row[k]
        if k:
            masses[-k] = row[k]
    return ImbalancePMF(n=n, params=params, masses=masses)


def var_dn(n: int, params: DesignParams) -> Number:
    """Var(D_n) = E[D_n^2] = sum over k >= 1 of k^2 P(|D_n| = k)."""
    return var_dns([n], params)[0]


def var_dns(ns: Sequence[int], params: DesignParams) -> list[Number]:
    """`var_dn` for each n of ns, read off one `pmf_masses` call over the
    points of every n.  A mass does not depend on the call it is computed
    in, so each variance equals its own."""
    if any(n < 0 for n in ns):
        raise ValueError(f"n must be >= 0, got {min(ns)}")
    ks = [range(1 if n % 2 else 2, n + 1, 2) for n in ns]
    masses = iter(pmf_masses([(n, k) for n, row in zip(ns, ks) for k in row], params))
    return [params.sum(k * k * 2 * next(masses) for k in row) for row in ks]


# ---------------------------------------------------------------------------
# stationary behaviour of |D_n|


@dataclass(frozen=True)
class StationaryDist:
    """Stationary law of the absolute imbalance chain (needs p > 1/2).

    Because the chain is periodic with period 2, the finite-n laws converge
    along each parity to twice the stationary mass: P(|D_n| = k) -> 2 pi_k
    over n of k's parity.  At p = 1 the limiting values are taken:
    pi_0 = pi_1 = 1/2, all other states vanish.
    """

    params: DesignParams

    def __post_init__(self):
        if self.params.is_fair:
            raise ValueError(
                "p = 1/2 is complete randomization; |D_n| is a null-recurrent "
                "walk with no stationary distribution"
            )

    def pi(self, j: int) -> Number:
        if j < 0:
            raise ValueError("state index must be >= 0")
        params = self.params
        if params.is_deterministic:
            return params.half if j in (0, 1) else params.zero
        r = params.r
        if j == 0:
            return (r - 1) / (2 * r)
        try:
            scale = r ** (j + 1)
        except OverflowError:  # only a float r overflows
            raise ValueError(
                f"pi({j}) at p = {params.p} needs r = p/q to the power "
                f"{j + 1}, which overflows a float"
            ) from None
        return (r * r - 1) / (2 * scale)

    def two_sided_limit(self, k: int) -> Number:
        """lim P(|D_n| = k) along n of k's parity, i.e. 2 pi_k."""
        return 2 * self.pi(abs(k))


def asymptotic_var(params: DesignParams, parity: str) -> Number:
    """Limit of Var(D_n) along even or odd n.

    Even limit 4r(r^2+1)/(r^2-1)^2, odd limit 8r^2/(r^2-1)^2 + 1; at p = 1
    these degenerate to 0 and 1, and at p = 1/2 the variance diverges.
    """
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    if params.is_fair:
        raise ValueError("Var(D_n) diverges at p = 1/2; no finite limit")
    if params.is_deterministic:
        return params.zero if parity == "even" else params.one
    r = params.r
    denom = (r * r - 1) ** 2
    if parity == "even":
        return 4 * r * (r * r + 1) / denom
    return 8 * r * r / denom + 1


# ---------------------------------------------------------------------------
# convergence thresholds (how fast P(|D_n| = k) reaches its limit)

# The scan's running sum overflows from n of about 1880 as p -> 1/2; up to
# this horizon it met dp_pmf_dn within 1e-13 relative over p in (1/2, 1).
SCAN_N_MAX = 1500


def _two_sided_scan(n: Sequence[int], k: Sequence[int], p: float) -> list[float]:
    """P(|D_n| = k) for each lane (n[i], k[i]), k <= n of n's parity, float64.

    Evaluates the closed-form sum by the consecutive-term ratio

        term_{l+1} / term_l = q * (n+k-2l-2)/(n+k-2l)
                                * (n+k+2l)/(n+k+2l+2)
                                * ((n+k)/2 + l + 1)/(l + 1)

    which keeps every intermediate within float range and costs O(n) per
    mass instead of the O(n^2) of the factor-kernel route.  The first term
    q^(k-1) and the factor p^((n-k)/2) are carried as power-of-two
    rescalings (`_scaled_power`), so neither underflows before the mass
    does; the sum itself stays finite for n <= SCAN_N_MAX.

    One numpy lane per mass runs the scalar loop `term *= q * r1 * r2 * r3;
    total += term` in its order, and quotients of small integers round in
    numpy as in Python, so each mass is the float that loop gives.  Lanes
    are sorted by term count, longest first, so step l runs only on the
    prefix of lanes with more than l ratio steps left.  Agreement with the
    scalar loop, with pmf_at and with the forward recurrence is pinned by
    tests.
    """
    if any(j > m or (m - j) % 2 for m, j in zip(n, k)):
        raise ValueError("every lane needs k <= n of n's parity")
    q = 1.0 - p
    steps = [(m - j) // 2 if j else max(m // 2 - 1, 0) for m, j in zip(n, k)]
    order = np.array(sorted(range(len(steps)), key=steps.__getitem__, reverse=True), dtype=np.intp)
    # the prefix of lanes still running at step l, longest first
    tops, top, ending = [], len(steps), Counter(steps)
    for l in range(max(steps, default=0)):
        top -= ending[l]
        tops.append(top)
    n, k = np.array(n, dtype=float)[order], np.array(k, dtype=float)[order]
    term, shift = _scaled_powers(q, np.maximum(k - 1, 0))  # q^0 = 1 starts k = 0
    p_power, p_shift = _scaled_powers(p, (n - k) / 2)
    shift += p_shift
    total = term.copy()
    both = n + k
    a = both / 2 + 1  # the binomial numerator at l = 0
    del n, k, p_shift, steps, ending
    rows = np.empty((3, both.size))
    for l, top in enumerate(tops):
        factor, num, den = rows[:, :top]
        np.subtract(both[:top], 2 * l, out=den)
        np.subtract(den, 2.0, out=factor)
        np.divide(factor, den, out=factor)  # (n+k-2l-2)/(n+k-2l)
        factor *= q
        np.add(both[:top], 2 * l, out=num)
        np.add(num, 2.0, out=den)
        np.divide(num, den, out=num)  # (n+k+2l)/(n+k+2l+2)
        factor *= num
        np.add(a[:top], l, out=num)
        num /= l + 1  # ((n+k)/2 + l + 1)/(l + 1)
        factor *= num
        lane_term = term[:top]
        lane_term *= factor
        total[:top] += lane_term
    total *= p_power
    masses = np.empty(both.size)
    masses[order] = np.ldexp(total, shift.astype(np.intp))
    return masses.tolist()


def _scaled_powers(x: float, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_scaled_power` of x for each exponent of e (whole numbers), as the
    factors and the power-of-two shifts, both float arrays."""
    pairs = np.array([_scaled_power(x, j) for j in range(int(e.max(initial=0)) + 1)])
    at = e.astype(np.intp)
    return pairs[:, 0][at], pairs[:, 1][at]


def _scaled_power(x: float, e: int) -> tuple[float, int]:
    """(f, s) with x**e == f * 2**s, where f is x**e itself when that is a
    normal float, and otherwise a normal mantissa from chunked powers."""
    value = x**e
    if value >= sys.float_info.min or (value == 0.0 and x == 0.0):
        return value, 0
    mantissa, exponent = math.frexp(x)
    f, shift = 1.0, exponent * e
    while e:
        chunk = min(e, 1000)  # mantissa >= 1/2, so its 1000th power is normal
        f, s = math.frexp(f * mantissa**chunk)
        shift += s
        e -= chunk
    return f, shift


def steady_state_threshold(
    k: int,
    params: DesignParams,
    tol: float,
    n_max: int = 500,
) -> int | None:
    """Smallest n of k's parity from which P(|D_n| = k) stays within a
    relative tolerance of its stationary limit 2 pi_k.

    "Stays" means the bound holds at that n and at every larger n of the
    same parity up to n_max; a single later excursion pushes the threshold
    past it.  Returns None when no such n <= n_max exists.  n_max may not
    exceed SCAN_N_MAX.
    """
    return steady_state_threshold_table([k], params, [tol], n_max)[0][0]


def steady_state_threshold_table(
    ks: Sequence[int],
    params: DesignParams,
    tols: Sequence[float],
    n_max: int = 500,
) -> list[list[int | None]]:
    """`steady_state_threshold` for each k of ks and each tolerance of tols,
    from one scan call over the masses P(|D_n| = k), n <= n_max, of every k."""
    horizons = [_threshold_horizon(k, tols, n_max) for k in ks]
    if not tols or not ks:
        return [[] for _ in ks]
    stationary = StationaryDist(params)
    lane_n = [n for ns in horizons for n in ns]
    lane_k = [k for k, ns in zip(ks, horizons) for _ in ns]
    masses = _two_sided_scan(lane_n, lane_k, float(params.p))
    table, start = [], 0
    for k, ns in zip(ks, horizons):
        target = float(stationary.two_sided_limit(k))
        found = masses[start:start + len(ns)]
        table.append([_settled_from(ns, found, target, tol) for tol in tols])
        start += len(ns)
    return table


def _threshold_horizon(k: int, tols: Sequence[float], n_max: int) -> range:
    """The candidate n of k's parity, after checking k, tols and n_max."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if any(not tol > 0 for tol in tols):
        raise ValueError("tolerance must be positive")
    start = 2 if k == 0 else k
    if not tols:
        return range(0)
    if n_max < start:
        raise ValueError(f"n_max={n_max} is below the first candidate n={start}")
    if n_max > SCAN_N_MAX:
        raise ValueError(
            f"n_max={n_max} is above {SCAN_N_MAX}, the largest horizon "
            "the threshold scan is checked to"
        )
    return range(start, n_max + 1, 2)


def _settled_from(ns: range, masses: list[float], target: float, tol: float) -> int | None:
    """First n of ns after the last mass off target by more than tol."""
    last_bad = -1
    for i, mass in enumerate(masses):
        if mass == 0.0:
            ok = target == 0.0
        else:
            ok = abs(target - mass) / mass <= tol
        if not ok:
            last_bad = i
    if last_bad + 1 >= len(masses) and last_bad >= 0:
        return None
    return ns[last_bad + 1]
