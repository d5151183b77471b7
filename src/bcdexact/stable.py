"""Overflow/underflow-guarded evaluation of the closed forms' float summands.

Closed-form imbalance probabilities are sums of terms like

    (1/2) * ratio * C(a + l, l) * p^i * q^j

whose binomial part overflows double precision long before the term itself
leaves the representable range.  Writing the term as a bag of factors that
are <= 1 (the probabilities, the reciprocals from 1/l!, the leading ratio)
and a bag of factors that are > 1 (the binomial numerators a+1 .. a+l) lets
us interleave the two so the running product stays inside a fixed window:

    1. take an overflow guard M above twice the sample size (the laws use 4n)
    2. fix the underflow guard m = UNDERFLOW_GUARD near the smallest double
    3. multiply large factors until the running product exceeds M
    4. multiply small factors until it drops below M
    5. repeat 3-4 until the large factors run out
    6. finish with the remaining small factors, largest first; if the
       product falls under m, bank the partial product and keep going

When step 6 banks partial products the value is returned as a
FactoredProduct, a list of sub-products whose true value is their product;
`sum_term_values` rescales these instead of collapsing them to 0.0.

Every float summand is evaluated here, and its callers get floats.
`replay_masses` gives masses P(D_n = k): it replays `stable_term_product`
on the `term_factors` of all their summands at once, one numpy lane each
(`replay_term_products`), re-runs the few that bank and sums each point.
`term_value` gives one summand in a given window, a banked one collapsed;
`covariance.first_visit` reads its first-return masses from it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

UNDERFLOW_GUARD = 1e-300
# Lanes replayed together.  Every call of up to this many summands (a law
# up to n = 359) replays in one batch, so its step count is its longest
# lane; the replay's working set stays near 5 MB (about 310 bytes a lane)
# at any n.  Of 4096 .. 65536 lanes this was fastest on a 2-vCPU Xeon VM;
# larger batches ran no faster and hold more memory.
LANE_BATCH = 16384

FLOAT_KIND = "float64-stable"
RATIONAL_KIND = "exact-rational"


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic of the 2^n oracle `simulate.enumerate_exact`, guarded
    float64 or exact rational; every other evaluator computes in the
    arithmetic of p, which `DesignParams` carries.
    """

    kind: str = FLOAT_KIND

    @property
    def is_exact(self) -> bool:
        return self.kind == RATIONAL_KIND

    @classmethod
    def coerce(cls, mode) -> "NumericMode":
        if isinstance(mode, cls):
            return mode
        if isinstance(mode, str):
            name = mode.strip().lower()
            if name in ("float", "float64", FLOAT_KIND):
                return FLOAT64_STABLE
            if name in ("rational", "exact", RATIONAL_KIND):
                return EXACT_RATIONAL
            raise ValueError(f"unknown numeric mode {mode!r}")
        raise TypeError(f"cannot interpret {mode!r} as a numeric mode")


FLOAT64_STABLE = NumericMode(FLOAT_KIND)
EXACT_RATIONAL = NumericMode(RATIONAL_KIND)


@dataclass(frozen=True)
class FactoredProduct:
    """A positive value below the underflow guard, kept as sub-products.

    The represented value is prod(parts).  Each part is a float in a safe
    range; the product of all of them may underflow, which is the point of
    not carrying it around collapsed.
    """

    parts: tuple[float, ...]

    def frexp(self) -> tuple[float, int]:
        """(mantissa, exponent) with value == mantissa * 2**exponent."""
        mant, exp = 1.0, 0
        for part in self.parts:
            mant *= part
            mant, e = math.frexp(mant)
            exp += e
        return mant, exp


def stable_term_product(
    factors_small: Sequence[float],
    factors_large: Sequence[float],
    big: float,
) -> float | FactoredProduct:
    """Product of all factors via the guarded interleaving above, M = big.

    factors_small must lie in (0, 1], factors_large must be >= 1.  Empty
    input is the empty product, 1.0.  Returns a FactoredProduct when the
    tail of small factors pushes the running product under UNDERFLOW_GUARD.
    """
    for f in factors_small:
        if not 0 < f <= 1:
            raise ValueError(f"small factor out of (0, 1]: {f!r}")
    for f in factors_large:
        if f < 1:
            raise ValueError(f"large factor below 1: {f!r}")

    small = sorted(factors_small, reverse=True)
    large = list(factors_large)
    prod = 1.0
    banked: list[float] = []
    si = 0

    def absorb_small(limit: float) -> None:
        # multiply small factors until the product drops below `limit`
        nonlocal prod, si
        while prod >= limit and si < len(small):
            prod *= small[si]
            si += 1

    for f in large:
        prod *= f
        if prod > big:
            absorb_small(big)

    while si < len(small):
        # bank BEFORE a multiply that would leave the guarded range: one
        # more small factor may underflow the running product all the way
        # to zero, not just below the guard
        if prod * small[si] < UNDERFLOW_GUARD:
            banked.append(prod)
            prod = 1.0
        prod *= small[si]
        si += 1

    if banked:
        banked.append(prod)
        return FactoredProduct(tuple(banked))
    return prod


def term_factors(n: int, k: int, l: int, p: float, q: float) -> tuple[list[float], list[float]]:
    """Factor decomposition of the l-th summand of P(D_n = k), k >= 0.

    Returns (small, large): small factors lie in (0, 1] (probabilities,
    reciprocals of 1..l, the leading ratio and the 1/2 for k > 0), large
    factors are the binomial numerators (n+k)/2 + 1 .. (n+k)/2 + l.  For
    k > 0 there are (n+k)/2 + 2l small factors; for k = 0 there are
    n/2 + 2l.  Terms that are identically zero (q == 0 with a positive
    q-power) must be skipped by the caller; a zero is not a valid factor.
    """
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


def term_value(n: int, k: int, l: int, p: float, q: float, big: float) -> float:
    """The l-th summand of P(D_n = k), guarded at M = big, a banked
    product collapsed to one float."""
    value = stable_term_product(*term_factors(n, k, l, p, q), big)
    if isinstance(value, FactoredProduct):
        return math.ldexp(*value.frexp())
    return value


def replay_masses(
    n: Sequence[int], k: Sequence[int], counts: Sequence[int], p: float, q: float
) -> list[float]:
    """P(D_n[j] = k[j]) from summands l < counts[j] of each point j, each
    guarded at M = 4 n[j]; a mass is the float `sum_term_values` gives on
    the scalar kernel's summands.  Whole points replay in the fewest chunks
    of at most LANE_BATCH summands, each filled to about an equal share of
    the call's summands, so the working set stays bounded however many
    points a call asks for.
    """
    chunks = max(-(-sum(counts) // LANE_BATCH), 1)
    share = -(-sum(counts) // chunks)
    masses: list[float] = []
    start = 0
    while start < len(n):
        stop, lanes = start + 1, counts[start]
        while stop < len(n) and lanes < share and lanes + counts[stop] <= LANE_BATCH:
            lanes += counts[stop]
            stop += 1
        masses += _replayed_masses(n[start:stop], k[start:stop], counts[start:stop], p, q)
        start = stop
    return masses


def _replayed_masses(n, k, counts, p: float, q: float) -> list[float]:
    """`replay_masses` of one chunk, from one replay of its summands.

    The few summands that bank under the underflow guard are re-run
    through `stable_term_product`, and `sum_term_values` adds each point's
    values; where none banks, that sum is the fsum of the replayed floats.
    """
    bounds = [0, *itertools.accumulate(counts)]
    # the lane arrays are passed, not kept: the replay holds the only copy
    values = replay_term_products(
        np.repeat(n, counts),
        np.repeat(k, counts),
        np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts),  # l
        p,
        q,
        np.repeat([4.0 * m for m in n], counts),
    )
    banked = np.flatnonzero(values < UNDERFLOW_GUARD).tolist()
    if not banked:
        return [math.fsum(values[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    terms = values.tolist()
    for lane in banked:
        j = bisect.bisect_right(bounds, lane) - 1
        factors = term_factors(n[j], k[j], lane - bounds[j], p, q)
        terms[lane] = stable_term_product(*factors, 4.0 * n[j])
    return [sum_term_values(terms[a:b]) for a, b in zip(bounds, bounds[1:])]


def replay_term_products(
    n: np.ndarray,
    k: np.ndarray,
    l: np.ndarray,
    p: float,
    q: float,
    big: np.ndarray,
) -> np.ndarray:
    """The guarded product of many closed-form summands, one numpy lane each.

    Lane i is the l-th summand of P(D_n = k) for k >= 0, whose factors
    `term_factors` lists: large factors a+1 .. a+l with a = (n+k)/2;
    small factors 1/2 .. 1/l, the ratio (n+k-2l)/(n+k+2l), a 1/2 when
    k > 0, p^((n-k)/2) and q^(k+l-1) (q^l when k = 0).  big[i] is its
    overflow guard M, and p >= 1/2 >= q.  Every lane makes the multiplies
    of `stable_term_product` in its order, and a numpy float64 product
    rounds as a Python one does, so a lane equals the kernel's result bit
    for bit where that is a float.  The kernel banks only when a tail
    product falls under the underflow guard, and tail products only
    shrink, so a lane that would bank ends under the guard, and
    `_replayed_masses` re-runs every lane that does through the kernel.
    """
    n, k, l, big = (np.asarray(x, dtype=float) for x in (n, k, l, big))
    # a lane's multiply count: l large factors, l - 1 harmonics and
    # (n+k)/2 + l + 1 constants; sorted, so a batch's live lanes are a suffix
    length = 2 * l + np.maximum(l - 1, 0) + (n + k) / 2 + 1
    order = np.argsort(length, kind="stable")
    n, k, l, big, length = (x[order] for x in (n, k, l, big, length))
    products = np.empty(n.size)
    for start in range(0, n.size, LANE_BATCH):
        batch = slice(start, start + LANE_BATCH)
        products[order[batch]] = _replay_batch(
            n[batch], k[batch], l[batch], p, q, big[batch], length[batch])
    return products


def _replay_batch(n, k, l, p, q, big, length) -> np.ndarray:
    """One batch of `replay_term_products`, lanes sorted by length.

    The sorted small factors of a lane are generated, not stored: the
    harmonics 1/2 > 1/3 > ... > 1/l merged with at most four constant runs
    (the ratio, p, 1/2 and q), as segments of `_segment_table`.  A lane of
    length L makes its multiplies at steps 0 .. L - 1, so step s runs only
    on the suffix of lanes longer than s, and every per-step operation
    writes in place into that suffix.
    """
    lanes = n.size
    values, bounds = _segment_table(n, k, l, p, q)
    segment = np.arange(0, lanes * SEGMENTS, SEGMENTS)  # each lane's current segment
    state = np.empty((11, lanes))
    state[0] = values[segment]
    state[1:3] = bounds[:, segment]
    state[3] = 1.0  # the running product
    state[4] = (n + k) / 2 + 1  # the next large factor
    state[5] = state[4] + l  # past the last one
    state[6] = 0.0  # small factors used
    state[7] = big
    steps = int(length[-1])
    live = np.searchsorted(length, np.arange(steps), side="right").tolist()
    del n, k, l, big, length  # the batch's inputs: keep the loop's working set small
    flags = np.ones((3, lanes), dtype=bool)
    first = -1
    for s in range(steps):
        if live[s] != first:
            first = live[s]
            (value, shift, stop, prod, large, large_end, i, guard,
             take_large, factor, scratch) = segments = state[:, first:]
            calm, moved, more_large = flags[:, first:]
            lane_segment = segment[first:]
        np.less(large, large_end, out=more_large)
        np.logical_and(more_large, calm, out=take_large)
        # the next small factor is the larger of the segment's run value
        # and harmonic, and a large factor is above both
        np.subtract(i, shift, out=factor)
        np.divide(1.0, factor, out=factor)
        np.maximum(factor, value, out=factor)
        np.multiply(large, take_large, out=scratch)
        np.maximum(factor, scratch, out=factor)
        prod *= factor
        # a large factor starts absorbing when prod > M, a small one keeps
        # it going while prod >= M (the kernel's absorb_small)
        np.less(prod, guard, out=calm)
        np.equal(prod, guard, out=moved)
        if np.count_nonzero(moved):
            calm |= moved & (take_large > 0)
        large += take_large
        i += 1.0
        i -= take_large
        np.greater_equal(i, stop, out=moved)
        rows = moved.nonzero()[0]
        if rows.size:
            at = lane_segment[rows] + 1
            lane_segment[rows] = at
            value[rows] = values[at]
            segments[1:3, rows] = bounds[:, at]
    return state[3]


SEGMENTS = 6  # four runs, a harmonic gap before a run past the harmonics, the tail


def _segment_table(n, k, l, p, q) -> tuple[np.ndarray, np.ndarray]:
    """The segments of each lane's sorted small factors, SEGMENTS a lane.

    A run enters once every harmonic strictly above its value is used, so
    while a run is next its value is below the next harmonic and not above
    any harmonic it skips: the next small factor is the larger of the two.
    Segment g of a lane covers small positions up to stop[g]; position i
    offers its run value[g] and the harmonic 1/(i - shift[g]), shift being
    the constants ahead less 2.  A run that starts after the last harmonic
    gets its own segment with shift -inf, whose harmonic is 0, after a
    segment of value 0 that takes the harmonics left before it, and a
    last segment of value 0 takes the harmonics after the last run.
    Returns the values and the (shift, stop) pairs, small integers kept as
    float32.
    """
    lanes = n.size  # n, k and l hold integers; n + k is even
    side = np.minimum(k, 1.0)  # the factor 1/2 comes with k > 0
    ratio = (n + k - 2 * l) / (n + k + 2 * l)
    fixed = ((p, (n - k) / 2), (0.5, side), (q, k + l - side))  # p >= 1/2 >= q
    slot = 3.0 - np.searchsorted([q, 0.5, p], ratio, side="right")  # constants above the ratio
    harmonics = np.maximum(l - 1, 0)
    above = -1.0 / np.arange(2, max(int(l.max()), 2) + 1)

    values = np.zeros(lanes * SEGMENTS)
    bounds = np.empty((2, lanes * SEGMENTS), dtype=np.float32)
    shift, stop = bounds
    total = np.zeros(lanes)  # constant factors so far
    used = np.zeros(lanes)  # small positions covered so far
    cell = np.arange(0, lanes * SEGMENTS, SEGMENTS)  # where each lane's next segment goes
    for rank in range(4):
        # the run of this rank: the ratio at its slot, else a fixed constant
        before, after = fixed[min(rank, 2)], fixed[max(rank - 1, 0)]
        value = np.where(rank < slot, before[0], np.where(rank == slot, ratio, after[0]))
        count = np.where(rank < slot, before[1], np.where(rank == slot, 1, after[1]))
        kept = np.flatnonzero(count > 0)  # empty runs are left out
        value, count, taken = value[kept], count[kept], total[kept]
        skipped = np.searchsorted(above, -value)  # harmonics strictly above the run
        start = np.minimum(skipped, harmonics[kept]) + taken
        past = skipped >= harmonics[kept]
        gap = past & (start > used[kept])  # harmonics left before such a run
        at = cell[kept[gap]]
        shift[at], stop[at] = taken[gap] - 2, start[gap]
        cell[kept[gap]] += 1
        at = cell[kept]
        values[at] = value
        shift[at] = np.where(past, -np.inf, taken - 2)
        stop[at] = used[kept] = start + count
        cell[kept] += 1
        total[kept] += count
    shift[cell], stop[cell] = total - 2, np.inf
    return values, bounds


def sum_term_values(terms: Iterable[float | FactoredProduct]) -> float:
    """Sum of term values, rescaling any factored ones before adding.

    With no factored terms this is an fsum.  Otherwise every term is put on
    a common power-of-two scale so values below the underflow guard still
    contribute relative to the largest term.
    """
    plain: list[float] = []
    scaled: list[tuple[float, int]] = []
    for t in terms:
        if isinstance(t, FactoredProduct):
            scaled.append(t.frexp())
        else:
            plain.append(t)
    if not scaled:
        return math.fsum(plain)
    for v in plain:
        if v != 0.0:
            scaled.append(math.frexp(v))
    if not scaled:
        return 0.0
    top = max(exp for _, exp in scaled)
    total = math.fsum(mant * math.ldexp(1.0, exp - top) for mant, exp in scaled)
    return math.ldexp(total, top)
