"""Overflow/underflow-guarded evaluation of long products of factors.

Closed-form imbalance probabilities are sums of terms like

    (1/2) * ratio * C(a + l, l) * p^i * q^j

whose binomial part overflows double precision long before the term itself
leaves the representable range.  Writing the term as a bag of factors that
are <= 1 (the probabilities, the reciprocals from 1/l!, the leading ratio)
and a bag of factors that are > 1 (the binomial numerators a+1 .. a+l) lets
us interleave the two so the running product stays inside a fixed window:

    1. fix an overflow guard M (anything above twice the sample size works)
    2. fix an underflow guard m near the smallest positive double
    3. multiply large factors until the running product exceeds M
    4. multiply small factors until it drops below M
    5. repeat 3-4 until the large factors run out
    6. finish with the remaining small factors, largest first; if the
       product falls under m, bank the partial product and keep going

When step 6 banks partial products the value is returned as a
FactoredProduct, a list of sub-products whose true value is their product;
downstream sums rescale these instead of collapsing them to 0.0.

`replay_term_products` runs the same multiplies for many terms at once,
one numpy lane per term, and is the route the closed forms take in float
mode; `stable_term_product` is its per-term reference and its fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .design import DesignParams

DEFAULT_UNDERFLOW_GUARD = 1e-300
LANE_BATCH = 2048  # lanes replayed together; bounds the replay's working set

FLOAT_KIND = "float64-stable"
RATIONAL_KIND = "exact-rational"


@dataclass(frozen=True)
class NumericMode:
    """Evaluation backend: guarded float64 or exact rational arithmetic.

    overflow_guard is the window top M; None means "derive 4n from the
    problem size at the call site".  underflow_guard (m) only matters for
    the float backend.  The mode also carries the arithmetic of its kind
    (constants, casts, summation), so evaluators write one body for both.
    """

    kind: str = FLOAT_KIND
    overflow_guard: float | None = None
    underflow_guard: float = DEFAULT_UNDERFLOW_GUARD

    def __post_init__(self):
        if self.kind not in (FLOAT_KIND, RATIONAL_KIND):
            raise ValueError(f"unknown numeric mode {self.kind!r}")
        if self.overflow_guard is not None and self.overflow_guard <= 0:
            raise ValueError("overflow guard must be positive")
        if not 0 < self.underflow_guard < 1:
            raise ValueError("underflow guard must be in (0, 1)")

    @property
    def is_exact(self) -> bool:
        return self.kind == RATIONAL_KIND

    def cast(self, x) -> Fraction | float:
        """x as a Fraction in rational mode, a float in float mode."""
        return Fraction(x) if self.is_exact else float(x)

    @property
    def zero(self) -> Fraction | float:
        return self.cast(0)

    @property
    def one(self) -> Fraction | float:
        return self.cast(1)

    @property
    def half(self) -> Fraction | float:
        return self.cast(Fraction(1, 2))

    def sum(self, values: Iterable) -> Fraction | float:
        """Exact sum from Fraction(0) in rational mode; in float mode
        `sum_term_values`, an fsum that rescales any banked products."""
        return sum(values, start=Fraction(0)) if self.is_exact else sum_term_values(values)

    def design(self, params: "DesignParams") -> "DesignParams":
        """The params to compute with: exact ones in rational mode, which
        refuses a float p, and the caller's own in float mode."""
        return params.as_exact() if self.is_exact else params

    def sized_for(self, n: int) -> "NumericMode":
        """Concrete mode for a size-n computation, defaulting M to 4n."""
        if self.is_exact:
            return self
        guard = self.overflow_guard
        if guard is None:
            guard = 4.0 * max(n, 1)
        elif guard <= 2 * n:
            raise ValueError(
                f"overflow guard {guard} is too small for n={n}; need > {2 * n}"
            )
        return replace(self, overflow_guard=float(guard))

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

    @property
    def value(self) -> float:
        return math.prod(self.parts)

    def frexp(self) -> tuple[float, int]:
        """(mantissa, exponent) with value == mantissa * 2**exponent."""
        mant, exp = 1.0, 0
        for part in self.parts:
            mant *= part
            mant, e = math.frexp(mant)
            exp += e
        return mant, exp

    def __float__(self) -> float:
        return self.value


def stable_term_product(
    factors_small: Sequence[float],
    factors_large: Sequence[float],
    mode: NumericMode = FLOAT64_STABLE,
) -> float | FactoredProduct:
    """Product of all factors via the guarded interleaving above.

    factors_small must lie in (0, 1], factors_large must be >= 1.  Empty
    input is the empty product, 1.0.  Returns a FactoredProduct when the
    tail of small factors pushes the running product under the underflow
    guard.
    """
    mode = NumericMode.coerce(mode)
    if mode.is_exact:
        raise ValueError("stable_term_product is the float64 backend; "
                         "rational mode evaluates terms exactly instead")
    for f in factors_small:
        if not 0 < f <= 1:
            raise ValueError(f"small factor out of (0, 1]: {f!r}")
    for f in factors_large:
        if f < 1:
            raise ValueError(f"large factor below 1: {f!r}")

    big = mode.overflow_guard
    if big is None:
        big = 4.0 * max(len(factors_small) + len(factors_large), 4)
    tiny = mode.underflow_guard

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
        if prod * small[si] < tiny:
            banked.append(prod)
            prod = 1.0
        prod *= small[si]
        si += 1

    if banked:
        banked.append(prod)
        return FactoredProduct(tuple(banked))
    return prod


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
    `exact.term_factors` lists: large factors a+1 .. a+l with a = (n+k)/2;
    small factors 1/2 .. 1/l, the ratio (n+k-2l)/(n+k+2l), a 1/2 when
    k > 0, p^((n-k)/2) and q^(k+l-1) (q^l when k = 0).  big[i] is its
    overflow guard M, and p >= 1/2 >= q.  Every lane makes the multiplies
    of `stable_term_product` in its order, and a numpy float64 product
    rounds as a Python one does, so a lane equals the kernel's result bit
    for bit where that is a float.  The kernel banks only when a tail
    product falls under the underflow guard, and tail products only
    shrink, so a lane that would bank ends under the guard: the caller
    re-runs every lane that does through `stable_term_product`.
    """
    n, k, l, big = (np.asarray(x, dtype=float) for x in (n, k, l, big))
    products = np.empty(n.size)
    # batch lanes of similar length, so few finish long before their batch
    length = 2 * l + np.maximum(l - 1, 0) + (n + k) / 2
    order = np.argsort(length, kind="stable")
    for start in range(0, order.size, LANE_BATCH):
        lanes = order[start:start + LANE_BATCH]
        products[lanes] = _replay_batch(n[lanes], k[lanes], l[lanes], p, q, big[lanes])
    return products


def _replay_batch(n, k, l, p, q, big) -> np.ndarray:
    """One batch of `replay_term_products`, lanes in lock step.

    The sorted small factors of a lane are generated, not stored: the
    harmonics 1/2 > 1/3 > ... > 1/l merged with at most four constant runs
    (the ratio, p, 1/2 and q), each entering once every harmonic above it
    is used.  A lane's runs sit in a row of a small table, largest value
    first, and the row ends with a sentinel run of factor 1.0 that enters
    after the last harmonic, so a finished lane stands still.
    """
    lanes = n.size  # n, k and l hold integers; n + k is even
    side = np.minimum(k, 1.0)  # the factor 1/2 comes with k > 0
    ratio = (n + k - 2 * l) / (n + k + 2 * l)
    fixed = ((p, (n - k) / 2), (0.5, side), (q, k + l - side))  # p >= 1/2 >= q
    slot = 3.0 - np.searchsorted([q, 0.5, p], ratio, side="right")  # constants above the ratio
    harmonics = np.maximum(l - 1, 0)
    above = -1.0 / np.arange(2, max(int(l.max()), 2) + 1)

    # a row per lane, by position i among its small factors: run g takes
    # positions start .. stop - 1, and before it position i holds the
    # harmonic 1/(i - shift), shift being the constants ahead of it less 2
    width = 5
    values = np.ones(lanes * width)
    total = np.zeros(lanes)  # constant factors so far
    start = np.repeat(harmonics, width)
    shift = np.full(lanes * width, -2.0)
    stop = np.full(lanes * width, np.inf)
    cell = np.arange(0, lanes * width, width)  # where each lane's next run goes
    for rank in range(4):
        # the run of this rank: the ratio at its slot, else a fixed constant
        before, after = fixed[min(rank, 2)], fixed[max(rank - 1, 0)]
        value = np.where(rank < slot, before[0], np.where(rank == slot, ratio, after[0]))
        count = np.where(rank < slot, before[1], np.where(rank == slot, 1, after[1]))
        # empty runs are left out; a run enters once the harmonics strictly
        # above its value are used
        kept = np.flatnonzero(count > 0)
        at = cell[kept]
        values[at] = value[kept]
        start[at] = np.minimum(np.searchsorted(above, -value[kept]), harmonics[kept]) + total[kept]
        shift[at] = total[kept] - 2
        stop[at] = start[at] + count[kept]
        cell[kept] += 1
        total += count
    # the sentinel: factor 1.0 after the last harmonic, so a finished lane
    # stands still
    at = cell
    start[at] = harmonics + total
    shift[at] = total - 2
    steps = int((l + harmonics + total).max())
    del side, ratio, slot, value, count, kept, at, cell, total  # keep the loop's set small

    run = np.arange(0, lanes * width, width)
    run_value, run_start, run_shift, run_stop = values[run], start[run], shift[run], stop[run]
    prod = np.ones(lanes)
    large = (n + k) / 2 + 1  # next large factor
    large_end = large + l
    absorbing = np.zeros(lanes, dtype=bool)
    i = np.zeros(lanes)  # small factors used
    for _ in range(steps):
        take_large = (large < large_end) & ~absorbing
        take_run = i >= run_start
        prod *= np.where(take_large, large, np.where(take_run, run_value, 1.0 / (i - run_shift)))
        # a large factor starts absorbing when prod > M, a small one keeps it
        # going while prod >= M (the kernel's absorb_small)
        absorbing = prod >= big
        on_guard = prod == big
        if on_guard.any():
            absorbing &= ~(on_guard & take_large)
        large += take_large
        i += ~take_large
        moved = np.flatnonzero(i >= run_stop)
        if moved.size:
            run[moved] += 1
            at = run[moved]
            run_value[moved], run_start[moved] = values[at], start[at]
            run_shift[moved], run_stop[moved] = shift[at], stop[at]
    return prod


TermValue = float | FactoredProduct


def sum_term_values(terms: Iterable[TermValue]) -> float:
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
