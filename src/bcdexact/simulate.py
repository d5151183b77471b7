"""Sequence generation, exhaustive enumeration and Monte Carlo estimation.

Single sequences come from a counter-based Philox stream so that replicate
r of seed s is reproducible on any machine: stream (s, r) is
`SeedSequence(s, spawn_key=(r,))`.  Monte Carlo runs split their
replicates into fixed-size batches, one stream per batch, walked one at a
time on the calling thread and merged in index order, so estimates are a
pure function of (seed, replicates, batch_size).  A walk reads the stream
as raw 64-bit words and tests each against integer limits that take the
same steps as comparing numpy's uniform double of that word with p, 1/2
and q (`_word_limit`).  A batch is walked and consumed one row chunk at a
time (`_walk_chunks`): each chunk's paths become one float64 value per
run, so a batch holds one chunk of paths and its vector of values.

`enumerate_exact` walks all 2^n assignment paths with their exact
probabilities (n capped at 16, which stays under a second) and is the
brute-force oracle the closed-form results are tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .bias import selection_bias_step
from .covariance import AssignmentCovariance, joint_assignment
from .design import DesignParams, Number
from .exact import pmf_at, var_dn
from .stable import FLOAT64_STABLE, NumericMode

__all__ = [
    "ENUMERATION_CAP",
    "McEstimate",
    "PathStatistic",
    "ScoreVector",
    "TreatmentSequence",
    "enumerate_exact",
    "generate_sequence",
    "mc_estimate",
    "parse_statistic",
    "rank_pvalue_mc",
    "rank_statistic",
    "rank_statistic_variance",
    "stat_balance",
    "stat_correct_guess",
    "stat_imbalance_sq",
    "stat_product",
]

ENUMERATION_CAP = 16
DEFAULT_BATCH_SIZE = 1 << 16
# A batch draws its 64-bit words in chunks of about this many bytes, but of
# at least MC_CHUNK_MIN_ROWS runs, so that each step's few numpy calls act
# on enough runs to amortize their fixed cost when n is large.
MC_CHUNK_BYTES = 1 << 22
MC_CHUNK_MIN_ROWS = 1024
# The most memory one batch may hold: one chunk of words, t and d, and a
# value per run.
MC_BATCH_BYTES = 1 << 29


@dataclass(frozen=True)
class TreatmentSequence:
    """One realized run of +/-1 assignments and its running imbalance."""

    assignments: np.ndarray
    params: DesignParams
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.assignments, dtype=np.int8)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignments must be a nonempty vector")
        if not np.all(np.abs(arr) == 1):
            raise ValueError("assignments must be +1 or -1")
        object.__setattr__(self, "assignments", arr)

    def __len__(self) -> int:
        return int(self.assignments.size)

    @property
    def imbalance_path(self) -> np.ndarray:
        return np.cumsum(self.assignments, dtype=np.int64)


def _stream(seed: int, index: int | None = None) -> np.random.Generator:
    key = (index,) if index is not None else ()
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def generate_sequence(n: int, params: DesignParams, seed: int) -> TreatmentSequence:
    """Simulate one biased-coin run of length n, deterministic in seed.

    It is the one run of a Monte Carlo batch walked on the stream (seed).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t, _ = _simulate_batch(n, float(params.p), _stream(seed), 1)
    return TreatmentSequence(assignments=t[0], params=params, seed=seed)


# ---------------------------------------------------------------------------
# path statistics


@dataclass(frozen=True)
class PathStatistic:
    """A functional of one assignment path (t_1..t_n, d_1..d_n).

    per_path sees a single path as index-able sequences and should return
    an int/Fraction when exact enumeration matters.  per_batch, when given,
    maps the (runs x n) assignment and imbalance matrices of a row chunk of
    a Monte Carlo batch to one value per run and keeps Monte Carlo
    vectorized.  It sees one chunk at a time, so each run's value must come
    from that run's own row alone; the four named statistics do.  The
    imbalance matrix it gets may be int16, so it widens before arithmetic
    that can leave that range (per_path gets int64 rows).  exact, when given,
    maps (n, params) to the statistic's expectation from the closed forms.
    """

    name: str
    per_path: Callable[[Sequence[int], Sequence[int]], Number]
    per_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    exact: Callable[[int, DesignParams], float] | None = None

    def batch_values(self, t: np.ndarray, d: np.ndarray) -> np.ndarray:
        if self.per_batch is not None:
            return np.asarray(self.per_batch(t, d), dtype=float)
        # a narrow d row would wrap in per_path's own arithmetic (d * d)
        return np.array(
            [float(self.per_path(t[i], d[i].astype(np.int64))) for i in range(t.shape[0])]
        )


def _coerce_statistic(statistic) -> PathStatistic:
    if isinstance(statistic, PathStatistic):
        return statistic
    if callable(statistic):
        return PathStatistic(name=getattr(statistic, "__name__", "statistic"),
                             per_path=statistic)
    raise TypeError(f"not a statistic: {statistic!r}")


def stat_balance() -> PathStatistic:
    """Indicator of perfect terminal balance, D_n == 0."""
    return PathStatistic(
        name="balance",
        per_path=lambda t, d: 1 if d[-1] == 0 else 0,
        per_batch=lambda t, d: (d[:, -1] == 0).astype(float),
        exact=lambda n, params: float(pmf_at(n, 0, params)),
    )


def stat_imbalance_sq() -> PathStatistic:
    """D_n squared; its mean is Var(D_n)."""
    return PathStatistic(
        name="variance",
        per_path=lambda t, d: d[-1] * d[-1],
        per_batch=lambda t, d: (d[:, -1].astype(float)) ** 2,
        exact=lambda n, params: float(var_dn(n, params)),
    )


def stat_product(i: int, j: int) -> PathStatistic:
    """T_i * T_j (1-indexed); its mean is the covariance entry sigma_ij."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return PathStatistic(
        name=f"cov({i},{j})",
        per_path=lambda t, d: t[i - 1] * t[j - 1],
        per_batch=lambda t, d: (t[:, i - 1] * t[:, j - 1]).astype(float),
        exact=lambda n, params: 4.0 * joint_assignment(i, j, params) - 1.0,
    )


def stat_correct_guess(j: int) -> PathStatistic:
    """Credit for guessing the lagging arm right before draw j.

    Ties (balanced groups) score 1/2 instead of tossing a guess coin: same
    expectation, less Monte Carlo variance, and exact enumeration stays
    rational.
    """
    if j < 1:
        raise ValueError(f"draw index must be >= 1, got {j}")

    def per_path(t, d):
        prev = d[j - 2] if j >= 2 else 0
        if prev == 0:
            return Fraction(1, 2)
        return 1 if (t[j - 1] > 0) == (prev < 0) else 0

    def per_batch(t, d):
        prev = d[:, j - 2] if j >= 2 else np.zeros(t.shape[0], dtype=np.int64)
        correct = (t[:, j - 1] > 0) == (prev < 0)
        return np.where(prev == 0, 0.5, correct.astype(float))

    return PathStatistic(
        name=f"guess@{j}",
        per_path=per_path,
        per_batch=per_batch,
        exact=lambda n, params: float(selection_bias_step(j, params)),
    )


_COV_RE = re.compile(r"^cov\((\d+),\s*(\d+)\)$")


def parse_statistic(text: str, n: int) -> PathStatistic:
    """Named statistics: balance, variance, selection-bias, cov(i,j)."""
    text = text.strip()
    if text == "balance":
        return stat_balance()
    if text == "variance":
        return stat_imbalance_sq()
    if text == "selection-bias":
        return stat_correct_guess(n)
    m = _COV_RE.match(text)
    if m:
        i, j = int(m.group(1)), int(m.group(2))
        if not 1 <= i < j <= n:
            raise ValueError(f"cov indices must satisfy 1 <= i < j <= {n}")
        return stat_product(i, j)
    raise ValueError(
        f"unknown statistic {text!r}; expected balance, variance, "
        "selection-bias or cov(i,j)"
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration (the 2^n oracle)


def enumerate_exact(
    n: int,
    params: DesignParams,
    statistic,
    mode: NumericMode | str = FLOAT64_STABLE,
) -> Number:
    """E[statistic] by summing all 2^n paths with their exact weights.

    Exponential on purpose; n is capped at ENUMERATION_CAP.  Rational mode
    refuses a float p and, with an int/Fraction-valued statistic, is exact;
    float mode rounds p and q each to float64.
    """
    mode = NumericMode.coerce(mode)
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration needs 1 <= n <= {ENUMERATION_CAP}, got {n}")
    stat = _coerce_statistic(statistic)
    if mode.is_exact:
        params = params.as_exact()  # refuses a float p
    cast = Fraction if mode.is_exact else float
    p, q, half = cast(params.p), cast(params.q), cast(Fraction(1, 2))
    total = cast(0)

    t_path = [0] * n
    d_path = [0] * n

    def walk(depth: int, d: int, weight):
        nonlocal total
        if depth == n:
            total += weight * stat.per_path(t_path, d_path)
            return
        up = half if d == 0 else (p if d < 0 else q)
        for t, w in ((1, up), (-1, 1 - up)):
            if not w:
                continue
            t_path[depth] = t
            d_path[depth] = d + t
            walk(depth + 1, d + t, weight * w)

    walk(0, 0, cast(1))
    return total


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass(frozen=True)
class McEstimate:
    """Sample mean, its standard error, and the replicate count behind it."""

    point: float
    std_error: float
    replicates: int


def _chunk_rows(n: int) -> int:
    """Runs of length n that `_walk_chunks` walks together, a multiple of 4.

    Each run reads only its own n words, so the chunk size moves no bit of
    t or d; the multiple of 4 keeps `rank_pvalue_mc`'s row blocks aligned.
    """
    return max(MC_CHUNK_BYTES // (8 * n) // 4 * 4, MC_CHUNK_MIN_ROWS)


def _imbalance_dtype(n: int) -> np.dtype:
    """The narrowest integer type of the walk's d that holds +-n."""
    return np.dtype(np.int16 if n < 32768 else np.int64)


def _word_limit(x: float) -> int:
    """The least raw Philox word whose uniform is not below x, 0 <= x <= 1.

    numpy's Philox `random()` turns a word w into u = (w >> 11) * 2**-53,
    so u < x exactly when w < ceil(x * 2**53) * 2**11 (x * 2**53 is exact).
    At x = 1 that is 2**64, one past the largest word.
    """
    return math.ceil(x * 2.0**53) << 11


def _walk_chunks(n: int, p: float, rng: np.random.Generator, size: int):
    """Yield (t, d) of `size` independent runs of length n, one row chunk at a time.

    Run r takes words r*n .. r*n + n - 1 of rng's raw words, and step j goes
    up iff its word's uniform lies below p, 1/2 or q as D_{j-1} < 0, = 0 or
    > 0; the word is tested against `_word_limit` of each, which is exact,
    so the steps are those of `rng.random`'s doubles.  Chunks hold
    `_chunk_rows(n)` runs (the last one fewer): consecutive draws continue
    one stream, so the chunks see the words of a single (size, n) draw.
    Each chunk is turned step-major once, so every step reads and writes
    contiguous vectors of runs.

    t is a C-ordered (rows, n) int8 matrix and d the (rows, n) transpose of
    a step-major matrix, int16 (int64 from n = 32768 on).  Both are views of
    two buffers allocated once and overwritten by the next chunk, so a
    caller reads each chunk before it asks for the next.
    """
    # p's limit is 2**64 at p = 1, past uint64, so its test is w <= limit - 1
    p_top = np.uint64(_word_limit(p) - 1)
    half_lim, q_lim = np.uint64(_word_limit(0.5)), np.uint64(_word_limit(1.0 - p))
    rows = min(_chunk_rows(n), size)
    t = np.empty((rows, n), dtype=np.int8)
    d = np.empty((n, rows), dtype=_imbalance_dtype(n))
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        w = rng.bit_generator.random_raw((m, n)).T
        # code = 2 * #{u < p, u < 1/2, u < q} - 3 is odd, and as q <= 1/2 <= p
        # the step goes up iff code > 2 sign(D_{j-1})
        code = (w <= p_top).view(np.int8) + (w < half_lim).view(np.int8)
        code += (w < q_lim).view(np.int8)
        del w  # the chunk's words go before its steps are copied
        steps = np.ascontiguousarray(code)
        steps += steps
        steps -= 3
        sign = np.zeros(m, dtype=np.int8)
        prev = np.zeros(m, dtype=d.dtype)
        for j in range(n):
            step = steps[j]
            step -= sign
            step -= sign
            np.sign(step, out=step)
            prev = np.add(prev, step, out=d[j, :m])
            np.sign(prev, out=sign, casting="unsafe")
        t[:m] = steps.T
        yield t[:m], d[:, :m].T


def _simulate_batch(
    n: int, p: float, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (t, d) of `size` runs of length n, assembled from `_walk_chunks`.

    t comes back as a C-ordered (size, n) int8 matrix.  d is the (size, n)
    transpose of a step-major matrix, int16 (int64 from n = 32768 on).
    """
    t = np.empty((size, n), dtype=np.int8)
    d = np.empty((n, size), dtype=_imbalance_dtype(n))
    lo = 0
    for t_chunk, d_chunk in _walk_chunks(n, p, rng, size):
        hi = lo + t_chunk.shape[0]
        t[lo:hi] = t_chunk
        d[:, lo:hi] = d_chunk.T
        lo = hi
    return t, d.T


def _batch_sizes(replicates: int, batch_size: int) -> list[int]:
    """Replicates dealt into batches of batch_size, the last one partial.

    Batch b draws the stream (seed, b), so the split fixes every result.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    full, rest = divmod(replicates, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def _over_batches(n, params, seed, sizes, chunk_values):
    """The per-run values of each batch, batch b walked on stream (seed, b).

    chunk_values(t, d) gives one float per run of a row chunk of the walk
    (`_walk_chunks`), computed from that run's own row, and the chunks fill
    one float64 vector per batch.  The batches are walked one at a time on
    the calling thread, each as its vector is asked for, so a run holds one
    batch at a time.  A batch that would hold more than MC_BATCH_BYTES is
    refused here, before any is walked: it holds one chunk of raw words
    (8 B a cell), the chunk's t and d (1 B and the imbalance type's width a
    cell) and its per-run values (8 B a run).
    """
    size = max(sizes, default=0)
    cells = min(size, _chunk_rows(n)) * n
    need = cells * (9 + _imbalance_dtype(n).itemsize) + 8 * size
    if need > MC_BATCH_BYTES:
        raise ValueError(f"a batch of {size} runs of n = {n} needs {need} bytes, over "
                         f"the {MC_BATCH_BYTES} a batch may hold; use a smaller --batch-size")
    p = float(params.p)

    def walk(b: int, runs: int) -> np.ndarray:
        values = np.empty(runs)
        lo = 0
        for t, d in _walk_chunks(n, p, _stream(seed, b), runs):
            hi = lo + t.shape[0]
            values[lo:hi] = chunk_values(t, d)
            lo = hi
        return values

    return (walk(b, runs) for b, runs in enumerate(sizes))


def mc_estimate(
    n: int,
    params: DesignParams,
    statistic,
    replicates: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> McEstimate:
    """Monte Carlo mean of a path statistic with its standard error.

    Replicates are dealt into batches of batch_size; batch b uses the
    independent stream (seed, b), so the estimate is a pure function of
    (seed, replicates, batch_size).  std_error is s / sqrt(replicates)
    with s the sample standard deviation.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if replicates < 2:
        raise ValueError("need at least 2 replicates")
    sizes = _batch_sizes(replicates, batch_size)
    stat = _coerce_statistic(statistic)

    partials = [(float(values.sum()), float((values * values).sum()))
                for values in _over_batches(n, params, seed, sizes, stat.batch_values)]
    total = math.fsum(s for s, _ in partials)
    total_sq = math.fsum(s2 for _, s2 in partials)
    mean = total / replicates
    var = max(total_sq - replicates * mean * mean, 0.0) / (replicates - 1)
    return McEstimate(
        point=mean,
        std_error=math.sqrt(var / replicates),
        replicates=replicates,
    )


# ---------------------------------------------------------------------------
# linear rank statistics


@dataclass(frozen=True)
class ScoreVector:
    """Score coefficients a_1..a_n for the linear statistic W = a'T.

    centered means the scores were built to sum to zero, which the
    constructor enforces to one part in 1e10; rank-based scores are
    centered by construction via `centered_ranks`.
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scores must be a nonempty vector")
        if self.centered and abs(float(arr.sum())) > 1e-10:
            raise ValueError(
                f"centered scores must sum to 0, got {float(arr.sum())!r}"
            )
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def as_array(self) -> np.ndarray:
        return self.values

    @classmethod
    def from_values(cls, values, center: bool = False) -> "ScoreVector":
        arr = np.asarray(values, dtype=float)
        if center:
            arr = arr - arr.mean()
        return cls(values=arr, centered=center)

    @classmethod
    def centered_ranks(cls, outcomes) -> "ScoreVector":
        """Midranks of the outcomes (ties averaged), centered to sum 0."""
        arr = np.asarray(outcomes, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("outcomes must be a nonempty vector")
        _, inverse, counts = np.unique(arr, return_inverse=True, return_counts=True)
        upper = np.cumsum(counts)
        mid = upper - (counts - 1) / 2.0  # average rank within each tie group
        ranks = mid[inverse]
        return cls(values=ranks - (arr.size + 1) / 2.0, centered=True)


def _scores_array(scores) -> np.ndarray:
    if isinstance(scores, ScoreVector):
        return scores.as_array()
    return np.asarray(scores, dtype=float)


def rank_statistic(scores, assignments) -> float:
    """W = a'T for one realized assignment sequence."""
    a = _scores_array(scores)
    t = assignments.assignments if isinstance(assignments, TreatmentSequence) else assignments
    t = np.asarray(t, dtype=float)
    if a.shape != t.shape:
        raise ValueError(f"scores and assignments disagree: {a.shape} vs {t.shape}")
    return float(a @ t)


def rank_statistic_variance(scores, cov: AssignmentCovariance) -> float:
    """Var(W) = a' Sigma a under the design's covariance."""
    a = _scores_array(scores)
    if a.size != cov.n:
        raise ValueError(f"scores length {a.size} does not match n = {cov.n}")
    return cov.quadratic_form(a)


def rank_pvalue_mc(
    scores,
    observed: float,
    params: DesignParams,
    replicates: int,
    seed: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> float:
    """Two-sided Monte Carlo p-value for W with the add-one correction."""
    a = _scores_array(scores)
    if replicates < 1:
        raise ValueError("need at least 1 replicate")

    # w of up to 2**17 cells at a time, in blocks of a multiple of 4 rows:
    # OpenBLAS (0.3.31, Haswell kernel) gives each row the bits of the
    # whole-batch product when its block starts at a multiple of 4, and runs
    # a block this small on the calling thread
    block = max((1 << 17) // a.size // 4 * 4, 4)

    def w(t, _d) -> np.ndarray:
        return np.concatenate([t[lo:lo + block].astype(float) @ a
                               for lo in range(0, t.shape[0], block)])

    sizes = _batch_sizes(replicates, batch_size)
    hits = sum(int(np.count_nonzero(np.abs(values) >= abs(observed) - 1e-12))
               for values in _over_batches(a.size, params, seed, sizes, w))
    return (hits + 1) / (replicates + 1)
