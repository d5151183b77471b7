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
time (`_walk_chunks`), which stops at the last step its statistic reads:
each chunk's words are drawn in cache-sized blocks and turned straight
into int8 step codes, rewritten in place as its steps t, so a batch holds
one chunk of t and d and its vector of values, one float64 per run.

A statistic is written once, as `PathStatistic.per_batch`.
`enumerate_exact` scores all 2^n assignment paths with it and sums them
with their exact probabilities (n capped at 16, under a second); it is
the brute-force oracle the closed-form results are tested against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
# A batch is walked in row chunks of as many runs as hold about this many
# bytes of 64-bit words, but of at least MC_CHUNK_MIN_ROWS runs, so that
# each step's few numpy calls act on enough runs to amortize their fixed
# cost when n is large.  The chunk's words themselves are never held.
MC_CHUNK_BYTES = 1 << 22
MC_CHUNK_MIN_ROWS = 1024
# A chunk's words are drawn and classified in blocks of about this many
# bytes (at least one run), small enough to stay in a 2 MiB L2 cache.
MC_WORD_BLOCK_BYTES = 1 << 18
# The most memory one batch may hold, as `_over_batches` counts it: an
# upper bound that charges a whole chunk of words, its step codes and a
# compare, t and d, and two vectors of values per run.
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
    """One biased-coin run of length n: a Monte Carlo batch of one on stream (seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    (t, _), = _walk_chunks(n, float(params.p), _stream(seed), 1)
    return TreatmentSequence(assignments=t[0].copy(), params=params, seed=seed)


# ---------------------------------------------------------------------------
# path statistics


@dataclass(frozen=True)
class PathStatistic:
    """A functional of one assignment path (t_1..t_n, d_1..d_n).

    per_batch maps the (runs x steps) assignment and imbalance matrices of
    a Monte Carlo row chunk, or of every path in `enumerate_exact`, to one
    dyadic float per run from that run's own row; the oracle reads each
    exactly.  d may be int8 or int16, so per_batch widens before arithmetic
    that can leave that range.  t and d may be transposed views, so a
    per_batch that hands t to BLAS makes its own C-ordered copy.  last_step,
    when given, is the last step it reads (its matrices may end there);
    exact maps (n, params) to the expectation.
    """

    name: str
    per_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    exact: Callable[[int, DesignParams], float] | None = None
    last_step: int | None = None


def _coerce_statistic(statistic) -> PathStatistic:
    if isinstance(statistic, PathStatistic):
        return statistic
    raise TypeError(f"not a statistic: {statistic!r}")


def stat_balance() -> PathStatistic:
    """Indicator of perfect terminal balance, D_n == 0."""
    return PathStatistic(
        name="balance",
        per_batch=lambda t, d: (d[:, -1] == 0).astype(float),
        exact=lambda n, params: float(pmf_at(n, 0, params)),
    )


def stat_imbalance_sq() -> PathStatistic:
    """D_n squared; its mean is Var(D_n)."""
    return PathStatistic(
        name="variance",
        per_batch=lambda t, d: (d[:, -1].astype(float)) ** 2,
        exact=lambda n, params: float(var_dn(n, params)),
    )


def stat_product(i: int, j: int) -> PathStatistic:
    """T_i * T_j (1-indexed); its mean is the covariance entry sigma_ij."""
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return PathStatistic(
        name=f"cov({i},{j})",
        per_batch=lambda t, d: (t[:, i - 1] * t[:, j - 1]).astype(float),
        exact=lambda n, params: 4.0 * joint_assignment(i, j, params) - 1.0,
        last_step=j,
    )


def stat_correct_guess(j: int) -> PathStatistic:
    """Credit for guessing the lagging arm right before draw j.

    Ties (balanced groups) score 1/2 instead of tossing a guess coin: same
    expectation, less Monte Carlo variance, and exact enumeration stays
    rational.
    """
    if j < 1:
        raise ValueError(f"draw index must be >= 1, got {j}")

    def per_batch(t, d):
        prev = d[:, j - 2] if j >= 2 else np.zeros(t.shape[0], dtype=np.int64)
        correct = (t[:, j - 1] > 0) == (prev < 0)
        return np.where(prev == 0, 0.5, correct.astype(float))

    return PathStatistic(
        name=f"guess@{j}",
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
    statistic: PathStatistic,
    mode: NumericMode | str = FLOAT64_STABLE,
) -> Number:
    """E[statistic] by summing all 2^n paths with their exact weights.

    Exponential on purpose; n is capped at ENUMERATION_CAP.  Rational mode
    refuses a float p and is exact; float mode rounds p and q each to
    float64.  Paths grow one step at a time, +1 first, so they come in
    depth-first order, and a path of weight zero (at p = 1) is dropped.
    per_batch scores them all at once; weight * value is summed in order.
    """
    mode = NumericMode.coerce(mode)
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration needs 1 <= n <= {ENUMERATION_CAP}, got {n}")
    stat = _coerce_statistic(statistic)
    if mode.is_exact:
        params = params.as_exact()  # refuses a float p
    cast = Fraction if mode.is_exact else float
    # (up, down) step probabilities at sign(D) + 1: p below zero, 1/2 at it, q above
    moves = [(up, 1 - up) for up in map(cast, (params.p, Fraction(1, 2), params.q))]

    t = np.zeros((1, 0), dtype=np.int8)
    weights = [cast(1)]
    for _ in range(n):
        signs = np.sign(t.sum(axis=1)) + 1
        children = [w * s for w, k in zip(weights, signs.tolist()) for s in moves[k]]
        live = np.array([bool(w) for w in children])
        step = np.tile(np.array([1, -1], dtype=np.int8), len(weights))
        t = np.column_stack((np.repeat(t, 2, axis=0), step))[live]
        weights = [w for w in children if w]

    values = stat.per_batch(t, np.cumsum(t, axis=1))
    total = cast(0)
    for w, v in zip(weights, values.tolist()):
        total += w * cast(v)
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
    """The narrowest integer type of the walk's d that holds +-n: |D| <= n."""
    return np.dtype(np.int8 if n < 128 else np.int16 if n < 32768 else np.int64)


def _word_limit(x: float) -> int:
    """The least raw Philox word whose uniform is not below x, 0 <= x <= 1.

    numpy's Philox `random()` turns a word w into u = (w >> 11) * 2**-53,
    so u < x exactly when w < ceil(x * 2**53) * 2**11 (x * 2**53 is exact).
    At x = 1 that is 2**64, one past the largest word.
    """
    return math.ceil(x * 2.0**53) << 11


def _walk_chunks(n: int, p: float, rng: np.random.Generator, size: int,
                 steps: int | None = None):
    """Yield (t, d) of `size` independent runs of length n, one row chunk at a time.

    Run r takes words r*n .. r*n + n - 1 of rng's raw words, and step j goes
    up iff its word's uniform lies below p, 1/2 or q as D_{j-1} < 0, = 0 or
    > 0; the word is tested against `_word_limit` of each, which is exact,
    so the steps are those of `rng.random`'s doubles.  Only the first
    `steps` steps (default n) are walked, but each run draws its n words.
    Chunks hold `_chunk_rows(n)` runs (the last one fewer).  A chunk's
    words are drawn in blocks of about MC_WORD_BLOCK_BYTES and each block's
    compares are written step-major into the chunk's int8 step codes, so
    only one block of words is held; consecutive draws continue one
    stream, so the blocks see the words of a single (size, n) draw.  Every
    step then reads and writes contiguous vectors of runs.

    t and d are (rows, steps) transposes of the step-major steps, written
    over the codes, and imbalances, `_imbalance_dtype(n)`.  Both are views
    of buffers allocated once per batch and overwritten by the next chunk,
    so a caller reads each chunk before it asks for the next.
    """
    steps = n if steps is None else steps
    # p's limit is 2**64 at p = 1, past uint64, so its test is w <= limit - 1
    p_top = np.uint64(_word_limit(p) - 1)
    half_lim, q_lim = np.uint64(_word_limit(0.5)), np.uint64(_word_limit(1.0 - p))
    rows = min(_chunk_rows(n), size)
    block = min(max(MC_WORD_BLOCK_BYTES // (8 * n), 1), rows)
    codes = np.empty((steps, rows), dtype=np.int8)
    d = np.empty((steps, rows), dtype=_imbalance_dtype(n))
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        for a in range(0, m, block):
            b = min(a + block, m)
            w = rng.bit_generator.random_raw((b - a, n))[:, :steps]
            # code = 2 * #{u < p, u < 1/2, u < q} - 3 is odd, and as q <= 1/2 <= p
            # the step goes up iff code > 2 sign(D_{j-1})
            code = (w <= p_top).view(np.int8)
            code += w < half_lim
            code += w < q_lim
            code += code
            code -= 3
            codes[:, a:b] = code.T
        sign = np.zeros(m, dtype=np.int8)
        prev = np.zeros(m, dtype=d.dtype)
        for j, step in enumerate(codes[:, :m]):
            step -= sign
            step -= sign
            np.sign(step, out=step)
            prev = np.add(prev, step, out=d[j, :m])
            np.sign(prev, out=sign, casting="unsafe")
        yield codes[:, :m].T, d[:, :m].T


def _batch_sizes(replicates: int, batch_size: int) -> list[int]:
    """Replicates dealt into batches of batch_size, the last one partial.

    Batch b draws the stream (seed, b), so the split fixes every result.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    full, rest = divmod(replicates, batch_size)
    return [batch_size] * full + ([rest] if rest else [])


def _over_batches(n, params, seed, sizes, chunk_values, steps=None):
    """The per-run values of each batch, batch b walked on stream (seed, b).

    chunk_values(t, d) gives one float per run of a row chunk of the walk
    (`_walk_chunks` to step `steps`), computed from that run's own row, and
    the chunks fill one float64 vector per batch.  The batches are walked
    one at a time on the calling thread, each as its vector is asked for.
    A batch over MC_BATCH_BYTES is refused before any is walked.  The
    count is an upper bound on the walk's peak: it charges a chunk 8 B a
    cell for raw words, 1 B each for step codes and a compare, 1 B for t
    and d's width (at least 2 B), and each run 16 B of values.  The walk
    holds only a block of words, the chunk's steps (t) and d, 2 B a cell
    below n = 128, 3 B up to 32,767 and 9 B from there, and this batch's
    values (8 B a run), since callers consume each vector before they ask
    for the next; the count is kept as it was, so it refuses exactly what
    it refused.
    """
    size = max(sizes, default=0)
    cells = min(size, _chunk_rows(n)) * n
    need = cells * (11 + max(_imbalance_dtype(n).itemsize, 2)) + 16 * size
    if need > MC_BATCH_BYTES:
        raise ValueError(f"a batch of {size} runs of n = {n} needs {need} bytes, over "
                         f"the {MC_BATCH_BYTES} a batch may hold; use a smaller --batch-size")
    p = float(params.p)

    def walk(b: int, runs: int) -> np.ndarray:
        values = np.empty(runs)
        lo = 0
        for t, d in _walk_chunks(n, p, _stream(seed, b), runs, steps):
            hi = lo + t.shape[0]
            values[lo:hi] = chunk_values(t, d)
            lo = hi
        return values

    return (walk(b, runs) for b, runs in enumerate(sizes))


def _sums(values: np.ndarray) -> tuple[float, float]:
    return float(values.sum()), float((values * values).sum())


def mc_estimate(
    n: int,
    params: DesignParams,
    statistic: PathStatistic,
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
    batches = _over_batches(n, params, seed, sizes, stat.per_batch, stat.last_step)
    # map drops each batch's values before it asks for the next batch
    partials = list(map(_sums, batches))
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

    # w of up to 2**15 cells at a time, in C-ordered blocks of a multiple of
    # 4 rows: OpenBLAS (0.3.31, Haswell kernel) gives each row the bits of
    # the whole-batch product when its block starts at a multiple of 4, and
    # runs a block this small on the calling thread
    block = max((1 << 15) // a.size // 4 * 4, 4)

    def w(t, _d) -> np.ndarray:
        return np.concatenate([t[lo:lo + block].astype(float, order="C") @ a
                               for lo in range(0, t.shape[0], block)])

    def hits(values) -> int:
        return int(np.count_nonzero(np.abs(values) >= abs(observed) - 1e-12))

    sizes = _batch_sizes(replicates, batch_size)
    # map drops each batch's values before it asks for the next batch
    total = sum(map(hits, _over_batches(a.size, params, seed, sizes, w)))
    return (total + 1) / (replicates + 1)
