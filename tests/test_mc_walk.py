"""The chunked, step-major Monte Carlo walk against the lock-step one.

`lockstep_batch` below is the batch walk as it was before it went chunked:
one (size, n) draw, then every step reads a strided column.  The chunked
walk (`_walk_chunks`, stacked whole by `walked`) must draw the same
uniforms and take the same steps, so every comparison here is `==`, on the
paths and on what is computed from them.  `lockstep_chunks` hands the
lock-step batch out in the walk's row chunks, always all n steps wide, so
the estimates and p-values, which consume the walk chunk by chunk and may
stop it early, can be computed from it too.
`stepwise_sequence` is the one-run walk that `generate_sequence` ran on its
own before it became a batch of one, and checks it the same way.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bcdexact.simulate
from bcdexact.cli import FLOAT_SIGMA_N_CAP, SIMULATE_N_CAPS, main
from bcdexact.design import DesignParams
from bcdexact.simulate import (
    DEFAULT_BATCH_SIZE,
    MC_WORD_BLOCK_BYTES,
    PathStatistic,
    _chunk_rows,
    _imbalance_dtype,
    _over_batches,
    _stream,
    _walk_chunks,
    generate_sequence,
    mc_estimate,
    parse_statistic,
    rank_pvalue_mc,
    stat_balance,
    stat_correct_guess,
    stat_imbalance_sq,
    stat_product,
)


def lockstep_batch(n, p, rng, size):
    """Vectorized lockstep simulation of `size` independent runs."""
    q = 1.0 - p
    u = rng.random((size, n))
    t = np.empty((size, n), dtype=np.int8)
    d_mat = np.empty((size, n), dtype=np.int64)
    d = np.zeros(size, dtype=np.int64)
    for j in range(n):
        up = np.where(d == 0, 0.5, np.where(d < 0, p, q))
        col = np.where(u[:, j] < up, 1, -1).astype(np.int8)
        t[:, j] = col
        d += col
        d_mat[:, j] = d
    return t, d_mat


def lockstep_chunks(n, p, rng, size, steps=None):
    """The lock-step batch of all n steps in the row chunks of `_walk_chunks`."""
    t, d = lockstep_batch(n, p, rng, size)
    rows = _chunk_rows(n)
    for lo in range(0, size, rows):
        yield t[lo:lo + rows], d[lo:lo + rows]


def walked(n, p, rng, size, steps=None):
    """The (size, steps) t and d of `_walk_chunks`, its chunks stacked."""
    chunks = []
    for t, d in _walk_chunks(n, p, rng, size, steps):
        # t is the transpose of the step-major steps
        assert t.dtype == np.int8 and t.strides[0] == 1
        assert t.shape == d.shape == (t.shape[0], n if steps is None else steps)
        chunks.append((t.copy(), d.copy()))
    return np.concatenate([t for t, _ in chunks]), np.concatenate([d for _, d in chunks])


def stepwise_sequence(n, p, seed):
    """One run of n steps, one uniform of the stream (seed) per step."""
    q = 1.0 - p
    u = _stream(seed).random(n)
    out = np.empty(n, dtype=np.int8)
    d = 0
    for j in range(n):
        up = 0.5 if d == 0 else (p if d < 0 else q)
        t = 1 if u[j] < up else -1
        out[j] = t
        d += t
    return out


PS = [0.5, 0.55, 0.713, 0.95, 1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 24, 32, 300, 2000])
def test_generate_sequence_equals_the_stepwise_walk(n):
    for p in [0.5, 0.55, 0.7, 0.713, 0.95, 1.0]:
        for seed in range(20):
            got = generate_sequence(n, DesignParams(p), seed).assignments
            assert got.dtype == np.int8
            assert np.array_equal(got, stepwise_sequence(n, p, seed)), (n, p, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 40, 80, 127, 128, 300, 301])
def test_chunked_walk_equals_the_lockstep_walk(n):
    # a batch one run short of a word block is drawn in one block, one run
    # past it ends a block inside its chunk, and one run past a chunk ends
    # its last chunk inside a block; each is also walked stopped early
    rows, block = _chunk_rows(n), MC_WORD_BLOCK_BYTES // (8 * n)
    sizes = sorted({1, 7, block - 1, block + 1, rows - 1, rows, rows + 1, 1 << 16})
    for p in PS:
        # a run reads only its own n uniforms, so the first `size` runs of
        # one large lock-step batch are the lock-step batch of that size
        want_t, want_d = lockstep_batch(n, p, _stream(n, 3), sizes[-1])
        for size in sizes:
            for steps in sorted({n, max(2 * n // 3, 1)}):
                t, d = walked(n, p, _stream(n, 3), size, steps)
                assert t.shape == d.shape == (size, steps)
                assert np.array_equal(t, want_t[:size, :steps]), (n, p, size, steps)
                assert np.array_equal(d, want_d[:size, :steps]), (n, p, size, steps)


def test_a_small_lockstep_batch_is_a_prefix_of_a_large_one():
    small = lockstep_batch(40, 0.7, _stream(1, 0), 100)
    large = lockstep_batch(40, 0.7, _stream(1, 0), 1000)
    assert all(np.array_equal(a, b[:100]) for a, b in zip(small, large))


@pytest.mark.parametrize("n,steps", [(40, 1), (40, 17), (301, 2), (301, 150), (2000, 1999)])
def test_a_walk_stopped_early_takes_the_first_steps_of_the_whole_walk(n, steps):
    # each run still draws its n words, so the next run's words stay its own
    rows = _chunk_rows(n)
    for p in PS:
        for size in (7, rows + 3):
            t, d = walked(n, p, _stream(n, 5), size, steps)
            want_t, want_d = walked(n, p, _stream(n, 5), size)
            assert np.array_equal(t, want_t[:, :steps]), (n, p, size)
            assert np.array_equal(d, want_d[:, :steps]), (n, p, size)


def test_imbalance_is_narrow_until_n_reaches_32768():
    # |D| <= n, so int8 holds it below n = 128 and int16 below 32768
    for n, dtype in [(127, np.int8), (128, np.int16), (300, np.int16)]:
        assert walked(n, 0.7, _stream(0), 5)[1].dtype == dtype, n
    t, d = walked(32768, 0.7, _stream(0), 2)
    assert d.dtype == np.int64
    assert np.array_equal(d, np.cumsum(t, axis=1))


@pytest.mark.parametrize("n,p,size", [(24, 0.55, 3000), (32, 0.9, 1 << 16), (300, 0.713, 4000)])
def test_rank_statistic_bits_are_unchanged(n, p, size):
    # gemv results depend on the matrix layout and row count, so this takes
    # the product of one C-ordered (size, n) t per batch
    a = np.random.default_rng(n).normal(size=n)
    want, _ = lockstep_batch(n, p, _stream(8, 0), size)
    got, _ = walked(n, p, _stream(8, 0), size)
    assert np.array_equal(got.astype(float) @ a, want.astype(float) @ a)


def test_rank_pvalue_is_unchanged(monkeypatch):
    a = np.random.default_rng(5).normal(size=30)
    args = (a, 1.5, DesignParams(0.62), 20_000, 3)
    chunked = rank_pvalue_mc(*args, batch_size=7000)
    monkeypatch.setattr(bcdexact.simulate, "_walk_chunks", lockstep_chunks)
    assert rank_pvalue_mc(*args, batch_size=7000) == chunked


def test_chunks_hold_a_multiple_of_4_runs():
    # so every row block of the rank product starts at a multiple of 4
    top = max(*SIMULATE_N_CAPS.values(), FLOAT_SIGMA_N_CAP, 40_000)
    assert [n for n in range(1, top + 1) if _chunk_rows(n) % 4] == []


@pytest.mark.parametrize("n", [29, 101, 256])
def test_rank_blocks_give_the_whole_batch_product(monkeypatch, n):
    # the last batch holds 34,465 runs, not a multiple of 4
    a = np.random.default_rng(n).normal(size=n)
    observed, reps, seed = 0.8 * np.sqrt(n), 100_001, 6
    seen = []  # w of each batch, as rank_pvalue_mc computed it
    over_batches = bcdexact.simulate._over_batches

    def recording(*args):
        for values in over_batches(*args):
            seen.append(values.copy())
            yield values

    monkeypatch.setattr(bcdexact.simulate, "_over_batches", recording)
    pvalue = rank_pvalue_mc(a, observed, DesignParams(0.7), reps, seed)
    sizes = [DEFAULT_BATCH_SIZE, reps - DEFAULT_BATCH_SIZE]
    assert [w.size for w in seen] == sizes and sizes[1] % 4 == 1
    hits = 0
    for b, (size, w) in enumerate(zip(sizes, seen)):
        t, _ = walked(n, 0.7, _stream(seed, b), size)
        whole = t.astype(float) @ a
        assert np.array_equal(w, whole), (n, b)
        hits += int(np.count_nonzero(np.abs(whole) >= observed - 1e-12))
    assert 0 < hits < reps
    assert pvalue == (hits + 1) / (reps + 1)


# a statistic of the whole path that none of the named ones computes
SQUARE_PLUS_FIRST = PathStatistic(
    name="square+first", per_batch=lambda t, d: d[:, -1].astype(float) ** 2 + t[:, 0])


@pytest.mark.parametrize("text", ["balance", "variance", "selection-bias", "cov(3,17)", None])
@pytest.mark.parametrize("n,batch", [(40, 5000), (301, 3000)])
def test_seeded_estimates_are_unchanged(monkeypatch, text, n, batch):
    # cov(3,17) stops the walk at step 17; the lock-step chunks walk all n
    stat = SQUARE_PLUS_FIRST if text is None else parse_statistic(text, n)
    run = dict(n=n, params=DesignParams(0.58), statistic=stat, replicates=12_000,
               seed=99, batch_size=batch)
    chunked = mc_estimate(**run)
    monkeypatch.setattr(bcdexact.simulate, "_walk_chunks", lockstep_chunks)
    assert mc_estimate(**run) == chunked


def test_the_named_statistics_widen_a_narrow_imbalance():
    # all steps up: D reaches n, whose square wraps in int8 at 127 (past 11)
    # and in int16 at 300 (past 181)
    for n, dtype in [(127, np.int8), (300, np.int16)]:
        t = np.ones((2, n), dtype=np.int8)
        d = np.cumsum(t, axis=1, dtype=dtype).T.copy().T
        for stat, want in [(stat_imbalance_sq(), float(n * n)), (stat_balance(), 0.0),
                           (stat_correct_guess(n), 0.0), (stat_product(1, n), 1.0)]:
            values = stat.per_batch(t, d)
            assert values.dtype == np.float64 and values.tolist() == [want, want], \
                (n, stat.name)


# Runs argv and prints its wall time and peak RSS.  A child's peak RSS
# counts the memory of the process it was forked from, so the command is
# started from this small launcher rather than from the test process.
LAUNCHER = """
import resource, subprocess, sys, time
start = time.perf_counter()
done = subprocess.run(sys.argv[1:], capture_output=True)
wall = time.perf_counter() - start
sys.stderr.buffer.write(done.stderr)
sys.stdout.buffer.write(done.stdout)
print(done.returncode, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def run_measured(*args):
    """Stdout lines, wall time and peak RSS in KiB of `bcdexact.cli *args`
    run as a child process, which must exit 0."""
    src = Path(bcdexact.simulate.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "bcdexact.cli", *args]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    *out, last = done.stdout.splitlines()
    code, wall, maxrss_kb = last.split()
    assert done.returncode == 0 and code == "0", done.stderr
    return out, float(wall), int(maxrss_kb)


def test_simulate_at_n_1000_stays_within_its_time_and_memory_bound():
    # measured 1.28 to 1.34 s and 40.9 MB over 3 runs, each chunk's words
    # drawn in blocks (2-vCPU VM), where drawing them whole took 1.33 to
    # 1.40 s and 49.6 to 49.8 MB on the same VM.  Earlier, on another
    # 2-vCPU Xeon VM: 1.8 to 2.5 s and 52.6 MB with batches consumed chunk
    # by chunk, 2.2 to 2.5 s and 236.5 MB holding each batch's t and d
    # whole, and 4.6 to 4.8 s and 1.66 GB for the lock-step walk.  The
    # bounds were set at 2x the slowest time and 2.5x the peak of the
    # chunk-by-chunk walk.
    out, wall, maxrss_kb = run_measured("simulate", "--n", "1000", "--p", "0.7", "--statistic",
                                        "balance", "--reps", "100000", "--seed", "1")
    assert out[:2] == ["label,value", "estimate,0.5726"]
    assert maxrss_kb < 132 * 1024, maxrss_kb
    assert wall < 5.0, wall


def test_threads_leave_the_peak_of_a_simulate_run_as_it_was():
    # two worker threads each kept a batch in their own malloc arena:
    # 80.8 to 81.4 MB against 58.6 MB on one thread (2-vCPU Xeon VM)
    argv = ["simulate", "--n", "80", "--p", "0.7", "--statistic", "balance",
            "--reps", "200000", "--seed", "1"]
    out, _, serial_kb = run_measured(*argv)
    threaded_out, _, threaded_kb = run_measured(*argv, "--threads", "2")
    assert threaded_out == out
    assert abs(threaded_kb - serial_kb) <= 2 * 1024, (serial_kb, threaded_kb)


def refuse_to_walk(*args):
    raise AssertionError("a batch over the memory bound was walked")


def test_a_batch_over_the_memory_bound_exits_2_before_it_is_walked(capsys, monkeypatch):
    # its one chunk of 2 runs: words, step codes, a compare, t and d (int64
    # here) at 19 B a cell and 16 B a run, 3.8 GB
    monkeypatch.setattr(bcdexact.simulate, "_walk_chunks", refuse_to_walk)
    # cov(i,j) has no n cap, so the batch bound is what refuses it
    code = main(["simulate", "--n", "100000000", "--p", "0.7", "--statistic", "cov(1,2)",
                 "--reps", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "needs 3800000032 bytes" in err and "--batch-size" in err


# (n, runs in the batch, fits): with one chunk of words, step codes, a
# compare, t and d counted, the default batch fits up to n = 32767, where d
# turns int64; each run's 16 B of values (this batch's and the last's)
# count too.  (32768, 963) and (6316127, 5) fit while the codes, the
# compare and the last batch's values went uncounted.
@pytest.mark.parametrize("n,size,fits", [
    (1000, 65536, True), (2621, 65536, True), (2622, 65536, True), (32767, 65536, True),
    (32768, 65536, False), (32767, 2730, True), (32767, 2731, True), (32767, 6292288, True),
    (32767, 6292289, False), (32768, 862, True), (32768, 863, False), (32768, 963, False),
    (32768, 964, False), (5651271, 5, True), (5651272, 5, False), (6316127, 5, False),
    (6316128, 5, False),
])
def test_the_batch_bound_counts_t_d_and_a_chunk_of_uniforms(monkeypatch, n, size, fits):
    walks = []
    monkeypatch.setattr(bcdexact.simulate, "_walk_chunks",
                        lambda n, p, rng, size, steps: walks.append(size) or iter(()))
    sizes = [size, 3]  # the largest batch sets the bound
    if fits:
        batches = _over_batches(n, DesignParams(0.7), 0, sizes, lambda t, d: 0)
        assert [values.size for values in batches] == sizes
        assert walks == sizes
    else:
        with pytest.raises(ValueError, match="use a smaller --batch-size"):
            _over_batches(n, DesignParams(0.7), 0, sizes, lambda t, d: 0)
        assert walks == []


def traced_peak(call) -> int:
    """The tracemalloc peak in bytes while call() runs.

    numpy imports numpy.random on first use; it is imported before tracing
    starts, so the peak counts the batch, not the import.
    """
    import numpy.random  # noqa: F401
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n,run", [
    (1000, lambda: mc_estimate(1000, DesignParams(0.7), parse_statistic("balance", 1000),
                               DEFAULT_BATCH_SIZE, seed=1)),
    (256, lambda: rank_pvalue_mc(np.random.default_rng(1).normal(size=256), 3.0,
                                 DesignParams(0.7), DEFAULT_BATCH_SIZE, seed=1)),
], ids=["mc_estimate", "rank_pvalue_mc"])
def test_a_batch_holds_one_chunk_and_its_values(n, run):
    # one chunk's words, step codes, a compare, t and d at 13 B a cell plus
    # 16 B a run: 14.4 MB at n = 1000 and 7.9 MB at n = 256, as
    # `_over_batches` counts it.  Measured peaks 13.8 and 7.3 MB with one
    # batch (8 B a run of values) while each chunk's words were drawn whole,
    # 5.2 and 3.2 MB drawn in blocks; the whole batch's t, d and values
    # took 211 and 185 MB.
    counted = _chunk_rows(n) * n * 13 + 16 * DEFAULT_BATCH_SIZE
    peak = traced_peak(run)
    assert peak <= counted, (peak, counted)


@pytest.mark.parametrize("n,run", [
    (1000, lambda: mc_estimate(1000, DesignParams(0.7), parse_statistic("balance", 1000),
                               3 * DEFAULT_BATCH_SIZE, seed=1)),
    (256, lambda: rank_pvalue_mc(np.random.default_rng(1).normal(size=256), 3.0,
                                 DesignParams(0.7), 3 * DEFAULT_BATCH_SIZE, seed=1)),
], ids=["mc_estimate", "rank_pvalue_mc"])
def test_a_caller_drops_each_batch_s_values_before_the_next_batch(n, run):
    # over three batches the peak stays at one chunk plus one vector of
    # values: measured 8.1 B a run beyond the chunk's 13 B a cell, where a
    # caller that held the last batch's vector while the next was walked
    # peaked at 16.1 B a run
    allowed = _chunk_rows(n) * n * 13 + 12 * DEFAULT_BATCH_SIZE
    peak = traced_peak(run)
    assert peak <= allowed, (peak, allowed)


@pytest.mark.parametrize("n,run", [
    (80, lambda: mc_estimate(80, DesignParams(0.7), parse_statistic("balance", 80),
                             DEFAULT_BATCH_SIZE, seed=1)),
    (1000, lambda: mc_estimate(1000, DesignParams(0.7), parse_statistic("balance", 1000),
                               DEFAULT_BATCH_SIZE, seed=1)),
    (32, lambda: rank_pvalue_mc(np.random.default_rng(1).normal(size=32), 3.0,
                                DesignParams(0.7), DEFAULT_BATCH_SIZE, seed=1)),
    (256, lambda: rank_pvalue_mc(np.random.default_rng(1).normal(size=256), 3.0,
                                 DesignParams(0.7), DEFAULT_BATCH_SIZE, seed=1)),
], ids=["mc_estimate-80", "mc_estimate-1000", "rank_pvalue_mc-32", "rank_pvalue_mc-256"])
def test_a_batch_holds_no_chunk_of_words(n, run):
    # a chunk's steps (which are t) and d take 1 B a cell plus d's width;
    # 1/2 B a cell and 16 B a run leave room for one 256 KiB block of words
    # and its compares and the batch's values (8 B a run).  Measured peaks
    # 2.14 and 4.15 MB for mc_estimate at n = 80 and 1000, 2.29 and 2.68 MB
    # for rank_pvalue_mc at n = 32 and 256.  A separate C-ordered copy of
    # t peaked at 2.67, 5.17, 2.81 and 3.21 MB, over this bound, and
    # drawing each chunk's words whole at 7.3, 13.8, 7.4 and 7.3 MB.
    width = _imbalance_dtype(n).itemsize
    bound = _chunk_rows(n) * n * (1 + width + 0.5) + 16 * DEFAULT_BATCH_SIZE
    peak = traced_peak(run)
    assert peak <= bound, (peak, bound)
