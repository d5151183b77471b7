"""The chunked, step-major Monte Carlo walk against the lock-step one.

`lockstep_batch` below is `_simulate_batch` as it was before the walk went
chunked: one (size, n) draw, then every step reads a strided column.  The
chunked walk must draw the same uniforms and take the same steps, so every
comparison here is `==`, on the paths and on what is computed from them.
`stepwise_sequence` is the one-run walk that `generate_sequence` ran on its
own before it became a batch of one, and checks it the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bcdexact.simulate
from bcdexact.cli import main
from bcdexact.design import DesignParams
from bcdexact.simulate import (
    PathStatistic,
    _chunk_rows,
    _over_batches,
    _simulate_batch,
    _stream,
    generate_sequence,
    mc_estimate,
    parse_statistic,
    rank_pvalue_mc,
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


@pytest.mark.parametrize("n", [1, 2, 3, 40, 80, 127, 128, 300])
def test_chunked_walk_equals_the_lockstep_walk(n):
    rows = _chunk_rows(n)
    sizes = sorted({1, 7, rows - 1, rows, rows + 1, 1 << 16})
    for p in PS:
        # a run reads only its own n uniforms, so the first `size` runs of
        # one large lock-step batch are the lock-step batch of that size
        want_t, want_d = lockstep_batch(n, p, _stream(n, 3), sizes[-1])
        for size in sizes:
            t, d = _simulate_batch(n, p, _stream(n, 3), size)
            assert t.shape == d.shape == (size, n)
            assert t.dtype == np.int8 and t.flags.c_contiguous
            assert np.array_equal(t, want_t[:size]), (n, p, size)
            assert np.array_equal(d, want_d[:size]), (n, p, size)


def test_a_small_lockstep_batch_is_a_prefix_of_a_large_one():
    small = lockstep_batch(40, 0.7, _stream(1, 0), 100)
    large = lockstep_batch(40, 0.7, _stream(1, 0), 1000)
    assert all(np.array_equal(a, b[:100]) for a, b in zip(small, large))


def test_imbalance_is_narrow_until_n_reaches_32768():
    assert _simulate_batch(300, 0.7, _stream(0), 5)[1].dtype == np.int16
    t, d = _simulate_batch(32768, 0.7, _stream(0), 2)
    assert d.dtype == np.int64
    assert np.array_equal(d, np.cumsum(t, axis=1))


@pytest.mark.parametrize("n,p,size", [(24, 0.55, 3000), (32, 0.9, 1 << 16), (300, 0.713, 4000)])
def test_rank_statistic_bits_are_unchanged(n, p, size):
    # gemv results depend on the matrix layout and row count, so the chunked
    # walk must hand back one C-ordered (size, n) t per batch
    a = np.random.default_rng(n).normal(size=n)
    want, _ = lockstep_batch(n, p, _stream(8, 0), size)
    got, _ = _simulate_batch(n, p, _stream(8, 0), size)
    assert np.array_equal(got.astype(float) @ a, want.astype(float) @ a)


def test_rank_pvalue_is_unchanged(monkeypatch):
    a = np.random.default_rng(5).normal(size=30)
    args = (a, 1.5, DesignParams(0.62), 20_000, 3)
    chunked = rank_pvalue_mc(*args, batch_size=7000)
    monkeypatch.setattr(bcdexact.simulate, "_simulate_batch", lockstep_batch)
    assert rank_pvalue_mc(*args, batch_size=7000) == chunked


def last_square_plus_first(t, d):
    return d[-1] * d[-1] + t[0]


@pytest.mark.parametrize("text", ["balance", "variance", "selection-bias", "cov(3,17)", None])
@pytest.mark.parametrize("n,batch", [(40, 5000), (301, 3000)])
def test_seeded_estimates_are_unchanged(monkeypatch, text, n, batch):
    stat = last_square_plus_first if text is None else parse_statistic(text, n)
    run = dict(n=n, params=DesignParams(0.58), statistic=stat, replicates=12_000,
               seed=99, batch_size=batch, jobs=2)
    chunked = mc_estimate(**run)
    monkeypatch.setattr(bcdexact.simulate, "_simulate_batch", lockstep_batch)
    assert mc_estimate(**run) == chunked


def test_per_path_statistics_get_wide_imbalance_rows():
    # all steps up: D reaches 300, whose square wraps in int16 (past 181)
    n = 300
    t = np.ones((2, n), dtype=np.int8)
    d = np.cumsum(t, axis=1, dtype=np.int16).T.copy().T
    stat = PathStatistic(name="square", per_path=lambda t, d: d[-1] * d[-1])
    assert stat.batch_values(t, d).tolist() == [90_000.0, 90_000.0]


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


def test_simulate_at_n_1000_stays_within_its_time_and_memory_bound():
    # measured 1.4 to 2.6 s and 322 to 329 MB over 7 runs (2-vCPU Xeon VM);
    # the lock-step walk took 4.6 to 4.8 s and 1.66 GB.  The bounds leave
    # the chunked walk 1.9x its slowest time and 1.8x its largest peak.
    src = Path(bcdexact.simulate.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "bcdexact.cli", "simulate", "--n", "1000", "--p", "0.7",
            "--statistic", "balance", "--reps", "100000", "--seed", "1"]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    *out, last = done.stdout.splitlines()
    code, wall, maxrss_kb = last.split()
    assert done.returncode == 0 and code == "0", done.stderr
    assert out[:2] == ["label,value", "estimate,0.5726"]
    assert int(maxrss_kb) < 600 * 1024, maxrss_kb
    assert float(wall) < 5.0, wall


def refuse_to_walk(*args):
    raise AssertionError("a batch over the memory bound was walked")


def test_a_batch_over_the_memory_bound_exits_2_before_it_is_walked(capsys, monkeypatch):
    # t, d (int64 here) and a chunk of uniforms would take 3.4 GB
    monkeypatch.setattr(bcdexact.simulate, "_simulate_batch", refuse_to_walk)
    code = main(["simulate", "--n", "100000000", "--p", "0.7", "--statistic", "balance",
                 "--reps", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "needs 3400000000 bytes" in err and "--batch-size" in err


# (n, runs in the batch, fits): the default batch up to n = 2621; around the
# int16 to int64 switch of d at n = 32768, below one chunk of uniforms
@pytest.mark.parametrize("n,size,fits", [
    (1000, 65536, True), (2621, 65536, True), (2622, 65536, False),
    (32767, 2730, True), (32767, 2731, False), (32768, 963, True), (32768, 964, False),
])
def test_the_batch_bound_counts_t_d_and_a_chunk_of_uniforms(monkeypatch, n, size, fits):
    walked = []
    monkeypatch.setattr(bcdexact.simulate, "_simulate_batch",
                        lambda n, p, rng, size: walked.append(size) or (None, None))
    sizes = [size, 3]  # the largest batch sets the bound
    if fits:
        assert _over_batches(n, DesignParams(0.7), 0, sizes, lambda t, d: 0) == [0, 0]
        assert walked == sizes
    else:
        with pytest.raises(ValueError, match="use a smaller --batch-size"):
            _over_batches(n, DesignParams(0.7), 0, sizes, lambda t, d: 0)
        assert walked == []
