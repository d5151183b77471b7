"""Seeded job lists for the three benchmark workloads.

A workload is a fixed round of job kinds, repeated: every round runs one job
of each kind in the same order, so any prefix of a run has the same mix of
commands whatever the seed.  The seed chooses each job's inputs:

* n follows a golden-ratio sequence over the kind's range, started at a
  seeded offset, so even a short run covers the range evenly; round 0, the
  untimed warm-up, takes the top of every range, so every seed reaches the
  same peak memory there;
* p is taken from a seeded shuffle of P_GRID, the decimals 0.550 .. 0.950
  (p = a/1000, exact as a decimal, so `--p` parses identically as a float
  or as a Fraction).

No two jobs of one list share (command, n, p): a repeated input is skipped
in favour of the next p of the shuffle.  The grid commands run their default
n ladders, so for them the key is (command, None, p).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

P_GRID = tuple(f"{a / 1000:.3f}" for a in range(550, 951))
MAX_ROUNDS = 400
MC_REPS = 100_000
ENUM_MAX_J = 12  # Sigma entries checked by 2^j enumeration have i < j <= 12
SIGMA_CHECK_PAIRS = 3
GOLDEN_FILES = (
    ("threshold", "threshold_defaults.csv"),
    ("table2", "variance_defaults.csv"),
    ("table3", "selection_bias_defaults.csv"),
)
_GOLDEN_STEP = 0.6180339887498949

WORKLOADS = {
    # name -> ((kind, n range or None), ...) in round order
    "imbalance": (
        ("threshold", None),
        ("pmf", (200, 260)),
        ("table2", None),
        ("var", (200, 260)),
        ("table3", None),
        ("selection-bias", (200, 260)),
    ),
    "spectrum": (
        ("eigen", (40, 56)),
        ("accidental-bias", (48, 64)),
        ("sigma", (24, 32)),
    ),
    "montecarlo": (
        ("simulate:balance", (40, 80)),
        ("simulate:variance", (40, 80)),
        ("simulate:selection-bias", (40, 80)),
        ("simulate:cov", (40, 80)),
        ("ranktest", (24, 32)),
    ),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what its output check needs to know."""

    kind: str
    argv: tuple[str, ...]
    n: int | None
    p: str
    pairs: tuple[tuple[int, int], ...] = ()  # Sigma entries to enumerate
    reps: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> tuple:
        return (self.command, self.n, self.p)


def score_path(work: Path, n: int) -> Path:
    return work / f"scores-n{n}.txt"


def write_score_files(work: Path, seed: int) -> None:
    """Seeded normal scores, one file per ranktest size."""
    rng = random.Random(f"scores/{seed}")
    lo, hi = dict(WORKLOADS["montecarlo"])["ranktest"]
    work.mkdir(parents=True, exist_ok=True)
    for n in range(lo, hi + 1):
        values = [repr(rng.gauss(0.0, 1.0)) for _ in range(n)]
        score_path(work, n).write_text(" ".join(values) + "\n", encoding="utf-8")


def _pairs(rng: random.Random, count: int) -> tuple[tuple[int, int], ...]:
    every = [(i, j) for j in range(2, ENUM_MAX_J + 1) for i in range(1, j)]
    return tuple(sorted(rng.sample(every, count)))


def _job(kind: str, n: int | None, p: str, rng: random.Random, work: Path) -> Job:
    if n is None:
        return Job(kind, (kind, "--p", p), None, p)
    if kind in ("pmf", "var", "selection-bias", "accidental-bias"):
        return Job(kind, (kind, "--n", str(n), "--p", p), n, p)
    if kind == "eigen":
        return Job(kind, ("eigen", "--n", str(n), "--p", p, "--check-conjecture"), n, p)
    if kind == "sigma":
        argv = ("sigma", "--n", str(n), "--p", p, "--mode", "rational")
        return Job(kind, argv, n, p, pairs=_pairs(rng, SIGMA_CHECK_PAIRS))
    if kind.startswith("simulate:"):
        statistic = kind.partition(":")[2]
        if statistic == "cov":
            (i, j), = _pairs(rng, 1)
            statistic = f"cov({i},{j})"
        argv = ("simulate", "--n", str(n), "--p", p, "--statistic", statistic,
                "--reps", str(MC_REPS), "--seed", str(rng.randrange(1 << 31)))
        return Job(kind, argv, n, p, reps=MC_REPS)
    if kind == "ranktest":
        argv = ("ranktest", "--scores", str(score_path(work, n)), "--p", p,
                "--seed", str(rng.randrange(1 << 31)), "--reps", str(MC_REPS))
        return Job(kind, argv, n, p, reps=MC_REPS)
    raise ValueError(f"unknown job kind {kind!r}")


def make_jobs(workload: str, seed: int, work: Path, rounds: int = MAX_ROUNDS) -> list[Job]:
    """Round-major job list: round r holds one job of every kind, in order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    kinds = WORKLOADS[workload]
    streams = []
    for kind, n_range in kinds:
        rng = random.Random(f"{workload}/{seed}/{kind}")
        grid = list(P_GRID)
        rng.shuffle(grid)
        streams.append((kind, n_range, rng, grid, rng.random()))
    used: set[tuple] = set()
    cursors = [0] * len(kinds)
    jobs = []
    for r in range(rounds):
        for idx, (kind, n_range, rng, grid, offset) in enumerate(streams):
            n = None
            if n_range is not None:
                lo, hi = n_range
                n = lo + int(((offset + r * _GOLDEN_STEP) % 1.0) * (hi - lo + 1)) if r else hi
            command = kind.partition(":")[0]
            for _ in grid:
                p = grid[cursors[idx] % len(grid)]
                cursors[idx] += 1
                if (command, n, p) not in used:
                    break
            else:
                raise ValueError(f"{kind}: every p is used at n={n} by round {r}")
            job = _job(kind, n, p, rng, work)
            used.add(job.key)
            jobs.append(job)
    return jobs
