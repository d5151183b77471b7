#!/usr/bin/env python3
"""bcdexact benchmark: seeded CLI workloads timed in a closed loop.

    python3 bench/run.py --workload imbalance --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload all       # every workload, one process each

Run from the repository root.  One client drives `bcdexact.cli.main(argv)`
in-process: the next job starts only when the previous one has returned.
Every job's output is checked against an independent route (see checks.py)
outside the timed interval; a non-zero exit, an exception or a failed check
counts the job as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every job twice,
untraced and then under the span tracer of tracing.py, requires the two
outputs to be byte-identical and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is a JSON report with the
machine and provenance block, sample counts and failures.  Only the
benchmark's own processes are timed; no machine setting is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
WORK = BENCH / ".work"
WORKLOADS = ("imbalance", "spectrum", "montecarlo")
SETUP_REPEATS = 7
SETUP_CODE = (
    "import os, time\n"
    "def steal():\n"
    "    try:\n"
    "        with open('/proc/stat') as f:\n"
    "            return int(f.readline().split()[8]) / os.sysconf('SC_CLK_TCK')\n"
    "    except (OSError, IndexError, ValueError):\n"
    "        return 0.0\n"
    "t, c, s = time.perf_counter(), time.process_time(), steal()\n"
    "from bcdexact.cli import build_parser\n"
    "build_parser()\n"
    "print(time.perf_counter() - t, time.process_time() - c, steal() - s)\n"
)
END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _env_with_src() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup() -> list[float]:
    """Import of bcdexact.cli plus parser build, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=_env_with_src(), cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append(unstolen(*map(float, done.stdout.split())))
    return samples


def provenance(seed: int) -> dict:
    import numpy

    nproc = None
    if shutil.which("nproc"):
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   check=True).stdout)
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "bcdexact").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc,
        "affinity_cores": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "machine_settings": "none changed; only this benchmark's own processes are timed",
    }


def run_job(main, argv) -> tuple[float, float, str, str | None]:
    """(wall s, cpu s, stdout, error or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        if code != 0:
            error = f"exit {code}: {err.getvalue().strip()}"
    except SystemExit as exc:
        error = f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception:  # a crashing job is a failed job, not a crashed benchmark
        error = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    return wall, time.process_time() - cpu0, out.getvalue(), error


def steal_seconds() -> float:
    """Hypervisor steal summed over all CPUs so far (0.0 where not reported)."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    return 0.0


def unstolen(wall: float, cpu: float, stolen: float) -> float:
    """Wall time less the share the hypervisor stole from this VM meanwhile.

    Process CPU time excludes steal (paravirt steal accounting), so
    cpu + stolen is the vCPU time the work kept busy, and
    wall * cpu / (cpu + stolen) takes the stolen share off: all of `stolen`
    for single-threaded work, about stolen / k for work busy on k vCPUs.
    With no steal reported it is the wall time.
    """
    busy = cpu + stolen
    return wall * cpu / busy if busy > 0 else wall


def timed_job(main, argv) -> tuple[float, float, float, str, str | None]:
    """run_job timed without steal: (seconds, wall s, cpu s, stdout, error)."""
    stolen0 = steal_seconds()
    wall, cpu, text, error = run_job(main, argv)
    return unstolen(wall, cpu, steal_seconds() - stolen0), wall, cpu, text, error


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Counts, samples and health figures of one workload run."""

    def __init__(self, health_names):
        self.attempted = 0
        self.failures: list[dict] = []
        self.health = dict.fromkeys(health_names, 0.0)

    def verdict(self, argv, error: str | None, check) -> None:
        """Count one job; check() returns its health figures or raises."""
        self.attempted += 1
        if error is None:
            try:
                for name, value in check().items():
                    self.health[name] = max(self.health[name], value)
            except Exception as exc:  # CheckFailed, or output that does not parse
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append({"argv": list(argv), "error": error})


def run_workload(args) -> int:
    if not (SRC / "bcdexact" / "cli.py").is_file():
        print(f"error: no bcdexact sources under {SRC}", file=sys.stderr)
        return 2
    setup = measure_setup()
    sys.path.insert(0, str(SRC))

    import checks
    import tracing
    import workloads
    from bcdexact.cli import main

    work = WORK / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    jobs = workloads.make_jobs(args.workload, args.seed, work)
    if args.workload == "montecarlo":
        workloads.write_score_files(work, args.seed)
    run = Run(checks.HEALTH)

    # warm-up, untimed: default grids against the golden files, then one round
    if args.workload == "imbalance":
        for command, name in workloads.GOLDEN_FILES:
            _, _, text, error = run_job(main, [command])
            run.verdict([command], error,
                        lambda: checks.check_golden(text, GOLDEN_DIR / name))
    # round 0 runs every kind at the top of its n range, so the workload's
    # peak memory is reached here, before the allocator's history diverges
    per_round = len(workloads.WORKLOADS[args.workload])
    for job in jobs[:per_round]:
        _, _, text, error = run_job(main, job.argv)
        run.verdict(job.argv, error, lambda: checks.check(job, text))
    warm_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = tracing.Tracer()
    plain, walls, traced, cpu, samples = [], [], [], [], []
    steal0 = steal_seconds()
    deadline = time.perf_counter() + args.seconds
    for index, job in enumerate(jobs[per_round:]):
        if time.perf_counter() >= deadline:
            break
        seconds, wall, cpu_s, text, error = timed_job(main, job.argv)
        plain.append(seconds)
        walls.append(wall)
        cpu.append(cpu_s)
        samples.append({"kind": job.kind, "n": job.n, "p": job.p, "s": seconds,
                        "wall_s": wall, "cpu_s": cpu_s})
        if args.trace and error is None:
            with tracer.installed(), tracer.job(index):
                seconds_t, _, _, text_t, error = timed_job(main, job.argv)
            traced.append(seconds_t)
            if error is None and text_t != text:
                error = "traced output differs from untraced output"
        run.verdict(job.argv, error, lambda: checks.check(job, text))
    steal = steal_seconds() - steal0
    if not plain:
        print("error: no job finished inside the measured interval", file=sys.stderr)
        return 1

    if args.trace:
        metrics = tracing.layer_metrics(tracer, max(len(traced), 1))
        metrics.update(run.health)
        metrics["process.cpu_s_per_job"] = sum(cpu) / len(cpu)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) if traced else 0.0)
        units = _layer_units()
        if set(units) != set(metrics):
            raise RuntimeError(f"layer metrics do not match BENCHMARK.json: "
                               f"{sorted(set(units) ^ set(metrics))}")
        trace_file = work / "trace.json"
        trace_file.write_text(json.dumps(
            {"spans": tracer.spans, "leaves": tracer.leaves}), encoding="utf-8")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(plain) / sum(plain),
            "job_s.p50": statistics.median(plain),
            "job_s.p90": quantile(plain, 90),
            "peak_rss_mb": warm_rss_mb,
        }
        units = END_TO_END_UNITS

    (work / f"samples-trace{args.trace}.json").write_text(json.dumps(samples), encoding="utf-8")
    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "timed_jobs": len(plain),
        "p90_samples_beyond": sum(1 for t in plain if t > quantile(plain, 90)),
        "setup_samples_s": setup,
        "steal_s_during_timed_jobs": steal,
        "with_steal": {  # the time metrics from raw wall time
            "jobs_per_s": len(walls) / sum(walls),
            "job_s.p50": statistics.median(walls),
            "job_s.p90": quantile(walls, 90),
        },
        "peak_rss_mb_whole_run": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": failed / run.attempted,
        "health": run.health,
        "failures": run.failures[:10],
    }
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Each workload in its own process; prints every metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        report = next(json.loads(line)["report"] for line in lines
                      if line.startswith('{"report"'))
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={report['failed_ratio']!r} "
              f"timed_jobs={report['timed_jobs']}")
        for name, metric in result["metrics"].items():
            print(f"  {name} = {metric['value']!r} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    options = parse_args()
    sys.exit(run_all(options) if options.workload == "all" else run_workload(options))
