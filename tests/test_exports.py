"""Every name a module exports resolves, so a deleted helper cannot stay
exported, and every name the benchmark harness imports resolves, so a
deleted helper it needs fails here and not only in a benchmark run; the
harness's own check passes on `simulate` output, so a broken oracle or
walk fails here too.  No package module imports a thread or process pool,
so concurrency cannot come back without a change to this file."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bcdexact
from bcdexact.cli import main
from bcdexact.design import DesignParams
from bcdexact.simulate import enumerate_exact, mc_estimate, rank_pvalue_mc, stat_balance

# the (module, attribute) pairs the benchmark's tracer rebinds and its
# tests check it restores
TRACED = [("exact", "pmf_at"), ("bias", "pmf_at"), ("covariance", "pmf_dn"),
          ("covariance", "first_visit"), ("cli", "sigma"), ("cli", "eigen_spectrum")]

MODULES = ["bcdexact"] + [
    f"bcdexact.{info.name}" for info in pkgutil.iter_modules(bcdexact.__path__)
]
BENCH = Path(__file__).resolve().parent.parent / "bench"
PACKAGE = Path(bcdexact.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_names_the_benchmark_imports_resolve():
    found = []  # (file, module, name) of each `from bcdexact... import name` under bench/
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bcdexact":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    assert ("tracing.py", "bcdexact.stable", "NumericMode") in found
    missing = [(path, module, name) for path, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_the_benchmark_oracle_call_stays_exact():
    # bench/checks.py passes the mode positionally, by name
    value = enumerate_exact(3, DesignParams(Fraction(7, 10)), stat_balance(), "rational")
    assert type(value) is Fraction


def load_bench_module(name, monkeypatch):
    """bench/<name>.py as a fresh module, leaving no bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while it is defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_loads_and_finds_what_it_traces_and_calls(capsys, monkeypatch):
    checks = load_bench_module("checks", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    load_bench_module("tracing", monkeypatch)
    missing = [(module, attr) for module, attr in TRACED
               if not callable(getattr(importlib.import_module(f"bcdexact.{module}"), attr, None))]
    assert missing == []
    # bench/tracing.py's _sizes reads these arguments of the traced calls by name
    for function, names in [(mc_estimate, {"n", "replicates", "batch_size"}),
                            (rank_pvalue_mc, {"scores", "replicates", "batch_size"})]:
        assert names <= set(inspect.signature(function).parameters), function.__name__
    # bench/checks.py enumerates a covariance entry in rational mode;
    # sigma(1, 2) = 1 - 2p
    value = checks.enumerate_exact(3, DesignParams(Fraction(7, 10)), checks.stat_product(1, 2),
                                   "rational")
    assert value == Fraction(-2, 5) and type(value) is Fraction
    # bench/checks.py checks simulate jobs of the montecarlo sizes against the
    # 2^j oracle (cov) and the forward recurrence (balance), and the z score
    for kind, n, statistic in [("simulate:cov", 40, "cov(3,9)"),
                               ("simulate:balance", 80, "balance")]:
        argv = ("simulate", "--n", str(n), "--p", "0.613", "--statistic", statistic,
                "--reps", "4000", "--seed", "5")
        assert main(list(argv)) == 0
        job = workloads.Job(kind, argv, n, "0.613", reps=4000)
        health = checks.check_simulate(job, capsys.readouterr().out)
        assert 0 <= health["simulate.max_abs_z"] <= checks.MAX_ABS_Z


def test_no_package_module_starts_threads_or_processes():
    # one Monte Carlo batch at a time bounds a run's memory (MC_BATCH_BYTES);
    # a worker's malloc arena keeps the batch memory it freed
    imported = []  # (file, top-level module) of each absolute import in the package
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name.split(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module.split(".")[0]))
    assert ("simulate.py", "numpy") in imported
    banned = {"threading", "_thread", "concurrent", "multiprocessing"}
    assert [(path, module) for path, module in imported if module in banned] == []
