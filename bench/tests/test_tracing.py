"""The tracer: outputs unchanged, bindings restored, self time and metric names."""

import json

import pytest

import bcdexact.bias
import bcdexact.cli
import bcdexact.covariance
import bcdexact.exact
import tracing
from checks import HEALTH
from run import ROOT, run_job

BINDINGS = [
    (bcdexact.exact, "pmf_at"), (bcdexact.bias, "pmf_at"),
    (bcdexact.covariance, "pmf_dn"), (bcdexact.covariance, "first_visit"),
    (bcdexact.cli, "sigma"), (bcdexact.cli, "eigen_spectrum"),
]


@pytest.mark.parametrize("argv", [
    ["eigen", "--n", "12", "--p", "0.7", "--check-conjecture"],
    ["table3", "--p", "0.7", "--n", "5,10,15"],
    ["simulate", "--n", "12", "--p", "0.7", "--statistic", "cov(2,4)", "--reps", "3000"],
])
def test_traced_run_prints_the_same_bytes_and_restores_every_binding(argv):
    before = {(m.__name__, name): getattr(m, name) for m, name in BINDINGS}
    _, _, plain, error = run_job(bcdexact.cli.main, argv)
    assert error is None
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(m, name) is not before[(m.__name__, name)] for m, name in BINDINGS)
        with tracer.job(0):
            _, _, traced, error = run_job(bcdexact.cli.main, argv)
    assert error is None and traced == plain
    assert {(m.__name__, name): getattr(m, name) for m, name in BINDINGS} == before
    assert tracer.spans[-1]["name"] == tracing.ROOT
    assert all(span["job"] == 0 for span in tracer.spans)


def test_eigen_check_conjecture_runs_the_solver_twice():
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.job(0):
        run_job(bcdexact.cli.main, ["eigen", "--n", "8", "--p", "0.6", "--check-conjecture"])
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["covariance.eigen_spectrum.calls"] == 2
    assert metrics["exact.pmf_dn.calls"] == 7  # one law of D_{i-1} per row i < n
    assert metrics["covariance.first_visit.calls"] > 0


def test_self_time_subtracts_the_union_of_overlapping_children_and_leaf_time():
    def span(id, start, end, parent=None, in_leaf=False, leaf_s=0.0):
        return {"id": id, "name": "x", "start": start, "end": end, "parent": parent,
                "in_leaf": in_leaf, "leaf_s": leaf_s, "job": 0, "attrs": {}}

    spans = [
        span(1, 0.0, 10.0, leaf_s=1.0),
        span(2, 1.0, 5.0, parent=1),
        span(3, 4.0, 6.0, parent=1),  # overlaps span 2 (a second pool thread)
        span(4, 7.0, 8.0, parent=1, in_leaf=True),  # inside a leaf: already in leaf_s
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(4.0)


def test_loglog_slope_recovers_a_power_law():
    assert tracing.loglog_slope([(n, 3e-6 * n ** 3) for n in (10, 20, 40)]) == pytest.approx(3)
    assert tracing.loglog_slope([(10, 1.0)]) == 0.0


def test_every_per_layer_metric_of_benchmark_json_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(tracing.layer_metrics(tracing.Tracer(), 1)) | set(HEALTH)
    reported |= {"process.cpu_s_per_job", "trace.overhead_ratio"}
    assert reported == {metric["name"] for metric in spec["per_layer"]}
