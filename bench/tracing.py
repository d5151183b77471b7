"""Span tracer that wraps the package's public functions from outside.

`Tracer.installed()` rebinds each traced function at every `bcdexact` module
that holds it by name (for example `pmf_at` in both `exact` and `bias`, and
`first_visit` in `covariance`, where `FirstVisitTable.f` looks it up), and
restores every binding on exit.  Nothing inside the package changes.

Two kinds of wrapper:

* SPANS record one span per call: name, start, end, parent span and job id,
  plus a few size attributes (n, numeric mode, replicates);
* LEAVES are the hot inner functions, called once per closed-form term, mass
  or table entry.  They keep only an aggregate call count and time, so the
  trace stays small and cheap.

A span's self time is its duration minus the part covered by its children:
the union of its child spans' intervals (children may overlap when a thread
pool runs them) plus the time of leaf calls made directly under it.  A span
opened inside a leaf call is already covered by that leaf and is not
subtracted again.  Worker threads of a pool inherit the innermost open span
of the thread that runs the job as their parent.

`design` is not wrapped: `transition_prob` runs once per term, so a wrapper
there would mostly measure itself.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import math
import sys
import threading
import time

from bcdexact.stable import FactoredProduct, NumericMode

SPANS = {
    "tables": ("threshold_grid", "variance_grid", "selection_bias_grid"),
    "exact": ("pmf_dn", "var_dn", "steady_state_threshold"),
    "bias": ("selection_bias_report", "total_bias_closed_form", "accidental_bias"),
    "covariance": ("sigma", "eigen_spectrum", "verify_2p_eigenpair", "max_eigen_report"),
    "simulate": ("mc_estimate", "rank_pvalue_mc", "generate_sequence"),
}
LEAVES = {
    "stable": ("stable_term_product", "sum_term_values"),
    "exact": ("pmf_at",),
    "bias": ("selection_bias_step",),
    "covariance": ("first_visit", "joint_assignment"),
}
ROOT = "cli.main"
SLOPE_MIN_N = 8  # smaller calls are dominated by fixed per-call cost
BATCH_BYTES_PER_CELL = 17  # float64 uniform + int64 path + int8 step per (replicate, draw)


class _Frame:
    __slots__ = ("name", "leaf", "parent", "owner", "in_leaf", "start", "covered", "span_id")

    def __init__(self, name: str, leaf: bool, parent: "_Frame | None"):
        self.name = name
        self.leaf = leaf
        self.parent = parent
        # nearest enclosing non-leaf frame, and whether a leaf lies between
        if parent is None:
            self.owner, self.in_leaf = None, False
        else:
            self.owner = parent if not parent.leaf else parent.owner
            self.in_leaf = parent.leaf or parent.in_leaf
        self.covered = 0.0
        self.span_id = 0


def _size_attrs(name: str, args: dict, result) -> dict:
    """The few inputs the layer metrics need, read from bound arguments.

    A signature this code does not know yields no attributes: the span still
    counts its time, and only the size-based figures leave it out.
    """
    try:
        return _sizes(name, args, result)
    except (KeyError, TypeError, AttributeError):
        return {}


def _sizes(name: str, args: dict, result) -> dict:
    if name in ("exact.pmf_dn", "covariance.sigma"):
        return {"n": args["n"], "exact": NumericMode.coerce(args["mode"]).is_exact}
    if name == "covariance.eigen_spectrum":
        return {"n": int(result.shape[0])}
    if name == "simulate.mc_estimate":
        return {"n": args["n"], "reps": args["replicates"], "batch": args["batch_size"]}
    if name == "simulate.rank_pvalue_mc":
        n = len(args["scores"])
        return {"n": n, "reps": args["replicates"], "batch": args["batch_size"]}
    if name.startswith("tables."):
        return {"cells": sum(1 for row in result if row.get("n", 0) is not None)}
    return {}


class Tracer:
    """Spans and leaf aggregates of the jobs run under `job()`."""

    def __init__(self):
        self.spans: list[dict] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.factored_products = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._job_stack: list[_Frame] | None = None
        self._job_id = None
        self._bindings: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, leaf: bool) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a pool worker: the job thread's innermost frame is the parent
            job_stack = self._job_stack
            parent = job_stack[-1] if job_stack else None
        frame = _Frame(name, leaf, parent)
        if not leaf:
            frame.span_id = next(self._ids)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, end: float, attrs: dict | None = None) -> None:
        self._stack().pop()
        duration = end - frame.start
        parent = frame.parent
        with self._lock:
            if parent is not None and not parent.leaf and frame.leaf:
                parent.covered += duration
            if frame.leaf:
                agg = self.leaves.setdefault(frame.name, [0, 0.0])
                agg[0] += 1
                agg[1] += duration
                return
        self.spans.append({
            "id": frame.span_id,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "parent": frame.owner.span_id if frame.owner is not None else None,
            "in_leaf": frame.in_leaf,
            "leaf_s": frame.covered,
            "job": self._job_id,
            "attrs": attrs or {},
        })

    @contextlib.contextmanager
    def job(self, job_id):
        """Root span `cli.main` around one job run on the calling thread."""
        self._job_id = job_id
        self._job_stack = self._stack()
        frame = self._enter(ROOT, leaf=False)
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter())
            self._job_stack = None

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, leaf=False)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, time.perf_counter())
                raise
            end = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._exit(frame, end, _size_attrs(name, bound.arguments, result))
            return result

        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        count_factored = name == "stable.stable_term_product"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, leaf=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, time.perf_counter())
            if count_factored and isinstance(result, FactoredProduct):
                with self._lock:
                    self.factored_products += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function wherever the package holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bcdexact" or name.startswith("bcdexact.")]
        try:
            for table, make in ((SPANS, self._span_wrapper), (LEAVES, self._leaf_wrapper)):
                for short, names in table.items():
                    home = sys.modules[f"bcdexact.{short}"]
                    for attr in names:
                        original = getattr(home, attr, None)
                        if original is None:  # gone from the package: its metrics read 0
                            continue
                        wrapped = make(f"{short}.{attr}", original)
                        for module in modules:
                            if getattr(module, attr, None) is original:
                                self._bindings.append((module, attr, original))
                                setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(self._bindings):
                setattr(module, attr, original)
            self._bindings.clear()


# ---------------------------------------------------------------------------
# layer metrics


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None and not span["in_leaf"]:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = span["end"] - span["start"] - covered - span["leaf_s"]
    return out


def loglog_slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n); 0.0 below two sizes."""
    points = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-layer figures of a traced run, per traced job where they add up."""
    own = self_times(tracer.spans)
    by_name: dict[str, list[dict]] = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s["end"] - s["start"] for s in spans(name)) / jobs

    def leaf(name, index):
        return tracer.leaves.get(name, [0, 0.0])[index] / jobs

    def slope(name):
        return loglog_slope([(s["attrs"]["n"], s["end"] - s["start"]) for s in spans(name)
                             if not s["attrs"].get("exact")
                             and s["attrs"].get("n", 0) >= SLOPE_MIN_N])

    grids = [s for s in tracer.spans if s["name"].startswith("tables.")]
    mc = [s for s in spans("simulate.mc_estimate") + spans("simulate.rank_pvalue_mc")
          if s["attrs"]]
    mc_time = sum(s["end"] - s["start"] for s in mc)
    return {
        "cli.self_s": sum(own[s["id"]] for s in spans(ROOT)) / jobs,
        "tables.grid_s": sum(s["end"] - s["start"] for s in grids) / jobs,
        "tables.self_s": sum(own[s["id"]] for s in grids) / jobs,
        "tables.cells": sum(s["attrs"].get("cells", 0) for s in grids) / jobs,
        "exact.pmf_at.calls": leaf("exact.pmf_at", 0),
        "exact.pmf_at.s": leaf("exact.pmf_at", 1),
        "exact.pmf_dn.calls": len(spans("exact.pmf_dn")) / jobs,
        "exact.pmf_dn.s": seconds("exact.pmf_dn"),
        "exact.pmf_dn.loglog_slope": slope("exact.pmf_dn"),
        "exact.var_dn.s": seconds("exact.var_dn"),
        "exact.steady_state_threshold.s": seconds("exact.steady_state_threshold"),
        "stable.stable_term_product.calls": leaf("stable.stable_term_product", 0),
        "stable.stable_term_product.s": leaf("stable.stable_term_product", 1),
        "stable.factored_products": tracer.factored_products / jobs,
        "stable.sum_term_values.s": leaf("stable.sum_term_values", 1),
        "bias.selection_bias_report.s": seconds("bias.selection_bias_report"),
        "bias.selection_bias_step.calls": leaf("bias.selection_bias_step", 0),
        "bias.total_bias_closed_form.s": seconds("bias.total_bias_closed_form"),
        "bias.accidental_bias.s": seconds("bias.accidental_bias"),
        "covariance.sigma.s": seconds("covariance.sigma"),
        "covariance.sigma.loglog_slope": slope("covariance.sigma"),
        "covariance.joint_assignment.calls": leaf("covariance.joint_assignment", 0),
        "covariance.first_visit.calls": leaf("covariance.first_visit", 0),
        "covariance.eigen_spectrum.calls": len(spans("covariance.eigen_spectrum")) / jobs,
        "covariance.eigen_spectrum.s": seconds("covariance.eigen_spectrum"),
        "covariance.eigen_spectrum.loglog_slope": slope("covariance.eigen_spectrum"),
        "covariance.verify_2p_eigenpair.s": seconds("covariance.verify_2p_eigenpair"),
        "simulate.mc_estimate.s": seconds("simulate.mc_estimate"),
        "simulate.rank_pvalue_mc.s": seconds("simulate.rank_pvalue_mc"),
        "simulate.mc_batches": sum(
            math.ceil(s["attrs"]["reps"] / s["attrs"]["batch"]) for s in mc) / jobs,
        "simulate.mc_steps_per_s": (
            sum(s["attrs"]["reps"] * s["attrs"]["n"] for s in mc) / mc_time if mc_time else 0.0),
        "simulate.batch_bytes_computed": max(
            (BATCH_BYTES_PER_CELL * min(s["attrs"]["batch"], s["attrs"]["reps"]) * s["attrs"]["n"]
             for s in mc), default=0),
    }
