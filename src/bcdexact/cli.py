"""Command-line front end.

Every subcommand computes through the library and emits either CSV (the
default; header row, one record per line, full-precision `repr` values)
or a flat JSON record via `--format json`.  Exact quantities accept
`--mode rational` when n is small enough (RATIONAL_N_CAP) and print
fractions as "numerator/denominator"; Monte Carlo commands are float
only.  Exit codes: 0 success, 2 bad usage or invalid values, 3 an
iterative solver failed to converge.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bias import accidental_bias, selection_bias_report, total_bias_closed_form
from .covariance import (
    ConvergenceError,
    eigen_spectrum,
    max_eigen_report,
    sigma,
    two_p_eigenvector,
    verify_2p_eigenpair,
)
from .design import DesignParams, parse_probability
from .exact import SCAN_N_MAX, StationaryDist, asymptotic_var, pmf_at, pmf_dn, var_dn
from .simulate import (
    MC_BATCH_BYTES,
    ScoreVector,
    TreatmentSequence,
    generate_sequence,
    mc_estimate,
    parse_statistic,
    rank_pvalue_mc,
    rank_statistic,
    rank_statistic_variance,
)
from .stable import EXACT_RATIONAL, FLOAT64_STABLE
from . import tables

__all__ = ["FLOAT_SIGMA_N_CAP", "OutputRecord", "RATIONAL_N_CAP", "main"]

RATIONAL_N_CAP = 64
# Largest float covariance matrix the CLI builds.  The Sigma rows cost
# O(n^3) Python steps in all and each Jacobi sweep O(n^3) in numpy; at this
# size `eigen --check-conjecture` takes up to 4 s (2-vCPU Xeon VM) and 45 MB.
# Time sets the cap, not accuracy: the rows' closed-form scan rescales its
# start terms and stays accurate up to SCAN_N_MAX.
FLOAT_SIGMA_N_CAP = 256

_FRACTION_TAG = "/"


def _encode(value):
    """JSON-safe scalar; fractions become 'a/b' strings."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _decode(value):
    if isinstance(value, str) and _FRACTION_TAG in value:
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den))
        except ValueError:
            return value
    return value


@dataclass(frozen=True)
class OutputRecord:
    """One command's machine-readable result.

    values is an ordered list of (label, scalar) pairs; grid commands
    label each cell individually so the JSON stays one level deep.
    """

    command: str
    mode: str
    inputs: tuple
    values: tuple

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "mode": self.mode,
            "inputs": [[k, _encode(v)] for k, v in self.inputs],
            "values": [[k, _encode(v)] for k, v in self.values],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "OutputRecord":
        payload = json.loads(text)
        return cls(
            command=payload["command"],
            mode=payload["mode"],
            inputs=tuple((k, _decode(v)) for k, v in payload["inputs"]),
            values=tuple((k, _decode(v)) for k, v in payload["values"]),
        )


def _cell(value) -> str:
    """Full-precision CSV rendering of one scalar."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return _encode(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: list[str], rows: list[list]) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_cell(v) for v in row) + "\n")
    return out.getvalue()


@dataclass(frozen=True)
class CommandOutput:
    record: OutputRecord
    header: list[str]
    rows: list[list]

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.record.to_json() + "\n"
        return _csv_text(self.header, self.rows)


def _record(args, inputs: list, values: list) -> OutputRecord:
    return OutputRecord(
        command=args.command,
        mode=args.mode,
        inputs=tuple(inputs),
        values=tuple(values),
    )


def _labelled(args, inputs: list, values: list) -> CommandOutput:
    """The output of a command whose CSV is one label,value row per value."""
    return CommandOutput(_record(args, inputs, values), ["label", "value"], list(map(list, values)))


def _mode_of(args):
    return EXACT_RATIONAL if args.mode == "rational" else FLOAT64_STABLE


def _params_of(args) -> DesignParams:
    exact = args.mode == "rational"
    return DesignParams(parse_probability(args.p, exact=exact))


def _check_rational_cap(args, n: int):
    if args.mode == "rational" and n > RATIONAL_N_CAP:
        raise ValueError(
            f"rational mode supports n <= {RATIONAL_N_CAP} (got n = {n}); use --mode float"
        )


def _check_sigma_cap(args, n: int):
    """Refuse a covariance matrix larger than its mode's cap, before building it."""
    _check_rational_cap(args, n)
    if args.mode == "float" and n > FLOAT_SIGMA_N_CAP:
        raise ValueError(
            f"{args.command} supports n <= {FLOAT_SIGMA_N_CAP} in float mode (got n = {n})"
        )


def _float_only(args):
    if args.mode == "rational":
        raise ValueError(f"{args.command} is Monte Carlo based and supports --mode float only")


def _parse_list(text: str, convert) -> list:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ValueError("empty list")
    return [convert(piece) for piece in items]


def _read_numbers(path: str) -> list[float]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    pieces = text.replace(",", " ").split()
    if not pieces:
        raise ValueError(f"no values in {path}")
    return [float(piece) for piece in pieces]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_pmf(args) -> CommandOutput:
    _check_rational_cap(args, args.n)
    params = _params_of(args)
    mode = _mode_of(args)
    inputs = [("n", args.n), ("p", params.p)]
    if args.k is not None:
        inputs.append(("k", args.k))
        return _labelled(args, inputs, [("probability", pmf_at(args.n, args.k, params, mode))])
    dist = pmf_dn(args.n, params, mode)
    rows = [[k, dist.mass(k)] for k in dist.support()]
    values = [(str(k), mass) for k, mass in rows]
    return CommandOutput(_record(args, inputs, values), ["k", "probability"], rows)


def _cmd_var(args) -> CommandOutput:
    params = _params_of(args)
    mode = _mode_of(args)
    if args.limit is not None:
        inputs = [("p", params.p), ("limit", args.limit)]
        return _labelled(args, inputs, [("limit_variance", asymptotic_var(params, args.limit))])
    if args.n is None:
        raise ValueError("var needs --n or --limit {even,odd}")
    _check_rational_cap(args, args.n)
    inputs = [("n", args.n), ("p", params.p)]
    return _labelled(args, inputs, [("variance", var_dn(args.n, params, mode))])


def _cmd_stationary(args) -> CommandOutput:
    params = _params_of(args)
    dist = StationaryDist(params)
    ks = range(args.max_k + 1)
    rows = [[k, dist.pi(k), dist.two_sided_limit(k)] for k in ks]
    values = []
    for k, pi_k, limit_k in rows:
        values.append((f"pi({k})", pi_k))
        values.append((f"two_sided({k})", limit_k))
    inputs = [("p", params.p), ("max_k", args.max_k)]
    return CommandOutput(
        _record(args, inputs, values),
        ["k", "stationary_mass", "two_sided_limit"],
        rows,
    )


def _threshold_sentinel(n_threshold, n_max: int):
    return n_threshold if n_threshold is not None else f">{n_max}"


def _cmd_threshold(args) -> CommandOutput:
    ks = _parse_list(args.k, int)
    ps = [parse_probability(text) for text in _parse_list(args.p, str)]
    tols = _parse_list(args.tol, float)
    grid = tables.threshold_grid(ks, ps, tols, n_max=args.n_max)
    rows = []
    values = []
    for cell in grid:
        shown = _threshold_sentinel(cell["n_threshold"], args.n_max)
        rows.append([cell["k"], float(cell["p"]), cell["tol"], shown])
        values.append((f"k={cell['k']},p={float(cell['p'])},tol={cell['tol']}", shown))
    inputs = [("k", args.k), ("p", args.p), ("tol", args.tol), ("n_max", args.n_max)]
    return CommandOutput(
        _record(args, inputs, values),
        ["k", "p", "tol", "n_threshold"],
        rows,
    )


def _cmd_table2(args) -> CommandOutput:
    even_n = _parse_list(args.even_n, int)
    odd_n = _parse_list(args.odd_n, int)
    ps = _parse_list(args.p, float)
    grid = tables.variance_grid(even_n, odd_n, ps, places=args.places)
    rows = [[r["parity"], r["n"], r["p"], r["variance"], r["rounded"]] for r in grid]
    values = [
        (f"parity={r['parity']},n={'inf' if r['n'] is None else r['n']},p={r['p']}", r["variance"])
        for r in grid
    ]
    inputs = [("even_n", args.even_n), ("odd_n", args.odd_n), ("p", args.p)]
    return CommandOutput(
        _record(args, inputs, values),
        ["parity", "n", "p", "variance", "rounded"],
        rows,
    )


def _cmd_table3(args) -> CommandOutput:
    ns = _parse_list(args.n, int)
    ps = _parse_list(args.p, float)
    grid = tables.selection_bias_grid(ns, ps, places=args.places)
    rows = [[r["n"], r["p"], r["average_excess"], r["rounded"]] for r in grid]
    values = [
        (f"n={'inf' if r['n'] is None else r['n']},p={r['p']}", r["average_excess"])
        for r in grid
    ]
    inputs = [("n", args.n), ("p", args.p)]
    return CommandOutput(
        _record(args, inputs, values),
        ["n", "p", "average_excess", "rounded"],
        rows,
    )


def _conjecture_values(params: DesignParams, spectrum) -> list[tuple]:
    """The four rows of the largest-eigenvalue-versus-2p diagnostic."""
    report = max_eigen_report(params, spectrum)
    return [
        ("lambda_max", report.lambda_max),
        ("two_p", report.two_p),
        ("gap", report.gap),
        ("agrees_within_1e-8", report.agrees),
    ]


def _cmd_sigma(args) -> CommandOutput:
    _check_sigma_cap(args, args.n)
    if (args.eigen or args.check_conjecture) and args.n < 2:
        raise ValueError("need n >= 2")
    params = _params_of(args)
    cov = sigma(args.n, params, _mode_of(args))
    header = [f"c{j}" for j in range(1, args.n + 1)]
    rows = [[cov.entry(i, j) for j in range(1, args.n + 1)] for i in range(1, args.n + 1)]
    values = [
        (f"sigma({i},{j})", cov.entry(i, j))
        for i in range(1, args.n + 1)
        for j in range(i, args.n + 1)
    ]
    if args.eigen or args.check_conjecture:
        spectrum = eigen_spectrum(cov)
        if args.eigen:
            for idx, lam in enumerate(spectrum, start=1):
                values.append((f"lambda({idx})", float(lam)))
                rows.append([f"lambda({idx})", float(lam)] + [None] * (args.n - 2))
        if args.check_conjecture:
            extra = _conjecture_values(params, spectrum)
            values.extend(extra)
            rows.extend([label, value] + [None] * (args.n - 2) for label, value in extra)
    inputs = [("n", args.n), ("p", params.p)]
    return CommandOutput(_record(args, inputs, values), header, rows)


def _cmd_eigen(args) -> CommandOutput:
    _check_sigma_cap(args, args.n)
    params = _params_of(args)
    cov = sigma(args.n, params, _mode_of(args))
    spectrum = eigen_spectrum(cov)
    residual = verify_2p_eigenpair(cov)
    rows = [[idx, float(lam)] for idx, lam in enumerate(spectrum, start=1)]
    values = [(f"lambda({idx})", lam) for idx, lam in rows]
    values.append(("two_p_eigenpair_residual", residual))
    rows.append(["two_p_eigenpair_residual", residual])
    if args.check_conjecture:
        extra = _conjecture_values(params, spectrum)
        values.extend(extra)
        rows.extend([label, value] for label, value in extra)
    inputs = [("n", args.n), ("p", params.p)]
    return CommandOutput(_record(args, inputs, values), ["index", "eigenvalue"], rows)


def _cmd_selection_bias(args) -> CommandOutput:
    _check_rational_cap(args, args.n)
    params = _params_of(args)
    mode = _mode_of(args)
    report = selection_bias_report(args.n, params, mode)
    closed = total_bias_closed_form(args.n, params, mode)
    inputs = [("n", args.n), ("p", params.p)]
    if args.per_step:
        rows = [[j, value] for j, value in enumerate(report.per_step, start=1)]
        values = [(f"step({j})", value) for j, value in rows]
        return CommandOutput(
            _record(args, inputs, values), ["draw", "guess_probability"], rows
        )
    values = [
        ("expected_correct_total", report.total),
        ("closed_form_total", closed),
        ("excess", report.excess),
        ("average_excess", report.average_excess),
    ]
    return _labelled(args, inputs, values)


def _cmd_accidental_bias(args) -> CommandOutput:
    _check_sigma_cap(args, args.n)
    params = _params_of(args)
    cov = sigma(args.n, params, _mode_of(args))
    if args.z is not None:
        z = np.array(_parse_list(args.z, float))
    else:
        z = two_p_eigenvector(args.n)
    value = accidental_bias(z, cov)
    inputs = [("n", args.n), ("p", params.p), ("z", ",".join(repr(float(c)) for c in z))]
    return _labelled(args, inputs, [("quadratic_form", float(value))])


def _cmd_ranktest(args) -> CommandOutput:
    _float_only(args)
    raw = _read_numbers(args.scores)
    scores = (
        ScoreVector.centered_ranks(raw) if args.ranks else ScoreVector.from_values(raw)
    )
    n = len(scores)
    if args.n is not None and args.n != n:
        raise ValueError(f"--n {args.n} does not match {n} scores from {args.scores}")
    _check_sigma_cap(args, n)
    params = _params_of(args)
    cov = sigma(n, params)
    variance = rank_statistic_variance(scores, cov)
    sd = math.sqrt(variance)
    inputs = [("n", n), ("p", params.p), ("scores", args.scores), ("ranks", args.ranks)]
    values = [("sd_exact", sd), ("variance_exact", variance)]

    assignments = None
    if args.assignments is not None:
        raw_t = [int(v) for v in _read_numbers(args.assignments)]
        assignments = TreatmentSequence(np.array(raw_t, dtype=np.int8), params)
        inputs.append(("assignments", args.assignments))
    elif args.seed is not None:
        assignments = generate_sequence(n, params, args.seed)
        inputs.append(("seed", args.seed))
    if assignments is not None:
        if len(assignments) != n:
            raise ValueError(
                f"{len(assignments)} assignments do not match {n} scores"
            )
        w = rank_statistic(scores, assignments)
        values.append(("w_observed", w))
        values.append(("z_score", w / sd if sd > 0 else math.nan))
        if args.reps is not None:
            pv = rank_pvalue_mc(
                scores, w, params, args.reps, seed=args.seed if args.seed is not None else 0
            )
            values.append(("p_value_mc", pv))
            values.append(("replicates", args.reps))
    elif args.reps is not None:
        raise ValueError(
            "a Monte Carlo p-value needs an observed statistic: give "
            "--assignments FILE or --seed to generate one run"
        )
    return _labelled(args, inputs, values)


def _cmd_simulate(args) -> CommandOutput:
    _float_only(args)
    params = _params_of(args)
    statistic = parse_statistic(args.statistic, args.n)
    estimate = mc_estimate(
        args.n,
        params,
        statistic,
        replicates=args.reps,
        seed=args.seed,
        batch_size=args.batch_size,
        jobs=args.threads,
    )
    exact = statistic.exact(args.n, params)
    gap = abs(estimate.point - exact)
    z = gap / estimate.std_error if estimate.std_error > 0 else (0.0 if gap == 0 else math.inf)
    inputs = [
        ("n", args.n),
        ("p", params.p),
        ("statistic", args.statistic),
        ("reps", args.reps),
        ("seed", args.seed),
    ]
    values = [
        ("estimate", estimate.point),
        ("std_error", estimate.std_error),
        ("exact", exact),
        ("abs_z", z),
        ("replicates", estimate.replicates),
    ]
    return _labelled(args, inputs, values)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, mode=True):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    if mode:
        sub.add_argument("--mode", choices=("float", "rational"), default="float")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcdexact",
        description=(
            "Exact finite-sample properties of the biased coin design: "
            "imbalance distribution, covariance of assignments, selection "
            "and accidental bias, plus Monte Carlo cross-checks."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("pmf", help="exact distribution of the terminal imbalance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--k", type=int, default=None, help="single signed imbalance value")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_pmf)

    sub = subs.add_parser("var", help="variance of the terminal imbalance")
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--p", required=True)
    sub.add_argument(
        "--limit",
        choices=("even", "odd"),
        default=None,
        help="large-n limit for the given parity instead of a finite n",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_var)

    sub = subs.add_parser("stationary", help="steady-state imbalance distribution")
    sub.add_argument("--p", required=True)
    sub.add_argument("--max-k", type=int, default=10)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_stationary)

    sub = subs.add_parser(
        "threshold",
        help="first n at which the imbalance distribution matches its limit",
    )
    sub.add_argument("--k", default="0,1,2,25,50", help="comma list of |imbalance| values")
    sub.add_argument("--p", default="0.6,0.7,0.8,0.9", help="comma list of probabilities")
    sub.add_argument("--tol", default="0.10,0.05,0.01,0.001", help="comma list of relative tolerances")
    sub.add_argument("--n-max", type=int, default=500,
                     help=f"last n scanned, at most {SCAN_N_MAX}")
    _add_common(sub, mode=False)
    sub.set_defaults(handler=_cmd_threshold, mode="float")

    sub = subs.add_parser("table2", help="imbalance variance grid with its limit row")
    sub.add_argument("--even-n", default="10,20,50,100,200")
    sub.add_argument("--odd-n", default="5,15,25,75")
    sub.add_argument("--p", default="0.6,0.7,0.8,0.9")
    sub.add_argument("--places", type=int, default=2)
    _add_common(sub, mode=False)
    sub.set_defaults(handler=_cmd_table2, mode="float")

    sub = subs.add_parser("table3", help="average excess guessing advantage grid")
    sub.add_argument("--n", default="5,10,15,20,25,50,75,100,200")
    sub.add_argument("--p", default="0.6,0.7,0.8,0.9")
    sub.add_argument("--places", type=int, default=3)
    _add_common(sub, mode=False)
    sub.set_defaults(handler=_cmd_table3, mode="float")

    sub = subs.add_parser("sigma", help="covariance matrix of the signed assignments")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--eigen", action="store_true", help="append the spectrum")
    sub.add_argument(
        "--check-conjecture",
        action="store_true",
        help="report how close the largest eigenvalue is to 2p (diagnostic only)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_sigma)

    sub = subs.add_parser("eigen", help="spectrum of the assignment covariance")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--check-conjecture", action="store_true")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_eigen)

    sub = subs.add_parser(
        "selection-bias", help="expected correct guesses for the lagging-arm guesser"
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--per-step", action="store_true", help="one row per draw")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_selection_bias)

    sub = subs.add_parser(
        "accidental-bias",
        help="covariate quadratic form z'(Sigma)z for a unit vector z",
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument(
        "--z",
        default=None,
        help="comma list of unit-norm coefficients (default: the known worst-case vector)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_accidental_bias)

    sub = subs.add_parser(
        "ranktest", help="linear rank statistic: exact sd and Monte Carlo p-value"
    )
    sub.add_argument("--scores", required=True, help="file of score values")
    sub.add_argument("--n", type=int, default=None, help="expected number of scores")
    sub.add_argument("--p", required=True)
    sub.add_argument(
        "--ranks",
        action="store_true",
        help="replace scores by centered midranks before testing",
    )
    sub.add_argument("--assignments", default=None, help="file of observed +1/-1 assignments")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--reps", type=int, default=None, help="Monte Carlo p-value replicates")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_ranktest)

    sub = subs.add_parser(
        "simulate", help="Monte Carlo estimate of a named statistic next to its exact value"
    )
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument(
        "--statistic",
        required=True,
        help="balance, variance, selection-bias, or cov(i,j)",
    )
    sub.add_argument("--reps", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--batch-size", type=int, default=1 << 16,
                     help=f"runs per batch; one batch may hold at most {MC_BATCH_BYTES >> 20} MiB")
    sub.add_argument("--threads", type=int, default=1,
                     help="batches walked at once, at most one per batch and per CPU")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run `bcdexact {args.command} --help` for usage", file=sys.stderr)
        return 2
    text = output.render(args.format)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
