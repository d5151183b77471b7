"""End-to-end CLI tests: run main() in process and inspect its output."""

import json
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import bcdexact.cli
import bcdexact.covariance
import bcdexact.simulate
from bcdexact.cli import (
    FLOAT_SIGMA_N_CAP,
    RATIONAL_N_CAP,
    SIMULATE_N_CAPS,
    STATIONARY_MAX_K,
    main,
)
from bcdexact.covariance import (
    ConvergenceError,
    eigen_spectrum,
    max_eigen_report,
    sigma,
    verify_2p_eigenpair,
)
from bcdexact.design import DesignParams
from bcdexact.exact import SCAN_N_MAX
from test_mc_walk import LAUNCHER

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# basic commands and output formats


def test_pmf_single_mass_prints_p_at_n_two(capsys):
    code, out, err = run_cli(capsys, "pmf", "--n", "2", "--p", "0.6667", "--k", "0")
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    assert header == ["label", "value"]
    assert rows == [["probability", "0.6667"]]


def test_pmf_full_support_halves_at_n_one(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--n", "1", "--p", "0.9")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["-1", "0.5"], ["1", "0.5"]]


def test_pmf_rational_mode_prints_fractions(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--n", "5", "--p", "3/5", "--k", "5", "--mode", "rational"
    )
    assert code == 0
    assert "8/625" in out


@pytest.mark.parametrize("argv", [
    ("--n", "41", "--p", "0.7", "--k", "3"),
    ("--n", "41", "--p", "0.7", "--k", "-41"),
    ("--n", "41", "--p", "0.7", "--k", "2"),  # off the parity support
    ("--n", "41", "--p", "0.7", "--k", "43"),  # beyond n
    ("--n", "0", "--p", "0.9", "--k", "0"),
    ("--n", "230", "--p", "0.999", "--k", "0"),
    ("--n", "12", "--p", "3/5", "--k", "4", "--mode", "rational"),
    ("--n", "12", "--p", "3/5", "--k", "5", "--mode", "rational"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pmf_single_mass_reads_one_mass_with_the_law_bits(capsys, monkeypatch, argv, fmt):
    # the value the whole law gives, rendered as the command renders it
    _, law, _ = run_cli(capsys, "pmf", *argv[:4], *argv[6:])
    k = int(argv[5])
    masses = dict(csv_rows(law)[1])
    zero = "0/1" if "rational" in argv else "0.0"
    value = masses.get(str(k), zero)
    calls = []
    monkeypatch.setattr(bcdexact.cli, "pmf_dn", lambda *a: calls.append(a))
    code, out, err = run_cli(capsys, "pmf", *argv, "--format", fmt)
    assert code == 0 and err == "" and calls == []
    if fmt == "csv":
        assert out == f"label,value\nprobability,{value}\n"
    else:
        record = json.loads(out)
        got = record["values"]
        assert got == [["probability", value if "/" in value else float(value)]]


def test_selection_bias_rational_totals(capsys):
    code, out, _ = run_cli(
        capsys, "selection-bias", "--n", "6", "--p", "2/3", "--mode", "rational"
    )
    assert code == 0
    header, rows = csv_rows(out)
    as_dict = {label: value for label, value in rows}
    assert as_dict["expected_correct_total"] == "587/162"
    assert as_dict["closed_form_total"] == "587/162"
    assert as_dict["excess"] == "101/162"


def test_selection_bias_per_step_rows(capsys):
    code, out, _ = run_cli(
        capsys, "selection-bias", "--n", "3", "--p", "2/3", "--per-step",
        "--mode", "rational",
    )
    assert code == 0
    _, rows = csv_rows(out)
    assert rows == [["1", "1/2"], ["2", "2/3"], ["3", "5/9"]]


def test_sigma_fair_coin_is_the_identity(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--n", "3", "--p", "0.5")
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["c1", "c2", "c3"]
    assert rows == [
        ["1.0", "0.0", "0.0"],
        ["0.0", "1.0", "0.0"],
        ["0.0", "0.0", "1.0"],
    ]


def test_sigma_two_by_two_with_spectrum(capsys):
    code, out, _ = run_cli(capsys, "sigma", "--n", "2", "--p", "0.8", "--eigen")
    assert code == 0
    _, rows = csv_rows(out)
    assert [float(v) for v in rows[0]] == pytest.approx([1.0, -0.6])
    assert [float(v) for v in rows[1]] == pytest.approx([-0.6, 1.0])
    eigen_rows = {row[0]: row[1] for row in rows[2:]}
    assert float(eigen_rows["lambda(1)"]) == pytest.approx(1.6)
    assert float(eigen_rows["lambda(2)"]) == pytest.approx(0.4)


def test_eigen_reports_the_2p_residual_and_conjecture_gap(capsys):
    code, out, _ = run_cli(
        capsys, "eigen", "--n", "6", "--p", "0.7", "--check-conjecture"
    )
    assert code == 0
    _, rows = csv_rows(out)
    as_dict = {row[0]: row[1] for row in rows}
    assert float(as_dict["two_p_eigenpair_residual"]) < 1e-10
    assert float(as_dict["lambda_max"]) == pytest.approx(1.4, abs=1e-8)
    assert float(as_dict["two_p"]) == pytest.approx(1.4)
    assert as_dict["agrees_within_1e-8"] == "True"


def test_var_finite_and_limit_routes(capsys):
    code, out, _ = run_cli(
        capsys, "var", "--n", "2", "--p", "3/5", "--mode", "rational"
    )
    assert code == 0 and "8/5" in out
    code, out, _ = run_cli(capsys, "var", "--p", "0.6", "--limit", "even")
    assert code == 0
    _, rows = csv_rows(out)
    assert float(rows[0][1]) == pytest.approx(12.48)


def test_stationary_masses(capsys):
    code, out, _ = run_cli(
        capsys, "stationary", "--p", "2/3", "--max-k", "2", "--mode", "rational"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "stationary_mass", "two_sided_limit"]
    assert rows[0] == ["0", "1/4", "1/2"]
    assert rows[1] == ["1", "3/8", "3/4"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stationary_refuses_a_negative_max_k(capsys, fmt):
    code, out, err = run_cli(capsys, "stationary", "--p", "0.7", "--max-k", "-1", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: max_k must be >= 0\n")


def run_child(*args):
    """Exit code, wall time and peak RSS in KiB of `bcdexact.cli *args` as a child process."""
    src = Path(bcdexact.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "bcdexact.cli", *args]
    done = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    code, wall, maxrss_kb = done.stdout.splitlines()[-1].split()
    return int(code), float(wall), int(maxrss_kb)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_stationary_at_its_cap_stays_within_time_and_memory(fmt):
    # measured 0.3 to 0.56 s and 41 MB as CSV, 0.75 s and 54 MB as JSON
    # (2-vCPU Xeon VM); ten rows take 29 MB.  p = 0.5000001 never overflows.
    argv = ["stationary", "--p", "0.5000001", "--format", fmt]
    code, wall, maxrss_kb = run_child(*argv, "--max-k", str(STATIONARY_MAX_K))
    assert code == 0
    assert wall < 3.0, wall
    assert maxrss_kb < 100 * 1024, maxrss_kb
    code, wall, maxrss_kb = run_child(*argv, "--max-k", str(STATIONARY_MAX_K + 1))
    assert code == 2
    assert wall < 2.0, wall
    assert maxrss_kb < 60 * 1024, maxrss_kb


def test_rational_stationary_at_its_cap_stays_within_time_and_memory():
    # the digits of rational rows grow with k: at p = 7/10, --max-k 4000
    # took 1.1 s and 81 MB and 5000 took 2.0 s and 112 MB; 64 takes 0.3 s
    # and 29 MB (2-vCPU Xeon VM)
    argv = ["stationary", "--p", "7/10", "--mode", "rational", "--format", "json"]
    code, wall, maxrss_kb = run_child(*argv, "--max-k", str(RATIONAL_N_CAP))
    assert code == 0
    assert wall < 2.0, wall
    assert maxrss_kb < 60 * 1024, maxrss_kb
    code, wall, maxrss_kb = run_child(*argv, "--max-k", "5000")
    assert code == 2
    assert wall < 2.0, wall
    assert maxrss_kb < 60 * 1024, maxrss_kb


@pytest.mark.parametrize("command", ["sigma", "eigen"])
def test_rational_sigma_at_its_cap_stays_within_time_and_memory(command):
    # both took 0.25 to 0.34 s and 34 MB at p = 501/1000, as CSV or JSON
    # (2-vCPU Xeon VM); at p = 7/10 they take less
    code, wall, maxrss_kb = run_child(
        command, "--mode", "rational", "--n", str(RATIONAL_N_CAP), "--p", "501/1000")
    assert code == 0
    assert wall < 2.0, wall
    assert maxrss_kb < 60 * 1024, maxrss_kb


@pytest.mark.parametrize(
    "argv,named",
    [
        (["--p", "0.5000001", "--max-k", str(STATIONARY_MAX_K + 1)],
         f"stationary supports --max-k <= {STATIONARY_MAX_K} in float mode "
         f"(got --max-k = {STATIONARY_MAX_K + 1})"),
        (["--p", "7/10", "--max-k", str(RATIONAL_N_CAP + 1), "--mode", "rational"],
         f"rational mode supports --max-k <= {RATIONAL_N_CAP} "
         f"(got --max-k = {RATIONAL_N_CAP + 1}); use --mode float"),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stationary_above_its_cap_is_refused_before_any_row(capsys, monkeypatch, argv, named, fmt):
    def refuse(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(bcdexact.cli, "StationaryDist", refuse)
    code, out, err = run_cli(capsys, "stationary", *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}\n")


def test_stationary_help_names_both_caps(capsys):
    with pytest.raises(SystemExit):
        main(["stationary", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"at most {STATIONARY_MAX_K} (float) or {RATIONAL_N_CAP} (rational)" in out


# p = (5 10^499 + 1)/10^500: the values of n = 10 have more digits than
# Python converts to text by default
LONG_P = f"{5 * 10**499 + 1}/{10**500}"


@pytest.mark.parametrize("command,digits", [("pmf", 4501), ("var", 4500)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_rational_value_too_long_to_print_is_refused_by_name(capsys, command, digits, fmt):
    code, out, err = run_cli(capsys, command, "--n", "10", "--p", LONG_P, "--mode", "rational",
                             "--format", fmt)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(
        f"error: a rational value has {digits} digits, more than the {limit} that Python "
        "converts to text; use --mode float\n"
    ), err


# 5,000 decimal digits: more than Python parses as one integer by default
MANY_DIGITS_P = "0." + "5" * 5000


@pytest.mark.parametrize("argv", [
    ["pmf", "--n", "2", "--p", MANY_DIGITS_P],
    ["pmf", "--n", "2", "--p", MANY_DIGITS_P, "--mode", "rational"],
    ["threshold", "--p", f"0.7,{MANY_DIGITS_P}"],
], ids=["float", "rational", "threshold list"])
def test_a_probability_with_too_many_digits_is_refused_by_its_count(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err.startswith(f"error: probability {MANY_DIGITS_P[:40]!r}... has a run of 5000 "
                          f"digits, more than the {limit} Python parses as one number\n"), err
    assert len(err) < 300


def test_accidental_bias_defaults_to_the_worst_case_vector(capsys):
    code, out, _ = run_cli(capsys, "accidental-bias", "--n", "8", "--p", "0.75")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0][0] == "quadratic_form"
    assert float(rows[0][1]) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("z,want", [
    (None, [math.sqrt(2) / 2, -math.sqrt(2) / 2, 0.0]),
    ("0.6,0.8,0", [0.6, 0.8, 0.0]),
])
def test_accidental_bias_json_records_z_as_plain_floats(capsys, z, want):
    argv = ["accidental-bias", "--n", "3", "--p", "0.7", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *(["--z", z] if z else []))
    assert code == 0
    text = dict(json.loads(out)["inputs"])["z"]
    assert [float(c) for c in text.split(",")] == want


def test_threshold_single_cell(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--k", "0", "--p", "0.8", "--tol", "0.01"
    )
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["k", "p", "tol", "n_threshold"]
    assert rows == [["0", "0.8", "0.01", "8"]]


def test_threshold_sentinel_for_unreached_cells(capsys):
    code, out, _ = run_cli(
        capsys, "threshold", "--k", "50", "--p", "0.6", "--tol", "0.001",
        "--n-max", "500",
    )
    assert code == 0
    assert ">500" in out


def test_threshold_horizon_above_the_scan_bound_is_refused(capsys):
    code, out, err = run_cli(capsys, "threshold", "--n-max", str(SCAN_N_MAX + 1))
    assert code == 2 and out == ""
    assert f"above {SCAN_N_MAX}" in err
    code, out, _ = run_cli(capsys, "threshold", "--k", "0", "--p", "0.9", "--tol", "0.01",
                           "--n-max", str(SCAN_N_MAX))
    assert code == 0 and out.splitlines()[1] == "0,0.9,0.01,4"


@pytest.mark.parametrize("tol", ["nan", "0", "0.01,nan"])
def test_threshold_refuses_a_tolerance_that_is_not_positive(capsys, tol):
    code, out, err = run_cli(capsys, "threshold", "--tol", tol)
    assert (code, out) == (2, "")
    assert err.startswith("error: tolerance must be positive")


def test_threshold_takes_an_infinite_tolerance(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--k", "0", "--p", "0.7", "--tol", "inf")
    assert (code, out) == (0, "k,p,tol,n_threshold\n0,0.7,inf,2\n")


# ---------------------------------------------------------------------------
# json format and reading it back


def test_json_round_trip_preserves_fractions(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--n", "4", "--p", "9/10", "--format", "json",
        "--mode", "rational",
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "pmf"
    assert record["mode"] == "rational"
    values = dict(record["values"])
    assert Fraction(values["0"]) == Fraction(891, 1000)
    assert Fraction(values["4"]) == Fraction(1, 2000)
    assert Fraction(dict(record["inputs"])["p"]) == Fraction(9, 10)


def test_json_output_is_plain_json(capsys):
    code, out, _ = run_cli(capsys, "var", "--n", "10", "--p", "0.7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "var"
    assert payload["values"][0][0] == "variance"
    assert isinstance(payload["values"][0][1], float)


def test_out_flag_writes_the_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "pmf.csv"
    code, out, _ = run_cli(
        capsys, "pmf", "--n", "2", "--p", "0.6667", "--k", "0", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "label,value\nprobability,0.6667\n"


@pytest.mark.parametrize(
    "p,target",
    [("0.7", "{tmp}"), ("0.7", "{tmp}/missing/pmf.csv"), ("1.5", "{tmp}/pmf.csv")],
    ids=["directory", "missing-parent", "failing-command"],
)
def test_an_out_file_that_is_not_written_exits_2_and_prints_nothing(tmp_path, capsys, p, target):
    code, out, err = run_cli(
        capsys, "pmf", "--n", "5", "--p", p, "--out", target.format(tmp=tmp_path)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# golden files: the default grids are byte-stable


@pytest.mark.parametrize(
    "name,argv",
    [
        ("threshold_defaults.csv", ["threshold"]),
        ("variance_defaults.csv", ["table2"]),
        ("selection_bias_defaults.csv", ["table3"]),
    ],
)
def test_default_grids_match_the_golden_bytes(tmp_path, capsys, name, argv):
    target = tmp_path / name
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


# Cheap commands of every kind with their expected exit code and stdout.
# "{files}" in an argv or a stdout names a directory holding the corpus's
# input files (a JSON record echoes the paths it read).
CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text())


@pytest.mark.parametrize("case", CORPUS["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_corpus_stdout_is_unchanged(tmp_path, capsys, case):
    for name, text in CORPUS["files"].items():
        (tmp_path / name).write_text(text)
    argv = [arg.replace("{files}", str(tmp_path)) for arg in case["argv"]]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (case["exit"], case["stdout"].replace("{files}", str(tmp_path)))


# ---------------------------------------------------------------------------
# rank test workflows


def write_values(path, values):
    path.write_text(" ".join(str(v) for v in values) + "\n")


def test_ranktest_known_eigenvector_scores(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    root_half = math.sqrt(2) / 2
    write_values(scores, [root_half, -root_half])
    code, out, _ = run_cli(
        capsys, "ranktest", "--scores", str(scores), "--p", "0.75"
    )
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    assert float(as_dict["sd_exact"]) == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert float(as_dict["variance_exact"]) == pytest.approx(1.5, abs=1e-12)
    assert "w_observed" not in as_dict


def test_ranktest_zero_scores_have_zero_sd(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    write_values(scores, [0.0, 0.0, 0.0])
    code, out, _ = run_cli(capsys, "ranktest", "--scores", str(scores), "--p", "0.7")
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    assert float(as_dict["sd_exact"]) == 0.0


def test_ranktest_with_observed_assignments_and_pvalue(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    assignments = tmp_path / "t.txt"
    write_values(scores, [1.0, 2.0, 3.0, 4.0])
    write_values(assignments, [1, -1, 1, -1])
    code, out, _ = run_cli(
        capsys, "ranktest", "--scores", str(scores), "--ranks", "--p", "0.7",
        "--assignments", str(assignments), "--reps", "999",
    )
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    # centered midranks of distinct values are (-1.5, -0.5, 0.5, 1.5)
    assert float(as_dict["w_observed"]) == pytest.approx(-2.0)
    assert 0.0 < float(as_dict["p_value_mc"]) <= 1.0
    assert as_dict["replicates"] == "999"


def test_ranktest_generates_a_run_from_a_seed(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    write_values(scores, [0.5, -1.5, 2.5])
    code, out, _ = run_cli(
        capsys, "ranktest", "--scores", str(scores), "--p", "0.6", "--seed", "42",
        "--reps", "499",
    )
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    assert "w_observed" in as_dict and "p_value_mc" in as_dict


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4", "--p", "0.7", "--statistic", "balance", "--reps", "10"],
    ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7"],
    ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7", "--reps", "9"],
    ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7", "--reps", "9",
     "--assignments", "{files}/run.txt"],
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, argv, fmt):
    write_values(tmp_path / "scores.txt", [1, 2, 3])
    write_values(tmp_path / "run.txt", [1, -1, 1])
    argv = [arg.replace("{files}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--seed", "-1", "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: --seed must be >= 0, got -1\n")


def test_ranktest_ignores_a_negative_seed_beside_observed_assignments(tmp_path, capsys):
    # the seed draws nothing here, so it is not refused
    write_values(tmp_path / "scores.txt", [1, 2, 3])
    write_values(tmp_path / "run.txt", [1, -1, 1])
    argv = ["ranktest", "--scores", str(tmp_path / "scores.txt"), "--p", "0.7",
            "--assignments", str(tmp_path / "run.txt")]
    assert run_cli(capsys, *argv, "--seed", "-1") == run_cli(capsys, *argv)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_balance_sits_near_the_exact_value(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "2", "--p", "2/3", "--statistic", "balance",
        "--reps", "100000", "--seed", "1", "--threads", "2",
    )
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    assert float(as_dict["exact"]) == pytest.approx(2 / 3, abs=1e-12)
    assert float(as_dict["abs_z"]) < 4.0
    assert as_dict["replicates"] == "100000"


def test_simulate_deterministic_coin_nails_the_neighbour_covariance(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "4", "--p", "1", "--statistic", "cov(1,2)",
        "--reps", "2000", "--seed", "3", "--threads", "1",
    )
    assert code == 0
    as_dict = dict(csv_rows(out)[1])
    assert float(as_dict["estimate"]) == -1.0
    assert float(as_dict["std_error"]) == 0.0
    assert float(as_dict["exact"]) == -1.0


@pytest.mark.parametrize("threads", [None, "-5", "0", "2", "1000000"])
def test_simulate_walks_its_batches_on_the_calling_thread(capsys, monkeypatch, threads):
    # a worker thread's malloc arena keeps the batch memory it freed, so a
    # threaded run would hold more than one batch; --threads changes nothing
    argv = ["simulate", "--n", "40", "--p", "0.7", "--statistic", "variance",
            "--reps", "10000", "--seed", "5", "--batch-size", "1000"]
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0

    def no_thread(self):
        raise AssertionError("simulate started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    flag = [] if threads is None else ["--threads", threads]
    assert run_cli(capsys, *argv, *flag) == serial


def refuse_to_run(*args):
    raise AssertionError("a run over the cap was started")


@pytest.mark.parametrize("statistic", sorted(SIMULATE_N_CAPS))
def test_simulate_refuses_n_over_its_statistic_cap_before_any_work(capsys, monkeypatch,
                                                                   statistic):
    for name in ("_walk_chunks", "pmf_at", "var_dn", "selection_bias_step"):
        monkeypatch.setattr(bcdexact.simulate, name, refuse_to_run)
    cap = SIMULATE_N_CAPS[statistic]
    code, out, err = run_cli(capsys, "simulate", "--n", str(cap + 1), "--p", "0.7",
                             "--statistic", statistic, "--reps", "2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: simulate --statistic {statistic} supports n <= {cap} "
                          f"(got n = {cap + 1})\n")
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert f"{statistic} (n <= {cap})" in " ".join(capsys.readouterr().out.split())


# ---------------------------------------------------------------------------
# failure modes and exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--n", "3", "--p", "1.5"],  # probability out of range
        ["pmf", "--n", "-1", "--p", "0.7"],  # negative n
        ["var", "--p", "0.7"],  # neither --n nor --limit
        ["pmf", "--n", str(RATIONAL_N_CAP + 1), "--p", "2/3", "--mode", "rational"],
        ["simulate", "--n", "4", "--p", "0.7", "--statistic", "entropy", "--reps", "10"],
        ["simulate", "--n", "4", "--p", "0.7", "--statistic", "balance",
         "--reps", "100", "--mode", "rational"],
        ["ranktest", "--scores", "/nonexistent/scores.txt", "--p", "0.7"],
        ["var", "--p", "0.5", "--limit", "even"],  # fair coin has no finite limit
    ],
)
def test_usage_errors_exit_with_code_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "--help" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pmf", "--n", "5", "--p", "1e400"],
        ["threshold", "--p", "0.7,1e400"],
        ["simulate", "--n", "5", "--p", "1e400", "--statistic", "balance", "--reps", "10"],
        ["ranktest", "--scores", "{files}/scores.txt", "--p", "1e400"],
        ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7",
         "--assignments", "{files}/inf.txt"],
        ["table2", "--places", "1075"],
        ["table3", "--places", "-1"],
        ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7",
         "--assignments", "{files}/nan.txt"],
        ["ranktest", "--scores", "{files}/abc.txt", "--p", "0.7"],
        ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7",
         "--assignments", "{files}/abc.txt"],
        ["ranktest", "--scores", "{files}/scores.txt", "--p", "0.7",
         "--assignments", "{files}/300.txt"],
    ],
)
def test_numbers_out_of_range_are_refused_by_name(tmp_path, capsys, argv):
    write_values(tmp_path / "scores.txt", [1, 2, 3])
    write_values(tmp_path / "inf.txt", [1, -1, "inf"])
    write_values(tmp_path / "nan.txt", [1, -1, "nan"])
    write_values(tmp_path / "abc.txt", [1, "abc", 3])
    write_values(tmp_path / "300.txt", [1, -1, 300])
    code, out, err = run_cli(capsys, *(arg.replace("{files}", str(tmp_path)) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err
    names = ("'1e400'", "inf.txt", "places", "nan.txt", "abc.txt", "300.txt")
    assert any(name in err for name in names), err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["stationary", "--p", "0.99", "--max-k", "154"], "pi(154) at p = 0.99"),
        (["stationary", "--p", "0.7", "--max-k", "837"], "pi(837) at p = 0.7"),
        (["threshold", "--k", "154", "--p", "0.99", "--tol", "0.1"], "pi(154) at p = 0.99"),
        (["accidental-bias", "--n", "2", "--p", "0.7", "--z", "nan,0"], "z must be unit length"),
    ],
)
def test_values_without_a_float_answer_are_refused(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named}") and "Traceback" not in err


def test_main_builds_its_parser_once_and_answers_as_fresh_builds(capsys, monkeypatch):
    argvs = [["sigma", "--n", "5", "--p", "0.7", "--mode", "rational"],
             ["pmf", "--n", "9", "--p", "0.7", "--format", "json"]]
    fresh = []
    for argv in argvs:
        args = bcdexact.cli.build_parser().parse_args(argv)
        fresh.append(args.handler(args).render(args))
    builds = []
    build = bcdexact.cli.build_parser
    monkeypatch.setattr(bcdexact.cli, "build_parser", lambda: builds.append(1) or build())
    bcdexact.cli._parser.cache_clear()
    try:
        shared = [run_cli(capsys, *argv) for argv in argvs]
    finally:
        bcdexact.cli._parser.cache_clear()
    assert builds == [1]
    assert shared == [(0, text, "") for text in fresh]


def test_places_beyond_the_default_context_are_answered(capsys):
    code, out, _ = run_cli(capsys, "table3", "--n", "5", "--p", "0.7", "--places", "30")
    assert code == 0
    _, rows = csv_rows(out)
    assert rows[0] == ["5", "0.7", "0.10651999999999999", "0.106519999999999989692689439380"]


def test_the_rounded_column_stays_fixed_point(capsys):
    _, out, _ = run_cli(capsys, "table3", "--n", "5", "--p", "0.5000001", "--places", "10")
    assert [row[-1] for row in csv_rows(out)[1]] == ["0.0000000625", "0.0000001000"]
    _, out, _ = run_cli(capsys, "table2", "--even-n", "10", "--odd-n", "5", "--p", "1",
                        "--places", "9")
    assert [row[-1] for row in csv_rows(out)[1]][:2] == ["0.000000000", "0.000000000"]


EDGE_INPUTS = [
    *([command, "--n", "6", "--p", p] for command in ("pmf", "var", "eigen") for p in ("1", "1/2")),
    *(["sigma", "--n", "6", "--p", p, "--mode", "rational"] for p in ("1", "1/2")),
    *([command, "--p", p] for command in ("table2", "table3", "threshold") for p in ("1", "0.5")),
    *(["stationary", "--p", p] for p in ("1", "1/2")),
    *(["pmf", "--n", n, "--p", "0.7"] for n in ("0", "1")),
    *(["var", "--n", n, "--p", "0.7"] for n in ("0", "1")),
    *(["sigma", "--n", n, "--p", "0.7", "--mode", "rational"] for n in ("0", "1")),
    *(["selection-bias", "--n", n, "--p", "1"] for n in ("0", "1")),
    ["eigen", "--n", "1", "--p", "0.7"],
    ["accidental-bias", "--n", "1", "--p", "0.7"],
    ["table2", "--even-n", "0", "--odd-n", "1"],
    ["table3", "--n", "0,1"],
    ["threshold", "--n-max", "1"],
    ["simulate", "--n", "1", "--p", "1", "--statistic", "balance", "--reps", "2"],
    ["simulate", "--n", "600", "--p", "0.99", "--statistic", "cov(1,600)", "--reps", "2"],
]


@pytest.mark.parametrize("argv", EDGE_INPUTS, ids=" ".join)
def test_edge_inputs_are_answered_or_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 2), err
    assert (out != "") == (code == 0)


def test_ranktest_reps_without_an_observed_run_is_an_error(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    write_values(scores, [1.0, -1.0])
    code, _, err = run_cli(
        capsys, "ranktest", "--scores", str(scores), "--p", "0.7", "--reps", "99"
    )
    assert code == 2
    assert "observed" in err


@pytest.mark.parametrize(
    "values,flags",
    [
        ([1, "inf", 3], ()),
        ([1, "nan", 3], ()),
        (["-inf", 2, 3], ("--seed", "1")),
        ([1, "nan", 3], ("--ranks",)),
    ],
)
def test_ranktest_refuses_non_finite_scores(tmp_path, capsys, values, flags):
    scores = tmp_path / "scores.txt"
    write_values(scores, values)
    code, out, err = run_cli(capsys, "ranktest", "--scores", str(scores), "--p", "0.7", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: scores in ") and str(scores) in err.splitlines()[0]


def test_ranktest_ranks_infinite_scores_like_any_other(tmp_path, capsys):
    outputs = []
    for name, top in [("inf.txt", "inf"), ("large.txt", "1e300")]:
        scores = tmp_path / name
        write_values(scores, [1, top, 3, -2])
        code, out, _ = run_cli(
            capsys, "ranktest", "--scores", str(scores), "--ranks", "--p", "0.7", "--seed", "4"
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_mismatched_score_count_is_an_error(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    write_values(scores, [1.0, -1.0, 0.0])
    code, _, err = run_cli(
        capsys, "ranktest", "--scores", str(scores), "--n", "5", "--p", "0.7"
    )
    assert code == 2
    assert "does not match" in err


@pytest.mark.parametrize("command", ["sigma", "eigen", "accidental-bias", "ranktest"])
def test_float_sigma_above_the_cap_is_refused_before_any_build(
    command, tmp_path, capsys, monkeypatch
):
    built = []
    monkeypatch.setattr(bcdexact.cli, "sigma", lambda *args, **kwargs: built.append(args))
    n = FLOAT_SIGMA_N_CAP + 1
    if command == "ranktest":
        scores = tmp_path / "scores.txt"
        write_values(scores, range(n))
        argv = ["ranktest", "--scores", str(scores), "--p", "0.7"]
    else:
        argv = [command, "--n", str(n), "--p", "0.7"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"n <= {FLOAT_SIGMA_N_CAP}" in err
    assert built == []


def test_check_conjecture_solves_the_spectrum_once(capsys, monkeypatch):
    n, params = 12, DesignParams(0.7)
    cov = sigma(n, params)
    spectrum = eigen_spectrum(cov)
    report = max_eigen_report(params, spectrum)
    want = "index,eigenvalue\n" + "".join(
        f"{idx},{lam!r}\n" for idx, lam in enumerate(spectrum.tolist(), start=1)
    )
    want += f"two_p_eigenpair_residual,{verify_2p_eigenpair(cov)!r}\n"
    want += f"lambda_max,{report.lambda_max!r}\ntwo_p,{report.two_p!r}\n"
    want += f"gap,{report.gap!r}\nagrees_within_1e-8,{report.agrees}\n"

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return eigen_spectrum(*args, **kwargs)

    monkeypatch.setattr(bcdexact.cli, "eigen_spectrum", counted)
    monkeypatch.setattr(bcdexact.covariance, "eigen_spectrum", counted)
    code, out, _ = run_cli(capsys, "eigen", "--n", str(n), "--p", "0.7", "--check-conjecture")
    assert code == 0
    assert len(calls) == 1
    assert out == want
    calls.clear()
    code, _, _ = run_cli(capsys, "sigma", "--n", "5", "--p", "0.7", "--eigen", "--check-conjecture")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("command", [["eigen"], ["sigma", "--eigen"], ["sigma", "--check-conjecture"]])
def test_a_spectrum_of_one_draw_is_refused(capsys, command):
    code, out, err = run_cli(capsys, *command, "--n", "1", "--p", "0.7")
    assert code == 2 and out == ""
    assert err.startswith("error: need n >= 2\n")


def test_sigma_with_its_spectrum_keeps_its_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "sigma", "--n", "2", "--p", "0.7", "--eigen", "--check-conjecture"
    )
    assert code == 0
    assert out == (
        "c1,c2\n"
        "1.0,-0.3999999999999999\n"
        "-0.3999999999999999,1.0\n"
        "lambda(1),1.3999999999999997\n"
        "lambda(2),0.6\n"
        "lambda_max,1.3999999999999997\n"
        "two_p,1.4\n"
        "gap,-2.220446049250313e-16\n"
        "agrees_within_1e-8,True\n"
    )


def test_convergence_failure_exits_with_code_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("rotation budget exhausted")

    monkeypatch.setattr(bcdexact.cli, "eigen_spectrum", explode)
    code, out, err = run_cli(capsys, "eigen", "--n", "4", "--p", "0.7")
    assert code == 3
    assert out == ""
    assert "rotation budget" in err
