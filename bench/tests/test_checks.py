"""Each output check accepts the CLI's real output and rejects a perturbed one."""

import math
from fractions import Fraction

import pytest

import checks
from bcdexact.cli import main
from run import GOLDEN_DIR, run_job
from workloads import MC_REPS, Job, write_score_files


def output(job: Job) -> str:
    _, _, text, error = run_job(main, job.argv)
    assert error is None
    return text


def replace_cell(text: str, row: int, col: int, value: str) -> str:
    """Set data row `row` (0 = first after the header), column `col`."""
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def nudge(text: str, row: int, col: int, rel: float = 1e-9) -> str:
    value = float(text.splitlines()[row + 1].split(",")[col])
    return replace_cell(text, row, col, repr(value * (1 + rel) + rel))


def job(kind, *argv, n=None, p="0.735", **extra) -> Job:
    return Job(kind, (kind.partition(":")[0], *argv), n, p, **extra)


CASES = [
    # (job, perturbation of its correct output)
    (job("pmf", "--n", "31", "--p", "0.735", n=31), lambda t: nudge(t, 5, 1)),
    (job("var", "--n", "40", "--p", "0.735", n=40), lambda t: nudge(t, 0, 1)),
    (job("table2", "--p", "0.735"), lambda t: nudge(t, 2, 3)),
    (job("threshold", "--p", "0.735"),
     lambda t: replace_cell(t, 0, 3, str(int(t.splitlines()[1].split(",")[3]) + 2))),
    (job("selection-bias", "--n", "41", "--p", "0.735", n=41), lambda t: nudge(t, 0, 1)),
    (job("table3", "--p", "0.735"), lambda t: nudge(t, 7, 2)),
    (job("eigen", "--n", "10", "--p", "0.735", "--check-conjecture", n=10),
     lambda t: nudge(t, 3, 1, rel=1e-7)),
    (job("accidental-bias", "--n", "12", "--p", "0.735", n=12), lambda t: nudge(t, 0, 1)),
    (job("simulate:variance", "--n", "20", "--p", "0.735", "--statistic", "variance",
         "--reps", "4000", "--seed", "3", n=20, reps=4000), lambda t: nudge(t, 2, 1)),
    (job("simulate:cov", "--n", "20", "--p", "0.735", "--statistic", "cov(2,5)",
         "--reps", "4000", "--seed", "3", n=20, reps=4000),
     lambda t: replace_cell(t, 0, 1, "0.5")),
]


@pytest.mark.parametrize("case", CASES, ids=[case[0].kind for case in CASES])
def test_checker_accepts_real_output_and_rejects_a_perturbed_one(case):
    the_job, perturb = case
    text = output(the_job)
    checks.check(the_job, text)
    bad = perturb(text)
    assert bad != text
    with pytest.raises(checks.CheckFailed):
        checks.check(the_job, bad)


def test_sigma_checker_compares_sampled_entries_with_enumeration():
    the_job = job("sigma", "--n", "8", "--p", "0.735", "--mode", "rational",
                  n=8, pairs=((1, 3), (2, 6)))
    text = output(the_job)
    checks.check(the_job, text)
    wrong = str(Fraction(text.splitlines()[1].split(",")[2]) + Fraction(1, 10**9))
    bad = replace_cell(replace_cell(text, 0, 2, wrong), 2, 0, wrong)  # keep it symmetric
    with pytest.raises(checks.CheckFailed, match="enumeration"):
        checks.check(the_job, bad)


def test_ranktest_checker_rejects_a_p_value_below_one_over_r_plus_one(tmp_path):
    write_score_files(tmp_path, 1)
    the_job = job("ranktest", "--scores", str(tmp_path / "scores-n24.txt"), "--p", "0.735",
                  "--seed", "9", "--reps", str(MC_REPS), n=24, reps=MC_REPS)
    text = output(the_job)
    checks.check(the_job, text)
    with pytest.raises(checks.CheckFailed, match="p-value"):
        checks.check(the_job, replace_cell(text, 4, 1, "0.0"))


def test_golden_check_rejects_one_changed_byte(tmp_path):
    golden = GOLDEN_DIR / "variance_defaults.csv"
    text = golden.read_text()
    checks.check_golden(text, golden)
    with pytest.raises(checks.CheckFailed):
        checks.check_golden(text.replace("5.19", "5.20", 1), golden)
    assert golden.read_text() == text  # the golden file is only read


def test_persistence_threshold_accepts_either_side_of_a_cell_on_the_tolerance():
    masses, ns = [0.5, 0.4, 0.3], range(2, 8, 2)
    target = 0.33  # relative gaps 0.34, 0.175 and 0.1 up to rounding
    assert checks._persistence_threshold(masses, ns, target, 0.1 * (1 + 1e-9)) == 6
    assert checks._persistence_threshold(masses, ns, target, 0.1 * (1 - 1e-9)) == math.inf
    assert checks._persistence_threshold(masses, ns, target, 1.0) == 2
