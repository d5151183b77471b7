"""The seeded job generator: reproducible, seed-dependent, no repeated inputs."""

from fractions import Fraction

import pytest

from workloads import MAX_ROUNDS, P_GRID, WORKLOADS, make_jobs


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_job_list(workload, tmp_path):
    assert make_jobs(workload, 7, tmp_path) == make_jobs(workload, 7, tmp_path)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_give_different_job_lists(workload, tmp_path):
    first = make_jobs(workload, 1, tmp_path)
    second = make_jobs(workload, 2, tmp_path)
    assert [job.argv for job in first[:len(WORKLOADS[workload])]] != [
        job.argv for job in second[:len(WORKLOADS[workload])]]
    assert sum(a.argv != b.argv for a, b in zip(first, second)) > 0.9 * len(first)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_two_jobs_share_command_n_and_p(workload, seed, tmp_path):
    jobs = make_jobs(workload, seed, tmp_path)
    assert len(jobs) == MAX_ROUNDS * len(WORKLOADS[workload])
    assert len({job.key for job in jobs}) == len(jobs)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rounds_keep_the_kind_order_and_ranges(workload, tmp_path):
    kinds = WORKLOADS[workload]
    jobs = make_jobs(workload, 5, tmp_path, rounds=50)
    for index, job in enumerate(jobs):
        kind, n_range = kinds[index % len(kinds)]
        assert job.kind == kind
        assert job.p in P_GRID and Fraction("0.55") <= Fraction(job.p) <= Fraction("0.95")
        if n_range is None:
            assert job.n is None
        else:
            assert n_range[0] <= job.n <= n_range[1]
            if index < len(kinds):  # the warm-up round takes the top of the range
                assert job.n == n_range[1]
            if job.command != "ranktest":  # ranktest takes n from its score file
                assert job.argv[job.argv.index("--n") + 1] == str(job.n)
        # the thread count stays at the CLI default
        assert "--threads" not in job.argv


def test_a_short_prefix_covers_both_parities(tmp_path):
    jobs = make_jobs("imbalance", 3, tmp_path, rounds=8)
    for kind in ("pmf", "var", "selection-bias"):
        assert {job.n % 2 for job in jobs if job.kind == kind} == {0, 1}
