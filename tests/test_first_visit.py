"""First-return masses through the closed-form summand they share with D_n.

`factor_bag_first_visit` below is the float route `first_visit` took before
it read the summand l = (u - k)/2 of P(D_{u+k} = 0): its own factor bag
through `stable_term_product`, guarded at M = 4u, returned as is (so a
banked value came back as a FactoredProduct).  The shared route must give
the same floats, bit for bit, once a banked value is summed.
"""

import math
import random
from fractions import Fraction

import pytest

import bruteforce as bf
from bcdexact.cli import main
from bcdexact.covariance import FirstVisitTable, first_visit, joint_assignment
from bcdexact.design import DesignParams
from bcdexact.stable import FactoredProduct, stable_term_product, sum_term_values


def factor_bag_first_visit(k, steps, p):
    """f_k(steps) as its own factor bag through the scalar kernel (the oracle)."""
    k = abs(k)
    if k == 0:
        return 1.0 if steps == 0 else 0.0
    if steps < k or (steps - k) % 2:
        return 0.0
    toward, away = (steps + k) // 2, (steps - k) // 2
    q = 1.0 - p
    if q == 0.0 and away > 0:
        return 0.0
    small = [k / steps] + [p] * toward + [q] * away
    small += [1.0 / s for s in range(2, away + 1)]
    large = [float(toward + s) for s in range(1, away + 1)]
    return stable_term_product(small, large, 4.0 * steps)


_rng = random.Random(7)
RANDOM_PS = [round(0.5 + 0.5 * _rng.random(), 6) for _ in range(3)]


def sampled_points(seed):
    """Every k <= 60 with a spread of step counts up to 600, ends included."""
    rng = random.Random(seed)
    for k in range(0, 61):
        top = 600 - (600 - k) % 2
        steps = {0, 1, k, k + 1, k + 2, top} | {rng.randrange(k, 601) for _ in range(6)}
        yield from ((k, s) for s in sorted(steps))


@pytest.mark.parametrize("p", [0.5, 0.6, 0.75, 0.9, 0.99, 1.0, *RANDOM_PS])
def test_first_visit_equals_the_factor_bag(p):
    params = DesignParams(p)
    banked = 0
    for k, steps in sampled_points(int(p * 1e6)):
        want = factor_bag_first_visit(k, steps, p)
        got = first_visit(k, steps, params)
        assert type(got) is float, (k, steps, p, got)
        if isinstance(want, FactoredProduct):
            banked += 1
        else:
            assert got == want, (k, steps, p, got, want)
        assert got == sum_term_values([want]), (k, steps, p, got, want)
    if p == 0.99:
        assert banked > 0  # the banked branch is really exercised


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(9, 10), Fraction(1)])
def test_rational_first_visit_equals_the_path_oracle(p):
    params = DesignParams(p)
    for k in range(0, 5):
        for steps in range(0, 12):
            assert first_visit(k, steps, params, "rational") == bf.first_visit(k, steps, p)
    # and the direct first-passage formula at long step counts
    for k, steps in [point for point in sampled_points(11) if point[0]][::10]:
        toward, away = (steps + k) // 2, (steps - k) // 2
        want = Fraction(0) if steps < k or (steps - k) % 2 else (
            Fraction(k, steps) * math.comb(steps, toward) * p**toward * (1 - p) ** away
        )
        assert first_visit(k, steps, params, "rational") == want, (k, steps, p)


def test_banked_first_return_masses_add_up():
    got = FirstVisitTable(DesignParams(0.99)).f_hat(1, 600)
    want = FirstVisitTable(DesignParams(Fraction(99, 100)), "rational").f_hat(1, 600)
    assert type(got) is float
    assert abs(got - want) < 1e-12
    assert isinstance(factor_bag_first_visit(1, 501, 0.99), FactoredProduct)
    assert type(first_visit(1, 501, DesignParams(0.99))) is float


def test_cov_at_a_long_gap_near_p_1_answers(capsys):
    assert main(["simulate", "--n", "600", "--p", "0.99",
                 "--statistic", "cov(1,600)", "--reps", "2"]) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines())
    exact = 4 * joint_assignment(1, 600, DesignParams(Fraction(99, 100)), "rational") - 1
    assert abs(float(rows["exact"]) - exact) < 1e-12
