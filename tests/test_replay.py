"""Lane-parallel replay of the guarded kernel against the per-term loop.

`per_term_mass` below is the float route as it was before the replay: every
summand of the closed form through `term_factors` and `stable_term_product`,
summed by `sum_term_values`.  The replay must give the same floats, bit for
bit, so every comparison here is `==`.
"""

import math
import random

import pytest

import bcdexact.exact
import bcdexact.stable
from bcdexact.bias import selection_bias_report
from bcdexact.design import DesignParams
from bcdexact.exact import pmf_at, pmf_masses, term_factors
from bcdexact.stable import (
    UNDERFLOW_GUARD,
    FactoredProduct,
    replay_term_products,
    stable_term_product,
    sum_term_values,
)


def per_term_mass(n, k, params):
    """P(D_n = k) summand by summand through the scalar kernel (the oracle)."""
    k = abs(k)
    if k > n or (n - k) % 2:
        return 0.0
    if n == 0:
        return 1.0
    q = float(params.q)
    values = []
    for l in range((n - k) // 2 + 1 if k > 0 else n // 2):
        if q == 0.0 and (k + l - 1 if k > 0 else l) > 0:
            continue
        small, large = term_factors(n, k, l, params)
        values.append(stable_term_product(small, large, 4.0 * n))
    return sum_term_values(values)


def assert_law_matches(n, params, ks=None):
    ks = list(range(n % 2, n + 1, 2)) if ks is None else ks
    got = pmf_masses([(n, k) for k in ks], params)
    for k, value in zip(ks, got):
        want = per_term_mass(n, k, params)
        assert value == want and type(value) is float, (n, k, float(params.p), value, want)


_rng = random.Random(20261018)
RANDOM_PS = [round(0.5 + 0.5 * _rng.random(), 6) for _ in range(3)]


# 0.5 ties p, q and 1/2 with the harmonic 1/2; q = 1/4 at p = 0.75 ties 1/4
@pytest.mark.parametrize("p", [0.5, 0.501, 0.75, 0.999, 1.0, *RANDOM_PS])
def test_replay_equals_the_per_term_kernel(p):
    params = DesignParams(p)
    for n in (1, 2, 3, 8, 41, 100, 171):
        assert_law_matches(n, params)


@pytest.mark.parametrize("p", [0.5, 0.611, 0.999])
def test_replay_equals_the_per_term_kernel_at_n_300(p):
    assert_law_matches(300, DesignParams(p), ks=list(range(0, 301, 6)))


def banked_lanes(n, params):
    """How many summands of the law of D_n bank under the underflow guard."""
    count = 0
    for k in range(n % 2, n + 1, 2):
        for l in range((n - k) // 2 + 1 if k > 0 else n // 2):
            if isinstance(stable_term_product(*term_factors(n, k, l, params), 4.0 * n),
                          FactoredProduct):
                count += 1
    return count


def test_banked_lanes_keep_their_factored_products():
    params = DesignParams(0.999)
    assert banked_lanes(300, params) > 100
    assert_law_matches(300, params, ks=list(range(150, 301, 2)))


def test_a_law_split_over_lane_batches_equals_one_batch(monkeypatch):
    params = DesignParams(0.62)
    points = [(n, k) for n in (57, 120) for k in range(n % 2, n + 1, 2)]
    summands = sum((n - k) // 2 + 1 if k else n // 2 for n, k in points)
    calls = []
    replay = bcdexact.exact.replay_term_products
    monkeypatch.setattr(bcdexact.exact, "replay_term_products",
                        lambda *args: calls.append(len(args[0])) or replay(*args))
    monkeypatch.setattr(bcdexact.stable, "LANE_BATCH", 1 << 20)
    whole = pmf_masses(points, params)
    assert calls == [summands]
    for batch in (37, 64):
        calls.clear()
        monkeypatch.setattr(bcdexact.stable, "LANE_BATCH", batch)
        assert pmf_masses(points, params) == whole
        # whole points, at most a batch of summands a call unless one point
        # has more (60 at most here)
        assert sum(calls) == summands and max(calls) <= max(batch, 60)
    assert whole[:5] == [per_term_mass(n, k, params) for n, k in points[:5]]


@pytest.mark.parametrize("batch", [37, 1 << 20])
@pytest.mark.parametrize("p", [0.5, 0.7, 0.999])
def test_lanes_of_every_length_equal_the_kernel(batch, p, monkeypatch):
    # every summand of D_1 .. D_n, shuffled: multiply counts from 2 to
    # 2n - 2, so lanes leave a batch's live suffix at every step
    monkeypatch.setattr(bcdexact.stable, "LANE_BATCH", batch)
    n_top = 60
    terms = [(n, k, l) for n in range(1, n_top + 1) for k in range(n % 2, n + 1, 2)
             for l in range((n - k) // 2 + 1 if k else n // 2)]
    random.Random(batch).shuffle(terms)
    n, k, l = zip(*terms)
    big = [4.0 * m for m in n]
    got = replay_term_products(n, k, l, p, 1.0 - p, big).tolist()
    length = [2 * j + max(j - 1, 0) + (m + i) // 2 + 1 for m, i, j in terms]
    assert (min(length), max(length)) == (2, 2 * n_top - 2)
    for term, value, guard in zip(terms, got, big):
        want = kernel(*term, p, guard)
        if isinstance(want, FactoredProduct):
            assert value < UNDERFLOW_GUARD
        else:
            assert value == want, (term, p)


def test_selection_bias_report_reads_every_balance_from_the_batch():
    params = DesignParams(0.66)
    report = selection_bias_report(90, params)
    for j, value in enumerate(report.per_step, start=1):
        balanced = per_term_mass(j - 1, 0, params)
        assert value == 0.5 * balanced + 0.66 * (1 - balanced)


def kernel(n, k, l, p, big):
    small, large = term_factors(n, k, l, DesignParams(p))
    return stable_term_product(small, large, big)


@pytest.mark.parametrize("n,k,l,p,big", [
    # the large factors 7, 8 make exactly M = 56, and only a product above
    # M starts absorbing (with >= the lane gives 0.030965760000000012)
    (9, 3, 3, 0.6, 56.0),
    # absorbing small factors meets M = 120.96 exactly and goes on at M
    # (with > the lane gives 0.02322432)
    (9, 1, 4, 0.6, 120.96),
])
def test_replay_follows_the_guard_at_equality(n, k, l, p, big):
    got = replay_term_products([n], [k], [l], p, 1.0 - p, [big]).tolist()
    assert got == [kernel(n, k, l, p, big)]


def test_replay_equals_the_kernel_on_random_summands():
    rng = random.Random(7)
    for _ in range(30):
        p = rng.choice([0.5, 0.75, 0.9, 1.0, 0.5 + rng.random() / 2])
        terms = []
        while len(terms) < 40:
            n = rng.randint(1, 160)
            k = rng.randrange(n % 2, n + 1, 2)
            l = rng.randint(0, (n - k) // 2 if k else n // 2 - 1)
            if p == 1.0 and (k + l - 1 if k else l) > 0:  # identically zero
                continue
            big = rng.choice([2.0 * n + 1, 4.0 * n, 1e3 * n, 2.0 * n + rng.random()])
            terms.append((n, k, l, big))
        n, k, l, big = zip(*terms)
        for term, value in zip(terms, replay_term_products(n, k, l, p, 1.0 - p, big).tolist()):
            want = kernel(*term[:3], p, term[3])
            if isinstance(want, FactoredProduct):
                assert value < UNDERFLOW_GUARD
            else:
                assert value == want, (term, p)


def test_small_calls_take_the_scalar_kernel_with_the_replay_bits(monkeypatch):
    points = [(n, k) for n in (1, 2, 3, 8, 40, 41, 80, 150) for k in (0, 1, 2, 5, n)]
    cases = [DesignParams(p) for p in (0.5, 0.501, 0.7, 0.999, 1.0)]
    calls = []
    monkeypatch.setattr(bcdexact.exact, "replay_term_products",
                        lambda *args: calls.append(1) or replay_term_products(*args))
    scalar = [[pmf_at(n, k, params) for n, k in points] for params in cases]
    assert calls == []
    # one of these summands banks: the only one of P(D_150 = 150) at
    # p = 0.999, about q^149 = 1e-447
    assert isinstance(stable_term_product(*term_factors(150, 150, 0, DesignParams(0.999)),
                                          600.0), FactoredProduct)
    monkeypatch.setattr(bcdexact.exact, "SCALAR_LANES", 0)
    replayed = [[pmf_at(n, k, params) for n, k in points] for params in cases]
    assert calls
    assert replayed == scalar


def test_a_large_call_forced_through_the_scalar_kernel_keeps_its_bits(monkeypatch):
    params = DesignParams(0.999)
    points = [(n, k) for n in (57, 200) for k in range(n % 2, n + 1, 2)]
    replayed = pmf_masses(points, params)
    monkeypatch.setattr(bcdexact.exact, "SCALAR_LANES", 1 << 30)
    assert pmf_masses(points, params) == replayed
