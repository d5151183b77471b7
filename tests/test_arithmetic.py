"""The arithmetic follows p: a Fraction (or int) p computes exactly, a float
p in guarded float64, and no evaluator takes a mode argument."""

import inspect
from fractions import Fraction

import pytest

from bcdexact import tables
from bcdexact.bias import (
    asymptotic_excess,
    selection_bias_report,
    selection_bias_reports,
    selection_bias_step,
    total_bias_closed_form,
)
from bcdexact.covariance import (
    FirstVisitTable,
    cond_assignment,
    first_visit,
    joint_assignment,
    sigma,
)
from bcdexact.design import DesignParams
from bcdexact.exact import (
    ImbalancePMF,
    StationaryDist,
    asymptotic_var,
    dp_pmf_dn,
    pmf_at,
    pmf_dn,
    pmf_masses,
    var_dn,
    var_dns,
)


def _report_values(report):
    return [*report.per_step, report.total, report.excess, report.average_excess]


def _grid_reads(name, grid, params, **ladders):
    """What a one-p grid reads from the evaluator `name`, captured as it runs."""
    found, inner = [], getattr(tables, name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables, name, lambda *args: found.append(inner(*args)) or found[-1])
        grid(p_values=[params.p], **ladders)
    return found


# each evaluator with a call that lists the numbers it returns for params
EVALUATORS = [
    (pmf_at, lambda params: [pmf_at(9, 3, params), pmf_at(8, 0, params), pmf_at(5, 2, params)]),
    (pmf_masses, lambda params: pmf_masses([(7, 1), (6, 0), (0, 0), (5, 5)], params)),
    (pmf_dn, lambda params: list(pmf_dn(7, params).masses.values())),
    (dp_pmf_dn, lambda params: list(dp_pmf_dn(8, params).masses.values())),
    (ImbalancePMF.mass, lambda params: [pmf_dn(7, params).mass(2), dp_pmf_dn(6, params).mass(9)]),
    (var_dn, lambda params: [var_dn(9, params)]),
    (var_dns, lambda params: var_dns([4, 7, 0], params)),
    (first_visit, lambda params: [first_visit(k, 7, params) for k in (0, 1, 3, 4)]),
    (FirstVisitTable, lambda params: [FirstVisitTable(params).f_hat(k, 6) for k in (0, 1, 2)]),
    (cond_assignment, lambda params: [cond_assignment(7, 3, k, params) for k in (1, 2, 3)]),
    (joint_assignment, lambda params: [joint_assignment(2, 6, params)]),
    (sigma, lambda params: sigma(5, params).matrix.ravel().tolist()),
    (selection_bias_step, lambda params: [selection_bias_step(j, params) for j in (1, 2, 5)]),
    (selection_bias_report, lambda params: _report_values(selection_bias_report(6, params))),
    (selection_bias_reports,
     lambda params: [v for r in selection_bias_reports([3, 6], params) for v in _report_values(r)]),
    (total_bias_closed_form, lambda params: [total_bias_closed_form(9, params)]),
    (asymptotic_excess, lambda params: [asymptotic_excess(params)]),
    (StationaryDist,
     lambda params: [v for j in range(4) for v in (StationaryDist(params).pi(j),
                                                    StationaryDist(params).two_sided_limit(j))]),
    (asymptotic_var, lambda params: [asymptotic_var(params, parity) for parity in ("even", "odd")]),
    (tables.variance_grid,
     lambda params: sum(_grid_reads("var_dns", tables.variance_grid, params,
                                    even_n=(4,), odd_n=(3,)), [])),
    (tables.selection_bias_grid,
     lambda params: [v for reports in _grid_reads("selection_bias_reports",
                                                  tables.selection_bias_grid, params,
                                                  n_values=(3, 6))
                     for r in reports for v in _report_values(r)]),
]


@pytest.mark.parametrize("p", [Fraction(7, 10), Fraction(3, 5), 1])
@pytest.mark.parametrize("evaluator,call", EVALUATORS, ids=[f.__name__ for f, _ in EVALUATORS])
def test_the_arithmetic_follows_p(evaluator, call, p):
    assert "mode" not in inspect.signature(evaluator).parameters
    exact = call(DesignParams(p))
    approx = call(DesignParams(float(p)))
    assert exact and {type(v) for v in exact} == {Fraction}
    assert {type(v) for v in approx} == {float}
    assert approx == [pytest.approx(float(v), rel=1e-12, abs=1e-12) for v in exact]


def test_fair_coin_excess_is_zero_in_the_arithmetic_of_p():
    exact, approx = (asymptotic_excess(DesignParams(p)) for p in (Fraction(1, 2), 0.5))
    assert (exact, type(exact)) == (0, Fraction)
    assert (approx, type(approx)) == (0, float)


def test_params_carry_the_arithmetic_of_p():
    for p, kind in [(Fraction(7, 10), Fraction), (1, Fraction), (0.7, float), (1.0, float)]:
        params = DesignParams(p)
        found = [params.zero, params.one, params.half, params.sum([params.half, params.p, 1])]
        assert [type(v) for v in found] == [kind] * 4, p
        assert found == [0, 1, Fraction(1, 2), Fraction(3, 2) + params.p], p
