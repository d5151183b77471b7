"""Exact finite-sample properties of the biased coin design.

The design assigns the under-represented arm with probability p and
tosses a fair coin at perfect balance.  This package computes, in closed
form, the exact distribution and variance of the terminal imbalance, the
covariance matrix of the signed assignments with its spectrum, the
expected advantage of a guessing experimenter, and the covariate
quadratic form behind accidental bias; a Monte Carlo and an exhaustive
enumeration layer cross-check every closed form.

The arithmetic follows p: a float p computes with a float64 kernel that
keeps huge binomial-coefficient products inside the representable range,
and a Fraction (or int) p computes in exact rational arithmetic.
"""

from .bias import (
    SelectionBiasReport,
    accidental_bias,
    asymptotic_excess,
    selection_bias_report,
    selection_bias_step,
    total_bias_closed_form,
)
from .covariance import (
    AssignmentCovariance,
    ConvergenceError,
    FirstVisitTable,
    MaxEigenReport,
    cond_assignment,
    eigen_spectrum,
    first_visit,
    joint_assignment,
    max_eigen_report,
    sigma,
    two_p_eigenvector,
    verify_2p_eigenpair,
)
from .design import DesignParams, parse_probability, transition_prob
from .exact import (
    ImbalancePMF,
    StationaryDist,
    asymptotic_var,
    dp_pmf_dn,
    pmf_at,
    pmf_dn,
    steady_state_threshold,
    var_dn,
)
from .simulate import (
    McEstimate,
    PathStatistic,
    ScoreVector,
    TreatmentSequence,
    enumerate_exact,
    generate_sequence,
    mc_estimate,
    parse_statistic,
    rank_pvalue_mc,
    rank_statistic,
    rank_statistic_variance,
)
from .stable import EXACT_RATIONAL, FLOAT64_STABLE, NumericMode, stable_term_product
from .tables import (
    round_half_even,
    selection_bias_grid,
    threshold_grid,
    variance_grid,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentCovariance",
    "ConvergenceError",
    "DesignParams",
    "EXACT_RATIONAL",
    "FLOAT64_STABLE",
    "FirstVisitTable",
    "ImbalancePMF",
    "MaxEigenReport",
    "McEstimate",
    "NumericMode",
    "PathStatistic",
    "ScoreVector",
    "SelectionBiasReport",
    "StationaryDist",
    "TreatmentSequence",
    "accidental_bias",
    "asymptotic_excess",
    "asymptotic_var",
    "cond_assignment",
    "dp_pmf_dn",
    "eigen_spectrum",
    "enumerate_exact",
    "first_visit",
    "generate_sequence",
    "joint_assignment",
    "max_eigen_report",
    "mc_estimate",
    "parse_probability",
    "parse_statistic",
    "pmf_at",
    "pmf_dn",
    "rank_pvalue_mc",
    "rank_statistic",
    "rank_statistic_variance",
    "round_half_even",
    "selection_bias_grid",
    "selection_bias_report",
    "selection_bias_step",
    "sigma",
    "stable_term_product",
    "steady_state_threshold",
    "threshold_grid",
    "total_bias_closed_form",
    "transition_prob",
    "two_p_eigenvector",
    "var_dn",
    "variance_grid",
    "verify_2p_eigenpair",
    "__version__",
]
