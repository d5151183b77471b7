"""Selection and accidental bias of the biased-coin design.

Selection bias: an experimenter who always guesses that the next patient
gets the lagging treatment is right with probability

    b_j = 1/2 P(D_{j-1} = 0) + p P(D_{j-1} != 0)

at draw j.  Even draws always follow an odd imbalance, so b_j = p there;
odd draws give the guesser less than p because the walk may be balanced.
Summing b_j over a trial and subtracting the n/2 expected under complete
randomization gives the expected excess of correct guesses, which grows
linearly with slope governed by (r - 1)/(4r).

The per-step series is built from the exact imbalance law; the total is
also available through an independent closed-form double sum so the two
routes can be compared term-free:

    total(n) = 1/2 + (n-1) p
               - (p - 1/2) sum_{m=1}^{floor((n-1)/2)} p^m
                 sum_{l=0}^{m-1} (m-l)/(m+l) C(m+l, l) q^l

Accidental bias: the worst-case inflation of a linear covariate effect is
bounded by the largest eigenvalue of the assignment covariance; for a
specific unit covariate vector z it is the quadratic form z' Sigma z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covariance import AssignmentCovariance
from .design import DesignParams, Number
from .exact import pmf_at, pmf_masses

__all__ = [
    "SelectionBiasReport",
    "accidental_bias",
    "asymptotic_excess",
    "selection_bias_report",
    "selection_bias_reports",
    "selection_bias_step",
    "total_bias_closed_form",
]


def selection_bias_step(j: int, params: DesignParams) -> Number:
    """P(the lagging-arm guess is correct at draw j)."""
    if j < 1:
        raise ValueError(f"draw index must be >= 1, got {j}")
    return _guess_rate(pmf_at(j - 1, 0, params), params)


def _guess_rate(balanced: Number, params: DesignParams) -> Number:
    """b_j from P(D_{j-1} = 0): a fair toss when balanced, else p."""
    return params.half * balanced + params.p * (1 - balanced)


@dataclass(frozen=True)
class SelectionBiasReport:
    """Guessing-game summary for an n-patient trial.

    total sums the per-step correct-guess probabilities; excess subtracts
    the n/2 a fair coin would concede; average_excess is excess/n, the
    per-patient advantage (the quantity tabulated on the p grid).
    """

    n: int
    params: DesignParams
    per_step: tuple[Number, ...]

    @property
    def total(self) -> Number:
        return self.params.sum(self.per_step)

    @property
    def excess(self) -> Number:
        return self.total - self.n * self.params.half

    @property
    def average_excess(self) -> Number:
        return self.excess / self.n


def selection_bias_report(n: int, params: DesignParams) -> SelectionBiasReport:
    """Per-step guess rates b_1 .. b_n, from all P(D_{j-1} = 0) in one batch."""
    return selection_bias_reports([n], params)[0]


def selection_bias_reports(ns: Sequence[int], params: DesignParams) -> list[SelectionBiasReport]:
    """`selection_bias_report` for each n of ns, read off one batch of the
    balance masses P(D_j = 0), j < max(ns).  A mass does not depend on the
    batch it is computed in, so each report equals its own."""
    for n in ns:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    balanced = pmf_masses([(j, 0) for j in range(max(ns, default=0))], params)
    steps = tuple(_guess_rate(b, params) for b in balanced)
    return [SelectionBiasReport(n=n, params=params, per_step=steps[:n]) for n in ns]


def total_bias_closed_form(n: int, params: DesignParams) -> Number:
    """Expected correct guesses over n draws, by the direct double sum.

    Independent of the per-step route: the inner sum is evaluated from its
    own binomial recurrence, not from the imbalance pmf.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p, q = params.p, params.q
    half, one = params.half, params.one

    correction = params.zero
    p_power = one
    for m in range(1, (n - 1) // 2 + 1):
        p_power = p_power * p
        inner = one  # l = 0 summand: (m/m) C(m,0) q^0
        binom = one  # running C(m+l, l)
        q_power = one
        for l in range(1, m):
            binom = binom * (m + l) / l
            q_power = q_power * q
            inner += one * (m - l) / (m + l) * binom * q_power
        correction = correction + p_power * inner
    return half + (n - 1) * p - (p - half) * correction


def asymptotic_excess(params: DesignParams) -> Number:
    """Limit of excess/n: (r - 1)/(4r), degenerating to 1/4 at p = 1."""
    if params.is_deterministic:
        return params.half / 2
    if params.is_fair:
        return params.zero
    r = params.r
    return (r - 1) / (4 * r)


def accidental_bias(z: np.ndarray, cov: AssignmentCovariance) -> float:
    """Quadratic form z' Sigma z for a unit covariate direction z.

    z must already be normalized (2-norm 1 within 1e-10); silently
    rescaling would hide mistakes in the caller's covariate prep, so a
    non-unit vector is an error.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.shape[0] != cov.n:
        raise ValueError(f"z must be a vector of length {cov.n}")
    norm = float(np.linalg.norm(z))
    if not abs(norm - 1.0) <= 1e-10:  # nan fails this too
        raise ValueError(f"z must be unit length, got ||z|| = {norm!r}")
    return cov.quadratic_form(z)
