"""Design parameters for the biased-coin randomization rule.

A trial of n subjects assigns treatment T_j in {+1, -1}.  With D_{j-1}
denoting the running imbalance sum(T_1..T_{j-1}), the rule tosses a fair
coin when the groups are balanced and otherwise favours the smaller group
with probability p:

    P(T_j = +1) = 1/2       if D_{j-1} == 0
    P(T_j = +1) = p         if D_{j-1} < 0
    P(T_j = +1) = 1 - p     if D_{j-1} > 0

p = 1/2 is complete randomization, p = 1 forces strict alternation back to
balance (permuted blocks of two).
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from typing import Iterable

from .stable import TermValue, sum_term_values

Number = float | Fraction


@dataclass(frozen=True)
class DesignParams:
    """Biased-coin parameter p with derived quantities q = 1 - p, r = p/q.

    p may be a float or a Fraction, and the evaluators compute in its
    arithmetic (`zero`, `one`, `half`, `sum`): a Fraction (or int) p keeps
    every quantity exact, a float p computes in guarded float64.
    """

    p: Number

    def __post_init__(self):
        p = self.p
        if isinstance(p, int):
            p = Fraction(p)
            object.__setattr__(self, "p", p)
        if not (isinstance(p, Fraction) or isinstance(p, float)):
            raise TypeError(f"p must be float or Fraction, got {type(p).__name__}")
        if not (Fraction(1, 2) <= p <= 1):
            raise ValueError(f"p must lie in [1/2, 1], got {p}")

    @cached_property  # a Fraction subtraction, read per summand by the closed forms
    def q(self) -> Number:
        return 1 - self.p

    @property
    def r(self) -> Number:
        """Odds ratio p/q; +inf when p == 1."""
        q = self.q
        if q == 0:
            return math.inf
        return self.p / q

    @cached_property
    def zero(self) -> Number:
        return Fraction(0) if self.is_exact else 0.0

    @cached_property
    def one(self) -> Number:
        return Fraction(1) if self.is_exact else 1.0

    @cached_property  # read per term by transition_prob
    def half(self) -> Number:
        return Fraction(1, 2) if self.is_exact else 0.5

    def sum(self, values: Iterable[Number | TermValue]) -> Number:
        """Exact from Fraction(0) for an exact p, else `stable.sum_term_values`."""
        if self.is_exact:
            return sum(values, start=Fraction(0))
        return sum_term_values(values)

    @property
    def is_exact(self) -> bool:
        return isinstance(self.p, Rational)

    @property
    def is_fair(self) -> bool:
        return self.p == Fraction(1, 2)

    @property
    def is_deterministic(self) -> bool:
        return self.p == 1

    def as_exact(self) -> "DesignParams":
        """Exact counterpart; refuses floats that are not obviously rational.

        Floats carry no record of the decimal the caller meant, so exact mode
        requires the caller to supply a Fraction (use parse_probability or
        Fraction directly).
        """
        if self.is_exact:
            return self
        raise ValueError(
            "exact arithmetic needs p as a Fraction; "
            f"got float {self.p!r} (build DesignParams(Fraction(...)))"
        )

    def __str__(self) -> str:
        return f"BCD(p={self.p})"


def parse_probability(text: str, exact: bool = False) -> Number:
    """Parse '0.7' or '2/3' into a float, or an exact Fraction if requested.

    A message echoes at most the first 40 characters of text.
    """
    shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}..."
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        # the interpreter parses at most this many digits per integer
        limit = sys.get_int_max_str_digits()
        digits = max((len(run.replace("_", "")) for run in re.findall(r"[\d_]+", text)),
                     default=0)
        if limit and digits > limit:
            raise ValueError(f"probability {shown} has a run of {digits} digits, more than "
                             f"the {limit} Python parses as one number") from None
        raise ValueError(f"cannot parse probability {shown}") from err
    try:
        return value if exact else float(value)
    except OverflowError as err:
        raise ValueError(f"probability {shown} is out of range") from err


def transition_prob(params: DesignParams, imbalance: int):
    """P(T = +1 | current imbalance), the t_k map of the design."""
    if imbalance == 0:
        return params.half
    return params.q if imbalance > 0 else params.p
