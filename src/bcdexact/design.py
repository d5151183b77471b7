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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

Number = float | Fraction


@dataclass(frozen=True)
class DesignParams:
    """Biased-coin parameter p with derived quantities q = 1 - p, r = p/q.

    p may be a float or a Fraction; Fraction (or int) keeps every derived
    quantity exact, which the rational evaluation mode requires.
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

    @property
    def half(self) -> Number:
        """One half, in the same arithmetic as p (p / 2p is exactly 1/2)."""
        return self.p / (2 * self.p)

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
    """Parse '0.7' or '2/3' into a float, or an exact Fraction if requested."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as err:
        raise ValueError(f"cannot parse probability {text!r}") from err
    return value if exact else float(value)


def transition_prob(params: DesignParams, imbalance: int):
    """P(T = +1 | current imbalance), the t_k map of the design."""
    if imbalance == 0:
        return params.half
    return params.q if imbalance > 0 else params.p
