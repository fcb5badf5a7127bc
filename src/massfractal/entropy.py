"""Shannon, Renyi, and Deng entropies, plus the Renyi information dimension.

All logarithms are base 2; every quantity is reported in bits.  The order
alpha = 1 is always handled by an exact limit branch, never by evaluating
1/(1 - alpha) numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import MassFunction, ProfileBand
from .errors import (
    DegenerateSupport,
    MassOutOfRange,
    NegativeOrderUnsupported,
    SumNotOne,
)

PROBABILITY_SUM_TOLERANCE = 1e-9

# Orders within this window of 1 route to the exact limit branch.
LIMIT_ONE_WINDOW = 1e-12


@dataclass(frozen=True)
class ProbabilityDistribution:
    """A discrete probability distribution given as a tuple of reals.

    Zero entries are tolerated on input but never counted as support; the
    entries must be non-negative and sum to one within 1e-9.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        for p in self.probs:
            if p < 0.0:
                raise MassOutOfRange(f"probability {p!r} is negative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > PROBABILITY_SUM_TOLERANCE:
            raise SumNotOne(f"probabilities sum to {total!r}, not 1")

    def support(self) -> tuple[float, ...]:
        """The strictly positive entries."""
        return tuple(p for p in self.probs if p > 0.0)

    @property
    def support_size(self) -> int:
        return sum(1 for p in self.probs if p > 0.0)


@dataclass(frozen=True)
class EntropyOrder:
    """The Renyi order alpha, with the alpha = 1 limit flag precomputed."""

    alpha: float
    is_limit_one: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "is_limit_one", abs(self.alpha - 1.0) < LIMIT_ONE_WINDOW)


def shannon_entropy(p: ProbabilityDistribution) -> float:
    """-sum p_i log2 p_i in bits, with 0 log 0 taken as 0."""
    return -math.fsum(q * math.log2(q) for q in p.probs if q > 0.0)


def renyi_entropy(p: ProbabilityDistribution, order: EntropyOrder) -> float:
    """Renyi entropy of order alpha >= 0, in bits.

    The alpha = 1 window returns Shannon entropy exactly; elsewhere the value
    is log2(sum p_i ** alpha) / (1 - alpha), summed over the support only so
    that small orders never see zero entries.
    """
    if order.alpha < 0.0:
        raise NegativeOrderUnsupported(
            f"Renyi entropy of a probability distribution requires order >= 0, got {order.alpha}"
        )
    if order.is_limit_one:
        return shannon_entropy(p)
    power_sum = math.fsum(q ** order.alpha for q in p.support())
    return math.log2(power_sum) / (1.0 - order.alpha)


def renyi_information_dimension(p: ProbabilityDistribution, order: EntropyOrder) -> float:
    """Renyi entropy rescaled by log2 of the support size.

    Defined only for supports of at least two points; a point mass has no
    scale to measure against.
    """
    n = p.support_size
    if n < 2:
        raise DegenerateSupport(f"information dimension needs support >= 2, got {n}")
    return renyi_entropy(p, order) / math.log2(n)


def as_profile_bands(m: MassFunction) -> list[ProfileBand]:
    """The evaluation form of a mass function: one band per exact
    ``(cardinality, mass)`` pair of its focal elements, sorted by pair.

    Every entropy and dimension term depends on a focal element only through
    that pair, so a band stands for ``multiplicity`` identical terms.  Masses
    are compared bit for bit.  The bands were counted once, when ``m`` was
    validated or built; this copies them and never groups again.
    """
    return list(m.bands)


def deng_entropy_from_profile(profile: Iterable[ProfileBand] | Sequence[tuple[int, float, int]]) -> float:
    """Deng entropy in bits from (cardinality, mass, multiplicity) bands."""
    terms = []
    for cardinality, mass, multiplicity in profile:
        log_weight = math.log2(2 ** cardinality - 1)
        terms.append(multiplicity * (mass * (log_weight - math.log2(mass))))
    return math.fsum(terms)


def deng_entropy(m: MassFunction) -> float:
    """Deng entropy -sum m(A) log2(m(A) / (2**|A| - 1)) in bits.

    The sum runs over the bands of :func:`as_profile_bands`, one per
    distinct ``(cardinality, mass)`` pair.
    """
    return deng_entropy_from_profile(as_profile_bands(m))


def max_deng_entropy_value(n: int) -> float:
    """log2(3**n - 2**n): the Deng entropy ceiling for a frame of size n.

    The power difference is taken over exact integers, so there is no
    overflow at any frame size before the single rounding in the log.
    """
    if n < 1:
        raise ValueError(f"frame size must be positive, got {n}")
    return math.log2(3 ** n - 2 ** n)
