"""Extended-precision reference evaluator.

Everything here recomputes the package's headline quantities from scratch at
120 working bits via mpmath, taking exact rational masses as input.  The test
suite uses these results as the trusted side of every tolerance check, so this
module deliberately shares no numeric code with the fast paths: sums run
directly over cardinality classes in linear space, with no log-domain
rearrangement.

A "profile" here is simply a list of ``(cardinality, mass, multiplicity)``
terms.  Cardinalities may repeat across terms, which is how asymmetric mass
functions are fed in: one term per focal element with multiplicity one.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from mpmath import mp

from .errors import EmptyFocalElement, MassOutOfRange, SumNotOne, ZeroDenominator

# Working precision in bits.  Results are reported as doubles; 120 bits keeps
# well over 50 accurate fractional bits through every summation in scope.
ORACLE_PRECISION_BITS = 120

# Near order 1 the numerator's sum is near 1, and at negative orders with a
# singleton so is the denominator's; a log then keeps only the bits of
# sum - 1.  When that cancels more than this many of the working bits, the
# sum is taken again with the cancelled bits added on.
_CANCELLATION_SLACK_BITS = 56

# A sum still exactly 1 at this many working bits is taken as 1.  The
# denominator's log is then 0, or so small that no double holds the
# dimension.
_MAX_PRECISION_BITS = 4096

RationalLike = Union[int, str, float, Fraction]


class ExactMass(Fraction):
    """An exact rational mass, constrained to (0, 1] and kept in lowest terms.

    Accepts anything :class:`fractions.Fraction` accepts; note that floats
    convert to their exact binary value, which is precisely what the
    cross-checks want when mirroring a double-precision mass.
    """

    def __new__(cls, numerator: RationalLike, denominator: int | None = None) -> "ExactMass":
        if denominator is None:
            self = super().__new__(cls, numerator)
        else:
            self = super().__new__(cls, numerator, denominator)
        if not 0 < self <= 1:
            raise MassOutOfRange(f"exact mass {self} lies outside (0, 1]")
        return self


ProfileTerm = tuple[int, RationalLike, int]


def _exact_terms(profile: Iterable[ProfileTerm]) -> list[tuple[int, ExactMass, int]]:
    terms = []
    for cardinality, mass, multiplicity in profile:
        if cardinality < 1:
            raise EmptyFocalElement(f"cardinality must be positive, got {cardinality}")
        if multiplicity < 1:
            raise EmptyFocalElement(f"multiplicity must be positive, got {multiplicity}")
        terms.append((cardinality, ExactMass(mass), multiplicity))
    if not terms:
        raise SumNotOne("empty profile carries no mass")
    total = sum(Fraction(mass) * multiplicity for _, mass, multiplicity in terms)
    if total != 1:
        raise SumNotOne(f"exact masses sum to {total}, not 1")
    return terms


def _to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def _deng_bits(terms: Sequence[tuple[int, ExactMass, int]]):
    acc = mp.mpf(0)
    for cardinality, mass, multiplicity in terms:
        m = _to_mpf(mass)
        weight = mp.mpf(2 ** cardinality - 1)
        acc += multiplicity * m * mp.log(weight / m, 2)
    return acc


def oracle_deng_entropy(profile: Iterable[ProfileTerm]) -> float:
    """Deng entropy in bits, evaluated at 120 working bits.

    ``profile`` lists ``(cardinality, exact mass, multiplicity)`` terms whose
    masses must sum to exactly one as rationals.
    """
    with mp.workprec(ORACLE_PRECISION_BITS):
        terms = _exact_terms(profile)
        return float(_deng_bits(terms))


def oracle_dimension(profile: Iterable[ProfileTerm], alpha: RationalLike) -> float:
    """Order-alpha multifractal dimension, evaluated at 120 working bits.

    The order is taken as an exact rational; ``alpha == 1`` routes to the
    limit form whose numerator is the Deng entropy.  Near order 1 the
    numerator, and at negative orders the denominator, is evaluated again
    with the bits its log cancels added on, so a tiny Deng value, or a
    denominator sum of 1 + 2**-700, keeps its digits.  Raises
    :class:`ZeroDenominator` when the denominator log vanishes (a lone
    singleton focal element of mass one, or order zero on such input).
    """
    order = Fraction(alpha)
    with mp.workprec(ORACLE_PRECISION_BITS):
        terms = _exact_terms(profile)

        def den_sum():
            total = mp.mpf(0)
            for cardinality, mass, multiplicity in terms:
                weight = mp.mpf(2 ** cardinality - 1)
                total += multiplicity * mp.power(weight, _to_mpf(order * mass))
            return total

        denominator = _log2_of_sum(den_sum)
        if denominator == 0:
            raise ZeroDenominator("denominator log2 of the weighted sum is zero")

        numerator = _deng_bits(terms) if order == 1 else _numerator_bits(terms, order)
        return float(numerator / denominator)


def _numerator_bits(terms: Sequence[tuple[int, ExactMass, int]], order: Fraction):
    """log2(sum m**alpha * w**(1 - alpha)) / (1 - alpha) at alpha != 1."""
    def num_sum():
        a = _to_mpf(order)
        total = mp.mpf(0)
        for cardinality, mass, multiplicity in terms:
            m = _to_mpf(mass)
            weight = mp.mpf(2 ** cardinality - 1)
            total += multiplicity * mp.power(m / weight, a) * weight
        return total

    return _log2_of_sum(num_sum) / _to_mpf(1 - order)


def _log2_of_sum(power_sum):
    """log2 of the sum ``power_sum()`` takes at the working precision it is
    called in: first at 120 bits, then with whatever its log cancels near 1
    added on.  A sum that rounds to 1 has lost all its bits, so the
    precision is doubled until it does not, up to ``_MAX_PRECISION_BITS``."""
    bits = ORACLE_PRECISION_BITS
    while True:
        with mp.workprec(bits):
            total = power_sum()
            if total == 1:
                needed = 2 * bits
            else:
                cancelled = -mp.mag(total - 1)
                needed = ORACLE_PRECISION_BITS + cancelled
                if cancelled <= _CANCELLATION_SLACK_BITS or bits >= needed:
                    return mp.log(total, 2)
            if bits >= _MAX_PRECISION_BITS:
                return mp.log(total, 2)
        bits = min(needed, _MAX_PRECISION_BITS)
