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

import math
from fractions import Fraction
from typing import Iterable, Sequence

from mpmath import mp

from .errors import EmptyFocalElement, MassOutOfRange, OrderOutOfRange, SumNotOne, ZeroDenominator

# Working precision in bits.  Results are reported as doubles; 120 bits keeps
# well over 50 accurate fractional bits through every summation in scope.
ORACLE_PRECISION_BITS = 120

# Near order 1 the numerator's sum is near 1, and at negative orders with a
# tiny mass and no singleton so is the denominator's; a log then keeps only
# the bits of sum - 1.  When that cancels more than this many of the working
# bits, the sum is taken again with the cancelled bits added on.
_CANCELLATION_SLACK_BITS = 56

# A sum still exactly 1 at this many working bits is taken as 1.  The
# denominator's log is then 0, or so small that no double holds the
# dimension.
_MAX_PRECISION_BITS = 4096


def _exact_number(value, error: type, what: str) -> Fraction:
    """A mass or an order as an exact rational, refused as the library
    refuses it: a str, bytes or bool, or anything float() cannot read or
    reads as NaN or an infinity, raises ``error``."""
    try:
        if isinstance(value, (str, bytes, bytearray, bool)) or not math.isfinite(number := float(value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise error(f"{what} of type {type(value).__name__} is not a finite number") from None
    try:
        return Fraction(value)
    except TypeError:  # a number that is no Rational, float or Decimal
        return Fraction(number)


def _exact_terms(profile: Iterable[tuple]) -> list[tuple[int, Fraction, int]]:
    """The terms with exact masses, refused as the library refuses band
    rows: an iterable of triples, every count an int (no bool) of at least
    1, and every mass a number in (0, 1]."""
    try:
        rows = list(profile)
    except TypeError:
        raise EmptyFocalElement(f"a profile comes as an iterable, not as {type(profile).__name__}") from None
    terms = []
    for term in rows:
        try:
            cardinality, mass, multiplicity = term
        except (TypeError, ValueError):
            raise EmptyFocalElement("a term is not a (cardinality, mass, multiplicity) triple") from None
        # the counts go unprinted: an int past 4300 digits has no str
        if type(cardinality) is not int or type(multiplicity) is not int or min(cardinality, multiplicity) < 1:
            raise EmptyFocalElement("a term's cardinality or multiplicity is not an int of at least 1")
        mass = _exact_number(mass, MassOutOfRange, "mass")
        if not 0 < mass <= 1:
            raise MassOutOfRange("an exact mass lies outside (0, 1]")
        terms.append((cardinality, mass, multiplicity))
    # an empty profile sums to 0; no sum or mass is printed, since a
    # rational of 4300 digits or more has no str
    if sum(mass * multiplicity for _, mass, multiplicity in terms) != 1:
        raise SumNotOne("exact masses do not sum to exactly 1")
    return terms


def _to_mpf(value: Fraction):
    return mp.mpf(value.numerator) / mp.mpf(value.denominator)


def _deng_bits(terms: Sequence[tuple[int, Fraction, int]]):
    acc = mp.mpf(0)
    for cardinality, mass, multiplicity in terms:
        m = _to_mpf(mass)
        weight = mp.mpf(2 ** cardinality - 1)
        acc += multiplicity * m * mp.log(weight / m, 2)
    return acc


def oracle_deng_entropy(profile: Iterable[tuple]) -> float:
    """Deng entropy in bits, evaluated at 120 working bits.

    ``profile`` lists ``(cardinality, exact mass, multiplicity)`` terms whose
    masses must sum to exactly one as rationals.
    """
    with mp.workprec(ORACLE_PRECISION_BITS):
        terms = _exact_terms(profile)
        return float(_deng_bits(terms))


def oracle_dimension(profile: Iterable[tuple], alpha) -> float:
    """Order-alpha multifractal dimension, evaluated at 120 working bits.

    The order, read after the profile under the masses' number rule, is
    taken as an exact rational; ``alpha == 1`` routes to the limit form
    whose numerator is the Deng entropy.  Where exactly one term is a
    singleton focal element, whose denominator term is exactly 1, the
    other terms are summed on their own and the denominator is log1p of
    that sum, which mpmath's unbounded exponent keeps above 0 at every
    order.  Any other sum near 1, the numerator's near order 1 among
    them, is evaluated again with the bits its log cancels added on, so a
    tiny Deng value keeps its digits.  Raises :class:`OrderOutOfRange` for
    an order that rule refuses, or where the dimension leaves the double
    range, as the library does, and :class:`ZeroDenominator` when the
    denominator log vanishes (a lone singleton focal element of mass one,
    or order zero on such input).
    """
    with mp.workprec(ORACLE_PRECISION_BITS):
        terms = _exact_terms(profile)
        order = _exact_number(alpha, OrderOutOfRange, "order")

        singletons = [term for term in terms if term[0] == 1]
        one_singleton = len(singletons) == 1 and singletons[0][2] == 1
        summed = [term for term in terms if term[0] != 1] if one_singleton else terms

        def den_sum():
            total = mp.mpf(0)
            for cardinality, mass, multiplicity in summed:
                weight = mp.mpf(2 ** cardinality - 1)
                total += multiplicity * mp.power(weight, _to_mpf(order * mass))
            return total

        denominator = mp.log1p(den_sum()) / mp.log(2) if one_singleton else _log2_of_sum(den_sum)
        if denominator == 0:
            raise ZeroDenominator("denominator log2 of the weighted sum is zero")

        numerator = _deng_bits(terms) if order == 1 else _numerator_bits(terms, order)
        value = float(numerator / denominator)
        if not math.isfinite(value):
            raise OrderOutOfRange(f"order {float(order)!r} takes the dimension past the double range")
        return value


def _numerator_bits(terms: Sequence[tuple[int, Fraction, int]], order: Fraction):
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
