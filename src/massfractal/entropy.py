"""Shannon, Renyi, and Deng entropies, plus the Renyi information dimension.

All logarithms are base 2; every quantity is reported in bits.  Each one
is a value of the one D_alpha kernel of :mod:`multifractal`, at every real
order: Renyi entropy is its numerator on the singleton bands of the
probabilities, Shannon and Deng entropy the numerator's alpha = 1 limit,
and the Renyi information dimension is D_alpha itself on those bands.
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import Bands, MassFunction, _as_bands, _as_number
from .errors import MassOutOfRange, OrderOutOfRange
from .multifractal import _deng_terms, _numerator_bits, multifractal_dimension


def _probability_bands(probabilities: Iterable) -> Bands:
    """The non-zero entries, each first passed by the masses' number check,
    as the singleton bands ``(1, p, 1)``, checked as any bands are.  A str
    or bytes, whose items are characters or bytes, holds no probabilities."""
    try:
        if isinstance(probabilities, (str, bytes, bytearray)):
            raise TypeError
        entries = iter(probabilities)
    except TypeError:
        raise MassOutOfRange(
            f"probabilities come as an iterable of numbers, not as {type(probabilities).__name__}"
        ) from None
    probabilities = [_as_number(p, MassOutOfRange, "mass") for p in entries]
    return _as_bands([(1, p, 1) for p in probabilities if p != 0.0])


def renyi_entropy(probabilities: Iterable, alpha: float) -> float:
    """Renyi entropy of order alpha, in bits, of a sequence of
    probabilities: the D_alpha numerator of the Bayesian mass function they
    make, log2(sum p_i ** alpha) / (1 - alpha) with Shannon entropy at 1.

    Zero entries are dropped.  The rest enter normalised to sum to one, so
    the value is continuous through alpha = 1 also when they sum to one only
    within the tolerance.  Probabilities that are no iterable of numbers (a
    str or bytes included) or a bad entry raise :class:`MassOutOfRange`, and
    a bad sum :class:`SumNotOne`, before the order is read; an order that
    is not a number, or at which the value is not finite (NaN, +inf),
    raises :class:`OrderOutOfRange`.
    """
    bands = _probability_bands(probabilities)
    alpha = _as_number(alpha, OrderOutOfRange, "order")
    # on singleton bands log2(2**1 - 1) and log2 1 are 0.0, so the terms
    # are the shares p_i and exponents log2 p_i
    value = _numerator_bits(_deng_terms(bands), alpha)
    if not math.isfinite(value):
        raise OrderOutOfRange(f"Renyi entropy has no finite value at order {alpha!r}")
    return value


def shannon_entropy(probabilities: Iterable) -> float:
    """-sum p_i log2 p_i in bits (0 log 0 = 0): Renyi entropy of order 1."""
    return renyi_entropy(probabilities, 1.0)


def renyi_information_dimension(probabilities: Iterable, alpha: float) -> float:
    """Renyi entropy rescaled by log2 of the support size: D_alpha of the
    singleton bands, whose denominator is exactly that log, at every order.

    The probabilities are checked first, as for :func:`renyi_entropy`, then
    the order: one that is not a number, or at which the value is not
    finite (NaN, an infinity), raises :class:`OrderOutOfRange`.  A point
    mass has no scale to measure against: its denominator log2 1 is zero,
    and it raises :class:`ZeroDenominator` at every finite order.
    """
    return multifractal_dimension(_probability_bands(probabilities), alpha).value


def as_profile_bands(m: MassFunction) -> Bands:
    """``m.bands``, kept under this name for the benchmark until ROADMAP
    item 3 moves it off and removes it."""
    return m.bands


def deng_entropy(source: MassFunction | Iterable[tuple[int, float, int]]) -> float:
    """Deng entropy -sum m(A) log2(m(A) / (2**|A| - 1)) in bits, of a mass
    function, of a profile builder's bands, or of ``(cardinality, mass,
    multiplicity)`` rows, which are checked as bands are.  It is the D_alpha
    numerator at alpha = 1: the masses enter normalised to sum to one, as at
    every other order.
    """
    return _deng_terms(_as_bands(source)).limit
