"""Shannon, Renyi, and Deng entropies, plus the Renyi information dimension.

All logarithms are base 2; every quantity is reported in bits.  Renyi
entropy and the numerator of the multifractal dimension are one quantity,
log2(sum_i s_i * 2**(eps * t_i)) / -eps at eps = alpha - 1, over shares s_i
summing to one and exponents t_i <= 0, and one kernel evaluates it at every
order, its limit -sum_i s_i t_i (Shannon, or Deng) at alpha = 1 included.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Iterable, NamedTuple, Sequence

from .core import MassFunction, ProfileBand, _as_bands, _as_number
from .errors import (
    DegenerateSupport,
    FrameTooLarge,
    MassOutOfRange,
    NegativeOrderUnsupported,
    OrderOutOfRange,
)

_LN2 = math.log(2.0)
# 2**x - 1 is finite below this x, and so is any mean of such terms
_MAX_EXPONENT = sys.float_info.max_exp - 1


def _log2_power_sum(exponents: Sequence[float]) -> float:
    """log2(sum_i 2**e_i), max-shifted; exact when only one term is present."""
    top = max(exponents)
    if len(exponents) == 1:
        return top
    return top + math.log2(math.fsum(2.0 ** (e - top) for e in exponents))


class _NumeratorTerms(NamedTuple):
    """The order-free part of the kernel: s_i, log2 s_i, t_i, max |t_i| and
    the alpha = 1 value -sum_i s_i t_i."""

    shares: list[float]
    log_shares: list[float]
    exponents: list[float]
    reach: float
    limit: float


def _numerator_terms(log_sizes: Sequence[float], exponents: list[float]) -> _NumeratorTerms:
    # normalised in the log domain, so a size past the double range is finite
    total = _log2_power_sum(log_sizes)
    log_shares = [size - total for size in log_sizes]
    shares = [2.0 ** share for share in log_shares]
    limit = math.fsum(-s * t for s, t in zip(shares, exponents))
    return _NumeratorTerms(shares, log_shares, exponents, max(map(abs, exponents)), limit)


def _log2_subset_count(k: int) -> float:
    """log2(2**k - 1), the log of the number of non-empty subsets of a k-set.

    From k = 49 on the value rounds to k itself, so the big int, which at a
    frame of 10**12 would not fit in memory, is never built.  A k past the
    double range raises :class:`FrameTooLarge`.
    """
    if k < 49:
        return math.log2(2 ** k - 1)
    try:
        return float(k)
    except OverflowError:
        raise FrameTooLarge("a set size past the double range has no double log") from None


# What _deng_terms returns: the bands, their log2(2**|A| - 1) and log2 k,
# and the numerator's kernel terms, all in falling share order.
_DengTerms = tuple[Sequence[ProfileBand], list[float], Sequence[float], _NumeratorTerms]


def _deng_terms(bands: Sequence[ProfileBand]) -> _DengTerms:
    """The bands by falling share k*m, with log2(2**|A| - 1) and log2 k for
    each, and the kernel terms of the D_alpha numerator: shares k*m and
    exponents log2(m / (2**|A| - 1)).

    The order is for speed only.  fsum keeps one partial per
    non-overlapping piece of its running sum, and terms that rise and fall
    over hundreds of binades, as cardinality order gives them, make that
    list long; largest first keeps it short.  fsum is exactly rounded and
    max ignores order, so no result changes.
    """
    log_multiplicities = list(map(math.log2, map(operator.itemgetter(2), bands)))
    log_masses = list(map(math.log2, map(operator.itemgetter(1), bands)))
    log_sizes = list(map(operator.add, log_multiplicities, log_masses))
    if len(bands) > 1:
        order = sorted(range(len(bands)), key=log_sizes.__getitem__, reverse=True)
        pick = operator.itemgetter(*order)  # one C call lays out each column
        bands, log_multiplicities, log_masses, log_sizes = (
            pick(bands), pick(log_multiplicities), pick(log_masses), pick(log_sizes)
        )
    log_weights = list(map(_log2_subset_count, map(operator.itemgetter(0), bands)))
    return bands, log_weights, log_multiplicities, _numerator_terms(
        log_sizes, list(map(operator.sub, log_masses, log_weights))
    )


def _numerator_bits(terms: _NumeratorTerms, alpha: float) -> float:
    """log2(sum_i s_i * 2**(eps * t_i)) / -eps at eps = alpha - 1.

    Every t_i <= 0, so the terms share a sign.  expm1 and log1p keep the
    value accurate however small eps is, provided the sum is finite and not
    far below 1: for eps < 0 it is at least 1, and finite while
    -eps * max |t_i| stays inside the double range; for eps > 0 it is at
    least 2**(-eps * limit) by Jensen's inequality.  Past those bounds the
    max-shifted power sum takes over.  Where the largest eps * t_i
    overflows, that sum is not finite, and the term 2**(eps * T) of the
    t_i = T at which eps * t_i is largest is factored out first: the value
    is -T + log2(sum_i s_i * 2**(eps * (t_i - T))) / -eps, a finite mean.
    """
    eps = alpha - 1.0
    if eps == 0.0:
        return terms.limit
    if (eps * terms.limit <= 1.0) if eps > 0.0 else (-eps * terms.reach < _MAX_EXPONENT):
        scale = eps * _LN2
        excess = math.fsum(
            s * math.expm1(scale * t) for s, t in zip(terms.shares, terms.exponents)
        )
        return math.log1p(excess) / -scale
    bits = _log2_power_sum(
        [ls + eps * t for ls, t in zip(terms.log_shares, terms.exponents)]
    ) / -eps
    if math.isfinite(bits):
        return bits
    top = max(terms.exponents) if eps > 0.0 else min(terms.exponents)
    return _log2_power_sum(
        [ls + eps * (t - top) for ls, t in zip(terms.log_shares, terms.exponents)]
    ) / -eps - top


def _probability_bands(probabilities: Iterable) -> list[ProfileBand]:
    """The non-zero entries, each first passed by the masses' number check,
    as the singleton bands ``(1, p, 1)``, checked as any bands are."""
    probabilities = [_as_number(p, MassOutOfRange, "mass") for p in probabilities]
    return _as_bands([(1, p, 1) for p in probabilities if p != 0.0])


def _renyi_bits(bands: Sequence[ProfileBand], alpha) -> float:
    alpha = _as_number(alpha, OrderOutOfRange, "order")
    if alpha < 0.0:
        raise NegativeOrderUnsupported(
            f"Renyi entropy of a probability distribution requires order >= 0, got {alpha}"
        )
    # on singleton bands log2(2**1 - 1) and log2 1 are 0.0, so the terms
    # are the shares p_i and exponents log2 p_i
    value = _numerator_bits(_deng_terms(bands)[3], alpha)
    if not math.isfinite(value):
        raise OrderOutOfRange(f"Renyi entropy has no finite value at order {alpha!r}")
    return value


def renyi_entropy(probabilities: Iterable, alpha: float) -> float:
    """Renyi entropy of order alpha >= 0, in bits, of a sequence of
    probabilities: the D_alpha numerator of the Bayesian mass function they
    make, log2(sum p_i ** alpha) / (1 - alpha) with Shannon entropy at 1.

    Zero entries are dropped.  The rest enter normalised to sum to one, so
    the value is continuous through alpha = 1 also when they sum to one only
    within the tolerance.  A bad entry raises :class:`MassOutOfRange` or
    :class:`SumNotOne` before the order is read; an order that is not a
    number, or at which the value is not finite (NaN, +inf), raises
    :class:`OrderOutOfRange`.
    """
    return _renyi_bits(_probability_bands(probabilities), alpha)


def shannon_entropy(probabilities: Iterable) -> float:
    """-sum p_i log2 p_i in bits (0 log 0 = 0): Renyi entropy of order 1."""
    return renyi_entropy(probabilities, 1.0)


def renyi_information_dimension(probabilities: Iterable, alpha: float) -> float:
    """Renyi entropy rescaled by log2 of the support size.

    Defined only for supports of at least two points; a point mass has no
    scale to measure against, and raises :class:`DegenerateSupport` before
    the order is read.
    """
    bands = _probability_bands(probabilities)
    if len(bands) < 2:
        raise DegenerateSupport(f"information dimension needs support >= 2, got {len(bands)}")
    return _renyi_bits(bands, alpha) / math.log2(len(bands))


def as_profile_bands(m: MassFunction) -> list[ProfileBand]:
    """The evaluation form of a mass function: one band per exact
    ``(cardinality, mass)`` pair of its focal elements, sorted by pair.

    Every entropy and dimension term depends on a focal element only through
    that pair, so a band stands for ``multiplicity`` identical terms.  Masses
    are compared bit for bit.  The bands were counted once, when ``m`` was
    validated or built; this copies them and never groups again.
    """
    return list(m.bands)


def deng_entropy(m: MassFunction | Iterable[tuple[int, float, int]]) -> float:
    """Deng entropy -sum m(A) log2(m(A) / (2**|A| - 1)) in bits, of a mass
    function or of ``(cardinality, mass, multiplicity)`` rows, which are
    checked as bands are.  It is the D_alpha numerator at alpha = 1: the
    masses enter normalised to sum to one, as at every other order.
    """
    bands = as_profile_bands(m) if isinstance(m, MassFunction) else _as_bands(m)
    return _deng_terms(bands)[3].limit
