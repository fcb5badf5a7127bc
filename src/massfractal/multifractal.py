"""Multifractal spectrum and multifractal dimension of mass functions.

A mass function spreads its unit of belief over subsets of the frame, and the
spread has a geometry.  Rescaling -log2 m(A) by log2(2**n - 1) gives each
focal element a coordinate y; counting how many focal elements share a mass
value, and rescaling the log of that count the same way, gives the spectrum
value f(y).  The multifractal dimension D_alpha compresses the same geometry
into a single order-indexed number

    D_alpha = [ 1/(1-alpha) * log2 sum_A (m(A)/(2**|A|-1))**alpha * (2**|A|-1) ]
              / [ log2 sum_A (2**|A|-1)**(alpha * m(A)) ]

whose alpha -> 1 limit has Deng entropy as its numerator.  On Bayesian mass
functions every |A| is 1, the weights collapse, and D_alpha reduces to the
Renyi information dimension; on the maximum-Deng-entropy family it climbs
toward log2(3) as the frame grows.

Numerics: this module holds the one D_alpha kernel, which :mod:`entropy`
also runs for Renyi and Deng entropy.  Both halves are one power sum
log2 sum_i 2**(c_i + order * r_i).  The numerator takes c_i = log2 s_i, of
the band shares s_i = k*m normalised to sum to one, r_i = t_i =
log2(m/(2**|A|-1)) <= 0 and order alpha - 1, over 1 - alpha; its alpha = 1
limit -sum_i s_i t_i is Deng entropy, and on singleton bands it is Renyi
entropy.  The denominator takes c_i = log2 k, r_i = m * log2(2**|A|-1) and
order alpha.  2**(order * x), x an extreme rate, is factored out, so no term
overflows.  A sum with a single term is returned exactly; any other is taken
as e + log2(1 + rest) through log1p, with 2**e its largest term and rest the
others over it, so a denominator near 1, as at negative orders with a
singleton, keeps the bits of its excess.  The numerator near alpha = 1, whose
shares hold no term near the whole sum, takes its terms through expm1.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from itertools import accumulate, compress
from operator import add, attrgetter, itemgetter, mul, ne, neg, sub
from typing import Iterable, NamedTuple, Sequence

from .core import (
    MAX_DENG_PROFILE_N,
    Bands,
    MassFunction,
    ProfileBand,
    _as_bands,
    _as_number,
    _as_tolerance,
    _check_frame_size,
    _check_profile_size,
)
from .errors import (
    DegenerateFrame,
    FrameTooLarge,
    IndexOutOfFrame,
    InvalidFrame,
    OrderOutOfRange,
    ZeroDenominator,
)

# Focal elements whose masses differ by no more than this (relatively) are
# counted as sharing one mass value when the spectrum is grouped.
GROUPING_TOLERANCE = 1e-9

_LN2 = math.log(2.0)
# log2(1 + x) is log1p(x) * _LOG2E: this double is nearer 1/ln 2, relatively,
# than _LN2 is to ln 2
_LOG2E = 1.0 / _LN2
# 2**x - 1 is finite below this x, and so is any mean of such terms
_MAX_EXPONENT = sys.float_info.max_exp - 1
# a sum leaves out a tail of bands provably below 2**-64 of it (:func:`_kept`)
_CUT_BITS = 64.0


class SpectrumPoint(NamedTuple):
    """One group of focal elements sharing a mass value.

    Attributes
    ----------
    y:
        Rescaled mass exponent, (0 - log2 mass) / log2(2**n - 1).
    f:
        Rescaled group size, log2(multiplicity) / log2(2**n - 1).
    mass_value:
        The shared mass (smallest member when grouping was tolerant).
    multiplicity:
        Number of focal elements in the group.
    representative_cardinality:
        The common cardinality of the group's members, or None when the
        group mixes cardinalities.
    """

    y: float
    f: float
    mass_value: float
    multiplicity: int
    representative_cardinality: int | None = None


class Spectrum(NamedTuple):
    """All spectrum points of one mass function, sorted by ascending y."""

    frame_size: int
    points: tuple[SpectrumPoint, ...]


class DimensionResult(NamedTuple):
    """One evaluated multifractal dimension.

    ``value`` equals ``numerator_bits / denominator_bits``; both sides of the
    ratio are kept so callers can inspect the scaling separately.  At
    ``alpha == 1`` the numerator is the Deng entropy.
    """

    alpha: float
    value: float
    numerator_bits: float
    denominator_bits: float


class SweepEntry(NamedTuple):
    """One row of a dimension sweep: either a result or an error code."""

    alpha: float
    result: DimensionResult | None
    error: str | None


class _EnvelopeRecord(NamedTuple):
    """The fields of a :class:`QuadraticEnvelope`, which fixes the roots."""

    a: float
    n: int
    root_low: float
    root_high: float


class QuadraticEnvelope(_EnvelopeRecord):
    """The asymptotic parabola -a (x - 0.585)(x - 1.585) over the spectrum.

    The roots are class constants, which the record carries and no caller
    sets: they sit at the limiting y values of the largest and smallest mass
    in the maximum-Deng-entropy family.  The coefficient a grows with the
    central binomial weight of the frame.
    """

    __slots__ = ()
    ROOT_LOW = 0.585
    ROOT_HIGH = 1.585

    def __new__(cls, a: float, n: int) -> QuadraticEnvelope:
        return super().__new__(cls, a, n, cls.ROOT_LOW, cls.ROOT_HIGH)

    def __getnewargs__(self) -> tuple[float, int]:
        return self.a, self.n

    def evaluate(self, x: float) -> float:
        # the trailing + 0.0 keeps the value at the roots a positive zero
        return -self.a * (x - self.root_low) * (x - self.root_high) + 0.0


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


def _log2_power_sum(exponents: Sequence[float]) -> float:
    """log2(sum_i 2**e_i) = top + log2(1 + rest): top is the largest e_i,
    whose term factored out is exactly 1, and rest the others' sum, rounded
    once by fsum, whose bits log1p keeps.  Exact for a single term."""
    top = max(exponents)
    if len(exponents) == 1:
        return top
    terms = [2.0 ** (e - top) for e in exponents]
    terms.append(-1.0)
    return top + math.log1p(math.fsum(terms)) * _LOG2E


class _Sum(NamedTuple):
    """One half of D_alpha, log2 sum_i 2**(c_i + order * r_i), order-free:
    per band the coefficient 2**c_i, c_i and r_i; for orders above 0 and the
    rest, the rate x that :func:`_log2_sum` factors out, with every r_i - x;
    and the coefficients' :func:`_tail_bits`, by falling coefficient, or
    None where they span at most 64 binades."""

    coefficients: Sequence
    logs: Sequence[float]
    rates: Sequence[float]
    above: tuple[float, Sequence[float]]
    below: tuple[float, Sequence[float]]
    tail: tuple | None


class _Terms(NamedTuple):
    """The order-free part of the kernel: the numerator's sum, over the
    shares and t_i, and the denominator's, over k and m * log2(2**|A| - 1);
    the alpha = 1 value -sum_i s_i t_i; and, for a lone focal element
    holding the whole unit of mass, its log2(2**|A| - 1), else None."""

    numerator: _Sum
    denominator: _Sum
    limit: float
    lone: float | None


def _tail_bits(values: Sequence) -> tuple[list[float], list[int]]:
    """log2 of the tail sum of the falling values from the start of each run
    of equal values, descending; and the run starts, then the count, so that
    no cut splits a run."""
    tails = list(accumulate(reversed(values)))[::-1]  # summed smallest first
    starts = [0, *compress(range(1, len(values)), map(ne, values[1:], values[:-1]))]
    return list(map(math.log2, map(tails.__getitem__, starts))), starts + [len(values)]


def _kept(tail: tuple[list[float], list[int]], room: float) -> int:
    """How many leading terms a sum of terms of one sign keeps, each term at
    most 2**-room of the first per unit of tail: all of them where room is not
    finite, else all but the longest tail bounded below 2**-64 of the first,
    with 2**-20 bits to spare for the tail sums' rounding."""
    bits, ends = tail
    return ends[bisect_left(bits, _CUT_BITS + 2.0 ** -20 - room, key=neg) if math.isfinite(room) else -1]


def _sum_of(coefficients: Sequence, logs: Sequence[float], rates: Sequence[float], low: float) -> _Sum:
    """The order-free :class:`_Sum` of these columns, factoring out the
    largest rate above order 0 and ``low`` otherwise, at most every rate."""
    tail = None
    if max(logs) - min(logs) > _CUT_BITS:
        # stable, so equal coefficients keep the order they came in
        pick = itemgetter(*sorted(range(len(logs)), key=coefficients.__getitem__, reverse=True))
        coefficients, logs, rates = pick(coefficients), pick(logs), pick(rates)
        tail = _tail_bits(coefficients)
    high = max(rates)
    return tuple.__new__(_Sum, (coefficients, logs, rates, (high, [r - high for r in rates]),
                                (low, [r - low for r in rates] if low else rates), tail))


def _deng_terms(bands: Sequence[ProfileBand]) -> _Terms:
    """The kernel terms of the bands, taken once for every order.

    The bands go by falling share k*m, for speed only.  fsum keeps one
    partial per non-overlapping piece of its running sum, and terms that
    rise and fall over hundreds of binades, as cardinality order gives
    them, make that list long; largest first keeps it short.  fsum is
    exactly rounded and max ignores order, so no result changes.  A sum
    with a tail takes its bands by falling coefficient, share or k.
    """
    log_multiplicities = list(map(math.log2, map(itemgetter(2), bands)))
    log_masses = list(map(math.log2, map(itemgetter(1), bands)))
    log_sizes = list(map(add, log_multiplicities, log_masses))
    if len(bands) > 1:
        order = sorted(range(len(bands)), key=log_sizes.__getitem__, reverse=True)
        pick = itemgetter(*order)  # one C call lays out each column
        bands, log_multiplicities, log_masses, log_sizes = (
            pick(bands), pick(log_multiplicities), pick(log_masses), pick(log_sizes)
        )
    log_weights = list(map(_log2_subset_count, map(itemgetter(0), bands)))
    exponents = list(map(sub, log_masses, log_weights))
    # normalised in the log domain, so a size past the double range is finite
    total = _log2_power_sum(log_sizes)
    log_shares = [size - total for size in log_sizes]
    shares = [2.0 ** share for share in log_shares]
    lone = len(bands) == 1 and bands[0].multiplicity == 1 and bands[0].mass == 1.0
    return _Terms(_sum_of(shares, log_shares, exponents, min(exponents)),
                  _sum_of(list(map(itemgetter(2), bands)), log_multiplicities,
                          list(map(mul, map(itemgetter(1), bands), log_weights)), 0.0),
                  math.fsum(-s * t for s, t in zip(shares, exponents)), log_weights[0] if lone else None)


def _log2_sum(side: _Sum, order: float) -> tuple[float, float]:
    """(x, b) with log2 sum_i 2**(c_i + order * r_i) = order * x + b.

    No order * (r_i - x) is positive, so each factored term
    2**(c_i + order * (r_i - x)) is at most its coefficient 2**c_i, and a
    tail of coefficients below 2**-64 of the first term, a lower bound of
    the sum of these positive terms, is left out."""
    x, shifted = side.above if order > 0.0 else side.below
    logs = side.logs
    if side.tail is not None:
        kept = _kept(side.tail, logs[0] + order * shifted[0])
        logs, shifted = logs[:kept], shifted[:kept]
    return x, _log2_power_sum([c + order * d for c, d in zip(logs, shifted)])


def _numerator_bits(terms: _Terms, alpha: float) -> float:
    """log2(sum_i s_i * 2**(eps * t_i)) / -eps at eps = alpha - 1.

    Every t_i <= 0, so the terms share a sign.  expm1 and log1p keep the
    value accurate however small eps is, provided the sum is finite and not
    far below 1: for eps < 0 it is at least 1, and finite while
    -eps * max |t_i| stays inside the double range; for eps > 0 it is at
    least 2**(-eps * limit) by Jensen's inequality.  Past those bounds
    :func:`_log2_sum` takes over, with the extreme t_i = T factored out:
    the value is -T + log2(sum_i s_i * 2**(eps * (t_i - T))) / -eps.
    """
    eps = alpha - 1.0
    if eps == 0.0:
        return terms.limit
    side = terms.numerator
    low = side.below[0]  # min t_i, which is -max |t_i|
    if (eps * terms.limit <= 1.0) if eps > 0.0 else (eps * low < _MAX_EXPONENT):
        scale = eps * _LN2
        shares, exponents = side.coefficients, side.rates
        if side.tail is not None:
            # each |expm1(scale * t)| is at most min(1, scale * max |t|), or expm1(scale * min t)
            bound = min(1.0, -scale * low) if eps > 0.0 else math.expm1(scale * low)
            first = abs(shares[0] * math.expm1(scale * exponents[0])) / bound
            kept = _kept(side.tail, math.log2(first) if first > 0.0 else math.inf)
            shares, exponents = shares[:kept], exponents[:kept]
        excess = math.fsum(s * math.expm1(scale * t) for s, t in zip(shares, exponents))
        return math.log1p(excess) / -scale
    top, bits = _log2_sum(side, eps)
    return bits / -eps - top


def _spectrum_from_bands(bands: Bands, n: int, grouping_tolerance) -> Spectrum:
    grouping_tolerance = _as_tolerance(grouping_tolerance, "grouping tolerance")
    if n < 2:
        raise DegenerateFrame(
            f"a frame of size {n} has log2(2**n - 1) = 0; no rescaling is possible"
        )
    scale = _log2_subset_count(n)
    # each group is [anchor mass, multiplicity, common cardinality or None]
    groups: list[list] = []
    for cardinality, mass, multiplicity in sorted(bands, key=itemgetter(1, 0)):
        if groups and mass - groups[-1][0] <= grouping_tolerance * mass:
            group = groups[-1]
            group[1] += multiplicity
            if group[2] != cardinality:
                group[2] = None
        else:
            groups.append([mass, multiplicity, cardinality])
    points = [
        tuple.__new__(SpectrumPoint, (
            (0.0 - math.log2(anchor)) / scale, math.log2(count) / scale, anchor, count, representative,
        ))
        for anchor, count, representative in groups
    ]
    points.sort(key=attrgetter("y"))
    return Spectrum(frame_size=n, points=tuple(points))


def spectrum(source: MassFunction | Bands, grouping_tolerance: float = GROUPING_TOLERANCE) -> Spectrum:
    """Group the focal elements of a mass function, or of a profile
    builder's bands, by mass and return the spectrum on their frame.

    Two masses count as "the same" when their relative difference is within
    ``grouping_tolerance``, a number of at least 0; each group becomes one
    :class:`SpectrumPoint`.  Grouping is by mass alone, so focal elements of
    different cardinalities sharing a mass merge into a single point.  The
    grouping starts from the bands, so its cost scales with the number of
    distinct ``(cardinality, mass)`` pairs.  Rows, which carry no frame
    size, raise :class:`InvalidFrame`; :func:`spectrum_from_profile` takes one.
    """
    bands = _as_bands(source)
    if bands.frame_size is None:
        raise InvalidFrame("band rows carry no frame size; use spectrum_from_profile(rows, n)")
    return _spectrum_from_bands(bands, bands.frame_size, grouping_tolerance)


def spectrum_from_profile(
    profile: Iterable[tuple[int, float, int]], n: int, grouping_tolerance: float = GROUPING_TOLERANCE
) -> Spectrum:
    """The spectrum of bands or rows on a frame of n, which need not be
    the frame a builder's bands came with.

    Raises :class:`InvalidFrame` when n is not a positive int, and
    :class:`IndexOutOfFrame` when a band's subsets do not fit a frame of n.
    """
    _check_frame_size(n)
    bands = _as_bands(profile)
    if max(map(itemgetter(0), bands)) > n:
        # the sizes go unprinted: an int past 4300 digits has no str
        raise IndexOutOfFrame("a band's subsets are larger than the frame")
    return _spectrum_from_bands(bands, n, grouping_tolerance)


def _dimension_from_bands(terms: _Terms, alpha: float) -> DimensionResult:
    # A lone focal element holding the whole unit of mass has the closed form
    # D_alpha = 1/alpha: both log sums collapse to multiples of the same
    # log2(2**c - 1), so the value is computed directly, independent of the
    # frame, rather than through a ratio that would wobble in the last bit.
    if terms.lone is not None:
        if terms.lone == 0.0:
            raise ZeroDenominator(
                "a lone singleton of mass 1 has denominator log2(1) = 0"
            )
        if alpha == 0.0:
            raise ZeroDenominator("order 0 zeroes the denominator exponent")
        numerator_bits = terms.lone
        value, denominator_bits = 1.0 / alpha, alpha * terms.lone
    else:
        side = terms.denominator
        top, bits = _log2_sum(side, alpha)
        denominator_bits = alpha * top + bits
        if denominator_bits == 0.0:
            if len(side.logs) > 1 and 0.0 in side.rates:
                # a singleton band's term is exactly 1, so with another band
                # the exact sum is above 1, but every other term underflowed
                raise OrderOutOfRange(f"order {alpha!r} takes the denominator below the double range")
            raise ZeroDenominator("the weighted power sum in the denominator is 1")
        numerator_bits = _numerator_bits(terms, alpha)
        value = numerator_bits / denominator_bits

    if not (math.isfinite(value) and math.isfinite(numerator_bits)
            and math.isfinite(denominator_bits)):
        raise OrderOutOfRange(f"order {alpha!r} takes the dimension past the double range")
    # tuple.__new__ builds the record in C, as core._as_bands builds bands
    return tuple.__new__(DimensionResult, (alpha, value, numerator_bits, denominator_bits))


def _sweep(terms: _Terms, alphas: Iterable[float]) -> list[SweepEntry]:
    """The one sweep loop: every order reads the same band terms, whose
    order-independent logs :func:`_deng_terms` took once."""
    try:
        alphas = iter(alphas)
    except TypeError:
        raise OrderOutOfRange(f"orders come as an iterable, not as {type(alphas).__name__}") from None
    entries: list[SweepEntry] = []
    for alpha in alphas:
        if type(alpha) is not float:
            alpha = _as_number(alpha, OrderOutOfRange, "order")
        try:
            entries.append(tuple.__new__(SweepEntry, (alpha, _dimension_from_bands(terms, alpha), None)))
        except (ZeroDenominator, OrderOutOfRange) as failure:
            entries.append(tuple.__new__(SweepEntry, (alpha, None, type(failure).__name__)))
    return entries


def multifractal_dimension(source: MassFunction | Iterable[tuple[int, float, int]], alpha: float) -> DimensionResult:
    """Order-alpha multifractal dimension of a mass function, of a profile
    builder's bands, or of rows, which are checked before the order.

    The order may be any real; at order 1 the numerator is the Deng entropy.
    Orders near 1 take the same formula without cancelling, within 1e-12
    (relative) of the exact value on every input the tests check, and the
    shares k*m enter normalised, so the value is continuous through 1 also
    when the masses sum to one only within the tolerance.  The evaluation
    reads the exact ``(cardinality, mass)`` bands, so the cost scales with
    the number of distinct pairs.

    Raises :class:`ZeroDenominator` when the denominator log vanishes (a
    lone singleton, as on every one-hypothesis frame, or order zero on a
    lone focal element), and
    :class:`OrderOutOfRange` when the order is so large or so small that the
    result leaves the double range, or is not a number.
    """
    terms = _deng_terms(_as_bands(source))
    return _dimension_from_bands(terms, _as_number(alpha, OrderOutOfRange, "order"))


# the benchmark calls this name; ROADMAP item 3 deletes it once the benchmark moves off it
dimension_from_profile = multifractal_dimension


def dimension_sweep(source: MassFunction | Iterable[tuple[int, float, int]], alphas: Iterable[float]) -> list[SweepEntry]:
    """Evaluate the dimension at each order, collecting per-order errors.

    One entry comes back per requested order, in input order; an order that
    fails (zero denominator, order out of range) yields an entry carrying
    the error name instead of aborting the remaining orders; orders that
    are no iterable, or an order that is not a number, raise
    :class:`OrderOutOfRange`, after the source is checked.  The bands' logs are taken once for the whole sweep, and each
    entry equals what :func:`multifractal_dimension` returns at that order.
    """
    return _sweep(_deng_terms(_as_bands(source)), alphas)


# the benchmark calls this name; ROADMAP item 3 deletes it once the benchmark moves off it
dimension_sweep_from_profile = dimension_sweep


def quadratic_envelope(n: int) -> QuadraticEnvelope:
    """The asymptotic quadratic envelope of the maximum-Deng-entropy
    spectrum for a frame of size n, with coefficient
    4 log2 C(n, floor(n/2)) / n and roots pinned at 0.585 and 1.585, served
    for each n the max-Deng profile builder serves, by that builder's check."""
    _check_profile_size(n, MAX_DENG_PROFILE_N, "max-deng", "turn subnormal")
    if n < 2:
        raise DegenerateFrame(f"the envelope needs a frame of at least 2, got {n}")
    a = 4.0 * math.log2(math.comb(n, n // 2)) / n
    return QuadraticEnvelope(a=a, n=n)


def asymptotic_anchor_points(n: int) -> tuple[tuple[float, float], ...]:
    """The three limiting spectrum points for the maximum-Deng-entropy
    family: zeros at the envelope's roots y = 0.585 and y = 1.585, and the
    central-binomial apex at their mean y = 1.085, a quarter of the
    envelope's coefficient."""
    envelope = quadratic_envelope(n)
    low, high = envelope.ROOT_LOW, envelope.ROOT_HIGH
    return ((low, 0.0), ((low + high) / 2.0, envelope.a / 4.0), (high, 0.0))
