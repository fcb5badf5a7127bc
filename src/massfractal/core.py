"""Frames of discernment, focal elements, and mass functions.

This module holds the evidence-theory substrate: the frame (the finite set of
elementary hypotheses), focal elements (non-empty subsets carrying strictly
positive mass), validated mass functions, and the four canonical families the
rest of the package keeps coming back to (maximum-Deng-entropy, uniform over
the power set, vacuous, uniform over singletons).

A validated :class:`MassFunction` maps int bitmasks (bit ``i`` is hypothesis
``i``) to masses and keeps the exact ``(cardinality, mass)`` bands that
entropy, spectrum and dimension read, as one checked :class:`Bands` value.
One pass, :func:`_validated`, checks every ``(subset, mass)`` pair, for
:func:`validate_mass_function` and for the CLI's loader alike, and counts
the bands once after it; nothing groups again.

Large frames are handled through *cardinality profiles*: a mass function whose
mass depends only on the cardinality of the focal element is fully described
by one ``(cardinality, mass, multiplicity)`` band per cardinality, which lets
downstream code evaluate frames without enumerating ``2**n`` subsets, up to
644 and 1023 for the max-Deng and uniform-powerset profiles.  The builders
return :class:`Bands` too, and :func:`_as_bands` checks outside rows as
:func:`validate_mass_function` checks pairs, so no band is checked twice.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateFocalElement,
    EmptyFocalElement,
    FrameTooLarge,
    IndexOutOfFrame,
    InvalidFrame,
    InvalidTolerance,
    MassFractalError,
    MassOutOfRange,
    SumNotOne,
)

# The explicit family builders are refused when the masks and the bit table
# they would build hold more bits than this many 32-bit masks.  A subset
# costs far more than its n bits, as a dict entry or as JSON text, and peak
# memory doubles with each n: ``family --n 19`` peaks near 180 MB of RSS.  So
# the cap admits every subset of a frame of 19 and refuses those of 20, and
# stops the vacuous family past n = 5,791 and the uniform-singleton one past
# 3,344.  Larger frames go through the profile builders instead.
EXPLICIT_SUBSET_CAP = 2 ** 19

# The largest frames the profile builders accept.  Past them a band value
# loses bits or leaves the double range: from n = 645 the max-Deng singleton
# mass 1 / (3**n - 2**n) is subnormal, with too few bits left for D_alpha at
# large orders, which that band sets; from n = 1024 the uniform normaliser
# 2**n - 1 exceeds the largest double; and the single-band profiles hold n
# itself and 1 / n.
MAX_DENG_PROFILE_N = 644
UNIFORM_POWERSET_PROFILE_N = 1023
SINGLE_BAND_PROFILE_N = int(sys.float_info.max)

# |sum of masses - 1| must stay within this bound for a mass function to
# validate.  Input files carry short decimal masses, so 1e-9 is roomy.
SUM_TOLERANCE = 1e-9

# Validation looks the bits of indices below this up in a dict built per
# call; an index past it takes the checked path, so a huge frame costs no
# huge table.
_LOOKUP_BITS = 256


class _Frozen:
    """Refused assignment, value equality and hashing over ``_key()``, a
    repr by field, and pickling through the constructor, for the validated
    inputs.  A frozen dataclass does the same, but importing ``dataclasses``
    imports ``inspect`` with it, a cost every CLI process would pay."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    _key = _values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _check_frame_size(n: int) -> None:
    """Refuse a frame size that is not an int of at least 1, the rule of
    every count: a bool, a float or a subclass of int is no int here."""
    if type(n) is not int or n < 1:
        # an int past 4300 digits has no str, so it is named by its length
        got = repr(n) if type(n) is not int or n.bit_length() < 14_000 else f"an int of {n.bit_length()} bits"
        raise InvalidFrame(f"frame size must be a positive integer, got {got}")


class FrameOfDiscernment(_Frozen):
    """A finite set of n mutually exclusive elementary hypotheses.

    Parameters
    ----------
    size:
        Number of elementary hypotheses, at least 1.
    labels:
        Optional display names: a tuple or list of non-empty strings, one
        per hypothesis, pairwise distinct, kept as a tuple.  When absent,
        hypotheses are labelled ``h1 .. hn`` on output.

    Raises :class:`InvalidFrame` on a bad size (a bool included) or bad
    labels (any other iterable, a str included).
    """

    __slots__ = _fields = ("size", "labels")

    def __init__(self, size: int, labels: tuple[str, ...] | list[str] | None = None) -> None:
        _check_frame_size(size)
        if labels is not None:
            if not isinstance(labels, (tuple, list)):
                raise InvalidFrame(f"frame labels must be a tuple or list, got {type(labels).__name__}")
            labels = tuple(labels)
            if len(labels) != size:
                raise InvalidFrame(f"expected {size} labels, got {len(labels)}")
            if not all(isinstance(lab, str) and lab for lab in labels):
                raise InvalidFrame("frame labels must be non-empty strings")
            if len(set(labels)) != size:
                raise InvalidFrame("frame labels must be pairwise distinct")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "labels", labels)

    def effective_labels(self) -> tuple[str, ...]:
        """The declared labels, or generated ``h1 .. hn`` defaults."""
        if self.labels is not None:
            return self.labels
        return tuple(f"h{i + 1}" for i in range(self.size))


class FocalElement(NamedTuple):
    """A focal element as the ascending tuple of its hypothesis indices, as
    :attr:`MassFunction.assignments` yields it."""

    members: tuple[int, ...]


class ProfileBand(NamedTuple):
    """One cardinality class of a cardinality-symmetric mass function."""

    cardinality: int
    mass: float
    multiplicity: int


class Bands(tuple):
    """Checked bands and the size of their frame (``None`` for rows given
    without one), built only by the builders, validation and :func:`_as_bands`.
    The frame size is set once: assignment raises AttributeError, as on a
    :class:`MassFunction`, so no caller can move bands onto another frame."""

    def __new__(cls, bands: Iterable[ProfileBand], frame_size: int | None = None) -> Bands:
        self = super().__new__(cls, bands)
        self.__dict__["frame_size"] = frame_size
        return self

    __setattr__ = _Frozen.__setattr__
    __delattr__ = _Frozen.__delattr__


class MassFunction(_Frozen):
    """A validated basic probability assignment over a frame.

    ``masses`` is keyed by focal bitmask; ``bands`` are sorted by pair.  Only
    the validation pass and the family builders construct one.
    Equality and hashing compare frame and masses.
    """

    __slots__ = _fields = ("frame", "masses", "bands")

    def __init__(self, frame: FrameOfDiscernment, masses: dict[int, float], bands: Bands) -> None:
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "bands", bands)

    def _key(self) -> tuple:
        return self.frame, self.masses

    def __hash__(self) -> int:
        return hash((self.frame, frozenset(self.masses.items())))

    @property
    def assignments(self) -> tuple[tuple[FocalElement, float], ...]:
        """(focal element, mass) pairs sorted by (cardinality, members)."""
        rows = sorted((mask.bit_count(), _members(mask), mass) for mask, mass in self.masses.items())
        return tuple((FocalElement(members), mass) for _, members, mass in rows)

    @property
    def focal_count(self) -> int:
        return len(self.masses)


def _as_number(value, error: type[MassFractalError], what: str) -> float:
    """A mass or an order as a float, or ``error`` naming ``what`` it is.
    A string, bytes or bool, which float() would read, is refused, and so
    is anything float() cannot read (a signaling NaN ``Decimal`` included)
    or holds only past the double range.  An int is taken."""
    if type(value) is float:
        return value
    if isinstance(value, (str, bytes, bytearray, bool)):
        raise error(f"{what} {value!r} is not a number")
    try:
        return float(value)
    except TypeError:
        raise error(f"{what} of type {type(value).__name__} is not a number") from None
    except ValueError:
        raise error(f"{what} {value!r} is not a number") from None
    except OverflowError:
        raise error(f"{what} lies past the double range") from None


def _as_tolerance(value, what: str) -> float:
    """A tolerance as a float of at least 0, an infinity included, or
    :class:`InvalidTolerance` naming ``what`` it is; NaN is refused."""
    tolerance = _as_number(value, InvalidTolerance, what)
    if not tolerance >= 0.0:
        raise InvalidTolerance(f"{what} {tolerance!r} is not a non-negative number")
    return tolerance


def _checked_mask(subset: Iterable, n: int) -> int:
    """The bitmask of a subset whose distinct indices must each be an int in
    ``[0, n)``; the first one that is not (in set order) is reported, as is
    a subset that is no iterable of hashable values (a signaling NaN)."""
    try:
        indices = set(subset)
    except TypeError:
        raise IndexOutOfFrame(f"a {type(subset).__name__} subset holds no hashable indices") from None
    mask = 0
    for index in indices:
        if not isinstance(index, int) or not 0 <= index < n:
            raise IndexOutOfFrame(
                f"hypothesis index {index!r} is not an integer in [0, {n})"
            )
        mask |= 1 << index
    return mask


def _members(mask: int) -> tuple[int, ...]:
    """The ascending indices of the bits set in ``mask``."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _check_frame(frame) -> None:
    """Refuse a frame that is no :class:`FrameOfDiscernment`."""
    if not isinstance(frame, FrameOfDiscernment):
        raise InvalidFrame(f"frame must be a FrameOfDiscernment, got {type(frame).__name__}")


def _validated(
    frame: FrameOfDiscernment,
    pairs: Iterable[tuple],
    sum_tolerance: float,
    masked: bool = False,
) -> MassFunction:
    """The one check of ``(subset, mass)`` pairs, for the library and the CLI.

    Each mass is range-checked (NaN fails) before zero masses are dropped;
    a string, bytes or bool mass is refused, not parsed.  Only a kept
    mass's subset is read: as its mask already when ``masked``, else as
    indices.  A subset of exact in-frame ints, the common case, gets its
    mask by one bit lookup per member; any subset the lookup refuses is
    checked index by index (:func:`_checked_mask`), which names the
    offending index.  A kept mask must be non-empty and new; a repeat is
    named by its mask's ascending indices, so a bool index reads as its
    int.  The masses must sum to one within ``sum_tolerance``, itself
    checked after the pairs, and the ``(cardinality, mass)`` bands are
    counted once, after the loop.
    """
    n = frame.size
    bits = {} if masked else {i: 1 << i for i in range(min(n, _LOOKUP_BITS))}
    masses: dict[int, float] = {}
    for subset, mass in pairs:
        if type(mass) is not float:
            mass = _as_number(mass, MassOutOfRange, "mass")
        if not (0.0 <= mass <= 1.0):
            raise MassOutOfRange(f"mass {mass!r} lies outside [0, 1]")
        if mass == 0.0:
            continue
        if masked:
            mask = subset
        else:
            try:
                if type(subset) is not tuple and type(subset) is not list and iter(subset) is subset:
                    subset = tuple(subset)  # a one-shot iterator, read twice below
                # an int sum keeps floats, numpy ints and other non-int
                # indices out of the lookup, whose keys they could hash
                # equal to; a sum of Decimals may raise ArithmeticError
                if type(sum(subset)) is not int:
                    raise TypeError
                mask = 0
                for index in subset:
                    mask |= bits[index]
            except (KeyError, TypeError, ArithmeticError):
                mask = _checked_mask(subset, n)
        if not mask:
            raise EmptyFocalElement("an empty subset was given positive mass")
        if mask in masses:
            raise DuplicateFocalElement(f"subset {_members(mask)} appears twice")
        masses[mask] = mass
    total = math.fsum(masses.values())
    tolerance = _as_tolerance(sum_tolerance, "sum tolerance")
    within = abs(total - 1.0) <= tolerance
    if abs(abs(total - 1.0) - tolerance) <= math.ulp(total):  # fsum rounds once: decide the edge in ints
        within = _sums_to_one(masses.values(), itertools.repeat(1), tolerance)
    # a tolerance of 1 or more would pass a function with no focal element
    if not masses or not within:
        raise SumNotOne(f"masses sum to {total!r}, not 1")
    counts = Counter(zip(map(int.bit_count, masses), masses.values()))
    bands = Bands((ProfileBand(*pair, multiplicity) for pair, multiplicity in sorted(counts.items())), n)
    return MassFunction(frame, masses, bands)


def validate_mass_function(
    frame: FrameOfDiscernment,
    raw: Sequence[tuple[Iterable[int], float]],
    sum_tolerance: float = SUM_TOLERANCE,
) -> MassFunction:
    """Turn a raw list of (subset, mass) pairs into a validated MassFunction.

    Each mass is range-checked (NaN fails) before zero masses are dropped,
    so the subset of a zero mass is never read; a string, bytes or bool
    mass is refused, not parsed.  Every other subset must hold indices in
    ``[0, frame.size)``, repeats counted once.

    Parameters
    ----------
    frame:
        The frame of discernment the subsets live in.
    raw:
        Any iterable of (iterable-of-indices, mass) pairs, possibly
        unsorted, with duplicates and out-of-range values to be rejected.
    sum_tolerance:
        Acceptable |sum - 1| for the retained masses: a number of at least
        0, checked after the pairs.

    Raises
    ------
    InvalidFrame, MassOutOfRange, EmptyFocalElement, IndexOutOfFrame,
    DuplicateFocalElement, InvalidTolerance, SumNotOne
    """
    _check_frame(frame)
    try:
        return _validated(frame, raw, sum_tolerance)
    except (TypeError, ValueError) as failure:
        # every check in the pass raises a MassFractalError, so a bare error
        # comes from iterating ``raw`` or unpacking one of its entries; one
        # try around the whole pass costs a pair nothing
        if isinstance(failure, MassFractalError):
            raise
        raise EmptyFocalElement(f"raw is no iterable of (subset, mass) pairs: {failure}") from None


def _sums_to_one(masses: Iterable[float], multiplicities: Iterable[int], tolerance: float) -> bool:
    """Whether |sum k*m - 1| <= tolerance, a finite float, decided exactly in
    ints, over the largest of the masses' denominators, each a power of two."""
    ratios = list(map(float.as_integer_ratio, masses))
    scale = max(map(operator.itemgetter(1), ratios), default=1)
    total = sum(p * (scale // q) * k for (p, q), k in zip(ratios, multiplicities))
    bound, bound_scale = tolerance.as_integer_ratio()
    return abs(total - scale) * bound_scale <= bound * scale


def _as_bands(source: MassFunction | Iterable[tuple[int, float, int]]) -> Bands:
    """The one band gate: a :class:`Bands` as it is, a mass function's
    bands, or rows checked as a mass function is: each a triple, every mass
    a number in (0, 1], every cardinality and multiplicity an int of at
    least 1, as a frame size is, and the k*m summing to one within
    ``SUM_TOLERANCE``.  The sum is exact, in ints, so a multiplicity past
    the double range does not overflow it."""
    if type(source) is Bands:
        return source
    if isinstance(source, MassFunction):
        return source.bands
    try:
        rows = list(source)
    except TypeError:
        raise EmptyFocalElement(f"band rows come as an iterable, not as {type(source).__name__}") from None
    if not rows:
        raise SumNotOne("a profile without bands carries no mass")
    try:
        # strict: a row of other than three values is refused, not truncated
        cardinalities, masses, multiplicities = zip(*rows, strict=True)
    except (TypeError, ValueError):
        raise EmptyFocalElement("a band row is not a (cardinality, mass, multiplicity) triple") from None
    if set(map(type, cardinalities + multiplicities)) != {int}:
        # a float, a bool, a Fraction or a Decimal is refused unread
        raise EmptyFocalElement("a band cardinality or multiplicity is not an int")
    if set(map(type, masses)) != {float}:
        masses = tuple(_as_number(mass, MassOutOfRange, "mass") for mass in masses)
    if not (min(masses) > 0.0 and max(masses) <= 1.0) or any(map(math.isnan, masses)):
        raise MassOutOfRange("a band mass lies outside (0, 1]")
    if min(cardinalities) < 1:
        raise EmptyFocalElement("a band of cardinality below 1 holds an empty subset")
    if min(multiplicities) < 1:
        raise EmptyFocalElement("a band of multiplicity below 1 holds no focal element")
    if not _sums_to_one(masses, multiplicities, SUM_TOLERANCE):
        raise SumNotOne(f"band masses times multiplicities do not sum to 1 within {SUM_TOLERANCE}")
    # tuple.__new__ makes each band in C, skipping the namedtuple's
    # Python-level constructor; every row is already a checked triple
    return Bands(map(tuple.__new__, itertools.repeat(ProfileBand),
                     zip(cardinalities, masses, multiplicities)))


def _check_explicit_size(n: int, profile: Bands) -> None:
    """Refuse a family whose every subset, as a mask, would pass the cap."""
    # the bit table holds 1 << i for each i < n, and each mask at most n bits
    held = n * (n + 1) // 2 + n * sum(band.multiplicity for band in profile)
    if held > 32 * EXPLICIT_SUBSET_CAP:
        raise FrameTooLarge(f"the masks of a frame of {n} would hold {held} bits, past the cap "
                            f"of {32 * EXPLICIT_SUBSET_CAP}; use the profile builders for frames this large")


def _symmetric_mass(frame: FrameOfDiscernment, builder) -> MassFunction:
    """Every subset of each band's cardinality, carrying that band's mass,
    in the bands ``builder`` gives for the frame's size."""
    _check_frame(frame)
    n = frame.size
    profile = builder(n)
    _check_explicit_size(n, profile)
    bits = [1 << i for i in range(n)]
    masses = {
        sum(combo): band.mass
        for band in profile
        for combo in itertools.combinations(bits, band.cardinality)
    }
    return MassFunction(frame, masses, profile)


def max_deng_mass(frame: FrameOfDiscernment) -> MassFunction:
    """The unique mass function maximizing Deng entropy on this frame.

    Every non-empty subset A receives mass (2**|A| - 1) / (3**n - 2**n);
    the normalizer is computed with exact integers so no intermediate
    overflows for any enumerable frame.
    """
    return _symmetric_mass(frame, max_deng_profile)


def uniform_powerset_mass(frame: FrameOfDiscernment) -> MassFunction:
    """Mass spread evenly over all 2**n - 1 non-empty subsets."""
    return _symmetric_mass(frame, uniform_powerset_profile)


def vacuous_mass(frame: FrameOfDiscernment) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    return _symmetric_mass(frame, vacuous_profile)


def uniform_singleton_mass(frame: FrameOfDiscernment) -> MassFunction:
    """The Bayesian mass function m({h_i}) = 1/n for every hypothesis."""
    return _symmetric_mass(frame, uniform_singleton_profile)


# --- profile builders for the canonical families ---
#
# These produce the same bands validation counts on the materialized mass
# function, but without enumerating subsets, so they stay usable far beyond
# the enumeration cap.

def _check_profile_size(n: int, largest: int, family: str,
                        fault: str = "leave the double range") -> None:
    _check_frame_size(n)
    if n > largest:
        raise FrameTooLarge(f"{family} band values {fault} past n = {largest:.6g}")


def _binomials(n: int) -> list[int]:
    """C(n, k) for k = 1..n, each from the one before by the exact
    recurrence C(n, k) = C(n, k - 1) * (n - k + 1) // k: one small big-int
    step per k, where math.comb starts afresh each time."""
    row = []
    count = 1
    for k in range(1, n + 1):
        count = count * (n - k + 1) // k
        row.append(count)
    return row


def max_deng_profile(n: int) -> Bands:
    _check_profile_size(n, MAX_DENG_PROFILE_N, "max-deng", "turn subnormal")
    normalizer = 3 ** n - 2 ** n
    masses = (((1 << k) - 1) / normalizer for k in range(1, n + 1))
    return Bands(map(tuple.__new__, itertools.repeat(ProfileBand), zip(range(1, n + 1), masses, _binomials(n))), n)


def uniform_powerset_profile(n: int) -> Bands:
    _check_profile_size(n, UNIFORM_POWERSET_PROFILE_N, "uniform-powerset")
    masses = itertools.repeat(1.0 / (2 ** n - 1))
    return Bands(map(tuple.__new__, itertools.repeat(ProfileBand), zip(range(1, n + 1), masses, _binomials(n))), n)


def vacuous_profile(n: int) -> Bands:
    _check_profile_size(n, SINGLE_BAND_PROFILE_N, "vacuous")
    return Bands([ProfileBand(n, 1.0, 1)], n)


def uniform_singleton_profile(n: int) -> Bands:
    _check_profile_size(n, SINGLE_BAND_PROFILE_N, "uniform-singleton")
    return Bands([ProfileBand(1, 1.0 / n, n)], n)
