"""Frames of discernment, focal elements, and mass functions.

This module holds the evidence-theory substrate: the frame (the finite set of
elementary hypotheses), focal elements (non-empty subsets carrying strictly
positive mass), validated mass functions, and the four canonical families the
rest of the package keeps coming back to (maximum-Deng-entropy, uniform over
the power set, vacuous, uniform over singletons).

Large frames are handled through *cardinality profiles*: a mass function whose
mass depends only on the cardinality of the focal element is fully described
by one ``(cardinality, mass, multiplicity)`` band per cardinality, which lets
downstream code evaluate frames of size 20..25 without enumerating ``2**n``
subsets.  Explicit mass functions reach the same band form through
``entropy.as_profile_bands``, which groups focal elements on exact
``(cardinality, mass)`` pairs, so asymmetric functions with repeated masses
compress too.  :func:`cardinality_profile`, which merges equal-cardinality
masses within a relative 1e-12 onto the lowest, is not on the evaluation
path: evaluation keeps such masses in separate bands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateFocalElement,
    EmptyFocalElement,
    FrameTooLarge,
    IndexOutOfFrame,
    MassOutOfRange,
    NotAFocalElement,
    NotCardinalitySymmetric,
    SumNotOne,
)

# Explicit power-set materialization is refused beyond this many subsets;
# callers needing larger frames go through the profile builders instead.
EXPLICIT_SUBSET_CAP = 2 ** 26

# |sum of masses - 1| must stay within this bound for a mass function to
# validate.  Input files carry short decimal masses, so 1e-9 is roomy.
SUM_TOLERANCE = 1e-9

# Two focal elements of equal cardinality must agree on their mass to this
# relative tolerance for the cardinality-profile compression to apply.
SYMMETRY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class FrameOfDiscernment:
    """A finite set of n mutually exclusive elementary hypotheses.

    Parameters
    ----------
    size:
        Number of elementary hypotheses, at least 1.
    labels:
        Optional display names, one per hypothesis, pairwise distinct.
        When absent, hypotheses are labelled ``h1 .. hn`` on output.
    """

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"frame size must be a positive integer, got {self.size!r}")
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise ValueError(
                    f"expected {self.size} labels, got {len(self.labels)}"
                )
            if any(not lab for lab in self.labels):
                raise ValueError("frame labels must be non-empty strings")
            if len(set(self.labels)) != self.size:
                raise ValueError("frame labels must be pairwise distinct")

    def effective_labels(self) -> tuple[str, ...]:
        """The declared labels, or generated ``h1 .. hn`` defaults."""
        if self.labels is not None:
            return self.labels
        return tuple(f"h{i + 1}" for i in range(self.size))


@dataclass(frozen=True)
class FocalElement:
    """A non-empty subset of the frame, stored as a sorted index tuple.

    The canonical ascending order makes equality and hashing coincide with
    set semantics while keeping iteration order deterministic.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.members) == 0:
            raise EmptyFocalElement("a focal element must be a non-empty subset")
        previous = -1
        for index in self.members:
            if not isinstance(index, int) or index < 0:
                raise IndexOutOfFrame(f"hypothesis index {index!r} is not a non-negative integer")
            if index <= previous:
                raise ValueError("focal element members must be strictly ascending; use from_members")
            previous = index

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "FocalElement":
        """Build a focal element from any iterable of indices, deduplicated."""
        return cls(tuple(sorted(set(members))))

    @property
    def cardinality(self) -> int:
        return len(self.members)


class ProfileBand(NamedTuple):
    """One cardinality class of a cardinality-symmetric mass function."""

    cardinality: int
    mass: float
    multiplicity: int


@dataclass(frozen=True)
class MassFunction:
    """A validated basic probability assignment over a frame.

    Invariants enforced at construction: every stored mass lies in (0, 1],
    the masses sum to one within ``sum_tolerance``, no focal element repeats,
    and every index fits the frame.  Assignments are kept sorted by
    (cardinality, members) so output files are reproducible.
    """

    frame: FrameOfDiscernment
    assignments: tuple[tuple[FocalElement, float], ...]
    sum_tolerance: float = field(default=SUM_TOLERANCE, compare=False, repr=False)
    _lookup: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.assignments, key=lambda pair: (pair[0].cardinality, pair[0].members))
        )
        object.__setattr__(self, "assignments", ordered)
        lookup: dict[FocalElement, float] = {}
        for element, mass in ordered:
            if mass <= 0.0 or mass > 1.0:
                raise MassOutOfRange(
                    f"mass {mass!r} on {element.members} lies outside (0, 1]"
                )
            if element.members[-1] >= self.frame.size:
                raise IndexOutOfFrame(
                    f"index {element.members[-1]} exceeds frame of size {self.frame.size}"
                )
            if element in lookup:
                raise DuplicateFocalElement(f"subset {element.members} appears twice")
            lookup[element] = mass
        total = math.fsum(mass for _, mass in ordered)
        if abs(total - 1.0) > self.sum_tolerance:
            raise SumNotOne(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "_lookup", lookup)

    @property
    def focal_elements(self) -> tuple[FocalElement, ...]:
        return tuple(element for element, _ in self.assignments)

    @property
    def focal_count(self) -> int:
        return len(self.assignments)

    def mass_of(self, element: FocalElement) -> float:
        """Mass of ``element``, raising :class:`NotAFocalElement` if absent."""
        try:
            return self._lookup[element]
        except KeyError:
            raise NotAFocalElement(
                f"subset {element.members} carries no mass under this assignment"
            ) from None

    def contains(self, element: FocalElement) -> bool:
        return element in self._lookup


def validate_mass_function(
    frame: FrameOfDiscernment,
    raw: Sequence[tuple[Iterable[int], float]],
    sum_tolerance: float = SUM_TOLERANCE,
) -> MassFunction:
    """Turn a raw list of (subset, mass) pairs into a validated MassFunction.

    Zero-mass entries are dropped before any other check, matching the
    convention that focal elements exist only where mass is strictly
    positive.  Input order never affects the result; assignments come out
    sorted by (cardinality, members).

    Parameters
    ----------
    frame:
        The frame of discernment the subsets live in.
    raw:
        Any sequence of (iterable-of-indices, mass) pairs, possibly
        unsorted, with duplicates and out-of-range values to be rejected.
    sum_tolerance:
        Acceptable |sum - 1| for the retained masses.

    Raises
    ------
    MassOutOfRange, EmptyFocalElement, IndexOutOfFrame,
    DuplicateFocalElement, SumNotOne
    """
    kept: list[tuple[FocalElement, float]] = []
    seen: set[FocalElement] = set()
    for subset, mass in raw:
        mass = float(mass)
        if mass < 0.0 or mass > 1.0:
            raise MassOutOfRange(f"mass {mass!r} lies outside [0, 1]")
        if mass == 0.0:
            continue
        materialized = tuple(subset)
        if len(materialized) == 0:
            raise EmptyFocalElement("an empty subset was given positive mass")
        element = FocalElement.from_members(materialized)
        if element.members[-1] >= frame.size:
            raise IndexOutOfFrame(
                f"index {element.members[-1]} exceeds frame of size {frame.size}"
            )
        if element in seen:
            raise DuplicateFocalElement(f"subset {element.members} appears twice")
        seen.add(element)
        kept.append((element, mass))
    total = math.fsum(mass for _, mass in kept)
    if abs(total - 1.0) > sum_tolerance:
        raise SumNotOne(f"masses sum to {total!r}, not 1")
    return MassFunction(frame, tuple(kept), sum_tolerance=sum_tolerance)


def _check_enumerable(n: int) -> None:
    if 2 ** n > EXPLICIT_SUBSET_CAP:
        raise FrameTooLarge(
            f"2**{n} subsets exceed the enumeration cap of 2**26; "
            "use the cardinality-profile builders for frames this large"
        )


def _non_empty_subsets(n: int) -> Iterable[tuple[int, ...]]:
    indices = range(n)
    return itertools.chain.from_iterable(
        itertools.combinations(indices, k) for k in range(1, n + 1)
    )


def max_deng_mass(frame: FrameOfDiscernment) -> MassFunction:
    """The unique mass function maximizing Deng entropy on this frame.

    Every non-empty subset A receives mass (2**|A| - 1) / (3**n - 2**n);
    the normalizer is computed with exact integers so no intermediate
    overflows for any enumerable frame.
    """
    n = frame.size
    _check_enumerable(n)
    normalizer = 3 ** n - 2 ** n
    assignments: list[tuple[FocalElement, float]] = []
    for k in range(1, n + 1):
        mass_k = (2 ** k - 1) / normalizer
        for combo in itertools.combinations(range(n), k):
            assignments.append((FocalElement(combo), mass_k))
    return MassFunction(frame, tuple(assignments))


def uniform_powerset_mass(frame: FrameOfDiscernment) -> MassFunction:
    """Mass spread evenly over all 2**n - 1 non-empty subsets."""
    n = frame.size
    _check_enumerable(n)
    mass = 1.0 / (2 ** n - 1)
    assignments = tuple(
        (FocalElement(combo), mass) for combo in _non_empty_subsets(n)
    )
    return MassFunction(frame, assignments)


def vacuous_mass(frame: FrameOfDiscernment) -> MassFunction:
    """Total ignorance: all mass on the full frame."""
    whole = FocalElement(tuple(range(frame.size)))
    return MassFunction(frame, ((whole, 1.0),))


def uniform_singleton_mass(frame: FrameOfDiscernment) -> MassFunction:
    """The Bayesian mass function m({h_i}) = 1/n for every hypothesis."""
    n = frame.size
    mass = 1.0 / n
    assignments = tuple((FocalElement((i,)), mass) for i in range(n))
    return MassFunction(frame, assignments)


def is_bayesian(m: MassFunction) -> bool:
    """True iff every focal element is a singleton."""
    return all(element.cardinality == 1 for element in m.focal_elements)


def cardinality_profile(
    m: MassFunction,
    symmetry_tolerance: float = SYMMETRY_TOLERANCE,
) -> list[ProfileBand]:
    """Compress a cardinality-symmetric mass function into profile bands.

    Returns one band per cardinality present, carrying the shared mass and
    the count of focal elements of that cardinality.  Raises
    :class:`NotCardinalitySymmetric` as soon as two focal elements of equal
    cardinality disagree on their mass by more than ``symmetry_tolerance``
    (relative).
    """
    by_cardinality: dict[int, list[float]] = {}
    for element, mass in m.assignments:
        by_cardinality.setdefault(element.cardinality, []).append(mass)
    bands: list[ProfileBand] = []
    for cardinality in sorted(by_cardinality):
        masses = by_cardinality[cardinality]
        lowest, highest = min(masses), max(masses)
        if highest - lowest > symmetry_tolerance * highest:
            raise NotCardinalitySymmetric(
                f"cardinality {cardinality} carries masses from {lowest!r} to {highest!r}"
            )
        bands.append(ProfileBand(cardinality, lowest, len(masses)))
    return bands


# --- profile builders for the canonical families ---
#
# These produce the same bands cardinality_profile() would extract from the
# materialized mass function, but without enumerating subsets, so they stay
# usable far beyond the enumeration cap.

def max_deng_profile(n: int) -> list[ProfileBand]:
    normalizer = 3 ** n - 2 ** n
    return [
        ProfileBand(k, (2 ** k - 1) / normalizer, math.comb(n, k))
        for k in range(1, n + 1)
    ]


def uniform_powerset_profile(n: int) -> list[ProfileBand]:
    mass = 1.0 / (2 ** n - 1)
    return [ProfileBand(k, mass, math.comb(n, k)) for k in range(1, n + 1)]


def vacuous_profile(n: int) -> list[ProfileBand]:
    return [ProfileBand(n, 1.0, 1)]


def uniform_singleton_profile(n: int) -> list[ProfileBand]:
    return [ProfileBand(1, 1.0 / n, n)]
