"""Shared helpers for the test suite.

Random mass functions are built on a dyadic grid: masses are integer
multiples of 2**-20 that sum to exactly 1.0 in floating point.  That keeps
the validator's sum check exact and, more importantly, lets the oracle see
the identical rational numbers the double-precision path computes with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from massfractal.core import FrameOfDiscernment, MassFunction, validate_mass_function

DYADIC_BITS = 20


def dyadic_masses(rng: random.Random, parts: int) -> list[float]:
    """A random composition of 1 into ``parts`` exact dyadic masses."""
    total = 1 << DYADIC_BITS
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [(hi - lo) / total for lo, hi in zip(bounds, bounds[1:])]


def mask_to_members(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def random_mass_function(rng: random.Random, n: int, count: int | None = None) -> MassFunction:
    """A random mass function on a frame of size n with dyadic masses."""
    available = 2 ** n - 1
    if count is None:
        count = rng.randint(2, min(8, available))
    masks = rng.sample(range(1, available + 1), count)
    masses = dyadic_masses(rng, count)
    raw = [(mask_to_members(mask), mass) for mask, mass in zip(masks, masses)]
    return validate_mass_function(FrameOfDiscernment(n), raw)


def pooled_mass_function(rng: random.Random, n: int, pool_size: int = 3) -> MassFunction:
    """A random dyadic mass function whose masses come from a small pool.

    A dyadic composition of 1 into ``pool_size`` parts is drawn, and each
    part is split into 1, 2, 4 or 8 equal (still exact) pieces, so many
    focal elements share a mass and, on small frames, a cardinality too.
    Needs ``2**n - 1 >= 8 * pool_size`` subsets to place the pieces on.
    """
    pieces = []
    for part in dyadic_masses(rng, pool_size):
        copies = 2 ** rng.randint(0, 3)
        pieces += [part / copies] * copies
    masks = rng.sample(range(1, 2 ** n), len(pieces))
    raw = [(mask_to_members(mask), mass) for mask, mass in zip(masks, pieces)]
    return validate_mass_function(FrameOfDiscernment(n), raw)


def random_bayesian(rng: random.Random, n: int) -> MassFunction:
    """A random Bayesian mass function: positive dyadic mass on every singleton."""
    masses = dyadic_masses(rng, n)
    raw = [((i,), mass) for i, mass in enumerate(masses)]
    return validate_mass_function(FrameOfDiscernment(n), raw)


def oracle_terms(m: MassFunction) -> list[tuple[int, Fraction, int]]:
    """One exact term per focal element, mirroring the stored doubles."""
    return [
        (len(element.members), Fraction(mass), 1) for element, mass in m.assignments
    ]


def max_deng_exact(n: int) -> list[tuple[int, Fraction, int]]:
    """The maximum-Deng-entropy family as exact oracle terms."""
    scale = 3**n - 2**n
    return [(k, Fraction(2**k - 1, scale), comb(n, k)) for k in range(1, n + 1)]


def uniform_powerset_exact(n: int) -> list[tuple[int, Fraction, int]]:
    """The uniform-powerset family as exact oracle terms."""
    return [(k, Fraction(1, 2**n - 1), comb(n, k)) for k in range(1, n + 1)]
