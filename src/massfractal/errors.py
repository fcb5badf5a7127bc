"""Error taxonomy shared by every module in the package.

All errors derive from :class:`MassFractalError` so callers can catch the
whole family with one clause; the CLI maps subclasses onto exit codes.
"""

from __future__ import annotations


class MassFractalError(ValueError):
    """Base class for every domain error raised by this package."""


# --- mass-function construction and validation ---

class InvalidFrame(MassFractalError):
    """A frame size is not a positive integer, its labels are not one
    distinct non-empty string per hypothesis, or a frame is no
    :class:`FrameOfDiscernment`."""


class EmptyFocalElement(MassFractalError):
    """An empty subset was given strictly positive mass, the input of a
    mass function is no iterable of ``(subset, mass)`` pairs, or a profile
    band is no ``(cardinality, mass, multiplicity)`` triple or has a
    cardinality or multiplicity that is not an int of at least one."""


class MassOutOfRange(MassFractalError):
    """A mass value lies outside [0, 1]."""


class SumNotOne(MassFractalError):
    """The masses do not sum to one within the validation tolerance, or
    the oracle's exact masses do not sum to exactly one."""


class InvalidTolerance(MassFractalError):
    """A sum or grouping tolerance is not a number of at least zero."""


class DuplicateFocalElement(MassFractalError):
    """The same subset appears more than once in the input."""


class IndexOutOfFrame(MassFractalError):
    """A hypothesis index falls outside the frame of discernment."""


class FrameTooLarge(MassFractalError):
    """An explicit family's masks would exceed the bit cap, or a profile
    builder's band values would turn subnormal or leave the double range."""


# --- multifractal-side errors ---

class DegenerateFrame(MassFractalError):
    """A frame of size one leaves the spectrum's rescaling log2(2**n - 1)
    at zero, and the quadratic envelope needs a frame of at least two."""


class ZeroDenominator(MassFractalError):
    """The dimension denominator log2(sum of weighted terms) is zero, as on
    a one-point support, whose Renyi information dimension is therefore
    undefined at every order."""


class OrderOutOfRange(MassFractalError):
    """At this order the dimension (the Renyi information dimension
    included), the Renyi entropy or their log sums leave the double range,
    or the order is not a number."""


# --- CLI errors ---

class UnknownTable(MassFractalError):
    """The requested table identifier is not one of T1..T6."""


class GridTooLarge(MassFractalError):
    """An order grid or sample count exceeds the CLI's point cap."""
