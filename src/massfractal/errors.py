"""Error taxonomy shared by every module in the package.

All errors derive from :class:`MassFractalError` so callers can catch the
whole family with one clause; the CLI maps subclasses onto exit codes.
"""

from __future__ import annotations


class MassFractalError(ValueError):
    """Base class for every domain error raised by this package."""


# --- mass-function construction and validation ---

class InvalidFrame(MassFractalError):
    """A frame size is not a positive integer, or its labels are not one
    distinct non-empty string per hypothesis."""


class EmptyFocalElement(MassFractalError):
    """An empty subset was given strictly positive mass, or a profile band
    is no ``(cardinality, mass, multiplicity)`` triple or has a cardinality
    or multiplicity that is not a whole number of at least one."""


class MassOutOfRange(MassFractalError):
    """A mass value lies outside [0, 1]."""


class SumNotOne(MassFractalError):
    """The masses do not sum to one within the validation tolerance."""


class InvalidTolerance(MassFractalError):
    """A sum or grouping tolerance is not a number of at least zero."""


class DuplicateFocalElement(MassFractalError):
    """The same subset appears more than once in the input."""


class IndexOutOfFrame(MassFractalError):
    """A hypothesis index falls outside the frame of discernment."""


class FrameTooLarge(MassFractalError):
    """An explicit family's masks would exceed the bit cap, a profile
    builder's band values would turn subnormal or leave the double range,
    or the envelope is asked past the largest max-Deng profile."""


# --- entropy-side errors ---

class NegativeOrderUnsupported(MassFractalError):
    """Renyi entropy of a probability distribution requires order >= 0."""


class DegenerateSupport(MassFractalError):
    """A probability distribution with a single-point support has no
    information dimension (the log of the support size is zero)."""


# --- multifractal-side errors ---

class DegenerateFrame(MassFractalError):
    """A frame of size one leaves the spectrum's rescaling log2(2**n - 1)
    at zero, and the quadratic envelope needs a frame of at least two."""


class ZeroDenominator(MassFractalError):
    """The dimension denominator log2(sum of weighted terms) is zero."""


class OrderOutOfRange(MassFractalError):
    """At this order the dimension, the Renyi entropy or their log sums
    leave the double range, or the order is not a number."""


# --- oracle errors ---

class MassesNotNormalized(MassFractalError):
    """Exact rational masses handed to the oracle do not sum to one."""


# --- CLI errors ---

class UnknownTable(MassFractalError):
    """The requested table identifier is not one of T1..T6."""


class GridTooLarge(MassFractalError):
    """An order grid or sample count exceeds the CLI's point cap."""
