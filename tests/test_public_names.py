"""The package's public surface: every exported name resolves, and the
per-element query API the core no longer has stays gone.

Run against the installed package as well as the source tree, so an export
left behind by a deletion fails on the wheel too.
"""

from __future__ import annotations

import importlib

import pytest

import massfractal

# Every value depends on a focal element only through its (|A|, m(A)) pair,
# which the bitmask masses and bands hold; these per-element helpers were
# removed with nothing left to call them.
REMOVED = [
    "is_bayesian",
    "max_deng_entropy_value",
    "core.is_bayesian",
    "core.FocalElement.from_members",
    "core.FocalElement.cardinality",
    "core.FocalElement.mask",
    "core.MassFunction.mass_of",
    "core.MassFunction.contains",
    "entropy.max_deng_entropy_value",
    "ProbabilityDistribution",
    "entropy.ProbabilityDistribution",
    "deng_entropy_from_profile",
    "entropy.deng_entropy_from_profile",
    # the quantities take a mass function, a builder's bands or rows; the
    # module attributes stay only as the benchmark's names for them
    "dimension_from_profile",
    "dimension_sweep_from_profile",
    "errors.NotAFocalElement",
    "multifractal.Spectrum.multiplicity_total",
    "multifractal._PreparedBands",
    "multifractal._prepare",
    # the Renyi measures take every real order, as D_alpha does
    "NegativeOrderUnsupported",
    "errors.NegativeOrderUnsupported",
    # each fault is refused once: a one-point support by D_alpha's zero
    # denominator, a frame size by core._check_frame_size, and the CLI's
    # --n and --samples by the builders' gate and the envelope's own count
    "errors.DegenerateSupport",
    "multifractal._check_int_size",
    "cli._positive_int",
    # a count is an int, as a frame size is, so no pre-gate reads a huge
    # non-int count; the oracle names a sum off one as the library does
    "errors.MassesNotNormalized",
    "core._past_reach",
    # one gate per value: core._as_bands takes every band source, and the
    # CLI's tolerances reach the library's one rule unchecked
    "core._bands_of",
    "multifractal._bands_of",
    "entropy._bands_of",
    "cli._tolerance",
    # the oracle reads a mass or an order under the library's number rule,
    # and the row check sums exactly in ints, leaving the log-sum to the kernel
    "ExactMass",
    "oracle.ExactMass",
    "oracle.RationalLike",
    "oracle.ProfileTerm",
    "core._log2_power_sum",
]


def test_exports_are_listed_once():
    assert len(set(massfractal.__all__)) == len(massfractal.__all__)


@pytest.mark.parametrize("name", massfractal.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(massfractal, name) is not None


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_do_not_resolve(path):
    *owner_path, name = path.split(".")
    owner = massfractal
    if owner_path:
        owner = importlib.import_module(f"massfractal.{owner_path[0]}")
        for attribute in owner_path[1:]:
            owner = getattr(owner, attribute)
    assert not hasattr(owner, name)
    assert name not in massfractal.__all__
