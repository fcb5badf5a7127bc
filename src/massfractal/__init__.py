"""Multifractal spectrum and multifractal dimension of Dempster-Shafer mass functions."""

from __future__ import annotations

from .core import (
    FocalElement,
    FrameOfDiscernment,
    MassFunction,
    ProfileBand,
    max_deng_mass,
    max_deng_profile,
    uniform_powerset_mass,
    uniform_powerset_profile,
    uniform_singleton_mass,
    uniform_singleton_profile,
    vacuous_mass,
    vacuous_profile,
    validate_mass_function,
)
from .entropy import (
    deng_entropy,
    renyi_entropy,
    renyi_information_dimension,
    shannon_entropy,
)
from .multifractal import (
    DimensionResult,
    QuadraticEnvelope,
    Spectrum,
    SpectrumPoint,
    asymptotic_anchor_points,
    dimension_sweep,
    multifractal_dimension,
    quadratic_envelope,
    spectrum,
    spectrum_from_profile,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the oracle, and mpmath with it, is imported on first use of its names
    if name in ("ExactMass", "oracle_deng_entropy", "oracle_dimension"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExactMass",
    "DimensionResult",
    "FocalElement",
    "FrameOfDiscernment",
    "MassFunction",
    "ProfileBand",
    "QuadraticEnvelope",
    "Spectrum",
    "SpectrumPoint",
    "asymptotic_anchor_points",
    "deng_entropy",
    "dimension_sweep",
    "max_deng_mass",
    "max_deng_profile",
    "multifractal_dimension",
    "oracle_deng_entropy",
    "oracle_dimension",
    "quadratic_envelope",
    "renyi_entropy",
    "renyi_information_dimension",
    "shannon_entropy",
    "spectrum",
    "spectrum_from_profile",
    "uniform_powerset_mass",
    "uniform_powerset_profile",
    "uniform_singleton_mass",
    "uniform_singleton_profile",
    "vacuous_mass",
    "vacuous_profile",
    "validate_mass_function",
]
