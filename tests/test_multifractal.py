"""Spectrum geometry and the order-dependent dimension.

Four-decimal expectations come from the published coordinate and dimension
grids; full-precision ones were minted with the high-precision evaluator and
are pinned as regression anchors.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import massfractal.core as core_module
import massfractal.entropy as entropy_module
import massfractal.multifractal as multifractal_module
from conftest import (
    dyadic_masses,
    mask_to_members,
    max_deng_exact,
    oracle_terms,
    pooled_mass_function,
    random_mass_function,
    uniform_powerset_exact,
)
from massfractal.core import (
    MAX_DENG_PROFILE_N,
    UNIFORM_POWERSET_PROFILE_N,
    Bands,
    FrameOfDiscernment,
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
from massfractal.entropy import (
    deng_entropy,
    renyi_information_dimension,
)
from massfractal.errors import (
    DegenerateFrame,
    EmptyFocalElement,
    FrameTooLarge,
    IndexOutOfFrame,
    InvalidFrame,
    InvalidTolerance,
    MassOutOfRange,
    OrderOutOfRange,
    SumNotOne,
    ZeroDenominator,
)
from massfractal.multifractal import (
    GROUPING_TOLERANCE,
    QuadraticEnvelope,
    asymptotic_anchor_points,
    dimension_from_profile,
    dimension_sweep,
    dimension_sweep_from_profile,
    multifractal_dimension,
    quadratic_envelope,
    spectrum,
    spectrum_from_profile,
)
from massfractal.oracle import oracle_dimension

EXAMPLE_TWO_FOCAL = (((0,), 0.2), ((1, 2), 0.8))

# grid of published y coordinates, one row per frame size
Y_TABLE = {
    2: (1.4650, 0.4650),
    3: (1.5131, 0.9486, 0.5131),
    4: (1.5415, 1.1358, 0.8229, 0.5415),
    5: (1.5585, 1.2386, 0.9918, 0.7699, 0.5585),
    6: (1.5688, 1.3036, 1.0991, 0.9152, 0.7400, 0.5688),
}

F_TABLE = {
    2: (0.6309, 0.0),
    3: (0.5646, 0.5646, 0.0),
    4: (0.5119, 0.6616, 0.5119, 0.0),
    5: (0.4687, 0.6705, 0.6705, 0.4687, 0.0),
    6: (0.4325, 0.6536, 0.7231, 0.6536, 0.4325, 0.0),
}


def example_two_focal():
    return validate_mass_function(FrameOfDiscernment(3), EXAMPLE_TWO_FOCAL)


# --- spectrum ---

def test_spectrum_of_max_deng_three():
    sp = spectrum(max_deng_mass(FrameOfDiscernment(3)))
    assert sp.frame_size == 3
    assert len(sp.points) == 3
    full, pair, single = sp.points
    assert full.y == pytest.approx(0.5131423106025147, abs=1e-15)
    assert full.f == 0.0
    assert full.mass_value == pytest.approx(7 / 19, abs=1e-15)
    assert full.multiplicity == 1
    assert full.representative_cardinality == 3
    assert pair.y == pytest.approx(0.9485672765489351, abs=1e-15)
    assert pair.f == pytest.approx(0.5645750340535796, abs=1e-15)
    assert pair.multiplicity == 3
    assert pair.representative_cardinality == 2
    assert single.y == pytest.approx(1.5131423106025146, abs=1e-15)
    assert single.f == pair.f
    assert single.multiplicity == 3
    assert single.representative_cardinality == 1
    assert sum(point.multiplicity for point in sp.points) == 7


@pytest.mark.parametrize("n", sorted(Y_TABLE))
def test_published_coordinate_grid(n):
    sp = spectrum(max_deng_profile(n))
    by_card = {p.representative_cardinality: p for p in sp.points}
    for k in range(1, n + 1):
        point = by_card[k]
        assert point.y == pytest.approx(Y_TABLE[n][k - 1], abs=5e-4)
        assert point.f == pytest.approx(F_TABLE[n][k - 1], abs=5e-4)


def test_uniform_powerset_collapses_to_one_point():
    for n in (2, 3, 7, 12):
        sp = spectrum(uniform_powerset_profile(n))
        assert len(sp.points) == 1
        point = sp.points[0]
        assert point.f == 1.0
        assert abs(point.y - 1.0) <= 1e-12
        assert point.multiplicity == 2**n - 1
        assert point.representative_cardinality is None


def test_vacuous_spectrum_sits_at_the_origin():
    sp = spectrum(vacuous_mass(FrameOfDiscernment(5)))
    assert len(sp.points) == 1
    assert sp.points[0].y == 0.0
    assert sp.points[0].f == 0.0
    assert sp.points[0].multiplicity == 1


def test_unit_mass_maps_to_positive_zero():
    for sp in (spectrum(vacuous_mass(FrameOfDiscernment(4))),
               spectrum(vacuous_profile(4))):
        (point,) = sp.points
        assert point.y == 0.0
        assert math.copysign(1.0, point.y) == 1.0


def test_equal_masses_merge_across_cardinalities():
    m = validate_mass_function(
        FrameOfDiscernment(3),
        [((0,), 0.25), ((1,), 0.25), ((0, 1), 0.25), ((0, 1, 2), 0.25)],
    )
    sp = spectrum(m)
    assert len(sp.points) == 1
    point = sp.points[0]
    assert point.multiplicity == 4
    assert point.representative_cardinality is None
    assert point.f == pytest.approx(2.0 / math.log2(7), abs=1e-15)


def test_grouping_tolerance_merges_then_splits():
    close = 0.3 + 2.9e-10
    rest = 1.0 - 0.3 - close
    raw = [((0,), 0.3), ((1,), close), ((0, 1), rest)]
    frame = FrameOfDiscernment(2)
    merged = spectrum(validate_mass_function(frame, raw))
    assert [p.multiplicity for p in merged.points] == [1, 2]
    split = spectrum(validate_mass_function(frame, raw), grouping_tolerance=1e-12)
    assert [p.multiplicity for p in split.points] == [1, 1, 1]


NOT_A_TOLERANCE = ["x", b"1e-9", True, None, [1e-9], math.nan, -1e-9, -math.inf, -1]


@pytest.mark.parametrize("tolerance", NOT_A_TOLERANCE)
def test_grouping_tolerance_is_a_number_of_at_least_zero(tolerance):
    m = example_two_focal()
    with pytest.raises(InvalidTolerance, match="grouping tolerance"):
        spectrum(m, tolerance)
    with pytest.raises(InvalidTolerance, match="grouping tolerance"):
        spectrum_from_profile(vacuous_profile(3), 3, tolerance)


def test_grouping_tolerance_takes_any_number_of_at_least_zero():
    m = example_two_focal()
    assert spectrum(m, 0) == spectrum(m, 0.0) == spectrum(m, Fraction(1, 10 ** 9))
    # an infinite tolerance puts every mass in one group
    (point,) = spectrum(m, math.inf).points
    assert point.multiplicity == 2


@pytest.mark.parametrize("n", range(1, 11))
def test_profile_route_matches_enumeration(n):
    frame = FrameOfDiscernment(n)
    families = [
        (max_deng_mass, max_deng_profile),
        (uniform_powerset_mass, uniform_powerset_profile),
        (vacuous_mass, vacuous_profile),
        (uniform_singleton_mass, uniform_singleton_profile),
    ]
    for build_mass, build_profile in families:
        if n == 1:
            # log2(2**1 - 1) = 0 leaves nothing to rescale by
            with pytest.raises(DegenerateFrame):
                spectrum(build_mass(frame))
            with pytest.raises(DegenerateFrame):
                spectrum(build_profile(n))
            continue
        from_elements = spectrum(build_mass(frame))
        from_bands = spectrum(build_profile(n))
        assert from_elements == from_bands


# --- dimension ---

def test_dimension_of_two_focal_example():
    m = example_two_focal()
    d1 = multifractal_dimension(m, 1.0)
    assert d1.value == pytest.approx(1.1248587308406692, abs=1e-12)
    d2 = multifractal_dimension(m, 2.0)
    assert d2.value == pytest.approx(0.7163027535816686, abs=1e-12)
    d3 = multifractal_dimension(m, 3.0)
    assert d3.value == pytest.approx(0.5054063322490777, abs=1e-12)


def test_dimension_at_order_zero_counts_both_sides():
    result = multifractal_dimension(example_two_focal(), 0.0)
    assert result.value == pytest.approx(2.0, abs=1e-12)
    assert result.numerator_bits == pytest.approx(2.0, abs=1e-12)
    assert result.denominator_bits == pytest.approx(1.0, abs=1e-12)


def test_value_is_the_bit_ratio():
    m = example_two_focal()
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0):
        result = multifractal_dimension(m, alpha)
        assert result.value == result.numerator_bits / result.denominator_bits


@pytest.mark.parametrize("n", (2, 3, 7, 15))
@pytest.mark.parametrize("alpha", (0.5, 1.0, 2.0, 7.0, 19.0))
def test_vacuous_dimension_is_reciprocal_order(n, alpha):
    result = multifractal_dimension(vacuous_mass(FrameOfDiscernment(n)), alpha)
    assert result.value == 1.0 / alpha
    assert result.value * alpha == 1.0


def test_vacuous_dimension_is_frame_independent():
    for alpha in (0.5, 1.0, 3.0, 13.0):
        values = {
            multifractal_dimension(vacuous_mass(FrameOfDiscernment(n)), alpha).value
            for n in range(2, 16)
        }
        assert len(values) == 1


def test_uniform_singleton_dimension_is_one():
    for n in (2, 5, 9):
        for alpha in (0.5, 1.0, 2.0, 11.0):
            result = multifractal_dimension(
                uniform_singleton_mass(FrameOfDiscernment(n)), alpha
            )
            assert result.value == pytest.approx(1.0, abs=1e-12)


def test_order_one_regression_anchors():
    up = multifractal_dimension(uniform_powerset_mass(FrameOfDiscernment(2)), 1.0)
    assert up.value == pytest.approx(1.1850064879451376, abs=1e-12)
    md = multifractal_dimension(max_deng_mass(FrameOfDiscernment(2)), 1.0)
    assert md.value == pytest.approx(1.1752450600701754, abs=1e-12)


def test_profile_route_dimension_spots():
    assert multifractal_dimension(max_deng_profile(10), 7.0).value == pytest.approx(
        1.5750, abs=5e-4
    )
    assert multifractal_dimension(max_deng_profile(20), 19.0).value == pytest.approx(
        1.5849, abs=5e-4
    )


def test_bayesian_dimension_is_renyi_information_dimension():
    rng = random.Random(414)
    for _ in range(15):
        n = rng.randint(2, 7)
        weights = [rng.randint(1, 50) for _ in range(n)]
        total = sum(weights)
        masses = [w / total for w in weights]
        m = validate_mass_function(
            FrameOfDiscernment(n), [((i,), mass) for i, mass in enumerate(masses)]
        )
        for alpha in (-50.0, -2.0, -0.5, 0.5, 1.0, 2.0, 6.0):
            left = multifractal_dimension(m, alpha).value
            right = renyi_information_dimension(masses, alpha)
            assert left == pytest.approx(right, abs=1e-10)


def test_point_mass_on_singleton_has_no_denominator():
    m = validate_mass_function(FrameOfDiscernment(3), [((1,), 1.0)])
    with pytest.raises(ZeroDenominator):
        multifractal_dimension(m, 2.0)


def test_a_denominator_rounding_to_one_is_refused_and_swept_past():
    # two 2-sets of mass 0.5: the denominator sum 2 * 3**(alpha / 2) is 1 at
    # alpha = -2 / log2 3, and at the double nearest that root its log, a
    # lone term taken exactly, is 0.0
    rows = [(2, 0.5, 2)]
    root = -1.261859507142915
    assert root == -2.0 / math.log2(3.0)
    with pytest.raises(ZeroDenominator, match="^the weighted power sum in the denominator is 1$"):
        multifractal_dimension(rows, root)
    assert dimension_sweep(rows, [root, 2.0])[0] == (root, None, "ZeroDenominator")
    assert dimension_sweep(rows, [root, 2.0])[1].result == multifractal_dimension(rows, 2.0)


def test_order_zero_vacuous_has_no_denominator():
    with pytest.raises(ZeroDenominator):
        multifractal_dimension(vacuous_mass(FrameOfDiscernment(3)), 0.0)


def test_dimension_rejects_singleton_frames():
    # a one-hypothesis frame leaves the denominator log2(1) = 0 at every
    # order, on the mass-function route and the profile route alike
    m = vacuous_mass(FrameOfDiscernment(1))
    for alpha in (0.5, 1.0, 2.0):
        with pytest.raises(ZeroDenominator):
            multifractal_dimension(m, alpha)
        with pytest.raises(ZeroDenominator):
            multifractal_dimension(vacuous_profile(1), alpha)
    assert dimension_sweep(m, [2.0]) == dimension_sweep(vacuous_profile(1), [2.0])
    assert dimension_sweep(m, [2.0])[0].error == "ZeroDenominator"


def test_max_deng_order_one_grows_with_frame_size():
    values = [
        multifractal_dimension(max_deng_profile(n), 1.0).value for n in range(2, 21)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] < math.log2(3)


# --- sweeps ---

def test_sweep_preserves_order_and_isolates_failures():
    entries = dimension_sweep(vacuous_mass(FrameOfDiscernment(4)), [0.0, 2.0, 4.0])
    assert [e.alpha for e in entries] == [0.0, 2.0, 4.0]
    assert entries[0].result is None
    assert entries[0].error == "ZeroDenominator"
    assert entries[1].result.value == 0.5
    assert entries[2].result.value == 0.25
    assert entries[1].error is None


@pytest.mark.parametrize("m", [
    max_deng_mass(FrameOfDiscernment(3)), vacuous_mass(FrameOfDiscernment(3)),
])
def test_sweep_reports_orders_past_the_double_range(m):
    # the lone vacuous element overflows its denominator at +-1e308 and, at
    # the subnormal order, its value 1/alpha; max-Deng overflows every
    # numerator exponent there, and keeps a finite value once the largest
    # term is factored out
    entries = dimension_sweep(m, [1e308, -1e308, 1e-310, 2.0])
    errors = [e.error for e in entries]
    past = "OrderOutOfRange" if m.focal_count == 1 else None
    assert errors[:2] == [past, past]
    assert entries[3].result == multifractal_dimension(m, 2.0)
    for entry in entries:
        if entry.result is None:
            with pytest.raises(OrderOutOfRange):
                multifractal_dimension(m, entry.alpha)
        else:
            assert math.isfinite(entry.result.value)


@pytest.mark.parametrize("alpha", [1e308, 1.7e308, sys.float_info.max])
def test_dimension_where_every_numerator_exponent_overflows(alpha):
    # five singletons of 0.2: eps * log2 0.2 is -inf, and once the largest
    # term is factored out the numerator is log2 5, as is the denominator
    m = validate_mass_function(FrameOfDiscernment(5), [((i,), 0.2) for i in range(5)])
    result = multifractal_dimension(m, alpha)
    assert result.numerator_bits == 2.321928094887362
    assert result.value == 1.0
    assert multifractal_dimension([(1, 0.2, 5)], alpha) == result


NOT_A_NUMBER_ORDERS = ["2", b"3", bytearray(b"2"), True, False, None, [2.0], object(), 10 ** 400]


@pytest.mark.parametrize("alpha", NOT_A_NUMBER_ORDERS)
def test_orders_that_are_not_numbers_are_refused(alpha):
    m = validate_mass_function(FrameOfDiscernment(3), list(EXAMPLE_TWO_FOCAL))
    bands = [(1, 0.2, 1), (2, 0.8, 1)]
    with pytest.raises(OrderOutOfRange):
        multifractal_dimension(m, alpha)
    with pytest.raises(OrderOutOfRange):
        multifractal_dimension(bands, alpha)
    # refused outright, not reported as an error row of the sweep
    with pytest.raises(OrderOutOfRange):
        dimension_sweep(m, [2.0, alpha])
    with pytest.raises(OrderOutOfRange):
        dimension_sweep(bands, [alpha])


def test_int_orders_equal_float_orders():
    m = validate_mass_function(FrameOfDiscernment(3), list(EXAMPLE_TWO_FOCAL))
    assert multifractal_dimension(m, 2) == multifractal_dimension(m, 2.0)
    ints = dimension_sweep(m, [-2, 0, 3])
    assert ints == dimension_sweep(m, [-2.0, 0.0, 3.0])
    assert all(type(entry.alpha) is float for entry in ints)


def test_results_are_named_tuples():
    m = validate_mass_function(FrameOfDiscernment(3), list(EXAMPLE_TWO_FOCAL))
    result = multifractal_dimension(m, 2.0)
    assert result == (2.0, result.value, result.numerator_bits, result.denominator_bits)
    assert list(result._asdict()) == ["alpha", "value", "numerator_bits", "denominator_bits"]
    (entry,) = dimension_sweep(m, [2.0])
    assert entry == (2.0, result, None)
    point = spectrum(m).points[0]
    assert list(point._asdict()) == ["y", "f", "mass_value", "multiplicity",
                                     "representative_cardinality"]
    envelope = quadratic_envelope(6)
    assert envelope == (envelope.a, 6, 0.585, 1.585)
    with pytest.raises(AttributeError):
        result.value = 0.0


def test_sweep_from_profile_matches_direct_calls():
    # the benchmark's two dimension names give what the unified calls
    # give, on a builder's bands and on rows
    for profile in (max_deng_profile(6), [(1, 0.2, 1), (2, 0.8, 1)]):
        alphas = [1.0, 4.0, 7.0]
        entries = dimension_sweep_from_profile(profile, alphas)
        assert entries == dimension_sweep(profile, alphas)
        for entry in entries:
            direct = dimension_from_profile(profile, entry.alpha)
            assert entry.result == direct == multifractal_dimension(profile, entry.alpha)


def test_the_benchmark_names_are_the_public_functions():
    # one body per entry point: the two names bind the public functions
    assert dimension_from_profile is multifractal_dimension
    assert dimension_sweep_from_profile is dimension_sweep


@pytest.fixture
def band_checks(monkeypatch):
    """The profiles on which ``_as_bands`` ran its check, rather than
    passing a :class:`Bands` or a mass function's bands through, in every
    module that calls it."""
    checked = []
    as_bands = core_module._as_bands

    def counting(profile):
        bands = as_bands(profile)
        if bands is not profile and bands is not getattr(profile, "bands", None):
            checked.append(profile)
        return bands

    for module in (core_module, entropy_module, multifractal_module):
        monkeypatch.setattr(module, "_as_bands", counting)
    return checked


def test_sweep_builds_its_bands_once(monkeypatch, band_checks):
    read = []
    as_bands = multifractal_module._as_bands

    def counting(source):
        read.append(source)
        return as_bands(source)

    monkeypatch.setattr(multifractal_module, "_as_bands", counting)
    m = pooled_mass_function(random.Random(8), 6)
    entries = dimension_sweep(m, [-2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 9.0, 29.0])
    assert all(entry.result is not None for entry in entries)
    assert read == [m] and band_checks == []


def test_sweep_and_spectrum_share_one_band_build(band_checks, monkeypatch):
    m = pooled_mass_function(random.Random(21), 7)
    monkeypatch.setattr(core_module.MassFunction, "assignments",
                        property(lambda self: pytest.fail("assignments were derived")))
    entries = dimension_sweep(m, [-2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 9.0, 29.0])
    points = spectrum(m).points
    assert all(entry.result is not None for entry in entries)
    assert sum(point.multiplicity for point in points) == m.focal_count
    # validation grouped the focal elements once; the sweep and the spectrum
    # read those bands as they are, never checked them again, and never
    # derived the per-element assignments
    assert core_module._as_bands(m) is m.bands and band_checks == []
    assert m.bands.frame_size == 7


@pytest.mark.parametrize("builder", [max_deng_profile, uniform_powerset_profile,
                                     vacuous_profile, uniform_singleton_profile])
def test_builder_bands_are_never_checked_again(builder, band_checks):
    bands = builder(7)
    assert type(bands) is Bands and bands.frame_size == 7
    assert core_module._as_bands(bands) is bands
    dimension_sweep(bands, [0.5, 2.0])
    multifractal_dimension(bands, 2.0)
    spectrum(bands)
    deng_entropy(bands)
    dimension_sweep_from_profile(bands, [2.0])
    dimension_from_profile(bands, 2.0)
    spectrum_from_profile(bands, 7)
    assert band_checks == []


def test_rows_are_checked_once_per_call(band_checks):
    rows = [(1, 0.2, 1), (2, 0.8, 1)]
    calls = [
        lambda: dimension_sweep(rows, [0.5, 2.0, 3.0]),
        lambda: multifractal_dimension(rows, 2.0),
        lambda: deng_entropy(rows),
        lambda: spectrum_from_profile(rows, 3),
        lambda: dimension_sweep_from_profile(rows, [0.5, 2.0]),
        lambda: dimension_from_profile(rows, 2.0),
    ]
    for count, call in enumerate(calls, 1):
        call()
        assert len(band_checks) == count
    assert all(checked is rows for checked in band_checks)


@pytest.mark.parametrize("n", [2, 5, 30])
def test_every_quantity_takes_a_mass_function_a_builders_bands_or_rows(n):
    bands = max_deng_profile(n)
    rows = [tuple(band) for band in bands]
    sources = [bands, rows]
    if n <= 5:
        sources.append(max_deng_mass(FrameOfDiscernment(n)))
        assert spectrum(sources[-1]) == spectrum(bands)
    orders = [-2.0, 0.5, 1.0, 2.0, 29.0]
    for source in sources:
        assert dimension_sweep(source, orders) == dimension_sweep(bands, orders)
        assert multifractal_dimension(source, 2.0) == multifractal_dimension(bands, 2.0)
        assert deng_entropy(source) == deng_entropy(bands)
    assert spectrum(bands) == spectrum_from_profile(rows, n)


def test_spectrum_of_rows_needs_their_frame():
    rows = [(1, 0.2, 1), (2, 0.8, 1)]
    with pytest.raises(InvalidFrame, match=r"spectrum_from_profile\(rows, n\)"):
        spectrum(rows)
    # the rows are checked first
    with pytest.raises(SumNotOne):
        spectrum([(1, 0.2, 1)])
    assert spectrum_from_profile(rows, 3).frame_size == 3


def test_spectrum_from_profile_reads_the_frame_it_is_given():
    # a builder's bands on another frame give another rescaling
    bands = max_deng_profile(3)
    assert spectrum_from_profile(bands, 3) == spectrum(bands)
    wider = spectrum_from_profile(bands, 5)
    assert wider.frame_size == 5
    assert [point.y for point in wider.points] == [
        (0.0 - math.log2(point.mass_value)) / math.log2(31) for point in wider.points
    ]


SOURCE_BEFORE_ORDER = {
    "multifractal_dimension": lambda rows, order: multifractal_dimension(rows, order),
    "dimension_sweep": lambda rows, order: dimension_sweep(rows, [order]),
    "dimension_from_profile": lambda rows, order: dimension_from_profile(rows, order),
    "dimension_sweep_from_profile": lambda rows, order: dimension_sweep_from_profile(rows, [order]),
}


@pytest.mark.parametrize("entry", sorted(SOURCE_BEFORE_ORDER))
@pytest.mark.parametrize("rows, error", [
    ([(1, 2.0, 1)], MassOutOfRange),
    ([(1, 0.5)], EmptyFocalElement),
    ([(1, 0.5, 1)], SumNotOne),
    ([(2 ** 1100, 1.0, 1)], FrameTooLarge),
], ids=["mass", "shape", "sum", "cardinality"])
def test_the_source_is_named_before_the_order(entry, rows, error):
    with pytest.raises(error):
        SOURCE_BEFORE_ORDER[entry](rows, "x")


@pytest.mark.parametrize("sweep", [dimension_sweep, dimension_sweep_from_profile])
@pytest.mark.parametrize("orders", [5, None, 2.0], ids=["int", "none", "float"])
def test_orders_that_are_no_iterable_are_named_after_the_source(sweep, orders):
    with pytest.raises(OrderOutOfRange, match=f"not as {type(orders).__name__}$"):
        sweep(max_deng_profile(3), orders)
    with pytest.raises(MassOutOfRange):
        sweep([(1, 2.0, 1)], orders)


@pytest.mark.parametrize("call", [
    lambda rows, tolerance: spectrum(rows, tolerance),
    lambda rows, tolerance: spectrum_from_profile(rows, 3, tolerance),
], ids=["spectrum", "spectrum_from_profile"])
def test_the_source_is_named_before_the_grouping_tolerance(call):
    with pytest.raises(MassOutOfRange):
        call([(1, 2.0, 1)], "x")


# --- grouping on exact (cardinality, mass) ---

FAR_ORDERS = (-2.0, 0.0, 0.5, 1.5, 2.0, 3.0, 9.0, 29.0, 100.0)
NEAR_ORDERS = (1 - 1e-4, 1 - 1e-7, 1 - 1e-9, 1.0, 1 + 1e-11, 1 + 1e-9, 1 + 1e-6)
# order 1 and 1 +- 10**-k for k = 1..15
NEAR_ONE_ORDERS = (1.0,) + tuple(
    1.0 + sign * 10.0 ** -k for k in range(1, 16) for sign in (1, -1)
)
ORACLE_TOLERANCE = 1e-12


def _relative_error(value, exact):
    return abs(value - exact) / abs(exact)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=5, max_value=7),
    pool_size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_grouped_bands_match_one_band_per_element(seed, n, pool_size):
    m = pooled_mass_function(random.Random(seed), n, pool_size)
    per_element = [(len(element.members), mass, 1) for element, mass in m.assignments]
    orders = FAR_ORDERS + NEAR_ORDERS
    grouped = dimension_sweep(m, orders)
    ungrouped = dimension_sweep(per_element, orders)
    terms = oracle_terms(m)
    for entry, reference in zip(grouped, ungrouped):
        alpha = entry.alpha
        assert entry.error == reference.error
        if entry.result is None:
            continue
        assert entry.result == multifractal_dimension(m, alpha)
        got, ref = entry.result, reference.result
        if abs(alpha - 1.0) >= 1e-3:
            for field in ("value", "numerator_bits", "denominator_bits"):
                assert getattr(got, field) == pytest.approx(getattr(ref, field), rel=1e-12, abs=0)
        else:
            exact = oracle_dimension(terms, alpha)
            assert _relative_error(got.value, exact) <= ORACLE_TOLERANCE
            assert _relative_error(ref.value, exact) <= ORACLE_TOLERANCE
    for tolerance in (GROUPING_TOLERANCE, 0.0):
        assert spectrum(m, tolerance).points == spectrum_from_profile(
            per_element, n, tolerance
        ).points


# --- through order 1 ---

def _oracle_misses(entries, exact):
    """(order, error name or relative error) for each entry not within
    ORACLE_TOLERANCE of the oracle."""
    misses = []
    for entry in entries:
        if entry.result is None:
            misses.append((entry.alpha, entry.error))
            continue
        error = _relative_error(entry.result.value, oracle_dimension(exact, entry.alpha))
        if error > ORACLE_TOLERANCE:
            misses.append((entry.alpha, error))
    return misses


@pytest.mark.parametrize("n", range(2, 13))
def test_family_dimensions_near_order_one_match_the_oracle(n):
    for profile, exact in (
        (max_deng_profile(n), max_deng_exact(n)),
        (uniform_powerset_profile(n), uniform_powerset_exact(n)),
    ):
        assert _oracle_misses(dimension_sweep(profile, NEAR_ONE_ORDERS), exact) == []


def test_large_frame_dimension_near_order_one_matches_the_oracle():
    entries = dimension_sweep(max_deng_profile(400), NEAR_ONE_ORDERS)
    assert _oracle_misses(entries, max_deng_exact(400)) == []


# --- negative orders with a singleton ---
#
# A singleton's denominator term is exactly 1 and every other term falls
# towards 0 as the order falls, so the denominator sum tends to 1 from above.
# Each order either agrees with the oracle or raises OrderOutOfRange: where
# the other terms have underflowed, or the value passes the largest double.

NEGATIVE_ORDERS = tuple(float(a) for a in range(-1000, 1, 5)) + (-59.5, -0.5, -1e-9)
SINGLETON_PROFILES = [
    [(1, 0.5, 1), (2, 0.5, 1)],
    [(1, 0.25, 1), (3, 0.75, 1)],
    [(1, 0.125, 1), (2, 0.375, 1), (4, 0.5, 1)],
    [(1, 0.5, 1), (2, 0.25, 2)],
]


def _misses_but_out_of_range(entries, exact):
    return [miss for miss in _oracle_misses(entries, exact) if miss[1] != "OrderOutOfRange"]


@pytest.mark.parametrize("profile", SINGLETON_PROFILES)
def test_negative_orders_with_a_singleton_match_the_oracle(profile):
    # at order -60 on the first profile the sum is 1 + 3**-30, and the log
    # of that sum rounded to a double is 0.57% off
    exact = [(c, Fraction(m), k) for c, m, k in profile]
    entries = dimension_sweep(profile, NEGATIVE_ORDERS)
    assert _misses_but_out_of_range(entries, exact) == []
    assert entries[NEGATIVE_ORDERS.index(-60.0)].result is not None


def test_singleton_alone_past_the_double_range_is_out_of_range():
    # 3**(-0.75 * 1000) underflows to 0; the exact denominator is positive
    with pytest.raises(OrderOutOfRange):
        multifractal_dimension([(1, 0.25, 1), (3, 0.75, 1)], -1000.0)


# --- negative orders with a tiny mass and no singleton ---
#
# With no singleton every denominator term falls below 1 at a negative
# order, but a tiny mass keeps its term within about alpha * 2**-40 of 1
# over decades of order.  The sum's excess over 1 is then mostly that
# term's, whose bits 2**e rounds off; expm1 keeps them.

TINY_MASS_ORDERS = (-3.0, -10.0, -45.0, -100.0, -1e3, -1e4, -1e5, -1e6, -1e7)


@pytest.mark.parametrize("tiny", [2.0 ** -40, 2.0 ** -20])
def test_negative_orders_with_a_tiny_mass_match_the_oracle(tiny):
    # at order -45 the 2**-40 rows missed the oracle by 1.1e-6 when 2**e
    # was rounded before 1 was taken off
    profile = [(2, tiny, 1), (2, 1.0 - tiny, 1)]
    exact = [(c, Fraction(m), k) for c, m, k in profile]
    assert _oracle_misses(dimension_sweep(profile, TINY_MASS_ORDERS), exact) == []


@st.composite
def mass_functions_with_a_singleton(draw):
    """A random dyadic mass function on 2..6 hypotheses with a singleton
    among its focal elements."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=2, max_value=6))
    singleton = 1 << rng.randrange(n)
    others = [mask for mask in range(1, 2**n) if mask != singleton]
    masks = [singleton] + rng.sample(others, rng.randint(1, min(7, len(others))))
    raw = [(mask_to_members(mask), mass) for mask, mass in zip(masks, dyadic_masses(rng, len(masks)))]
    return validate_mass_function(FrameOfDiscernment(n), raw)


@given(
    m=mass_functions_with_a_singleton(),
    orders=st.lists(st.floats(min_value=-1000.0, max_value=0.0), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_negative_orders_on_random_inputs_with_a_singleton_match_the_oracle(m, orders):
    assert _misses_but_out_of_range(dimension_sweep(m, orders), oracle_terms(m)) == []


def test_explicit_dimensions_near_order_one_match_the_oracle():
    rng = random.Random(1618)
    for _ in range(12):
        m = pooled_mass_function(rng, rng.randint(5, 7), rng.randint(1, 3))
        assert _oracle_misses(dimension_sweep(m, NEAR_ONE_ORDERS), oracle_terms(m)) == []


def test_skewed_dimension_matches_the_oracle_near_and_far_from_one():
    # nearly all the mass on a singleton (t close to 0) and a sliver on a
    # 30-element set (t near -57): the largest |t| is far from the share-weighted one
    sliver = 2.0 ** -27
    m = validate_mass_function(
        FrameOfDiscernment(31), [((0,), 1.0 - sliver), (tuple(range(1, 31)), sliver)]
    )
    orders = NEAR_ONE_ORDERS + FAR_ORDERS + (1000.0,)
    assert _oracle_misses(dimension_sweep(m, orders), oracle_terms(m)) == []


def test_dimension_is_continuous_through_one_on_masses_short_of_one():
    # sums to 1 - 1e-10, inside the tolerance; the shares are normalised, so
    # the 1e-10 is not divided by alpha - 1
    m = validate_mass_function(FrameOfDiscernment(3), [((i,), 0.3333333333) for i in range(3)])
    center = multifractal_dimension(m, 1.0).value
    assert deng_entropy(m) == multifractal_dimension(m, 1.0).numerator_bits
    for alpha in (1.0 - 1e-11, 1.0 + 1e-11):
        assert _relative_error(multifractal_dimension(m, alpha).value, center) <= 1e-12


# --- envelope and anchors ---

def test_envelope_is_served_up_to_the_max_deng_limit():
    assert quadratic_envelope(MAX_DENG_PROFILE_N).n == MAX_DENG_PROFILE_N
    with pytest.raises(FrameTooLarge) as builder:
        max_deng_profile(MAX_DENG_PROFILE_N + 1)
    for build in (quadratic_envelope, asymptotic_anchor_points):
        # the builder's own check, under the builder's message
        with pytest.raises(FrameTooLarge) as refused:
            build(MAX_DENG_PROFILE_N + 1)
        assert str(refused.value) == str(builder.value)
        with pytest.raises(FrameTooLarge):
            build(10 ** 12)


def test_envelope_coefficient_values():
    env = quadratic_envelope(6)
    assert env.a == pytest.approx(2.8812853965915752, abs=1e-14)
    assert env.root_low == 0.585
    assert env.root_high == 1.585
    assert quadratic_envelope(2).a == 2.0


def test_envelope_vanishes_at_the_roots():
    env = quadratic_envelope(6)
    assert env.evaluate(0.585) == 0.0
    assert env.evaluate(1.585) == 0.0
    assert math.copysign(1.0, env.evaluate(0.585)) == 1.0


def test_envelope_midpoint_value():
    env = quadratic_envelope(6)
    assert env.evaluate(1.085) == pytest.approx(0.7203213491478938, abs=1e-14)
    assert env.evaluate(1.085) == pytest.approx(0.25 * env.a, abs=1e-15)


def test_envelope_roots_are_the_class_constants_the_anchors_read():
    env = quadratic_envelope(6)
    assert (env.root_low, env.root_high) == (QuadraticEnvelope.ROOT_LOW, QuadraticEnvelope.ROOT_HIGH)
    with pytest.raises(TypeError):
        QuadraticEnvelope(env.a, 6, 0.7, 1.7)
    assert pickle.loads(pickle.dumps(env)) == env == copy.deepcopy(env)
    low, apex, high = asymptotic_anchor_points(6)
    assert (low[0], apex[0], high[0]) == (env.root_low, (env.root_low + env.root_high) / 2, env.root_high)


def test_envelope_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        quadratic_envelope(1)
    with pytest.raises(DegenerateFrame):
        quadratic_envelope(1)


def test_anchor_points():
    low, mid, high = asymptotic_anchor_points(6)
    assert low == (0.585, 0.0)
    assert high == (1.585, 0.0)
    assert mid[0] == 1.085
    assert mid[1] == pytest.approx(0.7203213491478938, abs=1e-14)
    big_mid = asymptotic_anchor_points(200)[1][1]
    assert big_mid == pytest.approx(0.9792526023954459, abs=1e-14)
    assert abs(big_mid - 1.0) < 0.05


# --- property-based checks ---

@st.composite
def random_masses(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=min(8, 2**n - 1)))
    masks = draw(
        st.lists(
            st.integers(min_value=1, max_value=2**n - 1),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=1000),
            min_size=count,
            max_size=count,
        )
    )
    total = sum(weights)
    raw = [
        (mask_to_members(mask), w / total) for mask, w in zip(masks, weights)
    ]
    return validate_mass_function(FrameOfDiscernment(n), raw)


@given(random_masses())
@settings(max_examples=120, deadline=None)
def test_spectrum_partitions_the_focal_elements(m):
    sp = spectrum(m)
    assert sum(point.multiplicity for point in sp.points) == m.focal_count
    assert all(p.multiplicity >= 1 for p in sp.points)
    ys = [p.y for p in sp.points]
    assert ys == sorted(ys)


@given(random_masses())
@settings(max_examples=120, deadline=None)
def test_counting_coordinate_stays_in_unit_range(m):
    top = math.log2(2**m.frame.size - 1)
    for point in spectrum(m).points:
        assert 0.0 <= point.f <= 1.0
        assert point.f <= math.log2(m.focal_count) / top + 1e-12
        assert point.y >= 0.0


def test_dimension_handles_random_inputs_at_varied_orders():
    rng = random.Random(5150)
    for _ in range(30):
        m = random_mass_function(rng, rng.randint(2, 6))
        for alpha in (0.5, 1.0, 2.0, 9.0):
            result = multifractal_dimension(m, alpha)
            assert math.isfinite(result.value)
            assert result.denominator_bits != 0.0


MONOTONE_ORDERS = [k / 4 for k in range(-200, 401)]  # -50 to 100 in steps of 0.25


def test_dimension_does_not_rise_with_the_order():
    # D_alpha is non-increasing in alpha wherever the denominators of both
    # orders are positive: 300 random dyadic mass functions on frames of 2
    # to 6, with 2 to 6 focal elements, at adjacent orders of the grid
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = random_mass_function(rng, n, rng.randint(2, min(6, 2 ** n - 1)))
        results = [entry.result for entry in dimension_sweep(m, MONOTONE_ORDERS)]
        for low, high in zip(results, results[1:]):
            if low and high and low.denominator_bits > 0.0 and high.denominator_bits > 0.0:
                assert high.value <= low.value, (seed, low, high)
                checked += 1
    assert checked > 100_000


@pytest.mark.parametrize("n, near, far", [(10, 10.0, 20.0), (20, 2e3, 1e4), (40, 1e7, 2e7)])
def test_max_deng_nears_log2_3_only_up_to_an_order_that_grows_with_the_frame(n, near, far):
    # the denominator sees the order only through alpha * m_k * log2(2**k - 1),
    # about n * (2/3)**n at k = n, so the limit log2 3 holds at each order
    # but not uniformly: past an order growing about 1.5-fold per hypothesis
    # D_alpha leaves it
    bands = max_deng_profile(n)
    miss = [abs(multifractal_dimension(bands, alpha).value / math.log2(3) - 1.0) for alpha in (near, far)]
    assert miss[0] < 0.01 < miss[1]


def binary_entropy(x):
    return -math.fsum(p * math.log2(p) for p in (x, 1.0 - x) if p > 0.0)


def test_max_deng_spectrum_sits_under_the_binary_entropy_curve():
    # f * log2(2**n - 1) is log2 C(n, k) for the point of cardinality k, and
    # 2**(n H2(k/n)) / (n + 1) <= C(n, k) <= 2**(n H2(k/n)) (Cover and
    # Thomas, Elements of Information Theory, 2nd ed., Thm 11.1.3)
    for n in range(2, MAX_DENG_PROFILE_N + 1):
        scale, slack = math.log2(2 ** n - 1), math.log2(n + 1)
        points = spectrum(max_deng_profile(n)).points
        assert sorted(point.representative_cardinality for point in points) == list(range(1, n + 1))
        for point in points:
            gap = n * binary_entropy(point.representative_cardinality / n) - point.f * scale
            assert 0.0 <= gap <= slack, (n, point)


# --- checked profile bands ---

PROFILE_ENTRY_POINTS = {
    "dimension": lambda profile: multifractal_dimension(profile, 2.0),
    "sweep": lambda profile: dimension_sweep(profile, [0.5, 2.0]),
    "spectrum": lambda profile: spectrum_from_profile(profile, 2),
    "deng": deng_entropy,
}


@pytest.mark.parametrize("entry", sorted(PROFILE_ENTRY_POINTS))
@pytest.mark.parametrize("profile, error", [
    ([(2, 0.25, 1), (1, 0.25, 1)], SumNotOne),
    ([], SumNotOne),
    ([(0, 0.5, 1), (1, 0.5, 1)], EmptyFocalElement),
    ([(1, 0.5, 0), (1, 0.5, 1)], EmptyFocalElement),
    ([(1, -0.5, 1), (2, 1.0, 1), (1, 0.5, 1)], MassOutOfRange),
    ([(1, 0.5, 1), (2, math.nan, 1), (1, 0.5, 1)], MassOutOfRange),
    ([(1, 0.5, 1), (2, 1.5, 1)], MassOutOfRange),
    ([(1, 0.5, 2.5)], EmptyFocalElement),
    ([(1.5, 1.0, 1)], EmptyFocalElement),
    ([("2", 1.0, 1)], EmptyFocalElement),
    ([(math.inf, 1.0, 1)], EmptyFocalElement),
    ([(1, 0.5, math.nan), (1, 0.5, 1)], EmptyFocalElement),
    ([(1, "0.5", 2)], MassOutOfRange),
    ([(1, b"1", 1)], MassOutOfRange),
    ([(1, True, 1)], MassOutOfRange),
    ([(1, None, 1)], MassOutOfRange),
])
def test_profile_entry_points_check_their_bands(entry, profile, error):
    with pytest.raises(error):
        PROFILE_ENTRY_POINTS[entry](profile)


@pytest.mark.parametrize("profile", [
    [(1, 0.5, 2, 7)],
    [(1, 0.5, 1), (1, 0.5, 1, 7)],
    [(1, 0.5, 1), (1, 0.5)],
])
def test_band_rows_hold_three_values(profile):
    with pytest.raises(EmptyFocalElement, match="not a .cardinality, mass, multiplicity. triple"):
        multifractal_dimension(profile, 2.0)


ROW_ENTRY_POINTS = dict(
    PROFILE_ENTRY_POINTS,
    spectrum_of_rows=spectrum,
    dimension_from_profile=lambda profile: dimension_from_profile(profile, 2.0),
    dimension_sweep_from_profile=lambda profile: dimension_sweep_from_profile(profile, [0.5, 2.0]),
)


@pytest.mark.parametrize("entry", sorted(ROW_ENTRY_POINTS))
@pytest.mark.parametrize("profile", [
    [(1, 0.5)],
    [(1, 0.5, 1), (1, 0.5)],
    [(1, 0.5, 2, 7)],
    [5],
    [(1, 0.5, 1), None],
    5,
    None,
], ids=["two", "ragged", "four", "int-row", "none-row", "int", "none"])
def test_malformed_rows_are_named(entry, profile):
    with pytest.raises(EmptyFocalElement, match="triple|iterable"):
        ROW_ENTRY_POINTS[entry](profile)


def test_band_total_is_exact_past_the_double_range():
    # the multiplicity is past the double range, but k * m is exactly one
    for alpha in (0.5, 1.0, 2.0):
        assert multifractal_dimension([(1, 2.0 ** -1030, 2 ** 1030)], alpha).value == 1.0
    for rows in ([(1, 1e-310, 2 ** 1030)], [(1, 1.0, 2 ** 3000)], [(1, 0.5, 2 ** 2000)]):
        with pytest.raises(SumNotOne):
            multifractal_dimension(rows, 2.0)


def test_single_band_profiles_at_huge_frames():
    n = 10 ** 12
    for alpha in (0.5, 2.0, 3.0):
        assert multifractal_dimension(vacuous_profile(n), alpha).value == 1.0 / alpha
    assert multifractal_dimension(uniform_singleton_profile(n), 2.0).value == pytest.approx(1.0, rel=1e-12)
    (point,) = spectrum(vacuous_profile(n)).points
    assert (point.y, point.f) == (0.0, 0.0)
    (point,) = spectrum(uniform_singleton_profile(n)).points
    assert point.y == pytest.approx(math.log2(n) / n, rel=1e-12)


def test_profile_sum_tolerance_matches_validation():
    # k * m within 1e-9 of one passes, as a mass function's sum does
    assert multifractal_dimension([(1, 0.5, 1), (2, 0.5 - 4e-10, 1)], 2.0).value > 0.0
    with pytest.raises(SumNotOne):
        multifractal_dimension([(1, 0.5, 1), (2, 0.5 - 2e-9, 1)], 2.0)


@pytest.mark.parametrize("builder, exact, largest", [
    (max_deng_profile, max_deng_exact, MAX_DENG_PROFILE_N),
    (uniform_powerset_profile, uniform_powerset_exact, UNIFORM_POWERSET_PROFILE_N),
])
def test_profile_builders_work_up_to_their_limit(builder, exact, largest):
    bands = builder(largest)
    assert min(band.mass for band in bands) > 0.0
    for alpha in (0.5, 2.0):
        got = multifractal_dimension(bands, alpha).value
        assert got == pytest.approx(oracle_dimension(exact(largest), alpha), rel=1e-12)
    with pytest.raises(FrameTooLarge):
        builder(largest + 1)
    with pytest.raises(FrameTooLarge):
        builder(10 ** 9)


def test_profile_limits_are_where_the_masses_leave_the_doubles():
    # the max-Deng singleton mass is normal at the cap and subnormal past it
    assert 1 / (3 ** MAX_DENG_PROFILE_N - 2 ** MAX_DENG_PROFILE_N) >= sys.float_info.min
    assert 0.0 < 1 / (3 ** (MAX_DENG_PROFILE_N + 1) - 2 ** (MAX_DENG_PROFILE_N + 1)) < sys.float_info.min
    assert math.isfinite(float(2 ** UNIFORM_POWERSET_PROFILE_N - 1))
    with pytest.raises(OverflowError):
        float(2 ** (UNIFORM_POWERSET_PROFILE_N + 1) - 1)



@given(
    n=st.integers(2, MAX_DENG_PROFILE_N),
    alpha=st.one_of(st.floats(-1000.0, 1000.0), st.floats(1000.0, 1e300)),
)
@settings(max_examples=150, deadline=None)
@example(n=MAX_DENG_PROFILE_N, alpha=1e300)
@example(n=MAX_DENG_PROFILE_N, alpha=1e4)
def test_max_deng_numerator_is_log_of_its_normaliser(n, alpha):
    # every m(A) / (2**|A| - 1) is 1 / (3**n - 2**n), so the numerator is
    # log2(3**n - 2**n) at every order; a subnormal band mass misses it
    terms = multifractal_module._deng_terms(max_deng_profile(n))
    exact = math.log2(3 ** n - 2 ** n)
    assert abs(multifractal_module._numerator_bits(terms, alpha) - exact) <= 1e-15 * exact


@pytest.mark.parametrize("alpha", [1e4, 1e6])
def test_max_deng_dimension_at_the_cap_matches_the_oracle(alpha):
    got = multifractal_dimension(max_deng_profile(MAX_DENG_PROFILE_N), alpha).value
    assert got == pytest.approx(oracle_dimension(max_deng_exact(MAX_DENG_PROFILE_N), alpha), rel=1e-15)


# --- band order ---
#
# The kernel takes its bands largest share first, which only makes its fsum
# calls cheaper: fsum is exactly rounded, so any order of the same bands
# gives the same bits.

PROFILE_BUILDERS = (max_deng_profile, uniform_powerset_profile, vacuous_profile,
                    uniform_singleton_profile)
BAND_ORDER_NEAR_ONE = tuple(1.0 + sign * 10.0 ** -k for k in range(1, 16) for sign in (-1, 1))


@st.composite
def profiles(draw):
    """(bands, n) of a pooled random mass function or of a family profile."""
    if draw(st.booleans()):
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        n = draw(st.integers(min_value=5, max_value=7))
        m = pooled_mass_function(random.Random(seed), n, draw(st.integers(1, 3)))
        return list(m.bands), n
    n = draw(st.integers(min_value=2, max_value=60) | st.just(400))
    return draw(st.sampled_from(PROFILE_BUILDERS))(n), n


def _profile_outputs(bands, n, orders):
    return repr((
        dimension_sweep(bands, orders),
        spectrum_from_profile(bands, n),
        deng_entropy(bands),
    ))


def _full_sum(coefficients, logs, rates, low):
    """A kernel sum over the columns as given, with no tail to cut."""
    high = max(rates)
    return multifractal_module._Sum(coefficients, logs, rates, (high, [r - high for r in rates]),
                                    (low, [r - low for r in rates]), None)


def _unsorted_terms(bands):
    """What _deng_terms gives, with the bands kept in the order given: each
    log and each order-free sum taken afresh, the share sort left out, and
    with no cut, so every sum runs over every band."""
    log_multiplicities = [math.log2(k) for _, _, k in bands]
    log_masses = [math.log2(m) for _, m, _ in bands]
    log_weights = [multifractal_module._log2_subset_count(c) for c, _, _ in bands]
    log_sizes = [lk + lm for lk, lm in zip(log_multiplicities, log_masses)]
    total = multifractal_module._log2_power_sum(log_sizes)
    log_shares = [size - total for size in log_sizes]
    shares = [2.0 ** share for share in log_shares]
    exponents = [lm - lw for lm, lw in zip(log_masses, log_weights)]
    rates = [m * lw for (_, m, _), lw in zip(bands, log_weights)]
    lone = len(bands) == 1 and bands[0].multiplicity == 1 and bands[0].mass == 1.0
    return multifractal_module._Terms(
        numerator=_full_sum(shares, log_shares, exponents, min(exponents)),
        denominator=_full_sum([k for _, _, k in bands], log_multiplicities, rates, 0.0),
        limit=math.fsum(-s * t for s, t in zip(shares, exponents)),
        lone=log_weights[0] if lone else None,
    )


@given(
    profile=profiles(),
    shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1),
    far=st.lists(st.floats(min_value=-50.0, max_value=1000.0), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_band_order_leaves_every_output_bit_identical(profile, shuffle_seed, far):
    bands, n = profile
    orders = BAND_ORDER_NEAR_ONE + (-50.0, 0.0, 1.0, 2.0, 1000.0) + tuple(far)
    shuffled = list(bands)
    random.Random(shuffle_seed).shuffle(shuffled)
    expected = _profile_outputs(bands, n, orders)
    assert _profile_outputs(shuffled, n, orders) == expected
    assert _profile_outputs(bands[::-1], n, orders) == expected
    # the public entry points sort every order alike, so the kernel is also
    # run on the bands as given (cardinality order for the builders),
    # shuffled and reversed, with no sort at all
    sweep = repr(dimension_sweep(bands, orders))
    deng = deng_entropy(bands)
    for order in (bands, shuffled, bands[::-1]):
        terms = _unsorted_terms(order)
        assert repr(multifractal_module._sweep(terms, orders)) == sweep
        assert repr(terms.limit) == repr(deng)


@pytest.mark.parametrize("builder", PROFILE_BUILDERS)
@pytest.mark.parametrize("n", [1, 2, 5, 30, 400])
def test_prepare_orders_the_bands_by_falling_share(builder, n):
    # the sweep's one preparation step is multifractal._deng_terms
    bands = builder(n)
    terms = multifractal_module._deng_terms(bands)
    numerator, denominator = terms.numerator, terms.denominator
    columns = list(zip(denominator.coefficients, denominator.logs))
    assert sorted(columns) == sorted((k, math.log2(k)) for _, _, k in bands)
    by_share = sorted(bands, key=lambda band: math.log2(band.multiplicity) + math.log2(band.mass), reverse=True)
    assert list(numerator.rates) == [math.log2(m) - multifractal_module._log2_subset_count(c) for c, m, _ in by_share]
    assert list(numerator.coefficients) == sorted(numerator.coefficients, reverse=True)
    assert list(numerator.logs) == sorted(numerator.logs, reverse=True)
    # the denominator goes by falling share too, or by falling k where it has a tail
    falling = sorted(by_share, key=lambda band: band.multiplicity, reverse=True) if denominator.tail else by_share
    assert list(denominator.coefficients) == [k for _, _, k in falling]


# --- the tail cut ---
#
# A sum leaves out the tail of bands it finds below 2**-64 of the sum, where
# its coefficients, the shares or the multiplicities, span more than 64 binades.

# the benchmark's sixteen orders, and six far ones
CUT_ORDERS = (-2.0, 0.0, 0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-11, 1 + 1e-9, 1.5, 2.0, 3.0, 5.0,
              9.0, 17.0, 29.0, 100.0, -50.0, -10.0, 0.25, 1e3, 1e6, 1e300)
CUT_PROFILES = [(builder, n) for builder, cap in ((max_deng_profile, MAX_DENG_PROFILE_N),
                                                 (uniform_powerset_profile, UNIFORM_POWERSET_PROFILE_N))
                for n in (65, 100, 200, 400, cap)]


def _without_tails(terms):
    """The terms with both sums run over every band."""
    return terms._replace(numerator=terms.numerator._replace(tail=None),
                          denominator=terms.denominator._replace(tail=None))


def _dimension_or_error(terms, alpha):
    try:
        return multifractal_module._dimension_from_bands(terms, alpha)
    except (ZeroDenominator, OrderOutOfRange) as failure:
        return type(failure).__name__


@pytest.mark.parametrize("builder, n", CUT_PROFILES)
def test_the_cut_kernel_agrees_with_the_full_one(builder, n):
    terms = multifractal_module._deng_terms(builder(n))
    # C(65, 32) spans under 64 binades, so at that frame only the max-Deng
    # shares, which reach down to 65 / (3**65 - 2**65), carry a tail
    assert (terms.numerator.tail is None) == (builder is uniform_powerset_profile and n == 65)
    assert (terms.denominator.tail is None) == (n == 65)
    full = _without_tails(terms)
    for alpha in CUT_ORDERS:
        got, expected = _dimension_or_error(terms, alpha), _dimension_or_error(full, alpha)
        if isinstance(expected, str):
            assert got == expected, alpha
            continue
        for cut_value, full_value in zip(got, expected):
            assert abs(cut_value - full_value) <= 2 * math.ulp(full_value), (alpha, got, expected)


@pytest.mark.parametrize("builder, exact", [(max_deng_profile, max_deng_exact),
                                            (uniform_powerset_profile, uniform_powerset_exact)])
@pytest.mark.parametrize("alpha", [-2.0, 0.5, 2.0, 29.0])
def test_the_cut_kernel_matches_the_oracle(builder, exact, alpha):
    got = multifractal_dimension(builder(400), alpha).value
    assert _relative_error(got, oracle_dimension(exact(400), alpha)) <= ORACLE_TOLERANCE


# seventeen orders from -1e6 to 1e300
WIDE_ORDERS = (-1e6, -1e3, -50.0, -10.0, -2.0, -0.5, 0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 1.5, 2.0, 29.0,
               1e3, 1e6, 1e300)


def _wide_rows(rng):
    """Rows whose k*m sum to exactly 1: up to four with multiplicities up to
    2**200, masses down to 2**-260 and each k*m below 1/8, then the rest of
    the unit in as few doubles as hold it, one row each."""
    rows, rest = [], Fraction(1)
    for _ in range(rng.randint(0, 4)):
        multiplicity = rng.randint(1, 2 ** 20) << rng.randint(0, 180)
        mantissa = rng.randint(1, 255)
        low = (multiplicity * mantissa).bit_length() + 3
        mass = math.ldexp(mantissa, -rng.randint(low, max(low, min(260, low + 121))))
        rows.append((rng.randint(1, 60), mass, multiplicity))
        rest -= multiplicity * Fraction(mass)
    while rest:
        mass = float(rest)
        if mass > rest:
            mass = math.nextafter(mass, 0.0)
        rows.append((rng.randint(1, 60), mass, 1))
        rest -= Fraction(mass)
    return rows


def test_the_cut_agrees_with_the_full_sums_on_random_wide_rows():
    rng = random.Random(28)
    carried = 0
    for _ in range(800):
        rows = _wide_rows(rng)
        assert 1 <= len(rows) <= 8 and min(mass for _, mass, _ in rows) >= 2.0 ** -260
        terms = multifractal_module._deng_terms(core_module._as_bands(rows))
        if terms.numerator.tail is None and terms.denominator.tail is None:
            continue
        carried += 1
        full = _without_tails(terms)
        for alpha in WIDE_ORDERS:
            got, expected = _dimension_or_error(terms, alpha), _dimension_or_error(full, alpha)
            if isinstance(expected, str) or isinstance(got, str):
                assert got == expected, (rows, alpha)
                continue
            for cut_value, full_value in zip(got, expected):
                assert abs(cut_value - full_value) <= 2 * math.ulp(full_value), (rows, alpha, got, expected)
    assert carried > 500


def test_a_cut_at_a_huge_order_keeps_the_lead_band():
    # the band of most focal elements also holds the largest m * log2(2**|A| - 1),
    # so at these orders alpha times it carries rounding of thousands of bits
    rows = [(15, (1 - 2.0 ** -30) / 2 ** 82, 2 ** 82), (1, 2.0 ** -30, 1)]
    terms = multifractal_module._deng_terms(core_module._as_bands(rows))
    full = _without_tails(terms)
    assert terms.denominator.tail is not None
    for alpha in (9.921100393630921e42, 3.659973472953002e60, 1e100, 1e300, -1e300):
        assert repr(_dimension_or_error(terms, alpha)) == repr(_dimension_or_error(full, alpha))


def test_the_cut_leaves_out_most_bands_of_a_large_profile(monkeypatch):
    terms = multifractal_module._deng_terms(max_deng_profile(400))
    kept = {}

    def spy(tail_bits, room):
        count = cut(tail_bits, room)
        kept["numerator" if tail_bits is terms.numerator.tail else "denominator"] = count
        return count

    cut = multifractal_module._kept
    monkeypatch.setattr(multifractal_module, "_kept", spy)
    multifractal_module._dimension_from_bands(terms, 2.0)
    assert kept["numerator"] <= 180 and kept["denominator"] <= 190


def test_inputs_far_from_64_binades_carry_no_cut():
    rng = random.Random(27)
    masses = dyadic_masses(rng, 2000)
    dyadic = multifractal_module._deng_terms(core_module._as_bands(
        [(rng.randint(1, 16), mass, 1) for mass in masses]))
    assert len(dyadic.numerator.logs) > 1900
    assert dyadic.numerator.tail is None and dyadic.denominator.tail is None
    for builder in PROFILE_BUILDERS:
        for n in range(1, 41):
            terms = multifractal_module._deng_terms(builder(n))
            assert terms.numerator.tail is None and terms.denominator.tail is None, (builder, n)


@pytest.mark.parametrize("builder", [max_deng_profile, uniform_powerset_profile])
def test_a_cut_sweep_entry_is_the_single_call_at_its_order(builder):
    bands = builder(400)
    for entry in dimension_sweep(bands, CUT_ORDERS):
        try:
            single = multifractal_dimension(bands, entry.alpha)
        except (ZeroDenominator, OrderOutOfRange) as failure:
            assert (entry.result, entry.error) == (None, type(failure).__name__)
        else:
            assert repr(entry) == repr(multifractal_module.SweepEntry(entry.alpha, single, None))


# --- profile values past the frame or the double range ---

def test_spectrum_profile_must_fit_its_frame():
    with pytest.raises(IndexOutOfFrame):
        spectrum_from_profile(vacuous_profile(5), 3)
    with pytest.raises(IndexOutOfFrame):
        spectrum_from_profile([(1, 0.5, 1), (4, 0.5, 1)], 3)
    with pytest.raises(IndexOutOfFrame):  # a cardinality too long to print
        spectrum_from_profile([(10**5000, 1.0, 1)], 3)
    (point,) = spectrum(vacuous_profile(5)).points
    assert point.representative_cardinality == 5


def test_profile_mass_past_the_double_range_is_out_of_range():
    with pytest.raises(MassOutOfRange):
        multifractal_dimension([(1, 2**1030, 1)], 2.0)


def test_profile_cardinality_past_the_double_range_is_too_large():
    with pytest.raises(FrameTooLarge):
        multifractal_dimension([(2**1100, 1.0, 1)], 2.0)


@pytest.mark.parametrize("value", [Decimal("1e400"), Decimal("1e50000"), Decimal("1e999999"),
                                   Decimal("1e99999999"), Fraction(10 ** 400, 3)])
def test_huge_cardinalities_and_multiplicities_are_refused_at_once(value):
    # int() of a Decimal takes time that grows with its exponent: tens of
    # seconds at 1e999999; a count that is no int is refused unread
    started = time.perf_counter()
    with pytest.raises(EmptyFocalElement):
        multifractal_dimension([(value, 1.0, 1)], 2.0)
    with pytest.raises(EmptyFocalElement):
        deng_entropy([(1, 0.5, value)])
    with pytest.raises(EmptyFocalElement):
        spectrum_from_profile([(1, 0.5, 1), (2, 0.5, value)], 3)
    assert time.perf_counter() - started < 5.0


COUNT_ENTRY_POINTS = {
    "dimension": lambda rows: multifractal_dimension(rows, 2.0),
    "sweep": lambda rows: dimension_sweep(rows, [0.5, 2.0]),
    "deng": deng_entropy,
    "spectrum": lambda rows: spectrum_from_profile(rows, 3),
}


def _rows_with_count(place: str, count):
    """Rows that hold ``count`` as a cardinality or as a multiplicity and
    are valid when it is the int 2."""
    if place == "cardinality":
        return [(count, 0.5, 1), (1, 0.5, 1)]
    return [(1, 0.25, count), (2, 0.5, 1)]


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
@pytest.mark.parametrize("place", ["cardinality", "multiplicity"])
@pytest.mark.parametrize("count", [2.0, True, Fraction(2), Decimal("2"), Decimal("1e999999")],
                         ids=["2.0", "True", "Fraction(2)", "Decimal('2')", "Decimal('1e999999')"])
def test_a_count_that_is_no_int_is_an_empty_focal_element(entry, place, count):
    # a cardinality and a multiplicity are ints of at least 1, as a frame
    # size is
    call = COUNT_ENTRY_POINTS[entry]
    call(_rows_with_count(place, 2))
    with pytest.raises(EmptyFocalElement, match="is not an int"):
        call(_rows_with_count(place, count))


def test_spectrum_frame_past_the_double_range_is_too_large():
    with pytest.raises(FrameTooLarge):
        spectrum_from_profile([(1, 1.0, 1)], 10**400)


@pytest.mark.parametrize("n", [0, -3, -10**5000, 2.5, True, "3"],
                         ids=["0", "-3", "-10**5000", "2.5", "True", "'3'"])
def test_a_frame_size_below_one_or_not_an_int_is_an_invalid_frame(n):
    # the one frame-size gate of the builders and FrameOfDiscernment, which
    # names a size too long to print by its length
    rows = [(1, 0.5, 2)]
    with pytest.raises(InvalidFrame, match="frame size must be a positive integer"):
        spectrum_from_profile(rows, n)
    with pytest.raises(InvalidFrame, match="frame size must be a positive integer"):
        quadratic_envelope(n)
    with pytest.raises(InvalidFrame, match="frame size must be a positive integer"):
        asymptotic_anchor_points(n)
