"""Mass-function construction, validation, families, and profiles."""

from __future__ import annotations

import copy
import json
import math
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import massfractal.core as core_module
from conftest import dyadic_masses, mask_to_members, random_mass_function
from massfractal.core import (
    EXPLICIT_SUBSET_CAP,
    MAX_DENG_PROFILE_N,
    SINGLE_BAND_PROFILE_N,
    SUM_TOLERANCE,
    UNIFORM_POWERSET_PROFILE_N,
    Bands,
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
from massfractal.entropy import as_profile_bands
from massfractal.errors import (
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
from massfractal.multifractal import spectrum


# --- frames ---

def test_frame_rejects_bad_sizes():
    with pytest.raises(ValueError):
        FrameOfDiscernment(0)
    with pytest.raises(ValueError):
        FrameOfDiscernment(-3)


def test_frame_label_validation():
    FrameOfDiscernment(2, ("a", "b"))
    with pytest.raises(ValueError):
        FrameOfDiscernment(2, ("a",))
    with pytest.raises(ValueError):
        FrameOfDiscernment(2, ("a", "a"))
    with pytest.raises(ValueError):
        FrameOfDiscernment(2, ("a", ""))


@pytest.mark.parametrize("size, labels", [
    (0, None), (-3, None), (2.0, None), ("2", None),
    (2, ("a",)), (2, ("a", "a")), (2, ("a", "")),
])
def test_bad_frames_raise_invalid_frame(size, labels):
    with pytest.raises(InvalidFrame) as refused:
        FrameOfDiscernment(size, labels)
    # a ValueError still, so the CLI exits 2 and older handlers still catch it
    assert isinstance(refused.value, ValueError)


def test_frame_is_a_hashable_immutable_value():
    frame = FrameOfDiscernment(2, ("x", "y"))
    assert frame == FrameOfDiscernment(size=2, labels=("x", "y"))
    assert hash(frame) == hash(FrameOfDiscernment(2, ("x", "y")))
    assert frame != FrameOfDiscernment(2, ("y", "x")) and frame != FrameOfDiscernment(2)
    assert FrameOfDiscernment(3).labels is None
    assert frame != (2, ("x", "y"))
    assert repr(frame) == "FrameOfDiscernment(size=2, labels=('x', 'y'))"
    assert len({frame, FrameOfDiscernment(2, ("x", "y")), FrameOfDiscernment(2)}) == 2
    with pytest.raises(AttributeError):
        frame.size = 3
    with pytest.raises(AttributeError):
        del frame.labels
    with pytest.raises(AttributeError):
        frame.extra = 1
    assert pickle.loads(pickle.dumps(frame)) == frame and copy.deepcopy(frame) == frame


def test_mass_function_equality_ignores_bands():
    frame = FrameOfDiscernment(2)
    m = validate_mass_function(frame, [((0,), 0.5), ((1,), 0.5)])
    same = MassFunction(frame, {0b01: 0.5, 0b10: 0.5}, ())
    assert m == same and hash(m) == hash(same)
    assert m != MassFunction(frame, {0b01: 0.25, 0b10: 0.75}, m.bands)
    assert m != MassFunction(FrameOfDiscernment(3), dict(m.masses), m.bands)
    assert m != (frame, m.masses)
    with pytest.raises(AttributeError):
        m.masses = {}
    with pytest.raises(AttributeError):
        m.bands = ()
    with pytest.raises(AttributeError):
        del m.frame
    assert m.masses == {0b01: 0.5, 0b10: 0.5}


def test_frame_default_labels():
    assert FrameOfDiscernment(3).effective_labels() == ("h1", "h2", "h3")
    assert FrameOfDiscernment(2, ("x", "y")).effective_labels() == ("x", "y")


# --- validation ---

def _frame3():
    return FrameOfDiscernment(3)


def test_validate_accepts_max_deng_example():
    nineteenth = 1 / 19
    raw = [
        ((0,), nineteenth),
        ((1,), nineteenth),
        ((2,), nineteenth),
        ((0, 1), 3 / 19),
        ((0, 2), 3 / 19),
        ((1, 2), 3 / 19),
        ((0, 1, 2), 7 / 19),
    ]
    m = validate_mass_function(_frame3(), raw)
    assert m.focal_count == 7
    assert m.masses[0b111] == 7 / 19


def test_validate_accepts_point_mass():
    m = validate_mass_function(FrameOfDiscernment(2), [((0,), 1.0)])
    assert m.focal_count == 1


def test_validate_rejects_bad_sum():
    with pytest.raises(SumNotOne):
        validate_mass_function(FrameOfDiscernment(2), [((0,), 0.5), ((1,), 0.4)])


def test_validate_rejects_out_of_range_masses():
    with pytest.raises(MassOutOfRange):
        validate_mass_function(FrameOfDiscernment(2), [((0,), 1.5)])
    with pytest.raises(MassOutOfRange):
        validate_mass_function(FrameOfDiscernment(2), [((0,), -0.2), ((1,), 1.2)])


def test_validate_rejects_nan_mass():
    with pytest.raises(MassOutOfRange):
        validate_mass_function(FrameOfDiscernment(2), [((0,), math.nan), ((1,), 1.0)])
    with pytest.raises(MassOutOfRange):
        validate_mass_function(FrameOfDiscernment(2), [((0,), 1.0), ((1,), math.nan)])


@pytest.mark.parametrize("mass", ["1", b"1", True, None, 1j, [1.0]])
def test_validate_refuses_masses_that_are_not_numbers(mass):
    # float() reads the first three as 1.0, and cannot read the rest
    with pytest.raises(MassOutOfRange, match="is not a number"):
        validate_mass_function(FrameOfDiscernment(2), [((0,), mass)])


def test_validate_refuses_a_mass_past_the_double_range():
    with pytest.raises(MassOutOfRange):
        validate_mass_function(FrameOfDiscernment(2), [((0,), 10 ** 400)])


def test_validate_takes_masses_of_any_number_type():
    m = validate_mass_function(FrameOfDiscernment(2), [((0,), 1), ((1,), Fraction(0))])
    assert m.masses == {1: 1.0} and type(m.masses[1]) is float


def test_validate_drops_zero_masses():
    with_zero = validate_mass_function(
        _frame3(), [((0,), 0.5), ((1, 2), 0.5), ((1,), 0.0), ((), 0.0)]
    )
    without = validate_mass_function(_frame3(), [((0,), 0.5), ((1, 2), 0.5)])
    assert with_zero == without


def test_validate_rejects_positive_mass_on_empty_set():
    with pytest.raises(EmptyFocalElement):
        validate_mass_function(_frame3(), [((), 0.5), ((0,), 0.5)])


def test_validate_rejects_duplicates_regardless_of_order():
    with pytest.raises(DuplicateFocalElement):
        validate_mass_function(_frame3(), [((0, 1), 0.5), ((1, 0), 0.5)])


def test_validate_rejects_out_of_frame_indices():
    with pytest.raises(IndexOutOfFrame):
        validate_mass_function(_frame3(), [((0, 3), 1.0)])


@pytest.mark.parametrize("raw", [None, 5, [(0.5,)], [((0,), 0.5, 1)], [5], "ab"],
                         ids=["none", "int", "one-item", "three-items", "int-entry", "str"])
def test_validate_names_input_that_is_no_pairs(raw):
    with pytest.raises(EmptyFocalElement, match=r"no iterable of \(subset, mass\) pairs"):
        validate_mass_function(_frame3(), raw)


def test_validate_keeps_the_text_of_an_error_raised_by_the_pairs_iterator():
    def pairs():
        yield (0,), 0.5
        raise ValueError("the source ran dry")
    with pytest.raises(EmptyFocalElement, match="the source ran dry"):
        validate_mass_function(_frame3(), pairs())


def test_validate_is_order_independent():
    raw = [((0,), 0.2), ((1, 2), 0.3), ((2,), 0.5)]
    assert validate_mass_function(_frame3(), raw) == validate_mass_function(
        _frame3(), list(reversed(raw))
    )


@pytest.mark.parametrize("copy_of", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy])
def test_mass_function_survives_pickle_and_deepcopy(copy_of):
    m = validate_mass_function(_frame3(), [((0,), 0.25), ((1, 2), 0.25), ((2,), 0.5)])
    clone = copy_of(m)  # the fields travel; assignments is derived from masses on each read
    assert clone == m and hash(clone) == hash(m)
    assert clone.bands == m.bands and clone.assignments == m.assignments
    assert type(clone.bands) is Bands and clone.bands.frame_size == 3
    assert clone.masses[0b110] == 0.25


def test_bands_refuse_a_new_frame_size():
    # spectrum would rescale onto whatever frame the bands were told
    m = validate_mass_function(_frame3(), [((0,), 0.2), ((1, 2), 0.8)])
    for bands in (m.bands, max_deng_profile(4), core_module._as_bands([(1, 1.0, 1)])):
        frame_size = bands.frame_size
        with pytest.raises(AttributeError):
            bands.frame_size = 7
        with pytest.raises(AttributeError):
            del bands.frame_size
        with pytest.raises(AttributeError):
            bands.other = 1
        assert bands.frame_size == frame_size
    assert spectrum(m).frame_size == 3


@pytest.mark.parametrize("copy_of", [lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy, copy.copy])
def test_bands_survive_pickle_and_copy(copy_of):
    for bands in (max_deng_profile(4), Bands(max_deng_profile(4))):
        clone = copy_of(bands)
        assert type(clone) is Bands and clone == bands
        assert clone.frame_size == bands.frame_size


def test_every_band_source_gives_one_checked_value():
    # a builder, validation and the row check each give a Bands; only the
    # first two know the frame
    m = validate_mass_function(_frame3(), [((0,), 0.2), ((1, 2), 0.8)])
    rows = [(1, 0.2, 1), (2, 0.8, 1)]
    checked = core_module._as_bands(rows)
    for bands, frame_size in ((max_deng_profile(5), 5), (max_deng_mass(_frame3()).bands, 3),
                              (m.bands, 3), (checked, None)):
        assert type(bands) is Bands and bands.frame_size == frame_size
        assert core_module._as_bands(bands) is bands
    assert checked == m.bands and core_module._as_bands(m) is m.bands
    # as_profile_bands, kept for the benchmark, is the mass function's bands
    assert as_profile_bands(m) is m.bands


def test_a_row_sum_is_decided_on_its_exact_value():
    # rows scaled to within 1e-15 (relative) of 1 +- 1e-9, the tolerance's
    # edge, where a rounded sum would decide some against the exact one
    rng = random.Random(26)
    bound = Fraction(SUM_TOLERANCE)
    for _ in range(2000):
        multiplicities = [rng.randint(1, 50) for _ in range(rng.randint(2, 6))]
        weights = [rng.random() for _ in multiplicities]
        edge = 1.0 + rng.choice((-1.0, 1.0)) * SUM_TOLERANCE * (1.0 + rng.uniform(-1e-15, 1e-15))
        scale = edge / math.fsum(k * w for k, w in zip(multiplicities, weights))
        rows = [(1, w * scale, k) for k, w in zip(multiplicities, weights)]
        exact = abs(sum(Fraction(mass) * k for _, mass, k in rows) - 1) <= bound
        try:
            core_module._as_bands(rows)
            passed = True
        except SumNotOne:
            passed = False
        assert passed == exact, rows


def _verdict(check, *args):
    try:
        check(*args)
        return True
    except SumNotOne:
        return False


def test_a_pair_sum_is_decided_on_its_exact_value(tmp_path):
    # the same edge as the rows': the pairs, the CLI's loader and the same
    # masses as rows each give the exact verdict, so all three give one
    from massfractal.cli import _load_mass_function

    rng = random.Random(26)
    bound = Fraction(SUM_TOLERANCE)
    path = tmp_path / "m.json"
    for _ in range(2000):
        weights = [rng.random() for _ in range(rng.randint(2, 6))]
        edge = 1.0 + rng.choice((-1.0, 1.0)) * SUM_TOLERANCE * (1.0 + rng.uniform(-1e-15, 1e-15))
        scale = edge / math.fsum(weights)
        masses = [w * scale for w in weights]
        exact = abs(sum(map(Fraction, masses)) - 1) <= bound
        frame = FrameOfDiscernment(len(masses))
        pairs = [((i,), mass) for i, mass in enumerate(masses)]
        assert _verdict(validate_mass_function, frame, pairs) == exact, masses
        assert _verdict(core_module._as_bands, [(1, mass, 1) for mass in masses]) == exact, masses
        labels = [f"h{i}" for i in range(len(masses))]
        path.write_text(json.dumps({"frame": labels, "assignments": [
            {"subset": [label], "mass": mass} for label, mass in zip(labels, masses)]}))
        assert _verdict(_load_mass_function, str(path), SUM_TOLERANCE) == exact, masses


def test_a_pair_sum_near_an_infinite_or_zero_tolerance_keeps_its_verdict():
    frame = FrameOfDiscernment(2)
    assert _verdict(validate_mass_function, frame, [((0,), 0.5)], math.inf)
    assert _verdict(validate_mass_function, frame, [((0,), 0.5), ((1,), 0.5)], 0.0)
    # 0.1 + 0.2 + 0.7 rounds to 1 but is not exactly 1
    assert not _verdict(validate_mass_function, FrameOfDiscernment(3),
                        [((0,), 0.1), ((1,), 0.2), ((2,), 0.7)], 0.0)


NOT_A_TOLERANCE = ["x", b"1e-9", True, None, [1e-9], math.nan, -1e-9, -math.inf, -1]


@pytest.mark.parametrize("tolerance", NOT_A_TOLERANCE)
def test_sum_tolerance_is_a_number_of_at_least_zero(tolerance):
    with pytest.raises(InvalidTolerance, match="sum tolerance"):
        validate_mass_function(_frame3(), [((0,), 0.5), ((1,), 0.5)], tolerance)
    # the pairs are checked before the tolerance
    with pytest.raises(MassOutOfRange):
        validate_mass_function(_frame3(), [((0,), 1.5)], tolerance)


def test_sum_tolerance_takes_any_number_of_at_least_zero():
    raw = [((0,), 0.5), ((1,), 0.5)]
    for tolerance in (0, 0.0, Fraction(1, 10 ** 9), math.inf):
        assert validate_mass_function(_frame3(), raw, tolerance).focal_count == 2
    # an infinite tolerance takes any sum
    assert validate_mass_function(_frame3(), [((0,), 0.5)], math.inf).focal_count == 1


@pytest.mark.parametrize("tolerance", [1.0, 2, math.inf])
def test_no_tolerance_passes_a_mass_function_without_focal_elements(tolerance):
    for raw in ([], [((0,), 0.0)]):
        with pytest.raises(SumNotOne, match="masses sum to 0"):
            validate_mass_function(_frame3(), raw, tolerance)


def test_sum_tolerance_is_configurable():
    raw = [((0,), 0.5), ((1,), 0.4999)]
    with pytest.raises(SumNotOne):
        validate_mass_function(_frame3(), raw)
    loose = validate_mass_function(_frame3(), raw, sum_tolerance=1e-3)
    assert loose.focal_count == 2


# --- families ---

def test_max_deng_masses_n3():
    m = max_deng_mass(_frame3())
    assert m.focal_count == 7
    assert m.masses[0b001] == pytest.approx(1 / 19, abs=0, rel=1e-15)
    assert m.masses[0b101] == pytest.approx(3 / 19, rel=1e-15)
    assert m.masses[0b111] == pytest.approx(7 / 19, rel=1e-15)


def test_max_deng_degenerate_frame():
    m = max_deng_mass(FrameOfDiscernment(1))
    assert m.assignments == ((FocalElement((0,)), 1.0),)


def test_max_deng_normalizer_n5():
    m = max_deng_mass(FrameOfDiscernment(5))
    assert 3 ** 5 - 2 ** 5 == 211
    assert m.masses[0b11111] == pytest.approx(31 / 211, rel=1e-15)
    assert math.fsum(mass for _, mass in m.assignments) == pytest.approx(1.0, abs=1e-12)


def test_max_deng_ratio_is_cardinality_free():
    for n in range(2, 9):
        m = max_deng_mass(FrameOfDiscernment(n))
        ratios = {
            len(element.members): mass / (2 ** len(element.members) - 1)
            for element, mass in m.assignments
        }
        values = sorted(ratios.values())
        assert values[-1] - values[0] <= 1e-12 * values[-1]


def test_max_deng_mass_increases_with_cardinality():
    m = max_deng_mass(FrameOfDiscernment(6))
    by_card = {}
    for element, mass in m.assignments:
        by_card[len(element.members)] = mass
    cards = sorted(by_card)
    assert all(by_card[a] < by_card[b] for a, b in zip(cards, cards[1:]))


def test_uniform_powerset_families():
    m2 = uniform_powerset_mass(FrameOfDiscernment(2))
    assert m2.focal_count == 3
    assert all(mass == pytest.approx(1 / 3, rel=1e-15) for _, mass in m2.assignments)
    m3 = uniform_powerset_mass(_frame3())
    assert m3.focal_count == 7
    assert all(mass == pytest.approx(1 / 7, rel=1e-15) for _, mass in m3.assignments)
    m4 = uniform_powerset_mass(FrameOfDiscernment(4))
    assert math.fsum(mass for _, mass in m4.assignments) == pytest.approx(1.0, abs=1e-12)


def test_vacuous_family():
    m = vacuous_mass(_frame3())
    assert m.assignments == ((FocalElement((0, 1, 2)), 1.0),)
    assert vacuous_mass(FrameOfDiscernment(1)).focal_count == 1
    big = vacuous_mass(FrameOfDiscernment(20))
    assert len(big.assignments[0][0].members) == 20


def test_uniform_singleton_family():
    m = uniform_singleton_mass(FrameOfDiscernment(2))
    assert [mass for _, mass in m.assignments] == [0.5, 0.5]
    m5 = uniform_singleton_mass(FrameOfDiscernment(5))
    assert [mass for _, mass in m5.assignments] == [0.2] * 5
    assert [len(element.members) for element, _ in m5.assignments] == [1] * 5


def test_a_mass_function_is_fully_slotted():
    m = validate_mass_function(_frame3(), [((0,), 0.25), ((1, 2), 0.25), ((2,), 0.5)])
    assert not hasattr(m, "__dict__")
    assert m.assignments == m.assignments == pickle.loads(pickle.dumps(m)).assignments
    assert m.assignments == ((FocalElement((0,)), 0.25), (FocalElement((2,)), 0.5),
                             (FocalElement((1, 2)), 0.25))
    with pytest.raises(AttributeError):  # past the refused assignment, no slot takes it
        object.__setattr__(m, "extra", 1)


def test_the_explicit_size_check_needs_no_subsets():
    # the check reads the bands' multiplicities only; max-Deng passes at 19
    # and is refused at 20, which no explicit builder may enumerate
    core_module._check_explicit_size(19, max_deng_profile(19))
    with pytest.raises(FrameTooLarge, match="frame of 20 would hold 20971710 bits"):
        core_module._check_explicit_size(20, max_deng_profile(20))


def test_enumeration_cap():
    assert 2 ** 27 > EXPLICIT_SUBSET_CAP
    with pytest.raises(FrameTooLarge):
        max_deng_mass(FrameOfDiscernment(27))
    with pytest.raises(FrameTooLarge):
        uniform_powerset_mass(FrameOfDiscernment(27))
    # no cap for the families that never materialize the power set
    vacuous_mass(FrameOfDiscernment(27))
    uniform_singleton_mass(FrameOfDiscernment(27))


@pytest.mark.parametrize("build", [vacuous_mass, uniform_singleton_mass])
def test_explicit_families_are_capped_by_the_bits_they_hold(build):
    # n bit-table ints of up to n bits each: about 5e11 bits at n = 10**6
    with pytest.raises(FrameTooLarge):
        build(FrameOfDiscernment(10 ** 6))
    assert build(FrameOfDiscernment(2000)).frame.size == 2000


ALL_PROFILE_BUILDERS = [max_deng_profile, uniform_powerset_profile, vacuous_profile,
                        uniform_singleton_profile]


@pytest.mark.parametrize("builder", ALL_PROFILE_BUILDERS)
@pytest.mark.parametrize("n", [0, -3, 2.5])
def test_profile_builders_refuse_frames_below_one(builder, n):
    with pytest.raises(InvalidFrame):
        builder(n)


def test_a_frame_size_too_long_to_print_is_an_invalid_frame():
    # str() of an int past 4300 digits raises; the refusal names its length
    for build in (FrameOfDiscernment, *ALL_PROFILE_BUILDERS):
        with pytest.raises(InvalidFrame, match="got an int of 16610 bits"):
            build(-10 ** 5000)


@pytest.mark.parametrize("builder", ALL_PROFILE_BUILDERS)
@pytest.mark.parametrize("n", [True, False])
def test_profile_builders_refuse_a_bool_frame_size(builder, n):
    # as FrameOfDiscernment does: True would be a frame of cardinality True
    with pytest.raises(InvalidFrame, match="frame size must be a positive integer"):
        builder(n)
    with pytest.raises(InvalidFrame):
        FrameOfDiscernment(n)


@pytest.mark.parametrize("builder", [vacuous_profile, uniform_singleton_profile])
def test_single_band_profiles_serve_every_double_frame_size(builder):
    (band,) = builder(SINGLE_BAND_PROFILE_N)
    assert math.isfinite(float(band.cardinality)) and band.mass > 0.0
    for n in (SINGLE_BAND_PROFILE_N + 1, 10 ** 400):
        with pytest.raises(FrameTooLarge):
            builder(n)


# --- cardinality profiles ---

def test_profile_of_max_deng_n3():
    bands = max_deng_mass(_frame3()).bands
    assert bands == (
        ProfileBand(1, 1 / 19, 3),
        ProfileBand(2, 3 / 19, 3),
        ProfileBand(3, 7 / 19, 1),
    )


def test_profile_of_vacuous():
    assert vacuous_mass(FrameOfDiscernment(6)).bands == (ProfileBand(6, 1.0, 1),)


def test_profile_keeps_unequal_singleton_masses_apart():
    m = validate_mass_function(_frame3(), [((0,), 0.2), ((1,), 0.3), ((2,), 0.5)])
    assert m.bands == (
        ProfileBand(1, 0.2, 1), ProfileBand(1, 0.3, 1), ProfileBand(1, 0.5, 1)
    )


def test_profile_allows_partial_cardinality_classes():
    # one singleton and one pair: one band each
    m = validate_mass_function(_frame3(), [((0,), 0.2), ((1, 2), 0.8)])
    assert m.bands == (ProfileBand(1, 0.2, 1), ProfileBand(2, 0.8, 1))


def test_profile_multiplicities_are_binomial():
    for n in range(1, 11):
        bands = max_deng_mass(FrameOfDiscernment(n)).bands
        assert len(bands) == n
        assert [band.multiplicity for band in bands] == [
            math.comb(n, k) for k in range(1, n + 1)
        ]


def _max_deng_masses(n):
    normalizer = 3 ** n - 2 ** n
    return [(2 ** k - 1) / normalizer for k in range(1, n + 1)]


def _uniform_powerset_masses(n):
    return [1.0 / (2 ** n - 1)] * n


@pytest.mark.parametrize("builder, largest, masses", [
    (max_deng_profile, MAX_DENG_PROFILE_N, _max_deng_masses),
    (uniform_powerset_profile, UNIFORM_POWERSET_PROFILE_N, _uniform_powerset_masses),
])
def test_profile_builders_give_binomial_bands_at_every_size(builder, largest, masses):
    # Pascal's rule builds each row from the last, independently of the
    # builders' multiplicative recurrence; math.comb, at about 10 ms a row
    # near n = 1000, checks a sample of the rows
    row = [1]
    for n in range(1, largest + 1):
        row = [1] + list(map(operator.add, row, row[1:])) + [1]
        cardinalities, band_masses, multiplicities = zip(*builder(n))
        assert cardinalities == tuple(range(1, n + 1))
        assert list(band_masses) == masses(n)
        assert list(multiplicities) == row[1:]
        if n <= 40 or n % 97 == 0 or n == largest:
            assert row == [math.comb(n, k) for k in range(n + 1)]


def test_profile_builders_match_extracted_profiles():
    # the family builders attach their profile as the bands, so the bands
    # are counted again from the focal elements by validation
    families = [
        (max_deng_mass, max_deng_profile),
        (uniform_powerset_mass, uniform_powerset_profile),
        (vacuous_mass, vacuous_profile),
        (uniform_singleton_mass, uniform_singleton_profile),
    ]
    for n in range(1, 11):
        frame = FrameOfDiscernment(n)
        for family, profile_builder in families:
            m = family(frame)
            recounted = validate_mass_function(
                frame, [(element.members, mass) for element, mass in m.assignments]
            )
            assert recounted.bands == profile_builder(n)
            assert recounted.bands.frame_size == profile_builder(n).frame_size == n


# --- invariants ---

@pytest.mark.parametrize("n", range(1, 13))
def test_families_round_trip_through_validation(n):
    frame = FrameOfDiscernment(n)
    for family in (max_deng_mass, uniform_powerset_mass, vacuous_mass, uniform_singleton_mass):
        m = family(frame)
        again = validate_mass_function(
            frame, [(element.members, mass) for element, mass in m.assignments]
        )
        assert again == m


def test_dropping_any_focal_element_breaks_the_sum():
    m = max_deng_mass(_frame3())
    pairs = [(element.members, mass) for element, mass in m.assignments]
    for skip in range(len(pairs)):
        reduced = pairs[:skip] + pairs[skip + 1:]
        with pytest.raises(SumNotOne):
            validate_mass_function(_frame3(), reduced)


def test_random_mass_functions_round_trip():
    rng = random.Random(1414)
    for _ in range(25):
        m = random_mass_function(rng, rng.randint(2, 6))
        again = validate_mass_function(
            m.frame, [(element.members, mass) for element, mass in m.assignments]
        )
        assert again == m


@st.composite
def raw_mass_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    available = 2 ** n - 1
    masks = draw(
        st.lists(
            st.integers(min_value=1, max_value=available),
            min_size=1,
            max_size=min(10, available),
            unique=True,
        )
    )
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=1000),
            min_size=len(masks),
            max_size=len(masks),
        )
    )
    total = sum(weights)
    return n, [(mask_to_members(mask), w / total) for mask, w in zip(masks, weights)]


@given(raw_mass_inputs())
def test_validation_is_stable_under_shuffling(case):
    n, raw = case
    frame = FrameOfDiscernment(n)
    m = validate_mass_function(frame, raw)
    assert validate_mass_function(frame, list(reversed(raw))) == m
    assert abs(math.fsum(mass for _, mass in m.assignments) - 1.0) <= 1e-9
    assert all(0.0 < mass <= 1.0 for _, mass in m.assignments)


# --- the one validation pass against the per-element rules ---

def reference_validate(frame, raw, sum_tolerance=SUM_TOLERANCE):
    """The rules written out one element at a time over sorted tuples: a
    mass outside [0, 1] (NaN included) is rejected, a zero mass is dropped
    before any other check, indices are deduplicated and must be
    non-negative integers inside the frame, a subset may appear once, and
    the kept masses must sum to one.  Returns the sorted assignments."""
    kept = {}
    for subset, mass in raw:
        mass = float(mass)
        if not 0.0 <= mass <= 1.0:
            raise MassOutOfRange(mass)
        if mass == 0.0:
            continue
        members = tuple(sorted(set(subset)))
        if not members:
            raise EmptyFocalElement(subset)
        if any(not isinstance(index, int) or index < 0 for index in members):
            raise IndexOutOfFrame(members)
        if members[-1] >= frame.size:
            raise IndexOutOfFrame(members)
        if members in kept:
            raise DuplicateFocalElement(members)
        kept[members] = mass
    if abs(math.fsum(kept.values()) - 1.0) > sum_tolerance:
        raise SumNotOne(kept)
    return tuple((FocalElement(members), mass)
                 for members, mass in sorted(kept.items(), key=lambda pair: (len(pair[0]), pair[0])))


def set_loop_validate(frame, raw, sum_tolerance=SUM_TOLERANCE):
    """The checked loop without the bit lookup: one ``set()`` and one
    ``isinstance`` test per index, bands counted element by element.
    Raises what validation raises, with the same messages, and returns
    ``(masses as a list of items, bands)``."""
    n = frame.size
    masses, counts = {}, {}
    for subset, mass in raw:
        mass = float(mass)
        if not 0.0 <= mass <= 1.0:
            raise MassOutOfRange(f"mass {mass!r} lies outside [0, 1]")
        if mass == 0.0:
            continue
        members = set(subset)
        mask = 0
        for index in members:
            if not isinstance(index, int) or not 0 <= index < n:
                raise IndexOutOfFrame(
                    f"hypothesis index {index!r} is not an integer in [0, {n})"
                )
            mask |= 1 << index
        if not mask:
            raise EmptyFocalElement("an empty subset was given positive mass")
        if mask in masses:
            # named by the mask, so a bool index reads as its int
            raise DuplicateFocalElement(f"subset {mask_to_members(mask)} appears twice")
        masses[mask] = mass
        pair = (mask.bit_count(), mass)
        counts[pair] = counts.get(pair, 0) + 1
    total = math.fsum(masses.values())
    if not abs(total - 1.0) <= sum_tolerance:
        raise SumNotOne(f"masses sum to {total!r}, not 1")
    return list(masses.items()), [ProfileBand(*pair, k) for pair, k in sorted(counts.items())]


# Subset containers the raw pairs may use; ``iter`` gives a one-shot iterator.
CONTAINERS = {"tuple": tuple, "list": list, "set": set, "iter": iter}


def _raw(pairs):
    """A fresh raw list: each subset in its drawn container."""
    return [(CONTAINERS[container](subset), mass) for subset, container, mass in pairs]


@st.composite
def raw_inputs_with_faults(draw):
    """Raw pairs on a small frame, valid apart from a few drawn faults:
    negative, float, out-of-frame and repeated indices, permuted duplicate
    subsets, empty subsets, and zero, negative, too large and NaN masses.
    Each subset is drawn with a container (see ``CONTAINERS``); the result
    is ``(frame, pairs)``, and :func:`_raw` builds the input from it."""
    n = draw(st.integers(min_value=1, max_value=5))
    index = st.integers(min_value=0, max_value=n - 1)
    subsets = draw(st.lists(st.lists(index, min_size=1, max_size=4), min_size=1, max_size=6))
    positions = st.integers(min_value=0, max_value=len(subsets) - 1)
    bad_indices = st.sampled_from([-1, n, n + 3, 0.0, 1.0, 0.5, True])
    for position, bad in draw(st.lists(st.tuples(positions, bad_indices), max_size=2)):
        subsets[position] = subsets[position] + [bad]
    for position in draw(st.lists(positions, max_size=1)):
        subsets[position] = []
    for position in draw(st.lists(positions, max_size=2)):
        subsets.append(draw(st.permutations(subsets[position])))
    weights = draw(st.lists(
        st.integers(min_value=0, max_value=4), min_size=len(subsets), max_size=len(subsets)
    ))
    total = sum(weights) or 1
    masses = [w / total for w in weights]
    bad_masses = st.sampled_from([0.0, -0.25, 1.5, math.nan])
    for position, bad in draw(st.lists(st.tuples(positions, bad_masses), max_size=2)):
        masses[position] = bad
    containers = draw(st.lists(
        st.sampled_from(sorted(CONTAINERS)), min_size=len(subsets), max_size=len(subsets)
    ))
    return FrameOfDiscernment(n), list(zip(subsets, containers, masses))


def _outcome(validate, frame, raw):
    try:
        return validate(frame, raw)
    except MassFractalError as error:
        return type(error)


def _validated_items(frame, raw):
    m = validate_mass_function(frame, raw)
    return list(m.masses.items()), list(m.bands)


def _outcome_with_message(validate, frame, raw):
    try:
        return validate(frame, raw)
    except MassFractalError as error:
        return type(error), str(error)


@given(raw_inputs_with_faults())
@settings(max_examples=400, deadline=None)
def test_one_pass_accepts_and_rejects_what_the_element_rules_do(case):
    frame, pairs = case
    want = _outcome(reference_validate, frame, _raw(pairs))
    got = _outcome(validate_mass_function, frame, _raw(pairs))
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, MassFunction)
    assert got.assignments == want
    counts = Counter((len(element.members), mass) for element, mass in got.assignments)
    assert list(got.bands) == [
        ProfileBand(cardinality, mass, multiplicity)
        for (cardinality, mass), multiplicity in sorted(counts.items())
    ]


@given(raw_inputs_with_faults())
@settings(max_examples=400, deadline=None)
@example(case=(FrameOfDiscernment(2), [([1, 0], "tuple", 0.5), ([0, True], "iter", 0.5)]))
def test_lookup_path_matches_the_set_loop_to_the_message(case):
    frame, pairs = case
    assert _outcome_with_message(_validated_items, frame, _raw(pairs)) == \
        _outcome_with_message(set_loop_validate, frame, _raw(pairs))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lookup_path_matches_the_set_loop_on_a_large_input(seed):
    # 20,000 distinct random subsets of a 16-frame with dyadic masses
    rng = random.Random(seed)
    masks = rng.sample(range(1, 2 ** 16), 20_000)
    raw = list(zip(map(mask_to_members, masks), dyadic_masses(rng, len(masks))))
    frame = FrameOfDiscernment(16)
    assert _validated_items(frame, raw) == set_loop_validate(frame, raw)


# a set's iteration order depends on how it was built: {11, 35} iterates
# differently from set((11, 35)) on CPython, and the first index out of the
# frame in the subset's own set order is the one reported
OUT_OF_FRAME_PAIR = {11, 35}


@pytest.mark.parametrize("n, raw, error, message", [
    (3, [((0, 3), 1.0)], IndexOutOfFrame, "hypothesis index 3 is not an integer in [0, 3)"),
    (3, [((-1, 0), 1.0)], IndexOutOfFrame, "hypothesis index -1 is not an integer in [0, 3)"),
    (3, [((10 ** 12,), 1.0)], IndexOutOfFrame,
     f"hypothesis index {10 ** 12} is not an integer in [0, 3)"),
    (3, [(OUT_OF_FRAME_PAIR, 1.0)], IndexOutOfFrame,
     f"hypothesis index {next(iter(set(OUT_OF_FRAME_PAIR)))} is not an integer in [0, 3)"),
    (3, [((0, 1), 0.5), ((1, 0), 0.5)], DuplicateFocalElement, "subset (0, 1) appears twice"),
    (10, [((1, 8), 0.5), ((8, 1), 0.5)], DuplicateFocalElement, "subset (1, 8) appears twice"),
    (3, [([2, 0, 2], 0.5), (iter([0, 2]), 0.5)], DuplicateFocalElement,
     "subset (0, 2) appears twice"),
    # a bool index is taken as its int, and the repeat is named by its mask
    (2, [((1,), 0.5), ((True,), 0.5)], DuplicateFocalElement, "subset (1,) appears twice"),
])
def test_index_error_messages(n, raw, error, message):
    with pytest.raises(error) as caught:
        validate_mass_function(FrameOfDiscernment(n), raw)
    assert str(caught.value) == message


def test_indices_past_the_lookup_take_the_checked_path():
    frame = FrameOfDiscernment(300)
    m = validate_mass_function(frame, [((0, 299), 0.5), ((298,), 0.5)])
    assert set(m.masses) == {1 | 1 << 299, 1 << 298}
    with pytest.raises(IndexOutOfFrame, match="index 300 "):
        validate_mass_function(frame, [((0, 300), 1.0)])
