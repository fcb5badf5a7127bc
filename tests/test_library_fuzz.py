"""Property tests of every public entry point of the library on generated
input.

Frame sizes and labels, subsets, masses, band rows (of three values or
any other shape), probabilities, tolerances and orders are drawn from ints
(past the double range too), bools, strings,
``None``, NaN, the infinities, reals in [-1000, 1000], ``Fraction`` and
``Decimal`` values (signaling NaN, NaN and exponents past the double range
included).  Where a container belongs (the pairs of a mass function, the
probabilities, the orders of a sweep, a frame) values that are no
container, strings and bytes, and entries of 0 to 3 items are drawn too.
Every call must end in one of two ways: a finite float (or a
well-formed value holding only finite floats), or a
:class:`MassFractalError` subclass.  A bare ``TypeError`` or
``ValueError``, a ``nan`` or an ``inf`` fails.  Agreement with the oracle
is checked in ``test_multifractal.py`` and ``test_oracle.py``.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import pooled_mass_function, random_bayesian, random_mass_function
from massfractal.core import (
    FrameOfDiscernment,
    max_deng_mass,
    max_deng_profile,
    uniform_powerset_mass,
    uniform_powerset_profile,
    uniform_singleton_mass,
    uniform_singleton_profile,
    validate_mass_function,
    vacuous_mass,
    vacuous_profile,
)
from massfractal.entropy import (
    deng_entropy,
    renyi_entropy,
    renyi_information_dimension,
    shannon_entropy,
)
from massfractal.errors import InvalidFrame, MassFractalError, MassOutOfRange, OrderOutOfRange
from massfractal.multifractal import (
    asymptotic_anchor_points,
    dimension_sweep,
    multifractal_dimension,
    quadratic_envelope,
    spectrum,
    spectrum_from_profile,
)

FUZZ = settings(max_examples=200, deadline=None)

SNAN = Decimal("sNaN")

# a size, an index, an order or a probability as a caller might pass one
VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1000.0, 1000.0),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.fractions(),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, SNAN,
                     Decimal("NaN"), Decimal("1e999999"), Decimal("-1e999999"),
                     Decimal("1e-999999"), Fraction(10 ** 400, 3)]),
)

# an entry of 0 to 3 items, where a pair or a number belongs
ITEMS = st.lists(VALUE, max_size=3).map(tuple)

# what a caller might pass where a container belongs: no iterable, a
# string, bytes or a tuple of 0 to 3 items
NOT_A_CONTAINER = st.one_of(VALUE, st.binary(max_size=3), ITEMS)

# a frame size: small enough to enumerate, or past a cap, or not a size
SIZE = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([27, 645, 1024, 10 ** 12, 10 ** 400, 10 ** 5000]),
    VALUE,
)

LABEL = st.one_of(st.text(max_size=2), st.integers(0, 3), st.none())

LABELS = st.one_of(
    st.none(),
    st.lists(st.text(max_size=2), max_size=4),
    st.lists(st.text(max_size=2), max_size=4).map(tuple),
    st.lists(LABEL, max_size=4).map(tuple),
    st.text(max_size=4),
    st.sets(st.text(min_size=1, max_size=2), max_size=4),
)


def finite(value) -> bool:
    return type(value) is float and math.isfinite(value)


def all_finite(value) -> bool:
    """Every float in a result, through its tuples and lists, is finite."""
    if isinstance(value, (tuple, list)):
        return all(map(all_finite, value))
    return type(value) is not float or math.isfinite(value)


def finite_or_refused(call, *args) -> None:
    try:
        value = call(*args)
    except MassFractalError:
        return
    assert all_finite(value), (call.__name__, args, value)


@FUZZ
@given(size=VALUE, labels=LABELS)
@example(size=True, labels=None)
@example(size=2, labels=["a", "b"])
@example(size=2, labels=("a", 1))
@example(size=2, labels="ab")
def test_a_frame_is_a_whole_hashable_value_or_refused(size, labels):
    try:
        frame = FrameOfDiscernment(size, labels)
    except MassFractalError:
        return
    assert type(frame.size) is int and frame.size >= 1
    if frame.labels is not None:
        assert type(frame.labels) is tuple and len(set(frame.labels)) == frame.size
        assert all(isinstance(label, str) and label for label in frame.labels)
    assert hash(frame) == hash(FrameOfDiscernment(size, labels))


# a distribution from positive weights, which validates, entries as drawn,
# or no container of numbers
PROBABILITIES = st.one_of(
    st.lists(st.integers(1, 1000), min_size=1, max_size=6).map(
        lambda weights: [w / sum(weights) for w in weights]),
    st.lists(st.one_of(VALUE, st.floats(0.0, 1.0), ITEMS), max_size=4),
    NOT_A_CONTAINER,
)


@FUZZ
@given(probs=PROBABILITIES, alpha=VALUE)
@example(probs=[0.2, 0.8], alpha=math.nan)
@example(probs=[0.2, 0.8], alpha=math.inf)
@example(probs=[1.0], alpha=math.inf)
@example(probs=[0.2, 0.8], alpha=-math.inf)
@example(probs=[SNAN, 0.5], alpha=2.0)
@example(probs=[0.5, 0.5], alpha=SNAN)
@example(probs=5, alpha=2.0)
@example(probs=None, alpha=2.0)
@example(probs="0.5", alpha=2.0)
@example(probs=b"\x01", alpha=2.0)
def test_renyi_is_finite_or_refused(probs, alpha):
    for quantity in (renyi_entropy, renyi_information_dimension):
        try:
            value = quantity(probs, alpha)
        except MassFractalError:
            continue
        assert finite(value), (quantity.__name__, probs, alpha, value)
    finite_or_refused(shannon_entropy, probs)


def _value_or_error_type(call, *args):
    try:
        return repr(call(*args))
    except MassFractalError as failure:
        return type(failure)


@FUZZ
@given(probs=PROBABILITIES, alpha=VALUE)
@example(probs=[0.2, 0.8], alpha=-2.0)
@example(probs=[0.2, 0.8], alpha=-1.7e308)
@example(probs=[0.25, 0.0, 0.75], alpha=-0.5)
@example(probs=[0.2, 0.8], alpha=-math.inf)
@example(probs=[1.0], alpha=2.0)
@example(probs=[1.0, 0.0], alpha=-0.5)
@example(probs=[0.9999999999], alpha=0.0)
@example(probs=[1.0], alpha="2")
def test_information_dimension_is_d_alpha_on_drawn_singleton_rows(probs, alpha):
    # the same value, or the same error type, as D_alpha of the rows
    # (1, p_i, 1) of the non-zero entries, one-point supports included
    try:
        shannon_entropy(probs)
    except MassFractalError:
        return
    rows = [(1, float(p), 1) for p in probs if float(p) != 0.0]
    assert (_value_or_error_type(renyi_information_dimension, probs, alpha)
            == _value_or_error_type(lambda: multifractal_dimension(rows, alpha).value))


def _mass_function(kind: int, seed: int):
    rng = random.Random(seed)
    if kind == 0:
        return random_mass_function(rng, rng.randint(2, 5))
    if kind == 1:
        return pooled_mass_function(rng, 5)
    if kind == 2:
        return random_bayesian(rng, rng.randint(1, 5))
    if kind == 3:
        return max_deng_mass(FrameOfDiscernment(rng.randint(1, 6)))
    if kind == 4:
        return vacuous_mass(FrameOfDiscernment(rng.randint(1, 6)))
    # T3's shape: a singleton of mass 0.2 and a 2-set of mass 0.8
    return validate_mass_function(FrameOfDiscernment(3), [((0,), 0.2), ((1, 2), 0.8)])


MASS_FUNCTIONS = st.builds(_mass_function, st.integers(0, 5), st.integers(0, 2 ** 32))


# orders as drawn, entries of 0 to 3 items among them, or no container
ORDERS = st.one_of(st.lists(st.one_of(VALUE, ITEMS), max_size=4), NOT_A_CONTAINER)


@FUZZ
@given(m=MASS_FUNCTIONS, alphas=ORDERS)
@example(m=_mass_function(5, 0), alphas=[math.nan, math.inf, -math.inf, -1000, 1000])
@example(m=_mass_function(5, 0), alphas=5)
@example(m=_mass_function(5, 0), alphas=None)
def test_dimension_is_finite_or_refused(m, alphas):
    for alpha in alphas if isinstance(alphas, list) else [alphas]:
        try:
            result = multifractal_dimension(m, alpha)
        except MassFractalError:
            continue
        assert all(map(finite, result)), (alpha, result)
    try:
        entries = dimension_sweep(m, alphas)
    except MassFractalError:
        return
    assert len(entries) == len(alphas)
    for entry in entries:
        assert (entry.result is None) != (entry.error is None)
        assert entry.result is None or all(map(finite, entry.result)), entry


SUBSET = st.one_of(st.lists(st.one_of(st.integers(0, 3), VALUE), max_size=3), VALUE)


# a sum or grouping tolerance: the defaults, other numbers of at least 0,
# or anything a caller might pass
TOLERANCE = st.one_of(st.just(1e-9), st.floats(0.0, 1.0), VALUE)


PAIR = st.tuples(SUBSET, st.one_of(VALUE, st.floats(0.0, 1.0)))

# pairs as drawn, entries of 0 to 3 items among them, or no container
RAW = st.one_of(
    st.lists(PAIR, max_size=4),
    st.lists(st.one_of(PAIR, ITEMS, VALUE), min_size=1, max_size=4),
    NOT_A_CONTAINER,
)


@FUZZ
@given(size=SIZE, pairs=RAW, sum_tolerance=TOLERANCE, grouping_tolerance=TOLERANCE)
@example(size=2, pairs=[((0,), 0.5), ((1,), 0.5)], sum_tolerance=1e-9, grouping_tolerance=1e-9)
@example(size=2, pairs=[((0,), SNAN), ((1,), 0.5)], sum_tolerance=1e-9, grouping_tolerance=1e-9)
@example(size=2, pairs=[((SNAN,), 0.5), ((1,), 0.5)], sum_tolerance=1e-9, grouping_tolerance=1e-9)
@example(size=2, pairs=[((0,), 0.5), ((1,), 0.5)], sum_tolerance=math.nan, grouping_tolerance="x")
@example(size=2, pairs=[((0,), 0.25), ((1,), 0.75)], sum_tolerance=SNAN, grouping_tolerance=math.nan)
@example(size=2, pairs=None, sum_tolerance=1e-9, grouping_tolerance=1e-9)
@example(size=2, pairs=[(0.5,)], sum_tolerance=1e-9, grouping_tolerance=1e-9)
@example(size=2, pairs=[((0,), 0.5, 1)], sum_tolerance=1e-9, grouping_tolerance=1e-9)
def test_validation_and_what_it_feeds_are_finite_or_refused(size, pairs, sum_tolerance, grouping_tolerance):
    try:
        m = validate_mass_function(FrameOfDiscernment(size), pairs, sum_tolerance)
    except MassFractalError:
        return
    finite_or_refused(spectrum, m)
    finite_or_refused(spectrum, m, grouping_tolerance)
    finite_or_refused(deng_entropy, m)


# a cardinality or a multiplicity
WHOLE = st.one_of(st.integers(1, 4), VALUE)

BAND = st.tuples(WHOLE, st.one_of(st.floats(0.0, 1.0), VALUE), WHOLE)

# rows of three values, a mass function's bands as rows, or rows of other
# shapes: pairs, quadruples and values that are no rows
ROWS = st.one_of(
    st.lists(BAND, max_size=3),
    st.builds(lambda m: list(m.bands), st.builds(lambda seed: _mass_function(0, seed), st.integers(0, 2 ** 32))),
    st.lists(st.one_of(BAND, st.tuples(WHOLE, WHOLE), st.tuples(WHOLE, WHOLE, WHOLE, WHOLE), VALUE),
             min_size=1, max_size=3),
    VALUE,
)


@FUZZ
@given(rows=ROWS, n=SIZE, alpha=VALUE)
@example(rows=[(1, 0.5, 2)], n=2, alpha=2.0)
@example(rows=[(1, SNAN, 2)], n=2, alpha=2.0)
@example(rows=[(1, 0.5, 2)], n=math.nan, alpha=2.0)
@example(rows=[(1, 0.5, 2)], n=2, alpha=SNAN)
@example(rows=[(1, 0.5)], n=2, alpha=2.0)
@example(rows=[5], n=2, alpha=2.0)
@example(rows=[(Decimal("1e999999"), 1.0, 1)], n=2, alpha=2.0)
@example(rows=[(1, 0.5, Decimal("1e999999"))], n=2, alpha=2.0)
def test_band_rows_are_finite_or_refused(rows, n, alpha):
    finite_or_refused(deng_entropy, rows)
    finite_or_refused(spectrum, rows)
    finite_or_refused(spectrum_from_profile, rows, n)
    finite_or_refused(multifractal_dimension, rows, alpha)
    try:
        entries = dimension_sweep(rows, [alpha, 2.0])
    except MassFractalError:
        return
    # an error row echoes its order, which may be NaN
    assert all(entry.result is None or all(map(finite, entry.result)) for entry in entries), entries


PROFILE_BUILDERS = (max_deng_profile, uniform_powerset_profile, vacuous_profile, uniform_singleton_profile)
MASS_BUILDERS = (max_deng_mass, uniform_powerset_mass, vacuous_mass, uniform_singleton_mass)


@FUZZ
@given(n=st.one_of(SIZE, st.integers(9, 1100)))
@example(n=644)
@example(n=645)
@example(n=math.nan)
@example(n=SNAN)
@example(n="3")
def test_builders_and_the_envelope_are_finite_or_refused(n):
    for builder in PROFILE_BUILDERS:
        try:
            bands = builder(n)
        except MassFractalError:
            continue
        assert all_finite(bands) and all(band.mass > 0.0 for band in bands)
        finite_or_refused(deng_entropy, bands)
        finite_or_refused(spectrum, bands)
        finite_or_refused(multifractal_dimension, bands, 2.0)
    if not (isinstance(n, int) and 9 <= n <= 26):  # enumerated subsets stay few
        for builder in MASS_BUILDERS:
            try:
                m = builder(FrameOfDiscernment(n))
            except MassFractalError:
                continue
            assert all_finite(list(m.masses.values()))
    finite_or_refused(quadratic_envelope, n)
    finite_or_refused(asymptotic_anchor_points, n)


@FUZZ
@given(frame=st.one_of(st.builds(FrameOfDiscernment, st.integers(1, 4)), VALUE, ITEMS))
@example(frame=3)
@example(frame=None)
def test_a_frame_is_a_frame_of_discernment_or_refused(frame):
    calls = [lambda: validate_mass_function(frame, [((0,), 1.0)])]
    calls += [lambda builder=builder: builder(frame) for builder in MASS_BUILDERS]
    for call in calls:
        if isinstance(frame, FrameOfDiscernment):
            assert all_finite(list(call().masses.values()))
        else:
            with pytest.raises(InvalidFrame):
                call()


@pytest.mark.parametrize("call, error", [
    (lambda: validate_mass_function(FrameOfDiscernment(2), [((0,), SNAN), ((1,), 0.5)]), MassOutOfRange),
    (lambda: multifractal_dimension([(1, SNAN, 2)], 2.0), MassOutOfRange),
    (lambda: multifractal_dimension(vacuous_mass(FrameOfDiscernment(2)), SNAN), OrderOutOfRange),
    (lambda: renyi_entropy([SNAN, 0.5], 2.0), MassOutOfRange),
    (lambda: renyi_entropy([0.5, 0.5], SNAN), OrderOutOfRange),
], ids=["mass", "band-mass", "order", "probability", "renyi-order"])
def test_a_signaling_nan_is_named(call, error):
    # float() raises a bare ValueError on it, not the TypeError it raises
    # on other values that are not numbers
    with pytest.raises(error, match=r"Decimal\('sNaN'\) is not a number"):
        call()
