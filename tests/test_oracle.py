"""Extended-precision evaluator, and its agreement with the fast paths.

The oracle takes exact rationals and works at 120 bits, so its own checks
lean on closed forms. The agreement tests are the point: both routes share no
numeric code, so a match to 1e-10 vouches for each.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, seed, settings, strategies as st, target

import massfractal.core as core_module
from conftest import oracle_terms, random_mass_function
from massfractal.core import FrameOfDiscernment, max_deng_mass, validate_mass_function
from massfractal.entropy import deng_entropy, renyi_information_dimension
from massfractal.errors import EmptyFocalElement, MassOutOfRange, OrderOutOfRange, SumNotOne, ZeroDenominator
from massfractal.multifractal import dimension_sweep, multifractal_dimension
from massfractal.oracle import oracle_deng_entropy, oracle_dimension


def max_deng_exact(n):
    scale = 3**n - 2**n
    return [(k, Fraction(2**k - 1, scale), comb(n, k)) for k in range(1, n + 1)]


def uniform_powerset_exact(n):
    return [(k, Fraction(1, 2**n - 1), comb(n, k)) for k in range(1, n + 1)]


def vacuous_exact(n):
    return [(n, Fraction(1), 1)]


def uniform_singleton_exact(n):
    return [(1, Fraction(1, n), n)]


TWO_FOCAL_EXACT = [(1, Fraction(1, 5), 1), (2, Fraction(4, 5), 1)]


@pytest.mark.parametrize("mass", [0, Fraction(3, 2), Fraction(-1, 4)])
def test_an_exact_mass_outside_zero_one_is_refused(mass):
    with pytest.raises(MassOutOfRange):
        oracle_deng_entropy([(1, mass, 1)])


@pytest.mark.parametrize("mass", [1, Fraction(3, 6)])
def test_an_exact_mass_in_zero_one_is_accepted(mass):
    # 3/6 is 1/2, so two singletons of it sum to exactly 1
    copies = int(1 / mass)
    assert oracle_deng_entropy([(1, mass, copies)]) == math.log2(copies)


def test_profiles_must_sum_to_one_exactly():
    # the library's name for the fault, which the oracle shares
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([(1, Fraction(1, 3), 1), (2, Fraction(1, 3), 1)])
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([])
    # 0.1 + 0.9 as binary doubles does not hit 1 exactly
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([(1, 0.1, 1), (1, 0.9, 1)])
    # a rational of 5001 digits has no str, so the fault is named unprinted
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([(1, Fraction(1, 3), 1), (1, Fraction(1, 10 ** 5000), 1)])
    with pytest.raises(MassOutOfRange):
        oracle_deng_entropy([(1, Fraction(10 ** 5000 + 1, 10 ** 5000), 1)])


@pytest.mark.parametrize("profile", [
    [(0, Fraction(1, 2), 1), (1, Fraction(1, 2), 1)],
    [(1, Fraction(1, 2), 0), (1, Fraction(1), 1)],
    [(-1, Fraction(1), 1)],
    [(-10 ** 5000, Fraction(1), 1)],
    [(1, Fraction(1), -10 ** 5000)],
], ids=["cardinality-0", "multiplicity-0", "cardinality-negative",
        "cardinality-of-5001-digits", "multiplicity-of-5001-digits"])
def test_a_count_below_one_is_an_empty_focal_element(profile):
    # as the library's row check names it
    with pytest.raises(EmptyFocalElement):
        oracle_deng_entropy(profile)
    with pytest.raises(EmptyFocalElement):
        oracle_dimension(profile, 2)


NOT_A_COUNT = [2.0, True, "2", Fraction(2), Decimal("2")]


@pytest.mark.parametrize("profile", [
    *([(count, Fraction(1), 1)] for count in NOT_A_COUNT),
    *([(1, Fraction(1, 2), count)] for count in NOT_A_COUNT),
    [(1, Fraction(1))],
    [(1, Fraction(1), 1, 1)],
], ids=[*(f"cardinality-{count!r}" for count in NOT_A_COUNT),
        *(f"multiplicity-{count!r}" for count in NOT_A_COUNT), "two-values", "four-values"])
def test_the_oracle_refuses_the_rows_the_library_refuses(profile):
    # the oracle keeps its own code, but its input gate names each fault as
    # the library's band check does
    for call in (oracle_deng_entropy, lambda rows: oracle_dimension(rows, 2), core_module._as_bands):
        with pytest.raises(EmptyFocalElement):
            call(profile)


def test_entropy_of_point_singleton_is_zero():
    assert oracle_deng_entropy([(1, Fraction(1), 1)]) == 0.0


def test_entropy_closed_forms():
    assert oracle_deng_entropy(max_deng_exact(3)) == pytest.approx(
        math.log2(19), abs=1e-14
    )
    assert oracle_deng_entropy(vacuous_exact(4)) == pytest.approx(
        math.log2(15), abs=1e-14
    )


@pytest.mark.parametrize("n", range(1, 13))
def test_entropy_matches_log_of_normalizer(n):
    expected = math.log2(3**n - 2**n)
    assert oracle_deng_entropy(max_deng_exact(n)) == pytest.approx(expected, abs=1e-13)


def test_dimension_spot_values():
    assert oracle_dimension(TWO_FOCAL_EXACT, 2) == pytest.approx(0.7163, abs=5e-5)
    assert oracle_dimension(vacuous_exact(7), 13) == pytest.approx(
        1.0 / 13.0, abs=1e-14
    )
    assert oracle_dimension(uniform_powerset_exact(6), 9) == pytest.approx(
        1.0023, abs=5e-5
    )


def test_dimension_accepts_rational_like_orders():
    as_int = oracle_dimension(TWO_FOCAL_EXACT, 3)
    as_fraction = oracle_dimension(TWO_FOCAL_EXACT, Fraction(3))
    as_float = oracle_dimension(TWO_FOCAL_EXACT, 3.0)
    assert as_int == as_fraction == as_float


def test_dimension_degenerate_input():
    with pytest.raises(ZeroDenominator):
        oracle_dimension([(1, Fraction(1), 1)], 2)


def test_vacuous_law_holds_at_high_precision():
    for n in (2, 5, 11):
        for alpha in (Fraction(1), Fraction(7), Fraction(19)):
            value = oracle_dimension(vacuous_exact(n), alpha)
            assert value == pytest.approx(1.0 / float(alpha), abs=1e-15)


def test_fast_paths_agree_with_oracle_on_families():
    for n in range(2, 9):
        frame = FrameOfDiscernment(n)
        m = max_deng_mass(frame)
        assert deng_entropy(m) == pytest.approx(
            oracle_deng_entropy(max_deng_exact(n)), abs=1e-10
        )
        for alpha in (1.0, 2.0, 9.0):
            fast = multifractal_dimension(m, alpha).value
            slow = oracle_dimension(max_deng_exact(n), Fraction(alpha))
            assert fast == pytest.approx(slow, abs=1e-10)


def test_fast_paths_agree_with_oracle_on_random_masses():
    rng = random.Random(8086)
    for _ in range(12):
        m = random_mass_function(rng, rng.randint(2, 6))
        terms = oracle_terms(m)
        assert deng_entropy(m) == pytest.approx(oracle_deng_entropy(terms), abs=1e-10)
        for alpha in (0.5, 1.0, 2.0, 6.0):
            fast = multifractal_dimension(m, alpha).value
            slow = oracle_dimension(terms, Fraction(alpha))
            assert fast == pytest.approx(slow, abs=1e-10)


def test_two_focal_example_both_routes():
    # the fast path sees the doubles nearest to the fifths; that input gap
    # perturbs the result far below the agreement tolerance
    m = validate_mass_function(
        FrameOfDiscernment(3), [((0,), 0.2), ((1, 2), 0.8)]
    )
    for alpha in (1.0, 2.0, 3.0, 9.0, 33.0):
        fast = multifractal_dimension(m, alpha).value
        slow = oracle_dimension(TWO_FOCAL_EXACT, Fraction(alpha))
        assert fast == pytest.approx(slow, abs=1e-10)


def test_numerator_keeps_its_digits_where_the_log_cancels_near_order_one():
    # a tiny Deng value at an order within 1e-15 of 1: sum - 1 is ~2e-29, so
    # 120 working bits alone would leave about seven digits
    profile = [(1, 1 - Fraction(1, 2 ** 51), 1), (7, Fraction(1, 2 ** 51), 1)]
    alpha = 1 - 1e-15
    want = 2.6392834463556538e-14  # at 400 working bits
    assert oracle_dimension(profile, alpha) == pytest.approx(want, rel=1e-15)
    m = validate_mass_function(
        FrameOfDiscernment(7), [((0,), 1 - 2.0 ** -51), (tuple(range(7)), 2.0 ** -51)]
    )
    assert multifractal_dimension(m, alpha).value == pytest.approx(want, rel=1e-15)


def test_denominator_keeps_its_digits_where_the_log_cancels_at_negative_orders():
    # at order -300 the denominator sum is 1 + 3**-150, which 120 working
    # bits round to 1; the value is (300 + log2(1 + 3**301)) / 301 over
    # log2(1 + 3**-150), here at 400 working bits
    want = 6.620783566991185e+71
    assert oracle_dimension([(1, Fraction(1, 2), 1), (2, Fraction(1, 2), 1)], -300) == \
        pytest.approx(want, rel=1e-15)


# --- one refusal rule for the library and its oracle ---
#
# A singleton of mass 2**-20, 2**-40 or 2**-52 beside a 2-set: the
# singleton's denominator term is exactly 1 and the 2-set's is about 2**-951
# at order -600 and below 2**-1074 from order -678 on, so the exact
# denominator, though above 0, takes the dimension past the largest double
# from about order -645, and both sides raise OrderOutOfRange.

ONE_SINGLETON_ORDERS = (-600.0, -650.0, -700.0, -800.0, -1000.0, -2000.0, -5000.0, -1e4)


def _value_or_refusal(evaluate):
    try:
        return evaluate()
    except (ZeroDenominator, OrderOutOfRange) as refusal:
        return type(refusal).__name__


@pytest.mark.parametrize("tiny", [2.0 ** -20, 2.0 ** -40, 2.0 ** -52])
def test_a_singleton_beside_a_vanishing_term_is_refused_alike(tiny):
    rows = [(1, tiny, 1), (2, 1 - tiny, 1)]
    terms = [(cardinality, Fraction(mass), multiplicity) for cardinality, mass, multiplicity in rows]
    outcomes = []
    for alpha in ONE_SINGLETON_ORDERS:
        got = _value_or_refusal(lambda: multifractal_dimension(rows, alpha).value)
        want = _value_or_refusal(lambda: oracle_dimension(terms, alpha))
        if isinstance(got, str) or isinstance(want, str):
            assert got == want, (alpha, got, want)
        else:
            assert _relative_error(got, want) <= 1e-12, (alpha, got, want)
        outcomes.append(type(got))
    # both a value and a refusal are checked
    assert float in outcomes and str in outcomes


# --- one input rule for the library and its oracle ---
#
# Each fault is named by the same MassFractalError subclass on both sides,
# and a faulty profile is named before a faulty order.

ROWS = [(1, 0.25, 1), (2, 0.75, 1)]

FAULTY_PROFILES = [
    (None, EmptyFocalElement),
    (5, EmptyFocalElement),
    ([(1, 1.0)], EmptyFocalElement),
    *(([(1, mass, 1)], MassOutOfRange)
      for mass in (None, "1", "x", True, 1j, math.nan, math.inf, -math.inf, Decimal("sNaN"), 0, 2.0)),
    *(([(count, 1.0, 1)], EmptyFocalElement) for count in (0, 2.0, True)),
    *(([(1, 1.0, count)], EmptyFocalElement) for count in (0, 2.0, True)),
]
FAULTY_ORDERS = [None, "2", True, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("profile, error", FAULTY_PROFILES, ids=repr)
def test_a_faulty_profile_is_named_alike_by_the_library_and_the_oracle(profile, error):
    for call in (oracle_deng_entropy, deng_entropy):
        with pytest.raises(error):
            call(profile)
    # named before the order, however faulty the order is
    for alpha in (2, *FAULTY_ORDERS):
        for call in (oracle_dimension, multifractal_dimension):
            with pytest.raises(error):
                call(profile, alpha)


@pytest.mark.parametrize("alpha", FAULTY_ORDERS, ids=repr)
def test_a_faulty_order_is_named_alike_by_the_library_and_the_oracle(alpha):
    for call in (oracle_dimension, multifractal_dimension):
        with pytest.raises(OrderOutOfRange):
            call(ROWS, alpha)


class _Half:
    """A number of a type the library does not know, which float() reads."""

    def __float__(self):
        return 0.5


def test_a_mass_of_another_number_type_is_read_as_its_double():
    rows = [(1, _Half(), 2)]
    assert oracle_deng_entropy(rows) == deng_entropy(rows) == 1.0
    assert oracle_dimension(rows, 2) == multifractal_dimension(rows, 2).value == 1.0


# --- a targeted search for the inputs the kernel gets least right ---
#
# Random inputs almost never land where the kernel loses digits, so the
# search steers itself there: each example reports log10 of its worst
# relative error to hypothesis.target, which breeds the examples that score
# highest.  Masses sit on 2**-20, 2**-40 and 2**-60 grids, so a tiny mass
# beside a large one is easy to draw, and the oracle reads the very doubles
# the library reads.

@st.composite
def grid_rows(draw):
    """1 to 4 rows on one dyadic grid whose doubles sum to exactly 1."""
    units = 2 ** draw(st.sampled_from([20, 40, 60]))
    count = draw(st.integers(1, 4))
    rows, left = [], units
    for _ in range(count - 1):
        multiplicity = draw(st.integers(1, 8))
        share = draw(st.integers(1, units // (2 * count * multiplicity)))
        rows.append((draw(st.integers(1, 8)), share / units, multiplicity))
        left -= share * multiplicity
    multiplicity = draw(st.sampled_from([k for k in range(1, 9) if left % k == 0]))
    rows.append((draw(st.integers(1, 8)), left // multiplicity / units, multiplicity))
    terms = [(cardinality, Fraction(mass), multiplicity) for cardinality, mass, multiplicity in rows]
    # a 2**-60 grid value rounds to its double, which may leave the sum off 1
    assume(sum(mass * multiplicity for _, mass, multiplicity in terms) == 1)
    return rows, terms


def _relative_error(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


@seed(1)
@settings(max_examples=1400, deadline=None, database=None)
@given(grid_rows(), st.floats(-60.0, 60.0))
def test_a_targeted_search_finds_no_miss_against_the_oracle(rows_and_terms, alpha):
    rows, terms = rows_and_terms
    errors = [_relative_error(deng_entropy(rows), oracle_deng_entropy(terms))]
    try:
        got = multifractal_dimension(rows, alpha).value
    except (ZeroDenominator, OrderOutOfRange) as refusal:
        # a documented refusal, which the sweep reports as its error row
        assert dimension_sweep(rows, [alpha])[0].error == type(refusal).__name__
    else:
        assert dimension_sweep(rows, [alpha])[0].result.value == got
        errors.append(_relative_error(got, oracle_dimension(terms, alpha)))
        if all(cardinality == 1 for cardinality, _, _ in rows):
            probabilities = [mass for _, mass, multiplicity in rows for _ in range(multiplicity)]
            errors.append(_relative_error(renyi_information_dimension(probabilities, alpha), got))
    worst = max(errors)
    target(math.log10(max(worst, 1e-20)))
    assert worst <= 1e-12, (rows, alpha, worst)
