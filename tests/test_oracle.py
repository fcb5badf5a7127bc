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

import massfractal.core as core_module
from conftest import oracle_terms, random_mass_function
from massfractal.core import FrameOfDiscernment, max_deng_mass, validate_mass_function
from massfractal.entropy import deng_entropy
from massfractal.errors import EmptyFocalElement, MassOutOfRange, SumNotOne, ZeroDenominator
from massfractal.multifractal import multifractal_dimension
from massfractal.oracle import ExactMass, oracle_deng_entropy, oracle_dimension


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


def test_exact_mass_bounds():
    assert ExactMass(1) == 1
    assert ExactMass(Fraction(3, 6)) == Fraction(1, 2)
    with pytest.raises(MassOutOfRange):
        ExactMass(0)
    with pytest.raises(MassOutOfRange):
        ExactMass(3, 2)
    with pytest.raises(MassOutOfRange):
        ExactMass(Fraction(-1, 4))


def test_exact_mass_keeps_lowest_terms():
    m = ExactMass(4, 8)
    assert (m.numerator, m.denominator) == (1, 2)


def test_profiles_must_sum_to_one_exactly():
    # the library's name for the fault, which the oracle shares
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([(1, Fraction(1, 3), 1), (2, Fraction(1, 3), 1)])
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([])
    # 0.1 + 0.9 as binary doubles does not hit 1 exactly
    with pytest.raises(SumNotOne):
        oracle_deng_entropy([(1, 0.1, 1), (1, 0.9, 1)])


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
