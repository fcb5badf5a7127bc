"""Shannon, Renyi, and Deng entropies against frozen reference values.

Reference constants were minted with a 120-bit evaluator; tolerances reflect
double rounding in the fast paths.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import pooled_mass_function, random_bayesian, random_mass_function
from massfractal.core import (
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
    _log2_subset_count,
    deng_entropy,
    renyi_entropy,
    renyi_information_dimension,
    shannon_entropy,
)
from massfractal.errors import (
    DegenerateSupport,
    MassOutOfRange,
    NegativeOrderUnsupported,
    OrderOutOfRange,
    SumNotOne,
)

SHANNON_FIFTH_FOUR_FIFTHS = 0.7219280948873623
RENYI2_FIFTH_FOUR_FIFTHS = 0.5563933485243853
LOG2_19 = 4.247927513443585
LOG2_7 = 2.807354922057604


def _oracle_renyi(probs, alpha):
    """Renyi entropy in bits at 120 working bits, of the exact rationals the
    doubles hold, normalised to sum to one; Shannon at alpha = 1."""
    exact = [Fraction(q) for q in probs if q > 0.0]
    total = sum(exact)
    order = Fraction(alpha)
    with mp.workprec(120):
        ps = [mp.mpf(q.numerator) / mp.mpf(q.denominator) for q in (q / total for q in exact)]
        if order == 1:
            return float(-mp.fsum(q * mp.log(q, 2) for q in ps))
        a = mp.mpf(order.numerator) / order.denominator
        return float(mp.log(mp.fsum(mp.power(q, a) for q in ps), 2) / (1 - a))


def _relative_error(value, exact):
    return abs(value - exact) / abs(exact)


# order 1 and 1 +- 10**-k for k = 1..15
NEAR_ONE_ORDERS = (1.0,) + tuple(
    1.0 + sign * 10.0 ** -k for k in range(1, 16) for sign in (1, -1)
)


ENTROPIES = (
    lambda probs: renyi_entropy(probs, 2.0),
    shannon_entropy,
    lambda probs: renyi_information_dimension(probs, 2.0),
)


def test_distribution_validation():
    assert renyi_entropy((0.25, 0.75), 0.0) == 1.0
    for quantity in ENTROPIES:
        with pytest.raises(MassOutOfRange):
            quantity((-0.1, 1.1))
        with pytest.raises(SumNotOne):
            quantity((0.3, 0.3))
        with pytest.raises(SumNotOne):
            quantity((0.0, 0.0))


@pytest.mark.parametrize("probs", [(math.nan, 1.0), (1.0, math.nan), (math.nan, 0.5, 0.5),
                                   (2.0,), (math.inf, -math.inf),
                                   ("0.5", "0.5"), (b"1",), (True,), (None,), (10 ** 400,)])
def test_distribution_is_checked_as_singleton_bands(probs):
    # unchecked, (nan, 0.5, 0.5) would give renyi_entropy a quiet 1.0
    for quantity in ENTROPIES:
        with pytest.raises(MassOutOfRange):
            quantity(probs)


def test_probabilities_are_checked_before_the_support_and_the_order():
    # a bad entry is named first, then a point support, then the order
    for alpha in (-1.0, math.nan, "2"):
        for quantity in (renyi_entropy, renyi_information_dimension):
            with pytest.raises(MassOutOfRange):
                quantity((math.nan, 1.0), alpha)
            with pytest.raises(SumNotOne):
                quantity((0.3, 0.3), alpha)
        with pytest.raises(DegenerateSupport):
            renyi_information_dimension((1.0, 0.0), alpha)
    with pytest.raises(NegativeOrderUnsupported):
        renyi_information_dimension((0.5, 0.5), -1.0)
    with pytest.raises(OrderOutOfRange):
        renyi_information_dimension((0.5, 0.5), "2")


def test_probabilities_are_read_once_from_any_iterable():
    # a generator, a list and exact rationals give the tuple's value
    expected = renyi_entropy((0.2, 0.8), 2.0)
    assert renyi_entropy((q for q in (0.2, 0.8)), 2.0) == expected
    assert renyi_entropy([0.2, 0.8], 2.0) == expected
    assert renyi_entropy((Fraction(1, 5), Fraction(4, 5)), 2.0) == expected
    assert renyi_information_dimension(iter([0.2, 0.0, 0.8]), 2.0) == expected


def test_subset_count_log_skips_the_big_int():
    for k in range(1, 5001):
        assert _log2_subset_count(k) == math.log2(2 ** k - 1)
    assert _log2_subset_count(10 ** 12) == 1e12


def test_distribution_support_skips_zeros():
    # zero entries, -0.0 too, are dropped before the support is counted
    p = (0.5, 0.0, -0.0, 0.5)
    assert renyi_entropy(p, 0.0) == 1.0
    assert renyi_information_dimension(p, 0.0) == 1.0
    assert shannon_entropy(p) == shannon_entropy((0.5, 0.5))


def test_shannon_basics():
    assert shannon_entropy((0.5, 0.5)) == 1.0
    assert shannon_entropy((1.0,)) == 0.0
    assert shannon_entropy((1.0, 0.0)) == 0.0
    value = shannon_entropy((0.2, 0.8))
    assert value == pytest.approx(SHANNON_FIFTH_FOUR_FIFTHS, abs=1e-13)


def test_renyi_on_uniform_is_log_n():
    p = (0.125,) * 8
    for alpha in (0.0, 0.5, 1.0, 2.0, 17.0):
        assert renyi_entropy(p, alpha) == pytest.approx(3.0, abs=1e-12)


def test_renyi_order_two():
    value = renyi_entropy((0.2, 0.8), 2.0)
    assert value == pytest.approx(RENYI2_FIFTH_FOUR_FIFTHS, abs=1e-12)


def test_renyi_limit_branch_is_shannon():
    p = (0.1, 0.2, 0.7)
    assert renyi_entropy(p, 1.0) == shannon_entropy(p)
    # the exact value at 1 - 1e-13 differs from Shannon by about 9e-15
    alpha = 1.0 - 1e-13
    assert _relative_error(renyi_entropy(p, alpha), _oracle_renyi(p, alpha)) <= 1e-12


@pytest.mark.parametrize(
    "probs", [(0.5, 0.25, 0.125, 0.125), (0.1, 0.2, 0.7), (1.0 - 2.0 ** -27, 2.0 ** -27)]
)
def test_renyi_near_order_one_matches_the_oracle(probs):
    for alpha in NEAR_ONE_ORDERS + (0.0, 0.5, 2.0, 7.0, 40.0):
        assert _relative_error(renyi_entropy(probs, alpha), _oracle_renyi(probs, alpha)) <= 1e-12, alpha


def test_renyi_is_continuous_through_one_on_masses_short_of_one():
    # sums to 1 - 1e-10, inside the tolerance; the shares are normalised, so
    # the 1e-10 is not divided by alpha - 1
    p = (0.3333333333,) * 3
    center = renyi_entropy(p, 1.0)
    for alpha in (1.0 - 1e-11, 1.0 + 1e-11):
        assert _relative_error(renyi_entropy(p, alpha), center) <= 1e-12


def test_renyi_rejects_negative_orders():
    with pytest.raises(NegativeOrderUnsupported):
        renyi_entropy((0.5, 0.5), -1.0)


@pytest.mark.parametrize("alpha", ["2", b"2", True, None, [2.0], 10 ** 400])
def test_renyi_refuses_orders_that_are_not_numbers(alpha):
    p = (0.2, 0.8)
    with pytest.raises(OrderOutOfRange):
        renyi_entropy(p, alpha)


def test_renyi_takes_int_orders():
    p = (0.2, 0.8)
    assert renyi_entropy(p, 2) == renyi_entropy(p, 2.0)
    assert renyi_entropy(p, 2) == pytest.approx(RENYI2_FIFTH_FOUR_FIFTHS, rel=1e-14)


@pytest.mark.parametrize("alpha", [1e307, 1e308, 1.7e308, sys.float_info.max])
def test_renyi_at_orders_where_every_exponent_overflows(alpha):
    # eps * log2 0.2 is -inf from about 7.7e307 on, and the max-shifted sum
    # of those terms alone is nan; the value is the limit log2 5
    p = [0.2] * 5
    assert renyi_entropy(p, alpha) == 2.321928094887362


def test_renyi_past_the_overflow_keeps_the_largest_share():
    # only the largest p_i survives eps * (t_i - T): the value is -log2 of it,
    # the min-entropy, as the 120-bit evaluator gives at order 1e300
    p = (0.2, 0.3, 0.5)
    assert renyi_entropy(p, 1.7e308) == 1.0
    assert renyi_entropy(p, 1.7e308) == pytest.approx(_oracle_renyi(p, 1e300), rel=1e-12)


def test_renyi_order_zero_counts_support():
    p = (0.9, 0.1, 0.0)
    assert renyi_entropy(p, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_renyi_is_nonincreasing_in_order():
    rng = random.Random(2718)
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    for _ in range(50):
        size = rng.randint(2, 8)
        weights = [rng.randint(1, 100) for _ in range(size)]
        total = sum(weights)
        p = [w / total for w in weights]
        values = [renyi_entropy(p, alpha) for alpha in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_information_dimension_of_uniform_is_one():
    for n in (2, 5, 9):
        p = (1.0 / n,) * n
        for alpha in (0.5, 1.0, 2.0, 7.0):
            value = renyi_information_dimension(p, alpha)
            assert value == pytest.approx(1.0, abs=1e-12)


def test_information_dimension_rejects_point_support():
    with pytest.raises(DegenerateSupport):
        renyi_information_dimension((1.0, 0.0), 2.0)


def test_information_dimension_binary_support():
    p = (0.2, 0.8)
    value = renyi_information_dimension(p, 2.0)
    assert value == pytest.approx(RENYI2_FIFTH_FOUR_FIFTHS, abs=1e-12)


# --- Deng entropy ---

def test_deng_point_mass_is_zero():
    m = validate_mass_function(FrameOfDiscernment(2), [((0,), 1.0)])
    assert deng_entropy(m) == 0.0


def test_deng_of_max_deng_closes_the_bound():
    assert deng_entropy(max_deng_mass(FrameOfDiscernment(3))) == pytest.approx(
        LOG2_19, abs=1e-12
    )


def test_deng_of_vacuous():
    assert deng_entropy(vacuous_mass(FrameOfDiscernment(3))) == pytest.approx(
        LOG2_7, abs=1e-12
    )


def test_max_deng_entropy_value():
    # the family reaches the ceiling log2(3**n - 2**n): 0, log2 19, and about
    # n log2 3
    assert deng_entropy(max_deng_mass(FrameOfDiscernment(1))) == 0.0
    assert deng_entropy(max_deng_profile(3)) == pytest.approx(LOG2_19, abs=1e-14)
    assert deng_entropy(max_deng_profile(100)) == pytest.approx(
        100 * math.log2(3), rel=1e-9)
    with pytest.raises(ValueError):
        max_deng_profile(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_deng_matches_its_closed_form_ceiling(n):
    value = deng_entropy(max_deng_mass(FrameOfDiscernment(n)))
    assert value == pytest.approx(math.log2(3 ** n - 2 ** n), abs=1e-12)


def test_bayesian_deng_equals_shannon():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(2, 6)
        m = random_bayesian(rng, n)
        p = [mass for _, mass in m.assignments]
        assert abs(deng_entropy(m) - shannon_entropy(p)) <= 1e-12


def test_deng_never_exceeds_the_ceiling():
    rng = random.Random(31337)
    for n in range(2, 7):
        ceiling = math.log2(3 ** n - 2 ** n)
        for _ in range(200):
            m = random_mass_function(rng, n)
            value = deng_entropy(m)
            assert value <= ceiling + 1e-9
            # with this seed no random draw lands on the maximizer itself
            assert value < ceiling - 1e-9
        at_max = deng_entropy(max_deng_mass(FrameOfDiscernment(n)))
        assert abs(at_max - ceiling) <= 1e-9


FAMILIES = (
    (max_deng_mass, max_deng_profile),
    (uniform_powerset_mass, uniform_powerset_profile),
    (vacuous_mass, vacuous_profile),
    (uniform_singleton_mass, uniform_singleton_profile),
)


@pytest.mark.parametrize("n", range(2, 11))
def test_profile_and_enumeration_paths_agree(n):
    frame = FrameOfDiscernment(n)
    for family, profile_builder in FAMILIES:
        m = family(frame)
        # the exact grouping is the built profile, also after the masses
        # have been through a JSON document
        round_tripped = validate_mass_function(frame, [
            (element.members, json.loads(json.dumps(mass)))
            for element, mass in m.assignments
        ])
        assert m.bands == profile_builder(n)
        assert round_tripped.bands == profile_builder(n)
        by_bands = deng_entropy(m.bands)
        element_bands = [
            (len(element.members), mass, 1) for element, mass in m.assignments
        ]
        by_elements = deng_entropy(element_bands)
        assert abs(by_bands - by_elements) <= 1e-12
        assert deng_entropy(m) == by_bands


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=5, max_value=7),
    pool_size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_band_builder_groups_exact_pairs(seed, n, pool_size):
    m = pooled_mass_function(random.Random(seed), n, pool_size)
    bands = m.bands
    assert sum(band.multiplicity for band in bands) == m.focal_count
    pairs = [(band.cardinality, band.mass) for band in bands]
    assert pairs == sorted(set(pairs))
    for band in bands:
        assert band.multiplicity == sum(
            1 for element, mass in m.assignments
            if (len(element.members), mass) == (band.cardinality, band.mass)
        )
