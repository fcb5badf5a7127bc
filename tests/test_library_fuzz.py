"""Property tests of the library's entry points on generated input.

Frame sizes and labels, probabilities and orders are drawn from ints,
bools, strings, ``None``, NaN, the infinities and reals in [-1000, 1000].
Every call must end in one of two ways: a finite float (or a well-formed
value holding only finite floats), or a :class:`MassFractalError`
subclass.  A bare ``TypeError``, a ``nan`` or an ``inf`` fails.  Agreement
with the oracle is checked in ``test_multifractal.py`` and
``test_oracle.py``.
"""

from __future__ import annotations

import math
import random

from hypothesis import example, given, settings, strategies as st

from conftest import pooled_mass_function, random_bayesian, random_mass_function
from massfractal.core import (
    FrameOfDiscernment,
    max_deng_mass,
    validate_mass_function,
    vacuous_mass,
)
from massfractal.entropy import (
    ProbabilityDistribution,
    renyi_entropy,
    renyi_information_dimension,
)
from massfractal.errors import MassFractalError
from massfractal.multifractal import dimension_sweep, multifractal_dimension

FUZZ = settings(max_examples=200, deadline=None)

# a size, an order or a probability as a caller might pass one
VALUE = st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1000.0, 1000.0),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400]),
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


# a distribution from positive weights, which validates, or entries as drawn
PROBABILITIES = st.one_of(
    st.lists(st.integers(1, 1000), min_size=1, max_size=6).map(
        lambda weights: [w / sum(weights) for w in weights]),
    st.lists(st.one_of(VALUE, st.floats(0.0, 1.0)), max_size=4),
)


@FUZZ
@given(probs=PROBABILITIES, alpha=VALUE)
@example(probs=[0.2, 0.8], alpha=math.nan)
@example(probs=[0.2, 0.8], alpha=math.inf)
@example(probs=[1.0], alpha=math.inf)
@example(probs=[0.2, 0.8], alpha=-math.inf)
def test_renyi_is_finite_or_refused(probs, alpha):
    try:
        p = ProbabilityDistribution(probs)
    except MassFractalError:
        return
    for quantity in (renyi_entropy, renyi_information_dimension):
        try:
            value = quantity(p, alpha)
        except MassFractalError:
            continue
        assert finite(value), (quantity.__name__, probs, alpha, value)


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


@FUZZ
@given(m=MASS_FUNCTIONS, alphas=st.lists(VALUE, max_size=4))
@example(m=_mass_function(5, 0), alphas=[math.nan, math.inf, -math.inf, -1000, 1000])
def test_dimension_is_finite_or_refused(m, alphas):
    for alpha in alphas:
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
