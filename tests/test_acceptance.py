"""Acceptance gate: one test per checklist criterion, in order.

Run with ``pytest -v`` to get one pass/fail line per criterion. Each test
soft-collects every violation it finds and reports them all at once, so a red
line carries the complete list of disputed entries rather than the first one.

Nine printed reference cells are misprints, and the tables keep them verbatim
as the record of what the paper prints. ``T3_ERRATA`` and ``T5_ERRATA`` map
each of them to the value the documented formula gives, to four decimals:

* criterion 3, the two-focal example at orders 3..33: printed 0.5759, 0.2390,
  0.1472, 0.1060, 0.0828, 0.0679; recomputed 0.5054, 0.1702, 0.1014, 0.0722,
  0.0561, 0.0458. The same formula gives the printed orders 1 and 2, and
  ``alpha * D_alpha`` must tend to ``log2(3/0.8) / (0.8 * log2 3)``: the
  recomputed row is within 2% of that limit, the printed row 15-49% off it.
* criterion 5, the uniform-powerset grid: n=4 order 29 prints 0.4462 for
  0.4572 (its row's steps stop shrinking), n=16 order 9 prints 1.0973 for
  1.0937 (a digit transposition above n=18's 1.0960), n=18 order 29 prints
  1.0264 for 1.0274 (below n=16's 1.0266).

Each erratum is re-verified on every run: the fast value agrees with the
extended-precision oracle, the corrected value is within ``GRID_TOLERANCE``
of it, and the printed value is not. The tolerance is the same for every
cell, erratum or not.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import log2

from conftest import (
    max_deng_exact,
    oracle_terms,
    random_bayesian,
    random_mass_function,
    uniform_powerset_exact,
)
from massfractal.core import (
    FrameOfDiscernment,
    max_deng_profile,
    uniform_powerset_profile,
    uniform_singleton_profile,
    vacuous_profile,
    validate_mass_function,
)
from massfractal.entropy import (
    deng_entropy,
    renyi_information_dimension,
)
from massfractal.multifractal import (
    multifractal_dimension,
    quadratic_envelope,
    spectrum,
)
from massfractal.oracle import oracle_deng_entropy, oracle_dimension

GRID_TOLERANCE = 5e-4

# printed coordinate grids, one row per frame size, indexed by cardinality
T1_Y = {
    2: (1.4650, 0.4650),
    3: (1.5131, 0.9486, 0.5131),
    4: (1.5415, 1.1358, 0.8229, 0.5415),
    5: (1.5585, 1.2386, 0.9918, 0.7699, 0.5585),
    6: (1.5688, 1.3036, 1.0991, 0.9152, 0.7400, 0.5688),
}
T2_F = {
    2: (0.6309, 0.0),
    3: (0.5646, 0.5646, 0.0),
    4: (0.5119, 0.6616, 0.5119, 0.0),
    5: (0.4687, 0.6705, 0.6705, 0.4687, 0.0),
    6: (0.4325, 0.6536, 0.7231, 0.6536, 0.4325, 0.0),
}

# printed dimension grid for the two-focal example at orders 3..33 step 6
T3_ORDERS = (3, 9, 15, 21, 27, 33)
T3_PRINTED = (0.5759, 0.2390, 0.1472, 0.1060, 0.0828, 0.0679)
# misprinted cells by order: (printed, corrected); the whole high-order row
T3_ERRATA = {
    3: (0.5759, 0.5054),
    9: (0.2390, 0.1702),
    15: (0.1472, 0.1014),
    21: (0.1060, 0.0722),
    27: (0.0828, 0.0561),
    33: (0.0679, 0.0458),
}
# alpha * D_alpha of the two-focal example tends to this as the order grows
T3_SCALED_LIMIT = log2(3 / 0.8) / (0.8 * log2(3))
T3_LIMIT_SHARE = 0.02

T4_ORDERS = (1, 4, 7, 10, 13, 16, 19)

# printed uniform-powerset grid: rows over even frame sizes, orders 1..29 step 4
T5_ORDERS = (1, 5, 9, 13, 17, 21, 25, 29)
T5_PRINTED = {
    2: (1.1850, 0.5682, 0.3413, 0.2370, 0.1804, 0.1455, 0.1218, 0.1048),
    4: (1.3811, 0.9707, 0.8180, 0.7146, 0.6321, 0.5637, 0.5061, 0.4462),
    6: (1.4520, 1.0988, 1.0023, 0.9518, 0.9138, 0.8814, 0.8521, 0.8251),
    8: (1.4798, 1.1433, 1.0599, 1.0265, 1.0062, 0.9911, 0.9787, 0.9679),
    10: (1.4911, 1.1620, 1.0788, 1.0491, 1.0333, 1.0230, 1.0156, 1.0097),
    12: (1.4959, 1.1724, 1.0865, 1.0568, 1.0417, 1.0324, 1.0261, 1.0215),
    14: (1.4981, 1.1795, 1.0907, 1.0603, 1.0450, 1.0357, 1.0296, 1.0251),
    16: (1.4991, 1.1851, 1.0973, 1.0624, 1.0467, 1.0373, 1.0311, 1.0266),
    18: (1.4995, 1.1897, 1.0960, 1.0640, 1.0480, 1.0384, 1.0320, 1.0264),
    20: (1.4998, 1.1935, 1.0980, 1.0653, 1.0490, 1.0392, 1.0327, 1.0280),
}
# misprinted cells by (frame size, order): (printed, corrected)
T5_ERRATA = {
    (4, 29): (0.4462, 0.4572),
    (16, 9): (1.0973, 1.0937),
    (18, 29): (1.0264, 1.0274),
}

# printed max-Deng grid: rows over even frame sizes, orders 1..19 step 3
T6_ORDERS = (1, 4, 7, 10, 13, 16, 19)
T6_PRINTED = {
    2: (1.1752, 0.5809, 0.3473, 0.2441, 0.1878, 0.1526, 0.1285),
    4: (1.4699, 1.1962, 0.8893, 0.6589, 0.5124, 0.4172, 0.3515),
    6: (1.5516, 1.4904, 1.4065, 1.2899, 1.1437, 0.9919, 0.8575),
    8: (1.5747, 1.5611, 1.5457, 1.5275, 1.5052, 1.4770, 1.4406),
    10: (1.5816, 1.5784, 1.5750, 1.5715, 1.5677, 1.5637, 1.5593),
    12: (1.5838, 1.5830, 1.5822, 1.5814, 1.5806, 1.5797, 1.5789),
    14: (1.5846, 1.5844, 1.5842, 1.5840, 1.5838, 1.5836, 1.5834),
    16: (1.5848, 1.5848, 1.5847, 1.5847, 1.5846, 1.5846, 1.5845),
    18: (1.5849, 1.5849, 1.5849, 1.5849, 1.5849, 1.5848, 1.5848),
    20: (1.5849, 1.5849, 1.5849, 1.5849, 1.5849, 1.5849, 1.5849),
}

TWO_FOCAL_RAW = (((0,), 0.2), ((1, 2), 0.8))
TWO_FOCAL_EXACT = ((1, Fraction(1, 5), 1), (2, Fraction(4, 5), 1))

BAYESIAN_SEED = 7001
LIMIT_SEED = 20607


def two_focal_mass():
    return validate_mass_function(FrameOfDiscernment(3), TWO_FOCAL_RAW)


def seeded_bayesian_sample():
    rng = random.Random(BAYESIAN_SEED)
    return [random_bayesian(rng, rng.randint(2, 6)) for _ in range(50)]


def cell_problems(label, value, printed, erratum, exact, alpha):
    """Compare one computed cell with its printed reference.

    An erratum cell, given as ``(printed, corrected)``, is compared with its
    corrected value instead and re-verified against the oracle: the fast value
    must agree with it to 1e-10, the corrected value must be within
    ``GRID_TOLERANCE`` of it, and the printed value must not be.
    """
    if erratum is None:
        if abs(value - printed) > GRID_TOLERANCE:
            return [f"{label}: computed {value:.6f}, reference {printed}"]
        return []
    misprint, corrected = erratum
    problems = []
    if misprint != printed:
        problems.append(f"{label}: erratum records {misprint}, table prints {printed}")
    if abs(value - corrected) > GRID_TOLERANCE:
        problems.append(f"{label}: computed {value:.6f}, corrected reference {corrected}")
    confirmed = oracle_dimension(exact, alpha)
    if abs(value - confirmed) > 1e-10:
        problems.append(f"{label}: fast {value!r} vs oracle {confirmed!r}")
    if abs(corrected - confirmed) > GRID_TOLERANCE:
        problems.append(f"{label}: corrected {corrected}, oracle {confirmed:.6f}")
    if abs(printed - confirmed) <= GRID_TOLERANCE:
        problems.append(f"{label}: printed {printed} agrees with oracle "
                        f"{confirmed:.6f}, so it is no erratum")
    return problems


def trend_breaks(grid):
    """Where a uniform-powerset grid breaks the trends the dimension follows.

    ``grid`` maps each frame size to its row over ``T5_ORDERS``. Each row
    must fall strictly with the order, by steps that strictly shrink in size,
    and each column must rise strictly with the frame size. Every failing
    comparison is returned as the set of ``(n, order)`` cells it involves.
    """
    breaks = []
    sizes = sorted(grid)
    for n in sizes:
        row = grid[n]
        cells = [(n, alpha) for alpha in T5_ORDERS]
        steps = [later - earlier for earlier, later in zip(row, row[1:])]
        for i, step in enumerate(steps):
            if not step < 0:
                breaks.append(set(cells[i:i + 2]))
        for i, (step, next_step) in enumerate(zip(steps, steps[1:])):
            if not abs(next_step) < abs(step):
                breaks.append(set(cells[i:i + 3]))
    for j, alpha in enumerate(T5_ORDERS):
        for smaller, larger in zip(sizes, sizes[1:]):
            if not grid[smaller][j] < grid[larger][j]:
                breaks.append({(smaller, alpha), (larger, alpha)})
    return breaks


def test_criterion_01_max_deng_spectrum_points():
    started = time.perf_counter()
    points = spectrum(max_deng_profile(3)).points
    elapsed = time.perf_counter() - started
    expected = ((0.5131, 0.0), (0.9486, 0.5646), (1.5131, 0.5646))
    problems = []
    if len(points) != 3:
        problems.append(f"expected 3 spectrum points, got {len(points)}")
    for point, (want_y, want_f) in zip(points, expected):
        if abs(point.y - want_y) > GRID_TOLERANCE:
            problems.append(f"y at cardinality {point.representative_cardinality}: "
                            f"computed {point.y:.6f}, reference {want_y}")
        if abs(point.f - want_f) > GRID_TOLERANCE:
            problems.append(f"f at cardinality {point.representative_cardinality}: "
                            f"computed {point.f:.6f}, reference {want_f}")
    assert not problems, "\n".join(problems)
    assert elapsed < 1.0, f"spectrum took {elapsed:.3f}s, budget 1s"


def test_criterion_02_coordinate_tables_reproduce():
    started = time.perf_counter()
    problems = []
    for n in range(2, 7):
        points = spectrum(max_deng_profile(n)).points
        by_cardinality = {p.representative_cardinality: p for p in points}
        for k in range(1, n + 1):
            point = by_cardinality[k]
            want_y = T1_Y[n][k - 1]
            want_f = T2_F[n][k - 1]
            if abs(point.y - want_y) > GRID_TOLERANCE:
                problems.append(f"y(n={n}, card={k}): computed {point.y:.6f}, "
                                f"reference {want_y}")
            if abs(point.f - want_f) > GRID_TOLERANCE:
                problems.append(f"f(n={n}, card={k}): computed {point.f:.6f}, "
                                f"reference {want_f}")
    elapsed = time.perf_counter() - started
    assert not problems, "\n".join(problems)
    assert elapsed < 1.0, f"grids took {elapsed:.3f}s, budget 1s"


def test_criterion_03_two_focal_dimension_values():
    m = two_focal_mass()
    problems = []
    d1 = multifractal_dimension(m, 1.0).value
    if abs(d1 - 1.1249) > GRID_TOLERANCE:
        problems.append(f"order 1: computed {d1:.6f}, reference 1.1249")
    d2 = multifractal_dimension(m, 2.0).value
    if abs(d2 - 0.7163) > GRID_TOLERANCE:
        problems.append(f"order 2: computed {d2:.6f}, reference 0.7163")
    if not T3_ERRATA.keys() <= set(T3_ORDERS):
        problems.append(f"errata at orders outside the table: {sorted(T3_ERRATA)}")
    for alpha, printed in zip(T3_ORDERS, T3_PRINTED):
        value = multifractal_dimension(m, float(alpha)).value
        erratum = T3_ERRATA.get(alpha)
        problems += cell_problems(f"order {alpha}", value, printed, erratum,
                                  TWO_FOCAL_EXACT, alpha)
        # evidence for the errata: the computed row approaches the large-order
        # limit of alpha * D_alpha, the printed row does not
        scaled = alpha * value
        if abs(scaled / T3_SCALED_LIMIT - 1) > T3_LIMIT_SHARE:
            problems.append(f"order {alpha}: alpha * D_alpha = {scaled:.4f}, "
                            f"not within {T3_LIMIT_SHARE:.0%} of the limit "
                            f"{T3_SCALED_LIMIT:.4f}")
        if erratum and abs(alpha * printed / T3_SCALED_LIMIT - 1) <= T3_LIMIT_SHARE:
            problems.append(f"order {alpha}: printed {printed} is consistent with "
                            f"the limit {T3_SCALED_LIMIT:.4f}, so it is no erratum")
    assert not problems, "\n".join(problems)


def test_criterion_04_vacuous_reciprocal_law():
    problems = []
    for alpha in T4_ORDERS:
        values = set()
        for n in range(2, 21):
            value = multifractal_dimension(vacuous_profile(n), float(alpha)).value
            values.add(value)
            if abs(value - 1.0 / alpha) > 1e-12:
                problems.append(f"n={n}, order {alpha}: computed {value!r}, "
                                f"expected {1.0 / alpha!r}")
        if len(values) != 1:
            problems.append(f"order {alpha}: value depends on frame size, "
                            f"saw {sorted(values)!r}")
    assert not problems, "\n".join(problems)


def test_criterion_05_uniform_powerset_table():
    started = time.perf_counter()
    problems = []
    computed = {}
    for n, printed_row in T5_PRINTED.items():
        profile = uniform_powerset_profile(n)
        exact = uniform_powerset_exact(n)
        computed[n] = [multifractal_dimension(profile, float(alpha)).value
                       for alpha in T5_ORDERS]
        for alpha, value, printed in zip(T5_ORDERS, computed[n], printed_row):
            problems += cell_problems(f"n={n}, order {alpha}", value, printed,
                                      T5_ERRATA.get((n, alpha)), exact, alpha)
    elapsed = time.perf_counter() - started

    # evidence for the errata: the computed grid follows every trend, and the
    # printed grid breaks them only where an erratum is involved
    for involved in trend_breaks(computed):
        problems.append(f"computed grid breaks a trend at {sorted(involved)}")
    printed_breaks = trend_breaks(T5_PRINTED)
    for involved in printed_breaks:
        if not involved & T5_ERRATA.keys():
            problems.append(f"printed grid breaks a trend at {sorted(involved)}, "
                            "away from every erratum")
    unexplained = T5_ERRATA.keys() - set().union(*printed_breaks)
    if unexplained:
        problems.append(f"errata that break no trend: {sorted(unexplained)}")
    assert not problems, "\n".join(problems)
    assert elapsed < 10.0, f"grid took {elapsed:.3f}s, budget 10s"


def test_criterion_06_max_deng_table():
    problems = []
    for n, printed_row in T6_PRINTED.items():
        profile = max_deng_profile(n)
        for alpha, printed in zip(T6_ORDERS, printed_row):
            value = multifractal_dimension(profile, float(alpha)).value
            if abs(value - printed) > GRID_TOLERANCE:
                problems.append(f"n={n}, order {alpha}: computed {value:.6f}, "
                                f"reference {printed}")
    # the largest row should have flattened onto the limiting constant
    top_row = [
        multifractal_dimension(max_deng_profile(20), float(alpha)).value
        for alpha in T6_ORDERS
    ]
    if any(abs(value - 1.5849) > GRID_TOLERANCE for value in top_row):
        problems.append(f"n=20 row is not constant 1.5849: {top_row!r}")
    assert not problems, "\n".join(problems)


def test_criterion_07_bayesian_degeneracy():
    problems = []
    for index, m in enumerate(seeded_bayesian_sample()):
        p = [mass for _, mass in m.assignments]
        for alpha in (0.5, 2.0, 3.0, 7.0):
            left = multifractal_dimension(m, alpha).value
            right = renyi_information_dimension(p, alpha)
            if abs(left - right) > 1e-10:
                problems.append(f"sample {index}, order {alpha}: dimension {left!r} "
                                f"vs information dimension {right!r}")
    assert not problems, "\n".join(problems)


def test_criterion_08_uniform_singleton_fixed_point():
    problems = []
    for n in range(2, 51):
        profile = uniform_singleton_profile(n)
        for alpha in (0.5, 1.0, 2.0, 10.0):
            value = multifractal_dimension(profile, alpha).value
            if abs(value - 1.0) > 1e-12:
                problems.append(f"n={n}, order {alpha}: computed {value!r}")
    assert not problems, "\n".join(problems)


def test_criterion_09_spectrum_fixed_points():
    started = time.perf_counter()
    problems = []
    for n in range(2, 26):
        flat = spectrum(uniform_powerset_profile(n)).points
        if len(flat) != 1:
            problems.append(f"uniform powerset n={n}: {len(flat)} points")
        else:
            point = flat[0]
            if point.f != 1.0:
                problems.append(f"uniform powerset n={n}: f={point.f!r}")
            if abs(point.y - 1.0) > 1e-12:
                problems.append(f"uniform powerset n={n}: y={point.y!r}")
        ignorant = spectrum(vacuous_profile(n)).points
        if len(ignorant) != 1:
            problems.append(f"vacuous n={n}: {len(ignorant)} points")
        elif (ignorant[0].y, ignorant[0].f) != (0.0, 0.0):
            problems.append(f"vacuous n={n}: point "
                            f"({ignorant[0].y!r}, {ignorant[0].f!r})")
    elapsed = time.perf_counter() - started
    assert not problems, "\n".join(problems)
    assert elapsed < 5.0, f"fixed points took {elapsed:.3f}s, budget 5s"


def test_criterion_10_oracle_equivalence():
    problems = []

    def check(label, fast, slow):
        if abs(fast - slow) > 1e-10:
            problems.append(f"{label}: fast {fast!r} vs oracle {slow!r}")

    for n in (2, 3, 4, 5, 6, 8, 10, 12):
        profile = max_deng_profile(n)
        exact = max_deng_exact(n)
        check(f"deng max-deng n={n}",
              deng_entropy(profile), oracle_deng_entropy(exact))
        for alpha in T6_ORDERS:
            check(f"dimension max-deng n={n} order {alpha}",
                  multifractal_dimension(profile, float(alpha)).value,
                  oracle_dimension(exact, alpha))

    for n in (2, 4, 6, 8, 10, 12):
        profile = uniform_powerset_profile(n)
        exact = uniform_powerset_exact(n)
        check(f"deng uniform-powerset n={n}",
              deng_entropy(profile), oracle_deng_entropy(exact))
        for alpha in T5_ORDERS:
            check(f"dimension uniform-powerset n={n} order {alpha}",
                  multifractal_dimension(profile, float(alpha)).value,
                  oracle_dimension(exact, alpha))

    for n in range(2, 13):
        profile = vacuous_profile(n)
        exact = [(n, Fraction(1), 1)]
        check(f"deng vacuous n={n}",
              deng_entropy(profile), oracle_deng_entropy(exact))
        for alpha in T4_ORDERS:
            check(f"dimension vacuous n={n} order {alpha}",
                  multifractal_dimension(profile, float(alpha)).value,
                  oracle_dimension(exact, alpha))
        singleton_profile = uniform_singleton_profile(n)
        singleton_exact = [(1, Fraction(1, n), n)]
        check(f"deng uniform-singleton n={n}",
              deng_entropy(singleton_profile),
              oracle_deng_entropy(singleton_exact))
        for alpha in (0.5, 1.0, 2.0, 10.0):
            check(f"dimension uniform-singleton n={n} order {alpha}",
                  multifractal_dimension(singleton_profile, alpha).value,
                  oracle_dimension(singleton_exact, Fraction(alpha)))

    m = two_focal_mass()
    check("deng two-focal", deng_entropy(m), oracle_deng_entropy(TWO_FOCAL_EXACT))
    for alpha in (1, 2) + T3_ORDERS:
        check(f"dimension two-focal order {alpha}",
              multifractal_dimension(m, float(alpha)).value,
              oracle_dimension(TWO_FOCAL_EXACT, alpha))

    for index, m in enumerate(seeded_bayesian_sample()):
        terms = oracle_terms(m)
        check(f"deng bayesian sample {index}",
              deng_entropy(m), oracle_deng_entropy(terms))
        for alpha in (0.5, 2.0, 3.0, 7.0):
            check(f"dimension bayesian sample {index} order {alpha}",
                  multifractal_dimension(m, alpha).value,
                  oracle_dimension(terms, Fraction(alpha)))

    assert not problems, "\n".join(problems)


def test_criterion_11_limit_branch_consistency():
    rng = random.Random(LIMIT_SEED)
    problems = []
    for index in range(20):
        m = random_mass_function(rng, rng.randint(2, 6))
        center = multifractal_dimension(m, 1.0).value
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            nearby = multifractal_dimension(m, alpha).value
            if abs(nearby - center) > 1e-3:
                problems.append(f"sample {index}: order {alpha} gives {nearby!r}, "
                                f"limit gives {center!r}")
    assert not problems, "\n".join(problems)


def test_criterion_12_envelope_sanity():
    envelope = quadratic_envelope(6)
    problems = []
    apex = envelope.evaluate(1.085)
    if abs(apex - 0.7231) >= 0.05:
        problems.append(f"apex F(1.085) = {apex!r}, reference 0.7231")
    if envelope.root_low != 0.585 or envelope.root_high != 1.585:
        problems.append(f"roots ({envelope.root_low!r}, {envelope.root_high!r})")
    if envelope.evaluate(0.585) != 0.0 or envelope.evaluate(1.585) != 0.0:
        problems.append("envelope does not vanish exactly at its roots")
    assert not problems, "\n".join(problems)
