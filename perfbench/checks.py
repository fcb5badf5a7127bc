"""Correctness checks for everything the benchmark times.

Nothing here runs inside a timed region.  Three kinds of check:

* ``Reference``: an independent double-precision evaluation of D_alpha and
  of the spectrum, from the input as the benchmark generated it (explicit
  masses, or the exact family definition for a profile).  Every timed output
  is compared against it.  Orders within ``NEAR_ONE`` of 1 are compared
  with ``NEAR_ONE_TOLERANCE``, all others with ``TOLERANCE``: the fast
  numerator cancels near alpha = 1 (measured errors up to ~1e-5), and the
  gate is there to catch wrong answers, while the oracle sample below
  measures precision.
* The 120-bit oracle (``massfractal.oracle.oracle_dimension``) on a
  seed-chosen sample of (input, order) cells with exact rational masses; a
  cell farther than ``ORACLE_TOLERANCE`` (relative) from the oracle is a
  miss.  Misses are counted, not fatal, and each cell's agreement is also
  kept as a number of correct decimal digits.
* CLI outputs: every row equal to the in-process library value for the
  same input, and table CSVs byte-identical to golden copies.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction

ORDERS = (
    -2.0, 0.0, 0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-11, 1 + 1e-9,
    1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 29.0, 100.0,
)
NEAR_ONE_ORDERS = tuple(a for a in ORDERS if a != 1.0 and abs(a - 1.0) < 1e-3)

NEAR_ONE = 1e-3
TOLERANCE = 1e-9
NEAR_ONE_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-12
SPECTRUM_TOLERANCE = 1e-12
# Agreement with the oracle is reported in decimal digits, capped at what a
# double can carry.
MAX_DIGITS = 16.0

# Per-order errors the library documents for degenerate inputs.
DOCUMENTED_ORDER_ERRORS = ("ZeroDenominator", "DegenerateFrame")

LN2 = math.log(2.0)


class CheckFailed(AssertionError):
    """A timed output disagrees with its check."""


def _close(got: float, want: float, tolerance: float) -> bool:
    return abs(got - want) <= tolerance * max(1.0, abs(want))


def _log2_sum(exponents: list[float]) -> float:
    top = max(exponents)
    return top + math.log2(math.fsum(2.0 ** (e - top) for e in exponents))


class Reference:
    """An input as exact (cardinality, mass, multiplicity) terms.

    The oracle reads ``exact`` as it is; the double-precision fields are
    derived from it through log2, so profiles whose masses lie beyond the
    double range still have a reference.  ``explicit`` marks inputs the
    program receives as focal elements rather than as profile bands.
    """

    def __init__(self, n: int, terms: list[tuple[int, Fraction, int]], explicit: bool):
        self.n = n
        self.exact = terms
        self.explicit = explicit
        self.cards = [c for c, _, _ in terms]
        self.log_mass = [_log2_fraction(m) for _, m, _ in terms]
        self.mult = [k for _, _, k in terms]
        self.log_weight = [math.log2(2 ** c - 1) for c in self.cards]
        self.log_mult = [math.log2(k) for k in self.mult]
        self.mass = [2.0 ** lm for lm in self.log_mass]
        q = [2.0 ** (lk + lm) for lk, lm in zip(self.log_mult, self.log_mass)]
        total = math.fsum(q)
        self.share = [x / total for x in q]
        self.gap = [lm - lw for lm, lw in zip(self.log_mass, self.log_weight)]

    @classmethod
    def from_masses(cls, n: int, cards_and_masses) -> "Reference":
        """Explicit focal elements, grouped exactly on (cardinality, mass)."""
        grouped = Counter((c, Fraction(m)) for c, m in cards_and_masses)
        return cls(n, [(c, m, k) for (c, m), k in sorted(grouped.items())], explicit=True)

    def dimension(self, alpha: float) -> float | None:
        """D_alpha, or None where the denominator vanishes."""
        if len(self.cards) == 1 and self.mult[0] == 1:
            # lone focal element of mass one: D = 1/alpha
            if self.log_weight[0] == 0.0 or alpha == 0.0:
                return None
            return 1.0 / alpha
        den = _log2_sum([alpha * m * lw + lk for m, lw, lk
                         in zip(self.mass, self.log_weight, self.log_mult)])
        if den == 0.0:
            return None
        x = alpha - 1.0
        if x == 0.0:
            num = -math.fsum(q * t for q, t in zip(self.share, self.gap))
        elif abs(x) * max(abs(t) for t in self.gap) <= 1.0:
            s = math.fsum(q * math.expm1(x * t * LN2) for q, t in zip(self.share, self.gap))
            num = -math.log1p(s) / (x * LN2)
        else:
            num = _log2_sum([alpha * t + lw + lk for t, lw, lk
                             in zip(self.gap, self.log_weight, self.log_mult)]) / (1.0 - alpha)
        return num / den

    def spectrum(self) -> list[tuple[float, float, int, int | None]]:
        """(y, f, multiplicity, representative cardinality), ascending y."""
        groups: dict[Fraction, list[tuple[int, int]]] = {}
        for (c, m, k) in self.exact:
            groups.setdefault(m, []).append((c, k))
        scale = math.log2(2 ** self.n - 1)
        points = []
        for m, members in groups.items():
            count = sum(k for _, k in members)
            cards = {c for c, _ in members}
            points.append((-_log2_fraction(m) / scale, math.log2(count) / scale,
                           count, cards.pop() if len(cards) == 1 else None))
        points.sort()
        return points

    def properties(self) -> dict:
        """Measured input properties: items the program receives, the
        distinct (cardinality, mass) pairs among them, distinct masses, and
        the share of items whose pair repeats."""
        items = sum(self.mult) if self.explicit else len(self.exact)
        repeated = sum(k for k in self.mult if k > 1) if self.explicit else 0
        return {
            "items": items,
            "distinct_pairs": len(self.exact),
            "distinct_masses": len({m for _, m, _ in self.exact}),
            "repeat_share": repeated / items,
        }


def _log2_fraction(value: Fraction) -> float:
    return math.log2(value.numerator) - math.log2(value.denominator)


def family_reference(family: str, n: int) -> Reference:
    """Exact bands of a built-in family, from its definition."""
    if family == "max_deng":
        total = 3 ** n - 2 ** n
        terms = [(k, Fraction(2 ** k - 1, total), math.comb(n, k)) for k in range(1, n + 1)]
    elif family == "uniform_powerset":
        terms = [(k, Fraction(1, 2 ** n - 1), math.comb(n, k)) for k in range(1, n + 1)]
    elif family == "vacuous":
        terms = [(n, Fraction(1), 1)]
    elif family == "uniform_singleton":
        terms = [(1, Fraction(1, n), n)]
    else:
        raise ValueError(family)
    return Reference(n, terms, explicit=False)


def check_sweep(ref: Reference, entries, orders=ORDERS) -> None:
    """Compare one sweep with the reference, order by order."""
    if len(entries) != len(orders):
        raise CheckFailed(f"sweep returned {len(entries)} entries for {len(orders)} orders")
    for alpha, entry in zip(orders, entries):
        if entry.alpha != alpha:
            raise CheckFailed(f"sweep entry for {entry.alpha!r} where {alpha!r} was asked")
        want = ref.dimension(alpha)
        if entry.result is None:
            if want is not None or entry.error not in DOCUMENTED_ORDER_ERRORS:
                raise CheckFailed(f"order {alpha!r}: error {entry.error!r}, reference {want!r}")
            continue
        got = entry.result.value
        tolerance = NEAR_ONE_TOLERANCE if abs(alpha - 1.0) < NEAR_ONE else TOLERANCE
        if want is None or not math.isfinite(got) or not _close(got, want, tolerance):
            raise CheckFailed(f"order {alpha!r}: D = {got!r}, reference {want!r}")


def check_spectrum(ref: Reference, spectrum) -> None:
    want = ref.spectrum()
    got = sorted((p.y, p.f, p.multiplicity, p.representative_cardinality)
                 for p in spectrum.points)
    if len(got) != len(want):
        raise CheckFailed(f"spectrum has {len(got)} points, reference {len(want)}")
    for g, w in zip(got, want):
        if (g[2:] != w[2:] or not _close(g[0], w[0], SPECTRUM_TOLERANCE)
                or not _close(g[1], w[1], SPECTRUM_TOLERANCE)):
            raise CheckFailed(f"spectrum point {g} differs from reference {w}")


class OracleSample:
    """Cells (input, order, fast value) held until the timed loop ends."""

    def __init__(self):
        self.cells: list[tuple[str, Reference, float, float]] = []

    def add(self, label: str, ref: Reference, alpha: float, value: float) -> None:
        self.cells.append((label, ref, alpha, value))

    def run(self, oracle_dimension) -> dict:
        misses, digits = [], []
        for label, ref, alpha, value in self.cells:
            want = oracle_dimension(ref.exact, alpha)
            error = abs(value - want) / abs(want)
            digits.append(min(MAX_DIGITS, -math.log10(error)) if error else MAX_DIGITS)
            if not error <= ORACLE_TOLERANCE:
                misses.append({"input": label, "alpha": alpha, "rel_error": error})
        return {"checked": len(self.cells), "misses": len(misses), "missed": misses,
                "digits": math.fsum(digits) / len(digits) if digits else 0.0}


def pick_orders(rng, available, extra: int = 2) -> list[float]:
    """The four near-1 orders plus ``extra`` seed-chosen others, among the
    orders in ``available`` (those that produced a value)."""
    others = [a for a in ORDERS if a in available and a not in NEAR_ONE_ORDERS]
    return [a for a in NEAR_ONE_ORDERS if a in available] + rng.sample(others, extra)


# --- CLI outputs ---

def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_dimension_rows(text: str, expected_entries) -> list[dict]:
    """CLI dimension/sweep rows against in-process sweep entries."""
    rows = csv_rows(text)
    if len(rows) != len(expected_entries):
        raise CheckFailed(f"{len(rows)} rows where {len(expected_entries)} were expected")
    for row, entry in zip(rows, expected_entries):
        if float(row["alpha"]) != entry.alpha:
            raise CheckFailed(f"row alpha {row['alpha']} != {entry.alpha!r}")
        if entry.result is None:
            if row["D_alpha"] != "" or row["note"] != entry.error:
                raise CheckFailed(f"row {row} should carry error {entry.error}")
            continue
        r = entry.result
        got = (float(row["D_alpha"]), float(row["numerator_bits"]), float(row["denominator_bits"]))
        if got != (r.value, r.numerator_bits, r.denominator_bits):
            raise CheckFailed(f"row {row} != library {r}")
    return rows


def check_spectrum_rows(text: str, spectrum) -> None:
    rows = csv_rows(text)
    if len(rows) != len(spectrum.points):
        raise CheckFailed(f"{len(rows)} spectrum rows, library has {len(spectrum.points)}")
    for row, p in zip(rows, spectrum.points):
        card = "" if p.representative_cardinality is None else str(p.representative_cardinality)
        got = (float(row["y"]), float(row["f"]), float(row["mass_value"]),
               int(row["multiplicity"]), row["representative_cardinality"])
        if got != (p.y, p.f, p.mass_value, p.multiplicity, card):
            raise CheckFailed(f"spectrum row {row} != library {p}")


def check_family_document(data: bytes, mass_function) -> None:
    document = json.loads(data)
    labels = [f"h{i + 1}" for i in range(mass_function.frame.size)]
    if document["frame"] != labels:
        raise CheckFailed("family frame labels differ from the library frame")
    want = [([labels[i] for i in element.members], mass)
            for element, mass in mass_function.assignments]
    got = [(a["subset"], a["mass"]) for a in document["assignments"]]
    if got != want:
        raise CheckFailed("family assignments differ from the library mass function")


def load_raw(path) -> tuple[int, list[tuple[tuple[int, ...], float]]]:
    """A mass-function JSON file as (frame size, raw pairs) for the library."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    index = {label: i for i, label in enumerate(document["frame"])}
    raw = [(tuple(index[label] for label in a["subset"]), a["mass"])
           for a in document["assignments"]]
    return len(index), raw
