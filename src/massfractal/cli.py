"""Command-line front end.

Load a mass function from a JSON file or generate one of the built-in
families, then compute spectra, dimensions, sweeps, reference tables, or the
quadratic envelope, emitting CSV (default), JSON, or a static SVG figure.

Usage sketches:

    massfractal spectrum --family max-deng --n 3
    massfractal spectrum --input masses.json --format svg --output fig.svg
    massfractal dimension --input example.json --alpha -2,1,2,3
    massfractal sweep --family uniform-powerset --n 10 --alpha-start 1 --alpha-stop 29 --alpha-step 4
    massfractal table T5 --output table5.csv
    massfractal family --family max-deng --n 4 --emit masses.json
    massfractal envelope --n 6 --samples 101

Figures that overlay several frame sizes are composed by looping in the
shell, one file per frame size:

    for n in 2 3 4 5 6; do
        massfractal spectrum --family max-deng --n $n --output "spectrum_n$n.csv"
    done

Exit codes: 0 success, 2 input or parse error, 3 mathematical degeneracy,
4 unknown command or table.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import json
import math
import os
import sys

from .core import (
    FrameOfDiscernment,
    MassFunction,
    SUM_TOLERANCE,
    _check_explicit_size,
    _validated,
    max_deng_profile,
    uniform_powerset_profile,
    uniform_singleton_profile,
    vacuous_profile,
)
from .errors import (
    DegenerateFrame,
    GridTooLarge,
    MassFractalError,
    OrderOutOfRange,
    UnknownTable,
    ZeroDenominator,
)
from .multifractal import (
    GROUPING_TOLERANCE,
    SpectrumPoint,
    asymptotic_anchor_points,
    dimension_sweep,
    quadratic_envelope,
    spectrum,
)

_FAMILY_PROFILE = {
    "max-deng": max_deng_profile,
    "uniform-powerset": uniform_powerset_profile,
    "vacuous": vacuous_profile,
    "uniform-singleton": uniform_singleton_profile,
}

FAMILIES = tuple(_FAMILY_PROFILE)

TABLE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6")

OUTPUT_DIR_ENV = "MASSFRACTAL_OUTPUT_DIR"

_MATH_ERRORS = (ZeroDenominator, DegenerateFrame, OrderOutOfRange)

# A sweep's order grid and the envelope's samples are refused beyond this
# many points, before any of them is built.
GRID_CAP = 1_000_000

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_UNKNOWN = 4


# --- input resolution ---

def _label_masks(assignments: list, bit_of: dict[str, int]):
    """Each assignment as ``(mask, mass)``, its labels ORed from ``bit_of``,
    so a repeated label counts once.  The document's own faults are
    ValueErrors: a malformed entry, a label outside the frame (also on a
    zero mass) and a mass that is not a JSON number."""
    for entry in assignments:
        try:
            subset, mass = entry["subset"], entry["mass"]
        except (KeyError, TypeError):  # a key is missing, or the entry is no object
            subset = None
        if type(subset) is not list:
            raise ValueError("each assignment needs a 'subset' list of labels and a 'mass'")
        mask = 0
        try:
            # the keys are strings, so any other label is a KeyError, or a
            # TypeError when unhashable
            for label in subset:
                mask |= bit_of[label]
        except (KeyError, TypeError):
            label = next(label for label in subset if not isinstance(label, str) or label not in bit_of)
            raise ValueError(f"subset label {label!r} is not in the frame") from None
        if type(mass) is not float:
            raise ValueError(f"mass {mass!r} is not a JSON number")
        yield mask, mass


def _load_mass_function(path: str, sum_tolerance: float) -> MassFunction:
    """One pass from the file's labels to checked masks.  The collector is
    paused over the load, which builds tens of thousands of containers and
    no reference cycle; the caller's setting is restored."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # an integer too large for a float is read as inf and rejected as
            # a mass out of range, rather than overflowing in float()
            try:
                document = json.load(handle, parse_int=float)
            except RecursionError:
                raise ValueError("mass-function file nests its lists or objects too deeply to read") from None
        if (not isinstance(document, dict) or "frame" not in document
                or not isinstance(document.get("assignments"), list)):
            raise ValueError("mass-function file must be an object with 'frame' and an 'assignments' list")
        labels = document["frame"]
        if not isinstance(labels, list):
            raise ValueError("'frame' must be a list of label strings")
        frame = FrameOfDiscernment(len(labels), tuple(labels))
        pairs = _label_masks(document["assignments"], {label: 1 << i for i, label in enumerate(labels)})
        try:
            return _validated(frame, pairs, sum_tolerance, masked=True)
        except MassFractalError:
            for _ in pairs:  # a fault of the document itself, further on, is named first
                pass
            raise
    finally:
        if collecting:
            gc.enable()


def _source(args: argparse.Namespace):
    """The ``--input`` file's mass function, or the ``--family`` bands."""
    if args.input is not None:
        tolerance = SUM_TOLERANCE if args.tolerance_sum is None else args.tolerance_sum
        return _load_mass_function(args.input, tolerance)
    return _FAMILY_PROFILE[args.family](args.n)


# --- output plumbing ---

def _emit(args: argparse.Namespace, text: str) -> int:
    """Write to ``args.output``, or to stdout when it is absent.  A relative
    path lands under ``MASSFRACTAL_OUTPUT_DIR`` when that is set."""
    path = args.output
    if path is None:
        sys.stdout.write(text)
        return EXIT_OK
    override = os.environ.get(OUTPUT_DIR_ENV)
    if override and not os.path.isabs(path):
        path = os.path.join(override, path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return EXIT_OK


def _csv_text(header, rows) -> str:
    """The one cell format is the csv module's own: ``None`` is an empty
    cell, a float is written by ``repr`` and anything else by ``str``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload) + "\n"


def _format4(value: float) -> str:
    # imported here: only the tables print four places
    from decimal import Decimal, ROUND_HALF_UP
    quantized = Decimal(repr(float(value))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP)
    return format(quantized, "f")


# --- SVG rendering (static geometry only) ---

def _svg_document(
    points: list[tuple[float, float]],
    x_hi: float,
    polyline: list[tuple[float, float]] | None = None,
) -> str:
    """A scatter of ``(y, f)`` points, and optionally a curve, over
    ``[0, x_hi] x [0, 1.05]``."""
    width, height, margin = 640.0, 480.0, 60.0
    y_hi = 1.05

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (margin + x / x_hi * (width - 2 * margin),
                height - margin - y / y_hi * (height - 2 * margin))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    x0, y0 = to_px(0.0, 0.0)
    x1, y1 = to_px(x_hi, y_hi)
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y0:.2f}" stroke="black"/>')
    parts.append(f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x0:.2f}" y2="{y1:.2f}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        tx = frac * x_hi
        px, _ = to_px(tx, 0.0)
        parts.append(f'<line x1="{px:.2f}" y1="{y0:.2f}" x2="{px:.2f}" y2="{y0 + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{y0 + 20:.2f}" font-size="11" text-anchor="middle">{tx:.3f}</text>')
        ty = frac * y_hi
        _, py = to_px(0.0, ty)
        parts.append(f'<line x1="{x0 - 5:.2f}" y1="{py:.2f}" x2="{x0:.2f}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8:.2f}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{ty:.3f}</text>')
    parts.append(f'<text x="{width / 2:.2f}" y="{height - 15:.2f}" font-size="13" text-anchor="middle">y</text>')
    parts.append(
        f'<text x="18" y="{height / 2:.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {height / 2:.2f})">f</text>'
    )
    if polyline:
        coords = " ".join("{:.2f},{:.2f}".format(*to_px(x, y)) for x, y in polyline)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>')
    for x, y in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- commands ---

def cmd_spectrum(args: argparse.Namespace) -> int:
    result = spectrum(_source(args), grouping_tolerance=args.tolerance_grouping)
    points = result.points
    if args.format == "svg":
        return _emit(args, _svg_document([(p.y, p.f) for p in points], max(p.y for p in points) + 0.1))
    if args.format == "json":
        return _emit(args, _json_text({"frame_size": result.frame_size,
                                       "points": [p._asdict() for p in points]}))
    return _emit(args, _csv_text(SpectrumPoint._fields, points))


def cmd_dimension(args: argparse.Namespace) -> int:
    """Both ``dimension`` and ``sweep``: a sweep's grid is already in ``args.alpha``."""
    entries = dimension_sweep(_source(args), args.alpha)
    columns = ("alpha", "D_alpha", "numerator_bits", "denominator_bits")
    records = [
        {"alpha": entry.alpha, "error": entry.error} if entry.result is None
        else dict(zip(columns, entry.result),
                  note="outside tabulated range" if entry.alpha < 0 else None)
        for entry in entries
    ]
    if args.format == "json":
        _emit(args, _json_text({"rows": records}))
    else:
        rows = [[*map(record.get, columns), record.get("note") or record.get("error")]
                for record in records]
        _emit(args, _csv_text([*columns, "note"], rows))
    if entries and all(entry.result is None for entry in entries):
        return EXIT_MATH
    return EXIT_OK


def _dimension_table(first_column: str, alphas: list[int], labelled_bands) -> tuple[list, list]:
    """One row per ``(label, bands)``: the label, then ``D_alpha`` at each
    order to four places."""
    rows = [
        [label] + [_format4(entry.result.value) for entry in dimension_sweep(bands, alphas)]
        for label, bands in labelled_bands
    ]
    return [first_column] + [f"alpha_{a}" for a in alphas], rows


def cmd_table(args: argparse.Namespace) -> int:
    table_id = args.table_id
    if table_id not in TABLE_IDS:
        raise UnknownTable(f"unknown table {table_id!r}; expected one of {', '.join(TABLE_IDS)}")
    if table_id in ("T1", "T2"):
        # the max-Deng spectrum's y (T1) or f (T2) by cardinality
        header = ["frame_size"] + [f"card_{k}" for k in range(1, 7)]
        rows = []
        for n in range(2, 7):
            points = spectrum(max_deng_profile(n)).points
            by_cardinality = {p.representative_cardinality: p.y if table_id == "T1" else p.f
                              for p in points}
            rows.append([str(n)] + [_format4(by_cardinality[k]) if k in by_cardinality else ""
                                    for k in range(1, 7)])
    elif table_id == "T3":
        # a singleton of mass 0.2 and a 2-set of mass 0.8
        header, rows = _dimension_table("quantity", [3, 9, 15, 21, 27, 33],
                                        [("D_alpha", [(1, 0.2, 1), (2, 0.8, 1)])])
    elif table_id == "T4":
        header, rows = _dimension_table("quantity", [1, 4, 7, 10, 13, 16, 19],
                                        [("D_alpha", vacuous_profile(5))])
    else:
        builder, alphas = ((uniform_powerset_profile, [1, 5, 9, 13, 17, 21, 25, 29]) if table_id == "T5"
                           else (max_deng_profile, [1, 4, 7, 10, 13, 16, 19]))
        header, rows = _dimension_table("frame_size", alphas,
                                        [(str(n), builder(n)) for n in range(2, 21, 2)])
    if args.format == "json":
        return _emit(args, _json_text({"table": table_id, "columns": header, "rows": rows}))
    return _emit(args, _csv_text(header, rows))


def cmd_family(args: argparse.Namespace) -> int:
    """Write the family's bands subset by subset: by cardinality, then
    lexicographically by member index, as ``itertools.combinations`` yields
    each cardinality's subsets.

    The text is what ``json.dumps`` writes for the document's dict, pieced
    together from labels quoted once and each band's mass text, so that no
    dict is built per subset."""
    profile = _FAMILY_PROFILE[args.family](args.n)
    # the explicit builders' cap: the document holds what <family>_mass builds
    _check_explicit_size(args.n, profile)
    quoted = list(map(json.dumps, FrameOfDiscernment(args.n).effective_labels()))
    head = '{"subset": ['
    bands = []
    for band in profile:
        tail = '], "mass": ' + json.dumps(band.mass) + "}"
        subsets = map(", ".join, itertools.combinations(quoted, band.cardinality))
        bands.append(head + (tail + ", " + head).join(subsets) + tail)
    text = '{"frame": [' + ", ".join(quoted) + '], "assignments": [' + ", ".join(bands) + "]}\n"
    return _emit(args, text)


def cmd_envelope(args: argparse.Namespace) -> int:
    envelope = quadratic_envelope(args.n)
    anchors = asymptotic_anchor_points(args.n)
    count = args.samples
    if count < 2:
        raise ValueError(f"need at least 2 samples, got {count}")
    _check_grid(count, "--samples")
    step = (envelope.root_high - envelope.root_low) / (count - 1)
    samples = [(x, envelope.evaluate(x)) for x in (envelope.root_low + i * step for i in range(count))]
    if args.format == "svg":
        points = spectrum(max_deng_profile(args.n)).points
        x_hi = max([p.y for p in points] + [envelope.root_high]) + 0.1
        return _emit(args, _svg_document([(p.y, p.f) for p in points], x_hi, polyline=samples))
    if args.format == "json":
        return _emit(args, _json_text({"n": envelope.n, "a": envelope.a,
                                       "anchors": anchors, "samples": samples}))
    rows = [(x, value, "anchor") for x, value in anchors]
    rows += [(x, value, "sample") for x, value in samples]
    return _emit(args, _csv_text(["x", "F", "kind"], rows))


# --- argument parsing and dispatch ---

def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(_finite(part) for part in text.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(f"could not parse alpha list {text!r} as finite orders")


def _attach_negative_alpha(argv: list[str]) -> list[str]:
    """Rewrite ``--alpha -2,0,1`` as ``--alpha=-2,0,1``.

    argparse takes a separate value that starts with ``-`` for an option
    unless it is a single number, so an order list whose first order is
    negative would be rejected.  Only values that parse as an order list are
    attached; anything else is left for argparse to report.
    """
    attached: list[str] = []
    for arg in argv:
        if attached and attached[-1] == "--alpha" and arg.startswith("-"):
            try:
                _alpha_list(arg)
            except argparse.ArgumentTypeError:
                pass
            else:
                attached[-1] = f"--alpha={arg}"
                continue
        attached.append(arg)
    return attached


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="massfractal",
        description="Multifractal spectrum and dimension of Dempster-Shafer mass functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="mass-function JSON file")
        p.add_argument("--family", choices=FAMILIES, help="built-in family name")
        p.add_argument("--n", type=int, help="frame size for --family")
        p.add_argument("--tolerance-sum", type=float)

    def add_output(p: argparse.ArgumentParser, formats=("csv", "json", "svg")) -> None:
        p.add_argument("--format", choices=formats, default="csv")
        p.add_argument("--output", help="output file (default stdout)")

    p = sub.add_parser("spectrum", help="multifractal spectrum points")
    add_source(p); add_output(p)
    p.add_argument("--tolerance-grouping", type=float, default=GROUPING_TOLERANCE)

    p = sub.add_parser("dimension", help="multifractal dimension at given orders")
    add_source(p); add_output(p, ("csv", "json"))
    p.add_argument("--alpha", type=_alpha_list, required=True, help="comma-separated orders")

    p = sub.add_parser("sweep", help="dimension over an arithmetic order grid")
    add_source(p); add_output(p, ("csv", "json"))
    p.add_argument("--alpha-start", type=_finite, required=True)
    p.add_argument("--alpha-stop", type=_finite, required=True)
    p.add_argument("--alpha-step", type=_finite, required=True)

    p = sub.add_parser("table", help="regenerate a reference table")
    p.add_argument("table_id", metavar="TABLE", help="one of T1..T6")
    add_output(p, ("csv", "json"))

    p = sub.add_parser("family", help="emit a built-in family as a mass-function JSON file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--emit", dest="output", metavar="EMIT",
                   help="output file for the JSON document (default stdout)")

    p = sub.add_parser("envelope", help="quadratic envelope of the max-Deng spectrum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=101)
    add_output(p)

    return parser


def _check_grid(points: float, what: str) -> None:
    if not points <= GRID_CAP:
        # no count in the message: an int past the double range cannot take .6g
        raise GridTooLarge(f"{what} asks for more than the {GRID_CAP} points that are built at most")


def _check_args(args: argparse.Namespace) -> None:
    """The checks argparse cannot make.  A sweep's grid becomes ``args.alpha``."""
    if args.command == "sweep":
        if args.alpha_step <= 0:
            raise ValueError("--alpha-step must be positive")
        if args.alpha_stop < args.alpha_start:
            raise ValueError("--alpha-stop must not precede --alpha-start")
        span = (args.alpha_stop - args.alpha_start) / args.alpha_step + 1e-9
        _check_grid(span + 1, "the order grid")
        count = int(math.floor(span)) + 1
        args.alpha = tuple(args.alpha_start + i * args.alpha_step for i in range(count))
    if args.command in ("spectrum", "dimension", "sweep"):
        if (args.input is None) == (args.family is None):
            raise ValueError("supply exactly one of --input or --family")
        if args.family is not None and args.n is None:
            raise ValueError("--family needs --n")
        if args.input is not None and args.n is not None:
            raise ValueError("--n belongs to --family; an --input file has its own frame")
        if args.family is not None and args.tolerance_sum is not None:
            raise ValueError("--tolerance-sum belongs to --input; a --family's masses are built, not read")


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "dimension": cmd_dimension,
    "sweep": cmd_dimension,
    "table": cmd_table,
    "family": cmd_family,
    "envelope": cmd_envelope,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _DISPATCH:
        sys.stderr.write(f"error: UnknownCommand: {argv[0]!r} is not a massfractal command\n")
        return EXIT_UNKNOWN
    args = _build_parser().parse_args(_attach_negative_alpha(argv))
    try:
        _check_args(args)
        return _DISPATCH[args.command](args)
    # every MassFractalError, and json.JSONDecodeError, is a ValueError
    except (OSError, ValueError, KeyError) as failure:
        sys.stderr.write(f"error: {type(failure).__name__}: {failure}\n")
        if isinstance(failure, UnknownTable):
            return EXIT_UNKNOWN
        return EXIT_MATH if isinstance(failure, _MATH_ERRORS) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
