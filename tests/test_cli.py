"""End-to-end runs of the installed command-line interface.

The tests shell out to ``python -m massfractal`` so argument parsing, exit
codes, and output formatting are exercised exactly as a user sees them;
the order-list parsing check calls ``cli.main`` in-process.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import subprocess
import sys

import pytest

from massfractal import cli
from massfractal.core import (
    FrameOfDiscernment,
    max_deng_mass,
    max_deng_profile,
    uniform_powerset_mass,
    uniform_singleton_mass,
    vacuous_mass,
    validate_mass_function,
)
from massfractal.errors import FrameTooLarge, InvalidFrame, MassFractalError
from massfractal.multifractal import spectrum

FAMILY_MASS = {
    "max-deng": max_deng_mass,
    "uniform-powerset": uniform_powerset_mass,
    "vacuous": vacuous_mass,
    "uniform-singleton": uniform_singleton_mass,
}


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "massfractal", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def parse_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


def csv_records(text):
    """CSV rows as dicts keyed by the header."""
    return list(csv.DictReader(text.splitlines()))


def write_mass_file(path, labels, assignments):
    payload = {
        "frame": list(labels),
        "assignments": [
            {"subset": list(subset), "mass": mass} for subset, mass in assignments
        ],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_focal_file(tmp_path):
    return write_mass_file(
        tmp_path / "two_focal.json",
        ["h1", "h2", "h3"],
        [(["h1"], 0.2), (["h2", "h3"], 0.8)],
    )


# --- spectrum ---

def test_spectrum_family_csv():
    proc = run_cli("spectrum", "--family", "max-deng", "--n", "3")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["y", "f", "mass_value", "multiplicity", "representative_cardinality"]
    assert len(rows) == 3
    ys = [float(row[0]) for row in rows]
    assert ys == sorted(ys)
    assert ys[0] == pytest.approx(0.5131, abs=5e-4)
    assert ys[2] == pytest.approx(1.5131, abs=5e-4)
    assert [row[3] for row in rows] == ["1", "3", "3"]
    assert [row[4] for row in rows] == ["3", "2", "1"]


def test_spectrum_from_input_file(two_focal_file):
    proc = run_cli("spectrum", "--input", two_focal_file)
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert len(rows) == 2
    assert float(rows[0][2]) == 0.8
    assert float(rows[1][2]) == 0.2


def test_spectrum_json_format():
    proc = run_cli("spectrum", "--family", "vacuous", "--n", "4", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["frame_size"] == 4
    assert payload["points"] == [
        {
            "y": 0.0,
            "f": 0.0,
            "mass_value": 1.0,
            "multiplicity": 1,
            "representative_cardinality": 4,
        }
    ]


# the bytes the spectrum wrote when its points were dataclasses read by vars()
SPECTRUM_JSON = {
    ("max-deng", 2): '{"frame_size": 2, "points": [{"y": 0.46497352071792725, "f": 0.0, '
                     '"mass_value": 0.6, "multiplicity": 1, "representative_cardinality": 2}, '
                     '{"y": 1.464973520717927, "f": 0.6309297535714575, "mass_value": 0.2, '
                     '"multiplicity": 2, "representative_cardinality": 1}]}\n',
    ("uniform-powerset", 3): '{"frame_size": 3, "points": [{"y": 1.0, "f": 1.0, '
                             '"mass_value": 0.14285714285714285, "multiplicity": 7, '
                             '"representative_cardinality": null}]}\n',
}


@pytest.mark.parametrize("family, n", sorted(SPECTRUM_JSON))
def test_spectrum_json_bytes_are_pinned(family, n, tmp_path, capsys):
    code, captured = main_in_process(capsys, "spectrum", "--family", family, "--n", str(n),
                                     "--format", "json")
    assert code == 0
    assert captured.out == SPECTRUM_JSON[family, n]
    emitted = tmp_path / "family.json"
    assert main_in_process(capsys, "family", "--family", family, "--n", str(n),
                           "--emit", str(emitted))[0] == 0
    code, captured = main_in_process(capsys, "spectrum", "--input", str(emitted), "--format", "json")
    assert code == 0
    assert captured.out == SPECTRUM_JSON[family, n]


def test_spectrum_svg_has_one_circle_per_point(tmp_path):
    target = tmp_path / "fig.svg"
    proc = run_cli(
        "spectrum", "--family", "max-deng", "--n", "5",
        "--format", "svg", "--output", str(target),
    )
    assert proc.returncode == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("<svg")
    assert text.count("<circle") == 5


def test_grouping_tolerance_flag_splits_near_ties(tmp_path):
    close = 0.3 + 2.9e-10
    rest = 1.0 - 0.3 - close
    path = write_mass_file(
        tmp_path / "near_tie.json",
        ["a", "b"],
        [(["a"], 0.3), (["b"], close), (["a", "b"], rest)],
    )
    merged = run_cli("spectrum", "--input", path)
    assert merged.returncode == 0
    _, rows = parse_csv(merged.stdout)
    assert [row[3] for row in rows] == ["1", "2"]
    split = run_cli("spectrum", "--input", path, "--tolerance-grouping", "1e-12")
    _, rows = parse_csv(split.stdout)
    assert [row[3] for row in rows] == ["1", "1", "1"]


# --- dimension and sweep ---

def test_dimension_of_two_focal_example(two_focal_file):
    proc = run_cli("dimension", "--input", two_focal_file, "--alpha", "1,2,3")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["alpha", "D_alpha", "numerator_bits", "denominator_bits", "note"]
    values = {float(row[0]): float(row[1]) for row in rows}
    assert values[1.0] == pytest.approx(1.1249, abs=5e-4)
    assert values[2.0] == pytest.approx(0.7163, abs=5e-4)
    assert values[3.0] == pytest.approx(0.5054063322490777, abs=1e-6)


def test_dimension_of_vacuous_family():
    proc = run_cli("dimension", "--family", "vacuous", "--n", "6", "--alpha", "1,4,10")
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert [row[1] for row in rows] == ["1.0", "0.25", "0.1"]


def test_dimension_of_uniform_singleton():
    proc = run_cli("dimension", "--family", "uniform-singleton", "--n", "7", "--alpha", "2")
    _, rows = parse_csv(proc.stdout)
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_dimension_json_rows(two_focal_file):
    proc = run_cli(
        "dimension", "--input", two_focal_file, "--alpha", "1,2", "--format", "json"
    )
    payload = json.loads(proc.stdout)
    assert [sorted(row) for row in payload["rows"]] == [
        ["D_alpha", "alpha", "denominator_bits", "note", "numerator_bits"]
    ] * 2
    assert payload["rows"][0]["D_alpha"] == pytest.approx(1.1249, abs=5e-4)


def test_negative_order_is_flagged(two_focal_file):
    proc = run_cli("dimension", "--input", two_focal_file, "--alpha=-1,2")
    assert proc.returncode == 0
    rows = csv_records(proc.stdout)
    assert rows[0]["note"] == "outside tabulated range"
    assert rows[1]["note"] == ""


@pytest.mark.parametrize("alpha_args", [["--alpha", "-2,0.5,3"], ["--alpha=-2,0.5,3"]])
def test_order_list_may_start_negative(alpha_args, capsys):
    code = cli.main(["dimension", "--family", "max-deng", "--n", "4", *alpha_args])
    assert code == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [float(row[0]) for row in rows] == [-2.0, 0.5, 3.0]
    assert all(row[1] for row in rows)


def test_sweep_builds_inclusive_grid():
    proc = run_cli(
        "sweep", "--family", "max-deng", "--n", "4",
        "--alpha-start", "1", "--alpha-stop", "7", "--alpha-step", "3",
    )
    assert proc.returncode == 0
    _, rows = parse_csv(proc.stdout)
    assert [float(row[0]) for row in rows] == [1.0, 4.0, 7.0]


def test_sweep_keeps_going_past_degenerate_orders():
    proc = run_cli(
        "sweep", "--family", "vacuous", "--n", "3",
        "--alpha-start", "0", "--alpha-stop", "2", "--alpha-step", "2",
    )
    assert proc.returncode == 0
    rows = csv_records(proc.stdout)
    assert rows[0]["D_alpha"] == ""
    assert rows[0]["note"] == "ZeroDenominator"
    assert float(rows[1]["D_alpha"]) == 0.5


def test_dimension_fails_when_every_order_degenerates(tmp_path):
    path = write_mass_file(tmp_path / "point.json", ["a", "b"], [(["a"], 1.0)])
    proc = run_cli("dimension", "--input", path, "--alpha", "0,2")
    assert proc.returncode == 3


def test_dimension_at_the_root_of_the_denominator_exits_three(tmp_path, capsys):
    # two 2-sets of mass 0.5 on a 3-frame: the denominator log2(2 * 3**(alpha/2))
    # is exactly 0 at the double nearest its root -2 / log2 3
    path = write_mass_file(tmp_path / "pair.json", ["a", "b", "c"],
                           [(["a", "b"], 0.5), (["b", "c"], 0.5)])
    code, captured = main_in_process(capsys, "dimension", "--input", path,
                                     "--alpha=-1.261859507142915")
    assert code == 3
    assert captured.out == ("alpha,D_alpha,numerator_bits,denominator_bits,note\n"
                            "-1.261859507142915,,,,ZeroDenominator\n")
    assert captured.err == ""


def test_dimension_with_a_tiny_mass_at_a_negative_order_matches_the_oracle(tmp_path, capsys):
    # the denominator's largest term is within 6.5e-11 of 1; rounded before
    # 1 was taken off it printed -627664351757.3973, 1.1e-6 off
    path = write_mass_file(tmp_path / "tiny.json", ["a", "b", "c"],
                           [(["a", "b"], 2.0 ** -40), (["b", "c"], 1.0 - 2.0 ** -40)])
    code, captured = main_in_process(capsys, "dimension", "--input", path, "--alpha=-45",
                                     "--format", "json")
    assert code == 0
    (row,) = json.loads(captured.out)["rows"]
    assert row["D_alpha"] == pytest.approx(-627663679004.0927, rel=1e-12)


# --- tables ---

def test_table_t1_published_row():
    proc = run_cli("table", "T1")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header[0] == "frame_size"
    by_n = {row[0]: row for row in rows}
    row = by_n["5"]
    expected = [1.5585, 1.2386, 0.9918, 0.7699, 0.5585]
    for cell, want in zip(row[1:6], expected):
        assert float(cell) == pytest.approx(want, abs=5e-4)
    assert row[6] == ""


def test_table_t2_published_row():
    proc = run_cli("table", "T2")
    _, rows = parse_csv(proc.stdout)
    by_n = {row[0]: row for row in rows}
    row = by_n["6"]
    expected = [0.4325, 0.6536, 0.7231, 0.6536, 0.4325, 0.0]
    for cell, want in zip(row[1:7], expected):
        assert float(cell) == pytest.approx(want, abs=5e-4)


def test_table_t4_is_the_reciprocal_rule():
    proc = run_cli("table", "T4")
    _, rows = parse_csv(proc.stdout)
    cells = [float(cell) for cell in rows[0][1:]]
    for alpha, cell in zip([1, 4, 7, 10, 13, 16, 19], cells):
        assert cell == pytest.approx(1.0 / alpha, abs=5e-5)


def test_table_t5_spot_value():
    proc = run_cli("table", "T5")
    _, rows = parse_csv(proc.stdout)
    by_n = {row[0]: row for row in rows}
    # columns follow alphas 1,5,9,13,17,21,25,29
    assert float(by_n["8"][4]) == pytest.approx(1.0265, abs=5e-4)


def test_table_t6_spot_values():
    proc = run_cli("table", "T6")
    _, rows = parse_csv(proc.stdout)
    by_n = {row[0]: row for row in rows}
    # columns follow alphas 1,4,7,10,13,16,19
    assert float(by_n["16"][6]) == pytest.approx(1.5846, abs=5e-4)
    assert by_n["20"][1:] == ["1.5849"] * 7


def test_table_output_is_deterministic():
    first = run_cli("table", "T6")
    second = run_cli("table", "T6")
    assert first.stdout == second.stdout
    assert first.stdout.endswith("\n")
    assert "\r" not in first.stdout


# --- family round trip ---

def test_family_emit_round_trips_through_spectrum(tmp_path):
    emitted = tmp_path / "md4.json"
    proc = run_cli("family", "--family", "max-deng", "--n", "4", "--emit", str(emitted))
    assert proc.returncode == 0
    via_file = run_cli("spectrum", "--input", str(emitted))
    direct = run_cli("spectrum", "--family", "max-deng", "--n", "4")
    assert via_file.returncode == 0
    assert via_file.stdout == direct.stdout


def test_family_document_shape():
    proc = run_cli("family", "--family", "vacuous", "--n", "3")
    payload = json.loads(proc.stdout)
    assert payload["frame"] == ["h1", "h2", "h3"]
    assert payload["assignments"] == [{"subset": ["h1", "h2", "h3"], "mass": 1.0}]


# the frames each family refuses: past the explicit builders' mask-bit cap,
# or past the double range of its band values
REFUSED_FRAMES = {
    "max-deng": (20, 27, 700),
    "uniform-powerset": (20, 27, 1024),
    "vacuous": (5792, 10 ** 6),
    "uniform-singleton": (3345, 10 ** 6),
}


@pytest.mark.parametrize("family", sorted(FAMILY_MASS))
def test_family_document_is_the_explicit_mass_function(family, capsys):
    build = FAMILY_MASS[family]
    for n in range(1, 11):
        code, captured = main_in_process(capsys, "family", "--family", family, "--n", str(n))
        assert code == 0
        m = build(FrameOfDiscernment(n))
        labels = list(m.frame.effective_labels())
        want = [([labels[i] for i in element.members], mass) for element, mass in m.assignments]
        document = json.loads(captured.out)
        assert document["frame"] == labels
        assert [(a["subset"], a["mass"]) for a in document["assignments"]] == want
    for n in REFUSED_FRAMES[family]:
        with pytest.raises(FrameTooLarge) as refused:
            build(FrameOfDiscernment(n))
        code, captured = main_in_process(capsys, "family", "--family", family, "--n", str(n))
        assert code == 2
        assert captured.err == f"error: FrameTooLarge: {refused.value}\n"
        assert captured.out == ""


@pytest.mark.parametrize("family", sorted(FAMILY_MASS))
def test_family_document_is_json_dumps_of_its_payload(family, capsys):
    """The family text is pieced together; its bytes are those json.dumps
    writes for the document built as a dict."""
    for n in range(1, 13):
        m = FAMILY_MASS[family](FrameOfDiscernment(n))
        labels = list(m.frame.effective_labels())
        payload = {
            "frame": labels,
            "assignments": [{"subset": [labels[i] for i in element.members], "mass": mass}
                            for element, mass in m.assignments],
        }
        code, captured = main_in_process(capsys, "family", "--family", family, "--n", str(n))
        assert code == 0
        assert captured.out == json.dumps(payload) + "\n"


def test_family_has_no_output_alias(tmp_path, capsys):
    code, captured = main_in_process(capsys, "family", "--family", "vacuous", "--n", "3",
                                     "--output", str(tmp_path / "x.json"))
    assert code == 2
    assert "unrecognized arguments: --output" in captured.err
    assert captured.out == ""


# --- envelope ---

def test_envelope_csv_anchors_then_samples():
    proc = run_cli("envelope", "--n", "6", "--samples", "5")
    assert proc.returncode == 0
    header, rows = parse_csv(proc.stdout)
    assert header == ["x", "F", "kind"]
    kinds = [row[2] for row in rows]
    assert kinds == ["anchor"] * 3 + ["sample"] * 5
    assert float(rows[0][0]) == 0.585
    assert float(rows[0][1]) == 0.0
    assert float(rows[2][0]) == 1.585
    by_x = {row[0]: float(row[1]) for row in rows if row[2] == "sample"}
    assert by_x["1.085"] == pytest.approx(0.7203, abs=5e-4)


def test_envelope_svg_overlays_scatter_and_curve(tmp_path):
    target = tmp_path / "envelope.svg"
    proc = run_cli(
        "envelope", "--n", "6", "--format", "svg", "--output", str(target)
    )
    assert proc.returncode == 0
    text = target.read_text(encoding="utf-8")
    assert text.count("<circle") == 6
    assert text.count("<polyline") == 1


# --- output redirection ---

def test_output_dir_environment_variable(tmp_path):
    proc = run_cli(
        "table", "T4", "--output", "t4.csv",
        env_extra={"MASSFRACTAL_OUTPUT_DIR": str(tmp_path)},
    )
    assert proc.returncode == 0
    assert (tmp_path / "t4.csv").exists()


def test_absolute_output_ignores_environment_dir(tmp_path):
    target = tmp_path / "direct.csv"
    proc = run_cli(
        "table", "T4", "--output", str(target),
        env_extra={"MASSFRACTAL_OUTPUT_DIR": str(tmp_path / "elsewhere")},
    )
    assert proc.returncode == 0
    assert target.exists()


def test_missing_output_directory_is_an_input_error(tmp_path):
    proc = run_cli(
        "table", "T4", "--output", "t4.csv",
        env_extra={"MASSFRACTAL_OUTPUT_DIR": str(tmp_path / "absent")},
    )
    assert proc.returncode == 2


# --- failure modes ---

def test_unknown_command_exits_four():
    proc = run_cli("spectra")
    assert proc.returncode == 4
    assert "UnknownCommand" in proc.stderr


def test_unknown_table_exits_four():
    proc = run_cli("table", "T9")
    assert proc.returncode == 4
    assert "UnknownTable" in proc.stderr


def test_unnormalized_input_exits_two(tmp_path):
    path = write_mass_file(tmp_path / "bad.json", ["a", "b"], [(["a"], 0.5)])
    proc = run_cli("spectrum", "--input", path)
    assert proc.returncode == 2
    assert "SumNotOne" in proc.stderr


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("spectrum", "--input", str(path))
    assert proc.returncode == 2


def test_unknown_subset_label_exits_two(tmp_path):
    path = write_mass_file(tmp_path / "label.json", ["a", "b"], [(["c"], 1.0)])
    proc = run_cli("spectrum", "--input", path)
    assert proc.returncode == 2


@pytest.mark.parametrize("label", ["c", 1, None, True, [1], {"k": 1}])
def test_subset_label_outside_the_frame_is_named(label, tmp_path, capsys):
    path = write_mass_file(tmp_path / "label.json", ["a", "b"], [(["a", label], 1.0)])
    code, captured = main_in_process(capsys, "spectrum", "--input", path)
    read = json.loads(json.dumps(label), parse_int=float)  # as the loader reads the file
    assert code == 2
    assert captured.err == f"error: ValueError: subset label {read!r} is not in the frame\n"
    assert captured.out == ""


# The loader's label rules, each with the exact exit code and output of the
# label-list loader this one-pass loader replaced.  "mass" entries are as
# written; every label outside the frame is refused, on a zero mass too, and a
# fault of the document itself is named before a fault of its masses.
SPECTRUM_AB = ("y,f,mass_value,multiplicity,representative_cardinality\n"
               "0.2618595071429149,0.0,0.75,1,2\n1.261859507142915,0.0,0.25,1,1\n")

LOADER_CASES = {
    "label outside the frame on a zero mass": (
        ["a", "b"], [(["a", "b"], 1.0), (["zz"], 0.0)],
        2, "", "error: ValueError: subset label 'zz' is not in the frame\n"),
    "null label on a zero mass": (
        ["a", "b"], [(["a"], 1.0), ([None], 0.0)],
        2, "", "error: ValueError: subset label None is not in the frame\n"),
    "repeated label counts once": (
        ["a", "b"], [(["a", "a"], 0.25), (["b", "a", "b"], 0.75)], 0, SPECTRUM_AB, ""),
    "repeated label is a duplicate of the singleton": (
        ["a", "b"], [(["a", "a"], 0.5), (["a"], 0.5)],
        2, "", "error: DuplicateFocalElement: subset (0,) appears twice\n"),
    "duplicate in another label order": (
        ["a", "b", "c"], [(["a", "b"], 0.5), (["b", "a"], 0.5)],
        2, "", "error: DuplicateFocalElement: subset (0, 1) appears twice\n"),
    "duplicate named by indices": (
        ["a", "b", "c", "d"], [(["d", "b"], 0.5), (["b", "d", "b"], 0.5)],
        2, "", "error: DuplicateFocalElement: subset (1, 3) appears twice\n"),
    "number label": (
        ["a", "b"], [(["a", 1], 1.0)],
        2, "", "error: ValueError: subset label 1.0 is not in the frame\n"),
    "list label": (
        ["a", "b"], [([[1], "a"], 1.0)],
        2, "", "error: ValueError: subset label [1.0] is not in the frame\n"),
    "object label": (
        ["a", "b"], [(["a", {"k": 1}], 1.0)],
        2, "", "error: ValueError: subset label {'k': 1.0} is not in the frame\n"),
    "mass out of range, then a label outside the frame": (
        ["a", "b"], [(["a"], 2.0), (["zz"], 0.5)],
        2, "", "error: ValueError: subset label 'zz' is not in the frame\n"),
    "NaN mass, then a bool label": (
        ["a", "b"], [(["a"], math.nan), ([True], 1.0)],
        2, "", "error: ValueError: subset label True is not in the frame\n"),
    "duplicate, then a mass that is no number": (
        ["a", "b"], [(["a"], 0.5), (["a"], 0.5), (["b"], None)],
        2, "", "error: ValueError: mass None is not a JSON number\n"),
    "empty subset with mass, then a subset that is no list": (
        ["a", "b"], [([], 0.5), (["b"], 0.5), ("b", 0.5)],
        2, "", "error: ValueError: each assignment needs a 'subset' list of labels and a 'mass'\n"),
    "short sum, then a label outside the frame on a zero mass": (
        ["a", "b"], [(["a"], 0.25), (["b"], 0.25), (["a", 7], 0.0)],
        2, "", "error: ValueError: subset label 7.0 is not in the frame\n"),
    "empty subset on a zero mass": (
        ["a", "b"], [([], 0.0), (["a", "b"], 1.0)],
        0, "y,f,mass_value,multiplicity,representative_cardinality\n0.0,0.0,1.0,1,2\n", ""),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_label_rules_are_pinned(case, tmp_path, capsys):
    labels, assignments, want_code, want_out, want_err = LOADER_CASES[case]
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"frame": labels, "assignments": [
        {"subset": subset, "mass": mass} for subset, mass in assignments]}), encoding="utf-8")
    code, captured = main_in_process(capsys, "spectrum", "--input", str(path))
    assert (code, captured.out, captured.err) == (want_code, want_out, want_err)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("good", [True, False])
def test_loading_leaves_the_collector_as_it_was(collecting, good, two_focal_file, tmp_path, capsys):
    # the collector is paused over the load only; a caller that had paused
    # it finds it paused, whether the load succeeds or raises
    path = two_focal_file if good else write_mass_file(tmp_path / "bad.json", ["a"], [(["zz"], 1.0)])
    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        code, _ = main_in_process(capsys, "spectrum", "--input", path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (0 if good else 2)


@pytest.mark.parametrize("n", range(1, 11))
def test_emitted_family_reads_back_as_the_family(n, tmp_path, capsys):
    path = str(tmp_path / "family.json")
    main_in_process(capsys, "family", "--family", "max-deng", "--n", str(n), "--emit", path)
    for command in (["spectrum"], ["dimension", "--alpha=-2,0.5,1,2,29"]):
        from_file = main_in_process(capsys, *command, "--input", path)
        from_family = main_in_process(capsys, *command, "--family", "max-deng", "--n", str(n))
        assert from_file == from_family


def test_repeated_frame_labels_exit_two_with_invalid_frame(tmp_path, capsys):
    path = write_mass_file(tmp_path / "labels.json", ["a", "a"], [(["a"], 1.0)])
    code, captured = main_in_process(capsys, "spectrum", "--input", path)
    assert code == 2
    assert captured.err.startswith(f"error: {InvalidFrame.__name__}: ")


def test_source_flags_are_mutually_exclusive(two_focal_file):
    both = run_cli("spectrum", "--input", two_focal_file, "--family", "vacuous", "--n", "3")
    assert both.returncode == 2
    neither = run_cli("spectrum")
    assert neither.returncode == 2


def test_family_without_n_exits_two():
    proc = run_cli("spectrum", "--family", "max-deng")
    assert proc.returncode == 2


def test_degenerate_spectrum_exits_three():
    proc = run_cli("spectrum", "--family", "vacuous", "--n", "1")
    assert proc.returncode == 3
    assert "DegenerateFrame" in proc.stderr


def test_envelope_of_a_one_hypothesis_frame_exits_three(capsys):
    code, captured = main_in_process(capsys, "envelope", "--n", "1")
    assert code == 3
    assert captured.err == "error: DegenerateFrame: the envelope needs a frame of at least 2, got 1\n"
    assert captured.out == ""


# --- rejected numbers and malformed inputs, run in-process ---

def main_in_process(capsys, *args):
    """Exit code and captured output of ``cli.main``; an argument that
    argparse rejects comes back as its exit code."""
    try:
        code = cli.main(list(args))
    except SystemExit as exit_:
        code = exit_.code
    return code, capsys.readouterr()


def test_nan_mass_exits_two(tmp_path, capsys):
    path = write_mass_file(
        tmp_path / "nan.json", ["a", "b"], [(["a"], float("nan")), (["b"], 1.0)]
    )
    code, captured = main_in_process(capsys, "spectrum", "--input", path)
    assert code == 2
    assert "MassOutOfRange" in captured.err
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize("command", [["spectrum"], ["dimension", "--alpha", "2"]])
def test_a_file_without_focal_elements_exits_two_at_any_sum_tolerance(tmp_path, capsys, command):
    # a tolerance of 1 would take the missing unit of mass
    path = write_mass_file(tmp_path / "zero.json", ["a", "b"], [(["a"], 0.0)])
    code, captured = main_in_process(capsys, *command, "--input", path, "--tolerance-sum", "1")
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: SumNotOne: masses sum to 0.0, not 1\n"


# each tolerance is parsed by float and checked only by the library, so
# the CLI refuses and accepts what the library does, an infinity included
TOLERANCE_TEXTS = ["-1", "-inf", "nan", "0", "0.01", "inf"]


def library_outcome(call):
    """The exit code and stderr the CLI owes for what ``call`` does."""
    try:
        call()
    except MassFractalError as failure:
        return 2, f"error: {type(failure).__name__}: {failure}\n"
    return 0, ""


@pytest.mark.parametrize("text", TOLERANCE_TEXTS)
def test_the_sum_tolerance_keeps_the_librarys_rule(text, tmp_path, capsys):
    # the masses sum to 0.999
    masses = [0.25, 0.25, 0.499]
    path = write_mass_file(tmp_path / "short.json", ["a", "b", "c"],
                           [([label], mass) for label, mass in zip("abc", masses)])
    expected = library_outcome(lambda: validate_mass_function(
        FrameOfDiscernment(3), [((i,), mass) for i, mass in enumerate(masses)], float(text)))
    code, captured = main_in_process(capsys, "dimension", "--input", path, "--alpha", "2",
                                     f"--tolerance-sum={text}")
    assert (code, captured.err) == expected
    assert (len(csv_records(captured.out)) == 1) if code == 0 else (captured.out == "")


@pytest.mark.parametrize("text", TOLERANCE_TEXTS)
def test_the_grouping_tolerance_keeps_the_librarys_rule(text, capsys):
    bands = max_deng_profile(3)
    expected = library_outcome(lambda: spectrum(bands, grouping_tolerance=float(text)))
    code, captured = main_in_process(capsys, "spectrum", "--family", "max-deng", "--n", "3",
                                     f"--tolerance-grouping={text}")
    assert (code, captured.err) == expected
    if code != 0:
        assert captured.out == ""
    else:
        points = spectrum(bands, grouping_tolerance=float(text)).points
        assert [int(row["multiplicity"]) for row in csv_records(captured.out)] == [
            point.multiplicity for point in points]
        # an infinite tolerance puts every mass in one group
        assert len(points) == (1 if text == "inf" else 3)


@pytest.mark.parametrize("orders", ["nan,inf", "1,inf", "-inf,2"])
def test_non_finite_orders_exit_two(orders, capsys):
    code, captured = main_in_process(
        capsys, "dimension", "--family", "max-deng", "--n", "3", "--alpha", orders
    )
    assert code == 2
    assert "nan" not in captured.out.lower()


def test_non_finite_sweep_bound_exits_two(capsys):
    code, _ = main_in_process(
        capsys, "sweep", "--family", "max-deng", "--n", "3",
        "--alpha-start", "0", "--alpha-stop", "inf", "--alpha-step", "1",
    )
    assert code == 2


def test_subset_that_is_not_a_list_exits_two(tmp_path, capsys):
    path = tmp_path / "string_subset.json"
    path.write_text(json.dumps({
        "frame": ["a", "b"],
        "assignments": [{"subset": "ab", "mass": 1.0}],
    }), encoding="utf-8")
    code, captured = main_in_process(capsys, "spectrum", "--input", str(path))
    assert code == 2
    assert "ValueError" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mass", [None, True, "0.5", [], {}])
def test_mass_that_is_not_a_json_number_exits_two(tmp_path, capsys, mass):
    path = write_mass_file(tmp_path / "not_a_number.json", ["a", "b"], [(["a"], mass), (["b"], 0.5)])
    code, captured = main_in_process(capsys, "spectrum", "--input", path)
    assert code == 2
    assert "is not a JSON number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_integer_mass_too_large_for_a_float_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"frame": ["a", "b"], "assignments": [{"subset": ["a"], "mass": 1%s}, '
        '{"subset": ["b"], "mass": 1}]}' % ("0" * 400),
        encoding="utf-8",
    )
    code, captured = main_in_process(capsys, "spectrum", "--input", str(path))
    assert code == 2
    assert "MassOutOfRange" in captured.err
    assert captured.out == ""


def test_order_past_the_double_range_is_an_error_row(capsys):
    # the lone vacuous element's denominator alpha * log2 7 overflows at 1e308
    code, captured = main_in_process(
        capsys, "dimension", "--family", "vacuous", "--n", "3", "--alpha", "1e308,2"
    )
    assert code == 0
    rows = csv_records(captured.out)
    assert rows[0] == {"alpha": "1e+308", "D_alpha": "", "numerator_bits": "",
                       "denominator_bits": "", "note": "OrderOutOfRange"}
    assert float(rows[1]["D_alpha"]) == 0.5
    assert "nan" not in captured.out.lower()


def test_only_orders_past_the_double_range_exit_three(capsys):
    code, captured = main_in_process(
        capsys, "dimension", "--family", "vacuous", "--n", "3", "--alpha", "1e308"
    )
    assert code == 3
    assert "nan" not in captured.out.lower()


def test_max_deng_has_a_value_where_every_numerator_exponent_overflows(capsys):
    # every eps * t_i is -inf at 1e308, where the max-shifted sum alone is nan
    code, captured = main_in_process(
        capsys, "dimension", "--family", "max-deng", "--n", "3", "--alpha", "1e308,2"
    )
    assert code == 0
    rows = csv_records(captured.out)
    assert float(rows[0]["numerator_bits"]) == pytest.approx(math.log2(19), rel=1e-15)
    assert float(rows[0]["D_alpha"]) == pytest.approx(4.1071005573496827e-308, rel=1e-12)
    assert float(rows[1]["D_alpha"]) == pytest.approx(1.2082137545959064, rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "max-deng", "--n", "3",
     "--alpha-start", "0", "--alpha-stop", "1e9", "--alpha-step", "1e-9"],
    ["sweep", "--family", "max-deng", "--n", "3",
     "--alpha-start=-1e308", "--alpha-stop", "1e308", "--alpha-step", "1"],
    ["envelope", "--n", "6", "--samples", "100000000"],
])
def test_grids_past_the_cap_exit_two(argv, capsys):
    code, captured = main_in_process(capsys, *argv)
    assert code == 2
    assert "GridTooLarge" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["table", "T4", "--format", "svg"],
    ["dimension", "--family", "max-deng", "--n", "3", "--alpha", "2", "--format", "svg"],
    ["sweep", "--family", "max-deng", "--n", "3",
     "--alpha-start", "1", "--alpha-stop", "2", "--alpha-step", "1", "--format", "svg"],
])
def test_formats_a_command_cannot_write_exit_two(argv, capsys):
    code, captured = main_in_process(capsys, *argv)
    assert code == 2
    assert "invalid choice: 'svg'" in captured.err
    assert captured.out == ""


def test_table_writes_json(capsys):
    code, captured = main_in_process(capsys, "table", "T4", "--format", "json")
    assert code == 0
    assert json.loads(captured.out)["table"] == "T4"


@pytest.mark.parametrize("argv", [
    ["dimension", "--family", "max-deng", "--n", "3", "--alpha", "2"],
    ["sweep", "--family", "max-deng", "--n", "3",
     "--alpha-start", "1", "--alpha-stop", "2", "--alpha-step", "1"],
])
def test_grouping_tolerance_belongs_to_spectrum_only(argv, capsys):
    code, captured = main_in_process(capsys, *argv, "--tolerance-grouping", "0.5")
    assert code == 2
    assert "unrecognized arguments: --tolerance-grouping" in captured.err
    assert captured.out == ""
    # nothing reads a sum tolerance beside --family, so it is refused
    code, captured = main_in_process(capsys, *argv, "--tolerance-sum", "0.5")
    assert code == 2
    assert captured.err == ("error: ValueError: --tolerance-sum belongs to --input; "
                            "a --family's masses are built, not read\n")
    assert captured.out == ""
    code, captured = main_in_process(
        capsys, "spectrum", "--family", "max-deng", "--n", "3", "--tolerance-grouping", "0.9"
    )
    assert code == 0
    assert len(csv_records(captured.out)) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--family", "uniform-powerset", "--n", "1024",
     "--alpha-start", "1", "--alpha-stop", "3", "--alpha-step", "1"],
    ["dimension", "--family", "max-deng", "--n", "645", "--alpha", "2"],
])
def test_profile_frames_past_the_double_range_exit_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "FrameTooLarge" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("family, largest", [("max-deng", 644), ("uniform-powerset", 1023)])
def test_profile_frames_up_to_the_limit_run(family, largest, capsys):
    code, captured = main_in_process(
        capsys, "dimension", "--family", family, "--n", str(largest), "--alpha", "0.5,2"
    )
    assert code == 0
    assert len(csv_records(captured.out)) == 2
    code, captured = main_in_process(capsys, "spectrum", "--family", family, "--n", str(largest + 1))
    assert code == 2
    assert "FrameTooLarge" in captured.err



@pytest.mark.parametrize("argv", [
    ["family", "--family", "max-deng"],
    ["spectrum", "--family", "max-deng"],
    ["dimension", "--family", "max-deng", "--alpha", "2,1e6"],
    ["envelope"],
])
def test_max_deng_frames_with_subnormal_masses_exit_two(argv, capsys):
    # from n = 645 the singleton mass 1 / (3**n - 2**n) is subnormal, and
    # D_alpha at order 1e6 would miss the family's value
    code, captured = main_in_process(capsys, *argv, "--n", "645")
    assert code == 2
    # one check, the builder's, names the fault for every command
    assert captured.err == "error: FrameTooLarge: max-deng band values turn subnormal past n = 644\n"
    assert captured.out == ""


# Each of these faults has one check, in the library or in the command that
# reads the value; argparse only parses the int.
FRAME_SIZE_COMMANDS = [
    ["spectrum", "--family", "max-deng"],
    ["dimension", "--family", "max-deng", "--alpha", "2"],
    ["sweep", "--family", "max-deng", "--alpha-start", "1", "--alpha-stop", "2", "--alpha-step", "1"],
    ["family", "--family", "max-deng"],
    ["envelope"],
]


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("argv", FRAME_SIZE_COMMANDS, ids=[argv[0] for argv in FRAME_SIZE_COMMANDS])
def test_a_frame_size_below_one_exits_two_with_invalid_frame(argv, n, capsys):
    code, captured = main_in_process(capsys, *argv, "--n", n)
    assert (code, captured.out, captured.err) == (
        2, "", f"error: InvalidFrame: frame size must be a positive integer, got {n}\n")


@pytest.mark.parametrize("samples", ["0", "1", "-3"])
def test_fewer_than_two_samples_exit_two(samples, capsys):
    code, captured = main_in_process(capsys, "envelope", "--n", "4", "--samples", samples)
    assert (code, captured.out, captured.err) == (
        2, "", f"error: ValueError: need at least 2 samples, got {samples}\n")


@pytest.mark.parametrize("argv", [["spectrum", "--family", "max-deng"], ["envelope"]])
def test_a_frame_size_that_is_no_int_exits_two(argv, capsys):
    code, captured = main_in_process(capsys, *argv, "--n", "abc")
    *usage, error = captured.err.splitlines()
    assert (code, captured.out) == (2, "")
    # the usage lines above the error wrap to the terminal's width
    assert usage[0].startswith(f"usage: massfractal {argv[0]} [-h]")
    assert error == f"massfractal {argv[0]}: error: argument --n: invalid int value: 'abc'"


@pytest.mark.parametrize("n", ["0", "3"])
@pytest.mark.parametrize("command", [["spectrum"], ["dimension", "--alpha", "2"]])
def test_n_beside_an_input_file_exits_two(command, n, two_focal_file, capsys):
    # the file's frame is the frame, so an --n would go unread
    code, captured = main_in_process(capsys, *command, "--input", two_focal_file, "--n", n)
    assert (code, captured.out, captured.err) == (
        2, "", "error: ValueError: --n belongs to --family; an --input file has its own frame\n")


def test_frame_labels_that_are_not_strings_exit_two_with_invalid_frame(tmp_path, capsys):
    path = write_mass_file(tmp_path / "numbers.json", [1, 2], [([1], 1.0)])
    code, captured = main_in_process(capsys, "spectrum", "--input", path)
    assert (code, captured.out, captured.err) == (
        2, "", "error: InvalidFrame: frame labels must be non-empty strings\n")


@pytest.mark.parametrize("document", [
    "[" * 200_000 + "]" * 200_000,
    '{"frame": ["a"], "assignments": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["top-level", "assignments"])
def test_a_file_nested_too_deeply_to_read_exits_two(document, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(document, encoding="utf-8")
    code, captured = main_in_process(capsys, "spectrum", "--input", str(path))
    assert (code, captured.out, captured.err) == (
        2, "", "error: ValueError: mass-function file nests its lists or objects too deeply to read\n")

def test_cli_import_leaves_mpmath_unloaded():
    probe = (
        "import sys, massfractal.cli\n"
        "assert 'mpmath' not in sys.modules, 'mpmath imported with the CLI'\n"
        "import massfractal\n"
        "assert abs(massfractal.oracle_dimension([(2, 1, 1)], 2.0) - 0.5) < 1e-15\n"
        "assert 'mpmath' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_dataclasses_unloaded():
    """A CLI process pays for no module it does not use: the records are
    named tuples and slotted classes, and decimal waits for the tables.
    Nor do the benchmark's set-up paths (a validated mass function and a
    max-Deng profile, each swept and grouped, and table T4) load mpmath or
    fractions, whose import alone costs about what such a process does."""
    probe = (
        "import contextlib, io, sys, massfractal.cli\n"
        "loaded = {'dataclasses', 'inspect', 'decimal'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "from massfractal import cli, core, multifractal\n"
        "orders = (-2.0, 0.0, 0.5, 1 - 1e-6, 1 - 1e-9, 1.0, 1 + 1e-11, 1 + 1e-9,\n"
        "          1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 29.0, 100.0)\n"
        "raw = [((0,), 0.5), ((1, 2), 0.25), ((3, 4, 5), 0.125), ((0, 5), 0.125)]\n"
        "m = core.validate_mass_function(core.FrameOfDiscernment(6), raw)\n"
        "multifractal.dimension_sweep(m, orders)\n"
        "multifractal.spectrum(m)\n"
        "bands = core.max_deng_profile(4)\n"
        "multifractal.dimension_sweep(bands, orders)\n"
        "multifractal.spectrum_from_profile(bands, 4)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', 'T4']) == 0\n"
        "loaded = {'mpmath', 'fractions'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- pinned output bytes ---
#
# The exact text of outputs no other test pins: the envelope in every format,
# the spectrum figure, dimension runs holding a negative-order note, an error
# row and a value at an order whose every numerator exponent overflows, and a
# family document written under MASSFRACTAL_OUTPUT_DIR.

ENVELOPE_CSV = ('x,F,kind\n'
                '0.585,0.0,anchor\n'
                '1.085,0.646240625180289,anchor\n'
                '1.585,0.0,anchor\n'
                '0.585,0.0,sample\n'
                '1.085,0.646240625180289,sample\n'
                '1.585,0.0,sample\n')

ENVELOPE_JSON = ('{"n": 4, "a": 2.584962500721156, "anchors": [[0.585, 0.0], [1.085, '
                 '0.646240625180289], [1.585, 0.0]], "samples": [[0.585, 0.0], [1.085, '
                 '0.646240625180289], [1.585, 0.0]]}\n')

ENVELOPE_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">
<rect width="640" height="480" fill="white"/>
<line x1="60.00" y1="420.00" x2="580.00" y2="420.00" stroke="black"/>
<line x1="60.00" y1="420.00" x2="60.00" y2="60.00" stroke="black"/>
<line x1="60.00" y1="420.00" x2="60.00" y2="425.00" stroke="black"/>
<text x="60.00" y="440.00" font-size="11" text-anchor="middle">0.000</text>
<line x1="55.00" y1="420.00" x2="60.00" y2="420.00" stroke="black"/>
<text x="52.00" y="424.00" font-size="11" text-anchor="end">0.000</text>
<line x1="190.00" y1="420.00" x2="190.00" y2="425.00" stroke="black"/>
<text x="190.00" y="440.00" font-size="11" text-anchor="middle">0.421</text>
<line x1="55.00" y1="330.00" x2="60.00" y2="330.00" stroke="black"/>
<text x="52.00" y="334.00" font-size="11" text-anchor="end">0.263</text>
<line x1="320.00" y1="420.00" x2="320.00" y2="425.00" stroke="black"/>
<text x="320.00" y="440.00" font-size="11" text-anchor="middle">0.843</text>
<line x1="55.00" y1="240.00" x2="60.00" y2="240.00" stroke="black"/>
<text x="52.00" y="244.00" font-size="11" text-anchor="end">0.525</text>
<line x1="450.00" y1="420.00" x2="450.00" y2="425.00" stroke="black"/>
<text x="450.00" y="440.00" font-size="11" text-anchor="middle">1.264</text>
<line x1="55.00" y1="150.00" x2="60.00" y2="150.00" stroke="black"/>
<text x="52.00" y="154.00" font-size="11" text-anchor="end">0.788</text>
<line x1="580.00" y1="420.00" x2="580.00" y2="425.00" stroke="black"/>
<text x="580.00" y="440.00" font-size="11" text-anchor="middle">1.685</text>
<line x1="55.00" y1="60.00" x2="60.00" y2="60.00" stroke="black"/>
<text x="52.00" y="64.00" font-size="11" text-anchor="end">1.050</text>
<text x="320.00" y="465.00" font-size="13" text-anchor="middle">y</text>
<text x="18" y="240.00" font-size="13" text-anchor="middle" transform="rotate(-90 18 240.00)">f</text>
<polyline points="240.53,420.00 394.84,198.43 549.14,420.00" fill="none" stroke="steelblue" stroke-width="1.5"/>
<circle cx="227.10" cy="420.00" r="3.5" fill="crimson"/>
<circle cx="313.95" cy="244.49" r="3.5" fill="crimson"/>
<circle cx="410.51" cy="193.15" r="3.5" fill="crimson"/>
<circle cx="535.71" cy="244.49" r="3.5" fill="crimson"/>
</svg>
"""

SPECTRUM_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="480" viewBox="0 0 640 480">
<rect width="640" height="480" fill="white"/>
<line x1="60.00" y1="420.00" x2="580.00" y2="420.00" stroke="black"/>
<line x1="60.00" y1="420.00" x2="60.00" y2="60.00" stroke="black"/>
<line x1="60.00" y1="420.00" x2="60.00" y2="425.00" stroke="black"/>
<text x="60.00" y="440.00" font-size="11" text-anchor="middle">0.000</text>
<line x1="55.00" y1="420.00" x2="60.00" y2="420.00" stroke="black"/>
<text x="52.00" y="424.00" font-size="11" text-anchor="end">0.000</text>
<line x1="190.00" y1="420.00" x2="190.00" y2="425.00" stroke="black"/>
<text x="190.00" y="440.00" font-size="11" text-anchor="middle">0.403</text>
<line x1="55.00" y1="330.00" x2="60.00" y2="330.00" stroke="black"/>
<text x="52.00" y="334.00" font-size="11" text-anchor="end">0.263</text>
<line x1="320.00" y1="420.00" x2="320.00" y2="425.00" stroke="black"/>
<text x="320.00" y="440.00" font-size="11" text-anchor="middle">0.807</text>
<line x1="55.00" y1="240.00" x2="60.00" y2="240.00" stroke="black"/>
<text x="52.00" y="244.00" font-size="11" text-anchor="end">0.525</text>
<line x1="450.00" y1="420.00" x2="450.00" y2="425.00" stroke="black"/>
<text x="450.00" y="440.00" font-size="11" text-anchor="middle">1.210</text>
<line x1="55.00" y1="150.00" x2="60.00" y2="150.00" stroke="black"/>
<text x="52.00" y="154.00" font-size="11" text-anchor="end">0.788</text>
<line x1="580.00" y1="420.00" x2="580.00" y2="425.00" stroke="black"/>
<text x="580.00" y="440.00" font-size="11" text-anchor="middle">1.613</text>
<line x1="55.00" y1="60.00" x2="60.00" y2="60.00" stroke="black"/>
<text x="52.00" y="64.00" font-size="11" text-anchor="end">1.050</text>
<text x="320.00" y="465.00" font-size="13" text-anchor="middle">y</text>
<text x="18" y="240.00" font-size="13" text-anchor="middle" transform="rotate(-90 18 240.00)">f</text>
<circle cx="225.41" cy="420.00" r="3.5" fill="crimson"/>
<circle cx="365.77" cy="226.43" r="3.5" fill="crimson"/>
<circle cx="547.76" cy="226.43" r="3.5" fill="crimson"/>
</svg>
"""

# max-Deng at 1e308: every eps * t_i overflows, and the numerator is log2 5
# after the largest term is factored out; the 120-bit oracle gives the same
# D_alpha to the last bit
DIMENSION_CSV = ('alpha,D_alpha,numerator_bits,denominator_bits,note\n'
                 '-2.0,1.9658135394672127,2.321928094887362,1.1811537810023762,outside tabulated range\n'
                 '1e+308,2.441622534529879e-308,2.321928094887362,9.509775004326935e+307,\n'
                 '2.0,0.9212739087767148,2.321928094887362,2.5203450057219823,\n')

DIMENSION_JSON = ('{"rows": [{"alpha": -2.0, "D_alpha": 1.9658135394672127, '
                  '"numerator_bits": 2.321928094887362, "denominator_bits": 1.1811537810023762, '
                  '"note": "outside tabulated range"}, {"alpha": 1e+308, '
                  '"D_alpha": 2.441622534529879e-308, "numerator_bits": 2.321928094887362, '
                  '"denominator_bits": 9.509775004326935e+307, "note": null}, {"alpha": 2.0, '
                  '"D_alpha": 0.9212739087767148, "numerator_bits": 2.321928094887362, '
                  '"denominator_bits": 2.5203450057219823, "note": null}]}\n')

# the lone vacuous element at 1e308: its denominator alpha * log2 7 overflows
ERROR_ROW_CSV = ('alpha,D_alpha,numerator_bits,denominator_bits,note\n'
                 '-2.0,-0.5,2.807354922057604,-5.614709844115208,outside tabulated range\n'
                 '1e+308,,,,OrderOutOfRange\n'
                 '2.0,0.5,2.807354922057604,5.614709844115208,\n')

ERROR_ROW_JSON = ('{"rows": [{"alpha": -2.0, "D_alpha": -0.5, "numerator_bits": 2.807354922057604, '
                  '"denominator_bits": -5.614709844115208, "note": "outside tabulated range"}, '
                  '{"alpha": 1e+308, "error": "OrderOutOfRange"}, {"alpha": 2.0, "D_alpha": 0.5, '
                  '"numerator_bits": 2.807354922057604, "denominator_bits": 5.614709844115208, '
                  '"note": null}]}\n')

FAMILY_JSON = ('{"frame": ["h1", "h2", "h3"], "assignments": [{"subset": ["h1"], '
               '"mass": 0.05263157894736842}, {"subset": ["h2"], "mass": 0.05263157894736842}, '
               '{"subset": ["h3"], "mass": 0.05263157894736842}, {"subset": ["h1", "h2"], '
               '"mass": 0.15789473684210525}, {"subset": ["h1", "h3"], '
               '"mass": 0.15789473684210525}, {"subset": ["h2", "h3"], '
               '"mass": 0.15789473684210525}, {"subset": ["h1", "h2", "h3"], '
               '"mass": 0.3684210526315789}]}\n')

PINNED_OUTPUT = {
    ("envelope", "--n", "4", "--samples", "3"): ENVELOPE_CSV,
    ("envelope", "--n", "4", "--samples", "3", "--format", "json"): ENVELOPE_JSON,
    ("envelope", "--n", "4", "--samples", "3", "--format", "svg"): ENVELOPE_SVG,
    ("spectrum", "--family", "max-deng", "--n", "3", "--format", "svg"): SPECTRUM_SVG,
    ("dimension", "--family", "max-deng", "--n", "2", "--alpha=-2,1e308,2"): DIMENSION_CSV,
    ("dimension", "--family", "max-deng", "--n", "2", "--alpha=-2,1e308,2",
     "--format", "json"): DIMENSION_JSON,
    ("dimension", "--family", "vacuous", "--n", "3", "--alpha=-2,1e308,2"): ERROR_ROW_CSV,
    ("dimension", "--family", "vacuous", "--n", "3", "--alpha=-2,1e308,2",
     "--format", "json"): ERROR_ROW_JSON,
}


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUT))
def test_output_bytes_are_pinned(argv, capsys):
    code, captured = main_in_process(capsys, *argv)
    assert (code, captured.err) == (0, "")
    assert captured.out == PINNED_OUTPUT[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUT))
def test_output_file_holds_the_pinned_bytes(argv, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, captured = main_in_process(capsys, *argv, "--output", str(target))
    assert (code, captured.out, captured.err) == (0, "", "")
    assert target.read_bytes() == PINNED_OUTPUT[argv].encode("utf-8")


def test_family_emit_under_the_output_dir_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MASSFRACTAL_OUTPUT_DIR", str(tmp_path))
    code, captured = main_in_process(capsys, "family", "--family", "max-deng", "--n", "3",
                                     "--emit", "rel.json")
    assert (code, captured.out, captured.err) == (0, "", "")
    assert (tmp_path / "rel.json").read_bytes() == FAMILY_JSON.encode("utf-8")
