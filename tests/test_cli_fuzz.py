"""Property tests of the command line, run in-process.

Whatever the arguments and the input document, ``cli.main`` must end with
a documented exit code (0, 2, 3 or 4), print no traceback, and print no
``nan`` or ``inf`` in output that exited 0.  Each example calls ``cli.main``
in this process; ``SystemExit`` from argparse counts as an exit code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from massfractal import cli

NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def check_run(argv: list[str]) -> tuple[int, str, str]:
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert not NON_FINITE.search(out), (argv, out[:500])
    return code, out, err


# --- generators ---

# a tolerance or order as typed: mostly well-formed, sometimes not
REAL_TEXT = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e-9", "0", "-1", "nan", "inf", "-inf", "1e308", "x", ""]),
)

ORDER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-2.0, 0.0, 0.5, 1.0, 2.0, 29.0, 1e308, -1e308, 5e-324]),
    st.integers(-15, -1).map(lambda k: 1.0 + 10.0 ** k),
    st.integers(-15, -1).map(lambda k: 1.0 - 10.0 ** k),
)

ORDER_LISTS = st.one_of(
    st.lists(ORDER, min_size=1, max_size=5).map(lambda orders: ",".join(map(repr, orders))),
    st.sampled_from(["-2,1", "1,,2", "x", "", "-", "--n"]),
)

FRAME_SIZES = st.one_of(
    st.integers(-2, 40),
    st.integers(41, 1100),
    st.integers(1101, 10 ** 400),
    st.sampled_from([644, 645, 1023, 1024, 10 ** 12, 10 ** 400]),
)

LABELS = ["a", "b", "c", "d"]

MASS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10 ** 400), 10 ** 400),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -0.5, 1e308]),
    st.none(),
    st.booleans(),
    st.text(max_size=3),
)

SUBSET = st.lists(st.one_of(st.sampled_from(LABELS + ["zz", ""]), st.integers()), max_size=4)


@st.composite
def summing_documents(draw):
    """Documents whose masses sum to one, so that most of them evaluate."""
    frame = LABELS[: draw(st.integers(1, 4))]
    subsets = draw(st.lists(
        st.lists(st.sampled_from(frame), min_size=1, max_size=len(frame), unique=True),
        min_size=1, max_size=5, unique_by=frozenset,
    ))
    weights = draw(st.lists(st.integers(1, 8), min_size=len(subsets), max_size=len(subsets)))
    total = sum(weights)
    return {"frame": frame, "assignments": [
        {"subset": subset, "mass": weight / total} for subset, weight in zip(subsets, weights)
    ]}


DOCUMENTS = st.one_of(
    summing_documents().map(json.dumps),
    summing_documents().map(json.dumps),
    st.fixed_dictionaries({
        "frame": st.lists(st.sampled_from(LABELS + [""]), max_size=4),
        "assignments": st.lists(st.fixed_dictionaries({"subset": SUBSET, "mass": MASS}), max_size=5),
    }).map(json.dumps),
    st.text(max_size=30),
    st.sampled_from(["[]", "{}", '{"frame": ["a"], "assignments": {}}', "NaN", '{"frame": "a"']),
)


# --- properties ---

@FUZZ
@given(
    document=DOCUMENTS,
    command=st.sampled_from(["spectrum", "dimension"]),
    fmt=st.sampled_from(["csv", "json", "svg"]),
    orders=ORDER_LISTS,
    tolerance=st.one_of(st.none(), st.none(), REAL_TEXT),
)
@example(document='{"frame": ["a", "b"], "assignments": [{"subset": ["a"], "mass": NaN},'
                  ' {"subset": ["b"], "mass": 1.0}]}',
         command="spectrum", fmt="csv", orders="2", tolerance=None)
@example(document='{"frame": ["a"], "assignments": [{"subset": ["a"], "mass": 1.0}]}',
         command="dimension", fmt="csv", orders="0.5,1,2", tolerance=None)
def test_input_documents(document, command, fmt, orders, tolerance):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "masses.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document)
        argv = [command, "--input", path]
        if command == "dimension":
            argv += ["--alpha", orders, "--format", "json" if fmt == "svg" else fmt]
        else:
            argv += ["--format", fmt]
        if tolerance is not None:
            argv += ["--tolerance-sum", tolerance]
        check_run(argv)


@FUZZ
@given(
    command=st.sampled_from(["spectrum", "dimension", "sweep"]),
    family=st.sampled_from(cli.FAMILIES),
    n=FRAME_SIZES,
    orders=ORDER_LISTS,
    start=st.one_of(ORDER.map(repr), REAL_TEXT),
    span=st.sampled_from([0.0, 1.0, 7.5, 30.0, 1e12]),
    step=st.sampled_from(["1", "0.5", "4", "0", "-1", "nan", "1e-300"]),
    grouping=st.one_of(st.none(), st.none(), REAL_TEXT),
)
@example(command="spectrum", family="vacuous", n=10 ** 12, orders="2",
         start="1", span=1.0, step="1", grouping=None)
@example(command="dimension", family="uniform-singleton", n=10 ** 12, orders="2",
         start="1", span=1.0, step="1", grouping=None)
@example(command="dimension", family="vacuous", n=10 ** 400, orders="2",
         start="1", span=1.0, step="1", grouping=None)
@example(command="sweep", family="max-deng", n=3, orders="2",
         start="0", span=1e12, step="1", grouping=None)
def test_family_commands(command, family, n, orders, start, span, step, grouping):
    argv = [command, "--family", family, "--n", str(n)]
    if command == "dimension":
        argv += ["--alpha", orders]
    elif command == "sweep":
        try:
            stop = repr(float(start) + span)
        except ValueError:
            stop = "1"
        argv += [f"--alpha-start={start}", f"--alpha-stop={stop}", f"--alpha-step={step}"]
    elif grouping is not None:
        argv += [f"--tolerance-grouping={grouping}"]
    check_run(argv)


@settings(FUZZ, max_examples=60)
@given(
    n=st.one_of(st.integers(-1, 644), FRAME_SIZES),
    samples=st.one_of(st.integers(-1, 300), st.sampled_from([10 ** 7, 10 ** 400])),
    fmt=st.sampled_from(["csv", "json", "svg"]),
)
@example(n=10 ** 12, samples=101, fmt="csv")
@example(n=645, samples=101, fmt="svg")
def test_envelope(n, samples, fmt):
    check_run(["envelope", "--n", str(n), "--samples", str(samples), "--format", fmt])


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(cli.FAMILIES),
    n=st.integers(-1, 8),
    table=st.sampled_from(cli.TABLE_IDS + ("T7", "t1", "")),
)
@example(family="vacuous", n=10 ** 6, table="T1")
@example(family="uniform-singleton", n=10 ** 6, table="T4")
def test_family_and_table(family, n, table):
    check_run(["family", "--family", family, "--n", str(n)])
    check_run(["table", table])


# --- the pinned frame-size inputs, with their exit codes ---

@pytest.mark.parametrize("argv, code", [
    (["dimension", "--family", "vacuous", "--n", str(10 ** 12), "--alpha", "2"], 0),
    (["dimension", "--family", "uniform-singleton", "--n", str(10 ** 12), "--alpha", "2"], 0),
    (["spectrum", "--family", "uniform-singleton", "--n", str(10 ** 12)], 0),
    (["dimension", "--family", "vacuous", "--n", str(10 ** 400), "--alpha", "2"], 2),
    (["spectrum", "--family", "uniform-singleton", "--n", str(10 ** 400)], 2),
    (["envelope", "--n", str(10 ** 12)], 2),
    (["family", "--family", "vacuous", "--n", str(10 ** 6)], 2),
    (["family", "--family", "uniform-singleton", "--n", str(10 ** 6)], 2),
])
def test_large_frames_end_in_documented_codes(argv, code):
    assert check_run(argv)[0] == code
