"""README's library examples run, and its list of errors is the package's.

The examples are the ``python`` blocks of the Library section; the list is
the paragraph that opens "Every error is a `MassFractalError`", whose
backticked class names must be exactly the subclasses in ``errors.py``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import massfractal.errors as errors_module
from massfractal.errors import MassFractalError

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, flags=re.S | re.M)


def test_readme_has_two_python_blocks():
    assert len(PYTHON_BLOCKS) == 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=["first", "second"])
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_readme_error_list_names_exactly_the_package_errors():
    paragraph = re.search(r"^Every error is a `MassFractalError`.*?(?=\n\n)", README, flags=re.S | re.M)
    assert paragraph is not None
    named = set(re.findall(r"`([A-Z][A-Za-z]+)`", paragraph.group()))
    defined = {
        name for name, value in vars(errors_module).items()
        if isinstance(value, type) and issubclass(value, MassFractalError)
    }
    assert named - {"ValueError"} == defined
