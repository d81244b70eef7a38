"""The README's library example runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The first python block under the README's "## Library" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    frame, fc = namespace["frame"], namespace["fc"]
    cc = namespace["cc"]
    # The values its comments state.
    assert frame.mu.value == pytest.approx(1.0, abs=1e-14)
    assert cc.lambda_spectrum(frame) == (pytest.approx(1.0, abs=1e-12),)
    assert cc.full_torsion(fc).shape == (3, 3, 3)
    assert fc.coeffs.shape == (3, 3, 3)
