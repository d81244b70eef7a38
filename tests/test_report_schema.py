"""The gates that docs/report-schema.md lists are the ones the suites use."""

import re
from pathlib import Path

from contactconn.suites import SUITES

SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"


def documented_gates() -> dict:
    """{suite: {key: tolerance or None}} from the residual-key table."""
    gates: dict = {}
    row = re.compile(r"^\| `([^`]+)` +\| `([^`]+)` +\|.*\| ([^|]+?) +\|$")
    for line in SCHEMA.read_text(encoding="utf-8").splitlines():
        match = row.match(line)
        if match:
            suite, key, gate = match.groups()
            tol = None if gate == "reported, not gated" else float(gate.removeprefix("< "))
            gates.setdefault(suite, {})[key] = tol
    return gates


def test_documented_gates_are_the_code_gates():
    assert documented_gates() == {name: suite.gates for name, suite in SUITES.items()}

