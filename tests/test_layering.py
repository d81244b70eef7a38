"""The geometry layer imports nothing of the layers that judge and report.

expressions, jets, forms, contact, connection, tw3d and sampling compute
values; the suites hold the gates those values are judged against, and
report, registry and cli sit on top. An import from below into that top
layer, nested imports included, would let a tolerance or a verdict leak
back into the computing modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contactconn"

LOWER = ("expressions", "jets", "forms", "contact", "connection", "tw3d", "sampling")
UPPER = {"report", "suites", "registry", "cli"}


def package_imports(source: str, filename: str) -> set[str]:
    """The contactconn modules source imports anywhere, nested imports
    included: relative imports and absolute ones, as `from . import m`,
    `from .m import x`, `import contactconn.m` or `from contactconn.m
    import x`."""
    found = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "contactconn" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                head, _, rest = (node.module or "").partition(".")
                if head != "contactconn":
                    continue
            elif node.level == 1:
                rest = node.module or ""
            else:
                continue
            if rest:
                found.add(rest.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", LOWER)
def test_lower_layer_imports_no_upper_module(module):
    path = SRC / f"{module}.py"
    assert package_imports(path.read_text(encoding="utf-8"), path.name) & UPPER == set()


def test_scan_sees_every_import_form_and_nested_ones():
    source = (
        "import numpy as np\n"
        "from .jets import JetArray\n"
        "from . import forms\n"
        "import contactconn.sampling\n"
        "from contactconn.contact import ORDER\n"
        "from contactconn import errors\n"
        "def f():\n"
        "    from .report import render_report\n"
        "    return render_report\n"
    )
    assert package_imports(source, "m.py") == {
        "jets", "forms", "sampling", "contact", "errors", "report"
    }
