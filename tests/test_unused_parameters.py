"""No function in the library takes a parameter that it never reads."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "contactconn"


def unused_parameters(source: str, filename: str) -> list[str]:
    """`file:line function(param)` for every parameter of every function
    in source that its body, nested functions included, never reads.
    self, cls and names starting with an underscore are exempt."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        found += [
            f"{filename}:{node.lineno} {node.name}({p})"
            for p in params
            if p not in read and p not in ("self", "cls") and not p.startswith("_")
        ]
    return found


def test_every_parameter_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += unused_parameters(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_scan_sees_nested_reads_and_flags_the_rest():
    source = (
        "def f(a, b, self, _c, *args, d=1, **kw):\n"
        "    def g():\n"
        "        return a\n"
        "    return g, kw\n"
    )
    assert unused_parameters(source, "m.py") == ["m.py:1 f(b)", "m.py:1 f(d)", "m.py:1 f(args)"]
