"""No function in the library takes a parameter that it never reads,
no module of the library or its tests imports a name it never reads,
and the package exports no name that only its tests use."""

import ast
import re
from pathlib import Path

import contactconn

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "contactconn"


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


def unused_imports(source: str, filename: str) -> list[str]:
    """`file:line name` for every name an import in source binds that the
    module, nested scopes included, never reads. __future__ imports and
    the names the module's __all__ lists are exempt."""
    nodes = list(ast.walk(ast.parse(source, filename)))
    read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in nodes:
        targets = getattr(node, "targets", [])
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in targets):
            read |= set(ast.literal_eval(node.value))
    found = []
    for node in nodes:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            names = (a.asname or a.name.split(".")[0] for a in node.names)
            found += [(node.lineno, name) for name in names if name != "*" and name not in read]
    return [f"{filename}:{line} {name}" for line, name in sorted(found)]


def test_every_import_is_read():
    found = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        found += unused_imports(path.read_text(encoding="utf-8"), path.name)
    assert found == []


def test_import_scan_sees_every_binding_and_exempts_the_rest():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from json import dumps, loads as read\n"
        "__all__ = ['dumps']\n"
        "def f():\n"
        "    import math\n"
        "    return os.sep\n"
    )
    assert unused_imports(source, "m.py") == ["m.py:2 system", "m.py:3 read", "m.py:6 math"]


def unread_exports(exports, sources, docs: str) -> list[str]:
    """The names in exports that no module in sources loads, as a name or
    as an attribute, and that the text docs does not name as code: as
    the exact code span `NAME`, as cc.NAME or contactconn.NAME, or as
    NAME( . A bare word of prose, such as a symbol's name in a formula,
    does not count."""
    read = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    named = set(re.findall(r"`(\w+)`", docs))
    named |= set(re.findall(r"\b(?:cc|contactconn)\.(\w+)", docs))
    named |= set(re.findall(r"(\w+)\(", docs))
    return [name for name in exports if name not in read and name not in named]


def test_every_export_is_read_or_documented():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    docs = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    sources = [p.read_text(encoding="utf-8") for p in modules]
    text = "\n".join(p.read_text(encoding="utf-8") for p in docs)
    assert unread_exports(contactconn.__all__, sources, text) == []


def test_export_scan_sees_names_attributes_and_doc_words():
    sources = ["def f(x):\n    return g(x).h\n", "k = 1\nm.n = 2\n"]
    exports = ["g", "h", "k", "n", "p", "q", "r"]
    assert unread_exports(exports, sources, "call p(), not q_r") == ["k", "n", "q", "r"]
    # A bare word is prose, not the name of an export; a code span, a
    # qualified name or a call names one.
    docs = "the coframe s, then `t`, `u.v`, cc.w, contactconn.x and y (z)"
    exports = ["s", "t", "u", "v", "w", "x", "y", "z"]
    assert unread_exports(exports, [], docs) == ["s", "u", "v", "y", "z"]
