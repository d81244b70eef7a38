"""Per-layer tracing of contactconn from outside the package.

The package source stays untouched: the tracer replaces each wrapped
function with a timing wrapper in every contactconn module namespace
that binds it. ``from .jets import jet_linear_solve`` copies the name
into ``contact`` and ``forms``, so patching ``contactconn.jets`` alone
would miss those calls. Methods are patched on their class, which every
caller reaches through attribute lookup.

Spans nest: a span's self time is its duration minus the durations of
its direct children. Spans stay in memory until the caller reads them;
every patched binding is restored on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# Public entry points timed as spans, as "<module>.<name>" or
# "<module>.<Class>.<method>" under the contactconn package.
SPANNED = (
    "jets.eval_jet",
    "jets.jet_linear_solve",
    "forms.FormField.d",
    "forms.d_from_jets",
    "expressions.parse_expr",
    "registry.ManifoldSpec.build",
    "registry.load_spec",
    "contact.check_contact",
    "contact.adapted_frame",
    "contact.lambda_spectrum",
    "contact.reeb_field",
    "connection.canonical_partial_connection",
    "connection.promote",
    "connection.promotion_residual",
    "connection.nabla_H",
    "connection.partial_torsion",
    "connection.full_torsion",
    "tw3d.tw_coframe",
    "tw3d.solve_structure_equations",
    "tw3d.rotate_coframe",
    "tw3d.compare_partial",
    "tw3d.compare_full",
    "tw3d.check_rotation_covariance",
    "suites.run_suites",
    "suites._suite_contact",
    "suites._suite_canonical",
    "suites._suite_promotion",
    "suites._suite_tw_compare",
    "suites._suite_rotation",
    "sampling.sample_box",
    "report.render_report",
)

# Jet arithmetic, counted (not timed) under one name: a span per scalar
# jet operation would cost more than the operation itself.
JET_OPS_NAME = "jets.Jet.ops"
JET_OPS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "sqrt",
    "sin",
    "cos",
    "exp",
    "powi",
)

PACKAGE = "contactconn"
ROOT_NAME = "workload.pass"


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Context manager that patches the package while active.

    ``spans`` holds one ``(name, parent, t0, t1)`` tuple per finished
    call, in call order (a span's slot is reserved when it starts, so
    parents precede children); ``parent`` is an index into ``spans`` or
    -1. ``jet_ops`` counts Jet arithmetic calls. ``missing`` lists the
    entry points the package no longer has.
    """

    def __init__(self):
        self.spans: list = []
        self.jet_ops = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- patching -------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)

        return wrapper

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.jet_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, dotted: str) -> None:
        module_name, _, attr = dotted.rpartition(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        original = getattr(module, attr)
        wrapper = self._span_wrapper(dotted, original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _patch_method(self, module_name: str, cls_name: str, attr: str, wrapper) -> None:
        cls = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), cls_name)
        self._set(cls, attr, wrapper(cls.__dict__[attr]))

    def __enter__(self) -> "Tracer":
        self.missing = []
        try:
            for dotted in SPANNED:
                parts = dotted.split(".")
                try:
                    if len(parts) == 3:
                        self._patch_method(
                            parts[0], parts[1], parts[2],
                            functools.partial(self._span_wrapper, dotted),
                        )
                    else:
                        self._patch_function(dotted)
                except (AttributeError, KeyError):
                    # Renamed or removed by a refactor: reported, and its
                    # metrics read zero, instead of failing the run.
                    self.missing.append(dotted)
            for attr in JET_OPS:
                self._patch_method("jets", "Jet", attr, self._count_wrapper)
        except BaseException:
            self._undo()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._undo()

    def _undo(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- spans ----------------------------------------------------------

    @contextlib.contextmanager
    def root(self):
        """Span enclosing one workload pass; every layer span of the
        pass nests under it."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (ROOT_NAME, -1, t0, t1)

    def reset(self) -> None:
        self.spans.clear()
        self.jet_ops = 0


def summarize(spans) -> dict:
    """Aggregate finished spans into per-name call counts and self time,
    plus the root's wall time and the share of it covered by the root's
    direct children."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    wall = 0.0
    top_level = 0.0
    for i, (name, parent, t0, t1) in enumerate(spans):
        if name == ROOT_NAME:
            wall += t1 - t0
            top_level += child_s[i]
            continue
        calls[name] += 1
        self_s[name] += (t1 - t0) - child_s[i]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "wall_s": wall,
        "top_level_s": top_level,
    }
