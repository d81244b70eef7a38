"""Built-in chart descriptions and the JSON description-file loader.

A manifold description is plain data: coordinate names, the contact form
and metric as expression strings, a sampling box, and default sample
count / seed. Parameters (like the anisotropy factor b) are bound by the
parser: each use of a parameter name parses as a numeric literal of its
value.

A chart compiles once per process. build() looks its structure up in one
small least-recently-used memo keyed on exactly what the compile reads:
the coordinate names, the theta and g texts, and the bits of the
parameter values, overrides included. Every spec with the same chart
text, loaded, built in code, replaced or built in, shares that structure,
whatever its name, box, points and seed. A compile that raises is not
kept, so a bad chart raises on every build().
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .contact import ContactStructure
from .errors import ParseError, SpecError, UnknownManifoldError
from .expressions import CONSTANTS, FUNCTIONS, is_identifier, parse_expr, pretty
from .forms import FormField
from .sampling import run_bound_violation

DEFAULT_POINTS = 100
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ManifoldSpec:
    """Declarative chart description; build() turns it into geometry.

    Every spec is checked when it is made, however it is made (in code,
    by dataclasses.replace or by load_spec): a field that build() or the
    sampler cannot use raises SpecError naming the field. The default
    point count and seed are checked as integers here; their bounds are
    one check, sampling.run_bound_violation, which load_spec makes on
    them and run_suites on the values a run uses.

    The sequences are kept as tuples and the box bounds and parameter
    values as floats. params is a read-only view of the spec's own copy
    of the mapping it was given, so a spec shared by every caller, such
    as a built-in, cannot be changed through it; dataclasses.replace
    gives a changed spec."""

    name: str
    coords: tuple[str, ...]
    theta: tuple[str, ...]
    g: tuple[tuple[str, ...], ...]
    box: tuple[tuple[float, float], ...]
    points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self)
        fields = {
            "coords": tuple(self.coords),
            "theta": tuple(self.theta),
            "g": tuple(tuple(row) for row in self.g),
            "box": tuple((float(lo), float(hi)) for lo, hi in self.box),
            "params": MappingProxyType({k: float(v) for k, v in self.params.items()}),
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # A mapping proxy cannot be pickled or deep-copied, so a spec
        # travels as its fields.
        return (
            type(self),
            (self.name, self.coords, self.theta, self.g, self.box, self.points, self.seed,
             dict(self.params)),
        )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def build(self, param_overrides: dict[str, float] | None = None) -> ContactStructure:
        """The chart's ContactStructure with the declared parameters, each
        overridden by its entry in param_overrides: the one structure in
        this process of the coordinates, theta and g texts and parameter
        bits, which the first build() of those parses and every later one,
        on any spec, returns while it is among the 16 most recently built.
        An override is checked as a declared parameter is: a bool or a
        string raises SpecError."""
        values = dict(self.params)
        for key, val in (param_overrides or {}).items():
            if key not in values:
                known = ", ".join(sorted(values)) or "none"
                raise SpecError(
                    f"unknown parameter {key!r} for manifold {self.name!r} "
                    f"(declared parameters: {known})"
                )
            _require(_is_number(val), f"params.{key}", "value must be a number")
            values[key] = float(val)
        return _compiled_chart(
            self.coords, self.theta, self.g, tuple((key, val.hex()) for key, val in values.items())
        )


@lru_cache(maxsize=16)
def _compiled_chart(coords, theta, g, param_bits) -> ContactStructure:
    """The memo behind build(): the parsed structure of the chart whose
    parameter values are given by their float.hex bits, so that 0.0 and
    -0.0, which parse to different trees, stay apart. A compile that
    raises is not kept."""
    values = {key: float.fromhex(val) for key, val in param_bits}
    for key, val in values.items():
        if not math.isfinite(val):
            raise SpecError(f"parameter {key!r} must be finite, got {val!r}")
    dim = len(coords)

    def parse_field(text: str, where: str):
        try:
            return parse_expr(text, coords, values)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc.message}", exc.offset) from exc

    theta_field = FormField.one_form([parse_field(theta[i], f"theta[{i}]") for i in range(dim)])
    g_exprs = tuple(
        tuple(parse_field(g[i][j], f"g[{i}][{j}]") for j in range(dim)) for i in range(dim)
    )
    # Symmetry as given: entries must print the same, which parsing gives
    # back exactly (a dataclass == would recurse over deep trees).
    for i in range(dim):
        for j in range(i + 1, dim):
            if pretty(g_exprs[i][j]) != pretty(g_exprs[j][i]):
                raise SpecError(f"not symmetric with g[{j}][{i}]", f"g[{i}][{j}]")
    return ContactStructure(coords, theta_field, g_exprs)


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SpecError(message, path)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, refused if it repeats a key: a file with
    two values for one field must not silently keep the last."""
    out = {}
    for key, value in pairs:
        _require(key not in out, key, "key appears more than once")
        out[key] = value
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_strings(v, n: int) -> bool:
    """Whether v is a list or tuple of n strings."""
    return isinstance(v, (list, tuple)) and len(v) == n and all(isinstance(e, str) for e in v)


def _check_fields(spec: ManifoldSpec) -> None:
    """Raise SpecError naming the first field of spec, in field order,
    that build() or the sampler cannot use."""
    _require(isinstance(spec.name, str) and spec.name, "name", "must be a non-empty string")

    coords = spec.coords
    _require(
        isinstance(coords, (list, tuple)) and coords and all(isinstance(c, str) for c in coords),
        "coords",
        "must be a non-empty list of strings",
    )
    dim = len(coords)
    _require(dim >= 3 and dim % 2 == 1, "coords", f"dimension must be odd and >= 3, got {dim}")
    _require(len(set(coords)) == dim, "coords", "names must be distinct")
    for i, name in enumerate(coords):
        # Constants and functions outrank coordinates in the parser, so the
        # name must read back as this coordinate.
        _require(
            is_identifier(name) and name not in FUNCTIONS and name not in CONSTANTS,
            f"coords[{i}]",
            f"{name!r} must be an identifier that names no built-in function or constant",
        )

    _require(_is_strings(spec.theta, dim), "theta", f"must be a list of {dim} expression strings")
    g = spec.g
    _require(isinstance(g, (list, tuple)) and len(g) == dim, "g", f"must be a {dim}x{dim} matrix")
    for i, row in enumerate(g):
        _require(_is_strings(row, dim), f"g[{i}]", f"must be a list of {dim} expression strings")

    box = spec.box
    _require(isinstance(box, (list, tuple)) and len(box) == dim, "box", f"must give {dim} intervals")
    for i, iv in enumerate(box):
        _require(
            isinstance(iv, (list, tuple)) and len(iv) == 2 and all(map(_is_number, iv)),
            f"box[{i}]",
            "must be a [lo, hi] pair of numbers",
        )
        # Infinity, NaN and integers too large for a float; the comparison
        # with float_info.max is exact for any integer.
        _require(
            all(abs(v) <= sys.float_info.max for v in iv)
            and math.isfinite(float(iv[1]) - float(iv[0])),
            f"box[{i}]",
            "bounds and their difference must be finite",
        )
        _require(iv[0] < iv[1], f"box[{i}]", "must have lo < hi")

    _require(_is_int(spec.points), "points", "must be an integer")
    _require(_is_int(spec.seed), "seed", "must be an integer")

    _require(isinstance(spec.params, Mapping), "params", "must be an object")
    for key, val in spec.params.items():
        _require(isinstance(key, str) and is_identifier(key), f"params.{key}", "name must be an identifier")
        _require(_is_number(val), f"params.{key}", "value must be a number")
        _require(key not in coords, f"params.{key}", "shadows a coordinate name")
        _require(
            key not in FUNCTIONS and key not in CONSTANTS,
            f"params.{key}",
            "shadows a built-in function or constant",
        )


_SQ = "(1 + u1^2 + u2^2 + u3^2)^2"

# The built-in chart descriptions, in a stable order, built once at
# import: every caller shares these spec objects.
_BUILTINS = (
    ManifoldSpec(
        name="heisenberg",
        coords=("x", "y", "z"),
        theta=("-y", "0", "1"),
        g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
        box=((-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)),
    ),
    ManifoldSpec(
        name="heisenberg-aniso",
        coords=("x", "y", "z"),
        theta=("-y", "0", "1"),
        g=(("1", "0", "0"), ("0", "b^2", "0"), ("0", "0", "0")),
        box=((-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)),
        params={"b": 2.0},
    ),
    ManifoldSpec(
        name="heisenberg-perturbed",
        coords=("x", "y", "z"),
        theta=("-y", "0", "1"),
        g=(("1", "0", "0"), ("0", "1 + x^2/4", "0"), ("0", "0", "0")),
        box=((-0.9, 0.9), (-0.9, 0.9), (-0.9, 0.9)),
    ),
    ManifoldSpec(
        name="sphere-chart",
        coords=("u1", "u2", "u3"),
        theta=(
            f"(-4*u2 - 4*u1*u3)/{_SQ}",
            f"(4*u1 - 4*u2*u3)/{_SQ}",
            f"(-2 + 2*(u1^2 + u2^2 + u3^2) - 4*u3^2)/{_SQ}",
        ),
        g=(
            (f"4/{_SQ}", "0", "0"),
            ("0", f"4/{_SQ}", "0"),
            ("0", "0", f"4/{_SQ}"),
        ),
        box=((-0.75, 0.75), (-0.75, 0.75), (-0.75, 0.75)),
    ),
    ManifoldSpec(
        name="n2-split",
        coords=("x1", "y1", "x2", "y2", "z"),
        theta=("-y1", "0", "-y2", "0", "1"),
        g=(
            ("1", "0", "0", "0", "0"),
            ("0", "1", "0", "0", "0"),
            ("0", "0", "c^2", "0", "0"),
            ("0", "0", "0", "c^2", "0"),
            ("0", "0", "0", "0", "0"),
        ),
        box=((-0.9, 0.9),) * 5,
        params={"c": 2.0},
    ),
)


def builtin_registry() -> list[ManifoldSpec]:
    """The built-in chart descriptions, in a stable order: a new list of
    the shared spec objects, whose build() without overrides returns each
    chart's one compiled structure."""
    return list(_BUILTINS)


def get_manifold(name: str) -> ManifoldSpec:
    """The shared built-in spec named name."""
    for spec in _BUILTINS:
        if spec.name == name:
            return spec
    raise UnknownManifoldError(name, tuple(s.name for s in _BUILTINS))


def load_spec(path: str) -> ManifoldSpec:
    """Load and fully validate a JSON manifold description.

    The JSON is decoded into a ManifoldSpec, which checks its own fields;
    this adds only what belongs to the file: the schema version, the
    optional dim, unknown fields, repeated keys, and the bounds of the
    default point count and seed. Structural problems raise SpecError
    naming the offending field path; expression syntax problems raise
    ParseError carrying the field path and the parser's offset message.
    Every call reads, decodes and checks the file again. Validation
    includes build(), so a returned spec is known to parse and to have a
    symmetric metric. That build() goes through the process's chart memo:
    the first load of a chart text compiles it, and every later load of
    the same coordinates, theta and g texts and parameter bits, from this
    file or any other and whatever its box, gets the structure already
    compiled, which the returned spec's build() gives too. A file whose
    chart fails to compile raises on every call.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc

    _require(isinstance(raw, dict), "$", "top level must be an object")
    _require(_is_int(raw.get("schema")) and raw["schema"] == 1, "schema", "must be 1")
    known = {"schema", "name", "dim", "coords", "theta", "g", "box", "points", "seed", "params"}
    for key in raw:
        _require(key in known, key, "unknown field")

    spec = ManifoldSpec(
        name=raw.get("name"),
        coords=raw.get("coords"),
        theta=raw.get("theta"),
        g=raw.get("g"),
        box=raw.get("box"),
        points=raw.get("points", DEFAULT_POINTS),
        seed=raw.get("seed", DEFAULT_SEED),
        params=raw.get("params", {}),
    )
    if "dim" in raw:
        _require(_is_int(raw["dim"]), "dim", "must be an integer")
        _require(raw["dim"] == spec.dim, "dim", f"does not match len(coords) = {spec.dim}")
    bad = run_bound_violation(spec.points, spec.seed)
    if bad:
        raise SpecError(bad[1], bad[0])

    # This build is the chart's one structure, so run_suites reuses it.
    spec.build()
    return spec
