"""Built-in chart descriptions and the JSON description-file loader.

A manifold description is plain data: coordinate names, the contact form
and metric as expression strings, a sampling box, and default sample
count / seed. Parameters (like the anisotropy factor b) are bound by the
parser: each use of a parameter name parses as a numeric literal of its
value.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from .contact import ContactStructure
from .errors import ParseError, SpecError, UnknownManifoldError
from .expressions import CONSTANTS, FUNCTIONS, Coord, parse_expr
from .forms import FormField
from .sampling import SEED_LIMIT

DEFAULT_POINTS = 100
DEFAULT_SEED = 42


@dataclass(frozen=True)
class ManifoldSpec:
    """Declarative chart description; build() turns it into geometry."""

    name: str
    coords: tuple[str, ...]
    theta: tuple[str, ...]
    g: tuple[tuple[str, ...], ...]
    box: tuple[tuple[float, float], ...]
    points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    params: dict[str, float] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def build(self, param_overrides: dict[str, float] | None = None) -> ContactStructure:
        values = dict(self.params)
        for key, val in (param_overrides or {}).items():
            if key not in values:
                known = ", ".join(sorted(values)) or "none"
                raise SpecError(
                    f"unknown parameter {key!r} for manifold {self.name!r} "
                    f"(declared parameters: {known})"
                )
            values[key] = float(val)
        for key, val in values.items():
            if not math.isfinite(val):
                raise SpecError(f"parameter {key!r} must be finite, got {val!r}")

        def parse_field(text: str, where: str):
            try:
                return parse_expr(text, self.coords, values)
            except ParseError as exc:
                raise ParseError(f"{where}: {exc.message}", exc.offset) from exc

        theta = FormField.one_form(
            [parse_field(self.theta[i], f"theta[{i}]") for i in range(self.dim)]
        )
        g = tuple(
            tuple(parse_field(self.g[i][j], f"g[{i}][{j}]") for j in range(self.dim))
            for i in range(self.dim)
        )
        return ContactStructure(self.coords, theta, g, self.box)


def builtin_registry() -> list[ManifoldSpec]:
    """The built-in chart descriptions, in a stable order."""
    sq = "(1 + u1^2 + u2^2 + u3^2)^2"
    return [
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
                f"(-4*u2 - 4*u1*u3)/{sq}",
                f"(4*u1 - 4*u2*u3)/{sq}",
                f"(-2 + 2*(u1^2 + u2^2 + u3^2) - 4*u3^2)/{sq}",
            ),
            g=(
                (f"4/{sq}", "0", "0"),
                ("0", f"4/{sq}", "0"),
                ("0", "0", f"4/{sq}"),
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
    ]


def get_manifold(name: str) -> ManifoldSpec:
    for spec in builtin_registry():
        if spec.name == name:
            return spec
    raise UnknownManifoldError(name, tuple(s.name for s in builtin_registry()))


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SpecError(f"{path}: {message}")


def load_spec(path: str) -> ManifoldSpec:
    """Load and fully validate a JSON manifold description.

    Structural problems raise SpecError naming the offending field path;
    expression syntax problems raise ParseError carrying the field path
    and the parser's offset message. Validation includes a full build, so
    a returned spec is known to parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: not valid JSON ({exc})") from exc

    _require(isinstance(raw, dict), "$", "top level must be an object")
    _require(raw.get("schema") == 1, "schema", "must be 1")
    _require(isinstance(raw.get("name"), str) and raw["name"], "name", "must be a non-empty string")

    coords = raw.get("coords")
    _require(
        isinstance(coords, list) and coords and all(isinstance(c, str) for c in coords),
        "coords",
        "must be a non-empty list of strings",
    )
    dim = len(coords)
    _require(dim >= 3 and dim % 2 == 1, "coords", f"dimension must be odd and >= 3, got {dim}")
    _require(len(set(coords)) == dim, "coords", "names must be distinct")
    for i, name in enumerate(coords):
        # Constants and functions outrank coordinates in the parser, so the
        # name must read back as this coordinate.
        try:
            named = parse_expr(name, coords) == Coord(i, name)
        except ParseError:
            named = False
        _require(
            named,
            f"coords[{i}]",
            f"{name!r} must be an identifier that names no built-in function or constant",
        )
    if "dim" in raw:
        _require(raw["dim"] == dim, "dim", f"does not match len(coords) = {dim}")

    theta = raw.get("theta")
    _require(
        isinstance(theta, list) and len(theta) == dim and all(isinstance(t, str) for t in theta),
        "theta",
        f"must be a list of {dim} expression strings",
    )

    g = raw.get("g")
    _require(isinstance(g, list) and len(g) == dim, "g", f"must be a {dim}x{dim} matrix")
    for i, row in enumerate(g):
        _require(
            isinstance(row, list) and len(row) == dim and all(isinstance(e, str) for e in row),
            f"g[{i}]",
            f"must be a list of {dim} expression strings",
        )

    box = raw.get("box")
    _require(isinstance(box, list) and len(box) == dim, "box", f"must give {dim} intervals")
    box_t = []
    for i, iv in enumerate(box):
        _require(
            isinstance(iv, list) and len(iv) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in iv),
            f"box[{i}]",
            "must be a [lo, hi] pair of numbers",
        )
        # json reads Infinity and NaN, and integers too large for a float;
        # the comparison with float_info.max is exact for any integer.
        _require(
            all(abs(v) <= sys.float_info.max for v in iv)
            and math.isfinite(float(iv[1]) - float(iv[0])),
            f"box[{i}]",
            "bounds and their difference must be finite",
        )
        _require(iv[0] < iv[1], f"box[{i}]", "must have lo < hi")
        box_t.append((float(iv[0]), float(iv[1])))

    points = raw.get("points", DEFAULT_POINTS)
    _require(isinstance(points, int) and not isinstance(points, bool) and points > 0, "points", "must be a positive integer")
    seed = raw.get("seed", DEFAULT_SEED)
    _require(isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < SEED_LIMIT, "seed", "must be an integer from 0 to 2^64 - 1")

    params = raw.get("params", {})
    _require(isinstance(params, dict), "params", "must be an object")
    for key, val in params.items():
        _require(isinstance(key, str) and key.isidentifier(), f"params.{key}", "name must be an identifier")
        _require(
            isinstance(val, (int, float)) and not isinstance(val, bool),
            f"params.{key}",
            "value must be a number",
        )
        _require(key not in coords, f"params.{key}", "shadows a coordinate name")
        _require(
            key not in FUNCTIONS and key not in CONSTANTS,
            f"params.{key}",
            "shadows a built-in function or constant",
        )

    known = {"schema", "name", "dim", "coords", "theta", "g", "box", "points", "seed", "params"}
    for key in raw:
        _require(key in known, key, "unknown field")

    spec = ManifoldSpec(
        name=raw["name"],
        coords=tuple(coords),
        theta=tuple(theta),
        g=tuple(tuple(row) for row in g),
        box=tuple(box_t),
        points=points,
        seed=seed,
        params={k: float(v) for k, v in params.items()},
    )

    # Symmetry as given: entries must be the same expression up to
    # whitespace, compared structurally after parsing.
    subbed = spec.build()
    for i in range(dim):
        for j in range(i + 1, dim):
            if subbed.g[i][j] != subbed.g[j][i]:
                raise SpecError(f"g[{i}][{j}]: not symmetric with g[{j}][{i}]")
    return spec
