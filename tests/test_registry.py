"""Built-in manifold descriptions and the JSON description loader."""

import copy
import dataclasses
import json
import math
import pickle

import pytest

from contactconn.errors import ParseError, SpecError, UnknownManifoldError
from contactconn.expressions import Lit, Unary, parse_expr
from contactconn.registry import (
    ManifoldSpec,
    builtin_registry,
    get_manifold,
    load_spec,
)


def write_spec(tmp_path, payload, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def count_parses(monkeypatch) -> list[str]:
    """Record the text of every expression the registry parses."""
    import contactconn.registry as registry_mod

    calls = []
    real = registry_mod.parse_expr

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(registry_mod, "parse_expr", counted)
    return calls


def valid_payload():
    return {
        "schema": 1,
        "name": "flat",
        "coords": ["x", "y", "z"],
        "theta": ["-y", "0", "1"],
        "g": [["1", "0", "0"], ["0", "a", "0"], ["0", "0", "0"]],
        "box": [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]],
        "points": 7,
        "seed": 3,
        "params": {"a": 1.5},
    }


class TestBuiltins:
    def test_names_and_dims(self):
        specs = builtin_registry()
        assert [s.name for s in specs] == [
            "heisenberg",
            "heisenberg-aniso",
            "heisenberg-perturbed",
            "sphere-chart",
            "n2-split",
        ]
        assert [s.dim for s in specs] == [3, 3, 3, 3, 5]

    def test_all_build(self):
        for spec in builtin_registry():
            cs = spec.build()
            assert cs.dim == spec.dim

    def test_lookup(self):
        assert get_manifold("sphere-chart").name == "sphere-chart"

    def test_unknown_name(self):
        with pytest.raises(UnknownManifoldError) as ei:
            get_manifold("klein-bottle")
        msg = str(ei.value)
        assert "klein-bottle" in msg
        assert "heisenberg" in msg and "n2-split" in msg

    def test_defaults(self):
        spec = get_manifold("heisenberg")
        assert spec.points == 100
        assert spec.seed == 42


class TestSharedSpecs:
    def test_builtins_are_shared_objects(self):
        specs = builtin_registry()
        assert specs is not builtin_registry()
        assert all(a is b for a, b in zip(specs, builtin_registry()))
        assert all(get_manifold(spec.name) is spec for spec in specs)

    def test_build_without_overrides_is_the_one_structure(self, monkeypatch):
        import contactconn.registry as registry_mod

        calls = count_parses(monkeypatch)
        # A cold compile parses each field once: 3 theta and 9 g entries.
        registry_mod._compiled_chart.cache_clear()
        spec = get_manifold("heisenberg-aniso")
        cs = spec.build()
        assert len(calls) == 3 + 9
        assert spec.build() is cs and spec.build({}) is cs and spec.build(None) is cs
        assert cs.dtheta is spec.build().dtheta
        assert cs.input_tape is spec.build().input_tape
        # An override equal to the declared value is the declared chart.
        assert spec.build({"b": 2.0}) is cs and spec.build({"b": 2}) is cs
        # A replaced spec with the same chart shares it.
        assert dataclasses.replace(spec).build() is cs
        assert len(calls) == 3 + 9

    def test_params_are_read_only(self):
        spec = get_manifold("heisenberg-aniso")
        with pytest.raises(TypeError):
            spec.params["b"] = 5
        assert spec.params == {"b": 2.0}
        changed = dataclasses.replace(spec, params={"b": 5.0})
        assert changed.params == {"b": 5.0} and spec.params == {"b": 2.0}
        with pytest.raises(TypeError):
            changed.params["b"] = 6
        # The spec keeps its own copy of the mapping it was given.
        given = {"a": 1.0}
        own = dataclasses.replace(spec, params=given)
        given["a"] = 2.0
        assert own.params == {"a": 1.0}
        for twin in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and twin.params == {"b": 2.0}

    def test_loaded_spec_keeps_its_validation_build(self, tmp_path, monkeypatch):
        import contactconn.registry as registry_mod

        spec = load_spec(write_spec(tmp_path, valid_payload()))
        calls = []
        monkeypatch.setattr(registry_mod, "parse_expr", lambda *a: calls.append(a))
        spec.build()
        assert calls == []


class TestChartMemo:
    """build() shares one structure per chart text and parameter bits in
    a process, through registry._compiled_chart."""

    @pytest.fixture(autouse=True)
    def cold(self):
        import contactconn.registry as registry_mod

        registry_mod._compiled_chart.cache_clear()

    def test_same_text_is_one_structure(self, tmp_path):
        path = write_spec(tmp_path, valid_payload())
        cs = load_spec(path).build()
        assert load_spec(path).build() is cs
        # The same chart in another file, with its own name, box, points
        # and seed, a spec built in code and a replaced spec share it too.
        other = dict(valid_payload(), name="other", box=[[-1, 1]] * 3, points=2, seed=9)
        assert load_spec(write_spec(tmp_path, other, "other.json")).build() is cs
        assert code_spec().build() is cs
        assert dataclasses.replace(code_spec(), name="renamed").build() is cs
        # The box is not read by the compile, whatever the sign of its zeros.
        assert code_spec(box=box_with(2, (-0.5, 0.25))).build() is cs
        assert code_spec(box=box_with(0, (0.0, 0.5))).build() is cs
        assert code_spec(box=box_with(0, (-0.0, 0.5))).build() is cs

    def test_second_load_parses_nothing(self, tmp_path, monkeypatch):
        path = write_spec(tmp_path, valid_payload())
        calls = count_parses(monkeypatch)
        load_spec(path)
        assert len(calls) == 3 + 9
        load_spec(path).build()
        code_spec().build()
        assert len(calls) == 3 + 9

    def test_chart_changes_give_other_structures(self):
        cs = code_spec().build()
        changed = [
            code_spec(g=(("1", "0", "0"), ("0", "a + 0", "0"), ("0", "0", "0"))),
            code_spec(params={"a": 2.5}),
            code_spec(coords=("x", "y", "w")),
            code_spec(theta=("-y", "0", "2")),
        ]
        built = [spec.build() for spec in changed]
        assert all(other is not cs for other in built)
        assert len({id(other) for other in built}) == len(built)

    def test_zero_and_negative_zero_parameters_stay_apart(self):
        plus = code_spec(params={"a": 0.0}).build()
        minus = code_spec(params={"a": -0.0}).build()
        assert plus is not minus
        # They parse to different trees.
        assert plus.g[1][1] == Lit(0.0) and minus.g[1][1] != plus.g[1][1]
        assert code_spec(params={"a": -0.0}).build() is minus
        # So do overrides of either sign of zero, which reach those two.
        assert code_spec().build({"a": 0.0}) is plus
        assert code_spec().build({"a": -0.0}) is minus

    def test_bad_chart_raises_on_every_call(self, tmp_path):
        bad = dict(valid_payload(), theta=["-y", "0", "1 +"])
        path = write_spec(tmp_path, bad)
        for _ in range(2):
            with pytest.raises(ParseError, match=r"^theta\[2\]"):
                load_spec(path)
        asym = code_spec(g=(("1", "x", "0"), ("0", "1", "0"), ("0", "0", "0")))
        for _ in range(2):
            with pytest.raises(SpecError, match="not symmetric"):
                asym.build()

    def test_overrides_share_the_memo(self, tmp_path, monkeypatch):
        spec = load_spec(write_spec(tmp_path, valid_payload()))
        cs = spec.build()
        calls = count_parses(monkeypatch)
        one = spec.build({"a": 2.5})
        assert one is not cs and len(calls) == 3 + 9
        # The same override bits give the same structure, with no parse,
        # and so does a spec that declares them.
        assert spec.build({"a": 2.5}) is one
        assert code_spec(params={"a": 2.5}).build() is one
        # The declared value as an override gives the declared structure.
        assert spec.build({"a": 1.5}) is cs
        assert len(calls) == 3 + 9
        with pytest.raises(SpecError, match=r"unknown parameter 'q'.*declared parameters: a\)"):
            spec.build({"a": 2.5, "q": 1.0})

    def test_bound_evicts_the_least_recent_chart(self, monkeypatch):
        import contactconn.registry as registry_mod

        bound = registry_mod._compiled_chart.cache_info().maxsize
        first = code_spec()
        cs = first.build()
        for k in range(bound - 1):
            code_spec(params={"a": 2.0 + k}).build()
        # Still among the most recent: served without a parse.
        calls = count_parses(monkeypatch)
        assert first.build() is cs and calls == []
        for k in range(bound):
            code_spec(params={"a": 100.0 + k}).build()
        again = first.build()
        assert again is not cs and len(calls) == bound * (3 + 9) + 3 + 9


class TestBuildParams:
    def test_override_changes_metric(self):
        spec = get_manifold("heisenberg-aniso")
        cs2 = spec.build()
        cs3 = spec.build({"b": 3.0})
        from contactconn.jets import eval_jet

        p = (0.1, 0.2, 0.3)
        assert eval_jet(cs2.g[1][1], p, 0).value == pytest.approx(4.0)
        assert eval_jet(cs3.g[1][1], p, 0).value == pytest.approx(9.0)

    def test_unknown_override_rejected(self):
        spec = get_manifold("heisenberg-aniso")
        with pytest.raises(SpecError, match="unknown parameter 'q'"):
            spec.build({"q": 1.0})

    @pytest.mark.parametrize("value", [True, "3"], ids=["bool", "string"])
    def test_override_must_be_a_number(self, value):
        # checked as a declared parameter is, not coerced by float()
        with pytest.raises(SpecError, match=r"^params\.b: value must be a number$"):
            get_manifold("heisenberg-aniso").build({"b": value})

    def test_override_on_parameterless_manifold(self):
        with pytest.raises(SpecError, match="declared parameters: none"):
            get_manifold("heisenberg").build({"b": 2.0})

    def test_substitution_is_word_bounded(self):
        # parameter b must not rewrite inside longer identifiers
        spec = ManifoldSpec(
            name="t",
            coords=("x", "y", "z"),
            theta=("-y", "0", "1"),
            g=(("b", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-1, 1),) * 3,
            params={"b": 2.0},
        )
        cs = spec.build()
        from contactconn.jets import eval_jet

        assert eval_jet(cs.g[0][0], (0.0, 0.0, 0.0), 0).value == 2.0

    def test_parameter_binds_as_literal(self):
        # a bound name parses to the tree of its parenthesized repr;
        # functions, constants and coordinates take precedence
        coords = ("x", "y", "z")
        assert parse_expr("b*x", coords, {"b": 2.0}) == parse_expr("(2.0)*x", coords)
        assert parse_expr("b", coords, {"b": -1.5}) == Unary("neg", Lit(1.5))
        assert parse_expr("b", coords, {"b": -0.0}) == parse_expr("(-0.0)", coords)
        assert parse_expr("e", coords, {"e": 2.0}) == Lit(math.e)

    def test_parse_error_offset_is_into_user_text(self):
        spec = ManifoldSpec(
            name="t",
            coords=("x", "y", "z"),
            theta=("-y", "0", "b + )"),
            g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-1, 1),) * 3,
            params={"b": 2.0},
        )
        with pytest.raises(ParseError, match=r"theta\[2\]:") as info:
            spec.build()
        assert info.value.offset == 4

    def test_non_finite_parameter_rejected(self):
        with pytest.raises(SpecError, match="parameter 'b' must be finite"):
            get_manifold("heisenberg-aniso").build({"b": float("inf")})

    def test_parse_error_carries_field_path(self):
        spec = ManifoldSpec(
            name="t",
            coords=("x", "y", "z"),
            theta=("-y", "0", "1 +"),
            g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-1, 1),) * 3,
        )
        with pytest.raises(ParseError, match=r"theta\[2\]:"):
            spec.build()


def code_spec(**changes):
    """The spec valid_payload describes, built in code, with changes."""
    spec = ManifoldSpec(
        name="flat",
        coords=("x", "y", "z"),
        theta=("-y", "0", "1"),
        g=(("1", "0", "0"), ("0", "a", "0"), ("0", "0", "0")),
        box=((-0.5, 0.5),) * 3,
        points=7,
        seed=3,
        params={"a": 1.5},
    )
    return dataclasses.replace(spec, **changes)


def box_with(i, interval):
    box = [(-0.5, 0.5)] * 3
    box[i] = interval
    return tuple(box)


class TestSpecBuiltInCode:
    """The twins of TestLoadSpec's rejections: a spec built in code gets
    the checks a loaded one does. The schema version, dim and unknown
    fields exist only in a file; the bounds of the default point count
    and seed are run bounds, which run_suites checks (see TestRunBounds in
    test_suites)."""

    def test_valid_spec_matches_the_loaded_one(self, tmp_path):
        loaded = load_spec(write_spec(tmp_path, valid_payload()))
        assert code_spec() == loaded
        assert code_spec(box=((-1, 1),) * 3).box == ((-1.0, 1.0),) * 3

    @pytest.mark.parametrize(
        "changes, path_fragment",
        [
            (dict(name=""), "name"),
            (dict(theta=None), "theta"),
            (dict(coords=("x", "y")), "coords"),
            (dict(coords=("x", "y", "x")), "coords"),
            (dict(coords="xyz"), "coords"),
            (dict(theta=("-y", "0")), "theta"),
            (dict(g=(("1",),)), "g"),
            (dict(g=(("1", "0", "0"), ("0", "1"), ("0", "0", "0"))), r"g\[1\]"),
            (dict(box=((-1, 1),)), "box"),
            (dict(box=box_with(0, (1, -1))), r"box\[0\]"),
            (dict(box=box_with(2, (0, True))), r"box\[2\]"),
            (dict(box=((0.5, 0.1),) * 3), r"box\[0\]: must have lo < hi"),
            (dict(points=True), "points"),
            (dict(points=2.5), "points"),
            (dict(seed=1.5), "seed"),
            (dict(params={"x": 2.0}), r"params\.x: shadows a coordinate"),
            (dict(params={"a": "big"}), r"params\.a"),
        ],
    )
    def test_schema_violations(self, changes, path_fragment):
        with pytest.raises(SpecError, match=path_fragment):
            code_spec(**changes)

    @pytest.mark.parametrize(
        "changes, path_fragment",
        [
            (dict(coords=("x", "y", "e"), theta=("-y", "0", "1 + e")), r"coords\[2\]"),
            (dict(coords=("pi", "y", "z")), r"coords\[0\]"),
            (dict(coords=("x", "y", "sin")), r"coords\[2\]"),
            (dict(coords=("x", "y", "2 z")), r"coords\[2\]"),
            (dict(coords=("x", "", "z")), r"coords\[1\]"),
            (dict(coords=("x", "y", " z")), r"coords\[2\]"),
            (dict(coords=("x", "y", "z\u00b7w")), r"coords\[2\]"),
            (dict(box=box_with(0, (-0.5, math.inf))), r"box\[0\]"),
            (dict(box=box_with(1, (-math.inf, 0.5))), r"box\[1\]"),
            (dict(box=box_with(2, (-1e308, 1e308))), r"box\[2\]"),
            (dict(box=box_with(2, (0, 10**400))), r"box\[2\]"),
            (dict(box=box_with(0, (0.0, math.nan))), r"box\[0\]"),
        ],
    )
    def test_unusable_coordinate_or_box_rejected(self, changes, path_fragment):
        with pytest.raises(SpecError, match=path_fragment):
            code_spec(**changes)

    def test_asymmetric_metric_rejected(self):
        spec = code_spec(g=(("1", "x", "0"), ("0", "a", "0"), ("0", "0", "0")))
        with pytest.raises(SpecError, match=r"g\[0\]\[1\]: not symmetric"):
            spec.build()
        with pytest.raises(SpecError, match=r"g\[0\]\[1\]: not symmetric"):
            spec.build({"a": 2.0})

    def test_symmetry_compares_parsed_form(self):
        spec = code_spec(g=(("1", "x* y", "0"), ("(x)*y", "a", "0"), ("0", "0", "0")))
        assert spec.build().g[0][1] == spec.build().g[1][0]

    def test_parameter_names_follow_the_identifier_token(self):
        # A parameter is accepted exactly when an expression can name it.
        spec = code_spec(
            params={"b\u00b2": 1.5}, g=(("1", "0", "0"), ("0", "b\u00b2", "0"), ("0", "0", "0"))
        )
        assert spec.build().g[1][1] == Lit(1.5)
        with pytest.raises(SpecError, match=r"^params\.a\u00b7b: name must be an identifier$") as info:
            code_spec(params={"a\u00b7b": 2.0})
        assert info.value.field == "params.a\u00b7b"

    @pytest.mark.parametrize("name", ["e", "sin"])
    def test_parameter_shadowing_a_builtin_rejected(self, name):
        with pytest.raises(SpecError, match=rf"params\.{name}: shadows a built-in"):
            code_spec(params={name: 2.0})

    def test_changed_builtins_are_checked(self):
        # Each of these once ran through run_suites: the reversed box
        # sampled inside its intervals, and x bound as a parameter.
        base = get_manifold("heisenberg")
        with pytest.raises(SpecError, match=r"box\[0\]: must have lo < hi"):
            dataclasses.replace(base, box=((0.5, 0.1),) * 3)
        with pytest.raises(SpecError, match=r"box\[0\]: bounds and their difference"):
            dataclasses.replace(base, box=((0.0, math.inf),) * 3)
        with pytest.raises(SpecError, match=r"params\.x: shadows a coordinate name"):
            dataclasses.replace(base, params={"x": 1.0})

    def test_fields_are_kept_as_tuples_and_floats(self):
        spec = code_spec(coords=["x", "y", "z"], g=[["1", "0", "0"], ["0", "a", "0"], ["0", "0", "0"]],
                         box=[[-1, 1]] * 3, params={"a": 2})
        assert spec.coords == ("x", "y", "z")
        assert spec.g[1] == ("0", "a", "0")
        assert spec.box == ((-1.0, 1.0),) * 3 and type(spec.box[0][0]) is float
        assert type(spec.params["a"]) is float
        assert hash(spec.coords) == hash(("x", "y", "z"))


class TestLoadSpec:
    def test_round_trip(self, tmp_path):
        spec = load_spec(write_spec(tmp_path, valid_payload()))
        assert spec.name == "flat"
        assert spec.dim == 3
        assert spec.points == 7
        assert spec.seed == 3
        assert spec.params == {"a": 1.5}
        assert spec.box[0] == (-0.5, 0.5)
        spec.build()

    def test_seed_bounds(self, tmp_path):
        # The generator takes its seed mod 2^64, so the largest seed a
        # description may give is 2^64 - 1.
        for seed in (0, 2**64 - 1):
            assert load_spec(write_spec(tmp_path, dict(valid_payload(), seed=seed))).seed == seed
        for seed in (2**64, 2**64 + 42):
            with pytest.raises(SpecError, match=rf"seed: must be from 0 to 2\^64 - 1, got {seed}"):
                load_spec(write_spec(tmp_path, dict(valid_payload(), seed=seed)))

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(str(path))

    @pytest.mark.parametrize("extra, key", [
        (', "theta": ["0", "-x", "1"]', "theta"),
        (', "params": {"a": 1.5, "a": 2.5}', "a"),
    ], ids=["top-level", "nested"])
    def test_rejects_repeated_key(self, tmp_path, extra, key):
        payload = valid_payload()
        del payload["params"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload)[:-1] + extra + "}", encoding="utf-8")
        with pytest.raises(SpecError, match=f"^{key}: key appears more than once$"):
            load_spec(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_spec(str(tmp_path / "absent.json"))

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda d: d.pop("theta"), "theta"),
            (lambda d: d.update(schema=2), "schema"),
            (lambda d: d.update(schema=True), "schema"),
            (lambda d: d.update(schema=1.0), "schema"),
            (lambda d: d.update(coords=["x", "y"]), "coords"),
            (lambda d: d.update(coords=["x", "y", "x"]), "coords"),
            (lambda d: d.update(dim=5), "dim"),
            (lambda d: d.update(dim=3.0), "dim: must be an integer"),
            (lambda d: d.update(dim=True), "dim: must be an integer"),
            (lambda d: d.update(theta=["-y", "0"]), "theta"),
            (lambda d: d.update(g=[["1"]]), "g"),
            (lambda d: d["g"].__setitem__(1, ["0", "1"]), r"g\[1\]"),
            (lambda d: d.update(box=[[-1, 1]]), "box"),
            (lambda d: d["box"].__setitem__(0, [1, -1]), r"box\[0\]"),
            (lambda d: d["box"].__setitem__(2, [0, True]), r"box\[2\]"),
            (lambda d: d.update(points=0), "points"),
            (lambda d: d.update(points=True), "points"),
            (lambda d: d.update(seed=-1), "seed"),
            (lambda d: d.update(params={"x": 2.0}), r"params\.x"),
            (lambda d: d.update(params={"a": "big"}), r"params\.a"),
            (lambda d: d.update(extra=1), "extra"),
        ],
    )
    def test_schema_violations(self, tmp_path, mutate, path_fragment):
        payload = valid_payload()
        mutate(payload)
        with pytest.raises(SpecError, match=path_fragment):
            load_spec(write_spec(tmp_path, payload))

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            # e would parse as Euler's constant, so z could never enter theta
            (lambda d: d.update(coords=["x", "y", "e"], theta=["-y", "0", "1 + e"]), r"coords\[2\]"),
            (lambda d: d.update(coords=["pi", "y", "z"]), r"coords\[0\]"),
            (lambda d: d.update(coords=["x", "y", "sin"]), r"coords\[2\]"),
            (lambda d: d.update(coords=["x", "y", "2 z"]), r"coords\[2\]"),
            (lambda d: d.update(coords=["x", "", "z"]), r"coords\[1\]"),
            # a Python identifier that the expression grammar cannot read
            (lambda d: d.update(coords=["x", "y", "z\u00b7w"]), r"coords\[2\]"),
            (lambda d: d["box"].__setitem__(0, [-0.5, math.inf]), r"box\[0\]"),
            (lambda d: d["box"].__setitem__(1, [-math.inf, 0.5]), r"box\[1\]"),
            (lambda d: d["box"].__setitem__(2, [-1e308, 1e308]), r"box\[2\]"),
            (lambda d: d["box"].__setitem__(2, [0, 10**400]), r"box\[2\]"),
        ],
    )
    def test_unusable_coordinate_or_box_rejected(self, tmp_path, mutate, path_fragment):
        payload = valid_payload()
        mutate(payload)
        with pytest.raises(SpecError, match=path_fragment):
            load_spec(write_spec(tmp_path, payload))

    def test_asymmetric_metric_rejected(self, tmp_path):
        payload = valid_payload()
        payload["g"][0][1] = "x"
        with pytest.raises(SpecError, match=r"g\[0\]\[1\]: not symmetric"):
            load_spec(write_spec(tmp_path, payload))

    def test_error_field_is_the_path_its_message_names(self, tmp_path):
        # SpecError.field carries the path the message starts with, for a
        # file, a code-built spec and a metric that is not symmetric.
        payload = valid_payload()
        payload["box"][0] = [1, -1]
        with pytest.raises(SpecError) as exc:
            load_spec(write_spec(tmp_path, payload))
        assert (exc.value.field, str(exc.value)) == ("box[0]", "box[0]: must have lo < hi")
        with pytest.raises(SpecError) as exc:
            code_spec(coords=("x", "y", "x"))
        assert (exc.value.field, str(exc.value)) == ("coords", "coords: names must be distinct")
        with pytest.raises(SpecError) as exc:
            code_spec(g=(("1", "x", "0"), ("0", "1", "0"), ("0", "0", "0"))).build()
        assert (exc.value.field, str(exc.value)) == (
            "g[0][1]", "g[0][1]: not symmetric with g[1][0]"
        )

    def test_symmetry_compares_parsed_form(self, tmp_path):
        # equal up to whitespace and redundant parens is still symmetric
        payload = valid_payload()
        payload["g"][0][1] = "x* y"
        payload["g"][1][0] = "(x)*y"
        spec = load_spec(write_spec(tmp_path, payload))
        assert spec.g[0][1] == "x* y"

    def test_parameter_shadowing_a_constant_rejected(self, tmp_path):
        # a parameter named e would otherwise stand in for Euler's constant
        payload = valid_payload()
        payload["g"][1][1] = "e"
        payload["params"] = {"e": 2.0}
        with pytest.raises(SpecError, match=r"params\.e: shadows a built-in"):
            load_spec(write_spec(tmp_path, payload))

    def test_parameter_shadowing_a_function_rejected(self, tmp_path):
        payload = valid_payload()
        payload["theta"][2] = "1 + sin(x)"
        payload["params"] = {"sin": 1.0}
        with pytest.raises(SpecError, match=r"params\.sin: shadows a built-in"):
            load_spec(write_spec(tmp_path, payload))

    def test_bad_expression_names_field(self, tmp_path):
        payload = valid_payload()
        payload["theta"][1] = "sin("
        with pytest.raises(ParseError, match=r"theta\[1\]:"):
            load_spec(write_spec(tmp_path, payload))
