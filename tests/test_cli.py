"""CLI contract: argument grammar, report output, determinism, exit codes."""

import json

import pytest

from contactconn.cli import main
from contactconn.report import Report, SuiteResult


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


GOOD_SPEC = {
    "schema": 1,
    "name": "flat",
    "coords": ["x", "y", "z"],
    "theta": ["-y", "0", "1"],
    "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],
    "box": [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]],
    "points": 3,
    "seed": 5,
}


def write_spec(tmp_path, payload):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_passing_run(self, capsys):
        code, out, err = run(
            capsys, "analyze", "--manifold", "heisenberg", "--points", "3",
            "--suites", "contact,canonical",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["manifold"] == "heisenberg"
        assert doc["passed"] is True
        assert set(doc["suites"]) == {"contact", "canonical"}
        assert "PASS contact" in err and "PASS canonical" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("analyze", "--manifold", "heisenberg-perturbed", "--points", "4")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_default_suites_depend_on_dim(self, capsys):
        code, out, _ = run(capsys, "analyze", "--manifold", "n2-split", "--points", "2")
        assert code == 0
        assert set(json.loads(out)["suites"]) == {"contact", "canonical", "promotion"}
        code, out, _ = run(capsys, "analyze", "--manifold", "heisenberg", "--points", "2")
        assert code == 0
        assert set(json.loads(out)["suites"]) == {
            "contact", "canonical", "promotion", "tw-compare", "rotation",
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, err = run(
            capsys, "analyze", "--manifold", "heisenberg", "--points", "2",
            "--suites", "contact", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        body = target.read_text(encoding="utf-8")
        assert json.loads(body)["manifold"] == "heisenberg"
        assert body.endswith("\n")

    def test_param_override(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--manifold", "heisenberg-aniso", "--points", "2",
            "--suites", "contact", "--param", "b=3",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(rec["mu"] == pytest.approx(3.0, abs=1e-12) for rec in doc["points"])

    def test_verdict_names_the_tightest_gated_key(self, capsys):
        # r_invariance (2.2e-08 here) is reported and not gated; every
        # rotation gate is 1e-9 and omega_shift is the largest against it.
        # contact's is reeb, the frame's T against its theta_hat.
        code, _, err = run(
            capsys, "analyze", "--manifold", "heisenberg-aniso", "--param", "b=1e-4",
            "--points", "6", "--seed", "1",
        )
        assert code == 0
        lines = err.splitlines()
        assert "PASS rotation: 6 points, tightest omega_shift 3.638e-12 (gate 1e-09)" in lines
        assert "PASS contact: 6 points, tightest reeb 2.343e-21 (gate 1e-11)" in lines
        assert "r_invariance" not in err

    def test_zero_gate_is_tightest_only_when_its_value_is_positive(self):
        from contactconn.suites import _tightest

        gates = {"a": 1e-9, "lambda_positivity": 0.0, "b": 1e-8}
        assert _tightest({"a": 1e-12, "lambda_positivity": 0.0, "b": 5e-11}, gates) == "b"
        assert _tightest({"a": 1e-12, "lambda_positivity": 1e-300, "b": 1.0}, gates) == (
            "lambda_positivity"
        )
        # A tie goes to the first key; an ungated key never counts.
        assert _tightest({"a": 0.0, "lambda_positivity": 0.0, "b": 0.0}, gates) == "a"
        assert _tightest({"r": 5.0, "a": 1e-12}, {"r": None, "a": 1e-9}) == "a"

    def test_spec_is_parsed_once(self, capsys, tmp_path, monkeypatch):
        # The spec checks its coordinate names without parsing, and a cold
        # load_spec builds the structure once: 3 theta and 9 g expressions.
        # run_suites reuses that structure, and a second analyze of the
        # same text parses none. When load_spec checked each coordinate
        # name with a parse of its own, the first call made 3 more.
        import contactconn.registry as registry_mod

        calls = []
        real = registry_mod.parse_expr

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(registry_mod, "parse_expr", counted)
        registry_mod._compiled_chart.cache_clear()
        path = write_spec(tmp_path, GOOD_SPEC)
        argv = ("analyze", "--spec", path, "--suites", "contact")
        first = run(capsys, *argv)
        assert first[0] == 0
        assert len(calls) == 3 + 9
        assert run(capsys, *argv) == first
        assert len(calls) == 3 + 9

    def test_spec_file_input(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SPEC)
        code, out, _ = run(capsys, "analyze", "--spec", path, "--suites", "contact")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifold"] == "flat"
        assert doc["seed"] == 5
        assert doc["requested_points"] == 3

    def test_seed_and_points_override_spec(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SPEC)
        code, out, _ = run(
            capsys, "analyze", "--spec", path, "--suites", "contact",
            "--points", "2", "--seed", "99",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 99
        assert doc["requested_points"] == 2

    def test_skip_note_on_stderr(self, capsys, tmp_path):
        payload = dict(GOOD_SPEC, name="half", points=20, seed=42)
        payload["g"] = [["x", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
        payload["box"] = [[-0.9, 0.9]] * 3
        path = write_spec(tmp_path, payload)
        code, out, err = run(capsys, "analyze", "--spec", path, "--suites", "contact")
        assert code == 0
        assert "note: skipped 12 of 20 points" in err


    def test_undefined_input_point_is_skipped_not_fatal(self, capsys, tmp_path):
        payload = dict(GOOD_SPEC, name="sqrt-edge", points=10, seed=3)
        payload["theta"] = ["-y", "0", "sqrt(x)+1"]
        payload["box"] = [[-0.5, 0.9], [-0.9, 0.9], [-0.9, 0.9]]
        path = write_spec(tmp_path, payload)
        code, out, err = run(capsys, "analyze", "--spec", path)
        assert code == 0
        doc = json.loads(out)
        reasons = {r["reason"] for r in doc["points"] if r["skipped"]}
        assert reasons == {"sqrt of negative value in 'sqrt(x)'"}
        assert f"note: skipped {doc['skipped_points']} of 10 points" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_point_is_skipped_not_fatal(self, capsys, tmp_path):
        # The metric overflows towards x = 1.81: near there the frame's
        # linear systems hold values that are not finite.
        g = "1 + exp(409*(x - 0.9))"
        payload = dict(GOOD_SPEC, name="overflow", points=64, seed=3)
        payload["g"] = [[g, "0", "0"], ["0", g, "0"], ["0", "0", "0"]]
        payload["box"] = [[-0.9, 1.81], [-0.9, 0.9], [-0.9, 0.9]]
        path = write_spec(tmp_path, payload)
        code, out, _ = run(
            capsys, "analyze", "--spec", path, "--suites", "contact,canonical,promotion"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["requested_points"] - doc["skipped_points"] == 39
        reason = "values of the linear system are not finite in '<jet linear solve>'"
        overflowing = [r["point"][0] for r in doc["points"] if r.get("reason") == reason]
        assert len(overflowing) == 1 and overflowing[0] > 1.7


class TestExitCodes:
    def test_all_points_skipped_exits_two_naming_the_reason(self, capsys, tmp_path):
        # d(theta_z) = 1e308 + 1e308 is not finite anywhere.
        payload = dict(GOOD_SPEC, name="overflow-everywhere")
        payload["theta"] = ["-y", "0", "1 + 1e308*x + 1e308*x"]
        path = write_spec(tmp_path, payload)
        code, out, err = run(capsys, "analyze", "--spec", path)
        assert code == 2
        assert out == ""
        assert "all 3 sampled points were skipped" in err
        assert "3 points: value, gradient or Hessian is not finite" in err

    def test_failure_exits_one(self, capsys, monkeypatch):
        import contactconn.cli as cli_mod

        fake = Report(
            manifold="heisenberg", dim=3, seed=1, requested_points=1, skipped_points=0,
            suites=(SuiteResult(name="contact", passed=False, residuals={"duality": 0.5}, points_used=1),),
        )
        monkeypatch.setattr(cli_mod, "run_suites", lambda *a, **k: fake)
        code, out, err = run(capsys, "analyze", "--manifold", "heisenberg")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "FAIL contact" in err

    def test_unknown_manifold_exits_two(self, capsys):
        code, _, err = run(capsys, "analyze", "--manifold", "torus")
        assert code == 2
        assert err.startswith("error:")
        assert "torus" in err

    def test_bad_param_exits_two(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--manifold", "heisenberg-aniso", "--param", "b=large",
        )
        assert code == 2
        assert "not a number" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--param", "b", "error: --param expects NAME=VALUE, got 'b'"),
            ("--points", "x", "argument --points: invalid int value: 'x'"),
        ],
    )
    def test_malformed_flag_value_exits_two(self, capsys, flag, value, message):
        code, out, err = run(capsys, "analyze", "--manifold", "heisenberg-aniso", flag, value)
        assert (code, out) == (2, "")
        assert message in err

    def test_repeated_param_exits_two(self, capsys, monkeypatch):
        import contactconn.suites

        def refuse(*args, **kwargs):
            raise AssertionError("sampled despite a repeated --param")

        monkeypatch.setattr(contactconn.suites, "sample_box", refuse)
        code, out, err = run(
            capsys, "analyze", "--manifold", "heisenberg-aniso",
            "--param", "b=1", "--param", "b=3",
        )
        assert (code, out) == (2, "")
        assert "error: --param b: given more than once" in err

    def test_unavailable_suite_exits_two(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--manifold", "n2-split", "--suites", "rotation",
        )
        assert code == 2
        assert "unavailable for dim 5" in err

    def test_unknown_suite_exits_two(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--manifold", "heisenberg", "--suites", "spectra",
        )
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("suites", ["", ",", " "])
    def test_empty_suite_list_exits_two(self, capsys, suites):
        code, out, err = run(
            capsys, "analyze", "--manifold", "heisenberg-aniso", "--suites", suites,
        )
        assert (code, out) == (2, "")
        assert "no suites requested" in err

    def test_usage_error_exits_two(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == 2
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value", [("--points", "0"), ("--points", "-3"), ("--seed", "-1")]
    )
    def test_out_of_range_points_or_seed_exit_two_before_sampling(
        self, capsys, monkeypatch, flag, value
    ):
        import contactconn.suites

        def refuse(*args, **kwargs):
            raise AssertionError("sampled despite an invalid count or seed")

        monkeypatch.setattr(contactconn.suites, "sample_box", refuse)
        code, out, err = run(capsys, "analyze", "--manifold", "heisenberg", flag, value)
        assert code == 2
        assert out == ""
        bound = "at least 1" if flag == "--points" else "from 0 to 2^64 - 1"
        assert f"error: {flag} must be {bound}, got {value}" in err

    @pytest.mark.parametrize("value", [str(2**64), str(2**64 + 42), str(10**30)])
    def test_seed_of_two_to_the_64_or_more_exits_two_before_sampling(
        self, capsys, monkeypatch, value
    ):
        import contactconn.suites

        def refuse(*args, **kwargs):
            raise AssertionError("sampled despite an out-of-range seed")

        monkeypatch.setattr(contactconn.suites, "sample_box", refuse)
        code, out, err = run(capsys, "analyze", "--manifold", "heisenberg", "--seed", value)
        assert code == 2
        assert out == ""
        assert f"error: --seed must be from 0 to 2^64 - 1, got {value}" in err

    @pytest.mark.parametrize(
        "flag, value", [("--points", "0"), ("--seed", str(2**64))]
    )
    def test_out_of_range_flag_exits_two_before_the_spec_is_read(
        self, capsys, monkeypatch, tmp_path, flag, value
    ):
        import contactconn.cli

        def refuse(*args, **kwargs):
            raise AssertionError("read a spec despite an out-of-range flag")

        monkeypatch.setattr(contactconn.cli, "load_spec", refuse)
        monkeypatch.setattr(contactconn.cli, "get_manifold", refuse)
        for source in (("--spec", str(tmp_path / "nope.json")), ("--manifold", "heisenberg")):
            code, out, err = run(capsys, "analyze", *source, flag, value)
            assert (code, out) == (2, "")
            assert f"error: {flag} must be " in err

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--manifold", "heisenberg", "--points", "1",
            "--seed", str(2**64 - 1), "--suites", "contact",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1

    def test_smallest_points_and_seed_accepted(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--manifold", "heisenberg", "--points", "1", "--seed", "0",
            "--suites", "contact",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 0 and doc["requested_points"] == 1

    def test_missing_spec_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--spec", str(tmp_path / "nope.json"))
        assert code == 2
        assert err.startswith("error:")

    def test_bad_chart_exits_two_on_every_call(self, capsys, tmp_path):
        # A compile that raises is not kept, so every call reports it.
        from contactconn.registry import _compiled_chart

        _compiled_chart.cache_clear()
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=["-y", "0", "1 +"]))
        for _ in range(2):
            code, out, err = run(capsys, "analyze", "--spec", path, "--suites", "contact")
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "theta[2]" in err


class TestParserReuse:
    def fresh(self, capsys, *argv):
        from contactconn.cli import _build_parser

        _build_parser.cache_clear()
        return run(capsys, *argv)

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        import argparse

        from contactconn.cli import _build_parser

        builds = []
        real = argparse.ArgumentParser.add_subparsers

        def counted(self, **kwargs):
            builds.append(self.prog)
            return real(self, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        _build_parser.cache_clear()
        run(capsys, "list-manifolds")
        run(capsys, "analyze", "--manifold", "heisenberg", "--points", "1", "--suites", "contact")
        run(capsys, "analyze")
        assert builds == ["contactconn"]

    def test_param_does_not_carry_over(self, capsys):
        argv = ("analyze", "--manifold", "heisenberg-aniso", "--points", "2", "--suites", "contact")
        want = self.fresh(capsys, *argv)
        run(capsys, *argv, "--param", "b=3")
        assert run(capsys, *argv) == want
        want_b3 = self.fresh(capsys, *argv, "--param", "b=3")
        run(capsys, *argv, "--param", "b=5")
        assert run(capsys, *argv, "--param", "b=3") == want_b3

    @pytest.mark.parametrize(
        "bad",
        [
            ("analyze",),
            ("analyze", "--manifold", "heisenberg", "--spec", "x.json"),
            ("analyze", "--manifold", "heisenberg-aniso", "--param", "b=3", "--points", "0"),
            ("frobnicate",),
        ],
    )
    def test_usage_error_does_not_carry_over(self, capsys, bad):
        argv = ("analyze", "--manifold", "heisenberg-aniso", "--points", "2", "--suites", "contact")
        want = self.fresh(capsys, *argv)
        code, _, _ = run(capsys, *bad)
        assert code == 2
        assert run(capsys, *argv) == want


class TestListManifolds:
    def test_lists_all_builtins(self, capsys):
        code, out, _ = run(capsys, "list-manifolds")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("heisenberg ")
        assert any("n2-split" in ln and "dim=5" in ln for ln in lines)
        assert any("params: b=2.0" in ln for ln in lines)

    def test_output_is_stable(self, capsys):
        _, out, _ = run(capsys, "list-manifolds")
        assert out == (
            "heisenberg  dim=3  box=(-0.9, 0.9)x3\n"
            "heisenberg-aniso  dim=3  box=(-0.9, 0.9)x3 params: b=2.0\n"
            "heisenberg-perturbed  dim=3  box=(-0.9, 0.9)x3\n"
            "sphere-chart  dim=3  box=(-0.75, 0.75)x3\n"
            "n2-split  dim=5  box=(-0.9, 0.9)x5 params: c=2.0\n"
        )


class TestValidate:
    def test_valid_spec(self, capsys, tmp_path):
        path = write_spec(tmp_path, GOOD_SPEC)
        code, out, _ = run(capsys, "validate", "--spec", path)
        assert code == 0
        assert out.strip() == "OK: flat (dim 3, 3 points, seed 5)"

    def test_invalid_spec_exits_two(self, capsys, tmp_path):
        payload = dict(GOOD_SPEC)
        payload.pop("box")
        path = write_spec(tmp_path, payload)
        code, _, err = run(capsys, "validate", "--spec", path)
        assert code == 2
        assert "box" in err

    @pytest.mark.parametrize(
        "field, value", [("schema", True), ("schema", 1.0), ("dim", 3.0)]
    )
    def test_non_integer_schema_or_dim_exits_two(self, capsys, tmp_path, field, value):
        path = write_spec(tmp_path, dict(GOOD_SPEC, **{field: value}))
        code, out, err = run(capsys, "validate", "--spec", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize(
        "theta_z, offset",
        [("1e400*x", 0), ("x^(1/0)", 1), ("x^(1e400)", 3), ("x^(sqrt(0-1))", 1)],
    )
    def test_non_finite_number_exits_two_at_its_offset(self, capsys, tmp_path, theta_z, offset):
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=["-y", "0", theta_z]))
        code, _, err = run(capsys, "validate", "--spec", path)
        assert code == 2
        assert err.startswith("error: theta[2]: ") and f"(at offset {offset})" in err

    @pytest.mark.parametrize(
        "theta_x, message",
        [
            ("-y )", "unexpected trailing input ')' (at offset 3)"),
            ("x^y", "exponent must be an integer constant (at offset 1)"),
        ],
    )
    def test_parse_error_exits_two_naming_it(self, capsys, tmp_path, theta_x, message):
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=[theta_x, "0", "1"]))
        code, out, err = run(capsys, "validate", "--spec", path)
        assert (code, out, err) == (2, "", f"error: theta[0]: {message}\n")

    def test_non_ascii_digit_exits_two_at_its_offset(self, capsys, tmp_path):
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=["-y", "0", "1 + \u00b2"]))
        code, out, err = run(capsys, "validate", "--spec", path)
        assert (code, out, err) == (
            2, "", "error: theta[2]: unexpected character '\u00b2' (at offset 4)\n"
        )

    @pytest.mark.parametrize(
        "theta_z", ["(" * 198 + "x" + ")" * 198, "-" * 990 + "x"], ids=["parens", "minuses"]
    )
    def test_nesting_past_the_bound_exits_two_at_its_offset(self, capsys, tmp_path, theta_z):
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=["-y", "0", theta_z]))
        code, out, err = run(capsys, "validate", "--spec", path)
        assert (code, out, err) == (
            2, "", "error: theta[2]: expression nests deeper than 100 levels (at offset 100)\n"
        )

    def test_validate_requires_spec(self, capsys):
        code, _, _ = run(capsys, "validate")
        assert code == 2


def long_sum(first, term, n):
    """first followed by n - 1 copies of term, joined by ' + '."""
    return " + ".join([first] + [term] * (n - 1))


class TestLargeCharts:
    """Charts whose trees are thousands of levels deep: every walk of a
    tree but the bounded parser is a loop, so size is no limit."""

    @pytest.mark.parametrize(
        "theta_z, g01",
        [
            (long_sum("1", "0.0002*x", 5000), "0"),
            ("*".join(["(1+0.0002*x)"] * 5000), "0"),
            ("1", long_sum("0.00001*x", "0.00001*x", 5001)),
        ],
        ids=["sum", "product", "metric-entry"],
    )
    def test_validate_and_analyze_pass(self, capsys, tmp_path, theta_z, g01):
        g = [["1", g01, "0"], [g01, "1", "0"], ["0", "0", "0"]]
        path = write_spec(tmp_path, dict(GOOD_SPEC, theta=["-y", "0", theta_z], g=g, points=2))
        assert run(capsys, "validate", "--spec", path)[0] == 0
        code, out, _ = run(capsys, "analyze", "--spec", path, "--suites", "contact")
        assert code == 0 and json.loads(out)["passed"] is True

    def test_inputs_and_frames_pass_between_builds_of_one_deep_chart(self):
        # Charts are compared by their text, so a chart 5,000 levels deep
        # built twice is one chart, and a different one is refused.
        from contactconn import registry
        from contactconn.connection import canonical_partial_connection
        from contactconn.contact import adapted_frame, check_contact
        from contactconn.tw3d import tw_coframe

        def build(term):
            theta = ("-y", "0", long_sum("1", term, 5000))
            return registry.ManifoldSpec(
                "deep", ("x", "y", "z"), theta, GOOD_SPEC["g"], GOOD_SPEC["box"]
            ).build()

        cs1 = build("0.0002*x")
        registry._compiled_chart.cache_clear()
        cs2 = build("0.0002*x")
        other = build("0.0003*x")
        assert cs2 is not cs1
        p = (0.1, -0.2, 0.3)
        inputs = cs1.inputs_at(p)
        frame = adapted_frame(cs1, p, inputs=inputs)
        assert check_contact(cs2, p, inputs=inputs).passed
        assert adapted_frame(cs2, p, inputs=inputs).mu.value == frame.mu.value
        assert canonical_partial_connection(cs2, p, frame=frame).frame is frame
        assert tw_coframe(cs2, p, frame=frame) is frame

        def chart(term):
            theta = "-y, 0, " + " + ".join(["1"] + [term] * 4999)
            return f"coordinates (x, y, z), theta ({theta}), g (1, 0, 0; 0, 1, 0; 0, 0, 0)"

        given, own = chart("0.0002 * x"), chart("0.0003 * x")
        charts = f"on the chart with {given}, not on the chart with {own}"
        for call in (check_contact, adapted_frame):
            with pytest.raises(ValueError) as info:
                call(other, p, inputs=inputs)
            assert str(info.value) == f"inputs were evaluated {charts}"
        for call in (canonical_partial_connection, tw_coframe):
            with pytest.raises(ValueError) as info:
                call(other, p, frame=frame)
            assert str(info.value) == f"the frame was built {charts}"

    def test_a_domain_error_in_a_long_metric_entry_is_a_typed_skip(self, capsys, tmp_path):
        entry = "sqrt(" + " - ".join(["-1"] + ["0.001*x"] * 1000) + ")"
        g = [["1", entry, "0"], [entry, "1", "0"], ["0", "0", "0"]]
        path = write_spec(tmp_path, dict(GOOD_SPEC, g=g, points=2))
        assert run(capsys, "validate", "--spec", path)[0] == 0
        code, out, err = run(capsys, "analyze", "--spec", path, "--suites", "contact")
        assert (code, out) == (2, "")
        text = "sqrt(-1" + " - 0.001 * x" * 1000 + ")"
        assert f"2 points: sqrt of negative value in {text!r}" in err
