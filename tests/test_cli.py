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
        assert f"argument {flag}" in err
        assert f"must be at least {1 if flag == '--points' else 0}" in err

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
        assert "argument --seed" in err
        assert f"must be less than {2**64}, got {value}" in err

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


class TestListManifolds:
    def test_lists_all_builtins(self, capsys):
        code, out, _ = run(capsys, "list-manifolds")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("heisenberg ")
        assert any("n2-split" in ln and "dim=5" in ln for ln in lines)
        assert any("params: b=2.0" in ln for ln in lines)


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

    def test_validate_requires_spec(self, capsys):
        code, _, _ = run(capsys, "validate")
        assert code == 2
