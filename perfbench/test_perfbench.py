"""Self-tests of the benchmark: the tracer, the output checks, the 7D
chart and the failure exit.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracer as tr  # noqa: E402
from workloads import (  # noqa: E402
    CHART_7D,
    ROOT,
    SRC_DIR,
    WORKLOADS,
    CheckError,
    check_report_summary,
    load_reference,
    summarize_report,
)

sys.path.insert(0, str(SRC_DIR))

import contactconn  # noqa: E402
from contactconn import cli  # noqa: E402

POINTS = 2


def _analyze(out: Path) -> bytes:
    argv = ["analyze", "--manifold", "heisenberg", "--points", str(POINTS), "--seed", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    return out.read_bytes()


def _traced_analyze(out: Path):
    tracer = tr.Tracer()
    with tracer, tracer.root():
        body = _analyze(out)
    return body, tr.summarize(tracer.spans), tracer.jet_ops, tracer.missing


def _bindings():
    """Every name bound in the package's namespaces and classes."""
    snap = {}
    for mod in tr._package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def test_traced_heisenberg_counts(tmp_path, capsys):
    plain = _analyze(tmp_path / "plain.json")
    body1, s1, ops1, missing = _traced_analyze(tmp_path / "t1.json")
    body2, s2, ops2, _ = _traced_analyze(tmp_path / "t2.json")
    capsys.readouterr()

    assert missing == []
    # Screening builds the frame twice, the contact suite once, tw-compare
    # twice and rotation once.
    assert s1["calls"]["contact.adapted_frame"] == 6 * POINTS
    assert s1["calls"] == s2["calls"] and ops1 == ops2 > 0
    assert body1 == body2 == plain
    assert s1["calls"]["suites.run_suites"] == 1
    for name in ("_suite_contact", "_suite_canonical", "_suite_promotion", "_suite_tw_compare", "_suite_rotation"):
        assert s1["calls"][f"suites.{name}"] == 1
    assert 0.95 < s1["top_level_s"] / s1["wall_s"] <= 1.0


def test_tracer_patches_copied_bindings_and_restores_them():
    before = _bindings()
    original = contactconn.jets.jet_linear_solve
    with tr.Tracer():
        for mod in (contactconn.jets, contactconn.contact, contactconn.forms, contactconn):
            assert mod.jet_linear_solve is not original
        assert contactconn.contact.jet_linear_solve is contactconn.forms.jet_linear_solve
        assert contactconn.Jet.__mul__ is not before[("contactconn.jets", "Jet", "__mul__")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_self_time_excludes_children():
    spans = [
        (tr.ROOT_NAME, -1, 0.0, 10.0),
        ("a", 0, 1.0, 9.0),
        ("b", 1, 2.0, 5.0),
        ("b", 1, 6.0, 7.0),
    ]
    s = tr.summarize(spans)
    assert s["calls"] == {"a": 1, "b": 2}
    assert s["self_s"] == {"a": 4.0, "b": 4.0}
    assert s["wall_s"] == 10.0 and s["top_level_s"] == 8.0


def test_chart_7d_validates_and_every_reference_point_is_usable(capsys):
    assert cli.main(["validate", "--spec", str(CHART_7D)]) == 0
    assert "dim 7" in capsys.readouterr().out
    for name in ("heis7-core", "sphere-3d-all"):
        cases = load_reference(name)["cases"]
        assert sorted(cases, key=int) == [str(c) for c in range(WORKLOADS[name].cases)]
        assert all(case["skipped"] == [] and case["passed"] for case in cases.values())


def test_report_check_rejects_a_last_digits_change(tmp_path):
    body = _analyze(tmp_path / "r.json")
    want = summarize_report(body)
    check_report_summary(summarize_report(body), want)

    report = json.loads(body)
    report["points"][0]["mu"] *= 1 + 1e-12
    with pytest.raises(CheckError):
        check_report_summary(summarize_report(json.dumps(report)), want)

    report = json.loads(body)
    report["suites"]["contact"]["points_used"] -= 1
    with pytest.raises(CheckError):
        check_report_summary(summarize_report(json.dumps(report)), want)


def test_run_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "lib3-point", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "lib3-point", "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
