"""Report assembly and the canonical JSON rendering.

The rendering is byte-frozen: sorted keys, 17-significant-digit floats,
single line, trailing newline. Any change here breaks report
reproducibility and must be deliberate.
"""

import json
import math

import pytest

from contactconn.report import (
    SCHEMA_ID,
    PointRecord,
    Report,
    SuiteResult,
    _canon,
    render_report,
)


def small_report():
    return Report(
        manifold="demo",
        dim=3,
        seed=7,
        requested_points=2,
        skipped_points=1,
        suites=(
            SuiteResult(
                name="contact",
                passed=True,
                residuals={"duality": 2.5e-16, "zero": 0.0},
                points_used=1,
            ),
        ),
        points=(
            PointRecord(index=1, point=(0.5, -0.25, 1.0), skipped=True, reason="contact condition fails"),
            PointRecord(index=0, point=(0.1, 0.2, 0.3), skipped=False, mu=1.0, spectrum=(1.0,)),
        ),
    )


FROZEN = (
    '{"dim":3,"manifold":"demo","passed":true,"points":['
    '{"index":0,"lambda":[1],"mu":1,"point":[0.10000000000000001,'
    '0.20000000000000001,0.29999999999999999],"skipped":false},'
    '{"index":1,"point":[0.5,-0.25,1],"reason":"contact condition fails","skipped":true}],'
    '"requested_points":2,"schema":"contactconn-report/1","seed":7,"skipped_points":1,'
    '"suites":{"contact":{"passed":true,"points_used":1,'
    '"residuals":{"duality":2.5000000000000002e-16,"zero":0}}}}\n'
)


def loop_escaped(text: str) -> str:
    """A string's canonical JSON text by the per-character loop the
    serializer once ran, kept as the reference for its escape table."""
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


class TestRendering:
    def test_frozen_bytes(self):
        assert render_report(small_report()) == FROZEN

    def test_parses_back(self):
        doc = json.loads(render_report(small_report()))
        assert doc["schema"] == SCHEMA_ID
        assert doc["passed"] is True
        assert doc["suites"]["contact"]["residuals"]["duality"] == 2.5e-16

    def test_floats_round_trip(self):
        values = [1 / 3, math.pi, 1e-300, 6.02e23, -0.0]
        rep = Report(
            manifold="m",
            dim=3,
            seed=0,
            requested_points=0,
            skipped_points=0,
            suites=(
                SuiteResult(
                    name="s",
                    passed=True,
                    residuals={f"v{i}": v for i, v in enumerate(values)},
                    points_used=0,
                ),
            ),
        )
        doc = json.loads(render_report(rep))
        got = doc["suites"]["s"]["residuals"]
        for i, v in enumerate(values):
            assert got[f"v{i}"] == v

    def test_single_line_with_newline(self):
        text = render_report(small_report())
        assert text.endswith("\n")
        assert "\n" not in text[:-1]

    def test_keys_sorted(self):
        text = render_report(small_report())
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_points_sorted_by_index(self):
        doc = json.loads(render_report(small_report()))
        assert [p["index"] for p in doc["points"]] == [0, 1]

    def test_rejects_non_finite(self):
        rep = Report(
            manifold="m",
            dim=3,
            seed=0,
            requested_points=0,
            skipped_points=0,
            suites=(
                SuiteResult(name="s", passed=True, residuals={"r": math.nan}, points_used=0),
            ),
        )
        with pytest.raises(ValueError):
            render_report(rep)
        rep2 = Report(
            manifold="m",
            dim=3,
            seed=0,
            requested_points=0,
            skipped_points=0,
            suites=(
                SuiteResult(name="s", passed=True, residuals={"r": math.inf}, points_used=0),
            ),
        )
        with pytest.raises(ValueError):
            render_report(rep2)

    def test_string_escapes_match_the_loop(self):
        texts = [chr(i) for i in range(0x80)] + [
            "\x7f\x80", "\u00e9", "\u2028\u2029", "\ud7ff\ue000", "\U0001f600", "\ufeff",
            'a"b\\c\x00d\x1fe\u0394',
        ]
        for text in texts:
            assert _canon(text) == loop_escaped(text), repr(text)

    def test_string_escaping(self):
        rec = PointRecord(index=0, point=(0.0,), skipped=True, reason='say "no" \\ \t done')
        rep = Report(
            manifold="mé",
            dim=1,
            seed=0,
            requested_points=1,
            skipped_points=1,
            suites=(),
            points=(rec,),
        )
        doc = json.loads(render_report(rep))
        assert doc["manifold"] == "mé"
        assert doc["points"][0]["reason"] == 'say "no" \\ \t done'


class TestReportAssembly:
    def test_passed_is_conjunction(self):
        good = SuiteResult(name="a", passed=True, residuals={}, points_used=1)
        bad = SuiteResult(name="b", passed=False, residuals={}, points_used=1)
        rep = Report(
            manifold="m", dim=3, seed=0, requested_points=1, skipped_points=0,
            suites=(good, bad),
        )
        assert rep.passed is False
        rep2 = Report(
            manifold="m", dim=3, seed=0, requested_points=1, skipped_points=0,
            suites=(good,),
        )
        assert rep2.passed is True

    def test_duplicate_suite_names_rejected(self):
        a = SuiteResult(name="a", passed=True, residuals={}, points_used=1)
        rep = Report(
            manifold="m", dim=3, seed=0, requested_points=1, skipped_points=0,
            suites=(a, a),
        )
        with pytest.raises(ValueError, match="duplicate suite"):
            render_report(rep)

    def test_skipped_record_shape(self):
        doc = json.loads(render_report(small_report()))
        skipped = doc["points"][1]
        assert skipped["skipped"] is True
        assert "mu" not in skipped and "lambda" not in skipped
        live = doc["points"][0]
        assert live["mu"] == 1.0
        assert live["lambda"] == [1.0]
        assert "reason" not in live
