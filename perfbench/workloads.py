"""The benchmark's workloads and the checks on their outputs.

Each workload is driven in passes. A pass is the unit that repeats
identically within one invocation: whole ``contactconn analyze`` calls,
one per chosen analyze seed, for the analyze workloads, one sweep of
library call chains over a fixed set of points for the library workload. Every pass is checked:
exit status and verdict, agreement with the stored reference, and
byte-identical reports across the passes of one invocation.

Inputs come from the benchmark seed: it picks a subset of the analyze
seeds, or of the library point pool, whose expected outputs are stored
under ``reference/`` (written by ``make_reference.py``). Every call in a
pass is timed on its own; a call handles one point on every workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CHART_7D = BENCH_DIR / "charts" / "heis7.json"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

# Relative agreement with the reference: the equivalence tolerance a
# reimplementation of the jet layer must meet.
REL_TOL = 1e-13

# Library point pool: LIB_POOL points of the chart's box drawn with
# LIB_POOL_SEED; each invocation sweeps LIB_SWEEP of them.
LIB_MANIFOLD = "heisenberg-perturbed"
LIB_POOL = 256
LIB_POOL_SEED = 2016
LIB_SWEEP = 32


class CheckError(Exception):
    """An output differs from what the benchmark expects."""


@dataclass
class PassResult:
    usable_points: int
    requested_points: int
    latencies_s: list[float]
    report_bytes: int = 0


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _check_floats(what: str, got, want, scale=None) -> None:
    """Each value within REL_TOL of the reference, relative to the
    reference value or to ``scale`` when given."""
    if len(got) != len(want):
        raise CheckError(f"{what}: {len(got)} values, reference has {len(want)}")
    for k, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > REL_TOL * (abs(w) if scale is None else scale):
            raise CheckError(f"{what}[{k}]: {g!r} differs from reference {w!r}")


def summarize_report(body: bytes) -> dict:
    """The parts of an analyze report the benchmark checks."""
    report = json.loads(body)
    usable = [p for p in report["points"] if not p["skipped"]]
    return {
        "passed": report["passed"],
        "requested_points": report["requested_points"],
        "skipped": [p["index"] for p in report["points"] if p["skipped"]],
        "suites": {
            name: s["points_used"] for name, s in sorted(report["suites"].items())
        },
        "mu": [p["mu"] for p in usable],
        "lambda": [p["lambda"] for p in usable],
    }


def check_report_summary(got: dict, want: dict) -> None:
    if got["passed"] is not True:
        raise CheckError("report verdict is not passed")
    for key in ("requested_points", "skipped", "suites"):
        if got[key] != want[key]:
            raise CheckError(f"{key}: {got[key]!r} differs from reference {want[key]!r}")
    _check_floats("mu", got["mu"], want["mu"])
    if len(got["lambda"]) != len(want["lambda"]):
        raise CheckError("lambda: point count differs from reference")
    for k, (g, w) in enumerate(zip(got["lambda"], want["lambda"])):
        _check_floats(f"lambda[{k}]", g, w)


class AnalyzeWorkload:
    """Closed loop of in-process ``contactconn analyze`` calls, each
    rendering its report and writing it to a file. A pass makes one call
    for each of ``calls`` analyze seeds that the benchmark seed picks
    from the ``cases`` seeds with stored references."""

    # One point per call, so that calls are short: see the rate in run.py.
    points = 1

    def __init__(self, name: str, source: list[str], setup_code: str, suites: str, calls: int, cases: int):
        self.name = name
        self.source = source
        self.setup_code = setup_code
        self.suites = suites
        self.calls_per_pass = calls
        self.cases = cases

    def prepare(self, seed: int) -> None:
        reference = load_reference(self.name)["cases"]
        self.chosen = random.Random(seed).sample(range(self.cases), self.calls_per_pass)
        self.expected = {case: reference[str(case)] for case in self.chosen}
        self.out_path = OUT_DIR / f"{self.name}-report.json"
        self.first_body = {}
        self.usable = {}

    def argv(self, case: int, out_path: Path) -> list[str]:
        return [
            "analyze",
            *self.source,
            "--suites", self.suites,
            "--points", str(self.points),
            "--seed", str(case),
            "--out", str(out_path),
        ]

    def run_case(self, case: int, out_path: Path) -> tuple[int, float]:
        """One analyze call; returns its exit code and wall time."""
        from contactconn import cli

        argv = self.argv(case, out_path)
        with contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            t1 = time.perf_counter()
        return rc, t1 - t0

    def run_pass(self) -> PassResult:
        latencies = []
        report_bytes = 0
        for case in self.chosen:
            rc, elapsed = self.run_case(case, self.out_path)
            if rc != 0:
                raise CheckError(f"analyze seed {case} exited with code {rc}")
            body = self.out_path.read_bytes()
            if case not in self.first_body:
                summary = summarize_report(body)
                check_report_summary(summary, self.expected[case])
                self.first_body[case] = body
                self.usable[case] = self.points - len(summary["skipped"])
            elif body != self.first_body[case]:
                raise CheckError(f"analyze seed {case}: report bytes differ between repeats")
            latencies.append(elapsed)
            report_bytes += len(body)
        usable = sum(self.usable.values())
        return PassResult(usable, self.points * len(self.chosen), latencies, report_bytes)


def lib_chain(cs, p):
    """The per-point library chain from the README's Library section.
    Returns the jets checked against the reference: mu, A, B, R."""
    import contactconn as cc

    frame = cc.adapted_frame(cs, p)
    conn = cc.canonical_partial_connection(cs, p, frame=frame)
    cc.promote(conn)
    cf = cc.tw_coframe(cs, p)
    td = cc.solve_structure_equations(cf)
    return frame.mu, td.A, td.B, td.R


def lib_pool() -> list[tuple[float, ...]]:
    import contactconn as cc

    return cc.sample_box(cc.get_manifold(LIB_MANIFOLD).box, LIB_POOL, LIB_POOL_SEED)


class LibraryWorkload:
    """Closed loop of single-point library call chains, each timed."""

    name = "lib3-point"
    calls_per_pass = LIB_SWEEP
    setup_code = f"cc.get_manifold({LIB_MANIFOLD!r}).build()"

    def prepare(self, seed: int) -> None:
        import contactconn as cc

        self.cs = cc.get_manifold(LIB_MANIFOLD).build()
        pool = lib_pool()
        reference = load_reference(self.name)["points"]
        chosen = random.Random(seed).sample(range(LIB_POOL), LIB_SWEEP)
        self.points = [pool[i] for i in chosen]
        self.expected = [reference[i] for i in chosen]
        for p, want in zip(self.points, self.expected):
            if list(p) != want["point"]:
                raise CheckError(f"sampled point {p!r} differs from reference {want['point']!r}")

    def run_pass(self) -> PassResult:
        latencies = []
        clock = time.perf_counter
        for p, want in zip(self.points, self.expected):
            t0 = clock()
            jets = lib_chain(self.cs, p)
            latencies.append(clock() - t0)
            got = [j.value for j in jets]
            ref = [want[k] for k in ("mu", "A", "B", "R")]
            # A, B and R can vanish; compare them on the scale of the point's
            # largest invariant.
            _check_floats(f"chain at {p!r}", got, ref, max(1.0, *map(abs, ref)))
        return PassResult(len(self.points), len(self.points), latencies)


WORKLOADS = {
    "sphere-3d-all": AnalyzeWorkload(
        "sphere-3d-all",
        ["--manifold", "sphere-chart"],
        "cc.get_manifold('sphere-chart').build()",
        "contact,canonical,promotion,tw-compare,rotation",
        calls=8,
        cases=64,
    ),
    "heis7-core": AnalyzeWorkload(
        "heis7-core",
        ["--spec", str(CHART_7D)],
        f"cc.load_spec({str(CHART_7D)!r}).build()",
        "contact,canonical,promotion",
        calls=1,
        cases=16,
    ),
    "lib3-point": LibraryWorkload(),
}
