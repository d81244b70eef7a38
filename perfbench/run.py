"""Benchmark for contactconn: one workload per invocation.

    python3 perfbench/run.py --workload sphere-3d-all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/``. The run is single-process and single-threaded (BLAS pinned
to one thread) and drives the workload in a closed loop for
``--seconds``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run. Human-readable lines come
first; the last line of standard output is one JSON object. The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, so timings and
# float reduction order do not depend on the machine's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

from workloads import OUT_DIR, ROOT, SRC_DIR, WORKLOADS, CheckError
import tracer as tr

SETUP_REPEATS = 15
MIN_TRACED_PASSES = 2

PER_POINT = ("contact.adapted_frame", "jets.jet_linear_solve", "forms.FormField.d")

SETUP_TEMPLATE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import contactconn as cc
{build}
print(repr(time.perf_counter() - t0))
"""


def measure_setup(workload) -> float:
    """Median over fresh interpreters of importing the package and
    building the workload's chart."""
    code = SETUP_TEMPLATE.format(src=str(SRC_DIR), build=workload.setup_code)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the samples (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Loop:
    """Attempt and failure accounting around workload passes."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self):
        """One pass; returns its result and wall time, or None when it
        failed (the failure is printed to stderr)."""
        self.attempted += self.workload.calls_per_pass
        t0 = time.perf_counter()
        try:
            result = self.workload.run_pass()
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
        except Exception:
            traceback.print_exc()
        else:
            return result, time.perf_counter() - t0
        self.failed += self.workload.calls_per_pass
        return None


def end_to_end(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload)
    workload.prepare(seed)
    loop = Loop(workload)
    passes = []
    if loop.run() is not None:  # warm-up, checked but not timed
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            out = loop.run()
            if out is None:
                break
            passes.append(out)
    if not passes:
        return loop, {}, []

    latencies = [t for res, _ in passes for t in res.latencies_s]
    points = passes[0][0].usable_points
    call_p90_s = quantile(latencies, 0.9)
    # Rates and latencies come from the 90th percentile of single calls.
    # On a shared host, speed-ups that last minutes move the median of a
    # run by up to 30% but rarely reach the slowest tenth of its calls;
    # short calls let a brief slow spell still fill that tenth, where
    # passes of several calls average it away.
    metrics = {
        "points_per_s": (points / workload.calls_per_pass / call_p90_s, "points/s"),
        "call_p90_ms": (1e3 * call_p90_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [
        f"samples: {len(passes)} passes, {len(latencies)} calls "
        f"({workload.calls_per_pass} per pass, {points} usable points per pass)",
        f"call_p50_ms (not gated) = {1e3 * quantile(latencies, 0.5)!r} ms",
        f"error_rate: {loop.failed}/{loop.attempted}",
    ]
    return loop, metrics, notes


def per_layer(workload, seed: int, seconds: float):
    workload.prepare(seed)
    loop = Loop(workload)
    tracer = tr.Tracer()
    plain_walls = []
    traced = []
    ok = loop.run() is not None  # warm-up
    deadline = time.perf_counter() + seconds
    while ok and (time.perf_counter() < deadline or len(traced) < MIN_TRACED_PASSES):
        out = loop.run()
        if out is None:
            break
        plain_walls.append(out[1])
        tracer.reset()
        with tracer, tracer.root():
            out = loop.run()
        if out is None:
            break
        traced.append((out[0], tr.summarize(tracer.spans), tracer.jet_ops))
    if len(traced) < MIN_TRACED_PASSES or loop.failed:
        return loop, {}, []

    first_res, first, first_ops = traced[0]
    for _, summary, ops in traced[1:]:
        if summary["calls"] != first["calls"] or ops != first_ops:
            print("check failed: call counts differ between traced passes", file=sys.stderr)
            loop.failed += 1
            return loop, {}, []
    if tracer.missing:
        print(f"note: not found in the package: {', '.join(tracer.missing)}", file=sys.stderr)

    metrics = {}
    for name in tr.SPANNED:
        metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
        self_s = statistics.median(s["self_s"].get(name, 0.0) for _, s, _ in traced)
        metrics[f"{name}.self_s"] = (self_s, "s")
    points = first_res.usable_points
    metrics[tr.JET_OPS_NAME] = (first_ops, "count")
    metrics["report.bytes"] = (first_res.report_bytes, "bytes")
    for name in PER_POINT:
        metrics[f"{name}.per_point"] = (first["calls"].get(name, 0) / points, "calls/point")
    metrics["suites.usable_ratio"] = (points / first_res.requested_points, "ratio")
    traced_wall = statistics.median(s["wall_s"] for _, s, _ in traced)
    metrics["trace.overhead_ratio"] = (traced_wall / statistics.median(plain_walls), "ratio")
    metrics["trace.top_level_share"] = (
        statistics.median(s["top_level_s"] / s["wall_s"] for _, s, _ in traced),
        "ratio",
    )

    spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes = [
        f"samples: {len(traced)} traced passes, {len(plain_walls)} untraced passes",
        f"spans of the last traced pass: {spans_path.relative_to(ROOT)}",
    ]
    return loop, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC_DIR / "contactconn" / "__init__.py").is_file():
        print(f"error: no package source at {SRC_DIR / 'contactconn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    measure = per_layer if args.trace else end_to_end
    loop, metrics, notes = measure(workload, args.seed, args.seconds)
    correct = loop.failed == 0 and bool(metrics)

    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
