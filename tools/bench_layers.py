"""Per-layer cost of `analyze` in dimensions 3, 5 and 7.

Runs the suite pipeline in-process on three charts: sphere-chart with
all five suites (dim 3), n2-split (dim 5) and the 7D Heisenberg chart of
perfbench (dim 7), both with the core suites. Each pass is one `analyze`
of POINTS points (run_suites plus render_report); the untraced passes
give the wall time per usable point, then the same passes run under
perfbench's tracer, extended to every layer in LAYERS that perfbench
does not span (ContactStructure.inputs_at, which runs the input tape,
and jets.jet_cholesky, the frame's Cholesky factor) and without its
jet-operation counter, for each layer's self time per usable point, and
once more with jets.contract (every sum of products over an axis) and
the product rule counted, the contractions and the products each split
by the jet order they ran at, and with the JetArrays built counted.
Each chart also gets the per-call cost of compiling it from its
description file, the call `analyze --spec` makes: load_spec, build()
and the input tape, cold (the process's chart memo cleared before the
call) and warm (the same call again right after), timed over COMPILES
pairs per pass, and the per-call cost of one contact.rotate_frame by
tests/form_helpers.cayley_rotation at the chart's first sample point
(its own box, points and seed), timed over ROTATIONS calls per pass.
Prints one JSON object with the medians over passes.

    python3 tools/bench_layers.py [--src PATH] [--passes N] [--points N]

--src names the source checkout to measure, its 7D chart included
(default: this one), so two commits can be measured with the same
script and tracer. --points sets the points of each analyze (default
4). BLAS should run on one thread (OPENBLAS_NUM_THREADS=1), as
perfbench pins it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHARTS = (
    ("sphere-chart", 3, ("contact", "canonical", "promotion", "tw-compare", "rotation")),
    ("n2-split", 5, ("contact", "canonical", "promotion")),
    ("heis7", 7, ("contact", "canonical", "promotion")),
)
POINTS = 4
ROTATIONS = 100
COMPILES = 100

LAYERS = (
    "contact.ContactStructure.inputs_at",
    "jets.jet_cholesky",
    "contact.check_contact",
    "contact.adapted_frame",
    "contact.rotate_frame",
    "connection.canonical_partial_connection",
    "connection.promote",
    "connection.promotion_residual",
    "tw3d.solve_structure_equations",
    "tw3d.rotate_coframe",
    "suites._suite_contact",
    "suites._suite_canonical",
    "suites._suite_promotion",
    "suites._suite_tw_compare",
    "suites._suite_rotation",
)


def chart_file(spec, folder: Path) -> Path:
    """spec written as a description file in folder."""
    path = folder / f"{spec.name}.json"
    fields = {
        "schema": 1,
        "name": spec.name,
        "coords": list(spec.coords),
        "theta": list(spec.theta),
        "g": [list(row) for row in spec.g],
        "box": [list(iv) for iv in spec.box],
        "params": dict(spec.params),
    }
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def compile_seconds(registry, path: Path, passes: int) -> dict:
    """Seconds per load_spec(path) + build() + input_tape, one value per
    pass, each the mean of COMPILES calls: cold, with the chart memo
    cleared before each call (a checkout without the memo compiles on
    every call), and warm, the same call right after each cold one."""
    memo = getattr(registry, "_compiled_chart", None)

    def call():
        t0 = time.perf_counter()
        registry.load_spec(str(path)).build().input_tape
        return time.perf_counter() - t0

    times = {"cold": [], "warm": []}
    for _ in range(passes):
        cold = warm = 0.0
        for _ in range(COMPILES):
            if memo is not None:
                memo.cache_clear()
            cold += call()
            warm += call()
        times["cold"].append(cold / COMPILES)
        times["warm"].append(warm / COMPILES)
    return times


def rotate_seconds(spec, passes: int) -> list[float]:
    """Seconds per rotate_frame call, one value per pass, on the frame at
    the first point of spec's own sample and a Cayley Q of order 2."""
    from contactconn.contact import adapted_frame, rotate_frame
    from contactconn.sampling import sample_box
    from form_helpers import cayley_rotation

    cs = spec.build()
    p = sample_box(spec.box, spec.points, spec.seed)[0]
    frame = adapted_frame(cs, p)
    Q = cayley_rotation(p, 0)
    rotate_frame(frame, Q)  # warm-up
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        for _ in range(ROTATIONS):
            rotate_frame(frame, Q)
        times.append((time.perf_counter() - t0) / ROTATIONS)
    return times


def measure(src: Path, passes: int, points: int) -> dict:
    sys.path.insert(0, str(src / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tests"))
    import numpy as np
    import tracer as tr

    tr.SPANNED = tuple(tr.SPANNED) + tuple(x for x in LAYERS if x not in tr.SPANNED)
    # Jet arithmetic is not reported here, so it is not wrapped either: a
    # counting wrapper on every jet operation would weigh on the self
    # times of whichever commit routes more arithmetic through jets.Jet.
    tr.JET_OPS = ()
    from contactconn import jets, registry
    from contactconn.report import render_report
    from contactconn.suites import run_suites

    heis7 = src / "perfbench" / "charts" / "heis7.json"
    out = {"points": points}
    for name, dim, suites in CHARTS:
        if name == "heis7":
            spec = registry.load_spec(str(heis7))
        else:
            spec = registry.get_manifold(name)

        def analyze(seed):
            rep = run_suites(spec, list(suites), points=points, seed=seed)
            render_report(rep)
            return rep.requested_points - rep.skipped_points

        usable = analyze(1)  # warm-up
        walls = []
        for s in range(passes):
            t0 = time.perf_counter()
            usable = analyze(1 + s)
            walls.append((time.perf_counter() - t0) / usable)
        self_s = {layer: [] for layer in LAYERS}
        for s in range(passes):
            tracer = tr.Tracer()
            with tracer, tracer.root():
                usable = analyze(1 + s)
            summary = tr.summarize(tracer.spans)
            for layer in LAYERS:
                self_s[layer].append(summary["self_s"].get(layer, 0.0) / usable)

        contracts = {f"order{k}": 0 for k in range(3)}
        products = {f"order{k}": 0 for k in range(3)}
        arrays = {"all": 0}
        real = jets.contract
        real_mul = jets._mul_rule
        real_init = jets.JetArray.__init__

        def counted_init(self, *args):
            arrays["all"] += 1
            real_init(self, *args)

        def counted_mul(k, *parts):
            products[f"order{k}"] += 1
            return real_mul(k, *parts)

        def counted(a, b):
            contracts[f"order{min(a.top, b.top)}"] += 1
            return real(a, b)

        bound = [
            (mod, key)
            for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("contactconn")
            for key, value in list(vars(mod).items())
            if value is real
        ]
        for mod, key in bound:
            setattr(mod, key, counted)
        jets._mul_rule = counted_mul
        jets.JetArray.__init__ = counted_init
        try:
            usable = analyze(1)
        finally:
            for mod, key in bound:
                setattr(mod, key, real)
            jets._mul_rule = real_mul
            jets.JetArray.__init__ = real_init
        with tempfile.TemporaryDirectory() as folder:
            path = heis7 if name == "heis7" else chart_file(spec, Path(folder))
            compiles = compile_seconds(registry, path, passes)

        ms = lambda v: round(1e3 * statistics.median(v), 3)  # noqa: E731
        out[f"dim{dim}"] = {
            "chart": name,
            "suites": list(suites),
            "analyze_ms_per_point": ms(walls),
            "compile_ms_per_call": {k: ms(v) for k, v in compiles.items()},
            "rotate_frame_ms_per_call": ms(rotate_seconds(spec, passes)),
            "self_ms_per_point": {k: ms(v) for k, v in self_s.items() if any(v)},
            "contract_calls_per_point": sum(contracts.values()) / usable,
            "contracts_per_point": {k: v / usable for k, v in contracts.items()},
            "products_per_point": {k: v / usable for k, v in products.items()},
            "jet_arrays_per_point": {k: v / usable for k, v in arrays.items()},
        }
    out["host"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": __import__("os").cpu_count(),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--points", type=int, default=POINTS)
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.src.resolve(), args.passes, args.points), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
