"""Per-layer cost of `analyze` in dimensions 3, 5 and 7.

Runs the suite pipeline in-process on three charts: sphere-chart with all
five suites (dim 3), n2-split (dim 5) and the 7D Heisenberg chart of
perfbench (dim 7), both with the core suites. Each pass is one `analyze`
of POINTS points (run_suites plus render_report); the untraced passes
give the wall time per usable point, then the same passes run under
perfbench's tracer for each layer's self time per usable point, and once
more with fold_chunks and the product rule counted, the products split
by the jet order they ran at. Prints one JSON object with the medians
over passes.

    python3 tools/bench_layers.py [--src PATH] [--passes N]

--src names the source checkout to measure (default: this one), so two
commits can be measured with the same script. BLAS should run on one
thread (OPENBLAS_NUM_THREADS=1), as perfbench pins it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHARTS = (
    ("sphere-chart", 3, ("contact", "canonical", "promotion", "tw-compare", "rotation")),
    ("n2-split", 5, ("contact", "canonical", "promotion")),
    ("heis7", 7, ("contact", "canonical", "promotion")),
)
POINTS = 4

LAYERS = (
    "contact.check_contact",
    "contact.adapted_frame",
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


def measure(src: Path, passes: int) -> dict:
    sys.path.insert(0, str(src / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import tracer as tr
    from contactconn import jets
    from contactconn.registry import get_manifold, load_spec
    from contactconn.report import render_report
    from contactconn.suites import run_suites

    out = {}
    for name, dim, suites in CHARTS:
        if name == "heis7":
            spec = load_spec(ROOT / "perfbench" / "charts" / "heis7.json")
        else:
            spec = get_manifold(name)

        def analyze(seed):
            rep = run_suites(spec, list(suites), points=POINTS, seed=seed)
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

        counts = {"calls": 0, "slices": 0}
        products = {f"order{k}": 0 for k in range(3)}
        real = jets.fold_chunks
        real_mul = jets._mul_rule

        def counted_mul(k, *parts):
            products[f"order{k}"] += 1
            return real_mul(k, *parts)

        def counted(n_terms, per_term, d, terms):
            counts["calls"] += 1

            def sliced(lo, hi):
                counts["slices"] += 1
                return terms(lo, hi)

            return real(n_terms, per_term, d, sliced)

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
        try:
            usable = analyze(1)
        finally:
            for mod, key in bound:
                setattr(mod, key, real)
            jets._mul_rule = real_mul

        ms = lambda v: round(1e3 * statistics.median(v), 3)  # noqa: E731
        out[f"dim{dim}"] = {
            "chart": name,
            "suites": list(suites),
            "analyze_ms_per_point": ms(walls),
            "self_ms_per_point": {k: ms(v) for k, v in self_s.items() if any(v)},
            "fold_chunks_per_point": {k: v / usable for k, v in counts.items()},
            "products_per_point": {k: v / usable for k, v in products.items()},
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
    args = ap.parse_args(argv)
    print(json.dumps(measure(args.src.resolve(), args.passes), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
