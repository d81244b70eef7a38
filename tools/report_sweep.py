"""Render a sweep of canonical reports, one file per chart and seed.

The charts are every built-in, heisenberg-aniso with b = 1e-4, n2-split
with c = 1 and the 7D chart tests/data/charts/heis7.json, each run with
seeds 0, 1 and 42 and every suite its dimension allows, on 24 points (6
in dimension 7): 24 reports, written as DIR/<chart>-seed<seed>.json.

    python3 tools/report_sweep.py [--src PATH] --out DIR

--src names the source checkout to run, its 7D chart included
(default: this one), so two commits can render the same sweep; `diff -r`
of their output directories then checks that a change keeps every report
byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 1, 42)
POINTS = {3: 24, 5: 24, 7: 6}


def sweep(src: Path, out: Path) -> None:
    """Render every report of the sweep with the contactconn of src into
    out."""
    sys.path.insert(0, str(src / "src"))
    from contactconn.registry import builtin_registry, get_manifold, load_spec
    from contactconn.report import render_report
    from contactconn.suites import run_suites, suites_for_dim

    # (spec, parameter overrides, output stem)
    cases = [(spec, None, spec.name) for spec in builtin_registry()] + [
        (get_manifold("heisenberg-aniso"), {"b": 1e-4}, "heisenberg-aniso-b1e-4"),
        (get_manifold("n2-split"), {"c": 1.0}, "n2-split-c1"),
        (load_spec(src / "tests" / "data" / "charts" / "heis7.json"), None, "heis7"),
    ]
    out.mkdir(parents=True, exist_ok=True)
    for spec, params, stem in cases:
        for seed in SEEDS:
            report = run_suites(
                spec,
                suites_for_dim(spec.dim),
                points=POINTS[spec.dim],
                seed=seed,
                param_overrides=params,
            )
            (out / f"{stem}-seed{seed}.json").write_text(render_report(report), encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sweep(args.src.resolve(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
