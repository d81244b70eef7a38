"""Write the expected outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout. For each analyze workload it
records, per analyze seed, the verdict, skipped indices, per-suite point
counts and per-point mu and lambda; for the library workload, each pool
point with its mu, A, B and R. Regenerate only when the program's
results are meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys

from workloads import (
    OUT_DIR,
    REFERENCE_DIR,
    SRC_DIR,
    WORKLOADS,
    LIB_MANIFOLD,
    AnalyzeWorkload,
    lib_chain,
    lib_pool,
    summarize_report,
)


def write(name: str, data: dict) -> None:
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    import contactconn as cc

    OUT_DIR.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        if isinstance(wl, AnalyzeWorkload):
            out_path = OUT_DIR / "reference-report.json"
            cases = {}
            for case in range(wl.cases):
                rc, _ = wl.run_case(case, out_path)
                if rc != 0:
                    print(f"{name} seed {case}: analyze exited with {rc}", file=sys.stderr)
                    return 1
                cases[str(case)] = summarize_report(out_path.read_bytes())
            out_path.unlink()
            write(name, {"cases": cases})
        else:
            cs = cc.get_manifold(LIB_MANIFOLD).build()
            points = []
            for p in lib_pool():
                mu, A, B, R = (j.value for j in lib_chain(cs, p))
                points.append({"point": list(p), "mu": mu, "A": A, "B": B, "R": R})
            write(name, {"points": points})
    return 0


if __name__ == "__main__":
    sys.exit(main())
