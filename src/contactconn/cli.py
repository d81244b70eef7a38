"""Command-line interface.

    contactconn analyze --manifold heisenberg --suites contact,canonical
    contactconn analyze --spec my-chart.json --points 50 --seed 7 --out r.json
    contactconn list-manifolds
    contactconn validate --spec my-chart.json

Exit codes: 0 all executed suites passed, 1 at least one suite failed,
2 usage, validation or availability problems. The report body is
canonical JSON: identical inputs give identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .errors import ContactConnError
from .registry import builtin_registry, get_manifold, load_spec
from .report import render_report
from .sampling import run_bound_violation
from .suites import SUITES, _tightest, run_suites, suites_for_dim


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one; parsing keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="contactconn",
        description="Invariant checks for sub-Riemannian contact structures on charts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="sample points and run invariant suites")
    src = an.add_mutually_exclusive_group(required=True)
    src.add_argument("--manifold", help="built-in manifold name")
    src.add_argument("--spec", help="path to a JSON manifold description")
    an.add_argument(
        "--suites",
        help=f"comma-separated subset of {{{','.join(SUITES)}}}; "
        "default: all suites available for the dimension",
    )
    an.add_argument(
        "--points",
        type=int,
        help="sample count, at least 1 (default: from the manifold description)",
    )
    an.add_argument(
        "--seed",
        type=int,
        help="sampling seed, at least 0 and below 2^64 "
        "(default: from the manifold description)",
    )
    an.add_argument("--out", help="write the JSON report here instead of stdout")
    an.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a declared manifold parameter (repeatable)",
    )

    sub.add_parser("list-manifolds", help="list built-in manifolds")

    va = sub.add_parser("validate", help="check a JSON manifold description")
    va.add_argument("--spec", required=True, help="path to the description file")
    return parser


def _parse_params(pairs) -> dict[str, float]:
    """The --param overrides by name; a name given twice is refused, as
    a repeated key in a description file is, rather than keeping the
    last value."""
    out: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in out:
            raise ValueError(f"--param {name}: given more than once")
        try:
            out[name] = float(value)
        except ValueError:
            raise ValueError(f"--param {name}: {value!r} is not a number") from None
    return out


def _cmd_analyze(args) -> int:
    # The bounds of the run, checked on the flags given before any spec is read.
    bad = run_bound_violation(args.points, args.seed)
    if bad:
        raise ValueError(f"--{bad[0]} {bad[1]}")
    spec = load_spec(args.spec) if args.spec else get_manifold(args.manifold)
    params = _parse_params(args.param)

    if args.suites is not None:
        suites = [s.strip() for s in args.suites.split(",") if s.strip()]
    else:
        suites = suites_for_dim(spec.dim)

    report = run_suites(
        spec, suites, points=args.points, seed=args.seed, param_overrides=params
    )
    body = render_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)

    for suite in report.suites:
        gates = SUITES[suite.name].gates
        key = _tightest(suite.residuals, gates)
        verdict = "PASS" if suite.passed else "FAIL"
        print(
            f"{verdict} {suite.name}: {suite.points_used} points, "
            f"tightest {key} {suite.residuals[key]:.3e} (gate {gates[key]:g})",
            file=sys.stderr,
        )
    if report.skipped_points:
        print(
            f"note: skipped {report.skipped_points} of {report.requested_points} points",
            file=sys.stderr,
        )
    return 0 if report.passed else 1


def _cmd_list_manifolds() -> int:
    for spec in builtin_registry():
        params = (
            " params: " + ", ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
            if spec.params
            else ""
        )
        print(f"{spec.name}  dim={spec.dim}  box={spec.box[0]}x{spec.dim}{params}")
    return 0


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    print(f"OK: {spec.name} (dim {spec.dim}, {spec.points} points, seed {spec.seed})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "list-manifolds":
            return _cmd_list_manifolds()
        if args.command == "validate":
            return _cmd_validate(args)
    except (ContactConnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
