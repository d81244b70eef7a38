"""Invariant suites: sample points, screen preconditions, aggregate
residuals into a Report.

Five suites exist. contact, canonical and promotion run in any odd
dimension; tw-compare and rotation require dimension 3. Points where the
inputs cannot be evaluated, or failing the contact, metric-positivity or
frame screen, are skipped with the reason and counted, never silently
dropped; if nothing survives, the run errors out rather than reporting a
vacuous pass.

Screening (contact.screen_point, which classify shares) evaluates the
chart's inputs once per sample point and builds one _PointState per
usable point. It holds those inputs and the adapted frame and caches
what the suites derive from them (spectrum, canonical connection,
promotion, 3D structure data), so each is built at most once per point
and shared by every suite.

Each suite gives one row of residuals per usable point. SUITES holds
every suite's gates, and aggregate turns the rows into the suite's
report entry, so each tolerance and the pass rule live in one place.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .connection import (
    canonical_partial_connection,
    nabla_H,
    nabla_H_vector,
    partial_torsion,
    promote,
    promotion_residual,
)
from .contact import (
    SKIP_ERRORS,
    AdaptedFrame,
    ContactStructure,
    PointInputs,
    _metric_pairs,
    _reeb_from_values,
    lambda_spectrum,
    max_abs,
    screen_point,
)
from .errors import AllPointsSkippedError, SuiteUnavailableError
from .expressions import parse_expr
from .forms import evaluate_forms
from .jets import JetArray
from .registry import ManifoldSpec
from .report import PointRecord, Report, SuiteResult, within_gates
from .sampling import SplitMix64, sample_box
from .tw3d import (
    FULL_GATES,
    PARTIAL_GATES,
    ROTATION_GATES,
    check_rotation_covariance,
    compare_full,
    compare_partial,
    solve_structure_equations,
    tw_coframe,
)

# Mixing constant for the rotation suite's angle-coefficient stream: the
# byte string "rotation" as a 64-bit integer, so the stream is decoupled
# from the point stream but still fully determined by the seed.
_ROTATION_STREAM = 0x726F746174696F6E


class _PointState:
    """One usable sample point: its index, coordinates, inputs and adapted
    frame, and everything derived from the frame, each built on first
    use."""

    def __init__(
        self, cs: ContactStructure, index: int, p, inputs: PointInputs, frame: AdaptedFrame
    ):
        self.cs = cs
        self.index = index
        self.p = p
        self.inputs = inputs
        self.frame = frame

    @cached_property
    def spectrum(self):
        return lambda_spectrum(self.frame)

    @cached_property
    def conn(self):
        return canonical_partial_connection(self.cs, self.p, frame=self.frame)

    @cached_property
    def promoted(self):
        return promote(self.conn)

    @cached_property
    def tw_data(self):
        return solve_structure_equations(tw_coframe(self.cs, self.p, frame=self.frame))


class _Run(NamedTuple):
    """What the suites read of a run: the structure, its usable points in
    index order and the run's seed."""

    cs: ContactStructure
    usable: list
    seed: int


def _suite_contact(run: _Run) -> list[dict]:
    # Every check reads values only, so each runs on order-0 jets.
    dim = run.cs.dim
    n = run.cs.n
    basis = JetArray.constant(0.0, dim, (dim, dim), 0)
    np.fill_diagonal(basis.value, 1.0)
    rows = []
    for pt in run.usable:
        frame = pt.frame
        theta0 = pt.inputs.theta.restrict(0)
        dtheta0 = pt.inputs.dtheta.restrict(0)
        T = _reeb_from_values(theta0, dtheta0)[None]
        (theta_T,) = evaluate_forms(theta0, T).value.tolist()
        dtheta_T = evaluate_forms(dtheta0, T, basis).value
        omega_sq = sum(v**2 for v in frame.Omega.value.ravel().tolist())
        lam = pt.spectrum
        pairs = frame.pair_coframe(frame.frame_array.restrict(0)).value
        rows.append(
            {
                "reeb": max(abs(theta_T - 1.0), max_abs(dtheta_T)),
                "normalization": abs(omega_sq - 2 * n),
                "lambda_sum_sq": abs(sum(v * v for v in lam) - n),
                # Below its gate 0.0 exactly when every lambda is positive.
                "lambda_positivity": -min(lam),
                "duality": max_abs(pairs - np.eye(2 * n + 1)),
            }
        )
    return rows


def _suite_canonical(run: _Run) -> list[dict]:
    rows = []
    for pt in run.usable:
        frame = pt.frame
        conn = pt.conn
        dT = nabla_H_vector(conn, frame.express_vector(frame.T))

        # The Levi check reads values only; the metric check reads the
        # values of a derivative, so the Gram it differentiates needs
        # order 1 only.
        X = frame.X
        measured = evaluate_forms(frame.dtheta_hat.restrict(0), X, X).value
        tor = partial_torsion(conn).value
        X1 = X.restrict(1)
        dg = nabla_H(conn, _metric_pairs(pt.inputs.G.restrict(1), X1, X1))
        rows.append(
            {
                "reeb_parallel": max_abs(dT.value),
                "levi_parallel": max_abs(conn.kappa.value[:, 0, 1:] - measured),
                "torsion_free": max(max_abs(tor[1:]), max_abs(tor[0] - frame.Omega.value)),
                "metric_parallel": max_abs(dg.value),
            }
        )
    return rows


def _suite_promotion(run: _Run) -> list[dict]:
    return [
        {
            "h_part": max_abs(pt.promoted.coeffs.value[1:] - pt.conn.kappa.value),
            "reeb_extension": promotion_residual(pt.promoted),
        }
        for pt in run.usable
    ]


def _suite_tw_compare(run: _Run) -> list[dict]:
    return [
        {**compare_partial(pt.tw_data, pt.conn), **compare_full(pt.tw_data, pt.promoted)}
        for pt in run.usable
    ]


def _suite_rotation(run: _Run) -> list[dict]:
    rng = SplitMix64(run.seed ^ _ROTATION_STREAM)
    coeff = lambda: 2.0 * rng.next_double() - 1.0
    coords = run.cs.coords

    def angle():
        terms = [f"({coeff()!r})"]
        terms.extend(f"({coeff()!r})*{name}" for name in coords)
        terms.extend(f"({coeff()!r})*{name}^2" for name in coords)
        return parse_expr(" + ".join(terms), coords)

    return [check_rotation_covariance(pt.tw_data, angle()) for pt in run.usable]


class _Suite(NamedTuple):
    rows: Callable[[_Run], list[dict]]
    gates: dict
    only_3d: bool


# Every suite by name, in default run order: the function giving its
# residual rows, one dict per usable point; its gates, each residual
# key's tolerance or None for a key that is reported and not gated;
# whether it needs dimension 3. Each function is looked up when it is
# called, so a tracer that patches this module's attributes sees the
# call.
SUITES = {
    "contact": _Suite(
        lambda run: _suite_contact(run),
        {
            "reeb": 1e-11,
            "normalization": 1e-9,
            "lambda_sum_sq": 1e-8,
            "lambda_positivity": 0.0,
            "duality": 1e-10,
        },
        False,
    ),
    "canonical": _Suite(
        lambda run: _suite_canonical(run),
        dict.fromkeys(("reeb_parallel", "levi_parallel", "torsion_free", "metric_parallel"), 1e-9),
        False,
    ),
    "promotion": _Suite(
        lambda run: _suite_promotion(run), {"h_part": 1e-12, "reeb_extension": 1e-9}, False
    ),
    "tw-compare": _Suite(
        lambda run: _suite_tw_compare(run), {**PARTIAL_GATES, **FULL_GATES}, True
    ),
    "rotation": _Suite(lambda run: _suite_rotation(run), ROTATION_GATES, True),
}


def suites_for_dim(dim: int) -> list[str]:
    """Every suite that runs in dimension dim, in default run order."""
    return [name for name, suite in SUITES.items() if dim == 3 or not suite.only_3d]


def aggregate(name: str, rows: list[dict]) -> SuiteResult:
    """The report entry of suite name from its rows, one residual dict per
    usable point in point order: each key of the suite's gates with its
    running maximum from 0.0. The suite passes when every row is below
    every gate, as report.within_gates reads them."""
    gates = SUITES[name].gates
    worst = dict.fromkeys(gates, 0.0)
    for row in rows:
        for key in gates:
            worst[key] = max(worst[key], row[key])
    passed = all(within_gates(row, gates) for row in rows)
    return SuiteResult(name, passed, worst, len(rows))


def run_suites(
    spec: ManifoldSpec,
    suites,
    points: int | None = None,
    seed: int | None = None,
    param_overrides: dict[str, float] | None = None,
) -> Report:
    """Sample, screen, run the requested suites, and assemble the report.

    suites is an iterable of names from SUITES; duplicates collapse to the
    first occurrence. 3D-only suites on a higher-dimensional manifold
    raise SuiteUnavailableError up front, before any sampling.
    """
    requested = []
    for name in suites:
        if name not in SUITES:
            valid = ", ".join(SUITES)
            raise SuiteUnavailableError(f"unknown suite {name!r}; valid suites: {valid}")
        if name not in requested:
            requested.append(name)
    if not requested:
        raise SuiteUnavailableError("no suites requested")

    cs = spec.build(param_overrides)
    for name in requested:
        if SUITES[name].only_3d and cs.dim != 3:
            raise SuiteUnavailableError(f"suite {name!r} unavailable for dim {cs.dim}")

    n_points = spec.points if points is None else points
    run_seed = spec.seed if seed is None else seed
    samples = sample_box(spec.box, n_points, run_seed)

    records = []
    usable = []
    for i, p in enumerate(samples):
        try:
            inputs, frame = screen_point(cs, p)
        except SKIP_ERRORS as exc:
            records.append(PointRecord(i, p, skipped=True, reason=str(exc)))
            continue
        pt = _PointState(cs, i, p, inputs, frame)
        mu = float(frame.mu.value)
        records.append(PointRecord(i, p, skipped=False, mu=mu, spectrum=pt.spectrum))
        usable.append(pt)

    if not usable:
        raise AllPointsSkippedError(
            f"all {n_points} sampled points were skipped; "
            f"the box likely leaves the structure's valid region"
        )

    run = _Run(cs, usable, run_seed)
    return Report(
        manifold=spec.name,
        dim=cs.dim,
        seed=run_seed,
        requested_points=n_points,
        skipped_points=n_points - len(usable),
        suites=tuple(aggregate(name, SUITES[name].rows(run)) for name in requested),
        points=tuple(records),
    )
