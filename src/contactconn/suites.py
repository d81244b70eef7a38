"""Invariant suites: sample points, screen preconditions, aggregate
residuals into a Report.

Five suites exist. contact, canonical and promotion run in any odd
dimension; tw-compare and rotation require dimension 3. Points where the
inputs cannot be evaluated, or failing the contact, metric-positivity or
frame screen, are skipped with the reason and counted, never silently
dropped; if nothing survives, the run errors out rather than reporting a
vacuous pass.

Screening (contact.screen_point, which classify shares) evaluates the
chart's inputs once per sample point and builds the adapted frame of
each usable point, which carries its chart, its point and those inputs.
One _PointState per usable point is built from that frame alone. It
caches what the suites derive from it (spectrum, canonical connection,
promotion, 3D structure data), so each is built at most once per point
and shared by every suite.

Each suite gives one row of residuals per usable point. SUITES holds
every suite's gates, and aggregate turns the rows into the suite's
report entry, so each tolerance lives in one table and the pass rule in
one function. _tightest, beside it, picks the key with the smallest
margin for the CLI's verdict line. The library functions the suites
call return residuals only and judge nothing.

Every residual reads values only, so each check runs at the order that
value needs: order 0 for the contact checks, the Levi and torsion
checks, the Reeb check's coefficients and the comparisons; order 1 for
the Gram matrix the metric check differentiates. A check cuts (restrict)
the operands that would otherwise raise its kernel's order; one that the
kernel reads at the lower order anyway, such as the frame vectors a cut
form or a cut metric is paired with, goes in as it is. The point's
promotion differentiates kappa, which has order 1 as built, so its num,
den and Reeb row are order-0 jets. Value rules read no higher part, so
the cuts change no bit. The library calls behind the suites keep their
documented orders when called directly.
"""

from __future__ import annotations

import math
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
    ORDER,
    SKIP_ERRORS,
    AdaptedFrame,
    _metric_pairs,
    lambda_spectrum,
    max_abs,
    screen_point,
)
from .errors import AllPointsSkippedError, SuiteUnavailableError
from .forms import evaluate_forms
from .jets import JetArray
from .registry import ManifoldSpec
from .report import PointRecord, Report, SuiteResult
from .sampling import SplitMix64, run_bound_violation, sample_box
from .tw3d import (
    check_rotation_covariance,
    compare_full,
    compare_partial,
    solve_structure_equations,
)

# Mixing constant for the rotation suite's angle-coefficient stream: the
# byte string "rotation" as a 64-bit integer, so the stream is decoupled
# from the point stream but still fully determined by the seed.
_ROTATION_STREAM = 0x726F746174696F6E


class _PointState:
    """One usable sample point: its adapted frame, which carries the
    chart, the point and the inputs, and everything derived from the
    frame, each built on first use."""

    def __init__(self, frame: AdaptedFrame):
        self.frame = frame

    @cached_property
    def spectrum(self):
        return lambda_spectrum(self.frame)

    @cached_property
    def conn(self):
        return canonical_partial_connection(self.frame.inputs.cs, self.frame.p, frame=self.frame)

    @cached_property
    def promoted(self):
        return promote(self.conn)

    @cached_property
    def tw_data(self):
        return solve_structure_equations(self.frame)


class _Run(NamedTuple):
    """What the suites read of a run: its usable points in index order
    and the run's seed."""

    usable: list
    seed: int


def _suite_contact(run: _Run) -> list[dict]:
    # Every check reads values only, so each runs on order-0 jets.
    rows = []
    for pt in run.usable:
        frame = pt.frame
        n = frame.n
        omega_sq = sum(v**2 for v in frame.Omega.value.ravel().tolist())
        lam = pt.spectrum
        pairs = frame.pair_coframe(frame.frame_array.restrict(0)).value
        # The frame's own Reeb field against theta_hat and d(theta_hat), on
        # the frame: theta_hat(T) and every dtheta_hat(T, X_a).
        dtheta_T = evaluate_forms(frame.dtheta_hat.restrict(0), frame.T[None], frame.X).value
        rows.append(
            {
                "reeb": max(abs(float(pairs[0, 0]) - 1.0), max_abs(dtheta_T)),
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

        # The Levi and torsion checks read values only; the metric check
        # reads the values of a derivative, so the Gram it differentiates
        # needs order 1 only.
        X = frame.X
        measured = evaluate_forms(frame.dtheta_hat.restrict(0), X, X).value
        tor = partial_torsion(conn.restrict(0)).value
        dg = nabla_H(conn, _metric_pairs(frame.inputs.G.restrict(1), X, X))
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
    rows = []
    for pt in run.usable:
        # The angle c + sum_i c_i x_i + sum_i c'_i x_i^2 as a jet at the
        # point, a fresh coefficient for each term in that order: the jet
        # eval_jet gives for the text "(c) + (c_1)*x_1 + ... + (c'_1)*x_1^2
        # + ...", each coefficient its repr.
        xs = [JetArray.coordinate(pt.frame.p, i, ORDER) for i in range(pt.frame.dim)]
        phi = JetArray.constant(coeff(), pt.frame.dim)
        for x in xs + [x.powi(2) for x in xs]:
            phi = phi + coeff() * x
        rows.append(check_rotation_covariance(pt.tw_data, phi))
    return rows


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
        lambda run: _suite_tw_compare(run),
        {
            "e_agreement_residual": 1e-9,
            "theta_row_difference_residual": 1e-9,
            "difference_tensor_residual": 1e-8,
            "torsion_e_rows_residual": 1e-8,
            "torsion_theta_row_vs_minus_levi": 1e-8,
            "r_drift": None,
        },
        True,
    ),
    "rotation": _Suite(
        lambda run: _suite_rotation(run),
        {"omega_shift": 1e-9, "ab_rotation": 1e-9, "r_invariance": None},
        True,
    ),
}


def suites_for_dim(dim: int) -> list[str]:
    """Every suite that runs in dimension dim, in default run order."""
    return [name for name, suite in SUITES.items() if dim == 3 or not suite.only_3d]


def aggregate(name: str, rows: list[dict]) -> SuiteResult:
    """The report entry of suite name from its rows, one residual dict per
    usable point in point order: each key of the suite's gates with its
    running maximum from 0.0. The suite passes when, in every row, every
    key with a tolerance is below it; a key gated None is reported only.
    This is the one place a residual meets its gate."""
    gates = SUITES[name].gates
    worst = dict.fromkeys(gates, 0.0)
    for row in rows:
        for key in gates:
            worst[key] = max(worst[key], row[key])
    passed = all(
        tol is None or row[key] < tol for row in rows for key, tol in gates.items()
    )
    return SuiteResult(name, passed, worst, len(rows))


def _tightest(residuals: dict, gates: dict) -> str:
    """The gated key of residuals with the largest value relative to its
    gate, the first in order on a tie. A gate of 0.0 passes only values
    below zero, so its key is the tightest when its value is positive and
    the loosest otherwise."""

    def ratio(key):
        value, gate = residuals[key], gates[key]
        if gate == 0.0:
            return math.inf if value > 0 else -math.inf
        return value / gate

    return max((key for key in residuals if gates.get(key) is not None), key=ratio)


def run_suites(
    spec: ManifoldSpec,
    suites,
    points: int | None = None,
    seed: int | None = None,
    param_overrides: dict[str, float] | None = None,
) -> Report:
    """Sample, screen, run the requested suites, and assemble the report.

    suites is an iterable of names from SUITES, not one name as a string;
    duplicates collapse to the first occurrence. 3D-only suites on a
    higher-dimensional manifold raise SuiteUnavailableError up front,
    before any sampling. So do the bounds the CLI and load_spec check: a
    point count below 1 or a seed outside 0 <= seed < 2^64 raises
    ValueError.
    """
    if isinstance(suites, str):
        raise SuiteUnavailableError(f"suites must be a list of names, not the string {suites!r}")
    requested = []
    for name in suites:
        if name not in SUITES:
            valid = ", ".join(SUITES)
            raise SuiteUnavailableError(f"unknown suite {name!r}; valid suites: {valid}")
        if name not in requested:
            requested.append(name)
    if not requested:
        raise SuiteUnavailableError("no suites requested")
    n_points = spec.points if points is None else points
    run_seed = spec.seed if seed is None else seed
    bad = run_bound_violation(n_points, run_seed)
    if bad:
        raise ValueError(" ".join(bad))

    cs = spec.build(param_overrides)
    for name in requested:
        if SUITES[name].only_3d and cs.dim != 3:
            raise SuiteUnavailableError(f"suite {name!r} unavailable for dim {cs.dim}")

    samples = sample_box(spec.box, n_points, run_seed)

    records = []
    usable = []
    for i, p in enumerate(samples):
        try:
            frame = screen_point(cs, p)
        except SKIP_ERRORS as exc:
            records.append(PointRecord(i, p, skipped=True, reason=str(exc)))
            continue
        pt = _PointState(frame)
        mu = float(frame.mu.value)
        records.append(PointRecord(i, p, skipped=False, mu=mu, spectrum=pt.spectrum))
        usable.append(pt)

    if not usable:
        raise AllPointsSkippedError(
            f"all {n_points} sampled points were skipped; "
            f"the box likely leaves the structure's valid region",
            [r.reason for r in records],
        )

    run = _Run(usable, run_seed)
    return Report(
        manifold=spec.name,
        dim=cs.dim,
        seed=run_seed,
        requested_points=n_points,
        skipped_points=n_points - len(usable),
        suites=tuple(aggregate(name, SUITES[name].rows(run)) for name in requested),
        points=tuple(records),
    )
