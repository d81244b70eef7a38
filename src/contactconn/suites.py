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
"""

from __future__ import annotations

import math
from functools import cached_property

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
from .registry import SUITE_NAMES, SUITES_3D_ONLY, ManifoldSpec
from .report import PointRecord, Report, SuiteResult
from .sampling import SplitMix64, sample_box
from .tw3d import (
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


def _suite_contact(cs: ContactStructure, usable) -> SuiteResult:
    # Every check reads values only, so each runs on order-0 jets.
    dim = cs.dim
    n = cs.n
    basis = JetArray.constant(0.0, dim, (dim, dim), 0)
    np.fill_diagonal(basis.value, 1.0)
    reeb_res = 0.0
    norm_res = 0.0
    lam_res = 0.0
    lam_min = math.inf
    dual_res = 0.0
    for pt in usable:
        frame = pt.frame
        theta0 = pt.inputs.theta.restrict(0)
        dtheta0 = pt.inputs.dtheta.restrict(0)
        T = _reeb_from_values(theta0, dtheta0)[None]
        (theta_T,) = evaluate_forms(theta0, T).value.tolist()
        dtheta_T = evaluate_forms(dtheta0, T, basis).value
        reeb_res = max(reeb_res, abs(theta_T - 1.0), max_abs(dtheta_T))

        omega_sq = sum(v**2 for v in frame.Omega.value.ravel().tolist())
        norm_res = max(norm_res, abs(omega_sq - 2 * n))

        lam = pt.spectrum
        lam_min = min(lam_min, min(lam))
        lam_res = max(lam_res, abs(sum(v * v for v in lam) - n))

        pairs = frame.pair_coframe(frame.frame_array.restrict(0)).value
        dual_res = max(dual_res, max_abs(pairs - np.eye(2 * n + 1)))

    passed = (
        reeb_res < 1e-11
        and norm_res < 1e-9
        and lam_res < 1e-8
        and lam_min > 0.0
        and dual_res < 1e-10
    )
    return SuiteResult(
        "contact",
        passed,
        {
            "reeb": reeb_res,
            "normalization": norm_res,
            "lambda_sum_sq": lam_res,
            "lambda_positivity": max(0.0, -lam_min),
            "duality": dual_res,
        },
        len(usable),
    )


def _suite_canonical(usable) -> SuiteResult:
    m_res = {"reeb_parallel": 0.0, "levi_parallel": 0.0, "torsion_free": 0.0, "metric_parallel": 0.0}
    for pt in usable:
        frame = pt.frame
        conn = pt.conn

        dT = nabla_H_vector(conn, frame.express_vector(frame.T))
        m_res["reeb_parallel"] = max(m_res["reeb_parallel"], max_abs(dT.value))

        # The Levi check reads values only; the metric check reads the
        # values of a derivative, so the Gram it differentiates needs
        # order 1 only.
        X = frame.X
        measured = evaluate_forms(frame.dtheta_hat.restrict(0), X, X).value
        levi = max_abs(conn.kappa.value[:, 0, 1:] - measured)
        m_res["levi_parallel"] = max(m_res["levi_parallel"], levi)

        tor = partial_torsion(conn).value
        m_res["torsion_free"] = max(m_res["torsion_free"], max_abs(tor[1:]))
        theta_gap = max_abs(tor[0] - frame.Omega.value)
        m_res["torsion_free"] = max(m_res["torsion_free"], theta_gap)

        X1 = X.restrict(1)
        dg = nabla_H(conn, _metric_pairs(pt.inputs.G.restrict(1), X1, X1))
        m_res["metric_parallel"] = max(m_res["metric_parallel"], max_abs(dg.value))

    passed = all(v < 1e-9 for v in m_res.values())
    return SuiteResult("canonical", passed, m_res, len(usable))


def _suite_promotion(usable) -> SuiteResult:
    h_res = 0.0
    ext_res = 0.0
    for pt in usable:
        fc = pt.promoted
        gap = max_abs(fc.kappa.value.transpose(1, 0, 2) - pt.conn.kappa.value)
        h_res = max(h_res, gap)
        ext_res = max(ext_res, promotion_residual(fc))
    passed = h_res < 1e-12 and ext_res < 1e-9
    return SuiteResult(
        "promotion",
        passed,
        {"h_part": h_res, "reeb_extension": ext_res},
        len(usable),
    )


def _suite_tw_compare(usable) -> SuiteResult:
    keys = (
        "e_agreement_residual",
        "theta_row_difference_residual",
        "difference_tensor_residual",
        "torsion_e_rows_residual",
        "torsion_theta_row_vs_minus_levi",
        "r_drift",
    )
    agg = {k: 0.0 for k in keys}
    passed = True
    for pt in usable:
        rp = compare_partial(pt.tw_data, pt.conn)
        rf = compare_full(pt.tw_data, pt.promoted)
        merged = {**rp, **rf}
        passed = passed and rp["passed"] and rf["passed"]
        for k in keys:
            agg[k] = max(agg[k], merged[k])
    return SuiteResult("tw-compare", passed, agg, len(usable))


def _suite_rotation(cs: ContactStructure, usable, seed: int) -> SuiteResult:
    rng = SplitMix64(seed ^ _ROTATION_STREAM)
    coeff = lambda: 2.0 * rng.next_double() - 1.0
    omega_res = 0.0
    ab_res = 0.0
    r_res = 0.0
    passed = True
    for pt in usable:
        terms = [f"({coeff()!r})"]
        terms.extend(f"({coeff()!r})*{name}" for name in cs.coords)
        terms.extend(f"({coeff()!r})*{name}^2" for name in cs.coords)
        phi = " + ".join(terms)
        rep = check_rotation_covariance(pt.tw_data, parse_expr(phi, cs.coords))
        passed = passed and rep["passed"]
        omega_res = max(omega_res, rep["omega_residual"])
        ab_res = max(ab_res, rep["ab_residual"])
        r_res = max(r_res, rep["r_residual"])
    return SuiteResult(
        "rotation",
        passed,
        {"omega_shift": omega_res, "ab_rotation": ab_res, "r_invariance": r_res},
        len(usable),
    )


def run_suites(
    spec: ManifoldSpec,
    suites,
    points: int | None = None,
    seed: int | None = None,
    param_overrides: dict[str, float] | None = None,
) -> Report:
    """Sample, screen, run the requested suites, and assemble the report.

    suites is an iterable of names from SUITE_NAMES; duplicates collapse
    to the first occurrence. 3D-only suites on a higher-dimensional
    manifold raise SuiteUnavailableError up front, before any sampling.
    """
    requested = []
    for name in suites:
        if name not in SUITE_NAMES:
            valid = ", ".join(SUITE_NAMES)
            raise SuiteUnavailableError(f"unknown suite {name!r}; valid suites: {valid}")
        if name not in requested:
            requested.append(name)
    if not requested:
        raise SuiteUnavailableError("no suites requested")

    cs = spec.build(param_overrides)
    for name in requested:
        if name in SUITES_3D_ONLY and cs.dim != 3:
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

    results = []
    for name in requested:
        if name == "contact":
            results.append(_suite_contact(cs, usable))
        elif name == "canonical":
            results.append(_suite_canonical(usable))
        elif name == "promotion":
            results.append(_suite_promotion(usable))
        elif name == "tw-compare":
            results.append(_suite_tw_compare(usable))
        elif name == "rotation":
            results.append(_suite_rotation(cs, usable, run_seed))

    return Report(
        manifold=spec.name,
        dim=cs.dim,
        seed=run_seed,
        requested_points=n_points,
        skipped_points=n_points - len(usable),
        suites=tuple(results),
        points=tuple(records),
    )
