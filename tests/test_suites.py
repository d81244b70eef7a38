"""Suite runner: screening, skip accounting, availability rules, and
report assembly.
"""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contactconn.contact import screen_point
from contactconn.errors import (
    AllPointsSkippedError,
    LinearSolveResidualError,
    SuiteUnavailableError,
)
from contactconn.registry import ManifoldSpec, get_manifold, load_spec
from contactconn.report import render_report
from contactconn.suites import (
    SUITES,
    _PointState,
    _Run,
    _suite_contact,
    aggregate,
    run_suites,
    suites_for_dim,
)

ALL_3D = ["contact", "canonical", "promotion", "tw-compare", "rotation"]
CORE = ["contact", "canonical", "promotion"]
REPORTS_DIR = Path(__file__).parent / "data" / "reports"
REPORTS_BEFORE_CONTRACT = Path(__file__).parent / "data" / "reports-fold"
CHARTS_DIR = Path(__file__).parent / "data" / "charts"


def half_degenerate_spec():
    # H-metric is x * dx^2 + dy^2: positive definite only for x > 0,
    # so roughly half the box gets screened out
    return ManifoldSpec(
        name="half",
        coords=("x", "y", "z"),
        theta=("-y", "0", "1"),
        g=(("x", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
        box=((-0.9, 0.9),) * 3,
        points=20,
        seed=42,
    )


class TestRunSuites:
    @pytest.mark.parametrize(
        "name", ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart"]
    )
    def test_three_dimensional_builtins_pass(self, name):
        rep = run_suites(get_manifold(name), ALL_3D, points=5)
        assert rep.passed
        assert rep.skipped_points == 0
        assert {s.name for s in rep.suites} == set(ALL_3D)
        assert all(s.points_used == 5 for s in rep.suites)

    def test_five_dimensional_builtin_passes(self):
        rep = run_suites(get_manifold("n2-split"), ["contact", "canonical", "promotion"], points=5)
        assert rep.passed
        assert rep.dim == 5

    def test_report_metadata(self):
        spec = get_manifold("heisenberg")
        rep = run_suites(spec, ["contact"], points=3, seed=11)
        assert rep.manifold == "heisenberg"
        assert rep.seed == 11
        assert rep.requested_points == 3
        assert len(rep.points) == 3
        assert all(not r.skipped for r in rep.points)
        assert all(r.mu == pytest.approx(1.0, abs=1e-12) for r in rep.points)

    def test_defaults_come_from_spec(self):
        spec = half_degenerate_spec()
        rep = run_suites(spec, ["contact"])
        assert rep.requested_points == 20
        assert rep.seed == 42

    def test_param_overrides_flow_through(self):
        rep = run_suites(get_manifold("heisenberg-aniso"), ["contact"], points=2,
                         param_overrides={"b": 3.0})
        assert all(r.mu == pytest.approx(3.0, abs=1e-12) for r in rep.points)

    def test_deterministic(self):
        spec = get_manifold("heisenberg-perturbed")
        a = render_report(run_suites(spec, ALL_3D, points=4))
        b = render_report(run_suites(spec, ALL_3D, points=4))
        assert a == b

    def test_override_run_leaves_the_declared_structure(self):
        spec = dataclasses.replace(get_manifold("heisenberg-aniso"))
        before = render_report(run_suites(spec, ALL_3D, points=3, seed=2))
        cs = spec.build()
        overridden = run_suites(spec, ALL_3D, points=3, seed=2, param_overrides={"b": 3.0})
        assert all(r.mu == pytest.approx(3.0, abs=1e-12) for r in overridden.points)
        assert render_report(run_suites(spec, ALL_3D, points=3, seed=2)) == before
        assert spec.build() is cs


class TestRunBounds:
    # The bounds the CLI and load_spec check hold for a library call too.
    @pytest.mark.parametrize("seed", [2**64, 2**64 + 42, -1])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=f"seed must be from 0 to 2\\^64 - 1, got {seed}"):
            run_suites(get_manifold("heisenberg"), ["contact"], seed=seed, points=2)

    @pytest.mark.parametrize("points", [0, -3])
    def test_points_below_one(self, points):
        with pytest.raises(ValueError, match=f"points must be at least 1, got {points}"):
            run_suites(get_manifold("heisenberg"), ["contact"], points=points)

    def test_spec_defaults_are_checked(self):
        spec = dataclasses.replace(get_manifold("heisenberg"), points=0)
        with pytest.raises(ValueError, match="points must be at least 1, got 0"):
            run_suites(spec, ["contact"])
        spec = dataclasses.replace(get_manifold("heisenberg"), seed=2**64)
        with pytest.raises(ValueError, match="seed must be from 0"):
            run_suites(spec, ["contact"], points=2)

    def test_bounds_are_inclusive(self):
        rep = run_suites(get_manifold("heisenberg"), ["contact"], seed=2**64 - 1, points=1)
        assert rep.seed == 2**64 - 1 and rep.requested_points == 1


class TestScreening:
    def test_skip_accounting(self):
        rep = run_suites(half_degenerate_spec(), ["contact", "canonical"])
        assert rep.requested_points == 20
        assert rep.skipped_points == 12
        reasons = {r.reason for r in rep.points if r.skipped}
        assert reasons == {
            "metric restricted to the contact distribution is not positive definite"
        }
        assert rep.passed
        assert all(s.points_used == 8 for s in rep.suites)

    def test_non_contact_points_report_reason(self):
        # theta = dz + x dx is contact only where d(theta) pairing survives;
        # this one is never contact, so every record says why
        spec = ManifoldSpec(
            name="never",
            coords=("x", "y", "z"),
            theta=("x", "0", "1"),
            g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-0.9, 0.9),) * 3,
            points=4,
            seed=1,
        )
        with pytest.raises(AllPointsSkippedError):
            run_suites(spec, ["contact"])

    def test_all_points_skipped(self):
        spec = ManifoldSpec(
            name="nowhere",
            coords=("x", "y", "z"),
            theta=("-y", "0", "1"),
            g=(("x", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-0.9, -0.1), (-0.9, 0.9), (-0.9, 0.9)),
            points=6,
            seed=2,
        )
        with pytest.raises(AllPointsSkippedError, match="all 6 sampled points"):
            run_suites(spec, ["canonical"])

    def test_all_points_skipped_names_each_reason_with_its_count(self):
        # sqrt(y) fails where y < 0, the metric x dx^2 everywhere else.
        spec = ManifoldSpec(
            name="nowhere-two-ways",
            coords=("x", "y", "z"),
            theta=("-y", "0", "sqrt(y) + 1"),
            g=(("x", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-0.9, -0.1), (-0.9, 0.9), (-0.9, 0.9)),
            points=8,
            seed=2,
        )
        with pytest.raises(AllPointsSkippedError) as exc:
            run_suites(spec, ["contact"])
        reasons = exc.value.reasons
        sqrt_y = "sqrt of negative value in 'sqrt(y)'"
        metric = "metric restricted to the contact distribution is not positive definite"
        assert len(reasons) == 8 and set(reasons) == {sqrt_y, metric}
        listed = [f"{reasons.count(r)} points: {r}" for r in dict.fromkeys(reasons)]
        assert str(exc.value).endswith(f"valid region ({'; '.join(listed)})")


def sqrt_edge_spec(x_box=(-0.5, 0.9)):
    # theta_z = sqrt(x) + 1 cannot be evaluated for x < 0
    return ManifoldSpec(
        name="sqrt-edge",
        coords=("x", "y", "z"),
        theta=("-y", "0", "sqrt(x)+1"),
        g=(("1", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
        box=(x_box, (-0.9, 0.9), (-0.9, 0.9)),
        points=10,
        seed=3,
    )


def wide_spec():
    """theta = (-y/2, x/2, 1) and g = diag(1 + x^2, 1, 0) on the box
    +-1000, 6 points, seed 1: contact everywhere, with |theta| ~ 1e3."""
    return ManifoldSpec(
        name="wide",
        coords=("x", "y", "z"),
        theta=("-y/2", "x/2", "1"),
        g=(("1 + x^2", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
        box=((-1000.0, 1000.0),) * 3,
        points=6,
        seed=1,
    )


class TestPointIsolation:
    def test_undefined_input_skips_the_point(self):
        rep = run_suites(sqrt_edge_spec(), ALL_3D)
        skipped = [r for r in rep.points if r.skipped]
        assert all(r.point[0] < 0.0 for r in skipped)
        assert {r.reason for r in skipped} == {"sqrt of negative value in 'sqrt(x)'"}
        assert 0 < rep.skipped_points < rep.requested_points
        assert rep.passed

    @pytest.mark.parametrize(
        "g11, x_box, seed, cutoff",
        [
            # exp(800 x) overflows math from x = 0.8873 on, its Hessian
            # numpy from x = 0.8705; the Hessian of x^150 * x^150
            # overflows numpy from x = 10.47, its value from x = 10.6.
            ("1 + 1e-308*exp(800*x)", (-1.0, 1.0), 5, 0.87),
            ("1 + 1e-308*(x^150*x^150)", (-1.0, 12.0), 3, 10.47),
        ],
    )
    def test_overflowing_input_skips_the_point(self, g11, x_box, seed, cutoff):
        spec = ManifoldSpec(
            name="overflow-edge",
            coords=("x", "y", "z"),
            theta=("-y", "0", "1"),
            g=((g11, "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=(x_box, (-0.9, 0.9), (-0.9, 0.9)),
            points=10,
            seed=seed,
        )
        rep = run_suites(spec, CORE)
        skipped = [r for r in rep.points if r.skipped]
        assert all((r.point[0] > cutoff) == r.skipped for r in rep.points)
        assert all(
            r.reason.startswith(("no finite float result", "value, gradient or Hessian"))
            for r in skipped
        )
        assert 0 < rep.skipped_points < rep.requested_points
        assert rep.passed

    def test_undefined_everywhere_still_raises(self):
        with pytest.raises(AllPointsSkippedError, match="all 10 sampled points"):
            run_suites(sqrt_edge_spec(x_box=(-0.9, -0.1)), ["contact"])

    def test_singular_solve_skips_the_point(self):
        # |theta| ~ 1e3 makes the Reeb system of theta_hat, whose
        # theta_hat x theta_hat part outgrows its dtheta_hat part, read as
        # singular.
        rep = run_suites(wide_spec(), ["canonical"])
        skipped = {i: r.reason for i, r in enumerate(rep.points) if r.skipped}
        assert sorted(skipped) == [2, 3, 5]
        assert all(r.startswith("Reeb system is singular") for r in skipped.values())

    def test_solve_residual_failure_skips_the_point(self, monkeypatch):
        import contactconn.contact as contact_mod

        real = contact_mod.adapted_frame
        calls = []

        def flaky(cs, p, **kwargs):
            calls.append(p)
            if len(calls) == 1:
                raise LinearSolveResidualError("solve residual 1e-3 exceeds contract bound")
            return real(cs, p, **kwargs)

        monkeypatch.setattr(contact_mod, "adapted_frame", flaky)
        rep = run_suites(get_manifold("heisenberg"), ["contact"], points=3)
        assert [r.skipped for r in rep.points] == [True, False, False]
        assert rep.points[0].reason == "solve residual 1e-3 exceeds contract bound"


class TestAvailability:
    def test_unknown_suite(self):
        with pytest.raises(SuiteUnavailableError, match="unknown suite 'spectral'"):
            run_suites(get_manifold("heisenberg"), ["spectral"], points=1)

    def test_one_name_as_a_string_is_refused(self):
        # A string is an iterable of its characters, not a list of names.
        message = "suites must be a list of names, not the string 'contact'"
        with pytest.raises(SuiteUnavailableError, match=message):
            run_suites(get_manifold("heisenberg"), "contact", points=1)

    def test_empty_request(self):
        with pytest.raises(SuiteUnavailableError, match="no suites requested"):
            run_suites(get_manifold("heisenberg"), [], points=1)

    @pytest.mark.parametrize("name", ["tw-compare", "rotation"])
    def test_3d_only_suites_guarded(self, name):
        with pytest.raises(SuiteUnavailableError, match=f"suite {name!r} unavailable for dim 5"):
            run_suites(get_manifold("n2-split"), [name], points=1)

    def test_guard_fires_before_sampling(self):
        # even with an impossible point budget the dim check comes first
        with pytest.raises(SuiteUnavailableError, match="unavailable for dim 5"):
            run_suites(get_manifold("n2-split"), ["contact", "rotation"], points=10**9)

    def test_duplicates_collapse(self):
        rep = run_suites(get_manifold("heisenberg"), ["contact", "contact"], points=2)
        assert [s.name for s in rep.suites] == ["contact"]


# A contact-suite row below every gate.
CONTACT_ROW = {
    "reeb": 1e-13,
    "normalization": 1e-12,
    "lambda_sum_sq": 1e-12,
    "lambda_positivity": -1.0,
    "duality": 1e-14,
}


class TestAggregate:
    def test_one_point_over_its_gate_fails_and_the_maximum_is_reported(self):
        over = dict(CONTACT_ROW, duality=0.5)
        rows = [CONTACT_ROW, over, dict(CONTACT_ROW, duality=1e-12)]
        res = aggregate("contact", rows)
        assert res.passed is False
        assert res.points_used == 3
        assert res.residuals == dict(CONTACT_ROW, duality=0.5, lambda_positivity=0.0)
        assert aggregate("contact", [CONTACT_ROW, CONTACT_ROW]).passed is True

    def test_keys_are_the_gates_and_extra_row_keys_are_ignored(self):
        row = dict(CONTACT_ROW, passed=False, extra=1e9)
        assert list(aggregate("contact", [row]).residuals) == list(SUITES["contact"].gates)
        assert aggregate("contact", [row]).passed is True

    @pytest.mark.parametrize("name, key", [("rotation", "r_invariance"), ("tw-compare", "r_drift")])
    def test_ungated_key_never_fails(self, name, key):
        gates = SUITES[name].gates
        assert gates[key] is None
        row = {k: 0.0 for k in gates}
        row[key] = 1e6
        res = aggregate(name, [row])
        assert res.passed is True
        assert res.residuals[key] == 1e6

    def test_zero_lambda_fails_positivity_and_reports_zero(self):
        cs = get_manifold("heisenberg").build()
        p = (0.3, -0.4, 0.2)
        pt = _PointState(screen_point(cs, p))
        run = _Run([pt], 0)
        assert aggregate("contact", _suite_contact(run)).passed is True
        pt.spectrum = (0.0,)
        res = aggregate("contact", _suite_contact(run))
        assert res.passed is False
        value = res.residuals["lambda_positivity"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestFailurePropagation:
    def test_failing_residual_fails_report(self, monkeypatch):
        # SUITES looks each suite function up when it runs, so patching the
        # module attribute reaches run_suites.
        import contactconn.suites as suites_mod

        def broken(run):
            return [dict(CONTACT_ROW, duality=1.0) for _ in run.usable]

        monkeypatch.setattr(suites_mod, "_suite_contact", broken)
        rep = run_suites(get_manifold("heisenberg"), ["contact"], points=2)
        assert rep.passed is False
        assert rep.suites[0].residuals["duality"] == 1.0

    def test_orientation_defect_fails_the_report(self, monkeypatch):
        # mu off by 1e-6 gives every screened frame Omega_12 = 1 + 1e-6.
        # The 3D suites solve on the screened frame as it is, so the run
        # reports the defect through the gates on Omega_12 = 1 rather than
        # stopping on tw_coframe's orientation check.
        import contactconn.contact as contact_mod

        real = contact_mod._normalization_factor
        monkeypatch.setattr(
            contact_mod, "_normalization_factor", lambda omega: real(omega) * (1 + 1e-6)
        )
        rep = run_suites(get_manifold("sphere-chart"), ALL_3D, points=6, seed=1)
        assert rep.skipped_points == 0
        verdicts = {suite.name: suite.passed for suite in rep.suites}
        assert verdicts == dict(zip(ALL_3D, [False, True, True, False, True]))
        contact, tw = rep.suites[0].residuals, rep.suites[3].residuals
        assert contact["normalization"] == pytest.approx(4e-6, rel=1e-3)
        assert tw["theta_row_difference_residual"] == pytest.approx(1e-6, rel=1e-3)

    @pytest.mark.parametrize("name", ["n2-split", "heis7.json", "heisenberg"])
    def test_horizontal_reeb_defect_fails_the_contact_suite(self, monkeypatch, name):
        # Every frame's T gets 1e-6 P(d_i), a vector in H, where d_i is the
        # first coordinate direction the frame does not project along.
        # theta_hat(T) stays 1, but dtheta_hat(T, P(d_i)) is nonzero, and
        # the contact suite reads it off the frame's own T and theta_hat.
        import contactconn.contact as contact_mod

        real = contact_mod._reeb_from_values

        def shifted(theta, dt):
            T = real(theta, dt)
            m = int(np.argmax(np.abs(theta.value)))
            return T + contact_mod._project_onto_h(theta, m)[int(m == 0)] * 1e-6

        monkeypatch.setattr(contact_mod, "_reeb_from_values", shifted)
        spec = load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)
        rep = run_suites(spec, CORE, points=2)
        assert rep.skipped_points == 0
        contact = rep.suites[0]
        assert contact.passed is False
        assert contact.residuals["reeb"] > 1e-7


def test_contact_suite_runs_on_a_large_contact_form():
    # The contact suite checks the frame's own Reeb field against
    # theta_hat, whose size the normalization fixes, so a contact form of
    # size 1e100 is checked at the size of any other.
    spec = dataclasses.replace(
        get_manifold("heisenberg-perturbed"), theta=("-1e100*y", "0", "1e100"), points=6, seed=3
    )
    others = run_suites(spec, ["canonical", "promotion", "tw-compare", "rotation"])
    assert others.passed and others.skipped_points == 0
    assert run_suites(spec, ["contact"]).passed


def units_spec(s):
    """heisenberg-perturbed in the coordinates X = s x, Y = s y, Z = s^2 z:
    theta = (-Y, 0, 1), s^2 times dz - y dx, and g = diag(1, 1 + X^2/(4 s^2),
    0) / s^2, on the box scaled to match, 12 points, seed 3."""
    s2 = s * s
    return dataclasses.replace(
        get_manifold("heisenberg-perturbed"),
        g=(
            (f"1/{s2!r}", "0", "0"),
            ("0", f"(1 + x^2/(4*{s2!r}))/{s2!r}", "0"),
            ("0", "0", "0"),
        ),
        box=((-0.9 * s, 0.9 * s), (-0.9 * s, 0.9 * s), (-0.9 * s2, 0.9 * s2)),
        points=12,
        seed=3,
    )


# The contact suite reads d(theta_hat)(T, .) on the g-orthonormal frame,
# where its size is fixed by the normalization. Read in coordinate
# components, it scaled with the chart's units: contact.reeb read 1.12e-8
# on units_spec(1e-4) and 1.12e-11 on the wide box, against its gate of
# 1e-11.
@pytest.mark.parametrize("spec", [units_spec(1e-4), wide_spec()], ids=["units-1e-4", "wide"])
def test_reeb_check_does_not_depend_on_units(spec):
    rep = run_suites(spec, ALL_3D)
    assert {suite.name: suite.passed for suite in rep.suites} == dict.fromkeys(ALL_3D, True)
    assert rep.passed


def patch_everywhere(monkeypatch, original, replacement):
    """Replace original in every contactconn module that binds it, so
    calls through re-exports and from-imports see the replacement."""
    for name, mod in list(sys.modules.items()):
        if name == "contactconn" or name.startswith("contactconn."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def count_calls(monkeypatch, dotted_names):
    """Wrap each "<module>.<function>" in every contactconn module that
    binds it and count its calls."""
    counts = {}
    for dotted in dotted_names:
        module_name, _, attr = dotted.rpartition(".")
        original = getattr(importlib.import_module(f"contactconn.{module_name}"), attr)
        counts[attr] = 0

        def wrapper(*args, _attr=attr, _fn=original, **kwargs):
            counts[_attr] += 1
            return _fn(*args, **kwargs)

        patch_everywhere(monkeypatch, original, wrapper)
    return counts


class TestPerPointState:
    @pytest.mark.parametrize("name, suites", [("heisenberg", ALL_3D), ("n2-split", CORE)])
    def test_built_once_per_usable_point(self, monkeypatch, name, suites):
        counts = count_calls(
            monkeypatch,
            [
                "contact.adapted_frame",
                "connection.canonical_partial_connection",
                "connection.promote",
            ],
        )
        rep = run_suites(get_manifold(name), suites, points=2)
        usable = rep.requested_points - rep.skipped_points
        assert usable == 2
        assert counts == {
            "adapted_frame": usable,
            "canonical_partial_connection": usable,
            "promote": usable,
        }


    # Every sum of products over an axis is one jets.contract call, which
    # sums each product-rule part on its own: the pairings contract one
    # vector stack at a time, the metric pairings twice, mu once (the
    # squares of dtheta on the orthonormal frame), each graded product
    # once and the promotion system over all frame pairs at once. The
    # frame gets X from one jet Cholesky factor of the H-Gram matrix and
    # one jet solve, with no contract, and d_pairs pairs every form it
    # reads with (T, X) at once, after one wedge for every dc ^ theta_hat
    # (which it summed from two products, 48 calls on sphere-chart).
    # Before, the same runs folded full product jets through fold_chunks:
    # 33 calls in 73 slices per usable point on heis7 and 35 in 35 on
    # sphere-chart; with separate pairings they made 60 and 59 contract
    # calls. While the contact suite paired dtheta(T, .) with an identity
    # basis, one more each: 53 and 50. rotate_frame checks Q Q^T = I as
    # one contract, once per point in the rotation suite: 49 before it.
    # While the frame ran Gram-Schmidt and took mu from the inverse
    # H-Gram matrix (tr(G^-1 Omega G^-1 Omega^T), three contracts), 52
    # and 50. rotate_frame turns X, f and c by one contract each (and
    # Omega by two in dimension >= 5); while it folded per-term products
    # instead, sphere-chart made 43.
    @pytest.mark.parametrize(
        "name, suites, calls", [("heis7.json", CORE, 33), ("sphere-chart", ALL_3D, 46)]
    )
    def test_contract_calls_per_usable_point(self, monkeypatch, name, suites, calls):
        from contactconn import jets

        counts = {"calls": 0}
        real = jets.contract

        def counted(a, b):
            counts["calls"] += 1
            return real(a, b)

        patch_everywhere(monkeypatch, real, counted)
        spec = load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)
        rep = run_suites(spec, suites, points=2)
        usable = rep.requested_points - rep.skipped_points
        assert usable == 2
        assert counts == {"calls": calls * usable}

    # Every kernel runs at the order its result is read: pairings contract
    # at the coefficients' order, the suites' value checks run on order-0
    # jets, the frame builds theta_hat, Omega and mu dtheta from mu cut to
    # order 1 and the promotion's den is built at the order of its num.
    # Sums of products go through jets.contract, which builds no product
    # jet. With every pairing and
    # check built at order 2, the same runs made 237 order-2 products per
    # usable point on heis7 and 101 on sphere-chart; with the Reeb theta
    # and den at order 2, 117 and 77; with every sum of products folded
    # from full product jets, 115 and 75; with one Gram-Schmidt product per
    # projection instead of one per step, 25 and 52; with the rotation
    # suite's expected A' and B' built from order-2 angle jets, 15 and 52;
    # while the frame ran Gram-Schmidt, one product per step and one per
    # normalized row, 15 and 48; while rotate_frame folded one product per
    # term of Q X and Q f, 4 and 45; while the frame built those three
    # products from mu at order 2, 4 and 41.
    @pytest.mark.parametrize(
        "name, suites, products", [("heis7.json", CORE, 1), ("sphere-chart", ALL_3D, 38)]
    )
    def test_order2_products_per_usable_point(self, monkeypatch, name, suites, products):
        from contactconn import jets

        counts = {"order2": 0}
        real = jets._mul_rule

        def counted(k, *parts):
            counts["order2"] += k == 2
            return real(k, *parts)

        monkeypatch.setattr(jets, "_mul_rule", counted)
        spec = load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)
        rep = run_suites(spec, suites, points=2)
        usable = rep.requested_points - rep.skipped_points
        assert usable == 2
        assert counts == {"order2": products * usable}

    @pytest.mark.parametrize("suites", [ALL_3D, CORE])
    def test_inputs_evaluated_once_per_sample_point(self, monkeypatch, suites):
        from contactconn.forms import FormField
        from contactconn.jets import Tape
        from contactconn.registry import _compiled_chart

        outputs = []
        real_eval = Tape.eval

        def counted(self, p, order):
            outputs.append(len(self.outputs))
            return real_eval(self, p, order)

        def no_form_eval(*args, **kwargs):
            raise AssertionError("a form field was evaluated outside the input tape")

        monkeypatch.setattr(Tape, "eval", counted)
        monkeypatch.setattr(FormField, "eval", no_form_eval)
        counts = count_calls(monkeypatch, ["jets.eval_jet", "expressions.parse_expr"])
        # A cold compile parses each field once.
        _compiled_chart.cache_clear()
        spec = half_degenerate_spec()
        rep = run_suites(spec, suites)
        usable = rep.requested_points - rep.skipped_points
        assert 0 < usable < rep.requested_points
        # One 15-output tape (theta, dtheta, g) per sample point, skipped or
        # not, and no other: the rotation suite builds its angles as jets,
        # evaluating no expression.
        assert outputs.count(3 + 3 + 9) == rep.requested_points
        assert len(outputs) == rep.requested_points
        assert counts["eval_jet"] == 0
        assert counts["parse_expr"] == 3 + 9
        # A second spec of the same text parses none.
        half_degenerate_spec().build()
        assert counts["parse_expr"] == 3 + 9


def test_second_run_compiles_nothing(monkeypatch):
    # A chart compiles its structure once: a second run on the same spec
    # object parses no expression, differentiates none and builds no tape,
    # the rotation suite's angles included.
    from contactconn.jets import Tape

    suites = ["contact", "canonical", "promotion", "tw-compare", "rotation"]
    spec = dataclasses.replace(get_manifold("sphere-chart"))
    first = render_report(run_suites(spec, suites, points=3, seed=4))
    counts = count_calls(monkeypatch, ["expressions.parse_expr", "expressions.diff"])
    tapes = []
    real_init = Tape.__init__

    def counted_init(self, exprs):
        tapes.append(len(exprs))
        real_init(self, exprs)

    monkeypatch.setattr(Tape, "__init__", counted_init)
    second = render_report(run_suites(spec, suites, points=3, seed=4))
    assert counts == {"parse_expr": 0, "diff": 0}
    assert tapes == []
    assert second == first


def suite_rows(monkeypatch, spec, suites, points):
    """Every suite's residual rows of one run, by suite name."""
    import contactconn.suites as suites_mod

    rows = {}
    real = suites_mod.aggregate

    def recording(name, suite_rows):
        rows[name] = suite_rows
        return real(name, suite_rows)

    monkeypatch.setattr(suites_mod, "aggregate", recording)
    run_suites(spec, suites, points=points, seed=1)
    monkeypatch.setattr(suites_mod, "aggregate", real)
    return rows


@pytest.mark.parametrize(
    "name",
    ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart", "n2-split",
     "heis7.json"],
)
def test_value_only_cuts_are_exact(monkeypatch, name):
    # The suites read values only and cut their operands to the orders
    # those values need. With every cut undone (restrict handing back its
    # array, so each check runs on the orders the library gives), every
    # residual of every row keeps its bits; repr shows each float exactly.
    from contactconn.jets import JetArray

    spec = load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)
    suites = suites_for_dim(spec.dim)
    cut = suite_rows(monkeypatch, spec, suites, 3)
    monkeypatch.setattr(JetArray, "restrict", lambda self, k: self)
    whole = suite_rows(monkeypatch, spec, suites, 3)
    assert list(cut) == suites
    assert repr(cut) == repr(whole)


def test_promotion_system_contracts_at_order_zero(monkeypatch):
    # The promotion suite reads the values of num, den and xi, so the
    # promotion system of a point runs every contraction at order 0: it
    # promotes kappa, of order 1, whose derivative has order 0. At order
    # 1, the kappa-kappa contraction alone summed 7 gradient terms per
    # entry on heis7.
    from contactconn import connection, jets

    orders = []
    inside = [False]
    real_contract = jets.contract
    real_system = connection._promotion_system

    def counted(a, b):
        if inside[0]:
            orders.append(min(a.top, b.top))
        return real_contract(a, b)

    def system(conn):
        inside[0] = True
        try:
            return real_system(conn)
        finally:
            inside[0] = False

    patch_everywhere(monkeypatch, real_contract, counted)
    monkeypatch.setattr(connection, "_promotion_system", system)
    rep = run_suites(load_spec(CHARTS_DIR / "heis7.json"), ["promotion"], points=2, seed=1)
    assert rep.passed
    usable = rep.requested_points - rep.skipped_points
    assert usable == 2
    # corr, apply_vector's contraction, cc, num and den per point.
    assert orders == [0] * 5 * usable


def test_rotation_angles_are_the_jets_of_their_text(monkeypatch):
    # The suite builds each angle as the jet at its point that eval_jet
    # gives for "(c) + (c_1)*x_1 + ... + (c'_1)*x_1^2 + ...", each
    # coefficient its repr, the next draws of the rotation stream in that
    # order. Equal, not bit for bit: a negative literal parses under a
    # negation, whose jet carries -0.0 derivative parts.
    import contactconn.suites as suites_mod
    from contactconn.expressions import parse_expr
    from contactconn.jets import eval_jet
    from contactconn.sampling import SplitMix64

    angles = []
    real = suites_mod.check_rotation_covariance

    def spy(td, phi):
        angles.append((td.frame.p, phi))
        return real(td, phi)

    monkeypatch.setattr(suites_mod, "check_rotation_covariance", spy)
    spec = get_manifold("sphere-chart")
    run_suites(spec, ["rotation"], points=3, seed=5)
    rng = SplitMix64(5 ^ suites_mod._ROTATION_STREAM)
    coeff = lambda: f"({2.0 * rng.next_double() - 1.0!r})"  # noqa: E731
    texts = []
    for p, phi in angles:
        terms = [coeff()]
        terms.extend(f"{coeff()}*{name}" for name in spec.coords)
        terms.extend(f"{coeff()}*{name}^2" for name in spec.coords)
        texts.append(" + ".join(terms))
        want = eval_jet(parse_expr(texts[-1], spec.coords), p, 2)
        assert phi.top == want.top
        for part in ("value", "grad", "hess"):
            assert np.array_equal(getattr(phi, part), getattr(want, part)), part
    assert len(angles) == 3 and "(-" in "".join(texts)


# Every suite the chart's dimension allows, 2 points at the chart's
# default seed. Rendered again once when sums of products moved from
# left folds of product jets to jets.contract, which moved last bits;
# REPORTS_BEFORE_CONTRACT keeps the reports of the fold, and
# test_regenerated_golden_matches_fold_report bounds the change.
GOLDEN_CASES = [
    ("heisenberg", None, "heisenberg"),
    ("heisenberg-aniso", None, "heisenberg-aniso"),
    ("heisenberg-aniso", {"b": 1e-4}, "heisenberg-aniso-b1e-4"),
    ("heisenberg-perturbed", None, "heisenberg-perturbed"),
    ("sphere-chart", None, "sphere-chart"),
    ("n2-split", None, "n2-split"),
    ("heis7.json", None, "heis7"),
]


@pytest.mark.parametrize("name, params, stem", GOLDEN_CASES)
def test_golden_report_bytes(name, params, stem):
    if name.endswith(".json"):
        spec = load_spec(CHARTS_DIR / name)
    else:
        spec = get_manifold(name)
    body = render_report(run_suites(spec, suites_for_dim(spec.dim), points=2, param_overrides=params))
    assert body.encode("utf-8") == (REPORTS_DIR / f"{stem}.json").read_bytes()


# Two residuals of heisenberg-aniso with b = 1e-4 are cancellation noise:
# in the rotated frame R' is a difference of terms near 3e7 (ulp 3.7e-9)
# and B' half a difference of terms near 5e3 to 1.2e4 (steps of 9.1e-13),
# so any change in rounding moves them by whole such steps, which 1e-13
# cannot bound. They may move by at most four steps; every other residual
# by at most 1e-13.
RESIDUAL_NOISE = {
    ("heisenberg-aniso-b1e-4", "rotation", "r_invariance"): 4 * 3.73e-9,
    ("heisenberg-aniso-b1e-4", "rotation", "ab_rotation"): 4 * 9.1e-13,
}


def close_rel(a, b, rel=1e-13):
    return abs(a - b) <= rel * max(abs(a), abs(b))


@pytest.mark.parametrize("stem", [stem for _, _, stem in GOLDEN_CASES])
def test_regenerated_golden_matches_fold_report(stem):
    old = json.loads((REPORTS_BEFORE_CONTRACT / f"{stem}.json").read_bytes())
    new = json.loads((REPORTS_DIR / f"{stem}.json").read_bytes())
    for key in ("dim", "manifold", "passed", "requested_points", "schema", "seed",
                "skipped_points"):
        assert new[key] == old[key], key
    assert len(new["points"]) == len(old["points"])
    for po, pn in zip(old["points"], new["points"]):
        assert set(pn) == set(po)
        for key in set(po) - {"point", "mu", "lambda"}:
            assert pn[key] == po[key], key
        assert len(pn["point"]) == len(po["point"])
        assert all(close_rel(a, b) for a, b in zip(pn["point"], po["point"]))
        if not po["skipped"]:
            assert close_rel(pn["mu"], po["mu"])
            assert len(pn["lambda"]) == len(po["lambda"])
            assert all(close_rel(a, b) for a, b in zip(pn["lambda"], po["lambda"]))
    assert set(new["suites"]) == set(old["suites"])
    for name, so in old["suites"].items():
        sn = new["suites"][name]
        assert (sn["passed"], sn["points_used"]) == (so["passed"], so["points_used"])
        assert set(sn["residuals"]) == set(so["residuals"])
        for key, value in so["residuals"].items():
            bound = RESIDUAL_NOISE.get((stem, name, key), 1e-13)
            assert abs(sn["residuals"][key] - value) <= bound, (name, key)


def analyze_bytes(argv, threads):
    """stdout of a fresh `contactconn analyze` with BLAS on the given
    number of threads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join([src] + [x for x in [env.get("PYTHONPATH")] if x])
    out = subprocess.run(
        [sys.executable, "-m", "contactconn.cli", "analyze", *argv],
        env=env,
        capture_output=True,
        check=True,
        timeout=120,
    )
    return out.stdout


@pytest.mark.parametrize(
    "argv, stem",
    [
        (["--manifold", "sphere-chart", "--points", "2"], "sphere-chart"),
        (["--spec", str(CHARTS_DIR / "heis7.json"), "--points", "2"], "heis7"),
    ],
)
def test_reports_do_not_depend_on_blas_threads(argv, stem):
    one, two = (analyze_bytes(argv, threads) for threads in (1, 2))
    assert one == two == (REPORTS_DIR / f"{stem}.json").read_bytes()
