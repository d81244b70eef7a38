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

import pytest

from contactconn.contact import screen_point
from contactconn.errors import (
    AllPointsSkippedError,
    LinearSolveResidualError,
    NotContactError,
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
        # |theta| ~ 1e3 makes the H-Gram matrix too ill-conditioned to invert
        spec = ManifoldSpec(
            name="wide",
            coords=("x", "y", "z"),
            theta=("-y/2", "x/2", "1"),
            g=(("1 + x^2", "0", "0"), ("0", "1", "0"), ("0", "0", "0")),
            box=((-1000.0, 1000.0),) * 3,
            points=6,
            seed=1,
        )
        rep = run_suites(spec, ["canonical"])
        reasons = {r.reason for r in rep.points if r.skipped}
        assert reasons and all(r.startswith("value part of system is singular") for r in reasons)
        assert rep.skipped_points < rep.requested_points

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
        pt = _PointState(cs, 0, p, *screen_point(cs, p))
        run = _Run(cs, [pt], 0)
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


@pytest.mark.xfail(
    strict=True,
    raises=NotContactError,
    reason="the contact suite re-solves the Reeb system of the raw contact form, "
    "whose dtheta part scales like theta and its theta x theta part like theta squared, "
    "so at size 1e100 the relative singular-value floor reads it as singular",
)
def test_contact_suite_runs_on_a_large_contact_form():
    spec = dataclasses.replace(
        get_manifold("heisenberg-perturbed"), theta=("-1e100*y", "0", "1e100"), points=6, seed=3
    )
    others = run_suites(spec, ["canonical", "promotion", "tw-compare", "rotation"])
    assert others.passed and others.skipped_points == 0
    assert run_suites(spec, ["contact"]).passed


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
    # vector stack at a time, the metric pairings twice, mu three times
    # (tr(G^-1 Omega G^-1 Omega^T)), each graded product once and the
    # promotion system over all frame pairs at once. Before, the same runs
    # folded full product jets through fold_chunks: 33 calls in 73 slices
    # per usable point on heis7 and 35 in 35 on sphere-chart.
    @pytest.mark.parametrize(
        "name, suites, calls", [("heis7.json", CORE, 60), ("sphere-chart", ALL_3D, 59)]
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
    # jets, the Reeb solve cuts theta to the order of dtheta and the
    # promotion's den is built at order 1. Sums of products go through
    # jets.contract, which builds no product jet. With every pairing and
    # check built at order 2, the same runs made 237 order-2 products per
    # usable point on heis7 and 101 on sphere-chart; with the Reeb theta
    # and den at order 2, 117 and 77; with every sum of products folded
    # from full product jets, 115 and 75.
    @pytest.mark.parametrize(
        "name, suites, products", [("heis7.json", CORE, 25), ("sphere-chart", ALL_3D, 52)]
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
        spec = half_degenerate_spec()
        rep = run_suites(spec, suites)
        usable = rep.requested_points - rep.skipped_points
        assert 0 < usable < rep.requested_points
        # One 15-output tape (theta, dtheta, g) per sample point, skipped or
        # not; the rotation suite adds one angle per usable point.
        phis = usable if "rotation" in suites else 0
        assert outputs.count(3 + 3 + 9) == rep.requested_points
        assert outputs.count(1) == phis == counts["eval_jet"]
        assert len(outputs) == rep.requested_points + phis
        assert counts["parse_expr"] == 3 + 9 + phis


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
