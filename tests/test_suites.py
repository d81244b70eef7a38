"""Suite runner: screening, skip accounting, availability rules, and
report assembly.
"""

import importlib
import sys
from pathlib import Path

import pytest

from contactconn.errors import (
    AllPointsSkippedError,
    LinearSolveResidualError,
    SuiteUnavailableError,
)
from contactconn.registry import (
    SUITE_NAMES,
    SUITES_3D_ONLY,
    ManifoldSpec,
    get_manifold,
    load_spec,
)
from contactconn.report import render_report
from contactconn.suites import run_suites

ALL_3D = ["contact", "canonical", "promotion", "tw-compare", "rotation"]
CORE = ["contact", "canonical", "promotion"]
REPORTS_DIR = Path(__file__).parent / "data" / "reports"
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


class TestFailurePropagation:
    def test_failing_residual_fails_report(self, monkeypatch):
        import contactconn.suites as suites_mod
        from contactconn.report import SuiteResult

        def broken(cs, usable):
            return SuiteResult(
                name="contact", passed=False, residuals={"duality": 1.0}, points_used=len(usable)
            )

        monkeypatch.setattr(suites_mod, "_suite_contact", broken)
        rep = run_suites(get_manifold("heisenberg"), ["contact"], points=2)
        assert rep.passed is False
        assert rep.suites[0].residuals["duality"] == 1.0


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


    # Every sum over a long term axis goes through fold_chunks. The
    # promotion system folds all frame pairs at once, graded products
    # are array kernels, and a slice holds 16384 floats of the highest
    # part its terms carry. With an apply_vector and a contraction per
    # ordered frame pair, another contraction per unordered pair and
    # 4096-float slices, the same runs made 105 calls in 743 slices per
    # usable point on heis7 and 37 in 37 on sphere-chart; with every
    # slice sized for Hessians, 33 in 112 on heis7.
    @pytest.mark.parametrize(
        "name, suites, calls, slices",
        [("heis7.json", CORE, 33, 73), ("sphere-chart", ALL_3D, 35, 35)],
    )
    def test_fold_chunks_per_usable_point(self, monkeypatch, name, suites, calls, slices):
        from contactconn import jets

        counts = {"calls": 0, "slices": 0}
        real = jets.fold_chunks

        def counted(n_terms, per_term, dim, terms):
            counts["calls"] += 1

            def sliced(lo, hi):
                counts["slices"] += 1
                return terms(lo, hi)

            return real(n_terms, per_term, dim, sliced)

        patch_everywhere(monkeypatch, real, counted)
        spec = load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)
        rep = run_suites(spec, suites, points=2)
        usable = rep.requested_points - rep.skipped_points
        assert usable == 2
        assert counts == {"calls": calls * usable, "slices": slices * usable}

    # Every kernel runs at the order its result is read: pairings build
    # their determinants at the coefficients' order, the suites' value
    # checks run on order-0 jets, the Reeb solve cuts theta to the order
    # of dtheta and the promotion's den is built at order 1. With every
    # pairing and check built at order 2, the same runs made 237 order-2
    # products per usable point on heis7 and 101 on sphere-chart; with
    # the Reeb theta and den at order 2, 117 and 77.
    @pytest.mark.parametrize(
        "name, suites, products", [("heis7.json", CORE, 115), ("sphere-chart", ALL_3D, 75)]
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


# Reports rendered before the per-point state was shared; every suite the
# chart's dimension allows, 2 points at the chart's default seed. The 7D
# chart (contact, canonical and promotion) was rendered before the jet
# arithmetic moved to array kernels.
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
    suites = [s for s in SUITE_NAMES if spec.dim == 3 or s not in SUITES_3D_ONLY]
    body = render_report(run_suites(spec, suites, points=2, param_overrides=params))
    assert body.encode("utf-8") == (REPORTS_DIR / f"{stem}.json").read_bytes()
