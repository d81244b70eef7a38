"""Acceptance gate: one test per shipped guarantee, one printed verdict
line each (visible with pytest -s). Tolerances are part of the contract;
do not loosen them to make a failure pass.
"""

import dataclasses
import json
import statistics

import numpy as np
import pytest

from contactconn.cli import main
from contactconn.connection import (
    canonical_partial_connection,
    promote,
    sigma,
    sigma_inv,
)
from contactconn.contact import adapted_frame
from contactconn.expressions import parse_expr
from contactconn.forms import FormField
from contactconn.jets import JetArray, Tape, eval_jet
from contactconn.registry import builtin_registry, get_manifold
from contactconn.sampling import sample_box
from contactconn.suites import run_suites
from contactconn.tw3d import (
    check_rotation_covariance,
    compare_full,
    compare_partial,
    promoted_from_invariants,
    rotate_coframe,
    solve_structure_equations,
    tw_coframe,
    tw_connection,
)

ALL_BUILTINS = ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart", "n2-split"]
BUILTINS_3D = ALL_BUILTINS[:4]


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def generic_vector_jets(cs, p):
    dim = cs.dim
    comps = [
        f"({cs.coords[i]}) * ({cs.coords[(i + 1) % dim]}) + {0.1 * (i + 1)}"
        for i in range(dim)
    ]
    return Tape([parse_expr(s, cs.coords) for s in comps]).eval(p, 2)


def tw_inputs(cs, p):
    """Structure data on the oriented frame at p and the canonical
    connection on that frame: what the 3D comparisons take."""
    frame = tw_coframe(cs, p)
    return solve_structure_equations(frame), canonical_partial_connection(cs, p, frame=frame)


def test_criterion_01_canonical_axioms():
    worst = 0.0
    for name in ALL_BUILTINS:
        rep = run_suites(get_manifold(name), ["canonical"])
        assert rep.skipped_points == 0
        worst = max(worst, max(rep.suites[0].residuals.values()))
    verdict(
        1, worst < 1e-9,
        f"canonical axioms on 5 builtins x 100 seeded points, max residual {worst:.3e} < 1e-9",
    )


def test_criterion_02_base_independence():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for name in ALL_BUILTINS:
        spec = get_manifold(name)
        cs = spec.build()
        m = cs.dim - 1
        for p in sample_box(spec.box, 25, spec.seed):
            frame = adapted_frame(cs, p)
            raw = rng.standard_normal((m, m, m))
            pert = JetArray.constant(0.0, cs.dim, (m, m, m))
            pert.value[...] = raw + raw.transpose(2, 1, 0)
            ref = canonical_partial_connection(cs, p, frame=frame)
            alt = canonical_partial_connection(cs, p, frame=frame, base_perturbation=pert)
            worst = max(
                worst,
                max(
                    abs((ref.Gamma[a][b][c] - alt.Gamma[a][b][c]).value)
                    for a in range(m)
                    for b in range(m)
                    for c in range(m)
                ),
            )
    verdict(
        2, worst < 1e-9,
        f"two distinct bases, 5 builtins x 25 points, max coefficient difference {worst:.3e} < 1e-9",
    )


def test_criterion_03_sigma_algebra():
    worst = 0.0
    for m in (2, 4):

        def basis(idx):
            t = JetArray.constant(0.0, 3, (m, m, m))
            t.value[idx] = 1.0
            return t

        for a in range(m):
            for b in range(m):
                for c in range(m):
                    s = basis((a, b, c))
                    t = basis((b, a, c))
                    sym = s + t
                    back = sigma_inv(sigma(sym))
                    worst = max(
                        worst,
                        max(
                            abs((back[i][j][k] - sym[i][j][k]).value)
                            for i in range(m)
                            for j in range(m)
                            for k in range(m)
                        ),
                    )
    verdict(
        3, worst == 0.0,
        f"sigma round trip exhaustive on basis tensors, dims 2 and 4, max deviation {worst!r} (exact)",
    )


def test_criterion_04_normalization():
    worst_norm = 0.0
    for name in ALL_BUILTINS:
        rep = run_suites(get_manifold(name), ["contact"])
        worst_norm = max(worst_norm, rep.suites[0].residuals["normalization"])

    worst_flip = 0.0
    for name in ALL_BUILTINS:
        spec = get_manifold(name)
        neg_spec = dataclasses.replace(spec, theta=tuple(f"-({t})" for t in spec.theta))
        cs, neg = spec.build(), neg_spec.build()
        for p in sample_box(spec.box, 3, spec.seed):
            f_pos = adapted_frame(cs, p)
            f_neg = adapted_frame(neg, p)
            flip = max(
                abs((f_pos.theta_hat[i] + f_neg.theta_hat[i]).value)
                for i in range(cs.dim)
            )
            assert flip < 1e-10, f"theta_hat must flip sign on {name}"
            v = generic_vector_jets(cs, p)
            n1 = canonical_partial_connection(cs, p, frame=f_pos).coordinate_action_on_vector(v)
            n2 = canonical_partial_connection(neg, p, frame=f_neg).coordinate_action_on_vector(v)
            worst_flip = max(worst_flip, float(np.max(np.abs(n1 - n2))))
    ok = worst_norm < 1e-9 and worst_flip < 1e-10
    verdict(
        4, ok,
        "normalization residual "
        f"{worst_norm:.3e} < 1e-9 on 5 builtins x 100 points; sign-flip action drift "
        f"{worst_flip:.3e} < 1e-10",
    )


def test_criterion_05_heisenberg_closed_forms():
    spec = get_manifold("heisenberg")
    cs = spec.build()
    worst = 0.0
    for p in sample_box(spec.box, 20, spec.seed):
        td, conn = tw_inputs(cs, p)
        worst = max(worst, max(abs(w.value) for w in td.omega))
        worst = max(worst, abs(td.A.value), abs(td.B.value), abs(td.R.value))
        worst = max(
            worst,
            max(
                abs(conn.Gamma[a][b][c].value)
                for a in range(2)
                for b in range(2)
                for c in range(2)
            ),
        )
        fc = promote(conn)
        worst = max(worst, max(abs(fc.coeffs[0][A][C].value) for A in range(3) for C in range(3)))
        tw = tw_connection(td)
        worst = max(
            worst,
            max(abs(tw.coeffs[P][A][C].value) for P in range(3) for A in range(3) for C in range(3)),
        )
    verdict(
        5, worst < 1e-12,
        f"flat-model invariants and coefficients over 20 points, max {worst:.3e} < 1e-12",
    )


def test_criterion_06_rotation_covariance():
    rng = np.random.default_rng(618)
    worst_cov = 0.0
    worst_action = 0.0
    for name in ("heisenberg", "heisenberg-perturbed"):
        cs = get_manifold(name).build()
        alpha = FormField.one_form(
            [parse_expr(s, cs.coords) for s in ("z", "x*y", "1 + y")]
        )
        for _ in range(20):
            coeff = rng.uniform(-1.0, 1.0, size=7)
            phi = parse_expr(
                f"({coeff[0]}) + ({coeff[1]})*x + ({coeff[2]})*y + ({coeff[3]})*z"
                f" + ({coeff[4]})*x^2 + ({coeff[5]})*y*z + ({coeff[6]})*z^2",
                cs.coords,
            )
            p = tuple(rng.uniform(-0.6, 0.6, size=3))
            frame = tw_coframe(cs, p)
            out = check_rotation_covariance(solve_structure_equations(frame), phi)
            worst_cov = max(worst_cov, out["omega_shift"], out["ab_rotation"])
            rotated = rotate_coframe(frame, phi)
            m1 = tw_connection(solve_structure_equations(frame)).coordinate_action(alpha)
            m2 = tw_connection(solve_structure_equations(rotated)).coordinate_action(alpha)
            worst_action = max(worst_action, float(np.max(np.abs(m1 - m2))))
    ok = worst_cov < 1e-9 and worst_action < 1e-9
    verdict(
        6, ok,
        f"20 random angle polynomials x 2 models: covariance residual {worst_cov:.3e}, "
        f"coframe-choice action drift {worst_action:.3e}, both < 1e-9",
    )


def test_criterion_07_partial_agreement():
    worst_e = 0.0
    worst_theta = 0.0
    for name in BUILTINS_3D:
        spec = get_manifold(name)
        cs = spec.build()
        for p in sample_box(spec.box, 15, spec.seed):
            out = compare_partial(*tw_inputs(cs, p))
            worst_e = max(worst_e, out["e_agreement_residual"])
            worst_theta = max(worst_theta, out["theta_row_difference_residual"])
    ok = worst_e < 1e-9 and worst_theta < 1e-9
    verdict(
        7, ok,
        f"partial connections agree on e-rows ({worst_e:.3e}) and differ on the transversal "
        f"row by the fixed antisymmetric tensor ({worst_theta:.3e}), both < 1e-9",
    )


def test_criterion_08_full_comparison():
    worst_diff = 0.0
    worst_torsion = 0.0
    for name in BUILTINS_3D:
        spec = get_manifold(name)
        cs = spec.build()
        for p in sample_box(spec.box, 12, spec.seed):
            td, conn = tw_inputs(cs, p)
            out = compare_full(td, promote(conn))
            worst_diff = max(worst_diff, out["difference_tensor_residual"])
            worst_torsion = max(worst_torsion, out["torsion_e_rows_residual"])
    ok = worst_diff < 1e-8 and worst_torsion < 1e-8
    verdict(
        8, ok,
        f"difference tensor ({worst_diff:.3e}) and promoted torsion e-rows "
        f"({worst_torsion:.3e}) match their invariant expressions < 1e-8 on all 3D builtins",
    )


def test_criterion_09_promotion_closed_form():
    worst = 0.0
    for name in BUILTINS_3D:
        spec = get_manifold(name)
        cs = spec.build()
        for p in sample_box(spec.box, 10, spec.seed):
            td, conn = tw_inputs(cs, p)
            fc = promote(conn)
            ref = promoted_from_invariants(td)
            worst = max(
                worst,
                max(
                    abs((fc.coeffs[P][A][C] - ref.coeffs[P][A][C]).value)
                    for P in range(3)
                    for A in range(3)
                    for C in range(3)
                ),
            )
    verdict(
        9, worst < 1e-8,
        f"linear-solve promotion matches the 3D closed form, max difference {worst:.3e} < 1e-8",
    )


def test_criterion_10_sphere_regression():
    # frozen regression constant, first measured by this pipeline
    frozen_r = -4.0
    spec = get_manifold("sphere-chart")
    cs = spec.build()
    rs = []
    worst_ab = 0.0
    worst_r = 0.0
    for p in sample_box(spec.box, 40, spec.seed):
        td = solve_structure_equations(tw_coframe(cs, p))
        worst_ab = max(worst_ab, abs(td.A.value), abs(td.B.value))
        worst_r = max(worst_r, abs(td.R.value - frozen_r))
        rs.append(td.R.value)
    spread = statistics.pstdev(rs)
    ok = worst_ab < 1e-9 and worst_r < 1e-7 and spread < 1e-7
    verdict(
        10, ok,
        f"sphere chart over 40 points: |A|,|B| max {worst_ab:.3e}, curvature within "
        f"{worst_r:.3e} of frozen {frozen_r}, spread {spread:.3e} < 1e-7",
    )


GENERIC_EXPRS = [
    "x + y*z",
    "x*y*z - y/(2 + z*z)",
    "sqrt(4 + x + y*y)",
    "sin(x + 2*y) * cos(x*z)",
    "exp(x - y) + exp(sin(x*y) + z)",
    "x^3 - 2*x^-2 + (x + y)^2 / (3 + z^2)",
]


def test_criterion_11_jet_oracle():
    h = 1e-5
    worst = 0.0

    def check(expr, coords, pts):
        nonlocal worst
        dim = len(coords)
        for p in pts:
            j = eval_jet(expr, p, 2)
            for i in range(dim):
                up, dn = list(p), list(p)
                up[i] += h
                dn[i] -= h
                up, dn = tuple(up), tuple(dn)
                fd = (eval_jet(expr, up, 0).value - eval_jet(expr, dn, 0).value) / (2 * h)
                worst = max(worst, abs(j.grad[i] - fd) / max(1.0, abs(j.grad[i]), abs(fd)))
                gu = eval_jet(expr, up, 1).grad
                gd = eval_jet(expr, dn, 1).grad
                for k in range(dim):
                    fd2 = (gu[k] - gd[k]) / (2 * h)
                    worst = max(
                        worst, abs(j.hess[i, k] - fd2) / max(1.0, abs(j.hess[i, k]), abs(fd2))
                    )

    for name in ALL_BUILTINS:
        spec = get_manifold(name)
        cs = spec.build()
        pts = sample_box(spec.box, 3, spec.seed)
        for i in range(cs.dim):
            check(cs.theta.coeff((i,)), cs.coords, pts)
        for row in cs.g:
            for e in row:
                check(e, cs.coords, pts)
    rng = np.random.default_rng(11)
    generic_pts = [tuple(rng.uniform(0.3, 1.2, size=3)) for _ in range(4)]
    for text in GENERIC_EXPRS:
        check(parse_expr(text, ("x", "y", "z")), ("x", "y", "z"), generic_pts)
    verdict(
        11, worst < 1e-6,
        f"jets vs central differences (h=1e-5) on chart data and generic expressions, "
        f"worst relative error {worst:.3e} < 1e-6",
    )


def test_criterion_12_cli_contract(capsys, monkeypatch):
    argv = ["analyze", "--manifold", "heisenberg-perturbed", "--points", "4"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    deterministic = out1 == out2 and code1 == code2 == 0
    assert json.loads(out1)["passed"] is True

    code_unknown = main(["analyze", "--manifold", "torus"])
    code_unavailable = main(["analyze", "--manifold", "n2-split", "--suites", "rotation"])
    capsys.readouterr()

    import contactconn.cli as cli_mod
    from contactconn.report import Report, SuiteResult

    fake = Report(
        manifold="heisenberg", dim=3, seed=1, requested_points=1, skipped_points=0,
        suites=(SuiteResult(name="contact", passed=False, residuals={"duality": 1.0}, points_used=1),),
    )
    monkeypatch.setattr(cli_mod, "run_suites", lambda *a, **k: fake)
    code_fail = main(["analyze", "--manifold", "heisenberg"])
    capsys.readouterr()

    ok = deterministic and code_fail == 1 and code_unknown == 2 and code_unavailable == 2
    with capsys.disabled():
        verdict(
            12, ok,
            "CLI byte-identical reruns and exit codes 0/1/2 "
            f"(got {code1}/{code_fail}/{code_unknown},{code_unavailable})",
        )
