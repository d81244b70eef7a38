"""3D layer: oriented coframes, structure equations, the classical
connection, rotation covariance, and the comparisons with the canonical
construction.
"""

import dataclasses
import statistics

import numpy as np
import pytest

from contactconn.connection import canonical_partial_connection, promote
from contactconn.contact import adapted_frame
from contactconn.errors import InconsistentStructureError
from contactconn.expressions import parse_expr
from contactconn.forms import FormField, apply_vector
from contactconn.jets import JetArray, eval_jet
from contactconn.registry import get_manifold
from contactconn.sampling import sample_box
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

P3 = (0.3, -0.4, 0.2)


def tw_inputs(cs, p):
    """Structure data on the oriented frame at p and the canonical
    connection on that frame: what the 3D comparisons take."""
    frame = tw_coframe(cs, p)
    return solve_structure_equations(frame), canonical_partial_connection(cs, p, frame=frame)


def max_coeff(fc):
    return max(abs(fc.coeffs[P][A][C].value) for P in range(3) for A in range(3) for C in range(3))


class TestStructureEquations:
    def test_heisenberg_closed_forms(self, heisenberg):
        # flat model: every invariant vanishes
        for p in [P3, (0.0, 0.0, 0.0), (-0.7, 0.6, 0.1)]:
            td = solve_structure_equations(tw_coframe(heisenberg, p))
            assert max(abs(w.value) for w in td.omega) < 1e-12
            assert abs(td.A.value) < 1e-12
            assert abs(td.B.value) < 1e-12
            assert abs(td.R.value) < 1e-12
            assert td.residual < 1e-12

    def test_heisenberg_connection_vanishes(self, heisenberg):
        td = solve_structure_equations(tw_coframe(heisenberg, P3))
        assert max_coeff(tw_connection(td)) < 1e-12

    def test_residual_small_on_curved_model(self, perturbed):
        td = solve_structure_equations(tw_coframe(perturbed, P3))
        assert td.residual < 1e-11

    def test_inconsistent_coframe_raises(self, heisenberg):
        frame = tw_coframe(heisenberg, P3)
        # shifting a Reeb coefficient by a function with nonzero H-gradient
        # knocks the mixed structure values off the solvable locus
        x_jet = eval_jet(parse_expr("x", heisenberg.coords), P3, 2)
        shift = JetArray.constant(0.0, frame.dim, (2,))
        shift[0] = x_jet
        bad = dataclasses.replace(frame, c=frame.c + shift)
        with pytest.raises(InconsistentStructureError):
            solve_structure_equations(bad)

    def test_rejects_higher_dimension(self):
        cs = get_manifold("n2-split").build()
        p = (0.1, -0.3, 0.2, 0.4, 0.0)
        with pytest.raises(ValueError, match="3-dimensional"):
            tw_coframe(cs, p)
        frame = adapted_frame(cs, p)
        with pytest.raises(ValueError, match="3-dimensional"):
            solve_structure_equations(frame)
        with pytest.raises(ValueError, match="3-dimensional"):
            rotate_coframe(frame, 0.0)


class TestRotation:
    def test_zero_angle_is_identity(self, perturbed):
        frame = tw_coframe(perturbed, P3)
        rotated = rotate_coframe(frame, 0.0)
        base = solve_structure_equations(frame)
        rot = solve_structure_equations(rotated)
        for i in range(2):
            assert np.allclose(rotated.X.value[i], frame.X.value[i], atol=1e-15)
        assert abs((rot.A - base.A).value) < 1e-14
        assert abs((rot.B - base.B).value) < 1e-14
        assert abs((rot.R - base.R).value) < 1e-12

    def test_flat_model_rotated_by_x(self, heisenberg):
        # with phi = x the rotated connection form is exactly -d(phi)
        x = parse_expr("x", heisenberg.coords)
        rotated = rotate_coframe(tw_coframe(heisenberg, P3), x)
        td = solve_structure_equations(rotated)
        phi = eval_jet(x, P3, 2)
        assert abs(td.omega[0].value) < 1e-13
        for a in range(2):
            want = -apply_vector(rotated.X[a], phi).value
            assert td.omega[a + 1].value == pytest.approx(want, abs=1e-12)
        # explicit values: X1' = cos(x) X1 - sin(x) X2 pairs dx to cos(x)
        assert td.omega[1].value == pytest.approx(-np.cos(0.3), abs=1e-12)
        assert td.omega[2].value == pytest.approx(-np.sin(0.3), abs=1e-12)
        assert abs(td.A.value) < 1e-12
        assert abs(td.B.value) < 1e-12
        assert abs(td.R.value) < 1e-11

    @pytest.mark.parametrize("model", ["heisenberg", "heisenberg-perturbed"])
    def test_random_polynomial_covariance(self, model, rng):
        cs = get_manifold(model).build()
        coords = cs.coords
        for _ in range(6):
            coeff = rng.uniform(-1.0, 1.0, size=7)
            phi = (
                f"({coeff[0]}) + ({coeff[1]})*x + ({coeff[2]})*y + ({coeff[3]})*z"
                f" + ({coeff[4]})*x^2 + ({coeff[5]})*y*z + ({coeff[6]})*z^2"
            )
            p = tuple(rng.uniform(-0.6, 0.6, size=3))
            td = solve_structure_equations(tw_coframe(cs, p))
            out = check_rotation_covariance(td, parse_expr(phi, coords))
            assert out["passed"]
            assert out["omega_shift"] < 1e-9
            assert out["ab_rotation"] < 1e-9
            assert out["r_invariance"] < 1e-9

    def test_classical_action_invariant(self, perturbed):
        # the classical connection does not depend on the coframe choice
        alpha = FormField.one_form(
            [parse_expr(s, perturbed.coords) for s in ("z", "x*y", "1 + y")]
        )
        frame = tw_coframe(perturbed, P3)
        rotated = rotate_coframe(frame, parse_expr("x - y^2", perturbed.coords))
        tw1 = tw_connection(solve_structure_equations(frame))
        tw2 = tw_connection(solve_structure_equations(rotated))
        m1 = tw1.coordinate_action(alpha)
        m2 = tw2.coordinate_action(alpha)
        assert np.max(np.abs(m1 - m2)) < 1e-9


class TestComparisons:
    @pytest.mark.parametrize(
        "model", ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart"]
    )
    def test_partial_agreement(self, model):
        spec = get_manifold(model)
        p = tuple(0.4 * lo for lo, _ in spec.box)
        out = compare_partial(*tw_inputs(spec.build(), p))
        assert out["passed"]
        assert out["e_agreement_residual"] < 1e-9
        assert out["theta_row_difference_residual"] < 1e-9

    @pytest.mark.parametrize(
        "model", ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart"]
    )
    def test_full_comparison(self, model):
        spec = get_manifold(model)
        p = tuple(0.4 * hi for _, hi in spec.box)
        td, conn = tw_inputs(spec.build(), p)
        out = compare_full(td, promote(conn))
        assert out["passed"]
        assert out["difference_tensor_residual"] < 1e-8
        assert out["torsion_e_rows_residual"] < 1e-8
        assert out["torsion_theta_row_vs_minus_levi"] < 1e-8
        assert out["r_drift"] < 1e-8

    def test_theta_rows_really_differ(self, perturbed):
        # the two torsions cannot both be zero on theta_hat: the promoted
        # one pairs H wedge H to minus the nondegenerate 2-form
        td, conn = tw_inputs(perturbed, P3)
        out = compare_full(td, promote(conn))
        assert out["torsion_theta_row_vs_zero"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "model", ["heisenberg", "heisenberg-aniso", "heisenberg-perturbed", "sphere-chart"]
    )
    def test_promotion_matches_closed_form(self, model):
        spec = get_manifold(model)
        cs = spec.build()
        for frac in (0.3, -0.5):
            p = tuple(frac * hi for _, hi in spec.box)
            td, conn = tw_inputs(cs, p)
            fc = promote(conn)
            ref = promoted_from_invariants(td)
            diff = max(
                abs((fc.coeffs[P][A][C] - ref.coeffs[P][A][C]).value)
                for P in range(3)
                for A in range(3)
                for C in range(3)
            )
            assert diff < 1e-8


class TestSphereRegression:
    def test_constant_curvature(self):
        spec = get_manifold("sphere-chart")
        cs = spec.build()
        rs = []
        for p in sample_box(spec.box, 12, spec.seed):
            td = solve_structure_equations(tw_coframe(cs, p))
            assert abs(td.A.value) < 1e-9
            assert abs(td.B.value) < 1e-9
            # frozen regression value, first measured by this pipeline
            assert abs(td.R.value - (-4.0)) < 1e-7
            rs.append(td.R.value)
        assert statistics.pstdev(rs) < 1e-7
