"""Two oracles from flows, in every dimension (docs/oracles.md sections 10
and 11). The closure identity of the Reeb flow reads only the frame's
Omega and d(e^c)(T, X_a). The normal-geodesic identity reads the
brackets of X and T from their coordinate values and first derivatives,
with no D, sigma, sigma_inv or kappa, and checks the canonical
connection's Gamma against them.
"""

import numpy as np
import pytest

from contactconn import connection
from contactconn import contact as contact_mod
from contactconn.connection import canonical_partial_connection
from contactconn.contact import adapted_frame, max_abs
from contactconn.forms import apply_vector
from contactconn.registry import builtin_registry
from contactconn.sampling import SplitMix64, sample_box
from contactconn.tw3d import solve_structure_equations
from form_helpers import CHARTS, chart_spec

CHARTS_3D = [spec.name for spec in builtin_registry() if spec.dim == 3]
ORACLE_TOL = 1e-12


def frames(name, points, seed):
    spec = chart_spec(name)
    cs = spec.build()
    return [adapted_frame(cs, p) for p in sample_box(spec.box, points, seed)]


def reeb_flow_matrix(frame):
    """M[c, a] = d(e^c)(T, X_a), the H-part of -[T, X_a] in the frame."""
    return frame.d_pairs[1:, 0, 1:].value


def closure(frame):
    """C = T(Omega) + M^T Omega + Omega M, the frame components of
    L_T d(theta_hat) on H, which vanish."""
    M = reeb_flow_matrix(frame)
    Om = frame.Omega.value
    return apply_vector(frame.T, frame.Omega).value + M.T @ Om + Om @ M


def horizontal_reeb_defect(monkeypatch):
    """Every frame's T gets 1e-6 P(d_i), a vector in H, as in
    tests/test_suites.py: theta_hat(T) stays 1, T is no Reeb field."""
    real = contact_mod._reeb_from_values

    def shifted(theta, dt):
        T = real(theta, dt)
        m = int(np.argmax(np.abs(theta.value)))
        return T + contact_mod._project_onto_h(theta, m)[int(m == 0)] * 1e-6

    monkeypatch.setattr(contact_mod, "_reeb_from_values", shifted)


class TestReebFlowClosure:
    @pytest.mark.parametrize("name", CHARTS)
    def test_closure_holds(self, name):
        # At most 1.9e-15 (sphere-chart); 0 on the flat models.
        assert max(max_abs(closure(frame)) for frame in frames(name, 8, 1)) < ORACLE_TOL

    @pytest.mark.parametrize("name", CHARTS_3D)
    def test_3d_closure_is_the_structure_residual_and_sym_M_is_A_B(self, name):
        for frame in frames(name, 8, 1):
            M = reeb_flow_matrix(frame)
            td = solve_structure_equations(frame)
            # C_12 = c1 + c5, the redundancy of the structure equations.
            c1_plus_c5 = (frame.d_pairs[1, 0, 1] + frame.d_pairs[2, 0, 2]).value
            assert abs(closure(frame)[0, 1] - c1_plus_c5) < ORACLE_TOL
            A, B = float(td.A.value), float(td.B.value)
            sym_free = (M + M.T) / 2 - np.trace(M) / 2 * np.eye(2)
            assert max_abs(sym_free - np.array([[A, B], [B, -A]])) < ORACLE_TOL

    @pytest.mark.parametrize("name", ["sphere-chart", "heisenberg-perturbed", "heis7.json"])
    def test_closure_catches_a_horizontal_reeb_field(self, monkeypatch, name):
        # C reads 1.8e-6, 3.0e-7 and 9.6e-8 here.
        horizontal_reeb_defect(monkeypatch)
        assert max(max_abs(closure(frame)) for frame in frames(name, 4, 1)) > 1e-9


def geodesic_gaps(name):
    """The largest misses of the geodesic identity
    h_dot_b + sum_{a,c} h_a h_c Gamma^b_ac = u (Omega h)_b and of the
    charge identity u_dot = h^T M h, over 4 covectors p = u theta_hat +
    sum_a h_a e^a at each of 6 points (seed 2), h and then u uniform in
    [-1, 1) from SplitMix64(2). Hamilton's equations give
    h_dot_b = sum_a h_a p([X_a, X_b]) and u_dot = sum_a h_a p([X_a, T]),
    the brackets V(W) - W(V) of the coordinate components.
    """
    spec = chart_spec(name)
    cs = spec.build()
    rng = SplitMix64(2)
    geodesic = charge = 0.0
    for p in sample_box(spec.box, 6, 2):
        frame = adapted_frame(cs, p)
        Gamma = canonical_partial_connection(cs, p, frame=frame).Gamma.value
        XX = apply_vector(frame.X, frame.X).value
        bracket_XX = XX - XX.transpose(1, 0, 2)
        bracket_XT = apply_vector(frame.X, frame.T).value - apply_vector(frame.T, frame.X).value
        M = reeb_flow_matrix(frame)
        m = 2 * frame.n
        for _ in range(4):
            h = np.array([2.0 * rng.next_double() - 1.0 for _ in range(m)])
            u = 2.0 * rng.next_double() - 1.0
            covector = frame.coframe_array.value.T @ np.concatenate([[u], h])
            h_dot = np.einsum("a,abi,i->b", h, bracket_XX, covector)
            u_dot = h @ (bracket_XT @ covector)
            miss = h_dot + np.einsum("a,abc,c->b", h, Gamma, h) - u * (frame.Omega.value @ h)
            geodesic = max(geodesic, max_abs(miss))
            charge = max(charge, abs(u_dot - h @ M @ h))
    return geodesic, charge


class TestNormalGeodesics:
    @pytest.mark.parametrize("name", CHARTS)
    def test_geodesic_and_charge_identities_hold(self, name):
        # Both at most 7.8e-16 (sphere-chart).
        geodesic, charge = geodesic_gaps(name)
        assert geodesic < ORACLE_TOL and charge < ORACLE_TOL

    @pytest.mark.parametrize("name", ["heisenberg-perturbed", "sphere-chart", "heis7.json"])
    def test_geodesic_identity_catches_a_scaled_sigma_inv(self, monkeypatch, name):
        # 2.4e-3, 9.6e-3 and 2.2e-3 here; the charge identity, which reads
        # no Gamma, stays at rounding.
        real = connection.sigma_inv
        monkeypatch.setattr(connection, "sigma_inv", lambda t: real(t) * 1.01)
        geodesic, charge = geodesic_gaps(name)
        assert geodesic > 1e-6 and charge < ORACLE_TOL
