"""The classical pseudo-Hermitian connection in dimension 3, and its
comparison with the canonical one.

Pipeline: an adapted frame (T, X1, X2) of a 3-dimensional structure,
checked by tw_coframe to be oriented, so that its coframe (theta_hat,
e1, e2) has d(theta_hat) = e1 ^ e2; a least-squares solve of the six
structure equations

    de1 =  omega ^ e2 + A theta ^ e1 + B theta ^ e2
    de2 = -omega ^ e1 + B theta ^ e1 - A theta ^ e2

for the five unknowns (omega_theta, omega_1, omega_2, A, B); the scalar
curvature R as the top-form coefficient of d(omega) against the contact
form; the connection with nabla theta_hat = 0, nabla e1 = omega x e2,
nabla e2 = -omega x e1; and the two comparison reports against the
canonical partial connection and its promotion. The solved data,
TWData, carries the frame it was solved on, so everything downstream
takes the frame or that data alone. The comparisons and the rotation
check return their residuals only; the tw-compare and rotation suites
hold the gates those residuals are judged against.

The normal equations of the 6x5 system decouple, so the least-squares
solution is written in closed form; the single redundancy leaves the
residual |c1 + c5| / sqrt(2), which vanishes for any coframe coming from
an honest contact structure (d squared = 0) and is surfaced as a
diagnostic for upstream bugs.

d(omega) is evaluated on (X1, X2) through the frame bracket expansion
X1(omega(X2)) - X2(omega(X1)) - omega([X1, X2]), with the bracket read
off the structure values; this works entirely from the jets of omega's
H components, the order-1 structure values, and never needs a
derivative of the Reeb coefficient, which the order-2 budget could not
supply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import FullConnection, PartialConnection, full_torsion
from .contact import (
    ORDER,
    AdaptedFrame,
    ContactStructure,
    _frame_at,
    max_abs,
    rotate_frame,
)
from .errors import DegenerateFrameError, InconsistentStructureError
from .forms import apply_vector, pair_table
from .jets import JetArray, concatenate, eval_jet

STRUCTURE_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class TWData:
    """Structure-equation data solved on frame.

    omega, a JetArray (3,), holds the coframe components (omega_theta,
    omega_1, omega_2) as values, order 0: the H components are structure
    values, which solve_structure_equations differentiates from the
    order-1 D for R. A, B and R are single jets of order 0. classical,
    the classical connection on frame (nabla theta_hat = 0, nabla e1 =
    omega x e2, nabla e2 = -omega x e1), a FullConnection over the
    coframe at omega's order, is built on first read and shared by every
    reader.
    """

    frame: AdaptedFrame
    omega: JetArray
    A: JetArray
    B: JetArray
    R: JetArray
    residual: float

    @cached_property
    def classical(self) -> FullConnection:
        return _rotation_connection(self.frame, self.omega[0], self.omega[1:])


def _require_3d(dim: int) -> None:
    if dim != 3:
        raise ValueError(f"requires a 3-dimensional structure, got dim {dim}")


def tw_coframe(cs: ContactStructure, p, frame: AdaptedFrame | None = None) -> AdaptedFrame:
    """The adapted frame of a 3-dimensional structure at p, checked to be
    oriented: d(theta_hat)(X1, X2) = +1. Returns frame when given, an
    adapted frame of cs at p, else builds it; ValueError names both
    charts or both points for a frame built elsewhere."""
    _require_3d(cs.dim)
    frame = _frame_at(cs, p, frame)
    pairing = float(frame.Omega.value[0, 1])
    if abs(pairing - 1.0) > 1e-10:
        raise DegenerateFrameError(
            f"oriented coframe pairing d(theta_hat)(X1, X2) = {pairing!r}, expected 1"
        )
    return frame


def solve_structure_equations(frame: AdaptedFrame) -> TWData:
    """Least-squares solve for (omega, A, B) and the curvature R.

    The six scalar equations pair de1, de2 against the basis 2-forms;
    their normal equations decouple into the closed form below. The lone
    redundancy |c1 + c5| / sqrt(2) is the least-squares residual and must
    sit at rounding level. frame is a 3-dimensional adapted frame; only
    tw_coframe checks its d(theta_hat)(X1, X2) = 1, the suites gate it.
    """
    _require_3d(frame.dim)
    # d(theta_hat), de1 and de2 on the frame pairs (T, X1), (T, X2),
    # (X1, X2); on (X1, X2) they are Omega_12 and the structure values
    # D^1_12 = c3, D^2_12 = c6.
    pairs = frame.d_pairs[(slice(None),) + pair_table(3)]
    (_, _, om12), (c1, c2, c3), (c4, c5, c6) = pairs
    # The H components (omega_1, omega_2) = (c3, c6), read from D at its
    # order 1, and X_a(omega_b).
    w_h = frame.D[:, 0, 1]
    (_, x1_w2), (x2_w1, _) = apply_vector(frame.X, w_h)

    A = (c1 - c5) * 0.5
    B = (c2 + c4) * 0.5
    w_theta = (c2 - c4) * 0.5
    omega = concatenate([w_theta[None], w_h])

    residual = abs(float((c1 + c5).value)) / math.sqrt(2.0)
    if residual > STRUCTURE_RESIDUAL_TOL:
        raise InconsistentStructureError(
            f"structure equations are inconsistent: residual {residual:.3e} "
            f"(the input coframe does not close up)"
        )

    # d(omega)(X1, X2) through the bracket: [X1, X2] has Reeb component
    # -Omega_12 = -1 and H components -D^b_12 = -omega_b, that is -c3, -c6.
    bracket_omega = -(w_theta * om12) - ((0.0 + c3 * c3) + c6 * c6)
    R = x1_w2 - x2_w1 - bracket_omega
    return TWData(frame=frame, omega=omega, A=A, B=B, R=R, residual=residual)


def _rotation_connection(frame: AdaptedFrame, w_theta: JetArray, w_h: JetArray) -> FullConnection:
    """Coefficients over the full frame of nabla theta_hat = 0,
    nabla e1 = omega x e2 and nabla e2 = -omega x e1; omega has the Reeb
    component w_theta and the H components w_h (2,)."""
    coeffs = JetArray.constant(0.0, frame.dim, (3, 3, 3), min(w_theta.top, w_h.top))
    coeffs[0, 1, 2] = w_theta
    coeffs[0, 2, 1] = -w_theta
    coeffs[1:, 1, 2] = w_h
    coeffs[1:, 2, 1] = -w_h
    return FullConnection(frame=frame, coeffs=coeffs)


def promoted_from_invariants(td: TWData) -> FullConnection:
    """The promoted canonical connection assembled directly from
    (omega, A, B, R): the H-coefficients of the classical connection plus
    the Reeb-direction shift by R.

    nabla theta_hat = e1 x e2 - e2 x e1 on H directions,
    nabla e1 = (omega - R theta_hat) x e2, nabla e2 the negative mirror:
    the classical layout of omega - R theta_hat with Omega written into
    the theta_hat entries on H directions, which that layout leaves zero.
    Used to cross-check the general promotion against its closed form.
    """
    conn = _rotation_connection(td.frame, td.omega[0] - td.R, td.omega[1:])
    conn.coeffs[1:, 0, 1:] = td.frame.Omega
    return conn


def _phi_jet(frame: AdaptedFrame, phi) -> JetArray:
    """The angle phi as a single jet: as it is when it is one, else a
    number or a parsed expression at the frame's point, at order ORDER."""
    if isinstance(phi, JetArray):
        return phi
    if isinstance(phi, (int, float)):
        return JetArray.constant(float(phi), frame.dim, (), ORDER)
    return eval_jet(phi, frame.p, ORDER)


def rotate_coframe(frame: AdaptedFrame, phi) -> AdaptedFrame:
    """Coframe rotated by the angle function phi:

        e1' = cos(phi) e1 - sin(phi) e2,  e2' = sin(phi) e1 + cos(phi) e2

    and the frame vectors by the same matrix: rotate_frame with the SO(2)
    matrix of phi, which keeps duality and the orientation pairing
    d(theta_hat)(X1', X2') = +1. phi is a single jet, a number or a
    parsed expression; a jet below the frame's order makes rotate_frame
    raise ValueError.
    """
    _require_3d(frame.dim)
    ph = _phi_jet(frame, phi)
    co, si = ph.cos(), ph.sin()
    rot = JetArray.constant(0.0, frame.dim, (2, 2), ph.top)  # [[co, -si], [si, co]]
    rot[[0, 1], [0, 1]] = co
    rot[0, 1] = -si
    rot[1, 0] = si
    return rotate_frame(frame, rot)


def check_rotation_covariance(td: TWData, phi) -> dict:
    """Solve the structure equations in td's coframe rotated by phi (as
    rotate_coframe takes it) and compare with td against the predicted
    transformation:

        omega' = omega - d(phi)      (components taken in each coframe's
                                      own frame vectors)
        (A', B') = Rot(2 phi) (A, B)

    Returns the residuals omega_shift and ab_rotation and the curvature
    drift r_invariance = |R' - R|, which the transformation law leaves
    invariant.
    """
    base = td
    ph = _phi_jet(td.frame, phi)
    rotated = rotate_coframe(td.frame, ph)
    rot = solve_structure_equations(rotated)

    # The residuals read values only, so the expectations are built from
    # order-0 jets: phi's value, and d(phi), which needs phi at order 1.
    ph0 = ph.restrict(0)
    co, si = ph0.cos(), ph0.sin()

    # omega' components against (T, X1', X2'); omega is paired with the
    # rotated frame vectors before subtracting the phi derivative.
    dphi_T, dphi_1, dphi_2 = apply_vector(rotated.frame_array, ph.restrict(1))
    w_theta, w1, w2 = base.omega
    exp_theta = w_theta - dphi_T
    exp_1 = (co * w1 - si * w2) - dphi_1
    exp_2 = (si * w1 + co * w2) - dphi_2
    omega_shift = max(
        _gap(rot.omega[0], exp_theta), _gap(rot.omega[1], exp_1), _gap(rot.omega[2], exp_2)
    )

    co2 = co * co - si * si
    si2 = (co * si) * 2.0
    exp_A = co2 * base.A - si2 * base.B
    exp_B = si2 * base.A + co2 * base.B
    return {
        "omega_shift": omega_shift,
        "ab_rotation": max(_gap(rot.A, exp_A), _gap(rot.B, exp_B)),
        "r_invariance": _gap(rot.R, base.R),
    }


def _gap(a: JetArray, b: JetArray) -> float:
    """|a - b| of two single jets' values, as a Python float."""
    return abs(float((a - b).value))


def compare_partial(td: TWData, conn: PartialConnection) -> dict:
    """Canonical partial connection against the H-part of the classical
    one, in the shared adapted coframe: conn built on td.frame.

    They must agree on e1, e2 (coefficients omega_1, omega_2); on
    theta_hat the canonical one produces e1 x e2 - e2 x e1 where the
    classical one produces zero, so the difference there is reported
    against that fixed tensor. Returns the residuals e_agreement_residual
    and theta_row_difference_residual.
    """
    diff = conn.kappa.value - td.classical.coeffs.value[1:]  # [a, A, C]
    levi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return {
        "e_agreement_residual": max_abs(diff[:, 1:, 1:]),
        "theta_row_difference_residual": max_abs(diff[:, 0, 1:] - levi),
    }


def compare_full(td: TWData, fc: FullConnection) -> dict:
    """Promoted canonical connection fc against the classical one, fc
    promoted from a connection on td.frame.

    Checks, each componentwise:
      - the difference tensor equals R theta_hat x J(sigma) on the
        coframe H-part and e1 x e2 - e2 x e1 on theta_hat;
      - the promoted connection's torsion has e-rows
        theta_hat ^ [[A, B + R], [B - R, -A]] and no e ^ e part;
      - the torsion's theta_hat row equals minus the nondegenerate 2-form.

    Also reads R off the difference tensor and reports its drift from the
    structure-equation R. Returns the residuals difference_tensor_residual,
    torsion_e_rows_residual, torsion_theta_row_vs_minus_levi and r_drift.
    """
    omega = td.frame.Omega.value
    tw = td.classical

    # J on the coframe H-part: J e1 = -e2, J e2 = e1 (matrix of the
    # orientation 2-form).
    R = float(td.R.value)
    expected = np.zeros((3, 3, 3))
    expected[1:, 0, 1:] = omega
    expected[0, 1, 2] = -R
    expected[0, 2, 1] = R
    diff = fc.coeffs.value - tw.coeffs.value
    r_extracted = -float(diff[0, 1, 2])

    # d_pairs has order 0, so the torsion is values alone.
    tor = full_torsion(fc).value
    Av, Bv = float(td.A.value), float(td.B.value)
    # Every row on the pairs (T, X1), (T, X2), (X1, X2).
    on_pairs = tor[(slice(None),) + pair_table(3)]
    e_rows_expected = np.array([[Av, Bv + R, 0.0], [Bv - R, -Av, 0.0]])
    torsion_e_residual = max_abs(on_pairs[1:] - e_rows_expected)

    theta_T1, theta_T2, theta_12 = on_pairs[0].tolist()
    theta_vs_minus_levi = max(abs(theta_T1), abs(theta_T2), abs(theta_12 + float(omega[0, 1])))

    return {
        "difference_tensor_residual": max_abs(diff - expected),
        "torsion_e_rows_residual": torsion_e_residual,
        "torsion_theta_row_vs_minus_levi": theta_vs_minus_levi,
        "r_drift": abs(r_extracted - R),
    }
