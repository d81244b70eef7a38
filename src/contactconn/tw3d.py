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
takes the frame or that data alone.

The normal equations of the 6x5 system decouple, so the least-squares
solution is written in closed form; the single redundancy leaves the
residual |c1 + c5| / sqrt(2), which vanishes for any coframe coming from
an honest contact structure (d squared = 0) and is surfaced as a
diagnostic for upstream bugs.

d(omega) is evaluated on (X1, X2) through the frame bracket expansion
X1(omega(X2)) - X2(omega(X1)) - omega([X1, X2]), with the bracket read
off the structure values; this works entirely from the jets of omega's
frame components and never needs a derivative of the Reeb coefficient,
which the order-2 budget could not supply.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .connection import FullConnection, PartialConnection, full_torsion
from .contact import (
    ORDER,
    AdaptedFrame,
    ContactStructure,
    adapted_frame,
    max_abs,
    structure_values,
)
from .errors import DegenerateFrameError, InconsistentStructureError
from .forms import apply_vector, d_from_jets
from .jets import JetArray, eval_jet
from .report import within_gates

STRUCTURE_RESIDUAL_TOL = 1e-9

# Gates of the comparison residuals, each key's tolerance or None for a
# residual that is reported and not gated. A point passes when each gated
# residual is below its tolerance; the tw-compare and rotation suites
# report the keys of these tables.
PARTIAL_GATES = {"e_agreement_residual": 1e-9, "theta_row_difference_residual": 1e-9}
FULL_GATES = {
    "difference_tensor_residual": 1e-8,
    "torsion_e_rows_residual": 1e-8,
    "torsion_theta_row_vs_minus_levi": 1e-8,
    "r_drift": None,
}
ROTATION_GATES = {"omega_shift": 1e-9, "ab_rotation": 1e-9, "r_invariance": None}


@dataclass(frozen=True)
class TWData:
    """Structure-equation data solved on frame.

    omega, a JetArray (3,), holds the coframe components (omega_theta,
    omega_1, omega_2); the Reeb component carries jet order 0, the rest
    order 1, which is exactly enough to differentiate omega once for R.
    A, B and R are single jets.
    """

    frame: AdaptedFrame
    omega: JetArray
    A: JetArray
    B: JetArray
    R: JetArray
    residual: float


def _require_3d(dim: int) -> None:
    if dim != 3:
        raise ValueError(f"requires a 3-dimensional structure, got dim {dim}")


def tw_coframe(cs: ContactStructure, p, frame: AdaptedFrame | None = None) -> AdaptedFrame:
    """The adapted frame of a 3-dimensional structure at p, checked to be
    oriented: d(theta_hat)(X1, X2) = +1. Returns frame when given, else
    builds it."""
    _require_3d(cs.dim)
    frame = frame or adapted_frame(cs, p)
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
    sit at rounding level. frame is an oriented 3-dimensional adapted
    frame, as tw_coframe and rotate_coframe return.
    """
    _require_3d(frame.dim)
    # d(theta_hat), de1 and de2 on the frame pairs (T, X1), (T, X2),
    # (X1, X2); on (X1, X2) they are Omega_12 and the structure values
    # D^1_12 = c3, D^2_12 = c6.
    pairs = frame.d_pairs[:, [0, 0, 1], [1, 2, 2]]
    (_, _, om12), (c1, c2, c3), (c4, c5, c6) = pairs
    # X_a(omega_b) for the H components (omega_1, omega_2) = (c3, c6).
    (_, x1_w2), (x2_w1, _) = apply_vector(frame.X, pairs[1:, 2])

    A = (c1 - c5) * 0.5
    B = (c2 + c4) * 0.5
    w_theta = (c2 - c4) * 0.5
    w1 = c3
    w2 = c6
    omega = JetArray.constant(0.0, frame.dim, (3,))
    omega[0] = w_theta
    omega[1:] = pairs[1:, 2]

    residual = abs(float((c1 + c5).value)) / math.sqrt(2.0)
    if residual > STRUCTURE_RESIDUAL_TOL:
        raise InconsistentStructureError(
            f"structure equations are inconsistent: residual {residual:.3e} "
            f"(the input coframe does not close up)"
        )

    # d(omega)(X1, X2) through the bracket: [X1, X2] has Reeb component
    # -Omega_12 = -1 and H components -D^b_12.
    bracket_omega = -(w_theta * om12) - sum(
        (c3 * w1, c6 * w2), start=JetArray.constant(0.0, frame.dim)
    )
    R = x1_w2 - x2_w1 - bracket_omega
    return TWData(frame=frame, omega=omega, A=A, B=B, R=R, residual=residual)


def _rotation_connection(
    frame: AdaptedFrame, w_theta: JetArray, w_h: JetArray, with_levi: bool
) -> FullConnection:
    """Coefficients over the full frame of nabla e1 = omega x e2,
    nabla e2 = -omega x e1, and on H directions nabla theta_hat =
    e1 x e2 - e2 x e1 when with_levi, else nabla theta_hat = 0; omega has
    the Reeb component w_theta and the H components w_h (2,)."""
    coeffs = JetArray.constant(0.0, frame.dim, (3, 3, 3))
    if with_levi:
        coeffs[1:, 0, 1:] = frame.Omega
    coeffs[0, 1, 2] = w_theta
    coeffs[0, 2, 1] = -w_theta
    coeffs[1:, 1, 2] = w_h
    coeffs[1:, 2, 1] = -w_h
    return FullConnection(frame=frame, coeffs=coeffs)


def tw_connection(td: TWData) -> FullConnection:
    """Connection with nabla theta_hat = 0, nabla e1 = omega x e2,
    nabla e2 = -omega x e1, as coefficient data over td's coframe."""
    return _rotation_connection(td.frame, td.omega[0], td.omega[1:], with_levi=False)


def promoted_from_invariants(td: TWData) -> FullConnection:
    """The promoted canonical connection assembled directly from
    (omega, A, B, R): the H-coefficients of the classical connection plus
    the Reeb-direction shift by R.

    nabla theta_hat = e1 x e2 - e2 x e1 on H directions,
    nabla e1 = (omega - R theta_hat) x e2, nabla e2 the negative mirror.
    Used to cross-check the general promotion against its closed form.
    """
    return _rotation_connection(td.frame, td.omega[0] - td.R, td.omega[1:], with_levi=True)


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

    and the frame vectors by the same matrix, which keeps duality and the
    orientation pairing d(theta_hat)(X1', X2') = +1 (the matrix has
    determinant one). The structure values are recomputed for the new
    coframe; everything else is untouched. phi is a single jet, a number
    or a parsed expression.
    """
    _require_3d(frame.dim)
    ph = _phi_jet(frame, phi)
    co, si = ph.cos(), ph.sin()

    rot = JetArray.constant(0.0, frame.dim, (2, 2))  # [[co, -si], [si, co]]
    rot[[0, 1], [0, 1]] = co
    rot[0, 1] = -si
    rot[1, 0] = si

    def turn(rows: JetArray) -> JetArray:
        """Row b is rows[0] rot[b, 0] + rows[1] rot[b, 1]."""
        return rows[0][None] * rot[:, 0, None] + rows[1][None] * rot[:, 1, None]

    f = turn(frame.f)
    df = d_from_jets(f, 1)
    c = rot[:, 0] * frame.c[0] + rot[:, 1] * frame.c[1]
    X = turn(frame.X)
    D = structure_values(df, c, X, frame.Omega)
    return dataclasses.replace(frame, f=f, df=df, c=c, X=X, D=D)


def check_rotation_covariance(td: TWData, phi) -> dict:
    """Solve the structure equations in td's coframe rotated by phi (as
    rotate_coframe takes it) and compare with td against the predicted
    transformation:

        omega' = omega - d(phi)      (components taken in each coframe's
                                      own frame vectors)
        (A', B') = Rot(2 phi) (A, B)

    Returns the residuals omega_shift and ab_rotation, the curvature
    drift r_invariance = |R' - R|, which the transformation law leaves
    invariant, and passed, the verdict of ROTATION_GATES.
    """
    base = td
    ph = _phi_jet(td.frame, phi)
    rotated = rotate_coframe(td.frame, ph)
    rot = solve_structure_equations(rotated)

    co, si = ph.cos(), ph.sin()

    # omega' components against (T, X1', X2'); omega is paired with the
    # rotated frame vectors before subtracting the phi derivative.
    dphi_T, dphi_1, dphi_2 = apply_vector(rotated.frame_array, ph)
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
    out = {
        "omega_shift": omega_shift,
        "ab_rotation": max(_gap(rot.A, exp_A), _gap(rot.B, exp_B)),
        "r_invariance": _gap(rot.R, base.R),
        "structure_residuals": (base.residual, rot.residual),
    }
    return {"passed": within_gates(out, ROTATION_GATES), **out}


def _gap(a: JetArray, b: JetArray) -> float:
    """|a - b| of two single jets' values, as a Python float."""
    return abs(float((a - b).value))


def compare_partial(td: TWData, conn: PartialConnection) -> dict:
    """Canonical partial connection against the H-part of the classical
    one, in the shared adapted coframe: conn built on td.frame.

    They must agree on e1, e2 (coefficients omega_1, omega_2); on
    theta_hat the canonical one produces e1 x e2 - e2 x e1 where the
    classical one produces zero, so the difference there is reported
    against that fixed tensor.
    """
    kap = conn.kappa.value  # [a, A, C]
    wH = td.omega.value[1:]
    expected = np.zeros((2, 2, 2))
    expected[:, 0, 1] = wH
    expected[:, 1, 0] = -wH
    levi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = {
        "e_agreement_residual": max_abs(kap[:, 1:, 1:] - expected),
        "theta_row_difference_residual": max_abs(kap[:, 0, 1:] - levi),
        "structure_residual": td.residual,
    }
    return {"passed": within_gates(out, PARTIAL_GATES), **out}


def compare_full(td: TWData, fc: FullConnection) -> dict:
    """Promoted canonical connection fc against the classical one, fc
    promoted from a connection on td.frame.

    Checks, each componentwise:
      - the difference tensor equals R theta_hat x J(sigma) on the
        coframe H-part and e1 x e2 - e2 x e1 on theta_hat;
      - the promoted connection's torsion has e-rows
        theta_hat ^ [[A, B + R], [B - R, -A]] and no e ^ e part;
      - the torsion's theta_hat row, reported against both candidate
        values 0 and minus the nondegenerate 2-form (the latter is what
        the construction actually produces; the gate uses it).

    Also extracts R from the difference tensor and reports its drift from
    the structure-equation R.
    """
    omega = td.frame.Omega.value
    tw = tw_connection(td)

    # J on the coframe H-part: J e1 = -e2, J e2 = e1 (matrix of the
    # orientation 2-form).
    R = float(td.R.value)
    expected = np.zeros((3, 3, 3))
    expected[1:, 0, 1:] = omega
    expected[0, 1, 2] = -R
    expected[0, 2, 1] = R
    diff = fc.coeffs.value - tw.coeffs.value
    r_extracted = -float(diff[0, 1, 2])

    tor = full_torsion(fc).value
    Av, Bv = float(td.A.value), float(td.B.value)
    # e-rows on the pairs (T, X1), (T, X2), (X1, X2).
    e_rows = tor[1:, [0, 0, 1], [1, 2, 2]]
    e_rows_expected = np.array([[Av, Bv + R, 0.0], [Bv - R, -Av, 0.0]])
    torsion_e_residual = max_abs(e_rows - e_rows_expected)

    theta = tor[0].tolist()
    theta_vs_zero = max_abs(tor[0])
    theta_vs_minus_levi = max(
        abs(theta[0][1]),
        abs(theta[0][2]),
        abs(theta[1][2] + float(omega[0, 1])),
    )

    out = {
        "difference_tensor_residual": max_abs(diff - expected),
        "torsion_e_rows_residual": torsion_e_residual,
        "torsion_theta_row_vs_zero": theta_vs_zero,
        "torsion_theta_row_vs_minus_levi": theta_vs_minus_levi,
        "r_from_difference_tensor": r_extracted,
        "r_drift": abs(r_extracted - R),
        "structure_residual": td.residual,
    }
    return {"passed": within_gates(out, FULL_GATES), **out}
