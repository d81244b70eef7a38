"""Partial connections on the contact distribution and their promotion.

Everything here works in the adapted orthonormal frame, where the metric
is the identity and index raising is free. A partial connection in normal
form is the data Gamma[a][b][c] = Gamma^b_{ac} with the fixed actions

    nabla_{X_a} e^b   = -Gamma^b_{ac} e^c
    nabla_{X_a} theta = Omega_{ac} e^c
    nabla_{X_a} T     = 0

and the dual action on vectors. canonical_partial_connection obtains the
canonical connection from the torsion-free base Gamma = -D/2 by the
unique symmetric correction that kills the covariant derivative of the
metric; sigma / sigma_inv implement the symmetrization isomorphism that
makes the correction explicit.

Promotion extends a partial connection to the Reeb direction: the
coefficients along T are fixed by requiring the nondegenerate-2-form
component of the coupled second derivative of each coframe element to
vanish. A full connection is one coefficient tensor coeffs[P, A, C] over
the whole frame (T, X_1, ..., X_2n) and coframe, row P = 0 the Reeb
direction; its rows P >= 1 are the partial connection's kappa. The same
tensor hosts connections outside the normal form (the classical 3D one
has nabla theta = 0, which the normal form cannot express).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contact import (
    AdaptedFrame,
    ContactStructure,
    _frame_at,
    max_abs,
)
from .errors import SymmetryError
from .forms import FormField, apply_vector, pair_table
from .jets import JetArray, concatenate, contract


def _check_sym(t: JetArray, slots: tuple[int, int], what: str) -> None:
    """Raise SymmetryError naming the first entry, in index order, whose
    value differs by more than 1e-12 from the entry with the two slots
    swapped."""
    v = t.value
    gap = np.abs(v - v.swapaxes(*slots))
    bad = np.argwhere(gap > 1e-12)
    if len(bad):
        idx = tuple(bad[0].tolist())
        jdx = list(idx)
        jdx[slots[0]], jdx[slots[1]] = idx[slots[1]], idx[slots[0]]
        raise SymmetryError(
            f"{what} must be symmetric in slots {slots}; "
            f"entry {idx} differs from {tuple(jdx)} by {float(gap[idx]):.3e}"
        )


def sigma(s: JetArray) -> JetArray:
    """Symmetrize the last two slots: sigma(s)_abc = (s_abc + s_acb)/2.

    s is an (m, m, m) JetArray symmetric in its first two slots; the
    output is symmetric in its last two.
    """
    _check_sym(s, (0, 1), "sigma input")
    return (s + s.transpose(0, 2, 1)) * 0.5


def sigma_inv(t: JetArray) -> JetArray:
    """Two-sided inverse of sigma: sigma_inv(t)_abc = t_abc + t_bac - t_cab.

    t is an (m, m, m) JetArray symmetric in its last two slots; the
    output is symmetric in its first two.
    """
    _check_sym(t, (1, 2), "sigma_inv input")
    return t + t.transpose(1, 0, 2) - t.transpose(1, 2, 0)


@dataclass(frozen=True)
class PartialConnection:
    """Normal-form partial connection at a point, in its adapted frame."""

    frame: AdaptedFrame
    Gamma: JetArray

    @cached_property
    def promotion_system(self) -> tuple[JetArray, JetArray]:
        """(num, den) of the promotion solve, computed once and shared by
        promote and promotion_residual. Both carry one order below kappa:
        order 0 for a connection as built, the values a value-only reader
        needs."""
        return _promotion_system(self)

    def restrict(self, k: int) -> "PartialConnection":
        """The same connection with Gamma cut to order at most k, as
        JetArray.restrict cuts an array, so its kappa has that order too:
        everything derived from it has the bits the uncut connection
        gives, up to order k, without computing the parts above."""
        return PartialConnection(self.frame, self.Gamma.restrict(k))

    def coordinate_action_on_vector(self, vector: JetArray):
        """Value matrix of the H-derivative of a vector field given by its
        coordinate-component jets, a JetArray (dim,): entry (i, j) is the
        j-th coordinate of the derivative along the H-projection of the
        i-th coordinate direction. Frame-choice independent, so actions of
        connections built from different adapted frames can be compared
        directly.
        """
        frame = self.frame
        der = nabla_H_vector(self, frame.express_vector(vector))
        back = contract(der.transpose(1, 0)[:, :, None], frame.frame_array[:, None, :]).value
        return frame.coframe_array.value[1:].T @ back

    @cached_property
    def kappa(self) -> JetArray:
        """Coefficient matrices of every nabla_{X_a} on the coframe, shape
        (2n, 2n+1, 2n+1): entry [a, A, C] is the sigma^C-component of
        nabla_{X_a} sigma^A, index 0 being theta_hat. Row 0 is the 2-form
        row; no element ever produces a theta_hat component, which is what
        'normal form' means. kappa has the lower order of Gamma and Omega,
        the parts that go into it, order 1 as built.
        """
        frame = self.frame
        m = 2 * frame.n
        kap = JetArray.constant(
            0.0, frame.dim, (m, m + 1, m + 1), min(self.Gamma.top, frame.Omega.top)
        )
        kap[:, 0, 1:] = frame.Omega
        kap[:, 1:, 1:] = -self.Gamma
        return kap


def partial_torsion(conn: PartialConnection) -> JetArray:
    """Antisymmetrized connection action minus the H-restricted exterior
    derivative, per coframe element: entry [A, a, c] is the coefficient
    of e^a ^ e^c in the torsion of the A-th coframe element (A = 0 is
    theta_hat), antisymmetric in (a, c) by construction.

    The theta_hat row always equals the nondegenerate 2-form itself (the
    connection differentiates theta_hat into that 2-form twice, d once);
    the e-rows vanish exactly when the connection is torsion-free.
    """
    frame = conn.frame
    kap = conn.kappa
    # rows[A, a, c] = kappa[a, A, c + 1]; the wedge part is rows - rows^T.
    rows = kap[:, :, 1:].transpose(1, 0, 2)
    # The exterior derivative at kappa's order, the order the sum runs at.
    k = kap.top
    d_part = concatenate([frame.Omega.restrict(k)[None], frame.D.restrict(k)])
    return rows - rows.transpose(0, 2, 1) - d_part


def canonical_partial_connection(
    cs: ContactStructure,
    p,
    frame: AdaptedFrame | None = None,
    base_perturbation=None,
) -> PartialConnection:
    """The unique torsion-free metric partial connection at p.

    Starts from the torsion-free base Gamma^b_{ac} = -D^b_{ac}/2,
    optionally shifted by base_perturbation, an (m, m, m) JetArray
    symmetric in its first and last slots: any base that is symmetric in
    (a, c) gives the same result. Computes the frame components of the
    covariant derivative of the metric, and adds the sigma_inv-correction
    that cancels them while preserving zero torsion. frame, when given,
    is an adapted frame of cs at p, and ValueError names both charts or
    both points for a frame built elsewhere; otherwise it is built here.
    """
    frame = _frame_at(cs, p, frame)
    Gamma = frame.D.transpose(1, 0, 2) * -0.5
    if base_perturbation is not None:
        _check_sym(base_perturbation, (0, 2), "base perturbation (direction, argument)")
        Gamma = Gamma + base_perturbation

    # Frame components of nabla g: eta[c, a, b] = -(Gamma^b_{ca} + Gamma^a_{cb});
    # the frame metric is the identity, so this is pure connection algebra.
    eta = -(Gamma.transpose(0, 2, 1) + Gamma)
    w = sigma_inv(eta)
    return PartialConnection(frame, Gamma + w.transpose(0, 2, 1) * 0.5)


def _derivative(X: JetArray, kap: JetArray, t: JetArray) -> JetArray:
    """Covariant derivative of a covariant tensor along every vector X[P],
    given its coframe components t and the coefficients kap[P, A, C], the
    sigma^C-component of nabla_{X_P} sigma^A.

    Entry [P, I] is X_P(t_I) plus, slot by slot from slot 0, the
    contraction over E of t[I with slot s set to E] * kap[P, E + off,
    I_s + off]. Every axis of t has the size of kap's last two, or one
    less for H-only components (off 1). The components are differentiated
    once, so the corrections need no parts above the order that leaves.

    A vector goes through the same rule with the dual coefficients
    -kap.transpose(0, 2, 1): nabla_{X_P} F_B has F_C-component
    -kap[P, C, B], so its frame components v take the place of t.
    """
    full = kap.shape[1]
    rank = len(t.shape)
    sizes = set(t.shape)
    if not (sizes <= {full} or sizes <= {full - 1}):
        raise ValueError(
            f"coframe components must have every axis of size {full - 1} or {full}, "
            f"got shape {t.shape}"
        )
    off = full - t.shape[0] if rank else 0
    kapE = kap.restrict(max(t.top - 1, 0))[:, off:, off:].transpose(1, 0, 2)  # [E, P, B]
    out = apply_vector(X, t)
    every = slice(None)
    for s in range(rank):
        # Terms [E, P, I]: t with slot s moved first, times kap[P, E, I_s].
        lead = t.transpose(s, *(j for j in range(rank) if j != s))
        lead = lead[(every, None) + (every,) * s + (None,)]
        coef = kapE[(every, every) + (None,) * s + (every,) + (None,) * (rank - 1 - s)]
        out = out + contract(lead, coef)
    return out


def nabla_H(conn: PartialConnection, t: JetArray) -> JetArray:
    """Covariant derivative of a covariant tensor along each frame
    direction X_a, at the frame's point.

    t holds the tensor's coframe components, one axis per slot: a 1-form
    is (2n+1,), a (0,2)-tensor (2n+1, 2n+1), and axes of size 2n hold
    H-only components. Returns a JetArray indexed [a, ...] with the same
    component layout. Differentiating the components costs one jet order.
    A coordinate 1-form field alpha enters as
    frame.express(alpha.eval(frame.p, 2)).
    """
    return _derivative(conn.frame.X, conn.kappa, t)


def nabla_H_vector(conn: PartialConnection, v: JetArray) -> JetArray:
    """Covariant derivative of a vector along each frame direction X_a,
    given its frame components v (2n+1,), slot 0 the Reeb one: entry
    [a, B] is X_a(v_B) minus the contraction over C of kappa[a, B, C] v[C],
    _derivative with the dual coefficients."""
    return _derivative(conn.frame.X, -conn.kappa.transpose(0, 2, 1), v)


@dataclass(frozen=True)
class FullConnection:
    """Connection with coefficients along every frame direction.

    coeffs, a JetArray (2n+1, 2n+1, 2n+1): entry [P, A, C] is the
    sigma^C-component of nabla_{F_P} sigma^A, where F = (T, X_1, ...,
    X_2n) is the frame and sigma = (theta_hat, e^1, ..., e^2n) its
    coframe; row P = 0 is the Reeb direction.
    partial: the promoted-from partial connection when there is one.
    """

    frame: AdaptedFrame
    coeffs: JetArray
    partial: PartialConnection | None = None

    def derivative_of_oneform(self, alpha: JetArray) -> JetArray:
        """Frame derivative of a 1-form along every frame direction, given
        its coframe components alpha (2n+1,): entry [P, C], P = 0 the Reeb
        direction."""
        return _derivative(self.frame.frame_array, self.coeffs, alpha)

    def coordinate_action(self, alpha: FormField):
        """Value matrix of nabla alpha in coordinates at the frame's
        point, both slots down.

        Contracts the frame derivative back through the coframe so that
        results from differently-framed connections can be compared.
        """
        if alpha.degree != 1:
            raise ValueError("coordinate_action is implemented for 1-forms")
        frame = self.frame
        deriv = self.derivative_of_oneform(frame.express(alpha.eval(frame.p, 2)))
        co_vals = frame.coframe_array.value
        return co_vals.T @ deriv.value @ co_vals


def _promotion_system(conn: PartialConnection):
    """Per coframe element and output slot, the pairing of the coupled
    second-derivative obstruction with the nondegenerate 2-form.

    Returns (num, den) as jet arrays, num[A, C] the obstruction pairing
    and den the squared norm of the 2-form over index pairs; the extension
    coefficient that cancels the obstruction is -num/den. Both carry one
    order below conn's kappa: num meets a derivative of kappa, and den is
    built at the order of the num it divides. A connection as built,
    whose kappa has order 1, gives the values alone.
    """
    frame = conn.frame
    m = 2 * frame.n
    kap = conn.kappa
    X = frame.X

    # Every term below meets a derivative of kappa, one order below it, so
    # no operand needs parts above that order.
    k = kap.top - 1
    kapk = kap.restrict(k)
    D = frame.D.restrict(k)
    Om = frame.Omega.restrict(k)

    # K[u, v, A, C] = X_u(kappa[v, A, C]) + sum_E kappa[v, A, E] kappa[u, E, C],
    # every (u, v) at once, one contraction over E.
    corr = contract(
        kapk.transpose(2, 0, 1)[:, None, :, :, None],
        kapk.transpose(1, 0, 2)[:, :, None, None, :],
    )
    K = apply_vector(X, kap) + corr

    # One obstruction per pair u < v, stacked in pair_table order and
    # contracted over pairs with Omega_uv:
    # sum_e D[e, u, v] kappa[e] + K[u, v] - K[v, u].
    uu, vv = pair_table(m)
    Omk = Om[uu, vv]
    cc = contract(D[:, uu, vv][:, :, None, None], kapk[:, None])
    ob = cc + K[uu, vv] - K[vv, uu]
    return contract(ob, Omk[:, None, None]), contract(Omk, Omk)


def promote(conn: PartialConnection) -> FullConnection:
    """Extend a normal-form partial connection to the Reeb direction.

    For each coframe element the coupled exterior-derivative-squared has a
    well-defined component against the nondegenerate 2-form; the Reeb row
    of the coefficients is the unique choice making it vanish, and the H
    rows are the partial connection's kappa. Costs one jet order (the
    coefficients get differentiated once): for a connection as built the
    Reeb row is the values alone. The coefficient tensor has the lower
    order of its rows, as jets.concatenate gives it, so order 0 for a
    connection as built.
    """
    num, den = conn.promotion_system
    coeffs = concatenate([-(num / den)[None], conn.kappa])
    return FullConnection(frame=conn.frame, coeffs=coeffs, partial=conn)


def promotion_residual(fc: FullConnection) -> float:
    """How well the Reeb-row coefficients xi = coeffs[0] cancel the
    obstruction: max over components of |num + den * xi| / den. Requires
    the promoted connection to carry its partial part."""
    if fc.partial is None:
        raise ValueError("promotion residual needs the underlying partial connection")
    num, den = fc.partial.promotion_system
    dv = float(den.value)
    return max_abs((num.value + dv * fc.coeffs.value[0]) / dv)


def full_torsion(fc: FullConnection) -> JetArray:
    """Exterior derivative minus antisymmetrized full covariant
    derivative of each coframe element, in the coframe pair basis: entry
    [A, P, Q] is the coefficient of the P^Q basis 2-form in the torsion
    of the A-th coframe element, index 0 of P and Q the Reeb direction.
    """
    R = fc.coeffs.transpose(1, 0, 2)  # [A, P, Q]: sigma^Q-component of nabla_{F_P} sigma^A
    return fc.frame.d_pairs - (R - R.transpose(0, 2, 1))
