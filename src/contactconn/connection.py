"""Partial connections on the contact distribution and their promotion.

Everything here works in the adapted orthonormal frame, where the metric
is the identity and index raising is free. A partial connection in normal
form is the data Gamma[a][b][c] = Gamma^b_{ac} with the fixed actions

    nabla_{X_a} e^b   = -Gamma^b_{ac} e^c
    nabla_{X_a} theta = Omega_{ac} e^c
    nabla_{X_a} T     = 0

and the dual action on vectors. The canonical connection is obtained from
the torsion-free base Gamma = -D/2 by the unique symmetric correction that
kills the covariant derivative of the metric; sigma / sigma_inv implement
the symmetrization isomorphism that makes the correction explicit.

Promotion extends a partial connection to the Reeb direction: the
coefficients xi are fixed by requiring the nondegenerate-2-form component
of the coupled second derivative of each coframe element to vanish. The
resulting full connection is stored as the general coefficient data
kappa[A][a][C], xi[A][C] over the whole coframe, a shape that also hosts
connections outside the normal form (the classical 3D one has
nabla theta = 0, which the normal form cannot express).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .contact import (
    AdaptedFrame,
    ContactStructure,
    adapted_frame,
    frame_pair_matrix,
    max_abs,
)
from .errors import SymmetryError
from .forms import FormField, apply_vector
from .jets import JetArray, fold_chunks


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

    @property
    def h_dim(self) -> int:
        return 2 * self.frame.n

    @cached_property
    def promotion_system(self) -> tuple[JetArray, JetArray]:
        """(num, den) of the promotion solve, computed once and shared by
        promote and promotion_residual. num carries order 1, and so does
        den, the only order the quotient -num/den can use."""
        return _promotion_system(self)

    def coordinate_action_on_vector(self, vector: JetArray):
        """Value matrix of the H-derivative of a vector field given by its
        coordinate-component jets, a JetArray (dim,): entry (i, j) is the
        j-th coordinate of the derivative along the H-projection of the
        i-th coordinate direction. Frame-choice independent, so actions of
        connections built from different adapted frames can be compared
        directly.
        """
        frame = self.frame
        der = nabla_H(self, frame_vector(frame.express_vector(vector)))
        back = _contract(der.transpose(1, 0)[:, :, None], frame.frame_array[:, None, :]).value
        return frame.coframe_array.value[1:].T @ back

    @cached_property
    def kappa(self) -> JetArray:
        """Coefficient matrices of every nabla_{X_a} on the coframe, shape
        (2n, 2n+1, 2n+1): entry [a, A, C] is the sigma^C-component of
        nabla_{X_a} sigma^A, index 0 being theta_hat. Row 0 is the 2-form
        row; no element ever produces a theta_hat component, which is what
        'normal form' means.
        """
        frame = self.frame
        m = self.h_dim
        kap = JetArray.constant(0.0, frame.dim, (m, m + 1, m + 1))
        kap[:, 0, 1:] = frame.Omega
        kap[:, 1:, 1:] = -self.Gamma
        return kap


def base_partial_connection(frame: AdaptedFrame) -> PartialConnection:
    """The torsion-free reference connection Gamma^b_{ac} = -D^b_{ac}/2.

    Any symmetric-in-(a,c) modification is an equally valid base; the
    canonical construction is provably independent of that choice.
    """
    return PartialConnection(frame, frame.D.transpose(1, 0, 2) * -0.5)


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
    m = 2 * frame.n
    # rows[A, a, c] = kappa[a, A, c + 1]; the wedge part is rows - rows^T.
    rows = conn.kappa[:, :, 1:].transpose(1, 0, 2)
    d_part = JetArray.constant(0.0, frame.dim, (m + 1, m, m))
    d_part[0] = frame.Omega
    d_part[1:] = frame.D
    return rows - rows.transpose(0, 2, 1) - d_part


def canonical_partial_connection(
    cs: ContactStructure,
    p,
    frame: AdaptedFrame | None = None,
    base_perturbation=None,
) -> PartialConnection:
    """The unique torsion-free metric partial connection at p.

    Starts from the torsion-free base (optionally shifted by
    base_perturbation, an (m, m, m) JetArray symmetric in its first and
    last slots, which provably cannot change the result), computes the
    frame components of the covariant derivative of the metric, and adds
    the sigma_inv-correction that cancels them while preserving zero
    torsion.
    """
    frame = frame or adapted_frame(cs, p)
    Gamma = base_partial_connection(frame).Gamma
    if base_perturbation is not None:
        _check_sym(base_perturbation, (0, 2), "base perturbation (direction, argument)")
        Gamma = Gamma + base_perturbation

    # Frame components of nabla g: eta[c, a, b] = -(Gamma^b_{ca} + Gamma^a_{cb});
    # the frame metric is the identity, so this is pure connection algebra.
    eta = -(Gamma.transpose(0, 2, 1) + Gamma)
    w = sigma_inv(eta)
    return PartialConnection(frame, Gamma + w.transpose(0, 2, 1) * 0.5)


@dataclass(frozen=True)
class FrameSection:
    """A section expressed in the adapted frame, for nabla_H.

    kind 'oneform' / 'vector': comps over the full (co)frame, slot 0 the
    Reeb one. kind 'tensor02': square matrix of components, either H-only
    (2n) or full (2n+1). comps is a JetArray.
    """

    kind: str
    comps: object


def frame_oneform(comps) -> FrameSection:
    return FrameSection("oneform", comps)


def frame_vector(comps) -> FrameSection:
    return FrameSection("vector", comps)


def frame_tensor02(matrix) -> FrameSection:
    return FrameSection("tensor02", matrix)


def _contract(coeffs: JetArray, comps: JetArray) -> JetArray:
    """Left fold over the shared leading axis of the products
    coeffs[E] * comps[E]."""
    per_term = math.prod(np.broadcast_shapes(coeffs.shape[1:], comps.shape[1:]))
    return fold_chunks(
        len(coeffs), per_term, coeffs.dim, lambda lo, hi: coeffs[lo:hi] * comps[lo:hi]
    )


def nabla_H(conn: PartialConnection, field) -> JetArray:
    """Covariant derivative along each frame direction X_a, at the
    frame's point.

    field may be a coordinate-expressed 1-form FormField (converted to
    coframe components by frame pairing) or a FrameSection. Returns a
    JetArray indexed [a, ...] with the same component layout as the
    input. Differentiating the components costs one jet order.
    """
    frame = conn.frame
    m = 2 * frame.n

    if isinstance(field, FormField):
        if field.degree != 1:
            raise ValueError("nabla_H on fields is implemented for 1-forms")
        field = frame_oneform(frame.express(field.eval(frame.p, 2)))

    if not isinstance(field, FrameSection):
        raise TypeError("expected a FormField or a FrameSection")

    X = frame.X
    if field.kind not in ("oneform", "vector", "tensor02"):
        raise ValueError(f"unknown section kind {field.kind!r}")
    comps = field.comps
    # Every result adds the derivative of the components, one order below
    # them, to products of kappa; those need no parts above that order.
    k = max(comps.top - 1, 0)
    kap = conn.kappa.restrict(k)
    low = comps.restrict(k)
    if field.kind == "oneform":
        # alpha[A] * kappa[a, A, C], folded over A.
        corr = _contract(low[:, None, None], kap.transpose(1, 0, 2))
        return apply_vector(X, comps) + corr
    if field.kind == "vector":
        # kappa[a, B, C] * v[C], folded over C.
        corr = _contract(kap.transpose(2, 0, 1), low[:, None, None])
        return apply_vector(X, comps) - corr
    size = len(comps)
    if size == m:
        # H-only components: shift into the full kappa indexing.
        off = 1
    elif size == m + 1:
        off = 0
    else:
        raise ValueError("tensor02 components must be 2n or 2n+1 square")
    # kk[E, a, B] = kappa[a, E + off, B + off]
    kk = kap[:, off : off + size, off : off + size].transpose(1, 0, 2)
    first = _contract(kk[:, :, :, None], low[:, None, None, :])
    second = _contract(kk[:, :, None, :], low.transpose(1, 0)[:, None, :, None])
    return apply_vector(X, comps) + first + second


@dataclass(frozen=True)
class FullConnection:
    """Connection with both H and Reeb direction coefficients.

    kappa, a JetArray (2n+1, 2n, 2n+1): entry [A, a, C] is the
    sigma^C-component of nabla_{X_{a+1}} sigma^A.
    xi, a JetArray (2n+1, 2n+1): entry [A, C] is the sigma^C-component of
    nabla_T sigma^A.
    partial: the promoted-from partial connection when there is one; its
    coefficients are shared, not copied.
    """

    frame: AdaptedFrame
    kappa: JetArray
    xi: JetArray
    partial: PartialConnection | None = None

    @property
    def h_dim(self) -> int:
        return 2 * self.frame.n

    def derivative_of_oneform(self, alpha: JetArray) -> JetArray:
        """Frame derivative of a 1-form along every frame direction, given
        its coframe components alpha (2n+1,): entry [P, C], P = 0 the Reeb
        direction."""
        frame = self.frame
        m = self.h_dim
        # coeffs[A, P, C]: xi[A, C] for P = 0, kappa[A, P - 1, C] after.
        coeffs = JetArray.constant(0.0, frame.dim, (m + 1, m + 1, m + 1))
        coeffs[:, 0] = self.xi
        coeffs[:, 1:] = self.kappa
        corr = _contract(alpha[:, None, None], coeffs)
        return apply_vector(frame.frame_array, alpha) + corr

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
    coefficient that cancels the obstruction is -num/den. Both carry
    order 1: num meets a derivative of kappa, and den is built at the
    order of the num it divides.
    """
    frame = conn.frame
    m = 2 * frame.n
    kap = conn.kappa
    X = frame.X
    D = frame.D
    Om = frame.Omega

    # Every term below meets a derivative of kappa, of order at most 1, so
    # the products of kappa need no parts above order 1.
    kap1 = kap.restrict(1)

    # K[u, v, A, C] = X_u(kappa[v, A, C]) + sum_E kappa[v, A, E] kappa[u, E, C],
    # every (u, v) at once, the sum folded over E.
    corr = _contract(
        kap1.transpose(2, 0, 1)[:, None, :, :, None],
        kap1.transpose(1, 0, 2)[:, :, None, None, :],
    )
    K = apply_vector(X, kap) + corr

    # One obstruction per pair u < v, stacked in triu order and folded
    # over pairs: (sum_e D[e, u, v] kappa[e] + K[u, v] - K[v, u]) Omega_uv.
    uu, vv = np.triu_indices(m, 1)
    Om1 = Om.restrict(1)[uu, vv]
    den = (Om1 * Om1).fold()
    cc = _contract(D[:, uu, vv][:, :, None, None], kap1[:, None])
    ob = (cc + K[uu, vv] - K[vv, uu]) * Om[uu, vv][:, None, None]
    return ob.fold(), den


def promote(conn: PartialConnection) -> FullConnection:
    """Extend a normal-form partial connection to the Reeb direction.

    For each coframe element the coupled exterior-derivative-squared has a
    well-defined component against the nondegenerate 2-form; xi is the
    unique choice making it vanish. Costs one jet order (the coefficients
    get differentiated once).
    """
    num, den = conn.promotion_system
    return FullConnection(
        frame=conn.frame,
        kappa=conn.kappa.transpose(1, 0, 2),
        xi=-(num / den),
        partial=conn,
    )


def promotion_residual(fc: FullConnection) -> float:
    """How well the extension coefficients cancel the obstruction:
    max over components of |num + den * xi| / den. Requires the promoted
    connection to carry its partial part."""
    if fc.partial is None:
        raise ValueError("promotion residual needs the underlying partial connection")
    num, den = fc.partial.promotion_system
    dv = float(den.value)
    return max_abs((num.value + dv * fc.xi.value) / dv)


def full_torsion(fc: FullConnection) -> JetArray:
    """Exterior derivative minus antisymmetrized full covariant
    derivative of each coframe element, in the coframe pair basis: entry
    [A, P, Q] is the coefficient of the P^Q basis 2-form in the torsion
    of the A-th coframe element, index 0 of P and Q the Reeb direction.
    """
    frame = fc.frame
    m = 2 * frame.n
    d_vals = frame.d_pairs
    xi = fc.xi
    kap = fc.kappa  # [A, a, C]
    # Reeb row: d_vals[A][0][q] - (xi[A][q] - kappa[A][q-1][0]).
    reeb = d_vals[:, 0, 1:] - (xi[:, 1:] - kap[:, :, 0])
    # H-H: d_vals[A][p][q] - (kappa[A][p-1][q] - kappa[A][q-1][p]), p < q.
    iu, ju = np.triu_indices(m, 1)
    hh = JetArray.constant(0.0, frame.dim, (m + 1, m, m))
    hh[:, iu, ju] = d_vals[:, iu + 1, ju + 1] - (kap[:, iu, ju + 1] - kap[:, ju, iu + 1])
    return frame_pair_matrix(reeb, hh)
