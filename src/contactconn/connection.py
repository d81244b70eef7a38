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
    _tuples,
    adapted_frame,
    frame_pair_matrix,
)
from .errors import SymmetryError
from .forms import FormField, VectorValue, apply_vector
from .jets import Jet, JetArray, fold_chunks


def _val(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def _check_sym(t, slots: tuple[int, int], what: str) -> None:
    m = len(t)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                idx = [a, b, c]
                jdx = list(idx)
                jdx[slots[0]], jdx[slots[1]] = idx[slots[1]], idx[slots[0]]
                lhs = _val(t[idx[0]][idx[1]][idx[2]])
                rhs = _val(t[jdx[0]][jdx[1]][jdx[2]])
                if abs(lhs - rhs) > 1e-12:
                    raise SymmetryError(
                        f"{what} must be symmetric in slots {slots}; "
                        f"entry {tuple(idx)} differs from {tuple(jdx)} by "
                        f"{abs(lhs - rhs):.3e}"
                    )


def sigma(s):
    """Symmetrize the last two slots: sigma(s)_abc = (s_abc + s_acb)/2.

    Input must be symmetric in its first two slots; the output is
    symmetric in its last two. Works on nested lists of Jets or numbers.
    """
    _check_sym(s, (0, 1), "sigma input")
    m = len(s)
    return [
        [[(s[a][b][c] + s[a][c][b]) * 0.5 for c in range(m)] for b in range(m)]
        for a in range(m)
    ]


def sigma_inv(t):
    """Two-sided inverse of sigma: sigma_inv(t)_abc = t_abc + t_bac - t_cab.

    Input must be symmetric in its last two slots; the output is symmetric
    in its first two.
    """
    _check_sym(t, (1, 2), "sigma_inv input")
    m = len(t)
    return [
        [
            [t[a][b][c] + t[b][a][c] - t[c][a][b] for c in range(m)]
            for b in range(m)
        ]
        for a in range(m)
    ]


@dataclass(frozen=True)
class PartialConnection:
    """Normal-form partial connection at a point, in its adapted frame."""

    frame: AdaptedFrame
    Gamma: tuple[tuple[tuple[Jet, ...], ...], ...]

    @property
    def h_dim(self) -> int:
        return 2 * self.frame.n

    @cached_property
    def promotion_system(self):
        """(num, den) of the promotion solve, computed once and shared by
        promote and promotion_residual."""
        num, den = _promotion_system(self)
        return _tuples(num.jets()), den.jets()

    def coordinate_action_on_vector(self, vector_jets):
        """Value matrix of the H-derivative of a vector field given by
        coordinate-component jets: entry (i, j) is the j-th coordinate of
        the derivative along the H-projection of the i-th coordinate
        direction. Frame-choice independent, so actions of connections
        built from different adapted frames can be compared directly.
        """
        frame = self.frame
        m = self.h_dim
        dim = frame.dim
        v = VectorValue(tuple(vector_jets))
        comps = frame.express_vector(v)
        der = JetArray.from_jets(nabla_H(self, frame_vector(comps)))
        back = _contract(der.transpose(1, 0)[:, :, None], frame.frame_array[:, None, :]).value
        co = frame.coframe()
        e_vals = np.array(
            [[co[a + 1].comp((i,)).value for i in range(dim)] for a in range(m)]
        )
        return e_vals.T @ back

    @cached_property
    def gamma_array(self) -> JetArray:
        """Gamma as one (2n, 2n, 2n) JetArray, entry [a, b, c] = Gamma^b_{ac}."""
        return JetArray.from_jets(self.Gamma)

    @property
    def kappa_array(self) -> JetArray:
        """Every kappa(a) at once: entry [a, A, C] is kappa(a)[A][C].
        Built on each access (it is cheap and large)."""
        frame = self.frame
        m = self.h_dim
        kap = JetArray.constant(0.0, frame.dim, (m, m + 1, m + 1))
        kap[:, 0, 1:] = frame.Omega_array
        kap[:, 1:, 1:] = -self.gamma_array
        return kap

    def kappa(self, a: int):
        """Coefficient matrix of nabla_{X_a} on the coframe:
        kappa[A][C] is the sigma^C-component of nabla_{X_a} sigma^A,
        index 0 being theta_hat. Row 0 is the 2-form row; no element ever
        produces a theta_hat component, which is what 'normal form' means.
        """
        return self.kappa_array[a].jets()


@dataclass(frozen=True)
class TorsionTensor:
    """Torsion components per coframe element.

    comps[A][P][Q] is the coefficient of the P^Q basis 2-form in the
    torsion of the A-th coframe element (A = 0 is theta_hat). For partial
    torsion P, Q run over H only; for full torsion index 0 is the Reeb
    direction. Antisymmetric in (P, Q) by construction.
    """

    comps: tuple[tuple[tuple[Jet, ...], ...], ...]
    h_inputs_only: bool

    def theta_row(self):
        return self.comps[0]

    def max_abs(self, rows=None) -> float:
        rows = range(len(self.comps)) if rows is None else rows
        return max(
            abs(e.value)
            for A in rows
            for row in self.comps[A]
            for e in row
        )

    def max_abs_h_rows(self) -> float:
        return self.max_abs(rows=range(1, len(self.comps)))


def base_partial_connection(frame: AdaptedFrame) -> PartialConnection:
    """The torsion-free reference connection Gamma^b_{ac} = -D^b_{ac}/2.

    Any symmetric-in-(a,c) modification is an equally valid base; the
    canonical construction is provably independent of that choice.
    """
    m = 2 * frame.n
    Gamma = tuple(
        tuple(
            tuple(frame.D[b][a][c] * -0.5 for c in range(m))
            for b in range(m)
        )
        for a in range(m)
    )
    return PartialConnection(frame, Gamma)


def partial_torsion(conn: PartialConnection) -> TorsionTensor:
    """Antisymmetrized connection action minus the H-restricted exterior
    derivative, per coframe element.

    The theta_hat row always equals the nondegenerate 2-form itself (the
    connection differentiates theta_hat into that 2-form twice, d once);
    the e-rows vanish exactly when the connection is torsion-free.
    """
    frame = conn.frame
    m = 2 * frame.n
    kap = conn.kappa_array[:, :, 1:]
    rows = []
    for A in range(m + 1):
        # row[a, c] = kappa(a)[A][c + 1]; the wedge part is row - row^T.
        row = kap[:, A]
        d_part = frame.Omega_array if A == 0 else frame.D_array[A - 1]
        rows.append(_tuples((row - row.transpose(1, 0) - d_part).jets()))
    return TorsionTensor(tuple(rows), h_inputs_only=True)


def canonical_partial_connection(
    cs: ContactStructure,
    p,
    frame: AdaptedFrame | None = None,
    base_perturbation=None,
) -> PartialConnection:
    """The unique torsion-free metric partial connection at p.

    Starts from the torsion-free base (optionally shifted by a symmetric
    perturbation, which provably cannot change the result), computes the
    frame components of the covariant derivative of the metric, and adds
    the sigma_inv-correction that cancels them while preserving zero
    torsion.
    """
    frame = frame or adapted_frame(cs, p)
    m = 2 * frame.n
    base = base_partial_connection(frame)
    Gamma = [[[base.Gamma[a][b][c] for c in range(m)] for b in range(m)] for a in range(m)]
    if base_perturbation is not None:
        pert = [
            [[base_perturbation[a][b][c] for c in range(m)] for b in range(m)]
            for a in range(m)
        ]
        _check_sym(pert, (0, 2), "base perturbation (direction, argument)")
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    Gamma[a][b][c] = Gamma[a][b][c] + base_perturbation[a][b][c]

    # Frame components of nabla g: eta[c][a][b] = -(Gamma^b_{ca} + Gamma^a_{cb});
    # the frame metric is the identity, so this is pure connection algebra.
    eta = [
        [
            [-(Gamma[c][b][a] + Gamma[c][a][b]) for b in range(m)]
            for a in range(m)
        ]
        for c in range(m)
    ]
    w = sigma_inv(eta)
    hat = tuple(
        tuple(
            tuple(Gamma[a][b][c] + w[a][c][b] * 0.5 for c in range(m))
            for b in range(m)
        )
        for a in range(m)
    )
    return PartialConnection(frame, hat)


@dataclass(frozen=True)
class FrameSection:
    """A section expressed in the adapted frame, for nabla_H.

    kind 'oneform' / 'vector': comps over the full (co)frame, slot 0 the
    Reeb one. kind 'tensor02': square matrix of components, either H-only
    (2n) or full (2n+1).
    """

    kind: str
    comps: tuple


def frame_oneform(comps) -> FrameSection:
    return FrameSection("oneform", tuple(comps))


def frame_vector(comps) -> FrameSection:
    return FrameSection("vector", tuple(comps))


def frame_tensor02(matrix) -> FrameSection:
    return FrameSection("tensor02", tuple(tuple(row) for row in matrix))


def _as_jet(x, dim: int) -> Jet:
    return x if isinstance(x, Jet) else Jet.constant(float(x), dim, 2)


def _stack(comps, dim: int) -> JetArray:
    """Section components (Jets or numbers, nested) as a JetArray."""

    def lift(x):
        return [lift(e) for e in x] if isinstance(x, (list, tuple)) else _as_jet(x, dim)

    return JetArray.from_jets(lift(comps))


def _contract(coeffs: JetArray, comps: JetArray) -> JetArray:
    """Left fold over the shared leading axis of the products
    coeffs[E] * comps[E]."""
    per_term = math.prod(np.broadcast_shapes(coeffs.shape[1:], comps.shape[1:]))
    return fold_chunks(
        len(coeffs), per_term, coeffs.dim, lambda lo, hi: coeffs[lo:hi] * comps[lo:hi]
    )


def nabla_H(conn: PartialConnection, field, p=None):
    """Covariant derivative along each frame direction X_a.

    field may be a coordinate-expressed 1-form FormField (converted to
    coframe components by frame pairing) or a FrameSection. Returns
    nested lists indexed [a][...] with the same component layout as the
    input. Differentiating the components costs one jet order.
    """
    frame = conn.frame
    m = 2 * frame.n
    dim = frame.dim
    kap = conn.kappa_array

    if isinstance(field, FormField):
        if field.degree != 1:
            raise ValueError("nabla_H on fields is implemented for 1-forms")
        comps = frame.express(field.eval(p if p is not None else frame.p, 2))
        field = frame_oneform(comps)

    if not isinstance(field, FrameSection):
        raise TypeError("expected a FormField or a FrameSection")

    X = frame.X_array
    # Every result adds a derivative, of order at most 1, to products of
    # kappa; those need no parts above order 1.
    kap = kap.restrict(1)
    if field.kind == "oneform":
        alpha = _stack(field.comps, dim)
        # alpha[A] * kappa(a)[A][C], folded over A.
        corr = _contract(alpha[:, None, None].restrict(1), kap.transpose(1, 0, 2))
        return (apply_vector(X, alpha) + corr).jets()
    if field.kind == "vector":
        v = _stack(field.comps, dim)
        # kappa(a)[B][C] * v[C], folded over C.
        corr = _contract(kap.transpose(2, 0, 1), v[:, None, None].restrict(1))
        return (apply_vector(X, v) - corr).jets()
    if field.kind == "tensor02":
        size = len(field.comps)
        if size == m:
            # H-only components: shift into the full kappa indexing.
            off = 1
        elif size == m + 1:
            off = 0
        else:
            raise ValueError("tensor02 components must be 2n or 2n+1 square")
        t = _stack(field.comps, dim)
        t1 = t.restrict(1)
        tt = t1.transpose(1, 0)
        out = []
        for a in range(m):
            # kk[E, B] = kappa(a)[E + off][B + off]
            kk = kap[a, off : off + size, off : off + size]
            first = _contract(kk[:, :, None], t1[:, None, :])
            second = _contract(kk[:, None, :], tt[:, :, None])
            out.append((apply_vector(X[a], t) + first + second).jets())
        return out
    raise ValueError(f"unknown section kind {field.kind!r}")


@dataclass(frozen=True)
class FullConnection:
    """Connection with both H and Reeb direction coefficients.

    kappa[A][a][C]: the sigma^C-component of nabla_{X_{a+1}} sigma^A.
    xi[A][C]: the sigma^C-component of nabla_T sigma^A.
    partial: the promoted-from partial connection when there is one; its
    coefficients are shared, not copied.
    """

    frame: AdaptedFrame
    kappa: tuple
    xi: tuple
    partial: PartialConnection | None = None

    @property
    def h_dim(self) -> int:
        return 2 * self.frame.n

    def derivative_of_oneform(self, alpha_comps):
        """Frame derivative of a coframe-expressed 1-form along every
        frame direction: out[P][C], P = 0 the Reeb direction."""
        frame = self.frame
        m = self.h_dim
        alpha = _stack(alpha_comps, frame.dim)
        # coeffs[A, P, C]: xi[A][C] for P = 0, kappa[A][P - 1][C] after.
        coeffs = JetArray.from_jets(
            [[self.xi[A]] + [self.kappa[A][a] for a in range(m)] for A in range(m + 1)]
        )
        corr = _contract(alpha[:, None, None], coeffs)
        return (apply_vector(frame.frame_array, alpha) + corr).jets()

    def coordinate_action(self, alpha: FormField, p):
        """Value matrix of nabla alpha in coordinates, both slots down.

        Contracts the frame derivative back through the coframe so that
        results from differently-framed connections can be compared.
        """
        frame = self.frame
        m = self.h_dim
        dim = frame.dim
        comps = frame.express(alpha.eval(p, 2))
        deriv = self.derivative_of_oneform(comps)
        co = frame.coframe()
        co_vals = np.array(
            [[co[A].comp((i,)).value for i in range(dim)] for A in range(m + 1)]
        )
        deriv_vals = np.array(
            [[deriv[P][C].value for C in range(m + 1)] for P in range(m + 1)]
        )
        return co_vals.T @ deriv_vals @ co_vals


def _promotion_system(conn: PartialConnection):
    """Per coframe element and output slot, the pairing of the coupled
    second-derivative obstruction with the nondegenerate 2-form.

    Returns (num, den) as jet arrays, num[A, C] the obstruction pairing
    and den the squared norm of the 2-form over index pairs; the extension
    coefficient that cancels the obstruction is -num/den.
    """
    frame = conn.frame
    m = 2 * frame.n
    kap = conn.kappa_array
    X = frame.X_array
    D = frame.D_array
    Om = frame.Omega_array

    # Every term below meets a derivative of kappa, of order at most 1, so
    # the products of kappa need no parts above order 1.
    kap1 = kap.restrict(1)

    # K(u, v)[A, C] = X_u(kappa_v[A][C]) + sum_E kappa_v[A][E] kappa_u[E][C]
    def K(u: int, v: int) -> JetArray:
        corr = _contract(kap1[v].transpose(1, 0)[:, :, None], kap1[u][:, None, :])
        return apply_vector(X[u], kap[v]) + corr

    uu, vv = np.triu_indices(m, 1)
    den = (Om[uu, vv] * Om[uu, vv]).fold()
    num = None
    for u, v in zip(uu.tolist(), vv.tolist()):
        cc = _contract(D[:, u, v][:, None, None], kap1)
        ob = (cc + K(u, v) - K(v, u)) * Om[u, v]
        num = ob if num is None else num + ob
    return num, den


def promote(conn: PartialConnection) -> FullConnection:
    """Extend a normal-form partial connection to the Reeb direction.

    For each coframe element the coupled exterior-derivative-squared has a
    well-defined component against the nondegenerate 2-form; xi is the
    unique choice making it vanish. Costs one jet order (the coefficients
    get differentiated once).
    """
    frame = conn.frame
    m = 2 * frame.n
    num, den = conn.promotion_system
    xi = _tuples((-(JetArray.from_jets(num) / den)).jets())
    kap = conn.kappa_array.jets()
    kappa = tuple(tuple(tuple(kap[a][A]) for a in range(m)) for A in range(m + 1))
    return FullConnection(frame=frame, kappa=kappa, xi=xi, partial=conn)


def promotion_residual(fc: FullConnection) -> float:
    """How well the extension coefficients cancel the obstruction:
    max over components of |num + den * xi| / den. Requires the promoted
    connection to carry its partial part."""
    if fc.partial is None:
        raise ValueError("promotion residual needs the underlying partial connection")
    m = fc.h_dim
    num, den = fc.partial.promotion_system
    dv = den.value
    return max(
        abs(num[A][C].value + dv * fc.xi[A][C].value) / dv
        for A in range(m + 1)
        for C in range(m + 1)
    )


def full_torsion(fc: FullConnection) -> TorsionTensor:
    """Exterior derivative minus antisymmetrized full covariant
    derivative of each coframe element, in the coframe pair basis.

    Index 0 of the input slots is the Reeb direction.
    """
    frame = fc.frame
    m = 2 * frame.n
    d_vals = frame.d_pairs
    xi = JetArray.from_jets(fc.xi)
    kap = JetArray.from_jets(fc.kappa)  # [A, a, C]
    # Reeb row: d_vals[A][0][q] - (xi[A][q] - kappa[A][q-1][0]).
    reeb = d_vals[:, 0, 1:] - (xi[:, 1:] - kap[:, :, 0])
    # H-H: d_vals[A][p][q] - (kappa[A][p-1][q] - kappa[A][q-1][p]), p < q.
    iu, ju = np.triu_indices(m, 1)
    hh = JetArray.constant(0.0, frame.dim, (m + 1, m, m))
    hh[:, iu, ju] = d_vals[:, iu + 1, ju + 1] - (kap[:, iu, ju + 1] - kap[:, ju, iu + 1])
    comps = frame_pair_matrix(reeb, hh)
    return TorsionTensor(_tuples(comps.jets()), h_inputs_only=False)
