"""Exterior-algebra helpers that only the tests use.

They check the library's forms against independent routes: structural d
evaluated at a point, interior products, the scalar graded product, the
round trip through the wedge-monomial basis of a coframe, and a frame's
coframe and frame vectors as form and vector values.
"""

from __future__ import annotations

from contactconn.contact import AdaptedFrame, _jet_matrix_inverse
from contactconn.errors import SingularMatrixError
from contactconn.forms import (
    FormField,
    KFormValue,
    VectorValue,
    _perm_sign,
    increasing_indices,
    wedge,
)
from contactconn.jets import Jet, JetArray


def scalar_wedge(a: KFormValue, b: KFormValue) -> KFormValue:
    """The graded product as a loop over scalar jets: each output
    component is the left fold, from a constant 0.0 seed, of
    (a_I * b_J) * sign over I, then J. The reference forms.wedge must
    match bit for bit."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    k = a.degree + b.degree
    if k > a.dim:
        raise ValueError("degree overflow")
    order = min(a.order(), b.order())
    out = {idx: Jet.constant(0.0, a.dim, order) for idx in increasing_indices(a.dim, k)}
    for ia, ja in a.comps.items():
        for ib, jb in b.comps.items():
            merged = ia + ib
            sign = _perm_sign(merged)
            if sign == 0:
                continue
            key = tuple(sorted(merged))
            out[key] = out[key] + ja * jb * float(sign)
    return KFormValue(a.dim, k, out)


def coframe(frame: AdaptedFrame) -> list[KFormValue]:
    """The full coframe (theta_hat, e^1, ..., e^2n) as 1-form values."""
    return [
        KFormValue(frame.dim, 1, {(i,): c for i, c in enumerate(row)})
        for row in frame.coframe_array.jets()
    ]


def frame_vectors(frame: AdaptedFrame) -> list[VectorValue]:
    """The full frame (T, X_1, ..., X_2n) as vector values."""
    return [frame.T] + [VectorValue(tuple(row)) for row in frame.X.jets()]


def zero_form(dim: int, degree: int, order: int) -> KFormValue:
    z = {idx: Jet.constant(0.0, dim, order) for idx in increasing_indices(dim, degree)}
    return KFormValue(dim, degree, z)


def exterior_derivative(f: FormField, p, order: int) -> KFormValue:
    """df at p with jets of the requested order, through structural d."""
    return f.d().eval(p, order)


def interior_product(v: VectorValue, a: KFormValue) -> KFormValue:
    """Contraction in the first slot: (v . a)(w...) = a(v, w...)."""
    if a.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    dim = a.dim
    order = min(a.order(), min(c.order for c in v.comps))
    out = {
        idx: Jet.constant(0.0, dim, order)
        for idx in increasing_indices(dim, a.degree - 1)
    }
    for idx, coeff in a.comps.items():
        for t, i in enumerate(idx):
            rest = idx[:t] + idx[t + 1 :]
            sign = (-1.0) ** t
            out[rest] = out[rest] + coeff * v.comps[i] * sign
    return KFormValue(dim, a.degree - 1, out)


def express_in_coframe(a: KFormValue, coframe: list[KFormValue]):
    """Components of `a` in the wedge-monomial basis of a 1-form coframe,
    keyed by increasing index tuples into the coframe list. `a` is paired
    with the dual frame, the columns of the inverse coframe matrix."""
    dim = a.dim
    if len(coframe) != dim or any(c.degree != 1 for c in coframe):
        raise ValueError("coframe must be dim one-forms")
    order = min(min(c.order() for c in coframe), a.order())
    C = [[coframe[r].comps[(i,)].restrict(order) for i in range(dim)] for r in range(dim)]
    try:
        inv = _jet_matrix_inverse(JetArray.from_jets(C)).jets()
    except SingularMatrixError:
        raise SingularMatrixError("coframe value parts are linearly dependent") from None
    duals = [VectorValue(tuple(inv[i][col] for i in range(dim))) for col in range(dim)]
    return {
        idx: a.evaluate(*(duals[i] for i in idx))
        for idx in increasing_indices(dim, a.degree)
    }


def from_coframe(components, coframe: list[KFormValue], degree: int) -> KFormValue:
    """Inverse of express_in_coframe: rebuild the form from components."""
    dim = coframe[0].dim
    order = min(c.order() for c in coframe)
    if components:
        order = min(order, min(j.order for j in components.values()))
    total = zero_form(dim, degree, order)
    for idx, coeff in components.items():
        if not idx:
            total = total + KFormValue(dim, 0, {(): coeff})
            continue
        mono = coframe[idx[0]]
        for i in idx[1:]:
            mono = wedge(mono, coframe[i])
        total = total + mono.scale(coeff)
    return total
