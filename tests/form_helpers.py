"""Jet and exterior-algebra helpers that only the tests use.

They stack single jets into arrays and sum them one by one, and they
check the library's forms against independent routes: structural d
evaluated at a point, interior products, the graded product and pairing
as loops over single jets, the round trip through the wedge-monomial
basis of a coframe, and a frame's coframe and frame vectors as form and
vector values.
"""

from __future__ import annotations

import itertools

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
from contactconn.jets import JetArray


def sum_jets(terms):
    """Left-to-right sum of a nonempty iterable of jets."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def stack(items):
    """Jets of one shape stacked on a new leading axis, the way the
    kernels hold them; parts an item lacks below the stack's top order
    are zeros."""
    out = JetArray.constant(
        0.0, items[0].dim, (len(items),) + items[0].shape, max(j.top for j in items)
    )
    for i, j in enumerate(items):
        out[i] = j
    return out


def order_of(a: KFormValue) -> int:
    """The lowest order of any component of a form value."""
    return int(a.array.order.min())


def scalar_wedge(a: KFormValue, b: KFormValue) -> KFormValue:
    """The graded product as a loop over single jets: each output
    component is the left fold, from a constant 0.0 seed, of
    (a_I * b_J) * sign over I, then J. The reference forms.wedge must
    match bit for bit."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    k = a.degree + b.degree
    if k > a.dim:
        raise ValueError("degree overflow")
    keys = list(increasing_indices(a.dim, k))
    out = zero_form(a.dim, k, min(order_of(a), order_of(b))).array
    for x, ia in enumerate(a.idx):
        for y, ib in enumerate(b.idx):
            merged = ia + ib
            sign = _perm_sign(merged)
            if sign == 0:
                continue
            s = keys.index(tuple(sorted(merged)))
            out[s] = out[s] + a.array[x] * b.array[y] * float(sign)
    return KFormValue(k, out)


def scalar_evaluate(form: KFormValue, *vectors: VectorValue) -> JetArray:
    """KFormValue.evaluate as a determinant loop over single jets, in the
    term and operand order the kernel must reproduce."""
    total = None
    for x, idx in enumerate(form.idx):
        det = None
        for perm in itertools.permutations(range(form.degree)):
            term = vectors[perm[0]].array[idx[0]]
            for t in range(1, form.degree):
                term = term * vectors[perm[t]].array[idx[t]]
            term = term * float(_perm_sign(perm))
            det = term if det is None else det + term
        term = form.array[x] * det
        total = term if total is None else total + term
    return total


def coframe(frame: AdaptedFrame) -> list[KFormValue]:
    """The full coframe (theta_hat, e^1, ..., e^2n) as 1-form values."""
    co = frame.coframe_array
    return [KFormValue(1, co[r]) for r in range(len(co))]


def frame_vectors(frame: AdaptedFrame) -> list[VectorValue]:
    """The full frame (T, X_1, ..., X_2n) as vector values."""
    return [frame.T] + [VectorValue(frame.X[r]) for r in range(len(frame.X))]


def zero_form(dim: int, degree: int, order: int) -> KFormValue:
    n = len(list(increasing_indices(dim, degree)))
    return KFormValue(degree, JetArray.constant(0.0, dim, (n,), order))


def exterior_derivative(f: FormField, p, order: int) -> KFormValue:
    """df at p with jets of the requested order, through structural d."""
    return f.d().eval(p, order)


def interior_product(v: VectorValue, a: KFormValue) -> KFormValue:
    """Contraction in the first slot: (v . a)(w...) = a(v, w...)."""
    if a.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    dim = a.dim
    keys = list(increasing_indices(dim, a.degree - 1))
    order = min(order_of(a), int(v.array.order.min()))
    out = zero_form(dim, a.degree - 1, order).array
    for x, idx in enumerate(a.idx):
        for t, i in enumerate(idx):
            r = keys.index(idx[:t] + idx[t + 1 :])
            out[r] = out[r] + a.array[x] * v.array[i] * (-1.0) ** t
    return KFormValue(a.degree - 1, out)


def express_in_coframe(a: KFormValue, coframe: list[KFormValue]):
    """Components of `a` in the wedge-monomial basis of a 1-form coframe,
    keyed by increasing index tuples into the coframe list. `a` is paired
    with the dual frame, the columns of the inverse coframe matrix."""
    dim = a.dim
    if len(coframe) != dim or any(c.degree != 1 for c in coframe):
        raise ValueError("coframe must be dim one-forms")
    order = min(min(order_of(c) for c in coframe), order_of(a))
    C = JetArray.constant(0.0, dim, (dim, dim), order)
    for r in range(dim):
        C[r] = coframe[r].array
    try:
        inv = _jet_matrix_inverse(C)
    except SingularMatrixError:
        raise SingularMatrixError("coframe value parts are linearly dependent") from None
    duals = [VectorValue(inv[:, col]) for col in range(dim)]
    return {
        idx: a.evaluate(*(duals[i] for i in idx))
        for idx in increasing_indices(dim, a.degree)
    }


def from_coframe(components, coframe: list[KFormValue], degree: int) -> KFormValue:
    """Inverse of express_in_coframe: rebuild the form from components."""
    dim = coframe[0].dim
    order = min(order_of(c) for c in coframe)
    if components:
        order = min(order, min(int(j.order) for j in components.values()))
    total = zero_form(dim, degree, order).array
    for idx, coeff in components.items():
        if not idx:
            total = total + coeff.reshape(1)
            continue
        mono = coframe[idx[0]]
        for i in idx[1:]:
            mono = wedge(mono, coframe[i])
        total = total + mono.array * coeff
    return KFormValue(degree, total)
