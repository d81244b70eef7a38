"""Jet and exterior-algebra helpers that only the tests use.

They stack single jets into arrays and sum them one by one, and they
check the library's forms against independent routes: structural d
evaluated at a point, interior products, the graded product and pairing
as loops over single jets, the round trip through the wedge-monomial
basis of a coframe, and a frame's coframe and frame vectors as lists of
form and vector values. A k-form value is the JetArray of its components
on the increasing multi-indices, in increasing_indices order.
"""

from __future__ import annotations

import itertools

from contactconn.contact import AdaptedFrame, _jet_matrix_inverse
from contactconn.errors import SingularMatrixError
from contactconn.forms import (
    FormField,
    _perm_sign,
    evaluate_forms,
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


def comp(a: JetArray, degree: int, idx) -> JetArray:
    """The component of the degree-form value a on the multi-index idx."""
    return a[increasing_indices(a.dim, degree).index(tuple(idx))]


def evaluate(a: JetArray, *vectors: JetArray) -> JetArray:
    """The form value a, of degree len(vectors), on one vector per slot:
    a single jet."""
    return evaluate_forms(a, *(v[None] for v in vectors)).reshape()


def order_of(a: JetArray) -> int:
    """The lowest order of any component of a form value."""
    return int(a.order.min())


def scalar_wedge(a: JetArray, p: int, b: JetArray, q: int) -> JetArray:
    """The graded product as a loop over single jets: each output
    component is the left fold, from a constant 0.0 seed, of
    (a_I * b_J) * sign over I, then J. The reference forms.wedge must
    match bit for bit."""
    out_keys = increasing_indices(a.dim, p + q)
    out = zero_form(a.dim, p + q, min(order_of(a), order_of(b)))
    for x, ia in enumerate(increasing_indices(a.dim, p)):
        for y, ib in enumerate(increasing_indices(a.dim, q)):
            merged = ia + ib
            sign = _perm_sign(merged)
            if sign == 0:
                continue
            s = out_keys.index(tuple(sorted(merged)))
            out[s] = out[s] + a[x] * b[y] * float(sign)
    return out


def scalar_evaluate(form: JetArray, *vectors: JetArray) -> JetArray:
    """evaluate_forms on one vector per slot as a determinant loop over
    single jets, in the term and operand order the kernel must
    reproduce."""
    degree = len(vectors)
    total = None
    for x, idx in enumerate(increasing_indices(form.dim, degree)):
        det = None
        for perm in itertools.permutations(range(degree)):
            term = vectors[perm[0]][idx[0]]
            for t in range(1, degree):
                term = term * vectors[perm[t]][idx[t]]
            term = term * float(_perm_sign(perm))
            det = term if det is None else det + term
        term = form[x] * det
        total = term if total is None else total + term
    return total


def coframe(frame: AdaptedFrame) -> list[JetArray]:
    """The full coframe (theta_hat, e^1, ..., e^2n) as 1-form values."""
    return list(frame.coframe_array)


def frame_vectors(frame: AdaptedFrame) -> list[JetArray]:
    """The full frame (T, X_1, ..., X_2n) as vector values."""
    return [frame.T] + list(frame.X)


def zero_form(dim: int, degree: int, order: int) -> JetArray:
    return JetArray.constant(0.0, dim, (len(increasing_indices(dim, degree)),), order)


def exterior_derivative(f: FormField, p, order: int) -> JetArray:
    """df at p with jets of the requested order, through structural d."""
    return f.d().eval(p, order)


def interior_product(v: JetArray, a: JetArray, degree: int) -> JetArray:
    """Contraction of a degree-form in the first slot:
    (v . a)(w...) = a(v, w...)."""
    if degree < 1:
        raise ValueError("interior product needs degree >= 1")
    dim = a.dim
    out_keys = increasing_indices(dim, degree - 1)
    out = zero_form(dim, degree - 1, min(order_of(a), order_of(v)))
    for x, idx in enumerate(increasing_indices(dim, degree)):
        for t, i in enumerate(idx):
            r = out_keys.index(idx[:t] + idx[t + 1 :])
            out[r] = out[r] + a[x] * v[i] * (-1.0) ** t
    return out


def express_in_coframe(a: JetArray, degree: int, coframe: list[JetArray]):
    """Components of the degree-form `a` in the wedge-monomial basis of a
    1-form coframe, keyed by increasing index tuples into the coframe
    list. `a` is paired with the dual frame, the columns of the inverse
    coframe matrix."""
    dim = a.dim
    if len(coframe) != dim or any(c.shape != (dim,) for c in coframe):
        raise ValueError("coframe must be dim one-forms")
    order = min(min(order_of(c) for c in coframe), order_of(a))
    C = JetArray.constant(0.0, dim, (dim, dim), order)
    for r in range(dim):
        C[r] = coframe[r]
    try:
        inv = _jet_matrix_inverse(C)
    except SingularMatrixError:
        raise SingularMatrixError("coframe value parts are linearly dependent") from None
    duals = [inv[:, col] for col in range(dim)]
    return {idx: evaluate(a, *(duals[i] for i in idx)) for idx in increasing_indices(dim, degree)}


def from_coframe(components, coframe: list[JetArray], degree: int) -> JetArray:
    """Inverse of express_in_coframe: rebuild the form from components."""
    dim = coframe[0].dim
    order = min(order_of(c) for c in coframe)
    if components:
        order = min(order, min(int(j.order) for j in components.values()))
    total = zero_form(dim, degree, order)
    for idx, coeff in components.items():
        if not idx:
            total = total + coeff.reshape(1)
            continue
        mono = coframe[idx[0]]
        for r, i in enumerate(idx[1:]):
            mono = wedge(mono, r + 1, coframe[i], 1)
        total = total + mono * coeff
    return total
