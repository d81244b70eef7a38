"""Pointwise exterior algebra on a chart.

Values are k-forms and vectors with Jet entries; fields carry expression
coefficients and evaluate to values. Components are stored on strictly
increasing multi-indices with the determinant convention,
(dx^dy)(ddx, ddy) = 1.

Two exterior-derivative routes coexist on purpose:

- ``exterior_derivative`` / ``FormField.d`` differentiate the coefficient
  expressions structurally, so the derivative field evaluates to jets of
  the same order as the original. This is what the main pipeline uses.
- ``d_from_jets`` differentiates a k-form *value* whose jets carry one
  order more, losing that order. It exists for jet-backed data that has
  no expression form (the normalized contact form, frame coframes) and as
  an independent cross-check of the symbolic route in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import SingularMatrixError
from .expressions import Expr, diff, lit
from .jets import Jet, eval_jet, jet_linear_solve, sum_jets


def increasing_indices(dim: int, k: int):
    return itertools.combinations(range(dim), k)


def _perm_sign(seq) -> int:
    """Sign of the permutation sorting `seq`; 0 if entries repeat."""
    s = list(seq)
    if len(set(s)) != len(s):
        return 0
    sign = 1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class VectorValue:
    """Tangent vector at a point, components in the coordinate basis."""

    comps: tuple[Jet, ...]

    @property
    def dim(self) -> int:
        return len(self.comps)

    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.comps])

    def __add__(self, other: "VectorValue") -> "VectorValue":
        return VectorValue(tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "VectorValue") -> "VectorValue":
        return VectorValue(tuple(a - b for a, b in zip(self.comps, other.comps)))

    def scale(self, f) -> "VectorValue":
        return VectorValue(tuple(c * f for c in self.comps))


@dataclass(frozen=True)
class KFormValue:
    """k-form value; comps maps each increasing multi-index to a Jet."""

    dim: int
    degree: int
    comps: dict[tuple[int, ...], Jet]

    @staticmethod
    def zero(dim: int, degree: int, order: int) -> "KFormValue":
        z = {idx: Jet.constant(0.0, dim, order) for idx in increasing_indices(dim, degree)}
        return KFormValue(dim, degree, z)

    def comp(self, idx: tuple[int, ...]) -> Jet:
        return self.comps[idx]

    def order(self) -> int:
        return min(j.order for j in self.comps.values())

    def map(self, f) -> "KFormValue":
        return KFormValue(self.dim, self.degree, {i: f(j) for i, j in self.comps.items()})

    def __add__(self, other: "KFormValue") -> "KFormValue":
        assert self.degree == other.degree
        return KFormValue(
            self.dim,
            self.degree,
            {i: self.comps[i] + other.comps[i] for i in self.comps},
        )

    def __sub__(self, other: "KFormValue") -> "KFormValue":
        return self + other.map(lambda j: -j)

    def scale(self, f) -> "KFormValue":
        return self.map(lambda j: j * f)

    def evaluate(self, *vectors: VectorValue) -> Jet:
        """Pair with `degree` vectors, determinant convention."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of vectors")
        dim = self.dim
        if self.degree == 0:
            return next(iter(self.comps.values()))
        total = None
        for idx, coeff in self.comps.items():
            # det of the submatrix vectors[s].comps[idx[t]]
            det = None
            for perm in itertools.permutations(range(self.degree)):
                sign = _perm_sign(perm)
                term = vectors[perm[0]].comps[idx[0]]
                for t in range(1, self.degree):
                    term = term * vectors[perm[t]].comps[idx[t]]
                term = term * float(sign)
                det = term if det is None else det + term
            term = coeff * det
            total = term if total is None else total + term
        if total is None:
            total = Jet.constant(0.0, dim, 0)
        return total

    def max_abs_value(self) -> float:
        return max(abs(j.value) for j in self.comps.values())


def wedge(a: KFormValue, b: KFormValue) -> KFormValue:
    """Graded product; associativity and the sign rule are exercised in tests."""
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


def apply_vector(v: VectorValue, f: Jet) -> Jet:
    """Derivative of a jet-valued scalar along a jet-valued vector.

    This is the frame derivative X(f) = sum_i X^i d_i f with the product
    rule intact, so the result is a jet one order below f (coerced further
    down if the vector components carry less).
    """
    return sum_jets(vi * f.partial(i) for i, vi in enumerate(v.comps))


@dataclass(frozen=True)
class FormField:
    """k-form field with expression coefficients on increasing indices."""

    dim: int
    degree: int
    coeffs: dict[tuple[int, ...], Expr]

    @staticmethod
    def one_form(components: list[Expr]) -> "FormField":
        return FormField(
            len(components),
            1,
            {(i,): components[i] for i in range(len(components))},
        )

    def coeff(self, idx: tuple[int, ...]) -> Expr:
        return self.coeffs.get(idx, lit(0.0))

    def eval(self, p, order: int) -> KFormValue:
        comps = {
            idx: eval_jet(self.coeff(idx), p, order)
            for idx in increasing_indices(self.dim, self.degree)
        }
        return KFormValue(self.dim, self.degree, comps)

    def d(self) -> "FormField":
        """Exterior derivative as a field, via structural differentiation.

        No jet order is lost: the result's coefficients are plain
        expressions again.
        """
        from .expressions import add as eadd, mul as emul

        out: dict[tuple[int, ...], Expr] = {}
        for idx in increasing_indices(self.dim, self.degree + 1):
            total: Expr = lit(0.0)
            for t, i in enumerate(idx):
                rest = idx[:t] + idx[t + 1 :]
                term = diff(self.coeff(rest), i)
                total = eadd(total, emul(lit((-1.0) ** t), term))
            out[idx] = total
        return FormField(self.dim, self.degree + 1, out)


def exterior_derivative(f: FormField, p, order: int) -> KFormValue:
    """Evaluate df at p with jets of the requested order.

    Because the coefficients are differentiated structurally, the full
    order remains available; callers relying on jet-backed inputs must go
    through d_from_jets and lose one order there.
    """
    return f.d().eval(p, order)


def d_from_jets(a: KFormValue) -> KFormValue:
    """Exterior derivative of a k-form value, consuming one jet order.

    The component jets of `a` are read as germs of coefficient functions:
    gradients provide the new value parts, Hessians the new gradients.
    """
    order = a.order()
    if order < 1:
        raise ValueError("d_from_jets needs jets of order >= 1")
    dim = a.dim
    out = {}
    for idx in increasing_indices(dim, a.degree + 1):
        val = 0.0
        grad = np.zeros(dim) if order >= 2 else None
        for t, i in enumerate(idx):
            rest = idx[:t] + idx[t + 1 :]
            c = a.comps[rest]
            s = (-1.0) ** t
            val += s * c.grad[i]
            if order >= 2:
                grad = grad + s * c.hess[i]
        out[idx] = Jet(dim, order - 1, float(val), grad, None)
    return KFormValue(dim, a.degree + 1, out)


def express_in_coframe(a: KFormValue, coframe: list[KFormValue]):
    """Components of `a` in the wedge-monomial basis of a 1-form coframe.

    The coframe must consist of dim linearly independent 1-forms. Returns
    a dict keyed by increasing index tuples into the coframe list. The
    computation pairs `a` against the dual frame, obtained by a jet-valued
    solve, so components keep as much jet order as the inputs share.
    """
    dim = a.dim
    if len(coframe) != dim or any(c.degree != 1 for c in coframe):
        raise ValueError("coframe must be dim one-forms")
    order = min(min(c.order() for c in coframe), a.order())
    # Columns of the dual frame solve C X = I where C[r][i] = coframe[r]_i.
    C = [[coframe[r].comps[(i,)].restrict(order) for i in range(dim)] for r in range(dim)]
    jet_dim = C[0][0].dim
    try:
        duals = []
        for col in range(dim):
            rhs = [
                Jet.constant(1.0 if r == col else 0.0, jet_dim, order)
                for r in range(dim)
            ]
            duals.append(VectorValue(tuple(jet_linear_solve(C, rhs))))
    except SingularMatrixError:
        raise SingularMatrixError("coframe value parts are linearly dependent") from None
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
    total = KFormValue.zero(dim, degree, order)
    for idx, coeff in components.items():
        if not idx:
            total = total + KFormValue(dim, 0, {(): coeff})
            continue
        mono = coframe[idx[0]]
        for i in idx[1:]:
            mono = wedge(mono, coframe[i])
        total = total + mono.scale(coeff)
    return total
