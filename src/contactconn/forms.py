"""Pointwise exterior algebra on a chart.

Values are k-forms and vectors with Jet entries; fields carry expression
coefficients and evaluate to values. Components are stored on strictly
increasing multi-indices with the determinant convention,
(dx^dy)(ddx, ddy) = 1.

Two exterior-derivative routes coexist on purpose:

- ``FormField.d`` differentiates the coefficient expressions
  structurally, so the derivative field evaluates to jets of the same
  order as the original. This is what the main pipeline uses.
- ``d_from_jets`` differentiates a k-form *value* whose jets carry one
  order more, losing that order. It exists for jet-backed data that has
  no expression form (the normalized contact form, frame coframes) and as
  an independent cross-check of the symbolic route in tests.

Pairing forms with vectors (evaluate_forms) and differentiating along
vectors (apply_vector) are array kernels over whole stacks of forms,
vectors and scalars; the single-value methods call them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .expressions import Expr, diff, lit
from .jets import Jet, JetArray, eval_jet, fold_chunks


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

    @staticmethod
    def from_array(arr: JetArray) -> "VectorValue":
        """The vector with the components of arr (dim,), which becomes its
        array view as it is, without a round trip through Jets."""
        v = VectorValue(tuple(arr.jets()))
        v.__dict__["array"] = arr
        return v

    @property
    def dim(self) -> int:
        return len(self.comps)

    def values(self) -> np.ndarray:
        return np.array([c.value for c in self.comps])

    @cached_property
    def array(self) -> JetArray:
        """The components as a JetArray of shape (dim,)."""
        return JetArray.from_jets(self.comps)

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
    def from_array(degree: int, arr: JetArray) -> "KFormValue":
        """The degree-form with the components of arr (K,) on the
        increasing multi-indices, in increasing_indices order; arr becomes
        its array view as it is, without a round trip through Jets."""
        idx = increasing_indices(arr.dim, degree)
        a = KFormValue(arr.dim, degree, dict(zip(idx, arr.jets())))
        a.__dict__["array"] = arr
        return a

    def comp(self, idx: tuple[int, ...]) -> Jet:
        return self.comps[idx]

    def order(self) -> int:
        return min(j.order for j in self.comps.values())

    def map(self, f) -> "KFormValue":
        return KFormValue(self.dim, self.degree, {i: f(j) for i, j in self.comps.items()})

    def restrict(self, order: int) -> "KFormValue":
        """Every component cut to order at most order, as Jet.restrict."""
        return self.map(lambda j: j.restrict(order))

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

    @cached_property
    def array(self) -> JetArray:
        """The components as a JetArray of shape (K,), in the order of
        comps."""
        return JetArray.from_jets(list(self.comps.values()))

    def evaluate(self, *vectors: VectorValue) -> Jet:
        """Pair with `degree` vectors, determinant convention."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of vectors")
        if self.degree == 0:
            return next(iter(self.comps.values()))
        if not self.comps:
            return Jet.constant(0.0, self.dim, 0)
        stacks = [v.array[None] for v in vectors]
        out = evaluate_forms(self.array, list(self.comps), *stacks)
        return out.reshape().jets()

    def max_abs_value(self) -> float:
        return max(abs(j.value) for j in self.comps.values())


def evaluate_forms(coeffs: JetArray, idx, *vectors: JetArray) -> JetArray:
    """Pair k-forms with stacks of vectors, every combination at once.

    coeffs holds the components of one or more k-forms on the increasing
    multi-indices idx, along its last axis: shape S+(K,). Each of the k
    vector stacks has shape (n_r, dim). Entry [s, u_1, ..., u_k] of the
    result, of shape S+(n_1, ..., n_k), is form s on (vectors[0][u_1],
    ..., vectors[k-1][u_k]): the left fold over components, in idx
    order, of the coefficient times the determinant of the picked vector
    components. The determinant sums its permutations in itertools order,
    each a left-to-right product times its sign, so every entry has the
    bits of the scalar expansion.

    Each term carries no part above the coefficients' top order, so the
    determinants are built at that order only: the vector stacks are cut
    to it first, which is exact (value and gradient rules never read a
    higher part). Stacks of higher order than the coefficients cost no
    more than stacks already cut.
    """
    k = len(vectors)
    cols = np.array(idx, dtype=np.intp).reshape(len(idx), k)
    stack = coeffs.shape[:-1]
    s = len(stack)
    sizes = tuple(len(v) for v in vectors)
    c = coeffs.transpose(s, *range(s))[(slice(None),) * (1 + s) + (None,) * k]
    vt = [v.restrict(coeffs.top).transpose(1, 0) for v in vectors]
    # Stack r's components on result axis r, shaped (K,) + 1s + n_r.
    place = [
        (slice(None),) + (None,) * s + tuple(slice(None) if q == r else None for q in range(k))
        for r in range(k)
    ]

    perms = [(perm, float(_perm_sign(perm))) for perm in itertools.permutations(range(k))]

    def terms(lo, hi):
        det = None
        for perm, sign in perms:
            term = None
            for t, r in enumerate(perm):
                comp = vt[r][cols[lo:hi, t]][place[r]]
                term = comp if term is None else term * comp
            term = term * sign
            det = term if det is None else det + term
        return c[lo:hi] * det

    return fold_chunks(len(cols), math.prod(stack) * math.prod(sizes), coeffs.dim, terms)


@lru_cache(maxsize=64)
def _wedge_table(dim: int, idx_a: tuple, idx_b: tuple):
    """The terms of the graded product of forms on the multi-indices idx_a
    and idx_b, in the order of a loop over idx_a, then idx_b: per term
    the positions (ia, ib) of its factors, its sign, the output key it
    adds to (an increasing multi-index, numbered as increasing_indices
    lists them) and its rank among the terms of that key; and the number
    of output keys."""
    degree = len(idx_a[0]) + len(idx_b[0])
    keys = {key: s for s, key in enumerate(increasing_indices(dim, degree))}
    ia, ib, sign, slot, rank = [], [], [], [], []
    fill = [0] * len(keys)
    for x, ka in enumerate(idx_a):
        for y, kb in enumerate(idx_b):
            s = _perm_sign(ka + kb)
            if s == 0:
                continue
            key = keys[tuple(sorted(ka + kb))]
            ia.append(x)
            ib.append(y)
            sign.append(float(s))
            slot.append(key)
            rank.append(fill[key])
            fill[key] += 1
    ia, ib, slot, rank = (np.array(v, dtype=np.intp) for v in (ia, ib, slot, rank))
    return ia, ib, np.array(sign), slot, rank, len(keys)


def wedge_arrays(a: JetArray, idx_a, b: JetArray, idx_b, dim: int) -> JetArray:
    """Graded product of the dim-dimensional forms with components a (K_a,)
    on the multi-indices idx_a and b (K_b,) on idx_b. Returns the
    components on the increasing multi-indices of the summed degree, in
    increasing_indices order.

    Each output component is the left fold, from a constant 0.0 seed, of
    the terms (a[ia] * b[ib]) * sign in the order of a loop over idx_a,
    then idx_b, skipping repeated indices; every component carries the
    lowest order of any input component. Keys with fewer terms are
    padded with -0.0, which leaves every sum unchanged (x + -0.0 is x for
    every x), so all keys fold in one pass.
    """
    ia, ib, sign, slot, rank, n_keys = _wedge_table(
        dim, tuple(map(tuple, idx_a)), tuple(map(tuple, idx_b))
    )
    order = int(min(a.order.min(), b.order.min()))
    seed = JetArray.constant(0.0, a.dim, (n_keys,), order)
    if not len(ia):
        return seed
    signs = JetArray.constant(0.0, a.dim, sign.shape, order)
    signs.value[...] = sign
    prod = (a.restrict(order)[ia] * b.restrict(order)[ib]) * signs
    shape = (int(rank.max()) + 1, n_keys)
    pad = lambda part: None if part is None else np.full(shape + part.shape[1:], -0.0)  # noqa: E731
    terms = JetArray(
        a.dim,
        pad(prod.value),
        pad(prod.grad),
        pad(prod.hess),
        np.full(shape, order, dtype=prod.order.dtype),
    )
    terms[rank, slot] = prod
    return terms.fold(seed)


def wedge(a: KFormValue, b: KFormValue) -> KFormValue:
    """Graded product; associativity and the sign rule are exercised in
    tests. The form-value face of wedge_arrays."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    k = a.degree + b.degree
    if k > a.dim:
        raise ValueError("degree overflow")
    out = wedge_arrays(a.array, list(a.comps), b.array, list(b.comps), a.dim)
    return KFormValue.from_array(k, out)


def apply_vector(v, f):
    """Derivative of jet-valued scalars along jet-valued vectors.

    This is the frame derivative X(f) = sum_i X^i d_i f with the product
    rule intact, folded over i, so the result is a jet one order below f
    (coerced further down if the vector components carry less).

    v is a VectorValue or a JetArray of vectors with the components on
    its last axis, shape V+(dim,); f is a Jet or a JetArray of shape F.
    For a VectorValue and a Jet the result is a Jet, otherwise a JetArray
    of shape V+F holding every vector's derivative of every scalar.
    """
    va = v.array if isinstance(v, VectorValue) else v
    fa = JetArray.from_jets(f) if isinstance(f, Jet) else f
    nv = len(va.shape) - 1
    nf = len(fa.shape)
    comps = va.transpose(nv, *range(nv))[(slice(None),) * (1 + nv) + (None,) * nf]
    parts = fa.partials()[(slice(None),) + (None,) * nv]
    out = fold_chunks(
        va.dim,
        math.prod(va.shape[:-1]) * math.prod(fa.shape),
        va.dim,
        lambda lo, hi: comps[lo:hi] * parts[lo:hi],
    )
    if isinstance(v, VectorValue) and isinstance(f, Jet):
        return out.jets()
    return out


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
