"""Pointwise exterior algebra on a chart.

Values are k-forms and vectors whose components are one JetArray;
fields carry expression coefficients and evaluate to values. Form
components are stored on strictly increasing multi-indices with the
determinant convention, (dx^dy)(ddx, ddy) = 1.

Two exterior-derivative routes coexist on purpose:

- ``FormField.d`` differentiates the coefficient expressions
  structurally, so the derivative field evaluates to jets of the same
  order as the original. This is what the main pipeline uses.
- ``d_from_jets`` differentiates a k-form *value* whose jets carry one
  order more, losing that order. It exists for jet-backed data that has
  no expression form (the normalized contact form, the frame's coframe
  rows, mu) and as an independent cross-check of the symbolic route in
  tests. It is one kernel for every degree and for stacks of forms.

Pairing forms with vectors (evaluate_forms), graded products
(wedge_arrays) and differentiating along vectors (apply_vector) are
array kernels over whole stacks of forms, vectors and scalars; the
single-value methods call them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr, diff, lit
from .jets import JetArray, Tape, fold_chunks


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
    """Tangent vector at a point: its components in the coordinate basis,
    a JetArray (dim,)."""

    array: JetArray

    @property
    def dim(self) -> int:
        return self.array.dim


@lru_cache(maxsize=64)
def _all_indices(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(increasing_indices(dim, k))


@dataclass(frozen=True)
class KFormValue:
    """k-form value: the components, a JetArray whose last axis (K,) runs
    over the strictly increasing multi-indices idx, by default all of
    them in increasing_indices order. Leading axes of the array, when
    present, stack several forms."""

    degree: int
    array: JetArray
    idx: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.idx is None:
            idx = _all_indices(self.dim, self.degree)
        else:
            idx = tuple(map(tuple, self.idx))
        object.__setattr__(self, "idx", idx)

    @property
    def dim(self) -> int:
        return self.array.dim

    def comp(self, idx: tuple[int, ...]) -> JetArray:
        """The component on the multi-index idx."""
        return self._component(self.idx.index(idx))

    def _component(self, k: int) -> JetArray:
        return self.array[(slice(None),) * (len(self.array.shape) - 1) + (k,)]

    def evaluate(self, *vectors: VectorValue) -> JetArray:
        """Pair with `degree` vectors, determinant convention."""
        if len(vectors) != self.degree:
            raise ValueError("wrong number of vectors")
        if self.degree == 0:
            return self._component(0)
        stack = self.array.shape[:-1]
        if not self.idx:
            return JetArray.constant(0.0, self.dim, stack, 0)
        stacks = [v.array[None] for v in vectors]
        return evaluate_forms(self.array, self.idx, *stacks).reshape(*stack)


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
    return KFormValue(k, wedge_arrays(a.array, a.idx, b.array, b.idx, a.dim))


def apply_vector(v, f: JetArray) -> JetArray:
    """Derivative of jet-valued scalars along jet-valued vectors.

    This is the frame derivative X(f) = sum_i X^i d_i f with the product
    rule intact, folded over i, so the result is a jet one order below f
    (coerced further down if the vector components carry less).

    v is a VectorValue or a JetArray of vectors with the components on
    its last axis, shape V+(dim,); f is a JetArray of shape F. The
    result, of shape V+F, holds every vector's derivative of every
    scalar: a single jet for one vector and one scalar.
    """
    va = v.array if isinstance(v, VectorValue) else v
    nv = len(va.shape) - 1
    nf = len(f.shape)
    comps = va.transpose(nv, *range(nv))[(slice(None),) * (1 + nv) + (None,) * nf]
    parts = f.partials()[(slice(None),) + (None,) * nv]
    return fold_chunks(
        va.dim,
        math.prod(va.shape[:-1]) * math.prod(f.shape),
        va.dim,
        lambda lo, hi: comps[lo:hi] * parts[lo:hi],
    )


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
        """The value at p, every coefficient a jet of the given order,
        through one tape."""
        tape = Tape([self.coeff(idx) for idx in _all_indices(self.dim, self.degree)])
        return KFormValue(self.degree, tape.eval(p, order))

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


@lru_cache(maxsize=64)
def _d_table(dim: int, degree: int, idx: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The terms of d on the multi-indices idx, per term t (a row) and
    output multi-index o of the next degree (a column): the coordinate
    o_t it differentiates along and the position in idx of o without
    o_t, the component it differentiates."""
    pos = {key: r for r, key in enumerate(idx)}
    out = list(increasing_indices(dim, degree + 1))
    coord = [[o[t] for o in out] for t in range(degree + 1)]
    rest = [[pos[o[:t] + o[t + 1 :]] for o in out] for t in range(degree + 1)]
    return np.array(coord, dtype=np.intp), np.array(rest, dtype=np.intp)


def d_from_jets(a: KFormValue) -> KFormValue:
    """Exterior derivative of a k-form value, consuming one jet order.

    The component jets of `a` are read as germs of coefficient functions:
    gradients provide the new value parts, Hessians the new gradients.
    Component o of the result is the left fold over t of the signed
    partials (-1)^t d_{o_t} a[o without o_t], from a constant 0.0 seed;
    a stack of forms (leading axes of a.array) is differentiated form by
    form.
    """
    if np.any(a.array.order < 1):
        raise ValueError("d_from_jets needs jets of order >= 1")
    coord, rest = _d_table(a.dim, a.degree, a.idx)
    s = len(a.array.shape) - 1
    # P[i, r, ...] = d_i of component r of every stacked form.
    P = a.array.partials().transpose(0, s + 1, *range(1, s + 1))
    acc = 0.0 + P[coord[0], rest[0]]
    for t in range(1, len(coord)):
        term = P[coord[t], rest[t]]
        acc = acc - term if t % 2 else acc + term
    return KFormValue(a.degree + 1, acc.transpose(*range(1, s + 1), 0))
