"""Pointwise exterior algebra on a chart.

A k-form value is the JetArray of its components: the last axis runs
over all strictly increasing multi-indices of length k, in
increasing_indices order, and leading axes, when present, stack several
forms. A vector value is a JetArray (..., dim) of its coordinate
components. Components follow the determinant convention,
(dx^dy)(ddx, ddy) = 1. The kernels below take a form's degree and work
out that layout themselves; nothing else in the package handles
multi-indices. Fields carry expression coefficients and evaluate to
values.

Two exterior-derivative routes coexist on purpose:

- ``FormField.d`` differentiates the coefficient expressions
  structurally, so the derivative field evaluates to jets of the same
  order as the original. This is what the main pipeline uses.
- ``d_from_jets`` differentiates a k-form *value* whose jets carry one
  order more, losing that order. It exists for jet-backed data that has
  no expression form (the normalized contact form, the frame's coframe
  rows, mu) and as an independent cross-check of the symbolic route in
  tests. It is one kernel for every degree and for stacks of forms.

Pairing forms with vectors (evaluate_forms), graded products (wedge)
and differentiating along vectors (apply_vector) are array kernels over
whole stacks of forms, vectors and scalars.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr, diff, lit
from .jets import JetArray, Tape, fold_chunks


@lru_cache(maxsize=64)
def increasing_indices(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The strictly increasing multi-indices of length k in range(dim), in
    itertools.combinations order: what a k-form value's last axis runs
    over."""
    return tuple(itertools.combinations(range(dim), k))


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


def _check_layout(a: JetArray, degree: int) -> None:
    """Raise ValueError unless a's last axis holds degree-form components."""
    n = len(increasing_indices(a.dim, degree)) if 0 <= degree <= a.dim else None
    if n is None or a.shape[-1:] != (n,):
        raise ValueError(f"shape {a.shape} does not hold {degree}-forms in dimension {a.dim}")


def evaluate_forms(coeffs: JetArray, *vectors: JetArray) -> JetArray:
    """Pair k-forms with stacks of vectors, every combination at once.

    coeffs holds one or more k-forms, k the number of vector stacks:
    shape S+(K,). Each of the k vector stacks has shape (n_r, dim). Entry
    [s, u_1, ..., u_k] of the result, of shape S+(n_1, ..., n_k), is form
    s on (vectors[0][u_1], ..., vectors[k-1][u_k]): the left fold over
    components, in layout order, of the coefficient times the determinant
    of the picked vector components. The determinant sums its
    permutations in itertools order, each a left-to-right product times
    its sign, so every entry has the bits of the scalar expansion.

    Each term carries no part above the coefficients' top order, so the
    determinants are built at that order only: the vector stacks are cut
    to it first, which is exact (value and gradient rules never read a
    higher part). Stacks of higher order than the coefficients cost no
    more than stacks already cut.
    """
    k = len(vectors)
    _check_layout(coeffs, k)
    cols = np.array(increasing_indices(coeffs.dim, k), dtype=np.intp)
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
def _wedge_table(dim: int, p: int, q: int):
    """The terms of the graded product of a p-form and a q-form, as
    (rank, key) tables: key numbers the output multi-index and rank the
    term's place among that key's terms, in the order of a loop over the
    p-form's multi-indices, then the q-form's. Entries are the positions
    of the two factors and the sign. Every key has the same number of
    terms, one per split of it into a p- and a q-index."""
    keys = {key: s for s, key in enumerate(increasing_indices(dim, p + q))}
    n_terms = math.comb(p + q, p)
    ia, ib = (np.zeros((n_terms, len(keys)), dtype=np.intp) for _ in range(2))
    sign = np.zeros((n_terms, len(keys)))
    fill = [0] * len(keys)
    for x, ka in enumerate(increasing_indices(dim, p)):
        for y, kb in enumerate(increasing_indices(dim, q)):
            s = _perm_sign(ka + kb)
            if s == 0:
                continue
            key = keys[tuple(sorted(ka + kb))]
            ia[fill[key], key], ib[fill[key], key], sign[fill[key], key] = x, y, s
            fill[key] += 1
    return ia, ib, sign


def wedge(a: JetArray, p: int, b: JetArray, q: int) -> JetArray:
    """Graded product of the p-form a and the q-form b, one form each:
    the components of the (p+q)-form.

    Each output component is the left fold, from a constant 0.0 seed, of
    the terms (a[ia] * b[ib]) * sign in the order of a loop over a's
    multi-indices, then b's, skipping repeated indices; every component
    carries the lowest order of any input component.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    _check_layout(a, p)
    _check_layout(b, q)
    if p + q > a.dim:
        raise ValueError("degree overflow")
    ia, ib, sign = _wedge_table(a.dim, p, q)
    order = int(min(a.order.min(), b.order.min()))
    seed = JetArray.constant(0.0, a.dim, sign.shape[1:], order)
    signs = JetArray.constant(0.0, a.dim, sign.shape, order)
    signs.value[...] = sign
    return ((a.restrict(order)[ia] * b.restrict(order)[ib]) * signs).fold(seed)


def apply_vector(v: JetArray, f: JetArray) -> JetArray:
    """Derivative of jet-valued scalars along jet-valued vectors.

    This is the frame derivative X(f) = sum_i X^i d_i f with the product
    rule intact, folded over i, so the result is a jet one order below f
    (coerced further down if the vector components carry less).

    v holds vectors with the components on its last axis, shape V+(dim,);
    f is a JetArray of shape F. The result, of shape V+F, holds every
    vector's derivative of every scalar: a single jet for one vector and
    one scalar.
    """
    nv = len(v.shape) - 1
    nf = len(f.shape)
    comps = v.transpose(nv, *range(nv))[(slice(None),) * (1 + nv) + (None,) * nf]
    parts = f.partials()[(slice(None),) + (None,) * nv]
    return fold_chunks(
        v.dim,
        math.prod(v.shape[:-1]) * math.prod(f.shape),
        v.dim,
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

    def components(self) -> list[Expr]:
        """The coefficient on every increasing multi-index, in the order
        of a form value's last axis."""
        return [self.coeff(idx) for idx in increasing_indices(self.dim, self.degree)]

    def eval(self, p, order: int) -> JetArray:
        """The form value at p, every coefficient a jet of the given
        order, through one tape."""
        return Tape(self.components()).eval(p, order)

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
def _d_table(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The terms of d on degree-forms, per term t (a row) and output
    multi-index o of the next degree (a column): the coordinate o_t it
    differentiates along and the position of o without o_t, the
    component it differentiates."""
    pos = {key: r for r, key in enumerate(increasing_indices(dim, degree))}
    out = increasing_indices(dim, degree + 1)
    coord = [[o[t] for o in out] for t in range(degree + 1)]
    rest = [[pos[o[:t] + o[t + 1 :]] for o in out] for t in range(degree + 1)]
    return np.array(coord, dtype=np.intp), np.array(rest, dtype=np.intp)


def d_from_jets(a: JetArray, degree: int) -> JetArray:
    """Exterior derivative of a degree-form value, consuming one jet order.

    The component jets of `a` are read as germs of coefficient functions:
    gradients provide the new value parts, Hessians the new gradients.
    Component o of the result is the left fold over t of the signed
    partials (-1)^t d_{o_t} a[o without o_t], from a constant 0.0 seed;
    a stack of forms (leading axes of a) is differentiated form by form.
    """
    _check_layout(a, degree)
    if degree == a.dim:
        raise ValueError("d of a top-degree form is not a form")
    if np.any(a.order < 1):
        raise ValueError("d_from_jets needs jets of order >= 1")
    coord, rest = _d_table(a.dim, degree)
    s = len(a.shape) - 1
    # P[i, r, ...] = d_i of component r of every stacked form.
    P = a.partials().transpose(0, s + 1, *range(1, s + 1))
    acc = 0.0 + P[coord[0], rest[0]]
    for t in range(1, len(coord)):
        term = P[coord[t], rest[t]]
        acc = acc - term if t % 2 else acc + term
    return acc.transpose(*range(1, s + 1), 0)
