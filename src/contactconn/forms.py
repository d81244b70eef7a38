"""Pointwise exterior algebra on a chart.

A k-form value is the JetArray of its components: the last axis runs
over all strictly increasing multi-indices of length k, in
increasing_indices order, and leading axes, when present, stack several
forms. A vector value is a JetArray (..., dim) of its coordinate
components. Components follow the determinant convention,
(dx^dy)(ddx, ddy) = 1. The kernels below take a form's degree and work
out that layout themselves; nothing else in the package handles
multi-indices. A FormField holds one expression per component, in the
same order, and evaluates to a value.

Two exterior-derivative routes coexist on purpose, and both read the
terms of d from one table, _d_table:

- ``FormField.d`` differentiates the component expressions
  structurally, so the derivative field evaluates to jets of the same
  order as the original. This is what the main pipeline uses.
- ``d_from_jets`` differentiates a k-form *value* whose jets carry one
  order more, losing that order. It exists for jet-backed data that has
  no expression form (the normalized contact form, the frame's coframe
  rows, mu) and as an independent cross-check of the symbolic route in
  tests. It is one kernel for every degree and for stacks of forms.

Pairing a tensor's coordinate axes with vectors (pair, the one pairing
kernel, which evaluate_forms chains over a form's full tensor), graded
products (wedge) and differentiating along vectors (apply_vector) are
array kernels over whole stacks of forms, vectors and scalars.
full_tensor expands k-form components into the full antisymmetric
coefficient tensor, the one expansion evaluate_forms pairs through, the
Reeb solve reads its d(theta) matrix from and AdaptedFrame.d_pairs
builds its tensor on frame pairs with. pair_table is the one table of
the index pairs u < v a 2-form's components run over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expressions import Expr, add, diff, lit, mul
from .jets import JetArray, Tape, contract


@lru_cache(maxsize=64)
def increasing_indices(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The strictly increasing multi-indices of length k in range(dim), in
    itertools.combinations order: what a k-form value's last axis runs
    over."""
    return tuple(itertools.combinations(range(dim), k))


@lru_cache(maxsize=64)
def pair_table(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """increasing_indices(dim, 2), a 2-form's pairs u < v, as two
    read-only index arrays (u, v)."""
    u, v = np.array(increasing_indices(dim, 2), dtype=np.intp).reshape(-1, 2).T
    u.flags.writeable = v.flags.writeable = False
    return u, v


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


def _check_layout(dim: int, degree: int, shape: tuple[int, ...]) -> None:
    """Raise ValueError unless shape's last axis holds the components of
    degree-forms in dimension dim."""
    n = len(increasing_indices(dim, degree)) if 0 <= degree <= dim else None
    if n is None or shape[-1:] != (n,):
        raise ValueError(f"shape {shape} does not hold {degree}-forms in dimension {dim}")


def _signed(c: JetArray) -> JetArray:
    """The components on c's last axis, then their negatives, then a
    constant zero, at c's top order."""
    lead = (slice(None),) * (len(c.shape) - 1)
    n = c.shape[-1]
    out = JetArray.constant(0.0, c.dim, c.shape[:-1] + (2 * n + 1,), c.top)
    out[lead + (slice(0, n),)] = c
    out[lead + (slice(n, 2 * n),)] = -c
    return out


@lru_cache(maxsize=64)
def _antisymmetric_table(dim: int, k: int) -> np.ndarray:
    """Where each entry of the full antisymmetric coefficient tensor of a
    k-form comes from, for every index tuple in range(dim)^k: the position
    of its sorted multi-index on a k-form value's last axis for an even
    sorting permutation, that position plus K (the number of multi-indices)
    for an odd one, and 2K for repeated indices: positions in
    _signed(components)."""
    keys = {key: s for s, key in enumerate(increasing_indices(dim, k))}
    n = len(keys)
    pos = np.full((dim,) * k, 2 * n, dtype=np.intp)
    for idx in itertools.product(range(dim), repeat=k):
        sign = _perm_sign(idx)
        if sign:
            pos[idx] = keys[tuple(sorted(idx))] + (n if sign < 0 else 0)
    return pos


def full_tensor(coeffs: JetArray, k: int) -> JetArray:
    """The full antisymmetric coefficient tensor of one or more k-forms:
    for coeffs of shape S+(K,), shape S+(dim,)*k with entry [s, i_1, ...,
    i_k] = sign * c[s, sorted], sign that of the permutation sorting the
    indices, and a constant zero where indices repeat."""
    _check_layout(coeffs.dim, k, coeffs.shape)
    if k == 1:
        # A 1-form's components already are its full tensor.
        return coeffs
    lead = (slice(None),) * (len(coeffs.shape) - 1)
    return _signed(coeffs)[lead + (_antisymmetric_table(coeffs.dim, k),)]


def pair(t: JetArray, axis: int, v: JetArray) -> JetArray:
    """One coordinate axis of a tensor paired with a stack of vectors v
    (n, dim): the result has t's axes without that one, then v's axis, and
    its entry [..., u] is sum_i t[..., i, ...] v[u, i], one jets.contract
    over i. The one pairing kernel: form pairings and metric pairings
    chain it one vector stack at a time.

    The contraction runs at the lower top order of t and v and reads no
    part above it, so stacks of higher order than t cost no more than
    stacks already cut to t's order, and give the same bits.
    """
    n = len(t.shape)
    every = slice(None)
    a = t.transpose(axis, *range(axis), *range(axis + 1, n))[(every,) * n + (None,)]
    b = v.transpose(1, 0)
    return contract(a, b[(every,) + (None,) * (n - 1) + (every,)])


def evaluate_forms(coeffs: JetArray, *vectors: JetArray) -> JetArray:
    """Pair k-forms with stacks of vectors, every combination at once.

    coeffs holds one or more k-forms, k the number of vector stacks:
    shape S+(K,). Each of the k vector stacks has shape (n_r, dim). Entry
    [s, u_1, ..., u_k] of the result, of shape S+(n_1, ..., n_k), is form
    s on (vectors[0][u_1], ..., vectors[k-1][u_k]): the full_tensor of
    form s paired with one vector stack at a time, stack 0 first, each on
    the first coordinate axis left.
    """
    s = len(coeffs.shape) - 1
    full = full_tensor(coeffs, len(vectors))
    for v in vectors:
        full = pair(full, s, v)
    return full


@lru_cache(maxsize=64)
def _wedge_table(dim: int, p: int, q: int):
    """The terms of the graded product of a p-form and a q-form, as
    (rank, key) tables: key numbers the output multi-index and rank the
    term's place among that key's terms, in the order of a loop over the
    p-form's multi-indices, then the q-form's. Entries are the positions
    of the two factors, the first read against the p-form's components
    and then their negatives (see _signed), so it carries the sign. Every
    key has the same number of terms, one per split of it into a p- and a
    q-index."""
    keys = {key: s for s, key in enumerate(increasing_indices(dim, p + q))}
    n_terms = math.comb(p + q, p)
    ia, ib = (np.zeros((n_terms, len(keys)), dtype=np.intp) for _ in range(2))
    fill = [0] * len(keys)
    a_keys = increasing_indices(dim, p)
    for x, ka in enumerate(a_keys):
        for y, kb in enumerate(increasing_indices(dim, q)):
            s = _perm_sign(ka + kb)
            if s == 0:
                continue
            key = keys[tuple(sorted(ka + kb))]
            ia[fill[key], key] = x if s > 0 else x + len(a_keys)
            ib[fill[key], key] = y
            fill[key] += 1
    return ia, ib


def wedge(a: JetArray, p: int, b: JetArray, q: int) -> JetArray:
    """Graded product of the p-forms a and the q-forms b: the components
    of the (p+q)-forms. Leading axes stack forms, and a's stack and b's
    broadcast against each other as numpy arrays do.

    Each output component contracts its terms, in the order of a loop
    over a's multi-indices, then b's, skipping repeated indices: the
    signed component of a times the component of b, at the lower top
    order of a and b, so each stacked product gets the bits it gets
    alone.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    _check_layout(a.dim, p, a.shape)
    _check_layout(b.dim, q, b.shape)
    if p + q > a.dim:
        raise ValueError("degree overflow")
    ia, ib = _wedge_table(a.dim, p, q)
    s = max(len(a.shape), len(b.shape)) - 1
    return contract(_terms(_signed(a), ia, s), _terms(b, ib, s))


def _terms(x: JetArray, table: np.ndarray, s: int) -> JetArray:
    """x's last-axis entries at a (terms, keys) table, the terms' axis
    first, then x's stack axes, widened to s axes in front, then keys."""
    r = len(x.shape) - 1
    every = slice(None)
    t = x[(every,) * r + (table,)]
    return t.transpose(r, *range(r), r + 1)[(every,) + (None,) * (s - r)] if s else t


def apply_vector(v: JetArray, f: JetArray) -> JetArray:
    """Derivative of jet-valued scalars along jet-valued vectors.

    This is the frame derivative X(f) = sum_i X^i d_i f with the product
    rule intact, one contraction over i, so the result is a jet one order
    below f (coerced further down if the vector components carry less).

    v holds vectors with the components on its last axis, shape V+(dim,);
    f is a JetArray of shape F. The result, of shape V+F, holds every
    vector's derivative of every scalar: a single jet for one vector and
    one scalar.
    """
    nv = len(v.shape) - 1
    nf = len(f.shape)
    comps = v.transpose(nv, *range(nv))[(slice(None),) * (1 + nv) + (None,) * nf]
    parts = f.partials()[(slice(None),) + (None,) * nv]
    return contract(comps, parts)


@dataclass(frozen=True)
class FormField:
    """k-form field: one expression per increasing multi-index, in the
    order of a form value's last axis."""

    dim: int
    degree: int
    components: tuple[Expr, ...]

    def __post_init__(self):
        _check_layout(self.dim, self.degree, (len(self.components),))

    @staticmethod
    def one_form(components: list[Expr]) -> "FormField":
        return FormField(len(components), 1, tuple(components))

    def eval(self, p, order: int) -> JetArray:
        """The form value at p, every component a jet of the given order,
        through one tape."""
        return Tape(self.components).eval(p, order)

    def d(self) -> "FormField":
        """Exterior derivative as a field, via structural differentiation:
        the terms of d_from_jets, from the same table, folded as
        expressions. No jet order is lost: the result's components are
        plain expressions again.
        """
        coord, rest = (t.tolist() for t in _d_table(self.dim, self.degree))
        out = []
        for o in range(len(coord[0])):
            total: Expr = lit(0.0)
            for t in range(len(coord)):
                term = diff(self.components[rest[t][o]], coord[t][o])
                total = add(total, mul(lit((-1.0) ** t), term))
            out.append(total)
        return FormField(self.dim, self.degree + 1, tuple(out))


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
    _check_layout(a.dim, degree, a.shape)
    if degree == a.dim:
        raise ValueError("d of a top-degree form is not a form")
    if a.top < 1:
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
