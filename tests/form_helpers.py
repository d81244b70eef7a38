"""Jet and exterior-algebra helpers that only the tests use.

They stack single jets into arrays and sum them one by one, evaluate
expression trees by a plain walk through the JetArray operators (the
oracle of the input tape, which runs the same rules on raw parts), and
they check the library's forms against independent routes: structural d
evaluated at a point, interior products, the graded product and pairing
as loops over single jets, the round trip through the wedge-monomial
basis of a coframe, a frame's coframe and frame vectors as lists of
form and vector values. cayley_rotation draws the orthogonal jet
matrices the frame-change tests hand to rotate_frame, chart_spec gives
the spec of each chart in CHARTS, and webster_kappa is the Koszul route
to the canonical connection's kappa. A k-form value is
the JetArray of its components on the increasing multi-indices, in
increasing_indices order.
"""

from __future__ import annotations

import itertools
import operator
from pathlib import Path

import numpy as np

from contactconn.contact import AdaptedFrame
from contactconn.errors import ExprDomainError, SingularMatrixError
from contactconn.expressions import Binary, Coord, Expr, Lit, Pow, Unary, pretty
from contactconn.forms import (
    FormField,
    _perm_sign,
    evaluate_forms,
    increasing_indices,
    wedge,
)
from contactconn.jets import JetArray, jet_linear_solve
from contactconn.registry import builtin_registry, get_manifold, load_spec

# Every built-in and the 7D chart under tests/data/charts.
CHARTS = [spec.name for spec in builtin_registry()] + ["heis7.json"]


def chart_spec(name):
    """A built-in's spec, or that of a chart under tests/data/charts."""
    if name.endswith(".json"):
        return load_spec(Path(__file__).parent / "data" / "charts" / name)
    return get_manifold(name)


def sum_jets(terms):
    """Left-to-right sum of a nonempty iterable of jets."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def stack(items):
    """Jets of one shape stacked on a new leading axis, the way the
    kernels hold them, at the lowest order among them."""
    out = JetArray.constant(
        0.0, items[0].dim, (len(items),) + items[0].shape, min(j.top for j in items)
    )
    for i, j in enumerate(items):
        out[i] = j
    return out


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def tree_walk_jet(e: Expr, p, order: int) -> JetArray:
    """Evaluate an expression tree at p by one recursive walk, every node
    a single jet of the given order computed where it appears through the
    JetArray operators and methods. A domain error names the node it
    occurs at, as the tape's does."""
    d = len(p)

    def go(node):
        kind = type(node)
        if kind is Lit:
            return JetArray.constant(node.value, d, (), order)
        if kind is Coord:
            return JetArray.coordinate(p, node.index, order)
        if kind is Binary:
            args = (go(node.lhs), go(node.rhs))
            op = _BINARY[node.op]
        elif kind is Unary:
            args = (go(node.arg),)
            op = operator.neg if node.op == "neg" else operator.methodcaller(node.op)
        elif kind is Pow:
            args = (go(node.base),)
            op = operator.methodcaller("powi", node.exponent)
        else:
            raise TypeError(node)
        try:
            return op(*args)
        except ExprDomainError as exc:
            raise ExprDomainError(str(exc).split(" in ")[0], pretty(node)) from None

    with np.errstate(over="ignore", invalid="ignore"):
        return go(e)


def tape_oracle(exprs, p, order: int) -> list[JetArray]:
    """What jets.Tape(exprs).eval(p, order) gives, by a tree walk of each
    expression in turn: its outputs as single jets, or the first domain
    error of the walks, or else an error naming the first output whose
    value, gradient or Hessian is not finite."""
    out = [tree_walk_jet(e, p, order) for e in exprs]
    for e, j in zip(exprs, out):
        parts = [x for x in (j.value, j.grad, j.hess) if x is not None]
        if not all(np.isfinite(x).all() for x in parts):
            raise ExprDomainError("value, gradient or Hessian is not finite", pretty(e))
    return out


def assert_same_bits(got: JetArray, want: JetArray) -> None:
    """Jets of one shape and order with byte-equal parts (so signed zeros
    and NaNs count); single jets or arrays of them."""
    assert got.shape == want.shape and got.top == want.top
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    for part in ("grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)
            assert g.tobytes() == w.tobytes()


def comp(a: JetArray, degree: int, idx) -> JetArray:
    """The component of the degree-form value a on the multi-index idx."""
    return a[increasing_indices(a.dim, degree).index(tuple(idx))]


def evaluate(a: JetArray, *vectors: JetArray) -> JetArray:
    """The form value a, of degree len(vectors), on one vector per slot:
    a single jet."""
    return evaluate_forms(a, *(v[None] for v in vectors)).reshape()


def magnitude(a: JetArray) -> JetArray:
    """The same jets with every part replaced by its absolute value."""
    return JetArray(
        a.dim,
        np.abs(a.value),
        None if a.grad is None else np.abs(a.grad),
        None if a.hess is None else np.abs(a.hess),
    )


# Bound on how far a kernel's sum may lie from its loop oracle, relative
# to the sum of the absolute values of the terms: a sum of n rounded
# terms in any order lies within about n * 1.1e-16 of that scale, and the
# kernels here sum at most a few dozen terms per level.
ROUNDING_REL = 1e-14


def assert_within_rounding(got: JetArray, want: JetArray, scale: JetArray) -> None:
    """got and want, of one shape, carry one order and each of their
    parts differs by at most ROUNDING_REL times scale's, where scale is
    the oracle run on absolute values (the sum of |terms|)."""
    assert got.shape == want.shape and got.top == want.top
    for part in ("value", "grad", "hess"):
        g, w, m = (getattr(x, part) for x in (got, want, scale))
        assert (g is None) == (w is None), part
        if w is not None:
            assert np.all(np.abs(g - w) <= ROUNDING_REL * m), part


def scalar_wedge(
    a: JetArray, p: int, b: JetArray, q: int, absolute: bool = False
) -> JetArray:
    """The graded product as a loop over single jets: each output
    component is the left fold, from a constant 0.0 seed, of
    (a_I * b_J) * sign over I, then J. forms.wedge must match its values
    bit for bit and its derivatives to rounding. With absolute, the
    inputs' parts are replaced by their absolute values and every sign by
    +1: the sum of |terms|."""
    if absolute:
        a, b = magnitude(a), magnitude(b)
    out_keys = increasing_indices(a.dim, p + q)
    out = zero_form(a.dim, p + q, min(a.top, b.top))
    for x, ia in enumerate(increasing_indices(a.dim, p)):
        for y, ib in enumerate(increasing_indices(a.dim, q)):
            merged = ia + ib
            sign = _perm_sign(merged)
            if sign == 0:
                continue
            s = out_keys.index(tuple(sorted(merged)))
            out[s] = out[s] + a[x] * b[y] * (1.0 if absolute else float(sign))
    return out


def scalar_evaluate(form: JetArray, *vectors: JetArray, absolute: bool = False) -> JetArray:
    """evaluate_forms on one vector per slot as a determinant loop over
    single jets: the left fold over components of the coefficient times
    the determinant. With absolute, every part of every input is replaced
    by its absolute value and every sign by +1, which gives the sum of
    |terms| of each part."""
    if absolute:
        form, vectors = magnitude(form), [magnitude(v) for v in vectors]
    degree = len(vectors)
    total = None
    for x, idx in enumerate(increasing_indices(form.dim, degree)):
        det = None
        for perm in itertools.permutations(range(degree)):
            term = vectors[perm[0]][idx[0]]
            for t in range(1, degree):
                term = term * vectors[perm[t]][idx[t]]
            term = term * (1.0 if absolute else float(_perm_sign(perm)))
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


def cayley_rotation(p, seed: int) -> JetArray:
    """An orthogonal order-2 jet matrix (2n, 2n) at p, for a chart of
    dimension len(p) = 2n + 1: the Cayley transform (I + S)^-1 (I - S),
    solved with jet_linear_solve, of a skew S whose entries above the
    diagonal are quadratic polynomials in the coordinates, coefficients
    drawn uniform in [-1, 1] from seed. I + S is invertible for every
    skew S, and the transform of a skew matrix field is orthogonal at
    every point, so Q is orthogonal as a jet."""
    dim = len(p)
    m = dim - 1
    rng = np.random.default_rng(seed)
    x = [JetArray.coordinate(p, i, 2) for i in range(dim)]
    monomials = x + [x[i] * x[j] for i, j in itertools.combinations_with_replacement(range(dim), 2)]
    S = JetArray.constant(0.0, dim, (m, m))
    for a, b in itertools.combinations(range(m), 2):
        coeffs = rng.uniform(-1.0, 1.0, len(monomials) + 1)
        s = JetArray.constant(float(coeffs[0]), dim)
        for c, mono in zip(coeffs[1:], monomials):
            s = s + mono * float(c)
        S[a, b], S[b, a] = s, -s
    eye = JetArray.constant(0.0, dim, (m, m))
    np.fill_diagonal(eye.value, 1.0)
    return jet_linear_solve(eye + S, eye - S)


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
    out = zero_form(dim, degree - 1, min(a.top, v.top))
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
    order = min(min(c.top for c in coframe), a.top)
    C = JetArray.constant(0.0, dim, (dim, dim), order)
    for r in range(dim):
        C[r] = coframe[r]
    eye = JetArray.constant(0.0, dim, (dim, dim))
    np.fill_diagonal(eye.value, 1.0)
    try:
        inv = jet_linear_solve(C, eye)
    except SingularMatrixError:
        raise SingularMatrixError("coframe value parts are linearly dependent") from None
    duals = [inv[:, col] for col in range(dim)]
    return {idx: evaluate(a, *(duals[i] for i in idx)) for idx in increasing_indices(dim, degree)}


def from_coframe(components, coframe: list[JetArray], degree: int) -> JetArray:
    """Inverse of express_in_coframe: rebuild the form from components."""
    dim = coframe[0].dim
    order = min(c.top for c in coframe)
    if components:
        order = min(order, min(j.top for j in components.values()))
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


def scalar_frame_derivative(X: JetArray, t: JetArray) -> JetArray:
    """X_a(t_I) for every frame vector X_a and component I, each the left
    fold over coordinates i of X_a^i * d_i t_I on single jets: a JetArray
    indexed [a, I]."""
    entries = [
        sum_jets(X[a][i] * parts[i] for i in range(t.dim))
        for a in range(len(X))
        for parts in (t[idx].partials() for idx in itertools.product(*map(range, t.shape)))
    ]
    return stack(entries).reshape(len(X), *t.shape)


def scalar_nabla_H(kappa: JetArray, X: JetArray, t: JetArray) -> JetArray:
    """The H-covariant derivative of covariant coframe components t as a
    loop over single jets: entry [a, I] is X_a(t_I) plus, slot by slot
    from slot 0, the left fold over E of
    t[I with slot s set to E] * kappa[a, E + off, I_s + off], off 1 for
    H-only components (axes of size 2n) and 0 for full ones."""
    off = kappa.shape[1] - t.shape[0]
    der = scalar_frame_derivative(X, t)
    entries = []
    for a in range(len(X)):
        for idx in itertools.product(*map(range, t.shape)):
            acc = der[(a,) + idx]
            for s, i_s in enumerate(idx):
                acc = acc + sum_jets(
                    t[idx[:s] + (E,) + idx[s + 1 :]] * kappa[a, E + off, i_s + off]
                    for E in range(t.shape[0])
                )
            entries.append(acc)
    return stack(entries).reshape(len(X), *t.shape)


def scalar_nabla_H_vector(
    kappa: JetArray, X: JetArray, v: JetArray, absolute: bool = False
) -> JetArray:
    """The H-covariant derivative of frame components v as a loop over
    single jets: entry [a, B] is X_a(v_B) minus the left fold over C of
    kappa[a, B, C] * v[C]. With absolute, the inputs' parts are replaced
    by their absolute values and the difference by a sum: the sum of
    |terms|."""
    if absolute:
        kappa, X, v = magnitude(kappa), magnitude(X), magnitude(v)
    der = scalar_frame_derivative(X, v)
    entries = []
    for a in range(len(X)):
        for B in range(len(v)):
            corr = sum_jets(kappa[a, B, C] * v[C] for C in range(len(v)))
            entries.append(der[a, B] + corr if absolute else der[a, B] - corr)
    return stack(entries).reshape(len(X), len(v))


def webster_kappa(frame: AdaptedFrame) -> np.ndarray:
    """The H-rows of the canonical connection's kappa by the Koszul route
    of docs/oracles.md section 12, from values and gradients alone: entry
    [a, b, c] is -e^b(nabla_{X_a} X_c), nabla the Levi-Civita connection
    of the Webster metric ghat = P^T g P + theta_hat theta_hat^T, with
    P = I - T theta_hat^T, at frame's point. Its Christoffel symbols come
    from the Koszul formula on ghat's gradient and the inverse of its
    value. Reads frame's T, theta_hat, X and coframe and the input g;
    none of D, sigma, sigma_inv or the kappa assembly."""
    th, dth = frame.theta_hat.value, frame.theta_hat.grad  # dth[j, k] = d_k theta_hat_j
    T, dT = frame.T.value, frame.T.grad
    g, dg = frame.inputs.G.value, frame.inputs.G.grad  # dg[i, j, k] = d_k g_ij
    P = np.eye(len(th)) - np.outer(T, th)
    dP = -(T[:, None, None] * dth[None] + dT[:, None, :] * th[None, :, None])
    gh = P.T @ g @ P + np.outer(th, th)
    dgh = (
        np.einsum("lik,lm,mj->ijk", dP, g, P)
        + np.einsum("li,lmk,mj->ijk", P, dg, P)
        + np.einsum("li,lm,mjk->ijk", P, g, dP)
        + dth[:, None, :] * th[None, :, None]
        + th[:, None, None] * dth[None]
    )
    # Gamma[k, i, j] = 1/2 ghat^kl (d_i ghat_jl + d_j ghat_il - d_l ghat_ij)
    lowered = 0.5 * (
        np.einsum("jli->lij", dgh) + np.einsum("ilj->lij", dgh) - np.einsum("ijl->lij", dgh)
    )
    Gamma = np.einsum("kl,lij->kij", np.linalg.inv(gh), lowered)
    X, dX = frame.X.value, frame.X.grad  # dX[c, k, i] = d_i X_c^k
    nabla = np.einsum("ai,cki->ack", X, dX) + np.einsum("kij,ai,cj->ack", Gamma, X, X)
    e = frame.coframe_array.value[1:]
    return -np.einsum("bk,ack->abc", e, nabla)
