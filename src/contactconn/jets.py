"""Second-order forward-mode jets and the jet-valued linear solve.

A Jet carries the value, gradient and Hessian of a scalar quantity at a
point of a d-dimensional chart. A JetArray carries the same three parts
for a whole tensor of such scalars: value of shape S, gradient S+(d,),
Hessian S+(d,d). Every derivative in this package flows through these
exact propagation rules; finite differences appear only in test oracles.

Design notes.

- One implementation of each rule. The sum, difference, negation,
  product, quotient and sqrt rules are broadcasting functions on (value,
  grad, hess); Jet and JetArray both call them. An entry of a JetArray holds
  exactly the bits the same computation on scalar Jets gives.
- Fold order. Reductions over a JetArray go through JetArray.fold, a left
  fold along the leading axis (np.add.accumulate, a sequential running
  sum), in the term and operand order of the scalar loop it stands for,
  which is also the order of sum_jets. No einsum, matmul or pairwise
  summation touches a jet part that feeds a result; this is what keeps
  reports byte-stable. fold_chunks folds long term axes a slice at a
  time, carrying the running sum, so temporaries stay small: a slice
  holds at most _FOLD_CHUNK = 16384 floats (128 kB) of the highest part
  its terms carry, d*d per entry at order 2, d at order 1 and 1 at
  order 0. On the 7D Heisenberg chart a point folds in 73 slices; with
  every slice sized for Hessians it took 112, and 253 at 4096 Hessian
  floats, which cost about 0.2 MB less peak resident memory there
  (perfbench heis7-core; tracemalloc agrees on the largest live jet
  temporaries). 65536 Hessian floats would cost about 2.2 MB more, for
  no clear gain in speed.
- Orders. A Jet of order k keeps only the parts up to k; mixed-order
  operands coerce to the minimum order and plain numbers lift to
  constant jets. A JetArray computes all its entries at one common
  order, the highest any entry carries, and tracks each entry's own
  order in an integer array under the same coercion rules. Parts above
  an entry's order are never read (value and gradient rules read no
  higher part), and JetArray.jets() restricts every entry to its own
  order, so mixing orders in one array is exact.
- Work at the order that is read. For the same reason, cutting an
  operand to the order its consumer reads (JetArray.restrict) before a
  kernel runs gives the same bits as cutting the result, without
  computing the parts above that order. Every kernel runs at the order
  its result is read: pairings build their determinants at the order of
  the form's coefficients, and the suites' value-only checks run on
  order-0 jets.
- Expressions. Tape compiles expression trees into one list of slots,
  one per distinct subexpression, and evaluates them with the Jet rules
  in the order a tree walk first reaches them; eval_jet is its
  one-expression case.
- Symmetry. Hessians are built from symmetric pieces (outer products
  enter as outer(a, b) plus its transpose), so a Hessian is symmetric up
  to the rounding of those additions; sums, differences, sqrt and the
  elementary functions keep symmetric Hessians exactly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExprDomainError,
    LinearSolveResidualError,
    SingularMatrixError,
)
from .expressions import Binary, Coord, Expr, Lit, Pow, Unary, pretty


# -- propagation rules, shared by Jet and JetArray ---------------------------
#
# Each rule takes the common order k and the (value, grad, hess) parts of
# its operands and returns the parts of the result; parts above k are None.


def _up(v, k: int):
    """A value with k trailing unit axes, so it broadcasts against its
    derivative parts; plain numbers broadcast as they are."""
    return v[(...,) + (None,) * k] if isinstance(v, np.ndarray) else v


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _tr(x):
    return x.swapaxes(-1, -2)


def _add_rule(k, av, ag, ah, bv, bg, bh):
    return (
        av + bv,
        ag + bg if k >= 1 else None,
        ah + bh if k >= 2 else None,
    )


def _neg_rule(k, v, g, h):
    return -v, -g if k >= 1 else None, -h if k >= 2 else None


def _sub_rule(k, av, ag, ah, bv, bg, bh):
    return (
        av - bv,
        ag - bg if k >= 1 else None,
        ah - bh if k >= 2 else None,
    )


# The products and quotients below update fresh temporaries in place;
# x += y is the same IEEE addition as x = x + y, so the terms still
# combine in the order the formulas are written in.


def _mul_rule(k, av, ag, ah, bv, bg, bh):
    """(ab)' = a' b + b' a and (ab)'' = a'' b + b'' a + a' b'^T + b' a'^T."""
    g = h = None
    if k >= 1:
        g = ag * _up(bv, 1)
        g += bg * _up(av, 1)
    if k >= 2:
        cross = _outer(ag, bg)
        h = ah * _up(bv, 2)
        h += bh * _up(av, 2)
        h += cross
        h += _tr(cross)
    return av * bv, g, h


def _div_rule(k, av, ag, ah, bv, bg, bh):
    """q = a/b, q' = (a' - q b')/b, q'' = (a'' - q b'' - q' b'^T - b' q'^T)/b."""
    q = av / bv
    g = h = None
    if k >= 1:
        g = _up(q, 1) * bg
        np.subtract(ag, g, out=g)
        g /= _up(bv, 1)
    if k >= 2:
        cross = _outer(g, bg)
        h = _up(q, 2) * bh
        np.subtract(ah, h, out=h)
        h -= cross
        h -= _tr(cross)
        h /= _up(bv, 2)
    return q, g, h


def _sqrt_rule(k, s, g, h):
    """Parts of sqrt(f) given s, the correctly rounded square root of f's
    value, and f's grad and hess."""
    gs = hs = None
    if k >= 1:
        gs = g / _up(2.0 * s, 1)
    if k >= 2:
        hs = (h - 2.0 * _outer(gs, gs)) / _up(2.0 * s, 2)
    return s, gs, hs


@dataclass(frozen=True, eq=False)
class Jet:
    """Value plus derivatives of a scalar at a chart point.

    order 0: value only. order 1: adds grad (d,). order 2: adds hess (d, d).

    eq is disabled on purpose: ndarray fields make structural equality a
    trap, and the package compares jets through residuals instead.
    """

    dim: int
    order: int
    value: float
    grad: np.ndarray | None = None
    hess: np.ndarray | None = None

    @staticmethod
    def constant(v: float, dim: int, order: int) -> "Jet":
        g = np.zeros(dim) if order >= 1 else None
        h = np.zeros((dim, dim)) if order >= 2 else None
        return Jet(dim, order, float(v), g, h)

    @staticmethod
    def coordinate(p, i: int, order: int) -> "Jet":
        d = len(p)
        g = None
        if order >= 1:
            g = np.zeros(d)
            g[i] = 1.0
        h = np.zeros((d, d)) if order >= 2 else None
        return Jet(d, order, float(p[i]), g, h)

    def restrict(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(
            self.dim,
            order,
            self.value,
            self.grad if order >= 1 else None,
            self.hess if order >= 2 else None,
        )

    def _coerce(self, other) -> tuple["Jet", "Jet"]:
        if isinstance(other, (int, float)):
            other = Jet.constant(other, self.dim, self.order)
        if not isinstance(other, Jet):
            return NotImplemented, NotImplemented  # type: ignore[return-value]
        if other.dim != self.dim:
            raise ValueError(f"jet dimension mismatch: {self.dim} vs {other.dim}")
        k = min(self.order, other.order)
        return self.restrict(k), other.restrict(k)

    def _apply(self, rule, other, swap=False):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        if swap:
            a, b = b, a
        k = a.order
        return Jet(a.dim, k, *rule(k, a.value, a.grad, a.hess, b.value, b.grad, b.hess))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return self._apply(_add_rule, other)

    __radd__ = __add__

    def __neg__(self):
        parts = _neg_rule(self.order, self.value, self.grad, self.hess)
        return Jet(self.dim, self.order, *parts)

    def __sub__(self, other):
        return self._apply(_sub_rule, other)

    def __rsub__(self, other):
        return self._apply(_sub_rule, other, swap=True)

    def __mul__(self, other):
        return self._apply(_mul_rule, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        if b.value == 0.0:
            raise ExprDomainError("division by zero", "<jet quotient>")
        return a._apply(_div_rule, b)

    def __rtruediv__(self, other):
        lifted = Jet.constant(other, self.dim, self.order)
        return lifted / self

    # -- elementary functions -----------------------------------------------

    def sqrt(self) -> "Jet":
        if self.value < 0.0:
            raise ExprDomainError("sqrt of negative value", "<jet sqrt>")
        if self.value == 0.0 and self.order >= 1:
            raise ExprDomainError("sqrt not differentiable at zero", "<jet sqrt>")
        k = self.order
        parts = _sqrt_rule(k, math.sqrt(self.value), self.grad, self.hess)
        return Jet(self.dim, k, *parts)

    def _chain(self, f: float, df: float, d2f: float) -> "Jet":
        g = h = None
        if self.order >= 1:
            g = df * self.grad
        if self.order >= 2:
            h = df * self.hess + d2f * _outer(self.grad, self.grad)
        return Jet(self.dim, self.order, f, g, h)

    def sin(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s)

    def cos(self) -> "Jet":
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c)

    def exp(self) -> "Jet":
        ev = math.exp(self.value)
        return self._chain(ev, ev, ev)

    def powi(self, k: int) -> "Jet":
        if k < 0 and self.value == 0.0:
            raise ExprDomainError("zero raised to a negative power", "<jet pow>")
        f = self.value**k
        df = k * self.value ** (k - 1) if k != 0 else 0.0
        d2f = k * (k - 1) * self.value ** (k - 2) if k not in (0, 1) else 0.0
        return self._chain(f, df, d2f)

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """The i-th coordinate partial, one order lower.

        The value comes from the gradient and the gradient from the Hessian
        row, so differentiating consumes exactly one order of accuracy.
        """
        if self.order < 1:
            raise ValueError("partial derivative needs a jet of order >= 1")
        g = None if self.order < 2 else np.array(self.hess[i])
        return Jet(self.dim, self.order - 1, float(self.grad[i]), g, None)


# Largest highest-order part, in floats, of one slice of fold_chunks
# (128 kB).
_FOLD_CHUNK = 16384

_ORDER_DTYPE = np.int8
_TOP_ORDER = 2


class JetArray:
    """A tensor of jets at one chart point, stored part by part.

    value has shape S and order (each entry's own jet order) shape S. The
    array's top order k is the highest order any entry carries: grad, of
    shape S+(d,), is present when k >= 1 and hess, S+(d,d), when k = 2;
    absent parts are None. Indexing, transpose and reshape act on the
    leading (tensor) axes only; the derivative axes always stay last.
    Arithmetic broadcasts like numpy over the tensor axes, runs the rules
    at the lower top order of its operands and gives every entry the
    order Jet's coercion would.
    """

    __slots__ = ("dim", "value", "grad", "hess", "order")

    def __init__(self, dim: int, value, grad, hess, order):
        self.dim = dim
        self.value = value
        self.grad = grad
        self.hess = hess
        self.order = order

    # -- construction and conversion -----------------------------------------

    @staticmethod
    def constant(v: float, dim: int, shape=(), order: int = _TOP_ORDER) -> "JetArray":
        """Constant jets of the given order, by default the top one, as
        Jet.constant lifts numbers."""
        shape = tuple(shape)
        return JetArray(
            dim,
            np.full(shape, float(v)),
            np.zeros(shape + (dim,)) if order >= 1 else None,
            np.zeros(shape + (dim, dim)) if order >= 2 else None,
            np.full(shape, order, dtype=_ORDER_DTYPE),
        )

    @staticmethod
    def from_jets(jets) -> "JetArray":
        """Stack a Jet or a nested sequence of Jets. Parts an entry lacks
        below the top order are filled with zeros."""
        flat, shape = _flatten(jets)
        d = flat[0].dim
        k = max(j.order for j in flat)
        grad = hess = None
        if k >= 1:
            zg = np.zeros(d)
            grad = np.array([j.grad if j.order >= 1 else zg for j in flat])
            grad = grad.reshape(shape + (d,))
        if k >= 2:
            zh = np.zeros((d, d))
            hess = np.array([j.hess if j.order >= 2 else zh for j in flat])
            hess = hess.reshape(shape + (d, d))
        return JetArray(
            d,
            np.array([j.value for j in flat], dtype=float).reshape(shape),
            grad,
            hess,
            np.array([j.order for j in flat], dtype=_ORDER_DTYPE).reshape(shape),
        )

    def jets(self):
        """The entries as Jets, each restricted to its own order: a Jet for
        a 0-d array, nested lists otherwise. The parts are copied, so the
        Jets keep nothing of this array alive."""
        d = self.dim
        vals = self.value.ravel().tolist()
        orders = self.order.ravel()
        # Compact copies of the parts the entries keep; each Jet views a row.
        grads = hesses = None
        if self.grad is not None:
            has_g = orders >= 1
            grads = self.grad.reshape(-1, d)[has_g]
            gi = (np.cumsum(has_g) - 1).tolist()
        if self.hess is not None:
            has_h = orders >= 2
            hesses = self.hess.reshape(-1, d, d)[has_h]
            hi = (np.cumsum(has_h) - 1).tolist()
        flat = [
            Jet(
                d,
                k,
                v,
                grads[gi[i]] if k >= 1 else None,
                hesses[hi[i]] if k >= 2 else None,
            )
            for i, (v, k) in enumerate(zip(vals, orders.tolist()))
        ]
        return _nest(flat, self.shape)

    # -- shape ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def top(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    def __len__(self) -> int:
        return self.shape[0]

    def _map(self, fv, fg, fh, fo) -> "JetArray":
        return JetArray(
            self.dim,
            fv(self.value),
            None if self.grad is None else fg(self.grad),
            None if self.hess is None else fh(self.hess),
            fo(self.order),
        )

    def __getitem__(self, idx) -> "JetArray":
        f = lambda x: x[idx]  # noqa: E731
        return self._map(f, f, f, f)

    def __setitem__(self, idx, other) -> None:
        """Assign entries; an entry gets at most this array's top order."""
        other = self._coerce(other)
        k = self.top
        self.value[idx] = other.value
        if k >= 1 and other.grad is not None:
            self.grad[idx] = other.grad
        if k >= 2 and other.hess is not None:
            self.hess[idx] = other.hess
        self.order[idx] = np.minimum(other.order, k)

    def transpose(self, *axes) -> "JetArray":
        s = len(axes)
        return self._map(
            lambda x: x.transpose(axes),
            lambda x: x.transpose(axes + (s,)),
            lambda x: x.transpose(axes + (s, s + 1)),
            lambda x: x.transpose(axes),
        )

    def reshape(self, *shape) -> "JetArray":
        d = self.dim
        return self._map(
            lambda x: x.reshape(shape),
            lambda x: x.reshape(shape + (d,)),
            lambda x: x.reshape(shape + (d, d)),
            lambda x: x.reshape(shape),
        )

    def restrict(self, k: int) -> "JetArray":
        """The same entries cut to order at most k, as Jet.restrict. Adding
        the result to a term of order at most k gives the same entries as
        adding the uncut array, without computing the parts above k."""
        return JetArray(
            self.dim,
            self.value,
            self.grad if k >= 1 else None,
            self.hess if k >= 2 else None,
            np.minimum(self.order, k),
        )

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "JetArray":
        if isinstance(other, JetArray):
            return other
        if isinstance(other, Jet):
            return JetArray.from_jets(other)
        if isinstance(other, (int, float)):
            return JetArray.constant(other, self.dim)
        return NotImplemented

    @staticmethod
    def _apply(rule, a, b) -> "JetArray":
        if a is NotImplemented or b is NotImplemented:
            return NotImplemented
        k = min(a.top, b.top)
        parts = rule(k, a.value, a.grad, a.hess, b.value, b.grad, b.hess)
        return JetArray(a.dim, *parts, np.minimum(a.order, b.order))

    def __add__(self, other):
        return self._apply(_add_rule, self, self._coerce(other))

    def __radd__(self, other):
        return self._apply(_add_rule, self._coerce(other), self)

    def __sub__(self, other):
        return self._apply(_sub_rule, self, self._coerce(other))

    def __rsub__(self, other):
        return self._apply(_sub_rule, self._coerce(other), self)

    def __mul__(self, other):
        return self._apply(_mul_rule, self, self._coerce(other))

    def __rmul__(self, other):
        return self._apply(_mul_rule, self._coerce(other), self)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is not NotImplemented and np.any(other.value == 0.0):
            raise ExprDomainError("division by zero", "<jet quotient>")
        return self._apply(_div_rule, self, other)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        parts = _neg_rule(self.top, self.value, self.grad, self.hess)
        return JetArray(self.dim, *parts, self.order)

    def sqrt(self) -> "JetArray":
        if np.any(self.value < 0.0):
            raise ExprDomainError("sqrt of negative value", "<jet sqrt>")
        if np.any((self.value == 0.0) & (self.order >= 1)):
            raise ExprDomainError("sqrt not differentiable at zero", "<jet sqrt>")
        parts = _sqrt_rule(self.top, np.sqrt(self.value), self.grad, self.hess)
        return JetArray(self.dim, *parts, self.order)

    # -- calculus and reductions ---------------------------------------------

    def partials(self) -> "JetArray":
        """All coordinate partials, one order lower, stacked on a new
        leading axis: entry [i, ...] is Jet.partial(i) of entry [...]."""
        if self.grad is None or np.any(self.order < 1):
            raise ValueError("partial derivative needs a jet of order >= 1")
        return JetArray(
            self.dim,
            np.moveaxis(self.grad, -1, 0),
            None if self.hess is None else np.moveaxis(self.hess, -2, 0),
            None,
            np.broadcast_to(self.order - 1, (self.dim,) + self.shape),
        )

    def fold(self, carry: "JetArray | None" = None) -> "JetArray":
        """Left fold along the leading axis, ((carry + x[0]) + x[1]) + ...,
        the summation order of sum_jets; without carry it starts at x[0]."""

        def run(x, c):
            if c is not None:
                x = x.copy()
                x[0] = c + x[0]
            return np.add.accumulate(x, axis=0)[-1].copy()

        k = self.top if carry is None else min(self.top, carry.top)
        cv, cg, ch = (None, None, None) if carry is None else (
            carry.value, carry.grad, carry.hess
        )
        order = np.minimum.reduce(self.order, axis=0)
        if carry is not None:
            order = np.minimum(order, carry.order)
        return JetArray(
            self.dim,
            run(self.value, cv),
            run(self.grad, cg) if k >= 1 else None,
            run(self.hess, ch) if k >= 2 else None,
            order,
        )


def _flatten(x):
    if isinstance(x, Jet):
        return [x], ()
    items = [_flatten(e) for e in x]
    return [j for flat, _ in items for j in flat], (len(items),) + items[0][1]


def _nest(flat, shape):
    if not shape:
        return flat[0]
    step = len(flat) // shape[0]
    return [_nest(flat[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


def fold_chunks(n_terms: int, per_term: int, dim: int, terms) -> JetArray:
    """Left fold of terms(lo, hi), the JetArray of terms lo..hi-1 stacked
    on the leading axis, over all n_terms terms in slices, carrying the
    running sum between slices. Gives the same bits as folding all terms
    at once; per_term is the entry count of one term and dim the chart
    dimension.

    A slice holds at most _FOLD_CHUNK floats of the highest part its
    terms carry: dim*dim per entry at order 2, dim at order 1 and 1 at
    order 0. The first slice is sized as if the terms had order 2 and
    the size of the rest follows from its top order, so a fold that fits
    in one order-2 slice still takes one. n_terms must be positive."""
    hi = min(n_terms, max(1, _FOLD_CHUNK // max(1, per_term * dim * dim)))
    first = terms(0, hi)
    acc = first.fold()
    step = max(1, _FOLD_CHUNK // max(1, per_term * dim**first.top))
    for lo in range(hi, n_terms, step):
        acc = terms(lo, min(lo + step, n_terms)).fold(acc)
    return acc


class Tape:
    """Expressions compiled to one straight-line program over jets.

    Every distinct subexpression gets one slot, keyed on its node kind and
    its child slots (literals on float.hex, so 0.0 and -0.0 stay apart),
    and is evaluated once per call however often the trees repeat it.
    Compiling memoizes on node identity, so it takes time linear in the
    number of distinct node objects. Slots run in the post-order of their
    first appearance across the expressions, the order a walk of each tree
    in turn visits them, and every slot applies the Jet rule that walk
    would; so each output has the bits of evaluating its tree alone, and
    the first domain error names the subexpression that walk would.
    """

    def __init__(self, exprs):
        self.code: list[tuple] = []
        self.nodes: list[Expr] = []
        slots: dict[tuple, int] = {}
        seen: dict[int, int] = {}

        def slot(node: Expr) -> int:
            s = seen.get(id(node))
            if s is not None:
                return s
            kind = type(node)
            if kind is Binary:
                key = ins = (node.op, slot(node.lhs), slot(node.rhs))
            elif kind is Lit:
                v = float(node.value)
                key = ("lit", v.hex())
                ins = ("lit", v, None)
            elif kind is Coord:
                key = ("coord", node.index, node.name)
                ins = ("coord", node.index, None)
            elif kind is Pow:
                key = ins = ("pow", slot(node.base), node.exponent)
            elif kind is Unary:
                key = ins = (node.op, slot(node.arg), None)
            else:
                raise TypeError(f"not an Expr: {node!r}")
            s = slots.get(key)
            if s is None:
                s = slots[key] = len(self.code)
                self.code.append(ins)
                self.nodes.append(node)
            seen[id(node)] = s
            return s

        self.outputs = [slot(e) for e in exprs]

    def eval(self, p, order: int) -> list[Jet]:
        """The outputs as jets of the requested order at p.

        Domain violations (division by zero, sqrt of a negative) raise
        ExprDomainError naming the offending subexpression.
        """
        d = len(p)
        vals: list[Jet] = []
        push = vals.append
        i = 0
        try:
            for i, (op, a, b) in enumerate(self.code):
                if op == "*":
                    push(vals[a] * vals[b])
                elif op == "+":
                    push(vals[a] + vals[b])
                elif op == "-":
                    push(vals[a] - vals[b])
                elif op == "/":
                    push(vals[a] / vals[b])
                elif op == "lit":
                    push(Jet.constant(a, d, order))
                elif op == "coord":
                    push(Jet.coordinate(p, a, order))
                elif op == "pow":
                    push(vals[a].powi(b))
                elif op == "neg":
                    push(-vals[a])
                else:
                    push(getattr(vals[a], op)())
        except ExprDomainError as exc:
            # The rule's message, placed at the subexpression of slot i.
            message = str(exc).split(" in ")[0]
            raise ExprDomainError(message, pretty(self.nodes[i])) from None
        return [vals[s] for s in self.outputs]


def eval_jet(e: Expr, p, order: int) -> Jet:
    """Evaluate an expression tree to a jet of the requested order at p:
    the one-expression case of Tape."""
    return Tape((e,)).eval(p, order)[0]


def sum_jets(terms):
    """Left-to-right sum of a nonempty iterable of jets."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def jet_linear_solve(A: JetArray, b: JetArray) -> JetArray:
    """Solve A x = b for a JetArray A (m, m) and b (m,), propagating
    derivatives; returns x as a JetArray (m,).

    The solution is staged through the value-part inverse:

        x  = A0^-1 b0
        dx = A0^-1 (db - dA x)
        d2x = A0^-1 (d2b - d2A x - dA dx - (sym))

    The output order is the minimum order among the inputs. Raises
    SingularMatrixError when the value part is rank deficient beyond a
    1e-10 relative bound, and LinearSolveResidualError if the computed
    solution violates the residual contract (which indicates a
    conditioning problem upstream).
    """
    m = len(b)
    if A.shape != (m, m) or b.shape != (m,):
        raise ValueError("A must be square and match b")
    order = int(min(A.order.min(), b.order.min()))
    dim = A.dim

    # Contiguous copies, so the BLAS and einsum loops see the same memory
    # layout whatever views A and b are.
    A0, b0 = np.ascontiguousarray(A.value), np.ascontiguousarray(b.value)
    sv = np.linalg.svd(A0, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise SingularMatrixError(
            f"value part of system is singular (spectrum {sv[0]:.3e}..{sv[-1]:.3e})"
        )
    x0 = np.linalg.solve(A0, b0)

    scale = np.linalg.norm(A0, np.inf) * np.linalg.norm(x0, np.inf)
    resid = np.linalg.norm(A0 @ x0 - b0, np.inf)
    if resid >= 1e-12 * (scale + np.linalg.norm(b0, np.inf) + 1.0):
        raise LinearSolveResidualError(
            f"solve residual {resid:.3e} exceeds contract bound"
        )

    xg = xh = None
    if order >= 1:
        Ag = np.ascontiguousarray(A.grad)  # (m, m, d)
        rhs_g = np.ascontiguousarray(b.grad) - np.einsum("ijk,j->ik", Ag, x0)
        xg = np.linalg.solve(A0, rhs_g)  # (m, d)
    if order >= 2:
        Ah = np.ascontiguousarray(A.hess)  # (m, m, d, d)
        rhs_h = np.ascontiguousarray(b.hess) - np.einsum("ijkl,j->ikl", Ah, x0)
        cross = np.einsum("ijk,jl->ikl", Ag, xg)
        rhs_h = rhs_h - cross - np.transpose(cross, (0, 2, 1))
        xh = np.linalg.solve(A0, rhs_h.reshape(m, -1)).reshape(m, dim, dim)
    return JetArray(dim, x0, xg, xh, np.full(m, order, dtype=_ORDER_DTYPE))
