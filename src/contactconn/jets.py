"""Second-order forward-mode jets and the jet-valued linear solve.

A JetArray carries the value, gradient and Hessian of a tensor of
scalar quantities at a point of a d-dimensional chart, part by part:
value of shape S, gradient S+(d,), Hessian S+(d,d). Its 0-d case is a
single jet, and Jet names the class for that use. Every derivative in
this package flows through these exact propagation rules; finite
differences appear only in test oracles.

Design notes.

- One jet type. Scalars (the tape's slots, mu, the 3D invariants) are
  0-d arrays and tensors are arrays of the same class, so one set of
  rules serves both and nothing converts between them. The sum,
  difference, negation, product, quotient and sqrt rules are
  broadcasting functions on (value, grad, hess); sin, cos, exp and
  integer powers take each entry's value, f' and f'' from math on the
  entry's value as a Python float. An entry of a JetArray holds exactly
  the bits the same computation on that entry alone gives.
- Summation order. A sum of products over an axis is one call of
  contract, which sums each product-rule part on its own (the Hessian's
  cross terms as one outer-product sum) without building any term's
  full product jet. Every part of every entry is a running sum over
  the contracted axis from +0.0, term 0 first, each product rounded
  before it is added: the value through np.add.accumulate, the
  derivative parts through np.einsum on copies made C-contiguous with
  the contracted axis first, so einsum's inner loop runs over the
  derivative axes and adds one term at a time. The bits therefore
  depend on the operands' values and shapes only, never on their memory
  layout or on BLAS; a test pins this against the Python loop of that
  running sum.
- Orders. A JetArray computes all its entries at one common order, the
  highest any entry carries, and tracks each entry's own order in an
  integer array: mixed-order operands give each entry the lower of
  their orders, and plain numbers lift to constant jets. Parts above an
  entry's order are never read (value and gradient rules read no higher
  part), so mixing orders in one array is exact.
- Work at the order that is read. For the same reason, cutting an
  operand to the order its consumer reads (JetArray.restrict) before a
  kernel runs gives the same bits as cutting the result, without
  computing the parts above that order. Every kernel runs at the order
  its result is read: pairings contract at the order of the form's
  coefficients, and the suites' value-only checks run on order-0 jets.
- Expressions. Tape compiles expression trees into one list of slots,
  one per distinct subexpression, and evaluates them as 0-d jets in the
  order a tree walk first reaches them; eval_jet is its one-expression
  case. The literal slots' constant jets are built once per chart
  dimension and order and shared by every call, since no rule writes to
  its operands.
- Symmetry. Hessians are exactly symmetric. Products, quotients and
  contractions assemble theirs as S + (c + c^T), S a sum of symmetric
  pieces and c the outer-product cross term, and c + c^T is symmetric to
  the bit because addition commutes; sums, differences, sqrt and the
  elementary functions keep symmetric Hessians exactly symmetric.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ExprDomainError,
    LinearSolveResidualError,
    SingularMatrixError,
)
from .expressions import Binary, Coord, Expr, Lit, Pow, Unary, pretty


# -- propagation rules -------------------------------------------------------
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
    """(ab)' = a' b + b' a and (ab)'' = (a'' b + b'' a) + (a' b'^T + b' a'^T)."""
    g = h = None
    if k >= 1:
        g = ag * _up(bv, 1)
        g += bg * _up(av, 1)
    if k >= 2:
        cross = _outer(ag, bg)
        h = ah * _up(bv, 2)
        h += bh * _up(av, 2)
        h += cross + _tr(cross)
    return av * bv, g, h


def _div_rule(k, av, ag, ah, bv, bg, bh):
    """q = a/b, q' = (a' - q b')/b, q'' = ((a'' - q b'') - (q' b'^T + b' q'^T))/b."""
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
        h -= cross + _tr(cross)
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


_ORDER_DTYPE = np.int8
_TOP_ORDER = 2


class JetArray:
    """A tensor of jets at one chart point, stored part by part.

    value has shape S and order (each entry's own jet order) shape S. The
    array's top order k is the highest order any entry carries: grad, of
    shape S+(d,), is present when k >= 1 and hess, S+(d,d), when k = 2;
    absent parts are None. A 0-d array (S = ()) is a single jet. Indexing,
    transpose and reshape act on the leading (tensor) axes only; the
    derivative axes always stay last. Arithmetic broadcasts like numpy
    over the tensor axes, runs the rules at the lower top order of its
    operands and gives every entry the lower of its operands' orders.
    """

    __slots__ = ("dim", "value", "grad", "hess", "order")

    # A single jet's value is a numpy scalar; with a numpy number on the
    # left of an operator, numpy defers to this class's reflected operator
    # instead of unpacking the array into an object array of jets.
    __array_ufunc__ = None

    def __init__(self, dim: int, value, grad, hess, order):
        self.dim = dim
        self.value = value
        self.grad = grad
        self.hess = hess
        self.order = order

    # -- construction --------------------------------------------------------

    @staticmethod
    def constant(v: float, dim: int, shape=(), order: int = _TOP_ORDER) -> "JetArray":
        """Constant jets of the given order, by default the top one, the
        jets that plain numbers lift to; a single jet by default."""
        shape = tuple(shape)
        return JetArray(
            dim,
            np.full(shape, float(v)),
            np.zeros(shape + (dim,)) if order >= 1 else None,
            np.zeros(shape + (dim, dim)) if order >= 2 else None,
            np.full(shape, order, dtype=_ORDER_DTYPE),
        )

    @staticmethod
    def coordinate(p, i: int, order: int) -> "JetArray":
        """The jet of the i-th coordinate function at p, a single jet."""
        x = JetArray.constant(p[i], len(p), (), order)
        if order >= 1:
            x.grad[i] = 1.0
        return x

    # -- shape ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def top(self) -> int:
        return 0 if self.grad is None else 1 if self.hess is None else 2

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("a single jet has no length")
        return self.shape[0]

    def __iter__(self):
        """The entries along the leading axis, as indexing gives them."""
        return (self[i] for i in range(len(self)))

    def _map(self, fv, fg, fh, fo) -> "JetArray":
        return JetArray(
            self.dim,
            fv(self.value),
            None if self.grad is None else fg(self.grad),
            None if self.hess is None else fh(self.hess),
            fo(self.order),
        )

    def __getitem__(self, idx) -> "JetArray":
        """The entries at idx; a single entry comes cut to its own order,
        so arithmetic on it runs at that order."""
        f = lambda x: x[idx]  # noqa: E731
        out = self._map(f, f, f, f)
        if out.shape == () and out.order < out.top:
            return out.restrict(int(out.order))
        return out

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
        """The same entries cut to order at most k. Adding the result to a
        term of order at most k gives the same entries as adding the uncut
        array, without computing the parts above k."""
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

    def _chain(self, rule) -> "JetArray":
        """f applied entry by entry, where rule maps an entry's value, as a
        Python float, to f, f' and f'' there: the chain rule
        (f o u)' = f'(u) u' and (f o u)'' = f'(u) u'' + f''(u) u' u'^T. A
        result beyond the float range, or an infinite argument, raises
        ExprDomainError."""
        try:
            fs = [rule(v) for v in np.ravel(self.value).tolist()]
        except (OverflowError, ValueError):
            raise ExprDomainError("no finite float result", "<jet function>") from None
        f, df, d2f = (np.array(c).reshape(self.shape) for c in zip(*fs))
        g = h = None
        if self.top >= 1:
            g = _up(df, 1) * self.grad
        if self.top >= 2:
            h = _up(df, 2) * self.hess + _up(d2f, 2) * _outer(self.grad, self.grad)
        return JetArray(self.dim, f, g, h, self.order)

    def sin(self) -> "JetArray":
        return self._chain(lambda v: (math.sin(v), math.cos(v), -math.sin(v)))

    def cos(self) -> "JetArray":
        return self._chain(lambda v: (math.cos(v), -math.sin(v), -math.cos(v)))

    def exp(self) -> "JetArray":
        return self._chain(lambda v: (math.exp(v),) * 3)

    def powi(self, k: int) -> "JetArray":
        """The integer power k, on Python floats as the ** operator gives it."""
        if k < 0 and np.any(self.value == 0.0):
            raise ExprDomainError("zero raised to a negative power", "<jet pow>")
        return self._chain(
            lambda v: (
                v**k,
                k * v ** (k - 1) if k != 0 else 0.0,
                k * (k - 1) * v ** (k - 2) if k not in (0, 1) else 0.0,
            )
        )

    # -- calculus ------------------------------------------------------------

    def partials(self) -> "JetArray":
        """All coordinate partials, one order lower, stacked on a new
        leading axis: entry [i, ...] is the i-th coordinate partial of
        entry [...]. The value comes from the gradient and the gradient from
        the Hessian row, so differentiating consumes exactly one order."""
        if self.grad is None or np.any(self.order < 1):
            raise ValueError("partial derivative needs a jet of order >= 1")
        return JetArray(
            self.dim,
            np.moveaxis(self.grad, -1, 0),
            None if self.hess is None else np.moveaxis(self.hess, -2, 0),
            None,
            np.broadcast_to(self.order - 1, (self.dim,) + self.shape),
        )


# The name of the class where it holds a single jet: Jet.constant(v, dim)
# and Jet.coordinate(p, i, order) build one.
Jet = JetArray


def contract(a: JetArray, b: JetArray) -> JetArray:
    """The sum over the shared leading axis E of the products a[E] * b[E].

    a and b have the same number of axes, and after the first one they
    broadcast against each other like numpy arrays; the result has their
    broadcast shape without that axis. Each product-rule part is summed
    on its own, at the lower top order of a and b:

        value     sum a b
        gradient  sum a' b + sum a b'
        Hessian   (sum a'' b + sum a b'') + (C + C^T),  C = sum a' b'^T

    Every sum is a running sum over E from +0.0, term 0 first, each
    product rounded before it is added (the module notes say how), so
    the bits depend on the operands' values and shapes only. An entry
    gets the lowest order of any term it sums. E must be nonempty.
    """
    if not a.shape or len(a.shape) != len(b.shape) or len(a) != len(b) or not len(a):
        raise ValueError(f"shapes {a.shape}, {b.shape}: not one rank with a shared leading axis")
    k = min(a.top, b.top)
    c = np.ascontiguousarray
    av, bv = c(a.value), c(b.value)
    value = np.add.accumulate(av * bv, axis=0)[-1] + 0.0
    grad = hess = None
    if k >= 1:
        ag, bg = c(a.grad), c(b.grad)
        grad = np.einsum("e...i,e...->...i", ag, bv)
        grad += np.einsum("e...,e...i->...i", av, bg)
    if k >= 2:
        cross = np.einsum("e...i,e...j->...ij", ag, bg)
        hess = np.einsum("e...ij,e...->...ij", c(a.hess), bv)
        hess += np.einsum("e...,e...ij->...ij", av, c(b.hess))
        hess += cross + _tr(cross)
    order = np.minimum.reduce(np.minimum(a.order, b.order), axis=0)
    return JetArray(a.dim, value, grad, hess, order)


class Tape:
    """Expressions compiled to one straight-line program over jets.

    Every distinct subexpression gets one slot, keyed on its node kind and
    its child slots (literals on float.hex, so 0.0 and -0.0 stay apart),
    and is evaluated once per call however often the trees repeat it.
    Compiling memoizes on node identity, so it takes time linear in the
    number of distinct node objects. Slots run in the post-order of their
    first appearance across the expressions, the order a walk of each tree
    in turn visits them, and every slot applies to single jets the rule
    that walk would; so each output has the bits of evaluating its tree
    alone, and the first domain error names the subexpression that walk
    would.
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
        # The literal slots' constant jets per (dim, order), keyed by slot
        # and built on first use; no rule writes to its operands, so every
        # call shares them.
        self._literals: dict[tuple[int, int], dict[int, JetArray]] = {}

    def eval(self, p, order: int) -> JetArray:
        """The outputs at p as one JetArray (K,) of jets of the requested
        order, in the order of the expressions.

        Domain violations (division by zero, sqrt of a negative, a result
        beyond the float range) raise ExprDomainError naming the offending
        subexpression; an output whose value, gradient or Hessian is not
        finite raises it naming the first such output.
        """
        d = len(p)
        lits = self._literals.get((d, order))
        if lits is None:
            lits = self._literals[(d, order)] = {
                s: JetArray.constant(a, d, (), order)
                for s, (op, a, _) in enumerate(self.code)
                if op == "lit"
            }
        vals: list[JetArray] = []
        push = vals.append
        i = 0
        try:
            # Non-finite results are caught at the outputs, below.
            with np.errstate(over="ignore", invalid="ignore"):
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
                        push(lits[i])
                    elif op == "coord":
                        push(JetArray.coordinate(p, a, order))
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
        # Every slot is a single jet of the requested order.
        out = [vals[s] for s in self.outputs]
        n = len(out)
        res = JetArray(
            d,
            np.array([j.value for j in out], dtype=float),
            np.array([j.grad for j in out]).reshape(n, d) if order >= 1 else None,
            np.array([j.hess for j in out]).reshape(n, d, d) if order >= 2 else None,
            np.full(n, order, dtype=_ORDER_DTYPE),
        )
        finite = np.isfinite(res.value)
        for part in (res.grad, res.hess)[:order]:
            finite &= np.isfinite(part.reshape(n, -1)).all(axis=1)
        if not finite.all():
            bad = self.nodes[self.outputs[int(np.argmin(finite))]]
            raise ExprDomainError("value, gradient or Hessian is not finite", pretty(bad))
        return res


def eval_jet(e: Expr, p, order: int) -> JetArray:
    """Evaluate an expression tree to a single jet of the requested order
    at p: the one-expression case of Tape."""
    return Tape((e,)).eval(p, order)[0]


def jet_linear_solve(A: JetArray, b: JetArray) -> JetArray:
    """Solve A x = b for a JetArray A (m, m) and a right-hand side b of
    shape (m,) or (m, k), every column in the same call, propagating
    derivatives; returns x with b's shape.

    The solution is staged through the value-part inverse:

        x  = A0^-1 b0
        dx = A0^-1 (db - dA x)
        d2x = A0^-1 (d2b - d2A x - (dA dx + (dA dx)^T))

    The output order is the minimum order among the inputs. Raises
    ExprDomainError when a value of A or b is not finite,
    SingularMatrixError when the value part is rank deficient beyond a
    1e-10 relative bound, and LinearSolveResidualError if the computed
    solution of some column violates the residual contract (which
    indicates a conditioning problem upstream).
    """
    m = len(b)
    if A.shape != (m, m) or len(b.shape) > 2:
        raise ValueError("A must be square and match b")
    order = int(min(A.order.min(), b.order.min()))
    dim = A.dim
    shape = b.shape

    # Contiguous copies, so the BLAS and einsum loops see the same memory
    # layout whatever views A and b are; columns of b on the second axis.
    c = np.ascontiguousarray
    A0, b0 = c(A.value), c(b.value).reshape(m, -1)
    if not (np.isfinite(A0).all() and np.isfinite(b0).all()):
        raise ExprDomainError("values of the linear system are not finite", "<jet linear solve>")
    sv = np.linalg.svd(A0, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise SingularMatrixError(
            f"value part of system is singular (spectrum {sv[0]:.3e}..{sv[-1]:.3e})"
        )
    x0 = c(np.linalg.solve(A0, b0))

    # The residual contract in the infinity norm, column by column.
    scale = np.linalg.norm(A0, np.inf) * np.abs(x0).max(axis=0)
    resid = np.abs(A0 @ x0 - b0).max(axis=0)
    if np.any(resid >= 1e-12 * (scale + np.abs(b0).max(axis=0) + 1.0)):
        raise LinearSolveResidualError(
            f"solve residual {resid.max():.3e} exceeds contract bound"
        )

    xg = xh = None
    if order >= 1:
        Ag = c(A.grad)  # (m, m, d)
        rhs_g = c(b.grad).reshape(m, -1, dim) - np.einsum("ijl,jc->icl", Ag, x0)
        xg = np.linalg.solve(A0, rhs_g.reshape(m, -1)).reshape(m, -1, dim)
    if order >= 2:
        cross = np.einsum("ijl,jcq->iclq", Ag, xg)
        rhs_h = c(b.hess).reshape(m, -1, dim, dim) - np.einsum("ijlq,jc->iclq", c(A.hess), x0)
        rhs_h = rhs_h - (cross + np.swapaxes(cross, -1, -2))
        xh = np.linalg.solve(A0, rhs_h.reshape(m, -1))
    return JetArray(
        dim,
        x0.reshape(shape),
        None if xg is None else xg.reshape(shape + (dim,)),
        None if xh is None else xh.reshape(shape + (dim, dim)),
        np.full(shape, order, dtype=_ORDER_DTYPE),
    )
