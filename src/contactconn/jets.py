"""Second-order forward-mode jets, the jet-valued linear solve and the
jet-valued Cholesky factor.

A JetArray carries the value, gradient and Hessian of a tensor of
scalar quantities at a point of a d-dimensional chart, part by part:
value of shape S, gradient S+(d,), Hessian S+(d,d). Its 0-d case is a
single jet, and Jet names the class for that use. Every derivative in
this package flows through these exact propagation rules; finite
differences appear only in test oracles.

Design notes.

- One jet type, one set of rules. Scalars (mu, the 3D invariants) are
  0-d arrays and tensors are arrays of the same class, so nothing
  converts between them. The sum, difference, negation, product,
  quotient and sqrt rules are broadcasting functions on (value, grad,
  hess); sin, cos, exp and integer powers take each entry's value, f'
  and f'' from math on the entry's value as a Python float, through one
  chain rule. The domain checks (a zero divisor, sqrt of a negative or
  of a differentiated zero, an elementary function without a finite
  float result, zero to a negative power) live in the rules too. An
  entry of a JetArray holds exactly the bits the same computation on
  that entry alone gives.
- Summation order. A sum of products over an axis is one call of
  contract, which sums each product-rule part on its own (the Hessian's
  cross terms as one outer-product sum) without building any term's
  full product jet: the pairings, the frame's normalization and every
  change of frame alike, with no Python loop of product jets. Every
  part of every entry is a running sum over the contracted axis from
  +0.0, term 0 first, each product rounded before it is added: the
  value through np.add.accumulate, the derivative parts through
  np.einsum on copies made C-contiguous with the contracted axis first,
  so einsum's inner loop runs over the derivative axes and adds one term
  at a time. The bits therefore depend on the operands' values and
  shapes only, never on their memory layout or on BLAS; a test pins
  this against the Python loop of that running sum.
- Orders. A JetArray carries one jet order for all its entries, its top:
  grad is present from order 1 and hess at order 2. An operation runs at
  the lower top order of its operands, and plain numbers lift to
  constant jets of the top order. Value and gradient rules read no
  higher part, so every entry has the bits its operation gives on
  operands cut to that order. Every stack or container is built at the
  lowest order of what goes into it: concatenate joins its items at
  their lowest top, and __setitem__ refuses an entry of lower order than
  the array it is written into.
- Work at the order that is read. For the same reason, cutting an
  operand to the order its consumer reads (JetArray.restrict) before a
  kernel runs gives the same bits as cutting the result, without
  computing the parts above that order. Every kernel runs at the order
  its result is read: pairings contract at the order of the form's
  coefficients, and the suites' value-only checks run on order-0 jets.
  Every pairing of a tensor with vectors, of forms and of the metric
  alike, is the one kernel forms.pair, a contract per vector stack; a
  stack of tensors pairs in one call, and its entries get the bits they
  get alone.
- Expressions. Tape compiles expression trees into one list of slots,
  one per distinct subexpression, and evaluates them in the order a tree
  walk first reaches them; eval_jet is its one-expression case. A slot
  is a single jet held as its raw parts (value, grad, hess), the value a
  Python float, and runs the same rule on them that a 0-d JetArray
  would, without building one per slot, so its bits are those of the
  JetArray operators. The slots of one call share their zero parts (a
  literal's gradient and Hessian, a coordinate's Hessian), since no rule
  writes to its operands.
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
from .expressions import Binary, Coord, Expr, Lit, Pow, _postorder, pretty


# -- propagation rules -------------------------------------------------------
#
# Each rule takes the common order k and the (value, grad, hess) parts of
# its operands and returns the parts of the result; parts above k are None.
# Values are arrays (a JetArray's) or Python floats (a tape slot's). No
# rule writes into its operands. A rule with a domain raises
# ExprDomainError at a placeholder subexpression, which the tape replaces
# with the slot's.


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
    """q = a/b, q' = (a' - q b')/b, q'' = ((a'' - q b'') - (q' b'^T + b' q'^T))/b.
    A zero divisor raises ExprDomainError."""
    if np.count_nonzero(bv == 0.0):
        raise ExprDomainError("division by zero", "<jet quotient>")
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


def _sqrt_rule(k, v, g, h):
    """Parts of sqrt(f) from f's parts, its value's square root correctly
    rounded. A negative value, or a zero one at order k >= 1, raises
    ExprDomainError."""
    if np.count_nonzero(v < 0.0):
        raise ExprDomainError("sqrt of negative value", "<jet sqrt>")
    if k >= 1 and np.count_nonzero(v == 0.0):
        raise ExprDomainError("sqrt not differentiable at zero", "<jet sqrt>")
    s = np.sqrt(v)
    gs = hs = None
    if k >= 1:
        gs = g / _up(2.0 * s, 1)
    if k >= 2:
        hs = (h - 2.0 * _outer(gs, gs)) / _up(2.0 * s, 2)
    return s, gs, hs


# The elementary functions as maps from a value, a Python float, to f, f'
# and f'' there, all from math.
_ELEMENTARY = {
    "sin": lambda v: (math.sin(v), math.cos(v), -math.sin(v)),
    "cos": lambda v: (math.cos(v), -math.sin(v), -math.cos(v)),
    "exp": lambda v: (math.exp(v),) * 3,
}


def _powi(k: int, order: int):
    """The integer power k as such a map, on Python floats as the **
    operator gives it; a derivative above order is 0.0, not taken."""
    return lambda v: (
        v**k,
        k * v ** (k - 1) if k != 0 and order >= 1 else 0.0,
        k * (k - 1) * v ** (k - 2) if k not in (0, 1) and order >= 2 else 0.0,
    )


def _check_powi(v, k: int) -> None:
    """Raise ExprDomainError where a zero value meets a negative power."""
    if k < 0 and np.count_nonzero(v == 0.0):
        raise ExprDomainError("zero raised to a negative power", "<jet pow>")


def _elementary(f, v):
    """f, f' and f'' at v, taken as a Python float, by the map f; a result
    beyond the float range, or an infinite argument, raises
    ExprDomainError."""
    try:
        return f(float(v))
    except (OverflowError, ValueError):
        raise ExprDomainError("no finite float result", "<jet function>") from None


def _chain_rule(k, fv, df, d2f, g, h):
    """Parts of f o u from f, f' and f'' at u's value and u's grad and
    hess: (f o u)' = f'(u) u' and (f o u)'' = f'(u) u'' + f''(u) u' u'^T."""
    gs = hs = None
    if k >= 1:
        gs = _up(df, 1) * g
    if k >= 2:
        hs = _up(df, 2) * h + _up(d2f, 2) * _outer(g, g)
    return fv, gs, hs


_TOP_ORDER = 2


class JetArray:
    """A tensor of jets at one chart point, stored part by part.

    value has shape S. Every entry carries the array's one jet order, its
    top k: grad, of shape S+(d,), is present when k >= 1 and hess,
    S+(d,d), when k = 2; absent parts are None. A 0-d array (S = ()) is a
    single jet. Indexing, transpose and reshape act on the leading
    (tensor) axes only; the derivative axes always stay last. Arithmetic
    broadcasts like numpy over the tensor axes and runs the rules at the
    lower top order of its operands.
    """

    __slots__ = ("dim", "value", "grad", "hess")

    # A single jet's value is a numpy scalar; with a numpy number on the
    # left of an operator, numpy defers to this class's reflected operator
    # instead of unpacking the array into an object array of jets.
    __array_ufunc__ = None

    def __init__(self, dim: int, value, grad, hess):
        self.dim = dim
        self.value = value
        self.grad = grad
        self.hess = hess

    # -- construction --------------------------------------------------------

    @staticmethod
    def constant(v: float, dim: int, shape=(), order: int = _TOP_ORDER) -> "JetArray":
        """Constant jets of the given order, by default the top one, the
        jets that plain numbers lift to; a single jet by default."""
        shape = tuple(shape)
        value = np.empty(shape)
        value.fill(v)
        return JetArray(
            dim,
            value,
            np.zeros(shape + (dim,)) if order >= 1 else None,
            np.zeros(shape + (dim, dim)) if order >= 2 else None,
        )

    @staticmethod
    def coordinate(p, i: int, order: int) -> "JetArray":
        """The jet of the i-th coordinate function at p, a single jet."""
        x = JetArray.constant(p[i], len(p), (), order)
        if order >= 1:
            x.grad[i] = 1.0
        return x

    # -- shape and order -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def top(self) -> int:
        """The jet order of every entry."""
        return 0 if self.grad is None else 1 if self.hess is None else 2

    def __len__(self) -> int:
        shape = self.value.shape
        if not shape:
            raise TypeError("a single jet has no length")
        return shape[0]

    def __iter__(self):
        """The entries along the leading axis, as indexing gives them."""
        return (self[i] for i in range(len(self)))

    def __getitem__(self, idx) -> "JetArray":
        """The entries at idx, at this array's order."""
        g, h = self.grad, self.hess
        return JetArray(
            self.dim,
            self.value[idx],
            None if g is None else g[idx],
            None if h is None else h[idx],
        )

    def __setitem__(self, idx, other) -> None:
        """Assign entries, cut to this array's order. Raises ValueError
        for entries of a lower order, which would leave parts unset."""
        other = self._coerce(other)
        k = self.top
        if other.top < k:
            raise ValueError(f"cannot assign order-{other.top} jets into an order-{k} array")
        self.value[idx] = other.value
        if k >= 1:
            self.grad[idx] = other.grad
        if k >= 2:
            self.hess[idx] = other.hess

    def transpose(self, *axes) -> "JetArray":
        s = len(axes)
        g, h = self.grad, self.hess
        return JetArray(
            self.dim,
            self.value.transpose(axes),
            None if g is None else g.transpose(axes + (s,)),
            None if h is None else h.transpose(axes + (s, s + 1)),
        )

    def reshape(self, *shape) -> "JetArray":
        d = self.dim
        g, h = self.grad, self.hess
        return JetArray(
            d,
            self.value.reshape(shape),
            None if g is None else g.reshape(shape + (d,)),
            None if h is None else h.reshape(shape + (d, d)),
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
        ag, ah, bg, bh = a.grad, a.hess, b.grad, b.hess
        k = 0 if ag is None or bg is None else 1 if ah is None or bh is None else 2
        return JetArray(a.dim, *rule(k, a.value, ag, ah, b.value, bg, bh))

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
        return self._apply(_div_rule, self, self._coerce(other))

    def __rtruediv__(self, other):
        return self._apply(_div_rule, self._coerce(other), self)

    def __neg__(self):
        return JetArray(self.dim, *_neg_rule(self.top, self.value, self.grad, self.hess))

    def sqrt(self) -> "JetArray":
        return JetArray(self.dim, *_sqrt_rule(self.top, self.value, self.grad, self.hess))

    def _chain(self, f) -> "JetArray":
        """f applied entry by entry through the chain rule, where f maps an
        entry's value, as a Python float, to f, f' and f'' there."""
        fs = [_elementary(f, v) for v in np.ravel(self.value).tolist()]
        fv, df, d2f = (np.array(c).reshape(self.shape) for c in zip(*fs))
        return JetArray(self.dim, *_chain_rule(self.top, fv, df, d2f, self.grad, self.hess))

    def sin(self) -> "JetArray":
        return self._chain(_ELEMENTARY["sin"])

    def cos(self) -> "JetArray":
        return self._chain(_ELEMENTARY["cos"])

    def exp(self) -> "JetArray":
        return self._chain(_ELEMENTARY["exp"])

    def powi(self, k: int) -> "JetArray":
        """The integer power k, on Python floats as the ** operator gives it."""
        _check_powi(self.value, k)
        return self._chain(_powi(k, self.top))

    # -- calculus ------------------------------------------------------------

    def partials(self) -> "JetArray":
        """All coordinate partials, one order lower, stacked on a new
        leading axis: entry [i, ...] is the i-th coordinate partial of
        entry [...]. The value comes from the gradient and the gradient from
        the Hessian row, so differentiating consumes exactly one order."""
        if self.top < 1:
            raise ValueError("partial derivative needs a jet of order >= 1")
        # The derivative axis, after the tensor axes, moved to the front.
        s = self.value.ndim
        axes = (s, *range(s))
        return JetArray(
            self.dim,
            self.grad.transpose(axes),
            None if self.hess is None else self.hess.transpose(axes + (s + 1,)),
            None,
        )


# The name of the class where it holds a single jet: Jet.constant(v, dim)
# and Jet.coordinate(p, i, order) build one.
Jet = JetArray


def concatenate(items) -> JetArray:
    """JetArrays joined along their leading axis, at the lowest top order
    among them: every item is cut to that order."""
    k = min(x.top for x in items)
    return JetArray(
        items[0].dim,
        np.concatenate([x.value for x in items]),
        np.concatenate([x.grad for x in items]) if k >= 1 else None,
        np.concatenate([x.hess for x in items]) if k >= 2 else None,
    )


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
    the bits depend on the operands' values and shapes only. E must be
    nonempty.
    """
    sa, sb = a.value.shape, b.value.shape
    if not sa or len(sa) != len(sb) or sa[0] != sb[0] or not sa[0]:
        raise ValueError(f"shapes {sa}, {sb}: not one rank with a shared leading axis")
    ag, ah, bg, bh = a.grad, a.hess, b.grad, b.hess
    k = 0 if ag is None or bg is None else 1 if ah is None or bh is None else 2
    c = np.ascontiguousarray
    av, bv = c(a.value), c(b.value)
    value = np.add.accumulate(av * bv, axis=0)[-1] + 0.0
    grad = hess = None
    if k >= 1:
        ag, bg = c(ag), c(bg)
        grad = np.einsum("e...i,e...->...i", ag, bv)
        grad += np.einsum("e...,e...i->...i", av, bg)
    if k >= 2:
        cross = np.einsum("e...i,e...j->...ij", ag, bg)
        hess = np.einsum("e...ij,e...->...ij", c(ah), bv)
        hess += np.einsum("e...,e...ij->...ij", av, c(bh))
        hess += cross + _tr(cross)
    return JetArray(a.dim, value, grad, hess)


class Tape:
    """Expressions compiled to one straight-line program over jets.

    Every distinct subexpression gets one slot, keyed on its node kind and
    its child slots (literals on float.hex, so 0.0 and -0.0 stay apart),
    and is evaluated once per call however often the trees repeat it.
    Compiling is one loop over expressions._postorder of the trees, so it
    takes time linear in the number of distinct node objects, at any
    depth. Slots run in the post-order of their first appearance across
    the expressions, the order a walk of each tree in turn visits them,
    and every slot applies to single jets the rule that walk would; so
    each output has the bits of evaluating its tree alone, and the first
    domain error names the subexpression that walk would. A tape keeps
    nothing between calls but its compiled slots.
    """

    def __init__(self, exprs):
        self.code: list[tuple] = []
        self.nodes: list[Expr] = []
        # The coordinate of highest index the expressions read, if any.
        self.widest: Coord | None = None
        slots: dict[tuple, int] = {}
        slot_of: dict[int, int] = {}  # node id -> slot
        for node in _postorder(exprs):
            kind = type(node)
            if kind is Binary:
                key = ins = (node.op, slot_of[id(node.lhs)], slot_of[id(node.rhs)])
            elif kind is Lit:
                v = float(node.value)
                key, ins = ("lit", v.hex()), ("lit", v, None)
            elif kind is Coord:
                key, ins = ("coord", node.index, node.name), ("coord", node.index, None)
                if self.widest is None or node.index > self.widest.index:
                    self.widest = node
            elif kind is Pow:
                key = ins = ("pow", slot_of[id(node.base)], node.exponent)
            else:
                key = ins = (node.op, slot_of[id(node.arg)], None)
            s = slots.get(key)
            if s is None:
                s = slots[key] = len(self.code)
                self.code.append(ins)
                self.nodes.append(node)
            slot_of[id(node)] = s
        self.outputs = [slot_of[id(e)] for e in exprs]

    def eval(self, p, order: int) -> JetArray:
        """The outputs at p as one JetArray (K,) of jets of the requested
        order, in the order of the expressions.

        Every slot is a single jet of that order, held as its raw parts
        (value, grad, hess), the value a Python float, and runs the rule a
        0-d JetArray of its operands would run. Domain violations
        (division by zero, sqrt of a negative, a result beyond the float
        range) raise ExprDomainError naming the offending subexpression;
        an output whose value, gradient or Hessian is not finite raises it
        naming the first such output. A point too short for a coordinate
        the expressions read raises ValueError.
        """
        d = len(p)
        if self.widest is not None and self.widest.index >= d:
            raise ValueError(
                f"the expressions read coordinate {self.widest.name!r} "
                f"(index {self.widest.index}), but the point has {d} coordinates"
            )
        # No rule writes to its operands, so the slots of a call share
        # their zero parts.
        units = np.eye(d) if order >= 1 else [None] * d
        zero_g = np.zeros(d) if order >= 1 else None
        zero_h = np.zeros((d, d)) if order >= 2 else None
        k = order
        # Looked up on every call, so a patched product rule sees the
        # tape's products too.
        binary = {"*": _mul_rule, "+": _add_rule, "-": _sub_rule, "/": _div_rule}
        vals: list[tuple] = []
        push = vals.append
        i = 0
        try:
            # Non-finite results are caught at the outputs, below.
            with np.errstate(over="ignore", invalid="ignore"):
                for i, (op, a, b) in enumerate(self.code):
                    rule = binary.get(op)
                    if rule is not None:
                        push(rule(k, *vals[a], *vals[b]))
                    elif op == "lit":
                        push((a, zero_g, zero_h))
                    elif op == "coord":
                        push((float(p[a]), units[a], zero_h))
                    elif op == "neg":
                        push(_neg_rule(k, *vals[a]))
                    elif op == "pow":
                        v, g, h = vals[a]
                        _check_powi(v, b)
                        push(_chain_rule(k, *_elementary(_powi(b, k), v), g, h))
                    elif op == "sqrt":
                        push(_sqrt_rule(k, *vals[a]))
                    else:
                        v, g, h = vals[a]
                        push(_chain_rule(k, *_elementary(_ELEMENTARY[op], v), g, h))
        except ExprDomainError as exc:
            # The rule's message, placed at the subexpression of slot i.
            raise ExprDomainError(exc.message, pretty(self.nodes[i])) from None
        out = [vals[s] for s in self.outputs]
        n = len(out)
        res = JetArray(
            d,
            np.array([v for v, _, _ in out], dtype=float),
            np.array([g for _, g, _ in out]).reshape(n, d) if order >= 1 else None,
            np.array([h for _, _, h in out]).reshape(n, d, d) if order >= 2 else None,
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
    order = min(A.top, b.top)
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
    )


def jet_cholesky(G: JetArray) -> JetArray:
    """The lower-triangular Cholesky factor L of a symmetric positive
    definite JetArray G (m, m), at G's order (S. P. Smith 1995;
    I. Murray, arXiv:1602.07527):

        L = cholesky(G0),  dL = L0 Phi(L0^-1 dG L0^-T),
        d2L = L0 Phi(L0^-1 (d2G - (C + C^T)) L0^-T),  C = dL dL^T,

    Phi keeping the lower triangle and halving the diagonal, C^T swapping
    C's two derivative axes. The products are einsum sums on contiguous
    copies, so the bits do not depend on BLAS. G0 must be positive
    definite; np.linalg.cholesky raises LinAlgError otherwise.
    """
    c = np.ascontiguousarray
    L0 = np.linalg.cholesky(G.value)
    Linv = c(np.linalg.inv(L0))
    phi = np.tril(np.ones(L0.shape))
    np.fill_diagonal(phi, 0.5)

    def lift(S):  # L0 Phi(L0^-1 S L0^-T), one matrix per trailing index
        P = np.einsum("ik...,lk->il...", np.einsum("ij,jk...->ik...", Linv, c(S)), Linv)
        return np.einsum("ij,jk...->ik...", L0, P * phi[(...,) + (None,) * (S.ndim - 2)])

    Lg = lift(G.grad) if G.top >= 1 else None
    Lh = None
    if G.top >= 2:
        cross = np.einsum("ikp,jkq->ijpq", Lg, Lg)
        Lh = lift(G.hess - (cross + _tr(cross)))
    return JetArray(G.dim, L0, Lg, Lh)
