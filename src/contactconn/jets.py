"""Second-order forward-mode jets and the jet-valued linear solve.

A Jet carries the value, gradient and Hessian of a scalar quantity at a
point of a d-dimensional chart. Every derivative in this package flows
through these exact propagation rules; finite differences appear only in
test oracles.

Design notes. The Hessian is stored as a full (d, d) array but every rule
below assembles it from symmetric pieces (outer products are written as
``outer(a, b) + outer(b, a)``), so ``hess == hess.T`` holds to exact float
equality, which tests assert. Mixed-order operands coerce to the minimum
order; plain numbers lift to constant jets of the partner's shape.
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


@dataclass(frozen=True, eq=False)
class Jet:
    """Value plus derivatives of a scalar at a chart point.

    order 0: value only. order 1: adds grad (d,). order 2: adds hess (d, d),
    exactly symmetric.

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

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        return Jet(
            a.dim,
            a.order,
            a.value + b.value,
            None if a.order < 1 else a.grad + b.grad,
            None if a.order < 2 else a.hess + b.hess,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.dim,
            self.order,
            -self.value,
            None if self.order < 1 else -self.grad,
            None if self.order < 2 else -self.hess,
        )

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        g = h = None
        if a.order >= 1:
            g = a.grad * b.value + b.grad * a.value
        if a.order >= 2:
            cross = np.outer(a.grad, b.grad)
            h = a.hess * b.value + b.hess * a.value + cross + cross.T
        return Jet(a.dim, a.order, a.value * b.value, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if a is NotImplemented:
            return NotImplemented
        if b.value == 0.0:
            raise ExprDomainError("division by zero", "<jet quotient>")
        q = a.value / b.value
        g = h = None
        if a.order >= 1:
            g = (a.grad - q * b.grad) / b.value
        if a.order >= 2:
            cross = np.outer(g, b.grad)
            h = (a.hess - q * b.hess - cross - cross.T) / b.value
        return Jet(a.dim, a.order, q, g, h)

    def __rtruediv__(self, other):
        lifted = Jet.constant(other, self.dim, self.order)
        return lifted / self

    # -- elementary functions -----------------------------------------------

    def sqrt(self) -> "Jet":
        if self.value < 0.0:
            raise ExprDomainError("sqrt of negative value", "<jet sqrt>")
        if self.value == 0.0 and self.order >= 1:
            raise ExprDomainError("sqrt not differentiable at zero", "<jet sqrt>")
        s = math.sqrt(self.value)
        g = h = None
        if self.order >= 1:
            g = self.grad / (2.0 * s)
        if self.order >= 2:
            h = (self.hess - 2.0 * np.outer(g, g)) / (2.0 * s)
        return Jet(self.dim, self.order, s, g, h)

    def _chain(self, f: float, df: float, d2f: float) -> "Jet":
        g = h = None
        if self.order >= 1:
            g = df * self.grad
        if self.order >= 2:
            h = df * self.hess + d2f * np.outer(self.grad, self.grad)
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

    # -- directional pieces used by frame calculus --------------------------

    def directional(self, direction: np.ndarray) -> float:
        """First derivative along a coordinate direction (values)."""
        return float(self.grad @ direction)

    def partial(self, i: int) -> "Jet":
        """The i-th coordinate partial, one order lower.

        The value comes from the gradient and the gradient from the Hessian
        row, so differentiating consumes exactly one order of accuracy.
        """
        if self.order < 1:
            raise ValueError("partial derivative needs a jet of order >= 1")
        g = None if self.order < 2 else np.array(self.hess[i])
        return Jet(self.dim, self.order - 1, float(self.grad[i]), g, None)


def eval_jet(e: Expr, p, order: int) -> Jet:
    """Evaluate an expression tree to a jet of the requested order at p.

    Domain violations (division by zero, sqrt of a negative) raise
    ExprDomainError naming the offending subexpression.
    """
    d = len(p)

    def go(node: Expr) -> Jet:
        match node:
            case Lit(v):
                return Jet.constant(v, d, order)
            case Coord(i, _):
                return Jet.coordinate(p, i, order)
            case Unary("neg", a):
                return -go(a)
            case Unary(op, a):
                ja = go(a)
                try:
                    return getattr(ja, op)()
                except ExprDomainError as exc:
                    raise ExprDomainError(str(exc).split(" in ")[0], pretty(node)) from None
            case Binary(op, a, b):
                ja, jb = go(a), go(b)
                if op == "+":
                    return ja + jb
                if op == "-":
                    return ja - jb
                if op == "*":
                    return ja * jb
                if jb.value == 0.0:
                    raise ExprDomainError("division by zero", pretty(node))
                return ja / jb
            case Pow(a, k):
                ja = go(a)
                try:
                    return ja.powi(k)
                except ExprDomainError:
                    raise ExprDomainError(
                        "zero raised to a negative power", pretty(node)
                    ) from None
        raise TypeError(f"not an Expr: {node!r}")

    return go(e)


def _as_value_matrix(rows) -> np.ndarray:
    return np.array([[entry.value for entry in row] for row in rows], dtype=float)


def sum_jets(terms):
    """Left-to-right sum of a nonempty iterable of jets."""
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def jet_linear_solve(A, b) -> list[Jet]:
    """Solve A x = b where A and b hold Jets, propagating derivatives.

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
    rows = [list(r) for r in A]
    rhs = list(b)
    m = len(rhs)
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValueError("A must be square and match b")
    entries = [e for r in rows for e in r] + rhs
    order = min(e.order for e in entries)
    dim = entries[0].dim

    A0 = _as_value_matrix(rows)
    b0 = np.array([e.value for e in rhs], dtype=float)
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
        Ag = np.array([[e.grad for e in r] for r in rows])  # (m, m, d)
        bg = np.array([e.grad for e in rhs])  # (m, d)
        rhs_g = bg - np.einsum("ijk,j->ik", Ag, x0)
        xg = np.linalg.solve(A0, rhs_g)  # (m, d)
    if order >= 2:
        Ah = np.array([[e.hess for e in r] for r in rows])  # (m, m, d, d)
        bh = np.array([e.hess for e in rhs])  # (m, d, d)
        rhs_h = bh - np.einsum("ijkl,j->ikl", Ah, x0)
        cross = np.einsum("ijk,jl->ikl", Ag, xg)
        rhs_h = rhs_h - cross - np.transpose(cross, (0, 2, 1))
        xh = np.linalg.solve(A0, rhs_h.reshape(m, -1)).reshape(m, dim, dim)

    out = []
    for i in range(m):
        out.append(
            Jet(
                dim,
                order,
                float(x0[i]),
                None if order < 1 else xg[i],
                None if order < 2 else xh[i],
            )
        )
    return out
