"""Pointwise contact geometry: contact test, normalization, Reeb field,
adapted orthonormal frames, and the spectral classification of the
nondegenerate 2-form on the hyperplane distribution.

Conventions fixed here and relied on everywhere downstream:

- The hyperplane distribution is H = ker theta. The metric g is only ever
  contracted with H-tangent arguments, so a degenerate coordinate matrix
  (as in the model structures) is fine as long as g restricted to H is
  positive definite; this is checked, not assumed.
- The normalized form is theta_hat = mu * theta with mu > 0 chosen so that
  the squared g-norm of d(theta_hat) restricted to H, the sum of its
  squares on all ordered pairs of a g-orthonormal frame of H, equals 2n.
  The sign of theta_hat follows the input theta.
- Frames are built by projecting coordinate vectors onto H and
  orthonormalizing them with g, all in jet arithmetic: Gram-Schmidt of
  the projected basis B is X = L^-1 B, L the Cholesky factor of g(B, B),
  with no per-row loop. The projection sends v to
  v - (theta(v)/theta_m) d_m where d_m is the coordinate direction with
  the largest |theta| component, the same for theta_hat = mu theta: this
  keeps the full jet order of theta (projecting along the Reeb field
  instead would cap every frame vector at the Reeb field's lower order)
  and agrees with the Reeb projection whenever the Reeb field is
  parallel to d_m, which covers the model structures.
- In dimension 3 the frame is oriented so d(theta_hat)(X1, X2) = +1.
- Form and vector values (theta, dtheta, theta_hat, T) are the JetArrays
  of their components, laid out as forms.py describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    AllPointsSkippedError,
    DegenerateMetricError,
    ExprDomainError,
    LinearSolveResidualError,
    NotContactError,
    SingularMatrixError,
)
from .expressions import Expr, pretty
from .forms import FormField, d_from_jets, evaluate_forms, full_tensor, pair, pair_table, wedge
from .jets import JetArray, Tape, concatenate, contract, jet_cholesky, jet_linear_solve

CONTACT_REL_TOL = 1e-10

# Jet order of every chart-level evaluation; AdaptedFrame's order budget
# assumes it.
ORDER = 2


@dataclass(frozen=True, eq=False)
class ContactStructure:
    """Chart-level input data: coordinates, contact form and metric.

    g is a dim x dim symmetric matrix of expressions; only its restriction
    to H is ever used. A structure equals only itself: a chart's identity
    is its text (_chart_text), which _check_origin compares, since a
    field-by-field == would recurse over the expression trees.
    """

    coords: tuple[str, ...]
    theta: FormField
    g: tuple[tuple[Expr, ...], ...]

    def __post_init__(self):
        d = len(self.coords)
        if d < 3 or d % 2 == 0:
            raise ValueError(f"dimension must be odd and >= 3, got {d}")
        if self.theta.dim != d or self.theta.degree != 1:
            raise ValueError("theta must be a 1-form in the chart dimension")
        if len(self.g) != d or any(len(row) != d for row in self.g):
            raise ValueError("g must be a dim x dim matrix")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def n(self) -> int:
        return self.dim // 2

    @cached_property
    def dtheta(self) -> FormField:
        """d(theta), differentiated structurally once per structure."""
        return self.theta.d()

    @cached_property
    def input_tape(self) -> Tape:
        """theta's components, dtheta's components and g's entries, in that
        order, compiled once per structure into one tape."""
        g = tuple(e for row in self.g for e in row)
        return Tape(self.theta.components + self.dtheta.components + g)

    def inputs_at(self, p) -> "PointInputs":
        """theta, dtheta and g at p as order-ORDER jets, one evaluation of
        the input tape. Raises ExprDomainError where an input cannot be
        evaluated to that order, ValueError for a point that does not
        have one coordinate per chart coordinate."""
        d = self.dim
        if len(p) != d:
            raise ValueError(f"point has {len(p)} coordinates, the chart has {d}")
        out = self.input_tape.eval(p, ORDER)
        return PointInputs(self, _point(p), out[:d], out[d : -d * d], out[-d * d :].reshape(d, d))


def _point(p) -> tuple[float, ...]:
    """p as a tuple of floats, the form every recorded point takes."""
    return tuple(float(x) for x in p)


@dataclass(frozen=True)
class PointInputs:
    """The inputs of the chart cs at the point p as order-ORDER jets: the
    form values theta (dim,) and dtheta (K,) and the metric G (dim, dim).
    Built once per point by ContactStructure.inputs_at, which records the
    structure it ran on and p as floats, and passed as inputs= to
    everything that reads them, or read off the frame built from them
    (AdaptedFrame.inputs); a reader needing a lower order restricts the
    jets, which is exact (value and gradient rules read no higher part)."""

    cs: ContactStructure
    p: tuple[float, ...]
    theta: JetArray
    dtheta: JetArray
    G: JetArray


def _chart_text(cs: ContactStructure) -> str:
    """The chart's coordinates, theta and g (row by row) as text."""
    theta = ", ".join(map(pretty, cs.theta.components))
    g = "; ".join(", ".join(map(pretty, row)) for row in cs.g)
    return f"coordinates ({', '.join(cs.coords)}), theta ({theta}), g ({g})"


def _check_origin(inputs: PointInputs, cs: ContactStructure, p, what: str) -> None:
    """Raise ValueError naming both charts or both points unless inputs
    were evaluated on cs at p. Two structures are one chart when their
    texts agree, which is compared only when inputs.cs is not cs: the
    chart memo gives every build of a chart text one object while it
    keeps it."""
    if inputs.cs is not cs:
        given, own = _chart_text(inputs.cs), _chart_text(cs)
        if given != own:
            raise ValueError(f"{what} on the chart with {given}, not on the chart with {own}")
    if inputs.p != _point(p):
        raise ValueError(f"{what} at {inputs.p}, not at the point {_point(p)}")


def _inputs_at(cs: ContactStructure, p, inputs: PointInputs | None) -> PointInputs:
    """inputs, checked to be evaluated on cs at p, or the structure's
    inputs at p when they are None."""
    if inputs is None:
        return cs.inputs_at(p)
    _check_origin(inputs, cs, p, "inputs were evaluated")
    return inputs


def max_abs(values: np.ndarray) -> float:
    """The largest absolute entry, at least 0.0, as a Python float: the
    one reduction every scale and residual goes through."""
    return max([0.0] + np.abs(values).ravel().tolist())


@dataclass(frozen=True)
class ContactCheck:
    passed: bool
    coefficient: float
    scale: float


def check_contact(cs: ContactStructure, p, inputs: PointInputs | None = None) -> ContactCheck:
    """Evaluate the top form theta ^ (dtheta)^n at p.

    Passes when the top coefficient exceeds a relative threshold built
    from the sup norms of theta's and dtheta's components, so the verdict
    is invariant under rescaling theta as long as the coefficient and the
    scale stay finite. Rescaling theta by s scales both by s^(n+1), so a
    large enough theta overflows them to inf and fails every point; ROADMAP
    item 3 (verdicts that do not depend on units) tracks that limit.
    inputs, when given, are the structure's inputs at p, and ValueError
    names both charts or both points for inputs evaluated elsewhere;
    otherwise they are evaluated here.
    """
    inputs = _inputs_at(cs, p, inputs)
    t = inputs.theta.restrict(0)
    dt = inputs.dtheta.restrict(0)
    top = t
    for r in range(cs.n):
        top = wedge(top, 1 + 2 * r, dt, 2)
    (coefficient,) = top.value.tolist()
    scale = max_abs(t.value) * max_abs(dt.value) ** cs.n
    return ContactCheck(abs(coefficient) > CONTACT_REL_TOL * scale, coefficient, scale)


def _reeb_from_values(theta: JetArray, dt: JetArray) -> JetArray:
    """Solve the square system whose unique solution is the Reeb field.

    theta holds the 1-form's components (dim,), dt the 2-form's (K,).
    Row j reads sum_i [dt(d_i, d_j) + theta_j theta_i] T^i = theta_j, dt's
    matrix its forms.full_tensor. Any solution satisfies
    theta(T) = 1 and T . dtheta = 0, and the matrix is invertible exactly
    at contact points. The solution has the lower order of theta and dt:
    order 1 for the frame's theta_hat and dtheta_hat.
    """
    A = full_tensor(dt, 2).transpose(1, 0) + theta[:, None] * theta[None, :]
    try:
        sol = jet_linear_solve(A, theta)
    except SingularMatrixError:
        raise NotContactError(
            "Reeb system is singular: the form is not contact at this point"
        ) from None
    return sol


def _project_onto_h(theta: JetArray, m: int) -> JetArray:
    """The projection onto H along d_m, (dim, dim) at theta's order: row
    i holds P(d_i) = d_i - (theta_i / theta_m) d_m, so row m vanishes.
    Only the ratios of theta's components enter, and theta_hat = mu theta
    has the same ones."""
    d = theta.dim
    r = np.arange(d)
    P = JetArray.constant(0.0, d, (d, d), theta.top)
    P[r, r] = 1.0
    P[r, m] = P[r, m] - theta / theta[m]
    return P


def _metric_pairs(G: JetArray, U: JetArray, V: JetArray) -> JetArray:
    """g(U_u, V_v) for every pair of rows of the vector stacks U and V:
    sum_j (sum_i g_ij U_u^i) V_v^j, two pairings."""
    return pair(pair(G, 0, U), 0, V)


def _normalization_factor(omega: JetArray) -> JetArray:
    """mu = sqrt(2n / |Omega_X|^2) as a 0-d array, where Omega_X =
    dtheta(X, X) on a g-orthonormal frame X of H and |Omega_X|^2 sums its
    squares over all ordered pairs: the squared g-norm of dtheta
    restricted to H."""
    m = len(omega)
    norm2 = contract(omega.reshape(m * m), omega.reshape(m * m))
    if norm2.value <= 0.0:
        raise NotContactError("dtheta vanishes on the distribution at this point")
    return (float(m) / norm2).sqrt()


@dataclass(frozen=True)
class AdaptedFrame:
    """Everything frame-shaped at one point, jet-valued, with the inputs
    it was built from: inputs.cs is its chart and inputs.p (also frame.p)
    its point, and rotate_frame keeps both.

    The scalar mu is a single jet (a 0-d JetArray); everything else is a
    JetArray too: the form value theta_hat (dim,) and its exterior
    derivative dtheta_hat (K,), on the K increasing coordinate pairs; the
    Reeb vector T (dim,); the frame vectors X (2n, dim), one per row; the
    coframe H-parts f (2n, dim), one 1-form per row, and their Reeb
    coefficients c (2n,); the matrix Omega (2n, 2n) of d(theta_hat) on
    frame pairs. df, D and d_pairs are derived from these on first read,
    so a frame with a replaced coframe derives them afresh.

    Jet orders, each the one its readers read: mu, X and f carry order 2,
    since the gradient of the structure values D needs them (D
    differentiates f, which pairs g with X, and its c comes from T and
    dtheta_hat, which differentiates mu); theta_hat, dtheta_hat, T, c,
    Omega, df and D carry order 1, theta_hat and Omega (which avoids
    dtheta_hat via the exact identity d(mu theta)(X, Y) = mu dtheta(X, Y)
    on H-vectors) built from mu cut to order 1. A stack has the lowest
    order of its parts: frame_array and coframe_array order 1, d_pairs
    order 0, as
    tests/test_connection.py::TestValueRoute::test_library_orders_are_kept
    pins. A suite run reads all of these at order <= 1.

    The dual coframe element e^b is f[b] + c[b] * theta_hat; the split is
    kept because the H-part alone retains order 2.
    """

    inputs: PointInputs
    mu: JetArray
    theta_hat: JetArray
    dtheta_hat: JetArray
    T: JetArray
    X: JetArray
    f: JetArray
    c: JetArray
    Omega: JetArray

    @property
    def p(self) -> tuple[float, ...]:
        return self.inputs.p

    @property
    def dim(self) -> int:
        return self.T.dim

    @property
    def n(self) -> int:
        return self.dim // 2

    @cached_property
    def coframe_array(self) -> JetArray:
        """Components of the full coframe (theta_hat, e^1, ..., e^2n), one
        1-form per row: shape (2n+1, dim)."""
        th = self.theta_hat
        return concatenate([th[None], self.f + th[None, :] * self.c[:, None]])

    @cached_property
    def frame_array(self) -> JetArray:
        """The full frame (T, X_1, ..., X_2n), one vector per row."""
        return concatenate([self.T[None], self.X])

    def express(self, a: JetArray) -> JetArray:
        """Coframe components of a 1-form value (dim,) by frame pairing:
        [a(T), a(X_1), ..., a(X_2n)]."""
        return evaluate_forms(a, self.frame_array)

    def express_vector(self, v: JetArray) -> JetArray:
        """Frame components of a vector value (dim,) by coframe pairing:
        [theta_hat(v), e^1(v), ..., e^2n(v)]."""
        return self.pair_coframe(v[None])[:, 0]

    def pair_coframe(self, vectors: JetArray) -> JetArray:
        """Every coframe element on every vector of a (k, dim) stack:
        entry [A, j] is sigma^A(vectors[j])."""
        return evaluate_forms(self.coframe_array, vectors)

    @cached_property
    def df(self) -> JetArray:
        """d(f^b) for every coframe H-part, (2n, K)."""
        return d_from_jets(self.f, 1)

    @cached_property
    def D(self) -> JetArray:
        """Structure values D[b, a, c] = d(e^b)(X_a, X_c), (2n, 2n, 2n):
        d(f^b)(X_a, X_c) + c^b Omega_ac, the dc ^ theta_hat piece vanishing
        on H-pairs since theta_hat(X) = 0."""
        return evaluate_forms(self.df, self.X, self.X) + self.c[:, None, None] * self.Omega

    @cached_property
    def d_pairs(self) -> JetArray:
        """d(theta_hat) and every d(e^b) on all frame pairs, stacked:
        entry [0, P, Q] pairs the P-th and Q-th frame vectors, index 0 the
        Reeb direction, in d(theta_hat), entry [b + 1, P, Q] in d(e^b):
        the forms.full_tensor of each form's values on the pairs (T, X_a),
        then on the H pairs. Reeb-H entries of d(theta_hat) are
        residual-level zeros by the defining property of the Reeb field,
        those of d(e^b) are d(f + c theta_hat) at order 0; H-H entries are
        Omega and the order-1 structure values D.
        """
        m = 2 * self.n
        # d(theta_hat), every d(f^b) and every dc^b ^ theta_hat on (T, X_a),
        # one pairing; the order-0 dc ^ theta_hat rows keep their order.
        dc_th = wedge(self.c.partials().transpose(1, 0), 1, self.theta_hat, 1)
        forms = concatenate([self.dtheta_hat[None], self.df, dc_th])
        on_TX = evaluate_forms(forms, self.T[None], self.X)[:, 0]
        dth = on_TX[0]
        de = on_TX[1 : m + 1] + on_TX[m + 1 :] + dth[None, :] * self.c[:, None]
        u, v = pair_table(m)
        on_T = concatenate([dth[None], de])
        on_H = concatenate([self.Omega[u, v][None], self.D[:, u, v]])
        on_pairs = concatenate([on_T.transpose(1, 0), on_H.transpose(1, 0)]).transpose(1, 0)
        return full_tensor(on_pairs, 2)


def adapted_frame(cs: ContactStructure, p, inputs: PointInputs | None = None) -> AdaptedFrame:
    """Build the adapted orthonormal frame and dual coframe at p, from
    the most transversal split of the coordinate directions. Any other
    adapted frame is rotate_frame of this one. inputs, when given, are
    the structure's inputs at p (ValueError names both charts or points
    for inputs evaluated elsewhere); otherwise they are evaluated here.
    """
    d = cs.dim
    n = cs.n
    inputs = _inputs_at(cs, p, inputs)
    theta, G = inputs.theta, inputs.G
    # Project into H, along coordinate direction m, the 2n directions
    # with the smallest |theta| components (the largest transversality
    # margin for m), ties broken by index, kept in index order.
    ranked = sorted(range(d), key=lambda i: (abs(theta.value[i]), i))
    kept, m = sorted(ranked[:-1]), ranked[-1]

    # Gram-Schmidt of the H-projected coordinate basis (one vector per
    # row) with g is X = L^-1 basis, L the Cholesky factor of its Gram
    # matrix. The basis already lies in ker theta = ker theta_hat.
    P = _project_onto_h(theta, m)
    basis = P[kept]
    gram = _metric_pairs(G, basis, basis)
    eigs = np.linalg.eigvalsh(gram.value)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateMetricError(
            "metric restricted to the contact distribution is not positive definite"
        )
    X = jet_linear_solve(jet_cholesky(gram), basis)

    # mu from dtheta on the orthonormal frame. Only d(theta_hat) reads a
    # derivative of mu, so everything else is built from mu at order 1.
    omega = evaluate_forms(inputs.dtheta, X, X)
    mu = _normalization_factor(omega)
    mu1 = mu.restrict(1)
    theta_hat = mu1 * theta

    # d(theta_hat) = dmu ^ theta + mu dtheta, one order below mu.
    dtheta_hat = wedge(d_from_jets(mu.reshape(1), 0), 1, theta, 1) + inputs.dtheta * mu1

    T = _reeb_from_values(theta_hat, dtheta_hat)

    # Exact on H-vectors: the dmu ^ theta part dies against theta(X)=0.
    Omega = omega * mu1
    if n == 1 and Omega.value[0, 1] < 0.0:
        swap = [1, 0]
        X = X[swap]
        Omega = Omega[swap][:, swap]

    # Dual coframe split e^b = f^b + c^b theta_hat: the H-part pairs with
    # g against X_b, the Reeb coefficient kills the value on T. H and its
    # projection are the same for theta and theta_hat.
    F = _metric_pairs(G, X, P)
    C = -evaluate_forms(F, T[None])[:, 0] / evaluate_forms(theta_hat, T[None])[0]

    return AdaptedFrame(
        inputs=inputs,
        mu=mu,
        theta_hat=theta_hat,
        dtheta_hat=dtheta_hat,
        T=T,
        X=X,
        f=F,
        c=C,
        Omega=Omega,
    )


def _frame_at(cs: ContactStructure, p, frame: AdaptedFrame | None) -> AdaptedFrame:
    """frame, checked to be built on cs at p, or the adapted frame at p
    when it is None."""
    if frame is None:
        return adapted_frame(cs, p)
    _check_origin(frame.inputs, cs, p, "the frame was built")
    return frame


def _turn(rows: JetArray, Q: JetArray) -> JetArray:
    """Q times the stack rows, whatever the shape of one row: row b is
    sum_k Q[b, k] rows[k], one contract over k."""
    tail = (None,) * (len(rows.shape) - 1)
    return contract(Q.transpose(1, 0)[(slice(None),) * 2 + tail], rows[:, None])


def rotate_frame(frame: AdaptedFrame, Q: JetArray) -> AdaptedFrame:
    """The adapted frame changed by an orthogonal jet matrix Q (2n, 2n):
    X, the coframe H-parts f and the Reeb coefficients c become Q X, Q f
    and Q c (an orthogonal change is its own dual), Omega becomes
    Q Omega Q^T, and mu, theta_hat, dtheta_hat and T are kept. In
    dimension 3 Q Omega Q^T = det(Q) Omega, so Omega is kept and Q must
    be a rotation, which keeps the orientation. Raises ValueError naming
    the problem for a Q of the wrong shape or chart dimension, of an order
    below the frame's X (order 2 as built, which the structure values
    differentiate), with a part of Q Q^T - I over 1e-12 times the terms
    that cancel in it (1, |Q'|, |Q'|^2 + |Q''|), or with det Q < 0 in
    dimension 3.
    """
    m = 2 * frame.n
    if Q.shape != (m, m):
        raise ValueError(f"Q must be a ({m}, {m}) matrix, got shape {Q.shape}")
    if Q.dim != frame.dim:
        raise ValueError(f"Q holds jets in dimension {Q.dim}, the frame in dimension {frame.dim}")
    if Q.top < frame.X.top:
        raise ValueError(f"Q has jet order {Q.top}, below the frame's order {frame.X.top}")
    Qt = Q.transpose(1, 0)
    QQt = contract(Qt[:, :, None], Qt[:, None, :])  # [a, b] = sum_k Q_ak Q_bk
    checks = [(0, QQt.value - np.eye(m), 1.0)]
    if Q.top >= 1:
        dQ = max_abs(Q.grad)
        checks.append((1, QQt.grad, dQ))
    if Q.top >= 2:
        checks.append((2, QQt.hess, dQ**2 + max_abs(Q.hess)))
    for k, part, scale in checks:
        gap = max_abs(part)
        if not gap <= 1e-12 * scale:
            raise ValueError(
                f"Q is not orthogonal: the order-{k} part of Q Q^T - I is {gap:.3e}, "
                f"against terms of size {scale:.3e}"
            )
    Omega = frame.Omega
    if m == 2:
        (q00, q01), (q10, q11) = Q.value
        if not q00 * q11 - q01 * q10 > 0.0:
            raise ValueError("Q must be a rotation in dimension 3, got det Q < 0")
    else:
        Omega = _turn(_turn(Omega, Q).transpose(1, 0), Q).transpose(1, 0)
    X, f, c = (_turn(rows, Q) for rows in (frame.X, frame.f, frame.c))
    return replace(frame, X=X, f=f, c=c, Omega=Omega)


def lambda_spectrum(frame: AdaptedFrame) -> tuple[float, ...]:
    """Invariants lambda_1 >= ... >= lambda_n > 0 of the normalized
    2-form against g; their squares sum to n. They are its singular
    values in a g-orthonormal frame, which come in equal pairs."""
    s = np.linalg.svd(frame.Omega.value, compute_uv=False)
    return tuple(float(v) for v in s[0::2][: frame.n])


# The errors that make a sample point unusable; screening skips the point
# with the error's message as its reason.
SKIP_ERRORS = (
    ExprDomainError,
    NotContactError,
    DegenerateMetricError,
    SingularMatrixError,
    LinearSolveResidualError,
)


def screen_point(cs: ContactStructure, p) -> AdaptedFrame:
    """The adapted frame at a usable point p, which carries the point's
    inputs: they evaluate, the contact check passes and the frame builds,
    in that order. Otherwise raises one of SKIP_ERRORS naming the reason:
    ExprDomainError for inputs that cannot be evaluated, NotContactError
    "contact condition fails" for a failed check, the frame's own error
    for a frame that cannot be built."""
    inputs = cs.inputs_at(p)
    if not check_contact(cs, p, inputs).passed:
        raise NotContactError("contact condition fails")
    return adapted_frame(cs, p, inputs=inputs)


def classify(cs: ContactStructure, points) -> dict:
    """Per-structure classification over sample points.

    Returns the flags contact and cr_compatible (every invariant equals 1
    within 1e-8 at every point) and the spectrum summary. Points that
    screening rejects are counted as skipped; one that is not contact
    clears the contact flag. Raises AllPointsSkippedError, naming the skip
    reasons, when no point is usable, rather than classifying vacuously.
    """
    points = list(points)
    contact_ok = True
    cr = True
    spectra = []
    reasons = []
    for p in points:
        try:
            frame = screen_point(cs, p)
        except SKIP_ERRORS as exc:
            if isinstance(exc, NotContactError):
                contact_ok = False
            reasons.append(str(exc))
            continue
        lam = np.array(lambda_spectrum(frame))
        spectra.append(lam)
        if max_abs(lam - 1.0) >= 1e-8:
            cr = False
    if not spectra:
        raise AllPointsSkippedError(f"none of the {len(points)} points is usable", reasons)
    arr = np.array(spectra)
    stats = {
        "count": len(points),
        "skipped": len(points) - len(spectra),
        "lambda_min": [float(v) for v in arr.min(axis=0)],
        "lambda_max": [float(v) for v in arr.max(axis=0)],
        "lambda_mean": [float(v) for v in arr.mean(axis=0)],
    }
    return {
        "contact": contact_ok,
        "spectrum": stats,
        "cr_compatible": cr and contact_ok,
    }
