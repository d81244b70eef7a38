"""Pointwise contact geometry: contact test, normalization, Reeb field,
adapted orthonormal frames, and the spectral classification of the
nondegenerate 2-form on the hyperplane distribution.

Conventions fixed here and relied on everywhere downstream:

- The hyperplane distribution is H = ker theta. The metric g is only ever
  contracted with H-tangent arguments, so a degenerate coordinate matrix
  (as in the model structures) is fine as long as g restricted to H is
  positive definite; this is checked, not assumed.
- The normalized form is theta_hat = mu * theta with mu > 0 chosen so that
  the squared g-norm of d(theta_hat) restricted to H equals 2n, where the
  norm contracts both index pairs with the inverse of the H-restricted
  Gram matrix and runs over all ordered index pairs. The sign of
  theta_hat follows the input theta.
- Frames are built by projecting coordinate vectors onto H and running
  Gram-Schmidt with g, all in jet arithmetic. The projection sends v to
  v - (theta_hat(v)/theta_hat_m) d_m where d_m is the coordinate direction
  with the largest |theta_hat| component: this keeps the full jet order of
  theta_hat (projecting along the Reeb field instead would cap every
  frame vector at the Reeb field's lower order) and agrees with the Reeb
  projection whenever the Reeb field is parallel to d_m, which covers the
  model structures.
- In dimension 3 the frame is oriented so d(theta_hat)(X1, X2) = +1.
- Form and vector values (theta, dtheta, theta_hat, T) are the JetArrays
  of their components, laid out as forms.py describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFrameError,
    DegenerateMetricError,
    ExprDomainError,
    LinearSolveResidualError,
    NotContactError,
    SingularMatrixError,
)
from .expressions import Expr
from .forms import FormField, d_from_jets, evaluate_forms, wedge
from .jets import JetArray, Tape, contract, jet_linear_solve

CONTACT_REL_TOL = 1e-10

# Jet order of every chart-level evaluation; AdaptedFrame's order budget
# assumes it.
ORDER = 2


@dataclass(frozen=True)
class ContactStructure:
    """Chart-level input data: coordinates, contact form, metric, box.

    g is a dim x dim symmetric matrix of expressions; only its restriction
    to H is ever used.
    """

    coords: tuple[str, ...]
    theta: FormField
    g: tuple[tuple[Expr, ...], ...]
    box: tuple[tuple[float, float], ...]

    def __post_init__(self):
        d = len(self.coords)
        if d < 3 or d % 2 == 0:
            raise ValueError(f"dimension must be odd and >= 3, got {d}")
        if self.theta.dim != d or self.theta.degree != 1:
            raise ValueError("theta must be a 1-form in the chart dimension")
        if len(self.g) != d or any(len(row) != d for row in self.g):
            raise ValueError("g must be a dim x dim matrix")
        if len(self.box) != d:
            raise ValueError("box must give one interval per coordinate")

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
        d = self.dim
        exprs = self.theta.components() + self.dtheta.components()
        return Tape(exprs + [self.g[i][j] for i in range(d) for j in range(d)])

    def inputs_at(self, p) -> "PointInputs":
        """theta, dtheta and g at p as order-ORDER jets, one evaluation of
        the input tape. Raises ExprDomainError where an input cannot be
        evaluated to that order, ValueError for a point that does not
        have one coordinate per chart coordinate."""
        d = self.dim
        if len(p) != d:
            raise ValueError(f"point has {len(p)} coordinates, the chart has {d}")
        out = self.input_tape.eval(p, ORDER)
        k = d + d * (d - 1) // 2
        return PointInputs(theta=out[:d], dtheta=out[d:k], G=out[k:].reshape(d, d))


@dataclass(frozen=True)
class PointInputs:
    """The chart's inputs at one point as order-ORDER jets: the form
    values theta (dim,) and dtheta (K,) and the metric G (dim, dim).
    Built once per point by ContactStructure.inputs_at and passed as
    inputs= to everything that reads them; a reader needing a lower order
    restricts the jets, which is exact (value and gradient rules read no
    higher part)."""

    theta: JetArray
    dtheta: JetArray
    G: JetArray


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
    is scale-invariant under rescaling theta. inputs, when given, are the
    structure's inputs at p; otherwise they are evaluated here.
    """
    inputs = inputs or cs.inputs_at(p)
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
    Row j reads sum_i [dt(d_i, d_j) + theta_j theta_i] T^i = theta_j,
    the diagonal's dt(d_i, d_i) a constant zero jet. Any solution satisfies
    theta(T) = 1 and T . dtheta = 0, and the matrix is invertible exactly
    at contact points. The solution has the order of dt at most, so theta
    is cut to it first.
    """
    theta = theta.restrict(dt.top)
    d = len(theta)
    i, j = np.triu_indices(d, 1)
    pair = JetArray.constant(0.0, theta.dim, (d, d))  # [i, j] = dt(d_i, d_j)
    pair[i, j] = dt
    pair[j, i] = -dt
    A = pair.transpose(1, 0) + theta[:, None] * theta[None, :]
    try:
        sol = jet_linear_solve(A, theta)
    except SingularMatrixError:
        raise NotContactError(
            "Reeb system is singular: the form is not contact at this point"
        ) from None
    return sol


def reeb_field(cs: ContactStructure, p, inputs: PointInputs | None = None) -> JetArray:
    """Unique vector with T . theta = 1, T . dtheta = 0, of the raw theta
    with dtheta differentiated structurally, so at full order; inputs,
    when given, are the structure's inputs at p."""
    inputs = inputs or cs.inputs_at(p)
    return _reeb_from_values(inputs.theta, inputs.dtheta)


def _select_h_indices(theta_values) -> tuple[tuple[int, ...], int]:
    """Pick the 2n coordinate directions to project into H.

    Keeps the directions with the smallest |theta| components (maximal
    transversality margin for the dropped one), ties broken by index, and
    returns them in index order plus the excluded index.
    """
    d = len(theta_values)
    ranked = sorted(range(d), key=lambda i: (abs(theta_values[i]), i))
    kept = tuple(sorted(ranked[:-1]))
    return kept, ranked[-1]


def _project_onto_h(theta: JetArray, m: int, rows) -> JetArray:
    """Row r holds P(d_i) = d_i - (theta_i / theta_m) d_m for i = rows[r],
    a projection onto H."""
    rows = np.asarray(rows, dtype=np.intp)
    r = np.arange(len(rows))
    P = JetArray.constant(0.0, theta.dim, (len(rows), len(theta)))
    P[r, rows] = P[r, rows] + 1.0
    P[r, m] = P[r, m] - theta[rows] / theta[m]
    return P


def _metric_pairs(G: JetArray, U: JetArray, V: JetArray) -> JetArray:
    """g(U_u, V_v) for every pair of rows of the vector stacks U and V:
    sum_j (sum_i g_ij U_u^i) V_v^j, two contractions."""
    GU = contract(G[:, :, None], U.transpose(1, 0)[:, None, :])  # [j, u]
    return contract(GU[:, :, None], V.transpose(1, 0)[:, None, :])


def _jet_matrix_inverse(M: JetArray) -> JetArray:
    """The inverse of a square JetArray: one jet_linear_solve with the
    identity as its right-hand side."""
    m = len(M)
    eye = JetArray.constant(0.0, M.dim, (m, m))
    np.fill_diagonal(eye.value, 1.0)
    return jet_linear_solve(M, eye)


def _h_gram_and_omega(inputs: PointInputs, h_choice=None):
    """Shared setup, as jet arrays: the kept coordinate directions and the
    transversal one, the H-projected coordinate basis (one vector per
    row), the metric's Gram matrix on that basis, and the dtheta matrix
    on that basis."""
    theta = inputs.theta
    d = len(theta)
    if h_choice is None:
        kept, m = _select_h_indices(theta.value)
    else:
        kept = tuple(sorted(h_choice))
        if len(kept) != d - 1 or len(set(kept)) != d - 1 or not set(kept) <= set(range(d)):
            raise ValueError(
                f"h_choice {tuple(h_choice)} must name {d - 1} distinct coordinate "
                f"indices in range({d})"
            )
        (m,) = set(range(d)) - set(kept)
        if abs(theta.value[m]) <= 1e-10 * max(max_abs(theta.value), 1.0):
            raise DegenerateFrameError(
                "chosen transversal direction has a vanishing theta component"
            )
    basis = _project_onto_h(theta, m, kept)
    gram = _metric_pairs(inputs.G, basis, basis)
    eigs = np.linalg.eigvalsh(gram.value)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateMetricError(
            "metric restricted to the contact distribution is not positive definite"
        )
    return kept, m, basis, gram, evaluate_forms(inputs.dtheta, basis, basis)


def _mu(gram: JetArray, omega: JetArray) -> JetArray:
    """mu = sqrt(2n / |dtheta restricted to H|^2) as a 0-d array, the norm
    contracting both index pairs of dtheta with the inverse H-Gram matrix
    of g: tr(G^-1 Omega G^-1 Omega^T), summed as
    sum_ce (sum_b (sum_a ginv_ac omega_ab) ginv_be) omega_ce."""
    ginv = _jet_matrix_inverse(gram)
    m = len(gram)
    left = contract(ginv[:, :, None], omega[:, None, :])  # [c, b]
    middle = contract(left.transpose(1, 0)[:, :, None], ginv[:, None, :])  # [c, e]
    norm2 = contract(middle.reshape(m * m), omega.reshape(m * m))
    if norm2.value <= 0.0:
        raise NotContactError("dtheta vanishes on the distribution at this point")
    return (float(m) / norm2).sqrt()


@dataclass(frozen=True)
class AdaptedFrame:
    """Everything frame-shaped at one point, jet-valued.

    The scalar mu is a single jet (a 0-d JetArray); everything else is a
    JetArray too: the form value theta_hat (dim,) and its exterior
    derivative dtheta_hat (K,), on the K increasing coordinate pairs; the
    Reeb vector T (dim,); the frame vectors X (2n, dim), one per row; the
    coframe H-parts f (2n, dim), one 1-form per row, their exterior
    derivatives df (2n, K) and their Reeb coefficients c (2n,); the
    matrix Omega (2n, 2n) of d(theta_hat) on frame pairs; and the
    structure values D (2n, 2n, 2n), entry [b, a, c] = d(e^b)(X_a, X_c).

    Achieved jet orders, determined by what each piece consumes:
    theta_hat and X carry order 2, dtheta_hat and T order 1, Omega order
    2 (it avoids dtheta_hat via the exact identity d(mu theta)(X, Y) =
    mu dtheta(X, Y) on H-vectors), f order 2, df, c and D order 1.

    The dual coframe element e^b is f[b] + c[b] * theta_hat; the split is
    kept because the H-part alone retains order 2.
    """

    p: tuple[float, ...]
    mu: JetArray
    theta_hat: JetArray
    dtheta_hat: JetArray
    T: JetArray
    X: JetArray
    f: JetArray
    df: JetArray
    c: JetArray
    Omega: JetArray
    D: JetArray
    h_indices: tuple[int, ...]
    transversal_index: int

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
        co = JetArray.constant(0.0, self.dim, (2 * self.n + 1, self.dim))
        co[0] = th
        co[1:] = self.f + th[None, :] * self.c[:, None]
        return co

    @cached_property
    def frame_array(self) -> JetArray:
        """The full frame (T, X_1, ..., X_2n), one vector per row."""
        fa = JetArray.constant(0.0, self.dim, (2 * self.n + 1, self.dim))
        fa[0] = self.T
        fa[1:] = self.X
        return fa

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
    def d_pairs(self) -> JetArray:
        """d(theta_hat) and every d(e^b) on all frame pairs, stacked:
        entry [0, P, Q] pairs the P-th and Q-th frame vectors, index 0 the
        Reeb direction, in d(theta_hat), entry [b + 1, P, Q] in d(e^b).

        Reeb-H entries of d(theta_hat) are residual-level zeros by the
        defining property of the Reeb field. H-H entries are Omega and the
        order-1 structure values D; the mixed entries of d(e^b) assemble
        d(f + c theta_hat) piecewise at order 0.
        """
        m = 2 * self.n
        T = self.T[None]
        X = self.X
        i, j = np.triu_indices(self.dim, 1)
        dth = evaluate_forms(self.dtheta_hat, T, X)[0]
        # dc ^ theta_hat on the increasing pairs (i, j): (0 + dc_i th_j) -
        # dc_j th_i, as wedge sums.
        dc = self.c.partials()
        th = self.theta_hat
        dc_th = ((0.0 + dc[i] * th[j][:, None]) - dc[j] * th[i][:, None]).transpose(1, 0)
        # Antisymmetric in (P, Q): the entries below the diagonal are the
        # negatives of those above, the diagonal constant zeros.
        out = JetArray.constant(0.0, self.dim, (m + 1, m + 1, m + 1))
        out[0, 0, 1:] = dth
        out[1:, 0, 1:] = (
            evaluate_forms(self.df, T, X)[:, 0]
            + evaluate_forms(dc_th, T, X)[:, 0]
            + dth[None, :] * self.c[:, None]
        )
        out[:, 1:, 0] = -out[:, 0, 1:]
        iu, ju = np.triu_indices(m, 1)
        out[0, iu + 1, ju + 1] = self.Omega[iu, ju]
        out[1:, iu + 1, ju + 1] = self.D[:, iu, ju]
        out[:, ju + 1, iu + 1] = -out[:, iu + 1, ju + 1]
        return out


def structure_values(dF: JetArray, c: JetArray, X: JetArray, Omega: JetArray) -> JetArray:
    """Structure values D[b, a, c] = d(e^b)(X_a, X_c) of the coframe
    e^b = f^b + c^b theta_hat on frame pairs, as one (2n, 2n, 2n) array:
    d(f^b)(X_a, X_c) + c^b Omega_ac, the dc ^ theta_hat piece vanishing on
    H-pairs since theta_hat(X) = 0. dF holds d(f^b) on the increasing
    pairs (2n, K), as d_from_jets gives them, c the Reeb coefficients
    (2n,), X the frame vectors (2n, dim). The entries carry order 1, what the
    exterior derivative leaves."""
    return evaluate_forms(dF, X, X) + c[:, None, None] * Omega


def adapted_frame(
    cs: ContactStructure, p, h_choice=None, inputs: PointInputs | None = None
) -> AdaptedFrame:
    """Build the adapted orthonormal frame and dual coframe at p.

    h_choice optionally overrides which 2n coordinate directions get
    projected into H (any admissible set gives the same geometry in a
    different frame; the default picks the most transversal split).
    inputs, when given, are the structure's inputs at p; otherwise they
    are evaluated here.
    """
    d = cs.dim
    n = cs.n
    inputs = inputs or cs.inputs_at(p)
    theta, G = inputs.theta, inputs.G
    kept, m, basis, gram, omega_raw = _h_gram_and_omega(inputs, h_choice)

    # mu from the same Gram/omega data, then theta_hat = mu theta.
    mu = _mu(gram, omega_raw)
    theta_hat = mu * theta

    # d(theta_hat) = dmu ^ theta + mu dtheta, one order below mu.
    dtheta_hat = wedge(d_from_jets(mu.reshape(1), 0), 1, theta, 1) + inputs.dtheta * mu

    T = _reeb_from_values(theta_hat, dtheta_hat)

    # Gram-Schmidt with g, entirely in jets, one frame vector per row. The
    # projected basis from the shared setup already lies in
    # ker theta = ker theta_hat.
    k = len(basis)
    X = JetArray.constant(0.0, d, (k, d))
    for r in range(k):
        v = basis[r]
        u = v
        if r:
            proj = _metric_pairs(G, basis[r : r + 1], X[:r])[0]
            for b in range(r):
                u = u - X[b] * proj[b]
        nrm2 = _metric_pairs(G, u[None], u[None])[0, 0]
        if nrm2.value <= 1e-12:
            raise DegenerateFrameError(
                "projected coordinate vectors are dependent; frame collapsed"
            )
        X[r] = u * (1.0 / nrm2.sqrt())

    # Exact on H-vectors: the dmu ^ theta part dies against theta(X)=0.
    Omega = evaluate_forms(inputs.dtheta, X, X) * mu
    if n == 1 and Omega.value[0, 1] < 0.0:
        swap = [1, 0]
        X = X[swap]
        Omega = Omega[swap][:, swap]

    # Dual coframe split e^b = f^b + c^b theta_hat: the H-part pairs with
    # g against X_b, the Reeb coefficient kills the value on T.
    F = _metric_pairs(G, X, _project_onto_h(theta_hat, m, range(d)))
    dF = d_from_jets(F, 1)
    C = -evaluate_forms(F, T[None])[:, 0] / evaluate_forms(theta_hat, T[None])[0]

    return AdaptedFrame(
        p=tuple(float(x) for x in p),
        mu=mu,
        theta_hat=theta_hat,
        dtheta_hat=dtheta_hat,
        T=T,
        X=X,
        f=F,
        df=dF,
        c=C,
        Omega=Omega,
        D=structure_values(dF, C, X, Omega),
        h_indices=kept,
        transversal_index=m,
    )


def lambda_spectrum(frame: AdaptedFrame) -> tuple[float, ...]:
    """Invariants lambda_1 >= ... >= lambda_n > 0 of the normalized
    2-form against g; their squares sum to n. They are its singular
    values in a g-orthonormal frame, which come in equal pairs."""
    s = np.linalg.svd(frame.Omega.value, compute_uv=False)
    return tuple(float(v) for v in s[0::2][: frame.n])


def _complex_structure(omega: np.ndarray) -> np.ndarray:
    """Orthogonal factor of the polar decomposition of the skew matrix:
    J = Omega (sqrt(-Omega^2))^{-1}, so J^2 = -Id."""
    s = -omega @ omega
    w, v = np.linalg.eigh(s)
    if w[0] <= 0.0:
        raise NotContactError("degenerate 2-form; no complex structure")
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return omega @ inv_sqrt


# The errors that make a sample point unusable; screening skips the point
# with the error's message as its reason.
SKIP_ERRORS = (
    ExprDomainError,
    NotContactError,
    DegenerateMetricError,
    DegenerateFrameError,
    SingularMatrixError,
    LinearSolveResidualError,
)


def screen_point(cs: ContactStructure, p) -> tuple[PointInputs, AdaptedFrame]:
    """The inputs and the adapted frame at a usable point p: its inputs
    evaluate, the contact check passes and the frame builds, in that
    order. Otherwise raises one of SKIP_ERRORS naming the reason:
    ExprDomainError for inputs that cannot be evaluated, NotContactError
    "contact condition fails" for a failed check, the frame's own error
    for a frame that cannot be built."""
    inputs = cs.inputs_at(p)
    if not check_contact(cs, p, inputs).passed:
        raise NotContactError("contact condition fails")
    return inputs, adapted_frame(cs, p, inputs=inputs)


def classify(cs: ContactStructure, points) -> dict:
    """Per-structure classification over sample points.

    cr_compatible: every invariant equals 1 (within 1e-8) at every point.
    partially_integrable: Omega(X, JY) is symmetric, J from the polar
    factor of Omega in the orthonormal frame. Points that screening
    rejects are counted as skipped; one that is not contact clears the
    contact flag.
    """
    points = list(points)
    contact_ok = True
    cr = True
    pint = True
    spectra = []
    for p in points:
        try:
            _, frame = screen_point(cs, p)
        except NotContactError:
            contact_ok = False
            continue
        except SKIP_ERRORS:
            continue
        omega = frame.Omega.value
        lam = np.array(lambda_spectrum(frame))
        spectra.append(lam)
        if max_abs(lam - 1.0) >= 1e-8:
            cr = False
        m = omega @ _complex_structure(omega)
        scale = max(1.0, float(np.linalg.norm(m)))
        if float(np.linalg.norm(m - m.T)) > 1e-8 * scale:
            pint = False
    arr = np.array(spectra) if spectra else np.zeros((0, cs.n))
    stats = {
        "count": len(points),
        "skipped": len(points) - len(spectra),
        "lambda_min": [float(v) for v in arr.min(axis=0)] if len(arr) else [],
        "lambda_max": [float(v) for v in arr.max(axis=0)] if len(arr) else [],
        "lambda_mean": [float(v) for v in arr.mean(axis=0)] if len(arr) else [],
    }
    return {
        "contact": contact_ok,
        "spectrum": stats,
        "cr_compatible": cr and contact_ok,
        "partially_integrable": pint and contact_ok,
    }
