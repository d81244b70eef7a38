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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFrameError,
    DegenerateMetricError,
    NotContactError,
    SingularMatrixError,
)
from .expressions import Expr
from .forms import (
    FormField,
    KFormValue,
    VectorValue,
    d_from_jets,
    wedge,
)
from .jets import Jet, eval_jet, jet_linear_solve, sum_jets

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

    def metric_at(self, p, order: int) -> list[list[Jet]]:
        return [
            [eval_jet(self.g[i][j], p, order) for j in range(self.dim)]
            for i in range(self.dim)
        ]

    def with_theta(self, theta: FormField) -> "ContactStructure":
        return ContactStructure(self.coords, theta, self.g, self.box)


@dataclass(frozen=True)
class ContactCheck:
    passed: bool
    coefficient: float
    scale: float


def check_contact(cs: ContactStructure, p) -> ContactCheck:
    """Evaluate the top form theta ^ (dtheta)^n at p.

    Passes when the top coefficient exceeds a relative threshold built
    from the sup norms of theta's and dtheta's components, so the verdict
    is scale-invariant under rescaling theta.
    """
    t = cs.theta.eval(p, 0)
    dt = cs.dtheta.eval(p, 0)
    top = t
    for _ in range(cs.n):
        top = wedge(top, dt)
    coefficient = top.comp(tuple(range(cs.dim))).value
    scale = t.max_abs_value() * max(dt.max_abs_value(), 0.0) ** cs.n
    return ContactCheck(abs(coefficient) > CONTACT_REL_TOL * scale, coefficient, scale)


def _two_form_pair(dt: KFormValue, i: int, j: int) -> Jet:
    """dt(d_i, d_j) from increasing-index storage."""
    if i == j:
        return Jet.constant(0.0, dt.dim, dt.order())
    if i < j:
        return dt.comp((i, j))
    return -dt.comp((j, i))


def _reeb_from_values(theta_comps: list[Jet], dt: KFormValue) -> VectorValue:
    """Solve the square system whose unique solution is the Reeb field.

    Row j reads sum_i [dt(d_i, d_j) + theta_j theta_i] T^i = theta_j. Any
    solution satisfies theta(T) = 1 and T . dtheta = 0, and the matrix is
    invertible exactly at contact points.
    """
    d = len(theta_comps)
    A = [
        [_two_form_pair(dt, i, j) + theta_comps[j] * theta_comps[i] for i in range(d)]
        for j in range(d)
    ]
    b = [theta_comps[j] for j in range(d)]
    try:
        sol = jet_linear_solve(A, b)
    except SingularMatrixError:
        raise NotContactError(
            "Reeb system is singular: the form is not contact at this point"
        ) from None
    return VectorValue(tuple(sol))


def reeb_field(cs_or_theta, p) -> VectorValue:
    """Unique vector with T . theta = 1, T . dtheta = 0.

    Accepts a ContactStructure (the raw theta is used, differentiated
    structurally at full order) or a jet-backed 1-form value, whose
    exterior derivative must then come from the jets, costing one order.
    """
    if isinstance(cs_or_theta, ContactStructure):
        comps = [
            eval_jet(cs_or_theta.theta.coeff((i,)), p, ORDER)
            for i in range(cs_or_theta.dim)
        ]
        dt = cs_or_theta.dtheta.eval(p, ORDER)
        return _reeb_from_values(comps, dt)
    if isinstance(cs_or_theta, KFormValue) and cs_or_theta.degree == 1:
        comps = [cs_or_theta.comp((i,)) for i in range(cs_or_theta.dim)]
        dt = d_from_jets(cs_or_theta)
        return _reeb_from_values(comps, dt)
    raise TypeError("expected a ContactStructure or a 1-form value")


def _select_h_indices(theta_comps: list[Jet]) -> tuple[tuple[int, ...], int]:
    """Pick the 2n coordinate directions to project into H.

    Keeps the directions with the smallest |theta| components (maximal
    transversality margin for the dropped one), ties broken by index, and
    returns them in index order plus the excluded index.
    """
    d = len(theta_comps)
    ranked = sorted(range(d), key=lambda i: (abs(theta_comps[i].value), i))
    kept = tuple(sorted(ranked[:-1]))
    return kept, ranked[-1]


def _project_onto_h(theta_comps: list[Jet], m: int, i: int) -> VectorValue:
    """P(d_i) = d_i - (theta_i / theta_m) d_m, a projection onto H."""
    d = len(theta_comps)
    dim = theta_comps[0].dim
    order = theta_comps[0].order
    comps = [Jet.constant(0.0, dim, order) for _ in range(d)]
    comps[i] = comps[i] + 1.0
    comps[m] = comps[m] - theta_comps[i] / theta_comps[m]
    return VectorValue(tuple(comps))


def _metric_pair(gmat: list[list[Jet]], v: VectorValue, w: VectorValue) -> Jet:
    d = len(gmat)
    return sum_jets(gmat[i][j] * v.comps[i] * w.comps[j] for i in range(d) for j in range(d))


def _jet_matrix_inverse(M: list[list[Jet]]) -> list[list[Jet]]:
    m = len(M)
    dim = M[0][0].dim
    order = min(e.order for row in M for e in row)
    cols = []
    for c in range(m):
        rhs = [Jet.constant(1.0 if r == c else 0.0, dim, order) for r in range(m)]
        cols.append(jet_linear_solve(M, rhs))
    return [[cols[c][r] for c in range(m)] for r in range(m)]


def _h_gram_and_omega(cs: ContactStructure, p, h_choice=None):
    """Shared setup: H-projected coordinate basis, its Gram matrix, dtheta
    at p, and the dtheta matrix on that basis, all as jets."""
    d = cs.dim
    theta_comps = [eval_jet(cs.theta.coeff((i,)), p, ORDER) for i in range(d)]
    if h_choice is None:
        kept, m = _select_h_indices(theta_comps)
    else:
        kept = tuple(sorted(h_choice))
        if len(kept) != d - 1 or len(set(kept)) != d - 1:
            raise ValueError("h_choice must name 2n distinct coordinate indices")
        (m,) = set(range(d)) - set(kept)
        peak = max(abs(c.value) for c in theta_comps)
        if abs(theta_comps[m].value) <= 1e-10 * max(peak, 1.0):
            raise DegenerateFrameError(
                "chosen transversal direction has a vanishing theta component"
            )
    basis = [_project_onto_h(theta_comps, m, i) for i in kept]
    gmat = cs.metric_at(p, ORDER)
    gram = [[_metric_pair(gmat, u, v) for v in basis] for u in basis]
    vals = np.array([[e.value for e in row] for row in gram])
    eigs = np.linalg.eigvalsh(vals)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        raise DegenerateMetricError(
            "metric restricted to the contact distribution is not positive definite"
        )
    dt = cs.dtheta.eval(p, ORDER)
    omega = [[dt.evaluate(u, v) for v in basis] for u in basis]
    return theta_comps, kept, m, basis, gmat, gram, dt, omega


def _mu(gram: list[list[Jet]], omega: list[list[Jet]]) -> Jet:
    """mu = sqrt(2n / |dtheta restricted to H|^2), the norm contracting
    both index pairs of dtheta with the inverse H-Gram matrix of g."""
    ginv = _jet_matrix_inverse(gram)
    m = len(gram)
    norm2 = sum_jets(
        ginv[a][c] * ginv[b][e] * omega[a][b] * omega[c][e]
        for a in range(m)
        for b in range(m)
        for c in range(m)
        for e in range(m)
    )
    if norm2.value <= 0.0:
        raise NotContactError("dtheta vanishes on the distribution at this point")
    return (float(m) / norm2).sqrt()


def normalize_theta(cs: ContactStructure, p) -> Jet:
    """The positive scale mu with theta_hat = mu * theta normalized."""
    _, _, _, _, _, gram, _, omega = _h_gram_and_omega(cs, p)
    return _mu(gram, omega)


@dataclass(frozen=True)
class LambdaSpectrum:
    """Invariants lambda_1 >= ... >= lambda_n > 0 of the normalized
    2-form against g; their squares sum to n."""

    values: tuple[float, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class AdaptedFrame:
    """Everything frame-shaped at one point, jet-valued.

    Achieved jet orders, determined by what each piece consumes:
    theta_hat and X carry order 2, dtheta_hat and T order 1, the Omega
    matrix order 2 (it avoids dtheta_hat via the exact identity
    d(mu theta)(X, Y) = mu dtheta(X, Y) on H-vectors), the coframe
    H-parts f order 2, their Reeb coefficients c order 1, and the
    structure values D order 1.

    The dual coframe element e^b is f[b] + c[b] * theta_hat; the split is
    kept because the H-part alone retains order 2.
    """

    p: tuple[float, ...]
    mu: Jet
    theta_hat: KFormValue
    dtheta_hat: KFormValue
    T: VectorValue
    X: tuple[VectorValue, ...]
    f: tuple[KFormValue, ...]
    c: tuple[Jet, ...]
    Omega: tuple[tuple[Jet, ...], ...]
    D: tuple[tuple[tuple[Jet, ...], ...], ...]
    h_indices: tuple[int, ...]
    transversal_index: int

    @property
    def dim(self) -> int:
        return self.T.dim

    @property
    def n(self) -> int:
        return self.dim // 2

    def e(self, b: int) -> KFormValue:
        """Full dual coframe 1-form e^b (order capped by c[b])."""
        return self.f[b] + self.theta_hat.scale(self.c[b])

    def coframe(self) -> list[KFormValue]:
        return [self.theta_hat] + [self.e(b) for b in range(2 * self.n)]

    def frame_vectors(self) -> list[VectorValue]:
        return [self.T] + list(self.X)

    def express(self, a: KFormValue) -> list[Jet]:
        """Coframe components of a 1-form value by frame pairing:
        [a(T), a(X_1), ..., a(X_2n)]."""
        if a.degree != 1:
            raise ValueError("express expects a 1-form value")
        out = [a.evaluate(self.T)]
        out.extend(a.evaluate(x) for x in self.X)
        return out

    def express_vector(self, v: VectorValue) -> list[Jet]:
        """Frame components of a vector value by coframe pairing:
        [theta_hat(v), e^1(v), ..., e^2n(v)]."""
        out = [self.theta_hat.evaluate(v)]
        out.extend(self.e(b).evaluate(v) for b in range(2 * self.n))
        return out

    @cached_property
    def _df(self) -> tuple[KFormValue, ...]:
        return tuple(d_from_jets(fb) for fb in self.f)

    @cached_property
    def _dc(self) -> tuple[KFormValue, ...]:
        dim = self.dim
        return tuple(
            d_from_jets(KFormValue(dim, 0, {(): cb})) for cb in self.c
        )

    def de_values(self, b: int) -> list[list[Jet]]:
        """d(e^b) on all frame pairs; entry [P][Q] pairs the P-th and Q-th
        frame vectors with index 0 the Reeb direction.

        H-H entries reuse the order-1 structure values D; mixed entries
        assemble d(f + c theta_hat) piecewise at order 0.
        """
        m = 2 * self.n
        vecs = self.frame_vectors()
        dc_wedge = wedge(self._dc[b], self.theta_hat)
        out = [[None] * (m + 1) for _ in range(m + 1)]
        zero = Jet.constant(0.0, self.dim, 2)
        for P in range(m + 1):
            out[P][P] = zero
        for q in range(1, m + 1):
            val = (
                self._df[b].evaluate(vecs[0], vecs[q])
                + dc_wedge.evaluate(vecs[0], vecs[q])
                + self.dtheta_hat.evaluate(vecs[0], vecs[q]) * self.c[b]
            )
            out[0][q] = val
            out[q][0] = -val
        for p_ in range(1, m + 1):
            for q in range(p_ + 1, m + 1):
                val = self.D[b][p_ - 1][q - 1]
                out[p_][q] = val
                out[q][p_] = -val
        return out

    def dtheta_hat_values(self) -> list[list[Jet]]:
        """d(theta_hat) on all frame pairs, same layout as de_values.

        Reeb-H entries are residual-level zeros by the defining property
        of the Reeb field; H-H entries are the order-2 Omega matrix.
        """
        m = 2 * self.n
        vecs = self.frame_vectors()
        out = [[None] * (m + 1) for _ in range(m + 1)]
        zero = Jet.constant(0.0, self.dim, 2)
        for P in range(m + 1):
            out[P][P] = zero
        for q in range(1, m + 1):
            val = self.dtheta_hat.evaluate(vecs[0], vecs[q])
            out[0][q] = val
            out[q][0] = -val
        for p_ in range(1, m + 1):
            for q in range(p_ + 1, m + 1):
                out[p_][q] = self.Omega[p_ - 1][q - 1]
                out[q][p_] = -self.Omega[p_ - 1][q - 1]
        return out


def adapted_frame(cs: ContactStructure, p, h_choice=None) -> AdaptedFrame:
    """Build the adapted orthonormal frame and dual coframe at p.

    h_choice optionally overrides which 2n coordinate directions get
    projected into H (any admissible set gives the same geometry in a
    different frame; the default picks the most transversal split).
    """
    d = cs.dim
    n = cs.n
    theta_comps, kept, m, basis, gmat, gram, dtheta_val, omega_raw = _h_gram_and_omega(
        cs, p, h_choice
    )

    # mu from the same Gram/omega data, then theta_hat = mu theta.
    mu = _mu(gram, omega_raw)

    theta_hat_comps = [mu * tc for tc in theta_comps]
    theta_hat = KFormValue(d, 1, {(i,): theta_hat_comps[i] for i in range(d)})

    # d(theta_hat) = dmu ^ theta + mu dtheta, one order below mu.
    dmu = d_from_jets(KFormValue(d, 0, {(): mu}))
    theta_val = KFormValue(d, 1, {(i,): theta_comps[i] for i in range(d)})
    dtheta_hat = wedge(dmu, theta_val) + dtheta_val.scale(mu)

    T = _reeb_from_values(theta_hat_comps, dtheta_hat)

    # Gram-Schmidt with g, entirely in jets. The projected basis from the
    # shared setup already lies in ker theta = ker theta_hat.
    X: list[VectorValue] = []
    for v in basis:
        u = v
        for xb in X:
            u = u - xb.scale(_metric_pair(gmat, v, xb))
        nrm2 = _metric_pair(gmat, u, u)
        if nrm2.value <= 1e-12:
            raise DegenerateFrameError(
                "projected coordinate vectors are dependent; frame collapsed"
            )
        X.append(u.scale(1.0 / nrm2.sqrt()))

    def omega_entry(u: VectorValue, v: VectorValue) -> Jet:
        # Exact on H-vectors: the dmu ^ theta part dies against theta(X)=0.
        return dtheta_val.evaluate(u, v) * mu

    if n == 1 and omega_entry(X[0], X[1]).value < 0.0:
        X = [X[1], X[0]]

    Omega = tuple(
        tuple(omega_entry(X[a], X[b]) for b in range(2 * n)) for a in range(2 * n)
    )

    # Dual coframe split e^b = f^b + c^b theta_hat: the H-part pairs with
    # g against X_b, the Reeb coefficient kills the value on T.
    projected_all = [_project_onto_h(theta_hat_comps, m, i) for i in range(d)]
    f_forms = []
    c_coeffs = []
    theta_hat_T = theta_hat.evaluate(T)
    for b in range(2 * n):
        fb_comps = {
            (i,): _metric_pair(gmat, X[b], projected_all[i]) for i in range(d)
        }
        fb = KFormValue(d, 1, fb_comps)
        cb = -fb.evaluate(T) / theta_hat_T
        f_forms.append(fb)
        c_coeffs.append(cb)

    # Structure values D[b][a][c] = d(e^b)(X_a, X_c); on H-pairs the
    # dc ^ theta_hat piece vanishes since theta_hat(X) = 0.
    dfs = [d_from_jets(fb) for fb in f_forms]
    D = tuple(
        tuple(
            tuple(
                dfs[b].evaluate(X[a], X[c_]) + c_coeffs[b] * Omega[a][c_]
                for c_ in range(2 * n)
            )
            for a in range(2 * n)
        )
        for b in range(2 * n)
    )

    return AdaptedFrame(
        p=tuple(float(x) for x in p),
        mu=mu,
        theta_hat=theta_hat,
        dtheta_hat=dtheta_hat,
        T=T,
        X=tuple(X),
        f=tuple(f_forms),
        c=tuple(c_coeffs),
        Omega=Omega,
        D=D,
        h_indices=kept,
        transversal_index=m,
    )


def _omega_value_matrix(frame: AdaptedFrame) -> np.ndarray:
    m = 2 * frame.n
    return np.array([[frame.Omega[a][b].value for b in range(m)] for a in range(m)])


def lambda_spectrum(frame: AdaptedFrame) -> LambdaSpectrum:
    """Positive invariants of the normalized 2-form in a g-orthonormal
    frame: its singular values come in equal pairs, one per invariant."""
    s = np.linalg.svd(_omega_value_matrix(frame), compute_uv=False)
    return LambdaSpectrum(tuple(float(v) for v in s[0::2][: frame.n]))


def _complex_structure(omega: np.ndarray) -> np.ndarray:
    """Orthogonal factor of the polar decomposition of the skew matrix:
    J = Omega (sqrt(-Omega^2))^{-1}, so J^2 = -Id."""
    s = -omega @ omega
    w, v = np.linalg.eigh(s)
    if w[0] <= 0.0:
        raise NotContactError("degenerate 2-form; no complex structure")
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    return omega @ inv_sqrt


def classify(cs: ContactStructure, points) -> dict:
    """Per-structure classification over sample points.

    cr_compatible: every invariant equals 1 (within 1e-8) at every point.
    partially_integrable: Omega(X, JY) is symmetric, J from the polar
    factor of Omega in the orthonormal frame.
    """
    points = list(points)
    contact_ok = True
    cr = True
    pint = True
    spectra = []
    for p in points:
        if not check_contact(cs, p).passed:
            contact_ok = False
            continue
        frame = adapted_frame(cs, p)
        omega = _omega_value_matrix(frame)
        lam = np.array(lambda_spectrum(frame).values)
        spectra.append(lam)
        if np.max(np.abs(lam - 1.0)) >= 1e-8:
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
