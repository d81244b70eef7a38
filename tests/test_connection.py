"""Partial connection layer: sigma algebra, base and canonical
constructions, torsion, H-covariant derivatives, promotion.
"""

import dataclasses

import numpy as np
import pytest

from contactconn import connection
from contactconn.connection import (
    FullConnection,
    PartialConnection,
    canonical_partial_connection,
    full_torsion,
    nabla_H,
    nabla_H_vector,
    partial_torsion,
    promote,
    promotion_residual,
    sigma,
    sigma_inv,
)
from contactconn.contact import ContactStructure, adapted_frame, max_abs, rotate_frame
from contactconn.errors import SymmetryError
from contactconn.expressions import parse_expr
from contactconn.forms import FormField, apply_vector
from contactconn.jets import JetArray, Tape, eval_jet
from contactconn.sampling import sample_box
from form_helpers import (
    CHARTS,
    assert_within_rounding,
    cayley_rotation,
    chart_spec,
    evaluate,
    frame_vectors,
    magnitude,
    scalar_nabla_H,
    scalar_nabla_H_vector,
    stack,
    sum_jets,
)

P3 = (0.3, -0.4, 0.2)


def structure(coords, theta, g_rows):
    th = FormField.one_form([parse_expr(t, coords) for t in theta])
    g = tuple(tuple(parse_expr(e, coords) for e in row) for row in g_rows)
    return ContactStructure(tuple(coords), th, g)


def euclidean_heisenberg():
    # same contact form as the builtin, but with the identity metric;
    # generic nonzero coefficients, useful to catch sign slips
    return structure(
        ("x", "y", "z"), ("-y", "0", "1"),
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    )


def basis_tensor(m, idx, dim=3):
    """Constant jets (m, m, m), one at idx and zero elsewhere."""
    t = JetArray.constant(0.0, dim, (m, m, m))
    t.value[idx] = 1.0
    return t


def max_tensor_diff(s, t):
    return float(np.max(np.abs((s - t).value)))


def vector_jets(cs, texts, p):
    """Coordinate components of a vector field at p, one JetArray (dim,)."""
    return Tape([parse_expr(s, cs.coords) for s in texts]).eval(p, 2)


class TestSigmaAlgebra:
    @pytest.mark.parametrize("m", [2, 4])
    def test_round_trip_on_basis(self, m):
        # exhaustive over the symmetric basis: sigma_inv must undo sigma
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    s = basis_tensor(m, (a, b, c)) + basis_tensor(m, (b, a, c))
                    assert max_tensor_diff(sigma_inv(sigma(s)), s) == 0.0

    @pytest.mark.parametrize("m", [2, 4])
    def test_round_trip_other_order(self, m):
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    t = basis_tensor(m, (a, b, c)) + basis_tensor(m, (a, c, b))
                    assert max_tensor_diff(sigma(sigma_inv(t)), t) == 0.0

    def test_output_symmetries(self):
        m = 2
        s = basis_tensor(m, (0, 1, 0)) + basis_tensor(m, (1, 0, 0))
        out = sigma(s)
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    assert (out[a][b][c] - out[a][c][b]).value == 0.0

    def test_sigma_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sigma(basis_tensor(2, (0, 1, 0)))

    def test_sigma_inv_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sigma_inv(basis_tensor(2, (0, 0, 1)))


def base_connection(frame):
    """The torsion-free base canonical_partial_connection starts from:
    Gamma^b_{ac} = -D^b_{ac}/2."""
    return PartialConnection(frame, frame.D.transpose(1, 0, 2) * -0.5)


class TestBaseConnection:
    def test_base_is_torsion_free(self, perturbed):
        frame = adapted_frame(perturbed, P3)
        tor = partial_torsion(base_connection(frame))
        assert max_abs(tor.value[1:]) < 1e-12

    def test_theta_row_is_levi_form(self, perturbed):
        frame = adapted_frame(perturbed, P3)
        tor = partial_torsion(base_connection(frame))
        for a in range(2):
            for c in range(2):
                diff = tor[0][a][c] - frame.Omega[a][c]
                assert abs(diff.value) < 1e-13


def four_bullet_residuals(cs, p):
    """Max residual of each defining property of the canonical connection."""
    conn = canonical_partial_connection(cs, p)
    frame = conn.frame
    m = 2 * frame.n
    dim = frame.dim

    torsion = max_abs(partial_torsion(conn).value[1:])

    X = frame_vectors(frame)[1:]
    levi = max(
        abs((conn.kappa[a][0][c + 1] - evaluate(frame.dtheta_hat, X[a], X[c])).value)
        for a in range(m)
        for c in range(m)
    )

    reeb_comps = frame.express_vector(frame.T)
    reeb = float(np.max(np.abs(nabla_H_vector(conn, reeb_comps).value)))

    gmat = [[eval_jet(cs.g[i][j], p, 2) for j in range(dim)] for i in range(dim)]
    gram = [
        [
            sum_jets(
                gmat[i][j] * X[a][i] * X[b][j]
                for i in range(dim)
                for j in range(dim)
            )
            for b in range(m)
        ]
        for a in range(m)
    ]
    gram = stack([stack(row) for row in gram])
    metric = float(np.max(np.abs(nabla_H(conn, gram).value)))
    return {"torsion": torsion, "levi": levi, "reeb": reeb, "metric": metric}


class TestCanonical:
    @pytest.mark.parametrize("p", [P3, (0.5, 0.2, -0.3)])
    def test_defining_properties(self, perturbed, p):
        for name, res in four_bullet_residuals(perturbed, p).items():
            assert res < 1e-9, name

    def test_defining_properties_euclidean(self):
        for name, res in four_bullet_residuals(euclidean_heisenberg(), P3).items():
            assert res < 1e-9, name

    def test_heisenberg_coefficients_vanish(self, heisenberg):
        conn = canonical_partial_connection(heisenberg, P3)
        assert max(
            abs(conn.Gamma[a][b][c].value)
            for a in range(2)
            for b in range(2)
            for c in range(2)
        ) < 1e-14

    def test_euclidean_metric_is_not_flat(self):
        # the identity coordinate metric twists the frame: at this point
        # the largest coefficient is 0.8/1.16 (hand computation)
        conn = canonical_partial_connection(euclidean_heisenberg(), P3)
        top = max(
            abs(conn.Gamma[a][b][c].value)
            for a in range(2)
            for b in range(2)
            for c in range(2)
        )
        assert top == pytest.approx(0.8 / 1.16, abs=1e-12)


class TestUniqueness:
    def test_base_independence(self, perturbed, rng):
        # criterion: any valid base connection yields the same canonical one
        ref = canonical_partial_connection(perturbed, P3)
        m = 2
        raw = rng.standard_normal((m, m, m))
        pert = JetArray.constant(0.0, 3, (m, m, m))
        pert.value[...] = raw + raw.transpose(2, 1, 0)
        alt = canonical_partial_connection(perturbed, P3, base_perturbation=pert)
        diff = max(
            abs((ref.Gamma[a][b][c] - alt.Gamma[a][b][c]).value)
            for a in range(m)
            for b in range(m)
            for c in range(m)
        )
        assert diff < 1e-12

    def test_asymmetric_perturbation_rejected(self, perturbed):
        m = 2
        pert = basis_tensor(m, (0, 0, 1))
        with pytest.raises(SymmetryError):
            canonical_partial_connection(perturbed, P3, base_perturbation=pert)


# Every compared quantity agrees to ~1.4e-14 under these frame changes.
FRAME_CHANGE_TOL = 1e-12


def frame_change_gaps(name: str) -> dict:
    """How far the canonical connection and its promotion move when the
    adapted frame is changed by rotate_frame with a Cayley rotation Q,
    the largest over 4 sample points (seed 1) of a built-in or of a
    chart under tests/data/charts:

    - vector_action, oneform_action: the change of the partial
      connection's coordinate_action_on_vector and of the promotion's
      coordinate_action, coordinate tensors that must not move;
    - coefficients: the promotion's coefficients in the new frame
      against the law for a coframe change sigma' = R sigma, R = diag(1, Q):
      coeffs'[P, A, E] = R[P, K] (F_K(R[A, B]) R[E, B]
      + R[A, B] coeffs[K, B, C] R[E, C]), F the old frame.
    """
    spec = chart_spec(name)
    cs = spec.build()
    c, d = cs.coords, cs.dim
    alpha = FormField.one_form(
        [parse_expr(f"{c[(i + 2) % d]}^2 - {i}*{c[i]}", c) for i in range(d)]
    )
    gaps = dict.fromkeys(("vector_action", "oneform_action", "coefficients"), 0.0)
    for k, p in enumerate(sample_box(spec.box, 4, 1)):
        v = vector_jets(cs, [f"{c[i]}*{c[(i + 1) % d]} + {i + 1}" for i in range(d)], p)
        frame = adapted_frame(cs, p)
        Q = cayley_rotation(p, k)
        frames = (frame, rotate_frame(frame, Q))
        conn, conn2 = (canonical_partial_connection(cs, p, frame=fr) for fr in frames)
        full, full2 = promote(conn), promote(conn2)
        R = np.eye(d)
        R[1:, 1:] = Q.value
        dR = np.zeros((d, d, d))  # [K, A, B] = F_K(R[A, B])
        dR[:, 1:, 1:] = apply_vector(frame.frame_array, Q).value
        law = np.einsum("PK,KAB,EB->PAE", R, dR, R)
        law += np.einsum("PK,AB,KBC,EC->PAE", R, R, full.coeffs.value, R)
        moved = {
            "vector_action": conn.coordinate_action_on_vector(v)
            - conn2.coordinate_action_on_vector(v),
            "oneform_action": full.coordinate_action(alpha) - full2.coordinate_action(alpha),
            "coefficients": full2.coeffs.value - law,
        }
        for key, gap in moved.items():
            gaps[key] = max(gaps[key], max_abs(gap))
    return gaps


class TestFrameIndependence:
    @pytest.mark.parametrize("name", CHARTS)
    def test_frame_change_keeps_the_connection(self, name):
        gaps = frame_change_gaps(name)
        assert all(gap < FRAME_CHANGE_TOL for gap in gaps.values()), gaps

    @pytest.mark.parametrize("name", ["n2-split", "heis7.json"])
    def test_frame_change_catches_a_scaled_promotion(self, name, monkeypatch):
        # Every suite passes on these charts with the Reeb row scaled by
        # 1.01; the promotion is then no longer frame-independent.
        real = connection._promotion_system

        def scaled(conn):
            num, den = real(conn)
            return num * 1.01, den

        monkeypatch.setattr(connection, "_promotion_system", scaled)
        gaps = frame_change_gaps(name)
        assert gaps["oneform_action"] > FRAME_CHANGE_TOL, gaps
        assert gaps["coefficients"] > FRAME_CHANGE_TOL, gaps

    def test_sign_flip_gives_same_action(self, heisenberg):
        neg = dataclasses.replace(
            heisenberg,
            theta=FormField.one_form(
                [parse_expr(t, heisenberg.coords) for t in ("y", "0", "-1")]
            ),
        )
        v = vector_jets(heisenberg, ("y*z", "x", "x - z^2"), P3)
        n1 = canonical_partial_connection(heisenberg, P3).coordinate_action_on_vector(v)
        n2 = canonical_partial_connection(neg, P3).coordinate_action_on_vector(v)
        assert np.max(np.abs(n1 - n2)) < 1e-10


class TestFrameFromAnotherPoint:
    # A frame of another point or chart would give a connection labelled
    # with p and cs but computed at the frame's own point and dimension.
    def test_frame_from_another_point_is_refused(self, perturbed):
        from contactconn.tw3d import tw_coframe

        frame = adapted_frame(perturbed, P3)
        message = (
            r"the frame was built at \(0\.3, -0\.4, 0\.2\), "
            r"not at the point \(0\.9, 0\.9, 0\.9\)"
        )
        for call in (canonical_partial_connection, tw_coframe):
            with pytest.raises(ValueError, match=message):
                call(perturbed, (0.9, 0.9, 0.9), frame=frame)
        # The frame's own point, in any form, is taken.
        assert canonical_partial_connection(perturbed, list(P3), frame=frame).frame is frame
        assert tw_coframe(perturbed, np.array(P3), frame=frame) is frame

    def test_frame_from_another_chart_is_refused(self, perturbed):
        # A chart of another dimension is another chart: the message names
        # the frame's chart first.
        heis7 = chart_spec("heis7.json").build()
        frame = adapted_frame(perturbed, P3)
        message = r"the frame was built on the chart with coordinates \(x, y, z\), "
        with pytest.raises(ValueError, match=message) as info:
            canonical_partial_connection(heis7, (0.1,) * 7, frame=frame)
        assert "not on the chart with coordinates (x1, " in str(info.value)

    def test_frame_from_a_chart_of_the_same_dimension_is_refused(self, heisenberg, perturbed):
        # heisenberg's frame at P3 would give perturbed a connection with
        # heisenberg's zero Gamma in place of its own.
        from contactconn.tw3d import tw_coframe

        want = canonical_partial_connection(perturbed, P3)
        assert max_abs(want.Gamma.value) == pytest.approx(0.14669926650366752, rel=1e-12)
        frame = adapted_frame(heisenberg, P3)
        message = (
            r"the frame was built on the chart with .*g \(1, 0, 0; 0, 1, 0; 0, 0, 0\), "
            r"not on the chart with .*g \(1, 0, 0; 0, 1 \+ x\^2 / 4, 0; 0, 0, 0\)"
        )
        for call in (canonical_partial_connection, tw_coframe):
            with pytest.raises(ValueError, match=message):
                call(perturbed, P3, frame=frame)

    def test_a_rotated_frame_keeps_its_chart_and_point(self, perturbed):
        from contactconn.tw3d import tw_coframe

        base = adapted_frame(perturbed, P3)
        frame = rotate_frame(base, cayley_rotation(P3, 0))
        assert frame.inputs is base.inputs and frame.p == P3
        assert canonical_partial_connection(perturbed, np.array(P3), frame=frame).frame is frame
        assert tw_coframe(perturbed, list(P3), frame=frame) is frame


class TestNablaH:
    def test_rejects_wrong_tensor_size(self, perturbed):
        # every axis must have size 2n + 1 or, for H-only components, 2n
        conn = canonical_partial_connection(perturbed, P3)
        for shape in [(4, 4), (2, 3), (3, 2), (4,), (3, 3, 2)]:
            with pytest.raises(ValueError, match="every axis"):
                nabla_H(conn, JetArray.constant(1.0, 3, shape))


class TestPromotion:
    def test_heisenberg_extension_vanishes(self, heisenberg):
        fc = promote(canonical_partial_connection(heisenberg, P3))
        assert max(abs(fc.coeffs[0][A][C].value) for A in range(3) for C in range(3)) < 1e-13

    def test_residual_small(self, perturbed):
        fc = promote(canonical_partial_connection(perturbed, P3))
        assert promotion_residual(fc) < 1e-12

    def test_partial_is_shared(self, perturbed):
        import form_helpers

        conn = canonical_partial_connection(perturbed, P3)
        fc = promote(conn)
        assert fc.partial is conn
        form_helpers.assert_same_bits(fc.coeffs[1:], conn.kappa.restrict(fc.coeffs.top))

    @pytest.mark.parametrize("name", CHARTS)
    def test_reeb_row_is_in_normal_form(self, name):
        # The promoted Reeb direction neither produces nor differentiates
        # a theta_hat component: xi's theta_hat row and column are
        # rounding-level zeros, which is why promote keeps no derivative
        # of them.
        from contactconn.contact import SKIP_ERRORS, screen_point

        spec = chart_spec(name)
        cs = spec.build()
        used = 0
        for p in sample_box(spec.box, 24, 3):
            try:
                frame = screen_point(cs, p)
            except SKIP_ERRORS:
                continue
            xi = promote(canonical_partial_connection(cs, p, frame=frame)).coeffs.value[0]
            assert max_abs(xi[0, :]) < 1e-14 and max_abs(xi[:, 0]) < 1e-14
            used += 1
        assert used >= 12

    def test_coordinate_action_rejects_two_form(self, perturbed):
        fc = promote(canonical_partial_connection(perturbed, P3))
        alpha = FormField.one_form(
            [parse_expr(s, perturbed.coords) for s in ("z", "x*y", "1 + y")]
        )
        with pytest.raises(ValueError, match="1-forms"):
            fc.coordinate_action(alpha.d())

    def test_residual_needs_partial(self, perturbed):
        fc = promote(canonical_partial_connection(perturbed, P3))
        stripped = FullConnection(frame=fc.frame, coeffs=fc.coeffs)
        with pytest.raises(ValueError):
            promotion_residual(stripped)


class TestFullTorsion:
    def test_heisenberg_shape(self, heisenberg):
        fc = promote(canonical_partial_connection(heisenberg, P3))
        tor = full_torsion(fc)
        frame = fc.frame
        # theta_hat row: pure H wedge part equals minus the 2-form
        for a in range(2):
            for c in range(2):
                diff = tor[0][a + 1][c + 1] + frame.Omega[a][c]
                assert abs(diff.value) < 1e-13
        # no mixed Reeb component and no e-row torsion here
        assert max(abs(tor[0][0][q].value) for q in range(3)) < 1e-13
        assert max_abs(tor.value[1:]) < 1e-13

    def test_theta_row_universal(self, perturbed):
        # the minus-2-form theta_hat row is structural, not model-specific
        fc = promote(canonical_partial_connection(perturbed, (0.1, 0.7, -0.2)))
        tor = full_torsion(fc)
        frame = fc.frame
        for a in range(2):
            for c in range(2):
                diff = tor[0][a + 1][c + 1] + frame.Omega[a][c]
                assert abs(diff.value) < 1e-12
        assert max(abs(tor[0][0][q].value) for q in range(3)) < 1e-12

    def test_h_wedge_h_part_of_e_rows_vanishes(self):
        fc = promote(canonical_partial_connection(euclidean_heisenberg(), P3))
        tor = full_torsion(fc)
        for A in (1, 2):
            assert abs(tor[A][1][2].value) < 1e-12


def scalar_promotion_system(conn, absolute=False):
    """The promotion system as loops over single jets, kept as the
    reference the array kernel must match to rounding. den is built from
    Omega cut to the order of the num it divides, one below kappa's.
    With absolute, every input part is replaced by its absolute value and
    the difference by a sum, which gives the sum of |terms|."""
    frame = conn.frame
    m = 2 * frame.n
    mag = magnitude if absolute else (lambda a: a)
    kap = mag(conn.kappa)
    X = mag(frame.X)
    D = mag(frame.D)
    Om = mag(frame.Omega)
    Omk = Om.restrict(kap.top - 1)

    def K(u, v, A, C):
        lead = apply_vector(X[u], kap[v][A][C])
        return lead + sum_jets(kap[v][A][E] * kap[u][E][C] for E in range(m + 1))

    def obstruction(u, v, A, C):
        cc = sum_jets(D[e][u][v] * kap[e][A][C] for e in range(m))
        other = K(v, u, A, C)
        return (cc + K(u, v, A, C) + (other if absolute else -other)) * Om[u][v]

    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    den = sum_jets(Omk[u][v] * Omk[u][v] for u, v in pairs)
    num = [
        [sum_jets(obstruction(u, v, A, C) for u, v in pairs) for C in range(m + 1)]
        for A in range(m + 1)
    ]
    return num, den


def assert_promotion_system_matches_loops(conn):
    num, den = conn.promotion_system
    want_num, want_den = scalar_promotion_system(conn)
    scale_num, scale_den = scalar_promotion_system(conn, absolute=True)
    assert num.top == den.top == conn.kappa.top - 1
    assert_within_rounding(den, want_den, scale_den)
    for A, (wrow, srow) in enumerate(zip(want_num, scale_num)):
        for C, (w, sc) in enumerate(zip(wrow, srow)):
            assert_within_rounding(num[A, C], w, sc)


@pytest.mark.parametrize("name", ["heisenberg-perturbed", "sphere-chart", "n2-split"])
def test_promotion_system_matches_scalar_loops(name):
    from contactconn.registry import get_manifold
    from contactconn.sampling import sample_box

    spec = get_manifold(name)
    cs = spec.build()
    p = sample_box(spec.box, 1, spec.seed)[0]
    assert_promotion_system_matches_loops(canonical_partial_connection(cs, p))


def generic_5d_spec():
    """A 5D chart whose frame, structure values and kappa have no
    constant or vanishing pattern, so the promotion system depends on the
    order its frame pairs are folded in."""
    from contactconn.registry import ManifoldSpec

    return ManifoldSpec(
        name="generic-5d",
        coords=("x1", "y1", "x2", "y2", "z"),
        theta=("y1/2 + x2/5", "-x1/2", "y2/2", "-x2/2 + z*y1/3", "1"),
        g=(
            ("1 + x2^2/3", "0", "y2/7", "0", "0"),
            ("0", "1 + y2^2/4", "0", "x1*z/5", "0"),
            ("y2/7", "0", "1 + z^2/5", "0", "0"),
            ("0", "x1*z/5", "0", "1 + x1^2/6", "0"),
            ("0", "0", "0", "0", "0"),
        ),
        box=((-0.6, 0.6),) * 5,
        points=2,
        seed=5,
    )


def test_promotion_system_matches_scalar_loops_on_generic_chart():
    from contactconn.sampling import sample_box

    spec = generic_5d_spec()
    cs = spec.build()
    rng = np.random.default_rng(5)
    for p in sample_box(spec.box, 2, spec.seed):
        conn = canonical_partial_connection(cs, p)
        assert_promotion_system_matches_loops(conn)
        # An order-2 Gamma gives kappa order 2, so the system's
        # derivatives are checked too.
        assert_promotion_system_matches_loops(
            PartialConnection(conn.frame, random_jets(rng, cs.dim, conn.Gamma.shape))
        )


def random_jets(rng, dim, shape):
    """Order-2 jets of the given shape with random parts, symmetric
    Hessians."""
    t = JetArray.constant(0.0, dim, shape)
    t.value[...] = rng.standard_normal(t.value.shape)
    t.grad[...] = rng.standard_normal(t.grad.shape)
    h = rng.standard_normal(t.hess.shape)
    t.hess[...] = h + np.swapaxes(h, -1, -2)
    return t


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.grad, want.grad)


NABLA_POINTS = {
    "heisenberg-perturbed": (0.3, -0.4, 0.2),
    "n2-split": (0.3, -0.4, 0.2, 0.5, -0.1),
    "generic-5d": (0.2, -0.3, 0.1, 0.4, -0.25),
}


@pytest.mark.parametrize("name", sorted(NABLA_POINTS))
def test_nabla_H_matches_index_loop(name, rng):
    from contactconn.registry import get_manifold

    spec = generic_5d_spec() if name == "generic-5d" else get_manifold(name)
    conn = canonical_partial_connection(spec.build(), NABLA_POINTS[name])
    frame = conn.frame
    dim, m = frame.dim, 2 * frame.n
    X = frame.X
    kap = conn.kappa

    def scale(t):
        return scalar_nabla_H(magnitude(kap), magnitude(X), magnitude(t))

    alpha = random_jets(rng, dim, (m + 1,))
    got = nabla_H(conn, alpha)
    assert_within_rounding(got, scalar_nabla_H(kap, X, alpha), scale(alpha))
    assert_same_bits(promote(conn).derivative_of_oneform(alpha)[1:], got.restrict(0))
    for size in (m, m + 1):
        t = random_jets(rng, dim, (size, size))
        assert_within_rounding(nabla_H(conn, t), scalar_nabla_H(kap, X, t), scale(t))
    v = random_jets(rng, dim, (m + 1,))
    assert_within_rounding(
        nabla_H_vector(conn, v),
        scalar_nabla_H_vector(kap, X, v),
        scalar_nabla_H_vector(kap, X, v, absolute=True),
    )


# -- the value-only route -----------------------------------------------------
#
# The suites read values only: they promote the connection as built, whose
# kappa has order 1, and take its torsions at order 0. Value rules read no
# higher part, so every quantity on that route must have the bits of a
# higher-order one.

VALUE_ROUTE_CHARTS = [
    "heisenberg",
    "heisenberg-aniso",
    "heisenberg-perturbed",
    "sphere-chart",
    "n2-split",
    "heis7.json",
]


def lifted(conn):
    """conn with Gamma and its frame's Omega lifted to order 2 by a zero
    Hessian, so its kappa carries order 2 and its promotion system order 1."""

    def lift(x):
        return JetArray(x.dim, x.value, x.grad, np.zeros(x.grad.shape + (x.dim,)))

    frame = dataclasses.replace(conn.frame, Omega=lift(conn.frame.Omega))
    return PartialConnection(frame, lift(conn.Gamma))


def chart_connection(name):
    """The canonical connection at the first sample point of a built-in,
    or of a chart under tests/data/charts."""
    spec = chart_spec(name)
    cs = spec.build()
    return canonical_partial_connection(cs, sample_box(spec.box, 1, spec.seed)[0])


@pytest.mark.parametrize("name", VALUE_ROUTE_CHARTS)
class TestValueRoute:
    def test_promotion_at_order_zero_has_the_full_route_values(self, name):
        import form_helpers

        conn = chart_connection(name)
        full = lifted(conn)
        num, den = full.promotion_system
        num0, den0 = conn.promotion_system
        assert num0.top == den0.top == 0 and num.top == den.top == 1
        form_helpers.assert_same_bits(num0, num.restrict(0))
        form_helpers.assert_same_bits(den0, den.restrict(0))
        fc, fc0 = promote(full), promote(conn)
        assert (fc0.coeffs.top, fc.coeffs.top) == (0, 1)
        form_helpers.assert_same_bits(fc0.coeffs, fc.coeffs.restrict(0))
        assert fc0.partial is conn
        assert promotion_residual(fc0) == promotion_residual(fc)

    def test_torsions_at_order_zero_have_the_full_route_values(self, name):
        import form_helpers

        conn = chart_connection(name)
        tor0 = partial_torsion(conn.restrict(0))
        assert tor0.top == 0
        form_helpers.assert_same_bits(tor0, partial_torsion(conn).restrict(0))
        full0 = full_torsion(promote(conn))
        assert full0.top == 0
        form_helpers.assert_same_bits(full0, full_torsion(promote(lifted(conn))))

    def test_nabla_H_vector_is_derivative_with_dual_coefficients(self, name):
        import form_helpers
        from contactconn.connection import _derivative

        conn = chart_connection(name)
        frame = conn.frame
        for v in (frame.express_vector(frame.T), frame.express_vector(frame.X[0])):
            want = _derivative(frame.X, -conn.kappa.transpose(0, 2, 1), v)
            form_helpers.assert_same_bits(nabla_H_vector(conn, v), want)

    def test_nabla_H_vector_cuts_before_negating(self, name):
        # Cutting kappa to the derivative's order before negating it, and
        # so before _derivative's own cut, gives the same bits: the cut
        # _derivative makes is the only one the vector route needs.
        import form_helpers
        from contactconn.connection import _derivative

        conn = chart_connection(name)
        frame = conn.frame
        for v in (frame.express_vector(frame.T), frame.express_vector(frame.X[0])):
            kap = conn.kappa.restrict(max(v.top - 1, 0))
            assert kap.top == 0 < conn.kappa.top
            want = _derivative(frame.X, -kap.transpose(0, 2, 1), v)
            form_helpers.assert_same_bits(nabla_H_vector(conn, v), want)

    def test_library_orders_are_kept(self, name):
        # The order every library call gives for a connection as built.
        # Only mu, X and f carry order 2, since the structure values D read
        # their derivatives; every other frame quantity is built at order
        # 1, the order its readers read. Each array has the lowest order
        # of what goes into it: kappa Gamma's and Omega's, the promotion
        # system one below kappa's, the frame and coframe arrays T's and
        # the coframe's Reeb coefficients'.
        conn = chart_connection(name)
        frame = conn.frame
        fc = promote(conn)
        orders = {
            "mu": (frame.mu, 2),
            "X": (frame.X, 2),
            "f": (frame.f, 2),
            "theta_hat": (frame.theta_hat, 1),
            "dtheta_hat": (frame.dtheta_hat, 1),
            "T": (frame.T, 1),
            "c": (frame.c, 1),
            "Omega": (frame.Omega, 1),
            "df": (frame.df, 1),
            "D": (frame.D, 1),
            "kappa": (conn.kappa, 1),
            "partial_torsion": (partial_torsion(conn), 1),
            "frame_array": (frame.frame_array, 1),
            "coframe_array": (frame.coframe_array, 1),
            "num": (conn.promotion_system[0], 0),
            "den": (conn.promotion_system[1], 0),
            "promoted": (fc.coeffs, 0),
            "full_torsion": (full_torsion(fc), 0),
            "d_pairs": (frame.d_pairs, 0),
        }
        if frame.dim == 3:
            from contactconn.tw3d import solve_structure_equations

            td = solve_structure_equations(frame)
            orders["omega"] = (td.omega, 0)
            orders["classical"] = (td.classical.coeffs, 0)
            orders.update({k: (getattr(td, k), 0) for k in "ABR"})
        assert {k: x.top for k, (x, _) in orders.items()} == {k: o for k, (_, o) in orders.items()}


def test_restricted_connection_leaves_the_original_whole():
    conn = chart_connection("heisenberg-perturbed")
    kappa = conn.kappa
    cut = conn.restrict(0)
    assert cut.frame is conn.frame
    assert (cut.kappa.top, cut.Gamma.top) == (0, 0)
    assert conn.kappa is kappa and kappa.top == 1
    assert np.array_equal(cut.kappa.value, kappa.value)
