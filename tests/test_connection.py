"""Partial connection layer: sigma algebra, base and canonical
constructions, torsion, H-covariant derivatives, promotion.
"""

import dataclasses

import numpy as np
import pytest

from contactconn.connection import (
    FullConnection,
    base_partial_connection,
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
from contactconn.contact import ContactStructure, adapted_frame, max_abs
from contactconn.errors import SymmetryError
from contactconn.expressions import parse_expr
from contactconn.forms import FormField
from contactconn.jets import JetArray, Tape, eval_jet
from form_helpers import (
    assert_within_rounding,
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
    box = ((-0.9, 0.9),) * len(coords)
    return ContactStructure(tuple(coords), th, g, box)


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


class TestBaseConnection:
    def test_is_half_structure_values(self, heisenberg):
        frame = adapted_frame(heisenberg, P3)
        base = base_partial_connection(frame)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    want = -0.5 * frame.D[b][a][c].value
                    assert base.Gamma[a][b][c].value == pytest.approx(want, abs=1e-15)

    def test_base_is_torsion_free(self, perturbed):
        frame = adapted_frame(perturbed, P3)
        base = base_partial_connection(frame)
        tor = partial_torsion(base)
        assert max_abs(tor.value[1:]) < 1e-12

    def test_theta_row_is_levi_form(self, perturbed):
        frame = adapted_frame(perturbed, P3)
        tor = partial_torsion(base_partial_connection(frame))
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


class TestFrameIndependence:
    def test_h_choice_gives_same_action(self, perturbed):
        v = vector_jets(perturbed, ("y*z", "x", "x - z^2"), P3)
        conn1 = canonical_partial_connection(perturbed, P3)
        frame2 = adapted_frame(perturbed, P3, h_choice=(1, 2))
        conn2 = canonical_partial_connection(perturbed, P3, frame=frame2)
        n1 = conn1.coordinate_action_on_vector(v)
        n2 = conn2.coordinate_action_on_vector(v)
        assert np.max(np.abs(n1 - n2)) < 1e-9

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
        conn = canonical_partial_connection(perturbed, P3)
        fc = promote(conn)
        assert fc.partial is conn
        for part in ("value", "grad", "hess"):
            np.testing.assert_array_equal(getattr(fc.coeffs, part)[1:], getattr(conn.kappa, part))
        np.testing.assert_array_equal(fc.coeffs.order[1:], conn.kappa.order)

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
    Omega cut to order 1, the order of the num it divides. With absolute,
    every input part is replaced by its absolute value and the difference
    by a sum, which gives the sum of |terms|."""
    from contactconn.forms import apply_vector

    frame = conn.frame
    m = 2 * frame.n
    mag = magnitude if absolute else (lambda a: a)
    kap = mag(conn.kappa)
    X = mag(frame.X)
    D = mag(frame.D)
    Om = mag(frame.Omega)
    Om1 = Om.restrict(1)

    def K(u, v, A, C):
        lead = apply_vector(X[u], kap[v][A][C])
        return lead + sum_jets(kap[v][A][E] * kap[u][E][C] for E in range(m + 1))

    def obstruction(u, v, A, C):
        cc = sum_jets(D[e][u][v] * kap[e][A][C] for e in range(m))
        other = K(v, u, A, C)
        return (cc + K(u, v, A, C) + (other if absolute else -other)) * Om[u][v]

    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    den = sum_jets(Om1[u][v] * Om1[u][v] for u, v in pairs)
    num = [
        [sum_jets(obstruction(u, v, A, C) for u, v in pairs) for C in range(m + 1)]
        for A in range(m + 1)
    ]
    return num, den


def assert_promotion_system_matches_loops(conn):
    num, den = conn.promotion_system
    want_num, want_den = scalar_promotion_system(conn)
    scale_num, scale_den = scalar_promotion_system(conn, absolute=True)
    assert den.order == 1
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
    for p in sample_box(spec.box, 2, spec.seed):
        assert_promotion_system_matches_loops(canonical_partial_connection(cs, p))


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
    assert_same_bits(promote(conn).derivative_of_oneform(alpha)[1:], got)
    for size in (m, m + 1):
        t = random_jets(rng, dim, (size, size))
        assert_within_rounding(nabla_H(conn, t), scalar_nabla_H(kap, X, t), scale(t))
    v = random_jets(rng, dim, (m + 1,))
    assert_within_rounding(
        nabla_H_vector(conn, v),
        scalar_nabla_H_vector(kap, X, v),
        scalar_nabla_H_vector(kap, X, v, absolute=True),
    )
