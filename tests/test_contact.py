"""Contact layer: contact test, Reeb field, normalization, adapted
frames, spectrum, classification.

Numeric expectations here are hand-derived for the built-in structures;
the derivations live in docs/oracles.md.
"""

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from contactconn.contact import (
    ContactStructure,
    _reeb_from_values,
    adapted_frame,
    check_contact,
    classify,
    lambda_spectrum,
    rotate_frame,
)
from contactconn.errors import (
    AllPointsSkippedError,
    DegenerateMetricError,
    ExprDomainError,
    NotContactError,
)
from contactconn.expressions import parse_expr
from contactconn.forms import FormField, d_from_jets, evaluate_forms, increasing_indices
from contactconn.jets import JetArray, eval_jet
from contactconn.registry import builtin_registry, get_manifold, load_spec
from contactconn.sampling import sample_box
from contactconn.tw3d import rotate_coframe
from form_helpers import (
    assert_same_bits,
    cayley_rotation,
    coframe,
    evaluate,
    frame_vectors,
    sum_jets,
)

CHARTS_DIR = Path(__file__).parent / "data" / "charts"
# Every built-in and the 7D chart.
CHARTS = [spec.name for spec in builtin_registry()] + ["heis7.json"]
P3 = (0.3, -0.4, 0.2)
P5 = (0.1, -0.3, 0.2, 0.4, 0.0)


def chart(name):
    """A built-in's spec, or that of a chart file under CHARTS_DIR."""
    return load_spec(CHARTS_DIR / name) if name.endswith(".json") else get_manifold(name)


def structure(coords, theta, g_rows):
    th = FormField.one_form([parse_expr(t, coords) for t in theta])
    g = tuple(tuple(parse_expr(e, coords) for e in row) for row in g_rows)
    return ContactStructure(tuple(coords), th, g)


@pytest.fixture
def heis():
    return get_manifold("heisenberg").build()


@pytest.fixture
def sphere():
    return get_manifold("sphere-chart").build()


class TestCheckContact:
    def test_heisenberg_passes(self, heis):
        for p in [P3, (0.0, 0.0, 0.0), (-0.8, 0.8, -0.8)]:
            assert check_contact(heis, p).passed

    def test_top_coefficient_value(self, heis):
        # theta ^ dtheta = (dz - y dx) ^ (dx ^ dy) = dx ^ dy ^ dz
        chk = check_contact(heis, P3)
        assert chk.coefficient == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_fails(self):
        cs = structure(("x", "y", "z"), ("0", "0", "1"), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])
        assert not check_contact(cs, P3).passed

    def test_verdict_scale_invariant(self, heis):
        tiny = dataclasses.replace(
            heis,
            theta=FormField.one_form(
                [parse_expr(f"({t}) * 1e-9", heis.coords) for t in ("-y", "0", "1")]
            ),
        )
        assert check_contact(tiny, P3).passed


def reeb(cs, p):
    """The Reeb field of cs's raw theta at p, at full order."""
    inputs = cs.inputs_at(p)
    return _reeb_from_values(inputs.theta, inputs.dtheta)


class TestReebField:
    def test_heisenberg_vertical(self, heis):
        T = reeb(heis, P3)
        assert np.allclose(T.value, [0.0, 0.0, 1.0], atol=1e-14)

    def test_defining_equations_sphere(self, sphere):
        for p in [(0.1, -0.2, 0.3), (0.5, 0.4, -0.6)]:
            T = reeb(sphere, p)
            theta = sphere.theta.eval(p, 1)
            dtheta = sphere.theta.d().eval(p, 1)
            assert abs(evaluate(theta, T).value - 1.0) < 1e-12
            dim = sphere.dim
            for i in range(dim):
                e_i = JetArray.constant(0.0, dim, (dim,), 1)
                e_i.value[i] = 1.0
                assert abs(evaluate(dtheta, T, e_i).value) < 1e-12

    def test_one_form_value_input(self, heis):
        # The Reeb solve on theta_hat with its d from the jets, one order
        # lower, agrees with the frame's, whose dtheta_hat is built
        # structurally.
        frame = adapted_frame(heis, P3)
        th = frame.theta_hat
        T = _reeb_from_values(th, d_from_jets(th, 1))
        assert np.allclose(T.value, frame.T.value, atol=1e-12)

    def test_non_contact_raises(self):
        cs = structure(("x", "y", "z"), ("0", "0", "1"), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]])
        with pytest.raises(NotContactError):
            reeb(cs, P3)


class TestNormalizeTheta:
    def test_heisenberg_identity(self, heis):
        mu = adapted_frame(heis, P3).mu
        assert mu.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(mu.grad, 0.0, atol=1e-14)
        assert np.allclose(mu.hess, 0.0, atol=1e-13)

    def test_dtheta_vanishing_on_h_raises(self):
        # theta = dz is closed, so there is no mu to normalize it with.
        cs = structure(("x", "y", "z"), ("0", "0", "1"), get_manifold("heisenberg").g)
        with pytest.raises(NotContactError, match="dtheta vanishes on the distribution"):
            adapted_frame(cs, P3)

    def test_aniso_scales_by_b(self):
        spec = get_manifold("heisenberg-aniso")
        assert adapted_frame(spec.build(), P3).mu.value == pytest.approx(2.0, abs=1e-13)
        assert adapted_frame(spec.build({"b": 3.0}), P3).mu.value == pytest.approx(3.0, abs=1e-13)

    def test_split_value(self):
        cs = get_manifold("n2-split").build()
        want = math.sqrt(2.0 / (1.0 + 2.0**-4))
        assert adapted_frame(cs, P5).mu.value == pytest.approx(want, abs=1e-13)

    def test_sphere_constant_half(self, sphere):
        for p in [(0.1, -0.2, 0.3), (0.5, 0.4, -0.6), (0.0, 0.0, 0.0)]:
            assert adapted_frame(sphere, p).mu.value == pytest.approx(0.5, abs=1e-12)

    def test_sign_flip_keeps_mu(self, heis):
        neg = dataclasses.replace(
            heis, theta=FormField.one_form([parse_expr(t, heis.coords) for t in ("y", "0", "-1")])
        )
        assert adapted_frame(neg, P3).mu.value == pytest.approx(1.0, abs=1e-14)

    def test_normalized_norm_is_2n(self, sphere):
        # after scaling, sum of squared frame pairings of d(theta_hat) is 2n
        frame = adapted_frame(sphere, (0.2, -0.1, 0.4))
        total = sum(frame.Omega[a][c].value ** 2 for a in range(2) for c in range(2))
        assert total == pytest.approx(2.0, abs=1e-11)


class TestAdaptedFrame:
    def test_heisenberg_explicit(self, heis):
        frame = adapted_frame(heis, P3)
        assert np.allclose(frame.X.value[0], [1.0, 0.0, -0.4], atol=1e-14)
        assert np.allclose(frame.X.value[1], [0.0, 1.0, 0.0], atol=1e-14)
        assert np.allclose(frame.T.value, [0.0, 0.0, 1.0], atol=1e-14)
        assert frame.c[0].value == pytest.approx(0.0, abs=1e-14)
        assert frame.c[1].value == pytest.approx(0.0, abs=1e-14)

    def test_duality(self, sphere):
        frame = adapted_frame(sphere, (0.3, 0.2, -0.5))
        co = coframe(frame)
        vecs = frame_vectors(frame)
        for A in range(3):
            for B in range(3):
                want = 1.0 if A == B else 0.0
                assert abs(evaluate(co[A], vecs[B]).value - want) < 1e-12

    @pytest.mark.parametrize("name", CHARTS)
    def test_frame_is_orthonormal_in_every_part(self, name):
        # g(X_a, X_b) = delta_ab as a jet: value 1 or 0, gradient and
        # Hessian 0, summed term by term from g's entries.
        spec = chart(name)
        cs = spec.build()
        for p in sample_box(spec.box, 3, 7):
            G = cs.inputs_at(p).G
            X = adapted_frame(cs, p).X
            assert X.top == 2
            m, d = X.shape
            for a, b in itertools.product(range(m), repeat=2):
                gab = sum_jets(G[i, j] * X[a, i] * X[b, j] for i in range(d) for j in range(d))
                assert abs(gab.value - (a == b)) < 1e-13
                assert np.max(np.abs(gab.grad)) < 1e-12
                assert np.max(np.abs(gab.hess)) < 1e-11

    def test_orientation(self, sphere):
        frame = adapted_frame(sphere, (0.3, 0.2, -0.5))
        assert frame.Omega[0][1].value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", CHARTS)
    def test_rotated_frame_is_dual(self, name):
        spec = chart(name)
        cs = spec.build()
        p = sample_box(spec.box, 1, 5)[0]
        frame = rotate_frame(adapted_frame(cs, p), cayley_rotation(p, 3))
        co = coframe(frame)
        vecs = frame_vectors(frame)
        for A in range(cs.dim):
            for B in range(cs.dim):
                want = 1.0 if A == B else 0.0
                assert abs(evaluate(co[A], vecs[B]).value - want) < 1e-11

    def test_degenerate_metric_raises(self):
        cs = structure(
            ("x", "y", "z"), ("-y", "0", "1"),
            [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]],
        )
        with pytest.raises(DegenerateMetricError):
            adapted_frame(cs, P3)

    def test_theta_flip_flips_hat_and_reeb(self, heis):
        neg = dataclasses.replace(
            heis, theta=FormField.one_form([parse_expr(t, heis.coords) for t in ("y", "0", "-1")])
        )
        f_pos = adapted_frame(heis, P3)
        f_neg = adapted_frame(neg, P3)
        for i in range(3):
            assert abs((f_pos.theta_hat[i] + f_neg.theta_hat[i]).value) < 1e-14
            assert abs((f_pos.T[i] + f_neg.T[i]).value) < 1e-13
        # orientation still positive in the flipped frame
        assert f_neg.Omega[0][1].value == pytest.approx(1.0, abs=1e-12)

    def test_replaced_coframe_derives_its_structure_values(self):
        # A frame with a replaced Reeb coefficient reads D and d_pairs off
        # its own f, c and X, even after the original frame derived them.
        cs = get_manifold("heisenberg-perturbed").build()
        frame = adapted_frame(cs, P3)
        assert frame.D is not None and frame.d_pairs is not None
        shift = JetArray.constant(0.0, frame.dim, (2,))
        shift[0] = eval_jet(parse_expr("x", cs.coords), P3, 2)
        new = dataclasses.replace(frame, c=frame.c + shift)
        want = evaluate_forms(d_from_jets(new.f, 1), new.X, new.X)
        want = want + new.c[:, None, None] * new.Omega
        # The H-H block of d_pairs holds D above the diagonal and its
        # negatives below.
        iu, ju = np.triu_indices(2, 1)
        for got, expected in ((new.D, want), (new.d_pairs[1:, iu + 1, ju + 1], want[:, iu, ju])):
            k = min(got.top, expected.top)
            assert_same_bits(got.restrict(k), expected.restrict(k))

    @pytest.mark.parametrize("name", CHARTS)
    def test_d_pairs_matches_its_entries(self, name):
        spec = chart(name)
        cs = spec.build()
        p = sample_box(spec.box, 1, 5)[0]
        frame = adapted_frame(cs, p)
        frames = [frame, rotate_frame(frame, cayley_rotation(p, 2))]
        frames += [rotate_coframe(frame, 0.7)] if cs.dim == 3 else []
        for fr in frames:
            assert fr.d_pairs.top == 0
            assert_same_bits(fr.d_pairs, d_pairs_by_entry(fr))


def d_pairs_by_entry(frame):
    """AdaptedFrame.d_pairs written entry by entry: on (T, X_a) the
    pairings of d(theta_hat) and of d(e^b) = d(f^b) + dc^b ^ theta_hat +
    c^b d(theta_hat), each form paired on its own; on (X_a, X_c), a < c,
    Omega and D; their negatives below the diagonal and zeros on it. At
    order 0, the order of the dc^b terms."""
    m, dim = 2 * frame.n, frame.dim
    dc, th, c = frame.c.partials(), frame.theta_hat, frame.c
    pairs = increasing_indices(dim, 2)
    # dc^b ^ theta_hat on the coordinate pairs (i, j): (0 + dc_i th_j) - dc_j th_i.
    dc_th = JetArray.constant(0.0, dim, (m, len(pairs)), 0)
    for b in range(m):
        for x, (i, j) in enumerate(pairs):
            dc_th[b, x] = (0.0 + dc[i, b] * th[j]) - dc[j, b] * th[i]

    def on_TX(form):
        return evaluate_forms(form, frame.T[None], frame.X)[0]

    dth = on_TX(frame.dtheta_hat)
    out = JetArray.constant(0.0, dim, (m + 1,) * 3, 0)
    for a in range(m):
        out[0, 0, a + 1], out[0, a + 1, 0] = dth[a], -dth[a]
    for b in range(m):
        df, dcth = on_TX(frame.df[b]), on_TX(dc_th[b])
        for a in range(m):
            e = (df[a] + dcth[a]) + dth[a] * c[b]
            out[b + 1, 0, a + 1], out[b + 1, a + 1, 0] = e, -e
    for a, q in itertools.combinations(range(m), 2):
        for A, value in enumerate([frame.Omega[a, q]] + [frame.D[b, a, q] for b in range(m)]):
            out[A, a + 1, q + 1], out[A, q + 1, a + 1] = value, -value
    return out


def rotate(cs, shape, dim=None, diagonal=(1.0, 1.0)):
    """rotate_frame of the adapted frame at P3 by a jet matrix of the
    given shape and jet dimension (the chart's by default), zero but for
    its leading diagonal, whose entries are numbers or single jets."""
    Q = JetArray.constant(0.0, dim or cs.dim, shape)
    for i, entry in enumerate(diagonal):
        Q[i, i] = entry
    return rotate_frame(adapted_frame(cs, P3), Q)


def perturbed():
    return get_manifold("heisenberg-perturbed").build()


def orthogonal_at_p3_only():
    """(1 + x - 0.3) I at P3: the identity in value, whose Q Q^T has the
    gradient 2 dx I."""
    s = JetArray.coordinate(P3, 0, 2) + 0.7
    return (s, s)


class TestLibraryInputValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda cs: rotate(cs, (3, 3)), r"Q must be a \(2, 2\) matrix, got shape \(3, 3\)"),
            (lambda cs: rotate(cs, (2, 2), dim=5), "Q holds jets in dimension 5"),
            (lambda cs: rotate(cs, (2, 2), diagonal=(1.0, 1.0 + 1e-9)), "not orthogonal"),
            (
                lambda cs: rotate(perturbed(), (2, 2), diagonal=orthogonal_at_p3_only()),
                r"not orthogonal: the order-1 part of Q Q\^T - I is 2\.000e\+00",
            ),
            (lambda cs: rotate(cs, (2, 2), diagonal=(1.0, -1.0)), "rotation in dimension 3"),
            (lambda cs: cs.inputs_at((0.3, -0.4)), "point has 2 coordinates, the chart has 3"),
            (lambda cs: cs.inputs_at(P3 + (0.1,)), "point has 4 coordinates, the chart has 3"),
            (
                lambda cs: ContactStructure(cs.coords[:2], cs.theta, cs.g),
                "dimension must be odd and >= 3, got 2",
            ),
            (
                lambda cs: ContactStructure(cs.coords, cs.dtheta, cs.g),
                "theta must be a 1-form in the chart dimension",
            ),
            (lambda cs: ContactStructure(cs.coords, cs.theta, cs.g[:2]), "g must be a dim x dim matrix"),
        ],
        ids=[
            "frame-change-shape",
            "frame-change-dimension",
            "frame-change-not-orthogonal",
            "frame-change-orthogonal-in-value-only",
            "frame-change-reflection",
            "short-point",
            "long-point",
            "structure-dimension",
            "structure-theta",
            "structure-metric",
        ],
    )
    def test_rejected_with_a_named_problem(self, heis, call, message):
        with pytest.raises(ValueError, match=message):
            call(heis)


class TestMismatchedArguments:
    # Inputs from another point would give a frame labelled p with the
    # mu of that other point: 1.0594810050208545 in place of p's own.
    def test_inputs_from_another_point_are_refused(self):
        cs = perturbed()
        p, q = (0.5, 0.1, 0.2), (-0.7, 0.3, 0.1)
        message = (
            r"inputs were evaluated at \(-0\.7, 0\.3, 0\.1\), "
            r"not at the point \(0\.5, 0\.1, 0\.2\)"
        )
        for call in (adapted_frame, check_contact):
            with pytest.raises(ValueError, match=message):
                call(cs, p, inputs=cs.inputs_at(q))
        # The same point in another form is the same point.
        inputs = cs.inputs_at(list(p))
        assert inputs.p == p and inputs.cs is cs
        assert float(adapted_frame(cs, np.array(p), inputs=inputs).mu.value) == 1.0307764064044151
        assert check_contact(cs, p, inputs=inputs).passed

    # heisenberg's inputs at P3 would give perturbed's frame heisenberg's
    # mu = 1.0 in place of its own.
    def test_inputs_from_another_chart_are_refused(self, heis):
        cs = perturbed()
        assert float(adapted_frame(cs, P3).mu.value) == pytest.approx(1.0111874208078342, rel=1e-12)
        message = (
            r"inputs were evaluated on the chart with coordinates \(x, y, z\), "
            r"theta \(-y, 0, 1\), g \(1, 0, 0; 0, 1, 0; 0, 0, 0\), "
            r"not on the chart with .*g \(1, 0, 0; 0, 1 \+ x\^2 / 4, 0; 0, 0, 0\)"
        )
        for call in (adapted_frame, check_contact):
            with pytest.raises(ValueError, match=message):
                call(cs, P3, inputs=heis.inputs_at(P3))

    @pytest.mark.parametrize("order", [0, 1])
    def test_a_rotation_below_the_frame_order_is_refused(self, order):
        # Such a Q would give a frame whose X has Q's order, on which the
        # connection or the structure solve raises, far from the cause.
        for cs in (get_manifold("heisenberg").build(), perturbed()):
            frame = adapted_frame(cs, P3)
            Q = cayley_rotation(P3, 0).restrict(order)
            message = f"Q has jet order {order}, below the frame's order 2"
            with pytest.raises(ValueError, match=message):
                rotate_frame(frame, Q)


class TestNonFiniteInputs:
    # Each metric entry has no finite jet at x = 105 or x = 750: exp and
    # the integer power overflow in math, the product of two finite
    # powers overflows to inf in numpy, and sin cannot take that inf.
    @pytest.mark.parametrize(
        "g11, bad_x",
        [
            ("1 + exp(x)", 750.0),
            ("1 + x^200", 50.0),
            ("1 + x^150*x^150", 105.0),
            ("2 + sin(x^150*x^150)", 105.0),
        ],
    )
    def test_bad_point_raises_domain_error_good_point_evaluates(self, g11, bad_x):
        cs = structure(
            ("x", "y", "z"), ("-y", "0", "1"), [[g11, "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
        )
        assert np.all(np.isfinite(cs.inputs_at((0.3, 0.1, 0.0)).G.hess))
        with pytest.raises(ExprDomainError):
            cs.inputs_at((bad_x, 0.1, 0.0))


class TestSpectrum:
    def test_heisenberg_unit(self, heis):
        lam = lambda_spectrum(adapted_frame(heis, P3))
        assert len(lam) == 1
        assert lam[0] == pytest.approx(1.0, abs=1e-12)

    def test_split_values(self):
        cs = get_manifold("n2-split").build()
        lam = lambda_spectrum(adapted_frame(cs, P5))
        mu = math.sqrt(2.0 / (1.0 + 2.0**-4))
        assert list(lam) == pytest.approx([mu, mu / 4.0], abs=1e-12)

    def test_sum_of_squares_is_n(self):
        cs = get_manifold("n2-split").build()
        lam = lambda_spectrum(adapted_frame(cs, (0.4, 0.1, -0.2, 0.3, 0.5)))
        assert sum(v * v for v in lam) == pytest.approx(2.0, abs=1e-11)

    def test_descending(self):
        cs = get_manifold("n2-split").build()
        lam = list(lambda_spectrum(adapted_frame(cs, P5)))
        assert lam == sorted(lam, reverse=True)


class TestClassify:
    def test_no_usable_point_raises(self):
        # heisenberg-aniso (b = 2) is not CR-compatible, which no point
        # shows when none is given.
        with pytest.raises(AllPointsSkippedError):
            classify(get_manifold("heisenberg-aniso").build(), [])
        # g = 0 is degenerate on H, so screening skips every point.
        zero = structure(("x", "y", "z"), ("-y", "0", "1"), [["0"] * 3] * 3)
        with pytest.raises(AllPointsSkippedError) as exc:
            classify(zero, [P3, (0.1, 0.2, 0.3)])
        reason = "metric restricted to the contact distribution is not positive definite"
        assert exc.value.reasons == (reason, reason)
        assert str(exc.value) == f"none of the 2 points is usable (2 points: {reason})"

    def test_heisenberg(self, heis):
        out = classify(heis, [P3, (0.1, 0.2, 0.3)])
        assert out["contact"] is True
        assert out["cr_compatible"] is True
        assert out["spectrum"]["count"] == 2
        assert out["spectrum"]["skipped"] == 0

    @pytest.mark.parametrize("g11", ["sqrt(x)", "x"])
    def test_point_that_screening_rejects_is_skipped(self, g11):
        # At x < 0, sqrt(x) cannot be evaluated and x makes the metric on
        # H indefinite: screening rejects that point, as run_suites does,
        # and the other one is classified.
        cs = structure(
            ("x", "y", "z"), ("-y", "0", "1"), [[g11, "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
        )
        out = classify(cs, [(0.3, 0.1, 0.0), (-0.3, 0.1, 0.0)])
        assert out["contact"] is True
        assert out["spectrum"]["count"] == 2
        assert out["spectrum"]["skipped"] == 1
        assert len(out["spectrum"]["lambda_min"]) == 1

    def test_non_contact_point_clears_the_contact_flag(self):
        # theta ^ dtheta = x^2 dx ^ dy ^ dz vanishes at x = 0: that point
        # is skipped and clears the flag, the other one is classified.
        cs = structure(("x", "y", "z"), ("-x*y", "0", "x"), get_manifold("heisenberg").g)
        out = classify(cs, [(0.0, 0.1, 0.2), (0.3, 0.1, 0.2)])
        assert out["contact"] is False
        assert out["cr_compatible"] is False
        assert out["spectrum"]["count"] == 2
        assert out["spectrum"]["skipped"] == 1

    def test_split_not_cr(self):
        cs = get_manifold("n2-split").build()
        out = classify(cs, [P5, (0.2, 0.1, -0.1, 0.3, 0.4)])
        assert out["cr_compatible"] is False
        assert out["spectrum"]["lambda_min"] == pytest.approx(
            [1.3719886811400708, 0.3429971702850177], abs=1e-12
        )

    def test_sphere_pseudo_hermitian(self):
        cs = get_manifold("sphere-chart").build()
        out = classify(cs, [(0.1, -0.2, 0.3), (0.4, 0.5, -0.3)])
        assert out["cr_compatible"] is True
