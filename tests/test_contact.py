"""Contact layer: contact test, Reeb field, normalization, adapted
frames, spectrum, classification.

Numeric expectations here are hand-derived for the built-in structures;
the derivations live in docs/oracles.md.
"""

import dataclasses
import math

import numpy as np
import pytest

from contactconn.contact import (
    ContactStructure,
    _reeb_from_values,
    adapted_frame,
    check_contact,
    classify,
    lambda_spectrum,
    reeb_field,
)
from contactconn.errors import (
    DegenerateFrameError,
    DegenerateMetricError,
    ExprDomainError,
    NotContactError,
)
from contactconn.expressions import parse_expr
from contactconn.forms import FormField, d_from_jets
from contactconn.jets import JetArray
from contactconn.registry import get_manifold
from form_helpers import coframe, evaluate, frame_vectors

P3 = (0.3, -0.4, 0.2)
P5 = (0.1, -0.3, 0.2, 0.4, 0.0)


def structure(coords, theta, g_rows, box_half=0.9):
    th = FormField.one_form([parse_expr(t, coords) for t in theta])
    g = tuple(tuple(parse_expr(e, coords) for e in row) for row in g_rows)
    box = ((-box_half, box_half),) * len(coords)
    return ContactStructure(tuple(coords), th, g, box)


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


class TestReebField:
    def test_heisenberg_vertical(self, heis):
        T = reeb_field(heis, P3)
        assert np.allclose(T.value, [0.0, 0.0, 1.0], atol=1e-14)

    def test_defining_equations_sphere(self, sphere):
        for p in [(0.1, -0.2, 0.3), (0.5, 0.4, -0.6)]:
            T = reeb_field(sphere, p)
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
            reeb_field(cs, P3)


class TestNormalizeTheta:
    def test_heisenberg_identity(self, heis):
        mu = adapted_frame(heis, P3).mu
        assert mu.value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(mu.grad, 0.0, atol=1e-14)
        assert np.allclose(mu.hess, 0.0, atol=1e-13)

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

    def test_orientation(self, sphere):
        frame = adapted_frame(sphere, (0.3, 0.2, -0.5))
        assert frame.Omega[0][1].value == pytest.approx(1.0, abs=1e-12)

    def test_h_choice_respected(self, heis):
        frame = adapted_frame(heis, P3, h_choice=(1, 2))
        assert frame.h_indices == (1, 2)
        assert frame.transversal_index == 0
        co = coframe(frame)
        vecs = frame_vectors(frame)
        for A in range(3):
            for B in range(3):
                want = 1.0 if A == B else 0.0
                assert abs(evaluate(co[A], vecs[B]).value - want) < 1e-11

    def test_h_choice_needs_transversal(self, heis):
        # excluding index 0 requires theta_x = -y != 0; fails on y = 0
        with pytest.raises(DegenerateFrameError):
            adapted_frame(heis, (0.3, 0.0, 0.2), h_choice=(1, 2))

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


class TestLibraryInputValidation:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda cs: adapted_frame(cs, P3, h_choice=(0, 3)), r"h_choice \(0, 3\)"),
            (lambda cs: adapted_frame(cs, P3, h_choice=(0, -1)), r"h_choice \(0, -1\)"),
            (lambda cs: cs.inputs_at((0.3, -0.4)), "point has 2 coordinates, the chart has 3"),
            (lambda cs: cs.inputs_at(P3 + (0.1,)), "point has 4 coordinates, the chart has 3"),
        ],
        ids=["h-index-too-large", "h-index-negative", "short-point", "long-point"],
    )
    def test_rejected_with_a_named_problem(self, heis, call, message):
        with pytest.raises(ValueError, match=message):
            call(heis)


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
    def test_heisenberg(self, heis):
        out = classify(heis, [P3, (0.1, 0.2, 0.3)])
        assert out["contact"] is True
        assert out["cr_compatible"] is True
        assert out["partially_integrable"] is True
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

    def test_split_not_cr(self):
        cs = get_manifold("n2-split").build()
        out = classify(cs, [P5, (0.2, 0.1, -0.1, 0.3, 0.4)])
        assert out["cr_compatible"] is False
        assert out["partially_integrable"] is True
        assert out["spectrum"]["lambda_min"] == pytest.approx(
            [1.3719886811400708, 0.3429971702850177], abs=1e-12
        )

    def test_sphere_pseudo_hermitian(self):
        cs = get_manifold("sphere-chart").build()
        out = classify(cs, [(0.1, -0.2, 0.3), (0.4, 0.5, -0.3)])
        assert out["cr_compatible"] is True
