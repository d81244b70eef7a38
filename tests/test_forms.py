import numpy as np
import pytest

from contactconn.expressions import lit, parse_expr
from contactconn.forms import (
    FormField,
    d_from_jets,
    evaluate_forms,
    increasing_indices,
    wedge,
)
from contactconn.jets import JetArray, Tape
from form_helpers import (
    comp,
    evaluate,
    exterior_derivative,
    express_in_coframe,
    from_coframe,
    interior_product,
    scalar_evaluate,
    scalar_wedge,
    stack,
    sum_jets,
)

XYZ = ("x", "y", "z")


def jets_of(texts, p, order=2):
    """The expressions' jets at p as one JetArray, through one tape."""
    return Tape([parse_expr(t, XYZ) for t in texts]).eval(p, order)


one_form = vector = jets_of


def max_abs(a: JetArray) -> float:
    return float(np.max(np.abs(a.value)))


class TestWedge:
    def test_dx_wedge_dy(self):
        p = (0.0, 0.0, 0.0)
        dx = one_form(["1", "0", "0"], p)
        dy = one_form(["0", "1", "0"], p)
        w = wedge(dx, 1, dy, 1)
        assert w.shape == (3,)
        assert comp(w, 2, (0, 1)).value == 1.0
        assert comp(w, 2, (0, 2)).value == 0.0

    def test_graded_commutativity_one_forms(self):
        p = (0.3, -0.5, 0.8)
        a = one_form(["y", "x*z", "1"], p)
        b = one_form(["sin(x)", "2", "x - y"], p)
        ab = wedge(a, 1, b, 1)
        ba = wedge(b, 1, a, 1)
        for idx in increasing_indices(3, 2):
            assert comp(ab, 2, idx).value == pytest.approx(-comp(ba, 2, idx).value, abs=1e-15)

    def test_one_wedge_two_commutes(self):
        p = (0.3, -0.5, 0.8)
        a = one_form(["y", "x*z", "1"], p)
        b = wedge(one_form(["1", "x", "0"], p), 1, one_form(["0", "z", "1"], p), 1)
        ab = wedge(a, 1, b, 2)
        ba = wedge(b, 2, a, 1)
        assert comp(ab, 3, (0, 1, 2)).value == pytest.approx(comp(ba, 3, (0, 1, 2)).value)

    def test_degree_overflow(self):
        p = (0, 0, 0)
        top = wedge(wedge(one_form(["1", "0", "0"], p), 1, one_form(["0", "1", "0"], p), 1),
                    2, one_form(["0", "0", "1"], p), 1)
        with pytest.raises(ValueError):
            wedge(top, 3, one_form(["1", "0", "0"], p), 1)

    def test_kernels_reject_a_wrong_layout(self):
        # Three components hold 1-forms or 2-forms in dimension 3, never
        # 0-forms or 3-forms.
        a = one_form(["x", "y", "z"], (0.1, 0.2, 0.3))
        with pytest.raises(ValueError, match="does not hold 3-forms"):
            d_from_jets(a, 3)
        with pytest.raises(ValueError, match="does not hold 0-forms"):
            wedge(a, 0, a, 1)
        with pytest.raises(ValueError, match="does not hold 3-forms"):
            evaluate_forms(a, a[None], a[None], a[None])


class TestEvaluate:
    def test_two_form_determinant_convention(self):
        p = (0.0, 0.0, 0.0)
        dx = one_form(["1", "0", "0"], p)
        dy = one_form(["0", "1", "0"], p)
        w = wedge(dx, 1, dy, 1)
        u = vector(["1", "0", "0"], p)
        v = vector(["0", "1", "0"], p)
        assert evaluate(w, u, v).value == 1.0
        assert evaluate(w, v, u).value == -1.0
        assert evaluate(w, u, u).value == 0.0

    def test_one_form_pairing(self):
        p = (2.0, 3.0, 0.0)
        a = one_form(["y", "x", "0"], p)
        v = vector(["1", "1", "5"], p)
        assert evaluate(a, v).value == 5.0


class TestInteriorProduct:
    def test_contraction_of_wedge(self):
        p = (0.1, 0.2, 0.3)
        a = one_form(["y", "0", "x"], p)
        b = one_form(["1", "z", "0"], p)
        v = vector(["z", "1", "x*y"], p)
        # antiderivation: i_v(a ^ b) = a(v) b - b(v) a
        lhs = interior_product(v, wedge(a, 1, b, 1), 2)
        av = evaluate(a, v)
        bv = evaluate(b, v)
        rhs = b * av - a * bv
        assert lhs.shape == a.shape
        assert max_abs(lhs - rhs) < 1e-14

    def test_contraction_drops_degree(self):
        p = (0.1, 0.2, 0.3)
        a = one_form(["y", "0", "x"], p)
        v = vector(["1", "2", "3"], p)
        out = interior_product(v, a, 1)
        assert out.shape == (1,)
        assert comp(out, 0, ()).value == pytest.approx(evaluate(a, v).value)


HEIS_THETA = FormField.one_form([parse_expr(t, XYZ) for t in ("-y", "0", "1")])


class TestExteriorDerivative:
    def test_heisenberg_dtheta(self):
        # d(dz - y dx) = dx ^ dy
        p = (0.7, -0.4, 0.2)
        dt = exterior_derivative(HEIS_THETA, p, 2)
        assert comp(dt, 2, (0, 1)).value == 1.0
        assert comp(dt, 2, (0, 2)).value == 0.0
        assert comp(dt, 2, (1, 2)).value == 0.0

    def test_d_squared_zero_symbolic(self):
        f = FormField.one_form([parse_expr(t, XYZ) for t in ("x*y*z", "sin(x)+z^2", "exp(y)")])
        ddf = f.d().d()
        p = (0.3, 0.1, -0.6)
        val = ddf.eval(p, 0)
        assert max_abs(val) == 0.0

    def test_d_squared_zero_jet_route(self):
        f = FormField.one_form([parse_expr(t, XYZ) for t in ("x*y*z", "sin(x)+z^2", "exp(y)")])
        p = (0.3, 0.1, -0.6)
        df = f.eval(p, 2)
        ddf = d_from_jets(d_from_jets(df, 1), 2)
        assert max_abs(ddf) < 1e-13

    def test_jet_route_matches_symbolic(self):
        f = FormField(3, 1, {
            (0,): parse_expr("sin(x*y)", XYZ),
            (1,): parse_expr("z/(2+x)", XYZ),
            (2,): parse_expr("sqrt(4+y*y)", XYZ),
        })
        p = (0.5, -0.3, 0.9)
        sym = f.d().eval(p, 1)
        jet = d_from_jets(f.eval(p, 2), 1)
        for x in range(3):
            assert sym[x].value == pytest.approx(jet[x].value, abs=1e-13)
            assert np.allclose(sym[x].grad, jet[x].grad, atol=1e-12)

    def test_leibniz_rule(self):
        # d(a ^ b) = da ^ b - a ^ db for one-forms a, b
        a = FormField.one_form([parse_expr(t, XYZ) for t in ("y*y", "x", "0")])
        b = FormField.one_form([parse_expr(t, XYZ) for t in ("z", "0", "x*y")])
        p = (0.4, 0.6, -0.2)
        ab = wedge(a.eval(p, 2), 1, b.eval(p, 2), 1)
        lhs = d_from_jets(ab, 2)
        rhs = wedge(a.d().eval(p, 1), 2, b.eval(p, 1), 1) - wedge(
            a.eval(p, 1), 1, b.d().eval(p, 1), 2
        )
        assert max_abs(lhs - rhs) < 1e-11


class TestCoframe:
    def make_coframe(self, p):
        # invertible frame of one-forms on R^3
        rows = [
            ("1", "y", "0"),
            ("0", "1", "x"),
            ("z", "0", "2"),
        ]
        return [one_form(list(r), p) for r in rows]

    def test_express_then_rebuild_one_form(self):
        p = (0.3, 0.7, -0.5)
        co = self.make_coframe(p)
        a = one_form(["sin(x)", "x*z", "1 - y"], p)
        comps = express_in_coframe(a, 1, co)
        back = from_coframe(comps, co, 1)
        for x in range(3):
            assert abs(a[x].value - back[x].value) < 1e-12
            assert np.max(np.abs(a[x].grad - back[x].grad)) < 1e-11

    def test_express_then_rebuild_two_form(self):
        p = (0.3, 0.7, -0.5)
        co = self.make_coframe(p)
        a = wedge(one_form(["z", "1", "0"], p), 1, one_form(["x", "0", "y"], p), 1)
        comps = express_in_coframe(a, 2, co)
        back = from_coframe(comps, co, 2)
        for x in range(3):
            assert abs(a[x].value - back[x].value) < 1e-12

    def test_standard_basis_identity(self):
        p = (0.1, 0.2, 0.3)
        co = [one_form(["1", "0", "0"], p), one_form(["0", "1", "0"], p),
              one_form(["0", "0", "1"], p)]
        a = one_form(["x", "y*z", "2"], p)
        comps = express_in_coframe(a, 1, co)
        for i in range(3):
            assert comps[(i,)].value == pytest.approx(a[i].value)


def test_increasing_indices_count():
    assert len(list(increasing_indices(5, 2))) == 10
    assert list(increasing_indices(3, 3)) == [(0, 1, 2)]
    assert list(increasing_indices(3, 0)) == [()]


# -- array kernels against loops over single jets ----------------------------


def same_jet(a, b):
    return (
        a.order == b.order
        and a.value == b.value
        and (a.grad is None) == (b.grad is None)
        and (a.grad is None or np.array_equal(a.grad, b.grad))
        and (a.hess is None) == (b.hess is None)
        and (a.hess is None or np.array_equal(a.hess, b.hess))
    )


class TestKernelsBitForBit:
    P = (0.3, -0.4, 0.8)

    def vectors(self, texts):
        return [vector(row, self.P) for row in texts]

    def test_evaluate_forms_all_pairs(self):
        a = wedge(
            one_form(["y*z", "1 + x", "sin(y)"], self.P), 1, one_form(["x", "z^2", "2"], self.P), 1
        )
        vs = self.vectors([("1", "x", "y*y"), ("z", "1 + y", "x*z"), ("2", "0", "cos(x)")])
        vt = stack(vs)
        got = evaluate_forms(a, vt, vt)
        for i, u in enumerate(vs):
            for j, w in enumerate(vs):
                assert same_jet(got[i, j], scalar_evaluate(a, u, w))
                assert same_jet(evaluate(a, u, w), scalar_evaluate(a, u, w))

    def test_evaluate_three_form(self):
        a = d_from_jets(
            wedge(one_form(["y*z", "x", "1"], self.P), 1, one_form(["z", "x*y", "y"], self.P), 1),
            2,
        )
        u, v, w = self.vectors([("1", "x", "y"), ("z", "1", "x"), ("y", "z", "1 + x*x")])
        assert same_jet(evaluate(a, u, v, w), scalar_evaluate(a, u, v, w))

    def test_apply_vector_matches_scalar_fold(self):
        from contactconn.forms import apply_vector

        vs = self.vectors([("1 + y", "x*z", "sin(z)"), ("z", "2", "x")])
        fs = jets_of(["x*y*z", "exp(x) + y", "1/(2 + z)"], self.P)
        got = apply_vector(stack(vs), fs)
        for i, v in enumerate(vs):
            for j in range(len(fs)):
                f = fs[j]
                want = sum_jets(v[k] * f.partials()[k] for k in range(3))
                assert same_jet(got[i, j], want)
                assert same_jet(apply_vector(v, f), want)


class TestDFromJets:
    """d_from_jets against the loop it stands for: component o is the left
    fold, from 0.0, of (-1)^t times the o_t-partial of component
    o without o_t."""

    @staticmethod
    def scalar_d(a, degree):
        out = []
        for o in increasing_indices(a.dim, degree + 1):
            acc = 0.0
            for t, i in enumerate(o):
                term = comp(a, degree, o[:t] + o[t + 1 :]).partials()[i]
                acc = acc + term if t % 2 == 0 else acc - term
            out.append(acc)
        return out

    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_every_degree_matches_loop(self, dim):
        rng = np.random.default_rng(dim)
        for degree in range(dim):
            a = random_form(rng, dim, degree, (1, 2))
            got = d_from_jets(a, degree)
            want = self.scalar_d(a, degree)
            assert got.shape == (len(want),)
            for x in range(len(want)):
                assert same_bits(got[x], want[x])

    def test_stacked_forms_match_one_by_one(self):
        rng = np.random.default_rng(11)
        rows = [random_form(rng, 5, 1, (1, 2)) for _ in range(4)]
        got = d_from_jets(stack(rows), 1)
        assert got.shape == (4, 10)
        for b, row in enumerate(rows):
            one = d_from_jets(row, 1)
            for x in range(10):
                assert same_bits(got[b, x], one[x])

    def test_needs_order_one(self):
        p = (0.1, 0.2, 0.3)
        with pytest.raises(ValueError):
            d_from_jets(one_form(["x", "y", "z"], p, order=0), 1)


def random_form(rng, dim, degree, orders):
    """A form value with random component jets of orders drawn from
    orders. About a fifth of the values and of the derivative entries are
    signed zeros."""

    def sprinkle(x):
        x = np.asarray(x, dtype=float)
        zero = rng.random(x.shape) < 0.2
        return np.where(zero, np.where(rng.random(x.shape) < 0.5, 0.0, -0.0), x)

    n = len(increasing_indices(dim, degree))
    value, grad, hess = np.zeros(n), np.zeros((n, dim)), np.zeros((n, dim, dim))
    order = np.zeros(n, dtype=np.int8)
    for x in range(n):
        k = int(rng.choice(orders))
        h = rng.normal(size=(dim, dim))
        order[x] = k
        value[x] = sprinkle(rng.normal())
        if k >= 1:
            grad[x] = sprinkle(rng.normal(size=dim))
        if k >= 2:
            hess[x] = sprinkle(h + h.T)
    top = max(orders)
    return JetArray(dim, value, grad if top >= 1 else None, hess if top >= 2 else None, order)


def same_bits(a, b):
    """Single jets equal part by part, signed zeros told apart."""
    parts = [(a.value, b.value), (a.grad, b.grad), (a.hess, b.hess)]
    return a.order == b.order and all(
        (x is None) == (y is None)
        and (
            x is None
            or (np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)))
        )
        for x, y in parts
    )


def assert_same_form(got, want):
    assert (got.dim, got.shape) == (want.dim, want.shape)
    for x in range(len(want)):
        assert same_bits(got[x], want[x]), x


class TestEvaluateFormsOrderCut:
    """evaluate_forms builds its determinants at the coefficients' top
    order; vector stacks of higher order give the bits of stacks cut to
    that order beforehand and of the loop over single jets."""

    @pytest.mark.parametrize("coeff_orders", [(0,), (1,), (0, 1)])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_higher_order_vectors_match_cut_and_scalar(self, dim, coeff_orders):
        rng = np.random.default_rng([dim, *coeff_orders])

        def vector(orders):
            return random_form(rng, dim, 1, orders)

        for degree in (1, 2, 3):
            a = random_form(rng, dim, degree, coeff_orders)
            # Two vectors per stack; odd stacks mix orders 1 and 2.
            vecs = [
                [vector((2,) if r % 2 == 0 else (1, 2)) for _ in range(2)]
                for r in range(degree)
            ]
            stacks = [stack(vs) for vs in vecs]
            top = a.top
            assert all(s.top > top for s in stacks)
            got = evaluate_forms(a, *stacks)
            cut = evaluate_forms(a, *(s.restrict(top) for s in stacks))
            assert got.top == cut.top == top
            assert np.array_equal(got.order, cut.order)
            for part in ("value", "grad", "hess"):
                x, y = getattr(got, part), getattr(cut, part)
                assert (x is None) == (y is None)
                if x is not None:
                    assert np.array_equal(x, y)
                    assert np.array_equal(np.signbit(x), np.signbit(y))
            flat = got.reshape(-1)
            picks = np.stack(np.meshgrid(*[range(2)] * degree, indexing="ij"), -1)
            for i, pick in enumerate(picks.reshape(-1, degree)):
                want = scalar_evaluate(a, *(vecs[r][u] for r, u in enumerate(pick)))
                assert same_bits(flat[i], want)


class TestWedgeKernel:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_every_degree_pair_matches_scalar_loop(self, dim, order):
        rng = np.random.default_rng([dim, order])
        for da in range(dim + 1):
            for db in range(dim + 1 - da):
                a = random_form(rng, dim, da, (order,))
                b = random_form(rng, dim, db, (order,))
                assert_same_form(wedge(a, da, b, db), scalar_wedge(a, da, b, db))

    def test_mixed_order_components(self):
        # Every component is cut to the lowest order of any input
        # component before the products.
        rng = np.random.default_rng(5)
        dim = 5
        for da, db in [(1, 1), (1, 2), (2, 2), (2, 3), (0, 3)]:
            for trial in range(4):
                a = random_form(rng, dim, da, (0, 1, 2) if trial % 2 else (1, 2))
                b = random_form(rng, dim, db, (1, 2))
                assert_same_form(wedge(a, da, b, db), scalar_wedge(a, da, b, db))
