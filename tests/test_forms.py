import itertools

import numpy as np
import pytest

from contactconn.expressions import parse_expr
from contactconn.forms import (
    FormField,
    d_from_jets,
    evaluate_forms,
    increasing_indices,
    pair_table,
    wedge,
)
from contactconn.jets import JetArray, Tape
from form_helpers import (
    assert_same_bits,
    assert_within_rounding,
    comp,
    evaluate,
    exterior_derivative,
    express_in_coframe,
    from_coframe,
    interior_product,
    magnitude,
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


def random_coefficient(rng, dim: int) -> str:
    """A smooth coefficient in the coordinates x0, ..., x{dim-1}: two
    terms, each a constant times a coordinate times an elementary function
    of a linear combination of two coordinates."""
    terms = []
    for _ in range(2):
        i, j, k = rng.integers(dim, size=3)
        fn = ("sin", "cos", "exp")[rng.integers(3)]
        a, b, c = rng.uniform(-1.5, 1.5, size=3).round(3)
        terms.append(f"{c}*x{k}*{fn}({a}*x{i} + {b}*x{j})")
    return " + ".join(terms)


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
        f = FormField(3, 1, tuple(
            parse_expr(t, XYZ) for t in ("sin(x*y)", "z/(2+x)", "sqrt(4+y*y)")
        ))
        cases = [(f, (0.5, -0.3, 0.9))]
        # Random fields of degrees 0, 1 and 2 in dimensions 3, 5 and 7.
        rng = np.random.default_rng(20)
        for dim in (3, 5, 7):
            coords = tuple(f"x{i}" for i in range(dim))
            for degree in (0, 1, 2):
                texts = [random_coefficient(rng, dim) for _ in increasing_indices(dim, degree)]
                field = FormField(dim, degree, tuple(parse_expr(t, coords) for t in texts))
                cases.append((field, tuple(rng.uniform(-0.8, 0.8, size=dim))))
        for field, p in cases:
            sym = field.d().eval(p, 1)
            jet = d_from_jets(field.eval(p, 2), field.degree)
            assert sym.shape == jet.shape == (len(increasing_indices(field.dim, field.degree + 1)),)
            for x in range(sym.shape[0]):
                assert sym[x].value == pytest.approx(jet[x].value, abs=1e-13)
                assert np.allclose(sym[x].grad, jet[x].grad, atol=1e-12)

    def test_components_must_fit_the_degree(self):
        x, y, z = (parse_expr(t, XYZ) for t in XYZ)
        for degree, comps in ((1, (x, y)), (1, (x, y, z, x)), (2, (x,)), (0, ()), (4, ()), (-1, ())):
            with pytest.raises(ValueError, match="does not hold"):
                FormField(3, degree, comps)
        assert FormField(3, 2, (x, y, z)).components == (x, y, z)

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


@pytest.mark.parametrize("n", range(2, 9))
def test_pair_table_is_the_upper_triangle(n):
    u, v = pair_table(n)
    iu, ju = np.triu_indices(n, 1)
    assert u.dtype == v.dtype == iu.dtype
    assert np.array_equal(u, iu) and np.array_equal(v, ju)
    assert list(zip(u.tolist(), v.tolist())) == list(increasing_indices(n, 2))
    assert pair_table(n) is pair_table(n) and not u.flags.writeable


# -- array kernels against loops over single jets ----------------------------


def same_jet(a, b):
    return (
        a.top == b.top
        and a.value == b.value
        and (a.grad is None) == (b.grad is None)
        and (a.grad is None or np.array_equal(a.grad, b.grad))
        and (a.hess is None) == (b.hess is None)
        and (a.hess is None or np.array_equal(a.hess, b.hess))
    )


class TestKernelsBitForBit:
    """The pairing and the vector derivative: an entry of a stacked call
    has the bits of the same call on that entry alone, and agrees with
    the loop over single jets to rounding (the kernels sum the parts in
    another order than the loop), within ROUNDING_REL of the sum of
    |terms|."""

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
                want = scalar_evaluate(a, u, w)
                scale = scalar_evaluate(a, u, w, absolute=True)
                assert_within_rounding(got[i, j], want, scale)
                # One pair alone gives the bits of its entry in the array.
                assert same_jet(evaluate(a, u, w), got[i, j])

    def test_evaluate_three_form(self):
        a = d_from_jets(
            wedge(one_form(["y*z", "x", "1"], self.P), 1, one_form(["z", "x*y", "y"], self.P), 1),
            2,
        )
        u, v, w = self.vectors([("1", "x", "y"), ("z", "1", "x"), ("y", "z", "1 + x*x")])
        assert_within_rounding(
            evaluate(a, u, v, w),
            scalar_evaluate(a, u, v, w),
            scalar_evaluate(a, u, v, w, absolute=True),
        )

    def test_zero_form_on_no_vectors_is_its_component(self):
        f = jets_of(["x*y", "2 + z"], self.P).reshape(2, 1)
        got = evaluate_forms(f)
        assert got.shape == (2,)
        for i in range(2):
            assert same_jet(got[i], f[i, 0])

    def test_apply_vector_matches_scalar_fold(self):
        from contactconn.forms import apply_vector

        vs = self.vectors([("1 + y", "x*z", "sin(z)"), ("z", "2", "x")])
        fs = jets_of(["x*y*z", "exp(x) + y", "1/(2 + z)"], self.P)
        got = apply_vector(stack(vs), fs)
        for i, v in enumerate(vs):
            for j in range(len(fs)):
                f = fs[j]
                want = sum_jets(v[k] * f.partials()[k] for k in range(3))
                mv, mp = magnitude(v), magnitude(f).partials()
                scale = sum_jets(mv[k] * mp[k] for k in range(3))
                assert_within_rounding(got[i, j], want, scale)
                assert same_jet(apply_vector(v, f), got[i, j])


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
        for degree, order in itertools.product(range(dim), (1, 2)):
            a = random_form(rng, dim, degree, order)
            got = d_from_jets(a, degree)
            want = self.scalar_d(a, degree)
            assert got.shape == (len(want),)
            for x in range(len(want)):
                assert same_bits(got[x], want[x])

    def test_stacked_forms_match_one_by_one(self):
        rng = np.random.default_rng(11)
        for order in (1, 2):
            rows = [random_form(rng, 5, 1, order) for _ in range(4)]
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


def random_form(rng, dim, degree, order):
    """A form value with random component jets of the given order. About
    a fifth of the values and of the derivative entries are signed
    zeros."""

    def sprinkle(x):
        x = np.asarray(x, dtype=float)
        zero = rng.random(x.shape) < 0.2
        return np.where(zero, np.where(rng.random(x.shape) < 0.5, 0.0, -0.0), x)

    n = len(increasing_indices(dim, degree))
    value, grad, hess = np.zeros(n), np.zeros((n, dim)), np.zeros((n, dim, dim))
    for x in range(n):
        h = rng.normal(size=(dim, dim))
        value[x] = sprinkle(rng.normal())
        grad[x] = sprinkle(rng.normal(size=dim))
        hess[x] = sprinkle(h + h.T)
    return JetArray(dim, value, grad, hess).restrict(order)


def same_bits(a, b):
    """Single jets equal part by part, signed zeros told apart."""
    parts = [(a.value, b.value), (a.grad, b.grad), (a.hess, b.hess)]
    return a.top == b.top and all(
        (x is None) == (y is None)
        and (
            x is None
            or (np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)))
        )
        for x, y in parts
    )


def stack_entry(x, s):
    """The form at stack index s of x, whose stack axes broadcast to s."""
    lead = x.shape[:-1]
    return x[tuple(i if n > 1 else 0 for i, n in zip(s[len(s) - len(lead) :], lead))]


def assert_wedge_matches_loop(a, p, b, q):
    """forms.wedge against the loop over single jets: values bit for bit,
    derivatives to rounding. Stacked operands broadcast, and every stacked
    product holds the bits and orders of its own factors' wedge."""
    got = wedge(a, p, b, q)
    for s in np.ndindex(got.shape[:-1]):
        fa, fb = stack_entry(a, s), stack_entry(b, s)
        one, want = wedge(fa, p, fb, q), scalar_wedge(fa, p, fb, q)
        scale = scalar_wedge(fa, p, fb, q, absolute=True)
        assert (got.dim, got.shape[len(s) :]) == (want.dim, want.shape)
        for x in range(len(want)):
            assert_same_bits(got[s + (x,)], one[x])
            assert_within_rounding(one[x], want[x], scale[x])
            assert np.float64(one[x].value).tobytes() == np.float64(want[x].value).tobytes()


class TestEvaluateFormsOrderCut:
    """evaluate_forms contracts at the coefficients' top order; vector
    stacks of higher order give the bits of stacks cut to that order
    beforehand, and agree with the loop over single jets to rounding."""

    @pytest.mark.parametrize("coeff_order", [0, 1])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_higher_order_vectors_match_cut_and_scalar(self, dim, coeff_order):
        rng = np.random.default_rng([dim, coeff_order])
        top = coeff_order
        for degree in (1, 2, 3):
            a = random_form(rng, dim, degree, top)
            # Two vectors per stack; odd stacks one order above a's.
            vecs = [
                [random_form(rng, dim, 1, 2 if r % 2 == 0 else top + 1) for _ in range(2)]
                for r in range(degree)
            ]
            stacks = [stack(vs) for vs in vecs]
            assert all(s.top > top for s in stacks)
            got = evaluate_forms(a, *stacks)
            cut = evaluate_forms(a, *(s.restrict(top) for s in stacks))
            assert got.top == cut.top == top
            for part in ("value", "grad", "hess"):
                x, y = getattr(got, part), getattr(cut, part)
                assert (x is None) == (y is None)
                if x is not None:
                    assert np.array_equal(x, y)
                    assert np.array_equal(np.signbit(x), np.signbit(y))
            flat = got.reshape(-1)
            picks = np.stack(np.meshgrid(*[range(2)] * degree, indexing="ij"), -1)
            for i, pick in enumerate(picks.reshape(-1, degree)):
                picked = [vecs[r][u] for r, u in enumerate(pick)]
                want = scalar_evaluate(a, *picked)
                assert_within_rounding(flat[i], want, scalar_evaluate(a, *picked, absolute=True))


class TestWedgeKernel:
    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_every_degree_pair_matches_scalar_loop(self, dim, order):
        rng = np.random.default_rng([dim, order])
        for da in range(dim + 1):
            for db in range(dim + 1 - da):
                a = random_form(rng, dim, da, order)
                b = random_form(rng, dim, db, order)
                assert_wedge_matches_loop(a, da, b, db)

    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_stacked_forms_match_one_by_one(self, dim):
        # Stacks of forms, of orders that differ from stack to stack, that
        # broadcast against each other and against a single form.
        rng = np.random.default_rng([dim, 3])

        def forms(degree, n, order):
            return stack([random_form(rng, dim, degree, order) for _ in range(n)])

        for da, db in [(1, 1), (1, 2), (2, 1)]:
            a = forms(da, 6, 2).reshape(2, 3, -1)
            assert_wedge_matches_loop(a, da, forms(db, 3, 1), db)
            b = forms(db, 2, 0)
            assert_wedge_matches_loop(a, da, b.reshape(2, 1, b.shape[-1]), db)
            assert_wedge_matches_loop(forms(da, 3, 0), da, random_form(rng, dim, db, 1), db)
            assert_wedge_matches_loop(random_form(rng, dim, da, 2), da, forms(db, 3, 2), db)
