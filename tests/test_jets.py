import math

import numpy as np
import pytest

from contactconn.errors import ExprDomainError, SingularMatrixError
from contactconn.expressions import parse_expr
from contactconn.jets import (
    _FOLD_CHUNK,
    Jet,
    JetArray,
    eval_jet,
    fold_chunks,
    jet_linear_solve,
    sum_jets,
)

XYZ = ("x", "y", "z")


def jet_of(text, p, order=2):
    return eval_jet(parse_expr(text, XYZ), p, order)


class TestEvalJet:
    def test_product_gradient(self):
        j = jet_of("x*y", (3.0, 5.0, 0.0), order=1)
        assert j.value == 15.0
        assert np.allclose(j.grad, [5.0, 3.0, 0.0])

    def test_sqrt_hessian_at_origin(self):
        j = jet_of("sqrt(1 + x*x)", (0.0, 0.0, 0.0))
        assert j.value == 1.0
        assert np.allclose(j.grad, 0.0)
        assert j.hess[0, 0] == pytest.approx(1.0)

    def test_domain_error_reports_subexpression(self):
        with pytest.raises(ExprDomainError) as exc:
            jet_of("1/x", (0.0, 1.0, 1.0))
        assert "1 / x" in str(exc.value)
        with pytest.raises(ExprDomainError):
            jet_of("sqrt(-1 - x*x)", (0.5, 0, 0))

    def test_hessian_exactly_symmetric(self):
        j = jet_of("sin(x*y) * exp(z) / (2 + cos(x))", (0.3, -0.7, 0.2))
        assert np.array_equal(j.hess, j.hess.T)

    def test_order_zero_carries_no_arrays(self):
        j = jet_of("x+y", (1, 2, 3), order=0)
        assert j.grad is None and j.hess is None


# Central-difference oracle for the chain rule across all supported
# operations; the only finite differences in the repo live in tests.

def central_fd(f, p, i, h=1e-5):
    up = list(p)
    up[i] += h
    dn = list(p)
    dn[i] -= h
    return (f(tuple(up)) - f(tuple(dn))) / (2 * h)


def central_fd2(f, p, i, j, h=1e-5):
    if i == j:
        pp = list(p)
        pp[i] += h
        up = f(tuple(pp))
        pp[i] -= 2 * h
        dn = f(tuple(pp))
        return (up - 2 * f(p) + dn) / (h * h)
    pp = [list(p) for _ in range(4)]
    pp[0][i] += h
    pp[0][j] += h
    pp[1][i] += h
    pp[1][j] -= h
    pp[2][i] -= h
    pp[2][j] += h
    pp[3][i] -= h
    pp[3][j] -= h
    vals = [f(tuple(q)) for q in pp]
    return (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)


CHAIN_CASES = [
    "x + y*z",
    "x - y/(2 + z*z)",
    "x*y*z",
    "x/(1 + y*y)",
    "sqrt(4 + x + y*y)",
    "sin(x + 2*y)",
    "cos(x*z)",
    "exp(x - y)",
    "x^3 - 2*x^-2",
    "(x + y)^2 / (3 + z^2)",
    "sin(x)^2 + cos(x)^2",
    "exp(sin(x*y) + z)",
]


def test_chain_rule_against_central_differences():
    rng = np.random.default_rng(7)
    cases = [(parse_expr(t, XYZ), t) for t in CHAIN_CASES]
    checked = 0
    while checked < 1000:
        e, text = cases[checked % len(cases)]
        p = tuple(rng.uniform(0.3, 1.2, size=3))
        f = lambda q: eval_jet(e, q, 0).value
        j = eval_jet(e, p, 2)
        scale = max(1.0, abs(j.value))
        for i in range(3):
            fd = central_fd(f, p, i)
            assert abs(j.grad[i] - fd) < 1e-6 * max(1.0, abs(fd), scale), text
            for k in range(i, 3):
                fd2 = central_fd2(f, p, i, k)
                assert abs(j.hess[i, k] - fd2) < 2e-5 * max(1.0, abs(fd2), scale), text
        checked += 1


class TestJetOps:
    def test_scalar_lifting(self):
        j = jet_of("x", (2.0, 0, 0))
        assert (j + 1).value == 3.0
        assert (1 + j).value == 3.0
        assert (2 * j).value == 4.0
        assert (1 - j).value == -1.0
        assert (4 / j).value == 2.0
        assert np.allclose((4 / j).grad, [-1.0, 0, 0])

    def test_min_order_coercion(self):
        a = jet_of("x", (2.0, 0, 0), order=2)
        b = jet_of("y", (0, 3.0, 0), order=1)
        assert (a * b).order == 1
        assert (a * b).hess is None

    def test_division_by_zero_jet(self):
        a = jet_of("x", (1.0, 0, 0))
        z = Jet.constant(0.0, 3, 2)
        with pytest.raises(ExprDomainError):
            a / z


class TestLinearSolve:
    def test_identity(self):
        b = [jet_of("x*y", (2, 3, 0)), jet_of("z", (0, 0, 5))]
        I = [
            [Jet.constant(1.0, 3, 2), Jet.constant(0.0, 3, 2)],
            [Jet.constant(0.0, 3, 2), Jet.constant(1.0, 3, 2)],
        ]
        x = jet_linear_solve(I, b)
        for got, want in zip(x, b):
            assert got.value == want.value
            assert np.allclose(got.grad, want.grad)
            assert np.allclose(got.hess, want.hess)

    def test_constant_diagonal(self):
        A = [
            [Jet.constant(2.0, 3, 2), Jet.constant(0.0, 3, 2)],
            [Jet.constant(0.0, 3, 2), Jet.constant(4.0, 3, 2)],
        ]
        b = [Jet.constant(2.0, 3, 2), Jet.constant(4.0, 3, 2)]
        x = jet_linear_solve(A, b)
        assert [j.value for j in x] == [1.0, 1.0]
        assert all(np.allclose(j.grad, 0) for j in x)

    def test_frozen_2x2_with_variable_entry(self):
        # A = [[x, 1], [1, 2]], b = (1, 0) at x = 1.
        # det = 2x - 1, x1 = 2/(2x-1), x2 = -1/(2x-1); hand-differentiated:
        # x1' = -4/(2x-1)^2 = -4, x2' = 2/(2x-1)^2 = 2 at x=1,
        # x1'' = 16/(2x-1)^3 = 16, x2'' = -8/(2x-1)^3 = -8.
        p = (1.0, 0.0, 0.0)
        A = [
            [jet_of("x", p), jet_of("1", p)],
            [jet_of("1", p), jet_of("2", p)],
        ]
        b = [jet_of("1", p), jet_of("0", p)]
        x1, x2 = jet_linear_solve(A, b)
        assert x1.value == pytest.approx(2.0, abs=1e-14)
        assert x2.value == pytest.approx(-1.0, abs=1e-14)
        assert x1.grad[0] == pytest.approx(-4.0, abs=1e-12)
        assert x2.grad[0] == pytest.approx(2.0, abs=1e-12)
        assert x1.hess[0, 0] == pytest.approx(16.0, abs=1e-11)
        assert x2.hess[0, 0] == pytest.approx(-8.0, abs=1e-11)

    def test_singular_matrix_raises(self):
        A = [
            [Jet.constant(1.0, 3, 1), Jet.constant(2.0, 3, 1)],
            [Jet.constant(2.0, 3, 1), Jet.constant(4.0, 3, 1)],
        ]
        b = [Jet.constant(1.0, 3, 1), Jet.constant(0.0, 3, 1)]
        with pytest.raises(SingularMatrixError):
            jet_linear_solve(A, b)

    def test_residual_property_random_systems(self):
        rng = np.random.default_rng(11)
        texts = ["1 + x*y", "2 + sin(z)", "y - x", "3 + x^2", "cos(y)", "x + z", "2 - z*z"]
        for m in range(2, 8):
            for _ in range(5):
                p = tuple(rng.uniform(-0.8, 0.8, size=3))
                A = [
                    [
                        jet_of(texts[(i * m + j) % len(texts)], p)
                        + Jet.constant(4.0 if i == j else 0.0, 3, 2)
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
                vals = np.array([[e.value for e in row] for row in A])
                if np.linalg.cond(vals) > 1e4:
                    continue
                b = [jet_of(texts[(i * 3 + 1) % len(texts)], p) for i in range(m)]
                x = jet_linear_solve(A, b)
                # A x - b must vanish through order 2
                for i in range(m):
                    acc = None
                    for j in range(m):
                        t = A[i][j] * x[j]
                        acc = t if acc is None else acc + t
                    r = acc - b[i]
                    assert abs(r.value) < 1e-10
                    assert np.max(np.abs(r.grad)) < 1e-10
                    assert np.max(np.abs(r.hess)) < 1e-9


def test_jet_hessians_symmetric_after_solve():
    p = (0.4, -0.2, 0.7)
    A = [
        [jet_of("2 + x*x", p), jet_of("y", p)],
        [jet_of("y", p), jet_of("3 + sin(z)", p)],
    ]
    b = [jet_of("x+y", p), jet_of("1 - z", p)]
    for j in jet_linear_solve(A, b):
        assert np.array_equal(j.hess, j.hess.T)


# -- JetArray: the same bits as the scalar rules ------------------------------

D_RAND = 4
EPS = np.finfo(float).eps


def random_jets(rng, n, orders=(2,), positive=False):
    """n random jets in dimension D_RAND with symmetric Hessians; each
    jet's order is drawn from `orders`."""
    out = []
    for _ in range(n):
        k = int(rng.choice(orders))
        v = float(rng.uniform(0.5, 2.0)) if positive else float(rng.normal())
        if not positive and rng.random() < 0.1:
            v = 0.0
        h = rng.normal(size=(D_RAND, D_RAND))
        out.append(
            Jet(
                D_RAND,
                k,
                v,
                rng.normal(size=D_RAND) if k >= 1 else None,
                h + h.T if k >= 2 else None,
            )
        )
    return out


def assert_same_jet(got, want):
    assert got.order == want.order
    assert np.array_equal(got.value, want.value)
    for part in ("grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)


def exactly_symmetric(j):
    return j.hess is None or np.array_equal(j.hess, j.hess.T)


BINARY_RULES = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "lift_mul": lambda a, b: a * 0.5,
    "lift_rsub": lambda a, b: 1.0 - a,
    "lift_rdiv": lambda a, b: 3.0 / b,
}


class TestJetArrayMatchesScalar:
    @pytest.mark.parametrize("name", sorted(BINARY_RULES))
    @pytest.mark.parametrize("orders", [(2,), (0, 1, 2)])
    def test_binary_rule_bit_for_bit(self, name, orders):
        rule = BINARY_RULES[name]
        rng = np.random.default_rng([sorted(BINARY_RULES).index(name), len(orders)])
        a = random_jets(rng, 40, orders)
        b = random_jets(rng, 40, orders, positive=name.endswith("div"))
        got = rule(JetArray.from_jets(a), JetArray.from_jets(b)).jets()
        for g, x, y in zip(got, a, b):
            assert_same_jet(g, rule(x, y))

    def test_broadcast_pairs_bit_for_bit(self):
        rng = np.random.default_rng(3)
        a = random_jets(rng, 5)
        b = random_jets(rng, 6)
        A, B = JetArray.from_jets(a), JetArray.from_jets(b)
        got = (A[:, None] * B[None, :]).jets()
        for i in range(5):
            for j in range(6):
                assert_same_jet(got[i][j], a[i] * b[j])

    def test_neg_and_sqrt_bit_for_bit(self):
        rng = np.random.default_rng(5)
        a = random_jets(rng, 40, (1, 2), positive=True)
        A = JetArray.from_jets(a)
        for g, x in zip((-A).jets(), a):
            assert_same_jet(g, -x)
        for g, x in zip(A.sqrt().jets(), a):
            assert_same_jet(g, x.sqrt())
            assert exactly_symmetric(g)

    def test_domain_errors_match_scalar(self):
        z = JetArray.from_jets([Jet.constant(1.0, 3, 2), Jet.constant(0.0, 3, 2)])
        with pytest.raises(ExprDomainError):
            JetArray.constant(1.0, 3, (2,)) / z
        with pytest.raises(ExprDomainError):
            (z - 2.0).sqrt()

    @pytest.mark.parametrize("orders", [(2,), (1, 2), (0, 1, 2)])
    def test_fold_equals_sum_jets(self, orders):
        rng = np.random.default_rng(len(orders))
        terms = random_jets(rng, 37, orders)
        want = sum_jets(terms)
        stacked = JetArray.from_jets(terms)
        assert_same_jet(stacked.fold().jets(), want)
        # One term per slice: the running sum is carried between slices.
        sliced = fold_chunks(37, _FOLD_CHUNK, D_RAND, lambda lo, hi: stacked[lo:hi])
        assert_same_jet(sliced.jets(), want)

    def test_fold_along_stacked_axes(self):
        rng = np.random.default_rng(9)
        terms = [random_jets(rng, 3) for _ in range(11)]
        got = JetArray.from_jets(terms).fold().jets()
        for i in range(3):
            assert_same_jet(got[i], sum_jets(t[i] for t in terms))

    def test_hessians_of_sums_and_folds_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        A = JetArray.from_jets(random_jets(rng, 30))
        B = JetArray.from_jets(random_jets(rng, 30))
        for out in ((A + B).jets(), (A - B).jets(), [A.fold().jets()]):
            assert all(exactly_symmetric(j) for j in out)

    @pytest.mark.parametrize("name", ["mul", "div"])
    def test_product_hessians_symmetric_to_rounding(self, name):
        # The two cross terms are added one after the other, so a product
        # or quotient Hessian can differ from its transpose in the last
        # bit, in the scalar rule as in the array one.
        rng = np.random.default_rng(17)
        a = random_jets(rng, 200)
        b = random_jets(rng, 200, positive=True)
        for j in BINARY_RULES[name](JetArray.from_jets(a), JetArray.from_jets(b)).jets():
            scale = np.max(np.abs(j.hess)) + 1.0
            assert np.max(np.abs(j.hess - j.hess.T)) <= 4 * EPS * scale

    def test_partials_match_jet_partial(self):
        rng = np.random.default_rng(19)
        a = random_jets(rng, 12, (1, 2))
        P = JetArray.from_jets(a).partials().jets()
        for i in range(D_RAND):
            for g, x in zip(P[i], a):
                assert_same_jet(g, x.partial(i))

    def test_round_trip_keeps_each_order(self):
        rng = np.random.default_rng(23)
        a = random_jets(rng, 20, (0, 1, 2))
        for g, x in zip(JetArray.from_jets(a).jets(), a):
            assert_same_jet(g, x)
