import math

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from contactconn.errors import ExprDomainError, SingularMatrixError
from contactconn.expressions import Binary, Coord, Lit, Pow, Unary, diff, parse_expr, pretty
from contactconn.forms import FormField
from contactconn.jets import (
    Jet,
    JetArray,
    Tape,
    contract,
    eval_jet,
    jet_cholesky,
    jet_linear_solve,
)
from contactconn.sampling import sample_box
from form_helpers import (
    CHARTS,
    assert_same_bits,
    chart_spec,
    magnitude,
    stack,
    sum_jets,
    tape_oracle,
    tree_walk_jet,
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
        # numpy numbers, such as a single jet's value, lift the same way
        v = stack([j, j])
        for out in (np.float64(2.0) * v, np.float64(1.0) - v, np.float64(4.0) / v):
            assert isinstance(out, JetArray) and out.shape == (2,)
        assert (np.float64(2.0) * v).value.tolist() == [4.0, 4.0]

    @pytest.mark.parametrize("other", [1j, "a"])
    def test_dividing_an_unsupported_operand_by_a_jet_is_a_type_error(self, other):
        # Reflected division declines an operand it cannot lift, as the
        # other reflected operators do, so Python raises TypeError.
        for j in (jet_of("x", (2.0, 0, 0)), stack([jet_of("x", (2.0, 0, 0))] * 2)):
            with pytest.raises(TypeError):
                other / j

    def test_number_divided_by_a_jet_has_the_bits_of_its_lift(self):
        j = jet_of("sin(x) + y*z", (0.3, -0.7, 0.2))
        for k in (0, 1, 2):
            cut = j.restrict(k)
            for v in (3.0, -2, 0.0):
                assert_same_bits(v / cut, JetArray.constant(v, 3) / cut)

    def test_min_order_coercion(self):
        a = jet_of("x", (2.0, 0, 0), order=2)
        b = jet_of("y", (0, 3.0, 0), order=1)
        assert (a * b).top == 1
        assert (a * b).hess is None

    def test_division_by_zero_jet(self):
        a = jet_of("x", (1.0, 0, 0))
        z = Jet.constant(0.0, 3)
        with pytest.raises(ExprDomainError):
            a / z

    @pytest.mark.parametrize("use", [len, list, iter, lambda j: [x for x in j]])
    def test_single_jet_has_no_length_or_entries(self, use):
        with pytest.raises(TypeError, match="a single jet has no length"):
            use(Jet.constant(1.5, 3))

    def test_iteration_runs_along_the_leading_axis(self):
        a = stack([jet_of("x", (2.0, 0, 0), order=1), jet_of("y*y", (0, 3.0, 0), order=1)])
        assert len(a) == 2
        first, second = a
        for got, want in zip((first, second), (a[0], a[1])):
            assert got.shape == ()
            assert_same_jet(got, want)
        assert [row.shape for row in Jet.constant(0.0, 3, (2, 4))] == [(4,), (4,)]


def constants(values, order=2):
    """Constant jets in dimension 3 with the given values, of their shape."""
    values = np.asarray(values, dtype=float)
    out = JetArray.constant(0.0, 3, values.shape, order)
    out.value[...] = values
    return out


def matrix(rows):
    """A matrix of single jets, given as rows, as one JetArray."""
    return stack([stack(row) for row in rows])


class TestLinearSolve:
    def test_identity(self):
        b = stack([jet_of("x*y", (2, 3, 0)), jet_of("z", (0, 0, 5))])
        x = jet_linear_solve(constants(np.eye(2)), b)
        for i in range(2):
            got, want = x[i], b[i]
            assert got.value == want.value
            assert np.allclose(got.grad, want.grad)
            assert np.allclose(got.hess, want.hess)

    def test_constant_diagonal(self):
        x = jet_linear_solve(constants([[2.0, 0.0], [0.0, 4.0]]), constants([2.0, 4.0]))
        assert x.value.tolist() == [1.0, 1.0]
        assert np.allclose(x.grad, 0)

    def test_frozen_2x2_with_variable_entry(self):
        # A = [[x, 1], [1, 2]], b = (1, 0) at x = 1.
        # det = 2x - 1, x1 = 2/(2x-1), x2 = -1/(2x-1); hand-differentiated:
        # x1' = -4/(2x-1)^2 = -4, x2' = 2/(2x-1)^2 = 2 at x=1,
        # x1'' = 16/(2x-1)^3 = 16, x2'' = -8/(2x-1)^3 = -8.
        p = (1.0, 0.0, 0.0)
        A = matrix([[jet_of("x", p), jet_of("1", p)], [jet_of("1", p), jet_of("2", p)]])
        b = stack([jet_of("1", p), jet_of("0", p)])
        x1, x2 = jet_linear_solve(A, b)
        assert x1.value == pytest.approx(2.0, abs=1e-14)
        assert x2.value == pytest.approx(-1.0, abs=1e-14)
        assert x1.grad[0] == pytest.approx(-4.0, abs=1e-12)
        assert x2.grad[0] == pytest.approx(2.0, abs=1e-12)
        assert x1.hess[0, 0] == pytest.approx(16.0, abs=1e-11)
        assert x2.hess[0, 0] == pytest.approx(-8.0, abs=1e-11)

    def test_singular_matrix_raises(self):
        A = constants([[1.0, 2.0], [2.0, 4.0]], order=1)
        b = constants([1.0, 0.0], order=1)
        with pytest.raises(SingularMatrixError):
            jet_linear_solve(A, b)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_values_raise_domain_error(self, bad):
        # The SVD cannot take them; the error must not read as a singular
        # system, which callers relabel.
        for A, b in [([[bad, 0.0], [0.0, 1.0]], [1.0, 0.0]), ([[1.0, 0.0], [0.0, 1.0]], [bad, 0.0])]:
            with pytest.raises(ExprDomainError, match="not finite"):
                jet_linear_solve(constants(A, order=1), constants(b, order=1))

    def test_residual_property_random_systems(self):
        rng = np.random.default_rng(11)
        texts = ["1 + x*y", "2 + sin(z)", "y - x", "3 + x^2", "cos(y)", "x + z", "2 - z*z"]
        for m in range(2, 8):
            for _ in range(5):
                p = tuple(rng.uniform(-0.8, 0.8, size=3))
                A = [
                    [
                        jet_of(texts[(i * m + j) % len(texts)], p)
                        + Jet.constant(4.0 if i == j else 0.0, 3)
                        for j in range(m)
                    ]
                    for i in range(m)
                ]
                vals = np.array([[e.value for e in row] for row in A])
                if np.linalg.cond(vals) > 1e4:
                    continue
                b = [jet_of(texts[(i * 3 + 1) % len(texts)], p) for i in range(m)]
                x = jet_linear_solve(matrix(A), stack(b))
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


    def test_matrix_right_hand_side(self):
        # Every column in one call; each agrees with its own one-column
        # solve to rounding, and A X - B vanishes through order 2.
        rng = np.random.default_rng(37)
        for m, k in [(2, 1), (3, 4), (6, 6), (7, 3)]:
            shift = JetArray.constant(0.0, D_RAND, (m, m))
            shift.value[...] = 4.0 * np.eye(m)
            A = random_jets(rng, m * m, 1).reshape(m, m) + shift
            B = random_jets(rng, m * k).reshape(m, k)
            X = jet_linear_solve(A, B)
            assert X.shape == (m, k) and X.top == 1
            for c in range(k):
                col = jet_linear_solve(A, B[:, c])
                for part in ("value", "grad"):
                    x, y = getattr(X, part)[:, c], getattr(col, part)
                    assert np.allclose(x, y, rtol=1e-12, atol=1e-12)
            R = contract(A.transpose(1, 0)[:, :, None], X[:, None, :]) - B
            assert np.max(np.abs(R.value)) < 1e-12
            assert np.max(np.abs(R.grad)) < 1e-11

    def test_right_hand_side_must_be_a_vector_or_matrix(self):
        A = constants(np.eye(2))
        with pytest.raises(ValueError):
            jet_linear_solve(A, constants(np.ones((2, 2, 2))))
        with pytest.raises(ValueError):
            jet_linear_solve(A, constants(np.ones(3)))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_cholesky_factor_reproduces_the_matrix(m):
    # A random SPD value with random symmetric gradient and Hessian
    # matrices, one per coordinate and coordinate pair: L L^T = G part by
    # part through the product rule, and L is lower-triangular in every
    # part, its Hessian symmetric to the bit, and its bits do not depend
    # on the memory layout of G's parts.
    rng = np.random.default_rng(100 + m)
    a = rng.normal(size=(m, m))
    g = rng.normal(size=(m, m, D_RAND))
    h = rng.normal(size=(m, m, D_RAND, D_RAND))
    h = h + h.transpose(1, 0, 2, 3)
    G = JetArray(
        D_RAND, a @ a.T + m * np.eye(m), g + g.transpose(1, 0, 2), h + h.transpose(0, 1, 3, 2)
    )
    L = jet_cholesky(G)
    assert L.shape == (m, m) and L.top == 2
    v, d, dd = L.value, L.grad, L.hess
    LLt = (
        v @ v.T,
        np.einsum("ikp,jk->ijp", d, v) + np.einsum("ik,jkp->ijp", v, d),
        np.einsum("ikpq,jk->ijpq", dd, v)
        + np.einsum("ik,jkpq->ijpq", v, dd)
        + np.einsum("ikp,jkq->ijpq", d, d)
        + np.einsum("ikq,jkp->ijpq", d, d),
    )
    for got, want in zip(LLt, (G.value, G.grad, G.hess)):
        assert np.max(np.abs(got - want)) < 1e-12 * (1.0 + np.max(np.abs(want)))
    upper = np.triu_indices(m, 1)
    for part in (v, d, dd):
        assert not part[upper].any()
    assert np.array_equal(dd, dd.swapaxes(-1, -2))
    fortran = JetArray(D_RAND, *(np.asfortranarray(x) for x in (G.value, G.grad, G.hess)))
    assert_same_bits(jet_cholesky(fortran), L)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_cholesky_factor_has_the_matrix_order(order):
    G = random_jets(np.random.default_rng(5), 4, positive=True).reshape(2, 2)
    G.value[...] = [[2.0, 0.5], [0.5, 3.0]]
    L = jet_cholesky(G.restrict(order))
    assert L.top == order
    assert_same_bits(L, jet_cholesky(G).restrict(order))


def test_jet_hessians_symmetric_after_solve():
    p = (0.4, -0.2, 0.7)
    A = matrix(
        [[jet_of("2 + x*x", p), jet_of("y", p)], [jet_of("y", p), jet_of("3 + sin(z)", p)]]
    )
    b = stack([jet_of("x+y", p), jet_of("1 - z", p)])
    for j in jet_linear_solve(A, b):
        assert np.array_equal(j.hess, j.hess.T)


# -- JetArray: every entry has the bits of the same rule on that entry alone --

D_RAND = 4
EPS = np.finfo(float).eps


def random_jets(rng, n, order=2, positive=False):
    """n random jets in dimension D_RAND of the given order with
    symmetric Hessians, as one JetArray (n,)."""
    value, grad, hess = np.zeros(n), np.zeros((n, D_RAND)), np.zeros((n, D_RAND, D_RAND))
    for x in range(n):
        v = float(rng.uniform(0.5, 2.0)) if positive else float(rng.normal())
        if not positive and rng.random() < 0.1:
            v = 0.0
        h = rng.normal(size=(D_RAND, D_RAND))
        value[x] = v
        grad[x] = rng.normal(size=D_RAND)
        hess[x] = h + h.T
    return JetArray(D_RAND, value, grad, hess).restrict(order)


def assert_same_jet(got, want):
    """Two single jets of one order, equal part by part."""
    assert got.top == want.top
    assert np.array_equal(got.value, want.value)
    for part in ("grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None)
        if w is not None:
            assert np.array_equal(g, w)


def exactly_symmetric(j):
    return j.hess is None or np.array_equal(j.hess, j.hess.swapaxes(-1, -2))


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
    """Array arithmetic against the same rules run on one entry at a time
    (single jets, at the array's order)."""

    @pytest.mark.parametrize("name", sorted(BINARY_RULES))
    @pytest.mark.parametrize("orders", [(2, 2), (0, 2), (2, 1), (1, 0)])
    def test_binary_rule_bit_for_bit(self, name, orders):
        rule = BINARY_RULES[name]
        rng = np.random.default_rng([sorted(BINARY_RULES).index(name), *orders])
        a = random_jets(rng, 40, orders[0])
        b = random_jets(rng, 40, orders[1], positive=name.endswith("div"))
        got = rule(a, b)
        for i in range(40):
            assert_same_jet(got[i], rule(a[i], b[i]))

    def test_broadcast_pairs_bit_for_bit(self):
        rng = np.random.default_rng(3)
        a = random_jets(rng, 5)
        b = random_jets(rng, 6)
        got = a[:, None] * b[None, :]
        for i in range(5):
            for j in range(6):
                assert_same_jet(got[i, j], a[i] * b[j])

    @pytest.mark.parametrize("order", [1, 2])
    def test_neg_and_sqrt_bit_for_bit(self, order):
        rng = np.random.default_rng([5, order])
        a = random_jets(rng, 40, order, positive=True)
        neg, root = -a, a.sqrt()
        for i in range(40):
            assert_same_jet(neg[i], -a[i])
            assert_same_jet(root[i], a[i].sqrt())
            assert exactly_symmetric(root[i])

    def test_domain_errors_match_scalar(self):
        z = stack([Jet.constant(1.0, 3), Jet.constant(0.0, 3)])
        with pytest.raises(ExprDomainError):
            JetArray.constant(1.0, 3, (2,)) / z
        with pytest.raises(ExprDomainError):
            (z - 2.0).sqrt()
        with pytest.raises(ExprDomainError):
            z.powi(-1)

    # A contraction against constant ones is the fold of its terms: a
    # running sum from +0.0, term 0 first, the same left-to-right sum as
    # adding the single jets one after the other.
    @pytest.mark.parametrize("order", [2, 1, 0])
    def test_fold_equals_sum_jets(self, order):
        rng = np.random.default_rng(3 - order)
        stacked = random_jets(rng, 37, order)
        want = sum_jets(stacked[i] for i in range(37))
        assert_same_jet(contract(stacked, JetArray.constant(1.0, D_RAND, (37,))), want)
        # Each term alone is itself.
        for i in range(37):
            one = contract(stacked[i : i + 1], JetArray.constant(1.0, D_RAND, (1,)))
            assert_same_jet(one, stacked[i])

    # A caller may contract a long run of entries in chunks to bound what it
    # holds at once, as the pairings contract one vector stack at a time.
    # Chunks of budget // D_RAND**top entries (a budget in floats of the top
    # part) give every entry the bits, signed zeros included, of one call.
    @pytest.mark.parametrize("budget", [1, 16, 40, 200, 10**6])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_fold_chunks_sized_by_top_order(self, order, budget):
        n, width = 37, 29
        rng = np.random.default_rng([1, order])
        a = random_jets(rng, n * width, order).reshape(n, width)
        b = random_jets(rng, n * width).reshape(n, width)
        want = contract(a, b)
        step = max(1, budget // D_RAND**want.top)
        starts = range(0, width, step)
        assert len(starts) == -(-width // step)
        for lo in starts:
            got = contract(a[:, lo : lo + step], b[:, lo : lo + step])
            part = want[lo : lo + step]
            assert got.top == part.top
            for name in ("value", "grad", "hess"):
                x, y = getattr(got, name), getattr(part, name)
                assert (x is None) == (y is None)
                if x is not None:
                    assert np.array_equal(x, y)
                    assert np.array_equal(np.signbit(x), np.signbit(y))

    def test_fold_along_stacked_axes(self):
        rng = np.random.default_rng(9)
        terms = [random_jets(rng, 3) for _ in range(11)]
        got = contract(stack(terms), JetArray.constant(1.0, D_RAND, (11, 1)))
        for i in range(3):
            assert_same_jet(got[i], sum_jets(t[i] for t in terms))

    def test_hessians_of_sums_and_folds_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        A = random_jets(rng, 30)
        B = random_jets(rng, 30)
        for out in (A + B, A - B, contract(A, B)):
            assert exactly_symmetric(out)

    @pytest.mark.parametrize("name", ["mul", "div"])
    def test_product_hessians_exactly_symmetric(self, name):
        # The two cross terms are added to each other before the symmetric
        # rest, so the Hessian equals its transpose to the bit.
        rng = np.random.default_rng(17)
        a = random_jets(rng, 2000)
        b = random_jets(rng, 2000, positive=True)
        out = BINARY_RULES[name](a, b)
        assert np.array_equal(out.hess, out.hess.swapaxes(-1, -2))
        for i in range(0, 2000, 97):
            assert exactly_symmetric(BINARY_RULES[name](a[i], b[i]))

    @pytest.mark.parametrize("order", [1, 2])
    def test_partials_match_jet_partial(self, order):
        rng = np.random.default_rng([19, order])
        a = random_jets(rng, 12, order)
        P = a.partials()
        for i in range(D_RAND):
            for x in range(12):
                assert_same_jet(P[i, x], a[x].partials()[i])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_round_trip_keeps_the_order(self, k):
        # A single entry indexed out of an array has the array's order and
        # its parts.
        rng = np.random.default_rng([23, k])
        a = random_jets(rng, 20, k)
        for x in range(20):
            j = a[x]
            assert j.shape == () and j.top == k
            assert j.value == a.value[x]
            assert (j.grad is None) == (k < 1) and (j.hess is None) == (k < 2)
            if k >= 1:
                assert np.array_equal(j.grad, a.grad[x])
            if k >= 2:
                assert np.array_equal(j.hess, a.hess[x])


def running_sum_contract(a, b):
    """contract's documented summation as a Python loop: every part a
    running sum over the leading axis from +0.0, term 0 first, each
    product rounded before it is added; the gradient sum a' b + sum a b',
    the Hessian (sum a'' b + sum a b'') + (C + C^T), C = sum a' b'^T.
    Returns the parts up to the lower top order."""

    def run(term):
        acc = 0.0
        for e in range(len(a)):
            acc = acc + term(e)
        return acc

    av, bv = a.value, b.value
    parts = [run(lambda e: av[e] * bv[e])]
    k = min(a.top, b.top)
    if k >= 1:
        parts.append(
            run(lambda e: a.grad[e] * bv[e][..., None])
            + run(lambda e: av[e][..., None] * b.grad[e])
        )
    if k >= 2:
        C = run(lambda e: a.grad[e][..., :, None] * b.grad[e][..., None, :])
        S = run(lambda e: a.hess[e] * bv[e][..., None, None]) + run(
            lambda e: av[e][..., None, None] * b.hess[e]
        )
        parts.append(S + (C + C.swapaxes(-1, -2)))
    return parts


def strided(x):
    """x as a view with every axis strided: every other entry of a larger
    buffer along each axis."""
    big = np.full(tuple(2 * n for n in x.shape), np.nan)
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return view


def misaligned(x):
    """x copied into a buffer whose address is not a multiple of 8."""
    buf = np.zeros(x.nbytes + 8, dtype=np.uint8)
    off = (4 - buf.ctypes.data) % 8
    y = buf[off : off + x.nbytes].view(np.float64).reshape(x.shape)
    y[...] = x
    assert not y.flags.aligned
    return y


def transposed(x):
    """x as the transpose of a C-contiguous array of the reversed shape."""
    return np.ascontiguousarray(x.T).T


LAYOUTS = {
    "c": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "strided": strided,
    "misaligned": misaligned,
    "transposed": transposed,
}


def relaid(a, layout):
    """The same jets with every part stored in the given layout."""
    f = LAYOUTS[layout]
    return JetArray(
        a.dim,
        f(np.asarray(a.value)),
        None if a.grad is None else f(a.grad),
        None if a.hess is None else f(a.hess),
    )


def random_contract_operands(rng):
    """Two random order-2 JetArrays sharing a leading axis of 1 to 40 terms,
    whose other axes (zero to three, sizes 1 to 5) broadcast against each
    other; a fifth of the values are signed zeros."""
    n = int(rng.integers(1, 41))
    full = tuple(int(x) for x in rng.integers(1, 6, int(rng.integers(0, 4))))

    def operand():
        shape = tuple(x if rng.random() < 0.7 else 1 for x in full)
        size = math.prod((n,) + shape)
        j = random_jets(rng, size).reshape(n, *shape)
        zero = rng.random(j.value.shape) < 0.2
        j.value[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        return j

    return operand(), operand()


def assert_same_parts(got, parts):
    for x, y in zip((got.value, got.grad, got.hess), parts):
        y = np.broadcast_to(y, np.shape(x))
        assert np.array_equal(x, y)
        assert np.array_equal(np.signbit(x), np.signbit(y))
    assert all(x is None for x in (got.grad, got.hess)[len(parts) - 1 :])


class TestContract:
    """contract's summation order is the documented running sum, in every
    memory layout of its operands."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_running_sum_in_every_layout(self, layout):
        rng = np.random.default_rng([7, sorted(LAYOUTS).index(layout)])
        for _ in range(60):
            a, b = random_contract_operands(rng)
            want = running_sum_contract(a, b)
            assert_same_parts(contract(a, b), want)
            assert_same_parts(contract(relaid(a, layout), relaid(b, layout)), want)

    def test_mixed_layouts(self):
        rng = np.random.default_rng(29)
        names = sorted(LAYOUTS)
        for trial in range(60):
            a, b = random_contract_operands(rng)
            want = running_sum_contract(a, b)
            la, lb = names[trial % len(names)], names[(trial // len(names)) % len(names)]
            assert_same_parts(contract(relaid(a, la), relaid(b, lb)), want)

    @pytest.mark.parametrize("orders", [(0, 2), (1, 2), (2, 1), (1, 0)])
    def test_orders(self, orders):
        rng = np.random.default_rng(list(orders))
        a = random_jets(rng, 30, orders[0]).reshape(10, 3)
        b = random_jets(rng, 10, orders[1]).reshape(10, 1)
        got = contract(a, b)
        assert got.top == min(orders) and got.shape == (3,)
        assert_same_parts(got, running_sum_contract(a, b))

    def test_hessian_exactly_symmetric_and_close_to_fold(self):
        # Against the left fold of the full product jets, to rounding.
        rng = np.random.default_rng(31)
        for _ in range(40):
            a, b = random_contract_operands(rng)
            got = contract(a, b)
            assert np.array_equal(got.hess, got.hess.swapaxes(-1, -2))
            terms, mags = a * b, magnitude(a) * magnitude(b)
            want = sum_jets(terms[e] for e in range(len(a)))
            mag = sum_jets(mags[e] for e in range(len(a)))
            for x, y, m in zip(
                (got.value, got.grad, got.hess),
                (want.value, want.grad, want.hess),
                (mag.value, mag.grad, mag.hess),
            ):
                assert np.all(np.abs(x - y) <= 1e-14 * m)

    @pytest.mark.parametrize(
        "shapes", [((3,), (4,)), ((), ()), ((0,), (0,)), ((2, 3), (3, 3)), ((3, 2), (3,))]
    )
    def test_needs_one_nonempty_shared_leading_axis(self, shapes):
        a, b = (JetArray.constant(1.0, 3, s) for s in shapes)
        with pytest.raises(ValueError, match="leading axis"):
            contract(a, b)


class TestElementaryFunctions:
    """sin, cos, exp and integer powers take an entry's value, f' and f''
    from math on that value as a Python float (np.exp, for one, differs
    from math.exp in the last bit on some doubles)."""

    RULES = {
        "sin": (lambda j: j.sin(), lambda v: (math.sin(v), math.cos(v), -math.sin(v))),
        "cos": (lambda j: j.cos(), lambda v: (math.cos(v), -math.sin(v), -math.cos(v))),
        "exp": (lambda j: j.exp(), lambda v: (math.exp(v),) * 3),
        "powi3": (lambda j: j.powi(3), lambda v: (v**3, 3 * v**2, 6 * v**1)),
        "powi-2": (
            lambda j: j.powi(-2),
            lambda v: (v**-2, -2 * v**-3, 6 * v**-4),
        ),
        "powi1": (lambda j: j.powi(1), lambda v: (v**1, 1 * v**0, 0.0)),
        "powi0": (lambda j: j.powi(0), lambda v: (v**0, 0.0, 0.0)),
    }

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_value_and_derivatives_from_math(self, name):
        apply, want = self.RULES[name]
        rng = np.random.default_rng(sorted(self.RULES).index(name))
        values = rng.uniform(-10.0, 10.0, size=2000)
        grad = rng.normal(size=D_RAND)
        h = rng.normal(size=(D_RAND, D_RAND))
        hess = h + h.T
        mismatches = 0
        for v in values.tolist():
            j = JetArray(D_RAND, np.array(v), grad, hess)
            got = apply(j)
            f, df, d2f = want(v)
            assert got.value.tobytes() == np.float64(f).tobytes()
            assert np.array_equal(got.grad, df * grad)
            assert np.array_equal(got.hess, df * hess + d2f * np.outer(grad, grad))
            mismatches += name == "exp" and np.exp(v) != math.exp(v)
        if name == "exp":
            # The property the rule guards: numpy's exp rounds differently
            # on some of these doubles, so taking it would move bits.
            assert mismatches > 0

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(RULES))
    def test_array_entries_match_single_jets(self, name, order):
        apply, _ = self.RULES[name]
        rng = np.random.default_rng([100 + sorted(self.RULES).index(name), order])
        a = random_jets(rng, 30, order)
        a.value[...] = rng.uniform(0.5, 3.0, size=30)
        got = apply(a)
        for i in range(30):
            assert_same_jet(got[i], apply(a[i]))


# -- the input tape against a plain tree walk -------------------------------


def chart_inputs(cs):
    """theta's, dtheta's and g's expressions, in the tape's order."""
    d = cs.dim
    return (
        list(cs.theta.components)
        + list(cs.dtheta.components)
        + [cs.g[i][j] for i in range(d) for j in range(d)]
    )


def distinct_nodes(exprs):
    seen = set()

    def walk(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in vars(node).values():
            if isinstance(child, (Lit, Coord, Unary, Binary, Pow)):
                walk(child)

    for e in exprs:
        walk(e)
    return len(seen)


class TestTape:
    def test_a_point_too_short_for_a_coordinate_is_refused(self):
        message = r"read coordinate 'z' \(index 2\), but the point has 2 coordinates"
        with pytest.raises(ValueError, match=message):
            eval_jet(parse_expr("z", ("x", "y", "z")), (0.1, 0.2), 2)
        form = FormField.one_form([parse_expr(t, ("x", "y", "z")) for t in ("x", "z*y", "y")])
        with pytest.raises(ValueError, match=message):
            form.eval((0.1, 0.2), 1)
        # A longer point is a point of a higher-dimensional chart.
        assert eval_jet(parse_expr("y", ("x", "y")), (0.1, 0.2, 0.3), 1).grad.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("name", CHARTS)
    def test_inputs_match_tree_walk_bit_for_bit(self, name):
        spec = chart_spec(name)
        cs = spec.build()
        exprs = chart_inputs(cs)
        tape = cs.input_tape
        assert len(tape.outputs) == len(exprs)
        for p in sample_box(spec.box, 3, 11):
            for order in (0, 1, 2):
                got = tape.eval(p, order)
                for e, j in zip(exprs, got):
                    assert_same_bits(j, tree_walk_jet(e, p, order))
            inputs = cs.inputs_at(p)
            d = cs.dim
            for i in range(d):
                assert_same_bits(inputs.theta[i], tree_walk_jet(exprs[i], p, 2))
                for j in range(d):
                    assert_same_bits(inputs.G[i, j], tree_walk_jet(cs.g[i][j], p, 2))
            for x, e in enumerate(exprs[d : d + len(inputs.dtheta)]):
                assert_same_bits(inputs.dtheta[x], tree_walk_jet(e, p, 2))

    def test_shared_subexpressions_get_one_slot(self):
        texts = ["x/(1 + x^2 + y^2)^2", "y/(1 + x^2 + y^2)^2", "(1 + x^2 + y^2)^2"]
        exprs = [parse_expr(t, XYZ) for t in texts]
        tape = Tape(exprs)
        # x, y, 1, x^2, 1 + x^2, y^2, 1 + x^2 + y^2, its square, two quotients
        assert len(tape.code) == 10
        assert tape.outputs[2] < tape.outputs[0] < tape.outputs[1]
        p = (0.3, -0.4, 0.0)
        for e, j in zip(exprs, tape.eval(p, 2)):
            assert_same_bits(j, tree_walk_jet(e, p, 2))

    def test_sphere_chart_tape_shares_most_nodes(self):
        cs = chart_spec("sphere-chart").build()
        assert len(cs.input_tape.code) < distinct_nodes(chart_inputs(cs)) // 2

    def test_signed_zero_literals_get_distinct_slots(self):
        x = Coord(0, "x")
        exprs = [Binary("*", Lit(0.0), x), Binary("*", Lit(-0.0), x)]
        tape = Tape(exprs)
        assert tape.outputs[0] != tape.outputs[1]
        pos, neg = tape.eval((2.0, 0.0, 0.0), 0)
        assert math.copysign(1.0, pos.value) == 1.0
        assert math.copysign(1.0, neg.value) == -1.0

    def test_compiles_by_node_identity(self):
        # A DAG with 2^40 root-to-leaf paths compiles in 41 slots.
        e = Coord(0, "x")
        for _ in range(40):
            e = Binary("+", e, e)
        tape = Tape([e])
        assert len(tape.code) == 41
        assert tape.eval((1.0, 0.0, 0.0), 0)[0].value == 2.0**40

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_repeated_evaluation_gives_the_same_bits(self, order):
        cs = chart_spec("sphere-chart").build()
        tape = Tape(chart_inputs(cs))
        p, q = sample_box(chart_spec("sphere-chart").box, 2, 5)

        def parts(out):
            assert out.top == order
            return [x for x in (out.value, out.grad, out.hess) if x is not None]

        first = parts(tape.eval(p, order))
        want = [x.tobytes() for x in first]
        # The outputs are the caller's own: writing into them changes no
        # later call.
        for x in first:
            x.fill(math.nan)
        tape.eval(q, order)
        assert [x.tobytes() for x in parts(tape.eval(p, order))] == want

    def test_a_rule_message_survives_whole(self, monkeypatch):
        import contactconn.jets as jets

        def refuse(*args):
            raise ExprDomainError("quotient in no chart", "<jet quotient>")

        monkeypatch.setattr(jets, "_div_rule", refuse)
        with pytest.raises(ExprDomainError) as exc:
            Tape([parse_expr("1 + x/y", XYZ)]).eval((0.3, 0.4, 0.0), 2)
        assert (exc.value.message, exc.value.subexpr) == ("quotient in no chart", "x / y")
        assert str(exc.value) == "quotient in no chart in 'x / y'"

    def test_eval_jet_is_the_one_expression_tape(self):
        e = parse_expr("sin(x*y) * exp(z) / (2 + cos(x))", XYZ)
        p = (0.3, -0.7, 0.2)
        for order in (0, 1, 2):
            assert_same_bits(eval_jet(e, p, order), Tape([e]).eval(p, order)[0])
            assert_same_bits(eval_jet(e, p, order), tree_walk_jet(e, p, order))

    @pytest.mark.parametrize(
        "texts, p, message, subexpr",
        [
            (["x", "exp(x) + 1"], (750.0, 0.0, 0.0), "no finite float result", "exp(x)"),
            (["x", "x^200"], (50.0, 0.0, 0.0), "no finite float result", "x^200"),
            (
                ["sin(x^150*x^150)"],
                (105.0, 0.0, 0.0),
                "no finite float result",
                "sin(x^150 * x^150)",
            ),
            (
                ["x", "1 + x^150*x^150", "exp(x)"],
                (105.0, 0.0, 0.0),
                "value, gradient or Hessian is not finite",
                "1 + x^150 * x^150",
            ),
            # The value is finite, its Hessian, 1e-308 * 640000 * e^700, not.
            (
                ["y", "1e-308*exp(800*x)"],
                (0.875, 0.0, 0.0),
                "value, gradient or Hessian is not finite",
                "1e-308 * exp(800 * x)",
            ),
            # A square root's value is a numpy float; the power still
            # takes it as a Python float.
            (["sqrt(x)^200"], (1e10, 0.0, 0.0), "no finite float result", "sqrt(x)^200"),
        ],
    )
    def test_no_finite_result_names_the_expression(self, texts, p, message, subexpr):
        with pytest.raises(ExprDomainError, match=message) as exc:
            Tape([parse_expr(t, XYZ) for t in texts]).eval(p, 2)
        assert exc.value.subexpr == subexpr

    @pytest.mark.parametrize(
        "texts, p, order, subexpr",
        [
            (["x + 1", "1/(x - 1) + sqrt(y)", "sqrt(y)"], (1.0, -1.0, 0.0), 2, "1 / (x - 1)"),
            (["sqrt(y) * 2", "1/(x - 1)"], (1.0, -1.0, 0.0), 0, "sqrt(y)"),
            (["x*y", "(x - 1)^-2 + y", "sqrt(x - 1)"], (1.0, 2.0, 0.0), 1, "(x - 1)^-2"),
            (["x*y", "sqrt(x - 1)", "(x - 1)^-2"], (1.0, 2.0, 0.0), 1, "sqrt(x - 1)"),
            (["z + sqrt(x - 1)"], (1.0, 2.0, 0.0), 0, None),
            (["exp(x)", "cos(y)/(z*z)", "1/z"], (1.0, 2.0, 0.0), 2, "cos(y) / (z * z)"),
        ],
    )
    def test_domain_error_names_the_tree_walk_subexpression(self, texts, p, order, subexpr):
        exprs = [parse_expr(t, XYZ) for t in texts]

        def first_error(evaluate):
            try:
                evaluate()
            except ExprDomainError as exc:
                return str(exc), exc.subexpr
            return None

        want = first_error(lambda: [tree_walk_jet(e, p, order) for e in exprs])
        assert (want and want[1]) == subexpr
        assert first_error(lambda: Tape(exprs).eval(p, order)) == want


# -- the tape against its oracle, the tree walk through JetArray operators --

# Literals and coordinate values that reach every domain error: zeros of
# both signs for quotients, negative powers and sqrt, a negative value for
# sqrt, 750 for exp beyond the float range and 1e200 for products beyond
# it.
ORACLE_LITERALS = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 1e200)
ORACLE_VALUES = (0.0, -0.0, 0.5, -1.0, 2.0, 750.0)
DOMAIN_ERRORS = (
    "division by zero",
    "sqrt of negative value",
    "sqrt not differentiable at zero",
    "zero raised to a negative power",
    "no finite float result",
    "value, gradient or Hessian is not finite",
)


def oracle_trees():
    leaves = st.one_of(
        st.sampled_from(ORACLE_LITERALS).map(Lit),
        st.sampled_from([Coord(i, name) for i, name in enumerate(XYZ)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Binary, st.sampled_from("+-*/"), children, children),
            st.builds(Unary, st.sampled_from(["neg", "sqrt", "sin", "cos", "exp"]), children),
            st.builds(Pow, children, st.integers(min_value=-3, max_value=4)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


# (expressions, point, order) cases for the tape and its oracle.
ORACLE_CASES = st.tuples(
    st.lists(oracle_trees(), min_size=1, max_size=3),
    st.tuples(*[st.sampled_from(ORACLE_VALUES)] * 3),
    st.integers(min_value=0, max_value=2),
)


def outcome(evaluate):
    """The jets evaluate() gives and None, or None and the message and
    subexpression of the ExprDomainError it raises."""
    try:
        return list(evaluate()), None
    except ExprDomainError as exc:
        return None, (str(exc), exc.subexpr)


def assert_tape_matches_oracle(tape, exprs, p, order):
    got, got_error = outcome(lambda: tape.eval(p, order))
    want, want_error = outcome(lambda: tape_oracle(exprs, p, order))
    assert got_error == want_error
    if want is not None:
        assert len(got) == len(want)
        for j, w in zip(got, want):
            assert_same_bits(j, w)


class TestRulesLeaveTheirOperands:
    # The slots of one tape call share their zero parts, which is safe
    # only while no rule writes into its operands: every rule runs here on
    # read-only operands, of both value kinds (an array's entries and a
    # tape slot's Python float), at every order.
    @staticmethod
    def frozen(k, shape, seed):
        rng = np.random.default_rng(seed)

        def part(tail):
            a = 0.5 + rng.random(shape + tail)
            a.flags.writeable = False
            return a

        value = part(()) if shape else 0.5 + float(rng.random())
        return value, part((3,)) if k >= 1 else None, part((3, 3)) if k >= 2 else None

    @pytest.mark.parametrize("shape", [(), (2,)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_no_rule_writes_into_its_operands(self, k, shape):
        from contactconn import jets

        # A write into a read-only array raises ValueError.
        a, b = self.frozen(k, shape, 1), self.frozen(k, shape, 2)
        for rule in (jets._add_rule, jets._sub_rule, jets._mul_rule, jets._div_rule):
            rule(k, *a, *b)
        for rule in (jets._neg_rule, jets._sqrt_rule):
            rule(k, *a)
        jets._chain_rule(k, b[0], b[0], b[0], *a[1:])
        jets._check_powi(a[0], -2)


class TestTapeOracle:
    @pytest.mark.parametrize("name", CHARTS)
    def test_chart_tape_matches_oracle(self, name):
        spec = chart_spec(name)
        cs = spec.build()
        d = cs.dim
        # Sample points, then points where products or powers leave the
        # float range.
        points = list(sample_box(spec.box, 3, 11)) + [(1e160,) * d, (-1e300,) + (0.5,) * (d - 1)]
        for p in points:
            for order in (0, 1, 2):
                assert_tape_matches_oracle(cs.input_tape, chart_inputs(cs), p, order)

    @settings(max_examples=300)
    @given(ORACLE_CASES)
    def test_drawn_trees_match_oracle(self, case):
        exprs, p, order = case
        assert_tape_matches_oracle(Tape(exprs), exprs, p, order)
        # Each tree and each of its derivatives prints as text that parses
        # back to it, negative constants of the smart constructors too.
        for e in exprs:
            for tree in (e, *(diff(e, i) for i in range(len(XYZ)))):
                assert parse_expr(pretty(tree), XYZ) == tree

    @pytest.mark.parametrize("message", DOMAIN_ERRORS)
    def test_drawn_trees_reach_each_domain_error(self, message):
        def raises_it(case):
            exprs, p, order = case
            _, error = outcome(lambda: Tape(exprs).eval(p, order))
            return error is not None and error[0].startswith(message + " in ")

        # The first drawn case that raises it, unshrunk.
        find(ORACLE_CASES, raises_it, settings=settings(max_examples=2000, phases=[Phase.generate]))


class TestDomainChecksOnBothValueKinds:
    # A tape slot's value is a Python float and a JetArray's a numpy array
    # or scalar; each domain check raises on either, naming the tape's
    # subexpression or the array rule's placeholder.
    @pytest.mark.parametrize(
        "text, p, order, message, subexpr",
        [
            ("y + 1/x", (0.0, 1.0, 1.0), 2, "division by zero", "1 / x"),
            ("y + 1/x", (-0.0, 1.0, 1.0), 2, "division by zero", "1 / x"),
            ("y + 1/x", (-0.0, 1.0, 1.0), 0, "division by zero", "1 / x"),
            ("y * sqrt(x - 2)", (1.0, 1.0, 1.0), 0, "sqrt of negative value", "sqrt(x - 2)"),
            ("y * sqrt(x)", (0.0, 1.0, 1.0), 1, "sqrt not differentiable at zero", "sqrt(x)"),
            ("y * sqrt(x)", (0.0, 1.0, 1.0), 2, "sqrt not differentiable at zero", "sqrt(x)"),
            ("1 + x^-2", (0.0, 1.0, 1.0), 2, "zero raised to a negative power", "x^-2"),
            ("1 + x^-2", (-0.0, 1.0, 1.0), 0, "zero raised to a negative power", "x^-2"),
        ],
    )
    def test_tape_slots(self, text, p, order, message, subexpr):
        with pytest.raises(ExprDomainError) as exc:
            Tape([parse_expr(text, XYZ)]).eval(p, order)
        assert str(exc.value) == f"{message} in {subexpr!r}"

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    @pytest.mark.parametrize(
        "op, v, order, message, placeholder",
        [
            ("1/", 0.0, 2, "division by zero", "<jet quotient>"),
            ("1/", -0.0, 0, "division by zero", "<jet quotient>"),
            ("sqrt", -1.0, 0, "sqrt of negative value", "<jet sqrt>"),
            ("sqrt", 0.0, 1, "sqrt not differentiable at zero", "<jet sqrt>"),
            ("sqrt", -0.0, 2, "sqrt not differentiable at zero", "<jet sqrt>"),
            ("powi", 0.0, 2, "zero raised to a negative power", "<jet pow>"),
        ],
    )
    def test_jet_arrays(self, shape, op, v, order, message, placeholder):
        x = JetArray.constant(v, 3, shape, order)
        with pytest.raises(ExprDomainError) as exc:
            if op == "1/":
                JetArray.constant(1.0, 3, shape) / x
            elif op == "sqrt":
                x.sqrt()
            else:
                x.powi(-1)
        assert str(exc.value) == f"{message} in {placeholder!r}"

    def test_one_bad_entry_is_enough(self):
        den = JetArray.constant(2.0, 3, (2, 2))
        den[1, 0] = -0.0
        with pytest.raises(ExprDomainError, match="division by zero"):
            JetArray.constant(1.0, 3, (2, 2)) / den

    def test_zero_of_order_zero_has_a_square_root(self):
        # Only a differentiated zero fails.
        for shape in [(), (2,)]:
            root = JetArray.constant(0.0, 3, shape, 0).sqrt()
            assert root.value.tolist() == np.zeros(shape).tolist()
        assert Tape([parse_expr("sqrt(x)", XYZ)]).eval((0.0, 1.0, 1.0), 0).value.tolist() == [0.0]

    def test_nan_divisor_is_not_a_zero_divisor(self):
        # NaN compares unequal to zero: the array rule returns NaN, and the
        # tape reports the non-finite output.
        q = JetArray.constant(1.0, 3) / JetArray.constant(math.nan, 3)
        assert math.isnan(q.value)
        with pytest.raises(ExprDomainError) as exc:
            Tape([parse_expr("1/x", XYZ)]).eval((math.nan, 1.0, 1.0), 2)
        assert str(exc.value) == "value, gradient or Hessian is not finite in '1 / x'"
