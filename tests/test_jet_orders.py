"""The one order of a JetArray.

Every JetArray carries one jet order, its top. Each test draws operands
of rank 0 to 3 and of random orders, runs one operation on them and
checks that

- the result's top is the lowest top among the operands (one below it
  for partials);
- its parts are the parts of the same operation on the operands cut to
  that order, and cutting the operands to any lower order k gives the
  result cut to k.

__setitem__ refuses an entry of lower order than the array, naming both
orders, and concatenate joins its items at their lowest order.
"""

import numpy as np
import pytest

from contactconn.errors import ExprDomainError
from contactconn.expressions import parse_expr
from contactconn.forms import wedge
from contactconn.jets import (
    JetArray,
    Tape,
    concatenate,
    contract,
    jet_cholesky,
    jet_linear_solve,
)

DIM = 3
SEEDS = range(12)


def draw(rng, shape, top, positive=False):
    """Random jets of the given shape and order, with symmetric Hessians."""
    shape = tuple(shape)
    value = rng.uniform(0.5, 2.0, shape) if positive else rng.normal(size=shape)
    h = rng.normal(size=shape + (DIM, DIM))
    whole = JetArray(DIM, value, rng.normal(size=shape + (DIM,)), h + np.swapaxes(h, -1, -2))
    return whole.restrict(top)


def draw_any(rng, shape, positive=False, low=0):
    return draw(rng, shape, int(rng.integers(low, 3)), positive=positive)


def random_shape(rng, rank=None):
    rank = int(rng.integers(0, 4)) if rank is None else rank
    return tuple(int(s) for s in rng.integers(1, 4, size=rank))


def broadcast_partner(rng, shape):
    """A shape that broadcasts against shape: some axes set to 1, some
    leading axes dropped."""
    out = tuple(1 if rng.random() < 0.3 else s for s in shape)
    return out[int(rng.integers(0, len(shape) + 1)) :] if shape else out


def assert_same_parts(got, want):
    assert got.shape == want.shape and got.top == want.top
    for part in ("value", "grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None), part
        if w is not None:
            assert np.array_equal(g, w), part


def check(fn, operands, want_top):
    """fn of operands has top want_top and the parts of fn on the
    operands cut to that order; cutting them to any lower order k gives
    the result cut to k."""
    got = fn(*operands)
    assert got.top == want_top
    for k in range(want_top, -1, -1):
        assert_same_parts(fn(*(x.restrict(k) for x in operands)), got.restrict(k))
    return got


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@pytest.mark.parametrize("seed", SEEDS)
def test_binary_operators(op, seed):
    rng = np.random.default_rng(seed)
    fn = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }[op]
    shapes = [random_shape(rng)]
    shapes.append(broadcast_partner(rng, shapes[0]))
    if rng.random() < 0.5:
        shapes.reverse()
    a = draw_any(rng, shapes[0])
    b = draw_any(rng, shapes[1], positive=True)
    check(fn, (a, b), min(a.top, b.top))
    # A plain number lifts to a constant of the top order.
    check(lambda x: fn(x, 1.5), (a,), a.top)
    check(lambda x: fn(2.5, x), (b,), b.top)
    assert_same_parts(fn(a, 1.5), fn(a, JetArray.constant(1.5, DIM, (), a.top)))
    assert_same_parts(fn(2.5, b), fn(JetArray.constant(2.5, DIM, (), b.top), b))


@pytest.mark.parametrize("name", ["neg", "sqrt", "sin", "cos", "exp", "powi"])
@pytest.mark.parametrize("seed", SEEDS)
def test_unary_operations(name, seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng), positive=True)
    k = int(rng.integers(-2, 4))
    fn = {
        "neg": lambda x: -x,
        "sqrt": lambda x: x.sqrt(),
        "sin": lambda x: x.sin(),
        "cos": lambda x: x.cos(),
        "exp": lambda x: x.exp(),
        "powi": lambda x: x.powi(k),
    }[name]
    check(fn, (a,), a.top)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_sqrt_of_zero_fails_from_order_one(order):
    zero = JetArray.constant(0.0, DIM, (2,), order)
    if order == 0:
        assert zero.sqrt().value.tolist() == [0.0, 0.0]
    else:
        with pytest.raises(ExprDomainError, match="not differentiable at zero"):
            zero.sqrt()


@pytest.mark.parametrize("seed", SEEDS)
def test_indexing_keeps_the_order(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng, int(rng.integers(1, 4))))
    one = tuple(int(rng.integers(0, s)) for s in a.shape)
    for idx in (one, slice(1, None), [0, 0], None):
        got = check(lambda x: x[idx], (a,), a.top)
        assert np.array_equal(got.value, a.value[idx])


@pytest.mark.parametrize("seed", SEEDS)
def test_setitem_of_a_lower_order_entry_raises(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, int(rng.integers(1, 4)))
    top = int(rng.integers(1, 3))
    idx = tuple(int(rng.integers(0, s)) for s in shape[: int(rng.integers(1, len(shape) + 1))])
    out = draw(rng, shape, top)
    before = [None if p is None else np.array(p) for p in (out.value, out.grad, out.hess)]
    low = int(rng.integers(0, top))
    entry = draw(rng, shape[len(idx) :], low)
    with pytest.raises(ValueError, match=f"order-{low} jets into an order-{top} array"):
        out[idx] = entry
    assert_same_parts(out, JetArray(DIM, *before))


@pytest.mark.parametrize("seed", SEEDS)
def test_setitem_cuts_a_higher_order_entry(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, int(rng.integers(1, 4)))
    top = int(rng.integers(0, 2))
    idx = tuple(int(rng.integers(0, s)) for s in shape[: int(rng.integers(1, len(shape) + 1))])
    entry = draw(rng, shape[len(idx) :], int(rng.integers(top, 3)))
    out, cut = draw(rng, shape, top), JetArray.constant(0.0, DIM, shape, top)
    cut[...] = out
    out[idx] = entry
    cut[idx] = entry.restrict(top)
    assert out.top == top
    assert_same_parts(out, cut)


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng))
    for k in range(3):
        got = a.restrict(k)
        assert got.top == min(a.top, k)
        assert_same_parts(got.restrict(a.top), got)


@pytest.mark.parametrize("seed", SEEDS)
def test_transpose_and_reshape(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng))
    axes = tuple(int(i) for i in rng.permutation(len(a.shape)))
    check(lambda x: x.transpose(*axes), (a,), a.top)
    flat = (int(np.prod(a.shape)),)
    check(lambda x: x.reshape(*flat), (a,), a.top)


@pytest.mark.parametrize("seed", SEEDS)
def test_partials(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng), low=1)
    got = a.partials()
    assert got.top == a.top - 1 and got.shape == (DIM,) + a.shape
    for k in range(1, a.top + 1):
        assert_same_parts(a.restrict(k).partials(), got.restrict(k - 1))
    with pytest.raises(ValueError, match="order >= 1"):
        a.restrict(0).partials()


@pytest.mark.parametrize("seed", SEEDS)
def test_concatenate(seed):
    rng = np.random.default_rng(seed)
    rest = random_shape(rng, int(rng.integers(0, 3)))
    n = int(rng.integers(1, 4))
    items = [draw_any(rng, (int(rng.integers(1, 3)),) + rest) for _ in range(n)]
    k = min(x.top for x in items)
    got = check(lambda *xs: concatenate(xs), items, k)
    # Entry by entry, the items cut to the lowest order.
    start = 0
    for x in items:
        assert_same_parts(got[start : start + len(x)], x.restrict(k))
        start += len(x)


@pytest.mark.parametrize("seed", SEEDS)
def test_contract(seed):
    rng = np.random.default_rng(seed)
    rest = random_shape(rng, int(rng.integers(0, 3)))
    e = int(rng.integers(1, 4))
    shapes = [(e,) + rest, (e,) + tuple(1 if rng.random() < 0.3 else s for s in rest)]
    if rng.random() < 0.5:
        shapes.reverse()
    a, b = draw_any(rng, shapes[0]), draw_any(rng, shapes[1])
    check(contract, (a, b), min(a.top, b.top))


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("seed", SEEDS)
def test_wedge(p, q, seed):
    rng = np.random.default_rng(seed)
    a, b = draw_any(rng, (3,)), draw_any(rng, (3,))
    check(lambda x, y: wedge(x, p, y, q), (a, b), min(a.top, b.top))


@pytest.mark.parametrize("seed", SEEDS)
def test_jet_linear_solve(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    A = draw_any(rng, (m, m))
    A.value[...] += 4.0 * np.eye(m)
    b = draw_any(rng, (m,) if rng.random() < 0.5 else (m, 2))
    check(jet_linear_solve, (A, b), min(A.top, b.top))


@pytest.mark.parametrize("seed", SEEDS)
def test_jet_cholesky(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    a = draw_any(rng, (m, m))
    G = a + a.transpose(1, 0)
    G.value[...] = np.eye(m) * (4.0 * m) + rng.uniform(-1.0, 1.0) * np.ones((m, m))
    check(jet_cholesky, (G,), G.top)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_tape_outputs(order):
    tape = Tape([parse_expr(t, ("x", "y", "z")) for t in ("x*y", "sqrt(1 + z*z)", "2")])
    got = tape.eval((0.3, -0.2, 0.7), order)
    assert got.top == order and got[1].top == order
