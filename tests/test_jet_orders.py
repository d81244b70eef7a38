"""Entry orders of a JetArray in both of its states.

A JetArray keeps a per-entry order array only when its entries' orders
may differ; when every entry carries the top order it keeps none. Each
test draws operands of rank 0 to 3, some uniform and some with mixed
orders, runs one operation on them and checks that

- .order equals a reference built from the operands' orders by
  elementwise minimum;
- .order cannot be written, in either state;
- every part has the bits the same operation gives when each operand
  holds an explicit order array (a uniform operand's twin holds one
  with every entry at the top order).
"""

import numpy as np
import pytest

from contactconn.expressions import parse_expr
from contactconn.forms import increasing_indices, wedge
from contactconn.jets import JetArray, Tape, concatenate, contract, jet_linear_solve

DIM = 3
SEEDS = range(12)


def draw(rng, shape, top, mixed, low=0, positive=False):
    """Random jets of the given shape and top order, with symmetric
    Hessians. mixed gives each entry an order drawn from low..top in an
    explicit array; otherwise every entry carries the top order and the
    array keeps none. Parts above an entry's order are zeros."""
    shape = tuple(shape)
    value = rng.uniform(0.5, 2.0, shape) if positive else rng.normal(size=shape)
    order = rng.integers(low, top + 1, size=shape).astype(np.int8) if mixed else None
    k = np.broadcast_to(top if order is None else order, shape)
    grad = hess = None
    if top >= 1:
        grad = rng.normal(size=shape + (DIM,)) * (k >= 1)[..., None]
    if top >= 2:
        h = rng.normal(size=shape + (DIM, DIM))
        hess = (h + np.swapaxes(h, -1, -2)) * (k >= 2)[..., None, None]
    return JetArray(DIM, value, grad, hess, order)


def draw_any(rng, shape, positive=False, low=0):
    top = int(rng.integers(low, 3))
    return draw(rng, shape, top, bool(rng.integers(2)), low=low, positive=positive)


def twin(x):
    """A copy of x with an explicit order array, whatever state x is in."""
    copy = lambda part: None if part is None else np.array(part)  # noqa: E731
    return JetArray(x.dim, np.array(x.value), copy(x.grad), copy(x.hess), np.array(x.order))


def random_shape(rng, rank=None):
    rank = int(rng.integers(0, 4)) if rank is None else rank
    return tuple(int(s) for s in rng.integers(1, 4, size=rank))


def broadcast_partner(rng, shape):
    """A shape that broadcasts against shape: some axes set to 1, some
    leading axes dropped."""
    out = tuple(1 if rng.random() < 0.3 else s for s in shape)
    return out[int(rng.integers(0, len(shape) + 1)) :] if shape else out


def assert_read_only(x):
    with pytest.raises(ValueError):
        x.order[...] = 0


def assert_same_parts(got, want):
    assert got.shape == want.shape and got.top == want.top
    for part in ("value", "grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None), part
        if w is not None:
            assert np.array_equal(g, w), part


def check(got, want_order, same_as=None):
    """got's orders are want_order, read-only, and its parts those of
    same_as (the operation on the operands' twins)."""
    want_order = np.asarray(want_order)
    assert got.order.shape == got.shape == want_order.shape
    assert np.array_equal(got.order, want_order)
    assert int(got.order.max(initial=0)) <= got.top
    assert_read_only(got)
    if same_as is not None:
        assert_same_parts(got, same_as)
        assert np.array_equal(got.order, same_as.order)


@pytest.mark.parametrize("seed", SEEDS)
def test_drawn_operands_are_read_only_in_both_states(seed):
    rng = np.random.default_rng(seed)
    for mixed in (False, True):
        x = draw(rng, random_shape(rng), int(rng.integers(0, 3)), mixed)
        assert_read_only(x)
        if not mixed:
            assert np.array_equal(x.order, np.full(x.shape, x.top))


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
    want = np.minimum(a.order, b.order)
    check(fn(a, b), want, fn(twin(a), twin(b)))
    # A plain number lifts to a constant of the top order.
    check(fn(a, 1.5), a.order, fn(twin(a), 1.5))
    check(fn(2.5, b), b.order, fn(2.5, twin(b)))


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
    check(fn(a), a.order, fn(twin(a)))


@pytest.mark.parametrize("seed", SEEDS)
def test_single_entry_comes_cut_to_its_order(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng, int(rng.integers(1, 4))))
    idx = tuple(int(rng.integers(0, s)) for s in a.shape)
    got = a[idx]
    k = int(a.order[idx])
    assert got.top == k
    check(got, k, twin(a)[idx])


@pytest.mark.parametrize("seed", SEEDS)
def test_slices_keep_their_entries_orders(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng, int(rng.integers(1, 4))))
    for idx in (slice(1, None), [0, 0], None):
        check(a[idx], a.order[idx], twin(a)[idx])


@pytest.mark.parametrize("seed", SEEDS)
def test_setitem_of_a_lower_order_entry(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, int(rng.integers(1, 4)))
    top = int(rng.integers(1, 3))
    idx = tuple(int(rng.integers(0, s)) for s in shape[: int(rng.integers(1, len(shape) + 1))])
    entry = draw(rng, shape[len(idx) :], int(rng.integers(0, top)), bool(rng.integers(2)))
    out = draw(rng, shape, top, False)
    out_twin = twin(out)
    want = np.array(out.order)
    want[idx] = np.minimum(entry.order, top)
    out[idx] = entry
    out_twin[idx] = twin(entry)
    check(out, want, out_twin)


@pytest.mark.parametrize("seed", SEEDS)
def test_setitem_into_a_mixed_container_leaves_sharers_alone(seed):
    rng = np.random.default_rng(seed)
    shape = random_shape(rng, int(rng.integers(1, 4)))
    a = draw(rng, shape, 2, True)
    sharer = -a  # holds a's order array
    want = np.array(a.order)
    a[0] = JetArray.constant(0.0, DIM, shape[1:], 0)
    assert np.array_equal(sharer.order, want)
    want[0] = 0
    check(a, want)


@pytest.mark.parametrize("seed", SEEDS)
def test_restrict(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng))
    for k in range(3):
        got = a.restrict(k)
        assert got.top == min(a.top, k)
        check(got, np.minimum(a.order, k), twin(a).restrict(k))


@pytest.mark.parametrize("seed", SEEDS)
def test_transpose_and_reshape(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng))
    axes = tuple(int(i) for i in rng.permutation(len(a.shape)))
    check(a.transpose(*axes), a.order.transpose(axes), twin(a).transpose(*axes))
    flat = (int(np.prod(a.shape)),)
    check(a.reshape(*flat), a.order.reshape(flat), twin(a).reshape(*flat))


@pytest.mark.parametrize("seed", SEEDS)
def test_partials(seed):
    rng = np.random.default_rng(seed)
    a = draw_any(rng, random_shape(rng), low=1)
    want = np.broadcast_to(np.asarray(a.order) - 1, (DIM,) + a.shape)
    check(a.partials(), want, twin(a).partials())
    for k in range(3):
        low = JetArray(DIM, np.ones(2), np.ones((2, DIM)), None, np.array([1, 0], np.int8))
        with pytest.raises(ValueError, match="order >= 1"):
            (low if k == 1 else a.restrict(0) if k == 0 else low.restrict(1)).partials()


@pytest.mark.parametrize("seed", SEEDS)
def test_concatenate(seed):
    rng = np.random.default_rng(seed)
    rest = random_shape(rng, int(rng.integers(0, 3)))
    n = int(rng.integers(1, 4))
    items = [draw_any(rng, (int(rng.integers(1, 3)),) + rest) for _ in range(n)]
    want = np.concatenate([x.order for x in items])
    check(concatenate(items), want, concatenate([twin(x) for x in items]))


@pytest.mark.parametrize("seed", SEEDS)
def test_contract(seed):
    rng = np.random.default_rng(seed)
    rest = random_shape(rng, int(rng.integers(0, 3)))
    e = int(rng.integers(1, 4))
    shapes = [(e,) + rest, (e,) + tuple(1 if rng.random() < 0.3 else s for s in rest)]
    if rng.random() < 0.5:
        shapes.reverse()
    a, b = draw_any(rng, shapes[0]), draw_any(rng, shapes[1])
    want = np.minimum(a.order, b.order).min(axis=0)
    check(contract(a, b), want, contract(twin(a), twin(b)))


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("seed", SEEDS)
def test_wedge(p, q, seed):
    rng = np.random.default_rng(seed)
    a, b = draw_any(rng, (3,)), draw_any(rng, (3,))
    want = np.full(len(increasing_indices(DIM, p + q)), min(a.order.min(), b.order.min()))
    check(wedge(a, p, b, q), want, wedge(twin(a), p, twin(b), q))


@pytest.mark.parametrize("seed", SEEDS)
def test_jet_linear_solve(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    A = draw_any(rng, (m, m))
    A.value[...] += 4.0 * np.eye(m)
    b = draw_any(rng, (m,) if rng.random() < 0.5 else (m, 2))
    want = np.full(b.shape, min(A.order.min(), b.order.min()))
    check(jet_linear_solve(A, b), want, jet_linear_solve(twin(A), twin(b)))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_tape_outputs(order):
    tape = Tape([parse_expr(t, ("x", "y", "z")) for t in ("x*y", "sqrt(1 + z*z)", "2")])
    got = tape.eval((0.3, -0.2, 0.7), order)
    check(got, np.full(3, order))
    check(got[1], order)
