import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contactconn.errors import ExprDomainError, ParseError, UnknownIdentifierError
from contactconn.expressions import (
    MAX_NESTING,
    Binary,
    Coord,
    Lit,
    Pow,
    Unary,
    add,
    div,
    diff,
    is_identifier,
    mul,
    parse_expr,
    pretty,
    sub,
)
from contactconn.jets import Tape, eval_jet

XYZ = ("x", "y", "z")


def ev(text, p):
    return eval_jet(parse_expr(text, XYZ), p, 0).value


class TestParse:
    def test_coordinate_lookup(self):
        e = parse_expr("z", XYZ)
        assert e == Coord(2, "z")

    def test_arithmetic(self):
        assert ev("1 - y*y", (0.0, 2.0, 0.0)) == -3.0

    def test_unterminated_call_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("sin(x", XYZ)
        assert exc.value.offset == 5

    def test_unknown_identifier_names_coords(self):
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_expr("x + w", XYZ)
        assert "w" in str(exc.value)
        assert "x, y, z" in str(exc.value)

    def test_precedence(self):
        assert ev("2+3*4", (0, 0, 0)) == 14.0
        assert ev("2*3^2", (0, 0, 0)) == 18.0
        assert ev("-x^2", (3, 0, 0)) == -9.0
        assert ev("6/3/2", (0, 0, 0)) == 1.0
        assert ev("1-2-3", (0, 0, 0)) == -4.0

    def test_pow_right_associative(self):
        # 2^3^2 = 2^(3^2)
        assert ev("2^3^2", (0, 0, 0)) == 512.0

    def test_pow_requires_integer_exponent(self):
        with pytest.raises(ParseError):
            parse_expr("x^0.5", XYZ)
        with pytest.raises(ParseError):
            parse_expr("x^pi", XYZ)
        assert ev("x^-2", (2.0, 0, 0)) == 0.25

    @pytest.mark.parametrize(
        "text", ["x^y", "x^0.5", "x^(1/0)", "x^sqrt(0-1)", "x^(1e200^2)", "x^exp(1000)", "x^(0^-1)"]
    )
    def test_every_failed_exponent_fold_is_refused_at_the_caret(self, text):
        # A coordinate, a domain error, an overflow or a non-integer value.
        with pytest.raises(ParseError) as exc:
            parse_expr(text, XYZ)
        assert (exc.value.message, exc.value.offset) == ("exponent must be an integer constant", 1)

    @pytest.mark.parametrize(
        "text, printed",
        [("x^(0*0.5^-1023)", "x^0"), ("2^1^9^199", "2^1"), ("x^(1/(1e308*10))", "x^0"),
         ("x^(2^1023/2^1022)", "x^2"), ("x^--3", "x^3")],
    )
    def test_exponents_fold_by_their_value_alone(self, text, printed):
        # The fold is an order-0 evaluation, which takes no derivative of a
        # power: those of 0.5^-1023 and 1^(9^199) leave the float range.
        assert pretty(parse_expr(text, XYZ)) == printed

    def test_double_star_alias(self):
        assert ev("x**3", (2.0, 0, 0)) == 8.0

    def test_constants(self):
        assert ev("pi", (0, 0, 0)) == math.pi
        assert ev("e", (0, 0, 0)) == math.e
        assert ev("2e3", (0, 0, 0)) == 2000.0

    def test_malformed_number(self):
        with pytest.raises(ParseError):
            parse_expr("2e", XYZ)

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x ? y", XYZ)
        assert exc.value.offset == 2

    def test_leading_dot_number(self):
        assert parse_expr(".5", XYZ) == Lit(0.5)
        assert parse_expr("x*.5", XYZ) == Binary("*", Coord(0, "x"), Lit(0.5))
        assert parse_expr(".5e1", XYZ) == Lit(5.0)

    @pytest.mark.parametrize("text, offset", [("1 + \u00b2", 4), ("\u0661 + x", 0), ("8\u0661", 1)])
    def test_digits_are_ascii(self, text, offset):
        # A superscript two or an Arabic-Indic digit is no NUMBER, and
        # cannot start an IDENT.
        with pytest.raises(ParseError) as exc:
            parse_expr(text, XYZ)
        assert exc.value.message == f"unexpected character {text[offset]!r}"
        assert exc.value.offset == offset

    def test_identifiers_go_on_with_any_digit(self):
        coords = ("x", "y\u00b2", "z\u0661")
        assert parse_expr("y\u00b2 * z\u0661", coords) == Binary(
            "*", Coord(1, "y\u00b2"), Coord(2, "z\u0661")
        )

    @pytest.mark.parametrize("text", ["2e", "1.e+", "3ex", ".5E-"])
    def test_exponent_without_digits_is_malformed_at_the_number(self, text):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + " + text, XYZ)
        assert (exc.value.message, exc.value.offset) == ("malformed number literal", 4)

    def test_an_e_after_a_whole_exponent_is_the_next_token(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("2e3e", XYZ)
        assert (exc.value.message, exc.value.offset) == ("unexpected trailing input 'e'", 3)
        assert parse_expr("2e3*e", XYZ) == Binary("*", Lit(2000.0), Lit(math.e))

    @pytest.mark.parametrize(
        "text, expected",
        [("x", True), ("_1", True), ("\u03b8", True), ("b\u00b2", True), ("\u00b2", False),
         ("\u0661", False), ("1a", False), ("a\u00b7b", False), ("x ", False), ("", False)],
    )
    def test_is_identifier(self, text, expected):
        assert is_identifier(text) is expected


class TestNestingBound:
    @pytest.mark.parametrize(
        "opener, closer, levels, offset",
        [("(", ")", 1, 100), ("-", "", 1, 100), ("sin(", ")", 1, 403), ("1^", "", 1, 201),
         ("-(", ")", 2, 100)],
        ids=["parenthesis", "minus", "function", "exponent", "minus-parenthesis"],
    )
    def test_the_token_opening_level_101_is_refused_at_its_offset(
        self, opener, closer, levels, offset
    ):
        # Each parenthesis, function argument, unary minus and exponent
        # opens a level; every opener here opens `levels` of them.
        assert MAX_NESTING == 100
        n = MAX_NESTING // levels
        assert pretty(parse_expr(opener * n + "1" + closer * n, XYZ)) != ""
        deeper = opener * (n + 1) + "1" + closer * (n + 1)
        with pytest.raises(ParseError) as exc:
            parse_expr(deeper, XYZ)
        assert (exc.value.message, exc.value.offset) == (
            "expression nests deeper than 100 levels", offset
        )

    def test_levels_close_with_their_operand(self):
        # 150 parenthesized terms side by side are one level each.
        text = " + ".join(["(x)"] * 150) + " + " + "(" * 100 + "y" + ")" * 100
        assert pretty(parse_expr(text, XYZ)) == " + ".join(["x"] * 150) + " + y"


# The pieces of the differential fuzz recorded in CHANGES.md.
PIECES = list("xyzab_0123456789.eE+-*/^()") + [
    " ", "\t", "\n", "**", "sin(", "sqrt(", "pi", "\u03b8", "\u00b7", "?", "\u00b2", "\u0661",
]


# Up to 300 pieces, so strings that nest past MAX_NESTING are drawn too;
# 198 nested parentheses once raised RecursionError, and a superscript two
# ValueError.
@given(st.lists(st.sampled_from(PIECES), max_size=300).map("".join))
@example("1 + \u00b2")
def test_parse_gives_a_tree_or_a_parse_error(text):
    try:
        e = parse_expr(text, XYZ, {"a": 1.5})
    except ParseError:
        return
    assert isinstance(e, (Lit, Coord, Unary, Binary, Pow))


# A corpus in canonical printer style; pretty(parse(s)) must reproduce each
# string exactly.
CORPUS = [
    "x",
    "y",
    "z",
    "42",
    "1.5",
    "x + y",
    "x - y",
    "x * y",
    "x / y",
    "-x",
    "x + y + z",
    "x - y - z",
    "x - (y - z)",
    "x * (y + z)",
    "(x + y) * z",
    "x / (y * z)",
    "x / y / z",
    "x * y / z",
    "-x + y",
    "-(x + y)",
    "-x * y",
    "x^2",
    "x^-2",
    "x^2 * y^3",
    "(x + y)^2",
    "x^2 + y^2",
    "sqrt(x)",
    "sin(x)",
    "cos(x)",
    "exp(x)",
    "sqrt(1 + x * x)",
    "sin(x * y)",
    "cos(x + y) * sin(z)",
    "exp(-x)",
    "exp(x^2)",
    "1 / x",
    "2 * x + 3 * y",
    "x * y * z",
    "x + y * z",
    "(x + y) / (x - y)",
    "sqrt(x^2 + y^2)",
    "sin(cos(x))",
    "1 + 2 * x + 3 * x^2",
    "x^2 / 4",
    "1 - y * y",
    "-y",
    "sqrt(2) * x",
    "x / 2",
    "sin(x)^2 + cos(x)^2",
    "exp(x * y) - 1",
]


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_corpus(text):
    assert pretty(parse_expr(text, XYZ)) == text


def exprs(depth=3):
    base = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Lit(float(v))),
        st.sampled_from([Coord(i, XYZ[i]) for i in range(3)]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(["neg", "sqrt", "sin", "cos", "exp"]), children).map(
                lambda t: Unary(t[0], t[1])
            ),
            st.tuples(children, st.integers(min_value=-3, max_value=4)).map(
                lambda t: Pow(t[0], t[1])
            ),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(exprs())
def test_roundtrip_structural(e):
    assert parse_expr(pretty(e), XYZ) == e


class TestDiff:
    def test_polynomial(self):
        e = parse_expr("x^2 * y + 3 * x", XYZ)
        dx = diff(e, 0)
        assert eval_jet(dx, (2.0, 5.0, 0.0), 0).value == 23.0

    def test_quotient(self):
        e = parse_expr("x / y", XYZ)
        dy = diff(e, 1)
        assert eval_jet(dy, (6.0, 2.0, 0.0), 0).value == -1.5

    def test_sqrt_stays_in_grammar(self):
        e = parse_expr("sqrt(1 + x * x)", XYZ)
        d = diff(e, 0)
        # derivative x / sqrt(1+x^2), check numerically
        assert eval_jet(d, (3.0, 0, 0), 0).value == pytest.approx(3.0 / math.sqrt(10.0))

    def test_literal_folded_to_infinity_prints(self):
        # Two finite literals whose sum overflows stay unfolded, so the
        # derivative prints as text that parses back to it.
        d = diff(parse_expr("1 + 1e308*x + 1e308*x", XYZ), 0)
        assert d == Binary("+", Lit(1e308), Lit(1e308))
        assert parse_expr(pretty(d), XYZ) == d

    @pytest.mark.parametrize("text", ["1/x", "x^-2", "3 - 5*x", "-(2*x)*y", "1/(1 - x*y)"])
    def test_negative_constants_print_back_to_their_tree(self, text):
        # A negative constant of a derivative is the negation of a literal,
        # the tree its text parses to; as a negative literal, -1 / (x * x)
        # parsed back to a different tree.
        for i in range(3):
            d = diff(parse_expr(text, XYZ), i)
            assert parse_expr(pretty(d), XYZ) == d
        d = diff(parse_expr("1/x", XYZ), 0)
        assert pretty(d) == "-1 / (x * x)"
        assert d.lhs == Unary("neg", Lit(1.0))

    def test_negated_literals_fold_like_literals(self):
        m1, m0 = Unary("neg", Lit(1.0)), Unary("neg", Lit(0.0))
        x = parse_expr("x", XYZ)
        assert sub(Lit(0.0), Lit(1.0)) == m1
        assert mul(m1, Lit(2.0)) == Unary("neg", Lit(2.0))
        assert add(m1, Lit(1.0)) == Lit(0.0)
        assert add(m0, x) == x and mul(m0, x) == Lit(0.0) and div(m0, x) == Lit(0.0)
        assert mul(x, m1) == Binary("*", x, m1)

    @pytest.mark.parametrize(
        "op, symbol, folded", [(add, "+", 5.0), (sub, "-", 1.0), (mul, "*", 6.0)]
    )
    def test_literals_fold_only_to_finite_values(self, op, symbol, folded):
        assert op(Lit(3.0), Lit(2.0)) == Lit(folded)
        big, other = Lit(1e308), Lit(-1e308 if op is sub else 1e308)
        assert op(big, other) == Binary(symbol, big, other)

    def test_constant_fold_keeps_trees_small(self):
        e = parse_expr("y", XYZ)
        assert diff(e, 0) == Lit(0.0)
        assert diff(e, 1) == Lit(1.0)

    @given(exprs())
    def test_structural_derivative_matches_finite_differences(self, e):
        import numpy as np

        p = (0.37, 0.61, 0.23)
        h = 1e-6
        for i in range(3):
            try:
                d_val = eval_jet(diff(e, i), p, 0).value
                pp = list(p)
                pp[i] += h
                up = eval_jet(e, tuple(pp), 0).value
                pp[i] -= 2 * h
                dn = eval_jet(e, tuple(pp), 0).value
            except Exception:
                # domain issues (division by zero etc.) are fine to skip here
                return
            fd = (up - dn) / (2 * h)
            if not np.isfinite(fd) or abs(fd) > 1e6:
                return
            assert d_val == pytest.approx(fd, rel=1e-4, abs=1e-4)


# -- trees deeper than Python's recursion limit ------------------------------

DEPTH = 5000


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit, whatever the runner set."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def deep_sum(n):
    """1 + 0.0002*x + ... with n terms, folded to the left as the parser
    folds it, one term object shared by every level."""
    term = Binary("*", Lit(0.0002), Coord(0, "x"))
    e = Lit(1.0)
    for _ in range(n - 1):
        e = Binary("+", e, term)
    return e


def grad_of_sum(n):
    """d/dx of deep_sum(n): 0.0002 added n - 1 times, in order."""
    grad = 0.0
    for _ in range(n - 1):
        grad += 0.0002
    return grad


def deep_sine(n):
    """sin(sin(...sin(x)...)), n calls deep."""
    e = Coord(0, "x")
    for _ in range(n):
        e = Unary("sin", e)
    return e


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepTrees:
    # Compared by printed text and by evaluation: the dataclass == of two
    # such trees would itself recurse.
    P = (0.5, 0.25, -0.25)

    def test_pretty_and_parse(self):
        text = "1" + " + 0.0002 * x" * (DEPTH - 1)
        assert pretty(deep_sum(DEPTH)) == text
        assert pretty(parse_expr(text, XYZ)) == text
        assert pretty(deep_sine(DEPTH)) == "sin(" * DEPTH + "x" + ")" * DEPTH

    def test_pretty_of_a_shared_deep_operand(self):
        s = deep_sum(DEPTH)
        text = pretty(s)
        assert pretty(Binary("*", s, Unary("neg", s))) == f"({text}) * -({text})"

    def test_tape_matches_a_fold_bit_for_bit(self):
        value = 1.0
        for _ in range(DEPTH - 1):
            value += 0.0002 * self.P[0]
        j = Tape([deep_sum(DEPTH)]).eval(self.P, 2)
        assert j.value.tolist() == [value]
        assert j.grad.tolist() == [[grad_of_sum(DEPTH), 0.0, 0.0]]
        assert not j.hess.any()

    def test_diff_evaluates_to_the_tape_gradient(self):
        e = deep_sine(DEPTH)
        value, grad = self.P[0], 1.0
        for _ in range(DEPTH):
            value, grad = math.sin(value), math.cos(value) * grad
        j = eval_jet(e, self.P, 1)
        assert (float(j.value), j.grad.tolist()) == (value, [grad, 0.0, 0.0])
        assert eval_jet(diff(e, 0), self.P, 0).value == grad
        assert pretty(diff(e, 1)) == "0"
        # The sum's derivative folds to one literal, its terms summed in order.
        assert diff(deep_sum(DEPTH), 0) == Lit(grad_of_sum(DEPTH))

    def test_a_domain_error_names_its_deep_subexpression(self):
        inner = deep_sum(DEPTH)
        with pytest.raises(ExprDomainError) as exc:
            eval_jet(Unary("sqrt", Unary("neg", inner)), self.P, 2)
        assert exc.value.subexpr == "sqrt(-(" + pretty(inner) + "))"
