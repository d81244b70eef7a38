"""Coordinate expression trees: parsing, printing, structural differentiation.

The grammar is deliberately small. Identifiers are chart coordinates, the
constants ``pi`` and ``e``, one of the unary functions ``sqrt``, ``sin``,
``cos``, ``exp``, or a bound parameter name. Powers require an integer
exponent, so the tree stays closed under differentiation (the derivative
of ``sqrt`` reuses ``sqrt``, everything else is polynomial in existing
nodes).

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom (('^' | '**') factor)?
    atom   := NUMBER | 'pi' | 'e' | FUNC '(' expr ')' | COORD | PARAM | '(' expr ')'

Parsing nests at most MAX_NESTING levels; every other walk of a tree is a loop.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import ExprDomainError, ParseError, UnknownIdentifierError

FUNCTIONS = ("sqrt", "sin", "cos", "exp")
CONSTANTS = {"pi": math.pi, "e": math.e}
# Parenthesized expressions, function arguments, unary minuses and
# exponents open a level each; the parser takes at most five frames a level.
MAX_NESTING = 100


@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Coord:
    index: int
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" or one of FUNCTIONS
    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Lit | Coord | Unary | Binary | Pow


def _operands(node: Expr) -> tuple:
    kind = type(node)
    if kind is Binary:
        return (node.lhs, node.rhs)
    if kind is Unary or kind is Pow:
        return (node.arg if kind is Unary else node.base,)
    if kind is Lit or kind is Coord:
        return ()
    raise TypeError(f"not an Expr: {node!r}")


def _postorder(roots) -> list[Expr]:
    """Every distinct node object under roots once, operands first, in the
    order a recursive walk of each root in turn finishes them, at any depth:
    every consumer of a tree folds over this list, keyed by node id."""
    order: list[Expr] = []
    listed: dict[int, bool] = {}  # False while a node's operands are walked
    stack = list(roots)[::-1]
    while stack:
        node = stack.pop()
        state = listed.get(id(node))
        if state is None and (operands := _operands(node)):
            listed[id(node)] = False
            stack += (node, *operands[::-1])
        elif not state:
            listed[id(node)] = True
            order.append(node)
    return order


# Smart constructors. They fold the zeros and ones that structural
# differentiation generates, so derivative trees stay readable, and two
# literals into one where the result is finite; they do no other
# simplification. Every tree they build prints as text that parses back
# to it: a constant whose sign bit is set is built as the negation of a
# literal, the tree its text parses to, never as a negative literal.

def lit(v: float) -> Expr:
    """The tree the text of a parenthesized repr(v) parses to: a literal,
    under a negation when v's sign bit is set. Parameters parse to it, and
    the smart constructors build every literal with it."""
    v = float(v)
    return Lit(v) if math.copysign(1.0, v) > 0.0 else Unary("neg", Lit(-v))


# The literals structural differentiation builds most, shared: nodes are
# immutable, so one object serves every tree.
_ZERO = Lit(0.0)
_ONE = Lit(1.0)


def _const(e: Expr) -> float | None:
    """The value of a literal or of a negated literal, else None."""
    if type(e) is Unary and e.op == "neg":
        e = e.arg
        return -e.value if type(e) is Lit else None
    return e.value if type(e) is Lit else None


def add(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca == 0.0:
        return b
    if cb == 0.0:
        return a
    if ca is not None and cb is not None and math.isfinite(ca + cb):
        return lit(ca + cb)
    return Binary("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if cb == 0.0:
        return a
    if ca is not None and cb is not None and math.isfinite(ca - cb):
        return lit(ca - cb)
    if ca == 0.0:
        return neg(b)
    return Binary("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    ca, cb = _const(a), _const(b)
    if ca == 0.0:
        return _ZERO
    if ca == 1.0:
        return b
    if cb == 0.0:
        return _ZERO
    if cb == 1.0:
        return a
    if ca is not None and cb is not None and math.isfinite(ca * cb):
        return lit(ca * cb)
    return Binary("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _const(a) == 0.0:
        return _ZERO
    if _const(b) == 1.0:
        return a
    return Binary("/", a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Lit):
        return lit(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def pow_int(base: Expr, k: int) -> Expr:
    if k == 0:
        return _ONE
    if k == 1:
        return base
    return Pow(base, k)


# ---------------------------------------------------------------------------
# Tokenizer

# The token rules of docs/grammar.md, once; each group name but `exp` is
# the kind of token it reads, and the first characters of the
# alternatives are disjoint. NUMBER takes ASCII digits only, and `exp`
# is an e or E after a number that no exponent digits follow. [^\W\d] is
# a word character other than a decimal digit: a letter, '_' or a
# numeric symbol such as '²', which _starts_ident turns away. Any other
# character but white space is `other`.
_TOKEN = re.compile(
    r"(?P<op>\*\*|[-+*/^()])"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+|(?P<exp>[eE]))?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<other>\S)"
)


def _starts_ident(text: str) -> bool:
    return text[0].isalpha() or text[0] == "_"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind, val, off = m.lastgroup, m[0], m.start()
        if kind == "num" and m["exp"]:
            raise ParseError("malformed number literal", off)
        if kind == "other" or kind == "ident" and not _starts_ident(val):
            raise ParseError(f"unexpected character {val[0]!r}", off)
        toks.append((kind, "^" if val == "**" else val, off))
    toks.append(("end", "", len(text)))
    return toks


def is_identifier(text: str) -> bool:
    """Whether text is exactly one identifier token of the grammar."""
    m = _TOKEN.fullmatch(text)
    return m is not None and m.lastgroup == "ident" and _starts_ident(text)


class _Parser:
    def __init__(self, text: str, coords: tuple[str, ...], params):
        self.coords = coords
        self.params = params
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # factors being parsed: one more than the open levels

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def expr(self, ops: str = "+-") -> Expr:
        """Operands joined by operators in ops, folded to the left: terms
        joined by '+' and '-', or, for ops "*/", the factors of a term
        joined by '*' and '/'. Each level is one call, so nested
        parentheses take one frame per grammar level."""
        e, op = None, None
        while True:
            rhs = self.expr("*/") if ops == "+-" else self.factor()
            e = rhs if op is None else Binary(op, e, rhs)
            kind, op, _ = self.peek()
            if kind != "op" or op not in ops:
                return e
            self.advance()

    def factor(self) -> Expr:
        # Each level's operand is a factor parsed right after the token that
        # opens the level, so the factors being parsed count the open levels.
        if self.depth > MAX_NESTING:
            opener = self.toks[self.pos - 1][2]
            raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", opener)
        self.depth += 1
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            e = Unary("neg", self.factor())
        else:
            e = self.power()
        self.depth -= 1
        return e

    def power(self) -> Expr:
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            from .jets import eval_jet  # jets imports this module
            self.advance()
            # Exponent is parsed at factor level (binds tighter than '*',
            # and a further '^' nests to the right), then must fold to an
            # integer constant: its value on the tape at the empty point.
            exponent = self.factor()
            try:
                k = float(eval_jet(exponent, (), 0).value)
            except (ExprDomainError, ValueError):
                k = None
            if k is None or k != int(k):
                raise ParseError("exponent must be an integer constant", off)
            return Pow(base, int(k))
        return base

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise ParseError("number is out of the float range", off)
            return Lit(float(val))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(val, arg)
            if val in CONSTANTS:
                return Lit(CONSTANTS[val])
            if val in self.coords:
                return Coord(self.coords.index(val), val)
            if val in self.params:
                return lit(float(self.params[val]))
            raise UnknownIdentifierError(val, self.coords, off)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError("expected a number, identifier or parenthesized expression", off)


def parse_expr(text: str, coords, params=None) -> Expr:
    """Parse `text` over the named chart coordinates.

    params optionally maps parameter names to numbers; each use of one
    parses as a numeric literal of its value. Function names, constants
    and coordinates take precedence over parameter names.

    Raises ParseError with a byte offset into `text` on malformed input,
    and UnknownIdentifierError naming the known coordinates when an
    identifier is not recognized.
    """
    parser = _Parser(text, tuple(coords), params or {})
    e = parser.expr()
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off)
    return e


# ---------------------------------------------------------------------------
# Printing

_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "neg": 25, "pow": 30, "atom": 99}


def _fmt_number(v: float) -> str:
    # Integers below 1e16 print without a fraction, everything else as repr.
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pretty(e: Expr) -> str:
    """Render with minimal parentheses; parse(pretty(e)) == e structurally
    for every tree the parser or the smart constructors build (a negative
    literal built by hand prints as a negation of a literal)."""
    order = _postorder((e,))
    # A text is dropped once its last reader has read it, so memory stays linear.
    readers = Counter(id(a) for node in order for a in _operands(node))
    done: dict[int, tuple[str, int]] = {}  # id -> (text, precedence)

    def operand(node: Expr, parent_prec: int) -> str:
        readers[id(node)] -= 1
        s, prec = done[id(node)] if readers[id(node)] else done.pop(id(node))
        return f"({s})" if parent_prec > prec else s

    for node in order:
        kind = type(node)
        if kind is Lit:
            # A negative literal behaves like a negation node.
            text = _fmt_number(node.value), _PREC["neg" if node.value < 0 else "atom"]
        elif kind is Coord:
            text = node.name, _PREC["atom"]
        elif kind is Unary and node.op == "neg":
            text = "-" + operand(node.arg, _PREC["neg"]), _PREC["neg"]
        elif kind is Unary:
            text = f"{node.op}({operand(node.arg, 0)})", _PREC["atom"]
        elif kind is Binary:
            p = _PREC[node.op]
            text = f"{operand(node.lhs, p)} {node.op} {operand(node.rhs, p + 1)}", p
        else:
            text = f"{operand(node.base, _PREC['pow'] + 1)}^{node.exponent}", _PREC["pow"]
        done[id(node)] = text
    return done[id(e)][0]


# ---------------------------------------------------------------------------
# Differentiation

# Per operator, a node's derivative from the node and its operands' derivatives.
_DIFF_RULES = {
    "+": lambda e, da, db: add(da, db),
    "-": lambda e, da, db: sub(da, db),
    "*": lambda e, da, db: add(mul(da, e.rhs), mul(e.lhs, db)),
    "/": lambda e, da, db: div(sub(mul(da, e.rhs), mul(e.lhs, db)), mul(e.rhs, e.rhs)),
    "neg": lambda e, da: neg(da),
    "sqrt": lambda e, da: div(da, mul(lit(2.0), e)),
    "sin": lambda e, da: mul(Unary("cos", e.arg), da),
    "cos": lambda e, da: neg(mul(Unary("sin", e.arg), da)),
    "exp": lambda e, da: mul(e, da),
    "pow": lambda e, da: mul(mul(lit(float(e.exponent)), pow_int(e.base, e.exponent - 1)), da),
}


def diff(e: Expr, i: int) -> Expr:
    """Partial derivative with respect to coordinate index `i`.

    Purely structural; the result is another tree in the same grammar.
    """
    d: dict[int, Expr] = {}
    for node in _postorder((e,)):
        kind = type(node)
        if kind is Lit or kind is Coord:
            d[id(node)] = _ONE if kind is Coord and node.index == i else _ZERO
        else:
            rule = _DIFF_RULES["pow" if kind is Pow else node.op]
            d[id(node)] = rule(node, *[d[id(a)] for a in _operands(node)])
    return d[id(e)]
