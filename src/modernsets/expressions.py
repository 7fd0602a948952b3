"""Set expressions: parse, print, evaluate.

Grammar (left-associative binary operators):

    expr   := term ("\\/" term)*
    term   := factor ("/\\" factor)*
    factor := "~" factor | IDENT | "(" expr ")"

so complement binds tightest, then intersection, then union. The Unicode
spellings of the three operators are accepted as aliases on input; output
always uses the ASCII forms. Identifiers are C-style names bound to sets at
evaluation time. Syntax errors carry a 1-based column.

Evaluation runs compiled code: a tree becomes the source of one lambda of
calls on an ops object (``o.wedge``, ``o.vee``, ``o.complement``), compiled
once. The registry laws and :func:`eval_expression` both use it, over
algebra elements and over sets. Parsing, printing and compiling recurse
once per level of nesting, so an expression nested more than ``MAX_DEPTH``
levels deep (counting each operator above an identifier, and each open
parenthesis) is a syntax error; that also keeps the generated source within
CPython's limit of 200 nested parentheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Mapping, NamedTuple, Sequence, Union as TypeUnion

from .errors import EvalError, ExpressionSyntaxError
from .sets import ModernSet, complement as set_complement, intersection, union


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Complement:
    operand: "Expression"


@dataclass(frozen=True)
class Intersection:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Union:
    left: "Expression"
    right: "Expression"


Expression = TypeUnion[Ident, Complement, Intersection, Union]


class _Token(NamedTuple):
    kind: str
    text: str
    column: int


MAX_DEPTH = 100

_SINGLE = {"(": "LPAREN", ")": "RPAREN", "~": "NOT", "¬": "NOT"}
_UNICODE_BINARY = {"∨": "VEE", "∧": "WEDGE"}


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(src):
        ch = src[i]
        column = i + 1
        if ch.isspace():
            i += 1
            continue
        if src.startswith("\\/", i):
            tokens.append(_Token("VEE", "\\/", column))
            i += 2
            continue
        if src.startswith("/\\", i):
            tokens.append(_Token("WEDGE", "/\\", column))
            i += 2
            continue
        if ch in _UNICODE_BINARY:
            tokens.append(_Token(_UNICODE_BINARY[ch], ch, column))
            i += 1
            continue
        if ch in _SINGLE:
            tokens.append(_Token(_SINGLE[ch], ch, column))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", src[i:j], column))
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", column)
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.open = 0  # '~' and '(' enclosing the current token

    def _eof_column(self) -> int:
        return max(len(self.src), 1)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    # Each method returns the tree and its height: the operators on the
    # longest path from the root down to an identifier.

    def _check_depth(self, depth: int, token: _Token) -> int:
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels", token.column
            )
        return depth

    def expression(self) -> tuple[Expression, int]:
        node, height = self.term()
        while (t := self.peek()) and t.kind == "VEE":
            self.advance()
            right, right_height = self.term()
            node = Union(node, right)
            height = self._check_depth(max(height, right_height) + 1, t)
        return node, height

    def term(self) -> tuple[Expression, int]:
        node, height = self.factor()
        while (t := self.peek()) and t.kind == "WEDGE":
            self.advance()
            right, right_height = self.factor()
            node = Intersection(node, right)
            height = self._check_depth(max(height, right_height) + 1, t)
        return node, height

    def factor(self) -> tuple[Expression, int]:
        token = self.peek()
        if token is None:
            raise ExpressionSyntaxError(
                "expected an identifier, '~', or '('", self._eof_column()
            )
        if token.kind == "IDENT":
            self.advance()
            return Ident(token.text), 0
        if token.kind not in ("NOT", "LPAREN"):
            raise ExpressionSyntaxError(
                f"unexpected token {token.text!r}", token.column
            )
        self.advance()
        self.open = self._check_depth(self.open + 1, token)
        if token.kind == "NOT":
            operand, height = self.factor()
            node, height = Complement(operand), self._check_depth(height + 1, token)
        else:
            node, height = self.expression()
            closing = self.peek()
            if closing is None:
                raise ExpressionSyntaxError("expected ')'", self._eof_column())
            if closing.kind != "RPAREN":
                raise ExpressionSyntaxError("expected ')'", closing.column)
            self.advance()
        self.open -= 1
        return node, height


def parse_expression(src: str) -> Expression:
    """Parse source text to an expression tree."""
    parser = _Parser(src)
    node, _ = parser.expression()
    trailing = parser.peek()
    if trailing is not None:
        raise ExpressionSyntaxError(
            f"unexpected token {trailing.text!r}", trailing.column
        )
    return node


def _precedence(expr: Expression) -> int:
    if isinstance(expr, Union):
        return 1
    if isinstance(expr, Intersection):
        return 2
    if isinstance(expr, Complement):
        return 3
    return 4


def format_expression(expr: Expression) -> str:
    """Render with the minimal parentheses that preserve the tree.

    Binary operators print left-associatively, so only a right child at
    equal precedence needs parentheses.
    """
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Complement):
        inner = format_expression(expr.operand)
        if _precedence(expr.operand) < 3:
            inner = f"({inner})"
        return f"~{inner}"
    symbol = "\\/" if isinstance(expr, Union) else "/\\"
    p = _precedence(expr)
    left = format_expression(expr.left)
    if _precedence(expr.left) < p:
        left = f"({left})"
    right = format_expression(expr.right)
    if _precedence(expr.right) <= p:
        right = f"({right})"
    return f"{left} {symbol} {right}"


_WORDS = {Intersection: "wedge", Union: "vee"}


def _identifiers(node: Expression) -> set[str]:
    if isinstance(node, Ident):
        return {node.name}
    if isinstance(node, Complement):
        return _identifiers(node.operand)
    return _identifiers(node.left) | _identifiers(node.right)


def _label(node: Expression, nested: bool = False) -> str:
    """``node`` in words, with parentheses around every nested binary operation."""
    if isinstance(node, Ident):
        return node.name
    if isinstance(node, Complement):
        return f"complement({_label(node.operand)})"
    text = f"{_label(node.left, True)} {_WORDS[type(node)]} {_label(node.right, True)}"
    return f"({text})" if nested else text


def _source(node: Expression, names: Mapping[str, str], ops: str = "o.") -> str:
    """``node`` as calls on the ops object ``o``, each leaf renamed by ``names``; with
    ``ops`` empty, as calls on locals named for the operations."""
    if isinstance(node, Ident):
        return names[node.name]
    if isinstance(node, Complement):
        return f"{ops}complement({_source(node.operand, names, ops)})"
    left, right = _source(node.left, names, ops), _source(node.right, names, ops)
    return f"{ops}{_WORDS[type(node)]}({left}, {right})"


def _compile(
    trees: Sequence[Expression], names: Mapping[str, str], params: Sequence[str]
) -> Callable:
    """``lambda o, *params: (tree, ...)``, compiled once.

    One tree gives its value, several give a tuple. Only fixed strings and
    the values of ``names`` and ``params`` reach the source, so callers
    rename every leaf to a parameter, a constant or a call such as ``v(0)``,
    never to identifier text.
    """
    body = ", ".join(_source(tree, names) for tree in trees)
    return eval(f"lambda o{''.join(', ' + p for p in params)}: ({body})", {})


_SET_OPS = SimpleNamespace(wedge=intersection, vee=union, complement=set_complement)


def eval_expression(bindings: Mapping[str, ModernSet], expr: Expression) -> ModernSet:
    """Evaluate against identifier bindings.

    ``bindings`` is a mapping from names to sets. Unbound identifiers
    raise EvalError; family mismatches and missing complements surface as
    their usual errors. Each identifier is looked up when the compiled code
    reaches it, so the first error in evaluation order is the one raised.
    """
    names = sorted(_identifiers(expr))

    def value(i: int) -> ModernSet:
        if names[i] not in bindings:
            raise EvalError(f"identifier {names[i]!r} is not bound to a set")
        return bindings[names[i]]

    compiled = _compile((expr,), {name: f"v({i})" for i, name in enumerate(names)}, ("v",))
    return compiled(_SET_OPS, value)
