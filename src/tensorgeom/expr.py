"""Small expression language with exact forward-mode derivatives.

Expressions are parsed into an immutable AST and evaluated either as plain
floats or as truncated Taylor jets carrying all mixed partial derivatives up
to total order 3 in any number of variables.  Every curve, surface and
coordinate map in this package is defined through this module.

Grammar::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Builtins: sin cos tan asin acos atan atan2 sinh cosh tanh exp ln sqrt abs,
plus the constants ``pi`` and ``e``.  NUMBER is decimal with an optional
exponent part.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence, Union

MAX_ORDER = 3
# Deepest nesting ``parse`` accepts; it keeps the recursive parser and
# evaluator far from the interpreter's recursion limit.
MAX_NESTING = 100
# |cos(x)| below this is a pole of tan: cos(pi/2) rounds to 6.1e-17, not 0.
_POLE_TOL = 1e-12

__all__ = [
    "NumericalFailure",
    "ParseError",
    "UnknownIdentifier",
    "ArityMismatch",
    "DomainError",
    "Jet",
    "ExprMap",
    "parse",
    "unparse",
    "jet_atan2",
    "compose_bivariate",
]


class NumericalFailure(ArithmeticError):
    """Base of every typed numerical error in tensorgeom (a pole, overflow, a
    degenerate frame or metric); each subclass also keeps its builtin base."""


class ParseError(ValueError):
    """Source text violates the grammar; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ParseError):
    pass


class ArityMismatch(ParseError):
    pass


class DomainError(NumericalFailure):
    """A builtin was evaluated outside its domain (log of non-positive,
    division by zero, sqrt of a negative, a pole of tan, overflow, a
    non-finite result, ...)."""

    def __init__(self, message: str, expression: str | None = None, offset: int | None = None):
        self.reason = message
        self.expression = expression
        self.offset = offset
        text = message
        if expression is not None:
            text += f" in '{expression}'"
        if offset is not None:
            text += f" (offset {offset})"
        super().__init__(text)


# ---------------------------------------------------------------------------
# Truncated Taylor jets
# ---------------------------------------------------------------------------

# Flat coefficient layout per arity, filled by ``_layout`` on first use:
# exponent multi-indices in graded order (total degree, then the exponents
# in descending lexicographic order), the coefficient count per order, the
# position of each multi-index, and per (arity, order) the (i, j) pairs of
# every product slot.  Plain dicts keep ``Jet.__mul__`` at one C-level lookup.
_POWERS: dict = {}
_COUNT: dict = {}
_INDEX: dict = {}
_MUL: dict = {}
_FACT = (1.0, 1.0, 2.0, 6.0)


def _layout(nvars: int) -> tuple:
    """Coefficient counts per order for ``nvars`` variables; builds the
    layout tables of that arity on first use."""
    counts = _COUNT.get(nvars)
    if counts is not None:
        return counts
    if nvars < 1:
        raise ValueError("jets need at least one variable")
    powers = sorted((p for p in itertools.product(range(MAX_ORDER + 1), repeat=nvars)
                     if sum(p) <= MAX_ORDER),
                    key=lambda p: (sum(p), tuple(-e for e in p)))
    index = {p: k for k, p in enumerate(powers)}
    counts = tuple(sum(1 for p in powers if sum(p) <= order)
                   for order in range(MAX_ORDER + 1))
    for order, cnt in enumerate(counts):
        per_slot = []
        for target in powers[:cnt]:
            pairs = []
            for i in range(cnt):
                rem = tuple(t - a for t, a in zip(target, powers[i]))
                if min(rem) >= 0:
                    pairs.append((i, index[rem]))
            per_slot.append(tuple(pairs))
        _MUL[(nvars, order)] = tuple(per_slot)
    _POWERS[nvars] = powers
    _INDEX[nvars] = index
    _COUNT[nvars] = counts
    return counts


Number = Union[int, float]


class Jet:
    """Truncated Taylor expansion (degree <= 3) in any number of variables.

    Coefficients are stored Taylor-style, i.e. divided by factorials, so
    multiplication is a plain truncated convolution.  ``partial`` restores
    the derivative scaling.
    """

    __slots__ = ("nvars", "order", "coef")

    def __init__(self, nvars: int, order: int, coef: list[float]):
        self.nvars = nvars
        self.order = order
        self.coef = coef

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: float, nvars: int, order: int) -> "Jet":
        coef = [0.0] * (_COUNT.get(nvars) or _layout(nvars))[order]
        coef[0] = float(value)
        return cls(nvars, order, coef)

    @classmethod
    def variable(cls, value: float, which: int, nvars: int, order: int) -> "Jet":
        if not 0 <= which < nvars:
            raise ValueError(f"variable {which} out of range for {nvars} variables")
        jet = cls.constant(value, nvars, order)
        if order >= 1:
            jet.coef[1 + which] = 1.0  # graded order puts each unit monomial at 1 + which
        return jet

    # -- accessors ----------------------------------------------------
    @property
    def value(self) -> float:
        return self.coef[0]

    def partial(self, *orders: int) -> float:
        """Mixed partial derivative, e.g. ``partial(1, 2)`` = d^3/du dv^2."""
        if len(orders) != self.nvars:
            raise ValueError("partial() needs one order per variable")
        total = sum(orders)
        if total > self.order:
            raise ValueError("derivative order exceeds jet order")
        scale = 1.0
        for k in orders:
            scale *= _FACT[k]
        return self.coef[_INDEX[self.nvars][tuple(orders)]] * scale

    def deriv(self, which: int = 0) -> "Jet":
        """Jet of the derivative with respect to one variable (order drops by 1)."""
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        n = self.nvars
        out = [0.0] * _COUNT[n][self.order - 1]
        for k in range(len(out)):
            p = _POWERS[n][k]
            q = list(p)
            q[which] += 1
            out[k] = self.coef[_INDEX[n][tuple(q)]] * q[which]
        return Jet(n, self.order - 1, out)

    def truncated(self, order: int) -> "Jet":
        """Copy of this jet with the expansion cut at a lower order."""
        if order > self.order:
            raise ValueError("cannot raise the order of a jet")
        return Jet(self.nvars, order, self.coef[: _COUNT[self.nvars][order]])

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars or other.order != self.order:
                raise ValueError("jet shape mismatch")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            out = self.coef.copy()
            out[0] += float(other)
            return Jet(self.nvars, self.order, out)
        return Jet(self.nvars, self.order, [a + b for a, b in zip(self.coef, o.coef)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            out = self.coef.copy()
            out[0] -= float(other)
            return Jet(self.nvars, self.order, out)
        return Jet(self.nvars, self.order, [a - b for a, b in zip(self.coef, o.coef)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.nvars, self.order, [-a for a in self.coef])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            k = float(other)
            return Jet(self.nvars, self.order, [a * k for a in self.coef])
        a, b = self.coef, o.coef
        out = []
        for pairs in _MUL[(self.nvars, self.order)]:
            acc = 0.0
            for i, j in pairs:
                acc += a[i] * b[j]
            out.append(acc)
        return Jet(self.nvars, self.order, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            k = float(other)
            if k == 0.0:
                raise DomainError("division by zero")
            return self * (1.0 / k)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * float(other)

    def _reciprocal(self) -> "Jet":
        a = self.value
        if a == 0.0:
            raise DomainError("division by zero")
        ia = 1.0 / a
        return self.compose(ia, -ia * ia, 2.0 * ia ** 3, -6.0 * ia ** 4)

    def __pow__(self, other):
        if isinstance(other, Jet):
            if any(c != 0.0 for c in other.coef[1:]):
                # general exponent: x^y = exp(y ln x)
                return (other * self._ln()).exp()
            other = other.value
        p = float(other)
        if p == round(p) and abs(p) <= 64:
            return self._int_pow(int(round(p)))
        a = self.value
        if a <= 0.0:
            raise DomainError("non-integer power of a non-positive base")
        return self.compose(a ** p, p * a ** (p - 1), p * (p - 1) * a ** (p - 2),
                            p * (p - 1) * (p - 2) * a ** (p - 3))

    def _int_pow(self, n: int) -> "Jet":
        if n < 0:
            return self._reciprocal()._int_pow(-n)
        out = Jet.constant(1.0, self.nvars, self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- composition with a smooth scalar function ---------------------
    def compose(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        """f(self) where f has value/derivatives f0..f3 at self.value."""
        h = Jet(self.nvars, self.order, self.coef.copy())
        h.coef[0] = 0.0
        out = Jet.constant(f3 / 6.0, self.nvars, self.order)
        for c in (f2 / 2.0, f1, f0):
            out = out * h + c
        return out

    # -- builtins -------------------------------------------------------
    def sin(self):
        a = self.value
        s, c = math.sin(a), math.cos(a)
        return self.compose(s, c, -s, -c)

    def cos(self):
        a = self.value
        s, c = math.sin(a), math.cos(a)
        return self.compose(c, -s, -c, s)

    def tan(self):
        t = _tan(self.value)
        sec2 = 1.0 + t * t
        return self.compose(t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t))

    def asin(self):
        a = self.value
        if not -1.0 < a < 1.0:
            raise DomainError("asin outside (-1, 1)")
        r = 1.0 - a * a
        return self.compose(math.asin(a), r ** -0.5, a * r ** -1.5,
                            (1.0 + 2.0 * a * a) * r ** -2.5)

    def acos(self):
        a = self.value
        if not -1.0 < a < 1.0:
            raise DomainError("acos outside (-1, 1)")
        r = 1.0 - a * a
        return self.compose(math.acos(a), -(r ** -0.5), -a * r ** -1.5,
                            -(1.0 + 2.0 * a * a) * r ** -2.5)

    def atan(self):
        a = self.value
        d = 1.0 + a * a
        return self.compose(math.atan(a), 1.0 / d, -2.0 * a / d ** 2,
                            (6.0 * a * a - 2.0) / d ** 3)

    def sinh(self):
        a = self.value
        s, c = math.sinh(a), math.cosh(a)
        return self.compose(s, c, s, c)

    def cosh(self):
        a = self.value
        s, c = math.sinh(a), math.cosh(a)
        return self.compose(c, s, c, s)

    def tanh(self):
        t = math.tanh(self.value)
        d = 1.0 - t * t
        return self.compose(t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))

    def exp(self):
        e = math.exp(self.value)
        return self.compose(e, e, e, e)

    def _ln(self):
        a = self.value
        if a <= 0.0:
            raise DomainError("log of a non-positive value")
        ia = 1.0 / a
        return self.compose(math.log(a), ia, -ia * ia, 2.0 * ia ** 3)

    ln = _ln

    def sqrt(self):
        a = self.value
        if a <= 0.0:
            raise DomainError("sqrt of a non-positive value")
        return self.compose(math.sqrt(a), 0.5 * a ** -0.5, -0.25 * a ** -1.5,
                            0.375 * a ** -2.5)

    def abs(self):
        a = self.value
        if a > 0.0:
            return Jet(self.nvars, self.order, self.coef.copy())
        if a < 0.0:
            return -self
        raise DomainError("abs is not differentiable at zero")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(nvars={self.nvars}, order={self.order}, coef={self.coef})"


def _tan(a: float) -> float:
    if abs(math.cos(a)) < _POLE_TOL:
        raise DomainError("tan at a pole")
    return math.tan(a)


def jet_atan2(y, x):
    """Two-argument arctangent for jets and/or floats."""
    yj, xj = isinstance(y, Jet), isinstance(x, Jet)
    if not yj and not xj:
        if x == 0.0 and y == 0.0:
            raise DomainError("atan2(0, 0)")
        return math.atan2(y, x)
    ref = y if yj else x
    if not yj:
        y = Jet.constant(y, ref.nvars, ref.order)
    if not xj:
        x = Jet.constant(x, ref.nvars, ref.order)
    y0, x0 = y.value, x.value
    if x0 == 0.0 and y0 == 0.0:
        raise DomainError("atan2(0, 0)")
    # rotate so the varying part sits at angle 0, then add the base angle
    p = x * x0 + y * y0
    q = y * x0 - x * y0
    return (q / p).atan() + math.atan2(y0, x0)


def compose_bivariate(outer: Jet, g1: Jet, g2: Jet) -> Jet:
    """Taylor composition outer(g1, g2) for a two-variable outer jet.

    ``outer`` must be expanded at ``(g1.value, g2.value)``; the result lives
    in the variables of ``g1``/``g2``.
    """
    if outer.nvars != 2:
        raise ValueError("outer jet must have two variables")
    h1 = g1 - g1.value
    h2 = g2 - g2.value
    one = Jet.constant(1.0, g1.nvars, g1.order)
    p1 = [one, h1, h1 * h1, h1 * h1 * h1]
    p2 = [one, h2, h2 * h2, h2 * h2 * h2]
    out = Jet.constant(0.0, g1.nvars, g1.order)
    for k, (i, j) in enumerate(_POWERS[2][: len(outer.coef)]):
        c = outer.coef[k]
        if c != 0.0:
            out = out + p1[i] * p2[j] * c
    return out


_UNARY_FUNCS = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh",
                "tanh", "exp", "ln", "sqrt", "abs")
_BUILTIN_ARITY = {name: 1 for name in _UNARY_FUNCS}
_BUILTIN_ARITY["atan2"] = 2
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

_FLOAT_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": _tan, "asin": math.asin,
    "acos": math.acos, "atan": math.atan, "sinh": math.sinh, "cosh": math.cosh,
    "tanh": math.tanh, "exp": math.exp, "abs": abs,
}


def _float_call(name: str, a: float) -> float:
    """A one-argument builtin on a float (``atan2`` goes through ``jet_atan2``)."""
    if name == "ln":
        if a <= 0.0:
            raise DomainError("log of a non-positive value")
        return math.log(a)
    if name == "sqrt":
        if a < 0.0:
            raise DomainError("sqrt of a negative value")
        return math.sqrt(a)
    if name in ("asin", "acos") and not -1.0 <= a <= 1.0:
        raise DomainError(f"{name} outside [-1, 1]")
    return _FLOAT_FUNCS[name](a)


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    span: tuple[int, int] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Num(Node):
    value: float = 0.0


@dataclass(frozen=True)
class ConstRef(Node):
    name: str = ""
    value: float = 0.0


@dataclass(frozen=True)
class Var(Node):
    index: int = 0
    name: str = ""


@dataclass(frozen=True)
class Neg(Node):
    operand: Node = None


@dataclass(frozen=True)
class BinOp(Node):
    op: str = ""
    left: Node = None
    right: Node = None


@dataclass(frozen=True)
class Call(Node):
    func: str = ""
    args: tuple = ()


_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos, m.end()))
        pos = m.end()
    tokens.append(("end", "", n, n))
    return tokens


class _Parser:
    def __init__(self, source: str, variables: Sequence[str], constants: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.variables = {name: i for i, name in enumerate(variables)}
        self.constants = dict(constants or {})

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr(0)
        kind, text, start, _ = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", start)
        return node

    # ``level`` counts the parentheses, calls, operators and chained terms
    # above a node; every descent passes through ``unary``, which bounds it.
    def expr(self, level: int) -> Node:
        node = self.term(level)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            level += 1
            right = self.term(level)
            node = BinOp((node.span[0], right.span[1]), op, node, right)
        return node

    def term(self, level: int) -> Node:
        node = self.factor(level)
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            level += 1
            right = self.factor(level)
            node = BinOp((node.span[0], right.span[1]), op, node, right)
        return node

    def factor(self, level: int) -> Node:
        base = self.unary(level)
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            self.advance()
            exponent = self.factor(level + 1)
            return BinOp((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def unary(self, level: int) -> Node:
        kind, text, start, _ = self.peek()
        if level > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", start)
        if kind == "op" and text == "-":
            self.advance()
            operand = self.unary(level + 1)
            return Neg((start, operand.span[1]), operand)
        return self.atom(level)

    def atom(self, level: int) -> Node:
        kind, text, start, end = self.peek()
        if kind == "num":
            self.advance()
            return Num((start, end), float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "op" and self.peek()[1] == "(":
                return self.call(text, start, level)
            if text in self.variables:
                return Var((start, end), self.variables[text], text)
            if text in self.constants:
                return ConstRef((start, end), text, float(self.constants[text]))
            if text in _NAMED_CONSTANTS:
                return ConstRef((start, end), text, _NAMED_CONSTANTS[text])
            raise UnknownIdentifier(f"unknown identifier {text!r}", start)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr(level + 1)
            self.expect(")")
            return node
        raise ParseError("expected expression", start)

    def call(self, name: str, start: int, level: int) -> Node:
        if name not in _BUILTIN_ARITY:
            raise UnknownIdentifier(f"unknown function {name!r}", start)
        self.expect("(")
        args = [self.expr(level + 1)]
        while self.peek()[0] == "op" and self.peek()[1] == ",":
            self.advance()
            args.append(self.expr(level + 1))
        _, _, _, end = self.expect(")")
        if len(args) != _BUILTIN_ARITY[name]:
            raise ArityMismatch(
                f"{name} takes {_BUILTIN_ARITY[name]} argument(s), got {len(args)}", start)
        return Call((start, end), name, tuple(args))

    def expect(self, text: str):
        kind, actual, start, _ = self.peek()
        if kind != "op" or actual != text:
            raise ParseError(f"expected {text!r}", start)
        return self.advance()


# precedence levels for the unparser
_SUM, _PROD, _POW, _UNARY, _ATOM = 1, 2, 3, 4, 5


def _level(node: Node) -> int:
    if isinstance(node, BinOp):
        return {_s: _SUM for _s in "+-"}.get(node.op) or (_PROD if node.op in "*/" else _POW)
    if isinstance(node, Neg):
        return _UNARY
    return _ATOM


def unparse(node: Node) -> str:
    """Render an AST back to source; reparsing yields a structurally equal tree."""
    if isinstance(node, Num):
        text = repr(node.value)
        return text if node.value >= 0 else f"({text})"
    if isinstance(node, (Var, ConstRef)):
        return node.name
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        if _level(node.operand) < _UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(unparse(a) for a in node.args)})"
    if isinstance(node, BinOp):
        left, right = unparse(node.left), unparse(node.right)
        if node.op in "+-":
            if _level(node.right) <= _SUM:
                right = f"({right})"
            return f"{left}{node.op}{right}"
        if node.op in "*/":
            if _level(node.left) < _PROD:
                left = f"({left})"
            if _level(node.right) <= _PROD:
                right = f"({right})"
            return f"{left}{node.op}{right}"
        # power: the base must parse as a unary, the exponent as a factor
        if _level(node.left) in (_SUM, _PROD, _POW):
            left = f"({left})"
        if _level(node.right) in (_SUM, _PROD):
            right = f"({right})"
        return f"{left}^{right}"
    raise TypeError(f"not an AST node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _eval(node: Node, env: list):
    """Evaluate an AST on a mix of floats and jets.

    On floats alone every branch is plain float arithmetic, so this is also
    the float evaluator.
    """
    try:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, ConstRef):
            return node.value
        if isinstance(node, Var):
            return env[node.index]
        if isinstance(node, Neg):
            return -_eval(node.operand, env)
        if isinstance(node, BinOp):
            a = _eval(node.left, env)
            b = _eval(node.right, env)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if isinstance(a, Jet) or isinstance(b, Jet):
                    if not isinstance(a, Jet):
                        return b.__rtruediv__(a)
                    return a / b
                if b == 0.0:
                    raise DomainError("division by zero")
                return a / b
            if isinstance(a, Jet):
                return a ** b
            if isinstance(b, Jet):
                if a <= 0.0:
                    raise DomainError("jet exponent needs a positive base")
                return (b * math.log(a)).exp()
            if b != round(b) and a < 0.0:
                raise DomainError("non-integer power of a negative base")
            if a == 0.0 and b < 0.0:
                raise DomainError("zero raised to a negative power")
            return a ** b
        if isinstance(node, Call):
            args = [_eval(a, env) for a in node.args]
            if node.func == "atan2":
                return jet_atan2(args[0], args[1])
            a = args[0]
            if isinstance(a, Jet):
                return getattr(a, node.func)()
            return _float_call(node.func, a)
    except (ArithmeticError, ValueError) as err:
        # the one wrap point: math's overflow and domain errors become
        # DomainError, and each names the innermost node that failed
        if isinstance(err, DomainError) and err.expression is not None:
            raise
        reason = err.reason if isinstance(err, DomainError) else (
            "overflow" if isinstance(err, OverflowError) else str(err))
        raise DomainError(reason, unparse(node), node.span[0]) from None
    raise TypeError(f"not an AST node: {node!r}")


def _finite(value, node: Node):
    """A component result, rejected when any of its numbers is not finite."""
    if not all(map(math.isfinite, value.coef if isinstance(value, Jet) else (value,))):
        raise DomainError("non-finite value", unparse(node), node.span[0])
    return value


@dataclass(frozen=True)
class ExprMap:
    """Immutable map R^n -> R^m defined by parsed expressions.

    ``arity`` is the number of variables (jets carry derivatives in all of
    them), ``dimension`` the number of components.
    """

    variables: tuple
    constants: tuple
    components: tuple
    sources: tuple

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def __call__(self, *point: float) -> list[float]:
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        values = [float(p) for p in point]
        return [_finite(_eval(c, values), c) for c in self.components]

    def eval_jet(self, point: Sequence[float], order: int = MAX_ORDER):
        """Evaluate all components as jets of the given order in all the
        variables.  With ``order=0`` plain floats are returned."""
        point = tuple(float(p) for p in point)
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        if order == 0:
            return self.__call__(*point)
        nv = self.arity
        env = [Jet.variable(p, k, nv, order) for k, p in enumerate(point)]
        out = []
        for comp in self.components:
            val = _finite(_eval(comp, env), comp)
            if not isinstance(val, Jet):
                val = Jet.constant(val, nv, order)
            out.append(val)
        return out

    def unparse(self) -> list[str]:
        return [unparse(c) for c in self.components]


def parse(source, variables: Sequence[str], constants: dict | None = None) -> ExprMap:
    """Parse one expression string (or a sequence of them) into an ExprMap."""
    sources = (source,) if isinstance(source, str) else tuple(source)
    variables = tuple(variables)
    constants = dict(constants or {})
    clash = set(variables) & set(constants)
    if clash:
        raise ValueError(f"names declared both variable and constant: {sorted(clash)}")
    components = tuple(_Parser(s, variables, constants).parse() for s in sources)
    return ExprMap(variables, tuple(sorted(constants.items())), components, sources)
