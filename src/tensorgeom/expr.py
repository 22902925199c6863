"""Small expression language with exact forward-mode derivatives.

Expressions are parsed into an immutable AST and evaluated either as plain
floats or as truncated Taylor jets carrying all mixed partial derivatives up
to total order 3 in any number of variables.  Every curve, surface and
coordinate map in this package is defined through this module.

Each value may be a float (one point) or a float array of length N (a batch
of N points, evaluated in one call).  On a float a domain error raises
``DomainError``; on an array it marks the failing points with NaN, and every
point that raises on its own is marked, so a caller re-runs the marked points
one by one to get the error.  Results at unmarked points are bit-identical to
those of the single-point evaluation.

``parse`` makes identical subtrees of a map's components one node.  A map is
compiled once per order, on its first evaluation at that order, or per tuple
of powers asked of ``derivatives``, into one generated function of
straight-line scalar code, one local per Taylor coefficient of each node
(``_compile``), so each node is evaluated once per call.  Its arithmetic is
that of ``Jet``: one generator (``_Writer``) writes both, the functions that
``Jet`` runs on coefficient lists dense, and the programs sparse, leaving
out the terms no operation can make nonzero, which change no finite bit.
``ExprMap.compose`` substitutes one map's components for another's variables
and interns the result: the revolution, ruled and reparameterized surfaces
and the lift of a planar curve to 3-space are built with it.

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

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

MAX_ORDER = 3
# Deepest nesting ``parse`` accepts; it keeps the recursive parser and
# compiler far from the interpreter's recursion limit.
MAX_NESTING = 100
# |cos(x)| below this is a pole of tan: cos(pi/2) rounds to 6.1e-17, not 0.
_POLE_TOL = 1e-12
# Points evaluated together by the grid operations; it bounds the memory of a batch.
CHUNK = 512

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
    "derivatives",
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
# Numbers: a float for one point, or an array for a batch of points
# ---------------------------------------------------------------------------

def _is_batch(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim > 0


def _num(x):
    """A value as a float, or as it is when it is an array of points."""
    return x if type(x) is np.ndarray and x.ndim else float(x)


# numpy functions that round exactly as their math counterparts; every other
# function is called per point on a batch, because numpy's rounds differently
_SAME_ROUNDING = {math.sin: np.sin, math.cos: np.cos, math.sqrt: np.sqrt, abs: np.abs}


def _map(f, a, *more):
    """``f(a, *more)`` on floats.  Where an argument is an array of points, f
    is applied per point; a point where f fails, or where an argument is NaN
    (already marked), becomes NaN."""
    if not more and type(a) is not np.ndarray:
        return f(a)
    args = (a, *more)
    if not any(map(_is_batch, args)):
        # a 0-d array as the scalar it holds: numpy's ** rounds differently on arrays
        return f(*(a[()] if isinstance(a, np.ndarray) else a for a in args))
    cols = [a.tolist() if _is_batch(a) else itertools.repeat(a) for a in args]
    fast = _SAME_ROUNDING.get(f)
    try:
        out = fast(*args) if fast else np.array(list(map(f, *cols)), dtype=float)
    except (ArithmeticError, ValueError):
        out = np.array([_or_nan(f, xs) for xs in zip(*cols)], dtype=float)
    marked = [np.isnan(a) for a in args if _is_batch(a)]
    return np.where(np.logical_or.reduce(marked), math.nan, out)


def _or_nan(f, xs):
    try:
        return f(*xs)
    except (ArithmeticError, ValueError):
        return math.nan


def _pow(x, p):
    """Python's ``x ** p``, per point on an array (numpy's power rounds differently)."""
    return x ** p if type(x) is not np.ndarray else _map(pow, x, p)


def _where(cond, a, b):
    """np.where for a per-point ``cond`` and values with trailing axes."""
    cond = np.asarray(cond)
    return np.where(cond.reshape(cond.shape + (1,) * (max(np.ndim(a), np.ndim(b)) - cond.ndim)),
                    a, b)


def _check(bad, error, *values):
    """One domain or regularity check.  At one point (``bad`` a plain bool)
    raise ``error()`` when it holds; on a batch return ``values`` with the
    points where it holds set to NaN.  Returns the values (one, or a tuple)."""
    if not isinstance(bad, np.ndarray) or bad.ndim == 0:
        if bad:
            raise error()
    else:
        values = tuple(_where(bad, math.nan, v) for v in values)
    return values[0] if len(values) == 1 else values


def _chunked(f, *columns):
    """Per point, the list of ``f``'s results there.  The points are given by
    their coordinate columns; ``f`` takes the coordinates of a chunk of CHUNK
    points at once and returns a list of result columns, each an array over the
    chunk (vectors on a trailing axis) or one value for all of it.  A point its
    chunk marks, by a non-finite number among its results (in a column of
    objects, a NaN) or by an arithmetic or linear-algebra error of ``f`` on the
    whole chunk, is evaluated again alone: its results are ``f`` at that point,
    or the ArithmeticError raised there in their place."""
    for lo in range(0, len(columns[0]), CHUNK):
        chunk = [np.asarray(c[lo:lo + CHUNK], dtype=float) for c in columns]
        size = len(chunk[0])
        try:
            with np.errstate(all="ignore"):
                results = [np.broadcast_to(r, (size,) + np.shape(r)[1:]) for r in f(*chunk)]
        except (ArithmeticError, np.linalg.LinAlgError):
            rows, unmarked = [None] * size, [False] * size
        else:
            rows = zip(*(r.tolist() for r in results))
            unmarked = np.logical_and.reduce(
                [r == r if r.dtype == object else np.isfinite(r).reshape(size, -1).all(axis=1)
                 for r in results]).tolist()
        for k, (values, ok) in enumerate(zip(rows, unmarked), lo):
            if ok:
                yield list(values)
                continue
            try:
                yield f(*(c[k] for c in columns))
            except ArithmeticError as exc:
                yield exc


def _raising(rows):
    """The rows of ``_chunked``, up to the first error given in place of one,
    which is raised."""
    for row in rows:
        if isinstance(row, ArithmeticError):
            raise row
        yield row


def _pointwise(f, *columns) -> list:
    """``f`` at each point, the points given by their coordinate columns,
    evaluated on chunks of points at once (``_chunked``): the first point where
    ``f`` raises an arithmetic error raises it."""
    return [values[0] for values in _raising(_chunked(lambda *chunk: [f(*chunk)], *columns))]


def _spread(values: list, point) -> list:
    """Results at a batch of points, each float (the same at every point) as
    an array over the batch; at a single point, the results as they are."""
    shape = np.broadcast_shapes(*map(np.shape, point))
    return [v if type(v) is np.ndarray or not shape else np.full(shape, v) for v in values]


def _stack(values, batch: tuple = ()) -> np.ndarray:
    """Components (floats, or arrays over a batch) as one array with the
    components on its last axis, over at least the ``batch`` shape (the
    derivatives of a component that does not vary are floats)."""
    for v in values:
        if type(v) is np.ndarray:
            break
    else:
        if not batch:
            return np.array(values, dtype=float)
    out = np.empty(np.broadcast_shapes(batch, *map(np.shape, values)) + (len(values),))
    for k, v in enumerate(values):
        out[..., k] = v
    return out


# ---------------------------------------------------------------------------
# Truncated Taylor jets
# ---------------------------------------------------------------------------

# Flat coefficient layout per arity, filled by ``_layout`` on first use: the
# coefficient count per order; per exponent multi-index the (position,
# prod k!) pair that turns its coefficient into the derivative (in graded
# order: total degree, then the exponents in descending lexicographic order);
# and per position the (i, j) pairs of positions whose coefficients multiply
# into it, in the order of i, from which ``_Writer`` writes the jet product.
_COUNT: dict = {}
_PARTIAL: dict = {}
_PAIRS: dict = {}
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
    pairs = _PAIRS[nvars] = []
    for target in powers:
        rems = (tuple(t - e for t, e in zip(target, p)) for p in powers)
        pairs.append([(i, index[rem]) for i, rem in enumerate(rems) if min(rem) >= 0])
    _PARTIAL[nvars] = {p: (k, math.prod(_FACT[e] for e in p)) for p, k in index.items()}
    _COUNT[nvars] = counts
    return counts


class _C(NamedTuple):
    """A coefficient in generated code: a Python expression (a local's name or
    a literal); whether it is a structural zero, one that no operation can
    make nonzero (0.0 or -0.0 wherever nothing non-finite reached it); and,
    for a number, its value where that is known before the code runs."""

    code: str
    zero: bool = False
    value: float | None = None


_ZERO = _C("0.0", True)


def _literal(c: _C):
    """The value of a literal coefficient, else None (a name)."""
    return float(c.code) if c.code[0] in "-.0123456789" else None


class _Writer:
    """Straight-line code of the jet algebra of one arity and order.

    Each operation takes coefficient lists of ``_C`` (a number operand is one
    ``_C``), appends its statements, one local per coefficient, and returns
    the result's coefficients.  Dense, it writes every term: the list code
    that ``Jet`` runs (``_jet_function``).  Sparse, for the compiled programs
    of ``ExprMap``, it leaves out each product term with a structural-zero
    factor.  Both write a sum with a zero of known sign only where that zero
    changes a bit, and every other operation in one order.  So the sparse
    code gives the bits of the dense code wherever those are finite, and a
    non-finite coefficient, which the product with the other operand's value
    (never a structural zero) carries to its own slot, still reaches the
    component, on a batch as a mark.  Neither records which coefficients are
    arrays over a batch: the component's check (``_finite``) makes each one."""

    def __init__(self, nvars: int, order: int, count: int, sparse: bool):
        self.nvars, self.order, self.count, self.sparse = nvars, order, count, sparse
        self.pairs = _PAIRS.get(nvars, ())
        self.lines: list = []  # (text, the node it evaluates)
        self.node = None
        self.indent = ""

    def line(self, text: str):
        self.lines.append((self.indent + text, self.node))

    def let(self, code: str, zero: bool = False) -> _C:
        name = f"t{len(self.lines)}"
        self.line(f"{name} = {code}")
        return _C(name, zero)

    def function(self, signature: str, out: list) -> str:
        return "\n".join([f"def {signature}:", *(f" {text}" for text, _ in self.lines),
                          f" return [{', '.join(c.code for c in out)}]", ""])

    def call(self, f, *args, n: int = 1):
        """f(*args), one of this module's functions: one number, or a list of n."""
        names = [f"t{len(self.lines)}_{k}" for k in range(n)]
        codes = (x.code if isinstance(x, _C) else repr(x) for x in args)
        self.line(f"{', '.join(names)} = {f.__name__}({', '.join(codes)})")
        out = [_C(name) for name in names]
        return out if n > 1 else out[0]

    # -- linear operations ------------------------------------------------
    def _sum(self, x: _C, op: str, y: _C) -> _C:
        """x + y or x - y."""
        lx, ly = _literal(x), _literal(y)
        if lx is not None and ly is not None:
            v = lx + ly if op == "+" else lx - ly
            if math.isfinite(v):
                return _C(repr(v), v == 0.0)
        if ly == 0.0 and (math.copysign(1.0, ly) < 0.0) == (op == "+"):  # x + -0.0, x - 0.0
            return x
        if lx == 0.0 and op == "+" and math.copysign(1.0, lx) < 0.0:  # -0.0 + y
            return y
        return self.let(f"{x.code} {op} {y.code}", x.zero and y.zero)

    def neg(self, a: list) -> list:
        return [_C(repr(-v), x.zero) if (v := _literal(x)) is not None
                else self.let(f"-{x.code}", x.zero) for x in a]

    def add(self, a: list, b: list) -> list:
        return [self._sum(x, "+", y) for x, y in zip(a, b)]

    def sub(self, a: list, b: list) -> list:
        return [self._sum(x, "-", y) for x, y in zip(a, b)]

    def add_num(self, a: list, k: _C) -> list:
        return [self._sum(a[0], "+", k), *a[1:]]

    def sub_num(self, a: list, k: _C) -> list:
        return [self._sum(a[0], "-", k), *a[1:]]

    def scale(self, a: list, k: _C) -> list:
        """x * k for each coefficient x of a (a literal x by a known k here)."""
        out = []
        for x in a:
            code, lx = _term(x, k), _literal(x)
            if lx is not None and k.value is not None and math.isfinite(lx * k.value):
                out.append(_C(repr(lx * k.value), x.zero))
            elif code in (x.code, k.code):
                out.append(_C(code, x.zero))
            else:
                out.append(self.let(code, x.zero))
        return out

    def constant(self, k: _C) -> list:
        return [k, *[_ZERO] * (self.count - 1)]

    def one(self, a: list) -> list:
        """x^0: the constant jet 1, whose value keeps the marks of x on a batch."""
        x = a[0].code
        return [self.let(f"1.0 + 0.0 * {x} if isinstance({x}, np.ndarray) else 1.0"),
                *[_ZERO] * (self.count - 1)]

    # -- products ---------------------------------------------------------
    def _dot(self, terms: list) -> _C:
        """0.0 plus the products of the coefficient pairs ``terms``, in order;
        sparse, those with a structural-zero factor are left out: they add 0.0
        or -0.0 to a sum that is never -0.0."""
        zero, parts = True, []
        for x, y in terms:
            if not (x.zero or y.zero):
                zero = False
            elif self.sparse:
                continue
            parts.append(_term(x, y))
        if not parts:
            return _ZERO
        return self.let("0.0 + " + " + ".join(parts), zero)

    def product(self, a: list, b: list) -> list:
        """The jet product: per position 0.0 plus its pair products."""
        return [self._dot([(a[i], b[j]) for i, j in pairs]) for pairs in self.pairs[:len(a)]]

    def scaled(self, a: list, c) -> list:
        """0.0 + c * x for each coefficient x of a: the jet product of the
        constant c (a number, or a float here) and a wherever it is finite."""
        c = c if isinstance(c, _C) else _C(repr(c))
        return [self._dot([(c, x)]) for x in a]

    def compose(self, a: list, fs: list) -> list:
        """f(a), where f has value and derivatives fs = f0..f3 at a's value.

        Horner's scheme in h = a - a's value, from the jet's order down:
        ((c_p h + c_(p-1)) h + ...) h + c_0 with c_k = f_k / k!, so an order-2
        jet takes one jet ``product``.  The terms past the order add 0.0 * c_k
        to c_p: nothing where c_k is finite, and NaN (a mark on a batch) where
        it is not, as the full cubic scheme has.  c_p h is 0.0 + c_p x per
        coefficient x of h (``scaled``); adding c_k to a jet adds it to the
        value.  h's value 0.0 is no structural zero here: c_p x may overflow,
        and the NaN of inf * 0.0 is how that reaches the result, as it does
        in the list code."""
        c = [*fs[:2], *(self.let(f"{f.code} / {d}") for f, d in zip(fs[2:], ("2.0", "6.0")))]
        top = c[self.order]
        if self.order < MAX_ORDER:
            top = self.let(top.code + "".join(f" + 0.0 * {x.code}" for x in c[self.order + 1:]))
        h = [_C("0.0"), *a[1:]]
        out = self.scaled(h, top)
        for k in range(self.order - 1, 0, -1):
            out[0] = self._sum(out[0], "+", c[k])
            out = self.product(out, h)
        out[0] = self._sum(out[0], "+", c[0])
        return out

    # -- powers -----------------------------------------------------------
    def power(self, a: list, e: _C) -> list:
        """a ** e for a number e.  Its value is known before the code runs;
        where it is not finite the code raises here, as ``round`` does in
        ``_pow_num`` (where it is unknown, e's own statement raises)."""
        if e.value is None or not math.isfinite(e.value):
            self.line(f"round({e.code})")
            return [_ZERO] * self.count
        return _pow_num(self, a, e.value)

    def pow_jet(self, a: list, b: list) -> list:
        """a ** b for a jet exponent: exp(b ln a) where b varies, else, at run
        time, ``_pow_constant``."""
        varying = self.let("False" + "".join(f" | ({x.code} != 0.0)" for x in b[1:]
                                             if _literal(x) != 0.0))
        self.line(f"if np.all({varying.code}):")
        self.indent += " "
        out = [self.let(x.code) for x in _exp_log(self, a, b)]
        self.indent = self.indent[:-1]
        self.line("else:")
        self.line(f" {', '.join(x.code for x in out)}, = _pow_constant({varying.code}, "
                  f"[{', '.join(x.code for x in a)}], {b[0].code}, {self.nvars}, {self.order})")
        return out


def _term(x: _C, y: _C) -> str:
    """The code of x * y; by a factor 1.0, the other (1.0 * y is y to the bit)."""
    return y.code if x.code == "1.0" else x.code if y.code == "1.0" else f"{x.code} * {y.code}"


def _jconstant(value, count: int) -> list:
    coef = [0.0] * count
    coef[0] = value if type(value) is float else _num(value)
    return coef


@functools.lru_cache(maxsize=1024)
def _jet_function(nvars: int, order: int, op: str, kinds: tuple, exponent=None):
    """``_JET_OPS[(op, *kinds)]`` on coefficient lists of this arity and order
    as a function of its operands p0, p1, ... (a number operand a float, or
    an array over a batch), written dense: the arithmetic ``Jet`` runs.  An
    operation ``^`` on a number is written for the value ``exponent``."""
    count = _layout(nvars)[order]
    w = _Writer(nvars, order, count, sparse=False)
    args = []
    for i, jet in enumerate(kinds):
        if jet:
            args.append([_C(f"p{i}[{k}]") for k in range(count)])
        else:
            w.line(f"p{i} = p{i} if type(p{i}) is float else _num(p{i})")
            args.append(_C(f"p{i}", value=exponent))
    out = _JET_OPS[(op, *kinds)](w, *args)
    scope: dict = {}
    exec(w.function(f"f({', '.join(f'p{i}' for i in range(len(kinds)))})", out), globals(), scope)
    return scope["f"]


# Value and derivatives f0..f3 of each smooth builtin at a jet's value, with
# the builtin's domain checks; ``compose`` makes the jet of them.

def _both(f, g, a0) -> tuple:
    """f and g at a float, or at each point of a batch (``_map``)."""
    if type(a0) is float:
        return f(a0), g(a0)
    return _map(f, a0), _map(g, a0)


def _dsin(a0):
    s, c = _both(math.sin, math.cos, a0)
    return s, c, -s, -c


def _dcos(a0):
    s, c = _both(math.sin, math.cos, a0)
    return c, -s, -c, s


def _dtan(a0):
    t = _map(_tan, a0)
    sec2 = 1.0 + t * t
    return t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t)


def _inside_unit(a0, name: str):
    return _check(np.logical_not((-1.0 < a0) & (a0 < 1.0)),
                  lambda: DomainError(f"{name} outside (-1, 1)"), a0)


def _dasin(a0):
    a0 = _inside_unit(a0, "asin")
    r = 1.0 - a0 * a0
    return (_map(math.asin, a0), _pow(r, -0.5), a0 * _pow(r, -1.5),
            (1.0 + 2.0 * a0 * a0) * _pow(r, -2.5))


def _dacos(a0):
    a0 = _inside_unit(a0, "acos")
    r = 1.0 - a0 * a0
    return (_map(math.acos, a0), -_pow(r, -0.5), -a0 * _pow(r, -1.5),
            -(1.0 + 2.0 * a0 * a0) * _pow(r, -2.5))


def _datan(a0):
    d = 1.0 + a0 * a0
    return _map(math.atan, a0), 1.0 / d, -2.0 * a0 / _pow(d, 2), (6.0 * a0 * a0 - 2.0) / _pow(d, 3)


def _dsinh(a0):
    s, c = _both(math.sinh, math.cosh, a0)
    return s, c, s, c


def _dcosh(a0):
    s, c = _both(math.sinh, math.cosh, a0)
    return c, s, c, s


def _dtanh(a0):
    t = _map(math.tanh, a0)
    d = 1.0 - t * t
    return t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0)


def _dexp(a0):
    e = _map(math.exp, a0)
    return e, e, e, e


def _positive(a0, message: str):
    return _check(a0 <= 0.0, lambda: DomainError(message), a0)


def _dln(a0):
    a0 = _positive(a0, "log of a non-positive value")
    ia = 1.0 / a0
    return _map(math.log, a0), ia, -ia * ia, 2.0 * _pow(ia, 3)


def _dsqrt(a0):
    a0 = _positive(a0, "sqrt of a non-positive value")
    return _map(math.sqrt, a0), 0.5 * _pow(a0, -0.5), -0.25 * _pow(a0, -1.5), 0.375 * _pow(a0, -2.5)


def _division_by_zero() -> DomainError:
    return DomainError("division by zero")


def _drecip(a0):
    a0 = _check(a0 == 0.0, _division_by_zero, a0)
    ia = 1.0 / a0
    return ia, -ia * ia, 2.0 * _pow(ia, 3), -6.0 * _pow(ia, 4)


def _dpow(a0, e: float):
    a0 = _check(a0 <= 0.0, lambda: DomainError("non-integer power of a non-positive base"), a0)
    return (_pow(a0, e), e * _pow(a0, e - 1), e * (e - 1) * _pow(a0, e - 2),
            e * (e - 1) * (e - 2) * _pow(a0, e - 3))


_RULES = {"sin": _dsin, "cos": _dcos, "tan": _dtan, "asin": _dasin, "acos": _dacos,
          "atan": _datan, "sinh": _dsinh, "cosh": _dcosh, "tanh": _dtanh, "exp": _dexp,
          "ln": _dln, "sqrt": _dsqrt}


def _dabs(a0):
    """The sign by which abs multiplies a jet: at one point 1.0 or -1.0, and
    at 0, where abs is not differentiable, an error; on a batch marked there."""
    if isinstance(a0, np.ndarray):
        return _check(np.logical_not(a0 != 0.0), None, np.where(a0 < 0.0, -1.0, 1.0))
    if a0 > 0.0:
        return 1.0
    if a0 < 0.0:
        return -1.0
    raise DomainError("abs is not differentiable at zero")


def _inverse(k):
    return 1.0 / _check(k == 0.0, _division_by_zero, _num(k))


def _log_base(k: float) -> float:
    if k <= 0.0:
        raise DomainError("jet exponent needs a positive base")
    return math.log(k)


def _angle(y0, x0):
    return _map(_atan2, y0, x0)


# The jet algebra, written once over a ``_Writer`` ``alg``: dense for ``Jet``,
# sparse for the compiled programs.

def _unary(alg, name: str, a: list) -> list:
    return alg.compose(a, alg.call(_RULES[name], a[0], n=4))


def _reciprocal(alg, a: list) -> list:
    return alg.compose(a, alg.call(_drecip, a[0], n=4))


def _div(alg, a: list, b: list) -> list:
    return alg.product(a, _reciprocal(alg, b))


def _exp_log(alg, a: list, b: list) -> list:
    """a ** b for a varying exponent: exp(b ln a)."""
    return _unary(alg, "exp", alg.product(b, _unary(alg, "ln", a)))


def _pow_num(alg, a: list, e: float) -> list:
    """a ** e for a float exponent."""
    if e == round(e) and abs(e) <= 64:
        return _int_pow(alg, a, int(round(e)))
    return alg.compose(a, alg.call(_dpow, a[0], e, n=4))


def _int_pow(alg, a: list, n: int) -> list:
    if n < 0:
        return _int_pow(alg, _reciprocal(alg, a), -n)
    if n == 0:
        return alg.one(a)
    out, base = None, a
    while n:
        if n & 1:
            out = alg.scaled(base, 1.0) if out is None else alg.product(out, base)
        n >>= 1
        if n:
            base = alg.product(base, base)
    return out


def _pow_constant(varying, a: list, b0, nvars: int, order: int) -> list:
    """a ** b for a jet exponent b that is constant where ``varying`` is false."""
    if np.any(varying) or isinstance(b0, np.ndarray):
        # not one rule for the whole batch: its points are re-run one by one
        raise DomainError("an exponent that is constant at some points only")
    return (Jet(nvars, order, a) ** b0).coef


def _jet_atan2(alg, y: list, x: list) -> list:
    base = alg.call(_angle, y[0], x[0])  # on a batch, NaN marks (0, 0)
    y0, x0 = y[0], x[0]
    # rotate so the varying part sits at angle 0, then add the base angle
    p = alg.add(alg.scale(x, x0), alg.scale(y, y0))
    q = alg.sub(alg.scale(y, x0), alg.scale(x, y0))
    return alg.add_num(_unary(alg, "atan", _div(alg, q, p)), base)


# Each operation on jets, by its operator or function and whether each operand
# is a jet (a coefficient list) or a number: ``Jet`` and the compiled programs
# of ``ExprMap`` both look it up here.  "compose" is f(a) for the value and
# derivatives f0..f3 of f at a's value.
_JET_OPS = {
    ("compose", True, False, False, False, False): lambda alg, a, *fs: alg.compose(a, fs),
    ("neg", True): lambda alg, a: alg.neg(a),
    ("abs", True): lambda alg, a: alg.scale(a, alg.call(_dabs, a[0])),
    ("+", True, True): lambda alg, a, b: alg.add(a, b),
    ("+", True, False): lambda alg, a, k: alg.add_num(a, k),
    ("+", False, True): lambda alg, k, b: alg.add_num(b, k),
    ("-", True, True): lambda alg, a, b: alg.sub(a, b),
    ("-", True, False): lambda alg, a, k: alg.sub_num(a, k),
    ("-", False, True): lambda alg, k, b: alg.add_num(alg.neg(b), k),
    ("*", True, True): lambda alg, a, b: alg.product(a, b),
    ("*", True, False): lambda alg, a, k: alg.scale(a, k),
    ("*", False, True): lambda alg, k, b: alg.scale(b, k),
    ("/", True, True): _div,
    ("/", True, False): lambda alg, a, k: alg.scale(a, alg.call(_inverse, k)),
    ("/", False, True): lambda alg, k, b: alg.scale(_reciprocal(alg, b), k),
    ("^", True, True): lambda alg, a, b: alg.pow_jet(a, b),
    ("^", True, False): lambda alg, a, e: alg.power(a, e),
    ("^", False, True): lambda alg, k, b: _unary(alg, "exp", alg.scale(b, alg.call(_log_base, k))),
    ("atan2", True, True): _jet_atan2,
    ("atan2", True, False): lambda alg, y, k: _jet_atan2(alg, y, alg.constant(k)),
    ("atan2", False, True): lambda alg, k, x: _jet_atan2(alg, alg.constant(k), x),
}
for _name in _RULES:
    _JET_OPS[(_name, True)] = lambda alg, a, name=_name: _unary(alg, name, a)


class Jet:
    """Truncated Taylor expansion (degree <= 3) in any number of variables.

    Coefficients are stored Taylor-style, i.e. divided by factorials, so
    multiplication is a plain truncated convolution.  ``partial`` restores
    the derivative scaling.  Each coefficient is a float, or a float array
    holding it at each point of a batch (a coefficient that is the same at
    every point may stay a float).  The arithmetic is ``_JET_OPS`` on the
    coefficient lists, written dense by ``_Writer`` (``_jet_function``); the
    compiled programs of ``ExprMap`` are the same operations that
    ``_Writer`` writes sparse, as one local per coefficient.  Each builtin
    is a method, ``jet.sin()`` and so on.
    """

    __slots__ = ("nvars", "order", "coef")

    def __init__(self, nvars: int, order: int, coef: list[float]):
        self.nvars = nvars
        self.order = order
        self.coef = coef

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, value: float, nvars: int, order: int) -> "Jet":
        return cls(nvars, order, _jconstant(value, (_COUNT.get(nvars) or _layout(nvars))[order]))

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
        if sum(orders) > self.order:
            raise ValueError("derivative order exceeds jet order")
        k, scale = _PARTIAL[self.nvars][orders]
        return self.coef[k] * scale

    # -- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.nvars != self.nvars or other.order != self.order:
                raise ValueError("jet shape mismatch")
            return other
        return None

    def _with(self, coef: list) -> "Jet":
        return Jet(self.nvars, self.order, coef)

    def _apply(self, op: str, *operands, reflected: bool = False) -> "Jet":
        """The jet of ``op`` on this jet and ``operands`` (jets or numbers),
        or with ``reflected`` on the number operand and this jet."""
        args, kinds = [self.coef], [True]
        for x in operands:
            o = self._coerce(x)
            args.append(x if o is None else o.coef)
            kinds.append(o is not None)
        if reflected:
            args.reverse()
            kinds.reverse()
        exponent = float(args[1]) if op == "^" and not kinds[1] else math.nan
        exponent = exponent if math.isfinite(exponent) else None  # raises as round does
        return self._with(_jet_function(self.nvars, self.order, op, tuple(kinds), exponent)(*args))

    def __add__(self, other):
        return self._apply("+", other)

    def __radd__(self, other):
        return self._apply("+", other, reflected=True)

    def __sub__(self, other):
        return self._apply("-", other)

    def __rsub__(self, other):
        return self._apply("-", other, reflected=True)

    def __neg__(self):
        return self._apply("neg")

    def __mul__(self, other):
        return self._apply("*", other)

    def __rmul__(self, other):
        return self._apply("*", other, reflected=True)

    def __truediv__(self, other):
        return self._apply("/", other)

    def __rtruediv__(self, other):
        return self._apply("/", other, reflected=True)

    def __pow__(self, other):
        return self._apply("^", other)

    def compose(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        """f(self) where f has value/derivatives f0..f3 at self.value."""
        return self._apply("compose", f0, f1, f2, f3)

    # -- builtins: abs here, the smooth ones set below ----------------------
    def abs(self):
        return self._apply("abs")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(nvars={self.nvars}, order={self.order}, coef={self.coef})"


for _name in _RULES:
    setattr(Jet, _name, lambda self, name=_name: self._apply(name))


def derivatives(em: ExprMap, point, powers: Sequence[tuple]) -> list:
    """The partial derivatives of ``em``'s components at a point, or at a batch
    given by an array per coordinate: row r lists the derivative of every
    component with the exponents powers[r] (one per variable), as
    ``Jet.partial`` gives it.  The entries are floats at one point; on a batch
    arrays over the points, or a float where the derivative is the same at
    every point.  The rows come straight from a program compiled for these
    powers, whose jets have the largest total degree in ``powers``, which
    must be at least 1."""
    point = point if type(point) is tuple else tuple(point)
    if len(point) != em.arity:
        raise ValueError(f"expected {em.arity} coordinates, got {len(point)}")
    return em._run(powers if type(powers) is tuple else tuple(map(tuple, powers)), point)


def _tan(a: float) -> float:
    if abs(math.cos(a)) < _POLE_TOL:
        raise DomainError("tan at a pole")
    return math.tan(a)


def _atan2(y: float, x: float) -> float:
    if x == 0.0 and y == 0.0:
        raise DomainError("atan2(0, 0)")
    return math.atan2(y, x)


def jet_atan2(y, x):
    """Two-argument arctangent for jets and/or floats."""
    yj, xj = isinstance(y, Jet), isinstance(x, Jet)
    if not yj and not xj:
        return _map(_atan2, y, x)
    ref = y if yj else x
    if yj and xj:
        ref._coerce(x)
    return ref._with(_jet_function(ref.nvars, ref.order, "atan2", (yj, xj))(
        y.coef if yj else y, x.coef if xj else x))


_UNARY_FUNCS = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh",
                "tanh", "exp", "ln", "sqrt", "abs")
_BUILTIN_ARITY = {name: 1 for name in _UNARY_FUNCS}
_BUILTIN_ARITY["atan2"] = 2
_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


def _ln(a: float) -> float:
    if a <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(a)


def _sqrt(a: float) -> float:
    if a < 0.0:
        raise DomainError("sqrt of a negative value")
    return math.sqrt(a)


def _unit_arg(f):
    def checked(a: float) -> float:
        if not -1.0 <= a <= 1.0:
            raise DomainError(f"{f.__name__} outside [-1, 1]")
        return f(a)
    return checked


# one-argument builtins on a float (``atan2`` goes through ``jet_atan2``)
_FLOAT_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": _tan, "asin": _unit_arg(math.asin),
    "acos": _unit_arg(math.acos), "atan": math.atan, "sinh": math.sinh, "cosh": math.cosh,
    "tanh": math.tanh, "exp": math.exp, "abs": abs, "ln": _ln, "sqrt": _sqrt,
}


def _real_pow(a: float, b: float) -> float:
    if b != round(b) and a < 0.0:
        raise DomainError("non-integer power of a negative base")
    if a == 0.0 and b < 0.0:
        raise DomainError("zero raised to a negative power")
    return a ** b


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


def _fdiv(a, b):
    """a / b on numbers: true division, as on floats."""
    return a / _check(b == 0.0, _division_by_zero, b)


# Each operation on numbers as one statement of a compiled program: by its
# operator or function, the code over the operands' names {0} and {1}.
# Numbers (every value at order 0, and subtrees of constants) take true
# division and ``pow``; jets take ``_JET_OPS``, written out by ``_Writer``.
_CODE = {"neg": "-{0}", "+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}",
         "/": "_fdiv({0}, {1})", "^": "_map(_real_pow, {0}, {1})",
         "atan2": "_map(_atan2, {0}, {1})"}
for _name in _UNARY_FUNCS:
    _CODE[_name] = f"_map(_FLOAT_FUNCS[{_name!r}], {{0}})"


def _compile(em: "ExprMap", key) -> tuple:
    """``em`` as generated straight-line code: the function of the point's
    coordinates that returns the component values (``key`` 0), their jets of
    order ``key``, or, for a tuple of exponent tuples, the rows of
    ``derivatives``; and per line of it the operation node that line
    evaluates.

    The operation nodes of the interned DAG are written in the order of a
    walk of the components (operands left to right, a node evaluated before
    skipped), a number as one statement and a jet as one local per
    coefficient (``_Writer``), and each component is checked for finiteness
    right after its nodes.  A node is a jet when it depends on a variable and
    the order is above 0, else a number; the code does no type dispatch.  On
    a batch the check returns each coefficient of a jet component as an
    array, also one that a left-out term would have made one in the list
    code of ``Jet``."""
    rows = type(key) is tuple
    order = max(map(sum, key)) if rows else key
    count = _layout(em.arity)[order] if order else 1
    w = _Writer(em.arity, order, count, sparse=True)
    xs = [f"x{k}" for k in range(em.arity)]
    point = f"({', '.join(xs)},)"
    free, bound = [], []  # the names the code closes over, and their values
    seen: dict = {}  # per node id, its value (a _C, or a list of them for a jet) and whether a jet
    if order or rows:  # coordinates as floats, or arrays over a batch
        batch = " or ".join(f"type({x}) is not float" for x in xs)
        w.line(f"batch = {batch}")
        w.line(f"if batch: {', '.join(xs)}, = map(_num, {point}); batch = {batch}")

    def bind(value, known=None) -> _C:
        free.append(f"k{len(free)}")
        bound.append(value)
        return _C(free[-1], value=known)

    def visit(node: Node) -> tuple:
        if id(node) not in seen:
            if isinstance(node, Var):  # the jet of variable k, as Jet.variable seeds it
                x = _C(xs[node.index])
                seen[id(node)] = ([x] + [_C("1.0") if i == 1 + node.index else _ZERO
                                         for i in range(1, count)], True) if order else (x, False)
            elif isinstance(node, (Num, ConstRef)):
                seen[id(node)] = (bind(node.value, node.value), False)
            else:
                if isinstance(node, Neg):
                    op, operands = "neg", (node.operand,)
                elif isinstance(node, BinOp):
                    op, operands = node.op, (node.left, node.right)
                else:
                    op, operands = node.func, node.args
                args, kinds = zip(*map(visit, operands))
                w.node = node
                if not any(kinds):
                    value = w.let(_CODE[op].format(*(x.code for x in args)))
                else:
                    if op == "^" and not kinds[1] and args[1].value is None:
                        args = (args[0], args[1]._replace(value=_value(em, node.right)))
                    value = _JET_OPS[(op, *kinds)](w, *args)
                seen[id(node)] = (value, any(kinds))
        return seen[id(node)]

    cells = []  # per component, its coefficients' code at a point
    for i, comp in enumerate(em.components):
        value, jet = visit(comp)
        w.node = None
        name = bind(comp).code
        if not jet:
            w.line(f"c{i} = _finite([{value.code}], {name})[0]")
            cells.append([f"c{i}"] + ["0.0"] * (count - 1))
            if order:  # a component of constants: a constant jet over the point's batch
                w.line(f"if batch: c{i} = _jconstant(_spread([c{i}], {point})[0], {count})")
            continue
        codes = ", ".join(c.code for c in value)
        w.line(f"if batch: c{i} = _finite([{codes}], {name})")
        # at a point the sum is finite where every coefficient is, unless it overflows
        w.line(f"elif not math.isfinite({' + '.join(c.code for c in value if _literal(c) is None)}):"
               f" _finite([{codes}], {name})")
        cells.append([c.code for c in value])
    # on a batch, c0, c1, ... hold the components' coefficient lists
    batched = f"[{', '.join(f'c{i}' for i in range(em.dimension))}]"
    if rows:
        cells_at = [_PARTIAL[em.arity][p] if order else (0, 1.0) for p in key]
        out = "[" + ", ".join("[" + ", ".join(c[k] if s == 1.0 else f"{c[k]} * {s!r}" for c in cells)
                              + "]" for k, s in cells_at) + "]"
        tail = f"_rows({batched}, {bind(cells_at).code}) if batch else {out}" if order else out
    elif order:
        tail = (f"[Jet({em.arity}, {order}, c) for c in {batched}] if batch else ["
                + ", ".join(f"Jet({em.arity}, {order}, [{', '.join(c)}])" for c in cells) + "]")
    else:
        tail = batched
    source = "\n".join([f"def build({', '.join(free)}):",
                        f" def program({', '.join(xs)}):",
                        *(f"  {text}" for text, _ in w.lines),
                        f"  return {tail}",
                        " return program"])
    scope: dict = {}
    exec(_code(source), globals(), scope)
    program = scope["build"](*bound)
    return program, {3 + k: node for k, (_, node) in enumerate(w.lines) if node is not None}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    """A program's source compiled.  The constants are arguments of its
    ``build``, so a map parsed again (each ``cli.main`` run parses its maps
    afresh) writes the same source and reuses the code: compiling costs about
    twice as much as writing it."""
    return compile(source, "<expression program>", "exec")


def _value(em: "ExprMap", node: Node):
    """A subtree of constants of ``em`` as the float the compiled code gives
    it, or None where that raises or is not finite."""
    try:
        return ExprMap(em.variables, em.constants, (node,))(*[0.0] * em.arity)[0]
    except (ArithmeticError, ValueError):
        return None


def _rows(coefs: list, cells: list) -> list:
    """The rows of ``derivatives`` from the components' coefficient lists: per
    (position, prod k!) in ``cells``, each component's coefficient times it,
    as ``Jet.partial`` gives it."""
    return [[c[k] * s for c in coefs] for k, s in cells]


def _located(err: Exception, program, located: dict) -> DomainError:
    """An error a compiled program raised, as the DomainError that names the
    innermost node that failed: the node of the program line it came from,
    unless it names its node already (a non-finite component)."""
    if isinstance(err, DomainError) and err.expression is not None:
        return err
    tb = err.__traceback__
    while tb.tb_frame.f_code is not program.__code__:
        tb = tb.tb_next
    node = located[tb.tb_lineno]
    reason = err.reason if isinstance(err, DomainError) else (
        "overflow" if isinstance(err, OverflowError) else str(err))
    return DomainError(reason, unparse(node), node.span[0])


def _finite(nums: list, node: Node) -> list:
    """A component's numbers (its value, or its jet's coefficients), rejected
    when any of them is not finite (on a batch: marked at the points where
    one is not).  On a batch every number comes back as an array over the
    batch, so a coefficient that a compiled program leaves a float, by
    leaving out a structural-zero term, becomes the array ``Jet`` holds."""
    if type(nums[0]) is not np.ndarray:  # a value the same at every point: so is each number
        if not all(map(math.isfinite, nums)):
            raise DomainError("non-finite value", unparse(node), node.span[0])
        return nums
    if not all(math.isfinite(c) for c in nums if type(c) is not np.ndarray):
        raise DomainError("non-finite value", unparse(node), node.span[0])
    bad = np.logical_not(np.logical_and.reduce([np.isfinite(c) for c in nums
                                                if type(c) is np.ndarray]))
    return [_check(bad, None, c) for c in nums]


@dataclass(frozen=True)
class ExprMap:
    """Immutable map R^n -> R^m defined by parsed expressions.

    ``arity`` is the number of variables (jets carry derivatives in all of
    them), ``dimension`` the number of components.  The first evaluation at
    an order, or of ``derivatives`` for a tuple of powers, compiles the map
    for it (``_compile``); the program is kept for every later one, at one
    point or on a batch.
    """

    variables: tuple
    constants: tuple
    components: tuple
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def _run(self, key, point) -> list:
        """The program of ``key`` (an order, or the powers of ``derivatives``)
        run at a point or a batch, compiled on its first run."""
        compiled = self._programs.get(key)
        if compiled is None:
            compiled = self._programs[key] = _compile(self, key)
        program, located = compiled
        try:
            return program(*point)
        except (ArithmeticError, ValueError) as err:
            raise _located(err, program, located) from None

    def __call__(self, *point: float) -> list[float]:
        """Component values at a point; with an array per coordinate, at a
        batch of points."""
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        values = list(map(_num, point))
        out = self._run(0, values)
        return _spread(out, values) if np.ndarray in map(type, values) else out

    def eval_jet(self, point: Sequence[float], order: int = MAX_ORDER):
        """Evaluate all components as jets of the given order in all the
        variables.  With ``order=0`` plain floats are returned.  With an
        array per coordinate the jets hold a batch of points."""
        point = tuple(map(_num, point))
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        if order == 0:
            return self.__call__(*point)
        return self._run(order, point)

    def compose(self, inner: "ExprMap") -> "ExprMap":
        """This map after ``inner``: each variable replaced by the matching
        component of ``inner``, interned again so that a component used twice
        is evaluated once per call; the constants of both maps are merged."""
        if inner.dimension != self.arity:
            raise ValueError(f"{inner.dimension} components for {self.arity} variables")

        def substitute(node: Node) -> Node:
            return inner.components[node.index] if isinstance(node, Var) else \
                _rebuilt(node, substitute)

        table: dict = {}
        return ExprMap(inner.variables, _merged(inner.constants, self.constants),
                       tuple(_intern(substitute(c), table) for c in self.components))


def _merged(*constants: tuple) -> tuple:
    """The (name, value) pairs of several maps' constants as one sorted tuple;
    a name bound to two different values raises ValueError."""
    out: dict = {}
    for name, value in itertools.chain(*constants):
        if out.setdefault(name, value) != value:
            raise ValueError(f"constant {name!r} bound to both {out[name]!r} and {value!r}")
    return tuple(sorted(out.items()))


def _rebuilt(node: Node, f) -> Node:
    """``node`` with ``f`` applied to each of its operands."""
    if isinstance(node, Neg):
        return Neg(node.span, f(node.operand))
    if isinstance(node, BinOp):
        return BinOp(node.span, node.op, f(node.left), f(node.right))
    if isinstance(node, Call):
        return Call(node.span, node.func, tuple(map(f, node.args)))
    return node


def _abs_arguments(em: ExprMap) -> ExprMap:
    """The map, of em's variables, to the argument of each distinct ``abs`` in
    em's components: em may have a kink only where one of them changes sign."""
    found, seen, stack = [], set(), list(em.components)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Call) and node.func == "abs":
                found.append(node.args[0])
            _rebuilt(node, stack.append)  # pushes the operands; the copy is dropped
    return ExprMap(em.variables, em.constants, tuple(found))


def _intern(node: Node, table: dict) -> Node:
    """``node`` with each subtree replaced by the first structurally equal one
    in ``table`` (hash-consing), which is also the first one evaluated: equal
    subtrees become one node, and an error there names the same text and
    offset as before."""
    node = _rebuilt(node, lambda operand: _intern(operand, table))
    return table.setdefault(node, node)


def parse(source, variables: Sequence[str], constants: dict | None = None) -> ExprMap:
    """Parse one expression string (or a sequence of them) into an ExprMap."""
    sources = (source,) if isinstance(source, str) else tuple(source)
    variables = tuple(variables)
    constants = dict(constants or {})
    clash = set(variables) & set(constants)
    if clash:
        raise ValueError(f"names declared both variable and constant: {sorted(clash)}")
    table: dict = {}
    components = tuple(_intern(_Parser(s, variables, constants).parse(), table)
                       for s in sources)
    return ExprMap(variables, tuple(sorted(constants.items())), components)
