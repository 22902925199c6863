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
compiled once per order, on its first evaluation at that order, into one
generated function with a statement per node (``_compile``), so each node is
evaluated once per call; its arithmetic is that of ``Jet``, whose methods
call the same functions on coefficient lists.
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

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Sequence, Union

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


def _select(cond, then, otherwise):
    """``then()`` or ``otherwise()`` (a value or a tuple of them) at one point;
    on a batch both, chosen per point."""
    if np.ndim(cond) == 0:
        return then() if cond else otherwise()
    a, b = then(), otherwise()
    if isinstance(a, tuple):
        return tuple(_where(cond, x, y) for x, y in zip(a, b))
    return _where(cond, a, b)


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
# coefficient count per order, per exponent multi-index the (position,
# prod k!) pair that turns its coefficient into the derivative (in graded
# order: total degree, then the exponents in descending lexicographic order),
# and per (arity, order) the ring: the jet product and the composition with a
# smooth scalar function, each a function of coefficient lists generated as
# straight-line code.
_COUNT: dict = {}
_PARTIAL: dict = {}
_RING: dict = {}
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
        for k, target in enumerate(powers[:cnt]):
            pairs = []
            for i in range(cnt):
                rem = tuple(t - a for t, a in zip(target, powers[i]))
                if min(rem) >= 0:
                    pairs.append(f"a[{i}] * b[{index[rem]}]")
            # 0.0 plus the pair products in order, so -0.0 sums to 0.0 and a NaN
            # mark stays; += adds into an array over a batch in place
            first, *rest = pairs
            per_slot.append(f" s{k} = 0.0 + {first}" + "".join(f"; s{k} += {p}" for p in rest))
        namespace: dict = {"_num": _num}
        exec("def product(a, b):\n" + "\n".join(per_slot)
             + f"\n return [{', '.join(f's{k}' for k in range(cnt))}]", namespace)
        exec(_compose_source(order, cnt), namespace)
        _RING[(nvars, order)] = (namespace["product"], namespace["compose"])
    _PARTIAL[nvars] = {p: (k, math.prod(_FACT[e] for e in p)) for p, k in index.items()}
    _COUNT[nvars] = counts
    return counts


def _compose_source(order: int, count: int) -> str:
    """The code of ``compose(a, f0, f1, f2, f3)``: f(a) for a jet of this order
    and coefficient count, where f has value and derivatives f0..f3 at a's
    value.

    Horner's scheme in h = a - a's value, from the jet's order down:
    ((c_p h + c_(p-1)) h + ...) h + c_0 with c_k = f_k / k!, so an order-2 jet
    takes one jet ``product``.  The terms past the order add 0.0 * c_k to
    c_p: nothing where c_k is finite, and NaN (a mark on a batch) where it is
    not, as the full cubic scheme has.  c_p h is 0.0 + c_p x per coefficient
    x of h, as the product of the constant c_p and h has it wherever it is
    finite; adding c_k to a jet adds it to the value."""
    def number(k):  # c_k as a float, or an array over a batch
        return f"(c{k} if type(c{k}) is float else _num(c{k}))"

    h = ["0.0"] + [f"a[{i}]" for i in range(1, count)]
    return "\n".join([
        "def compose(a, f0, f1, f2, f3):",
        " c0, c1, c2, c3 = f0, f1, f2 / 2.0, f3 / 6.0",
        f" top = c{order}" + "".join(f" + 0.0 * c{k}" for k in range(order + 1, MAX_ORDER + 1)),
        " top = top if type(top) is float else _num(top)",
        f" h = [{', '.join(h)}]",
        f" out = [{', '.join(f'0.0 + top * {x}' for x in h)}]",
        *(f" out[0] = out[0] + {number(k)}\n out = product(out, h)"
          for k in range(order - 1, 0, -1)),
        f" out[0] = out[0] + {number(0)}",
        " return out"])


# Jet arithmetic on coefficient lists.  ``Jet`` and the compiled programs of
# ``ExprMap`` both call these, so each operation is written once.  A function
# that multiplies or composes jets takes the ring of their arity and order,
# ``mul, compose = _RING[(arity, order)]``; a number operand is a float, or an
# array over a batch.

def _jconstant(value, count: int) -> list:
    coef = [0.0] * count
    coef[0] = value if type(value) is float else _num(value)
    return coef


def _jneg(a: list) -> list:
    return [-x for x in a]


def _jadd(a: list, b: list) -> list:
    return [x + y for x, y in zip(a, b)]


def _jsub(a: list, b: list) -> list:
    return [x - y for x, y in zip(a, b)]


def _jadd_num(a: list, k) -> list:
    out = a.copy()
    out[0] = out[0] + (k if type(k) is float else _num(k))
    return out


def _jsub_num(a: list, k) -> list:
    out = a.copy()
    out[0] = out[0] - (k if type(k) is float else _num(k))
    return out


def _jrsub_num(a: list, k) -> list:
    """k - a."""
    return _jadd_num(_jneg(a), k)


def _jscale(a: list, k) -> list:
    """a * k."""
    k = k if type(k) is float else _num(k)
    return [x * k for x in a]


def _jscaled(a: list, c) -> list:
    """c * a, with the coefficients 0.0 + c * x that the jet product of the
    constant c and a has wherever they are finite."""
    return [0.0 + c * x for x in a]


def _division_by_zero() -> DomainError:
    return DomainError("division by zero")


def _jdiv_num(a: list, k) -> list:
    k = _check(k == 0.0, _division_by_zero, _num(k))
    return _jscale(a, 1.0 / k)


def _jreciprocal(a: list, mul, compose) -> list:
    a0 = _check(a[0] == 0.0, _division_by_zero, a[0])
    ia = 1.0 / a0
    return compose(a, ia, -ia * ia, 2.0 * _pow(ia, 3), -6.0 * _pow(ia, 4))


def _jdiv(a: list, b: list, mul, compose) -> list:
    return mul(a, _jreciprocal(b, mul, compose))


def _jrdiv_num(a: list, k, mul, compose) -> list:
    """k / a."""
    return _jscale(_jreciprocal(a, mul, compose), _num(k))


def _jpow_jet(a: list, b: list, mul, compose) -> list:
    """a ** b for a jet exponent."""
    varying = False
    for c in b[1:]:
        varying = varying | (c != 0.0)
    if np.all(varying):
        # general exponent: x^y = exp(y ln x)
        return _jexp(mul(b, _jln(a, mul, compose)), mul, compose)
    if np.any(varying) or isinstance(b[0], np.ndarray):
        # not one rule for the whole batch: its points are re-run one by one
        raise DomainError("an exponent that is constant at some points only")
    return _jpow_num(a, b[0], mul, compose)


def _jpow_num(a: list, e, mul, compose) -> list:
    """a ** e for a number exponent."""
    e = float(e)
    if e == round(e) and abs(e) <= 64:
        return _jint_pow(a, int(round(e)), mul, compose)
    a0 = _check(a[0] <= 0.0, lambda: DomainError("non-integer power of a non-positive base"), a[0])
    return compose(a, _pow(a0, e), e * _pow(a0, e - 1), e * (e - 1) * _pow(a0, e - 2),
                   e * (e - 1) * (e - 2) * _pow(a0, e - 3))


def _jnum_pow(k: float, b: list, mul, compose) -> list:
    """k ** b for a jet exponent and a float base."""
    if k <= 0.0:
        raise DomainError("jet exponent needs a positive base")
    return _jexp(_jscale(b, math.log(k)), mul, compose)


def _jint_pow(a: list, n: int, mul, compose) -> list:
    if n < 0:
        return _jint_pow(_jreciprocal(a, mul, compose), -n, mul, compose)
    if n == 0:
        one = 1.0
        if isinstance(a[0], np.ndarray):
            one = 1.0 + 0.0 * a[0]  # x^0 keeps the marks of x
        return _jconstant(one, len(a))
    out, base = None, a
    while n:
        if n & 1:
            out = _jscaled(base, 1.0) if out is None else mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


# the builtins: ``_j<name>(a, mul, compose)``

def _jsin(a: list, mul, compose) -> list:
    s, c = _map(math.sin, a[0]), _map(math.cos, a[0])
    return compose(a, s, c, -s, -c)


def _jcos(a: list, mul, compose) -> list:
    s, c = _map(math.sin, a[0]), _map(math.cos, a[0])
    return compose(a, c, -s, -c, s)


def _jtan(a: list, mul, compose) -> list:
    t = _map(_tan, a[0])
    sec2 = 1.0 + t * t
    return compose(a, t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t))


def _inside_unit(a0, name: str):
    return _check(np.logical_not((-1.0 < a0) & (a0 < 1.0)),
                  lambda: DomainError(f"{name} outside (-1, 1)"), a0)


def _jasin(a: list, mul, compose) -> list:
    a0 = _inside_unit(a[0], "asin")
    r = 1.0 - a0 * a0
    return compose(a, _map(math.asin, a0), _pow(r, -0.5), a0 * _pow(r, -1.5),
                   (1.0 + 2.0 * a0 * a0) * _pow(r, -2.5))


def _jacos(a: list, mul, compose) -> list:
    a0 = _inside_unit(a[0], "acos")
    r = 1.0 - a0 * a0
    return compose(a, _map(math.acos, a0), -_pow(r, -0.5), -a0 * _pow(r, -1.5),
                   -(1.0 + 2.0 * a0 * a0) * _pow(r, -2.5))


def _jatan(a: list, mul, compose) -> list:
    a0 = a[0]
    d = 1.0 + a0 * a0
    return compose(a, _map(math.atan, a0), 1.0 / d, -2.0 * a0 / _pow(d, 2),
                   (6.0 * a0 * a0 - 2.0) / _pow(d, 3))


def _jsinh(a: list, mul, compose) -> list:
    s, c = _map(math.sinh, a[0]), _map(math.cosh, a[0])
    return compose(a, s, c, s, c)


def _jcosh(a: list, mul, compose) -> list:
    s, c = _map(math.sinh, a[0]), _map(math.cosh, a[0])
    return compose(a, c, s, c, s)


def _jtanh(a: list, mul, compose) -> list:
    t = _map(math.tanh, a[0])
    d = 1.0 - t * t
    return compose(a, t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))


def _jexp(a: list, mul, compose) -> list:
    e = _map(math.exp, a[0])
    return compose(a, e, e, e, e)


def _positive(a0, message: str):
    return _check(a0 <= 0.0, lambda: DomainError(message), a0)


def _jln(a: list, mul, compose) -> list:
    a0 = _positive(a[0], "log of a non-positive value")
    ia = 1.0 / a0
    return compose(a, _map(math.log, a0), ia, -ia * ia, 2.0 * _pow(ia, 3))


def _jsqrt(a: list, mul, compose) -> list:
    a0 = _positive(a[0], "sqrt of a non-positive value")
    return compose(a, _map(math.sqrt, a0), 0.5 * _pow(a0, -0.5), -0.25 * _pow(a0, -1.5),
                   0.375 * _pow(a0, -2.5))


def _jabs(a: list, mul, compose) -> list:
    a0 = a[0]
    if isinstance(a0, np.ndarray):  # marked at 0, where abs is not differentiable
        return [_check(np.logical_not(a0 != 0.0), None, np.where(a0 < 0.0, -c, c)) for c in a]
    if a0 > 0.0:
        return a.copy()
    if a0 < 0.0:
        return _jneg(a)
    raise DomainError("abs is not differentiable at zero")


def _jatan2(y: list, x: list, mul, compose) -> list:
    base = _map(_atan2, y[0], x[0])  # on a batch, NaN marks (0, 0)
    y0, x0 = y[0], x[0]
    # rotate so the varying part sits at angle 0, then add the base angle
    p = _jadd(_jscale(x, x0), _jscale(y, y0))
    q = _jsub(_jscale(y, x0), _jscale(x, y0))
    return _jadd_num(_jatan(_jdiv(q, p, mul, compose), mul, compose), base)


Number = Union[int, float]


class Jet:
    """Truncated Taylor expansion (degree <= 3) in any number of variables.

    Coefficients are stored Taylor-style, i.e. divided by factorials, so
    multiplication is a plain truncated convolution.  ``partial`` restores
    the derivative scaling.  Each coefficient is a float, or a float array
    holding it at each point of a batch (a coefficient that is the same at
    every point may stay a float).  The arithmetic is that of the ``_j*``
    functions and of the ring ``_RING[(nvars, order)]`` on the coefficient
    lists, which the compiled programs of ``ExprMap`` call too.
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

    def _apply(self, f, *args) -> "Jet":
        """The jet of ``f(coef, *args, mul, compose)`` in this jet's ring."""
        return Jet(self.nvars, self.order, f(self.coef, *args, *_RING[(self.nvars, self.order)]))

    def __add__(self, other):
        o = self._coerce(other)
        return self._with(_jadd_num(self.coef, other) if o is None else _jadd(self.coef, o.coef))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return self._with(_jsub_num(self.coef, other) if o is None else _jsub(self.coef, o.coef))

    def __rsub__(self, other):
        return self._with(_jrsub_num(self.coef, other))

    def __neg__(self):
        return self._with(_jneg(self.coef))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return self._with(_jscale(self.coef, other))
        return self._with(_RING[(self.nvars, self.order)][0](self.coef, o.coef))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self._with(_jdiv_num(self.coef, other))
        return self._apply(_jdiv, o.coef)

    def __rtruediv__(self, other):
        return self._apply(_jrdiv_num, other)

    def __pow__(self, other):
        o = self._coerce(other)
        return self._apply(_jpow_num, other) if o is None else self._apply(_jpow_jet, o.coef)

    def compose(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        """f(self) where f has value/derivatives f0..f3 at self.value."""
        return self._with(_RING[(self.nvars, self.order)][1](self.coef, f0, f1, f2, f3))

    # -- builtins -------------------------------------------------------
    def sin(self):
        return self._apply(_jsin)

    def cos(self):
        return self._apply(_jcos)

    def tan(self):
        return self._apply(_jtan)

    def asin(self):
        return self._apply(_jasin)

    def acos(self):
        return self._apply(_jacos)

    def atan(self):
        return self._apply(_jatan)

    def sinh(self):
        return self._apply(_jsinh)

    def cosh(self):
        return self._apply(_jcosh)

    def tanh(self):
        return self._apply(_jtanh)

    def exp(self):
        return self._apply(_jexp)

    def ln(self):
        return self._apply(_jln)

    def sqrt(self):
        return self._apply(_jsqrt)

    def abs(self):
        return self._apply(_jabs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(nvars={self.nvars}, order={self.order}, coef={self.coef})"


def derivatives(em: ExprMap, point, powers: Sequence[tuple]) -> list:
    """The partial derivatives of ``em``'s components at a point, or at a batch
    given by an array per coordinate: row r lists the derivative of every
    component with the exponents powers[r] (one per variable), as
    ``Jet.partial`` gives it.  The entries are floats at one point; on a batch
    arrays over the points, or a float where the derivative is the same at
    every point.  The jets are evaluated to the largest total degree in
    ``powers``, which must be at least 1."""
    jets = em.eval_jet(point, max(map(sum, powers)))
    cells = _PARTIAL[jets[0].nvars]
    return [[j.coef[k] * s for j in jets] for k, s in map(cells.__getitem__, powers)]


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
    count = len(ref.coef)
    yc = y.coef if yj else _jconstant(y, count)
    xc = ref._coerce(x).coef if xj else _jconstant(x, count)
    return ref._with(_jatan2(yc, xc, *_RING[(ref.nvars, ref.order)]))


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


# Each operation as one statement of a compiled program: by its operator or
# function and whether each operand is a jet, the code over the operands'
# names {0}, {1} and the coefficient count {n}; ``mul`` and ``compose`` are the
# ring of the map's arity and the program's order.  Numbers
# (every value at order 0, and subtrees of constants) take true division and
# ``pow``.
_CODE = {
    ("neg", False): "-{0}", ("neg", True): "_jneg({0})",
    ("+", False, False): "{0} + {1}", ("+", True, True): "_jadd({0}, {1})",
    ("+", True, False): "_jadd_num({0}, {1})", ("+", False, True): "_jadd_num({1}, {0})",
    ("-", False, False): "{0} - {1}", ("-", True, True): "_jsub({0}, {1})",
    ("-", True, False): "_jsub_num({0}, {1})", ("-", False, True): "_jrsub_num({1}, {0})",
    ("*", False, False): "{0} * {1}", ("*", True, True): "mul({0}, {1})",
    ("*", True, False): "_jscale({0}, {1})", ("*", False, True): "_jscale({1}, {0})",
    ("/", False, False): "_fdiv({0}, {1})", ("/", True, True): "_jdiv({0}, {1}, mul, compose)",
    ("/", True, False): "_jdiv_num({0}, {1})",
    ("/", False, True): "_jrdiv_num({1}, {0}, mul, compose)",
    ("^", False, False): "_map(_real_pow, {0}, {1})",
    ("^", True, True): "_jpow_jet({0}, {1}, mul, compose)",
    ("^", True, False): "_jpow_num({0}, {1}, mul, compose)",
    ("^", False, True): "_jnum_pow({0}, {1}, mul, compose)",
    ("atan2", False, False): "_map(_atan2, {0}, {1})",
    ("atan2", True, True): "_jatan2({0}, {1}, mul, compose)",
    ("atan2", True, False): "_jatan2({0}, _jconstant({1}, {n}), mul, compose)",
    ("atan2", False, True): "_jatan2(_jconstant({0}, {n}), {1}, mul, compose)",
}
for _name in _UNARY_FUNCS:
    _CODE[(_name, False)] = f"_map(_FLOAT_FUNCS[{_name!r}], {{0}})"
    _CODE[(_name, True)] = f"_j{_name}({{0}}, mul, compose)"


def _compile(em: "ExprMap", order: int) -> tuple:
    """``em`` evaluated at ``order`` as generated straight-line code: the
    function of the point's coordinates that returns the component values
    (order 0) or jets, and per line of it the operation node that line
    evaluates.

    Each operation node of the interned DAG is one statement, in the order of
    a walk of the components (operands left to right, a node evaluated before
    skipped), and each component is checked for finiteness right after its
    nodes.  A node is a jet when it depends on a variable and the order is
    above 0, else a number; the code does no type dispatch."""
    jets = order > 0
    count = _layout(em.arity)[order] if jets else 1
    xs = [f"x{k}" for k in range(em.arity)]
    free, bound = [], []  # the names the code closes over, and their values
    seen: dict = {}  # per node id, its value's name in the code and whether it is a jet
    body, located = [], {}

    def bind(value) -> str:
        free.append(f"k{len(free)}")
        bound.append(value)
        return free[-1]

    def visit(node: Node) -> tuple:
        if id(node) not in seen:
            if isinstance(node, Var):
                seen[id(node)] = (f"v{node.index}", True) if jets else (xs[node.index], False)
            elif isinstance(node, (Num, ConstRef)):
                seen[id(node)] = (bind(node.value), False)
            else:
                if isinstance(node, Neg):
                    op, operands = "neg", (node.operand,)
                elif isinstance(node, BinOp):
                    op, operands = node.op, (node.left, node.right)
                else:
                    op, operands = node.func, node.args
                names, kinds = zip(*map(visit, operands))
                name = f"t{len(located)}"
                located[len(body)] = node
                body.append(f"{name} = " + _CODE[(op, *kinds)].format(*names, n=count))
                seen[id(node)] = (name, any(kinds))
        return seen[id(node)]

    out = []
    for i, comp in enumerate(em.components):
        name, jet = visit(comp)
        check = f"_finite({name}, {bind(comp)})" if jet else f"_finite([{name}], {bind(comp)})[0]"
        body.append(f"c{i} = {check}")
        if not jets:
            out.append(f"c{i}")
        elif jet:
            out.append(f"Jet({em.arity}, {order}, c{i})")
        else:  # a component of constants: a constant jet over the point's batch
            out.append(f"Jet({em.arity}, {order}, "
                       f"_jconstant(_spread([c{i}], ({', '.join(xs)},))[0], {count}))")
    seeds = []
    for k in range(em.arity if jets else 0):  # the jet of variable k, as Jet.variable seeds it
        coef = [xs[k]] + ["0.0"] * (count - 1)
        coef[1 + k] = "1.0"
        seeds.append(f"v{k} = [{', '.join(coef)}]")
    source = "\n".join([f"def build(mul, compose, {', '.join(free)}):",
                        f" def program({', '.join(xs)}):",
                        *(f"  {line}" for line in seeds + body),
                        f"  return [{', '.join(out)}]",
                        " return program"])
    scope: dict = {}
    exec(compile(source, "<expression program>", "exec"), globals(), scope)
    program = scope["build"](*_RING.get((em.arity, order), (None, None)), *bound)
    first = 3 + len(seeds)  # the line of body[0]
    return program, {first + k: node for k, node in located.items()}


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
    one is not)."""
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
    an order compiles the map for that order (``_compile``); the program is
    kept for every later one, at one point or on a batch.
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

    def _evaluate(self, order: int, point) -> list:
        compiled = self._programs.get(order)
        if compiled is None:
            compiled = self._programs[order] = _compile(self, order)
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
        out = self._evaluate(0, values)
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
        return self._evaluate(order, point)

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
