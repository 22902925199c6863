"""Small expression language with exact forward-mode derivatives.

Expressions are parsed into an immutable AST and evaluated either as plain
floats or as truncated Taylor jets carrying all mixed partial derivatives up
to total order 3 in any number of variables.  Every curve, surface and
coordinate map in this package is defined through this module.

Each value may be a float (one point) or a float array of length N (a batch
of N points, evaluated in one walk of the AST).  On a float a domain error
raises ``DomainError``; on an array it marks the failing points with NaN,
and every point that raises on its own is marked, so a caller re-runs the
marked points one by one to get the error.  Results at unmarked points are
bit-identical to those of the single-point evaluation.

``parse`` makes identical subtrees of a map's components one node, and an
evaluation reuses a node's value, so each is evaluated once per call.
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
# evaluator far from the interpreter's recursion limit.
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

# Flat coefficient layout per arity, filled by ``_layout`` on first use:
# exponent multi-indices in graded order (total degree, then the exponents
# in descending lexicographic order), the coefficient count per order, the
# position of each multi-index, per multi-index the (position, prod k!) pair
# that turns its coefficient into the derivative, and per (arity, order) the
# jet product as a function of the two coefficient lists.  Plain dicts keep
# ``Jet.__mul__`` at one C-level lookup.
_POWERS: dict = {}
_COUNT: dict = {}
_INDEX: dict = {}
_PARTIAL: dict = {}
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
        # straight-line code, so a product walks no pair table
        namespace: dict = {}
        exec("def product(a, b):\n" + "\n".join(per_slot)
             + f"\n return [{', '.join(f's{k}' for k in range(cnt))}]", namespace)
        _MUL[(nvars, order)] = namespace["product"]
    _POWERS[nvars] = powers
    _INDEX[nvars] = index
    _PARTIAL[nvars] = {p: (k, math.prod(_FACT[e] for e in p)) for p, k in index.items()}
    _COUNT[nvars] = counts
    return counts


Number = Union[int, float]


class Jet:
    """Truncated Taylor expansion (degree <= 3) in any number of variables.

    Coefficients are stored Taylor-style, i.e. divided by factorials, so
    multiplication is a plain truncated convolution.  ``partial`` restores
    the derivative scaling.  Each coefficient is a float, or a float array
    holding it at each point of a batch (a coefficient that is the same at
    every point may stay a float).
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
        coef[0] = value if type(value) is float else _num(value)
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

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            out = self.coef.copy()
            out[0] = out[0] + (other if type(other) is float else _num(other))
            return Jet(self.nvars, self.order, out)
        return Jet(self.nvars, self.order, [a + b for a, b in zip(self.coef, o.coef)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            out = self.coef.copy()
            out[0] = out[0] - (other if type(other) is float else _num(other))
            return Jet(self.nvars, self.order, out)
        return Jet(self.nvars, self.order, [a - b for a, b in zip(self.coef, o.coef)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(self.nvars, self.order, [-a for a in self.coef])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            k = other if type(other) is float else _num(other)
            return Jet(self.nvars, self.order, [a * k for a in self.coef])
        return Jet(self.nvars, self.order, _MUL[(self.nvars, self.order)](self.coef, o.coef))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            k = _check(other == 0.0, lambda: DomainError("division by zero"), _num(other))
            return self * (1.0 / k)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * _num(other)

    def _reciprocal(self) -> "Jet":
        a = _check(self.value == 0.0, lambda: DomainError("division by zero"), self.value)
        ia = 1.0 / a
        return self.compose(ia, -ia * ia, 2.0 * _pow(ia, 3), -6.0 * _pow(ia, 4))

    def __pow__(self, other):
        if isinstance(other, Jet):
            varying = False
            for c in other.coef[1:]:
                varying = varying | (c != 0.0)
            if np.all(varying):
                # general exponent: x^y = exp(y ln x)
                return (other * self._ln()).exp()
            if np.any(varying) or isinstance(other.value, np.ndarray):
                # not one rule for the whole batch: its points are re-run one by one
                raise DomainError("an exponent that is constant at some points only")
            other = other.value
        p = float(other)
        if p == round(p) and abs(p) <= 64:
            return self._int_pow(int(round(p)))
        a = _check(self.value <= 0.0,
                   lambda: DomainError("non-integer power of a non-positive base"), self.value)
        return self.compose(_pow(a, p), p * _pow(a, p - 1), p * (p - 1) * _pow(a, p - 2),
                            p * (p - 1) * (p - 2) * _pow(a, p - 3))

    def _int_pow(self, n: int) -> "Jet":
        if n < 0:
            return self._reciprocal()._int_pow(-n)
        if n == 0:
            one = 1.0
            if isinstance(self.value, np.ndarray):
                one = 1.0 + 0.0 * self.value  # x^0 keeps the marks of x
            return Jet.constant(one, self.nvars, self.order)
        out, base = None, self
        while n:
            if n & 1:
                out = base._scaled(1.0) if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _scaled(self, c) -> "Jet":
        """c * self, with the coefficients 0.0 + c * x that the jet product
        Jet.constant(c) * self has wherever they are finite."""
        return Jet(self.nvars, self.order, [0.0 + c * x for x in self.coef])

    # -- composition with a smooth scalar function ---------------------
    def compose(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        """f(self) where f has value/derivatives f0..f3 at self.value.

        Horner's scheme in h = self - self.value, from the jet's order down:
        ((c_p h + c_(p-1)) h + ...) h + c_0, so an order-2 jet takes one jet
        product; its first step, c_p h, is ``_scaled``.  The terms past the
        order add 0.0 * c to c_p: nothing where c is finite, and NaN (a mark
        on a batch) where it is not, as the full cubic scheme has."""
        p = self.order
        h = Jet(self.nvars, p, self.coef.copy())
        h.coef[0] = 0.0
        c = (f0, f1, f2 / 2.0, f3 / 6.0)
        top = c[p]
        for k in range(p + 1, MAX_ORDER + 1):
            top = top + 0.0 * c[k]
        out = h._scaled(top if type(top) is float else _num(top))
        for k in range(p - 1, 0, -1):
            out = (out + c[k]) * h
        return out + c[0]

    # -- builtins -------------------------------------------------------
    def sin(self):
        a = self.value
        s, c = _map(math.sin, a), _map(math.cos, a)
        return self.compose(s, c, -s, -c)

    def cos(self):
        a = self.value
        s, c = _map(math.sin, a), _map(math.cos, a)
        return self.compose(c, -s, -c, s)

    def tan(self):
        t = _map(_tan, self.value)
        sec2 = 1.0 + t * t
        return self.compose(t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (1.0 + 3.0 * t * t))

    def _inside_unit(self, name: str):
        a = self.value
        return _check(np.logical_not((-1.0 < a) & (a < 1.0)),
                      lambda: DomainError(f"{name} outside (-1, 1)"), a)

    def asin(self):
        a = self._inside_unit("asin")
        r = 1.0 - a * a
        return self.compose(_map(math.asin, a), _pow(r, -0.5), a * _pow(r, -1.5),
                            (1.0 + 2.0 * a * a) * _pow(r, -2.5))

    def acos(self):
        a = self._inside_unit("acos")
        r = 1.0 - a * a
        return self.compose(_map(math.acos, a), -_pow(r, -0.5), -a * _pow(r, -1.5),
                            -(1.0 + 2.0 * a * a) * _pow(r, -2.5))

    def atan(self):
        a = self.value
        d = 1.0 + a * a
        return self.compose(_map(math.atan, a), 1.0 / d, -2.0 * a / _pow(d, 2),
                            (6.0 * a * a - 2.0) / _pow(d, 3))

    def sinh(self):
        a = self.value
        s, c = _map(math.sinh, a), _map(math.cosh, a)
        return self.compose(s, c, s, c)

    def cosh(self):
        a = self.value
        s, c = _map(math.sinh, a), _map(math.cosh, a)
        return self.compose(c, s, c, s)

    def tanh(self):
        t = _map(math.tanh, self.value)
        d = 1.0 - t * t
        return self.compose(t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))

    def exp(self):
        e = _map(math.exp, self.value)
        return self.compose(e, e, e, e)

    def _positive(self, message: str):
        return _check(self.value <= 0.0, lambda: DomainError(message), self.value)

    def _ln(self):
        a = self._positive("log of a non-positive value")
        ia = 1.0 / a
        return self.compose(_map(math.log, a), ia, -ia * ia, 2.0 * _pow(ia, 3))

    ln = _ln

    def sqrt(self):
        a = self._positive("sqrt of a non-positive value")
        return self.compose(_map(math.sqrt, a), 0.5 * _pow(a, -0.5), -0.25 * _pow(a, -1.5),
                            0.375 * _pow(a, -2.5))

    def abs(self):
        a = self.value
        if isinstance(a, np.ndarray):  # marked at 0, where abs is not differentiable
            return Jet(self.nvars, self.order, [_check(np.logical_not(a != 0.0), None,
                                                       np.where(a < 0.0, -c, c))
                                                for c in self.coef])
        if a > 0.0:
            return Jet(self.nvars, self.order, self.coef.copy())
        if a < 0.0:
            return -self
        raise DomainError("abs is not differentiable at zero")

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(nvars={self.nvars}, order={self.order}, coef={self.coef})"


def derivatives(jets: Sequence[Jet], powers: Sequence[tuple]) -> np.ndarray:
    """The partial derivatives of several jets of one arity, as an array of
    shape (..., len(powers), len(jets)): row r holds the derivative of every
    jet with the exponents powers[r] (one per variable; total at most the
    jets' order), as ``Jet.partial`` gives it.  On a batch the leading axes
    are those of the points."""
    cells = [_PARTIAL[jets[0].nvars][p] for p in powers]
    if not any(type(j.value) is np.ndarray for j in jets):
        # one point: a jet whose value is a float holds only floats
        return np.array([j.coef[k] * s for k, s in cells for j in jets]).reshape(
            len(cells), len(jets))
    out = np.empty(np.broadcast_shapes(*(np.shape(j.value) for j in jets))
                   + (len(cells), len(jets)))
    for c, j in enumerate(jets):
        for r, (k, s) in enumerate(cells):
            out[..., r, c] = j.coef[k] * s
    return out


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
    if not yj:
        y = Jet.constant(y, ref.nvars, ref.order)
    if not xj:
        x = Jet.constant(x, ref.nvars, ref.order)
    base = _map(_atan2, y.value, x.value)  # on a batch, NaN marks (0, 0)
    y0, x0 = y.value, x.value
    # rotate so the varying part sits at angle 0, then add the base angle
    p = x * x0 + y * y0
    q = y * x0 - x * y0
    return (q / p).atan() + base


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


def _eval(node: Node, env: list, memo: dict):
    """Evaluate an AST on a mix of floats and jets.

    On floats alone every branch is plain float arithmetic, so this is also
    the float evaluator.  ``memo`` holds, by node identity, the value of each
    operation node already evaluated in this call: ``parse`` makes equal
    subtrees of a map one node, so each is evaluated once.
    """
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, (Num, ConstRef)):
        return node.value
    value = memo.get(id(node))
    if value is None:
        value = memo[id(node)] = _operation(node, env, memo)
    return value


def _operation(node: Node, env: list, memo: dict):
    """The value of an operation node, its operands from ``_eval``."""
    try:
        if isinstance(node, Neg):
            return -_eval(node.operand, env, memo)
        if isinstance(node, BinOp):
            a = _eval(node.left, env, memo)
            b = _eval(node.right, env, memo)
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
                return a / _check(b == 0.0, lambda: DomainError("division by zero"), b)
            if isinstance(a, Jet):
                return a ** b
            if isinstance(b, Jet):
                if a <= 0.0:
                    raise DomainError("jet exponent needs a positive base")
                return (b * math.log(a)).exp()
            return _map(_real_pow, a, b)
        if isinstance(node, Call):
            args = [_eval(a, env, memo) for a in node.args]
            if node.func == "atan2":
                return jet_atan2(args[0], args[1])
            a = args[0]
            if isinstance(a, Jet):
                return getattr(a, node.func)()
            return _map(_FLOAT_FUNCS[node.func], a)
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
    """A component result, rejected when any of its numbers is not finite (on
    a batch: marked at the points where one is not)."""
    nums = value.coef if isinstance(value, Jet) else [value]
    if type(nums[0]) is not np.ndarray:  # a value the same at every point: so is each number
        if not all(map(math.isfinite, nums)):
            raise DomainError("non-finite value", unparse(node), node.span[0])
        return value
    if not all(math.isfinite(c) for c in nums if type(c) is not np.ndarray):
        raise DomainError("non-finite value", unparse(node), node.span[0])
    bad = np.logical_not(np.logical_and.reduce([np.isfinite(c) for c in nums
                                                if type(c) is np.ndarray]))
    nums = [_check(bad, None, c) for c in nums]
    return Jet(value.nvars, value.order, nums) if isinstance(value, Jet) else nums[0]


@dataclass(frozen=True)
class ExprMap:
    """Immutable map R^n -> R^m defined by parsed expressions.

    ``arity`` is the number of variables (jets carry derivatives in all of
    them), ``dimension`` the number of components.
    """

    variables: tuple
    constants: tuple
    components: tuple

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def __call__(self, *point: float) -> list[float]:
        """Component values at a point; with an array per coordinate, at a
        batch of points."""
        if len(point) == 1 and isinstance(point[0], (tuple, list)):
            point = tuple(point[0])
        if len(point) != self.arity:
            raise ValueError(f"expected {self.arity} coordinates, got {len(point)}")
        values = list(map(_num, point))
        memo = {}
        out = [_finite(_eval(c, values, memo), c) for c in self.components]
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
        nv = self.arity
        env = [Jet.variable(p, k, nv, order) for k, p in enumerate(point)]
        memo = {}
        out = []
        for comp in self.components:
            val = _finite(_eval(comp, env, memo), comp)
            if not isinstance(val, Jet):
                val = Jet.constant(_spread([val], point)[0], nv, order)
            out.append(val)
        return out

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
