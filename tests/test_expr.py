"""Parser and jet-evaluation tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgeom.expr import (MAX_NESTING, ArityMismatch, DomainError, Jet, ParseError,
                             UnknownIdentifier, _layout, jet_atan2, parse, unparse)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_cos_at_zero():
    m = parse("cos(t)", ["t"])
    assert m.dimension == 1
    assert m(0.0)[0] == 1.0


def test_parse_with_constants():
    m = parse("a*cos(w*t)", ["t"], {"a": 2.0, "w": 3.0})
    assert m(0.0)[0] == 2.0


def test_unbalanced_call_offset():
    with pytest.raises(ParseError) as err:
        parse("cos(t,", ["t"])
    assert err.value.offset == 6


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("cos(q)", ["t"])
    with pytest.raises(UnknownIdentifier):
        parse("frob(t)", ["t"])


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse("atan2(t)", ["t"])
    with pytest.raises(ArityMismatch):
        parse("sin(t, t)", ["t"])


def test_builtin_constants():
    assert parse("pi", ["t"])(0.0)[0] == math.pi
    assert parse("e", ["t"])(0.0)[0] == math.e


def test_variable_constant_clash():
    with pytest.raises(ValueError):
        parse("t", ["t"], {"t": 1.0})


def test_power_binds_looser_than_unary_minus():
    # per the grammar, the unary minus is part of the base: -2^2 == (-2)^2
    assert parse("-2^2", [])()[0] == 4.0
    assert parse("-(2^2)", [])()[0] == -4.0


def test_power_right_associative():
    assert parse("2^3^2", [])()[0] == 2.0 ** 9


# ---------------------------------------------------------------------------
# jet evaluation: stated examples
# ---------------------------------------------------------------------------

def test_cubic_jet():
    j = parse("t^3", ["t"]).eval_jet((2.0,), 3)[0]
    assert j.value == 8.0
    assert j.partial(1) == 12.0
    assert j.partial(2) == 12.0
    assert j.partial(3) == 6.0


def test_product_rule_two_vars():
    j = parse("sin(u)*v", ["u", "v"]).eval_jet((0.0, 1.0), 2)[0]
    assert j.partial(1, 0) == pytest.approx(1.0, abs=1e-15)
    assert j.partial(0, 1) == pytest.approx(0.0, abs=1e-15)
    assert j.partial(1, 1) == pytest.approx(1.0, abs=1e-15)
    assert j.partial(2, 0) == pytest.approx(0.0, abs=1e-15)


def test_exp_series():
    j = parse("exp(u)", ["u"]).eval_jet((0.0,), 3)[0]
    for k in range(4):
        assert j.partial(k) == pytest.approx(1.0, rel=1e-15)


def test_jets_need_a_variable():
    with pytest.raises(ValueError):
        parse("2", []).eval_jet((), 1)


def test_order_zero_returns_floats():
    out = parse(["t", "t^2"], ["t"]).eval_jet((3.0,), 0)
    assert out == [3.0, 9.0]


# ---------------------------------------------------------------------------
# domain errors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, point", [
    ("ln(t)", (-1.0,)),
    ("sqrt(t)", (-4.0,)),
    ("1/t", (0.0,)),
    ("t^0.5", (-2.0,)),
    ("asin(t)", (2.0,)),
    ("atan2(t-t, t)", (0.0,)),
    ("tan(t)", (math.pi / 2,)),           # cos(pi/2) is 6.1e-17, not 0
    ("exp(exp(100*t))", (1.0,)),          # overflow
    ("t^400", (1e10,)),                   # overflow in float pow, inf in jet products
    ("1e308*10*t", (1.0,)),               # a silent infinity
    ("sin(1e308*10*t)", (1.0,)),          # math's domain error on an infinity
])
def test_domain_errors(source, point):
    m = parse(source, ["t"])
    with pytest.raises(DomainError):
        m(*point)
    with pytest.raises(DomainError):
        m.eval_jet(point, 2)


@pytest.mark.parametrize("source", ["(" * 3000 + "t" + ")" * 3000, "+".join(["t"] * 3000),
                                    "-" * 3000 + "t", "sin(" * 3000 + "t" + ")" * 3000],
                         ids=["parentheses", "sum", "minus", "calls"])
def test_nesting_beyond_the_limit_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nested deeper"):
        parse(source, ["t"])


def test_nesting_up_to_the_limit_evaluates():
    m = parse("+".join(["t"] * (MAX_NESTING + 1)), ["t"])
    assert m(1.0) == [MAX_NESTING + 1.0]
    assert m.eval_jet((1.0,), 1)[0].partial(1) == MAX_NESTING + 1.0


def test_domain_error_reports_subexpression():
    m = parse("1 + ln(t-2)", ["t"])
    with pytest.raises(DomainError) as err:
        m.eval_jet((1.0,), 1)
    assert "ln" in str(err.value)
    assert err.value.offset == 4


# ---------------------------------------------------------------------------
# jets vs an exact finite-difference oracle on random polynomials
# ---------------------------------------------------------------------------

_NAMES = ("u", "v", "w")

# central stencils as (offset in steps, weight); divide by h^order
_STENCILS = {
    1: ((1, Fraction(1, 2)), (-1, Fraction(-1, 2))),
    2: ((1, 1), (0, -2), (-1, 1)),
    3: ((2, Fraction(1, 2)), (1, -1), (-1, 1), (-2, Fraction(-1, 2))),
}


def _multi_indices(nvars):
    """Exponent tuples of total degree <= 3."""
    return [p for p in itertools.product(range(4), repeat=nvars) if sum(p) <= 3]


def _random_poly(rng, nvars):
    """Random polynomial of total degree <= 3 with integer coefs."""
    terms = []
    for powers in _multi_indices(nvars):
        c = int(rng.integers(-4, 5))
        if c:
            terms.append((c, powers))
    if not terms:
        terms = [(1, (1,) + (0,) * (nvars - 1))]
    source = "+".join(f"({c})*" + "*".join(f"{x}^{e}" for x, e in zip(_NAMES, powers))
                      for c, powers in terms)
    return source, terms


def _poly_eval(terms, point) -> Fraction:
    total = Fraction(0)
    for c, powers in terms:
        term = Fraction(c)
        for x, e in zip(point, powers):
            term *= x ** e
        total += term
    return total


def _along(f, axis, order, h):
    def derivative(point):
        total = Fraction(0)
        for steps, weight in _STENCILS[order]:
            shifted = list(point)
            shifted[axis] += steps * h
            total += weight * f(tuple(shifted))
        return total / h ** order
    return derivative


def _fd_partial(terms, point, orders, h=Fraction(1, 100000)):
    """Exact-rational central differences, nested per variable.

    For polynomials of degree <= 3 the central stencils are exact.
    """
    f = lambda p: _poly_eval(terms, p)
    for axis, order in enumerate(orders):
        if order:
            f = _along(f, axis, order, h)
    return float(f(tuple(point)))


def test_jet_partials_match_finite_differences():
    rng = np.random.default_rng(7)
    for nvars in (1, 2, 3):
        for _ in range(20):
            source, terms = _random_poly(rng, nvars)
            m = parse(source, _NAMES[:nvars])
            point = [Fraction(int(rng.integers(-3, 4)), 2) for _ in range(nvars)]
            jet = m.eval_jet([float(x) for x in point], 3)[0]
            assert len(jet.coef) == len(_multi_indices(nvars))
            for orders in _multi_indices(nvars):
                expected = _fd_partial(terms, point, orders)
                got = jet.partial(*orders)
                assert got == pytest.approx(expected, rel=1e-6, abs=1e-9), \
                    f"{source} d^{orders} at {point}"


def _random_jet(rng, nvars=2, order=3):
    return Jet(nvars, order, [float(c) for c in rng.normal(size=_layout(nvars)[order])])


def test_jet_algebra_commutative_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = (_random_jet(rng) for _ in range(3))
        ab = a * b
        ba = b * a
        assert max(abs(x - y) for x, y in zip(ab.coef, ba.coef)) < 1e-13
        s1 = (a + b) + c
        s2 = a + (b + c)
        assert max(abs(x - y) for x, y in zip(s1.coef, s2.coef)) < 1e-13
        p1 = (a * b) * c
        p2 = a * (b * c)
        scale = max(map(abs, p1.coef)) + 1.0
        assert max(abs(x - y) for x, y in zip(p1.coef, p2.coef)) < 1e-13 * scale


def test_jet_atan2_derivatives():
    # d/dy atan2 = x/(x^2+y^2), d/dx atan2 = -y/(x^2+y^2)
    x0, y0 = 0.8, -1.3
    y = Jet.variable(y0, 0, 2, 2)
    x = Jet.variable(x0, 1, 2, 2)
    j = jet_atan2(y, x)
    r2 = x0 * x0 + y0 * y0
    assert j.value == pytest.approx(math.atan2(y0, x0), rel=1e-15)
    assert j.partial(1, 0) == pytest.approx(x0 / r2, rel=1e-12)
    assert j.partial(0, 1) == pytest.approx(-y0 / r2, rel=1e-12)


# ---------------------------------------------------------------------------
# unparse/parse roundtrip
# ---------------------------------------------------------------------------

_VARS = ("u", "v")
_CONSTS = {"k": 2.5}


def _ast_strategy():
    leaves = st.one_of(
        st.sampled_from(_VARS),
        st.just("k"),
        st.floats(min_value=0.0, max_value=9.5, allow_nan=False,
                  allow_infinity=False).map(lambda x: round(x, 3)).map(str),
    )

    def extend(children):
        unary = children.map(lambda s: f"-{s}" if not s.startswith("-") else f"-({s})")
        call = st.tuples(st.sampled_from(("sin", "cos", "exp", "tanh")), children) \
            .map(lambda t: f"{t[0]}({t[1]})")
        binop = st.tuples(children, st.sampled_from("+-*/^"), children) \
            .map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        return st.one_of(unary, call, binop)

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_ast_strategy())
def test_unparse_parse_roundtrip(source):
    try:
        m = parse(source, list(_VARS), _CONSTS)
    except ParseError:
        pytest.skip("generator produced an invalid source")
    text = [unparse(c) for c in m.components]
    m2 = parse(text, list(_VARS), _CONSTS)
    assert m2.components == m.components


# ---------------------------------------------------------------------------
# batches of points: the same numbers as one point at a time
# ---------------------------------------------------------------------------

_UNARY = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "exp",
          "ln", "sqrt", "abs")
# domain edges (0 for ln, sqrt and abs; +-1 for asin and acos; pi/2 for tan) and
# ordinary values
_EDGES = (0.0, -0.0, 1.0, -1.0, math.pi / 2, -math.pi / 2, 0.5, -0.3, 2.0, 1e-3, 7.25)


def _batch_source(names):
    leaves = st.one_of(st.sampled_from(names),
                       st.sampled_from(("0", "1", "2", "0.5", "3", "1.5", "pi")))

    def extend(children):
        call = st.tuples(st.sampled_from(_UNARY), children).map(lambda t: f"{t[0]}({t[1]})")
        atan2 = st.tuples(children, children).map(lambda t: f"atan2({t[0]}, {t[1]})")
        binop = st.tuples(children, st.sampled_from("+-*/^"), children) \
            .map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        neg = children.map(lambda s: f"-({s})")
        return st.one_of(call, atan2, binop, neg)

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def _batch_cases(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    sources = draw(st.lists(_batch_source(names), min_size=1, max_size=2))
    coordinate = st.one_of(st.sampled_from(_EDGES),
                           st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    points = draw(st.lists(st.tuples(*[coordinate] * len(names)), min_size=1, max_size=9))
    return names, sources, points, draw(st.integers(0, 3))


def _numbers(values):
    """Per component, its numbers (value, or every jet coefficient) as a list."""
    return [list(v.coef) if isinstance(v, Jet) else [v] for v in values]


def _bits(x) -> int:
    return np.float64(x).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(_batch_cases())
def test_batch_matches_pointwise_evaluation(case):
    names, sources, points, order = case
    m = parse(sources, list(names))
    columns = tuple(np.array(c) for c in zip(*points))
    try:
        with np.errstate(all="ignore"):
            batch = _numbers(m.eval_jet(columns, order))
    except DomainError:  # a failure of the whole batch marks every point
        batch = None
    for k, point in enumerate(points):
        try:
            single = _numbers(m.eval_jet(point, order))
        except DomainError:
            single = None
        if batch is None:
            continue
        at_k = [[np.broadcast_to(c, len(points))[k] for c in comp] for comp in batch]
        marked = any(math.isnan(c) for comp in at_k for c in comp)
        if single is None:
            assert marked, (sources, point, order)
        elif not marked:
            assert [[_bits(c) for c in comp] for comp in at_k] == \
                [[_bits(c) for c in comp] for comp in single], (sources, point, order)
