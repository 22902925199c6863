"""Parser and jet-evaluation tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgeom.expr import (MAX_NESTING, ArityMismatch, DomainError, Jet, ParseError,
                             UnknownIdentifier, _INDEX, _POWERS, _layout, derivatives, jet_atan2,
                             parse, unparse)


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


@st.composite
def _derivative_cases(draw):
    nvars, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = draw(st.integers(1, 4)) if draw(st.booleans()) else None  # None: one point

    def number(batch: bool):
        if not batch:
            return draw(_SMALL)
        return np.array(draw(st.lists(st.one_of(_SMALL, st.just(math.nan)),
                                      min_size=size, max_size=size)))

    def jet():
        # on a batch the value is an array, as eval_jet gives it; others may be floats
        coef = [number(size is not None and (k == 0 or draw(st.booleans())))
                for k in range(_layout(nvars)[order])]
        return Jet(nvars, order, coef)

    exponents = [p for p in itertools.product(range(order + 1), repeat=nvars) if sum(p) <= order]
    powers = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=6))
    return [jet() for _ in range(draw(st.integers(1, 3)))], powers, size


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_derivative_cases())
def test_derivatives_equal_jet_partial_bit_for_bit(case):
    jets, powers, size = case
    D = derivatives(jets, powers)
    assert D.shape == (() if size is None else (size,)) + (len(powers), len(jets))
    for r, p in enumerate(powers):
        for c, j in enumerate(jets):
            want = np.broadcast_to(np.asarray(j.partial(*p), dtype=float), D.shape[:-2])
            assert np.array_equal(D[..., r, c].view(np.int64), want.view(np.int64)), (p, j.coef)


# ---------------------------------------------------------------------------
# composition from the jet's order, and shared subtrees evaluated once
# ---------------------------------------------------------------------------

def _cubic_horner(jet, f0, f1, f2, f3):
    """f(jet) by the full cubic Horner scheme: three jet products at every order."""
    h = Jet(jet.nvars, jet.order, jet.coef.copy())
    h.coef[0] = 0.0
    out = Jet.constant(f3 / 6.0, jet.nvars, jet.order)
    for c in (f2 / 2.0, f1, f0):
        out = out * h + c
    return out


# magnitudes whose products cannot overflow: where the truncated terms of the
# cubic scheme overflow it is non-finite, and the order-aware one is not
_SMALL = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300)),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _compose_cases(draw):
    nvars, order = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    size = draw(st.integers(1, 4))

    def number():
        if draw(st.booleans()):  # one value for the batch
            return draw(_SMALL)
        # an array over the batch, NaN at its marked points
        return np.array(draw(st.lists(st.one_of(_SMALL, st.just(math.nan)),
                                      min_size=size, max_size=size)))

    coef = [number() for _ in range(_layout(nvars)[order])]
    return Jet(nvars, order, coef), [number() for _ in range(4)], size


def _same(a, b, size) -> bool:
    """Bit for bit where either is finite; non-finite (a mark) at the same points."""
    a, b = np.broadcast_to(a, size), np.broadcast_to(b, size)
    finite = np.isfinite(a)
    return bool(np.array_equal(finite, np.isfinite(b))
                and np.array_equal(a[finite].view(np.int64), b[finite].view(np.int64)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_compose_cases())
def test_order_aware_compose_matches_cubic_horner(case):
    jet, fs, size = case
    with np.errstate(all="ignore"):
        got, want = jet.compose(*fs).coef, _cubic_horner(jet, *fs).coef
    assert all(_same(a, b, size) for a, b in zip(got, want)), (jet.coef, fs)


def _pair_loop_product(a: Jet, b: Jet) -> list:
    """The jet product as nested loops over each slot's exponent pairs, summed
    from 0.0 in the graded order of the first factor's exponents."""
    powers, index = _POWERS[a.nvars], _INDEX[a.nvars]
    out = []
    for target in powers[:len(a.coef)]:
        acc = 0.0
        for i, p in enumerate(powers[:len(a.coef)]):
            rem = tuple(t - e for t, e in zip(target, p))
            if min(rem) >= 0:
                acc += a.coef[i] * b.coef[index[rem]]
        out.append(acc)
    return out


@st.composite
def _product_cases(draw):
    nvars, order, size = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    # a coefficient is one value for the batch, or an array over it with NaN marks
    number = st.one_of(_SMALL, st.lists(st.one_of(_SMALL, st.just(math.nan)), min_size=size,
                                        max_size=size).map(np.array))
    n = _layout(nvars)[order]
    a, b = (Jet(nvars, order, draw(st.lists(number, min_size=n, max_size=n))) for _ in "ab")
    return a, b, size


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_product_cases())
def test_straight_line_product_matches_the_pair_loop(case):
    a, b, size = case
    with np.errstate(all="ignore"):
        got, want = (a * b).coef, _pair_loop_product(a, b)
    assert all(_same(x, y, size) for x, y in zip(got, want)), (a.coef, b.coef)


def _square_and_multiply(x, n):
    """x^n from Jet.constant(1.0), a full product for each factor."""
    out, base = Jet.constant(1.0, x.nvars, x.order), x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def test_integer_power_starting_from_the_base_keeps_the_bits():
    x = Jet.variable(-0.7, 0, 2, 3) * 1.3 + Jet.variable(0.2, 1, 2, 3)
    x.coef[4] = -0.0  # 0.0 + -0.0 is 0.0, as in the product with Jet.constant(1.0)
    for n in range(1, 12):
        want = _square_and_multiply(x, n)
        assert [_bits(c) for c in (x ** float(n)).coef] == [_bits(c) for c in want.coef]
    marked = Jet.variable(np.array([1.5, math.nan]), 0, 1, 2)
    assert np.isnan((marked ** 0.0).value[1]) and (marked ** 0.0).value[0] == 1.0


def test_shared_subtree_is_composed_once_per_call(monkeypatch):
    calls = []
    compose = Jet.compose
    monkeypatch.setattr(Jet, "compose", lambda self, *f: calls.append(f) or compose(self, *f))
    m = parse(["v*cos(u)", "cos(u) + 1", "sin(cos(u))"], ["u", "v"])
    assert m.components[0].right is m.components[1].left
    for _ in range(2):
        calls.clear()
        jets = m.eval_jet((0.3, 0.4), 2)
        assert len(calls) == 2  # cos(u) and sin(.)
    assert jets[1].partial(1, 0) == -math.sin(0.3)


@pytest.mark.parametrize("sources, point", [
    (["u + ln(v)", "2*ln(v)"], (1.0, -1.0)),
    (["u", "1 + ln( v )", "ln(v) * u"], (1.0, -1.0)),
    (["sqrt(u - v) + v", "u*sqrt(u-v)", "u"], (0.0, 1.0)),
])
def test_error_in_a_shared_subtree_names_its_first_occurrence(sources, point):
    """The same expression and offset as evaluating each component on its own."""
    def error(call):
        with pytest.raises(DomainError) as err:
            call()
        return err.value.expression, err.value.offset

    shared = parse(sources, ["u", "v"])
    first = next(s for s in sources if not _evaluates(s, point))
    alone = parse(first, ["u", "v"])
    for order in (0, 2):
        assert error(lambda: shared.eval_jet(point, order)) == \
            error(lambda: alone.eval_jet(point, order))


def _evaluates(source, point) -> bool:
    try:
        parse(source, ["u", "v"])(*point)
        return True
    except DomainError:
        return False


# ---------------------------------------------------------------------------
# composition by substitution
# ---------------------------------------------------------------------------

def _all_bits(values) -> list:
    return [np.asarray(c, dtype=float).view(np.int64).tolist() for v in _numbers(values) for c in v]


def test_compose_equals_parsing_the_substituted_text():
    outer = parse(["x*y + a*sin(x)", "exp(y)/x", "x^2 - atan2(y, x)"], ["x", "y"], {"a": 2.0})
    inner = parse(["u+v*b", "u*v"], ["u", "v"], {"b": 0.5, "a": 2.0})
    composed = outer.compose(inner)
    written = parse(["(u+v*b)*(u*v) + a*sin(u+v*b)", "exp(u*v)/(u+v*b)",
                     "(u+v*b)^2 - atan2(u*v, u+v*b)"], ["u", "v"], {"a": 2.0, "b": 0.5})
    assert composed.variables == ("u", "v")
    assert composed.constants == written.constants == (("a", 2.0), ("b", 0.5))
    assert composed.components == written.components
    us, vs = np.linspace(0.2, 1.5, 5), np.linspace(-1.0, 0.9, 5)
    for point in [(0.3, 0.7), (1.2, -0.4), (us, vs)]:
        for order in range(4):
            assert _all_bits(composed.eval_jet(point, order)) == \
                _all_bits(written.eval_jet(point, order))
        assert _all_bits(composed(*point)) == _all_bits(written(*point))


def test_compose_evaluates_a_repeated_component_once(monkeypatch):
    calls = []
    compose = Jet.compose
    monkeypatch.setattr(Jet, "compose", lambda self, *f: calls.append(f) or compose(self, *f))
    m = parse(["r*cos(v)", "r*sin(v)", "h"], ["r", "h", "v"]).compose(
        parse(["3+cos(u)", "sin(u)", "v"], ["u", "v"]))
    assert m.components[0].left is m.components[1].left
    m.eval_jet((0.3, 0.4), 2)
    assert len(calls) == 4  # cos(u) once, cos(v), sin(v), sin(u)


def test_compose_needs_one_component_per_variable():
    with pytest.raises(ValueError, match="3 components for 2 variables"):
        parse("x*y", ["x", "y"]).compose(parse(["u", "v", "u*v"], ["u", "v"]))


def test_compose_rejects_a_constant_bound_twice():
    with pytest.raises(ValueError, match="'a' bound to both 2.0 and 1.0"):
        parse("a*x", ["x"], {"a": 1.0}).compose(parse("a+u", ["u"], {"a": 2.0}))


def test_error_in_a_substituted_component_names_its_text():
    m = parse(["x + y", "x*y"], ["x", "y"]).compose(parse(["v", "2*ln(u)"], ["u", "v"]))
    for order in (0, 2):
        with pytest.raises(DomainError) as err:
            m.eval_jet((-1.0, 1.0), order)
        assert (err.value.expression, err.value.offset) == ("ln(u)", 2)
