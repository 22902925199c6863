"""Parser and jet-evaluation tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensorgeom.expr as expr
from tensorgeom.expr import (MAX_NESTING, ArityMismatch, DomainError, Jet, ParseError,
                             UnknownIdentifier, _PARTIAL, _layout, derivatives, jet_atan2,
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
    """A map of ``_program_source`` at a point or on a batch with marked points
    (``_program_cases``), and the exponent rows asked of it."""
    names, sources, point, _ = draw(_program_cases())
    order = draw(st.integers(1, 3))
    exponents = [p for p in itertools.product(range(order + 1), repeat=len(names))
                 if sum(p) <= order]
    powers = draw(st.lists(st.sampled_from(exponents), min_size=1, max_size=6)
                  .filter(lambda ps: max(map(sum, ps)) >= 1))
    return names, sources, point, powers


def _typed_bits(x):
    return type(x).__name__, np.asarray(x, dtype=float).view(np.int64).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_derivative_cases())
def test_derivatives_equal_jet_partial_bit_for_bit(case):
    names, sources, point, powers = case
    m = parse(sources, list(names), {"k": 1.25})
    batch = np.broadcast_shapes(*map(np.shape, point))
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _walked(m, point, max(map(sum, powers))))
        try:
            D = derivatives(m, point, powers)
        except DomainError as err:  # the walk's error, with its message, expression and offset
            assert want == (type(err).__name__, str(err), err.expression, err.offset), sources
            return
        jets = _walked(m, point, max(map(sum, powers)))
    # one program, compiled for these powers at their largest total degree
    assert list(m._programs) == [tuple(powers)]
    assert [len(row) for row in D] == [len(jets)] * len(powers)
    for r, p in enumerate(powers):
        for c, j in enumerate(jets):
            # a float at one point; on a batch an array, or a float the same everywhere
            assert type(D[r][c]) is float if not batch else np.shape(D[r][c]) in ((), batch)
            assert _typed_bits(D[r][c]) == _typed_bits(j.partial(*p)), (sources, point, p)


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
    index = {p: k for p, (k, _) in _PARTIAL[a.nvars].items()}
    powers = sorted(index, key=index.get)
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


def _composed(monkeypatch) -> list:
    """The calls of the rules of the jet sin and cos, each one composition, as
    they happen."""
    calls = []
    for name in ("_dsin", "_dcos"):
        f = getattr(expr, name)
        monkeypatch.setattr(expr, name, lambda a0, f=f: calls.append(a0) or f(a0))
    return calls


def test_shared_subtree_is_composed_once_per_call(monkeypatch):
    calls = _composed(monkeypatch)
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
    calls = _composed(monkeypatch)
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


# ---------------------------------------------------------------------------
# compiled programs against the AST walk they replaced
# ---------------------------------------------------------------------------

def _walk(node, env, memo):
    """The AST walk that evaluated maps before they were compiled, kept as the
    reference: floats and jets mixed, each operation node once per call."""
    if isinstance(node, expr.Var):
        return env[node.index]
    if isinstance(node, (expr.Num, expr.ConstRef)):
        return node.value
    value = memo.get(id(node))
    if value is None:
        value = memo[id(node)] = _walk_operation(node, env, memo)
    return value


def _walk_operation(node, env, memo):
    try:
        if isinstance(node, expr.Neg):
            return -_walk(node.operand, env, memo)
        if isinstance(node, expr.BinOp):
            a = _walk(node.left, env, memo)
            b = _walk(node.right, env, memo)
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
                return a / expr._check(b == 0.0, lambda: DomainError("division by zero"), b)
            if isinstance(a, Jet):
                return a ** b
            if isinstance(b, Jet):
                if a <= 0.0:
                    raise DomainError("jet exponent needs a positive base")
                return (b * math.log(a)).exp()
            return expr._map(expr._real_pow, a, b)
        if isinstance(node, expr.Call):
            args = [_walk(a, env, memo) for a in node.args]
            if node.func == "atan2":
                return jet_atan2(args[0], args[1])
            a = args[0]
            if isinstance(a, Jet):
                return getattr(a, node.func)()
            return expr._map(expr._FLOAT_FUNCS[node.func], a)
    except (ArithmeticError, ValueError) as err:
        if isinstance(err, DomainError) and err.expression is not None:
            raise
        reason = err.reason if isinstance(err, DomainError) else (
            "overflow" if isinstance(err, OverflowError) else str(err))
        raise DomainError(reason, unparse(node), node.span[0]) from None
    raise TypeError(f"not an AST node: {node!r}")


def _walk_finite(value, node):
    nums = value.coef if isinstance(value, Jet) else [value]
    if type(nums[0]) is not np.ndarray:
        if not all(map(math.isfinite, nums)):
            raise DomainError("non-finite value", unparse(node), node.span[0])
        return value
    if not all(math.isfinite(c) for c in nums if type(c) is not np.ndarray):
        raise DomainError("non-finite value", unparse(node), node.span[0])
    bad = np.logical_not(np.logical_and.reduce([np.isfinite(c) for c in nums
                                                if type(c) is np.ndarray]))
    nums = [expr._check(bad, None, c) for c in nums]
    return Jet(value.nvars, value.order, nums) if isinstance(value, Jet) else nums[0]


def _walked(m, point, order):
    """``m.eval_jet(point, order)`` by the AST walk."""
    point = tuple(map(expr._num, point))
    memo = {}
    if order == 0:
        out = [_walk_finite(_walk(c, list(point), memo), c) for c in m.components]
        return expr._spread(out, point) if np.ndarray in map(type, point) else out
    env = [Jet.variable(p, k, m.arity, order) for k, p in enumerate(point)]
    out = []
    for comp in m.components:
        value = _walk_finite(_walk(comp, env, memo), comp)
        if not isinstance(value, Jet):
            value = Jet.constant(expr._spread([value], point)[0], m.arity, order)
        out.append(value)
    return out


def _outcome(evaluate):
    """What an evaluation gives: per component its numbers, each as its type
    and bits, or the error it raises with its message, expression and offset."""
    try:
        with np.errstate(all="ignore"):
            values = evaluate()
    except Exception as err:  # any error, which must be the same on both sides
        return (type(err).__name__, str(err), getattr(err, "expression", None),
                getattr(err, "offset", None))
    return [[(type(c).__name__, np.asarray(c, dtype=float).view(np.int64).tolist())
             for c in comp] for comp in _numbers(values)]


_EXPONENTS = ("2", "3", "-1", "0", "-2", "7", "0.5", "1.5", "-0.5", "2.25")


def _program_source(names, shared):
    """Expressions over every node kind: the 13 one-argument builtins, atan2,
    the four operators, ``^`` with integer, real and jet exponents, unary
    minus, subtrees of constants alone (k, pi and the numbers), and
    ``shared``, which a map's components then have in common."""
    leaves = st.one_of(st.sampled_from(names), st.sampled_from(("k", "pi", "0", "1", "2", "0.5")),
                       st.just(f"({shared})") if shared else st.nothing())

    def extend(children):
        call = st.tuples(st.sampled_from(_UNARY), children).map(lambda t: f"{t[0]}({t[1]})")
        atan2 = st.tuples(children, children).map(lambda t: f"atan2({t[0]}, {t[1]})")
        binop = st.tuples(children, st.sampled_from("+-*/^"), children) \
            .map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        power = st.tuples(children, st.sampled_from(_EXPONENTS)) \
            .map(lambda t: f"({t[0]})^{t[1]}")
        neg = children.map(lambda s: f"-({s})")
        return st.one_of(call, atan2, binop, power, neg)

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _program_cases(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    shared = draw(_program_source(names, None))
    sources = draw(st.lists(_program_source(names, shared), min_size=1, max_size=3))
    coordinate = st.one_of(st.sampled_from(_EDGES),
                           st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        point = draw(st.tuples(*[coordinate] * len(names)))
    else:  # a batch, some of its points marked NaN
        rows = draw(st.lists(st.tuples(*[st.one_of(coordinate, st.just(math.nan))] * len(names)),
                             min_size=1, max_size=6))
        point = tuple(np.array(c) for c in zip(*rows))
        if draw(st.booleans()):  # a batch that mixes float and array coordinates
            point = tuple(draw(coordinate) if draw(st.booleans()) else c for c in point)
    return names, sources, point, draw(st.integers(0, 3))


@settings(max_examples=400, deadline=None)
@given(_program_cases())
# a jet product's factors in their order; operands and components in theirs,
# as the first of two failures shows; marked points on a batch
@example((("x", "y"), ["(sin(x)+y)*(exp(y)*x)"], (0.55, -0.92), 3))
@example((("x",), ["ln(x-2) + sqrt(x-3)"], (1.0,), 2))
@example((("x", "y"), ["y", "1/(x-x)", "ln(x)"], (-1.0, 1.0), 0))
@example((("x",), ["ln(x)*x^0.5", "atan2(x, 0)"], (np.array([1.0, math.nan, -1.0, 0.0]),), 2))
# signed zeros in the slots no operation can make nonzero, which the program
# leaves out, and a sum of them; a batch whose NaN mark used to reach such a slot
@example((("x", "y"), ["-sin(x)", "(0-k)*cos(y)", "-sin(x) + (0-k)*cos(y) + (x - x)*y"],
          (0.5, -0.0), 3))
@example((("x", "y"), ["x - x", "(x - x)*sin(y) - cos(x)"], (-0.0, 0.25), 3))
@example((("x", "y"), ["sin(x)*ln(y)"], (np.array([0.5, 1.0, -0.3]), np.array([1.0, -1.0, 0.0])), 2))
# a Horner step of the composition overflows (c_3 h^3 of sqrt near 0): only
# the term with h's value 0.0 carries that to the result
@example((("x",), ["-(((sqrt(x)))^0.5)"], (np.array([4.13096977e-113]),), 3))
# a batch of float and array coordinates: the program leaves the x slot's
# 0.0 * x out, so only the component's check makes that slot an array
@example((("x", "y"), ["cos(y)*x"], (np.array([0.5, 1.0]), 0.3), 3))
def test_compiled_program_matches_the_ast_walk(case):
    names, sources, point, order = case
    m = parse(sources, list(names), {"k": 1.25})
    want = _outcome(lambda: _walked(m, point, order))
    assert _outcome(lambda: m.eval_jet(point, order)) == want, (sources, point, order)
    if order == 0:
        assert _outcome(lambda: m(*point)) == want, (sources, point)


def test_each_map_compiles_each_order_once(monkeypatch):
    compiled = []
    compile_map = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda m, key: compiled.append((m, key)) or compile_map(m, key))
    a, b = (parse("k*sin(x)", ["x"], {"k": k}) for k in (2.0, 3.0))
    x = Jet.variable(0.5, 0, 1, 2)
    for _ in range(2):
        for m, k in ((a, 2.0), (b, 3.0)):
            assert m.eval_jet((0.5,), 2)[0].coef == (x.sin() * k).coef
        assert a(0.5) == a.eval_jet((0.5,), 0) == [2.0 * math.sin(0.5)]
        assert derivatives(a, (0.5,), ((1,), (2,))) == [[(x.sin() * 2.0).partial(n)] for n in (1, 2)]
    # a map of the same shape has its own programs, with its own constants;
    # derivative rows have one per tuple of powers
    assert compiled == [(a, 2), (b, 2), (a, 0), (a, ((1,), (2,)))]
    assert compiled[0][0] is a and compiled[1][0] is b


def test_a_map_parsed_again_reuses_its_code_and_names_its_own_nodes():
    """Maps that write the same program share its code; an error still names
    the node, and the offset, of the map that raised it."""
    a, b, c = (parse(text, ["t"]) for text in ("1 + ln(t-2)", "1 + ln(t-2)", "   1 + ln(t-2)"))
    for m, offset in ((a, 4), (b, 4), (c, 7)):
        assert m.eval_jet((3.0,), 1)[0].coef == [1.0, 1.0]
        with pytest.raises(DomainError) as err:
            m.eval_jet((1.0,), 1)
        assert (err.value.expression, err.value.offset) == ("ln(t-2.0)", offset)
    assert a._programs[1] is not b._programs[1]
    assert a._programs[1][0].__code__ is b._programs[1][0].__code__ is c._programs[1][0].__code__


def test_compiled_program_at_the_nesting_limit_matches_the_ast_walk():
    wrappers = ("sin({})", "({})*x", "-{}", "atan({})", "({})^2", "cosh({})")  # a level each
    source = "x"
    for level in range(MAX_NESTING):
        source = wrappers[level % len(wrappers)].format(source)
    with pytest.raises(ParseError, match="nested deeper"):
        parse(f"-{source}", ["x"])
    m = parse([source, f"{source} - x^2"], ["x"])
    for point in [(0.7,), (np.array([0.7, -0.4, math.nan, 2.0]),)]:
        for order in range(4):
            want = _outcome(lambda: _walked(m, point, order))
            assert isinstance(want, list)
            assert _outcome(lambda: m.eval_jet(point, order)) == want, (point, order)
