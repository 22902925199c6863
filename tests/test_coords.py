"""Curvilinear-coordinate calculus tests."""

import math

import numpy as np
import pytest

from tensorgeom import coords as co
from tensorgeom.expr import ExprMap, parse

rng = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# metric tensors
# ---------------------------------------------------------------------------

def test_cartesian_metric_is_identity():
    met = co.metric_at(co.cartesian_map(), (0.4, -1.0, 2.0))
    assert np.allclose(met.cov, np.eye(3), atol=1e-14)
    assert np.allclose(met.con, np.eye(3), atol=1e-14)


def test_polar_metric():
    r = 1.7
    met = co.metric_at(co.polar_map(), (r, 0.6))
    assert np.allclose(met.cov, np.diag([1.0, r * r]), atol=1e-13)
    # tangent to the radial line is a unit vector, the angular one has norm r
    assert np.linalg.norm(met.tangent[:, 0]) == pytest.approx(1.0, rel=1e-13)
    assert np.linalg.norm(met.tangent[:, 1]) == pytest.approx(r, rel=1e-13)


def test_cylindrical_metric_fd_oracle():
    # direct-differentiation oracle: numerical Jacobian -> J^T J
    chart = co.cylindrical_map()
    z = (1.3, 0.8, -0.5)
    h = 1e-6
    J = np.empty((3, 3))
    for k in range(3):
        zp, zm = list(z), list(z)
        zp[k] += h
        zm[k] -= h
        J[:, k] = (np.array(chart.map(*zp)) - np.array(chart.map(*zm))) / (2 * h)
    met = co.metric_at(chart, z)
    assert np.allclose(met.cov, J.T @ J, atol=1e-8)
    assert np.allclose(met.cov, np.diag([1.0, z[0] ** 2, 1.0]), atol=1e-12)


def test_dual_basis_orthogonality():
    chart = co.spherical_map()
    met = co.metric_at(chart, (2.0, 1.1, 0.4))
    for h in range(3):
        for k in range(3):
            expected = 1.0 if h == k else 0.0
            assert np.dot(met.dual[h], met.tangent[:, k]) == pytest.approx(
                expected, abs=1e-12)
    assert np.allclose(met.con @ met.cov, np.eye(3), atol=1e-12)


def test_line_element():
    chart = co.polar_map()
    z = (2.0, 0.4)
    met = co.metric_at(chart, z)
    dz = np.array([1e-4, -2e-4])
    x0 = np.array(chart.map(*z))
    x1 = np.array(chart.map(*(np.array(z) + dz)))
    assert met.line_element_sq(dz) == pytest.approx(float(np.sum((x1 - x0) ** 2)),
                                                    rel=1e-3)


def test_degenerate_jacobian():
    with pytest.raises(co.DegenerateJacobian):
        co.metric_at(co.polar_map(), (0.0, 0.3))


# ---------------------------------------------------------------------------
# index gymnastics
# ---------------------------------------------------------------------------

def test_cartesian_components_coincide():
    met = co.metric_at(co.cartesian_map(), (0.1, 0.2, 0.3))
    v = rng.normal(size=3)
    assert np.allclose(co.raise_lower(v, met, "down"), v)
    assert np.allclose(co.raise_lower(v, met, "up"), v)


def test_polar_lowering():
    met = co.metric_at(co.polar_map(), (2.0, 0.9))
    assert np.allclose(co.raise_lower([1.0, 1.0], met, "down"), [1.0, 4.0],
                       atol=1e-12)


def test_roundtrip_and_norm_agreement():
    met = co.metric_at(co.spherical_map(), (1.5, 0.9, -0.3))
    v = rng.normal(size=3)
    vd = co.raise_lower(v, met, "down")
    assert np.allclose(co.raise_lower(vd, met, "up"), v, atol=1e-12)
    n1 = math.sqrt(float(vd @ met.con @ vd))
    n2 = math.sqrt(float(v @ met.cov @ v))
    n3 = math.sqrt(float(np.dot(v, vd)))
    assert n1 == pytest.approx(n2, rel=1e-12)
    assert n2 == pytest.approx(n3, rel=1e-12)


def test_mixed_components_matrix_oracle():
    met = co.metric_at(co.polar_map(), (1.4, 0.2))
    L = rng.normal(size=(2, 2))
    assert np.allclose(co.raise_lower(L, met, "mixed_from_co"), met.con @ L)
    Lc = co.raise_lower(L, met, "up_up")
    assert np.allclose(co.raise_lower(Lc, met, "down_down"), L, atol=1e-12)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

def test_cartesian_connection_vanishes():
    gamma = co.christoffel(co.cartesian_map(), (0.3, 0.1, -0.9))
    assert np.max(np.abs(gamma)) < 1e-14


def test_polar_connection_values():
    # hand oracle from g = diag(1, r^2): only r-theta entries survive
    r = 1.9
    gamma = co.christoffel(co.polar_map(), (r, 0.7), "metric_derivative")
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -r
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0 / r
    assert np.allclose(gamma, expected, atol=1e-10)


@pytest.mark.parametrize("chart_factory, z", [
    (co.polar_map, (1.3, 0.5)),
    (co.cylindrical_map, (0.9, -0.4, 2.0)),
    (co.spherical_map, (1.8, 1.0, 0.7)),
    (lambda: co.oblique_map(0.2, 1.1), (0.5, -0.8)),
])
def test_connection_methods_agree(chart_factory, z):
    chart = chart_factory()
    g1 = co.christoffel(chart, z, "second_derivative")
    g2 = co.christoffel(chart, z, "metric_derivative")
    assert np.max(np.abs(g1 - g2)) < 1e-8
    # symmetry in the lower pair
    assert np.max(np.abs(g1 - np.transpose(g1, (0, 2, 1)))) < 1e-13


# ---------------------------------------------------------------------------
# covariant derivatives
# ---------------------------------------------------------------------------

def test_cartesian_covariant_derivative_is_plain_partials():
    chart = co.cartesian_map()
    field = parse(["z1*z2", "z3^2", "z1+z2"], ["z1", "z2", "z3"])
    z = (0.4, -0.7, 1.1)
    D = co.covariant_derivative(field, chart, z, "contra")
    expected = np.array([[z[1], z[0], 0.0],
                         [0.0, 0.0, 2 * z[2]],
                         [1.0, 1.0, 0.0]])
    assert np.allclose(D, expected, atol=1e-12)


# the covariant and contravariant metric of a chart, as fields over it
_METRIC_FIELDS = {
    co.polar_map: (["1", "0", "0", "r^2"], ["1", "0", "0", "1/r^2"]),
    co.spherical_map: (["1", "0", "0", "0", "r^2", "0", "0", "0", "(r*sin(p))^2"],
                       ["1", "0", "0", "0", "1/r^2", "0", "0", "0", "1/(r*sin(p))^2"]),
}


@pytest.mark.parametrize("chart_factory, z", [
    (co.polar_map, (1.4, 0.9)),
    (co.spherical_map, (2.0, 0.8, -0.5)),
])
def test_ricci_lemma(chart_factory, z):
    # the covariant derivative of the metric itself vanishes
    chart = chart_factory()
    g_cov, g_con = (parse(g, chart.map.variables) for g in _METRIC_FIELDS[chart_factory])
    met = co.metric_at(chart, z)
    assert np.allclose(np.reshape(g_cov(*z), met.cov.shape), met.cov, rtol=1e-14, atol=1e-14)
    assert np.allclose(np.reshape(g_con(*z), met.con.shape), met.con, rtol=1e-14, atol=1e-14)
    D_co = co.covariant_derivative(g_cov, chart, z, "tensor_co")
    D_con = co.covariant_derivative(g_con, chart, z, "tensor_contra")
    assert np.max(np.abs(D_co)) < 1e-13
    assert np.max(np.abs(D_con)) < 1e-13


def test_constant_cartesian_vector_in_polar():
    # push a constant Cartesian field into polar contravariant components:
    # v^i = dual_i . v; its covariant derivative must vanish identically
    chart = co.polar_map()
    v_cart = np.array([0.7, -0.3])
    field = parse(["0.7*cos(t) - 0.3*sin(t)", "(-0.7*sin(t) - 0.3*cos(t))/r"], ["r", "t"])
    for z in [(1.0, 0.3), (2.5, -1.2)]:
        assert np.allclose(field(*z), co.metric_at(chart, z).dual @ v_cart,
                           rtol=1e-14, atol=1e-14)
        D = co.covariant_derivative(field, chart, z, "contra")
        assert np.max(np.abs(D)) < 1e-13


def test_divergence_matches_cartesian_pushforward():
    chart = co.polar_map()
    # contravariant components of the field whose Cartesian form is
    # (x1^2, x1 x2): v^i = dz^i/dx_k v^x_k
    v_cart_src = parse(["z1^2", "z1*z2"], ["z1", "z2"])
    x1, x2 = "(r*cos(t))", "(r*sin(t))"
    field = parse([f"cos(t)*{x1}^2 + sin(t)*{x1}*{x2}",
                   f"(-sin(t)*{x1}^2 + cos(t)*{x1}*{x2})/r"], ["r", "t"])
    z = (1.3, 0.7)
    x = chart.map(*z)
    assert np.allclose(field(*z), co.metric_at(chart, z).dual @ v_cart_src(*x),
                       rtol=1e-14, atol=1e-14)
    div_chart = co.divergence_from_chart(field, chart, z)
    # Cartesian divergence of (x1^2, x1 x2) is 2 x1 + x1 = 3 x1
    assert div_chart == pytest.approx(3.0 * x[0], rel=1e-13)


def test_a_field_that_is_not_an_expr_map_is_rejected():
    chart = co.polar_map()
    with pytest.raises(ValueError, match="ExprMap"):
        co.covariant_derivative(lambda z: [1.0, 0.0], chart, (1.0, 0.3), "contra")
    with pytest.raises(ValueError, match="ExprMap"):
        co.divergence_from_chart(parse(["1", "0", "0"], ["z1", "z2", "z3"]), chart, (1.0, 0.3))


# ---------------------------------------------------------------------------
# closed-form differential operators
# ---------------------------------------------------------------------------

def test_cylindrical_laplacian_of_r_squared():
    field = parse("rho^2", ["rho", "t", "z"])
    for point in [(0.5, 0.3, 0.0), (2.0, -1.0, 3.0)]:
        assert co.diff_ops("cylindrical", "scalar", "laplacian", field, point) \
            == pytest.approx(4.0, rel=1e-12)


def test_cylindrical_divergence_of_radial_field():
    field = parse(["rho", "0*rho", "0*rho"], ["rho", "t", "z"])
    assert co.diff_ops("cylindrical", "vector", "div", field, (1.3, 0.4, 0.2)) \
        == pytest.approx(2.0, rel=1e-12)


def test_spherical_laplacian_of_inverse_r():
    field = parse("1/r", ["r", "p", "t"])
    for point in [(0.7, 1.0, 0.3), (3.0, 2.0, -1.0)]:
        assert abs(co.diff_ops("spherical", "scalar", "laplacian", field, point)) < 1e-11


def test_coordinate_singularity_guard():
    field = parse("rho^2", ["rho", "t", "z"])
    with pytest.raises(co.CoordinateSingularity):
        co.diff_ops("cylindrical", "scalar", "laplacian", field, (0.0, 0.1, 0.2))
    sfield = parse("r", ["r", "p", "t"])
    with pytest.raises(co.CoordinateSingularity):
        co.diff_ops("spherical", "scalar", "grad", sfield, (1.0, 0.0, 0.2))


def _cyl_point_of(x):
    rho = math.hypot(x[0], x[1])
    return (rho, math.atan2(x[1], x[0]), x[2])


def test_cross_system_laplacian_consistency():
    # scalar field defined in Cartesian coordinates, pushed into cylindrical
    f_cart = parse("x1^2*x2 + x3^2 - x1*x3", ["x1", "x2", "x3"])
    f_cyl = parse("(rho*cos(t))^2*(rho*sin(t)) + z^2 - (rho*cos(t))*z",
                  ["rho", "t", "z"])
    for x in [(0.8, 0.3, -0.5), (1.5, -0.7, 0.2)]:
        lap_cart = co.diff_ops("cartesian", "scalar", "laplacian", f_cart, x)
        lap_cyl = co.diff_ops("cylindrical", "scalar", "laplacian", f_cyl,
                              _cyl_point_of(x))
        assert lap_cyl == pytest.approx(lap_cart, rel=1e-8)


def test_curvilinear_laplacian_matches_closed_forms():
    f_cyl = parse("rho^2*sin(t) + z^2*rho", ["rho", "t", "z"])
    point = (1.2, 0.5, -0.8)
    closed = co.diff_ops("cylindrical", "scalar", "laplacian", f_cyl, point)
    general = co.laplacian_curvilinear(f_cyl, co.cylindrical_map(), point)
    assert general == pytest.approx(closed, rel=1e-8)

    f_sph = parse("r^2*cos(p) + r*sin(p)*cos(t)", ["r", "p", "t"])
    point = (1.4, 0.9, 0.3)
    closed = co.diff_ops("spherical", "scalar", "laplacian", f_sph, point)
    general = co.laplacian_curvilinear(f_sph, co.spherical_map(), point)
    assert general == pytest.approx(closed, rel=1e-8)


def test_one_jet_evaluation_per_map_per_point(monkeypatch):
    calls = []
    run_program = ExprMap._run

    def counted(self, key, point):  # the jets and derivative rows, not the values
        if key != 0:
            calls.append(self)
        return run_program(self, key, point)

    monkeypatch.setattr(ExprMap, "_run", counted)
    chart = co.spherical_map()
    field = parse("r^2*cos(p) + r*sin(p)*cos(t)", ["r", "p", "t"])
    z = (1.4, 0.9, 0.3)

    def count(op):
        calls.clear()
        op()
        return len(calls)

    assert count(lambda: co.metric_at(chart, z)) == 1
    assert count(lambda: co.christoffel(chart, z, "second_derivative")) == 1
    assert count(lambda: co.christoffel(chart, z, "metric_derivative")) == 1
    assert count(lambda: co.laplacian_curvilinear(field, chart, z)) == 2


def test_spherical_divergence_against_pushforward():
    # vector field with Cartesian form (x1, x2, x3): physical spherical
    # components are (r, 0, 0) and div = 3
    field = parse(["r", "0*r", "0*r"], ["r", "p", "t"])
    assert co.diff_ops("spherical", "vector", "div", field, (1.7, 0.8, 0.2)) \
        == pytest.approx(3.0, rel=1e-12)


def test_vector_laplacian_cross_check():
    # Cartesian field (x2, -x1, x3^2): vector Laplacian is (0, 0, 2)
    f_cart = parse(["x2", "-x1", "x3^2"], ["x1", "x2", "x3"])
    lap = co.diff_ops("cartesian", "vector", "laplacian", f_cart, (0.3, 0.4, 0.9))
    assert np.allclose(lap, [0.0, 0.0, 2.0], atol=1e-12)
    # same field in cylindrical physical components: v_rho = x2 c + (-x1) s,
    # v_t = -x2 s - x1 c, v_z = z^2 with x1 = rho c, x2 = rho s
    f_cyl = parse([
        "rho*sin(t)*cos(t) - rho*cos(t)*sin(t)",
        "-rho*sin(t)*sin(t) - rho*cos(t)*cos(t)",
        "z^2",
    ], ["rho", "t", "z"])
    x = (0.3, 0.4, 0.9)
    pt = _cyl_point_of(x)
    lap_cyl = co.diff_ops("cylindrical", "vector", "laplacian", f_cyl, pt)
    # rotate the Cartesian result into the local frame
    c, s = math.cos(pt[1]), math.sin(pt[1])
    Q = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(lap_cyl, Q @ np.array([0.0, 0.0, 2.0]), atol=1e-10)


def test_tensor_divergence_cylindrical_identity():
    # L = I has zero divergence in every frame
    ident = parse(["1+0*rho", "0*rho", "0*rho",
                   "0*rho", "1+0*rho", "0*rho",
                   "0*rho", "0*rho", "1+0*rho"], ["rho", "t", "z"])
    out = co.diff_ops("cylindrical", "tensor", "div", ident, (1.1, 0.4, 0.0))
    assert np.allclose(out, 0.0, atol=1e-13)
    out = co.diff_ops("spherical", "tensor", "div", ident, (1.1, 0.8, 0.4))
    assert np.allclose(out, 0.0, atol=1e-13)


# Each curvilinear system: its variables, the chart x(z), and the rows of its
# orthonormal frame (e_1, e_2, e_3) in Cartesian components, as expressions.
_FRAMES = {
    "cylindrical": (("rho", "t", "z"), ("(rho*cos(t))", "(rho*sin(t))", "z"),
                    (("cos(t)", "sin(t)", "0"), ("-sin(t)", "cos(t)", "0"), ("0", "0", "1"))),
    "spherical": (("r", "p", "t"),
                  ("(r*sin(p)*cos(t))", "(r*sin(p)*sin(t))", "(r*cos(p))"),
                  (("sin(p)*cos(t)", "sin(p)*sin(t)", "cos(p)"),
                   ("cos(p)*cos(t)", "cos(p)*sin(t)", "-sin(p)"),
                   ("-sin(t)", "cos(t)", "0"))),
}
_CARTESIAN_FIELDS = {  # components in x1, x2, x3; a tensor's row by row, not symmetric
    "scalar": ["{x1}^2*{x2} + sin({x3})*{x1} + {x2}*{x3}^2"],
    "vector": ["{x1}*{x2}", "{x2}^2*{x3}", "sin({x1}) + {x3}*{x1}"],
    "tensor": ["{x1}*{x2}", "{x3}", "{x1}^2", "{x2}*{x3}", "{x2}", "{x1}*{x3}",
               "sin({x2})", "{x1} + {x3}^2", "{x3}*{x2}"],
}
_OPS = [(kind, op) for kind, ops in (("scalar", ("grad", "laplacian")),
                                     ("vector", ("grad", "div", "curl", "laplacian")),
                                     ("tensor", ("div",))) for op in ops]


@pytest.mark.parametrize("system, point", [("cylindrical", (1.3, 0.4, -0.7)),
                                           ("spherical", (1.7, 0.9, -0.6))])
@pytest.mark.parametrize("kind, op", _OPS)
def test_closed_form_operators_match_the_cartesian_ones(system, point, kind, op):
    # in physical components: e_i . V for a vector, e_i . T . e_j for a tensor
    names, x, frame = _FRAMES[system]
    cart = [c.format(x1="x1", x2="x2", x3="x3") for c in _CARTESIAN_FIELDS[kind]]
    there = [c.format(x1=x[0], x2=x[1], x3=x[2]) for c in _CARTESIAN_FIELDS[kind]]
    if kind == "scalar":
        physical = there
    elif kind == "vector":
        physical = [" + ".join(f"({e[a]})*({there[a]})" for a in range(3)) for e in frame]
    else:
        physical = [" + ".join(f"({ei[a]})*({ej[b]})*({there[3 * a + b]})"
                               for a in range(3) for b in range(3))
                    for ei in frame for ej in frame]
    got = co.diff_ops(system, kind, op, parse(physical, names), point)
    E = np.reshape(parse([e for row in frame for e in row], names)(*point), (3, 3))
    want = co.diff_ops("cartesian", kind, op, parse(cart, ["x1", "x2", "x3"]),
                       parse(x, names)(*point))
    want = E @ want @ E.T if np.ndim(want) == 2 else E @ want if np.ndim(want) else want
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13), (got, want)


@pytest.mark.parametrize("chart_factory, z, metric", [
    (co.polar_map, (1.4, 0.9), ("1", "r^2")),
    (co.spherical_map, (2.0, 0.8, -0.5), ("1", "r^2", "(r*sin(p))^2")),
])
def test_covariant_and_mixed_variances_are_the_lowered_contravariant_ones(chart_factory, z,
                                                                          metric):
    # diagonal metrics: lowering index p multiplies by g_pp
    chart = chart_factory()
    names = chart.map.variables
    n = len(names)
    v = [f"{names[0]}*{names[-1]}^{k + 1} + {k}" for k in range(n)]
    L = [f"sin({names[-1]} + {k})*{names[0]}^{k % 3}" for k in range(n * n)]
    lowered = parse([f"({g})*({c})" for g, c in zip(metric, v)], names)
    mixed = parse([f"({metric[k % n]})*({c})" for k, c in enumerate(L)], names)
    v, L = parse(v, names), parse(L, names)
    met = co.metric_at(chart, z)
    assert np.allclose(lowered(*z), co.raise_lower(v(*z), met, "down"), rtol=1e-14)
    assert np.allclose(np.reshape(mixed(*z), (n, n)), co.raise_lower(
        np.reshape(L(*z), (n, n)), met, "mixed_from_contra"), rtol=1e-14)
    D = co.covariant_derivative(v, chart, z, "contra")
    assert np.allclose(co.covariant_derivative(lowered, chart, z, "co"), met.cov @ D,
                       rtol=1e-13, atol=1e-13)
    D = co.covariant_derivative(L, chart, z, "tensor_contra")
    want = np.stack([co.raise_lower(D[:, :, h], met, "mixed_from_contra") for h in range(n)],
                    axis=-1)
    assert np.allclose(co.covariant_derivative(mixed, chart, z, "tensor_mixed"), want,
                       rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# field identities
# ---------------------------------------------------------------------------

def _random_poly_source(rng, vars=("x1", "x2", "x3"), degree=3):
    terms = []
    for _ in range(6):
        exps = rng.integers(0, degree + 1, size=3)
        while exps.sum() > degree:
            exps = rng.integers(0, degree + 1, size=3)
        c = rng.integers(-3, 4)
        if c:
            terms.append(f"({c})*{vars[0]}^{exps[0]}*{vars[1]}^{exps[1]}*{vars[2]}^{exps[2]}")
    return "+".join(terms) if terms else "x1"


def test_identity_battery():
    names = ["x1", "x2", "x3"]
    for trial in range(6):
        phi_src = _random_poly_source(rng)
        psi_src = _random_poly_source(rng)
        v_src = [_random_poly_source(rng) for _ in range(3)]
        w_src = [_random_poly_source(rng) for _ in range(3)]
        phi = parse(phi_src, names)
        psi = parse(psi_src, names)
        v = parse(v_src, names)
        w = parse(w_src, names)
        phi_v = parse([f"({phi_src})*({s})" for s in v_src], names)
        v_cross_w = parse([
            f"({v_src[1]})*({w_src[2]}) - ({v_src[2]})*({w_src[1]})",
            f"({v_src[2]})*({w_src[0]}) - ({v_src[0]})*({w_src[2]})",
            f"({v_src[0]})*({w_src[1]}) - ({v_src[1]})*({w_src[0]})",
        ], names)
        phi_psi = parse(f"({phi_src})*({psi_src})", names)
        # axial tensor field of w
        w_axial = parse([
            "0*x1", f"-({w_src[2]})", f"({w_src[1]})",
            f"({w_src[2]})", "0*x1", f"-({w_src[0]})",
            f"-({w_src[1]})", f"({w_src[0]})", "0*x1",
        ], names)
        x = tuple(rng.uniform(-1, 1, size=3))
        op = lambda kind, name, field: co.diff_ops("cartesian", kind, name, field, x)

        # div(phi v) = phi div v + v . grad phi
        lhs = op("vector", "div", phi_v)
        rhs = (phi(*x)[0] * op("vector", "div", v)
               + float(np.dot(v(*x), op("scalar", "grad", phi))))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)
        # div(v x w) = w . curl v - v . curl w
        lhs = op("vector", "div", v_cross_w)
        rhs = (float(np.dot(w(*x), op("vector", "curl", v)))
               - float(np.dot(v(*x), op("vector", "curl", w))))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)
        # curl w = -div W for the axial tensor field of w
        lhs = op("vector", "curl", w)
        rhs = -op("tensor", "div", w_axial)
        assert np.allclose(lhs, rhs, atol=1e-9)
        # laplacian(phi psi) = 2 grad phi . grad psi + phi lap psi + psi lap phi
        lhs = op("scalar", "laplacian", phi_psi)
        rhs = (2.0 * float(np.dot(op("scalar", "grad", phi), op("scalar", "grad", psi)))
               + phi(*x)[0] * op("scalar", "laplacian", psi)
               + psi(*x)[0] * op("scalar", "laplacian", phi))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_curl_grad_and_div_curl_vanish():
    names = ["x1", "x2", "x3"]
    for _ in range(10):
        phi_src = _random_poly_source(rng)
        v_src = [_random_poly_source(rng) for _ in range(3)]
        phi = parse(phi_src, names)
        v = parse(v_src, names)
        x = tuple(rng.uniform(-1, 1, size=3))
        h = 1e-5
        # curl(grad phi): assemble the curl of the exact gradient field by
        # central differences of grad phi
        grad_at = lambda p: co.diff_ops("cartesian", "scalar", "grad", phi, p)
        jac = np.empty((3, 3))
        for k in range(3):
            xp, xm = list(x), list(x)
            xp[k] += h
            xm[k] -= h
            jac[:, k] = (grad_at(xp) - grad_at(xm)) / (2 * h)
        curl = np.array([jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0],
                         jac[1, 0] - jac[0, 1]])
        assert np.max(np.abs(curl)) < 1e-9
        # div(curl v): divergence of the exact curl field by central differences
        div = 0.0
        for k in range(3):
            xp, xm = list(x), list(x)
            xp[k] += h
            xm[k] -= h
            div += (co.diff_ops("cartesian", "vector", "curl", v, xp)[k]
                    - co.diff_ops("cartesian", "vector", "curl", v, xm)[k]) / (2 * h)
        assert abs(div) < 1e-9


# ---------------------------------------------------------------------------
# integral theorems
# ---------------------------------------------------------------------------

def test_gauss_identity_field_on_unit_cube():
    v = parse(["x1", "x2", "x3"], ["x1", "x2", "x3"])
    box = ((0.0, 1.0),) * 3
    res = co.integral_theorem_residual("gauss", v, box, order=8)
    assert res < 1e-12
    flux = co._box_flux(lambda p: v(*p), box, 8)
    assert flux == pytest.approx(3.0, rel=1e-12)


def test_stokes_on_unit_disc():
    v = parse(["-x2", "x1", "0*x3"], ["x1", "x2", "x3"])
    res = co.integral_theorem_residual("stokes", v,
                                       {"center": (0.0, 0.0, 0.0), "radius": 1.0},
                                       order=16)
    assert res < 1e-10


def test_green_formula_on_box():
    f = parse("x1^2*x2", ["x1", "x2", "x3"])
    g = parse("x3^2 - x1*x2", ["x1", "x2", "x3"])
    res = co.integral_theorem_residual("green", (f, g), ((0.0, 1.0),) * 3, order=8)
    assert res < 1e-11


def test_flux_of_divergence_free_field():
    v = parse(["x2*x3", "x1*x3", "x1*x2"], ["x1", "x2", "x3"])
    res = co.integral_theorem_residual("flux", v, ((-1.0, 1.0),) * 3, order=8)
    assert res < 1e-12
