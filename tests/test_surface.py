"""Surface geometry tests: forms, curvatures, classification, special
surfaces, direction fields, geodesics and intrinsic curvature."""

import math
import warnings

import numpy as np
import pytest

from tensorgeom import surface as sf
from tensorgeom.curve import Curve, integrate
from tensorgeom.expr import ExprMap, NumericalFailure, derivatives, parse
from tensorgeom.tensor2 import norm, normalize

rng = np.random.default_rng(31)


@pytest.fixture(scope="module")
def sphere():
    # latitude u, longitude v on the unit sphere
    return sf.surface_from_expr(["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
                                ((-1.45, 1.45), (-7.0, 7.0)))


@pytest.fixture(scope="module")
def catenoid():
    return sf.revolution_surface("cosh(u)", "u", (-1.0, 1.0))


@pytest.fixture(scope="module")
def helicoid():
    return sf.ruled_surface(["0*u", "0*u", "u"], ["cos(u)", "sin(u)", "0*u"],
                            (0.0, 6.0), (-2.0, 2.0))


@pytest.fixture(scope="module")
def plane_patch():
    return sf.surface_from_expr(["u", "v", "0*u"], ((0.0, 1.0), (0.0, 1.0)))


@pytest.fixture(scope="module")
def torus():
    # tube radius 1 around a circle of radius 3; profile is arc length in u
    return sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3))


# ---------------------------------------------------------------------------
# pointwise data
# ---------------------------------------------------------------------------

def test_sphere_is_umbilical(sphere):
    for u, v in [(0.0, 0.0), (0.5, 1.0), (-0.9, 2.5)]:
        jd = sf.jet_at(sphere, u, v)
        assert jd.gaussian == pytest.approx(1.0, rel=1e-10)
        assert abs(jd.mean) == pytest.approx(1.0, rel=1e-10)
        assert jd.umbilical
        assert abs(norm(jd.normal) - 1.0) < 1e-13
        assert abs(np.dot(jd.normal, jd.f_u)) < 1e-13
        assert abs(np.dot(jd.normal, jd.f_v)) < 1e-13


def test_surface_jet_invariants(sphere):
    jd = sf.jet_at(sphere, 0.4, -0.8)
    g, B, X = jd.first_form, jd.second_form, jd.weingarten
    assert np.allclose(g, g.T)
    assert np.allclose(B, B.T)
    assert np.allclose(g @ X, B, atol=1e-13)
    assert jd.gaussian == pytest.approx(np.linalg.det(X), rel=1e-10)
    assert jd.mean == pytest.approx(0.5 * np.trace(X), rel=1e-10)
    assert jd.k1 >= jd.k2


def test_pseudo_sphere_curvature():
    ps = sf.revolution_surface("sin(u)", "cos(u)+ln(tan(u/2))", (0.3, 1.4))
    for u in np.linspace(0.35, 1.35, 6):
        for v in (-2.0, 0.5):
            assert sf.jet_at(ps, u, v).gaussian == pytest.approx(-1.0, abs=1e-8)


def test_plane_patch_flat(plane_patch):
    jd = sf.jet_at(plane_patch, 0.3, 0.6)
    assert np.allclose(jd.second_form, 0.0, atol=1e-14)
    assert jd.gaussian == 0.0
    assert jd.mean == 0.0
    assert sf.classify_point(jd) == "planar"


def test_normal_curvature_quotient(sphere):
    jd = sf.jet_at(sphere, 0.2, 0.9)
    w = rng.normal(size=2)
    expected = float(w @ jd.second_form @ w) / float(w @ jd.first_form @ w)
    assert jd.normal_curvature(w) == pytest.approx(expected, rel=1e-13)


def test_principal_direction_extremality():
    # normal curvature over a fan of directions peaks at the principal ones
    ell = sf.surface_from_expr(["u", "v", "0.5*u^2+0.1*v^2+0.05*u*v"],
                               ((-1.0, 1.0), (-1.0, 1.0)))
    jd = sf.jet_at(ell, 0.2, -0.3)
    angles = np.linspace(0.0, math.pi, 360, endpoint=False)
    lam, V = np.linalg.eigh(jd.first_form)
    gis = V @ np.diag(lam ** -0.5) @ V.T  # g^-1/2: the w below are g-unit
    kappas = []
    for a in angles:
        w = gis @ np.array([math.cos(a), math.sin(a)])
        kappas.append(jd.normal_curvature(w))
    assert max(kappas) == pytest.approx(jd.k1, abs=1e-4 + 1e-3 * abs(jd.k1))
    assert min(kappas) == pytest.approx(jd.k2, abs=1e-4 + 1e-3 * abs(jd.k2))
    assert jd.normal_curvature(jd.d1) == pytest.approx(jd.k1, rel=1e-10)
    assert jd.normal_curvature(jd.d2) == pytest.approx(jd.k2, rel=1e-10)


def test_principal_frame_of_an_ill_conditioned_chart(torus):
    # the torus sheared by u -> u + 100 v: cond g is about 1e7, the curvatures
    # are still 1/r and cos u / (R + r cos u), along the unsheared f_u and f_v
    sheared = sf.reparameterized(torus, ["u+100*v", "v"], ((-3.0, 3.0), (-0.01, 0.01)))
    for u in (-2.5, -0.4, 0.0, 1.1, 2.9):
        for v in (-0.007, 0.004):
            jd, plain = sf.jet_at(sheared, u - 100.0 * v, v), sf.jet_at(torus, u, v)
            assert np.linalg.cond(jd.first_form) > 1e6
            assert jd.k1 == pytest.approx(1.0, rel=1e-10)
            assert jd.k2 == pytest.approx(math.cos(u) / (3.0 + math.cos(u)), rel=1e-10)
            for d, f in ((jd.d1, plain.f_u), (jd.d2, plain.f_v)):
                a = jd.ambient(d)
                assert norm(np.cross(a, f)) <= 1e-10 * norm(a) * norm(f)


def test_irregular_point_detected():
    # cone through the origin: at v = 0 the u-tangent degenerates
    cone = sf.ruled_surface(["0*u", "0*u", "0*u"],
                            ["cos(u)", "sin(u)", "1+0*u"], (0.0, 6.0), (-0.5, 0.5))
    with pytest.raises(sf.IrregularPoint):
        sf.jet_at(cone, 1.0, 0.0)


# ---------------------------------------------------------------------------
# revolution surfaces
# ---------------------------------------------------------------------------

def test_revolution_closed_form_matches_generic_arclength():
    # unit-sphere profile (cos u, sin u) is arc-length parameterized
    ball = sf.revolution_surface("cos(u)", "sin(u)", (-1.4, 1.4))
    for u in (-1.0, 0.2, 1.2):
        jd = sf.jet_at(ball, u, 0.7)
        cf = sf.revolution_closed_form(ball, u, 0.7)
        assert cf["arc_length_param"]
        assert np.allclose(cf["first_form"], jd.first_form, atol=1e-9)
        assert np.allclose(np.abs(cf["second_form"]), np.abs(jd.second_form),
                           atol=1e-9)
        assert cf["gaussian"] == pytest.approx(jd.gaussian, rel=1e-9)


def test_revolution_closed_form_reparameterizes(catenoid):
    # cosh profile is not arc length; the intrinsic curvature still matches
    for u in (-0.7, 0.1, 0.8):
        cf = sf.revolution_closed_form(catenoid, u, 1.0)
        assert not cf["arc_length_param"]
        assert cf["gaussian"] == pytest.approx(sf.jet_at(catenoid, u, 1.0).gaussian,
                                               rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_revolution_closed_form_names_an_overflowing_form():
    wide = sf.revolution_surface("1e200+0*u", "u", (0.0, 1.0))  # r^2 = 1e400
    with pytest.raises(NumericalFailure, match="the first form overflows"):
        sf.revolution_closed_form(wide, 0.5, 0.1)
    thin = sf.revolution_surface("1e-200+0*u", "u", (0.0, 1.0))  # r^2 underflows to 0
    with pytest.raises(sf.IrregularPoint, match=r"degenerate metric at \(u, v\) = \(0\.5, 0\.1\)"):
        sf.revolution_closed_form(thin, 0.5, 0.1)


def test_catenoid_minimal_and_hyperbolic(catenoid):
    for u in np.linspace(-0.9, 0.9, 7):
        for v in np.linspace(-3.0, 3.0, 7):
            jd = sf.jet_at(catenoid, u, v)
            assert abs(jd.mean) < 1e-10
            assert sf.classify_point(jd) == "hyperbolic"


def test_profile_inflexion_gives_parabolic_point():
    # profile (2 + u^3, u): signed curvature vanishes at u = 0
    s = sf.revolution_surface("2+u^3", "u", (-0.5, 0.5))
    jd = sf.jet_at(s, 0.0, 0.3)
    assert sf.classify_point(jd) == "parabolic"
    assert sf.classify_point(sf.jet_at(s, 0.3, 0.3)) in ("elliptic", "hyperbolic")


def test_nonpositive_radius_rejected():
    with pytest.raises(sf.NonPositiveRadius):
        sf.revolution_surface("u", "u", (-1.0, 1.0))


# ---------------------------------------------------------------------------
# ruled surfaces and developability
# ---------------------------------------------------------------------------

def test_cylinder_developable():
    cyl = sf.ruled_surface(["cos(u)", "sin(u)", "0*u"], ["0*u", "0*u", "1+0*u"],
                           (0.0, 6.0), (0.0, 2.0))
    for u in (0.5, 2.0, 4.0):
        ok, witness = sf.developability(cyl, u)
        assert ok and abs(witness) < 1e-12
        jd = sf.jet_at(cyl, u, 1.0)
        assert abs(jd.gaussian) < 1e-12
        assert sf.classify_point(jd) == "parabolic"


def test_helicoid_not_developable(helicoid):
    ok, witness = sf.developability(helicoid, 1.0)
    assert not ok and abs(witness) > 0.1


def test_cone_developable_away_from_apex():
    cone = sf.ruled_surface(["0*u", "0*u", "0*u"], ["cos(u)", "sin(u)", "1+0*u"],
                            (0.0, 6.0), (0.5, 2.0))
    for u in (0.3, 1.5):
        ok, witness = sf.developability(cone, u)
        assert ok
        assert abs(sf.jet_at(cone, u, 1.0).gaussian) < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_developability_witness_is_scale_free():
    def witness(scale):
        ruled = sf.ruled_surface(["u", "0", "0"], [scale, f"{scale}*u", f"{scale}*u^2"],
                                 (0.1, 1.0))
        return sf.developability(ruled, 0.5)

    ok, w = witness("1")
    assert not ok and w == pytest.approx(0.25 / math.sqrt(1.3125 * 2.0), rel=1e-14)
    # a power of two keeps the bits; 1e200, whose products overflow, the value
    assert witness("2^600") == (ok, w) and _bits(witness("2^600")[1]) == _bits(w)
    ok_big, w_big = witness("1e200")
    assert not ok_big and w_big == pytest.approx(w, rel=1e-14)


def test_degenerate_director():
    s = sf.ruled_surface(["u", "0*u", "0*u"], ["u", "0*u", "0*u"], (-1.0, 1.0))
    with pytest.raises(sf.DegenerateDirector):
        sf.developability(s, 0.0)


def test_developable_normal_constant_along_generators():
    cyl = sf.ruled_surface(["cos(u)", "sin(u)", "0*u"], ["0*u", "0*u", "1+0*u"],
                           (0.0, 6.0), (0.0, 2.0))
    n0 = sf.jet_at(cyl, 1.0, 0.2).normal
    n1 = sf.jet_at(cyl, 1.0, 1.8).normal
    assert norm(n0 - n1) < 1e-12


# ---------------------------------------------------------------------------
# direction fields
# ---------------------------------------------------------------------------

def test_coordinate_lines_are_curvature_lines_when_diagonal(torus):
    jd = sf.jet_at(torus, 0.7, 1.1)
    assert abs(jd.weingarten[0, 1]) < 1e-12
    fields = sf.direction_fields(jd)
    d1, d2 = fields.curvature_directions
    # each principal direction is a coordinate direction
    assert min(abs(d1[0]), abs(d1[1])) < 1e-10
    assert min(abs(d2[0]), abs(d2[1])) < 1e-10


def test_asymptotic_directions_by_class(sphere, catenoid):
    jd = sf.jet_at(sphere, 0.3, 0.3)
    fields = sf.direction_fields(jd)
    assert fields.dupin == "ellipse"
    assert len(fields.asymptotic_directions) == 0
    jd = sf.jet_at(catenoid, 0.4, 0.5)
    fields = sf.direction_fields(jd)
    assert fields.dupin == "conjugate_hyperbolae"
    assert len(fields.asymptotic_directions) == 2
    for d in fields.asymptotic_directions:
        assert abs(float(d @ jd.second_form @ d)) < 1e-10
    cyl = sf.ruled_surface(["cos(u)", "sin(u)", "0*u"], ["0*u", "0*u", "1+0*u"],
                           (0.0, 6.0), (0.0, 2.0))
    fields = sf.direction_fields(sf.jet_at(cyl, 1.0, 1.0))
    assert fields.dupin == "parallel_lines"
    assert len(fields.asymptotic_directions) == 1


def test_planar_point_rejected(plane_patch):
    with pytest.raises(sf.PlanarPoint):
        sf.direction_fields(sf.jet_at(plane_patch, 0.5, 0.5))


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_sphere_great_circle(sphere):
    traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.0, 0.0, 0.0, 1.0),
                                 2.0 * math.pi, 5e-3)
    # the equator is a great circle: u stays 0, speed stays 1
    assert np.max(np.abs(traj.u)) < 1e-9
    pts = np.array([sphere.point(u, v) for u, v in zip(traj.u[::40], traj.v[::40])])
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12


def test_tilted_great_circle(sphere):
    # start on the equator heading north-east: stays on the great circle
    # through the start point with the same tangent
    d = normalize([1.0, 1.0])
    traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.0, 0.0, d[0], d[1]),
                                 2.0, 2e-3)
    p0 = sphere.point(0.0, 0.0)
    jd = sf.jet_at(sphere, 0.0, 0.0)
    t0 = normalize(jd.ambient([traj.du[0], traj.dv[0]]))
    axis = np.cross(p0, t0)
    for i in range(0, len(traj.s), 100):
        p = sphere.point(traj.u[i], traj.v[i])
        assert abs(np.dot(p, axis)) < 1e-6  # stays in the great-circle plane


def test_geodesic_speed_drift(sphere):
    traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.3, 0.1, 0.2, 0.9),
                                 2.0, 1e-3)
    for i in (0, len(traj.s) // 2, len(traj.s) - 1):
        g = sf.jet_at(sphere, traj.u[i], traj.v[i]).first_form
        w = np.array([traj.du[i], traj.dv[i]])
        assert abs(math.sqrt(w @ g @ w) - 1.0) < 1e-6


def test_geodesic_speed_drift_long_run():
    # contract: drift below 1e-6 over an arc length of 20 at step 1e-3
    torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3),
                                  v_domain=(-40.0, 40.0))
    traj = sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3),
                                 20.0, 1e-3)
    worst = 0.0
    for i in range(0, len(traj.s), 997):
        g = sf.jet_at(torus, traj.u[i], traj.v[i]).first_form
        w = np.array([traj.du[i], traj.dv[i]])
        worst = max(worst, abs(math.sqrt(w @ g @ w) - 1.0))
    assert worst < 1e-6


def test_geodesic_names_a_metric_that_overflows_without_a_warning():
    saddle = sf.surface_from_expr(["u", "v", "1e300*u*v"], ((-1.0, 1.0), (-1.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sf.IrregularPoint, match=r"the metric overflows at \(u, v\) = "
                                                    r"\(0.000447214, 0.000223607\)"):
            sf.geodesic_integrate(saddle, sf.GeodesicState(0.0, 0.0, 1.0, 0.5), 1.0, 1e-3)


def test_geodesic_shorter_than_half_a_step_is_a_value_error(torus):
    with pytest.raises(ValueError, match="arc-length span below half a step"):
        sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3), 1e-4, 1e-3)
    # s_max / step = 0.6 rounds to one step
    assert len(sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3), 6e-4, 1e-3)) == 2


def test_geodesic_curvature_along_output(sphere):
    traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.2, 0.4, 0.7, 0.4),
                                 1.0, 1e-3)
    pts = np.array([sphere.point(u, v) for u, v in zip(traj.u, traj.v)])
    h = traj.s[1] - traj.s[0]
    for i in range(50, len(pts) - 50, 200):
        tau = (pts[i + 1] - pts[i - 1]) / (2 * h)
        dtau = (pts[i + 1] - 2 * pts[i] + pts[i - 1]) / (h * h)
        n = sf.jet_at(sphere, traj.u[i], traj.v[i]).normal
        kg = float(np.dot(dtau, np.cross(n, tau)))
        assert abs(kg) < 1e-5
        # ambient acceleration is parallel to the normal
        assert norm(np.cross(dtau, n)) < 1e-4


_POLYNOMIAL = ["u + v^2", "v - u*v", "sin(u)*cos(v) + u*v"]


def _christoffel_from_metric_derivatives(surf, u, v):
    """The reference connection gamma[..., h, i, j], at a point or a batch: the
    parameter derivatives of the metric, dg[a, b, c] = f_ac . f_b + f_a . f_bc,
    give the first-kind symbols (dg[k, i, j] + dg[k, j, i] - dg[i, j, k]) / 2,
    which g^-1 raises."""
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    _, fu, fv, fuu, fuv, fvv = derivatives(surf.map, (u, v), sf._SECOND)
    g11, g12, g22 = dot(fu, fu), dot(fu, fv), dot(fv, fv)
    uu_u, uu_v, uv_u, uv_v, vv_u, vv_v = (dot(x, y) for x in (fuu, fuv, fvv) for y in (fu, fv))
    det = g11 * g22 - g12 * g12
    dg = {(0, 0, 0): uu_u + uu_u, (0, 0, 1): uv_u + uv_u, (0, 1, 0): uu_v + uv_u,
          (0, 1, 1): uv_v + vv_u, (1, 1, 0): uv_v + uv_v, (1, 1, 1): vv_v + vv_v}
    first_kind = {
        (0, 0): (0.5 * dg[0, 0, 0], dg[0, 1, 0] - 0.5 * dg[0, 0, 1]),
        (0, 1): (0.5 * dg[0, 0, 1], 0.5 * dg[1, 1, 0]),
        (1, 1): (dg[0, 1, 1] - 0.5 * dg[1, 1, 0], 0.5 * dg[1, 1, 1]),
    }
    gamma = np.empty(np.shape(u) + (2, 2, 2))
    for (i, j), (r1, r2) in first_kind.items():
        gamma[..., 0, i, j] = gamma[..., 0, j, i] = (r1 * g22 - r2 * g12) / det
        gamma[..., 1, i, j] = gamma[..., 1, j, i] = (g11 * r2 - g12 * r1) / det
    return gamma


@pytest.mark.parametrize("name", ["sphere", "catenoid", "helicoid", "plane_patch", "torus",
                                  "polynomial"])
def test_christoffel_equals_the_metric_derivative_route(name, request):
    surf = sf.surface_from_expr(_POLYNOMIAL, ((-1.0, 1.0), (-1.0, 1.0))) \
        if name == "polynomial" else request.getfixturevalue(name)
    (u0, u1), (v0, v1) = surf.domain
    us, vs = rng.uniform(u0, u1, 40), rng.uniform(v0, v1, 40)
    for u, v in ((us, vs), (us[0], vs[0])):  # a batch, then one point
        want = _christoffel_from_metric_derivatives(surf, u, v)
        gamma = sf.jet_at(surf, u, v).christoffel
        assert np.max(np.abs(gamma - want)) <= 1e-12 * np.max(np.abs(want))


def test_geodesic_acceleration_is_minus_the_connection_on_the_velocity(torus, monkeypatch):
    rhs = []  # the integrator's right-hand side, caught at its one step
    monkeypatch.setattr(sf, "_rk4", lambda f, y, h: rhs.append(f) or y)
    sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3), 1e-3, 1e-3)
    for y in ([0.5, 0.0, 0.3, 0.3], [-2.0, 1.0, 1.0, -0.2], [3.0, -2.5, -0.4, 0.7],
              [0.0, 0.3, 0.0, 1.0]):
        gamma = sf.jet_at(torus, y[0], y[1]).christoffel
        w = np.array(y[2:])
        got = rhs[0](0.0, y)
        assert _bits(got[:2]) == _bits(w)
        # to rounding: the torus's gamma is of order one, and vanishes at u = 0
        assert np.max(np.abs(np.array(got[2:]) + np.einsum("hij,i,j->h", gamma, w, w))) <= \
            1e-14 * max(1.0, np.max(np.abs(gamma))) * (w @ w)


def test_meridians_are_geodesics(torus):
    # meridian (u = t, v = v0): residual of the geodesic system is
    # Gamma^h_11, which vanishes identically on a revolution surface
    for u in (-1.0, 0.4, 2.0):
        gamma = sf.jet_at(torus, u, 0.7).christoffel
        assert abs(gamma[0, 0, 0]) < 1e-10
        assert abs(gamma[1, 0, 0]) < 1e-10


def test_parallel_geodesic_criterion(torus):
    # parallels are geodesic exactly where the profile radius is stationary:
    # u = 0 (outer equator) and u = pi (inner); not elsewhere
    for u0, expect in ((0.0, True), (math.pi, True), (0.7, False)):
        gamma = sf.jet_at(torus, u0, 0.3).christoffel
        residual = abs(gamma[0, 1, 1])  # parallel: u' = 0, v' = 1
        if expect:
            assert residual < 1e-9
        else:
            assert residual > 1e-3


def test_left_domain(sphere):
    with pytest.raises(sf.LeftDomain) as err:
        sf.geodesic_integrate(sphere, sf.GeodesicState(1.0, 0.0, 1.0, 0.0),
                              5.0, 1e-2)
    assert err.value.state is not None


def test_geodesic_locally_minimizes_length(sphere):
    # great-circle arc from (0,0) to (0,1) against bumped competitors
    base = parse(["0*t", "t"], ["t"])
    base_len = sf.curve_length_on_surface(sphere, base, 0.0, 1.0)
    for eps in (0.05, 0.1):
        bump = parse([f"{eps}*sin(pi*t)", "t"], ["t"])
        assert sf.curve_length_on_surface(sphere, bump, 0.0, 1.0) > base_len


# ---------------------------------------------------------------------------
# intrinsic curvature and frame residuals
# ---------------------------------------------------------------------------

def test_egregium_matches_shape_operator(sphere, catenoid, torus):
    # the monkey saddle and the sheared torus have F != 0, where Brioschi's F terms count
    monkey = sf.surface_from_expr(["u", "v", "u^3 - 3*u*v^2"], ((-1.0, 1.0), (-1.0, 1.0)))
    sheared = sf.reparameterized(torus, ["u + 0.3*v", "v"], ((-2.5, 2.5), (-3.0, 3.0)))
    for surf in (sphere, catenoid, torus, monkey, sheared):
        (u0, u1), (v0, v1) = surf.domain
        for u in np.linspace(u0 + 0.1, u1 - 0.1, 5):
            for v in np.linspace(v0 + 0.1, v1 - 0.1, 5):
                ki = sf.egregium_curvature(surf, u, v)
                ks = sf.jet_at(surf, u, v).gaussian
                assert ki == pytest.approx(ks, rel=1e-6, abs=1e-6)


def test_egregium_plane_is_zero(plane_patch):
    assert sf.egregium_curvature(plane_patch, 0.4, 0.4) == pytest.approx(0.0,
                                                                         abs=1e-14)


def test_egregium_names_a_degenerate_metric(sphere):
    # at the pole u = pi/2, G = cos(u)^2 is about 3.7e-33
    with pytest.raises(sf.IrregularPoint, match=r"degenerate metric at \(u, v\) = \(1.5708, 0.3\)"):
        sf.egregium_curvature(sphere, math.pi / 2, 0.3)
    with np.errstate(all="ignore"):
        batch = sf.egregium_curvature(sphere, np.array([math.pi / 2, 0.3]), np.array([0.3, 0.3]))
    assert math.isnan(batch[0]) and batch[1] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_metric_that_overflows_is_named_by_the_jet_and_by_brioschi():
    # the tangent plane is fine; g11 = 1e320 is past the float range
    plane = sf.surface_from_expr(["1e160*u", "1e160*v", "0"], ((-1.0, 1.0), (-1.0, 1.0)))
    for at in (sf.jet_at, sf.gauss_weingarten_residual, sf.egregium_curvature):
        with pytest.raises(sf.IrregularPoint,
                           match=r"^the metric overflows at \(u, v\) = \(0.5, 0.5\)$"):
            at(plane, 0.5, 0.5)
    # on a batch such a point is marked: here f_u = (1, 0, 800 e^800u) at u = 0.5, not at 0
    wall = sf.surface_from_expr(["u", "v", "exp(800*u)"], ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(sf.IrregularPoint, match=r"^the metric overflows at \(u, v\) = \(0.5, 0"):
        sf.jet_at(wall, 0.5, 0.0)
    us, vs = np.array([0.5, 0.0]), np.array([0.0, 0.0])
    with np.errstate(all="ignore"):
        jet, K = sf.jet_at(wall, us, vs), sf.egregium_curvature(wall, us, vs)
    one = sf.jet_at(wall, 0.0, 0.0)
    for field in ("first_form", "gaussian", "mean", "k1", "k2", "d1"):
        assert np.isnan(getattr(jet, field)[0]).all(), field
        assert _bits(getattr(jet, field)[1]) == _bits(getattr(one, field)), field
    assert math.isnan(K[0]) and _bits(K[1]) == _bits(sf.egregium_curvature(wall, 0.0, 0.0))


def test_gauss_weingarten_residuals(sphere, plane_patch):
    g_res, w_res = sf.gauss_weingarten_residual(plane_patch, 0.5, 0.5)
    assert g_res < 1e-14 and w_res < 1e-14
    for u, v in [(0.2, 0.3), (-0.8, 2.0)]:
        g_res, w_res = sf.gauss_weingarten_residual(sphere, u, v)
        assert g_res < 1e-8 and w_res < 1e-8
    ps = sf.revolution_surface("sin(u)", "cos(u)+ln(tan(u/2))", (0.3, 1.4))
    g_res, w_res = sf.gauss_weingarten_residual(ps, 0.9, 0.5)
    assert g_res < 1e-8 and w_res < 1e-8


def test_gauss_weingarten_residual_evaluates_the_map_once(sphere, monkeypatch):
    calls = []
    run_program = ExprMap._run
    monkeypatch.setattr(ExprMap, "_run", lambda self, *a: calls.append(a) or run_program(self, *a))
    sf.gauss_weingarten_residual(sphere, 0.2, 0.3)
    assert calls == [(sf._SECOND, (0.2, 0.3))]  # the rows up to order 2, once


# ---------------------------------------------------------------------------
# areas and on-surface lengths
# ---------------------------------------------------------------------------

def test_unit_sphere_band_area(sphere):
    # latitudes 0..pi/2, all longitudes: integral of cos(u) = 2 pi
    area = sf.surface_area(sphere, u_range=(0.0, math.pi / 2 - 1e-12),
                           v_range=(-math.pi, math.pi))
    assert area == pytest.approx(2.0 * math.pi, rel=1e-9)


def test_flat_patch_area(plane_patch):
    assert sf.surface_area(plane_patch) == pytest.approx(1.0, rel=1e-13)


# z = c u v: f_u . f_v = c^2 u v, so det g overflows (1e300: NaN from inf - inf), or
# its square does (1e100)
@pytest.mark.parametrize("c", ["1e300", "1e100"])
def test_area_names_a_metric_that_overflows(c):
    saddle = sf.surface_from_expr(["u", "v", f"{c}*u*v"], ((-1.0, 1.0), (-1.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sf.IrregularPoint, match=r"the metric overflows at \(u, v\) = "
                                                    r"\(-0.861136, -0.861136\)"):
            sf.surface_area(saddle, order=4)
    # on a batch such a point is marked; (0, 0) is not
    with np.errstate(all="ignore"):
        det = sf._metric_det(saddle, np.array([0.0, 0.5, -0.3]), np.array([0.0, 0.5, 0.9]))
    assert det[0] == 1.0 and np.isnan(det[1:]).all()


def test_parallel_length_at_latitude(sphere):
    # parallel at latitude pi/4 spanning dv: length = cos(pi/4) dv
    dv = 1.3
    path = parse([f"{math.pi / 4}+0*t", "t"], ["t"])
    length = sf.curve_length_on_surface(sphere, path, 0.0, dv)
    assert length == pytest.approx(math.sqrt(2.0) / 2.0 * dv, rel=1e-10)

def test_length_on_a_surface_with_a_kink_at_the_panel_centre():
    # the kink t = 1 is the first panel's centre and a scan sample
    plane = sf.Surface(parse(["u", "v", "0*u"], ["u", "v"]), ((-5.0, 5.0), (-5.0, 5.0)))
    length = sf.curve_length_on_surface(plane, parse(["t", "abs(t-1)"], ["t"]), 0.0, 2.0)
    assert length == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("surface, path", [
    (["u", "v", "0"], ["t", "abs(sin(7*t))+t^2"]),   # the path's speed jumps
    (["u", "abs(sin(7*u))+u^2", "v"], ["t", "0"]),   # the surface's metric jumps
])
def test_length_across_speed_jumps_is_the_sum_over_smooth_pieces(surface, path):
    length = sf.curve_length_on_surface(sf.surface_from_expr(surface, ((-4, 4), (-4, 4))),
                                        parse(path, ["t"]), 0.05, 3.0)
    plane_curve = Curve(parse(["t", "abs(sin(7*t))+t^2"], ["t"]), (0.05, 3.0))
    edges = [0.05, *(k * math.pi / 7 for k in range(1, 7)), 3.0]
    pieces = math.fsum(integrate(lambda t: norm(plane_curve.velocity(t)), a, b, 1e-12)
                       for a, b in zip(edges, edges[1:]))
    assert abs(length - pieces) <= 1e-12 * pieces, (length, pieces)


def test_length_on_a_metric_that_overflows_names_the_node():
    # g11 = 1 + (1e300 v)^2 overflows; the quadrature re-runs the panel centre alone
    surf = sf.surface_from_expr(["u", "v", "1e300*u*v"], ((-1, 1), (-1, 1)))
    with pytest.raises(sf.IrregularPoint,
                       match=r"the metric overflows at \(u, v\) = \(0\.3, 0\.3\)"):
        sf.curve_length_on_surface(surf, parse(["t", "t"], ["t"]), 0.1, 0.5)



# ---------------------------------------------------------------------------
# reparameterization invariance
# ---------------------------------------------------------------------------

def test_reparameterization_invariance():
    # use a non-umbilical surface so principal directions are well defined
    base = sf.surface_from_expr(["u", "v", "0.5*u^2+0.1*v^2+0.05*u*v"],
                                ((-1.5, 1.5), (-2.5, 2.5)))
    # orientation-preserving diffeomorphism of the parameter rectangle
    diffeo = parse(["u+0.1*sin(v)", "v+0.1*u^2"], ["u", "v"])
    rep = sf.reparameterized(base, diffeo, ((-0.8, 0.8), (-2.0, 2.0)))
    for U, V in [(0.2, 0.5), (-0.4, 1.0)]:
        inner = diffeo(U, V)
        jd_base = sf.jet_at(base, inner[0], inner[1])
        jd_rep = sf.jet_at(rep, U, V)
        assert np.allclose(jd_rep.point, jd_base.point, atol=1e-12)
        assert np.allclose(jd_rep.normal, jd_base.normal, atol=1e-8)
        assert jd_rep.gaussian == pytest.approx(jd_base.gaussian, rel=1e-8)
        assert sf.classify_point(jd_rep) == sf.classify_point(jd_base)
        # principal directions agree as ambient vectors (up to sign)
        for d_rep, d_base in ((jd_rep.d1, jd_base.d1), (jd_rep.d2, jd_base.d2)):
            a = jd_rep.ambient(d_rep)
            b = jd_base.ambient(d_base)
            assert min(norm(a - b), norm(a + b)) < 1e-6


def test_orientation_reversal_flips_normal(sphere):
    swap = parse(["v", "u"], ["u", "v"])
    rep = sf.reparameterized(sphere, swap, ((-2.0, 2.0), (-0.8, 0.8)))
    jd_rep = sf.jet_at(rep, 0.5, 0.2)
    jd_base = sf.jet_at(sphere, 0.2, 0.5)
    assert np.allclose(jd_rep.normal, -jd_base.normal, atol=1e-10)


# ---------------------------------------------------------------------------
# minimal surfaces
# ---------------------------------------------------------------------------

def test_helicoid_minimal(helicoid):
    for u in np.linspace(0.2, 5.8, 6):
        for v in np.linspace(-1.8, 1.8, 6):
            jd = sf.jet_at(helicoid, u, v)
            assert abs(jd.mean) < 1e-10
            assert sf.classify_point(jd) == "hyperbolic"


# ---------------------------------------------------------------------------
# batches of points: the same numbers as one point at a time
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("name", ["sphere", "catenoid", "helicoid", "torus", "reparameterized"])
def test_batch_geometry_matches_pointwise(name, request):
    surf = (sf.reparameterized(request.getfixturevalue("sphere"), ["u/2", "v+u*v/4"],
                               ((-1.0, 1.0), (-2.0, 2.0))) if name == "reparameterized"
            else request.getfixturevalue(name))
    (u0, u1), (v0, v1) = surf.domain
    us, vs = (np.repeat(np.linspace(u0 + 0.05, u1 - 0.05, 7), 7),
              np.tile(np.linspace(v0 + 0.05, v1 - 0.05, 7), 7))
    with np.errstate(all="ignore"):
        batch = sf.jet_at(surf, us, vs)
        kinds = sf.classify_point(batch)
        intrinsic = sf.egregium_curvature(surf, us, vs)
    for k, (u, v) in enumerate(zip(us, vs)):
        one = sf.jet_at(surf, u, v)
        for field in ("point", "normal", "first_form", "second_form", "weingarten", "k1", "k2",
                      "d1", "d2", "gaussian", "mean", "christoffel"):
            assert _bits(getattr(batch, field)[k]) == _bits(getattr(one, field)), field
        assert batch.umbilical[k] == one.umbilical
        assert kinds[k] == sf.classify_point(one)
        assert _bits(intrinsic[k]) == _bits(sf.egregium_curvature(surf, u, v))


@pytest.mark.parametrize("name", ["revolution", "ruled", "reparameterized"])
def test_constructed_surfaces_equal_their_written_expressions(name, sphere):
    """A constructed surface is its written expression: ExprMap.compose
    substitutes the profiles, so every number is that of the written map."""
    domain = ((-1.0, 1.0), (-2.0, 2.0))
    built, written = {
        "revolution": (sf.revolution_surface("3+cos(u)", "sin(u)", (-1.0, 1.0),
                                             v_domain=(-2.0, 2.0)),
                       ["(3+cos(u))*cos(v)", "(3+cos(u))*sin(v)", "sin(u)"]),
        "ruled": (sf.ruled_surface(["0*u", "0*u", "u"], ["cos(u)", "sin(u)", "0*u"],
                                   (-1.0, 1.0), (-2.0, 2.0)),
                  ["0*u+v*cos(u)", "0*u+v*sin(u)", "u+v*(0*u)"]),
        "reparameterized": (sf.reparameterized(sphere, ["u/2", "v+u*v/4"], domain),
                            ["cos(u/2)*cos(v+u*v/4)", "cos(u/2)*sin(v+u*v/4)", "sin(u/2)"]),
    }[name]
    written = sf.surface_from_expr(written, domain)
    assert built.map.components == written.map.components
    for u in np.linspace(-0.9, 0.9, 7):
        for v in np.linspace(-1.9, 1.9, 7):
            one, other = sf.jet_at(built, u, v), sf.jet_at(written, u, v)
            for field in ("point", "f_u", "f_v", "normal", "first_form", "second_form",
                          "weingarten", "k1", "k2", "d1", "d2", "gaussian", "mean",
                          "christoffel", "umbilical"):
                assert _bits(getattr(one, field)) == _bits(getattr(other, field)), field
            assert _bits(sf.egregium_curvature(built, u, v)) == \
                _bits(sf.egregium_curvature(written, u, v))


class _PointsOnly:
    """An ExprMap that refuses batches, so the area is summed node by node."""

    def __init__(self, em):
        self.em, self.arity = em, em.arity

    def _run(self, key, point):
        if np.ndim(point[0]):
            raise ArithmeticError("one point at a time")
        return self.em._run(key, point)


def test_area_in_chunks_equals_node_by_node(torus, catenoid):
    for surf in (torus, catenoid):
        one_by_one = sf.Surface(_PointsOnly(surf.map), surf.domain)
        for order in (5, 32, 40):  # 40^2 nodes span several chunks
            assert sf.surface_area(surf, order=order) == sf.surface_area(one_by_one, order=order)


def test_stacked_vecdot_rounds_as_one_pair_at_a_time():
    """The rounding that a batch of ``_surface_jet``'s second form (N . f_ij) and
    principal directions, of ``gauss_weingarten_residual``'s normal derivatives
    and of the Frenet frame and dkappa/ds in ``curve`` relies on: np.vecdot over
    stacked 3-vectors, with its arguments either way round, gives the bits of
    np.vecdot of each pair alone."""
    scale = 10.0 ** rng.integers(-8, 9, (2, 16000, 9, 1))
    a, b = rng.standard_normal((2, 16000, 9, 3)) * scale
    stacked = np.vecdot(a, b)
    assert _bits(stacked) == _bits(np.vecdot(b, a))
    assert _bits(stacked) == _bits([[np.vecdot(x, y) for x, y in zip(rx, ry)]
                                    for rx, ry in zip(a, b)])


@pytest.mark.parametrize("sources", [["(2 + cos(u))*cos(v)", "(2 + cos(u))*sin(v)", "sin(u)"],
                                     _POLYNOMIAL])
def test_one_point_metric_and_connection_equals_its_batch_row(sources):
    surf = sf.surface_from_expr(sources, ((-1.0, 1.0), (-1.0, 1.0)))
    us, vs = rng.uniform(-1.0, 1.0, (2, 40))
    D = derivatives(surf.map, (us, vs), sf._SECOND)
    metric = sf._metric(D, us, vs)
    K = sf.egregium_curvature(surf, us, vs)
    for k, (u, v) in enumerate(zip(us, vs)):
        D1 = derivatives(surf.map, (u, v), sf._SECOND)
        metric1 = sf._metric(D1, u, v)
        assert _bits([m[k] for m in metric]) == _bits(metric1)
        for r in (0, 3, 4, 5):  # the point itself, then f_uu, f_uv and f_vv
            batch = sf._tangential(D, D[r], metric)
            assert _bits([t[k] for t in batch]) == _bits(sf._tangential(D1, D1[r], metric1))
        assert _bits(K[k]) == _bits(sf.egregium_curvature(surf, u, v))


def test_a_batch_of_a_constant_map_is_marked_at_every_point():
    # its partials are floats, the same at every point of the batch: one det g
    # for the whole batch, which must mark each point and not raise
    surf = sf.surface_from_expr(["1", "2", "3"], ((0.0, 1.0), (0.0, 1.0)))
    us, vs = np.array([0.2, 0.5]), np.array([0.3, 0.6])
    with pytest.raises(sf.IrregularPoint, match=r"degenerate metric at \(u, v\) = \(0.2, 0.3\)"):
        sf.egregium_curvature(surf, 0.2, 0.3)
    with np.errstate(all="ignore"):
        D = derivatives(surf.map, (us, vs), sf._SECOND)
        for values in (sf._metric(D, us, vs), [sf.egregium_curvature(surf, us, vs)],
                       [sf._metric_det(surf, us, vs)], [sf.jet_at(surf, us, vs).gaussian]):
            assert [np.isnan(x).tolist() for x in values] == [[True, True]] * len(values)


def test_metric_determinant_lost_to_rounding_is_an_irregular_point():
    # u + v rounds just below 1: f_u and f_v pass the tangent-plane test, and
    # det g rounds to 0, where the solve for the shape operator would fail
    surf = sf.surface_from_expr(["atan2(exp(1), cosh(pi)-v)", "cosh(1)^cos(u/u)", "asin(u+v)"],
                                ((-1.0, 1.0), (-1.5, 0.5)))
    u, v = 0.6666666666666666, 0.33333333333333326
    with pytest.raises(sf.IrregularPoint, match=r"degenerate metric at \(u, v\) = \(0.666667"):
        sf.jet_at(surf, u, v)
    with np.errstate(all="ignore"):
        batch = sf.jet_at(surf, np.array([u, 0.2]), np.array([v, 0.1]))
    assert np.isnan(batch.gaussian[0])
    assert _bits(batch.gaussian[1]) == _bits(sf.jet_at(surf, 0.2, 0.1).gaussian)
