"""Curve analysis tests: arc length, frames, osculating objects, evolutes,
canonical coefficients and reconstruction from curvature/torsion."""

import math
import warnings

import numpy as np
import pytest

from tensorgeom import curve as cv
from tensorgeom import surface as sf
from tensorgeom.expr import (DomainError, NumericalFailure, _chunked, _raising, derivatives,
                             parse)
from tensorgeom.tensor2 import NotNearOrthogonal, _orthonormal_polish, norm, normalize

rng = np.random.default_rng(7)


def make_curve(sources, domain, constants=None, var="t"):
    return cv.Curve(parse(sources, [var], constants), domain)


@pytest.fixture(scope="module")
def helix():
    # radius 2, pitch slope 1: curvature 2/5, torsion -1/5
    return make_curve(["a*cos(t)", "a*sin(t)", "b*t"], (0.0, 12.0),
                      {"a": 2.0, "b": 1.0})


@pytest.fixture(scope="module")
def circle3():
    return make_curve(["3*cos(t)", "3*sin(t)"], (0.0, 2.0 * math.pi))


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------

def test_straight_segment_length():
    c = make_curve(["t", "0*t", "0*t"], (0.0, 2.0))
    assert cv.arc_length(c, 0.0, 2.0) == pytest.approx(2.0, abs=1e-12)


def test_circle_length(circle3):
    # closed form: circumference 2*pi*a with a = 3
    assert cv.arc_length(circle3, 0.0, 2.0 * math.pi) == pytest.approx(
        6.0 * math.pi, rel=1e-11)


def test_length_is_parameterization_invariant():
    # monotone substitution t -> t^3 over [eps, L]: same trace, same length
    a = make_curve(["3*cos(t)", "3*sin(t)"], (0.1, 1.2))
    b = make_curve(["3*cos(t^3)", "3*sin(t^3)"], (0.1 ** (1 / 3), 1.2 ** (1 / 3)))
    la = cv.arc_length(a, *a.domain)
    lb = cv.arc_length(b, *b.domain)
    assert la == pytest.approx(lb, rel=1e-10)


def test_arclength_table_monotone(helix):
    ts, s = cv.arclength_table(helix, 32)
    assert np.all(np.diff(s) > 0.0)
    assert s[-1] == pytest.approx(cv.arc_length(helix, *helix.domain), rel=1e-10)


def test_arclength_table_monotone_across_abs_kinks():
    # the speed jumps where sin(7 t) changes sign
    c = make_curve(["t", "abs(sin(7*t))+t^2"], (0.05, 3.0))
    ts, s = cv.arclength_table(c, 32)
    assert np.all(np.diff(s) > 0.0)
    assert s[-1] == pytest.approx(cv.arc_length(c, *c.domain), rel=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_speed_stops_a_length_and_a_table():
    c = make_curve(["1e300*t", "t", "0"], (0.0, 1.0))
    for length in (lambda: cv.arclength_table(c, 4), lambda: cv.arc_length(c, 0.0, 1.0)):
        with pytest.raises(cv.IrregularCurve, match=r"\|p'\| overflows at t = 0"):
            length()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_discrete_frenet_names_an_overflowing_step():
    # a unit-speed helix of curvature 1/2, whose torsion reads -1/2 in the sign convention here
    s = np.linspace(0.0, 2.0, 201)
    t = s / math.sqrt(2.0)
    points = np.column_stack([np.cos(t), np.sin(t), t])
    _, kappa, tau = cv.discrete_frenet(s, points)
    assert np.allclose(kappa, 0.5, rtol=1e-6) and np.allclose(tau, -0.5, rtol=1e-4)
    # scaled by 1e110 the torsion is about 5e-111, but h^3 is past the float range;
    # scaled by 1e-110, h^3 underflows to 0; on a straight line p' x p'' is 0
    line = np.column_stack([s, 2.0 * s, -s])
    for scale, curve, error, message in [(1e110, points, NumericalFailure, r"h\^3 overflows"),
                                         (1e-110, points, NumericalFailure, r"h\^3 underflows"),
                                         (1.0, line, cv.UndefinedNormal, r"\| is 0 at s = 0\.02:")]:
        with pytest.raises(error, match=message):
            cv.discrete_frenet(scale * s, scale * curve)


@pytest.mark.parametrize("sources, domain, exact", [
    (["t - sin(t)", "1 - cos(t)"], (0.1, 2.0 * math.pi - 0.1), 8.0 * math.cos(0.05)),
    (["t", "cosh(t)"], (0.0, 2.0), math.sinh(2.0)),
    (["t", "t^2"], (0.0, 1.0), (2.0 * math.sqrt(5.0) + math.asinh(2.0)) / 4.0),
    # the speed jumps at t = 0, so the first panel fails and integrate bisects
    (["t", "abs(t) + t"], (-1.0, 2.0), 1.0 + 2.0 * math.sqrt(5.0)),
], ids=["cycloid", "catenary", "parabola", "speed jump"])
def test_length_matches_closed_form(sources, domain, exact):
    c = make_curve(sources, domain)
    top_speed = max(c.speed(t) for t in np.linspace(*domain, 257))
    requested = max(1e-10 * (domain[1] - domain[0]) * top_speed, 1e-12 * exact)
    assert abs(cv.arc_length(c, *domain) - exact) <= requested


@pytest.mark.parametrize("sources, domain", [
    (["t", "abs(t-1)"], (0.0, 2.0)),    # the kink is a scan sample
    (["t", "abs(t)"], (0.0, 1.0)),      # ... the first one
    (["t", "abs(t-0.5)"], (0.0, 2.0)),
])
def test_length_with_a_kink_on_a_scan_sample(sources, domain):
    # the speed is sqrt(2) on both sides of the kink, where its jet is undefined
    exact = math.sqrt(2.0) * (domain[1] - domain[0])
    length = cv.arc_length(make_curve(sources, domain), *domain)
    assert abs(length - exact) <= 1e-10 * (domain[1] - domain[0]) * math.sqrt(2.0)


def test_panel_nodes_in_one_batch_equal_node_by_node(helix):
    speed = lambda t: norm(helix.velocity(t))
    # NaN from every batch: integrate evaluates each node alone
    one_by_one = lambda t: speed(t) if np.ndim(t) == 0 else np.full(np.shape(t), np.nan)
    for a, b in ((0.0, 12.0), (0.3, 0.7), (-2.0, 5.0)):
        assert cv.integrate(speed, a, b, 1e-12) == cv.integrate(one_by_one, a, b, 1e-12)


def test_length_that_does_not_converge_names_the_interval():
    # smooth, but about a thousand oscillations (a kink of abs is a panel edge instead)
    c = make_curve(["t", "sin(2000*t)"], (0.05, 3.0))
    with pytest.raises(cv.QuadratureFailure, match=r"\[0\.05, 3\] did not converge"):
        cv.arc_length(c, 0.05, 3.0)


def test_irregular_curve_rejected():
    c = make_curve(["t^3", "0*t", "0*t"], (-1.0, 1.0))
    with pytest.raises(cv.IrregularCurve):
        cv.arc_length(c, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Frenet frame, curvature, torsion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sources, domain", [
    # |p'|^3 = 1e315 overflows at every t, |p' x p''|^2 too at t = 0
    (["1e105*t", "1e100*t^2", "0"], (-1.0, 1.0)),
    # |p'| = e^t itself: it was taken for 0 against the curve's overflowing scale
    (["exp(t)", "t", "0*t"], (700.0, 709.7)),
    # |p'|^3 = 1e450, where |p|^2 overflows but |p| = 1e155 does not
    (["1e150*t", "1e155 + 1e150*t^2", "0*t"], (1.0, 2.0)),
], ids=["cube", "norm", "scale"])
def test_overflowing_speed_is_an_irregular_point_named_by_t(sources, domain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning
        c = cv.Curve(parse(sources, ["t"]), domain)
        ts = (domain[0], sum(domain) / 2, domain[1])
        for t in ts:
            with pytest.raises(cv.IrregularCurve, match=rf"overflows at t = {t:g}$"):
                cv.frenet(c, t)
        frames = cv.frenet(c, np.array(ts))  # a batch marks all three
    assert np.isnan(frames.curvature).all()


def test_circle_curvature_and_torsion(circle3):
    # oracle by hand for p = (a cos t, a sin t, 0):
    #   |p' x p''| = a^2, |p'| = a  ->  c = 1/a;  p''' in-plane -> torsion 0
    for t in np.linspace(0.1, 6.0, 9):
        d = cv.frenet(circle3, t)
        assert d.curvature == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert d.torsion == pytest.approx(0.0, abs=1e-12)
        assert d.radius == pytest.approx(3.0, rel=1e-12)


def test_helix_constants(helix):
    # frozen from the derivative oracle: c = a/(a^2+b^2), torsion = -b/(a^2+b^2)
    for t in np.linspace(0.0, 11.0, 23):
        d = cv.frenet(helix, t)
        assert d.curvature == pytest.approx(0.4, rel=1e-12)
        assert d.torsion == pytest.approx(-0.2, rel=1e-12)


def test_frame_orthonormal_right_handed(helix):
    d = cv.frenet(helix, 1.7)
    E = np.array([d.tangent, d.normal, d.binormal])
    assert np.allclose(E @ E.T, np.eye(3), atol=1e-13)
    assert np.linalg.det(E) == pytest.approx(1.0, rel=1e-12)


def test_planar_torsion_zero():
    c = make_curve(["t", "t^2-0.3*t^3"], (-1.0, 1.0))
    for t in np.linspace(-0.9, 0.9, 7):
        assert abs(cv.frenet(c, t).torsion) < 1e-12


def test_straight_line_normal_undefined():
    c = make_curve(["t", "2*t", "3*t"], (0.0, 1.0))
    with pytest.raises(cv.UndefinedNormal):
        cv.frenet(c, 0.5)


def test_normal_invariant_under_orientation_flip():
    fwd = make_curve(["cos(t)", "sin(t)", "0.5*t^2"], (0.2, 1.5))
    bwd = make_curve(["cos(-t)", "sin(-t)", "0.5*(-t)^2"], (-1.5, -0.2))
    for t in np.linspace(0.3, 1.4, 5):
        df = cv.frenet(fwd, t)
        db = cv.frenet(bwd, -t)
        assert np.allclose(df.normal, db.normal, atol=1e-10)
        assert np.allclose(df.tangent, -db.tangent, atol=1e-10)


def test_frenet_serret_residuals_along_arc(helix):
    # derivative of the frame by central differences in s
    h = 1e-4
    for t in np.linspace(0.5, 10.0, 8):
        sp = helix.speed(t)
        f0, fp, fm = (cv.frenet(helix, x) for x in (t, t + h, t - h))
        dtau = (fp.tangent - fm.tangent) / (2 * h * sp)
        dnu = (fp.normal - fm.normal) / (2 * h * sp)
        dbeta = (fp.binormal - fm.binormal) / (2 * h * sp)
        c, th = f0.curvature, f0.torsion
        assert norm(dtau - c * f0.normal) < 1e-5
        assert norm(dbeta - th * f0.normal) < 1e-5
        assert norm(dnu + c * f0.tangent + th * f0.binormal) < 1e-5


def test_bertrand_ratio_constant(helix):
    ratios = [cv.frenet(helix, t).curvature / cv.frenet(helix, t).torsion
              for t in np.linspace(0.0, 11.0, 40)]
    assert max(ratios) - min(ratios) < 1e-8


def test_product_rule_on_expression_curves():
    # (u . v)' = u' . v + u . v' on two random polynomial curves
    u = make_curve(["t^2-1", "t^3", "2*t"], (0.0, 2.0))
    v = make_curve(["3*t", "t^2", "t^3-t"], (0.0, 2.0))
    for t in np.linspace(0.1, 1.9, 7):
        u0, u1 = u.derivatives(t, 1)
        v0, v1 = v.derivatives(t, 1)
        h = 1e-6
        dot = lambda s: float(np.dot(u.point(s), v.point(s)))
        fd = (dot(t + h) - dot(t - h)) / (2 * h)
        assert fd == pytest.approx(float(np.dot(u1, v0) + np.dot(u0, v1)), rel=1e-8)
        crs = lambda s: np.cross(u.point(s), v.point(s))
        fd_cross = (crs(t + h) - crs(t - h)) / (2 * h)
        assert np.allclose(fd_cross, np.cross(u1, v0) + np.cross(u0, v1), atol=1e-7)


# ---------------------------------------------------------------------------
# osculating circle and sphere
# ---------------------------------------------------------------------------

def test_circle_osculates_itself(circle3):
    for t in (0.3, 2.0, 4.4):
        center, radius, _, _ = cv.osculating(circle3, t)
        assert np.allclose(center, [0.0, 0.0, 0.0], atol=1e-10)
        assert radius == pytest.approx(3.0, rel=1e-12)


def test_constant_curvature_sphere_center(helix):
    center, radius, s_center, s_radius = cv.osculating(helix, 1.0)
    assert s_center is not None
    assert np.allclose(s_center, center, atol=1e-9)  # rho' = 0
    assert s_radius == pytest.approx(radius, rel=1e-9)


def test_helix_sphere_radius_constant(helix):
    radii = [cv.osculating(helix, t)[3] for t in np.linspace(0.5, 10.0, 9)]
    assert max(radii) - min(radii) < 1e-9


def test_viviani_curve_osculates_its_sphere():
    # Viviani's curve lies on the sphere |x| = 2a, which is therefore its
    # osculating sphere wherever the torsion is not 0; its dc/ds is not 0
    a = 1.3
    viviani = make_curve(["a*(1+cos(t))", "a*sin(t)", "2*a*sin(t/2)"], (0.1, 6.0), {"a": a})
    for t in (0.5, 1.7, 2.9, 4.4):
        assert abs(cv.canonical_coefficients(viviani, t)[1]) > 0.01
        _, _, center, radius = cv.osculating(viviani, t)
        assert np.allclose(center, 0.0, atol=1e-12)
        assert radius == pytest.approx(2.0 * a, rel=1e-12)


def test_sphere_undefined_for_plane_curve(circle3):
    with pytest.raises(cv.UndefinedOsculatingSphere):
        cv.osculating_sphere(circle3, 1.0)


# ---------------------------------------------------------------------------
# evolutes
# ---------------------------------------------------------------------------

def test_circle_evolute_degenerates_to_center(circle3):
    for t in np.linspace(0.0, 6.0, 7):
        assert np.allclose(cv.evolute(circle3, t), [0.0, 0.0, 0.0], atol=1e-10)


def test_tractrix_evolute_is_catenary():
    # the tractrix has a cusp at t = pi/2; sample on either side of it
    tr = make_curve(["cos(t)+ln(tan(t/2))", "sin(t)"], (0.4, math.pi - 0.4))
    samples = list(np.linspace(0.5, 1.35, 5)) + list(np.linspace(1.8, math.pi - 0.5, 5))
    for t in samples:
        q = cv.evolute(tr, t)
        assert math.cosh(q[0]) == pytest.approx(q[1], abs=1e-6)


def test_evolute_tangent_parallel_to_normal():
    ellipse = make_curve(["2*cos(t)", "sin(t)"], (0.0, 2.0 * math.pi))
    h = 1e-5
    for t in (0.7, 1.9, 3.3):
        tangent = (cv.evolute(ellipse, t + h) - cv.evolute(ellipse, t - h)) / (2 * h)
        nu = cv.frenet(ellipse, t).normal
        assert norm(np.cross(normalize(tangent), nu)) < 1e-6


def test_evolute_rejects_space_curves(helix):
    with pytest.raises(cv.NotPlanarCurve):
        cv.evolute(helix, 1.0)


# ---------------------------------------------------------------------------
# canonical coefficients
# ---------------------------------------------------------------------------

def test_canonical_planar_curve_no_torsion(circle3):
    c0, c0p, th0 = cv.canonical_coefficients(circle3, 0.8)
    assert th0 == pytest.approx(0.0, abs=1e-12)
    assert c0 == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert c0p == pytest.approx(0.0, abs=1e-12)


def test_canonical_helix_constant(helix):
    vals = [cv.canonical_coefficients(helix, t) for t in (0.5, 2.5, 7.0)]
    for c0, c0p, th0 in vals:
        assert c0 == pytest.approx(0.4, rel=1e-12)
        assert c0p == pytest.approx(0.0, abs=1e-10)
        assert th0 == pytest.approx(-0.2, rel=1e-12)


def test_canonical_curvature_rate_of_an_ellipse():
    a, b = 2.0, 0.7
    ellipse = make_curve(["a*cos(t)", "b*sin(t)"], (0.0, 2.0 * math.pi), {"a": a, "b": b})
    for t in (0.4, 1.1, 2.5, 5.0):
        want = (-3.0 * a * b * (a * a - b * b) * math.sin(t) * math.cos(t)
                / (a * a * math.sin(t) ** 2 + b * b * math.cos(t) ** 2) ** 3)
        assert cv.canonical_coefficients(ellipse, t)[1] == pytest.approx(want, rel=1e-12)


def test_canonical_matches_local_expansion(helix):
    # the osculating-plane projection is p2 = c0/2 p1^2 + O(p1^3)
    t0 = 1.3
    d = cv.frenet(helix, t0)
    c0, _, _ = cv.canonical_coefficients(helix, t0)
    ds = 1e-3
    # walk a short arc and project onto the local frame
    t1 = t0 + ds / helix.speed(t0)
    delta = helix.point(t1) - d.point
    p1 = float(np.dot(delta, d.tangent))
    p2 = float(np.dot(delta, d.normal))
    assert p2 == pytest.approx(0.5 * c0 * p1 ** 2, rel=2e-2)


# ---------------------------------------------------------------------------
# curve reconstruction
# ---------------------------------------------------------------------------

def test_reconstruct_circle():
    a = 2.0
    profile = cv.CurvatureProfile.build(lambda s: 1.0 / a, lambda s: 0.0,
                                        (0.0, 2.0 * math.pi * a))
    res = cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1e-3)
    center = np.array([0.0, a, 0.0])
    dev = np.abs(np.linalg.norm(res.points - center, axis=1) - a)
    assert dev.max() < 1e-6
    # unit-speed samples
    speeds = np.linalg.norm(np.diff(res.points, axis=0), axis=1) / np.diff(res.s)
    assert np.max(np.abs(speeds - 1.0)) < 1e-6


def test_reconstruct_helix_roundtrip():
    c, th = 0.4, -0.2
    profile = cv.CurvatureProfile.build(lambda s: c, lambda s: th, (0.0, 10.0))
    res = cv.bonnet_reconstruct(profile, [2.0, 0.0, 0.0], np.eye(3), 1e-3)
    _, cc, tt = cv.discrete_frenet(res.s, res.points)
    assert np.max(np.abs(cc - c)) < 1e-5
    assert np.max(np.abs(tt - th)) < 1e-5
    # frame drift
    for i in (len(res.s) // 2, len(res.s) - 1):
        E = res.frame(i)
        assert np.max(np.abs(E @ E.T - np.eye(3))) < 1e-9


def test_reconstruct_frames_stay_orthonormal_to_rounding_over_10000_steps():
    k = {"c0": 1.1, "c1": 0.4, "w1": 1.3, "t0": 0.5, "t1": 0.2, "w2": 0.8}
    profile = cv.CurvatureProfile.build(parse("c0 + c1*sin(w1*s)", ["s"], k),
                                        parse("t0 + t1*cos(w2*s)", ["s"], k), (0.0, 10.0))
    res = cv.bonnet_reconstruct(profile, [0.1, 0.2, 0.3], np.eye(3), 1e-3)
    assert len(res.s) == 10001
    E = np.stack([res.tangents, res.normals, res.binormals], axis=1)
    assert np.max(np.abs(E @ E.transpose(0, 2, 1) - np.eye(3))) <= 1e-15


def test_reconstruct_with_a_step_too_coarse_for_the_curvature_names_s():
    profile = cv.CurvatureProfile.build(lambda s: 10.0, lambda s: 0.0, (0.0, 5.0))
    with pytest.raises(NotNearOrthogonal, match=r"step to s = 1 leaves the frame .* "
                                                 r"the step 1 is too coarse"):
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1.0)


def test_reconstruct_profile_maps():
    c_map = parse("0.5+0*s", ["s"])
    t_map = parse("0*s", ["s"])
    profile = cv.CurvatureProfile.build(c_map, t_map, (0.0, 1.0))
    res = cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1e-3)
    assert len(res.s) == 1001


def test_reconstruct_rejects_zero_curvature():
    profile = cv.CurvatureProfile.build(lambda s: 0.0, lambda s: 0.0, (0.0, 1.0))
    with pytest.raises(cv.UndefinedNormal):
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1e-3)


def test_reconstruct_rejects_bad_frame():
    profile = cv.CurvatureProfile.build(lambda s: 1.0, lambda s: 0.0, (0.0, 1.0))
    with pytest.raises(cv.NonOrthonormalSeed):
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3) * 1.5, 1e-3)
    flipped = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(cv.NonOrthonormalSeed):
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], flipped, 1e-3)


def _step_loop_error(profile, step):
    """The error of the single-point calls of an RK4 step loop, in its order:
    curvature, then torsion, at each step's start, midpoint and end."""
    s0, s1 = profile.s_range
    n = int(round((s1 - s0) / step))
    h = (s1 - s0) / n
    with pytest.raises(DomainError) as err:
        for i in range(n):
            s = s0 + i * h
            for x in (s, s + 0.5 * h, s + h):
                profile.curvature(x)
                profile.torsion(x)
    return err.value


def test_profile_failing_at_interior_nodes_raises_as_the_step_loop():
    # in step 10 the torsion fails at the midpoint s = 0.0105, before the
    # curvature fails at its end s = 0.011: both inside one chunk
    c_map = parse("1 + sqrt(abs(s - 0.011) - 0.00002)", ["s"])
    t_map = parse("0.3 + sqrt(abs(s - 0.0105) - 0.00002)", ["s"])
    profile = cv.CurvatureProfile.build(c_map, t_map, (0.0, 1.0))
    with pytest.raises(DomainError) as err:
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1e-3)
    want = _step_loop_error(profile, 1e-3)
    assert "0.0105" in want.expression
    assert (str(err.value), err.value.offset) == (str(want), want.offset)
    # without the torsion's node, the curvature's
    profile = cv.CurvatureProfile.build(c_map, parse("0.3", ["s"]), (0.0, 1.0))
    with pytest.raises(DomainError) as err:
        cv.bonnet_reconstruct(profile, [0.0, 0.0, 0.0], np.eye(3), 1e-3)
    assert str(err.value) == str(_step_loop_error(profile, 1e-3))


def test_reconstruct_from_tables_and_constant_callables():
    nodes = [0.0, 4.0, 10.0]
    constant = cv.CurvatureProfile.build(lambda s: 0.4, lambda s: -0.2, (0.0, 3.0))
    table = cv.CurvatureProfile.build((nodes, [0.4] * 3), (nodes, [-0.2] * 3), (0.0, 3.0))
    a, b = (cv.bonnet_reconstruct(p, [2.0, 0.0, 0.0], np.eye(3), 1e-3) for p in (constant, table))
    assert np.array_equal(a.points, b.points) and np.array_equal(a.binormals, b.binormals)
    # a varying table: unit speed, orthonormal frames, its curvature at s = 2
    varying = cv.CurvatureProfile.build((nodes, [0.3, 0.7, 0.5]), (nodes, [0.1, -0.1, 0.2]),
                                        (0.0, 3.0))
    res = cv.bonnet_reconstruct(varying, [0.0, 0.0, 0.0], np.eye(3), 1e-3)
    speeds = np.linalg.norm(np.diff(res.points, axis=0), axis=1) / np.diff(res.s)
    assert np.max(np.abs(speeds - 1.0)) < 1e-6
    E = res.frame(len(res.s) - 1)
    assert np.max(np.abs(E @ E.T - np.eye(3))) < 1e-9
    _, cc, _ = cv.discrete_frenet(res.s, res.points)
    assert cc[2000 - 2] == pytest.approx(0.5, abs=1e-4)


def test_planar_map_is_lifted_to_the_plane_x3_0():
    written = parse(["2*cos(t)", "sin(t)"], ["t"])
    c = cv.Curve(written, (0.0, 6.0))
    assert c.map.dimension == 3 and c.map.components[:2] == written.components
    assert c.point(0.5).tolist() == [*written(0.5), 0.0]
    assert [j.coef for j in c.map.eval_jet((0.5,))] == \
        [j.coef for j in written.eval_jet((0.5,))] + [[0.0] * 4]
    assert c.point(np.array([0.5, 1.0]))[:, 2].tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# the RK4 step on lists against the step on state arrays it replaced
# ---------------------------------------------------------------------------

def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _array_rk4(f, y, h):
    """The RK4 step on a state array, as both integrators took it before."""
    k1 = f(0, y)
    k2 = f(1, y + 0.5 * h * k1)
    k3 = f(1, y + 0.5 * h * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _cartan_rows(c, theta, Y):
    """p' = T and the Frenet-Serret equations on the (4, 3) rows (p, T, N, B)."""
    out = np.empty_like(Y)
    out[0] = Y[1]
    out[1] = c * Y[2]
    out[2] = -c * Y[1] - theta * Y[3]
    out[3] = theta * Y[2]
    return out


def _geodesic_rhs(surface):
    """The geodesic right-hand side on [u, v, du, dv]: floats, or arrays over a batch."""
    def rhs(_, y):
        u, v, du, dv = y
        D = derivatives(surface.map, (u, v), sf._SECOND)
        f_ww = [du * du * xuu + 2.0 * du * dv * xuv + dv * dv * xvv
                for xuu, xuv, xvv in zip(*D[3:])]
        a, b = sf._tangential(D, f_ww, sf._metric(D, u, v))
        return [du, dv, -a, -b]
    return rhs


def test_geodesic_table_equals_the_array_step_bit_for_bit():
    torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3), v_domain=(-40.0, 40.0))
    traj = sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3), 2.0, 1e-3)
    g = sf.jet_at(torus, 0.5, 0.0).first_form
    w = np.array([0.3, 0.3])
    y = np.array([0.5, 0.0, *(w / math.sqrt(w @ g @ w))])
    rhs = _geodesic_rhs(torus)
    want = [(0.0, *y)]
    for i in range(2000):
        y = _array_rk4(lambda j, y_: np.array(rhs(j, y_.tolist())), y, 1e-3)
        want.append(((i + 1) * 1e-3, *y))
    got = np.stack([traj.s, traj.u, traj.v, traj.du, traj.dv], axis=1)
    assert np.array_equal(_bits(got), _bits(want))


def test_bonnet_table_equals_the_array_step_bit_for_bit():
    profile = cv.CurvatureProfile.build(parse("1+0.5*sin(s)", ["s"]),
                                        parse("0.3*cos(2*s)", ["s"]), (0.0, 3.0))
    res = cv.bonnet_reconstruct(profile, [0.1, 0.2, 0.3], np.eye(3), 1e-3)
    h = 1e-3
    starts = np.arange(3000) * h
    rows = _raising(_chunked(lambda *xs: [f(x) for x in xs for f in (profile.curvature,
                                                                     profile.torsion)],
                             starts, starts + 0.5 * h, starts + h))
    states = np.empty((3001, 4, 3))
    states[0] = [[0.1, 0.2, 0.3], *np.eye(3)]
    for i, row in enumerate(rows):
        Y = _array_rk4(lambda j, y: _cartan_rows(row[2 * j], row[2 * j + 1], y), states[i], h)
        Y[1:] = np.reshape(_orthonormal_polish(Y[1:].ravel().tolist()), (3, 3))
        states[i + 1] = Y
    got = np.stack([res.points, res.tangents, res.normals, res.binormals], axis=1)
    assert np.array_equal(_bits(got), _bits(states))


def test_rk4_on_a_list_of_arrays_steps_each_entry_as_alone():
    """A state of arrays of shape (n,) is n states in one step: the property a
    fan of geodesics from one RK4 loop relies on."""
    torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3))
    n = 6
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    fan = [np.full(n, 0.5), np.full(n, 0.2), 0.3 * np.cos(angles), 0.3 * np.sin(angles)]
    alone = [[float(x[k]) for x in fan] for k in range(n)]
    c, theta = rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n)
    frames = [rng.uniform(-1.0, 1.0, n) for _ in range(12)]
    frames_alone = [[float(x[k]) for x in frames] for k in range(n)]
    rhs = _geodesic_rhs(torus)
    for _ in range(20):
        fan = cv._rk4(rhs, fan, 1e-2)
        alone = [cv._rk4(rhs, y, 1e-2) for y in alone]
        frames = cv._rk4(lambda j, y: cv._cartan_rhs(c, theta, y), frames, 1e-2)
        frames_alone = [cv._rk4(lambda j, y: cv._cartan_rhs(c[k], theta[k], y), y, 1e-2)
                        for k, y in enumerate(frames_alone)]
    assert np.array_equal(_bits(np.transpose(fan)), _bits(alone))
    assert np.array_equal(_bits(np.transpose(frames)), _bits(frames_alone))
