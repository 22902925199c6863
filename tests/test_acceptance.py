"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""

import math
import time

import numpy as np
import pytest

from tensorgeom import coords as co
from tensorgeom import curve as cv
from tensorgeom import surface as sf
from tensorgeom import tensor2 as t2
from tensorgeom import tensor4 as t4
from tensorgeom.expr import parse


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_01_pseudosphere_curvature():
    ps = sf.revolution_surface("sin(u)", "cos(u)+ln(tan(u/2))", (0.25, 1.45))
    us = np.linspace(0.3, 1.4, 20)
    vs = np.linspace(-3.0, 3.0, 20)
    start = time.perf_counter()
    worst = 0.0
    for u in us:
        for v in vs:
            worst = max(worst, abs(sf.jet_at(ps, u, v).gaussian + 1.0))
    elapsed = time.perf_counter() - start
    report(1, "pseudo-sphere K = -1 on 400 interior points",
           worst < 1e-6 and elapsed < 1.0,
           f"max |K+1| = {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_02_minimal_surfaces():
    catenoid = sf.revolution_surface("cosh(u)", "u", (-1.0, 1.0))
    helicoid = sf.ruled_surface(["0*u", "0*u", "u"], ["cos(u)", "sin(u)", "0*u"],
                                (0.0, 6.0), (-2.0, 2.0))
    worst_h = 0.0
    all_hyperbolic = True
    for surf in (catenoid, helicoid):
        (u0, u1), (v0, v1) = surf.domain
        for u in np.linspace(u0 + 0.05, u1 - 0.05, 20):
            for v in np.linspace(v0 + 0.05, v1 - 0.05, 20):
                jd = sf.jet_at(surf, u, v)
                worst_h = max(worst_h, abs(jd.mean))
                kind = sf.classify_point(jd)
                if kind != "planar":
                    all_hyperbolic &= kind == "hyperbolic"
    report(2, "catenoid and helicoid: |H| < 1e-8, hyperbolic points",
           worst_h < 1e-8 and all_hyperbolic, f"max |H| = {worst_h:.2e}")


def test_criterion_03_helix_constants():
    helix = cv.Curve(parse(["a*cos(w*t)", "a*sin(w*t)", "b*w*t"], ["t"],
                           {"a": 2.0, "b": 1.0, "w": 1.0}), (0.0, 12.0))
    cs, ths = [], []
    for t in np.linspace(0.05, 11.95, 100):
        d = cv.frenet(helix, t)
        cs.append(d.curvature)
        ths.append(d.torsion)
    cs, ths = np.array(cs), np.array(ths)
    dev_c = np.max(np.abs(cs - 0.4))
    dev_t = np.max(np.abs(ths + 0.2))
    ratios = cs / ths
    dev_r = ratios.max() - ratios.min()
    report(3, "helix constants c = 2/5, torsion = -1/5 at 100 points",
           dev_c < 1e-8 and dev_t < 1e-8 and dev_r < 1e-10,
           f"dev_c = {dev_c:.1e}, dev_t = {dev_t:.1e}, ratio spread = {dev_r:.1e}")


def test_criterion_04_bonnet_roundtrip():
    c, th = 0.4, -0.2
    profile = cv.CurvatureProfile.build(lambda s: c, lambda s: th, (0.0, 10.0))
    res = cv.bonnet_reconstruct(profile, [2.0, 0.0, 0.0], np.eye(3), 1e-3)
    _, cc, tt = cv.discrete_frenet(res.s, res.points)
    dev_c = np.max(np.abs(cc - c))
    dev_t = np.max(np.abs(tt - th))
    drift = max(np.max(np.abs(res.frame(i) @ res.frame(i).T - np.eye(3)))
                for i in range(0, len(res.s), 500))
    report(4, "curve reconstruction roundtrip for the helix profile",
           dev_c < 1e-5 and dev_t < 1e-5 and drift < 1e-9,
           f"dev_c = {dev_c:.1e}, dev_t = {dev_t:.1e}, frame drift = {drift:.1e}")


def test_criterion_05_intrinsic_curvature():
    sphere = sf.surface_from_expr(["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
                                  ((-1.45, 1.45), (-3.1, 3.1)))
    catenoid = sf.revolution_surface("cosh(u)", "u", (-1.0, 1.0))
    torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.1, 3.1))
    worst = 0.0
    for surf in (sphere, catenoid, torus):
        (u0, u1), (v0, v1) = surf.domain
        for u in np.linspace(u0 + 0.05, u1 - 0.05, 20):
            for v in np.linspace(v0 + 0.05, v1 - 0.05, 20):
                ki = sf.egregium_curvature(surf, u, v)
                ks = sf.jet_at(surf, u, v).gaussian
                worst = max(worst, abs(ki - ks))
    report(5, "intrinsic K equals det of the shape operator on 20x20 grids",
           worst < 1e-6, f"max |diff| = {worst:.2e}")


def test_criterion_06_rotation_algebra():
    rng = np.random.default_rng(2026)
    worst_orth = worst_det = worst_tr = 0.0
    for _ in range(1000):
        w = t2.normalize(rng.normal(size=3))
        phi = rng.uniform(0.0, math.pi)
        R = t2.rotation_from_axis_angle(w, phi)
        worst_orth = max(worst_orth, t2.tensor_norm(R @ R.T - np.eye(3)))
        worst_det = max(worst_det, abs(t2.det(R) - 1.0))
        worst_tr = max(worst_tr, abs(t2.trace(R) - (1.0 + 2.0 * math.cos(phi))))
    report(6, "1000 rotations: orthogonality, determinant, trace formula",
           worst_orth < 1e-12 and worst_det < 1e-12 and worst_tr < 1e-12,
           f"orth = {worst_orth:.1e}, det = {worst_det:.1e}, tr = {worst_tr:.1e}")


def test_criterion_07_polar_decomposition():
    rng = np.random.default_rng(7)
    done = 0
    worst_rec = worst_vr = 0.0
    spd_ok = True
    while done < 1000:
        F = rng.normal(size=(3, 3))
        if t2.det(F) <= 0.1:
            continue
        done += 1
        dec = t2.polar(F)
        nF = t2.tensor_norm(F)
        worst_rec = max(worst_rec,
                        t2.tensor_norm(F - dec.rotation @ dec.right_stretch) / nF)
        worst_vr = max(worst_vr, t2.tensor_norm(
            dec.left_stretch - dec.rotation @ dec.right_stretch @ dec.rotation.T) / nF)
        for S in (dec.right_stretch, dec.left_stretch):
            spd_ok &= t2.tensor_norm(S - S.T) < 1e-12 * nF
            spd_ok &= t2.eigen_sym(S).values[2] > 0.0
    report(7, "1000 polar decompositions: reconstruction and SPD stretches",
           worst_rec < 1e-10 and worst_vr < 1e-10 and spd_ok,
           f"|F-RU|/|F| = {worst_rec:.1e}, |V-RUR^T|/|F| = {worst_vr:.1e}")


def test_criterion_08_kelvin_equivalence():
    rng = np.random.default_rng(8)
    worst_eq = worst_orth = 0.0
    for _ in range(200):
        EE = rng.normal(size=(3, 3, 3, 3))
        EE = 0.5 * (EE + np.transpose(EE, (1, 0, 2, 3)))
        EE = 0.5 * (EE + np.transpose(EE, (0, 1, 3, 2)))
        EE = 0.5 * (EE + np.transpose(EE, (2, 3, 0, 1)))
        U = t2.random_rotation(rng)
        KU = t4.kelvin_rotation(U)
        lhs = KU @ t4.to_kelvin(EE) @ KU.T
        rhs = t4.to_kelvin(t4.rotate4(EE, U))
        worst_eq = max(worst_eq, float(np.max(np.abs(lhs - rhs))))
        worst_orth = max(worst_orth, float(np.max(np.abs(KU @ KU.T - np.eye(6)))))
    report(8, "200 Kelvin conjugations match fourth-rank rotation",
           worst_eq < 1e-12 and worst_orth < 1e-13,
           f"equiv = {worst_eq:.1e}, orth = {worst_orth:.1e}")


def test_criterion_09_projector_identities():
    sph, dev, *_ = t4.projectors()
    vals = (abs(t4.inner4(sph, sph) - 1.0),
            abs(t4.inner4(dev, dev) - 5.0),
            abs(t4.inner4(sph, dev)),
            t4.norm4(t4.compose4(sph, sph) - sph),
            t4.norm4(t4.compose4(dev, dev) - dev),
            t4.norm4(t4.compose4(sph, dev)),
            t4.norm4(t4.compose4(dev, sph)))
    worst = max(vals)
    report(9, "projector inner products 1/5/0, idempotence, annihilation",
           worst < 1e-14, f"max residual = {worst:.1e}")


def test_criterion_10_christoffel_cross_check():
    rng = np.random.default_rng(10)
    charts = {
        "polar": (co.polar_map(), lambda: (rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0))),
        "cylindrical": (co.cylindrical_map(),
                        lambda: (rng.uniform(0.3, 4.0), rng.uniform(-3.0, 3.0),
                                 rng.uniform(-2.0, 2.0))),
        "spherical": (co.spherical_map(),
                      lambda: (rng.uniform(0.3, 4.0), rng.uniform(0.2, 2.9),
                               rng.uniform(-3.0, 3.0))),
        "oblique": (co.oblique_map(0.3, 1.2),
                    lambda: (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))),
    }
    worst = 0.0
    for name, (chart, draw) in charts.items():
        for _ in range(100):
            z = draw()
            g1 = co.christoffel(chart, z, "second_derivative")
            g2 = co.christoffel(chart, z, "metric_derivative")
            worst = max(worst, float(np.max(np.abs(g1 - g2))))
    r = 1.7
    gamma = co.christoffel(co.polar_map(), (r, 0.4))
    polar_dev = max(abs(gamma[0, 1, 1] + r), abs(gamma[1, 0, 1] - 1.0 / r))
    report(10, "connection formulas agree on 4 charts x 100 points",
           worst < 1e-8 and polar_dev < 1e-10,
           f"cross = {worst:.1e}, polar values = {polar_dev:.1e}")


def _random_poly_source(rng, degree):
    terms = []
    for _ in range(5):
        exps = rng.integers(0, degree + 1, size=3)
        while exps.sum() > degree:
            exps = rng.integers(0, degree + 1, size=3)
        c = int(rng.integers(-3, 4))
        if c:
            terms.append(f"({c})*x1^{exps[0]}*x2^{exps[1]}*x3^{exps[2]}")
    return "+".join(terms) if terms else "x1*x2"


def test_criterion_11_field_identities():
    rng = np.random.default_rng(11)
    names = ["x1", "x2", "x3"]
    h = 1e-5
    worst_ident = 0.0
    for _ in range(50):
        phi = parse(_random_poly_source(rng, 3), names)
        v = parse([_random_poly_source(rng, 3) for _ in range(3)], names)
        x = tuple(rng.uniform(-1.0, 1.0, size=3))
        # curl(grad phi) by differences of the exact gradient
        grad_at = lambda p: co.diff_ops("cartesian", "scalar", "grad", phi, p)
        jac = np.empty((3, 3))
        for k in range(3):
            xp, xm = list(x), list(x)
            xp[k] += h
            xm[k] -= h
            jac[:, k] = (grad_at(xp) - grad_at(xm)) / (2 * h)
        curl_grad = max(abs(jac[2, 1] - jac[1, 2]), abs(jac[0, 2] - jac[2, 0]),
                        abs(jac[1, 0] - jac[0, 1]))
        # div(curl v) by differences of the exact curl
        div = 0.0
        for k in range(3):
            xp, xm = list(x), list(x)
            xp[k] += h
            xm[k] -= h
            div += (co.diff_ops("cartesian", "vector", "curl", v, xp)[k]
                    - co.diff_ops("cartesian", "vector", "curl", v, xm)[k]) / (2 * h)
        worst_ident = max(worst_ident, curl_grad, abs(div))
    worst_gauss = 0.0
    for _ in range(10):
        v = parse([_random_poly_source(rng, 3) for _ in range(3)], names)
        res = co.integral_theorem_residual("gauss", v, ((0.0, 1.0),) * 3, order=8)
        worst_gauss = max(worst_gauss, res)
    report(11, "curl-grad / div-curl residuals and Gauss theorem on the cube",
           worst_ident < 1e-9 and worst_gauss < 1e-10,
           f"identities = {worst_ident:.1e}, gauss = {worst_gauss:.1e}")


def test_criterion_12_geodesics():
    sphere = sf.surface_from_expr(["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
                                  ((-1.5, 1.5), (-8.0, 8.0)))
    d0 = t2.normalize([0.6, 0.8])
    traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.0, 0.0, d0[0], d0[1]),
                                 2.0 * math.pi, 2e-3)
    p0 = sphere.point(0.0, 0.0)
    jd = sf.jet_at(sphere, 0.0, 0.0)
    t0 = t2.normalize(jd.ambient([traj.du[0], traj.dv[0]]))
    worst_dev = 0.0
    for i in range(0, len(traj.s), 25):
        expected = math.cos(traj.s[i]) * p0 + math.sin(traj.s[i]) * t0
        p = sphere.point(traj.u[i], traj.v[i])
        worst_dev = max(worst_dev, t2.norm(p - expected))

    torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3))
    worst_meridian = 0.0
    for u in np.linspace(-2.9, 2.9, 13):
        gamma = sf.jet_at(torus, u, 0.4).christoffel
        worst_meridian = max(worst_meridian, abs(gamma[0, 0, 0]), abs(gamma[1, 0, 0]))
    gamma_out = sf.jet_at(torus, 0.0, 0.4).christoffel      # radius stationary
    gamma_in = sf.jet_at(torus, math.pi, 0.4).christoffel   # radius stationary
    gamma_gen = sf.jet_at(torus, 0.9, 0.4).christoffel      # generic parallel
    parallels_ok = (abs(gamma_out[0, 1, 1]) < 1e-10
                    and abs(gamma_in[0, 1, 1]) < 1e-10
                    and abs(gamma_gen[0, 1, 1]) > 1e-3)
    report(12, "great circle over one period, meridians, torus parallels",
           worst_dev < 1e-6 and worst_meridian < 1e-10 and parallels_ok,
           f"circle dev = {worst_dev:.1e}, meridian = {worst_meridian:.1e}")


def test_criterion_13_frame_equation_battery():
    curves = [
        cv.Curve(parse(["2*cos(t)", "2*sin(t)", "t"], ["t"]), (0.2, 5.0)),
        cv.Curve(parse(["cos(t)+ln(tan(t/2))", "sin(t)"], ["t"]), (0.5, 1.4)),
        cv.Curve(parse(["t", "cosh(t)"], ["t"]), (-1.0, 1.0)),
        cv.Curve(parse(["t", "t^2", "t^3"], ["t"]), (0.2, 1.2)),
        cv.Curve(parse(["exp(0.2*t)*cos(t)", "exp(0.2*t)*sin(t)", "0.3*t"], ["t"]),
                 (0.0, 4.0)),
    ]
    h = 1e-4
    worst = 0.0
    for c in curves:
        lo, hi = c.domain
        for t in np.linspace(lo + 5 * h, hi - 5 * h, 7):
            sp = c.speed(t)
            f0 = cv.frenet(c, t)
            fp = cv.frenet(c, t + h)
            fm = cv.frenet(c, t - h)
            dtau = (fp.tangent - fm.tangent) / (2 * h * sp)
            dnu = (fp.normal - fm.normal) / (2 * h * sp)
            dbeta = (fp.binormal - fm.binormal) / (2 * h * sp)
            worst = max(worst,
                        t2.norm(dtau - f0.curvature * f0.normal),
                        t2.norm(dbeta - f0.torsion * f0.normal),
                        t2.norm(dnu + f0.curvature * f0.tangent
                                + f0.torsion * f0.binormal))
    report(13, "moving-frame equations along 5 curves", worst < 1e-5,
           f"max residual = {worst:.1e}")


def test_criterion_14_cayley_hamilton():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        L = rng.normal(size=(3, 3))
        i1, i2, i3 = t2.principal_invariants(L)
        residual = L @ L @ L - i1 * (L @ L) + i2 * L - i3 * np.eye(3)
        worst = max(worst, t2.tensor_norm(residual) / t2.tensor_norm(L) ** 3)
    report(14, "Cayley-Hamilton residual for 1000 random tensors",
           worst < 1e-10, f"max residual = {worst:.1e}")
