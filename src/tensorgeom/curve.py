"""Parametric curves in 3-space: arc length, moving frames, curvature and
torsion, osculating circle/sphere, evolutes, canonical-form coefficients and
reconstruction of a curve from prescribed curvature/torsion profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .expr import ExprMap, Jet, NumericalFailure
from .tensor2 import cross, inverse, mixed, norm, normalize, sqrt_spd

__all__ = [
    "IrregularCurve", "UndefinedNormal", "UndefinedOsculatingSphere",
    "NotPlanarCurve", "NonOrthonormalSeed",
    "Curve", "FrenetData", "CurvatureProfile", "BonnetResult",
    "arc_length", "arclength_table", "frenet", "osculating", "evolute",
    "canonical_coefficients", "bonnet_reconstruct", "discrete_frenet",
]


class IrregularCurve(NumericalFailure, ValueError):
    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class UndefinedNormal(NumericalFailure, ValueError):
    pass


class UndefinedOsculatingSphere(NumericalFailure, ValueError):
    pass


class NotPlanarCurve(NumericalFailure, ValueError):
    pass


class NonOrthonormalSeed(NumericalFailure, ValueError):
    pass


_REG_TOL = 1e-10
_SCALE_SAMPLES = 128  # parameter samples that set a curve's length scale


class Curve:
    """Expression-defined curve with a parameter interval.

    The map must have one variable and two or three components; planar
    curves are embedded in the plane x3 = 0.
    """

    def __init__(self, cmap: ExprMap, domain: tuple[float, float]):
        if cmap.arity != 1:
            raise ValueError("a curve map takes exactly one variable")
        if cmap.dimension not in (2, 3):
            raise ValueError("a curve map needs 2 or 3 components")
        if not domain[0] < domain[1]:
            raise ValueError("empty parameter interval")
        self.map = cmap
        self.domain = (float(domain[0]), float(domain[1]))
        ts = np.linspace(*self.domain, _SCALE_SAMPLES)
        pts = np.array([self._point_unchecked(t) for t in ts])
        self.scale = float(np.max(np.linalg.norm(pts, axis=1)))
        self._planar = bool(np.max(np.abs(pts[:, 2])) <= _REG_TOL * max(self.scale, 1.0))

    # -- evaluation helpers ---------------------------------------------
    def _point_unchecked(self, t: float) -> np.ndarray:
        vals = self.map(t)
        if len(vals) == 2:
            vals = [vals[0], vals[1], 0.0]
        return np.array(vals, dtype=float)

    def jets(self, t: float, order: int = 3) -> list[Jet]:
        out = self.map.eval_jet((t,), order)
        if len(out) == 2:
            out = list(out) + [Jet.constant(0.0, 1, order)]
        return out

    def derivatives(self, t: float, order: int = 3) -> list[np.ndarray]:
        """[p, p', p'', ...] up to the requested order."""
        jets = self.jets(t, order)
        return [np.array([j.partial(k) for j in jets]) for k in range(order + 1)]

    def point(self, t: float) -> np.ndarray:
        return self._point_unchecked(t)

    def velocity(self, t: float) -> np.ndarray:
        return self.derivatives(t, 1)[1]

    def speed(self, t: float) -> float:
        v = norm(self.velocity(t))
        if v <= _REG_TOL * max(self.scale, 1.0):
            raise IrregularCurve(f"|p'({t:g})| = {v:g} below regularity tolerance", t=t)
        return v

    @property
    def is_planar(self) -> bool:
        return self._planar


@dataclass(frozen=True)
class FrenetData:
    """Frame and curvature data of a curve at one parameter value."""

    t: float
    point: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    binormal: np.ndarray
    curvature: float
    torsion: float
    radius: float


# ---------------------------------------------------------------------------
# arc length
# ---------------------------------------------------------------------------

def arc_length(curve: Curve, t0: float, t1: float) -> float:
    """Length of the arc between t0 < t1 by adaptive quadrature of |p'|."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    ts = np.linspace(t0, t1, 257)
    speeds = [curve.speed(t) for t in ts]  # also enforces regularity
    epsabs = 1e-10 * (t1 - t0) * max(speeds)
    value, _ = quad(lambda t: norm(curve.derivatives(t, 1)[1]), t0, t1,
                    epsabs=epsabs, epsrel=1e-12, limit=200)
    return float(value)


def arclength_table(curve: Curve, n: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative arc length s(t) on an n+1 point grid over the full domain."""
    t0, t1 = curve.domain
    ts = np.linspace(t0, t1, n + 1)
    s = np.zeros(n + 1)
    for i in range(n):
        seg, _ = quad(lambda t: norm(curve.derivatives(t, 1)[1]), ts[i], ts[i + 1],
                      epsabs=1e-12, epsrel=1e-12, limit=100)
        s[i + 1] = s[i] + seg
    if np.any(np.diff(s) <= 0.0):
        raise IrregularCurve("arc length is not strictly increasing")
    return ts, s


# ---------------------------------------------------------------------------
# Frenet machinery
# ---------------------------------------------------------------------------

def _frenet_core(p1: np.ndarray, p2: np.ndarray, p3: np.ndarray, scale: float, t: float):
    v = norm(p1)
    if v <= _REG_TOL * max(scale, 1.0):
        raise IrregularCurve(f"|p'({t:g})| below regularity tolerance", t=t)
    w = cross(p1, p2)
    nw = norm(w)
    if nw <= _REG_TOL * v * v:
        raise UndefinedNormal("p' and p'' are parallel; the principal normal "
                              "is undefined (straight-line point)")
    tangent = p1 / v
    curvature = nw / v ** 3
    torsion = -float(np.dot(w, p3)) / nw ** 2
    normal = normalize(p2 - np.dot(p2, tangent) * tangent)
    binormal = cross(tangent, normal)
    return tangent, normal, binormal, curvature, torsion


def frenet(curve: Curve, t: float) -> FrenetData:
    p0, p1, p2, p3 = curve.derivatives(t, 3)
    tangent, normal, binormal, c, theta = _frenet_core(p1, p2, p3, curve.scale, t)
    return FrenetData(t, p0, tangent, normal, binormal, c, theta, 1.0 / c)


def _curvature_s_derivative(curve: Curve, t: float) -> tuple[float, float]:
    """(curvature, d(curvature)/ds) from exact jets."""
    jets = curve.jets(t, 3)
    d1 = [j.deriv() for j in jets]                  # order-2 jets of p'
    d2 = [j.truncated(1) for j in (k.deriv() for k in d1)]  # order-1 jets of p''
    d1 = [j.truncated(1) for j in d1]
    cx = d1[1] * d2[2] - d1[2] * d2[1]
    cy = d1[2] * d2[0] - d1[0] * d2[2]
    cz = d1[0] * d2[1] - d1[1] * d2[0]
    cross_norm = (cx * cx + cy * cy + cz * cz).sqrt()
    speed = (d1[0] * d1[0] + d1[1] * d1[1] + d1[2] * d1[2]).sqrt()
    c_jet = cross_norm / (speed * speed * speed)
    return c_jet.value, c_jet.partial(1) / speed.value


def osculating(curve: Curve, t: float):
    """Osculating circle (center, radius) and, off planar points, the
    osculating sphere (center, radius)."""
    data = frenet(curve, t)
    rho = data.radius
    circle_center = data.point + rho * data.normal
    c, dc_ds = _curvature_s_derivative(curve, t)
    if abs(data.torsion) <= 1e-10 * c:
        return circle_center, rho, None, None
    drho_ds = -dc_ds / c ** 2
    offset = drho_ds / data.torsion
    sphere_center = circle_center - offset * data.binormal
    sphere_radius = math.hypot(rho, offset)
    return circle_center, rho, sphere_center, sphere_radius


def osculating_sphere(curve: Curve, t: float):
    _, _, center, radius = osculating(curve, t)
    if center is None:
        raise UndefinedOsculatingSphere("the osculating sphere is undefined at "
                                        "planar points")
    return center, radius


def evolute(curve: Curve, t: float) -> np.ndarray:
    """Center of the osculating circle of a plane curve."""
    if not curve.is_planar:
        raise NotPlanarCurve("the evolute is defined for plane curves only")
    data = frenet(curve, t)
    return data.point + data.radius * data.normal


def canonical_coefficients(curve: Curve, t0: float) -> tuple[float, float, float]:
    """(c0, dc/ds at t0, torsion0): the coefficients of the local projections
    onto the osculating / rectifying / normal planes."""
    data = frenet(curve, t0)
    _, dc_ds = _curvature_s_derivative(curve, t0)
    return data.curvature, dc_ds, data.torsion


# ---------------------------------------------------------------------------
# reconstruction from curvature and torsion
# ---------------------------------------------------------------------------

def _as_callable(f) -> Callable[[float], float]:
    if isinstance(f, ExprMap):
        if f.arity != 1 or f.dimension != 1:
            raise ValueError("profile maps must be scalar functions of one variable")
        return lambda s: f(s)[0]
    if callable(f):
        return f
    nodes, values = f
    nodes = np.asarray(nodes, float)
    values = np.asarray(values, float)
    return lambda s: float(np.interp(s, nodes, values))


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature and torsion as functions of arc length."""

    curvature: Callable[[float], float]
    torsion: Callable[[float], float]
    s_range: tuple[float, float]

    @classmethod
    def build(cls, curvature, torsion, s_range) -> "CurvatureProfile":
        return cls(_as_callable(curvature), _as_callable(torsion),
                   (float(s_range[0]), float(s_range[1])))


@dataclass(frozen=True)
class BonnetResult:
    s: np.ndarray
    points: np.ndarray
    tangents: np.ndarray
    normals: np.ndarray
    binormals: np.ndarray

    def frame(self, i: int) -> np.ndarray:
        return np.vstack([self.tangents[i], self.normals[i], self.binormals[i]])


def _cartan_rhs(c: float, theta: float, E: np.ndarray) -> np.ndarray:
    out = np.empty_like(E)
    out[0] = c * E[1]
    out[1] = -c * E[0] - theta * E[2]
    out[2] = theta * E[1]
    return out


def _reorthonormalize(E: np.ndarray) -> np.ndarray:
    # nearest orthogonal matrix (polar projection)
    return E @ inverse(sqrt_spd(E.T @ E))


def bonnet_reconstruct(profile: CurvatureProfile, p0, frame0, step: float) -> BonnetResult:
    """Integrate the moving-frame system e' = C(s) e together with p' = tangent.

    Fixed-step RK4 with a polar re-orthonormalization of the frame after
    every step.  ``frame0`` holds the rows (tangent, normal, binormal).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    E = np.asarray(frame0, dtype=float)
    if E.shape != (3, 3) or np.max(np.abs(E @ E.T - np.eye(3))) > 1e-10:
        raise NonOrthonormalSeed("frame rows are not orthonormal")
    if mixed(E[0], E[1], E[2]) < 0.0:
        raise NonOrthonormalSeed("frame is not right-handed")
    s0, s1 = profile.s_range
    n = int(round((s1 - s0) / step))
    if n < 1:
        raise ValueError("empty arc-length range")
    c_of, th_of = profile.curvature, profile.torsion
    for s in np.linspace(s0, s1, 33):
        if c_of(s) <= 0.0:
            raise UndefinedNormal(f"curvature {c_of(s):g} at s={s:g}: the frame "
                                  "normal is undefined")
    p = np.asarray(p0, dtype=float).copy()
    ss = np.empty(n + 1)
    points = np.empty((n + 1, 3))
    frames = np.empty((n + 1, 3, 3))
    ss[0], points[0], frames[0] = s0, p, E
    h = (s1 - s0) / n
    for i in range(n):
        s = s0 + i * h
        c1, t1 = c_of(s), th_of(s)
        c2, t2 = c_of(s + 0.5 * h), th_of(s + 0.5 * h)
        c3, t3 = c_of(s + h), th_of(s + h)

        k1 = _cartan_rhs(c1, t1, E)
        q1 = E[0]
        k2 = _cartan_rhs(c2, t2, E + 0.5 * h * k1)
        q2 = (E + 0.5 * h * k1)[0]
        k3 = _cartan_rhs(c2, t2, E + 0.5 * h * k2)
        q3 = (E + 0.5 * h * k2)[0]
        k4 = _cartan_rhs(c3, t3, E + h * k3)
        q4 = (E + h * k3)[0]

        E = _reorthonormalize(E + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        p = p + (h / 6.0) * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
        ss[i + 1], points[i + 1], frames[i + 1] = s + h, p, E
    return BonnetResult(ss, points, frames[:, 0], frames[:, 1], frames[:, 2])


def discrete_frenet(s: np.ndarray, points: np.ndarray):
    """Curvature/torsion of uniformly sampled points by high-order differences.

    Returns (s_inner, curvature, torsion) on the interior of the grid.
    """
    h = s[1] - s[0]
    if np.max(np.abs(np.diff(s) - h)) > 1e-12 * max(abs(h), 1.0):
        raise ValueError("samples must be uniform in arc length")
    p = np.asarray(points, float)
    pm2, pm1, pp1, pp2 = p[:-4], p[1:-3], p[3:-1], p[4:]
    pc = p[2:-2]
    d1 = (pm2 - 8.0 * pm1 + 8.0 * pp1 - pp2) / (12.0 * h)
    d2 = (-pm2 + 16.0 * pm1 - 30.0 * pc + 16.0 * pp1 - pp2) / (12.0 * h * h)
    d3 = (-pm2 + 2.0 * pm1 - 2.0 * pp1 + pp2) / (2.0 * h ** 3)
    w = np.cross(d1, d2)
    nw = np.linalg.norm(w, axis=1)
    speed = np.linalg.norm(d1, axis=1)
    curvature = nw / speed ** 3
    torsion = -np.einsum("ij,ij->i", w, d3) / nw ** 2
    return s[2:-2], curvature, torsion
