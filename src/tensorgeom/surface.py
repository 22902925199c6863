"""Parametric surfaces: fundamental forms, shape operator, curvatures and
point classification, revolution/ruled constructors with developability
tests, curvature and asymptotic direction fields, moving-frame residuals,
intrinsic Gaussian curvature and geodesic integration.

A surface is an ``ExprMap`` of (u, v) on a parameter rectangle.  Revolution,
ruled and reparameterized surfaces get theirs from ``ExprMap.compose``, so
one expression evaluator serves every surface.

``jet_at``, ``classify_point``, ``egregium_curvature`` and ``surface_area``
also evaluate a batch of points: given arrays of u and v, each result holds
one entry per point (vectors and matrices on the trailing axes), and a point
where the single-point call raises is marked with NaN.  numpy warns about
such points unless the batch runs under ``np.errstate(all="ignore")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import _ORDERS, _SCAN, _rk4, _sign_changes, integrate
from .expr import (ExprMap, NumericalFailure, _check, _map, _merged, _pointwise, _pow, _select,
                   _stack, _abs_arguments, derivatives, parse)
from .tensor2 import _components, cross, norm

__all__ = [
    "IrregularPoint", "NonPositiveRadius", "DegenerateDirector", "PlanarPoint",
    "LeftDomain", "ZeroVelocity",
    "Surface", "RevolutionSurface", "RuledSurface", "SurfaceJet", "GeodesicState",
    "GeodesicTrajectory", "DirectionFields",
    "surface_from_expr", "revolution_surface", "ruled_surface",
    "reparameterized", "jet_at", "classify_point", "direction_fields",
    "geodesic_integrate", "egregium_curvature", "gauss_weingarten_residual",
    "surface_area", "curve_length_on_surface", "revolution_closed_form",
    "developability",
]

_REG_TOL = 1e-10


class IrregularPoint(NumericalFailure, ValueError):
    pass


class NonPositiveRadius(NumericalFailure, ValueError):
    pass


class DegenerateDirector(NumericalFailure, ValueError):
    pass


class PlanarPoint(NumericalFailure, ValueError):
    pass


class ZeroVelocity(NumericalFailure, ValueError):
    pass


class LeftDomain(NumericalFailure, RuntimeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


# ---------------------------------------------------------------------------
# surfaces as expression maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Surface:
    """A map (u, v) -> R^3 on a parameter rectangle ``((u0, u1), (v0, v1))``."""

    map: ExprMap
    domain: tuple

    def point(self, u: float, v: float) -> np.ndarray:
        return _stack(self.map(u, v))

    def contains(self, u: float, v: float) -> bool:
        (u0, u1), (v0, v1) = self.domain
        return u0 <= u <= u1 and v0 <= v <= v1


@dataclass(frozen=True)
class RevolutionSurface(Surface):
    """Profile (radius(u), height(u)) swept around the x3 axis."""

    radius: ExprMap
    height: ExprMap


@dataclass(frozen=True)
class RuledSurface(Surface):
    """Directrix plus straight generators: f(u, v) = directrix(u) + v * director(u)."""

    directrix: ExprMap
    director: ExprMap


_REVOLUTION = parse(["r*cos(v)", "r*sin(v)", "h"], ["r", "h", "v"])
_RULED = parse(["g0+v*l0", "g1+v*l1", "g2+v*l2"], ["g0", "g1", "g2", "l0", "l1", "l2", "v"])


def _profiles(*curves: ExprMap) -> ExprMap:
    """The curves' components, then v: the map of (u, v) a template above composes with."""
    return ExprMap(("u", "v"), _merged(*(c.constants for c in curves)),
                   sum((c.components for c in curves), ()) + parse("v", ("u", "v")).components)


def _as_map(source, variables, constants) -> ExprMap:
    if isinstance(source, ExprMap):
        return source
    return parse(source, variables, constants)


def surface_from_expr(sources, domain, variables=("u", "v"), constants=None) -> Surface:
    em = _as_map(sources, variables, constants)
    if em.arity != 2 or em.dimension != 3:
        raise ValueError("surface maps need two variables and three components")
    return Surface(em, tuple(tuple(map(float, b)) for b in domain))


def revolution_surface(radius, height, u_domain, constants=None,
                       v_domain=(-math.pi, math.pi)) -> RevolutionSurface:
    radius = _as_map(radius, ("u",), constants)
    height = _as_map(height, ("u",), constants)
    for em in (radius, height):
        if em.arity != 1 or em.dimension != 1:
            raise ValueError("profile functions must be scalar in one variable")
    for u in np.linspace(u_domain[0], u_domain[1], 64):
        if radius(u)[0] <= 0.0:
            raise NonPositiveRadius(f"profile radius {radius(u)[0]:g} at u={u:g}")
    return RevolutionSurface(_REVOLUTION.compose(_profiles(radius, height)), (
        tuple(map(float, u_domain)), tuple(map(float, v_domain))), radius, height)


def ruled_surface(directrix, director, u_domain, v_domain=(-1.0, 1.0),
                  constants=None) -> RuledSurface:
    directrix = _as_map(directrix, ("u",), constants)
    director = _as_map(director, ("u",), constants)
    for em in (directrix, director):
        if em.arity != 1 or em.dimension != 3:
            raise ValueError("ruled-surface curves need three components of one variable")
    return RuledSurface(_RULED.compose(_profiles(directrix, director)), (
        tuple(map(float, u_domain)), tuple(map(float, v_domain))), directrix, director)


def reparameterized(surface: Surface, diffeo, new_domain, constants=None) -> Surface:
    """The surface f o phi for a parameter diffeomorphism phi: (u, v) -> (u', v')."""
    diffeo = _as_map(diffeo, ("u", "v"), constants)
    if diffeo.arity != 2 or diffeo.dimension != 2:
        raise ValueError("a reparameterization maps two variables to two")
    return Surface(surface.map.compose(diffeo), tuple(tuple(map(float, b)) for b in new_domain))


# ---------------------------------------------------------------------------
# pointwise surface data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceJet:
    """First/second form, shape operator and curvature data at one point.

    Principal directions are unit vectors of the tangent plane expressed in
    the natural basis (components w.r.t. f_u, f_v), normalized against the
    first fundamental form.
    """

    u: float
    v: float
    point: np.ndarray
    f_u: np.ndarray
    f_v: np.ndarray
    normal: np.ndarray
    first_form: np.ndarray
    second_form: np.ndarray
    weingarten: np.ndarray
    k1: float
    k2: float
    d1: np.ndarray
    d2: np.ndarray
    gaussian: float
    mean: float
    christoffel: np.ndarray
    umbilical: bool

    def ambient(self, w) -> np.ndarray:
        """Tangent-plane vector (a, b) as an ambient 3-vector a f_u + b f_v."""
        return w[0] * self.f_u + w[1] * self.f_v

    def normal_curvature(self, w) -> float:
        w = np.asarray(w, float)
        return float(w @ self.second_form @ w) / float(w @ self.first_form @ w)


# The grid geometry below takes one point or a batch: vectors are arrays
# (..., 3), matrices (..., 2, 2).  Its dot products are np.vecdot, and its
# powers and math functions are _pow and _map: each rounds, per point, as
# the 1-D ``@``, Python's ``**`` and ``math`` do.

_dot = np.vecdot


def _mat2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] at each point."""
    m = _stack([a, b, c, d])
    return m.reshape(m.shape[:-1] + (2, 2))


def _entries(m: np.ndarray) -> list:
    """The four entries of (..., 2, 2) matrices in row order: numbers at one
    point (not 0-d arrays, whose ** rounds differently), arrays on a batch."""
    return list(_components(m.reshape(m.shape[:-2] + (4,))))


# the rows p, f_u, f_v, f_uu, f_uv, f_vv that ``derivatives`` takes from a map's jets
_SECOND = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _sqrt_2x2_spd(M: np.ndarray) -> np.ndarray:
    m11, m12, m21, m22 = _entries(M)
    s = _map(math.sqrt, m11 * m22 - m12 * m21)
    t = _map(math.sqrt, m11 + m22 + 2.0 * s)
    return (M + np.asarray(s)[..., None, None] * np.eye(2)) / np.asarray(t)[..., None, None]


def _christoffel_2d(g00, g01, g11, det, dg: dict) -> np.ndarray:
    """Surface connection from the metric, its determinant and its parameter
    derivatives; dg[a, b, c] = derivative of g_ab by coordinate c."""
    rhs = {
        (0, 0): (0.5 * dg[0, 0, 0], dg[0, 1, 0] - 0.5 * dg[0, 0, 1]),
        (0, 1): (0.5 * dg[0, 0, 1], 0.5 * dg[1, 1, 0]),
        (1, 1): (dg[0, 1, 1] - 0.5 * dg[1, 1, 0], 0.5 * dg[1, 1, 1]),
    }
    first, second = {}, {}
    for ij, (r1, r2) in rhs.items():
        first[ij] = (r1 * g11 - r2 * g01) / det
        second[ij] = (g00 * r2 - g01 * r1) / det
    gamma = _stack([k[ij] for k in (first, second) for ij in ((0, 0), (0, 1), (0, 1), (1, 1))])
    return gamma.reshape(gamma.shape[:-1] + (2, 2, 2))


# the nine distinct dot products of the metric and its derivatives, as row
# pairs of _SECOND: fu.fu, fu.fv, fv.fv, then f_uu, f_uv and f_vv
# each against fu and fv
_LEFT, _RIGHT = [1, 1, 2, 3, 3, 4, 4, 5, 5], [1, 2, 2, 1, 2, 1, 2, 1, 2]


def _metric_and_connection(D: np.ndarray, u, v):
    """First fundamental form and the surface connection at (u, v) from the
    parameter derivatives of the map (the rows of _SECOND).  A det g at or below
    _REG_TOL g11 g22, where rounding may leave no digit of it, raises
    IrregularPoint naming the point (on a batch it marks the point); at one
    point, so does a metric that overflows (on a batch that fails the det g
    test)."""
    dots = _dot(D[..., _LEFT, :], D[..., _RIGHT, :])
    # at one point Python floats, which round as numpy's scalars do
    g11, g12, g22, uu_u, uu_v, uv_u, uv_v, vv_u, vv_v = (
        dots.tolist() if dots.ndim == 1 else _components(dots))
    # g12^2 <= g11 g22, so where g11 g22 is finite no power of g below overflows
    if dots.ndim == 1 and not (math.isfinite(g11 * g22) and math.isfinite(g12)):
        raise IrregularPoint(f"the metric overflows at (u, v) = ({u:g}, {v:g})")
    det = g11 * g22 - _pow(g12, 2)
    g11, g12, g22, det = _check(
        np.logical_not(det > _REG_TOL * g11 * g22),
        lambda: IrregularPoint(f"degenerate metric at (u, v) = ({u:g}, {v:g})"), g11, g12, g22, det)
    # dg[a, b, c] = derivative of g_ab by coordinate c = f_ac . f_b + f_a . f_bc
    dg = {(0, 0, 0): uu_u + uu_u, (0, 0, 1): uv_u + uv_u, (0, 1, 0): uu_v + uv_u,
          (0, 1, 1): uv_v + vv_u, (1, 1, 0): uv_v + uv_v, (1, 1, 1): vv_v + vv_v}
    return _mat2(g11, g12, g12, g22), _christoffel_2d(g11, g12, g22, det, dg)


def jet_at(surface: Surface, u: float, v: float) -> SurfaceJet:
    D = derivatives(surface.map.eval_jet((u, v), 2), _SECOND)
    p, fu, fv, fuu, fuv, fvv = np.moveaxis(D, -2, 0)
    n_raw = cross(fu, fv)
    n_len = norm(n_raw)
    # on a batch such a point's det g marks it, below
    _check(n_len <= _REG_TOL * np.maximum(norm(fu) * norm(fv), np.finfo(float).tiny),
           lambda: IrregularPoint(f"degenerate tangent plane at (u, v) = ({u:g}, {v:g})"))
    N = n_raw / np.asarray(n_len)[..., None]
    g, gamma = _metric_and_connection(D, u, v)
    b12 = _dot(N, fuv)
    B = _mat2(_dot(N, fuu), b12, b12, _dot(N, fvv))
    X = np.linalg.solve(g, B)
    g11, g12, _, g22 = _entries(g)
    b11, b12, _, b22 = _entries(B)
    x11, _, _, x22 = _entries(X)
    K = (b11 * b22 - _pow(b12, 2)) / (g11 * g22 - _pow(g12, 2))
    H = 0.5 * (x11 + x22)

    gs = _sqrt_2x2_spd(g)
    gis = np.linalg.inv(gs)
    s11, s12, s21, s22 = _entries(gs @ X @ gis)
    a, b, c = s11, 0.5 * (s12 + s21), s22
    mean = 0.5 * (a + c)
    disc = _map(math.hypot, 0.5 * (a - c), b)
    k1, k2 = mean + disc, mean - disc
    umbilical = abs(k1 - k2) < 1e-8 * (abs(k1) + abs(k2) + 1e-30)

    def rotated():
        y1, alt = _stack([b, k1 - a]), _stack([k1 - c, b])
        y1 = _select(norm(alt) > norm(y1), lambda: alt, lambda: y1)
        y1 = y1 / np.asarray(norm(y1))[..., None]
        return y1, _stack([-y1[..., 1], y1[..., 0]])

    y1, y2 = _select(umbilical, lambda: (np.array([1.0, 0.0]), np.array([0.0, 1.0])), rotated)
    d1 = np.matvec(gis, y1)
    d2 = np.matvec(gis, y2)
    d1 = d1 / np.asarray(_map(math.sqrt, _dot(np.vecmat(d1, g), d1)))[..., None]
    d2 = d2 / np.asarray(_map(math.sqrt, _dot(np.vecmat(d2, g), d2)))[..., None]

    return SurfaceJet(u, v, p, fu, fv, N, g, B, X, k1, k2, d1, d2, K, H,
                      gamma, umbilical)


def classify_point(jet: SurfaceJet) -> str:
    """The point's class; on a batch an array of classes, NaN where it fails."""
    B = jet.second_form
    b_norm = norm(B.reshape(B.shape[:-2] + (4,)))
    planar = b_norm <= _REG_TOL * np.maximum(1.0, norm(jet.first_form.reshape(B.shape[:-2] + (4,))))
    if np.ndim(planar) == 0 and planar:
        return "planar"
    b11, b12, _, b22 = _entries(B)
    det_b = b11 * b22 - _pow(b12, 2)
    tol = _REG_TOL * np.maximum(_pow(b_norm, 2), np.finfo(float).tiny)
    kind = np.select([planar, det_b > tol, det_b < -tol], ["planar", "elliptic", "hyperbolic"],
                     "parabolic").astype(object)
    if kind.ndim == 0:
        return str(kind)
    kind[np.isnan(tol)] = math.nan  # where b_norm ** 2 overflows a single point raises
    return kind


@dataclass(frozen=True)
class DirectionFields:
    curvature_directions: tuple
    asymptotic_directions: tuple
    dupin: str


def direction_fields(jet: SurfaceJet) -> DirectionFields:
    """Principal (curvature-line) directions, asymptotic directions and the
    classification of the local indicatrix conic."""
    kind = classify_point(jet)
    if kind == "planar":
        raise PlanarPoint("direction fields are undefined at planar points")
    B = jet.second_form
    g = jet.first_form
    dirs = []
    if kind in ("hyperbolic", "parabolic"):
        disc = max(B[0, 1] ** 2 - B[0, 0] * B[1, 1], 0.0)
        if abs(B[0, 0]) >= abs(B[1, 1]):
            # roots of B11 t^2 + 2 B12 t + B22 = 0 with (du, dv) = (t, 1)
            roots = {(-B[0, 1] + math.sqrt(disc)) / B[0, 0],
                     (-B[0, 1] - math.sqrt(disc)) / B[0, 0]}
            dirs = [np.array([t, 1.0]) for t in roots]
        else:
            roots = {(-B[0, 1] + math.sqrt(disc)) / B[1, 1],
                     (-B[0, 1] - math.sqrt(disc)) / B[1, 1]}
            dirs = [np.array([1.0, t]) for t in roots]
        dirs = [d / math.sqrt(d @ g @ d) for d in dirs]
    dupin = {"elliptic": "ellipse", "hyperbolic": "conjugate_hyperbolae",
             "parabolic": "parallel_lines"}[kind]
    return DirectionFields((jet.d1, jet.d2), tuple(dirs), dupin)


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicState:
    u: float
    v: float
    du: float
    dv: float
    s: float = 0.0


@dataclass(frozen=True)
class GeodesicTrajectory:
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray

    def state(self, i: int) -> GeodesicState:
        return GeodesicState(self.u[i], self.v[i], self.du[i], self.dv[i], self.s[i])

    def __len__(self):
        return len(self.s)


def _metric_and_gamma(surface: Surface, u: float, v: float):
    return _metric_and_connection(derivatives(surface.map.eval_jet((u, v), 2), _SECOND), u, v)


@np.errstate(over="ignore", invalid="ignore")  # a metric that overflows raises, naming the point
def geodesic_integrate(surface: Surface, state0: GeodesicState, s_max: float,
                       step: float) -> GeodesicTrajectory:
    """Fixed-step RK4 integration of the geodesic system, starting from a
    state whose parameter velocity is normalized to unit surface speed."""
    if step <= 0.0 or s_max <= 0.0:
        raise ValueError("need positive step and arc-length span")
    g0, _ = _metric_and_gamma(surface, state0.u, state0.v)
    w = np.array([state0.du, state0.dv])
    speed = math.sqrt(w @ g0 @ w)
    if speed == 0.0:
        raise ZeroVelocity(f"zero surface speed at ({state0.u:g}, {state0.v:g})")
    y = np.array([state0.u, state0.v, state0.du / speed, state0.dv / speed])

    def rhs(_, y_):
        if not surface.contains(y_[0], y_[1]):
            raise LeftDomain(f"trajectory left the parameter rectangle at "
                             f"(u, v) = ({y_[0]:g}, {y_[1]:g})",
                             state=GeodesicState(*y_, s=float("nan")))
        _, gamma = _metric_and_gamma(surface, y_[0], y_[1])
        w_ = y_[2:]
        acc = -np.einsum("hij,i,j->h", gamma, w_, w_)
        return np.array([w_[0], w_[1], acc[0], acc[1]])

    n = int(round(s_max / step))
    h = s_max / n
    out = np.empty((n + 1, 5))
    out[0] = (0.0, *y)
    for i in range(n):
        try:
            y = _rk4(rhs, y, h)
        except LeftDomain as err:
            raise LeftDomain(str(err),
                             state=GeodesicState(y[0], y[1], y[2], y[3],
                                                 s=i * h)) from None
        out[i + 1] = ((i + 1) * h, *y)
    return GeodesicTrajectory(out[:, 0], out[:, 1], out[:, 2], out[:, 3], out[:, 4])


# ---------------------------------------------------------------------------
# intrinsic curvature and moving-frame residuals
# ---------------------------------------------------------------------------

# the rows f_u, f_v, f_uu, f_uv, f_vv, f_uuv, f_uvv that Brioschi's formula reads
_THIRD = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2))
# its thirteen dot products, as row pairs of _THIRD: E, F, G; E_u/2, E_v/2,
# G_u/2, G_v/2; then fuu.fv and fvv.fu of F_u and F_v; then fuvv.fu, fuv.fuv,
# fuuv.fv and fuu.fvv of E_vv/2, F_uv and G_uu/2
_LEFT3, _RIGHT3 = [0, 0, 1, 2, 3, 3, 4, 2, 4, 6, 3, 5, 2], [0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 3, 1, 4]


def egregium_curvature(surface: Surface, u: float, v: float) -> float:
    """Gaussian curvature from the first fundamental form alone, by Brioschi's
    formula (do Carmo, Differential Geometry of Curves and Surfaces, 4-3):
    K (EG - F^2)^2 = det M1 - det M2, whose entries are E, F, G and their first
    and second derivatives; no normal data.  A metric with det g at or below
    _REG_TOL (E + G)^2 (a condition number above about 1e10, as at a
    coordinate pole, where the formula keeps no digit) raises IrregularPoint
    naming the point; on a batch it marks the point."""
    D = derivatives(surface.map.eval_jet((u, v), 3), _THIRD)
    dots = _dot(D[..., _LEFT3, :], D[..., _RIGHT3, :])
    # at one point Python floats, which round as numpy's scalars do
    E, F, G, e_u, e_v, g_u, g_v, uu_v, vv_u, uvv_u, uv_uv, uuv_v, uu_vv = (
        dots.tolist() if dots.ndim == 1 else _components(dots))
    det = E * G - F * F
    det = _check(np.logical_not(det > _REG_TOL * (E + G) * (E + G)),
                 lambda: IrregularPoint(f"degenerate metric at (u, v) = ({u:g}, {v:g})"), det)
    F_u, F_v = uu_v + e_v, g_u + vv_u
    # F_uv - E_vv/2 - G_uu/2: the third partials cancel in exact arithmetic
    a = (uuv_v + uu_vv + uv_uv + uvv_u) - (uvv_u + uv_uv) - (uuv_v + uv_uv)
    m1 = a * det - e_u * ((F_v - g_u) * G - F * g_v) + (F_u - e_v) * ((F_v - g_u) * F - E * g_v)
    m2 = g_u * (e_v * F - E * g_u) - e_v * (e_v * G - F * g_u)
    return (m1 - m2) / det / det


def gauss_weingarten_residual(surface: Surface, u: float, v: float):
    """Scale-relative residuals of the two moving-frame equations: the
    expansion of f_,ij on (f_u, f_v, N) and of N_,j on (f_u, f_v).  With
    n = f_u x f_v, N_,j = (n_j - N (N . n_j)) / |n| for n_j = f_uj x f_v + f_u x f_vj."""
    data = jet_at(surface, u, v)
    _, fu, fv, fuu, fuv, fvv = derivatives(surface.map.eval_jet((u, v), 2), _SECOND)
    gamma, B, X, N = data.christoffel, data.second_form, data.weingarten, data.normal
    n_len = norm(cross(fu, fv))
    N_u, N_v = ((n_j - _dot(N, n_j) * N) / n_len
                for n_j in (cross(fuu, fv) + cross(fu, fuv), cross(fuv, fv) + cross(fu, fvv)))

    seconds = {(0, 0): fuu, (0, 1): fuv, (1, 0): fuv, (1, 1): fvv}
    scale = max(1.0, max(norm(s) for s in seconds.values()), norm(fu), norm(fv))

    gauss_res = 0.0
    for i in range(2):
        for j in range(2):
            res = seconds[(i, j)] - gamma[0, i, j] * fu - gamma[1, i, j] * fv - B[i, j] * N
            gauss_res = max(gauss_res, norm(res))
    wein_res = 0.0
    for j, N_d in enumerate((N_u, N_v)):
        res = N_d + X[0, j] * fu + X[1, j] * fv
        wein_res = max(wein_res, norm(res))
    return gauss_res / scale, wein_res / scale


# ---------------------------------------------------------------------------
# areas, lengths
# ---------------------------------------------------------------------------

def _metric_det(surface: Surface, u, v):
    """det g = |f_u|^2 |f_v|^2 - (f_u . f_v)^2 at a point or a batch."""
    D = derivatives(surface.map.eval_jet((u, v), 1), ((1, 0), (0, 1)))
    fu, fv = D[..., 0, :], D[..., 1, :]
    det = _dot(fu, fu) * _dot(fv, fv) - _pow(_dot(fu, fv), 2)
    return _check(det <= 0.0, lambda: IrregularPoint(f"degenerate metric at ({u:g}, {v:g})"), det)


def surface_area(surface: Surface, u_range=None, v_range=None, order: int = 32) -> float:
    """Area of a parameter sub-rectangle by Gauss-Legendre quadrature of the
    metric area density, evaluated in chunks of nodes and summed node by node."""
    (u0, u1), (v0, v1) = surface.domain
    if u_range is not None:
        u0, u1 = u_range
    if v_range is not None:
        v0, v1 = v_range
    xs, wx = np.polynomial.legendre.leggauss(order)
    us = 0.5 * (u1 - u0) * xs + 0.5 * (u0 + u1)
    vs = 0.5 * (v1 - v0) * xs + 0.5 * (v0 + v1)
    dets = _pointwise(lambda u, v: _metric_det(surface, u, v),
                      np.repeat(us, order), np.tile(vs, order))
    total = 0.0
    for det, (wu, wv) in zip(dets, ((wu, wv) for wu in wx for wv in wx)):
        total += math.sqrt(det) * wu * wv
    return total * 0.25 * (u1 - u0) * (v1 - v0)


def curve_length_on_surface(surface: Surface, path: ExprMap, t0: float, t1: float) -> float:
    """Length of the surface curve (u(t), v(t)) via the first form."""
    if path.arity != 1 or path.dimension != 2:
        raise ValueError("path must map one parameter to (u, v)")

    def integrand(t):
        P = derivatives(path.eval_jet((t,), order=1), _ORDERS[:2])
        (pu, pv), w = _components(P[..., 0, :]), P[..., 1, :]
        D = derivatives(surface.map.eval_jet((pu, pv), 1), ((1, 0), (0, 1)))
        fu, fv = D[..., 0, :], D[..., 1, :]
        g12 = _dot(fu, fv)
        g = _mat2(_dot(fu, fu), g12, g12, _dot(fv, fv))  # the metric alone: no connection
        return _map(math.sqrt, _dot(np.vecmat(w, g), w))

    # the speed may jump where an abs argument of the path, or of the surface
    # along it, changes sign
    kinks, surface_kinks = _abs_arguments(path), _abs_arguments(surface.map)
    breaks = ()
    if kinks.dimension or surface_kinks.dimension:
        breaks = _sign_changes(lambda t: kinks(t) + surface_kinks(*path(t)),
                               np.linspace(t0, t1, _SCAN))
    return integrate(integrand, t0, t1, 1e-12, breaks)


# ---------------------------------------------------------------------------
# revolution and ruled specifics
# ---------------------------------------------------------------------------

def revolution_closed_form(surface: Surface, u: float, v: float) -> dict:
    """Metric, second form and Gaussian curvature of a revolution surface from
    its profile alone.  Profiles that are not parameterized by arc length are
    reparameterized on the fly (the forms then refer to the arc-length
    parameter; the curvature is intrinsic either way)."""
    if not isinstance(surface, RevolutionSurface):
        raise ValueError("closed form applies to revolution surfaces only")
    (p0, _), (p1, q1), (p2, q2) = derivatives(
        surface.radius.eval_jet((u,), 2) + surface.height.eval_jet((u,), 2), _ORDERS[:3]).tolist()
    speed2 = p1 * p1 + q1 * q1
    arc_length_param = abs(speed2 - 1.0) <= 1e-9
    if not arc_length_param:
        # the chain rule to order 2 for the profile as a function of its arc
        # length s: du/ds = speed2^-1/2 and d2u/ds2 = -(p1 p2 + q1 q2) / speed2^2
        u_s, u_ss = speed2 ** -0.5, -(p1 * p2 + q1 * q2) / (speed2 * speed2)
        p1, p2, q1, q2 = p1 * u_s, p2 / speed2 + p1 * u_ss, q1 * u_s, q2 / speed2 + q1 * u_ss
    c = p1 * q2 - q1 * p2
    g = np.array([[1.0, 0.0], [0.0, p0 * p0]])
    B = np.array([[c, 0.0], [0.0, p0 * q1]])
    return {
        "first_form": g,
        "second_form": B,
        "gaussian": c * q1 / p0,
        "profile_curvature": c,
        "arc_length_param": arc_length_param,
    }


def developability(surface: Surface, u: float) -> tuple[bool, float]:
    """Whether the generators' direction field makes the ruled surface
    developable at this u; returns the scale-free witness as well."""
    if not isinstance(surface, RuledSurface):
        raise ValueError("developability applies to ruled surfaces only")
    gamma_p = derivatives(surface.directrix.eval_jet((u,), 3), ((1,),))[0]
    lam, lam_p = derivatives(surface.director.eval_jet((u,), 3), ((0,), (1,)))
    if norm(lam) <= 1e-12:
        raise DegenerateDirector(f"null director at u={u:g}")
    witness = float(np.dot(cross(gamma_p, lam), lam_p))
    scale = norm(gamma_p) * norm(lam) * norm(lam_p) + np.finfo(float).tiny
    witness /= scale
    return abs(witness) <= _REG_TOL, witness
