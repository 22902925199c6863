"""Parametric surfaces: fundamental forms, shape operator, curvatures and
point classification, revolution/ruled constructors with developability
tests, curvature and asymptotic direction fields, moving-frame residuals,
intrinsic Gaussian curvature and geodesic integration.

A surface is an ``ExprMap`` of (u, v) on a parameter rectangle.  Revolution,
ruled and reparameterized surfaces get theirs from ``ExprMap.compose``, so
one expression evaluator serves every surface.

Gauss's formula f_ij = Gamma^k_ij f_k + b_ij N gives the connection through
g^-1 J^T, the left inverse of the 3x2 Jacobian J = (f_u f_v), as the
"second_derivative" route of ``coords.christoffel`` does: Gamma^h_ij = g^-1 J^T f_ij,
and a geodesic's parameter acceleration is w' = -g^-1 J^T (w^i w^j f_ij).

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
from .expr import (ExprMap, NumericalFailure, _check, _map, _merged, _pointwise, _pow, _stack,
                   _abs_arguments, derivatives, parse)
from .tensor2 import _components, _finite, _unit_scaled, cross, norm

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


# The geometry below takes one point or a batch.  The map's derivatives come
# as rows of components (floats at one point, arrays over a batch), and the
# metric, the connection, Brioschi's K and the geodesic equation are formed on
# them with Python's * and +, which round per point as on floats, as are the
# shape operator and principal frame; _surface_jet stacks the rows into arrays
# (..., 3) for its normal.  Powers and math functions are _pow and _map: each
# rounds, per point, as Python's ``**`` and ``math`` do.

def _dot(a, b):
    """a . b for 3-vectors given as component lists, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _fails(ok, u, v):
    """Where a check fails, from ``ok`` where it passes (False at a NaN): a
    bool at the point (u, v), an array over a batch.  On a batch where the
    map's partials are the same at every point ``ok`` is one bool; ``u == u``
    (True wherever u is a number) spreads it over the batch, so that
    ``_check`` marks the points rather than raising."""
    return np.logical_not(ok & (u == u) & (v == v))


def _mat2(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] at each point."""
    m = _stack([a, b, c, d])
    return m.reshape(m.shape[:-1] + (2, 2))


def _entries(m: np.ndarray) -> list:
    """The four entries of (..., 2, 2) matrices in row order: numbers at one
    point (not 0-d arrays, whose ** rounds differently), arrays on a batch."""
    return list(_components(m.reshape(m.shape[:-2] + (4,))))


# the rows p, f_u, f_v, f_uu, f_uv, f_vv that ``derivatives`` reads from a map
_SECOND = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _first_form(fu, fv, u, v):
    """g11, g12, g22 and det g from the rows f_u, f_v at (u, v).  A metric that
    overflows raises IrregularPoint naming the point; on a batch it marks the point."""
    g11, g12, g22 = _dot(fu, fu), _dot(fu, fv), _dot(fv, fv)
    # g12^2 <= g11 g22, so where g11 g22 is finite no power of g below overflows
    g11, g12, g22 = _check(
        _fails((g11 * g22 < math.inf) & (abs(g12) < math.inf), u, v),
        lambda: IrregularPoint(f"the metric overflows at (u, v) = ({u:g}, {v:g})"), g11, g12, g22)
    return g11, g12, g22, g11 * g22 - _pow(g12, 2)


def _metric(D: list, u, v):
    """g11, g12, g22 and det g (``_first_form``) from the map's derivative rows
    at (u, v), those of _SECOND, checked by ``_nondegenerate``."""
    return _nondegenerate(_first_form(D[1], D[2], u, v), u, v)


def _nondegenerate(metric, u, v):
    """The metric at (u, v).  A det g at or below _REG_TOL g11 g22, where rounding
    may leave no digit of it, raises IrregularPoint naming the point; on a batch
    it marks the point."""
    g11, g12, g22, det = metric
    return _check(_fails(det > _REG_TOL * g11 * g22, u, v),
                  lambda: IrregularPoint(f"degenerate metric at (u, v) = ({u:g}, {v:g})"),
                  g11, g12, g22, det)


def _solve(metric, a, b) -> tuple:
    """g^-1 (a, b) by the adjugate, for a ``_metric`` g11, g12, g22, det g."""
    g11, g12, g22, det = metric
    return (a * g22 - b * g12) / det, (g11 * b - g12 * a) / det


def _tangential(D: list, x: list, metric) -> tuple:
    """g^-1 (x . f_u, x . f_v), the components on (f_u, f_v) of the tangential part
    of x, from the map's derivative rows D (those of _SECOND) and their _metric."""
    return _solve(metric, _dot(x, D[1]), _dot(x, D[2]))


def jet_at(surface: Surface, u: float, v: float) -> SurfaceJet:
    return _surface_jet(derivatives(surface.map, (u, v), _SECOND), u, v)


def _surface_jet(D: list, u, v) -> SurfaceJet:
    """``jet_at`` from the map's derivative rows at (u, v), those of _SECOND."""
    batch = np.broadcast_shapes(np.shape(u), np.shape(v))
    p, fu, fv, fuu, fuv, fvv = (_stack(row, batch) for row in D)
    form = _first_form(D[1], D[2], u, v)
    n_raw = cross(fu, fv)
    n_len = norm(n_raw)
    # on a batch such a point's det g marks it, below
    _check(n_len <= _REG_TOL * np.maximum(norm(fu) * norm(fv), np.finfo(float).tiny),
           lambda: IrregularPoint(f"degenerate tangent plane at (u, v) = ({u:g}, {v:g})"))
    N = n_raw / np.asarray(n_len)[..., None]
    metric = g11, g12, g22, det = _nondegenerate(form, u, v)
    uu, uv, vv = (_tangential(D, x, metric) for x in D[3:])
    gamma = _stack(sum(zip(uu, uv, uv, vv), ()), batch).reshape(batch + (2, 2, 2))  # Gamma^h_ij
    b11, b12, b22 = (np.vecdot(N, x) for x in (fuu, fuv, fvv))
    (x11, x21), (x12, x22) = _solve(metric, b11, b12), _solve(metric, b12, b22)  # X = g^-1 B
    K = (b11 * b22 - _pow(b12, 2)) / det
    H = 0.5 * (x11 + x22)

    # s = sqrt(det g), t = sqrt(g11 + g22 + 2 s): g^1/2 = (g + s I) / t, and m = g^-1/2 =
    # [[g22 + s, -g12], [-g12, g11 + s]] / (t s).  X is similar to the symmetric S = m B m,
    # whose eigenvalues are k1 and k2; d = m y, for its unit eigenvectors y, are g-unit.
    s = _map(math.sqrt, det)
    ts = _map(math.sqrt, g11 + g22 + 2.0 * s) * s
    m1, m2 = ((g22 + s) / ts, -g12 / ts), (-g12 / ts, (g11 + s) / ts)  # the columns of m
    def b_form(x, y):
        return x[0] * (b11 * y[0] + b12 * y[1]) + x[1] * (b12 * y[0] + b22 * y[1])
    a, b, c = b_form(m1, m1), b_form(m1, m2), b_form(m2, m2)
    mean = 0.5 * (a + c)
    disc = _map(math.hypot, 0.5 * (a - c), b)
    k1, k2 = mean + disc, mean - disc
    umbilical = abs(k1 - k2) < 1e-8 * (abs(k1) + abs(k2) + 1e-30)
    # y1 = (cos theta, sin theta) and y2 = (-sin theta, cos theta), theta = 0 at an umbilic
    theta = _map(lambda y, x, umbilic: 0.0 if umbilic else 0.5 * math.atan2(y, x),
                 2.0 * b, a - c, umbilical)
    cos, sin = _map(math.cos, theta), _map(math.sin, theta)
    d1 = _stack([cos * m1[0] + sin * m2[0], cos * m1[1] + sin * m2[1]], batch)
    d2 = _stack([cos * m2[0] - sin * m1[0], cos * m2[1] - sin * m1[1]], batch)

    return SurfaceJet(u, v, p, fu, fv, N, _mat2(g11, g12, g12, g22), _mat2(b11, b12, b12, b22),
                      _mat2(x11, x12, x21, x22), k1, k2, d1, d2, K, H, gamma, umbilical)


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


@np.errstate(over="ignore", invalid="ignore")  # a metric that overflows raises, naming the point
def geodesic_integrate(surface: Surface, state0: GeodesicState, s_max: float,
                       step: float) -> GeodesicTrajectory:
    """Fixed-step RK4 integration of the geodesic system, starting from a
    state whose parameter velocity is normalized to unit surface speed."""
    if step <= 0.0 or s_max <= 0.0:
        raise ValueError("need positive step and arc-length span")
    n = int(round(s_max / step))
    if n < 1:
        raise ValueError("arc-length span below half a step")
    g11, g12, g22, _ = _metric(derivatives(surface.map, (state0.u, state0.v), _SECOND),
                               state0.u, state0.v)
    w = np.array([state0.du, state0.dv])
    speed = math.sqrt(w @ _mat2(g11, g12, g12, g22) @ w)
    if speed == 0.0:
        raise ZeroVelocity(f"zero surface speed at ({state0.u:g}, {state0.v:g})")
    y = [float(x) for x in (state0.u, state0.v, state0.du / speed, state0.dv / speed)]

    def rhs(_, y_):
        u, v, du, dv = y_
        if not surface.contains(u, v):
            raise LeftDomain(f"trajectory left the parameter rectangle at "
                             f"(u, v) = ({u:g}, {v:g})")
        D = derivatives(surface.map, (u, v), _SECOND)
        f_ww = [du * du * xuu + 2.0 * du * dv * xuv + dv * dv * xvv
                for xuu, xuv, xvv in zip(*D[3:])]
        a, b = _tangential(D, f_ww, _metric(D, u, v))
        return [du, dv, -a, -b]

    h = s_max / n
    out = np.empty((n + 1, 5))
    out[0] = (0.0, *y)
    for i in range(n):
        try:
            y = _rk4(rhs, y, h)
        except LeftDomain as err:
            raise LeftDomain(str(err), state=GeodesicState(*y, s=i * h)) from None
        out[i + 1] = ((i + 1) * h, *y)
    return GeodesicTrajectory(out[:, 0], out[:, 1], out[:, 2], out[:, 3], out[:, 4])


# ---------------------------------------------------------------------------
# intrinsic curvature and moving-frame residuals
# ---------------------------------------------------------------------------

# the rows f_u, f_v, f_uu, f_uv, f_vv, f_uuv, f_uvv that Brioschi's formula reads
_THIRD = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2))


def egregium_curvature(surface: Surface, u: float, v: float) -> float:
    """Gaussian curvature from the first fundamental form alone, by Brioschi's
    formula (do Carmo, Differential Geometry of Curves and Surfaces, 4-3):
    K (EG - F^2)^2 = det M1 - det M2, whose entries are E, F, G and their first
    and second derivatives; no normal data.  A metric with det g at or below
    _REG_TOL (E + G)^2 (a condition number above about 1e10, as at a
    coordinate pole, where the formula keeps no digit) raises IrregularPoint
    naming the point; on a batch it marks the point."""
    fu, fv, fuu, fuv, fvv, fuuv, fuvv = derivatives(surface.map, (u, v), _THIRD)
    # E, F, G (checked for overflow); E_u/2, E_v/2, G_u/2, G_v/2; fuu.fv and fvv.fu
    # of F_u and F_v; fuvv.fu, fuv.fuv, fuuv.fv and fuu.fvv of E_vv/2, F_uv and G_uu/2
    E, F, G, _ = _first_form(fu, fv, u, v)
    e_u, e_v, g_u, g_v = _dot(fuu, fu), _dot(fuv, fu), _dot(fuv, fv), _dot(fvv, fv)
    uu_v, vv_u = _dot(fuu, fv), _dot(fvv, fu)
    uvv_u, uv_uv, uuv_v, uu_vv = _dot(fuvv, fu), _dot(fuv, fuv), _dot(fuuv, fv), _dot(fuu, fvv)
    # F * F, not _first_form's F ** 2: Python's pow(x, 2) is not always x * x rounded
    det = E * G - F * F
    det = _check(_fails(det > _REG_TOL * (E + G) * (E + G), u, v),
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
    D = derivatives(surface.map, (u, v), _SECOND)
    data = _surface_jet(D, u, v)
    _, fu, fv, fuu, fuv, fvv = map(_stack, D)
    gamma, B, X, N = data.christoffel, data.second_form, data.weingarten, data.normal
    n_len = norm(cross(fu, fv))
    N_u, N_v = ((n_j - np.vecdot(N, n_j) * N) / n_len
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
    """det g = |f_u|^2 |f_v|^2 - (f_u . f_v)^2 at a point or a batch
    (``_first_form``); a det g that is not positive raises IrregularPoint
    naming the point, and on a batch marks it."""
    *_, det = _first_form(*derivatives(surface.map, (u, v), ((1, 0), (0, 1))), u, v)
    return _check(_fails(np.logical_not(det <= 0.0), u, v),
                  lambda: IrregularPoint(f"degenerate metric at ({u:g}, {v:g})"), det)


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
        (pu, pv), (wu, wv) = derivatives(path, (t,), _ORDERS[:2])
        fu, fv = derivatives(surface.map, (pu, pv), ((1, 0), (0, 1)))
        g11, g12, g22, _ = _first_form(fu, fv, pu, pv)  # the metric alone, checked
        return _map(math.sqrt, wu * (wu * g11 + wv * g12) + wv * (wu * g12 + wv * g22))

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
    (p0,), (p1,), (p2,) = derivatives(surface.radius, (u,), _ORDERS[:3])
    _, (q1,), (q2,) = derivatives(surface.height, (u,), _ORDERS[:3])
    speed2 = p1 * p1 + q1 * q1
    arc_length_param = abs(speed2 - 1.0) <= 1e-9
    if not arc_length_param:
        # the chain rule to order 2 for the profile as a function of its arc
        # length s: du/ds = speed2^-1/2 and d2u/ds2 = -(p1 p2 + q1 q2) / speed2^2
        u_s, u_ss = speed2 ** -0.5, -(p1 * p2 + q1 * q2) / (speed2 * speed2)
        p1, p2, q1, q2 = p1 * u_s, p2 / speed2 + p1 * u_ss, q1 * u_s, q2 / speed2 + q1 * u_ss
    c = p1 * q2 - q1 * p2
    g = _finite("the first form", lambda: np.array([[1.0, 0.0], [0.0, p0 * p0]]))
    _nondegenerate((1.0, 0.0, g[1, 1], g[1, 1]), u, v)  # r^2 may underflow to 0
    B = _finite("the second form", lambda: np.array([[c, 0.0], [0.0, p0 * q1]]))
    return {
        "first_form": g,
        "second_form": B,
        "gaussian": _finite("the Gaussian curvature", lambda: c * q1 / p0),
        "profile_curvature": c,
        "arc_length_param": arc_length_param,
    }


def developability(surface: Surface, u: float) -> tuple[bool, float]:
    """Whether the generators' direction field makes the ruled surface
    developable at this u; returns the scale-free witness as well."""
    if not isinstance(surface, RuledSurface):
        raise ValueError("developability applies to ruled surfaces only")
    gamma_p = _stack(derivatives(surface.directrix, (u,), ((1,),))[0])
    lam, lam_p = map(_stack, derivatives(surface.director, (u,), ((0,), (1,))))
    if math.hypot(*lam) <= 1e-12:
        raise DegenerateDirector(f"null director at u={u:g}")
    # the witness is scale-free: scaled by powers of two (exact), no product overflows
    gamma_p, lam, lam_p = map(_unit_scaled, (gamma_p, lam, lam_p))
    witness = float(np.dot(cross(gamma_p, lam), lam_p)) / (
        norm(gamma_p) * norm(lam) * norm(lam_p) + np.finfo(float).tiny)
    return abs(witness) <= _REG_TOL, witness
