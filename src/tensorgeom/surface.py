"""Parametric surfaces: fundamental forms, shape operator, curvatures and
point classification, revolution/ruled constructors with developability
tests, curvature and asymptotic direction fields, moving-frame residuals,
intrinsic Gaussian curvature and geodesic integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from .expr import ExprMap, Jet, NumericalFailure, compose_bivariate, parse
from .tensor2 import cross, norm, normalize

__all__ = [
    "IrregularPoint", "NonPositiveRadius", "DegenerateDirector", "PlanarPoint",
    "LeftDomain",
    "Surface", "SurfaceJet", "GeodesicState", "GeodesicTrajectory",
    "DirectionFields",
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


class LeftDomain(NumericalFailure, RuntimeError):
    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


# ---------------------------------------------------------------------------
# jet-evaluable surface mappers
# ---------------------------------------------------------------------------

def _univariate_derivs(em: ExprMap, t: float) -> list[tuple[float, float, float, float]]:
    jets = em.eval_jet((t,), order=3)
    return [(j.partial(0), j.partial(1), j.partial(2), j.partial(3)) for j in jets]


class _ExprMapper:
    def __init__(self, em: ExprMap):
        if em.arity != 2 or em.dimension != 3:
            raise ValueError("surface maps need two variables and three components")
        self.map = em

    def eval_jets(self, u: float, v: float, order: int) -> list[Jet]:
        return self.map.eval_jet((u, v), order)


class _RevolutionMapper:
    """Profile (radius(u), height(u)) swept around the x3 axis."""

    def __init__(self, radius: ExprMap, height: ExprMap):
        for em in (radius, height):
            if em.arity != 1 or em.dimension != 1:
                raise ValueError("profile functions must be scalar in one variable")
        self.radius = radius
        self.height = height

    def eval_jets(self, u: float, v: float, order: int) -> list[Jet]:
        U = Jet.variable(u, 0, 2, order)
        V = Jet.variable(v, 1, 2, order)
        phi = U.compose(*_univariate_derivs(self.radius, u)[0])
        psi = U.compose(*_univariate_derivs(self.height, u)[0])
        return [phi * V.cos(), phi * V.sin(), psi]


class _RuledMapper:
    """Directrix plus straight generators: f(u, v) = gamma(u) + v * director(u)."""

    def __init__(self, directrix: ExprMap, director: ExprMap):
        for em in (directrix, director):
            if em.arity != 1 or em.dimension != 3:
                raise ValueError("ruled-surface curves need three components of one variable")
        self.directrix = directrix
        self.director = director

    def eval_jets(self, u: float, v: float, order: int) -> list[Jet]:
        U = Jet.variable(u, 0, 2, order)
        V = Jet.variable(v, 1, 2, order)
        g = [U.compose(*d) for d in _univariate_derivs(self.directrix, u)]
        lam = [U.compose(*d) for d in _univariate_derivs(self.director, u)]
        return [g[i] + V * lam[i] for i in range(3)]


class _ComposedMapper:
    """Base surface pulled back through a parameter diffeomorphism."""

    def __init__(self, base, diffeo: ExprMap):
        if diffeo.arity != 2 or diffeo.dimension != 2:
            raise ValueError("a reparameterization maps two variables to two")
        self.base = base
        self.diffeo = diffeo

    def eval_jets(self, u: float, v: float, order: int) -> list[Jet]:
        inner = self.diffeo.eval_jet((u, v), order)
        outer = self.base.eval_jets(inner[0].value, inner[1].value, order)
        return [compose_bivariate(f, inner[0], inner[1]) for f in outer]


@dataclass(frozen=True)
class Surface:
    mapper: object
    domain: tuple

    def point(self, u: float, v: float) -> np.ndarray:
        jets = self.mapper.eval_jets(u, v, 1)
        return np.array([j.value for j in jets])

    def contains(self, u: float, v: float) -> bool:
        (u0, u1), (v0, v1) = self.domain
        return u0 <= u <= u1 and v0 <= v <= v1


def _as_map(source, variables, constants) -> ExprMap:
    if isinstance(source, ExprMap):
        return source
    return parse(source, variables, constants)


def surface_from_expr(sources, domain, variables=("u", "v"), constants=None) -> Surface:
    em = _as_map(sources, variables, constants)
    return Surface(_ExprMapper(em), tuple(tuple(map(float, b)) for b in domain))


def revolution_surface(radius, height, u_domain, constants=None,
                       v_domain=(-math.pi, math.pi)) -> Surface:
    radius = _as_map(radius, ("u",), constants)
    height = _as_map(height, ("u",), constants)
    for u in np.linspace(u_domain[0], u_domain[1], 64):
        if radius(u)[0] <= 0.0:
            raise NonPositiveRadius(f"profile radius {radius(u)[0]:g} at u={u:g}")
    return Surface(_RevolutionMapper(radius, height),
                   (tuple(map(float, u_domain)), tuple(map(float, v_domain))))


def ruled_surface(directrix, director, u_domain, v_domain=(-1.0, 1.0),
                  constants=None) -> Surface:
    directrix = _as_map(directrix, ("u",), constants)
    director = _as_map(director, ("u",), constants)
    return Surface(_RuledMapper(directrix, director),
                   (tuple(map(float, u_domain)), tuple(map(float, v_domain))))


def reparameterized(surface: Surface, diffeo, new_domain, constants=None) -> Surface:
    diffeo = _as_map(diffeo, ("u", "v"), constants)
    return Surface(_ComposedMapper(surface.mapper, diffeo),
                   tuple(tuple(map(float, b)) for b in new_domain))


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


def _first_second(jets: list[Jet]):
    p = np.array([j.partial(0, 0) for j in jets])
    fu = np.array([j.partial(1, 0) for j in jets])
    fv = np.array([j.partial(0, 1) for j in jets])
    fuu = np.array([j.partial(2, 0) for j in jets])
    fuv = np.array([j.partial(1, 1) for j in jets])
    fvv = np.array([j.partial(0, 2) for j in jets])
    return p, fu, fv, fuu, fuv, fvv


def _normal_of(fu, fv, u, v):
    n_raw = cross(fu, fv)
    n_len = norm(n_raw)
    if n_len <= _REG_TOL * max(norm(fu) * norm(fv), np.finfo(float).tiny):
        raise IrregularPoint(f"degenerate tangent plane at (u, v) = ({u:g}, {v:g})")
    return n_raw / n_len


def _sqrt_2x2_spd(M: np.ndarray) -> np.ndarray:
    d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    s = math.sqrt(d)
    t = math.sqrt(M[0, 0] + M[1, 1] + 2.0 * s)
    return (M + s * np.eye(2)) / t


def _christoffel_2d(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Surface connection from the metric and its parameter derivatives;
    dg[a, b, c] = derivative of g_ab by coordinate c."""
    rhs = {
        (0, 0): (0.5 * dg[0, 0, 0], dg[0, 1, 0] - 0.5 * dg[0, 0, 1]),
        (0, 1): (0.5 * dg[0, 0, 1], 0.5 * dg[1, 1, 0]),
        (1, 1): (dg[0, 1, 1] - 0.5 * dg[1, 1, 0], 0.5 * dg[1, 1, 1]),
    }
    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    gamma = np.empty((2, 2, 2))
    for (i, j), (r1, r2) in rhs.items():
        g1 = (r1 * g[1, 1] - r2 * g[0, 1]) / det
        g2 = (g[0, 0] * r2 - g[0, 1] * r1) / det
        gamma[0, i, j] = gamma[0, j, i] = g1
        gamma[1, i, j] = gamma[1, j, i] = g2
    return gamma


def _metric_and_connection(fu, fv, fuu, fuv, fvv):
    """First fundamental form and the surface connection from the first and
    second parameter derivatives of the map."""
    g = np.array([[fu @ fu, fu @ fv], [fu @ fv, fv @ fv]])
    # metric derivatives feed the three 2x2 systems for the connection
    dg = np.empty((2, 2, 2))
    seconds = {(0, 0): fuu, (0, 1): fuv, (1, 0): fuv, (1, 1): fvv}
    firsts = {0: fu, 1: fv}
    for a_ in range(2):
        for b_ in range(2):
            for c_ in range(2):
                dg[a_, b_, c_] = seconds[(a_, c_)] @ firsts[b_] + firsts[a_] @ seconds[(b_, c_)]
    return g, _christoffel_2d(g, dg)


def jet_at(surface: Surface, u: float, v: float) -> SurfaceJet:
    jets = surface.mapper.eval_jets(u, v, 2)
    p, fu, fv, fuu, fuv, fvv = _first_second(jets)
    N = _normal_of(fu, fv, u, v)
    g, gamma = _metric_and_connection(fu, fv, fuu, fuv, fvv)
    B = np.array([[N @ fuu, N @ fuv], [N @ fuv, N @ fvv]])
    X = np.linalg.solve(g, B)
    detg = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    K = (B[0, 0] * B[1, 1] - B[0, 1] ** 2) / detg
    H = 0.5 * (X[0, 0] + X[1, 1])

    gs = _sqrt_2x2_spd(g)
    gis = np.linalg.inv(gs)
    S = gs @ X @ gis
    a, b, c = S[0, 0], 0.5 * (S[0, 1] + S[1, 0]), S[1, 1]
    mean = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    k1, k2 = mean + disc, mean - disc
    umbilical = abs(k1 - k2) < 1e-8 * (abs(k1) + abs(k2) + 1e-30)
    if umbilical:
        y1, y2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    else:
        y1 = np.array([b, k1 - a])
        alt = np.array([k1 - c, b])
        if norm(alt) > norm(y1):
            y1 = alt
        y1 = y1 / norm(y1)
        y2 = np.array([-y1[1], y1[0]])
    d1 = gis @ y1
    d2 = gis @ y2
    d1 = d1 / math.sqrt(d1 @ g @ d1)
    d2 = d2 / math.sqrt(d2 @ g @ d2)

    return SurfaceJet(u, v, p, fu, fv, N, g, B, X, k1, k2, d1, d2, K, H,
                      gamma, umbilical)


def classify_point(jet: SurfaceJet) -> str:
    b_norm = float(np.linalg.norm(jet.second_form))
    if b_norm <= _REG_TOL * max(1.0, float(np.linalg.norm(jet.first_form))):
        return "planar"
    det_b = (jet.second_form[0, 0] * jet.second_form[1, 1]
             - jet.second_form[0, 1] ** 2)
    tol = _REG_TOL * max(b_norm ** 2, np.finfo(float).tiny)
    if det_b > tol:
        return "elliptic"
    if det_b < -tol:
        return "hyperbolic"
    return "parabolic"


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
        if abs(B[0, 0]) >= abs(B[1, 1]):
            # roots of B11 t^2 + 2 B12 t + B22 = 0 with (du, dv) = (t, 1)
            disc = max(B[0, 1] ** 2 - B[0, 0] * B[1, 1], 0.0)
            roots = {(-B[0, 1] + math.sqrt(disc)) / B[0, 0],
                     (-B[0, 1] - math.sqrt(disc)) / B[0, 0]}
            dirs = [np.array([t, 1.0]) for t in roots]
        else:
            disc = max(B[0, 1] ** 2 - B[0, 0] * B[1, 1], 0.0)
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
    jets = surface.mapper.eval_jets(u, v, 2)
    return _metric_and_connection(*_first_second(jets)[1:])


def geodesic_integrate(surface: Surface, state0: GeodesicState, s_max: float,
                       step: float, adaptive: bool = False,
                       drift_tol: float = 1e-9) -> GeodesicTrajectory:
    """RK4 integration of the geodesic system, starting from a state whose
    parameter velocity is normalized to unit surface speed.

    With ``adaptive=True`` each step is re-done in halves (up to 8 levels)
    whenever the surface-speed drift exceeds ``drift_tol``; the default is a
    plain fixed-step march.
    """
    if step <= 0.0 or s_max <= 0.0:
        raise ValueError("need positive step and arc-length span")
    g0, _ = _metric_and_gamma(surface, state0.u, state0.v)
    w = np.array([state0.du, state0.dv])
    speed = math.sqrt(w @ g0 @ w)
    if speed == 0.0:
        raise ValueError("zero initial velocity")
    y = np.array([state0.u, state0.v, state0.du / speed, state0.dv / speed])

    def rhs(y_):
        if not surface.contains(y_[0], y_[1]):
            raise LeftDomain(f"trajectory left the parameter rectangle at "
                             f"(u, v) = ({y_[0]:g}, {y_[1]:g})",
                             state=GeodesicState(*y_, s=float("nan")))
        _, gamma = _metric_and_gamma(surface, y_[0], y_[1])
        w_ = y_[2:]
        acc = -np.einsum("hij,i,j->h", gamma, w_, w_)
        return np.array([w_[0], w_[1], acc[0], acc[1]])

    def rk4(y_, h_):
        k1 = rhs(y_)
        k2 = rhs(y_ + 0.5 * h_ * k1)
        k3 = rhs(y_ + 0.5 * h_ * k2)
        k4 = rhs(y_ + h_ * k3)
        return y_ + (h_ / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def speed_drift(y_):
        g, _ = _metric_and_gamma(surface, y_[0], y_[1])
        w_ = y_[2:]
        return abs(math.sqrt(w_ @ g @ w_) - 1.0)

    def advance(y_, h_, depth=0):
        y_new = rk4(y_, h_)
        if adaptive and depth < 8 and speed_drift(y_new) > drift_tol:
            y_half = advance(y_, 0.5 * h_, depth + 1)
            return advance(y_half, 0.5 * h_, depth + 1)
        return y_new

    n = int(round(s_max / step))
    h = s_max / n
    out = np.empty((n + 1, 5))
    out[0] = (0.0, *y)
    for i in range(n):
        try:
            y = advance(y, h)
        except LeftDomain as err:
            raise LeftDomain(str(err),
                             state=GeodesicState(y[0], y[1], y[2], y[3],
                                                 s=i * h)) from None
        out[i + 1] = ((i + 1) * h, *y)
    return GeodesicTrajectory(out[:, 0], out[:, 1], out[:, 2], out[:, 3], out[:, 4])


# ---------------------------------------------------------------------------
# intrinsic curvature and moving-frame residuals
# ---------------------------------------------------------------------------

def _jet_dot3(a: Sequence[Jet], b: Sequence[Jet]) -> Jet:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def egregium_curvature(surface: Surface, u: float, v: float) -> float:
    """Gaussian curvature from the first fundamental form alone (metric and
    connection, no normal data)."""
    jets = surface.mapper.eval_jets(u, v, 3)
    fu = [j.deriv(0) for j in jets]   # order-2 jets
    fv = [j.deriv(1) for j in jets]
    g11 = _jet_dot3(fu, fu)
    g12 = _jet_dot3(fu, fv)
    g22 = _jet_dot3(fv, fv)
    if norm(np.array([x.value for x in (g11, g12, g22)])) == 0.0:
        raise IrregularPoint("degenerate metric")
    g11t, g12t, g22t = (x.truncated(1) for x in (g11, g12, g22))
    det = g11t * g22t - g12t * g12t
    if abs(det.value) <= _REG_TOL * max(g11.value * g22.value, np.finfo(float).tiny):
        raise IrregularPoint("degenerate metric")

    def solve(r1: Jet, r2: Jet):
        return ((r1 * g22t - r2 * g12t) / det, (g11t * r2 - g12t * r1) / det)

    half = 0.5
    G1_11, G2_11 = solve(g11.deriv(0) * half, g12.deriv(0) - g11.deriv(1) * half)
    G1_12, G2_12 = solve(g11.deriv(1) * half, g22.deriv(0) * half)
    G1_22, G2_22 = solve(g12.deriv(1) - g22.deriv(0) * half, g22.deriv(1) * half)

    if abs(g11.value) >= abs(g12.value):
        num = (G1_11.value * G2_12.value + G2_11.value * G2_22.value
               + G2_11.partial(0, 1) - G1_12.value * G2_11.value
               - G2_12.value * G2_12.value - G2_12.partial(1, 0))
        return num / g11.value
    num = (G1_12.partial(1, 0) + G2_12.value * G1_12.value
           - G1_11.partial(0, 1) - G2_11.value * G1_22.value)
    return num / g12.value


def gauss_weingarten_residual(surface: Surface, u: float, v: float):
    """Scale-relative residuals of the two moving-frame equations: the
    expansion of f_,ij on (f_u, f_v, N) and of N_,j on (f_u, f_v)."""
    jets = surface.mapper.eval_jets(u, v, 3)
    data = jet_at(surface, u, v)
    fu_j = [j.deriv(0) for j in jets]
    fv_j = [j.deriv(1) for j in jets]
    n_raw = [fu_j[1] * fv_j[2] - fu_j[2] * fv_j[1],
             fu_j[2] * fv_j[0] - fu_j[0] * fv_j[2],
             fu_j[0] * fv_j[1] - fu_j[1] * fv_j[0]]
    n_len = _jet_dot3(n_raw, n_raw).sqrt()
    N_jets = [c / n_len for c in n_raw]
    N_u = np.array([j.partial(1, 0) for j in N_jets])
    N_v = np.array([j.partial(0, 1) for j in N_jets])

    p, fu, fv, fuu, fuv, fvv = _first_second(jets)
    seconds = {(0, 0): fuu, (0, 1): fuv, (1, 0): fuv, (1, 1): fvv}
    basis = {0: fu, 1: fv}
    gamma, B, X, N = data.christoffel, data.second_form, data.weingarten, data.normal
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

def surface_area(surface: Surface, u_range=None, v_range=None, order: int = 32) -> float:
    """Area of a parameter sub-rectangle by Gauss-Legendre quadrature of the
    metric area density."""
    (u0, u1), (v0, v1) = surface.domain
    if u_range is not None:
        u0, u1 = u_range
    if v_range is not None:
        v0, v1 = v_range
    xs, wx = np.polynomial.legendre.leggauss(order)
    us = 0.5 * (u1 - u0) * xs + 0.5 * (u0 + u1)
    vs = 0.5 * (v1 - v0) * xs + 0.5 * (v0 + v1)
    total = 0.0
    for ui, wu in zip(us, wx):
        for vi, wv in zip(vs, wx):
            jets = surface.mapper.eval_jets(ui, vi, 1)
            fu = np.array([j.partial(1, 0) for j in jets])
            fv = np.array([j.partial(0, 1) for j in jets])
            det = (fu @ fu) * (fv @ fv) - (fu @ fv) ** 2
            if det <= 0.0:
                raise IrregularPoint(f"degenerate metric at ({ui:g}, {vi:g})")
            total += math.sqrt(det) * wu * wv
    return total * 0.25 * (u1 - u0) * (v1 - v0)


def curve_length_on_surface(surface: Surface, path: ExprMap, t0: float, t1: float) -> float:
    """Length of the surface curve (u(t), v(t)) via the first form."""
    if path.arity != 1 or path.dimension != 2:
        raise ValueError("path must map one parameter to (u, v)")

    def integrand(t):
        jets = path.eval_jet((t,), order=1)
        uv = (jets[0].value, jets[1].value)
        w = np.array([jets[0].partial(1), jets[1].partial(1)])
        g, _ = _metric_and_gamma(surface, *uv)
        return math.sqrt(w @ g @ w)

    value, _ = quad(integrand, t0, t1, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(value)


# ---------------------------------------------------------------------------
# revolution and ruled specifics
# ---------------------------------------------------------------------------

def _arclength_jet_of_profile(mapper: _RevolutionMapper, u: float):
    """Taylor jet of u as a function of profile arc length, at this point."""
    p0, p1, p2, p3 = _univariate_derivs(mapper.radius, u)[0]
    q0, q1, q2, q3 = _univariate_derivs(mapper.height, u)[0]
    qsum = p1 * p1 + q1 * q1
    dq = 2.0 * (p1 * p2 + q1 * q2)
    ddq = 2.0 * (p2 * p2 + p1 * p3 + q2 * q2 + q1 * q3)
    h = qsum ** -0.5
    hp = -0.5 * qsum ** -1.5 * dq
    hpp = 0.75 * qsum ** -2.5 * dq * dq - 0.5 * qsum ** -1.5 * ddq
    u_s = h
    u_ss = hp * h
    u_sss = (hpp * h + hp * hp) * h
    return Jet(1, 3, [u, u_s, u_ss / 2.0, u_sss / 6.0])


def revolution_closed_form(surface: Surface, u: float, v: float) -> dict:
    """Metric, second form and Gaussian curvature of a revolution surface from
    its profile alone.  Profiles that are not parameterized by arc length are
    reparameterized on the fly (the forms then refer to the arc-length
    parameter; the curvature is intrinsic either way)."""
    mapper = surface.mapper
    if not isinstance(mapper, _RevolutionMapper):
        raise ValueError("closed form applies to revolution surfaces only")
    p0, p1, p2, p3 = _univariate_derivs(mapper.radius, u)[0]
    q0, q1, q2, q3 = _univariate_derivs(mapper.height, u)[0]
    if abs(p1 * p1 + q1 * q1 - 1.0) > 1e-9:
        U = _arclength_jet_of_profile(mapper, u)
        phi = U.compose(p0, p1, p2, p3)
        psi = U.compose(q0, q1, q2, q3)
        p0, p1, p2 = phi.partial(0), phi.partial(1), phi.partial(2)
        q1, q2 = psi.partial(1), psi.partial(2)
        arc_length_param = False
    else:
        arc_length_param = True
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
    mapper = surface.mapper
    if not isinstance(mapper, _RuledMapper):
        raise ValueError("developability applies to ruled surfaces only")
    g = _univariate_derivs(mapper.directrix, u)
    l = _univariate_derivs(mapper.director, u)
    gamma_p = np.array([c[1] for c in g])
    lam = np.array([c[0] for c in l])
    lam_p = np.array([c[1] for c in l])
    if norm(lam) <= 1e-12:
        raise DegenerateDirector(f"null director at u={u:g}")
    witness = float(np.dot(cross(gamma_p, lam), lam_p))
    scale = norm(gamma_p) * norm(lam) * norm(lam_p) + np.finfo(float).tiny
    witness /= scale
    return abs(witness) <= _REG_TOL, witness
