"""Parametric curves in 3-space: arc length, moving frames, curvature and
torsion, osculating circle/sphere, evolutes, canonical-form coefficients and
reconstruction of a curve from prescribed curvature/torsion profiles.

``frenet`` and ``evolute`` (and a curve's points, velocities and speeds) also
take an array of parameter values: each result then holds one entry per
value, and a value where the single-point call raises is marked with NaN.
numpy warns about such values unless the batch runs under
``np.errstate(all="ignore")``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._errors import NumericalFailure, _stack
from .expr import (ExprMap, _check, _chunked, _pointwise, _pow, _raising, _abs_arguments,
                   derivatives, parse)
from .tensor2 import (NotNearOrthogonal, _finite, _orthonormal_polish, cross, mixed, norm,
                      normalize)
from .tensor2 import sqrt_spd  # noqa: F401 -- unused; bench/'s tracer test looks it up

__all__ = [
    "IrregularCurve", "UndefinedNormal", "UndefinedOsculatingSphere",
    "NotPlanarCurve", "NonOrthonormalSeed", "QuadratureFailure",
    "Curve", "FrenetData", "CurvatureProfile", "BonnetResult",
    "integrate", "arc_length", "arclength_table", "frenet", "osculating", "evolute",
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


class QuadratureFailure(NumericalFailure, RuntimeError):
    pass


_REG_TOL = 1e-10
_SCALE_SAMPLES = 128  # parameter samples that set a curve's length scale
_PLANE = parse(["x", "y", "0"], ["x", "y"])  # a planar curve lies in the plane x3 = 0
_ORDERS = ((0,), (1,), (2,), (3,))


class Curve:
    """Expression-defined curve with a parameter interval.

    The map must have one variable and two or three components; a planar
    map is lifted to the plane x3 = 0, so ``map`` has three components.
    """

    def __init__(self, cmap: ExprMap, domain: tuple[float, float]):
        if cmap.arity != 1:
            raise ValueError("a curve map takes exactly one variable")
        if cmap.dimension not in (2, 3):
            raise ValueError("a curve map needs 2 or 3 components")
        if not domain[0] < domain[1]:
            raise ValueError("empty parameter interval")
        self.map = cmap if cmap.dimension == 3 else _PLANE.compose(cmap)
        self.domain = (float(domain[0]), float(domain[1]))
        ts = np.linspace(*self.domain, _SCALE_SAMPLES)
        pts = np.array(_pointwise(self.point, ts))
        with np.errstate(over="ignore"):  # |p|^2 beyond the float range: measured below
            self.scale = float(np.max(np.linalg.norm(pts, axis=1)))
        if self.scale == math.inf:
            self.scale = max(math.hypot(*p) for p in pts)
        self._planar = bool(np.max(np.abs(pts[:, 2])) <= _REG_TOL * max(self.scale, 1.0))

    # -- evaluation helpers ---------------------------------------------
    def derivatives(self, t: float, order: int = 3) -> list[np.ndarray]:
        """[p, p', p'', ...] up to the requested order."""
        return list(map(_stack, derivatives(self.map, (t,), _ORDERS[:order + 1])))

    def point(self, t: float) -> np.ndarray:
        return _stack(self.map(t))

    def velocity(self, t: float) -> np.ndarray:
        return self.derivatives(t, 1)[1]

    def speed(self, t: float) -> float:
        with np.errstate(over="ignore"):  # an overflow is reported below, naming t
            v = _overflow_checked(norm(self.velocity(t)), t)
        return _check(v > _REG_TOL * max(self.scale, 1.0), lambda: IrregularCurve(
            f"|p'({t:g})| = {v:g} below regularity tolerance", t=t), v)

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

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21; Piessens et al. 1983): nodes in
# [0, 1) descending, so the centre is last; the 10-point Gauss rule uses the odd indices.
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
        0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
        0.2943928627014602, 0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
        0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_EPMACH, _UFLOW = 2.220446049250313e-16, 2.2250738585072014e-308  # d1mach(4), d1mach(1)
_EPSREL, _MAX_PANELS = 1e-12, 200
_SCAN = 257  # parameter samples of a length's regularity and kink scan


_KRONROD_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # the Gauss pairs first


def _kronrod21(f, a: float, b: float) -> tuple[float, float, float]:
    """dqk21 on [a, b] in its own summation order: (result, abserr, resasc).
    The 21 values of f come from one batch."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    nodes = [centr] + [x for j in _KRONROD_ORDER
                       for x in (centr - hlgth * _XGK[j], centr + hlgth * _XGK[j])]
    fc, *pairs = map(float, _pointwise(f, nodes))
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for k, j in enumerate(_KRONROD_ORDER):
        f1, f2 = fv[j] = pairs[2 * k], pairs[2 * k + 1]
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j, (f1, f2) in enumerate(fv):
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs, resasc = resabs * abs(hlgth), resasc * abs(hlgth)
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resasc


def integrate(f: Callable[[float], float], a: float, b: float, epsabs: float,
              breaks: tuple = ()):
    """Integral of f over [a, b] to max(epsabs, 1e-12 * |value|): one panel if
    it passes QUADPACK's dqagse test, else the panel of largest error is bisected
    (no extrapolation) until the summed error estimate meets the bound.
    ``breaks``, sorted points where f may have a kink or a jump, are the first
    panel edges where they lie inside (a, b), as in QUADPACK's dqagp.

    f takes a float, or an array of them (the nodes of a panel) and returns
    their values; a non-finite value is recomputed by f on that node alone."""
    edges = (a, *(x for x in breaks if a < x < b), b)
    panels = [(lo, hi, *_kronrod21(f, lo, hi)) for lo, hi in zip(edges, edges[1:])]
    # one panel passes on dqagse's test; several, once their summed error is small
    result, abserr, resasc = panels[0][2:] if len(panels) == 1 else \
        (sum(p[2] for p in panels), sum(p[3] for p in panels), None)
    if (abserr <= max(epsabs, _EPSREL * abs(result)) and abserr != resasc) or abserr == 0.0:
        return result
    while True:  # panels are kept and summed in dqagse's order
        if len(panels) >= _MAX_PANELS:
            raise QuadratureFailure(f"the integral over [{a:g}, {b:g}] did not converge in "
                                    f"{_MAX_PANELS} panels (error estimate {abserr:g})")
        i = max(range(len(panels)), key=lambda k: panels[k][3])
        lo, hi = panels[i][:2]
        mid = 0.5 * (lo + hi)
        left, right = ((x, y, *_kronrod21(f, x, y)) for x, y in ((lo, mid), (mid, hi)))
        panels[i], new = (right, left) if right[3] > left[3] else (left, right)
        panels.append(new)
        result, abserr = sum(p[2] for p in panels), sum(p[3] for p in panels)
        if abserr <= max(epsabs, _EPSREL * abs(result)):
            return result


quad = integrate  # the name bench/'s tracer test looks up


def arc_length(curve: Curve, t0: float, t1: float) -> float:
    """Length of the arc between t0 < t1 by adaptive quadrature of |p'|."""
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    breaks, top = _speed_scan(curve, t0, t1)
    return integrate(lambda t: norm(curve.velocity(t)), t0, t1, 1e-10 * (t1 - t0) * top,
                     breaks)


def _speed_scan(curve: Curve, t0: float, t1: float) -> tuple[tuple, float]:
    """The kinks in [t0, t1], the points where the argument of an abs changes
    sign (each a panel edge of a length), and the largest speed at _SCAN
    samples off them.  The speed check also enforces regularity and a finite
    speed; at a kink the speed's jet is undefined."""
    ts = np.linspace(t0, t1, _SCAN)
    kinks = _abs_arguments(curve.map)
    breaks = _sign_changes(kinks, ts) if kinks.dimension else ()
    return breaks, max(_pointwise(curve.speed, np.setdiff1d(ts, breaks)), default=0.0)


def _sign_changes(values: Callable, ts: np.ndarray) -> tuple:
    """The sorted points where a component of ``values`` (a function of t, on a
    float or an array) is zero at a sample ``ts`` or changes sign between
    adjacent ones; a change is bisected down to two adjacent doubles and given
    by the upper one."""
    with np.errstate(all="ignore"):  # a NaN sign never counts as a change
        signs = np.sign(np.array(values(ts)))
        out = set(ts[np.any(signs == 0.0, axis=0)].tolist())
        for c, i in zip(*np.nonzero(signs[:, :-1] * signs[:, 1:] < 0.0)):
            lo, hi = float(ts[i]), float(ts[i + 1])
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if np.sign(values(mid)[c]) == signs[c, i]:
                    lo = mid
                else:
                    hi = mid
            out.add(hi)
    return tuple(sorted(out))


def arclength_table(curve: Curve, n: int = 128) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative arc length s(t) on an n+1 point grid over the full domain."""
    t0, t1 = curve.domain
    ts = np.linspace(t0, t1, n + 1)
    breaks = _speed_scan(curve, t0, t1)[0]
    s = np.zeros(n + 1)
    for i in range(n):
        s[i + 1] = s[i] + integrate(lambda t: norm(curve.velocity(t)),
                                    float(ts[i]), float(ts[i + 1]), 1e-12, breaks)
    if np.any(np.diff(s) <= 0.0):
        raise IrregularCurve("arc length is not strictly increasing")
    return ts, s


# ---------------------------------------------------------------------------
# Frenet machinery
# ---------------------------------------------------------------------------

def _overflow_checked(v, t):
    """|p'| at t (a float, or an array over a chunk of points), which must not
    overflow."""
    return _check(v != math.inf, lambda: IrregularCurve(f"|p'| overflows at t = {t:g}", t=t), v)


def _frenet_core(t: float, p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, p3: np.ndarray,
                 scale: float) -> FrenetData:
    with np.errstate(over="ignore"):  # an overflow is reported below, naming t
        v = norm(p1)
        w = cross(p1, p2)
        nw = norm(w)
    v = _overflow_checked(v, t)
    v = _check(v > _REG_TOL * max(scale, 1.0),
               lambda: IrregularCurve(f"|p'({t:g})| below regularity tolerance", t=t), v)
    # a NaN |p' x p''| passes, for the overflow check below to name
    nw = _check((nw > _REG_TOL * v * v) | (nw != nw), lambda: UndefinedNormal(
        "p' and p'' are parallel; the principal normal is undefined (straight-line point)"), nw)
    # from the marked v and nw, so that every result of a marked point is NaN
    with np.errstate(over="ignore"):
        v3, nw2 = (_pow(np.float64(x), k) for x, k in ((v, 3), (nw, 2)))
    v3, nw2 = _check(np.isfinite(v3) & np.isfinite(nw2), lambda: IrregularCurve(
        f"|p'|^3 or |p' x p''|^2 overflows at t = {t:g}", t=t), v3, nw2)
    tangent = p1 / np.asarray(v)[..., None]
    curvature = nw / v3
    torsion = -np.vecdot(w, p3) / nw2
    normal = normalize(p2 - np.asarray(np.vecdot(p2, tangent))[..., None] * tangent)
    binormal = cross(tangent, normal)
    return FrenetData(t, p0, tangent, normal, binormal, curvature, torsion, 1.0 / curvature)


def frenet(curve: Curve, t: float) -> FrenetData:
    return _frenet_core(t, *curve.derivatives(t, 3), curve.scale)


def _frenet_and_curvature_rate(curve: Curve, t: float) -> tuple[FrenetData, float]:
    """The Frenet data at t and d(curvature)/ds, from one evaluation of the
    curve: with w = p' x p'' and v = |p'|,
    dc/ds = [w.(p' x p''')/(|w| v^3) - 3c (p'.p'')/v^2] / v."""
    p0, p1, p2, p3 = curve.derivatives(t, 3)
    data = _frenet_core(t, p0, p1, p2, p3, curve.scale)
    v, w = norm(p1), cross(p1, p2)
    return data, (np.vecdot(w, cross(p1, p3)) / (norm(w) * _pow(v, 3))
                  - 3.0 * data.curvature * np.vecdot(p1, p2) / (v * v)) / v


def osculating(curve: Curve, t: float):
    """Osculating circle (center, radius) and, off planar points, the
    osculating sphere (center, radius)."""
    data, dc_ds = _frenet_and_curvature_rate(curve, t)
    c, rho = data.curvature, data.radius
    circle_center = data.point + rho * data.normal
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
    return data.point + np.asarray(data.radius)[..., None] * data.normal


def canonical_coefficients(curve: Curve, t0: float) -> tuple[float, float, float]:
    """(c0, dc/ds at t0, torsion0): the coefficients of the local projections
    onto the osculating / rectifying / normal planes."""
    data, dc_ds = _frenet_and_curvature_rate(curve, t0)
    return data.curvature, dc_ds, data.torsion


# ---------------------------------------------------------------------------
# reconstruction from curvature and torsion
# ---------------------------------------------------------------------------

def _as_callable(f) -> Callable:
    """A profile as a function of arc length, called with an array of arc
    lengths (``bonnet_reconstruct`` also calls it with single ones): an
    ExprMap evaluates the whole array, the ``(nodes, values)`` form returns
    ``np.interp`` of it, and a callable is used as it is; a constant that a
    callable returns stands for every arc length."""
    if isinstance(f, ExprMap):
        if f.arity != 1 or f.dimension != 1:
            raise ValueError("profile maps must be scalar functions of one variable")
        return lambda s: f(s)[0]
    if callable(f):
        return f
    nodes, values = f
    nodes = np.asarray(nodes, float)
    values = np.asarray(values, float)
    return lambda s: np.interp(s, nodes, values)


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature and torsion as functions of arc length."""

    curvature: Callable[[float], float]
    torsion: Callable[[float], float]
    s_range: tuple[float, float]

    @classmethod
    def build(cls, curvature, torsion, s_range) -> "CurvatureProfile":
        """Each profile is an ExprMap of one variable, a ``(nodes, values)``
        table (interpolated linearly) or a callable; a callable takes an array
        of arc lengths and returns one value per arc length, or a constant."""
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


def _rk4(f, y: list, h: float) -> list:
    """One classical Runge-Kutta step of y' = f(node, y) on a list of numbers
    (floats, or arrays of one shape), entry by entry: f is evaluated at the step's
    start (node 0), twice at its midpoint (node 1) and at its end (node 2)."""
    k1 = f(0, y)
    k2 = f(1, [a + 0.5 * h * b for a, b in zip(y, k1)])
    k3 = f(1, [a + 0.5 * h * b for a, b in zip(y, k2)])
    k4 = f(2, [a + h * b for a, b in zip(y, k3)])
    return [a + (h / 6.0) * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


def _cartan_rhs(c: float, theta: float, y: list) -> list:
    """p' = T and the Frenet-Serret equations, on the 12 numbers (p, T, N, B)."""
    _, _, _, t0, t1, t2, n0, n1, n2, b0, b1, b2 = y
    return [t0, t1, t2, c * n0, c * n1, c * n2,
            -c * t0 - theta * b0, -c * t1 - theta * b1, -c * t2 - theta * b2,
            theta * n0, theta * n1, theta * n2]


def bonnet_reconstruct(profile: CurvatureProfile, p0, frame0, step: float) -> BonnetResult:
    """Integrate the moving-frame system e' = C(s) e together with p' = tangent.

    Fixed-step RK4 on the 12 numbers (p, T, N, B), all plain floats; after
    every step one Newton-Schulz step (``tensor2._orthonormal_polish``, on the
    frame's 9 numbers) returns the frame to the rotations, which RK4 leaves it
    next to.
    ``frame0`` holds the rows (tangent, normal, binormal).  A step that leaves
    the frame too far from orthonormal for that polish (a step too coarse for
    the curvature) raises NotNearOrthogonal, naming the arc length it reached.
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
    h = (s1 - s0) / n
    starts = s0 + np.arange(n) * h
    # per step, (c, theta) at its start, midpoint and end
    rows = _raising(_chunked(lambda *xs: [f(x) for x in xs for f in (c_of, th_of)],
                             starts, starts + 0.5 * h, starts + h))
    states = np.empty((n + 1, 12))  # p, T, N, B
    states[0, :3], states[0, 3:] = p0, E.ravel()
    y = states[0].tolist()
    # a step that overflows leaves a frame whose defect is not finite: it raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for i, row in zip(range(n), rows):
            y = _rk4(lambda j, y: _cartan_rhs(row[2 * j], row[2 * j + 1], y), y, h)
            try:
                y[3:] = _orthonormal_polish(y[3:])
            except NotNearOrthogonal as exc:
                raise NotNearOrthogonal(
                    f"the RK4 step to s = {starts[i] + h:g} leaves the frame {exc.defect:.3g} "
                    f"from orthonormal: the step {h:g} is too coarse for the curvature",
                    exc.defect) from None
            states[i + 1] = y
    ss = np.concatenate(([s0], starts + h))
    return BonnetResult(ss, *states.reshape(n + 1, 4, 3).transpose(1, 0, 2))


def discrete_frenet(s: np.ndarray, points: np.ndarray):
    """Curvature/torsion of uniformly sampled points by high-order differences.

    Returns (s_inner, curvature, torsion) on the interior of the grid.
    """
    h = s[1] - s[0]
    if np.max(np.abs(np.diff(s) - h)) > 1e-12 * max(abs(h), 1.0):
        raise ValueError("samples must be uniform in arc length")
    # past h ~ 1e102, h^3 overflows and d3, so the torsion, would read 0;
    # below h ~ 1e-108 it underflows, and d3 would divide by 0
    h3 = _finite("h^3", lambda: 2.0 * h ** 3)
    if h3 == 0.0:
        raise NumericalFailure("h^3 underflows")
    p = np.asarray(points, float)
    pm2, pm1, pp1, pp2 = p[:-4], p[1:-3], p[3:-1], p[4:]
    pc = p[2:-2]
    d1 = (pm2 - 8.0 * pm1 + 8.0 * pp1 - pp2) / (12.0 * h)
    d2 = (-pm2 + 16.0 * pm1 - 30.0 * pc + 16.0 * pp1 - pp2) / (12.0 * h * h)
    d3 = (-pm2 + 2.0 * pm1 - 2.0 * pp1 + pp2) / h3
    w = np.cross(d1, d2)
    nw = np.linalg.norm(w, axis=1)
    nw2 = nw ** 2
    if not nw2.all():
        raise UndefinedNormal(f"|p' x p''| is 0 at s = {s[2 + np.argmin(nw2 != 0.0)]:g}: "
                              "the principal normal is undefined")
    speed = np.linalg.norm(d1, axis=1)
    curvature = nw / speed ** 3
    torsion = -np.einsum("ij,ij->i", w, d3) / nw2
    return s[2:-2], curvature, torsion
