"""Curvilinear coordinates: metric tensors, index gymnastics, Christoffel
symbols, covariant derivatives, differential operators in Cartesian,
cylindrical and spherical coordinates, and numerical residuals of the
classical integral theorems.

Coordinate maps go from curvilinear coordinates ``z`` to Cartesian ``x`` and
are given as :class:`~tensorgeom.expr.ExprMap` objects with as many
components as variables.  The cylindrical and spherical operators come from
one engine over the chart: its orthonormal frame E = J / |J| and the frame's
derivatives carry a field's physical components to Cartesian ones, the
Cartesian operator acts, and the result turns back to the frame.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import ExprMap, NumericalFailure, derivatives, parse
from .tensor2 import _finite

__all__ = [
    "DegenerateJacobian", "CoordinateSingularity",
    "CoordMap", "Metric", "metric_at", "christoffel",
    "raise_lower", "covariant_derivative", "divergence_from_chart",
    "laplacian_curvilinear", "diff_ops", "integral_theorem_residual",
    "cartesian_map", "polar_map", "cylindrical_map", "spherical_map",
    "oblique_map", "gauss_legendre_nodes",
]

_SING_GUARD = 1e-8


class DegenerateJacobian(NumericalFailure, ValueError):
    pass


class CoordinateSingularity(NumericalFailure, ValueError):
    pass


class CoordMap:
    """Invertible coordinate map x(z) with a rectangular z-domain."""

    def __init__(self, xmap: ExprMap, domain: Sequence[tuple[float, float]] | None = None):
        if xmap.dimension != xmap.arity:
            raise ValueError("coordinate maps must be square (dimension == arity)")
        self.map = xmap
        self.ndim = xmap.arity
        self.domain = tuple(tuple(float(b) for b in box) for box in (domain or ()))

    def jacobian(self, z) -> np.ndarray:
        return _derivative_arrays(self.map, z, 1)[0]


def _derivative_arrays(em: ExprMap, z, order: int) -> tuple:
    """The partials of each component to the given order, from one evaluation
    of the jets: D1[c, k] by z^k, D2[c, k, l] by z^k and z^l, D3[c, k, l, m]
    and so on.  Each is C-contiguous: numpy's det, @ and einsum round
    differently on other layouts."""
    n = em.arity
    orders = range(1, order + 1)
    D = np.array(derivatives(em, z, _powers(n, order)))
    starts = np.cumsum([0] + [n ** j for j in orders])
    return tuple(np.ascontiguousarray(D[a:b].T).reshape(-1, *(n,) * j)
                 for j, a, b in zip(orders, starts, starts[1:]))


@functools.lru_cache(maxsize=None)
def _powers(n: int, order: int) -> tuple:
    """The rows of ``_derivative_arrays``: per order j, the exponents of each j-tuple of indices."""
    return tuple(tuple(ks.count(i) for i in range(n))
                 for j in range(1, order + 1) for ks in itertools.product(range(n), repeat=j))


@dataclass(frozen=True)
class Metric:
    """Metric data of a chart at one point.

    ``cov``/``con`` are the covariant and contravariant component matrices;
    ``tangent[:, k]`` is the tangent vector to the k-th coordinate line and
    ``dual[k]`` the k-th dual-basis vector.
    """

    cov: np.ndarray
    con: np.ndarray
    tangent: np.ndarray
    dual: np.ndarray
    jacobian: np.ndarray

    def line_element_sq(self, dz) -> float:
        dz = np.asarray(dz, float)
        return float(_finite("the squared line element", lambda: dz @ self.cov @ dz))


def _metric_from_jacobian(J: np.ndarray, z) -> Metric:
    d = _finite("the Jacobian determinant", np.linalg.det, J)
    # |J| or |J|^n past the float range leaves d below 1e-10 |J|^n, and an
    # overflowing inverse makes the inverse metric overflow
    with np.errstate(over="ignore", invalid="ignore"):
        if abs(d) <= 1e-10 * max(np.linalg.norm(J) ** len(J), np.finfo(float).tiny):
            raise DegenerateJacobian(f"Jacobian determinant {d:g} at z={tuple(z)}")
        Jinv = np.linalg.inv(J)
    # J^T J is finite where |J| is
    return Metric(cov=J.T @ J, con=_finite("the inverse metric", lambda: Jinv @ Jinv.T),
                  tangent=J, dual=Jinv, jacobian=J)


def metric_at(chart: CoordMap, z) -> Metric:
    return _metric_from_jacobian(chart.jacobian(z), z)


def christoffel(chart: CoordMap, z, method: str = "second_derivative") -> np.ndarray:
    """Connection coefficients G[h, k, l], symmetric in (k, l).

    ``method="second_derivative"`` contracts the inverse Jacobian with the
    map's second derivatives; ``method="metric_derivative"`` uses the metric
    and its first derivatives.  Both are exact up to rounding.
    """
    J, S = _derivative_arrays(chart.map, z, 2)  # one evaluation of the chart
    return _finite("a Christoffel symbol", _connection, _metric_from_jacobian(J, z), S, method)


def _connection(met: Metric, S: np.ndarray, method: str) -> np.ndarray:
    if method == "second_derivative":
        return np.einsum("hm,mkl->hkl", met.dual, S)
    if method == "metric_derivative":
        # dg[a, b, c] = derivative of g_ab by z^c, then
        # G[h, k, l] = g^hm (dg[m, k, l] + dg[m, l, k] - dg[k, l, m]) / 2
        J = met.jacobian
        dg = np.einsum("mac,mb->abc", S, J) + np.einsum("ma,mbc->abc", J, S)
        return 0.5 * np.einsum("hm,mkl->hkl", met.con,
                               dg + dg.transpose(0, 2, 1) - dg.transpose(2, 0, 1))
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# raising / lowering of indices
# ---------------------------------------------------------------------------

def raise_lower(components, metric: Metric, direction: str) -> np.ndarray:
    """Convert vector or tensor components between variances.

    Vectors: ``direction`` is "down" (contravariant -> covariant) or "up".
    Matrices: "down_down" / "up_up" convert fully, "mixed_from_co" and
    "mixed_from_contra" produce L^i_j.
    """
    a = np.asarray(components, float)
    g, gi = metric.cov, metric.con
    if a.ndim == 1:
        if direction == "down":
            return g @ a
        if direction == "up":
            return gi @ a
    elif a.ndim == 2:
        if direction == "down_down":
            return g @ a @ g
        if direction == "up_up":
            return gi @ a @ gi
        if direction == "mixed_from_co":
            return gi @ a
        if direction == "mixed_from_contra":
            return a @ g
    raise ValueError(f"unsupported direction {direction!r} for shape {a.shape}")


# ---------------------------------------------------------------------------
# fields over a chart and their covariant derivatives
# ---------------------------------------------------------------------------

def covariant_derivative(field, chart: CoordMap, z, variance: str) -> np.ndarray:
    """Covariant derivative of a field given in chart components, an ExprMap
    over the chart's variables (its partials come from exact jets).

    variance "contra": returns D[h, k] = v^h_;k.
    variance "co":     returns D[h, k] = v_h;k.
    variance "tensor_contra" / "tensor_co" / "tensor_mixed": D[n, p, h] for
    L^np, L_np and L^n_p respectively (mixed: first index up).
    """
    n = chart.ndim
    if not isinstance(field, ExprMap) or field.arity != n:
        raise ValueError("a field must be an ExprMap over the chart's variables")
    gamma = christoffel(chart, z)
    z = tuple(float(c) for c in z)
    values, partials = np.array(field(*z)), _derivative_arrays(field, z, 1)[0]
    return _finite("the covariant derivative", _covariant, gamma, values, partials, variance)


def _covariant(gamma, values, partials, variance):
    if variance == "contra":
        return partials + np.einsum("hkl,l->hk", gamma, values)
    if variance == "co":
        return partials - np.einsum("lkh,l->hk", gamma, values)
    n = len(gamma)
    L = values.reshape(n, n)
    dL = partials.reshape(n, n, n)
    if variance == "tensor_contra":
        return (dL + np.einsum("nhr,rp->nph", gamma, L)
                + np.einsum("phr,nr->nph", gamma, L))
    if variance == "tensor_co":
        return (dL - np.einsum("rnh,rp->nph", gamma, L)
                - np.einsum("rph,nr->nph", gamma, L))
    if variance == "tensor_mixed":
        return (dL + np.einsum("nhr,rp->nph", gamma, L)
                - np.einsum("rph,nr->nph", gamma, L))
    raise ValueError(f"unknown variance {variance!r}")


def divergence_from_chart(field, chart: CoordMap, z) -> float:
    """Divergence of a contravariant vector field: the trace of v^h_;k."""
    D = covariant_derivative(field, chart, z, "contra")
    return float(_finite("the divergence", np.trace, D))


def laplacian_curvilinear(field, chart: CoordMap, z) -> float:
    """Laplace operator of a scalar field in arbitrary coordinates:
    g^hk (d_h d_k f - G^l_hk d_l f)."""
    z = tuple(float(c) for c in z)
    if not isinstance(field, ExprMap) or field.dimension != 1:
        raise ValueError("needs a scalar ExprMap over the chart variables")
    J, S = _derivative_arrays(chart.map, z, 2)
    met = _metric_from_jacobian(J, z)
    D1, D2 = _derivative_arrays(field, z, 2)
    d1, d2 = D1[0], D2[0]

    def terms():
        gamma = _connection(met, S, "second_derivative")
        return np.einsum("hk,hk->", met.con, d2 - np.einsum("lhk,l->hk", gamma, d1))
    return float(_finite("the Laplacian", terms))


# ---------------------------------------------------------------------------
# differential operators in physical components
# ---------------------------------------------------------------------------

def _check_kind(field: ExprMap, kind: str):
    want = {"scalar": 1, "vector": 3, "tensor": 9}[kind]
    if field.dimension != want:
        raise ValueError(f"{kind} field needs {want} components, got {field.dimension}")
    if field.arity != 3:
        raise ValueError("fields must depend on the three chart coordinates")


def diff_ops(system: str, kind: str, op: str, field: ExprMap, point) -> np.ndarray | float:
    """Differential operators in Cartesian, cylindrical or spherical frames.

    Components are physical: on the orthonormal frame of unit tangents to the
    coordinate lines.  Cylindrical coordinates are (radius, azimuth, height);
    spherical are (radius, colatitude, azimuth).  A result past the float
    range raises NumericalFailure.
    """
    _check_kind(field, kind)
    point = tuple(float(c) for c in point)
    name = f"the {op} of a {kind} field"
    if system == "cartesian":
        return _finite(name, _cartesian_at, kind, op, field, point)
    if system == "cylindrical":
        if abs(point[0]) < _SING_GUARD:
            raise CoordinateSingularity("cylindrical operators need radius > 0")
    elif system == "spherical":
        if abs(point[0]) < _SING_GUARD or abs(math.sin(point[1])) < _SING_GUARD:
            raise CoordinateSingularity("spherical operators need r > 0 and a "
                                        "colatitude away from the poles")
    else:
        raise ValueError(f"unknown coordinate system {system!r}")
    return _finite(name, _frame_ops, _system_chart(system), kind, op, field, point)


@functools.lru_cache(maxsize=None)
def _system_chart(system: str) -> CoordMap:
    """The chart of a curvilinear system, parsed on first use."""
    return {"cylindrical": cylindrical_map, "spherical": spherical_map}[system]()


def _cartesian_at(kind, op, field, point):
    return _cartesian_ops(kind, op, *_derivative_arrays(field, tuple(float(c) for c in point), 2))


def _cartesian_ops(kind, op, d1, d2):
    """An operator from the Cartesian partials d1[c, a] and d2[c, a, b] of
    each component c of a field."""
    if kind == "scalar":
        if op == "grad":
            return d1[0].copy()
        if op == "laplacian":
            return float(np.einsum("ckk->ck", d2)[0].sum())
    if kind == "vector":
        if op == "grad":
            return d1.copy()
        if op == "div":
            return float(d1[0, 0] + d1[1, 1] + d1[2, 2])
        if op == "curl":
            return np.array([d1[2, 1] - d1[1, 2],
                             d1[0, 2] - d1[2, 0],
                             d1[1, 0] - d1[0, 1]])
        if op == "laplacian":
            return np.einsum("ckk->ck", d2).sum(axis=1)
    if kind == "tensor" and op == "div":
        L1 = d1.reshape(3, 3, 3)
        return np.einsum("ijj->i", L1)
    raise ValueError(f"unsupported op {op!r} for {kind} fields")


def _frame_ops(chart: CoordMap, kind, op, field, point):
    """An operator on the orthonormal frame E = J / h of an orthogonal chart
    (h_k = |J[:, k]|): the field's Cartesian components (f, E v or E t E^T)
    get Cartesian partials by the chain rule, the Cartesian operator acts,
    and its result turns back to the frame."""
    J, S, T = _derivative_arrays(chart.map, point, 3)
    h = np.linalg.norm(J, axis=0)
    E = J / h
    # J_k = h_k E_k differentiated once and twice, with dh[k, l] = d_l h_k = E_k . S_kl
    dh = np.einsum("ak,akl->kl", E, S)
    dE = (S - E[:, :, None] * dh) / h[:, None]
    d2h = np.einsum("akp,akl->klp", dE, S) + np.einsum("ak,aklp->klp", E, T)
    d2E = (T - E[:, :, None, None] * d2h - np.einsum("kl,akp->aklp", dh, dE)
           - np.einsum("kp,akl->aklp", dh, dE)) / h[:, None, None]
    # value and partials of the Cartesian components by the product rule: E
    # times the transposed rows of 3, once for a vector (E v), twice for a
    # tensor (E (E t^T)^T); the partials are on the trailing axes
    G = (np.array(field(*point)), *_derivative_arrays(field, point, 2))
    for _ in range({"scalar": 0, "vector": 1, "tensor": 2}[kind]):
        X0, X1, X2 = (np.swapaxes(x.reshape(-1, 3, *x.shape[1:]), 0, 1) for x in G)
        G = [x.reshape(-1, *x.shape[2:]) for x in (
            E @ X0,
            np.einsum("aik,im->amk", dE, X0) + np.einsum("ai,imk->amk", E, X1),
            np.einsum("aikl,im->amkl", d2E, X0) + np.einsum("aik,iml->amkl", dE, X1)
            + np.einsum("ail,imk->amkl", dE, X1) + np.einsum("ai,imkl->amkl", E, X2))]
    # G1 = d1 J and G2 = J^T d2 J + d1 . S, where J^-1 = E^T / h as E is orthogonal
    Jinv = E.T / h[:, None]
    d1 = G[1] @ Jinv
    d2 = np.einsum("ka,ckl,lb->cab", Jinv, G[2] - np.einsum("ca,akl->ckl", d1, S), Jinv)
    r = _cartesian_ops(kind, op, d1, d2)
    return r if np.ndim(r) == 0 else E.T @ r @ E if np.ndim(r) == 2 else E.T @ r


# ---------------------------------------------------------------------------
# integral theorems as numerical residuals
# ---------------------------------------------------------------------------

def gauss_legendre_nodes(a: float, b: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _box_flux(vec_at, box, order):
    """Outward flux of a vector field through the boundary of a box."""
    total = 0.0
    for axis in range(3):
        lo, hi = box[axis]
        others = [i for i in range(3) if i != axis]
        xs, wx = gauss_legendre_nodes(*box[others[0]], order)
        ys, wy = gauss_legendre_nodes(*box[others[1]], order)
        for side, sign in ((lo, -1.0), (hi, 1.0)):
            for xi, wxi in zip(xs, wx):
                for yi, wyi in zip(ys, wy):
                    p = [0.0, 0.0, 0.0]
                    p[axis] = side
                    p[others[0]] = xi
                    p[others[1]] = yi
                    total += sign * vec_at(p)[axis] * wxi * wyi
    return total


def _box_volume_integral(f_at, box, order):
    axes = (zip(*gauss_legendre_nodes(*pair, order)) for pair in box)
    total = 0.0
    for (xi, wxi), (yi, wyi), (zi, wzi) in itertools.product(*axes):
        total += f_at((xi, yi, zi)) * wxi * wyi * wzi
    return total


def integral_theorem_residual(theorem: str, fields, domain, order: int = 16) -> float:
    """|boundary integral - volume integral| for the classical theorems.

    theorem="gauss":  fields is one vector ExprMap, domain a box of three
                      (lo, hi) pairs.
    theorem="flux":   same data; returns |flux| (checks a divergence-free field).
    theorem="green":  fields is a pair of scalar ExprMaps, domain a box.
    theorem="stokes": fields is one vector ExprMap, domain a dict with keys
                      "center" (3 floats, plane z = center[2]) and "radius".
    """
    if theorem in ("gauss", "flux", "stokes"):
        v = fields if isinstance(fields, ExprMap) else fields[0]
        _check_kind(v, "vector")
    if theorem in ("gauss", "flux", "green"):
        if theorem == "green":  # Gauss's theorem for the field g grad f - f grad g
            f, g = fields
            _check_kind(f, "scalar")
            _check_kind(g, "scalar")

            def skew(op):  # g op(f) - f op(g)
                return lambda p: (g(*p)[0] * _cartesian_at("scalar", op, f, p)
                                  - f(*p)[0] * _cartesian_at("scalar", op, g, p))
            vec_at, div_at = skew("grad"), skew("laplacian")
        else:
            vec_at, div_at = (lambda p: v(*p)), (lambda p: _cartesian_at("vector", "div", v, p))
        box = tuple(tuple(float(b) for b in pair) for pair in domain)
        flux = _box_flux(vec_at, box, order)
        if theorem == "flux":
            return abs(flux)
        return abs(flux - _box_volume_integral(div_at, box, order))
    if theorem == "stokes":
        cx, cy, cz = (float(c) for c in domain["center"])
        radius = float(domain["radius"])
        m = max(64, 8 * order)
        thetas = np.arange(m) * (2.0 * math.pi / m)
        line = 0.0
        for th in thetas:
            p = (cx + radius * math.cos(th), cy + radius * math.sin(th), cz)
            tangent = np.array([-math.sin(th), math.cos(th), 0.0])
            line += radius * float(np.dot(v(*p), tangent))
        line *= 2.0 * math.pi / m
        rs, wr = gauss_legendre_nodes(0.0, radius, order)
        surf = 0.0
        for r, w in zip(rs, wr):
            for th in thetas:
                p = (cx + r * math.cos(th), cy + r * math.sin(th), cz)
                curl_z = _cartesian_at("vector", "curl", v, p)[2]
                surf += curl_z * r * w
        surf *= 2.0 * math.pi / m
        return abs(line - surf)
    raise ValueError(f"unknown theorem {theorem!r}")


# ---------------------------------------------------------------------------
# ready-made charts
# ---------------------------------------------------------------------------

def cartesian_map() -> CoordMap:
    return CoordMap(parse(["z1", "z2", "z3"], ["z1", "z2", "z3"]),
                    domain=((-10, 10), (-10, 10), (-10, 10)))


def polar_map() -> CoordMap:
    return CoordMap(parse(["r*cos(t)", "r*sin(t)"], ["r", "t"]),
                    domain=((0.05, 10), (-3.1, 3.1)))


def cylindrical_map() -> CoordMap:
    return CoordMap(parse(["rho*cos(t)", "rho*sin(t)", "z"], ["rho", "t", "z"]),
                    domain=((0.05, 10), (-3.1, 3.1), (-10, 10)))


def spherical_map() -> CoordMap:
    # variables: radius, colatitude, azimuth
    return CoordMap(parse(["r*sin(p)*cos(t)", "r*sin(p)*sin(t)", "r*cos(p)"],
                          ["r", "p", "t"]),
                    domain=((0.05, 10), (0.05, 3.09), (-3.1, 3.1)))


def oblique_map(alpha1: float, alpha2: float) -> CoordMap:
    """Planar skew axes inclined at alpha1 and alpha2 to the first axis."""
    consts = {"a1": float(alpha1), "a2": float(alpha2)}
    return CoordMap(parse(["z1*cos(a1)+z2*cos(a2)", "z1*sin(a1)+z2*sin(a2)"],
                          ["z1", "z2"], consts),
                    domain=((-10, 10), (-10, 10)))
