"""Vectors and second-rank tensors on 3-space.

Everything works on plain ``numpy`` arrays: vectors are shape ``(3,)``,
tensors shape ``(3, 3)``.  The module covers the full algebra (dyads,
invariants, inverse/adjugate, the axial isomorphism, cross products),
spectral and polar decompositions, every rotation parameterization, and
mirror reflections.  ``norm``, ``normalize`` and ``cross`` also take arrays
of vectors, shape ``(..., 3)``, and work along the last axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import NumericalFailure, _stack

__all__ = [
    "SingularTensor", "NotSkew", "NotSymmetric", "NotSPD",
    "NonPositiveDeterminant", "NotARotation", "AxisUndefined", "NotUnit", "NotNearOrthogonal",
    "SpectralDecomp", "AxisAngle", "PolarDecomp",
    "norm", "normalize", "dyad", "apply", "compose", "transpose",
    "sym_part", "skew_part", "spherical_part", "deviatoric_part",
    "trace", "inner", "tensor_norm", "det", "principal_invariants",
    "inverse", "adjugate", "determinant_suite",
    "axial_tensor", "axial_vector", "cross", "mixed",
    "eigen_sym", "sqrt_spd", "polar", "rotation_from_axis_angle",
    "rotation_to_axis_angle", "rotation_composed", "rot_x", "rot_y", "rot_z",
    "reflexion", "change_basis_vector", "change_basis_tensor",
    "is_rotation", "random_rotation",
]

I3 = np.eye(3)
_SINGULAR_TOL = 1e-12  # inverse refuses |det| at or below this times |L|^3
_SYMMETRY_TOL = 1e-10  # eigen_sym refuses |L - L^T| above this times |L|
_SPD_TOL = 1e-12       # sqrt_spd refuses an eigenvalue at or below this times the largest
_POLISH_TOL = 1e-8     # a defect max|R^T R - I| at or below this takes one polish step
# Below this defect |R^T R - I| <= 3 max|R^T R - I| < 0.5 in the spectral norm:
# each singular value squared is within 0.5 of 1, where a step about squares it.
_POLISH_LIMIT = 1.0 / 6.0
_POLISH_STEPS = 8      # from just below _POLISH_LIMIT, 6 steps reach the rounding level


class SingularTensor(NumericalFailure, ValueError):
    pass


class NotSkew(NumericalFailure, ValueError):
    pass


class NotSymmetric(NumericalFailure, ValueError):
    pass


class NotSPD(NumericalFailure, ValueError):
    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NonPositiveDeterminant(NumericalFailure, ValueError):
    pass


class NotARotation(NumericalFailure, ValueError):
    pass


class AxisUndefined(NumericalFailure, ValueError):
    pass


class NotUnit(NumericalFailure, ValueError):
    pass


class NotNearOrthogonal(NumericalFailure, ValueError):
    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


# ---------------------------------------------------------------------------
# basic algebra
# ---------------------------------------------------------------------------

def norm(v) -> float:
    """Euclidean length of a vector, a float; on an array of vectors (..., 3)
    an array of their lengths, each rounded as ``np.linalg.norm`` of that
    vector.  The Frobenius norm of a tensor is ``tensor_norm``."""
    v = np.asarray(v, dtype=float)
    n = np.sqrt(np.vecdot(v, v))
    return float(n) if n.ndim == 0 else n


def normalize(v) -> np.ndarray:
    """v over its length; raises ValueError for the null vector.  A single
    vector is first scaled by a power of two, which is exact, so that its
    length neither overflows nor underflows.  On an array of vectors each is
    divided by its own length, and a null one gives NaN."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        v = _unit_scaled(v)
    n = norm(v)
    if np.ndim(n) == 0 and n == 0.0:
        raise ValueError("cannot normalize the null vector")
    return v / np.asarray(n)[..., None]


def _unit_scaled(a: np.ndarray) -> np.ndarray:
    """``a`` times the power of two that puts its largest |entry| in [0.5, 1):
    exact, and no square or sum of squares of it overflows."""
    return np.ldexp(a, -np.frexp(np.max(np.abs(a)))[1])


def dyad(u, v) -> np.ndarray:
    """Rank-one tensor with (u dyad v) w = (v.w) u."""
    return np.outer(u, v)


def apply(L, u) -> np.ndarray:
    return np.asarray(L, dtype=float) @ np.asarray(u, dtype=float)


def compose(A, B) -> np.ndarray:
    return np.asarray(A, dtype=float) @ np.asarray(B, dtype=float)


def transpose(L) -> np.ndarray:
    return np.asarray(L, dtype=float).T.copy()


def sym_part(L) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    return 0.5 * (L + L.T)


def skew_part(L) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    return 0.5 * (L - L.T)


def trace(L) -> float:
    return float(np.trace(L))


def spherical_part(L) -> np.ndarray:
    return (trace(L) / 3.0) * I3


def deviatoric_part(L) -> np.ndarray:
    return np.asarray(L, dtype=float) - spherical_part(L)


def inner(A, B) -> float:
    """Full contraction A_ij B_ij."""
    return float(np.einsum("ij,ij->", np.asarray(A, float), np.asarray(B, float)))


def tensor_norm(L) -> float:
    return math.sqrt(inner(L, L))


def det(L) -> float:
    L = np.asarray(L, dtype=float)
    return (L[0, 0] * L[1, 1] * L[2, 2] + L[0, 1] * L[1, 2] * L[2, 0]
            + L[0, 2] * L[2, 1] * L[1, 0]
            - L[0, 0] * L[1, 2] * L[2, 1] - L[1, 1] * L[0, 2] * L[2, 0]
            - L[2, 2] * L[0, 1] * L[1, 0])


def _finite(name: str, f, *args):
    """f(*args) without numpy's overflow warnings; where a number of the
    result is not finite (an overflow, or inf - inf) NumericalFailure names it."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = f(*args)
    if not np.isfinite(x).all():
        raise NumericalFailure(f"{name} overflows" + (f" ({x:g})" if np.ndim(x) == 0 else ""))
    return x


def principal_invariants(L) -> tuple[float, float, float]:
    """I1 = tr L, I2 = (tr^2 L - tr L^2)/2, I3 = det L."""
    L = np.asarray(L, dtype=float)
    t = _finite("the invariant I1", trace, L)
    i2 = _finite("the invariant I2", lambda: 0.5 * (t * t - trace(L @ L)))
    return t, i2, _finite("the invariant I3 (the determinant)", det, L)


def adjugate(L) -> np.ndarray:
    """Cofactor matrix: satisfies (L u) x (L v) = adjugate(L) (u x v)."""
    L = np.asarray(L, dtype=float)
    out = np.empty((3, 3))
    others = ((1, 2), (0, 2), (0, 1))  # the rows (columns) of the minor of row (column) i
    for i, (r0, r1) in enumerate(others):
        for j, (c0, c1) in enumerate(others):
            out[i, j] = ((-1.0) ** (i + j)) * (L[r0, c0] * L[r1, c1] - L[r0, c1] * L[r1, c0])
    return out


def _relative_det(L: np.ndarray) -> tuple[float, float]:
    """det L and the scale-free det L / |L|^3, taken as det L / |L| / |L| / |L|
    so that no power overflows; a determinant out of the float range raises.
    (Where |L| itself overflows, a finite det L is below 1e-150 |L|^3.)"""
    d = _finite("the determinant", det, L)
    n = tensor_norm(L)
    return d, d / n / n / n if n else 0.0


def inverse(L) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    d, rel = _relative_det(L)
    if abs(rel) <= _SINGULAR_TOL:
        raise SingularTensor(f"det / |L|^3 = {rel:.3g} below tolerance {_SINGULAR_TOL:g}")
    return adjugate(L).T / d


def determinant_suite(L):
    """Determinant, principal invariants, inverse (None when singular), adjugate."""
    L = np.asarray(L, dtype=float)
    d = _finite("the determinant", det, L)
    try:
        inv = inverse(L)
    except SingularTensor:
        inv = None
    return d, principal_invariants(L), inv, _finite("the adjugate", adjugate, L)


# ---------------------------------------------------------------------------
# skew tensors, axial isomorphism, cross products
# ---------------------------------------------------------------------------

def axial_tensor(w) -> np.ndarray:
    """Skew tensor W with W u = w x u."""
    a, b, c = np.asarray(w, dtype=float)
    return np.array([[0.0, -c, b],
                     [c, 0.0, -a],
                     [-b, a, 0.0]])


def axial_vector(W, rel_tol: float = 1e-10) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    nw = tensor_norm(W)
    if tensor_norm(W + W.T) > rel_tol * max(nw, np.finfo(float).tiny):
        raise NotSkew("symmetry residual above tolerance")
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def _components(v) -> np.ndarray:
    """Vectors (..., k) with the components first: iterating gives a vector's
    numbers, or arrays over a batch."""
    v = np.asarray(v, dtype=float)
    return v if v.ndim == 1 else np.moveaxis(v, -1, 0)


def cross(a, b) -> np.ndarray:
    (a1, a2, a3), (b1, b2, b3) = _components(a), _components(b)
    return _stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def mixed(a, b, c) -> float:
    """Triple product a x b . c (volume of the spanned prism, with sign)."""
    return float(np.dot(cross(a, b), c))


# ---------------------------------------------------------------------------
# spectral decomposition (cyclic Jacobi on 3x3 symmetric tensors)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues (descending) and orthonormal right-handed eigenvectors.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.vectors @ np.diag(self.values) @ self.vectors.T

    def basis_tensor(self, k: int) -> np.ndarray:
        u = self.vectors[:, k]
        return np.outer(u, u)


def _off_norm(A) -> float:
    return math.sqrt(A[0, 1] ** 2 + A[0, 2] ** 2 + A[1, 2] ** 2)


def eigen_sym(L) -> SpectralDecomp:
    """Eigendecomposition of a symmetric tensor by cyclic Jacobi sweeps."""
    L = np.asarray(L, dtype=float)
    nL = _finite("the norm |L|", tensor_norm, L)  # below it no sum of squares overflows
    if tensor_norm(L - L.T) > _SYMMETRY_TOL * max(nL, np.finfo(float).tiny):
        raise NotSymmetric("symmetry residual above tolerance")
    A = sym_part(L)
    V = np.eye(3)
    target = 1e-14 * max(nL, np.finfo(float).tiny)
    for _ in range(64):
        if _off_norm(A) <= target:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = float(A[p, q])
            if apq == 0.0:
                continue
            # classic Jacobi rotation annihilating A[p, q]; in Python floats, an
            # overflow is inf and not a warning, and an infinite theta gives t = 0
            theta = 0.5 * (float(A[q, q]) - float(A[p, p])) / apq
            # from |theta| = 2^27 on, 1 + theta^2 rounds to theta^2, whose root is
            # exactly |theta|: the same t, without squaring a theta that may overflow
            t = 0.5 / theta if abs(theta) >= 2.0 ** 27 else \
                math.copysign(1.0, theta) / (abs(theta) + math.sqrt(1.0 + theta * theta))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            R = np.eye(3)
            R[p, p] = R[q, q] = c
            R[p, q] = s
            R[q, p] = -s
            A = R.T @ A @ R
            V = V @ R
    order = np.argsort(A.diagonal())[::-1]
    values = A.diagonal()[order].copy()
    vectors = V[:, order].copy()
    if mixed(vectors[:, 0], vectors[:, 1], vectors[:, 2]) < 0.0:
        vectors[:, 2] = -vectors[:, 2]
    return SpectralDecomp(values, vectors)


def sqrt_spd(L) -> np.ndarray:
    """Unique symmetric positive definite square root of an SPD tensor."""
    dec = eigen_sym(L)
    scale = max(abs(dec.values[0]), np.finfo(float).tiny)
    for lam in dec.values:
        if lam <= _SPD_TOL * scale:
            raise NotSPD(f"eigenvalue {lam:g} is not positive", eigenvalue=lam)
    return dec.vectors @ np.diag(np.sqrt(dec.values)) @ dec.vectors.T


# ---------------------------------------------------------------------------
# polar decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarDecomp:
    """F = rotation @ right_stretch = left_stretch @ rotation."""

    rotation: np.ndarray
    right_stretch: np.ndarray
    left_stretch: np.ndarray


def _orthonormal_polish(r: list) -> list:
    """The nearest orthogonal matrix to a nearly orthogonal R, given and
    returned as its 9 entries in row order (floats), by Newton-Schulz steps
    R (1.5 I - 0.5 R^T R) (Bjorck & Bowie, SIAM J. Numer. Anal. 8, 1971;
    Higham, SIAM J. Sci. Stat. Comput. 7, 1986).  Each step about squares the
    defect max|R^T R - I|: one step is taken, and another while the defect
    before it was above _POLISH_TOL.  A defect not below _POLISH_LIMIT (NaN
    included) is outside the fast convergence and raises NotNearOrthogonal.
    The products are Python's * and +, each sum taken left to right, so the
    step rounds the same on every machine."""
    for _ in range(_POLISH_STEPS):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
        # G = R^T R, which is symmetric
        g00 = r00 * r00 + r10 * r10 + r20 * r20
        g01 = r00 * r01 + r10 * r11 + r20 * r21
        g02 = r00 * r02 + r10 * r12 + r20 * r22
        g11 = r01 * r01 + r11 * r11 + r21 * r21
        g12 = r01 * r02 + r11 * r12 + r21 * r22
        g22 = r02 * r02 + r12 * r12 + r22 * r22
        dev = (abs(g00 - 1.0), abs(g01), abs(g02), abs(g11 - 1.0), abs(g12), abs(g22 - 1.0))
        # max skips a NaN that is not its first argument; the sum keeps every NaN
        defect = math.nan if math.isnan(sum(dev)) else max(dev)
        if not defect < _POLISH_LIMIT:
            raise NotNearOrthogonal(f"max|R^T R - I| = {defect:.3g} is not below 1/6", defect)
        # M = 1.5 I - 0.5 G; 0.0 - x, not -x, keeps an exact zero positive
        m00, m11, m22 = 1.5 - 0.5 * g00, 1.5 - 0.5 * g11, 1.5 - 0.5 * g22
        m01, m02, m12 = 0.0 - 0.5 * g01, 0.0 - 0.5 * g02, 0.0 - 0.5 * g12
        r = [r00 * m00 + r01 * m01 + r02 * m02, r00 * m01 + r01 * m11 + r02 * m12,
             r00 * m02 + r01 * m12 + r02 * m22,
             r10 * m00 + r11 * m01 + r12 * m02, r10 * m01 + r11 * m11 + r12 * m12,
             r10 * m02 + r11 * m12 + r12 * m22,
             r20 * m00 + r21 * m01 + r22 * m02, r20 * m01 + r21 * m11 + r22 * m12,
             r20 * m02 + r21 * m12 + r22 * m22]
        if defect <= _POLISH_TOL:
            break
    return r


def polar(F) -> PolarDecomp:
    F = np.asarray(F, dtype=float)
    _, rel = _relative_det(F)
    if rel <= 1e-12:
        raise NonPositiveDeterminant(f"det F / |F|^3 = {rel:.3g} is not above 1e-12")
    U = sqrt_spd(F.T @ F)
    # the polish kills the rounding drift of U^-1
    R = np.reshape(_orthonormal_polish((F @ inverse(U)).ravel().tolist()), (3, 3))
    V = R @ U @ R.T
    return PolarDecomp(R, U, V)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisAngle:
    """Unit rotation axis and amplitude in [0, pi]."""

    axis: np.ndarray
    angle: float


def is_rotation(R, tol: float = 1e-9) -> bool:
    """Whether R R^T = I and det R = 1 within tol; NumericalFailure where
    |R R^T - I| overflows."""
    R = np.asarray(R, dtype=float)
    return (_finite("the deviation |R R^T - I|", lambda: tensor_norm(R @ R.T - I3)) <= tol
            and abs(det(R) - 1.0) <= tol)


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """R = I + sin(angle) W + (1 - cos(angle)) W^2 about a unit axis."""
    w = np.asarray(axis, dtype=float)
    if abs(norm(w) - 1.0) > 1e-12:
        raise NotUnit(f"axis norm {norm(w):.15g} != 1")
    W = axial_tensor(w)
    return I3 + math.sin(angle) * W + (1.0 - math.cos(angle)) * (W @ W)


def rotation_to_axis_angle(R) -> AxisAngle:
    """Recover (axis, amplitude) from a proper rotation.

    The amplitude comes from the trace; near amplitude pi, where the skew
    part degenerates, the axis is taken from the symmetric part instead.
    Raises ``AxisUndefined`` below amplitude 1e-8 (the axis is arbitrary).
    """
    R = np.asarray(R, dtype=float)
    if not is_rotation(R):
        raise NotARotation("input is not a proper rotation")
    cos_phi = max(-1.0, min(1.0, 0.5 * (trace(R) - 1.0)))
    phi = math.acos(cos_phi)
    if phi < 1e-8:
        raise AxisUndefined("amplitude below 1e-8; axis is arbitrary")
    w_skew = axial_vector(skew_part(R), rel_tol=np.inf)
    if phi < 3.0:  # sin(phi) well away from 0
        return AxisAngle(w_skew / math.sin(phi), phi)
    # near pi: (R + R^T)/2 - cos(phi) I = (1 - cos(phi)) w dyad w
    M = sym_part(R) - cos_phi * I3
    k = int(np.argmax(M.diagonal()))
    w = normalize(M[:, k])
    if np.dot(w, w_skew) < 0.0:
        w = -w
    return AxisAngle(w, phi)


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    # sign convention matching the composed coordinate-angles matrix
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_composed(kind: str, angles) -> np.ndarray:
    """Build a rotation from three angles.

    kind="euler": precession/nutation/proper rotation, R = Rz Rx Rz.
    kind="coordinate": successive rotations about x, y, z.
    kind="physical": axis given by longitude and colatitude, then amplitude.
    """
    a1, a2, a3 = (float(a) for a in angles)
    if kind == "euler":
        return rot_z(a1) @ rot_x(a2) @ rot_z(a3)
    if kind == "coordinate":
        return rot_x(a1) @ rot_y(a2) @ rot_z(a3)
    if kind == "physical":
        longitude, colatitude, amplitude = a1, a2, a3
        axis = np.array([math.sin(colatitude) * math.cos(longitude),
                         math.sin(colatitude) * math.sin(longitude),
                         math.cos(colatitude)])
        return rotation_from_axis_angle(axis, amplitude)
    raise ValueError(f"unknown rotation kind {kind!r}")


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random proper rotation (for tests and demos)."""
    v = rng.normal(size=3)
    while norm(v) < 1e-12:
        v = rng.normal(size=3)
    return rotation_from_axis_angle(normalize(v), rng.uniform(0.0, math.pi))


# ---------------------------------------------------------------------------
# reflexions, change of basis
# ---------------------------------------------------------------------------

def reflexion(n) -> np.ndarray:
    """Mirror symmetry across the plane orthogonal to the unit vector n."""
    n = np.asarray(n, dtype=float)
    if abs(norm(n) - 1.0) > 1e-12:
        raise NotUnit(f"normal norm {norm(n):.15g} != 1")
    return I3 - 2.0 * np.outer(n, n)


def change_basis_vector(u, R) -> np.ndarray:
    """Components of u in the basis rotated by R: u' = R^T u."""
    _require_rotation(R)
    return np.asarray(R, dtype=float).T @ np.asarray(u, dtype=float)


def change_basis_tensor(L, R) -> np.ndarray:
    """Components of L in the basis rotated by R: L' = R^T L R."""
    _require_rotation(R)
    R = np.asarray(R, dtype=float)
    return R.T @ np.asarray(L, dtype=float) @ R


def _require_rotation(R):
    if not is_rotation(R):
        raise NotARotation("change of basis needs a proper rotation")
