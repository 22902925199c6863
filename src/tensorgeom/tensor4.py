"""Fourth-rank tensors on 3-space: dyads, conjugation products, projectors,
orthogonal conjugators, isotropic tensors and the Kelvin 6x6 formalism.

A fourth-rank tensor is a dense ``numpy`` array of shape ``(3, 3, 3, 3)``
acting on second-rank tensors through ``A_ij = L_ijkl B_kl``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._errors import NumericalFailure
from .tensor2 import I3, _finite, _unit_scaled, tensor_norm

__all__ = [
    "NotOrthogonal", "MissingMinorSymmetry", "SymmetryReport",
    "dyad4", "boxtimes", "apply4", "compose4", "transpose4", "trace4",
    "inner4", "norm4", "identity4", "symmetric_identity4", "projectors",
    "symmetry_report", "conjugator", "rotate4", "rotate4_components",
    "isotropic", "KELVIN_PAIRS", "to_kelvin", "from_kelvin",
    "kelvin_vector", "from_kelvin_vector", "kelvin_rotation",
]


class NotOrthogonal(NumericalFailure, ValueError):
    pass


class MissingMinorSymmetry(NumericalFailure, ValueError):
    pass


# ---------------------------------------------------------------------------
# products and algebra
# ---------------------------------------------------------------------------

def dyad4(A, B) -> np.ndarray:
    """(A dyad B) L = (B . L) A; components A_ij B_kl."""
    return np.einsum("ij,kl->ijkl", np.asarray(A, float), np.asarray(B, float))


def boxtimes(A, B) -> np.ndarray:
    """Conjugation product: (A box B) L = A L B^T; components A_ik B_jl."""
    return np.einsum("ik,jl->ijkl", np.asarray(A, float), np.asarray(B, float))


def apply4(LL, B) -> np.ndarray:
    return np.einsum("ijkl,kl->ij", np.asarray(LL, float), np.asarray(B, float))


def compose4(AA, BB) -> np.ndarray:
    return np.einsum("ijkl,klrs->ijrs", np.asarray(AA, float), np.asarray(BB, float))


def transpose4(LL) -> np.ndarray:
    return np.transpose(np.asarray(LL, float), (2, 3, 0, 1)).copy()


def trace4(LL) -> float:
    return float(np.einsum("ijij->", np.asarray(LL, float)))


def inner4(AA, BB) -> float:
    return float(np.einsum("ijkl,ijkl->", np.asarray(AA, float), np.asarray(BB, float)))


def norm4(LL) -> float:
    return math.sqrt(inner4(LL, LL))


def identity4() -> np.ndarray:
    return boxtimes(I3, I3)


def symmetric_identity4() -> np.ndarray:
    """Restriction of the identity to symmetric tensors: 1/2 (d_ik d_jl + d_il d_jk)."""
    d = np.eye(3)
    return 0.5 * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryReport:
    has_major: bool
    has_minor_left: bool
    has_minor_right: bool
    has_cauchy_poisson: bool
    residuals: dict


def symmetry_report(LL, rel_tol: float = 1e-12) -> SymmetryReport:
    """Index symmetries of LL: each residual is |LL - P(LL)| / |LL| for an index
    permutation P, taken of LL scaled by a power of two so that it is exact and
    no difference or norm overflows; a symmetry holds below ``rel_tol``."""
    LL = _unit_scaled(np.asarray(LL, float))
    scale = max(norm4(LL), np.finfo(float).tiny)
    residuals = {name: norm4(LL - np.transpose(LL, axes)) / scale for name, axes in (
        ("major", (2, 3, 0, 1)), ("minor_left", (1, 0, 2, 3)),
        ("minor_right", (0, 1, 3, 2)), ("cauchy_poisson", (0, 2, 1, 3)))}
    flags = {k: v < rel_tol for k, v in residuals.items()}
    return SymmetryReport(flags["major"], flags["minor_left"],
                          flags["minor_right"], flags["cauchy_poisson"], residuals)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

def projectors():
    """Spherical, deviatoric, symmetric-identity, transposition, symmetry and
    antisymmetry projectors, in that order."""
    sph = dyad4(I3, I3) / 3.0
    sym_id = symmetric_identity4()
    dev = sym_id - sph
    d = np.eye(3)
    trp = np.einsum("il,jk->ijkl", d, d)
    ident = identity4()
    sym = 0.5 * (ident + trp)
    skw = 0.5 * (ident - trp)
    return sph, dev, sym_id, trp, sym, skw


# ---------------------------------------------------------------------------
# orthogonal conjugators and rotations
# ---------------------------------------------------------------------------

def _check_orthogonal(U, tol: float = 1e-9):
    U = np.asarray(U, float)
    if _finite("the deviation |U^T U - I|", lambda: tensor_norm(U.T @ U - I3)) > tol:
        raise NotOrthogonal("U^T U deviates from the identity")
    return U


def conjugator(U) -> np.ndarray:
    """Fourth-rank tensor performing L -> U L U^T."""
    U = _check_orthogonal(U)
    return boxtimes(U, U)


def rotate4(LL, U) -> np.ndarray:
    """Transform a fourth-rank tensor by an orthogonal U (conjugator route)."""
    UU = conjugator(U)
    return compose4(compose4(UU, np.asarray(LL, float)), transpose4(UU))


def rotate4_components(LL, U) -> np.ndarray:
    """Same transform written as the quartic component law
    L'_pqrs = U_pi U_qj U_rk U_sl L_ijkl."""
    U = _check_orthogonal(U)
    return np.einsum("pi,qj,rk,sl,ijkl->pqrs", U, U, U, U, np.asarray(LL, float))


def isotropic(lam: float, mu: float) -> np.ndarray:
    """Tensor mapping every symmetric A to 2 mu A + lam tr(A) I."""
    return _finite("the isotropic tensor",
                   lambda: 2.0 * mu * symmetric_identity4() + lam * dyad4(I3, I3))


# ---------------------------------------------------------------------------
# Kelvin formalism
# ---------------------------------------------------------------------------

# 6-slot ordering contract: 11, 22, 33, 23, 31, 12
KELVIN_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (2, 0), (0, 1))
_SQRT2 = math.sqrt(2.0)
_WEIGHTS = (1.0, 1.0, 1.0, _SQRT2, _SQRT2, _SQRT2)


def kelvin_vector(A) -> np.ndarray:
    """Symmetric second-rank tensor as a 6-vector with sqrt(2) shear weights."""
    A = np.asarray(A, float)
    return np.array([_WEIGHTS[k] * A[i, j] for k, (i, j) in enumerate(KELVIN_PAIRS)])


def from_kelvin_vector(v) -> np.ndarray:
    v = np.asarray(v, float)
    A = np.zeros((3, 3))
    for k, (i, j) in enumerate(KELVIN_PAIRS):
        A[i, j] = A[j, i] = v[k] / _WEIGHTS[k]
    return A


def to_kelvin(LL, rel_tol: float = 1e-10) -> np.ndarray:
    """6x6 Kelvin matrix of a minor-symmetric fourth-rank tensor."""
    LL = np.asarray(LL, float)
    rep = symmetry_report(LL, rel_tol=rel_tol)
    if not (rep.has_minor_left and rep.has_minor_right):
        raise MissingMinorSymmetry("minor-symmetry residual above tolerance")
    i, j = np.array(KELVIN_PAIRS).T
    return _finite("the Kelvin matrix", lambda: np.outer(_WEIGHTS, _WEIGHTS)
                   * LL[i[:, None], j[:, None], i, j])


def from_kelvin(K) -> np.ndarray:
    K = np.asarray(K, float)
    LL = np.zeros((3, 3, 3, 3))
    for a, (i, j) in enumerate(KELVIN_PAIRS):
        for b, (k, l) in enumerate(KELVIN_PAIRS):
            value = K[a, b] / (_WEIGHTS[a] * _WEIGHTS[b])
            for ii, jj in ((i, j), (j, i)):
                for kk, ll in ((k, l), (l, k)):
                    LL[ii, jj, kk, ll] = value
    return LL


def kelvin_rotation(U) -> np.ndarray:
    """6x6 matrix acting on Kelvin vectors exactly as U acts on tensors:
    kelvin_vector(U A U^T) = kelvin_rotation(U) @ kelvin_vector(A)."""
    U = _check_orthogonal(U)
    M = np.empty((6, 6))
    for a, (i, j) in enumerate(KELVIN_PAIRS):
        for b, (k, l) in enumerate(KELVIN_PAIRS):
            M[a, b] = (_WEIGHTS[a] * _WEIGHTS[b]
                       * 0.5 * (U[i, k] * U[j, l] + U[i, l] * U[j, k]))
    return M
