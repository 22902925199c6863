"""Second-rank tensor algebra tests."""

import math

import numpy as np
import pytest

from tensorgeom import tensor2 as t2

rng = np.random.default_rng(42)
E1, E2, E3 = np.eye(3)


# ---------------------------------------------------------------------------
# dyads
# ---------------------------------------------------------------------------

def test_basis_dyad():
    D = t2.dyad(E1, E2)
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(D, expected)


def test_dyad_action():
    out = t2.apply(t2.dyad(E1, E2), E2)
    assert np.allclose(out, E1)


def test_dyads_are_singular():
    for _ in range(10):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert abs(t2.det(t2.dyad(a, b))) < 1e-14


def test_dyad_identities():
    for _ in range(10):
        a, b, c, d = (rng.normal(size=3) for _ in range(4))
        lhs = t2.dyad(a, b) @ t2.dyad(c, d)
        rhs = np.dot(b, c) * t2.dyad(a, d)
        assert np.allclose(lhs, rhs)
        assert np.allclose(t2.dyad(a, b).T, t2.dyad(b, a))


# ---------------------------------------------------------------------------
# traces, inner products, splits
# ---------------------------------------------------------------------------

def test_trace_identity_and_skew():
    assert t2.trace(np.eye(3)) == 3.0
    assert t2.trace(np.zeros((3, 3))) == 0.0
    W = t2.axial_tensor(rng.normal(size=3))
    assert abs(t2.trace(W)) < 1e-15


def test_spherical_deviatoric_orthogonal():
    for _ in range(10):
        A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
        assert abs(t2.inner(t2.spherical_part(A), t2.deviatoric_part(B))) < 1e-13
        assert abs(t2.trace(t2.deviatoric_part(A))) < 1e-14


def test_sym_skew_split():
    A = rng.normal(size=(3, 3))
    S, W = t2.sym_part(A), t2.skew_part(A)
    assert np.allclose(S + W, A)
    assert np.allclose(S, S.T)
    assert np.allclose(W, -W.T)


def test_product_transpose():
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    assert np.allclose((A @ B).T, B.T @ A.T)


# ---------------------------------------------------------------------------
# determinant suite
# ---------------------------------------------------------------------------

def test_det_identity():
    assert t2.det(np.eye(3)) == 1.0


def test_invariants_of_diagonal():
    # brute-force oracle: elementary symmetric functions of the eigenvalues
    lams = [1.0, 2.0, 3.0]
    e1 = sum(lams)
    e2 = sum(lams[i] * lams[j] for i in range(3) for j in range(i + 1, 3))
    e3 = lams[0] * lams[1] * lams[2]
    assert (e1, e2, e3) == (6.0, 11.0, 6.0)
    i1, i2, i3 = t2.principal_invariants(np.diag(lams))
    assert (i1, i2, i3) == pytest.approx((e1, e2, e3), rel=1e-14)


def test_cayley_hamilton():
    for _ in range(50):
        L = rng.normal(size=(3, 3))
        i1, i2, i3 = t2.principal_invariants(L)
        residual = L @ L @ L - i1 * (L @ L) + i2 * L - i3 * np.eye(3)
        assert t2.tensor_norm(residual) < 1e-10 * t2.tensor_norm(L) ** 3


def test_inverse_and_adjugate():
    L = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    assert np.allclose(L @ t2.inverse(L), np.eye(3), atol=1e-12)
    assert np.allclose(t2.adjugate(L), t2.det(L) * t2.inverse(L).T)
    assert np.allclose(t2.det(L.T), t2.det(L))
    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    assert t2.det(A @ B) == pytest.approx(t2.det(A) * t2.det(B), rel=1e-10)


def test_singular_tensor_raises():
    with pytest.raises(t2.SingularTensor):
        t2.inverse(t2.dyad(E1, E2))
    det_val, invariants, inv, adj = t2.determinant_suite(np.outer(E1, E1))
    assert det_val == 0.0
    assert inv is None


# ---------------------------------------------------------------------------
# axial isomorphism and cross product
# ---------------------------------------------------------------------------

def test_axial_matrix_layout():
    a, b, c = 1.3, -0.4, 2.2
    W = t2.axial_tensor([a, b, c])
    assert np.allclose(W, [[0, -c, b], [c, 0, -a], [-b, a, 0]])


def test_axial_roundtrip_and_kernel():
    for _ in range(10):
        w = rng.normal(size=3)
        W = t2.axial_tensor(w)
        assert np.allclose(t2.axial_vector(W), w)
        assert np.allclose(W @ w, 0.0)
        assert np.dot(w, w) == pytest.approx(0.5 * t2.inner(W, W), rel=1e-13)


def test_unit_axial_powers():
    w = t2.normalize(rng.normal(size=3))
    W = t2.axial_tensor(w)
    assert np.allclose(W @ W, -(np.eye(3) - np.outer(w, w)), atol=1e-14)
    assert np.allclose(W @ W @ W, -W, atol=1e-14)


def test_not_skew():
    with pytest.raises(t2.NotSkew):
        t2.axial_vector(np.eye(3))


def test_cross_product_basics():
    assert np.allclose(t2.cross(E1, E2), E3)
    a = rng.normal(size=3)
    assert np.allclose(t2.cross(a, 2 * a), 0.0)
    b = rng.normal(size=3)
    assert abs(np.dot(t2.cross(a, b), a)) < 1e-13
    assert abs(np.dot(t2.cross(a, b), b)) < 1e-13
    assert np.allclose(t2.cross(a, b), -t2.cross(b, a))


def test_mixed_product_is_determinant():
    for _ in range(10):
        a, b, c = (rng.normal(size=3) for _ in range(3))
        assert t2.mixed(a, b, c) == pytest.approx(
            np.linalg.det(np.array([a, b, c])), rel=1e-12)


def test_double_cross():
    u, v, w = (rng.normal(size=3) for _ in range(3))
    lhs = t2.cross(u, t2.cross(v, w))
    rhs = np.dot(u, w) * v - np.dot(u, v) * w
    assert np.allclose(lhs, rhs)


def test_cross_is_axial_vector_of_dyad_difference():
    a, b = rng.normal(size=3), rng.normal(size=3)
    W = t2.dyad(b, a) - t2.dyad(a, b)
    assert np.allclose(t2.axial_vector(W), t2.cross(a, b))


def test_transformed_mixed_product():
    L = rng.normal(size=(3, 3))
    u, v, w = (rng.normal(size=3) for _ in range(3))
    lhs = t2.mixed(L @ u, L @ v, L @ w)
    assert lhs == pytest.approx(t2.det(L) * t2.mixed(u, v, w), rel=1e-10)
    assert np.allclose(t2.cross(L @ u, L @ v), t2.adjugate(L) @ t2.cross(u, v))


# ---------------------------------------------------------------------------
# norms: triangle and Schwarz inequalities
# ---------------------------------------------------------------------------

def test_vector_inequalities():
    for _ in range(50):
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert t2.norm(u + v) <= t2.norm(u) + t2.norm(v) + 1e-14
        assert abs(np.dot(u, v)) <= t2.norm(u) * t2.norm(v) + 1e-14


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------

def test_eigen_diagonal():
    dec = t2.eigen_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.values, [3.0, 2.0, 1.0])
    for k, lam in enumerate(dec.values):
        u = dec.vectors[:, k]
        assert np.allclose(np.diag([3.0, 1.0, 2.0]) @ u, lam * u, atol=1e-12)


def test_eigen_spherical():
    dec = t2.eigen_sym(2.5 * np.eye(3))
    assert np.allclose(dec.values, 2.5)
    assert np.allclose(dec.vectors @ dec.vectors.T, np.eye(3), atol=1e-14)


def test_eigen_random_symmetric():
    for _ in range(20):
        L = t2.sym_part(rng.normal(size=(3, 3)))
        dec = t2.eigen_sym(L)
        nL = t2.tensor_norm(L)
        # orthonormal right-handed triple
        assert np.allclose(dec.vectors @ dec.vectors.T, np.eye(3), atol=1e-13)
        assert t2.mixed(dec.vectors[:, 0], dec.vectors[:, 1],
                        dec.vectors[:, 2]) == pytest.approx(1.0, rel=1e-12)
        # eigen residuals and reconstruction
        for k in range(3):
            res = L @ dec.vectors[:, k] - dec.values[k] * dec.vectors[:, k]
            assert t2.norm(res) < 1e-9 * nL
        assert t2.tensor_norm(dec.reconstruct() - L) < 1e-12 * nL
        # invariants are the symmetric functions of the eigenvalues
        i1, i2, i3 = t2.principal_invariants(L)
        l1, l2, l3 = dec.values
        assert i1 == pytest.approx(l1 + l2 + l3, rel=1e-10, abs=1e-12)
        assert i2 == pytest.approx(l1 * l2 + l2 * l3 + l3 * l1, rel=1e-10, abs=1e-12)
        assert i3 == pytest.approx(l1 * l2 * l3, rel=1e-10, abs=1e-12)
        assert dec.values[0] >= dec.values[1] >= dec.values[2]


def test_eigen_not_symmetric():
    with pytest.raises(t2.NotSymmetric):
        t2.eigen_sym(np.triu(np.ones((3, 3)), 1) + np.eye(3))


def test_skew_spectrum_through_square():
    # the square of an axial tensor has eigenvalues (0, -w^2, -w^2) and the
    # zero eigenvector is the axis
    w = rng.normal(size=3)
    W = t2.axial_tensor(w)
    dec = t2.eigen_sym(W @ W)
    assert dec.values[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(dec.values[1:], -np.dot(w, w), rtol=1e-12)
    axis = dec.vectors[:, 0]
    assert t2.norm(t2.cross(axis, t2.normalize(w))) < 1e-9


def test_commutation_of_coaxial_tensors():
    dec = t2.eigen_sym(t2.sym_part(rng.normal(size=(3, 3))))
    A = sum(a * dec.basis_tensor(k) for k, a in enumerate((1.0, 2.0, 3.0)))
    B = sum(b * dec.basis_tensor(k) for k, b in enumerate((-1.0, 0.5, 4.0)))
    assert t2.tensor_norm(A @ B - B @ A) < 1e-12 * t2.tensor_norm(A) * t2.tensor_norm(B)


# ---------------------------------------------------------------------------
# square root and polar decomposition
# ---------------------------------------------------------------------------

def test_sqrt_identity_and_diagonal():
    assert np.allclose(t2.sqrt_spd(np.eye(3)), np.eye(3))
    assert np.allclose(t2.sqrt_spd(np.diag([4.0, 9.0, 16.0])), np.diag([2.0, 3.0, 4.0]))


def test_sqrt_random_spd():
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        L = A @ A.T + 0.5 * np.eye(3)
        U = t2.sqrt_spd(L)
        assert np.allclose(U, U.T)
        assert t2.tensor_norm(U @ U - L) < 1e-10 * t2.tensor_norm(L)


def test_sqrt_rejects_indefinite():
    with pytest.raises(t2.NotSPD) as err:
        t2.sqrt_spd(np.diag([1.0, -2.0, 3.0]))
    assert err.value.eigenvalue == pytest.approx(-2.0)


def test_polar_of_rotation():
    R = t2.random_rotation(rng)
    dec = t2.polar(R)
    assert np.allclose(dec.right_stretch, np.eye(3), atol=1e-12)
    assert np.allclose(dec.left_stretch, np.eye(3), atol=1e-12)
    assert np.allclose(dec.rotation, R, atol=1e-12)


def test_polar_of_symmetric_positive():
    F = np.diag([2.0, 3.0, 4.0])
    dec = t2.polar(F)
    assert np.allclose(dec.rotation, np.eye(3), atol=1e-13)
    assert np.allclose(dec.right_stretch, F, atol=1e-13)


def test_polar_random():
    count = 0
    while count < 25:
        F = rng.normal(size=(3, 3))
        if t2.det(F) <= 0.1:
            continue
        count += 1
        dec = t2.polar(F)
        nF = t2.tensor_norm(F)
        assert t2.tensor_norm(F - dec.rotation @ dec.right_stretch) < 1e-10 * nF
        assert t2.is_rotation(dec.rotation, tol=1e-12)
        assert np.allclose(dec.left_stretch,
                           dec.rotation @ dec.right_stretch @ dec.rotation.T,
                           atol=1e-10 * nF)
        for S in (dec.right_stretch, dec.left_stretch):
            assert np.allclose(S, S.T, atol=1e-12)
            assert t2.eigen_sym(S).values[2] > 0.0


def test_polish_keeps_the_bits_of_the_one_step_polar_took():
    # the 1000-matrix battery of acceptance criterion 7
    battery = np.random.default_rng(7)
    done = 0
    while done < 1000:
        F = battery.normal(size=(3, 3))
        if t2.det(F) <= 0.1:
            continue
        done += 1
        R = F @ t2.inverse(t2.sqrt_spd(F.T @ F))
        one_step = R @ (1.5 * t2.I3 - 0.5 * (R.T @ R))
        assert np.array_equal(t2._orthonormal_polish(R), one_step)
        assert np.array_equal(t2.polar(F).rotation, one_step)


def test_polish_steps_to_the_rotation_or_refuses_a_far_matrix():
    R = t2.rot_z(0.7) @ t2.rot_x(0.2)
    for scale in (1.08, 0.92):  # defects 0.166 and 0.154, just below 1 / 6: several steps
        P = t2._orthonormal_polish(scale * R)
        assert np.max(np.abs(P - R)) < 1e-15
    # a singular value 0.1 puts max|R^T R - I| at 0.33, but its square is 0.99
    # from 1: 8 steps would leave R 1e-3 from orthogonal
    v = np.ones(3) / math.sqrt(3.0)
    for bad in (1.1 * R, 0.9 * R, R - 0.9 * np.outer(v, v), np.full((3, 3), math.nan)):
        with pytest.raises(t2.NotNearOrthogonal) as err:
            t2._orthonormal_polish(bad)
        assert not err.value.defect < 1.0 / 6.0


def test_polar_rejects_flips():
    with pytest.raises(t2.NonPositiveDeterminant):
        t2.polar(np.diag([1.0, 1.0, -1.0]))


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_rotation_about_z():
    phi = 0.6
    R = t2.rotation_from_axis_angle(E3, phi)
    c, s = math.cos(phi), math.sin(phi)
    assert np.allclose(R, [[c, -s, 0], [s, c, 0], [0, 0, 1]])


def test_rotation_zero_angle():
    assert np.allclose(t2.rotation_from_axis_angle(E3, 0.0), np.eye(3))


def test_amplitude_extraction():
    # trace of R_z(pi/2) is 1, so arccos((1-1)/2) = pi/2
    R = t2.rotation_from_axis_angle(E3, math.pi / 2)
    aa = t2.rotation_to_axis_angle(R)
    assert aa.angle == pytest.approx(math.pi / 2, rel=1e-12)
    assert np.allclose(aa.axis, E3, atol=1e-12)


def test_rotation_fixes_axis_and_trace():
    for _ in range(20):
        w = t2.normalize(rng.normal(size=3))
        phi = rng.uniform(0.05, math.pi - 0.05)
        R = t2.rotation_from_axis_angle(w, phi)
        assert np.allclose(R @ w, w, atol=1e-13)
        assert t2.trace(R) == pytest.approx(1.0 + 2.0 * math.cos(phi), rel=1e-12)
        aa = t2.rotation_to_axis_angle(R)
        assert aa.angle == pytest.approx(phi, rel=1e-9)
        assert min(t2.norm(aa.axis - w), t2.norm(aa.axis + w)) < 1e-9


def test_axis_angle_near_pi():
    w = t2.normalize(np.array([0.3, -0.5, 0.81]))
    for phi in (math.pi - 1e-7, math.pi):
        R = t2.rotation_from_axis_angle(w, phi)
        aa = t2.rotation_to_axis_angle(R)
        # compare reconstructions, not vectors (sign is a convention near pi)
        R2 = t2.rotation_from_axis_angle(aa.axis, aa.angle)
        assert t2.tensor_norm(R2 - R) < 1e-7


def test_axis_undefined_for_identity():
    with pytest.raises(t2.AxisUndefined):
        t2.rotation_to_axis_angle(np.eye(3))


def test_not_a_rotation():
    with pytest.raises(t2.NotARotation):
        t2.rotation_to_axis_angle(np.diag([1.0, 1.0, -1.0]))


def test_composed_rotations_zero_angles():
    for kind in ("euler", "coordinate", "physical"):
        assert np.allclose(t2.rotation_composed(kind, (0.0, 0.0, 0.0)), np.eye(3))


def test_euler_degenerate_nutation():
    psi = 0.8
    assert np.allclose(t2.rotation_composed("euler", (psi, 0.0, 0.0)),
                       t2.rot_z(psi), atol=1e-15)


def test_euler_closed_form():
    psi, theta, phi = 0.4, 1.1, -0.7
    cp, sp = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    cf, sf = math.cos(phi), math.sin(phi)
    expected = np.array([
        [cp * cf - sp * sf * ct, -cp * sf - sp * cf * ct, sp * st],
        [sp * cf + cp * sf * ct, -sp * sf + cp * cf * ct, -cp * st],
        [sf * st, cf * st, ct],
    ])
    assert np.allclose(t2.rotation_composed("euler", (psi, theta, phi)), expected)


def test_coordinate_closed_form():
    a, b, g = 0.3, -0.5, 1.2
    ca, sa = math.cos(a), math.sin(a)
    cb, sb = math.cos(b), math.sin(b)
    cg, sg = math.cos(g), math.sin(g)
    expected = np.array([
        [cb * cg, -cb * sg, -sb],
        [ca * sg - sa * sb * cg, ca * cg + sa * sb * sg, -sa * cb],
        [sa * sg + ca * sb * cg, sa * cg - ca * sb * sg, ca * cb],
    ])
    assert np.allclose(t2.rotation_composed("coordinate", (a, b, g)), expected)


def test_physical_equals_axis_angle():
    lon, colat, amp = 0.7, 1.2, 0.9
    axis = np.array([math.sin(colat) * math.cos(lon),
                     math.sin(colat) * math.sin(lon),
                     math.cos(colat)])
    assert np.allclose(t2.rotation_composed("physical", (lon, colat, amp)),
                       t2.rotation_from_axis_angle(axis, amp))


def test_rotations_do_not_commute():
    R1 = t2.rotation_from_axis_angle(E1, math.pi / 2)
    R3 = t2.rotation_from_axis_angle(E3, math.pi / 2)
    assert t2.tensor_norm(R1 @ R3 - R3 @ R1) > 0.5


def test_small_rotation_approximation():
    w = t2.normalize(rng.normal(size=3))
    W = t2.axial_tensor(w)
    ratios = []
    for phi in np.geomspace(1e-4, 1e-2, 12):
        R = t2.rotation_from_axis_angle(w, phi)
        ratios.append(t2.tensor_norm(R - (np.eye(3) + phi * W)) / phi ** 2)
    assert max(ratios) < 2.0  # second-order remainder with a bounded constant


# ---------------------------------------------------------------------------
# reflexions, change of basis
# ---------------------------------------------------------------------------

def test_reflexion_coordinate_plane():
    assert np.allclose(t2.reflexion(E3), np.diag([1.0, 1.0, -1.0]))


def test_reflexion_properties():
    for _ in range(10):
        n = t2.normalize(rng.normal(size=3))
        S = t2.reflexion(n)
        assert np.allclose(S @ n, -n)
        m = t2.cross(n, rng.normal(size=3))
        assert np.allclose(S @ m, m, atol=1e-12)
        assert t2.det(S) == pytest.approx(-1.0, rel=1e-12)


def test_reflexion_needs_unit_normal():
    with pytest.raises(t2.NotUnit):
        t2.reflexion([1.0, 1.0, 0.0])


def test_change_of_basis():
    R = t2.random_rotation(rng)
    u = rng.normal(size=3)
    L = rng.normal(size=(3, 3))
    assert np.allclose(t2.change_basis_vector(u, R), R.T @ u)
    Lp = t2.change_basis_tensor(L, R)
    assert t2.trace(Lp) == pytest.approx(t2.trace(L), rel=1e-12)
    assert np.allclose(t2.change_basis_tensor(np.eye(3), R), np.eye(3), atol=1e-14)
