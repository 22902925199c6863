#!/usr/bin/env python3
"""Curvilinear coordinates: metric tensors, raising/lowering, Christoffel
symbols computed two independent ways, covariant derivatives, Laplacians in
three systems, and the classical integral theorems as numerical residuals.
"""

import numpy as np

from tensorgeom import coords as co
from tensorgeom.expr import parse

np.set_printoptions(precision=6, suppress=True)

print("=" * 64)
print("Metric tensors")
print("=" * 64)
polar = co.polar_map()
met = co.metric_at(polar, (2.0, 0.7))
print("polar chart at r = 2:")
print("  covariant metric:\n", met.cov)
print("  tangent to the angular line has length r:",
      np.linalg.norm(met.tangent[:, 1]))

spherical = co.spherical_map()
met_s = co.metric_at(spherical, (1.5, 1.0, 0.3))
print("\nspherical chart at r = 1.5, colatitude 1.0:")
print("  covariant metric:\n", met_s.cov)

print()
print("=" * 64)
print("Raising and lowering indices (polar, r = 2)")
print("=" * 64)
v_contra = np.array([1.0, 1.0])
v_co = co.raise_lower(v_contra, met, "down")
print("contravariant", v_contra, "-> covariant", v_co)
print("norm three ways:",
      np.sqrt(v_contra @ met.cov @ v_contra),
      np.sqrt(v_co @ met.con @ v_co),
      np.sqrt(np.dot(v_contra, v_co)))

print()
print("=" * 64)
print("Christoffel symbols, two routes")
print("=" * 64)
g_second = co.christoffel(polar, (2.0, 0.7), "second_derivative")
g_metric = co.christoffel(polar, (2.0, 0.7), "metric_derivative")
print("polar nonzero symbols:  G^r_tt =", g_second[0, 1, 1],
      "  G^t_rt =", g_second[1, 0, 1])
print("route disagreement:", np.max(np.abs(g_second - g_metric)))

print("\nthe metric is covariantly constant (Ricci lemma), spherical chart:")
g_sph = parse(["1", "0", "0", "0", "r^2", "0", "0", "0", "(r*sin(p))^2"], ["r", "p", "t"])
D = co.covariant_derivative(g_sph, spherical, (1.5, 1.0, 0.3), "tensor_co")
print("max |g_np;h| =", np.max(np.abs(D)))

print()
print("=" * 64)
print("Differential operators on the orthonormal frames of the charts")
print("=" * 64)
f_cyl = parse("rho^2", ["rho", "t", "z"])
print("cylindrical laplacian of rho^2 (exact value 4):",
      co.diff_ops("cylindrical", "scalar", "laplacian", f_cyl, (1.3, 0.2, 0.0)))
v_cyl = parse(["rho", "0*rho", "0*rho"], ["rho", "t", "z"])
print("cylindrical divergence of rho e_rho (exact value 2):",
      co.diff_ops("cylindrical", "vector", "div", v_cyl, (1.3, 0.2, 0.0)))
f_sph = parse("1/r", ["r", "p", "t"])
print("spherical laplacian of 1/r (harmonic away from 0):",
      co.diff_ops("spherical", "scalar", "laplacian", f_sph, (2.0, 1.1, 0.4)))

print("\nthe general curvilinear Laplacian agrees with the frame operator:")
f2 = parse("rho^2*sin(t)+z^2*rho", ["rho", "t", "z"])
framed = co.diff_ops("cylindrical", "scalar", "laplacian", f2, (1.2, 0.5, -0.8))
general = co.laplacian_curvilinear(f2, co.cylindrical_map(), (1.2, 0.5, -0.8))
print("  frame:", framed, "  general:", general)

print()
print("=" * 64)
print("Integral theorems as quadrature residuals")
print("=" * 64)
names = ["x1", "x2", "x3"]
v = parse(["x1", "x2", "x3"], names)
print("Gauss on the unit cube with v = x (both sides equal 3):",
      co.integral_theorem_residual("gauss", v, ((0.0, 1.0),) * 3, order=8))
vortex = parse(["-x2", "x1", "0*x3"], names)
print("Stokes on the unit disc with a vortex (both sides 2 pi):",
      co.integral_theorem_residual("stokes", vortex,
                                   {"center": (0, 0, 0), "radius": 1.0}, order=16))
solenoidal = parse(["x2*x3", "x1*x3", "x1*x2"], names)
print("flux of a divergence-free field through a box boundary:",
      co.integral_theorem_residual("flux", solenoidal, ((-1.0, 1.0),) * 3, order=8))
