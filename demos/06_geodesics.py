#!/usr/bin/env python3
"""Geodesics: great circles on the sphere, meridians and parallels of
revolution surfaces, speed conservation, and length minimality.
"""

import math

import numpy as np

from tensorgeom import surface as sf
from tensorgeom.expr import parse
from tensorgeom.tensor2 import normalize

np.set_printoptions(precision=6, suppress=True)

print("=" * 64)
print("Great circles on the unit sphere")
print("=" * 64)
sphere = sf.surface_from_expr(["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
                              ((-1.5, 1.5), (-8.0, 8.0)))
d0 = normalize([0.6, 0.8])
traj = sf.geodesic_integrate(sphere, sf.GeodesicState(0.0, 0.0, d0[0], d0[1]),
                             2 * math.pi, 2e-3)
p0 = sphere.point(0.0, 0.0)
jd = sf.jet_at(sphere, 0.0, 0.0)
t0 = normalize(jd.ambient([traj.du[0], traj.dv[0]]))
dev = max(np.linalg.norm(sphere.point(traj.u[i], traj.v[i])
                         - (math.cos(traj.s[i]) * p0 + math.sin(traj.s[i]) * t0))
          for i in range(0, len(traj.s), 50))
print("deviation from the analytic great circle over one period:", dev)
print("end point vs start point:",
      np.linalg.norm(sphere.point(traj.u[-1], traj.v[-1]) - p0))

print()
print("=" * 64)
print("Revolution surfaces: meridians always, parallels sometimes")
print("=" * 64)
torus = sf.revolution_surface("3+cos(u)", "sin(u)", (-3.3, 3.3),
                              v_domain=(-40.0, 40.0))
for u0 in (0.0, math.pi, 0.9):
    gamma = sf.jet_at(torus, u0, 0.0).christoffel
    residual = abs(gamma[0, 1, 1])  # parallel: u' = 0, v' = 1
    verdict = "geodesic" if residual < 1e-9 else "not a geodesic"
    print(f"parallel at u0 = {u0:.3f}: |residual| = {residual:.3e}  -> {verdict}")
print("(the radius is stationary at the outer and inner equators only)")

print()
print("a torus geodesic conserves its surface speed:")
traj = sf.geodesic_integrate(torus, sf.GeodesicState(0.5, 0.0, 0.3, 0.3), 8.0, 1e-3)
drifts = []
for i in range(0, len(traj.s), 1000):
    g = sf.jet_at(torus, traj.u[i], traj.v[i]).first_form
    w = np.array([traj.du[i], traj.dv[i]])
    drifts.append(abs(math.sqrt(w @ g @ w) - 1.0))
print("max speed drift over s = 8:", max(drifts))

print()
print("=" * 64)
print("Geodesics locally minimize length")
print("=" * 64)
base = parse(["0*t", "t"], ["t"])
base_len = sf.curve_length_on_surface(sphere, base, 0.0, 1.0)
print("equator arc length:", base_len)
for eps in (0.02, 0.05, 0.1):
    bump = parse([f"{eps}*sin(pi*t)", "t"], ["t"])
    bumped = sf.curve_length_on_surface(sphere, bump, 0.0, 1.0)
    print(f"  bumped competitor (amplitude {eps}): {bumped:.8f}  "
          f"(+{bumped - base_len:.2e})")

print()
print("=" * 64)
print("Leaving the chart is reported, not silently clipped")
print("=" * 64)
try:
    sf.geodesic_integrate(sphere, sf.GeodesicState(1.0, 0.0, 1.0, 0.0), 5.0, 1e-2)
except sf.LeftDomain as exc:
    print("LeftDomain:", exc)
    print("exit state: u =", exc.state.u, " v =", exc.state.v, " s =", exc.state.s)
