"""Seeded inputs of the benchmark workloads.

Each workload is a fixed list of CLI operations.  The seed picks points,
matrices, constants and initial directions; it never changes a size (grid
samples, step counts, point counts), so the work done is the same for every
seed.  Generation uses only ``random.Random`` and writes JSON with sorted
keys, so one seed always gives byte-identical scene files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid", "march", "query")

# Sizes, fixed for every seed.
PSEUDOSPHERE_SAMPLES = 64
TORUS_SAMPLES = 24
AREA_ORDER = 32
FRENET_SAMPLES = 4096
EVOLUTE_SAMPLES = 2048
CONE_SAMPLES = 33            # odd, so the interior grid holds the apex line u = 0
GEODESIC_STEPS = 5000
GEODESIC_STEP = 1e-3
BONNET_STEPS = 10000
HELIX_STEPS = 1000
BONNET_STEP = 1e-3
CHART_POINTS = 150
CURVE_POINTS = 60
JET_POINTS = 60


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``tensorgeom --out OUT [--format F] <command> [input]``.

    ``inputs`` maps a file name to its JSON text; ``oracle`` names the check in
    ``oracles.py`` that the outputs must pass.
    """

    name: str
    command: str
    oracle: str
    inputs: dict = field(default_factory=dict)
    fmt: str = "json"

    def argv(self, scene_dir: str, out_dir: str) -> list[str]:
        args = ["--out", out_dir, "--format", self.fmt, self.command]
        if self.inputs:
            args.append(f"{scene_dir}/{self.name}.json")
        return args


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _r(rng: random.Random, lo: float, hi: float) -> float:
    # 12 significant digits keep the scene files short and exactly round-trip.
    return float(f"{rng.uniform(lo, hi):.12g}")


def _scene(kind, components, variables, constants, domain, requests) -> str:
    return _dump({"kind": kind, "components": components, "variables": variables,
                  "constants": constants, "domain": domain, "requests": requests})


def _op(name, command, oracle, text=None, fmt="json") -> Op:
    return Op(name, command, oracle, {f"{name}.json": text} if text else {}, fmt)


# ---------------------------------------------------------------------------
# grid: dense grids and sample tables
# ---------------------------------------------------------------------------

def _grid_ops(rng: random.Random) -> list[Op]:
    a = _r(rng, 0.6, 1.6)
    u0, v0 = _r(rng, 0.15, 0.4), _r(rng, -3.0, 1.0)
    pseudo = _scene("surface",
                    ["a*cos(v)/cosh(u)", "a*sin(v)/cosh(u)", "a*(u - tanh(u))"],
                    ["u", "v"], {"a": a}, [[u0, u0 + 1.5], [v0, v0 + 2.0]],
                    [{"op": "curvatures", "params": {"samples": PSEUDOSPHERE_SAMPLES}}])

    R, r = _r(rng, 2.0, 3.0), _r(rng, 0.5, 1.2)
    tu, tv = _r(rng, 0.0, 2 * math.pi), _r(rng, 0.0, 2 * math.pi)
    torus = _scene("surface",
                   ["(R + r*cos(u))*cos(v)", "(R + r*cos(u))*sin(v)", "r*sin(u)"],
                   ["u", "v"], {"R": R, "r": r},
                   [[tu, tu + 2 * math.pi], [tv, tv + 2 * math.pi]],
                   [{"op": "egregium", "params": {"samples": TORUS_SAMPLES}},
                    {"op": "area", "params": {"order": AREA_ORDER}}])

    ha, hb = _r(rng, 0.5, 2.0), _r(rng, 0.2, 1.0) * rng.choice((-1, 1))
    t0 = _r(rng, -5.0, 5.0)
    helix = _scene("curve", ["a*cos(t)", "a*sin(t)", "b*t"], ["t"],
                   {"a": ha, "b": hb}, [[t0, t0 + 12.0]],
                   [{"op": "frenet", "params": {"samples": FRENET_SAMPLES}},
                    {"op": "arc_length", "params": {}}])

    ea, eb = _r(rng, 1.2, 2.5), _r(rng, 0.5, 1.1)
    e0 = _r(rng, 0.0, 2 * math.pi)
    ellipse = _scene("curve", ["a*cos(t)", "b*sin(t)"], ["t"], {"a": ea, "b": eb},
                     [[e0, e0 + 2 * math.pi]],
                     [{"op": "evolute", "params": {"samples": EVOLUTE_SAMPLES}}])

    # A symmetric u-range with h = k/16 puts an interior grid line exactly on
    # the apex u = 0, where the tangent plane degenerates and points are skipped.
    h = rng.randint(8, 32) / 16
    cv0 = _r(rng, -3.0, 1.0)
    cone = _scene("surface", ["u*cos(v)", "u*sin(v)", "k*u"], ["u", "v"],
                  {"k": _r(rng, 0.3, 2.0)}, [[-h, h], [cv0, cv0 + 2.0]],
                  [{"op": "curvatures", "params": {"samples": CONE_SAMPLES}}])

    return [_op("pseudosphere", "analyze", "pseudosphere", pseudo, "both"),
            _op("torus", "analyze", "torus", torus, "both"),
            _op("helix", "analyze", "helix_frenet", helix, "both"),
            _op("ellipse", "analyze", "ellipse_evolute", ellipse, "both"),
            _op("cone", "analyze", "cone_apex", cone, "both")]


# ---------------------------------------------------------------------------
# march: long sequential integrations
# ---------------------------------------------------------------------------

def _rotation(rng: random.Random) -> list[list[float]]:
    """Uniform random rotation from a unit quaternion (rows orthonormal)."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)]]


def _march_ops(rng: random.Random) -> list[Op]:
    R, r = _r(rng, 2.0, 3.0), _r(rng, 0.5, 1.2)
    phi = _r(rng, 0.0, 2 * math.pi)
    s_max = GEODESIC_STEPS * GEODESIC_STEP
    geo = _scene("surface",
                 ["(R + r*cos(u))*cos(v)", "(R + r*cos(u))*sin(v)", "r*sin(u)"],
                 ["u", "v"], {"R": R, "r": r}, [[-60.0, 60.0], [-60.0, 60.0]],
                 [{"op": "geodesic",
                   "params": {"u": _r(rng, 0.0, 2 * math.pi),
                              "v": _r(rng, 0.0, 2 * math.pi),
                              "du": math.cos(phi), "dv": math.sin(phi),
                              "s_max": s_max, "step": GEODESIC_STEP,
                              "samples": 400}}])

    c0, t0 = _r(rng, 0.8, 1.5), _r(rng, 0.3, 0.8)
    bonnet = _dump({
        "curvature": "c0 + c1*sin(w1*s)", "torsion": "t0 + t1*cos(w2*s)",
        "constants": {"c0": c0, "c1": _r(rng, 0.0, 0.5) * c0, "w1": _r(rng, 0.5, 2.0),
                      "t0": t0, "t1": _r(rng, 0.0, 0.5) * t0, "w2": _r(rng, 0.5, 2.0)},
        "s_range": [0.0, BONNET_STEPS * BONNET_STEP], "step": BONNET_STEP,
        "p0": [_r(rng, -1.0, 1.0) for _ in range(3)], "frame0": _rotation(rng)})

    helix = _dump({
        "curvature": "kappa", "torsion": "tau",
        "constants": {"kappa": _r(rng, 0.5, 2.0), "tau": _r(rng, -1.0, 1.0)},
        "s_range": [0.0, HELIX_STEPS * BONNET_STEP], "step": BONNET_STEP,
        "p0": [0.0, 0.0, 0.0], "frame0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                          [0.0, 0.0, 1.0]]})

    return [_op("geodesic", "analyze", "torus_geodesic", geo),
            _op("bonnet", "reconstruct", "bonnet_frame", bonnet, "both"),
            _op("bonnet_helix", "reconstruct", "bonnet_helix", helix)]


# ---------------------------------------------------------------------------
# query: many small requests and short processes
# ---------------------------------------------------------------------------

def _laplacian_field(rng: random.Random, x: str, y: str, z: str):
    """Cartesian field a x^2 + b y^2 + c z^2 + d x y + exp(e x), written in
    the chart variables.  Its Laplacian is 2(a+b+c) + e^2 exp(e x)."""
    consts = {"fa": _r(rng, -1.0, 1.0), "fb": _r(rng, -1.0, 1.0),
              "fc": _r(rng, -1.0, 1.0), "fd": _r(rng, -1.0, 1.0),
              "fe": _r(rng, -0.5, 0.5)}
    src = (f"fa*({x})^2 + fb*({y})^2 + fc*({z})^2 + fd*({x})*({y}) "
           f"+ exp(fe*({x}))")
    return src, consts


def _chart_scene(rng, components, variables, constants, domain, point) -> str:
    x, y, z = components
    field_src, field_consts = _laplacian_field(rng, x, y, z)
    requests = []
    for _ in range(CHART_POINTS):
        p = point()
        requests += [{"op": "metric", "params": {"z": p}},
                     {"op": "christoffel", "params": {"z": p, "method": "second_derivative"}},
                     {"op": "christoffel", "params": {"z": p, "method": "metric_derivative"}},
                     {"op": "laplacian", "params": {"z": p, "field": field_src}}]
    return _scene("coordmap", list(components), variables, {**constants, **field_consts},
                  domain, requests)


def _symmetric(rng: random.Random) -> list[list[float]]:
    a = [[_r(rng, -1.0, 1.0) for _ in range(3)] for _ in range(3)]
    return [[(a[i][j] + a[j][i]) / 2 + (3.0 if i == j else 0.0) for j in range(3)]
            for i in range(3)]


def _orthotropic(rng: random.Random) -> list:
    """3x3x3x3 stiffness with orthotropic symmetry (9 independent constants)."""
    c = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        c[i][i] = _r(rng, 100.0, 200.0)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c[i][j] = c[j][i] = _r(rng, 20.0, 60.0)
    shear = {frozenset((1, 2)): _r(rng, 20.0, 50.0), frozenset((0, 2)): _r(rng, 20.0, 50.0),
             frozenset((0, 1)): _r(rng, 20.0, 50.0)}
    t = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            t[i][i][j][j] = c[i][j]
    for pair, g in shear.items():
        i, j = sorted(pair)
        for a_, b_ in ((i, j), (j, i)):
            for c_, d_ in ((i, j), (j, i)):
                t[a_][b_][c_][d_] = g
    return t


def _query_ops(rng: random.Random) -> list[Op]:
    sph = _chart_scene(
        rng, ("r*sin(p)*cos(t)", "r*sin(p)*sin(t)", "r*cos(p)"), ["r", "p", "t"], {},
        [[0.05, 10.0], [0.05, 3.09], [-3.1, 3.1]],
        lambda: [_r(rng, 0.5, 3.0), _r(rng, 0.3, 2.8), _r(rng, -3.0, 3.0)])
    # Non-orthogonal chart with a nonlinear shear; det J = 1 + ga*gb*gc*cos*cos*cos > 0.
    skew = _chart_scene(
        rng, ("q1 + ga*sin(q2)", "q2 + gb*sin(q3)", "q3 + gc*sin(q1)"), ["q1", "q2", "q3"],
        {"ga": _r(rng, 0.2, 0.7), "gb": _r(rng, 0.2, 0.7), "gc": _r(rng, 0.2, 0.7)},
        [[-5.0, 5.0], [-5.0, 5.0], [-5.0, 5.0]],
        lambda: [_r(rng, -3.0, 3.0) for _ in range(3)])

    ha, hb = _r(rng, 0.5, 2.0), _r(rng, 0.2, 1.0) * rng.choice((-1, 1))
    requests = []
    for _ in range(CURVE_POINTS):
        t = _r(rng, -6.0, 6.0)
        requests += [{"op": "osculating", "params": {"t": t}},
                     {"op": "canonical", "params": {"t": t}}]
    helix = _scene("curve", ["a*cos(t)", "a*sin(t)", "b*t"], ["t"], {"a": ha, "b": hb},
                   [[-6.5, 6.5]], requests)

    rho = _r(rng, 0.5, 3.0)
    sphere = _scene("surface", ["rho*cos(u)*cos(v)", "rho*cos(u)*sin(v)", "rho*sin(u)"],
                    ["u", "v"], {"rho": rho}, [[-1.4, 1.4], [-3.1, 3.1]],
                    [{"op": "jet", "params": {"u": _r(rng, -1.2, 1.2),
                                              "v": _r(rng, -3.0, 3.0)}}
                     for _ in range(JET_POINTS)])

    F = [[_r(rng, -0.25, 0.25) + (1.0 if i == j else 0.0) for j in range(3)]
         for i in range(3)]
    return [_op("chart_spherical", "analyze", "chart_spherical", sph),
            _op("chart_skew", "analyze", "chart_skew", skew),
            _op("helix_points", "analyze", "helix_points", helix),
            _op("sphere_jets", "analyze", "sphere_jets", sphere),
            _op("polar", "tensor", "polar", _dump({"op": "polar", "matrix": F})),
            _op("eigen", "tensor", "eigen", _dump({"op": "eigen", "matrix": _symmetric(rng)})),
            _op("kelvin_rotation", "tensor", "kelvin_rotation",
                _dump({"op": "kelvin_rotation", "matrix": _rotation(rng)})),
            _op("kelvin", "tensor", "kelvin_orthotropic",
                _dump({"op": "kelvin", "tensor": _orthotropic(rng)})),
            _op("check", "check", "check")]


_BUILDERS = {"grid": _grid_ops, "march": _march_ops, "query": _query_ops}


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one workload for one seed."""
    # One stream per workload, so adding a workload leaves the others unchanged.
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
