"""Closed-form oracles for the benchmark's CLI outputs.

Every oracle reads one operation's files from an output directory (the
report, CSV tables, and the captured ``<name>.stdout``) and returns a list of
error strings; an empty list means the output is correct.  The checks use
only the standard library, so the benchmark driver never imports the program
under test.  Tolerances are relative to the scale of the quantity checked and
sit well above rounding and integrator error at the scene step sizes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from scenes import Op

MAX_ERRORS = 5  # errors kept per oracle call; the first few say what went wrong


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _close(got, want, tol, what, errors):
    if not (abs(got - want) <= tol) and len(errors) < MAX_ERRORS:
        errors.append(f"{what}: got {got!r}, want {want!r} (tol {tol:.1e})")


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(r) for r in zip(*a)]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _max_abs_diff(a, b):
    if isinstance(a, list):
        return max(_max_abs_diff(x, y) for x, y in zip(a, b))
    return abs(a - b)


def _identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _orthonormal_rows(rows, tol, what, errors):
    """Rows form an orthonormal, right-handed frame."""
    _close(_max_abs_diff(_matmul(rows, _transpose(rows)), _identity(len(rows))), 0.0,
           tol, f"{what} orthonormality defect", errors)
    if len(rows) == 3:
        _close(_det3(rows), 1.0, tol, f"{what} determinant", errors)


def _report(out: Path, name: str) -> dict:
    return json.loads((out / f"{name}_report.json").read_text(encoding="utf-8"))


def _results(report: dict) -> list[dict]:
    return [r["result"] for r in report["results"]]


def _table(result: dict):
    table = result["table"]
    return table["columns"], table["rows"]


def _check_csv(out: Path, path_name: str, columns, rows, errors):
    """A CSV table must carry exactly the rows of the matching JSON table."""
    with open(out / path_name, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    if lines[0] != columns or len(lines) - 1 != len(rows):
        errors.append(f"{path_name}: header or row count differs from the report")
        return
    for got, want in zip(lines[1:], rows):
        same = all((str(w) == g) if isinstance(w, str) else (float(g) == w)
                   for g, w in zip(got, want))
        if not same or len(got) != len(want):
            errors.append(f"{path_name}: row {got[:2]} differs from the report")
            return


def _table_csvs(out: Path, name: str, report: dict, errors):
    for i, entry in enumerate(report["results"]):
        table = entry["result"].get("table")
        if table:
            _check_csv(out, f"{name}_{entry['op']}_{i}.csv", table["columns"],
                       table["rows"], errors)


def _grid_count(report: dict, result: dict, samples: int, errors, what: str):
    n = len(result["table"]["rows"]) + len(report["diagnostics"]["skipped"])
    if n != samples:
        errors.append(f"{what}: {n} rows + skipped points, want {samples}")


# ---------------------------------------------------------------------------
# grid oracles
# ---------------------------------------------------------------------------

def _shape_consistency(cols, row, errors, what):
    c = dict(zip(cols, row))
    k, h = c["K"], c["H"]
    _close(c["k1"] * c["k2"], k, 1e-8 * max(1.0, abs(k), h * h), f"{what} k1*k2 vs K", errors)
    _close((c["k1"] + c["k2"]) / 2, h, 1e-8 * max(1.0, abs(h)), f"{what} (k1+k2)/2 vs H",
           errors)


def pseudosphere(out: Path, op: Op) -> list[str]:
    """Curvatures grid of a pseudosphere of radius a: K = -1/a^2 everywhere."""
    errors: list[str] = []
    rep = _report(out, op.name)
    res = _results(rep)[0]
    cols, rows = _table(res)
    n = rep["scene"]["requests"][0]["params"]["samples"]
    _grid_count(rep, res, n * n, errors, "pseudosphere")
    if rep["diagnostics"]["skipped"]:
        errors.append("pseudosphere: regular points were skipped")
    want = -1.0 / rep["scene"]["constants"]["a"] ** 2
    ik = cols.index("K")
    for row in rows:
        _close(row[ik], want, 1e-8 * abs(want), f"K at {row[:2]}", errors)
        _shape_consistency(cols, row, errors, f"pseudosphere at {row[:2]}")
    _table_csvs(out, op.name, rep, errors)
    return errors


def torus(out: Path, op: Op) -> list[str]:
    """Egregium grid of a torus: intrinsic K equals shape K and the closed form
    cos u / (r (R + r cos u)); the full-period area is 4 pi^2 R r."""
    errors: list[str] = []
    rep = _report(out, op.name)
    eg, area = _results(rep)
    R, r = rep["scene"]["constants"]["R"], rep["scene"]["constants"]["r"]
    n = rep["scene"]["requests"][0]["params"]["samples"]
    _grid_count(rep, eg, n * n, errors, "torus")
    cols, rows = _table(eg)
    for row in rows:
        c = dict(zip(cols, row))
        want = math.cos(c["u"]) / (r * (R + r * math.cos(c["u"])))
        scale = 1e-8 / (r * (R - r))
        _close(c["K_intrinsic"], c["K_shape"], scale, f"K_intrinsic - K_shape at {row[:2]}",
               errors)
        _close(c["K_shape"], want, scale, f"torus K at {row[:2]}", errors)
        _close(c["abs_diff"], abs(c["K_intrinsic"] - c["K_shape"]), 1e-15, "abs_diff column",
               errors)
    want_area = 4 * math.pi ** 2 * R * r
    _close(area["area"], want_area, 1e-10 * want_area, "torus area", errors)
    _table_csvs(out, op.name, rep, errors)
    return errors


def helix_frenet(out: Path, op: Op) -> list[str]:
    """Helix (a cos t, a sin t, b t): curvature a/(a^2+b^2), torsion
    -b/(a^2+b^2), length sqrt(a^2+b^2) (t1 - t0)."""
    errors: list[str] = []
    rep = _report(out, op.name)
    fr, length = _results(rep)
    a, b = rep["scene"]["constants"]["a"], rep["scene"]["constants"]["b"]
    (t0, t1), = rep["scene"]["domain"]
    n = rep["scene"]["requests"][0]["params"]["samples"]
    _grid_count(rep, fr, n, errors, "helix")
    cols, rows = _table(fr)
    w = a * a + b * b
    for row in rows:
        c = dict(zip(cols, row))
        t = c["t"]
        _close(c["c"], a / w, 1e-9 * a / w, f"helix curvature at t={t}", errors)
        _close(c["theta"], -b / w, 1e-9 * a / w, f"helix torsion at t={t}", errors)
        for got, want in ((c["x1"], a * math.cos(t)), (c["x2"], a * math.sin(t)),
                          (c["x3"], b * t)):
            _close(got, want, 1e-12 * (a + abs(b * t)), f"helix point at t={t}", errors)
    want_len = math.sqrt(w) * (t1 - t0)
    _close(length["length"], want_len, 1e-9 * want_len, "helix arc length", errors)
    _table_csvs(out, op.name, rep, errors)
    return errors


def ellipse_evolute(out: Path, op: Op) -> list[str]:
    """Evolute of the ellipse (a cos t, b sin t):
    ((a^2-b^2)/a cos^3 t, (b^2-a^2)/b sin^3 t, 0)."""
    errors: list[str] = []
    rep = _report(out, op.name)
    res = _results(rep)[0]
    a, b = rep["scene"]["constants"]["a"], rep["scene"]["constants"]["b"]
    n = rep["scene"]["requests"][0]["params"]["samples"]
    _grid_count(rep, res, n, errors, "ellipse")
    cols, rows = _table(res)
    tol = 1e-9 * a * a / b
    for row in rows:
        c = dict(zip(cols, row))
        t = c["t"]
        _close(c["q1"], (a * a - b * b) / a * math.cos(t) ** 3, tol, f"evolute x at t={t}",
               errors)
        _close(c["q2"], (b * b - a * a) / b * math.sin(t) ** 3, tol, f"evolute y at t={t}",
               errors)
        _close(c["q3"], 0.0, tol, f"evolute z at t={t}", errors)
    _table_csvs(out, op.name, rep, errors)
    return errors


def cone_apex(out: Path, op: Op) -> list[str]:
    """Cone through its apex: the grid line u = 0 is skipped point by point and
    every other point is flat (K = 0)."""
    errors: list[str] = []
    rep = _report(out, op.name)
    res = _results(rep)[0]
    n = rep["scene"]["requests"][0]["params"]["samples"]
    _grid_count(rep, res, n * n, errors, "cone")
    skipped = rep["diagnostics"]["skipped"]
    if len(skipped) != n or any(s["point"][0] != 0.0 for s in skipped):
        errors.append(f"cone: want the {n} points of the apex line skipped, "
                      f"got {len(skipped)}")
    cols, rows = _table(res)
    ik, ih = cols.index("K"), cols.index("H")
    for row in rows:
        _close(row[ik], 0.0, 1e-8 * max(1.0, row[ih] ** 2), f"cone K at {row[:2]}", errors)
        _shape_consistency(cols, row, errors, f"cone at {row[:2]}")
    _table_csvs(out, op.name, rep, errors)
    return errors


# ---------------------------------------------------------------------------
# march oracles
# ---------------------------------------------------------------------------

def torus_geodesic(out: Path, op: Op) -> list[str]:
    """Torus geodesic: unit surface speed, the Clairaut invariant
    (R + r cos u)^2 dv/ds, and points on the surface."""
    errors: list[str] = []
    rep = _report(out, op.name)
    cols, rows = _table(_results(rep)[0])
    R, r = rep["scene"]["constants"]["R"], rep["scene"]["constants"]["r"]
    p = rep["scene"]["requests"][0]["params"]
    first = dict(zip(cols, rows[0]))
    _close(first["u"], p["u"], 0.0, "geodesic start u", errors)
    _close(first["v"], p["v"], 0.0, "geodesic start v", errors)
    clairaut0 = (R + r * math.cos(first["u"])) ** 2 * first["dv"]
    for row in rows:
        c = dict(zip(cols, row))
        rho = R + r * math.cos(c["u"])
        speed = math.sqrt(r * r * c["du"] ** 2 + rho * rho * c["dv"] ** 2)
        _close(speed, 1.0, 1e-8, f"geodesic speed at s={c['s']}", errors)
        _close(rho * rho * c["dv"], clairaut0, 1e-8 * R * R, f"Clairaut at s={c['s']}", errors)
        for got, want in ((c["x1"], rho * math.cos(c["v"])), (c["x2"], rho * math.sin(c["v"])),
                          (c["x3"], r * math.sin(c["u"]))):
            _close(got, want, 1e-12 * R, f"geodesic point at s={c['s']}", errors)
    steps = round(p["s_max"] / p["step"])
    stride = max(1, (steps + 1) // max(p["samples"], 2))
    if len(rows) != len(range(0, steps + 1, stride)):
        errors.append(f"geodesic: {len(rows)} rows, want {len(range(0, steps + 1, stride))}")
    return errors


def _bonnet_rows(out: Path, op: Op, errors):
    rep = _report(out, op.name)
    cols, rows = _table(_results(rep)[0])
    job = rep["scene"]
    frames = []
    for row in rows:
        c = dict(zip(cols, row))
        frame = [[c["t1"], c["t2"], c["t3"]], [c["n1"], c["n2"], c["n3"]],
                 [c["b1"], c["b2"], c["b3"]]]
        _orthonormal_rows(frame, 1e-10, f"frame at s={c['s']}", errors)
        frames.append((c["s"], [c["x1"], c["x2"], c["x3"]], frame))
    s0, p0, e0 = frames[0]
    _close(_max_abs_diff(p0, job["p0"]), 0.0, 0.0, "start point", errors)
    _close(_max_abs_diff(e0, job["frame0"]), 0.0, 0.0, "start frame", errors)
    steps = round((job["s_range"][1] - job["s_range"][0]) / job["step"])
    stride = max(1, (steps + 1) // 2000)
    if len(rows) != len(range(0, steps + 1, stride)):
        errors.append(f"reconstruct: {len(rows)} rows, want "
                      f"{len(range(0, steps + 1, stride))}")
    return rep, cols, rows, frames


def bonnet_frame(out: Path, op: Op) -> list[str]:
    """Bonnet reconstruction with seeded curvature c(s) and torsion th(s): the
    frame stays orthonormal, the curve moves along its tangent with unit speed,
    and the frame turns as e' = C(s) e (T' = c N, B' = th N)."""
    errors: list[str] = []
    rep, cols, rows, frames = _bonnet_rows(out, op, errors)
    k = rep["scene"]["constants"]

    def c_of(s):
        return k["c0"] + k["c1"] * math.sin(k["w1"] * s)

    def th_of(s):
        return k["t0"] + k["t1"] * math.cos(k["w2"] * s)

    # Central differences over two table rows d apart err by d^2/6 times the
    # third derivative: below 2e-4 for every seeded profile, hence 1e-3.
    tol = 1e-3
    for (sa, pa, ea), (sb, pb, eb), (sc, pc, ec) in zip(frames, frames[1:], frames[2:]):
        h = sc - sa
        chord = math.dist(pa, pc)
        if not chord <= h * (1 + 1e-9):
            errors.append(f"chord {chord!r} longer than arc {h!r} at s={sb}")
        mid = [(x - y) / h for x, y in zip(pc, pa)]
        _close(_max_abs_diff(mid, eb[0]), 0.0, tol, f"p' vs tangent at s={sb}", errors)
        dT = [(x - y) / h for x, y in zip(ec[0], ea[0])]
        dB = [(x - y) / h for x, y in zip(ec[2], ea[2])]
        _close(_max_abs_diff(dT, [c_of(sb) * x for x in eb[1]]), 0.0, tol,
               f"T' vs c N at s={sb}", errors)
        _close(_max_abs_diff(dB, [th_of(sb) * x for x in eb[1]]), 0.0, tol,
               f"B' vs th N at s={sb}", errors)
        if len(errors) >= 5:
            break
    csv_rows = [[float(x) for x in r] for r in rows]
    _check_csv(out, f"{op.name}_curve.csv", cols, csv_rows, errors)
    return errors


def bonnet_helix(out: Path, op: Op) -> list[str]:
    """Constant curvature k and torsion th give a helix: the axis -th T + k B is
    constant and |p(s) - p(0)|^2 = 2 a^2 (1 - cos w s) + (th s / w)^2 with
    w = sqrt(k^2 + th^2), a = k / w^2."""
    errors: list[str] = []
    rep, _, _, frames = _bonnet_rows(out, op, errors)
    k, th = rep["scene"]["constants"]["kappa"], rep["scene"]["constants"]["tau"]
    w = math.hypot(k, th)
    a = k / (w * w)
    s0, p0, e0 = frames[0]
    axis0 = [-th * t + k * b for t, b in zip(e0[0], e0[2])]
    for s, p, e in frames:
        axis = [-th * t + k * b for t, b in zip(e[0], e[2])]
        _close(_max_abs_diff(axis, axis0), 0.0, 1e-9 * w, f"helix axis at s={s}", errors)
        ds = s - s0
        want = math.sqrt(2 * a * a * (1 - math.cos(w * ds)) + (th * ds / w) ** 2)
        _close(math.dist(p, p0), want, 1e-9 * max(1.0, ds), f"helix chord at s={s}", errors)
    return errors


# ---------------------------------------------------------------------------
# query oracles
# ---------------------------------------------------------------------------

def _spherical_jacobian(z, k):
    r, p, t = z
    sp, cp, st, ct = math.sin(p), math.cos(p), math.sin(t), math.cos(t)
    return [[sp * ct, r * cp * ct, -r * sp * st],
            [sp * st, r * cp * st, r * sp * ct],
            [cp, -r * sp, 0.0]]


def _spherical_x(z, k):
    r, p, t = z
    return r * math.sin(p) * math.cos(t)


def _skew_jacobian(z, k):
    q1, q2, q3 = z
    return [[1.0, k["ga"] * math.cos(q2), 0.0],
            [0.0, 1.0, k["gb"] * math.cos(q3)],
            [k["gc"] * math.cos(q1), 0.0, 1.0]]


def _skew_x(z, k):
    return z[0] + k["ga"] * math.sin(z[1])


def _spherical_gamma(z):
    """Christoffel symbols gamma[h][i][j] of spherical coordinates (r, colat, azim)."""
    r, p, _ = z
    g = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    g[0][1][1] = -r
    g[0][2][2] = -r * math.sin(p) ** 2
    g[1][0][1] = g[1][1][0] = 1.0 / r
    g[1][2][2] = -math.sin(p) * math.cos(p)
    g[2][0][2] = g[2][2][0] = 1.0 / r
    g[2][1][2] = g[2][2][1] = math.cos(p) / math.sin(p)
    return g


def _chart(out: Path, op: Op, jacobian, x_of, gamma=None) -> list[str]:
    errors: list[str] = []
    rep = _report(out, op.name)
    k = rep["scene"]["constants"]
    requests = rep["scene"]["requests"]
    results = _results(rep)
    if len(results) != len(requests):
        return [f"{op.name}: {len(results)} results for {len(requests)} requests"]
    for i in range(0, len(requests), 4):
        z = requests[i]["params"]["z"]
        met, g_sd, g_md, lap = results[i:i + 4]
        J = jacobian(z, k)
        scale = max(1.0, max(abs(x) for row in J for x in row)) ** 2
        _close(_max_abs_diff(met["jacobian"], J), 0.0, 1e-12 * scale, f"jacobian at {z}",
               errors)
        _close(_max_abs_diff(met["covariant"], _matmul(_transpose(J), J)), 0.0,
               1e-12 * scale, f"metric at {z}", errors)
        _close(_max_abs_diff(_matmul(met["covariant"], met["contravariant"]), _identity(3)),
               0.0, 1e-10, f"g g^-1 at {z}", errors)
        a, b = g_sd["christoffel"], g_md["christoffel"]
        gscale = max(1.0, max(abs(x) for m in a for row in m for x in row))
        _close(_max_abs_diff(a, b), 0.0, 1e-9 * gscale,
               f"christoffel methods disagree at {z}", errors)
        if gamma is not None:
            _close(_max_abs_diff(a, gamma(z)), 0.0, 1e-9 * gscale,
                   f"christoffel closed form at {z}", errors)
        x = x_of(z, k)
        want = 2 * (k["fa"] + k["fb"] + k["fc"]) + k["fe"] ** 2 * math.exp(k["fe"] * x)
        _close(lap["laplacian"], want, 1e-8 * max(1.0, abs(want)), f"laplacian at {z}", errors)
    return errors


def chart_spherical(out: Path, op: Op) -> list[str]:
    """Spherical chart: metric J^T J, closed-form Christoffel symbols, both
    Christoffel methods agree, and the Laplacian of a Cartesian field."""
    return _chart(out, op, _spherical_jacobian, _spherical_x, _spherical_gamma)


def chart_skew(out: Path, op: Op) -> list[str]:
    """Non-orthogonal chart: metric J^T J, both Christoffel methods agree, and
    the Laplacian of a Cartesian field."""
    return _chart(out, op, _skew_jacobian, _skew_x)


def helix_points(out: Path, op: Op) -> list[str]:
    """Osculating circle and canonical coefficients of a helix at seeded t:
    radius (a^2+b^2)/a, center (-b^2/a cos t, -b^2/a sin t, b t), dc/ds = 0."""
    errors: list[str] = []
    rep = _report(out, op.name)
    a, b = rep["scene"]["constants"]["a"], rep["scene"]["constants"]["b"]
    w = a * a + b * b
    tol = 1e-9 * max(1.0, w / a)
    for req, res in zip(rep["scene"]["requests"], _results(rep)):
        t = req["params"]["t"]
        if req["op"] == "osculating":
            center = [-b * b / a * math.cos(t), -b * b / a * math.sin(t), b * t]
            _close(res["circle_radius"], w / a, tol, f"circle radius at t={t}", errors)
            _close(_max_abs_diff(res["circle_center"], center), 0.0, tol * max(1.0, abs(t)),
                   f"circle center at t={t}", errors)
            _close(res["sphere_radius"], w / a, tol, f"sphere radius at t={t}", errors)
            _close(_max_abs_diff(res["sphere_center"], center), 0.0, tol * max(1.0, abs(t)),
                   f"sphere center at t={t}", errors)
        else:
            _close(res["c0"], a / w, 1e-9 * a / w, f"c0 at t={t}", errors)
            _close(res["c0_prime"], 0.0, 1e-9 * a / w, f"c0' at t={t}", errors)
            _close(res["theta0"], -b / w, 1e-9 * a / w, f"theta0 at t={t}", errors)
    if len(rep["results"]) != len(rep["scene"]["requests"]):
        errors.append("helix points: missing results")
    return errors


def sphere_jets(out: Path, op: Op) -> list[str]:
    """Sphere of radius rho: umbilic everywhere with K = 1/rho^2, |H| = 1/rho,
    first form diag(rho^2, rho^2 cos^2 u) and II = H I."""
    errors: list[str] = []
    rep = _report(out, op.name)
    rho = rep["scene"]["constants"]["rho"]
    for req, res in zip(rep["scene"]["requests"], _results(rep)):
        u, v = req["params"]["u"], req["params"]["v"]
        where = f"({u}, {v})"
        point = [rho * math.cos(u) * math.cos(v), rho * math.cos(u) * math.sin(v),
                 rho * math.sin(u)]
        _close(_max_abs_diff(res["point"], point), 0.0, 1e-12 * rho, f"point at {where}",
               errors)
        _close(abs(_dot(res["normal"], point)) / rho, 1.0, 1e-10, f"normal at {where}", errors)
        _close(res["gaussian"], 1 / rho ** 2, 1e-9 / rho ** 2, f"K at {where}", errors)
        _close(abs(res["mean"]), 1 / rho, 1e-9 / rho, f"|H| at {where}", errors)
        _close(res["k1"], res["k2"], 1e-9 / rho, f"k1 = k2 at {where}", errors)
        first = [[rho * rho, 0.0], [0.0, (rho * math.cos(u)) ** 2]]
        _close(_max_abs_diff(res["first_form"], first), 0.0, 1e-12 * rho * rho,
               f"first form at {where}", errors)
        second = [[res["mean"] * x for x in row] for row in res["first_form"]]
        _close(_max_abs_diff(res["second_form"], second), 0.0, 1e-9 * rho,
               f"II = H I at {where}", errors)
    if len(rep["results"]) != len(rep["scene"]["requests"]):
        errors.append("sphere jets: missing results")
    return errors


def polar(out: Path, op: Op) -> list[str]:
    """Polar decomposition F = R U = V R: R orthogonal with det +1, U and V
    symmetric."""
    errors: list[str] = []
    rep = _report(out, op.name)
    res = _results(rep)[0]
    F = rep["scene"]["matrix"]
    R, U, V = res["rotation"], res["right_stretch"], res["left_stretch"]
    _orthonormal_rows(R, 1e-12, "polar rotation", errors)
    _close(_max_abs_diff(_matmul(R, U), F), 0.0, 1e-12, "R U = F", errors)
    _close(_max_abs_diff(_matmul(V, R), F), 0.0, 1e-12, "V R = F", errors)
    _close(_max_abs_diff(U, _transpose(U)), 0.0, 1e-12, "U symmetric", errors)
    _close(_max_abs_diff(V, _transpose(V)), 0.0, 1e-12, "V symmetric", errors)
    return errors


def eigen(out: Path, op: Op) -> list[str]:
    """Symmetric eigenproblem: A v_k = lambda_k v_k (columns), orthonormal and
    right-handed vectors, values descending."""
    errors: list[str] = []
    rep = _report(out, op.name)
    res = _results(rep)[0]
    A, lam, vecs = rep["scene"]["matrix"], res["values"], res["vectors"]
    vt = _transpose(vecs)
    _orthonormal_rows(vt, 1e-12, "eigenvectors", errors)
    for k in range(3):
        Av = [_dot(row, vt[k]) for row in A]
        _close(_max_abs_diff(Av, [lam[k] * x for x in vt[k]]), 0.0, 1e-11,
               f"A v = lambda v for k={k}", errors)
    if not lam[0] >= lam[1] >= lam[2]:
        errors.append("eigenvalues are not descending")
    return errors


_KELVIN_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (2, 0), (0, 1))
_KELVIN_W = (1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0))


def _kelvin_vector(A):
    return [w * A[i][j] for w, (i, j) in zip(_KELVIN_W, _KELVIN_PAIRS)]


def kelvin_rotation(out: Path, op: Op) -> list[str]:
    """The 6x6 Kelvin rotation Q is orthogonal and maps kelvin(A) to
    kelvin(U A U^T) for symmetric A."""
    errors: list[str] = []
    rep = _report(out, op.name)
    Q = _results(rep)[0]["kelvin"]
    U = rep["scene"]["matrix"]
    _close(_max_abs_diff(_matmul(Q, _transpose(Q)), _identity(6)), 0.0, 1e-12,
           "Kelvin rotation orthogonality", errors)
    for A in ([[1.0, 0.2, -0.3], [0.2, -0.5, 0.7], [-0.3, 0.7, 2.0]],
              [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]):
        rotated = _matmul(_matmul(U, A), _transpose(U))
        got = [_dot(row, _kelvin_vector(A)) for row in Q]
        _close(_max_abs_diff(got, _kelvin_vector(rotated)), 0.0, 1e-12,
               "Q kelvin(A) = kelvin(U A U^T)", errors)
    return errors


def kelvin_orthotropic(out: Path, op: Op) -> list[str]:
    """Kelvin form of an orthotropic stiffness: the normal block holds C_iijj,
    the shear diagonal 2 C_ijij, and everything else is zero."""
    errors: list[str] = []
    rep = _report(out, op.name)
    K = _results(rep)[0]["kelvin"]
    C = rep["scene"]["tensor"]
    want = [[0.0] * 6 for _ in range(6)]
    for a in range(3):
        for b in range(3):
            want[a][b] = C[a][a][b][b]
    for a, (i, j) in enumerate(_KELVIN_PAIRS[3:], start=3):
        want[a][a] = 2 * C[i][j][i][j]
    _close(_max_abs_diff(K, want), 0.0, 1e-12 * 200.0, "orthotropic Kelvin matrix", errors)
    return errors


def check(out: Path, op: Op) -> list[str]:
    """The invariant battery passes."""
    text = (out / f"{op.name}.stdout").read_text(encoding="utf-8")
    return [] if "ALL CHECKS PASSED" in text else ["check did not print ALL CHECKS PASSED"]


ORACLES = {f.__name__: f for f in (
    pseudosphere, torus, helix_frenet, ellipse_evolute, cone_apex, torus_geodesic,
    bonnet_frame, bonnet_helix, chart_spherical, chart_skew, helix_points, sphere_jets,
    polar, eigen, kelvin_rotation, kelvin_orthotropic, check)}


def verify(out: Path, op: Op, exit_code: int) -> list[str]:
    """All reasons one operation's run failed: exit code, traceback, oracle."""
    if exit_code != 0:
        return [f"{op.name}: exit code {exit_code}"]
    stderr = out / f"{op.name}.stderr"
    if stderr.exists() and "Traceback" in stderr.read_text(encoding="utf-8"):
        return [f"{op.name}: traceback on stderr"]
    try:
        return [f"{op.name}: {e}" for e in ORACLES[op.oracle](out, op)]
    except (OSError, ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        return [f"{op.name}: unreadable output ({type(exc).__name__}: {exc})"]


# ---------------------------------------------------------------------------
# work units and counts taken from the reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Counts:
    """What one operation did, read from its report."""

    units: int            # pointwise evaluations: see ``counts``
    skipped: int = 0      # grid points skipped as singular
    geodesic_steps: int = 0
    bonnet_steps: int = 0


def counts(out: Path, op: Op) -> Counts:
    """Work units of one operation -- table rows and skipped points,
    integrator steps, quadrature nodes, chart/point requests, tensor jobs and
    check runs -- plus its skipped points and integrator steps."""
    if op.command == "check":
        return Counts(1)
    rep = _report(out, op.name)
    if op.command == "tensor":
        return Counts(1)
    if op.command == "reconstruct":
        job = rep["scene"]
        steps = round((job["s_range"][1] - job["s_range"][0]) / job["step"])
        return Counts(steps, bonnet_steps=steps)
    skipped = len(rep["diagnostics"].get("skipped", []))
    units, geodesic = skipped, 0
    for req, entry in zip(rep["scene"]["requests"], rep["results"]):
        params = req.get("params", {})
        if req["op"] == "geodesic":
            geodesic += round(params["s_max"] / params["step"])
        elif req["op"] == "area":
            units += params["order"] ** 2
        elif "table" in entry["result"]:
            units += len(entry["result"]["table"]["rows"])
        else:
            units += 1
    return Counts(units + geodesic, skipped, geodesic_steps=geodesic)
