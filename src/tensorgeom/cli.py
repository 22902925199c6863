"""Command-line front end.

Subcommands:

* ``analyze <scene.json>``     -- run curve/surface/coordmap analyses
* ``reconstruct <profile.json>`` -- rebuild a curve from curvature/torsion
* ``tensor <job.json>``        -- one-shot tensor computations
* ``check``                    -- run the invariant battery

Scene files are JSON objects with ``kind``, ``components`` (expression
strings), ``variables``, ``constants``, ``domain`` ([min, max] pairs) and
``requests`` ([{"op": ..., "params": {...}}]).  Reports are JSON with sorted
keys and floats printed at 17 significant digits, so identical inputs give
byte-identical output.  Every input ends in exit 0, 2 (it breaks its row of
``PARAMS``, or the output cannot be written) or 3 (a numerical failure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, coords, curve, surface, tensor2, tensor4
from .expr import DomainError, ExprMap, _chunked, parse

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3  # any ArithmeticError: each NumericalFailure, and float overflow

MAX_SAMPLES = 10 ** 6   # grid samples per axis; keeps every table allocatable
MAX_ORDER = 1000        # Gauss-Legendre order; its companion matrix is order^2
MAX_STEPS = 10 ** 6     # integrator steps; each is stored
MAX_JSON_DEPTH = 32     # input nesting; the report writer recurses per level


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"non-finite value {x!r} in report")
    return format(x, ".1f" if x.is_integer() and abs(x) < 1e16 else ".17g")


def _joined(head: str, items: list[str], sep: str, tail: str) -> str:
    """``head + sep.join(items) + tail`` for items not empty, in one copy of
    the items, so that a report's text is held about twice at most."""
    pieces = [head]
    for item in items:
        pieces += (item, sep)
    pieces[-1] = tail
    return "".join(pieces)


def _json_list(items: list[str], indent: int) -> str:
    """A JSON array of formatted items: on one line when it is short, else one
    item per line."""
    if not items:
        return "[]"
    if len(items) <= 8 and max(map(len, items)) < 24 and "\n" not in "".join(items):
        return "[" + ", ".join(items) + "]"
    inner = "  " * (indent + 1)
    return _joined("[\n" + inner, items, ",\n" + inner, "\n" + "  " * indent + "]")


def format_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{json.dumps(str(k))}: {format_json(obj[k], indent + 1)}'
                 for k in sorted(obj)]
        return _joined("{\n", parts, ",\n", f"\n{pad}}}")
    if isinstance(obj, Table):
        return obj._json(indent)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = np.asarray(obj).tolist() if isinstance(obj, np.ndarray) else obj
        return _json_list([format_json(x, indent + 1) for x in items], indent)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _cells(row) -> list[str]:
    """A table row's cells as CSV text: a float through ``_fmt_float``, a
    string as it is."""
    return [x if type(x) is str else _fmt_float(float(x)) for x in row]


class Table:
    """A report table: column names, and rows of floats (numpy's too) and
    strings.

    ``format_json`` writes it as it writes ``{"columns": ..., "rows": ...}``,
    and ``write_csv`` as a header line and one line per row.  Both take a
    row's cells from ``_cells``; JSON quotes the strings.  When ``keep_csv`` is
    set, the JSON writer keeps each row's CSV line as it formats the row, and
    ``write_csv`` writes those lines, so each number is formatted once."""

    def __init__(self, columns: list[str], rows: list):
        self.columns, self.rows = columns, rows
        self.keep_csv = False
        self._csv: list[str] | None = None

    def _json(self, indent: int) -> str:
        csv = [] if self.keep_csv else None
        rows = []
        for row in self.rows:
            cells = _cells(row)
            if csv is not None:
                csv.append(",".join(cells))
            if str in map(type, row):
                cells = [json.dumps(x) if type(x) is str else c for x, c in zip(row, cells)]
            rows.append(_json_list(cells, indent + 2))
        self._csv = csv
        text = _json_list(rows, indent + 1)
        del rows  # before the table's text is copied once more
        inner = "  " * (indent + 1)
        return (f'{{\n{inner}"columns": {format_json(self.columns, indent + 1)},\n'
                f'{inner}"rows": {text}\n{"  " * indent}}}')


def write_csv(path: Path, table: Table) -> None:
    lines, table._csv = table._csv, None
    if lines is None:
        lines = [",".join(_cells(row)) for row in table.rows]
    path.write_text("\n".join([",".join(table.columns), *lines]) + "\n",
                    encoding="utf-8", newline="\n")


def _output(args, suffix: str) -> Path:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / f"{Path(args.path).stem}_{suffix}"


def _write(args, scene, results: list, diagnostics: dict, tables: dict) -> None:
    """Write the report envelope of any command as JSON (unless ``--format
    csv``) and each of its ``tables`` as CSV, named by its key (unless
    ``--format json``); print each path."""
    for table in tables.values():
        table.keep_csv = args.format == "both"
    if args.format != "csv":
        report = {"schema_version": SCHEMA_VERSION, "version": __version__,
                  "scene": scene, "results": results, "diagnostics": diagnostics}
        path = _output(args, "report.json")
        path.write_text(format_json(report) + "\n", encoding="utf-8", newline="\n")
        print(path)
    if args.format != "json":
        for name, table in tables.items():
            path = _output(args, f"{name}.csv")
            write_csv(path, table)
            print(path)


# ---------------------------------------------------------------------------
# input files and the parameter table
# ---------------------------------------------------------------------------

def _nesting(obj) -> int:
    depth, level = 0, [obj]
    while level:
        depth += 1
        level = [x for o in level if isinstance(o, (dict, list))
                 for x in (o.values() if isinstance(o, dict) else o)]
    return depth


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"top level of {path} must be an object")
    if _nesting(data) > MAX_JSON_DEPTH:
        raise ValidationError(f"{path} is nested deeper than {MAX_JSON_DEPTH} levels")
    version = data.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"schema_version {version} unsupported "
                              f"(expected {SCHEMA_VERSION})")
    return data


# The maps parsed in this run by (sources, variables, constants): a request
# that names an expression again reuses its map and the programs compiled for
# it.  ``main`` empties it when the run ends.
_PARSED: dict = {}


def _parse(source, variables, constants: dict) -> ExprMap:
    key = (source if isinstance(source, str) else tuple(source), tuple(variables),
           tuple(sorted(constants.items())))
    emap = _PARSED.get(key)
    if emap is None:
        try:
            emap = _PARSED[key] = parse(source, variables, constants)
        except ValueError as exc:  # a ParseError, or a name that is both variable and constant
            raise ValidationError(f"expression error: {exc}") from exc
    return emap


# What a scene fixes for its requests' parameters; and a parameter kind: what a
# valid value is, and ``convert(value, context)``, its plain value or None.
_Context = NamedTuple("_Context", [("arity", int), ("grid", int), ("domain", list)])
Kind = NamedTuple("Kind", [("text", str), ("convert", Callable)])


def _array(v, shape: tuple):
    """Nested lists of finite numbers of this shape (``()``: a number), or None."""
    if shape:
        if not isinstance(v, list) or len(v) != shape[0]:
            return None
        items = [_array(x, shape[1:]) for x in v]
        return None if None in items else items
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        return None
    return x if math.isfinite(x) else None


def _numbers(text: str, shape=(), test=None, out=None) -> Kind:
    """A kind of numbers of one shape (None: one per scene variable)."""
    def convert(v, ctx):
        x = _array(v, (ctx.arity,) if shape is None else shape)
        if x is None or test is not None and not test(x):
            return None
        return x if out is None else out(x)
    return Kind(text, convert)


def _count(limit: int) -> Kind:
    return _numbers(f"an integer from 1 to {limit}", (),
                    lambda x: x.is_integer() and 1 <= x <= limit, int)


def _list_of(convert: Callable) -> Callable:
    def convert_all(v, ctx):
        items = [convert(x, ctx) for x in v] if isinstance(v, list) else [None]
        return None if None in items else items
    return convert_all


def _constants(v, ctx):
    numbers = _list_of(NUMBER.convert)(list(v.values()), ctx) if isinstance(v, dict) else None
    return None if numbers is None else dict(zip(v, numbers))


def _enum(*choices: str) -> Kind:
    return Kind("one of " + ", ".join(choices), lambda v, ctx: v if v in choices else None)


NUMBER = _numbers("a finite number")
POSITIVE = _numbers("a positive number", (), lambda x: x > 0.0)
COUNT = _count(MAX_SAMPLES)
RANGE = _numbers("[lo, hi] with lo < hi", (2,), lambda x: x[0] < x[1])
POINT = _numbers("one finite number per variable", None)
VECTOR = _numbers("3 finite numbers", (3,))
DIRECTION = _numbers("3 finite numbers, not all zero", (3,), any)
MATRIX = _numbers("a 3x3 array of finite numbers", (3, 3), out=np.array)
TENSOR = _numbers("a 3x3x3x3 array of finite numbers", (3, 3, 3, 3), out=np.array)
EXPRESSION = Kind("an expression string", lambda v, ctx: v if isinstance(v, str) else None)
STRINGS = Kind("a list of strings", _list_of(EXPRESSION.convert))
CONSTANTS = Kind("an object of finite numbers", _constants)
DOMAIN = Kind("a list of [lo, hi] pairs with lo < hi", _list_of(RANGE.convert))
REQUESTS = Kind("a list of objects with 'op'", _list_of(lambda r, ctx: (
    r["op"], r.get("params", {})) if isinstance(r, dict) and "op" in r else None))

_SAMPLES = (("samples", COUNT, lambda ctx: ctx.grid),)
_MATRIX = (("matrix", MATRIX),)
_T = (("t", NUMBER),)

# (name, kind) of every required and (name, kind, default) of every optional
# parameter of every operation, by group.  A callable default is computed
# from the scene's _Context.
PARAMS = {
    "scene": {"analyze": (
        ("kind", _enum("curve", "surface", "coordmap")), ("components", STRINGS),
        ("variables", STRINGS), ("constants", CONSTANTS, {}), ("domain", DOMAIN),
        ("requests", REQUESTS))},
    "curve": {
        "frenet": _SAMPLES, "evolute": _SAMPLES, "osculating": _T, "canonical": _T,
        "arc_length": (("t0", NUMBER, lambda ctx: ctx.domain[0][0]),
                       ("t1", NUMBER, lambda ctx: ctx.domain[0][1]))},
    "surface": {
        "gauss_curvature": _SAMPLES, "curvatures": _SAMPLES, "egregium": _SAMPLES,
        "jet": (("u", NUMBER), ("v", NUMBER)),
        "area": (("u_range", RANGE, None), ("v_range", RANGE, None),
                 ("order", _count(MAX_ORDER), 32)),
        "geodesic": (("u", NUMBER), ("v", NUMBER), ("du", NUMBER), ("dv", NUMBER),
                     ("s_max", POSITIVE, 1.0), ("step", POSITIVE, 1e-3), ("samples", COUNT, 200))},
    "coordmap": {
        "metric": (("z", POINT),),
        "christoffel": (("z", POINT), ("method", _enum(
            "second_derivative", "metric_derivative"), "second_derivative")),
        "laplacian": (("z", POINT), ("field", EXPRESSION))},
    "tensor": {
        "polar": _MATRIX, "eigen": _MATRIX, "invariants": _MATRIX,
        "axis_angle": _MATRIX, "kelvin_rotation": _MATRIX,
        "kelvin": (("tensor", TENSOR),),
        "isotropic": (("lam", NUMBER, 0.0), ("mu", NUMBER, 0.0)),
        "rotation": (("kind", _enum("euler", "coordinate", "physical")), ("angles", VECTOR)),
        # a rotation job that has an "axis" takes this row instead
        ("rotation", "axis"): (("axis", DIRECTION), ("angle", NUMBER))},
    "reconstruct": {"reconstruct": (
        ("curvature", EXPRESSION), ("torsion", EXPRESSION),
        ("constants", CONSTANTS, {}), ("s_range", RANGE),
        ("step", POSITIVE, 1e-3), ("p0", VECTOR, (0.0, 0.0, 0.0)),
        ("frame0", MATRIX, lambda ctx: np.eye(3)))},
}


def _steps(span: float, step: float) -> bool:
    # the integrators take round(span / step) steps
    return 0.5 < span / step <= MAX_STEPS


# Conditions that tie parameters of one operation together.
RULES = {
    "arc_length": ((lambda p: p["t0"] < p["t1"], "t0 < t1"),),
    "geodesic": ((lambda p: p["du"] != 0.0 or p["dv"] != 0.0, "du and dv not both zero"),
                 (lambda p: _steps(p["s_max"], p["step"]),
                  f"s_max / step between 0.5 and {MAX_STEPS}")),
    "reconstruct": ((lambda p: _steps(p["s_range"][1] - p["s_range"][0], p["step"]),
                     f"(s_range length) / step between 0.5 and {MAX_STEPS}"),),
}


def _validate(group: str, op, params, where: str, ctx: _Context | None = None) -> dict:
    """Check a request against its rows of PARAMS and RULES; return its plain values."""
    spec = PARAMS[group].get(op) if isinstance(op, (str, tuple)) else None
    if spec is None:
        raise ValidationError(f"unknown {group} operation {op!r}")
    if not isinstance(params, dict):
        raise ValidationError(f"field '{where}' must be an object")
    out = {}
    for name, kind, *default in spec:
        path = f"{where}.{name}" if where else name
        if name in params:
            out[name] = kind.convert(params[name], ctx)
            if out[name] is None:
                raise ValidationError(f"field '{path}' must be {kind.text}")
        elif default:
            out[name] = default[0](ctx) if callable(default[0]) else default[0]
        else:
            raise ValidationError(f"missing field '{path}'")
    for holds, text in RULES.get(op, ()):
        if not holds(out):
            raise ValidationError(f"request {op!r} needs {text}")
    return out


# ---------------------------------------------------------------------------
# request handlers
# ---------------------------------------------------------------------------

def _grid(lo: float, hi: float, n: int, interior: bool = False) -> np.ndarray:
    return np.linspace(lo, hi, n + 2)[1:-1] if interior else np.linspace(lo, hi, n)


def _table(columns: list[str], points: list, row: Callable, skipped: list) -> dict:
    """One row per point, but a point where the numerics fail is recorded instead.

    ``row`` takes a point's coordinates, or arrays of them over a chunk of
    points, whose columns it then returns.  A point the chunk marks (a
    non-finite number in its row) is run again alone (``_chunked``), so its
    row or its failure is exactly what the single point gives; a row of that
    point that still holds a non-finite number fails, naming its column."""
    def checked(*point):
        if np.ndim(point[0]):  # a chunk: _chunked marks its rows of non-finite numbers
            return row(*point)
        with np.errstate(all="ignore"):  # a point run again alone is checked here
            values = row(*point)
        for name, x in zip(columns, values):
            if type(x) is not str and not math.isfinite(x):
                where = ", ".join(f"{c} = {z:g}" for c, z in zip(columns, point))
                raise DomainError(f"non-finite {name} = {float(x)} at {where}")
        return values

    rows = []
    for point, values in zip(points, _chunked(checked, *zip(*points))):
        if isinstance(values, ArithmeticError):
            # the record names the point, so a DomainError's message need not
            error = values.detail if isinstance(values, DomainError) else str(values)
            skipped.append({"point": list(point), "error": error})
        else:
            rows.append(values)
    return {"table": Table(columns, rows)}


def _finite_result(result: dict) -> dict:
    """A request's result, if every number outside its table is finite; else
    DomainError names the first key, in report order, that holds one that is
    not.  (``_table`` checks the rows of a grid table.)"""
    for key in sorted(result):
        value = result[key]
        if isinstance(value, np.ndarray):
            finite = np.isfinite(value).all()
        elif isinstance(value, (float, np.floating)):
            finite = math.isfinite(value)
        else:  # a string, a flag, a table or None
            continue
        if not finite:
            x = np.ravel(value)
            raise DomainError(f"non-finite {key} = {x[~np.isfinite(x)][0]}")
    return result


def _run_curve_request(cv: curve.Curve, op: str, p: dict, skipped: list):
    if op in ("frenet", "evolute"):
        ts = list(zip(_grid(*cv.domain, p["samples"])))
        # a chunk's vectors are rows of (n, 3) arrays, so .T unpacks their columns
        if op == "frenet":
            def frenet_row(t):
                d = curve.frenet(cv, t)
                return [t, *d.point.T, d.curvature, d.torsion]
            return _table(["t", "x1", "x2", "x3", "c", "theta"], ts, frenet_row, skipped)
        if not cv.is_planar:  # a property of the whole curve, not of a point
            raise curve.NotPlanarCurve("the evolute is defined for plane curves only")
        return _table(["t", "q1", "q2", "q3"], ts,
                      lambda t: [t, *curve.evolute(cv, t).T], skipped)
    if op == "arc_length":
        return {"length": curve.arc_length(cv, p["t0"], p["t1"])}
    if op == "osculating":
        cc, cr, sc, sr = curve.osculating(cv, p["t"])
        sphere = {} if sc is None else {"sphere_center": sc, "sphere_radius": sr}
        return {"circle_center": cc, "circle_radius": cr, **sphere}
    c0, c0p, th0 = curve.canonical_coefficients(cv, p["t"])
    return {"c0": c0, "c0_prime": c0p, "theta0": th0}


def _run_surface_request(sf: surface.Surface, op: str, p: dict, skipped: list):
    (u0, u1), (v0, v1) = sf.domain
    columns = {"gauss_curvature": ["u", "v", "K"],
               "curvatures": ["u", "v", "K", "H", "k1", "k2", "class"],
               "egregium": ["u", "v", "K_intrinsic", "K_shape", "abs_diff"]}.get(op)
    if columns:
        def row(u, v):
            jd = surface.jet_at(sf, u, v)
            if op == "gauss_curvature":
                return [u, v, jd.gaussian]
            if op == "curvatures":
                return [u, v, jd.gaussian, jd.mean, jd.k1, jd.k2, surface.classify_point(jd)]
            ki = surface.egregium_curvature(sf, u, v)
            return [u, v, ki, jd.gaussian, abs(ki - jd.gaussian)]
        n = p["samples"]
        points = [(u, v) for u in _grid(u0, u1, n, interior=True)
                  for v in _grid(v0, v1, n, interior=True)]
        return _table(columns, points, row, skipped)
    if op == "jet":
        jd = surface.jet_at(sf, p["u"], p["v"])
        return {"point": jd.point, "normal": jd.normal, "first_form": jd.first_form,
                "second_form": jd.second_form, "weingarten": jd.weingarten,
                "k1": jd.k1, "k2": jd.k2, "gaussian": jd.gaussian, "mean": jd.mean,
                "class": surface.classify_point(jd), "umbilical": jd.umbilical}
    if op == "area":
        return {"area": surface.surface_area(sf, p["u_range"], p["v_range"], order=p["order"])}
    state = surface.GeodesicState(p["u"], p["v"], p["du"], p["dv"])
    traj = surface.geodesic_integrate(sf, state, p["s_max"], p["step"])
    stride = max(1, len(traj) // max(p["samples"], 2))
    rows = [[traj.s[i], traj.u[i], traj.v[i], traj.du[i], traj.dv[i],
             *sf.point(traj.u[i], traj.v[i])] for i in range(0, len(traj), stride)]
    return {"table": Table(["s", "u", "v", "du", "dv", "x1", "x2", "x3"], rows)}


def _run_coordmap_request(chart: coords.CoordMap, op: str, p: dict, skipped: list):
    if op == "metric":
        met = coords.metric_at(chart, p["z"])
        return {"covariant": met.cov, "contravariant": met.con, "jacobian": met.jacobian}
    if op == "christoffel":
        return {"christoffel": coords.christoffel(chart, p["z"], p["method"]),
                "method": p["method"]}
    field = _parse(p["field"], chart.map.variables, dict(chart.map.constants))
    return {"laplacian": coords.laplacian_curvilinear(field, chart, p["z"])}


# (variables, components) each scene kind needs, and what it builds from them
_SCENE_KINDS = {
    "curve": (lambda n, m: n == 1 and m in (2, 3), "2 or 3 components of 1 variable",
              lambda emap, dom: curve.Curve(emap, dom[0]), _run_curve_request),
    "surface": (lambda n, m: n == 2 and m == 3, "3 components of 2 variables",
                surface.surface_from_expr, _run_surface_request),
    "coordmap": (lambda n, m: n == m >= 1, "as many components as variables",
                 coords.CoordMap, _run_coordmap_request),
}


def cmd_analyze(args) -> int:
    scene = _load_json(args.path)
    s = _validate("scene", "analyze", scene, "")
    kind = s["kind"]
    emap = _parse(s["components"], s["variables"], s["constants"])
    shape_ok, shape, build, run = _SCENE_KINDS[kind]
    if not shape_ok(emap.arity, emap.dimension) or len(s["domain"]) != emap.arity:
        raise ValidationError(f"{kind} scenes need {shape}, and one domain pair per variable")
    ctx = _Context(emap.arity, args.grid, s["domain"])
    requests = [(op, _validate(kind, op, params, f"requests[{i}].params", ctx))
                for i, (op, params) in enumerate(s["requests"])]

    obj = build(emap, s["domain"])
    results, skipped = [], []
    diagnostics = {"tolerances": {"grid": args.grid}, "skipped": skipped}
    failure = None
    for op, p in requests:
        try:
            with np.errstate(all="ignore"):  # a non-finite number is named when the request ends
                result = run(obj, op, p, skipped)
            results.append({"op": op, "result": _finite_result(result)})
        except ArithmeticError as exc:  # report what ran before the failing request
            diagnostics["failure"] = {"request": op, "error": str(exc)}
            failure = f"numerical failure in request {op!r}: {exc}"
            break
    _write(args, scene, results, diagnostics,
           {f"{entry['op']}_{i}": entry["result"]["table"]
            for i, entry in enumerate(results) if "table" in entry["result"]})
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    job = _load_json(args.path)
    p = _validate("reconstruct", "reconstruct", job, "")
    c_map, t_map = (_parse(p[k], ["s"], p["constants"]) for k in ("curvature", "torsion"))
    profile = curve.CurvatureProfile.build(c_map, t_map, p["s_range"])
    res = curve.bonnet_reconstruct(profile, p["p0"], p["frame0"], p["step"])
    stride = max(1, len(res.s) // 2000)
    rows = [[res.s[i], *res.points[i], *res.tangents[i], *res.normals[i],
             *res.binormals[i]] for i in range(0, len(res.s), stride)]
    table = Table(["s", "x1", "x2", "x3", "t1", "t2", "t3", "n1", "n2", "n3",
                   "b1", "b2", "b3"], rows)
    _write(args, job, [{"op": "reconstruct", "result": {"table": table}}],
           {"step": p["step"], "samples": len(rows)}, {"curve": table})
    return EXIT_OK


def cmd_tensor(args) -> int:
    job = _load_json(args.path)
    op = job.get("op")
    p = _validate("tensor", ("rotation", "axis") if op == "rotation" and "axis" in job else op,
                  job, "")
    # format_json writes arrays as lists, so results hold the arrays themselves
    if op in ("polar", "eigen", "axis_angle"):  # their fields are the report keys
        result = vars({"polar": tensor2.polar, "eigen": tensor2.eigen_sym,
                       "axis_angle": tensor2.rotation_to_axis_angle}[op](p["matrix"]))
    elif op == "invariants":
        d, (i1, i2, i3), inv, adj = tensor2.determinant_suite(p["matrix"])
        result = {"det": d, "I1": i1, "I2": i2, "I3": i3, "inverse": inv, "adjugate": adj}
    elif op == "rotation" and "axis" in p:
        result = {"matrix": tensor2.rotation_from_axis_angle(tensor2.normalize(p["axis"]),
                                                             p["angle"])}
    elif op == "rotation":
        result = {"matrix": tensor2.rotation_composed(p["kind"], p["angles"])}
    elif op == "kelvin_rotation":
        result = {"kelvin": tensor4.kelvin_rotation(p["matrix"])}
    else:
        LL = p["tensor"] if op == "kelvin" else tensor4.isotropic(p["lam"], p["mu"])
        result = {"kelvin": tensor4.to_kelvin(LL)}
    _write(args, job, [{"op": op, "result": result}], {}, {})
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariant battery
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    rng = np.random.default_rng(20211105)
    checks = []

    def add(name, residual, tol):
        checks.append((name, float(residual), tol, residual < tol))

    A, B = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    u, v, w = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    add("transpose of a product", tensor2.tensor_norm((A @ B).T - B.T @ A.T), 1e-12)
    add("dyad transpose", tensor2.tensor_norm(tensor2.dyad(u, v).T - tensor2.dyad(v, u)),
        1e-12)
    add("spherical/deviatoric orthogonality",
        abs(tensor2.inner(tensor2.spherical_part(A), tensor2.deviatoric_part(B))), 1e-12)
    i1, i2, i3 = tensor2.principal_invariants(A)
    ch = A @ A @ A - i1 * (A @ A) + i2 * A - i3 * np.eye(3)
    add("Cayley-Hamilton", tensor2.tensor_norm(ch) / tensor2.tensor_norm(A) ** 3, 1e-12)
    add("mixed product vs determinant",
        abs(tensor2.mixed(u, v, w) - np.linalg.det(np.array([u, v, w]))), 1e-12)
    R = tensor2.random_rotation(rng)
    add("rotation orthogonality", tensor2.tensor_norm(R @ R.T - np.eye(3)), 1e-12)
    F = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    if tensor2.det(F) > 0.1:
        dec = tensor2.polar(F)
        add("polar reconstruction",
            tensor2.tensor_norm(F - dec.rotation @ dec.right_stretch)
            / tensor2.tensor_norm(F), 1e-10)
    sph, dev, *_ = tensor4.projectors()
    add("spherical projector norm", abs(tensor4.inner4(sph, sph) - 1.0), 1e-14)
    add("deviatoric projector norm", abs(tensor4.inner4(dev, dev) - 5.0), 1e-14)
    add("projector orthogonality", abs(tensor4.inner4(sph, dev)), 1e-14)

    helix = curve.Curve(parse(["2*cos(t)", "2*sin(t)", "t"], ["t"]), (0.0, 12.0))
    d = curve.frenet(helix, 1.0)
    add("helix curvature", abs(d.curvature - 0.4), 1e-12)
    add("helix torsion", abs(d.torsion + 0.2), 1e-12)

    sph_surf = surface.surface_from_expr(
        ["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"], ((-1.4, 1.4), (-3.1, 3.1)))
    jd = surface.jet_at(sph_surf, 0.3, 0.7)
    add("unit sphere curvature", abs(jd.gaussian - 1.0), 1e-10)
    add("intrinsic vs shape curvature",
        abs(surface.egregium_curvature(sph_surf, 0.3, 0.7) - jd.gaussian), 1e-10)

    pm = coords.polar_map()
    g1 = coords.christoffel(pm, (2.0, 0.5), "second_derivative")
    g2 = coords.christoffel(pm, (2.0, 0.5), "metric_derivative")
    add("connection cross-check", np.max(np.abs(g1 - g2)), 1e-10)

    width = max(len(name) for name, *_ in checks)
    all_ok = True
    for name, residual, tol, ok in checks:
        all_ok &= ok
        print(f"{name:<{width}}  {residual:12.3e}  (tol {tol:g})  "
              f"{'PASS' if ok else 'FAIL'}")
    print(f"\n{'ALL CHECKS PASSED' if all_ok else 'SOME CHECKS FAILED'}")
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _grid_arg(text: str) -> int:
    n = COUNT.convert(int(text), None)  # a non-integer raises ValueError: argparse reports it
    if n is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not {COUNT.text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tensorgeom",
                                description="Analyze expression-defined curves, "
                                            "surfaces and coordinate maps.")
    # The options go before the command or after it.  After it they have no
    # default, which would replace a value given before it.
    after = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for flag, default, kw in (("--grid", 64, {"type": _grid_arg, "help": "samples per axis"}),
                              ("--out", ".", {"help": "output directory"}),
                              ("--format", "json", {"choices": ("json", "csv", "both")})):
        p.add_argument(flag, default=default, **kw)
        after.add_argument(flag, **kw)
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, path, text in (
            ("analyze", cmd_analyze, "scene", "run a scene file"),
            ("reconstruct", cmd_reconstruct, "profile", "rebuild a curve from curvature/torsion"),
            ("tensor", cmd_tensor, "job", "one-shot tensor computation"),
            ("check", cmd_check, None, "run the invariant battery")):
        sp = sub.add_parser(name, help=text, parents=[after])
        if path:
            sp.add_argument("path", metavar=path)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage (exit 2) or help (exit 0)
        return exc.code
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # inputs are read in _load_json, so this is the output
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        _PARSED.clear()


if __name__ == "__main__":
    sys.exit(main())
