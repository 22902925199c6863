"""Command-line interface tests."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tensorgeom
from tensorgeom import cli, coords, expr
from tensorgeom.expr import CHUNK, DomainError


def run(argv):
    return cli.main([str(a) for a in argv])


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


HELIX_SCENE = {
    "kind": "curve",
    "components": ["a*cos(t)", "a*sin(t)", "b*t"],
    "variables": ["t"],
    "constants": {"a": 2.0, "b": 1.0},
    "domain": [[0.0, 12.0]],
    "requests": [{"op": "frenet", "params": {"samples": 16}}],
}


def test_helix_frenet_csv(tmp_path):
    scene = _write(tmp_path, "helix.json", HELIX_SCENE)
    assert run(["--out", tmp_path, "--format", "both", "analyze", scene]) == 0
    csv_path = tmp_path / "helix_frenet_0.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,x3,c,theta"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows.shape == (16, 6)
    assert np.max(np.abs(rows[:, 4] - 0.4)) < 1e-12   # constant curvature column
    assert np.max(np.abs(rows[:, 5] + 0.2)) < 1e-12   # constant torsion column


def test_pseudosphere_curvature_grid(tmp_path):
    scene = _write(tmp_path, "ps.json", {
        "kind": "surface",
        "components": ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)+ln(tan(u/2))"],
        "variables": ["u", "v"],
        "domain": [[0.3, 1.4], [-3.0, 3.0]],
        "requests": [{"op": "gauss_curvature", "params": {"samples": 8}}],
    })
    assert run(["--out", tmp_path, "analyze", scene]) == 0
    report = json.loads((tmp_path / "ps_report.json").read_text())
    rows = report["results"][0]["result"]["table"]["rows"]
    assert len(rows) == 64
    for row in rows:
        assert abs(row[2] + 1.0) < 1e-6


def test_malformed_expression_is_validation_error(tmp_path, capsys):
    scene = _write(tmp_path, "bad.json", {
        "kind": "curve",
        "components": ["cos(t,"],
        "variables": ["t"],
        "domain": [[0.0, 1.0]],
        "requests": [],
    })
    assert run(["--out", tmp_path, "analyze", scene]) == 2
    err = capsys.readouterr().err
    assert "offset 6" in err


def test_schema_version_mismatch(tmp_path):
    scene = dict(HELIX_SCENE)
    scene["schema_version"] = 99
    path = _write(tmp_path, "vers.json", scene)
    assert run(["--out", tmp_path, "analyze", path]) == 2


def test_invalid_domain_rejected(tmp_path):
    scene = dict(HELIX_SCENE)
    scene["domain"] = [[2.0, 1.0]]
    path = _write(tmp_path, "dom.json", scene)
    assert run(["--out", tmp_path, "analyze", path]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    scene = _write(tmp_path, "geo.json", {
        "kind": "surface",
        "components": ["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
        "variables": ["u", "v"],
        "domain": [[-1.0, 1.0], [-1.0, 1.0]],
        "requests": [{"op": "geodesic",
                      "params": {"u": 0.0, "v": 0.0, "du": 0.0, "dv": 1.0,
                                 "s_max": 10.0, "step": 0.01}}],
    })
    assert run(["--out", tmp_path, "analyze", scene]) == 3
    report = json.loads((tmp_path / "geo_report.json").read_text())
    assert "failure" in report["diagnostics"]


def test_report_is_deterministic(tmp_path):
    scene = _write(tmp_path, "helix.json", HELIX_SCENE)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run(["--out", out1, "analyze", scene]) == 0
    assert run(["--out", out2, "analyze", scene]) == 0
    b1 = (out1 / "helix_report.json").read_bytes()
    b2 = (out2 / "helix_report.json").read_bytes()
    assert b1 == b2
    # and it is loadable JSON with the scene echoed
    report = json.loads(b1)
    assert report["scene"]["constants"] == {"a": 2.0, "b": 1.0}
    assert report["schema_version"] == 1


def test_coordmap_requests(tmp_path):
    scene = _write(tmp_path, "polar.json", {
        "kind": "coordmap",
        "components": ["r*cos(t)", "r*sin(t)"],
        "variables": ["r", "t"],
        "domain": [[0.1, 5.0], [-3.1, 3.1]],
        "requests": [
            {"op": "metric", "params": {"z": [2.0, 0.5]}},
            {"op": "christoffel", "params": {"z": [2.0, 0.5]}},
        ],
    })
    assert run(["--out", tmp_path, "analyze", scene]) == 0
    report = json.loads((tmp_path / "polar_report.json").read_text())
    cov = report["results"][0]["result"]["covariant"]
    assert abs(cov[1][1] - 4.0) < 1e-12
    gamma = report["results"][1]["result"]["christoffel"]
    assert abs(gamma[0][1][1] + 2.0) < 1e-10


def test_a_run_parses_each_distinct_expression_once(tmp_path, monkeypatch):
    parsed = []
    parse = expr.parse
    monkeypatch.setattr(expr, "parse", lambda *args: parsed.append(args[0]) or parse(*args))
    laplacian = [{"op": "laplacian", "params": {"z": [1.0 + k / 4, 0.5], "field": f}}
                 for k in range(3) for f in ("r^2", "t")]
    scene = _write(tmp_path, "polar.json", {
        "kind": "coordmap", "components": ["r*cos(t)", "r*sin(t)"], "variables": ["r", "t"],
        "domain": [[0.1, 5.0], [-3.1, 3.1]], "requests": laplacian})
    for _ in range(2):  # the second run parses again: nothing is kept between runs
        parsed.clear()
        assert run(["--out", tmp_path, "analyze", scene]) == 0
        assert parsed == [["r*cos(t)", "r*sin(t)"], "r^2", "t"]
        assert cli._PARSED == {}
    report = json.loads((tmp_path / "polar_report.json").read_text())
    assert [r["result"]["laplacian"] for r in report["results"]] == \
        pytest.approx([4.0, 0.0] * 3, abs=1e-12)
    # an expression that fails to parse is not kept: each attempt raises
    parsed.clear()
    with pytest.raises(cli.ValidationError, match="expression error"):
        cli._parse("r*(", ["r", "t"], {})
    with pytest.raises(cli.ValidationError, match="expression error"):
        cli._parse("r*(", ["r", "t"], {})
    assert parsed == ["r*(", "r*("] and cli._PARSED == {}


def test_tensor_job_polar(tmp_path):
    job = _write(tmp_path, "job.json", {
        "op": "polar",
        "matrix": [[2.0, 0.1, 0.0], [0.0, 3.0, 0.2], [0.1, 0.0, 4.0]],
    })
    assert run(["--out", tmp_path, "tensor", job]) == 0
    report = json.loads((tmp_path / "job_report.json").read_text())
    R = np.array(report["results"][0]["result"]["rotation"])
    U = np.array(report["results"][0]["result"]["right_stretch"])
    F = np.array([[2.0, 0.1, 0.0], [0.0, 3.0, 0.2], [0.1, 0.0, 4.0]])
    assert np.max(np.abs(R @ U - F)) < 1e-10


def test_tensor_job_failure(tmp_path):
    job = _write(tmp_path, "flip.json", {
        "op": "polar",
        "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    })
    assert run(["--out", tmp_path, "tensor", job]) == 3


def test_reconstruct_helix_profile(tmp_path):
    job = _write(tmp_path, "profile.json", {
        "curvature": "0.4+0*s",
        "torsion": "-0.2+0*s",
        "s_range": [0.0, 2.0],
        "step": 0.001,
        "p0": [2.0, 0.0, 0.0],
    })
    assert run(["--out", tmp_path, "--format", "csv", "reconstruct", job]) == 0
    lines = (tmp_path / "profile_curve.csv").read_text().strip().splitlines()
    assert lines[0].startswith("s,x1,x2,x3")
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(2.0, abs=1e-3)


def test_check_command():
    assert run(["check"]) == 0


def test_cli_imports_no_scipy():
    src = str(Path(tensorgeom.__file__).resolve().parent.parent)
    code = ("import sys, tensorgeom.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# grid tables in chunks: the bytes of a table assembled point by point
# ---------------------------------------------------------------------------

def _surface_scene(components, domain, requests, constants=None):
    return {"kind": "surface", "components": components, "variables": ["u", "v"],
            "constants": constants or {}, "domain": domain, "requests": requests}


# the last three have points that fail: |p'| below 1e-10 times the curve's
# scale (about e^40) for t below about 0.33; the cone's apex u = 0; and ln
# and sqrt of 0 at u = -0.5 and v = 0 (interior grid lines for 15 samples)
GRID_SCENES = {
    "curvatures": _surface_scene(
        ["a*cos(v)/cosh(u)", "a*sin(v)/cosh(u)", "a*(u - tanh(u))"],
        [[0.2, 1.7], [-1.0, 1.0]], [{"op": "curvatures", "params": {"samples": 40}}],
        {"a": 1.3}),
    "egregium_area": _surface_scene(
        ["(R + r*cos(u))*cos(v)", "(R + r*cos(u))*sin(v)", "r*sin(u)"],
        [[0.1, 6.4], [0.2, 6.5]], [{"op": "egregium", "params": {"samples": 24}},
                                   {"op": "gauss_curvature", "params": {"samples": 9}},
                                   {"op": "area", "params": {"order": 24}}],
        {"R": 2.5, "r": 0.8}),
    "frenet_arc_length": dict(HELIX_SCENE, requests=[
        {"op": "frenet", "params": {"samples": 1500}}, {"op": "arc_length", "params": {}}]),
    "evolute": {"kind": "curve", "components": ["2*cos(t)", "0.7*sin(t)"], "variables": ["t"],
                "domain": [[0.4, 6.7]],
                "requests": [{"op": "evolute", "params": {"samples": 700}}]},
    "frenet_below_scale": {"kind": "curve", "components": ["t", "exp(40*t)", "0"],
                           "variables": ["t"], "domain": [[-1.0, 1.0]],
                           "requests": [{"op": "frenet", "params": {"samples": 41}}]},
    "cone_apex": _surface_scene(["u*cos(v)", "u*sin(v)", "1.5*u"], [[-1.0, 1.0], [-2.0, 1.0]],
                                [{"op": "curvatures", "params": {"samples": 33}}]),
    "ln_sqrt_of_0": _surface_scene(["u", "v", "ln(u + 0.5)*v + sqrt(v)"],
                                   [[-1.5, 0.5], [-1.0, 1.0]],
                                   [{"op": "curvatures", "params": {"samples": 15}},
                                    {"op": "egregium", "params": {"samples": 15}}]),
}


def _point_by_point_table(columns, points, row, skipped):
    """The reference: every row from the single-point (float) path."""
    rows = []
    for point in points:
        try:
            rows.append(row(*point))
        except ArithmeticError as exc:
            error = exc.detail if isinstance(exc, DomainError) else str(exc)
            skipped.append({"point": list(point), "error": error})
    return {"table": cli.Table(columns, rows)}


def _outputs(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(GRID_SCENES))
def test_chunked_tables_equal_point_by_point(name, tmp_path, monkeypatch, capsys):
    scene = _write(tmp_path, f"{name}.json", GRID_SCENES[name])
    assert run(["--out", tmp_path / "chunks", "--format", "both", "analyze", scene]) == 0
    monkeypatch.setattr(cli, "_table", _point_by_point_table)
    assert run(["--out", tmp_path / "points", "--format", "both", "analyze", scene]) == 0
    chunks, points = _outputs(tmp_path / "chunks"), _outputs(tmp_path / "points")
    assert len(chunks) > 1 and chunks == points
    skipped = json.loads(chunks[f"{name}_report.json"])["diagnostics"]["skipped"]
    assert bool(skipped) == (name in ("frenet_below_scale", "cone_apex", "ln_sqrt_of_0"))


def test_a_grid_evaluates_its_expressions_once_per_chunk(tmp_path, monkeypatch, capsys):
    calls = []
    run_program = expr.ExprMap._run

    def counted(self, key, point):  # the jets and derivative rows, not the values
        if key != 0:
            calls.append(point)
        return run_program(self, key, point)

    monkeypatch.setattr(expr.ExprMap, "_run", counted)
    scene = _write(tmp_path, "ps.json", dict(GRID_SCENES["curvatures"], requests=[
        {"op": "curvatures", "params": {"samples": 64}}]))
    assert run(["--out", tmp_path, "analyze", scene]) == 0
    assert len(calls) == math.ceil(64 * 64 / CHUNK)


# ---------------------------------------------------------------------------
# chart requests in batches: the bytes of a scene run request by request
# ---------------------------------------------------------------------------

SPHERICAL = (["r*sin(p)*cos(t)", "r*sin(p)*sin(t)", "r*cos(p)"], ["r", "p", "t"])
SKEW = (["q1 + ga*sin(q2)", "q2 + gb*sin(q3)", "q3 + gc*sin(q1)"], ["q1", "q2", "q3"])
POLAR = (["r*cos(t)", "r*sin(t)"], ["r", "t"])


def _chart_scene(chart, points, constants, field, bad=None, shuffle=False):
    """A coordmap scene with the four requests of the benchmark's chart scenes
    at each point; ``bad`` (index, request) puts a request in their midst;
    ``shuffle`` mixes the requests' order."""
    (components, variables), rng = chart, random.Random(len(points))
    requests = [r for z in points for r in (
        {"op": "metric", "params": {"z": z}},
        {"op": "christoffel", "params": {"z": z, "method": "second_derivative"}},
        {"op": "christoffel", "params": {"z": z, "method": "metric_derivative"}},
        {"op": "laplacian", "params": {"z": z, "field": field}})]
    if shuffle:
        rng.shuffle(requests)
    if bad is not None:
        requests.insert(*bad)
    return {"kind": "coordmap", "components": components, "variables": variables,
            "constants": constants, "domain": [[-1e300, 1e300]] * len(variables),
            "requests": requests}


def _points(n, box, seed=0):
    rng = random.Random(seed)
    return [[round(rng.uniform(lo, hi), 12) for lo, hi in box] for _ in range(n)]


def _spherical(seed, components=SPHERICAL[0], n=40, **kw):
    """n points of the spherical chart, with a field whose Laplacian is not 0."""
    box = [(0.5, 3.0), (0.3, 2.8), (-3.0, 3.0)]
    return _chart_scene((components, SPHERICAL[1]), _points(n, box, seed),
                        {"fa": 0.7, "fb": -0.4, "fe": 0.3},
                        "fa*(r*sin(p)*cos(t))^2 + fb*(r*cos(p))^2 + exp(fe*r*sin(p)*sin(t))", **kw)


def _polar(seed, **kw):
    return _chart_scene(POLAR, _points(30, [(0.1, 4.0), (-3.0, 3.0)], seed), {"k": 2.0},
                        "k*r^2*t", **kw)


# a spherical chart, the skew chart, polar and a 1-D chart; requests in mixed
# order; and hostile points mid-scene: poles, r = 1e200 (det J overflows) and
# a field whose Laplacian overflows (2e300 / r^2 at r = 1e-5) while its
# partials do not; and the chart scaled by 1e110, where det J overflows at
# every point but J^T J does not, so the first request fails
CHART_SCENES = {
    "spherical": _spherical(0),
    "skew": _chart_scene(SKEW, _points(40, [(-3.0, 3.0)] * 3),
                         {"ga": 0.4, "gb": 0.6, "gc": 0.3, "fa": 0.2}, "fa*(q1 + ga*sin(q2))^2"),
    "polar": _polar(0),
    "one_variable": _chart_scene((["s^3 + s"], ["s"]), _points(30, [(-2.0, 2.0)]), {}, "s^4"),
    "mixed_order": _spherical(1, shuffle=True),
    "pole": _spherical(2, bad=(77, {"op": "christoffel", "params": {"z": [1.5, 0.0, 0.4]}})),
    "origin": _spherical(3, bad=(90, {"op": "metric", "params": {"z": [0.0, 1.0, 0.4]}})),
    "r_1e200": _spherical(4, bad=(61, {"op": "metric", "params": {"z": [1e200, 1.0, 0.4]}})),
    "scaled_1e110": _spherical(5, [f"1e110*{c}" for c in SPHERICAL[0]], shuffle=True),
    "laplacian_overflow": _polar(6, bad=(55, {"op": "laplacian", "params": {
        "z": [1e-5, 0.5], "field": "1e300*t^2"}})),
}

# the failure each hostile scene stops at (exit 3), by the error's message
CHART_FAILURES = {"pole": "Jacobian determinant 0 at z=(1.5, 0.0, 0.4)",
                  "origin": "Jacobian determinant 0 at z=(0.0, 1.0, 0.4)",
                  "r_1e200": "the Jacobian determinant overflows (inf)",
                  "scaled_1e110": "the Jacobian determinant overflows (inf)",
                  "laplacian_overflow": "the Laplacian overflows (inf)"}


def _request_by_request(chart, requests, skipped):
    """The reference: each chart request alone, through the single-point path."""
    for op, p in requests:
        if op == "metric":
            met = coords.metric_at(chart, p["z"])
            yield {"covariant": met.cov, "contravariant": met.con, "jacobian": met.jacobian}
        elif op == "christoffel":
            yield {"christoffel": coords.christoffel(chart, p["z"], p["method"]),
                   "method": p["method"]}
        else:
            field = cli._parse(p["field"], chart.map.variables, dict(chart.map.constants))
            yield {"laplacian": coords.laplacian_curvilinear(field, chart, p["z"])}


@pytest.mark.parametrize("name", sorted(CHART_SCENES))
def test_chart_batches_equal_request_by_request(name, tmp_path, monkeypatch, capsys):
    scene = _write(tmp_path, f"{name}.json", CHART_SCENES[name])
    code = run(["--out", tmp_path / "batches", "--format", "both", "analyze", scene])
    err = capsys.readouterr().err
    monkeypatch.setitem(cli._SCENE_KINDS, "coordmap",
                        (*cli._SCENE_KINDS["coordmap"][:3], _request_by_request))
    assert run(["--out", tmp_path / "requests", "--format", "both", "analyze", scene]) == code
    assert capsys.readouterr().err == err
    batches, requests = _outputs(tmp_path / "batches"), _outputs(tmp_path / "requests")
    assert list(batches) == [f"{name}_report.json"] and batches == requests
    report = json.loads(batches[f"{name}_report.json"])
    if name in CHART_FAILURES:  # the requests before the failing one are reported
        failure = report["diagnostics"]["failure"]
        assert code == 3 and failure["error"] == CHART_FAILURES[name]
        assert err == f"numerical failure in request {failure['request']!r}: {failure['error']}\n"
        assert len(report["results"]) < len(CHART_SCENES[name]["requests"])
    else:
        assert code == 0 and err == ""
        assert len(report["results"]) == len(CHART_SCENES[name]["requests"])


def test_chart_batches_evaluate_each_program_once_per_batch(tmp_path, monkeypatch, capsys):
    calls = []
    run_program = expr.ExprMap._run

    def counted(self, key, point):
        calls.append(np.shape(point[0]))
        return run_program(self, key, point)

    monkeypatch.setattr(expr.ExprMap, "_run", counted)
    scene = _write(tmp_path, "sph.json", _spherical(0, n=150))
    assert run(["--out", tmp_path, "analyze", scene]) == 0
    # metric, the two christoffel methods, and the laplacian's chart and field
    assert calls == [(150,)] * 5


def test_a_jet_report_writes_the_umbilical_flag_as_a_json_boolean(tmp_path):
    flags = []
    for name, components in (("sphere", ["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"]),
                             ("torus", ["(2 + cos(u))*cos(v)", "(2 + cos(u))*sin(v)", "sin(u)"])):
        scene = _write(tmp_path, f"{name}.json", _surface_scene(
            components, [[-1.4, 1.4], [-3.1, 3.1]],
            [{"op": "jet", "params": {"u": 0.3, "v": 0.5}}]))
        assert run(["--out", tmp_path, "analyze", scene]) == 0
        report = (tmp_path / f"{name}_report.json").read_text()
        flags.append(json.loads(report)["results"][0]["result"]["umbilical"])
    assert flags == [True, False]


def _readme_command_line_section() -> str:
    text = (Path(tensorgeom.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_every_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    section = _readme_command_line_section()
    commands = [line.split("#")[0].split()
                for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()]
    assert [argv[:2] for argv in commands] == [["tensorgeom", "analyze"],
                                               ["tensorgeom", "reconstruct"],
                                               ["tensorgeom", "tensor"], ["tensorgeom", "check"]]
    # the README's scene file; a profile and a job for the files it only names
    (tmp_path / "helix.json").write_text(section.split("```json\n", 1)[1].split("```", 1)[0],
                                         encoding="utf-8")
    _write(tmp_path, "profile.json", {"curvature": "0.4", "torsion": "-0.2",
                                      "s_range": [0.0, 1.0], "step": 0.01})
    _write(tmp_path, "job.json", {"op": "polar", "matrix": [[2, 1, 0], [0, 3, 0], [0, 0, 1]]})
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    capsys.readouterr()
    assert {p.name for p in tmp_path.joinpath("results").iterdir()} == {
        "helix_report.json", "helix_frenet_0.csv"}
    assert (tmp_path / "profile_curve.csv").is_file()
    assert (tmp_path / "job_report.json").is_file()


def test_options_after_the_command_override_those_before_it(tmp_path):
    scene = _write(tmp_path, "helix.json", dict(HELIX_SCENE, requests=[{"op": "frenet"}]))
    assert run(["--out", tmp_path / "a", "--format", "csv", "analyze", scene,
                "--out", tmp_path / "b", "--grid", 5]) == 0
    assert not (tmp_path / "a").exists()
    assert [p.name for p in (tmp_path / "b").iterdir()] == ["helix_frenet_0.csv"]
    assert len((tmp_path / "b" / "helix_frenet_0.csv").read_text().splitlines()) == 6
