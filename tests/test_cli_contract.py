"""The CLI's exit-code contract: every input ends in exit 0, 2 or 3.

Exit 2 is a validation error, exit 3 a numerical failure; no input may
escape ``cli.main`` as a Python exception.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgeom import cli, curve
from tensorgeom.expr import NumericalFailure, parse
from tensorgeom.tensor2 import norm

HELIX = {
    "kind": "curve", "components": ["a*cos(t)", "a*sin(t)", "b*t"], "variables": ["t"],
    "constants": {"a": 2.0, "b": 1.0}, "domain": [[0.0, 6.0]],
    "requests": [{"op": "frenet", "params": {"samples": 3}},
                 {"op": "arc_length", "params": {"t0": 0.5, "t1": 1.0}},
                 {"op": "osculating", "params": {"t": 1.0}},
                 {"op": "canonical", "params": {"t": 1.0}}],
}
ELLIPSE = {
    "kind": "curve", "components": ["2*cos(t)", "sin(t)"], "variables": ["t"],
    "domain": [[0.0, 6.0]], "requests": [{"op": "evolute", "params": {"samples": 3}}],
}
SPHERE = {
    "kind": "surface", "components": ["cos(u)*cos(v)", "cos(u)*sin(v)", "sin(u)"],
    "variables": ["u", "v"], "domain": [[-1.0, 1.0], [-3.0, 3.0]],
    "requests": [{"op": "curvatures", "params": {"samples": 2}},
                 {"op": "egregium", "params": {"samples": 2}},
                 {"op": "jet", "params": {"u": 0.3, "v": 0.2}},
                 {"op": "area", "params": {"u_range": [0.0, 0.5], "v_range": [0.0, 0.5],
                                           "order": 4}},
                 {"op": "geodesic", "params": {"u": 0.1, "v": 0.2, "du": 1.0, "dv": 0.5,
                                               "s_max": 0.05, "step": 0.01, "samples": 3}}],
}
POLAR_CHART = {
    "kind": "coordmap", "components": ["r*cos(t)", "r*sin(t)"], "variables": ["r", "t"],
    "constants": {"k": 2.0}, "domain": [[0.1, 5.0], [-3.1, 3.1]],
    "requests": [{"op": "metric", "params": {"z": [2.0, 0.5]}},
                 {"op": "christoffel", "params": {"z": [2.0, 0.5], "method": "metric_derivative"}},
                 {"op": "laplacian", "params": {"z": [2.0, 0.5], "field": "k*r^2"}}],
}
MATRIX = [[2.0, 0.1, 0.0], [0.0, 3.0, 0.2], [0.1, 0.0, 4.0]]
PROFILE = {"curvature": "c + 0*s", "torsion": "-0.2", "constants": {"c": 0.4},
           "s_range": [0.0, 0.05], "step": 0.01, "p0": [1.0, 0.0, 0.0],
           "frame0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}

BASES = [
    ("analyze", HELIX), ("analyze", ELLIPSE), ("analyze", SPHERE), ("analyze", POLAR_CHART),
    ("tensor", {"op": "polar", "matrix": MATRIX}),
    ("tensor", {"op": "invariants", "matrix": MATRIX}),
    ("tensor", {"op": "rotation", "axis": [0.0, 0.0, 1.0], "angle": 0.3}),
    ("tensor", {"op": "rotation", "kind": "euler", "angles": [0.1, 0.2, 0.3]}),
    ("tensor", {"op": "kelvin", "tensor": [[[[1.0 if i == j and k == l else 0.0
                                              for l in range(3)] for k in range(3)]
                                            for j in range(3)] for i in range(3)]}),
    ("tensor", {"op": "isotropic", "lam": 1.0, "mu": 2.0}),
    ("reconstruct", PROFILE),
]


def _run(tmp: Path, command: str, text: str, options=()) -> int:
    path = tmp / "input.json"
    path.write_text(text, encoding="utf-8")
    return cli.main(["--out", str(tmp / "out"), *options, command, str(path)])


def _scene(base: dict, **changes) -> str:
    return json.dumps({**copy.deepcopy(base), **changes})


def _request(scene: dict, op: str, params) -> str:
    return _scene(scene, requests=[{"op": op, "params": params}])


def _geodesic(**changes) -> dict:
    return {"u": 0.1, "v": 0.2, "du": 1.0, "dv": 0.0, "s_max": 0.1, **changes}


CURVE_OF_T = dict(HELIX, requests=[])
# z = 1e300 u v: the tangent plane degenerates in double rounding, and at
# (0, 0), where it does not, the curvature is not finite
HUGE_SADDLE = dict(SPHERE, components=["u", "v", "1e300*u*v"])

# Inputs that break a parameter's kind, a rule that ties parameters together,
# the expression grammar's nesting limit, or the numerics.
HOSTILE = {
    "osculating without t": ("analyze", _request(HELIX, "osculating", {})),
    "non-numeric samples": ("analyze", _request(HELIX, "frenet", {"samples": "x"})),
    "negative samples": ("analyze", _request(HELIX, "frenet", {"samples": -3})),
    "params not an object": ("analyze", _request(HELIX, "frenet", [1])),
    "non-string component": ("analyze", _scene(HELIX, components=[1, "t", "t"])),
    "non-numeric constant": ("analyze", _scene(HELIX, constants={"a": "x", "b": 1.0})),
    "non-numeric constant under laplacian": ("analyze", _scene(
        POLAR_CHART, constants={"k": "x"},
        requests=[{"op": "laplacian", "params": {"z": [2.0, 0.5], "field": "k*r"}}])),
    "overflow": ("analyze", _scene(CURVE_OF_T, components=["t", "exp(exp(100*t))"],
                                   domain=[[0.0, 1.0]])),
    "3000-deep parentheses": ("analyze", _scene(
        CURVE_OF_T, components=["(" * 3000 + "t" + ")" * 3000, "t"])),
    "3000-term sum": ("analyze", _scene(CURVE_OF_T, components=["+".join(["t"] * 3000), "t"])),
    "geodesic step 0": ("analyze", _request(SPHERE, "geodesic", _geodesic(step=0))),
    "area order 0": ("analyze", _request(SPHERE, "area", {"order": 0})),
    "unknown christoffel method": ("analyze", _request(
        POLAR_CHART, "christoffel", {"z": [2.0, 0.5], "method": "nope"})),
    "ln(t) across 0 while the curve is built": ("analyze", _scene(
        CURVE_OF_T, components=["t", "ln(t)"], domain=[[-1.0, 1.0]])),
    "ragged matrix": ("tensor", json.dumps({"op": "polar", "matrix": [[1.0, 0.0], [0.0]]})),
    "non-numeric lam": ("tensor", json.dumps({"op": "isotropic", "lam": "x"})),
    "axis without angle": ("tensor", json.dumps({"op": "rotation", "axis": [0, 0, 1]})),
    "ln(s) across 0": ("reconstruct", _scene(PROFILE, curvature="ln(s)", s_range=[-1.0, 1.0])),
    "reconstruct step 0": ("reconstruct", _scene(PROFILE, step=0)),
    "non-numeric s_range": ("reconstruct", _scene(PROFILE, s_range=["a", "b"])),
    "constants not an object": ("reconstruct", _scene(PROFILE, constants=[1])),
    # smooth, but about a thousand oscillations: more than 200 panels
    "length integral beyond 200 panels": ("analyze", _scene(
        CURVE_OF_T, components=["t", "sin(2000*t)"], domain=[[0.0, 3.0]],
        requests=[{"op": "arc_length", "params": {}}])),
    # over 200 abs kinks, each a first panel edge, and an oscillation no panel resolves
    "abs kinks beyond 200 panels": ("analyze", _scene(
        CURVE_OF_T, components=["t", "abs(sin(70*t))+sin(1e6*t)"], domain=[[0.01, 10.0]],
        requests=[{"op": "arc_length", "params": {}}])),
    "geodesic speed underflows to 0": ("analyze", _request(
        SPHERE, "geodesic", _geodesic(du=1e-200, dv=0.0))),
    "JSON nested 100000 deep": ("tensor", '{"op": "polar", "matrix": '
                                + "[" * 100000 + "]" * 100000 + "}"),
    # |F|^3 overflows: a bare OverflowError before det / |F|^3 was taken without a power
    "polar of diag(1e120, 1, 1)": ("tensor", json.dumps(
        {"op": "polar", "matrix": [[1e120, 0, 0], [0, 1, 0], [0, 0, 1]]})),
    "polar of diag(1e300, 1, 1)": ("tensor", json.dumps(
        {"op": "polar", "matrix": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]})),
    "polar with an overflowing determinant": ("tensor", json.dumps(
        {"op": "polar", "matrix": [[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1]]})),
    # tr^2 L - tr L^2 is inf - inf: a NaN in the report before I2 was checked
    "invariants with an overflowing I2": ("tensor", json.dumps(
        {"op": "invariants", "matrix": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]})),
    # det L = 1e100, but its first product overflows
    "invariants with an overflowing determinant": ("tensor", json.dumps(
        {"op": "invariants", "matrix": [[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e-300]]})),
    # |L| overflows: the Jacobi target was inf, and the diagonal came out as the eigenvalues
    "eigen of a block of 1e154": ("tensor", json.dumps(
        {"op": "eigen", "matrix": [[1e154] * 3] * 3})),
    "eigen of a 1e200 block and 1e-300": ("tensor", json.dumps(
        {"op": "eigen", "matrix": [[1e200, 1e200, 0], [1e200, 1e200, 0], [0, 0, 1e-300]]})),
    "kelvin_rotation of diag(1e300, 1, 1)": ("tensor", json.dumps(
        {"op": "kelvin_rotation", "matrix": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]})),
    "axis_angle of diag(1e300, 1, 1)": ("tensor", json.dumps(
        {"op": "axis_angle", "matrix": [[1e300, 0, 0], [0, 1, 0], [0, 0, 1]]})),
    "chart whose Jacobian determinant overflows": ("analyze", _scene(
        POLAR_CHART, components=["1e200*z1", "1e200*z2", "1e200*z3"],
        variables=["z1", "z2", "z3"], constants={}, domain=[[-1.0, 1.0]] * 3,
        requests=[{"op": "metric", "params": {"z": [0.5, 0.5, 0.5]}}])),
    # the inverse Jacobian is 1e150 and a second derivative 2e160
    "christoffel symbol that overflows": ("analyze", _scene(
        POLAR_CHART, components=["1e-150*z1+1e160*z2^2", "1e-150*z2"], variables=["z1", "z2"],
        requests=[{"op": "christoffel", "params": {"z": [0.5, 0.0],
                                                   "method": "metric_derivative"}}])),
    "laplacian that overflows": ("analyze", _scene(
        POLAR_CHART, components=["1e-150*z1+1e160*z2^2", "1e-150*z2"], variables=["z1", "z2"],
        requests=[{"op": "laplacian", "params": {"z": [0.5, 0.0], "field": "k*z2^2"}}])),
    # 2 x 1e308 leaves the float range in the shear block of the Kelvin matrix
    "kelvin with shear entries 1e308": ("tensor", json.dumps(
        {"op": "kelvin", "tensor": [[[[1e308 if {i, j} == {k, l} == {0, 1} else 0.0
                                       for l in range(3)] for k in range(3)]
                                     for j in range(3)] for i in range(3)]})),
    "isotropic with lam = mu = 1e308": ("tensor", json.dumps(
        {"op": "isotropic", "lam": 1e308, "mu": 1e308})),
    # RK4 at step 1 turns the frame by 10 radians: far from any rotation
    "reconstruct step too coarse for its curvature": ("reconstruct", _scene(
        PROFILE, curvature="10", torsion="0", s_range=[0.0, 5.0], step=1.0)),
    # K at (0, 0) is -inf, a number no typed check of jet_at meets
    "jet of z = 1e300 u v after a grid": ("analyze", _scene(HUGE_SADDLE, requests=[
        {"op": "gauss_curvature", "params": {"samples": 3}},
        {"op": "jet", "params": {"u": 0.0, "v": 0.0}}])),
    # f_uu = 2e308 overflows, although its Taylor coefficient 1e308 does not
    "jet whose second derivative overflows": ("analyze", _scene(
        SPHERE, components=["u", "v", "1e308*u^2"],
        requests=[{"op": "jet", "params": {"u": 1e-160, "v": 0.5}}])),
    # fu . fu = 1 + (1e300 v)^2 overflows at the first RK4 stage off (0, 0)
    "geodesic whose metric overflows": ("analyze", _scene(HUGE_SADDLE, requests=[
        {"op": "geodesic", "params": {"u": 0.0, "v": 0.0, "du": 1.0, "dv": 0.5}}])),
    # det g = inf * inf - inf is NaN, which passed the det g > 0 test as not <= 0
    "area of z = 1e300 u v": ("analyze", _scene(HUGE_SADDLE, requests=[
        {"op": "area", "params": {"order": 4}}])),
    # u + v rounds just below 1: the tangent plane passes its test, det g rounds to 0
    "jet where det g rounds to 0": ("analyze", _scene(
        SPHERE, components=["atan2(exp(1), cosh(pi)-v)", "cosh(1)^cos(u/u)", "asin(u+v)"],
        domain=[[-1.0, 1.0], [-1.5, 0.5]],
        requests=[{"op": "jet", "params": {"u": 0.6666666666666666, "v": 0.33333333333333326}}])),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_exits_2_or_3(name, tmp_path, capsys):
    command, text = HOSTILE[name]
    assert _run(tmp_path, command, text) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_negative_grid_is_a_usage_error(tmp_path, capsys):
    assert _run(tmp_path, "analyze", json.dumps(HELIX), ["--grid", "-5"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_exit_code_classes(tmp_path, capsys):
    """Malformed input is exit 2, a failure of the numerics exit 3."""
    assert _run(tmp_path, "analyze", HOSTILE["osculating without t"][1]) == 2
    assert _run(tmp_path, "analyze", HOSTILE["overflow"][1]) == 3
    assert _run(tmp_path, "reconstruct", HOSTILE["ln(s) across 0"][1]) == 3
    capsys.readouterr()
    assert _run(tmp_path, "analyze", HOSTILE["length integral beyond 200 panels"][1]) == 3
    assert "[0, 3] did not converge in 200 panels" in capsys.readouterr().err
    assert _run(tmp_path, "analyze", HOSTILE["abs kinks beyond 200 panels"][1]) == 3
    assert "[0.01, 10] did not converge in 200 panels" in capsys.readouterr().err
    assert _run(tmp_path, "analyze", HOSTILE["geodesic speed underflows to 0"][1]) == 3
    capsys.readouterr()
    assert _run(tmp_path, "analyze", HOSTILE["jet where det g rounds to 0"][1]) == 3
    assert "degenerate metric at (u, v) = (0.666667, 0.333333)" in capsys.readouterr().err
    coarse = HOSTILE["reconstruct step too coarse for its curvature"][1]
    assert _run(tmp_path, "reconstruct", coarse) == 3
    assert capsys.readouterr().err == (
        "numerical failure: the RK4 step to s = 1 leaves the frame 1.6e+05 from orthonormal: "
        "the step 1 is too coarse for the curvature\n")
    for name, message in (("polar of diag(1e120, 1, 1)", "det F / |F|^3 = 1e-240"),
                          ("polar of diag(1e300, 1, 1)", "det F / |F|^3 = 0 "),
                          ("polar with an overflowing determinant", "determinant overflows")):
        assert _run(tmp_path, "tensor", HOSTILE[name][1]) == 3
        assert message in capsys.readouterr().err
    # the message names what overflows, and numpy warns of nothing
    for name, message in (("invariants with an overflowing I2", "the invariant I2 overflows (nan)"),
                          ("invariants with an overflowing determinant",
                           "the determinant overflows (inf)"),
                          ("eigen of a block of 1e154", "the norm |L| overflows (inf)"),
                          ("eigen of a 1e200 block and 1e-300", "the norm |L| overflows (inf)"),
                          ("kelvin_rotation of diag(1e300, 1, 1)",
                           "the deviation |U^T U - I| overflows (inf)"),
                          ("axis_angle of diag(1e300, 1, 1)",
                           "the deviation |R R^T - I| overflows (inf)"),
                          ("kelvin with shear entries 1e308", "the Kelvin matrix overflows"),
                          ("isotropic with lam = mu = 1e308", "the isotropic tensor overflows")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(tmp_path, "tensor", HOSTILE[name][1]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
    for name, message in (
            ("chart whose Jacobian determinant overflows",
             "numerical failure in request 'metric': the Jacobian determinant overflows (inf)"),
            ("jet of z = 1e300 u v after a grid",
             "numerical failure in request 'jet': non-finite gaussian = -inf"),
            ("jet whose second derivative overflows",
             "numerical failure in request 'jet': non-finite value in '1e+308*u^2.0' (offset 0) "
             "at (u, v) = (1e-160, 0.5)"),
            ("geodesic whose metric overflows", "numerical failure in request 'geodesic': "
             "the metric overflows at (u, v) = (0.000447214, 0.000223607)"),
            ("area of z = 1e300 u v", "numerical failure in request 'area': "
             "the metric overflows at (u, v) = (-0.861136, -2.58341)"),
            ("christoffel symbol that overflows",
             "numerical failure in request 'christoffel': a Christoffel symbol overflows"),
            ("laplacian that overflows",
             "numerical failure in request 'laplacian': the Laplacian overflows (nan)")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(tmp_path, "analyze", HOSTILE[name][1]) == 3
        assert capsys.readouterr().err.endswith(message + "\n")


# |p'| = e^t overflows on the whole domain
EXP_CURVE = dict(CURVE_OF_T, components=["exp(t)", "t", "0*t"], domain=[[700.0, 709.7]],
                 requests=[{"op": "frenet", "params": {"samples": 9}},
                           {"op": "evolute", "params": {"samples": 9}}])

def test_a_non_finite_result_fails_its_request_and_keeps_the_report_before_it(tmp_path):
    assert _run(tmp_path, "analyze", HOSTILE["jet of z = 1e300 u v after a grid"][1]) == 3
    report = json.loads((tmp_path / "out" / "input_report.json").read_text())
    assert [entry["op"] for entry in report["results"]] == ["gauss_curvature"]
    assert report["diagnostics"]["failure"] == {"request": "jet",
                                                "error": "non-finite gaussian = -inf"}


def test_an_error_inside_a_program_names_the_point_by_its_variables(tmp_path, capsys):
    """A DomainError raised inside a compiled program at a point names the
    point's coordinates by the scene's variable names, in the CLI message and
    in the report.  A grid's skipped record holds its point already, so its
    error keeps the message without it."""
    text = "non-finite value in '1e+308*u^2.0' (offset 0) at (u, v) = (1e-160, 0.5)"
    assert _run(tmp_path, "analyze", HOSTILE["jet whose second derivative overflows"][1]) == 3
    assert capsys.readouterr().err == f"numerical failure in request 'jet': {text}\n"
    report = json.loads((tmp_path / "out" / "input_report.json").read_text())
    assert report["diagnostics"]["failure"] == {"request": "jet", "error": text}

    curve_of_t = _request(dict(CURVE_OF_T, components=["cos(t)", "sin(t)", "1/(t-0.3)"]),
                          "osculating", {"t": 0.3})
    assert _run(tmp_path, "analyze", curve_of_t) == 3
    assert capsys.readouterr().err.endswith("(offset 0) at t = 0.3\n")

    grid = _request(dict(SPHERE, components=["u", "v", "ln(u)"]), "curvatures", {"samples": 2})
    assert _run(tmp_path, "analyze", grid) == 0
    report = json.loads((tmp_path / "out" / "input_report.json").read_text())
    skipped = report["diagnostics"]["skipped"]
    assert skipped and all(entry["point"][0] <= 0.0 for entry in skipped)
    assert {entry["error"] for entry in skipped} == {
        "log of a non-positive value in 'ln(u)' (offset 0)"}


# Inputs whose results are well defined although an intermediate of the
# numerics is not, or whose failing grid points are skipped: each exits 0
# with its report, and numpy warns of nothing.
WELL_DEFINED = {
    "curvatures of z = 1e300 u v": ("analyze", _scene(HUGE_SADDLE, requests=[
        {"op": "curvatures", "params": {"samples": 5}}])),
    "egregium of z = 1e300 u v": ("analyze", _scene(HUGE_SADDLE, requests=[
        {"op": "egregium", "params": {"samples": 5}}])),
    "frenet and evolute where |p'| overflows": ("analyze", json.dumps(EXP_CURVE)),
    # an abs argument is exactly 0 at a scan sample, where the speed's jet is undefined
    "kink on a scan sample": ("analyze", _scene(
        CURVE_OF_T, components=["t", "abs(t-1)"], domain=[[0.0, 2.0]],
        requests=[{"op": "arc_length", "params": {}}])),
    # theta^2 of a Jacobi rotation overflows
    "eigen with a tiny off-diagonal entry": ("tensor", json.dumps(
        {"op": "eigen", "matrix": [[1, 1e-10, 0], [1e-10, 2, 1e-200], [0, 1e-200, 3]]})),
    # ... and theta itself: a subnormal entry against a gap of 1e10
    "eigen with a subnormal off-diagonal entry": ("tensor", json.dumps(
        {"op": "eigen", "matrix": [[1, 1, 0], [1, 2, 1e-320], [0, 1e-320, 1e10]]})),
    "reconstruct with curvature atan2(1e-300, s)": ("reconstruct", _scene(
        PROFILE, curvature="atan2(1e-300, s)", torsion="atan2(1e-300, s)",
        s_range=[0.0, 1.0], step=0.25)),
    # |axis|^2 overflows, or underflows to 0
    "rotation about the axis (1e154, 1e154, 0)": ("tensor", json.dumps(
        {"op": "rotation", "axis": [1e154, 1e154, 0], "angle": 0.3})),
    "rotation about the axis (1e-200, 0, 0)": ("tensor", json.dumps(
        {"op": "rotation", "axis": [1e-200, 0, 0], "angle": 0.3})),
}


@pytest.mark.parametrize("name", sorted(WELL_DEFINED))
def test_well_defined_input_exits_0_without_warnings(name, tmp_path, capsys):
    command, text = WELL_DEFINED[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(tmp_path, command, text) == 0
    assert capsys.readouterr().err == ""


def _skipped(tmp: Path, text: str) -> list[str]:
    assert _run(tmp, "analyze", text) == 0
    report = json.loads((tmp / "out" / "input_report.json").read_text())
    assert all(not entry["result"]["table"]["rows"] for entry in report["results"])
    return [entry["error"] for entry in report["diagnostics"]["skipped"]]


def test_non_finite_and_overflowing_grid_points_are_skipped_by_name(tmp_path, capsys):
    for op, column, value in (("curvatures", "K", "-inf"), ("egregium", "K_intrinsic", "nan")):
        errors = _skipped(tmp_path, _scene(HUGE_SADDLE, requests=[
            {"op": op, "params": {"samples": 5}}]))
        assert len(errors) == 25
        assert errors[12] == f"non-finite {column} = {value} at u = 0, v = 0"
    errors = _skipped(tmp_path, json.dumps(EXP_CURVE))
    assert errors[:2] == ["|p'| overflows at t = 700", "|p'| overflows at t = 701.212"]
    assert len(errors) == 18 and all("overflows at t = " in e for e in errors)


def test_rotation_about_a_huge_or_tiny_axis_is_the_rotation_about_its_direction(tmp_path):
    def matrix(axis):
        assert _run(tmp_path, "tensor", json.dumps(
            {"op": "rotation", "axis": axis, "angle": 0.3})) == 0
        return json.loads((tmp_path / "out" / "input_report.json").read_text())[
            "results"][0]["result"]["matrix"]
    # scaling by a power of two is exact
    assert matrix([2.0 ** 600, 2.0 ** 600, 0]) == matrix([1, 1, 0])
    assert matrix([2.0 ** -700, 2.0 ** -700, 0]) == matrix([1, 1, 0])
    assert matrix([1e-200, 0, 0]) == matrix([1, 0, 0])
    assert max(abs(a - b) for ra, rb in zip(matrix([1e154, 1e154, 0]), matrix([1, 1, 0]))
               for a, b in zip(ra, rb)) < 1e-15


# abs makes the speed jump where its argument changes sign; each such point is
# a panel edge, so the length is the sum over the smooth pieces
@pytest.mark.parametrize("components, domain, kinks", [
    (["t", "abs(sin(20*t))+t^2"], [0.05, 3.0], [k * math.pi / 20 for k in range(1, 20)]),
    (["t", "abs(sin(7*t))+t^2"], [0.05, 3.0], [k * math.pi / 7 for k in range(1, 7)]),
    (["t", "abs(t+0.76)+abs(t+0.69)+abs(t+0.48)+abs(t+0.4)+abs(t+0.14)"
           "+abs(t-0.59)+abs(t-0.83)+abs(t-0.84)+abs(t-1.43)"], [-1.0, 2.0],
     [-0.76, -0.69, -0.48, -0.4, -0.14, 0.59, 0.83, 0.84, 1.43]),
], ids=["abs(sin(20t)) beyond 200 panels", "abs(sin(7t))", "nine speed jumps beyond 200 panels"])
def test_length_across_speed_jumps_is_the_sum_over_smooth_pieces(components, domain, kinks,
                                                                   tmp_path):
    scene = _scene(CURVE_OF_T, components=components, domain=[domain],
                   requests=[{"op": "arc_length", "params": {}}])
    assert _run(tmp_path, "analyze", scene) == 0
    length = json.loads((tmp_path / "out" / "input_report.json").read_text())[
        "results"][0]["result"]["length"]
    cv = curve.Curve(parse(components, ["t"]), domain)
    edges = [domain[0], *kinks, domain[1]]
    pieces = math.fsum(curve.integrate(lambda t: norm(cv.velocity(t)), a, b, 1e-12)
                       for a, b in zip(edges, edges[1:]))
    assert abs(length - pieces) <= 1e-12 * pieces, (length, pieces)


def test_output_below_a_regular_file_is_exit_2(tmp_path, capsys):
    (tmp_path / "some_file").write_text("", encoding="utf-8")
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"op": "invariants", "matrix": MATRIX}), encoding="utf-8")
    assert cli.main(["--out", str(tmp_path / "some_file" / "x"), "tensor", str(job)]) == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err and "Traceback" not in err


def test_non_finite_report_value_is_a_numerical_failure():
    with pytest.raises(NumericalFailure):
        cli.format_json({"x": math.inf})


# The writer as it was before tables were formatted once: the reference.
def _old_fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise cli.DomainError(f"non-finite value {x!r} in report")
    if x == int(x) and abs(x) < 1e16:
        return format(x, ".1f")
    return format(x, ".17g")


def _old_format_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}{json.dumps(str(k))}: {_old_format_json(obj[k], indent + 1)}'
                 for k in sorted(obj)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [_old_format_json(x, indent + 1) for x in np.asarray(obj).tolist()] \
            if isinstance(obj, np.ndarray) else [_old_format_json(x, indent + 1) for x in obj]
        if not items:
            return "[]"
        if all("\n" not in s and len(s) < 24 for s in items) and len(items) <= 8:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _old_fmt_float(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return _old_fmt_float(float(x))
    return str(x)


# -0.0, integral floats on both sides of 1e16, and cells of 24 characters or
# more, which put a JSON row on one line per cell
_CELL_FLOATS = (-0.0, 0.0, 3.0, 9999999999999998.0, 1e16, 1e16 + 2.0, -1e17, 0.1,
                -1.2345678901234567e-100, 1.2345678901234567e+300, 5e-324)
_CELLS = st.one_of(st.sampled_from(_CELL_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                   st.text(max_size=30))


@st.composite
def _tables(draw):
    width = draw(st.integers(1, 12))
    columns = draw(st.lists(st.text(min_size=1, max_size=4), min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_CELLS, min_size=width, max_size=width), max_size=6))
    return columns, rows


@settings(max_examples=300, deadline=None)
@given(_tables(), st.integers(0, 4), st.booleans())
def test_a_table_is_written_as_its_plain_dict_and_the_old_csv_cells(table, indent, both):
    columns, rows = table
    t = cli.Table(columns, rows)
    t.keep_csv = both  # write_csv then writes the lines the JSON writer kept
    plain = {"table": {"columns": columns, "rows": rows}}
    assert cli.format_json({"table": t}, indent) == cli.format_json(plain, indent) \
        == _old_format_json(plain, indent)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        cli.write_csv(path, t)
        text = path.read_bytes().decode("utf-8")
    assert text == "\n".join([",".join(columns), *(",".join(map(_csv_cell, row))
                                                    for row in rows)]) + "\n"


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
def test_a_table_with_a_non_finite_number_is_not_written(bad, tmp_path):
    t = cli.Table(["a", "b"], [[1.0, "x"], [2.0, bad]])
    with pytest.raises(cli.DomainError):
        cli.format_json(t)
    with pytest.raises(cli.DomainError):
        cli.write_csv(tmp_path / "t.csv", t)


def _locations(doc):
    """(container, key) of every value inside a JSON document."""
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = node.keys() if isinstance(node, dict) else range(len(node))
        for key in keys:
            yield node, key
            if isinstance(node[key], (dict, list)) and node[key]:
                stack.append(node[key])


@st.composite
def _mutated(draw):
    command, base = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        places = list(_locations(doc))
        if not places:
            break
        node, key = draw(st.sampled_from(places))
        how = draw(st.sampled_from(["drop", "type", "number", "ragged", "nest"]))
        if how == "drop":
            del node[key]
        elif how == "type":
            node[key] = draw(st.sampled_from(["x", [1], [], True, None, {}]))
        elif how == "number":
            node[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -3,
                                              -1e-3, 1e300, 10 ** 400]))
        elif how == "ragged" and isinstance(node[key], list) and node[key]:
            row = node[key][-1]
            node[key][-1] = row[:-1] if isinstance(row, list) else [row]
        else:
            for _ in range(draw(st.integers(1, 40))):
                node[key] = [node[key]]
    return command, json.dumps(doc)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # numpy on 1e300 entries
@settings(max_examples=300, deadline=None)
@given(_mutated())
def test_mutated_inputs_exit_0_2_or_3(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _run(Path(tmp), command, text, ["--grid", "3"]) in (0, 2, 3)


# random scenes over the builtins, at points near the edges of their domains
_EDGES = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.pi / 2, 1e-300, -1e-12, 0.6666666666666666,
          0.33333333333333326, 0.9999999999999999)
_FUNCS = ("sin", "cos", "tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "exp", "ln",
          "sqrt", "abs")


def _expression(names):
    leaves = st.sampled_from((*names, "0", "1", "2", "0.5", "pi", "e", "1e-300"))

    def extend(children):
        call = st.tuples(st.sampled_from(_FUNCS), children).map(lambda t: f"{t[0]}({t[1]})")
        atan2 = st.tuples(children, children).map(lambda t: f"atan2({t[0]}, {t[1]})")
        binop = st.tuples(children, st.sampled_from("+-*/^"), children) \
            .map(lambda t: f"({t[0]}){t[1]}({t[2]})")
        return st.one_of(call, atan2, binop, children.map(lambda x: f"-({x})"))

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _random_scene(draw):
    edge = st.one_of(st.sampled_from(_EDGES), st.floats(-1.0, 1.0, allow_nan=False))
    if draw(st.booleans()):
        profile = dict(PROFILE, curvature=draw(_expression(["s"])),
                       torsion=draw(_expression(["s"])), s_range=[draw(edge), 1.0], step=0.25)
        return "reconstruct", json.dumps(profile)
    u, v, du, dv = (draw(edge) for _ in range(4))
    requests = [{"op": "jet", "params": {"u": u, "v": v}},
                {"op": "curvatures", "params": {"samples": 2}},
                {"op": "geodesic", "params": {"u": u, "v": v, "du": du, "dv": dv,
                                              "s_max": 0.02, "step": 0.01, "samples": 2}}]
    components = [draw(_expression(["u", "v"])) for _ in range(3)]
    return "analyze", _scene(SPHERE, components=components, domain=[[-1.0, 1.0], [-1.0, 1.0]],
                             requests=[draw(st.sampled_from(requests))])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(_random_scene())
def test_random_scenes_exit_0_2_or_3(case):
    command, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(Path(tmp), command, text)
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (text, err.getvalue())


# entry magnitudes of the fuzzed tensor jobs: zero, subnormal, one, and values
# whose squares, cubes or products leave the float range
_MAGNITUDES = (0.0, 1e-320, 1.0, 1e154, 1e200, 1e300)
_MATRIX_OPS = ("polar", "eigen", "invariants", "axis_angle", "kelvin_rotation")


@st.composite
def _random_chart_or_tensor_job(draw):
    if draw(st.booleans()):
        entry = st.tuples(st.sampled_from((1.0, -1.0)), st.sampled_from(_MAGNITUDES))
        matrix = [[math.prod(draw(entry)) for _ in range(3)] for _ in range(3)]
        return "tensor", json.dumps({"op": draw(st.sampled_from(_MATRIX_OPS)), "matrix": matrix})
    names = ["z1", "z2", "z3"][:draw(st.integers(2, 3))]
    z = [draw(st.sampled_from(_EDGES)) for _ in names]
    request = draw(st.sampled_from([
        {"op": "metric", "params": {"z": z}},
        {"op": "christoffel", "params": {"z": z, "method": "second_derivative"}},
        {"op": "christoffel", "params": {"z": z, "method": "metric_derivative"}},
        {"op": "laplacian", "params": {"z": z, "field": draw(_expression(names))}}]))
    return "analyze", _scene(POLAR_CHART, components=[draw(_expression(names)) for _ in names],
                             variables=names, constants={}, domain=[[-1.0, 1.0]] * len(names),
                             requests=[request])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_chart_or_tensor_job())
def test_random_charts_and_tensor_jobs_exit_0_2_or_3_without_warnings(case):
    command, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(Path(tmp), command, text)
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (text, err.getvalue())


# the tensor jobs whose inputs are not matrices, over the same magnitudes and 1e308
_WIDE_MAGNITUDES = (*_MAGNITUDES, 1e308)


@st.composite
def _random_tensor_job(draw):
    number = st.tuples(st.sampled_from((1.0, -1.0)), st.sampled_from(_WIDE_MAGNITUDES)) \
        .map(math.prod)
    op = draw(st.sampled_from(("kelvin", "isotropic", "rotation axis", "rotation angles")))
    if op == "kelvin":  # minor-symmetric: one entry per pair of index pairs
        entries = {}
        tensor = [[[[entries.setdefault((frozenset((i, j)), frozenset((k, l))), draw(number))
                     for l in range(3)] for k in range(3)] for j in range(3)] for i in range(3)]
        return json.dumps({"op": op, "tensor": tensor})
    if op == "isotropic":
        return json.dumps({"op": op, "lam": draw(number), "mu": draw(number)})
    if op == "rotation axis":
        return json.dumps({"op": "rotation", "axis": [draw(number) for _ in range(3)],
                           "angle": draw(number)})
    return json.dumps({"op": "rotation", "kind": draw(st.sampled_from(
        ("euler", "coordinate", "physical"))), "angles": [draw(number) for _ in range(3)]})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, derandomize=True)
@given(_random_tensor_job())
def test_random_kelvin_isotropic_and_rotation_jobs_exit_0_2_or_3_without_warnings(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(Path(tmp), "tensor", text)
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (text, err.getvalue())
