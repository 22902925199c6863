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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgeom import cli
from tensorgeom.expr import NumericalFailure

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
    "length integral beyond 200 panels": ("analyze", _scene(
        CURVE_OF_T, components=["t", "abs(sin(20*t))+t^2"], domain=[[0.05, 3.0]],
        requests=[{"op": "arc_length", "params": {}}])),
    # nine jumps of the speed: bisection without extrapolation needs more than 200 panels
    "nine speed jumps beyond 200 panels": ("analyze", _scene(
        CURVE_OF_T, components=["t", "abs(t+0.76)+abs(t+0.69)+abs(t+0.48)+abs(t+0.4)+abs(t+0.14)"
                                     "+abs(t-0.59)+abs(t-0.83)+abs(t-0.84)+abs(t-1.43)"],
        domain=[[-1.0, 2.0]], requests=[{"op": "arc_length", "params": {}}])),
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
    assert "[0.05, 3]" in capsys.readouterr().err
    assert _run(tmp_path, "analyze", HOSTILE["nine speed jumps beyond 200 panels"][1]) == 3
    assert _run(tmp_path, "analyze", HOSTILE["geodesic speed underflows to 0"][1]) == 3
    capsys.readouterr()
    assert _run(tmp_path, "analyze", HOSTILE["jet where det g rounds to 0"][1]) == 3
    assert "degenerate metric at (u, v) = (0.666667, 0.333333)" in capsys.readouterr().err
    for name, message in (("polar of diag(1e120, 1, 1)", "det F / |F|^3 = 1e-240"),
                          ("polar of diag(1e300, 1, 1)", "det F / |F|^3 = 0 "),
                          ("polar with an overflowing determinant", "determinant overflows")):
        assert _run(tmp_path, "tensor", HOSTILE[name][1]) == 3
        assert message in capsys.readouterr().err
    # the message names the invariant, and numpy warns of nothing
    for name, message in (("invariants with an overflowing I2", "the invariant I2 overflows (nan)"),
                          ("invariants with an overflowing determinant",
                           "the determinant overflows (inf)")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(tmp_path, "tensor", HOSTILE[name][1]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"


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
