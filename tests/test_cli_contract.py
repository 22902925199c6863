"""The CLI's exit-code contract: every input ends in exit 0, 2 or 3.

Exit 2 is a validation error, exit 3 a numerical failure; no input may
escape ``cli.main`` as a Python exception.
"""

import copy
import json
import math
import tempfile
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
    "JSON nested 100000 deep": ("tensor", '{"op": "polar", "matrix": '
                                + "[" * 100000 + "]" * 100000 + "}"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_exits_2_or_3(name, tmp_path, capsys):
    command, text = HOSTILE[name]
    assert _run(tmp_path, command, text) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_negative_grid_is_a_usage_error(tmp_path, capsys):
    assert _run(tmp_path, "analyze", json.dumps(HELIX), ["--grid", "-5"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_exit_code_classes(tmp_path):
    """Malformed input is exit 2, a failure of the numerics exit 3."""
    assert _run(tmp_path, "analyze", HOSTILE["osculating without t"][1]) == 2
    assert _run(tmp_path, "analyze", HOSTILE["overflow"][1]) == 3
    assert _run(tmp_path, "reconstruct", HOSTILE["ln(s) across 0"][1]) == 3


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
