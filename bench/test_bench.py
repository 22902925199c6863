"""Tests of the benchmark itself: seeded scenes, oracles, time sharing, span
accounting and metric names.  Run with ``python3 -m pytest -q bench`` from
the repository root; they are not part of the package's own test suite.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


# ---------------------------------------------------------------------------
# seeded scenes
# ---------------------------------------------------------------------------

def _shape(obj):
    """The structure of a scene with every float replaced by a marker."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return "<float>" if isinstance(obj, float) else obj


@pytest.mark.parametrize("workload", scenes.WORKLOADS)
def test_same_seed_gives_identical_scenes(workload):
    a, b = scenes.build(workload, 7), scenes.build(workload, 7)
    assert [op.inputs for op in a] == [op.inputs for op in b]


@pytest.mark.parametrize("workload", scenes.WORKLOADS)
def test_other_seed_changes_points_not_sizes(workload):
    a, b = scenes.build(workload, 1), scenes.build(workload, 2)
    assert [op.name for op in a] == [op.name for op in b]
    for x, y in zip(a, b):
        for name in x.inputs:
            sx, sy = json.loads(x.inputs[name]), json.loads(y.inputs[name])
            assert sx != sy
            # integers (sample counts, orders) and strings are sizes and code
            assert _shape(sx) == _shape(sy)


def test_cone_apex_lies_on_the_grid():
    import numpy as np

    for seed in range(40):
        cone = json.loads(scenes.build("grid", seed)[4].inputs["cone.json"])
        lo, hi = cone["domain"][0]
        n = cone["requests"][0]["params"]["samples"]
        assert 0.0 in np.linspace(lo, hi, n + 2)[1:-1]


# ---------------------------------------------------------------------------
# oracles on real reports, clean and perturbed
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Seed-3 outputs of every operation, produced in-process."""
    from tensorgeom import cli

    made = {}
    for workload in scenes.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        (base / "scenes").mkdir()
        for op in scenes.build(workload, 3):
            for name, text in op.inputs.items():
                (base / "scenes" / name).write_text(text)
            code, _ = worker._run_op(cli, op.name, op.argv(str(base / "scenes"),
                                                           str(base / "out")), base / "out")
            made[op.name] = (base / "out", op, code)
    return made


def _edit_report(out: Path, name: str, change):
    path = out / f"{name}_report.json"
    original = path.read_text()
    report = json.loads(original)
    change(report)
    path.write_text(json.dumps(report))
    return path, original


def _cell(report, row, column, change):
    """Apply ``change`` to one cell of the report's first table."""
    table = report["results"][0]["result"]["table"]
    k = table["columns"].index(column)
    table["rows"][row][k] = change(table["rows"][row][k])


def _result(report, i, key, change):
    """Apply ``change`` to one field of the i-th request's result."""
    result = report["results"][i]["result"]
    result[key] = change(result[key])


def _shift(value, delta):
    """``value`` (a number or nested lists) with ``delta`` added to its first number."""
    if isinstance(value, list):
        return [_shift(value[0], delta)] + value[1:]
    return value + delta


PERTURB = {
    "pseudosphere": lambda r: _cell(r, 5, "K", lambda k: -k),
    "torus": lambda r: _result(r, 1, "area", lambda a: a * 1.001),
    "helix": lambda r: _cell(r, 9, "theta", lambda t: -t),
    "ellipse": lambda r: _cell(r, 3, "q1", lambda q: q + 1e-4),
    "cone": lambda r: r["diagnostics"]["skipped"].pop(),
    "geodesic": lambda r: _cell(r, 40, "dv", lambda dv: dv * 1.001),
    "bonnet": lambda r: _cell(r, 50, "t1", lambda t: t + 1e-3),  # non-orthonormal frame row
    "bonnet_helix": lambda r: _cell(r, 70, "x1", lambda x: x + 1e-4),
    "chart_spherical": lambda r: _result(r, 6, "christoffel", lambda g: _shift(g, 1e-3)),
    "chart_skew": lambda r: _result(r, 3, "laplacian", lambda v: v * 1.001),
    "helix_points": lambda r: _result(r, 2, "circle_radius", lambda v: v * 1.001),
    "sphere_jets": lambda r: _result(r, 4, "gaussian", lambda k: -k),
    "polar": lambda r: _result(r, 0, "rotation", lambda m: _shift(m, 1e-3)),
    "eigen": lambda r: _result(r, 0, "values", lambda v: _shift(v, 1e-3)),
    "kelvin_rotation": lambda r: _result(r, 0, "kelvin", lambda m: _shift(m, 1e-3)),
    "kelvin": lambda r: _result(r, 0, "kelvin", lambda m: [m[0][:5] + [1.0]] + m[1:]),
}


def test_every_operation_has_a_perturbation():
    names = {op.name for w in scenes.WORKLOADS for op in scenes.build(w, 1)}
    assert names == set(PERTURB) | {"check"}
    assert {op.oracle for w in scenes.WORKLOADS for op in scenes.build(w, 1)} \
        == set(oracles.ORACLES)


@pytest.mark.parametrize("name", sorted(PERTURB))
def test_oracle_accepts_clean_and_rejects_perturbed_report(outputs, name):
    out, op, code = outputs[name]
    assert code == 0
    assert oracles.verify(out, op, code) == []
    path, original = _edit_report(out, name, PERTURB[name])
    try:
        assert oracles.verify(out, op, 0) != []
    finally:
        path.write_text(original)
    assert oracles.verify(out, op, code) == []


def test_check_oracle_and_failure_modes(outputs):
    out, op, code = outputs["check"]
    assert oracles.verify(out, op, code) == []
    stdout = out / "check.stdout"
    original = stdout.read_text()
    try:
        stdout.write_text(original.replace("ALL CHECKS PASSED", "SOME CHECKS FAILED"))
        assert oracles.verify(out, op, 0) != []
    finally:
        stdout.write_text(original)
    assert oracles.verify(out, op, 3) == ["check: exit code 3"]
    stderr = out / "check.stderr"
    stderr.write_text("Traceback (most recent call last):\n")
    try:
        assert oracles.verify(out, op, 0) == ["check: traceback on stderr"]
    finally:
        stderr.write_text("")


def test_csv_must_match_report(outputs):
    out, op, _ = outputs["ellipse"]
    path = out / "ellipse_evolute_0.csv"
    original = path.read_text()
    lines = original.splitlines()
    cells = lines[7].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    path.write_text("\n".join(lines[:7] + [",".join(cells)] + lines[8:]) + "\n")
    try:
        assert oracles.verify(out, op, 0) != []
    finally:
        path.write_text(original)


def test_work_units_come_from_the_reports(outputs):
    units = {name: oracles.counts(out, op).units for name, (out, op, _) in outputs.items()}
    assert units["pseudosphere"] == scenes.PSEUDOSPHERE_SAMPLES ** 2
    assert units["torus"] == scenes.TORUS_SAMPLES ** 2 + scenes.AREA_ORDER ** 2
    assert units["helix"] == scenes.FRENET_SAMPLES + 1
    assert units["cone"] == scenes.CONE_SAMPLES ** 2
    assert units["geodesic"] == scenes.GEODESIC_STEPS
    assert units["bonnet"] == scenes.BONNET_STEPS
    assert units["chart_spherical"] == 4 * scenes.CHART_POINTS
    assert units["polar"] == units["check"] == 1
    assert oracles.counts(*outputs["cone"][:2]).skipped == scenes.CONE_SAMPLES
    assert oracles.counts(*outputs["bonnet_helix"][:2]).bonnet_steps == scenes.HELIX_STEPS


# ---------------------------------------------------------------------------
# sharing a run's time between kinds of sample
# ---------------------------------------------------------------------------

def test_share_time_interleaves_kinds_and_ends_in_time(monkeypatch):
    clock = [0.0]
    order = []
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    def sample(name, seconds):
        def take():
            order.append(name)
            clock[0] += seconds
        return take

    counts = run.share_time(20.0, {"long": (0.5, sample("long", 4.0)),
                                   "short": (0.5, sample("short", 1.0))})
    assert counts == {"long": 3, "short": 8}
    assert clock[0] <= 20.0
    assert order[:6] == ["long", "short", "short", "short", "short", "long"]
    # a kind longer than the whole run is still sampled once
    clock[0] = 0.0
    assert run.share_time(1.0, {"slow": (1.0, sample("slow", 5.0))}) == {"slow": 1}


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    names = ["cli.main", "coords.christoffel", "expr.eval_jet", "expr.jet_mul"]
    # 0 cli.main [0, 10]
    #   1 expr.eval_jet [1, 3]          (not under coords)
    #     2 expr.jet_mul [1.5, 2]
    #   3 coords.christoffel [4, 9]
    #     4 expr.eval_jet [5, 8]        (under coords)
    #       5 expr.jet_mul [6, 7]
    name_id = [0, 2, 3, 1, 2, 3]
    parent = [-1, 0, 1, 0, 3, 4]
    start = [0.0, 1.0, 1.5, 4.0, 5.0, 6.0]
    end = [10.0, 3.0, 2.0, 9.0, 8.0, 7.0]
    stats, nested = spans.aggregate(names, name_id, parent, start, end)
    assert stats["cli.main"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert stats["coords.christoffel"] == {"calls": 1, "total_s": 5.0, "self_s": 2.0}
    assert stats["expr.eval_jet"] == {"calls": 2, "total_s": 5.0, "self_s": 3.5}
    assert stats["expr.jet_mul"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert nested == 1


def test_tracer_wraps_lookup_sites_and_restores_them():
    import tensorgeom
    from tensorgeom import curve, tensor2

    original_sqrt, original_quad = curve.sqrt_spd, curve.quad
    tracer = spans.Tracer()
    tracer.install(tensorgeom)
    try:
        tensor2.polar([[2.0, 0.1, 0.0], [0.0, 1.5, 0.2], [0.1, 0.0, 1.0]])
        curve.sqrt_spd([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
        stats, _ = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert curve.sqrt_spd is original_sqrt and curve.quad is original_quad
    # polar calls sqrt_spd (which calls eigen_sym) and inverse from its own module
    assert stats["tensor2.polar"]["calls"] == 1
    assert stats["tensor2.sqrt_spd"]["calls"] == 2
    assert stats["tensor2.eigen_sym"]["calls"] == 2
    assert stats["tensor2.inverse"]["calls"] == 1
    assert stats["tensor2.polar"]["self_s"] < stats["tensor2.polar"]["total_s"]


def test_recursive_calls_belong_to_the_outer_span():
    tracer = spans.Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = tracer.wrap(depth, "m.depth")
    assert traced(5) == 5
    stats, _ = tracer.aggregate()
    assert stats["m.depth"]["calls"] == 1


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_metric_names_are_well_formed_and_every_layer_is_mapped():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [m["name"] for m in spec["per_layer"]]
    names = [m["name"] for m in spec["end_to_end"]] + layers + ["fail_ratio"]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert set(metrics.MOVES) == set(layers)
    assert [w["name"] for w in spec["workloads"]] == list(scenes.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
