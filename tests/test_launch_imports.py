"""What a CLI launch imports: each command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tensorgeom

SRC = str(Path(tensorgeom.__file__).resolve().parent.parent)
SIX = {"expr", "tensor2", "tensor4", "curve", "coords", "surface"}

JOBS = {
    "tensor": {"op": "polar", "matrix": [[2.0, 0.1, 0.0], [0.0, 3.0, 0.2], [0.1, 0.0, 4.0]]},
    "analyze": {"kind": "coordmap", "components": ["r*cos(t)", "r*sin(t)"],
                "variables": ["r", "t"], "domain": [[0.1, 5.0], [-3.1, 3.1]],
                "requests": [{"op": "metric", "params": {"z": [2.0, 0.5]}},
                             {"op": "laplacian", "params": {"z": [2.0, 0.5], "field": "r^2"}}]},
    "reconstruct": {"curvature": "0.4+0*s", "torsion": "-0.2+0*s", "s_range": [0.0, 1.0],
                    "step": 0.01},
}


def _launch(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of ``cli.main(argv)`` in a fresh process, and the package
    modules that process loaded."""
    code = ("import sys, tensorgeom.cli; "
            f"code = tensorgeom.cli.main({argv!r}); "
            "print(code, *sorted(m.split('.')[1] for m in sys.modules "
            "if m.startswith('tensorgeom.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    exit_code, *modules = out.stdout.split("\n")[-2].split()
    return int(exit_code), set(modules)


def _job(tmp_path, command: str, payload: dict) -> list[str]:
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return ["--out", str(tmp_path), command, str(path)]


@pytest.mark.parametrize("command, absent", [
    ("tensor", {"expr", "curve", "coords", "surface"}),
    ("analyze", {"curve", "surface"}),
    ("reconstruct", {"surface", "coords"}),
])
def test_a_launch_loads_only_the_modules_its_command_runs(tmp_path, command, absent):
    code, modules = _launch(_job(tmp_path, command, JOBS[command]))
    assert code == 0
    assert modules & absent == set()
    assert modules & SIX  # it ran something


def test_check_loads_all_six_modules():
    code, modules = _launch(["check"])
    assert code == 0 and SIX <= modules


def test_a_failing_tensor_job_exits_3_without_the_expression_language(tmp_path):
    singular = {"op": "polar", "matrix": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]}
    code, modules = _launch(_job(tmp_path, "tensor", singular))
    assert code == 3 and "tensor2" in modules and "expr" not in modules


def test_submodules_load_on_first_use():
    code = ("import json, sys, tensorgeom; "
            "loaded = [m for m in sys.modules if m.startswith('tensorgeom.')]; "
            "surface = tensorgeom.surface; "
            "from tensorgeom import coords; "
            "print(json.dumps([loaded, surface.__name__, coords.__name__, dir(tensorgeom)]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    loaded, surface, coords, names = json.loads(out.stdout)
    assert loaded == [] and (surface, coords) == ("tensorgeom.surface", "tensorgeom.coords")
    assert SIX | {"cli"} <= set(names)
