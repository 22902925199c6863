"""In-process runner: drives ``tensorgeom.cli.main`` with a workload's argv.

``run.py`` starts it as ``python3 bench/worker.py`` with the package on
``PYTHONPATH`` and sends one JSON command per line on stdin; each command
gets one JSON reply line on stdout:

* ``{"cmd": "info"}`` -- interpreter and library versions;
* ``{"cmd": "pass", "ops": [...], "dir": D, "trace": bool}`` -- run every
  operation's argv once (``{out}`` stands for ``D``) and reply with the exit
  codes and the seconds spent in ``cli.main``; with ``trace`` the span tracer
  is installed for the pass and the reply carries the per-name span totals;
* ``{"cmd": "quit"}``.

Each pass writes its outputs, plus every operation's captured
``.stdout``/``.stderr``, under ``D`` so the caller can check them.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path


def _run_op(cli, name: str, argv: list[str], out: Path) -> tuple[int, float]:
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the operation failed; the caller counts it from the exit code
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    (out / f"{name}.stderr").write_text(stderr.getvalue(), encoding="utf-8")
    return code, elapsed


def run_pass(cli, ops: list[dict], out: Path) -> dict:
    codes, seconds = [], 0.0
    for op in ops:
        argv = [a.replace("{out}", str(out)) for a in op["argv"]]
        code, elapsed = _run_op(cli, op["name"], argv, out)
        codes.append(code)
        seconds += elapsed
    return {"dir": str(out), "codes": codes, "seconds": seconds}


def main() -> int:
    import numpy
    import scipy
    import tensorgeom
    from tensorgeom import cli

    from spans import Tracer

    reply = sys.stdout
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "quit":
            break
        if cmd["cmd"] == "info":
            result = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                      "python": sys.version.split()[0], "package": tensorgeom.__file__}
        elif cmd["trace"]:
            tracer = Tracer()
            tracer.install(tensorgeom)
            try:
                result = run_pass(cli, cmd["ops"], Path(cmd["dir"]))
            finally:
                tracer.uninstall()
            result["spans"], result["eval_jet_under_coords"] = tracer.aggregate()
        else:
            result = run_pass(cli, cmd["ops"], Path(cmd["dir"]))
        reply.write(json.dumps(result) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
