"""tensorgeom benchmark: seeded scenes run through the CLI, checked by oracles.

Usage (from the repository root)::

    python3 bench/run.py --workload grid|march|query --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics: ``setup_s`` (fresh
interpreter plus ``import tensorgeom.cli``), ``wall_s`` (every CLI operation
of the workload as its own process), ``work_per_s`` (the same argv through
``tensorgeom.cli.main`` in one worker process) and ``peak_rss_mb``.  With
``--trace 1`` it reports the per-layer metrics from a separate traced run; no
end-to-end number comes from it.  The metric names and units, and the default
``--seconds``, are read from ``BENCHMARK.json``; ``metrics.MOVES`` says which
end-to-end metric each per-layer metric should move.

Load is one process at a time: the driver, then one CLI child or the worker,
with BLAS pinned to one thread.  Every output of every timed pass is checked
against the closed-form oracles of ``oracles.py``; an operation fails on an
unexpected exit code, a traceback on stderr or an oracle error.  Lines before
the last print the run record (environment and output fingerprints) and each
metric with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import oracles
import scenes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = BENCH / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OP_TIMEOUT_S = 150
WORKER_TIMEOUT_S = 170


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


def _spawn(argv: list[str], stdout, stderr):
    """Run one child to completion; (exit code, wall seconds, max RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT)
    try:
        deadline = t0 + OP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup() -> float:
    """Wall seconds of a fresh ``import tensorgeom.cli`` process."""
    argv = [sys.executable, "-c", "import tensorgeom.cli"]
    return _spawn(argv, subprocess.DEVNULL, subprocess.DEVNULL)[1]


def measure_imports() -> dict:
    """One ``python -X importtime`` run: the cumulative import of
    tensorgeom.cli, and the summed self time of the numpy and scipy modules."""
    totals = {"cli": 0.0, "numpy": 0.0, "scipy": 0.0}
    log = WORK / f"importtime-{os.getpid()}.txt"
    with open(log, "wb") as fh:
        _spawn([sys.executable, "-X", "importtime", "-c", "import tensorgeom.cli"],
               subprocess.DEVNULL, fh)
    for line in log.read_text(encoding="utf-8").splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m[1]), int(m[2]), m[3]
        top = name.split(".")[0]
        if top in ("numpy", "scipy"):
            totals[top] += self_us / 1e6
        if name == "tensorgeom.cli":
            totals["cli"] = cum_us / 1e6
    log.unlink()
    return totals


def process_pass(ops, scene_dir: Path, out: Path) -> dict:
    """Every operation as a fresh ``python -m tensorgeom.cli`` process."""
    out.mkdir(parents=True)
    codes, wall, rss = [], 0.0, 0.0
    for op in ops:
        argv = [sys.executable, "-m", "tensorgeom.cli", *op.argv(str(scene_dir), str(out))]
        with open(out / f"{op.name}.stdout", "wb") as so, \
                open(out / f"{op.name}.stderr", "wb") as se:
            code, seconds, peak = _spawn(argv, so, se)
        codes.append(code)
        wall += seconds
        rss = max(rss, peak)
    return {"dir": str(out), "codes": codes, "seconds": wall, "rss_mb": rss}


class Worker:
    """The in-process runner ``worker.py``, kept alive for the whole run and
    idle while CLI children run, so only one process works at a time."""

    def __init__(self, ops, scene_dir: Path):
        self.ops = [{"name": op.name, "argv": op.argv(str(scene_dir), "{out}")} for op in ops]
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT)

    def ask(self, cmd: dict) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], WORKER_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(f"worker gave no reply to {cmd['cmd']!r} "
                               f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def run_pass(self, out: Path, trace: bool = False) -> dict:
        return self.ask({"cmd": "pass", "ops": self.ops, "dir": str(out), "trace": trace})

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(b'{"cmd": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


def fingerprints(out: Path) -> dict:
    """SHA-256 of every report and CSV table of one pass."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".json", ".csv")}


def combined(prints: dict) -> str:
    return hashlib.sha256(json.dumps(prints, sort_keys=True).encode()).hexdigest()


class Checker:
    """Checks the outputs of every pass against the oracles and keeps counts.

    Facts a metric needs from the reports (work units, skipped points,
    integrator steps, report bytes) are stored in the pass's dict, and the
    pass's output directory is removed once checked.
    """

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_prints: dict | None = None
        self.digests: set[str] = set()
        self.unit_counts: set[int] = set()

    def check(self, run: dict) -> None:
        out = Path(run["dir"])
        ok = len(run["codes"]) == len(self.ops)
        facts = dict.fromkeys(("units", "skipped", "geodesic_steps", "bonnet_steps"), 0)
        for op, code in zip(self.ops, run["codes"]):
            self.attempted += 1
            errs = oracles.verify(out, op, code)
            if errs:
                self.failed += 1
                self.errors += errs[:3]
                ok = False
                continue
            for key, n in vars(oracles.counts(out, op)).items():
                facts[key] += n
        prints = fingerprints(out)
        facts["report_bytes"] = sum((out / name).stat().st_size for name in prints)
        self.first_prints = self.first_prints or prints
        self.digests.add(combined(prints))
        if ok:
            run.update(facts)
            self.unit_counts.add(facts["units"])
        shutil.rmtree(out, ignore_errors=True)

    def consistent(self) -> None:
        if len(self.unit_counts) > 1:
            self.failed += 1
            self.errors.append(f"work-unit count differs between passes: "
                               f"{sorted(self.unit_counts)}")


def share_time(seconds: float, kinds: dict) -> dict:
    """Take samples until ``seconds`` are spent; return the count per kind.

    ``kinds`` maps a name to ``(share, sample)``, where ``sample()`` takes one
    sample.  Each kind gets its share of the run: the next sample is of the
    kind that has used the least of its share, among the kinds whose last
    sample would still end within ``seconds``.  Every kind is sampled at
    least once.  Interleaving the kinds over the whole run averages out the
    speed swings of a shared host; on a slow host there are fewer samples,
    not a longer run."""
    t0 = time.perf_counter()
    spent = dict.fromkeys(kinds, 0.0)
    last = dict.fromkeys(kinds, 0.0)
    count = dict.fromkeys(kinds, 0)
    while True:
        now = time.perf_counter() - t0
        fits = [k for k in kinds if not count[k] or now + last[k] <= seconds]
        if not fits:
            return count
        kind = min(fits, key=lambda k: spent[k] / kinds[k][0])
        t = time.perf_counter()
        kinds[kind][1]()
        last[kind] = time.perf_counter() - t
        spent[kind] += last[kind]
        count[kind] += 1


def timed_run(ops, scene_dir: Path, run_dir: Path, seconds: float, checker: Checker):
    setup, procs, passes = [], [], []
    worker = Worker(ops, scene_dir)
    try:
        info = worker.ask({"cmd": "info"})
        checker.check(worker.run_pass(run_dir / "warmup"))

        def process():
            proc = process_pass(ops, scene_dir, run_dir / f"proc{len(procs)}")
            checker.check(proc)
            procs.append(proc)

        def in_process():
            run = worker.run_pass(run_dir / f"w{len(passes)}")
            checker.check(run)
            passes.append(run)

        # A process pass is the longest sample (8-11 s); half the run buys
        # every workload two of them.
        samples = share_time(seconds, {
            "process": (0.5, process), "in_process": (0.35, in_process),
            "setup": (0.15, lambda: setup.append(measure_setup()))})
    finally:
        worker.close()
    checker.consistent()
    rates = [p["units"] / p["seconds"] for p in passes if "units" in p]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["seconds"] for p in procs),
        "work_per_s": statistics.median(rates) if rates else float("nan"),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in procs),
    }
    notes = {"samples": samples,
             "process_pass_s": [p["seconds"] for p in procs],
             "worker_pass_s": [p["seconds"] for p in passes],
             "work_units": sorted(checker.unit_counts)}
    return values, notes, info


def _chart_requests(ops) -> int:
    count = 0
    for op in ops:
        for text in op.inputs.values():
            scene = json.loads(text)
            if scene.get("kind") == "coordmap":
                count += len(scene["requests"])
    return count


def layer_values(names, ops, traced: list[dict], plain: list[dict], imports: dict) -> dict:
    """Per-layer metrics; times are medians over the traced passes."""
    def med(fn):
        return statistics.median(fn(run) for run in traced)

    def span(run, name, key):
        return run["spans"].get(name, {}).get(key, 0)

    def per(total, count, scale=1e6):
        return total * scale / count if count else 0.0

    first = traced[0]
    values = {"cli.import_s": imports["cli"], "cli.import.scipy_s": imports["scipy"],
              "cli.import.numpy_s": imports["numpy"],
              "cli.report_bytes": first["report_bytes"],
              "cli.skipped_points": first["skipped"],
              "surface.geodesic.steps": first["geodesic_steps"],
              "curve.bonnet.steps": first["bonnet_steps"]}
    values["surface.geodesic.us_per_step"] = med(lambda r: per(
        span(r, "surface.geodesic_integrate", "total_s"), values["surface.geodesic.steps"]))
    values["curve.bonnet.us_per_step"] = med(lambda r: per(
        span(r, "curve.bonnet_reconstruct", "total_s"), values["curve.bonnet.steps"]))
    values["expr.eval_jet.us_per_call"] = med(lambda r: per(
        span(r, "expr.eval_jet", "total_s"), span(r, "expr.eval_jet", "calls")))
    values["coords.eval_jet_per_point"] = per(first["eval_jet_under_coords"],
                                              _chart_requests(ops), 1.0)
    values["trace.overhead_ratio"] = (med(lambda r: r["seconds"])
                                      / statistics.median(p["seconds"] for p in plain))
    for name in names:
        if name in values:
            continue
        base, key = name.rsplit(".", 1)
        if key == "calls":
            values[name] = span(first, base, "calls")
        elif key == "self_s":
            values[name] = med(lambda r: span(r, base, "self_s"))
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return values


def traced_run(names, ops, scene_dir: Path, run_dir: Path, seconds: float,
               checker: Checker):
    imports, plain, traced = [], [], []
    worker = Worker(ops, scene_dir)
    try:
        info = worker.ask({"cmd": "info"})
        checker.check(worker.run_pass(run_dir / "warmup"))

        def in_process(trace: bool, runs: list):
            run = worker.run_pass(run_dir / f"{'t' if trace else 'p'}{len(runs)}", trace)
            checker.check(run)
            runs.append(run)

        samples = share_time(seconds, {
            "untraced": (0.4, lambda: in_process(False, plain)),
            "traced": (0.5, lambda: in_process(True, traced)),
            "imports": (0.1, lambda: imports.append(measure_imports()))})
    finally:
        worker.close()
    checker.consistent()
    calls = {json.dumps({k: v["calls"] for k, v in r["spans"].items()}, sort_keys=True)
             for r in traced}
    if len(calls) > 1:
        checker.failed += 1
        checker.errors.append("per-layer call counts differ between traced passes")
    good = [r for r in traced if "units" in r]
    plain = [r for r in plain if "units" in r]
    if not good or not plain:
        return dict.fromkeys(names, float("nan")), {}, info
    median_imports = {k: statistics.median(r[k] for r in imports) for k in imports[0]}
    values = layer_values(names, ops, good, plain, median_imports)
    notes = {"samples": samples,
             "chart_requests": _chart_requests(ops),
             "eval_jet_under_coords": good[0]["eval_jet_under_coords"],
             "work_units": sorted(checker.unit_counts)}
    return values, notes, info


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def git_commit():
    """The checkout's commit, if it is a git working tree; None otherwise.
    Git does not look above the checkout, so an enclosing repository's commit
    is never reported."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def baseline_status(workload: str, seed: int, digest: str) -> str:
    try:
        known = json.loads(BASELINE.read_text(encoding="utf-8"))["fingerprints"]
    except (OSError, KeyError, ValueError):
        return "no baseline file"
    want = known.get(workload, {}).get(str(seed))
    if want is None:
        return "no baseline for this seed"
    return "matches baseline" if want == digest else "differs from baseline"


def run_record(args, checker: Checker, worker: dict, notes: dict) -> dict:
    prints = checker.first_prints or {}
    digest = combined(prints)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": worker.get("python"), "numpy": worker.get("numpy"),
        "scipy": worker.get("scipy"), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "blas_env": BLAS_ENV, "load": "one process at a time, no extra threads",
        "notes": notes, "fingerprint": digest,
        "fingerprint_status": baseline_status(args.workload, args.seed, digest),
        "outputs_identical_across_passes": len(checker.digests) == 1,
        "files": prints, "errors": checker.errors[:20],
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn a termination request into an exception, so children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "tensorgeom" / "cli.py").is_file():
        print(f"bench: no tensorgeom sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    ops = scenes.build(args.workload, args.seed)
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    scene_dir = run_dir / "scenes"
    scene_dir.mkdir(parents=True)
    for op in ops:
        for name, text in op.inputs.items():
            (scene_dir / name).write_text(text, encoding="utf-8")
    checker = Checker(ops)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            values, notes, info = traced_run(list(units), ops, scene_dir, run_dir,
                                             args.seconds, checker)
        else:
            values, notes, info = timed_run(ops, scene_dir, run_dir, args.seconds, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record = run_record(args, checker, info, notes)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print("record " + json.dumps({k: v for k, v in record.items() if k != "files"},
                                 sort_keys=True))
    print(f"fingerprint {record['fingerprint']} ({record['fingerprint_status']}; "
          f"{len(record['files'])} files)")
    for err in checker.errors[:10]:
        print(f"FAILED {err}")
    for name, unit in units.items():
        moves = f"  (moves {metrics.MOVES[name]})" if args.trace else ""
        print(f"{args.workload} {name} = {values[name]!r} {unit}{moves}")
    # fail_ratio is printed, not a BENCHMARK.json metric: it is 0 when the
    # program is correct, and the result's attempted/failed carry it.
    print(f"{args.workload} fail_ratio = "
          f"{checker.failed / max(checker.attempted, 1)!r} "
          f"({checker.failed} of {checker.attempted} operations)")
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
