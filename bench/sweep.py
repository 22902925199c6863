"""Run the benchmark over several seeds and summarize the spread.

Usage (from the repository root)::

    python3 bench/sweep.py --workloads grid march query --seeds 1-10
    python3 bench/sweep.py ... --write-baseline

For each workload and metric it prints the median over the seeds and the
quartile spread (Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives
the quartiles; this spread is what a metric's bound in BENCHMARK.json must
cover.  ``--write-baseline`` stores the medians, spreads and per-seed output
fingerprints in ``bench/baseline.json``, against which every run reports
whether its outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = BENCH.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, cwd=BENCH.parent, check=True)
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[7:])
    return json.loads(lines[-1]), record


def spread(values: list[float]) -> tuple[float, float | None]:
    """Median and (Q3 - Q1) / median; the spread is None for a zero median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else None


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args()

    summary, prints, failures = {}, {}, 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            result, record = run_once(workload, seed, args.seconds, args.trace)
            failures += result["failed"] + (not result["correct"])
            prints.setdefault(workload, {})[str(seed)] = record["fingerprint"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                             if args.trace == 0), flush=True)
        summary[workload] = {}
        for name, vals in values.items():
            med, rel = spread(vals)
            summary[workload][name] = {"median": med, "quartile_spread": rel, "runs": len(vals)}
            print(f"  {workload} {name}: median {med:.6g}  spread {rel}")
    if args.write_baseline:
        path = BENCH / "baseline.json"
        data = json.loads(path.read_text()) if path.exists() else {}
        for workload, by_seed in prints.items():
            data.setdefault("fingerprints", {}).setdefault(workload, {}).update(by_seed)
        key = "per_layer" if args.trace else "end_to_end"
        data.setdefault(key, {}).update(summary)
        data[f"{key}_settings"] = {"seeds": args.seeds, "seconds": args.seconds}
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
