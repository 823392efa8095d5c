"""Run the benchmark on every workload and print each metric by name and unit.

    python3 benchmarks/report.py                      # one run per workload
    python3 benchmarks/report.py --seeds 1-10         # spread across ten seeds
    python3 benchmarks/report.py --trace 1            # per-layer metrics
    python3 benchmarks/report.py --seeds 1-10 --out benchmarks/baseline.json

For each workload it prints the oracle verdict (attempted, failed and
their ratio) and, per metric, the median over the runs and the spread
(third minus first quartile, as a share of the median) next to the
metric's bound from BENCHMARK.json.  Exits 1 if any oracle check failed
or any run did not produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text.strip("-"):
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median)."""
    mid = median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = SPEC["per_layer" if args.trace else "end_to_end"]
    ok = True
    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: no result")
                ok = False
                continue
            runs.append(result)
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics[:8]
            )
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"\n== {workload}: oracle {'PASS' if correct else 'FAIL'}, "
              f"{attempted} checked, {failed} failed, failed_ratio {failed / attempted:.4g}")
        rows = {}
        for m in metrics:
            name = m["name"]
            mid, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            bound = m.get("bound")
            flag = "" if bound is None else ("ok" if rel <= bound / 3 else "WIDE" if rel > bound else "near")
            print(f"  {name:48s} {mid:14.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.3f}" + (f" bound {bound} {flag}" if bound is not None else ""))
            rows[name] = {"unit": m["unit"], "median": mid, "q1": q1, "q3": q3, "spread": rel}
        summary["workloads"][workload] = {
            "runs": len(runs), "attempted": attempted, "failed": failed, "metrics": rows,
        }
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
