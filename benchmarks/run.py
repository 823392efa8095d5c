"""Benchmark of the tonnetz library and CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the checkout that holds this directory,
importing tonnetz from its src/ and writing only under .bench_build/.
One closed-loop client in one process sends the next request when the
previous one has completed; the cli workload starts one interpreter per
request.  Each answer is checked against oracle.py (or recorded digests)
outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 times a fixed
request set untraced and again traced, and reports per-layer metrics:
calls and self time per function, work counts, the ladder probe, the
CLI command probe and the verify suites.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")

import cliload  # noqa: E402
import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("progressions", "long-range", "cli")
MIN_REQUESTS = 200  # so that at least ten samples lie beyond the 95th percentile
CAP_SECONDS = 120  # stop after the current block, whatever the request count
SETUP_RUNS = 15
VERDICT_RUNS = 9
PROBE_RUNS = 3

SETUP_CODE = (
    "import time; t = time.perf_counter(); import tonnetz, tonnetz.cli; "
    "print(time.perf_counter() - t)"
)

VERIFY_SUITES = (
    "bijection", "center-distance", "hexagons", "isometries", "length-oracle",
    "pitch", "progressions", "reduce", "relations", "render", "riemann-p",
    "riemann-r", "translations", "vertex-classes", "windows",
)

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("verdict_s", "s", "lower"),
]


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in tracing.SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    spec += [(f"{name}.calls", "count", "lower") for name in tracing.COUNT_FUNCTIONS]
    spec += [
        ("progressions.plr_path.useful_ratio", "ratio", "higher"),
        ("progressions.analyze.candidates_per_chord", "count", "lower"),
        ("riemann.self_ms", "ms", "lower"),
        ("render.bytes", "bytes", "lower"),
    ]
    spec += [(f"verify.{s}.self_ms", "ms", "lower") for s in VERIFY_SUITES]
    spec += [("verify.cases", "count", "higher"), ("cli.import_ms", "ms", "lower")]
    spec += [(f"cli.{name}.p50_ms", "ms", "lower") for name, _, _ in cliload.PROBE]
    for name, (lower, upper, _) in workloads.LADDER_SLOPES.items():
        size = lower[0]
        rungs = workloads.L_RUNGS if size == "L" else workloads.D_RUNGS
        spec += [(f"{name}.{size}{n}.p50_us", "us", "lower") for n, _ in rungs]
        spec.append((f"{name}.slope", "1", "lower"))
    spec.append(("trace.overhead_ratio", "ratio", "higher"))
    return spec


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Checked operations and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)
            if len(self.failures) <= 5:
                print(f"FAIL: {error}", file=sys.stderr)


def serve(workload, blocks, tally: Tally, seconds: float | None, tracer=None, between=None):
    """Send each request after the previous completes.

    Returns the latencies in seconds, scaled to the nominal host speed
    (see hostspeed), and the raw latencies.

    With `seconds`, stop after the first whole block that ends once both
    `seconds` have passed and MIN_REQUESTS are done, or CAP_SECONDS have
    passed; otherwise run every block given.  A tracer given gets each
    request's index as its request id; `between`, if given, is called
    with the seconds elapsed before each request.
    """
    latencies: list[float] = []
    raw: list[float] = []
    began = perf_counter()
    for block in blocks:
        for req in block:
            if between is not None:
                between(perf_counter() - began)
            if tracer is not None:
                tracer.request_id = len(latencies)
            before = hostspeed.factor()
            t0 = perf_counter()
            try:
                out = workload.execute(req)
                error = None
            except Exception as exc:  # an unexpected exception fails the request
                error = f"{type(exc).__name__}: {exc}"
            raw.append(perf_counter() - t0)
            latencies.append(raw[-1] * (before + hostspeed.factor()) / 2)
            tally.add(error or workload.check(req, out))
        if seconds is not None:
            elapsed = perf_counter() - began
            if (elapsed >= seconds and len(latencies) >= MIN_REQUESTS) or elapsed >= CAP_SECONDS:
                break
    return latencies, raw


def measure_setup(runner: cliload.CliRunner, tally: Tally) -> tuple[float, float]:
    """Median scaled seconds for a fresh interpreter to import tonnetz, and the import alone in ms."""
    walls, imports = [], []
    for _ in range(SETUP_RUNS):
        (raw, proc), seconds = hostspeed.measure(runner.python, ["-c", SETUP_CODE])
        tally.add(None if proc.returncode == 0 else f"import failed: {proc.stderr[-300:]!r}")
        walls.append(seconds)
        if proc.returncode == 0:
            imports.append(float(proc.stdout) * seconds / raw)  # scaled alike
    return median(walls), median(imports) * 1e3 if imports else 0.0


def run_command(runner: cliload.CliRunner, argv, expected: int, tally: Tally) -> float:
    """Scaled wall seconds of one checked CLI command."""
    (_, proc, svg), seconds = hostspeed.measure(runner.run, argv)
    tally.add(runner.check(argv, expected, proc, svg))
    return seconds


def make_workload(name: str, seed: int, runner, trace_dir: Path):
    if name == "cli":
        return workloads.Cli(runner, seed, trace_dir)
    import tonnetz

    cls = workloads.Progressions if name == "progressions" else workloads.LongRange
    return cls(tonnetz, seed)


def end_to_end(args, runner, tally: Tally) -> dict[str, float]:
    setup_s, _ = measure_setup(runner, tally)
    workload = make_workload(args.workload, args.seed, runner, BUILD / "trace")
    workload.warmup()
    verdicts: list[float] = []

    def verify_when_due(elapsed: float) -> None:
        # spread the verify runs over the run, so they see its varying host speed
        if len(verdicts) < VERDICT_RUNS and elapsed >= len(verdicts) * args.seconds / VERDICT_RUNS:
            verdicts.append(run_command(runner, cliload.VERIFY, 0, tally))

    latencies, raw = serve(workload, workload.blocks(), tally, args.seconds, between=verify_when_due)
    while len(verdicts) < VERDICT_RUNS:
        verdicts.append(run_command(runner, cliload.VERIFY, 0, tally))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    print(
        f"{args.workload}: {len(latencies)} requests; raw p50 {median(raw) * 1e3:.4g} ms, "
        f"raw p95 {nearest_rank(raw, 0.95) * 1e3:.4g} ms, host speed "
        f"{sum(latencies) / sum(raw):.3g}x nominal",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p95_ms": nearest_rank(latencies, 0.95) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "verdict_s": median(verdicts),
    }


def traced(args, runner, tally: Tally) -> dict[str, float]:
    import tonnetz

    trace_dir = BUILD / "trace" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    _, import_ms = measure_setup(runner, tally)
    workload = make_workload(args.workload, args.seed, runner, trace_dir)
    source = workload.blocks()
    fixed = [next(source) for _ in range(workload.traced_blocks)]
    workload.warmup()
    plain = sum(serve(workload, fixed, tally, None)[0])

    if args.workload == "cli":
        workload.tracing = True
        with_trace = sum(serve(workload, fixed, tally, None)[0])
        dumps = [json.loads(p.read_text()) for p in workload.trace_files if p.exists()]
    else:
        tracer = tracing.Tracer()
        tracer.install(library=True)
        try:
            with_trace = sum(serve(workload, fixed, tally, None, tracer)[0])
        finally:
            tracer.uninstall()
        dumps = [tracer.dump()]

    verify_out = trace_dir / "verify.json"
    _, proc, svg = runner.run(cliload.VERIFY, verify_out, mode="suites")
    tally.add(runner.check(cliload.VERIFY, 0, proc, svg))
    verify_dump = json.loads(verify_out.read_text())
    tracing.write_spans(dumps + [verify_dump], trace_dir / "spans.tsv")

    probe: dict[str, list[float]] = {}
    for _ in range(PROBE_RUNS):
        for name, argv, code in cliload.PROBE:
            probe.setdefault(name, []).append(run_command(runner, argv, code, tally))

    ladder = workloads.ladder(tonnetz, args.seed, tally)

    s = tracing.summarize(dumps)
    calls, self_ms, counts = s["calls"], s["self_ms"], s["counts"]
    metrics: dict[str, float] = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    for name in tracing.COUNT_FUNCTIONS:
        metrics[f"{name}.calls"] = counts.get(name, 0)
    moves = counts.get("progressions.apply_move", 0)
    letters = counts.get("progressions.plr_path.letters", 0)
    chords = counts.get("progressions.analyze.chords", 0)
    metrics["progressions.plr_path.useful_ratio"] = letters / moves if moves else 0.0
    metrics["progressions.analyze.candidates_per_chord"] = (
        s["analyze_triangle_distance_calls"] / chords if chords else 0.0
    )
    metrics["riemann.self_ms"] = sum(v for k, v in self_ms.items() if k.startswith("riemann."))
    metrics["render.bytes"] = counts.get("render.bytes", 0)
    v = tracing.summarize([verify_dump])
    for suite in VERIFY_SUITES:
        metrics[f"verify.{suite}.self_ms"] = v["self_ms"].get(f"verify.{suite}", 0.0)
    metrics["verify.cases"] = v["counts"].get("verify.cases", 0)
    metrics["cli.import_ms"] = import_ms
    for name, times in probe.items():
        metrics[f"cli.{name}.p50_ms"] = median(times) * 1e3
    metrics.update(ladder)
    metrics["trace.overhead_ratio"] = plain / with_trace
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tonnetz" / "__init__.py").is_file():
        print(f"error: no tonnetz sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    hostspeed.pin()
    runner = cliload.CliRunner(ROOT, BUILD)
    tally = Tally()
    if args.trace:
        values = traced(args, runner, tally)
        spec = per_layer_spec()
    else:
        values = end_to_end(args, runner, tally)
        spec = END_TO_END
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
