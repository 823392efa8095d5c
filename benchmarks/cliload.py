"""The cli workload's commands, and the runner that starts one process per request.

Every command in POOL has its exit code and the SHA-256 of its stdout
(and of the SVG it writes, for render) recorded in cli_digests.json at
the commit that defined the benchmark; a request passes only on the same
exit code and identical bytes.  `verify` is checked by its verdict line
instead, since its output is meant to grow per-suite timings.

    python3 benchmarks/cliload.py    # re-record cli_digests.json
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_digests.json"
SVG_NAME = "out.svg"
TIMEOUT_S = 120

# (command, arguments): short commands with small inputs
SHORT = [
    ("reduce", ["reduce", "[-3,2,1]"]),
    ("reduce", ["reduce", "s1 s2 s3 s1 s2"]),
    ("reduce", ["reduce", "C#m"]),
    ("mult", ["mult", "s3", "s1"]),
    ("mult", ["mult", "[-3,1,2]", "[-2,2,0]"]),
    ("mult", ["mult", "s1 s2", "F"]),
    ("classify", ["classify", "s2 s3 s2"]),
    ("classify", ["classify", "[2,-3,1]"]),
    ("classify", ["classify", "s1 s2 s3 s1 s2 s3 s1"]),
    ("classify", ["classify", "Ebm"]),
    ("chord", ["chord", "s1 s2"]),
    ("chord", ["chord", "[1,-3,2]"]),
    ("chord", ["chord", "s3 s2 s1 s3"]),
    ("locate", ["locate", "C"]),
    ("locate", ["locate", "F#m"]),
    ("locate", ["locate", "Ebm[q=-1]"]),
    ("path", ["path", "C", "G"]),
    ("path", ["path", "C", "F#m"]),
    ("path", ["path", "Ab", "E#"]),
    ("path", ["path", "Cx", "Ebm"]),
    ("hexagon", ["hexagon", "C"]),
    ("hexagon", ["hexagon", "Am"]),
    ("hexagon", ["hexagon", "Bb"]),
    ("stripe", ["stripe", "C", "--kind", "fifths", "--count", "2"]),
    ("stripe", ["stripe", "Em", "--kind", "hexatonic"]),
    ("stripe", ["stripe", "F#", "--kind", "octatonic", "--count", "4"]),
    ("analyze", ["analyze", "C", "Am", "F", "G"]),
    ("analyze", ["analyze", "C#m", "A", "D"]),
    ("analyze", ["analyze", "Ebm", "Cb", "Gb[q=-1]", "Db"]),
    ("analyze", ["analyze", "E#", "Cx", "G#m", "D#"]),
    ("riemann.mult", ["riemann", "mult", "Q^1 Z^2", "W"]),
    ("riemann.mult", ["riemann", "mult", "Q^-1 Z^0 W", "Q^3 Z^1"]),
    ("riemann.mult", ["riemann", "mult", "Q^2 Z^-3", "Q^-2 Z^3"]),
    ("riemann.quotient", ["riemann", "quotient", "(1,-1,0)"]),
    ("riemann.quotient", ["riemann", "quotient", "(3,4,1)"]),
    ("riemann.quotient", ["riemann", "quotient", "(12,12,0)"]),
    ("riemann.comma", ["riemann", "comma", "(3,0,0)"]),
    ("riemann.comma", ["riemann", "comma", "(0,4,0)"]),
    ("riemann.comma", ["riemann", "comma", "(1,2,1)"]),
]

RENDER = [
    ["render", "--center", center, "--radius", "8", "--labels", labels, "--out", SVG_NAME]
    for center in ("C", "F#m")
    for labels in ("notes", "windows", "chords")
]

# malformed input: exit 1 for a domain error, 2 for a usage error
MALFORMED = [
    (["reduce", "[1,2]"], 1),
    (["reduce", "[0,0,0]"], 1),
    (["chord", "H"], 1),
    (["path", "C", "Xm"], 1),
    (["analyze", "C", "G", "Cm7"], 1),
    (["riemann", "quotient", "(1,2)"], 1),
    (["riemann", "mult", "Q^1 Q^2", "W"], 1),
    (["stripe", "C", "--kind", "blues"], 2),
    (["path", "C"], 2),
    (["frobnicate"], 2),
]

# (command, arguments, expected exit code)
POOL = (
    [(cmd, argv + form, 0) for cmd, argv in SHORT for form in ([], ["--json"])]
    + [("render", argv + form, 0) for argv in RENDER for form in ([], ["--json"])]
    + [(argv[0], argv, code) for argv, code in MALFORMED]
)

VERIFY = ["verify", "--suite", "all", "--radius", "6"]

# one command line per CLI command, for the per-command latencies
_FIRST: dict[str, list[str]] = {}
for _cmd, _argv in SHORT:
    _FIRST.setdefault(_cmd, _argv)
PROBE = [(cmd, argv, 0) for cmd, argv in _FIRST.items()] + [
    ("render", RENDER[0], 0),
    ("verify", VERIFY, 0),
]

_VERDICT = re.compile(r"(\d+)/(\d+) checks passed")


def key(argv: list[str]) -> str:
    return shlex.join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CliRunner:
    """Starts `python3 -m tonnetz.cli` processes on the checkout's sources."""

    def __init__(self, root: Path, build: Path):
        self.work = build / "cli"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(root / "src"),
            "PYTHONPYCACHEPREFIX": str(build / "pycache"),
        }
        self.digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}

    def python(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run the interpreter on args; wall seconds include process start and exit."""
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.work,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=TIMEOUT_S,
        )
        return perf_counter() - t0, proc

    def run(self, argv: list[str], trace_out: Path | None = None, mode: str = "library"):
        """(seconds, process, svg bytes or None) for one CLI command."""
        if trace_out is None:
            args = ["-m", "tonnetz.cli", *argv]
        else:
            args = [str(HERE / "cli_child.py"), str(trace_out), mode, "--", *argv]
        svg_path = self.work / SVG_NAME
        try:
            seconds, proc = self.python(args)
            svg = svg_path.read_bytes() if svg_path.exists() else None
        finally:
            svg_path.unlink(missing_ok=True)
        return seconds, proc, svg

    def check(self, argv: list[str], expected_exit: int, proc, svg) -> str | None:
        """None if the command behaved as recorded, else what differed."""
        if proc.returncode != expected_exit:
            return f"{key(argv)}: exit {proc.returncode}, expected {expected_exit}"
        if argv[0] == "verify":
            lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
            m = _VERDICT.fullmatch(lines[-1]) if lines else None
            if m is None or m.group(1) != m.group(2):
                return f"{key(argv)}: verdict {lines[-1:]}"
            return None
        want = self.digests.get(key(argv))
        if want is None:
            return f"{key(argv)}: no recorded digest"
        if want["exit"] != proc.returncode or want["stdout"] != sha256(proc.stdout):
            return f"{key(argv)}: stdout differs from the recorded bytes"
        if want.get("svg") != (sha256(svg) if svg is not None else None):
            return f"{key(argv)}: SVG differs from the recorded bytes"
        return None


def record(root: Path, build: Path) -> None:
    """Run every pool command twice and write the digests both runs agree on."""
    runner = CliRunner(root, build)
    out = {}
    for _, argv, expected in POOL:
        seen = []
        for _ in range(2):
            _, proc, svg = runner.run(argv)
            entry = {"exit": proc.returncode, "stdout": sha256(proc.stdout)}
            if svg is not None:
                entry["svg"] = sha256(svg)
            seen.append(entry)
        if seen[0] != seen[1] or seen[0]["exit"] != expected:
            raise SystemExit(f"{key(argv)}: unstable or unexpected result {seen}")
        out[key(argv)] = seen[0]
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out)} commands in {DIGESTS}")


if __name__ == "__main__":
    _root = HERE.parent
    sys.pycache_prefix = str(_root / ".bench_build" / "pycache")
    record(_root, _root / ".bench_build")
