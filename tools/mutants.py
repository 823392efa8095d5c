"""Replay the mutation corpus against the tier-1 tests.

Each record of mutants.json names one fault: the file it edits, the exact
text it replaces (which must occur there exactly once), the new text, a
note, the CHANGES.md entry that recorded it (pr) and a status.  A live
mutant must be killed, that is, make tier-1 fail; a retired one targets
code that is gone, and an equivalent one changes no behaviour, so neither
is run.

For each live mutant the runner copies the repository's files (those git
tracks, plus new ones it does not ignore) into a temporary directory,
applies the replacement there and runs tier-1 in a child process under a
wall-clock timeout and an address-space limit.  It prints one line per
mutant: killed, with the first failing test (every one with
--all-failures), or survived, timed out or out of memory.  The mutated
module's own test file runs first and the acceptance tests last, so the
first failing test named is a unit test where one fails, and a mutant that
its module's tests kill is killed in seconds.  It exits 1 if any live
mutant is not killed.

Before any tier-1 run it reads every record against the repository: the
old text of a live or equivalent record must occur in its file exactly
once, and that of a retired record not at all.  A stale record would
replay nothing, or claim code gone that is still there, so the runner
names each one and exits 1.  Then it replays the unmutated copy under the
same conditions as a mutant.  If tier-1 fails there, a kill would say
nothing about the mutant, so the runner prints the failing tests and
exits 1 without replaying any.

    python tools/mutants.py [--all-failures] [--repo DIR]

Stdlib only; pytest does not collect it.  Each replay is one tier-1 run,
so the whole corpus takes minutes.
"""

import argparse
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "mutants.json"
# tier-1 takes about 15 s and peaks near 120 MB resident; a fault that makes
# it loop or grow without bound is stopped at these limits
TIMEOUT_S = 300
MEMORY_BYTES = 2**30
STATUSES = ("live", "retired", "equivalent")
FIELDS = ("id", "pr", "file", "old", "new", "note", "status")
# tier-1 as ROADMAP.md gives it, with a fixed hypothesis seed so a replay
# draws the same examples each time, and no cache written into the copy
TIER1 = [
    "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-p", "no:cacheprovider", "--hypothesis-seed=0", "-rfE",
]


# a MemoryError that was raised: pytest's exception line (E MemoryError),
# also inside a hypothesis exception group (| E MemoryError), or the last
# line of a bare traceback; a failing test's printed source that merely
# names MemoryError does not match
RAISED_MEMORY_ERROR = re.compile(r"^(?:\s*\| )?(?:E\s+)?MemoryError\b", re.MULTILINE)


def load(path: Path) -> list[dict]:
    records = json.loads(path.read_text())
    ids = [r.get("id") for r in records]
    for r in records:
        if set(r) != set(FIELDS) or r["status"] not in STATUSES:
            raise SystemExit(f"{path}: malformed record {r.get('id')!r}")
        if ids.count(r["id"]) > 1:
            raise SystemExit(f"{path}: duplicate id {r['id']!r}")
    return records


def stale(repo: Path, records: list[dict]) -> list[str]:
    """The records whose old text does not match their status in repo."""
    out = []
    for r in records:
        target = repo / r["file"]
        found = target.read_text().count(r["old"]) if target.is_file() else 0
        want = 0 if r["status"] == "retired" else 1
        if found != want:
            out.append(f"{r['id']}: {r['status']}, old text occurs {found} times "
                       f"in {r['file']}, not {want}")
    return out


def copy_tree(repo: Path, dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=repo, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        src = repo / name
        if src.is_file():  # a tracked file deleted in the work tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def apply(root: Path, record: dict) -> None:
    target = root / record["file"]
    text = target.read_text()
    found = text.count(record["old"])
    if found != 1:
        raise ValueError(f"old text occurs {found} times in {record['file']}, not once")
    target.write_text(text.replace(record["old"], record["new"]))


def test_modules(root: Path, record: dict | None) -> list[str]:
    """tier-1's test modules: first tests/test_<stem>.py of the file the
    record mutates, where there is one, since its own tests are likely to
    fail first and fast; tests/test_acceptance.py last, since an acceptance
    test runs many functions at once, so naming it says little."""
    own = f"test_{Path(record['file']).stem}.py" if record is not None else None
    names = sorted(p.name for p in (root / "tests").glob("test_*.py"))
    names.sort(key=lambda name: (name != own, name == "test_acceptance.py"))
    return [f"tests/{name}" for name in names]


def failures(output: str) -> list[str]:
    """The test ids of pytest's short summary, FAILED and ERROR lines."""
    out = []
    for line in output.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("FAILED", "ERROR") and rest:
            out.append(rest.split(" - ")[0])
    return out


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def replay(repo: Path, record: dict | None, all_failures: bool) -> tuple[str, list[str]]:
    """Run tier-1 on a copy mutated by record (unmutated if None); return
    the outcome and the failing tests."""
    with tempfile.TemporaryDirectory(prefix="tonnetz-mutant-") as tmp:
        root = Path(tmp)
        copy_tree(repo, root)
        try:
            if record is not None:
                apply(root, record)
        except ValueError as exc:
            return f"not applied: {exc}", []
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, *TIER1, *([] if all_failures else ["-x"]), *test_modules(root, record)]
        proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, preexec_fn=limit_memory, start_new_session=True,
        )
        try:
            output, _ = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            # the tests start processes of their own; end the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "timed out", []
    if RAISED_MEMORY_ERROR.search(output):
        return "out of memory", failures(output)
    if proc.returncode == 0:
        return "survived", []
    killers = failures(output)
    if not killers:
        return f"error: pytest exited {proc.returncode}", []
    return "killed", killers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all-failures", action="store_true",
                        help="run all of tier-1 and list every test that kills a mutant")
    parser.add_argument("--repo", type=Path, default=HERE.parent,
                        help="the checkout to mutate (default: this one)")
    args = parser.parse_args(argv)

    records = load(CORPUS)
    repo = args.repo.resolve()
    bad = stale(repo, records)
    if bad:
        print("stale records; no tier-1 run", *(f"    {b}" for b in bad), sep="\n")
        return 1
    start = time.perf_counter()
    outcome, failed = replay(repo, None, all_failures=True)
    said = {"survived": "passed", "killed": "failed"}.get(outcome, outcome)
    print(f"unmutated: {said} ({time.perf_counter() - start:.1f} s)", flush=True)
    if outcome != "survived":
        print("tier-1 does not pass on the unmutated copy; no mutant replayed",
              *(f"    {k}" for k in failed), sep="\n")
        return 1
    missed = []
    times = []
    for record in records:
        if record["status"] != "live":
            print(f"{record['id']}: {record['status']}, not run")
            continue
        t0 = time.perf_counter()
        outcome, killers = replay(repo, record, args.all_failures)
        seconds = time.perf_counter() - t0
        times.append((seconds, record["id"]))
        head = f"{record['id']}: {outcome} ({seconds:.1f} s)"
        if args.all_failures:
            print(head, *(f"    {k}" for k in killers), sep="\n", flush=True)
        else:
            print(head + (f" by {killers[0]}" if killers else ""), flush=True)
        if outcome != "killed":
            missed.append(record["id"])
    if times:
        slowest = max(times)
        print(f"{len(times)} live mutants, {len(times) - len(missed)} killed, "
              f"{time.perf_counter() - start:.0f} s in all; "
              f"slowest {slowest[1]} ({slowest[0]:.1f} s)")
    if missed:
        print(f"not killed: {', '.join(missed)}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
