"""The output contract: every command's exit code and bytes stay as recorded.

Runs each command of the benchmark's pool through cli.main in process and
compares the exit code and the sha256 of stdout, and of the SVG a render
writes, with benchmarks/cli_digests.json.  That file is read, never
written: its keys are shlex.join(argv), so shlex.split gives each argv
back.  The commands at the CLI's caps, which the pool leaves out, are
pinned in AT_CAP below.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from tonnetz.cli import main

DIGESTS = json.loads((Path(__file__).parents[1] / "benchmarks" / "cli_digests.json").read_text())
SVG_NAME = "out.svg"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, argv):
    """(exit code, sha256 of stdout, sha256 of out.svg or None), in the working directory."""
    code = main(argv)
    out = capsys.readouterr().out.encode()
    svg = Path(SVG_NAME)
    digest = sha256(svg.read_bytes()) if svg.exists() else None
    svg.unlink(missing_ok=True)
    return code, sha256(out), digest


def test_every_pool_command_has_its_recorded_bytes(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert len(DIGESTS) == 100
    for line, want in DIGESTS.items():
        got = run(capsys, shlex.split(line))
        assert got == (want["exit"], want["stdout"], want.get("svg")), line


# the commands at the CLI's caps: the longest reduced word (2,000,000
# letters), a path of 99,993 flips with both its words, the largest
# render radius and two progressions of the most chords, 1,000; recorded
# before the walk that finds both words was rewritten
AT_CAP = {
    "reduce-2000000-letters": (
        ["reduce", "[1499999,-1500000,1]", "--json"],
        "04cecd0d115601836ca4ac7410a4da192ab116fec7dde2982b0bc244a09cea44",
        None,
    ),
    "path-99993-flips": (
        ["path", "C", "Cm[q=-12499]"],
        "38b197922a8ae676e9a66e0f79c65d44ca2b8f6646977b64d0500fcb9f571a9d",
        None,
    ),
    "path-99993-flips-json": (
        ["path", "C", "Cm[q=-12499]", "--json"],
        "9544ec5605d0ea05597494549a5ce7b533fe74027ec36615532b37cf092282a6",
        None,
    ),
    "render-radius-128": (
        ["render", "--center", "C", "--radius", "128", "--out", SVG_NAME],
        "b4e20cdc772664564b012a5e329d654e64a200a01eec2e0ea8f2ebec93be0c7f",
        "25500101ea150969a44732153342cdac115e9ef6d116dee53f49f1ccff8e836c",
    ),
    "analyze-1000-c": (
        ["analyze", *["C"] * 1000, "--json"],
        "5586c670a0613664f4ef7a74957735732c4760ab3859402deb04c6cd7c510d4e",
        None,
    ),
    "analyze-1000-spelled": (
        ["analyze", *["C", "Fbb", "Cx", "Ebm"] * 250, "--json"],
        "408f508b5a86d9f7ac57e52f7168526d4f445d297640cf23febfff7e2aee2505",
        None,
    ),
}


@pytest.mark.parametrize("name", AT_CAP)
def test_at_cap_command_has_its_recorded_bytes(capsys, monkeypatch, tmp_path, name):
    monkeypatch.chdir(tmp_path)
    argv, stdout, svg = AT_CAP[name]
    assert run(capsys, argv) == (0, stdout, svg)
