"""Self-tests of the benchmark: its oracles, its generators and its footprint.

    python3 benchmarks/selftest.py

Takes about a minute: one test makes a short traced run of the
progressions workload, which starts CLI processes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
sys.pycache_prefix = str(BUILD / "pycache")
sys.path.insert(0, str(ROOT / "src"))

import tonnetz as T  # noqa: E402

import cliload  # noqa: E402
import oracle as O  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def vertices(t) -> tuple:
    return O.vertices_of(t.root, t.up)


class OracleTests(unittest.TestCase):
    def test_strip_distance_matches_triangle_distance_on_radius_4_ball(self):
        ball = list(T.triangle_ball(T.BASE_TRIANGLE, 4))
        pairs = [(a, b) for a in ball for b in ball]
        self.assertEqual(len(pairs), 961)
        for a, b in pairs:
            self.assertEqual(O.strip_distance(vertices(a), vertices(b)), T.triangle_distance(a, b))

    def test_reference_arithmetic_matches_library_on_ball(self):
        for f in T.ball(6):
            word = f.reduced_word()
            own = O.BASE_VERTICES
            for i in word:
                own = O.flip_class(own, O.CLASS_OF_GENERATOR[i])
            tri = T.triangle_of(f)
            self.assertEqual(O.from_word(word), f.window)
            self.assertTrue(O.same_triangle(own, vertices(tri)))
            self.assertEqual(O.inverse(f.window), f.inverse().window)
            self.assertEqual(O.classify(f.window, len(word)), f.classify().value)
            self.assertEqual(O.center_coords(own), tuple(f.center_coords()))
            self.assertEqual(O.root_of(own), (tri.root, tri.up))
            vec, sigma = T.decompose(f)
            self.assertEqual(O.compose(O.translation_window(*vec), O.from_word(sigma.word)), f.window)

    def test_ascent_walks_have_exactly_the_requested_length(self):
        rng = random.Random(300)
        window, word, tri = O.element_of_length(300, rng)
        self.assertEqual(len(word), 300)
        self.assertEqual(T.AffinePermutation(*window).length(), 300)
        self.assertEqual(O.strip_distance(O.BASE_VERTICES, tri), 300)
        pair = workloads.make_pair(T, 300, rng)
        self.assertEqual(O.strip_distance(pair.start, pair.goal), 300)
        self.assertEqual(T.triangle_distance(pair.s, pair.t), 300)

    def test_plr_reference_follows_library_moves(self):
        for t in T.triangle_ball(T.BASE_TRIANGLE, 3):
            for letter in "PLR":
                moved = O.plr_move(vertices(t), letter)
                self.assertTrue(O.same_triangle(moved, vertices(T.apply_plr(t, letter))))


class GeneratorTests(unittest.TestCase):
    @staticmethod
    def first_block(name: str, seed: int) -> list:
        if name == "cli":
            w = workloads.Cli(None, seed, BUILD)
            return [c.argv for c in next(w.blocks())]
        if name == "progressions":
            return [p.symbols for p in next(workloads.Progressions(T, seed).blocks())]
        return [
            (r.window, r.other) if isinstance(r, workloads.Element) else (r.start, r.goal)
            for r in next(workloads.LongRange(T, seed).blocks())
        ]

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.first_block(name, 7), self.first_block(name, 7))
                self.assertNotEqual(self.first_block(name, 7), self.first_block(name, 8))

    def test_every_cli_command_has_a_recorded_digest(self):
        digests = json.loads(cliload.DIGESTS.read_text())
        for _, argv, code in cliload.POOL + cliload.PROBE:
            if argv[0] != "verify":
                self.assertEqual(digests[cliload.key(argv)]["exit"], code)


class HarnessTests(unittest.TestCase):
    def test_benchmark_json_lists_what_the_harness_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.per_layer_spec())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))

    def test_traced_run_is_correct_and_writes_nothing_under_src_or_tests(self):
        def snapshot():
            return {
                str(p): (p.stat().st_size, p.stat().st_mtime_ns)
                for d in ("src", "tests")
                for p in sorted((ROOT / d).rglob("*"))
            }

        before = snapshot()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "progressions",
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(snapshot(), before)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [n for n, _, _ in run.per_layer_spec()])

    def test_refuses_to_run_without_the_sources(self):
        bare = BUILD / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "cli",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
