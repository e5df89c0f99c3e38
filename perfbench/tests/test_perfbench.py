"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py the way the benchmark is run, on
reduced-size inputs (--scale), so a full pass over every workload in both
modes stays short. The first test to run builds the benchmark (about a
minute on 4 cores).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SCALE = "0.05"
SECONDS = "1"

# End-to-end metrics printed by name and unit beside the gated ones: on
# every workload, and on wire_mixed only.
PRINTED = {"query_p50_ms": "ms"}
WIRE_ONLY = {"query_p99_ms": "ms", "append_p50_ms": "ms",
             "append_p99_ms": "ms"}
# Per-layer counts that must repeat exactly for a seed.
EXACT_COUNTS = ("engine.cache_hit_share", "core.positions_examined_share",
                "core.suffix_classes_enumerated",
                "core.suffix_candidates_scored",
                "seq.prefix_counts_builds_per_query")


def run(workload, seed, trace, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
        check=False)


class Output:
    """The parsed standard output of one run."""

    def __init__(self, test, done):
        test.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.rstrip("\n").split("\n")
        self.result = json.loads(lines[-1])
        self.printed = [line.split()[1:] for line in lines
                        if line.startswith("metric ")]
        self.names = [name for name, _, _ in self.printed]
        self.units = {name: unit for name, _, unit in self.printed}
        self.values = {name: float(value) for name, value, _ in self.printed}


class PerfbenchTest(unittest.TestCase):

    def expect_contract(self, out, metrics):
        self.assertTrue(out.result["correct"])
        self.assertEqual(out.result["failed"], 0)
        self.assertGreaterEqual(out.result["attempted"], 1)
        self.assertEqual(len(out.names), len(set(out.names)),
                         "a metric printed twice")
        gated = out.result["metrics"]
        self.assertEqual(set(gated), {m["name"] for m in metrics})
        for metric in metrics:
            self.assertEqual(gated[metric["name"]]["unit"], metric["unit"])
            self.assertEqual(out.units[metric["name"]], metric["unit"])

    def test_end_to_end_metrics_print_once_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = Output(self, run(workload, 7, 0))
                self.expect_contract(out, BENCHMARK["end_to_end"])
                for metric in BENCHMARK["end_to_end"]:
                    self.assertGreater(out.result["metrics"][metric["name"]]
                                       ["value"], 0.0)
                self.assertEqual(out.units["failed_share"], "fraction")
                self.assertEqual(out.values["failed_share"], 0.0)
                printed = dict(PRINTED)
                if workload == "wire_mixed":
                    printed.update(WIRE_ONLY)
                for name, unit in printed.items():
                    self.assertEqual(out.units[name], unit)
                    self.assertGreater(out.values[name], 0.0)

    def test_per_layer_metrics_print_once_with_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                out = Output(self, run(workload, 7, 1))
                self.expect_contract(out, BENCHMARK["per_layer"])

    def test_counts_repeat_exactly_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = Output(self, run(workload, 11, 1)).result["metrics"]
                second = Output(self, run(workload, 11, 1)).result["metrics"]
                for name in EXACT_COUNTS:
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"], name)

    def test_refuses_to_run_without_the_program_sources(self):
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run(WORKLOADS[0], 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
