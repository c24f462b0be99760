"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _workdir(case: unittest.TestCase) -> Path:
    """A fresh directory under the checkout, removed after the test."""
    parent = run.ROOT / ".perfbench" / "tests"
    parent.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=parent))
    case.addCleanup(shutil.rmtree, work)
    return work


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_span_tree(self):
        """outer [0, 10] calls inner [1, 4] and hot [5, 8]; hot calls
        hot_leaf twice for 1 s each; inner calls hot_leaf for 1 s."""
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def leaf():
            clock.advance(1)

        hot_leaf = tracer.wrap("hot_leaf", leaf, hot=True)

        def hot_body():
            clock.advance(0.5)
            hot_leaf()
            hot_leaf()
            clock.advance(0.5)

        hot = tracer.wrap("hot", hot_body, hot=True)

        def inner_body():
            clock.advance(1)
            hot_leaf()
            clock.advance(1)

        inner = tracer.wrap("inner", inner_body)

        def outer_body():
            clock.advance(1)
            inner()
            clock.advance(1)
            hot()
            clock.advance(2)

        tracer.wrap("outer", outer_body)()

        self.assertEqual(tracer.self_s, {"outer": 4.0, "inner": 2.0, "hot": 1.0, "hot_leaf": 3.0})
        self.assertEqual(sum(tracer.self_s.values()), 10.0)
        self.assertEqual(tracer.calls, {"outer": 1, "inner": 1, "hot": 1, "hot_leaf": 3})
        # Coarse calls are spans [name, start, end, parent, self]; hot ones are not.
        self.assertEqual(tracer.spans, [["outer", 0.0, 10.0, -1, 4.0], ["inner", 1.0, 4.0, 0, 2.0]])
        self.assertEqual(tracer.leaves, {
            ("inner", "hot_leaf"): [1, 1.0, 1.0],
            ("outer", "hot"): [1, 3.0, 1.0],
            ("hot", "hot_leaf"): [2, 2.0, 2.0],
        })

    def test_exception_still_closes_the_call(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def failing():
            clock.advance(2)
            raise ValueError("boom")

        wrapped = tracer.wrap("failing", failing)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(tracer.self_s, {"failing": 2.0})
        self.assertEqual(tracer._stack, [])


def _child(plan_doc: dict, mode: str, work: Path) -> dict:
    plan_file = work / "plan.json"
    plan_file.write_text(json.dumps(plan_doc), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-I", str(HERE / "child.py"), str(plan_file), mode],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _plan(work: Path, argv: list[str]) -> dict:
    return {"root": str(run.ROOT), "out": str(work / "out"), "spans": str(work / "spans.jsonl"),
            "scenarios": {}, "ops": [{"name": "sim", "part": "simulation", "argv": argv}]}


class OutputCheckTest(unittest.TestCase):
    def setUp(self):
        self.work = _workdir(self)
        out = self.work / "out" / "sim"
        self.result = _child(
            _plan(self.work, ["simulate", "--preset", "S-M", "--compare", "--repetitions", "2", "--out", str(out)]),
            "body", self.work)
        self.out = self.work / "out"
        self.expected = {"outputs": {"sim": checks.digest_tree(out)}}

    def failures(self, expected):
        return run.check_body("overload", self.result, self.out, expected)["sim"]

    def test_unaltered_outputs_pass(self):
        self.assertEqual(self.failures(self.expected), [])
        self.assertEqual(self.failures(None), [])

    def test_one_byte_altered_csv_is_a_failure(self):
        path = self.out / "sim" / "queues.csv"
        data = bytearray(path.read_bytes())
        index = data.rindex(b"0")
        data[index] = ord("1")
        path.write_bytes(bytes(data))
        found = self.failures(self.expected)
        self.assertEqual(len(found), 1)
        self.assertIn("queues.csv", found[0])

    def test_decreasing_cumulative_utility_breaks_an_invariant(self):
        path = self.out / "sim" / "utility.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        day, run_index, allocator, _ = lines[-1].split(",")
        lines[-1] = ",".join([day, run_index, allocator, "0.0"])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        found = self.failures(None)
        self.assertTrue(any("cumulative utility decreases" in f for f in found), found)

    def test_nonzero_exit_is_a_failure(self):
        result = {"ops": [{"name": "sim", "code": 2, "error": None}]}
        self.assertEqual(run.check_body("overload", result, self.out, None), {"sim": ["exit code 2"]})


class ReferenceMapCheckTest(unittest.TestCase):
    def test_trajectory_cut_short_is_a_failure(self):
        work = _workdir(self)
        reference = run._reference_series()["michael_scenario1"]
        initial = ",".join(map(repr, reference["initial"]))
        result = _child({"root": str(run.ROOT), "out": str(work / "out"), "spans": str(work / "spans.jsonl"),
                         "scenarios": {}, "ops": [{"name": "fcm-michael_scenario1", "part": "fcm",
                                                   "argv": ["fcm", "--map", "michael_scenario1", "--initial",
                                                            initial, "--out", str(work / "out" / "fcm")]}]},
                        "body", work)
        self.assertEqual(result["ops"][0]["code"], 0)
        op_dir = work / "out" / "fcm"
        self.assertEqual(checks.reference_map_failures(op_dir, reference), [])
        path = op_dir / "trajectory.csv"
        path.write_text("\n".join(path.read_text(encoding="utf-8").splitlines()[:4]) + "\n", encoding="utf-8")
        found = checks.reference_map_failures(op_dir, reference)
        self.assertEqual(len(found), 1)
        self.assertIn("equilibrium", found[0])


class TracedChildTest(unittest.TestCase):
    def test_fcm_step_calls_only_with_concept_map_mood(self):
        work = _workdir(self)
        doc = inputs.scenario_document("tiny", (1, 1, 1, 1), 20, 0, "fcm-coupled")
        doc["horizon_days"], doc["repetitions"] = 10, 1
        scenario = work / "tiny.json"
        scenario.write_text(json.dumps(doc), encoding="utf-8")
        coupled = _child(_plan(work, ["simulate", "--scenario", str(scenario), "--compare",
                                      "--out", str(work / "out" / "a")]), "traced", work)["trace"]
        constant = _child(_plan(work, ["simulate", "--preset", "S-M", "--compare", "--repetitions", "1",
                                       "--out", str(work / "out" / "b")]), "traced", work)["trace"]
        self.assertEqual(coupled["calls"]["fcm.step"], 2 * 10 * 4)
        self.assertEqual(coupled["calls"]["simulation.tick"], 2 * 10)
        self.assertNotIn("fcm.step", constant["calls"])
        self.assertEqual(constant["calls"]["simulation.tick"], 2 * 100)
        self.assertEqual(constant["counters"]["simulation.tasks_arrived"], 2 * 500)
        self.assertTrue((work / "spans.jsonl").is_file())


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        work = _workdir(self)
        for workload in ("overload", "mood_fcm", "toolkit"):
            first = inputs.write_inputs(workload, 7, work / f"{workload}-a")
            again = inputs.write_inputs(workload, 7, work / f"{workload}-b")
            other = inputs.write_inputs(workload, 8, work / f"{workload}-c")
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)

    def test_default_seed_inputs_match_the_recorded_digests(self):
        work = _workdir(self)
        recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        for workload in run.WORKLOADS:
            self.assertEqual(inputs.write_inputs(workload, checks.DEFAULT_SEED, work / workload),
                             recorded[workload]["inputs"], workload)

    def test_map_orbit_never_settles(self):
        doc, initial = inputs.concept_map(random.Random("map-3"))
        orbit = inputs.reference_orbit(doc["weights"], initial, doc["c"], inputs.MAP_MAX_ITER)
        self.assertTrue(inputs.never_settles(orbit, inputs.MAP_TOL))
        self.assertFalse(inputs.never_settles(orbit + [orbit[-1]], inputs.MAP_TOL))


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_the_emitted_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_sweep_fingerprint_is_the_recorded_one(self):
        recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
        self.assertTrue(recorded["sweep"]["recipe"]["sweep"].startswith("9e3edab15775a88d"))

    def test_fails_without_the_program(self):
        bare = _workdir(self)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
