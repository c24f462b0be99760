"""The agilesim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 20 --trace 0

Run from the root of a checkout. The run writes the workload's inputs
from the seed, then repeats the workload body in a closed loop with one
client until `--seconds` have passed: each body runs in a fresh child
interpreter (`child.py`) that calls the package's CLI entry point, and
the next body starts only when the previous one has returned and its
outputs have been checked. Extra children that only set up give the
median set-up time.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` bodies alternate between
untraced and traced children, and the object holds the per-layer
metrics. Failed operations (a nonzero exit, a traceback, a digest
mismatch at the default seed, or a broken invariant) are counted in
`failed`. Everything the run writes goes under `.perfbench/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
BUNDLED_MAPS = ("michael_scenario1", "grace_scenario1", "michael_scenario2", "grace_scenario2")
MIN_SETUPS = 15
CHILD_TIMEOUT_S = 150

WORKLOADS = ("sweep", "overload", "mood_fcm", "toolkit")

# Unit of each end-to-end metric. The three part metrics split a body
# in the same three places on every workload: on the simulation
# workloads they are the SMART repetitions, the AWR repetitions and the
# rest of the command (scenario set-up and CSV writing); on `toolkit`
# they are the fcm, goalnet and ingest commands.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "smart_or_fcm_s": "s",
    "awr_or_goalnet_s": "s",
    "output_or_ingest_s": "s",
}

PER_LAYER = {
    "core.self_s": "s",
    "core.in_run.self_s": "s",
    "allocation.smart_plan.calls": "count",
    "allocation.smart_plan.self_s": "s",
    "allocation.visit_order.calls": "count",
    "allocation.visit_order.self_s": "s",
    "allocation.accept_ratio": "ratio",
    "allocation.awr_assign.calls": "count",
    "allocation.awr_assign.self_s": "s",
    "simulation.tick.calls": "count",
    "simulation.tick.self_s": "s",
    "simulation.generate_arrivals.calls": "count",
    "simulation.generate_arrivals.self_s": "s",
    "simulation.initial_state.self_s": "s",
    "simulation.run.self_s": "s",
    "simulation.run_repeated.self_s": "s",
    "simulation.tasks_arrived": "count",
    "simulation.tasks_completed": "count",
    "fcm.step.calls": "count",
    "fcm.step.self_s": "s",
    "fcm.run.calls": "count",
    "fcm.run.self_s": "s",
    "fcm.run.iterations": "count",
    "metrics.ingest_log.rows": "count",
    "metrics.ingest_log.self_s": "s",
    "metrics.competence.calls": "count",
    "metrics.competence.self_s": "s",
    "metrics.technical_productivity.self_s": "s",
    "metrics.allocation_proportion.calls": "count",
    "metrics.allocation_proportion.self_s": "s",
    "goalnet.load_stories.self_s": "s",
    "goalnet.build_goal_net.self_s": "s",
    "goalnet.validate_net.self_s": "s",
    "goalnet.export_dot.self_s": "s",
    "goalnet.save_net.self_s": "s",
    "goalnet.nodes": "count",
    "cli.cmd_simulate.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


# Traced core calls that build scenario configs (`core.self_s`), and
# those the simulation makes while it runs (`core.in_run.self_s`):
# `build_agents` once per run, `task_types` once per tick.
CONFIG_CALLS = {"core.preset", "core.load_scenario", "core.validate", "core.with_overrides"}
IN_RUN_CALLS = {"core.build_agents", "core.task_types"}


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def _reference_series() -> dict:
    path = ROOT / "src" / "agilesim" / "data" / "reference_trajectories.json"
    return json.loads(path.read_text(encoding="utf-8"))["series"]


def plan(workload: str, seed: int, input_dir: Path, out: Path) -> dict:
    """The operations of one body (each a `cli.main` argv) and the
    scenarios the child builds during set-up."""
    def simulate(name, *source):
        return {"name": name, "part": "simulation",
                "argv": ["simulate", *source, "--compare", "--out", str(out / name)]}

    if workload == "sweep":
        ops = [simulate("sweep", "--all-presets", "--seed", str(seed))]
        scenarios = {"presets": True, "seed": seed}
    elif workload in ("overload", "mood_fcm"):
        scenario = str(input_dir / "scenario.json")
        ops = [simulate(workload, "--scenario", scenario)]
        scenarios = {"files": [scenario]}
    elif workload == "toolkit":
        initial = (input_dir / "initial.txt").read_text(encoding="utf-8").strip()
        ops = [{"name": "fcm-map", "part": "fcm",
                "argv": ["fcm", "--map", str(input_dir / "map.json"), "--initial", initial,
                         "--max-iter", str(inputs.MAP_MAX_ITER), "--tol", repr(inputs.MAP_TOL),
                         "--out", str(out / "fcm-map")]}]
        series = _reference_series()
        for name in BUNDLED_MAPS:
            ops.append({"name": f"fcm-{name}", "part": "fcm",
                        "argv": ["fcm", "--map", name, "--initial", ",".join(map(repr, series[name]["initial"])),
                                 "--out", str(out / f"fcm-{name}")]})
        ops.append({"name": "goalnet", "part": "goalnet",
                    "argv": ["goalnet", "--stories", str(input_dir / "stories.json"),
                             "--goals", str(input_dir / "goals.json"), "--out", str(out / "goalnet")]})
        ops.append({"name": "ingest", "part": "ingest",
                    "argv": ["ingest", "--log", str(input_dir / "sprint_log.csv"),
                             "--correlate", "competence:productivity", "--out", str(out / "ingest")]})
        scenarios = {}
    else:
        raise BenchmarkError(f"unknown workload {workload!r}")
    return {"root": str(ROOT), "out": str(out), "spans": str(out.parent / "spans.jsonl"),
            "ops": ops, "scenarios": scenarios}


def invariant_failures(workload: str, op: str, op_dir: Path) -> list[str]:
    if workload == "sweep":
        found = sorted(p.name for p in op_dir.iterdir()) if op_dir.is_dir() else []
        if len(found) != 9:
            return [f"sweep wrote {len(found)} preset directories: {found}"]
        return [f for name in found for f in checks.simulation_failures(op_dir / name)]
    if workload in ("overload", "mood_fcm"):
        return checks.simulation_failures(op_dir)
    if op == "fcm-map":
        return checks.orbit_failures(op_dir, inputs.MAP_MAX_ITER)
    if op.startswith("fcm-"):
        return checks.reference_map_failures(op_dir, _reference_series()[op[len("fcm-"):]])
    if op == "goalnet":
        stories = inputs.STORY_TOPS * (1 + inputs.STORY_SUBS)
        return checks.goalnet_failures(op_dir, 1 + inputs.STORY_GOALS + stories)
    if op == "ingest":
        return checks.ingest_failures(op_dir, inputs.LOG_AGENTS)
    raise BenchmarkError(f"no check for operation {op!r}")


def check_body(workload: str, result: dict, out: Path, expected: dict | None) -> dict[str, list[str]]:
    """Failure messages per operation of one body. `expected` holds the
    digests at the default seed, or is None on other seeds."""
    failures = {}
    for op in result["ops"]:
        name = op["name"]
        found = []
        if op["code"] != 0:
            found.append(f"exit code {op['code']}" + (f"\n{op['error']}" if op["error"] else ""))
        else:
            found += invariant_failures(workload, name, out / name)
            if expected is not None:
                found += checks.digest_failures(checks.digest_tree(out / name), expected["outputs"][name])
                if name in expected.get("recipe", {}) and checks.recipe_digest(out / name) != expected["recipe"][name]:
                    found.append(f"{name}: fingerprint recipe digest differs")
        failures[name] = found
    return failures


class Runner:
    """Spawns children for one run and keeps their results."""

    def __init__(self, work: Path, plan_doc: dict):
        self.plan_file = work / "plan.json"
        self.plan_file.write_text(json.dumps(plan_doc, indent=1), encoding="utf-8")
        self.out = Path(plan_doc["out"])

    def child(self, mode: str) -> tuple[dict, float]:
        """Run one child; return its result and its set-up seconds."""
        if mode != "setup":
            shutil.rmtree(self.out, ignore_errors=True)
            self.out.mkdir(parents=True)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "child.py"), str(self.plan_file), mode],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{mode} child did not finish in {CHILD_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchmarkError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.stderr and any(op["code"] != 0 for op in result.get("ops", ())):
            sys.stderr.write(proc.stderr[-4000:])
        return result, result["ready"] - spawned


def body_parts(workload: str, body: dict) -> tuple[float, float, float]:
    """The three part metrics of one body."""
    if workload == "toolkit":
        by_part = {}
        for op in body["ops"]:
            by_part[op["part"]] = by_part.get(op["part"], 0.0) + op["seconds"]
        return by_part.get("fcm", 0.0), by_part.get("goalnet", 0.0), by_part.get("ingest", 0.0)
    smart, awr = body["allocator_s"].get("SMART", 0.0), body["allocator_s"].get("AWR", 0.0)
    return smart, awr, body["wall_s"] - smart - awr


def end_to_end(workload: str, bodies: list[dict], setups: list[float]) -> dict[str, float]:
    """Means over the bodies of a run, and the median set-up time. On a
    shared 2-vCPU VM the time of one part of a body is often bimodal
    (the output part of `mood_fcm` falls near 55 ms or near 85 ms from
    one body to the next); a median over a few bodies then jumps between
    the two modes from run to run, where the mean moves with their mix."""
    split = [body_parts(workload, body) for body in bodies]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean([body["wall_s"] for body in bodies]),
        "peak_rss_mb": statistics.mean([body["peak_rss_mb"] for body in bodies]),
        "smart_or_fcm_s": statistics.mean([s[0] for s in split]),
        "awr_or_goalnet_s": statistics.mean([s[1] for s in split]),
        "output_or_ingest_s": statistics.mean([s[2] for s in split]),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Counts come from the last traced body (they repeat exactly),
    self times are medians over the traced bodies."""
    last = traced[-1]["trace"]

    def self_s(targets):
        return statistics.median([sum(body["trace"]["self_s"].get(t, 0.0) for t in targets) for body in traced])

    values = {}
    for name in PER_LAYER:
        if name == "core.self_s":
            values[name] = self_s(CONFIG_CALLS)
        elif name == "core.in_run.self_s":
            values[name] = self_s(IN_RUN_CALLS)
        elif name.endswith(".self_s"):
            values[name] = self_s([name[: -len(".self_s")]])
        elif name.endswith(".calls"):
            values[name] = last["calls"].get(name[: -len(".calls")], 0)
        else:
            values[name] = last["counters"].get(name, 0)
    offered = last["counters"].get("allocation.offered", 0)
    values["allocation.accept_ratio"] = last["counters"].get("allocation.accepted", 0) / offered if offered else 0.0
    values["cli.bytes_written"] = traced[-1]["bytes_written"]
    values["trace.overhead_s"] = (statistics.median([b["wall_s"] for b in traced])
                                  - statistics.median([b["wall_s"] for b in untraced]))
    return values


def environment() -> dict:
    revision = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                revision = ref_file.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        "loadavg": list(os.getloadavg()),
    }


def bless(workload: str, runner: Runner, input_sha: dict[str, str]) -> None:
    """Record the inputs and the output digests of one body at the
    default seed as the expected ones."""
    result, _ = runner.child("body")
    failed = [op["name"] for op in result["ops"] if op["code"] != 0]
    if failed:
        raise BenchmarkError(f"cannot bless: {', '.join(failed)} failed")
    entry = {
        "inputs": input_sha,
        "outputs": {op["name"]: checks.digest_tree(runner.out / op["name"]) for op in result["ops"]},
    }
    if workload == "sweep":
        entry["recipe"] = {"sweep": checks.recipe_digest(runner.out / "sweep")}
    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    digests[workload] = entry
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def run(args) -> dict:
    if not (ROOT / "src" / "agilesim" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source at {ROOT / 'src' / 'agilesim'}")
    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    input_dir = work / "inputs"
    input_sha = inputs.write_inputs(args.workload, args.seed, input_dir)
    runner = Runner(work, plan(args.workload, args.seed, input_dir, work / "out"))
    runner.child("setup")  # warm-up: fills the bytecode and file caches
    if args.bless:
        bless(args.workload, runner, input_sha)
    expected = None
    if args.seed == checks.DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(args.workload)
        if expected is None:
            raise BenchmarkError(f"no digests for {args.workload} in {DIGESTS}")
        if expected["inputs"] != input_sha:
            raise BenchmarkError("generated inputs differ from the recorded ones at the default seed")
    setups, bodies, traced = [], [], []
    attempted = failed = 0
    failures_seen = []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or not bodies or (args.trace and not traced):
        mode = "traced" if args.trace and len(bodies) > len(traced) else "body"
        result, setup = runner.child(mode)
        for op, found in check_body(args.workload, result, runner.out, expected).items():
            attempted += 1
            if found:
                failed += 1
                failures_seen.append(f"{op}: " + "; ".join(found))
        if mode == "traced":
            traced.append(result)
        else:
            bodies.append(result)
            setups.append(setup)
        # Set-up-only children are spread over the run, so that the
        # set-up median covers the same stretch of time as the bodies.
        due = MIN_SETUPS * min(1.0, (time.monotonic() - start) / args.seconds)
        while len(setups) < due:
            setups.append(runner.child("setup")[1])
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup")[1])

    if args.trace:
        metrics = per_layer(traced, bodies)
        units = PER_LAYER
    else:
        metrics = end_to_end(args.workload, bodies, setups)
        units = END_TO_END
    wall = statistics.mean(b["wall_s"] for b in bodies)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "bodies": len(bodies),
        "traced_bodies": len(traced),
        "setups": len(setups),
        "body_wall_s": [b["wall_s"] for b in bodies],
        "body_parts_s": [body_parts(args.workload, b) for b in bodies],
        "setup_s_samples": setups,
        "fail_frac": failed / attempted,
        "agent_days_per_s": bodies[0]["agent_days"] / wall if bodies[0]["agent_days"] else None,
        "inputs_sha256": input_sha,
        "failures": failures_seen,
        "environment": environment(),
    }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="record this run's output digests as the expected ones (default seed only)")
    args = parser.parse_args(argv)
    if args.bless and args.seed != checks.DEFAULT_SEED:
        parser.error("--bless records digests at the default seed only")
    try:
        result = run(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report = result.pop("report")
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "report": report}, indent=1) + "\n", encoding="utf-8")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:9s} {name:40s} {metric['value']:14.6f} {metric['unit']}")
    print(f"{args.workload:9s} {'fail_frac':40s} {report['fail_frac']:14.6f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    if report["agent_days_per_s"] is not None:
        print(f"{args.workload:9s} {'agent_days_per_s':40s} {report['agent_days_per_s']:14.1f} 1/s")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"inputs_sha256": report["inputs_sha256"], "environment": report["environment"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
