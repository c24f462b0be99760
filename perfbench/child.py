"""One benchmark sample, run in a fresh interpreter.

Usage: python3 -I child.py PLAN.json MODE, where MODE is `setup`,
`body` or `traced`. The child imports the package from the checkout's
`src`, builds the scenario configs the plan names (the set-up), and
notes the monotonic clock just before its first workload call. In
`setup` mode it stops there. Otherwise it runs the plan's operations
through `agilesim.cli.main`, one after the other, and prints one JSON
line with its timings. In `traced` mode every target of `tracing` is
wrapped first and the spans are written to the plan's trace file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _agent_days(config) -> int:
    return config.team.head_count() * config.horizon_days * config.repetitions


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    mode = sys.argv[2]
    root = Path(plan["root"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    import agilesim
    import agilesim.cli
    from agilesim import core, simulation

    if not Path(agilesim.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"agilesim imported from {agilesim.__file__}, not from the checkout", file=sys.stderr)
        return 3

    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, agilesim)

    # Each allocator's share of a simulation workload. This wrapper sees
    # one call per (scenario, allocator), so it costs nothing measurable.
    allocator_s: dict[str, float] = {}
    run_repeated = simulation.run_repeated

    def timed_run_repeated(config):
        start = time.perf_counter()
        try:
            return run_repeated(config)
        finally:
            name = config.allocator.value
            allocator_s[name] = allocator_s.get(name, 0.0) + time.perf_counter() - start

    simulation.run_repeated = timed_run_repeated

    # Set-up: the configs each simulate operation will run, both allocators.
    scenarios = plan["scenarios"]
    if scenarios.get("presets"):
        configs = [core.with_overrides(core.preset(name), seed=scenarios["seed"]) for name in core.PRESET_NAMES]
    else:
        configs = [core.load_scenario(path) for path in scenarios.get("files", ())]
    agent_days = 2 * sum(_agent_days(config) for config in configs)

    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    ops = []
    captured = io.StringIO()
    body_start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for op in plan["ops"]:
            start = time.perf_counter()
            try:
                code, error = agilesim.cli.main(op["argv"]), None
            except Exception:  # a traceback is a failed operation, not a dead benchmark
                code, error = None, traceback.format_exc()
            ops.append({"name": op["name"], "part": op["part"], "code": code,
                        "seconds": time.perf_counter() - start, "error": error})
    wall = time.perf_counter() - body_start

    out = Path(plan["out"])
    result = {
        "ready": ready,
        "wall_s": wall,
        "ops": ops,
        "allocator_s": allocator_s,
        "agent_days": agent_days,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0,
    }
    if tracer is not None:
        tracer.write(Path(plan["spans"]))
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s, "counters": tracer.counters}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
