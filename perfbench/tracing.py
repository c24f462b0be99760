"""In-process tracer for the benchmark's traced runs.

The tracer wraps public callables of the package at the name their
caller resolves (for example `agilesim.simulation.smart_plan`, because
`simulation` imports the allocation functions by name). Coarse calls
are recorded as spans (name, start, end, parent); hot calls, made
thousands of times per run, only add to an aggregate keyed by the name
of their caller. Self time is computed online on a call stack: a call's
duration minus the durations of the traced calls it made. Calls nest
properly in a single thread, so the children never overlap and the self
times of all calls add up to the duration of the outermost ones.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

ROOT = "-"  # parent name of calls made outside any traced call


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, self]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.leaves: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, total, self]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # open calls: [name, child seconds, span index]

    def wrap(self, name: str, fn, hot: bool = False, observe=None):
        """Return `fn` wrapped so that each call is timed under `name`.
        `observe(count, args, result)` may add counts derived from a
        call's arguments and result through `count(name, amount)`."""
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            if hot:
                span = parent_span
            else:
                span = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent_span, 0.0])
            frame = [name, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                if hot:
                    key = (parent[0] if parent else ROOT, name)
                    entry = self.leaves.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += own
                else:
                    record = self.spans[span]
                    record[1], record[2], record[4] = start, end, own
            if observe is not None:
                observe(self.count, args, result)
            return result

        return traced

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path: Path) -> None:
        """Write the spans, one JSON object a line, then the hot-call
        aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, own) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                         "parent": parent, "self": own}) + "\n")
            for (parent, name), (calls, total, own) in sorted(self.leaves.items()):
                handle.write(json.dumps({"leaf": name, "parent": parent, "calls": calls,
                                         "total": total, "self": own}) + "\n")


def _count_offers(count, args, plan):
    count("allocation.offered", sum(args[1].values()))
    count("allocation.accepted", sum(plan.accepted.values()))


def _count_run(count, args, result):
    count("simulation.tasks_arrived", sum(result.arrivals))
    count("simulation.tasks_completed", result.completed_count)


def _count_iterations(count, args, trajectory):
    count("fcm.run.iterations", len(trajectory.states) - 1)


def _count_rows(count, args, records):
    count("metrics.ingest_log.rows", len(records))


def _count_nodes(count, args, net):
    count("goalnet.nodes", len(net.nodes))


# (module, attribute, metric name, hot, observe). Each entry patches the
# attribute the caller looks up at call time; `visit_order` is resolved
# both by `tick` (from simulation) and by `smart_plan` (from allocation).
TARGETS = (
    ("core", "preset", "core.preset", False, None),
    ("core", "load_scenario", "core.load_scenario", False, None),
    ("core", "validate", "core.validate", False, None),
    ("core", "with_overrides", "core.with_overrides", False, None),
    ("core", "TeamConfig.build_agents", "core.build_agents", False, None),
    ("core", "ScenarioConfig.task_types", "core.task_types", True, None),
    ("simulation", "smart_plan", "allocation.smart_plan", True, _count_offers),
    ("simulation", "visit_order", "allocation.visit_order", True, None),
    ("allocation", "visit_order", "allocation.visit_order", True, None),
    ("simulation", "awr_assign", "allocation.awr_assign", True, None),
    ("simulation", "run_repeated", "simulation.run_repeated", False, None),
    ("simulation", "run", "simulation.run", False, _count_run),
    ("simulation", "initial_state", "simulation.initial_state", False, None),
    ("simulation", "generate_arrivals", "simulation.generate_arrivals", False, None),
    ("simulation", "tick", "simulation.tick", False, None),
    ("fcm", "step", "fcm.step", True, None),
    ("fcm", "run", "fcm.run", False, _count_iterations),
    ("metrics", "ingest_log", "metrics.ingest_log", False, _count_rows),
    ("metrics", "competence", "metrics.competence", True, None),
    ("metrics", "technical_productivity", "metrics.technical_productivity", True, None),
    ("metrics", "allocation_proportion", "metrics.allocation_proportion", True, None),
    ("goalnet", "load_stories", "goalnet.load_stories", False, None),
    ("goalnet", "build_goal_net", "goalnet.build_goal_net", False, _count_nodes),
    ("goalnet", "validate_net", "goalnet.validate_net", False, None),
    ("goalnet", "export_dot", "goalnet.export_dot", False, None),
    ("goalnet", "save_net", "goalnet.save_net", False, None),
    ("cli", "main", "cli.main", False, None),
    ("cli", "cmd_simulate", "cli.cmd_simulate", False, None),
    ("cli", "cmd_fcm", "cli.cmd_fcm", False, None),
    ("cli", "cmd_goalnet", "cli.cmd_goalnet", False, None),
    ("cli", "cmd_ingest", "cli.cmd_ingest", False, None),
)


def install(tracer: Tracer, package) -> None:
    """Wrap every target of `package` (the imported `agilesim`)."""
    for module_name, attribute, name, hot, observe in TARGETS:
        owner = getattr(package, module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(name, getattr(owner, leaf), hot=hot, observe=observe))
