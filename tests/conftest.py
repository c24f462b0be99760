"""Shared fixtures: tiny scenario builders, the plain fcm update and the
cached preset sweep."""

from __future__ import annotations

import math
import time

import pytest

from agilesim import core, fcm, simulation


def make_scenario(
    name="tiny",
    categories=((core.Category.HCA, 1, 1.0, 10.0),),
    tasks=(("T1", 10.0, 10.0, 10.0, 1),),
    horizon_days=1,
    repetitions=1,
    seed=0,
    psi=1.0,
    allocator=core.Allocator.SMART,
    mood_mode=None,
) -> core.ScenarioConfig:
    """Compact scenario constructor for hand-traced cases.

    ``categories`` rows are (category, count, competence, max_effort);
    ``tasks`` rows are (type_id, priority, utility, effort, count).
    """
    team = core.TeamConfig(
        categories=tuple(
            core.CategorySpec(category=cat, count=n, competence=c, max_effort=e)
            for cat, n, c, e in categories
        )
    )
    mix = tuple(
        (core.TaskTypeSpec(type_id=tid, priority=p, utility=u, effort=e), count)
        for tid, p, u, e, count in tasks
    )
    return core.ScenarioConfig(
        name=name,
        team=team,
        task_mix=mix,
        horizon_days=horizon_days,
        repetitions=repetitions,
        seed=seed,
        psi=psi,
        allocator=allocator,
        mood_mode=mood_mode or core.MoodMode.constant(1.0),
    )


def reference_transform(kind, n, c):
    if kind == fcm.BIVALENT:
        return 0.0 if n <= 0 else 1.0
    if kind == fcm.TRIVALENT:
        return -1.0 if n <= -0.5 else 1.0 if n >= 0.5 else 0.0
    return 1.0 / (1.0 + math.exp(-c * n))


def reference_step(cmap, values):
    """The plain n x n update: every weight read, the transform per node."""
    n = cmap.node_count
    new_values = []
    for j in range(n):
        total = 0.0
        for i in range(n):
            w = cmap.weights[i][j]
            if w:
                total += w * values[i]
        new_values.append(reference_transform(cmap.transform, total, cmap.c))
    return tuple(new_values)


class SweepSummary:
    """Reduced per-preset statistics from the full preset sweep."""

    def __init__(self):
        self.elapsed_seconds = 0.0
        self.mean_utility: dict[tuple[str, str], float] = {}
        # (preset, allocator) -> per-run list of per-agent
        # (first-half max, second-half max) pending workloads
        self.half_maxima: dict[tuple[str, str], list[dict[str, tuple[float, float]]]] = {}
        # (preset, allocator) -> per-run peak pending workload of the
        # highest-competence agent (dev-000)
        self.top_agent_peak: dict[tuple[str, str], list[float]] = {}
        # preset -> max single-day arrival workload over the schedule
        self.max_daily_arrival_workload: dict[str, float] = {}


def _reduce_run(result: simulation.RunResult) -> tuple[dict, float]:
    half = len(result.arrivals) // 2
    maxima = {}
    for agent in result.categories:
        series = result.pending_workload[agent]
        maxima[agent] = (max(series[:half]), max(series[half:]))
    top_peak = max(result.pending_workload["dev-000"])
    return maxima, top_peak


@pytest.fixture(scope="session")
def preset_sweep() -> SweepSummary:
    """Run all nine presets under both allocators, 10 repetitions each,
    keeping only the statistics the acceptance criteria need."""
    summary = SweepSummary()
    started = time.perf_counter()
    for name in core.PRESET_NAMES:
        base = core.preset(name)
        types = base.task_types()
        summary.max_daily_arrival_workload[name] = max(
            sum(count * types[tid].effort for tid, count in todays)
            for todays in simulation.generate_arrivals(base)
        )
        for allocator in (core.Allocator.SMART, core.Allocator.AWR):
            config = core.with_overrides(base, allocator=allocator)
            key = (name, allocator.value)
            summary.half_maxima[key] = []
            summary.top_agent_peak[key] = []
            utilities = []
            for rep in range(config.repetitions):
                result = simulation.run(config, seed=config.seed + rep)
                utilities.append(result.global_utility)
                maxima, top_peak = _reduce_run(result)
                summary.half_maxima[key].append(maxima)
                summary.top_agent_peak[key].append(top_peak)
            summary.mean_utility[key] = sum(utilities) / len(utilities)
    summary.elapsed_seconds = time.perf_counter() - started
    return summary
