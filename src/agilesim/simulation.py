"""Deterministic discrete-time team simulation.

Each day: (1) new tasks are admitted to the common queue of their type;
(2) agents acquire work, either through per-agent acceptance plans
(SMART) or by assigning every task on arrival to the most competent
agent (AWR); (3) each agent spends up to its daily effort on its
pending tasks in acceptance order, carrying partial effort across days;
(4) each completion draws a quality outcome with success probability
equal to the worker's competence for the type; (5) moods update
according to the scenario's mood mode; (6) the day's metrics are
recorded.

Runs are bit-reproducible for a fixed seed. The arrival schedule
depends only on the seed, never on the allocator, so toggling the
allocator compares like against like. Within one run the arrival
stream and the quality stream use separate generators.

What depends only on the config and seed is built once. The arrival
schedule comes from two memos: a catalog of every task (id, type,
day, effort) per task mix and horizon, shared by all seeds, and a
per-seed day order of catalog indices. Runs with the same mix,
horizon and seed, such as both allocators of ``--compare``, share
both and their id strings; each run still gets fresh task objects.
SMART economics are memoized per agent by (type, yesterday's
completions of the type) and dropped when the agent's mood moves
(every day under fcm-coupled mood, never under constant mood).

A day costs the work done in it, not the head count. The run's record,
a ``RunResult``, is built at day 0 with every series at horizon length
and full of zeros; ``tick`` writes a day's slot only for an agent that
got or holds work, so an idle agent costs a reset of its recent
completions in the service phase and nothing in the recording phase.
Congestion sums only the queues of agents served that day: every other
agent's queues are empty. Under fcm-coupled mood every agent still
takes one ``fcm.step`` a day; one that completed nothing steps from
``(mood, 0.5, 0.5)``. ``run`` fills in the record's totals at the
horizon and returns that same record.

Crediting: a completed task contributes its full utility to global
utility when its quality draw succeeds, and nothing otherwise; tasks
still in flight at the horizon credit nothing.
"""

from __future__ import annotations

import functools
import math
import random
import statistics
import struct
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from . import fcm
from .allocation import TypeEconomics, awr_assign, expected_utility, smart_plan
from .allocation import visit_order  # noqa: F401  perfbench/tracing.py patches it here
from .core import (
    AgentState,
    Allocator,
    ScenarioConfig,
    TaskInstance,
    TaskTypeSpec,
)
from .metrics import congestion

_EPS = 1e-9


class SimulationInvariantError(RuntimeError):
    """An internal accounting invariant was breached; aborts the run."""


@dataclass
class SimState:
    """Complete state of one run between days.

    ``common_queue`` holds unassigned tasks per type in arrival order;
    combined with the per-type priority this realizes a priority-ordered
    backlog. Every task is in exactly one of: the common queue, an
    agent's ``pending``, or ``completed``. ``types`` is the scenario's
    task types by id. ``awr_assignee`` maps each type to its AWR
    assignee, fixed for the run (empty under SMART).

    ``score_tables`` maps an agent id to ``(mood, entries)``: the mood
    the entries were built at and the SMART economics built so far for
    a (type, tasks of it completed yesterday) pair.

    ``metrics`` is the run's ``RunResult``, built at day 0; ``tick``
    writes each day into it and ``run`` returns it.
    """

    day: int
    agents: list[AgentState]
    types: dict[str, TaskTypeSpec]
    common_queue: dict[str, deque[TaskInstance]]
    completed: list[TaskInstance]
    arrivals_by_day: dict[int, list[TaskInstance]]
    quality_rng: random.Random
    metrics: RunResult
    arrived_total: int = 0
    mood_map: fcm.ConceptMap | None = None
    awr_assignee: dict[str, AgentState] = field(default_factory=dict)
    score_tables: dict[
        str, tuple[float, dict[tuple[str, int], TypeEconomics]]
    ] = field(default_factory=dict)
    _types_by_priority: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    """Per-day series and totals for one simulated run.

    Built by ``initial_state`` with one slot per day, all 0; ``tick``
    writes a day's slots for the agents that got or held work (and an
    emptied queue's float residue in ``pending_workload``). Mid-run the
    days not yet ticked read 0, and so do the totals except ``delay_count``.
    """

    scenario: str
    allocator: Allocator
    seed: int
    horizon: int
    agent_ids: list[str]
    categories: dict[str, str]
    assigned_effort: dict[str, list[float]]
    busy_effort: dict[str, list[float]]
    pending_workload: dict[str, list[float]]
    congestion: list[float]
    arrivals: list[int]
    completions: list[int]
    utility: list[float]
    global_utility: float = 0.0
    completed_count: int = 0
    high_quality_count: int = 0
    delay_count: int = 0

    def cumulative_utility(self) -> list[float]:
        total = 0.0
        series = []
        for value in self.utility:
            total += value
            series.append(total)
        return series

    def total_assigned_effort(self) -> dict[str, float]:
        return {agent: sum(series) for agent, series in self.assigned_effort.items()}


@dataclass
class RepeatedResult:
    """All runs of one scenario plus per-metric mean and standard
    deviation (sample standard deviation; 0.0 for a single run)."""

    runs: list[RunResult]
    mean: dict[str, float]
    std: dict[str, float]


def _derive_rngs(seed: int) -> tuple[random.Random, random.Random]:
    # Disjoint integer seeds keep the arrival stream independent of the
    # quality stream and distinct across repetition seeds.
    return random.Random(2 * seed), random.Random(2 * seed + 1)


# Arrival schedules are shared by every run with the same task mix,
# horizon and seed: ``--compare`` replays seeds seed..seed+reps-1 once
# per allocator, and the three presets of one size share a task mix,
# so a preset's repetitions must all stay cached until the next
# allocator and preset replay them. 32 holds the presets' 10 with room
# for longer custom sweeps; an entry costs 4 bytes a task.
_DAY_ORDER_CACHE_SIZE = 32


# A sweep finishes with one task mix before it moves to the next.
@functools.lru_cache(maxsize=4)
def _arrival_catalog(
    task_mix: tuple[tuple[TaskTypeSpec, int], ...], horizon: int
) -> tuple[tuple[tuple[str, str, int, float], ...], tuple[int, ...]]:
    """The seed-independent part of a schedule: every task as
    ``(task_id, type_id, arrival_day, effort)``, day by day in
    pre-shuffle order (types in mix order, then serial), and the index
    where each day starts, with the total count appended.

    Each type's count is spread uniformly over the horizon: either
    floor(N/T) or ceil(N/T) per day, extras on the earliest days.
    """
    paces = [
        (spec, spec.type_id.lower(), *divmod(count, horizon)) for spec, count in task_mix
    ]
    tasks: list[tuple[str, str, int, float]] = []
    starts: list[int] = []
    for day in range(horizon):
        starts.append(len(tasks))
        for spec, prefix, base, extra in paces:
            # Serials run on across days: base a day plus one per earlier extra.
            first = base * day + min(day, extra)
            todays = base + (1 if day < extra else 0)
            tasks.extend(
                (f"{prefix}-{n:05d}", spec.type_id, day, spec.effort)
                for n in range(first, first + todays)
            )
    starts.append(len(tasks))
    return tuple(tasks), tuple(starts)


@functools.lru_cache(maxsize=_DAY_ORDER_CACHE_SIZE)
def _day_order(
    task_mix: tuple[tuple[TaskTypeSpec, int], ...], horizon: int, seed: int
) -> memoryview:
    """Catalog indices in arrival order: each day's indices shuffled by
    the seed's arrival generator. ``Random.shuffle`` draws the same
    swaps for any list of one length, so shuffling indices permutes a
    day exactly as shuffling its tasks would. Packed as unsigned ints
    in read-only bytes, because every run of the seed shares it and a
    tuple would hold an int object per task."""
    arrivals_rng, _ = _derive_rngs(seed)
    _, starts = _arrival_catalog(task_mix, horizon)
    order: list[int] = []
    for start, end in zip(starts, starts[1:]):
        todays = list(range(start, end))
        arrivals_rng.shuffle(todays)
        order.extend(todays)
    return memoryview(struct.pack(f"{len(order)}I", *order)).cast("I")


def generate_arrivals(config: ScenarioConfig, seed: int) -> list[TaskInstance]:
    """Create every task with its arrival day.

    Each type's count is spread uniformly over the horizon (either
    floor(N/T) or ceil(N/T) per day, extras on the earliest days), and
    each day's tasks are shuffled by the seeded generator. The result
    is ordered by day, then by within-day shuffle position.
    Deterministic for a fixed seed and independent of the allocator.
    The schedule is built once per (task mix, horizon, seed) and shared
    with its id strings; every call returns fresh ``TaskInstance``s.
    """
    horizon = config.horizon_days
    catalog, _ = _arrival_catalog(config.task_mix, horizon)
    return [
        TaskInstance(*catalog[i]) for i in _day_order(config.task_mix, horizon, seed)
    ]


def initial_state(config: ScenarioConfig, seed: int | None = None) -> SimState:
    """Build the day-0 state for a scenario.

    Validation is the caller's responsibility (the CLI and the scenario
    loader both validate); this keeps degenerate-but-harmless configs,
    such as an empty task mix, runnable for experiments.
    """
    run_seed = config.seed if seed is None else seed
    _, quality_rng = _derive_rngs(run_seed)
    mood = 0.5 if config.mood_mode.kind == "fcm-coupled" else config.mood_mode.value
    agents = config.team.build_agents(mood=mood)
    types = config.task_types()
    for agent in agents:
        agent.queued = dict.fromkeys(types, 0)
    arrivals_by_day: dict[int, list[TaskInstance]] = {}
    for task in generate_arrivals(config, run_seed):
        arrivals_by_day.setdefault(task.arrival_day, []).append(task)
    horizon = config.horizon_days
    state = SimState(
        day=0,
        agents=agents,
        types=types,
        common_queue={tid: deque() for tid in types},
        completed=[],
        arrivals_by_day=arrivals_by_day,
        quality_rng=quality_rng,
        metrics=RunResult(
            scenario=config.name,
            allocator=config.allocator,
            seed=run_seed,
            horizon=horizon,
            agent_ids=[a.agent_id for a in agents],
            categories={a.agent_id: a.category.value for a in agents},
            assigned_effort={a.agent_id: [0.0] * horizon for a in agents},
            busy_effort={a.agent_id: [0.0] * horizon for a in agents},
            pending_workload={a.agent_id: [0.0] * horizon for a in agents},
            congestion=[0.0] * horizon,
            arrivals=[0] * horizon,
            completions=[0] * horizon,
            utility=[0.0] * horizon,
        ),
    )
    state._types_by_priority = sorted(
        types, key=lambda tid: (-types[tid].priority, tid)
    )
    if config.allocator is Allocator.AWR:
        # Competence is static within a run, so the choice per type is too.
        agents_by_id = {agent.agent_id: agent for agent in agents}
        state.awr_assignee = {
            tid: agents_by_id[awr_assign(tid, agents)] for tid in types
        }
    if config.mood_mode.kind == "fcm-coupled":
        # Three-node mood/progress/quality map driving daily mood updates.
        state.mood_map = fcm.bundled_map("michael_scenario1")
    return state


def _claim(agent: AgentState, task: TaskInstance, effort: float, day: int) -> None:
    task.assignee = agent.agent_id
    task.assigned_day = day
    agent.queued[task.type_id] += 1
    agent.pending.append(task)
    agent.pending_effort += effort


def _economics(
    state: SimState, agent: AgentState, offered: dict[str, int]
) -> dict[str, TypeEconomics]:
    """The agent's SMART economics for each offered type today.

    An entry depends only on the type, the agent's mood and how many
    tasks of the type it completed yesterday, so each is built once per
    (type, count) and all are dropped when the agent's mood moves.
    """
    memo = state.score_tables.get(agent.agent_id)
    if memo is None or memo[0] != agent.mood:
        memo = state.score_tables[agent.agent_id] = (agent.mood, {})
    mood, entries = memo
    economics = {}
    for tid in offered:
        count = agent.recent_completions.get(tid, 0)
        econ = entries.get((tid, count))
        if econ is None:
            spec = state.types[tid]
            econ = entries[tid, count] = TypeEconomics(
                type_id=tid,
                expected_utility=expected_utility(
                    spec.utility, agent.competence_for(tid), mood
                ),
                recent_service_rate=float(count),
                effort=spec.effort,
            )
        economics[tid] = econ
    return economics


def _check_conservation(state: SimState) -> None:
    in_common = sum(len(q) for q in state.common_queue.values())
    # Every agent's deque, not only those served today: a task lost or
    # duplicated in an idle agent's queue must be caught too.
    in_agents = sum(len(a.pending) for a in state.agents)
    total = in_common + in_agents + len(state.completed)
    if total != state.arrived_total:
        raise SimulationInvariantError(
            f"task conservation breached on day {state.day}: "
            f"{in_common} queued + {in_agents} assigned + "
            f"{len(state.completed)} completed != {state.arrived_total} arrived"
        )


def tick(state: SimState, config: ScenarioConfig) -> SimState:
    """Advance the simulation by one day (mutates and returns state)."""
    if state.day >= config.horizon_days:
        raise ValueError(f"day {state.day} is already at the horizon")
    day = state.day
    types = state.types
    metrics = state.metrics

    # (1) Admission: each task joins its type's queue in the shuffled
    # within-day order; the backlog's priority order is by type.
    todays = state.arrivals_by_day.pop(day, [])
    for task in todays:
        state.common_queue[task.type_id].append(task)
    state.arrived_total += len(todays)

    # (2) Allocation.
    if config.allocator is Allocator.SMART:
        offered = {
            tid: len(queue) for tid, queue in state.common_queue.items() if queue
        }
        for agent in state.agents:
            if not offered:
                break
            plan = smart_plan(
                agent, offered, _economics(state, agent, offered), config.psi
            )
            # plan.accepted is in visit order; its rejects go to the next agent.
            for tid, count in plan.accepted.items():
                if count:
                    queue = state.common_queue[tid]
                    for _ in range(count):
                        _claim(agent, queue.popleft(), types[tid].effort, day)
                    metrics.assigned_effort[agent.agent_id][day] += (
                        count * types[tid].effort
                    )
            offered = {tid: count for tid, count in plan.rejected.items() if count}
    else:  # AWR: every queued task is assigned immediately, none rejected.
        for tid in state._types_by_priority:
            queue = state.common_queue[tid]
            agent = state.awr_assignee[tid]
            assigned = metrics.assigned_effort[agent.agent_id]
            while queue:
                _claim(agent, queue.popleft(), types[tid].effort, day)
                assigned[day] += types[tid].effort

    # (3) Service, (4) quality outcomes, in roster order so the quality
    # draws keep their order; only agents holding work are served.
    completions_today = 0
    utility_today = 0.0
    working: list[AgentState] = []
    outcomes: dict[str, tuple[int, int, int]] = {}
    for agent in state.agents:
        if not agent.pending:
            agent.recent_completions = {}
            # A finished queue can leave a float residue in pending_effort.
            if agent.pending_effort:
                metrics.pending_workload[agent.agent_id][day] = agent.pending_effort
            continue
        budget = agent.max_effort
        served: dict[str, int] = {}
        done = on_time = high_quality = 0
        while budget > _EPS and agent.pending:
            task = agent.pending[0]
            spend = min(budget, task.remaining_effort)
            task.remaining_effort -= spend
            budget -= spend
            agent.pending_effort -= spend
            if task.remaining_effort <= _EPS:
                agent.pending.popleft()
                agent.queued[task.type_id] -= 1
                task.remaining_effort = 0.0
                task.completion_day = day
                spec = types[task.type_id]
                success = state.quality_rng.random() < agent.competence_for(
                    task.type_id
                )
                task.quality_success = success
                nominal_days = math.ceil(spec.effort / agent.max_effort)
                late = (day - task.assigned_day + 1) > nominal_days
                state.completed.append(task)
                served[task.type_id] = served.get(task.type_id, 0) + 1
                done += 1
                if late:
                    metrics.delay_count += 1
                else:
                    on_time += 1
                high_quality += 1 if success else 0
                completions_today += 1
                utility_today += spec.utility if success else 0.0
        agent.recent_completions = served
        outcomes[agent.agent_id] = (done, on_time, high_quality)
        working.append(agent)
        metrics.busy_effort[agent.agent_id][day] = agent.max_effort - budget
        metrics.pending_workload[agent.agent_id][day] = agent.pending_effort

    # (5) Mood update; an agent that was not served steps from
    # (mood, 0.5, 0.5).
    if state.mood_map is not None:
        for agent in state.agents:
            done, on_time, high_quality = outcomes.get(agent.agent_id, (0, 0, 0))
            progress = on_time / done if done else 0.5
            quality = high_quality / done if done else 0.5
            mood_state = fcm.StateVector(values=(agent.mood, progress, quality))
            agent.mood = fcm.step(state.mood_map, mood_state).values[0]

    # (6) Record the day's totals and advance the clock. Agents not
    # served today hold no tasks, so their queues add nothing to
    # congestion.
    metrics.congestion[day] = congestion(
        chain.from_iterable(agent.queued.values() for agent in working)
    )
    metrics.arrivals[day] = len(todays)
    metrics.completions[day] = completions_today
    metrics.utility[day] = utility_today
    _check_conservation(state)
    state.day += 1
    return state


def _check_effort(state: SimState) -> None:
    """Per agent, the effort spent over the run must equal the effort of
    its completed tasks plus the progress on the tasks it still holds."""
    types = state.types
    received = {agent.agent_id: 0.0 for agent in state.agents}
    for task in state.completed:
        received[task.assignee] += types[task.type_id].effort
    for agent in state.agents:
        expected = received[agent.agent_id] + sum(
            types[task.type_id].effort - task.remaining_effort for task in agent.pending
        )
        spent = sum(state.metrics.busy_effort[agent.agent_id])
        if not math.isclose(spent, expected, rel_tol=1e-9, abs_tol=1e-6):
            raise SimulationInvariantError(
                f"effort conservation breached for agent {agent.agent_id}: "
                f"spent {spent} != {expected} completed plus in progress"
            )


def run(config: ScenarioConfig, seed: int | None = None) -> RunResult:
    """Execute one full run from an empty state and return the record
    its days were written into."""
    state = initial_state(config, seed)
    for _ in range(config.horizon_days):
        tick(state, config)
    _check_effort(state)
    result = state.metrics
    result.global_utility = sum(result.utility)
    result.completed_count = len(state.completed)
    result.high_quality_count = sum(1 for c in state.completed if c.quality_success)
    return result


def run_repeated(config: ScenarioConfig) -> RepeatedResult:
    """Run ``config.repetitions`` seeded runs (seed, seed+1, ...) and
    aggregate per-metric mean and sample standard deviation."""
    runs = [run(config, seed=config.seed + r) for r in range(config.repetitions)]
    metric_values = {
        "global_utility": [r.global_utility for r in runs],
        "completed_count": [float(r.completed_count) for r in runs],
        "high_quality_count": [float(r.high_quality_count) for r in runs],
        "delay_count": [float(r.delay_count) for r in runs],
    }
    mean = {name: statistics.fmean(values) for name, values in metric_values.items()}
    std = {
        name: statistics.stdev(values) if len(values) > 1 else 0.0
        for name, values in metric_values.items()
    }
    return RepeatedResult(runs=runs, mean=mean, std=std)
