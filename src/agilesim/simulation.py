"""Deterministic discrete-time team simulation.

Each day: (1) new tasks are admitted to the common queue of their type;
(2) agents acquire work, either through per-agent acceptance plans
(SMART) or by assigning every task on arrival to the most competent
agent (AWR); then, in one walk over the roster, (3) each agent spends
up to its daily effort on its pending tasks in acceptance order,
carrying partial effort across days, (4) each completion draws a
quality outcome with success probability equal to the worker's
competence, and (5) the agent's mood updates according to the
scenario's mood mode; (6) the day's metrics are recorded.

Tasks are counts, not objects: tasks of one type share their effort,
utility and priority, and no output depends on which task of a type was
served. The arrival schedule is a count per type per day that depends
only on the task mix and the horizon, so every seed and both
allocators see the same arrivals; the seed drives only the quality
draws, one generator per run. An agent's queue is a run of claimed
tasks per (type, claim day), and only the head task carries partial
effort. Service still works task by task, so every float sum is taken
in the order a task-by-task simulator would take it.

A SMART acceptance is planned once: an agent's claims (the non-zero
``(type, count, effort)`` triples of its ``allocation.smart_plan``) are
memoized per (agent profile, mood) (agents with one competence and the
same daily effort share a profile) by the offer, one (type, yesterday's
completions of the type, count) triple per offered type, and kept for
the run. A count whose tasks together cost more than the agent's daily
effort is keyed as -1: the budget never exceeds that effort, so the
planner takes ``floor(budget / effort)`` of it, or none, whatever the
count, and an overloaded backlog that grows every day keeps hitting the
memo. Under fcm-coupled mood few moods recur (an idle agent's mood is
the mood map's idle constant), so the memo stays small. An agent's terms
for a type (effort, utility, competence, nominal days) are built at day
0, once per profile of the roster.

A day costs the work done in it, not the head count. The run's record,
a ``RunResult``, is built at day 0 with its series and totals at zero;
``tick`` writes a day's slot or adds to a total only for an agent that
got or holds work, so an idle agent costs the walk a reset of its recent
completions and, under fcm-coupled mood, its mood step. The walk also
takes the queue sizes that congestion and the task-conservation check
read: an agent's ``queued`` counts per type, which ``_claim`` adds to
and the walk debits by the day's completions. Only agents served that
day hold any, and after an agent's service the walk checks that its
counts add up to the tasks its runs hold, in one pass over the runs
that sums their counts without a Python loop, so a backlog of
thousands of runs costs a day little. Under fcm-coupled mood every
agent takes one ``fcm.step`` a day, from ``(mood, progress, quality)``
to the next values; one that completed nothing steps from ``(mood, 0.5,
0.5)``.
All agents step one shared map, and after an idle day an agent's mood is
that map's idle constant, so a repeated idle step returns the stored
tuple of the map's last-step memo (see ``fcm``). ``tick`` keeps the
record's completion counts, and ``run`` returns that same record.

Under constant mood the repetitions of ``run_repeated`` share one
simulated trajectory and differ only in their quality draws: nothing
but the draws reads the seed, and only the mood update reads the draws.
So the first repetition is simulated and records each completion's
service term; every other one replays that stream through its own
quality generator, with ``tick``'s float operations in ``tick``'s
order, and yields only an ``Outcome`` on that one trajectory (see
``RepeatedResult``). Under fcm-coupled mood the draws move the moods,
so each repetition is simulated and is its own trajectory.

Crediting: a completed task contributes its full utility to global
utility when its quality draw succeeds, and nothing otherwise; tasks
still in flight at the horizon credit nothing.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field
from functools import reduce
from operator import add, itemgetter

from . import fcm
from .allocation import (
    TypeEconomics,
    awr_assign,
    expected_utility,
    smart_plan,
)
from .allocation import visit_order  # noqa: F401  perfbench/tracing.py patches it here
from .core import AgentState, Allocator, ScenarioConfig, TaskTypeSpec
from .metrics import congestion

_EPS = 1e-9

# One SMART acceptance: the non-zero ``(type_id, count, effort)`` claims
# of an agent's plan, in visit order.
Claims = list[tuple[str, int, float]]
# What an agent's economics and service terms depend on besides its mood
# (see ``_profile``).
Profile = tuple[float, float]
# A type's service terms for one profile: effort, utility, competence
# and nominal days.
ServiceTerm = tuple[float, float, float, int]


class SimulationInvariantError(RuntimeError):
    """An internal accounting invariant was breached; aborts the run."""


@dataclass
class SimState:
    """Complete state of one run between days.

    ``arrivals_by_day`` is the run's schedule from ``generate_arrivals``.
    ``common_queue`` counts the unassigned tasks of each type; with the
    per-type priority it realizes a priority-ordered backlog. Every
    arrived task is counted once: in the common queue, in a run of an
    agent's ``pending``, or in ``metrics.completed_count``.
    ``effort_received`` sums, per agent, the effort of the tasks it
    completed, in completion order; ``effort_spent``, the effort it
    spent, a day at a time. ``types`` is the scenario's task types by
    id. ``awr_assignee`` is the AWR assignee, the most competent agent,
    fixed for the run (None under SMART).

    ``plan_tables`` maps an agent's ``(Profile, mood)`` to its SMART
    ``Claims`` per offer, keyed by its tuple of (type, tasks of it
    completed yesterday, count offered) triples in offer order, with
    the count -1 where the offered tasks cost more than the profile's
    daily effort; it fills as moods and offers are visited.
    ``service_terms`` maps each profile of the roster to ``(effort,
    utility, competence, nominal days)`` per type, built at day 0.
    Agents of one profile share both, so their size follows the
    roster's categories and the moods visited, not its head count.

    ``metrics`` is the run's ``RunResult``, built at day 0; ``tick``
    writes each day into it and ``run`` returns it.
    """

    day: int
    agents: list[AgentState]
    types: dict[str, TaskTypeSpec]
    common_queue: dict[str, int]
    arrivals_by_day: list[list[tuple[str, int]]]
    quality_rng: random.Random
    metrics: RunResult
    effort_received: dict[str, float]
    effort_spent: dict[str, float]
    arrived_total: int = 0
    mood_map: fcm.ConceptMap | None = None
    awr_assignee: AgentState | None = None
    plan_tables: dict[
        tuple[Profile, float], dict[tuple[tuple[str, int, int], ...], Claims]
    ] = field(default_factory=dict)
    service_terms: dict[Profile, dict[str, ServiceTerm]] = field(
        default_factory=dict
    )
    _types_by_priority: list[str] = field(default_factory=list)


@dataclass
class RunResult:
    """Per-day series and totals for one simulated run.

    Built by ``initial_state`` with one slot per day and a total per
    agent, all 0; ``tick`` writes a day's slots for the agents that got
    or held work (and an emptied queue's float residue in
    ``pending_workload``) and adds to the counts and totals. Mid-run the
    days not yet ticked read 0. A run's global utility is ``utility``
    added left to right. ``categories`` maps each agent id, in roster
    order, to its category, and ``assigned_effort`` to the effort it
    claimed.

    ``completion_stream`` is recorded only under constant mood, and is
    None under fcm-coupled mood: the service term of each completion, in
    the order of the quality draws. ``completions`` splits it by day.
    ``tick`` appends to it.
    """

    scenario: str
    allocator: Allocator
    seed: int
    categories: dict[str, str]
    assigned_effort: dict[str, float]
    pending_workload: dict[str, list[float]]
    congestion: list[float]
    arrivals: list[int]
    completions: list[int]
    utility: list[float]
    completed_count: int = 0
    high_quality_count: int = 0
    delay_count: int = 0
    completion_stream: list[ServiceTerm] | None = None


@dataclass
class Outcome:
    """One repetition's quality outcomes: its seed, per-day utility and
    high-quality count, drawn on its set's trajectory at index
    ``trajectory``. With that trajectory's other fields they are
    ``run(config, seed)``."""

    seed: int
    utility: list[float]
    high_quality_count: int
    trajectory: int


@dataclass
class RepeatedResult:
    """The repetitions of one scenario: one ``Outcome`` per seed, in seed
    order; the simulated runs they were drawn on (under constant mood
    one, the first seed's; under fcm-coupled mood outcome i's is run i);
    and per-metric mean and sample standard deviation (0.0 for one)."""

    trajectories: list[RunResult]
    outcomes: list[Outcome]
    mean: dict[str, float]
    std: dict[str, float]


def generate_arrivals(config: ScenarioConfig) -> list[list[tuple[str, int]]]:
    """Each day's arrivals as ``(type_id, count)`` pairs in task-mix order.

    Each type's count is spread uniformly over the horizon: either
    floor(N/T) or ceil(N/T) per day, extras on the earliest days. The
    schedule depends only on the task mix and the horizon, never on the
    seed or the allocator.
    """
    horizon = config.horizon_days
    paces = [(spec.type_id, *divmod(count, horizon)) for spec, count in config.task_mix]
    return [
        [(tid, base + (day < extra)) for tid, base, extra in paces]
        for day in range(horizon)
    ]


def initial_state(config: ScenarioConfig, seed: int | None = None) -> SimState:
    """Build the day-0 state for a scenario.

    Validation is the caller's responsibility (the CLI and the scenario
    loader both validate); this keeps degenerate-but-harmless configs,
    such as an empty task mix, runnable for experiments.
    """
    run_seed = config.seed if seed is None else seed
    if config.mood_mode.kind == "fcm-coupled":
        # Three-node mood/progress/quality map driving daily mood updates.
        mood, mood_map = 0.5, fcm.bundled_map("michael_scenario1")
    else:
        mood, mood_map = config.mood_mode.value, None
    agents = config.team.build_agents(mood=mood)
    types = config.task_types()
    horizon = config.horizon_days
    state = SimState(
        day=0,
        agents=agents,
        types=types,
        common_queue=dict.fromkeys(types, 0),
        arrivals_by_day=generate_arrivals(config),
        quality_rng=_quality_rng(run_seed),
        metrics=RunResult(
            scenario=config.name,
            allocator=config.allocator,
            seed=run_seed,
            categories={a.agent_id: a.category.value for a in agents},
            assigned_effort={a.agent_id: 0.0 for a in agents},
            pending_workload={a.agent_id: [0.0] * horizon for a in agents},
            congestion=[0.0] * horizon,
            arrivals=[0] * horizon,
            completions=[0] * horizon,
            utility=[0.0] * horizon,
            completion_stream=None if mood_map is not None else [],
        ),
        effort_received={a.agent_id: 0.0 for a in agents},
        effort_spent={a.agent_id: 0.0 for a in agents},
        mood_map=mood_map,
    )
    state._types_by_priority = sorted(types, key=lambda t: (-types[t].priority, t))
    for competence, max_effort in dict.fromkeys(map(_profile, agents)):
        state.service_terms[competence, max_effort] = {
            tid: (s.effort, s.utility, competence, math.ceil(s.effort / max_effort))
            for tid, s in types.items()
        }
    if config.allocator is Allocator.AWR:
        # Competence is static within a run, so the choice is too.
        state.awr_assignee = {a.agent_id: a for a in agents}[awr_assign(agents)]
    return state


def _quality_rng(seed: int) -> random.Random:
    """A run's generator of quality draws; the stream the committed
    fingerprint's CSVs were drawn from."""
    return random.Random(2 * seed + 1)


def _add_each(total: float, effort: float, count: int) -> float:
    """``total`` plus ``effort`` once per task, rounded as a task-by-task
    simulator rounds it; whole numbers summing below 2**53 add exactly."""
    if total % 1 == 0 and effort % 1 == 0 and abs(total) + count * effort < 2**53:
        return total + count * effort
    for _ in range(count):
        total += effort
    return total


def _claim(agent: AgentState, tid: str, count: int, effort: float, day: int) -> None:
    pending = agent.pending
    if not pending:
        agent.head_remaining = effort
    pending.append([tid, day, count])
    queued = agent.queued
    queued[tid] = queued.get(tid, 0) + count
    agent.pending_effort = _add_each(agent.pending_effort, effort, count)


def _profile(agent: AgentState) -> Profile:
    """An agent's economics and service terms are functions of its
    competence and its daily effort, so agents with the same two share
    them."""
    return (agent.competence, agent.max_effort)


def _claims(
    state: SimState, agent: AgentState, offered: dict[str, int], psi: float
) -> Claims:
    """The agent's SMART claims on today's offer: planned the first time
    its profile and mood meet the offer's key (see ``plan_tables``) and
    kept for the run; the economics are built only then."""
    mood = agent.mood
    max_effort = agent.max_effort
    tables = state.plan_tables
    table_key = (_profile(agent), mood)
    plans = tables.get(table_key)
    if plans is None:
        plans = tables[table_key] = {}
    types = state.types
    recent = agent.recent_completions
    key = tuple([
        (
            tid,
            recent.get(tid, 0),
            count if count * types[tid].effort <= max_effort else -1,
        )
        for tid, count in offered.items()
    ])
    claims = plans.get(key)
    if claims is None:
        economics = {
            tid: TypeEconomics(
                type_id=tid,
                expected_utility=expected_utility(
                    types[tid].utility, agent.competence, mood
                ),
                recent_service_rate=float(served),
                effort=types[tid].effort,
            )
            for tid, served, _ in key
        }
        plan = smart_plan(agent, offered, economics, psi)
        claims = plans[key] = [
            (tid, count, types[tid].effort)
            for tid, count in plan.accepted.items()
            if count
        ]
    return claims


def _check_conservation(state: SimState, queue_sizes: list[int]) -> float:
    """Check that every task is in exactly one place and return the
    day's congestion. ``queue_sizes`` are the agents' non-zero
    ``queued`` counts, taken in ``tick``'s walk after each agent's
    service, where each agent's counts were checked against its runs:
    every agent that holds work is served, so they count every assigned
    task."""
    in_common = sum(state.common_queue.values())
    in_agents = sum(queue_sizes)
    completed = state.metrics.completed_count
    if in_common + in_agents + completed != state.arrived_total:
        raise SimulationInvariantError(
            f"task conservation breached on day {state.day}: "
            f"{in_common} in the common queue + {in_agents} assigned + "
            f"{completed} completed != {state.arrived_total} arrived"
        )
    # A sum of integer squares is exact in any order.
    return congestion(queue_sizes)


def tick(state: SimState, config: ScenarioConfig) -> SimState:
    """Advance the simulation by one day (mutates and returns state)."""
    if state.day >= config.horizon_days:
        raise ValueError(f"day {state.day} is already at the horizon")
    day = state.day
    types = state.types
    metrics = state.metrics
    common_queue = state.common_queue

    # (1) Admission; the backlog's priority order is by type.
    arrived = 0
    for tid, count in state.arrivals_by_day[day]:
        common_queue[tid] += count
        arrived += count
    state.arrived_total += arrived

    # (2) Allocation.
    if config.allocator is Allocator.SMART:
        psi = config.psi
        # The tasks earlier agents left, in type order, without zeros.
        offered = {tid: count for tid, count in common_queue.items() if count}
        for agent in state.agents:
            if not offered:
                break
            assigned = 0.0
            for tid, count, effort in _claims(state, agent, offered, psi):
                common_queue[tid] -= count
                left = offered[tid] - count
                if left:
                    offered[tid] = left
                else:
                    del offered[tid]
                _claim(agent, tid, count, effort, day)
                assigned += count * effort
            if assigned:
                metrics.assigned_effort[agent.agent_id] += assigned
    else:  # AWR: every task in the common queue is assigned at once, none rejected.
        agent, assigned = state.awr_assignee, 0.0
        for tid in state._types_by_priority:
            count = common_queue[tid]
            if count:
                common_queue[tid] = 0
                effort = types[tid].effort
                _claim(agent, tid, count, effort, day)
                assigned = _add_each(assigned, effort, count)
        if assigned:
            metrics.assigned_effort[agent.agent_id] += assigned

    # (3) Service, (4) quality outcomes and (5) mood update, in one walk
    # in roster order, so the quality draws keep their order. Only agents
    # holding work are served, each on locals written back once; one that
    # was not served steps from (mood, 0.5, 0.5), most days an input the
    # map's memo answers. A served agent's ``queued`` counts lose the
    # day's completions and give the queue sizes; while it still holds
    # runs, their counts must add up to the same total.
    completions_today = 0
    utility_today = 0.0
    delayed = 0
    draw = state.quality_rng.random
    stream = metrics.completion_stream
    mood_map = state.mood_map
    step = fcm.step
    queue_sizes: list[int] = []
    for agent in state.agents:
        agent_id = agent.agent_id
        pending = agent.pending
        if not pending:
            if agent.recent_completions:
                agent.recent_completions = {}
            # A finished queue can leave a float residue in pending_effort.
            if agent.pending_effort:
                metrics.pending_workload[agent_id][day] = agent.pending_effort
            if mood_map is not None:
                agent.mood = step(mood_map, (agent.mood, 0.5, 0.5))[0]
            continue
        max_effort = budget = agent.max_effort
        head_remaining = agent.head_remaining
        pending_effort = agent.pending_effort
        received = state.effort_received[agent_id]
        terms = state.service_terms[_profile(agent)]
        served: dict[str, int] = {}
        done = on_time = high_quality = 0
        while budget > _EPS and pending:
            spend = min(budget, head_remaining)
            head_remaining -= spend
            budget -= spend
            pending_effort -= spend
            if head_remaining <= _EPS:
                head = pending[0]
                tid = head[0]
                head[2] -= 1
                if not head[2]:
                    pending.popleft()
                if pending:
                    head_remaining = types[pending[0][0]].effort
                term = terms[tid]
                effort, utility, competence, nominal_days = term
                if stream is not None:
                    stream.append(term)
                received += effort
                served[tid] = served.get(tid, 0) + 1
                done += 1
                # Lateness counts from the run's claim day.
                if day - head[1] + 1 > nominal_days:
                    delayed += 1
                else:
                    on_time += 1
                if draw() < competence:
                    high_quality += 1
                    utility_today += utility
        agent.head_remaining = head_remaining
        agent.pending_effort = pending_effort
        state.effort_received[agent_id] = received
        agent.recent_completions = served
        completions_today += done
        metrics.high_quality_count += high_quality
        state.effort_spent[agent_id] += max_effort - budget
        metrics.pending_workload[agent_id][day] = pending_effort
        queued = agent.queued
        if pending:  # its queue sizes: its counts per type, less today's
            for tid, n in served.items():
                left = queued.get(tid, 0) - n
                if left:
                    queued[tid] = left
                else:
                    del queued[tid]
            queue_sizes.extend(queued.values())
            held = sum(queued.values())
            in_runs = sum(map(itemgetter(2), pending))
            if held != in_runs:
                raise SimulationInvariantError(
                    f"task conservation breached on day {day}: agent "
                    f"{agent_id} counts {held} tasks by type but holds "
                    f"{in_runs} in its runs"
                )
        else:
            queued.clear()
        if mood_map is not None:
            progress = on_time / done if done else 0.5
            quality = high_quality / done if done else 0.5
            agent.mood = step(mood_map, (agent.mood, progress, quality))[0]
    metrics.delay_count += delayed
    metrics.completed_count += completions_today

    # (6) Record the day's totals and advance the clock.
    metrics.arrivals[day] = arrived
    metrics.completions[day] = completions_today
    metrics.utility[day] = utility_today
    metrics.congestion[day] = _check_conservation(state, queue_sizes)
    state.day += 1
    return state


def _check_effort(state: SimState) -> None:
    """Per agent, the effort spent over the run must equal the effort of
    its completed tasks plus the progress on the tasks it still holds."""
    for agent in state.agents:
        expected = state.effort_received[agent.agent_id]
        if agent.pending:
            head_type = agent.pending[0][0]
            expected += state.types[head_type].effort - agent.head_remaining
        spent = state.effort_spent[agent.agent_id]
        if not math.isclose(spent, expected, rel_tol=1e-9, abs_tol=1e-6):
            raise SimulationInvariantError(
                f"effort conservation breached for agent {agent.agent_id}: "
                f"spent {spent} != {expected} completed plus in progress"
            )


def run(config: ScenarioConfig, seed: int | None = None) -> RunResult:
    """Execute one full run from an empty state and return its record."""
    state = initial_state(config, seed)
    for _ in range(config.horizon_days):
        tick(state, config)
    _check_effort(state)
    return state.metrics


def _redraw(first: RunResult, seed: int) -> Outcome:
    """The outcome at ``seed`` on ``first``, a constant-mood run and its
    set's trajectory 0: each day's completions replayed from its
    completion stream through the seed's quality draws, taking
    ``tick``'s float operations in ``tick``'s order.

    The replay must use the stream exactly: one term per completion,
    ``completed_count`` in all, and none left over.
    """
    draw = _quality_rng(seed).random
    stream = first.completion_stream
    consumed = 0
    utility = []
    high_quality = 0
    for done in first.completions:
        today = 0.0
        terms = stream[consumed : consumed + done]
        for _, value, competence, _ in terms:
            if draw() < competence:
                high_quality += 1
                today += value
        consumed += len(terms)
        utility.append(today)
    if consumed != first.completed_count or consumed != len(stream):
        raise SimulationInvariantError(
            f"redraw at seed {seed}: replayed {consumed} service terms of a "
            f"stream of {len(stream)} for {first.completed_count} completions"
        )
    return Outcome(seed, utility, high_quality, 0)


def _stdev(values: list[float]) -> float:
    """Sample standard deviation of two or more values, correctly
    rounded, as ``statistics.stdev`` gives it from Python 3.11 on (3.10
    rounds the variance and then its square root).

    Each value is an integer over a power of two, so the variance is
    ``(n * sum(a * a) - sum(a) ** 2) / (n * (n - 1) * d * d)`` exactly
    over numerators ``a`` of the common denominator ``d``. Its square
    root is taken to 109 bits rounded to odd, then rounded once to a
    float, as ``statistics._float_sqrt_of_frac`` does.
    """
    ratios = [value.as_integer_ratio() for value in values]
    d = max(q for _, q in ratios)
    numerators = [p * (d // q) for p, q in ratios]
    n = len(numerators)
    num = n * sum(a * a for a in numerators) - sum(numerators) ** 2
    den = n * (n - 1) * d * d
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def run_repeated(config: ScenarioConfig) -> RepeatedResult:
    """Run ``config.repetitions`` seeded runs (seed, seed+1, ...) and
    aggregate per-metric mean and sample standard deviation.

    The first run is simulated. If it recorded a completion stream
    (constant mood) the others are redrawn from it; under fcm-coupled
    mood each is simulated.
    """
    if config.repetitions < 1:
        raise ValueError(
            f"repetitions: must satisfy repetitions >= 1 (got {config.repetitions})"
        )
    first = run(config, seed=config.seed)
    seeds = range(config.seed + 1, config.seed + config.repetitions)
    if first.completion_stream is None:
        trajectories = [first] + [run(config, seed=seed) for seed in seeds]
        redrawn = []
    else:
        trajectories, redrawn = [first], [_redraw(first, seed) for seed in seeds]
    outcomes = [
        Outcome(r.seed, r.utility, r.high_quality_count, i)
        for i, r in enumerate(trajectories)
    ] + redrawn
    drawn_on = [trajectories[o.trajectory] for o in outcomes]
    metric_values = {
        # A left fold: sum() compensates from Python 3.12 on.
        "global_utility": [reduce(add, o.utility, 0) for o in outcomes],
        "completed_count": [float(r.completed_count) for r in drawn_on],
        "high_quality_count": [float(o.high_quality_count) for o in outcomes],
        "delay_count": [float(r.delay_count) for r in drawn_on],
    }
    mean = {name: statistics.fmean(values) for name, values in metric_values.items()}
    std = {
        name: _stdev(values) if len(values) > 1 else 0.0
        for name, values in metric_values.items()
    }
    return RepeatedResult(trajectories, outcomes, mean, std)
