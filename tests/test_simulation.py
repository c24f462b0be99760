import dataclasses
import math
import random
import statistics
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace

import pytest

from agilesim import cli, core, fcm, simulation
from agilesim.allocation import (
    TypeEconomics,
    awr_assign,
    expected_utility,
    smart_plan,
)
from agilesim.metrics import congestion
from conftest import make_scenario, reference_step


@dataclass
class ReferenceTask:
    """One task as an object, for the task-by-task oracle."""

    task_id: str
    type_id: str
    arrival_day: int
    remaining_effort: float
    assignee: str | None = None
    assigned_day: int | None = None
    completion_day: int | None = None
    quality_success: bool | None = None


def reference_claim(agent, task, effort, day):
    task.assignee = agent.agent_id
    task.assigned_day = day
    agent.queued[task.type_id] += 1
    agent.pending.append(task)
    agent.pending_effort += effort


def reference_state(config):
    """The day-0 state ``reference_tick`` works on: every task is a
    ``ReferenceTask`` from ``reference_arrivals``, the common queues and
    each agent's ``pending`` hold them, and completed tasks go to
    ``completed``."""
    mood = 0.5 if config.mood_mode.kind == "fcm-coupled" else config.mood_mode.value
    agents = config.team.build_agents(mood=mood)
    types = config.task_types()
    for agent in agents:
        agent.queued = dict.fromkeys(types, 0)
    arrivals_by_day = {}
    for task in reference_arrivals(config, config.seed):
        arrivals_by_day.setdefault(task.arrival_day, []).append(task)
    agents_by_id = {agent.agent_id: agent for agent in agents}
    return SimpleNamespace(
        day=0,
        agents=agents,
        common_queue={tid: deque() for tid in types},
        completed=[],
        arrivals_by_day=arrivals_by_day,
        arrived_total=0,
        quality_rng=random.Random(2 * config.seed + 1),
        mood_map=(
            fcm.bundled_map("michael_scenario1")
            if config.mood_mode.kind == "fcm-coupled"
            else None
        ),
        metrics=reference_metrics(agents),
        types_by_priority=sorted(types, key=lambda tid: (-types[tid].priority, tid)),
        awr_assignee={tid: agents_by_id[awr_assign(agents)] for tid in types},
    )


def scratch_economics(types, agent, offered):
    """The agent's SMART economics for the offered types, built from its
    competence, mood and yesterday's completions."""
    return {
        tid: TypeEconomics(
            type_id=tid,
            expected_utility=expected_utility(
                types[tid].utility, agent.competence, agent.mood
            ),
            recent_service_rate=float(agent.recent_completions.get(tid, 0)),
            effort=types[tid].effort,
        )
        for tid in offered
    }


def reference_tick(state, config):
    """The plain all-agents day on a ``reference_state``, task by task:
    every agent served, mood-stepped and recorded."""
    day = state.day
    types = config.task_types()
    metrics = state.metrics
    todays = state.arrivals_by_day.pop(day, [])
    for task in sorted(todays, key=lambda t: -types[t.type_id].priority):
        state.common_queue[task.type_id].append(task)
    state.arrived_total += len(todays)

    assigned_today = {agent.agent_id: 0.0 for agent in state.agents}
    if config.allocator is core.Allocator.SMART:
        offered = {
            tid: len(queue) for tid, queue in state.common_queue.items() if queue
        }
        for agent in state.agents:
            if not offered:
                break
            economics = scratch_economics(types, agent, offered)
            plan = smart_plan(agent, offered, economics, config.psi)
            for tid, count in plan.accepted.items():
                if count:
                    queue = state.common_queue[tid]
                    for _ in range(count):
                        task = queue.popleft()
                        reference_claim(agent, task, types[tid].effort, day)
                    assigned_today[agent.agent_id] += count * types[tid].effort
            offered = {tid: count for tid, count in plan.rejected.items() if count}
    else:
        for tid in state.types_by_priority:
            queue = state.common_queue[tid]
            agent = state.awr_assignee[tid]
            while queue:
                reference_claim(agent, queue.popleft(), types[tid].effort, day)
                assigned_today[agent.agent_id] += types[tid].effort

    completions_today = 0
    utility_today = 0.0
    per_agent_outcomes = {}
    for agent in state.agents:
        budget = agent.max_effort
        served = {}
        done = on_time = high_quality = 0
        while budget > simulation._EPS and agent.pending:
            task = agent.pending[0]
            spend = min(budget, task.remaining_effort)
            task.remaining_effort -= spend
            budget -= spend
            agent.pending_effort -= spend
            if task.remaining_effort <= simulation._EPS:
                agent.pending.popleft()
                agent.queued[task.type_id] -= 1
                task.remaining_effort = 0.0
                task.completion_day = day
                spec = types[task.type_id]
                success = state.quality_rng.random() < agent.competence
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
        per_agent_outcomes[agent.agent_id] = (done, on_time, high_quality)
        metrics.busy_effort[agent.agent_id].append(agent.max_effort - budget)

    if state.mood_map is not None:
        for agent in state.agents:
            done, on_time, high_quality = per_agent_outcomes[agent.agent_id]
            progress = on_time / done if done else 0.5
            quality = high_quality / done if done else 0.5
            mood_values = (agent.mood, progress, quality)
            agent.mood = reference_step(state.mood_map, mood_values)[0]

    for agent in state.agents:
        metrics.assigned_effort[agent.agent_id].append(assigned_today[agent.agent_id])
        metrics.pending_workload[agent.agent_id].append(agent.pending_effort)
        metrics.queue_sizes[agent.agent_id].append(len(agent.pending))
    metrics.congestion.append(
        congestion(chain.from_iterable(agent.queued.values() for agent in state.agents))
    )
    metrics.arrivals.append(len(todays))
    metrics.completions.append(completions_today)
    metrics.utility.append(utility_today)
    state.day += 1
    return state


def reference_arrivals(config, seed):
    """The schedule built task by task: each type paced over the
    horizon, then every day's tasks shuffled by the arrival stream."""
    arrivals_rng = random.Random(2 * seed)
    horizon = config.horizon_days
    per_day = [[] for _ in range(horizon)]
    for spec, count in config.task_mix:
        base, extra = divmod(count, horizon)
        serial = 0
        for day in range(horizon):
            for _ in range(base + (1 if day < extra else 0)):
                per_day[day].append(
                    ReferenceTask(
                        task_id=f"{spec.type_id.lower()}-{serial:05d}",
                        type_id=spec.type_id,
                        arrival_day=day,
                        remaining_effort=spec.effort,
                    )
                )
                serial += 1
    ordered = []
    for day in range(horizon):
        arrivals_rng.shuffle(per_day[day])
        ordered.extend(per_day[day])
    return ordered


def reference_metrics(agents):
    """Empty series for ``reference_tick`` to append to, plus a
    ``queue_sizes`` series the run's record does not keep: it shows
    which days leave a float residue in an emptied queue."""

    def per_agent():
        return {agent.agent_id: [] for agent in agents}

    return SimpleNamespace(
        assigned_effort=per_agent(), busy_effort=per_agent(),
        pending_workload=per_agent(), queue_sizes=per_agent(), congestion=[],
        arrivals=[], completions=[], utility=[], delay_count=0,
    )


def ticked(config):
    """A fresh state ticked to the horizon."""
    state = simulation.initial_state(config)
    for _ in range(config.horizon_days):
        simulation.tick(state, config)
    return state


def mood_trajectory(config, tick, state=None):
    """Every agent's mood after each day, ticking ``state`` (a fresh one
    if None) to the horizon."""
    if state is None:
        state = simulation.initial_state(config)
    moods = []
    for _ in range(config.horizon_days):
        tick(state, config)
        moods.append([agent.mood for agent in state.agents])
    return moods


SERIES = (
    "pending_workload", "congestion", "arrivals", "completions", "utility",
    "delay_count",
)


def summed(series):
    """``series`` added left to right from 0.0, as a run adds its days
    into a total."""
    total = 0.0
    for value in series:
        total += value
    return total


def random_scenario(rng, case):
    """A small scenario with fractional efforts, so pending_effort keeps
    float residues, and competence and mood down to 0."""
    categories = tuple(
        (
            category,
            rng.randint(1, 4),
            rng.choice((0.0, 1.0, round(rng.random(), 3))),
            round(rng.uniform(0.5, 12.0), 2),
        )
        for category in rng.sample(list(core.Category), rng.randint(1, 3))
    )
    tasks = tuple(
        (
            f"T{t}",
            round(rng.uniform(0.0, 10.0), 2),
            round(rng.uniform(0.1, 8.0), 2),
            round(rng.uniform(0.1, 9.0), 3),
            rng.randint(0, 40),
        )
        for t in range(rng.randint(1, 4))
    )
    if case % 3 == 0:
        mood = core.MoodMode.fcm_coupled()
    else:
        mood = core.MoodMode.constant(rng.choice((0.0, 1.0, round(rng.random(), 3))))
    return make_scenario(
        categories=categories,
        tasks=tasks,
        horizon_days=rng.randint(1, 30),
        seed=rng.randint(0, 10_000),
        psi=rng.choice((0.5, 1.0, 3.0)),
        allocator=(core.Allocator.SMART, core.Allocator.AWR)[case % 2],
        mood_mode=mood,
    )


def saturating_scenario(**overrides):
    """Two profiles offered far more than their daily effort covers, at
    fractional efforts whose products round past the budget: 17 tasks
    of effort 0.1 cost 1.7000000000000002 > 1.7."""
    settings = dict(
        categories=(
            (core.Category.HCA, 1, 1.0, 1.7),
            (core.Category.MCA, 2, 0.6, 2.1),
        ),
        tasks=(
            ("T1", 9.0, 9.0, 0.1, 600),
            ("T2", 7.0, 5.0, 0.5, 150),
            ("T3", 5.0, 4.0, 1 / 3, 120),
            ("T4", 3.0, 3.0, 0.7, 90),
        ),
        horizon_days=12,
    )
    settings.update(overrides)
    return make_scenario(**settings)


def awr_backlog_scenario():
    """M-M over 1 000 days at its daily pace, ten times its tasks, under
    AWR: the assignee's backlog grows by about five runs a day and holds
    thousands of them by the horizon."""
    config = core.preset("M-M")
    return core.validate(
        dataclasses.replace(
            config,
            horizon_days=1000,
            task_mix=tuple((spec, 10 * count) for spec, count in config.task_mix),
            allocator=core.Allocator.AWR,
        )
    )


def arrival_counts(tasks):
    """Per day, the count of each type among ``reference_arrivals``."""
    per_day = {}
    for task in tasks:
        todays = per_day.setdefault(task.arrival_day, {})
        todays[task.type_id] = todays.get(task.type_id, 0) + 1
    return per_day


class TestGenerateArrivals:
    def test_sm_pacing(self):
        schedule = simulation.generate_arrivals(core.preset("S-M"))
        assert len(schedule) == 100
        assert all(todays == [(f"T{i}", 1) for i in range(1, 6)] for todays in schedule)

    def test_mm_pacing(self):
        schedule = simulation.generate_arrivals(core.preset("M-M"))
        assert sum(count for todays in schedule for _, count in todays) == 1500
        assert schedule[0] == [(f"T{i}", 3) for i in range(1, 6)]

    def test_degenerate_horizon(self):
        config = make_scenario(tasks=(("T1", 1, 1, 1, 5),), horizon_days=1)
        assert simulation.generate_arrivals(config) == [[("T1", 5)]]

    def test_uneven_split_uses_floor_and_ceil(self):
        config = make_scenario(tasks=(("T1", 1, 1, 1, 7),), horizon_days=3)
        assert simulation.generate_arrivals(config) == [
            [("T1", 3)], [("T1", 2)], [("T1", 2)]
        ]

    def test_deterministic_and_allocator_independent(self):
        config = core.preset("S-I")
        awr = core.with_overrides(config, allocator=core.Allocator.AWR)
        want = simulation.run(config, seed=9).arrivals
        assert simulation.run(config, seed=9).arrivals == want
        assert simulation.run(awr, seed=9).arrivals == want
        assert simulation.run(config, seed=10).arrivals == want

    def test_matches_task_by_task_build(self):
        # The task-by-task schedule shuffles each day by the seed; any two
        # seeds still give each type the same count on each day.
        rng = random.Random(5)
        for case in range(60):
            config = random_scenario(rng, case)
            got = {
                day: {tid: count for tid, count in todays if count}
                for day, todays in enumerate(simulation.generate_arrivals(config))
            }
            got = {day: todays for day, todays in got.items() if todays}
            for seed in (case, case + 1):
                want = arrival_counts(reference_arrivals(config, seed))
                assert got == want, case


class TestScheduleIsolation:
    """Runs in one process share no state: each builds its own schedule,
    queues and quality generator."""

    def test_two_runs_in_one_process_are_identical(self):
        config = core.with_overrides(core.preset("S-M"), seed=7)
        a = simulation.run(config)
        b = simulation.run(config)
        for name in SERIES:
            assert getattr(a, name) == getattr(b, name), name
        first, second = ticked(config), ticked(config)
        assert first.quality_rng.getstate() == second.quality_rng.getstate()
        assert first.effort_received == second.effort_received

    def test_presets_of_one_size_share_the_schedule(self):
        si, sc = core.preset("S-I"), core.preset("S-C")
        assert simulation.generate_arrivals(si) == simulation.generate_arrivals(sc)


class TestTickHandTraces:
    def test_single_task_single_day(self):
        # Perfect worker with enough capacity finishes on arrival day and
        # the quality draw at competence 1.0 always succeeds.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 10.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=1,
        )
        result = simulation.run(config)
        assert result.completions == [1]
        assert result.high_quality_count == 1
        assert result.delay_count == 0
        assert sum(result.utility) == pytest.approx(10.0)

    def test_carryover_service_under_awr(self):
        # Effort 10 against a 3-per-day budget finishes at the end of
        # day 3 (3 + 3 + 3 + 1).
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=5,
            allocator=core.Allocator.AWR,
        )
        result = simulation.run(config)
        assert result.completions == [0, 0, 0, 1, 0]
        assert result.pending_workload["dev-000"][:4] == [7.0, 4.0, 1.0, 0.0]

    def test_zero_mood_agent_accepts_nothing(self):
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 10.0),),
            tasks=(("T1", 10, 10, 10, 3),),
            horizon_days=3,
            mood_mode=core.MoodMode.constant(0.0),
        )
        result = simulation.run(config)
        assert result.completed_count == 0
        assert all(v == 0.0 for v in result.utility)
        assert result.assigned_effort == {"dev-000": 0.0}

    def test_partial_task_state_midway(self):
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=5,
            allocator=core.Allocator.AWR,
        )
        state = simulation.initial_state(config)
        simulation.tick(state, config)
        agent = state.agents[0]
        assert list(agent.pending) == [["T1", 0, 1]]
        assert agent.head_remaining == pytest.approx(7.0)
        assert agent.pending_effort == pytest.approx(7.0)
        simulation.tick(state, config)
        assert agent.head_remaining == pytest.approx(4.0)

    def test_tick_past_horizon_rejected(self):
        config = make_scenario(horizon_days=1)
        state = simulation.initial_state(config)
        simulation.tick(state, config)
        with pytest.raises(ValueError):
            simulation.tick(state, config)


def added_one_by_one(total, effort, count):
    for _ in range(count):
        total += effort
    return total


class TestAddEach:
    def test_fractions_round_once_per_task(self):
        # 0.7 added ten times is 7.000000000000001; 10 * 0.7 is 7.0.
        assert simulation._add_each(0.0, 0.7, 10) == added_one_by_one(0.0, 0.7, 10)
        assert added_one_by_one(0.0, 0.7, 10) != 10 * 0.7

    def test_whole_numbers_past_2_53_round_once_per_task(self):
        total = 2.0**53 - 2
        assert simulation._add_each(total, 1.0, 4) == added_one_by_one(total, 1.0, 4)
        assert added_one_by_one(total, 1.0, 4) != total + 4

    def test_matches_one_by_one_on_random_inputs(self):
        rng = random.Random(11)
        for _ in range(500):
            total = rng.choice([0.0, float(rng.randrange(1000)), rng.uniform(0, 100)])
            whole = rng.randrange(1, 20)
            effort = rng.choice([float(whole), whole, rng.uniform(0.1, 9)])
            count = rng.randrange(1, 300)
            expected = added_one_by_one(total, effort, count)
            got = simulation._add_each(total, effort, count)
            assert got == expected and type(got) is type(expected)


class TestConservationAndAccounting:
    def test_every_task_in_exactly_one_place(self):
        config = core.with_overrides(core.preset("S-I"), seed=4)
        state = simulation.initial_state(config)
        for _ in range(30):
            simulation.tick(state, config)
            in_common = sum(state.common_queue.values())
            in_agents = sum(run[2] for a in state.agents for run in a.pending)
            completed = state.metrics.completed_count
            assert in_common + in_agents + completed == state.arrived_total

    def test_completed_tasks_received_exact_effort(self):
        config = make_scenario(
            categories=((core.Category.MCA, 2, 0.7, 7.0),),
            tasks=(("T1", 5, 5, 5, 6), ("T2", 3, 3, 3, 6)),
            horizon_days=8,
        )
        state = simulation.initial_state(config)
        for _ in range(config.horizon_days):
            simulation.tick(state, config)
        # Efforts are whole numbers, so every sum below is exact.
        left = dict(state.common_queue)
        for agent in state.agents:
            for tid, _, count in agent.pending:
                left[tid] += count
        done = {tid: 6 - count for tid, count in left.items()}
        assert state.metrics.completed_count == sum(done.values()) > 0
        assert sum(state.effort_received.values()) == 5 * done["T1"] + 3 * done["T2"]

    def test_effort_conservation_breach_is_caught(self, monkeypatch):
        # Effort 10 against a 3-per-day budget is still in flight at the
        # horizon; losing a unit of its remaining effort unbalances the books.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=2,
            allocator=core.Allocator.AWR,
        )
        assert simulation.run(config).pending_workload["dev-000"] == [7.0, 4.0]
        assert ticked(config).effort_spent == {"dev-000": 6.0}
        real_tick = simulation.tick

        def corrupting_tick(state, config):
            real_tick(state, config)
            if state.day == 1:
                state.agents[0].head_remaining -= 1.0
            return state

        monkeypatch.setattr(simulation, "tick", corrupting_tick)
        with pytest.raises(simulation.SimulationInvariantError, match="dev-000"):
            simulation.run(config)
        # The repetitions that are redrawn, not simulated, cannot mask it.
        with pytest.raises(simulation.SimulationInvariantError, match="dev-000"):
            simulation.run_repeated(core.with_overrides(config, repetitions=3))

    @staticmethod
    def assert_breach_on_day_1(monkeypatch, corrupt):
        """Run a one-task AWR scenario in which ``corrupt(holder, idle)``
        edits the queues between day 0 and day 1; dev-000 holds the only
        task and dev-001 holds none. The check counts the queues during
        ``tick``'s walk over the roster, so the edit is made before the
        day starts, not after the walk."""
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 1.0, 3.0),
                (core.Category.MCA, 1, 0.2, 3.0),
            ),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=3,
            allocator=core.Allocator.AWR,
        )
        simulation.run(config)
        real_tick = simulation.tick

        def corrupting_tick(state, config):
            if state.day == 1:
                holder, idle = state.agents
                assert holder.pending and not idle.pending
                corrupt(holder, idle)
            return real_tick(state, config)

        monkeypatch.setattr(simulation, "tick", corrupting_tick)
        with pytest.raises(
            simulation.SimulationInvariantError,
            match="task conservation breached on day 1",
        ) as caught:
            simulation.run(config)
        return str(caught.value)

    def test_task_conservation_breach_is_caught(self, monkeypatch):
        # A duplicate of the task, claimed by dev-001 as a well-formed run,
        # must be counted.
        self.assert_breach_on_day_1(
            monkeypatch, lambda holder, idle: simulation._claim(idle, "T1", 1, 10.0, 0)
        )

    def test_task_lost_from_a_queue_is_caught(self, monkeypatch):
        # The holder's only run is gone, so the holder is not served that day.
        self.assert_breach_on_day_1(
            monkeypatch, lambda holder, idle: holder.pending.popleft()
        )

    def test_run_grown_past_its_type_count_is_caught(self, monkeypatch):
        # The holder's run claims one task more than its per-type count.
        def corrupt(holder, idle):
            holder.pending[0][2] += 1

        message = self.assert_breach_on_day_1(monkeypatch, corrupt)
        assert "dev-000" in message

    def test_type_count_grown_past_its_runs_is_caught(self, monkeypatch):
        # The holder's per-type count, which the queue sizes are read
        # from, claims one task more than its runs hold.
        def corrupt(holder, idle):
            holder.queued["T1"] += 1

        message = self.assert_breach_on_day_1(monkeypatch, corrupt)
        assert "dev-000" in message

    def test_busy_effort_never_exceeds_budget(self):
        config = core.with_overrides(core.preset("S-M"), seed=2)
        state = simulation.initial_state(config)
        caps = {agent.agent_id: agent.max_effort for agent in state.agents}
        busy_days = 0
        for _ in range(config.horizon_days):
            spent = dict(state.effort_spent)
            simulation.tick(state, config)
            for agent, cap in caps.items():
                busy = state.effort_spent[agent] - spent[agent]
                assert busy <= cap + 1e-9
                busy_days += busy > 0
        assert busy_days > 0


class TestRunAndRepetition:
    def test_series_lengths_and_totals(self):
        config = core.with_overrides(core.preset("S-I"), seed=5)
        result = simulation.run(config)
        assert len(result.utility) == config.horizon_days
        assert len(result.congestion) == config.horizon_days
        assert sum(result.arrivals) == config.total_tasks()
        assert result.completed_count == sum(result.completions)
        assert result.high_quality_count <= result.completed_count

    def test_bit_reproducible(self):
        config = core.with_overrides(core.preset("S-M"), seed=11)
        a = simulation.run(config)
        b = simulation.run(config)
        assert a.utility == b.utility
        a, b = ticked(config), ticked(config)
        assert a.quality_rng.getstate() == b.quality_rng.getstate()
        assert a.effort_received == b.effort_received

    def test_allocator_changes_decisions_not_schedule(self):
        smart = core.with_overrides(core.preset("S-I"), seed=3)
        awr = core.with_overrides(smart, allocator=core.Allocator.AWR)
        a = simulation.run(smart)
        b = simulation.run(awr)
        assert a.arrivals == b.arrivals
        assert a.assigned_effort != b.assigned_effort

    def test_run_repeated_aggregates(self):
        config = core.with_overrides(
            core.preset("S-I"), seed=21, repetitions=3
        )
        repeated = simulation.run_repeated(config)
        assert len(repeated.outcomes) == 3
        assert {o.seed for o in repeated.outcomes} == {21, 22, 23}
        values = [sum(o.utility) for o in repeated.outcomes]
        assert repeated.mean["global_utility"] == pytest.approx(
            sum(values) / len(values)
        )
        # re-execution reproduces the final run exactly
        again = simulation.run_repeated(config)
        assert again.outcomes[-1].utility == repeated.outcomes[-1].utility

    def test_global_utility_summed_left_to_right(self):
        # Days credit 0.1, then 0.2 four times: a left fold gives
        # 0.8999999999999999, the compensated sum of Python 3.12+ 0.9.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 10.0),),
            tasks=(("T1", 1.0, 0.1, 1.0, 10),),
            horizon_days=10,
            repetitions=2,
        )
        repeated = simulation.run_repeated(config)
        assert sorted(set(repeated.outcomes[0].utility)) == [0.0, 0.1, 0.2]
        assert repeated.mean["global_utility"] == 0.8999999999999999
        assert repeated.std["global_utility"] == 0.0

    @pytest.mark.parametrize("repetitions", [0, -1])
    def test_run_repeated_rejects_fewer_than_one_repetition(self, repetitions):
        config = make_scenario(repetitions=repetitions)
        with pytest.raises(ValueError, match="repetitions"):
            simulation.run_repeated(config)

    def test_zero_task_scenario_all_metrics_zero(self):
        # validate() rejects an empty mix, but run() honors its
        # precondition contract and simply produces an empty workload.
        config = make_scenario(tasks=(("T1", 1, 1, 1, 0),), horizon_days=4)
        result = simulation.run(config)
        assert result.completed_count == 0
        assert sum(result.utility) == 0.0
        assert all(v == 0.0 for v in result.utility)
        assert all(v == 0.0 for v in result.congestion)


def assert_runs_are_independent_runs(config):
    """``run_repeated(config)`` must give, field by field and bit for
    bit, the runs and statistics of one ``run`` per repetition seed: each
    outcome's fields, and its trajectory's others, are that seed's run."""
    repeated = simulation.run_repeated(config)
    want = [
        simulation.run(config, seed=config.seed + r)
        for r in range(config.repetitions)
    ]
    assert len(repeated.outcomes) == len(want)
    drawn = {field.name for field in dataclasses.fields(simulation.Outcome)}
    for r, (outcome, want_run) in enumerate(zip(repeated.outcomes, want)):
        assert outcome.seed == config.seed + r
        trajectory = repeated.trajectories[outcome.trajectory]
        for field in dataclasses.fields(simulation.RunResult):
            got = outcome if field.name in drawn else trajectory
            assert getattr(got, field.name) == getattr(want_run, field.name), (
                config.name, config.allocator, config.seed, r, field.name
            )
        assert [v.hex() for v in outcome.utility] == [v.hex() for v in want_run.utility]
        assert sum(outcome.utility).hex() == sum(want_run.utility).hex()
    for name in ("global_utility", "completed_count", "high_quality_count", "delay_count"):
        values = [
            summed(run.utility)
            if name == "global_utility"
            else float(getattr(run, name))
            for run in want
        ]
        assert repeated.mean[name] == statistics.fmean(values), name
        assert repeated.std[name] == reference_stdev(values), name
    return repeated


def reference_stdev(values):
    """The float nearest the square root of the exact sample variance:
    ``math.sqrt``'s guess, moved while the midpoint to the next float up
    or down squares to the other side of the variance."""
    n = len(values)
    mean = sum(map(Fraction, values)) / n
    variance = sum((Fraction(v) - mean) ** 2 for v in values) / (n - 1)
    root = math.sqrt(variance)
    up, down = math.nextafter(root, math.inf), math.nextafter(root, 0.0)
    while (Fraction(root) + Fraction(up)) ** 2 < 4 * variance:
        root, up = up, math.nextafter(up, math.inf)
    while (Fraction(root) + Fraction(down)) ** 2 > 4 * variance:
        root, down = down, math.nextafter(down, 0.0)
    return root


class TestStdev:
    """``run_repeated``'s sample standard deviation is correctly rounded
    on every Python version."""

    def cases(self):
        rng = random.Random(31)
        for case in range(3000):
            n = rng.randint(2, 12)
            kind = case % 4
            if kind == 0:
                yield [rng.uniform(0.0, 1000.0) for _ in range(n)]
            elif kind == 1:
                yield [rng.uniform(-5.0, 5.0)] * n
            elif kind == 2:
                yield [float(rng.randint(0, 50)) for _ in range(n)]
            else:
                choices = (0.1, 0.2, 0.3, 1e10, -7.5, 1e-300)
                yield [rng.choice(choices) for _ in range(n)]

    def test_equals_reference(self):
        for values in self.cases():
            want = reference_stdev(values)
            assert repr(simulation._stdev(values)) == repr(want), values

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="statistics.stdev rounds twice before 3.11"
    )
    def test_equals_statistics_stdev(self):
        for values in self.cases():
            want = statistics.stdev(values)
            assert repr(simulation._stdev(values)) == repr(want), values

    def test_preset_spread_pinned(self):
        # 3.10's statistics.stdev rounds twice and gives ...305 here, so
        # summary.csv differed between versions.
        config = core.with_overrides(core.preset("L-M"), seed=1)
        assert config.allocator is core.Allocator.SMART
        repeated = simulation.run_repeated(config)
        assert repeated.std["global_utility"] == 112.81159317887304


class TestRepeatedRuns:
    """Under constant mood ``run_repeated`` simulates the first
    repetition and redraws the others' quality outcomes; under
    fcm-coupled mood it simulates each."""

    @pytest.mark.parametrize("name", core.PRESET_NAMES)
    def test_presets_equal_independent_runs(self, name):
        outcomes = set()
        for allocator in core.Allocator:
            for seed in (0, 987_654_321):
                config = core.with_overrides(
                    core.preset(name), seed=seed, allocator=allocator, repetitions=3
                )
                repeated = assert_runs_are_independent_runs(config)
                outcomes.update(o.high_quality_count for o in repeated.outcomes)
        assert len(outcomes) > 1

    @pytest.mark.parametrize("allocator", list(core.Allocator))
    def test_hand_built_scenario_equals_independent_runs(self, allocator):
        # Three competences, mood 0.3 and psi 2.5 on fractional efforts
        # and on utilities whose sums round; under AWR the one assignee
        # builds a backlog.
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 0.9, 3.5),
                (core.Category.MCA, 1, 0.6, 2.25),
                (core.Category.MIA, 1, 0.15, 2.25),
            ),
            tasks=(
                ("T1", 4.0, 6.3, 1.75, 40),
                ("T2", 2.0, 0.1, 0.8, 55),
                ("T3", 7.0, 9.7, 4.5, 12),
            ),
            horizon_days=25,
            repetitions=4,
            seed=3,
            psi=2.5,
            allocator=allocator,
            mood_mode=core.MoodMode.constant(0.3),
        )
        repeated = assert_runs_are_independent_runs(config)
        first = repeated.trajectories[0]
        if allocator is core.Allocator.AWR:
            assert max(first.pending_workload["dev-000"]) > 3 * 3.5
        else:
            assert {term[2] for term in first.completion_stream} == {0.9, 0.6, 0.15}
        assert len({tuple(o.utility) for o in repeated.outcomes}) > 1

    @pytest.mark.parametrize(
        "mood_mode, simulated",
        [(core.MoodMode.constant(0.8), [5]), (core.MoodMode.fcm_coupled(), [5, 6, 7])],
    )
    def test_only_fcm_coupled_repetitions_are_each_simulated(
        self, monkeypatch, mood_mode, simulated
    ):
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 0.9, 6.0),
                (core.Category.HIA, 2, 0.3, 4.0),
            ),
            tasks=(("T1", 5, 5, 2.5, 30), ("T2", 3, 4, 1.5, 30)),
            horizon_days=12,
            repetitions=3,
            seed=5,
            mood_mode=mood_mode,
        )
        calls = []
        real_run = simulation.run

        def counted_run(config, seed=None):
            calls.append(seed)
            return real_run(config, seed)

        monkeypatch.setattr(simulation, "run", counted_run)
        simulation.run_repeated(config)
        assert calls == simulated
        monkeypatch.setattr(simulation, "run", real_run)
        for allocator in core.Allocator:
            assert_runs_are_independent_runs(
                core.with_overrides(config, allocator=allocator)
            )

    def test_only_constant_mood_records_a_completion_stream(self):
        # The stream is one pointer per completion; fcm-coupled runs never
        # read it, so they must not hold it.
        constant = core.with_overrides(core.preset("S-M"), seed=2)
        coupled = dataclasses.replace(constant, mood_mode=core.MoodMode.fcm_coupled())
        assert simulation.initial_state(coupled).metrics.completion_stream is None
        assert simulation.run(coupled).completion_stream is None
        assert all(
            run.completion_stream is None
            for run in simulation.run_repeated(
                core.with_overrides(coupled, repetitions=2)
            ).trajectories
        )
        result = simulation.run(constant)
        assert isinstance(result.completion_stream, list)
        assert len(result.completion_stream) == result.completed_count > 0

    def test_outcomes_index_their_trajectories(self, tmp_path):
        # Constant mood: one trajectory that every outcome uses;
        # fcm-coupled mood: outcome i on trajectory i.
        cases = [
            (core.MoodMode.constant(0.8), [0, 0, 0]),
            (core.MoodMode.fcm_coupled(), [0, 1, 2]),
        ]
        for mood_mode, trajectories in cases:
            config = dataclasses.replace(
                core.with_overrides(core.preset("S-I"), seed=8, repetitions=3),
                mood_mode=mood_mode,
            )
            results = {
                a.value: simulation.run_repeated(core.with_overrides(config, allocator=a))
                for a in core.Allocator
            }
            for repeated in results.values():
                assert [o.trajectory for o in repeated.outcomes] == trajectories
                assert len(repeated.trajectories) == trajectories[-1] + 1
                # A simulated run's outcome holds that run's own utility list.
                for outcome, run in zip(repeated.outcomes, repeated.trajectories):
                    assert outcome.utility is run.utility
            # No writer changes a trajectory or an outcome.
            cli._write_simulation_outputs(tmp_path, results)
            for allocator, repeated in results.items():
                rerun = core.with_overrides(config, allocator=core.Allocator(allocator))
                assert repeated.trajectories[0] == simulation.run(rerun)
                assert repeated == simulation.run_repeated(rerun)

    @pytest.mark.parametrize(
        "change",
        [lambda stream: stream[:-1], lambda stream: stream + stream[-1:]],
        ids=["truncated", "extended"],
    )
    def test_redraw_replays_exactly_its_stream(self, change):
        first = simulation.run(core.with_overrides(core.preset("S-I"), seed=8))
        broken = dataclasses.replace(
            first, completion_stream=change(first.completion_stream)
        )
        with pytest.raises(
            simulation.SimulationInvariantError, match="redraw at seed 9: replayed"
        ):
            simulation._redraw(broken, 9)


class TestIdleAgentEquivalence:
    """``tick`` on counts against the task-by-task, all-agents day of
    ``reference_tick``."""

    def test_runs_are_identical(self, monkeypatch):
        rng = random.Random(17)
        configs = [random_scenario(rng, case) for case in range(150)] + [
            saturating_scenario(allocator=allocator, mood_mode=mood_mode)
            for allocator in core.Allocator
            for mood_mode in (core.MoodMode.constant(1.0), core.MoodMode.fcm_coupled())
        ] + [awr_backlog_scenario()]
        seen = set()
        real_plan = simulation.smart_plan
        for case, config in enumerate(configs):
            types = config.task_types()
            visited_mood = {}

            def checked_plan(agent, incoming, economics, psi):
                # A visit that overlays yesterday's completions, or one
                # whose table was built at another mood, must still see
                # a from-scratch build's economics.
                if agent.recent_completions:
                    seen.add("overlay")
                if visited_mood.get(agent.agent_id, agent.mood) != agent.mood:
                    seen.add("mood moved")
                visited_mood[agent.agent_id] = agent.mood
                assert economics == scratch_economics(types, agent, incoming), case
                assert psi == config.psi, case
                return real_plan(agent, incoming, economics, psi)

            monkeypatch.setattr(simulation, "smart_plan", checked_plan)
            got = simulation.run(config)
            monkeypatch.setattr(simulation, "smart_plan", real_plan)

            def watched_tick(state, config):
                # Congestion must total a type over an agent's runs, and
                # an agent's per-type counts must be those totals.
                simulation.tick(state, config)
                for agent in state.agents:
                    held = [run[0] for run in agent.pending]
                    if len(held) > len(set(held)):
                        seen.add("two runs of one type")
                    if len(held) > 1000:
                        seen.add("over 1000 runs")
                    totals = {}
                    for tid, _, count in agent.pending:
                        totals[tid] = totals.get(tid, 0) + count
                    assert agent.queued == totals, (case, state.day, agent.agent_id)
                return state

            got_state = simulation.initial_state(config)
            got_moods = mood_trajectory(config, watched_tick, got_state)
            state = reference_state(config)
            want_moods = mood_trajectory(config, reference_tick, state)
            want = state.metrics
            for name in SERIES:
                got_series, want_series = getattr(got, name), getattr(want, name)
                assert got_series == want_series, (case, name)
                # == takes 0 for 0.0 and -0.0 for 0.0; the CSVs would not
                assert repr(got_series) == repr(want_series), (case, name)
            assert got.completed_count == len(state.completed), case
            assert got.high_quality_count == sum(
                t.quality_success for t in state.completed
            ), case
            assert sum(got.utility) == sum(want.utility), case
            # A run's totals add the oracle's days in order, bit for bit.
            for agent in got.categories:
                for total, series in (
                    (got.assigned_effort[agent], want.assigned_effort[agent]),
                    (got_state.effort_spent[agent], want.busy_effort[agent]),
                ):
                    assert repr(total) == repr(summed(series)), (case, agent)
            assert got_moods == want_moods, case
            # The same number of quality draws, taken in the same order.
            assert got_state.quality_rng.getstate() == state.quality_rng.getstate(), case
            received = {agent.agent_id: 0.0 for agent in state.agents}
            for task in state.completed:
                received[task.assignee] += types[task.type_id].effort
            assert got_state.effort_received == received, case
            for agent in got.categories:
                if any(
                    size == 0 and load != 0.0
                    for size, load in zip(
                        want.queue_sizes[agent], got.pending_workload[agent]
                    )
                ):
                    seen.add("residue")
            if got.completed_count:
                seen.add((config.allocator, config.mood_mode.kind))
        assert seen == {
            "residue",
            "overlay",
            "two runs of one type",
            "over 1000 runs",
            "mood moved",
            (core.Allocator.SMART, "constant"),
            (core.Allocator.SMART, "fcm-coupled"),
            (core.Allocator.AWR, "constant"),
            (core.Allocator.AWR, "fcm-coupled"),
        }

    def test_mid_run_days_not_yet_ticked_read_zero(self):
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=4,
            allocator=core.Allocator.AWR,
        )
        state = simulation.initial_state(config)
        simulation.tick(state, config)
        assert state.metrics.pending_workload["dev-000"] == [7.0, 0.0, 0.0, 0.0]
        assert state.effort_spent == {"dev-000": 3.0}
        assert state.metrics.arrivals == [1, 0, 0, 0]


    def test_tables_shared_only_by_agents_of_one_competence(self, monkeypatch):
        # dev-001 and dev-002 share SMART plans and service terms, so
        # dev-002 may reuse a plan dev-001 made; dev-000, of another
        # competence, must not read theirs.
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 1.0, 4.0),
                (core.Category.MCA, 2, 0.5, 4.0),
            ),
            tasks=(("T1", 5.0, 5.0, 2.0, 60), ("T2", 3.0, 3.0, 1.0, 60)),
            horizon_days=6,
        )
        types = config.task_types()
        state = simulation.initial_state(config)
        # Every profile's terms are built at day 0.
        assert state.service_terms == {
            (competence, 4.0): {
                "T1": (2.0, 5.0, competence, 1),
                "T2": (1.0, 3.0, competence, 1),
            }
            for competence in (1.0, 0.5)
        }
        real_claims = simulation._claims
        visited = set()

        def checked_claims(state, agent, offered, psi):
            # Memoized or not, an agent's claims are those of a plan made
            # from scratch on the day's offer.
            visited.add(agent.agent_id)
            claims = real_claims(state, agent, offered, psi)
            scratch = smart_plan(
                agent, offered, scratch_economics(types, agent, offered), psi
            )
            assert claims == [
                (tid, count, types[tid].effort)
                for tid, count in scratch.accepted.items()
                if count
            ], (state.day, agent.agent_id)
            return claims

        monkeypatch.setattr(simulation, "_claims", checked_claims)
        for _ in range(config.horizon_days):
            simulation.tick(state, config)
        assert visited == {"dev-000", "dev-001", "dev-002"}
        profiles = {simulation._profile(agent) for agent in state.agents}
        assert profiles == {(1.0, 4.0), (0.5, 4.0)}
        assert {profile for profile, _ in state.plan_tables} == profiles
        assert set(state.service_terms) == profiles


class TestPlanMemo:
    """``plan_tables`` keys an offered count the daily effort cannot
    cover as -1; such counts must plan alike, and an overloaded backlog
    must reuse its plans."""

    def test_equal_keys_plan_equal_acceptances(self):
        # Each offer's memoized claims must be those of a plan made from
        # scratch on that offer; offers of one key share one stored plan,
        # so equal keys give equal acceptances.
        efforts = {"T1": 0.1, "T2": 0.3, "T3": 1 / 3, "T4": 0.7}
        rng = random.Random(11)
        reused = 0
        for max_effort in (1.7, 0.1 * 3, 1.0, 0.7 * 3, 2.0):
            config = make_scenario(
                categories=((core.Category.HCA, 1, 1.0, max_effort),),
                tasks=tuple(
                    (tid, 1.0, rng.choice((1.0, 2.0, 4.0)), effort, 1)
                    for tid, effort in efforts.items()
                ),
            )
            types = config.task_types()
            state = simulation.initial_state(config)
            (agent,) = state.agents
            counts = {}
            for tid, effort in efforts.items():
                # Just below, at and just above count * effort ==
                # max_effort, and 1.7 / 0.1's 17.
                fit = math.floor(max_effort / effort)
                counts[tid] = [
                    count
                    for count in sorted({1, fit - 1, fit, fit + 1, fit + 2, 17, 40})
                    if count > 0
                ]
            raw_offers = set()
            for _ in range(300):
                agent.recent_completions = {
                    tid: rng.choice((0, 0, 1, 3)) for tid in efforts
                }
                offered = {
                    tid: rng.choice(counts[tid])
                    for tid in rng.sample(list(efforts), rng.randint(1, 4))
                }
                psi = 1.0
                claims = simulation._claims(state, agent, offered, psi)
                scratch = smart_plan(
                    agent, offered, scratch_economics(types, agent, offered), psi
                )
                assert claims == [
                    (tid, count, efforts[tid])
                    for tid, count in scratch.accepted.items()
                    if count
                ], (max_effort, offered)
                assert all(count >= 0 for count in scratch.accepted.values())
                recent = agent.recent_completions
                raw_offers.add(
                    tuple((tid, recent[tid], count) for tid, count in offered.items())
                )
            stored = sum(len(plans) for plans in state.plan_tables.values())
            reused += len(raw_offers) - stored
        # Many distinct raw offers fell on one key.
        assert reused > 100

    def test_overloaded_backlog_reuses_its_plans(self, monkeypatch):
        # The backlog grows every day, so a key of the raw counts would
        # plan every agent-day afresh: 3 agents x 40 days.
        config = saturating_scenario(
            tasks=(
                ("T1", 9.0, 9.0, 0.1, 4000),
                ("T2", 7.0, 5.0, 0.5, 800),
                ("T3", 5.0, 4.0, 1 / 3, 800),
            ),
            horizon_days=40,
        )
        real_plan = simulation.smart_plan
        calls = []

        def counted_plan(agent, incoming, economics, psi):
            calls.append(agent.agent_id)
            return real_plan(agent, incoming, economics, psi)

        monkeypatch.setattr(simulation, "smart_plan", counted_plan)
        state = ticked(config)
        assert len(calls) <= 12, len(calls)
        assert {profile for profile, _ in state.plan_tables} == {(1.0, 1.7), (0.6, 2.1)}

    def test_each_agent_is_offered_the_common_queue_without_zeros(self, monkeypatch):
        # tick builds the offer once a day and takes each claim out of
        # it; every agent must still see the common queue's non-zero
        # counts, in type order.
        rng = random.Random(5)
        configs = [
            config
            for config in (random_scenario(rng, case) for case in range(60))
            if config.allocator is core.Allocator.SMART
        ] + [saturating_scenario()]
        real_claims = simulation._claims
        visits = 0

        def checked_claims(state, agent, offered, psi):
            nonlocal visits
            visits += 1
            want = [(tid, count) for tid, count in state.common_queue.items() if count]
            assert list(offered.items()) == want
            return real_claims(state, agent, offered, psi)

        monkeypatch.setattr(simulation, "_claims", checked_claims)
        for config in configs:
            ticked(config)
        assert visits > 100


class TestMoodCoupling:
    def test_fcm_coupled_moods_stay_fuzzy(self):
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 0.9, 20.0),
                (core.Category.HIA, 1, 0.1, 10.0),
            ),
            tasks=(("T1", 5, 5, 5, 12),),
            horizon_days=6,
            mood_mode=core.MoodMode.fcm_coupled(),
        )
        state = simulation.initial_state(config)
        assert all(agent.mood == 0.5 for agent in state.agents)
        for _ in range(config.horizon_days):
            simulation.tick(state, config)
            assert all(0.0 < agent.mood < 1.0 for agent in state.agents)

    @pytest.mark.parametrize("allocator", list(core.Allocator))
    def test_one_mood_step_per_agent_day(self, monkeypatch, allocator):
        # Served and idle agents alike step the mood map once a day, and
        # under constant mood none does.
        def scenario(mood_mode):
            return make_scenario(
                categories=(
                    (core.Category.HCA, 1, 0.9, 20.0),
                    (core.Category.HIA, 2, 0.1, 10.0),
                ),
                tasks=(("T1", 5, 5, 5, 12),),
                horizon_days=6,
                allocator=allocator,
                mood_mode=mood_mode,
            )

        real_step = fcm.step
        calls = []

        def counted_step(cmap, values):
            calls.append(values)
            return real_step(cmap, values)

        monkeypatch.setattr(fcm, "step", counted_step)
        config = scenario(core.MoodMode.fcm_coupled())
        state = simulation.initial_state(config)
        for day in range(1, config.horizon_days + 1):
            simulation.tick(state, config)
            assert len(calls) == len(state.agents) * day
        spent = list(state.effort_spent.values())
        assert 0.0 in spent and any(spent)
        calls.clear()
        ticked(scenario(core.MoodMode.constant(0.5)))
        assert calls == []

    def test_fcm_coupled_is_deterministic(self):
        config = make_scenario(
            categories=((core.Category.MCA, 2, 0.7, 10.0),),
            tasks=(("T1", 5, 5, 5, 10),),
            horizon_days=5,
            mood_mode=core.MoodMode.fcm_coupled(),
        )
        assert (
            simulation.run(config).utility == simulation.run(config).utility
        )


class TestSmartVersusAwrQuick:
    def test_sm_directional(self):
        smart = core.with_overrides(core.preset("S-M"), seed=1, repetitions=2)
        awr = core.with_overrides(smart, allocator=core.Allocator.AWR)
        smart_mean = simulation.run_repeated(smart).mean["global_utility"]
        awr_mean = simulation.run_repeated(awr).mean["global_utility"]
        assert smart_mean > awr_mean

    def test_awr_concentrates_on_top_agent(self):
        awr = core.with_overrides(
            core.preset("S-I"), seed=1, allocator=core.Allocator.AWR
        )
        result = simulation.run(awr)
        totals = result.assigned_effort
        assert totals["dev-000"] == pytest.approx(sum(totals.values()))


class TestCommonQueueOrdering:
    def test_backlog_is_priority_then_arrival_ordered(self):
        # zero mood keeps every offer in the backlog
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 10.0),),
            tasks=(("low", 1, 1, 1, 3), ("high", 9, 9, 1, 3)),
            horizon_days=3,
            mood_mode=core.MoodMode.constant(0.0),
        )
        state = simulation.initial_state(config)
        for _ in range(3):
            simulation.tick(state, config)
        assert state.common_queue == {"low": 3, "high": 3}
        assert state._types_by_priority == ["high", "low"]
        assert not state.agents[0].pending
