import gc
import math
import random
from itertools import chain
from types import SimpleNamespace

import pytest

from agilesim import core, fcm, simulation
from agilesim.allocation import TypeEconomics, expected_utility, smart_plan
from agilesim.metrics import congestion
from conftest import make_scenario


def reference_tick(state, config):
    """The plain all-agents day: every agent served, mood-stepped and
    recorded, appending to the series of a ``reference_metrics``."""
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
            economics = {
                tid: TypeEconomics(
                    type_id=tid,
                    expected_utility=expected_utility(
                        types[tid].utility, agent.competence_for(tid), agent.mood
                    ),
                    recent_service_rate=float(agent.recent_completions.get(tid, 0)),
                    effort=types[tid].effort,
                )
                for tid in offered
            }
            plan = smart_plan(agent, offered, economics, config.psi)
            for tid, count in plan.accepted.items():
                if count:
                    queue = state.common_queue[tid]
                    for _ in range(count):
                        task = queue.popleft()
                        simulation._claim(agent, task, types[tid].effort, day)
                    assigned_today[agent.agent_id] += count * types[tid].effort
            offered = {tid: count for tid, count in plan.rejected.items() if count}
    else:
        for tid in state._types_by_priority:
            queue = state.common_queue[tid]
            agent = state.awr_assignee[tid]
            while queue:
                simulation._claim(agent, queue.popleft(), types[tid].effort, day)
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
        per_agent_outcomes[agent.agent_id] = (done, on_time, high_quality)
        metrics.busy_effort[agent.agent_id].append(agent.max_effort - budget)

    if state.mood_map is not None:
        for agent in state.agents:
            done, on_time, high_quality = per_agent_outcomes[agent.agent_id]
            progress = on_time / done if done else 0.5
            quality = high_quality / done if done else 0.5
            mood_state = fcm.StateVector(values=(agent.mood, progress, quality))
            agent.mood = fcm.step(state.mood_map, mood_state).values[0]

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
                    core.TaskInstance(
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
    """A fresh state ticked to the horizon, for its ``completed`` tasks."""
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
    "assigned_effort", "busy_effort", "pending_workload", "congestion",
    "arrivals", "completions", "utility", "delay_count",
)


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


class TestGenerateArrivals:
    def test_sm_pacing(self):
        config = core.preset("S-M")
        tasks = simulation.generate_arrivals(config, seed=0)
        assert len(tasks) == 500
        per_day = {}
        per_type = {}
        for task in tasks:
            per_day[task.arrival_day] = per_day.get(task.arrival_day, 0) + 1
            per_type[task.type_id] = per_type.get(task.type_id, 0) + 1
        assert set(per_day.values()) == {5}
        assert len(per_day) == 100
        assert per_type == {f"T{i}": 100 for i in range(1, 6)}

    def test_mm_pacing(self):
        tasks = simulation.generate_arrivals(core.preset("M-M"), seed=1)
        assert len(tasks) == 1500
        first_day = [t for t in tasks if t.arrival_day == 0]
        assert len(first_day) == 15

    def test_degenerate_horizon(self):
        config = make_scenario(tasks=(("T1", 1, 1, 1, 5),), horizon_days=1)
        tasks = simulation.generate_arrivals(config, seed=3)
        assert len(tasks) == 5
        assert all(t.arrival_day == 0 for t in tasks)

    def test_uneven_split_uses_floor_and_ceil(self):
        config = make_scenario(tasks=(("T1", 1, 1, 1, 7),), horizon_days=3)
        tasks = simulation.generate_arrivals(config, seed=3)
        per_day = {}
        for task in tasks:
            per_day[task.arrival_day] = per_day.get(task.arrival_day, 0) + 1
        assert sorted(per_day.values(), reverse=True) == [3, 2, 2]

    def test_deterministic_and_allocator_independent(self):
        config = core.preset("S-I")
        a = [t.task_id for t in simulation.generate_arrivals(config, seed=9)]
        b = [t.task_id for t in simulation.generate_arrivals(config, seed=9)]
        assert a == b
        awr = core.with_overrides(config, allocator=core.Allocator.AWR)
        c = [t.task_id for t in simulation.generate_arrivals(awr, seed=9)]
        assert a == c
        d = [t.task_id for t in simulation.generate_arrivals(config, seed=10)]
        assert a != d

    def test_matches_task_by_task_build(self):
        rng = random.Random(5)
        for case in range(60):
            config = random_scenario(rng, case)
            # More keys than the day-order memo holds; the second call
            # of each is served from it.
            seed = case % 40
            for _ in range(2):
                got = simulation.generate_arrivals(config, seed)
                assert got == reference_arrivals(config, seed), case


class TestScheduleIsolation:
    """Runs share a schedule's catalog and day order, never its tasks."""

    def test_mutated_tasks_do_not_reach_a_later_call(self):
        config = core.preset("S-I")
        first = simulation.generate_arrivals(config, seed=5)
        want = reference_arrivals(config, 5)
        for task in first:
            task.remaining_effort = 0.0
            task.assignee = "dev-000"
        again = simulation.generate_arrivals(config, seed=5)
        assert again == want
        assert all(a is not b for a, b in zip(first, again))

    def test_two_runs_in_one_process_are_identical(self):
        config = core.with_overrides(core.preset("S-M"), seed=7)
        a = simulation.run(config)
        b = simulation.run(config)
        for name in SERIES:
            assert getattr(a, name) == getattr(b, name), name
        assert ticked(config).completed == ticked(config).completed

    def test_presets_of_one_size_share_the_schedule(self):
        si, sc = core.preset("S-I"), core.preset("S-C")
        a = simulation.generate_arrivals(si, seed=3)
        b = simulation.generate_arrivals(sc, seed=3)
        assert [t.task_id for t in a] == [t.task_id for t in b]
        assert all(x.task_id is y.task_id for x, y in zip(a, b))


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
        assert result.completed_count == 1
        [record] = ticked(config).completed
        assert record.completion_day == 0
        assert record.quality_success is True
        assert result.global_utility == pytest.approx(10.0)

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
        assert result.completed_count == 1
        assert ticked(config).completed[0].completion_day == 3
        assert result.busy_effort["dev-000"][:4] == [3.0, 3.0, 3.0, 1.0]

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
        assert all(
            result.assigned_effort["dev-000"][d] == 0.0 for d in range(3)
        )

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
        assert agent.pending[0].remaining_effort == pytest.approx(7.0)
        assert agent.pending_effort == pytest.approx(7.0)
        simulation.tick(state, config)
        assert agent.pending[0].remaining_effort == pytest.approx(4.0)

    def test_tick_past_horizon_rejected(self):
        config = make_scenario(horizon_days=1)
        state = simulation.initial_state(config)
        simulation.tick(state, config)
        with pytest.raises(ValueError):
            simulation.tick(state, config)


class TestConservationAndAccounting:
    def test_every_task_in_exactly_one_place(self):
        config = core.with_overrides(core.preset("S-I"), seed=4)
        state = simulation.initial_state(config)
        for _ in range(30):
            simulation.tick(state, config)
            in_common = sum(len(q) for q in state.common_queue.values())
            in_agents = sum(len(a.pending) for a in state.agents)
            assert in_common + in_agents + len(state.completed) == state.arrived_total

    def test_completed_tasks_received_exact_effort(self):
        config = make_scenario(
            categories=((core.Category.MCA, 2, 0.7, 7.0),),
            tasks=(("T1", 5, 5, 5, 6), ("T2", 3, 3, 3, 6)),
            horizon_days=8,
        )
        state = simulation.initial_state(config)
        for _ in range(config.horizon_days):
            simulation.tick(state, config)
        elsewhere = {
            id(task)
            for task in chain(
                chain.from_iterable(state.common_queue.values()),
                chain.from_iterable(agent.pending for agent in state.agents),
            )
        }
        assert state.completed
        for task in state.completed:
            assert id(task) not in elsewhere
            assert task.remaining_effort == 0.0
            assert task.completion_day is not None
            assert task.completion_day >= task.arrival_day

    def test_effort_conservation_breach_is_caught(self, monkeypatch):
        # Effort 10 against a 3-per-day budget is still in flight at the
        # horizon; losing a unit of its remaining effort unbalances the books.
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 3.0),),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=2,
            allocator=core.Allocator.AWR,
        )
        assert simulation.run(config).busy_effort["dev-000"] == [3.0, 3.0]
        real_tick = simulation.tick

        def corrupting_tick(state, config):
            real_tick(state, config)
            if state.day == 1:
                state.agents[0].pending[0].remaining_effort -= 1.0
            return state

        monkeypatch.setattr(simulation, "tick", corrupting_tick)
        with pytest.raises(simulation.SimulationInvariantError, match="dev-000"):
            simulation.run(config)

    def test_task_conservation_breach_is_caught(self, monkeypatch):
        # dev-000 holds the only task; a duplicate of it slipped into the
        # queue of dev-001, which held no work and so was not served,
        # must still be counted.
        config = make_scenario(
            categories=(
                (core.Category.HCA, 1, 1.0, 3.0),
                (core.Category.MCA, 1, 0.2, 3.0),
            ),
            tasks=(("T1", 10, 10, 10, 1),),
            horizon_days=3,
            allocator=core.Allocator.AWR,
        )
        real_check = simulation._check_conservation

        def corrupting_check(state):
            if state.day == 1:
                holder, idle = state.agents
                assert holder.pending and not idle.pending
                idle.pending.append(holder.pending[0])
            real_check(state)

        monkeypatch.setattr(simulation, "_check_conservation", corrupting_check)
        with pytest.raises(
            simulation.SimulationInvariantError,
            match="task conservation breached on day 1",
        ):
            simulation.run(config)

    def test_busy_effort_never_exceeds_budget(self):
        config = core.with_overrides(core.preset("S-M"), seed=2)
        result = simulation.run(config)
        for agent in result.agent_ids:
            cap = next(
                s.max_effort
                for s in config.team.categories
                if s.category.value == result.categories[agent]
            )
            assert all(v <= cap + 1e-9 for v in result.busy_effort[agent])


class TestRunAndRepetition:
    def test_series_lengths_and_totals(self):
        config = core.with_overrides(core.preset("S-I"), seed=5)
        result = simulation.run(config)
        assert len(result.utility) == config.horizon_days
        assert len(result.congestion) == config.horizon_days
        assert sum(result.arrivals) == config.total_tasks()
        assert result.global_utility == pytest.approx(sum(result.utility))
        assert result.completed_count == sum(result.completions)
        assert result.high_quality_count <= result.completed_count

    def test_bit_reproducible(self):
        config = core.with_overrides(core.preset("S-M"), seed=11)
        a = simulation.run(config)
        b = simulation.run(config)
        assert a.utility == b.utility
        a, b = ticked(config).completed, ticked(config).completed
        assert [c.task_id for c in a] == [c.task_id for c in b]
        assert [c.quality_success for c in a] == [c.quality_success for c in b]

    def test_allocator_changes_decisions_not_schedule(self):
        smart = core.with_overrides(core.preset("S-I"), seed=3)
        awr = core.with_overrides(smart, allocator=core.Allocator.AWR)
        a = simulation.run(smart)
        b = simulation.run(awr)
        assert a.arrivals == b.arrivals
        assert a.total_assigned_effort() != b.total_assigned_effort()

    def test_run_repeated_aggregates(self):
        config = core.with_overrides(
            core.preset("S-I"), seed=21, repetitions=3
        )
        repeated = simulation.run_repeated(config)
        assert len(repeated.runs) == 3
        assert {r.seed for r in repeated.runs} == {21, 22, 23}
        values = [r.global_utility for r in repeated.runs]
        assert repeated.mean["global_utility"] == pytest.approx(
            sum(values) / len(values)
        )
        # re-execution reproduces the final run exactly
        again = simulation.run_repeated(config)
        assert again.runs[-1].utility == repeated.runs[-1].utility

    def test_repeated_result_holds_no_tasks(self):
        # Counts and series are all a run's record keeps; its tasks are
        # garbage once the run returns.
        config = core.with_overrides(core.preset("S-M"), repetitions=3)
        repeated = simulation.run_repeated(config)
        gc.collect()
        assert not [o for o in gc.get_objects() if isinstance(o, core.TaskInstance)]
        assert sum(r.completed_count for r in repeated.runs) > 0

    def test_zero_task_scenario_all_metrics_zero(self):
        # validate() rejects an empty mix, but run() honors its
        # precondition contract and simply produces an empty workload.
        config = make_scenario(tasks=(("T1", 1, 1, 1, 0),), horizon_days=4)
        result = simulation.run(config)
        assert result.completed_count == 0
        assert result.global_utility == 0.0
        assert all(v == 0.0 for v in result.utility)
        assert all(v == 0.0 for v in result.congestion)


class TestIdleAgentEquivalence:
    """``tick`` against the plain all-agents day of ``reference_tick``."""

    def test_runs_are_identical(self, monkeypatch):
        rng = random.Random(17)
        seen = set()
        real_plan = simulation.smart_plan
        for case in range(150):
            config = random_scenario(rng, case)
            types = config.task_types()
            visited_mood = {}

            def checked_plan(agent, incoming, economics, psi):
                # A visit that overlays yesterday's completions, or one
                # whose table was built at another mood, must still see
                # the economics of a from-scratch build.
                if agent.recent_completions:
                    seen.add("overlay")
                if visited_mood.get(agent.agent_id, agent.mood) != agent.mood:
                    seen.add("mood moved")
                visited_mood[agent.agent_id] = agent.mood
                assert set(economics) == set(incoming), case
                for tid in incoming:
                    assert economics[tid] == TypeEconomics(
                        type_id=tid,
                        expected_utility=expected_utility(
                            types[tid].utility, agent.competence_for(tid), agent.mood
                        ),
                        recent_service_rate=float(agent.recent_completions.get(tid, 0)),
                        effort=types[tid].effort,
                    ), case
                return real_plan(agent, incoming, economics, psi)

            monkeypatch.setattr(simulation, "smart_plan", checked_plan)
            got = simulation.run(config)
            monkeypatch.setattr(simulation, "smart_plan", real_plan)
            got_state = simulation.initial_state(config)
            got_moods = mood_trajectory(config, simulation.tick, got_state)
            state = simulation.initial_state(config)
            state.metrics = reference_metrics(state.agents)
            want_moods = mood_trajectory(config, reference_tick, state)
            want = state.metrics
            for name in SERIES:
                got_series, want_series = getattr(got, name), getattr(want, name)
                assert got_series == want_series, (case, name)
                # == takes 0 for 0.0 and -0.0 for 0.0; the CSVs would not
                assert repr(got_series) == repr(want_series), (case, name)
            assert [
                (t.task_id, t.assignee, t.completion_day, t.quality_success)
                for t in got_state.completed
            ] == [
                (t.task_id, t.assignee, t.completion_day, t.quality_success)
                for t in state.completed
            ], case
            assert got_moods == want_moods, case
            for agent in got.agent_ids:
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
        assert state.metrics.busy_effort["dev-000"] == [3.0, 0.0, 0.0, 0.0]
        assert state.metrics.arrivals == [1, 0, 0, 0]


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
        totals = result.total_assigned_effort()
        assert totals["dev-000"] == pytest.approx(sum(totals.values()))


class TestCommonQueueOrdering:
    def test_backlog_is_priority_then_arrival_ordered(self):
        # zero mood keeps every offer in the backlog, exposing the order
        config = make_scenario(
            categories=((core.Category.HCA, 1, 1.0, 10.0),),
            tasks=(("low", 1, 1, 1, 3), ("high", 9, 9, 1, 3)),
            horizon_days=3,
            mood_mode=core.MoodMode.constant(0.0),
        )
        state = simulation.initial_state(config)
        for _ in range(3):
            simulation.tick(state, config)
        backlog = [
            task
            for tid in state._types_by_priority
            for task in state.common_queue[tid]
        ]
        assert len(backlog) == 6
        assert [t.type_id for t in backlog] == ["high"] * 3 + ["low"] * 3
        for queue in ([t for t in backlog if t.type_id == "high"],
                      [t for t in backlog if t.type_id == "low"]):
            days = [t.arrival_day for t in queue]
            assert days == sorted(days)
