import pytest

from agilesim import core, simulation
from conftest import make_scenario


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
        record = result.completed[0]
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
        assert result.completed[0].completion_day == 3
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
        for task in state.completed:
            assert task.remaining_effort == 0.0
            assert task.status is core.TaskStatus.COMPLETED
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
        assert [c.task_id for c in a.completed] == [c.task_id for c in b.completed]
        assert [c.quality_success for c in a.completed] == [
            c.quality_success for c in b.completed
        ]

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

    def test_zero_task_scenario_all_metrics_zero(self):
        # validate() rejects an empty mix, but run() honors its
        # precondition contract and simply produces an empty workload.
        config = make_scenario(tasks=(("T1", 1, 1, 1, 0),), horizon_days=4)
        result = simulation.run(config)
        assert result.completed_count == 0
        assert result.global_utility == 0.0
        assert all(v == 0.0 for v in result.utility)
        assert all(v == 0.0 for v in result.congestion)


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
        backlog = state.common_queue_tasks()
        assert len(backlog) == 6
        assert [t.type_id for t in backlog] == ["high"] * 3 + ["low"] * 3
        for queue in ([t for t in backlog if t.type_id == "high"],
                      [t for t in backlog if t.type_id == "low"]):
            days = [t.arrival_day for t in queue]
            assert days == sorted(days)
